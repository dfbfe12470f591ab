#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory); cargo's output goes to
standard error. The benchmark's own standard output passes through
unchanged, and its last line is the JSON result. A failed build exits
with cargo's code and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIKE_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "dike-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
