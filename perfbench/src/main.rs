//! One benchmark for the simulator, the schedulers and the fleet.
//!
//! `dike-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one named workload in this process: it generates the workload's
//! inputs from the seed, then repeats whole rounds of the workload until
//! `--seconds` of measurement have passed. Every round is set up (inputs,
//! machines, schedulers) and then run; both phases are timed apart and
//! reported as medians over the rounds. The outputs of every round are
//! checked, and the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and the metrics of the mode: the
//! end-to-end metrics untraced, the per-layer metrics traced.
//!
//! See `README.md` beside this package for the workloads, metrics, seeds
//! and reference figures.

mod checks;
mod closed;
mod fleet;
mod open;
mod report;
mod trace;

use report::Outcome;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper_grid", "numa_open", "fleet_oneshot", "fleet_faults"];

/// Default workload seed. Seed 977 is held out: it is used only to
/// confirm a claimed gain on inputs the change was not tuned on.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    println!(
        "workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome: Outcome = match args.workload.as_str() {
        "paper_grid" => closed::paper_grid(args.seed, args.seconds, args.trace),
        "numa_open" => open::numa_open(args.seed, args.seconds, args.trace),
        "fleet_oneshot" => fleet::oneshot(args.seed, args.seconds, args.trace, workers),
        "fleet_faults" => fleet::faults(args.seed, args.seconds, args.trace, workers),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    outcome.print(args.trace);
    ExitCode::SUCCESS
}
