//! Rounds, medians, the output digest and the result line.

use dike_machine::SimTime;
use dike_sched_core::RunResult;
use std::time::Instant;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, built with [`Metrics::put`].
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Per-name median over several rounds' metric lists (all rounds list
    /// the same names in the same order).
    pub fn median_of(rounds: &[Metrics]) -> Metrics {
        let Some(first) = rounds.first() else {
            return Metrics::default();
        };
        let mut out = Metrics::default();
        for (i, m) in first.0.iter().enumerate() {
            let values: Vec<f64> = rounds.iter().map(|r| r.0[i].value).collect();
            out.put(&m.name, median(&values), m.unit);
        }
        out
    }
}

/// The whole result of one benchmark process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated threads offered, counted from the generated inputs.
    pub attempted: u64,
    /// Offered threads that did not finish exactly once before the deadline.
    pub failed: u64,
    /// Check failures (empty = every check passed).
    pub errors: Vec<String>,
    /// End-to-end metrics of this run.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Digest of every simulated output of one round.
    pub digest: u64,
    /// Host times of the measured rounds.
    pub rounds: Rounds,
    /// Facts about the workload worth a line of output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed check (or the error of a check that must fail).
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Record a round's digest. Returns true for the first round, whose
    /// digest every later round must reproduce.
    pub fn digest_round(&mut self, round: usize, digest: u64) -> bool {
        if round == 0 {
            self.digest = digest;
            return true;
        }
        if digest != self.digest {
            self.errors.push(format!(
                "round {round} digest {digest:016x} differs from {:016x}",
                self.digest
            ));
        }
        false
    }

    /// Print the human-readable summary, then the result line last.
    pub fn print(&self, traced: bool) {
        let spread = |v: &[f64]| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("min {lo:.6} median {:.6} max {hi:.6}", median(v))
        };
        println!("rounds {}", self.rounds.run_s.len());
        println!("round run_s {}", spread(&self.rounds.run_s));
        println!("round setup_s {}", spread(&self.rounds.setup_s));
        println!("digest {:016x}", self.digest);
        for n in &self.notes {
            println!("note {n}");
        }
        for m in &self.end_to_end.0 {
            println!("e2e {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.layers.0 {
            println!("layer {:<30} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for e in &self.errors {
            println!("CHECK FAILED {e}");
        }
        let shown = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut correct = self.errors.is_empty();
        let mut fields = Vec::with_capacity(shown.0.len());
        for m in &shown.0 {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                println!("CHECK FAILED metric {} is not finite", m.name);
                0.0
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host times of the measured rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
}

/// Fewest rounds a run measures, however long a round takes, so that
/// every reported time is a median of at least three.
const MIN_ROUNDS: usize = 3;

/// Set-ups timed per round. Set-up is short next to a round's run phase,
/// so it is repeated (all but the last build are dropped untimed) to give
/// its median more samples.
const SETUPS_PER_ROUND: usize = 5;

/// Repeat whole rounds — `setup`, then `run` on what it built, then
/// `inspect` (checks, digests; untimed) — until `seconds` of wall time
/// have passed and at least [`MIN_ROUNDS`] rounds ran.
pub fn repeat<S, R>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
    mut inspect: impl FnMut(usize, R),
) -> Rounds {
    let start = Instant::now();
    let mut rounds = Rounds::default();
    loop {
        let mut built = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(built.take());
            let t0 = Instant::now();
            built = Some(std::hint::black_box(setup()));
            rounds.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let built = built.expect("at least one set-up per round");
        let t1 = Instant::now();
        let out = std::hint::black_box(run(built));
        rounds.run_s.push(t1.elapsed().as_secs_f64());
        inspect(rounds.run_s.len() - 1, out);
        if rounds.run_s.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

/// Process peak resident set (`VmHWM`), in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over the bits of every simulated output, so a change that
/// should only speed the simulator up can show bit-identity with its
/// parent on the same seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Every thread's identity, timing and counters, and the run's own
    /// counters.
    pub fn run_result(&mut self, r: &RunResult) {
        for t in &r.threads {
            self.u64(u64::from(t.app));
            self.u64(t.spawned_at.as_us());
            self.u64(t.finished_at.map_or(u64::MAX, SimTime::as_us));
            self.f64(t.counters.instructions);
            self.f64(t.counters.llc_misses);
            self.u64(t.counters.busy_us);
            self.u64(t.counters.remote_us);
            self.u64(t.counters.migrations);
        }
        for x in [
            r.wall.as_us(),
            r.quanta,
            r.migrations,
            r.swaps,
            r.partitions,
        ] {
            self.u64(x);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// traced run prints all of them; a layer a workload does not exercise
/// reads 0 there.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("workloads.gen_s", "s"),
    ("machine.replay_s", "s"),
    ("machine.ticks", "count"),
    ("machine.ns_per_tick", "ns"),
    ("machine.ns_per_vcore_tick", "ns"),
    ("machine.migrations", "count"),
    ("machine.balancer_moves", "count"),
    ("machine.remote_frac", "ratio"),
    ("machine.partitions", "count"),
    ("sched-core.driver_s", "s"),
    ("sched-core.quanta", "count"),
    ("dike.on_quantum_s", "s"),
    ("dike.us_per_quantum", "us"),
    ("dike.swaps", "count"),
    ("dike.swap_yield", "ratio"),
    ("dike.fair_quanta_frac", "ratio"),
    ("dike.swap_retries", "count"),
    ("dike.swaps_abandoned", "count"),
    ("dike.rejected_low_confidence", "count"),
    ("baselines.cfs.unfairness", "ratio"),
    ("baselines.dio.unfairness", "ratio"),
    ("baselines.lfoc.unfairness", "ratio"),
    ("baselines.dio.swaps", "count"),
    ("baselines.cfs.us_per_quantum", "us"),
    ("baselines.dio.us_per_quantum", "us"),
    ("baselines.lfoc.us_per_quantum", "us"),
    ("metrics.reduce_s", "s"),
    ("fleet.plan_s", "s"),
    ("fleet.fanout_s", "s"),
    ("fleet.rollup_s", "s"),
    ("fleet.machine_p50_ms", "ms"),
    ("fleet.machine_max_ms", "ms"),
    ("util.pool_busy_frac", "ratio"),
    ("fleet.epochs", "count"),
    ("fleet.orphaned", "count"),
    ("fleet.quarantines", "count"),
    ("fleet.readmissions", "count"),
    ("fleet.redispatch_yield", "ratio"),
];

impl Metrics {
    /// These metrics in [`LAYER_METRICS`] order, 0 for any not measured.
    /// A name outside the list is a bug in this benchmark.
    pub fn complete_layers(&self) -> Metrics {
        for m in &self.0 {
            assert!(
                LAYER_METRICS.iter().any(|(n, _)| *n == m.name),
                "per-layer metric {} is not declared",
                m.name
            );
        }
        let mut out = Metrics::default();
        for (name, unit) in LAYER_METRICS {
            let value = self
                .0
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            out.put(name, value, unit);
        }
        out
    }
}

/// The simulated end-to-end figures of one round (identical every round
/// for a fixed seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    pub unfairness: f64,
    pub worst_unfairness: f64,
    pub sojourn_sim_s: f64,
    pub makespan_sim_s: f64,
}

impl Sim {
    /// The figures of an open or fleet run, from its windowed fairness.
    pub fn windowed(
        mean_fairness: f64,
        worst_fairness: f64,
        sojourn_s: f64,
        makespan_s: f64,
    ) -> Sim {
        Sim {
            unfairness: 1.0 - mean_fairness,
            worst_unfairness: 1.0 - worst_fairness,
            sojourn_sim_s: sojourn_s,
            makespan_sim_s: makespan_s,
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order; `run_s` is the
/// workload's estimate of one round's run phase.
pub fn end_to_end(rounds: &Rounds, run_s: f64, threads_per_round: u64, sim: &Sim) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&rounds.setup_s), "s");
    m.put("run_s", run_s, "s");
    m.put("threads_per_s", threads_per_round as f64 / run_s, "1/s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("unfairness", sim.unfairness, "ratio");
    m.put("worst_unfairness", sim.worst_unfairness, "ratio");
    m.put("sojourn_sim_s", sim.sojourn_sim_s, "s");
    m.put("makespan_sim_s", sim.makespan_sim_s, "s");
    m
}
