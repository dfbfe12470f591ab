//! `paper_grid`: the paper's closed batch. The 16 Table II mixes on the
//! 40-vcore paper machine, each under CFS, DIO, LFOC, Dike and Dike+LFOC
//! (Fig 6, Table III), run one cell after another on this thread.

use crate::checks::{self, Corruption, Input, ThreadRec};
use crate::report::{self, Digest, Metrics, Outcome, Sim};
use crate::trace::{self, Policy, Sink, Span};
use dike_experiments::roster::PolicyHandle;
use dike_experiments::runner::SchedKind;
use dike_machine::{
    presets, AppId, BarrierId, Machine, MachineConfig, SimTime, ThreadId, ThreadSpec, VCoreId,
};
use dike_metrics::RuntimeMatrix;
use dike_sched_core::{run, RunResult};
use dike_scheduler::SchedConfig;
use dike_workloads::{paper, Placement};
use std::sync::Arc;
use std::time::Instant;

/// Instruction-budget scale of every thread (1.0 = paper scale).
const SCALE: f64 = 0.5;
/// Simulated deadline of each cell; every cell finishes well before it.
const DEADLINE_S: f64 = 600.0;
/// Alternations of bare replay and null run per mix in a traced run.
const REFERENCE_REPEATS: usize = 3;

/// The policies of each mix, in run order.
fn policies() -> [SchedKind; 5] {
    [
        SchedKind::Cfs,
        SchedKind::Dio,
        SchedKind::Lfoc,
        SchedKind::Dike(SchedConfig::DEFAULT),
        SchedKind::DikeLfoc,
    ]
}
const CFS: usize = 0;
const DIO: usize = 1;
const LFOC: usize = 2;
const DIKE: usize = 3;
const DIKE_LFOC: usize = 4;

/// One mix's generated inputs.
struct Mix {
    /// Every thread's spec and initial vcore, in spawn order.
    spawns: Vec<(ThreadSpec, VCoreId)>,
    /// Per app: threads offered and what each must retire.
    inputs: Vec<Input>,
    /// Apps `0..bench_apps` are scored; the rest are background.
    bench_apps: u32,
}

/// The machine and the spawn plans of all 16 mixes: app-major threads
/// with interleaved initial placement, as the paper's experiments start.
fn generate(seed: u64) -> (MachineConfig, Vec<Mix>) {
    let cfg = presets::paper_machine(seed);
    let n_vcores = cfg.topology.num_vcores();
    let mixes = paper::all_workloads()
        .iter()
        .map(|w| {
            let order = w.placement_order(Placement::Interleaved, n_vcores);
            let mut spawns = Vec::with_capacity(w.num_threads());
            let mut inputs = Vec::new();
            for (a, app) in w.all_apps().into_iter().enumerate() {
                let spec = app.thread_spec(AppId(a as u32), SCALE, BarrierId(a as u32));
                inputs.push(Input::of(&spec, w.threads_per_app as u32, &cfg.topology));
                for _ in 0..w.threads_per_app {
                    spawns.push((spec.clone(), order[spawns.len()]));
                }
            }
            Mix {
                spawns,
                inputs,
                bench_apps: w.apps.len() as u32,
            }
        })
        .collect();
    (cfg, mixes)
}

fn spawned(cfg: &MachineConfig, mix: &Mix) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    for (spec, vcore) in &mix.spawns {
        machine.spawn(spec.clone(), *vcore);
    }
    machine
}

/// One (mix × policy) cell, built and ready to run.
struct Cell {
    mix: usize,
    policy: usize,
    machine: Machine,
    sched: Policy,
}

/// What one cell produced.
struct CellOut {
    mix: usize,
    policy: usize,
    result: RunResult,
    fairness: f64,
    mean_runtime: f64,
    total_migrations: u64,
    balancer_moves: u64,
    /// Host time in the driver.
    run_s: f64,
    /// Host time in the `dike-metrics` reductions.
    reduce_s: f64,
    /// Host time of the whole cell, reductions included.
    cell_s: f64,
    span: Option<Span>,
}

/// A closed cell's checkable result, for the checks and their self-test.
#[derive(Clone)]
struct Observed {
    recs: Vec<ThreadRec>,
    fairness: f64,
    mean_runtime: f64,
}

fn check_cell(mix: &Mix, o: &Observed) -> Result<(), String> {
    checks::conservation(&mix.inputs, &o.recs)?;
    checks::work(&mix.inputs, &o.recs)?;
    checks::closed_fairness(&o.recs, mix.bench_apps, o.fairness, o.mean_runtime)
}

fn corrupt(o: &mut Observed, c: Corruption, tick_us: u64) -> bool {
    match c {
        Corruption::DroppedThread => {
            o.recs.pop();
            true
        }
        Corruption::ShiftedFinish => checks::shift_finish(&mut o.recs, tick_us),
        Corruption::LostFleetEvent => false,
        Corruption::PerturbedFairness => {
            o.fairness += 1e-6;
            true
        }
    }
}

pub fn paper_grid(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let deadline = SimTime::from_secs_f64(DEADLINE_S);
    let kinds = policies();
    let sink = Arc::new(Sink::default());
    let (cfg, reference) = generate(seed);
    let tick_us = cfg.tick_us;
    let n_vcores = cfg.topology.num_vcores() as f64;
    let threads_per_round: u64 =
        reference.iter().map(|m| m.spawns.len() as u64).sum::<u64>() * kinds.len() as u64;

    let mut out = Outcome::default();
    let mut sim = Sim::default();
    let mut layer_rounds = Vec::new();
    let mut cell_times: Vec<Vec<f64>> = Vec::new();

    let setup = || {
        let t0 = Instant::now();
        let (cfg, mixes) = generate(seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let mut cells = Vec::with_capacity(mixes.len() * kinds.len());
        for (m, mix) in mixes.iter().enumerate() {
            for (p, kind) in kinds.iter().enumerate() {
                let machine = spawned(&cfg, mix);
                let handle = PolicyHandle::build(kind, &machine.config().llc);
                let sched = Policy::new(handle, traced.then_some(&sink));
                cells.push(Cell {
                    mix: m,
                    policy: p,
                    machine,
                    sched,
                });
            }
        }
        (cells, gen_s)
    };

    let run_round = |(cells, gen_s): (Vec<Cell>, f64)| {
        let outs: Vec<CellOut> = cells
            .into_iter()
            .map(|mut cell| {
                let t0 = Instant::now();
                let result = run(&mut cell.machine, cell.sched.as_dyn(), deadline);
                let t1 = Instant::now();
                drop(cell.sched);
                let span = sink.take().pop();
                let bench = reference[cell.mix].bench_apps;
                let t2 = Instant::now();
                let matrix =
                    RuntimeMatrix::new((0..bench).map(|a| result.app_runtimes(a)).collect());
                let fairness = matrix.fairness();
                let mean_runtime = matrix.mean_app_runtime();
                let t3 = Instant::now();
                CellOut {
                    mix: cell.mix,
                    policy: cell.policy,
                    fairness,
                    mean_runtime,
                    total_migrations: cell.machine.total_migrations(),
                    balancer_moves: cell.machine.balancer_moves(),
                    run_s: (t1 - t0).as_secs_f64(),
                    reduce_s: (t3 - t2).as_secs_f64(),
                    cell_s: (t3 - t0).as_secs_f64(),
                    span,
                    result,
                }
            })
            .collect();
        (outs, gen_s)
    };

    let rounds = report::repeat(seconds, setup, run_round, |round, (outs, gen_s)| {
        let mut digest = Digest::default();
        cell_times.resize(outs.len(), Vec::new());
        for (c, times) in outs.iter().zip(&mut cell_times) {
            times.push(c.cell_s);
        }
        for c in &outs {
            let mix = &reference[c.mix];
            let obs = Observed {
                recs: checks::records(&c.result, |a| a, |a| a),
                fairness: c.fairness,
                mean_runtime: c.mean_runtime,
            };
            out.attempted += mix.spawns.len() as u64;
            out.failed +=
                mix.spawns.len() as u64 - checks::finished(&obs.recs).min(mix.spawns.len() as u64);
            out.check(
                &format!("WL{} {}", c.mix + 1, kinds[c.policy].label()),
                check_cell(mix, &obs),
            );
            if round == 0 && c.mix == 0 && c.policy == DIKE {
                out.check(
                    "self-test",
                    checks::self_test(&obs, |o, k| corrupt(o, k, tick_us), |o| check_cell(mix, o)),
                );
            }
            hash_cell(&mut digest, c);
        }
        out.check("paper properties", paper_properties(&outs));
        let digest = digest.finish();
        if out.digest_round(round, digest) {
            sim = simulated(&outs);
            let per_mix = mix_unfairness(&outs);
            let worst = (0..per_mix.len())
                .max_by(|&a, &b| per_mix[a].total_cmp(&per_mix[b]))
                .unwrap_or(0);
            out.notes
                .push(format!("worst mix for the Dike family: WL{}", worst + 1));
        }
        if traced {
            layer_rounds.push(layers(&outs, gen_s, tick_us, n_vcores));
        }
    });

    // Reference pass: each mix replayed on a bare machine, and run through
    // the driver under the null policy. The two must agree to the bit.
    // The driver's own cost is the small difference of two noisy times, so
    // a traced run alternates the pair several times and keeps medians.
    let repeats = if traced { REFERENCE_REPEATS } else { 1 };
    let mut replay_s = 0.0;
    let mut null_s = 0.0;
    for (m, mix) in reference.iter().enumerate() {
        let (mut bare_times, mut null_times) = (Vec::new(), Vec::new());
        for _ in 0..repeats {
            let mut bare = spawned(&cfg, mix);
            let t0 = Instant::now();
            bare.run_until_done(deadline);
            bare_times.push(t0.elapsed().as_secs_f64());
            let mut null_machine = spawned(&cfg, mix);
            let mut null = PolicyHandle::build(&SchedKind::Null, &cfg.llc);
            let t1 = Instant::now();
            let null_run = run(&mut null_machine, null.as_scheduler(), deadline);
            null_times.push(t1.elapsed().as_secs_f64());
            let bare_finish: Vec<Option<SimTime>> = (0..bare.num_threads())
                .map(|t| bare.finish_time(ThreadId(t as u32)))
                .collect();
            let null_finish: Vec<Option<SimTime>> =
                null_run.threads.iter().map(|t| t.finished_at).collect();
            let n = mix.spawns.len();
            out.attempted += 2 * n as u64;
            out.failed += (2 * n
                - (bare_finish.iter().flatten().count() + null_finish.iter().flatten().count())
                    .min(2 * n)) as u64;
            if bare_finish != null_finish {
                out.errors.push(format!(
                    "WL{}: null run through the driver and bare replay finish differently",
                    m + 1
                ));
            }
        }
        replay_s += report::median(&bare_times);
        null_s += report::median(&null_times);
    }

    // A round's run phase, estimated as the sum over cells of each cell's
    // median time: host slow-downs that last a second or two hit a few
    // cells of a round, not the round as a whole.
    let run_s = cell_times.iter().map(|t| report::median(t)).sum();
    out.end_to_end = report::end_to_end(&rounds, run_s, threads_per_round, &sim);
    out.rounds = rounds;
    if traced {
        let mut layers = Metrics::median_of(&layer_rounds);
        layers.put("machine.replay_s", replay_s, "s");
        layers.put("sched-core.driver_s", null_s - replay_s, "s");
        out.layers = layers.complete_layers();
    }
    out
}

fn hash_cell(d: &mut Digest, c: &CellOut) {
    d.run_result(&c.result);
    d.u64(c.total_migrations);
    d.u64(c.balancer_moves);
    d.f64(c.fairness);
}

fn cells_of(outs: &[CellOut], policy: usize) -> impl Iterator<Item = &CellOut> {
    outs.iter().filter(move |c| c.policy == policy)
}

fn mean_unfairness(outs: &[CellOut], policy: usize) -> f64 {
    let u: Vec<f64> = cells_of(outs, policy).map(|c| 1.0 - c.fairness).collect();
    checks::mean(&u)
}

fn total_swaps(outs: &[CellOut], policy: usize) -> u64 {
    cells_of(outs, policy).map(|c| c.result.swaps).sum()
}

/// Over the 16 mixes, Dike is fairer than CFS and DIO (Fig 6) and swaps
/// less than DIO (Table III).
fn paper_properties(outs: &[CellOut]) -> Result<(), String> {
    let (dike, cfs, dio) = (
        mean_unfairness(outs, DIKE),
        mean_unfairness(outs, CFS),
        mean_unfairness(outs, DIO),
    );
    if !(dike < cfs && dike < dio) {
        return Err(format!(
            "Dike mean unfairness {dike} not below CFS {cfs} and DIO {dio}"
        ));
    }
    let (ds, os) = (total_swaps(outs, DIKE), total_swaps(outs, DIO));
    if ds >= os {
        return Err(format!("Dike swaps {ds} not below DIO swaps {os}"));
    }
    Ok(())
}

fn dike_family(outs: &[CellOut]) -> impl Iterator<Item = &CellOut> {
    outs.iter()
        .filter(|c| c.policy == DIKE || c.policy == DIKE_LFOC)
}

/// Each mix's unfairness: the mean over its Dike-family cells.
fn mix_unfairness(outs: &[CellOut]) -> Vec<f64> {
    let mixes = outs.iter().map(|c| c.mix).max().map_or(0, |m| m + 1);
    (0..mixes)
        .map(|m| {
            let u: Vec<f64> = dike_family(outs)
                .filter(|c| c.mix == m)
                .map(|c| 1.0 - c.fairness)
                .collect();
            checks::mean(&u)
        })
        .collect()
}

/// End-to-end simulated figures over the Dike-family cells.
fn simulated(outs: &[CellOut]) -> Sim {
    let unfair: Vec<f64> = dike_family(outs).map(|c| 1.0 - c.fairness).collect();
    let runtime: Vec<f64> = dike_family(outs).map(|c| c.mean_runtime).collect();
    let makespan: Vec<f64> = dike_family(outs)
        .map(|c| c.result.wall.as_secs_f64())
        .collect();
    Sim {
        unfairness: checks::mean(&unfair),
        worst_unfairness: mix_unfairness(outs).into_iter().fold(0.0, f64::max),
        sojourn_sim_s: checks::mean(&runtime),
        makespan_sim_s: checks::mean(&makespan),
    }
}

fn layers(outs: &[CellOut], gen_s: f64, tick_us: u64, n_vcores: f64) -> Metrics {
    let spans_of =
        |p: usize| -> Vec<&Span> { cells_of(outs, p).filter_map(|c| c.span.as_ref()).collect() };
    let all_spans: Vec<&Span> = outs.iter().filter_map(|c| c.span.as_ref()).collect();
    let (policy_s, _) = trace::policy_time(&all_spans);
    let run_s: f64 = outs.iter().map(|c| c.run_s).sum();
    let ticks: u64 = outs.iter().map(|c| c.result.wall.as_us() / tick_us).sum();
    let (remote, busy) = outs
        .iter()
        .flat_map(|c| &c.result.threads)
        .fold((0u64, 0u64), |(r, b), t| {
            (r + t.counters.remote_us, b + t.counters.busy_us)
        });
    let ns_per_tick = trace::ratio((run_s - policy_s) * 1e9, ticks as f64);

    let mut m = Metrics::default();
    m.put("workloads.gen_s", gen_s, "s");
    m.put("machine.ticks", ticks as f64, "count");
    m.put("machine.ns_per_tick", ns_per_tick, "ns");
    m.put("machine.ns_per_vcore_tick", ns_per_tick / n_vcores, "ns");
    m.put(
        "machine.migrations",
        outs.iter().map(|c| c.total_migrations).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "machine.balancer_moves",
        outs.iter().map(|c| c.balancer_moves).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "machine.remote_frac",
        trace::ratio(remote as f64, busy as f64),
        "ratio",
    );
    m.put(
        "machine.partitions",
        outs.iter().map(|c| c.result.partitions).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "sched-core.quanta",
        outs.iter().map(|c| c.result.quanta).sum::<u64>() as f64,
        "count",
    );
    trace::put_dike(&mut m, &spans_of(DIKE));
    m.put(
        "baselines.cfs.unfairness",
        mean_unfairness(outs, CFS),
        "ratio",
    );
    m.put(
        "baselines.dio.unfairness",
        mean_unfairness(outs, DIO),
        "ratio",
    );
    m.put(
        "baselines.lfoc.unfairness",
        mean_unfairness(outs, LFOC),
        "ratio",
    );
    m.put(
        "baselines.dio.swaps",
        total_swaps(outs, DIO) as f64,
        "count",
    );
    for (name, p) in [
        ("baselines.cfs.us_per_quantum", CFS),
        ("baselines.dio.us_per_quantum", DIO),
        ("baselines.lfoc.us_per_quantum", LFOC),
    ] {
        let (busy, calls) = trace::policy_time(&spans_of(p));
        m.put(name, trace::ratio(busy * 1e6, calls as f64), "us");
    }
    m.put(
        "metrics.reduce_s",
        outs.iter().map(|c| c.reduce_s).sum(),
        "s",
    );
    m
}
