//! `numa_open`: an open system on the 8-domain, 320-vcore NUMA machine.
//! Poisson arrivals of the paper's applications, 8 threads each, under
//! Dike, at a load that fills the machine and queues at times.

use crate::checks::{self, Corruption, Input, ThreadRec, Windowed};
use crate::report::{self, median, Digest, Metrics, Outcome, Sim};
use crate::trace::{self, Policy, Sink, Span};
use dike_experiments::open::{WINDOW_S, WINDOW_STEP_S};
use dike_experiments::roster::PolicyHandle;
use dike_experiments::runner::SchedKind;
use dike_machine::{presets, Machine, MachineConfig, SimTime};
use dike_metrics::{fairness_summary, mean_sojourn, windowed_fairness, ThreadSpan};
use dike_sched_core::{run_open_with, RunResult, TimedSpawn};
use dike_scheduler::SchedConfig;
use dike_util::rng::{Pcg32, SliceRandom};
use dike_workloads::{AppKind, ArrivalConfig, ArrivalTrace};
use std::sync::Arc;
use std::time::Instant;

/// NUMA domains (each the paper's 40-vcore socket).
const DOMAINS: usize = 8;
/// Arrival events per run: a fixed count, so that every seed offers the
/// same number of threads and only their timing and mix vary.
const EVENTS: usize = 720;
/// Threads per arriving application (the paper's 8).
const THREADS_PER_APP: u32 = 8;
/// Mean inter-arrival time, milliseconds.
const MEAN_MS: f64 = 110.0;
/// Instruction-budget scale of every thread.
const SCALE: f64 = 0.1;
/// Simulated deadline; every run drains well before it.
const DEADLINE_S: f64 = 3_600.0;

/// The arrival trace and machine config for `seed`.
fn generate(seed: u64) -> (MachineConfig, ArrivalTrace, Vec<TimedSpawn>, Vec<Input>) {
    let cfg = presets::numa_machine(DOMAINS, seed);
    let arrivals = ArrivalConfig {
        mean_interarrival_ms: MEAN_MS,
        // Long enough that the fixed event count is always reached.
        horizon_ms: (MEAN_MS * EVENTS as f64 * 4.0) as u64,
        threads_min: THREADS_PER_APP,
        threads_max: THREADS_PER_APP,
    };
    let mut trace = ArrivalTrace::poisson("numa-open", &AppKind::ALL, &arrivals, seed);
    trace.events.truncate(EVENTS);
    // Every seed offers the same applications, each equally often, in a
    // seed-shuffled order: the seed moves timing and order, not the
    // amount of work.
    let mut apps: Vec<AppKind> = (0..EVENTS)
        .map(|i| AppKind::ALL[i % AppKind::ALL.len()])
        .collect();
    apps.shuffle(&mut Pcg32::seed_from_u64(seed ^ 0xA995_0F7E_0000_0000));
    for (ev, app) in trace.events.iter_mut().zip(apps) {
        ev.app = app;
    }
    let plan: Vec<TimedSpawn> = trace
        .spawn_plan(SCALE)
        .into_iter()
        .map(|(at, spec)| TimedSpawn { at, spec })
        .collect();
    let per_event = THREADS_PER_APP as usize;
    let inputs = plan
        .chunks(per_event)
        .map(|c| Input::of(&c[0].spec, THREADS_PER_APP, &cfg.topology))
        .collect();
    (cfg, trace, plan, inputs)
}

struct RoundOut {
    result: RunResult,
    /// Host time between consecutive quantum boundaries, from the start
    /// of the run to the end of the reductions. The same seed does the
    /// same work in every slice of every round.
    slices: Vec<f64>,
    program: Windowed,
    total_migrations: u64,
    balancer_moves: u64,
    run_s: f64,
    reduce_s: f64,
    gen_s: f64,
    span: Option<Span>,
}

#[derive(Clone)]
struct Observed {
    recs: Vec<ThreadRec>,
    wall_s: f64,
    program: Windowed,
}

fn check_run(inputs: &[Input], o: &Observed) -> Result<(), String> {
    checks::conservation(inputs, &o.recs)?;
    checks::work(inputs, &o.recs)?;
    checks::windowed(&o.recs, WINDOW_S, WINDOW_STEP_S, o.wall_s, &o.program)
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
            o.program.mean += 1e-6;
            true
        }
    }
}

pub fn numa_open(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let deadline = SimTime::from_secs_f64(DEADLINE_S);
    let sink = Arc::new(Sink::default());
    let (cfg, trace, plan, inputs) = generate(seed);
    let tick_us = cfg.tick_us;
    let n_vcores = cfg.topology.num_vcores() as f64;
    let threads_per_round = plan.len() as u64;

    let mut out = Outcome::default();
    let mut sim = Sim::default();
    let mut layer_rounds = Vec::new();
    let mut slice_times: Vec<Vec<f64>> = Vec::new();

    let setup = || {
        let t0 = Instant::now();
        let (cfg, _, plan, _) = generate(seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let machine = Machine::new(cfg);
        let handle = PolicyHandle::build(
            &SchedKind::Dike(SchedConfig::DEFAULT),
            &machine.config().llc,
        );
        let sched = Policy::new(handle, traced.then_some(&sink));
        (machine, sched, plan, gen_s)
    };

    let run_round =
        |(mut machine, mut sched, plan, gen_s): (Machine, Policy, Vec<TimedSpawn>, f64)| {
            // The wall clock at every quantum boundary, through the driver's
            // view hook; reading it costs tens of nanoseconds per quantum.
            let mut marks = Vec::with_capacity(4_096);
            let t0 = Instant::now();
            marks.push(t0);
            let result = run_open_with(&mut machine, sched.as_dyn(), deadline, plan, |_| {
                marks.push(Instant::now())
            });
            let run_s = t0.elapsed().as_secs_f64();
            drop(sched);
            let span = sink.take().pop();
            let t1 = Instant::now();
            let wall = result.wall.as_secs_f64();
            let spans: Vec<ThreadSpan> = result
                .threads
                .iter()
                .map(|t| ThreadSpan {
                    app: t.app,
                    spawned_at: t.spawned_at.as_secs_f64(),
                    finished_at: t.finished_at.map(|f| f.as_secs_f64()),
                })
                .collect();
            let windows = windowed_fairness(&spans, WINDOW_S, WINDOW_STEP_S, wall.max(WINDOW_S));
            let (mean, min) = fairness_summary(&windows);
            let program = Windowed {
                windows: windows.iter().map(|w| w.fairness).collect(),
                mean,
                min,
                mean_sojourn_s: mean_sojourn(&spans, wall),
            };
            let end = Instant::now();
            let reduce_s = (end - t1).as_secs_f64();
            marks.push(end);
            let slices = marks
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            RoundOut {
                slices,
                total_migrations: machine.total_migrations(),
                balancer_moves: machine.balancer_moves(),
                result,
                program,
                run_s,
                reduce_s,
                gen_s,
                span,
            }
        };

    let rounds = report::repeat(seconds, setup, run_round, |round, r| {
        let obs = Observed {
            recs: checks::records(&r.result, |a| a, |a| a),
            wall_s: r.result.wall.as_secs_f64(),
            program: r.program.clone(),
        };
        if slice_times.is_empty() {
            slice_times.resize(r.slices.len(), Vec::new());
        }
        if slice_times.len() == r.slices.len() {
            for (times, &t) in slice_times.iter_mut().zip(&r.slices) {
                times.push(t);
            }
        } else {
            out.errors.push(format!(
                "round {round} ran {} quanta, round 0 ran {}",
                r.slices.len(),
                slice_times.len()
            ));
        }
        out.attempted += threads_per_round;
        out.failed += threads_per_round - checks::finished(&obs.recs).min(threads_per_round);
        out.check("numa_open", check_run(&inputs, &obs));
        let mut d = Digest::default();
        d.run_result(&r.result);
        d.u64(r.total_migrations);
        d.u64(r.balancer_moves);
        d.f64(r.program.mean);
        let digest = d.finish();
        if out.digest_round(round, digest) {
            // The driver reports a thread's admission as its spawn, so
            // a later spawn than arrival is time in the admission queue.
            let waits: Vec<u64> = r
                .result
                .threads
                .iter()
                .map(|t| {
                    let arrived = trace.events[t.app as usize].at_ms * 1_000;
                    t.spawned_at.as_us().saturating_sub(arrived)
                })
                .filter(|&w| w > 0)
                .collect();
            out.notes.push(format!(
                "{} of {} threads waited for a vcore, longest {} ms",
                waits.len(),
                threads_per_round,
                waits.iter().max().copied().unwrap_or(0) / 1_000
            ));
            out.check(
                "self-test",
                checks::self_test(
                    &obs,
                    |o, k| corrupt(o, k, tick_us),
                    |o| check_run(&inputs, o),
                ),
            );
            sim = Sim::windowed(
                r.program.mean,
                r.program.min,
                r.program.mean_sojourn_s,
                obs.wall_s,
            );
        }
        if traced {
            layer_rounds.push(layers(&r, tick_us, n_vcores));
        }
    });

    // A round's run phase, estimated as the sum over its quantum slices of
    // each slice's median time: host slow-downs that last a second or two
    // hit a few slices of a round, not the round as a whole.
    let run_s = slice_times.iter().map(|t| median(t)).sum();
    out.end_to_end = report::end_to_end(&rounds, run_s, threads_per_round, &sim);
    out.rounds = rounds;
    if traced {
        out.layers = Metrics::median_of(&layer_rounds).complete_layers();
    }
    out
}

fn layers(r: &RoundOut, tick_us: u64, n_vcores: f64) -> Metrics {
    let spans: Vec<&Span> = r.span.iter().collect();
    let (policy_s, _) = trace::policy_time(&spans);
    let ticks = r.result.wall.as_us() / tick_us;
    let ns_per_tick = trace::ratio((r.run_s - policy_s) * 1e9, ticks as f64);
    let (remote, busy) = r.result.threads.iter().fold((0u64, 0u64), |(a, b), t| {
        (a + t.counters.remote_us, b + t.counters.busy_us)
    });
    let mut m = Metrics::default();
    m.put("workloads.gen_s", r.gen_s, "s");
    m.put("machine.ticks", ticks as f64, "count");
    m.put("machine.ns_per_tick", ns_per_tick, "ns");
    m.put("machine.ns_per_vcore_tick", ns_per_tick / n_vcores, "ns");
    m.put("machine.migrations", r.total_migrations as f64, "count");
    m.put("machine.balancer_moves", r.balancer_moves as f64, "count");
    m.put(
        "machine.remote_frac",
        trace::ratio(remote as f64, busy as f64),
        "ratio",
    );
    m.put("machine.partitions", r.result.partitions as f64, "count");
    m.put("sched-core.quanta", r.result.quanta as f64, "count");
    trace::put_dike(&mut m, &spans);
    m.put("metrics.reduce_s", r.reduce_s, "s");
    m
}
