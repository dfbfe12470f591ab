//! The fleet workloads.
//!
//! * `fleet_oneshot` — `FleetRunner::run_with` over paper machines and
//!   many tenants with short, high-churn arrivals: the dispatch pre-pass,
//!   the pool fan-out and the per-tenant roll-up.
//! * `fleet_faults` — `FleetRunner::run_failover_with` on a small fleet
//!   under Dike-H, with machine crashes and brownouts plus per-thread
//!   telemetry and actuation faults: the epoch loop, re-dispatch and the
//!   hardened pipeline.

use crate::checks::{self, Corruption, Input, ThreadRec, Windowed};
use crate::report::{self, median, Digest, Metrics, Outcome, Sim};
use crate::trace::{self, Sink, Span, Timed};
use dike_experiments::failover::cell_config;
use dike_experiments::fleet::fleet_config;
use dike_experiments::roster::PolicyHandle;
use dike_experiments::runner::SchedKind;
use dike_fleet::{
    dispatch, FailoverResult, FleetConfig, FleetResult, FleetRunner, WINDOW_S, WINDOW_STEP_S,
};
use dike_machine::{presets, AppId, BarrierId, FaultConfig, Machine, SimTime};
use dike_sched_core::run_open;
use dike_scheduler::{Dike, SchedConfig};
use dike_util::rng::splitmix64;
use dike_util::Pool;
use dike_workloads::ArrivalTrace;
use std::sync::Arc;
use std::time::Instant;

/// `fleet_oneshot` size: machines, tenants and the arrival window.
const ONESHOT_MACHINES: usize = 24;
const ONESHOT_TENANTS: usize = 36;
const ONESHOT_HORIZON_MS: u64 = 20_000;

/// `fleet_faults` size and load: machines, tenants, per-tenant mean
/// inter-arrival time, arrival window and instruction scale.
const FAULTS_MACHINES: usize = 16;
const FAULTS_TENANTS: usize = 48;
const FAULTS_MEAN_MS: f64 = 400.0;
const FAULTS_HORIZON_MS: u64 = 30_000;
const FAULTS_SCALE: f64 = 0.005;

/// `fleet_faults`: crash and brownout probability per (machine, epoch),
/// and the re-dispatch budget, at which no thread is lost. The machine
/// fault stream keeps the failover experiment's fixed seed, so every
/// workload seed meets the same crashes and brownouts; the seed moves the
/// arrivals, the routing and the per-thread fault draws.
const CRASH_RATE: f64 = 0.2;
const BROWNOUT_RATE: f64 = 0.15;
const RETRY_BUDGET: u32 = 2;

/// The generated side of a fleet: per-tenant traces, and per merged
/// arrival event what its threads must do.
struct Generated {
    /// Threads each tenant offers.
    per_tenant: Vec<u64>,
    /// Indexed by global (merged) event, as the fleet tags its threads.
    inputs: Vec<Input>,
    offered: u64,
    traces: Vec<ArrivalTrace>,
}

fn generate(cfg: &FleetConfig) -> Generated {
    let traces: Vec<ArrivalTrace> = cfg
        .tenants
        .iter()
        .map(|t| ArrivalTrace::poisson(t.name.clone(), &t.apps, &t.arrivals, t.seed))
        .collect();
    let per_tenant: Vec<u64> = traces.iter().map(|t| t.num_threads() as u64).collect();
    // The bound uses the fleet's fastest core.
    let fastest = cfg
        .machines
        .iter()
        .max_by(|a, b| {
            let f = |m: &dike_machine::MachineConfig| {
                (0..m.topology.num_vcores())
                    .map(|v| m.topology.freq_of(dike_machine::VCoreId(v as u32)))
                    .fold(0.0, f64::max)
            };
            f(a).total_cmp(&f(b))
        })
        .expect("a fleet has machines");
    let inputs = ArrivalTrace::merge_order(&traces)
        .iter()
        .enumerate()
        .map(|(g, m)| {
            let ev = &traces[m.tenant as usize].events[m.event as usize];
            let spec = ev
                .app
                .thread_spec(AppId(g as u32), cfg.scale, BarrierId(g as u32));
            Input::of(&spec, ev.nthreads, &fastest.topology)
        })
        .collect();
    Generated {
        offered: per_tenant.iter().sum(),
        per_tenant,
        inputs,
        traces,
    }
}

/// The one-shot fleet for `seed`: paper machines only, so the NUMA path
/// stays out of this workload.
fn oneshot_config(seed: u64) -> FleetConfig {
    let mut cfg = fleet_config(ONESHOT_MACHINES, ONESHOT_TENANTS, seed);
    let mut state = seed ^ 0x5EED_F1EE_7000_0000;
    cfg.machines = (0..ONESHOT_MACHINES)
        .map(|_| presets::paper_machine(splitmix64(&mut state)))
        .collect();
    for t in &mut cfg.tenants {
        t.arrivals.horizon_ms = ONESHOT_HORIZON_MS;
    }
    cfg
}

/// One machine's books: threads, finished, quanta, migrations, clock (µs).
type Tally = (u64, u64, u64, u64, u64);

/// A fleet result and the single-machine replay of its dispatch plan.
#[derive(Clone)]
struct OneshotObserved {
    result: FleetResult,
    /// Every replayed thread; `group` is its tenant, `input` its event.
    recs: Vec<ThreadRec>,
    replay: Vec<Tally>,
}

fn check_oneshot(g: &Generated, o: &OneshotObserved) -> Result<(), String> {
    let r = &o.result;
    if r.total_arrivals != g.offered || r.total_departures != g.offered || !r.completed {
        return Err(format!(
            "offered {}, fleet reports {} arrivals, {} departures, completed {}",
            g.offered, r.total_arrivals, r.total_departures, r.completed
        ));
    }
    let by_machine: u64 = r.machines.iter().map(|m| m.arrivals).sum();
    if by_machine != r.total_arrivals {
        return Err(format!("machines sum to {by_machine} arrivals"));
    }
    for (t, (point, &offered)) in r.tenants.iter().zip(&g.per_tenant).enumerate() {
        if point.arrivals != offered || point.departures != offered {
            return Err(format!(
                "tenant {t}: offered {offered}, reported {} arrivals, {} departures",
                point.arrivals, point.departures
            ));
        }
    }
    if r.tenants.len() != g.per_tenant.len() {
        return Err(format!("{} tenants reported", r.tenants.len()));
    }
    let parts: Vec<(u64, f64)> = r
        .tenants
        .iter()
        .map(|t| (t.arrivals, t.mean_sojourn_s))
        .collect();
    checks::weighted_mean(&parts, r.mean_sojourn_s)?;
    // Each machine of the fleet behaves exactly as the same machine run
    // alone on its share of the dispatch plan.
    for (m, (s, rep)) in r.machines.iter().zip(&o.replay).enumerate() {
        let fleet = (
            s.arrivals,
            s.departures,
            s.quanta,
            s.migrations,
            (s.makespan_s * 1e6).round() as u64,
        );
        if fleet != *rep {
            return Err(format!("machine {m}: fleet {fleet:?}, alone {rep:?}"));
        }
    }
    checks::conservation(&g.inputs, &o.recs)?;
    checks::work(&g.inputs, &o.recs)?;
    let program = Windowed {
        windows: r.windows.iter().map(|w| w.fairness).collect(),
        mean: r.mean_windowed_fairness,
        min: r.min_windowed_fairness,
        mean_sojourn_s: r.mean_sojourn_s,
    };
    checks::windowed(&o.recs, WINDOW_S, WINDOW_STEP_S, r.makespan_s, &program)
}

fn corrupt_oneshot(o: &mut OneshotObserved, c: Corruption, tick_us: u64) -> bool {
    match c {
        Corruption::DroppedThread => {
            o.recs.pop();
        }
        Corruption::ShiftedFinish => return checks::shift_finish(&mut o.recs, tick_us),
        Corruption::LostFleetEvent => {
            o.result.total_arrivals -= 1;
            o.result.tenants[0].arrivals -= 1;
        }
        Corruption::PerturbedFairness => o.result.mean_windowed_fairness += 1e-6,
    }
    true
}

/// Replay every machine of the plan alone, on this process's pool.
fn replay(cfg: &FleetConfig, g: &Generated, pool: &Pool) -> (Vec<ThreadRec>, Vec<Tally>) {
    let mut plan = dispatch(cfg, &g.traces);
    let deadline = SimTime::from_secs_f64(cfg.deadline_s);
    let tenant_of = std::mem::take(&mut plan.tenant_of_event);
    let plans: Vec<std::sync::Mutex<Vec<_>>> = plan
        .per_machine
        .drain(..)
        .map(std::sync::Mutex::new)
        .collect();
    let per: Vec<(Vec<ThreadRec>, Tally)> = pool.map_indexed(plans.len(), |i| {
        let spawns = std::mem::take(&mut *plans[i].lock().expect("replay plan lock"));
        let mut machine = Machine::new(cfg.machines[i].clone());
        let mut dike = Dike::fixed(SchedConfig::DEFAULT);
        let r = run_open(&mut machine, &mut dike, deadline, spawns);
        let recs = checks::records(&r, |a| a, |a| tenant_of[a as usize]);
        let summary = (
            recs.len() as u64,
            checks::finished(&recs),
            r.quanta,
            r.migrations,
            r.wall.as_us(),
        );
        (recs, summary)
    });
    let mut recs = Vec::with_capacity(g.offered as usize);
    let mut summaries = Vec::with_capacity(per.len());
    for (r, s) in per {
        recs.extend(r);
        summaries.push(s);
    }
    (recs, summaries)
}

fn hash_fleet(d: &mut Digest, r: &FleetResult) {
    for m in &r.machines {
        for x in [m.arrivals, m.departures, m.quanta, m.migrations] {
            d.u64(x);
        }
        d.f64(m.makespan_s);
    }
    for t in &r.tenants {
        d.u64(t.arrivals);
        d.u64(t.departures);
        d.f64(t.mean_sojourn_s);
    }
    for w in &r.windows {
        d.f64(w.fairness);
        d.f64(w.mean_sojourn_s);
        d.u64(w.departures);
    }
    d.f64(r.mean_sojourn_s);
    d.f64(r.makespan_s);
}

/// Start and end of the fleet call, for the phase split.
struct Call {
    start: Instant,
    end: Instant,
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

pub fn oneshot(seed: u64, seconds: f64, traced: bool, workers: usize) -> Outcome {
    let pool = Pool::new(workers);
    let sink = Arc::new(Sink::default());
    let cfg = oneshot_config(seed);
    let g = generate(&cfg);
    let tick_us = cfg.machines[0].tick_us;
    let vcores = cfg.machines[0].topology.num_vcores() as f64;

    let mut out = Outcome::default();
    let mut sim = Sim::default();
    let mut layer_rounds = Vec::new();

    let setup = || {
        let cfg = oneshot_config(seed);
        let t0 = Instant::now();
        let traces = generate(&cfg);
        let gen_s = t0.elapsed().as_secs_f64();
        drop(traces);
        (FleetRunner::new(cfg), gen_s)
    };
    let run_round = |(runner, gen_s): (FleetRunner, f64)| {
        let start = Instant::now();
        let result = if traced {
            runner.run_with(&pool, "dike", |_| {
                Box::new(Timed::new(
                    PolicyHandle::build(
                        &SchedKind::Dike(SchedConfig::DEFAULT),
                        &cfg.machines[0].llc,
                    ),
                    &sink,
                ))
            })
        } else {
            runner.run_with(&pool, "dike", |_| {
                Box::new(Dike::fixed(SchedConfig::DEFAULT))
            })
        };
        let call = Call {
            start,
            end: Instant::now(),
        };
        drop(runner);
        (result, call, gen_s, sink.take())
    };

    let rounds = report::repeat(
        seconds,
        setup,
        run_round,
        |round, (result, call, gen_s, spans)| {
            out.attempted += g.offered;
            out.failed += g.offered - result.total_departures.min(g.offered);
            let mut d = Digest::default();
            hash_fleet(&mut d, &result);
            let digest = d.finish();
            if out.digest_round(round, digest) {
                let (recs, replay) = replay(&cfg, &g, &pool);
                let obs = OneshotObserved {
                    result: result.clone(),
                    recs,
                    replay,
                };
                out.check("fleet_oneshot", check_oneshot(&g, &obs));
                out.check(
                    "self-test",
                    checks::self_test(
                        &obs,
                        |o, k| corrupt_oneshot(o, k, tick_us),
                        |o| check_oneshot(&g, o),
                    ),
                );
                sim = Sim::windowed(
                    result.mean_windowed_fairness,
                    result.min_windowed_fairness,
                    result.mean_sojourn_s,
                    result.makespan_s,
                );
            }
            if traced {
                layer_rounds.push(oneshot_layers(
                    &result, &call, gen_s, &spans, workers, tick_us, vcores,
                ));
            }
        },
    );

    out.end_to_end = report::end_to_end(&rounds, median(&rounds.run_s), g.offered, &sim);
    out.rounds = rounds;
    if traced {
        out.layers = Metrics::median_of(&layer_rounds).complete_layers();
    }
    out
}

fn oneshot_layers(
    r: &FleetResult,
    call: &Call,
    gen_s: f64,
    spans: &[Span],
    workers: usize,
    tick_us: u64,
    vcores: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("workloads.gen_s", gen_s, "s");
    let refs: Vec<&Span> = spans.iter().collect();
    let (policy_s, _) = trace::policy_time(&refs);
    let first_built = spans.iter().map(|s| s.built).min().unwrap_or(call.start);
    let last_dropped = spans.iter().map(|s| s.dropped).max().unwrap_or(call.end);
    let fanout_s = secs(first_built, last_dropped);
    let tasks_ms: Vec<f64> = spans
        .iter()
        .map(|s| secs(s.built, s.dropped) * 1e3)
        .collect();
    let task_s: f64 = tasks_ms.iter().sum::<f64>() / 1e3;
    let ticks: u64 = r
        .machines
        .iter()
        .map(|s| (s.makespan_s * 1e6).round() as u64 / tick_us)
        .sum();
    let ns_per_tick = trace::ratio((task_s - policy_s) * 1e9, ticks as f64);
    m.put("machine.ticks", ticks as f64, "count");
    m.put("machine.ns_per_tick", ns_per_tick, "ns");
    m.put("machine.ns_per_vcore_tick", ns_per_tick / vcores, "ns");
    m.put(
        "machine.migrations",
        r.machines.iter().map(|s| s.migrations).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "sched-core.quanta",
        r.machines.iter().map(|s| s.quanta).sum::<u64>() as f64,
        "count",
    );
    trace::put_dike(&mut m, &refs);
    m.put("fleet.plan_s", secs(call.start, first_built), "s");
    m.put("fleet.fanout_s", fanout_s, "s");
    m.put("fleet.rollup_s", secs(last_dropped, call.end), "s");
    m.put("fleet.machine_p50_ms", median(&tasks_ms), "ms");
    m.put(
        "fleet.machine_max_ms",
        tasks_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "util.pool_busy_frac",
        trace::ratio(task_s, workers as f64 * fanout_s),
        "ratio",
    );
    m
}

/// The faulty fleet for `seed`: 16 machines (every 8th a 2-domain NUMA
/// box) and 48 tenants offering 30 s of arrivals, every machine with
/// every per-thread fault channel on. Jobs run about ten times longer
/// than the one-shot fleet's, so that a 2 s brownout stall or a 6 s
/// crash outage is a large but not overwhelming share of a sojourn.
fn faults_config(seed: u64) -> FleetConfig {
    let mut cfg = fleet_config(FAULTS_MACHINES, FAULTS_TENANTS, seed);
    cfg.scale = FAULTS_SCALE;
    for t in &mut cfg.tenants {
        t.arrivals.mean_interarrival_ms = FAULTS_MEAN_MS;
        t.arrivals.horizon_ms = FAULTS_HORIZON_MS;
    }
    let mut state = seed ^ 0xFA17_5EED_0000_0000;
    for m in &mut cfg.machines {
        m.faults = FaultConfig::combined_worst(splitmix64(&mut state));
    }
    cfg
}

fn check_faults(g: &Generated, r: &FailoverResult) -> Result<(), String> {
    let l = &r.ledger;
    if !l.holds() || l.lost != 0 || l.in_flight != 0 || l.dispatched != g.offered {
        let stuck: Vec<_> = r
            .machines
            .iter()
            .filter(|m| m.admitted != m.drained || m.queued != 0 || m.down_at_end)
            .collect();
        return Err(format!(
            "offered {}, ledger {l:?}, machines {stuck:?}",
            g.offered
        ));
    }
    if r.tenants.len() != g.per_tenant.len() {
        return Err(format!("{} tenants reported", r.tenants.len()));
    }
    for (t, (p, &offered)) in r.tenants.iter().zip(&g.per_tenant).enumerate() {
        if p.offered != offered || p.drained != offered || p.lost != 0 {
            return Err(format!(
                "tenant {t}: offered {offered}, reported offered {} drained {} lost {}",
                p.offered, p.drained, p.lost
            ));
        }
    }
    let admitted: u64 = r.machines.iter().map(|m| m.admitted).sum();
    let drained: u64 = r.machines.iter().map(|m| m.drained).sum();
    let queued: u64 = r.machines.iter().map(|m| m.queued).sum();
    if admitted != g.offered || drained != l.drained || queued != 0 {
        return Err(format!(
            "machines admitted {admitted}, drained {drained}, queued {queued}; offered {}",
            g.offered
        ));
    }
    let parts: Vec<(u64, f64)> = r
        .tenants
        .iter()
        .map(|t| (t.drained, t.mean_sojourn_s))
        .collect();
    checks::weighted_mean(&parts, r.mean_sojourn_s)?;
    let (mean, min) = (r.mean_windowed_fairness, r.min_windowed_fairness);
    if !(min.is_finite() && min <= mean && mean <= 1.0) {
        return Err(format!("windowed fairness mean {mean}, worst {min}"));
    }
    if r.redispatched > r.orphaned {
        return Err(format!(
            "{} of {} orphans re-dispatched",
            r.redispatched, r.orphaned
        ));
    }
    Ok(())
}

fn corrupt_faults(r: &mut FailoverResult, c: Corruption) -> bool {
    match c {
        Corruption::DroppedThread => r.machines[0].admitted -= 1,
        Corruption::ShiftedFinish => r.tenants[0].mean_sojourn_s += 1e-3,
        Corruption::LostFleetEvent => {
            r.ledger.drained -= 1;
            r.ledger.lost += 1;
        }
        // No per-thread spans leave the failover loop, so its windowed
        // fairness cannot be recomputed from outside.
        Corruption::PerturbedFairness => return false,
    }
    true
}

fn hash_failover(d: &mut Digest, r: &FailoverResult) {
    for m in &r.machines {
        for x in [m.admitted, m.drained, m.queued, m.crashes, m.brownouts] {
            d.u64(x);
        }
        d.f64(m.makespan_s);
    }
    for t in &r.tenants {
        d.u64(t.drained);
        d.f64(t.mean_sojourn_s);
    }
    for x in [
        r.epochs,
        r.quarantines,
        r.readmissions,
        r.orphaned,
        r.redispatched,
        r.ledger.drained,
    ] {
        d.u64(x);
    }
    d.f64(r.mean_windowed_fairness);
    d.f64(r.min_windowed_fairness);
    d.f64(r.mean_sojourn_s);
    d.f64(r.makespan_s);
}

pub fn faults(seed: u64, seconds: f64, traced: bool, workers: usize) -> Outcome {
    let pool = Pool::new(workers);
    let sink = Arc::new(Sink::default());
    let cfg = faults_config(seed);
    let g = generate(&cfg);
    let fo = cell_config(CRASH_RATE, BROWNOUT_RATE, RETRY_BUDGET, true);
    let tick_us = cfg.machines[0].tick_us;

    let mut out = Outcome::default();
    let mut sim = Sim::default();
    let mut layer_rounds = Vec::new();

    let setup = || {
        let cfg = faults_config(seed);
        let t0 = Instant::now();
        let traces = generate(&cfg);
        let gen_s = t0.elapsed().as_secs_f64();
        drop(traces);
        (FleetRunner::new(cfg), gen_s)
    };
    let run_round = |(runner, gen_s): (FleetRunner, f64)| {
        let start = Instant::now();
        let result = if traced {
            runner.run_failover_with(&pool, &fo, "dike-h", |i| {
                Box::new(Timed::new(
                    PolicyHandle::build(&SchedKind::DikeHardened, &cfg.machines[i].llc),
                    &sink,
                ))
            })
        } else {
            runner.run_failover_with(&pool, &fo, "dike-h", |_| Box::new(Dike::hardened()))
        };
        let call = Call {
            start,
            end: Instant::now(),
        };
        drop(runner);
        (result, call, gen_s, sink.take())
    };

    let rounds = report::repeat(
        seconds,
        setup,
        run_round,
        |round, (result, call, gen_s, spans)| {
            out.attempted += g.offered;
            out.failed += g.offered - result.ledger.drained.min(g.offered);
            out.check("fleet_faults", check_faults(&g, &result));
            let mut d = Digest::default();
            hash_failover(&mut d, &result);
            let digest = d.finish();
            if out.digest_round(round, digest) {
                out.check(
                    "self-test",
                    checks::self_test(&result, corrupt_faults, |r| check_faults(&g, r)),
                );
                sim = Sim::windowed(
                    result.mean_windowed_fairness,
                    result.min_windowed_fairness,
                    result.mean_sojourn_s,
                    result.makespan_s,
                );
            }
            if traced {
                layer_rounds.push(faults_layers(&result, &call, gen_s, &spans, tick_us));
            }
        },
    );

    out.end_to_end = report::end_to_end(&rounds, median(&rounds.run_s), g.offered, &sim);
    out.rounds = rounds;
    if traced {
        out.layers = Metrics::median_of(&layer_rounds).complete_layers();
    }
    out
}

fn faults_layers(
    r: &FailoverResult,
    call: &Call,
    gen_s: f64,
    spans: &[Span],
    tick_us: u64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("workloads.gen_s", gen_s, "s");
    let refs: Vec<&Span> = spans.iter().collect();
    let (_, calls) = trace::policy_time(&refs);
    let first = spans
        .iter()
        .filter_map(|s| s.first_call)
        .min()
        .unwrap_or(call.start);
    let last = spans
        .iter()
        .filter_map(|s| s.last_call)
        .max()
        .unwrap_or(call.end);
    let ticks: u64 = r
        .machines
        .iter()
        .map(|s| (s.makespan_s * 1e6).round() as u64 / tick_us)
        .sum();
    m.put("machine.ticks", ticks as f64, "count");
    m.put("sched-core.quanta", calls as f64, "count");
    trace::put_dike(&mut m, &refs);
    m.put("fleet.plan_s", secs(call.start, first), "s");
    m.put("fleet.fanout_s", secs(first, last), "s");
    m.put("fleet.rollup_s", secs(last, call.end), "s");
    m.put("fleet.epochs", r.epochs as f64, "count");
    m.put("fleet.orphaned", r.orphaned as f64, "count");
    m.put("fleet.quarantines", r.quarantines as f64, "count");
    m.put("fleet.readmissions", r.readmissions as f64, "count");
    m.put(
        "fleet.redispatch_yield",
        trace::ratio(r.redispatched as f64, r.orphaned as f64),
        "ratio",
    );
    m
}
