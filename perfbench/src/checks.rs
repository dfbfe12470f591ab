//! Output checks. Each figure the program reports is recomputed here from
//! raw per-thread records with this file's own mean and standard
//! deviation, or tested against a property the method must have; none
//! of them calls back into the code under test.
//!
//! [`self_test`] feeds every check a deliberately corrupted copy of a
//! real result and requires it to fail, so a check that has stopped
//! biting is caught on every run.

use dike_machine::topology::Topology;
use dike_machine::{PhaseProgram, SimTime, ThreadSpec, VCoreId};
use dike_sched_core::RunResult;

/// Largest difference allowed between a recomputed figure and the
/// program's.
pub const TOL: f64 = 1e-9;

/// One simulated thread, as the run reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRec {
    /// Grouping key: the app (closed), the arrival event (open), or the
    /// tenant (fleet roll-ups).
    pub group: u32,
    /// Index into the workload's expected-input table.
    pub input: u32,
    pub spawned_us: u64,
    pub finished_us: Option<u64>,
    pub instructions: f64,
    pub busy_us: u64,
}

impl ThreadRec {
    pub fn sojourn_s(&self) -> Option<f64> {
        self.finished_us.map(|f| (f - self.spawned_us) as f64 / 1e6)
    }
}

/// What the benchmark generated for one input (an app of a closed mix,
/// an arrival event of an open trace): how many threads it offered, and
/// what each of them must retire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Input {
    pub threads: u32,
    pub total_instructions: f64,
    /// No thread can finish sooner: its instructions at its lowest phase
    /// CPI on the machine's fastest core, with nothing else running.
    pub min_secs: f64,
}

impl Input {
    pub fn of(spec: &ThreadSpec, threads: u32, topology: &Topology) -> Input {
        Input {
            threads,
            total_instructions: spec.program.total_instructions,
            min_secs: min_secs(&spec.program, topology),
        }
    }
}

fn min_secs(program: &PhaseProgram, topology: &Topology) -> f64 {
    let min_cpi = program
        .phases
        .iter()
        .map(|p| p.cpi_exec)
        .fold(f64::INFINITY, f64::min);
    let max_freq = (0..topology.num_vcores())
        .map(|v| topology.freq_of(VCoreId(v as u32)))
        .fold(0.0, f64::max);
    program.total_instructions * min_cpi / max_freq
}

/// Thread records of a driver run; `input_of` maps the thread's app id to
/// its input index, `group_of` to its grouping key.
pub fn records(
    r: &RunResult,
    input_of: impl Fn(u32) -> u32,
    group_of: impl Fn(u32) -> u32,
) -> Vec<ThreadRec> {
    r.threads
        .iter()
        .map(|t| ThreadRec {
            group: group_of(t.app),
            input: input_of(t.app),
            spawned_us: t.spawned_at.as_us(),
            finished_us: t.finished_at.map(SimTime::as_us),
            instructions: t.counters.instructions,
            busy_us: t.counters.busy_us,
        })
        .collect()
}

/// Threads of `recs` that finished.
pub fn finished(recs: &[ThreadRec]) -> u64 {
    recs.iter().filter(|r| r.finished_us.is_some()).count() as u64
}

/// Conservation: every offered thread appears exactly once and finished.
/// Thread ids are dense in spawn order, so a duplicate shows as one input
/// with more threads than it offered.
pub fn conservation(inputs: &[Input], recs: &[ThreadRec]) -> Result<(), String> {
    let offered: u64 = inputs.iter().map(|i| u64::from(i.threads)).sum();
    if recs.len() as u64 != offered {
        return Err(format!(
            "{} threads reported, {offered} offered",
            recs.len()
        ));
    }
    let mut seen = vec![0u32; inputs.len()];
    for r in recs {
        let slot = seen
            .get_mut(r.input as usize)
            .ok_or_else(|| format!("thread of unknown input {}", r.input))?;
        *slot += 1;
    }
    for (i, (input, &n)) in inputs.iter().zip(&seen).enumerate() {
        if n != input.threads {
            return Err(format!(
                "input {i}: {n} threads reported, {} offered",
                input.threads
            ));
        }
    }
    let done = finished(recs);
    if done != offered {
        return Err(format!("{done} of {offered} threads finished"));
    }
    Ok(())
}

/// Engine work conservation: every finished thread retired its program,
/// was busy no longer than it lived, and took no less than its program
/// allows on the fastest core.
pub fn work(inputs: &[Input], recs: &[ThreadRec]) -> Result<(), String> {
    for (i, r) in recs.iter().enumerate() {
        let Some(finished) = r.finished_us else {
            continue;
        };
        let input = &inputs[r.input as usize];
        if (r.instructions - input.total_instructions).abs() > TOL * input.total_instructions {
            return Err(format!(
                "thread {i} retired {} of {} instructions",
                r.instructions, input.total_instructions
            ));
        }
        let sojourn_us = finished.checked_sub(r.spawned_us).ok_or_else(|| {
            format!(
                "thread {i} finished at {finished} us before it arrived at {}",
                r.spawned_us
            )
        })?;
        if r.busy_us > sojourn_us {
            return Err(format!(
                "thread {i} busy {} us of a {sojourn_us} us sojourn",
                r.busy_us
            ));
        }
        if (sojourn_us as f64 / 1e6) < input.min_secs * (1.0 - 1e-12) {
            return Err(format!(
                "thread {i} finished in {sojourn_us} us, faster than its bound of {} s",
                input.min_secs
            ));
        }
    }
    Ok(())
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation over mean; 0 for fewer than two samples
/// or a zero mean (nothing to be unfair about).
fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / m
}

/// Eqn 4: one minus the mean, over groups, of each group's coefficient of
/// variation. An empty set of groups is perfectly fair.
pub fn eqn4(groups: &[Vec<f64>]) -> f64 {
    if groups.is_empty() {
        return 1.0;
    }
    1.0 - groups.iter().map(|g| cv(g)).sum::<f64>() / groups.len() as f64
}

/// Sojourns of the finished threads, grouped by key in key order.
fn grouped(recs: impl Iterator<Item = (u32, f64)>) -> Vec<Vec<f64>> {
    let mut by: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for (g, s) in recs {
        by.entry(g).or_default().push(s);
    }
    by.into_values().collect()
}

fn close(what: &str, ours: f64, program: f64) -> Result<(), String> {
    if (ours - program).abs() <= TOL && ours.is_finite() {
        Ok(())
    } else {
        Err(format!(
            "{what}: recomputed {ours}, program reported {program}"
        ))
    }
}

/// Whole-run Eqn 4 over the groups `< bench_groups` (the background app is
/// excluded, as in the paper), and the mean app runtime (each app's
/// runtime is its slowest thread's).
pub fn closed_fairness(
    recs: &[ThreadRec],
    bench_groups: u32,
    program_fairness: f64,
    program_mean_runtime: f64,
) -> Result<(), String> {
    let groups = grouped(
        recs.iter()
            .filter(|r| r.group < bench_groups)
            .filter_map(|r| Some((r.group, r.sojourn_s()?))),
    );
    close("Eqn 4 fairness", eqn4(&groups), program_fairness)?;
    let runtimes: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().copied().fold(0.0, f64::max))
        .collect();
    close("mean app runtime", mean(&runtimes), program_mean_runtime)
}

/// The program's windowed figures for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub windows: Vec<f64>,
    pub mean: f64,
    pub min: f64,
    pub mean_sojourn_s: f64,
}

/// Windowed Eqn 4: windows of `window_s` ending at `window_s`, then every
/// `step_s`, up to the first end at or past `max(wall, window_s)`; each
/// scores the sojourns of the threads that departed inside
/// `[end − window_s, end)`, grouped. Also the mean sojourn of all threads.
pub fn windowed(
    recs: &[ThreadRec],
    window_s: f64,
    step_s: f64,
    wall_s: f64,
    program: &Windowed,
) -> Result<(), String> {
    let horizon = wall_s.max(window_s);
    let done: Vec<(u32, f64, f64)> = recs
        .iter()
        .filter_map(|r| {
            let f = r.finished_us? as f64 / 1e6;
            Some((r.group, f, r.sojourn_s()?))
        })
        .collect();
    let mut ours = Vec::new();
    let mut k = 0u32;
    loop {
        let end = window_s + f64::from(k) * step_s;
        let start = end - window_s;
        let groups = grouped(
            done.iter()
                .filter(|(_, f, _)| *f >= start && *f < end)
                .map(|&(g, _, s)| (g, s)),
        );
        ours.push(eqn4(&groups));
        if end >= horizon {
            break;
        }
        k += 1;
    }
    if ours.len() != program.windows.len() {
        return Err(format!(
            "{} windows recomputed, program reported {}",
            ours.len(),
            program.windows.len()
        ));
    }
    for (i, (&o, &p)) in ours.iter().zip(&program.windows).enumerate() {
        close(&format!("window {i} fairness"), o, p)?;
    }
    close("mean windowed fairness", mean(&ours), program.mean)?;
    let min = ours.iter().copied().fold(f64::INFINITY, f64::min);
    close("worst window fairness", min, program.min)?;
    let sojourns: Vec<f64> = recs
        .iter()
        .map(|r| {
            r.sojourn_s()
                .unwrap_or((wall_s - r.spawned_us as f64 / 1e6).max(0.0))
        })
        .collect();
    close("mean sojourn", mean(&sojourns), program.mean_sojourn_s)
}

/// A weighted mean of per-part means equals the mean over the whole.
pub fn weighted_mean(parts: &[(u64, f64)], whole: f64) -> Result<(), String> {
    let n: u64 = parts.iter().map(|p| p.0).sum();
    let sum: f64 = parts.iter().map(|&(w, m)| w as f64 * m).sum();
    let ours = if n == 0 { 0.0 } else { sum / n as f64 };
    if (ours - whole).abs() <= TOL * whole.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "weighted mean of parts {ours}, whole reported {whole}"
        ))
    }
}

/// The corruptions [`self_test`] applies to a copy of a real result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// One thread vanishes from the results.
    DroppedThread,
    /// One thread's finish time moves by one tick.
    ShiftedFinish,
    /// The fleet reports one arrival event fewer than it was given.
    LostFleetEvent,
    /// One fairness figure the program reported moves by 1e-6.
    PerturbedFairness,
}

/// Apply each corruption with `corrupt` (which returns `false` for one
/// that does not apply to this workload) and require `check` to reject
/// the corrupted copy.
pub fn self_test<T: Clone>(
    real: &T,
    corrupt: impl Fn(&mut T, Corruption) -> bool,
    check: impl Fn(&T) -> Result<(), String>,
) -> Result<(), String> {
    check(real).map_err(|e| format!("uncorrupted result fails its checks: {e}"))?;
    for c in [
        Corruption::DroppedThread,
        Corruption::ShiftedFinish,
        Corruption::LostFleetEvent,
        Corruption::PerturbedFairness,
    ] {
        let mut bad = real.clone();
        if corrupt(&mut bad, c) && check(&bad).is_ok() {
            return Err(format!("the checks accept a result with {c:?}"));
        }
    }
    Ok(())
}

/// Shift the finish time of the first finished thread of the first
/// group with at least two finished threads (so both the group's spread
/// and the mean sojourn move); `tick_us` is the machine tick.
pub fn shift_finish(recs: &mut [ThreadRec], tick_us: u64) -> bool {
    let mut count: std::collections::BTreeMap<u32, u32> = Default::default();
    for r in recs.iter().filter(|r| r.finished_us.is_some()) {
        *count.entry(r.group).or_default() += 1;
    }
    let target = recs
        .iter_mut()
        .find(|r| r.finished_us.is_some() && count[&r.group] >= 2);
    match target {
        Some(r) => {
            r.finished_us = r.finished_us.map(|f| f + tick_us);
            true
        }
        None => false,
    }
}
