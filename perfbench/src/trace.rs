//! Outside-in layer timing: a `Scheduler` wrapper that times every call
//! into the policy, and records when each scheduler is built and dropped.
//!
//! Nothing inside the program is instrumented. The wrapper sits at the
//! one boundary every layer already exposes — the fleet builds one
//! scheduler per machine task and drops it when the task ends; the
//! driver calls `on_quantum` once per quantum — so those instants bound
//! the fleet's plan, fan-out and roll-up phases and the policy's own time.

use dike_experiments::roster::PolicyHandle;
use dike_machine::SimTime;
use dike_sched_core::{Actions, Scheduler, SystemView};
use dike_scheduler::DikeStats;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one scheduler instance did over its life.
#[derive(Debug, Clone)]
pub struct Span {
    pub built: Instant,
    pub dropped: Instant,
    pub first_call: Option<Instant>,
    pub last_call: Option<Instant>,
    /// `on_quantum` calls.
    pub calls: u64,
    /// Host time inside `on_quantum`.
    pub busy: Duration,
    /// Dike's counters, for the Dike family.
    pub dike: Option<DikeStats>,
}

/// Where dropped wrappers leave their spans; shared by pool workers.
#[derive(Debug, Default)]
pub struct Sink(Mutex<Vec<Span>>);

impl Sink {
    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span sink poisoned"))
    }
}

/// A scheduler whose calls are timed; see the module docs.
pub struct Timed {
    inner: PolicyHandle,
    policy: String,
    sink: Arc<Sink>,
    built: Instant,
    first_call: Option<Instant>,
    last_call: Option<Instant>,
    calls: u64,
    busy: Duration,
}

impl Timed {
    pub fn new(mut inner: PolicyHandle, sink: &Arc<Sink>) -> Timed {
        let policy = inner.as_scheduler().name().to_string();
        Timed {
            inner,
            policy,
            sink: Arc::clone(sink),
            built: Instant::now(),
            first_call: None,
            last_call: None,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        &self.policy
    }

    fn initial_quantum(&self) -> SimTime {
        match &self.inner {
            PolicyHandle::Null(s) => s.initial_quantum(),
            PolicyHandle::Cfs(s) => s.initial_quantum(),
            PolicyHandle::Dio(s) => s.initial_quantum(),
            PolicyHandle::Random(s) => s.initial_quantum(),
            PolicyHandle::SortOnce(s) => s.initial_quantum(),
            PolicyHandle::Dike(s) => s.initial_quantum(),
            PolicyHandle::Lfoc(s) => s.initial_quantum(),
            PolicyHandle::DikeLfoc(s) => s.initial_quantum(),
        }
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        let t0 = Instant::now();
        self.inner.as_scheduler().on_quantum(view, actions);
        let t1 = Instant::now();
        self.busy += t1 - t0;
        self.calls += 1;
        self.first_call.get_or_insert(t0);
        self.last_call = Some(t1);
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let span = Span {
            built: self.built,
            dropped: Instant::now(),
            first_call: self.first_call,
            last_call: self.last_call,
            calls: self.calls,
            busy: self.busy,
            dike: self.inner.dike().map(|d| d.stats()),
        };
        // A poisoned sink means a worker already panicked; that panic is
        // what gets reported, so the span is dropped rather than
        // panicking again inside `drop`.
        if let Ok(mut spans) = self.sink.0.lock() {
            spans.push(span);
        }
    }
}

/// A policy, bare (untraced runs) or inside the timing wrapper.
pub enum Policy {
    Bare(PolicyHandle),
    Timed(Timed),
}

impl Policy {
    /// Wrap `handle` when a span sink is given.
    pub fn new(handle: PolicyHandle, sink: Option<&Arc<Sink>>) -> Policy {
        match sink {
            Some(sink) => Policy::Timed(Timed::new(handle, sink)),
            None => Policy::Bare(handle),
        }
    }

    pub fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            Policy::Bare(p) => p.as_scheduler(),
            Policy::Timed(t) => t,
        }
    }
}

/// Policy time and call count summed over spans.
pub fn policy_time(spans: &[&Span]) -> (f64, u64) {
    let busy: f64 = spans.iter().map(|s| s.busy.as_secs_f64()).sum();
    let calls = spans.iter().map(|s| s.calls).sum();
    (busy, calls)
}

/// `DikeStats` summed over the spans that carry them.
pub fn dike_stats(spans: &[&Span]) -> DikeStats {
    let mut sum = DikeStats::default();
    for d in spans.iter().filter_map(|s| s.dike.as_ref()) {
        sum.quanta += d.quanta;
        sum.fair_quanta += d.fair_quanta;
        sum.pairs_proposed += d.pairs_proposed;
        sum.rejected_cooldown += d.rejected_cooldown;
        sum.rejected_profit += d.rejected_profit;
        sum.swaps += d.swaps;
        sum.optimizer_steps += d.optimizer_steps;
        sum.rejected_low_confidence += d.rejected_low_confidence;
        sum.swap_retries += d.swap_retries;
        sum.swaps_abandoned += d.swaps_abandoned;
    }
    sum
}

/// Ratio that reads 0 (not NaN) when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Put the Dike-layer metrics for the spans of the Dike policy.
pub fn put_dike(m: &mut crate::report::Metrics, spans: &[&Span]) {
    let (busy, calls) = policy_time(spans);
    let d = dike_stats(spans);
    m.put("dike.on_quantum_s", busy, "s");
    m.put("dike.us_per_quantum", ratio(busy * 1e6, calls as f64), "us");
    m.put("dike.swaps", d.swaps as f64, "count");
    m.put(
        "dike.swap_yield",
        ratio(d.swaps as f64, d.pairs_proposed as f64),
        "ratio",
    );
    m.put(
        "dike.fair_quanta_frac",
        ratio(d.fair_quanta as f64, d.quanta as f64),
        "ratio",
    );
    m.put("dike.swap_retries", d.swap_retries as f64, "count");
    m.put("dike.swaps_abandoned", d.swaps_abandoned as f64, "count");
    m.put(
        "dike.rejected_low_confidence",
        d.rejected_low_confidence as f64,
        "count",
    );
}
