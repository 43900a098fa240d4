//! Runtime invariant auditing for the simulator.
//!
//! The paper's conclusions rest on conservation arguments: every byte a
//! sender injects is delivered, dropped by a fault, or still in flight;
//! every CPU cycle lands in exactly one Fig. 7 category. This crate is
//! the machinery that lets each subsystem *check* those identities at
//! runtime instead of trusting them:
//!
//! * [`check`] — the reporting primitive. Inside an audit scope a failed
//!   check becomes a structured [`AuditViolation`] (component, invariant,
//!   sim-time, counter detail) collected for the caller; outside a scope
//!   it panics in debug builds (audits are always-on under `cargo test`)
//!   and is silent in release builds, so production sweeps pay nothing
//!   unless `--audit` is given.
//! * [`with_audit`] / [`with_audit_budget`] — run a closure under an
//!   audit scope, catching panics and returning collected violations.
//!   The optional *event budget* is a deterministic watchdog: components
//!   that construct a [`Sim`] clamp their event limit to it (see
//!   [`event_budget`]), so a wedged job dies with a reproducible "event
//!   limit exceeded" panic after a fixed number of events, never a
//!   wall-clock timeout.
//!
//! Components expose their end-of-run self-checks as plain methods (host
//! stacks, DMA engines and the fabric each have an `audit`), and the
//! harness that owns them calls those directly at a quiescent point.
//!
//! The scope is process-global and serialized: figure jobs inside one
//! scope may fan out across sweep-pool worker threads, and their audits
//! must all land in the same collection. Concurrent [`with_audit`] calls
//! (e.g. parallel tests) therefore queue on an internal lock; scopes must
//! not nest.
//!
//! Audits are *pure reads over counters at quiescent points* — they run
//! after `Sim::run_until` returns and never schedule events or mutate
//! state, so enabling them cannot perturb results: rows are bit-identical
//! with and without `--audit`.

use ioat_simcore::{Sim, SimTime};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One failed invariant check, as data rather than a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The component that failed its check (e.g. `stack:server`).
    pub component: String,
    /// The invariant's stable name (e.g. `frame-conservation`).
    pub invariant: &'static str,
    /// Simulation time at which the audit ran.
    pub at: SimTime,
    /// Human-readable counter deltas, e.g. `arrived=10 processed=9 pending=0`.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit violation [{}] {} at {}: {}",
            self.component, self.invariant, self.at, self.detail
        )
    }
}

/// Serializes audit scopes: one scope at a time process-wide.
static SCOPE: Mutex<()> = Mutex::new(());
/// Violations collected by the currently active scope.
static VIOLATIONS: Mutex<Vec<AuditViolation>> = Mutex::new(Vec::new());
/// Whether a scope is active (readable from any worker thread).
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Event budget of the active scope; 0 means "no budget set".
static BUDGET: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking audit scope must not wedge every later scope.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// True while a [`with_audit`] scope is active anywhere in the process.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// True when audits should run at all: inside a scope, or always in
/// debug builds. Callers gate the (cheap, end-of-run) audit computation
/// on this so release-mode sweeps without `--audit` pay nothing.
pub fn enabled() -> bool {
    is_active() || cfg!(debug_assertions)
}

/// The active scope's deterministic watchdog: a cap on simulator events.
/// Components constructing a [`Sim`] clamp their event limit to this, so
/// a wedged job panics reproducibly instead of spinning forever.
///
/// The budget is process-wide, not per thread: while a scope holds one,
/// *every* `Sim` built anywhere in the process inherits it, including
/// ones built by unscoped code on other threads. A test that sets a
/// small budget belongs in its own test binary (its own process).
pub fn event_budget() -> Option<u64> {
    match BUDGET.load(Ordering::Acquire) {
        0 => None,
        b => Some(b),
    }
}

/// Records a violation into the active scope (no-op without one).
pub fn submit(v: AuditViolation) {
    if is_active() {
        lock(&VIOLATIONS).push(v);
    }
}

/// Violations collected by the active scope so far (0 without one).
/// Pairs with [`violations_since`] so a harness can surface the
/// violations its own audit pass just produced (e.g. as trace instants).
pub fn violation_count() -> usize {
    if is_active() {
        lock(&VIOLATIONS).len()
    } else {
        0
    }
}

/// Clones the violations collected after index `since` (empty without an
/// active scope).
pub fn violations_since(since: usize) -> Vec<AuditViolation> {
    if is_active() {
        lock(&VIOLATIONS)
            .get(since..)
            .map(<[AuditViolation]>::to_vec)
            .unwrap_or_default()
    } else {
        Vec::new()
    }
}

/// The reporting primitive every audit identity goes through.
///
/// When `ok` is false: inside a scope the violation is collected; outside
/// a scope debug builds panic with the violation text (audits are
/// always-on under `cargo test`) and release builds stay silent. `detail`
/// is only evaluated on failure.
pub fn check(
    component: &str,
    invariant: &'static str,
    at: SimTime,
    ok: bool,
    detail: impl FnOnce() -> String,
) {
    if ok {
        return;
    }
    let v = AuditViolation {
        component: component.to_string(),
        invariant,
        at,
        detail: detail(),
    };
    if is_active() {
        submit(v);
    } else if cfg!(debug_assertions) && !std::thread::panicking() {
        panic!("{v}");
    }
}

/// Runs `f` under an audit scope with a sim-event budget, catching
/// panics. Returns `f`'s outcome (the panic payload on unwind) and every
/// violation collected while the scope was active.
///
/// The budget applies process-wide for the scope's duration (see
/// [`event_budget`]), so concurrent unscoped simulations see it too.
pub fn with_audit_budget<T>(
    budget: Option<u64>,
    f: impl FnOnce() -> T,
) -> (std::thread::Result<T>, Vec<AuditViolation>) {
    let _scope = lock(&SCOPE);
    lock(&VIOLATIONS).clear();
    BUDGET.store(budget.unwrap_or(0), Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    ACTIVE.store(false, Ordering::Release);
    BUDGET.store(0, Ordering::Release);
    let violations = std::mem::take(&mut *lock(&VIOLATIONS));
    (result, violations)
}

/// [`with_audit_budget`] without an event budget.
pub fn with_audit<T>(f: impl FnOnce() -> T) -> (std::thread::Result<T>, Vec<AuditViolation>) {
    with_audit_budget(None, f)
}

/// Turns a caught panic payload into a supervisor-facing reason string.
/// The event-limit watchdog panic is classified as `wedged`; everything
/// else as `panicked`.
pub fn failure_reason(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    if msg.contains("event limit") {
        format!("wedged: {msg}")
    } else {
        format!("panicked: {msg}")
    }
}

/// Queue-health audit for the event engine: every event ever scheduled is
/// accounted for as fired, cancelled, or still live — the identity that
/// would have caught the PR 3 `events_pending()` and PR 4 tombstone bugs
/// at the first affected run instead of in ad-hoc regression tests.
pub fn audit_sim(sim: &Sim) {
    let scheduled = sim.events_scheduled();
    let executed = sim.events_executed();
    let cancelled = sim.events_cancelled();
    let live = sim.events_pending() as u64;
    check(
        "simcore",
        "queue-health: scheduled = fired + cancelled + live",
        sim.now(),
        scheduled == executed + cancelled + live,
        || {
            format!(
                "scheduled={scheduled} fired={executed} cancelled={cancelled} live={live} \
                 (imbalance {})",
                scheduled as i128 - (executed + cancelled + live) as i128
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(detail: &str) -> AuditViolation {
        AuditViolation {
            component: "test".into(),
            invariant: "unit",
            at: SimTime::ZERO,
            detail: detail.into(),
        }
    }

    #[test]
    fn passing_checks_are_silent_everywhere() {
        check("c", "always-true", SimTime::ZERO, true, || unreachable!());
        let (r, v) = with_audit(|| {
            check("c", "always-true", SimTime::ZERO, true, || unreachable!());
            7
        });
        assert_eq!(r.unwrap(), 7);
        assert!(v.is_empty());
    }

    #[test]
    fn scope_collects_violations_instead_of_panicking() {
        let (r, v) = with_audit(|| {
            check(
                "stack:a",
                "byte-conservation",
                SimTime::from_nanos(5),
                false,
                || "sent=10 got=9".into(),
            );
            assert_eq!(violation_count(), 1);
            submit(violation("direct"));
            let fresh = violations_since(1);
            assert_eq!(fresh.len(), 1);
            assert_eq!(fresh[0].detail, "direct");
            42
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(violation_count(), 0, "no active scope outside with_audit");
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].component, "stack:a");
        assert_eq!(v[0].invariant, "byte-conservation");
        assert_eq!(v[0].at, SimTime::from_nanos(5));
        assert_eq!(v[1].detail, "direct");
        assert!(v[0].to_string().contains("byte-conservation"));
    }

    #[test]
    fn scope_catches_panics_and_still_returns_violations() {
        let (r, v) = with_audit(|| {
            submit(violation("before the crash"));
            panic!("boom");
        });
        let payload = r.expect_err("closure panicked");
        assert_eq!(failure_reason(payload.as_ref()), "panicked: boom");
        assert_eq!(v.len(), 1);
        assert!(!is_active(), "scope deactivated after a panic");
    }

    #[test]
    fn event_budget_is_visible_only_inside_its_scope() {
        assert_eq!(event_budget(), None);
        let (r, _) = with_audit_budget(Some(5_000), event_budget);
        assert_eq!(r.unwrap(), Some(5_000));
        assert_eq!(event_budget(), None);
    }

    #[test]
    fn failure_reason_classifies_watchdog_panics_as_wedged() {
        let wedged: Box<dyn std::any::Any + Send> =
            Box::new("event limit 100 exceeded at t=5ns — possible event loop".to_string());
        assert!(failure_reason(wedged.as_ref()).starts_with("wedged:"));
        let plain: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        assert!(failure_reason(plain.as_ref()).starts_with("panicked:"));
        let opaque: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert!(failure_reason(opaque.as_ref()).contains("non-string"));
    }

    #[test]
    fn healthy_sim_passes_the_queue_health_audit() {
        let mut sim = Sim::new();
        sim.schedule(ioat_simcore::SimDuration::from_nanos(1), |_| {});
        let keep = sim.schedule(ioat_simcore::SimDuration::from_nanos(2), |_| {});
        sim.schedule(ioat_simcore::SimDuration::from_nanos(3), |_| {});
        sim.cancel(keep);
        sim.run();
        let (_, v) = with_audit(|| audit_sim(&sim));
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "audit violation")]
    fn failed_check_outside_scope_panics_in_debug() {
        check("c", "debug-always-on", SimTime::ZERO, false, || {
            "boom".into()
        });
    }
}
