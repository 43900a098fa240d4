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
//!   [`event_limit`]), so a wedged job dies with a reproducible "event
//!   limit exceeded" panic after a fixed number of events, never a
//!   wall-clock timeout.
//!
//! Components expose their end-of-run self-checks as plain methods (host
//! stacks, DMA engines and the fabric each have an `audit`), and the
//! harness that owns them calls those directly at a quiescent point.
//!
//! A scope belongs to the run that opens it, not to the process: it
//! lives in the opening thread's slot, so concurrent runs (e.g. parallel
//! tests) each see only their own scope, and a nested scope shadows the
//! outer one until it returns. A run that fans out across threads hands
//! its scope on: the sweep pool and the partitioned engine take
//! [`current`] before spawning and run each worker under
//! [`AuditScope::enter`], so the workers' violations land in the run's
//! collection and their simulations inherit its budget.
//!
//! Audits are *pure reads over counters at quiescent points* — they run
//! after `Sim::run_until` returns and never schedule events or mutate
//! state, so enabling them cannot perturb results: rows are bit-identical
//! with and without `--audit`.

use ioat_simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// One run's audit scope: its event budget and the violations its
/// checks collect, shared by every worker thread the run hands it to.
struct Scope {
    budget: Option<u64>,
    violations: Mutex<Vec<AuditViolation>>,
}

thread_local! {
    /// The scope this thread runs under, if any.
    static SCOPE: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The lock only guards a push or a take, so a poisoned list is still whole.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with this thread's scope, if any.
fn with_scope<R>(f: impl FnOnce(Option<&Scope>) -> R) -> R {
    SCOPE.with(|slot| f(slot.borrow().as_deref()))
}

/// A handle on the audit scope of the calling thread: empty outside a
/// scope. A thread pool takes one with [`current`] before it spawns and
/// runs each worker body under [`AuditScope::enter`], so the workers'
/// checks, audits and event limits belong to the run that spawned them.
#[derive(Clone)]
pub struct AuditScope(Option<Arc<Scope>>);

/// The calling thread's audit scope (empty outside one).
pub fn current() -> AuditScope {
    AuditScope(SCOPE.with(|slot| slot.borrow().clone()))
}

impl AuditScope {
    /// Runs `f` on the calling thread under this scope, restoring the
    /// thread's previous scope when `f` returns or unwinds.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Arc<Scope>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPE.with(|slot| *slot.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPE.with(|slot| slot.replace(self.0.clone())));
        f()
    }
}

/// True when audits should run at all: inside a scope, or always in
/// debug builds. Callers gate the (cheap, end-of-run) audit computation
/// on this so release-mode sweeps without `--audit` pay nothing.
pub fn enabled() -> bool {
    cfg!(debug_assertions) || with_scope(|scope| scope.is_some())
}

/// The event limit of every simulation the harness builds: a generous
/// 2·10⁹-event runaway guard (experiments run millions of events),
/// clamped to the calling thread's scope budget so a wedged job dies
/// after a fixed event count instead of spinning for the full allowance.
pub fn event_limit() -> u64 {
    const RUNAWAY: u64 = 2_000_000_000;
    with_scope(|scope| scope.and_then(|s| s.budget)).map_or(RUNAWAY, |budget| budget.min(RUNAWAY))
}

/// The reporting primitive every audit identity goes through.
///
/// When `ok` is false: inside the calling thread's scope the violation
/// is collected; outside a scope debug builds panic with the violation
/// text (audits are always-on under `cargo test`) and release builds
/// stay silent. `detail` is only evaluated on failure.
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
    with_scope(|scope| match scope {
        Some(scope) => lock(&scope.violations).push(v),
        None if cfg!(debug_assertions) && !std::thread::panicking() => panic!("{v}"),
        None => {}
    });
}

/// Runs `f` on the calling thread under a new audit scope with a
/// sim-event budget, catching panics. Returns `f`'s outcome (the panic
/// payload on unwind) and every violation collected in the scope, by
/// this thread and by the workers it handed the scope to. The thread's
/// previous scope, if any, is restored afterwards.
pub fn with_audit_budget<T>(
    budget: Option<u64>,
    f: impl FnOnce() -> T,
) -> (std::thread::Result<T>, Vec<AuditViolation>) {
    let scope = Arc::new(Scope {
        budget,
        violations: Mutex::new(Vec::new()),
    });
    let result =
        AuditScope(Some(Arc::clone(&scope))).enter(|| panic::catch_unwind(AssertUnwindSafe(f)));
    let violations = std::mem::take(&mut *lock(&scope.violations));
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
    use std::sync::Barrier;

    fn violation(detail: &str) -> AuditViolation {
        AuditViolation {
            component: "test".into(),
            invariant: "unit",
            at: SimTime::ZERO,
            detail: detail.into(),
        }
    }

    /// Fails a check whose violation equals `violation(detail)`.
    fn fail(detail: &str) {
        check("test", "unit", SimTime::ZERO, false, || detail.into());
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
            42
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].component, "stack:a");
        assert_eq!(v[0].invariant, "byte-conservation");
        assert_eq!(v[0].at, SimTime::from_nanos(5));
        assert!(v[0].to_string().contains("byte-conservation"));
    }

    #[test]
    fn scope_catches_panics_and_still_returns_violations() {
        let (r, v) = with_audit(|| {
            fail("before the crash");
            panic!("boom");
        });
        let payload = r.expect_err("closure panicked");
        assert_eq!(failure_reason(payload.as_ref()), "panicked: boom");
        assert_eq!(v.len(), 1);
        assert!(current().0.is_none(), "scope uninstalled after a panic");
    }

    #[test]
    fn event_budget_is_visible_only_inside_its_scope() {
        assert_eq!(event_limit(), 2_000_000_000);
        let (r, _) = with_audit_budget(Some(5_000), event_limit);
        assert_eq!(r.unwrap(), 5_000);
        assert_eq!(event_limit(), 2_000_000_000);
    }

    #[test]
    fn nested_scope_shadows_the_outer_one_until_it_returns() {
        let (r, outer) = with_audit_budget(Some(7), || {
            let (inner_limit, inner) = with_audit_budget(Some(3), || {
                fail("inner");
                event_limit()
            });
            fail("outer");
            (inner_limit.unwrap(), inner, event_limit())
        });
        let (inner_limit, inner, outer_limit) = r.unwrap();
        assert_eq!((inner_limit, outer_limit), (3, 7));
        assert_eq!(inner, [violation("inner")]);
        assert_eq!(outer, [violation("outer")]);
    }

    #[test]
    fn a_scope_does_not_reach_unscoped_threads() {
        // While thread A holds a budgeted scope, an unrelated thread B
        // that never entered one must see neither its budget nor its
        // collection: B's failed check panics (in debug builds) and A
        // collects nothing.
        let parked = Barrier::new(2);
        let done = Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                with_audit_budget(Some(5_000), || {
                    parked.wait();
                    done.wait();
                })
            });
            parked.wait();
            let b = s.spawn(|| {
                let failed = panic::catch_unwind(|| fail("unscoped"));
                (failed, event_limit())
            });
            let (failed, limit) = b.join().unwrap();
            done.wait();
            let (r, a_violations) = a.join().unwrap();
            r.unwrap();
            assert_eq!(limit, 2_000_000_000, "B must not inherit A's budget");
            assert!(a_violations.is_empty(), "A collected {a_violations:?}");
            if cfg!(debug_assertions) {
                let payload = failed.expect_err("B's failed check must panic");
                assert!(failure_reason(payload.as_ref()).contains("audit violation"));
            }
        });
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
