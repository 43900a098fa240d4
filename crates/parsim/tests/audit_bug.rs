//! Proof that the boundary-conservation audit catches a real accounting
//! bug, not just tautologies: the `audit-bug` feature silently drops
//! every 97th increment of the emitted-message audit counter (and
//! nothing else), and the audit must flag the imbalance — while the
//! simulation results stay bit-identical to the healthy build.

mod common;

use common::{build_node, RingNode, HOP};
use ioat_parsim::{run, Outbox};
use ioat_simcore::SimTime;

// Long enough that well over 97 messages cross the ring's boundaries,
// so the skew is guaranteed to have fired.
const HORIZON: SimTime = SimTime::from_millis(5);

fn run_ring(threads: usize) -> Vec<Vec<(u64, u64)>> {
    let n = 4;
    let builders: Vec<_> = (0..n)
        .map(|_| move |idx: usize, out: Outbox<u64>| -> RingNode { build_node(idx, n, 1, out) })
        .collect();
    let (outs, rep) = run(builders, HOP, HORIZON, threads);
    assert!(
        rep.emitted.iter().sum::<u64>() > 97,
        "enough boundary traffic to trip the skew"
    );
    outs
}

#[test]
fn injected_accounting_bug_is_caught_by_the_boundary_audit() {
    for threads in [1, 2] {
        let (result, violations) = ioat_guard::with_audit(|| run_ring(threads));
        assert!(
            result.is_ok(),
            "the skew is accounting-only; the run completes"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "boundary-conservation" && v.component == "parsim/engine"),
            "threads={threads}: the mis-count must surface as a structured violation, got {violations:?}"
        );
    }
}

#[test]
fn multi_worker_audit_fires_mid_run_not_only_at_the_horizon() {
    // The per-round check runs in the shared worker loop, so a
    // multi-worker run flags the skew at the first barrier after it
    // appears rather than once at termination.
    let (_, violations) = ioat_guard::with_audit(|| run_ring(2));
    let first = violations
        .iter()
        .filter(|v| v.invariant == "boundary-conservation")
        .map(|v| v.at)
        .min()
        .expect("the skew is flagged");
    assert!(
        first < HORIZON,
        "threads=2: first boundary violation at {first}, expected before the horizon {HORIZON}"
    );
}

#[test]
fn accounting_skew_does_not_perturb_results() {
    // The defect touches only the audit counter: with the violation
    // collected (not panicking), results still match across worker
    // counts — the merge sequence counter is separate and exact.
    let (one, _) = ioat_guard::with_audit(|| run_ring(1));
    let (two, _) = ioat_guard::with_audit(|| run_ring(2));
    assert_eq!(one.unwrap(), two.unwrap());
}
