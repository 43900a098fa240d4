//! Engine-level properties of the conservative parallel runner: worker
//! count is unobservable, boundary conservation holds, and panics in
//! partitions surface on the caller without stranding workers.

mod common;

use common::{build_node, RingNode, HOP};
use ioat_parsim::{run, Outbox, ParsimReport};
use ioat_simcore::SimTime;

fn run_ring(
    n: usize,
    seed: u64,
    horizon: SimTime,
    threads: usize,
) -> (Vec<Vec<(u64, u64)>>, ParsimReport) {
    let builders: Vec<_> = (0..n)
        .map(|_| move |idx: usize, out: Outbox<u64>| -> RingNode { build_node(idx, n, seed, out) })
        .collect();
    run(builders, HOP, horizon, threads)
}

const HORIZON: SimTime = SimTime::from_millis(5);

#[test]
fn results_are_bit_identical_across_worker_counts() {
    let (outs1, rep1) = run_ring(5, 0xA11CE, HORIZON, 1);
    let (outs2, rep2) = run_ring(5, 0xA11CE, HORIZON, 2);
    let (outs4, rep4) = run_ring(5, 0xA11CE, HORIZON, 4);
    let (outs8, rep8) = run_ring(5, 0xA11CE, HORIZON, 8);
    assert_eq!(outs1, outs2, "1 vs 2 workers");
    assert_eq!(outs1, outs4, "1 vs 4 workers");
    assert_eq!(outs1, outs8, "1 vs 8 workers (clamped to 5 partitions)");
    assert!(
        !outs1.iter().all(|log| log.is_empty()),
        "the ring actually ran"
    );
    // The report (minus the thread count itself) is part of the
    // determinism contract: same windows, same per-partition events,
    // same boundary traffic.
    for rep in [&rep2, &rep4, &rep8] {
        assert_eq!(rep1.rounds, rep.rounds);
        assert_eq!(rep1.events, rep.events);
        assert_eq!(rep1.emitted, rep.emitted);
        assert_eq!(rep1.injected, rep.injected);
    }
    assert_eq!(rep1.threads, 1);
    assert_eq!(rep2.threads, 2);
    assert_eq!(rep8.threads, 5, "threads clamp to the partition count");
    assert!(rep1.rounds > 10, "the ring forced many windows");
    assert!(rep1.mean_window_ns() > 0.0);
}

#[test]
fn same_seed_reruns_reproduce_exactly() {
    let a = run_ring(4, 7, HORIZON, 3);
    let b = run_ring(4, 7, HORIZON, 3);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn boundary_traffic_is_conserved_and_audit_clean() {
    for threads in [1, 3] {
        let (result, violations) = ioat_guard::with_audit(|| run_ring(4, 99, HORIZON, threads));
        assert!(result.is_ok(), "run completed");
        assert!(
            violations.is_empty(),
            "threads={threads}: clean model must audit clean, got {violations:?}"
        );
    }
    let (_, rep) = run_ring(4, 99, HORIZON, 2);
    let emitted: u64 = rep.emitted.iter().sum();
    let injected: u64 = rep.injected.iter().sum();
    assert_eq!(emitted, injected, "nothing in flight at the horizon");
    assert!(emitted > 0, "the ring crossed partition boundaries");
}

#[test]
fn partition_panic_propagates_to_the_caller() {
    for threads in [1, 2, 3] {
        let result = std::panic::catch_unwind(|| {
            let n = 3;
            let builders: Vec<_> = (0..n)
                .map(|_| {
                    move |idx: usize, out: Outbox<u64>| -> RingNode {
                        let node = build_node(idx, n, 1, out);
                        if idx == 1 {
                            node.state.borrow_mut().panic_on = Some(4);
                        }
                        node
                    }
                })
                .collect();
            run(builders, HOP, HORIZON, threads)
        });
        let payload = result.expect_err("model panic must surface");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("panic on token 4"),
            "threads={threads}: original payload preserved, got {msg:?}"
        );
    }
}

#[test]
fn lookahead_violations_are_caught_at_the_barrier() {
    let result = std::panic::catch_unwind(|| {
        let n = 2;
        let builders: Vec<_> = (0..n)
            .map(|_| {
                move |idx: usize, out: Outbox<u64>| -> RingNode {
                    let node = build_node(idx, n, 1, out);
                    node.state.borrow_mut().violate_lookahead = true;
                    node
                }
            })
            .collect();
        run(builders, HOP, HORIZON, 2)
    });
    let payload = result.expect_err("violating the lookahead contract must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("lookahead contract"),
        "diagnostic names the contract, got {msg:?}"
    );
}

#[test]
fn empty_partitions_terminate_immediately() {
    let builders: Vec<_> = (0..3)
        .map(|_| {
            move |_idx: usize, _out: Outbox<u64>| -> IdlePartition {
                IdlePartition {
                    clock: SimTime::ZERO,
                }
            }
        })
        .collect();
    let (outs, rep) = run(builders, HOP, HORIZON, 2);
    assert_eq!(
        outs,
        vec![HORIZON; 3],
        "clocks still advance to the horizon"
    );
    assert_eq!(rep.rounds, 1, "one final window and done");
    assert_eq!(rep.total_events(), 0);
}

/// A partition with no events at all: the engine must settle it in a
/// single final window.
struct IdlePartition {
    clock: SimTime,
}

impl ioat_parsim::Partition for IdlePartition {
    type Msg = u64;
    type Out = SimTime;
    fn next_event_at(&mut self) -> Option<SimTime> {
        None
    }
    fn run_before(&mut self, limit: SimTime) {
        self.clock = self.clock.max(limit);
    }
    fn run_final(&mut self, horizon: SimTime) {
        self.clock = self.clock.max(horizon);
    }
    fn inject(&mut self, _fire_at: SimTime, _msg: u64) {
        unreachable!("nobody sends to an idle partition");
    }
    fn events_executed(&self) -> u64 {
        0
    }
    fn finish(self) -> SimTime {
        self.clock
    }
}
