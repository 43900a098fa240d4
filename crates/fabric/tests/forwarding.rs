//! Host stacks exchanging bulk data across a fat-tree(4) fabric on the
//! hand-off path (see `common`): exactly-once delivery, tail-drop
//! recovery and the fault domain's reroute / blackhole / recovery
//! behavior, each checked against the fabric and cluster conservation
//! audits.

mod common;

use common::Loopback;
use ioat_fabric::{Fabric, FabricParams, FabricRef, TopologySpec};
use ioat_faults::{CrashWindow, FaultPlan, LinkFlapModel, TimeWindow};
use ioat_netsim::config::{IoatConfig, StackParams};
use ioat_netsim::socket::SocketEvent;
use ioat_netsim::stack::{self, StackRef};
use ioat_netsim::{ConnId, HostStack, SocketOpts};
use ioat_simcore::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn small_fabric(buffer_bytes: u64) -> (Sim, FabricRef) {
    let mut sim = Sim::new();
    sim.set_event_limit(50_000_000);
    let params = FabricParams {
        buffer_bytes,
        ..FabricParams::gige()
    };
    (sim, Fabric::new(TopologySpec::FatTree { k: 4 }, params))
}

fn host(name: &str) -> StackRef {
    HostStack::new(name, 2, StackParams::default(), IoatConfig::disabled())
}

/// Bytes delivered to `stack`'s application on `conn`, counted live.
fn delivered(stack: &StackRef, conn: ConnId) -> Rc<RefCell<u64>> {
    let got = Rc::new(RefCell::new(0u64));
    let g = Rc::clone(&got);
    stack::set_handler(stack, conn, move |_sim, ev| {
        if let SocketEvent::Delivered(n) = ev {
            *g.borrow_mut() += n;
        }
    });
    got
}

/// The fabric's accounting audit plus the cluster-wide conservation
/// identity with its switch-drop and blackhole terms, at quiescence. Each
/// fabric term the run exercised is then shown to be enforced: one frame
/// missing from it must break the identity.
fn audit(sim: &Sim, fabric: &FabricRef, stacks: &[StackRef]) {
    let now = sim.now();
    let totals = stack::frame_totals(stacks);
    let (drops, blackholes) = (fabric.tail_drops(), fabric.blackholes());
    fabric.audit(now, true);
    stack::audit_cluster_conservation(totals, drops, blackholes, now, true);
    let miscounts = [
        (drops > 0).then(|| (drops - 1, blackholes)),
        (blackholes > 0).then(|| (drops, blackholes - 1)),
    ];
    for (d, b) in miscounts.into_iter().flatten() {
        let (res, violations) = ioat_guard::with_audit(|| {
            stack::audit_cluster_conservation(totals, d, b, now, true);
        });
        assert!(res.is_ok());
        assert!(
            violations
                .iter()
                .any(|v| v.invariant.starts_with("frame conservation")),
            "switch_dropped={d} (true {drops}), route_blackholed={b} (true {blackholes}) \
             must break cluster conservation: {violations:?}"
        );
    }
}

/// One inter-pod bulk transfer (host 0 → host 15, the full 6-link path)
/// of `total` bytes over a fabric with `buffer_bytes` of shared buffer
/// per switch and `plan` installed. Returns the audited run.
#[derive(Debug, PartialEq)]
struct Transfer {
    delivered: u64,
    tail_drops: u64,
    blackholes: u64,
    forwarded: u64,
    end: SimTime,
    frames_sent: u64,
    retransmits: u64,
}

fn transfer(plan: &FaultPlan, buffer_bytes: u64, total: u64) -> Transfer {
    let (mut sim, fabric) = small_fabric(buffer_bytes);
    fabric.set_faults(plan);
    let lb = Loopback::new(&fabric);
    let a = host("a");
    let b = host("b");
    lb.attach(&a, 0);
    lb.attach(&b, 15);
    lb.open(0, 15, SocketOpts::tuned(), ConnId(1));
    let got = delivered(&b, ConnId(1));
    stack::app_send(&a, &mut sim, ConnId(1), total);
    sim.run();
    audit(&sim, &fabric, &[Rc::clone(&a), Rc::clone(&b)]);
    let sent = a.borrow().stats();
    let delivered = *got.borrow();
    Transfer {
        delivered,
        tail_drops: fabric.tail_drops(),
        blackholes: fabric.blackholes(),
        forwarded: fabric.forwarded(),
        end: sim.now(),
        frames_sent: sent.frames_sent,
        retransmits: sent.retransmits,
    }
}

#[test]
fn bytes_cross_the_fabric_exactly_once() {
    let total = 1_000_000;
    let run = transfer(&FaultPlan::none(), 1 << 20, total);
    assert_eq!(run.delivered, total);
    assert_eq!(run.tail_drops, 0, "ample buffers must not drop");
    // Every data frame crosses 5 switches on an inter-pod path
    // (edge → agg → core → agg → edge).
    assert_eq!(run.forwarded, 5 * run.frames_sent);
}

#[test]
fn tiny_buffers_tail_drop_and_the_sender_recovers() {
    // A shared buffer that fits barely more than one frame forces drops
    // under a windowed burst; retransmission must still land every byte,
    // and the conservation identity must hold with the switch-drop term.
    let total = 300_000;
    let run = transfer(&FaultPlan::none(), 4_000, total);
    assert_eq!(run.delivered, total, "retransmits must recover drops");
    assert!(run.tail_drops > 0, "tiny buffer must tail-drop");
    assert!(
        run.retransmits > 0,
        "recovery must go through the retransmit path"
    );
}

#[test]
fn single_agg_crash_reroutes_with_zero_blackholes() {
    // Crash one of pod 0's two aggregation switches for the whole run:
    // the source edge switch always has the other uplink alive, so ECMP's
    // surviving-set re-hash routes around the outage and no frame ever
    // lacks a live path.
    let plan = FaultPlan {
        switch_crashes: vec![CrashWindow {
            service: 8,
            window: TimeWindow::new(SimTime::ZERO, SimTime::from_millis(1_000)),
        }],
        ..FaultPlan::none()
    };
    let total = 500_000;
    let run = transfer(&plan, 1 << 20, total);
    assert_eq!(run.delivered, total, "failover path must carry every byte");
    assert_eq!(run.blackholes, 0, "a surviving uplink means no blackhole");
}

#[test]
fn pod_uplink_outage_blackholes_then_recovers() {
    // Crash *both* pod-0 aggregation switches for the first 2 ms:
    // inter-pod frames blackhole at the edge until the window closes, then
    // go-back-N retransmission re-traverses the restored paths and the
    // quiescent conservation identity (checked inside `transfer`)
    // balances with the blackhole term.
    let down = TimeWindow::new(SimTime::ZERO, SimTime::from_millis(2));
    let plan = FaultPlan {
        switch_crashes: vec![
            CrashWindow {
                service: 8,
                window: down,
            },
            CrashWindow {
                service: 9,
                window: down,
            },
        ],
        ..FaultPlan::none()
    };
    let total = 500_000;
    let run = transfer(&plan, 1 << 20, total);
    assert_eq!(run.delivered, total, "recovery must deliver every byte");
    assert!(run.blackholes > 0, "a severed pod must blackhole frames");
}

#[test]
fn link_flaps_reroute_and_recover() {
    // Seed-driven flap windows on every directed link: paths die and
    // return throughout the run. Delivery must still complete and the
    // conservation identity must balance (blackholes occur whenever a
    // flap severs the last candidate, e.g. an access link).
    let plan = FaultPlan {
        link_flap: Some(LinkFlapModel {
            flaps_per_link: 3,
            down_for: SimDuration::from_micros(400),
            horizon: SimTime::from_millis(8),
        }),
        seed: 7,
        ..FaultPlan::none()
    };
    let total = 500_000;
    let run = transfer(&plan, 1 << 20, total);
    assert_eq!(run.delivered, total, "flapped paths must still deliver");
}

#[test]
fn armed_but_never_triggering_plan_is_bit_identical() {
    // A fault plan whose only window sits far beyond the run installs
    // real fault state (the survivor filter runs on every hop) but must
    // not perturb a single routing choice or timestamp.
    let plan = FaultPlan {
        switch_crashes: vec![CrashWindow {
            service: 8,
            window: TimeWindow::new(SimTime::from_millis(60_000), SimTime::from_millis(61_000)),
        }],
        ..FaultPlan::none()
    };
    let total = 500_000;
    let base = transfer(&FaultPlan::none(), 1 << 20, total);
    let armed = transfer(&plan, 1 << 20, total);
    assert_eq!(base, armed, "dormant fault state must be invisible");
}
