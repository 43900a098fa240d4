//! Proves the drop-accounting audits *catch* a miscounted switch drop.
//!
//! With `--features audit-bug` the fabric silently skips every 97th
//! increment of its global tail-drop counter. Driving enough drops through
//! a tiny shared buffer must then trip both the fabric's own
//! per-switch-vs-global cross-check and the cluster-wide frame
//! conservation identity — evidence the audits detect real accounting
//! defects rather than vacuously passing. Both runs put the stacks on the
//! fabric through the hand-off path (see `common`).

mod common;

use common::Loopback;
use ioat_fabric::{Fabric, FabricParams, TopologySpec};
use ioat_faults::{CrashWindow, FaultPlan, TimeWindow};
use ioat_netsim::config::{IoatConfig, StackParams};
use ioat_netsim::stack;
use ioat_netsim::{ConnId, HostStack, SocketOpts};
use ioat_simcore::{Sim, SimTime};

#[test]
fn audit_catches_a_miscounted_switch_drop() {
    let (result, violations) = ioat_guard::with_audit(|| {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let params = FabricParams {
            buffer_bytes: 8_000,
            ..FabricParams::gige()
        };
        let fabric = Fabric::new(TopologySpec::FatTree { k: 4 }, params);
        // Fan-in congestion: two senders converge on one receiver, so the
        // receiver's edge switch sees 2 Gbps in against a 1 Gbps host
        // link out and tail-drops continuously.
        let a = HostStack::new("a", 2, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 2, StackParams::default(), IoatConfig::disabled());
        let d = HostStack::new("d", 2, StackParams::default(), IoatConfig::disabled());
        let lb = Loopback::new(&fabric);
        lb.attach(&a, 0);
        lb.attach(&b, 4);
        lb.attach(&d, 15);
        lb.open(0, 15, SocketOpts::default(), ConnId(1));
        lb.open(4, 15, SocketOpts::default(), ConnId(2));
        stack::app_send(&a, &mut sim, ConnId(1), 400_000);
        stack::app_send(&b, &mut sim, ConnId(2), 400_000);
        sim.run();
        let drops = fabric.tail_drops();
        let true_drops: u64 = (0..fabric.topology().switches())
            .map(|sw| fabric.switch_stats(sw).tail_drops)
            .sum();
        fabric.audit(sim.now(), true);
        stack::audit_cluster_conservation(
            stack::frame_totals(&[a, b, d]),
            drops,
            fabric.blackholes(),
            sim.now(),
            true,
        );
        (drops, true_drops)
    });
    let (skewed_drops, true_drops) = result.expect("run must complete");
    assert!(
        true_drops > 96,
        "need > 96 drops ({true_drops}) for the skew to manifest"
    );
    assert!(
        skewed_drops < true_drops,
        "global counter ({skewed_drops}) must lag the per-switch truth ({true_drops})"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.component == "fabric" && v.invariant.contains("drop accounting")),
        "fabric per-switch-vs-global cross-check must fire: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.component == "netsim/cluster" && v.invariant.contains("frame conservation")),
        "cluster conservation must fire: {violations:?}"
    );
}

#[test]
fn audit_catches_a_miscounted_route_blackhole() {
    let (result, violations) = ioat_guard::with_audit(|| {
        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let fabric = Fabric::new(TopologySpec::FatTree { k: 4 }, FabricParams::gige());
        // Crash both aggregation switches of pod 0 (switches 8 and 9 in
        // the fat-tree(4) numbering) for the first 3 ms: every inter-pod
        // frame leaving pod 0 finds zero surviving uplinks at its edge
        // switch and blackholes. Four bulk connections push well over 96
        // blackholes before the window closes, which is where the global
        // counter's deliberate skew manifests; afterwards retransmission
        // drains everything so the quiescent identity applies.
        let down = TimeWindow::new(SimTime::ZERO, SimTime::from_millis(3));
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
        fabric.set_faults(&plan);
        let lb = Loopback::new(&fabric);
        let mut stacks = Vec::new();
        for (i, (src, dst)) in [(0usize, 12usize), (1, 13), (2, 14), (3, 15)]
            .into_iter()
            .enumerate()
        {
            let s = HostStack::new("s", 2, StackParams::default(), IoatConfig::disabled());
            let r = HostStack::new("r", 2, StackParams::default(), IoatConfig::disabled());
            lb.attach(&s, src);
            lb.attach(&r, dst);
            lb.open(src, dst, SocketOpts::tuned(), ConnId(1 + i as u64));
            stack::app_send(&s, &mut sim, ConnId(1 + i as u64), 200_000);
            stacks.push(s);
            stacks.push(r);
        }
        sim.run();
        let skewed = fabric.blackholes();
        let true_bh: u64 = (0..fabric.topology().switches())
            .map(|sw| fabric.switch_stats(sw).blackholes)
            .sum();
        fabric.audit(sim.now(), true);
        stack::audit_cluster_conservation(
            stack::frame_totals(&stacks),
            fabric.tail_drops(),
            skewed,
            sim.now(),
            true,
        );
        (skewed, true_bh)
    });
    let (skewed, true_bh) = result.expect("run must complete");
    assert!(
        true_bh > 96,
        "need > 96 blackholes ({true_bh}) for the skew to manifest"
    );
    assert!(
        skewed < true_bh,
        "global counter ({skewed}) must lag the per-switch truth ({true_bh})"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.component == "fabric" && v.invariant.contains("blackhole accounting")),
        "fabric per-switch-vs-global blackhole cross-check must fire: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.component == "netsim/cluster" && v.invariant.contains("frame conservation")),
        "cluster conservation must fire against the skewed blackhole term: {violations:?}"
    );
}
