//! Property test: the conservation audits as a fuzz oracle on the
//! fabric.
//!
//! 500 seeded fabric fault scenarios — random link-flap and switch-crash
//! plans over the fat-tree, I/OAT on and off — each run on the hand-off
//! path (see `common`) and checked against the fabric's own accounting
//! audit and the five-term cluster conservation identity. Any seed that
//! trips an audit is a real conservation bug, and the failure message
//! carries the seed for deterministic replay.

mod common;

use common::Loopback;
use ioat_fabric::{Fabric, FabricParams, TopologySpec};
use ioat_faults::{CrashWindow, FaultPlan, LinkFlapModel, TimeWindow};
use ioat_netsim::stack::{app_send, audit_cluster_conservation, frame_totals, HostStack};
use ioat_netsim::{ConnId, IoatConfig, SocketOpts, StackParams};
use ioat_simcore::{Sim, SimDuration, SimTime};

#[test]
fn five_hundred_seeded_fabric_fault_runs_produce_zero_audit_violations() {
    // Random flap/crash plans over the same fat-tree shape `fig_fabric`
    // runs on (k=4 here — the quick-scale stand-in the determinism suite
    // also uses; debug builds cannot afford 1024-host sweeps). Every seed
    // must satisfy the five-term conservation identity at quiescence:
    // sent = arrived + lost + switch-dropped + blackholed.
    for seed in 0u64..500 {
        let ioat = if seed % 2 == 0 {
            IoatConfig::full()
        } else {
            IoatConfig::disabled()
        };
        let mut plan = FaultPlan {
            seed: seed ^ 0xFAB_0FF,
            ..FaultPlan::none()
        };
        let flaps = ((seed % 4) * 3) as u32; // 0, 3, 6, 9
        if flaps > 0 {
            plan.link_flap = Some(LinkFlapModel {
                flaps_per_link: flaps,
                down_for: SimDuration::from_micros(200 + (seed % 5) * 100),
                horizon: SimTime::from_millis(8),
            });
        }
        for i in 0..seed % 3 {
            // Any switch may crash, edge tiers included; windows close
            // well before quiescence so go-back-N recovery completes.
            let open = SimTime::from_micros(100 * (1 + seed % 4) + 70 * i);
            plan.switch_crashes.push(CrashWindow {
                service: ((seed * 7 + 3 + 13 * i) % 20) as u32,
                window: TimeWindow::new(
                    open,
                    open + SimDuration::from_micros(500 + (seed % 6) * 300),
                ),
            });
        }

        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let fabric = Fabric::new(
            TopologySpec::FatTree { k: 4 },
            FabricParams {
                buffer_bytes: 1 << 20,
                ..FabricParams::gige()
            },
        );
        fabric.set_faults(&plan);
        let lb = Loopback::new(&fabric);
        let stacks: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| HostStack::new(n, 2, StackParams::default(), ioat))
            .collect();
        let opts = SocketOpts::tuned();
        // Two inter-pod connections crossing the full 6-link path.
        for (s, host) in stacks.iter().zip([0usize, 15, 3, 12]) {
            lb.attach(s, host);
        }
        lb.open(0, 15, opts, ConnId(1));
        lb.open(3, 12, opts, ConnId(2));
        let total = 40_000 + (seed % 17) * 4_000;
        app_send(&stacks[0], &mut sim, ConnId(1), total);
        app_send(&stacks[2], &mut sim, ConnId(2), total);
        let end = sim.run();

        let (res, violations) = ioat_guard::with_audit(|| {
            for s in &stacks {
                s.borrow().audit(end);
            }
            fabric.audit(end, true);
            audit_cluster_conservation(
                frame_totals(&stacks),
                fabric.tail_drops(),
                fabric.blackholes(),
                end,
                true,
            );
            ioat_guard::audit_sim(&sim);
        });
        assert!(res.is_ok(), "seed {seed}: audit closure panicked");
        assert!(
            violations.is_empty(),
            "seed {seed} (flaps={flaps}, crashes={}, ioat={}): {violations:?}",
            seed % 3,
            seed % 2 == 0
        );
        for (s, label) in [(&stacks[1], "b"), (&stacks[3], "d")] {
            assert_eq!(
                s.borrow().rx_meter().total_bytes(),
                total,
                "seed {seed}: receiver {label} missed bytes"
            );
        }
    }
}
