//! Property test: the conservation audits as a fuzz oracle.
//!
//! 1 000 seeded scenarios — Bernoulli frame loss at three rates, with
//! I/OAT on and off — each followed by the full audit suite. Any seed that trips an audit is a real
//! conservation bug (or a broken invariant), and the failure message
//! carries the seed for deterministic replay. The fabric counterpart
//! lives in `ioat-fabric`'s `tests/audit_fuzz.rs`.

use ioat_faults::{FaultInjector, FaultPlan};
use ioat_netsim::stack::{
    app_send, audit_cluster_conservation, frame_totals, open_connection, wire, HostStack,
};
use ioat_netsim::{ConnId, IoatConfig, SocketOpts, StackParams};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration};

#[test]
fn thousand_seeded_fault_runs_produce_zero_audit_violations() {
    for seed in 0u64..1_000 {
        // Derive the scenario from the seed so the space is covered
        // deterministically: loss rate, transfer size and I/OAT on/off
        // all cycle independently.
        let ioat = if seed % 2 == 0 {
            IoatConfig::full()
        } else {
            IoatConfig::disabled()
        };
        let loss = match seed % 3 {
            0 => 0.0,
            1 => 1e-3,
            _ => 5e-3,
        };
        let plan = if loss > 0.0 {
            FaultPlan::bernoulli_loss(seed ^ 0xA0D1_7CAFE, loss)
        } else {
            FaultPlan::none()
        };

        let mut sim = Sim::new();
        sim.set_event_limit(50_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), ioat);
        let b = HostStack::new("b", 4, StackParams::default(), ioat);
        let opts = SocketOpts::tuned();
        let (pa, pb) = wire(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts.coalescing,
        );
        let conn = open_connection(&a, &b, pa, pb, opts, ConnId(1));
        a.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 0));
        b.borrow_mut()
            .set_fault_injector(FaultInjector::new(&plan, 1));

        let total = 100_000 + (seed % 17) * 10_000;
        app_send(&a, &mut sim, conn, total);
        let end = sim.run();

        let (res, violations) = ioat_guard::with_audit(|| {
            a.borrow().audit(end);
            b.borrow().audit(end);
            audit_cluster_conservation(frame_totals(&[a.clone(), b.clone()]), 0, 0, end, true);
            ioat_guard::audit_sim(&sim);
        });
        assert!(res.is_ok(), "seed {seed}: audit closure panicked");
        assert!(
            violations.is_empty(),
            "seed {seed} (loss={loss}, ioat={}): {violations:?}",
            seed % 2 == 0
        );
        assert_eq!(
            b.borrow().rx_meter().total_bytes(),
            total,
            "seed {seed}: not every byte was delivered"
        );
    }
}
