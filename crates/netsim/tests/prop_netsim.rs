//! Property tests for network-stack invariants.
//!
//! Each property runs over seeded inputs drawn from [`SimRng`] (fewer
//! cases for the end-to-end transfers, which cost a whole simulation
//! each); a failure message carries the seed for deterministic replay.

use ioat_netsim::config::{IoatConfig, SocketOpts, StackParams};
use ioat_netsim::socket::socket_pair;
use ioat_netsim::stack::HostStack;
use ioat_netsim::{ConnId, SocketEvent};
use ioat_simcore::time::Bandwidth;
use ioat_simcore::{Sim, SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Cases per end-to-end transfer property.
const TRANSFER_CASES: u64 = 24;

/// A uniformly chosen element of `choices`.
fn pick(rng: &mut SimRng, choices: &[u64]) -> u64 {
    choices[rng.range(0, choices.len() as u64) as usize]
}

/// Socket options with every field drawn independently.
fn draw_opts(rng: &mut SimRng) -> SocketOpts {
    let buf = pick(rng, &[64 * 1024, 256 * 1024, 1024 * 1024]);
    SocketOpts {
        sndbuf: buf,
        rcvbuf: buf,
        tso: rng.chance(0.5),
        mtu: pick(rng, &[1500, 2048]),
        coalescing: rng.chance(0.5),
        sendfile: rng.chance(0.5),
        read_size: pick(rng, &[8 * 1024, 16 * 1024, 64 * 1024]),
    }
}

/// Conservation: every byte sent is delivered exactly once, under any
/// socket-option combination and any feature set.
#[test]
fn bytes_are_conserved() {
    for seed in 0..TRANSFER_CASES {
        let mut rng = SimRng::seed_from(seed);
        let opts = draw_opts(&mut rng);
        let total = rng.range(1_000, 2_000_000);
        let ioat = IoatConfig {
            dma_engine: rng.chance(0.5),
            split_header: rng.chance(0.5),
            ..IoatConfig::default()
        };
        let mut sim = Sim::new();
        sim.set_event_limit(80_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), ioat);
        let b = HostStack::new("b", 4, StackParams::default(), ioat);
        let (sa, sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts,
            ConnId(1),
        );
        let got = Rc::new(RefCell::new(0u64));
        let g = Rc::clone(&got);
        sb.set_handler(move |_s, ev| {
            if let SocketEvent::Delivered(n) = ev {
                *g.borrow_mut() += n;
            }
        });
        sa.send(&mut sim, total);
        sim.run();
        assert_eq!(*got.borrow(), total, "seed {seed}");
        assert_eq!(b.borrow().rx_meter().total_bytes(), total, "seed {seed}");
    }
}

/// Flow control: frames processed by the receiver never exceed what the
/// advertised window could have allowed, and stats are coherent.
#[test]
fn receiver_stats_are_coherent() {
    for seed in 0..TRANSFER_CASES {
        let mut rng = SimRng::seed_from(seed);
        let total = rng.range(10_000, 500_000);
        let opts = draw_opts(&mut rng);
        let mut sim = Sim::new();
        sim.set_event_limit(80_000_000);
        let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::disabled());
        let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::disabled());
        let (sa, _sb) = socket_pair(
            &a,
            &b,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(15),
            opts,
            ConnId(1),
        );
        sa.send(&mut sim, total);
        sim.run();
        let st = b.borrow().stats();
        // Frame count bounds: every frame carries at least one byte and
        // at most one MSS.
        assert!(
            st.frames_processed >= total.div_ceil(opts.mss()),
            "seed {seed}"
        );
        assert!(st.frames_processed <= total, "seed {seed}");
        // Interrupts never exceed frames; deliveries never exceed frames.
        assert!(st.interrupts <= st.frames_processed, "seed {seed}");
        assert!(st.deliveries >= 1, "seed {seed}");
        assert!(st.deliveries <= st.frames_processed, "seed {seed}");
    }
}

/// Determinism under arbitrary configurations: identical runs give
/// bit-identical utilization and byte counts.
#[test]
fn runs_are_reproducible() {
    for seed in 0..TRANSFER_CASES {
        let mut rng = SimRng::seed_from(seed);
        let opts = draw_opts(&mut rng);
        let total = rng.range(1_000, 300_000);
        let run = || {
            let mut sim = Sim::new();
            let a = HostStack::new("a", 4, StackParams::default(), IoatConfig::full());
            let b = HostStack::new("b", 4, StackParams::default(), IoatConfig::full());
            let (sa, _sb) = socket_pair(
                &a,
                &b,
                Bandwidth::from_gbps(1),
                SimDuration::from_micros(15),
                opts,
                ConnId(1),
            );
            // Opened before the run, over a window longer than any transfer.
            b.borrow_mut()
                .begin_measurement(SimTime::ZERO, SimTime::from_secs(1));
            sa.send(&mut sim, total);
            let end = sim.run();
            let util = b.borrow().cpu_utilization();
            let bytes = b.borrow().rx_meter().total_bytes();
            (end, util.to_bits(), bytes)
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}
