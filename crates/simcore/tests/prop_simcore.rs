//! Property tests for the simulation kernel invariants.
//!
//! Each property runs over `CASES` seeded inputs drawn from [`SimRng`];
//! a failure message carries the seed for deterministic replay.

use ioat_simcore::{Histogram, Sim, SimDuration, SimRng, SimTime, UtilizationMeter};
use std::cell::RefCell;
use std::rc::Rc;

const CASES: u64 = 256;

/// A vector of `rng.range(len_lo, len_hi)` values drawn by `draw`.
fn vec_of<T>(
    rng: &mut SimRng,
    len_lo: u64,
    len_hi: u64,
    mut draw: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let len = rng.range(len_lo, len_hi);
    (0..len).map(|_| draw(rng)).collect()
}

/// Events always execute in non-decreasing time order, and equal-time
/// events execute in scheduling order, regardless of insertion order.
#[test]
fn events_execute_in_time_then_fifo_order() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let delays = vec_of(&mut rng, 1, 200, |r| r.range(0, 1_000));
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_nanos(d), move |s| {
                log.borrow_mut().push((s.now().as_nanos(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), delays.len(), "seed {seed}");
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed}: time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "seed {seed}: FIFO violated at equal times");
            }
        }
        // Each event fires at exactly its requested time.
        for &(at, i) in log.iter() {
            assert_eq!(at, delays[i], "seed {seed}");
        }
    }
}

/// The final clock equals the max scheduled delay.
#[test]
fn final_clock_is_last_event_time() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let delays = vec_of(&mut rng, 1, 100, |r| r.range(0, 10_000));
        let mut sim = Sim::new();
        for &d in &delays {
            sim.schedule(SimDuration::from_nanos(d), |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), *delays.iter().max().unwrap(), "seed {seed}");
    }
}

/// Utilization is always within [0, 1] and busy_between is additive over
/// a partition of the window.
#[test]
fn utilization_meter_is_consistent() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let gaps = vec_of(&mut rng, 1, 100, |r| (r.range(0, 50), r.range(1, 50)));
        let split = rng.range(0, 5_000);
        let mut m = UtilizationMeter::new();
        let mut t = 0u64;
        for &(gap, busy) in &gaps {
            let start = t + gap;
            let end = start + busy;
            m.record(SimTime::from_nanos(start), SimTime::from_nanos(end));
            t = end;
        }
        let total = SimTime::from_nanos(t);
        let u = m.utilization_between(SimTime::ZERO, total);
        assert!((0.0..=1.0 + 1e-12).contains(&u), "seed {seed}: u = {u}");
        // Additivity across a split point.
        let mid = SimTime::from_nanos(split.min(t));
        let a = m.busy_between(SimTime::ZERO, mid);
        let b = m.busy_between(mid, total);
        assert_eq!(a + b, m.total_busy(), "seed {seed}");
    }
}

/// Histogram quantiles are monotone in q and bounded by recorded extremes
/// (within one sub-bucket of relative error).
#[test]
fn histogram_quantiles_are_monotone() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let values = vec_of(&mut rng, 1, 500, |r| r.range(0, 1_000_000));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = 0;
        for &q in &qs {
            let x = h.quantile(q);
            assert!(x >= prev, "seed {seed}: quantile not monotone");
            prev = x;
        }
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        assert!(h.quantile(1.0) <= max, "seed {seed}");
        // Lower bound under-estimates by at most one sub-bucket (~3.2%).
        assert!(
            h.quantile(0.0) as f64 >= min as f64 * 0.96 - 1.0,
            "seed {seed}"
        );
    }
}

/// Cancelling a random subset of events prevents exactly those events.
#[test]
fn cancellation_is_exact() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let n = rng.range(1, 100) as usize;
        let mut sim = Sim::new();
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..n {
            let fired = Rc::clone(&fired);
            ids.push(sim.schedule(SimDuration::from_nanos(i as u64), move |_| {
                fired.borrow_mut().push(i);
            }));
        }
        let mut expect: Vec<usize> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if rng.chance(0.5) {
                assert!(sim.cancel(id), "seed {seed}: event {i} not cancellable");
            } else {
                expect.push(i);
            }
        }
        sim.run();
        assert_eq!(*fired.borrow(), expect, "seed {seed}");
    }
}
