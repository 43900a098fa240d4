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

/// The interval-log meter [`UtilizationMeter`] replaced: every merged busy
/// run of the whole simulation, answering any window after the fact.
#[derive(Default)]
struct IntervalLog {
    /// Closed-open busy intervals, sorted, non-overlapping, merged.
    intervals: Vec<(SimTime, SimTime)>,
}

impl IntervalLog {
    fn record(&mut self, start: SimTime, end: SimTime) {
        assert!(start <= end, "busy interval ends before it starts");
        if start == end {
            return;
        }
        if let Some(last) = self.intervals.last_mut() {
            assert!(start >= last.1, "busy intervals must be reported in order");
            if start == last.1 {
                last.1 = end;
                return;
            }
        }
        self.intervals.push((start, end));
    }

    fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        if to <= from {
            return SimDuration::ZERO;
        }
        let idx = self.intervals.partition_point(|&(_, end)| end <= from);
        let mut busy = SimDuration::ZERO;
        for &(s, e) in &self.intervals[idx..] {
            if s >= to {
                break;
            }
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                busy += hi - lo;
            }
        }
        busy
    }
}

/// A random FIFO job stream: `(submit, duration)` pairs in submit order,
/// with idle gaps, back-to-back submissions that queue behind a busy
/// run, and zero-length jobs.
fn job_stream(rng: &mut SimRng) -> Vec<(SimTime, SimDuration)> {
    let mut now = 0u64;
    vec_of(rng, 1, 120, |r| {
        now += match r.range(0, 3) {
            0 => 0,
            1 => r.range(0, 20),
            _ => r.range(0, 400),
        };
        (
            SimTime::from_nanos(now),
            SimDuration::from_nanos(r.range(0, 60)),
        )
    })
}

/// The windowed meter, opened before the first record, sums exactly what
/// the interval log reports for the same window, wherever the window
/// lies — including while a busy run crosses `from` and/or `to`.
#[test]
fn windowed_meter_matches_the_interval_log() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let jobs = job_stream(&mut rng);
        // Replay the FIFO server once to learn where the busy runs lie.
        let mut busy_until = SimTime::ZERO;
        let mut log = IntervalLog::default();
        let runs: Vec<(SimTime, SimTime)> = jobs
            .iter()
            .map(|&(at, d)| {
                let start = busy_until.max(at);
                busy_until = start + d;
                log.record(start, busy_until);
                (start, busy_until)
            })
            .collect();
        let horizon = busy_until.as_nanos() + 50;
        // Window edges: anywhere, or inside a busy run so it crosses them.
        let edge = |r: &mut SimRng| {
            let (s, e) = runs[r.range(0, runs.len() as u64) as usize];
            if r.chance(0.5) && e > s {
                r.range(s.as_nanos(), e.as_nanos())
            } else {
                r.range(0, horizon)
            }
        };
        let (a, b) = (edge(&mut rng), edge(&mut rng));
        let (from, to) = (SimTime::from_nanos(a.min(b)), SimTime::from_nanos(a.max(b)));
        let mut m = UtilizationMeter::new();
        m.open(from, to);
        for &(start, end) in &runs {
            m.record(start, end);
        }
        assert_eq!(m.window(), (from, to), "seed {seed}");
        assert_eq!(
            m.busy(),
            log.busy_between(from, to),
            "seed {seed}: window [{from}, {to})"
        );
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
