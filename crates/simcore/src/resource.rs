//! Serialized resources and utilization accounting.
//!
//! A [`Resource`] models anything that can do one thing at a time: a CPU
//! core, a DMA channel, a disk head. Work is submitted as
//! `(duration, completion-action)` pairs; the resource executes jobs
//! back-to-back in FIFO order and sums its busy time inside one
//! measurement window — the steady-state window after warm-up over which
//! the paper reports its headline "CPU utilization".

use crate::engine::Sim;
use crate::time::{SimDuration, SimTime};

/// Sums the busy time that falls inside one measurement window
/// `[from, to)`.
///
/// The window is opened before the first busy run is recorded, so each
/// run adds its overlap with the window as it arrives and the meter
/// holds O(1) state however long the simulation runs. Busy runs must be
/// reported in start order without overlap, which a FIFO resource
/// guarantees. A meter that is never opened measures
/// `[0, SimTime::MAX)`, so its [`busy`](Self::busy) is the whole-run
/// total.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationMeter {
    from: SimTime,
    to: SimTime,
    busy: SimDuration,
    /// End of the latest recorded busy run (zero before the first).
    last: SimTime,
}

impl Default for UtilizationMeter {
    fn default() -> Self {
        UtilizationMeter {
            from: SimTime::ZERO,
            to: SimTime::MAX,
            busy: SimDuration::ZERO,
            last: SimTime::ZERO,
        }
    }
}

impl UtilizationMeter {
    /// Creates an empty meter measuring `[0, SimTime::MAX)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or if `start` precedes the end of the last
    /// recorded interval (busy intervals on a serialized resource never
    /// overlap).
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        assert!(start <= end, "busy interval ends before it starts");
        if start == end {
            return;
        }
        assert!(
            start >= self.last,
            "busy intervals must be reported in order: {start} < {}",
            self.last
        );
        self.busy += end
            .min(self.to)
            .saturating_duration_since(start.max(self.from));
        self.last = end;
    }

    /// Opens the measurement window `[from, to)`: only busy time inside
    /// it counts.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`, or if a busy run has already been recorded:
    /// the window is opened before the resource does any work.
    pub fn open(&mut self, from: SimTime, to: SimTime) {
        assert!(
            from <= to,
            "measurement window runs backwards: {from} > {to}"
        );
        assert!(
            self.last == SimTime::ZERO,
            "measurement window [{from}, {to}) opened after a busy run was recorded"
        );
        self.from = from;
        self.to = to;
    }

    /// The measurement window `[from, to)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.from, self.to)
    }

    /// Busy time recorded inside the window.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }
}

/// A non-preemptive FIFO server.
///
/// Jobs submitted while the resource is busy queue implicitly: each new job
/// starts at `max(now, busy_until)`. The completion action is scheduled on
/// the simulator at the job's finish time.
///
/// ```rust
/// use ioat_simcore::{Resource, Sim, SimDuration};
///
/// let mut sim = Sim::new();
/// let mut core = Resource::new();
/// // Two 10us jobs submitted together finish at 10us and 20us.
/// core.run_job(&mut sim, SimDuration::from_micros(10), |_| {});
/// let done = core.run_job(&mut sim, SimDuration::from_micros(10), |_| {});
/// assert_eq!(done.as_nanos(), 20_000);
/// sim.run();
/// ```
#[derive(Debug, Default)]
pub struct Resource {
    busy_until: SimTime,
    meter: UtilizationMeter,
}

impl Resource {
    /// Creates a resource that is idle at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queueing delay a job submitted now would experience before starting.
    pub fn backlog_at(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_duration_since(now)
    }

    /// Submits a job of length `duration`; `on_complete` fires when it
    /// finishes. Returns the completion instant.
    ///
    /// Zero-length jobs complete "now" (their action is still scheduled
    /// through the event queue to preserve FIFO ordering with other events).
    pub fn run_job<F>(&mut self, sim: &mut Sim, duration: SimDuration, on_complete: F) -> SimTime
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let start = self.busy_until.max(sim.now());
        let end = start + duration;
        self.meter.record(start, end);
        self.busy_until = end;
        sim.schedule_at(end, on_complete);
        end
    }

    /// Busy-time accounting for this resource.
    pub fn meter(&self) -> &UtilizationMeter {
        &self.meter
    }
}

/// A pool of identical serialized resources (e.g. the cores of a node).
///
/// The pool dispatches to the member with the shortest backlog, which is
/// how the simulated OS spreads application threads across cores while the
/// receive path stays pinned to a designated interrupt core. The pool owns
/// its members outright: whoever owns the pool charges a job through
/// [`ResourcePool::member`] under the same borrow that computed its cost.
#[derive(Debug)]
pub struct ResourcePool {
    members: Vec<Resource>,
}

impl ResourcePool {
    /// Creates a pool of `n` resources.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a resource pool needs at least one member");
        ResourcePool {
            members: (0..n).map(|_| Resource::new()).collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the pool somehow has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member `idx`, to submit a job to.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member(&mut self, idx: usize) -> &mut Resource {
        &mut self.members[idx]
    }

    /// All members.
    pub fn members(&self) -> &[Resource] {
        &self.members
    }

    /// Index of the member with the least queued work at `now` (ties
    /// broken by lowest index, keeping runs deterministic).
    pub fn least_loaded_index(&self, now: SimTime) -> usize {
        self.members
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.backlog_at(now))
            .expect("pool is non-empty")
            .0
    }

    /// Opens every member's measurement window `[from, to)` (see
    /// [`UtilizationMeter::open`]).
    pub fn open_window(&mut self, from: SimTime, to: SimTime) {
        for r in &mut self.members {
            r.meter.open(from, to);
        }
    }

    /// Aggregate busy time across members inside their windows.
    pub fn busy(&self) -> SimDuration {
        self.members.iter().map(|r| r.meter().busy()).sum()
    }

    /// Mean utilization across all members over the window
    /// [`ResourcePool::open_window`] set — the paper's "overall CPU
    /// utilization" for a node.
    pub fn utilization(&self) -> f64 {
        let (from, to) = self.members[0].meter().window();
        if to <= from {
            return 0.0;
        }
        let window = (to - from).as_nanos() as f64 * self.members.len() as f64;
        self.busy().as_nanos() as f64 / window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn jobs_serialize_fifo() {
        let mut sim = Sim::new();
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        let t1 = r.run_job(&mut sim, d, |_| {});
        let t2 = r.run_job(&mut sim, d, |_| {});
        assert_eq!(t1, SimTime::from_micros(10));
        assert_eq!(t2, SimTime::from_micros(20));
        sim.run();
        assert_eq!(r.meter().busy(), d * 2);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut sim = Sim::new();
        // The completion resubmits, so the test shares the resource with it.
        let r = Rc::new(RefCell::new(Resource::new()));
        let rr = Rc::clone(&r);
        r.borrow_mut()
            .run_job(&mut sim, SimDuration::from_micros(1), move |sim| {
                // Resubmit after a 9us idle gap.
                sim.schedule(SimDuration::from_micros(9), move |sim| {
                    rr.borrow_mut()
                        .run_job(sim, SimDuration::from_micros(1), |_| {});
                });
            });
        sim.run();
        assert_eq!(r.borrow().meter().busy(), SimDuration::from_micros(2));
    }

    #[test]
    fn window_clips_runs_that_cross_its_edges() {
        let mut m = UtilizationMeter::new();
        m.open(t(15), t(35));
        // [10, 20) counts from 15 and [30, 40) up to the window end.
        m.record(t(10), t(20));
        m.record(t(30), t(40));
        assert_eq!(m.busy(), SimDuration::from_nanos(10));
        assert_eq!(m.window(), (t(15), t(35)));
    }

    #[test]
    #[should_panic(expected = "must be reported in order")]
    fn overlapping_intervals_panic() {
        let mut m = UtilizationMeter::new();
        m.record(t(0), t(10));
        m.record(t(5), t(15));
    }

    #[test]
    #[should_panic(expected = "opened after a busy run was recorded")]
    fn opening_after_a_recorded_run_panics() {
        let mut m = UtilizationMeter::new();
        m.record(t(0), t(10));
        m.open(t(15), t(40));
    }

    #[test]
    fn pool_dispatches_to_least_loaded() {
        let mut sim = Sim::new();
        let mut pool = ResourcePool::new(2);
        pool.open_window(SimTime::ZERO, SimTime::from_micros(100));
        pool.member(0)
            .run_job(&mut sim, SimDuration::from_micros(100), |_| {});
        let pick = pool.least_loaded_index(sim.now());
        assert_eq!(pick, 1);
        pool.member(pick)
            .run_job(&mut sim, SimDuration::from_micros(10), |_| {});
        sim.run();
        // Overall utilization over 100us on 2 cores: (100 + 10) / 200.
        let u = pool.utilization();
        assert!((u - 0.55).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn backlog_reflects_queued_work() {
        let mut sim = Sim::new();
        let mut r = Resource::new();
        r.run_job(&mut sim, SimDuration::from_micros(3), |_| {});
        assert_eq!(r.backlog_at(SimTime::ZERO), SimDuration::from_micros(3));
        assert_eq!(r.backlog_at(SimTime::from_micros(3)), SimDuration::ZERO);
    }
}
