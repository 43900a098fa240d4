//! The discrete-event loop.
//!
//! [`Sim`] owns an indexed priority queue of scheduled actions. Each
//! action is a boxed `FnOnce(&mut Sim)`; model components live in
//! `Rc<RefCell<_>>` cells that the closures capture. Two events scheduled
//! for the same instant execute in scheduling order (FIFO tie-break on a
//! monotonically increasing sequence number), which makes every run
//! bit-reproducible. Executing an event only advances the clock, counts
//! it and runs its action; models that are traced record their own spans
//! from the costs they compute.
//!
//! # Queue internals
//!
//! The queue is a slab-backed indexed 4-ary min-heap:
//!
//! * Every scheduled event owns a **slab slot** holding its boxed action;
//!   slots are recycled through a free list, so steady-state scheduling
//!   allocates nothing beyond the action box itself.
//! * The **heap** orders small plain-data entries by `(time, seq)` — the
//!   classic FIFO-on-ties contract. Entries never move between slots, and
//!   the hot pop path does one slab index per event — no hash lookups.
//!   Each node has four children (half the depth of a binary heap) and
//!   sifts move a hole rather than swapping. Every `(time, seq)` key is
//!   unique, so the execution order depends on the keys alone, never on
//!   the heap's shape.
//! * A **deferred** event (see [`Sim::schedule_deferred`]) is re-keyed in
//!   place when it surfaces: its top entry is replaced by the fire-time
//!   entry and sunk, one sift instead of a pop plus a push.
//! * [`Sim::cancel`] is an O(1) **slot invalidation**: the action is
//!   dropped immediately (so a cancelled far-future timer releases
//!   everything its closure captured right away), the slot's generation is
//!   bumped and the slot returns to the free list. The heap entry stays
//!   behind as a small stale entry that the pop loop skips when its
//!   time comes; a compaction sweep bounds how many such entries can
//!   accumulate (see [`Sim::tombstones`]).
//! * **Generations** make handles ABA-safe: a recycled slot gets a new
//!   generation, so a stale [`EventId`] held by model code can never
//!   cancel an unrelated later event.

use crate::time::{SimDuration, SimTime};

/// An opaque handle identifying a scheduled event, usable with
/// [`Sim::cancel`].
///
/// Internally a `(slot, generation)` pair into the scheduler's slab;
/// generation tagging makes stale handles inert rather than dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type Action = Box<dyn FnOnce(&mut Sim)>;

/// Stale-entry count that triggers a heap compaction sweep. Below this the
/// linear sweep costs more than the memory it reclaims.
const COMPACT_MIN_STALE: usize = 1024;

/// One slab slot: the current generation plus the scheduled action.
/// `action` is `None` while the slot sits on the free list.
///
/// `rekey_at` marks a deferred event (see [`Sim::schedule_deferred`])
/// still waiting at its key instant: when its heap entry surfaces, the
/// scheduler re-inserts it at `rekey_at` with a freshly drawn seq instead
/// of executing it.
struct Slot {
    gen: u32,
    rekey_at: Option<SimTime>,
    action: Option<Action>,
}

/// A heap entry: plain data, 24 bytes, ordered by `(at, seq)`. The
/// `(slot, gen)` pair locates the action; a generation mismatch marks the
/// entry stale (its event was cancelled).
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl HeapEntry {
    /// `(at, seq)` packed into one word, instant high and seq low: the
    /// same lexicographic order, compared in one go.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.at.as_nanos()) << 64 | u128::from(self.seq)
    }
}

/// Children per heap node. A 4-ary heap is half as deep as a binary one,
/// and a node's four children share one or two cache lines, so a sift
/// touches fewer lines for the same entry count.
const ARITY: usize = 4;

/// A hand-rolled 4-ary min-heap over [`HeapEntry`]s. `std`'s
/// `BinaryHeap` is binary, would need an inverted `Ord` wrapper, and
/// offers neither in-place retain-and-rebuild nor
/// [`EventHeap::replace_top`].
///
/// Sifts move a *hole*: the entry being placed is held aside while the
/// entries it passes shift one level, and it is written once at its final
/// index. Keys `(at, seq)` are unique (every push draws a fresh seq), so
/// the pop order is fully determined by the keys — not by the heap's arity
/// or shape.
#[derive(Default)]
struct EventHeap {
    entries: Vec<HeapEntry>,
}

impl EventHeap {
    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn peek(&self) -> Option<&HeapEntry> {
        self.entries.first()
    }

    #[inline]
    fn push(&mut self, e: HeapEntry) {
        self.entries.push(e);
        self.sift_up(self.entries.len() - 1, e);
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapEntry> {
        let last = self.entries.pop()?;
        if self.entries.is_empty() {
            return Some(last);
        }
        let top = self.entries[0];
        self.sift_down(0, last);
        Some(top)
    }

    /// Replaces the top entry with `e` and returns the old top: one sift
    /// instead of a pop plus a push. The heap must be non-empty.
    #[inline]
    fn replace_top(&mut self, e: HeapEntry) -> HeapEntry {
        let top = self.entries[0];
        self.sift_down(0, e);
        top
    }

    /// Places `e` at or above the hole at `i`.
    #[inline]
    fn sift_up(&mut self, mut i: usize, e: HeapEntry) {
        let key = e.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < self.entries[parent].key() {
                self.entries[i] = self.entries[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.entries[i] = e;
    }

    /// Places `e` at or below the hole at `i`.
    #[inline]
    fn sift_down(&mut self, mut i: usize, e: HeapEntry) {
        let n = self.entries.len();
        let key = e.key();
        loop {
            let first = ARITY * i + 1;
            let (min, min_key) = if first + ARITY <= n {
                self.least_of_four(first)
            } else if first < n {
                // The last parent's partial family.
                let mut min = first;
                let mut min_key = self.entries[first].key();
                for c in first + 1..n {
                    let k = self.entries[c].key();
                    if k < min_key {
                        min = c;
                        min_key = k;
                    }
                }
                (min, min_key)
            } else {
                break;
            };
            if min_key < key {
                self.entries[i] = self.entries[min];
                i = min;
            } else {
                break;
            }
        }
        self.entries[i] = e;
    }

    /// The least of the four children starting at `first`, and its key:
    /// two pairs, then their winners, each picked by a select rather than
    /// a branch (keys are unique, so no tie needs breaking).
    #[inline]
    fn least_of_four(&self, first: usize) -> (usize, u128) {
        let kids = &self.entries[first..first + ARITY];
        let pick = |a: (usize, u128), b: (usize, u128)| if b.1 < a.1 { b } else { a };
        let low = pick((0, kids[0].key()), (1, kids[1].key()));
        let high = pick((2, kids[2].key()), (3, kids[3].key()));
        let (c, k) = pick(low, high);
        (first + c, k)
    }

    /// Drops every entry failing `keep`, then re-heapifies in place.
    fn retain_rebuild(&mut self, keep: impl Fn(&HeapEntry) -> bool) {
        self.entries.retain(|e| keep(e));
        // Classic bottom-up heapify from the last parent: O(n).
        let n = self.entries.len();
        if n > 1 {
            for i in (0..=(n - 2) / ARITY).rev() {
                self.sift_down(i, self.entries[i]);
            }
        }
    }
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```rust
/// use ioat_simcore::{Sim, SimDuration};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let order = Rc::new(RefCell::new(Vec::new()));
///
/// let o = Rc::clone(&order);
/// sim.schedule(SimDuration::from_nanos(10), move |_| o.borrow_mut().push("late"));
/// let o = Rc::clone(&order);
/// sim.schedule(SimDuration::from_nanos(5), move |_| o.borrow_mut().push("early"));
///
/// sim.run();
/// assert_eq!(*order.borrow(), ["early", "late"]);
/// ```
pub struct Sim {
    now: SimTime,
    next_seq: u64,
    heap: EventHeap,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live (scheduled, not fired, not cancelled) events.
    live: usize,
    /// Stale heap entries left behind by cancellations.
    stale: usize,
    executed: u64,
    /// Monotonic count of every event ever scheduled. Unlike `stale`,
    /// never decremented — together with `cancelled` it backs the
    /// queue-health audit `scheduled = fired + cancelled + live`.
    scheduled: u64,
    /// Monotonic count of successful cancellations.
    cancelled: u64,
    /// Hard cap on executed events; guards against accidental infinite
    /// event loops in model code.
    event_limit: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("executed", &self.executed)
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: EventHeap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stale: 0,
            executed: 0,
            scheduled: 0,
            cancelled: 0,
            event_limit: u64::MAX,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events ever scheduled (monotonic).
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Number of events successfully cancelled (monotonic — unlike the
    /// stale-entry count, which drains as tombstones are swept).
    pub fn events_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of *live* events still pending. Cancelled events are
    /// excluded — callers sizing remaining work must not see phantom
    /// entries (they did before the indexed queue, when this counted
    /// cancellation tombstones too).
    pub fn events_pending(&self) -> usize {
        self.live
    }

    /// Number of stale (cancelled) entries still occupying heap slots.
    /// Their actions were already dropped at cancel time; what remains is
    /// a few dozen bytes of ordering data each, bounded by the compaction sweep in
    /// [`Sim::cancel`]. Exposed for regression tests and diagnostics.
    pub fn tombstones(&self) -> usize {
        self.stale
    }

    /// Caps the total number of events this simulator will execute.
    ///
    /// Exceeding the cap makes [`Sim::run`] panic, which turns a silent
    /// infinite event loop in model code into a loud test failure.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Schedules `action` to run `delay` after the current instant.
    pub fn schedule<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `action` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past; models must never schedule
    /// backwards in time.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        assert!(
            at >= self.now,
            "schedule_at: target {at} is before now {}",
            self.now
        );
        self.push_event(at, None, Box::new(action))
    }

    /// Schedules `action` to fire at `fire_at`, ordered among same-instant
    /// ties *as if* an intermediate relay event at the earlier instant
    /// `key_at` had scheduled it.
    ///
    /// This exists for models that can compute a two-stage delay up front
    /// (e.g. a link's serialize-then-propagate wire model): instead of
    /// paying a full relay event at `key_at` — a boxed closure whose only
    /// job is to call `schedule_at(fire_at, action)` — the action is
    /// enqueued once, at `key_at`, and when its entry surfaces at the top
    /// of the heap the scheduler re-inserts it at `fire_at` with a seq
    /// drawn at that moment. The heap-key sequence this produces is
    /// identical to the relay formulation step for step, so execution
    /// order is bit-identical — but no relay closure is allocated, no
    /// relay event executes (it does not count toward
    /// [`Sim::events_executed`] or the event limit), and the slab slot is
    /// reused across both phases, so the returned [`EventId`] stays valid
    /// for [`Sim::cancel`] throughout.
    ///
    /// # Panics
    ///
    /// Panics unless `now <= key_at <= fire_at`.
    pub fn schedule_deferred<F>(&mut self, key_at: SimTime, fire_at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        assert!(
            key_at >= self.now,
            "schedule_deferred: key instant {key_at} is before now {}",
            self.now
        );
        assert!(
            fire_at >= key_at,
            "schedule_deferred: fire instant {fire_at} is before key instant {key_at}"
        );
        self.push_event(key_at, Some(fire_at), Box::new(action))
    }

    fn push_event(&mut self, at: SimTime, rekey_at: Option<SimTime>, action: Action) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.action.is_none(), "free-listed slot holds an action");
                s.action = Some(action);
                s.rekey_at = rekey_at;
                (slot, s.gen)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    rekey_at,
                    action: Some(action),
                });
                (slot, 0)
            }
        };
        self.heap.push(HeapEntry { at, seq, slot, gen });
        self.live += 1;
        self.scheduled += 1;
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (and will now never
    /// fire); `false` if it already executed or was already cancelled.
    /// The action — and everything its closure captured — is dropped
    /// immediately; only a small stale ordering entry stays in the heap
    /// until its instant passes or a compaction sweep removes it. O(1)
    /// amortized.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.action.is_some() => {
                s.action = None;
                s.gen = s.gen.wrapping_add(1);
                self.free.push(id.slot);
                self.live -= 1;
                self.stale += 1;
                self.cancelled += 1;
                self.maybe_compact();
                true
            }
            _ => false,
        }
    }

    /// Sweeps stale entries out of the heap once they pile up.
    ///
    /// `pop_due` drains a stale entry when its time comes, and its boxed
    /// action was already dropped at cancel time — but a heavily
    /// cancel-churning model could still accumulate unbounded small
    /// ordering entries for far-future instants. Amortized O(1): each
    /// sweep is O(heap) but removes at least half the heap's entries.
    fn maybe_compact(&mut self) {
        if self.stale >= COMPACT_MIN_STALE && self.stale * 2 >= self.heap.len() {
            let slots = &self.slots;
            self.heap
                .retain_rebuild(|e| slots[e.slot as usize].gen == e.gen);
            self.stale = 0;
        }
    }

    /// Pops the next live event if its instant satisfies `due`.
    ///
    /// Stale (cancelled) tops are drained on the way, due or not. A due
    /// deferred entry still at its key instant is re-keyed instead of
    /// popped: the top entry is replaced by one at its fire instant with a
    /// freshly drawn seq — the exact seq an executing relay event would
    /// have drawn at this moment — and sunk. Its slab slot, and so its
    /// [`EventId`], is untouched. The fire instant may lie beyond the
    /// window, so the loop looks at the new top again.
    #[inline]
    fn pop_due(&mut self, due: impl Fn(SimTime) -> bool) -> Option<(SimTime, Action)> {
        loop {
            let top = *self.heap.peek()?;
            let slot = &mut self.slots[top.slot as usize];
            if slot.gen != top.gen {
                self.heap.pop();
                self.stale -= 1;
                continue;
            }
            if !due(top.at) {
                return None;
            }
            if let Some(fire_at) = slot.rekey_at.take() {
                debug_assert!(fire_at >= top.at, "deferred fire instant before key");
                let seq = self.next_seq;
                self.next_seq += 1;
                // The new key is larger than the old one (same or later
                // instant, fresher seq), so the entry can only sink.
                self.heap.replace_top(HeapEntry {
                    at: fire_at,
                    seq,
                    ..top
                });
                continue;
            }
            let action = slot.action.take().expect("live heap entry has an action");
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(top.slot);
            self.live -= 1;
            self.heap.pop();
            return Some((top.at, action));
        }
    }

    /// Runs a popped event: advances the clock, counts it against the
    /// event limit, then calls its action.
    fn execute(&mut self, (at, action): (SimTime, Action)) {
        debug_assert!(at >= self.now, "event time went backwards");
        self.now = at;
        self.executed += 1;
        assert!(
            self.executed <= self.event_limit,
            "event limit {} exceeded at t={} — possible event loop",
            self.event_limit,
            self.now
        );
        action(self);
    }

    /// Runs until the event queue drains. Returns the final instant.
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded (see
    /// [`Sim::set_event_limit`]).
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the next event would fire after
    /// `limit`. Events at exactly `limit` do execute; the clock never
    /// advances past `limit` while events remain beyond it.
    ///
    /// When the run stops inside the window — because the queue drained or
    /// only later events remain — the clock still advances to `limit`
    /// (unless `limit` is [`SimTime::MAX`], i.e. "run to completion"), so
    /// elapsed-window accounting is identical whether or not the model had
    /// events near the edge. Callers measuring rates over
    /// `run_until(a)..run_until(b)` windows rely on this.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        while let Some(event) = self.pop_due(|at| at <= limit) {
            self.execute(event);
        }
        // Advance to the window edge on every stop path (drained queue
        // included); only the run-to-completion sentinel is excluded.
        if limit != SimTime::MAX {
            self.now = self.now.max(limit);
        }
        self.now
    }

    /// Runs every event strictly before `limit` — events at exactly
    /// `limit` stay queued — then advances the clock to `limit`.
    ///
    /// This is the window-execution primitive for conservative parallel
    /// simulation: a partition granted the window `[now, limit)` may
    /// execute everything before the window edge, while events *at* the
    /// edge must wait for cross-partition deliveries that can legally
    /// fire at that same instant (the lookahead bound guarantees nothing
    /// earlier can arrive). Contrast [`Sim::run_until`], whose window is
    /// inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded (see
    /// [`Sim::set_event_limit`]).
    pub fn run_before(&mut self, limit: SimTime) -> SimTime {
        while let Some(event) = self.pop_due(|at| at < limit) {
            self.execute(event);
        }
        self.now = self.now.max(limit);
        self.now
    }

    /// The instant of the next pending event, or `None` if the queue is
    /// drained.
    ///
    /// For a deferred entry still at its key instant (see
    /// [`Sim::schedule_deferred`]) this reports the *key* instant — a
    /// conservative lower bound on when the event can fire. Conservative
    /// window computations built on this value produce windows that are
    /// never too large (only, occasionally, smaller than necessary).
    ///
    /// Takes `&mut self` because stale (cancelled) heap tops are drained
    /// on the way — a plain peek could report a cancelled event's instant
    /// — but the model state is untouched.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            if self.slots[top.slot as usize].gen == top.gen {
                return Some(top.at);
            }
            self.heap.pop();
            self.stale -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn recorder() -> (
        Rc<RefCell<Vec<u64>>>,
        impl Fn(u64) -> Box<dyn FnOnce(&mut Sim)>,
    ) {
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        let mk = move |tag: u64| -> Box<dyn FnOnce(&mut Sim)> {
            let log = Rc::clone(&log2);
            Box::new(move |_s: &mut Sim| log.borrow_mut().push(tag))
        };
        (log, mk)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimDuration::from_nanos(30), mk(3));
        sim.schedule(SimDuration::from_nanos(10), mk(1));
        sim.schedule(SimDuration::from_nanos(20), mk(2));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        for tag in 0..100 {
            sim.schedule(SimDuration::from_nanos(5), mk(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_inside_events() {
        let mut sim = Sim::new();
        let count = Rc::new(RefCell::new(0u32));
        let c = Rc::clone(&count);
        fn tick(sim: &mut Sim, c: Rc<RefCell<u32>>, left: u32) {
            *c.borrow_mut() += 1;
            if left > 0 {
                let c2 = Rc::clone(&c);
                sim.schedule(SimDuration::from_nanos(7), move |s| tick(s, c2, left - 1));
            }
        }
        sim.schedule(SimDuration::ZERO, move |s| tick(s, c, 9));
        sim.run();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.now(), SimTime::from_nanos(63));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let keep = sim.schedule(SimDuration::from_nanos(1), mk(1));
        let drop_id = sim.schedule(SimDuration::from_nanos(2), mk(2));
        assert!(sim.cancel(drop_id));
        assert!(!sim.cancel(drop_id), "double-cancel reports false");
        sim.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert!(!sim.cancel(keep), "cancelling an executed event is false");
    }

    #[test]
    fn scheduled_and_cancelled_counters_are_monotonic_and_balance() {
        // The queue-health identity the ioat-guard audit checks:
        // scheduled = fired + cancelled + live, at any quiescent point.
        // `stale` cannot back this audit — it drains as tombstones sweep.
        let mut sim = Sim::new();
        let (_log, mk) = recorder();
        let balance = |sim: &Sim| {
            assert_eq!(
                sim.events_scheduled(),
                sim.events_executed() + sim.events_cancelled() + sim.events_pending() as u64
            );
        };
        balance(&sim);
        let ids: Vec<_> = (0..10)
            .map(|i| sim.schedule(SimDuration::from_nanos(10 + i), mk(i)))
            .collect();
        assert_eq!(sim.events_scheduled(), 10);
        balance(&sim);
        for id in &ids[..4] {
            assert!(sim.cancel(*id));
        }
        assert!(!sim.cancel(ids[0]), "double cancel does not re-count");
        assert_eq!(sim.events_cancelled(), 4);
        balance(&sim);
        sim.run();
        assert_eq!(sim.events_executed(), 6);
        assert_eq!(sim.events_scheduled(), 10, "monotonic across the run");
        balance(&sim);
    }

    #[test]
    fn events_pending_counts_live_events_only() {
        // Regression: events_pending() used to include cancelled
        // tombstones, so callers saw phantom work.
        let mut sim = Sim::new();
        let (_log, mk) = recorder();
        let _keep = sim.schedule(SimDuration::from_nanos(1), mk(1));
        let a = sim.schedule(SimDuration::from_nanos(2), mk(2));
        let b = sim.schedule(SimDuration::from_nanos(3), mk(3));
        assert_eq!(sim.events_pending(), 3);
        assert!(sim.cancel(a));
        assert!(sim.cancel(b));
        assert_eq!(sim.events_pending(), 1, "cancelled events are not pending");
        assert_eq!(sim.tombstones(), 2, "stale entries tracked separately");
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(sim.tombstones(), 0, "stale entries drain with the run");
    }

    #[test]
    fn stale_handles_are_inert_after_slot_reuse() {
        // Generation tagging: a handle kept past its event's lifetime must
        // not cancel the unrelated event that recycled the slot.
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let old = sim.schedule(SimDuration::from_nanos(1), mk(1));
        assert!(sim.cancel(old), "first cancel succeeds");
        // The slot is recycled by the next schedule.
        let fresh = sim.schedule(SimDuration::from_nanos(2), mk(2));
        assert!(!sim.cancel(old), "stale handle must not hit the new event");
        sim.run();
        assert_eq!(*log.borrow(), vec![2], "recycled event still fires");
        assert!(!sim.cancel(fresh), "fired event cannot be cancelled");
    }

    #[test]
    fn run_until_stops_at_window_edge() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimDuration::from_nanos(10), mk(1));
        sim.schedule(SimDuration::from_nanos(20), mk(2));
        sim.schedule(SimDuration::from_nanos(30), mk(3));
        sim.run_until(SimTime::from_nanos(20));
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule(SimDuration::from_nanos(10), |s| {
            s.schedule_at(SimTime::from_nanos(5), |_| {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaway_loops() {
        let mut sim = Sim::new();
        sim.set_event_limit(1_000);
        fn forever(sim: &mut Sim) {
            sim.schedule(SimDuration::from_nanos(1), forever);
        }
        sim.schedule(SimDuration::ZERO, forever);
        sim.run();
    }

    #[test]
    fn cancel_heavy_runs_stay_bounded() {
        // Regression: cancelled far-future events used to keep their boxed
        // closure until their scheduled instant, so a schedule/cancel/run
        // loop grew without bound. With the indexed queue the action drops
        // at cancel time and the compaction sweep bounds the small stale
        // ordering entries.
        let mut sim = Sim::new();
        let cycles = 20 * COMPACT_MIN_STALE;
        for i in 0..cycles {
            // A far-future event that is always cancelled...
            let id = sim.schedule(SimDuration::from_secs(3600), |_| {
                panic!("cancelled event must never fire")
            });
            assert!(sim.cancel(id));
            // ...and a near event that actually runs.
            sim.schedule(SimDuration::from_nanos(1), |_| {});
            sim.run_until(sim.now() + SimDuration::from_nanos(1));
            assert!(
                sim.events_pending() <= 1,
                "live count grew to {} after {} cycles",
                sim.events_pending(),
                i + 1
            );
            let bound = 2 * COMPACT_MIN_STALE + 2;
            assert!(
                sim.tombstones() <= bound,
                "stale entries grew to {} after {} cycles",
                sim.tombstones(),
                i + 1
            );
        }
        assert_eq!(sim.events_executed(), cycles as u64);
        // Draining the queue afterwards must not fire any cancelled event.
        sim.run();
    }

    #[test]
    fn compaction_preserves_live_events() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        // One live event wedged between many cancelled ones, forcing a
        // sweep while it is in the heap.
        sim.schedule(SimDuration::from_nanos(50), mk(42));
        for _ in 0..4 * COMPACT_MIN_STALE {
            let id = sim.schedule(SimDuration::from_secs(10), mk(0));
            sim.cancel(id);
        }
        assert!(sim.tombstones() < 4 * COMPACT_MIN_STALE);
        sim.run();
        assert_eq!(*log.borrow(), vec![42]);
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        // Regression: with an empty (or drained) queue `run_until(limit)`
        // left `now` behind `limit`, so elapsed-window accounting differed
        // between "no events" and "events beyond the edge" stop paths.
        let mut sim = Sim::new();
        assert_eq!(
            sim.run_until(SimTime::from_nanos(100)),
            SimTime::from_nanos(100),
            "empty queue still advances to the window edge"
        );
        let (log, mk) = recorder();
        sim.schedule(SimDuration::from_nanos(50), mk(1));
        assert_eq!(
            sim.run_until(SimTime::from_nanos(400)),
            SimTime::from_nanos(400),
            "drained queue advances past the last event to the edge"
        );
        assert_eq!(*log.borrow(), vec![1]);
        // The run-to-completion sentinel is excluded: `run()` must report
        // the last event's instant, not SimTime::MAX.
        sim.schedule(SimDuration::from_nanos(7), mk(2));
        assert_eq!(sim.run(), SimTime::from_nanos(407));
    }

    #[test]
    fn run_until_advances_clock_when_future_events_remain() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimDuration::from_nanos(500), mk(9));
        assert_eq!(
            sim.run_until(SimTime::from_nanos(200)),
            SimTime::from_nanos(200)
        );
        assert!(log.borrow().is_empty());
        sim.run();
        assert_eq!(*log.borrow(), vec![9]);
    }

    #[test]
    fn run_until_ignores_cancelled_events_at_heap_top() {
        // A cancelled event inside the window must not let a live event
        // beyond the window execute: peeking has to skip stale entries.
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let id = sim.schedule(SimDuration::from_nanos(5), mk(1));
        sim.schedule(SimDuration::from_nanos(50), mk(2));
        sim.cancel(id);
        sim.run_until(SimTime::from_nanos(10));
        assert!(
            log.borrow().is_empty(),
            "the live event at t=50 must not run inside a t<=10 window"
        );
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn deferred_events_tie_break_at_their_key_instant() {
        // schedule_deferred(key_at, fire_at, ..) must order among
        // same-instant ties exactly as if a relay event at key_at had
        // scheduled it: after events drawn before key_at, before events
        // drawn after key_at.
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        // Drawn at t=0 for t=20: before the deferred (draw time 0 < 10).
        sim.schedule(SimDuration::from_nanos(20), mk(1));
        // Deferred: fires at 20, keyed at 10.
        sim.schedule_deferred(SimTime::from_nanos(10), SimTime::from_nanos(20), mk(3));
        // Drawn at t=5 for t=20: still before the deferred (5 < 10).
        let b = mk(2);
        sim.schedule(SimDuration::from_nanos(5), move |s| {
            s.schedule(SimDuration::from_nanos(15), b);
        });
        // Drawn at t=15 for t=20: after the deferred (15 > 10).
        let d = mk(4);
        sim.schedule(SimDuration::from_nanos(15), move |s| {
            s.schedule(SimDuration::from_nanos(5), d);
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn deferred_events_order_by_relay_seq_among_same_key_instant() {
        // Ties at the same key instant resolve by the executing order the
        // phantom relay events would have had: the deferred's own seq
        // against the seqs of events executing at key_at.
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        // e1 (seq 0) executes at t=10 and draws for t=30.
        let a = mk(1);
        sim.schedule(SimDuration::from_nanos(10), move |s| {
            s.schedule(SimDuration::from_nanos(20), a);
        });
        // Deferred (seq 1): relay would execute at t=10 between e1 and e2.
        sim.schedule_deferred(SimTime::from_nanos(10), SimTime::from_nanos(30), mk(2));
        // e2 (seq 2) executes at t=10 and draws for t=30.
        let c = mk(3);
        sim.schedule(SimDuration::from_nanos(10), move |s| {
            s.schedule(SimDuration::from_nanos(20), c);
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn deferred_matches_relay_event_formulation() {
        // Differential check: schedule_deferred(k, f, a) behaves exactly
        // like schedule_at(k, |s| s.schedule_at(f, a)) — same execution
        // order against a same-instant competitor — minus the relay event
        // (events_executed differs by exactly one).
        let run = |deferred: bool| -> (Vec<u64>, u64) {
            let mut sim = Sim::new();
            let (log, mk) = recorder();
            let competitor = mk(7);
            sim.schedule(SimDuration::from_nanos(12), move |s| {
                s.schedule(SimDuration::from_nanos(8), competitor);
            });
            let payload = mk(9);
            if deferred {
                sim.schedule_deferred(SimTime::from_nanos(10), SimTime::from_nanos(20), payload);
            } else {
                sim.schedule_at(SimTime::from_nanos(10), move |s| {
                    s.schedule_at(SimTime::from_nanos(20), payload);
                });
            }
            sim.run();
            let order = log.borrow().clone();
            (order, sim.events_executed())
        };
        let (with_relay, relay_events) = run(false);
        let (with_deferred, deferred_events) = run(true);
        assert_eq!(with_relay, with_deferred);
        assert_eq!(with_relay, vec![9, 7], "keyed at 10 beats drawn-at-12");
        assert_eq!(relay_events, deferred_events + 1, "one event saved");
    }

    #[test]
    #[should_panic(expected = "fire instant")]
    fn deferred_fire_before_key_panics() {
        let mut sim = Sim::new();
        sim.schedule_deferred(SimTime::from_nanos(10), SimTime::from_nanos(5), |_| {});
    }

    #[test]
    fn heap_pops_in_key_order_through_replace_top_and_rebuild() {
        // Every size from empty to a few full 4-ary levels, with heavy
        // instant ties: pops come out in (at, seq) order after pushes,
        // replace_top sinks, and a retain-and-rebuild. The order is
        // checked on the fields, not on the packed key, at small
        // instants and seqs and again at instants near `u64::MAX` with
        // seqs past 2^32, where a key packing that lets the seq overlap
        // the instant would misorder them.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (base_at, base_seq) in [(0, 0), (u64::MAX - 15, 3 << 32)] {
            for n in 0..90u64 {
                let mut heap = EventHeap::default();
                let mut seq = base_seq;
                let mut entry = |at: u64| {
                    seq += 1;
                    HeapEntry {
                        at: SimTime::from_nanos(at),
                        seq,
                        slot: seq as u32,
                        gen: 0,
                    }
                };
                for _ in 0..n {
                    heap.push(entry(base_at + next() % 8));
                }
                for _ in 0..n / 2 {
                    let top = *heap.peek().expect("non-empty");
                    let later = entry(top.at.as_nanos() + next() % 8);
                    assert_eq!(heap.replace_top(later).key(), top.key());
                }
                heap.retain_rebuild(|e| e.slot % 3 != 0);
                let mut popped = Vec::new();
                while let Some(e) = heap.pop() {
                    popped.push((e.at, e.seq));
                }
                assert!(popped.windows(2).all(|w| w[0] < w[1]), "n = {n}");
                assert_eq!(heap.len(), 0);
            }
        }
    }
}
