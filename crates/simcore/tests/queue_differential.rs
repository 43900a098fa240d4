//! Differential property test for the indexed event queue.
//!
//! The scheduler was rebuilt from `BinaryHeap + pending/cancelled HashSet`
//! tombstoning to a slab-backed indexed priority queue with
//! generation-tagged handles. The determinism contract — events execute in
//! exact `(time, seq)` order, FIFO on ties — must survive the swap. This
//! test drives the real [`Sim`] and a straightforward reference
//! implementation of the *old* design (a `BinaryHeap` ordered by
//! `(time, seq)` plus a cancelled-seq set) through identical seeded
//! operation scripts — schedules with colliding instants, nested
//! scheduling from inside events, interleaved cancels, windowed runs
//! (both the inclusive [`Sim::run_until`] and the exclusive-edge
//! [`Sim::run_before`] used by the conservative parallel engine) — and
//! asserts identical execution order, cancel outcomes, clocks, pending
//! counts, and [`Sim::next_event_at`] lower bounds at every step.
//! [`Sim::schedule_deferred`] is checked against what it stands in for:
//! the reference schedules a relay event at the key instant that, when it
//! runs, schedules the payload at the fire instant (the relay logs
//! nothing and its handle follows the payload). All randomness comes from
//! a fixed-seed xorshift generator: no host entropy, bit-reproducible
//! across runs and machines.

use ioat_simcore::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

/// xorshift64* — tiny, seedable, no host entropy.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Reference model of the pre-rewrite scheduler: a min-`BinaryHeap` of
/// `(at, seq)`-ordered entries plus a cancelled-seq tombstone set, exactly
/// the old design minus the compaction plumbing (which never affected
/// execution order, only memory).
struct RefEngine {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    cancelled: HashSet<u64>,
    events: Vec<RefEvent>,
    /// Registration-order handle list, mirroring the real run's handle
    /// list index-for-index.
    handles: Vec<usize>,
    log: Vec<u64>,
}

struct RefEvent {
    seq: u64,
    tag: u64,
    /// `(delta_ns, child_tag)`: on firing, schedule a child.
    child: Option<(u64, u64)>,
    /// `(fire_at, handle_idx)` for the relay of a deferred event: on
    /// firing, log nothing and schedule the payload (`tag`) at `fire_at`,
    /// moving the handle over to it.
    relay: Option<(u64, usize)>,
    fired: bool,
    cancelled: bool,
}

impl RefEngine {
    fn new() -> Self {
        RefEngine {
            now: 0,
            next_seq: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            events: Vec::new(),
            handles: Vec::new(),
            log: Vec::new(),
        }
    }

    fn schedule(&mut self, delay: u64, tag: u64, child: Option<(u64, u64)>) {
        let idx = self.push(self.now + delay, tag, child, None);
        self.handles.push(idx);
    }

    /// The relay formulation of `schedule_deferred(key_at, fire_at, ..)`.
    fn schedule_deferred(&mut self, key_at: u64, fire_at: u64, tag: u64) {
        let handle_idx = self.handles.len();
        let idx = self.push(key_at, tag, None, Some((fire_at, handle_idx)));
        self.handles.push(idx);
    }

    fn push(
        &mut self,
        at: u64,
        tag: u64,
        child: Option<(u64, u64)>,
        relay: Option<(u64, usize)>,
    ) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.events.len();
        self.events.push(RefEvent {
            seq,
            tag,
            child,
            relay,
            fired: false,
            cancelled: false,
        });
        self.heap.push(Reverse((at, seq, idx)));
        idx
    }

    fn cancel(&mut self, handle_idx: usize) -> bool {
        let idx = self.handles[handle_idx];
        let ev = &mut self.events[idx];
        if ev.fired || ev.cancelled {
            return false;
        }
        ev.cancelled = true;
        self.cancelled.insert(ev.seq);
        true
    }

    fn pending(&self) -> usize {
        self.events
            .iter()
            .filter(|e| !e.fired && !e.cancelled)
            .count()
    }

    /// The instant of the next live event, draining stale (cancelled)
    /// heap tops on the way — the reference for [`Sim::next_event_at`].
    fn next_event_at(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, seq, _))) = self.heap.peek() {
            if self.cancelled.contains(&seq) {
                self.heap.pop();
                continue;
            }
            return Some(at);
        }
        None
    }

    /// Fires events while `at <= limit` (`inclusive`) or `at < limit`
    /// (the [`Sim::run_before`] window-execution contract: events at
    /// exactly the window edge stay queued), then advances the clock to
    /// the edge either way.
    fn run_window(&mut self, limit: u64, inclusive: bool) {
        while let Some(&Reverse((at, seq, idx))) = self.heap.peek() {
            if self.cancelled.contains(&seq) {
                self.heap.pop();
                continue;
            }
            if at > limit || (!inclusive && at == limit) {
                break;
            }
            self.heap.pop();
            self.now = at;
            self.events[idx].fired = true;
            let tag = self.events[idx].tag;
            if let Some((fire_at, handle_idx)) = self.events[idx].relay {
                self.handles[handle_idx] = self.push(fire_at, tag, None, None);
                continue;
            }
            self.log.push(tag);
            if let Some((delta, child_tag)) = self.events[idx].child {
                self.schedule(delta, child_tag, None);
            }
        }
        // Mirrors both runners advancing to the window edge.
        self.now = self.now.max(limit);
    }

    fn run_until(&mut self, limit: u64) {
        self.run_window(limit, true);
    }

    fn run_before(&mut self, limit: u64) {
        self.run_window(limit, false);
    }
}

/// Schedules an event on the real [`Sim`] that logs `tag` and, when
/// `child` is set, schedules a logging child and registers its handle —
/// in the same order the reference registers its child.
fn schedule_real(
    sim: &mut Sim,
    delay: u64,
    tag: u64,
    child: Option<(u64, u64)>,
    log: &Rc<RefCell<Vec<u64>>>,
    handles: &Rc<RefCell<Vec<ioat_simcore::EventId>>>,
) {
    let log2 = Rc::clone(log);
    let handles2 = Rc::clone(handles);
    let id = sim.schedule(SimDuration::from_nanos(delay), move |s| {
        log2.borrow_mut().push(tag);
        if let Some((delta, child_tag)) = child {
            let log3 = Rc::clone(&log2);
            let cid = s.schedule(SimDuration::from_nanos(delta), move |_| {
                log3.borrow_mut().push(child_tag);
            });
            handles2.borrow_mut().push(cid);
        }
    });
    handles.borrow_mut().push(id);
}

/// Schedules a deferred event on the real [`Sim`] that logs `tag` at
/// `fire_at`, ordered as if relayed at `key_at`.
fn schedule_deferred_real(
    sim: &mut Sim,
    key_at: u64,
    fire_at: u64,
    tag: u64,
    log: &Rc<RefCell<Vec<u64>>>,
    handles: &Rc<RefCell<Vec<ioat_simcore::EventId>>>,
) {
    let log2 = Rc::clone(log);
    let id = sim.schedule_deferred(
        SimTime::from_nanos(key_at),
        SimTime::from_nanos(fire_at),
        move |_| log2.borrow_mut().push(tag),
    );
    handles.borrow_mut().push(id);
}

/// One scripted round: apply `ops` random operations to both engines,
/// checking agreement after every step. With `deferred`, a seventh of the
/// operations are [`Sim::schedule_deferred`] calls.
fn run_script(seed: u64, ops: usize, deferred: bool) {
    let mut rng = XorShift::new(seed);
    let mut reference = RefEngine::new();
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let handles: Rc<RefCell<Vec<ioat_simcore::EventId>>> = Rc::new(RefCell::new(Vec::new()));
    let mut next_tag = 0u64;

    for step in 0..ops {
        match rng.below(if deferred { 14 } else { 12 }) {
            // 0..=5: schedule. Tiny delay range (0..16 ns) forces heavy
            // (time) collisions so the FIFO seq tie-break is exercised;
            // a quarter of events schedule a nested child on firing.
            0..=5 => {
                let delay = rng.below(16);
                let tag = next_tag;
                next_tag += 1;
                let child = if rng.below(4) == 0 {
                    let c = (rng.below(8), next_tag);
                    next_tag += 1;
                    Some(c)
                } else {
                    None
                };
                reference.schedule(delay, tag, child);
                schedule_real(&mut sim, delay, tag, child, &log, &handles);
            }
            // 6..=7: cancel a random previously issued handle (possibly
            // already fired or already cancelled — outcomes must agree).
            6..=7 => {
                let n = handles.borrow().len();
                if n > 0 {
                    let i = rng.below(n as u64) as usize;
                    let id = handles.borrow()[i];
                    let want = reference.cancel(i);
                    let got = sim.cancel(id);
                    assert_eq!(got, want, "seed {seed} step {step}: cancel({i}) outcome");
                }
            }
            // 8..=9: run a short inclusive window.
            8..=9 => {
                let window = rng.below(24);
                let limit = reference.now + window;
                reference.run_until(limit);
                sim.run_until(SimTime::from_nanos(limit));
                assert_eq!(
                    sim.now(),
                    SimTime::from_nanos(reference.now),
                    "seed {seed} step {step}: clock"
                );
            }
            // 12..=13: schedule deferred. Key and fire offsets of 0..16 ns
            // collide with plain events at both instants, and
            // `key_at == fire_at` re-keys at the same instant.
            12..=13 => {
                let key_at = reference.now + rng.below(16);
                let fire_at = key_at + rng.below(16);
                let tag = next_tag;
                next_tag += 1;
                reference.schedule_deferred(key_at, fire_at, tag);
                schedule_deferred_real(&mut sim, key_at, fire_at, tag, &log, &handles);
            }
            // 10..=11: run a short exclusive-edge window, the
            // conservative parallel engine's execution primitive.
            // Small windows over 0..16 ns delays make edge collisions
            // (an event at exactly `limit`) common, which is the whole
            // point: those events must stay queued.
            _ => {
                let window = rng.below(24);
                let limit = reference.now + window;
                reference.run_before(limit);
                sim.run_before(SimTime::from_nanos(limit));
                assert_eq!(
                    sim.now(),
                    SimTime::from_nanos(reference.now),
                    "seed {seed} step {step}: clock after run_before"
                );
            }
        }
        // The conservative window computation is built on this lower
        // bound, so it must agree with the reference after every op.
        assert_eq!(
            sim.next_event_at().map(|t| t.as_nanos()),
            reference.next_event_at(),
            "seed {seed} step {step}: next_event_at"
        );
        assert_eq!(
            sim.events_pending(),
            reference.pending(),
            "seed {seed} step {step}: pending count"
        );
        if *log.borrow() != reference.log {
            let l = log.borrow();
            let n = l.len().min(reference.log.len());
            let mut i = 0;
            while i < n && l[i] == reference.log[i] {
                i += 1;
            }
            panic!(
                "seed {seed} step {step}: diverge at {i}: real {:?} ref {:?}",
                &l[i.saturating_sub(3)..(i + 5).min(l.len())],
                &reference.log[i.saturating_sub(3)..(i + 5).min(reference.log.len())]
            );
        }
    }

    // Drain both completely and compare the full history.
    let final_limit = reference.now + 1_000;
    reference.run_until(final_limit);
    sim.run_until(SimTime::from_nanos(final_limit));
    assert_eq!(*log.borrow(), reference.log, "seed {seed}: final order");
    assert_eq!(sim.events_pending(), reference.pending(), "seed {seed}");
    assert_eq!(
        sim.events_executed(),
        reference.log.len() as u64,
        "seed {seed}: executed count matches logged events"
    );
}

#[test]
fn indexed_queue_matches_binary_heap_reference() {
    // A spread of fixed seeds; each script is a few hundred operations.
    for seed in [1, 2, 3, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        run_script(seed, 400, false);
    }
}

#[test]
fn deferred_events_match_relay_reference() {
    // The same scripts with `schedule_deferred` mixed in: the real queue
    // re-keys each deferred entry in place when it surfaces, the reference
    // runs a relay event. Order, clocks, cancel outcomes (before and
    // after the re-key), pending counts and next_event_at must agree.
    for seed in [4, 5, 6, 0xFEED_F00D, 0x0BAD_CAFE] {
        run_script(seed, 600, true);
    }
}

#[test]
fn compaction_with_deferred_entries_queued_matches_reference() {
    // A cancel storm forces compaction sweeps while deferred entries sit
    // in the heap, some still at their key instant, some already re-keyed
    // to their fire instant. The sweep rebuilds the heap; the re-keyed
    // and still-waiting entries must keep their places in the order.
    for seed in [31, 32, 33] {
        let mut rng = XorShift::new(seed);
        let mut reference = RefEngine::new();
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let handles: Rc<RefCell<Vec<ioat_simcore::EventId>>> = Rc::new(RefCell::new(Vec::new()));
        let mut next_tag = 0u64;
        let mut deferreds = Vec::new();
        for round in 0..3 {
            // Deferred entries keyed over the next 64 ns, fired up to
            // 256 ns later, beside plain events at the same instants.
            for _ in 0..200 {
                let key_at = reference.now + rng.below(64);
                let fire_at = key_at + rng.below(256);
                deferreds.push(handles.borrow().len());
                reference.schedule_deferred(key_at, fire_at, next_tag);
                schedule_deferred_real(&mut sim, key_at, fire_at, next_tag, &log, &handles);
                next_tag += 1;
                let delay = rng.below(320);
                reference.schedule(delay, next_tag, None);
                schedule_real(&mut sim, delay, next_tag, None, &log, &handles);
                next_tag += 1;
            }
            // Re-key about half of them: every key instant before the
            // window edge has surfaced.
            let limit = reference.now + 32;
            reference.run_until(limit);
            sim.run_until(SimTime::from_nanos(limit));
            // Cancel a few deferred handles in either phase.
            for _ in 0..20 {
                let i = deferreds[rng.below(deferreds.len() as u64) as usize];
                let id = handles.borrow()[i];
                assert_eq!(
                    sim.cancel(id),
                    reference.cancel(i),
                    "seed {seed} round {round}: cancel deferred {i}"
                );
            }
            // The storm: far-future events, each cancelled at once, well
            // past the compaction floor and half the heap.
            let before = sim.tombstones();
            for _ in 0..5_000 {
                let delay = 1_000_000 + rng.below(1_000);
                reference.schedule(delay, next_tag, None);
                schedule_real(&mut sim, delay, next_tag, None, &log, &handles);
                next_tag += 1;
                let i = handles.borrow().len() - 1;
                let id = handles.borrow()[i];
                assert!(sim.cancel(id));
                assert!(reference.cancel(i));
            }
            assert!(
                sim.tombstones() < before + 5_000,
                "seed {seed} round {round}: no compaction ran ({} tombstones)",
                sim.tombstones()
            );
            assert_eq!(
                sim.next_event_at().map(|t| t.as_nanos()),
                reference.next_event_at(),
                "seed {seed} round {round}: next_event_at after compaction"
            );
            assert_eq!(sim.events_pending(), reference.pending());
            let limit = reference.now + 128;
            reference.run_before(limit);
            sim.run_before(SimTime::from_nanos(limit));
            assert_eq!(*log.borrow(), reference.log, "seed {seed} round {round}");
        }
        let limit = reference.now + 2_000_000;
        reference.run_until(limit);
        sim.run_until(SimTime::from_nanos(limit));
        assert_eq!(*log.borrow(), reference.log, "seed {seed}: final order");
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(reference.pending(), 0);
        assert_eq!(sim.events_executed(), reference.log.len() as u64);
    }
}

#[test]
fn indexed_queue_matches_reference_under_cancel_storms() {
    // Cancel-heavy mix: schedule then immediately cancel most events, so
    // the real queue churns slots/generations while the reference churns
    // tombstones. Order of the survivors must still agree.
    for seed in [7, 11, 13] {
        let mut rng = XorShift::new(seed);
        let mut reference = RefEngine::new();
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let handles: Rc<RefCell<Vec<ioat_simcore::EventId>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..2_000u64 {
            let delay = rng.below(32);
            reference.schedule(delay, tag, None);
            schedule_real(&mut sim, delay, tag, None, &log, &handles);
            // Cancel ~15/16ths of everything scheduled so far.
            if rng.below(16) != 0 {
                let i = rng.below(handles.borrow().len() as u64) as usize;
                let id = handles.borrow()[i];
                assert_eq!(sim.cancel(id), reference.cancel(i), "seed {seed} tag {tag}");
            }
            if rng.below(8) == 0 {
                let limit = reference.now + rng.below(16);
                reference.run_until(limit);
                sim.run_until(SimTime::from_nanos(limit));
            }
        }
        let limit = reference.now + 1_000;
        reference.run_until(limit);
        sim.run_until(SimTime::from_nanos(limit));
        assert_eq!(*log.borrow(), reference.log, "seed {seed}: survivor order");
        assert_eq!(sim.events_pending(), 0);
    }
}

#[test]
fn run_before_leaves_window_edge_events_queued() {
    // The exclusive-edge contract, pinned deterministically (no script):
    // events at exactly the window edge must survive a `run_before` and
    // then fire — in seq order — under the inclusive `run_until`. Both
    // engines are checked against each other at every stage.
    let mut reference = RefEngine::new();
    let mut sim = Sim::new();
    let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let handles: Rc<RefCell<Vec<ioat_simcore::EventId>>> = Rc::new(RefCell::new(Vec::new()));
    for (delay, tag) in [(5u64, 0u64), (10, 1), (10, 2), (15, 3)] {
        reference.schedule(delay, tag, None);
        schedule_real(&mut sim, delay, tag, None, &log, &handles);
    }

    reference.run_before(10);
    sim.run_before(SimTime::from_nanos(10));
    assert_eq!(*log.borrow(), vec![0], "only the t=5 event fired");
    assert_eq!(*log.borrow(), reference.log);
    assert_eq!(sim.now(), SimTime::from_nanos(10), "clock is at the edge");
    assert_eq!(
        sim.next_event_at().map(|t| t.as_nanos()),
        Some(10),
        "edge events are still queued"
    );
    assert_eq!(reference.next_event_at(), Some(10));
    assert_eq!(sim.events_pending(), reference.pending());
    assert_eq!(sim.events_pending(), 3);

    // A second run_before at the same edge is a no-op.
    reference.run_before(10);
    sim.run_before(SimTime::from_nanos(10));
    assert_eq!(*log.borrow(), vec![0]);
    assert_eq!(*log.borrow(), reference.log);

    // The inclusive window executes both edge events, FIFO on the tie.
    reference.run_until(10);
    sim.run_until(SimTime::from_nanos(10));
    assert_eq!(*log.borrow(), vec![0, 1, 2], "seq order on the t=10 tie");
    assert_eq!(*log.borrow(), reference.log);
    assert_eq!(sim.next_event_at().map(|t| t.as_nanos()), Some(15));

    // Cancelling the last event makes next_event_at drain to None in
    // both engines.
    let id = handles.borrow()[3];
    assert!(sim.cancel(id));
    assert!(reference.cancel(3));
    assert_eq!(sim.next_event_at(), None);
    assert_eq!(reference.next_event_at(), None);
    reference.run_before(20);
    sim.run_before(SimTime::from_nanos(20));
    assert_eq!(*log.borrow(), vec![0, 1, 2], "cancelled event never fires");
    assert_eq!(*log.borrow(), reference.log);
    assert_eq!(sim.now(), SimTime::from_nanos(20));
}

#[test]
fn coalescer_preempt_pattern_matches_reference() {
    // The rx-coalescer preempt pattern from `ioat-netsim` (the PR 9
    // tail-flush fix): a timer is armed, a full batch preempts it —
    // cancel the armed handle, schedule an immediate (delay-0) flush at
    // the *current* instant, then re-arm a fresh timer at the same
    // relative delay. Cancel and re-schedule collide on the same
    // timestamps constantly; both engines must agree on cancel
    // outcomes, FIFO order of the same-instant survivors, and clocks.
    for seed in [21, 42, 0xC0A1] {
        let mut rng = XorShift::new(seed);
        let mut reference = RefEngine::new();
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let handles: Rc<RefCell<Vec<ioat_simcore::EventId>>> = Rc::new(RefCell::new(Vec::new()));
        let mut next_tag = 0u64;
        // Index (into the shared handle list) of the armed timer, if any.
        let mut armed: Option<usize> = None;

        for step in 0..600 {
            match rng.below(8) {
                // Arm: one pending timer at a tiny delay.
                0..=2 => {
                    if armed.is_none() {
                        let delay = rng.below(8);
                        reference.schedule(delay, next_tag, None);
                        schedule_real(&mut sim, delay, next_tag, None, &log, &handles);
                        next_tag += 1;
                        armed = Some(handles.borrow().len() - 1);
                    }
                }
                // Preempt: cancel the timer, flush now (delay 0), re-arm
                // at the same relative delay — three operations at one
                // instant, the RaiseNow path of the coalescer.
                3..=5 => {
                    if let Some(i) = armed.take() {
                        let id = handles.borrow()[i];
                        let want = reference.cancel(i);
                        let got = sim.cancel(id);
                        assert_eq!(got, want, "seed {seed} step {step}: preempt cancel");
                        reference.schedule(0, next_tag, None);
                        schedule_real(&mut sim, 0, next_tag, None, &log, &handles);
                        next_tag += 1;
                        let delay = rng.below(8);
                        reference.schedule(delay, next_tag, None);
                        schedule_real(&mut sim, delay, next_tag, None, &log, &handles);
                        next_tag += 1;
                        armed = Some(handles.borrow().len() - 1);
                    }
                }
                // Advance: short inclusive or exclusive-edge windows; a
                // fired timer is no longer armed.
                _ => {
                    let window = rng.below(12);
                    let limit = reference.now + window;
                    if rng.below(2) == 0 {
                        reference.run_until(limit);
                        sim.run_until(SimTime::from_nanos(limit));
                    } else {
                        reference.run_before(limit);
                        sim.run_before(SimTime::from_nanos(limit));
                    }
                    if let Some(i) = armed {
                        let id = handles.borrow()[i];
                        // Probe without perturbing: a fired timer cannot
                        // be cancelled in either engine.
                        let fired = reference.events[reference.handles[i]].fired;
                        if fired {
                            assert!(!sim.cancel(id), "seed {seed} step {step}: fired probe");
                            assert!(!reference.cancel(i));
                            armed = None;
                        }
                    }
                }
            }
            assert_eq!(
                sim.next_event_at().map(|t| t.as_nanos()),
                reference.next_event_at(),
                "seed {seed} step {step}: next_event_at"
            );
            assert_eq!(
                sim.events_pending(),
                reference.pending(),
                "seed {seed} step {step}"
            );
            assert_eq!(
                *log.borrow(),
                reference.log,
                "seed {seed} step {step}: order"
            );
        }
        let limit = reference.now + 1_000;
        reference.run_until(limit);
        sim.run_until(SimTime::from_nanos(limit));
        assert_eq!(*log.borrow(), reference.log, "seed {seed}: final order");
    }
}
