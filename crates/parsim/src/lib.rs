//! Conservative parallel-in-simulation: one simulation, many partitions,
//! many worker threads, bit-identical results.
//!
//! A sequential discrete-event simulation executes one global
//! time-ordered queue. This crate splits the *model* into partitions —
//! each owning its own [`ioat_simcore::Sim`] slab queue (or any queue
//! implementing [`Partition`]) — and advances them in lockstep windows
//! derived from the model's **lookahead**: the minimum delay any
//! cross-partition interaction can have. In this workspace every
//! cross-partition event is a frame (or ACK) crossing a switch link, so
//! the lookahead is the per-hop switch latency — an event executing at
//! `t` can influence another partition no earlier than `t + L`.
//!
//! The synchronization protocol is the classic conservative-window
//! (YAWNS / null-message) scheme:
//!
//! 1. compute `m` = the earliest pending event instant over all
//!    partitions (cross-partition mailboxes are empty at this point);
//! 2. every partition executes events strictly before `m + L`
//!    ([`Partition::run_before`]) — safe, because nothing any other
//!    partition executes in this window can produce an effect before
//!    `m + L`;
//! 3. cross-partition messages staged during the window are exchanged at
//!    a barrier and injected in deterministic order; repeat.
//!
//! **Determinism** does not come from the threads (there is no
//! cross-thread ordering dependence at all): the window sequence is a
//! pure function of global simulation state, every partition is
//! data-isolated between barriers, and injected messages are sorted by
//! `(fire time, sending partition, per-sender sequence)` before
//! delivery. Running with 1, 2 or 8 workers therefore produces
//! bit-identical partitions: every thread count drives the one worker
//! loop, with worker 0 on the calling thread, so `threads = 1` spawns no
//! thread at all.
//!
//! **Conservation** of boundary traffic is audited every round at every
//! thread count whenever audits are on ([`ioat_guard::enabled`]: the
//! run's audit scope, which [`run`] hands to every worker, or any debug
//! build). Between the inject phase and the next execute phase all
//! mailboxes are empty, so each message a partition emitted is either
//! still staged in an outbox or already injected. Workers fold both sums
//! into the round's shared slot and worker 0 checks them after the
//! barrier; the quiescent form is checked once more at the horizon.
//!
//! Why conservative rather than optimistic (Time Warp)? The models here
//! are closures over `Rc<RefCell<...>>` state with no state-saving or
//! rollback hooks, so mis-speculation would be unrecoverable; and the
//! fabric's per-hop latency gives a natural, non-degenerate lookahead,
//! which is exactly the regime where conservative windows perform well.

use ioat_simcore::{SimDuration, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// One partition of a partitioned simulation.
///
/// Implementations own their event queue (typically a whole
/// [`ioat_simcore::Sim`] plus the model living on it) and are driven by
/// [`run`] through alternating execute/exchange phases. Partitions are
/// built *on* their worker thread — they may freely contain `Rc` state —
/// and only [`Partition::Msg`] and [`Partition::Out`] ever cross
/// threads.
pub trait Partition {
    /// Plain-data message delivered across a partition boundary.
    type Msg: Send;
    /// Result extracted when the run completes.
    type Out: Send;

    /// Instant of the earliest pending event, or `None` when drained.
    /// A conservative lower bound is acceptable (it can only shrink the
    /// window); an instant *later* than the true next event is not.
    fn next_event_at(&mut self) -> Option<SimTime>;

    /// Executes every event strictly before `limit`, then advances the
    /// local clock to `limit` (see [`ioat_simcore::Sim::run_before`]).
    fn run_before(&mut self, limit: SimTime);

    /// Executes every event up to and including `horizon` — the final,
    /// inclusive window of the run.
    fn run_final(&mut self, horizon: SimTime);

    /// Delivers a cross-partition message scheduled to fire at
    /// `fire_at`. Called between windows, with `fire_at` at or after the
    /// local clock; injections arrive sorted by
    /// `(fire_at, sending partition, sender sequence)`.
    fn inject(&mut self, fire_at: SimTime, msg: Self::Msg);

    /// Events executed so far (for the per-partition report).
    fn events_executed(&self) -> u64;

    /// Consumes the partition, returning its result.
    fn finish(self) -> Self::Out;
}

/// A staged cross-partition message.
struct Staged<M> {
    dst: usize,
    fire_at: SimTime,
    seq: u64,
    msg: M,
}

struct OutboxInner<M> {
    src: usize,
    /// Per-sender emission sequence: the deterministic merge tie-break,
    /// and the count of messages this partition has emitted.
    seq: u64,
    staged: Vec<Staged<M>>,
}

/// Handle for emitting cross-partition messages, handed to each
/// partition's builder. Cheap to clone (it is an `Rc`); clones stay on
/// the partition's worker thread.
pub struct Outbox<M> {
    inner: Rc<RefCell<OutboxInner<M>>>,
}

impl<M> Clone for Outbox<M> {
    fn clone(&self) -> Self {
        Outbox {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<M> Outbox<M> {
    fn new(src: usize) -> Self {
        Outbox {
            inner: Rc::new(RefCell::new(OutboxInner {
                src,
                seq: 0,
                staged: Vec::new(),
            })),
        }
    }

    /// The owning partition's index.
    pub fn src(&self) -> usize {
        self.inner.borrow().src
    }

    /// Stages a message for partition `dst`, to fire there at `fire_at`.
    ///
    /// The lookahead contract: when the sender is executing an event at
    /// instant `t`, `fire_at` must be at least `t + L` where `L` is the
    /// lookahead passed to [`run`]. Violations are caught at the next
    /// window barrier.
    pub fn send(&self, dst: usize, fire_at: SimTime, msg: M) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        inner.staged.push(Staged {
            dst,
            fire_at,
            seq,
            msg,
        });
    }
}

/// An in-flight message in a destination mailbox.
struct InMsg<M> {
    fire_at: SimTime,
    src: usize,
    seq: u64,
    msg: M,
}

/// What a completed [`run`] did, per partition and per window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsimReport {
    /// Number of partitions.
    pub partitions: usize,
    /// Worker threads actually used (after clamping to the partition
    /// count).
    pub threads: usize,
    /// Synchronization windows (rounds) executed, including the final
    /// inclusive window.
    pub rounds: u64,
    /// The horizon the run was driven to.
    pub horizon: SimTime,
    /// Events executed, per partition.
    pub events: Vec<u64>,
    /// Cross-boundary messages emitted, per sending partition.
    pub emitted: Vec<u64>,
    /// Cross-boundary messages injected, per receiving partition.
    pub injected: Vec<u64>,
}

impl ParsimReport {
    /// Total events executed across all partitions.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Mean achieved window size in nanoseconds: the run advances
    /// `horizon` nanoseconds of simulated time in `rounds` windows.
    pub fn mean_window_ns(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.horizon.as_nanos() as f64 / self.rounds as f64
        }
    }
}

/// Sentinel for "no pending event" in the shared-minimum slots.
const NO_EVENT: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    /// Execute strictly before this instant; more windows follow.
    Strict(SimTime),
    /// Execute through the horizon (inclusive) and stop.
    Final,
}

/// The per-round window decision — a pure function of the global minimum
/// next-event instant, so every worker computes the identical window
/// sequence.
fn decide_window(min_next: u64, lookahead: SimDuration, horizon: SimTime) -> Window {
    if min_next == NO_EVENT {
        return Window::Final;
    }
    let limit = match min_next.checked_add(lookahead.as_nanos()) {
        Some(ns) => SimTime::from_nanos(ns),
        None => return Window::Final,
    };
    if limit > horizon {
        Window::Final
    } else {
        Window::Strict(limit)
    }
}

fn edge_of(window: Window, horizon: SimTime) -> SimTime {
    match window {
        Window::Strict(limit) => limit,
        Window::Final => horizon,
    }
}

/// Drains a partition's outbox into per-destination `outgoing` buffers,
/// enforcing the lookahead contract: nothing staged during a window may
/// fire before the window edge (strict windows) or at/before the horizon
/// (the final window, whose emissions provably land beyond it).
fn drain_outbox<M>(outbox: &Outbox<M>, edge: SimTime, outgoing: &mut [Vec<InMsg<M>>]) {
    let mut inner = outbox.inner.borrow_mut();
    let src = inner.src;
    for s in inner.staged.drain(..) {
        assert!(
            s.fire_at >= edge,
            "partition {src} emitted a cross-partition message firing at {} \
             inside its own window (edge {}): the model violates the lookahead contract",
            s.fire_at,
            edge,
        );
        outgoing[s.dst].push(InMsg {
            fire_at: s.fire_at,
            src,
            seq: s.seq,
            msg: s.msg,
        });
    }
}

fn sort_inbox<M>(inbox: &mut [InMsg<M>]) {
    // The deterministic merge order: time, then sending partition, then
    // the sender's emission sequence. Unique per message, so the sort is
    // a total order and worker count is unobservable downstream.
    inbox.sort_unstable_by_key(|m| (m.fire_at, m.src, m.seq));
}

fn check_boundary_conservation(at: SimTime, emitted: u64, accounted: u64) {
    ioat_guard::check(
        "parsim/engine",
        "boundary-conservation",
        at,
        emitted == accounted,
        || format!("cross-partition messages: emitted {emitted} != injected + staged {accounted}"),
    );
}

/// One round's shared accumulators. Every worker folds its partitions
/// into the slot during the min phase; after the barrier every worker
/// reads the minimum and worker 0 checks the boundary tallies.
struct RoundSlot {
    /// Earliest pending event instant over all partitions.
    min_next: AtomicU64,
    /// Σ outbox `seq` (messages emitted) over all partitions.
    emitted: AtomicU64,
    /// Σ (`injected` + still-staged) over all partitions.
    accounted: AtomicU64,
}

impl RoundSlot {
    fn armed() -> Self {
        RoundSlot {
            min_next: AtomicU64::new(NO_EVENT),
            emitted: AtomicU64::new(0),
            accounted: AtomicU64::new(0),
        }
    }

    fn rearm(&self) {
        self.min_next.store(NO_EVENT, Ordering::Release);
        self.emitted.store(0, Ordering::Release);
        self.accounted.store(0, Ordering::Release);
    }
}

/// Everything the workers share for one [`run`].
struct Shared<M> {
    lookahead: SimDuration,
    horizon: SimTime,
    /// Whether the per-round boundary audit runs, fixed for the whole run
    /// so every worker agrees ([`ioat_guard::enabled`] at the start).
    audit: bool,
    /// `None` with one worker: a lone worker never waits, and skipping
    /// the barrier saves a futex wake per phase.
    barrier: Option<Barrier>,
    /// The earliest barrier index at which every worker is guaranteed to
    /// observe a recorded panic. A plain "abort" bool is not enough: a
    /// fast panicking worker's store can become visible to a slow worker
    /// still at an *earlier* barrier checkpoint, making the two exit at
    /// different barriers — and deadlocking whoever waits at the next
    /// one. Tagging the abort with the publishing worker's next barrier
    /// index makes the exit decision identical for every worker at every
    /// checkpoint: exit iff `abort_at <= my completed barrier count`.
    abort_at: AtomicU64,
    /// Double-buffered round slots: round r accumulates into slot r & 1
    /// while worker 0 re-arms the other slot for round r+1. The re-arm is
    /// ordered before other workers' next accumulation by the two
    /// barriers in between.
    slots: [RoundSlot; 2],
    panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>,
    mailboxes: Vec<Mutex<Vec<InMsg<M>>>>,
}

/// Runs a partitioned simulation to `horizon` on `threads` workers and
/// returns each partition's result (in partition order) plus a
/// per-partition/per-window report.
///
/// `builders[i]` constructs partition `i` *on its worker thread* —
/// partitions may contain non-`Send` state — receiving the partition
/// index and the [`Outbox`] for staging cross-partition messages.
/// `lookahead` is the model's minimum cross-partition delay; `horizon`
/// is the instant to run through (inclusive, matching
/// [`ioat_simcore::Sim::run_until`]).
///
/// Every thread count runs the same worker loop: worker 0 on the
/// calling thread (so `threads = 1` spawns no thread) and workers 1..
/// on scoped threads, each under the caller's audit scope
/// ([`ioat_guard::current`]). Results are bit-identical for any
/// `threads`; the count only changes which worker hosts which partition.
///
/// # Panics
///
/// Panics if `builders` is empty, `threads` is zero, or `lookahead` is
/// zero (a zero lookahead admits no parallel window). A panic inside any
/// partition (build, event execution, injection or finish) is re-raised
/// on the calling thread after all workers have stopped at a barrier —
/// no deadlock, no abandoned threads.
pub fn run<P, B>(
    builders: Vec<B>,
    lookahead: SimDuration,
    horizon: SimTime,
    threads: usize,
) -> (Vec<P::Out>, ParsimReport)
where
    P: Partition,
    B: FnOnce(usize, Outbox<P::Msg>) -> P + Send,
{
    assert!(!builders.is_empty(), "no partitions");
    assert!(threads >= 1, "at least one worker thread required");
    assert!(
        !lookahead.is_zero(),
        "zero lookahead admits no conservative window"
    );
    let n = builders.len();
    let threads = threads.min(n);
    let mut per_worker: Vec<Vec<(usize, B)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, b) in builders.into_iter().enumerate() {
        per_worker[i % threads].push((i, b));
    }
    let shared = Shared {
        lookahead,
        horizon,
        audit: ioat_guard::enabled(),
        barrier: (threads > 1).then(|| Barrier::new(threads)),
        abort_at: AtomicU64::new(u64::MAX),
        slots: [RoundSlot::armed(), RoundSlot::armed()],
        panics: Mutex::new(Vec::new()),
        mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
    };

    let audit = ioat_guard::current();
    let worker_results: Vec<WorkerOutcome<P::Out>> = std::thread::scope(|scope| {
        let mut per_worker = per_worker.into_iter();
        let first = per_worker.next().expect("at least one worker");
        let shared = &shared;
        let audit = &audit;
        let handles: Vec<_> = per_worker
            .enumerate()
            .map(|(w, mine)| scope.spawn(move || audit.enter(|| worker_loop(w + 1, mine, shared))))
            .collect();
        let mut results = vec![worker_loop(0, first, shared)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are captured internally")),
        );
        results
    });

    let mut caught = shared.panics.into_inner().unwrap();
    if !caught.is_empty() {
        // Re-raise the panic from the lowest worker index — a
        // deterministic choice when several partitions fail at once.
        caught.sort_by_key(|(w, _)| *w);
        panic::resume_unwind(caught.remove(0).1);
    }

    let mut rounds = 0u64;
    let mut outs: Vec<Option<P::Out>> = (0..n).map(|_| None).collect();
    let mut events = vec![0u64; n];
    let mut emitted = vec![0u64; n];
    let mut injected = vec![0u64; n];
    for res in worker_results {
        let (parts, worker_rounds) = res.expect("no panic recorded, so every worker completed");
        rounds = rounds.max(worker_rounds);
        for p in parts {
            events[p.idx] = p.events;
            emitted[p.idx] = p.emitted;
            injected[p.idx] = p.injected;
            outs[p.idx] = Some(p.out);
        }
    }
    // Quiescent end-state form of the boundary identity: the final
    // window's emissions were drained and injected, so nothing is staged.
    check_boundary_conservation(horizon, emitted.iter().sum(), injected.iter().sum());
    let outs: Vec<P::Out> = outs
        .into_iter()
        .map(|o| o.expect("every partition produced a result"))
        .collect();
    (
        outs,
        ParsimReport {
            partitions: n,
            threads,
            rounds,
            horizon,
            events,
            emitted,
            injected,
        },
    )
}

/// Per-partition results a worker ships back to the caller.
struct PartResult<O> {
    idx: usize,
    out: O,
    events: u64,
    emitted: u64,
    injected: u64,
}

/// One worker's outcome: its partitions' results plus its executed-event
/// tally, or `None` when the worker exited early on a recorded panic.
type WorkerOutcome<Out> = Option<(Vec<PartResult<Out>>, u64)>;

/// One worker: builds its partitions, then alternates
/// min/execute+drain/inject phases with the other workers in barrier
/// lockstep. Every phase body runs under `catch_unwind` so a panicking
/// model cannot strand the other workers at a barrier: the panic is
/// recorded and published against the panicking worker's *next* barrier
/// index, every worker keeps reaching barriers, and all exit together at
/// that same barrier (see [`Shared::abort_at`]).
fn worker_loop<P, B>(w: usize, mine: Vec<(usize, B)>, sh: &Shared<P::Msg>) -> WorkerOutcome<P::Out>
where
    P: Partition,
    B: FnOnce(usize, Outbox<P::Msg>) -> P,
{
    let horizon = sh.horizon;
    // Barriers this worker has completed. Every worker executes the
    // identical barrier sequence, so the count doubles as a global
    // barrier index.
    let mut bars = 0u64;
    // Runs a phase body unless an abort is already pending; on panic,
    // records the payload and publishes the abort against this worker's
    // next barrier. The publish happens before the worker arrives at
    // that barrier, so once it releases, *every* worker observes
    // `abort_at <= bars` and they all exit at the same checkpoint; a
    // store that leaks to a worker still at an earlier barrier compares
    // `> bars` there and changes nothing.
    let guarded = |bars: u64, f: &mut dyn FnMut()| {
        if sh.abort_at.load(Ordering::Acquire) != u64::MAX {
            return;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            sh.panics.lock().unwrap().push((w, payload));
            sh.abort_at.fetch_min(bars + 1, Ordering::AcqRel);
        }
    };
    // Waits at the barrier, then reports whether every worker agreed to
    // exit here.
    let sync = |bars: &mut u64| -> bool {
        if let Some(barrier) = &sh.barrier {
            barrier.wait();
        }
        *bars += 1;
        sh.abort_at.load(Ordering::Acquire) <= *bars
    };

    let mut parts: Vec<(usize, P, Outbox<P::Msg>, u64)> = Vec::with_capacity(mine.len());
    {
        let mut mine = Some(mine);
        guarded(bars, &mut || {
            for (idx, b) in mine.take().expect("built once") {
                let ob = Outbox::new(idx);
                let part = b(idx, ob.clone());
                parts.push((idx, part, ob, 0));
            }
        });
    }
    if sync(&mut bars) {
        return None;
    }

    // This worker's drained messages by destination, handed to the shared
    // mailboxes with one lock per destination per window.
    let mut outgoing: Vec<Vec<InMsg<P::Msg>>> = sh.mailboxes.iter().map(|_| Vec::new()).collect();
    let mut rounds = 0u64;
    // The instant the state folded into this round's slot was reached:
    // the previous window's edge.
    let mut cut = SimTime::ZERO;
    loop {
        rounds += 1;
        let slot = &sh.slots[(rounds & 1) as usize];
        guarded(bars, &mut || {
            let local_min = parts
                .iter_mut()
                .map(|(_, p, _, _)| p.next_event_at().map_or(NO_EVENT, |t| t.as_nanos()))
                .min()
                .unwrap_or(NO_EVENT);
            slot.min_next.fetch_min(local_min, Ordering::AcqRel);
            if sh.audit {
                // Every mailbox is empty between the inject phase and the
                // next execute phase, so each sent message is either
                // staged in its outbox or injected.
                let (mut emitted, mut accounted) = (0, 0);
                for (_, _, ob, injected) in &parts {
                    let inner = ob.inner.borrow();
                    emitted += inner.seq;
                    accounted += *injected + inner.staged.len() as u64;
                }
                slot.emitted.fetch_add(emitted, Ordering::AcqRel);
                slot.accounted.fetch_add(accounted, Ordering::AcqRel);
            }
        });
        if sync(&mut bars) {
            return None;
        }
        let min_next = slot.min_next.load(Ordering::Acquire);
        if w == 0 {
            guarded(bars, &mut || {
                if sh.audit {
                    check_boundary_conservation(
                        cut,
                        slot.emitted.load(Ordering::Acquire),
                        slot.accounted.load(Ordering::Acquire),
                    );
                }
                sh.slots[((rounds + 1) & 1) as usize].rearm();
            });
        }
        let window = decide_window(min_next, sh.lookahead, horizon);
        let edge = edge_of(window, horizon);
        guarded(bars, &mut || {
            for (_, p, ob, _) in &mut parts {
                match window {
                    Window::Strict(limit) => p.run_before(limit),
                    Window::Final => p.run_final(horizon),
                }
                drain_outbox(ob, edge, &mut outgoing);
            }
            for (dst, msgs) in outgoing.iter_mut().enumerate() {
                if !msgs.is_empty() {
                    sh.mailboxes[dst].lock().unwrap().append(msgs);
                }
            }
        });
        if sync(&mut bars) {
            return None;
        }
        guarded(bars, &mut || {
            for (idx, p, _, injected) in &mut parts {
                let mut inbox = std::mem::take(&mut *sh.mailboxes[*idx].lock().unwrap());
                sort_inbox(&mut inbox);
                *injected += inbox.len() as u64;
                for m in inbox {
                    p.inject(m.fire_at, m.msg);
                }
            }
        });
        if window == Window::Final {
            break;
        }
        cut = edge;
    }

    let mut results = Vec::with_capacity(parts.len());
    {
        let mut parts = Some(parts);
        guarded(bars, &mut || {
            for (idx, p, ob, injected) in parts.take().expect("finished once") {
                let emitted = ob.inner.borrow().seq;
                results.push(PartResult {
                    idx,
                    events: p.events_executed(),
                    emitted,
                    injected,
                    out: p.finish(),
                });
            }
        });
    }
    // Past the last barrier: a panic in the final inject or in `finish`
    // publishes an index nobody waits for, so no deadlock is possible —
    // a plain flag check suffices, and the caller re-raises the payload
    // before touching any results.
    if sh.abort_at.load(Ordering::Acquire) != u64::MAX {
        return None;
    }
    Some((results, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimDuration = SimDuration::from_micros(1);
    const HORIZON: SimTime = SimTime::from_micros(100);

    /// One token bounced between two partitions, one `HOP` per leg.
    /// With `lose_on`, the partition drops the message it stages on that
    /// event out of its outbox: a message emitted but never delivered.
    struct Bounce {
        out: Outbox<()>,
        next: Option<SimTime>,
        events: u64,
        lose_on: Option<u64>,
    }

    impl Bounce {
        fn run_while(&mut self, due: impl Fn(SimTime) -> bool) {
            while let Some(t) = self.next.filter(|&t| due(t)) {
                self.next = None;
                self.events += 1;
                self.out.send(1 - self.out.src(), t + HOP, ());
                if self.lose_on == Some(self.events) {
                    self.out.inner.borrow_mut().staged.pop();
                }
            }
        }
    }

    impl Partition for Bounce {
        type Msg = ();
        type Out = u64;

        fn next_event_at(&mut self) -> Option<SimTime> {
            self.next
        }

        fn run_before(&mut self, limit: SimTime) {
            self.run_while(|t| t < limit);
        }

        fn run_final(&mut self, horizon: SimTime) {
            self.run_while(|t| t <= horizon);
        }

        fn inject(&mut self, fire_at: SimTime, _msg: ()) {
            self.next = Some(fire_at);
        }

        fn events_executed(&self) -> u64 {
            self.events
        }

        fn finish(self) -> u64 {
            self.events
        }
    }

    #[test]
    fn lost_boundary_message_fails_conservation_mid_run() {
        for threads in [1, 2] {
            let builders: Vec<_> = (0..2)
                .map(|_| {
                    |idx: usize, out: Outbox<()>| Bounce {
                        out,
                        next: (idx == 0).then_some(SimTime::ZERO),
                        events: 0,
                        lose_on: (idx == 1).then_some(3),
                    }
                })
                .collect();
            let (res, violations) = ioat_guard::with_audit(|| run(builders, HOP, HORIZON, threads));
            let (outs, _) = res.expect("a lost message does not stop the run");
            assert_eq!(outs, [3, 3], "the token stops where it was lost");
            let first = violations
                .iter()
                .filter(|v| v.invariant == "boundary-conservation")
                .map(|v| v.at)
                .min();
            assert!(
                first.is_some_and(|at| at < HORIZON),
                "threads={threads}: the loss must be flagged before the horizon: {violations:?}"
            );
        }
    }

    /// A partition with no events whose `finish` fails a check and
    /// reports the event limit it sees.
    struct FailsInFinish(usize);

    impl Partition for FailsInFinish {
        type Msg = ();
        type Out = u64;

        fn next_event_at(&mut self) -> Option<SimTime> {
            None
        }

        fn run_before(&mut self, _limit: SimTime) {}

        fn run_final(&mut self, _horizon: SimTime) {}

        fn inject(&mut self, _fire_at: SimTime, _msg: ()) {}

        fn events_executed(&self) -> u64 {
            0
        }

        fn finish(self) -> u64 {
            ioat_guard::check("parsim-test", "hand-off", HORIZON, false, || {
                format!("partition {}", self.0)
            });
            ioat_guard::event_limit()
        }
    }

    #[test]
    fn workers_run_under_the_callers_audit_scope() {
        // At two threads partition 1 lives on the spawned worker 1.
        let builders: Vec<_> = (0..2)
            .map(|_| |idx: usize, _: Outbox<()>| FailsInFinish(idx))
            .collect();
        let (res, violations) =
            ioat_guard::with_audit_budget(Some(4_321), || run(builders, HOP, HORIZON, 2));
        let (outs, _) = res.expect("no partition panics");
        assert_eq!(outs, [4_321, 4_321]);
        let mut seen: Vec<_> = violations.iter().map(|v| v.detail.as_str()).collect();
        seen.sort_unstable();
        assert_eq!(seen, ["partition 0", "partition 1"]);
    }
}
