//! Compute-node clients.
//!
//! A client opens the file through the metadata manager, then reads or
//! writes its region as striped pieces with a bounded pipeline of
//! outstanding requests per process — PVFS flows data in chunks rather
//! than issuing the whole region at once. Completed bytes feed the
//! aggregate-bandwidth counter the `pvfs-test` harness reports.

use crate::iod::{IodReply, IodRequest, READ_REQ_BYTES, WRITE_ACK_BYTES};
use crate::layout::{Layout, StripePiece};
use crate::process::ProcessCpu;
use ioat_faults::{FaultInjector, RetryPolicy};
use ioat_netsim::msg::MsgSender;
use ioat_netsim::Socket;
use ioat_simcore::{Counter, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Direction of the concurrent test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// `pvfs-test` read phase: servers stream to clients.
    Read,
    /// `pvfs-test` write phase: clients stream to servers.
    Write,
}

/// Per-client driving parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientParams {
    /// Outstanding piece requests per client process.
    pub pipeline: usize,
    /// Fixed client CPU cost to post-process one completed piece.
    pub piece_base: SimDuration,
    /// Per-byte client CPU cost (aggregation/validation), picoseconds.
    pub piece_ps_per_byte: u64,
    /// Per-byte process-context cost to touch received payload when the
    /// CPU performs the kernel→user copy (no DMA engine): the copy plus
    /// the cache pollution it leaves in the process's working set. For
    /// reads this applies to every data piece; for writes only to the
    /// small ack.
    pub rx_copy_ps_per_byte: u64,
    /// Residual per-byte cost when the I/OAT DMA engine performs the
    /// copy (descriptor posting + completion reaping).
    pub rx_offload_ps_per_byte: u64,
}

impl Default for ClientParams {
    fn default() -> Self {
        ClientParams {
            pipeline: 4,
            piece_base: SimDuration::from_micros(8),
            piece_ps_per_byte: 400,
            rx_copy_ps_per_byte: 3430,
            rx_offload_ps_per_byte: 2000,
        }
    }
}

impl ClientParams {
    /// Client CPU cost to consume a completed piece of `len` bytes.
    pub fn piece_cost(&self, len: u64) -> SimDuration {
        self.piece_base + SimDuration::from_nanos(len * self.piece_ps_per_byte / 1000)
    }

    /// The effective per-byte receive-copy cost under `dma_engine`.
    pub fn rx_ps_per_byte(&self, dma_engine: bool) -> u64 {
        if dma_engine {
            self.rx_offload_ps_per_byte
        } else {
            self.rx_copy_ps_per_byte
        }
    }

    /// Client-thread cost to consume a reply whose wire payload
    /// was `rx_bytes` for a piece of `len` bytes: piece bookkeeping plus
    /// the process-context copy of what actually arrived.
    pub fn consume_cost(&self, len: u64, rx_bytes: u64, rx_ps_per_byte: u64) -> SimDuration {
        self.piece_cost(len) + SimDuration::from_nanos(rx_bytes * rx_ps_per_byte / 1000)
    }
}

/// Fault/recovery activity of one client process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientFaultStats {
    /// Per-op deadlines that expired.
    pub timeouts: u64,
    /// Requests reissued after a timeout.
    pub retries: u64,
    /// Reissues that moved the op to a different I/O server.
    pub failovers: u64,
    /// Ops abandoned after exhausting retries.
    pub failed_ops: u64,
    /// Replies that arrived for an op already retried or abandoned.
    pub stale_replies: u64,
}

/// One outstanding attempt: which piece, which server it was sent to,
/// how many times it has already been reissued.
struct OpState {
    piece: StripePiece,
    server: usize,
    attempts: u32,
}

struct State {
    pieces: Vec<StripePiece>,
    next: usize,
    outstanding: usize,
    mode: IoMode,
    params: ClientParams,
    /// Outstanding ops keyed by attempt id. A retry mints a fresh id, so
    /// a late reply to a superseded attempt is recognizably stale.
    ops: BTreeMap<u64, OpState>,
    next_op: u64,
    done: Rc<RefCell<Counter>>,
    started: bool,
    faults: FaultInjector,
    retry: RetryPolicy,
    stats: ClientFaultStats,
    /// Ops whose reply arrived in time (lifecycle audit bookkeeping).
    completed_ops: u64,
    /// Per-byte rx-copy cost of reply processing.
    rx_ps: u64,
}

/// One compute-node client process.
pub struct ClientProcess {
    state: Rc<RefCell<State>>,
    senders: Rc<RefCell<Vec<MsgSender<IodRequest>>>>,
    /// The client's serial process thread: reply processing runs through
    /// it. It lives beside `state`, not in it: a job waiting in its queue
    /// captures `state`, so `state` must not own the thread.
    proc: ProcessCpu,
}

impl std::fmt::Debug for ClientProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("ClientProcess")
            .field("pieces", &s.pieces.len())
            .field("outstanding", &s.outstanding)
            .finish()
    }
}

impl ClientProcess {
    /// Creates a client that will cycle over `[0, region)` of a file with
    /// the given layout. `done` accumulates completed bytes. Reply
    /// processing serializes on the process thread `proc`, and each reply
    /// is charged the process-context rx copy of its wire payload at
    /// `rx_ps_per_byte` picoseconds per byte.
    pub fn new(
        layout: Layout,
        region: u64,
        mode: IoMode,
        params: ClientParams,
        done: Rc<RefCell<Counter>>,
        proc: ProcessCpu,
        rx_ps_per_byte: u64,
    ) -> Self {
        assert!(params.pipeline > 0, "pipeline must be at least 1");
        let pieces = layout.pieces(0, region);
        assert!(!pieces.is_empty(), "region must contain at least one piece");
        ClientProcess {
            state: Rc::new(RefCell::new(State {
                pieces,
                next: 0,
                outstanding: 0,
                mode,
                params,
                ops: BTreeMap::new(),
                next_op: 0,
                done,
                started: false,
                faults: FaultInjector::inert(),
                retry: RetryPolicy::default(),
                stats: ClientFaultStats::default(),
                completed_ops: 0,
                rx_ps: rx_ps_per_byte,
            })),
            senders: Rc::new(RefCell::new(Vec::new())),
            proc,
        }
    }

    /// Arms the client's recovery machinery: per-op deadlines, bounded
    /// retries and failover to surviving servers. With an inert injector
    /// (the default) no deadline events are ever scheduled.
    pub fn set_faults(&self, faults: FaultInjector, retry: RetryPolicy) {
        let mut st = self.state.borrow_mut();
        st.faults = faults;
        st.retry = retry;
    }

    /// Fault/recovery counters accumulated so far.
    pub fn fault_stats(&self) -> ClientFaultStats {
        self.state.borrow().stats
    }

    /// Request-lifecycle audit: every minted op id leaves the outstanding
    /// map exactly one way — answered in time, expired at its deadline
    /// (then retried or abandoned), or still pending. Exact identities,
    /// valid at any event boundary.
    pub fn audit(&self, now: SimTime) {
        let st = self.state.borrow();
        let component = "pvfs/client";
        ioat_guard::check(
            component,
            "ops minted = completed + timed-out + pending",
            now,
            st.next_op == st.completed_ops + st.stats.timeouts + st.ops.len() as u64,
            || {
                format!(
                    "next_op={} but completed={} + timeouts={} + pending={}",
                    st.next_op,
                    st.completed_ops,
                    st.stats.timeouts,
                    st.ops.len()
                )
            },
        );
        ioat_guard::check(
            component,
            "timeouts = retries + abandoned",
            now,
            st.stats.timeouts == st.stats.retries + st.stats.failed_ops,
            || {
                format!(
                    "timeouts={} but retries={} + failed_ops={}",
                    st.stats.timeouts, st.stats.retries, st.stats.failed_ops
                )
            },
        );
        ioat_guard::check(
            component,
            "failovers ≤ retries",
            now,
            st.stats.failovers <= st.stats.retries,
            || {
                format!(
                    "failovers={} > retries={}",
                    st.stats.failovers, st.stats.retries
                )
            },
        );
        ioat_guard::check(
            component,
            "stale replies ≤ timeouts",
            now,
            st.stats.stale_replies <= st.stats.timeouts,
            || {
                format!(
                    "stale_replies={} > timeouts={}",
                    st.stats.stale_replies, st.stats.timeouts
                )
            },
        );
        ioat_guard::check(
            component,
            "outstanding mirror = pending map size",
            now,
            st.outstanding == st.ops.len(),
            || {
                format!(
                    "cached outstanding={} but ops map holds {}",
                    st.outstanding,
                    st.ops.len()
                )
            },
        );
    }

    /// Registers the request sender for server `index` (must be called
    /// for every server before [`ClientProcess::start`]).
    pub fn add_server_sender(&self, sender: MsgSender<IodRequest>) {
        self.senders.borrow_mut().push(sender);
    }

    /// The reply handler for one server connection; pass to
    /// [`crate::iod::serve_shared`]. Replies are matched to outstanding
    /// ops by the echoed op id (not arrival order), so the same handler
    /// works under retries and failover. `conn_sock` is the client
    /// endpoint of that connection — the handler re-posts its read after
    /// processing, so a credit-limited connection exerts backpressure
    /// while the client thread is busy.
    pub fn reply_handler(&self, conn_sock: Socket) -> impl FnMut(&mut Sim, IodReply) + 'static {
        let state = Rc::clone(&self.state);
        let senders = Rc::clone(&self.senders);
        let proc = self.proc.clone();
        move |sim, reply| {
            let cost = {
                let mut st = state.borrow_mut();
                let Some(opst) = st.ops.remove(&reply.op()) else {
                    // The op was already retried or abandoned; discard the
                    // late answer but keep the credit-limited connection
                    // receiving. Stale replies cost no client CPU.
                    st.stats.stale_replies += 1;
                    drop(st);
                    conn_sock.post_recv(sim);
                    return;
                };
                let len = opst.piece.len;
                st.outstanding -= 1;
                st.completed_ops += 1;
                st.done.borrow_mut().add_at(sim.now(), len);
                // Charge the rx copy of what came over the wire — the
                // data piece for reads, the 64-byte ack for writes.
                let rx_bytes = match reply {
                    IodReply::Data { len, .. } => len,
                    IodReply::Ack { .. } => WRITE_ACK_BYTES,
                };
                st.params.consume_cost(len, rx_bytes, st.rx_ps)
            };
            let state2 = Rc::clone(&state);
            let senders2 = Rc::clone(&senders);
            let conn2 = conn_sock.clone();
            let then = move |sim: &mut Sim| {
                conn2.post_recv(sim);
                issue(&state2, &senders2, sim);
            };
            proc.run(sim, cost, then)
        }
    }

    /// Starts the pipeline (typically from the metadata-open completion).
    pub fn start(&self, sim: &mut Sim) {
        {
            let mut st = self.state.borrow_mut();
            if st.started {
                return;
            }
            st.started = true;
        }
        issue(&self.state, &self.senders, sim);
    }
}

type Senders = Rc<RefCell<Vec<MsgSender<IodRequest>>>>;

fn issue(state: &Rc<RefCell<State>>, senders: &Senders, sim: &mut Sim) {
    loop {
        let action = {
            let mut st = state.borrow_mut();
            if st.outstanding >= st.params.pipeline {
                None
            } else {
                let idx = st.next % st.pieces.len();
                let piece = st.pieces[idx];
                st.next += 1;
                st.outstanding += 1;
                let op = st.next_op;
                st.next_op += 1;
                st.ops.insert(
                    op,
                    OpState {
                        piece,
                        server: piece.server,
                        attempts: 0,
                    },
                );
                Some((op, piece, st.mode, st.faults.is_active()))
            }
        };
        let Some((op, piece, mode, faulty)) = action else {
            return;
        };
        send_request(senders, sim, piece.server, op, piece.len, mode);
        if faulty {
            arm_deadline(state, senders, sim, op, 0);
        }
    }
}

fn send_request(senders: &Senders, sim: &mut Sim, server: usize, op: u64, len: u64, mode: IoMode) {
    let senders = senders.borrow();
    let sender = &senders[server];
    match mode {
        IoMode::Read => sender.send(sim, READ_REQ_BYTES, IodRequest::Read { op, len }),
        IoMode::Write => sender.send(sim, len, IodRequest::Write { op, len }),
    }
}

/// Schedules the per-op deadline (only called when faults are active).
fn arm_deadline(
    state: &Rc<RefCell<State>>,
    senders: &Senders,
    sim: &mut Sim,
    op: u64,
    attempt: u32,
) {
    let deadline = state.borrow().retry.deadline(attempt);
    let state2 = Rc::clone(state);
    let senders2 = Rc::clone(senders);
    sim.schedule(deadline, move |sim| {
        deadline_fired(&state2, &senders2, sim, op);
    });
}

fn deadline_fired(state: &Rc<RefCell<State>>, senders: &Senders, sim: &mut Sim, op: u64) {
    let mut refill = false;
    let action = {
        let mut st = state.borrow_mut();
        match st.ops.remove(&op) {
            None => None, // answered in time; the timer is a no-op
            Some(opst) => {
                st.stats.timeouts += 1;
                if opst.attempts < st.retry.max_retries {
                    let n = senders.borrow().len();
                    let now = sim.now();
                    // Retry in place if the daemon looks alive (the loss
                    // was in the network); otherwise fail over to the
                    // next surviving server, advancing cyclically if
                    // every daemon looks down.
                    let target = if !st.faults.service_down(opst.server as u32, now) {
                        opst.server
                    } else {
                        let mut t = (opst.server + 1) % n;
                        for step in 1..=n {
                            let cand = (opst.server + step) % n;
                            if !st.faults.service_down(cand as u32, now) {
                                t = cand;
                                break;
                            }
                        }
                        t
                    };
                    st.stats.retries += 1;
                    if target != opst.server {
                        st.stats.failovers += 1;
                    }
                    let new_op = st.next_op;
                    st.next_op += 1;
                    let attempts = opst.attempts + 1;
                    st.ops.insert(
                        new_op,
                        OpState {
                            piece: opst.piece,
                            server: target,
                            attempts,
                        },
                    );
                    Some((new_op, opst.piece, target, st.mode, attempts))
                } else {
                    st.stats.failed_ops += 1;
                    st.outstanding -= 1;
                    refill = true;
                    None
                }
            }
        }
    };
    if let Some((new_op, piece, server, mode, attempts)) = action {
        send_request(senders, sim, server, new_op, piece.len, mode);
        arm_deadline(state, senders, sim, new_op, attempts);
    } else if refill {
        issue(state, senders, sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piece_cost_scales() {
        let p = ClientParams::default();
        assert!(p.piece_cost(65_536) > p.piece_cost(1_024));
        assert_eq!(p.piece_cost(0), p.piece_base);
    }

    #[test]
    #[should_panic(expected = "pipeline")]
    fn zero_pipeline_rejected() {
        let done = Rc::new(RefCell::new(Counter::new()));
        // A throwaway socket is needed; build a minimal pair.
        let a = ioat_netsim::stack::HostStack::new(
            "a",
            2,
            ioat_netsim::StackParams::default(),
            ioat_netsim::IoatConfig::disabled(),
        );
        let b = ioat_netsim::stack::HostStack::new(
            "b",
            2,
            ioat_netsim::StackParams::default(),
            ioat_netsim::IoatConfig::disabled(),
        );
        let (sock, _) = ioat_netsim::socket::socket_pair(
            &a,
            &b,
            ioat_simcore::time::Bandwidth::from_gbps(1),
            ioat_simcore::SimDuration::ZERO,
            ioat_netsim::SocketOpts::tuned(),
            ioat_netsim::ConnId(1),
        );
        let params = ClientParams {
            pipeline: 0,
            ..ClientParams::default()
        };
        ClientProcess::new(
            Layout::default_over(2),
            1 << 20,
            IoMode::Read,
            params,
            done,
            ProcessCpu::new(sock),
            0,
        );
    }
}
