//! Simplified TCP connection state.
//!
//! The paper's experiments are LAN throughput tests on a dedicated
//! switch, so the *default* model keeps exactly what matters to them:
//! MSS segmentation, a byte-granular sliding window bounded by the
//! peer's receive buffer, cumulative ACKs and advertised-window updates.
//! With no faults configured the path is loss-free and in-order, TCP
//! runs at the receiver-limited window from the start, and none of the
//! recovery machinery below ever fires — no timers are armed and no RNG
//! is consumed, keeping runs bit-identical to the pre-fault simulator.
//!
//! When an [`ioat-faults`] plan injects loss, a minimal recovery model
//! activates on top of the same state: a retransmission timeout per
//! connection (exponential backoff, `StackParams::rto_initial` →
//! `rto_max`) and fast retransmit after three duplicate ACKs, both
//! resolving by go-back-N from the last cumulative ACK. Retransmitted
//! bytes traverse the identical wire/interrupt/protocol/copy cost path
//! as first transmissions, so CPU-utilization figures under loss remain
//! honest. Slow start and congestion control stay out of scope: the
//! reproduced experiments are window- or CPU-limited, never
//! congestion-limited.
//!
//! [`ioat-faults`]: ../../ioat_faults/index.html

use crate::config::SocketOpts;
use ioat_memsim::Buffer;
use ioat_simcore::SimDuration;
use std::fmt;

/// Duplicate ACKs that trigger fast retransmit (TCP's classic threshold).
pub const DUP_ACK_THRESHOLD: u32 = 3;

/// Identifies a connection; both endpoints use the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// Sender-side per-connection state.
#[derive(Debug)]
pub struct SendState {
    /// Socket options at this endpoint.
    pub opts: SocketOpts,
    /// Index of the NIC port this connection is routed over.
    pub port: usize,
    /// Bytes the application has queued that are not yet on the wire.
    pub pending: u64,
    /// Next sequence number (cumulative bytes handed to the NIC).
    pub next_seq: u64,
    /// Highest cumulatively acknowledged byte.
    pub acked_seq: u64,
    /// Peer's advertised window (free receive-buffer bytes).
    pub peer_window: u64,
    /// Simulated source buffer the app sends from (for sender-side copy
    /// cache modelling).
    pub user_buf: Buffer,
    /// Simulated kernel socket send buffer.
    pub kernel_buf: Buffer,
    /// True while the app has asked to be told when the buffer drains.
    pub waiting_for_drain: bool,
    /// Duplicate ACKs seen since the last window advance (fault path).
    pub dup_acks: u32,
    /// True between a retransmit trigger and the next advancing ACK;
    /// suppresses redundant retransmissions for the same hole.
    pub in_recovery: bool,
    /// True while a retransmission timer is scheduled for this connection.
    pub rto_armed: bool,
    /// Current retransmission timeout (doubles per expiry up to
    /// `StackParams::rto_max`; resets on an advancing ACK).
    pub rto_current: SimDuration,
}

impl SendState {
    /// Bytes currently in flight (sent, not yet acknowledged).
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.acked_seq
    }

    /// How many more bytes the window permits on the wire right now.
    pub fn usable_window(&self) -> u64 {
        self.peer_window.saturating_sub(self.in_flight())
    }

    /// Registers an ACK: cumulative `seq` plus the peer's current window.
    /// Out-of-order (stale) ACKs are ignored. Returns `true` when the
    /// cumulative ACK point advanced (new data was acknowledged).
    pub fn on_ack(&mut self, seq: u64, window: u64) -> bool {
        if seq >= self.acked_seq {
            let before = self.acked_seq;
            self.acked_seq = seq.min(self.next_seq);
            self.peer_window = window;
            self.acked_seq > before
        } else {
            false
        }
    }

    /// Counts duplicate ACKs reported by the receiver. Returns `true`
    /// when the [`DUP_ACK_THRESHOLD`] is crossed and the connection is
    /// not already recovering — i.e. when fast retransmit should fire.
    pub fn register_dup_acks(&mut self, count: u32) -> bool {
        if count == 0 || self.in_recovery {
            return false;
        }
        self.dup_acks += count;
        if self.dup_acks >= DUP_ACK_THRESHOLD {
            self.dup_acks = 0;
            true
        } else {
            false
        }
    }

    /// Go-back-N rewind: everything unacknowledged becomes pending again
    /// so the pump resends from the last cumulative ACK. Returns the byte
    /// count rewound (the retransmission volume).
    pub fn go_back_n(&mut self) -> u64 {
        let rewind = self.in_flight();
        self.pending += rewind;
        self.next_seq = self.acked_seq;
        rewind
    }

    /// True when everything queued has been sent and acknowledged.
    pub fn drained(&self) -> bool {
        self.pending == 0 && self.in_flight() == 0
    }
}

/// How an arriving frame relates to the receiver's cumulative position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Contiguous with (or overlapping into) the cumulative point:
    /// advances `received_seq`.
    InOrder,
    /// Entirely at or below the cumulative point — a retransmission of
    /// data already received. Acknowledged again and discarded.
    Duplicate,
    /// Starts beyond the cumulative point: a predecessor was lost. The
    /// go-back-N receiver discards it and emits a duplicate ACK.
    Gap,
}

/// Receiver-side per-connection state.
#[derive(Debug)]
pub struct RecvState {
    /// Socket options at this endpoint.
    pub opts: SocketOpts,
    /// Cumulative bytes that finished protocol processing.
    pub received_seq: u64,
    /// Cumulative bytes copied to the application.
    pub delivered_seq: u64,
    /// True while a kernel→user copy for this connection is in progress.
    pub copying: bool,
    /// Bytes covered by the in-flight copy (0 when idle). Queued bytes
    /// beyond these make the receive thread runnable again.
    pub copying_bytes: u64,
    /// Simulated kernel receive buffer (payload landing zone).
    pub kernel_buf: Buffer,
    /// Simulated user buffer the app receives into.
    pub user_buf: Buffer,
    /// Hot per-connection protocol state (TCB and friends).
    pub state_buf: Buffer,
    /// Outstanding `recv()` postings. `None` means the application always
    /// has a read posted (a tight receive loop); `Some(n)` means `n` more
    /// deliveries may start before the application posts again — while it
    /// is busy processing, arriving data backs up in the kernel buffer.
    pub recv_credits: Option<u64>,
}

impl RecvState {
    /// Bytes sitting in the kernel buffer awaiting delivery.
    pub fn queued(&self) -> u64 {
        self.received_seq - self.delivered_seq
    }

    /// The window to advertise: free kernel-buffer space.
    pub fn advertised_window(&self) -> u64 {
        self.opts.rcvbuf.saturating_sub(self.queued())
    }

    /// Classifies a frame carrying `payload` bytes ending at cumulative
    /// sequence `seq_end` against the current `received_seq`. Without
    /// injected loss every frame is [`FrameClass::InOrder`] (the link is
    /// FIFO and each connection uses one port), so the fault-free path
    /// never observes the other variants.
    pub fn classify(&self, payload: u64, seq_end: u64) -> FrameClass {
        let start = seq_end - payload;
        if seq_end <= self.received_seq {
            FrameClass::Duplicate
        } else if start > self.received_seq {
            FrameClass::Gap
        } else {
            FrameClass::InOrder
        }
    }

    /// Cycling offset of cumulative position `seq` within a buffer of
    /// `buflen` bytes such that a chunk of `chunk` bytes fits without
    /// wrapping. Keeps the cache footprint of a long-lived stream equal to
    /// the buffer size, like a real ring.
    pub fn ring_offset(seq: u64, buflen: u64, chunk: u64) -> u64 {
        debug_assert!(chunk <= buflen, "chunk {chunk} larger than buffer {buflen}");
        if buflen == chunk {
            return 0;
        }
        seq % (buflen - chunk + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send_state(window: u64) -> SendState {
        SendState {
            opts: SocketOpts::tuned(),
            port: 0,
            pending: 0,
            next_seq: 0,
            acked_seq: 0,
            peer_window: window,
            user_buf: Buffer::new(0, 1024),
            kernel_buf: Buffer::new(4096, 1024),
            waiting_for_drain: false,
            dup_acks: 0,
            in_recovery: false,
            rto_armed: false,
            rto_current: SimDuration::from_millis(3),
        }
    }

    #[test]
    fn window_accounting() {
        let mut s = send_state(10_000);
        assert_eq!(s.usable_window(), 10_000);
        s.next_seq = 4_000;
        assert_eq!(s.in_flight(), 4_000);
        assert_eq!(s.usable_window(), 6_000);
        s.on_ack(1_000, 10_000);
        assert_eq!(s.in_flight(), 3_000);
        // Shrinking advertised window can make usable window zero.
        s.on_ack(1_000, 2_000);
        assert_eq!(s.usable_window(), 0);
    }

    #[test]
    fn stale_acks_are_ignored_and_acks_never_pass_next_seq() {
        let mut s = send_state(10_000);
        s.next_seq = 5_000;
        s.on_ack(4_000, 8_000);
        s.on_ack(3_000, 9_999); // stale: ignored entirely
        assert_eq!(s.acked_seq, 4_000);
        assert_eq!(s.peer_window, 8_000);
        s.on_ack(9_000, 8_000); // beyond next_seq: clamped
        assert_eq!(s.acked_seq, 5_000);
    }

    #[test]
    fn drained_condition() {
        let mut s = send_state(1_000);
        assert!(s.drained());
        s.pending = 10;
        assert!(!s.drained());
        s.pending = 0;
        s.next_seq = 10;
        assert!(!s.drained());
        s.on_ack(10, 1_000);
        assert!(s.drained());
    }

    #[test]
    fn on_ack_reports_window_advance() {
        let mut s = send_state(10_000);
        s.next_seq = 5_000;
        assert!(s.on_ack(2_000, 10_000));
        assert!(!s.on_ack(2_000, 9_000), "same seq is not an advance");
        assert_eq!(s.peer_window, 9_000, "window still updates");
        assert!(!s.on_ack(1_000, 8_000), "stale ack is not an advance");
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit_once() {
        let mut s = send_state(10_000);
        assert!(!s.register_dup_acks(2));
        assert!(s.register_dup_acks(1), "third dup-ack crosses threshold");
        s.in_recovery = true;
        assert!(!s.register_dup_acks(5), "suppressed while recovering");
        s.in_recovery = false;
        assert!(s.register_dup_acks(4), "batched dup-acks count at once");
    }

    #[test]
    fn go_back_n_rewinds_in_flight_bytes() {
        let mut s = send_state(10_000);
        s.next_seq = 8_000;
        s.acked_seq = 3_000;
        s.pending = 100;
        assert_eq!(s.go_back_n(), 5_000);
        assert_eq!(s.next_seq, 3_000);
        assert_eq!(s.pending, 5_100);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.go_back_n(), 0, "nothing in flight, nothing rewound");
    }

    #[test]
    fn classify_frames_against_cumulative_point() {
        let mut r = RecvState {
            opts: SocketOpts::case1(),
            received_seq: 5_000,
            delivered_seq: 0,
            copying: false,
            copying_bytes: 0,
            kernel_buf: Buffer::new(0, 65_536),
            user_buf: Buffer::new(1 << 20, 65_536),
            state_buf: Buffer::new(2 << 20, 320),
            recv_credits: None,
        };
        assert_eq!(r.classify(1_000, 6_000), FrameClass::InOrder);
        assert_eq!(r.classify(1_000, 5_000), FrameClass::Duplicate);
        assert_eq!(r.classify(1_000, 4_000), FrameClass::Duplicate);
        assert_eq!(r.classify(1_000, 6_001), FrameClass::Gap);
        r.received_seq = 0;
        assert_eq!(r.classify(1_460, 1_460), FrameClass::InOrder);
    }

    #[test]
    fn recv_window_shrinks_with_queued_bytes() {
        let mut r = RecvState {
            opts: SocketOpts::case1(), // 64K rcvbuf
            received_seq: 0,
            delivered_seq: 0,
            copying: false,
            copying_bytes: 0,
            kernel_buf: Buffer::new(0, 65_536),
            user_buf: Buffer::new(1 << 20, 65_536),
            state_buf: Buffer::new(2 << 20, 320),
            recv_credits: None,
        };
        assert_eq!(r.advertised_window(), 65_536);
        r.received_seq = 16_384;
        assert_eq!(r.queued(), 16_384);
        assert_eq!(r.advertised_window(), 65_536 - 16_384);
        r.delivered_seq = 16_384;
        assert_eq!(r.advertised_window(), 65_536);
    }

    #[test]
    fn ring_offset_never_overruns() {
        for seq in (0..100_000u64).step_by(977) {
            let off = RecvState::ring_offset(seq, 65_536, 16_384);
            assert!(off + 16_384 <= 65_536);
        }
        assert_eq!(RecvState::ring_offset(123, 4_096, 4_096), 0);
    }
}
