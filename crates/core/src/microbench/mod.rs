//! The paper's §4 micro-benchmark suite.
//!
//! Each submodule reproduces one figure:
//!
//! | Module | Figure | What it measures |
//! |---|---|---|
//! | [`bandwidth`] | Fig. 3a | `ttcp` bandwidth vs port count + receiver CPU |
//! | [`bidirectional`] | Fig. 3b | 2·N-thread bi-directional bandwidth |
//! | [`multistream`] | Fig. 4 | N receive threads on one server |
//! | [`copybench`] | Fig. 6 | CPU copy vs DMA-engine copy + overlap |
//! | [`splitup`] | Fig. 7 | per-feature benefit split-up |
//!
//! Fig. 5 (socket-optimization Cases 1–5) needs no module of its own: it
//! runs [`bandwidth`] and [`bidirectional`] over
//! [`SocketOpts::all_cases`](ioat_netsim::SocketOpts::all_cases).

pub mod bandwidth;
pub mod bidirectional;
pub mod copybench;
pub mod multistream;
pub mod splitup;

use ioat_netsim::{Socket, SocketEvent};
use ioat_simcore::Sim;

/// Posts a continuous `ttcp`-style stream on `socket`: enough pending
/// bytes that the connection stays busy past the measurement window.
///
/// `duration_hint_ns` should cover warm-up + measurement; the driver
/// over-provisions by 2× so the stream never drains early.
pub fn stream(socket: &Socket, sim: &mut Sim, duration_hint_ns: u64, line_rate_mbps: f64) {
    let bytes = (line_rate_mbps * 1e6 / 8.0 * (duration_hint_ns as f64 / 1e9) * 2.0) as u64;
    socket.send(sim, bytes.max(1_000_000));
}

/// Drives message-paced traffic: sends one `msg_size` message, then the
/// next each time the previous drains (the `write(); write(); ...` loop
/// of a benchmark client). Runs forever; experiments stop at the window
/// edge.
pub fn message_paced(socket: &Socket, sim: &mut Sim, msg_size: u64) {
    let s = socket.clone();
    socket.set_handler(move |sim, ev| {
        if matches!(ev, SocketEvent::SendReady) {
            s.send(sim, msg_size);
        }
    });
    socket.send(sim, msg_size);
}
