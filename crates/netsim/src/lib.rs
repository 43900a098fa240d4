//! Network substrate for `ioat-sim`.
//!
//! Models the paper's testbed network end to end:
//!
//! * [`link`] — full-duplex point-to-point GigE links with serialization
//!   and propagation delay (the testbed pairs ports through per-VLAN
//!   switch paths, so each port pair behaves as a dedicated link).
//! * [`nic`] — NIC ports: transmit rings, receive-side interrupt
//!   generation with optional coalescing, TSO large-send support, jumbo
//!   frames, the I/OAT split-header receive placement and multiple receive
//!   queues.
//! * [`tcp`] — simplified TCP connections: MSS segmentation, a
//!   byte-granular sliding window bounded by the socket buffers, and
//!   cumulative ACKs with piggybacked window updates.
//! * [`stack`] — the host kernel path cost model: interrupt handling,
//!   per-packet protocol processing with cache interactions (connection
//!   state, header and payload lines), kernel↔user copies by CPU
//!   `memcpy` or by the I/OAT DMA engine, syscall and thread wake costs.
//! * [`socket`] — the application-facing API ([`Socket`], callbacks for
//!   delivery and send-readiness) used by the micro-benchmarks, the
//!   data-center tier servers and the PVFS daemons.
//! * [`config`] — [`SocketOpts`] (the paper's optimization "Cases 1–5")
//!   and [`IoatConfig`] (which I/OAT features are enabled).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod link;
pub mod msg;
pub mod nic;
pub mod socket;
pub mod stack;
pub mod tcp;

pub use config::{IoatConfig, RxMode, SocketOpts, StackParams};
pub use link::Link;
pub use msg::MsgSender;
pub use nic::{Frame, FRAME_OVERHEAD};
pub use socket::{Socket, SocketEvent};
pub use stack::{FrameRouter, HostStack, StackRef};
pub use tcp::ConnId;
