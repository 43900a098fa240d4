//! Sim-time tracing for ioat-sim.
//!
//! The paper's headline results are *attributions*, not aggregates: Fig. 7
//! splits receive-path CPU time into interrupt handling, TCP/IP processing
//! and kernel-to-user copy. This crate provides the event-trace layer every
//! model component emits into and from which figures, timelines and
//! regressions are derived:
//!
//! * [`Tracer`] — a cheaply cloneable handle recording span / instant /
//!   counter events stamped in [`SimTime`](ioat_simcore::SimTime), with a
//!   [`Category`] per event and a per-node/per-core [`TrackId`]. A disabled
//!   tracer is a no-op; an enabled tracer only *records* values the models
//!   already computed, so tracing is bit-for-bit non-perturbing.
//! * [`export`] — Chrome `trace_event` JSON (loadable in Perfetto /
//!   `chrome://tracing`) and CSV, hand-rolled with no external
//!   dependencies.
//! * [`report`] — the derived CPU split-up that groups span time per
//!   category per core, regenerating the paper's Fig. 7 decomposition.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod report;
pub mod tracer;

pub use report::{cpu_splitup, SplitupReport};
pub use tracer::{Category, Event, EventKind, Tracer, TrackId};
