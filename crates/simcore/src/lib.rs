//! Deterministic discrete-event simulation kernel for `ioat-sim`.
//!
//! This crate provides the substrate every other `ioat-sim` crate builds on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with unit helpers (bytes, bandwidths, frequencies).
//! * [`engine`] — the event loop ([`Sim`]): a 4-ary heap of scheduled
//!   closures with deterministic tie-breaking, event cancellation and
//!   run-until-limit execution.
//! * [`resource`] — non-preemptive serialized resources ([`Resource`]) used
//!   to model CPU cores and DMA channels, each summing its busy time
//!   inside one measurement window.
//! * [`stats`] — counters, rate meters, summaries and log-scale histograms.
//! * [`rng`] — a seedable, reproducible random-number source.
//!
//! # Example
//!
//! ```rust
//! use ioat_simcore::{Sim, SimDuration};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new();
//! let fired = Rc::new(Cell::new(0u32));
//! let f = Rc::clone(&fired);
//! sim.schedule(SimDuration::from_micros(5), move |_sim| {
//!     f.set(f.get() + 1);
//! });
//! sim.run();
//! assert_eq!(fired.get(), 1);
//! assert_eq!(sim.now().as_nanos(), 5_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EventId, Sim};
pub use hash::{stable_mix, FastHashMap, FastHashSet};
pub use resource::{Resource, UtilizationMeter};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, RateMeter, Summary};
pub use time::{SimDuration, SimTime};
