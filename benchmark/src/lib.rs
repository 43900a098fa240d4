//! Host-performance benchmark for the ioat-sim simulator.
//!
//! Four workloads drive the simulator's layers through their public entry
//! points. A run prints the end-to-end metrics (host seconds per pass,
//! set-up time, peak memory) or, traced, one metric per
//! layer, and checks that every simulation is deterministic, audit-clean
//! and keeps the paper's claims. See `README.md` in this directory.

pub mod cells;
pub mod measure;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
