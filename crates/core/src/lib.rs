//! `ioat-core` — the I/OAT cluster model and micro-benchmark suite.
//!
//! This crate is the reproduction's subject: it assembles the substrates
//! (`ioat-simcore`, `ioat-memsim`, `ioat-netsim`) into the paper's
//! two-node testbed and implements §4's micro-benchmarks:
//!
//! * [`cluster`] — build nodes and multi-port GigE fabrics
//!   ([`Cluster`], [`NodeConfig`]).
//! * [`metrics`] — warm-up/measure experiment windows and result types.
//! * [`calibration`] — the paper-testbed parameter set and the provenance
//!   of every constant.
//! * [`microbench`] — bandwidth (Fig. 3a), bi-directional bandwidth
//!   (Fig. 3b), multi-stream bandwidth (Fig. 4), the socket-optimization
//!   sweep (Fig. 5), the CPU-vs-DMA copy comparison (Fig. 6) and the
//!   feature split-up (Fig. 7).
//!
//! # Quickstart
//!
//! ```rust
//! use ioat_core::microbench::bandwidth::{self, BandwidthConfig};
//! use ioat_netsim::IoatConfig;
//!
//! let mut cfg = BandwidthConfig::quick_test();
//! cfg.ports = 2;
//! let non = bandwidth::run(&cfg, IoatConfig::disabled());
//! let ioat = bandwidth::run(&cfg, IoatConfig::full());
//! assert!(ioat.rx_cpu <= non.rx_cpu + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibration;
pub mod cluster;
pub mod metrics;
pub mod microbench;

pub use cluster::{Cluster, NodeConfig, NodeHandle};
pub use metrics::{ExperimentWindow, ThroughputResult};

// Re-export the configuration types callers need.
pub use ioat_netsim::{IoatConfig, SocketOpts, StackParams};

#[cfg(test)]
mod send_contract {
    //! The sweep executor (`ioat-bench::sweep`) moves figure-point jobs —
    //! and the configs they capture — onto worker threads. Simulations
    //! stay single-threaded (`Sim` is `Rc`-based and never crosses a
    //! thread); only the plain-data *configuration* types must be `Send`.
    //! These assertions turn an accidental `Rc`/`RefCell` field added to
    //! a config into a compile error instead of a distant bench failure.
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn config_types_are_send() {
        assert_send::<IoatConfig>();
        assert_send::<SocketOpts>();
        assert_send::<StackParams>();
        assert_send::<ExperimentWindow>();
        assert_send::<ThroughputResult>();
        assert_send::<NodeConfig>();
        assert_send::<microbench::bandwidth::BandwidthConfig>();
        assert_send::<microbench::bidirectional::BidirConfig>();
        assert_send::<microbench::multistream::MultiStreamConfig>();
        assert_send::<microbench::splitup::SplitupConfig>();
        assert_send::<microbench::copybench::CopyRow>();
    }
}
