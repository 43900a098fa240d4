//! Multi-tier data-center application domain (§3.1, §5 of the paper).
//!
//! Builds the paper's two-tier testbed on top of `ioat-netsim`: a cluster
//! of closed-loop clients fires HTTP-like requests at an Apache-style
//! proxy tier, which serves from its cache or forwards to the web-server
//! tier. Reproduces:
//!
//! * Fig. 8a — TPS for single-file traces of 2 K–10 K.
//! * Fig. 8b — TPS for Zipf(α) traces, α ∈ {0.95, 0.9, 0.75, 0.5}.
//! * Fig. 9 — emulated clients *inside* the data-center (the proxy node
//!   fires requests at the web server) with 1–256 threads on a 16 K file.
//!
//! Modules:
//!
//! * [`workload`] — Zipf and single-file trace generators.
//! * [`cache`] — the proxy's LRU content cache.
//! * [`costs`] — Apache-era per-request CPU cost model.
//! * [`tiers`] — the two-tier testbed assembly and closed-loop drivers.
//! * [`emulated`] — the Fig. 9 scenario.
//! * [`scale`] — the same tiers behind a Clos fabric at datacenter
//!   scale: thousands of servers, up to ~10⁶ emulated Zipf clients,
//!   streaming statistics.
//! * [`parallel`] — the engine that runs [`scale`], partitioned along
//!   the fabric for the conservative parallel engine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod costs;
pub mod emulated;
pub mod parallel;
pub mod scale;
pub mod tiers;
pub mod workload;

pub use cache::LruCache;
pub use costs::DataCenterCosts;
pub use parallel::run_partitioned;
pub use scale::{ScaleConfig, ScaleResult};
pub use tiers::{DataCenterConfig, DataCenterResult};
pub use workload::{FileCatalog, Request, SingleFileTrace, ZipfTrace};

#[cfg(test)]
mod send_contract {
    //! Parallel figure sweeps move these configs across worker threads;
    //! see the matching module in `ioat-core`. Runtime actors stay
    //! `Rc`-based and single-threaded — only configs must be `Send`.
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn config_types_are_send() {
        assert_send::<DataCenterConfig>();
        assert_send::<emulated::EmulatedConfig>();
        assert_send::<DataCenterCosts>();
        assert_send::<Request>();
        assert_send::<DataCenterResult>();
        assert_send::<ScaleConfig>();
        assert_send::<ScaleResult>();
    }
}
