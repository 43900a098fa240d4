//! Calibration: every model constant, with its provenance.
//!
//! The simulator cannot reproduce the paper's absolute numbers (that would
//! require the authors' exact silicon); what it must reproduce is the
//! *shape* of every figure. The constants here are derived from three
//! sources:
//!
//! 1. **The paper's testbed description** (§4): dual-core dual 3.46 GHz
//!    Xeon (4 cores), 2 MB L2, Intel PRO/1000 adapters (six GigE ports),
//!    Linux 2.6 with the Intel I/OAT patch.
//! 2. **The paper's own measurements**: Fig. 6 pins the relative costs of
//!    cached copies, cold copies and DMA-engine copies (crossover ≈ 8 KB,
//!    overlap ≈ 93 % at 64 KB).
//! 3. **The TCP/IP processing studies the paper cites**: Clark et al.
//!    \[11], Makineni & Iyer \[15] and Regnier et al. \[16] put
//!    receive-side processing at a few microseconds per packet on this
//!    class of hardware, dominated by memory stalls.

use ioat_memsim::CacheConfig;
use ioat_netsim::StackParams;
use ioat_simcore::time::Bandwidth;
use ioat_simcore::SimDuration;

/// Cores per node on the paper's testbed (dual-socket, dual-core).
pub const TESTBED_CORES: usize = 4;

/// Number of GigE ports per node (three dual-port PRO/1000 adapters).
pub const TESTBED_PORTS: usize = 6;

/// Per-port line rate.
pub fn port_bandwidth() -> Bandwidth {
    Bandwidth::from_gbps(1)
}

/// One-way port-to-port latency through the Netgear GigE switch
/// (store-and-forward of a full frame plus fixed fabric delay; ~25 µs is
/// typical for this era of switch at 1500-byte frames).
pub fn switch_latency() -> SimDuration {
    SimDuration::from_micros(25)
}

/// The testbed's L2 cache (2 MB, 8-way, 64-byte lines).
pub fn testbed_cache() -> CacheConfig {
    CacheConfig::paper_l2()
}

/// The calibrated host-stack parameter set used by every experiment.
///
/// See [`StackParams`] for the meaning of each field; the defaults *are*
/// the calibrated values, so this is an alias kept for readability at call
/// sites.
pub fn testbed_params() -> StackParams {
    StackParams::default()
}

/// Cores per node on the 2026-class host profile (one mid-range server
/// socket's worth of cores given to network processing).
pub const MODERN_CORES: usize = 8;

/// A 2026-class node's last-level cache: 32 MB, 16-way, 64-byte lines.
pub fn modern_cache() -> CacheConfig {
    CacheConfig {
        capacity: 32 * 1024 * 1024,
        associativity: 16,
        line_size: 64,
    }
}

/// Hardware era a node is calibrated against — the host axis of the
/// modern-offload ablation (`repro abl-modern`).
///
/// [`NodeProfile::Testbed2007`] is the paper's machine and is the default
/// everywhere; every paper figure is pinned to it. [`NodeProfile::Modern2026`]
/// scales the per-packet software costs, copy bandwidth, DMA engine and
/// cache to a current-generation server so the ablation can ask whether
/// I/OAT's CPU advantage survives two decades of both hardware and stack
/// evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeProfile {
    /// The paper's testbed: 4 cores, 2 MB L2, 2007-era per-packet costs.
    #[default]
    Testbed2007,
    /// A 2026-class server: 8 cores, 32 MB LLC, ~3× cheaper per-packet
    /// software costs, DDR5 copy bandwidth, modern on-die DMA engine.
    Modern2026,
}

impl NodeProfile {
    /// Cores per node under this profile.
    pub fn cores(&self) -> usize {
        match self {
            NodeProfile::Testbed2007 => TESTBED_CORES,
            NodeProfile::Modern2026 => MODERN_CORES,
        }
    }

    /// Calibrated host-stack parameters under this profile.
    pub fn params(&self) -> StackParams {
        match self {
            NodeProfile::Testbed2007 => testbed_params(),
            NodeProfile::Modern2026 => StackParams::modern_2026(),
        }
    }

    /// Cache geometry under this profile.
    pub fn cache(&self) -> CacheConfig {
        match self {
            NodeProfile::Testbed2007 => testbed_cache(),
            NodeProfile::Modern2026 => modern_cache(),
        }
    }

    /// Short stable tag for dotted row IDs.
    pub fn tag(&self) -> &'static str {
        match self {
            NodeProfile::Testbed2007 => "2007",
            NodeProfile::Modern2026 => "2026",
        }
    }
}

/// Theoretical TCP goodput of one GigE port with standard frames:
/// 1460 / 1538 of the line rate ≈ 949 Mbps.
pub fn gige_goodput_mbps(mtu: u64) -> f64 {
    let mss = mtu - 40;
    let wire = mss + ioat_netsim::FRAME_OVERHEAD;
    1000.0 * mss as f64 / wire as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_bounds() {
        let std = gige_goodput_mbps(1500);
        assert!((948.0..951.0).contains(&std), "std goodput {std}");
        let jumbo = gige_goodput_mbps(2048);
        assert!(jumbo > std, "jumbo frames carry more payload per wire byte");
    }

    #[test]
    fn testbed_matches_paper() {
        assert_eq!(TESTBED_CORES, 4);
        assert_eq!(TESTBED_PORTS, 6);
        assert_eq!(testbed_cache().capacity, 2 * 1024 * 1024);
        assert_eq!(port_bandwidth().as_bps(), 1_000_000_000);
    }
}
