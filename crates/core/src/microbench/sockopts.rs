//! Fig. 5 — bandwidth and bi-directional bandwidth under the socket
//! optimization Cases 1–5.
//!
//! Case 1: defaults. Case 2: +1 MB socket buffers. Case 3: +TSO.
//! Case 4: +jumbo (2048-byte) frames. Case 5: +interrupt coalescing.
//! Each case runs with I/OAT and non-I/OAT at the full six ports; the
//! paper's derived metric is the relative CPU benefit per case.

use crate::calibration;
use crate::metrics::{Comparison, ExperimentWindow};
use crate::microbench::bandwidth::{self, BandwidthConfig};
use crate::microbench::bidirectional::{self, BidirConfig};
use ioat_netsim::SocketOpts;

/// One row of the Fig. 5 sweep.
#[derive(Debug, Clone)]
pub struct CaseRow {
    /// Case label ("Case 1" … "Case 5").
    pub case: String,
    /// Paired I/OAT vs non-I/OAT result.
    pub comparison: Comparison,
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Port pairs to drive (the paper uses all six).
    pub ports: usize,
    /// Measurement window.
    pub window: ExperimentWindow,
}

impl SweepConfig {
    /// The paper's sweep.
    pub fn paper() -> Self {
        SweepConfig {
            ports: calibration::TESTBED_PORTS,
            window: ExperimentWindow::standard(),
        }
    }

    /// Small fast sweep for unit tests.
    pub fn quick_test() -> Self {
        SweepConfig {
            ports: 2,
            window: ExperimentWindow::quick(),
        }
    }
}

/// Runs one Fig. 5a case (uni-directional bandwidth). The per-case entry
/// point lets sweep executors fan the cases out as independent jobs.
pub fn case_bandwidth(cfg: &SweepConfig, label: &str, opts: SocketOpts) -> CaseRow {
    let bw = BandwidthConfig {
        ports: cfg.ports,
        opts,
        window: cfg.window,
    };
    CaseRow {
        case: label.to_string(),
        comparison: bandwidth::compare(&bw),
    }
}

/// Runs one Fig. 5b case (bi-directional bandwidth).
pub fn case_bidirectional(cfg: &SweepConfig, label: &str, opts: SocketOpts) -> CaseRow {
    let bd = BidirConfig {
        ports: cfg.ports,
        opts,
        window: cfg.window,
    };
    CaseRow {
        case: label.to_string(),
        comparison: bidirectional::compare(&bd),
    }
}

/// Runs the Fig. 5a sweep (uni-directional bandwidth).
pub fn sweep_bandwidth(cfg: &SweepConfig) -> Vec<CaseRow> {
    SocketOpts::all_cases()
        .into_iter()
        .map(|(label, opts)| case_bandwidth(cfg, label, opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizations_do_not_hurt_throughput() {
        let rows = sweep_bandwidth(&SweepConfig::quick_test());
        assert_eq!(rows.len(), 5);
        let first = rows.first().unwrap().comparison.non_ioat.mbps;
        let last = rows.last().unwrap().comparison.non_ioat.mbps;
        assert!(
            last >= first * 0.95,
            "Case 5 ({last:.0} Mbps) should not fall below Case 1 ({first:.0} Mbps)"
        );
    }

    #[test]
    fn optimizations_reduce_cpu_cost() {
        let rows = sweep_bandwidth(&SweepConfig::quick_test());
        let case1 = rows[0].comparison.non_ioat.rx_cpu;
        let case5 = rows[4].comparison.non_ioat.rx_cpu;
        assert!(
            case5 < case1,
            "Case 5 CPU {case5:.3} should be below Case 1 {case1:.3}"
        );
    }
}
