//! Experiment measurement: warm-up + window handling and result types.

use crate::cluster::{Cluster, NodeHandle};
use ioat_simcore::stats::relative_benefit;
use ioat_simcore::{SimDuration, SimTime};

/// A warm-up + measurement window pair.
///
/// Experiments run the workload for `warmup` of simulated time (caches
/// fill, windows open, queues reach steady state), then measure for
/// `measure`. Throughput and CPU utilization are reported over the
/// measurement window only, the way the paper's `ttcp` runs report
/// steady-state numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentWindow {
    /// Warm-up length (excluded from all metrics).
    pub warmup: SimDuration,
    /// Measurement length.
    pub measure: SimDuration,
}

impl ExperimentWindow {
    /// The standard window used by the figure harnesses.
    pub fn standard() -> Self {
        ExperimentWindow {
            warmup: SimDuration::from_millis(30),
            measure: SimDuration::from_millis(150),
        }
    }

    /// A short window for unit tests (keeps debug-mode tests fast).
    pub fn quick() -> Self {
        ExperimentWindow {
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(25),
        }
    }

    /// Measurement start time.
    pub fn from(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    /// Measurement end time.
    pub fn to(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// Runs `cluster` through warm-up, opens the measurement window on the
    /// given nodes, runs it and returns `(from, to)`.
    pub fn execute(&self, cluster: &mut Cluster, nodes: &[NodeHandle]) -> (SimTime, SimTime) {
        cluster.run_until(self.from());
        for &n in nodes {
            cluster
                .stack(n)
                .borrow_mut()
                .begin_measurement(self.from(), self.to());
        }
        cluster.run_until(self.to());
        // Every figure harness funnels through here, so this one call
        // gives the whole suite end-of-window invariant coverage. Gated:
        // release sweeps without `--audit` skip even the cheap reads.
        if ioat_guard::enabled() {
            cluster.run_audits();
        }
        (self.from(), self.to())
    }
}

/// Throughput + CPU result for one configuration of one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Application-level goodput in Mbps (10^6 bits/s).
    pub mbps: f64,
    /// Receiver-node overall CPU utilization in `[0, 1]` — time spent
    /// doing *work* (a busy-poll spin loop does not count).
    pub rx_cpu: f64,
    /// Sender-node overall CPU utilization in `[0, 1]`.
    pub tx_cpu: f64,
    /// Receiver-node core *occupancy* in `[0, 1]`: like `rx_cpu`, but a
    /// core pinned to a busy-poll receive loop counts as fully occupied
    /// for the whole window. Equals `rx_cpu` for interrupt-driven modes;
    /// the gap times the core count is the cores polling burns — the
    /// cores you could reclaim by switching to interrupts or I/OAT.
    pub rx_occupancy: f64,
}

/// An I/OAT vs non-I/OAT comparison row, with the paper's derived
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The non-I/OAT result.
    pub non_ioat: ThroughputResult,
    /// The I/OAT result.
    pub ioat: ThroughputResult,
}

impl Comparison {
    /// The paper's "relative CPU benefit": `(b - a) / b` on receiver CPU.
    pub fn relative_cpu_benefit(&self) -> f64 {
        relative_benefit(self.ioat.rx_cpu, self.non_ioat.rx_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds() {
        let w = ExperimentWindow::standard();
        assert_eq!(w.from(), SimTime::from_millis(30));
        assert_eq!(w.to(), SimTime::from_millis(180));
    }

    #[test]
    fn comparison_metrics_match_paper_formulas() {
        let c = Comparison {
            non_ioat: ThroughputResult {
                mbps: 5514.0,
                rx_cpu: 0.37,
                tx_cpu: 0.2,
                rx_occupancy: 0.37,
            },
            ioat: ThroughputResult {
                mbps: 5586.0,
                rx_cpu: 0.29,
                tx_cpu: 0.2,
                rx_occupancy: 0.29,
            },
        };
        // §4.1: 37% vs 29% is "close to 21%" relative benefit.
        assert!((c.relative_cpu_benefit() - 0.216).abs() < 0.01);
    }
}
