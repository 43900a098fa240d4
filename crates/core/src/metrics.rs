//! Experiment measurement: warm-up + window handling and result types.

use crate::cluster::{Cluster, NodeHandle};
use ioat_simcore::{SimDuration, SimTime};

/// A warm-up + measurement window pair.
///
/// Experiments run the workload for `warmup` of simulated time (caches
/// fill, windows open, queues reach steady state), then measure for
/// `measure`. Throughput and CPU utilization are reported over the
/// measurement window only, the way the paper's `ttcp` runs report
/// steady-state numbers. A [`Cluster::measured`](crate::Cluster::measured)
/// cluster opens the window on every node before the run starts.
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

impl ThroughputResult {
    /// Reads a run's result off a cluster that has run its window:
    /// goodput is the sum of both nodes' receive meters (a one-way
    /// sender's reads exactly 0), receiver CPU and occupancy come from
    /// `receiver` and sender CPU from `sender`.
    pub(crate) fn read(cluster: &Cluster, receiver: NodeHandle, sender: NodeHandle) -> Self {
        let to = cluster.window().to();
        let rx = cluster.stack(receiver).borrow();
        let tx = cluster.stack(sender).borrow();
        ThroughputResult {
            mbps: tx.rx_meter().mbps(to) + rx.rx_meter().mbps(to),
            rx_cpu: rx.cpu_utilization(),
            tx_cpu: tx.cpu_utilization(),
            rx_occupancy: rx.cpu_occupancy(),
        }
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
}
