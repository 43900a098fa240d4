//! Fig. 3a — bandwidth vs number of network ports.
//!
//! The `ttcp` bandwidth test: one node streams to the other over 1–6
//! dedicated GigE port pairs, one connection per port. The receiver's
//! overall CPU utilization is the paper's headline comparison.

use crate::calibration;
use crate::cluster::{Cluster, NodeConfig};
use crate::metrics::{ExperimentWindow, ThroughputResult};
use crate::microbench::stream;
use ioat_faults::FaultPlan;
use ioat_netsim::{IoatConfig, SocketOpts};

/// Configuration of a bandwidth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthConfig {
    /// Number of dedicated port pairs (the paper sweeps 1–6).
    pub ports: usize,
    /// Socket options (the paper's Fig. 3 uses the tuned configuration).
    pub opts: SocketOpts,
    /// Measurement window.
    pub window: ExperimentWindow,
}

impl BandwidthConfig {
    /// The paper's configuration at a given port count.
    pub fn paper(ports: usize) -> Self {
        assert!(
            (1..=calibration::TESTBED_PORTS).contains(&ports),
            "the testbed has 1..=6 ports"
        );
        BandwidthConfig {
            ports,
            opts: SocketOpts::tuned(),
            window: ExperimentWindow::standard(),
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn quick_test() -> Self {
        BandwidthConfig {
            ports: 1,
            opts: SocketOpts::tuned(),
            window: ExperimentWindow::quick(),
        }
    }
}

/// A [`ThroughputResult`] plus the fault/recovery activity of the run,
/// summed over both endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedThroughputResult {
    /// Throughput and CPU utilization, as in the fault-free test.
    pub throughput: ThroughputResult,
    /// Frames dropped at egress by the loss model.
    pub frames_dropped: u64,
    /// Retransmission rounds (fast retransmit + RTO).
    pub retransmits: u64,
    /// Bytes rewound for retransmission.
    pub retransmitted_bytes: u64,
    /// Retransmission-timer expiries.
    pub rto_timeouts: u64,
}

/// Runs the bandwidth test with the given feature set on both nodes.
pub fn run(cfg: &BandwidthConfig, ioat: IoatConfig) -> ThroughputResult {
    run_with_faults(cfg, ioat, &FaultPlan::none()).throughput
}

/// The bandwidth test under a fault plan. With [`FaultPlan::none()`]
/// this is exactly [`run`] (bit-identical; `run` is defined in terms of
/// it); with loss configured the recovery counters report how hard the
/// stack worked to keep the stream flowing.
pub fn run_with_faults(
    cfg: &BandwidthConfig,
    ioat: IoatConfig,
    faults: &FaultPlan,
) -> FaultedThroughputResult {
    let mut cluster = Cluster::measured(cfg.window);
    cluster.set_faults(faults);
    let tx = cluster.add_node(NodeConfig::testbed("sender", ioat));
    let rx = cluster.add_node(NodeConfig::testbed("receiver", ioat));
    let pairs = cluster.connect_ports(tx, rx, cfg.ports, cfg.opts.coalescing);

    let hint = cfg.window.to().as_nanos();
    for pair in pairs {
        let (s_tx, _s_rx) = cluster.open(tx, rx, pair, cfg.opts);
        stream(&s_tx, cluster.sim_mut(), hint, 1_000.0);
    }

    cluster.run_measured();
    let st = cluster.stack(tx).borrow().stats();
    let sr = cluster.stack(rx).borrow().stats();
    FaultedThroughputResult {
        throughput: ThroughputResult::read(&cluster, rx, tx),
        frames_dropped: st.frames_dropped + sr.frames_dropped,
        retransmits: st.retransmits + sr.retransmits,
        retransmitted_bytes: st.retransmitted_bytes + sr.retransmitted_bytes,
        rto_timeouts: st.rto_timeouts + sr.rto_timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_simcore::stats::relative_benefit;

    #[test]
    fn single_port_reaches_near_line_rate() {
        let r = run(&BandwidthConfig::quick_test(), IoatConfig::disabled());
        assert!(
            (800.0..980.0).contains(&r.mbps),
            "1-port bandwidth {:.0} Mbps",
            r.mbps
        );
        assert!(r.rx_cpu > 0.0 && r.rx_cpu < 1.0);
    }

    #[test]
    fn bandwidth_scales_with_ports() {
        let one = run(&BandwidthConfig::quick_test(), IoatConfig::disabled());
        let mut cfg = BandwidthConfig::quick_test();
        cfg.ports = 2;
        let two = run(&cfg, IoatConfig::disabled());
        assert!(
            two.mbps > 1.7 * one.mbps,
            "2 ports {:.0} vs 1 port {:.0}",
            two.mbps,
            one.mbps
        );
    }

    #[test]
    fn ioat_reduces_receiver_cpu() {
        let mut cfg = BandwidthConfig::quick_test();
        cfg.ports = 2;
        let non = run(&cfg, IoatConfig::disabled());
        let ioat = run(&cfg, IoatConfig::full());
        let benefit = relative_benefit(ioat.rx_cpu, non.rx_cpu);
        assert!(
            benefit > 0.0,
            "expected positive CPU benefit, got {benefit:.3} ({:.3} vs {:.3})",
            ioat.rx_cpu,
            non.rx_cpu
        );
        // Throughput is genuinely wire-bound at 2 ports for this
        // *micro-benchmark*: the ttcp-style sink processes frames in
        // kernel context across all cores, so CPU never saturates first
        // (re-verified for PR 8 — unlike PVFS, where the serial
        // single-threaded daemons make CPU the binding constraint).
        assert!((ioat.mbps - non.mbps).abs() / non.mbps < 0.1);
    }

    #[test]
    #[should_panic(expected = "1..=6 ports")]
    fn port_count_is_validated() {
        BandwidthConfig::paper(7);
    }

    #[test]
    fn loss_degrades_throughput_but_keeps_ioat_cpu_advantage() {
        let cfg = BandwidthConfig::quick_test();
        let clean = run_with_faults(&cfg, IoatConfig::disabled(), &FaultPlan::none());
        let lossy = run_with_faults(
            &cfg,
            IoatConfig::disabled(),
            &FaultPlan::bernoulli_loss(1, 1e-3),
        );
        assert!(lossy.frames_dropped > 0);
        assert!(lossy.retransmits > 0);
        assert!(
            lossy.throughput.mbps < clean.throughput.mbps,
            "loss must cost throughput: {:.0} vs {:.0}",
            lossy.throughput.mbps,
            clean.throughput.mbps
        );
        let lossy_ioat = run_with_faults(
            &cfg,
            IoatConfig::full(),
            &FaultPlan::bernoulli_loss(1, 1e-3),
        );
        assert!(
            lossy_ioat.throughput.rx_cpu < lossy.throughput.rx_cpu,
            "I/OAT CPU advantage must persist under loss"
        );
    }
}
