//! Fig. 4 — multi-stream bandwidth.
//!
//! Like the bi-directional test but one machine is purely a server: N
//! client threads stream to N server threads, connections distributed
//! round-robin over the six ports. The paper sweeps N up to 12 and
//! observes non-I/OAT's CPU climbing to 76 % (vs 52 % with I/OAT) with a
//! bandwidth dip at 12 threads.

use crate::calibration::{self, NodeProfile};
use crate::cluster::{Cluster, NodeConfig};
use crate::metrics::{Comparison, ExperimentWindow, ThroughputResult};
use crate::microbench::stream;
use ioat_netsim::{IoatConfig, SocketOpts};
use ioat_simcore::time::Bandwidth;

/// Configuration of a multi-stream run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStreamConfig {
    /// Number of streaming threads (connections).
    pub threads: usize,
    /// Ports available (connections are spread round-robin).
    pub ports: usize,
    /// Socket options.
    pub opts: SocketOpts,
    /// Measurement window.
    pub window: ExperimentWindow,
    /// Per-port line rate (the paper's testbed: 1 GbE).
    pub link: Bandwidth,
    /// Hardware era both endpoints are calibrated against.
    pub profile: NodeProfile,
}

impl MultiStreamConfig {
    /// The paper's configuration at a given thread count.
    pub fn paper(threads: usize) -> Self {
        MultiStreamConfig {
            threads,
            ports: calibration::TESTBED_PORTS,
            opts: SocketOpts::tuned(),
            window: ExperimentWindow::standard(),
            link: calibration::port_bandwidth(),
            profile: NodeProfile::Testbed2007,
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test(threads: usize) -> Self {
        MultiStreamConfig {
            ports: 2,
            window: ExperimentWindow::quick(),
            ..Self::paper(threads)
        }
    }

    /// The same run shape at a different line rate and hardware era —
    /// the multistream cell of the modern-offload ablation.
    pub fn with_link(mut self, link: Bandwidth, profile: NodeProfile) -> Self {
        self.link = link;
        self.profile = profile;
        self
    }
}

/// Runs the multi-stream test; CPU is reported on the receiving server.
pub fn run(cfg: &MultiStreamConfig, ioat: IoatConfig) -> ThroughputResult {
    assert!(cfg.threads > 0, "at least one stream required");
    let mut cluster = Cluster::new();
    cluster.set_bandwidth(cfg.link);
    let client = cluster.add_node(NodeConfig::profiled("client", ioat, cfg.profile));
    let server = cluster.add_node(NodeConfig::profiled("server", ioat, cfg.profile));
    let pairs = cluster.connect_ports(client, server, cfg.ports, cfg.opts.coalescing);

    let hint = cfg.window.to().as_nanos();
    // Offered load per stream tracks the line rate so faster links stay
    // busy through the window (at 1 GbE this is the paper's 1000 Mbps).
    let rate_mbps = cfg.link.as_bps() as f64 / 1e6;
    for t in 0..cfg.threads {
        let pair = pairs[t % pairs.len()];
        let (s_tx, _) = cluster.open(client, server, pair, cfg.opts);
        stream(&s_tx, cluster.sim_mut(), hint, rate_mbps);
    }

    let (_, to) = cfg.window.execute(&mut cluster, &[client, server]);
    let rxs = cluster.stack(server).borrow();
    let txs = cluster.stack(client).borrow();
    ThroughputResult {
        mbps: rxs.rx_meter().mbps(to),
        rx_cpu: rxs.cpu_utilization(),
        tx_cpu: txs.cpu_utilization(),
        rx_occupancy: rxs.cpu_occupancy(),
    }
}

/// Runs both configurations and pairs them.
pub fn compare(cfg: &MultiStreamConfig) -> Comparison {
    Comparison {
        non_ioat: run(cfg, IoatConfig::disabled()),
        ioat: run(cfg, IoatConfig::full()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_than_ports_share_bandwidth() {
        let r = run(&MultiStreamConfig::quick_test(4), IoatConfig::disabled());
        // 4 threads over 2 ports: aggregate is bounded by 2 ports' rates.
        assert!(
            (1_500.0..2_000.0).contains(&r.mbps),
            "aggregate {:.0} Mbps",
            r.mbps
        );
    }

    #[test]
    fn cpu_grows_with_thread_count() {
        let few = run(&MultiStreamConfig::quick_test(2), IoatConfig::disabled());
        let many = run(&MultiStreamConfig::quick_test(8), IoatConfig::disabled());
        assert!(
            many.rx_cpu > few.rx_cpu,
            "8 threads {:.3} should cost more CPU than 2 {:.3}",
            many.rx_cpu,
            few.rx_cpu
        );
    }

    #[test]
    fn ioat_saves_cpu_under_many_streams() {
        let c = compare(&MultiStreamConfig::quick_test(8));
        assert!(
            c.relative_cpu_benefit() > 0.05,
            "benefit {:.3}",
            c.relative_cpu_benefit()
        );
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_threads_is_rejected() {
        run(&MultiStreamConfig::quick_test(0), IoatConfig::disabled());
    }
}
