//! Fig. 7 — per-feature benefit split-up.
//!
//! Three configurations over four port pairs with four streaming clients:
//! non-I/OAT, I/OAT-DMA (copy engine only) and I/OAT-SPLIT (copy engine +
//! split headers). Fig. 7a sweeps 16 K–128 K messages and attributes CPU
//! benefit to the DMA engine; Fig. 7b sweeps 1 M–8 M messages — with four
//! clients the server's in-flight application data exceeds the 2 MB L2,
//! and split headers avoid the cache pollution that otherwise slows the
//! receive path (§4.5).
//!
//! Message pacing matters here: each client keeps one message of the given
//! size outstanding, so the in-flight footprint scales with message size
//! (socket buffers are sized `clamp(msg, 64 K, 1 M)`, as a benchmark tool
//! would).

use crate::cluster::{Cluster, NodeConfig};
use crate::metrics::{ExperimentWindow, ThroughputResult};
use crate::microbench::message_paced;
use ioat_netsim::{IoatConfig, SocketOpts};
use ioat_simcore::stats::{relative_benefit, relative_improvement};

/// One row of the Fig. 7 split-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitupRow {
    /// Message size in bytes.
    pub msg_size: u64,
    /// Baseline (non-I/OAT).
    pub non_ioat: ThroughputResult,
    /// DMA engine only.
    pub ioat_dma: ThroughputResult,
    /// DMA engine + split headers.
    pub ioat_split: ThroughputResult,
}

impl SplitupRow {
    /// CPU benefit attributed to the DMA engine (Fig. 7a):
    /// non-I/OAT → I/OAT-DMA.
    pub fn dma_cpu_benefit(&self) -> f64 {
        relative_benefit(self.ioat_dma.rx_cpu, self.non_ioat.rx_cpu)
    }

    /// CPU benefit attributed to split headers: I/OAT-DMA → I/OAT-SPLIT.
    pub fn split_cpu_benefit(&self) -> f64 {
        relative_benefit(self.ioat_split.rx_cpu, self.ioat_dma.rx_cpu)
    }

    /// Throughput benefit attributed to the DMA engine (Fig. 7b).
    pub fn dma_throughput_benefit(&self) -> f64 {
        relative_improvement(self.ioat_dma.mbps, self.non_ioat.mbps)
    }

    /// Throughput benefit attributed to split headers (Fig. 7b).
    pub fn split_throughput_benefit(&self) -> f64 {
        relative_improvement(self.ioat_split.mbps, self.ioat_dma.mbps)
    }
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitupConfig {
    /// Port pairs / client count (the paper uses four).
    pub ports: usize,
    /// Measurement window.
    pub window: ExperimentWindow,
}

impl SplitupConfig {
    /// The paper's setup: two dual-port adapters per node.
    pub fn paper() -> Self {
        SplitupConfig {
            ports: 4,
            window: ExperimentWindow::standard(),
        }
    }

    /// Small fast configuration for unit tests.
    pub fn quick_test() -> Self {
        SplitupConfig {
            ports: 2,
            window: ExperimentWindow::quick(),
        }
    }
}

/// Socket options used for a given message size: buffers track the
/// message size the way a benchmark client configures them.
pub fn opts_for(msg_size: u64) -> SocketOpts {
    let buf = msg_size.clamp(64 * 1024, 1024 * 1024);
    SocketOpts {
        sndbuf: buf,
        rcvbuf: buf,
        read_size: 64 * 1024,
        ..SocketOpts::tuned()
    }
}

/// Per-byte application processing cost on the server: each received
/// message is validated/consumed before the next read is posted (5.5 ns/B ≈
/// a validate-and-transform pass over cold data at this era's memory
/// bandwidth). While the
/// server thread processes, arriving data backs up in the kernel — which
/// is exactly how multi-megabyte messages overflow the L2 (§4.5).
pub const SERVER_PROCESS_NS_PER_BYTE: f64 = 5.5;

/// Runs one configuration at one message size.
pub fn run_one(cfg: &SplitupConfig, ioat: IoatConfig, msg_size: u64) -> ThroughputResult {
    run_one_traced(cfg, ioat, msg_size, &ioat_telemetry::Tracer::disabled()).0
}

/// [`run_one`] with a tracer attached to every node; also returns the
/// measurement window so callers can build a
/// [`ioat_telemetry::SplitupReport`] over exactly the measured interval.
pub fn run_one_traced(
    cfg: &SplitupConfig,
    ioat: IoatConfig,
    msg_size: u64,
    tracer: &ioat_telemetry::Tracer,
) -> (
    ThroughputResult,
    (ioat_simcore::SimTime, ioat_simcore::SimTime),
) {
    let opts = opts_for(msg_size);
    let mut cluster = Cluster::new();
    cluster.set_tracer(tracer.clone());
    let clients = cluster.add_node(NodeConfig::testbed("clients", ioat));
    let server = cluster.add_node(NodeConfig::testbed("server", ioat));
    let pairs = cluster.connect_ports(clients, server, cfg.ports, opts.coalescing);
    for pair in pairs {
        let (s_tx, s_rx) = cluster.open(clients, server, pair, opts);
        message_paced(&s_tx, cluster.sim_mut(), msg_size);
        // Server side: the receive loop reads until a whole message has
        // arrived, then processes it before reading again — while it
        // processes, arriving data backs up in the kernel.
        s_rx.set_recv_credits(1);
        let rx = s_rx.clone();
        let mut pending = 0u64;
        s_rx.set_handler(move |sim, ev| {
            if let ioat_netsim::SocketEvent::Delivered(bytes) = ev {
                pending += bytes;
                if pending >= msg_size {
                    pending -= msg_size;
                    let work = ioat_simcore::SimDuration::from_nanos(
                        (msg_size as f64 * SERVER_PROCESS_NS_PER_BYTE) as u64,
                    );
                    let rx2 = rx.clone();
                    rx.compute(sim, work, move |sim| rx2.post_recv(sim));
                } else {
                    rx.post_recv(sim);
                }
            }
        });
    }
    let (from, to) = cfg.window.execute(&mut cluster, &[clients, server]);
    let rxs = cluster.stack(server).borrow();
    let txs = cluster.stack(clients).borrow();
    audit_cycle_sum(&rxs, tracer, from, to);
    let result = ThroughputResult {
        mbps: rxs.rx_meter().mbps(to),
        rx_cpu: rxs.cpu_utilization(),
        tx_cpu: txs.cpu_utilization(),
        rx_occupancy: rxs.cpu_occupancy(),
    };
    (result, (from, to))
}

/// Fig. 7 accounting audit: the per-category CPU spans the tracer recorded
/// for the receiver, clipped to the measurement window, must sum to the
/// receiver cores' measured busy time *exactly* (integer nanoseconds, not
/// within a tolerance). This holds because spans are emitted at job
/// submission — in-flight jobs at window close already have their spans —
/// and every `run_job` partitions its busy interval into spans with no gap
/// or overlap. Only runs when the tracer records every CPU category (a
/// filtered tracer would undercount by construction).
fn audit_cycle_sum(
    rx: &ioat_netsim::stack::HostStack,
    tracer: &ioat_telemetry::Tracer,
    from: ioat_simcore::SimTime,
    to: ioat_simcore::SimTime,
) {
    use ioat_telemetry::{Category, EventKind};
    let cpu_cats = [
        Category::Interrupt,
        Category::Protocol,
        Category::Copy,
        Category::Dma,
        Category::App,
    ];
    if !ioat_guard::enabled() || !cpu_cats.iter().all(|&c| tracer.records(c)) {
        return;
    }
    let node = rx.node_id();
    let cores = rx.cores().len() as u32;
    let mut span_ns = 0u64;
    for ev in tracer.events() {
        if let EventKind::Span { start, end } = ev.kind {
            // CPU tracks only: the DMA channel's pseudo-track (core index
            // == core count) carries engine busy time, not CPU cycles.
            if ev.track.node == node && ev.track.core < cores {
                let s = start.max(from);
                let e = end.min(to);
                if e > s {
                    span_ns += e.as_nanos() - s.as_nanos();
                }
            }
        }
    }
    let busy_ns = rx.cores().busy().as_nanos();
    ioat_guard::check(
        "core/splitup",
        "Fig. 7 category cycles sum to measured busy time",
        to,
        span_ns == busy_ns,
        || {
            format!(
                "receiver spans sum to {span_ns} ns but cores were busy {busy_ns} ns \
                 over the window (delta {})",
                span_ns as i128 - busy_ns as i128
            )
        },
    );
}

/// Runs all three configurations at one message size.
pub fn row(cfg: &SplitupConfig, msg_size: u64) -> SplitupRow {
    SplitupRow {
        msg_size,
        non_ioat: run_one(cfg, IoatConfig::disabled(), msg_size),
        ioat_dma: run_one(cfg, IoatConfig::dma_only(), msg_size),
        ioat_split: run_one(cfg, IoatConfig::full(), msg_size),
    }
}

/// The Fig. 7a sizes (16 K – 128 K).
pub fn small_sizes() -> Vec<u64> {
    vec![16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]
}

/// The Fig. 7b sizes (1 M – 8 M).
pub fn large_sizes() -> Vec<u64> {
    vec![1 << 20, 2 << 20, 4 << 20, 8 << 20]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_engine_provides_cpu_benefit_for_medium_messages() {
        let r = row(&SplitupConfig::quick_test(), 64 * 1024);
        assert!(
            r.dma_cpu_benefit() > 0.02,
            "DMA CPU benefit {:.3}",
            r.dma_cpu_benefit()
        );
        // Throughput is genuinely wire-bound for this *micro-benchmark*
        // (kernel-context receive, CPU head-room to spare; re-verified
        // for PR 8): the DMA engine moves cycles, not bytes/s. The PVFS
        // figures are the app-level case where CPU binds instead.
        assert!(r.dma_throughput_benefit().abs() < 0.08);
    }

    #[test]
    fn split_header_helps_large_messages_most() {
        let cfg = SplitupConfig::quick_test();
        let small = row(&cfg, 64 * 1024);
        let large = row(&cfg, 2 << 20);
        assert!(
            large.split_cpu_benefit() + large.split_throughput_benefit()
                > small.split_cpu_benefit() + small.split_throughput_benefit() - 0.02,
            "split benefit should not shrink at large sizes: small {:.3}/{:.3} large {:.3}/{:.3}",
            small.split_cpu_benefit(),
            small.split_throughput_benefit(),
            large.split_cpu_benefit(),
            large.split_throughput_benefit()
        );
    }

    #[test]
    fn traced_run_passes_the_cycle_sum_audit_exactly() {
        let (r, v) = ioat_guard::with_audit(|| {
            let tracer = ioat_telemetry::Tracer::enabled();
            let (res, _) = run_one_traced(
                &SplitupConfig::quick_test(),
                IoatConfig::full(),
                64 * 1024,
                &tracer,
            );
            res
        });
        assert!(r.unwrap().mbps > 0.0);
        assert!(v.is_empty(), "cycle-sum audit must hold exactly: {v:?}");
    }

    #[test]
    fn buffer_sizing_tracks_messages() {
        assert_eq!(opts_for(16 * 1024).rcvbuf, 64 * 1024);
        assert_eq!(opts_for(256 * 1024).rcvbuf, 256 * 1024);
        assert_eq!(opts_for(8 << 20).rcvbuf, 1 << 20);
    }
}
