//! Shape tests: the qualitative results of every paper figure, at reduced
//! scale so the suite stays fast in debug builds. The full-scale numbers
//! live in `EXPERIMENTS.md` and are regenerated by `repro`.

use ioat_sim::core::metrics::ExperimentWindow;
use ioat_sim::core::microbench::{bandwidth, bidirectional, copybench, splitup};
use ioat_sim::core::{IoatConfig, SocketOpts};

/// Fig. 3a shape: bandwidth scales ~linearly with ports and I/OAT saves
/// receiver CPU at every port count.
#[test]
fn fig3a_shape() {
    let mut prev_mbps = 0.0;
    for ports in [1usize, 2, 3] {
        let mut cfg = bandwidth::BandwidthConfig::paper(ports);
        cfg.window = ExperimentWindow::quick();
        let c = bandwidth::compare(&cfg);
        assert!(
            c.non_ioat.mbps > prev_mbps,
            "bandwidth must grow with ports"
        );
        prev_mbps = c.non_ioat.mbps;
        assert!(
            c.relative_cpu_benefit() > 0.0,
            "CPU benefit at {ports} ports: {:.3}",
            c.relative_cpu_benefit()
        );
    }
}

/// Fig. 3b shape: bi-directional bandwidth approaches 2× one-way, and the
/// CPU benefit persists.
#[test]
fn fig3b_shape() {
    let mut uni = bandwidth::BandwidthConfig::paper(2);
    uni.window = ExperimentWindow::quick();
    let mut bid = bidirectional::BidirConfig::paper(2);
    bid.window = ExperimentWindow::quick();
    let u = bandwidth::run(&uni, IoatConfig::disabled());
    let b = bidirectional::compare(&bid);
    assert!(
        b.non_ioat.mbps > 1.8 * u.mbps,
        "bidir {:.0} should approach 2x unidir {:.0}",
        b.non_ioat.mbps,
        u.mbps
    );
    assert!(b.relative_cpu_benefit() > 0.0);
}

/// Fig. 5 shape: optimizations never hurt throughput, they cut the
/// non-I/OAT receiver's CPU cost, and the relative I/OAT CPU benefit at
/// the most optimized case exceeds the base case.
#[test]
fn fig5_shape() {
    let rows: Vec<_> = SocketOpts::all_cases()
        .into_iter()
        .map(|(_, opts)| {
            bandwidth::compare(&bandwidth::BandwidthConfig {
                ports: 2,
                opts,
                window: ExperimentWindow::quick(),
            })
        })
        .collect();
    let first = &rows[0];
    let last = &rows[4];
    assert!(last.non_ioat.mbps >= first.non_ioat.mbps * 0.95);
    assert!(
        last.non_ioat.rx_cpu < first.non_ioat.rx_cpu,
        "Case 5 CPU {:.3} should be below Case 1 {:.3}",
        last.non_ioat.rx_cpu,
        first.non_ioat.rx_cpu
    );
    assert!(
        last.relative_cpu_benefit() >= first.relative_cpu_benefit(),
        "benefit should grow with optimizations: case1 {:.3} case5 {:.3}",
        first.relative_cpu_benefit(),
        last.relative_cpu_benefit()
    );
}

/// Fig. 6 shape: the three paper claims — crossover vs the cold copy,
/// monotone overlap reaching ≥88 % at 64 K, and the DMA overhead staying
/// below the cached copy for large sizes.
#[test]
fn fig6_shape() {
    let t = copybench::table();
    let at = |size: u64| t.iter().find(|r| r.size == size).expect("size in table");
    assert!(
        at(1024).dma_copy_us > at(1024).copy_nocache_us,
        "CPU wins small"
    );
    assert!(
        at(16 * 1024).dma_copy_us < at(16 * 1024).copy_nocache_us,
        "engine wins large"
    );
    assert!(at(64 * 1024).overlap > 0.88);
    assert!(at(64 * 1024).dma_overhead_us < at(64 * 1024).copy_cache_us);
    for w in t.windows(2) {
        assert!(w[1].overlap >= w[0].overlap, "overlap must be monotone");
    }
}

/// Fig. 7b shape: the split-header feature matters for cache-exceeding
/// messages, not for small ones.
#[test]
fn fig7b_shape() {
    let cfg = splitup::SplitupConfig::quick_test();
    let small = splitup::row(&cfg, 64 * 1024);
    let large = splitup::row(&cfg, 2 << 20);
    let small_total = small.split_throughput_benefit() + small.split_cpu_benefit();
    let large_total = large.split_throughput_benefit() + large.split_cpu_benefit();
    assert!(
        large_total >= small_total - 0.03,
        "split benefit should concentrate at large sizes: small {small_total:.3} large {large_total:.3}"
    );
}

/// §4's worked example of the relative-benefit metric.
#[test]
fn relative_benefit_definition() {
    use ioat_sim::simcore::stats::relative_benefit;
    assert!((relative_benefit(0.30, 0.60) - 0.5).abs() < 1e-12);
}

/// Fig. 7 decomposition: the traced CPU split-up reproduces the paper's
/// receive-path structure — interrupt handling, protocol processing and
/// the kernel-to-user copy all present without I/OAT, and the copy
/// component (the one the engine targets) shrinking the most with it.
#[test]
fn fig7_splitup_shares() {
    use ioat_sim::telemetry::{cpu_splitup, Category, Tracer};
    let cfg = splitup::SplitupConfig::quick_test();
    let share = |ioat: IoatConfig| {
        let tracer = Tracer::enabled();
        let (_, (from, to)) = splitup::run_one_traced(&cfg, ioat, 64 * 1024, &tracer);
        let report = cpu_splitup(&tracer.events(), from, to);
        let rx = report.receive_path_shares();
        let sum: f64 = rx.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
        (report, rx)
    };
    let (non, rx_non) = share(IoatConfig::disabled());
    let (full, rx_full) = share(IoatConfig::full());

    // Non-I/OAT: every paper component is a real fraction of the path,
    // and the copy is a major one (paper: copies dominate large receives).
    for (cat, s) in rx_non {
        assert!(
            s > 0.05,
            "{} share {s:.3} too small without I/OAT",
            cat.name()
        );
    }
    assert!(
        rx_non[2].1 > 0.25,
        "copy should be a major receive-path component, got {:.3}",
        rx_non[2].1
    );
    assert_eq!(
        non.busy(Category::Dma).as_nanos(),
        0,
        "no engine -> no dma time"
    );

    // I/OAT: the engine absorbs most of the copy (Fig. 7's DMA benefit).
    assert!(
        rx_full[2].1 < 0.5 * rx_non[2].1,
        "I/OAT should absorb most of the CPU copy: {:.3} -> {:.3}",
        rx_non[2].1,
        rx_full[2].1
    );
    assert!(
        full.busy(Category::Dma).as_nanos() > 0,
        "absorbed copies must show up as engine time"
    );
}

/// Fig. 10a/11a saturation shape: with six I/O servers and six clients
/// the serial daemon and client threads, not the wire, bound PVFS
/// bandwidth without I/OAT — so non-I/OAT reads and writes both sit well
/// below the 6-port wire, and the DMA engine's rx-copy offload buys real
/// bandwidth on both. A wire-bound model would put both configurations
/// on the wire and show no gap at all.
#[test]
fn fig10a_11a_saturation_shape() {
    use ioat_sim::core::calibration::port_bandwidth;
    use ioat_sim::pvfs::{concurrent_read, concurrent_write, PvfsConfig};
    let wire_mb_s = 6.0 * port_bandwidth().as_bps() as f64 / 8.0 / 1e6;
    let cfg = |ioat| PvfsConfig::quick_test(6, 6, ioat);
    for (what, run) in [
        ("read", concurrent_read as fn(&PvfsConfig) -> _),
        ("write", concurrent_write),
    ] {
        let non = run(&cfg(IoatConfig::disabled())).mbytes_per_sec;
        let ioat = run(&cfg(IoatConfig::full())).mbytes_per_sec;
        assert!(
            non < 0.9 * wire_mb_s,
            "non-I/OAT {what} must be CPU-bound below the {wire_mb_s:.0} MB/s wire: {non:.1}"
        );
        assert!(
            ioat > 1.02 * non,
            "I/OAT must out-run non-I/OAT on {what}: {ioat:.1} vs {non:.1}"
        );
    }
}
