//! Bit-reproducibility: every experiment is a deterministic function of
//! its configuration. Two runs of anything must agree exactly — this is
//! what makes the recorded `EXPERIMENTS.md` numbers reproducible on any
//! machine.

use ioat_sim::core::microbench::{bandwidth, copybench, multistream};
use ioat_sim::core::IoatConfig;
use ioat_sim::datacenter::tiers::{self, DataCenterConfig};
use ioat_sim::datacenter::workload::{FileCatalog, ZipfTrace};
use ioat_sim::faults::{CrashWindow, FaultPlan, TimeWindow};
use ioat_sim::pvfs::harness::{concurrent_read, concurrent_read_traced, PvfsConfig};
use ioat_sim::simcore::{SimDuration, SimRng, SimTime};
use ioat_sim::telemetry::{Category, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn bandwidth_runs_are_bit_identical() {
    let cfg = bandwidth::BandwidthConfig::quick_test();
    let a = bandwidth::run(&cfg, IoatConfig::full());
    let b = bandwidth::run(&cfg, IoatConfig::full());
    assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());
    assert_eq!(a.rx_cpu.to_bits(), b.rx_cpu.to_bits());
    assert_eq!(a.tx_cpu.to_bits(), b.tx_cpu.to_bits());
}

#[test]
fn multistream_runs_are_bit_identical() {
    let cfg = multistream::MultiStreamConfig::quick_test(4);
    let a = multistream::run(&cfg, IoatConfig::disabled());
    let b = multistream::run(&cfg, IoatConfig::disabled());
    assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());
    assert_eq!(a.rx_cpu.to_bits(), b.rx_cpu.to_bits());
}

#[test]
fn copy_table_is_pure() {
    assert_eq!(copybench::table(), copybench::table());
}

#[test]
fn datacenter_runs_are_bit_identical_with_same_seed() {
    let cfg = DataCenterConfig::quick_test(IoatConfig::full());
    let a = tiers::run_single_file(&cfg, 4 * 1024);
    let b = tiers::run_single_file(&cfg, 4 * 1024);
    assert_eq!(a.tps.to_bits(), b.tps.to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency_p99_us.to_bits(), b.latency_p99_us.to_bits());
}

#[test]
fn zipf_workload_is_seeded() {
    let mut cfg = DataCenterConfig::quick_test(IoatConfig::disabled());
    cfg.proxy_cache_bytes = 32 << 20;
    let a = tiers::run_zipf(&cfg, 0.9, 500, 4 * 1024);
    let b = tiers::run_zipf(&cfg, 0.9, 500, 4 * 1024);
    assert_eq!(a.tps.to_bits(), b.tps.to_bits());
    assert_eq!(a.cache_hit_rate.to_bits(), b.cache_hit_rate.to_bits());
    // A different seed gives a (generally) different trajectory.
    let mut cfg2 = cfg.clone();
    cfg2.seed ^= 0xFFFF;
    let c = tiers::run_zipf(&cfg2, 0.9, 500, 4 * 1024);
    assert_ne!(a.completed, 0);
    // TPS may coincide by chance, but the completed counts rarely do;
    // accept either as long as the run completed.
    let _ = c;
}

#[test]
fn pvfs_runs_are_bit_identical() {
    let cfg = PvfsConfig::quick_test(2, 3, IoatConfig::full());
    let a = concurrent_read(&cfg);
    let b = concurrent_read(&cfg);
    assert_eq!(a.mbytes_per_sec.to_bits(), b.mbytes_per_sec.to_bits());
    assert_eq!(a.client_cpu.to_bits(), b.client_cpu.to_bits());
    assert_eq!(a.opens, b.opens);
}

/// Runs the Zipf data-center workload with an externally owned RNG so the
/// test can compare the generator's final state across runs — tracing must
/// consume zero random numbers and shift zero events.
fn zipf_run(tracer: &Tracer) -> (tiers::DataCenterResult, [u64; 4]) {
    let mut cfg = DataCenterConfig::quick_test(IoatConfig::full());
    cfg.proxy_cache_bytes = 32 << 20;
    let rng = Rc::new(RefCell::new(SimRng::seed_from(0x7E1E)));
    let catalog = FileCatalog::web_content(300, 4 * 1024, &mut rng.borrow_mut());
    let r2 = Rc::clone(&rng);
    let result = tiers::run_traced(
        &cfg,
        move |_t| Box::new(ZipfTrace::new(catalog.clone(), 0.9, r2.borrow_mut().fork())),
        tracer,
    );
    let state = rng.borrow().state();
    (result, state)
}

#[test]
fn datacenter_tracing_is_bit_for_bit_non_perturbing() {
    let (off, rng_off) = zipf_run(&Tracer::disabled());
    let tracer = Tracer::enabled();
    let (on, rng_on) = zipf_run(&tracer);
    assert_eq!(off.tps.to_bits(), on.tps.to_bits());
    assert_eq!(off.completed, on.completed);
    assert_eq!(off.proxy_cpu.to_bits(), on.proxy_cpu.to_bits());
    assert_eq!(off.web_cpu.to_bits(), on.web_cpu.to_bits());
    assert_eq!(off.latency_p50_us.to_bits(), on.latency_p50_us.to_bits());
    assert_eq!(off.latency_p99_us.to_bits(), on.latency_p99_us.to_bits());
    assert_eq!(off.cache_hit_rate.to_bits(), on.cache_hit_rate.to_bits());
    assert_eq!(rng_off, rng_on, "tracing must not consume randomness");
    // And the trace actually captured the run.
    assert!(!tracer.is_empty());
    assert!(tracer.with_events(|evs| evs.iter().any(|e| e.cat == Category::Request)));
}

/// The inert fault plan must be a true no-op: `run` is *defined* through
/// `run_with_faults(..., FaultPlan::none())`, and the fault-aware harness
/// must produce bit-identical results with the plan left at its default —
/// no extra events, no RNG draws, no counter drift.
#[test]
fn inert_fault_plan_is_bit_identical() {
    let cfg = bandwidth::BandwidthConfig::quick_test();
    let plain = bandwidth::run(&cfg, IoatConfig::full());
    let none = bandwidth::run_with_faults(&cfg, IoatConfig::full(), &FaultPlan::none());
    assert_eq!(plain.mbps.to_bits(), none.throughput.mbps.to_bits());
    assert_eq!(plain.rx_cpu.to_bits(), none.throughput.rx_cpu.to_bits());
    assert_eq!(plain.tx_cpu.to_bits(), none.throughput.tx_cpu.to_bits());
    assert_eq!(none.frames_dropped, 0);
    assert_eq!(none.retransmits, 0);
}

/// Fault-enabled runs are themselves bit-reproducible for a fixed seed:
/// the same plan produces the same drops, the same recovery actions and
/// the same results, twice.
#[test]
fn fault_enabled_runs_are_bit_reproducible() {
    // Stochastic frame loss on the bandwidth microbench.
    let cfg = bandwidth::BandwidthConfig::quick_test();
    let plan = FaultPlan::bernoulli_loss(7, 1e-3);
    let a = bandwidth::run_with_faults(&cfg, IoatConfig::disabled(), &plan);
    let b = bandwidth::run_with_faults(&cfg, IoatConfig::disabled(), &plan);
    assert!(a.frames_dropped > 0, "1e-3 loss must drop frames");
    assert_eq!(a, b);

    // Scheduled daemon crash + failover on the PVFS harness.
    let mut pcfg = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
    pcfg.faults.crashes.push(CrashWindow {
        service: 0,
        window: TimeWindow::new(
            SimTime::from_nanos(500_000),
            SimTime::from_nanos(12_000_000),
        ),
    });
    pcfg.retry.timeout = SimDuration::from_millis(1);
    let p = concurrent_read(&pcfg);
    let q = concurrent_read(&pcfg);
    assert!(p.daemon_drops > 0 && p.failovers > 0);
    assert_eq!(p, q);
}

#[test]
fn fault_failover_is_deterministic_under_process_serialization() {
    // The PR-8 daemon cost model routes every request through serial
    // per-process CPU threads (shared iod thread, serial client thread,
    // serial metadata manager). A daemon crash mid-window must still
    // drop requests, trigger failover to the surviving server, and stay
    // bit-reproducible — the retry/deadline machinery now runs *under*
    // the process-CPU serialization, not beside it.
    let mut cfg = PvfsConfig::quick_test(2, 3, IoatConfig::full());
    cfg.faults.crashes.push(CrashWindow {
        service: 0,
        window: TimeWindow::new(
            SimTime::from_nanos(500_000),
            SimTime::from_nanos(12_000_000),
        ),
    });
    cfg.retry.timeout = SimDuration::from_millis(1);
    let p = concurrent_read(&cfg);
    let q = concurrent_read(&cfg);
    assert!(
        p.daemon_drops > 0 && p.failovers > 0,
        "crash window must drop requests and force failover (drops={}, failovers={})",
        p.daemon_drops,
        p.failovers
    );
    assert_eq!(p, q);

    // And the fault machinery must not leak into fault-free runs: the
    // same config with no crash window reproduces the plain row.
    let clean_cfg = PvfsConfig::quick_test(2, 3, IoatConfig::full());
    let clean = concurrent_read(&clean_cfg);
    assert_eq!(clean.daemon_drops, 0);
    assert_eq!(clean.failovers, 0);
    assert!(clean.mbytes_per_sec > p.mbytes_per_sec);
}

#[test]
fn pvfs_tracing_is_bit_for_bit_non_perturbing() {
    let cfg = PvfsConfig::quick_test(2, 3, IoatConfig::full());
    let off = concurrent_read(&cfg);
    let tracer = Tracer::enabled();
    let on = concurrent_read_traced(&cfg, &tracer);
    assert_eq!(off.mbytes_per_sec.to_bits(), on.mbytes_per_sec.to_bits());
    assert_eq!(off.client_cpu.to_bits(), on.client_cpu.to_bits());
    assert_eq!(off.server_cpu.to_bits(), on.server_cpu.to_bits());
    assert_eq!(off.opens, on.opens);
    tracer.with_events(|evs| {
        assert!(evs.iter().any(|e| e.cat == Category::Io));
        assert!(evs.iter().any(|e| e.cat == Category::Dma));
    });
}
