//! Every simulation entry point frees its whole model when it returns,
//! and when the event-budget watchdog stops it mid-run.
//!
//! Each host stack has one strong owner (its `Cluster`); wired peers,
//! connection peers and sockets point back at it weakly, and pending
//! events live in the `Sim`. A single strong edge added in the wrong
//! direction would close a reference cycle that keeps a call's entire
//! simulation alive. A counting global allocator tracks the bytes live
//! on each thread; each case calls its entry point once to warm up lazily
//! initialised state, then asserts that a second call leaves exactly zero
//! bytes live on the calling thread.
//!
//! The count lives in a `const`-initialised thread-local, so the test
//! harness running other cases on parallel threads cannot disturb it.
//! A per-thread high-water mark beside it pins the peak heap of one
//! fabric run, and a per-thread count of allocator calls pins how many
//! allocations a quick run makes: the allocation sequence is
//! deterministic, so both repeat exactly.

use ioat_core::microbench::bandwidth::{self, BandwidthConfig};
use ioat_core::microbench::bidirectional::{self, BidirConfig};
use ioat_core::microbench::multistream::{self, MultiStreamConfig};
use ioat_core::microbench::splitup::{self, SplitupConfig};
use ioat_core::IoatConfig;
use ioat_datacenter::emulated::{self, EmulatedConfig};
use ioat_datacenter::scale::FabricFaultSpec;
use ioat_datacenter::tiers::{self, DataCenterConfig};
use ioat_datacenter::{run_partitioned, ScaleConfig};
use ioat_faults::{CrashWindow, FaultPlan, RetryPolicy, TimeWindow};
use ioat_pvfs::{concurrent_read, concurrent_write, mixed_streams, multi_stream_read, PvfsConfig};
use ioat_simcore::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has reached since the last `reset_peak`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Allocator calls that hand out memory (alloc, alloc_zeroed, realloc).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Set while `assert_frees_when_wedged` runs its measured call.
    static EXPECT_WEDGED: Cell<bool> = const { Cell::new(false) };
}

fn add_live(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn add_call() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches `Cell`s in const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add_call();
            add_live(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add_call();
            add_live(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        add_live(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add_call();
            add_live(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes a second call of `call` leaves live on this thread once its
/// result is dropped; the first call warms up lazily initialised state.
fn kept_by_second_call<R>(mut call: impl FnMut() -> R) -> i64 {
    drop(call());
    let before = LIVE.with(Cell::get);
    drop(call());
    LIVE.with(Cell::get) - before
}

/// Most bytes live on this thread during a second call of `call`, above
/// what was live before it; the first call warms up lazily initialised
/// state.
fn peak_of_second_call<R>(mut call: impl FnMut() -> R) -> i64 {
    drop(call());
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    drop(call());
    PEAK.with(Cell::get) - before
}

/// Allocator calls this thread makes during a second call of `call`; the
/// first call warms up lazily initialised state.
fn allocations_of_second_call<R>(mut call: impl FnMut() -> R) -> u64 {
    drop(call());
    let before = CALLS.with(Cell::get);
    drop(call());
    CALLS.with(Cell::get) - before
}

fn assert_frees<R>(what: &str, call: impl FnMut() -> R) {
    let kept = kept_by_second_call(call);
    assert_eq!(kept, 0, "{what} kept {kept} bytes after returning");
}

#[test]
fn bandwidth_frees_its_model() {
    let cfg = BandwidthConfig::quick_test();
    assert_frees("bandwidth::run", || {
        bandwidth::run(&cfg, IoatConfig::full())
    });
    let lossy = FaultPlan::bernoulli_loss(0xFA017, 1e-3);
    assert_frees("bandwidth::run_with_faults", || {
        bandwidth::run_with_faults(&cfg, IoatConfig::full(), &lossy)
    });
}

#[test]
fn stream_microbenchmarks_free_their_models() {
    assert_frees("bidirectional::run", || {
        bidirectional::run(&BidirConfig::quick_test(), IoatConfig::full())
    });
    assert_frees("multistream::run", || {
        multistream::run(&MultiStreamConfig::quick_test(2), IoatConfig::full())
    });
    assert_frees("splitup::run_one", || {
        splitup::run_one(&SplitupConfig::quick_test(), IoatConfig::full(), 64 * 1024)
    });
}

#[test]
fn pvfs_runs_free_their_processes() {
    let cfg = PvfsConfig::quick_test(2, 2, IoatConfig::full());
    assert_frees("concurrent_read", || concurrent_read(&cfg));
    assert_frees("concurrent_write", || concurrent_write(&cfg));
    assert_frees("multi_stream_read", || multi_stream_read(&cfg, 4));
    assert_frees("mixed_streams", || mixed_streams(&cfg, 1));
}

#[test]
fn pvfs_failover_frees_its_processes() {
    // Daemon 0 dark for most of the quick run: ops time out, fail over to
    // daemon 1, and replies to abandoned attempts arrive stale.
    let mut cfg = PvfsConfig::quick_test(2, 2, IoatConfig::disabled());
    cfg.faults.crashes.push(CrashWindow {
        service: 0,
        window: TimeWindow::new(SimTime::from_micros(500), SimTime::from_millis(12)),
    });
    cfg.retry.timeout = SimDuration::from_millis(1);
    assert_frees("concurrent_read with a daemon crash", || {
        concurrent_read(&cfg)
    });
}

#[test]
fn tiers_free_their_request_loops() {
    let cfg = DataCenterConfig::quick_test(IoatConfig::full());
    assert_frees("tiers::run_single_file", || {
        tiers::run_single_file(&cfg, 4 * 1024)
    });
    let mut zipf = cfg;
    zipf.proxy_cache_bytes = 64 << 20;
    assert_frees("tiers::run_zipf", || {
        tiers::run_zipf(&zipf, 0.9, 500, 2 * 1024)
    });
}

#[test]
fn emulated_clients_free_their_model() {
    let cfg = EmulatedConfig::quick_test(16, IoatConfig::full());
    assert_frees("emulated::run", || emulated::run(&cfg));
}

#[test]
fn partitioned_datacenter_frees_every_partition() {
    let clean = ScaleConfig::quick_test(IoatConfig::disabled());
    assert_frees("run_partitioned", || run_partitioned(&clean, 1));
    let mut faulted = clean;
    faulted.faults = FabricFaultSpec {
        flaps_per_link: 2,
        crashed_switches: 1,
        ..FabricFaultSpec::none()
    };
    faulted.admit_budget = Some(2);
    faulted.hedge = Some(RetryPolicy {
        timeout: SimDuration::from_millis(4),
        max_retries: 2,
        backoff: 2.0,
    });
    assert_frees("run_partitioned with faults, admission and hedging", || {
        run_partitioned(&faulted, 1)
    });
}

/// Runs `call` under a watchdog budget far below what it needs, as
/// `repro --audit` does for a wedged job, and asserts that the caught
/// `wedged` panic leaves nothing live.
///
/// The default panic hook would print each expected watchdog panic into
/// the test harness's captured output, whose buffer grows on this thread
/// and would be counted. The hook is process-wide, so the one installed
/// here stays silent only for a `wedged` panic on a thread inside the
/// measured call (`EXPECT_WEDGED`); every other panic in this binary
/// still reaches the default hook.
fn assert_frees_when_wedged<R>(what: &str, mut call: impl FnMut() -> R) {
    const BUDGET: u64 = 3_000;
    static QUIET_WATCHDOG: Once = Once::new();
    QUIET_WATCHDOG.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = EXPECT_WEDGED.with(Cell::get)
                && ioat_guard::failure_reason(info.payload()).starts_with("wedged:");
            if !expected {
                default(info);
            }
        }));
    });
    assert_frees(what, || {
        EXPECT_WEDGED.with(|flag| flag.set(true));
        let (result, _) = ioat_guard::with_audit_budget(Some(BUDGET), &mut call);
        EXPECT_WEDGED.with(|flag| flag.set(false));
        let payload = result
            .err()
            .unwrap_or_else(|| panic!("{what} finished inside {BUDGET} events"));
        let reason = ioat_guard::failure_reason(payload.as_ref());
        assert!(reason.starts_with("wedged:"), "{what}: {reason}");
    });
}

#[test]
fn runs_stopped_by_the_watchdog_free_their_models() {
    assert_frees_when_wedged("bandwidth::run", || {
        bandwidth::run(&BandwidthConfig::quick_test(), IoatConfig::full())
    });
    // Stopped mid-run, client and daemon threads still have jobs queued.
    let pvfs = PvfsConfig::quick_test(2, 2, IoatConfig::full());
    assert_frees_when_wedged("concurrent_read", || concurrent_read(&pvfs));
    assert_frees_when_wedged("tiers::run_single_file", || {
        tiers::run_single_file(&DataCenterConfig::quick_test(IoatConfig::full()), 4 * 1024)
    });
    assert_frees_when_wedged("run_partitioned", || {
        run_partitioned(&ScaleConfig::quick_test(IoatConfig::disabled()), 1)
    });
}

#[test]
fn quick_fabric_run_peak_heap_is_pinned() {
    // One fat-tree(4) call on the calling thread: 16 hosts, each with a
    // paper-L2 model whose tag rows are allocated per 64-set chunk on
    // first touch. It peaked at 1 321 208 bytes with every host's 64 KB
    // of rows allocated up front, and at 955 784 bytes with chunks; the
    // bound is about 5 % above that.
    const BOUND: i64 = 1_000_000;
    let cfg = ScaleConfig::quick_test(IoatConfig::disabled());
    let peak = peak_of_second_call(|| run_partitioned(&cfg, 1));
    assert!(
        peak < BOUND,
        "run_partitioned(quick_test, 1) peaked at {peak} heap bytes, over {BOUND}"
    );
}

#[test]
fn quick_run_allocation_counts_are_pinned() {
    // The quick bandwidth run makes 9 198 allocator calls, the quick
    // fat-tree(4) run 76 907 and the same run with 2 flaps per link and
    // 1 crashed switch 54 901. Each bound sits about 3 % above that and
    // below the 9 890, 79 074 and 73 786 calls they made while every
    // core, DMA channel and link was a shared handle, each departing
    // packet train was collected into a `Vec` first, and every faulted
    // hop collected its surviving ECMP ports into a `Vec`.
    let bw = BandwidthConfig::quick_test();
    let calls = allocations_of_second_call(|| bandwidth::run(&bw, IoatConfig::full()));
    assert!(
        calls < 9_450,
        "bandwidth::run(quick_test) made {calls} allocator calls, over 9 450"
    );
    let cfg = ScaleConfig::quick_test(IoatConfig::disabled());
    let calls = allocations_of_second_call(|| run_partitioned(&cfg, 1));
    assert!(
        calls < 79_000,
        "run_partitioned(quick_test, 1) made {calls} allocator calls, over 79 000"
    );
    let mut faulted = cfg;
    faulted.faults = FabricFaultSpec {
        flaps_per_link: 2,
        crashed_switches: 1,
        ..FabricFaultSpec::none()
    };
    let calls = allocations_of_second_call(|| run_partitioned(&faulted, 1));
    assert!(
        calls < 56_500,
        "faulted run_partitioned(quick_test, 1) made {calls} allocator calls, over 56 500"
    );
}
