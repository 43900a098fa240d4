//! The I/OAT asynchronous DMA copy engine (§2.2.2).
//!
//! The engine is "a dedicated device which can perform memory copies":
//! while it moves data, the host CPU is free to process other packets.
//! What the CPU *does* pay is the synchronous part — building the
//! descriptor and pinning the physical pages — plus a small completion
//! cost. What the *engine* pays is the per-byte transfer time, serialized
//! per channel, split at page boundaries ("a single transfer cannot span
//! discontinuous physical pages").
//!
//! On completion the engine invalidates the destination range in the CPU
//! cache: the memory controller wrote memory directly, so resident copies
//! of those lines are stale ("the copy engine must maintain cache
//! coherence immediately after data transfer").

use crate::address::Buffer;
use crate::cache::Cache;
use ioat_simcore::{Resource, Sim, SimDuration, SimTime};
use ioat_telemetry::{Category, Tracer, TrackId};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to a [`Cache`], used by components that interact with a
/// node's L2.
pub type CacheRef = Rc<RefCell<Cache>>;

/// Shared handle to a [`DmaEngine`].
pub type DmaEngineRef = Rc<RefCell<DmaEngine>>;

/// Cost parameters of the copy engine.
///
/// Defaults are calibrated so the paper's Fig. 6 shape holds: the engine
/// beats a cold CPU copy above ≈ 8 KB, and ≥ 90 % of a 64 KB copy can be
/// overlapped with computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaConfig {
    /// Synchronous CPU cost to build and ring a descriptor.
    pub startup: SimDuration,
    /// Synchronous CPU cost per physical page pinned (source and
    /// destination pages both pin).
    pub pin_per_page: SimDuration,
    /// Engine transfer cost per byte, in picoseconds (integer to keep the
    /// model exactly reproducible). 400 ps/B ≈ 2.5 GB/s, the measured
    /// throughput of the first-generation I/OAT engine.
    pub transfer_ps_per_byte: u64,
    /// Engine overhead per page-sized chunk (descriptor walk).
    pub per_chunk: SimDuration,
    /// Synchronous CPU cost to reap the completion.
    pub completion: SimDuration,
    /// Completions reaped per poll of the completion ring. The
    /// first-generation driver reaped one descriptor per interrupt
    /// (batch = 1, the default — bit-identical to the pre-batching
    /// model); modern engines coalesce descriptor writebacks so one
    /// ring poll retires a whole batch, amortizing `completion` over
    /// `completion_batch` requests.
    pub completion_batch: u32,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            startup: SimDuration::from_nanos(1_600),
            pin_per_page: SimDuration::from_nanos(25),
            transfer_ps_per_byte: 400,
            per_chunk: SimDuration::from_nanos(40),
            completion: SimDuration::from_nanos(150),
            completion_batch: 1,
        }
    }
}

impl DmaConfig {
    /// A 2026-class copy/offload engine (CB-DMA/DSA lineage): cheaper
    /// descriptor setup, ~10 GB/s per channel (vs the first-generation
    /// 2.5 GB/s), and batched completion writebacks (8 descriptors per
    /// ring poll).
    pub fn modern_2026() -> Self {
        DmaConfig {
            startup: SimDuration::from_nanos(150),
            pin_per_page: SimDuration::from_nanos(15),
            transfer_ps_per_byte: 100,
            per_chunk: SimDuration::from_nanos(20),
            completion: SimDuration::from_nanos(120),
            completion_batch: 8,
        }
    }

    /// Amortized synchronous CPU cost charged per reaped completion:
    /// `completion / completion_batch`. With the default batch of 1 this
    /// is exactly `completion`.
    pub fn completion_reap_cost(&self) -> SimDuration {
        self.completion / u64::from(self.completion_batch.max(1))
    }
}

/// A copy request: source and destination ranges of equal length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    /// Source range.
    pub src: Buffer,
    /// Destination range.
    pub dst: Buffer,
}

impl DmaRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if source and destination lengths differ.
    pub fn new(src: Buffer, dst: Buffer) -> Self {
        assert_eq!(src.len(), dst.len(), "DMA copy length mismatch");
        DmaRequest { src, dst }
    }

    /// Bytes to move.
    pub fn len(&self) -> u64 {
        self.src.len()
    }

    /// True for an empty request.
    pub fn is_empty(&self) -> bool {
        self.src.len() == 0
    }

    /// Pages that must be pinned (source + destination).
    pub fn pinned_pages(&self) -> u64 {
        self.src.pages() + self.dst.pages()
    }
}

/// Running engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Copies issued.
    pub requests: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Pages pinned across all requests.
    pub pages_pinned: u64,
    /// Copies whose completion callback has fired.
    pub completed_requests: u64,
    /// Bytes whose transfer has completed.
    pub completed_bytes: u64,
}

/// The copy engine: one serialized channel plus cost bookkeeping.
///
/// ```rust
/// use ioat_memsim::{AddressAllocator, DmaConfig, DmaEngine, DmaRequest};
/// use ioat_simcore::{Sim, SimTime};
///
/// let mut sim = Sim::new();
/// let engine = DmaEngine::new_ref(DmaConfig::default(), None);
/// let mut alloc = AddressAllocator::new();
/// let req = DmaRequest::new(alloc.alloc(8192), alloc.alloc(8192));
///
/// // CPU pays the synchronous part...
/// let overhead = engine.borrow().cpu_overhead(&req);
/// assert!(overhead.as_nanos() > 0);
/// // ...the engine moves the data asynchronously.
/// let done = DmaEngine::issue(&engine, &mut sim, req, |_| {});
/// assert!(done > SimTime::ZERO);
/// sim.run();
/// ```
#[derive(Debug)]
pub struct DmaEngine {
    config: DmaConfig,
    channel: Resource,
    cache: Option<CacheRef>,
    stats: DmaStats,
    tracer: Tracer,
    track: TrackId,
}

impl DmaEngine {
    /// Creates an engine. When `cache` is provided, completions invalidate
    /// the destination range in it.
    pub fn new(config: DmaConfig, cache: Option<CacheRef>) -> Self {
        DmaEngine {
            config,
            channel: Resource::new(),
            cache,
            stats: DmaStats::default(),
            tracer: Tracer::disabled(),
            track: TrackId::new(0, 0),
        }
    }

    /// Attaches a tracer; `track` is the pseudo-core the engine's
    /// transfer spans are attributed to (typically one past the node's
    /// core count).
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Creates a shared handle to a new engine.
    pub fn new_ref(config: DmaConfig, cache: Option<CacheRef>) -> DmaEngineRef {
        Rc::new(RefCell::new(DmaEngine::new(config, cache)))
    }

    /// The configured costs.
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Conservation audit: completions never outrun postings — every byte
    /// posted to the channel is either completed or still in flight. At a
    /// drained queue `requests == completed_requests` additionally holds;
    /// the in-flight slack here keeps the check valid mid-run.
    pub fn audit(&self, component: &str, now: SimTime) {
        ioat_guard::check(
            component,
            "DMA completions ≤ postings",
            now,
            self.stats.completed_requests <= self.stats.requests
                && self.stats.completed_bytes <= self.stats.bytes,
            || {
                format!(
                    "completed {} reqs / {} B vs posted {} reqs / {} B",
                    self.stats.completed_requests,
                    self.stats.completed_bytes,
                    self.stats.requests,
                    self.stats.bytes
                )
            },
        );
    }

    /// The engine channel's busy-time accounting (for utilization plots).
    pub fn channel(&self) -> &Resource {
        &self.channel
    }

    /// The synchronous CPU cost of issuing `req`: descriptor startup plus
    /// page pinning. This is the "DMA-overhead" bar of Fig. 6 — the only
    /// part that cannot be overlapped.
    pub fn cpu_overhead(&self, req: &DmaRequest) -> SimDuration {
        if req.is_empty() {
            return SimDuration::ZERO;
        }
        self.config.startup + self.config.pin_per_page * req.pinned_pages()
    }

    /// Issue overhead when the source is already pinned kernel memory
    /// (the in-kernel `net_dma` receive path): only the user-side
    /// destination pages pay the pinning cost.
    pub fn cpu_overhead_prepinned_src(&self, req: &DmaRequest) -> SimDuration {
        if req.is_empty() {
            return SimDuration::ZERO;
        }
        self.config.startup + self.config.pin_per_page * req.dst.pages()
    }

    /// Engine-side transfer time for `req` (excludes CPU overheads and
    /// any queueing behind earlier copies).
    pub fn transfer_time(&self, req: &DmaRequest) -> SimDuration {
        if req.is_empty() {
            return SimDuration::ZERO;
        }
        let chunks = req.src.page_chunks().count() as u64;
        let bytes_ns =
            (req.len() as u128 * self.config.transfer_ps_per_byte as u128).div_ceil(1000) as u64;
        SimDuration::from_nanos(bytes_ns) + self.config.per_chunk * chunks
    }

    /// Total wall-clock cost of a copy when nothing overlaps: CPU
    /// overhead, transfer and completion. Used to compare against a CPU
    /// `memcpy` and to compute the overlappable fraction (Fig. 6's
    /// `Overlap` line).
    pub fn total_cost(&self, req: &DmaRequest) -> SimDuration {
        self.cpu_overhead(req) + self.transfer_time(req) + self.config.completion_reap_cost()
    }

    /// Fraction of [`DmaEngine::total_cost`] that the CPU can overlap with
    /// other work (the engine-side transfer time).
    pub fn overlap_fraction(&self, req: &DmaRequest) -> f64 {
        let total = self.total_cost(req);
        if total.is_zero() {
            return 0.0;
        }
        self.transfer_time(req).as_nanos() as f64 / total.as_nanos() as f64
    }

    /// Issues a copy. The channel serializes concurrent copies; at
    /// completion the destination is invalidated in the cache (if any) and
    /// `on_complete` fires. Returns the completion instant.
    ///
    /// The *caller* is responsible for charging
    /// [`DmaEngine::cpu_overhead`] to the issuing CPU — the engine cannot
    /// know which core performed the pinning.
    pub fn issue<F>(this: &DmaEngineRef, sim: &mut Sim, req: DmaRequest, on_complete: F) -> SimTime
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let mut eng = this.borrow_mut();
        eng.stats.requests += 1;
        eng.stats.bytes += req.len();
        eng.stats.pages_pinned += req.pinned_pages();
        let transfer = eng.transfer_time(&req);
        let this2 = Rc::clone(this);
        let len = req.len();
        let done = eng.channel.run_job(sim, transfer, move |sim| {
            {
                let mut eng = this2.borrow_mut();
                eng.stats.completed_requests += 1;
                eng.stats.completed_bytes += len;
                if let Some(cache) = &eng.cache {
                    cache.borrow_mut().invalidate_range(req.dst);
                }
            }
            on_complete(sim);
        });
        // `run_job` serializes on the channel, so the transfer occupied
        // exactly [done - transfer, done) — recorded retroactively.
        eng.tracer.span(
            "dma_transfer",
            Category::Dma,
            eng.track,
            done - transfer,
            done,
        );
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressAllocator;
    use crate::cache::CacheConfig;
    use crate::copy::{CopyParams, CpuCopier};
    use std::cell::Cell;

    fn engine() -> DmaEngineRef {
        DmaEngine::new_ref(DmaConfig::default(), None)
    }

    fn req(alloc: &mut AddressAllocator, len: u64) -> DmaRequest {
        DmaRequest::new(alloc.alloc(len), alloc.alloc(len))
    }

    #[test]
    fn completion_batching_amortizes_the_reap() {
        let legacy = DmaConfig::default();
        assert_eq!(legacy.completion_batch, 1);
        assert_eq!(
            legacy.completion_reap_cost(),
            legacy.completion,
            "batch of 1 is bit-identical to the pre-batching model"
        );
        let modern = DmaConfig::modern_2026();
        assert_eq!(modern.completion_batch, 8);
        assert_eq!(modern.completion_reap_cost(), modern.completion / 8);
        assert!(modern.completion_reap_cost() < legacy.completion_reap_cost());
        // A zero batch is treated as 1, never a division by zero.
        let degenerate = DmaConfig {
            completion_batch: 0,
            ..DmaConfig::default()
        };
        assert_eq!(degenerate.completion_reap_cost(), degenerate.completion);
    }

    #[test]
    fn modern_engine_is_faster_per_byte() {
        let mut a = AddressAllocator::new();
        let r = req(&mut a, 64 * 1024);
        let legacy = DmaEngine::new(DmaConfig::default(), None);
        let modern = DmaEngine::new(DmaConfig::modern_2026(), None);
        assert!(modern.transfer_time(&r) < legacy.transfer_time(&r));
        assert!(modern.total_cost(&r) < legacy.total_cost(&r));
        // 100 ps/B ≈ 10 GB/s: 64 KB in ≈ 6.6 us of transfer time.
        let us = modern.transfer_time(&r).as_micros_f64();
        assert!((6.0..8.0).contains(&us), "64 KB transfer {us:.1} us");
    }

    #[test]
    fn overhead_grows_with_pages() {
        let e = engine();
        let mut a = AddressAllocator::new();
        let small = req(&mut a, 1024);
        let large = req(&mut a, 64 * 1024);
        let e = e.borrow();
        assert!(e.cpu_overhead(&large) > e.cpu_overhead(&small));
        assert_eq!(small.pinned_pages(), 2);
        assert_eq!(large.pinned_pages(), 32);
    }

    #[test]
    fn copies_serialize_on_the_channel() {
        let mut sim = Sim::new();
        let e = engine();
        let mut a = AddressAllocator::new();
        let r1 = req(&mut a, 8192);
        let r2 = req(&mut a, 8192);
        let t1 = DmaEngine::issue(&e, &mut sim, r1, |_| {});
        let t2 = DmaEngine::issue(&e, &mut sim, r2, |_| {});
        let single = e.borrow().transfer_time(&r1);
        assert_eq!(t1.as_nanos(), single.as_nanos());
        assert_eq!(t2.as_nanos(), 2 * single.as_nanos());
        sim.run();
        assert_eq!(e.borrow().stats().requests, 2);
        assert_eq!(e.borrow().stats().bytes, 16384);
    }

    #[test]
    fn completion_fires_after_transfer() {
        let mut sim = Sim::new();
        let e = engine();
        let mut a = AddressAllocator::new();
        let r = req(&mut a, 4096);
        let done = Rc::new(Cell::new(None));
        let d = Rc::clone(&done);
        let expect = DmaEngine::issue(&e, &mut sim, r, move |sim| d.set(Some(sim.now())));
        sim.run();
        assert_eq!(done.get(), Some(expect));
    }

    #[test]
    fn completion_invalidates_destination_in_cache() {
        let mut sim = Sim::new();
        let cache = Rc::new(RefCell::new(Cache::new(CacheConfig::paper_l2())));
        let e = DmaEngine::new_ref(DmaConfig::default(), Some(Rc::clone(&cache)));
        let mut a = AddressAllocator::new();
        let r = req(&mut a, 4096);
        // Warm the destination.
        cache.borrow_mut().access_range(r.dst);
        assert!(cache.borrow().resident_lines(r.dst) > 0);
        DmaEngine::issue(&e, &mut sim, r, |_| {});
        sim.run();
        assert_eq!(
            cache.borrow().resident_lines(r.dst),
            0,
            "stale lines dropped"
        );
    }

    #[test]
    fn fig6_shape_dma_beats_cold_copy_above_8k() {
        let e = engine();
        let copier = CpuCopier::new(CopyParams::default());
        let mut a = AddressAllocator::new();
        let e = e.borrow();

        // Below the crossover the CPU wins...
        let small = req(&mut a, 2 * 1024);
        assert!(e.total_cost(&small) > copier.cold_cost(2 * 1024, 64));
        // ...above it the engine wins.
        for kb in [16u64, 32, 64] {
            let r = req(&mut a, kb * 1024);
            assert!(
                e.total_cost(&r) < copier.cold_cost(kb * 1024, 64),
                "DMA should beat cold copy at {kb}K"
            );
        }
    }

    #[test]
    fn fig6_shape_overlap_grows_with_size() {
        let e = engine();
        let mut a = AddressAllocator::new();
        let e = e.borrow();
        let mut prev = 0.0;
        for kb in [1u64, 2, 4, 8, 16, 32, 64] {
            let r = req(&mut a, kb * 1024);
            let o = e.overlap_fraction(&r);
            assert!(o >= prev, "overlap must grow with size");
            prev = o;
        }
        // Paper: ≈ 93 % at 64 K.
        assert!((0.88..=0.97).contains(&prev), "overlap at 64K = {prev}");
    }

    #[test]
    fn startup_cheaper_than_warm_copy_for_large_messages() {
        // §4.4: "the DMA startup overhead time is much less than the time
        // taken by CPU-based copy" — so the engine helps even when the
        // buffers are cache-resident, for large enough messages.
        let e = engine();
        let copier = CpuCopier::new(CopyParams::default());
        let mut a = AddressAllocator::new();
        let r = req(&mut a, 64 * 1024);
        assert!(e.borrow().cpu_overhead(&r) < copier.warm_cost(64 * 1024, 64));
    }

    #[test]
    fn empty_request_is_free() {
        let e = engine();
        let r = DmaRequest::new(Buffer::new(0, 0), Buffer::new(64, 0));
        let e = e.borrow();
        assert_eq!(e.cpu_overhead(&r), SimDuration::ZERO);
        assert_eq!(e.transfer_time(&r), SimDuration::ZERO);
        assert_eq!(e.overlap_fraction(&r), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        DmaRequest::new(Buffer::new(0, 10), Buffer::new(64, 20));
    }
}
