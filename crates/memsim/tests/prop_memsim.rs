//! Property tests for memory-model invariants.
//!
//! Each property runs over `CASES` seeded inputs drawn from [`SimRng`];
//! a failure message carries the seed for deterministic replay.

use ioat_memsim::{
    AddressAllocator, Buffer, Cache, CacheConfig, CopyParams, CpuCopier, DmaConfig, DmaEngine,
    DmaRequest, PAGE_SIZE,
};
use ioat_simcore::{Sim, SimDuration, SimRng};

const CASES: u64 = 256;

/// Page chunks always tile the buffer exactly and never straddle a page
/// boundary.
#[test]
fn page_chunks_tile_exactly() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let addr = rng.range(0, 1_000_000);
        let len = rng.range(0, 100_000);
        let b = Buffer::new(addr, len);
        let chunks: Vec<Buffer> = b.page_chunks().collect();
        let total: u64 = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, len, "seed {seed}");
        let mut cursor = addr;
        for c in &chunks {
            assert_eq!(c.addr(), cursor, "seed {seed}: chunks must be contiguous");
            cursor += c.len();
            let first = c.addr() / PAGE_SIZE;
            let last = (c.addr() + c.len() - 1) / PAGE_SIZE;
            assert_eq!(first, last, "seed {seed}: chunk straddles a page");
        }
        if len > 0 {
            assert_eq!(chunks.len() as u64, b.pages(), "seed {seed}");
        }
    }
}

/// Cache residency never exceeds capacity, and hits + misses account for
/// every line touched.
#[test]
fn cache_capacity_invariant() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let n = rng.range(1, 60);
        let accesses: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range(0, 1 << 22), rng.range(1, 8192)))
            .collect();
        let cfg = CacheConfig {
            capacity: 64 * 1024,
            associativity: 4,
            line_size: 64,
        };
        let mut cache = Cache::new(cfg);
        for &(addr, len) in &accesses {
            cache.access_range(Buffer::new(addr, len));
            assert!(cache.resident_bytes() <= cfg.capacity, "seed {seed}");
        }
        let s = cache.stats();
        let touches: u64 = accesses
            .iter()
            .map(|&(addr, len)| {
                let first = addr / 64;
                let last = (addr + len - 1) / 64;
                last - first + 1
            })
            .sum();
        assert_eq!(s.hits + s.misses, touches, "seed {seed}");
    }
}

/// A range smaller than one cache way re-accessed immediately is fully
/// resident.
#[test]
fn immediate_reaccess_hits() {
    for seed in 0..CASES {
        let addr = SimRng::seed_from(seed).range(0, 1 << 20);
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let buf = Buffer::new(addr, 4096);
        cache.access_range(buf);
        let out = cache.access_range(buf);
        assert_eq!(out.miss_lines, 0, "seed {seed}");
    }
}

/// Copy cost is monotone in size for fixed residency, and cold ≥ warm.
#[test]
fn copy_cost_monotone() {
    let c = CpuCopier::new(CopyParams::default());
    for seed in 0..CASES {
        let bytes = SimRng::seed_from(seed).range(64, 1_000_000);
        let cold = c.cold_cost(bytes, 64);
        let warm = c.warm_cost(bytes, 64);
        assert!(cold >= warm, "seed {seed}");
        assert!(c.cold_cost(bytes + 64, 64) >= cold, "seed {seed}");
        assert!(c.warm_cost(bytes + 64, 64) >= warm, "seed {seed}");
    }
}

/// DMA accounting: issuing N copies serializes them; the channel's total
/// busy time equals the sum of the individual transfer times.
#[test]
fn dma_channel_busy_time_is_additive() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from(seed);
        let n = rng.range(1, 20);
        let lens: Vec<u64> = (0..n).map(|_| rng.range(1, 200_000)).collect();
        let mut sim = Sim::new();
        let engine = DmaEngine::new_ref(DmaConfig::default(), None);
        let mut alloc = AddressAllocator::new();
        let mut expected = SimDuration::ZERO;
        for &len in &lens {
            let r = DmaRequest::new(alloc.alloc(len), alloc.alloc(len));
            expected += engine.borrow().transfer_time(&r);
            DmaEngine::issue(&engine, &mut sim, r, |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), expected.as_nanos(), "seed {seed}");
        let eng = engine.borrow();
        let chan = eng.channel().borrow();
        assert_eq!(
            chan.meter().busy().as_nanos(),
            expected.as_nanos(),
            "seed {seed}"
        );
        assert_eq!(eng.stats().bytes, lens.iter().sum::<u64>(), "seed {seed}");
    }
}

/// Overlap fraction is always in [0, 1) for non-empty requests.
#[test]
fn overlap_fraction_bounded() {
    for seed in 0..CASES {
        let len = SimRng::seed_from(seed).range(1, 10_000_000);
        let engine = DmaEngine::new_ref(DmaConfig::default(), None);
        let mut alloc = AddressAllocator::new();
        let r = DmaRequest::new(alloc.alloc(len), alloc.alloc(len));
        let o = engine.borrow().overlap_fraction(&r);
        assert!((0.0..1.0).contains(&o), "seed {seed}: overlap = {o}");
    }
}
