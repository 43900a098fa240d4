//! A set-associative, LRU, write-allocate cache simulator.
//!
//! Models the testbed's 2 MB L2 (the paper's nodes have a 2 MB L2 shared
//! per socket). The simulator tracks *which lines are resident*, not their
//! contents; the copy and stack models query it to decide whether an access
//! pays the cached or the memory-latency cost.
//!
//! Two behaviours matter for the reproduction:
//!
//! * **Pollution** (Fig. 7b): streaming payload data through the cache
//!   evicts hot state (connection structs, header rings). The split-header
//!   feature avoids inserting payload lines at all.
//! * **Coherence invalidation** (§2.2.2): the DMA engine writes memory
//!   directly, so destination lines must be invalidated — a subsequent CPU
//!   read of DMA-written data misses.

use crate::address::Buffer;

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
}

impl CacheConfig {
    /// The paper testbed's L2: 2 MB, 8-way, 64-byte lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            capacity: 2 * 1024 * 1024,
            associativity: 8,
            line_size: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.associativity as u64 * self.line_size)
    }

    fn validate(&self) {
        assert!(self.line_size.is_power_of_two(), "line size must be 2^k");
        assert!(self.associativity > 0, "associativity must be positive");
        assert!(
            self.capacity
                .is_multiple_of(self.associativity as u64 * self.line_size),
            "capacity must be a whole number of sets"
        );
        assert!(self.sets() > 0, "cache must have at least one set");
    }
}

/// Whether an access hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Line was resident.
    Hit,
    /// Line was not resident (and was inserted, unless bypassed).
    Miss,
}

/// Running hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of line accesses that hit.
    pub hits: u64,
    /// Number of line accesses that missed.
    pub misses: u64,
    /// Number of lines evicted to make room.
    pub evictions: u64,
    /// Number of lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit fraction over all accesses (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hit/miss counts for a multi-line range access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Lines that hit.
    pub hit_lines: u64,
    /// Lines that missed.
    pub miss_lines: u64,
}

impl RangeOutcome {
    /// Total lines touched.
    pub fn lines(&self) -> u64 {
        self.hit_lines + self.miss_lines
    }
}

/// The cache proper.
///
/// ```rust
/// use ioat_memsim::{AccessOutcome, Cache, CacheConfig};
/// let mut cache = Cache::new(CacheConfig { capacity: 4096, associativity: 2, line_size: 64 });
/// assert_eq!(cache.access_line(0), AccessOutcome::Miss);
/// assert_eq!(cache.access_line(0), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Resident line tags, `associativity` slots per set, most recently
    /// used last within each set's occupied prefix. One contiguous
    /// allocation (sets × ways): the per-line lookup loop walks at most
    /// `associativity` adjacent words — no per-set pointer chase.
    tags: Box<[u64]>,
    /// Occupied ways per set.
    lens: Box<[u8]>,
    stats: CacheStats,
    line_shift: u32,
    /// Cached set count: `config.sets()` divides twice, and the mapping
    /// runs once per line touched — the innermost loop of every copy.
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two (the paper L2
    /// and every realistic geometry), letting the mapping be a mask
    /// instead of a hardware divide; `0` otherwise.
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// capacity not a whole number of sets, ...).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.sets() as usize;
        let num_sets = config.sets();
        Cache {
            config,
            tags: vec![0u64; sets * config.associativity as usize].into_boxed_slice(),
            lens: vec![0u8; sets].into_boxed_slice(),
            stats: CacheStats::default(),
            line_shift: config.line_size.trailing_zeros(),
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets - 1
            } else {
                0
            },
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % self.num_sets) as usize
        }
    }

    /// Accesses one line by address, allocating on miss (write-allocate /
    /// read-allocate — the model does not distinguish).
    pub fn access_line(&mut self, addr: u64) -> AccessOutcome {
        let line = self.line_of(addr);
        let set_idx = self.set_of(line);
        let ways = self.config.associativity as usize;
        let base = set_idx * ways;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // Move to MRU position (end of the occupied prefix).
            set[pos..].rotate_left(1);
            self.stats.hits += 1;
            AccessOutcome::Hit
        } else if len == ways {
            // Evict LRU (front), insert at MRU (back).
            set.rotate_left(1);
            set[ways - 1] = line;
            self.stats.evictions += 1;
            self.stats.misses += 1;
            AccessOutcome::Miss
        } else {
            self.tags[base + len] = line;
            self.lens[set_idx] = (len + 1) as u8;
            self.stats.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Checks residency without updating LRU order or statistics.
    pub fn probe_line(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_idx = self.set_of(line);
        let base = set_idx * self.config.associativity as usize;
        let len = self.lens[set_idx] as usize;
        self.tags[base..base + len].contains(&line)
    }

    /// Accesses every line in `buf`, returning hit/miss counts.
    pub fn access_range(&mut self, buf: Buffer) -> RangeOutcome {
        let mut out = RangeOutcome::default();
        if buf.is_empty() {
            return out;
        }
        let first = buf.addr() >> self.line_shift;
        let last = (buf.addr() + buf.len() - 1) >> self.line_shift;
        for line in first..=last {
            match self.access_line(line << self.line_shift) {
                AccessOutcome::Hit => out.hit_lines += 1,
                AccessOutcome::Miss => out.miss_lines += 1,
            }
        }
        out
    }

    /// Counts how many lines of `buf` are resident, touching nothing.
    pub fn resident_lines(&self, buf: Buffer) -> u64 {
        if buf.is_empty() {
            return 0;
        }
        let first = buf.addr() >> self.line_shift;
        let last = (buf.addr() + buf.len() - 1) >> self.line_shift;
        (first..=last)
            .filter(|&l| self.probe_line(l << self.line_shift))
            .count() as u64
    }

    /// Invalidates every resident line of `buf` — the coherence action the
    /// memory controller performs after a DMA write (§2.2.2: "the copy
    /// engine must maintain cache coherence immediately after data
    /// transfer").
    pub fn invalidate_range(&mut self, buf: Buffer) {
        if buf.is_empty() {
            return;
        }
        let first = buf.addr() >> self.line_shift;
        let last = (buf.addr() + buf.len() - 1) >> self.line_shift;
        for line in first..=last {
            let set_idx = self.set_of(line);
            let ways = self.config.associativity as usize;
            let base = set_idx * ways;
            let len = self.lens[set_idx] as usize;
            let set = &mut self.tags[base..base + len];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                // Close the gap, preserving LRU order of the survivors.
                set[pos..].rotate_left(1);
                self.lens[set_idx] = (len - 1) as u8;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Total lines currently resident.
    pub fn resident_line_count(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_line_count() * self.config.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig {
            capacity: 256,
            associativity: 2,
            line_size: 64,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert_eq!(c.access_line(0), AccessOutcome::Miss);
        assert_eq!(c.access_line(0), AccessOutcome::Hit);
        assert_eq!(c.access_line(63), AccessOutcome::Hit, "same line");
        assert_eq!(c.access_line(64), AccessOutcome::Miss, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        let a = 0u64;
        let b = 2 * 64;
        let d = 4 * 64;
        c.access_line(a);
        c.access_line(b);
        c.access_line(a); // refresh a → b is now LRU
        c.access_line(d); // evicts b
        assert!(c.probe_line(a));
        assert!(!c.probe_line(b));
        assert!(c.probe_line(d));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig {
            capacity: 4096,
            associativity: 4,
            line_size: 64,
        };
        let mut c = Cache::new(cfg);
        // Stream 10× the capacity through.
        for i in 0..(10 * cfg.capacity / cfg.line_size) {
            c.access_line(i * cfg.line_size);
        }
        assert!(c.resident_bytes() <= cfg.capacity);
        assert_eq!(c.resident_bytes(), cfg.capacity, "stream fills the cache");
    }

    #[test]
    fn range_access_counts_lines() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        let buf = Buffer::new(100, 1000); // lines 1..=17 (64B lines)
        let out = c.access_range(buf);
        assert_eq!(out.lines(), 17);
        assert_eq!(out.miss_lines, 17);
        let again = c.access_range(buf);
        assert_eq!(again.hit_lines, 17);
        assert_eq!(c.resident_lines(buf), 17);
    }

    #[test]
    fn invalidation_removes_lines() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        let buf = Buffer::new(0, 640);
        c.access_range(buf);
        assert_eq!(c.resident_lines(buf), 10);
        c.invalidate_range(buf);
        assert_eq!(c.resident_lines(buf), 0);
        assert_eq!(c.stats().invalidations, 10);
        // Invalidating non-resident lines is a no-op.
        c.invalidate_range(buf);
        assert_eq!(c.stats().invalidations, 10);
    }

    #[test]
    fn streaming_pollution_evicts_hot_set() {
        // The Fig. 7b mechanism in miniature: hot state stays resident
        // until a large payload streams through the cache.
        let cfg = CacheConfig {
            capacity: 64 * 1024,
            associativity: 8,
            line_size: 64,
        };
        let mut c = Cache::new(cfg);
        let hot = Buffer::new(0, 4096);
        c.access_range(hot);
        assert_eq!(c.resident_lines(hot), 64);
        // Stream 4× capacity of payload.
        let payload = Buffer::new(1 << 20, 4 * cfg.capacity);
        c.access_range(payload);
        assert_eq!(c.resident_lines(hot), 0, "hot lines were evicted");
    }

    #[test]
    fn empty_range_is_noop() {
        let mut c = tiny();
        let out = c.access_range(Buffer::new(0, 0));
        assert_eq!(out.lines(), 0);
        assert_eq!(c.resident_lines(Buffer::new(0, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            capacity: 256,
            associativity: 2,
            line_size: 60,
        });
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let a = 0u64;
        let b = 2 * 64;
        let d = 4 * 64;
        c.access_line(a);
        c.access_line(b);
        // Probing `a` must NOT refresh it; `a` stays LRU and gets evicted.
        assert!(c.probe_line(a));
        c.access_line(d);
        assert!(!c.probe_line(a));
        assert!(c.probe_line(b));
    }
}
