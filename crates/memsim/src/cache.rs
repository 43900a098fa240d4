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
//!
//! # Layout
//!
//! Each set is one fixed-width row of tags: the associativity rounded up
//! to a power of two, at most 64 words (so 8- and 16-way geometries waste
//! nothing). A `u8` per set counts the occupied ways; the occupied prefix
//! is kept in LRU-to-MRU order. A range access or invalidation picks the
//! row width once per call and then runs one compile-time-sized body per
//! line: a branch-free search, then explicit shifts within the row. The
//! search compares all of the row's words against the tag, with no early
//! exit, folds the matches into a `u64` bitmask and masks it to the
//! occupied ways; the lowest set bit is the way. Words past the prefix are
//! dead but hold zeros or stale tags, which would match without the mask.
//!
//! Rows are stored in chunks of 64 consecutive sets, each allocated the
//! first time an access touches one of its sets. A walk reads an empty
//! set's row too (within an allocated chunk), and the mask turns every
//! word of it away. An invalidation skips a chunk that was never
//! allocated, and a probe answers "not resident" for an empty set without
//! reading any row (an occupied set always has its chunk). A cache whose
//! lines fall in a few sets (the fabric runs hold hundreds of such L2
//! models) allocates only the chunks those sets lie in. A range walk steps through one run of sets at a time, up to the
//! next chunk edge or the set-index wrap, and looks its chunk up once per
//! run.
//!
//! A tag is the line number with its set index removed (`line >> log2(sets)`
//! for a power-of-two set count, `line / sets` otherwise), stored in a
//! `u16`. A paper-L2 chunk takes 1 KB and all 64 of them 64 KB per host,
//! not the 256 KB full `u64` lines would. A 16-bit tag reaches
//! `65 536 × sets × line_size` bytes of address space ([`Cache::reach`]):
//! 16 GiB for the paper L2. Accesses past the reach panic; probes there
//! report not resident.
//!
//! A range walk splits its first line into set and tag once, then steps:
//! the set index by one per line, the tag by one each time the set index
//! wraps to 0: no per-line shift and mask, and on other set counts no
//! per-line divide (see DESIGN.md, "Cache model", for the measurements).

use crate::address::Buffer;

/// Most ways a set may have: the widest row a range walk is compiled for
/// (and well inside a set's `u8` occupancy count).
const MAX_WAYS: u32 = 64;

/// Distinct tags a set can tell apart: a tag is a `u16`.
const TAGS_PER_SET: u64 = 1 << u16::BITS;

/// Sets whose rows share one allocation. The last chunk of a set count
/// that is not a multiple holds only the sets left.
const CHUNK_SETS: usize = 64;

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
            self.associativity <= MAX_WAYS,
            "associativity {} exceeds the {MAX_WAYS}-way maximum",
            self.associativity
        );
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
    /// Resident line tags (set index removed), one fixed-width row of
    /// `width` words per set, most recently used last within each row's
    /// occupied prefix. Words past the prefix are dead. Chunk `c` holds
    /// the rows of sets `64c..64c + 64` in one allocation, made when an
    /// access first touches one of them; `None` until then, when every
    /// one of its sets is empty.
    tags: Vec<Option<Box<[u16]>>>,
    /// Occupied ways per set; words of a row past it are dead.
    lens: Box<[u8]>,
    /// Row width: `associativity` rounded up to a power of two (at most
    /// `MAX_WAYS`). Range walks dispatch on it once per call, so the
    /// per-line body runs on a compile-time-sized row.
    width: usize,
    stats: CacheStats,
    line_shift: u32,
    /// Cached set count: `config.sets()` divides twice.
    num_sets: u64,
    /// `log2(num_sets)` when the set count is a power of two (the paper L2
    /// and every realistic geometry), letting a line split into set and
    /// tag by mask and shift instead of a hardware divide.
    set_bits: Option<u32>,
    /// Lines below this have a tag that fits a `u16`.
    reach_lines: u64,
}

/// What a range walk does to each resident (or missing) line.
#[derive(Clone, Copy)]
enum Walk {
    /// Touch every line: hits move to MRU, misses allocate (evicting LRU).
    Access,
    /// Drop every resident line, preserving the survivors' LRU order.
    Invalidate,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// capacity not a whole number of sets, more than 64 ways, ...).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let num_sets = config.sets();
        let width = (config.associativity as usize).next_power_of_two();
        Cache {
            config,
            tags: vec![None; (num_sets as usize).div_ceil(CHUNK_SETS)],
            lens: vec![0u8; num_sets as usize].into_boxed_slice(),
            width,
            stats: CacheStats::default(),
            line_shift: config.line_size.trailing_zeros(),
            num_sets,
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            reach_lines: TAGS_PER_SET * num_sets,
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

    /// Bytes of address space the cache can tell apart: `65 536 × sets ×
    /// line_size` (16 GiB for the paper L2). Every address an access or
    /// invalidation touches must lie below it.
    pub fn reach(&self) -> u64 {
        self.reach_lines << self.line_shift
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The set `line` maps to and its tag there. `line` must lie inside
    /// the reach for the tag to fit.
    fn split(&self, line: u64) -> (usize, u16) {
        let (set, tag) = match self.set_bits {
            Some(bits) => (line & (self.num_sets - 1), line >> bits),
            None => (line % self.num_sets, line / self.num_sets),
        };
        (set as usize, tag as u16)
    }

    /// Accesses one line by address, allocating on miss (write-allocate /
    /// read-allocate — the model does not distinguish).
    pub fn access_line(&mut self, addr: u64) -> AccessOutcome {
        let line = self.line_of(addr);
        if self.walk(Walk::Access, line, line).hit_lines == 1 {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        }
    }

    /// Checks residency without updating LRU order or statistics.
    pub fn probe_line(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        if line >= self.reach_lines {
            return false;
        }
        let (set_idx, tag) = self.split(line);
        let len = self.lens[set_idx] as usize;
        if len == 0 {
            return false;
        }
        let chunk = self.tags[set_idx / CHUNK_SETS]
            .as_deref()
            .expect("an occupied set's chunk is allocated");
        let base = set_idx % CHUNK_SETS * self.width;
        chunk[base..base + len].contains(&tag)
    }

    /// Accesses every line in `buf`, returning hit/miss counts.
    pub fn access_range(&mut self, buf: Buffer) -> RangeOutcome {
        match self.line_span(buf) {
            Some((first, last)) => self.walk(Walk::Access, first, last),
            None => RangeOutcome::default(),
        }
    }

    /// Counts how many lines of `buf` are resident, touching nothing.
    pub fn resident_lines(&self, buf: Buffer) -> u64 {
        let Some((first, last)) = self.line_span(buf) else {
            return 0;
        };
        (first..=last)
            .filter(|&l| self.probe_line(l << self.line_shift))
            .count() as u64
    }

    /// Invalidates every resident line of `buf` — the coherence action the
    /// memory controller performs after a DMA write (§2.2.2: "the copy
    /// engine must maintain cache coherence immediately after data
    /// transfer").
    pub fn invalidate_range(&mut self, buf: Buffer) {
        if let Some((first, last)) = self.line_span(buf) {
            self.walk(Walk::Invalidate, first, last);
        }
    }

    /// The first and last line numbers `buf` covers, or `None` if empty.
    fn line_span(&self, buf: Buffer) -> Option<(u64, u64)> {
        if buf.is_empty() {
            return None;
        }
        let first = buf.addr() >> self.line_shift;
        let last = (buf.addr() + buf.len() - 1) >> self.line_shift;
        Some((first, last))
    }

    /// Applies `walk` to lines `first..=last`, picking the row width once
    /// for the whole range.
    ///
    /// # Panics
    ///
    /// Panics if `last` lies past the reach, where its tag would not fit.
    fn walk(&mut self, walk: Walk, first: u64, last: u64) -> RangeOutcome {
        assert!(
            last < self.reach_lines,
            "address {:#x} is past the {}-byte reach of a {}-set cache's 16-bit tags",
            last << self.line_shift,
            self.reach(),
            self.num_sets
        );
        match self.width {
            1 => self.lines::<1>(walk, first, last),
            2 => self.lines::<2>(walk, first, last),
            4 => self.lines::<4>(walk, first, last),
            8 => self.lines::<8>(walk, first, last),
            16 => self.lines::<16>(walk, first, last),
            32 => self.lines::<32>(walk, first, last),
            64 => self.lines::<64>(walk, first, last),
            w => unreachable!("row width {w} is not a power of two <= {MAX_WAYS}"),
        }
    }

    /// The per-line body of every range walk, on rows of `W` words.
    ///
    /// The range is walked one run of sets at a time: a run ends at a
    /// chunk edge or at the set-index wrap, so it lies in one chunk and
    /// shares one tag. An access allocates the run's chunk if it is
    /// absent; an invalidation skips an absent chunk, whose sets are all
    /// empty.
    ///
    /// The matching way is found by `find`'s masked compare of the whole
    /// row. Moves within a row are explicit shifts: a hit slides the ways
    /// above it down one and re-inserts the line at MRU; a full-set miss
    /// slides every way down, dropping the LRU front; an invalidation
    /// slides the ways above it down and shortens the prefix.
    fn lines<const W: usize>(&mut self, walk: Walk, first: u64, last: u64) -> RangeOutcome {
        let ways = self.config.associativity as usize;
        debug_assert!(ways <= W && W == self.width);
        let num_sets = self.lens.len();
        let (mut set_idx, mut tag) = self.split(first);
        let mut left = last - first + 1;
        let mut out = RangeOutcome::default();
        let mut evictions = 0;
        let mut invalidations = 0;
        while left > 0 {
            let chunk_start = set_idx - set_idx % CHUNK_SETS;
            let chunk_sets = CHUNK_SETS.min(num_sets - chunk_start);
            // At most 64 sets, so the narrowing cannot truncate.
            let run = ((chunk_start + chunk_sets - set_idx) as u64).min(left) as usize;
            let slot = &mut self.tags[chunk_start / CHUNK_SETS];
            if let Walk::Access = walk {
                slot.get_or_insert_with(|| vec![0; chunk_sets * W].into_boxed_slice());
            }
            if let Some(chunk) = slot {
                let (rows, _) = chunk.as_chunks_mut::<W>();
                let rows = &mut rows[set_idx - chunk_start..][..run];
                let lens = &mut self.lens[set_idx..set_idx + run];
                for (row, set_len) in rows.iter_mut().zip(lens) {
                    let len = *set_len as usize;
                    let hit = find(row, len, tag);
                    match (walk, hit) {
                        (Walk::Access, Some(pos)) => {
                            for i in pos..len - 1 {
                                row[i] = row[i + 1];
                            }
                            row[len - 1] = tag;
                            out.hit_lines += 1;
                        }
                        (Walk::Access, None) if len == ways => {
                            // The whole row, for a constant trip count:
                            // words past `ways` are dead.
                            for i in 0..W - 1 {
                                row[i] = row[i + 1];
                            }
                            row[ways - 1] = tag;
                            evictions += 1;
                            out.miss_lines += 1;
                        }
                        (Walk::Access, None) => {
                            row[len] = tag;
                            *set_len = (len + 1) as u8;
                            out.miss_lines += 1;
                        }
                        (Walk::Invalidate, Some(pos)) => {
                            for i in pos..len - 1 {
                                row[i] = row[i + 1];
                            }
                            *set_len = (len - 1) as u8;
                            invalidations += 1;
                        }
                        (Walk::Invalidate, None) => {}
                    }
                }
            }
            left -= run as u64;
            // The next run starts at the next set; past the last set it
            // wraps to set 0 with the next tag.
            set_idx += run;
            if set_idx == num_sets {
                set_idx = 0;
                tag = tag.wrapping_add(1);
            }
        }
        self.stats.hits += out.hit_lines;
        self.stats.misses += out.miss_lines;
        self.stats.evictions += evictions;
        self.stats.invalidations += invalidations;
        out
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

/// The way of `row`'s occupied prefix `row[..len]` that holds `tag`.
///
/// All `W` words are compared, with no early exit, and the matches are
/// folded into a bitmask: no data-dependent branch. Tags are unique within a set, so the lowest set bit is the
/// only match. Words past `len` are dead but still hold zeros or stale
/// tags (a slide leaves its last word behind, and an invalidated MRU line
/// keeps its word), so the mask must drop them before the pick.
#[inline]
fn find<const W: usize>(row: &[u16; W], len: usize, tag: u16) -> Option<usize> {
    let matches = row
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, &t)| m | u64::from(t == tag) << i);
    // The low `len` bits; `len` may be 64, so the shift is done wide.
    let live = matches & ((1u128 << len) - 1) as u64;
    (live != 0).then(|| live.trailing_zeros() as usize)
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
    #[should_panic(expected = "exceeds the 64-way maximum")]
    fn associativity_above_64_panics() {
        // 65 ways × 64 B lines: one set. No row width is compiled past
        // 64 ways, and past 255 the u8 occupancy would wrap and lose lines.
        Cache::new(CacheConfig {
            capacity: 65 * 64,
            associativity: 65,
            line_size: 64,
        });
    }

    #[test]
    fn sixty_four_ways_hold_every_line() {
        // Two sets of 64 ways: the widest row. Every line of a working set
        // exactly the cache's size stays resident, and LRU still evicts
        // the oldest line once the set overflows.
        let cfg = CacheConfig {
            capacity: 2 * 64 * 64,
            associativity: 64,
            line_size: 64,
        };
        let mut c = Cache::new(cfg);
        let all = Buffer::new(0, cfg.capacity);
        assert_eq!(c.access_range(all).miss_lines, 128);
        assert_eq!(c.access_range(all).hit_lines, 128);
        assert_eq!(c.resident_line_count(), 128);
        assert_eq!(c.resident_lines(all), 128);
        // Line 128 maps to set 0, whose LRU way is line 0.
        assert_eq!(c.access_line(128 * 64), AccessOutcome::Miss);
        assert!(!c.probe_line(0));
        assert!(c.probe_line(2 * 64));
        assert_eq!(c.stats().evictions, 1);
        c.invalidate_range(all);
        assert_eq!(c.resident_line_count(), 1, "only line 128 survives");
        assert_eq!(c.stats().invalidations, 127);
    }

    /// Bytes of tag rows the cache holds.
    fn tag_bytes(c: &Cache) -> usize {
        c.tags
            .iter()
            .flatten()
            .map(|chunk| size_of_val(&**chunk))
            .sum()
    }

    fn modern_llc() -> CacheConfig {
        CacheConfig {
            capacity: 32 * 1024 * 1024,
            associativity: 16,
            line_size: 64,
        }
    }

    #[test]
    fn fresh_cache_holds_no_tag_rows() {
        for cfg in [CacheConfig::paper_l2(), modern_llc()] {
            assert_eq!(tag_bytes(&Cache::new(cfg)), 0);
        }
    }

    #[test]
    fn queries_of_a_fresh_cache_allocate_no_rows() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        let all = Buffer::new(0, 2 * c.config().capacity);
        assert!(!c.probe_line(0));
        assert!(!c.probe_line(c.reach() - 64));
        assert_eq!(c.resident_lines(all), 0);
        c.invalidate_range(all);
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(tag_bytes(&c), 0);
    }

    #[test]
    fn first_access_allocates_only_its_chunks() {
        let mut c = Cache::new(CacheConfig::paper_l2());
        // Sets 63 and 64: the last set of chunk 0 and the first of chunk 1.
        c.access_range(Buffer::new(63 * 64, 128));
        assert_eq!(tag_bytes(&c), 2 * 64 * 8 * 2);
        // Invalidating them leaves both chunks allocated, now empty.
        c.invalidate_range(Buffer::new(0, c.config().capacity));
        assert_eq!(c.resident_line_count(), 0);
        assert_eq!(tag_bytes(&c), 2 * 64 * 8 * 2);
    }

    #[test]
    fn touching_every_set_takes_two_bytes_per_way() {
        // One line per set touches every chunk.
        let touched = |cfg: CacheConfig| {
            let mut c = Cache::new(cfg);
            c.access_range(Buffer::new(0, cfg.sets() * cfg.line_size));
            tag_bytes(&c)
        };
        assert_eq!(touched(CacheConfig::paper_l2()), 64 * 1024);
        assert_eq!(touched(modern_llc()), 1024 * 1024);
        // A set count that is not a multiple of 64: the last chunk holds
        // only the 36 sets left.
        let partial = CacheConfig {
            capacity: 100 * 4 * 64,
            associativity: 4,
            line_size: 64,
        };
        assert_eq!(touched(partial), 100 * 4 * 2);
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
