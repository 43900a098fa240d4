//! Differential test for the set-associative cache model.
//!
//! [`Cache`] stores each set as a fixed-width row of 16-bit set-relative
//! tags, in chunks of 64 sets allocated on first touch, and walks ranges
//! one run of sets at a time by stepping set index and tag, with explicit
//! shifts within a row. The oracle below is the straightforward per-line
//! model it replaced: one `associativity`-wide slice per set of full `u64`
//! line numbers, a linear `position` search and `rotate_left` to move a
//! line to MRU, evict the LRU front or close an invalidation gap. Seeded
//! [`SimRng`] scripts drive both through the same access and invalidate
//! ranges — across associativities from direct-mapped to 64 ways, with
//! power-of-two and other set counts, with ranges longer than the whole
//! cache, across chunk edges and partial last chunks, over chunks never
//! touched, and at the top of the 16-bit tag reach — and every call must
//! agree on its [`RangeOutcome`], the running [`CacheStats`] and
//! residency.

use ioat_memsim::cache::RangeOutcome;
use ioat_memsim::{Buffer, Cache, CacheConfig, CacheStats};
use ioat_simcore::SimRng;

/// The per-line `rotate_left` model: `associativity` tags per set, LRU
/// first within each set's occupied prefix.
struct Oracle {
    ways: usize,
    sets: u64,
    line_shift: u32,
    tags: Vec<u64>,
    lens: Vec<usize>,
    stats: CacheStats,
}

impl Oracle {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Oracle {
            ways: cfg.associativity as usize,
            sets,
            line_shift: cfg.line_size.trailing_zeros(),
            tags: vec![0; sets as usize * cfg.associativity as usize],
            lens: vec![0; sets as usize],
            stats: CacheStats::default(),
        }
    }

    fn lines(&self, buf: Buffer) -> std::ops::Range<u64> {
        let first = buf.addr() >> self.line_shift;
        if buf.is_empty() {
            return first..first;
        }
        first..((buf.addr() + buf.len() - 1) >> self.line_shift) + 1
    }

    fn set(&self, line: u64) -> (usize, usize) {
        let set = (line % self.sets) as usize;
        (set, set * self.ways)
    }

    fn access_range(&mut self, buf: Buffer) -> RangeOutcome {
        let mut out = RangeOutcome::default();
        for line in self.lines(buf) {
            let (set_idx, base) = self.set(line);
            let len = self.lens[set_idx];
            let set = &mut self.tags[base..base + len];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set[pos..].rotate_left(1);
                self.stats.hits += 1;
                out.hit_lines += 1;
            } else if len == self.ways {
                set.rotate_left(1);
                set[self.ways - 1] = line;
                self.stats.evictions += 1;
                self.stats.misses += 1;
                out.miss_lines += 1;
            } else {
                self.tags[base + len] = line;
                self.lens[set_idx] = len + 1;
                self.stats.misses += 1;
                out.miss_lines += 1;
            }
        }
        out
    }

    fn invalidate_range(&mut self, buf: Buffer) {
        for line in self.lines(buf) {
            let (set_idx, base) = self.set(line);
            let len = self.lens[set_idx];
            let set = &mut self.tags[base..base + len];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set[pos..].rotate_left(1);
                self.lens[set_idx] = len - 1;
                self.stats.invalidations += 1;
            }
        }
    }

    fn resident_lines(&self, buf: Buffer) -> u64 {
        self.lines(buf)
            .filter(|&line| {
                let (set_idx, base) = self.set(line);
                self.tags[base..base + self.lens[set_idx]].contains(&line)
            })
            .count() as u64
    }

    fn resident_line_count(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).sum()
    }
}

/// One seeded script of `ops` random range operations on `cfg`, starting
/// at `base`, checked call by call.
fn run_script(cfg: CacheConfig, base: u64, seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut cache = Cache::new(cfg);
    let mut oracle = Oracle::new(cfg);
    let ctx = format!(
        "{}-way, {} sets, base {base:#x}, seed {seed}",
        cfg.associativity,
        cfg.sets()
    );
    // Addresses span four capacities, so sets fill, overflow and recycle;
    // lengths reach past one capacity, so a single call can wrap every set.
    // No range runs past the tag reach; probes may.
    let span = 4 * cfg.capacity;
    for step in 0..ops {
        let addr = base + rng.range(0, span);
        let len = match rng.range(0, 8) {
            0 => 0,
            1 => rng.range(cfg.capacity, 2 * cfg.capacity),
            _ => rng.range(1, 4 * cfg.line_size),
        }
        .min(cache.reach() - addr);
        let buf = Buffer::new(addr, len);
        match rng.range(0, 4) {
            0 => {
                cache.invalidate_range(buf);
                oracle.invalidate_range(buf);
            }
            _ => assert_eq!(
                cache.access_range(buf),
                oracle.access_range(buf),
                "{ctx} step {step}: access_range({addr}, {len})"
            ),
        }
        assert_eq!(cache.stats(), oracle.stats, "{ctx} step {step}: stats");
        let probe = Buffer::new(base + rng.range(0, span), rng.range(0, cfg.capacity));
        assert_eq!(
            cache.resident_lines(probe),
            oracle.resident_lines(probe),
            "{ctx} step {step}: resident_lines"
        );
        assert_eq!(
            cache.resident_line_count(),
            oracle.resident_line_count(),
            "{ctx} step {step}: resident_line_count"
        );
    }
    // Every line either model ever touched agrees on residency.
    let all = Buffer::new(base, span + 2 * cfg.capacity);
    assert_eq!(
        cache.resident_lines(all),
        oracle.resident_lines(all),
        "{ctx}: final residency"
    );
}

#[test]
fn cache_matches_rotate_left_oracle() {
    let line_size = 64;
    for associativity in [1u32, 2, 4, 8, 12, 64] {
        // Power-of-two set counts take the mask mapping, the others the
        // modulo one.
        for sets in [1u64, 3, 4, 6, 16, 37] {
            let cfg = CacheConfig {
                capacity: sets * associativity as u64 * line_size,
                associativity,
                line_size,
            };
            for seed in 0..3 {
                run_script(
                    cfg,
                    0,
                    seed * 1_000 + associativity as u64 * 100 + sets,
                    200,
                );
            }
        }
    }
}

#[test]
fn paper_l2_matches_oracle_on_long_streams() {
    // The paper's 2 MB, 8-way L2 under whole-cache streams: copies of
    // payload larger than the cache interleaved with coherence
    // invalidations, the Fig. 7b pattern.
    let cfg = CacheConfig::paper_l2();
    let mut rng = SimRng::seed_from(0x12_2007);
    let mut cache = Cache::new(cfg);
    let mut oracle = Oracle::new(cfg);
    for step in 0..40 {
        let buf = Buffer::new(
            rng.range(0, 4 * cfg.capacity),
            rng.range(1, 3 * cfg.capacity),
        );
        if step % 3 == 2 {
            cache.invalidate_range(buf);
            oracle.invalidate_range(buf);
        } else {
            assert_eq!(
                cache.access_range(buf),
                oracle.access_range(buf),
                "step {step}"
            );
        }
        assert_eq!(cache.stats(), oracle.stats, "step {step}");
        assert_eq!(cache.resident_line_count(), oracle.resident_line_count());
    }
}

/// The paper L2, a 16-way power-of-two geometry and a 37-set geometry on
/// the modulo mapping, driven over the four capacities just below the tag
/// reach: long ranges cross the last tags (`0xFFFE`, `0xFFFF`) and many
/// end on the reach's final line, where the walk's tag wraps.
#[test]
fn cache_matches_oracle_at_the_tag_reach() {
    let geometries = [
        (CacheConfig::paper_l2(), 60),
        (
            CacheConfig {
                capacity: 64 * 16 * 64,
                associativity: 16,
                line_size: 64,
            },
            200,
        ),
        (
            CacheConfig {
                capacity: 37 * 4 * 64,
                associativity: 4,
                line_size: 64,
            },
            200,
        ),
    ];
    for (cfg, ops) in geometries {
        let reach = Cache::new(cfg).reach();
        assert_eq!(reach, 65_536 * cfg.sets() * cfg.line_size);
        for seed in 0..3 {
            run_script(cfg, reach - 4 * cfg.capacity, 0xFFFF + seed, ops);
        }
    }
}

#[test]
fn ranges_across_the_last_tags_match_oracle() {
    // Set-sized strides below the reach: each range starts a few lines
    // before a tag boundary and ends a few lines after it.
    for cfg in [
        CacheConfig::paper_l2(),
        CacheConfig {
            capacity: 37 * 4 * 64,
            associativity: 4,
            line_size: 64,
        },
    ] {
        let mut cache = Cache::new(cfg);
        let mut oracle = Oracle::new(cfg);
        let tag_bytes = cfg.sets() * cfg.line_size;
        let reach = cache.reach();
        for tags_below in (1..=3).rev() {
            let boundary = reach - tags_below * tag_bytes;
            let buf = Buffer::new(boundary - 3 * cfg.line_size, 6 * cfg.line_size);
            assert_eq!(cache.access_range(buf), oracle.access_range(buf));
        }
        let last = Buffer::new(reach - 2 * tag_bytes, 2 * tag_bytes);
        assert_eq!(cache.access_range(last), oracle.access_range(last));
        assert_eq!(cache.access_range(last), oracle.access_range(last));
        assert_eq!(cache.stats(), oracle.stats);
        let top = Buffer::new(reach - 4 * tag_bytes, 4 * tag_bytes);
        assert_eq!(cache.resident_lines(top), oracle.resident_lines(top));
        cache.invalidate_range(top);
        oracle.invalidate_range(top);
        assert_eq!(cache.stats(), oracle.stats);
        assert_eq!(cache.resident_line_count(), 0);
    }
}

#[test]
#[should_panic(expected = "reach")]
fn access_one_line_past_the_reach_panics() {
    let mut cache = Cache::new(CacheConfig::paper_l2());
    let reach = cache.reach();
    // The range's first line is the last one inside the reach.
    cache.access_range(Buffer::new(reach - 64, 128));
}

#[test]
fn addresses_past_the_reach_are_never_resident() {
    let mut cache = Cache::new(CacheConfig::paper_l2());
    let reach = cache.reach();
    // One reach above line 0 is the line whose 16-bit tag would alias
    // onto line 0's.
    cache.access_range(Buffer::new(0, 4096));
    cache.access_range(Buffer::new(reach - 4096, 4096));
    assert!(cache.probe_line(0));
    assert!(cache.probe_line(reach - 64));
    assert!(!cache.probe_line(reach));
    assert!(!cache.probe_line(u64::MAX));
    assert_eq!(cache.resident_lines(Buffer::new(reach, 4096)), 0);
    assert_eq!(cache.resident_lines(Buffer::new(reach - 4096, 8192)), 64);
}

/// Set counts that are not a multiple of 64, so the last chunk is
/// partial: 100 sets hold chunks 0..64 and 64..100, 150 sets 0..64,
/// 64..128 and 128..150.
fn partial_chunk_geometries() -> [CacheConfig; 2] {
    [100, 150].map(|sets| CacheConfig {
        capacity: sets * 4 * 64,
        associativity: 4,
        line_size: 64,
    })
}

#[test]
fn ranges_across_chunk_edges_match_oracle() {
    for cfg in partial_chunk_geometries() {
        let sets = cfg.sets();
        let tag_bytes = sets * cfg.line_size;
        let mut rng = SimRng::seed_from(0xC4_0064 + sets);
        let mut cache = Cache::new(cfg);
        let mut oracle = Oracle::new(cfg);
        // Sets on either side of each chunk edge and of the set-index
        // wrap (the last set), and the first set.
        let edges: Vec<u64> = [0, 63, 64, 127, 128, sets - 1]
            .into_iter()
            .filter(|&set| set < sets)
            .collect();
        for step in 0..600 {
            // A range starting from 3 sets before an edge to 3 sets past
            // it, so it ends on either side of the edge (or past the
            // wrap, in the next tag); now and then one or two whole
            // capacities, so every set is walked.
            let edge = edges[rng.range(0, edges.len() as u64) as usize];
            let tag = rng.range(0, 8);
            let start = (tag * sets + edge + rng.range(0, 7)).saturating_sub(3);
            let lines = match rng.range(0, 10) {
                0 => rng.range(sets, 2 * sets + 1),
                _ => rng.range(1, 8),
            };
            let buf = Buffer::new(start * cfg.line_size, lines * cfg.line_size);
            if rng.range(0, 4) == 0 {
                cache.invalidate_range(buf);
                oracle.invalidate_range(buf);
            } else {
                assert_eq!(
                    cache.access_range(buf),
                    oracle.access_range(buf),
                    "{sets} sets, step {step}: access_range(line {start}, {lines} lines)"
                );
            }
            assert_eq!(cache.stats(), oracle.stats, "{sets} sets, step {step}");
            let around = Buffer::new(
                (start.saturating_sub(4)) * cfg.line_size,
                (lines + 8) * cfg.line_size,
            );
            assert_eq!(
                cache.resident_lines(around),
                oracle.resident_lines(around),
                "{sets} sets, step {step}: resident_lines"
            );
        }
        // Ranges start below tag 8 and run at most two capacities on.
        let all = Buffer::new(0, 11 * tag_bytes);
        assert_eq!(cache.resident_lines(all), oracle.resident_lines(all));
        assert_eq!(cache.resident_line_count(), oracle.resident_line_count());
    }
}

#[test]
fn untouched_chunks_report_nothing_resident() {
    for cfg in partial_chunk_geometries() {
        let sets = cfg.sets();
        let line = cfg.line_size;
        let mut cache = Cache::new(cfg);
        let mut oracle = Oracle::new(cfg);
        let check = |cache: &Cache, oracle: &Oracle, what: &str| {
            for chunk_start in (0..sets).step_by(64) {
                for set in [chunk_start, (chunk_start + 63).min(sets - 1)] {
                    for tag in [0, 1, 5] {
                        let addr = (tag * sets + set) * line;
                        assert_eq!(
                            cache.probe_line(addr),
                            oracle.resident_lines(Buffer::new(addr, 1)) == 1,
                            "{sets} sets, {what}: probe_line(set {set}, tag {tag})"
                        );
                    }
                }
                let chunk = Buffer::new(chunk_start * line, 64 * line);
                assert_eq!(
                    cache.resident_lines(chunk),
                    oracle.resident_lines(chunk),
                    "{sets} sets, {what}: resident_lines(chunk at set {chunk_start})"
                );
            }
            assert_eq!(cache.stats(), oracle.stats, "{sets} sets, {what}: stats");
            assert_eq!(cache.resident_line_count(), oracle.resident_line_count());
        };
        // Before any access: every chunk is absent.
        check(&cache, &oracle, "fresh");
        let everything = Buffer::new(0, 3 * sets * line);
        cache.invalidate_range(everything);
        oracle.invalidate_range(everything);
        check(&cache, &oracle, "fresh, invalidated");
        // Touch only chunk 0, twice over its first tags, then query and
        // invalidate the chunks after it, which stay absent.
        for tag in 0..2 {
            let buf = Buffer::new((tag * sets + 10) * line, 20 * line);
            assert_eq!(cache.access_range(buf), oracle.access_range(buf));
        }
        check(&cache, &oracle, "chunk 0 touched");
        let rest = Buffer::new(64 * line, (sets - 64) * line);
        cache.invalidate_range(rest);
        oracle.invalidate_range(rest);
        check(&cache, &oracle, "untouched chunks invalidated");
        // An invalidation across the whole cache drops chunk 0's lines
        // and skips the absent chunks; then the last chunk is accessed
        // for the first time, and chunk 0 again.
        cache.invalidate_range(everything);
        oracle.invalidate_range(everything);
        check(&cache, &oracle, "all invalidated");
        let last = Buffer::new((sets - 5) * line, 10 * line);
        assert_eq!(cache.access_range(last), oracle.access_range(last));
        assert_eq!(cache.access_range(last), oracle.access_range(last));
        check(&cache, &oracle, "wrap accessed");
    }
}
