//! Differential test for the set-associative cache model.
//!
//! [`Cache`] stores each set as a fixed-width row and walks ranges with a
//! branchless way match and explicit shifts. The oracle below is the
//! straightforward per-line model it replaced: one `associativity`-wide
//! slice per set, a linear `position` search and `rotate_left` to move a
//! line to MRU, evict the LRU front or close an invalidation gap. Seeded
//! [`SimRng`] scripts drive both through the same access and invalidate
//! ranges — across associativities from direct-mapped to 64 ways, with
//! power-of-two and other set counts, and with ranges longer than the
//! whole cache — and every call must agree on its [`RangeOutcome`], the
//! running [`CacheStats`] and residency.

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

/// One seeded script of `ops` random range operations on `cfg`, checked
/// call by call.
fn run_script(cfg: CacheConfig, seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut cache = Cache::new(cfg);
    let mut oracle = Oracle::new(cfg);
    let ctx = format!(
        "{}-way, {} sets, seed {seed}",
        cfg.associativity,
        cfg.sets()
    );
    // Addresses span four capacities, so sets fill, overflow and recycle;
    // lengths reach past one capacity, so a single call can wrap every set.
    let span = 4 * cfg.capacity;
    for step in 0..ops {
        let addr = rng.range(0, span);
        let len = match rng.range(0, 8) {
            0 => 0,
            1 => rng.range(cfg.capacity, 2 * cfg.capacity),
            _ => rng.range(1, 4 * cfg.line_size),
        };
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
        let probe = Buffer::new(rng.range(0, span), rng.range(0, cfg.capacity));
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
    let all = Buffer::new(0, span + 2 * cfg.capacity);
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
                run_script(cfg, seed * 1_000 + associativity as u64 * 100 + sets, 200);
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
