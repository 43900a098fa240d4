//! Seedable, reproducible randomness for simulations.
//!
//! All stochastic model decisions (workload sampling, think times) draw
//! from a [`SimRng`]. Experiments construct one from an explicit seed so
//! every run — and every figure in `EXPERIMENTS.md` — is reproducible.
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! `rand 0.8`'s `SmallRng` on 64-bit targets), seeded through SplitMix64
//! exactly as `SeedableRng::seed_from_u64` does, so historic streams are
//! preserved without a registry dependency.

/// A deterministic random-number source.
///
/// Implements xoshiro256++ with the distribution helpers the workloads
/// need (exponential inter-arrivals, discrete choices). A `SimRng` can be
/// `fork`ed to give each model component an independent stream that does
/// not perturb the others when one component draws more.
///
/// ```rust
/// use ioat_simcore::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion, as in
    /// `rand`'s `seed_from_u64`).
    pub fn seed_from(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four zero words from any seed, but guard anyway.
        if s == [0; 4] {
            return SimRng::seed_from(0x9e37_79b9_7f4a_7c15);
        }
        SimRng { s }
    }

    /// Derives an independent stream; the parent advances by one draw.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Derives the `stream_id`-th stream of a seed family *without* any
    /// shared mutable parent: `stream(seed, a)` and `stream(seed, b)` are
    /// statistically independent for `a != b`, and neither consumes draws
    /// from any other generator. This is how the fault layer obtains
    /// per-link RNG streams that cannot perturb workload streams seeded
    /// from the same experiment seed.
    pub fn stream(seed: u64, stream_id: u64) -> SimRng {
        // Two SplitMix64 mixes with the stream id injected between them:
        // a single xor of the raw id would map adjacent ids to correlated
        // xoshiro seeds; the second mix decorrelates them.
        let mut st = seed;
        let mixed = splitmix64(&mut st);
        let mut st2 = mixed ^ stream_id;
        SimRng::seed_from(splitmix64(&mut st2))
    }

    /// Next raw 64-bit value (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` (53 high bits, as `rand`'s `Standard`).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)` (Lemire widening-multiply rejection,
    /// matching `rand 0.8`'s single-sample `gen_range`).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let range = hi - lo;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.next_u64()) * u128::from(range);
            let high = (m >> 64) as u64;
            let low = m as u64;
            if low <= zone {
                return lo + high;
            }
        }
    }

    /// Exponentially distributed value with the given mean (inverse-CDF
    /// method). A zero or negative mean returns 0.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // 1 - uniform() is in (0, 1]; ln of it is finite.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Snapshot of the internal state — equal states produce equal future
    /// streams. Used by determinism tests to prove two runs consumed the
    /// generator identically.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn matches_reference_vectors() {
        // First outputs of rand 0.8 SmallRng::seed_from_u64(0) on x86_64,
        // i.e. SplitMix64-seeded xoshiro256++. Computed from the published
        // reference algorithms; pins the stream across refactors.
        let mut st = 0u64;
        let s0 = splitmix64(&mut st);
        assert_eq!(s0, 0xe220_a839_7b1d_cdaf); // SplitMix64(0) first output
        let mut rng = SimRng::seed_from(0);
        let first = rng.next_u64();
        // xoshiro256++ first output = rotl(s0 + s3, 23) + s0 on the seeded state.
        let mut st2 = 0u64;
        let q = [
            splitmix64(&mut st2),
            splitmix64(&mut st2),
            splitmix64(&mut st2),
            splitmix64(&mut st2),
        ];
        let expect = q[0].wrapping_add(q[3]).rotate_left(23).wrapping_add(q[0]);
        assert_eq!(first, expect);
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut parent1 = SimRng::seed_from(1);
        let mut parent2 = SimRng::seed_from(1);
        let mut fork1 = parent1.fork();
        let mut fork2 = parent2.fork();
        assert_eq!(fork1.next_u64(), fork2.next_u64());
        assert_ne!(fork1.next_u64(), parent1.next_u64());
    }

    #[test]
    fn stream_split_is_deterministic_and_distinct() {
        let mut a = SimRng::stream(42, 0);
        let mut a2 = SimRng::stream(42, 0);
        let mut b = SimRng::stream(42, 1);
        let mut c = SimRng::stream(43, 0);
        let (x, x2, y, z) = (a.next_u64(), a2.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, x2, "same (seed, stream) must replay");
        assert_ne!(x, y, "adjacent stream ids must diverge");
        assert_ne!(x, z, "different seeds must diverge");
        // A split stream must also differ from the plain seeded stream so
        // fault draws never alias workload draws.
        assert_ne!(x, SimRng::seed_from(42).next_u64());
    }

    #[test]
    fn stream_split_does_not_perturb_workload_streams() {
        // Consuming arbitrarily many draws from a fault stream leaves a
        // workload generator seeded from the same experiment seed on the
        // exact same trajectory.
        let mut workload_ref = SimRng::seed_from(0xFEED);
        let reference: Vec<u64> = (0..64).map(|_| workload_ref.next_u64()).collect();

        let mut fault = SimRng::stream(0xFEED, 7);
        let mut workload = SimRng::seed_from(0xFEED);
        let mut observed = Vec::new();
        for i in 0..64 {
            for _ in 0..(i % 5) {
                fault.next_u64(); // interleaved fault draws
            }
            observed.push(workload.next_u64());
        }
        assert_eq!(observed, reference);
    }

    #[test]
    fn stream_split_streams_are_statistically_uncorrelated() {
        // Crude independence check: adjacent stream ids should agree on a
        // bit-position about half the time, not systematically.
        let mut a = SimRng::stream(9, 100);
        let mut b = SimRng::stream(9, 101);
        let mut matching_bits = 0u32;
        let samples = 1_000;
        for _ in 0..samples {
            matching_bits += (a.next_u64() ^ b.next_u64()).count_zeros();
        }
        let frac = f64::from(matching_bits) / (samples as f64 * 64.0);
        assert!((frac - 0.5).abs() < 0.02, "bit agreement {frac}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from(99);
        let n = 50_000;
        let mean = 10.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() / mean < 0.03, "empirical mean {emp}");
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            let v = rng.range(5, 10);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SimRng::seed_from(17);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.range(0, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(4.0));
    }

    #[test]
    fn state_snapshot_pins_future_stream() {
        let mut a = SimRng::seed_from(23);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.state(), b.state());
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.state(), SimRng::seed_from(23).state());
    }
}
