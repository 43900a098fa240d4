//! CPU copy cost model.
//!
//! §2.2.2 of the paper: "most of the time during receive processing is
//! spent in copying the data from kernel buffer to user buffer". The cost
//! of that copy depends dramatically on cache residency — the paper's
//! Fig. 6 separates `copy-cache` (source and destination resident) from
//! `copy-nocache` (both cold). We model a copy as one access per cache
//! line of the source (read) and destination (write-allocate), with
//! different per-line costs for hits and misses.

use crate::address::Buffer;
use crate::cache::Cache;
use ioat_simcore::SimDuration;

/// Per-line and per-call costs of a CPU `memcpy`.
///
/// Defaults are calibrated to the paper's testbed (3.46 GHz Xeon, 2 MB L2,
/// DDR2-era memory): a cached copy moves ≈ 6.4 GB/s per direction and a
/// cold copy pays the memory round-trip on every line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyParams {
    /// Fixed per-call overhead (function call, loop setup).
    pub per_call: SimDuration,
    /// Cost to touch one resident line.
    pub hit_per_line: SimDuration,
    /// Cost to touch one non-resident line (memory access latency,
    /// partially pipelined).
    pub miss_per_line: SimDuration,
}

impl Default for CopyParams {
    fn default() -> Self {
        CopyParams {
            per_call: SimDuration::from_nanos(120),
            hit_per_line: SimDuration::from_nanos(6),
            miss_per_line: SimDuration::from_nanos(28),
        }
    }
}

impl CopyParams {
    /// A 2026-class memory subsystem: wider SIMD copy loops and DDR5
    /// streaming bandwidth. A cold line costs ~8 ns (≈ 8 GB/s per core of
    /// streaming copy vs the testbed's ≈ 2.3 GB/s), a resident line ~2 ns.
    pub fn modern_2026() -> Self {
        CopyParams {
            per_call: SimDuration::from_nanos(60),
            hit_per_line: SimDuration::from_nanos(2),
            miss_per_line: SimDuration::from_nanos(8),
        }
    }
}

/// The outcome of a modelled copy: how long the CPU was busy and what the
/// cache saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyCost {
    /// CPU busy time for the copy.
    pub duration: SimDuration,
    /// Lines that hit in cache (source + destination).
    pub hit_lines: u64,
    /// Lines that missed (source + destination).
    pub miss_lines: u64,
}

impl CopyCost {
    /// Total lines touched.
    pub fn lines(&self) -> u64 {
        self.hit_lines + self.miss_lines
    }
}

/// Stateless copy-cost calculator bound to a parameter set.
///
/// ```rust
/// use ioat_memsim::{Buffer, Cache, CacheConfig, CopyParams, CpuCopier};
///
/// let copier = CpuCopier::new(CopyParams::default());
/// let mut cache = Cache::new(CacheConfig::paper_l2());
/// let src = Buffer::new(0, 65_536);
/// let dst = Buffer::new(1 << 30, 65_536);
///
/// let cold = copier.copy(&mut cache, src, dst);
/// let warm = copier.copy(&mut cache, src, dst);
/// assert!(warm.duration < cold.duration, "second copy runs from cache");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuCopier {
    params: CopyParams,
}

impl CpuCopier {
    /// Creates a copier with the given cost parameters.
    pub fn new(params: CopyParams) -> Self {
        CpuCopier { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> CopyParams {
        self.params
    }

    fn cost_for(&self, hit_lines: u64, miss_lines: u64) -> SimDuration {
        self.params.per_call
            + self.params.hit_per_line * hit_lines
            + self.params.miss_per_line * miss_lines
    }

    /// Models copying `src` → `dst` through `cache`, updating residency
    /// (both ranges are pulled in — write-allocate) and returning the CPU
    /// cost.
    pub fn copy(&self, cache: &mut Cache, src: Buffer, dst: Buffer) -> CopyCost {
        let s = cache.access_range(src);
        let d = cache.access_range(dst);
        let hit_lines = s.hit_lines + d.hit_lines;
        let miss_lines = s.miss_lines + d.miss_lines;
        CopyCost {
            duration: self.cost_for(hit_lines, miss_lines),
            hit_lines,
            miss_lines,
        }
    }

    /// Analytic variant for paths that should not disturb a shared cache:
    /// computes the cost of copying `bytes` with the given fraction of
    /// lines resident (clamped to `[0, 1]`).
    pub fn copy_analytic(&self, bytes: u64, resident_fraction: f64, line_size: u64) -> CopyCost {
        assert!(line_size.is_power_of_two() && line_size > 0);
        let total_lines = 2 * bytes.div_ceil(line_size); // src + dst
        let f = resident_fraction.clamp(0.0, 1.0);
        let hit_lines = (total_lines as f64 * f).round() as u64;
        let miss_lines = total_lines - hit_lines;
        CopyCost {
            duration: self.cost_for(hit_lines, miss_lines),
            hit_lines,
            miss_lines,
        }
    }

    /// Convenience: the fully-cold copy cost of `bytes` (the paper's
    /// `copy-nocache` curve).
    pub fn cold_cost(&self, bytes: u64, line_size: u64) -> SimDuration {
        self.copy_analytic(bytes, 0.0, line_size).duration
    }

    /// Convenience: the fully-warm copy cost of `bytes` (the paper's
    /// `copy-cache` curve).
    pub fn warm_cost(&self, bytes: u64, line_size: u64) -> SimDuration {
        self.copy_analytic(bytes, 1.0, line_size).duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    #[test]
    fn cold_copy_costs_more_than_warm() {
        let c = CpuCopier::new(CopyParams::default());
        for kb in [1u64, 4, 16, 64] {
            let bytes = kb * 1024;
            assert!(c.cold_cost(bytes, 64) > c.warm_cost(bytes, 64));
        }
    }

    #[test]
    fn cost_scales_linearly_in_lines() {
        let c = CpuCopier::new(CopyParams::default());
        let one = c.cold_cost(64 * 1024, 64) - c.params().per_call;
        let two = c.cold_cost(128 * 1024, 64) - c.params().per_call;
        assert_eq!(two.as_nanos(), 2 * one.as_nanos());
    }

    #[test]
    fn stateful_copy_warms_the_cache() {
        let copier = CpuCopier::new(CopyParams::default());
        let mut cache = Cache::new(CacheConfig::paper_l2());
        let src = Buffer::new(0, 32 * 1024);
        let dst = Buffer::new(1 << 30, 32 * 1024);
        let first = copier.copy(&mut cache, src, dst);
        assert_eq!(first.hit_lines, 0);
        let second = copier.copy(&mut cache, src, dst);
        assert_eq!(second.miss_lines, 0);
        assert!(second.duration < first.duration);
    }

    #[test]
    fn analytic_fraction_interpolates() {
        let c = CpuCopier::new(CopyParams::default());
        let cold = c.copy_analytic(64 * 1024, 0.0, 64).duration;
        let half = c.copy_analytic(64 * 1024, 0.5, 64).duration;
        let warm = c.copy_analytic(64 * 1024, 1.0, 64).duration;
        assert!(cold > half && half > warm);
        // Out-of-range fractions clamp instead of extrapolating.
        assert_eq!(
            c.copy_analytic(1024, 7.0, 64).duration,
            c.warm_cost(1024, 64)
        );
        assert_eq!(
            c.copy_analytic(1024, -3.0, 64).duration,
            c.cold_cost(1024, 64)
        );
    }

    #[test]
    fn calibration_matches_fig6_shape() {
        // Fig. 6: cached 64K copy is roughly 3-4× cheaper than cold.
        let c = CpuCopier::new(CopyParams::default());
        let warm = c.warm_cost(64 * 1024, 64).as_nanos() as f64;
        let cold = c.cold_cost(64 * 1024, 64).as_nanos() as f64;
        let ratio = cold / warm;
        assert!((2.5..=5.0).contains(&ratio), "cold/warm ratio = {ratio}");
    }
}
