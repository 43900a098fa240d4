//! Measurement primitives: counters, rate meters, summaries and
//! log-scale histograms.
//!
//! Experiments in this workspace report two headline numbers — throughput
//! and CPU utilization — plus latency distributions for the data-center
//! workloads. These types gather those numbers without allocating per
//! sample.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A monotonically increasing event/byte counter bound to a measurement
/// window.
///
/// ```rust
/// use ioat_simcore::{Counter, SimTime};
/// let mut bytes = Counter::new();
/// bytes.add_at(SimTime::from_micros(1), 1_000);
/// bytes.add_at(SimTime::from_micros(2), 500);
/// assert_eq!(bytes.total(), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    total: u64,
    window_start: SimTime,
    window_total: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` at instant `at`.
    pub fn add_at(&mut self, at: SimTime, amount: u64) {
        self.total += amount;
        if at >= self.window_start {
            self.window_total += amount;
        }
    }

    /// Total since construction.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Starts a fresh measurement window at `at`; everything added at or
    /// after `at` counts toward [`Counter::window_total`].
    pub fn begin_window(&mut self, at: SimTime) {
        self.window_start = at;
        self.window_total = 0;
    }

    /// Amount added since the window began.
    pub fn window_total(&self) -> u64 {
        self.window_total
    }

    /// Rate in units/second over `[window_start, now)`.
    pub fn window_rate_per_sec(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_duration_since(self.window_start);
        if elapsed.is_zero() {
            return 0.0;
        }
        self.window_total as f64 / elapsed.as_secs_f64()
    }
}

/// A windowed throughput meter: counts bytes and reports Mbps/MBps over a
/// measurement window, excluding warm-up.
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    bytes: Counter,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` delivered at `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        self.bytes.add_at(at, bytes);
    }

    /// Begins the measurement window (typically after warm-up).
    pub fn begin_window(&mut self, at: SimTime) {
        self.bytes.begin_window(at);
    }

    /// Total bytes recorded since construction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.total()
    }

    /// Throughput in Mbps over the window ending at `now`.
    pub fn mbps(&self, now: SimTime) -> f64 {
        self.bytes.window_rate_per_sec(now) * 8.0 / 1e6
    }

    /// Throughput in MB/s over the window ending at `now`.
    pub fn mbytes_per_sec(&self, now: SimTime) -> f64 {
        self.bytes.window_rate_per_sec(now) / 1e6
    }
}

/// Online mean/min/max/variance (Welford) summary.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 when fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (Chan et al.'s parallel
    /// Welford combine), as if every sample of `other` had been added
    /// here.
    ///
    /// Note the merged `mean`/`m2` are *not* bit-identical to a single
    /// sequential pass over the interleaved samples (float addition is
    /// not associative) — but they are a deterministic function of the
    /// two inputs, so merging partition summaries in a fixed order is
    /// reproducible run-to-run and thread-count independent.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * (n2 / total);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / total);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// A log₂-bucketed histogram with linear sub-buckets, HDR-style.
///
/// Values are u64 (we use nanoseconds for latency). Memory is fixed:
/// 64 major buckets × `SUB` sub-buckets. Relative error is bounded by
/// `1/SUB` (≈ 3% with 32 sub-buckets), plenty for reporting latency
/// percentiles.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 linear sub-buckets per octave

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB],
            total: 0,
            sum: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let major = (msb - SUB_BITS + 1) as usize;
        let sub = (value >> (msb - SUB_BITS)) as usize & (SUB - 1);
        major * SUB + sub
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn bucket_floor(idx: usize) -> u64 {
        let major = idx / SUB;
        let sub = (idx % SUB) as u64;
        if major == 0 {
            return sub;
        }
        let shift = major as u32 - 1;
        ((SUB as u64) << shift) | (sub << shift)
    }

    /// Records `value`.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    ///
    /// Returns 0 for an empty histogram. The result is the lower bound of
    /// the bucket containing the quantile, so it underestimates by at most
    /// one sub-bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(self.counts.len() - 1)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Relative benefit as defined in §4 of the paper: `(b - a) / b` where `a`
/// is the I/OAT metric and `b` the non-I/OAT metric (both "smaller is
/// better", e.g. CPU utilization).
///
/// Returns 0 when the baseline is zero.
///
/// ```rust
/// use ioat_simcore::stats::relative_benefit;
/// // Paper's example: I/OAT at 30% CPU vs non-I/OAT at 60% → 50% benefit.
/// assert!((relative_benefit(0.30, 0.60) - 0.5).abs() < 1e-12);
/// ```
pub fn relative_benefit(ioat: f64, non_ioat: f64) -> f64 {
    if non_ioat == 0.0 {
        0.0
    } else {
        (non_ioat - ioat) / non_ioat
    }
}

/// Relative improvement for "bigger is better" metrics (throughput, TPS):
/// `(a - b) / b` where `a` is I/OAT and `b` non-I/OAT.
pub fn relative_improvement(ioat: f64, non_ioat: f64) -> f64 {
    if non_ioat == 0.0 {
        0.0
    } else {
        (ioat - non_ioat) / non_ioat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_window_excludes_warmup() {
        let mut c = Counter::new();
        c.add_at(SimTime::from_micros(1), 100);
        c.begin_window(SimTime::from_micros(10));
        c.add_at(SimTime::from_micros(5), 50); // before window: total only
        c.add_at(SimTime::from_micros(15), 25);
        assert_eq!(c.total(), 175);
        assert_eq!(c.window_total(), 25);
    }

    #[test]
    fn rate_meter_reports_mbps() {
        let mut m = RateMeter::new();
        m.begin_window(SimTime::ZERO);
        // 125 MB over 1 second = 1000 Mbps.
        m.record(SimTime::from_millis(500), 125_000_000);
        let mbps = m.mbps(SimTime::from_secs(1));
        assert!((mbps - 1000.0).abs() < 1e-9, "mbps = {mbps}");
        let mbs = m.mbytes_per_sec(SimTime::from_secs(1));
        assert!((mbs - 125.0).abs() < 1e-9);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_matches_sequential_statistics() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, &x) in samples.iter().enumerate() {
            whole.add(x);
            if i < 3 {
                left.add(x);
            } else {
                right.add(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        // Merging an empty side is the identity in both directions.
        let empty = Summary::new();
        let before = format!("{left}");
        left.merge(&empty);
        assert_eq!(format!("{left}"), before);
        let mut e = Summary::new();
        e.merge(&left);
        assert_eq!(format!("{e}"), before);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99 = {p99}");
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= 900_000);
    }

    #[test]
    fn relative_metrics_match_paper_definitions() {
        // §4: I/OAT 30% CPU vs non-I/OAT 60% → 50% relative benefit even
        // though the absolute difference is 30 points.
        assert!((relative_benefit(0.3, 0.6) - 0.5).abs() < 1e-12);
        assert_eq!(relative_benefit(0.5, 0.0), 0.0);
        // Throughput: 9754 vs 8569 TPS → ~13.8% improvement (paper: 14%).
        let imp = relative_improvement(9754.0, 8569.0);
        assert!((imp - 0.1383).abs() < 1e-3, "imp = {imp}");
    }
}
