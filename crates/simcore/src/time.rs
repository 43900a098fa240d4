//! Simulated time: instants, durations and unit conversions.
//!
//! All simulated time in `ioat-sim` is kept in integer nanoseconds. Integer
//! time makes event ordering exact and runs bit-reproducible; nanosecond
//! resolution is fine enough to express single-cycle costs at the paper's
//! 3.46 GHz clock (≈ 0.29 ns) without accumulating drift over the
//! millisecond-scale measurement windows the experiments use.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds from simulation
/// start.
///
/// `SimTime` is ordered, copyable and cheap; it is produced by
/// [`Sim::now`](crate::Sim::now) and consumed by the scheduling API.
///
/// ```rust
/// use ioat_simcore::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
///
/// ```rust
/// use ioat_simcore::SimDuration;
/// let d = SimDuration::from_micros(2) + SimDuration::from_nanos(500);
/// assert_eq!(d.as_nanos(), 2_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel for run limits.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so such a call is a logic error in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] when
    /// `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// A span of `secs` seconds given as a float, rounded to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite, negative, or unrepresentably large (more
    /// than `u64::MAX` nanoseconds) inputs. These used to clamp silently
    /// to zero (NaN/negative) or wrap through `as u64` saturation
    /// (overflow), turning caller arithmetic bugs into quiet timing
    /// errors; a model that computes a non-finite or negative span is
    /// broken and must hear about it.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite(),
            "SimDuration::from_secs_f64: non-finite seconds ({secs})"
        );
        assert!(
            secs >= 0.0,
            "SimDuration::from_secs_f64: negative seconds ({secs})"
        );
        let nanos = (secs * 1e9).round();
        // 2^64 ns ≈ 584 years of simulated time; anything beyond is a bug.
        assert!(
            nanos <= u64::MAX as f64,
            "SimDuration::from_secs_f64: {secs} s overflows u64 nanoseconds"
        );
        SimDuration(nanos as u64)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Multiplies the span by a float factor, rounding to the nearest
    /// nanosecond. Negative factors clamp to zero (a backoff curve that
    /// dips below zero means "no delay", not a logic error).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is NaN or the product overflows `u64`
    /// nanoseconds (see [`SimDuration::from_secs_f64`]).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Bandwidth expressed in bits per second, with helpers to derive wire
/// serialization delays.
///
/// ```rust
/// use ioat_simcore::time::Bandwidth;
/// let gige = Bandwidth::from_gbps(1);
/// // A 1500-byte frame takes 12 microseconds at line rate.
/// assert_eq!(gige.transfer_time(1_500).as_nanos(), 12_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Creates a bandwidth of `bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero; a zero-rate link would imply infinite
    /// serialization delays.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth { bits_per_sec: bps }
    }

    /// Creates a bandwidth of `gbps` gigabits (10^9 bits) per second.
    pub fn from_gbps(gbps: u64) -> Self {
        Bandwidth::from_bps(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub fn as_bps(self) -> u64 {
        self.bits_per_sec
    }

    /// Megabits per second as a float (for reporting).
    pub fn as_mbps_f64(self) -> f64 {
        self.bits_per_sec as f64 / 1e6
    }

    /// Time to serialize `bytes` bytes onto the wire at this rate, rounded
    /// up to the next nanosecond so back-to-back frames never overlap.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        let bits = bytes * 8;
        // ceil(bits * 1e9 / rate) without overflow for realistic sizes.
        let nanos = (bits as u128 * 1_000_000_000u128).div_ceil(self.bits_per_sec as u128);
        SimDuration::from_nanos(nanos as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}Mbps", self.as_mbps_f64())
    }
}

/// Convenience byte-size constants used throughout the experiments.
pub mod units {
    /// One kibibyte (1024 bytes) — the paper's "K" sizes are binary.
    pub const KIB: u64 = 1024;
    /// One mebibyte (1024 KiB).
    pub const MIB: u64 = 1024 * KIB;

    /// Formats a byte count the way the paper labels its x-axes
    /// (`1K`, `64K`, `1M`, ...).
    pub fn fmt_bytes(bytes: u64) -> String {
        if bytes >= MIB && bytes.is_multiple_of(MIB) {
            format!("{}M", bytes / MIB)
        } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
            format!("{}K", bytes / KIB)
        } else {
            format!("{bytes}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_nanos(250);
        assert_eq!((t + d).as_nanos(), 10_250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let earlier = SimTime::from_nanos(5);
        let later = SimTime::from_nanos(3);
        assert_eq!(later.saturating_duration_since(earlier), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_float_seconds() {
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        // Rounds to nearest nanosecond.
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite seconds")]
    fn duration_from_nan_seconds_panics() {
        // Regression: NaN used to clamp silently to zero, hiding the
        // caller's broken arithmetic.
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite seconds")]
    fn duration_from_infinite_seconds_panics() {
        let _ = SimDuration::from_secs_f64(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "negative seconds")]
    fn duration_from_negative_seconds_panics() {
        // Regression: -1.0 used to clamp silently to zero.
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn duration_from_overflowing_seconds_panics() {
        // Regression: `as u64` saturated huge values instead of failing.
        // 2^64 ns is ~584 years; 1e12 s is ~31,700 years.
        let _ = SimDuration::from_secs_f64(1e12);
    }

    #[test]
    fn mul_f64_clamps_negative_factors_only() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(0.25), SimDuration::from_millis(250));
    }

    #[test]
    fn bandwidth_transfer_times() {
        let gige = Bandwidth::from_gbps(1);
        assert_eq!(gige.transfer_time(1_500).as_nanos(), 12_000);
        assert_eq!(gige.transfer_time(0), SimDuration::ZERO);
        // Rounds up: 1 byte at 1 Gbps is 8 ns exactly.
        assert_eq!(gige.transfer_time(1).as_nanos(), 8);
        let odd = Bandwidth::from_bps(3);
        // 1 byte = 8 bits at 3 bps → ceil(8/3 s) in ns.
        assert_eq!(odd.transfer_time(1).as_nanos(), 2_666_666_667);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_is_rejected() {
        // A zero rate would make every transfer time infinite, so no link
        // can be built on one.
        let _ = Bandwidth::from_bps(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(Bandwidth::from_gbps(1).to_string(), "1000.0Mbps");
    }

    #[test]
    fn unit_formatting_matches_paper_axis_labels() {
        use units::fmt_bytes;
        assert_eq!(fmt_bytes(2048), "2K");
        assert_eq!(fmt_bytes(1024 * 1024), "1M");
        assert_eq!(fmt_bytes(1500), "1500");
    }

    #[test]
    fn duration_sum_and_scalar_ops() {
        let parts = [
            SimDuration::from_nanos(1),
            SimDuration::from_nanos(2),
            SimDuration::from_nanos(3),
        ];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total.as_nanos(), 6);
        assert_eq!((total * 2).as_nanos(), 12);
        assert_eq!((total / 3).as_nanos(), 2);
        assert_eq!(total.mul_f64(0.5).as_nanos(), 3);
    }
}
