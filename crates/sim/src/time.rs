//! Nanosecond-resolution simulated time.
//!
//! All latency numbers in the workspace (touchscreen frames, TFT readout
//! cycles, protocol round trips) are expressed as [`SimDuration`] values and
//! anchored to a [`SimTime`] on a simulation timeline. Neither type ever
//! consults the host clock, which keeps every experiment deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the simulated timeline, in nanoseconds since simulation start.
///
/// # Example
///
/// ```
/// use btd_sim::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use btd_sim::time::SimDuration;
///
/// let frame = SimDuration::from_millis(4);
/// assert_eq!(frame * 3, SimDuration::from_millis(12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time `nanos` nanoseconds after simulation start.
    // trust-lint: allow(unreached-pub-fn) -- the touch, workload and sim unit tests build event times with it; a cfg(test) gate would hide it from the other crates' tests
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: argument is later than self"),
        )
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating multiplication by an integer factor. Unlike `Mul<u64>`,
    /// which panics on overflow in debug builds and wraps in release,
    /// this clamps at `u64::MAX` nanoseconds.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Integer division by `n`, truncating.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn div_int(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
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
                .expect("duration subtraction underflow"),
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

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn fmt_nanos(nanos: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if nanos >= 1_000_000_000 {
        write!(f, "{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        write!(f, "{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        write!(f, "{:.3}us", nanos as f64 / 1e3)
    } else {
        write!(f, "{}ns", nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimDuration {
        /// The duration in microseconds (truncating).
        const fn as_micros(self) -> u64 {
            self.0 / 1_000
        }
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn unit_conversions_are_consistent() {
        assert_eq!(SimDuration::from_millis(4).as_micros(), 4_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(1_500_000).as_millis(), 1);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.004).as_millis(), 4);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ratio_division() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn saturating_mul_clamps_at_max() {
        let big = SimDuration::from_nanos(u64::MAX / 2 + 1);
        assert_eq!(big.saturating_mul(2), SimDuration::from_nanos(u64::MAX));
        assert_eq!(
            SimDuration::from_millis(3).saturating_mul(4),
            SimDuration::from_millis(12)
        );
        assert_eq!(
            big.saturating_add(big),
            SimDuration::from_nanos(u64::MAX),
            "saturating_add clamps too"
        );
    }

    #[test]
    #[should_panic(expected = "later than self")]
    fn duration_since_panics_on_underflow() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    impl SimDuration {
        /// Multiplies by a float factor, rounding to the nearest nanosecond.
        ///
        /// # Panics
        ///
        /// Panics if `factor` is negative or not finite.
        pub fn mul_f64(self, factor: f64) -> SimDuration {
            assert!(
                factor.is_finite() && factor >= 0.0,
                "factor must be finite and non-negative"
            );
            SimDuration((self.0 as f64 * factor).round() as u64)
        }
    }
}
