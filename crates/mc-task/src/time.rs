//! Integer time types for cycle-exact simulation.
//!
//! The discrete-event simulator in `mc-sched` must be free of floating-point
//! drift: two jobs released at `k · P` for integer `k` must compare exactly
//! equal. [`Duration`] and [`Instant`] are thin newtypes over unsigned
//! nanoseconds with checked arithmetic; floating-point views are provided at
//! the boundary for utilisation computations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A span of time in integer nanoseconds.
///
/// # Example
///
/// ```
/// use mc_task::time::Duration;
///
/// let period = Duration::from_millis(100);
/// let wcet = Duration::from_micros(2_500);
/// assert!((wcet.ratio(period) - 0.025).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable duration (~584 years).
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584 000 years of microseconds).
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration of `s` whole seconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics when `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::try_from_secs_f64(secs).expect("seconds must be finite, non-negative and in range")
    }

    /// Fallible variant of [`Duration::from_secs_f64`]; returns `None` on
    /// negative, non-finite, or out-of-range input.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the checks above keep the rounded value in [0, 2^64)"
    )]
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        if !secs.is_finite() || secs < 0.0 {
            return None;
        }
        let ns = secs * 1e9;
        if ns >= u64::MAX as f64 {
            return None;
        }
        Some(Duration(ns.round() as u64))
    }

    /// Creates a duration from fractional nanoseconds, rounding *up* — the
    /// conservative direction for WCET budgets.
    ///
    /// Returns `None` on negative, non-finite, or out-of-range input.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the checks above keep the rounded value in [0, 2^64)"
    )]
    pub fn try_from_nanos_f64_ceil(ns: f64) -> Option<Self> {
        if !ns.is_finite() || ns < 0.0 || ns >= u64::MAX as f64 {
            return None;
        }
        Some(Duration(ns.ceil() as u64))
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The dimensionless ratio `self / other`, e.g. a utilisation `C / P`.
    ///
    /// # Panics
    ///
    /// Panics when `other` is zero.
    pub fn ratio(self, other: Duration) -> f64 {
        assert!(other.0 != 0, "cannot take a ratio against a zero duration");
        self.0 as f64 / other.0 as f64
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_add(rhs.0).map(Duration)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an integer factor, saturating at [`Duration::MAX`].
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Scales by a non-negative float, rounding to nearest; saturates at
    /// [`Duration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics when `factor` is negative or NaN.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the branch above keeps the rounded value in [0, 2^64)"
    )]
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(scaled.round() as u64)
        }
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics on overflow; use [`Duration::checked_add`] to handle it.
    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("duration addition overflowed"),
        )
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics on underflow; use [`Duration::checked_sub`] or
    /// [`Duration::saturating_sub`] to handle it.
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflowed"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics on overflow; use [`Duration::saturating_mul`] to clamp.
    fn mul(self, rhs: u64) -> Duration {
        Duration(
            self.0
                .checked_mul(rhs)
                .expect("duration multiplication overflowed"),
        )
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "0ns")
        } else if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}ms", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}us", self.0 / 1_000)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A point on the simulation timeline (nanoseconds since time zero).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(u64);

impl Instant {
    /// Time zero, the start of every simulation.
    pub const ZERO: Instant = Instant(0);
    /// The far future.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant `ns` nanoseconds after time zero.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since time zero.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics when `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since called with a later instant"),
        )
    }

    /// Checked forward shift.
    pub fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d.as_nanos()).map(Instant)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    /// # Panics
    ///
    /// Panics on overflow; use [`Instant::checked_add`] to handle it.
    fn add(self, rhs: Duration) -> Instant {
        Instant(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("instant addition overflowed"),
        )
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics when `rhs` is later than `self`.
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn float_constructors_validate() {
        assert!(Duration::try_from_secs_f64(-1.0).is_none());
        assert!(Duration::try_from_secs_f64(f64::NAN).is_none());
        assert!(Duration::try_from_secs_f64(f64::INFINITY).is_none());
        assert!(Duration::try_from_secs_f64(1e30).is_none());
        assert_eq!(
            Duration::try_from_secs_f64(1.0),
            Some(Duration::from_secs(1))
        );
    }

    #[test]
    fn ceil_constructor_rounds_up() {
        assert_eq!(
            Duration::try_from_nanos_f64_ceil(10.1),
            Some(Duration::from_nanos(11))
        );
        assert_eq!(
            Duration::try_from_nanos_f64_ceil(10.0),
            Some(Duration::from_nanos(10))
        );
        assert!(Duration::try_from_nanos_f64_ceil(-0.5).is_none());
    }

    #[test]
    fn ratio_is_utilisation() {
        let c = Duration::from_millis(25);
        let p = Duration::from_millis(100);
        assert!((c.ratio(p) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn ratio_against_zero_panics() {
        let _ = Duration::from_millis(1).ratio(Duration::ZERO);
    }

    #[test]
    fn arithmetic_round_trips() {
        let a = Duration::from_millis(30);
        let b = Duration::from_millis(12);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 3, Duration::from_millis(90));
        assert_eq!(a.saturating_sub(b), Duration::from_millis(18));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn subtraction_underflow_panics() {
        let _ = Duration::from_millis(1) - Duration::from_millis(2);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn addition_overflow_panics() {
        let _ = Duration::MAX + Duration::from_nanos(1);
    }

    #[test]
    fn mul_f64_rounds_and_saturates() {
        let d = Duration::from_nanos(10);
        assert_eq!(d.mul_f64(1.5), Duration::from_nanos(15));
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
        assert_eq!(Duration::MAX.mul_f64(2.0), Duration::MAX);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = Duration::from_nanos(1).mul_f64(-1.0);
    }

    #[test]
    fn instants_order_and_subtract() {
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(5);
        let t2 = t1 + Duration::from_millis(7);
        assert!(t0 < t1 && t1 < t2);
        assert_eq!(t2 - t0, Duration::from_millis(12));
        assert_eq!(t2.duration_since(t1), Duration::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_later_panics() {
        let t1 = Instant::from_nanos(10);
        let t2 = Instant::from_nanos(20);
        let _ = t1.duration_since(t2);
    }

    #[test]
    fn display_picks_the_tightest_unit() {
        assert_eq!(Duration::ZERO.to_string(), "0ns");
        assert_eq!(Duration::from_nanos(17).to_string(), "17ns");
        assert_eq!(Duration::from_micros(3).to_string(), "3us");
        assert_eq!(Duration::from_millis(40).to_string(), "40ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(
            (Instant::ZERO + Duration::from_millis(1)).to_string(),
            "t+1ms"
        );
    }

    #[test]
    fn periodic_releases_are_exact() {
        // The motivating property: k-th release of a 100 ms task is exactly
        // k · 100 ms with no float drift.
        let period = Duration::from_millis(100);
        let mut t = Instant::ZERO;
        for _ in 0..1_000_000 {
            t += period;
        }
        assert_eq!(t.as_nanos(), 100_000_000u64 * 1_000_000);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn add_sub_round_trip() {
            assert_prop(
                &PropConfig::named("add_sub_round_trip"),
                |rng| (rng.below(u64::MAX / 2), rng.below(u64::MAX / 2)),
                |&(a, b)| {
                    let da = Duration::from_nanos(a);
                    let db = Duration::from_nanos(b);
                    assert_eq!(da + db - db, da);
                    Ok(())
                },
            );
        }

        #[test]
        fn ratio_times_denominator_recovers_numerator() {
            assert_prop(
                &PropConfig::named("ratio_times_denominator_recovers_numerator"),
                |rng| (rng.below(999_999_999), rng.below(999_999_999)),
                |&(c, p)| {
                    let (c, p) = (1 + c, 1 + p);
                    let r = Duration::from_nanos(c).ratio(Duration::from_nanos(p));
                    assert!((r * p as f64 - c as f64).abs() < 1e-3);
                    Ok(())
                },
            );
        }

        #[test]
        fn display_round_trips_through_nanos() {
            assert_prop(
                &PropConfig::named("display_round_trips_through_nanos"),
                |rng| rng.below(1_000_000_000_000),
                |&ns| {
                    // Display never loses the underlying value's identity.
                    let d = Duration::from_nanos(ns);
                    assert_eq!(d.as_nanos(), ns);
                    Ok(())
                },
            );
        }

        #[test]
        fn instant_ordering_is_consistent_with_nanos() {
            assert_prop(
                &PropConfig::named("instant_ordering_is_consistent_with_nanos"),
                |rng| (rng.below(u64::MAX), rng.below(u64::MAX)),
                |&(a, b)| {
                    let ia = Instant::from_nanos(a);
                    let ib = Instant::from_nanos(b);
                    assert_eq!(ia < ib, a < b);
                    Ok(())
                },
            );
        }
    }
}
