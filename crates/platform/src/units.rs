//! Strongly-typed simulation units.
//!
//! All simulation time is measured in integer **microseconds** and all work
//! in integer **processor cycles**. Frequencies (see
//! [`crate::frequency::Frequency`]) are integer cycles-per-microsecond, which
//! keeps every `time = cycles / frequency` conversion exact and the whole
//! simulation deterministic.
//!
//! [`SimTime`] and [`TimeDelta`] have no arithmetic operators: every sum,
//! difference and scaling goes through a named method that saturates
//! (`saturating_add`, `saturating_since`, `saturating_sub`,
//! `saturating_mul`) or reports overflow (`checked_add`, `checked_mul`),
//! so the compiler rejects a raw `+`, `-` or `*` on time. A raw operator
//! would panic in debug builds and wrap in release.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered. It moves by a [`TimeDelta`] with
/// [`SimTime::saturating_add`] (or [`SimTime::checked_add`]), and two
/// instants differ by [`SimTime::saturating_since`].
///
/// # Example
///
/// ```
/// use eua_platform::{SimTime, TimeDelta};
///
/// let t = SimTime::ZERO.saturating_add(TimeDelta::from_millis(3));
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t.saturating_since(SimTime::ZERO), TimeDelta::from_millis(3));
/// assert_eq!(SimTime::ZERO.saturating_since(t), TimeDelta::ZERO);
/// ```
///
/// The operators do not exist, so neither of these compiles:
///
/// ```compile_fail
/// use eua_platform::SimTime;
/// let _ = SimTime::from_micros(5) - SimTime::ZERO;
/// ```
///
/// ```compile_fail
/// use eua_platform::{SimTime, TimeDelta};
/// let _ = SimTime::ZERO + TimeDelta::from_micros(5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the origin.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` microseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(us) => SimTime(us),
            None => panic!("SimTime::from_millis overflow"),
        }
    }

    /// Returns the number of microseconds since the origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The elapsed time since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a delta; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, delta: TimeDelta) -> Option<SimTime> {
        match self.0.checked_add(delta.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Addition of a delta that saturates at [`SimTime::MAX`] instead of
    /// overflowing. Useful when projecting completion times that may be
    /// "never".
    #[must_use]
    pub const fn saturating_add(self, delta: TimeDelta) -> SimTime {
        SimTime(self.0.saturating_add(delta.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// A span of simulation time, in microseconds.
///
/// Spans add, subtract and scale through the saturating methods
/// ([`TimeDelta::saturating_add`], [`TimeDelta::saturating_sub`],
/// [`TimeDelta::saturating_mul`]) or [`TimeDelta::checked_mul`]; a sum
/// over an iterator saturates too.
///
/// # Example
///
/// ```
/// use eua_platform::TimeDelta;
///
/// let d = TimeDelta::from_millis(2).saturating_add(TimeDelta::from_micros(500));
/// assert_eq!(d.as_micros(), 2_500);
/// assert_eq!(TimeDelta::MAX.saturating_mul(2), TimeDelta::MAX);
/// ```
///
/// The operators do not exist, so neither of these compiles:
///
/// ```compile_fail
/// use eua_platform::TimeDelta;
/// let _ = TimeDelta::from_micros(5) - TimeDelta::from_micros(3);
/// ```
///
/// ```compile_fail
/// use eua_platform::TimeDelta;
/// let _ = TimeDelta::from_micros(5) * 2;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// The zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable span; used as an "unbounded" sentinel.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        TimeDelta(micros)
    }

    /// Creates a span of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` microseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(us) => TimeDelta(us),
            None => panic!("TimeDelta::from_millis overflow"),
        }
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` microseconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000) {
            Some(us) => TimeDelta(us),
            None => panic!("TimeDelta::from_secs overflow"),
        }
    }

    /// Returns the span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if this is the zero-length span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction that saturates at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }

    /// Addition that saturates at the `MAX` sentinel.
    #[must_use]
    pub const fn saturating_add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }

    /// Multiplication by a scalar that saturates at the `MAX` sentinel.
    #[must_use]
    pub const fn saturating_mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(rhs))
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<TimeDelta> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(TimeDelta(v)),
            None => None,
        }
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, TimeDelta::saturating_add)
    }
}

/// An amount of processor work, in clock cycles.
///
/// # Example
///
/// ```
/// use eua_platform::Cycles;
///
/// let c = Cycles::new(700) + Cycles::new(300);
/// assert_eq!(c.get(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles of work.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// `true` if no work remains.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction that saturates at zero — the natural operation for
    /// "remaining work after executing for a while".
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two cycle counts.
    #[must_use]
    pub const fn min(self, rhs: Cycles) -> Cycles {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<Cycles> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(Cycles(v)),
            None => None,
        }
    }

    /// The cycle count as `f64`, for statistics and energy accounting.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_affine_arithmetic() {
        let a = SimTime::from_micros(100);
        let d = TimeDelta::from_micros(40);
        assert_eq!(a.saturating_add(d), SimTime::from_micros(140));
        assert_eq!(a.saturating_add(d).saturating_since(a), d);
    }

    #[test]
    fn sim_time_saturating_since_clamps() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(late.saturating_since(early), TimeDelta::from_micros(20));
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
    }

    #[test]
    fn sim_time_saturating_add_stops_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(TimeDelta::from_micros(5)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::from_micros(1).saturating_add(TimeDelta::from_micros(2)),
            SimTime::from_micros(3)
        );
    }

    #[test]
    fn sim_time_checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(TimeDelta::from_micros(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(TimeDelta::from_micros(7)),
            Some(SimTime::from_micros(7))
        );
    }

    #[test]
    fn time_delta_unit_constructors_agree() {
        assert_eq!(TimeDelta::from_millis(1), TimeDelta::from_micros(1_000));
        assert_eq!(TimeDelta::from_secs(1), TimeDelta::from_millis(1_000));
    }

    #[test]
    fn time_delta_ordering_is_numeric() {
        assert!(TimeDelta::from_micros(9) < TimeDelta::from_micros(10));
        assert!(TimeDelta::MAX > TimeDelta::from_secs(1_000_000));
    }

    #[test]
    fn time_delta_sum_and_scale() {
        let total: TimeDelta = [1u64, 2, 3]
            .iter()
            .map(|&m| TimeDelta::from_micros(m))
            .sum();
        assert_eq!(total, TimeDelta::from_micros(6));
        let saturated: TimeDelta = [TimeDelta::MAX, TimeDelta::from_micros(1)]
            .into_iter()
            .sum();
        assert_eq!(saturated, TimeDelta::MAX);
    }

    #[test]
    fn time_delta_saturating_add_and_mul_stop_at_max() {
        assert_eq!(
            TimeDelta::MAX.saturating_add(TimeDelta::from_micros(5)),
            TimeDelta::MAX
        );
        assert_eq!(
            TimeDelta::from_micros(3).saturating_add(TimeDelta::from_micros(4)),
            TimeDelta::from_micros(7)
        );
        assert_eq!(TimeDelta::MAX.saturating_mul(2), TimeDelta::MAX);
        assert_eq!(
            TimeDelta::from_micros(3).saturating_mul(4),
            TimeDelta::from_micros(12)
        );
    }

    #[test]
    fn cycles_saturating_sub_models_remaining_work() {
        let remaining = Cycles::new(100);
        assert_eq!(remaining.saturating_sub(Cycles::new(30)), Cycles::new(70));
        assert_eq!(remaining.saturating_sub(Cycles::new(1_000)), Cycles::ZERO);
        assert!(remaining.saturating_sub(Cycles::new(100)).is_zero());
    }

    #[test]
    fn cycles_min_and_checked_mul() {
        assert_eq!(Cycles::new(5).min(Cycles::new(3)), Cycles::new(3));
        assert_eq!(Cycles::new(5).checked_mul(3), Some(Cycles::new(15)));
        assert!(Cycles::new(u64::MAX).checked_mul(2).is_none());
    }

    #[test]
    fn display_formats_carry_units() {
        assert_eq!(SimTime::from_micros(12).to_string(), "12us");
        assert_eq!(TimeDelta::from_micros(7).to_string(), "7us");
        assert_eq!(Cycles::new(3).to_string(), "3cy");
    }

    #[test]
    fn as_secs_f64_round_trips_magnitude() {
        assert!((TimeDelta::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
        assert!((SimTime::from_millis(1_500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
