//! Arrival traces and UAM compliance checking.

use std::fmt;

use eua_platform::{SimTime, TimeDelta};

use crate::spec::UamSpec;

/// A witness that an arrival trace violates a UAM descriptor: `count`
/// arrivals were observed in the half-open window starting at `window_start`,
/// exceeding the bound `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UamViolation {
    /// Start of the offending window.
    pub window_start: SimTime,
    /// Number of arrivals observed inside `[window_start, window_start + P)`.
    pub count: u32,
}

impl fmt::Display for UamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals in the window starting at {}",
            self.count, self.window_start
        )
    }
}

/// A time-sorted sequence of job arrival instants for one task.
///
/// Simultaneous arrivals are allowed (the paper: "instances may arrive
/// simultaneously"), so the sequence is non-decreasing rather than strictly
/// increasing.
///
/// # Example
///
/// ```
/// use eua_platform::{SimTime, TimeDelta};
/// use eua_uam::{ArrivalTrace, UamSpec};
///
/// # fn main() -> Result<(), eua_uam::UamError> {
/// let spec = UamSpec::new(2, TimeDelta::from_millis(10))?;
/// let trace: ArrivalTrace =
///     [0u64, 0, 10_000, 10_000, 20_000].iter().map(|&t| SimTime::from_micros(t)).collect();
/// assert!(trace.check(&spec).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalTrace {
    times: Vec<SimTime>,
}

impl ArrivalTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ArrivalTrace::default()
    }

    /// Creates a trace from instants, sorting them into arrival order.
    #[must_use]
    pub fn from_times(times: impl IntoIterator<Item = SimTime>) -> Self {
        let mut times: Vec<SimTime> = times.into_iter().collect();
        times.sort_unstable();
        ArrivalTrace { times }
    }

    /// Appends an arrival.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded arrival; traces are built
    /// in time order.
    pub fn push(&mut self, time: SimTime) {
        if let Some(&last) = self.times.last() {
            assert!(
                time >= last,
                "arrivals must be pushed in non-decreasing time order"
            );
        }
        self.times.push(time);
    }

    /// Number of arrivals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the trace has no arrivals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The arrival instants, non-decreasing.
    #[must_use]
    pub fn as_slice(&self) -> &[SimTime] {
        &self.times
    }

    /// Iterates over the arrival instants.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.times.iter().copied()
    }

    /// Verifies the trace against a UAM descriptor.
    ///
    /// The trace complies with `⟨a, P⟩` iff every half-open window
    /// `[t, t + P)` contains at most `a` arrivals, which for a sorted trace
    /// reduces to `times[i + a] − times[i] ≥ P` for every `i`.
    ///
    /// # Errors
    ///
    /// Returns the first [`UamViolation`] found, with the offending window
    /// start and the number of arrivals inside it.
    pub fn check(&self, spec: &UamSpec) -> Result<(), UamViolation> {
        let a = spec.max_arrivals() as usize;
        let p = spec.window();
        for i in 0..self.times.len().saturating_sub(a) {
            let span = self.times[i + a].saturating_since(self.times[i]);
            if span < p {
                // Count everything inside [times[i], times[i] + P).
                let end = self.times[i].saturating_add(p);
                let count = self.times[i..].iter().take_while(|&&t| t < end).count() as u32;
                return Err(UamViolation {
                    window_start: self.times[i],
                    count,
                });
            }
        }
        Ok(())
    }

    /// `true` when [`ArrivalTrace::check`] passes.
    #[must_use]
    pub fn complies_with(&self, spec: &UamSpec) -> bool {
        self.check(spec).is_ok()
    }

    /// The maximum number of arrivals observed in any half-open window of
    /// length `window` — the trace's empirical arrival bound.
    #[must_use]
    pub fn peak_arrivals_in(&self, window: TimeDelta) -> u32 {
        let mut peak = 0u32;
        for (i, &start) in self.times.iter().enumerate() {
            let end = start.saturating_add(window);
            let count = self.times[i..].iter().take_while(|&&t| t < end).count() as u32;
            peak = peak.max(count);
        }
        peak
    }
}

impl FromIterator<SimTime> for ArrivalTrace {
    fn from_iter<I: IntoIterator<Item = SimTime>>(iter: I) -> Self {
        ArrivalTrace::from_times(iter)
    }
}

impl Extend<SimTime> for ArrivalTrace {
    fn extend<I: IntoIterator<Item = SimTime>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

impl IntoIterator for ArrivalTrace {
    type Item = SimTime;
    type IntoIter = std::vec::IntoIter<SimTime>;
    fn into_iter(self) -> Self::IntoIter {
        self.times.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::UamError;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn spec(a: u32, p_us: u64) -> UamSpec {
        UamSpec::new(a, TimeDelta::from_micros(p_us)).unwrap()
    }

    #[test]
    fn strict_periodic_complies_with_1_p() -> Result<(), UamError> {
        let s = spec(1, 100);
        let trace: ArrivalTrace = (0..50).map(|k| us(k * 100)).collect();
        assert!(trace.complies_with(&s));
        Ok(())
    }

    #[test]
    fn faster_than_periodic_violates() {
        let s = spec(1, 100);
        let trace: ArrivalTrace = [us(0), us(99)].into_iter().collect();
        let v = trace.check(&s).unwrap_err();
        assert_eq!(v.window_start, us(0));
        assert_eq!(v.count, 2);
    }

    #[test]
    fn simultaneous_arrivals_count_toward_the_bound() {
        let s = spec(2, 100);
        let ok: ArrivalTrace = [us(0), us(0), us(100), us(100)].into_iter().collect();
        assert!(ok.complies_with(&s));
        let bad: ArrivalTrace = [us(0), us(0), us(0)].into_iter().collect();
        assert_eq!(bad.check(&s).unwrap_err().count, 3);
    }

    #[test]
    fn burst_at_each_window_boundary_is_legal() {
        let s = spec(3, 1_000);
        let mut t = ArrivalTrace::new();
        for w in 0..10u64 {
            for _ in 0..3 {
                t.push(us(w * 1_000));
            }
        }
        assert!(t.complies_with(&s));
        assert_eq!(t.peak_arrivals_in(TimeDelta::from_micros(1_000)), 3);
    }

    #[test]
    fn violation_window_is_first_offender() {
        let s = spec(2, 1_000);
        let t: ArrivalTrace = [us(0), us(500), us(5_000), us(5_100), us(5_200)]
            .into_iter()
            .collect();
        let v = t.check(&s).unwrap_err();
        assert_eq!(v.window_start, us(5_000));
        assert_eq!(v.count, 3);
        assert_eq!(v.to_string(), "3 arrivals in the window starting at 5000us");
    }

    #[test]
    fn peak_arrivals_measures_empirical_bound() {
        let t: ArrivalTrace = [us(0), us(10), us(20), us(2_000)].into_iter().collect();
        assert_eq!(t.peak_arrivals_in(TimeDelta::from_micros(100)), 3);
        assert_eq!(t.peak_arrivals_in(TimeDelta::from_micros(15)), 2);
        assert_eq!(t.peak_arrivals_in(TimeDelta::from_micros(1)), 1);
    }

    #[test]
    fn from_times_sorts() {
        let t = ArrivalTrace::from_times([us(30), us(10), us(20)]);
        assert_eq!(t.as_slice(), &[us(10), us(20), us(30)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_time_travel() {
        let mut t = ArrivalTrace::new();
        t.push(us(10));
        t.push(us(5));
    }

    #[test]
    fn empty_trace_always_complies() {
        let t = ArrivalTrace::new();
        assert!(t.is_empty());
        assert!(t.complies_with(&spec(1, 1)));
        assert_eq!(t.peak_arrivals_in(TimeDelta::from_micros(10)), 0);
    }
}
