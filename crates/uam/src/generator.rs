//! Arrival-pattern generators that provably comply with a UAM descriptor.
//!
//! Every pattern generates traces satisfying its associated `⟨a, P⟩`
//! descriptor **by construction** (enforced with a debug assertion and
//! verified by tests), so simulations never feed the scheduler an illegal
//! adversary. The patterns cover the space the paper's evaluation exercises:
//!
//! * [`ArrivalPattern::Periodic`] — the `⟨1, P⟩` special case (§5.1);
//! * [`ArrivalPattern::Sporadic`] — random inter-arrival ≥ P;
//! * [`ArrivalPattern::WindowBurst`] — `a` simultaneous arrivals at each
//!   window boundary, the strongest UAM adversary (§5.2's Fig. 3 sweep);
//! * [`ArrivalPattern::ConstrainedPoisson`] — Poisson arrivals throttled to
//!   the UAM bound, modelling "arbitrary" aperiodic traffic.

use eua_platform::{SimTime, TimeDelta};
use rand::Rng;

use crate::error::UamError;
use crate::spec::UamSpec;
use crate::trace::ArrivalTrace;

/// A generator of UAM-compliant arrival traces for a single task.
///
/// # Example
///
/// ```
/// use eua_platform::TimeDelta;
/// use eua_uam::generator::ArrivalPattern;
/// use eua_uam::UamSpec;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), eua_uam::UamError> {
/// let spec = UamSpec::new(3, TimeDelta::from_millis(10))?;
/// let pattern = ArrivalPattern::window_burst(spec)?;
/// let mut rng = SmallRng::seed_from_u64(1);
/// let trace = pattern.generate(TimeDelta::from_millis(100), &mut rng);
/// assert!(trace.complies_with(&spec));
/// assert_eq!(trace.len(), 30); // 10 windows × 3 arrivals
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrivalPattern {
    /// Strictly periodic arrivals at `0, P, 2P, …` (plus an optional fixed
    /// phase) — the `⟨1, P⟩` special case.
    Periodic {
        /// The `⟨1, P⟩` descriptor.
        spec: UamSpec,
        /// Offset of the first arrival.
        phase: TimeDelta,
    },
    /// Sporadic arrivals: inter-arrival time `P + U[0, max_extra]`.
    Sporadic {
        /// The `⟨1, P⟩` descriptor (P = minimum separation).
        spec: UamSpec,
        /// Upper bound of the uniformly distributed extra delay.
        max_extra: TimeDelta,
    },
    /// `a` simultaneous arrivals at every window boundary `0, P, 2P, …` —
    /// the maximal UAM adversary, and the shape behind the paper's Fig. 3.
    WindowBurst {
        /// The `⟨a, P⟩` descriptor.
        spec: UamSpec,
    },
    /// A burst of random size `U[1, a]` at every window boundary.
    RandomBurst {
        /// The `⟨a, P⟩` descriptor.
        spec: UamSpec,
    },
    /// Poisson arrivals at `rate` arrivals per window, delayed where
    /// necessary so that any `a + 1` consecutive arrivals span at least `P`.
    ConstrainedPoisson {
        /// The `⟨a, P⟩` descriptor.
        spec: UamSpec,
        /// Mean arrivals per window `P` **before** throttling.
        rate_per_window: f64,
    },
    /// An on/off (Markov-style) source: alternating active phases of
    /// `on_windows` maximal bursts and silent phases of `off_windows`
    /// windows — the "transient and sustained overloads" shape of the
    /// paper's motivating systems.
    OnOff {
        /// The `⟨a, P⟩` descriptor.
        spec: UamSpec,
        /// Number of consecutive bursty windows per active phase.
        on_windows: u32,
        /// Number of consecutive silent windows per idle phase.
        off_windows: u32,
    },
}

impl ArrivalPattern {
    /// A strictly periodic pattern with zero phase.
    ///
    /// # Errors
    ///
    /// Returns [`UamError::ZeroWindow`] if `period` is zero.
    pub fn periodic(period: TimeDelta) -> Result<Self, UamError> {
        Ok(ArrivalPattern::Periodic {
            spec: UamSpec::periodic(period)?,
            phase: TimeDelta::ZERO,
        })
    }

    /// A strictly periodic pattern whose first arrival is at `phase`.
    ///
    /// # Errors
    ///
    /// Returns [`UamError::ZeroWindow`] if `period` is zero.
    pub fn periodic_with_phase(period: TimeDelta, phase: TimeDelta) -> Result<Self, UamError> {
        Ok(ArrivalPattern::Periodic {
            spec: UamSpec::periodic(period)?,
            phase,
        })
    }

    /// A sporadic pattern with minimum separation `min_separation` and a
    /// uniformly random extra delay up to `max_extra`.
    ///
    /// # Errors
    ///
    /// Returns [`UamError::ZeroWindow`] if `min_separation` is zero.
    pub fn sporadic(min_separation: TimeDelta, max_extra: TimeDelta) -> Result<Self, UamError> {
        Ok(ArrivalPattern::Sporadic {
            spec: UamSpec::periodic(min_separation)?,
            max_extra,
        })
    }

    /// The maximal adversary for `spec`: `a` simultaneous arrivals per
    /// window.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`UamSpec`]; the `Result` reserves
    /// room for pattern-specific validation.
    pub fn window_burst(spec: UamSpec) -> Result<Self, UamError> {
        Ok(ArrivalPattern::WindowBurst { spec })
    }

    /// Bursts of random size `U[1, a]` per window.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`UamSpec`].
    pub fn random_burst(spec: UamSpec) -> Result<Self, UamError> {
        Ok(ArrivalPattern::RandomBurst { spec })
    }

    /// UAM-throttled Poisson arrivals.
    ///
    /// # Errors
    ///
    /// Returns [`UamError::InvalidGeneratorParameter`] if `rate_per_window`
    /// is non-positive or non-finite.
    pub fn constrained_poisson(spec: UamSpec, rate_per_window: f64) -> Result<Self, UamError> {
        if !rate_per_window.is_finite() || rate_per_window <= 0.0 {
            return Err(UamError::InvalidGeneratorParameter {
                name: "rate_per_window",
            });
        }
        Ok(ArrivalPattern::ConstrainedPoisson {
            spec,
            rate_per_window,
        })
    }

    /// An on/off source alternating `on_windows` maximal-burst windows
    /// with `off_windows` silent windows.
    ///
    /// # Errors
    ///
    /// Returns [`UamError::InvalidGeneratorParameter`] if `on_windows` is
    /// zero (a source that never fires).
    pub fn on_off(spec: UamSpec, on_windows: u32, off_windows: u32) -> Result<Self, UamError> {
        if on_windows == 0 {
            return Err(UamError::InvalidGeneratorParameter { name: "on_windows" });
        }
        Ok(ArrivalPattern::OnOff {
            spec,
            on_windows,
            off_windows,
        })
    }

    /// The UAM descriptor this pattern complies with.
    #[must_use]
    pub fn spec(&self) -> &UamSpec {
        match self {
            ArrivalPattern::Periodic { spec, .. }
            | ArrivalPattern::Sporadic { spec, .. }
            | ArrivalPattern::WindowBurst { spec }
            | ArrivalPattern::RandomBurst { spec }
            | ArrivalPattern::ConstrainedPoisson { spec, .. }
            | ArrivalPattern::OnOff { spec, .. } => spec,
        }
    }

    /// Generates all arrivals in `[0, horizon)`.
    ///
    /// The returned trace complies with [`ArrivalPattern::spec`]; this is
    /// checked by a debug assertion.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: TimeDelta, rng: &mut R) -> ArrivalTrace {
        let end = SimTime::ZERO.saturating_add(horizon);
        let trace = match self {
            ArrivalPattern::Periodic { spec, phase } => {
                let mut t = SimTime::ZERO.saturating_add(*phase);
                let mut trace = ArrivalTrace::new();
                while t < end {
                    trace.push(t);
                    t = t.saturating_add(spec.window());
                    if t == SimTime::MAX {
                        break;
                    }
                }
                trace
            }
            ArrivalPattern::Sporadic { spec, max_extra } => {
                let mut t = SimTime::ZERO;
                let mut trace = ArrivalTrace::new();
                while t < end {
                    trace.push(t);
                    let extra = if max_extra.is_zero() {
                        TimeDelta::ZERO
                    } else {
                        TimeDelta::from_micros(rng.gen_range(0..=max_extra.as_micros()))
                    };
                    t = t.saturating_add(spec.window().saturating_add(extra));
                    if t == SimTime::MAX {
                        break;
                    }
                }
                trace
            }
            ArrivalPattern::WindowBurst { spec } => {
                let a = spec.max_arrivals();
                burst_trace(spec, end, || a)
            }
            ArrivalPattern::RandomBurst { spec } => {
                let a = spec.max_arrivals();
                let mut sizes = Vec::new();
                {
                    // Pre-draw burst sizes so the closure below stays
                    // RNG-free; one size per window up to the horizon.
                    let windows = horizon
                        .as_micros()
                        .div_ceil(spec.window().as_micros().max(1));
                    for _ in 0..windows {
                        sizes.push(rng.gen_range(1..=a));
                    }
                }
                let mut it = sizes.into_iter();
                burst_trace(spec, end, move || it.next().unwrap_or(1))
            }
            ArrivalPattern::ConstrainedPoisson {
                spec,
                rate_per_window,
            } => constrained_poisson(spec, *rate_per_window, end, rng),
            ArrivalPattern::OnOff {
                spec,
                on_windows,
                off_windows,
            } => {
                let cycle = u64::from(on_windows + off_windows);
                let mut index = 0u64;
                let a = spec.max_arrivals();
                burst_trace(spec, end, move || {
                    let active = index % cycle < u64::from(*on_windows);
                    index += 1;
                    if active {
                        a
                    } else {
                        0
                    }
                })
            }
        };
        debug_assert!(
            trace.complies_with(self.spec()),
            "generator produced a non-compliant trace for {:?}",
            self.spec()
        );
        trace
    }
}

// A size of 0 leaves the window silent (used by the on/off source).
fn burst_trace(spec: &UamSpec, end: SimTime, mut size: impl FnMut() -> u32) -> ArrivalTrace {
    let mut trace = ArrivalTrace::new();
    let mut t = SimTime::ZERO;
    while t < end {
        let n = size().min(spec.max_arrivals());
        for _ in 0..n {
            trace.push(t);
        }
        t = t.saturating_add(spec.window());
        if t == SimTime::MAX {
            break;
        }
    }
    trace
}

fn constrained_poisson<R: Rng + ?Sized>(
    spec: &UamSpec,
    rate_per_window: f64,
    end: SimTime,
    rng: &mut R,
) -> ArrivalTrace {
    let p = spec.window();
    let a = spec.max_arrivals() as usize;
    let mean_gap = p.as_micros() as f64 / rate_per_window;
    let mut times: Vec<SimTime> = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival.
        let u: f64 = 1.0 - rng.gen::<f64>();
        t += -mean_gap * u.ln();
        if !t.is_finite() || t >= end.saturating_since(SimTime::ZERO).as_micros() as f64 {
            break;
        }
        let mut arrival = SimTime::from_micros(t as u64);
        // Throttle: the (n)th arrival must be ≥ P after the (n − a)th.
        if times.len() >= a {
            let floor = times[times.len() - a].saturating_add(p);
            if arrival < floor {
                arrival = floor;
                t = arrival.saturating_since(SimTime::ZERO).as_micros() as f64;
            }
        }
        if arrival >= end {
            break;
        }
        times.push(arrival);
    }
    ArrivalTrace::from_times(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn periodic_hits_every_multiple() {
        let p = ArrivalPattern::periodic(ms(10)).unwrap();
        let trace = p.generate(ms(100), &mut rng());
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.as_slice()[3], SimTime::from_millis(30));
        assert!(trace.complies_with(p.spec()));
    }

    #[test]
    fn periodic_phase_shifts_all_arrivals() {
        let p = ArrivalPattern::periodic_with_phase(ms(10), ms(4)).unwrap();
        let trace = p.generate(ms(30), &mut rng());
        let micros: Vec<u64> = trace.iter().map(|t| t.as_micros()).collect();
        assert_eq!(micros, vec![4_000, 14_000, 24_000]);
    }

    #[test]
    fn sporadic_separations_at_least_p() {
        let p = ArrivalPattern::sporadic(ms(5), ms(3)).unwrap();
        let trace = p.generate(ms(500), &mut rng());
        assert!(trace.len() > 10);
        for w in trace.as_slice().windows(2) {
            assert!(w[1].saturating_since(w[0]) >= ms(5));
            assert!(w[1].saturating_since(w[0]) <= ms(8));
        }
    }

    #[test]
    fn sporadic_gap_past_u64_saturates_to_one_arrival() {
        // With a u64::MAX µs window, the gap `window + extra` overflows
        // for any extra > 0: it must saturate to "never again", not wrap
        // into a short gap.
        let p = ArrivalPattern::sporadic(TimeDelta::MAX, ms(1)).unwrap();
        let trace = p.generate(ms(1_000), &mut rng());
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn window_burst_releases_exactly_a_per_window() {
        let spec = UamSpec::new(4, ms(20)).unwrap();
        let p = ArrivalPattern::window_burst(spec).unwrap();
        let trace = p.generate(ms(200), &mut rng());
        assert_eq!(trace.len(), 40);
        assert_eq!(trace.peak_arrivals_in(ms(20)), 4);
        assert!(trace.complies_with(&spec));
    }

    #[test]
    fn random_burst_sizes_stay_in_bounds() {
        let spec = UamSpec::new(5, ms(10)).unwrap();
        let p = ArrivalPattern::random_burst(spec).unwrap();
        let trace = p.generate(ms(1_000), &mut rng());
        assert!(trace.complies_with(&spec));
        // Each window has between 1 and 5 arrivals.
        for w in 0..100u64 {
            let start = SimTime::from_millis(w * 10);
            let in_window = trace
                .iter()
                .filter(|&t| t >= start && t < start.saturating_add(ms(10)))
                .count();
            assert!((1..=5).contains(&in_window), "window {w}: {in_window}");
        }
    }

    #[test]
    fn constrained_poisson_complies_even_when_overdriven() {
        // Demand 10 arrivals per window on average against a bound of 2 —
        // the throttle must clip the trace to the UAM bound.
        let spec = UamSpec::new(2, ms(10)).unwrap();
        let p = ArrivalPattern::constrained_poisson(spec, 10.0).unwrap();
        let trace = p.generate(ms(2_000), &mut rng());
        assert!(trace.complies_with(&spec));
        // Saturation: close to the maximum 2 per window.
        assert!(trace.len() > 350, "got {}", trace.len());
    }

    #[test]
    fn constrained_poisson_light_load_is_nearly_poisson() {
        let spec = UamSpec::new(10, ms(10)).unwrap();
        let p = ArrivalPattern::constrained_poisson(spec, 1.0).unwrap();
        let trace = p.generate(ms(100_000), &mut rng());
        // 1 per window on average over 10k windows.
        let per_window = trace.len() as f64 / 10_000.0;
        assert!((per_window - 1.0).abs() < 0.1, "rate {per_window}");
        assert!(trace.complies_with(&spec));
    }

    #[test]
    fn constrained_poisson_rejects_bad_rate() {
        let spec = UamSpec::new(1, ms(1)).unwrap();
        assert!(ArrivalPattern::constrained_poisson(spec, 0.0).is_err());
        assert!(ArrivalPattern::constrained_poisson(spec, f64::NAN).is_err());
    }

    #[test]
    fn on_off_alternates_bursty_and_silent_phases() {
        let spec = UamSpec::new(2, ms(10)).unwrap();
        let p = ArrivalPattern::on_off(spec, 2, 3).unwrap();
        let trace = p.generate(ms(100), &mut rng());
        assert!(trace.complies_with(&spec));
        // 10 windows: pattern on,on,off,off,off repeating → windows
        // 0,1,5,6 active with 2 arrivals each = 8 arrivals.
        assert_eq!(trace.len(), 8);
        for w in [0u64, 1, 5, 6] {
            let start = SimTime::from_millis(w * 10);
            assert_eq!(
                trace.iter().filter(|&t| t == start).count(),
                2,
                "window {w}"
            );
        }
        for w in [2u64, 3, 4, 7, 8, 9] {
            let start = SimTime::from_millis(w * 10);
            assert_eq!(
                trace.iter().filter(|&t| t == start).count(),
                0,
                "window {w}"
            );
        }
    }

    #[test]
    fn on_off_rejects_never_firing_source() {
        let spec = UamSpec::new(1, ms(1)).unwrap();
        assert!(ArrivalPattern::on_off(spec, 0, 1).is_err());
    }

    #[test]
    fn zero_horizon_generates_nothing() {
        let p = ArrivalPattern::periodic(ms(10)).unwrap();
        assert!(p.generate(TimeDelta::ZERO, &mut rng()).is_empty());
    }

    #[test]
    fn spec_accessor_returns_descriptor() {
        let spec = UamSpec::new(3, ms(7)).unwrap();
        let p = ArrivalPattern::window_burst(spec).unwrap();
        assert_eq!(*p.spec(), spec);
    }
}
