//! The non-increasing, unimodal TUF shapes scheduled by EUA\*.

use std::fmt;

use eua_platform::TimeDelta;

use crate::error::TufError;

fn validate_utility(value: f64) -> Result<(), TufError> {
    if !value.is_finite() || value < 0.0 {
        return Err(TufError::InvalidUtility { value });
    }
    Ok(())
}

/// A downward-step TUF — the classical deadline (paper Fig. 1(d)).
///
/// `U(t) = height` for `t ≤ step_at`, `0` afterwards. The job may remain
/// formally alive until `termination` (where it is aborted), which defaults
/// to the step itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTuf {
    height: f64,
    step_at: TimeDelta,
    termination: TimeDelta,
}

impl StepTuf {
    /// Creates a step TUF whose utility drops from `height` to zero at
    /// `deadline`, with termination at the deadline.
    ///
    /// # Errors
    ///
    /// Returns an error if `height` is non-positive or non-finite, or if
    /// `deadline` is zero.
    pub fn new(height: f64, deadline: TimeDelta) -> Result<Self, TufError> {
        StepTuf::with_termination(height, deadline, deadline)
    }

    /// Creates a step TUF whose step and termination differ; the job stays
    /// schedulable (at zero payoff) until `termination`.
    ///
    /// If `termination` precedes `step_at` it is clamped up to `step_at`
    /// (utility past the step is zero either way).
    ///
    /// # Errors
    ///
    /// As [`StepTuf::new`].
    pub fn with_termination(
        height: f64,
        step_at: TimeDelta,
        termination: TimeDelta,
    ) -> Result<Self, TufError> {
        validate_utility(height)?;
        if height == 0.0 {
            return Err(TufError::ZeroMaxUtility);
        }
        if step_at.is_zero() || termination.is_zero() {
            return Err(TufError::ZeroTermination);
        }
        let termination = termination.max(step_at);
        Ok(StepTuf {
            height,
            step_at,
            termination,
        })
    }

    /// The step height (also the maximum utility).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The offset at which utility drops to zero.
    #[must_use]
    pub fn step_at(&self) -> TimeDelta {
        self.step_at
    }
}

/// A linearly decaying TUF: `U(t) = umax·(1 − t/termination)` on
/// `[0, termination]`, used by the paper's Fig. 3 experiments with slope
/// `−U^max / P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearTuf {
    umax: f64,
    termination: TimeDelta,
}

impl LinearTuf {
    /// Creates a linear TUF decaying from `umax` at offset zero to `0` at
    /// `termination`.
    ///
    /// # Errors
    ///
    /// Returns an error if `umax` is non-positive or non-finite, or if
    /// `termination` is zero.
    pub fn new(umax: f64, termination: TimeDelta) -> Result<Self, TufError> {
        validate_utility(umax)?;
        if umax == 0.0 {
            return Err(TufError::ZeroMaxUtility);
        }
        if termination.is_zero() {
            return Err(TufError::ZeroTermination);
        }
        Ok(LinearTuf { umax, termination })
    }

    /// The utility at offset zero.
    #[must_use]
    pub fn umax(&self) -> f64 {
        self.umax
    }

    /// The decay slope in utility per microsecond (negative).
    #[must_use]
    pub fn slope(&self) -> f64 {
        -self.umax / self.termination.as_micros() as f64
    }
}

/// A piecewise-linear, non-increasing TUF given by breakpoints
/// `(t_0 = 0, u_0), …, (t_k, u_k)`; utility is interpolated between
/// breakpoints, equals `0` after `t_k`, and `t_k` is the termination
/// offset. Plateaus (repeated utility values) express the step-plus-decay
/// shapes of the paper's Fig. 1(a)–(c).
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseTuf {
    points: Vec<(TimeDelta, f64)>,
}

impl PiecewiseTuf {
    /// Creates a piecewise-linear TUF from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, the first breakpoint is not at
    /// offset zero (reported as [`TufError::UnsortedBreakpoints`] at index
    /// 0), times are not strictly increasing, utilities increase anywhere,
    /// any utility is invalid, the maximum utility is zero, or the final
    /// breakpoint is at offset zero.
    pub fn new(points: impl IntoIterator<Item = (TimeDelta, f64)>) -> Result<Self, TufError> {
        let points: Vec<(TimeDelta, f64)> = points.into_iter().collect();
        if points.is_empty() {
            return Err(TufError::EmptyBreakpoints);
        }
        if !points[0].0.is_zero() {
            return Err(TufError::UnsortedBreakpoints { index: 0 });
        }
        for (i, pair) in points.windows(2).enumerate() {
            if pair[0].0 >= pair[1].0 {
                return Err(TufError::UnsortedBreakpoints { index: i + 1 });
            }
            if pair[1].1 > pair[0].1 {
                return Err(TufError::NotNonIncreasing { index: i + 1 });
            }
        }
        for &(_, u) in &points {
            validate_utility(u)?;
        }
        if points[0].1 == 0.0 {
            return Err(TufError::ZeroMaxUtility);
        }
        if let Some(last) = points.last() {
            if last.0.is_zero() {
                return Err(TufError::ZeroTermination);
            }
        }
        Ok(PiecewiseTuf { points })
    }

    /// The final breakpoint; [`PiecewiseTuf::new`] guarantees at least one.
    #[allow(clippy::expect_used)]
    fn last_point(&self) -> (TimeDelta, f64) {
        *self
            .points
            .last()
            .expect("points are non-empty by construction")
    }

    /// The breakpoints, in increasing time order.
    #[must_use]
    pub fn breakpoints(&self) -> &[(TimeDelta, f64)] {
        &self.points
    }

    fn eval(&self, t: TimeDelta) -> f64 {
        let last = self.last_point();
        if t > last.0 {
            return 0.0;
        }
        // Find the surrounding segment.
        let mut prev = self.points[0];
        for &(bt, bu) in &self.points {
            if bt == t {
                return bu;
            }
            if bt > t {
                let span = bt.saturating_sub(prev.0).as_micros() as f64;
                let frac = t.saturating_sub(prev.0).as_micros() as f64 / span;
                return prev.1 + (bu - prev.1) * frac;
            }
            prev = (bt, bu);
        }
        last.1
    }
}

/// An exponentially decaying TUF: `U(t) = umax·exp(−t/τ)` on
/// `[0, termination]`, `0` afterwards — a smooth model of "sooner is always
/// better" soft constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialTuf {
    umax: f64,
    /// Time constant τ.
    tau: TimeDelta,
    termination: TimeDelta,
}

impl ExponentialTuf {
    /// Creates an exponential TUF with time constant `tau` truncated at
    /// `termination`.
    ///
    /// # Errors
    ///
    /// Returns an error if `umax` is non-positive or non-finite, `tau` is
    /// zero, or `termination` is zero.
    pub fn new(umax: f64, tau: TimeDelta, termination: TimeDelta) -> Result<Self, TufError> {
        validate_utility(umax)?;
        if umax == 0.0 {
            return Err(TufError::ZeroMaxUtility);
        }
        if tau.is_zero() {
            return Err(TufError::InvalidDecay { value: 0.0 });
        }
        if termination.is_zero() {
            return Err(TufError::ZeroTermination);
        }
        Ok(ExponentialTuf {
            umax,
            tau,
            termination,
        })
    }

    /// The time constant τ.
    #[must_use]
    pub fn tau(&self) -> TimeDelta {
        self.tau
    }
}

/// A non-increasing, unimodal time/utility function.
///
/// This is the value type the rest of the workspace passes around: cheap to
/// clone, comparable, and evaluable without allocation. Construct one with
/// [`Tuf::step`], [`Tuf::linear`], [`Tuf::piecewise`], or
/// [`Tuf::exponential`], or lift a concrete shape with `From`.
///
/// # Example
///
/// ```
/// use eua_platform::TimeDelta;
/// use eua_tuf::Tuf;
///
/// # fn main() -> Result<(), eua_tuf::TufError> {
/// let tuf = Tuf::linear(100.0, TimeDelta::from_millis(10))?;
/// assert_eq!(tuf.max_utility(), 100.0);
/// assert_eq!(tuf.utility(TimeDelta::from_millis(5)), 50.0);
/// // ν = 0.3 ⇒ the critical time is where 30% of the utility remains.
/// assert_eq!(tuf.critical_time(0.3), Some(TimeDelta::from_millis(7)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Tuf {
    /// Downward step (classical deadline).
    Step(StepTuf),
    /// Linear decay to zero.
    Linear(LinearTuf),
    /// Piecewise-linear, non-increasing.
    Piecewise(PiecewiseTuf),
    /// Truncated exponential decay.
    Exponential(ExponentialTuf),
}

impl Tuf {
    /// Creates a step TUF; see [`StepTuf::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`StepTuf::new`] errors.
    pub fn step(height: f64, deadline: TimeDelta) -> Result<Self, TufError> {
        StepTuf::new(height, deadline).map(Tuf::Step)
    }

    /// Creates a linear TUF; see [`LinearTuf::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`LinearTuf::new`] errors.
    pub fn linear(umax: f64, termination: TimeDelta) -> Result<Self, TufError> {
        LinearTuf::new(umax, termination).map(Tuf::Linear)
    }

    /// Creates a piecewise-linear TUF; see [`PiecewiseTuf::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`PiecewiseTuf::new`] errors.
    pub fn piecewise(points: impl IntoIterator<Item = (TimeDelta, f64)>) -> Result<Self, TufError> {
        PiecewiseTuf::new(points).map(Tuf::Piecewise)
    }

    /// Creates an exponential TUF; see [`ExponentialTuf::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`ExponentialTuf::new`] errors.
    pub fn exponential(
        umax: f64,
        tau: TimeDelta,
        termination: TimeDelta,
    ) -> Result<Self, TufError> {
        ExponentialTuf::new(umax, tau, termination).map(Tuf::Exponential)
    }

    /// The utility of completing at offset `t` from the job's initial time.
    ///
    /// Non-increasing in `t`; `0` for any `t` past the termination offset.
    #[must_use]
    pub fn utility(&self, t: TimeDelta) -> f64 {
        match self {
            Tuf::Step(s) => {
                if t <= s.step_at {
                    s.height
                } else {
                    0.0
                }
            }
            Tuf::Linear(l) => {
                if t > l.termination {
                    0.0
                } else {
                    let frac = t.as_micros() as f64 / l.termination.as_micros() as f64;
                    l.umax * (1.0 - frac)
                }
            }
            Tuf::Piecewise(p) => p.eval(t),
            Tuf::Exponential(e) => {
                if t > e.termination {
                    0.0
                } else {
                    e.umax * (-(t.as_micros() as f64) / e.tau.as_micros() as f64).exp()
                }
            }
        }
    }

    /// The maximum utility `U^max = U(0)`.
    #[must_use]
    pub fn max_utility(&self) -> f64 {
        match self {
            Tuf::Step(s) => s.height,
            Tuf::Linear(l) => l.umax,
            Tuf::Piecewise(p) => p.points[0].1,
            Tuf::Exponential(e) => e.umax,
        }
    }

    /// The termination offset `X − I`: completing (or still running) past
    /// this point raises the abort exception.
    #[must_use]
    pub fn termination(&self) -> TimeDelta {
        match self {
            Tuf::Step(s) => s.termination,
            Tuf::Linear(l) => l.termination,
            Tuf::Piecewise(p) => p.last_point().0,
            Tuf::Exponential(e) => e.termination,
        }
    }

    /// `true` for the downward-step shape, for which the paper restricts
    /// `ν ∈ {0, 1}`.
    #[must_use]
    pub fn is_step(&self) -> bool {
        matches!(self, Tuf::Step(_))
    }

    /// The critical time `D`: the **largest** offset with
    /// `U(D) ≥ ν·U^max` (paper §3.1, `ν_i = U_i(D_i)/U_i^max`).
    ///
    /// Returns `None` when `ν` is NaN or outside `[0, 1]`. For `ν = 0` the
    /// critical time is the termination offset; for `ν = 1` it is the end
    /// of the initial full-utility plateau.
    #[must_use]
    pub fn critical_time(&self, nu: f64) -> Option<TimeDelta> {
        if !(0.0..=1.0).contains(&nu) {
            return None;
        }
        if nu == 0.0 {
            return Some(self.termination());
        }
        let target = nu * self.max_utility();
        let exact = match self {
            Tuf::Step(s) => s.step_at,
            Tuf::Linear(l) => {
                // U(t) = umax·(1 − t/X) ≥ ν·umax ⟺ t ≤ (1 − ν)·X.
                let micros = ((1.0 - nu) * l.termination.as_micros() as f64).floor();
                TimeDelta::from_micros(micros as u64)
            }
            Tuf::Piecewise(p) => piecewise_critical(p, target),
            Tuf::Exponential(e) => {
                // umax·exp(−t/τ) ≥ ν·umax ⟺ t ≤ τ·ln(1/ν).
                let micros = (e.tau.as_micros() as f64 * (1.0 / nu).ln()).floor();
                let unclamped = TimeDelta::from_micros(micros.min(u64::MAX as f64).max(0.0) as u64);
                unclamped.min(e.termination)
            }
        };
        // Guard against floating-point slop: step down to the last integer
        // microsecond actually meeting the target.
        let mut d = exact;
        while !d.is_zero() && self.utility(d) + 1e-9 < target {
            d = d.saturating_sub(TimeDelta::from_micros(1));
        }
        Some(d)
    }
}

fn piecewise_critical(p: &PiecewiseTuf, target: f64) -> TimeDelta {
    let pts = &p.points;
    let last = p.last_point();
    if last.1 >= target {
        return last.0;
    }
    // Walk backwards to the segment straddling the target level.
    for pair in pts.windows(2).rev() {
        let (t0, u0) = pair[0];
        let (t1, u1) = pair[1];
        if u0 >= target && target >= u1 {
            if (u0 - u1).abs() < f64::EPSILON {
                // Plateau at exactly the target level: latest point wins.
                return t1;
            }
            let frac = (u0 - target) / (u0 - u1);
            let span = t1.saturating_sub(t0).as_micros() as f64;
            return t0.saturating_add(TimeDelta::from_micros((frac * span).floor() as u64));
        }
    }
    TimeDelta::ZERO
}

impl From<StepTuf> for Tuf {
    fn from(s: StepTuf) -> Tuf {
        Tuf::Step(s)
    }
}

impl From<LinearTuf> for Tuf {
    fn from(l: LinearTuf) -> Tuf {
        Tuf::Linear(l)
    }
}

impl From<PiecewiseTuf> for Tuf {
    fn from(p: PiecewiseTuf) -> Tuf {
        Tuf::Piecewise(p)
    }
}

impl From<ExponentialTuf> for Tuf {
    fn from(e: ExponentialTuf) -> Tuf {
        Tuf::Exponential(e)
    }
}

impl fmt::Display for Tuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tuf::Step(s) => write!(f, "step(U={}, D={})", s.height, s.step_at),
            Tuf::Linear(l) => write!(f, "linear(U={}, X={})", l.umax, l.termination),
            Tuf::Piecewise(p) => write!(f, "piecewise({} points)", p.points.len()),
            Tuf::Exponential(e) => {
                write!(f, "exp(U={}, tau={}, X={})", e.umax, e.tau, e.termination)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn step_utility_and_boundaries() {
        let t = Tuf::step(7.0, ms(10)).unwrap();
        assert_eq!(t.utility(TimeDelta::ZERO), 7.0);
        assert_eq!(t.utility(ms(10)), 7.0);
        assert_eq!(
            t.utility(ms(10).saturating_add(TimeDelta::from_micros(1))),
            0.0
        );
        assert_eq!(t.max_utility(), 7.0);
        assert_eq!(t.termination(), ms(10));
        assert!(t.is_step());
    }

    #[test]
    fn step_with_later_termination() {
        let s = StepTuf::with_termination(4.0, ms(5), ms(20)).unwrap();
        let t = Tuf::from(s);
        assert_eq!(t.utility(ms(6)), 0.0);
        assert_eq!(t.termination(), ms(20));
        assert_eq!(t.critical_time(1.0), Some(ms(5)));
        assert_eq!(t.critical_time(0.0), Some(ms(20)));
    }

    #[test]
    fn step_rejects_degenerate_inputs() {
        assert_eq!(Tuf::step(0.0, ms(1)).unwrap_err(), TufError::ZeroMaxUtility);
        assert_eq!(
            Tuf::step(1.0, TimeDelta::ZERO).unwrap_err(),
            TufError::ZeroTermination
        );
        assert!(matches!(
            Tuf::step(f64::NAN, ms(1)).unwrap_err(),
            TufError::InvalidUtility { .. }
        ));
        assert!(matches!(
            Tuf::step(-3.0, ms(1)).unwrap_err(),
            TufError::InvalidUtility { .. }
        ));
    }

    #[test]
    fn linear_utility_interpolates() {
        let t = Tuf::linear(100.0, ms(10)).unwrap();
        assert_eq!(t.utility(TimeDelta::ZERO), 100.0);
        assert!((t.utility(ms(2)) - 80.0).abs() < 1e-9);
        assert!((t.utility(ms(10))).abs() < 1e-9);
        assert_eq!(t.utility(ms(11)), 0.0);
    }

    #[test]
    fn linear_slope_matches_fig3_definition() {
        let l = LinearTuf::new(50.0, ms(100)).unwrap();
        assert!((l.slope() - (-50.0 / 100_000.0)).abs() < 1e-12);
    }

    #[test]
    fn linear_critical_time_inverts_exactly() {
        let t = Tuf::linear(100.0, ms(10)).unwrap();
        for nu in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let d = t.critical_time(nu).unwrap();
            assert!(
                t.utility(d) + 1e-6 >= nu * 100.0,
                "nu={nu}: U({d}) = {} < {}",
                t.utility(d),
                nu * 100.0
            );
            // And one microsecond later no longer meets the bound (except at
            // the ν=0 boundary where the TUF simply ends).
            if nu > 0.0 && d < t.termination() {
                let after = d.saturating_add(TimeDelta::from_micros(1));
                assert!(t.utility(after) < nu * 100.0 + 1e-6);
            }
        }
    }

    #[test]
    fn piecewise_eval_plateau_and_decay() {
        // AWACS-like: full utility for 5 ms, linear decay to 20% by 15 ms,
        // flat tail until 20 ms.
        let t = Tuf::piecewise([
            (TimeDelta::ZERO, 10.0),
            (ms(5), 10.0),
            (ms(15), 2.0),
            (ms(20), 2.0),
        ])
        .unwrap();
        assert_eq!(t.utility(ms(3)), 10.0);
        assert!((t.utility(ms(10)) - 6.0).abs() < 1e-9);
        assert_eq!(t.utility(ms(18)), 2.0);
        assert_eq!(t.utility(ms(21)), 0.0);
        assert_eq!(t.max_utility(), 10.0);
        assert_eq!(t.termination(), ms(20));
    }

    #[test]
    fn piecewise_critical_time_on_each_region() {
        let t = Tuf::piecewise([
            (TimeDelta::ZERO, 10.0),
            (ms(5), 10.0),
            (ms(15), 2.0),
            (ms(20), 2.0),
        ])
        .unwrap();
        // ν = 1: end of plateau.
        assert_eq!(t.critical_time(1.0), Some(ms(5)));
        // ν = 0.6: inside the decaying segment: U = 6 at t = 10 ms.
        assert_eq!(t.critical_time(0.6), Some(ms(10)));
        // ν = 0.2: the tail still meets it, so the termination wins.
        assert_eq!(t.critical_time(0.2), Some(ms(20)));
        // ν = 0: termination.
        assert_eq!(t.critical_time(0.0), Some(ms(20)));
    }

    #[test]
    fn piecewise_rejects_bad_shapes() {
        assert_eq!(Tuf::piecewise([]).unwrap_err(), TufError::EmptyBreakpoints);
        assert_eq!(
            Tuf::piecewise([(ms(1), 5.0)]).unwrap_err(),
            TufError::UnsortedBreakpoints { index: 0 }
        );
        assert_eq!(
            Tuf::piecewise([(TimeDelta::ZERO, 5.0), (ms(1), 6.0)]).unwrap_err(),
            TufError::NotNonIncreasing { index: 1 }
        );
        assert_eq!(
            Tuf::piecewise([(TimeDelta::ZERO, 5.0), (TimeDelta::ZERO, 4.0)]).unwrap_err(),
            TufError::UnsortedBreakpoints { index: 1 }
        );
        assert_eq!(
            Tuf::piecewise([(TimeDelta::ZERO, 0.0)]).unwrap_err(),
            TufError::ZeroMaxUtility
        );
    }

    #[test]
    fn exponential_decay_and_critical_time() {
        let tau = ms(10);
        let t = Tuf::exponential(8.0, tau, ms(100)).unwrap();
        assert_eq!(t.utility(TimeDelta::ZERO), 8.0);
        assert!((t.utility(ms(10)) - 8.0 / std::f64::consts::E).abs() < 1e-9);
        assert_eq!(t.utility(ms(101)), 0.0);
        // ν = e⁻¹ ⇒ D = τ.
        let d = t.critical_time(1.0 / std::f64::consts::E).unwrap();
        assert!((d.as_micros() as i64 - 10_000).abs() <= 1, "d = {d}");
        // ν small enough that τ·ln(1/ν) exceeds the termination ⇒ clamp.
        assert_eq!(t.critical_time(1e-9), Some(ms(100)));
    }

    #[test]
    fn critical_time_rejects_invalid_nu() {
        let t = Tuf::step(1.0, ms(1)).unwrap();
        assert_eq!(t.critical_time(-0.1), None);
        assert_eq!(t.critical_time(1.1), None);
        assert_eq!(t.critical_time(f64::NAN), None);
    }

    #[test]
    fn utility_is_non_increasing_for_all_shapes() {
        let shapes = [
            Tuf::step(5.0, ms(7)).unwrap(),
            Tuf::linear(5.0, ms(7)).unwrap(),
            Tuf::piecewise([(TimeDelta::ZERO, 5.0), (ms(3), 4.0), (ms(7), 1.0)]).unwrap(),
            Tuf::exponential(5.0, ms(2), ms(7)).unwrap(),
        ];
        for t in &shapes {
            let mut prev = f64::INFINITY;
            for us in (0..=8_000).step_by(13) {
                let u = t.utility(TimeDelta::from_micros(us));
                assert!(u <= prev + 1e-12, "{t} increased at {us}us");
                assert!(u >= 0.0);
                prev = u;
            }
        }
    }

    #[test]
    fn from_impls_round_trip() {
        let s = StepTuf::new(1.0, ms(1)).unwrap();
        assert!(Tuf::from(s).is_step());
        let l = LinearTuf::new(1.0, ms(1)).unwrap();
        assert!(!Tuf::from(l).is_step());
        let e = ExponentialTuf::new(1.0, ms(1), ms(2)).unwrap();
        assert_eq!(Tuf::from(e).termination(), ms(2));
        let p = PiecewiseTuf::new([(TimeDelta::ZERO, 2.0), (ms(1), 1.0)]).unwrap();
        assert_eq!(Tuf::from(p.clone()).max_utility(), 2.0);
        assert_eq!(p.breakpoints().len(), 2);
    }

    #[test]
    fn display_names_the_shape() {
        assert!(Tuf::step(1.0, ms(1))
            .unwrap()
            .to_string()
            .starts_with("step"));
        assert!(Tuf::linear(1.0, ms(1))
            .unwrap()
            .to_string()
            .starts_with("linear"));
        assert!(Tuf::exponential(1.0, ms(1), ms(1))
            .unwrap()
            .to_string()
            .starts_with("exp"));
    }
}
