//! The analyzer's raw input model and scenario-file parser.
//!
//! The library crates validate at construction time, so invalid states
//! (a negative ν, an empty frequency table, an increasing TUF) are
//! *unrepresentable* in their types. A static analyzer needs the
//! opposite: it must hold whatever the user wrote and explain what is
//! wrong with it. [`ScenarioSpec`] and friends are therefore plain raw
//! records, with fallible bridges in both directions:
//!
//! * [`ScenarioSpec::from_task_set`] lowers already-validated simulator
//!   types into specs (used by `--all-examples`), and
//! * [`TaskSpec::to_task`] raises a spec back into a real
//!   [`eua_sim::Task`] once the validation passes have cleared it.
//!
//! Scenario files (`.scn`) use a line-based plain-text format; see
//! [`ScenarioSpec::parse`].

use std::error::Error;
use std::fmt;

use eua_platform::{FrequencyTable, TimeDelta};
use eua_sim::{FaultPlan, Task, TaskSet};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use eua_workload::Workload;

/// Raw description of a time/utility function shape.
///
/// All times are in microseconds; nothing is validated here.
#[derive(Debug, Clone, PartialEq)]
pub enum TufSpec {
    /// Constant `umax` until `step_at_us`, zero afterwards; the step is
    /// also the termination.
    Step {
        /// Utility before the step.
        umax: f64,
        /// The step (deadline) offset in µs.
        step_at_us: u64,
    },
    /// Linear decay from `umax` at `t = 0` to zero at `termination_us`.
    Linear {
        /// Utility at release.
        umax: f64,
        /// The x-intercept (termination) offset in µs.
        termination_us: u64,
    },
    /// Exponential decay `umax·e^(−t/τ)` truncated at `termination_us`.
    Exponential {
        /// Utility at release.
        umax: f64,
        /// Decay constant τ in µs.
        tau_us: u64,
        /// Termination offset in µs.
        termination_us: u64,
    },
    /// Piecewise-linear over `(time_us, utility)` breakpoints.
    Piecewise {
        /// Breakpoints in declaration order (validated by the passes).
        points: Vec<(u64, f64)>,
    },
}

impl TufSpec {
    /// Lowers a validated [`Tuf`] into its raw spec.
    #[must_use]
    pub fn from_tuf(tuf: &Tuf) -> Self {
        match tuf {
            Tuf::Step(s) => TufSpec::Step {
                umax: s.height(),
                step_at_us: s.step_at().as_micros(),
            },
            Tuf::Linear(l) => TufSpec::Linear {
                umax: l.umax(),
                termination_us: tuf.termination().as_micros(),
            },
            Tuf::Exponential(e) => TufSpec::Exponential {
                umax: tuf.max_utility(),
                tau_us: e.tau().as_micros(),
                termination_us: tuf.termination().as_micros(),
            },
            Tuf::Piecewise(p) => TufSpec::Piecewise {
                points: p
                    .breakpoints()
                    .iter()
                    .map(|&(t, u)| (t.as_micros(), u))
                    .collect(),
            },
            _ => TufSpec::Linear {
                umax: tuf.max_utility(),
                termination_us: tuf.termination().as_micros(),
            },
        }
    }

    /// Raises the spec into a validated [`Tuf`].
    ///
    /// # Errors
    ///
    /// Returns the library's own constructor error message when the spec
    /// is invalid; the passes report the same conditions as diagnostics
    /// before this is ever called.
    pub fn to_tuf(&self) -> Result<Tuf, String> {
        match self {
            TufSpec::Step { umax, step_at_us } => {
                Tuf::step(*umax, TimeDelta::from_micros(*step_at_us))
            }
            TufSpec::Linear {
                umax,
                termination_us,
            } => Tuf::linear(*umax, TimeDelta::from_micros(*termination_us)),
            TufSpec::Exponential {
                umax,
                tau_us,
                termination_us,
            } => Tuf::exponential(
                *umax,
                TimeDelta::from_micros(*tau_us),
                TimeDelta::from_micros(*termination_us),
            ),
            TufSpec::Piecewise { points } => Tuf::piecewise(
                points
                    .iter()
                    .map(|&(t, u)| (TimeDelta::from_micros(t), u))
                    .collect::<Vec<_>>(),
            ),
        }
        .map_err(|e| e.to_string())
    }

    /// The shape's display name.
    #[must_use]
    pub fn shape_name(&self) -> &'static str {
        match self {
            TufSpec::Step { .. } => "step",
            TufSpec::Linear { .. } => "linear",
            TufSpec::Exponential { .. } => "exponential",
            TufSpec::Piecewise { .. } => "piecewise",
        }
    }

    /// The raw maximum utility (utility at release).
    #[must_use]
    pub fn umax(&self) -> f64 {
        match self {
            TufSpec::Step { umax, .. }
            | TufSpec::Linear { umax, .. }
            | TufSpec::Exponential { umax, .. } => *umax,
            TufSpec::Piecewise { points } => points.first().map_or(f64::NAN, |&(_, u)| u),
        }
    }
}

/// Raw description of a per-job demand distribution (cycles).
#[derive(Debug, Clone, PartialEq)]
pub enum DemandSpec {
    /// Every job demands exactly `cycles`.
    Deterministic {
        /// The fixed demand in cycles.
        cycles: f64,
    },
    /// Normally distributed demand.
    Normal {
        /// Mean `E(Y)` in cycles.
        mean: f64,
        /// Variance `Var(Y)` in cycles².
        variance: f64,
    },
    /// Uniform demand on `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound in cycles.
        lo: f64,
        /// Inclusive upper bound in cycles.
        hi: f64,
    },
    /// Pareto demand with scale `x_m` and tail index `alpha`.
    Pareto {
        /// Scale (minimum demand) in cycles.
        scale: f64,
        /// Tail index; both moments exist only for `alpha > 2`.
        alpha: f64,
    },
}

impl DemandSpec {
    /// Lowers a validated [`DemandModel`] into its raw spec.
    #[must_use]
    pub fn from_model(model: &DemandModel) -> Self {
        match *model {
            DemandModel::Deterministic { cycles } => DemandSpec::Deterministic { cycles },
            DemandModel::Normal { mean, variance } => DemandSpec::Normal { mean, variance },
            DemandModel::Uniform { lo, hi } => DemandSpec::Uniform { lo, hi },
            DemandModel::Pareto { scale, alpha } => DemandSpec::Pareto { scale, alpha },
            _ => DemandSpec::Deterministic {
                cycles: model.mean(),
            },
        }
    }

    /// Raises the spec into a validated [`DemandModel`].
    ///
    /// # Errors
    ///
    /// Returns the library's constructor error message for invalid
    /// parameters.
    pub fn to_model(&self) -> Result<DemandModel, String> {
        match *self {
            DemandSpec::Deterministic { cycles } => DemandModel::deterministic(cycles),
            DemandSpec::Normal { mean, variance } => DemandModel::normal(mean, variance),
            DemandSpec::Uniform { lo, hi } => DemandModel::uniform(lo, hi),
            DemandSpec::Pareto { scale, alpha } => {
                // The library constructor is mean-parameterized; recover
                // the mean from the stored scale.
                if !alpha.is_finite() || alpha <= 1.0 {
                    return Err(format!("pareto alpha {alpha} leaves the mean undefined"));
                }
                DemandModel::pareto(alpha * scale / (alpha - 1.0), alpha)
            }
        }
        .map_err(|e| e.to_string())
    }

    /// The distribution's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DemandSpec::Deterministic { .. } => "deterministic",
            DemandSpec::Normal { .. } => "normal",
            DemandSpec::Uniform { .. } => "uniform",
            DemandSpec::Pareto { .. } => "pareto",
        }
    }

    /// The raw mean `E(Y)`; infinite for a Pareto tail with `α ≤ 1`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            DemandSpec::Deterministic { cycles } => cycles,
            DemandSpec::Normal { mean, .. } => mean,
            DemandSpec::Uniform { lo, hi } => 0.5 * (lo + hi),
            DemandSpec::Pareto { scale, alpha } => {
                if alpha > 1.0 {
                    alpha * scale / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    /// The raw variance `Var(Y)`; infinite for a Pareto tail with
    /// `α ≤ 2`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        match *self {
            DemandSpec::Deterministic { .. } => 0.0,
            DemandSpec::Normal { variance, .. } => variance,
            DemandSpec::Uniform { lo, hi } => {
                let w = hi - lo;
                w * w / 12.0
            }
            DemandSpec::Pareto { scale, alpha } => {
                if alpha > 2.0 {
                    scale * scale * alpha / ((alpha - 1.0) * (alpha - 1.0) * (alpha - 2.0))
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

/// Raw description of a task's arrival-pattern generator (the optional
/// `arrival` line; simulation bridges default to the maximal
/// window-burst adversary when it is absent).
///
/// Only the deterministic-parameter patterns are representable — the
/// universe generator and the chaos shrinker restrict themselves to
/// these so every generated scenario stays fully `.scn`-expressible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Strictly periodic arrivals at the window boundary (`⟨1, P⟩`).
    Periodic,
    /// `a` simultaneous arrivals at every window boundary — the maximal
    /// UAM adversary (the default when no `arrival` line is present).
    Burst,
    /// Poisson arrivals throttled to the UAM bound.
    Poisson {
        /// Mean arrivals per window before throttling.
        rate_per_window: f64,
    },
    /// Alternating phases of maximal bursts and silence.
    OnOff {
        /// Consecutive bursty windows per active phase.
        on_windows: u32,
        /// Consecutive silent windows per idle phase.
        off_windows: u32,
    },
}

impl ArrivalSpec {
    /// Lowers a validated [`ArrivalPattern`] into its raw spec.
    ///
    /// Returns `None` for patterns the `.scn` format cannot express
    /// (phased periodic, sporadic, random-size bursts).
    #[must_use]
    pub fn from_pattern(pattern: &ArrivalPattern) -> Option<Self> {
        match pattern {
            ArrivalPattern::Periodic { phase, .. } if phase.is_zero() => {
                Some(ArrivalSpec::Periodic)
            }
            ArrivalPattern::WindowBurst { .. } => Some(ArrivalSpec::Burst),
            ArrivalPattern::ConstrainedPoisson {
                rate_per_window, ..
            } => Some(ArrivalSpec::Poisson {
                rate_per_window: *rate_per_window,
            }),
            ArrivalPattern::OnOff {
                on_windows,
                off_windows,
                ..
            } => Some(ArrivalSpec::OnOff {
                on_windows: *on_windows,
                off_windows: *off_windows,
            }),
            _ => None,
        }
    }

    /// Raises the spec into a validated [`ArrivalPattern`] driven by the
    /// task's `⟨a, P⟩` descriptor (`Periodic` uses only the window).
    ///
    /// # Errors
    ///
    /// Returns the library's constructor error message for invalid
    /// parameters (zero phase counts, non-positive Poisson rates).
    pub fn to_pattern(&self, uam: UamSpec) -> Result<ArrivalPattern, String> {
        match *self {
            ArrivalSpec::Periodic => ArrivalPattern::periodic(uam.window()),
            ArrivalSpec::Burst => ArrivalPattern::window_burst(uam),
            ArrivalSpec::Poisson { rate_per_window } => {
                ArrivalPattern::constrained_poisson(uam, rate_per_window)
            }
            ArrivalSpec::OnOff {
                on_windows,
                off_windows,
            } => ArrivalPattern::on_off(uam, on_windows, off_windows),
        }
        .map_err(|e| e.to_string())
    }
}

/// Raw description of one task: TUF, UAM arrival spec, demand model, and
/// assurance requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The task's name (diagnostics anchor on it).
    pub name: String,
    /// The raw TUF shape.
    pub tuf: TufSpec,
    /// The UAM arrival bound `a` — raw, so `0` or `2.5` are
    /// representable and diagnosable.
    pub max_arrivals: f64,
    /// The UAM window `P` in µs.
    pub window_us: u64,
    /// The raw demand distribution.
    pub demand: DemandSpec,
    /// Required utility fraction ν (critical time solves
    /// `U(D) ≥ ν·U_max`).
    pub nu: f64,
    /// Required timeliness probability ρ (Chebyshev budget).
    pub rho: f64,
    /// A cycle allocation declared in the `.scn` file (the optional
    /// `allocation <cycles>` line). The analyzer cross-checks it against
    /// the Chebyshev bound implied by the demand moments and ρ
    /// (`sem-chebyshev-allocation-mismatch`); the simulator bridge
    /// always derives its own allocation.
    pub declared_allocation: Option<f64>,
    /// The arrival-pattern generator (the optional `arrival` line);
    /// `None` means the bridges pick the window-burst default.
    pub arrival: Option<ArrivalSpec>,
}

impl TaskSpec {
    /// Lowers a validated simulator [`Task`] into its raw spec.
    #[must_use]
    pub fn from_task(task: &Task) -> Self {
        TaskSpec {
            name: task.name().to_string(),
            tuf: TufSpec::from_tuf(task.tuf()),
            max_arrivals: f64::from(task.uam().max_arrivals()),
            window_us: task.uam().window().as_micros(),
            demand: DemandSpec::from_model(task.demand()),
            nu: task.assurance().nu(),
            rho: task.assurance().rho(),
            declared_allocation: None,
            arrival: None,
        }
    }

    /// The Chebyshev cycle budget `c = E(Y) + sqrt(ρ/(1−ρ)·Var(Y))`, or
    /// `None` when it is undefined or non-finite (reported separately as
    /// a `chebyshev-unbounded` diagnostic).
    #[must_use]
    pub fn chebyshev_allocation(&self) -> Option<f64> {
        if !(0.0..1.0).contains(&self.rho) {
            return None;
        }
        let c =
            self.mean_checked()? + (self.rho / (1.0 - self.rho) * self.variance_checked()?).sqrt();
        c.is_finite().then_some(c)
    }

    fn mean_checked(&self) -> Option<f64> {
        let m = self.demand.mean();
        (m.is_finite() && m >= 0.0).then_some(m)
    }

    fn variance_checked(&self) -> Option<f64> {
        let v = self.demand.variance();
        (v.is_finite() && v >= 0.0).then_some(v)
    }

    /// Raises the spec into a validated simulator [`Task`].
    ///
    /// # Errors
    ///
    /// Returns a constructor error message for any condition the
    /// validation passes flag; callers run those passes first.
    pub fn to_task(&self) -> Result<Task, String> {
        if !self.max_arrivals.is_finite()
            || self.max_arrivals < 1.0
            || self.max_arrivals.fract() != 0.0
            || self.max_arrivals > f64::from(u32::MAX)
        {
            return Err(format!(
                "arrival bound {} is not a positive integer",
                self.max_arrivals
            ));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let a = self.max_arrivals as u32;
        let tuf = self.tuf.to_tuf()?;
        let uam =
            UamSpec::new(a, TimeDelta::from_micros(self.window_us)).map_err(|e| e.to_string())?;
        let demand = self.demand.to_model()?;
        let assurance = Assurance::new(self.nu, self.rho).map_err(|e| e.to_string())?;
        Task::new(self.name.clone(), tuf, uam, demand, assurance).map_err(|e| e.to_string())
    }
}

/// Raw Martin-model energy coefficients, mirroring the paper's Table 2
/// parameterization: `S1` and `S0` are specified relative to `f_m²` and
/// `f_m³` respectively.
///
/// This deliberately duplicates the constants baked into
/// [`eua_platform::EnergySetting`] (whose fields are private and
/// validated): the analyzer must be able to hold *invalid* coefficients
/// in order to report them.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySpec {
    /// Display name (`E1`, `E2`, `E3`, or `custom`).
    pub name: String,
    /// Cubic (CPU core) power coefficient `S3`.
    pub s3: f64,
    /// Quadratic coefficient `S2`.
    pub s2: f64,
    /// Linear coefficient as a fraction of `f_m²`.
    pub s1_rel: f64,
    /// Constant coefficient as a fraction of `f_m³`.
    pub s0_rel: f64,
}

impl EnergySpec {
    /// Table 2 setting E1: `(S3, S2, S1, S0) = (1, 0, 0, 0)`.
    #[must_use]
    pub fn e1() -> Self {
        EnergySpec {
            name: "E1".into(),
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.0,
            s0_rel: 0.0,
        }
    }

    /// Table 2 setting E2: `S1 = 0.1·f_m²`, `S0 = 0.1·f_m³`.
    #[must_use]
    pub fn e2() -> Self {
        EnergySpec {
            name: "E2".into(),
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.1,
            s0_rel: 0.1,
        }
    }

    /// Table 2 setting E3: `S1 = 0.5·f_m²`, `S0 = 0.5·f_m³`.
    #[must_use]
    pub fn e3() -> Self {
        EnergySpec {
            name: "E3".into(),
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.5,
            s0_rel: 0.5,
        }
    }

    /// Energy per cycle at `f_mhz` with the static terms bound to
    /// `f_max_mhz`: `E(f) = S3·f² + S2·f + S1 + S0/f`.
    #[must_use]
    pub fn energy_per_cycle(&self, f_mhz: f64, f_max_mhz: f64) -> f64 {
        let s1 = self.s1_rel * f_max_mhz * f_max_mhz;
        let s0 = self.s0_rel * f_max_mhz * f_max_mhz * f_max_mhz;
        self.s3 * f_mhz * f_mhz + self.s2 * f_mhz + s1 + s0 / f_mhz
    }

    /// The continuous energy-optimal speed (the knee of `E(f)`), found
    /// from `E'(f) = 2·S3·f + S2 − S0/f² = 0`.
    ///
    /// Returns `0` when `S0 = 0` (slower is always cheaper) and infinity
    /// when `S3 = S2 = 0 < S0` (faster is always cheaper).
    #[must_use]
    pub fn optimal_speed_mhz(&self, f_max_mhz: f64) -> f64 {
        let s0 = self.s0_rel * f_max_mhz * f_max_mhz * f_max_mhz;
        if s0 == 0.0 {
            return 0.0;
        }
        if self.s3 == 0.0 && self.s2 == 0.0 {
            return f64::INFINITY;
        }
        // E'(f) is strictly increasing for f > 0, so bisect it.
        let (mut lo, mut hi) = (1e-9, f_max_mhz.max(1.0) * 100.0);
        let deriv = |f: f64| 2.0 * self.s3 * f + self.s2 - s0 / (f * f);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if deriv(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Raw description of a fault-injection plan (see
/// [`eua_sim::FaultPlan`]); nothing is validated here — the fault pass
/// diagnoses negative deviation factors, window-length switch
/// latencies, and unusable degraded frequency sets.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Multiplier on every sampled demand's mean (1.0 = faithful).
    pub demand_mean_factor: f64,
    /// Extra multiplicative noise half-width around the scaled demand.
    pub demand_spread: f64,
    /// DVS relock latency in cycles charged on every frequency change.
    pub switch_latency_cycles: u64,
    /// Surviving frequencies in MHz, if the fault restricts the table.
    pub degraded_mhz: Option<Vec<u64>>,
    /// Extra arrivals injected per affected UAM window.
    pub burst_extra: u32,
    /// Every how many windows a burst strikes (0 is diagnosed).
    pub burst_every: u32,
    /// Fixed processing cost of each abort, in µs.
    pub abort_cost_us: u64,
    /// Half-width of the uniform arrival-jitter interval, in µs.
    pub arrival_jitter_us: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            demand_mean_factor: 1.0,
            demand_spread: 0.0,
            switch_latency_cycles: 0,
            degraded_mhz: None,
            burst_extra: 0,
            burst_every: 1,
            abort_cost_us: 0,
            arrival_jitter_us: 0,
        }
    }
}

impl FaultSpec {
    /// Raises the spec into the simulator's [`FaultPlan`] (the
    /// `stuck_after` fault has no `.scn` surface and stays disabled).
    #[must_use]
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.uam.extra_per_window = self.burst_extra;
        plan.uam.every_n_windows = self.burst_every;
        plan.demand.mean_factor = self.demand_mean_factor;
        plan.demand.spread = self.demand_spread;
        plan.dvs.switch_latency_cycles = self.switch_latency_cycles;
        plan.dvs.degraded_mhz = self.degraded_mhz.clone();
        plan.timing.abort_cost = TimeDelta::from_micros(self.abort_cost_us);
        plan.timing.arrival_jitter = TimeDelta::from_micros(self.arrival_jitter_us);
        plan
    }

    /// Lowers a simulator [`FaultPlan`] into its raw spec.
    ///
    /// Returns `None` when the plan uses a fault the `.scn` format
    /// cannot express (currently only `dvs.stuck_after`); the chaos
    /// runner samples plans from the expressible subset so its repros
    /// always lower.
    #[must_use]
    pub fn from_plan(plan: &FaultPlan) -> Option<Self> {
        if plan.dvs.stuck_after.is_some() {
            return None;
        }
        Some(FaultSpec {
            demand_mean_factor: plan.demand.mean_factor,
            demand_spread: plan.demand.spread,
            switch_latency_cycles: plan.dvs.switch_latency_cycles,
            degraded_mhz: plan.dvs.degraded_mhz.clone(),
            burst_extra: plan.uam.extra_per_window,
            burst_every: plan.uam.every_n_windows,
            abort_cost_us: plan.timing.abort_cost.as_micros(),
            arrival_jitter_us: plan.timing.arrival_jitter.as_micros(),
        })
    }
}

/// A complete raw scenario: platform frequencies, energy model, and
/// tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name (from the `scenario` line or the caller).
    pub name: String,
    /// Available discrete frequencies in MHz, in declaration order.
    pub frequencies_mhz: Vec<u64>,
    /// The raw energy model.
    pub energy: EnergySpec,
    /// The raw tasks.
    pub tasks: Vec<TaskSpec>,
    /// The fault-injection stanza, if the scenario declares one.
    pub faults: Option<FaultSpec>,
}

impl ScenarioSpec {
    /// Lowers validated simulator types into a spec, for analyzing
    /// workloads that already exist as a [`TaskSet`].
    #[must_use]
    pub fn from_task_set(
        name: impl Into<String>,
        tasks: &TaskSet,
        table: &FrequencyTable,
        energy: EnergySpec,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            frequencies_mhz: table.iter().map(|f| f.as_f64() as u64).collect(),
            energy,
            tasks: tasks.iter().map(|(_, t)| TaskSpec::from_task(t)).collect(),
            faults: None,
        }
    }

    /// Lowers a full [`Workload`] (tasks *and* arrival patterns) into a
    /// spec, so generated universes are renderable as `.scn` files.
    ///
    /// # Errors
    ///
    /// Returns the first task whose arrival pattern the `.scn` format
    /// cannot express (see [`ArrivalSpec::from_pattern`]); the universe
    /// generator only emits expressible patterns.
    pub fn from_workload(
        name: impl Into<String>,
        workload: &Workload,
        table: &FrequencyTable,
        energy: EnergySpec,
    ) -> Result<Self, String> {
        let mut spec = Self::from_task_set(name, &workload.tasks, table, energy);
        for (task_spec, pattern) in spec.tasks.iter_mut().zip(&workload.patterns) {
            task_spec.arrival = Some(ArrivalSpec::from_pattern(pattern).ok_or_else(|| {
                format!(
                    "task `{}`: arrival pattern {pattern:?} is not expressible in .scn",
                    task_spec.name
                )
            })?);
        }
        Ok(spec)
    }

    /// Raises the spec into a validated simulator [`Workload`]; tasks
    /// without an `arrival` line get the maximal window-burst adversary.
    ///
    /// # Errors
    ///
    /// Returns the first constructor error message; callers run the
    /// validation passes first when the text is untrusted.
    pub fn to_workload(&self) -> Result<Workload, String> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        let mut patterns = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let task = t.to_task()?;
            let arrival = t.arrival.unwrap_or(ArrivalSpec::Burst);
            patterns.push(arrival.to_pattern(*task.uam())?);
            tasks.push(task);
        }
        Ok(Workload {
            tasks: TaskSet::new(tasks).map_err(|e| e.to_string())?,
            patterns,
        })
    }

    /// The table's maximum frequency in MHz, ignoring ordering problems
    /// (so the energy pass can still run on an unsorted table).
    #[must_use]
    pub fn f_max_mhz(&self) -> Option<u64> {
        self.frequencies_mhz
            .iter()
            .copied()
            .max()
            .filter(|&f| f > 0)
    }

    /// Renders the spec back to canonical `.scn` text.
    ///
    /// The output re-parses to an equivalent spec ([`ScenarioSpec::parse`]
    /// of the result reproduces every field, except that a custom energy
    /// model's name normalizes to `custom`). Floats use Rust's
    /// shortest-round-trip `{:?}` formatting, so no precision is lost.
    /// This is what `eua-analyze --fix` emits after rewriting a spec.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {}\n", self.name));
        if !self.frequencies_mhz.is_empty() {
            out.push_str("frequencies");
            for f in &self.frequencies_mhz {
                out.push_str(&format!(" {f}"));
            }
            out.push('\n');
        }
        let builtin = [EnergySpec::e1(), EnergySpec::e2(), EnergySpec::e3()]
            .into_iter()
            .find(|b| *b == self.energy);
        match builtin {
            Some(b) => out.push_str(&format!("energy {}\n", b.name)),
            None => out.push_str(&format!(
                "energy custom {:?} {:?} {:?} {:?}\n",
                self.energy.s3, self.energy.s2, self.energy.s1_rel, self.energy.s0_rel
            )),
        }
        for t in &self.tasks {
            out.push_str(&format!("task {}\n", t.name));
            match &t.tuf {
                TufSpec::Step { umax, step_at_us } => {
                    out.push_str(&format!("  tuf step {umax:?} {step_at_us}\n"))
                }
                TufSpec::Linear {
                    umax,
                    termination_us,
                } => out.push_str(&format!("  tuf linear {umax:?} {termination_us}\n")),
                TufSpec::Exponential {
                    umax,
                    tau_us,
                    termination_us,
                } => out.push_str(&format!("  tuf exp {umax:?} {tau_us} {termination_us}\n")),
                TufSpec::Piecewise { points } => {
                    out.push_str("  tuf piecewise");
                    for (time, utility) in points {
                        out.push_str(&format!(" {time}:{utility:?}"));
                    }
                    out.push('\n');
                }
            }
            out.push_str(&format!("  uam {:?} {}\n", t.max_arrivals, t.window_us));
            match &t.arrival {
                None => {}
                Some(ArrivalSpec::Periodic) => out.push_str("  arrival periodic\n"),
                Some(ArrivalSpec::Burst) => out.push_str("  arrival burst\n"),
                Some(ArrivalSpec::Poisson { rate_per_window }) => {
                    out.push_str(&format!("  arrival poisson {rate_per_window:?}\n"));
                }
                Some(ArrivalSpec::OnOff {
                    on_windows,
                    off_windows,
                }) => {
                    out.push_str(&format!("  arrival onoff {on_windows} {off_windows}\n"));
                }
            }
            match &t.demand {
                DemandSpec::Deterministic { cycles } => {
                    out.push_str(&format!("  demand det {cycles:?}\n"));
                }
                DemandSpec::Normal { mean, variance } => {
                    out.push_str(&format!("  demand normal {mean:?} {variance:?}\n"));
                }
                DemandSpec::Uniform { lo, hi } => {
                    out.push_str(&format!("  demand uniform {lo:?} {hi:?}\n"));
                }
                DemandSpec::Pareto { scale, alpha } => {
                    out.push_str(&format!("  demand pareto {scale:?} {alpha:?}\n"));
                }
            }
            out.push_str(&format!("  assurance {:?} {:?}\n", t.nu, t.rho));
            if let Some(alloc) = t.declared_allocation {
                out.push_str(&format!("  allocation {alloc:?}\n"));
            }
            out.push_str("end\n");
        }
        if let Some(f) = &self.faults {
            out.push_str("faults\n");
            out.push_str(&format!(
                "  demand-deviation {:?} {:?}\n",
                f.demand_mean_factor, f.demand_spread
            ));
            out.push_str(&format!("  switch-latency {}\n", f.switch_latency_cycles));
            if let Some(set) = &f.degraded_mhz {
                out.push_str("  degraded-frequencies");
                for mhz in set {
                    out.push_str(&format!(" {mhz}"));
                }
                out.push('\n');
            }
            out.push_str(&format!(
                "  burst-extra {} {}\n",
                f.burst_extra, f.burst_every
            ));
            out.push_str(&format!("  abort-cost {}\n", f.abort_cost_us));
            out.push_str(&format!("  arrival-jitter {}\n", f.arrival_jitter_us));
            out.push_str("end\n");
        }
        out
    }

    /// Parses the line-based `.scn` scenario format.
    ///
    /// ```text
    /// # comment
    /// scenario radar-demo
    /// frequencies 36 55 64 73 82 91 100
    /// energy E3                      # or: energy custom S3 S2 S1rel S0rel
    /// task track
    ///   tuf step 10 10000            # umax, deadline µs
    ///   uam 2 10000                  # a, window µs
    ///   demand normal 150000 150000  # also: det c | uniform lo hi | pareto scale alpha
    ///   assurance 1.0 0.96           # nu, rho
    ///   allocation 250000            # optional declared cycle budget (cross-checked)
    /// end
    /// faults                         # optional fault-injection stanza
    ///   demand-deviation 1.5 0.2     # mean factor, spread
    ///   switch-latency 20000         # DVS relock cycles
    ///   degraded-frequencies 36 55   # surviving MHz entries
    ///   burst-extra 2 1              # extra arrivals, every n windows
    ///   abort-cost 300               # µs per abort
    ///   arrival-jitter 2000          # ± µs on each arrival
    /// end
    /// ```
    ///
    /// TUF forms: `step umax deadline_us`, `linear umax termination_us`,
    /// `exp umax tau_us termination_us`, `piecewise t:u t:u …`.
    ///
    /// Structural problems (unknown keywords, missing stanza fields) are
    /// [`ParseError`]s; *semantic* problems (ν out of range, overload)
    /// are left for the passes to diagnose.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the 1-based offending line.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        Parser::new(text).run()
    }

    /// Like [`ScenarioSpec::parse`], additionally returning the
    /// [`crate::SourceMap`] of token extents scanned from the same text
    /// — the SARIF writer uses it to attach `region`s to findings.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the 1-based offending line.
    pub fn parse_with_spans(text: &str) -> Result<(Self, crate::spans::SourceMap), ParseError> {
        let spec = Self::parse(text)?;
        Ok((spec, crate::spans::SourceMap::scan(text)))
    }
}

/// A structural error in a scenario file, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Internal line-based parser state.
struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let body = l.split('#').next().unwrap_or("").trim();
                (i + 1, body)
            })
            .filter(|(_, body)| !body.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }

    fn run(mut self) -> Result<ScenarioSpec, ParseError> {
        let mut name: Option<String> = None;
        let mut frequencies: Vec<u64> = Vec::new();
        let mut energy = EnergySpec::e1();
        let mut tasks = Vec::new();
        let mut faults: Option<FaultSpec> = None;

        while self.pos < self.lines.len() {
            let (line, body) = self.lines[self.pos];
            self.pos += 1;
            let mut words = body.split_whitespace();
            let keyword = words.next().unwrap_or("");
            let rest: Vec<&str> = words.collect();
            match keyword {
                "scenario" => {
                    if name.is_some() {
                        return Err(Self::err(line, "duplicate `scenario` line"));
                    }
                    if rest.is_empty() {
                        return Err(Self::err(line, "`scenario` needs a name"));
                    }
                    // Keep the raw remainder: joining the split words
                    // would collapse interior runs of whitespace, so a
                    // doubly-spaced name would not survive a
                    // parse → render round trip.
                    name = Some(raw_rest(body, keyword));
                }
                "frequencies" => {
                    if rest.is_empty() {
                        return Err(Self::err(line, "`frequencies` needs at least one value"));
                    }
                    for w in &rest {
                        frequencies.push(parse_u64(line, "frequency", w)?);
                    }
                }
                "energy" => {
                    energy = Self::parse_energy(line, &rest)?;
                }
                "task" => {
                    if rest.is_empty() {
                        return Err(Self::err(line, "`task` needs a name"));
                    }
                    let name = raw_rest(body, keyword);
                    tasks.push(self.parse_task(line, name)?);
                }
                "faults" => {
                    if faults.is_some() {
                        return Err(Self::err(line, "duplicate `faults` stanza"));
                    }
                    faults = Some(self.parse_faults(line)?);
                }
                other => {
                    return Err(Self::err(line, format!("unknown keyword `{other}`")));
                }
            }
        }

        Ok(ScenarioSpec {
            name: name.unwrap_or_else(|| "unnamed".into()),
            frequencies_mhz: frequencies,
            energy,
            tasks,
            faults,
        })
    }

    fn parse_faults(&mut self, stanza_line: usize) -> Result<FaultSpec, ParseError> {
        let mut spec = FaultSpec::default();
        loop {
            let Some(&(line, body)) = self.lines.get(self.pos) else {
                return Err(Self::err(
                    stanza_line,
                    "`faults` stanza is missing its `end`",
                ));
            };
            self.pos += 1;
            let mut words = body.split_whitespace();
            let keyword = words.next().unwrap_or("");
            let rest: Vec<&str> = words.collect();
            match keyword {
                "end" => break,
                "demand-deviation" => match rest.as_slice() {
                    [factor, spread] => {
                        spec.demand_mean_factor = parse_f64(line, "factor", factor)?;
                        spec.demand_spread = parse_f64(line, "spread", spread)?;
                    }
                    _ => {
                        return Err(Self::err(
                            line,
                            "expected `demand-deviation <factor> <spread>`",
                        ))
                    }
                },
                "switch-latency" => match rest.as_slice() {
                    [cycles] => {
                        spec.switch_latency_cycles = parse_u64(line, "cycles", cycles)?;
                    }
                    _ => return Err(Self::err(line, "expected `switch-latency <cycles>`")),
                },
                "degraded-frequencies" => {
                    let mut set = Vec::with_capacity(rest.len());
                    for w in &rest {
                        set.push(parse_u64(line, "frequency", w)?);
                    }
                    spec.degraded_mhz = Some(set);
                }
                "burst-extra" => match rest.as_slice() {
                    [extra, every] => {
                        spec.burst_extra = parse_u64(line, "extra", extra)? as u32;
                        spec.burst_every = parse_u64(line, "every", every)? as u32;
                    }
                    _ => return Err(Self::err(line, "expected `burst-extra <extra> <every>`")),
                },
                "abort-cost" => match rest.as_slice() {
                    [us] => spec.abort_cost_us = parse_u64(line, "abort cost", us)?,
                    _ => return Err(Self::err(line, "expected `abort-cost <us>`")),
                },
                "arrival-jitter" => match rest.as_slice() {
                    [us] => spec.arrival_jitter_us = parse_u64(line, "jitter", us)?,
                    _ => return Err(Self::err(line, "expected `arrival-jitter <us>`")),
                },
                other => {
                    return Err(Self::err(line, format!("unknown fault keyword `{other}`")));
                }
            }
        }
        Ok(spec)
    }

    fn parse_energy(line: usize, rest: &[&str]) -> Result<EnergySpec, ParseError> {
        match rest {
            ["E1"] | ["e1"] => Ok(EnergySpec::e1()),
            ["E2"] | ["e2"] => Ok(EnergySpec::e2()),
            ["E3"] | ["e3"] => Ok(EnergySpec::e3()),
            ["custom", s3, s2, s1, s0] => Ok(EnergySpec {
                name: "custom".into(),
                s3: parse_f64(line, "S3", s3)?,
                s2: parse_f64(line, "S2", s2)?,
                s1_rel: parse_f64(line, "S1rel", s1)?,
                s0_rel: parse_f64(line, "S0rel", s0)?,
            }),
            _ => Err(Self::err(
                line,
                "expected `energy E1|E2|E3` or `energy custom S3 S2 S1rel S0rel`",
            )),
        }
    }

    fn parse_task(&mut self, task_line: usize, name: String) -> Result<TaskSpec, ParseError> {
        let mut tuf: Option<TufSpec> = None;
        let mut uam: Option<(f64, u64)> = None;
        let mut demand: Option<DemandSpec> = None;
        let mut assurance: Option<(f64, f64)> = None;
        let mut allocation: Option<f64> = None;
        let mut arrival: Option<ArrivalSpec> = None;

        loop {
            let Some(&(line, body)) = self.lines.get(self.pos) else {
                return Err(Self::err(
                    task_line,
                    format!("task `{name}` is missing its `end`"),
                ));
            };
            self.pos += 1;
            let mut words = body.split_whitespace();
            let keyword = words.next().unwrap_or("");
            let rest: Vec<&str> = words.collect();
            match keyword {
                "end" => break,
                "tuf" => tuf = Some(Self::parse_tuf(line, &rest)?),
                "uam" => match rest.as_slice() {
                    [a, window] => {
                        uam = Some((parse_f64(line, "a", a)?, parse_u64(line, "window", window)?));
                    }
                    _ => return Err(Self::err(line, "expected `uam <a> <window_us>`")),
                },
                "demand" => demand = Some(Self::parse_demand(line, &rest)?),
                "assurance" => match rest.as_slice() {
                    [nu, rho] => {
                        assurance =
                            Some((parse_f64(line, "nu", nu)?, parse_f64(line, "rho", rho)?));
                    }
                    _ => return Err(Self::err(line, "expected `assurance <nu> <rho>`")),
                },
                "allocation" => match rest.as_slice() {
                    [cycles] => allocation = Some(parse_f64(line, "allocation", cycles)?),
                    _ => return Err(Self::err(line, "expected `allocation <cycles>`")),
                },
                "arrival" => arrival = Some(Self::parse_arrival(line, &rest)?),
                other => {
                    return Err(Self::err(line, format!("unknown task keyword `{other}`")));
                }
            }
        }

        let tuf =
            tuf.ok_or_else(|| Self::err(task_line, format!("task `{name}` has no `tuf` line")))?;
        let (max_arrivals, window_us) =
            uam.ok_or_else(|| Self::err(task_line, format!("task `{name}` has no `uam` line")))?;
        let demand = demand
            .ok_or_else(|| Self::err(task_line, format!("task `{name}` has no `demand` line")))?;
        let (nu, rho) = assurance.ok_or_else(|| {
            Self::err(task_line, format!("task `{name}` has no `assurance` line"))
        })?;
        Ok(TaskSpec {
            name,
            tuf,
            max_arrivals,
            window_us,
            demand,
            nu,
            rho,
            declared_allocation: allocation,
            arrival,
        })
    }

    fn parse_arrival(line: usize, rest: &[&str]) -> Result<ArrivalSpec, ParseError> {
        match rest {
            ["periodic"] => Ok(ArrivalSpec::Periodic),
            ["burst"] => Ok(ArrivalSpec::Burst),
            ["poisson", rate] => Ok(ArrivalSpec::Poisson {
                rate_per_window: parse_f64(line, "rate", rate)?,
            }),
            ["onoff", on, off] => Ok(ArrivalSpec::OnOff {
                on_windows: parse_u64(line, "on windows", on)? as u32,
                off_windows: parse_u64(line, "off windows", off)? as u32,
            }),
            _ => Err(Self::err(
                line,
                "expected `arrival periodic` | `arrival burst` | `arrival poisson r` | `arrival onoff on off`",
            )),
        }
    }

    fn parse_tuf(line: usize, rest: &[&str]) -> Result<TufSpec, ParseError> {
        match rest {
            ["step", umax, deadline] => {
                let step_at_us = parse_u64(line, "deadline", deadline)?;
                Ok(TufSpec::Step {
                    umax: parse_f64(line, "umax", umax)?,
                    step_at_us,
                })
            }
            ["linear", umax, termination] => Ok(TufSpec::Linear {
                umax: parse_f64(line, "umax", umax)?,
                termination_us: parse_u64(line, "termination", termination)?,
            }),
            ["exp", umax, tau, termination] => Ok(TufSpec::Exponential {
                umax: parse_f64(line, "umax", umax)?,
                tau_us: parse_u64(line, "tau", tau)?,
                termination_us: parse_u64(line, "termination", termination)?,
            }),
            ["piecewise", points @ ..] if !points.is_empty() => {
                let mut parsed = Vec::with_capacity(points.len());
                for p in points {
                    let Some((t, u)) = p.split_once(':') else {
                        return Err(Self::err(line, format!("breakpoint `{p}` is not `time:utility`")));
                    };
                    parsed.push((parse_u64(line, "time", t)?, parse_f64(line, "utility", u)?));
                }
                Ok(TufSpec::Piecewise { points: parsed })
            }
            _ => Err(Self::err(
                line,
                "expected `tuf step u d` | `tuf linear u x` | `tuf exp u tau x` | `tuf piecewise t:u ...`",
            )),
        }
    }

    fn parse_demand(line: usize, rest: &[&str]) -> Result<DemandSpec, ParseError> {
        match rest {
            ["det", c] => Ok(DemandSpec::Deterministic { cycles: parse_f64(line, "cycles", c)? }),
            ["normal", mean, var] => Ok(DemandSpec::Normal {
                mean: parse_f64(line, "mean", mean)?,
                variance: parse_f64(line, "variance", var)?,
            }),
            ["uniform", lo, hi] => Ok(DemandSpec::Uniform {
                lo: parse_f64(line, "lo", lo)?,
                hi: parse_f64(line, "hi", hi)?,
            }),
            ["pareto", scale, alpha] => Ok(DemandSpec::Pareto {
                scale: parse_f64(line, "scale", scale)?,
                alpha: parse_f64(line, "alpha", alpha)?,
            }),
            _ => Err(Self::err(
                line,
                "expected `demand det c` | `demand normal m v` | `demand uniform lo hi` | `demand pareto s a`",
            )),
        }
    }
}

/// The raw text after `keyword` on an already-trimmed line body, with
/// interior whitespace preserved (re-joining split words would collapse
/// it and break the parse → render byte round trip).
fn raw_rest(body: &str, keyword: &str) -> String {
    body[keyword.len()..].trim_start().to_string()
}

fn parse_f64(line: usize, what: &str, word: &str) -> Result<f64, ParseError> {
    word.parse()
        .map_err(|_| Parser::err(line, format!("{what} `{word}` is not a number")))
}

fn parse_u64(line: usize, what: &str, word: &str) -> Result<u64, ParseError> {
    word.parse().map_err(|_| {
        Parser::err(
            line,
            format!("{what} `{word}` is not a non-negative integer"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &str = "\
# demo scenario
scenario demo
frequencies 36 55 64 73 82 91 100
energy E2
task track
  tuf step 10 10000
  uam 2 10000
  demand normal 150000 150000
  assurance 1.0 0.96
end
task decay
  tuf exp 40 3000 20000
  uam 3 30000
  demand uniform 100000 300000
  assurance 0.4 0.9
end
";

    #[test]
    fn arrival_lines_parse_and_round_trip() {
        let text = "\
scenario arrivals
frequencies 100
energy E1
task p
  tuf step 1.0 10000
  uam 1.0 10000
  arrival periodic
  demand det 1000.0
  assurance 1.0 0.5
end
task b
  tuf step 1.0 10000
  uam 2.0 10000
  arrival burst
  demand det 1000.0
  assurance 1.0 0.5
end
task q
  tuf step 1.0 10000
  uam 3.0 10000
  arrival poisson 2.5
  demand det 1000.0
  assurance 1.0 0.5
end
task o
  tuf step 1.0 10000
  uam 2.0 10000
  arrival onoff 3 5
  demand det 1000.0
  assurance 1.0 0.5
end
";
        let s = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(s.tasks[0].arrival, Some(ArrivalSpec::Periodic));
        assert_eq!(s.tasks[1].arrival, Some(ArrivalSpec::Burst));
        assert_eq!(
            s.tasks[2].arrival,
            Some(ArrivalSpec::Poisson {
                rate_per_window: 2.5
            })
        );
        assert_eq!(
            s.tasks[3].arrival,
            Some(ArrivalSpec::OnOff {
                on_windows: 3,
                off_windows: 5
            })
        );
        let rendered = s.render();
        let back = ScenarioSpec::parse(&rendered).expect("canonical text parses");
        assert_eq!(back, s);
        assert_eq!(back.render(), rendered);
    }

    #[test]
    fn names_with_interior_whitespace_round_trip() {
        // `rest.join(" ")` used to collapse the double space, so the
        // rendered text drifted from the parsed spec on the second pass.
        let text = "scenario two  spaces\ntask a  b\n  tuf step 1.0 1000\n  uam 1.0 1000\n  demand det 10.0\n  assurance 1.0 0.5\nend\n";
        let s = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(s.name, "two  spaces");
        assert_eq!(s.tasks[0].name, "a  b");
        let rendered = s.render();
        let back = ScenarioSpec::parse(&rendered).expect("reparses");
        assert_eq!(back, s);
        assert_eq!(back.render(), rendered);
    }

    #[test]
    fn fault_spec_bridges_to_and_from_plan() {
        let spec = FaultSpec {
            demand_mean_factor: 1.5,
            demand_spread: 0.2,
            switch_latency_cycles: 20_000,
            degraded_mhz: Some(vec![36, 55]),
            burst_extra: 2,
            burst_every: 3,
            abort_cost_us: 300,
            arrival_jitter_us: 2_000,
        };
        let plan = spec.to_plan();
        assert_eq!(plan.uam.extra_per_window, 2);
        assert_eq!(plan.uam.every_n_windows, 3);
        assert_eq!(plan.timing.abort_cost.as_micros(), 300);
        plan.validate().expect("valid plan");
        assert_eq!(FaultSpec::from_plan(&plan), Some(spec));
        // The default spec lowers to an inactive plan.
        assert!(FaultSpec::default().to_plan().is_none());
        // stuck_after has no .scn surface.
        let mut stuck = FaultPlan::none();
        stuck.dvs.stuck_after = Some(TimeDelta::from_micros(1));
        assert_eq!(FaultSpec::from_plan(&stuck), None);
    }

    #[test]
    fn workload_round_trips_through_scn_text() {
        let f_max = eua_platform::Frequency::from_mhz(100);
        let workload = eua_workload::UniverseFamily::MixedCriticality
            .generate(0, 9, f_max)
            .expect("generates")
            .workload;
        let table = FrequencyTable::new([100]).expect("table");
        let spec = ScenarioSpec::from_workload("mix", &workload, &table, EnergySpec::e1())
            .expect("expressible");
        let rendered = spec.render();
        let back = ScenarioSpec::parse(&rendered).expect("reparses");
        assert_eq!(back, spec);
        assert_eq!(back.render(), rendered, "canonical text is a fixpoint");
        let raised = back.to_workload().expect("raises");
        assert_eq!(raised.patterns, workload.patterns);
        assert_eq!(raised.tasks.len(), workload.tasks.len());
        for ((_, a), (_, b)) in raised.tasks.iter().zip(workload.tasks.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.allocation(), b.allocation());
            assert_eq!(a.critical_offset(), b.critical_offset());
        }
    }

    #[test]
    fn tasks_without_arrival_lines_default_to_window_burst() {
        let s = ScenarioSpec::parse(VALID).expect("parses");
        let w = s.to_workload().expect("raises");
        assert!(matches!(
            w.patterns[0],
            ArrivalPattern::WindowBurst { spec } if spec.max_arrivals() == 2
        ));
    }

    #[test]
    fn parses_a_valid_scenario() {
        let s = ScenarioSpec::parse(VALID).expect("parses");
        assert_eq!(s.name, "demo");
        assert_eq!(s.frequencies_mhz, vec![36, 55, 64, 73, 82, 91, 100]);
        assert_eq!(s.energy.name, "E2");
        assert_eq!(s.tasks.len(), 2);
        assert_eq!(s.tasks[0].name, "track");
        assert_eq!(s.tasks[0].max_arrivals, 2.0);
        assert_eq!(s.tasks[1].tuf.shape_name(), "exponential");
    }

    #[test]
    fn reports_unknown_keyword_with_line() {
        let e = ScenarioSpec::parse("scenario x\nbogus 1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn parses_a_faults_stanza() {
        let text = format!(
            "{VALID}faults
  demand-deviation 1.5 0.2
  switch-latency 20000
  degraded-frequencies 36 55
  burst-extra 2 1
  abort-cost 300
  arrival-jitter 2000
end
"
        );
        let s = ScenarioSpec::parse(&text).expect("parses");
        let f = s.faults.expect("faults stanza");
        assert_eq!(f.demand_mean_factor, 1.5);
        assert_eq!(f.demand_spread, 0.2);
        assert_eq!(f.switch_latency_cycles, 20_000);
        assert_eq!(f.degraded_mhz, Some(vec![36, 55]));
        assert_eq!((f.burst_extra, f.burst_every), (2, 1));
        assert_eq!(f.abort_cost_us, 300);
        assert_eq!(f.arrival_jitter_us, 2_000);
    }

    #[test]
    fn scenarios_without_faults_have_none() {
        assert_eq!(ScenarioSpec::parse(VALID).expect("parses").faults, None);
    }

    #[test]
    fn fault_stanza_errors_are_structural() {
        let e = ScenarioSpec::parse("scenario x\nfaults\n  switch-latency\nend\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("switch-latency"));

        let e = ScenarioSpec::parse("scenario x\nfaults\n  demand-deviation 1 1\n").unwrap_err();
        assert!(e.message.contains("missing its `end`"));

        let e = ScenarioSpec::parse("scenario x\nfaults\nend\nfaults\nend\n").unwrap_err();
        assert!(e.message.contains("duplicate `faults`"));
    }

    #[test]
    fn reports_missing_stanza_field() {
        let text = "task t\n  tuf step 1 100\n  uam 1 100\n  demand det 10\nend\n";
        let e = ScenarioSpec::parse(text).unwrap_err();
        assert!(e.message.contains("assurance"), "{}", e.message);
    }

    #[test]
    fn reports_missing_end() {
        let e = ScenarioSpec::parse("task t\n  tuf step 1 100\n").unwrap_err();
        assert!(e.message.contains("end"));
    }

    #[test]
    fn task_round_trips_through_spec() {
        let task = Task::new(
            "t",
            Tuf::step(10.0, TimeDelta::from_micros(10_000)).expect("tuf"),
            UamSpec::new(2, TimeDelta::from_micros(10_000)).expect("uam"),
            DemandModel::normal(150_000.0, 150_000.0).expect("demand"),
            Assurance::new(1.0, 0.96).expect("assurance"),
        )
        .expect("task");
        let spec = TaskSpec::from_task(&task);
        let back = spec.to_task().expect("round-trip");
        assert_eq!(back.name(), task.name());
        assert_eq!(back.allocation(), task.allocation());
        assert_eq!(back.critical_offset(), task.critical_offset());
    }

    #[test]
    fn chebyshev_allocation_matches_library() {
        let spec = TaskSpec {
            name: "t".into(),
            tuf: TufSpec::Step {
                umax: 1.0,
                step_at_us: 1_000,
            },
            max_arrivals: 1.0,
            window_us: 1_000,
            demand: DemandSpec::Normal {
                mean: 100.0,
                variance: 400.0,
            },
            nu: 1.0,
            rho: 0.96,
            declared_allocation: None,
            arrival: None,
        };
        let c = spec.chebyshev_allocation().expect("finite");
        let expected = 100.0 + (0.96f64 / 0.04 * 400.0).sqrt();
        assert!((c - expected).abs() < 1e-9);
        let task = spec.to_task().expect("valid");
        assert!((task.allocation().get() as f64 - c).abs() <= 1.0);
    }

    #[test]
    fn pareto_heavy_tail_has_no_allocation() {
        let spec = TaskSpec {
            name: "t".into(),
            tuf: TufSpec::Step {
                umax: 1.0,
                step_at_us: 1_000,
            },
            max_arrivals: 1.0,
            window_us: 1_000,
            demand: DemandSpec::Pareto {
                scale: 100.0,
                alpha: 1.5,
            },
            nu: 1.0,
            rho: 0.9,
            declared_allocation: None,
            arrival: None,
        };
        assert_eq!(spec.chebyshev_allocation(), None);
    }

    #[test]
    fn allocation_line_parses_and_round_trips() {
        let text = "\
scenario alloc-demo
frequencies 100
energy E1
task t
  tuf step 1.0 10000
  uam 1.0 10000
  demand det 100000.0
  assurance 1.0 0.5
  allocation 100000.0
end
";
        let s = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(s.tasks[0].declared_allocation, Some(100_000.0));
        // Canonical render re-parses to the same spec, byte-identically
        // the second time around.
        let rendered = s.render();
        let back = ScenarioSpec::parse(&rendered).expect("canonical text parses");
        assert_eq!(back, s);
        assert_eq!(back.render(), rendered);
    }

    #[test]
    fn render_round_trips_custom_energy_and_faults() {
        let mut s = ScenarioSpec::parse(VALID).expect("parses");
        s.energy = EnergySpec {
            name: "custom".into(),
            s3: 0.8,
            s2: 0.05,
            s1_rel: 0.2,
            s0_rel: 0.3,
        };
        s.faults = Some(FaultSpec {
            demand_mean_factor: 1.5,
            demand_spread: 0.2,
            switch_latency_cycles: 20_000,
            degraded_mhz: Some(vec![36, 55]),
            burst_extra: 2,
            burst_every: 3,
            abort_cost_us: 300,
            arrival_jitter_us: 2_000,
        });
        let rendered = s.render();
        let back = ScenarioSpec::parse(&rendered).expect("canonical text parses");
        assert_eq!(back, s);
    }

    #[test]
    fn zero_variance_demand_has_zero_chebyshev_term() {
        // Deterministic demand: Var(Y) = 0, so c = E(Y) exactly whatever ρ.
        for rho in [0.0, 0.5, 0.96] {
            let spec = TaskSpec {
                name: "t".into(),
                tuf: TufSpec::Step {
                    umax: 1.0,
                    step_at_us: 1_000,
                },
                max_arrivals: 1.0,
                window_us: 1_000,
                demand: DemandSpec::Deterministic { cycles: 123_456.0 },
                nu: 1.0,
                rho,
                declared_allocation: None,
                arrival: None,
            };
            assert_eq!(spec.chebyshev_allocation(), Some(123_456.0));
        }
    }

    #[test]
    fn single_frequency_table_parses_with_fmax() {
        let s = ScenarioSpec::parse(
            "scenario solo\nfrequencies 64\nenergy E1\ntask t\n  tuf step 1 1000\n  uam 1 1000\n  demand det 10\n  assurance 1 0.5\nend\n",
        )
        .expect("parses");
        assert_eq!(s.frequencies_mhz, vec![64]);
        assert_eq!(s.f_max_mhz(), Some(64));
    }

    #[test]
    fn periodic_uam_degenerates_to_classical_utilization() {
        // ⟨1, P⟩ with a step TUF at ν = 1: D = P, so Theorem 1's speed
        // C/D equals the classical utilization C/P.
        let spec = TaskSpec {
            name: "t".into(),
            tuf: TufSpec::Step {
                umax: 1.0,
                step_at_us: 10_000,
            },
            max_arrivals: 1.0,
            window_us: 10_000,
            demand: DemandSpec::Deterministic { cycles: 200_000.0 },
            nu: 1.0,
            rho: 0.5,
            declared_allocation: None,
            arrival: None,
        };
        let task = spec.to_task().expect("valid");
        assert_eq!(task.critical_offset().as_micros(), spec.window_us);
        let rate = task.demand_rate();
        let classical = 200_000.0 / 10_000.0;
        assert!((rate - classical).abs() < 1e-9, "{rate} vs {classical}");
    }

    #[test]
    fn energy_knee_matches_closed_form() {
        // With S2 = 0 the knee is (S0 / 2S3)^(1/3).
        let e3 = EnergySpec::e3();
        let knee = e3.optimal_speed_mhz(100.0);
        let closed = (0.5f64 * 100.0 * 100.0 * 100.0 / 2.0).cbrt();
        assert!((knee - closed).abs() < 1e-3, "{knee} vs {closed}");
        assert_eq!(EnergySpec::e1().optimal_speed_mhz(100.0), 0.0);
    }
}
