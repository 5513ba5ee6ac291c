//! Deterministic fault injection for robustness evaluation.
//!
//! EUA\*'s assurances are derived from *declared* demand statistics and
//! the UAM contract `⟨a, P⟩`. A [`FaultPlan`] lets a run violate those
//! declarations in controlled, seed-deterministic ways so the
//! degradation of delivered assurance can be measured (see
//! [`crate::analysis::classify_degradation`] and DESIGN.md §10). Four
//! fault families are injectable:
//!
//! 1. **UAM violations** ([`UamViolationFault`]) — extra burst arrivals
//!    beyond the declared `a` per window `P`, plus arrival (timer)
//!    jitter from [`TimingFault`];
//! 2. **demand mis-estimation** ([`DemandFault`]) — the *actual* sampled
//!    cycle demands are scaled away from the declared statistics the
//!    Chebyshev budget was computed from;
//! 3. **DVS imperfections** ([`DvsFault`]) — frequency-switch latency in
//!    cycles, stuck-at-frequency faults, and a restricted (degraded)
//!    frequency set;
//! 4. **abort-cost overruns** ([`TimingFault`]) — every abort burns wall
//!    time and energy before the processor is available again.
//!
//! Every perturbation is drawn from a dedicated RNG seeded with
//! `seed ^ FAULT_SEED_SALT`, never from the engine's demand-sampling
//! RNG. Two consequences, both load-bearing:
//!
//! * a run with `FaultPlan::none()` (or any all-zero plan) draws nothing
//!   from the fault RNG and is **bit-identical** to the unfaulted
//!   engine; and
//! * fault schedules are pure functions of `(plan, seed)`, so parallel
//!   replication through [`crate::pool`] stays byte-identical to
//!   sequential execution.

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_uam::ArrivalTrace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::task::TaskSet;

/// XOR-salt distinguishing the fault RNG stream from the demand RNG
/// stream derived from the same run seed (the golden-ratio constant,
/// chosen only for bit diversity).
pub const FAULT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// UAM-contract violations: extra arrivals injected at window starts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UamViolationFault {
    /// Extra arrivals injected at the start of each affected window,
    /// *beyond* whatever the legal pattern generated. Zero disables the
    /// family.
    pub extra_per_window: u32,
    /// Inject into every `n`-th window (1 = every window). Zero is
    /// invalid when `extra_per_window > 0`.
    pub every_n_windows: u32,
}

/// Demand mis-estimation: actual sampled demands deviate from the
/// declared distribution by a configurable factor.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandFault {
    /// Multiplier applied to every sampled demand (1.0 = faithful).
    /// Values above 1 model optimistic declarations (true demand higher
    /// than declared); below 1, pessimistic ones.
    pub mean_factor: f64,
    /// Half-width of a uniform per-job spread around `mean_factor`:
    /// each job's factor is drawn from
    /// `mean_factor · (1 + U[−spread, +spread])`. Zero disables the
    /// per-job draw entirely (no RNG consumption).
    pub spread: f64,
}

impl Default for DemandFault {
    fn default() -> Self {
        DemandFault {
            mean_factor: 1.0,
            spread: 0.0,
        }
    }
}

/// DVS imperfections: switch latency, stuck-at faults, degraded tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DvsFault {
    /// Extra cycles burned (at the target frequency) on every frequency
    /// switch — the PLL relock / voltage ramp a fault-free `SimConfig`
    /// models as zero.
    pub switch_latency_cycles: u64,
    /// After this offset from time zero, the frequency in effect at the
    /// next dispatch is pinned for the rest of the run (a regulator
    /// stuck-at fault). `None` disables.
    pub stuck_after: Option<TimeDelta>,
    /// Restrict the platform to this subset of its table (MHz values).
    /// Entries not in the platform table are ignored; an empty
    /// intersection is a [`SimError::InvalidFaultPlan`] at run start.
    /// `None` leaves the table untouched.
    pub degraded_mhz: Option<Vec<u64>>,
}

/// Abort-cost overruns and arrival (timer) jitter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimingFault {
    /// Wall time burned (busy, at the last execution frequency) by every
    /// abort — the cleanup work the paper's instant-abort model omits.
    pub abort_cost: TimeDelta,
    /// Maximum timer jitter: each arrival is displaced by a uniform
    /// offset in `[−jitter, +jitter]` (clamped at time zero). Zero
    /// disables the per-arrival draw.
    pub arrival_jitter: TimeDelta,
}

/// A complete, validated-on-use fault schedule for one run.
///
/// The default plan injects nothing; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// UAM-contract violations (family 1).
    pub uam: UamViolationFault,
    /// Demand mis-estimation (family 2).
    pub demand: DemandFault,
    /// DVS imperfections (family 3).
    pub dvs: DvsFault,
    /// Abort-cost overruns and arrival jitter (family 4).
    pub timing: TimingFault,
}

impl FaultPlan {
    /// The empty plan: no fault family active.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether no fault family is active (demand factor exactly 1 with
    /// zero spread counts as inactive).
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.arrivals_faulted()
            && !self.demand_faulted()
            && self.dvs == DvsFault::default()
            && self.timing.abort_cost.is_zero()
    }

    /// Whether arrival streams are perturbed (burst injection or
    /// jitter).
    #[must_use]
    pub fn arrivals_faulted(&self) -> bool {
        self.uam.extra_per_window > 0 || !self.timing.arrival_jitter.is_zero()
    }

    /// Whether sampled demands are perturbed.
    #[must_use]
    pub fn demand_faulted(&self) -> bool {
        self.demand.mean_factor != 1.0 || self.demand.spread != 0.0
    }

    /// Validates the plan's parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] when the demand factor or spread is
    /// negative or non-finite, when burst injection is requested with a
    /// zero window stride, or when a degraded frequency set is declared
    /// empty. (An empty intersection with the platform table is checked
    /// at run start, where the table is known.)
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.demand.mean_factor.is_finite() || self.demand.mean_factor < 0.0 {
            return Err(SimError::InvalidFaultPlan {
                reason: format!(
                    "demand deviation factor {} must be finite and non-negative",
                    self.demand.mean_factor
                ),
            });
        }
        if !self.demand.spread.is_finite() || self.demand.spread < 0.0 {
            return Err(SimError::InvalidFaultPlan {
                reason: format!(
                    "demand spread {} must be finite and non-negative",
                    self.demand.spread
                ),
            });
        }
        if self.uam.extra_per_window > 0 && self.uam.every_n_windows == 0 {
            return Err(SimError::InvalidFaultPlan {
                reason: "burst injection requires a window stride of at least 1".into(),
            });
        }
        if let Some(set) = &self.dvs.degraded_mhz {
            if set.is_empty() {
                return Err(SimError::InvalidFaultPlan {
                    reason: "degraded frequency set is empty".into(),
                });
            }
        }
        Ok(())
    }

    /// The fault RNG for a run seeded with `seed` — deliberately a
    /// *different* stream from the engine's `SmallRng::seed_from_u64(seed)`
    /// so activating a fault family never re-deals the legal workload.
    #[must_use]
    pub fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT)
    }

    /// Applies burst injection and arrival jitter to per-task arrival
    /// traces, in task order. Returns the traces untouched (and draws
    /// nothing from `rng`) when no arrival fault is active.
    ///
    /// Injected arrivals land at window starts `k·P` (every
    /// `every_n_windows`-th window within the horizon); jitter displaces
    /// every arrival — legal and injected — by a uniform offset in
    /// `[−J, +J]`, clamped at time zero. Arrivals displaced past the
    /// horizon are dropped by the engine exactly like legal late
    /// arrivals.
    #[must_use]
    pub fn apply_to_traces(
        &self,
        traces: &[ArrivalTrace],
        tasks: &TaskSet,
        horizon_end: SimTime,
        rng: &mut SmallRng,
    ) -> Vec<ArrivalTrace> {
        if !self.arrivals_faulted() {
            return traces.to_vec();
        }
        let jitter = self.timing.arrival_jitter.as_micros();
        traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                let mut times: Vec<SimTime> = trace.iter().collect();
                if self.uam.extra_per_window > 0 {
                    let window = tasks.task(crate::ids::TaskId(i)).uam().window();
                    let stride = u64::from(self.uam.every_n_windows.max(1));
                    let mut k = Some(0u64);
                    while let Some(offset) = k.and_then(|k| window.checked_mul(k)) {
                        let Some(at) = SimTime::ZERO.checked_add(offset) else {
                            break;
                        };
                        if at >= horizon_end {
                            break;
                        }
                        for _ in 0..self.uam.extra_per_window {
                            times.push(at);
                        }
                        k = k.and_then(|k| k.checked_add(stride));
                    }
                }
                if jitter > 0 {
                    for t in &mut times {
                        let offset = rng.gen_range(0..=jitter.saturating_mul(2));
                        let micros = t.as_micros().saturating_add(offset).saturating_sub(jitter);
                        *t = SimTime::from_micros(micros);
                    }
                }
                times.sort_unstable();
                ArrivalTrace::from_times(times)
            })
            .collect()
    }

    /// Perturbs one sampled demand. Draws from `rng` only when a per-job
    /// spread is configured; an inactive demand fault returns the sample
    /// unchanged without touching the RNG.
    #[must_use]
    pub fn perturb_demand(&self, sampled: Cycles, rng: &mut SmallRng) -> Cycles {
        if !self.demand_faulted() {
            return sampled;
        }
        let mut factor = self.demand.mean_factor;
        if self.demand.spread > 0.0 {
            let u: f64 = rng.gen_range(-1.0..=1.0);
            factor *= 1.0 + self.demand.spread * u;
        }
        let cycles = (sampled.as_f64() * factor.max(0.0)).round();
        // `as` saturates at the u64 bounds and maps NaN to 0, so even a
        // u64-boundary product degrades instead of panicking.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Cycles::new(if cycles.is_finite() { cycles as u64 } else { 0 })
    }

    /// A conservative envelope on admitted arrivals per UAM window once
    /// this plan's arrival faults are in effect, used to *relax* the
    /// feature-gated invariant checker rather than disable it: injected
    /// bursts and jitter legitimately exceed the declared bound `a`, but
    /// anything beyond this envelope is still an engine bug.
    ///
    /// A window of length `P` can straddle two injection points
    /// (`a + 2·extra`), and jitter `J` folds originals from a span of
    /// `P + 2J` into one window (`⌊2J/P⌋ + 2` windows' worth by the
    /// sliding-window property).
    #[must_use]
    pub fn relaxed_uam_bound(&self, declared: u32, window: TimeDelta) -> u32 {
        if !self.arrivals_faulted() {
            return declared;
        }
        let base = u64::from(declared).saturating_add(2 * u64::from(self.uam.extra_per_window));
        let j = self.timing.arrival_jitter.as_micros();
        let p = window.as_micros().max(1);
        let windows = ((2 * j) / p).saturating_add(2);
        u32::try_from(base.saturating_mul(windows)).unwrap_or(u32::MAX)
    }

    /// The degraded frequency subset of `table`, in ascending order, or
    /// `None` when no degradation is configured.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] when the configured set shares no
    /// entry with the platform table.
    pub fn degraded_table(
        &self,
        table: &eua_platform::FrequencyTable,
    ) -> Result<Option<Vec<Frequency>>, SimError> {
        let Some(set) = &self.dvs.degraded_mhz else {
            return Ok(None);
        };
        let kept: Vec<Frequency> = table.iter().filter(|f| set.contains(&f.as_mhz())).collect();
        if kept.is_empty() {
            return Err(SimError::InvalidFaultPlan {
                reason: format!(
                    "degraded frequency set {set:?} shares no entry with the platform table"
                ),
            });
        }
        Ok(Some(kept))
    }
}

/// Maps a requested frequency onto a degraded table: the slowest
/// available frequency at least as fast as the request, else the fastest
/// available one. `degraded` must be non-empty and ascending.
#[must_use]
pub fn map_to_degraded(degraded: &[Frequency], requested: Frequency) -> Frequency {
    degraded
        .iter()
        .copied()
        .find(|f| f.as_mhz() >= requested.as_mhz())
        .or_else(|| degraded.last().copied())
        .unwrap_or(requested)
}

/// Counters describing what a fault plan actually did during one run.
/// All zero for an inactive plan; excluded from [`crate::Metrics`] so
/// zero-fault runs stay bit-identical to the unfaulted engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Burst arrivals injected beyond the legal traces.
    pub injected_arrivals: u64,
    /// Sampled demands scaled by the demand fault.
    pub perturbed_demands: u64,
    /// Policy frequency requests remapped onto the degraded table.
    pub degraded_remaps: u64,
    /// Dispatches forced onto the stuck frequency.
    pub stuck_dispatches: u64,
    /// Frequency switches that paid the injected latency.
    pub latency_switches: u64,
    /// Aborts that paid the abort-cost overrun.
    pub costly_aborts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::FrequencyTable;
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    use crate::task::Task;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn one_task_set(window_ms: u64) -> TaskSet {
        let task = Task::new(
            "t",
            Tuf::step(5.0, ms(window_ms)).unwrap(),
            UamSpec::new(2, ms(window_ms)).unwrap(),
            DemandModel::deterministic(100_000.0).unwrap(),
            Assurance::new(1.0, 0.9).unwrap(),
        )
        .unwrap();
        TaskSet::new(vec![task]).unwrap()
    }

    #[test]
    fn empty_plan_is_none_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate().unwrap();
        assert_eq!(plan.relaxed_uam_bound(3, ms(10)), 3);
    }

    #[test]
    fn validate_rejects_negative_and_non_finite_factors() {
        for factor in [-0.5, f64::NAN, f64::NEG_INFINITY] {
            let plan = FaultPlan {
                demand: DemandFault {
                    mean_factor: factor,
                    spread: 0.0,
                },
                ..FaultPlan::none()
            };
            assert!(matches!(
                plan.validate(),
                Err(SimError::InvalidFaultPlan { .. })
            ));
        }
        let plan = FaultPlan {
            demand: DemandFault {
                mean_factor: 1.0,
                spread: -1.0,
            },
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_stride_and_empty_degraded_set() {
        let plan = FaultPlan {
            uam: UamViolationFault {
                extra_per_window: 1,
                every_n_windows: 0,
            },
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            dvs: DvsFault {
                degraded_mhz: Some(vec![]),
                ..DvsFault::default()
            },
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn inactive_plan_leaves_traces_untouched_without_rng_draws() {
        let tasks = one_task_set(10);
        let trace = ArrivalTrace::from_times([SimTime::ZERO, SimTime::from_millis(10)]);
        let plan = FaultPlan::none();
        let mut a = FaultPlan::rng(7);
        let out = plan.apply_to_traces(
            std::slice::from_ref(&trace),
            &tasks,
            SimTime::from_millis(100),
            &mut a,
        );
        assert_eq!(
            out[0].iter().collect::<Vec<_>>(),
            trace.iter().collect::<Vec<_>>()
        );
        // No draws happened: the rng still matches a fresh one.
        let mut b = FaultPlan::rng(7);
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
    }

    #[test]
    fn burst_injection_adds_arrivals_at_window_starts() {
        let tasks = one_task_set(10);
        let trace = ArrivalTrace::from_times([SimTime::from_millis(3)]);
        let plan = FaultPlan {
            uam: UamViolationFault {
                extra_per_window: 2,
                every_n_windows: 2,
            },
            ..FaultPlan::none()
        };
        let mut rng = FaultPlan::rng(1);
        let out = plan.apply_to_traces(
            std::slice::from_ref(&trace),
            &tasks,
            SimTime::from_millis(40),
            &mut rng,
        );
        let times: Vec<u64> = out[0].iter().map(|t| t.as_micros() / 1000).collect();
        // Windows 0 and 2 (stride 2) within 40 ms get 2 extras each.
        assert_eq!(times, vec![0, 0, 3, 20, 20]);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let tasks = one_task_set(10);
        let trace = ArrivalTrace::from_times(
            (0..20)
                .map(|i| SimTime::from_millis(i * 10))
                .collect::<Vec<_>>(),
        );
        let plan = FaultPlan {
            timing: TimingFault {
                abort_cost: TimeDelta::ZERO,
                arrival_jitter: TimeDelta::from_millis(2),
            },
            ..FaultPlan::none()
        };
        let horizon = SimTime::from_millis(300);
        let mut r1 = FaultPlan::rng(5);
        let mut r2 = FaultPlan::rng(5);
        let a = plan.apply_to_traces(std::slice::from_ref(&trace), &tasks, horizon, &mut r1);
        let b = plan.apply_to_traces(std::slice::from_ref(&trace), &tasks, horizon, &mut r2);
        assert_eq!(
            a[0].iter().collect::<Vec<_>>(),
            b[0].iter().collect::<Vec<_>>()
        );
        for (orig, moved) in trace.iter().zip(a[0].iter()) {
            let d = orig.as_micros().abs_diff(moved.as_micros());
            assert!(d <= 2_000, "jitter {d} exceeds the 2 ms bound");
        }
        let mut r3 = FaultPlan::rng(6);
        let c = plan.apply_to_traces(std::slice::from_ref(&trace), &tasks, horizon, &mut r3);
        assert_ne!(
            a[0].iter().collect::<Vec<_>>(),
            c[0].iter().collect::<Vec<_>>(),
            "different seeds must jitter differently"
        );
        for seed in [0, 5, 42, u64::MAX] {
            assert_ne!(
                FaultPlan::rng(seed).gen::<u64>(),
                SmallRng::seed_from_u64(seed).gen::<u64>(),
                "seed {seed}: the fault stream must not be the demand stream"
            );
        }
    }

    #[test]
    fn demand_perturbation_scales_and_saturates() {
        let mut rng = FaultPlan::rng(1);
        let plan = FaultPlan {
            demand: DemandFault {
                mean_factor: 2.0,
                spread: 0.0,
            },
            ..FaultPlan::none()
        };
        assert_eq!(
            plan.perturb_demand(Cycles::new(1_000), &mut rng),
            Cycles::new(2_000)
        );
        let huge = FaultPlan {
            demand: DemandFault {
                mean_factor: 1e30,
                spread: 0.0,
            },
            ..FaultPlan::none()
        };
        assert_eq!(
            huge.perturb_demand(Cycles::new(u64::MAX), &mut rng),
            Cycles::new(u64::MAX),
            "u64-boundary products saturate instead of panicking"
        );
        let inactive = FaultPlan::none();
        assert_eq!(
            inactive.perturb_demand(Cycles::new(42), &mut rng),
            Cycles::new(42)
        );
    }

    #[test]
    fn spread_draws_stay_within_the_band() {
        let plan = FaultPlan {
            demand: DemandFault {
                mean_factor: 1.5,
                spread: 0.2,
            },
            ..FaultPlan::none()
        };
        let mut rng = FaultPlan::rng(9);
        for _ in 0..200 {
            let c = plan.perturb_demand(Cycles::new(1_000_000), &mut rng).get();
            assert!(
                (1_200_000..=1_800_000).contains(&c),
                "factor band violated: {c}"
            );
        }
    }

    #[test]
    fn relaxed_bound_covers_bursts_and_jitter() {
        let plan = FaultPlan {
            uam: UamViolationFault {
                extra_per_window: 3,
                every_n_windows: 1,
            },
            timing: TimingFault {
                abort_cost: TimeDelta::ZERO,
                arrival_jitter: ms(15),
            },
            ..FaultPlan::none()
        };
        // base = 2 + 6 = 8; windows = ⌊30/10⌋ + 2 = 5 → 40.
        assert_eq!(plan.relaxed_uam_bound(2, ms(10)), 40);
    }

    #[test]
    fn degraded_table_intersects_and_rejects_disjoint_sets() {
        let table = FrequencyTable::powernow_k6();
        let plan = FaultPlan {
            dvs: DvsFault {
                degraded_mhz: Some(vec![36, 100, 999]),
                ..DvsFault::default()
            },
            ..FaultPlan::none()
        };
        let kept = plan.degraded_table(&table).unwrap().unwrap();
        let mhz: Vec<u64> = kept.iter().map(|f| f.as_mhz()).collect();
        assert_eq!(mhz, vec![36, 100]);
        let disjoint = FaultPlan {
            dvs: DvsFault {
                degraded_mhz: Some(vec![999]),
                ..DvsFault::default()
            },
            ..FaultPlan::none()
        };
        assert!(matches!(
            disjoint.degraded_table(&table),
            Err(SimError::InvalidFaultPlan { .. })
        ));
    }

    #[test]
    fn degraded_mapping_rounds_up_then_clamps() {
        let degraded = [Frequency::from_mhz(45), Frequency::from_mhz(64)];
        assert_eq!(
            map_to_degraded(&degraded, Frequency::from_mhz(36)).as_mhz(),
            45
        );
        assert_eq!(
            map_to_degraded(&degraded, Frequency::from_mhz(64)).as_mhz(),
            64
        );
        assert_eq!(
            map_to_degraded(&degraded, Frequency::from_mhz(100)).as_mhz(),
            64
        );
    }
}
