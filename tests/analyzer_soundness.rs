#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on bad setup is the point

//! Simulator-backed soundness gate for the semantic analyzer.
//!
//! `eua-analyze`'s demand-bound engine makes two falsifiable claims:
//!
//! * **Feasible is sound**: when the quantized upper model fits at `f`,
//!   fault-free simulation at a fixed `f` under the UAM worst case
//!   (synchronized window bursts, full allocations demanded) meets every
//!   `{ν, ρ}` assurance — every observable job accrues `≥ ν·U_max`.
//! * **Infeasible witnesses are real**: the reported window genuinely
//!   overloads (`h(L) > f·L` recomputed through `eua-core`'s independent
//!   demand-bound path), and simulation over that window leaves at least
//!   one observable job under its assurance.
//!
//! Property-based: scenarios are drawn at random, lowered through the
//! analyzer IR, and each per-frequency verdict is checked against a
//! discrete-event simulation dispatched through `eua-sim`'s worker pool.
//! Deterministic demands are used so the simulated load equals the
//! allocation-level load the analyzer reasons about exactly; the
//! non-aborting EDF baseline is the optimal uniprocessor scheduler the
//! Feasible claim quantifies over.
//!
//! Case budget: `SOUNDNESS_CASES`.

use eua::analyze::{frequency_verdicts, lower, verdict_at_fmax, ScenarioSpec, Verdict};
use eua::analyze::{DemandSpec, EnergySpec, TaskSpec, TufSpec};
use eua::core::{demand_bound, EdfPolicy};
use eua::platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua::sim::{map_parallel, Engine, Platform, SimConfig, TaskSet};
use eua::uam::generator::ArrivalPattern;
use proptest::prelude::*;

/// Per-run case budget.
const SOUNDNESS_CASES: u32 = 24;

/// Witness intervals past this are asserted arithmetically but not
/// simulated (the event count would dominate the suite's runtime).
const MAX_SIMULATED_WITNESS_US: u64 = 10_000_000;

/// One randomly drawn task, in analyzer-independent form.
#[derive(Debug, Clone)]
struct CaseTask {
    window_us: u64,
    arrivals: u32,
    cycles: u64,
    /// `true`: step TUF at the window edge with ν = 1 (hard deadline).
    /// `false`: linear decay to `2P` with ν = 0.5 (critical time = `P`).
    step: bool,
    umax: f64,
    rho: f64,
}

impl CaseTask {
    /// The raw spec the analyzer sees.
    fn to_spec(&self, idx: usize) -> TaskSpec {
        let (tuf, nu) = if self.step {
            (
                TufSpec::Step {
                    umax: self.umax,
                    step_at_us: self.window_us,
                },
                1.0,
            )
        } else {
            (
                TufSpec::Linear {
                    umax: self.umax,
                    termination_us: 2 * self.window_us,
                },
                0.5,
            )
        };
        TaskSpec {
            name: format!("t{idx}"),
            tuf,
            max_arrivals: f64::from(self.arrivals),
            window_us: self.window_us,
            demand: DemandSpec::Deterministic {
                #[allow(clippy::cast_precision_loss)] // ≤ 600k cycles: exact in f64
                cycles: self.cycles as f64,
            },
            nu,
            rho: self.rho,
            declared_allocation: None,
            arrival: None,
        }
    }

    fn termination_us(&self) -> u64 {
        if self.step {
            self.window_us
        } else {
            2 * self.window_us
        }
    }
}

fn task_strategy() -> impl Strategy<Value = CaseTask> {
    (
        prop_oneof![Just(5_000u64), Just(10_000), Just(20_000), Just(50_000)],
        1u32..=3,
        1u64..=60,
        any::<bool>(),
        prop_oneof![Just(1.0f64), Just(10.0)],
        prop_oneof![Just(0.5f64), Just(0.9), Just(0.96)],
    )
        .prop_map(|(window_us, arrivals, k, step, umax, rho)| CaseTask {
            window_us,
            arrivals,
            // Integer multiples of 10k cycles: the Chebyshev allocation of
            // a deterministic demand is the demand itself, no rounding gap.
            cycles: k * 10_000,
            step,
            umax,
            rho,
        })
}

fn case_strategy() -> impl Strategy<Value = (Vec<CaseTask>, Vec<u64>)> {
    (
        proptest::collection::vec(task_strategy(), 1..=3),
        prop_oneof![
            Just(vec![100u64]),
            Just(vec![50, 100]),
            Just(vec![25, 50, 75, 100]),
            // The AMD PowerNow! table the paper's platform model uses.
            Just(vec![36, 55, 64, 73, 82, 91, 100]),
        ],
    )
}

fn scenario_from(tasks: &[CaseTask], freqs: &[u64]) -> ScenarioSpec {
    ScenarioSpec {
        name: "soundness-case".into(),
        frequencies_mhz: freqs.to_vec(),
        energy: EnergySpec::e1(),
        tasks: tasks
            .iter()
            .enumerate()
            .map(|(i, t)| t.to_spec(i))
            .collect(),
        faults: None,
    }
}

/// Raises the case into the simulator types: the validated task set and
/// the synchronized window-burst patterns realizing the UAM worst case.
fn simulator_workload(spec: &ScenarioSpec) -> (TaskSet, Vec<ArrivalPattern>) {
    let tasks: Vec<_> = spec
        .tasks
        .iter()
        .map(|t| t.to_task().expect("generated tasks are valid"))
        .collect();
    let patterns: Vec<_> = tasks
        .iter()
        .map(|t| ArrivalPattern::window_burst(*t.uam()).expect("window burst"))
        .collect();
    (TaskSet::new(tasks).expect("task set"), patterns)
}

/// One simulation at a fixed frequency; returns `(Σ assured, Σ observable,
/// meets every {ν, ρ})` over the task set.
fn simulate_fixed(
    tasks: &TaskSet,
    patterns: &[ArrivalPattern],
    mhz: u64,
    horizon_us: u64,
) -> (u64, u64, bool) {
    let platform = Platform::new(FrequencyTable::fixed(mhz), EnergySetting::e1());
    let mut policy = EdfPolicy::max_speed().without_abort();
    let config = SimConfig::new(TimeDelta::from_micros(horizon_us));
    let out = Engine::run(tasks, patterns, &platform, &mut policy, &config, 0x5EED)
        .expect("fault-free simulation runs");
    let assured: u64 = out.metrics.per_task.iter().map(|t| t.assured).sum();
    let observable: u64 = out.metrics.per_task.iter().map(|t| t.observable).sum();
    (assured, observable, out.metrics.meets_assurances(tasks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SOUNDNESS_CASES))]

    /// The gate itself: every per-frequency verdict of a random scenario,
    /// checked against the engine through `eua-sim`'s pool.
    #[test]
    fn verdicts_are_sound_against_the_simulator((case, freqs) in case_strategy()) {
        let spec = scenario_from(&case, &freqs);
        let ir = lower(&spec).expect("generated scenarios lower");
        let verdicts = frequency_verdicts(&ir);
        prop_assert_eq!(verdicts.len(), freqs.len());
        prop_assert_eq!(
            verdict_at_fmax(&verdicts).expect("non-empty").f_mhz,
            *freqs.last().expect("non-empty table")
        );
        // Verdicts are monotone in frequency: more speed never hurts.
        for pair in verdicts.windows(2) {
            prop_assert!(pair[1].verdict >= pair[0].verdict, "{pair:?}");
        }

        let (tasks, patterns) = simulator_workload(&spec);
        let max_window = case.iter().map(|t| t.window_us).max().unwrap();
        let max_term = case.iter().map(CaseTask::termination_us).max().unwrap();

        // Arithmetic half of the Infeasible claim: the witness window
        // overloads under eua-core's independent demand-bound path.
        let mut sims: Vec<(u64, bool, u64)> = Vec::new();
        for v in &verdicts {
            match v.verdict {
                Verdict::Feasible => {
                    prop_assert!(v.witness.is_none());
                    sims.push((v.f_mhz, true, 20 * max_window + max_term));
                }
                Verdict::Infeasible => {
                    let w = v.witness.expect("infeasible carries a witness");
                    let h = demand_bound(&tasks, w.interval_us);
                    prop_assert!((h - w.demand_cycles).abs() <= 1e-6 * h.max(1.0),
                        "witness demand {} disagrees with eua-core h(L) = {h}", w.demand_cycles);
                    #[allow(clippy::cast_precision_loss)]
                    let capacity = v.f_mhz as f64 * w.interval_us as f64;
                    prop_assert!(h > capacity + 1e-9,
                        "witness at {} MHz does not overload: h({}) = {h} vs {capacity}",
                        v.f_mhz, w.interval_us);
                    if w.interval_us <= MAX_SIMULATED_WITNESS_US {
                        sims.push((v.f_mhz, false, w.interval_us.saturating_add(max_term).saturating_add(max_window)));
                    }
                }
                Verdict::Indeterminate => prop_assert!(v.witness.is_none()),
            }
        }

        // Simulation half, dispatched through the worker pool.
        let outcomes = map_parallel(
            2,
            sims,
            |i, _| format!("item {i}"),
            |_, (mhz, feasible, horizon_us)| {
                let (assured, observable, meets) =
                    simulate_fixed(&tasks, &patterns, mhz, horizon_us);
                (mhz, feasible, assured, observable, meets)
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("pool drains");
        for (mhz, feasible, assured, observable, meets) in outcomes {
            prop_assert!(observable > 0, "{mhz} MHz: horizon left nothing observable");
            if feasible {
                prop_assert_eq!(
                    assured, observable,
                    "statically Feasible at {} MHz, but {}/{} jobs assured",
                    mhz, assured, observable
                );
                prop_assert!(meets, "{mhz} MHz: {{ν, ρ}} assurances missed");
            } else {
                prop_assert!(
                    assured < observable,
                    "statically Infeasible at {} MHz, yet all {} jobs assured",
                    mhz, observable
                );
            }
        }
    }
}

/// The quantization gap behind `Indeterminate` is a real engine effect,
/// not analyzer pessimism: a system the continuous model accepts
/// (`986 ≤ 990` cycles per 99 µs at 10 MHz) still misses deadlines in
/// simulation because each job occupies whole microseconds
/// (`⌈981/10⌉ + ⌈5/10⌉ = 100 µs > 99 µs`). `Feasible` therefore cannot
/// be granted from the continuous model alone.
#[test]
fn indeterminate_gap_is_real_in_the_engine() {
    let tasks = vec![
        CaseTask {
            window_us: 99,
            arrivals: 1,
            cycles: 981,
            step: true,
            umax: 10.0,
            rho: 0.5,
        },
        CaseTask {
            window_us: 99,
            arrivals: 1,
            cycles: 5,
            step: true,
            umax: 1.0,
            rho: 0.5,
        },
    ];
    let spec = scenario_from(&tasks, &[10]);
    let ir = lower(&spec).expect("lowers");
    let verdicts = frequency_verdicts(&ir);
    assert_eq!(verdicts[0].verdict, Verdict::Indeterminate, "{verdicts:?}");

    let (task_set, patterns) = simulator_workload(&spec);
    let (assured, observable, _) = simulate_fixed(&task_set, &patterns, 10, 99 * 40);
    assert!(observable > 0);
    assert!(
        assured < observable,
        "the continuous model said this fits, and the engine agreed \
         ({assured}/{observable} assured) — the Indeterminate buffer would be dead code"
    );
}
