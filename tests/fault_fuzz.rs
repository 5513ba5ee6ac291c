#![allow(clippy::expect_used, clippy::unwrap_used)] // test code: panicking on bad setup is the point

//! No-panic fuzz suite for the fault-injection layer: however
//! adversarial the [`FaultPlan`] — huge demand factors, `u64`-boundary
//! switch latencies, jitter far beyond the declared windows, plans the
//! validator must reject — the engine returns `Ok` or a typed
//! [`SimError`], never panics, and stays deterministic per seed.
//!
//! The case count defaults to 48 and can be overridden through the
//! `EUA_FUZZ_CASES` environment variable. Debug builds run the suite
//! with the engine's invariant checks compiled in.

use eua::core::make_policy;
use eua::platform::TimeDelta;
use eua::sim::{Engine, FaultPlan, Platform, SimConfig, Task, TaskSet};
use eua::tuf::Tuf;
use eua::uam::demand::DemandModel;
use eua::uam::generator::ArrivalPattern;
use eua::uam::{Assurance, UamSpec};
use proptest::prelude::*;

fn fuzz_cases() -> u32 {
    std::env::var("EUA_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// A small two-task workload: one step TUF, one linear, 10 ms windows.
fn workload() -> (TaskSet, Vec<ArrivalPattern>) {
    let p = ms(10);
    let a = Task::new(
        "step",
        Tuf::step(10.0, p).unwrap(),
        UamSpec::new(2, p).unwrap(),
        DemandModel::normal(120_000.0, 60_000.0).unwrap(),
        Assurance::new(1.0, 0.9).unwrap(),
    )
    .unwrap();
    let b = Task::new(
        "linear",
        Tuf::linear(8.0, p).unwrap(),
        UamSpec::periodic(p).unwrap(),
        DemandModel::deterministic(90_000.0).unwrap(),
        Assurance::new(0.5, 0.8).unwrap(),
    )
    .unwrap();
    let tasks = TaskSet::new(vec![a, b]).unwrap();
    let patterns = vec![
        ArrivalPattern::window_burst(UamSpec::new(2, p).unwrap()).unwrap(),
        ArrivalPattern::periodic(p).unwrap(),
    ];
    (tasks, patterns)
}

/// Every fault knob an adversarial case may turn, including values the
/// validator must reject (negative factors, empty degraded sets) and
/// values legal-but-extreme (u64-boundary latency, jitter ≫ window).
#[derive(Debug, Clone)]
struct PlanParams {
    extra: u32,
    stride: u32,
    mean_factor: f64,
    spread: f64,
    latency: u64,
    stuck_us: Option<u64>,
    degraded: Option<Vec<u64>>,
    abort_us: u64,
    jitter_us: u64,
}

fn arb_plan() -> impl Strategy<Value = PlanParams> {
    let latency = prop_oneof![
        Just(0u64),
        1u64..50_000,
        Just(u64::MAX), // boundary: must saturate, not overflow
    ];
    let degraded = prop_oneof![
        Just(None),
        Just(Some(vec![])),    // validator must reject
        Just(Some(vec![999])), // disjoint from the table: reject
        Just(Some(vec![36])),  // slowest only
        Just(Some(vec![36, 64, 100])),
    ];
    (
        (0u32..6, 0u32..4),
        (-2.0f64..30.0, -1.0f64..10.0),
        latency,
        prop_oneof![Just(None), (0u64..100_000).prop_map(Some)],
        degraded,
        (0u64..50_000, 0u64..200_000), // abort cost / jitter up to 20 windows
    )
        .prop_map(
            |(
                (extra, stride),
                (mean_factor, spread),
                latency,
                stuck_us,
                degraded,
                (abort_us, jitter_us),
            )| {
                PlanParams {
                    extra,
                    stride,
                    mean_factor,
                    spread,
                    latency,
                    stuck_us,
                    degraded,
                    abort_us,
                    jitter_us,
                }
            },
        )
}

fn plan_from(params: &PlanParams) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.uam.extra_per_window = params.extra;
    plan.uam.every_n_windows = params.stride;
    plan.demand.mean_factor = params.mean_factor;
    plan.demand.spread = params.spread;
    plan.dvs.switch_latency_cycles = params.latency;
    plan.dvs.stuck_after = params.stuck_us.map(TimeDelta::from_micros);
    plan.dvs.degraded_mhz = params.degraded.clone();
    plan.timing.abort_cost = TimeDelta::from_micros(params.abort_us);
    plan.timing.arrival_jitter = TimeDelta::from_micros(params.jitter_us);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn adversarial_plans_never_panic_and_stay_deterministic(
        params in arb_plan(),
        seed in 0u64..1_000,
        policy_pick in 0usize..3,
    ) {
        let (tasks, patterns) = workload();
        let platform = Platform::powernow(eua::platform::EnergySetting::e1());
        let config = SimConfig::new(ms(100));
        let plan = plan_from(&params);
        let name = ["eua", "dasa", "edf"][policy_pick];

        let mut policy = make_policy(name).expect("registry policy");
        let first = Engine::run_with_faults(
            &tasks, &patterns, &platform, &mut policy, &config, seed, &plan,
        );
        // Invalid plans must surface as the typed error, not a panic.
        if plan.validate().is_err() {
            prop_assert!(first.is_err(), "invalid plan must be rejected: {params:?}");
        }
        match first {
            Err(_) => {} // typed error: acceptable for adversarial input
            Ok(outcome) => {
                let mut policy = make_policy(name).expect("registry policy");
                let again = Engine::run_with_faults(
                    &tasks, &patterns, &platform, &mut policy, &config, seed, &plan,
                )
                .expect("a plan that ran once must run again");
                prop_assert_eq!(
                    &again.metrics, &outcome.metrics,
                    "faulted runs must be deterministic per seed"
                );
            }
        }
    }
}

#[test]
fn all_jobs_abort_plan_runs_clean() {
    // Demand ×1000 turns every job into an allocation overrun that runs
    // to its termination time; with a per-abort cost on top, the engine
    // must still terminate cleanly and account every job.
    let (tasks, patterns) = workload();
    let platform = Platform::powernow(eua::platform::EnergySetting::e1());
    let config = SimConfig::new(ms(200));
    let mut plan = FaultPlan::none();
    plan.demand.mean_factor = 1000.0;
    plan.timing.abort_cost = TimeDelta::from_micros(300);
    let mut policy = make_policy("eua").unwrap();
    let out = Engine::run_with_faults(&tasks, &patterns, &platform, &mut policy, &config, 7, &plan)
        .expect("all-abort run must stay clean");
    assert!(
        out.metrics.jobs_aborted() > 0,
        "demand x1000 must abort jobs"
    );
    assert_eq!(
        out.metrics.jobs_arrived(),
        out.metrics.jobs_completed() + out.metrics.jobs_aborted(),
        "every arrived job must be accounted for"
    );
}

#[test]
fn u64_boundary_switch_latency_saturates() {
    // A relock latency of u64::MAX cycles must saturate the clock (run
    // ends at the horizon) rather than overflow anywhere.
    let (tasks, patterns) = workload();
    let platform = Platform::powernow(eua::platform::EnergySetting::e1());
    let config = SimConfig::new(ms(100));
    let mut plan = FaultPlan::none();
    plan.dvs.switch_latency_cycles = u64::MAX;
    let mut policy = make_policy("eua").unwrap();
    let out = Engine::run_with_faults(&tasks, &patterns, &platform, &mut policy, &config, 3, &plan)
        .expect("boundary latency must not panic");
    assert!(out.metrics.jobs_arrived() > 0);
}

#[test]
fn zero_intensity_plans_are_bit_identical_across_policies() {
    // Regression pin for the whole layer: an all-zero FaultPlan must
    // leave every policy's run bit-identical to the unfaulted engine.
    let (tasks, patterns) = workload();
    let platform = Platform::powernow(eua::platform::EnergySetting::e1());
    let config = SimConfig::new(ms(500));
    for name in ["eua", "dasa", "edf"] {
        let mut policy = make_policy(name).expect("registry policy");
        let plain = Engine::run(&tasks, &patterns, &platform, &mut policy, &config, 42)
            .expect("unfaulted run");
        let mut policy = make_policy(name).expect("registry policy");
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform,
            &mut policy,
            &config,
            42,
            &FaultPlan::none(),
        )
        .expect("zero-fault run");
        assert_eq!(plain, faulted, "policy {name}: zero faults must be free");
    }
}
