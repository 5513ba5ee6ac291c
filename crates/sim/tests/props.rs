#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Property-based tests of simulator invariants: whatever the workload,
//! the engine conserves time, never over-accrues utility, keeps the
//! uniprocessor serial, and is deterministic per seed.

use eua_platform::{EnergySetting, TimeDelta};
use eua_sim::policy::MaxSpeedEdf;
use eua_sim::{ledger_busy_time, Engine, Platform, SimConfig, Task, TaskSet};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct TaskParams {
    window_us: u64,
    a: u32,
    mean_cycles: f64,
    umax: f64,
    step: bool,
    nu_step: bool,
    rho: f64,
}

fn arb_task_params() -> impl Strategy<Value = TaskParams> {
    (
        1_000u64..200_000,
        1u32..4,
        1_000.0f64..2_000_000.0,
        1.0f64..100.0,
        any::<bool>(),
        any::<bool>(),
        0.0f64..0.99,
    )
        .prop_map(
            |(window_us, a, mean_cycles, umax, step, nu_step, rho)| TaskParams {
                window_us,
                a,
                mean_cycles,
                umax,
                step,
                nu_step,
                rho,
            },
        )
}

fn build(params: &[TaskParams]) -> (TaskSet, Vec<ArrivalPattern>) {
    let mut tasks = Vec::new();
    let mut patterns = Vec::new();
    for (i, p) in params.iter().enumerate() {
        let window = TimeDelta::from_micros(p.window_us);
        let tuf = if p.step {
            Tuf::step(p.umax, window).expect("valid")
        } else {
            Tuf::linear(p.umax, window).expect("valid")
        };
        let nu = if p.step {
            if p.nu_step {
                1.0
            } else {
                0.0
            }
        } else {
            0.3
        };
        let spec = UamSpec::new(p.a, window).expect("valid");
        let task = Task::new(
            format!("t{i}"),
            tuf,
            spec,
            DemandModel::normal(p.mean_cycles, p.mean_cycles).expect("valid"),
            Assurance::new(nu, p.rho).expect("valid"),
        );
        // ν = 0 on a step TUF has D = X which is fine; skip tasks whose
        // derivation legitimately fails (e.g. ν = 1 would need D > 0 — it
        // always holds for steps, so this is defensive).
        let Ok(task) = task else { continue };
        tasks.push(task);
        patterns.push(ArrivalPattern::random_burst(spec).expect("valid"));
    }
    if tasks.is_empty() {
        let window = TimeDelta::from_millis(10);
        let spec = UamSpec::periodic(window).expect("valid");
        tasks.push(
            Task::new(
                "fallback",
                Tuf::step(1.0, window).expect("valid"),
                spec,
                DemandModel::deterministic(1_000.0).expect("valid"),
                Assurance::new(1.0, 0.5).expect("valid"),
            )
            .expect("valid"),
        );
        patterns.push(ArrivalPattern::periodic(window).expect("valid"));
    }
    (TaskSet::new(tasks).expect("non-empty"), patterns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_invariants_hold_for_random_workloads(
        params in proptest::collection::vec(arb_task_params(), 1..6),
        seed in 0u64..10_000,
    ) {
        let (tasks, patterns) = build(&params);
        let platform = Platform::powernow(EnergySetting::e1());
        let horizon = TimeDelta::from_millis(500);
        let config = SimConfig::new(horizon).with_certificate();
        let out = Engine::run(&tasks, &patterns, &platform, &mut MaxSpeedEdf::new(), &config, seed)
            .expect("engine must not fail on valid input");
        let m = &out.metrics;

        // Time conservation.
        prop_assert!(m.busy_time <= horizon);
        // Utility can never exceed the ceiling.
        prop_assert!(m.total_utility <= m.max_possible_utility + 1e-6);
        // Energy is non-negative and zero iff no work ran.
        prop_assert!(m.energy >= 0.0);
        prop_assert_eq!(m.energy == 0.0, m.busy_time.is_zero());
        // Job conservation: every certified arrival became a job.
        let cert = out.certificate.as_ref().expect("certificate enabled");
        prop_assert_eq!(cert.arrivals.len() as u64, m.jobs_arrived());
        // The uniprocessor never overlaps executions: the charge ledger
        // is serial, and its non-idle intervals are the busy time.
        prop_assert_eq!(ledger_busy_time(cert), Some(m.busy_time));
        // Per-task accounting is consistent.
        for tm in &m.per_task {
            prop_assert!(tm.completed + tm.aborted_by_termination + tm.aborted_by_policy <= tm.arrived);
            prop_assert!(tm.assured <= tm.observable);
            prop_assert!(tm.utility <= tm.max_utility + 1e-6);
        }
    }

    #[test]
    fn engine_is_deterministic(
        params in proptest::collection::vec(arb_task_params(), 1..4),
        seed in 0u64..10_000,
    ) {
        let (tasks, patterns) = build(&params);
        let platform = Platform::powernow(EnergySetting::e2());
        let config = SimConfig::new(TimeDelta::from_millis(200));
        let a = Engine::run(&tasks, &patterns, &platform, &mut MaxSpeedEdf::new(), &config, seed)
            .expect("run");
        let b = Engine::run(&tasks, &patterns, &platform, &mut MaxSpeedEdf::new(), &config, seed)
            .expect("run");
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Certificates record neither completion instants nor sampled
    /// demands, so the per-job checks are the engine's runtime invariant
    /// (`InvariantChecker::completion`, on in every debug build): a job
    /// completing after its termination, or after executing other than
    /// exactly its sampled (normal) demand, panics inside `Engine::run`,
    /// failing this property.
    /// Burst patterns release at window starts, where every step or
    /// linear termination lands, so an arrival would stop an overrunning
    /// job even if the termination did not; Poisson arrivals fall between
    /// terminations.
    #[test]
    fn completed_jobs_always_beat_their_termination(
        params in proptest::collection::vec(arb_task_params(), 1..4),
        seed in 0u64..10_000,
    ) {
        let (tasks, _) = build(&params);
        let patterns: Vec<ArrivalPattern> = tasks
            .iter()
            .map(|(_, t)| ArrivalPattern::constrained_poisson(*t.uam(), 1.0).expect("valid"))
            .collect();
        let platform = Platform::powernow(EnergySetting::e1());
        let config = SimConfig::new(TimeDelta::from_millis(300));
        let out = Engine::run(&tasks, &patterns, &platform, &mut MaxSpeedEdf::new(), &config, seed)
            .expect("run");
        for tm in &out.metrics.per_task {
            prop_assert!(tm.utility >= 0.0);
            prop_assert!(tm.critical_met <= tm.completed);
        }
    }
}
