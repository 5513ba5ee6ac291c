#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Property-based tests of the scheduling algorithms: greedy schedule
//! construction invariants, DVS analysis bounds, and policy-decision
//! validity against the engine's contract.

use eua_core::{
    build_schedule, decide_freq, make_policy, schedule_feasible, Candidate, InsertionMode,
};
use eua_platform::{Cycles, EnergySetting, Frequency, SimTime, TimeDelta};
use eua_sim::{
    ledger_busy_time, Engine, JobId, JobView, Platform, SchedContext, SchedEvent, SimConfig, Task,
    TaskId, TaskSet,
};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use proptest::prelude::*;

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec(
        (
            0u64..1_000_000,
            0u64..1_000_000,
            1u64..2_000_000,
            -1.0f64..100.0,
        ),
        0..20,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (crit, extra, remaining, key))| Candidate {
                id: JobId(i as u64),
                critical: SimTime::from_micros(crit),
                termination: SimTime::from_micros(crit + extra),
                remaining: Cycles::new(remaining),
                key,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn built_schedules_are_feasible_and_critical_ordered(
        cands in arb_candidates(),
        now_us in 0u64..100_000,
        skip in any::<bool>(),
    ) {
        let f_m = Frequency::from_mhz(100);
        let now = SimTime::from_micros(now_us);
        let mode = if skip { InsertionMode::SkipInfeasible } else { InsertionMode::BreakOnInfeasible };
        let schedule = build_schedule(now, cands.clone(), f_m, mode);
        // Feasible at f_m from `now`.
        prop_assert!(schedule_feasible(now, &schedule, f_m));
        // Non-decreasing critical times.
        for w in schedule.windows(2) {
            prop_assert!(w[0].critical <= w[1].critical);
        }
        // Only positive keys appear, each at most once.
        let mut seen = std::collections::BTreeSet::new();
        for c in &schedule {
            prop_assert!(c.key > 0.0 || c.key.is_nan());
            prop_assert!(seen.insert(c.id), "duplicate {:?}", c.id);
        }
    }
}

fn small_task_set(n: usize) -> (TaskSet, Vec<ArrivalPattern>) {
    let mut tasks = Vec::new();
    let mut patterns = Vec::new();
    for i in 0..n {
        let window = TimeDelta::from_micros(5_000 + 3_777 * i as u64);
        let spec = UamSpec::new(1 + (i as u32 % 3), window).expect("valid");
        tasks.push(
            Task::new(
                format!("t{i}"),
                Tuf::step(5.0 + i as f64, window).expect("valid"),
                spec,
                DemandModel::normal(50_000.0 + 9_000.0 * i as f64, 50_000.0).expect("valid"),
                Assurance::new(1.0, 0.9).expect("valid"),
            )
            .expect("valid"),
        );
        patterns.push(ArrivalPattern::random_burst(spec).expect("valid"));
    }
    (TaskSet::new(tasks).expect("non-empty"), patterns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decide_freq_speed_is_bounded(
        n in 1usize..6,
        jobs in proptest::collection::vec((0u64..50_000, 1u64..5_000_000), 0..8),
        now_us in 0u64..100_000,
    ) {
        let (tasks, _) = small_task_set(n);
        let platform = Platform::powernow(EnergySetting::e1());
        let views: Vec<JobView> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(arrival, remaining))| {
                let tid = TaskId(i % n);
                let task = tasks.task(tid);
                let arrival = SimTime::from_micros(arrival);
                JobView {
                    id: JobId(i as u64),
                    task: tid,
                    arrival,
                    critical_time: arrival.saturating_add(task.critical_offset()),
                    termination: arrival.saturating_add(task.termination_offset()),
                    remaining: Cycles::new(remaining),
                    executed: Cycles::ZERO,
                }
            })
            .collect();
        let ctx = SchedContext {
            now: SimTime::from_micros(now_us),
            event: SchedEvent::Arrival,
            jobs: &views,
            tasks: &tasks,
            platform: &platform,
            running: None,
            energy_used: 0.0,
        };
        let analysis = decide_freq(&ctx);
        prop_assert!(analysis.required_speed >= 0.0);
        prop_assert!(analysis.required_speed <= platform.f_max().as_f64());
        prop_assert!(analysis.must_run_cycles >= 0.0);
        prop_assert_eq!(analysis.earliest_critical.is_none(), views.is_empty());
    }

    #[test]
    fn every_policy_survives_random_workloads(
        n in 1usize..5,
        seed in 0u64..5_000,
        policy_idx in 0usize..11,
    ) {
        let (tasks, patterns) = small_task_set(n);
        let platform = Platform::powernow(EnergySetting::e2());
        let config = SimConfig::new(TimeDelta::from_millis(200)).with_certificate();
        let names = eua_core::available_policies();
        let name = names[policy_idx % names.len()];
        let mut policy = make_policy(name).expect("registry name");
        let out = Engine::run(&tasks, &patterns, &platform, &mut policy, &config, seed)
            .expect("policy produced an invalid decision");
        // The uniprocessor stays serial: no charge starts before the
        // previous one ends, and the ledger accounts for the busy time.
        let cert = out.certificate.as_ref().expect("certificate");
        prop_assert_eq!(ledger_busy_time(cert), Some(out.metrics.busy_time));
        prop_assert!(out.metrics.total_utility <= out.metrics.max_possible_utility + 1e-6);
    }
}
