#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Integration checks of the paper's §4 timeliness properties
//! (Theorems 2–6) under the stated conditions: periodic arrivals, no CPU
//! overload.

use eua::core::{EdfPolicy, Eua};
use eua::platform::{EnergySetting, TimeDelta};
use eua::sim::{dispatch_sequence, Engine, Outcome, Platform, SchedulerPolicy, SimConfig};
use eua::workload::{fig3_workload, theorem_workload, Workload};

fn run(w: &Workload, policy: &mut dyn SchedulerPolicy, seed: u64) -> Outcome {
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(TimeDelta::from_secs(8)).with_certificate();
    Engine::run(&w.tasks, &w.patterns, &platform, policy, &config, seed).expect("simulation")
}

#[test]
fn theorem2_eua_matches_edf_schedule_at_fmax() {
    for load in [0.25, 0.55, 0.85] {
        let w =
            theorem_workload(load, 42, eua::platform::Frequency::from_mhz(100)).expect("workload");
        let edf = run(&w, &mut EdfPolicy::max_speed(), 3);
        let eua = run(&w, &mut Eua::without_dvs(), 3);
        assert_eq!(
            dispatch_sequence(edf.certificate.as_ref().unwrap()),
            dispatch_sequence(eua.certificate.as_ref().unwrap()),
            "load {load}: schedules diverge"
        );
        assert!(
            (edf.metrics.total_utility - eua.metrics.total_utility).abs() < 1e-6,
            "load {load}: utilities diverge"
        );
    }
}

#[test]
fn corollary3_eua_meets_all_critical_times_underload() {
    for load in [0.25, 0.55, 0.85] {
        let w =
            theorem_workload(load, 42, eua::platform::Frequency::from_mhz(100)).expect("workload");
        let out = run(&w, &mut Eua::new(), 3);
        for (i, tm) in out.metrics.per_task.iter().enumerate() {
            assert_eq!(
                tm.completed, tm.critical_met,
                "load {load}, task {i}: missed critical times"
            );
            assert_eq!(
                tm.aborted_by_policy + tm.aborted_by_termination,
                0,
                "load {load}, task {i}: aborted jobs under-load"
            );
        }
    }
}

#[test]
fn corollary4_eua_matches_edf_max_lateness() {
    let w = theorem_workload(0.7, 42, eua::platform::Frequency::from_mhz(100)).expect("workload");
    let edf = run(&w, &mut EdfPolicy::max_speed(), 3);
    let eua = run(&w, &mut Eua::without_dvs(), 3);
    assert_eq!(eua.metrics.max_lateness_us(), edf.metrics.max_lateness_us());
}

#[test]
fn theorem5_statistical_requirements_hold_underload() {
    for seed in [3, 17, 91] {
        let w =
            theorem_workload(0.8, 42, eua::platform::Frequency::from_mhz(100)).expect("workload");
        let out = run(&w, &mut Eua::new(), seed);
        assert!(
            out.metrics.meets_assurances(&w.tasks),
            "seed {seed}: nu-rho assurances violated under-load",
        );
    }
}

#[test]
fn theorem6_nonstep_tufs_meet_statistical_requirements() {
    // Linear TUFs, periodic arrivals, load < 1 — the BRH condition holds
    // for the scaled set, so the statistical requirements must be met.
    let w = fig3_workload(0.6, 1, 42, eua::platform::Frequency::from_mhz(100)).expect("workload");
    let out = run(&w, &mut Eua::new(), 3);
    assert!(out.metrics.meets_assurances(&w.tasks));
    // The miss rate is bounded by 1 − ρ = 0.1.
    let misses: u64 = out
        .metrics
        .per_task
        .iter()
        .map(|t| t.completed - t.critical_met + t.aborted_by_termination + t.aborted_by_policy)
        .sum();
    let arrived = out.metrics.jobs_arrived().max(1);
    assert!(
        (misses as f64) / (arrived as f64) <= 0.1,
        "{misses}/{arrived} critical-time misses"
    );
}
