#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Cross-crate integration: workload synthesis → simulation → metrics for
//! every registered policy, plus small-scale versions of the headline
//! Figure 2 shape claims.

use eua::core::make_policy;
use eua::platform::{EnergySetting, TimeDelta};
use eua::sim::{Engine, Metrics, Platform, SimConfig};
use eua::workload::{fig2_workload, fig3_workload};

fn run(policy: &str, load: f64, setting: EnergySetting, seed: u64) -> Metrics {
    let platform = Platform::powernow(setting);
    let w = fig2_workload(load, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(5));
    let mut p = make_policy(policy).expect("known policy");
    Engine::run(&w.tasks, &w.patterns, &platform, &mut p, &config, seed)
        .expect("simulation")
        .metrics
}

#[test]
fn every_policy_runs_the_paper_workload() {
    let platform = Platform::powernow(EnergySetting::e1());
    let w = fig2_workload(0.6, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(3));
    for name in eua::core::available_policies() {
        let mut p = make_policy(name).expect("registry");
        let m = Engine::run(&w.tasks, &w.patterns, &platform, &mut p, &config, 1)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .metrics;
        assert!(m.jobs_arrived() > 0, "{name}: no arrivals");
        assert!(m.total_utility > 0.0, "{name}: no utility accrued");
        assert!(m.energy > 0.0, "{name}: no energy accounted");
    }
}

#[test]
fn dvs_saves_energy_at_low_load() {
    // Figure 2(b): at load 0.2, EUA* uses a small fraction of the
    // always-f_m baseline's energy under the CPU-only model.
    let eua = run("eua", 0.2, EnergySetting::e1(), 5);
    let edf = run("edf", 0.2, EnergySetting::e1(), 5);
    assert!(
        eua.energy < 0.35 * edf.energy,
        "expected a large saving: {} vs {}",
        eua.energy,
        edf.energy
    );
}

#[test]
fn all_schemes_tie_on_utility_underload() {
    // Figure 2(a): during under-loads all schemes accrue the same
    // (optimal) utility.
    let base = run("edf", 0.6, EnergySetting::e1(), 5);
    for name in ["eua", "ccedf", "laedf", "edf-na"] {
        let m = run(name, 0.6, EnergySetting::e1(), 5);
        let ratio = m.total_utility / base.total_utility;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "{name}: utility ratio {ratio} strays from 1 under-load"
        );
    }
}

#[test]
fn energy_converges_to_baseline_during_overload() {
    // Figure 2(b)/(d): during overloads, abort-capable schemes all run at
    // f_m, so normalized energy converges to 1.
    let base = run("edf", 1.6, EnergySetting::e1(), 5);
    for name in ["eua", "ccedf", "laedf"] {
        let m = run(name, 1.6, EnergySetting::e1(), 5);
        let ratio = m.energy / base.energy;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "{name}: normalized energy {ratio} did not converge during overload"
        );
    }
}

#[test]
fn non_aborting_edf_collapses_during_overload() {
    // Figure 2(a)/(c): the domino effect.
    let edf = run("edf", 1.8, EnergySetting::e1(), 5);
    let na = run("edf-na", 1.8, EnergySetting::e1(), 5);
    assert!(
        na.total_utility < 0.75 * edf.total_utility,
        "edf-na should collapse: {} vs {}",
        na.total_utility,
        edf.total_utility
    );
}

#[test]
fn eua_beats_deadline_schedulers_during_overload() {
    // Figure 2(a)/(c): EUA* accrues more utility than the deadline-based
    // schemes once the system is overloaded.
    for load in [1.4, 1.8] {
        let eua = run("eua", load, EnergySetting::e1(), 5);
        let edf = run("edf", load, EnergySetting::e1(), 5);
        assert!(
            eua.total_utility >= edf.total_utility,
            "load {load}: eua {} < edf {}",
            eua.total_utility,
            edf.total_utility
        );
    }
}

#[test]
fn uer_clamp_helps_under_static_heavy_energy_model() {
    // Figure 2(d) mechanism: under E3 the clamp avoids below-knee
    // frequencies.
    let clamped = run("eua", 0.3, EnergySetting::e3(), 5);
    let unclamped = run("eua-noclamp", 0.3, EnergySetting::e3(), 5);
    assert!(
        clamped.energy <= unclamped.energy * 1.001,
        "clamp must not cost energy under E3: {} vs {}",
        clamped.energy,
        unclamped.energy
    );
}

#[test]
fn fig3_energy_rises_with_arrival_bound_underload() {
    // Figure 3: same load, larger a ⇒ more energy (worse slack
    // prediction). Averaged over seeds to tame Poisson noise.
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(TimeDelta::from_secs(5));
    let mut normalized = Vec::new();
    for a in [1u32, 3] {
        let w = fig3_workload(0.6, a, 42, platform.f_max()).expect("workload");
        let mut ratio_sum = 0.0;
        for seed in [1, 2, 3] {
            let mut dvs = make_policy("eua").expect("known");
            let mut nodvs = make_policy("eua-nodvs").expect("known");
            let e_dvs = Engine::run(&w.tasks, &w.patterns, &platform, &mut dvs, &config, seed)
                .expect("run")
                .metrics
                .energy;
            let e_nodvs = Engine::run(&w.tasks, &w.patterns, &platform, &mut nodvs, &config, seed)
                .expect("run")
                .metrics
                .energy;
            ratio_sum += e_dvs / e_nodvs;
        }
        normalized.push(ratio_sum / 3.0);
    }
    assert!(
        normalized[1] > normalized[0],
        "a=3 should cost more energy than a=1 at equal load: {normalized:?}"
    );
}

#[cfg(debug_assertions)]
#[test]
fn invariant_checks_are_compiled_in_and_survive_a_full_sweep() {
    // In debug builds every `run()` above already threads each engine
    // transition through the invariant checker; this test makes the
    // wiring explicit and sweeps the checker across an overload, where
    // aborts and clock churn are most frequent.
    for load in [0.3, 1.2] {
        for name in eua::core::available_policies() {
            let m = run(name, load, EnergySetting::e3(), 11);
            assert!(m.energy >= 0.0, "{name}: negative energy at load {load}");
        }
    }
}
