//! Failure-injection and behavioural-fingerprint tests: heavy-tailed
//! demand overruns, UAM-bound bursts, degenerate frequency tables, and
//! the EDF-order audit distinguishing deadline from utility-accrual
//! scheduling.

use eua::core::{EdfPolicy, Eua};
use eua::platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua::sim::{edf_violations, ledger_busy_time, Engine, Platform, SimConfig, Task, TaskSet};
use eua::tuf::Tuf;
use eua::uam::demand::DemandModel;
use eua::uam::generator::ArrivalPattern;
use eua::uam::{Assurance, UamSpec};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

#[test]
fn cantelli_assurance_survives_heavy_tailed_demands() {
    // The Chebyshev/Cantelli allocation is distribution-free: even with
    // Pareto demands (10%+ allocation overruns), an under-loaded EUA* run
    // must still deliver the {ν, ρ} assurance.
    let p = ms(20);
    let task = Task::new(
        "heavy",
        Tuf::step(10.0, p).unwrap(),
        UamSpec::periodic(p).unwrap(),
        DemandModel::pareto(150_000.0, 2.5).unwrap(),
        Assurance::new(1.0, 0.9).unwrap(),
    )
    .unwrap();
    let tasks = TaskSet::new(vec![task]).unwrap();
    let patterns = vec![ArrivalPattern::periodic(p).unwrap()];
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(TimeDelta::from_secs(20));
    let out = Engine::run(&tasks, &patterns, &platform, &mut Eua::new(), &config, 11).expect("run");
    let tm = &out.metrics.per_task[0];
    let rate = tm.assurance_rate().expect("observable jobs");
    assert!(rate >= 0.9, "assurance {rate} below rho despite under-load");
    // But the heavy tail must actually have bitten somewhere: some jobs
    // should overrun the allocation (visible as executed > allocation
    // not being trackable here, so check that not *every* job was
    // assured — tail events exist at this alpha — or all completed).
    assert!(
        tm.completed > 900,
        "expected ~1000 jobs, got {}",
        tm.completed
    );
}

#[test]
fn degenerate_single_frequency_platform_works() {
    // A platform with one frequency reduces every DVS policy to fixed
    // speed; everything must still run and agree on utility.
    let platform = Platform::new(FrequencyTable::fixed(100), EnergySetting::e1());
    let p = ms(10);
    let task = Task::new(
        "t",
        Tuf::step(5.0, p).unwrap(),
        UamSpec::new(2, p).unwrap(),
        DemandModel::normal(150_000.0, 150_000.0).unwrap(),
        Assurance::new(1.0, 0.9).unwrap(),
    )
    .unwrap();
    let tasks = TaskSet::new(vec![task]).unwrap();
    let spec = UamSpec::new(2, p).unwrap();
    let patterns = vec![ArrivalPattern::window_burst(spec).unwrap()];
    let config = SimConfig::new(TimeDelta::from_secs(2));
    let mut results = Vec::new();
    for name in ["eua", "laedf", "ccedf", "edf"] {
        let mut policy = eua::core::make_policy(name).expect("known");
        let m = Engine::run(&tasks, &patterns, &platform, &mut policy, &config, 2)
            .expect("run")
            .metrics;
        results.push((name, m.total_utility, m.energy));
    }
    for w in results.windows(2) {
        assert!(
            (w[0].1 - w[1].1).abs() < 1e-6,
            "utilities diverge on a single-speed platform: {results:?}"
        );
        assert!(
            (w[0].2 - w[1].2).abs() < 1e-6 * w[0].2.abs().max(1.0),
            "energies diverge on a single-speed platform: {results:?}"
        );
    }
}

#[test]
fn eua_inverts_edf_order_only_during_overload() {
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(TimeDelta::from_secs(5)).with_certificate();

    // Under-load: EUA* is critical-time ordered (Theorem 2) — no
    // inversions.
    let under = eua::workload::fig2_workload(0.6, 42, platform.f_max()).expect("workload");
    let out = Engine::run(
        &under.tasks,
        &under.patterns,
        &platform,
        &mut Eua::new(),
        &config,
        5,
    )
    .expect("run");
    let v = edf_violations(out.certificate.as_ref().expect("certificate")).expect("changes apply");
    assert!(
        v.is_empty(),
        "unexpected inversions under-load: {}",
        v.len()
    );

    // Overload: shedding low-UER jobs necessarily leaves earlier-critical
    // jobs live while more valuable later ones run.
    let over = eua::workload::fig2_workload(1.6, 42, platform.f_max()).expect("workload");
    let out = Engine::run(
        &over.tasks,
        &over.patterns,
        &platform,
        &mut Eua::new(),
        &config,
        5,
    )
    .expect("run");
    let v = edf_violations(out.certificate.as_ref().expect("certificate")).expect("changes apply");
    assert!(
        !v.is_empty(),
        "EUA* should invert EDF order during overload"
    );

    // The deadline baseline stays EDF-ordered even overloaded (it only
    // drops infeasible jobs, which the same decision aborts).
    let out = Engine::run(
        &over.tasks,
        &over.patterns,
        &platform,
        &mut EdfPolicy::max_speed(),
        &config,
        5,
    )
    .expect("run");
    let v = edf_violations(out.certificate.as_ref().expect("certificate")).expect("changes apply");
    assert!(v.is_empty(), "EDF produced inversions: {}", v.len());
}

#[test]
fn maximal_uam_bursts_at_every_window_are_survivable() {
    // The strongest legal adversary: a tasks × a jobs all at once, sized
    // to land exactly at load 1.0.
    let p = ms(10);
    let spec = UamSpec::new(5, p).unwrap();
    let task = Task::new(
        "burst",
        Tuf::step(5.0, p).unwrap(),
        spec,
        DemandModel::deterministic(200_000.0).unwrap(), // 5×200k = 1M per 10 ms
        Assurance::new(1.0, 0.5).unwrap(),
    )
    .unwrap();
    let tasks = TaskSet::new(vec![task]).unwrap();
    let patterns = vec![ArrivalPattern::window_burst(spec).unwrap()];
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(TimeDelta::from_secs(2));
    let out = Engine::run(&tasks, &patterns, &platform, &mut Eua::new(), &config, 7).expect("run");
    // Exactly at capacity: every job completes (1M cycles / 10 ms at
    // 100 MHz), none abort.
    assert_eq!(out.metrics.jobs_completed(), out.metrics.jobs_arrived());
    assert_eq!(out.metrics.jobs_aborted(), 0);
}

#[test]
fn overloaded_run_with_progress_accrual_and_idle_power_stays_consistent() {
    // Combine every engine extension at once and check the invariants
    // still hold.
    let platform = Platform::powernow(EnergySetting::e3());
    let w = eua::workload::fig2_workload(1.5, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(5))
        .with_progress_accrual()
        .with_idle_power(500.0)
        .with_context_switch_overhead(TimeDelta::from_micros(20))
        .with_frequency_switch_overhead(TimeDelta::from_micros(50))
        .with_certificate();
    let out = Engine::run(
        &w.tasks,
        &w.patterns,
        &platform,
        &mut Eua::new(),
        &config,
        9,
    )
    .expect("run");
    let m = &out.metrics;
    assert!(m.total_utility > 0.0);
    assert!(m.total_utility <= m.max_possible_utility + 1e-6);
    assert!(m.busy_time <= m.horizon);
    // The charge ledger is serial, and its non-idle (execution and
    // switch) intervals add up to the metered busy time.
    let cert = out.certificate.as_ref().expect("certificate");
    assert_eq!(ledger_busy_time(cert), Some(m.busy_time));
}
