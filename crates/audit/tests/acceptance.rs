#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Acceptance gates for the certificate auditor: every shipped example
//! audits clean under EUA\* and under an explanation-less policy pinned
//! to each table frequency; real certificates round-trip through their
//! text by value and by bytes; certificates are byte-identical across
//! worker counts.

mod common;

use common::{bridge, run_certified, run_certified_with_faults, FixedFreq};
use eua_analyze::shipped_scenarios;
use eua_audit::audit;
use eua_core::{make_policy, Eua};
use eua_platform::TimeDelta;
use eua_sim::{map_parallel, FaultPlan, RunCertificate};

/// Tentpole acceptance: `eua-audit` must pass certificates from every
/// shipped example under the real EUA\* policy (full Algorithm 1/2
/// explanations audited, including `aud-schedule-order`, which re-derives
/// each certified schedule with the auditor's own greedy).
#[test]
fn shipped_examples_audit_clean_under_eua() {
    for spec in shipped_scenarios().expect("registry builds") {
        let (tasks, patterns, platform) = bridge(&spec);
        for seed in [11, 42] {
            let cert = run_certified(&tasks, &patterns, &platform, &mut Eua::new(), seed);
            let report = audit(&cert);
            assert!(
                !report.has_errors(),
                "`{}` (seed {seed}) failed its audit:\n{}",
                spec.name,
                report.render_text()
            );
        }
    }
}

/// Acceptance: certificates from every shipped example at every table
/// frequency audit clean (the policy carries no explanation, so this
/// exercises the engine-level checks and the full energy recompute at
/// each operating point).
#[test]
fn every_table_frequency_audits_clean() {
    for spec in shipped_scenarios().expect("registry builds") {
        let (tasks, patterns, platform) = bridge(&spec);
        let freqs: Vec<_> = platform.table().iter().collect();
        for freq in freqs {
            let cert = run_certified(&tasks, &patterns, &platform, &mut FixedFreq(freq), 7);
            let report = audit(&cert);
            assert!(
                !report.has_errors(),
                "`{}` at {} MHz failed its audit:\n{}",
                spec.name,
                freq.as_mhz(),
                report.render_text()
            );
        }
    }
}

/// Certificates round-trip through the rendered text on real engine
/// output, by value (`parse(render(c)) == c`, so every event's recorded
/// ready-set change is read back) and by bytes (`render(parse(s)) == s`).
/// The grid is every shipped example under four policies, with and
/// without a compound fault plan that moves arrivals, demands and abort
/// costs, at three seeds.
#[test]
fn real_certificates_round_trip_byte_identically() {
    let mut compound = FaultPlan::none();
    compound.uam.extra_per_window = 1;
    compound.uam.every_n_windows = 2;
    compound.demand.mean_factor = 1.5;
    compound.demand.spread = 0.3;
    compound.timing.abort_cost = TimeDelta::from_micros(200);
    compound.timing.arrival_jitter = TimeDelta::from_micros(1_500);
    let none = FaultPlan::none();
    let specs = shipped_scenarios().expect("registry builds");
    let (mut certificates, mut events) = (0, 0);
    for spec in &specs {
        let (tasks, patterns, platform) = bridge(spec);
        for name in ["eua", "dasa", "edf", "llf"] {
            for (faulted, plan) in [(false, &none), (true, &compound)] {
                for seed in [3, 11, 42] {
                    let mut policy = make_policy(name).expect("registered policy");
                    let cert = run_certified_with_faults(
                        &tasks,
                        &patterns,
                        &platform,
                        policy.as_mut(),
                        seed,
                        plan,
                    );
                    let text = cert.render();
                    let back = RunCertificate::parse(&text).expect("rendered certificate parses");
                    let scenario = &spec.name;
                    assert!(
                        back == cert,
                        "`{scenario}` {name} seed {seed} faulted {faulted}: parse(render(c)) != c"
                    );
                    assert!(
                        back.render() == text,
                        "`{scenario}` {name} seed {seed} faulted {faulted}: render(parse(s)) != s"
                    );
                    certificates += 1;
                    events += cert.events.len();
                }
            }
        }
    }
    assert_eq!(certificates, specs.len() * 24);
    assert!(
        specs.len() >= 11 && events > 10 * certificates,
        "{events} events in {certificates} certificates"
    );
}

/// Satellite (d): certificates must not depend on worker count — a
/// parallel sweep over seeds with `--jobs 4` yields the same bytes as
/// the sequential sweep.
#[test]
fn certificates_are_identical_across_jobs() {
    let spec = &shipped_scenarios().expect("registry builds")[0];
    let (tasks, patterns, platform) = bridge(spec);
    let seeds: Vec<u64> = (1..=6).collect();
    let render = |jobs: usize| -> Vec<String> {
        map_parallel(
            jobs,
            seeds.clone(),
            |i, _| format!("item {i}"),
            |_, seed| run_certified(&tasks, &patterns, &platform, &mut Eua::new(), seed).render(),
        )
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("no run panics")
    };
    assert_eq!(render(1), render(4));
}
