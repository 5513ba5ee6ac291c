#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Acceptance gates for the certificate auditor: every shipped example
//! audits clean under EUA\* and under an explanation-less policy pinned
//! to each table frequency; certificates are byte-identical across
//! worker counts.

mod common;

use common::{bridge, run_certified, FixedFreq};
use eua_analyze::shipped_scenarios;
use eua_audit::audit;
use eua_core::Eua;
use eua_sim::map_parallel;

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

/// Certificates round-trip byte-identically through the first-party
/// JSON module on real engine output, not just hand-built fixtures.
#[test]
fn real_certificates_round_trip_byte_identically() {
    let spec = &shipped_scenarios().expect("registry builds")[0];
    let (tasks, patterns, platform) = bridge(spec);
    let cert = run_certified(&tasks, &patterns, &platform, &mut Eua::new(), 3);
    let text = cert.render();
    let reparsed = eua_sim::RunCertificate::parse(&text).expect("round-trips");
    assert_eq!(reparsed.render(), text);
}

/// Satellite (d): certificates must not depend on worker count — a
/// parallel sweep over seeds with `--jobs 4` yields the same bytes as
/// the sequential sweep.
#[test]
fn certificates_are_identical_across_jobs() {
    let spec = &shipped_scenarios().expect("registry builds")[0];
    let (tasks, patterns, platform) = bridge(spec);
    let seeds: Vec<u64> = (1..=6).collect();
    let render = |_worker: usize, seed: u64| {
        run_certified(&tasks, &patterns, &platform, &mut Eua::new(), seed).render()
    };
    let sequential = map_parallel(1, seeds.clone(), render).expect("pool runs");
    let parallel = map_parallel(4, seeds, render).expect("pool runs");
    assert_eq!(sequential, parallel);
}
