#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Integration tests for the analyzer: the acceptance criteria are that
//! purpose-built invalid scenarios surface at least six distinct
//! diagnostic codes, every shipped workload analyzes error-free, the
//! JSON renderer emits valid JSON, and the `eua-analyze` binary's exit
//! codes follow the 0/1/2 contract.

use std::collections::BTreeSet;
use std::process::Command;

use eua_analyze::{analyze, render_json_reports, shipped_scenarios, Report, ScenarioSpec};
use eua_sim::json::{self, Json};

fn scn_path(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn analyze_file(name: &str) -> Report {
    let text = std::fs::read_to_string(scn_path(name)).expect("scenario file readable");
    let spec = ScenarioSpec::parse(&text).expect("scenario file parses");
    analyze(&spec)
}

#[test]
fn invalid_scenario_surfaces_many_distinct_codes() {
    let report = analyze_file("invalid.scn");
    let codes: BTreeSet<&str> = report.codes();
    let expected = [
        "assurance-nu-range",
        "assurance-rho-range",
        "uam-arrival-bound",
        "uam-zero-window",
        "demand-invalid",
        "chebyshev-unbounded",
        "tuf-increasing",
        "tuf-zero-termination",
        "freq-table-invalid",
        "duplicate-task-name",
    ];
    for code in expected {
        assert!(
            codes.contains(code),
            "missing `{code}` in {codes:?}\n{}",
            report.render_text()
        );
    }
    assert!(expected.len() >= 6);
    assert!(report.has_errors());
}

#[test]
fn valid_scenario_file_is_clean() {
    let report = analyze_file("valid.scn");
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn all_shipped_examples_are_error_free() {
    for scenario in shipped_scenarios().expect("registry builds") {
        let report = analyze(&scenario);
        assert!(
            !report.has_errors(),
            "`{}` regressed:\n{}",
            scenario.name,
            report.render_text()
        );
    }
}

#[test]
fn json_output_is_valid_json() {
    let reports: Vec<Report> = vec![analyze_file("invalid.scn"), analyze_file("valid.scn")];
    let json = render_json_reports(&reports);
    let value = json::parse(&json).expect("valid JSON");
    let arr = value.as_arr().expect("an array");
    assert_eq!(arr.len(), 2);
    for report in arr {
        assert!(matches!(report, Json::Obj(_)), "expected object");
        assert!(report.get("scenario").is_some());
        assert!(report.get("diagnostics").and_then(Json::as_arr).is_some());
        assert!(matches!(report.get("summary"), Some(Json::Obj(_))));
    }
}

// ---------------------------------------------------------------------
// Binary-level tests: exit codes and output framing.
// ---------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eua-analyze"))
}

#[test]
fn binary_exits_zero_on_valid_scenario() {
    let out = bin()
        .args(["check", &scn_path("valid.scn")])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("radar-demo"), "{stdout}");
}

#[test]
fn binary_exits_one_on_errors() {
    let out = bin()
        .args(["check", &scn_path("invalid.scn")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[assurance-nu-range]"), "{stdout}");
}

#[test]
fn binary_exits_two_on_missing_file_and_usage() {
    let out = bin()
        .args(["check", "no-such-file.scn"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_all_examples_is_clean_and_json_parses() {
    let out = bin()
        .args(["check", "--all-examples", "--format", "json"])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("valid JSON");
    let reports = value.as_arr().expect("an array");
    assert!(
        reports.len() >= 9,
        "expected every shipped workload, got {}",
        reports.len()
    );
}

#[test]
fn binary_codes_lists_the_contract() {
    let out = bin().arg("codes").output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in [
        "tuf-increasing",
        "chebyshev-unbounded",
        "dominated-frequency",
        "overload",
    ] {
        assert!(stdout.contains(code), "missing {code} in codes listing");
    }
}
