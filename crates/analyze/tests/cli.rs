#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! Binary-level tests for the CLI contract added with the semantic
//! engine: the strict 2 > 1 > 0 exit ordering across multiple inputs,
//! SARIF output (`--format sarif`), and machine-applicable
//! fixes (`--fix`, `--apply`).

use std::process::Command;

use eua_analyze::validate_sarif;
use eua_sim::json;

fn scn_path(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eua-analyze"))
}

#[test]
fn parse_failure_outranks_error_diagnostics() {
    // invalid.scn alone exits 1; adding a malformed file must exit 2
    // while still analyzing (and printing) the parseable input.
    let out = bin()
        .args([
            "check",
            &scn_path("invalid.scn"),
            &scn_path("malformed.scn"),
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("kitchen-sink"),
        "parseable input must still be analyzed: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed.scn"), "{stderr}");
}

#[test]
fn error_diagnostics_outrank_clean_inputs() {
    let out = bin()
        .args(["check", &scn_path("valid.scn"), &scn_path("invalid.scn")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn help_documents_the_exit_code_contract() {
    let out = bin().arg("--help").output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["exit status", "sarif", "--fix", "--apply"] {
        assert!(stdout.contains(needle), "help must mention {needle:?}");
    }
}

#[test]
fn sarif_output_round_trips_and_validates() {
    let out = bin()
        .args([
            "check",
            "--format",
            "sarif",
            &scn_path("valid.scn"),
            &scn_path("invalid.scn"),
        ])
        .output()
        .expect("runs");
    // invalid.scn has error diagnostics, so exit 1 — but the SARIF
    // self-check must have passed (a failure would exit 2).
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let doc = json::parse(&stdout).expect("sarif parses as json");
    assert_eq!(doc.render(), stdout, "byte-exact round-trip");
    validate_sarif(&stdout).expect("pinned subset");
    assert!(stdout.contains("\"uri\": "), "physical locations present");
}

#[test]
fn the_check_flag_is_unknown() {
    let out = bin()
        .args([
            "check",
            "--format",
            "sarif",
            "--check",
            &scn_path("valid.scn"),
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--check`"));
}

#[test]
fn fix_dry_run_prints_a_repaired_scenario_without_touching_the_file() {
    let before = std::fs::read_to_string(scn_path("fixable.scn")).expect("readable");
    let out = bin()
        .args(["check", "--fix", &scn_path("fixable.scn")])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = std::fs::read_to_string(scn_path("fixable.scn")).expect("readable");
    assert_eq!(before, after, "dry run must not rewrite the file");

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frequencies 25 50 100"), "{stdout}");
    assert!(stdout.contains("assurance 1.0 0.96"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for code in [
        "freq-table-invalid",
        "assurance-nu-range",
        "assurance-rho-range",
        "tuf-unordered-breakpoints",
        "uam-arrival-bound",
        "sem-chebyshev-allocation-mismatch",
    ] {
        assert!(stderr.contains(code), "summary must name {code}: {stderr}");
    }
}

#[test]
fn fix_apply_rewrites_the_file_to_a_clean_fixed_point() {
    // Work on a copy under the test temp dir; never touch the fixture.
    let tmp = format!("{}/fixable-copy.scn", env!("CARGO_TARGET_TMPDIR"));
    std::fs::copy(scn_path("fixable.scn"), &tmp).expect("copy fixture");

    let out = bin()
        .args(["check", "--fix", "--apply", &tmp])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The rewritten file parses and re-analyzes clean of errors…
    let check = bin().args(["check", &tmp]).output().expect("runs");
    assert_eq!(
        check.status.code(),
        Some(0),
        "fixed file must be clean: {}",
        String::from_utf8_lossy(&check.stdout)
    );

    // …and a second --fix pass is a no-op (idempotent fixed point).
    let again = bin().args(["check", "--fix", &tmp]).output().expect("runs");
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("nothing to fix"), "{stderr}");
}

#[test]
fn fix_rejects_all_examples_and_bare_apply() {
    let out = bin()
        .args(["check", "--fix", "--all-examples"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["check", "--apply", &scn_path("valid.scn")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
