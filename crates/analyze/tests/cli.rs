#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! Binary-level tests for the CLI contract added with the semantic
//! engine: the strict 2 > 1 > 0 exit ordering across multiple inputs,
//! SARIF output (`--format sarif`), and the flags `check` refuses.

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
    for needle in ["exit status", "sarif"] {
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
fn the_rewrite_flags_are_unknown() {
    // The analyzer reports and never rewrites its input.
    for flag in ["--fix", "--apply"] {
        let out = bin()
            .args(["check", flag, &scn_path("valid.scn")])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown flag `{flag}`")),
            "{flag}"
        );
        assert!(out.stdout.is_empty(), "{flag}");
    }
}

#[test]
fn a_repeated_table_or_energy_line_is_a_parse_error() {
    // Two table lines and two energy lines used to merge into one table
    // analyzed under the last energy setting; the second line is an error.
    let valid = std::fs::read_to_string(scn_path("valid.scn")).expect("valid.scn reads");
    let repeated = valid.replacen(
        "frequencies 36 55 64 73 82 91 100\nenergy E2\n",
        "frequencies 36 55 64\nfrequencies 73 82 91 100\nenergy E1\nenergy E3\n",
        1,
    );
    assert_ne!(repeated, valid, "the edit changed nothing");
    let path = format!("{}/repeated-lines.scn", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, repeated).expect("scenario writes");
    let out = bin().args(["check", &path]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate `frequencies` line"), "{stderr}");
}
