#![allow(clippy::expect_used)] // test code

//! Binary-level contract tests for `eua-audit`: the `--format sarif`
//! document names the auditor as its driver (the front end validates it
//! against the pinned SARIF subset before writing it), and `check` rejects
//! a certificate in the retired `eua-certificate/1` format, one whose
//! ready-set changes depart a job that is not live, or a document
//! nested deeper than the JSON parser's cap.

use std::path::Path;
use std::process::{Command, Output};

use eua_sim::json::{self, Json};

#[test]
fn sarif_check_names_the_auditor_as_driver() {
    let out = Command::new(env!("CARGO_BIN_EXE_eua-audit"))
        .args([
            "check",
            "--format",
            "sarif",
            "tests/fixtures/quickstart-eua-seed3.json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("eua-audit runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = json::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("sarif parses");
    let driver = doc.get("runs").and_then(Json::as_arr).expect("runs")[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("name"))
        .and_then(Json::as_str)
        .map(String::from);
    assert_eq!(driver.as_deref(), Some("eua-audit"));
}

#[test]
fn the_check_flag_is_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_eua-audit"))
        .args([
            "check",
            "--format",
            "sarif",
            "--check",
            "tests/fixtures/quickstart-eua-seed3.json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("eua-audit runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--check`"));
}

/// Writes `text` to `name` under the target directory and runs
/// `eua-audit check` on it, followed by `more` arguments.
fn check_copy_and(name: &str, text: &str, more: &[&str]) -> Output {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("copy written");
    Command::new(env!("CARGO_BIN_EXE_eua-audit"))
        .arg("check")
        .arg(&path)
        .args(more)
        .output()
        .expect("eua-audit runs")
}

/// Writes `text` to `name` under the target directory and runs
/// `eua-audit check` on it.
fn check_copy(name: &str, text: &str) -> Output {
    check_copy_and(name, text, &[])
}

#[test]
fn an_unreadable_certificate_outranks_findings_in_another() {
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quickstart-eua-seed3.json"),
    )
    .expect("fixture reads");
    let forged = fixture.replacen(r#""departed":[0]"#, r#""departed":[999]"#, 1);
    let name = "audit-cli-outranked.json";
    assert_malformed(&check_copy(name, &forged), "departed job 999 is not live");
    let out = check_copy_and(name, &forged, &["no/such/certificate.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aud-malformed-certificate"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no/such/certificate.json"), "{stderr}");
}

/// Asserts exit 1 with `aud-malformed-certificate` and `reason` in the
/// report.
fn assert_malformed(out: &Output, reason: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("aud-malformed-certificate"), "{stdout}");
    assert!(stdout.contains(reason), "{stdout} does not say {reason:?}");
}

#[test]
fn check_rejects_a_v1_certificate_naming_its_format() {
    let v1 = r#"{
  "format": "eua-certificate/1",
  "policy": "eua",
  "seed": 3,
  "events": [
    {
      "at_us": 0,
      "ready": []
    }
  ]
}
"#;
    let out = check_copy("audit-cli-v1.json", v1);
    assert_malformed(&out, "unknown certificate format \"eua-certificate/1\"");
}

#[test]
fn check_rejects_a_departure_of_a_job_that_is_not_live() {
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quickstart-eua-seed3.json"),
    )
    .expect("fixture reads");
    // Job 0 departs at the second event; job 999 never arrives.
    let forged = fixture.replacen(r#""departed":[0]"#, r#""departed":[999]"#, 1);
    assert_ne!(forged, fixture, "the forgery changed nothing");
    let out = check_copy("audit-cli-departed-not-live.json", &forged);
    assert_malformed(&out, "departed job 999 is not live");
}

#[test]
fn check_rejects_unbounded_nesting_without_overflowing_the_stack() {
    // 200,000 unclosed arrays: the parser stops at its depth cap with a
    // typed error instead of recursing once per bracket.
    let out = check_copy("audit-cli-deep-nesting.json", &"[".repeat(200_000));
    assert_malformed(&out, "nesting deeper than 128 levels");
}
