#![allow(clippy::expect_used)] // test code

//! Binary-level contract test for `eua-audit --format sarif`: the
//! document names the auditor as its driver and passes `--check` (the
//! pinned SARIF subset plus the byte round-trip).

use std::process::Command;

use eua_analyze::json::{self, Json};

#[test]
fn sarif_check_names_the_auditor_as_driver() {
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
