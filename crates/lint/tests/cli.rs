#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Binary-level contract tests for `eua-lint`: the strict 2>1>0 exit
//! ordering, format selection, the flag surface, the `codes` listing,
//! and golden SARIF pins for the fixtures.
//!
//! Regenerate the golden files with:
//!
//! ```text
//! EUA_REGEN_GOLDEN=1 cargo test -p eua-lint --test cli
//! ```

use std::path::Path;
use std::process::{Command, Output};

use eua_lint::LINT_CODES;

fn eua_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eua-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("eua-lint runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn clean_file_exits_zero_with_summary() {
    let out = eua_lint(&["check", "src/main.rs"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(stdout(&out), "eua-lint: 1 file(s) scanned, 0 finding(s)\n");
}

const FLOAT_SORT_FIXTURE: &str = "tests/fixtures/float_sort_partial_cmp.rs";

#[test]
fn hazard_fixture_exits_one() {
    let out = eua_lint(&["check", FLOAT_SORT_FIXTURE]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("lint-float-sort-partial-cmp"), "{text}");
    assert!(text.contains("partial_cmp"), "{text}");
}

#[test]
fn missing_path_exits_two_even_with_findings_elsewhere() {
    let out = eua_lint(&["check", FLOAT_SORT_FIXTURE, "no/such/file.rs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(eua_lint(&[]).status.code(), Some(2));
    assert_eq!(
        eua_lint(&["check", "--format", "yaml"]).status.code(),
        Some(2)
    );
    assert_eq!(
        eua_lint(&["check", "--frmat", "text"]).status.code(),
        Some(2)
    );
    assert_eq!(
        eua_lint(&["check", "--check", "src/main.rs"]).status.code(),
        Some(2),
        "--check without sarif is a usage error"
    );
    assert_eq!(
        eua_lint(&["check", "--only", "lint-loop-alloc", "src/main.rs"])
            .status
            .code(),
        Some(2),
        "every scan runs every rule; there is no rule selection flag"
    );
    for flag in ["--fix", "--apply"] {
        assert_eq!(
            eua_lint(&["check", flag, "src/main.rs"]).status.code(),
            Some(2),
            "{flag}: the linter reports and never rewrites"
        );
    }
}

#[test]
fn codes_lists_the_registry_in_order() {
    let out = eua_lint(&["codes"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let listed: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("code column"))
        .collect();
    let expected: Vec<&str> = LINT_CODES.iter().map(|c| c.as_str()).collect();
    assert_eq!(listed, expected);
    assert!(text.lines().all(|l| l.contains("error")), "{text}");
}

#[test]
fn json_format_renders_reports() {
    let out = eua_lint(&["check", "--format", "json", FLOAT_SORT_FIXTURE]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.starts_with('['), "{text}");
    assert!(text.contains("\"lint-float-sort-partial-cmp\""), "{text}");
}

/// The loop-allocation and time-arithmetic fixtures, scanned as one
/// workspace and byte-pinned through the SARIF self-check (`--check`
/// re-parses the output and asserts `render(parse(x)) == x` before
/// printing). This
/// pins the loop-depth message and the saturating-method hint as they
/// appear on the wire.
#[test]
fn dataflow_fixtures_sarif_is_golden() {
    let out = eua_lint(&[
        "check",
        "--format",
        "sarif",
        "--check",
        "tests/fixtures/loop_alloc.rs",
        "tests/fixtures/unchecked_time_arith.rs",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let rendered = stdout(&out);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dataflow.sarif");
    if std::env::var("EUA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (regenerate with EUA_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "SARIF drifted; regenerate with EUA_REGEN_GOLDEN=1 if deliberate"
    );
    for rule in ["lint-loop-alloc", "lint-unchecked-time-arith"] {
        assert_eq!(
            golden.matches(&format!("\"ruleId\": \"{rule}\"")).count(),
            1,
            "{rule}"
        );
    }
}
