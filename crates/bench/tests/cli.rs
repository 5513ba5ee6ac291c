#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! The experiment binaries refuse a command line they cannot honour:
//! each invocation here exits 2 before any run, naming the flag and the
//! value on stderr, where a value that did not parse used to fall back
//! to its default.

use std::process::Command;

/// Runs `bin` with `args` in a scratch directory, so a run that wrongly
/// starts writes nothing into the source tree, and asserts the refusal.
fn refuses(bin: &str, args: &[&str], says: &str) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(says),
        "{args:?} must say {says:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
}

#[test]
fn chaos_refuses_numbers_that_do_not_parse() {
    refuses(
        env!("CARGO_BIN_EXE_eua-chaos"),
        &["--quick", "--seed", "9x", "--cells", "2z"],
        "`--seed` cannot take `9x`",
    );
}

#[test]
fn chaos_refuses_an_unknown_policy() {
    refuses(
        env!("CARGO_BIN_EXE_eua-chaos"),
        &["--quick", "--cells", "4", "--policies", "eua,nope"],
        "`--policies` cannot take `nope`",
    );
}

#[test]
fn robustness_refuses_a_load_that_does_not_parse() {
    refuses(
        env!("CARGO_BIN_EXE_robustness"),
        &["--quick", "--load", "1.5x"],
        "`--load` cannot take `1.5x`",
    );
}

#[test]
fn robustness_has_no_check_flag() {
    refuses(
        env!("CARGO_BIN_EXE_robustness"),
        &["--quick", "--check"],
        "unknown flag `--check`",
    );
}

#[test]
fn fig2_refuses_an_unknown_energy_setting() {
    refuses(
        env!("CARGO_BIN_EXE_fig2"),
        &["--quick", "--energy", "E1", "--jobs", "two"],
        "`--energy` cannot take `E1`",
    );
}
