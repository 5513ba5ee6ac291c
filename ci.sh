#!/usr/bin/env bash
# Local CI gate. Run from the repository root:
#
#   ./ci.sh          # full gate
#   ./ci.sh --quick  # skip the release build
#
# Order: cheap static checks first, then the test suites, then the
# analyzer pre-flight over everything the repo ships.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "mutation ledger texts (scripts/mutants.txt)"
# Every ledger entry's source text must occur exactly once in its file,
# so a change that moves checked code updates its entry in the same
# diff. This builds nothing; scripts/mutants.sh is the full run.
scripts/ledger.sh

step "eua-lint workspace scan (all codes)"
# Every rule on every first-party .rs file: float sorts, allocation on
# hot paths and in nested loops, and raw arithmetic on `_us` integers
# (SimTime and TimeDelta have no operators, so rustc rejects raw
# arithmetic on them). The lexical determinism bans, pool purity's
# included, live in clippy.toml (checked below), and seed provenance is
# a test at each production RNG root (run by `cargo test` below). The
# walker skips vendor/, target/, and fixture corpora on its own. The
# same gate also runs as a test (crates/lint/tests/dogfood.rs) under
# `cargo test` below. The SARIF pass proves the renderer byte-round-trips
# even when the scan is clean.
#
# The scan is timed here in bash (date +%s%N): clippy.toml bans the
# wall clock in first-party code, so the lint binary cannot time itself.
# The timing is this host's, so it goes under target/, which git ignores.
cargo build -q -p eua-lint
lint_start_ns="$(date +%s%N)"
lint_summary="$(./target/debug/eua-lint check)"
lint_end_ns="$(date +%s%N)"
echo "${lint_summary}"
./target/debug/eua-lint check --format sarif --check >/dev/null
lint_wall_ms="$(( (lint_end_ns - lint_start_ns) / 1000000 ))"
lint_files="$(awk '{print $2}' <<<"${lint_summary}")"
cat > target/BENCH_lint.json <<EOF
{
  "description": "Wall time of the full eua-lint workspace scan (token rules, lexical loop depth and the per-function time-arithmetic pass) over every first-party .rs file, as measured by ci.sh with bash date +%s%N around one debug-build invocation. Indicative single-host numbers, not a statistical benchmark.",
  "command": "target/debug/eua-lint check",
  "files_scanned": ${lint_files},
  "scan_wall_ms": ${lint_wall_ms}
}
EOF
echo "eua-lint full scan: ${lint_files} files in ${lint_wall_ms} ms (target/BENCH_lint.json)"

step "cargo clippy -D warnings"
# clippy.toml bans wall-clock reads, raw std::thread, std::time types,
# hash collections, and the std::sync shared-state types, channels and
# thread-locals a Sync pool closure could otherwise share. The worker
# pool's thread scope and queue, and the overload guard's timer, each
# carry a statement-level #[expect], which -D warnings turns into an
# error once it suppresses nothing. No first-party code is
# feature-gated, so one run covers everything.
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc links (-D warnings)"
# Every intra-doc link must resolve: a link to a private item or an
# ambiguous path is an error, so renamed or deleted items cannot leave
# stale links in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going -q

step "clippy determinism bans fire (fixture package must fail)"
# Clippy must reject crates/lint/tests/fixtures/clippy_bans/ and report
# every path clippy.toml lists and every `// ban:` marker there. The
# check is its own script so the mutation ledger can run it alone.
scripts/clippy-bans.sh

step "cargo test"
# Debug builds compile in the engine's runtime invariant checks
# (crates/sim/src/invariants.rs), so every suite here runs with them on:
# the schedule and engine differential suites, the fault fuzz, the
# analyzer soundness gate, the certificate audit gate, and the
# regression corpus replay.
cargo test --workspace -q

step "certificate audit fixtures"
# The committed golden certificates must audit clean through the CLI.
cargo run -q -p eua-audit -- check crates/audit/tests/fixtures/*.json >/dev/null

step "diagnostic-code registry lint"
# Every diagnostic code any binary can emit must be registered in the
# shared eua-analyze registry — exactly once — so `codes` listings and
# SARIF rule metadata stay a single source of truth across all three
# binaries (renderer coverage for every code is pinned by unit tests in
# crates/analyze/src/diagnostic.rs).
analyze_codes="$(cargo run -q -p eua-analyze -- codes)"
dupes="$(awk '{print $1}' <<<"${analyze_codes}" | sort | uniq -d)"
if [[ -n "${dupes}" ]]; then
  echo "error: duplicate codes in the eua-analyze registry: ${dupes}" >&2
  exit 1
fi
for tool in eua-audit eua-lint; do
  cargo run -q -p "${tool}" -- codes | while read -r code _; do
    if ! grep -q "^${code} " <<<"${analyze_codes}"; then
      echo "error: ${code} is emitted by ${tool} but absent from the" \
        "eua-analyze code registry" >&2
      exit 1
    fi
  done
done
# And no gaps in the other direction: every registered lint-* code must
# be one eua-lint actually lists (a renamed rule cannot strand its code).
lint_codes="$(cargo run -q -p eua-lint -- codes)"
grep '^lint-' <<<"${analyze_codes}" | while read -r code _; do
  if ! grep -q "^${code} " <<<"${lint_codes}"; then
    echo "error: ${code} is registered but not listed by eua-lint codes" >&2
    exit 1
  fi
done

step "miri smoke (worker pool)"
# Opt-in: EUA_MIRI=1 runs the eua-sim pool tests under miri for UB
# detection in the scoped-thread machinery. Skipped by default (and
# when the toolchain lacks the miri component, as this container's
# does) because miri multiplies test runtime ~30x.
if [[ "${EUA_MIRI:-0}" == 1 ]]; then
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p eua-sim pool
  else
    echo "skipped: EUA_MIRI=1 but the miri component is not installed" \
      "(rustup component add miri)" >&2
  fi
else
  echo "skipped (set EUA_MIRI=1 to enable)"
fi

step "bench smoke under --jobs 2"
cargo run -q -p eua-bench --bin fig2 -- --quick --energy e1 --jobs 2 >/dev/null
# theorems exits 1 on any failed check, including Theorem 2's
# dispatch-sequence comparison read from the runs' certificates.
cargo run -q -p eua-bench --bin theorems -- --quick --jobs 2 >/dev/null

step "benchmark package tests (perf/)"
# perf/ is a workspace of its own that builds against crates/* by path,
# so nothing above compiles it. Its tests check that traced and
# untraced runs give the same digest on every workload, and that its
# policy wrappers keep certificates byte-identical.
cargo test --release --offline -q --manifest-path perf/Cargo.toml

step "overload fallback bench guard (ignored timing test, scaling shape)"
# Pins the schedule builder's segment-tree overload path to O(n log n):
# from 64 to 1024 candidates each of two sets (a load-2.0 backlog that
# accepts 74%, and tight terminations that reject most) must scale by
# less than 50x. n log n predicts ~27x; the O(n²) builder it replaced
# measured 70-75x on the backlog set. --nocapture logs the ratios.
cargo test -q -p eua-bench --test overload_guard -- --ignored --nocapture

step "robustness sweep smoke (--jobs 2, byte round-trip, certified)"
# --check re-parses the emitted JSON and fails unless re-rendering it
# reproduces the on-disk bytes exactly (first-party parser/renderer).
# --certify records one eua-certificate/2 document per sweep cell; the
# unfaulted (intensity-0) cells are then re-validated offline by the
# auditor. Faulted cells are covered by the fault gate in `cargo test`
# above; auditing all 48 here would dominate the gate's wall clock.
rm -rf target/ci-robustness-certs
cargo run -q -p eua-bench --bin robustness -- \
  --quick --jobs 2 --out target/ci-robustness.json \
  --certify target/ci-robustness-certs --check 2>&1 | tail -3
cargo run -q -p eua-audit -- check \
  target/ci-robustness-certs/*-i0-*.json >/dev/null

step "chaos campaign smoke (halt + resume == uninterrupted, --jobs 2)"
# A fixed-seed 32-cell campaign run twice: once uninterrupted, once
# killed after 10 cells (--halt-after, the deterministic stand-in for a
# mid-flight kill) and resumed. Journal and report must be
# byte-identical — every cell is a pure function of (seed, index), so
# resume replays nothing and appends exactly the missing cells.
rm -rf target/ci-chaos
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 \
  --journal target/ci-chaos/full.jsonl --out target/ci-chaos/full.json \
  2>/dev/null
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 --halt-after 10 \
  --journal target/ci-chaos/twophase.jsonl --out target/ci-chaos/twophase.json \
  2>/dev/null
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 --resume \
  --journal target/ci-chaos/twophase.jsonl --out target/ci-chaos/twophase.json \
  2>/dev/null
cmp target/ci-chaos/full.jsonl target/ci-chaos/twophase.jsonl
cmp target/ci-chaos/full.json target/ci-chaos/twophase.json

if [[ "$QUICK" == 0 ]]; then
  step "cargo build --release"
  cargo build --release -q
fi

step "analyzer pre-flight (all shipped examples)"
cargo run -q -p eua-analyze -- check --all-examples

step "analyzer rejects a broken scenario"
if cargo run -q -p eua-analyze -- check crates/analyze/scenarios/invalid.scn \
    >/dev/null 2>&1; then
  echo "error: eua-analyze accepted scenarios/invalid.scn" >&2
  exit 1
fi

step "analyzer SARIF round-trip (--format sarif --check)"
# --check fails (exit 2) unless the SARIF output byte-round-trips through
# the first-party JSON tree and validates against the pinned 2.1.0 subset.
cargo run -q -p eua-analyze -- check --format sarif --check \
  crates/analyze/scenarios/valid.scn >/dev/null

printf '\nCI gate passed.\n'
