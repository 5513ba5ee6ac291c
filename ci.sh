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
# even when the scan is clean: every SARIF document the checkers write
# must first pass their shared validator (exit 2 otherwise).
#
# The scan is timed here in bash (date +%s%N): clippy.toml bans the
# wall clock in first-party code, so the lint binary cannot time itself.
# The timing is this host's, so it goes under target/, which git ignores.
cargo build -q -p eua-lint
lint_start_ns="$(date +%s%N)"
lint_summary="$(./target/debug/eua-lint check)"
lint_end_ns="$(date +%s%N)"
echo "${lint_summary}"
./target/debug/eua-lint check --format sarif >/dev/null
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

step "overload fallback and look-ahead bench guards (ignored timing tests, scaling shape)"
# Pins two paths to O(n log n), each under 50x from n = 64 to 1024
# (n log n predicts ~27x, quadratic ~256x). overload_fallback_scaling_guard:
# the schedule builder's overload path (key sort, longest-feasible-prefix
# search, and skip mode's segment tree past the first rejection), in
# break and in skip mode, on four candidate sets: a load-2.0 backlog,
# tight terminations that reject most, the permuted-key backlog, whose
# rebuilds permute the keys so the kept consideration order is useless,
# and the alternating-prefix set, whose rebuilds accept about 1/4 and
# 3/4 of the candidates in turn, so every prefix search gallops and
# bisects across n/2; the O(n²) builder the segment tree replaced
# measured 70-75x on the backlog set. look_ahead_scaling_guard: the
# Algorithm 2 look-ahead over 64 and 1024 tasks, every call reordering
# most tasks' critical times, so its per-call re-sort of the persistent
# walk order cannot degrade to insertion (~244x). --nocapture logs the
# ratios.
cargo test -q -p eua-bench --test overload_guard -- --ignored --nocapture

step "robustness sweep smoke (--jobs 2, byte round-trip, certified)"
# The binary always re-parses the rendered JSON and exits 1 unless
# re-rendering it reproduces the bytes exactly (first-party
# parser/renderer), before it writes the file.
# --certify records one eua-certificate/2 document per sweep cell; the
# unfaulted (intensity-0) cells are then re-validated offline by the
# auditor. Faulted cells are covered by the fault gate in `cargo test`
# above; auditing all 48 here would dominate the gate's wall clock.
rm -rf target/ci-robustness-certs
cargo run -q -p eua-bench --bin robustness -- \
  --quick --jobs 2 --out target/ci-robustness.json \
  --certify target/ci-robustness-certs 2>&1 | tail -3
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

step "analyzer pre-flight (regression corpus)"
# Every committed repro must analyze clean (exit 0): each is a scenario
# the simulator runs, so the simulator backstop (`sim-rejected`) must
# never flag one.
cargo run -q -p eua-analyze -- check tests/regression_corpus/*.scn

step "analyzer rejects a broken scenario"
if cargo run -q -p eua-analyze -- check crates/analyze/scenarios/invalid.scn \
    >/dev/null 2>&1; then
  echo "error: eua-analyze accepted scenarios/invalid.scn" >&2
  exit 1
fi

step "analyzer SARIF round-trip (--format sarif)"
# Exits 2 unless the SARIF output byte-round-trips through the
# first-party JSON tree and validates against the pinned 2.1.0 subset.
cargo run -q -p eua-analyze -- check --format sarif \
  crates/analyze/scenarios/valid.scn >/dev/null

printf '\nCI gate passed.\n'
