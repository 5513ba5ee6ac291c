#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Bench guards for two paths whose cost must stay O(n log n): the
//! schedule builder's overload path (ROADMAP item 3), where a key sort,
//! a search for the longest feasible key prefix over linear scans, and
//! in skip mode a segment tree over fixed schedule positions make each
//! rebuild O(n log n) in the candidate count, and the Algorithm 2
//! look-ahead, which re-sorts its persistent walk order at every call.
//!
//! The builder runs four cases, each in break and in skip mode: a
//! backlog set, a tight set, the permuted-key backlog set, whose
//! successive rebuilds permute the keys among the candidates, and the
//! alternating-prefix set, whose successive rebuilds accept about a
//! quarter and about three quarters of the candidates. A reused builder
//! starts each overload key sort from the previous overload build's
//! order, so rebuilding one set starts already sorted; the permuted-key
//! case makes that kept order useless, the sort's worst case. It also
//! starts each prefix search from the previous build's prefix, so the
//! alternating-prefix case, whose prefix moves by about n/2 every time,
//! runs the search's full gallop and bisection at every rebuild.
//!
//! `#[ignore]`d: timing assertions are load-sensitive, so these run on
//! demand (`cargo test -p eua-bench --test overload_guard -- --ignored
//! --nocapture`) and from `ci.sh`, not from the default test sweep. The
//! guards pin the *scaling shape*, not absolute speed. From n = 64 to
//! n = 1024, n log n predicts about 27x and a quadratic path about
//! 256x; the O(n²) builder the tree replaced measured 70–75x on the
//! backlog set. Each case must scale by less than 50x.

use eua_core::{Candidate, InsertionMode, LookAheadDvs, ScheduleBuilder};
use eua_platform::{Cycles, EnergySetting, Frequency, SimTime, TimeDelta};
use eua_sim::{JobId, JobView, Platform, SchedContext, SchedEvent, Task, TaskId, TaskSet};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::{Assurance, UamSpec};

/// The `overload_backlog` regime: `n` jobs due within one 40 ms window,
/// carrying twice the work the window holds (load 2.0) at 100 MHz. Most
/// jobs are short and keys favour them, as utility density does, so most
/// insertions are accepted (74% at n = 1024).
fn backlog_candidates(n: u64) -> Vec<Candidate> {
    const WINDOW_US: u64 = 40_000;
    // Work per job in quarters of the mean, which is 2 × window / n µs
    // at 100 cycles per µs.
    const QUARTERS: [u64; 8] = [1, 1, 2, 2, 3, 6, 8, 9];
    let mean_cycles = WINDOW_US.saturating_mul(2 * 100) / n;
    (0..n)
        .map(|i| {
            let critical = 1 + ((i * 7919) % n).saturating_mul(WINDOW_US) / n;
            let remaining = mean_cycles * QUARTERS[(i * 104_729 % 8) as usize] / 4;
            Candidate {
                id: JobId(i),
                critical: SimTime::from_micros(critical),
                termination: SimTime::from_micros(critical),
                remaining: Cycles::new(remaining),
                key: (1.0 + (i as f64 * 13.7) % 3.0) / remaining as f64,
            }
        })
        .collect()
}

/// Terminations so tight that most insertions fail their own-finish test
/// once a few neighbours landed: the rejecting side of the overload path.
fn tight_candidates(n: u64) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let critical = 10_000 + 500 * ((i * 7919) % n);
            Candidate {
                id: JobId(i),
                critical: SimTime::from_micros(critical),
                termination: SimTime::from_micros(critical + 2_000),
                remaining: Cycles::new(80_000 + 1_000 * i),
                key: 1.0 + (i as f64 * 13.7) % 97.0,
            }
        })
        .collect()
}

/// `n` jobs due together at the end of a window that holds `quarters`
/// quarters of their work at 100 MHz, their critical times spread over
/// the window. A key prefix is feasible iff its work fits the window, so
/// the longest feasible one holds about that share of the jobs.
fn window_share_candidates(n: u64, quarters: u64) -> Vec<Candidate> {
    const QUARTERS: [u64; 8] = [1, 1, 2, 2, 3, 6, 8, 9];
    let cycles = |i: u64| 10_000 * QUARTERS[(i * 104_729 % 8) as usize];
    // Total work in µs at 100 cycles per µs.
    let total: u64 = (0..n).map(|i| cycles(i) / 100).sum();
    let end = total * quarters / 4;
    (0..n)
        .map(|i| Candidate {
            id: JobId(i),
            critical: SimTime::from_micros(1 + (i * 7919 % n) * end / n),
            termination: SimTime::from_micros(end),
            remaining: Cycles::new(cycles(i)),
            key: 1.0 + (i as f64 * 13.7) % 97.0,
        })
        .collect()
}

/// The same jobs due by a window holding a quarter and one holding three
/// quarters of their work, in turn.
fn alternating_prefix(n: u64) -> Vec<Vec<Candidate>> {
    vec![window_share_candidates(n, 1), window_share_candidates(n, 3)]
}

/// `base` under four unrelated permutations of its keys among the
/// candidates (an odd multiplier permutes 0..n for n a power of two).
fn permuted_keys(base: &[Candidate]) -> Vec<Vec<Candidate>> {
    const MULTIPLIERS: [usize; 4] = [7_919, 104_729, 1_299_709, 15_485_863];
    let n = base.len();
    MULTIPLIERS
        .iter()
        .map(|&m| {
            base.iter()
                .enumerate()
                .map(|(i, c)| Candidate {
                    key: base[m * i % n].key,
                    ..*c
                })
                .collect()
        })
        .collect()
}

/// `rebuild`s in `mode` on a reused builder, cycling through `sets`,
/// each returning the schedule length.
fn rebuilder(sets: &[Vec<Candidate>], mode: InsertionMode) -> impl FnMut() -> usize + '_ {
    let f_m = Frequency::from_mhz(100);
    let mut builder = ScheduleBuilder::new();
    let mut buf = Vec::new();
    let mut call = 0;
    move || {
        call += 1;
        buf.clear();
        buf.extend_from_slice(&sets[call % sets.len()]);
        builder.rebuild(SimTime::ZERO, &mut buf, f_m, mode).len()
    }
}

/// A look-ahead call sequence over `n` tasks with one live job each. The
/// calls cycle through four contexts whose arrival instants order the
/// tasks by four unrelated permutations, so every call reorders most of
/// the walk. Each window is 1 ms and the critical offset 50 ms, so at
/// `now` = 20 ms every window has expired and a task's critical time in
/// the walk is its job's.
fn look_ahead_calls(n: u64) -> impl FnMut() -> usize {
    const MULTIPLIERS: [u64; 4] = [7_919, 104_729, 1_299_709, 15_485_863];
    let tasks = (0..n)
        .map(|i| {
            Task::new(
                format!("t{i}"),
                Tuf::step(1.0, TimeDelta::from_millis(50)).expect("tuf"),
                UamSpec::new(1, TimeDelta::from_millis(1)).expect("uam"),
                DemandModel::deterministic(10_000.0).expect("demand"),
                Assurance::new(1.0, 0.5).expect("assurance"),
            )
            .expect("task")
        })
        .collect();
    let tasks = TaskSet::new(tasks).expect("task set");
    let contexts: Vec<Vec<JobView>> = MULTIPLIERS
        .iter()
        .map(|&m| {
            (0..n)
                .map(|i| {
                    // An odd multiplier permutes 0..n for n a power of two.
                    let arrival = SimTime::from_micros((m * i % n) * 10);
                    let critical = arrival.saturating_add(TimeDelta::from_millis(50));
                    JobView {
                        id: JobId(i),
                        task: TaskId(i as usize),
                        arrival,
                        critical_time: critical,
                        termination: critical,
                        remaining: Cycles::new(10_000),
                        executed: Cycles::ZERO,
                    }
                })
                .collect()
        })
        .collect();
    let platform = Platform::powernow(EnergySetting::e1());
    let mut dvs = LookAheadDvs::new();
    let mut call = 0;
    move || {
        call += 1;
        let ctx = SchedContext {
            now: SimTime::from_millis(20),
            event: SchedEvent::Arrival,
            jobs: &contexts[call % contexts.len()],
            tasks: &tasks,
            platform: &platform,
            running: None,
            energy_used: 0.0,
        };
        let analysis = dvs.analyze(&ctx);
        analysis
            .earliest_critical
            .map_or(0, |t| t.as_micros() as usize)
    }
}

/// Ns per call of `routine`, averaged over a batch of `batch` calls.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a timing guard must read the wall clock; nothing it times feeds a simulation"
)]
fn ns_per_call(routine: &mut impl FnMut() -> usize, batch: u32) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..batch {
        std::hint::black_box(routine());
    }
    start.elapsed().as_nanos() as f64 / f64::from(batch)
}

/// Median ns per call of `small` and of `large` over 20 rounds. Each
/// round times one batch of each, sized to run for about 1 ms (timing
/// single sub-microsecond calls would mostly measure clock
/// quantisation), so a load change on a shared host skews both alike.
fn median_ns_pair(
    mut small: impl FnMut() -> usize,
    mut large: impl FnMut() -> usize,
) -> (f64, f64) {
    const ROUNDS: usize = 20;
    let batch = |once_ns: f64| (1e6 / once_ns.max(1.0)).clamp(1.0, 1e6) as u32;
    let small_batch = batch(ns_per_call(&mut small, 1));
    let large_batch = batch(ns_per_call(&mut large, 1));
    let (mut at_small, mut at_large): (Vec<f64>, Vec<f64>) = (0..ROUNDS)
        .map(|_| {
            (
                ns_per_call(&mut small, small_batch),
                ns_per_call(&mut large, large_batch),
            )
        })
        .unzip();
    at_small.sort_by(f64::total_cmp);
    at_large.sort_by(f64::total_cmp);
    (at_small[ROUNDS / 2], at_large[ROUNDS / 2])
}

#[test]
#[ignore = "timing guard; run on demand via cargo test -- --ignored"]
fn overload_fallback_scaling_guard() {
    for (name, small, large) in [
        (
            "backlog",
            vec![backlog_candidates(64)],
            vec![backlog_candidates(1024)],
        ),
        (
            "tight",
            vec![tight_candidates(64)],
            vec![tight_candidates(1024)],
        ),
        (
            "permuted-key backlog",
            permuted_keys(&backlog_candidates(64)),
            permuted_keys(&backlog_candidates(1024)),
        ),
        (
            "alternating-prefix",
            alternating_prefix(64),
            alternating_prefix(1024),
        ),
    ] {
        for mode in [
            InsertionMode::BreakOnInfeasible,
            InsertionMode::SkipInfeasible,
        ] {
            let mut large = rebuilder(&large, mode);
            let accepted = large() as f64 / 1024.0;
            let (at_64, at_1024) = median_ns_pair(rebuilder(&small, mode), large);
            let ratio = at_1024 / at_64;
            println!(
                "overload fallback, {name} set, {mode:?}: {at_64:.0} ns @64, \
                 {at_1024:.0} ns @1024 ({:.0}% accepted), ratio {ratio:.1}x \
                 (n log n ~27x, quadratic ~256x)",
                accepted * 100.0
            );
            assert!(
                at_64 > 0.0 && at_1024 > at_64,
                "{name} set, {mode:?}: measurement degenerate: {at_64} ns @64, \
                 {at_1024} ns @1024"
            );
            // Nearly 2x headroom over n log n for noisy shared runners; an
            // O(n²) path (the replaced builder measured 70–75x here) fails.
            assert!(
                ratio < 50.0,
                "{name} set, {mode:?}: overload fallback scaled {ratio:.1}x from 64→1024 \
                 candidates; the O(n log n) path has regressed"
            );
        }
    }
}

#[test]
#[ignore = "timing guard; run on demand via cargo test -- --ignored"]
fn look_ahead_scaling_guard() {
    let (at_64, at_1024) = median_ns_pair(look_ahead_calls(64), look_ahead_calls(1024));
    let ratio = at_1024 / at_64;
    println!(
        "look-ahead: {at_64:.0} ns @64 tasks, {at_1024:.0} ns @1024 tasks, ratio {ratio:.1}x \
         (n log n ~27x, quadratic ~256x)"
    );
    assert!(
        at_64 > 0.0 && at_1024 > at_64,
        "look-ahead: measurement degenerate: {at_64} ns @64, {at_1024} ns @1024"
    );
    // The walk order is re-sorted from the previous call's order at every
    // call; a sort that degrades to insertion on a scrambled order is
    // O(n²) and fails.
    assert!(
        ratio < 50.0,
        "look-ahead scaled {ratio:.1}x from 64→1024 tasks; its per-call sort has regressed"
    );
}
