#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Bench guard for the schedule builder's O(n²) overload fallback
//! (ROADMAP item 3; its segment-tree replacement is sketched at the
//! slow-path comment in `crates/core/src/candidates.rs`).
//!
//! `#[ignore]`d: timing assertions are load-sensitive, so this runs on
//! demand (`cargo test -p eua-bench -- --ignored`) and from the bench
//! stanza in `ci.sh`, not from the default test sweep. The guard pins
//! the *scaling shape*, not absolute speed: quadratic growth from n=64
//! to n=256 is expected today (≈16x), and anything far beyond that
//! means the fallback regressed; the segment-tree rewrite should drive
//! the ratio toward n log n (≈5.3x) and can tighten the bound.

use eua_core::{Candidate, InsertionMode, ScheduleBuilder};
use eua_platform::{Cycles, Frequency, SimTime};
use eua_sim::JobId;

/// A sustained-overload candidate set: terminations so tight that the
/// all-feasible fast path cannot succeed and greedy insertion keeps
/// rejecting, which is exactly the regime that re-arms `overloaded`
/// and keeps the builder on the slow path.
fn overloaded_candidates(n: u64) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let critical = 10_000 + 500 * ((i * 7919) % n);
            Candidate {
                id: JobId(i),
                critical: SimTime::from_micros(critical),
                // Barely past the critical time: most insertions fail
                // their own-finish test once a few neighbours landed.
                termination: SimTime::from_micros(critical + 2_000),
                remaining: Cycles::new(80_000 + 1_000 * i),
                key: 1.0 + (i as f64 * 13.7) % 97.0,
            }
        })
        .collect()
}

/// Median ns per call of `routine` over 20 samples. Each sample times a
/// batch of calls sized to run for about 1 ms, then divides by the batch
/// size: timing single sub-microsecond calls would mostly measure clock
/// quantisation.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a timing guard must read the wall clock; nothing it times feeds a simulation"
)]
fn median_ns<O>(mut routine: impl FnMut() -> O) -> f64 {
    const SAMPLES: usize = 20;
    const TARGET_BATCH_NS: u128 = 1_000_000;
    let start = std::time::Instant::now();
    std::hint::black_box(routine());
    let once_ns = start.elapsed().as_nanos().max(1);
    let batch = (TARGET_BATCH_NS / once_ns).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// Median ns per `rebuild` on the overload slow path at size `n`.
fn overload_rebuild_ns(n: u64) -> f64 {
    let base = overloaded_candidates(n);
    let f_m = Frequency::from_mhz(100);
    let mut builder = ScheduleBuilder::new();
    let mut buf = Vec::new();
    // Prime the overload latch so every measured call takes the
    // fallback from its first instruction.
    buf.extend_from_slice(&base);
    builder.rebuild(SimTime::ZERO, &mut buf, f_m, InsertionMode::SkipInfeasible);
    median_ns(|| {
        buf.clear();
        buf.extend_from_slice(&base);
        std::hint::black_box(
            builder
                .rebuild(SimTime::ZERO, &mut buf, f_m, InsertionMode::SkipInfeasible)
                .len(),
        )
    })
}

#[test]
#[ignore = "timing guard; run on demand via cargo test -- --ignored"]
fn overload_fallback_scaling_guard() {
    let at_64 = overload_rebuild_ns(64);
    let at_256 = overload_rebuild_ns(256);
    let ratio = at_256 / at_64;
    println!(
        "overload fallback: {at_64:.0} ns @64, {at_256:.0} ns @256, ratio {ratio:.1}x \
         (quadratic baseline ~16x)"
    );
    assert!(
        at_64 > 0.0 && at_256 > at_64,
        "measurement degenerate: {at_64} ns @64, {at_256} ns @256"
    );
    // 4x headroom over the quadratic baseline: catches an accidental
    // O(n³) (ratio ~64x) or a pathological re-sort per insertion while
    // tolerating noisy shared-runner timings.
    assert!(
        ratio < 64.0,
        "overload fallback scaled {ratio:.1}x from 64→256 candidates; \
         the O(n²) path has regressed"
    );
}
