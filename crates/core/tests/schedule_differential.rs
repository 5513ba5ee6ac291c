#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! Differential tests for the segment-tree schedule builder: the
//! optimized `build_schedule` must produce byte-identical schedules to the
//! naive `build_schedule_reference` oracle (full `schedule_feasible`
//! re-walk per insertion) on arbitrary candidate sets, in both insertion
//! modes, and across buffer reuse.

use eua_core::{
    build_schedule, build_schedule_reference, Candidate, InsertionMode, ScheduleBuilder,
};
use eua_platform::{Cycles, Frequency, SimTime};
use eua_sim::JobId;
use proptest::prelude::*;

/// Candidate sets that stress the interesting regimes: tight and loose
/// terminations, zero and huge remaining work, negative / zero / NaN keys,
/// and saturating `SimTime::MAX` sentinels. Up to 300 candidates build
/// trees nine levels deep.
fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    // The vendored proptest's `prop_oneof!` is unweighted; repeat the
    // common arm to bias toward it.
    let key = prop_oneof![
        -10.0f64..1_000.0,
        -10.0f64..1_000.0,
        -10.0f64..1_000.0,
        Just(0.0f64),
        Just(f64::NAN),
    ];
    let termination = prop_oneof![
        0u64..3_000_000,
        0u64..3_000_000,
        0u64..3_000_000,
        Just(u64::MAX),
    ];
    let remaining = prop_oneof![
        0u64..2_000_000,
        0u64..2_000_000,
        0u64..2_000_000,
        Just(u64::MAX),
    ];
    proptest::collection::vec((0u64..2_000_000, termination, remaining, key), 0..300).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (crit, term, remaining, key))| Candidate {
                    id: JobId(i as u64),
                    critical: SimTime::from_micros(crit),
                    // Termination can fall before the critical time here;
                    // the builder must handle that (nothing fits) without
                    // diverging from the oracle.
                    termination: if term == u64::MAX {
                        SimTime::MAX
                    } else {
                        SimTime::from_micros(crit.saturating_add(term))
                    },
                    remaining: Cycles::new(remaining),
                    key,
                })
                .collect()
        },
    )
}

/// The maximum frequency: at 1 MHz a `u64::MAX`-cycle job runs for
/// `u64::MAX` µs, so finish times saturate; at 100 MHz they cannot.
fn arb_f_max() -> impl Strategy<Value = Frequency> {
    prop_oneof![Just(1u64), Just(100u64)].prop_map(Frequency::from_mhz)
}

fn same_schedule(a: &[Candidate], b: &[Candidate]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.id == y.id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_builder_matches_naive_oracle(
        cands in arb_candidates(),
        now_us in 0u64..200_000,
        skip in any::<bool>(),
        f_m in arb_f_max(),
    ) {
        let now = SimTime::from_micros(now_us);
        let mode = if skip {
            InsertionMode::SkipInfeasible
        } else {
            InsertionMode::BreakOnInfeasible
        };
        let fast = build_schedule(now, cands.clone(), f_m, mode);
        let slow = build_schedule_reference(now, cands, f_m, mode);
        prop_assert!(
            same_schedule(&fast, &slow),
            "incremental {:?} != reference {:?}",
            fast.iter().map(|c| c.id).collect::<Vec<_>>(),
            slow.iter().map(|c| c.id).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn builder_reuse_matches_one_shot(
        sets in proptest::collection::vec(arb_candidates(), 1..5),
        now_us in 0u64..200_000,
        skip in any::<bool>(),
        f_m in arb_f_max(),
    ) {
        let now = SimTime::from_micros(now_us);
        let mode = if skip {
            InsertionMode::SkipInfeasible
        } else {
            InsertionMode::BreakOnInfeasible
        };
        // One builder reused across every set (as `Eua::plan` does per
        // event) must match a fresh one-shot build for each set.
        let mut builder = ScheduleBuilder::new();
        let mut buf = Vec::new();
        for cands in sets {
            buf.clear();
            buf.extend_from_slice(&cands);
            let reused: Vec<Candidate> = builder.rebuild(now, &mut buf, f_m, mode).to_vec();
            let fresh = build_schedule(now, cands, f_m, mode);
            prop_assert!(
                same_schedule(&reused, &fresh),
                "reused {:?} != fresh {:?}",
                reused.iter().map(|c| c.id).collect::<Vec<_>>(),
                fresh.iter().map(|c| c.id).collect::<Vec<_>>(),
            );
        }
    }
}
