#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! Differential tests for the schedule builder: the optimized
//! `build_schedule` must produce byte-identical schedules to the naive
//! `build_schedule_reference` oracle (full `schedule_feasible` re-walk
//! per insertion) on arbitrary candidate sets, in both insertion modes,
//! and across buffer reuse. A reused builder keeps the last overload
//! build's consideration order and prefix length, and starts the next
//! key sort and prefix search from them, so generated multi-call
//! sequences, in which jobs persist, change keys, leave and arrive,
//! drive one builder against the oracle at every call; a last test
//! checks that the sequences reach each case that oracle is meant to
//! cover.

use eua_core::{
    build_schedule, build_schedule_reference, Candidate, InsertionMode, ScheduleBuilder,
};
use eua_platform::{Cycles, Frequency, SimTime};
use eua_sim::JobId;
use proptest::prelude::*;
use proptest::TestRng;

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

/// A ScheduleBuilder-reuse sequence: an initial live set, then calls,
/// each after a change to the set. One builder serves every call, so
/// each overload build starts its key sort from the previous overload
/// build's order; the naive oracle builds every call afresh.
#[derive(Debug, Clone)]
struct Sequence {
    f_m: Frequency,
    initial: Vec<RawJob>,
    calls: Vec<Call>,
}

/// `(critical, termination slack, remaining cycles, key)`, as
/// `arb_candidates` draws them but on a scale where a set of a few dozen
/// jobs is sometimes feasible and sometimes not.
type RawJob = (u64, u64, u64, f64);

#[derive(Debug, Clone)]
struct Call {
    change: Change,
    skip: bool,
    now_us: u64,
    /// Drives which jobs the change touches and the input shuffle.
    salt: u64,
    /// Jobs that arrive (ids above every earlier one) on `Churn`.
    arrivals: Vec<RawJob>,
    /// New keys for the jobs `Persist` changes, used in turn.
    keys: Vec<f64>,
}

/// What happens to the live set before a call.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// The same jobs; some get another key, some another remaining work.
    Persist,
    /// Some jobs depart and the call's arrivals join.
    Churn,
    /// The same jobs, their positive keys permuted among them.
    PermuteKeys,
    /// All but at most two jobs depart, so the call likely fits whole.
    Drain,
}

/// Keys that tie often (small integers), and the non-positive and NaN
/// keys the builder must drop: 0, negative, NaN and −∞.
fn arb_key() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.001f64..1_000.0,
        0.001f64..1_000.0,
        0.001f64..1_000.0,
        (1u32..=4).prop_map(f64::from),
        (1u32..=4).prop_map(f64::from),
        Just(0.0f64),
        -10.0f64..-0.001,
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_raw_job() -> impl Strategy<Value = RawJob> {
    let slack = prop_oneof![0u64..60_000, 0u64..60_000, 0u64..60_000, Just(u64::MAX)];
    (0u64..100_000, slack, 0u64..400_000, arb_key())
}

fn arb_call() -> impl Strategy<Value = Call> {
    (
        0u32..8,
        any::<bool>(),
        prop_oneof![Just(0u64), 0u64..60_000],
        any::<u64>(),
        proptest::collection::vec(arb_raw_job(), 0..8),
        proptest::collection::vec(arb_key(), 1..4),
    )
        .prop_map(|(change, skip, now_us, salt, arrivals, keys)| Call {
            change: match change {
                0 | 1 => Change::Churn,
                2 => Change::PermuteKeys,
                3 => Change::Drain,
                _ => Change::Persist,
            },
            skip,
            now_us,
            salt,
            arrivals,
            keys,
        })
}

fn arb_sequence() -> impl Strategy<Value = Sequence> {
    (
        arb_f_max(),
        proptest::collection::vec(arb_raw_job(), 0..60),
        proptest::collection::vec(arb_call(), 1..24),
    )
        .prop_map(|(f_m, initial, calls)| Sequence {
            f_m,
            initial,
            calls,
        })
}

/// splitmix64: the per-job coin of a call's `salt`.
fn mix(salt: u64, i: u64) -> u64 {
    let mut z = salt.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn candidate(id: u64, (crit, slack, remaining, key): RawJob) -> Candidate {
    Candidate {
        id: JobId(id),
        critical: SimTime::from_micros(crit),
        termination: if slack == u64::MAX {
            SimTime::MAX
        } else {
            SimTime::from_micros(crit + slack)
        },
        remaining: Cycles::new(remaining),
        key,
    }
}

fn is_positive(c: &Candidate) -> bool {
    c.key.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// Which of the cases the reused-builder oracle must cover a sequence
/// reached. "Kept" jobs are the positive-key jobs of the last overload
/// call, whose order the builder keeps.
#[derive(Debug, Clone, Copy, Default)]
struct Coverage {
    /// An overload call holds a kept job with the same `(critical, id)`
    /// but another key or remaining work.
    persisted_changed: bool,
    /// An overload call lacks a kept job and holds a job whose id is
    /// above every kept one.
    departed_and_arrived: bool,
    /// An overload call with two positive keys equal at distinct
    /// positions.
    equal_keys: bool,
    zero_key: bool,
    negative_key: bool,
    nan_key: bool,
    neg_infinite_key: bool,
    /// An overload call whose positive-key jobs are exactly the kept
    /// ones, with the kept keys permuted among them.
    kept_permuted: bool,
    /// A fast-path call between two overload calls.
    fast_between: bool,
    /// A skip-mode overload call right after a break-mode one, and the
    /// reverse.
    skip_after_break: bool,
    break_after_skip: bool,
    /// A call whose input is not in `(critical, id)` order.
    shuffled: bool,
    /// An overload call whose longest feasible key prefix (what greedy
    /// insertion accepts before its first rejection) is longer than the
    /// last overload call's by more than one, or shorter by at least two.
    prefix_grew: bool,
    prefix_shrank: bool,
    /// An overload call whose top-key candidate alone is infeasible (a
    /// prefix of 0) after an overload call with a prefix of a power of
    /// two, from which the prefix search's downward gallop probes 1.
    prefix_zero: bool,
    /// A skip-mode overload call that accepts a candidate after its first
    /// rejection, and one that rejects every later candidate.
    tail_accepts: bool,
    tail_rejects_all: bool,
}

impl Coverage {
    fn or(self, o: Coverage) -> Coverage {
        Coverage {
            persisted_changed: self.persisted_changed || o.persisted_changed,
            departed_and_arrived: self.departed_and_arrived || o.departed_and_arrived,
            equal_keys: self.equal_keys || o.equal_keys,
            zero_key: self.zero_key || o.zero_key,
            negative_key: self.negative_key || o.negative_key,
            nan_key: self.nan_key || o.nan_key,
            neg_infinite_key: self.neg_infinite_key || o.neg_infinite_key,
            kept_permuted: self.kept_permuted || o.kept_permuted,
            fast_between: self.fast_between || o.fast_between,
            skip_after_break: self.skip_after_break || o.skip_after_break,
            break_after_skip: self.break_after_skip || o.break_after_skip,
            shuffled: self.shuffled || o.shuffled,
            prefix_grew: self.prefix_grew || o.prefix_grew,
            prefix_shrank: self.prefix_shrank || o.prefix_shrank,
            prefix_zero: self.prefix_zero || o.prefix_zero,
            tail_accepts: self.tail_accepts || o.tail_accepts,
            tail_rejects_all: self.tail_rejects_all || o.tail_rejects_all,
        }
    }
}

/// Applies `call.change` to the live set `jobs`.
fn change(jobs: &mut Vec<Candidate>, call: &Call, next_id: &mut u64) {
    let salt = call.salt;
    match call.change {
        Change::Persist => {
            let mut keys = call.keys.iter().cycle();
            for (i, j) in jobs.iter_mut().enumerate() {
                match mix(salt, i as u64) % 8 {
                    0 => j.key = *keys.next().expect("keys is non-empty"),
                    1 => j.remaining = Cycles::new(j.remaining.get() / 2),
                    _ => {}
                }
            }
        }
        Change::Churn => {
            let mut i = 0;
            jobs.retain(|_| {
                i += 1;
                !mix(salt, i).is_multiple_of(4)
            });
            for &raw in &call.arrivals {
                jobs.push(candidate(*next_id, raw));
                *next_id += 1;
            }
        }
        Change::PermuteKeys => {
            let mut keys: Vec<f64> = jobs
                .iter()
                .filter(|j| is_positive(j))
                .map(|j| j.key)
                .collect();
            for k in (1..keys.len()).rev() {
                keys.swap(k, (mix(salt, k as u64) % (k as u64 + 1)) as usize);
            }
            let mut keys = keys.into_iter();
            for j in jobs.iter_mut().filter(|j| is_positive(j)) {
                j.key = keys.next().expect("one key per positive job");
            }
        }
        Change::Drain => {
            let keep = (salt % 3) as usize;
            jobs.truncate(keep);
        }
    }
}

/// How many candidates of `input`, taken in consideration order (key
/// descending, then critical time, then id), the oracle's schedule
/// `want` holds before the first one it lacks.
fn accepted_prefix(input: &[Candidate], want: &[Candidate]) -> usize {
    let mut order: Vec<&Candidate> = input.iter().filter(|j| is_positive(j)).collect();
    order.sort_by(|a, b| {
        b.key
            .total_cmp(&a.key)
            .then_with(|| (a.critical, a.id).cmp(&(b.critical, b.id)))
    });
    order
        .iter()
        .take_while(|j| want.iter().any(|w| w.id == j.id))
        .count()
}

/// Runs `seq` through one reused [`ScheduleBuilder`], comparing every
/// call with the naive oracle; returns the cases it reached, or the first
/// disagreement.
fn run_sequence(seq: &Sequence) -> Result<Coverage, String> {
    let mut builder = ScheduleBuilder::new();
    let mut buf = Vec::new();
    let mut jobs: Vec<Candidate> = seq
        .initial
        .iter()
        .enumerate()
        .map(|(i, &raw)| candidate(i as u64, raw))
        .collect();
    let mut next_id = jobs.len() as u64;
    let mut coverage = Coverage::default();
    // The kept jobs: `(critical, id, key bits, remaining)` of the last
    // overload call's positive-key jobs, sorted.
    let mut kept: Vec<(SimTime, JobId, u64, Cycles)> = Vec::new();
    let mut last_overload: Option<InsertionMode> = None;
    let mut last_prefix = 0;
    let mut fast_since_overload = false;

    for (n, call) in seq.calls.iter().enumerate() {
        change(&mut jobs, call, &mut next_id);
        let mode = if call.skip {
            InsertionMode::SkipInfeasible
        } else {
            InsertionMode::BreakOnInfeasible
        };
        let now = SimTime::from_micros(call.now_us);
        // Present the set in a shuffled order.
        buf.clear();
        buf.extend_from_slice(&jobs);
        for k in (1..buf.len()).rev() {
            buf.swap(
                k,
                (mix(call.salt ^ 0x5151, k as u64) % (k as u64 + 1)) as usize,
            );
        }
        let input = buf.clone();
        let reused = builder.rebuild(now, &mut buf, seq.f_m, mode).to_vec();
        let want = build_schedule_reference(now, input.clone(), seq.f_m, mode);
        if !same_schedule(&reused, &want) {
            return Err(format!(
                "call {n} ({:?}, {mode:?}, now {now:?}): reused {:?} != reference {:?}",
                call.change,
                reused.iter().map(|c| c.id).collect::<Vec<_>>(),
                want.iter().map(|c| c.id).collect::<Vec<_>>(),
            ));
        }

        let mut c = Coverage::default();
        for j in &input {
            c.zero_key |= j.key == 0.0;
            c.negative_key |= j.key < 0.0 && j.key.is_finite();
            c.nan_key |= j.key.is_nan();
            c.neg_infinite_key |= j.key == f64::NEG_INFINITY;
        }
        c.shuffled = input
            .windows(2)
            .any(|w| (w[0].critical, w[0].id) > (w[1].critical, w[1].id));
        let mut positive: Vec<(SimTime, JobId, u64, Cycles)> = input
            .iter()
            .filter(|j| is_positive(j))
            .map(|j| (j.critical, j.id, j.key.to_bits(), j.remaining))
            .collect();
        positive.sort_unstable();
        if want.len() < positive.len() {
            let at = |row: &(SimTime, JobId, u64, Cycles)| (row.0, row.1);
            let kept_at = |pos: (SimTime, JobId)| kept.iter().find(|k| at(k) == pos);
            c.persisted_changed = positive
                .iter()
                .any(|p| kept_at(at(p)).is_some_and(|k| (k.2, k.3) != (p.2, p.3)));
            let max_kept = kept.iter().map(|k| k.1).max();
            c.departed_and_arrived = kept
                .iter()
                .any(|k| !positive.iter().any(|p| at(p) == at(k)))
                && positive.iter().any(|p| max_kept.is_some_and(|m| p.1 > m));
            let mut keys: Vec<u64> = positive.iter().map(|p| p.2).collect();
            keys.sort_unstable();
            c.equal_keys = keys.windows(2).any(|w| w[0] == w[1]);
            let mut kept_keys: Vec<u64> = kept.iter().map(|k| k.2).collect();
            kept_keys.sort_unstable();
            c.kept_permuted = !kept.is_empty()
                && positive.len() == kept.len()
                && positive.iter().zip(&kept).all(|(p, k)| at(p) == at(k))
                && keys == kept_keys
                && positive.iter().zip(&kept).any(|(p, k)| p.2 != k.2);
            c.fast_between = fast_since_overload;
            c.skip_after_break = last_overload == Some(InsertionMode::BreakOnInfeasible)
                && mode == InsertionMode::SkipInfeasible;
            c.break_after_skip = last_overload == Some(InsertionMode::SkipInfeasible)
                && mode == InsertionMode::BreakOnInfeasible;
            let prefix = accepted_prefix(&input, &want);
            if last_overload.is_some() {
                c.prefix_grew = prefix > last_prefix + 1;
                c.prefix_shrank = prefix + 2 <= last_prefix;
                c.prefix_zero = prefix == 0 && last_prefix >= 2 && last_prefix.is_power_of_two();
            }
            if mode == InsertionMode::SkipInfeasible {
                c.tail_accepts = want.len() > prefix;
                c.tail_rejects_all = want.len() == prefix && positive.len() > prefix + 1;
            }
            kept = positive;
            last_prefix = prefix;
            last_overload = Some(mode);
            fast_since_overload = false;
        } else {
            fast_since_overload = last_overload.is_some();
        }
        coverage = coverage.or(c);
    }
    Ok(coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_builder_matches_the_oracle_at_every_call(seq in arb_sequence()) {
        if let Err(msg) = run_sequence(&seq) {
            prop_assert!(false, "{msg}");
        }
    }
}

/// The generated sequences reach every case the reused-builder oracle is
/// meant to cover; a generator change that stops reaching one fails here.
#[test]
fn generated_sequences_reach_every_case() {
    let strategy = arb_sequence();
    let mut rng = TestRng::seeded(7);
    let mut total = Coverage::default();
    for _ in 0..64 {
        let seq = strategy.sample_value(&mut rng);
        total = total.or(run_sequence(&seq).expect("the builder matches the oracle"));
    }
    let Coverage {
        persisted_changed,
        departed_and_arrived,
        equal_keys,
        zero_key,
        negative_key,
        nan_key,
        neg_infinite_key,
        kept_permuted,
        fast_between,
        skip_after_break,
        break_after_skip,
        shuffled,
        prefix_grew,
        prefix_shrank,
        prefix_zero,
        tail_accepts,
        tail_rejects_all,
    } = total;
    for (case, reached) in [
        ("persisted_changed", persisted_changed),
        ("departed_and_arrived", departed_and_arrived),
        ("equal_keys", equal_keys),
        ("zero_key", zero_key),
        ("negative_key", negative_key),
        ("nan_key", nan_key),
        ("neg_infinite_key", neg_infinite_key),
        ("kept_permuted", kept_permuted),
        ("fast_between", fast_between),
        ("skip_after_break", skip_after_break),
        ("break_after_skip", break_after_skip),
        ("shuffled", shuffled),
        ("prefix_grew", prefix_grew),
        ("prefix_shrank", prefix_shrank),
        ("prefix_zero", prefix_zero),
        ("tail_accepts", tail_accepts),
        ("tail_rejects_all", tail_rejects_all),
    ] {
        assert!(reached, "no sequence reached {case}: {total:?}");
    }
}
