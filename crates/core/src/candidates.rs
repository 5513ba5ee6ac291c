//! Shared schedule-construction machinery: feasibility at `f_m` and the
//! greedy key-ordered insertion used by EUA\* (and DASA).
//!
//! Two implementations of the paper's Algorithm 1 lines 12–18 live here:
//!
//! * [`ScheduleBuilder`] — the production path. It sorts the candidates
//!   once into their fixed `(critical, id)` schedule positions and tests
//!   each insertion on a segment tree over those positions in O(log n),
//!   instead of re-walking the whole schedule through
//!   [`schedule_feasible`] at every attempt. Its buffers are reusable
//!   across scheduling events (see [`crate::Eua`]).
//! * [`build_schedule_reference`] — the naive textbook construction that
//!   re-checks [`schedule_feasible`] after every insertion. It is kept as
//!   the differential-testing oracle; the property suite asserts the two
//!   produce identical schedules.

use std::cmp::Ordering;

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_sim::{JobId, JobView};

/// One schedulable job plus the ordering key (UER for EUA\*, utility
/// density for DASA) driving greedy insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The job's id.
    pub id: JobId,
    /// Absolute critical time (schedule position key).
    pub critical: SimTime,
    /// Absolute termination time (feasibility bound).
    pub termination: SimTime,
    /// Believed remaining cycles.
    pub remaining: Cycles,
    /// The greedy ordering key; higher is better.
    pub key: f64,
}

impl Candidate {
    /// Builds a candidate from a live-job view with the given key.
    #[must_use]
    pub fn from_view(view: &JobView, key: f64) -> Self {
        Candidate {
            id: view.id,
            critical: view.critical_time,
            termination: view.termination,
            remaining: view.remaining,
            key,
        }
    }
}

/// Whether greedy construction stops at the first infeasible insertion
/// (the paper's Algorithm 1 `break`) or skips it and tries lower-key jobs
/// (DASA-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertionMode {
    /// Stop considering further jobs once one fails to fit (paper
    /// Algorithm 1 line 18).
    #[default]
    BreakOnInfeasible,
    /// Skip the failing job and keep trying the rest.
    SkipInfeasible,
}

/// Is a single job completable by its termination time at `f_m`?
/// (Algorithm 1 line 10's per-job test.)
#[must_use]
pub fn job_feasible(now: SimTime, view: &JobView, f_max: Frequency) -> bool {
    now.saturating_add(f_max.execution_time(view.remaining)) <= view.termination
}

/// The paper's `feasible(σ)`: executing the critical-time-ordered
/// `schedule` back-to-back at `f_max` starting at `now`, does every job
/// finish by its termination time?
#[must_use]
pub fn schedule_feasible(now: SimTime, schedule: &[Candidate], f_max: Frequency) -> bool {
    let mut t = now;
    for c in schedule {
        t = t.saturating_add(f_max.execution_time(c.remaining));
        if t > c.termination {
            return false;
        }
    }
    true
}

/// NaN keys sort as if they were −∞, i.e. strictly after every real key.
/// They can only arise from a degenerate UER (0/0); treating them as
/// worst-possible keeps the ordering total *and* deterministic, and the
/// strictly-positive guard then excludes them from the schedule.
fn sort_key(key: f64) -> f64 {
    if key.is_nan() {
        f64::NEG_INFINITY
    } else {
        key
    }
}

/// The deterministic consideration order of greedy insertion:
/// non-increasing key (NaN last, via [`sort_key`]), ties broken by earlier
/// critical time, then id. `f64::total_cmp` makes the comparator a total
/// order, so the sort cannot reorder equal-key runs differently between
/// builds.
fn consideration_order(a: &Candidate, b: &Candidate) -> Ordering {
    sort_key(b.key)
        .total_cmp(&sort_key(a.key))
        .then_with(|| a.critical.cmp(&b.critical))
        .then_with(|| a.id.cmp(&b.id))
}

/// A segment-tree node: the accepted entries among a range of schedule
/// positions, run back to back from time 0 at `f_max`.
///
/// * `sum` — their total execution time;
/// * `min` — the least `termination − finish` over them, with `finish`
///   counting only the execution accepted within the range (+∞, i.e.
///   `i128::MAX`, for an empty range or a [`SimTime::MAX`] termination).
///
/// In `i128` µs a sum of `n` execution times stays below `n · 2^64`, so
/// nothing overflows, and +∞ stays far above every `now` however much
/// is subtracted from it.
#[derive(Debug, Clone, Copy)]
struct Node {
    sum: i128,
    min: i128,
}

impl Node {
    const EMPTY: Node = Node {
        sum: 0,
        min: i128::MAX,
    };

    /// Range `l` followed by range `r`: every entry of `r` finishes
    /// `l.sum` later.
    fn merge(l: Node, r: Node) -> Node {
        Node {
            sum: l.sum + r.sum,
            min: l.min.min(r.min - l.sum),
        }
    }
}

/// Greedy constructor of feasible critical-time-ordered schedules
/// (Algorithm 1 lines 12–18) with reusable buffers.
///
/// Insertion positions are partition points over the fixed total order
/// `(critical, id)`, which key-ordered consideration never changes, so
/// one sort gives every candidate its schedule position. A segment tree
/// over those positions (`Node`) summarises the accepted entries; its
/// root's `min` is the least `termination − (finish − now)` of the whole
/// schedule, so the schedule is feasible iff `root.min ≥ now`. A
/// candidate is a tentative leaf update, kept iff the root still passes;
/// a rejected one is undone, or ends the build in break mode. That is
/// O(log n) per candidate, O(n log n) per rebuild.
///
/// The tree computes exactly what [`schedule_feasible`] does. Its
/// saturating `u64` finish times exceed a finite termination exactly when
/// the unbounded sum does, and never exceed a [`SimTime::MAX`] one,
/// which the tree counts as +∞.
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    /// Each candidate's execution time at `f_max`, by position.
    exec: Vec<TimeDelta>,
    /// `(!key.to_bits(), position)` pairs, sorted into consideration
    /// order.
    order: Vec<(u64, usize)>,
    /// The tree, 1-based: node `i` has children `2i` and `2i + 1`, and
    /// position `p` is leaf `tree.len() / 2 + p`.
    tree: Vec<Node>,
    /// Whether the candidate at each position was inserted.
    accepted: Vec<bool>,
    schedule: Vec<Candidate>,
}

impl ScheduleBuilder {
    /// An empty builder; buffers grow on first use and are retained
    /// across [`ScheduleBuilder::rebuild`] calls.
    #[must_use]
    pub fn new() -> Self {
        ScheduleBuilder::default()
    }

    /// The most recently built schedule.
    #[must_use]
    pub fn schedule(&self) -> &[Candidate] {
        &self.schedule
    }

    /// Greedy construction of a feasible critical-time-ordered schedule.
    ///
    /// Considers `candidates` by non-increasing key, ties broken by
    /// earlier critical time and then id (draining the vector but
    /// keeping its capacity for reuse), inserts each at its
    /// critical-time position, and keeps the insertion only if the
    /// schedule remains feasible. Only candidates with a strictly
    /// positive key are considered (Algorithm 1 line 14's `UER > 0`
    /// guard); NaN keys are excluded by the same guard.
    ///
    /// The paper leaves the order of entries with *equal* critical times
    /// unspecified; this implementation places them in id (= arrival)
    /// order, which matches EDF's `(critical, id)` dispatch tie-break.
    /// Under the conditions of Theorem 2 the constructed schedule is then
    /// *identical* to EDF's, not merely tie-equivalent. Key priority
    /// still decides which jobs survive when an insertion turns the
    /// schedule infeasible.
    // eua-lint: hot
    pub fn rebuild(
        &mut self,
        now: SimTime,
        candidates: &mut Vec<Candidate>,
        f_max: Frequency,
        mode: InsertionMode,
    ) -> &[Candidate] {
        // Non-positive (and NaN) keys never enter any schedule: in the
        // key-descending consideration order they sort last and the first
        // one ends consideration in both insertion modes. Dropping them
        // up front is therefore exact, and it enables the fast path.
        candidates.retain(|c| c.key.partial_cmp(&0.0) == Some(Ordering::Greater));
        // Schedule positions. Job ids are unique, so no two candidates
        // tie and the unstable sort is exact.
        candidates.sort_unstable_by_key(|c| (c.critical, c.id));
        self.exec.clear();
        self.exec
            .extend(candidates.iter().map(|c| f_max.execution_time(c.remaining)));
        self.schedule.clear();

        // Fast path: if the WHOLE candidate set is feasible in position
        // order, greedy insertion cannot reject anything — every
        // intermediate schedule is a subset of the full one in the same
        // relative order, and removing entries from a feasible
        // critical-ordered schedule only lowers later finish times. The
        // result is then every candidate, regardless of key order or
        // insertion mode.
        let mut t = now;
        let all_fit = candidates.iter().zip(&self.exec).all(|(c, &exec)| {
            t = t.saturating_add(exec);
            t <= c.termination
        });
        if all_fit {
            self.schedule.append(candidates);
            return &self.schedule;
        }

        // Overload: consider the candidates in key order. The retained
        // keys are positive and never NaN, so their bit patterns order as
        // the keys do, and position order is `consideration_order`'s
        // `(critical, id)` tie-break.
        self.order.clear();
        self.order.extend(
            candidates
                .iter()
                .enumerate()
                .map(|(p, c)| (!c.key.to_bits(), p)),
        );
        self.order.sort_unstable();
        let leaves = candidates.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * leaves, Node::EMPTY);
        self.accepted.clear();
        self.accepted.resize(candidates.len(), false);
        let start = i128::from(now.as_micros());
        for &(_, p) in &self.order {
            let exec = i128::from(self.exec[p].as_micros());
            let termination = candidates[p].termination;
            let min = if termination == SimTime::MAX {
                i128::MAX
            } else {
                i128::from(termination.as_micros()).saturating_sub(exec)
            };
            set_leaf(&mut self.tree, leaves + p, Node { sum: exec, min });
            if self.tree[1].min >= start {
                self.accepted[p] = true;
                continue;
            }
            if mode == InsertionMode::BreakOnInfeasible {
                break;
            }
            set_leaf(&mut self.tree, leaves + p, Node::EMPTY);
        }
        self.schedule.extend(
            candidates
                .iter()
                .zip(&self.accepted)
                .filter_map(|(c, &accepted)| accepted.then_some(*c)),
        );
        candidates.clear();
        &self.schedule
    }
}

/// Writes `node` into `leaf` and re-merges its ancestors up to the root.
fn set_leaf(tree: &mut [Node], leaf: usize, node: Node) {
    let mut i = leaf;
    tree[i] = node;
    while i > 1 {
        i /= 2;
        tree[i] = Node::merge(tree[2 * i], tree[2 * i + 1]);
    }
}

/// One-shot greedy schedule construction; see [`ScheduleBuilder::rebuild`]
/// for the full contract. Call sites with a per-event cadence should hold
/// a [`ScheduleBuilder`] instead to reuse its buffers.
#[must_use]
pub fn build_schedule(
    now: SimTime,
    mut candidates: Vec<Candidate>,
    f_max: Frequency,
    mode: InsertionMode,
) -> Vec<Candidate> {
    let mut builder = ScheduleBuilder::new();
    builder.rebuild(now, &mut candidates, f_max, mode);
    builder.schedule
}

/// The naive reference construction: identical consideration order and
/// insertion positions to [`ScheduleBuilder::rebuild`], but every
/// insertion is validated by a full [`schedule_feasible`] re-walk.
///
/// Retained solely as the differential-testing oracle for the incremental
/// builder — do not use it on hot paths.
#[must_use]
pub fn build_schedule_reference(
    now: SimTime,
    mut candidates: Vec<Candidate>,
    f_max: Frequency,
    mode: InsertionMode,
) -> Vec<Candidate> {
    candidates.sort_by(consideration_order);
    let mut schedule: Vec<Candidate> = Vec::with_capacity(candidates.len());
    for cand in candidates {
        if cand.key.partial_cmp(&0.0) != Some(Ordering::Greater) {
            break;
        }
        let pos = schedule.partition_point(|c| (c.critical, c.id) < (cand.critical, cand.id));
        schedule.insert(pos, cand);
        if !schedule_feasible(now, &schedule, f_max) {
            schedule.remove(pos);
            match mode {
                InsertionMode::BreakOnInfeasible => break,
                InsertionMode::SkipInfeasible => continue,
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, critical: u64, termination: u64, remaining: u64, key: f64) -> Candidate {
        Candidate {
            id: JobId(id),
            critical: SimTime::from_micros(critical),
            termination: SimTime::from_micros(termination),
            remaining: Cycles::new(remaining),
            key,
        }
    }

    fn fm() -> Frequency {
        Frequency::from_mhz(100)
    }

    #[test]
    fn single_job_feasibility() {
        let view = JobView {
            id: JobId(0),
            task: eua_sim::TaskId(0),
            arrival: SimTime::ZERO,
            critical_time: SimTime::from_micros(50),
            termination: SimTime::from_micros(100),
            remaining: Cycles::new(5_000), // 50 µs at 100 MHz
            executed: Cycles::ZERO,
        };
        assert!(job_feasible(SimTime::from_micros(50), &view, fm()));
        assert!(!job_feasible(SimTime::from_micros(51), &view, fm()));
    }

    #[test]
    fn schedule_feasibility_accumulates_backlog() {
        // Two jobs of 50 µs each; terminations at 60 and 100 µs.
        let a = cand(0, 60, 60, 5_000, 1.0);
        let b = cand(1, 100, 100, 5_000, 1.0);
        assert!(schedule_feasible(SimTime::ZERO, &[a, b], fm()));
        // Reversed order misses a's termination.
        assert!(!schedule_feasible(SimTime::ZERO, &[b, a], fm()));
        // Starting later, even the good order fails.
        assert!(!schedule_feasible(SimTime::from_micros(20), &[a, b], fm()));
    }

    #[test]
    fn build_schedule_orders_by_critical_time() {
        let jobs = vec![
            cand(0, 300, 300, 1_000, 5.0),
            cand(1, 100, 100, 1_000, 1.0),
            cand(2, 200, 200, 1_000, 3.0),
        ];
        let sched = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::BreakOnInfeasible);
        let order: Vec<u64> = sched.iter().map(|c| c.id.get()).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn low_key_job_dropped_when_it_breaks_feasibility() {
        // High-key job takes the whole window; low-key job cannot fit.
        let jobs = vec![
            cand(0, 100, 100, 10_000, 10.0), // 100 µs of work
            cand(1, 100, 100, 10_000, 1.0),
        ];
        let sched = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::BreakOnInfeasible);
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].id, JobId(0));
    }

    #[test]
    fn break_mode_stops_at_first_failure_skip_mode_continues() {
        // key order: j0 (fits), j1 (doesn't fit), j2 (would fit).
        let jobs = vec![
            cand(0, 50, 50, 4_000, 10.0),  // 40 µs
            cand(1, 60, 60, 5_000, 5.0),   // 50 µs — infeasible after j0
            cand(2, 500, 500, 1_000, 1.0), // 10 µs — plenty of slack
        ];
        let brk = build_schedule(
            SimTime::ZERO,
            jobs.clone(),
            fm(),
            InsertionMode::BreakOnInfeasible,
        );
        assert_eq!(brk.iter().map(|c| c.id.get()).collect::<Vec<_>>(), vec![0]);
        let skip = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::SkipInfeasible);
        assert_eq!(
            skip.iter().map(|c| c.id.get()).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn non_positive_keys_are_excluded() {
        let jobs = vec![
            cand(0, 100, 100, 1_000, 0.0),
            cand(1, 100, 100, 1_000, -1.0),
        ];
        assert!(build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::default()).is_empty());
    }

    #[test]
    fn equal_critical_times_dispatch_in_id_order() {
        let jobs = vec![
            cand(7, 100, 200, 1_000, 3.0),
            cand(3, 100, 200, 1_000, 2.0),
            cand(5, 100, 200, 1_000, 1.0),
        ];
        let sched = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::default());
        // Equal critical times order by id (EDF's tie-break), regardless
        // of the key order the candidates were considered in.
        assert_eq!(
            sched.iter().map(|c| c.id.get()).collect::<Vec<_>>(),
            vec![3, 5, 7]
        );
    }

    #[test]
    fn equal_critical_ties_still_drop_low_key_jobs_first() {
        // Two 60 µs jobs, same critical/termination at 100 µs: only one
        // fits. The high-key job is inserted first and survives; the
        // low-key job fails feasibility and is dropped even though its id
        // would place it earlier.
        let jobs = vec![cand(1, 100, 100, 6_000, 0.5), cand(9, 100, 100, 6_000, 8.0)];
        let sched = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::SkipInfeasible);
        assert_eq!(
            sched.iter().map(|c| c.id.get()).collect::<Vec<_>>(),
            vec![9]
        );
    }

    #[test]
    fn nan_keys_do_not_panic() {
        let jobs = vec![
            cand(0, 100, 100, 1_000, f64::NAN),
            cand(1, 90, 100, 1_000, 2.0),
        ];
        let sched = build_schedule(SimTime::ZERO, jobs, fm(), InsertionMode::default());
        // The NaN-keyed job sorts last and must not crash; the
        // positive-keyed job survives.
        assert!(sched.iter().any(|c| c.id == JobId(1)));
    }

    #[test]
    fn nan_keys_sort_last_and_never_schedule() {
        // Regression test for the `partial_cmp(..).unwrap_or(Equal)`
        // comparator: a NaN key used to sort *wherever the input order
        // left it* (Equal against everything), making the schedule depend
        // on input permutation — and, worse, a NaN that landed before the
        // break guard was inserted as if it had a positive key. With
        // `total_cmp` over the NaN→−∞ sort key, every permutation pins
        // the same schedule and the NaN entry is always excluded.
        let jobs = [
            cand(0, 100, 400, 1_000, f64::NAN),
            cand(1, 200, 400, 1_000, 3.0),
            cand(2, 300, 400, 1_000, 1.0),
            cand(3, 50, 400, 1_000, f64::NAN),
        ];
        let expect = vec![1u64, 2];
        // All 24 permutations of the four candidates.
        let mut idx = [0usize, 1, 2, 3];
        let mut perms = Vec::new();
        heap_permutations(&mut idx, 4, &mut perms);
        assert_eq!(perms.len(), 24);
        for perm in perms {
            let permuted: Vec<Candidate> = perm.iter().map(|&i| jobs[i]).collect();
            for mode in [
                InsertionMode::BreakOnInfeasible,
                InsertionMode::SkipInfeasible,
            ] {
                let sched = build_schedule(SimTime::ZERO, permuted.clone(), fm(), mode);
                assert_eq!(
                    sched.iter().map(|c| c.id.get()).collect::<Vec<_>>(),
                    expect,
                    "permutation {perm:?} mode {mode:?}"
                );
            }
        }
    }

    fn heap_permutations(idx: &mut [usize; 4], k: usize, out: &mut Vec<[usize; 4]>) {
        if k == 1 {
            out.push(*idx);
            return;
        }
        for i in 0..k {
            heap_permutations(idx, k - 1, out);
            if k.is_multiple_of(2) {
                idx.swap(i, k - 1);
            } else {
                idx.swap(0, k - 1);
            }
        }
    }

    #[test]
    fn builder_matches_reference_on_handcrafted_sets() {
        let sets = [
            vec![],
            vec![cand(0, 10, 10, 2_000, 1.0)],
            vec![
                cand(0, 50, 50, 4_000, 10.0),
                cand(1, 60, 60, 5_000, 5.0),
                cand(2, 500, 500, 1_000, 1.0),
                cand(3, 70, 90, 3_000, 7.0),
                cand(4, 70, 90, 3_000, 7.0),
            ],
            // Saturating-time edge: a termination at the MAX sentinel.
            vec![
                cand(0, 100, u64::MAX, u64::MAX, 2.0),
                cand(1, 50, 120, 4_000, 1.0),
            ],
        ];
        for set in sets {
            for mode in [
                InsertionMode::BreakOnInfeasible,
                InsertionMode::SkipInfeasible,
            ] {
                let fast = build_schedule(SimTime::ZERO, set.clone(), fm(), mode);
                let slow = build_schedule_reference(SimTime::ZERO, set.clone(), fm(), mode);
                assert_eq!(fast, slow, "set {set:?} mode {mode:?}");
                assert!(schedule_feasible(SimTime::ZERO, &fast, fm()));
            }
        }
    }

    #[test]
    fn builder_buffers_are_reusable() {
        let mut builder = ScheduleBuilder::new();
        let mut buf = vec![cand(0, 100, 100, 1_000, 2.0), cand(1, 200, 200, 1_000, 1.0)];
        let first: Vec<u64> = builder
            .rebuild(SimTime::ZERO, &mut buf, fm(), InsertionMode::default())
            .iter()
            .map(|c| c.id.get())
            .collect();
        assert_eq!(first, vec![0, 1]);
        assert!(buf.is_empty(), "rebuild drains the candidate buffer");
        // Refill and rebuild from a different state: no stale entries.
        buf.push(cand(7, 50, 50, 1_000, 1.0));
        let second: Vec<u64> = builder
            .rebuild(SimTime::ZERO, &mut buf, fm(), InsertionMode::default())
            .iter()
            .map(|c| c.id.get())
            .collect();
        assert_eq!(second, vec![7]);
    }
}
