//! Shared schedule-construction machinery: feasibility at `f_m` and the
//! greedy key-ordered insertion used by EUA\* (and DASA).
//!
//! Two implementations of the paper's Algorithm 1 lines 12–18 live here:
//!
//! * [`ScheduleBuilder`] — the production path. It maintains per-position
//!   finish times and a suffix-minimum of slack so every insertion is
//!   tested in O(1) and an *accepted* insertion costs one O(n) incremental
//!   update, instead of re-walking the whole schedule through
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

/// Incremental constructor of feasible critical-time-ordered schedules
/// (Algorithm 1 lines 12–18) with reusable buffers.
///
/// Alongside each scheduled candidate the builder maintains (in one
/// cache-line-sized [`Entry`], so an insertion is a single memmove):
///
/// * `finish` — the entry's back-to-back finish time starting at `now`;
/// * `entry_slack` — the entry's own tolerance `termination − finish`
///   ([`TimeDelta::MAX`] when the termination is the [`SimTime::MAX`]
///   sentinel, which tolerates any shift);
/// * `slack` — the suffix minimum of `entry_slack` from this position on.
///
/// **Invariant** (after every accepted insertion): `finish[i]` equals the
/// cumulative saturating sum of execution times through position `i`, and
/// `slack[i] = min(entry_slack[i..])`. Inserting a candidate with
/// execution time `e` at position `p` then keeps the schedule feasible
/// **iff** the candidate itself finishes by its termination
/// (`finish[p−1] + e ≤ termination`) **and** every later entry tolerates
/// the shift (`e ≤ slack[p]`) — an O(1) test. Positions before `p` are
/// untouched by the insertion and were feasible already.
///
/// An accepted insertion updates the tail in one fused forward pass:
/// entries after `p` have their finish raised and both slack fields
/// lowered by `e`. The suffix minimum never needs recomputation there —
/// every tolerance in the suffix drops by the same `e` (pinned
/// [`TimeDelta::MAX`] sentinels excepted, and a sentinel can never be the
/// minimum of a suffix containing a finite tolerance), so the minimum
/// drops by `e` too. The prefix `[0, p)` is then fixed with an early
/// exit: once a position's suffix minimum is unchanged, every earlier one
/// is too (it depends only on its own unchanged tolerance and the
/// unchanged minimum to its right). No division happens inside the
/// per-insertion loop; the naive re-walk paid one `execution_time`
/// division per schedule entry per attempt.
///
/// Saturating arithmetic composes: all addends are non-negative, so
/// `sat(sat(x+a)+b) = sat(x+a+b)` and the incrementally-maintained finish
/// times are exactly the ones the naive re-walk would compute. A finish
/// time can only saturate when the entry's termination is the
/// [`SimTime::MAX`] sentinel (otherwise feasibility bounds it), and those
/// entries' tolerances are pinned to [`TimeDelta::MAX`] and never
/// decremented, so saturation cannot make the incremental state drift
/// from the oracle's.
#[derive(Debug, Clone, Copy)]
struct Entry {
    cand: Candidate,
    finish: SimTime,
    entry_slack: TimeDelta,
    slack: TimeDelta,
}

/// Incremental constructor of feasible critical-time-ordered schedules;
/// see [`Entry`] for the maintained per-position state and its invariant.
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    entries: Vec<Entry>,
    schedule: Vec<Candidate>,
    /// Path-selection hysteresis, never correctness: `true` after a
    /// rebuild rejected a candidate, so the next rebuild skips the
    /// all-feasible fast-path probe (its sort + walk are wasted work in
    /// sustained overload). Cleared when a greedy pass accepts every
    /// candidate again. Both paths produce identical schedules, so a
    /// stale flag costs one misprediction, nothing else.
    overloaded: bool,
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
    /// Considers `candidates` in [`consideration_order`] (draining the
    /// vector but keeping its capacity for reuse), inserts each at its
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

        // Fast path: if the WHOLE candidate set is feasible in
        // (critical, id) order, greedy insertion cannot reject anything —
        // every intermediate schedule is a subset of the full one in the
        // same relative order, and removing entries from a feasible
        // critical-ordered schedule only lowers later finish times, so
        // each insertion's feasibility test passes. The result is then
        // the full set in (critical, id) order, regardless of key order
        // or insertion mode: one sort and one O(n) walk replace the
        // O(n²) insertion loop. (The differential suites pin this
        // equivalence against both the naive oracle and the pre-overhaul
        // engine.) The probe is skipped while `overloaded` — in sustained
        // overload it cannot succeed and its sort + walk are pure waste.
        if !self.overloaded {
            candidates.sort_by_key(|c| (c.critical, c.id));
            let mut t = now;
            let all_fit = candidates.iter().all(|c| {
                t = t.saturating_add(f_max.execution_time(c.remaining));
                t <= c.termination
            });
            if all_fit {
                self.schedule.clear();
                self.schedule.append(candidates);
                return &self.schedule;
            }
            self.overloaded = true;
        }

        // Slow path (overload): full greedy insertion in key order.
        //
        // This loop is O(n²): each accepted insertion pays a `Vec` shift
        // plus the fused tail walk below. The planned O(n log n)
        // replacement is ROADMAP item 3's segment tree. It rides on one
        // invariant: insertion positions are partition points over the
        // FIXED total order `(critical, id)`, which key-ordered
        // consideration never changes, so pre-sorting the candidates by
        // `(critical, id)` once gives each a fixed position index. Two
        // Fenwick trees over those positions (an exec-sum tree plus a
        // min-tree over per-entry slack) do not suffice: accepting a
        // candidate at position p lowers the slack of every accepted
        // entry after p, so a min-tree with point updates goes stale.
        // One segment tree answers both queries with point updates only.
        // Each node keeps the execution-time sum of its accepted entries
        // and the minimum, over them, of termination minus the execution
        // time accepted up to and including that entry within the node;
        // nodes merge as `min(left.min, right.min − left.sum)`. The
        // prefix sum gives the finish time before p, the suffix query
        // offset by that prefix gives the minimum slack after p, and
        // MAX-termination sentinels count as +∞. Each candidate then
        // costs O(log n), and the per-entry fields below (`finish`,
        // `entry_slack`, `slack`) go away with the tail shift. The guard
        // test `overload_fallback_scaling_guard` (crates/bench,
        // `#[ignore]`d) pins today's quadratic scaling so that rewrite
        // has a measured baseline to beat.
        let mut rejected = false;
        candidates.sort_by(consideration_order);
        self.entries.clear();
        for cand in candidates.drain(..) {
            // Sorted non-increasing with NaN last, so the first
            // non-positive (or NaN) key ends consideration entirely.
            if cand.key.partial_cmp(&0.0) != Some(Ordering::Greater) {
                break;
            }
            let exec = f_max.execution_time(cand.remaining);
            // Insert in (critical, id) order so equal critical times
            // dispatch in arrival order, exactly like the EDF baseline's
            // tie-break.
            let pos = self
                .entries
                .partition_point(|e| (e.cand.critical, e.cand.id) < (cand.critical, cand.id));
            let prev_finish = if pos == 0 {
                now
            } else {
                self.entries[pos - 1].finish
            };
            let own_finish = prev_finish.saturating_add(exec);
            let fits = own_finish <= cand.termination
                && (pos == self.entries.len() || exec <= self.entries[pos].slack);
            if !fits {
                rejected = true;
                match mode {
                    InsertionMode::BreakOnInfeasible => break,
                    InsertionMode::SkipInfeasible => continue,
                }
            }
            let own_slack = if cand.termination == SimTime::MAX {
                TimeDelta::MAX
            } else {
                cand.termination.saturating_since(own_finish)
            };
            self.entries.insert(
                pos,
                Entry {
                    cand,
                    finish: own_finish,
                    entry_slack: own_slack,
                    slack: own_slack, // placeholder; fixed after the shift
                },
            );
            // Fused tail shift: later entries finish `exec` later and
            // tolerate `exec` less. The feasibility test above guarantees
            // the subtractions cannot underflow, and each shifted entry's
            // `slack` (its old suffix minimum, which now covers exactly
            // the same entries) drops by `exec` too — MAX-pinned
            // sentinels excepted in both fields.
            for e in &mut self.entries[pos + 1..] {
                e.finish = e.finish.saturating_add(exec);
                if e.entry_slack != TimeDelta::MAX {
                    e.entry_slack = e.entry_slack.saturating_sub(exec);
                }
                if e.slack != TimeDelta::MAX {
                    e.slack = e.slack.saturating_sub(exec);
                }
            }
            // The new entry's suffix minimum, then the early-exiting
            // prefix fix-up.
            let right = match self.entries.get(pos + 1) {
                Some(e) => e.slack,
                None => TimeDelta::MAX,
            };
            self.entries[pos].slack = own_slack.min(right);
            for i in (0..pos).rev() {
                let v = self.entries[i].entry_slack.min(self.entries[i + 1].slack);
                if v == self.entries[i].slack {
                    break;
                }
                self.entries[i].slack = v;
            }
        }
        // A clean greedy pass means the set was fully feasible after
        // all — re-arm the fast-path probe for the next event.
        self.overloaded = rejected;
        self.schedule.clear();
        self.schedule.extend(self.entries.iter().map(|e| e.cand));
        &self.schedule
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
