//! Shared schedule-construction machinery: feasibility at `f_m` and the
//! greedy key-ordered insertion used by EUA\* (and DASA).
//!
//! Two implementations of the paper's Algorithm 1 lines 12–18 live here:
//!
//! * [`ScheduleBuilder`] — the production path. It sorts the candidates
//!   once into their fixed `(critical, id)` schedule positions, finds
//!   the longest feasible key prefix with a few linear scans, and tests
//!   each of skip mode's later insertions on a segment tree over those
//!   positions in O(log n), instead of re-walking the whole schedule
//!   through [`schedule_feasible`] at every attempt. Its buffers are
//!   reusable across scheduling events (see [`crate::Eua`]).
//! * [`build_schedule_reference`] — the naive textbook construction that
//!   re-checks [`schedule_feasible`] after every insertion. It is kept as
//!   the differential-testing oracle; the property suite asserts the two
//!   produce identical schedules.

use std::cmp::Ordering;
use std::hint::select_unpredictable;

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

    /// The leaf of one accepted entry: its execution time, and its
    /// termination less that time (+∞ for a [`SimTime::MAX`] one).
    fn leaf(exec: TimeDelta, termination: SimTime) -> Node {
        let exec = i128::from(exec.as_micros());
        let min = if termination == SimTime::MAX {
            i128::MAX
        } else {
            i128::from(termination.as_micros()).saturating_sub(exec)
        };
        Node { sum: exec, min }
    }
}

/// Greedy constructor of feasible critical-time-ordered schedules
/// (Algorithm 1 lines 12–18) with reusable buffers.
///
/// Insertion positions are partition points over the fixed total order
/// `(critical, id)`, which key-ordered consideration never changes, so
/// one sort gives every candidate its schedule position. Adding a job
/// never makes another finish earlier, so once a key-order prefix is
/// infeasible every longer one is too: both modes accept exactly the
/// longest feasible key prefix before their first rejection. The builder
/// finds it by galloping and bisecting over linear feasibility scans of
/// the position-ordered candidates, each scan [`schedule_feasible`]'s own
/// saturating `u64` walk over the candidates of rank below a bound. That
/// is O(n log n) at worst and about linear when the prefix moves little
/// between builds. Break mode stops there.
///
/// Skip mode goes on past that first rejection on a segment tree over
/// the positions (`Node`), built bottom-up from the prefix in O(n). Its
/// root's `min` is the least `termination − (finish − now)` of the
/// accepted schedule, so that schedule is feasible iff `root.min ≥ now`.
/// Each later candidate is a tentative O(log n) leaf update, kept iff the
/// root still passes and otherwise undone from the nodes its update
/// saved. The tree also computes exactly what [`schedule_feasible`] does:
/// saturating `u64` finish times exceed a finite termination exactly
/// when the unbounded sum does, and never exceed a [`SimTime::MAX`] one,
/// which the tree counts as +∞.
///
/// Across calls the builder keeps its buffers and two pieces of state:
/// the last overload build's consideration order, as `(critical, id,
/// rank)` rows, and its prefix length. The next overload build starts
/// its key sort from that order, so jobs whose keys kept their relative
/// order cost the sort about linear time, and its prefix search from
/// that length. The sort's pairs are distinct, so its result is the same
/// whatever order it starts from, and the prefix predicate has one
/// boundary whatever the search's start: a builder reused across
/// scheduling events, runs or policies builds byte-identical schedules
/// to a fresh one, and only its speed depends on what it kept.
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    /// Each candidate's execution time at `f_max`, by position.
    exec: Vec<TimeDelta>,
    /// `(!key.to_bits(), position)` pairs, sorted into consideration
    /// order.
    order: Vec<(u64, usize)>,
    /// The last overload build's `(critical, id, rank)` rows in position
    /// order, `rank` being the row's index in that build's `order`. The
    /// fast path neither reads nor updates them.
    kept: Vec<(SimTime, JobId, usize)>,
    /// The last overload build's longest feasible key prefix, where the
    /// next one's search starts. The fast path neither reads nor updates
    /// it.
    prefix: usize,
    /// Skip mode's tree, 1-based: node `i` has children `2i` and
    /// `2i + 1`, and position `p` is leaf `tree.len() / 2 + p`.
    tree: Vec<Node>,
    /// Skip mode's copies of the ancestors below the root that the
    /// current insertion re-merged, parent first.
    saved: Vec<Node>,
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
        // `(critical, id)` tie-break. The pairs are distinct, so the sort
        // gives one result from any starting order; starting from the
        // last overload build's (`seed_order`) only makes it faster.
        self.seed_order(candidates);
        sort_nearly_sorted(&mut self.order);
        self.keep_order(candidates);
        // Both modes accept the longest feasible key prefix; break mode
        // stops there, and skip mode goes on past its first rejection.
        let prefix = self.longest_feasible_prefix(now, candidates);
        self.prefix = prefix;
        self.accepted.clear();
        self.accepted
            .extend(self.kept.iter().map(|&(_, _, rank)| rank < prefix));
        if mode == InsertionMode::SkipInfeasible {
            self.skip_tail(now, candidates, prefix);
        }
        // Acceptance follows key order, not position: compact the
        // accepted candidates to the front without a branch on it.
        let mut len = 0;
        for p in 0..candidates.len() {
            candidates[len] = candidates[p];
            len += usize::from(self.accepted[p]);
        }
        candidates.truncate(len);
        self.schedule.append(candidates);
        &self.schedule
    }

    /// The longest key-order prefix that is feasible in position order,
    /// i.e. what greedy insertion accepts before its first rejection.
    /// Adding a job never makes another finish earlier, so every prefix
    /// of a feasible prefix is feasible: the predicate has one boundary.
    /// The search gallops from the last overload build's prefix
    /// (`self.prefix`) to it and then bisects, so its result does not
    /// depend on where it starts.
    fn longest_feasible_prefix(&self, now: SimTime, candidates: &[Candidate]) -> usize {
        let n = candidates.len();
        let fits = |k| self.prefix_feasible(now, candidates, k);
        // The empty prefix fits, and the whole set does not (the fast
        // path failed), so each gallop takes its end without a scan.
        // Afterwards prefix `lo` fits and prefix `hi` does not.
        let start = self.prefix.min(n - 1);
        let (mut lo, mut hi) = if start == 0 || fits(start) {
            let (mut lo, mut step) = (start, 1);
            loop {
                let k = lo + step;
                if k >= n || !fits(k) {
                    break (lo, k.min(n));
                }
                lo = k;
                step *= 2;
            }
        } else {
            let (mut hi, mut step) = (start, 1);
            loop {
                let k = hi.saturating_sub(step);
                if k == 0 || fits(k) {
                    break (k, hi);
                }
                hi = k;
                step *= 2;
            }
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether the candidates of key rank below `k` are feasible in
    /// position order: [`schedule_feasible`]'s saturating walk over the
    /// position-ordered candidates, each other candidate taken as no
    /// work and no termination.
    fn prefix_feasible(&self, now: SimTime, candidates: &[Candidate], k: usize) -> bool {
        // Membership follows key order, not position, so a branch on it
        // mispredicts about as often as it is taken: select without one,
        // and test lateness once at the end.
        let mut t = now.as_micros();
        let mut late = false;
        for ((&(_, _, rank), exec), c) in self.kept.iter().zip(&self.exec).zip(candidates) {
            let member = rank < k;
            t = t.saturating_add(select_unpredictable(member, exec.as_micros(), 0));
            late |= t > select_unpredictable(member, c.termination.as_micros(), u64::MAX);
        }
        !late
    }

    /// Skip mode past the first rejection, which is the candidate of
    /// rank `prefix`: builds the tree bottom-up from the accepted prefix,
    /// then tries each later candidate in key order, keeping it iff the
    /// root still passes and otherwise undoing it from the saved nodes.
    fn skip_tail(&mut self, now: SimTime, candidates: &[Candidate], prefix: usize) {
        if prefix + 1 >= candidates.len() {
            return;
        }
        // At least two leaves, so the root always has two children.
        let leaves = candidates.len().next_power_of_two().max(2);
        self.tree.clear();
        self.tree.resize(2 * leaves, Node::EMPTY);
        for (p, (&accepted, c)) in self.accepted.iter().zip(candidates).enumerate() {
            if accepted {
                self.tree[leaves + p] = Node::leaf(self.exec[p], c.termination);
            }
        }
        for i in (1..leaves).rev() {
            self.tree[i] = Node::merge(self.tree[2 * i], self.tree[2 * i + 1]);
        }
        // One slot per level strictly between the leaves and the root.
        self.saved.clear();
        self.saved
            .resize(leaves.trailing_zeros() as usize - 1, Node::EMPTY);
        let start = i128::from(now.as_micros());
        for &(_, p) in self.order.iter().skip(prefix + 1) {
            let leaf = leaves + p;
            let node = Node::leaf(self.exec[p], candidates[p].termination);
            set_leaf_saving(&mut self.tree, leaf, node, &mut self.saved);
            if self.tree[1].min < start {
                undo_leaf(&mut self.tree, leaf, &self.saved);
            } else {
                self.accepted[p] = true;
            }
        }
    }

    /// Fills `order` with the `(!key.to_bits(), position)` pairs of the
    /// position-sorted `candidates`: first those of jobs the last
    /// overload build held, in that build's consideration order, then the
    /// new ones in position order. Both `candidates` and the kept rows
    /// are in `(critical, id)` order, so one merge-join finds the jobs
    /// the two builds share.
    fn seed_order(&mut self, candidates: &[Candidate]) {
        // Each kept rank gets a slot; the slots of jobs that left keep
        // this placeholder and are dropped at the end.
        const GONE: (u64, usize) = (0, usize::MAX);
        self.order.clear();
        self.order.resize(self.kept.len(), GONE);
        let mut k = 0;
        for (p, c) in candidates.iter().enumerate() {
            let pair = (!c.key.to_bits(), p);
            let at = (c.critical, c.id);
            while self
                .kept
                .get(k)
                .is_some_and(|&(crit, id, _)| (crit, id) < at)
            {
                k += 1;
            }
            match self.kept.get(k) {
                Some(&(crit, id, rank)) if (crit, id) == at => {
                    self.order[rank] = pair;
                    k += 1;
                }
                _ => self.order.push(pair),
            }
        }
        self.order.retain(|&slot| slot != GONE);
    }

    /// Keeps the sorted `order` as the rows the next overload build
    /// seeds its sort from.
    fn keep_order(&mut self, candidates: &[Candidate]) {
        self.kept.clear();
        self.kept
            .resize(candidates.len(), (SimTime::ZERO, JobId(0), 0));
        for (rank, &(_, p)) in self.order.iter().enumerate() {
            self.kept[p] = (candidates[p].critical, candidates[p].id, rank);
        }
    }
}

/// Sorts `order`, which the seeding leaves nearly sorted (in
/// `overload_backlog` about one descent and 53 insertion moves per build
/// of about 145 pairs), by insertion while that takes at most `4n` moves
/// in all, and by the standard library's sort otherwise, so the worst
/// case stays O(n log n).
fn sort_nearly_sorted(order: &mut [(u64, usize)]) {
    let mut budget = 4 * order.len();
    for i in 1..order.len() {
        let pair = order[i];
        let mut j = i;
        while j > 0 && order[j - 1] > pair {
            if budget == 0 {
                order[j] = pair;
                order.sort();
                return;
            }
            budget -= 1;
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = pair;
    }
}

/// Writes `node` into `leaf` and re-merges its ancestors up to the root,
/// so that [`undo_leaf`] can take it back: it copies each ancestor below
/// the root into `saved` (one slot per level, parent first) before
/// re-merging it. The root is not saved, since every insertion re-merges
/// it before anything reads it.
fn set_leaf_saving(tree: &mut [Node], leaf: usize, node: Node, saved: &mut [Node]) {
    let mut i = leaf;
    tree[i] = node;
    for slot in saved {
        i /= 2;
        *slot = tree[i];
        tree[i] = Node::merge(tree[2 * i], tree[2 * i + 1]);
    }
    tree[1] = Node::merge(tree[2], tree[3]);
}

/// Undoes [`set_leaf_saving`] at `leaf`: empties the leaf (every leaf is
/// empty until its one insertion) and writes back the saved ancestors.
/// The root keeps the rejected insertion until the next one re-merges it.
fn undo_leaf(tree: &mut [Node], leaf: usize, saved: &[Node]) {
    let mut i = leaf;
    tree[i] = Node::EMPTY;
    for &node in saved {
        i /= 2;
        tree[i] = node;
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
