//! Algorithm 2 — `decideFreq()`: EUA\*'s stochastic, UAM-aware DVS step.
//!
//! The analysis generalizes Pillai & Shin's look-ahead EDF to the UAM
//! model. It considers the interval up to the earliest absolute critical
//! time `D_a_n` among current task windows and tries to **defer as much
//! work as possible beyond it**: walking tasks in latest-critical-time-
//! first order (reverse EDF), it computes for each task the minimum number
//! of cycles `x` that must execute before `D_a_n` for the task to still
//! meet its own critical time, assuming worst-case aggregate demand `Util`
//! from earlier-critical-time tasks. The sum `s` of those minima, spread
//! over the time until `D_a_n`, is the required processor speed.
//!
//! Per Theorem 1, a task's sustainable demand is `C_i/D_i` with
//! `C_i = a_i·c_i` (all `a_i` window arrivals at the Chebyshev
//! allocation), which seeds the aggregate `Util`. Remaining demand inside
//! the current window is `C_i^r = c_i^r + (min(a_i, pending_i) − 1)·c_i`
//! (paper §3.3).
//!
//! The paper defines `D_i^a` and `C_i^r` **per current arrival window**,
//! not per live job: a window whose jobs have all completed still anchors
//! the analysis at its critical time (with zero remaining cycles), exactly
//! as a completed invocation does in Pillai & Shin's `defer()`. Dropping
//! that anchor makes the analysis defer work that later arrivals then
//! collide with — the [`LookAheadDvs`] state tracks window anchors from
//! observed arrivals for this reason.
//!
//! Further resolutions of pseudo-code ambiguities (documented in DESIGN.md
//! §3): tasks sharing the earliest critical time contribute `x = C_i^r`
//! and no `Util` adjustment (the `gap → 0` limit); tasks that are idle
//! with an expired window keep their static reservation inside `Util` and
//! are skipped by the deferral loop; `x` is clamped to `[0, C_i^r]` so
//! transient overload cannot drive `Util` negative.
//!
//! Between calls [`LookAheadDvs`] keeps one row per task (the task's
//! window, critical offset, `C_i/D_i`, `a_i` and allocation, its window
//! anchor, and what the last call found for it) and the last call's walk
//! order, so a call re-derives nothing its inputs did not change (DESIGN.md
//! §14.3). [`LookAheadDvs::reset`] clears the rows, anchors and constants
//! alike, and the order; so does a change in the task count. The next
//! call reads the constants afresh. A policy reused on another task set of
//! the same size must therefore be reset first, as the engine does before
//! every run.

use eua_platform::{Cycles, SimTime, TimeDelta};
use eua_sim::{JobId, SchedContext};

/// The outcome of the Algorithm 2 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsAnalysis {
    /// The continuous processor speed (cycles/µs) required to push all
    /// deferred work past the earliest critical time, already clamped to
    /// `[0, f_m]` (Algorithm 2 line 9).
    pub required_speed: f64,
    /// The earliest absolute critical time `D_a_n` among current windows,
    /// if any.
    pub earliest_critical: Option<SimTime>,
    /// The total cycles `s` that must execute before `D_a_n`.
    pub must_run_cycles: f64,
}

/// The stateful Algorithm 2 analysis: window anchors plus the `defer()`
/// computation. Owned by each DVS-capable policy ([`crate::Eua`],
/// look-ahead [`crate::EdfPolicy`]).
///
/// Call [`LookAheadDvs::analyze`] at **every** scheduling event so the
/// anchor bookkeeping observes every arrival (the engine invokes policies
/// at each arrival, so live views never miss one).
#[derive(Debug, Clone, Default)]
pub struct LookAheadDvs {
    /// One row per task, indexed by task.
    rows: Vec<TaskRow>,
    /// `Σ C_i/D_i` over all tasks, summed in task order (line 2).
    total_rate: f64,
    /// Task indices in walk order: rows in the walk first, latest
    /// critical time first, then task index. Each call re-sorts the
    /// previous call's order, which is nearly sorted already.
    order: Vec<usize>,
}

/// One task's row: its constants, its window anchor, and what this call
/// found for it.
#[derive(Debug, Clone, Copy)]
struct TaskRow {
    // The task's constants, read by `fill`.
    window: TimeDelta,
    critical_offset: TimeDelta,
    demand_rate: f64,
    max_arrivals: u32,
    allocation: f64,
    /// Start of the current arrival window (the first arrival at or after
    /// the previous window's end).
    anchor: Option<SimTime>,
    /// Live jobs of the task.
    pending: u32,
    /// `(critical, id, remaining)` of the earliest-critical live job.
    earliest: Option<(SimTime, JobId, Cycles)>,
    /// The task's critical time in the walk; `None` keeps it out.
    critical: Option<SimTime>,
    /// Remaining cycles `C_i^r` in the current window.
    remaining: f64,
}

impl LookAheadDvs {
    /// Creates an empty analysis state.
    #[must_use]
    pub fn new() -> Self {
        LookAheadDvs::default()
    }

    /// Clears the per-task rows (window anchors and task constants) and
    /// the walk order, for policy reuse across runs.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.order.clear();
    }

    /// Reads each task's constants into a fresh row, with no anchor.
    fn fill(&mut self, ctx: &SchedContext<'_>) {
        self.rows.clear();
        self.rows.extend(ctx.tasks.iter().map(|(_, task)| TaskRow {
            window: task.uam().window(),
            critical_offset: task.critical_offset(),
            demand_rate: task.demand_rate(),
            max_arrivals: task.uam().max_arrivals(),
            allocation: task.allocation().as_f64(),
            anchor: None,
            pending: 0,
            earliest: None,
            critical: None,
            remaining: 0.0,
        }));
        let mut total_rate = 0.0;
        for row in &self.rows {
            total_rate += row.demand_rate;
        }
        self.total_rate = total_rate;
        self.order.clear();
        self.order.extend(0..self.rows.len());
    }

    /// Observes the context's arrivals and runs the Algorithm 2 demand
    /// analysis.
    ///
    /// Returns `required_speed = 0` when no window is active. When the
    /// earliest critical time is already due (`D_a_n ≤ now`), the full
    /// `f_m` is required.
    // eua-lint: hot
    pub fn analyze(&mut self, ctx: &SchedContext<'_>) -> DvsAnalysis {
        if self.rows.len() != ctx.tasks.len() {
            self.fill(ctx);
        }
        let f_m = ctx.platform.f_max().as_f64();
        let LookAheadDvs {
            rows,
            total_rate,
            order,
        } = self;

        for row in rows.iter_mut() {
            row.pending = 0;
            row.earliest = None;
        }
        // One pass over the live jobs (they are in arrival order, so each
        // task's subsequence is too): count pending jobs, find the
        // earliest-critical one, and advance the window anchors from
        // observed arrivals.
        for j in ctx.jobs {
            let row = &mut rows[j.task.index()];
            row.pending += 1;
            match row.anchor {
                None => row.anchor = Some(j.arrival),
                Some(a) if j.arrival >= a.saturating_add(row.window) => {
                    row.anchor = Some(j.arrival);
                }
                _ => {}
            }
            if row
                .earliest
                .is_none_or(|(crit, id, _)| (j.critical_time, j.id) < (crit, id))
            {
                row.earliest = Some((j.critical_time, j.id, j.remaining));
            }
        }

        let mut earliest_critical: Option<SimTime> = None;
        for row in rows.iter_mut() {
            // The current window's critical time, while the window is
            // active and the critical time has not yet passed.
            let window_critical = row.anchor.and_then(|a| {
                let expiry = a.saturating_add(row.window);
                let crit = a.saturating_add(row.critical_offset);
                (ctx.now < expiry && crit > ctx.now).then_some(crit)
            });
            (row.critical, row.remaining) = match (row.earliest, window_critical) {
                (Some((first_critical, _, first_remaining)), wc) => {
                    let considered = row.pending.min(row.max_arrivals);
                    let remaining = first_remaining.as_f64()
                        + f64::from(considered.saturating_sub(1)) * row.allocation;
                    let critical = match wc {
                        Some(w) => w.min(first_critical),
                        None => first_critical,
                    };
                    (Some(critical), remaining)
                }
                // Completed-but-active window: it still anchors the
                // analysis horizon, with nothing left to run.
                (None, Some(w)) => (Some(w), 0.0),
                (None, None) => (None, 0.0),
            };
            if let Some(c) = row.critical {
                earliest_critical = Some(earliest_critical.map_or(c, |e| e.min(c)));
            }
        }

        let Some(earliest_critical) = earliest_critical else {
            return DvsAnalysis {
                required_speed: 0.0,
                earliest_critical: None,
                must_run_cycles: 0.0,
            };
        };

        // Reverse EDF order: latest critical time first (line 4), ties in
        // task order, and tasks outside the walk last. The last call left
        // the order nearly sorted, which the stable sort finishes in about
        // linear time.
        order.sort_by(|&a, &b| rows[b].critical.cmp(&rows[a].critical).then(a.cmp(&b)));

        // Aggregate worst-case utilization over ALL tasks (line 2). Tasks
        // without an active window keep their reservation: under UAM they
        // may release a full window of work at any instant.
        let mut util = *total_rate;
        let mut s = 0.0f64;
        for &i in order.iter() {
            let row = &rows[i];
            let Some(critical) = row.critical else { break };
            util -= row.demand_rate;
            let gap = critical.saturating_since(earliest_critical).as_micros() as f64;
            // Minimum cycles that must run before D_a_n so the task can
            // still finish by its own critical time at worst-case demand
            // `util` from more-urgent tasks (line 6), clamped to the
            // physically meaningful range.
            let need = row.remaining - (f_m - util) * gap;
            if gap > 0.0 && need <= 0.0 {
                // x = 0: all of it defers past D_a_n. The clamp below would
                // give x = ±0, and (r − ±0) / gap = r / gap and s + ±0 = s
                // (s is never −0), so this is the same arithmetic with the
                // division off the `util` dependency chain.
                util += row.remaining / gap;
                continue;
            }
            if need >= row.remaining {
                // x = C_r: none of it defers. The clamp below would give
                // x = C_r (±0 when C_r = 0), add (C_r − x) / gap = +0 to
                // `util` when gap > 0, and s + ±0 = s. The sign of a zero
                // `util` never reaches `need`, `s` or the result, so this
                // is the same arithmetic without the division on `util`.
                s += row.remaining;
                continue;
            }
            let x = need.clamp(0.0, row.remaining);
            if gap > 0.0 {
                util += (row.remaining - x) / gap;
            }
            s += x;
        }

        let horizon = earliest_critical.saturating_since(ctx.now).as_micros() as f64;
        let required_speed = if horizon <= 0.0 {
            f_m
        } else {
            (s / horizon).min(f_m)
        };
        DvsAnalysis {
            required_speed: required_speed.max(0.0),
            earliest_critical: Some(earliest_critical),
            must_run_cycles: s,
        }
    }
}

/// One-shot convenience wrapper over [`LookAheadDvs::analyze`] with fresh
/// anchor state — suitable for inspection and tests, but policies should
/// hold a persistent [`LookAheadDvs`] so completed windows keep anchoring
/// the analysis.
#[must_use]
pub fn decide_freq(ctx: &SchedContext<'_>) -> DvsAnalysis {
    LookAheadDvs::new().analyze(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{Cycles, EnergySetting, TimeDelta};
    use eua_sim::{JobId, JobView, Platform, SchedEvent, Task, TaskId, TaskSet};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn task(p_ms: u64, a: u32, cycles: f64) -> Task {
        Task::new(
            format!("t{p_ms}"),
            Tuf::step(10.0, ms(p_ms)).unwrap(),
            UamSpec::new(a, ms(p_ms)).unwrap(),
            DemandModel::deterministic(cycles).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap()
    }

    fn view(id: u64, tid: usize, arrival_us: u64, critical_us: u64, remaining: u64) -> JobView {
        JobView {
            id: JobId(id),
            task: TaskId(tid),
            arrival: SimTime::from_micros(arrival_us),
            critical_time: SimTime::from_micros(critical_us),
            termination: SimTime::from_micros(critical_us),
            remaining: Cycles::new(remaining),
            executed: Cycles::ZERO,
        }
    }

    fn ctx_with<'a>(
        tasks: &'a TaskSet,
        platform: &'a Platform,
        jobs: &'a [JobView],
        now_us: u64,
    ) -> SchedContext<'a> {
        SchedContext {
            now: SimTime::from_micros(now_us),
            event: SchedEvent::Arrival,
            jobs,
            tasks,
            platform,
            running: None,
            energy_used: 0.0,
        }
    }

    #[test]
    fn no_jobs_needs_no_speed() {
        let tasks = TaskSet::new(vec![task(10, 1, 100_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let ctx = ctx_with(&tasks, &platform, &[], 0);
        let a = decide_freq(&ctx);
        assert_eq!(a.required_speed, 0.0);
        assert_eq!(a.earliest_critical, None);
    }

    #[test]
    fn single_task_single_job_requires_its_density() {
        // One job: 100k cycles due in 10 ms, no other reservations beyond
        // its own task ⇒ speed = 100k/10k µs = 10 cycles/µs.
        let tasks = TaskSet::new(vec![task(10, 1, 100_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [view(0, 0, 0, 10_000, 100_000)];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 0));
        assert!(
            (a.required_speed - 10.0).abs() < 1e-9,
            "{}",
            a.required_speed
        );
        assert_eq!(a.earliest_critical, Some(SimTime::from_micros(10_000)));
        assert!((a.must_run_cycles - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn deferral_pushes_later_work_past_earliest_critical_time() {
        // Urgent job due at 1 ms; lazy job due at 100 ms. The lazy task's
        // work can almost entirely run after 1 ms, so the required speed is
        // dominated by the urgent job.
        let tasks = TaskSet::new(vec![task(1, 1, 50_000.0), task(100, 1, 1_000_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [
            view(0, 0, 0, 1_000, 50_000),
            view(1, 1, 0, 100_000, 1_000_000),
        ];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 0));
        // Urgent: 50k cycles / 1 ms = 50 cycles/µs; the lazy job defers.
        assert!(a.required_speed >= 50.0);
        assert!(
            a.required_speed < 75.0,
            "deferral failed: {}",
            a.required_speed
        );
    }

    #[test]
    fn due_now_demands_fmax() {
        let tasks = TaskSet::new(vec![task(10, 1, 100_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [view(0, 0, 0, 5_000, 100_000)];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 5_000));
        assert_eq!(a.required_speed, 100.0);
        let b = decide_freq(&ctx_with(&tasks, &platform, &jobs, 6_000));
        assert_eq!(b.required_speed, 100.0);
    }

    #[test]
    fn overload_is_clamped_to_fmax() {
        let tasks = TaskSet::new(vec![task(10, 1, 5_000_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [view(0, 0, 0, 10_000, 5_000_000)];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 0));
        assert_eq!(a.required_speed, 100.0);
    }

    #[test]
    fn pending_jobs_beyond_uam_bound_are_capped() {
        // Task with a = 2 but 4 live jobs: only 2 instances of demand count
        // (paper: "we only need to consider at most a_i instances").
        let t = task(10, 2, 100_000.0);
        let alloc = t.allocation().as_f64();
        let tasks = TaskSet::new(vec![t]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [
            view(0, 0, 0, 10_000, 100_000),
            view(1, 0, 0, 10_000, 100_000),
            view(2, 0, 0, 10_000, 100_000),
            view(3, 0, 0, 10_000, 100_000),
        ];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 0));
        // C_r = remaining(earliest) + (2−1)·c = 100k + alloc.
        let expected = (100_000.0 + alloc) / 10_000.0;
        assert!(
            (a.must_run_cycles - (100_000.0 + alloc)).abs() < 1e-6,
            "s = {}",
            a.must_run_cycles
        );
        assert!((a.required_speed - expected.min(100.0)).abs() < 1e-9);
    }

    #[test]
    fn completed_window_still_anchors_the_horizon() {
        // Task 0's window [0, 10 ms) completed its job; task 1 has a job
        // due at 50 ms. With the anchor, work must be paced against the
        // 10 ms boundary rather than 50 ms — this is the Pillai–Shin
        // behaviour our first (stateless) adaptation missed.
        let tasks = TaskSet::new(vec![task(10, 1, 300_000.0), task(50, 1, 1_000_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let mut dvs = LookAheadDvs::new();
        // First event: both jobs live at t = 0 (anchors learned).
        let jobs0 = [
            view(0, 0, 0, 10_000, 300_000),
            view(1, 1, 0, 50_000, 1_000_000),
        ];
        let _ = dvs.analyze(&ctx_with(&tasks, &platform, &jobs0, 0));
        // Task 0's job completed by t = 3 ms: only task 1 is live, with so
        // much work that not all of it can defer past the 10 ms anchor.
        let jobs1 = [view(1, 1, 0, 50_000, 3_500_000)];
        let a = dvs.analyze(&ctx_with(&tasks, &platform, &jobs1, 3_000));
        assert_eq!(
            a.earliest_critical,
            Some(SimTime::from_micros(10_000)),
            "completed window must keep anchoring D_a_n"
        );
        // x = 3.5M − (100 − 30)·40 000 = 700 000 cycles before 10 ms.
        assert!(
            (a.must_run_cycles - 700_000.0).abs() < 1e-6,
            "{}",
            a.must_run_cycles
        );
        assert_eq!(a.required_speed, 100.0);
        // A fresh (stateless) analysis sees only the 50 ms deadline and
        // under-provisions — the failure mode the anchor state prevents.
        let fresh = decide_freq(&ctx_with(&tasks, &platform, &jobs1, 3_000));
        assert_eq!(fresh.earliest_critical, Some(SimTime::from_micros(50_000)));
        assert!(fresh.required_speed < a.required_speed);
    }

    #[test]
    fn expired_window_releases_its_anchor() {
        let tasks = TaskSet::new(vec![task(10, 1, 300_000.0), task(50, 1, 1_000_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let mut dvs = LookAheadDvs::new();
        let jobs0 = [
            view(0, 0, 0, 10_000, 300_000),
            view(1, 1, 0, 50_000, 1_000_000),
        ];
        let _ = dvs.analyze(&ctx_with(&tasks, &platform, &jobs0, 0));
        // At t = 12 ms the 10 ms window has expired and no new arrival was
        // observed: only task 1's deadline remains.
        let jobs1 = [view(1, 1, 0, 50_000, 500_000)];
        let a = dvs.analyze(&ctx_with(&tasks, &platform, &jobs1, 12_000));
        assert_eq!(a.earliest_critical, Some(SimTime::from_micros(50_000)));
    }

    #[test]
    fn new_arrival_advances_the_window_anchor() {
        let tasks = TaskSet::new(vec![task(10, 1, 300_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let mut dvs = LookAheadDvs::new();
        let jobs0 = [view(0, 0, 0, 10_000, 300_000)];
        let _ = dvs.analyze(&ctx_with(&tasks, &platform, &jobs0, 0));
        // Next window's job arrives at 10 ms.
        let jobs1 = [view(1, 0, 10_000, 20_000, 300_000)];
        let a = dvs.analyze(&ctx_with(&tasks, &platform, &jobs1, 10_000));
        assert_eq!(a.earliest_critical, Some(SimTime::from_micros(20_000)));
        assert!((a.required_speed - 30.0).abs() < 1e-9);
    }

    #[test]
    fn two_tasks_same_critical_time_sum_their_demand() {
        let tasks = TaskSet::new(vec![task(10, 1, 200_000.0), task(10, 1, 300_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let jobs = [
            view(0, 0, 0, 10_000, 200_000),
            view(1, 1, 0, 10_000, 300_000),
        ];
        let a = decide_freq(&ctx_with(&tasks, &platform, &jobs, 0));
        // Both gaps are zero ⇒ x = full remaining for both ⇒ s = 500k over
        // 10 ms ⇒ 50 cycles/µs.
        assert!(
            (a.required_speed - 50.0).abs() < 1e-9,
            "{}",
            a.required_speed
        );
    }

    #[test]
    fn reset_clears_anchors() {
        let tasks = TaskSet::new(vec![task(10, 1, 300_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let mut dvs = LookAheadDvs::new();
        let jobs = [view(0, 0, 0, 10_000, 300_000)];
        let _ = dvs.analyze(&ctx_with(&tasks, &platform, &jobs, 0));
        dvs.reset();
        // After reset, a completed window no longer anchors anything.
        let a = dvs.analyze(&ctx_with(&tasks, &platform, &[], 3_000));
        assert_eq!(a.earliest_critical, None);
    }
}
