#![allow(clippy::expect_used)] // test code: panicking on bad setup is the point

//! Differential oracle for the Algorithm 2 look-ahead
//! ([`LookAheadDvs`], `crates/core/src/eua/decide_freq.rs`).
//!
//! [`Reference`] is the look-ahead as it was before it kept per-task rows
//! and its walk order across calls: at every call it re-derives each
//! task's constants, pushes a fresh entry per task in the walk, sorts the
//! entries afresh and clamps `x` before it divides. It lives here,
//! not in the library. Both analyses run through the same generated
//! sequences of contexts (arrivals, bursts beyond `a_i`, completions,
//! progress, idle gaps, `reset` followed by another task set of the same
//! size, and task-count changes without `reset`), and at every call they
//! must agree bit for bit. A second test checks that the generated
//! sequences reach each of those cases, and that the walk reaches each
//! of its steps: `x = 0` and `x = C_r` with `gap > 0`, an interior `x`,
//! and `gap = 0`.

use eua_core::{DvsAnalysis, LookAheadDvs};
use eua_platform::{Cycles, EnergySetting, SimTime, TimeDelta};
use eua_sim::{JobId, JobView, Platform, SchedContext, SchedEvent, Task, TaskSet};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::{Assurance, UamSpec};
use proptest::prelude::*;
use proptest::TestRng;

/// The look-ahead before per-task rows: the library's `analyze` body as
/// it stood, with its per-call types.
#[derive(Debug, Clone, Default)]
struct Reference {
    anchors: Vec<Option<SimTime>>,
    entries: Vec<ReferenceEntry>,
    facts: Vec<ReferenceFacts>,
    /// The last call's walk, one step per entry; for [`Coverage`] only.
    walk: Vec<ReferenceStep>,
}

#[derive(Debug, Clone)]
struct ReferenceEntry {
    critical: SimTime,
    remaining: f64,
    static_rate: f64,
}

/// One step of the walk: the entry's gap to `D_a_n`, its clamped `x` and
/// its remaining cycles.
#[derive(Debug, Clone, Copy)]
struct ReferenceStep {
    gap: f64,
    x: f64,
    remaining: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ReferenceFacts {
    pending: u32,
    earliest: Option<(SimTime, JobId, Cycles)>,
}

impl Reference {
    fn reset(&mut self) {
        self.anchors.clear();
        self.entries.clear();
        self.facts.clear();
        self.walk.clear();
    }

    fn analyze(&mut self, ctx: &SchedContext<'_>) -> DvsAnalysis {
        if self.anchors.len() != ctx.tasks.len() {
            self.anchors.clear();
            self.anchors.resize(ctx.tasks.len(), None);
        }
        let f_m = ctx.platform.f_max().as_f64();

        self.facts.clear();
        self.facts
            .resize(ctx.tasks.len(), ReferenceFacts::default());
        for j in ctx.jobs {
            let s = &mut self.facts[j.task.index()];
            s.pending += 1;
            let anchor = &mut self.anchors[j.task.index()];
            match *anchor {
                None => *anchor = Some(j.arrival),
                Some(a) if j.arrival >= a.saturating_add(ctx.tasks.task(j.task).uam().window()) => {
                    *anchor = Some(j.arrival);
                }
                _ => {}
            }
            if s.earliest
                .is_none_or(|(crit, id, _)| (j.critical_time, j.id) < (crit, id))
            {
                s.earliest = Some((j.critical_time, j.id, j.remaining));
            }
        }

        self.entries.clear();
        self.walk.clear();
        let mut util: f64 = 0.0;
        for (tid, task) in ctx.tasks.iter() {
            util += task.demand_rate();
            let window = task.uam().window();
            let anchor = self.anchors[tid.index()];
            let ReferenceFacts { pending, earliest } = self.facts[tid.index()];

            let window_critical = anchor.and_then(|a| {
                let expiry = a.saturating_add(window);
                let crit = a.saturating_add(task.critical_offset());
                (ctx.now < expiry && crit > ctx.now).then_some(crit)
            });

            let (critical, remaining) = match (earliest, window_critical) {
                (Some((first_critical, _, first_remaining)), wc) => {
                    let considered = pending.min(task.uam().max_arrivals());
                    let remaining = first_remaining.as_f64()
                        + f64::from(considered.saturating_sub(1)) * task.allocation().as_f64();
                    let critical = match wc {
                        Some(w) => w.min(first_critical),
                        None => first_critical,
                    };
                    (critical, remaining)
                }
                (None, Some(w)) => (w, 0.0),
                (None, None) => continue,
            };
            self.entries.push(ReferenceEntry {
                critical,
                remaining,
                static_rate: task.demand_rate(),
            });
        }

        let Some(earliest_critical) = self.entries.iter().map(|e| e.critical).min() else {
            return DvsAnalysis {
                required_speed: 0.0,
                earliest_critical: None,
                must_run_cycles: 0.0,
            };
        };

        self.entries.sort_by_key(|e| std::cmp::Reverse(e.critical));

        let mut s = 0.0f64;
        for e in &self.entries {
            util -= e.static_rate;
            let gap = e.critical.saturating_since(earliest_critical).as_micros() as f64;
            let x = (e.remaining - (f_m - util) * gap).clamp(0.0, e.remaining);
            self.walk.push(ReferenceStep {
                gap,
                x,
                remaining: e.remaining,
            });
            if gap > 0.0 {
                util += (e.remaining - x) / gap;
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

/// One generated task: a window of `period_ms` ms holding up to `a`
/// arrivals, and either a step TUF (critical offset `P`) or a linear
/// one at ν = 0.5 (critical offset `P/2`, termination `P`). Short,
/// commensurate periods make tasks share critical times often.
#[derive(Debug, Clone, Copy)]
struct TaskSpec {
    period_ms: u64,
    a: u32,
    linear: bool,
    cycles: u64,
}

impl TaskSpec {
    fn task(self, i: usize) -> Task {
        let period = TimeDelta::from_millis(self.period_ms);
        let (tuf, nu) = if self.linear {
            (Tuf::linear(10.0, period), 0.5)
        } else {
            (Tuf::step(10.0, period), 1.0)
        };
        Task::new(
            format!("t{i}"),
            tuf.expect("valid tuf"),
            UamSpec::new(self.a, period).expect("valid uam"),
            DemandModel::deterministic(self.cycles as f64).expect("valid demand"),
            Assurance::new(nu, 0.5).expect("valid assurance"),
        )
        .expect("valid task")
    }
}

/// What happens to the task set before a call.
#[derive(Debug, Clone, Copy)]
enum Switch {
    Keep,
    /// `reset` both analyses, then switch between the two task sets of
    /// the same size.
    ResetSameCount,
    /// Switch to or from the task set of another size, without `reset`.
    ChangeCount,
}

/// One call of a sequence and the context changes that precede it.
#[derive(Debug, Clone, Copy)]
struct Step {
    switch: Switch,
    /// Time the clock advances.
    advance_us: u64,
    /// Tasks (bit `i` for task `i`) whose earliest live job completes.
    complete: u8,
    /// Cycles the first live job executes (its remaining stays ≥ 1).
    progress: u64,
    /// Tasks that release a job at the call's instant.
    arrive: u8,
    /// Extra jobs the lowest releasing task releases at once, so a task
    /// can hold more live jobs than its `a_i`.
    burst: u32,
}

/// A generated sequence: two task sets of one size, one of another size,
/// and the calls.
#[derive(Debug, Clone)]
struct Sequence {
    sets: [Vec<TaskSpec>; 3],
    steps: Vec<Step>,
}

fn arb_task() -> impl Strategy<Value = TaskSpec> {
    (0usize..3, 1u32..=3, any::<bool>(), 20_000u64..300_000).prop_map(
        |(period, a, linear, cycles)| TaskSpec {
            period_ms: [1, 2, 4][period],
            a,
            linear,
            cycles,
        },
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u32..24,
        0usize..6,
        (any::<u8>(), any::<u8>()),
        0u64..200_000,
        any::<u8>(),
        0u32..4,
    )
        .prop_map(
            |(switch, advance, (c1, c2), progress, arrive, burst)| Step {
                switch: match switch {
                    0 => Switch::ResetSameCount,
                    1 => Switch::ChangeCount,
                    _ => Switch::Keep,
                },
                advance_us: [0, 250, 500, 1_000, 2_000, 9_000][advance],
                // Completions and bursts stay rarer than arrivals, so windows
                // fill up as well as drain.
                complete: c1 & c2,
                progress,
                arrive,
                burst: burst.saturating_sub(2),
            },
        )
}

fn arb_sequence() -> impl Strategy<Value = Sequence> {
    (1usize..=6).prop_flat_map(|n| {
        (
            proptest::collection::vec(arb_task(), n),
            proptest::collection::vec(arb_task(), n),
            proptest::collection::vec(arb_task(), n % 6 + 1),
            proptest::collection::vec(arb_step(), 1..60),
        )
            .prop_map(|(a, b, c, steps)| Sequence {
                sets: [a, b, c],
                steps,
            })
    })
}

/// Which of the cases the oracle must cover a sequence reached.
#[derive(Debug, Clone, Copy, Default)]
struct Coverage {
    /// Tasks share `D_a_n`, and a completed but still-active window
    /// (zero remaining) walks before a task with work left.
    shared_zero_first: bool,
    /// A task with no live job whose window has expired.
    expired_window: bool,
    /// A call with no live job after some window was anchored.
    idle_gap: bool,
    /// A task with more live jobs than its `a_i`.
    over_bound: bool,
    /// `D_a_n ≤ now`.
    due: bool,
    /// A call after `reset` on the other task set of the same size.
    reset_same_count: bool,
    /// A call right after a task-count change without `reset`.
    count_change: bool,
    /// A walk step with `gap > 0` whose work all defers (`x = 0 < C_r`).
    x_zero: bool,
    /// A walk step with `gap > 0` whose work all must run (`x = C_r > 0`).
    x_full: bool,
    /// A walk step with `0 < x < C_r`.
    x_interior: bool,
    /// A walk step at `D_a_n` itself (`gap = 0`).
    gap_zero: bool,
}

impl Coverage {
    fn or(self, o: Coverage) -> Coverage {
        Coverage {
            shared_zero_first: self.shared_zero_first || o.shared_zero_first,
            expired_window: self.expired_window || o.expired_window,
            idle_gap: self.idle_gap || o.idle_gap,
            over_bound: self.over_bound || o.over_bound,
            due: self.due || o.due,
            reset_same_count: self.reset_same_count || o.reset_same_count,
            count_change: self.count_change || o.count_change,
            x_zero: self.x_zero || o.x_zero,
            x_full: self.x_full || o.x_full,
            x_interior: self.x_interior || o.x_interior,
            gap_zero: self.gap_zero || o.gap_zero,
        }
    }

    /// What the reference's state after one call shows.
    fn of_call(reference: &Reference, ctx: &SchedContext<'_>, out: &DvsAnalysis) -> Coverage {
        let mut c = Coverage::default();
        if let Some(d) = out.earliest_critical {
            c.due = d <= ctx.now;
            let at_d: Vec<f64> = reference
                .entries
                .iter()
                .filter(|e| e.critical == d)
                .map(|e| e.remaining)
                .collect();
            c.shared_zero_first = at_d
                .iter()
                .position(|&r| r == 0.0)
                .is_some_and(|z| at_d[z..].iter().any(|&r| r > 0.0));
        }
        for (tid, task) in ctx.tasks.iter() {
            let facts = reference.facts[tid.index()];
            let anchor = reference.anchors[tid.index()];
            c.over_bound |= facts.pending > task.uam().max_arrivals();
            c.expired_window |= facts.pending == 0
                && anchor.is_some_and(|a| ctx.now >= a.saturating_add(task.uam().window()));
        }
        c.idle_gap = ctx.jobs.is_empty() && reference.anchors.iter().any(Option::is_some);
        for &ReferenceStep { gap, x, remaining } in &reference.walk {
            c.x_zero |= gap > 0.0 && x == 0.0 && remaining > 0.0;
            c.x_full |= gap > 0.0 && x == remaining && remaining > 0.0;
            c.x_interior |= 0.0 < x && x < remaining;
            c.gap_zero |= gap == 0.0;
        }
        c
    }
}

/// Runs `seq` through a fresh [`LookAheadDvs`] and a fresh
/// [`Reference`], comparing every call; returns the cases it reached, or
/// the first disagreement.
fn run(seq: &Sequence) -> Result<Coverage, String> {
    let platform = Platform::powernow(EnergySetting::e1());
    let sets: Vec<TaskSet> = seq
        .sets
        .iter()
        .map(|specs| {
            let tasks = specs.iter().enumerate().map(|(i, s)| s.task(i)).collect();
            TaskSet::new(tasks).expect("non-empty task set")
        })
        .collect();
    let mut dvs = LookAheadDvs::new();
    let mut reference = Reference::default();
    let mut coverage = Coverage::default();
    let mut current = 0;
    let mut jobs: Vec<JobView> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    let mut after_reset = false;

    for (call, step) in seq.steps.iter().enumerate() {
        let mut count_change = false;
        match step.switch {
            Switch::Keep => {}
            Switch::ResetSameCount => {
                dvs.reset();
                reference.reset();
                current = if current == 0 { 1 } else { 0 };
                jobs.clear();
                after_reset = true;
            }
            Switch::ChangeCount => {
                current = if current == 2 { 0 } else { 2 };
                jobs.clear();
                count_change = true;
            }
        }
        let tasks = &sets[current];
        now = now.saturating_add(TimeDelta::from_micros(step.advance_us));

        // Jobs past their termination leave; a job between its critical
        // time and its termination stays live.
        jobs.retain(|j| j.termination >= now);
        for (tid, _) in tasks.iter() {
            if step.complete & (1 << tid.index()) != 0 {
                if let Some(k) = jobs.iter().position(|j| j.task == tid) {
                    jobs.remove(k);
                }
            }
        }
        if let Some(first) = jobs.first_mut() {
            let left = first.remaining.get().saturating_sub(step.progress).max(1);
            first.remaining = Cycles::new(left);
        }
        let mut burst = step.burst;
        for (tid, task) in tasks.iter() {
            if step.arrive & (1 << tid.index()) == 0 {
                continue;
            }
            for _ in 0..=std::mem::take(&mut burst) {
                jobs.push(JobView {
                    id: JobId(next_id),
                    task: tid,
                    arrival: now,
                    critical_time: now.saturating_add(task.critical_offset()),
                    termination: now.saturating_add(task.termination_offset()),
                    remaining: task.allocation(),
                    executed: Cycles::ZERO,
                });
                next_id += 1;
            }
        }

        let ctx = SchedContext {
            now,
            event: SchedEvent::Arrival,
            jobs: &jobs,
            tasks,
            platform: &platform,
            running: None,
            energy_used: 0.0,
        };
        let got = dvs.analyze(&ctx);
        let want = reference.analyze(&ctx);
        let same = got.required_speed.to_bits() == want.required_speed.to_bits()
            && got.must_run_cycles.to_bits() == want.must_run_cycles.to_bits()
            && got.earliest_critical == want.earliest_critical;
        if !same {
            return Err(format!(
                "call {call} at {now:?} ({step:?}, {} tasks, {} jobs): got {got:?}, want {want:?}",
                tasks.len(),
                jobs.len()
            ));
        }
        let mut reached = Coverage::of_call(&reference, &ctx, &want);
        reached.reset_same_count = after_reset;
        reached.count_change = count_change;
        coverage = coverage.or(reached);
    }
    Ok(coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn look_ahead_matches_the_reference_bit_for_bit(seq in arb_sequence()) {
        if let Err(msg) = run(&seq) {
            prop_assert!(false, "{msg}");
        }
    }
}

/// The generated sequences reach every case the oracle is meant to
/// cover; a generator change that stops reaching one fails here.
#[test]
fn generated_sequences_reach_every_case() {
    let strategy = arb_sequence();
    let mut rng = TestRng::seeded(7);
    let mut total = Coverage::default();
    for _ in 0..64 {
        let seq = strategy.sample_value(&mut rng);
        total = total.or(run(&seq).expect("the analyses agree"));
    }
    assert!(total.shared_zero_first, "{total:?}");
    assert!(total.expired_window, "{total:?}");
    assert!(total.idle_gap, "{total:?}");
    assert!(total.over_bound, "{total:?}");
    assert!(total.due, "{total:?}");
    assert!(total.reset_same_count, "{total:?}");
    assert!(total.count_change, "{total:?}");
    assert!(total.x_zero, "{total:?}");
    assert!(total.x_full, "{total:?}");
    assert!(total.x_interior, "{total:?}");
    assert!(total.gap_zero, "{total:?}");
}
