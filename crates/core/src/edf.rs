//! Deadline-based baselines: EDF at `f_m`, cycle-conserving EDF, and
//! look-ahead EDF (Pillai & Shin, SOSP'01 — reference [13] of the paper),
//! each with or without feasibility aborts (the paper's `-NA` variants).
//!
//! As in the paper's §5.1, the DVS baselines are driven by the same cycle
//! allocations EUA\* computes ("the other strategies are based on the worst
//! case workload; here we use cycles allocated by EUA\* as their inputs"),
//! so differences in the figures isolate the scheduling and DVS policies
//! rather than the demand estimates.

use eua_platform::{select_freq, Frequency};
use eua_sim::{Decision, JobView, SchedContext, SchedulerPolicy};

use crate::candidates::job_feasible;
use crate::eua::decide_freq::LookAheadDvs;

/// Which DVS technique the EDF baseline applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum DvsMode {
    /// No DVS: always the maximum frequency (the paper's normalization
    /// baseline).
    #[default]
    None,
    /// Static DVS: the constant sufficient speed of Theorem 1,
    /// `Σ C_i/D_i`, selected once from the task set.
    Static,
    /// Cycle-conserving: frequency tracks the aggregate utilization of
    /// live work, with idle tasks reserving their expected demand.
    CycleConserving,
    /// Look-ahead: the Algorithm 2 deferral analysis (shared with EUA\*),
    /// without the UER clamp.
    LookAhead,
}

/// Critical-time-ordered (EDF) scheduling with optional DVS and optional
/// feasibility aborts.
///
/// # Example
///
/// ```
/// use eua_core::{DvsMode, EdfPolicy};
/// use eua_sim::SchedulerPolicy;
///
/// assert_eq!(EdfPolicy::max_speed().name(), "edf");
/// assert_eq!(EdfPolicy::look_ahead().name(), "laedf");
/// assert_eq!(EdfPolicy::new(DvsMode::CycleConserving, false).name(), "ccedf-na");
/// ```
#[derive(Debug, Clone)]
pub struct EdfPolicy {
    dvs: DvsMode,
    abort_infeasible: bool,
    name: String,
    look_ahead: LookAheadDvs,
    /// The task set's constants, read on the first static or
    /// cycle-conserving decision after `reset` or a task-count change.
    rates: Option<TaskSetRates>,
    /// Cycle-conserving buffer: live jobs per task, refilled by each
    /// decision.
    pending: Vec<u32>,
}

/// What the static and cycle-conserving modes read of a task set.
#[derive(Debug, Clone)]
struct TaskSetRates {
    /// `edf-static`'s frequency: `select_freq` of `Σ C_i/D_i`, summed in
    /// task order.
    static_freq: Frequency,
    /// One row per task, indexed by task.
    rows: Vec<TaskRates>,
}

impl TaskSetRates {
    /// The rates of `ctx`'s task set: those in `slot`, unless it is empty
    /// or holds another task count, in which case they are read afresh.
    fn of<'a>(slot: &'a mut Option<TaskSetRates>, ctx: &SchedContext<'_>) -> &'a mut Self {
        if slot
            .as_ref()
            .is_some_and(|r| r.rows.len() != ctx.tasks.len())
        {
            *slot = None;
        }
        slot.get_or_insert_with(|| {
            // Theorem 1: speed Σ C_i/D_i suffices for all critical times
            // under UAM arrivals.
            let demand: f64 = ctx.tasks.iter().map(|(_, t)| t.demand_rate()).sum();
            TaskSetRates {
                static_freq: select_freq(ctx.platform.table(), demand),
                rows: ctx
                    .tasks
                    .iter()
                    .map(|(_, task)| {
                        let critical_offset = task.critical_offset().as_micros() as f64;
                        TaskRates {
                            idle: task.demand().mean() / critical_offset,
                            max_arrivals: task.uam().max_arrivals(),
                            busy: Vec::new(),
                            allocation: task.allocation().as_f64(),
                            critical_offset,
                        }
                    })
                    .collect(),
            }
        })
    }
}

/// One task's cycle-conserving rates, in cycles per µs.
#[derive(Debug, Clone)]
struct TaskRates {
    /// `mean / D_i`: what the task reserves while it has no live job.
    idle: f64,
    /// `a_i`, the most live jobs the rates count.
    max_arrivals: u32,
    /// `considered · c_i / D_i` at index `considered − 1`, filled up to
    /// the largest `considered` seen (at most `a_i`, which may be as
    /// large as `u32::MAX`, so it is never filled ahead).
    busy: Vec<f64>,
    /// `c_i` and `D_i`, from which `busy` grows.
    allocation: f64,
    critical_offset: f64,
}

impl EdfPolicy {
    /// An EDF baseline with the given DVS mode and abort behaviour.
    #[must_use]
    pub fn new(dvs: DvsMode, abort_infeasible: bool) -> Self {
        let mut name = String::from(match dvs {
            DvsMode::None => "edf",
            DvsMode::Static => "edf-static",
            DvsMode::CycleConserving => "ccedf",
            DvsMode::LookAhead => "laedf",
        });
        if !abort_infeasible {
            name.push_str("-na");
        }
        EdfPolicy {
            dvs,
            abort_infeasible,
            name,
            look_ahead: LookAheadDvs::new(),
            rates: None,
            pending: Vec::new(),
        }
    }

    /// EDF at the maximum frequency with feasibility aborts — the
    /// normalization baseline of Figure 2.
    #[must_use]
    pub fn max_speed() -> Self {
        EdfPolicy::new(DvsMode::None, true)
    }

    /// Cycle-conserving EDF with aborts.
    #[must_use]
    pub fn cycle_conserving() -> Self {
        EdfPolicy::new(DvsMode::CycleConserving, true)
    }

    /// Look-ahead EDF with aborts.
    #[must_use]
    pub fn look_ahead() -> Self {
        EdfPolicy::new(DvsMode::LookAhead, true)
    }

    /// The non-aborting variant of this policy (the paper's `-NA`).
    #[must_use]
    pub fn without_abort(&self) -> Self {
        EdfPolicy::new(self.dvs, false)
    }

    /// The DVS mode in use.
    #[must_use]
    pub fn dvs(&self) -> DvsMode {
        self.dvs
    }

    fn cycle_conserving_speed(&mut self, ctx: &SchedContext<'_>) -> f64 {
        let rates = TaskSetRates::of(&mut self.rates, ctx);
        // One pass over the live jobs counts each task's pending jobs.
        self.pending.clear();
        self.pending.resize(ctx.tasks.len(), 0);
        for j in ctx.jobs {
            self.pending[j.task.index()] += 1;
        }
        let mut speed = 0.0;
        for (row, &pending) in rates.rows.iter_mut().zip(&self.pending) {
            if pending > 0 {
                let considered = pending.min(row.max_arrivals);
                while row.busy.len() < considered as usize {
                    let next = f64::from(row.busy.len() as u32 + 1);
                    row.busy.push(next * row.allocation / row.critical_offset);
                }
                speed += row.busy[considered as usize - 1];
            } else {
                // The cycle-conserving reclamation: an idle task reserves
                // only its expected demand until its next release.
                speed += row.idle;
            }
        }
        speed
    }
}

impl SchedulerPolicy for EdfPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    // eua-lint: hot
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let f_m = ctx.platform.f_max();
        // Keep the look-ahead window anchors fresh at every event.
        let analysis = (self.dvs == DvsMode::LookAhead).then(|| self.look_ahead.analyze(ctx));
        let mut aborts = Vec::new();
        let mut best: Option<&JobView> = None;
        for j in ctx.jobs {
            if self.abort_infeasible && !job_feasible(ctx.now, j, f_m) {
                aborts.push(j.id);
                continue;
            }
            if best.is_none_or(|b| (j.critical_time, j.id) < (b.critical_time, b.id)) {
                best = Some(j);
            }
        }
        let Some(job) = best else {
            return Decision::idle(f_m).with_aborts(aborts);
        };
        let frequency = match self.dvs {
            DvsMode::None => f_m,
            DvsMode::Static => TaskSetRates::of(&mut self.rates, ctx).static_freq,
            DvsMode::CycleConserving => {
                select_freq(ctx.platform.table(), self.cycle_conserving_speed(ctx))
            }
            DvsMode::LookAhead => {
                #[allow(clippy::expect_used)] // populated above exactly when LookAhead
                let analysis = analysis.expect("computed for LookAhead above");
                select_freq(ctx.platform.table(), analysis.required_speed)
            }
        };
        Decision::run(job.id, frequency).with_aborts(aborts)
    }

    fn reset(&mut self) {
        self.look_ahead.reset();
        self.rates = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{Cycles, EnergySetting, SimTime, TimeDelta};
    use eua_sim::{Engine, JobId, Platform, SchedEvent, SimConfig, Task, TaskId, TaskSet};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::generator::ArrivalPattern;
    use eua_uam::{ArrivalTrace, Assurance, UamSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn platform() -> Platform {
        Platform::powernow(EnergySetting::e1())
    }

    fn step_task(name: &str, p_ms: u64, cycles: f64) -> Task {
        Task::new(
            name,
            Tuf::step(10.0, ms(p_ms)).unwrap(),
            UamSpec::periodic(ms(p_ms)).unwrap(),
            DemandModel::deterministic(cycles).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn dvs_modes_order_energy_sensibly_underload() {
        let tasks = TaskSet::new(vec![
            step_task("a", 10, 100_000.0),
            step_task("b", 20, 200_000.0),
        ])
        .unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(20)).unwrap(),
        ];
        let config = SimConfig::new(ms(1_000));
        let run = |policy: &mut EdfPolicy| {
            Engine::run(&tasks, &patterns, &platform(), policy, &config, 5)
                .unwrap()
                .metrics
        };
        let fixed = run(&mut EdfPolicy::max_speed());
        let cc = run(&mut EdfPolicy::cycle_conserving());
        let la = run(&mut EdfPolicy::look_ahead());
        // All complete everything at load 0.2...
        assert_eq!(fixed.jobs_completed(), 150);
        assert_eq!(cc.jobs_completed(), 150);
        assert_eq!(la.jobs_completed(), 150);
        // ...with DVS strictly saving energy, look-ahead at least as well
        // as cycle-conserving.
        assert!(cc.energy < fixed.energy);
        assert!(la.energy <= cc.energy * 1.05);
    }

    #[test]
    fn na_variant_burns_cycles_on_doomed_jobs() {
        // One hopeless job (2 P of work): the aborting variant drops it at
        // release; the -NA variant burns the whole window on it.
        let tasks = TaskSet::new(vec![step_task("doomed", 10, 2_000_000.0)]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let config = SimConfig::new(ms(10));
        let abort = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut EdfPolicy::max_speed(),
            &config,
            1,
        )
        .unwrap();
        let na = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut EdfPolicy::max_speed().without_abort(),
            &config,
            1,
        )
        .unwrap();
        assert_eq!(abort.metrics.energy, 0.0);
        assert!(na.metrics.energy > 0.0);
        assert_eq!(na.metrics.per_task[0].aborted_by_termination, 1);
        assert_eq!(abort.metrics.per_task[0].aborted_by_policy, 1);
    }

    #[test]
    fn edf_meets_all_deadlines_underload() {
        let tasks = TaskSet::new(vec![
            step_task("a", 10, 300_000.0),
            step_task("b", 25, 500_000.0),
            step_task("c", 50, 1_000_000.0),
        ])
        .unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(25)).unwrap(),
            ArrivalPattern::periodic(ms(50)).unwrap(),
        ];
        let config = SimConfig::new(ms(2_000));
        for policy in [
            &mut EdfPolicy::max_speed(),
            &mut EdfPolicy::cycle_conserving(),
            &mut EdfPolicy::look_ahead(),
        ] {
            let m = Engine::run(&tasks, &patterns, &platform(), policy, &config, 2)
                .unwrap()
                .metrics;
            assert_eq!(m.jobs_aborted(), 0, "{} aborted jobs", policy.name());
            for tm in &m.per_task {
                assert_eq!(
                    tm.critical_met,
                    tm.completed,
                    "{} missed deadlines",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn cycle_conserving_speed_counts_each_tasks_own_jobs() {
        // Task a is idle and reserves its mean demand; task b has two live
        // jobs and a = 2, so it reserves two allocations.
        let a = step_task("a", 10, 100_000.0);
        let b = Task::new(
            "b",
            Tuf::step(10.0, ms(20)).unwrap(),
            UamSpec::new(2, ms(20)).unwrap(),
            DemandModel::deterministic(200_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let expected = a.demand().mean() / 10_000.0 + 2.0 * b.allocation().as_f64() / 20_000.0;
        let tasks = TaskSet::new(vec![a, b]).unwrap();
        let platform = platform();
        let view = |id: u64| JobView {
            id: JobId(id),
            task: TaskId(1),
            arrival: SimTime::ZERO,
            critical_time: SimTime::from_micros(20_000),
            termination: SimTime::from_micros(20_000),
            remaining: Cycles::new(200_000),
            executed: Cycles::ZERO,
        };
        let jobs = [view(0), view(1)];
        let ctx = SchedContext {
            now: SimTime::ZERO,
            event: SchedEvent::Arrival,
            jobs: &jobs,
            tasks: &tasks,
            platform: &platform,
            running: None,
            energy_used: 0.0,
        };
        let speed = EdfPolicy::cycle_conserving().cycle_conserving_speed(&ctx);
        assert_eq!(speed.to_bits(), expected.to_bits(), "{speed} vs {expected}");
    }

    #[test]
    fn names_and_accessors() {
        assert_eq!(EdfPolicy::max_speed().name(), "edf");
        assert_eq!(EdfPolicy::max_speed().without_abort().name(), "edf-na");
        assert_eq!(EdfPolicy::cycle_conserving().name(), "ccedf");
        assert_eq!(EdfPolicy::look_ahead().dvs(), DvsMode::LookAhead);
    }
}
