//! Least-laxity-first — an additional dynamic-priority baseline.
//!
//! Laxity is the slack before a job *must* run continuously at `f_m` to
//! meet its critical time: `laxity = (D − now) − c/f_m`. LLF is optimal
//! on a uniprocessor like EDF, but reshuffles priorities as laxities decay,
//! so it exhibits many more preemptions — a useful stress test for the
//! simulator's context-switch accounting and an instructive contrast in
//! the ablation experiments.

use eua_sim::{Decision, SchedContext, SchedulerPolicy};

use crate::candidates::job_feasible;

/// Least-laxity-first at the maximum frequency, with feasibility aborts.
///
/// # Example
///
/// ```
/// use eua_core::Llf;
/// use eua_sim::SchedulerPolicy;
///
/// assert_eq!(Llf::new().name(), "llf");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Llf {
    _private: (),
}

impl Llf {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Llf::default()
    }
}

impl SchedulerPolicy for Llf {
    fn name(&self) -> &str {
        "llf"
    }

    // eua-lint: hot
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let f_m = ctx.platform.f_max();
        let mut aborts = Vec::new();
        let mut best: Option<(i128, eua_sim::JobId)> = None;
        for j in ctx.jobs {
            if !job_feasible(ctx.now, j, f_m) {
                aborts.push(j.id);
                continue;
            }
            let exec = f_m.execution_time(j.remaining);
            // In i128: a critical time may lie anywhere in `u64` µs, so
            // the laxity can exceed `i64` on either side.
            let laxity = i128::from(j.critical_time.as_micros())
                .saturating_sub(i128::from(ctx.now.as_micros()))
                .saturating_sub(i128::from(exec.as_micros()));
            if best.is_none_or(|b| (laxity, j.id) < b) {
                best = Some((laxity, j.id));
            }
        }
        match best {
            Some((_, id)) => Decision::run(id, f_m).with_aborts(aborts),
            None => Decision::idle(f_m).with_aborts(aborts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{Cycles, EnergySetting, SimTime, TimeDelta};
    use eua_sim::{
        Engine, JobId, JobView, Platform, SchedContext, SchedEvent, SimConfig, Task, TaskId,
        TaskSet,
    };
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::generator::ArrivalPattern;
    use eua_uam::{Assurance, UamSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn task(name: &str, p_ms: u64, cycles: f64) -> Task {
        Task::new(
            name,
            Tuf::step(1.0, ms(p_ms)).unwrap(),
            UamSpec::periodic(ms(p_ms)).unwrap(),
            DemandModel::deterministic(cycles).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn llf_meets_deadlines_underload() {
        let tasks = TaskSet::new(vec![task("a", 10, 300_000.0), task("b", 25, 700_000.0)]).unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(25)).unwrap(),
        ];
        let platform = Platform::powernow(EnergySetting::e1());
        let config = SimConfig::new(ms(1_000));
        let out = Engine::run(&tasks, &patterns, &platform, &mut Llf::new(), &config, 1).unwrap();
        assert_eq!(out.metrics.jobs_aborted(), 0);
        for tm in &out.metrics.per_task {
            assert_eq!(tm.completed, tm.critical_met);
        }
    }

    #[test]
    fn laxity_past_i64_does_not_wrap() {
        // Job 0's critical time is 2^63 µs + 1 ms away, so an i64 laxity
        // wraps negative and would run it ahead of job 1, due in 10 ms.
        let tasks = TaskSet::new(vec![task("a", 10, 100_000.0)]).unwrap();
        let platform = Platform::powernow(EnergySetting::e1());
        let view = |id, critical_us| {
            let critical = SimTime::from_micros(critical_us);
            JobView {
                id: JobId(id),
                task: TaskId(0),
                arrival: SimTime::ZERO,
                critical_time: critical,
                termination: critical,
                remaining: Cycles::new(100_000),
                executed: Cycles::ZERO,
            }
        };
        let jobs = [view(0, (1 << 63) + 1_000), view(1, 10_000)];
        let ctx = SchedContext {
            now: SimTime::ZERO,
            event: SchedEvent::Arrival,
            jobs: &jobs,
            tasks: &tasks,
            platform: &platform,
            running: None,
            energy_used: 0.0,
        };
        assert_eq!(Llf::new().decide(&ctx).run, Some(JobId(1)));
    }

    #[test]
    fn llf_preempts_more_than_edf() {
        let tasks = TaskSet::new(vec![task("a", 10, 400_000.0), task("b", 11, 400_000.0)]).unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(11)).unwrap(),
        ];
        let platform = Platform::powernow(EnergySetting::e1());
        let config = SimConfig::new(ms(2_000));
        let llf = Engine::run(&tasks, &patterns, &platform, &mut Llf::new(), &config, 1)
            .unwrap()
            .metrics;
        let edf = Engine::run(
            &tasks,
            &patterns,
            &platform,
            &mut crate::edf::EdfPolicy::max_speed(),
            &config,
            1,
        )
        .unwrap()
        .metrics;
        assert!(
            llf.context_switches >= edf.context_switches,
            "llf {} vs edf {}",
            llf.context_switches,
            edf.context_switches
        );
        assert_eq!(llf.jobs_completed(), edf.jobs_completed());
    }
}
