//! A DASA-style pure utility-accrual baseline (Locke's best-effort
//! decision making): greedy insertion by **utility density** `U/c` with no
//! DVS. Included as the non-energy-aware ancestor of EUA\* — with a
//! constant energy model, EUA\*'s UER ordering degenerates to exactly this
//! policy.

use eua_sim::{Decision, SchedContext, SchedulerPolicy};

use crate::candidates::{Candidate, InsertionMode, ScheduleBuilder};

/// Dependent Activity Scheduling Algorithm (independent-task form):
/// utility-density-ordered greedy scheduling at the maximum frequency.
///
/// # Example
///
/// ```
/// use eua_core::Dasa;
/// use eua_sim::SchedulerPolicy;
///
/// assert_eq!(Dasa::new().name(), "dasa");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dasa {
    /// Incremental schedule constructor; buffers persist across events so
    /// the per-event hot path does not reallocate.
    builder: ScheduleBuilder,
    /// Reused candidate scratch, refilled every event.
    cand_buf: Vec<Candidate>,
    /// Reused abort scratch, taken by value only on events that abort.
    abort_buf: Vec<eua_sim::JobId>,
}

impl Dasa {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Dasa::default()
    }
}

impl SchedulerPolicy for Dasa {
    fn name(&self) -> &str {
        "dasa"
    }

    // eua-lint: hot
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let f_m = ctx.platform.f_max();
        self.abort_buf.clear();
        self.cand_buf.clear();
        for j in ctx.jobs {
            let predicted = ctx.now.saturating_add(f_m.execution_time(j.remaining));
            if predicted > j.termination {
                self.abort_buf.push(j.id);
                continue;
            }
            let utility = ctx
                .tasks
                .task(j.task)
                .tuf()
                .utility(predicted.saturating_since(j.arrival));
            // Utility density: expected utility per remaining cycle.
            self.cand_buf
                .push(Candidate::from_view(j, utility / j.remaining.as_f64()));
        }
        let schedule = self.builder.rebuild(
            ctx.now,
            &mut self.cand_buf,
            f_m,
            InsertionMode::SkipInfeasible,
        );
        let aborts = std::mem::take(&mut self.abort_buf);
        match schedule.first() {
            Some(head) => Decision::run(head.id, f_m).with_aborts(aborts),
            None => Decision::idle(f_m).with_aborts(aborts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, TimeDelta};
    use eua_sim::{Engine, Platform, SimConfig, Task, TaskSet};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::generator::ArrivalPattern;
    use eua_uam::{Assurance, UamSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn dasa_favors_high_density_jobs_during_overload() {
        let p = ms(10);
        let mk = |name: &str, umax: f64| {
            Task::new(
                name,
                Tuf::step(umax, p).unwrap(),
                UamSpec::periodic(p).unwrap(),
                DemandModel::deterministic(700_000.0).unwrap(),
                Assurance::new(1.0, 0.5).unwrap(),
            )
            .unwrap()
        };
        let tasks = TaskSet::new(vec![mk("low", 1.0), mk("high", 20.0)]).unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(p).unwrap(),
            ArrivalPattern::periodic(p).unwrap(),
        ];
        let config = SimConfig::new(ms(300));
        let platform = Platform::powernow(EnergySetting::e1());
        let out = Engine::run(&tasks, &patterns, &platform, &mut Dasa::new(), &config, 1).unwrap();
        assert!(out.metrics.per_task[1].completed > out.metrics.per_task[0].completed);
        assert_eq!(out.metrics.per_task[1].completed, 30);
    }

    #[test]
    fn dasa_equals_optimal_underload() {
        let p = ms(20);
        let task = Task::new(
            "t",
            Tuf::step(5.0, p).unwrap(),
            UamSpec::periodic(p).unwrap(),
            DemandModel::deterministic(500_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(p).unwrap()];
        let config = SimConfig::new(ms(400));
        let platform = Platform::powernow(EnergySetting::e1());
        let out = Engine::run(&tasks, &patterns, &platform, &mut Dasa::new(), &config, 1).unwrap();
        assert_eq!(out.metrics.jobs_completed(), 20);
        assert!((out.metrics.utility_ratio() - 1.0).abs() < 1e-9);
    }
}
