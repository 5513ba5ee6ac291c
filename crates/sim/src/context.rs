//! The read-only view a scheduling policy receives at each event.

use eua_platform::{Cycles, SimTime};

use crate::ids::{JobId, TaskId};
use crate::platform_view::Platform;
use crate::task::TaskSet;

/// What a policy may know about one live job.
///
/// The crucial asymmetry of the paper's model is preserved here: the view
/// exposes the **believed** remaining work (allocation `c_i` minus executed
/// cycles, floored at one cycle on overrun) — never the actual sampled
/// demand, which only the simulator knows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobView {
    /// The job's id.
    pub id: JobId,
    /// The owning task.
    pub task: TaskId,
    /// Arrival instant (= TUF initial time).
    pub arrival: SimTime,
    /// Absolute critical time `arrival + D_i`.
    pub critical_time: SimTime,
    /// Absolute termination time; reaching it incomplete raises the abort
    /// exception.
    pub termination: SimTime,
    /// Believed remaining cycles (allocation-based).
    pub remaining: Cycles,
    /// Cycles executed so far.
    pub executed: Cycles,
}

/// What woke the scheduler (paper §3.2: "the scheduling events of EUA\*
/// include the arrival and completion of a job, and the expiration of a
/// time constraint").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedEvent {
    /// First invocation at time zero.
    Start,
    /// One or more jobs arrived at the current instant.
    Arrival,
    /// The given job just completed.
    Completion(JobId),
    /// The given job was just aborted at its termination time.
    Abort(JobId),
}

/// The full decision context handed to [`crate::SchedulerPolicy::decide`].
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// The current instant.
    pub now: SimTime,
    /// What triggered this invocation.
    pub event: SchedEvent,
    /// All live jobs, in arrival (= id) order.
    pub jobs: &'a [JobView],
    /// The static task definitions.
    pub tasks: &'a TaskSet,
    /// The processor and energy model. Under a degraded-frequency fault
    /// (see [`crate::FaultPlan`]) this is the *degraded* view — the
    /// policy plans with, and may only pick from, the surviving
    /// frequencies, while the engine still bills energy by the true
    /// platform model.
    pub platform: &'a Platform,
    /// The job that was executing before this event, if still live.
    pub running: Option<JobId>,
    /// Total energy consumed so far in this run — lets energy-budgeted
    /// policies ration the remainder.
    pub energy_used: f64,
}

impl<'a> SchedContext<'a> {
    /// Looks up a live job by id, by binary search: `jobs` is id-ordered.
    #[must_use]
    pub fn job(&self, id: JobId) -> Option<&JobView> {
        self.jobs
            .binary_search_by(|j| j.id.cmp(&id))
            .ok()
            .map(|k| &self.jobs[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, TimeDelta};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    use crate::task::{Task, TaskSet};

    fn view(id: u64, task: usize) -> JobView {
        JobView {
            id: JobId(id),
            task: TaskId(task),
            arrival: SimTime::from_micros(id),
            critical_time: SimTime::from_micros(id + 100),
            termination: SimTime::from_micros(id + 200),
            remaining: Cycles::new(10),
            executed: Cycles::ZERO,
        }
    }

    fn two_task_set() -> TaskSet {
        let p = TimeDelta::from_millis(10);
        let mk = |name: &str| {
            Task::new(
                name,
                Tuf::step(1.0, p).unwrap(),
                UamSpec::new(3, p).unwrap(),
                DemandModel::deterministic(100.0).unwrap(),
                Assurance::new(1.0, 0.5).unwrap(),
            )
            .unwrap()
        };
        TaskSet::new(vec![mk("a"), mk("b")]).unwrap()
    }

    #[test]
    fn context_lookups() {
        let tasks = two_task_set();
        let platform = Platform::powernow(EnergySetting::e1());
        // Ids with gaps, as completions and aborts leave them.
        let jobs = vec![view(1, 0), view(4, 1), view(8, 0)];
        let ctx = SchedContext {
            now: SimTime::from_micros(5),
            event: SchedEvent::Arrival,
            jobs: &jobs,
            tasks: &tasks,
            platform: &platform,
            running: Some(JobId(1)),
            energy_used: 0.0,
        };
        for job in &jobs {
            assert_eq!(ctx.job(job.id), Some(job));
        }
        // Absent below, between and above the live ids.
        for id in [0, 2, 3, 5, 7, 9, u64::MAX] {
            assert!(ctx.job(JobId(id)).is_none(), "job {id}");
        }
    }
}
