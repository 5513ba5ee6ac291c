//! Job state: the reference loop's live job and the public per-job record.

use std::fmt;

use eua_platform::{Cycles, SimTime};

use crate::ids::{JobId, TaskId};

/// How a job's lifetime ended (or didn't, within the horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum JobOutcome {
    /// The job finished its actual demand and accrued `utility` at `at`.
    Completed {
        /// Completion instant.
        at: SimTime,
        /// Utility accrued, `U(at − arrival)`.
        utility: f64,
    },
    /// The job was aborted — by the engine at its termination time, or
    /// earlier by the policy (`by_policy`).
    Aborted {
        /// Abort instant.
        at: SimTime,
        /// `true` when the policy requested the abort (e.g. EUA\* dropping
        /// an infeasible job); `false` for the termination-time exception.
        by_policy: bool,
    },
    /// The simulation horizon ended before the job finished.
    Unfinished,
}

/// The full story of one job, available when
/// [`crate::SimConfig::record_jobs`] is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's id (arrival order).
    pub id: JobId,
    /// The owning task.
    pub task: TaskId,
    /// Arrival (= TUF initial time).
    pub arrival: SimTime,
    /// The actual sampled cycle demand.
    pub actual_demand: Cycles,
    /// Cycles executed before the job ended.
    pub executed: Cycles,
    /// How the job ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// The utility this job accrued (zero unless completed).
    #[must_use]
    pub fn utility(&self) -> f64 {
        match self.outcome {
            JobOutcome::Completed { utility, .. } => utility,
            _ => 0.0,
        }
    }

    /// `true` if the job ran to completion.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self.outcome, JobOutcome::Completed { .. })
    }
}

impl fmt::Display for JobRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            JobOutcome::Completed { at, utility } => {
                write!(
                    f,
                    "{} ({}): completed at {} with utility {:.3}",
                    self.id, self.task, at, utility
                )
            }
            JobOutcome::Aborted { at, by_policy } => {
                let who = if by_policy { "policy" } else { "termination" };
                write!(
                    f,
                    "{} ({}): aborted by {} at {}",
                    self.id, self.task, who, at
                )
            }
            JobOutcome::Unfinished => {
                write!(f, "{} ({}): unfinished at horizon", self.id, self.task)
            }
        }
    }
}

/// Mutable job state of the reference event loop ([`crate::reference`]).
/// The production engine splits the same fields between the policy's
/// [`crate::JobView`] and an engine-only lockstep entry.
#[derive(Debug, Clone)]
pub(crate) struct LiveJob {
    pub id: JobId,
    pub task: TaskId,
    pub arrival: SimTime,
    /// Absolute critical time `arrival + D_i`.
    pub critical: SimTime,
    /// Absolute termination time `arrival + (X − I)`.
    pub termination: SimTime,
    /// The sampled actual demand.
    pub actual: Cycles,
    /// The planning allocation `c_i` at release.
    pub allocation: Cycles,
    /// Cycles executed so far.
    pub executed: Cycles,
}

impl LiveJob {
    /// Actual cycles still needed; zero means complete.
    pub fn actual_remaining(&self) -> Cycles {
        self.actual.saturating_sub(self.executed)
    }

    /// What the scheduler believes remains: allocation minus executed,
    /// floored at one cycle while the job is actually incomplete (the
    /// scheduler cannot observe the overrun's true size).
    pub fn believed_remaining(&self) -> Cycles {
        let believed = self.allocation.saturating_sub(self.executed);
        if believed.is_zero() {
            Cycles::new(1)
        } else {
            believed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(actual: u64, allocation: u64, executed: u64) -> LiveJob {
        LiveJob {
            id: JobId(0),
            task: TaskId(0),
            arrival: SimTime::ZERO,
            critical: SimTime::from_micros(10),
            termination: SimTime::from_micros(20),
            actual: Cycles::new(actual),
            allocation: Cycles::new(allocation),
            executed: Cycles::new(executed),
        }
    }

    #[test]
    fn remaining_tracks_execution() {
        let j = live(100, 120, 30);
        assert_eq!(j.actual_remaining().get(), 70);
        assert_eq!(j.believed_remaining().get(), 90);
    }

    #[test]
    fn believed_floors_at_one_cycle_on_overrun() {
        // Allocation exhausted but the job actually needs more.
        let j = live(200, 120, 150);
        assert_eq!(j.actual_remaining().get(), 50);
        assert_eq!(j.believed_remaining().get(), 1);
    }

    #[test]
    fn record_utility_only_for_completion() {
        let base = JobRecord {
            id: JobId(1),
            task: TaskId(0),
            arrival: SimTime::ZERO,
            actual_demand: Cycles::new(10),
            executed: Cycles::new(10),
            outcome: JobOutcome::Completed {
                at: SimTime::from_micros(5),
                utility: 3.5,
            },
        };
        assert_eq!(base.utility(), 3.5);
        assert!(base.is_completed());
        let aborted = JobRecord {
            outcome: JobOutcome::Aborted {
                at: SimTime::from_micros(7),
                by_policy: true,
            },
            ..base.clone()
        };
        assert_eq!(aborted.utility(), 0.0);
        assert!(!aborted.is_completed());
        let unfinished = JobRecord {
            outcome: JobOutcome::Unfinished,
            ..base
        };
        assert_eq!(unfinished.utility(), 0.0);
    }

    #[test]
    fn record_display_names_outcome() {
        let r = JobRecord {
            id: JobId(2),
            task: TaskId(1),
            arrival: SimTime::ZERO,
            actual_demand: Cycles::new(10),
            executed: Cycles::new(4),
            outcome: JobOutcome::Aborted {
                at: SimTime::from_micros(9),
                by_policy: false,
            },
        };
        assert!(r.to_string().contains("termination"));
    }
}
