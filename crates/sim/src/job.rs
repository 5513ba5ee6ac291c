//! The reference event loop's live job. A run's public record of its
//! jobs is the decision certificate ([`crate::certificate`]).

use eua_platform::{Cycles, SimTime};

use crate::ids::{JobId, TaskId};

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
}
