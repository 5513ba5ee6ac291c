//! Runtime invariant checking for the simulation engine.
//!
//! In debug builds (every `cargo test`) the engine threads every state
//! transition through an [`InvariantChecker`] that asserts the
//! properties the rest of the stack silently relies on:
//!
//! * the simulation clock never moves backwards;
//! * admitted arrival streams respect each task's UAM window bound
//!   (at most `a` arrivals in any half-open window of length `P`);
//! * a job that has been aborted is never executed again;
//! * a job completes no later than its termination time (past it, the
//!   engine must have aborted the job instead), having executed exactly
//!   its sampled demand;
//! * every energy charge is finite and non-negative, and the final
//!   energy total equals the sum of the individual charges.
//!
//! Violations panic with a descriptive message, which surfaces as a test
//! failure. The bookkeeping and the asserts compile under
//! `cfg(debug_assertions)`; in release builds the checker is an empty
//! struct whose inlined methods compile away entirely, so the release
//! simulator pays nothing.

#![cfg_attr(not(debug_assertions), allow(unused_variables))]

#[cfg(debug_assertions)]
use std::collections::{BTreeSet, VecDeque};

use crate::ids::JobId;
use eua_platform::{Cycles, SimTime, TimeDelta};

/// Relative tolerance for the energy-additivity check.
#[cfg(debug_assertions)]
const ENERGY_REL_TOL: f64 = 1e-6;

/// Accumulated invariant state for one simulation run.
#[derive(Debug)]
pub(crate) struct InvariantChecker {
    /// Per-task recent arrival times, pruned to the UAM window.
    #[cfg(debug_assertions)]
    arrivals: Vec<VecDeque<SimTime>>,
    /// Ids of every job aborted so far.
    #[cfg(debug_assertions)]
    aborted: BTreeSet<JobId>,
    /// Running sum of individual energy charges.
    #[cfg(debug_assertions)]
    charged: f64,
}

impl InvariantChecker {
    /// A fresh checker for a run over `num_tasks` tasks.
    #[inline]
    #[must_use]
    pub fn new(num_tasks: usize) -> Self {
        InvariantChecker {
            #[cfg(debug_assertions)]
            arrivals: vec![VecDeque::new(); num_tasks],
            #[cfg(debug_assertions)]
            aborted: BTreeSet::new(),
            #[cfg(debug_assertions)]
            charged: 0.0,
        }
    }

    /// Asserts the clock only moves forward.
    #[inline]
    pub fn clock_advance(&mut self, from: SimTime, to: SimTime) {
        debug_assert!(
            to >= from,
            "invariant violated: clock moved backwards from {from} to {to}"
        );
    }

    /// Asserts the admitted arrival stream for `task` stays within
    /// the UAM bound: at most `max_arrivals` arrivals in any
    /// half-open window of length `window`.
    #[inline]
    pub fn arrival(&mut self, task: usize, at: SimTime, max_arrivals: u32, window: TimeDelta) {
        #[cfg(debug_assertions)]
        {
            let history = &mut self.arrivals[task];
            if let Some(&last) = history.back() {
                assert!(
                    at >= last,
                    "invariant violated: task {task} arrivals out of order ({last} then {at})"
                );
            }
            history.push_back(at);
            // Keep only arrivals with `at − P < t ≤ at`; older ones can
            // never share a window of length P with `at` again.
            while let Some(&front) = history.front() {
                if front.saturating_add(window) <= at {
                    history.pop_front();
                } else {
                    break;
                }
            }
            assert!(
                history.len() <= max_arrivals as usize,
                "invariant violated: task {task} admitted {} arrivals in a {window} window \
                 (UAM bound is {max_arrivals}); window ends at {at}",
                history.len()
            );
        }
    }

    /// Records an abort.
    #[inline]
    pub fn job_aborted(&mut self, id: JobId) {
        #[cfg(debug_assertions)]
        self.aborted.insert(id);
    }

    /// Asserts an aborted job is never executed.
    #[inline]
    pub fn executing(&mut self, id: JobId) {
        #[cfg(debug_assertions)]
        assert!(
            !self.aborted.contains(&id),
            "invariant violated: aborted job {id:?} was scheduled for execution"
        );
    }

    /// Asserts a job completing at `at` did so by its `termination`,
    /// having executed exactly its sampled `actual` demand.
    #[inline]
    pub fn completion(
        &mut self,
        id: JobId,
        at: SimTime,
        termination: SimTime,
        executed: Cycles,
        actual: Cycles,
    ) {
        debug_assert!(
            at <= termination,
            "invariant violated: job {id:?} completed at {at}, after its termination {termination}"
        );
        debug_assert!(
            executed == actual,
            "invariant violated: job {id:?} completed after executing {executed} of its \
             {actual} sampled cycles"
        );
    }

    /// Asserts a single energy charge is sane and accumulates it.
    #[inline]
    pub fn energy_charge(&mut self, charge: f64) {
        debug_assert!(
            charge.is_finite() && charge >= 0.0,
            "invariant violated: energy charge {charge} is negative or non-finite"
        );
        #[cfg(debug_assertions)]
        {
            self.charged += charge;
        }
    }

    /// Asserts the final metered energy equals the sum of charges.
    #[inline]
    pub fn finish(&self, total_energy: f64) {
        debug_assert!(
            total_energy.is_finite() && total_energy >= 0.0,
            "invariant violated: total energy {total_energy} is negative or non-finite"
        );
        #[cfg(debug_assertions)]
        {
            let tol = ENERGY_REL_TOL * self.charged.max(1.0);
            assert!(
                (total_energy - self.charged).abs() <= tol,
                "invariant violated: metered energy {total_energy} differs from the sum of \
                 charges {} by more than {tol}",
                self.charged
            );
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn clock_must_not_go_backwards() {
        let mut c = InvariantChecker::new(1);
        c.clock_advance(SimTime::from_micros(5), SimTime::from_micros(5));
        c.clock_advance(SimTime::from_micros(5), SimTime::from_micros(9));
        let r = std::panic::catch_unwind(move || {
            c.clock_advance(SimTime::from_micros(9), SimTime::from_micros(8));
        });
        assert!(r.is_err());
    }

    #[test]
    fn arrivals_must_not_go_backwards() {
        let window = TimeDelta::from_micros(100);
        let mut c = InvariantChecker::new(2);
        c.arrival(0, SimTime::from_micros(10), 4, window);
        c.arrival(0, SimTime::from_micros(10), 4, window);
        // Another task's stream is its own.
        c.arrival(1, SimTime::from_micros(5), 4, window);
        let r = std::panic::catch_unwind(move || {
            c.arrival(0, SimTime::from_micros(9), 4, window);
        });
        assert!(r.is_err());
    }

    #[test]
    fn uam_window_bound_enforced() {
        let window = TimeDelta::from_micros(100);
        let mut c = InvariantChecker::new(1);
        // Two arrivals per window are fine…
        c.arrival(0, SimTime::from_micros(0), 2, window);
        c.arrival(0, SimTime::from_micros(10), 2, window);
        // …a third arrival 100 µs later has left the first window.
        c.arrival(0, SimTime::from_micros(100), 2, window);
        // But a third sharing a window with the previous two
        // ((1, 101] holds 10, 100, and 101) trips the check.
        let r = std::panic::catch_unwind(move || {
            c.arrival(0, SimTime::from_micros(101), 2, window);
        });
        assert!(r.is_err());
    }

    #[test]
    fn aborted_jobs_must_not_execute() {
        let mut c = InvariantChecker::new(1);
        c.executing(JobId(1));
        c.job_aborted(JobId(1));
        let r = std::panic::catch_unwind(move || c.executing(JobId(1)));
        assert!(r.is_err());
    }

    #[test]
    fn completions_must_beat_their_termination_after_exactly_their_demand() {
        let (end, demand) = (SimTime::from_micros(10), Cycles::new(5));
        let mut c = InvariantChecker::new(1);
        c.completion(JobId(1), SimTime::from_micros(9), end, demand, demand);
        c.completion(JobId(2), end, end, demand, demand);
        let late = (SimTime::from_micros(11), demand);
        for (at, executed) in [late, (end, Cycles::new(4)), (end, Cycles::new(6))] {
            let mut c = InvariantChecker::new(1);
            let r = std::panic::catch_unwind(move || {
                c.completion(JobId(3), at, end, executed, demand);
            });
            assert!(r.is_err(), "completion at {at} after {executed} passed");
        }
    }

    #[test]
    fn energy_is_additive_and_non_negative() {
        let mut c = InvariantChecker::new(1);
        c.energy_charge(1.5);
        c.energy_charge(0.0);
        c.energy_charge(2.5);
        c.finish(4.0);
        let r = std::panic::catch_unwind(move || c.finish(5.0));
        assert!(r.is_err());
        let mut c = InvariantChecker::new(1);
        let r = std::panic::catch_unwind(move || c.energy_charge(-1.0));
        assert!(r.is_err());
        // A total within the additivity tolerance of no charge at all is
        // still negative.
        let c = InvariantChecker::new(1);
        let r = std::panic::catch_unwind(move || c.finish(-1e-9));
        assert!(r.is_err());
    }
}
