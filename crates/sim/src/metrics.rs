//! Simulation metrics: utility, energy, and per-task assurance statistics.

use std::fmt;

use eua_platform::TimeDelta;

use crate::ids::TaskId;
use crate::task::TaskSet;

/// Per-task outcome statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskMetrics {
    /// Jobs that arrived within the horizon.
    pub arrived: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs aborted at their termination time by the engine.
    pub aborted_by_termination: u64,
    /// Jobs aborted earlier by the policy.
    pub aborted_by_policy: u64,
    /// Total utility accrued by this task's observable jobs (those whose
    /// termination time fell within the horizon).
    pub utility: f64,
    /// Sum of `U^max` over observable jobs (the task's utility ceiling).
    pub max_utility: f64,
    /// Jobs whose termination time fell within the horizon — the
    /// population over which assurance statistics are well defined.
    pub observable: u64,
    /// Observable jobs that accrued at least `ν·U^max`.
    pub assured: u64,
    /// Completed jobs that met their critical time.
    pub critical_met: u64,
    /// Largest lateness `completion − critical_time` over completed jobs,
    /// in signed microseconds (negative = early).
    pub max_lateness_us: i64,
}

impl TaskMetrics {
    /// The empirical probability that a job accrued its required utility
    /// fraction — to be compared against the task's `ρ`.
    ///
    /// Returns `None` if no job was observable.
    #[must_use]
    pub fn assurance_rate(&self) -> Option<f64> {
        if self.observable == 0 {
            None
        } else {
            Some(self.assured as f64 / self.observable as f64)
        }
    }

    /// Fraction of arrived jobs that completed.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.completed as f64 / self.arrived as f64
        }
    }
}

/// Time spent executing at one clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequencyResidency {
    /// The frequency, in MHz (cycles/µs).
    pub mhz: u64,
    /// Total execution time at this frequency.
    pub busy: TimeDelta,
}

/// Aggregate metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// The simulated horizon.
    pub horizon: TimeDelta,
    /// Total utility accrued across all tasks (observable jobs only; see
    /// [`TaskMetrics::utility`]).
    pub total_utility: f64,
    /// Sum of `U^max` over all observable jobs.
    pub max_possible_utility: f64,
    /// Total energy consumed (Martin-model units).
    pub energy: f64,
    /// Time the processor spent executing jobs.
    pub busy_time: TimeDelta,
    /// Number of times the running job changed to a different job.
    pub context_switches: u64,
    /// Context switches that displaced a still-live job.
    pub preemptions: u64,
    /// Number of times the executing frequency changed.
    pub frequency_changes: u64,
    /// Per-task breakdowns, indexed by [`TaskId`].
    pub per_task: Vec<TaskMetrics>,
    /// Execution time per clock frequency, sorted by frequency.
    pub freq_residency: Vec<FrequencyResidency>,
}

impl Metrics {
    pub(crate) fn new(horizon: TimeDelta, tasks: usize) -> Self {
        Metrics {
            horizon,
            total_utility: 0.0,
            max_possible_utility: 0.0,
            energy: 0.0,
            busy_time: TimeDelta::ZERO,
            context_switches: 0,
            preemptions: 0,
            frequency_changes: 0,
            per_task: vec![TaskMetrics::default(); tasks],
            freq_residency: Vec::new(),
        }
    }

    /// Books `delta` of execution at `mhz`: busy time and that
    /// frequency's residency.
    pub(crate) fn add_busy(&mut self, mhz: u64, delta: TimeDelta) {
        self.busy_time = self.busy_time.saturating_add(delta);
        match self.freq_residency.binary_search_by_key(&mhz, |r| r.mhz) {
            Ok(i) => {
                let r = &mut self.freq_residency[i];
                r.busy = r.busy.saturating_add(delta);
            }
            Err(i) => {
                self.freq_residency
                    .insert(i, FrequencyResidency { mhz, busy: delta });
            }
        }
    }

    /// The time-weighted mean executing frequency in MHz (`None` if the
    /// processor never executed).
    #[must_use]
    pub fn mean_frequency_mhz(&self) -> Option<f64> {
        let total: u64 = self.freq_residency.iter().map(|r| r.busy.as_micros()).sum();
        if total == 0 {
            return None;
        }
        let weighted: f64 = self
            .freq_residency
            .iter()
            .map(|r| r.mhz as f64 * r.busy.as_micros() as f64)
            .sum();
        Some(weighted / total as f64)
    }

    /// The metrics of one task.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &TaskMetrics {
        &self.per_task[id.index()]
    }

    /// Accrued utility as a fraction of the ceiling `Σ U^max(arrived)`.
    #[must_use]
    pub fn utility_ratio(&self) -> f64 {
        if self.max_possible_utility == 0.0 {
            0.0
        } else {
            self.total_utility / self.max_possible_utility
        }
    }

    /// Utility accrued per unit of energy — the system-level UER the paper
    /// maximizes during overloads.
    #[must_use]
    pub fn utility_per_energy(&self) -> f64 {
        if self.energy == 0.0 {
            0.0
        } else {
            self.total_utility / self.energy
        }
    }

    /// Total jobs arrived.
    #[must_use]
    pub fn jobs_arrived(&self) -> u64 {
        self.per_task.iter().map(|t| t.arrived).sum()
    }

    /// Total jobs completed.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.per_task.iter().map(|t| t.completed).sum()
    }

    /// Total jobs aborted (by engine or policy).
    #[must_use]
    pub fn jobs_aborted(&self) -> u64 {
        self.per_task
            .iter()
            .map(|t| t.aborted_by_termination + t.aborted_by_policy)
            .sum()
    }

    /// `true` when every task's empirical assurance rate meets its `ρ`
    /// requirement (tasks with no observable jobs are skipped).
    #[must_use]
    pub fn meets_assurances(&self, tasks: &TaskSet) -> bool {
        self.per_task
            .iter()
            .enumerate()
            .all(|(i, tm)| match tm.assurance_rate() {
                Some(rate) => rate + 1e-12 >= tasks.task(TaskId(i)).assurance().rho(),
                None => true,
            })
    }

    /// The largest lateness across all tasks' completed jobs, in signed
    /// microseconds.
    #[must_use]
    pub fn max_lateness_us(&self) -> i64 {
        self.per_task
            .iter()
            .filter(|t| t.completed > 0)
            .map(|t| t.max_lateness_us)
            .max()
            .unwrap_or(i64::MIN)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "utility {:.1}/{:.1} ({:.1}%), energy {:.3e}, {} completed / {} aborted of {} jobs",
            self.total_utility,
            self.max_possible_utility,
            100.0 * self.utility_ratio(),
            self.energy,
            self.jobs_completed(),
            self.jobs_aborted(),
            self.jobs_arrived(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_runs() {
        let m = Metrics::new(TimeDelta::from_millis(1), 2);
        assert_eq!(m.utility_ratio(), 0.0);
        assert_eq!(m.utility_per_energy(), 0.0);
        assert_eq!(m.jobs_arrived(), 0);
        assert_eq!(m.max_lateness_us(), i64::MIN);
    }

    #[test]
    fn task_metrics_rates() {
        let tm = TaskMetrics {
            arrived: 10,
            completed: 8,
            observable: 10,
            assured: 9,
            ..TaskMetrics::default()
        };
        assert_eq!(tm.assurance_rate(), Some(0.9));
        assert_eq!(tm.completion_rate(), 0.8);
        let empty = TaskMetrics::default();
        assert_eq!(empty.assurance_rate(), None);
        assert_eq!(empty.completion_rate(), 0.0);
    }

    #[test]
    fn aggregates_sum_over_tasks() {
        let mut m = Metrics::new(TimeDelta::from_millis(1), 2);
        m.per_task[0].arrived = 3;
        m.per_task[0].completed = 2;
        m.per_task[0].aborted_by_termination = 1;
        m.per_task[1].arrived = 4;
        m.per_task[1].completed = 4;
        m.per_task[1].aborted_by_policy = 0;
        assert_eq!(m.jobs_arrived(), 7);
        assert_eq!(m.jobs_completed(), 6);
        assert_eq!(m.jobs_aborted(), 1);
    }

    #[test]
    fn utility_ratio_divides() {
        let mut m = Metrics::new(TimeDelta::from_millis(1), 1);
        m.total_utility = 30.0;
        m.max_possible_utility = 40.0;
        m.energy = 10.0;
        assert!((m.utility_ratio() - 0.75).abs() < 1e-12);
        assert!((m.utility_per_energy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let m = Metrics::new(TimeDelta::from_millis(1), 1);
        assert!(m.to_string().contains("jobs"));
    }
}
