//! Post-hoc analysis of execution traces, job records and metrics:
//! EDF-order auditing and the degradation oracle.
//!
//! These helpers close the loop between the simulator's raw outputs and
//! the properties the paper argues about — e.g. Theorem 2's "critical
//! time ordered schedule" is directly checkable with
//! [`edf_violations`].

use eua_platform::SimTime;

use crate::ids::{JobId, TaskId};
use crate::job::{JobOutcome, JobRecord};
use crate::task::TaskSet;
use crate::trace::ExecutionTrace;

/// One departure from earliest-critical-time-first dispatching: at
/// `at`, `ran` executed although `preferred` (earlier critical time) was
/// live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdfViolation {
    /// Segment start where the inversion was observed.
    pub at: SimTime,
    /// The job that ran.
    pub ran: JobId,
    /// A live job with a strictly earlier critical time.
    pub preferred: JobId,
}

/// Audits a trace for earliest-critical-time-first order.
///
/// For every execution segment, every job that was live at the segment's
/// start (arrived, not yet completed/aborted) is compared against the
/// running job's critical time. EDF-family policies produce no
/// violations under-load (Theorem 2); utility-accrual policies *should*
/// produce violations during overload — that is the point of UA
/// scheduling — so this doubles as a behavioural fingerprint.
#[must_use]
pub fn edf_violations(
    trace: &ExecutionTrace,
    records: &[JobRecord],
    tasks: &TaskSet,
) -> Vec<EdfViolation> {
    struct Span {
        id: JobId,
        arrival: SimTime,
        end: SimTime,
        critical: SimTime,
    }
    let spans: Vec<Span> = records
        .iter()
        .map(|r| {
            let end = match r.outcome {
                JobOutcome::Completed { at, .. } | JobOutcome::Aborted { at, .. } => at,
                JobOutcome::Unfinished => SimTime::MAX,
            };
            Span {
                id: r.id,
                arrival: r.arrival,
                end,
                critical: r
                    .arrival
                    .saturating_add(tasks.task(r.task).critical_offset()),
            }
        })
        .collect();
    let mut violations = Vec::new();
    for seg in trace.segments() {
        let Some(running) = spans.iter().find(|s| s.id == seg.job) else {
            continue;
        };
        for other in &spans {
            if other.id != running.id
                && other.arrival <= seg.start
                && other.end > seg.start
                && other.critical < running.critical
            {
                violations.push(EdfViolation {
                    at: seg.start,
                    ran: running.id,
                    preferred: other.id,
                });
            }
        }
    }
    violations
}

/// How a run fared against one task's requested `{ν, ρ}` assurance —
/// the degradation oracle's verdict (see DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationClass {
    /// The delivered assurance met the requested `ρ`.
    Met,
    /// Below `ρ` but above the collapse fraction of it: the policy is
    /// shedding load, not failing outright.
    Degraded,
    /// Below `collapse_fraction · ρ`: the assurance effectively failed.
    Collapsed,
}

impl DegradationClass {
    /// A stable lowercase label (used by report writers).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationClass::Met => "met",
            DegradationClass::Degraded => "degraded",
            DegradationClass::Collapsed => "collapsed",
        }
    }
}

/// One task's row in a [`DegradationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDegradation {
    /// The task's index.
    pub task: TaskId,
    /// The requested probability `ρ`.
    pub requested_rho: f64,
    /// The requested utility fraction `ν`.
    pub requested_nu: f64,
    /// The delivered assurance rate, `None` when no job of the task was
    /// observable within the horizon (vacuously met).
    pub delivered: Option<f64>,
    /// The verdict.
    pub class: DegradationClass,
}

/// The degradation oracle's full verdict for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Per-task rows, in task order.
    pub per_task: Vec<TaskDegradation>,
    /// The worst per-task class (a run is only as good as its worst
    /// task); [`DegradationClass::Met`] for an empty task set.
    pub overall: DegradationClass,
}

/// The default collapse threshold: delivering less than half the
/// requested `ρ` counts as a collapse, not graceful degradation.
pub const DEFAULT_COLLAPSE_FRACTION: f64 = 0.5;

/// Classifies a run's delivered assurance against each task's requested
/// `{ν_i, ρ_i}`: **met** when the fraction of observable jobs that
/// reached `ν_i · U_max` is at least `ρ_i`, **collapsed** when it fell
/// below `collapse_fraction · ρ_i`, and **gracefully degraded** in
/// between. Tasks with no observable jobs are vacuously met.
///
/// # Panics
///
/// Panics if `collapse_fraction` is not within `[0, 1]`, or if `metrics`
/// was produced from a different task set (length mismatch).
#[must_use]
pub fn classify_degradation(
    metrics: &crate::metrics::Metrics,
    tasks: &TaskSet,
    collapse_fraction: f64,
) -> DegradationReport {
    assert!(
        (0.0..=1.0).contains(&collapse_fraction),
        "collapse fraction must be within [0, 1]"
    );
    assert_eq!(
        metrics.per_task.len(),
        tasks.len(),
        "metrics and task set disagree in length"
    );
    let per_task: Vec<TaskDegradation> = metrics
        .per_task
        .iter()
        .enumerate()
        .map(|(i, tm)| {
            let task = tasks.task(TaskId(i));
            let rho = task.assurance().rho();
            let delivered = tm.assurance_rate();
            let class = match delivered {
                None => DegradationClass::Met,
                Some(rate) if rate + 1e-12 >= rho => DegradationClass::Met,
                Some(rate) if rate < collapse_fraction * rho - 1e-12 => DegradationClass::Collapsed,
                Some(_) => DegradationClass::Degraded,
            };
            TaskDegradation {
                task: TaskId(i),
                requested_rho: rho,
                requested_nu: task.assurance().nu(),
                delivered,
                class,
            }
        })
        .collect();
    let overall = per_task
        .iter()
        .map(|t| t.class)
        .max()
        .unwrap_or(DegradationClass::Met);
    DegradationReport { per_task, overall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{Cycles, EnergySetting, Frequency, TimeDelta};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::generator::ArrivalPattern;
    use eua_uam::{Assurance, UamSpec};

    use crate::engine::{Engine, SimConfig};
    use crate::platform_view::Platform;
    use crate::policy::MaxSpeedEdf;
    use crate::task::Task;
    use crate::trace::Segment;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn record(id: u64, task: usize, arrival: u64, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            id: JobId(id),
            task: TaskId(task),
            arrival: SimTime::from_micros(arrival),
            actual_demand: Cycles::new(10),
            executed: Cycles::new(10),
            outcome,
        }
    }

    #[test]
    fn edf_policy_produces_no_violations_underload() {
        let p = ms(10);
        let task = Task::new(
            "t",
            Tuf::step(1.0, p).unwrap(),
            UamSpec::periodic(p).unwrap(),
            DemandModel::deterministic(200_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = crate::task::TaskSet::new(vec![task.clone(), task]).unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(p).unwrap(),
            ArrivalPattern::periodic(p).unwrap(),
        ];
        let platform = Platform::powernow(EnergySetting::e1());
        let config = SimConfig::new(ms(200)).with_trace().with_job_records();
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform,
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let violations = edf_violations(
            out.trace.as_ref().unwrap(),
            out.jobs.as_ref().unwrap(),
            &tasks,
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn synthetic_inversion_is_detected() {
        let p = ms(10);
        let task = Task::new(
            "t",
            Tuf::step(1.0, p).unwrap(),
            UamSpec::new(2, p).unwrap(),
            DemandModel::deterministic(100.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = crate::task::TaskSet::new(vec![task]).unwrap();
        // Job 1 has the earlier critical time (arrival 0) but job 0
        // (arrival 100 µs) runs first.
        let records = vec![
            record(
                0,
                0,
                100,
                JobOutcome::Completed {
                    at: SimTime::from_micros(300),
                    utility: 1.0,
                },
            ),
            record(
                1,
                0,
                0,
                JobOutcome::Completed {
                    at: SimTime::from_micros(500),
                    utility: 1.0,
                },
            ),
        ];
        let mut trace = ExecutionTrace::new();
        trace.push_segment(Segment {
            job: JobId(0),
            task: TaskId(0),
            start: SimTime::from_micros(100),
            end: SimTime::from_micros(300),
            frequency: Frequency::from_mhz(100),
        });
        let violations = edf_violations(&trace, &records, &tasks);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].ran, JobId(0));
        assert_eq!(violations[0].preferred, JobId(1));
    }

    fn oracle_tasks(n: usize) -> TaskSet {
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                Task::new(
                    format!("t{i}"),
                    Tuf::step(10.0, ms(10)).unwrap(),
                    UamSpec::periodic(ms(10)).unwrap(),
                    DemandModel::deterministic(100_000.0).unwrap(),
                    Assurance::new(1.0, 0.9).unwrap(),
                )
                .unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    }

    fn metrics_with_assured(per_task: &[(u64, u64)]) -> crate::metrics::Metrics {
        let mut m = crate::metrics::Metrics::new(ms(100), per_task.len());
        for (tm, &(observable, assured)) in m.per_task.iter_mut().zip(per_task) {
            tm.arrived = observable;
            tm.observable = observable;
            tm.assured = assured;
        }
        m
    }

    #[test]
    fn degradation_oracle_classifies_met_degraded_collapsed() {
        // ρ = 0.9, collapse fraction 0.5 ⇒ collapse threshold 0.45.
        let tasks = oracle_tasks(4);
        let metrics = metrics_with_assured(&[(10, 9), (10, 5), (10, 3), (0, 0)]);
        let report = classify_degradation(&metrics, &tasks, DEFAULT_COLLAPSE_FRACTION);
        let classes: Vec<DegradationClass> = report.per_task.iter().map(|t| t.class).collect();
        assert_eq!(
            classes,
            vec![
                DegradationClass::Met,       // 0.9 ≥ 0.9
                DegradationClass::Degraded,  // 0.45 ≤ 0.5 < 0.9
                DegradationClass::Collapsed, // 0.3 < 0.45
                DegradationClass::Met,       // vacuous: nothing observable
            ]
        );
        assert_eq!(report.overall, DegradationClass::Collapsed);
        assert_eq!(report.per_task[1].delivered, Some(0.5));
        assert!(report.per_task[3].delivered.is_none());
        assert!((report.per_task[0].requested_rho - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degradation_overall_is_the_worst_task() {
        let tasks = oracle_tasks(2);
        let all_met = metrics_with_assured(&[(10, 10), (10, 9)]);
        assert_eq!(
            classify_degradation(&all_met, &tasks, DEFAULT_COLLAPSE_FRACTION).overall,
            DegradationClass::Met
        );
        let one_degraded = metrics_with_assured(&[(10, 10), (10, 6)]);
        assert_eq!(
            classify_degradation(&one_degraded, &tasks, DEFAULT_COLLAPSE_FRACTION).overall,
            DegradationClass::Degraded
        );
    }

    #[test]
    fn degradation_class_labels_are_stable() {
        assert_eq!(DegradationClass::Met.as_str(), "met");
        assert_eq!(DegradationClass::Degraded.as_str(), "degraded");
        assert_eq!(DegradationClass::Collapsed.as_str(), "collapsed");
        // Report writers depend on the severity ordering.
        assert!(DegradationClass::Met < DegradationClass::Degraded);
        assert!(DegradationClass::Degraded < DegradationClass::Collapsed);
    }

    #[test]
    #[should_panic(expected = "collapse fraction")]
    fn degradation_rejects_out_of_range_fraction() {
        let tasks = oracle_tasks(1);
        let metrics = metrics_with_assured(&[(10, 10)]);
        let _ = classify_degradation(&metrics, &tasks, 1.5);
    }
}
