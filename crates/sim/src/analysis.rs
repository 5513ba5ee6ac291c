//! Post-hoc analysis of a run's certificate and metrics: the dispatch
//! sequence, the ledger's busy time, EDF-order auditing and the
//! degradation oracle.
//!
//! These helpers close the loop between the simulator's raw outputs and
//! the properties the paper argues about. The certificate
//! ([`crate::certificate`]) is the run's record: Theorem 2's "EUA\*
//! produces EDF's schedule" compares two runs' [`dispatch_sequence`]s,
//! and its "critical time ordered schedule" is directly checkable with
//! [`edf_violations`].

use eua_platform::{SimTime, TimeDelta};

use crate::certificate::{ChargeKind, RunCertificate, WalkError};
use crate::ids::{JobId, TaskId};
use crate::task::TaskSet;

/// The jobs a run executed, in execution order with adjacent repeats
/// collapsed: the schedule's "shape", independent of speed.
///
/// Each [`ChargeKind::Execute`] charge in the ledger is attributed to
/// the latest certified decision at or before its start, whose `run`
/// is the job that executed: the engine records a decision before the
/// charges it causes, and the next decision comes no earlier than the
/// end of an execute charge.
#[must_use]
pub fn dispatch_sequence(cert: &RunCertificate) -> Vec<JobId> {
    let mut seq = Vec::new();
    let mut events = cert.events.iter().peekable();
    let mut running = None;
    for charge in cert
        .charges
        .iter()
        .filter(|c| c.kind == ChargeKind::Execute)
    {
        while let Some(event) = events.next_if(|e| e.at <= charge.at) {
            running = event.run;
        }
        if let Some(job) = running {
            if seq.last() != Some(&job) {
                seq.push(job);
            }
        }
    }
    seq
}

/// The busy time the charge ledger accounts for: the summed length of
/// its non-idle (execute and switch) charges, or `None` when a charge
/// starts before the previous one ends, which a uniprocessor cannot do.
#[must_use]
pub fn ledger_busy_time(cert: &RunCertificate) -> Option<TimeDelta> {
    let serial = cert
        .charges
        .windows(2)
        .all(|w| w[0].at.saturating_add(TimeDelta::from_micros(w[0].micros)) <= w[1].at);
    serial.then(|| {
        TimeDelta::from_micros(
            cert.charges
                .iter()
                .filter(|c| c.kind != ChargeKind::Idle)
                .map(|c| c.micros)
                .sum(),
        )
    })
}

/// One departure from earliest-critical-time-first dispatching: at
/// `at`, `ran` was chosen although `preferred` (earlier critical time)
/// was ready and not aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdfViolation {
    /// The decision instant where the inversion was observed.
    pub at: SimTime,
    /// The job the decision chose to run.
    pub ran: JobId,
    /// A ready job with a strictly earlier critical time.
    pub preferred: JobId,
}

/// Audits a certificate for earliest-critical-time-first order.
///
/// At every certified decision that runs a job, each ready job the
/// decision did not abort is compared against the running job's
/// critical time. EDF-family policies produce no violations under-load
/// (Theorem 2); utility-accrual policies *should* produce violations
/// during overload — that is the point of UA scheduling — so this
/// doubles as a behavioural fingerprint.
///
/// # Errors
///
/// The certificate's first ready-set change that does not apply
/// ([`RunCertificate::walk`]).
pub fn edf_violations(cert: &RunCertificate) -> Result<Vec<EdfViolation>, WalkError> {
    let mut violations = Vec::new();
    cert.walk(|_, event, ready| {
        let Some(ran) = event.run else { return };
        let Some(running) = ready.iter().find(|j| j.job == ran) else {
            return;
        };
        for other in ready {
            if other.critical < running.critical && !event.aborts.contains(&other.job) {
                violations.push(EdfViolation {
                    at: event.at,
                    ran,
                    preferred: other.job,
                });
            }
        }
    })?;
    Ok(violations)
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

    use crate::certificate::{ChargeRecord, EventRecord, JobSnapshot};
    use crate::context::SchedEvent;
    use crate::engine::{Engine, SimConfig};
    use crate::platform_view::Platform;
    use crate::policy::MaxSpeedEdf;
    use crate::task::Task;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    /// A certificate carrying only `events` and `charges`: everything
    /// the schedule readers look at.
    fn certificate(events: Vec<EventRecord>, charges: Vec<ChargeRecord>) -> RunCertificate {
        RunCertificate {
            policy: "synthetic".to_string(),
            seed: 0,
            horizon: ms(1),
            frequencies_mhz: vec![100],
            policy_frequencies_mhz: vec![100],
            energy_name: "E1".to_string(),
            energy_rel: (1.0, 0.0, 0.0, 0.0),
            idle_power: 0.0,
            tasks: Vec::new(),
            arrivals: Vec::new(),
            events,
            charges,
            final_energy: 0.0,
        }
    }

    /// A decision at `at` where `arrived` joined the ready set.
    fn decision(at: u64, arrived: Vec<JobSnapshot>, run: u64, aborts: Vec<u64>) -> EventRecord {
        EventRecord {
            at: us(at),
            trigger: SchedEvent::Arrival,
            departed: Vec::new(),
            progressed: Vec::new(),
            arrived,
            run: Some(JobId(run)),
            frequency: Frequency::from_mhz(100),
            aborts: aborts.into_iter().map(JobId).collect(),
            explanation: None,
        }
    }

    fn charge(kind: ChargeKind, at: u64, micros: u64) -> ChargeRecord {
        ChargeRecord {
            at: us(at),
            kind,
            frequency_mhz: 100,
            cycles: Cycles::new(100 * micros),
            micros,
            energy: micros as f64,
        }
    }

    fn ready(id: u64, arrival: u64, critical: u64) -> JobSnapshot {
        JobSnapshot {
            job: JobId(id),
            task: TaskId(0),
            arrival: us(arrival),
            critical: us(critical),
            termination: us(critical),
            remaining: Cycles::new(100),
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
        let config = SimConfig::new(ms(200)).with_certificate();
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform,
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let violations = edf_violations(out.certificate.as_ref().unwrap()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn synthetic_inversion_is_detected() {
        // Job 1 has the earlier critical time (arrival 0) but job 0
        // (arrival 100 µs) runs first. Job 2 is earlier still, but the
        // same decision aborts it, so it does not count.
        let event = decision(
            100,
            vec![
                ready(0, 100, 10_100),
                ready(1, 0, 10_000),
                ready(2, 0, 5_000),
            ],
            0,
            vec![2],
        );
        let violations = edf_violations(&certificate(vec![event], Vec::new()));
        assert_eq!(
            violations,
            Ok(vec![EdfViolation {
                at: us(100),
                ran: JobId(0),
                preferred: JobId(1),
            }])
        );
    }

    #[test]
    fn a_change_that_does_not_apply_is_a_typed_error() {
        let event = EventRecord {
            departed: vec![JobId(4)],
            ..decision(100, Vec::new(), 0, Vec::new())
        };
        assert_eq!(
            edf_violations(&certificate(vec![event], Vec::new())),
            Err(WalkError::DepartedNotLive {
                event: 0,
                job: JobId(4),
            })
        );
    }

    #[test]
    fn dispatch_sequence_attributes_execute_charges_to_decisions() {
        let events = vec![
            decision(0, vec![ready(1, 0, 50)], 1, Vec::new()),
            decision(10, vec![ready(2, 10, 20)], 2, Vec::new()),
            // A second decision at the same instant supersedes the first.
            EventRecord {
                departed: vec![JobId(2)],
                ..decision(18, vec![ready(3, 18, 40)], 3, Vec::new())
            },
            decision(18, Vec::new(), 1, Vec::new()),
        ];
        let charges = vec![
            charge(ChargeKind::Execute, 0, 10),
            charge(ChargeKind::Switch, 10, 2),
            charge(ChargeKind::Execute, 12, 3),
            // Same job again (say, at a new frequency): collapsed.
            charge(ChargeKind::Execute, 15, 3),
            charge(ChargeKind::Execute, 18, 12),
            charge(ChargeKind::Idle, 30, 5),
        ];
        assert_eq!(
            dispatch_sequence(&certificate(events, charges)),
            vec![JobId(1), JobId(2), JobId(1)]
        );
    }

    #[test]
    fn ledger_busy_time_sums_non_idle_charges_of_a_serial_ledger() {
        let serial = vec![
            charge(ChargeKind::Execute, 0, 10),
            charge(ChargeKind::Switch, 10, 2),
            charge(ChargeKind::Idle, 12, 5),
            charge(ChargeKind::Execute, 20, 3),
        ];
        assert_eq!(
            ledger_busy_time(&certificate(Vec::new(), serial)),
            Some(TimeDelta::from_micros(15))
        );
        let overlapping = vec![
            charge(ChargeKind::Execute, 0, 10),
            charge(ChargeKind::Execute, 9, 3),
        ];
        assert_eq!(
            ledger_busy_time(&certificate(Vec::new(), overlapping)),
            None
        );
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
