//! Decision certificates: a self-contained, serializable record of every
//! scheduling decision (and every energy charge) an engine run made,
//! sufficient for an *offline* checker to re-derive the paper's
//! Algorithm-1/Algorithm-2 invariants without re-running the engine.
//!
//! Enable recording with [`crate::SimConfig::with_certificate`]; the run's
//! [`RunCertificate`] then appears on [`crate::Outcome::certificate`]. The
//! certificate embeds the full declarative context — frequency tables
//! (both the true table and the possibly fault-degraded view the policy
//! planned against), the Martin energy setting, every task's TUF and UAM
//! declaration, and the certified arrival stream — so `eua-audit` (the
//! independent checker in `crates/audit`) needs nothing but the file.
//!
//! [`RunCertificate::render`] writes an `eua-certificate/2` document:
//! compact JSON with one top-level field per line and one event and one
//! charge per line, written straight into the output through
//! [`crate::json`]'s scalar writers. The arrival, job, UER, schedule,
//! abort-witness and charge tables are positional rows whose cell order
//! the `columns` header names. An event does not repeat its ready set,
//! in memory or in text: it holds the ids that `departed`, the
//! `[job, remaining]` rows that `progressed` and the job rows that
//! `arrived` since the previous event. [`RunCertificate::parse`] reads
//! them back through the shared [`crate::json::Lexer`], and
//! [`RunCertificate::walk`] replays them into each event's ready set.
//! Certificates round-trip both ways (`render(parse(s)) == s` and
//! `parse(render(c)) == c`), and two runs producing equal certificates
//! render to identical bytes.

use std::borrow::Cow;
use std::cmp::Ordering;

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_tuf::Tuf;

use crate::context::{JobView, SchedEvent};
use crate::ids::{JobId, TaskId};
use crate::json::{parse as json_parse, write_str, write_uint, FloatMemo, Lexer, Token};
use crate::policy::Decision;
use crate::task::Task;

/// The format tag pinned into every certificate this module writes.
pub const CERT_FORMAT: &str = "eua-certificate/2";

/// A declarative snapshot of one task, sufficient to re-evaluate its TUF,
/// UAM bound, and Chebyshev allocation offline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDecl {
    /// The task's name.
    pub name: String,
    /// Its time/utility function.
    pub tuf: TufDecl,
    /// UAM arrival bound `a` (max arrivals per window).
    pub max_arrivals: u32,
    /// UAM sliding window `P`.
    pub window: TimeDelta,
    /// The Chebyshev cycle allocation `c_i` policies plan with.
    pub allocation: Cycles,
    /// Critical-time offset `D_i` from arrival.
    pub critical_offset: TimeDelta,
    /// Termination-time offset from arrival.
    pub termination_offset: TimeDelta,
}

impl TaskDecl {
    /// Captures a task's declarative surface.
    #[must_use]
    pub fn from_task(task: &Task) -> Self {
        TaskDecl {
            name: task.name().to_string(),
            tuf: TufDecl::from_tuf(task.tuf()),
            max_arrivals: task.uam().max_arrivals(),
            window: task.uam().window(),
            allocation: task.allocation(),
            critical_offset: task.critical_offset(),
            termination_offset: task.termination_offset(),
        }
    }
}

/// A serializable TUF shape (mirrors the constructors of [`Tuf`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TufDecl {
    /// Constant `umax` until `step_at`, zero afterwards, schedulable until
    /// `termination`.
    Step {
        /// Utility before the step.
        umax: f64,
        /// The step (deadline) offset.
        step_at: TimeDelta,
        /// Termination offset.
        termination: TimeDelta,
    },
    /// Linear decay from `umax` to zero at `termination`.
    Linear {
        /// Utility at release.
        umax: f64,
        /// The x-intercept offset.
        termination: TimeDelta,
    },
    /// Exponential decay `umax·e^(−t/τ)` truncated at `termination`.
    Exponential {
        /// Utility at release.
        umax: f64,
        /// Decay constant τ.
        tau: TimeDelta,
        /// Termination offset.
        termination: TimeDelta,
    },
    /// Piecewise-linear over `(offset, utility)` breakpoints.
    Piecewise {
        /// Breakpoints in declaration order.
        points: Vec<(TimeDelta, f64)>,
    },
}

impl TufDecl {
    /// Lowers a validated [`Tuf`] into its declarative form.
    #[must_use]
    pub fn from_tuf(tuf: &Tuf) -> Self {
        match tuf {
            Tuf::Step(s) => TufDecl::Step {
                umax: s.height(),
                step_at: s.step_at(),
                termination: tuf.termination(),
            },
            Tuf::Linear(l) => TufDecl::Linear {
                umax: l.umax(),
                termination: tuf.termination(),
            },
            Tuf::Exponential(e) => TufDecl::Exponential {
                umax: tuf.max_utility(),
                tau: e.tau(),
                termination: tuf.termination(),
            },
            Tuf::Piecewise(p) => TufDecl::Piecewise {
                points: p.breakpoints().to_vec(),
            },
            // `Tuf` is non-exhaustive upstream; unknown future shapes
            // degrade to their linear envelope.
            _ => TufDecl::Linear {
                umax: tuf.max_utility(),
                termination: tuf.termination(),
            },
        }
    }

    /// Raises the declaration back into an evaluable [`Tuf`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the declared parameters violate the
    /// shape's constructor contract.
    pub fn to_tuf(&self) -> Result<Tuf, String> {
        match self {
            TufDecl::Step {
                umax,
                step_at,
                termination,
            } => eua_tuf::StepTuf::with_termination(*umax, *step_at, *termination)
                .map(Tuf::from)
                .map_err(|e| format!("step tuf: {e}")),
            TufDecl::Linear { umax, termination } => {
                Tuf::linear(*umax, *termination).map_err(|e| format!("linear tuf: {e}"))
            }
            TufDecl::Exponential {
                umax,
                tau,
                termination,
            } => Tuf::exponential(*umax, *tau, *termination)
                .map_err(|e| format!("exponential tuf: {e}")),
            TufDecl::Piecewise { points } => {
                Tuf::piecewise(points.iter().copied()).map_err(|e| format!("piecewise tuf: {e}"))
            }
        }
    }
}

/// A live job as the policy saw it at a decision instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The job's id.
    pub job: JobId,
    /// The owning task (index into the certificate's task table).
    pub task: TaskId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute critical time.
    pub critical: SimTime,
    /// Absolute termination time.
    pub termination: SimTime,
    /// Believed remaining cycles.
    pub remaining: Cycles,
}

impl JobSnapshot {
    /// Snapshots a [`JobView`].
    #[must_use]
    pub fn from_view(view: &JobView) -> Self {
        JobSnapshot {
            job: view.id,
            task: view.task,
            arrival: view.arrival,
            critical: view.critical_time,
            termination: view.termination,
            remaining: view.remaining,
        }
    }
}

/// One job's computed utility-and-energy ratio (UER) at a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UerEntry {
    /// The job.
    pub job: JobId,
    /// Its UER: predicted utility per unit of energy at `f_m`.
    pub uer: f64,
}

/// One entry of the tentative schedule, with the back-to-back predicted
/// finish time at `f_m` that justified its feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The scheduled job.
    pub job: JobId,
    /// Predicted completion instant when the schedule runs back-to-back
    /// at the maximum (policy-view) frequency.
    pub predicted_finish: SimTime,
}

/// The infeasibility witness justifying one policy abort: even at `f_m`,
/// the job cannot finish before its termination time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortWitness {
    /// The aborted job.
    pub job: JobId,
    /// Its believed remaining cycles at the decision instant.
    pub remaining: Cycles,
    /// Its absolute termination time.
    pub termination: SimTime,
    /// `now + exec_time(remaining, f_m)` — past `termination`.
    pub predicted_finish: SimTime,
}

/// The stochastic look-ahead quantities (Algorithm 2) that justified the
/// chosen frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsExplanation {
    /// The required processor speed (cycles/µs) from the look-ahead.
    pub required_speed: f64,
    /// Total cycles that must run before the earliest critical time.
    pub must_run_cycles: f64,
    /// The earliest critical time driving the look-ahead horizon.
    pub earliest_critical: Option<SimTime>,
    /// The UER-optimal frequency clamp applied to the head job's task,
    /// when the clamp option was active.
    pub clamp: Option<Frequency>,
}

/// Everything the policy asserts about one decision, for offline
/// re-derivation. Policies that cannot explain themselves return `None`
/// from [`crate::SchedulerPolicy::explain`] and the auditor degrades to
/// engine-level checks for their events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionExplanation {
    /// Computed UERs for every feasible ready job.
    pub uer: Vec<UerEntry>,
    /// The tentative schedule, critical-time ordered, with predicted
    /// finish times.
    pub schedule: Vec<ScheduleEntry>,
    /// Witnesses for every abort the decision requested.
    pub aborts: Vec<AbortWitness>,
    /// The DVS look-ahead, when frequency scaling was active.
    pub dvs: Option<DvsExplanation>,
    /// `true` when the insertion mode skips infeasible candidates rather
    /// than stopping at the first one.
    pub skip_infeasible: bool,
}

/// A live job whose believed remaining cycles changed between two
/// events: one `progressed` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The job.
    pub job: JobId,
    /// Its believed remaining cycles at the later event.
    pub remaining: Cycles,
}

/// One scheduling event: how the ready set changed since the previous
/// event, and what the policy decided. [`RunCertificate::walk`] replays
/// the changes into each event's ready set.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The decision instant.
    pub at: SimTime,
    /// What woke the scheduler.
    pub trigger: SchedEvent,
    /// Jobs that left the ready set since the previous event.
    pub departed: Vec<JobId>,
    /// Jobs still ready whose believed remaining cycles changed.
    pub progressed: Vec<Progress>,
    /// Jobs that joined the ready set since the previous event. A job
    /// whose task, arrival, critical or termination time changed is
    /// recorded as a departure plus an arrival.
    pub arrived: Vec<JobSnapshot>,
    /// The job chosen to run (`None` = idle).
    pub run: Option<JobId>,
    /// The chosen frequency, as the policy requested it (before any
    /// fault-injected remap).
    pub frequency: Frequency,
    /// Jobs the decision aborted.
    pub aborts: Vec<JobId>,
    /// The policy's self-explanation, when it provides one.
    pub explanation: Option<DecisionExplanation>,
}

/// What kind of work a [`ChargeRecord`] billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Job execution cycles.
    Execute,
    /// Context/frequency switch overhead (billed as cycles at the target
    /// frequency).
    Switch,
    /// A fault-injected costly abort handler.
    AbortCost,
    /// Idle draw (`idle_power` per microsecond).
    Idle,
}

impl ChargeKind {
    /// The kind's serialized tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ChargeKind::Execute => "execute",
            ChargeKind::Switch => "switch",
            ChargeKind::AbortCost => "abort-cost",
            ChargeKind::Idle => "idle",
        }
    }
}

/// One energy charge the engine billed, mirroring every
/// `metrics.energy +=` site so cumulative energy is auditable per charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeRecord {
    /// When the charged interval started.
    pub at: SimTime,
    /// What was billed.
    pub kind: ChargeKind,
    /// The executing frequency in MHz (0 for idle charges).
    pub frequency_mhz: u64,
    /// Cycles billed (zero for idle charges).
    pub cycles: Cycles,
    /// Wall time covered, in µs.
    pub micros: u64,
    /// The energy charged.
    pub energy: f64,
}

/// The complete certificate of one engine run.
///
/// Produced by the engine when [`crate::SimConfig::with_certificate`] is
/// set; consumed by `eua-audit`, which re-derives every invariant from
/// this record alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCertificate {
    /// The policy's name.
    pub policy: String,
    /// The run's seed.
    pub seed: u64,
    /// The simulated horizon.
    pub horizon: TimeDelta,
    /// The true platform frequency table, in MHz, ascending.
    pub frequencies_mhz: Vec<u64>,
    /// The table the *policy* planned against — identical to
    /// `frequencies_mhz` unless a degraded-frequency fault restricted it.
    pub policy_frequencies_mhz: Vec<u64>,
    /// The Martin energy setting's name.
    pub energy_name: String,
    /// The setting's relative coefficients `(S3, S2, S1/f_m², S0/f_m³)`,
    /// bound to a table's `f_m` at audit time.
    pub energy_rel: (f64, f64, f64, f64),
    /// Idle power draw per microsecond.
    pub idle_power: f64,
    /// Declarative task table, indexed by [`TaskId`].
    pub tasks: Vec<TaskDecl>,
    /// The certified arrival stream `(instant, task index)`, time-ordered.
    pub arrivals: Vec<(SimTime, usize)>,
    /// Every scheduling decision, in order.
    pub events: Vec<EventRecord>,
    /// Every energy charge, in order.
    pub charges: Vec<ChargeRecord>,
    /// The run's final cumulative energy.
    pub final_energy: f64,
}

/// A ready-set change that does not apply to the live set it follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// Event `event` departs a job that is not live.
    DepartedNotLive {
        /// The event's index.
        event: usize,
        /// The job.
        job: JobId,
    },
    /// Event `event` progresses a job that is not live.
    ProgressedNotLive {
        /// The event's index.
        event: usize,
        /// The job.
        job: JobId,
    },
    /// Event `event` admits a job that is already live.
    ArrivedAlreadyLive {
        /// The event's index.
        event: usize,
        /// The job.
        job: JobId,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::DepartedNotLive { event, job } => {
                write!(f, "event {event}: departed job {} is not live", job.0)
            }
            WalkError::ProgressedNotLive { event, job } => {
                write!(f, "event {event}: progressed job {} is not live", job.0)
            }
            WalkError::ArrivedAlreadyLive { event, job } => {
                write!(f, "event {event}: arrived job {} is already live", job.0)
            }
        }
    }
}

impl std::error::Error for WalkError {}

impl RunCertificate {
    /// Replays every event's ready-set change over one reused live set
    /// kept in id order, and hands `visit` each event's index, the event
    /// and its ready set. The changes apply in the order the engine
    /// makes them: departures, then progress, then arrivals.
    ///
    /// # Errors
    ///
    /// The first change that does not apply: a departure or a progress
    /// row for a job that is not live, or an arrival of a job that
    /// already is. Events before it have been visited.
    pub fn walk(
        &self,
        mut visit: impl FnMut(usize, &EventRecord, &[JobSnapshot]),
    ) -> Result<(), WalkError> {
        let mut live: Vec<JobSnapshot> = Vec::new();
        let find = |live: &[JobSnapshot], job: JobId| live.binary_search_by_key(&job, |s| s.job);
        for (event, record) in self.events.iter().enumerate() {
            for &job in &record.departed {
                let at = find(&live, job).map_err(|_| WalkError::DepartedNotLive { event, job })?;
                live.remove(at);
            }
            for &Progress { job, remaining } in &record.progressed {
                let at =
                    find(&live, job).map_err(|_| WalkError::ProgressedNotLive { event, job })?;
                live[at].remaining = remaining;
            }
            for &arrival in &record.arrived {
                let job = arrival.job;
                let at = find(&live, job)
                    .err()
                    .ok_or(WalkError::ArrivedAlreadyLive { event, job })?;
                live.insert(at, arrival);
            }
            visit(event, record, &live);
        }
        Ok(())
    }
}

/// A certificate under construction. Both event loops record every
/// decision through [`Recorder::record`], which finds the ready set's
/// change by a merge walk against the ids and remaining cycles of the
/// last recorded set; the loops themselves track no change. A live job's
/// task, arrival, critical and termination times never change, so a job
/// present in both sets can only have progressed.
#[derive(Debug)]
pub(crate) struct Recorder {
    cert: RunCertificate,
    ready: Vec<(JobId, Cycles)>,
}

impl Recorder {
    pub(crate) fn new(cert: RunCertificate) -> Self {
        Recorder {
            cert,
            ready: Vec::new(),
        }
    }

    /// Records one decision taken over `views`, the id-ascending ready
    /// set the policy saw: the ids that departed since the previous
    /// decision, the jobs whose remaining cycles changed, the jobs that
    /// arrived, and what the policy decided.
    pub(crate) fn record(
        &mut self,
        at: SimTime,
        trigger: SchedEvent,
        views: &[JobView],
        decision: &Decision,
        explanation: Option<DecisionExplanation>,
    ) {
        debug_assert!(
            views.windows(2).all(|w| w[0].id < w[1].id),
            "ready sets must be id-ascending with no duplicates"
        );
        let mut event = EventRecord {
            at,
            trigger,
            departed: Vec::new(),
            progressed: Vec::new(),
            arrived: Vec::new(),
            run: decision.run,
            frequency: decision.frequency,
            aborts: decision.abort.clone(),
            explanation,
        };
        let before = &self.ready;
        let (mut i, mut k) = (0, 0);
        while let (Some(&(id, remaining)), Some(view)) = (before.get(i), views.get(k)) {
            match id.cmp(&view.id) {
                Ordering::Less => {
                    event.departed.push(id);
                    i += 1;
                }
                Ordering::Greater => {
                    event.arrived.push(JobSnapshot::from_view(view));
                    k += 1;
                }
                Ordering::Equal => {
                    if remaining != view.remaining {
                        event.progressed.push(Progress {
                            job: id,
                            remaining: view.remaining,
                        });
                    }
                    i += 1;
                    k += 1;
                }
            }
        }
        event.departed.extend(before[i..].iter().map(|&(id, _)| id));
        event
            .arrived
            .extend(views[k..].iter().map(JobSnapshot::from_view));
        self.ready.clear();
        self.ready.extend(views.iter().map(|v| (v.id, v.remaining)));
        self.cert.events.push(event);
    }

    /// The finished certificate.
    pub(crate) fn finish(mut self, final_energy: f64) -> RunCertificate {
        self.cert.final_energy = final_energy;
        self.cert
    }
}

// The event loops bill charges straight into the certificate.
impl std::ops::Deref for Recorder {
    type Target = RunCertificate;

    fn deref(&self) -> &RunCertificate {
        &self.cert
    }
}

impl std::ops::DerefMut for Recorder {
    fn deref_mut(&mut self) -> &mut RunCertificate {
        &mut self.cert
    }
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

// The cell order of each positional table. The `columns` header writes
// them out, and `parse` rejects a document whose header differs.
const ARRIVAL_COLUMNS: [&str; 2] = ["at_us", "task"];
const JOB_COLUMNS: [&str; 6] = [
    "job",
    "task",
    "arrival_us",
    "critical_us",
    "termination_us",
    "remaining_cycles",
];
const PROGRESS_COLUMNS: [&str; 2] = ["job", "remaining_cycles"];
const UER_COLUMNS: [&str; 2] = ["job", "uer"];
const SCHEDULE_COLUMNS: [&str; 2] = ["job", "finish_us"];
const ABORT_WITNESS_COLUMNS: [&str; 4] = [
    "job",
    "remaining_cycles",
    "termination_us",
    "predicted_finish_us",
];
const CHARGE_COLUMNS: [&str; 6] = [
    "at_us",
    "kind",
    "frequency_mhz",
    "cycles",
    "micros",
    "energy",
];

/// The `columns` header: each positional table's name and cell order.
const TABLES: [(&str, &[&str]); 7] = [
    ("arrival", &ARRIVAL_COLUMNS),
    ("job", &JOB_COLUMNS),
    ("progress", &PROGRESS_COLUMNS),
    ("uer", &UER_COLUMNS),
    ("schedule", &SCHEDULE_COLUMNS),
    ("abort_witness", &ABORT_WITNESS_COLUMNS),
    ("charge", &CHARGE_COLUMNS),
];

/// Starts a top-level field on a line of its own.
fn push_key(out: &mut String, key: &str) {
    out.push_str(if out.is_empty() { "{\n" } else { ",\n" });
    write_str(out, key);
    out.push(':');
}

/// Writes `[a,b,…]`, each item by `item`.
fn push_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, value) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, value);
    }
    out.push(']');
}

/// Writes a positional row of unsigned integers.
fn push_uints(out: &mut String, cells: &[u64]) {
    push_list(out, cells, |out, &v| write_uint(out, v));
}

/// Writes a top-level array field with one row per line.
fn push_lines<T>(out: &mut String, key: &str, rows: &[T], mut row: impl FnMut(&mut String, &T)) {
    push_key(out, key);
    out.push('[');
    let mut separator = "\n";
    for value in rows {
        out.push_str(separator);
        row(out, value);
        separator = ",\n";
    }
    out.push_str("\n]");
}

fn push_columns(out: &mut String) {
    out.push('{');
    for (i, (table, columns)) in TABLES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, table);
        out.push(':');
        push_list(out, columns, |out, column| write_str(out, column));
    }
    out.push('}');
}

fn push_tuf(out: &mut String, tuf: &TufDecl, floats: &mut FloatMemo) {
    match tuf {
        TufDecl::Step {
            umax,
            step_at,
            termination,
        } => {
            out.push_str(r#"{"shape":"step","umax":"#);
            floats.write(out, *umax);
            out.push_str(r#","step_at_us":"#);
            write_uint(out, step_at.as_micros());
            out.push_str(r#","termination_us":"#);
            write_uint(out, termination.as_micros());
        }
        TufDecl::Linear { umax, termination } => {
            out.push_str(r#"{"shape":"linear","umax":"#);
            floats.write(out, *umax);
            out.push_str(r#","termination_us":"#);
            write_uint(out, termination.as_micros());
        }
        TufDecl::Exponential {
            umax,
            tau,
            termination,
        } => {
            out.push_str(r#"{"shape":"exponential","umax":"#);
            floats.write(out, *umax);
            out.push_str(r#","tau_us":"#);
            write_uint(out, tau.as_micros());
            out.push_str(r#","termination_us":"#);
            write_uint(out, termination.as_micros());
        }
        TufDecl::Piecewise { points } => {
            out.push_str(r#"{"shape":"piecewise","points":"#);
            push_list(out, points, |out, &(t, u)| {
                out.push('[');
                write_uint(out, t.as_micros());
                out.push(',');
                floats.write(out, u);
                out.push(']');
            });
        }
    }
    out.push('}');
}

fn push_task(out: &mut String, task: &TaskDecl, floats: &mut FloatMemo) {
    out.push_str(r#"{"name":"#);
    write_str(out, &task.name);
    out.push_str(r#","tuf":"#);
    push_tuf(out, &task.tuf, floats);
    out.push_str(r#","max_arrivals":"#);
    write_uint(out, u64::from(task.max_arrivals));
    out.push_str(r#","window_us":"#);
    write_uint(out, task.window.as_micros());
    out.push_str(r#","allocation_cycles":"#);
    write_uint(out, task.allocation.get());
    out.push_str(r#","critical_offset_us":"#);
    write_uint(out, task.critical_offset.as_micros());
    out.push_str(r#","termination_offset_us":"#);
    write_uint(out, task.termination_offset.as_micros());
    out.push('}');
}

fn push_trigger(out: &mut String, event: SchedEvent) {
    let (kind, job) = match event {
        SchedEvent::Start => ("start", None),
        SchedEvent::Arrival => ("arrival", None),
        SchedEvent::Completion(j) => ("completion", Some(j)),
        SchedEvent::Abort(j) => ("abort", Some(j)),
    };
    out.push_str(r#"{"kind":"#);
    write_str(out, kind);
    if let Some(j) = job {
        out.push_str(r#","job":"#);
        write_uint(out, j.0);
    }
    out.push('}');
}

fn push_job_row(out: &mut String, j: &JobSnapshot) {
    push_uints(
        out,
        &[
            j.job.0,
            j.task.0 as u64,
            j.arrival.as_micros(),
            j.critical.as_micros(),
            j.termination.as_micros(),
            j.remaining.get(),
        ],
    );
}

fn push_opt_uint(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => write_uint(out, v),
        None => out.push_str("null"),
    }
}

fn push_event(out: &mut String, e: &EventRecord, floats: &mut FloatMemo) {
    out.push_str(r#"{"at_us":"#);
    write_uint(out, e.at.as_micros());
    out.push_str(r#","trigger":"#);
    push_trigger(out, e.trigger);
    out.push_str(r#","departed":"#);
    push_list(out, &e.departed, |out, j| write_uint(out, j.0));
    out.push_str(r#","progressed":"#);
    push_list(out, &e.progressed, |out, p| {
        push_uints(out, &[p.job.0, p.remaining.get()]);
    });
    out.push_str(r#","arrived":"#);
    push_list(out, &e.arrived, push_job_row);
    out.push_str(r#","run":"#);
    push_opt_uint(out, e.run.map(|j| j.0));
    out.push_str(r#","frequency_mhz":"#);
    write_uint(out, e.frequency.as_mhz());
    out.push_str(r#","aborts":"#);
    push_list(out, &e.aborts, |out, j| write_uint(out, j.0));
    out.push_str(r#","explanation":"#);
    match &e.explanation {
        Some(x) => push_explanation(out, x, floats),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_explanation(out: &mut String, x: &DecisionExplanation, floats: &mut FloatMemo) {
    out.push_str(r#"{"uer":"#);
    push_list(out, &x.uer, |out, u| {
        out.push('[');
        write_uint(out, u.job.0);
        out.push(',');
        floats.write(out, u.uer);
        out.push(']');
    });
    out.push_str(r#","schedule":"#);
    push_list(out, &x.schedule, |out, s| {
        push_uints(out, &[s.job.0, s.predicted_finish.as_micros()]);
    });
    out.push_str(r#","aborts":"#);
    push_list(out, &x.aborts, |out, a| {
        push_uints(
            out,
            &[
                a.job.0,
                a.remaining.get(),
                a.termination.as_micros(),
                a.predicted_finish.as_micros(),
            ],
        );
    });
    out.push_str(r#","dvs":"#);
    match &x.dvs {
        Some(d) => {
            out.push_str(r#"{"required_speed":"#);
            floats.write(out, d.required_speed);
            out.push_str(r#","must_run_cycles":"#);
            floats.write(out, d.must_run_cycles);
            out.push_str(r#","earliest_critical_us":"#);
            push_opt_uint(out, d.earliest_critical.map(SimTime::as_micros));
            out.push_str(r#","clamp_mhz":"#);
            push_opt_uint(out, d.clamp.map(Frequency::as_mhz));
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push_str(r#","skip_infeasible":"#);
    out.push_str(if x.skip_infeasible { "true" } else { "false" });
    out.push('}');
}

fn push_charge(out: &mut String, c: &ChargeRecord, floats: &mut FloatMemo) {
    out.push('[');
    write_uint(out, c.at.as_micros());
    out.push(',');
    write_str(out, c.kind.as_str());
    out.push(',');
    write_uint(out, c.frequency_mhz);
    out.push(',');
    write_uint(out, c.cycles.get());
    out.push(',');
    write_uint(out, c.micros);
    out.push(',');
    floats.write(out, c.energy);
    out.push(']');
}

impl RunCertificate {
    /// Renders the certificate as an `eua-certificate/2` document: compact
    /// JSON with one top-level field per line, except that `events` and
    /// `charges` put each row on a line of its own. Rows go straight into
    /// the output through [`crate::json`]'s scalar writers, and one
    /// [`FloatMemo`] formats each distinct float of the document once.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut floats = FloatMemo::default();
        push_key(&mut out, "format");
        write_str(&mut out, CERT_FORMAT);
        push_key(&mut out, "policy");
        write_str(&mut out, &self.policy);
        push_key(&mut out, "seed");
        write_uint(&mut out, self.seed);
        push_key(&mut out, "horizon_us");
        write_uint(&mut out, self.horizon.as_micros());
        push_key(&mut out, "frequencies_mhz");
        push_uints(&mut out, &self.frequencies_mhz);
        push_key(&mut out, "policy_frequencies_mhz");
        push_uints(&mut out, &self.policy_frequencies_mhz);
        push_key(&mut out, "energy");
        let (s3, s2, s1_rel, s0_rel) = self.energy_rel;
        out.push_str(r#"{"name":"#);
        write_str(&mut out, &self.energy_name);
        for (key, value) in [
            ("s3", s3),
            ("s2", s2),
            ("s1_rel", s1_rel),
            ("s0_rel", s0_rel),
        ] {
            out.push(',');
            write_str(&mut out, key);
            out.push(':');
            floats.write(&mut out, value);
        }
        out.push('}');
        push_key(&mut out, "idle_power");
        floats.write(&mut out, self.idle_power);
        push_key(&mut out, "columns");
        push_columns(&mut out);
        push_key(&mut out, "tasks");
        push_list(&mut out, &self.tasks, |out, task| {
            push_task(out, task, &mut floats);
        });
        push_key(&mut out, "arrivals");
        push_list(&mut out, &self.arrivals, |out, &(t, task)| {
            push_uints(out, &[t.as_micros(), task as u64]);
        });
        push_lines(&mut out, "events", &self.events, |out, event| {
            push_event(out, event, &mut floats);
        });
        push_lines(&mut out, "charges", &self.charges, |out, charge| {
            push_charge(out, charge, &mut floats);
        });
        push_key(&mut out, "final_energy");
        floats.write(&mut out, self.final_energy);
        out.push_str("\n}\n");
        out
    }

    /// Parses a rendered certificate. Its fields must come in the order
    /// [`RunCertificate::render`] writes them; the events keep their
    /// ready-set changes as written, for [`RunCertificate::walk`] to
    /// apply.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first malformed field; the
    /// auditor maps any such failure to `aud-malformed-certificate`.
    pub fn parse(text: &str) -> Result<RunCertificate, String> {
        let mut r = Reader {
            lex: Lexer::new(text),
        };
        if r.lex.peek() != Some(b'{') {
            // Not an object, so not a certificate: the tree parser names
            // what is wrong with it, such as nesting past its cap.
            json_parse(text)?;
            return Err("a certificate is a JSON object".into());
        }
        r.first("format")?;
        let format = r.string("format")?;
        if format != CERT_FORMAT {
            return Err(format!(
                "unknown certificate format {format:?}; this reader accepts {CERT_FORMAT:?} only"
            ));
        }
        r.next("policy")?;
        let policy = r.string("policy")?.into_owned();
        let seed = r.u64_field("seed")?;
        let horizon = r.delta_field("horizon_us")?;
        r.next("frequencies_mhz")?;
        let frequencies_mhz = r.list("frequencies_mhz", |r| r.u64("frequencies_mhz"))?;
        r.next("policy_frequencies_mhz")?;
        let policy_frequencies_mhz = r.list("policy_frequencies_mhz", |r| {
            r.u64("policy_frequencies_mhz")
        })?;
        r.next("energy")?;
        r.first("name")?;
        let energy_name = r.string("name")?.into_owned();
        let energy_rel = (
            r.f64_field("s3")?,
            r.f64_field("s2")?,
            r.f64_field("s1_rel")?,
            r.f64_field("s0_rel")?,
        );
        r.close()?;
        let idle_power = r.f64_field("idle_power")?;
        r.columns().map_err(|_| {
            format!("missing `columns` header, or one that differs from {CERT_FORMAT:?}'s")
        })?;
        r.next("tasks")?;
        let tasks = r.list("tasks", Reader::task)?;
        r.next("arrivals")?;
        let arrivals = r.list("arrivals", |r| {
            let [at, task] = r.uints("arrival", &ARRIVAL_COLUMNS)?;
            Ok((SimTime::from_micros(at), task_index(task)?))
        })?;
        r.next("events")?;
        let mut index = 0;
        let events = r.list("events", |r| {
            let event = r.event().map_err(|e| format!("event {index}: {e}"));
            index += 1;
            event
        })?;
        r.next("charges")?;
        let charges = r.list("charges", Reader::charge)?;
        let final_energy = r.f64_field("final_energy")?;
        r.close()?;
        r.lex.finish()?;
        Ok(RunCertificate {
            policy,
            seed,
            horizon,
            frequencies_mhz,
            policy_frequencies_mhz,
            energy_name,
            energy_rel,
            idle_power,
            tasks,
            arrivals,
            events,
            charges,
            final_energy,
        })
    }
}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

fn u64_of(v: &Token<'_>, what: &str) -> Result<u64, String> {
    match v {
        Token::Num(n) => n
            .parse::<u64>()
            .map_err(|_| format!("`{what}` is not an unsigned integer: {n:?}")),
        _ => Err(format!("non-numeric `{what}`")),
    }
}

fn f64_of(v: &Token<'_>, what: &str) -> Result<f64, String> {
    match v {
        Token::Num(n) => f64_from(n, what),
        _ => Err(format!("non-numeric `{what}`")),
    }
}

/// A number literal the lexer accepted, as an `f64`.
fn f64_from(n: &str, what: &str) -> Result<f64, String> {
    n.parse::<f64>()
        .map_err(|_| format!("`{what}` is not a number: {n:?}"))
}

fn task_index(task: u64) -> Result<usize, String> {
    usize::try_from(task).map_err(|_| "`task` is out of range".to_string())
}

/// Pulls a certificate's tokens from the shared [`Lexer`] in the fixed
/// order [`RunCertificate::render`] writes them, building no tree.
///
/// Keys, integers, UER rows and charge rows are first read as the writer
/// spells them (`"key":`, plain digits, rows without whitespace), with no
/// [`Token`] per cell. Any other spelling, such as an escape, whitespace
/// or a malformed cell, falls back to the token path from where the
/// shortcut started, so the reader accepts exactly what the token path
/// accepts and fails with its messages.
struct Reader<'a> {
    lex: Lexer<'a>,
}

impl<'a> Reader<'a> {
    /// Opens an object at its first field, `{"key":`.
    fn first(&mut self, key: &str) -> Result<(), String> {
        self.lex.expect(b'{', "'{'")?;
        self.key(key)
    }

    /// Moves to the object's next field, `,"key":`.
    fn next(&mut self, key: &str) -> Result<(), String> {
        if self.lex.eat(b',') {
            self.key(key)
        } else {
            Err(format!("missing `{key}` at byte {}", self.lex.offset()))
        }
    }

    fn key(&mut self, key: &str) -> Result<(), String> {
        if !self.lex.eat_plain_str(key) {
            self.lex.peek();
            let at = self.lex.offset();
            match self.lex.token()? {
                Token::Str(k) if k == key => {}
                _ => return Err(format!("missing `{key}` at byte {at}")),
            }
        }
        self.lex.expect(b':', "':'")
    }

    /// Closes an object after its last field.
    fn close(&mut self) -> Result<(), String> {
        self.lex.expect(b'}', "'}'")
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        match self.lex.uint() {
            Some(v) => Ok(v),
            None => u64_of(&self.lex.token()?, what),
        }
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        match self.lex.num() {
            Some(n) => f64_from(n, what),
            None => f64_of(&self.lex.token()?, what),
        }
    }

    fn string(&mut self, what: &str) -> Result<Cow<'a, str>, String> {
        match self.lex.token()? {
            Token::Str(s) => Ok(s),
            _ => Err(format!("non-string `{what}`")),
        }
    }

    /// `null`, or what `read` reads.
    fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.lex.peek() == Some(b'n') {
            self.lex.token()?;
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// An array, each item read by `item`.
    fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if !self.lex.eat(b'[') {
            return Err(format!("non-array `{what}`"));
        }
        let mut items = Vec::new();
        if self.lex.eat(b']') {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.lex.eat(b']') {
                return Ok(items);
            }
            self.lex.expect(b',', "',' or ']'")?;
        }
    }

    /// The cells of one positional row of `table`, which must have
    /// exactly one scalar cell per column.
    fn row<const N: usize>(
        &mut self,
        table: &str,
        columns: &[&str; N],
    ) -> Result<[Token<'a>; N], String> {
        if !self.lex.eat(b'[') {
            return Err(format!("{table} row is not an array"));
        }
        let mut cells = [const { Token::Null }; N];
        let mut count = 0;
        if !self.lex.eat(b']') {
            loop {
                self.lex.peek();
                let at = self.lex.offset();
                let cell = self.lex.token()?;
                if matches!(
                    cell,
                    Token::ObjectStart
                        | Token::ObjectEnd
                        | Token::ArrayStart
                        | Token::ArrayEnd
                        | Token::Colon
                        | Token::Comma
                ) {
                    return Err(format!("expected a scalar {table} cell at byte {at}"));
                }
                if let Some(slot) = cells.get_mut(count) {
                    *slot = cell;
                }
                count += 1;
                if self.lex.eat(b']') {
                    break;
                }
                self.lex.expect(b',', "',' or ']'")?;
            }
        }
        if count == N {
            Ok(cells)
        } else {
            Err(format!(
                "{table} row has {count} cells, not the {N} of {columns:?}"
            ))
        }
    }

    /// One positional row of `table` whose cells are all unsigned
    /// integers, in `columns` order.
    fn uints<const N: usize>(
        &mut self,
        table: &str,
        columns: &[&str; N],
    ) -> Result<[u64; N], String> {
        self.plain_or_tokens(Reader::plain_uints, |r| {
            let cells = r.row(table, columns)?;
            let mut values = [0; N];
            for ((value, cell), column) in values.iter_mut().zip(&cells).zip(columns) {
                *value = u64_of(cell, column)?;
            }
            Ok(values)
        })
    }

    /// Reads with `plain`, the shortcut for the writer's spelling; when it
    /// returns `None`, reads the same bytes again with `tokens`.
    fn plain_or_tokens<T>(
        &mut self,
        plain: impl FnOnce(&mut Self) -> Option<T>,
        tokens: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = self.lex.clone();
        if let Some(value) = plain(self) {
            return Ok(value);
        }
        self.lex = start;
        tokens(self)
    }

    /// The writer's spelling of a row of `N` unsigned integers.
    fn plain_uints<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut cells = [0; N];
        if !self.lex.eat(b'[') {
            return None;
        }
        for (i, cell) in cells.iter_mut().enumerate() {
            if i > 0 && !self.lex.eat(b',') {
                return None;
            }
            *cell = self.lex.uint()?;
        }
        self.lex.eat(b']').then_some(cells)
    }

    /// The `columns` field, which must name the writer's tables and cells.
    fn columns(&mut self) -> Result<(), String> {
        self.next("columns")?;
        for (i, (table, columns)) in TABLES.iter().enumerate() {
            if i == 0 {
                self.first(table)?;
            } else {
                self.next(table)?;
            }
            let names = self.list(table, |r| r.string(table))?;
            if names.iter().ne(columns.iter()) {
                return Err(format!("`{table}` columns differ"));
            }
        }
        self.close()
    }

    /// The object's next field `key`, an unsigned integer.
    fn u64_field(&mut self, key: &str) -> Result<u64, String> {
        self.next(key)?;
        self.u64(key)
    }

    /// The object's next field `key`, a number.
    fn f64_field(&mut self, key: &str) -> Result<f64, String> {
        self.next(key)?;
        self.f64(key)
    }

    /// The object's next field `key`, a duration in µs.
    fn delta_field(&mut self, key: &str) -> Result<TimeDelta, String> {
        self.u64_field(key).map(TimeDelta::from_micros)
    }

    fn task(&mut self) -> Result<TaskDecl, String> {
        self.first("name")?;
        let name = self.string("name")?.into_owned();
        self.next("tuf")?;
        let tuf = self.tuf()?;
        let max_arrivals = u32::try_from(self.u64_field("max_arrivals")?)
            .map_err(|_| "max_arrivals out of range".to_string())?;
        let task = TaskDecl {
            name,
            tuf,
            max_arrivals,
            window: self.delta_field("window_us")?,
            allocation: Cycles::new(self.u64_field("allocation_cycles")?),
            critical_offset: self.delta_field("critical_offset_us")?,
            termination_offset: self.delta_field("termination_offset_us")?,
        };
        self.close()?;
        Ok(task)
    }

    fn tuf(&mut self) -> Result<TufDecl, String> {
        self.first("shape")?;
        let tuf = match self.string("shape")?.as_ref() {
            "step" => TufDecl::Step {
                umax: self.f64_field("umax")?,
                step_at: self.delta_field("step_at_us")?,
                termination: self.delta_field("termination_us")?,
            },
            "linear" => TufDecl::Linear {
                umax: self.f64_field("umax")?,
                termination: self.delta_field("termination_us")?,
            },
            "exponential" => TufDecl::Exponential {
                umax: self.f64_field("umax")?,
                tau: self.delta_field("tau_us")?,
                termination: self.delta_field("termination_us")?,
            },
            "piecewise" => {
                self.next("points")?;
                let points = self.list("points", |r| {
                    let [t, u] = r.row("piecewise point", &["offset_us", "utility"])?;
                    Ok((
                        TimeDelta::from_micros(u64_of(&t, "piecewise offset")?),
                        f64_of(&u, "piecewise utility")?,
                    ))
                })?;
                TufDecl::Piecewise { points }
            }
            other => return Err(format!("unknown tuf shape {other:?}")),
        };
        self.close()?;
        Ok(tuf)
    }

    fn trigger(&mut self) -> Result<SchedEvent, String> {
        self.first("kind")?;
        let trigger = match self.string("kind")?.as_ref() {
            "start" => SchedEvent::Start,
            "arrival" => SchedEvent::Arrival,
            "completion" => SchedEvent::Completion(JobId(self.u64_field("job")?)),
            "abort" => SchedEvent::Abort(JobId(self.u64_field("job")?)),
            other => return Err(format!("unknown trigger kind {other:?}")),
        };
        self.close()?;
        Ok(trigger)
    }

    fn event(&mut self) -> Result<EventRecord, String> {
        self.first("at_us")?;
        let at = SimTime::from_micros(self.u64("at_us")?);
        self.next("trigger")?;
        let trigger = self.trigger()?;
        self.next("departed")?;
        let departed = self.list("departed", |r| r.u64("departed").map(JobId))?;
        self.next("progressed")?;
        let progressed = self.list("progressed", |r| {
            let [job, remaining] = r.uints("progress", &PROGRESS_COLUMNS)?;
            Ok(Progress {
                job: JobId(job),
                remaining: Cycles::new(remaining),
            })
        })?;
        self.next("arrived")?;
        let arrived = self.list("arrived", Reader::job)?;
        self.next("run")?;
        let run = self.nullable(|r| r.u64("run"))?.map(JobId);
        let frequency_mhz = self.u64_field("frequency_mhz")?;
        if frequency_mhz == 0 {
            return Err("event frequency_mhz must be positive".into());
        }
        self.next("aborts")?;
        let aborts = self.list("aborts", |r| r.u64("aborts").map(JobId))?;
        self.next("explanation")?;
        let explanation = self.nullable(Reader::explanation)?;
        self.close()?;
        Ok(EventRecord {
            at,
            trigger,
            departed,
            progressed,
            arrived,
            run,
            frequency: Frequency::from_mhz(frequency_mhz),
            aborts,
            explanation,
        })
    }

    fn job(&mut self) -> Result<JobSnapshot, String> {
        let [job, task, arrival, critical, termination, remaining] =
            self.uints("job", &JOB_COLUMNS)?;
        Ok(JobSnapshot {
            job: JobId(job),
            task: TaskId(task_index(task)?),
            arrival: SimTime::from_micros(arrival),
            critical: SimTime::from_micros(critical),
            termination: SimTime::from_micros(termination),
            remaining: Cycles::new(remaining),
        })
    }

    fn uer(&mut self) -> Result<UerEntry, String> {
        self.plain_or_tokens(Reader::plain_uer, |r| {
            let [job, uer] = r.row("uer", &UER_COLUMNS)?;
            Ok(UerEntry {
                job: JobId(u64_of(&job, "job")?),
                uer: f64_of(&uer, "uer")?,
            })
        })
    }

    /// The writer's spelling of a UER row.
    fn plain_uer(&mut self) -> Option<UerEntry> {
        if !self.lex.eat(b'[') {
            return None;
        }
        let job = JobId(self.lex.uint()?);
        if !self.lex.eat(b',') {
            return None;
        }
        let uer = self.lex.num()?.parse().ok()?;
        self.lex.eat(b']').then_some(UerEntry { job, uer })
    }

    fn explanation(&mut self) -> Result<DecisionExplanation, String> {
        self.first("uer")?;
        let uer = self.list("uer", Reader::uer)?;
        self.next("schedule")?;
        let schedule = self.list("schedule", |r| {
            let [job, finish] = r.uints("schedule", &SCHEDULE_COLUMNS)?;
            Ok(ScheduleEntry {
                job: JobId(job),
                predicted_finish: SimTime::from_micros(finish),
            })
        })?;
        self.next("aborts")?;
        let aborts = self.list("aborts", |r| {
            let [job, remaining, termination, finish] =
                r.uints("abort_witness", &ABORT_WITNESS_COLUMNS)?;
            Ok(AbortWitness {
                job: JobId(job),
                remaining: Cycles::new(remaining),
                termination: SimTime::from_micros(termination),
                predicted_finish: SimTime::from_micros(finish),
            })
        })?;
        self.next("dvs")?;
        let dvs = self.nullable(Reader::dvs)?;
        self.next("skip_infeasible")?;
        let Token::Bool(skip_infeasible) = self.lex.token()? else {
            return Err("non-boolean `skip_infeasible`".into());
        };
        self.close()?;
        Ok(DecisionExplanation {
            uer,
            schedule,
            aborts,
            dvs,
            skip_infeasible,
        })
    }

    fn dvs(&mut self) -> Result<DvsExplanation, String> {
        self.first("required_speed")?;
        let required_speed = self.f64("required_speed")?;
        let must_run_cycles = self.f64_field("must_run_cycles")?;
        self.next("earliest_critical_us")?;
        let earliest_critical = self
            .nullable(|r| r.u64("earliest_critical_us"))?
            .map(SimTime::from_micros);
        self.next("clamp_mhz")?;
        let clamp = match self.nullable(|r| r.u64("clamp_mhz"))? {
            Some(0) => return Err("clamp_mhz must be positive".into()),
            mhz => mhz.map(Frequency::from_mhz),
        };
        self.close()?;
        Ok(DvsExplanation {
            required_speed,
            must_run_cycles,
            earliest_critical,
            clamp,
        })
    }

    fn charge(&mut self) -> Result<ChargeRecord, String> {
        self.plain_or_tokens(Reader::plain_charge, |r| {
            let [at, kind, frequency_mhz, cycles, micros, energy] =
                r.row("charge", &CHARGE_COLUMNS)?;
            let Token::Str(kind) = kind else {
                return Err("non-string charge `kind`".into());
            };
            let kind = match kind.as_ref() {
                "execute" => ChargeKind::Execute,
                "switch" => ChargeKind::Switch,
                "abort-cost" => ChargeKind::AbortCost,
                "idle" => ChargeKind::Idle,
                other => return Err(format!("unknown charge kind {other:?}")),
            };
            Ok(ChargeRecord {
                at: SimTime::from_micros(u64_of(&at, "at_us")?),
                kind,
                frequency_mhz: u64_of(&frequency_mhz, "frequency_mhz")?,
                cycles: Cycles::new(u64_of(&cycles, "cycles")?),
                micros: u64_of(&micros, "micros")?,
                energy: f64_of(&energy, "energy")?,
            })
        })
    }

    /// The writer's spelling of a charge row.
    fn plain_charge(&mut self) -> Option<ChargeRecord> {
        if !self.lex.eat(b'[') {
            return None;
        }
        let at = SimTime::from_micros(self.lex.uint()?);
        if !self.lex.eat(b',') {
            return None;
        }
        let kind = [
            ChargeKind::Execute,
            ChargeKind::Switch,
            ChargeKind::AbortCost,
            ChargeKind::Idle,
        ]
        .into_iter()
        .find(|kind| self.lex.eat_plain_str(kind.as_str()))?;
        let mut cells = [0; 3];
        for cell in &mut cells {
            if !self.lex.eat(b',') {
                return None;
            }
            *cell = self.lex.uint()?;
        }
        let [frequency_mhz, cycles, micros] = cells;
        if !self.lex.eat(b',') {
            return None;
        }
        let energy = self.lex.num()?.parse().ok()?;
        self.lex.eat(b']').then_some(ChargeRecord {
            at,
            kind,
            frequency_mhz,
            cycles: Cycles::new(cycles),
            micros,
            energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCertificate {
        RunCertificate {
            policy: "eua".into(),
            seed: 42,
            horizon: TimeDelta::from_millis(100),
            frequencies_mhz: vec![36, 55, 100],
            policy_frequencies_mhz: vec![36, 100],
            energy_name: "E2".into(),
            energy_rel: (1.0, 0.0, 0.1, 0.1),
            idle_power: 0.5,
            tasks: vec![TaskDecl {
                name: "control".into(),
                tuf: TufDecl::Step {
                    umax: 10.0,
                    step_at: TimeDelta::from_millis(10),
                    termination: TimeDelta::from_millis(10),
                },
                max_arrivals: 2,
                window: TimeDelta::from_millis(10),
                allocation: Cycles::new(150_000),
                critical_offset: TimeDelta::from_millis(10),
                termination_offset: TimeDelta::from_millis(10),
            }],
            arrivals: vec![(SimTime::ZERO, 0), (SimTime::from_micros(5_000), 0)],
            events: vec![EventRecord {
                at: SimTime::ZERO,
                trigger: SchedEvent::Arrival,
                departed: vec![],
                progressed: vec![],
                arrived: vec![job(0, 150_000)],
                run: Some(JobId(0)),
                frequency: Frequency::from_mhz(36),
                aborts: vec![],
                explanation: Some(DecisionExplanation {
                    uer: vec![UerEntry {
                        job: JobId(0),
                        uer: 6.6e-9,
                    }],
                    schedule: vec![ScheduleEntry {
                        job: JobId(0),
                        predicted_finish: SimTime::from_micros(1_500),
                    }],
                    aborts: vec![AbortWitness {
                        job: JobId(7),
                        remaining: Cycles::new(99),
                        termination: SimTime::from_micros(800),
                        predicted_finish: SimTime::from_micros(900),
                    }],
                    dvs: Some(DvsExplanation {
                        required_speed: 15.0,
                        must_run_cycles: 150_000.0,
                        earliest_critical: Some(SimTime::from_micros(10_000)),
                        clamp: Some(Frequency::from_mhz(36)),
                    }),
                    skip_infeasible: false,
                }),
            }],
            charges: vec![ChargeRecord {
                at: SimTime::ZERO,
                kind: ChargeKind::Execute,
                frequency_mhz: 36,
                cycles: Cycles::new(150_000),
                micros: 4_167,
                energy: 150_000.0 * (36.0 * 36.0 + 0.1 * 100.0 * 100.0 + 0.1 * 1e6 / 36.0),
            }],
            final_energy: 1.25e8,
        }
    }

    /// Job `id` of task 0, released at `id` ms with a 10 ms window.
    fn job(id: u64, remaining: u64) -> JobSnapshot {
        JobSnapshot {
            job: JobId(id),
            task: TaskId(0),
            arrival: SimTime::from_micros(id * 1_000),
            critical: SimTime::from_micros(id * 1_000 + 10_000),
            termination: SimTime::from_micros(id * 1_000 + 10_000),
            remaining: Cycles::new(remaining),
        }
    }

    /// The ready set of each event of [`sample_with_deltas`]: every kind
    /// of change, namely arrivals, progress and departures.
    fn readies() -> Vec<Vec<JobSnapshot>> {
        vec![
            vec![job(0, 150_000)],
            vec![job(0, 120_000), job(1, 99), job(2, 99)],
            vec![job(1, 50), job(2, 99), job(3, 99)],
            vec![job(1, 50), job(3, 99)],
            vec![],
        ]
    }

    /// [`sample`]'s event followed by four more, all recorded from the
    /// ready sets of [`readies`] the way the engine records them.
    fn sample_with_deltas() -> RunCertificate {
        let first = sample();
        let mut recorder = Recorder::new(RunCertificate {
            events: Vec::new(),
            ..first.clone()
        });
        for (k, ready) in (0..).zip(readies()) {
            let views: Vec<JobView> = ready
                .iter()
                .map(|s| JobView {
                    id: s.job,
                    task: s.task,
                    arrival: s.arrival,
                    critical_time: s.critical,
                    termination: s.termination,
                    remaining: s.remaining,
                    executed: Cycles::ZERO,
                })
                .collect();
            let (trigger, decision, explanation) = match k {
                0 => (
                    first.events[0].trigger,
                    Decision::run(JobId(0), Frequency::from_mhz(36)),
                    first.events[0].explanation.clone(),
                ),
                _ => (
                    SchedEvent::Completion(JobId(k)),
                    Decision::idle(Frequency::from_mhz(100)),
                    None,
                ),
            };
            let at = SimTime::from_micros(k * 1_000);
            recorder.record(at, trigger, &views, &decision, explanation);
        }
        let cert = recorder.finish(first.final_energy);
        assert_eq!(cert.events[0], first.events[0]);
        cert
    }

    #[test]
    fn certificate_round_trips_value_and_bytes() {
        for cert in [sample(), sample_with_deltas()] {
            let text = cert.render();
            let back = RunCertificate::parse(&text).expect("must parse");
            assert_eq!(back, cert, "value round-trip");
            assert_eq!(back.render(), text, "byte round-trip");
        }
    }

    #[test]
    fn events_record_how_the_ready_set_changed() {
        let cert = sample_with_deltas();
        let text = cert.render();
        let events: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"at_us\":"))
            .collect();
        let charges = text.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(events.len(), cert.events.len(), "one event per line");
        assert_eq!(charges, cert.charges.len(), "one charge per line");
        let deltas = [
            r#""departed":[],"progressed":[],"arrived":[[0,0,0,10000,10000,150000]]"#,
            r#""departed":[],"progressed":[[0,120000]],"arrived":[[1,0,1000,11000,11000,99],[2,0,2000,12000,12000,99]]"#,
            r#""departed":[0],"progressed":[[1,50]],"arrived":[[3,0,3000,13000,13000,99]]"#,
            r#""departed":[2],"progressed":[],"arrived":[]"#,
            r#""departed":[1,3],"progressed":[],"arrived":[]"#,
        ];
        for (line, delta) in events.iter().zip(deltas) {
            assert!(line.contains(delta), "{line} lacks {delta}");
        }
        let mut walked = Vec::new();
        cert.walk(|_, _, ready| walked.push(ready.to_vec()))
            .expect("recorded changes apply");
        assert_eq!(walked, readies(), "the walk rebuilds every ready set");
    }

    #[test]
    fn a_departure_and_an_arrival_of_one_id_replace_its_row() {
        // The engine never changes a live job's times, but the format can
        // say so: departures apply before arrivals.
        let mut cert = sample_with_deltas();
        let moved = JobSnapshot {
            critical: SimTime::from_micros(9_000),
            ..job(1, 50)
        };
        cert.events[3].departed.push(JobId(1));
        cert.events[3].arrived.push(moved);
        let text = cert.render();
        let back = RunCertificate::parse(&text).expect("must parse");
        assert_eq!(back, cert);
        assert_eq!(back.render(), text);
        let mut last = Vec::new();
        back.walk(|k, _, ready| {
            if k == 3 {
                last = ready.to_vec();
            }
        })
        .expect("changes apply");
        assert_eq!(last, vec![moved, job(3, 99)]);
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        let good = sample_with_deltas().render();
        let forge = |from: &str, to: &str| good.replacen(from, to, 1);
        for (bad, reason) in [
            ("not json".to_string(), "malformed literal"),
            ("{}".to_string(), "missing `format`"),
            (
                forge("eua-certificate/2", "eua-certificate/999"),
                "unknown certificate format",
            ),
            (
                forge("eua-certificate/2", "eua-certificate/1"),
                "unknown certificate format \"eua-certificate/1\"",
            ),
            (
                forge(r#""uer":["job","uer"]"#, r#""uer":["uer","job"]"#),
                "`columns` header",
            ),
            (forge(r#""columns":"#, r#""column":"#), "`columns` header"),
            (
                forge(r#""arrivals":[[0,0]"#, r#""arrivals":[[0]"#),
                "arrival row has 1 cells",
            ),
            (
                forge(r#""execute",36,"#, r#""execute",36,36,"#),
                "charge row has 7 cells",
            ),
            (
                forge(r#""execute""#, r#""teleport""#),
                "unknown charge kind",
            ),
            (
                forge(r#""shape":"step""#, r#""shape":"cubist""#),
                "unknown tuf shape",
            ),
            (
                forge(
                    "\"policy\":\"eua\",\n\"seed\":42",
                    "\"seed\":42,\n\"policy\":\"eua\"",
                ),
                "missing `policy`",
            ),
            (
                forge("\"seed\":42,", "\"seed\":42,\n\"seed\":42,"),
                "missing `horizon_us`",
            ),
            // A key that only begins with the expected one is another key.
            (forge(r#""run":"#, r#""run!:":"#), "missing `run`"),
            (forge(r#""kind":"#, r#""kinds":"#), "missing `kind`"),
        ] {
            assert_ne!(bad, good, "the forgery for {reason:?} changed nothing");
            match RunCertificate::parse(&bad) {
                Ok(_) => panic!("accepted a document forged for {reason:?}"),
                Err(e) => assert!(e.contains(reason), "{e:?} does not say {reason:?}"),
            }
        }
    }

    /// `text` with the first character of every key written as a `\u`
    /// escape.
    fn escape_key_initials(text: &str) -> String {
        let mut out = String::new();
        let mut rest = text;
        while let Some(colon) = rest.find("\":") {
            let open = rest[..colon].rfind('"').expect("a key opens with a quote");
            let initial = rest[open + 1..].chars().next().expect("keys are not empty");
            out.push_str(&rest[..=open]);
            out.push_str(&format!("\\u{:04x}", u32::from(initial)));
            out.push_str(&rest[open + 1 + initial.len_utf8()..colon + 2]);
            rest = &rest[colon + 2..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn other_spellings_read_as_the_writers_spelling() {
        let cert = sample_with_deltas();
        let text = cert.render();
        for spelled in [
            escape_key_initials(&text),
            text.replace("\":", "\" :"),
            text.replace("\":", "\": "),
            text.replace(',', " ,\t"),
            text.replace('[', "[\n"),
        ] {
            assert_ne!(spelled, text);
            assert_eq!(
                RunCertificate::parse(&spelled),
                Ok(cert.clone()),
                "{spelled}"
            );
        }
    }

    #[test]
    fn changes_that_do_not_apply_stop_the_walk() {
        let good = sample_with_deltas().render();
        let forge = |from: &str, to: &str| good.replacen(from, to, 1);
        for (bad, reason) in [
            (
                forge(r#""departed":[0]"#, r#""departed":[7]"#),
                "event 2: departed job 7 is not live",
            ),
            (
                forge(r#""progressed":[[0,"#, r#""progressed":[[7,"#),
                "event 1: progressed job 7 is not live",
            ),
            (
                forge(r#""arrived":[[1,"#, r#""arrived":[[0,"#),
                "event 1: arrived job 0 is already live",
            ),
        ] {
            assert_ne!(bad, good, "the forgery for {reason:?} changed nothing");
            let cert =
                RunCertificate::parse(&bad).expect("the walk, not the parser, applies changes");
            let mut visited = 0;
            let err = cert.walk(|_, _, _| visited += 1).unwrap_err();
            assert!(
                err.to_string().contains(reason),
                "{err} does not say {reason:?}"
            );
            let event = reason[6..7].parse::<usize>().unwrap();
            assert_eq!(visited, event, "events before the bad change are visited");
        }
    }

    #[test]
    fn tuf_decl_round_trips_through_real_tufs() {
        let ms = TimeDelta::from_millis;
        let tufs = [
            Tuf::step(10.0, ms(10)).unwrap(),
            Tuf::linear(5.0, ms(20)).unwrap(),
            Tuf::exponential(8.0, ms(3), ms(30)).unwrap(),
            Tuf::piecewise([(ms(0), 9.0), (ms(5), 4.0), (ms(10), 0.0)]).unwrap(),
        ];
        for tuf in tufs {
            let decl = TufDecl::from_tuf(&tuf);
            let back = decl.to_tuf().expect("declared tuf must re-validate");
            assert_eq!(back, tuf);
        }
    }

    #[test]
    fn idle_and_start_triggers_round_trip() {
        let mut cert = sample();
        cert.events[0].trigger = SchedEvent::Completion(JobId(3));
        cert.events[0].run = None;
        cert.events[0].explanation = None;
        cert.charges[0].kind = ChargeKind::Idle;
        cert.charges[0].frequency_mhz = 0;
        let text = cert.render();
        let back = RunCertificate::parse(&text).unwrap();
        assert_eq!(back, cert);
    }
}
