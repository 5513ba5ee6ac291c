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
//! compact JSON through the first-party [`crate::json`] tree, with one
//! top-level field per line and one event and one charge per line. The
//! arrival, job, UER, schedule, abort-witness and charge tables are
//! positional rows whose cell order the `columns` header names. An event
//! does not repeat its ready set: it records the ids that `departed`, the
//! `[job, remaining]` rows that `progressed` and the job rows that
//! `arrived` since the previous event, and [`RunCertificate::parse`]
//! rebuilds [`EventRecord::ready`] from them. Certificates byte-round-trip
//! (`render(parse(s)) == s`), and two runs producing equal certificates
//! render to identical bytes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_tuf::Tuf;

use crate::context::{JobView, SchedEvent};
use crate::ids::{JobId, TaskId};
use crate::json::{parse as json_parse, Json};
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

/// One scheduling event: what the policy saw and what it decided.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The decision instant.
    pub at: SimTime,
    /// What woke the scheduler.
    pub trigger: SchedEvent,
    /// The ready-job set, in arrival (= id) order.
    pub ready: Vec<JobSnapshot>,
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

// ---------------------------------------------------------------------
// Serialization.
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
fn columns_json() -> Json {
    let tables: [(&str, &[&str]); 7] = [
        ("arrival", &ARRIVAL_COLUMNS),
        ("job", &JOB_COLUMNS),
        ("progress", &PROGRESS_COLUMNS),
        ("uer", &UER_COLUMNS),
        ("schedule", &SCHEDULE_COLUMNS),
        ("abort_witness", &ABORT_WITNESS_COLUMNS),
        ("charge", &CHARGE_COLUMNS),
    ];
    Json::Obj(
        tables
            .iter()
            .map(|&(name, columns)| {
                let names = columns.iter().map(|&c| Json::Str(c.into())).collect();
                (name.into(), Json::Arr(names))
            })
            .collect(),
    )
}

fn time_json(t: SimTime) -> Json {
    Json::uint(t.as_micros())
}

fn delta_json(d: TimeDelta) -> Json {
    Json::uint(d.as_micros())
}

fn uint_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::uint(v)).collect())
}

impl TufDecl {
    fn to_json(&self) -> Json {
        match self {
            TufDecl::Step {
                umax,
                step_at,
                termination,
            } => Json::Obj(vec![
                ("shape".into(), Json::Str("step".into())),
                ("umax".into(), Json::num(*umax)),
                ("step_at_us".into(), delta_json(*step_at)),
                ("termination_us".into(), delta_json(*termination)),
            ]),
            TufDecl::Linear { umax, termination } => Json::Obj(vec![
                ("shape".into(), Json::Str("linear".into())),
                ("umax".into(), Json::num(*umax)),
                ("termination_us".into(), delta_json(*termination)),
            ]),
            TufDecl::Exponential {
                umax,
                tau,
                termination,
            } => Json::Obj(vec![
                ("shape".into(), Json::Str("exponential".into())),
                ("umax".into(), Json::num(*umax)),
                ("tau_us".into(), delta_json(*tau)),
                ("termination_us".into(), delta_json(*termination)),
            ]),
            TufDecl::Piecewise { points } => Json::Obj(vec![
                ("shape".into(), Json::Str("piecewise".into())),
                (
                    "points".into(),
                    Json::Arr(
                        points
                            .iter()
                            .map(|&(t, u)| Json::Arr(vec![delta_json(t), Json::num(u)]))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl TaskDecl {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("tuf".into(), self.tuf.to_json()),
            (
                "max_arrivals".into(),
                Json::uint(u64::from(self.max_arrivals)),
            ),
            ("window_us".into(), delta_json(self.window)),
            (
                "allocation_cycles".into(),
                Json::uint(self.allocation.get()),
            ),
            (
                "critical_offset_us".into(),
                delta_json(self.critical_offset),
            ),
            (
                "termination_offset_us".into(),
                delta_json(self.termination_offset),
            ),
        ])
    }
}

fn trigger_json(event: SchedEvent) -> Json {
    let (kind, job) = match event {
        SchedEvent::Start => ("start", None),
        SchedEvent::Arrival => ("arrival", None),
        SchedEvent::Completion(j) => ("completion", Some(j)),
        SchedEvent::Abort(j) => ("abort", Some(j)),
    };
    let mut fields = vec![("kind".into(), Json::Str(kind.into()))];
    if let Some(j) = job {
        fields.push(("job".into(), Json::uint(j.0)));
    }
    Json::Obj(fields)
}

/// Starts a top-level field on a line of its own.
fn push_key(out: &mut String, key: &str) {
    out.push_str(if out.is_empty() { "{\n" } else { ",\n" });
    Json::Str(key.into()).write_compact(out);
    out.push(':');
}

/// Writes a top-level array field with one compact row per line.
fn push_lines(out: &mut String, key: &str, rows: impl Iterator<Item = Json>) {
    push_key(out, key);
    out.push('[');
    let mut separator = "\n";
    for row in rows {
        out.push_str(separator);
        row.write_compact(out);
        separator = ",\n";
    }
    out.push_str("\n]");
}

impl RunCertificate {
    /// Renders the certificate as an `eua-certificate/2` document: compact
    /// JSON with one top-level field per line, except that `events` and
    /// `charges` put each row on a line of its own.
    ///
    /// Each event writes its ready set as the change from the previous
    /// event's.
    ///
    /// # Panics
    ///
    /// If an event's ready set is not id-ascending with no duplicates. The
    /// engine records every ready set that way, and a certificate that is
    /// not could not be rebuilt from its changes.
    #[must_use]
    pub fn render(&self) -> String {
        let (s3, s2, s1_rel, s0_rel) = self.energy_rel;
        let header = [
            ("format", Json::Str(CERT_FORMAT.into())),
            ("policy", Json::Str(self.policy.clone())),
            ("seed", Json::uint(self.seed)),
            ("horizon_us", delta_json(self.horizon)),
            ("frequencies_mhz", uint_arr(&self.frequencies_mhz)),
            (
                "policy_frequencies_mhz",
                uint_arr(&self.policy_frequencies_mhz),
            ),
            (
                "energy",
                Json::Obj(vec![
                    ("name".into(), Json::Str(self.energy_name.clone())),
                    ("s3".into(), Json::num(s3)),
                    ("s2".into(), Json::num(s2)),
                    ("s1_rel".into(), Json::num(s1_rel)),
                    ("s0_rel".into(), Json::num(s0_rel)),
                ]),
            ),
            ("idle_power", Json::num(self.idle_power)),
            ("columns", columns_json()),
            (
                "tasks",
                Json::Arr(self.tasks.iter().map(TaskDecl::to_json).collect()),
            ),
            (
                "arrivals",
                Json::Arr(
                    self.arrivals
                        .iter()
                        .map(|&(t, task)| Json::Arr(vec![time_json(t), Json::uint(task as u64)]))
                        .collect(),
                ),
            ),
        ];
        let mut out = String::new();
        for (key, value) in &header {
            push_key(&mut out, key);
            value.write_compact(&mut out);
        }
        let before = std::iter::once(&[][..]).chain(self.events.iter().map(|e| e.ready.as_slice()));
        push_lines(
            &mut out,
            "events",
            self.events
                .iter()
                .zip(before)
                .map(|(e, before)| event_json(e, before)),
        );
        push_lines(&mut out, "charges", self.charges.iter().map(charge_json));
        push_key(&mut out, "final_energy");
        Json::num(self.final_energy).write_compact(&mut out);
        out.push_str("\n}\n");
        out
    }

    /// Parses a rendered certificate, rebuilding each event's `ready`
    /// set from the recorded changes.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first malformed field; the
    /// auditor maps any such failure to `aud-malformed-certificate`.
    pub fn parse(text: &str) -> Result<RunCertificate, String> {
        let doc = json_parse(text)?;
        let format = str_field(&doc, "format")?;
        if format != CERT_FORMAT {
            return Err(format!(
                "unknown certificate format {format:?}; this reader accepts {CERT_FORMAT:?} only"
            ));
        }
        if doc.get("columns") != Some(&columns_json()) {
            return Err(format!(
                "missing `columns` header, or one that differs from {CERT_FORMAT:?}'s"
            ));
        }
        let energy = doc.get("energy").ok_or("missing energy object")?;
        Ok(RunCertificate {
            policy: str_field(&doc, "policy")?,
            seed: u64_field(&doc, "seed")?,
            horizon: TimeDelta::from_micros(u64_field(&doc, "horizon_us")?),
            frequencies_mhz: u64_arr(&doc, "frequencies_mhz")?,
            policy_frequencies_mhz: u64_arr(&doc, "policy_frequencies_mhz")?,
            energy_name: str_field(energy, "name")?,
            energy_rel: (
                f64_field(energy, "s3")?,
                f64_field(energy, "s2")?,
                f64_field(energy, "s1_rel")?,
                f64_field(energy, "s0_rel")?,
            ),
            idle_power: f64_field(&doc, "idle_power")?,
            tasks: arr_field(&doc, "tasks")?
                .iter()
                .map(parse_task)
                .collect::<Result<_, _>>()?,
            arrivals: arr_field(&doc, "arrivals")?
                .iter()
                .map(|row| {
                    let [at, task] = cells(row, "arrival", &ARRIVAL_COLUMNS)?;
                    Ok::<_, String>((
                        SimTime::from_micros(u64_of(at, "at_us")?),
                        usize_of(task, "task")?,
                    ))
                })
                .collect::<Result<_, _>>()?,
            events: parse_events(arr_field(&doc, "events")?)?,
            charges: arr_field(&doc, "charges")?
                .iter()
                .map(parse_charge)
                .collect::<Result<_, _>>()?,
            final_energy: f64_field(&doc, "final_energy")?,
        })
    }
}

/// The change from one id-ascending ready set to the next, found by a
/// merge walk: the ids that `departed`, the `[job, remaining]` rows of
/// jobs that `progressed`, and the full rows of jobs that `arrived`. A
/// job whose task, arrival, critical or termination time changed is
/// written as a departure plus an arrival, so `parse` rebuilds `after`
/// exactly.
fn ready_delta(before: &[JobSnapshot], after: &[JobSnapshot]) -> [Json; 3] {
    assert!(
        after.windows(2).all(|w| w[0].job < w[1].job),
        "ready sets must be id-ascending with no duplicates"
    );
    let (mut departed, mut progressed, mut arrived) = (Vec::new(), Vec::new(), Vec::new());
    let (mut i, mut k) = (0, 0);
    loop {
        let order = match (before.get(i), after.get(k)) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(old), Some(new)) => old.job.cmp(&new.job),
        };
        match order {
            Ordering::Less => {
                departed.push(Json::uint(before[i].job.0));
                i += 1;
            }
            Ordering::Greater => {
                arrived.push(job_row(&after[k]));
                k += 1;
            }
            Ordering::Equal => {
                let (old, new) = (&before[i], &after[k]);
                let kept = JobSnapshot {
                    remaining: new.remaining,
                    ..*old
                };
                if kept != *new {
                    departed.push(Json::uint(old.job.0));
                    arrived.push(job_row(new));
                } else if old.remaining != new.remaining {
                    progressed.push(Json::Arr(vec![
                        Json::uint(new.job.0),
                        Json::uint(new.remaining.get()),
                    ]));
                }
                i += 1;
                k += 1;
            }
        }
    }
    [
        Json::Arr(departed),
        Json::Arr(progressed),
        Json::Arr(arrived),
    ]
}

fn job_row(j: &JobSnapshot) -> Json {
    Json::Arr(vec![
        Json::uint(j.job.0),
        Json::uint(j.task.0 as u64),
        time_json(j.arrival),
        time_json(j.critical),
        time_json(j.termination),
        Json::uint(j.remaining.get()),
    ])
}

fn event_json(e: &EventRecord, before: &[JobSnapshot]) -> Json {
    let [departed, progressed, arrived] = ready_delta(before, &e.ready);
    Json::Obj(vec![
        ("at_us".into(), time_json(e.at)),
        ("trigger".into(), trigger_json(e.trigger)),
        ("departed".into(), departed),
        ("progressed".into(), progressed),
        ("arrived".into(), arrived),
        ("run".into(), e.run.map_or(Json::Null, |j| Json::uint(j.0))),
        ("frequency_mhz".into(), Json::uint(e.frequency.as_mhz())),
        (
            "aborts".into(),
            Json::Arr(e.aborts.iter().map(|j| Json::uint(j.0)).collect()),
        ),
        (
            "explanation".into(),
            e.explanation.as_ref().map_or(Json::Null, explanation_json),
        ),
    ])
}

fn explanation_json(x: &DecisionExplanation) -> Json {
    Json::Obj(vec![
        (
            "uer".into(),
            Json::Arr(
                x.uer
                    .iter()
                    .map(|u| Json::Arr(vec![Json::uint(u.job.0), Json::num(u.uer)]))
                    .collect(),
            ),
        ),
        (
            "schedule".into(),
            Json::Arr(
                x.schedule
                    .iter()
                    .map(|s| Json::Arr(vec![Json::uint(s.job.0), time_json(s.predicted_finish)]))
                    .collect(),
            ),
        ),
        (
            "aborts".into(),
            Json::Arr(
                x.aborts
                    .iter()
                    .map(|a| {
                        Json::Arr(vec![
                            Json::uint(a.job.0),
                            Json::uint(a.remaining.get()),
                            time_json(a.termination),
                            time_json(a.predicted_finish),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "dvs".into(),
            x.dvs.as_ref().map_or(Json::Null, |d| {
                Json::Obj(vec![
                    ("required_speed".into(), Json::num(d.required_speed)),
                    ("must_run_cycles".into(), Json::num(d.must_run_cycles)),
                    (
                        "earliest_critical_us".into(),
                        d.earliest_critical.map_or(Json::Null, time_json),
                    ),
                    (
                        "clamp_mhz".into(),
                        d.clamp.map_or(Json::Null, |f| Json::uint(f.as_mhz())),
                    ),
                ])
            }),
        ),
        ("skip_infeasible".into(), Json::Bool(x.skip_infeasible)),
    ])
}

fn charge_json(c: &ChargeRecord) -> Json {
    Json::Arr(vec![
        time_json(c.at),
        Json::Str(c.kind.as_str().into()),
        Json::uint(c.frequency_mhz),
        Json::uint(c.cycles.get()),
        Json::uint(c.micros),
        Json::num(c.energy),
    ])
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

fn u64_of(v: &Json, what: &str) -> Result<u64, String> {
    match v {
        Json::Num(n) => n
            .parse::<u64>()
            .map_err(|_| format!("`{what}` is not an unsigned integer: {n:?}")),
        _ => Err(format!("non-numeric `{what}`")),
    }
}

fn f64_of(v: &Json, what: &str) -> Result<f64, String> {
    match v {
        Json::Num(n) => n
            .parse::<f64>()
            .map_err(|_| format!("`{what}` is not a number: {n:?}")),
        _ => Err(format!("non-numeric `{what}`")),
    }
}

fn usize_of(v: &Json, what: &str) -> Result<usize, String> {
    usize::try_from(u64_of(v, what)?).map_err(|_| format!("`{what}` is out of range"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(String::from)
        .ok_or_else(|| format!("non-string `{key}`"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    u64_of(field(v, key)?, key)
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    f64_of(field(v, key)?, key)
}

fn opt_u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        Some(Json::Null) | None => Ok(None),
        Some(n) => u64_of(n, key).map(Some),
    }
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("non-array `{key}`"))
}

fn u64_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    arr_field(v, key)?.iter().map(|e| u64_of(e, key)).collect()
}

/// The cells of one positional row of `table`, which must have exactly
/// one cell per column.
fn cells<'a, const N: usize>(
    row: &'a Json,
    table: &str,
    columns: &[&str; N],
) -> Result<&'a [Json; N], String> {
    let items = row
        .as_arr()
        .ok_or_else(|| format!("{table} row is not an array"))?;
    items.try_into().map_err(|_| {
        format!(
            "{table} row has {} cells, not the {N} of {columns:?}",
            items.len()
        )
    })
}

fn parse_task(v: &Json) -> Result<TaskDecl, String> {
    Ok(TaskDecl {
        name: str_field(v, "name")?,
        tuf: parse_tuf(field(v, "tuf")?)?,
        max_arrivals: u32::try_from(u64_field(v, "max_arrivals")?)
            .map_err(|_| "max_arrivals out of range".to_string())?,
        window: TimeDelta::from_micros(u64_field(v, "window_us")?),
        allocation: Cycles::new(u64_field(v, "allocation_cycles")?),
        critical_offset: TimeDelta::from_micros(u64_field(v, "critical_offset_us")?),
        termination_offset: TimeDelta::from_micros(u64_field(v, "termination_offset_us")?),
    })
}

fn parse_tuf(v: &Json) -> Result<TufDecl, String> {
    let shape = str_field(v, "shape")?;
    match shape.as_str() {
        "step" => Ok(TufDecl::Step {
            umax: f64_field(v, "umax")?,
            step_at: TimeDelta::from_micros(u64_field(v, "step_at_us")?),
            termination: TimeDelta::from_micros(u64_field(v, "termination_us")?),
        }),
        "linear" => Ok(TufDecl::Linear {
            umax: f64_field(v, "umax")?,
            termination: TimeDelta::from_micros(u64_field(v, "termination_us")?),
        }),
        "exponential" => Ok(TufDecl::Exponential {
            umax: f64_field(v, "umax")?,
            tau: TimeDelta::from_micros(u64_field(v, "tau_us")?),
            termination: TimeDelta::from_micros(u64_field(v, "termination_us")?),
        }),
        "piecewise" => {
            let points = arr_field(v, "points")?
                .iter()
                .map(|p| {
                    let [t, u] = cells(p, "piecewise point", &["offset_us", "utility"])?;
                    Ok((
                        TimeDelta::from_micros(u64_of(t, "piecewise offset")?),
                        f64_of(u, "piecewise utility")?,
                    ))
                })
                .collect::<Result<_, String>>()?;
            Ok(TufDecl::Piecewise { points })
        }
        other => Err(format!("unknown tuf shape {other:?}")),
    }
}

fn parse_trigger(v: &Json) -> Result<SchedEvent, String> {
    let kind = str_field(v, "kind")?;
    match kind.as_str() {
        "start" => Ok(SchedEvent::Start),
        "arrival" => Ok(SchedEvent::Arrival),
        "completion" => Ok(SchedEvent::Completion(JobId(u64_field(v, "job")?))),
        "abort" => Ok(SchedEvent::Abort(JobId(u64_field(v, "job")?))),
        other => Err(format!("unknown trigger kind {other:?}")),
    }
}

/// Parses the event rows, replaying each one's ready-set change onto
/// the live jobs: departures first, then progress, then arrivals.
fn parse_events(rows: &[Json]) -> Result<Vec<EventRecord>, String> {
    let mut live = BTreeMap::new();
    rows.iter()
        .enumerate()
        .map(|(i, row)| parse_event(row, &mut live).map_err(|e| format!("event {i}: {e}")))
        .collect()
}

fn parse_event(v: &Json, live: &mut BTreeMap<JobId, JobSnapshot>) -> Result<EventRecord, String> {
    for id in arr_field(v, "departed")? {
        let job = JobId(u64_of(id, "departed")?);
        if live.remove(&job).is_none() {
            return Err(format!("departed job {} is not live", job.0));
        }
    }
    for row in arr_field(v, "progressed")? {
        let [job, remaining] = cells(row, "progress", &PROGRESS_COLUMNS)?;
        let job = JobId(u64_of(job, "job")?);
        let snapshot = live
            .get_mut(&job)
            .ok_or_else(|| format!("progressed job {} is not live", job.0))?;
        snapshot.remaining = Cycles::new(u64_of(remaining, "remaining_cycles")?);
    }
    for row in arr_field(v, "arrived")? {
        let [job, task, arrival, critical, termination, remaining] =
            cells(row, "job", &JOB_COLUMNS)?;
        let snapshot = JobSnapshot {
            job: JobId(u64_of(job, "job")?),
            task: TaskId(usize_of(task, "task")?),
            arrival: SimTime::from_micros(u64_of(arrival, "arrival_us")?),
            critical: SimTime::from_micros(u64_of(critical, "critical_us")?),
            termination: SimTime::from_micros(u64_of(termination, "termination_us")?),
            remaining: Cycles::new(u64_of(remaining, "remaining_cycles")?),
        };
        if live.insert(snapshot.job, snapshot).is_some() {
            return Err(format!("arrived job {} is already live", snapshot.job.0));
        }
    }
    let frequency_mhz = u64_field(v, "frequency_mhz")?;
    if frequency_mhz == 0 {
        return Err("event frequency_mhz must be positive".into());
    }
    Ok(EventRecord {
        at: SimTime::from_micros(u64_field(v, "at_us")?),
        trigger: parse_trigger(field(v, "trigger")?)?,
        ready: live.values().copied().collect(),
        run: opt_u64_field(v, "run")?.map(JobId),
        frequency: Frequency::from_mhz(frequency_mhz),
        aborts: arr_field(v, "aborts")?
            .iter()
            .map(|j| u64_of(j, "aborts").map(JobId))
            .collect::<Result<_, _>>()?,
        explanation: match v.get("explanation") {
            Some(Json::Null) | None => None,
            Some(x) => Some(parse_explanation(x)?),
        },
    })
}

fn parse_explanation(v: &Json) -> Result<DecisionExplanation, String> {
    Ok(DecisionExplanation {
        uer: arr_field(v, "uer")?
            .iter()
            .map(|row| {
                let [job, uer] = cells(row, "uer", &UER_COLUMNS)?;
                Ok::<_, String>(UerEntry {
                    job: JobId(u64_of(job, "job")?),
                    uer: f64_of(uer, "uer")?,
                })
            })
            .collect::<Result<_, _>>()?,
        schedule: arr_field(v, "schedule")?
            .iter()
            .map(|row| {
                let [job, finish] = cells(row, "schedule", &SCHEDULE_COLUMNS)?;
                Ok::<_, String>(ScheduleEntry {
                    job: JobId(u64_of(job, "job")?),
                    predicted_finish: SimTime::from_micros(u64_of(finish, "finish_us")?),
                })
            })
            .collect::<Result<_, _>>()?,
        aborts: arr_field(v, "aborts")?
            .iter()
            .map(|row| {
                let [job, remaining, termination, finish] =
                    cells(row, "abort_witness", &ABORT_WITNESS_COLUMNS)?;
                Ok::<_, String>(AbortWitness {
                    job: JobId(u64_of(job, "job")?),
                    remaining: Cycles::new(u64_of(remaining, "remaining_cycles")?),
                    termination: SimTime::from_micros(u64_of(termination, "termination_us")?),
                    predicted_finish: SimTime::from_micros(u64_of(finish, "predicted_finish_us")?),
                })
            })
            .collect::<Result<_, _>>()?,
        dvs: match v.get("dvs") {
            Some(Json::Null) | None => None,
            Some(d) => Some(DvsExplanation {
                required_speed: f64_field(d, "required_speed")?,
                must_run_cycles: f64_field(d, "must_run_cycles")?,
                earliest_critical: opt_u64_field(d, "earliest_critical_us")?
                    .map(SimTime::from_micros),
                clamp: match opt_u64_field(d, "clamp_mhz")? {
                    Some(0) => return Err("clamp_mhz must be positive".into()),
                    Some(m) => Some(Frequency::from_mhz(m)),
                    None => None,
                },
            }),
        },
        skip_infeasible: match v.get("skip_infeasible") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing or non-boolean `skip_infeasible`".into()),
        },
    })
}

fn parse_charge(row: &Json) -> Result<ChargeRecord, String> {
    let [at, kind, frequency_mhz, cycles, micros, energy] = cells(row, "charge", &CHARGE_COLUMNS)?;
    let kind = match kind.as_str() {
        Some("execute") => ChargeKind::Execute,
        Some("switch") => ChargeKind::Switch,
        Some("abort-cost") => ChargeKind::AbortCost,
        Some("idle") => ChargeKind::Idle,
        other => return Err(format!("unknown charge kind {other:?}")),
    };
    Ok(ChargeRecord {
        at: SimTime::from_micros(u64_of(at, "at_us")?),
        kind,
        frequency_mhz: u64_of(frequency_mhz, "frequency_mhz")?,
        cycles: Cycles::new(u64_of(cycles, "cycles")?),
        micros: u64_of(micros, "micros")?,
        energy: f64_of(energy, "energy")?,
    })
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
                ready: vec![job(0, 150_000)],
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

    /// [`sample`] followed by events that make every kind of ready-set
    /// change: arrivals, progress, departures, and a job whose critical
    /// time changed while it stayed live.
    fn sample_with_deltas() -> RunCertificate {
        let mut cert = sample();
        let moved = JobSnapshot {
            critical: SimTime::from_micros(9_000),
            ..job(1, 50)
        };
        let readies = [
            vec![job(0, 120_000), job(1, 99), job(2, 99)],
            vec![job(1, 50), job(2, 99), job(3, 99)],
            vec![moved, job(3, 99)],
            vec![],
        ];
        for (k, ready) in (1..).zip(readies) {
            cert.events.push(EventRecord {
                at: SimTime::from_micros(k * 1_000),
                trigger: SchedEvent::Completion(JobId(k)),
                ready,
                run: None,
                frequency: Frequency::from_mhz(100),
                aborts: vec![],
                explanation: None,
            });
        }
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
            r#""departed":[1,2],"progressed":[],"arrived":[[1,0,1000,9000,11000,50]]"#,
            r#""departed":[1,3],"progressed":[],"arrived":[]"#,
        ];
        for (line, delta) in events.iter().zip(deltas) {
            assert!(line.contains(delta), "{line} lacks {delta}");
        }
    }

    #[test]
    #[should_panic(expected = "id-ascending")]
    fn rendering_an_unordered_ready_set_panics() {
        let mut cert = sample();
        cert.events[0].ready = vec![job(1, 99), job(0, 99)];
        let _ = cert.render();
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
                forge(r#""departed":[0]"#, r#""departed":[7]"#),
                "departed job 7 is not live",
            ),
            (
                forge(r#""progressed":[[0,"#, r#""progressed":[[7,"#),
                "progressed job 7 is not live",
            ),
            (
                forge(r#""arrived":[[1,"#, r#""arrived":[[0,"#),
                "arrived job 0 is already live",
            ),
        ] {
            assert_ne!(bad, good, "the forgery for {reason:?} changed nothing");
            match RunCertificate::parse(&bad) {
                Ok(_) => panic!("accepted a document forged for {reason:?}"),
                Err(e) => assert!(e.contains(reason), "{e:?} does not say {reason:?}"),
            }
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
