//! `eua-audit` — offline translation validation of EUA\* engine runs.
//!
//! The simulator can record a [`RunCertificate`]: a self-contained log of
//! every scheduling decision, its self-explanation, and every energy
//! charge of one run (see [`eua_sim::certificate`]). This crate is the
//! *independent checker* of that record. It never runs the engine and
//! deliberately does not link `eua-core`; instead it re-derives the
//! paper's invariants from the certificate alone:
//!
//! * **UER recomputation** — every certified utility-and-energy ratio is
//!   recomputed from the declared TUF and Martin energy model at `f_m`
//!   (`aud-uer-mismatch`);
//! * **schedule reconstruction** — the certified tentative schedule must
//!   equal the one greedy non-increasing-UER insertion rebuilds, stay
//!   critical-time ordered, and meet every termination when replayed
//!   back-to-back at `f_m` (`aud-schedule-order`,
//!   `aud-schedule-infeasible`);
//! * **abort legality** — every policy abort must carry a valid
//!   infeasibility witness (`aud-abort-illegal`);
//! * **DVS bound** — the chosen frequency must be the table's lowest
//!   speed at or above the certified look-ahead demand, raised by the
//!   UER clamp when active (`aud-dvs-out-of-bound`);
//! * **the charge ledger** — each charge must match Martin's
//!   `E(f) = S3·f² + S2·f + S1 + S0/f` per cycle (or the idle-power
//!   bill), each non-idle charge must last exactly `⌈cycles / f⌉` µs, no
//!   charge may start before the previous one ends, and the charges must
//!   sum to the certified total (`aud-energy-mismatch`);
//! * **UAM compliance** — the certified arrival stream must respect
//!   every task's `⟨a, P⟩` bound (`aud-uam-violation`).
//!
//! Findings reuse the `eua-analyze` diagnostic machinery ([`Report`],
//! [`DiagCode`], text/JSON/SARIF renderers), and the `eua-audit` binary
//! keeps the same `2 > 1 > 0` exit contract.
//!
//! Policies that cannot explain themselves (no
//! [`eua_sim::DecisionExplanation`] on an event) are audited at the
//! engine level only: referenced jobs must exist, aborted jobs must be
//! live, and the chosen frequency must come from the policy-visible
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use eua_analyze::{DiagCode, Diagnostic, Report};
use eua_platform::{
    select_freq, Cycles, EnergyModel, EnergySetting, Frequency, FrequencyTable, SimTime,
};
use eua_sim::{EventRecord, JobId, JobSnapshot, RunCertificate};
use eua_tuf::Tuf;

/// Every diagnostic code this crate can emit, in stable order (the
/// `eua-audit codes` listing; CI checks each is registered in the shared
/// `eua-analyze` registry).
pub const AUDIT_CODES: [DiagCode; 8] = [
    DiagCode::AudMalformedCertificate,
    DiagCode::AudUerMismatch,
    DiagCode::AudScheduleOrder,
    DiagCode::AudScheduleInfeasible,
    DiagCode::AudAbortIllegal,
    DiagCode::AudDvsOutOfBound,
    DiagCode::AudEnergyMismatch,
    DiagCode::AudUamViolation,
];

/// Relative tolerance for comparing certified against recomputed floats.
/// The recomputation performs the same `f64` operations the engine did
/// on byte-identical inputs (the JSON round-trip is exact), so the slack
/// only forgives benign re-association — forged values sit far outside.
const REL_TOL: f64 = 1e-9;

/// Findings of one kind are capped per audit so a systemically corrupt
/// certificate cannot flood the report; the cap is noted when hit.
const MAX_PER_CODE: usize = 16;

fn close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Parses and audits certificate text; a parse failure becomes a single
/// `aud-malformed-certificate` finding instead of a hard error, so one
/// corrupt file cannot hide findings in the others.
#[must_use]
pub fn audit_text(label: &str, text: &str) -> Report {
    match RunCertificate::parse(text) {
        Ok(cert) => {
            let mut report = audit(&cert);
            report.scenario = label.to_string();
            report
        }
        Err(e) => {
            let mut report = Report::new(label);
            report.push(Diagnostic::new(
                DiagCode::AudMalformedCertificate,
                format!("certificate does not parse: {e}"),
            ));
            report
        }
    }
}

/// Audits a parsed certificate, re-deriving every invariant listed in
/// the crate docs. The returned report is sorted most severe first; all
/// `aud-*` codes are Error severity, so [`Report::has_errors`] is the
/// accept/reject verdict.
#[must_use]
pub fn audit(cert: &RunCertificate) -> Report {
    let mut sink = Sink {
        report: Report::new(format!("{} seed {}", cert.policy, cert.seed)),
        counts: BTreeMap::new(),
    };
    if let Some(env) = Env::build(cert, &mut sink) {
        check_uam(cert, &mut sink);
        for (i, event) in cert.events.iter().enumerate() {
            check_event(i, event, &env, &mut sink);
        }
        check_energy(cert, &env, &mut sink);
    }
    let mut report = sink.finish();
    report.sort();
    report
}

/// A capping diagnostic sink (see [`MAX_PER_CODE`]).
struct Sink {
    report: Report,
    counts: BTreeMap<DiagCode, usize>,
}

impl Sink {
    fn push(&mut self, diagnostic: Diagnostic) {
        let n = self.counts.entry(diagnostic.code).or_insert(0);
        *n += 1;
        if *n <= MAX_PER_CODE {
            self.report.push(diagnostic);
        }
    }

    fn finish(mut self) -> Report {
        for (code, n) in &self.counts {
            if *n > MAX_PER_CODE {
                self.report.push(Diagnostic::new(
                    *code,
                    format!(
                        "{} further finding(s) of this code suppressed",
                        n - MAX_PER_CODE
                    ),
                ));
            }
        }
        self.report
    }
}

/// The audit context rebuilt from the certificate's declarative header:
/// both frequency tables, the energy model bound at each table's top
/// speed, and every task's re-raised TUF.
struct Env {
    /// The possibly fault-degraded table the policy planned against.
    policy_table: FrequencyTable,
    /// Martin's model bound at the *true* `f_m` — what the engine billed.
    true_model: EnergyModel,
    /// Martin's model bound at the *policy* `f_m` — what UER used.
    policy_model: EnergyModel,
    /// Re-raised TUFs, indexed like the certificate's task table.
    tufs: Vec<Tuf>,
    /// Idle power draw per µs.
    idle_power: f64,
}

impl Env {
    fn build(cert: &RunCertificate, sink: &mut Sink) -> Option<Env> {
        let malformed = |sink: &mut Sink, msg: String| {
            sink.push(Diagnostic::new(DiagCode::AudMalformedCertificate, msg));
        };
        let true_table = match FrequencyTable::new(cert.frequencies_mhz.iter().copied()) {
            Ok(t) => t,
            Err(e) => {
                malformed(sink, format!("frequency table unusable: {e}"));
                return None;
            }
        };
        let policy_table = match FrequencyTable::new(cert.policy_frequencies_mhz.iter().copied()) {
            Ok(t) => t,
            Err(e) => {
                malformed(sink, format!("policy frequency table unusable: {e}"));
                return None;
            }
        };
        let (s3, s2, s1_rel, s0_rel) = cert.energy_rel;
        // The name only labels output; all arithmetic uses the recorded
        // relative coefficients, re-bound exactly like
        // `EnergySetting::model` does.
        let setting = match EnergySetting::custom("certified", s3, s2, s1_rel, s0_rel) {
            Ok(s) => s,
            Err(e) => {
                malformed(sink, format!("energy coefficients unusable: {e}"));
                return None;
            }
        };
        let mut tufs = Vec::with_capacity(cert.tasks.len());
        for decl in &cert.tasks {
            match decl.tuf.to_tuf() {
                Ok(tuf) => tufs.push(tuf),
                Err(e) => {
                    malformed(sink, format!("task `{}` tuf unusable: {e}", decl.name));
                    return None;
                }
            }
        }
        if !(cert.idle_power.is_finite() && cert.idle_power >= 0.0) {
            malformed(sink, format!("idle power {} unusable", cert.idle_power));
            return None;
        }
        Some(Env {
            true_model: setting.model(true_table.max()),
            policy_model: setting.model(policy_table.max()),
            policy_table,
            tufs,
            idle_power: cert.idle_power,
        })
    }

    fn policy_f_max(&self) -> Frequency {
        self.policy_table.max()
    }
}

/// UAM `⟨a, P⟩` compliance of the certified arrival stream, by sliding
/// a two-pointer window over each task's arrivals: any half-open window
/// `[t, t+P)` may hold at most `a` of them. The first violating window
/// per task is reported.
fn check_uam(cert: &RunCertificate, sink: &mut Sink) {
    let mut per_task: Vec<Vec<SimTime>> = vec![Vec::new(); cert.tasks.len()];
    for &(at, task) in &cert.arrivals {
        match per_task.get_mut(task) {
            Some(v) => v.push(at),
            None => {
                sink.push(Diagnostic::new(
                    DiagCode::AudMalformedCertificate,
                    format!("arrival references unknown task index {task}"),
                ));
                return;
            }
        }
    }
    for (decl, times) in cert.tasks.iter().zip(&per_task) {
        let mut sorted = times.clone();
        sorted.sort();
        let bound = decl.max_arrivals as usize;
        let mut lo = 0usize;
        for hi in 0..sorted.len() {
            while sorted[hi] >= sorted[lo].saturating_add(decl.window) {
                lo += 1;
            }
            let count = hi - lo + 1;
            if count > bound {
                sink.push(
                    Diagnostic::for_entity(
                        DiagCode::AudUamViolation,
                        decl.name.clone(),
                        format!(
                            "{count} arrivals inside the window starting at {} us exceed \
                             the declared bound a = {} per P = {} us",
                            sorted[lo].as_micros(),
                            decl.max_arrivals,
                            decl.window.as_micros()
                        ),
                    )
                    .with_suggestion(
                        "if this run injected UAM faults on purpose, the violation is the \
                         expected degradation input, not a certificate defect",
                    ),
                );
                break;
            }
        }
    }
}

/// One reconstructed schedule candidate: the certified UER re-keyed onto
/// the ready snapshot's geometry.
#[derive(Debug, Clone, Copy)]
struct Cand {
    job: JobId,
    critical: SimTime,
    termination: SimTime,
    remaining: Cycles,
    key: f64,
}

/// NaN keys order as −∞ (strictly after every real key), mirroring the
/// production comparator's documented resolution.
fn sort_key(key: f64) -> f64 {
    if key.is_nan() {
        f64::NEG_INFINITY
    } else {
        key
    }
}

fn replay_feasible(now: SimTime, schedule: &[Cand], f_m: Frequency) -> bool {
    let mut t = now;
    for c in schedule {
        t = t.saturating_add(f_m.execution_time(c.remaining));
        if t > c.termination {
            return false;
        }
    }
    true
}

/// The auditor's own greedy construction (Algorithm 1 lines 12–18):
/// consider candidates in non-increasing key order (NaN last, ties by
/// earlier critical time then id), insert each at its `(critical, id)`
/// position, and keep the insertion only if every entry still meets its
/// termination when replayed back-to-back at `f_m`.
fn greedy_schedule(now: SimTime, mut cands: Vec<Cand>, f_m: Frequency, skip: bool) -> Vec<JobId> {
    cands.sort_by(|a, b| {
        sort_key(b.key)
            .total_cmp(&sort_key(a.key))
            .then_with(|| a.critical.cmp(&b.critical))
            .then_with(|| a.job.cmp(&b.job))
    });
    let mut sched: Vec<Cand> = Vec::with_capacity(cands.len());
    for c in cands {
        if c.key.is_nan() || c.key <= 0.0 {
            // Sorted non-increasing with NaN last: the first non-positive
            // (or NaN) key ends consideration entirely.
            break;
        }
        let pos = sched.partition_point(|e| (e.critical, e.job) < (c.critical, c.job));
        sched.insert(pos, c);
        if !replay_feasible(now, &sched, f_m) {
            sched.remove(pos);
            if skip {
                continue;
            }
            break;
        }
    }
    sched.iter().map(|c| c.job).collect()
}

fn event_entity(index: usize, at: SimTime) -> String {
    format!("event {index} @{}us", at.as_micros())
}

/// All per-event checks. Engine-level invariants apply to every event;
/// the Algorithm 1/2 re-derivations additionally apply when the policy
/// supplied a [`eua_sim::DecisionExplanation`].
fn check_event(index: usize, event: &EventRecord, env: &Env, sink: &mut Sink) {
    let entity = event_entity(index, event.at);
    let ready: BTreeMap<JobId, &JobSnapshot> = event.ready.iter().map(|s| (s.job, s)).collect();

    // Engine-level invariants: referenced jobs must be live, a decision
    // must not both run and abort a job, tasks must exist.
    for snap in &event.ready {
        if snap.task.index() >= env.tufs.len() {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudMalformedCertificate,
                entity.clone(),
                format!(
                    "ready job {} references unknown task index {}",
                    snap.job.get(),
                    snap.task.index()
                ),
            ));
            return;
        }
    }
    if let Some(run) = event.run {
        if !ready.contains_key(&run) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudMalformedCertificate,
                entity.clone(),
                format!("dispatched job {} is not in the ready set", run.get()),
            ));
        }
        if event.aborts.contains(&run) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudMalformedCertificate,
                entity.clone(),
                format!("job {} is both dispatched and aborted", run.get()),
            ));
        }
        // The dispatch frequency must come from the table the policy was
        // shown (pre-fault-remap the engine records the request).
        if !env
            .policy_table
            .iter()
            .any(|f| f.as_mhz() == event.frequency.as_mhz())
        {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudDvsOutOfBound,
                entity.clone(),
                format!(
                    "chosen frequency {} MHz is not in the policy-visible table",
                    event.frequency.as_mhz()
                ),
            ));
        }
    }
    for &abort in &event.aborts {
        if !ready.contains_key(&abort) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudMalformedCertificate,
                entity.clone(),
                format!("aborted job {} is not in the ready set", abort.get()),
            ));
        }
    }

    let Some(expl) = &event.explanation else {
        return;
    };
    let f_m = env.policy_f_max();
    let per_cycle_at_fm = env.policy_model.energy_per_cycle(f_m);

    // UER recomputation and completeness: every feasible ready job must
    // carry a certified UER matching `U(now + c_r/f_m − arrival) /
    // (E(f_m)·c_r)`, and no infeasible job may carry one.
    let uer_of: BTreeMap<JobId, f64> = expl.uer.iter().map(|u| (u.job, u.uer)).collect();
    for u in &expl.uer {
        let Some(snap) = ready.get(&u.job) else {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudMalformedCertificate,
                entity.clone(),
                format!(
                    "UER entry for job {} absent from the ready set",
                    u.job.get()
                ),
            ));
            continue;
        };
        let predicted = event.at.saturating_add(f_m.execution_time(snap.remaining));
        let sojourn = predicted.saturating_since(snap.arrival);
        let utility = env.tufs[snap.task.index()].utility(sojourn);
        let expected = utility / (per_cycle_at_fm * snap.remaining.as_f64());
        if !close(expected, u.uer) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudUerMismatch,
                entity.clone(),
                format!(
                    "job {}: certified UER {} but recomputation at f_m = {} MHz gives {}",
                    u.job.get(),
                    u.uer,
                    f_m.as_mhz(),
                    expected
                ),
            ));
        }
    }
    for snap in &event.ready {
        let feasible =
            event.at.saturating_add(f_m.execution_time(snap.remaining)) <= snap.termination;
        if feasible && !uer_of.contains_key(&snap.job) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudUerMismatch,
                entity.clone(),
                format!(
                    "feasible ready job {} is missing from the certified UER set",
                    snap.job.get()
                ),
            ));
        }
        if !feasible && uer_of.contains_key(&snap.job) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudUerMismatch,
                entity.clone(),
                format!(
                    "infeasible job {} carries a UER (it should be aborted or skipped)",
                    snap.job.get()
                ),
            ));
        }
    }

    // Abort legality: the decision's abort list and the witness list must
    // agree, and each witness must prove `now + c_r/f_m > termination`.
    let witness_jobs: Vec<JobId> = expl.aborts.iter().map(|w| w.job).collect();
    if witness_jobs != event.aborts {
        sink.push(Diagnostic::for_entity(
            DiagCode::AudAbortIllegal,
            entity.clone(),
            format!(
                "abort list {:?} and witness list {:?} disagree",
                event.aborts.iter().map(|j| j.get()).collect::<Vec<_>>(),
                witness_jobs.iter().map(|j| j.get()).collect::<Vec<_>>()
            ),
        ));
    }
    for w in &expl.aborts {
        let Some(snap) = ready.get(&w.job) else {
            continue; // already flagged via event.aborts membership
        };
        let predicted = event.at.saturating_add(f_m.execution_time(w.remaining));
        if w.remaining != snap.remaining
            || w.termination != snap.termination
            || w.predicted_finish != predicted
            || predicted <= w.termination
        {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudAbortIllegal,
                entity.clone(),
                format!(
                    "job {}: witness (remaining {}, termination {} us, predicted {} us) does \
                     not prove infeasibility at f_m = {} MHz",
                    w.job.get(),
                    w.remaining.get(),
                    w.termination.as_micros(),
                    w.predicted_finish.as_micros(),
                    f_m.as_mhz()
                ),
            ));
        }
    }

    // Schedule reconstruction: greedy insertion over the certified UERs
    // must reproduce the certified order exactly.
    let cands: Vec<Cand> = expl
        .uer
        .iter()
        .filter_map(|u| {
            ready.get(&u.job).map(|snap| Cand {
                job: u.job,
                critical: snap.critical,
                termination: snap.termination,
                remaining: snap.remaining,
                key: u.uer,
            })
        })
        .collect();
    let expected = greedy_schedule(event.at, cands, f_m, expl.skip_infeasible);
    let certified: Vec<JobId> = expl.schedule.iter().map(|e| e.job).collect();
    if expected != certified {
        sink.push(Diagnostic::for_entity(
            DiagCode::AudScheduleOrder,
            entity.clone(),
            format!(
                "certified schedule {:?} but greedy non-increasing-UER insertion \
                 reconstructs {:?}",
                certified.iter().map(|j| j.get()).collect::<Vec<_>>(),
                expected.iter().map(|j| j.get()).collect::<Vec<_>>()
            ),
        ));
    } else {
        // Witness replay: predicted finish times must be the back-to-back
        // cumulative sums and each must meet its termination. (Only
        // meaningful when the order itself verified.)
        let mut t = event.at;
        let mut prev: Option<(SimTime, JobId)> = None;
        for entry in &expl.schedule {
            let Some(snap) = ready.get(&entry.job) else {
                continue;
            };
            if let Some(p) = prev {
                if (snap.critical, entry.job) < p {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudScheduleOrder,
                        entity.clone(),
                        format!(
                            "schedule is not critical-time ordered at job {}",
                            entry.job.get()
                        ),
                    ));
                }
            }
            prev = Some((snap.critical, entry.job));
            t = t.saturating_add(f_m.execution_time(snap.remaining));
            if entry.predicted_finish != t || t > snap.termination {
                sink.push(Diagnostic::for_entity(
                    DiagCode::AudScheduleInfeasible,
                    entity.clone(),
                    format!(
                        "job {}: certified finish {} us, replay gives {} us against \
                         termination {} us",
                        entry.job.get(),
                        entry.predicted_finish.as_micros(),
                        t.as_micros(),
                        snap.termination.as_micros()
                    ),
                ));
            }
        }
    }
    // The dispatched job must head the certified schedule.
    if event.run != certified.first().copied() {
        sink.push(Diagnostic::for_entity(
            DiagCode::AudScheduleOrder,
            entity.clone(),
            format!(
                "dispatch {:?} disagrees with the schedule head {:?}",
                event.run.map(|j| j.get()),
                certified.first().map(|j| j.get())
            ),
        ));
    }

    // DVS bound (Algorithm 2): the chosen frequency must be the lowest
    // table speed at or above the certified required speed, raised by
    // the UER clamp when one is certified. Without a DVS record (idle
    // decisions and the no-DVS ablation) the choice must be `f_m`.
    if event.run.is_some() {
        match &expl.dvs {
            Some(dvs) => {
                if !(dvs.required_speed >= 0.0 && dvs.required_speed <= f_m.as_f64()) {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudDvsOutOfBound,
                        entity.clone(),
                        format!(
                            "certified required speed {} outside [0, f_m = {}]",
                            dvs.required_speed,
                            f_m.as_f64()
                        ),
                    ));
                }
                let mut expected = select_freq(&env.policy_table, dvs.required_speed);
                if let Some(clamp) = dvs.clamp {
                    expected = expected.max(clamp);
                }
                if event.frequency != expected {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudDvsOutOfBound,
                        entity.clone(),
                        format!(
                            "chosen {} MHz but required speed {} (clamp {:?}) selects {} MHz",
                            event.frequency.as_mhz(),
                            dvs.required_speed,
                            dvs.clamp.map(|f| f.as_mhz()),
                            expected.as_mhz()
                        ),
                    ));
                }
            }
            None => {
                if event.frequency != f_m {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudDvsOutOfBound,
                        entity.clone(),
                        format!(
                            "no DVS record, so the choice must be f_m = {} MHz, got {} MHz",
                            f_m.as_mhz(),
                            event.frequency.as_mhz()
                        ),
                    ));
                }
            }
        }
    }
}

/// The charge-ledger audit: energy per charge against Martin's model
/// (and the idle-power bill), using the model bound at the *true*
/// table's `f_m` — degraded-DVS faults change what policies plan with,
/// never what the silicon bills; each non-idle charge's duration against
/// the engine's quantization `⌈cycles / f⌉`; charges that overlap on
/// the one processor; and the sum against the certified total.
fn check_energy(cert: &RunCertificate, env: &Env, sink: &mut Sink) {
    let mut total = 0.0f64;
    let mut busy_until = 0u64;
    for (i, charge) in cert.charges.iter().enumerate() {
        let entity = format!("charge {i} @{}us", charge.at.as_micros());
        let start = charge.at.as_micros();
        if start < busy_until {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudEnergyMismatch,
                entity.clone(),
                format!(
                    "{} charge starts at {start} us, before the previous charge ends at \
                     {busy_until} us",
                    charge.kind.as_str()
                ),
            ));
        }
        busy_until = start.saturating_add(charge.micros);
        let expected = match charge.kind {
            eua_sim::ChargeKind::Idle => env.idle_power * charge.micros as f64,
            _ => {
                if charge.frequency_mhz == 0 {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudMalformedCertificate,
                        entity,
                        format!("{} charge at 0 MHz", charge.kind.as_str()),
                    ));
                    total += charge.energy;
                    continue;
                }
                let f = Frequency::from_mhz(charge.frequency_mhz);
                let quantized = f.execution_time(charge.cycles).as_micros();
                if charge.micros != quantized {
                    sink.push(Diagnostic::for_entity(
                        DiagCode::AudEnergyMismatch,
                        entity.clone(),
                        format!(
                            "{} charge lasts {} us but {} cycles at {} MHz take {quantized} us",
                            charge.kind.as_str(),
                            charge.micros,
                            charge.cycles.get(),
                            charge.frequency_mhz
                        ),
                    ));
                }
                env.true_model.energy_for(charge.cycles, f)
            }
        };
        if !close(expected, charge.energy) {
            sink.push(Diagnostic::for_entity(
                DiagCode::AudEnergyMismatch,
                entity,
                format!(
                    "{} charge of {} but E({} MHz) over {} cycles / {} us gives {}",
                    charge.kind.as_str(),
                    charge.energy,
                    charge.frequency_mhz,
                    charge.cycles.get(),
                    charge.micros,
                    expected
                ),
            ));
        }
        total += charge.energy;
    }
    if !close(total, cert.final_energy) {
        sink.push(Diagnostic::new(
            DiagCode::AudEnergyMismatch,
            format!(
                "charges sum to {total} but the certificate claims a final energy of {}",
                cert.final_energy
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::TimeDelta;
    use eua_sim::{ChargeKind, ChargeRecord, SchedEvent, TaskDecl, TaskId, TufDecl};

    fn decl(name: &str) -> TaskDecl {
        TaskDecl {
            name: name.into(),
            tuf: TufDecl::Step {
                umax: 10.0,
                step_at: TimeDelta::from_micros(10_000),
                termination: TimeDelta::from_micros(10_000),
            },
            max_arrivals: 2,
            window: TimeDelta::from_micros(10_000),
            allocation: Cycles::new(100_000),
            critical_offset: TimeDelta::from_micros(10_000),
            termination_offset: TimeDelta::from_micros(10_000),
        }
    }

    fn base_cert() -> RunCertificate {
        RunCertificate {
            policy: "hand".into(),
            seed: 1,
            horizon: TimeDelta::from_micros(50_000),
            frequencies_mhz: vec![36, 55, 64, 73, 82, 91, 100],
            policy_frequencies_mhz: vec![36, 55, 64, 73, 82, 91, 100],
            energy_name: "E1".into(),
            energy_rel: (1.0, 0.0, 0.0, 0.0),
            idle_power: 0.0,
            tasks: vec![decl("a")],
            arrivals: vec![(SimTime::ZERO, 0)],
            events: Vec::new(),
            charges: Vec::new(),
            final_energy: 0.0,
        }
    }

    #[test]
    fn clean_minimal_certificate_audits_clean() {
        let report = audit(&base_cert());
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn unparsable_text_is_malformed_not_a_crash() {
        let report = audit_text("x", "{nope");
        assert!(report.codes().contains("aud-malformed-certificate"));
    }

    #[test]
    fn smuggled_arrivals_trip_the_uam_check() {
        let mut cert = base_cert();
        // a = 2 per 10 ms window; three arrivals in one window violate it.
        cert.arrivals = vec![
            (SimTime::ZERO, 0),
            (SimTime::from_micros(1), 0),
            (SimTime::from_micros(2), 0),
        ];
        let report = audit(&cert);
        assert!(report.codes().contains("aud-uam-violation"));
    }

    #[test]
    fn forged_energy_totals_are_rejected() {
        let mut cert = base_cert();
        cert.charges = vec![ChargeRecord {
            at: SimTime::ZERO,
            kind: ChargeKind::Execute,
            frequency_mhz: 100,
            cycles: Cycles::new(1_000),
            micros: 10,
            energy: 1_000.0 * 100.0 * 100.0,
        }];
        cert.final_energy = cert.charges[0].energy;
        assert!(!audit(&cert).has_errors());
        cert.final_energy *= 1.5;
        let report = audit(&cert);
        assert!(report.codes().contains("aud-energy-mismatch"));
    }

    #[test]
    fn unknown_task_indices_are_malformed() {
        let mut cert = base_cert();
        cert.arrivals = vec![(SimTime::ZERO, 7)];
        assert!(audit(&cert).codes().contains("aud-malformed-certificate"));
        let mut cert = base_cert();
        cert.events.push(EventRecord {
            at: SimTime::ZERO,
            trigger: SchedEvent::Start,
            ready: vec![JobSnapshot {
                job: JobId(0),
                task: TaskId(9),
                arrival: SimTime::ZERO,
                critical: SimTime::from_micros(10_000),
                termination: SimTime::from_micros(10_000),
                remaining: Cycles::new(100),
            }],
            run: None,
            frequency: Frequency::from_mhz(100),
            aborts: Vec::new(),
            explanation: None,
        });
        assert!(audit(&cert).codes().contains("aud-malformed-certificate"));
    }

    #[test]
    fn greedy_reconstruction_orders_by_critical_time() {
        let mk = |job, critical, key| Cand {
            job: JobId(job),
            critical: SimTime::from_micros(critical),
            termination: SimTime::from_micros(critical),
            remaining: Cycles::new(1_000),
            key,
        };
        let out = greedy_schedule(
            SimTime::ZERO,
            vec![mk(0, 300, 5.0), mk(1, 100, 1.0), mk(2, 200, 3.0)],
            Frequency::from_mhz(100),
            false,
        );
        assert_eq!(out, vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn report_flood_is_capped_per_code() {
        let mut cert = base_cert();
        // 40 forged charges: only MAX_PER_CODE findings plus one
        // suppression note survive.
        for i in 0..40u64 {
            cert.charges.push(ChargeRecord {
                at: SimTime::from_micros(i),
                kind: ChargeKind::Execute,
                frequency_mhz: 100,
                cycles: Cycles::new(1_000),
                micros: 10,
                energy: 1.0, // wrong: E1 bills 1000 * 100^2
            });
        }
        cert.final_energy = 40.0;
        let report = audit(&cert);
        let n = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::AudEnergyMismatch)
            .count();
        assert_eq!(n, MAX_PER_CODE + 1, "{}", report.render_text());
    }
}
