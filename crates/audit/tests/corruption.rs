#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Adversarial gates: deliberately corrupted certificates must be
//! rejected with the *matching* `aud-*` code — a forged energy total
//! must not masquerade as a schedule-order problem, and vice versa.

mod common;

use std::collections::BTreeSet;

use common::{bridge, run_certified};
use eua_analyze::shipped_scenarios;
use eua_audit::{audit, audit_text};
use eua_core::{EdfPolicy, Eua};
use eua_platform::{Frequency, SimTime, TimeDelta};
use eua_sim::{ChargeKind, RunCertificate, SchedulerPolicy, UerEntry};

/// A real EUA\* certificate with plenty of multi-job events to corrupt.
fn certified() -> RunCertificate {
    certified_by(SATURATED, &mut Eua::new())
}

/// The shipped near-saturation scenario [`certified`] runs.
const SATURATED: &str = "overload-survival-0.9";

/// The shipped scenario whose EUA\* run aborts jobs and leaves feasible
/// jobs out of its schedules.
const ABORTING: &str = "overload-survival-1.8";

/// The certificate of `policy` on the shipped scenario `name`.
fn certified_by(name: &str, policy: &mut dyn SchedulerPolicy) -> RunCertificate {
    let spec = shipped_scenarios()
        .expect("registry builds")
        .into_iter()
        .find(|s| s.name == name)
        .expect("shipped scenario");
    let (tasks, patterns, platform) = bridge(&spec);
    run_certified(&tasks, &patterns, &platform, policy, 42)
}

/// The index of an event whose explanation certifies at least two UER
/// entries (so order perturbations are observable).
fn multi_uer_event(cert: &RunCertificate) -> usize {
    cert.events
        .iter()
        .position(|e| e.explanation.as_ref().is_some_and(|x| x.uer.len() >= 2))
        .expect("a multi-job decision exists in 200 ms of overload")
}

#[test]
fn pristine_certificate_audits_clean() {
    let report = audit(&certified());
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn perturbed_uer_values_are_rejected() {
    let mut cert = certified();
    let i = multi_uer_event(&cert);
    let expl = cert.events[i].explanation.as_mut().unwrap();
    // Swap two certified UER values: both now disagree with the
    // recomputation from the declared TUFs and energy model.
    let (a, b) = (expl.uer[0].uer, expl.uer[1].uer);
    expl.uer[0].uer = b;
    expl.uer[1].uer = a;
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-uer-mismatch"),
        "{}",
        report.render_text()
    );
}

#[test]
fn perturbed_schedule_order_is_rejected() {
    let mut cert = certified();
    let i = cert
        .events
        .iter()
        .position(|e| {
            e.explanation
                .as_ref()
                .is_some_and(|x| x.schedule.len() >= 2)
        })
        .expect("a multi-entry schedule exists in 200 ms of overload");
    let expl = cert.events[i].explanation.as_mut().unwrap();
    // Reverse the certified insertion outcome; the greedy reconstruction
    // no longer reproduces it.
    expl.schedule.reverse();
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-schedule-order"),
        "{}",
        report.render_text()
    );
}

#[test]
fn a_certified_finish_moved_by_one_microsecond_is_infeasible() {
    let mut cert = certified();
    let entry = cert
        .events
        .iter_mut()
        .find_map(|e| e.explanation.as_mut()?.schedule.first_mut())
        .expect("a certified schedule exists");
    entry.predicted_finish = entry
        .predicted_finish
        .saturating_add(TimeDelta::from_micros(1));
    let report = audit(&cert);
    let text = report.render_text();
    assert_eq!(
        report.codes(),
        BTreeSet::from(["aud-schedule-infeasible"]),
        "{text}"
    );
    assert_eq!(report.diagnostics.len(), 1, "{text}");
}

#[test]
fn forged_final_energy_is_rejected() {
    let mut cert = certified();
    cert.final_energy *= 1.01;
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-energy-mismatch"),
        "{}",
        report.render_text()
    );
}

#[test]
fn forged_per_charge_energy_is_rejected() {
    let mut cert = certified();
    let i = cert
        .charges
        .iter()
        .position(|c| c.energy > 0.0)
        .expect("a positive charge exists");
    cert.charges[i].energy *= 0.5;
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-energy-mismatch"),
        "{}",
        report.render_text()
    );
}

#[test]
fn smuggled_uam_violating_arrival_is_rejected() {
    let mut cert = certified();
    // Flood task 0's first window far past its declared `a` bound.
    let burst = u64::from(cert.tasks[0].max_arrivals) + 1;
    for k in 0..burst {
        cert.arrivals.push((SimTime::from_micros(k), 0));
    }
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-uam-violation"),
        "{}",
        report.render_text()
    );
}

#[test]
fn off_table_dispatch_frequency_is_rejected() {
    let mut cert = certified();
    let i = cert
        .events
        .iter()
        .position(|e| e.run.is_some())
        .expect("a dispatch exists");
    cert.events[i].frequency = Frequency::from_mhz(9_999);
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-dvs-out-of-bound"),
        "{}",
        report.render_text()
    );
}

#[test]
fn illegal_abort_of_a_feasible_job_is_rejected() {
    let mut cert = certified();
    // Promote a feasible scheduled job into the abort list without a
    // witness: the abort/witness agreement check must fire.
    let i = cert
        .events
        .iter()
        .position(|e| {
            e.run.is_some() && e.explanation.as_ref().is_some_and(|x| x.aborts.is_empty())
        })
        .expect("a no-abort dispatch exists");
    let victim = cert.events[i].run.unwrap();
    cert.events[i].aborts.push(victim);
    let report = audit(&cert);
    assert!(
        report.codes().contains("aud-abort-illegal"),
        "{}",
        report.render_text()
    );
}

#[test]
fn truncated_text_is_a_malformed_certificate_finding() {
    let text = certified().render();
    let report = audit_text("truncated", &text[..text.len() / 2]);
    assert!(report.codes().contains("aud-malformed-certificate"));
    assert!(report.has_errors());
}

/// Corruptions must be *attributed*, not just detected: each forged
/// aspect yields its own code and none of the unrelated ones.
#[test]
fn corruption_attribution_is_specific() {
    let mut cert = certified();
    cert.final_energy *= 1.01;
    let codes = audit(&cert).codes();
    assert!(codes.contains("aud-energy-mismatch"));
    for unrelated in [
        "aud-uer-mismatch",
        "aud-schedule-order",
        "aud-schedule-infeasible",
        "aud-abort-illegal",
        "aud-dvs-out-of-bound",
        "aud-uam-violation",
        "aud-malformed-certificate",
    ] {
        assert!(!codes.contains(unrelated), "spurious `{unrelated}`");
    }
}

/// Audits a forged charge ledger and asserts that its findings are
/// exactly one `aud-energy-mismatch` per expected reason.
fn assert_only_ledger(cert: &RunCertificate, reasons: &[&str]) {
    assert_only(cert, "aud-energy-mismatch", reasons);
}

/// Audits a forged certificate and asserts that its findings are exactly
/// one `code` per expected reason. Several checks share a code, so the
/// reason names the check.
fn assert_only(cert: &RunCertificate, code: &str, reasons: &[&str]) {
    let report = audit(cert);
    let text = report.render_text();
    assert_eq!(report.codes(), BTreeSet::from([code]), "{text}");
    assert_eq!(report.diagnostics.len(), reasons.len(), "{text}");
    for reason in reasons {
        let saying = report
            .diagnostics
            .iter()
            .filter(|d| d.message.contains(reason))
            .count();
        assert_eq!(saying, 1, "{text} must say {reason:?} once");
    }
}

/// The first execute charge that lasts at least 2 µs and is followed by
/// another charge.
fn long_execute_charge(cert: &RunCertificate) -> usize {
    cert.charges[..cert.charges.len() - 1]
        .iter()
        .position(|c| c.kind == ChargeKind::Execute && c.micros >= 2)
        .expect("an execute charge of 2 us or more")
}

const WRONG_DURATION: &str = "lasts";
const OVERLAP: &str = "before the previous charge ends";

#[test]
fn a_charge_shorter_than_its_cycles_is_rejected() {
    let mut cert = certified();
    let i = long_execute_charge(&cert);
    let charge = &mut cert.charges[i];
    charge.micros = charge.micros.saturating_sub(1);
    assert_only_ledger(&cert, &[WRONG_DURATION]);
}

#[test]
fn a_charge_starting_before_the_previous_one_ends_is_rejected() {
    let mut cert = certified();
    let i = 1 + cert
        .charges
        .windows(2)
        .position(|w| w[1].at == w[0].at.saturating_add(TimeDelta::from_micros(w[0].micros)))
        .expect("two back-to-back charges");
    let charge = &mut cert.charges[i];
    charge.at = SimTime::from_micros(charge.at.as_micros().saturating_sub(1));
    assert_only_ledger(&cert, &[OVERLAP]);
}

#[test]
fn a_stretched_charge_is_rejected_twice() {
    let mut cert = certified();
    let i = long_execute_charge(&cert);
    let next = cert.charges[i + 1].at;
    let charge = &mut cert.charges[i];
    charge.micros = next
        .saturating_since(charge.at)
        .as_micros()
        .saturating_add(1);
    assert_only_ledger(&cert, &[WRONG_DURATION, OVERLAP]);
}

// One forgery per decision check, each caught by that check alone. The
// forgeries edit only what the policy decided and explained; the ready
// rows stay as recorded.

#[test]
fn a_schedule_missing_its_last_entry_is_not_the_greedy_one() {
    let mut cert = certified();
    let expl = cert
        .events
        .iter_mut()
        .find_map(|e| e.explanation.as_mut().filter(|x| x.schedule.len() >= 2))
        .expect("a multi-entry schedule exists");
    // The head stays, so the dispatch still heads the schedule.
    expl.schedule.pop();
    assert_only(
        &cert,
        "aud-schedule-order",
        &["greedy non-increasing-UER insertion reconstructs"],
    );
}

#[test]
fn a_dispatch_other_than_the_schedule_head_is_rejected() {
    let mut cert = certified();
    let mut found = None;
    cert.walk(|i, e, ready| {
        if found.is_none() && e.explanation.is_some() && e.run.is_some() && ready.len() >= 2 {
            let other = ready
                .iter()
                .map(|s| s.job)
                .find(|&j| Some(j) != e.run && !e.aborts.contains(&j));
            found = Some((i, other));
        }
    })
    .expect("the recorded changes apply");
    let (i, other) = found.expect("a dispatch among several ready jobs");
    cert.events[i].run = Some(other.expect("another ready job that is not aborted"));
    assert_only(
        &cert,
        "aud-schedule-order",
        &["disagrees with the schedule head"],
    );
}

#[test]
fn a_witness_finish_moved_by_one_microsecond_proves_nothing() {
    let mut cert = certified_by(ABORTING, &mut Eua::new());
    let witness = cert
        .events
        .iter_mut()
        .find_map(|e| e.explanation.as_mut()?.aborts.first_mut())
        .expect("an abort witness exists");
    witness.predicted_finish = witness
        .predicted_finish
        .saturating_add(TimeDelta::from_micros(1));
    assert_only(
        &cert,
        "aud-abort-illegal",
        &["does not prove infeasibility"],
    );
}

#[test]
fn a_feasible_job_without_a_uer_is_rejected() {
    let mut cert = certified_by(ABORTING, &mut Eua::new());
    // The job with the strictly lowest UER is considered last, so when
    // it is left out of the schedule, dropping its row leaves the greedy
    // reconstruction as it was.
    let (i, job) = cert
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| {
            let expl = e.explanation.as_ref()?;
            let last = expl.uer.iter().min_by(|a, b| a.uer.total_cmp(&b.uer))?;
            let alone = expl.uer.iter().filter(|u| u.uer <= last.uer).count() == 1;
            let scheduled = expl.schedule.iter().any(|s| s.job == last.job);
            (alone && !scheduled).then_some((i, last.job))
        })
        .expect("an unscheduled job with the lowest UER");
    let expl = cert.events[i].explanation.as_mut().unwrap();
    expl.uer.retain(|u| u.job != job);
    assert_only(
        &cert,
        "aud-uer-mismatch",
        &["is missing from the certified UER set"],
    );
}

#[test]
fn an_aborted_job_with_a_uer_is_rejected() {
    let mut cert = certified_by(ABORTING, &mut Eua::new());
    let event = cert
        .events
        .iter_mut()
        .find(|e| e.explanation.is_some() && !e.aborts.is_empty())
        .expect("an abort exists");
    let job = event.aborts[0];
    // Past its termination an aborted job's utility is zero, so a zero
    // UER passes the recomputation, and a zero key ends the greedy
    // consideration without changing the schedule.
    let expl = event.explanation.as_mut().unwrap();
    expl.uer.push(UerEntry { job, uer: 0.0 });
    assert_only(&cert, "aud-uer-mismatch", &["carries a UER"]);
}

/// The top of the table the policy planned against.
fn policy_f_max(cert: &RunCertificate) -> Frequency {
    Frequency::from_mhz(*cert.policy_frequencies_mhz.iter().max().unwrap())
}

/// The index of the first dispatch whose explanation `has`, with a
/// policy-visible table entry other than the one it ran at.
fn dispatch_moved_on_the_table(
    cert: &RunCertificate,
    has: impl Fn(&eua_sim::DecisionExplanation) -> bool,
) -> (usize, Frequency) {
    let i = cert
        .events
        .iter()
        .position(|e| e.run.is_some() && e.explanation.as_ref().is_some_and(&has))
        .expect("such a dispatch exists");
    let other = cert
        .policy_frequencies_mhz
        .iter()
        .map(|&mhz| Frequency::from_mhz(mhz))
        .find(|&f| f != cert.events[i].frequency)
        .expect("a table of two or more entries");
    (i, other)
}

#[test]
fn a_required_speed_above_f_max_is_rejected() {
    let mut cert = certified();
    let f_m = policy_f_max(&cert);
    // At f_m the selection still agrees: a speed above the table selects
    // its top.
    let dvs = cert
        .events
        .iter_mut()
        .filter(|e| e.run.is_some() && e.frequency == f_m)
        .find_map(|e| e.explanation.as_mut()?.dvs.as_mut())
        .expect("a dispatch at f_m with a DVS record");
    dvs.required_speed = 2.0 * f_m.as_f64();
    assert_only(&cert, "aud-dvs-out-of-bound", &["outside [0, f_m"]);
}

#[test]
fn a_frequency_the_required_speed_does_not_select_is_rejected() {
    let mut cert = certified();
    let (i, other) = dispatch_moved_on_the_table(&cert, |x| x.dvs.is_some());
    cert.events[i].frequency = other;
    assert_only(&cert, "aud-dvs-out-of-bound", &["but required speed"]);
}

#[test]
fn a_dispatch_without_dvs_below_f_max_is_rejected() {
    let mut cert = certified_by(SATURATED, &mut Eua::without_dvs());
    let (i, other) = dispatch_moved_on_the_table(&cert, |x| x.dvs.is_none());
    cert.events[i].frequency = other;
    assert_only(
        &cert,
        "aud-dvs-out-of-bound",
        &["no DVS record, so the choice must be f_m"],
    );
}

#[test]
fn an_unexplained_dispatch_off_the_table_is_rejected() {
    // EDF explains nothing, so only the table check sees its frequency.
    let mut cert = certified_by(SATURATED, &mut EdfPolicy::max_speed());
    let event = cert
        .events
        .iter_mut()
        .find(|e| e.run.is_some())
        .expect("a dispatch exists");
    assert!(event.explanation.is_none());
    event.frequency = Frequency::from_mhz(9_999);
    assert_only(
        &cert,
        "aud-dvs-out-of-bound",
        &["is not in the policy-visible table"],
    );
}

/// A job id no certificate in this suite reaches.
const NOT_LIVE: u64 = 999_999_999;

/// Rewrites the first line of `text` that `edit` returns a new line for,
/// the way a forger edits one event or one charge of a rendered
/// certificate.
fn forge_line(text: &str, edit: impl Fn(&str) -> Option<String>) -> String {
    let mut edited = false;
    let mut forged = String::with_capacity(text.len() + 32);
    for line in text.lines() {
        match edit(line).filter(|_| !edited) {
            Some(new) => {
                forged.push_str(&new);
                edited = true;
            }
            None => forged.push_str(line),
        }
        forged.push('\n');
    }
    assert_ne!(forged, text, "the forgery changed nothing");
    forged
}

/// The job id that follows `marker` on `line`, with its byte range.
fn id_after(line: &str, marker: &str) -> Option<(std::ops::Range<usize>, u64)> {
    let start = line.find(marker)? + marker.len();
    let len = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    let id = line[start..start + len].parse().ok()?;
    Some((start..start + len, id))
}

/// Replaces the first job id that follows `marker` with [`NOT_LIVE`].
fn unlive_id_after(text: &str, marker: &str) -> String {
    forge_line(text, |line| {
        let (ids, _) = id_after(line, marker)?;
        Some(format!(
            "{}{NOT_LIVE}{}",
            &line[..ids.start],
            &line[ids.end..]
        ))
    })
}

/// Audits forged certificate text and asserts that the only finding is
/// `aud-malformed-certificate`, for the `reason` the forgery targets.
fn assert_only_malformed(forged: &str, reason: &str) {
    let report = audit_text("forged", forged);
    let text = report.render_text();
    assert_eq!(
        report.codes(),
        BTreeSet::from(["aud-malformed-certificate"]),
        "{text}"
    );
    assert!(text.contains(reason), "{text} does not say {reason:?}");
}

#[test]
fn departing_a_job_that_is_not_live_is_malformed() {
    let forged = unlive_id_after(&certified().render(), r#""departed":["#);
    assert_only_malformed(&forged, &format!("departed job {NOT_LIVE} is not live"));
}

#[test]
fn progressing_a_job_that_is_not_live_is_malformed() {
    let forged = unlive_id_after(&certified().render(), r#""progressed":[["#);
    assert_only_malformed(&forged, &format!("progressed job {NOT_LIVE} is not live"));
}

#[test]
fn re_adding_a_live_job_is_malformed() {
    // A job that progressed at an event is live there; arriving it again
    // must not silently replace its snapshot.
    let forged = forge_line(&certified().render(), |line| {
        let (_, live) = id_after(line, r#""progressed":[["#)?;
        let row = format!("[{live},0,0,0,0,1]");
        Some(if line.contains(r#""arrived":[]"#) {
            line.replacen(r#""arrived":[]"#, &format!(r#""arrived":[{row}]"#), 1)
        } else {
            line.replacen(r#""arrived":["#, &format!(r#""arrived":[{row},"#), 1)
        })
    });
    assert_only_malformed(&forged, "is already live");
}

#[test]
fn a_reordered_columns_header_is_malformed() {
    let forged = forge_line(&certified().render(), |line| {
        line.starts_with(r#""columns":"#)
            .then(|| line.replacen(r#""uer":["job","uer"]"#, r#""uer":["uer","job"]"#, 1))
    });
    assert_only_malformed(&forged, "`columns` header");
}

#[test]
fn a_row_with_the_wrong_cell_count_is_malformed() {
    // Charge rows are the only lines that open with a bare array.
    let forged = forge_line(&certified().render(), |line| {
        line.starts_with('[').then(|| line.replacen('[', "[0,", 1))
    });
    assert_only_malformed(&forged, "charge row has 7 cells");
}

#[test]
fn a_number_that_is_not_json_is_malformed() {
    // `str::parse::<f64>` reads `+5` as 5, and re-rendering dropped the
    // sign; the reader follows RFC 8259, which has no leading `+`.
    let fixture = include_str!("fixtures/overload-edf-seed5.json");
    let forged = fixture.replacen(r#""seed":5,"#, r#""seed":+5,"#, 1);
    assert_ne!(forged, fixture, "the forgery changed nothing");
    assert_only_malformed(&forged, r#"malformed number "+5""#);
}
