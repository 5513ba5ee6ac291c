#![allow(clippy::expect_used, clippy::unwrap_used)] // test code: panicking on bad setup is the point

//! Differential suite for the engine-throughput overhaul: the production
//! event loop (an incrementally maintained live table that is also the
//! policy view, batched abort waves, and an ordered termination set —
//! DESIGN.md §14) must be **byte-identical** to the preserved
//! pre-overhaul loop (`Engine::run_with_faults_reference`) on arbitrary
//! workloads, across every policy family, with and without fault
//! injection.
//!
//! "Byte-identical" is checked at full strength: the two outcomes must
//! compare equal (metrics, certificate, fault stats) and the rendered
//! `eua-certificate/2` documents must be equal as strings.
//!
//! For the two utility-accrual policies the production certificate is
//! also replayed against an independent decision oracle (Algorithm 1
//! recomputed from each event's ready set with the naive builder), so
//! a scoring bug that both loops share still fails here.
//!
//! Both loops record through one certificate recorder, so their byte
//! comparison cannot see a recorder bug. Every run therefore goes through
//! a forwarding policy that copies the ready set it is shown at each
//! decision, and the ready sets walked from the certificate must equal
//! those copies.
//!
//! The proptest runs `DIFF_CASES` cases.

use eua_core::{build_schedule_reference, make_policy, Candidate, InsertionMode};
use eua_platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua_sim::{
    Decision, DecisionExplanation, Engine, FaultPlan, JobSnapshot, Platform, RunCertificate,
    SchedContext, SchedulerPolicy, SimConfig, Task, TaskSet,
};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use proptest::prelude::*;

/// Proptest cases for the differential property.
const DIFF_CASES: u32 = 24;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// The policy families under differential test: the UER scheduler and
/// the utility-density baseline (both also checked against the decision
/// oracle), and the two deadline/laxity baselines with per-event state
/// of their own.
const POLICIES: [&str; 4] = ["eua", "dasa", "edf", "llf"];

/// One task with a proptest-chosen TUF shape, window and demand model.
fn build_task(name: &str, shape: u8, p_ms: u64, a: u32, kilocycles: u64) -> Task {
    let p = ms(p_ms);
    let cycles = kilocycles as f64 * 1_000.0;
    let tuf = match shape % 3 {
        0 => Tuf::step(10.0, p).unwrap(),
        1 => Tuf::linear(8.0, p).unwrap(),
        _ => Tuf::exponential(6.0, ms(p_ms / 2 + 1), p).unwrap(),
    };
    let demand = if shape.is_multiple_of(2) {
        DemandModel::deterministic(cycles).unwrap()
    } else {
        DemandModel::normal(cycles, cycles / 2.0).unwrap()
    };
    // ν = 1 is only meaningful for the step shape (the paper restricts
    // it so); decaying shapes get a mid-curve critical time.
    let nu = if shape.is_multiple_of(3) { 1.0 } else { 0.5 };
    Task::new(
        name,
        tuf,
        UamSpec::new(a, p).unwrap(),
        demand,
        Assurance::new(nu, 0.5).unwrap(),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
struct WorkloadParams {
    tasks: Vec<(u8, u64, u32, u64)>,
}

/// 1–4 tasks spanning underload through heavy overload, window bursts
/// included (the interesting regimes for abort waves and termination-set
/// churn). These hold at most about 15 live jobs; the deep-backlog pin
/// below covers 64.
fn arb_workload() -> impl Strategy<Value = WorkloadParams> {
    proptest::collection::vec(
        (
            0u8..6,       // shape / demand-model selector
            4u64..40,     // window, ms
            1u32..4,      // UAM arrivals per window
            20u64..3_000, // kilocycles per job (up to ~3 windows of work)
        ),
        1..4,
    )
    .prop_map(|tasks| WorkloadParams { tasks })
}

fn raise(params: &WorkloadParams) -> (TaskSet, Vec<ArrivalPattern>) {
    let tasks: Vec<Task> = params
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &(shape, p_ms, a, kc))| build_task(&format!("t{i}"), shape, p_ms, a, kc))
        .collect();
    let patterns = tasks
        .iter()
        .map(|t| {
            if t.uam().max_arrivals() > 1 {
                ArrivalPattern::window_burst(*t.uam()).unwrap()
            } else {
                ArrivalPattern::periodic(t.uam().window()).unwrap()
            }
        })
        .collect();
    (TaskSet::new(tasks).unwrap(), patterns)
}

/// Fault plans the differential must hold under: the zero plan (pins
/// that faulted plumbing stays out of the unfaulted path), and an
/// everything-on plan (jitter, bursts, demand spread, switch latency,
/// degraded table, costly aborts — the last one drives the mid-wave
/// clock advances that stress batched abort processing).
fn plan_for(intensity: u8) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if intensity == 0 {
        return plan;
    }
    plan.uam.extra_per_window = 2;
    plan.uam.every_n_windows = 2;
    plan.demand.mean_factor = 1.6;
    plan.demand.spread = 0.4;
    plan.dvs.switch_latency_cycles = 5_000;
    plan.dvs.degraded_mhz = Some(vec![36, 64, 100]);
    plan.timing.abort_cost = TimeDelta::from_micros(150);
    plan.timing.arrival_jitter = TimeDelta::from_micros(700);
    plan
}

/// Replays every decision of an `eua` or `dasa` certificate from the
/// event's ready set alone: the aborts are the jobs that cannot finish
/// by their termination at `f_m`, in ready order, and the run is the head
/// of the naive builder's schedule over the rest, keyed by UER
/// `U/(E(f_m)·c)` (EUA, break on infeasible) or by utility density `U/c`
/// (DASA, skip infeasible). Other policies are not checked.
fn assert_decisions_match_oracle(cert: &RunCertificate, tasks: &TaskSet, platform: &Platform) {
    let (mode, per_cycle_weighted) = match cert.policy.as_str() {
        "eua" => (InsertionMode::BreakOnInfeasible, true),
        "dasa" => (InsertionMode::SkipInfeasible, false),
        _ => return,
    };
    // A degraded-frequency fault hands the policy a smaller table, so
    // plan against the table the certificate says the policy saw.
    let table = FrequencyTable::new(cert.policy_frequencies_mhz.iter().copied())
        .expect("certified policy table");
    let policy_platform = Platform::new(table, *platform.setting());
    let f_m = policy_platform.f_max();
    let per_cycle_at_fm = policy_platform.energy().energy_per_cycle(f_m);
    cert.walk(|k, event, ready| {
        let mut aborts = Vec::new();
        let mut candidates = Vec::new();
        for j in ready {
            let predicted = event.at.saturating_add(f_m.execution_time(j.remaining));
            if predicted > j.termination {
                aborts.push(j.job);
                continue;
            }
            let utility = tasks
                .task(j.task)
                .tuf()
                .utility(predicted.saturating_since(j.arrival));
            let key = if per_cycle_weighted {
                utility / (per_cycle_at_fm * j.remaining.as_f64())
            } else {
                utility / j.remaining.as_f64()
            };
            candidates.push(Candidate {
                id: j.job,
                critical: j.critical,
                termination: j.termination,
                remaining: j.remaining,
                key,
            });
        }
        let schedule = build_schedule_reference(event.at, candidates, f_m, mode);
        let policy = &cert.policy;
        assert_eq!(
            event.aborts, aborts,
            "policy {policy}, event {k} at {:?}: aborts differ from the oracle",
            event.at
        );
        assert_eq!(
            event.run,
            schedule.first().map(|c| c.id),
            "policy {policy}, event {k} at {:?}: run differs from the oracle",
            event.at
        );
    })
    .expect("the recorded ready-set changes apply");
}

/// A registry policy behind a forwarding wrapper that copies the ready
/// set the engine shows it at every decision.
struct Watched {
    inner: Box<dyn SchedulerPolicy>,
    seen: Vec<Vec<JobSnapshot>>,
}

impl Watched {
    fn new(name: &str) -> Self {
        Watched {
            inner: make_policy(name).expect("registry policy"),
            seen: Vec::new(),
        }
    }
}

impl SchedulerPolicy for Watched {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        self.seen
            .push(ctx.jobs.iter().map(JobSnapshot::from_view).collect());
        self.inner.decide(ctx)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn certify(&mut self, on: bool) {
        self.inner.certify(on);
    }
    fn explain(&self) -> Option<DecisionExplanation> {
        self.inner.explain()
    }
}

/// The recorded changes are what the policy saw: walking the certificate
/// rebuilds, at event `k`, exactly the ready set of the `k`-th decision.
/// Costly aborts and arrival jitter are where an admitted job can depart
/// before the next decision.
fn assert_recorded_changes_are_what_the_policy_saw(
    cert: &RunCertificate,
    seen: &[Vec<JobSnapshot>],
) {
    let policy = &cert.policy;
    let mut walked = 0;
    cert.walk(|k, event, ready| {
        assert_eq!(
            Some(ready),
            seen.get(k).map(Vec::as_slice),
            "policy {policy}, event {k} at {:?}: the walked ready set is not the one decided on",
            event.at
        );
        walked += 1;
    })
    .expect("the recorded ready-set changes apply");
    assert_eq!(
        walked,
        seen.len(),
        "policy {policy}: one event per decision"
    );
}

/// Runs one (workload, policy, plan, seed) cell through both loops and
/// asserts full-outcome equality plus certificate byte-identity, then
/// checks the production certificate against the decision oracle.
fn assert_differential(
    tasks: &TaskSet,
    patterns: &[ArrivalPattern],
    policy_name: &str,
    plan: &FaultPlan,
    seed: u64,
    horizon_ms: u64,
) {
    let platform = Platform::powernow(EnergySetting::e1());
    let config = SimConfig::new(ms(horizon_ms)).with_certificate();

    let mut watched_new = Watched::new(policy_name);
    let new = Engine::run_with_faults(
        tasks,
        patterns,
        &platform,
        &mut watched_new,
        &config,
        seed,
        plan,
    )
    .expect("production engine runs");
    let mut watched_old = Watched::new(policy_name);
    let old = Engine::run_with_faults_reference(
        tasks,
        patterns,
        &platform,
        &mut watched_old,
        &config,
        seed,
        plan,
    )
    .expect("reference engine runs");
    for (outcome, watched) in [(&new, &watched_new), (&old, &watched_old)] {
        assert_recorded_changes_are_what_the_policy_saw(
            outcome.certificate.as_ref().expect("certificate recorded"),
            &watched.seen,
        );
    }

    let new_cert = new
        .certificate
        .as_ref()
        .expect("certificate recorded")
        .render();
    let old_cert = old
        .certificate
        .as_ref()
        .expect("certificate recorded")
        .render();
    assert_eq!(
        new_cert, old_cert,
        "policy {policy_name}, seed {seed}: certificates diverged"
    );
    assert_eq!(
        new, old,
        "policy {policy_name}, seed {seed}: outcomes diverged"
    );
    assert_decisions_match_oracle(
        new.certificate.as_ref().expect("certificate recorded"),
        tasks,
        &platform,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DIFF_CASES))]

    #[test]
    fn production_loop_matches_reference_loop(
        params in arb_workload(),
        policy_pick in 0usize..POLICIES.len(),
        intensity in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (tasks, patterns) = raise(&params);
        assert_differential(
            &tasks,
            &patterns,
            POLICIES[policy_pick],
            &plan_for(intensity),
            seed,
            150,
        );
    }
}

/// Deterministic pin: every registry policy family, both fault
/// intensities, on a fixed mixed workload. Catches divergence even when
/// the proptest budget is reduced to almost nothing.
#[test]
fn all_policies_match_reference_on_the_fixed_workload() {
    let params = WorkloadParams {
        tasks: vec![(0, 10, 2, 700), (1, 15, 1, 400), (4, 25, 3, 1_800)],
    };
    let (tasks, patterns) = raise(&params);
    for name in POLICIES {
        for intensity in 0..2 {
            assert_differential(&tasks, &patterns, name, &plan_for(intensity), 42, 200);
        }
    }
}

/// Overload with many same-instant terminations: several jobs share each
/// termination time, so the batched abort wave must visit and abort them
/// in exactly the reference order for certificates to stay identical.
#[test]
fn termination_tie_waves_match_reference() {
    let params = WorkloadParams {
        tasks: vec![(0, 10, 3, 2_500), (0, 10, 3, 2_500)],
    };
    let (tasks, patterns) = raise(&params);
    for name in ["eua", "eua-na", "edf-na"] {
        // Costly aborts advance the clock mid-wave — the regime where a
        // naive wave implementation diverges first.
        assert_differential(&tasks, &patterns, name, &plan_for(1), 7, 150);
        assert_differential(&tasks, &patterns, name, &FaultPlan::none(), 7, 150);
    }
}

/// The `simulate_backlog` shape of the `simulator_throughput` bench: `n`
/// phase-staggered tasks, one arrival per 40 ms window each, at
/// aggregate load 2.0, so about `n` jobs are pending at every decision.
fn backlog_workload(n: usize) -> (TaskSet, Vec<ArrivalPattern>) {
    let window = ms(40);
    let cycles = (2 * window.as_micros() * 100) as f64 / n as f64;
    let tasks = (0..n)
        .map(|i| {
            Task::new(
                format!("b{i}"),
                Tuf::step(1.0 + (i % 7) as f64, window).unwrap(),
                UamSpec::new(1, window).unwrap(),
                DemandModel::deterministic(cycles).unwrap(),
                Assurance::new(1.0, 0.5).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let patterns = (0..n)
        .map(|i| {
            let phase = TimeDelta::from_micros(window.as_micros() * i as u64 / n as u64);
            ArrivalPattern::periodic_with_phase(window, phase).unwrap()
        })
        .collect();
    (TaskSet::new(tasks).unwrap(), patterns)
}

/// Deep-backlog pin: 64 pending jobs, where tombstone compaction,
/// binary-search lookups and termination-set removals run far past the
/// generated workloads' depth.
#[test]
fn deep_backlog_matches_reference() {
    let (tasks, patterns) = backlog_workload(64);
    for name in ["eua", "dasa", "edf"] {
        for intensity in 0..2 {
            assert_differential(&tasks, &patterns, name, &plan_for(intensity), 9, 200);
        }
    }
}
