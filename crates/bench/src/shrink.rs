//! Automatic shrinking of failing chaos cells to minimal `.scn`
//! repros (DESIGN.md §15).
//!
//! A [`ShrinkCase`] is the campaign cell's *canonical* state: its
//! rendered [`ScenarioSpec`] (tasks, arrival specs, fault stanza) plus
//! the policy, run seed, and horizon. Shrinking operates on this state
//! — never on the original in-memory workload — because the `.scn`
//! text is what gets committed to `tests/regression_corpus/` and
//! replayed, and a spec that survived one parse ∘ render round trip is
//! exactly reproducible from its bytes (moment-derived parameters like
//! a Pareto mean can drift an ulp between the raw workload and its
//! canonical text, so the two must never be mixed).
//!
//! The algorithm is greedy fixed-point deletion: repeatedly try every
//! candidate — drop one task, halve the horizon (fewer jobs), zero one
//! fault component — and accept the first that still
//! [reproduces](probe); stop when none does. Termination is immediate
//! (every accepted candidate strictly shrinks a well-founded measure),
//! and the result is **1-minimal**: removing any single remaining
//! element no longer reproduces, which is precisely the fixed-point
//! exit condition. Everything is deterministic — candidate order is
//! fixed and each probe is a seeded simulation — so the same failing
//! cell always shrinks to byte-identical repro text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use eua_analyze::scenario::{EnergySpec, FaultSpec, ScenarioSpec};
use eua_platform::{EnergySetting, Frequency, FrequencyTable, TimeDelta};
use eua_sim::{DegradationClass, FaultPlan, Platform, SimConfig};

use crate::chaos::{plan_cell, run_and_grade, ChaosConfig};

/// The horizon below which the shrinker stops halving (1 ms — shorter
/// horizons observe no complete job of any realistic task).
const MIN_HORIZON_US: u64 = 1_000;

/// How a failing cell fails; recorded in the repro's `expect=` token
/// and re-asserted by the corpus replay test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell panicked (pool-settled in campaigns, caught here).
    Panic,
    /// The degradation oracle graded the run `collapsed`.
    Collapsed,
    /// The offline certificate audit found errors.
    AuditFail,
}

impl FailureKind {
    /// The stable token used in repro names.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Collapsed => "collapsed",
            FailureKind::AuditFail => "audit-fail",
        }
    }

    /// Parses a repro-name token.
    #[must_use]
    pub fn parse_token(token: &str) -> Option<Self> {
        match token {
            "panic" => Some(FailureKind::Panic),
            "collapsed" => Some(FailureKind::Collapsed),
            "audit-fail" => Some(FailureKind::AuditFail),
            _ => None,
        }
    }
}

/// A reproducible failing cell in canonical `.scn` state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkCase {
    /// The scenario (tasks, arrivals, faults) as parsed/rendered text.
    pub spec: ScenarioSpec,
    /// The policy under test (`eua_core::make_policy` name).
    pub policy: String,
    /// The engine run seed.
    pub seed: u64,
    /// The simulated horizon.
    pub horizon: TimeDelta,
}

/// Rebuilds campaign cell `index` as a shrinkable case: the cell's
/// scenario lowered to its canonical spec with the sampled fault plan
/// attached as a `faults` stanza.
///
/// # Errors
///
/// Propagates universe-generation and lowering failures.
pub fn case_from_chaos_cell(config: &ChaosConfig, index: u32) -> Result<ShrinkCase, String> {
    let plan = plan_cell(config, index);
    let scenario = plan
        .family
        .generate(
            plan.universe_cell,
            config.master_seed,
            Frequency::from_mhz(100),
        )
        .map_err(|e| format!("universe generation failed: {e}"))?;
    let table = FrequencyTable::powernow_k6();
    let mut spec =
        ScenarioSpec::from_workload(&scenario.name, &scenario.workload, &table, EnergySpec::e1())?;
    spec.faults = if plan.faults.is_none() {
        None
    } else {
        FaultSpec::from_plan(&plan.faults)
    };
    Ok(ShrinkCase {
        spec,
        policy: plan.policy,
        seed: plan.run_seed,
        horizon: config.horizon,
    })
}

/// Runs the case once, certificate recording on, exactly as the chaos
/// campaign would. Unknown policies and engine invariant violations
/// panic (so [`probe`] classifies them); malformed candidate specs
/// return `Err` (so [`probe`] rejects the candidate).
fn run_case(case: &ShrinkCase) -> Result<(DegradationClass, u64), String> {
    let workload = case.spec.to_workload()?;
    let plan = case
        .spec
        .faults
        .as_ref()
        .map_or_else(FaultPlan::none, FaultSpec::to_plan);
    plan.validate().map_err(|e| e.to_string())?;
    let platform = Platform::powernow(EnergySetting::e1());
    let sim_config = SimConfig::new(case.horizon).with_certificate();
    let cell = run_and_grade(
        &case.spec.name,
        &workload,
        &case.policy,
        &platform,
        &sim_config,
        case.seed,
        &plan,
    )
    .map_err(|e| e.to_string())?;
    Ok((cell.grade, cell.audit_errors))
}

/// Whether (and how) the case reproduces a failure. `None` both for
/// healthy runs and for candidates the spec layer rejects — a shrink
/// step must never "succeed" by making the scenario invalid.
#[must_use]
pub fn probe(case: &ShrinkCase) -> Option<FailureKind> {
    match catch_unwind(AssertUnwindSafe(|| run_case(case))) {
        Err(_) => Some(FailureKind::Panic),
        Ok(Err(_)) => None,
        Ok(Ok((DegradationClass::Collapsed, _))) => Some(FailureKind::Collapsed),
        Ok(Ok((_, audit_errors))) if audit_errors > 0 => Some(FailureKind::AuditFail),
        Ok(Ok(_)) => None,
    }
}

/// Every single-deletion candidate of `case`, in the fixed order the
/// greedy loop (and the minimality test) walks: task drops from the
/// back, one horizon halving, then per-component fault zeroing.
#[must_use]
pub fn candidates(case: &ShrinkCase) -> Vec<ShrinkCase> {
    let mut out = Vec::new();
    if case.spec.tasks.len() > 1 {
        for i in (0..case.spec.tasks.len()).rev() {
            let mut cand = case.clone();
            cand.spec.tasks.remove(i);
            out.push(cand);
        }
    }
    let half = case.horizon.as_micros() / 2;
    if half >= MIN_HORIZON_US {
        let mut cand = case.clone();
        cand.horizon = TimeDelta::from_micros(half);
        out.push(cand);
    }
    if let Some(faults) = &case.spec.faults {
        let mut zeroed: Vec<FaultSpec> = Vec::new();
        if faults.burst_extra > 0 {
            let mut f = faults.clone();
            f.burst_extra = 0;
            zeroed.push(f);
        }
        if faults.demand_mean_factor != 1.0 {
            let mut f = faults.clone();
            f.demand_mean_factor = 1.0;
            zeroed.push(f);
        }
        if faults.demand_spread != 0.0 {
            let mut f = faults.clone();
            f.demand_spread = 0.0;
            zeroed.push(f);
        }
        if faults.switch_latency_cycles > 0 {
            let mut f = faults.clone();
            f.switch_latency_cycles = 0;
            zeroed.push(f);
        }
        if faults.degraded_mhz.is_some() {
            let mut f = faults.clone();
            f.degraded_mhz = None;
            zeroed.push(f);
        }
        if faults.abort_cost_us > 0 {
            let mut f = faults.clone();
            f.abort_cost_us = 0;
            zeroed.push(f);
        }
        if faults.arrival_jitter_us > 0 {
            let mut f = faults.clone();
            f.arrival_jitter_us = 0;
            zeroed.push(f);
        }
        for f in zeroed {
            let mut cand = case.clone();
            cand.spec.faults = Some(f);
            out.push(cand);
        }
        if faults.to_plan().is_none() {
            let mut cand = case.clone();
            cand.spec.faults = None;
            out.push(cand);
        }
    }
    out
}

/// Greedily shrinks a reproducing case to a 1-minimal one: no single
/// candidate of the result still reproduces. The failure kind of the
/// *final* case is returned (a panic repro can shrink into a plain
/// collapse and vice versa; the recorded kind is what the minimal
/// repro actually does).
///
/// # Errors
///
/// When the input case does not reproduce any failure.
pub fn shrink(case: &ShrinkCase) -> Result<(ShrinkCase, FailureKind), String> {
    let mut kind = probe(case)
        .ok_or_else(|| "the case does not reproduce a failure; nothing to shrink".to_string())?;
    let mut current = case.clone();
    loop {
        let mut progressed = false;
        for candidate in candidates(&current) {
            if let Some(k) = probe(&candidate) {
                current = candidate;
                kind = k;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return Ok((current, kind));
        }
    }
}

/// The repro's scenario name: self-describing `key=value` tokens the
/// corpus replay test parses back (the `.scn` parser preserves interior
/// name whitespace, so the name is a safe metadata channel).
#[must_use]
pub fn repro_name(origin: &str, case: &ShrinkCase, kind: FailureKind) -> String {
    format!(
        "chaos-repro policy={} seed={} horizon_us={} expect={} from={}",
        case.policy,
        case.seed,
        case.horizon.as_micros(),
        kind.as_str(),
        origin
    )
}

/// Metadata parsed back out of a repro's scenario name.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproMeta {
    /// The policy under test.
    pub policy: String,
    /// The engine run seed.
    pub seed: u64,
    /// The simulated horizon.
    pub horizon: TimeDelta,
    /// The failure the repro is expected to exhibit.
    pub expect: FailureKind,
}

/// Parses a [`repro_name`]-shaped scenario name.
///
/// # Errors
///
/// When a required token is missing or malformed.
pub fn parse_repro_name(name: &str) -> Result<ReproMeta, String> {
    let find = |key: &str| -> Result<&str, String> {
        name.split_whitespace()
            .find_map(|token| token.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
            .ok_or_else(|| format!("repro name is missing `{key}=`: {name}"))
    };
    let policy = find("policy")?.to_string();
    let seed: u64 = find("seed")?
        .parse()
        .map_err(|e| format!("bad seed token: {e}"))?;
    let horizon_us: u64 = find("horizon_us")?
        .parse()
        .map_err(|e| format!("bad horizon_us token: {e}"))?;
    let expect = FailureKind::parse_token(find("expect")?)
        .ok_or_else(|| format!("unknown expect token in: {name}"))?;
    Ok(ReproMeta {
        policy,
        seed,
        horizon: TimeDelta::from_micros(horizon_us),
        expect,
    })
}

/// Renders the final repro `.scn` text: the shrunk spec with its name
/// replaced by the metadata-carrying [`repro_name`].
#[must_use]
pub fn render_repro(origin: &str, case: &ShrinkCase, kind: FailureKind) -> String {
    let mut spec = case.spec.clone();
    spec.name = repro_name(origin, case, kind);
    spec.render()
}

/// Reconstructs a replayable case from repro `.scn` text (the corpus
/// replay test's entry point), returning the case and the failure it
/// is expected to reproduce.
///
/// # Errors
///
/// Parse failures of the text or its metadata name.
pub fn case_from_repro_text(text: &str) -> Result<(ShrinkCase, FailureKind), String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| format!("repro does not parse: {e}"))?;
    let meta = parse_repro_name(&spec.name)?;
    Ok((
        ShrinkCase {
            spec,
            policy: meta.policy,
            seed: meta.seed,
            horizon: meta.horizon,
        },
        meta.expect,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_analyze::scenario::{ArrivalSpec, DemandSpec, TaskSpec, TufSpec};

    /// Three identical hopeless tasks: every job demands 50× what the
    /// platform can deliver before its termination, so every policy
    /// collapses on every seed — a deterministic shrink target.
    fn hopeless_case() -> ShrinkCase {
        let task = |k: usize| TaskSpec {
            name: format!("hopeless-{k}"),
            tuf: TufSpec::Step {
                umax: 10.0,
                step_at_us: 10_000,
            },
            max_arrivals: 1.0,
            window_us: 10_000,
            demand: DemandSpec::Deterministic { cycles: 5.0e7 },
            nu: 1.0,
            rho: 0.9,
            declared_allocation: None,
            arrival: Some(ArrivalSpec::Burst),
        };
        let spec = ScenarioSpec {
            name: "hopeless".into(),
            frequencies_mhz: vec![36, 55, 64, 73, 82, 91, 100],
            energy: EnergySpec::e1(),
            tasks: (0..3).map(task).collect(),
            faults: Some(FaultSpec {
                demand_mean_factor: 2.0,
                demand_spread: 0.25,
                arrival_jitter_us: 500,
                ..FaultSpec::default()
            }),
        };
        ShrinkCase {
            spec,
            policy: "eua".into(),
            seed: 11,
            horizon: TimeDelta::from_millis(100),
        }
    }

    #[test]
    fn shrink_reaches_a_one_minimal_collapse() {
        let case = hopeless_case();
        assert_eq!(probe(&case), Some(FailureKind::Collapsed));
        let (shrunk, kind) = shrink(&case).expect("reproduces");
        assert_eq!(kind, FailureKind::Collapsed);
        // The overload is per-task, so one task suffices and every
        // fault component is shed.
        assert_eq!(shrunk.spec.tasks.len(), 1);
        assert!(shrunk.spec.faults.is_none());
        assert!(shrunk.horizon < case.horizon, "horizon must shrink too");
        // 1-minimality — the shrinker's exit condition, re-checked
        // explicitly: no single further deletion still reproduces.
        for candidate in candidates(&shrunk) {
            assert_eq!(probe(&candidate), None, "shrunk case must be 1-minimal");
        }
        // Shrinking is deterministic.
        let (again, _) = shrink(&case).expect("reproduces");
        assert_eq!(again, shrunk);
    }

    #[test]
    fn repro_text_round_trips_and_replays() {
        let case = hopeless_case();
        let (shrunk, kind) = shrink(&case).expect("reproduces");
        let text = render_repro("unit-test", &shrunk, kind);
        let (replayed, expect) = case_from_repro_text(&text).expect("repro parses");
        assert_eq!(expect, kind);
        assert_eq!(replayed.policy, shrunk.policy);
        assert_eq!(replayed.seed, shrunk.seed);
        assert_eq!(replayed.horizon, shrunk.horizon);
        assert_eq!(
            probe(&replayed),
            Some(kind),
            "repro must replay its failure"
        );
        // The repro text itself is a parse ∘ render fixpoint.
        let reparsed = ScenarioSpec::parse(&text).expect("parses");
        assert_eq!(reparsed.render(), text);
    }

    #[test]
    fn unknown_policy_probes_as_panic() {
        let mut case = hopeless_case();
        case.policy = "no-such-policy".into();
        assert_eq!(probe(&case), Some(FailureKind::Panic));
    }

    #[test]
    fn healthy_case_does_not_shrink() {
        let mut case = hopeless_case();
        // Make it feasible: tiny demand, no faults.
        for task in &mut case.spec.tasks {
            task.demand = DemandSpec::Deterministic { cycles: 1_000.0 };
        }
        case.spec.faults = None;
        assert_eq!(probe(&case), None);
        assert!(shrink(&case).is_err());
    }
}
