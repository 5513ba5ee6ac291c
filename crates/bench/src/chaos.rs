//! Chaos campaigns: randomized fault-plan compositions × workload
//! universes × policies, swept through the worker pool behind a
//! resumable, byte-round-tripping journal (see DESIGN.md §15).
//!
//! Every cell of a campaign is a **pure function of `(master_seed,
//! cell index)`**: the cell's universe address, policy, run seed, and
//! composed [`FaultPlan`] all derive from one mixed seed, and the
//! scenario it simulates is regenerated from its `(family, cell,
//! seed)` address on demand. That purity is what makes the journal a
//! sufficient checkpoint — resuming a killed campaign replays nothing
//! and appends exactly the missing cells, so the finished journal (and
//! the report derived from it) is byte-identical to an uninterrupted
//! run at any `--jobs` count.
//!
//! Grading reuses the robustness oracle ([`classify_degradation`]),
//! and — when [`ChaosConfig::audit`] is set — every cell's decision
//! certificate is checked by the offline `eua-audit` validator. A cell
//! is *failing* when it collapses, fails audit, or panics; panicking
//! cells settle into graded records (via
//! [`eua_sim::map_parallel`]) instead of aborting the campaign,
//! and all failing cells are shrink candidates for
//! [`crate::shrink`](mod@crate::shrink).

use std::fs;
use std::io::Write as _;
use std::path::Path;

use eua_analyze::scenario::{EnergySpec, FaultSpec, ScenarioSpec};
use eua_analyze::{DiagCode, Report, Severity};
use eua_core::make_policy;
use eua_platform::{EnergySetting, Frequency, FrequencyTable, TimeDelta};
use eua_sim::{
    classify_degradation, map_parallel, DegradationClass, Engine, FaultPlan, Platform, PoolError,
    SimConfig, SimError, DEFAULT_COLLAPSE_FRACTION,
};
use eua_workload::{UniverseFamily, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;
use crate::robustness::FaultFamily;

/// Schema tag of the journal's header line.
pub const JOURNAL_SCHEMA: &str = "eua-chaos-journal/1";
/// Schema tag of the derived campaign report.
pub const REPORT_SCHEMA: &str = "eua-chaos/1";

/// Campaign configuration. Everything that affects cell *content* is
/// captured in the journal header; `jobs` deliberately is not — the
/// journal must be byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: the single source of every cell's randomness.
    pub master_seed: u64,
    /// Number of cells to sweep.
    pub cells: u32,
    /// Simulated horizon per cell.
    pub horizon: TimeDelta,
    /// Worker threads; `1` runs strictly sequentially.
    pub jobs: usize,
    /// Policy names each cell samples from (`eua_core::make_policy`).
    pub policies: Vec<String>,
    /// Record and audit a decision certificate per cell.
    pub audit: bool,
}

impl ChaosConfig {
    /// The default campaign: 256 cells, 2 s horizons, audited.
    #[must_use]
    pub fn standard() -> Self {
        ChaosConfig {
            master_seed: 1,
            cells: 256,
            horizon: TimeDelta::from_secs(2),
            jobs: 1,
            policies: ["eua", "dasa", "edf", "llf"]
                .into_iter()
                .map(String::from)
                .collect(),
            audit: true,
        }
    }

    /// A small-budget configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Self {
        ChaosConfig {
            master_seed: 7,
            cells: 16,
            horizon: TimeDelta::from_millis(300),
            jobs: 1,
            policies: vec!["eua".into(), "edf".into()],
            audit: true,
        }
    }

    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// Everything one cell will do, derived purely from
/// `(master_seed, index)` by [`plan_cell`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlan {
    /// The cell's campaign index.
    pub index: u32,
    /// The universe family the cell draws its workload from.
    pub family: UniverseFamily,
    /// The family cell (see [`UniverseFamily::generate`]).
    pub universe_cell: u32,
    /// The policy under test.
    pub policy: String,
    /// The engine run seed (demand sampling, fault noise).
    pub run_seed: u64,
    /// The composed fault plan (0–4 families stacked).
    pub faults: FaultPlan,
}

/// SplitMix64 finalizer — the same mixer the universe generator uses
/// for its cell addresses, applied here to campaign cell indices.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of campaign cell `index` under `master_seed`. Two
/// finalizer rounds over distinct odd constants keep neighbouring
/// cells (and neighbouring master seeds) statistically unrelated.
#[must_use]
pub fn chaos_cell_seed(master_seed: u64, index: u32) -> u64 {
    let mixed = master_seed
        .wrapping_add(0x43_4841_4F53) // "CHAOS"
        .wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix(splitmix(mixed))
}

/// Samples a composed fault plan: each robustness fault family joins
/// the plan with probability ½ at an intensity drawn from
/// `[0.25, 1.0]`, so roughly one cell in sixteen runs fault-free and
/// the rest stack one to four families.
fn sample_faults(rng: &mut SmallRng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for family in FaultFamily::ALL {
        if rng.gen_bool(0.5) {
            let intensity: f64 = rng.gen_range(0.25..=1.0);
            family.apply_at(&mut plan, intensity);
        }
    }
    plan
}

/// Derives cell `index`'s complete plan. Pure: the same
/// `(config.master_seed, config.policies, index)` always yields the
/// same plan, independent of job count or execution order.
#[must_use]
pub fn plan_cell(config: &ChaosConfig, index: u32) -> CellPlan {
    assert!(
        !config.policies.is_empty(),
        "campaign needs at least one policy"
    );
    let mut rng = SmallRng::seed_from_u64(chaos_cell_seed(config.master_seed, index));
    let family = UniverseFamily::ALL[rng.gen_range(0..UniverseFamily::ALL.len())];
    let universe_cell = rng.gen_range(0u32..100_000);
    let policy = config.policies[rng.gen_range(0..config.policies.len())].clone();
    let run_seed: u64 = rng.gen();
    let faults = sample_faults(&mut rng);
    CellPlan {
        index,
        family,
        universe_cell,
        policy,
        run_seed,
        faults,
    }
}

/// Renders cell `index`'s scenario to canonical `.scn` text (the same
/// text the cell executor round-trips before simulating). Exposed so
/// the determinism suite can pin byte-identity across `--jobs` counts.
///
/// # Errors
///
/// Propagates universe-generation and `.scn` lowering failures.
pub fn cell_scenario_text(config: &ChaosConfig, index: u32) -> Result<String, String> {
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
    let spec =
        ScenarioSpec::from_workload(&scenario.name, &scenario.workload, &table, EnergySpec::e1())?;
    Ok(spec.render())
}

/// Audit errors the injected fault plan does *not* explain. An
/// injected UAM burst or arrival jitter makes the certified arrival
/// stream violate the declared `⟨a, P⟩` on purpose, and the audit
/// detecting that (`aud-uam-violation`) is the fault layer working —
/// not a failing cell. Every other `aud-*` error (UER mismatch,
/// schedule reconstruction, energy accounting, …) counts always: the
/// translation invariants must hold even under faults.
#[must_use]
pub fn unexpected_audit_errors(report: &Report, plan: &FaultPlan) -> u64 {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .filter(|d| !(plan.arrivals_faulted() && d.code == DiagCode::AudUamViolation))
        .count() as u64
}

/// What a surviving (non-panicking) cell reports back from the pool.
pub(crate) struct CellOutcome {
    pub(crate) grade: DegradationClass,
    pub(crate) utility_ratio: f64,
    pub(crate) audit_errors: u64,
}

/// Runs `policy_name` (panicking if unknown) on `workload` under
/// `faults`, audits the certificate if one was recorded, and grades the
/// run: the steps a chaos cell and a shrink probe share.
pub(crate) fn run_and_grade(
    name: &str,
    workload: &Workload,
    policy_name: &str,
    platform: &Platform,
    sim_config: &SimConfig,
    seed: u64,
    faults: &FaultPlan,
) -> Result<CellOutcome, SimError> {
    let mut policy =
        make_policy(policy_name).unwrap_or_else(|| panic!("unknown policy {policy_name}"));
    let outcome = Engine::run_with_faults(
        &workload.tasks,
        &workload.patterns,
        platform,
        &mut policy,
        sim_config,
        seed,
        faults,
    )?;
    let audit_errors = outcome.certificate.as_ref().map_or(0, |cert| {
        let report = eua_audit::audit_text(name, &cert.render());
        unexpected_audit_errors(&report, faults)
    });
    let grade =
        classify_degradation(&outcome.metrics, &workload.tasks, DEFAULT_COLLAPSE_FRACTION).overall;
    Ok(CellOutcome {
        grade,
        utility_ratio: outcome.metrics.utility_ratio(),
        audit_errors,
    })
}

/// Runs one cell end to end. Any internal failure — universe
/// generation, `.scn` render drift, unknown policy, simulation error —
/// panics, and the pool settles the panic into the cell's record.
fn execute_cell(config: &ChaosConfig, platform: &Platform, index: u32) -> CellOutcome {
    let plan = plan_cell(config, index);
    let scenario = plan
        .family
        .generate(plan.universe_cell, config.master_seed, platform.f_max())
        .unwrap_or_else(|e| panic!("universe generation failed: {e}"));
    let table = FrequencyTable::powernow_k6();
    let spec =
        ScenarioSpec::from_workload(&scenario.name, &scenario.workload, &table, EnergySpec::e1())
            .unwrap_or_else(|e| panic!("scenario lowering failed: {e}"));
    // The campaign's repro path is the `.scn` text, so the cell
    // simulates what the text says — after checking the text is an
    // exact fixed point of parse ∘ render (drift here would desync the
    // shrinker from the campaign).
    let rendered = spec.render();
    let reparsed = ScenarioSpec::parse(&rendered)
        .unwrap_or_else(|e| panic!("render drift: canonical text does not parse: {e}"));
    assert!(
        reparsed == spec,
        "render drift: parse(render(spec)) != spec"
    );
    assert!(
        reparsed.render() == rendered,
        "render drift: render is not a fixpoint"
    );
    let workload = reparsed
        .to_workload()
        .unwrap_or_else(|e| panic!("workload raise failed: {e}"));
    let sim_config = if config.audit {
        SimConfig::new(config.horizon).with_certificate()
    } else {
        SimConfig::new(config.horizon)
    };
    run_and_grade(
        &scenario.name,
        &workload,
        &plan.policy,
        platform,
        &sim_config,
        plan.run_seed,
        &plan.faults,
    )
    .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

fn fault_json(plan: &FaultPlan) -> Json {
    // Campaign plans never use `stuck_after`, so lowering always works.
    let spec = FaultSpec::from_plan(plan).unwrap_or_default();
    Json::Obj(vec![
        (
            "burst_extra".into(),
            Json::uint(u64::from(spec.burst_extra)),
        ),
        (
            "burst_every".into(),
            Json::uint(u64::from(spec.burst_every)),
        ),
        ("mean_factor".into(), Json::num(spec.demand_mean_factor)),
        ("spread".into(), Json::num(spec.demand_spread)),
        (
            "switch_latency".into(),
            Json::uint(spec.switch_latency_cycles),
        ),
        (
            "degraded_mhz".into(),
            match &spec.degraded_mhz {
                Some(set) => Json::Arr(set.iter().map(|&f| Json::uint(f)).collect()),
                None => Json::Null,
            },
        ),
        ("abort_cost_us".into(), Json::uint(spec.abort_cost_us)),
        ("jitter_us".into(), Json::uint(spec.arrival_jitter_us)),
    ])
}

/// Builds cell `index`'s journal record from its settled pool slot. A
/// panicked slot grades as `collapsed` with the panic message attached
/// — the worst a cell can do, and a first-class shrink candidate.
fn cell_record(config: &ChaosConfig, index: u32, outcome: &Result<CellOutcome, PoolError>) -> Json {
    let plan = plan_cell(config, index);
    let (grade, ratio, audit_errors, panic_msg) = match outcome {
        Ok(o) => (
            o.grade.as_str(),
            Json::num(o.utility_ratio),
            o.audit_errors,
            Json::Null,
        ),
        Err(PoolError::WorkerPanic { message, .. }) => {
            ("collapsed", Json::Null, 0, Json::Str(message.clone()))
        }
        Err(other) => ("collapsed", Json::Null, 0, Json::Str(other.to_string())),
    };
    Json::Obj(vec![
        ("cell".into(), Json::uint(u64::from(index))),
        ("family".into(), Json::Str(plan.family.key().into())),
        (
            "universe_cell".into(),
            Json::uint(u64::from(plan.universe_cell)),
        ),
        ("policy".into(), Json::Str(plan.policy.clone())),
        ("seed".into(), Json::uint(plan.run_seed)),
        ("faults".into(), fault_json(&plan.faults)),
        ("grade".into(), Json::Str(grade.into())),
        ("utility_ratio".into(), ratio),
        ("audit_errors".into(), Json::uint(audit_errors)),
        ("panic".into(), panic_msg),
    ])
}

/// The journal's header value: everything that determines cell
/// content. Resume refuses a journal whose header line differs.
#[must_use]
pub fn journal_header(config: &ChaosConfig) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(JOURNAL_SCHEMA.into())),
        ("master_seed".into(), Json::uint(config.master_seed)),
        ("cells".into(), Json::uint(u64::from(config.cells))),
        ("horizon_us".into(), Json::uint(config.horizon.as_micros())),
        ("audit".into(), Json::Bool(config.audit)),
        (
            "policies".into(),
            Json::Arr(
                config
                    .policies
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn json_u64(value: &Json) -> Option<u64> {
    match value {
        Json::Num(text) => text.parse().ok(),
        _ => None,
    }
}

/// The campaign index of a journal record.
#[must_use]
pub fn record_cell(record: &Json) -> Option<u32> {
    record
        .get("cell")
        .and_then(json_u64)
        .and_then(|v| u32::try_from(v).ok())
}

/// Whether a journal record is a *failing* cell: collapsed, audit
/// errors, or a settled panic. Failing cells are shrink candidates.
#[must_use]
pub fn record_is_failing(record: &Json) -> bool {
    let collapsed = record.get("grade").and_then(Json::as_str) == Some("collapsed");
    let audit_failed = record.get("audit_errors").and_then(json_u64).unwrap_or(0) > 0;
    let panicked = !matches!(record.get("panic"), Some(Json::Null) | None);
    collapsed || audit_failed || panicked
}

/// A finished (or halted) campaign: every journaled record in cell
/// order, plus whether the run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// All records journaled so far, in cell order.
    pub records: Vec<Json>,
    /// `true` when `halt_after` stopped the run before the last cell.
    pub halted: bool,
}

/// Runs (or resumes) a campaign against its journal file.
///
/// * `resume = false` truncates the journal and writes the header;
/// * `resume = true` requires an existing journal whose header line is
///   byte-identical to this configuration's, validates the journaled
///   record prefix is contiguous, and continues after it;
/// * `halt_after = Some(n)` stops once at least `n` *new* cells have
///   been journaled this invocation (the deterministic stand-in for a
///   mid-flight kill in tests and CI).
///
/// Because each record is a pure function of `(master_seed, index)`,
/// any interleaving of halts and resumes yields the same final journal
/// bytes as one uninterrupted run, at any `jobs` count.
///
/// # Errors
///
/// I/O failures, a journal/configuration mismatch on resume, or a
/// corrupt journal prefix.
pub fn run_campaign(
    config: &ChaosConfig,
    journal: &Path,
    resume: bool,
    halt_after: Option<u32>,
) -> Result<CampaignOutcome, String> {
    if config.policies.is_empty() {
        return Err("campaign needs at least one policy".into());
    }
    let header = journal_header(config).render_compact();
    let mut records: Vec<Json> = Vec::new();
    if resume {
        let text = fs::read_to_string(journal)
            .map_err(|e| format!("cannot read journal {}: {e}", journal.display()))?;
        let mut lines = text.lines();
        let first = lines.next().ok_or("journal is empty")?;
        if first != header {
            return Err(format!(
                "journal {} was written by a different campaign configuration \
                 (header mismatch); refusing to resume",
                journal.display()
            ));
        }
        for (i, line) in lines.enumerate() {
            let record =
                crate::json::parse(line).map_err(|e| format!("journal line {}: {e}", i + 2))?;
            let cell = record_cell(&record)
                .ok_or_else(|| format!("journal line {}: missing cell index", i + 2))?;
            if cell as usize != i {
                return Err(format!(
                    "journal line {}: expected cell {i}, found cell {cell}",
                    i + 2
                ));
            }
            records.push(record);
        }
        if records.len() > config.cells as usize {
            return Err(format!(
                "journal holds {} records but the campaign has {} cells",
                records.len(),
                config.cells
            ));
        }
    } else {
        if let Some(dir) = journal.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            }
        }
        fs::write(journal, format!("{header}\n"))
            .map_err(|e| format!("cannot write journal {}: {e}", journal.display()))?;
    }

    let platform = Platform::powernow(EnergySetting::e1());
    let jobs = config.jobs.max(1);
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(journal)
        .map_err(|e| format!("cannot append to journal {}: {e}", journal.display()))?;
    // Chunk size only controls append granularity (and how promptly a
    // halt takes effect) — never record content.
    let chunk = (jobs * 4).max(8) as u32;
    let mut next = records.len() as u32;
    let mut fresh = 0u32;
    while next < config.cells {
        if halt_after.is_some_and(|limit| fresh >= limit) {
            return Ok(CampaignOutcome {
                records,
                halted: true,
            });
        }
        let end = next.saturating_add(chunk).min(config.cells);
        let indices: Vec<u32> = (next..end).collect();
        let outcomes = map_parallel(
            jobs,
            indices.clone(),
            |_, &index| format!("cell {index}"),
            |_, index| execute_cell(config, &platform, index),
        );
        let mut buf = String::new();
        for (&index, outcome) in indices.iter().zip(&outcomes) {
            let record = cell_record(config, index, outcome);
            buf.push_str(&record.render_compact());
            buf.push('\n');
            records.push(record);
        }
        file.write_all(buf.as_bytes())
            .map_err(|e| format!("journal append failed: {e}"))?;
        file.flush()
            .map_err(|e| format!("journal flush failed: {e}"))?;
        fresh += end - next;
        next = end;
    }
    Ok(CampaignOutcome {
        records,
        halted: false,
    })
}

/// Derives the campaign report from the journal's records — and from
/// nothing else, so an interrupted-then-resumed campaign reports the
/// same bytes as an uninterrupted one.
#[must_use]
pub fn campaign_report(config: &ChaosConfig, records: &[Json]) -> Json {
    struct Counts {
        cells: u64,
        met: u64,
        degraded: u64,
        collapsed: u64,
        panics: u64,
        audit_failures: u64,
    }
    impl Counts {
        fn new() -> Self {
            Counts {
                cells: 0,
                met: 0,
                degraded: 0,
                collapsed: 0,
                panics: 0,
                audit_failures: 0,
            }
        }
        fn add(&mut self, record: &Json) {
            self.cells += 1;
            match record.get("grade").and_then(Json::as_str) {
                Some("met") => self.met += 1,
                Some("degraded") => self.degraded += 1,
                _ => self.collapsed += 1,
            }
            if !matches!(record.get("panic"), Some(Json::Null) | None) {
                self.panics += 1;
            }
            if record.get("audit_errors").and_then(json_u64).unwrap_or(0) > 0 {
                self.audit_failures += 1;
            }
        }
        fn fields(&self) -> Vec<(String, Json)> {
            vec![
                ("cells".into(), Json::uint(self.cells)),
                ("met".into(), Json::uint(self.met)),
                ("degraded".into(), Json::uint(self.degraded)),
                ("collapsed".into(), Json::uint(self.collapsed)),
                ("panics".into(), Json::uint(self.panics)),
                ("audit_failures".into(), Json::uint(self.audit_failures)),
            ]
        }
    }

    let mut total = Counts::new();
    let mut failing = Vec::new();
    for record in records {
        total.add(record);
        if record_is_failing(record) {
            failing.push(record.clone());
        }
    }
    let by_family: Vec<Json> = UniverseFamily::ALL
        .iter()
        .map(|family| {
            let mut counts = Counts::new();
            for record in records {
                if record.get("family").and_then(Json::as_str) == Some(family.key()) {
                    counts.add(record);
                }
            }
            let mut fields = vec![("family".into(), Json::Str(family.key().into()))];
            fields.extend(counts.fields());
            Json::Obj(fields)
        })
        .collect();
    let by_policy: Vec<Json> = config
        .policies
        .iter()
        .map(|policy| {
            let mut counts = Counts::new();
            for record in records {
                if record.get("policy").and_then(Json::as_str) == Some(policy.as_str()) {
                    counts.add(record);
                }
            }
            let mut fields = vec![("policy".into(), Json::Str(policy.clone()))];
            fields.extend(counts.fields());
            Json::Obj(fields)
        })
        .collect();

    let mut summary = total.fields();
    summary.push(("failing".into(), Json::uint(failing.len() as u64)));
    Json::Obj(vec![
        ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
        ("master_seed".into(), Json::uint(config.master_seed)),
        ("cells".into(), Json::uint(u64::from(config.cells))),
        ("horizon_us".into(), Json::uint(config.horizon.as_micros())),
        ("audit".into(), Json::Bool(config.audit)),
        (
            "policies".into(),
            Json::Arr(
                config
                    .policies
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("summary".into(), Json::Obj(summary)),
        ("by_family".into(), Json::Arr(by_family)),
        ("by_policy".into(), Json::Arr(by_policy)),
        ("failing_cells".into(), Json::Arr(failing)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eua-chaos-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("campaign.jsonl")
    }

    #[test]
    fn cell_plans_are_pure_and_varied() {
        let config = ChaosConfig::standard();
        let plans: Vec<CellPlan> = (0..64).map(|i| plan_cell(&config, i)).collect();
        for plan in &plans {
            assert_eq!(plan_cell(&config, plan.index), *plan, "plans must be pure");
            plan.faults.validate().expect("sampled plans are valid");
        }
        let faultless = plans.iter().filter(|p| p.faults.is_none()).count();
        let multi = plans
            .iter()
            .filter(|p| p.faults.arrivals_faulted() && p.faults.demand_faulted())
            .count();
        assert!(faultless > 0, "some cells must run fault-free");
        assert!(multi > 0, "some cells must stack fault families");
        let families: std::collections::BTreeSet<&str> =
            plans.iter().map(|p| p.family.key()).collect();
        assert!(families.len() >= 4, "64 cells must hit most families");
        let reseeded = ChaosConfig {
            master_seed: config.master_seed + 1,
            ..config
        };
        for plan in &plans {
            assert_ne!(
                plan_cell(&reseeded, plan.index),
                *plan,
                "cell {}: the master seed must move the plan",
                plan.index
            );
        }
    }

    #[test]
    fn scenario_text_is_byte_identical_across_job_counts() {
        let config = ChaosConfig::quick();
        let indices: Vec<u32> = (0..config.cells).collect();
        let render = |jobs: usize| -> Vec<String> {
            map_parallel(
                jobs,
                indices.clone(),
                |_, &i| format!("cell {i}"),
                |_, i| cell_scenario_text(&config, i).expect("renders"),
            )
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect()
        };
        assert_eq!(
            render(1),
            render(4),
            "scenario bytes must not depend on jobs"
        );
    }

    #[test]
    fn campaign_is_byte_identical_across_jobs_and_resume() {
        let config = ChaosConfig::quick();

        let full = tmp_journal("full");
        let outcome = run_campaign(&config, &full, false, None).expect("campaign");
        assert!(!outcome.halted);
        assert_eq!(outcome.records.len(), config.cells as usize);
        let full_bytes = fs::read_to_string(&full).expect("journal");
        let report_bytes = campaign_report(&config, &outcome.records).render();

        // Same seed, four workers: identical journal and report bytes.
        let par = tmp_journal("par");
        let outcome_par =
            run_campaign(&config.clone().with_jobs(4), &par, false, None).expect("campaign");
        assert_eq!(fs::read_to_string(&par).expect("journal"), full_bytes);
        assert_eq!(
            campaign_report(&config, &outcome_par.records).render(),
            report_bytes
        );

        // Killed mid-flight (halt after 5 fresh cells), then resumed:
        // byte-identical to the uninterrupted run.
        let two = tmp_journal("twophase");
        let halted = run_campaign(&config, &two, false, Some(5)).expect("phase 1");
        assert!(halted.halted);
        assert!(halted.records.len() < config.cells as usize);
        let resumed = run_campaign(&config, &two, true, None).expect("phase 2");
        assert!(!resumed.halted);
        assert_eq!(fs::read_to_string(&two).expect("journal"), full_bytes);
        assert_eq!(
            campaign_report(&config, &resumed.records).render(),
            report_bytes
        );

        // The report round-trips through the JSON layer byte-for-byte.
        let parsed = crate::json::parse(&report_bytes).expect("report parses");
        assert_eq!(parsed.render(), report_bytes);

        // Resuming an already-complete journal is a no-op with the
        // same derived report.
        let again = run_campaign(&config, &two, true, None).expect("idempotent resume");
        assert_eq!(fs::read_to_string(&two).expect("journal"), full_bytes);
        assert_eq!(
            campaign_report(&config, &again.records).render(),
            report_bytes
        );
    }

    #[test]
    fn resume_refuses_a_mismatched_journal() {
        let mut config = ChaosConfig::quick();
        config.cells = 4;
        let path = tmp_journal("mismatch");
        run_campaign(&config, &path, false, Some(0)).expect("header only");
        config.master_seed += 1;
        let err = run_campaign(&config, &path, true, None).expect_err("must refuse");
        assert!(err.contains("header mismatch"), "{err}");
    }

    #[test]
    fn panicking_cells_become_graded_records() {
        let mut config = ChaosConfig::quick();
        config.cells = 6;
        config.policies = vec!["no-such-policy".into()];
        let path = tmp_journal("panics");
        let outcome = run_campaign(&config, &path, false, None).expect("must not abort");
        assert_eq!(outcome.records.len(), 6);
        for record in &outcome.records {
            assert_eq!(
                record.get("grade").and_then(Json::as_str),
                Some("collapsed")
            );
            let message = record
                .get("panic")
                .and_then(Json::as_str)
                .expect("panic message");
            assert!(message.contains("no-such-policy"), "{message}");
            assert!(record_is_failing(record));
        }
        let report = campaign_report(&config, &outcome.records);
        let summary = report.get("summary").expect("summary");
        assert_eq!(summary.get("panics").and_then(json_u64), Some(6));
        assert_eq!(summary.get("failing").and_then(json_u64), Some(6));
    }
}
