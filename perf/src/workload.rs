//! The three workloads and how one unit of each (a simulation run or a
//! chaos cell) executes, untraced or traced.
//!
//! Inputs are pure functions of the command-line seed. The library only
//! ever receives the generated inputs: task sets, arrival patterns, run
//! seeds and fault plans.

use std::rc::Rc;
use std::time::Instant;

use eua_analyze::scenario::{EnergySpec, ScenarioSpec};
use eua_bench::{plan_cell, unexpected_audit_errors, CellPlan, ChaosConfig};
use eua_core::make_policy;
use eua_platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua_sim::{
    classify_degradation, DegradationClass, Engine, FaultStats, Metrics, Outcome, Platform,
    RunCertificate, SchedulerPolicy, SimConfig, Task, TaskSet, DEFAULT_COLLAPSE_FRACTION,
};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use eua_workload::{fig2_workload, UniverseFamily, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::{ns_since, Counted, LayerStats, Traced};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's Figure 2 load sweep.
    Fig2Sweep,
    /// Sustained overload holding 64 and 256 jobs pending.
    OverloadBacklog,
    /// Certified, audited chaos cells.
    ChaosAudited,
}

impl WorkloadKind {
    /// All workloads, in report order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Fig2Sweep,
        WorkloadKind::OverloadBacklog,
        WorkloadKind::ChaosAudited,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fig2Sweep => "fig2_sweep",
            WorkloadKind::OverloadBacklog => "overload_backlog",
            WorkloadKind::ChaosAudited => "chaos_audited",
        }
    }

    /// The inverse of [`WorkloadKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much work one pass over a workload holds. [`Size::full`] is what
/// the benchmark measures; tests use smaller sizes.
#[derive(Debug, Clone)]
pub struct Size {
    /// Figure 2 loads.
    pub fig2_loads: Vec<f64>,
    /// Task-set draws per Figure 2 load (each run under four policies).
    pub fig2_draws: u32,
    /// Simulated horizon of a Figure 2 run.
    pub fig2_horizon: TimeDelta,
    /// Backlog levels: `(pending jobs, instances)`, each instance run
    /// under three policies.
    pub backlog_levels: Vec<(usize, u32)>,
    /// Simulated horizon of a backlog run.
    pub backlog_horizon: TimeDelta,
    /// Chaos cells per pass.
    pub chaos_cells: u32,
    /// Simulated horizon of a chaos cell.
    pub chaos_horizon: TimeDelta,
}

impl Size {
    /// The benchmark's size: at least 100 runs per pass on every
    /// workload.
    #[must_use]
    pub fn full() -> Self {
        Size {
            fig2_loads: (1..=9).map(|i| f64::from(i) * 0.2).collect(),
            fig2_draws: 6,
            fig2_horizon: TimeDelta::from_secs(20),
            backlog_levels: vec![(64, 27), (256, 7)],
            backlog_horizon: TimeDelta::from_millis(200),
            chaos_cells: 100,
            chaos_horizon: TimeDelta::from_millis(300),
        }
    }

    /// A miniature of every workload, for tests.
    #[must_use]
    pub fn smoke() -> Self {
        Size {
            fig2_loads: vec![0.6, 1.6],
            fig2_draws: 1,
            fig2_horizon: TimeDelta::from_secs(3),
            backlog_levels: vec![(16, 1), (32, 1)],
            backlog_horizon: TimeDelta::from_millis(120),
            chaos_cells: 10,
            chaos_horizon: TimeDelta::from_millis(100),
        }
    }
}

/// Policies of the Figure 2 sweep.
pub const FIG2_POLICIES: [&str; 4] = ["eua", "laedf", "ccedf", "edf"];
/// Policies of the overload backlog (`edf` is the control).
pub const BACKLOG_POLICIES: [&str; 3] = ["eua", "dasa", "edf"];
/// Policies chaos cells rotate through (`ChaosConfig::standard()`'s).
pub const CHAOS_POLICIES: [&str; 4] = ["eua", "dasa", "edf", "llf"];

/// Master seed of the chaos universe addresses: the standard campaign's.
pub const CHAOS_UNIVERSE_SEED: u64 = 1;

/// One simulation run of a sweep workload.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The policy's registry name.
    pub policy: &'static str,
    /// Tasks and arrival patterns (shared by the runs of one draw).
    pub workload: Rc<Workload>,
    /// Simulated horizon.
    pub horizon: TimeDelta,
    /// Engine seed (demand sampling).
    pub seed: u64,
}

#[derive(Debug, Clone)]
enum Units {
    Sim(Vec<SimRun>),
    Chaos {
        config: ChaosConfig,
        /// Master seed of the universe addresses (fixed, see
        /// [`CHAOS_UNIVERSE_SEED`]).
        universe_seed: u64,
        cells: Vec<CellPlan>,
    },
}

/// A workload's inputs for one pass, built from the seed.
#[derive(Debug, Clone)]
pub struct Batch {
    platform: Platform,
    units: Units,
}

/// What one unit (run or cell) produced.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// The run's metrics.
    pub metrics: Metrics,
    /// Decisions taken, when the mode could see them.
    pub decisions: Option<u64>,
    /// Faults injected.
    pub faults: FaultStats,
    /// Audit errors the fault plan does not explain (chaos only).
    pub audit_errors: u64,
    /// Whether the cell's degradation grade is `collapsed` (chaos only;
    /// a scheduling outcome, not a failure).
    pub collapsed: bool,
}

/// How a unit runs.
#[derive(Debug)]
pub enum Mode<'a> {
    /// The policy as the registry builds it.
    Plain,
    /// Wrapped in [`Counted`] to count decisions.
    Counted,
    /// Wrapped in [`Traced`], filling the stats.
    Traced(&'a mut LayerStats),
}

/// SplitMix64 finalizer.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `simulate_backlog` task shape: `n` tasks share a 40 ms window
/// with staggered phases and aggregate load 2.0, so about `n` jobs stay
/// pending at every decision. The seed draws each task's utility and
/// phase jitter.
///
/// # Errors
///
/// Task or pattern construction failures.
pub fn backlog_workload(n: usize, seed: u64) -> Result<Workload, String> {
    let window = TimeDelta::from_millis(40);
    // Load 2.0 at f_max = 100 MHz: n jobs per window, each 2P/n of work.
    let cycles = (2 * window.as_micros() * 100) as f64 / n as f64;
    let slot = window.as_micros() / n as u64;
    let mut tasks = Vec::with_capacity(n);
    let mut patterns = Vec::with_capacity(n);
    for i in 0..n {
        let r = mix(seed, i as u64);
        let utility = 1.0 + (r % 7) as f64;
        let phase = TimeDelta::from_micros(slot * i as u64 + (r >> 32) % (slot / 2).max(1));
        let task = Task::new(
            format!("b{i}"),
            Tuf::step(utility, window).map_err(|e| e.to_string())?,
            UamSpec::new(1, window).map_err(|e| e.to_string())?,
            DemandModel::deterministic(cycles).map_err(|e| e.to_string())?,
            Assurance::new(1.0, 0.5).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        tasks.push(task);
        patterns
            .push(ArrivalPattern::periodic_with_phase(window, phase).map_err(|e| e.to_string())?);
    }
    Ok(Workload {
        tasks: TaskSet::new(tasks).map_err(|e| e.to_string())?,
        patterns,
    })
}

impl Batch {
    /// Builds `kind`'s inputs for `seed` at `size`.
    ///
    /// # Errors
    ///
    /// Workload synthesis failures.
    pub fn build(kind: WorkloadKind, seed: u64, size: &Size) -> Result<Batch, String> {
        let platform = Platform::powernow(EnergySetting::e1());
        let units = match kind {
            WorkloadKind::Fig2Sweep => {
                let mut runs = Vec::new();
                for (li, &load) in size.fig2_loads.iter().enumerate() {
                    for draw in 0..u64::from(size.fig2_draws) {
                        let key = mix(seed, (li as u64) << 32 | draw);
                        let workload = fig2_workload(load, key, platform.f_max())
                            .map_err(|e| format!("fig2 workload at load {load}: {e}"))?;
                        let workload = Rc::new(workload);
                        for policy in FIG2_POLICIES {
                            runs.push(SimRun {
                                policy,
                                workload: Rc::clone(&workload),
                                horizon: size.fig2_horizon,
                                seed: mix(key, 1),
                            });
                        }
                    }
                }
                Units::Sim(runs)
            }
            WorkloadKind::OverloadBacklog => {
                let mut runs = Vec::new();
                for &(n, instances) in &size.backlog_levels {
                    for k in 0..u64::from(instances) {
                        let key = mix(seed, (n as u64) << 32 | k);
                        let workload = Rc::new(backlog_workload(n, key)?);
                        for policy in BACKLOG_POLICIES {
                            runs.push(SimRun {
                                policy,
                                workload: Rc::clone(&workload),
                                horizon: size.backlog_horizon,
                                seed: mix(key, 1),
                            });
                        }
                    }
                }
                Units::Sim(runs)
            }
            WorkloadKind::ChaosAudited => {
                let config = ChaosConfig {
                    master_seed: seed,
                    cells: size.chaos_cells,
                    horizon: size.chaos_horizon,
                    jobs: 1,
                    policies: CHAOS_POLICIES.iter().map(|p| (*p).to_string()).collect(),
                    audit: true,
                };
                // Cell cost is heavy-tailed and set by the scenario and
                // its fault plan, so every seed runs the same cells:
                // `plan_cell` of the fixed universe seed, with families
                // and policies stratified over the cell index. The seed
                // draws each cell's run seed (arrival draws, demands,
                // fault noise).
                let fixed = ChaosConfig {
                    master_seed: CHAOS_UNIVERSE_SEED,
                    ..config.clone()
                };
                let families = UniverseFamily::ALL.len() as u32;
                let cells = (0..config.cells)
                    .map(|i| {
                        let mut plan = plan_cell(&fixed, i);
                        plan.family = UniverseFamily::ALL[(i % families) as usize];
                        plan.policy = config.policies
                            [((i / families) as usize) % config.policies.len()]
                        .clone();
                        plan.run_seed = mix(seed, u64::from(i));
                        plan
                    })
                    .collect();
                Units::Chaos {
                    config,
                    universe_seed: CHAOS_UNIVERSE_SEED,
                    cells,
                }
            }
        };
        Ok(Batch { platform, units })
    }

    /// Units in one pass.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.units {
            Units::Sim(runs) => runs.len(),
            Units::Chaos { cells, .. } => cells.len(),
        }
    }

    /// Whether the pass is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps only the first `len` units.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.units {
            Units::Sim(runs) => runs.truncate(len),
            Units::Chaos { cells, .. } => cells.truncate(len),
        }
    }

    /// The sweep runs (empty for chaos).
    #[must_use]
    pub fn sim_runs(&self) -> &[SimRun] {
        match &self.units {
            Units::Sim(runs) => runs,
            Units::Chaos { .. } => &[],
        }
    }

    /// The policy unit `i` runs.
    #[must_use]
    pub fn policy(&self, i: usize) -> &str {
        match &self.units {
            Units::Sim(runs) => runs[i].policy,
            Units::Chaos { cells, .. } => &cells[i].policy,
        }
    }

    /// The platform every unit runs on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs unit `i`.
    ///
    /// # Errors
    ///
    /// Unknown policies, simulation errors, and (chaos) scenario drift or
    /// a missing certificate.
    pub fn run(&self, i: usize, mode: Mode<'_>) -> Result<UnitResult, String> {
        match &self.units {
            Units::Sim(runs) => self.run_sim(&runs[i], mode),
            Units::Chaos {
                config,
                universe_seed,
                cells,
            } => self.run_cell(config, *universe_seed, &cells[i], mode),
        }
    }

    fn run_sim(&self, run: &SimRun, mode: Mode<'_>) -> Result<UnitResult, String> {
        let policy =
            make_policy(run.policy).ok_or_else(|| format!("unknown policy {}", run.policy))?;
        let config = SimConfig::new(run.horizon);
        let w = &*run.workload;
        let simulate = |p: &mut dyn SchedulerPolicy| {
            Engine::run(&w.tasks, &w.patterns, &self.platform, p, &config, run.seed)
                .map_err(|e| format!("{} run failed: {e}", run.policy))
        };
        let (outcome, decisions) = match mode {
            Mode::Plain => {
                let mut policy = policy;
                (simulate(&mut *policy)?, None)
            }
            Mode::Counted => {
                let mut counted = Counted::new(policy);
                let outcome = simulate(&mut counted)?;
                (outcome, Some(counted.decisions))
            }
            Mode::Traced(stats) => {
                trace_arrivals(&w.patterns, run.horizon, run.seed, stats);
                let mut traced = Traced::new(policy, &mut *stats, run.policy == "eua");
                let start = Instant::now();
                let outcome = simulate(&mut traced);
                let ns = ns_since(start);
                let outcome = outcome?;
                stats.run_ns += ns;
                stats.runs += 1;
                stats.jobs_released += outcome.metrics.jobs_arrived();
                stats.preemptions += outcome.metrics.preemptions;
                stats.faults_injected += faults_injected(&outcome.faults);
                (outcome, None)
            }
        };
        Ok(UnitResult {
            metrics: outcome.metrics,
            decisions,
            faults: outcome.faults,
            audit_errors: 0,
            collapsed: false,
        })
    }

    /// Every step of the chaos harness's cell executor, from public
    /// functions: universe generation, the `.scn` round trip, the
    /// certified faulted run, certificate render, audit, and grading.
    fn run_cell(
        &self,
        config: &ChaosConfig,
        universe_seed: u64,
        plan: &CellPlan,
        mode: Mode<'_>,
    ) -> Result<UnitResult, String> {
        let mut stats = match mode {
            Mode::Traced(stats) => Some(stats),
            Mode::Plain | Mode::Counted => None,
        };
        let t = Instant::now();
        let scenario = plan
            .family
            .generate(plan.universe_cell, universe_seed, self.platform.f_max())
            .map_err(|e| format!("universe generation failed: {e}"))?;
        let universe_ns = ns_since(t);

        let t = Instant::now();
        let table = FrequencyTable::powernow_k6();
        let spec = ScenarioSpec::from_workload(
            &scenario.name,
            &scenario.workload,
            &table,
            EnergySpec::e1(),
        )?;
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered).map_err(|e| format!("render drift: {e}"))?;
        if reparsed != spec || reparsed.render() != rendered {
            return Err("render drift: parse(render(spec)) != spec".into());
        }
        let workload = reparsed.to_workload()?;
        let scenario_ns = ns_since(t);

        let policy =
            make_policy(&plan.policy).ok_or_else(|| format!("unknown policy {}", plan.policy))?;
        let certified = SimConfig::new(config.horizon).with_certificate();
        let simulate =
            |p: &mut dyn SchedulerPolicy, config: &SimConfig| -> Result<Outcome, String> {
                Engine::run_with_faults(
                    &workload.tasks,
                    &workload.patterns,
                    &self.platform,
                    p,
                    config,
                    plan.run_seed,
                    &plan.faults,
                )
                .map_err(|e| format!("simulation failed: {e}"))
            };

        let (outcome, report, cert_events) = match stats.as_deref_mut() {
            None => {
                let mut policy = policy;
                let outcome = simulate(&mut *policy, &certified)?;
                let cert = outcome
                    .certificate
                    .as_ref()
                    .ok_or("no certificate recorded")?;
                let report = eua_audit::audit_text(&scenario.name, &cert.render());
                let events = cert.events.len() as u64;
                (outcome, report, events)
            }
            Some(stats) => {
                stats.universe_ns += universe_ns;
                stats.scenario_ns += scenario_ns;
                stats.cells += 1;
                trace_arrivals(&workload.patterns, config.horizon, plan.run_seed, stats);
                let eua = plan.policy == "eua";
                // The same traced run without the certificate: the
                // difference is what recording costs.
                let mut scratch = LayerStats::default();
                let mut uncertified = Traced::new(
                    make_policy(&plan.policy).ok_or("unknown policy")?,
                    &mut scratch,
                    eua,
                );
                let t = Instant::now();
                simulate(&mut uncertified, &SimConfig::new(config.horizon))?;
                let plain_ns = ns_since(t).saturating_sub(scratch.shadow_ns);

                let shadow_before = stats.shadow_ns;
                let mut traced = Traced::new(policy, &mut *stats, eua);
                let t = Instant::now();
                let outcome = simulate(&mut traced, &certified)?;
                let run_ns = ns_since(t);
                stats.run_ns += run_ns;
                stats.runs += 1;
                let cert_ns = run_ns.saturating_sub(stats.shadow_ns - shadow_before);
                stats.record_ns += cert_ns as f64 - plain_ns as f64;
                stats.jobs_released += outcome.metrics.jobs_arrived();
                stats.preemptions += outcome.metrics.preemptions;
                stats.faults_injected += faults_injected(&outcome.faults);

                let cert = outcome
                    .certificate
                    .as_ref()
                    .ok_or("no certificate recorded")?;
                let t = Instant::now();
                let text = cert.render();
                stats.render_ns += ns_since(t);
                stats.cert_bytes += text.len() as u64;
                let t = Instant::now();
                let parsed = RunCertificate::parse(&text);
                stats.parse_ns += ns_since(t);
                let parsed = parsed.map_err(|e| format!("certificate does not parse: {e}"))?;
                let t = Instant::now();
                let mut report = eua_audit::audit(&parsed);
                stats.audit_ns += ns_since(t);
                stats.audit_events += parsed.events.len() as u64;
                report.scenario.clone_from(&scenario.name);
                let events = cert.events.len() as u64;
                (outcome, report, events)
            }
        };
        let audit_errors = unexpected_audit_errors(&report, &plan.faults);
        if let Some(stats) = stats {
            stats.unexpected_errors += audit_errors;
        }
        let grade =
            classify_degradation(&outcome.metrics, &workload.tasks, DEFAULT_COLLAPSE_FRACTION)
                .overall;
        Ok(UnitResult {
            metrics: outcome.metrics,
            decisions: Some(cert_events),
            faults: outcome.faults,
            audit_errors,
            collapsed: grade == DegradationClass::Collapsed,
        })
    }
}

/// Times arrival generation exactly as `Engine::run_with_faults` does it
/// (one `SmallRng` from the run seed, patterns in task order).
fn trace_arrivals(
    patterns: &[ArrivalPattern],
    horizon: TimeDelta,
    seed: u64,
    stats: &mut LayerStats,
) {
    let t = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let arrivals: usize = patterns
        .iter()
        .map(|p| std::hint::black_box(p.generate(horizon, &mut rng)).len())
        .sum();
    stats.uam_ns += ns_since(t);
    stats.arrivals += arrivals as u64;
}

/// Total faults a run injected.
#[must_use]
pub fn faults_injected(f: &FaultStats) -> u64 {
    f.injected_arrivals
        + f.perturbed_demands
        + f.degraded_remaps
        + f.stuck_dispatches
        + f.latency_switches
        + f.costly_aborts
}
