//! The fault-intensity × policy robustness sweep behind the
//! `robustness` binary: how gracefully does each policy's UER degrade
//! when the declared UAM/demand/DVS assumptions are violated?
//!
//! Four fault families (one [`FaultPlan`] shape each) are swept over an
//! intensity grid; at intensity `0.0` every family degenerates to
//! [`FaultPlan::none`], so the leftmost point of every curve is the
//! unfaulted engine bit-for-bit. Each `(family, intensity, policy,
//! seed)` cell is an independent deterministic simulation fanned out
//! over the `eua_sim::pool` worker pool, so the emitted report is
//! byte-identical for any `--jobs` count.

use eua_core::make_policy;
use eua_platform::TimeDelta;
use eua_sim::json::Json;
use eua_sim::{
    classify_degradation, map_parallel, DegradationClass, Engine, FaultPlan, Metrics, Platform,
    PoolError, SimConfig, SimError, DEFAULT_COLLAPSE_FRACTION,
};
use eua_workload::{fig2_workload, Workload};

/// The fixed workload seed (arrival patterns and declared statistics),
/// shared with the figure binaries; run seeds vary per replication.
pub const WORKLOAD_SEED: u64 = 42;

/// One injectable fault family of the sweep (see DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// UAM violations: burst arrivals beyond the declared `⟨a, P⟩`.
    UamBurst,
    /// Demand mis-estimation: true cycle demands exceed the declared
    /// statistics the Chebyshev budget was computed from.
    DemandMis,
    /// DVS imperfections: a degraded frequency set plus switch latency.
    DvsDegraded,
    /// Abort-cost overruns plus arrival clock jitter.
    AbortJitter,
}

impl FaultFamily {
    /// All families, in report order.
    pub const ALL: [FaultFamily; 4] = [
        FaultFamily::UamBurst,
        FaultFamily::DemandMis,
        FaultFamily::DvsDegraded,
        FaultFamily::AbortJitter,
    ];

    /// A stable kebab-case key for reports.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            FaultFamily::UamBurst => "uam-burst",
            FaultFamily::DemandMis => "demand-mis",
            FaultFamily::DvsDegraded => "dvs-degraded",
            FaultFamily::AbortJitter => "abort-jitter",
        }
    }

    /// The family's [`FaultPlan`] at `intensity ∈ [0, 1]`. Intensity
    /// `0.0` always returns exactly [`FaultPlan::none`] — the sweep's
    /// zero-fault baseline is the unfaulted engine, not a faulted
    /// engine with zero-magnitude faults.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]` or non-finite.
    #[must_use]
    pub fn plan_at(self, intensity: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        self.apply_at(&mut plan, intensity);
        plan
    }

    /// Writes the family's fault shape at `intensity ∈ [0, 1]` into an
    /// existing plan, leaving the other families' fields untouched.
    /// This is the composable form [`plan_at`](Self::plan_at) wraps:
    /// the chaos campaign stacks several families onto one plan, each
    /// at its own sampled intensity. Intensity `0.0` writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]` or non-finite.
    pub fn apply_at(self, plan: &mut FaultPlan, intensity: f64) {
        assert!(
            intensity.is_finite() && (0.0..=1.0).contains(&intensity),
            "fault intensity must be within [0, 1]"
        );
        if intensity == 0.0 {
            return;
        }
        match self {
            FaultFamily::UamBurst => {
                // 1..=4 extra arrivals per declared window, every window.
                plan.uam.extra_per_window = (intensity * 4.0).round().max(1.0) as u32;
                plan.uam.every_n_windows = 1;
            }
            FaultFamily::DemandMis => {
                // True mean up to 2× the declared one, ±50% spread.
                plan.demand.mean_factor = 1.0 + intensity;
                plan.demand.spread = 0.5 * intensity;
            }
            FaultFamily::DvsDegraded => {
                // Drop the fastest frequencies of the PowerNow table
                // (keep 6 at the lightest intensity down to 1 — the
                // slowest — at full), and add relock latency.
                const POWERNOW_MHZ: [u64; 7] = [36, 55, 64, 73, 82, 91, 100];
                let keep = ((1.0 - intensity) * 6.0).round() as usize + 1;
                plan.dvs.degraded_mhz = Some(POWERNOW_MHZ[..keep].to_vec());
                plan.dvs.switch_latency_cycles = (intensity * 20_000.0).round() as u64;
            }
            FaultFamily::AbortJitter => {
                plan.timing.abort_cost = TimeDelta::from_micros((intensity * 500.0).round() as u64);
                plan.timing.arrival_jitter =
                    TimeDelta::from_micros((intensity * 2_000.0).round() as u64);
            }
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Simulated horizon per run.
    pub horizon: TimeDelta,
    /// Run seeds (fault schedules and demand noise vary per seed).
    pub seeds: Vec<u64>,
    /// Worker threads; `1` runs strictly sequentially.
    pub jobs: usize,
    /// System load the workload is scaled to.
    pub load: f64,
    /// The fault-intensity grid (must start at `0.0` for the baseline).
    pub intensities: Vec<f64>,
    /// Policies to sweep (`eua_core::make_policy` names).
    pub policies: Vec<String>,
    /// Record a decision certificate per cell (see
    /// [`RobustnessReport::certificates`]); off by default — certified
    /// runs carry every scheduling event, so the sweep output grows by
    /// orders of magnitude.
    pub certify: bool,
}

impl RobustnessConfig {
    fn policies() -> Vec<String> {
        ["eua", "dasa", "edf", "llf"]
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// The default evaluation configuration.
    #[must_use]
    pub fn standard() -> Self {
        RobustnessConfig {
            horizon: TimeDelta::from_secs(10),
            seeds: vec![11, 23, 47],
            jobs: 1,
            load: 0.8,
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            policies: Self::policies(),
            certify: false,
        }
    }

    /// A fast configuration for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        RobustnessConfig {
            horizon: TimeDelta::from_secs(2),
            seeds: vec![11],
            jobs: 1,
            load: 0.8,
            intensities: vec![0.0, 0.5, 1.0],
            policies: Self::policies(),
            certify: false,
        }
    }

    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// One aggregated `(family, intensity, policy)` point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// The fault family.
    pub family: FaultFamily,
    /// The fault intensity.
    pub intensity: f64,
    /// The policy's registry name.
    pub policy: String,
    /// Mean accrued utility across seeds.
    pub utility: f64,
    /// Mean energy across seeds.
    pub energy: f64,
    /// Mean per-run UER (accrued utility / energy).
    pub uer: f64,
    /// Mean utility ratio (accrued / ceiling).
    pub utility_ratio: f64,
    /// Seeds whose run met every task's `{ν, ρ}`.
    pub met: usize,
    /// Seeds that gracefully degraded (worst task below `ρ` but above
    /// the collapse threshold).
    pub degraded: usize,
    /// Seeds whose worst task collapsed — including seeds whose cell
    /// panicked (a panic is the worst possible degradation).
    pub collapsed: usize,
    /// Seeds whose cell panicked inside the worker pool. Panicked
    /// seeds contribute no metrics to the means; their labels are
    /// collected in [`RobustnessReport::panic_cells`].
    pub panics: usize,
}

/// The whole sweep's output.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// The configuration that produced it.
    pub config: RobustnessConfig,
    /// All points, ordered by (family, intensity, policy).
    pub points: Vec<RobustnessPoint>,
    /// Rendered `eua-certificate/2` documents, one `(file name, text)`
    /// pair per `(family, intensity, policy, seed)` cell in grid order;
    /// empty unless [`RobustnessConfig::certify`] was set. The sweep
    /// report itself ([`Self::to_json`]) never embeds them — callers
    /// write them next to the report for `eua-audit check`.
    pub certificates: Vec<(String, String)>,
    /// Labels of grid cells that panicked, in grid order, with the
    /// panic message appended (`"<label>: <message>"`). A panicking
    /// cell no longer aborts the sweep — it is graded `collapsed` in
    /// its point and surfaced here so chaos campaigns can harvest it
    /// as a shrink candidate.
    pub panic_cells: Vec<String>,
}

/// Runs the full sweep: every `(family, intensity, policy, seed)` cell
/// through the worker pool, aggregated per `(family, intensity,
/// policy)` in deterministic order.
///
/// # Errors
///
/// Propagates workload-synthesis and simulation errors. A *panicking*
/// cell does not abort the sweep: the panic settles in its pool slot
/// (see [`map_parallel`]), the seed is graded `collapsed`, and
/// the labelled message lands in [`RobustnessReport::panic_cells`].
pub fn run_robustness(config: &RobustnessConfig) -> Result<RobustnessReport, SimError> {
    let platform = Platform::powernow(eua_platform::EnergySetting::e1());
    let workload: Workload =
        fig2_workload(config.load, WORKLOAD_SEED, platform.f_max()).map_err(|e| {
            SimError::InvalidFaultPlan {
                reason: format!("workload synthesis failed: {e}"),
            }
        })?;
    let sim_config = if config.certify {
        SimConfig::new(config.horizon).with_certificate()
    } else {
        SimConfig::new(config.horizon)
    };

    // Flatten the whole grid so the pool keeps every worker busy even
    // when one policy is far slower than the rest.
    struct GridItem {
        family: FaultFamily,
        intensity: f64,
        policy_idx: usize,
        seed: u64,
    }
    let mut items: Vec<GridItem> = Vec::new();
    let mut cell_names: Vec<String> = Vec::new();
    for &family in &FaultFamily::ALL {
        for &intensity in &config.intensities {
            for policy_idx in 0..config.policies.len() {
                for &seed in &config.seeds {
                    cell_names.push(format!(
                        "{}-i{}-{}-s{}.json",
                        family.key(),
                        intensity,
                        config.policies[policy_idx],
                        seed
                    ));
                    items.push(GridItem {
                        family,
                        intensity,
                        policy_idx,
                        seed,
                    });
                }
            }
        }
    }

    type CellResult = Result<(Metrics, Option<String>), SimError>;
    let runs: Vec<Result<CellResult, PoolError>> = map_parallel(
        config.jobs,
        items,
        |_, item| {
            format!(
                "family {}, intensity {}, policy {}, seed {}",
                item.family.key(),
                item.intensity,
                config.policies[item.policy_idx],
                item.seed
            )
        },
        |_, item| {
            let name = &config.policies[item.policy_idx];
            let mut policy = make_policy(name).unwrap_or_else(|| panic!("unknown policy {name}"));
            let plan = item.family.plan_at(item.intensity);
            Engine::run_with_faults(
                &workload.tasks,
                &workload.patterns,
                &platform,
                &mut policy,
                &sim_config,
                item.seed,
                &plan,
            )
            .map(|outcome| {
                let cert = outcome.certificate.as_ref().map(|c| c.render());
                (outcome.metrics, cert)
            })
        },
    );

    // Split certificates and settled panics out in grid order so the
    // chunked aggregation below sees plain per-seed outcomes.
    enum CellRun {
        Done(Metrics),
        Panicked,
    }
    let mut certificates = Vec::new();
    let mut panic_cells = Vec::new();
    let mut cell_runs: Vec<Result<CellRun, SimError>> = Vec::with_capacity(runs.len());
    for (name, run) in cell_names.iter().zip(runs) {
        match run {
            Ok(Ok((metrics, cert))) => {
                if let Some(text) = cert {
                    certificates.push((name.clone(), text));
                }
                cell_runs.push(Ok(CellRun::Done(metrics)));
            }
            Ok(Err(e)) => cell_runs.push(Err(e)),
            Err(PoolError::WorkerPanic { label, message }) => {
                panic_cells.push(format!("{label}: {message}"));
                cell_runs.push(Ok(CellRun::Panicked));
            }
            Err(other) => return Err(other.into()),
        }
    }

    let per_point = config.seeds.len();
    let mut points = Vec::new();
    // Consume the runs by value, a chunk per grid point — moving each
    // outcome out avoids cloning whole `Result`s per run.
    let mut remaining = cell_runs.into_iter();
    for &family in &FaultFamily::ALL {
        for &intensity in &config.intensities {
            for policy in &config.policies {
                let mut metrics = Vec::with_capacity(per_point);
                let mut panics = 0usize;
                for run in remaining.by_ref().take(per_point) {
                    match run? {
                        CellRun::Done(m) => metrics.push(m),
                        CellRun::Panicked => panics += 1,
                    }
                }
                points.push(aggregate(
                    family, intensity, policy, &metrics, panics, &workload,
                ));
            }
        }
    }
    Ok(RobustnessReport {
        config: config.clone(),
        points,
        certificates,
        panic_cells,
    })
}

fn aggregate(
    family: FaultFamily,
    intensity: f64,
    policy: &str,
    metrics: &[Metrics],
    panics: usize,
    workload: &Workload,
) -> RobustnessPoint {
    let n = metrics.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Metrics) -> f64| metrics.iter().map(f).sum::<f64>() / n;
    // A panicked seed is the worst degradation a cell can exhibit.
    let (mut met, mut degraded, mut collapsed) = (0, 0, panics);
    for m in metrics {
        match classify_degradation(m, &workload.tasks, DEFAULT_COLLAPSE_FRACTION).overall {
            DegradationClass::Met => met += 1,
            DegradationClass::Degraded => degraded += 1,
            DegradationClass::Collapsed => collapsed += 1,
        }
    }
    RobustnessPoint {
        family,
        intensity,
        policy: policy.to_string(),
        utility: mean(&|m| m.total_utility),
        energy: mean(&|m| m.energy),
        uer: mean(&|m| {
            if m.energy > 0.0 {
                m.total_utility / m.energy
            } else {
                0.0
            }
        }),
        utility_ratio: mean(&Metrics::utility_ratio),
        met,
        degraded,
        collapsed,
        panics,
    }
}

impl RobustnessReport {
    /// Serializes the report as the deterministic `results/robustness.json`
    /// document (see [`eua_sim::json`]; re-parsing and re-rendering the
    /// output reproduces it byte-for-byte).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut families = Vec::new();
        for &family in &FaultFamily::ALL {
            let mut points_json = Vec::new();
            for &intensity in &self.config.intensities {
                let mut policies_json = Vec::new();
                for point in self
                    .points
                    .iter()
                    .filter(|p| p.family == family && p.intensity == intensity)
                {
                    policies_json.push(Json::Obj(vec![
                        ("policy".into(), Json::Str(point.policy.clone())),
                        ("utility".into(), Json::num(point.utility)),
                        ("energy".into(), Json::num(point.energy)),
                        ("uer".into(), Json::num(point.uer)),
                        ("utility_ratio".into(), Json::num(point.utility_ratio)),
                        ("met".into(), Json::uint(point.met as u64)),
                        ("degraded".into(), Json::uint(point.degraded as u64)),
                        ("collapsed".into(), Json::uint(point.collapsed as u64)),
                        ("panics".into(), Json::uint(point.panics as u64)),
                    ]));
                }
                points_json.push(Json::Obj(vec![
                    ("intensity".into(), Json::num(intensity)),
                    ("policies".into(), Json::Arr(policies_json)),
                ]));
            }
            families.push(Json::Obj(vec![
                ("family".into(), Json::Str(family.key().into())),
                ("points".into(), Json::Arr(points_json)),
            ]));
        }
        Json::Obj(vec![
            ("schema".into(), Json::Str("eua-robustness/2".into())),
            ("load".into(), Json::num(self.config.load)),
            (
                "horizon_us".into(),
                Json::uint(self.config.horizon.as_micros()),
            ),
            (
                "seeds".into(),
                Json::Arr(self.config.seeds.iter().map(|&s| Json::uint(s)).collect()),
            ),
            (
                "panic_cells".into(),
                Json::Arr(
                    self.panic_cells
                        .iter()
                        .map(|c| Json::Str(c.clone()))
                        .collect(),
                ),
            ),
            ("families".into(), Json::Arr(families)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_plan_is_exactly_none() {
        for family in FaultFamily::ALL {
            assert!(family.plan_at(0.0).is_none(), "{}", family.key());
            assert!(!family.plan_at(1.0).is_none(), "{}", family.key());
            family
                .plan_at(1.0)
                .validate()
                .expect("full intensity valid");
        }
    }

    #[test]
    #[should_panic(expected = "fault intensity")]
    fn out_of_range_intensity_rejected() {
        let _ = FaultFamily::UamBurst.plan_at(1.5);
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let mut config = RobustnessConfig::quick();
        config.policies = vec!["eua".into(), "edf".into()];
        config.intensities = vec![0.0, 1.0];
        let sequential = run_robustness(&config).expect("sweep");
        let bytes = sequential.to_json().render();
        for jobs in [2, 4] {
            let parallel = run_robustness(&config.clone().with_jobs(jobs)).expect("sweep");
            assert_eq!(parallel.points, sequential.points, "jobs = {jobs}");
            assert_eq!(parallel.to_json().render(), bytes, "jobs = {jobs}");
        }
    }

    #[test]
    fn zero_intensity_points_match_the_unfaulted_engine() {
        // The intensity-0 column must be bit-identical to Engine::run —
        // the acceptance criterion for the whole fault layer.
        let mut config = RobustnessConfig::quick();
        config.policies = vec!["eua".into(), "dasa".into(), "edf".into()];
        config.intensities = vec![0.0];
        let report = run_robustness(&config).expect("sweep");
        let platform = Platform::powernow(eua_platform::EnergySetting::e1());
        let workload = fig2_workload(config.load, WORKLOAD_SEED, platform.f_max()).unwrap();
        let sim_config = SimConfig::new(config.horizon);
        for (pi, name) in config.policies.iter().enumerate() {
            let mut policy = make_policy(name).unwrap();
            let baseline = Engine::run(
                &workload.tasks,
                &workload.patterns,
                &platform,
                &mut policy,
                &sim_config,
                config.seeds[0],
            )
            .unwrap();
            let point = &report.points[pi];
            assert_eq!(point.policy, *name);
            assert!(
                point.utility == baseline.metrics.total_utility
                    && point.energy == baseline.metrics.energy,
                "zero-fault point must be bit-identical for {name}"
            );
        }
    }

    #[test]
    fn certified_sweep_cells_audit_clean() {
        // Every certificate a certified sweep emits must pass the
        // offline translation validator: the sweep's hot path is the
        // same engine the audit crate re-checks event by event.
        let mut config = RobustnessConfig::quick();
        config.policies = vec!["eua".into()];
        config.intensities = vec![0.0];
        config.certify = true;
        let report = run_robustness(&config).expect("sweep");
        assert_eq!(
            report.certificates.len(),
            FaultFamily::ALL.len(),
            "one certificate per grid cell"
        );
        for (name, text) in &report.certificates {
            let audit = eua_audit::audit_text(name, text);
            assert!(
                !audit.has_errors(),
                "{name} failed audit:\n{}",
                audit.render_text()
            );
        }
        // Without the flag the sweep stays certificate-free.
        config.certify = false;
        let plain = run_robustness(&config).expect("sweep");
        assert!(plain.certificates.is_empty());
        assert_eq!(
            plain.points, report.points,
            "certifying never perturbs metrics"
        );
    }

    #[test]
    fn panicking_cells_settle_into_graded_points() {
        // A policy name the registry does not know panics inside the
        // worker (`make_policy(..).unwrap_or_else(|| panic!(..))`).
        // The sweep must not abort: the cell settles, grades as
        // collapsed-with-panic, and its label lands in `panic_cells`.
        let mut config = RobustnessConfig::quick();
        config.policies = vec!["eua".into(), "no-such-policy".into()];
        config.intensities = vec![0.0];
        let report = run_robustness(&config).expect("sweep must not abort on a panicking cell");
        let expected = FaultFamily::ALL.len() * config.seeds.len();
        assert_eq!(report.panic_cells.len(), expected);
        assert!(report
            .panic_cells
            .iter()
            .all(|c| c.contains("no-such-policy")));
        for point in &report.points {
            if point.policy == "no-such-policy" {
                assert_eq!(point.panics, config.seeds.len());
                assert_eq!(point.collapsed, config.seeds.len());
                assert_eq!(point.met + point.degraded, 0);
            } else {
                assert_eq!(point.panics, 0, "healthy policy must not panic");
            }
        }
        // Panic surfacing is deterministic: byte-identical across job
        // counts, and the report still round-trips.
        let bytes = report.to_json().render();
        let parallel = run_robustness(&config.clone().with_jobs(4)).expect("sweep");
        assert_eq!(parallel.to_json().render(), bytes);
        let parsed = eua_sim::json::parse(&bytes).expect("report must parse");
        assert_eq!(parsed.render(), bytes);
    }

    #[test]
    fn report_json_round_trips() {
        let mut config = RobustnessConfig::quick();
        config.policies = vec!["eua".into()];
        config.intensities = vec![0.0, 1.0];
        let report = run_robustness(&config).expect("sweep");
        let text = report.to_json().render();
        let parsed = eua_sim::json::parse(&text).expect("report must parse");
        assert_eq!(parsed.render(), text, "byte-exact round-trip");
    }
}
