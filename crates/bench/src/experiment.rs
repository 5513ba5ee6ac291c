//! Shared sweep machinery: run `(workload, policy)` cells over several
//! seeds — sequentially or fanned out over the `eua_sim::pool` worker
//! pool — and aggregate.

use eua_core::make_policy;
use eua_platform::TimeDelta;
use eua_sim::{map_parallel, Engine, Metrics, Platform, SimConfig, Summary};
use eua_workload::Workload;

/// Sweep-wide configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Simulated horizon per run.
    pub horizon: TimeDelta,
    /// Seeds (one run per seed; arrival jitter and demand noise vary).
    pub seeds: Vec<u64>,
    /// Worker threads for cell/seed fan-out; `1` runs the cells one
    /// after another (see `eua_sim::resolve_jobs` for the `--jobs`
    /// resolution the binaries apply).
    pub jobs: usize,
}

impl ExperimentConfig {
    /// The default evaluation configuration: 20 simulated seconds × 3
    /// seeds — long enough that every Table 1 window (≤ 3 s) recurs
    /// several times.
    #[must_use]
    pub fn standard() -> Self {
        ExperimentConfig {
            horizon: TimeDelta::from_secs(20),
            seeds: vec![11, 23, 47],
            jobs: 1,
        }
    }

    /// A fast configuration for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            horizon: TimeDelta::from_secs(5),
            seeds: vec![11],
            jobs: 1,
        }
    }

    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

/// Resolves the worker-thread count from a binary's CLI arguments: the
/// value following a `--jobs` flag, else the hardware's available
/// parallelism.
#[must_use]
pub fn jobs_from_args(args: &[String]) -> usize {
    eua_sim::resolve_jobs(
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok()),
    )
}

/// The aggregated result of one `(workload, policy)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The policy's registry name.
    pub policy: String,
    /// Mean accrued utility across seeds.
    pub utility: f64,
    /// Mean energy across seeds.
    pub energy: f64,
    /// Mean fraction of arrived jobs completed.
    pub completion_rate: f64,
    /// Mean fraction of tasks whose `{ν, ρ}` assurance held.
    pub assurance_ok_rate: f64,
}

fn cell_from_summary(policy_name: &str, workload: &Workload, summary: &Summary) -> Cell {
    let completion_rate = summary.mean_by(|m| {
        let arrived = m.jobs_arrived();
        if arrived == 0 {
            0.0
        } else {
            m.jobs_completed() as f64 / arrived as f64
        }
    });
    let assurance_ok_rate = summary.mean_by(|m| {
        let mut ok = 0usize;
        let mut total = 0usize;
        for (i, tm) in m.per_task.iter().enumerate() {
            if let Some(rate) = tm.assurance_rate() {
                total += 1;
                let rho = workload.tasks.task(eua_sim::TaskId(i)).assurance().rho();
                if rate + 1e-12 >= rho {
                    ok += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    });
    Cell {
        policy: policy_name.to_string(),
        utility: summary.mean_utility(),
        energy: summary.mean_energy(),
        completion_rate,
        assurance_ok_rate,
    }
}

/// Runs every `(policy, seed)` pair of the cell block through the worker
/// pool (`config.jobs` threads; `1` = sequential) and aggregates one
/// [`Cell`] per policy, in the order given.
///
/// The flattened `(policy, seed)` item space keeps all workers busy even
/// when one policy is far slower than the rest; each simulation is
/// independent and deterministic, so the aggregation is bit-identical to
/// the sequential loop's.
///
/// # Panics
///
/// Panics on an unknown policy name or a simulation error — experiment
/// binaries treat both as fatal configuration mistakes.
#[must_use]
pub fn run_cells(
    policy_names: &[&str],
    workload: &Workload,
    platform: &Platform,
    config: &ExperimentConfig,
) -> Vec<Cell> {
    let sim_config = SimConfig::new(config.horizon);
    let items: Vec<(usize, u64)> = policy_names
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| config.seeds.iter().map(move |&seed| (pi, seed)))
        .collect();
    let metrics: Vec<Metrics> = map_parallel(
        config.jobs,
        items,
        |_, &(pi, seed)| format!("policy {}, seed {seed}", policy_names[pi]),
        |_, (pi, seed)| {
            let name = policy_names[pi];
            let mut policy = make_policy(name).unwrap_or_else(|| panic!("unknown policy {name}"));
            Engine::run(
                &workload.tasks,
                &workload.patterns,
                platform,
                &mut policy,
                &sim_config,
                seed,
            )
            .expect("simulation failed")
            .metrics
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()
    .unwrap_or_else(|e| panic!("parallel sweep failed: {e}"));
    metrics
        .chunks(config.seeds.len())
        .zip(policy_names)
        .map(|(chunk, name)| {
            let summary = Summary {
                runs: config
                    .seeds
                    .iter()
                    .zip(chunk)
                    .map(|(&seed, m)| eua_sim::Replication {
                        seed,
                        metrics: m.clone(),
                    })
                    .collect(),
            };
            cell_from_summary(name, workload, &summary)
        })
        .collect()
}

/// Runs `policy_name` (an `eua_core::make_policy` name) on `workload`
/// under every seed and aggregates. Single-policy form of [`run_cells`].
///
/// # Panics
///
/// Panics on an unknown policy name or a simulation error — experiment
/// binaries treat both as fatal configuration mistakes.
#[must_use]
pub fn run_cell(
    policy_name: &str,
    workload: &Workload,
    platform: &Platform,
    config: &ExperimentConfig,
) -> Cell {
    run_cells(&[policy_name], workload, platform, config)
        .pop()
        .unwrap_or_else(|| unreachable!("run_cells returns one cell per policy"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, Frequency};
    use eua_workload::fig2_workload;

    #[test]
    fn run_cell_produces_positive_numbers_underload() {
        let platform = Platform::powernow(EnergySetting::e1());
        let w = fig2_workload(0.4, 3, Frequency::from_mhz(100)).unwrap();
        let cfg = ExperimentConfig::quick();
        let cell = run_cell("eua", &w, &platform, &cfg);
        assert!(cell.utility > 0.0);
        assert!(cell.energy > 0.0);
        assert!(cell.completion_rate > 0.95, "rate {}", cell.completion_rate);
        assert!(cell.assurance_ok_rate > 0.9);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        let platform = Platform::powernow(EnergySetting::e1());
        let w = fig2_workload(0.4, 3, Frequency::from_mhz(100)).unwrap();
        let _ = run_cell("nope", &w, &platform, &ExperimentConfig::quick());
    }

    #[test]
    fn parallel_cells_match_sequential_cells() {
        let platform = Platform::powernow(EnergySetting::e1());
        let w = fig2_workload(0.8, 3, Frequency::from_mhz(100)).unwrap();
        let policies = ["eua", "edf", "dasa"];
        let mut sequential = ExperimentConfig::quick();
        sequential.seeds = vec![11, 23];
        let parallel = sequential.clone().with_jobs(4);
        let seq_cells: Vec<Cell> = policies
            .iter()
            .map(|p| run_cell(p, &w, &platform, &sequential))
            .collect();
        let par_cells = run_cells(&policies, &w, &platform, &parallel);
        assert_eq!(par_cells, seq_cells);
    }
}
