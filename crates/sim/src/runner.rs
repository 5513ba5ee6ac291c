//! Multi-seed replication: run the same configuration under several seeds
//! and aggregate the metrics, as the paper's plotted points do.

use eua_uam::generator::ArrivalPattern;

use crate::engine::{Engine, SimConfig};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::platform_view::Platform;
use crate::policy::SchedulerPolicy;
use crate::pool::map_parallel;
use crate::task::TaskSet;

/// One replication's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// The seed that produced it.
    pub seed: u64,
    /// Its metrics.
    pub metrics: Metrics,
}

/// Aggregated replications of one `(workload, platform, policy)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The per-seed runs.
    pub runs: Vec<Replication>,
}

impl Summary {
    /// Mean of an arbitrary metric across runs.
    pub fn mean_by(&self, f: impl Fn(&Metrics) -> f64) -> f64 {
        self.runs.iter().map(|r| f(&r.metrics)).sum::<f64>() / self.runs.len() as f64
    }

    /// Mean accrued utility.
    #[must_use]
    pub fn mean_utility(&self) -> f64 {
        self.mean_by(|m| m.total_utility)
    }

    /// Mean energy consumption.
    #[must_use]
    pub fn mean_energy(&self) -> f64 {
        self.mean_by(|m| m.energy)
    }
}

/// Runs a fresh policy from `policy_factory` under every seed in `seeds`,
/// fanned out over [`map_parallel`] with `jobs` workers (`1` runs
/// sequentially), and collects the metrics in seed order.
///
/// Each run is an independent deterministic simulation, so the returned
/// [`Summary`] is bit-identical for every `jobs` count. Policies are
/// neither `Send` nor `Sync` by contract, so each one is built on the
/// thread that runs it; the factory must be `Sync`.
///
/// # Errors
///
/// Returns [`SimError::ZeroReplications`] for an empty seed list, else
/// the first failure in seed order: a run's own error, or
/// [`SimError::Pool`] if its run panicked.
pub fn replicate<P, F>(
    tasks: &TaskSet,
    patterns: &[ArrivalPattern],
    platform: &Platform,
    policy_factory: F,
    config: &SimConfig,
    seeds: &[u64],
    jobs: usize,
) -> Result<Summary, SimError>
where
    P: SchedulerPolicy,
    F: Fn() -> P + Sync,
{
    if seeds.is_empty() {
        return Err(SimError::ZeroReplications);
    }
    let runs = map_parallel(
        jobs,
        seeds.to_vec(),
        |_, seed| format!("seed {seed}"),
        |_, seed| {
            Engine::run(
                tasks,
                patterns,
                platform,
                &mut policy_factory(),
                config,
                seed,
            )
            .map(|outcome| Replication {
                seed,
                metrics: outcome.metrics,
            })
        },
    )
    .into_iter()
    .map(|slot| slot?)
    .collect::<Result<_, SimError>>()?;
    Ok(Summary { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, TimeDelta};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    use crate::policy::MaxSpeedEdf;
    use crate::pool::PoolError;
    use crate::task::Task;

    fn replicate_edf<P: SchedulerPolicy>(
        policy_factory: impl Fn() -> P + Sync,
        seeds: &[u64],
        jobs: usize,
    ) -> Result<Summary, SimError> {
        let window = TimeDelta::from_millis(10);
        let task = Task::new(
            "t",
            Tuf::step(5.0, window).unwrap(),
            UamSpec::new(2, window).unwrap(),
            DemandModel::normal(100_000.0, 100_000.0).unwrap(),
            Assurance::new(1.0, 0.9).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let patterns =
            vec![ArrivalPattern::random_burst(UamSpec::new(2, window).unwrap()).unwrap()];
        let platform = Platform::powernow(EnergySetting::e1());
        let config = SimConfig::new(TimeDelta::from_millis(300));
        replicate(
            &tasks,
            &patterns,
            &platform,
            policy_factory,
            &config,
            seeds,
            jobs,
        )
    }

    #[test]
    fn replicate_aggregates_all_seeds() {
        let summary = replicate_edf(MaxSpeedEdf::new, &[1, 2, 3, 4], 1).unwrap();
        assert_eq!(summary.runs.len(), 4);
        assert!(summary.mean_utility() > 0.0);
        assert!(summary.mean_energy() > 0.0);
        // Different seeds actually vary the workload.
        let first = summary.runs[0].metrics.total_utility;
        assert!(summary
            .runs
            .iter()
            .any(|r| r.metrics.total_utility != first));
    }

    #[test]
    fn empty_seed_list_rejected() {
        for jobs in [1, 4] {
            let err = replicate_edf(MaxSpeedEdf::new, &[], jobs).unwrap_err();
            assert_eq!(err, SimError::ZeroReplications, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_replication_is_bit_identical_to_sequential() {
        let seeds = [9u64, 1, 5, 3, 7, 2]; // deliberately unsorted
        let sequential = replicate_edf(MaxSpeedEdf::new, &seeds, 1).unwrap();
        for jobs in [2, 4, 16] {
            let parallel = replicate_edf(MaxSpeedEdf::new, &seeds, jobs).unwrap();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
            assert_eq!(
                parallel.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
                seeds.to_vec(),
                "run order must follow the seed list, jobs = {jobs}"
            );
        }
    }

    #[test]
    fn a_panicking_run_fails_with_its_seed_label() {
        let factory = || -> MaxSpeedEdf { panic!("factory boom") };
        for jobs in [1, 2] {
            let err = replicate_edf(factory, &[3, 4], jobs).unwrap_err();
            let SimError::Pool {
                source: PoolError::WorkerPanic { label, message },
            } = err
            else {
                panic!("expected a pool error, got {err:?}");
            };
            assert_eq!(
                (label.as_str(), message.as_str()),
                ("seed 3", "factory boom")
            );
        }
    }
}
