#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Cross-crate check of the sweep runner: `replicate` builds a fresh
//! policy per seed and fans the seeds out over the worker pool, so it
//! must be **bit-identical** to one policy value reused sequentially —
//! same metrics, same seed order — on a real paper workload, for any
//! worker count. That equivalence rests on `SchedulerPolicy::reset`
//! restoring a fresh state, which the last test checks for every
//! policy.

use eua::core::{available_policies, make_policy, BudgetedEua, Eua};
use eua::platform::{EnergySetting, TimeDelta};
use eua::sim::{
    replicate, Engine, Metrics, Platform, SchedulerPolicy, SimConfig, Summary, Task, TaskSet,
};
use eua::tuf::Tuf;
use eua::uam::demand::DemandModel;
use eua::uam::generator::ArrivalPattern;
use eua::uam::{Assurance, UamSpec};
use eua::workload::{fig2_workload, fig3_workload, Workload};

const SEEDS: [u64; 6] = [17, 2, 9, 41, 3, 28];

/// The sequential reference: one policy value, reset by the engine
/// before every seed.
fn reused_policy_runs(
    w: &Workload,
    platform: &Platform,
    policy: &mut dyn SchedulerPolicy,
    config: &SimConfig,
) -> Vec<(u64, Metrics)> {
    SEEDS
        .iter()
        .map(|&seed| {
            let outcome = Engine::run(&w.tasks, &w.patterns, platform, policy, config, seed)
                .expect("sequential run");
            (seed, outcome.metrics)
        })
        .collect()
}

fn seeded_metrics(summary: &Summary) -> Vec<(u64, Metrics)> {
    summary
        .runs
        .iter()
        .map(|r| (r.seed, r.metrics.clone()))
        .collect()
}

#[test]
fn parallel_replicate_is_bit_identical_on_fig2_workload() {
    let platform = Platform::powernow(EnergySetting::e1());
    let w = fig2_workload(0.8, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(2));
    let sequential = reused_policy_runs(&w, &platform, &mut Eua::new(), &config);

    for jobs in [1, 2, 3, 8] {
        let summary = replicate(
            &w.tasks,
            &w.patterns,
            &platform,
            Eua::new,
            &config,
            &SEEDS,
            jobs,
        )
        .expect("replicated run");
        assert_eq!(
            seeded_metrics(&summary),
            sequential,
            "jobs={jobs}: seed order and metrics must be bit-identical"
        );
    }
}

#[test]
fn parallel_replicate_is_bit_identical_on_bursty_workload() {
    // ⟨3, P⟩ random-burst arrivals exercise the stochastic generator paths.
    let platform = Platform::powernow(EnergySetting::e3());
    let w = fig3_workload(1.2, 3, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(1));
    let sequential = reused_policy_runs(&w, &platform, &mut Eua::new(), &config);

    let summary = replicate(
        &w.tasks,
        &w.patterns,
        &platform,
        Eua::new,
        &config,
        &SEEDS,
        4,
    )
    .expect("replicated run");
    assert_eq!(seeded_metrics(&summary), sequential);
}

/// One policy value reused across runs over alternating task sets,
/// platforms and seeds must give the metrics and certificate bytes of a
/// fresh policy per run, for every registered policy and for
/// `BudgetedEua`.
#[test]
fn reused_policy_matches_a_fresh_policy_for_every_policy() {
    // E1 and E3 give EUA*'s offline UER-optimal frequencies different
    // values (36 vs 64 MHz), so a table kept across runs shows.
    let platforms = [
        Platform::powernow(EnergySetting::e1()),
        Platform::powernow(EnergySetting::e3()),
    ];
    let f_max = platforms[0].f_max();
    let workloads = [
        fig2_workload(1.2, 42, f_max).expect("workload"),
        fig3_workload(0.6, 3, 7, f_max).expect("workload"),
    ];
    // (workload, platform, seed) per run, alternating both inputs.
    let schedule = [(0, 0, 17u64), (1, 1, 2), (0, 1, 9), (1, 0, 17)];
    let config = SimConfig::new(TimeDelta::from_millis(500)).with_certificate();
    let run = |policy: &mut dyn SchedulerPolicy, (w, p, seed): (usize, usize, u64)| {
        let (w, platform) = (&workloads[w], &platforms[p]);
        let outcome =
            Engine::run(&w.tasks, &w.patterns, platform, policy, &config, seed).expect("run");
        let cert = outcome.certificate.expect("certificate requested").render();
        (outcome.metrics, cert)
    };
    // A budget that runs out mid-run, so the budget-bound paths run too.
    let budget = run(&mut Eua::new(), schedule[0]).0.energy / 2.0;

    let make = |name: &str| -> Box<dyn SchedulerPolicy> {
        if name == "eua-budget" {
            Box::new(BudgetedEua::new(budget))
        } else {
            make_policy(name).expect("registered policy")
        }
    };

    for &name in available_policies().iter().chain(&["eua-budget"]) {
        let mut reused = make(name);
        for (i, &inputs) in schedule.iter().enumerate() {
            let fresh = run(make(name).as_mut(), inputs);
            assert!(
                run(reused.as_mut(), inputs) == fresh,
                "{name}: run {i} {inputs:?} differs from a fresh policy"
            );
        }
    }
}

/// Two periodic tasks, each with a linear TUF of the given height that
/// ends at its period and a deterministic demand.
fn pair(
    heights: [f64; 2],
    periods_ms: [u64; 2],
    cycles: [f64; 2],
) -> (TaskSet, Vec<ArrivalPattern>) {
    let periods = periods_ms.map(TimeDelta::from_millis);
    let tasks = (0..2)
        .map(|i| {
            Task::new(
                ["first", "second"][i],
                Tuf::linear(heights[i], periods[i]).expect("linear tuf"),
                UamSpec::periodic(periods[i]).expect("periodic uam"),
                DemandModel::deterministic(cycles[i]).expect("demand"),
                Assurance::new(0.1, 0.5).expect("assurance"),
            )
            .expect("task")
        })
        .collect();
    let patterns = periods
        .iter()
        .map(|&p| ArrivalPattern::periodic(p).expect("pattern"))
        .collect();
    (TaskSet::new(tasks).expect("task set"), patterns)
}

/// A policy reused after a run that ended on its first decision must
/// keep nothing of that run or its task set. The first run is an
/// overload: two tasks periodic at 10 ms with 600,000 cycles each, 12 ms
/// of work per 10 ms at E1's top speed. The second run has as many tasks,
/// with swapped TUF heights, so per-job state that `reset` left behind
/// would answer it with the first run's utilities; its second task has a
/// 20 ms window and 900,000 cycles, so its critical time falls later and
/// Algorithm 2 defers part of its work against a demand rate that differs
/// from the first run's, which per-task state left behind (such as the
/// look-ahead's task constants, or `edf-static`'s frequency and ccEDF's
/// rates) would get wrong.
#[test]
fn reused_policy_forgets_the_task_set_of_a_run_cut_after_one_decision() {
    let platform = Platform::powernow(EnergySetting::e1());
    let run = |policy: &mut dyn SchedulerPolicy,
               (tasks, patterns): &(TaskSet, Vec<ArrivalPattern>),
               horizon: TimeDelta| {
        let config = SimConfig::new(horizon).with_certificate();
        let outcome = Engine::run(tasks, patterns, &platform, policy, &config, 1).expect("run");
        (
            outcome.metrics,
            outcome.certificate.expect("certificate requested"),
        )
    };
    let first = pair([10.0, 1.0], [10, 10], [600_000.0, 600_000.0]);
    let second = pair([1.0, 10.0], [10, 20], [300_000.0, 900_000.0]);
    for &name in available_policies() {
        let make = || make_policy(name).expect("registered policy");
        let mut reused = make();
        let (_, cut) = run(reused.as_mut(), &first, TimeDelta::from_micros(1));
        assert_eq!(
            cut.events.len(),
            1,
            "{name}: the first run must stop after one decision"
        );
        let (metrics, cert) = run(make().as_mut(), &second, TimeDelta::from_millis(30));
        let (reused_metrics, reused_cert) =
            run(reused.as_mut(), &second, TimeDelta::from_millis(30));
        assert!(
            reused_metrics == metrics && reused_cert.render() == cert.render(),
            "{name}: a run after a one-decision run differs from a fresh policy"
        );
    }
}
