#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Metamorphic relations of the paper's model: oracles that share no
//! code with the engine, only its units.
//!
//! **Scaling by two.** Table 2 states `S1` and `S0` relative to `f_m`,
//! and `S2 = 0` in E1–E3, so doubling every table frequency gives
//! `E(2f) = 4·E(f)`; doubling every demand keeps `⌈2c / 2f⌉ = ⌈c / f⌉`
//! and, with deterministic demands, the Chebyshev allocation exact. Every
//! factor is a power of two, so the runs agree bit for bit: the same
//! dispatch sequence, aborts and utility, every certified frequency
//! doubled, and energy (idle power included, scaled by 8) times exactly
//! 8. A policy that hard-codes a frequency, or mixes MHz with cycles
//! anywhere else, breaks the relation.

use eua::core::{available_policies, make_policy, BudgetedEua};
use eua::platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua::sim::{dispatch_sequence, Engine, Outcome, Platform, RunCertificate, SchedulerPolicy};
use eua::sim::{SimConfig, Task, TaskSet};
use eua::tuf::Tuf;
use eua::uam::demand::DemandModel;
use eua::uam::generator::ArrivalPattern;
use eua::uam::{Assurance, UamSpec};
use proptest::prelude::*;

/// The budgets `BudgetedEua` runs under; the scaled run gets 8 times
/// each. The smallest binds on most generated workloads.
const BUDGETS: [f64; 3] = [1e11, 3e11, 1e13];

/// One task: window (ms), arrival bound, demand as a share of the
/// window's cycles at 100 MHz, step utility.
type TaskParams = (u64, u32, f64, f64);

/// Step-TUF tasks with integer deterministic demands, each arriving by a
/// constrained Poisson process at its UAM bound. Up to five tasks of up
/// to three arrivals at up to 0.6 of a window each span underload to
/// heavy overload.
fn workload(params: &[TaskParams]) -> (TaskSet, Vec<ArrivalPattern>) {
    let mut tasks = Vec::new();
    let mut patterns = Vec::new();
    for (i, &(window_ms, max_arrivals, share, utility)) in params.iter().enumerate() {
        let window = TimeDelta::from_millis(window_ms);
        let spec = UamSpec::new(max_arrivals, window).expect("bound");
        let cycles = (share * window_ms as f64 * 1e5).round();
        let task = Task::new(
            format!("t{i}"),
            Tuf::step(utility, window).expect("tuf"),
            spec,
            DemandModel::deterministic(cycles).expect("demand"),
            Assurance::new(1.0, 0.96).expect("assurance"),
        );
        tasks.push(task.expect("task"));
        let pattern = ArrivalPattern::constrained_poisson(spec, f64::from(max_arrivals));
        patterns.push(pattern.expect("pattern"));
    }
    (TaskSet::new(tasks).expect("task set"), patterns)
}

fn run(
    (tasks, patterns): &(TaskSet, Vec<ArrivalPattern>),
    platform: &Platform,
    policy: &mut dyn SchedulerPolicy,
    idle_power: f64,
    seed: u64,
) -> Outcome {
    let config = SimConfig::new(TimeDelta::from_millis(400))
        .with_certificate()
        .with_idle_power(idle_power);
    Engine::run(tasks, patterns, platform, policy, &config, seed).expect("run")
}

/// Checks that `scaled` is `base` with frequencies doubled and energy
/// multiplied by 8, and nothing else changed.
fn assert_scaled(base: &Outcome, scaled: &Outcome, setting: &str, policy: &str) -> TestCaseResult {
    let (b, s) = (
        base.certificate.as_ref().expect("certified"),
        scaled.certificate.as_ref().expect("certified"),
    );
    // Every event's time and aborts, and its frequency times `k`.
    let events = |c: &RunCertificate, k: u64| -> Vec<_> {
        c.events
            .iter()
            .map(|e| (e.at, e.aborts.clone(), k * e.frequency.as_mhz()))
            .collect()
    };
    // Every charge's start, and its cycles and frequency times `k`.
    let charges = |c: &RunCertificate, k: u64| -> Vec<_> {
        c.charges
            .iter()
            .map(|c| (c.at, k * c.cycles.get(), k * c.frequency_mhz))
            .collect()
    };
    prop_assert_eq!(
        dispatch_sequence(b),
        dispatch_sequence(s),
        "{setting} {policy}"
    );
    prop_assert_eq!(events(b, 2), events(s, 1), "{setting} {policy}: events");
    prop_assert_eq!(charges(b, 2), charges(s, 1), "{setting} {policy}: charges");
    let (mb, ms) = (&base.metrics, &scaled.metrics);
    prop_assert_eq!(
        mb.total_utility.to_bits(),
        ms.total_utility.to_bits(),
        "{setting} {policy}"
    );
    prop_assert_eq!(
        (8.0 * mb.energy).to_bits(),
        ms.energy.to_bits(),
        "{setting} {policy}"
    );
    Ok(())
}

/// One policy twice: for the base run and for the scaled run.
type PolicyPair = (String, Box<dyn SchedulerPolicy>, Box<dyn SchedulerPolicy>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn doubling_frequencies_and_demands_doubles_frequencies_and_octuples_energy(
        params in proptest::collection::vec(
            (5u64..41, 1u32..4, 0.01f64..0.6, 1.0f64..100.0),
            1..6,
        ),
        idle_power in prop_oneof![Just(0.0), 1.0f64..1e6],
        seed in any::<u64>(),
    ) {
        let base = workload(&params);
        let scaled = (base.0.with_scaled_demand(2.0).expect("scaled"), base.1.clone());
        let table = FrequencyTable::powernow_k6();
        let doubled = FrequencyTable::new(table.iter().map(|f| 2 * f.as_mhz())).expect("table");
        let registered = available_policies().iter().map(|&name| -> PolicyPair {
            let make = || make_policy(name).expect("registered");
            (name.to_string(), make(), make())
        });
        let budgeted = BUDGETS.iter().map(|&budget| -> PolicyPair {
            let (p, p2) = (BudgetedEua::new(budget), BudgetedEua::new(8.0 * budget));
            (format!("budgeted-eua {budget:e}"), Box::new(p), Box::new(p2))
        });
        let mut pairs: Vec<PolicyPair> = registered.chain(budgeted).collect();
        for setting in EnergySetting::all() {
            let platform = Platform::powernow(setting);
            let platform2 = Platform::new(doubled.clone(), setting);
            for (name, p, p2) in &mut pairs {
                let b = run(&base, &platform, p.as_mut(), idle_power, seed);
                let s = run(&scaled, &platform2, p2.as_mut(), 8.0 * idle_power, seed);
                assert_scaled(&b, &s, setting.name(), name)?;
            }
        }
    }
}
