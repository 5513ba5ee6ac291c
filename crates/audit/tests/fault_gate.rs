#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! The randomized audit gate: certificates from fault-free runs always
//! audit clean, and certificates from *faulted* runs may only violate
//! the codes their [`FaultPlan`] predicts — injected UAM bursts and
//! arrival jitter legitimately smuggle contract-breaking arrivals into
//! the certified stream (`aud-uam-violation`), while every other fault
//! family (demand mis-estimation, DVS latency/stuck/degraded tables,
//! abort costs) must still produce internally consistent certificates.
//!
//! Each property runs `AUDIT_CASES` cases.

mod common;

use std::collections::BTreeSet;

use common::{bridge, run_certified_with_faults};
use eua_analyze::shipped_scenarios;
use eua_audit::audit;
use eua_core::make_policy;
use eua_platform::TimeDelta;
use eua_sim::FaultPlan;
use proptest::prelude::*;

/// Proptest cases per property.
const AUDIT_CASES: u32 = 24;

/// The `aud-*` codes a plan's active fault families can legitimately
/// trip. Only the families that tamper with the *arrival stream* may
/// surface in a well-formed certificate; everything else must stay
/// internally consistent.
fn predicted_codes(plan: &FaultPlan) -> BTreeSet<&'static str> {
    let mut codes = BTreeSet::new();
    if plan.uam.extra_per_window > 0 || !plan.timing.arrival_jitter.is_zero() {
        codes.insert("aud-uam-violation");
    }
    codes
}

/// A small curated plan space: one representative per fault family plus
/// a compound plan, all passing [`FaultPlan::validate`] by construction.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::none()),
        (1u32..3, 1u32..4).prop_map(|(extra, every)| {
            let mut plan = FaultPlan::none();
            plan.uam.extra_per_window = extra;
            plan.uam.every_n_windows = every;
            plan
        }),
        (0.5f64..2.5, 0.0f64..0.5).prop_map(|(factor, spread)| {
            let mut plan = FaultPlan::none();
            plan.demand.mean_factor = factor;
            plan.demand.spread = spread;
            plan
        }),
        (0u64..50_000, any::<bool>()).prop_map(|(latency, degrade)| {
            let mut plan = FaultPlan::none();
            plan.dvs.switch_latency_cycles = latency;
            if degrade {
                plan.dvs.degraded_mhz = Some(vec![36, 64, 100]);
            }
            plan
        }),
        (0u64..40_000).prop_map(|stuck_us| {
            let mut plan = FaultPlan::none();
            plan.dvs.stuck_after = Some(TimeDelta::from_micros(stuck_us));
            plan
        }),
        (0u64..500, 0u64..4_000).prop_map(|(cost_us, jitter_us)| {
            let mut plan = FaultPlan::none();
            plan.timing.abort_cost = TimeDelta::from_micros(cost_us);
            plan.timing.arrival_jitter = TimeDelta::from_micros(jitter_us);
            plan
        }),
        // Compound: UAM burst + demand + abort cost at once.
        (1u32..3, 1.2f64..2.0, 0u64..300).prop_map(|(extra, factor, cost_us)| {
            let mut plan = FaultPlan::none();
            plan.uam.extra_per_window = extra;
            plan.uam.every_n_windows = 2;
            plan.demand.mean_factor = factor;
            plan.timing.abort_cost = TimeDelta::from_micros(cost_us);
            plan
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(AUDIT_CASES))]

    /// Fault-free runs — any shipped scenario, any policy, any seed —
    /// produce certificates the auditor accepts.
    #[test]
    fn fault_free_certificates_audit_clean(
        seed in 0u64..1_000,
        scenario_idx in 0usize..11,
        policy_name in prop_oneof![Just("eua"), Just("eua-nodvs"), Just("dasa"), Just("edf")],
    ) {
        let specs = shipped_scenarios().expect("registry builds");
        let spec = &specs[scenario_idx % specs.len()];
        let (tasks, patterns, platform) = bridge(spec);
        let mut policy = make_policy(policy_name).expect("registered policy");
        let cert = run_certified_with_faults(
            &tasks, &patterns, &platform, &mut policy, seed, &FaultPlan::none(),
        );
        let report = audit(&cert);
        prop_assert!(
            !report.has_errors(),
            "`{}` under `{policy_name}` seed {seed}:\n{}",
            spec.name,
            report.render_text()
        );
    }

    /// Faulted runs may only trip the codes their plan predicts: the
    /// certificate stays a faithful record even when the modeled world
    /// misbehaves, so un-predicted violation codes mean the *recording*
    /// (not the fault) is wrong.
    #[test]
    fn faulted_certificates_violate_only_predicted_codes(
        seed in 0u64..1_000,
        scenario_idx in 0usize..11,
        plan in arb_plan(),
    ) {
        let specs = shipped_scenarios().expect("registry builds");
        let spec = &specs[scenario_idx % specs.len()];
        let (tasks, patterns, platform) = bridge(spec);
        let mut policy = make_policy("eua").expect("registered policy");
        let cert = run_certified_with_faults(
            &tasks, &patterns, &platform, &mut policy, seed, &plan,
        );
        let report = audit(&cert);
        let predicted = predicted_codes(&plan);
        for code in report.codes() {
            prop_assert!(
                predicted.contains(code),
                "`{}` seed {seed}: unpredicted `{code}` under {plan:?}:\n{}",
                spec.name,
                report.render_text()
            );
        }
    }
}
