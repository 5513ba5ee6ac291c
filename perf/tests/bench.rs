//! The benchmark's own checks, on miniature workloads (`Size::smoke`).
//!
//! Run with `cargo test --release --manifest-path perf/Cargo.toml`.

use std::collections::BTreeMap;

use eua_core::make_policy;
use eua_perf::check::check_metrics;
use eua_perf::trace::{Counted, Histogram, LayerStats, Traced};
use eua_perf::workload::{Batch, Size, WorkloadKind};
use eua_perf::{prepare, run_pass, Args, Metric, PassMode, Report};
use eua_platform::{EnergySetting, TimeDelta};
use eua_sim::json::{parse, Json};
use eua_sim::{Engine, Platform, SchedulerPolicy, SimConfig};
use eua_workload::fig2_workload;

const SEED: u64 = 3;

fn batch(kind: WorkloadKind) -> Batch {
    Batch::build(kind, SEED, &Size::smoke()).expect("smoke inputs build")
}

#[test]
fn traced_and_untraced_runs_have_the_same_sim_digest() {
    for kind in WorkloadKind::ALL {
        let batch = batch(kind);
        let plain = run_pass(&batch, &mut PassMode::Plain);
        let counted = run_pass(&batch, &mut PassMode::Counted);
        let mut stats = BTreeMap::new();
        let traced = run_pass(&batch, &mut PassMode::Traced(&mut stats));
        assert_eq!(plain.failures, Vec::<String>::new(), "{}", kind.name());
        assert_eq!(
            plain.digest,
            counted.digest,
            "{}: counting perturbs",
            kind.name()
        );
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing perturbs",
            kind.name()
        );
        assert!(stats.values().map(|s| s.decisions).sum::<u64>() > 0);
    }
}

#[test]
fn error_frac_is_zero_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let batch = batch(kind);
        let pass = run_pass(&batch, &mut PassMode::Plain);
        assert_eq!(pass.attempted, batch.len() as u64);
        assert_eq!(pass.failed, 0, "{}: {:?}", kind.name(), pass.failures);
    }
}

#[test]
fn wrappers_forward_certify_and_explain() {
    let platform = Platform::powernow(EnergySetting::e1());
    let w = fig2_workload(1.4, 5, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(2)).with_certificate();
    let certificate = |policy: &mut dyn SchedulerPolicy| {
        let cert = Engine::run(&w.tasks, &w.patterns, &platform, policy, &config, 9)
            .expect("run")
            .certificate
            .expect("certificate");
        let explained = cert
            .events
            .iter()
            .filter(|e| e.explanation.is_some())
            .count();
        (cert.render(), explained)
    };
    for name in ["eua", "dasa", "laedf"] {
        let bare = certificate(&mut *make_policy(name).expect("policy"));
        let mut stats = LayerStats::default();
        let traced = certificate(&mut Traced::new(
            make_policy(name).expect("policy"),
            &mut stats,
            name == "eua",
        ));
        let counted = certificate(&mut Counted::new(make_policy(name).expect("policy")));
        if name == "eua" {
            assert!(bare.1 > 0, "EUA explains its decisions");
        }
        assert!(bare == traced, "{name}: traced certificate differs");
        assert!(bare == counted, "{name}: counted certificate differs");
        assert!(stats.decisions > 0);
    }
}

#[test]
fn shadow_builder_head_matches_the_real_decision() {
    for kind in [WorkloadKind::Fig2Sweep, WorkloadKind::OverloadBacklog] {
        let batch = batch(kind);
        let mut stats = BTreeMap::new();
        let pass = run_pass(&batch, &mut PassMode::Traced(&mut stats));
        assert_eq!(pass.failed, 0);
        let eua = &stats["eua"];
        assert!(
            eua.head_checked > 100,
            "{}: too few EUA decisions",
            kind.name()
        );
        assert_eq!(eua.head_mismatches, 0, "{}", kind.name());
        assert_eq!(eua.head_checked, eua.fast_calls + eua.fallback_calls);
        assert!(eua.accepted <= eua.considered);
        // Only EUA runs are shadowed.
        assert_eq!(stats["edf"].head_checked, 0);
    }
    let mut stats = BTreeMap::new();
    run_pass(
        &batch(WorkloadKind::OverloadBacklog),
        &mut PassMode::Traced(&mut stats),
    );
    assert!(
        stats["eua"].fallback_calls > stats["eua"].fast_calls,
        "overload defeats the fast path"
    );
}

#[test]
fn output_check_rejects_inconsistent_metrics() {
    let batch = batch(WorkloadKind::Fig2Sweep);
    let prepared = prepare(WorkloadKind::Fig2Sweep, SEED, &Size::smoke()).expect("prepare");
    assert_eq!(prepared.warm.failed, 0);
    let run = &batch.sim_runs()[0];
    let outcome = Engine::run(
        &run.workload.tasks,
        &run.workload.patterns,
        batch.platform(),
        &mut *make_policy(run.policy).expect("policy"),
        &SimConfig::new(run.horizon),
        run.seed,
    )
    .expect("run");
    let good = outcome.metrics;
    check_metrics(&good).expect("real metrics are consistent");

    let mut m = good.clone();
    m.total_utility = m.max_possible_utility * 1.01 + 1.0;
    assert!(check_metrics(&m).is_err());
    let mut m = good.clone();
    m.energy = f64::NAN;
    assert!(check_metrics(&m).is_err());
    let mut m = good.clone();
    m.energy = -1.0;
    assert!(check_metrics(&m).is_err());
    let mut m = good;
    m.per_task[0].completed = m.per_task[0].arrived + 1;
    assert!(check_metrics(&m).is_err());
}

#[test]
fn seeds_change_the_inputs() {
    for kind in WorkloadKind::ALL {
        let a = run_pass(&batch(kind), &mut PassMode::Plain).digest;
        let again = run_pass(&batch(kind), &mut PassMode::Plain).digest;
        let other = Batch::build(kind, SEED + 1, &Size::smoke()).expect("inputs");
        let b = run_pass(&other, &mut PassMode::Plain).digest;
        assert_eq!(a, again, "{}: same seed, same inputs", kind.name());
        assert_ne!(a, b, "{}: another seed, other inputs", kind.name());
    }
}

#[test]
fn args_parse_and_reject() {
    let parse_args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args =
        parse_args("--workload chaos_audited --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!(args.workload, WorkloadKind::ChaosAudited);
    assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
    assert!(parse_args("--workload nope --seed 7 --seconds 3 --trace 0").is_err());
    assert!(parse_args("--workload fig2_sweep --seed 7 --seconds 0 --trace 0").is_err());
    assert!(parse_args("--workload fig2_sweep --seed 7 --seconds 3 --trace 2").is_err());
    assert!(parse_args("--workload fig2_sweep --seed 7 --seconds 3").is_err());
}

#[test]
fn result_line_is_one_json_object() {
    let report = Report {
        lines: Vec::new(),
        correct: true,
        attempted: 10,
        failed: 0,
        metrics: vec![
            Metric {
                name: "run_ms_p50",
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            },
        ],
    };
    let json = parse(&report.json()).expect("valid JSON");
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    let metrics = json.get("metrics").expect("metrics");
    let p50 = metrics.get("run_ms_p50").expect("metric");
    assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    // A non-finite value cannot be printed as JSON: it is zeroed and the
    // result marked incorrect.
    let mut bad = report;
    bad.metrics[0].value = f64::INFINITY;
    let json = parse(&bad.json()).expect("valid JSON");
    assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn histogram_quantiles_are_within_bucket_resolution() {
    let mut h = Histogram::default();
    for ns in 1..=10_000u64 {
        h.record(ns);
    }
    for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.01, 100.0)] {
        let got = h.quantile(q);
        assert!((got - want).abs() / want < 0.04, "q{q}: {got} vs {want}");
    }
    assert_eq!(Histogram::default().quantile(0.5), 0.0);
}
