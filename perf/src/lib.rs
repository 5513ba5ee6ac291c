//! `eua-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload sequentially (no worker pool), closed
//! loop: each unit starts when the previous one finishes. A *pass* is
//! one run of every unit of the workload's [`Batch`]; the benchmark
//! repeats passes for the requested number of seconds, rotating them
//! over the allowed CPUs, and reports each timing at the fastest decile
//! of passes (see [`affinity`] for why).
//!
//! * Untraced (`--trace 0`): the end-to-end metrics. Set-up (input
//!   generation plus one warm-up pass that also counts decisions) is
//!   repeated [`SETUPS`] times and its median reported as `setup_s`.
//! * Traced (`--trace 1`): the same passes with every policy wrapped in
//!   [`trace::Traced`]; prints the per-layer metrics and a share table.
//!
//! Every run's metrics are checked ([`check::check_metrics`]) and folded
//! into a `sim_digest`; a pass whose digest differs from the reference
//! pass makes the result incorrect.

#![deny(unsafe_code)]

pub mod affinity;
pub mod check;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use check::{check_metrics, Digest};
use trace::{clock_read_ns, ns_since, LayerStats};
use workload::{faults_injected, Batch, Mode, Size, WorkloadKind};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The pass quantile timings are reported at (see [`run_untraced`]).
pub const FAST_DECILE: f64 = 0.1;
/// Chaos cells run as warm-up during each set-up.
pub const CHAOS_WARM_CELLS: usize = 20;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: eua-perf --workload <fig2_sweep|overload_backlog|chaos_audited> \
--seed <u64> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace T`.
    ///
    /// # Errors
    ///
    /// Unknown or missing flags and unparsable values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WorkloadKind::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished benchmark run: report lines for people, then the result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Every output check passed and every digest matched.
    pub correct: bool,
    /// Units attempted.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut correct = self.correct;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value
                } else {
                    correct = false;
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one pass over a batch produced.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Host time of each unit, in order.
    pub unit_ns: Vec<u64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units failed (error, panic, failed check, unexpected audit error).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Decisions the units reported (chaos, or a counted pass).
    pub decisions: u64,
    /// Digest of every unit's metrics.
    pub digest: Digest,
    /// Summed accrued utility.
    pub utility: f64,
    /// Summed maximum possible utility.
    pub max_utility: f64,
    /// Summed energy.
    pub energy: f64,
    /// Chaos cells graded `collapsed`.
    pub collapsed: u64,
    /// Faults injected.
    pub faults: u64,
}

impl PassResult {
    /// Host seconds spent in units (the benchmark's own checking is
    /// excluded).
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.unit_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// How a pass runs its units.
#[derive(Debug)]
pub enum PassMode<'a> {
    /// Untraced.
    Plain,
    /// Counting decisions.
    Counted,
    /// Traced, with stats per policy.
    Traced(&'a mut BTreeMap<String, LayerStats>),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs every unit of `batch` once, checking each unit's output.
pub fn run_pass(batch: &Batch, mode: &mut PassMode<'_>) -> PassResult {
    let mut pass = PassResult::default();
    for i in 0..batch.len() {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let unit_mode = match mode {
                PassMode::Plain => Mode::Plain,
                PassMode::Counted => Mode::Counted,
                PassMode::Traced(map) => {
                    Mode::Traced(map.entry(batch.policy(i).to_string()).or_default())
                }
            };
            batch.run(i, unit_mode)
        }));
        pass.unit_ns.push(ns_since(start));

        pass.attempted += 1;
        let checked = match result {
            Ok(Ok(unit)) => check_metrics(&unit.metrics).and_then(|()| {
                if unit.audit_errors > 0 {
                    Err(format!("{} unexpected audit errors", unit.audit_errors))
                } else {
                    Ok(unit)
                }
            }),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
        };
        match checked {
            Ok(unit) => {
                pass.digest.add(&unit.metrics);
                pass.decisions += unit.decisions.unwrap_or(0);
                pass.utility += unit.metrics.total_utility;
                pass.max_utility += unit.metrics.max_possible_utility;
                pass.energy += unit.metrics.energy;
                pass.collapsed += u64::from(unit.collapsed);
                pass.faults += faults_injected(&unit.faults);
            }
            Err(e) => {
                pass.failed += 1;
                if pass.failures.len() < 5 {
                    pass.failures
                        .push(format!("unit {i} ({}): {e}", batch.policy(i)));
                }
                use std::fmt::Write as _;
                let _ = writeln!(pass.digest, "failed {i}");
            }
        }
    }
    pass
}

/// A built batch plus its warm-up pass.
#[derive(Debug)]
pub struct Prepared {
    /// The workload's inputs.
    pub batch: Batch,
    /// Sweep workloads: a full counted pass, the digest and decision
    /// reference. Chaos: a few warm-up cells only.
    pub warm: PassResult,
}

/// Set-up: builds the inputs and warms up. Sweep workloads run one
/// counted pass; chaos runs its first [`CHAOS_WARM_CELLS`] cells.
///
/// # Errors
///
/// Input synthesis failures.
pub fn prepare(kind: WorkloadKind, seed: u64, size: &Size) -> Result<Prepared, String> {
    let batch = Batch::build(kind, seed, size)?;
    let warm = match kind {
        WorkloadKind::ChaosAudited => {
            let mut warm = batch.clone();
            warm.truncate(CHAOS_WARM_CELLS);
            run_pass(&warm, &mut PassMode::Plain)
        }
        WorkloadKind::Fig2Sweep | WorkloadKind::OverloadBacklog => {
            run_pass(&batch, &mut PassMode::Counted)
        }
    };
    Ok(Prepared { batch, warm })
}

/// Linear-interpolated quantile of unsorted samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host block: processor count, CPU model, and what is not measured.
#[must_use]
pub fn host_lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!("host: nproc={nproc} cpu=\"{cpu}\" (shared host, sequential runs)"),
        "unmeasured: pool (worker fan-out needs a multi-core host); internal counters \
         (score-cache hits, calendar rescans) are not visible from outside the library"
            .into(),
    ]
}

/// Repeats passes for `seconds`, rotating them over the allowed CPUs
/// (see [`affinity`]).
fn run_passes(batch: &Batch, seconds: u64, mode: &mut PassMode<'_>) -> Vec<PassResult> {
    let cpus = affinity::allowed_cpus();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        if cpus.len() > 1 {
            affinity::pin_to(cpus[passes.len() % cpus.len()]);
        }
        passes.push(run_pass(batch, mode));
        if start.elapsed() >= budget {
            return passes;
        }
    }
}

/// Folds passes into the run's counts and correctness verdict, adding a
/// report line per problem.
fn tally(passes: &[PassResult], reference: &Digest, lines: &mut Vec<String>) -> (bool, u64, u64) {
    let mut correct = true;
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    for (k, pass) in passes.iter().enumerate() {
        for f in &pass.failures {
            lines.push(format!("FAILED pass {k}: {f}"));
        }
        if pass.digest != *reference {
            correct = false;
            lines.push(format!(
                "MISMATCH pass {k}: sim_digest {} != reference {}",
                pass.digest.hex(),
                reference.hex()
            ));
        }
    }
    (correct && failed == 0, attempted, failed)
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Input synthesis failures.
pub fn run_untraced(
    kind: WorkloadKind,
    seed: u64,
    seconds: u64,
    size: &Size,
) -> Result<Report, String> {
    let mut lines = host_lines();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut setup_ok = true;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let p = prepare(kind, seed, size)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(prev) = &prepared {
            let prev: &Prepared = prev;
            setup_ok &= prev.warm.digest == p.warm.digest;
        }
        setup_ok &= p.warm.failed == 0;
        prepared = Some(p);
    }
    let Prepared { batch, warm } = prepared.ok_or("no set-up ran")?;
    let passes = run_passes(&batch, seconds, &mut PassMode::Plain);
    // Sweep passes must reproduce the counted set-up pass, whose decision
    // count they share; chaos passes count their own decisions (from the
    // certificates) and must reproduce the first measured pass.
    let (reference, counted_decisions) = match kind {
        WorkloadKind::ChaosAudited => (passes[0].digest, None),
        _ => (warm.digest, Some(warm.decisions)),
    };
    let decisions_of = |p: &PassResult| counted_decisions.unwrap_or(p.decisions);
    let (mut correct, attempted, failed) = tally(&passes, &reference, &mut lines);
    if !setup_ok {
        correct = false;
        lines.push("FAILED: set-up passes disagree or failed".into());
    }

    // The host's speed drifts by tens of percent over seconds to
    // minutes, so each statistic is taken per pass and reported at the
    // fastest decile of passes: robust to one outlier, yet it finds the
    // quiet phases of the quietest CPU.
    let fast_decile = |f: &dyn Fn(&PassResult) -> f64, higher_is_better: bool| -> f64 {
        let q = if higher_is_better {
            1.0 - FAST_DECILE
        } else {
            FAST_DECILE
        };
        quantile(&passes.iter().map(f).collect::<Vec<_>>(), q)
    };
    let runs_per_s = fast_decile(&|p| p.attempted as f64 / p.seconds(), true);
    let decisions_per_s = fast_decile(&|p| decisions_of(p) as f64 / p.seconds(), true);
    let ms = |p: &PassResult| {
        p.unit_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect::<Vec<_>>()
    };
    let p50 = fast_decile(&|p| quantile(&ms(p), 0.5), false);
    let p90 = fast_decile(&|p| quantile(&ms(p), 0.9), false);
    let first = &passes[0];
    let utility_ratio = first.utility / first.max_utility;
    let energy_per_utility = first.energy / first.utility;

    lines.push(format!(
        "samples: {} units/pass x {} passes = {} units; run_ms quantiles per pass, medians over passes",
        batch.len(),
        passes.len(),
        attempted
    ));
    lines.push(format!("sim_digest: {}", reference.hex()));
    lines.push(format!(
        "error_frac: {} ({failed} failed / {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    if kind == WorkloadKind::ChaosAudited {
        lines.push(format!(
            "chaos: {} of {} cells collapsed per pass (graded outcome, not a failure); {} faults injected per pass",
            first.collapsed,
            batch.len(),
            first.faults
        ));
    }
    let setup_median = quantile(&setup_s, 0.5);
    lines.push(format!("setup_s samples: {setup_s:?}"));
    let metrics = vec![
        metric("setup_s", setup_median, "s"),
        metric("runs_per_s", runs_per_s, "1/s"),
        metric("decisions_per_s", decisions_per_s, "1/s"),
        metric("run_ms_p50", p50, "ms"),
        metric("run_ms_p90", p90, "ms"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("utility_ratio", utility_ratio, "ratio"),
        metric("energy_per_utility", energy_per_utility, "energy/utility"),
    ];
    Ok(Report {
        lines,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: per-layer metrics plus a share table.
///
/// # Errors
///
/// Input synthesis failures.
pub fn run_traced(
    kind: WorkloadKind,
    seed: u64,
    seconds: u64,
    size: &Size,
) -> Result<Report, String> {
    let mut lines = host_lines();
    let Prepared { batch, warm } = prepare(kind, seed, size)?;
    // Untraced reference pass: the tracing-overhead baseline and the
    // digest the traced passes must reproduce.
    let baseline = run_pass(&batch, &mut PassMode::Plain);
    let clock_ns = clock_read_ns();
    let mut by_policy: BTreeMap<String, LayerStats> = BTreeMap::new();
    let passes = run_passes(&batch, seconds, &mut PassMode::Traced(&mut by_policy));
    let (mut correct, attempted, failed) = tally(&passes, &baseline.digest, &mut lines);
    if baseline.failed > 0 || warm.failed > 0 {
        correct = false;
        lines.push("FAILED: untraced reference pass failed".into());
    }
    let mut total = LayerStats::default();
    for stats in by_policy.values() {
        total.merge(stats);
    }
    if total.head_mismatches > 0 {
        correct = false;
        lines.push(format!(
            "MISMATCH: shadow schedule head differs from Decision::run on {} of {} EUA decisions",
            total.head_mismatches, total.head_checked
        ));
    }
    let n = passes.len() as f64;
    let traced_s = quantile(
        &passes.iter().map(PassResult::seconds).collect::<Vec<_>>(),
        0.5,
    );
    let overhead = traced_s / baseline.seconds() - 1.0;

    lines.push(format!(
        "samples: {} units/pass x {} traced passes; clock read {clock_ns:.1} ns",
        batch.len(),
        passes.len()
    ));
    lines.push(format!(
        "sim_digest: {} (untraced {})",
        passes[0].digest.hex(),
        baseline.digest.hex()
    ));
    lines.push(format!(
        "shadow head check: {} EUA decisions, {} mismatches",
        total.head_checked, total.head_mismatches
    ));
    lines.extend(share_table(kind, &by_policy, &total, clock_ns));

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let t = &total;
    let decisions = t.decisions as f64;
    let metrics = vec![
        metric(
            "core.candidates.fallback_ns_per_call",
            ratio(t.fallback_ns as f64, t.fallback_calls as f64),
            "ns",
        ),
        metric(
            "core.candidates.fallback_calls",
            t.fallback_calls as f64 / n,
            "count",
        ),
        metric(
            "core.candidates.fast_ns_per_call",
            ratio(t.fast_ns as f64, t.fast_calls as f64),
            "ns",
        ),
        metric(
            "core.candidates.fast_calls",
            t.fast_calls as f64 / n,
            "count",
        ),
        metric(
            "core.candidates.accept_frac",
            ratio(t.accepted as f64, t.considered as f64),
            "ratio",
        ),
        metric(
            "core.decide_freq.analyze_ns_per_call",
            ratio(t.analyze_ns as f64, t.analyze_calls as f64),
            "ns",
        ),
        metric(
            "core.decide_freq.calls",
            t.analyze_calls as f64 / n,
            "count",
        ),
        metric("core.decide.ns_p50", t.decide_hist.quantile(0.5), "ns"),
        metric("core.decide.ns_p99", t.decide_hist.quantile(0.99), "ns"),
        metric(
            "core.decide.busy_frac",
            ratio(
                t.decide_ns as f64,
                t.run_ns.saturating_sub(t.shadow_ns) as f64,
            ),
            "ratio",
        ),
        metric(
            "core.decide.pending_mean",
            ratio(t.pending_sum as f64, decisions),
            "count",
        ),
        metric("core.decide.pending_max", t.pending_max as f64, "count"),
        metric("core.decide.aborts", t.aborts as f64 / n, "count"),
        metric(
            "sim.engine.self_ns_per_decision",
            ratio(t.engine_self_ns(clock_ns), decisions),
            "ns",
        ),
        metric("sim.engine.decisions", decisions / n, "count"),
        metric(
            "sim.engine.jobs_released",
            t.jobs_released as f64 / n,
            "count",
        ),
        metric("sim.engine.preemptions", t.preemptions as f64 / n, "count"),
        metric(
            "sim.certificate.record_ns_per_decision",
            if t.cells > 0 {
                ratio(t.record_ns, decisions)
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "sim.certificate.render_ns_per_byte",
            ratio(t.render_ns as f64, t.cert_bytes as f64),
            "ns/B",
        ),
        metric(
            "sim.certificate.parse_ns_per_byte",
            ratio(t.parse_ns as f64, t.cert_bytes as f64),
            "ns/B",
        ),
        metric(
            "sim.certificate.bytes_per_run",
            ratio(t.cert_bytes as f64, t.cells as f64),
            "B",
        ),
        metric(
            "audit.check_ns_per_event",
            ratio(t.audit_ns as f64, t.audit_events as f64),
            "ns",
        ),
        metric(
            "audit.unexpected_errors",
            t.unexpected_errors as f64 / n,
            "count",
        ),
        metric(
            "uam.generate.ns_per_arrival",
            ratio(t.uam_ns as f64, t.arrivals as f64),
            "ns",
        ),
        metric(
            "tuf.utility.ns_per_call",
            ratio(t.utility_ns as f64, t.utility_calls as f64),
            "ns",
        ),
        metric(
            "workload.universe.generate_us_per_cell",
            ratio(t.universe_ns as f64 / 1e3, t.cells as f64),
            "us",
        ),
        metric(
            "analyze.scenario.roundtrip_us_per_cell",
            ratio(t.scenario_ns as f64 / 1e3, t.cells as f64),
            "us",
        ),
        metric("sim.faults.injected", t.faults_injected as f64 / n, "count"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];
    Ok(Report {
        lines,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer shares of the traced time, per policy and in total. Shadow
/// replays are excluded from the denominator; the shadow layers'
/// shares estimate the same work inside `decide`.
fn share_table(
    kind: WorkloadKind,
    by_policy: &BTreeMap<String, LayerStats>,
    total: &LayerStats,
    clock_ns: f64,
) -> Vec<String> {
    let pct = |a: f64, b: f64| if b > 0.0 { 100.0 * a / b } else { 0.0 };
    let mut lines = Vec::new();
    if kind == WorkloadKind::ChaosAudited {
        let t = total;
        let sim = t.run_ns.saturating_sub(t.shadow_ns) as f64;
        let denom = t.universe_ns as f64
            + t.scenario_ns as f64
            + sim
            + t.render_ns as f64
            + t.parse_ns as f64
            + t.audit_ns as f64;
        lines.push("share of cell time (certified run, render, parse, audit; %):".into());
        lines.push(format!(
            "  workload.universe {:.1}  analyze.scenario {:.1}  sim run {:.1} (of which sim.certificate record {:.1}, core.decide {:.1})  \
             sim.certificate render {:.1}  parse {:.1}  audit checks {:.1}",
            pct(t.universe_ns as f64, denom),
            pct(t.scenario_ns as f64, denom),
            pct(sim, denom),
            pct(t.record_ns, denom),
            pct(t.decide_ns as f64, denom),
            pct(t.render_ns as f64, denom),
            pct(t.parse_ns as f64, denom),
            pct(t.audit_ns as f64, denom),
        ));
        return lines;
    }
    lines.push(
        "share of run time per policy (%): decide [candidates fast / fallback, decide_freq, tuf] | sim.engine self | uam"
            .into(),
    );
    let mut rows: Vec<(&str, &LayerStats)> =
        by_policy.iter().map(|(k, v)| (k.as_str(), v)).collect();
    rows.push(("all", total));
    for (name, s) in rows {
        let denom = s.run_ns.saturating_sub(s.shadow_ns) as f64 - s.decisions as f64 * clock_ns;
        lines.push(format!(
            "  {name:<6} decide {:5.1} [{:5.1} / {:5.1}, {:5.1}, {:5.1}] | engine {:5.1} | uam {:4.1}   ({} runs, {:.3} ms/run)",
            pct(s.decide_ns as f64, denom),
            pct(s.fast_ns as f64, denom),
            pct(s.fallback_ns as f64, denom),
            pct(s.analyze_ns as f64, denom),
            pct(s.utility_ns as f64, denom),
            pct(s.engine_self_ns(clock_ns), denom),
            pct(s.uam_ns as f64, denom),
            s.runs,
            if s.runs > 0 { denom / s.runs as f64 / 1e6 } else { 0.0 },
        ));
    }
    lines
}

/// Runs the benchmark as the command line asks.
///
/// # Errors
///
/// Input synthesis failures.
pub fn run(args: &Args) -> Result<Report, String> {
    let size = Size::full();
    if args.trace {
        run_traced(args.workload, args.seed, args.seconds, &size)
    } else {
        run_untraced(args.workload, args.seed, args.seconds, &size)
    }
}
