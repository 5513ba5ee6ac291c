//! The analysis passes.
//!
//! Each pass is a plain function that inspects one aspect of a raw
//! [`ScenarioSpec`] and appends [`Diagnostic`]s. Passes are independent:
//! a pass must tolerate input that other passes will reject (e.g. the
//! UAM pass runs even when the TUF shape is broken) and must not
//! double-report conditions another pass owns. [`analyze`] runs every
//! pass in a fixed order and returns a sorted [`Report`].

use crate::demand::Verdict;
use crate::diagnostic::{DiagCode, Diagnostic, Report, Severity};
use crate::scenario::{DemandSpec, FaultSpec, ScenarioSpec, TaskSpec, TufSpec};
use eua_core::{brh_schedulable, sufficient_speed, theorem1_speed};
use eua_platform::Frequency;
use eua_sim::{FaultPlan, Task, TaskSet};

/// Relative slop for float comparisons against `f_m`.
const EPS: f64 = 1e-9;

/// Relative tolerance for the declared-allocation cross-check.
const ALLOCATION_TOL: f64 = 1e-6;

/// Analyzes `scenario` with every pass, in order: structure, TUF
/// shapes, assurances, Chebyshev budgets, UAM specs, frequency table,
/// energy model, feasibility classification, fault stanzas, the
/// semantic verdict pass, and the simulator backstop. Returns the
/// sorted report.
///
/// Offline certificate/scenario auditing — never on a decision path.
#[must_use]
pub fn analyze(scenario: &ScenarioSpec) -> Report {
    let mut report = Report::new(scenario.name.clone());
    let out = &mut report.diagnostics;
    structure_pass(scenario, out);
    tuf_shape_pass(scenario, out);
    assurance_pass(scenario, out);
    chebyshev_pass(scenario, out);
    uam_pass(scenario, out);
    frequency_table_pass(scenario, out);
    energy_model_pass(scenario, out);
    // The two passes on simulator types share one raising of the tasks,
    // and stay silent when it fails: the passes above say why, or else
    // the backstop does.
    let tasks = scenario.to_tasks().ok();
    if let Some(tasks) = &tasks {
        feasibility_pass(scenario, tasks, out);
    }
    fault_pass(scenario, out);
    if let Some(tasks) = tasks {
        semantic_pass(scenario, tasks, out);
    }
    simulator_pass(scenario, out);
    report.sort();
    report
}

/// Scenario-level structure: at least one task, unique names.
fn structure_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    if scenario.tasks.is_empty() {
        out.push(
            Diagnostic::new(DiagCode::NoTasks, "the scenario defines no tasks")
                .with_suggestion("add at least one `task … end` stanza"),
        );
    }
    let mut seen = std::collections::BTreeMap::new();
    for t in &scenario.tasks {
        *seen.entry(t.name.as_str()).or_insert(0u32) += 1;
    }
    for (name, count) in seen {
        if count > 1 {
            out.push(Diagnostic::for_entity(
                DiagCode::DuplicateTaskName,
                name,
                format!("{count} tasks share this name; per-task diagnostics are ambiguous"),
            ));
        }
    }
}

/// Shape checks for one task; returns whether the shape is sound
/// enough to evaluate a critical time on.
fn check_shape(task: &TaskSpec, out: &mut Vec<Diagnostic>) -> bool {
    let name = &task.name;
    let mut sound = true;
    match &task.tuf {
        TufSpec::Step { umax, step_at_us } => {
            sound &= check_umax(name, *umax, out);
            if *step_at_us == 0 {
                sound = false;
                out.push(Diagnostic::for_entity(
                    DiagCode::TufZeroTermination,
                    name,
                    "step TUF has a zero deadline",
                ));
            }
        }
        TufSpec::Linear {
            umax,
            termination_us,
        } => {
            sound &= check_umax(name, *umax, out);
            if *termination_us == 0 {
                sound = false;
                out.push(Diagnostic::for_entity(
                    DiagCode::TufZeroTermination,
                    name,
                    "linear TUF has a zero x-intercept",
                ));
            }
        }
        TufSpec::Exponential {
            umax,
            tau_us,
            termination_us,
        } => {
            sound &= check_umax(name, *umax, out);
            if *tau_us == 0 {
                sound = false;
                out.push(Diagnostic::for_entity(
                    DiagCode::TufZeroTermination,
                    name,
                    "exponential TUF has a zero decay constant τ",
                ));
            }
            if *termination_us == 0 {
                sound = false;
                out.push(Diagnostic::for_entity(
                    DiagCode::TufZeroTermination,
                    name,
                    "exponential TUF has a zero termination time",
                ));
            }
        }
        TufSpec::Piecewise { points } => {
            sound &= check_piecewise(name, points, out);
        }
    }
    sound
}

fn check_piecewise(name: &str, points: &[(u64, f64)], out: &mut Vec<Diagnostic>) -> bool {
    if points.is_empty() {
        out.push(Diagnostic::for_entity(
            DiagCode::TufZeroTermination,
            name,
            "piecewise TUF has no breakpoints",
        ));
        return false;
    }
    let mut sound = true;
    for window in points.windows(2) {
        let ((t0, u0), (t1, u1)) = (window[0], window[1]);
        if t1 <= t0 {
            sound = false;
            out.push(Diagnostic::for_entity(
                DiagCode::TufUnorderedBreakpoints,
                name,
                format!("breakpoint times are not strictly increasing ({t0} µs then {t1} µs)"),
            ));
        }
        if u1 > u0 + EPS {
            sound = false;
            out.push(
                Diagnostic::for_entity(
                    DiagCode::TufIncreasing,
                    name,
                    format!(
                        "utility rises from {u0} to {u1} at {t1} µs; TUFs must be non-increasing"
                    ),
                )
                .with_suggestion("reorder the breakpoints or lower the later utility"),
            );
        }
    }
    for &(t, u) in points {
        if !u.is_finite() || u < 0.0 {
            sound = false;
            out.push(Diagnostic::for_entity(
                DiagCode::TufNegativeUtility,
                name,
                format!("utility {u} at {t} µs is negative or non-finite"),
            ));
        }
    }
    let umax = points[0].1;
    if umax.is_finite() && umax <= 0.0 {
        sound = false;
        out.push(Diagnostic::for_entity(
            DiagCode::TufNonPositiveUmax,
            name,
            format!("maximum utility {umax} is not positive"),
        ));
    }
    sound
}

/// Reports a bad `U_max`; returns whether it was acceptable.
fn check_umax(name: &str, umax: f64, out: &mut Vec<Diagnostic>) -> bool {
    if umax.is_finite() && umax > 0.0 {
        true
    } else {
        out.push(Diagnostic::for_entity(
            DiagCode::TufNonPositiveUmax,
            name,
            format!("maximum utility {umax} is not positive and finite"),
        ));
        false
    }
}

/// TUF validity: positive finite `U_max`, non-increasing shape, positive
/// termination, and a solvable positive critical time for ν.
fn tuf_shape_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    for task in &scenario.tasks {
        let sound = check_shape(task, out);
        // Critical-time solvability: only meaningful on a sound shape
        // with an in-range ν (the assurance pass owns range errors).
        if sound && (0.0..=1.0).contains(&task.nu) {
            if let Ok(tuf) = task.tuf.to_tuf() {
                match tuf.critical_time(task.nu) {
                    Some(d) if d.is_zero() => {
                        out.push(
                            Diagnostic::for_entity(
                                DiagCode::CriticalTimeUnsolvable,
                                &task.name,
                                format!(
                                    "ν = {} is only met at t = 0 for this {} TUF; \
                                     no positive critical time exists",
                                    task.nu,
                                    task.tuf.shape_name()
                                ),
                            )
                            .with_suggestion("lower ν or flatten the TUF near t = 0"),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Assurance ranges: ν ∈ [0, 1], ρ ∈ [0, 1).
fn assurance_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    for task in &scenario.tasks {
        if !task.nu.is_finite() || !(0.0..=1.0).contains(&task.nu) {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::AssuranceNuRange,
                    &task.name,
                    format!("utility assurance ν = {} lies outside [0, 1]", task.nu),
                )
                .with_suggestion("ν is a fraction of U_max; use 1.0 for step TUFs"),
            );
        }
        if !task.rho.is_finite() || !(0.0..1.0).contains(&task.rho) {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::AssuranceRhoRange,
                    &task.name,
                    format!("timeliness assurance ρ = {} lies outside [0, 1)", task.rho),
                )
                .with_suggestion("ρ = 1 needs an infinite Chebyshev budget; the paper uses 0.96"),
            );
        }
    }
}

/// Chebyshev budget validity: both moments must exist and the resulting
/// allocation must be finite.
fn chebyshev_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    for task in &scenario.tasks {
        if !check_demand(task, out) {
            continue;
        }
        // Moments are fine; an unbounded budget can now only come
        // from the tail (infinite variance) or ρ (owned by the
        // assurance pass).
        let variance = task.demand.variance();
        if variance.is_infinite() {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::ChebyshevUnbounded,
                    &task.name,
                    format!(
                        "{} demand has infinite variance; the Chebyshev budget \
                         E(Y) + sqrt(ρ/(1−ρ)·Var(Y)) is undefined",
                        task.demand.name()
                    ),
                )
                .with_suggestion("use a tail index α > 2 so both moments exist"),
            );
            continue;
        }
        if (0.0..1.0).contains(&task.rho) && task.chebyshev_allocation().is_none() {
            out.push(Diagnostic::for_entity(
                DiagCode::ChebyshevUnbounded,
                &task.name,
                "the Chebyshev allocation is not finite for these moments and ρ",
            ));
        }
        check_declared_allocation(task, out);
    }
}

/// Parameter validity for the demand model itself; returns whether
/// the moments are worth computing.
fn check_demand(task: &TaskSpec, out: &mut Vec<Diagnostic>) -> bool {
    let name = &task.name;
    let mut ok = true;
    let bad = |what: &str, value: f64, out: &mut Vec<Diagnostic>| {
        out.push(Diagnostic::for_entity(
            DiagCode::DemandInvalid,
            name,
            format!("{} demand has invalid {what} = {value}", task.demand.name()),
        ));
    };
    match task.demand {
        DemandSpec::Deterministic { cycles } => {
            if !cycles.is_finite() || cycles <= 0.0 {
                ok = false;
                bad("cycles", cycles, out);
            }
        }
        DemandSpec::Normal { mean, variance } => {
            if !mean.is_finite() || mean <= 0.0 {
                ok = false;
                bad("mean", mean, out);
            }
            if !variance.is_finite() || variance < 0.0 {
                ok = false;
                bad("variance", variance, out);
            }
        }
        DemandSpec::Uniform { lo, hi } => {
            if !lo.is_finite() || lo < 0.0 {
                ok = false;
                bad("lo", lo, out);
            }
            if !hi.is_finite() || hi <= 0.0 {
                ok = false;
                bad("hi", hi, out);
            }
            if ok && lo > hi {
                ok = false;
                out.push(Diagnostic::for_entity(
                    DiagCode::DemandInvalid,
                    name,
                    format!("uniform demand range [{lo}, {hi}] is empty"),
                ));
            }
        }
        DemandSpec::Pareto { scale, alpha } => {
            if !scale.is_finite() || scale <= 0.0 {
                ok = false;
                bad("scale", scale, out);
            }
            if !alpha.is_finite() || alpha <= 0.0 {
                ok = false;
                bad("alpha", alpha, out);
            }
        }
    }
    ok
}

/// Cross-checks a declared `allocation` line against the Chebyshev
/// budget implied by the demand moments and ρ. Works per task, so it
/// fires even when the rest of the scenario cannot be lowered.
fn check_declared_allocation(task: &TaskSpec, out: &mut Vec<Diagnostic>) {
    let Some(declared) = task.declared_allocation else {
        return;
    };
    let Some(c) = task.chebyshev_allocation() else {
        return;
    };
    let expected = c.ceil();
    if declared.is_finite() && (declared - expected).abs() <= 1.0 + ALLOCATION_TOL * c {
        return;
    }
    out.push(
        Diagnostic::for_entity(
            DiagCode::SemChebyshevAllocationMismatch,
            &task.name,
            format!(
                "declared allocation {declared} cycles disagrees with the Chebyshev \
                 budget ⌈E(Y) + sqrt(ρ/(1−ρ)·Var(Y))⌉ = {expected} cycles"
            ),
        )
        .with_suggestion(format!("set `allocation {expected}` (or drop the line)")),
    );
}

/// UAM spec sanity: `a` a positive integer, `P > 0`, and the per-window
/// demand `a·c` within the cycle counter.
fn uam_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    for task in &scenario.tasks {
        let a = task.max_arrivals;
        let a_ok = a.is_finite() && a >= 1.0 && a.fract() == 0.0 && a <= f64::from(u32::MAX);
        if !a_ok {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::UamArrivalBound,
                    &task.name,
                    format!("UAM arrival bound a = {a} is not a positive integer"),
                )
                .with_suggestion("the UAM ⟨a, P⟩ bounds *whole* arrivals per window; use a ≥ 1"),
            );
        }
        if task.window_us == 0 {
            out.push(Diagnostic::for_entity(
                DiagCode::UamZeroWindow,
                &task.name,
                "UAM window P is zero",
            ));
        }
        if a_ok {
            if let Some(c) = task.chebyshev_allocation() {
                let window_demand = c.ceil() * a;
                #[allow(clippy::cast_precision_loss)]
                if window_demand >= u64::MAX as f64 {
                    out.push(
                        Diagnostic::for_entity(
                            DiagCode::UamWindowOverflow,
                            &task.name,
                            format!(
                                "per-window demand a·c = {a}·{c:.0} cycles saturates the \
                                 64-bit cycle counter"
                            ),
                        )
                        .with_suggestion(
                            "cycle budgets this large are almost certainly a unit error",
                        ),
                    );
                }
            }
        }
    }
}

/// Frequency-table validity: non-empty, positive, strictly increasing.
fn frequency_table_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    let freqs = &scenario.frequencies_mhz;
    if freqs.is_empty() {
        out.push(
            Diagnostic::new(DiagCode::FreqTableEmpty, "the frequency table is empty")
                .with_suggestion(
                    "add a `frequencies …` line; the paper uses 36 55 64 73 82 91 100",
                ),
        );
        return;
    }
    for (i, &f) in freqs.iter().enumerate() {
        if f == 0 {
            out.push(Diagnostic::new(
                DiagCode::FreqTableInvalid,
                format!("frequency #{i} is zero"),
            ));
        }
    }
    for (i, pair) in freqs.windows(2).enumerate() {
        if pair[1] <= pair[0] {
            out.push(
                Diagnostic::new(
                    DiagCode::FreqTableInvalid,
                    format!(
                        "table is not strictly increasing at index {}: {} MHz then {} MHz",
                        i + 1,
                        pair[0],
                        pair[1]
                    ),
                )
                .with_suggestion("sort the table ascending and drop duplicates"),
            );
        }
    }
}

/// Energy-model checks: coefficient validity, the knee of `E(f)`, and
/// dominated-frequency detection. The knee and `E(f)` are the platform's
/// [`eua_platform::EnergyModel`], built once the coefficients pass.
fn energy_model_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    let e = &scenario.energy;
    for (coeff, value) in [
        ("S3", e.s3),
        ("S2", e.s2),
        ("S1/f_m²", e.s1_rel),
        ("S0/f_m³", e.s0_rel),
    ] {
        if !value.is_finite() || value < 0.0 {
            out.push(Diagnostic::for_entity(
                DiagCode::EnergyInvalidCoefficient,
                format!("energy model {}", e.name),
                format!("coefficient {coeff} = {value} is negative or non-finite"),
            ));
        }
    }
    if [e.s3, e.s2, e.s1_rel, e.s0_rel].iter().all(|&c| c == 0.0) {
        out.push(Diagnostic::for_entity(
            DiagCode::EnergyInvalidCoefficient,
            format!("energy model {}", e.name),
            "all four coefficients are zero, so every job costs no energy and its \
             UER U/(E·c) is infinite"
                .to_string(),
        ));
    }
    // The checks above are `EnergySetting::custom`'s rules, so the
    // setting exists exactly when none of them fired.
    let (Some(f_max), Ok(setting)) = (scenario.f_max_mhz(), e.setting()) else {
        return;
    };
    let model = setting.model(Frequency::from_mhz(f_max));
    let energy_per_cycle = |mhz: u64| model.energy_per_cycle(Frequency::from_mhz(mhz));

    let positive: Vec<u64> = scenario
        .frequencies_mhz
        .iter()
        .copied()
        .filter(|&f| f > 0)
        .collect();

    // Knee position: only interesting when a constant term exists
    // (otherwise "slower is cheaper" is the expected E1 behavior).
    if e.s0_rel > 0.0 {
        let knee = model.energy_optimal_speed();
        #[allow(clippy::cast_precision_loss)]
        if let Some(&lo) = positive.iter().min() {
            if knee < lo as f64 || knee > f_max as f64 {
                out.push(Diagnostic::new(
                    DiagCode::EnergyKneeOutsideRange,
                    format!(
                        "the energy-optimal speed {knee:.1} MHz lies outside the table \
                         [{lo}, {f_max}] MHz; one end of the table is always most efficient"
                    ),
                ));
            }
        }
    }

    // Dominated frequencies: a slower setting that a faster one beats
    // (or ties) on energy per cycle can never win on UER for a
    // non-increasing TUF.
    for &fi in &positive {
        let ei = energy_per_cycle(fi);
        let dominator = positive
            .iter()
            .copied()
            .filter(|&fj| fj > fi && energy_per_cycle(fj) <= ei + EPS)
            .min();
        if let Some(fj) = dominator {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::DominatedFrequency,
                    format!("frequency {fi} MHz"),
                    format!(
                        "dominated under {}: {fj} MHz is faster and uses no more energy per \
                         cycle ({:.0} vs {:.0}), so its UER is never worse",
                        e.name,
                        energy_per_cycle(fj),
                        ei
                    ),
                )
                .with_suggestion(format!(
                    "the scheduler will never benefit from {fi} MHz; consider removing it"
                )),
            );
        }
    }
}

/// Feasibility classification via the real `eua-core` analysis:
/// Theorem 1 sufficient speed, the BRH demand bound, and sustained
/// overload. Runs on the raised `tasks` once the table validates, so it
/// reuses the simulator types directly.
fn feasibility_pass(scenario: &ScenarioSpec, tasks: &[Task], out: &mut Vec<Diagnostic>) {
    let Ok(task_set) = TaskSet::new(tasks.to_vec()) else {
        return;
    };
    let Some(f_max) = scenario.f_max_mhz() else {
        return;
    };
    if scenario.frequencies_mhz.contains(&0) {
        return;
    }
    let f_max = Frequency::from_mhz(f_max);
    let f_max_f = f_max.as_f64();

    // Per-task: can the window demand a·c finish by D alone at f_m?
    for (_, task) in task_set.iter() {
        let need = theorem1_speed(task);
        if need > f_max_f * (1.0 + EPS) {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::AllocationExceedsCritical,
                    task.name(),
                    format!(
                        "finishing a·c = {} cycles by D = {} µs needs {need:.1} MHz, above \
                         f_m = {f_max_f:.0} MHz even with the CPU to itself",
                        task.window_demand().get(),
                        task.critical_offset().as_micros()
                    ),
                )
                .with_suggestion("lower ρ or a, shrink the demand, or relax the TUF"),
            );
        }
    }

    // System-wide Theorem 1 sufficient condition.
    let sufficient = sufficient_speed(&task_set);
    if sufficient <= f_max_f * (1.0 + EPS) {
        let static_speed = scenario
            .frequencies_mhz
            .iter()
            .copied()
            .filter(|&f| {
                #[allow(clippy::cast_precision_loss)]
                let ok = f as f64 * (1.0 + EPS) >= sufficient;
                ok
            })
            .min();
        let mut d = Diagnostic::new(
            DiagCode::Theorem1Speed,
            format!(
                "Theorem 1 holds: Σ C_i/D_i = {sufficient:.1} MHz ≤ f_m = {f_max_f:.0} MHz; \
                 all assurances are statically satisfiable"
            ),
        )
        .with_severity(Severity::Info);
        if let Some(f) = static_speed {
            d = d.with_suggestion(format!(
                "the lowest statically sufficient table speed is {f} MHz"
            ));
        }
        out.push(d);
    } else {
        out.push(
            Diagnostic::new(
                DiagCode::Theorem1Speed,
                format!(
                    "Theorem 1's sufficient speed Σ C_i/D_i = {sufficient:.1} MHz exceeds \
                     f_m = {f_max_f:.0} MHz; static schedulability is not guaranteed"
                ),
            )
            .with_suggestion(
                "this is a sufficient condition only; see the BRH and overload findings",
            ),
        );
    }

    // Sustained vs transient overload: utilization uses the window P,
    // the paper's load uses the critical time D.
    let utilization: f64 = task_set
        .iter()
        .map(|(_, t)| {
            #[allow(clippy::cast_precision_loss)]
            let window = t.uam().window().as_micros() as f64;
            #[allow(clippy::cast_precision_loss)]
            let demand = t.window_demand().get() as f64;
            if window > 0.0 {
                demand / window
            } else {
                f64::INFINITY
            }
        })
        .sum::<f64>()
        / f_max_f;
    if utilization > 1.0 + EPS {
        out.push(
            Diagnostic::new(
                DiagCode::Overload,
                format!(
                    "sustained overload: utilization Σ C_i/P_i = {:.2}·f_m; no schedule can \
                     meet every assurance and the UA scheduler will shed low-UER jobs",
                    utilization
                ),
            )
            .with_suggestion("expected for overload studies; otherwise scale demands down"),
        );
    } else if sufficient > f_max_f * (1.0 + EPS) {
        // Under-utilized but Theorem 1 failed: the exact BRH test
        // settles whether the overload is only transient.
        if brh_schedulable(&task_set, f_max) {
            out.push(
                Diagnostic::new(
                    DiagCode::BrhDemandBound,
                    format!(
                        "the BRH demand bound holds at f_m = {f_max_f:.0} MHz: the set is \
                         schedulable despite failing Theorem 1's sufficient condition"
                    ),
                )
                .with_severity(Severity::Info),
            );
        } else {
            out.push(
                Diagnostic::new(
                    DiagCode::BrhDemandBound,
                    format!(
                        "transient overload: the BRH demand bound h(L) > f_m·L for some \
                         interval at f_m = {f_max_f:.0} MHz"
                    ),
                )
                .with_suggestion(
                    "deadline misses are possible in bursts even though utilization ≤ 1",
                ),
            );
        }
    }
}

/// Fault-stanza plausibility: deviation factors must be finite and
/// non-negative, the injected DVS relock latency must leave room inside
/// the shortest declared UAM window, and a degraded frequency set must
/// keep at least one frequency the platform actually has.
fn fault_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    let Some(faults) = &scenario.faults else {
        return;
    };
    for (what, value) in [
        ("demand-deviation factor", faults.demand_mean_factor),
        ("demand-deviation spread", faults.demand_spread),
    ] {
        if !value.is_finite() || value < 0.0 {
            out.push(
                Diagnostic::new(
                    DiagCode::FaultNegativeDeviation,
                    format!("{what} {value} must be finite and non-negative"),
                )
                .with_suggestion("use a factor ≥ 0 (1.0 leaves demands faithful)"),
            );
        }
    }
    if faults.switch_latency_cycles > 0 {
        if let (Some(f_max), Some(min_window)) = (
            scenario.f_max_mhz(),
            scenario
                .tasks
                .iter()
                .map(|t| t.window_us)
                .filter(|&w| w > 0)
                .min(),
        ) {
            // MHz is cycles per µs, so latency/f_max is the relock
            // time in µs even at the fastest frequency.
            let latency_us = faults.switch_latency_cycles as f64 / f_max as f64;
            if latency_us >= min_window as f64 {
                out.push(
                    Diagnostic::new(
                        DiagCode::FaultSwitchLatencyExceedsWindow,
                        format!(
                            "switch latency of {} cycles takes {latency_us:.0} µs at f_m = \
                             {f_max} MHz, at least the shortest UAM window ({min_window} µs)",
                            faults.switch_latency_cycles
                        ),
                    )
                    .with_suggestion(
                        "every window would burn entirely on relocking; lower the latency \
                         below the shortest window",
                    ),
                );
            }
        }
    }
    if let Some(set) = &faults.degraded_mhz {
        let survives = set.iter().any(|f| scenario.frequencies_mhz.contains(f));
        if set.is_empty() {
            out.push(
                Diagnostic::new(
                    DiagCode::FaultEmptyDegradedSet,
                    "the degraded frequency set is empty",
                )
                .with_suggestion("list at least one surviving frequency in MHz"),
            );
        } else if !scenario.frequencies_mhz.is_empty() && !survives {
            out.push(
                Diagnostic::new(
                    DiagCode::FaultEmptyDegradedSet,
                    format!(
                        "none of the degraded frequencies {set:?} appear in the platform \
                         table {:?}",
                        scenario.frequencies_mhz
                    ),
                )
                .with_suggestion("the degraded set must be a subset of `frequencies`"),
            );
        }
    }
}

/// The semantic verdict pass: resolves the spec and its raised `tasks`
/// into the analysis IR, runs the per-frequency demand-bound analysis,
/// and reports the verdict at `f_m`, the static feasibility floor,
/// dominated frequencies, and statically-unreachable DVS states.
fn semantic_pass(scenario: &ScenarioSpec, tasks: Vec<Task>, out: &mut Vec<Diagnostic>) {
    // Resolving fails only for conditions the lint passes have
    // already reported; stay silent rather than double-report.
    let Ok(ir) = crate::ir::resolve(scenario, tasks) else {
        return;
    };
    let verdicts = crate::demand::frequency_verdicts(&ir);
    let Some(top) = crate::demand::verdict_at_fmax(&verdicts) else {
        return;
    };

    match top.verdict {
        Verdict::Infeasible => {
            let detail = top.witness.as_ref().map_or_else(String::new, |w| {
                format!(
                    ": within any {} µs window the tasks can force {:.0} cycles of \
                     demand against {:.0} cycles of capacity",
                    w.interval_us, w.demand_cycles, w.capacity_cycles
                )
            });
            out.push(
                Diagnostic::new(
                    DiagCode::SemInfeasibleAtFmax,
                    format!(
                        "the demand-bound analysis proves the set infeasible even at \
                         f_m = {} MHz{detail}",
                        ir.f_max_mhz
                    ),
                )
                .with_suggestion(
                    "some jobs must miss their critical times; reduce demand, lengthen \
                     windows, or accept best-effort operation",
                ),
            );
        }
        Verdict::Indeterminate => {
            out.push(Diagnostic::new(
                DiagCode::SemIndeterminate,
                format!(
                    "the demand-bound analysis could not decide feasibility at f_m = {} \
                     MHz (quantization gap or scan budget exhausted)",
                    ir.f_max_mhz
                ),
            ));
        }
        Verdict::Feasible => {
            if let Some(floor) = crate::demand::feasibility_floor(&verdicts) {
                out.push(Diagnostic::new(
                    DiagCode::SemFeasibilityFloor,
                    format!(
                        "the allocation-level demand provably fits at every frequency \
                         from {floor} MHz up (static feasibility floor)"
                    ),
                ));
            }
        }
    }

    for profile in crate::energy::energy_profiles(&ir, &verdicts) {
        if let Some(by) = profile.dominated_by {
            out.push(
                Diagnostic::for_entity(
                    DiagCode::SemDominatedFrequency,
                    format!("{} MHz", profile.f_mhz),
                    format!(
                        "{} MHz is semantically dominated by {by} MHz: no worse on \
                         feasibility and no dearer per cycle",
                        profile.f_mhz
                    ),
                )
                .with_suggestion(format!("drop {} MHz from the table", profile.f_mhz)),
            );
        }
        if !profile.reachable {
            out.push(Diagnostic::for_entity(
                DiagCode::SemUnreachableDvsState,
                format!("{} MHz", profile.f_mhz),
                format!(
                    "{} MHz lies below every task's UER-optimal frequency; EUA*'s \
                     offline clamp can never select it",
                    profile.f_mhz
                ),
            ));
        }
    }
}

/// The backstop: a scenario no pass reports an error for must also be
/// one the simulator runs. Raises the workload and the fault plan
/// through the simulator's own checks ([`ScenarioSpec::to_workload`],
/// [`FaultPlan::validate`]), so a rule no pass restates still surfaces,
/// as one `sim-rejected` error carrying the simulator's message. Skipped
/// once an error is reported: that scenario fails to raise for the
/// reason given.
fn simulator_pass(scenario: &ScenarioSpec, out: &mut Vec<Diagnostic>) {
    if out.iter().any(|d| d.severity == Severity::Error) {
        return;
    }
    let rejected = scenario.to_workload().err().or_else(|| {
        let plan = scenario
            .faults
            .as_ref()
            .map_or_else(FaultPlan::none, FaultSpec::to_plan);
        plan.validate().err().map(|e| e.to_string())
    });
    if let Some(message) = rejected {
        out.push(
            Diagnostic::new(
                DiagCode::SimRejected,
                format!("the simulator rejects this scenario: {message}"),
            )
            .with_suggestion("no simulation can run it; fix the value the message names"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EnergySpec;

    fn valid_task(name: &str) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            tuf: TufSpec::Step {
                umax: 10.0,
                step_at_us: 10_000,
            },
            max_arrivals: 2.0,
            window_us: 10_000,
            demand: DemandSpec::Normal {
                mean: 150_000.0,
                variance: 150_000.0,
            },
            nu: 1.0,
            rho: 0.96,
            declared_allocation: None,
            arrival: None,
        }
    }

    fn valid_scenario() -> ScenarioSpec {
        ScenarioSpec {
            name: "valid".into(),
            frequencies_mhz: vec![36, 55, 64, 73, 82, 91, 100],
            energy: EnergySpec::e1(),
            tasks: vec![valid_task("t")],
            faults: None,
        }
    }

    #[test]
    fn valid_scenario_has_no_errors() {
        let report = analyze(&valid_scenario());
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn benign_fault_stanza_passes_clean() {
        let mut s = valid_scenario();
        s.faults = Some(crate::scenario::FaultSpec {
            demand_mean_factor: 1.5,
            demand_spread: 0.2,
            switch_latency_cycles: 20_000,
            degraded_mhz: Some(vec![36, 55]),
            burst_extra: 2,
            burst_every: 1,
            abort_cost_us: 300,
            arrival_jitter_us: 2_000,
        });
        let report = analyze(&s);
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn negative_deviation_factor_flagged() {
        let mut s = valid_scenario();
        s.faults = Some(crate::scenario::FaultSpec {
            demand_mean_factor: -0.5,
            ..Default::default()
        });
        let report = analyze(&s);
        assert!(report.codes().contains("fault-negative-deviation"));
        assert!(report.has_errors());
    }

    #[test]
    fn window_length_switch_latency_flagged() {
        let mut s = valid_scenario();
        // 10 ms window at 100 MHz = 1_000_000 cycles; meet it exactly.
        s.faults = Some(crate::scenario::FaultSpec {
            switch_latency_cycles: 1_000_000,
            ..Default::default()
        });
        assert!(analyze(&s)
            .codes()
            .contains("fault-switch-latency-exceeds-window"));
    }

    #[test]
    fn empty_and_disjoint_degraded_sets_flagged() {
        let mut s = valid_scenario();
        let f = crate::scenario::FaultSpec {
            degraded_mhz: Some(vec![]),
            ..Default::default()
        };
        s.faults = Some(f.clone());
        assert!(analyze(&s).codes().contains("fault-empty-degraded-set"));

        s.faults = Some(crate::scenario::FaultSpec {
            degraded_mhz: Some(vec![999]),
            ..f
        });
        assert!(analyze(&s).codes().contains("fault-empty-degraded-set"));
    }

    #[test]
    fn empty_scenario_flags_no_tasks() {
        let mut s = valid_scenario();
        s.tasks.clear();
        assert!(analyze(&s).codes().contains("no-tasks"));
    }

    #[test]
    fn duplicate_names_flagged() {
        let mut s = valid_scenario();
        s.tasks.push(valid_task("t"));
        assert!(analyze(&s).codes().contains("duplicate-task-name"));
    }

    #[test]
    fn increasing_piecewise_flagged() {
        let mut s = valid_scenario();
        s.tasks[0].tuf = TufSpec::Piecewise {
            points: vec![(0, 1.0), (100, 5.0), (200, 0.0)],
        };
        assert!(analyze(&s).codes().contains("tuf-increasing"));
    }

    #[test]
    fn nu_of_one_on_decaying_tuf_is_unsolvable() {
        let mut s = valid_scenario();
        s.tasks[0].tuf = TufSpec::Exponential {
            umax: 10.0,
            tau_us: 1_000,
            termination_us: 10_000,
        };
        // ν = 1 can only be met at t = 0 on a strictly decaying TUF.
        assert!(analyze(&s).codes().contains("critical-time-unsolvable"));
    }

    #[test]
    fn dominated_frequency_detected_under_e3() {
        let mut s = valid_scenario();
        s.energy = EnergySpec::e3();
        let report = analyze(&s);
        assert!(
            report.codes().contains("dominated-frequency"),
            "{}",
            report.render_text()
        );
        // Warnings only: the scenario is still analyzable.
        assert!(!report.has_errors());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.entity.as_deref() == Some("frequency 36 MHz")));
    }

    #[test]
    fn a_model_with_no_energy_is_an_invalid_coefficient() {
        let text = valid_scenario()
            .render()
            .replace("energy E1\n", "energy custom 0 0 0 0\n");
        let spec = ScenarioSpec::parse(&text).expect("the scenario parses");
        assert_eq!(spec.energy.name, "custom");
        let report = analyze(&spec);
        let invalid: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::EnergyInvalidCoefficient)
            .collect();
        assert_eq!(invalid.len(), 1, "{}", report.render_text());
        assert!(invalid[0]
            .message
            .contains("all four coefficients are zero"));
        assert!(report.has_errors());
    }

    #[test]
    fn no_dominated_frequency_under_e1() {
        let report = analyze(&valid_scenario());
        assert!(!report.codes().contains("dominated-frequency"));
    }

    #[test]
    fn feasible_set_gets_theorem1_info() {
        let report = analyze(&valid_scenario());
        let t1 = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::Theorem1Speed)
            .expect("theorem1 finding");
        assert_eq!(t1.severity, Severity::Info);
    }

    #[test]
    fn overload_classified_as_warning_not_error() {
        let mut s = valid_scenario();
        // ~390k cycles per 10 ms window per task at 100 MHz ⇒ load ≫ 1
        // with eight copies.
        for i in 0..8 {
            let mut t = valid_task(&format!("t{i}"));
            t.demand = DemandSpec::Normal {
                mean: 150_000.0,
                variance: 150_000.0,
            };
            s.tasks.push(t);
        }
        let report = analyze(&s);
        assert!(
            report.codes().contains("overload"),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors());
    }

    /// Each of these passes every rule the passes state, yet the
    /// simulator refuses it: the backstop reports it once, with the
    /// simulator's message.
    #[test]
    fn the_backstop_reports_what_only_the_simulator_rejects() {
        let valid = valid_scenario().render();
        let task_end = "  assurance 1.0 0.96\nend\n";
        for (edit, message) in [
            (
                valid.replace(task_end, &format!("  arrival onoff 0 1\n{task_end}")),
                "on_windows",
            ),
            (
                valid.replace(task_end, &format!("  arrival poisson 0\n{task_end}")),
                "rate_per_window",
            ),
            (
                format!("{valid}faults\n  burst-extra 2 0\nend\n"),
                "window stride",
            ),
        ] {
            assert_ne!(edit, valid, "the edit changed nothing");
            let report = analyze(&ScenarioSpec::parse(&edit).expect("the scenario parses"));
            let errors: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert_eq!(errors.len(), 1, "{}", report.render_text());
            assert_eq!(errors[0].code, DiagCode::SimRejected);
            assert!(errors[0].message.contains(message), "{}", errors[0].message);
        }
    }

    #[test]
    fn the_backstop_accepts_an_idle_burst_stride_and_defers_to_other_errors() {
        // No extra arrivals, so the stride is never used: the regression
        // corpus writes `burst-extra 0 0`.
        let mut s = valid_scenario();
        s.faults = Some(crate::scenario::FaultSpec {
            burst_every: 0,
            ..Default::default()
        });
        let report = analyze(&s);
        assert!(!report.has_errors(), "{}", report.render_text());
        // A scenario that already has an error is not raised again
        // (raising it would fail on the empty task set).
        s.tasks.clear();
        let codes = analyze(&s).codes();
        assert!(codes.contains("no-tasks"), "{codes:?}");
        assert!(!codes.contains("sim-rejected"), "{codes:?}");
    }
}
