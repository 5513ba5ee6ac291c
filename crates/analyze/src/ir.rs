//! The typed **analysis IR**: a fully-resolved scenario the semantic
//! passes can compute on without re-validating anything.
//!
//! The raw [`ScenarioSpec`] deliberately holds whatever the user wrote;
//! the lint passes diagnose it field by field. The semantic analyses
//! (demand-bound verdicts, energy intervals) instead need everything
//! *resolved at once*: Chebyshev allocations ceiled to whole cycles,
//! critical times solved from `U(D) ≥ ν·U_max`, the frequency table
//! sorted with per-cycle energy attached, and each task's UER-optimal
//! frequency from EUA\*'s `offlineComputing`. [`lower`] performs that
//! resolution in one fallible step; any failure message simply names the
//! first unresolvable piece (the lint passes have already reported the
//! underlying problem as diagnostics).

use eua_platform::{
    optimal_uer_frequency, Cycles, EnergyModel, EnergySetting, Frequency, FrequencyTable,
};
use eua_tuf::Tuf;

use crate::scenario::ScenarioSpec;

/// One task, fully resolved for semantic analysis.
#[derive(Debug, Clone)]
pub struct TaskIr {
    /// The task's name (diagnostics anchor on it).
    pub name: String,
    /// The validated TUF, for utility evaluation.
    pub tuf: Tuf,
    /// Maximum utility `U_max = U(0)`.
    pub umax: f64,
    /// Required utility fraction ν.
    pub nu: f64,
    /// Required timeliness probability ρ.
    pub rho: f64,
    /// Demand mean `E(Y)` in cycles.
    pub mean_cycles: f64,
    /// Demand variance `Var(Y)` in cycles².
    pub variance_cycles: f64,
    /// The Chebyshev allocation `⌈E(Y) + sqrt(ρ/(1−ρ)·Var(Y))⌉` in
    /// whole cycles — the per-job budget the scheduler provisions.
    pub allocation_cycles: u64,
    /// The allocation the `.scn` file declared, if any (cross-checked
    /// by the Chebyshev pass, not used in the math).
    pub declared_allocation: Option<f64>,
    /// Critical time `D` in µs, solved from `U(D) ≥ ν·U_max`.
    pub critical_us: u64,
    /// UAM window `P` in µs.
    pub window_us: u64,
    /// UAM arrival bound `a`.
    pub arrivals: u32,
    /// The task's UER-optimal frequency in MHz (EUA\*'s offline clamp
    /// never selects below it).
    pub uer_optimal_mhz: u64,
}

impl TaskIr {
    /// Worst-case per-window demand `a·c` in cycles.
    #[must_use]
    pub fn window_demand_cycles(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let demand = u64::from(self.arrivals).saturating_mul(self.allocation_cycles) as f64;
        demand
    }
}

/// One DVS state with its per-cycle energy under the scenario's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqIr {
    /// The frequency in MHz (= cycles/µs).
    pub mhz: u64,
    /// Martin-model energy per cycle `E(f)` at this frequency.
    pub energy_per_cycle: f64,
}

/// A scenario resolved for semantic analysis.
#[derive(Debug, Clone)]
pub struct AnalysisIr {
    /// The scenario's name.
    pub name: String,
    /// Resolved tasks, in declaration order.
    pub tasks: Vec<TaskIr>,
    /// The frequency table ascending, positive, deduplicated, with
    /// per-cycle energy attached.
    pub freqs: Vec<FreqIr>,
    /// The table's top frequency in MHz.
    pub f_max_mhz: u64,
}

impl AnalysisIr {
    /// The bound energy model (re-derivable, kept for the energy pass).
    #[must_use]
    pub fn frequency(&self, mhz: u64) -> Frequency {
        Frequency::from_mhz(mhz)
    }
}

/// Resolves a raw spec into an [`AnalysisIr`].
///
/// # Errors
///
/// Returns a message naming the first unresolvable piece: an unusable
/// frequency table, invalid energy coefficients, or a task the simulator
/// types reject. Callers run the lint passes first, so these messages
/// never reach users as the *only* explanation.
pub fn lower(spec: &ScenarioSpec) -> Result<AnalysisIr, String> {
    let mut mhz: Vec<u64> = spec
        .frequencies_mhz
        .iter()
        .copied()
        .filter(|&f| f > 0)
        .collect();
    mhz.sort_unstable();
    mhz.dedup();
    if mhz.is_empty() {
        return Err("no positive frequency in the table".into());
    }
    let table = FrequencyTable::new(mhz.iter().copied()).map_err(|e| e.to_string())?;
    let f_max = table.max();

    let model = bound_energy_model(spec, f_max)?;
    let freqs = mhz
        .iter()
        .map(|&m| FreqIr {
            mhz: m,
            energy_per_cycle: model.energy_per_cycle(Frequency::from_mhz(m)),
        })
        .collect();

    let mut tasks = Vec::with_capacity(spec.tasks.len());
    for raw in &spec.tasks {
        let task = raw
            .to_task()
            .map_err(|e| format!("task `{}`: {e}", raw.name))?;
        let tuf = task.tuf().clone();
        let allocation = task.allocation();
        let uer_optimal = {
            let u = |t| tuf.utility(t);
            optimal_uer_frequency(&table, &model, allocation, u)
        };
        tasks.push(TaskIr {
            name: raw.name.clone(),
            umax: tuf.max_utility(),
            nu: raw.nu,
            rho: raw.rho,
            mean_cycles: raw.demand.mean(),
            variance_cycles: raw.demand.variance(),
            allocation_cycles: allocation.get(),
            declared_allocation: raw.declared_allocation,
            critical_us: task.critical_offset().as_micros(),
            window_us: raw.window_us,
            arrivals: task.uam().max_arrivals(),
            uer_optimal_mhz: uer_optimal.as_mhz(),
            tuf,
        });
    }

    Ok(AnalysisIr {
        name: spec.name.clone(),
        tasks,
        freqs,
        f_max_mhz: f_max.as_mhz(),
    })
}

/// Maps the raw energy spec onto a validated, bound [`EnergyModel`].
fn bound_energy_model(spec: &ScenarioSpec, f_max: Frequency) -> Result<EnergyModel, String> {
    use crate::scenario::EnergySpec;
    let e = &spec.energy;
    let setting = if *e == EnergySpec::e1() {
        EnergySetting::e1()
    } else if *e == EnergySpec::e2() {
        EnergySetting::e2()
    } else if *e == EnergySpec::e3() {
        EnergySetting::e3()
    } else {
        EnergySetting::custom("custom", e.s3, e.s2, e.s1_rel, e.s0_rel)
            .map_err(|err| format!("energy model `{}`: {err}", e.name))?
    };
    Ok(setting.model(f_max))
}

/// The per-job execution time of `cycles` at `mhz`, in whole µs
/// (matching the simulator's integer-µs quantization exactly).
#[must_use]
pub fn quantized_exec_us(cycles: u64, mhz: u64) -> u64 {
    Frequency::from_mhz(mhz)
        .execution_time(Cycles::new(cycles))
        .as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DemandSpec, EnergySpec, TaskSpec, TufSpec};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "ir-demo".into(),
            frequencies_mhz: vec![100, 36, 64, 64],
            energy: EnergySpec::e3(),
            tasks: vec![TaskSpec {
                name: "t".into(),
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
            }],
            faults: None,
        }
    }

    #[test]
    fn lowering_sorts_and_dedups_frequencies() {
        let ir = lower(&spec()).expect("lowers");
        let mhz: Vec<u64> = ir.freqs.iter().map(|f| f.mhz).collect();
        assert_eq!(mhz, vec![36, 64, 100]);
        assert_eq!(ir.f_max_mhz, 100);
    }

    #[test]
    fn lowering_resolves_chebyshev_allocation() {
        let ir = lower(&spec()).expect("lowers");
        let t = &ir.tasks[0];
        let c = 150_000.0 + (0.96f64 / 0.04 * 150_000.0).sqrt();
        #[allow(clippy::cast_precision_loss)]
        let got = t.allocation_cycles as f64;
        assert!((got - c.ceil()).abs() < 1.0, "{got} vs {c}");
        assert_eq!(t.critical_us, 10_000);
        assert_eq!(t.arrivals, 2);
        assert!((t.window_demand_cycles() - 2.0 * got).abs() < 1e-9);
    }

    #[test]
    fn lowering_attaches_energy_and_uer_optimum() {
        let ir = lower(&spec()).expect("lowers");
        // Under E3 at f_m = 100 MHz, E(f) is non-monotone; every entry
        // must carry a positive energy, and the UER optimum must be a
        // table entry.
        for f in &ir.freqs {
            assert!(f.energy_per_cycle > 0.0);
        }
        let t = &ir.tasks[0];
        assert!(ir.freqs.iter().any(|f| f.mhz == t.uer_optimal_mhz));
    }

    #[test]
    fn lowering_fails_without_positive_frequencies() {
        let mut s = spec();
        s.frequencies_mhz = vec![0];
        assert!(lower(&s).is_err());
        s.frequencies_mhz.clear();
        assert!(lower(&s).is_err());
    }

    #[test]
    fn lowering_names_the_failing_task() {
        let mut s = spec();
        s.tasks[0].nu = 2.0;
        let err = lower(&s).unwrap_err();
        assert!(err.contains("task `t`"), "{err}");
    }

    #[test]
    fn quantized_exec_matches_simulator_rounding() {
        // 101 cycles at 50 MHz: 2.02 µs → 3 µs (ceil), as the engine does.
        assert_eq!(quantized_exec_us(101, 50), 3);
        assert_eq!(quantized_exec_us(100, 50), 2);
    }
}
