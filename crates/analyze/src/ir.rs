//! The typed **analysis IR**: a fully-resolved scenario the semantic
//! passes can compute on without re-validating anything.
//!
//! The raw [`ScenarioSpec`] deliberately holds whatever the user wrote;
//! the lint passes diagnose it field by field. The semantic analyses
//! (demand-bound verdicts, energy intervals) instead need everything
//! *resolved at once*: each task raised into the simulator's [`Task`]
//! (its Chebyshev allocation in whole cycles, its critical time solved
//! from `U(D) ≥ ν·U_max`), the frequency table sorted with the
//! platform's per-cycle energy attached, and each task's UER-optimal
//! frequency from EUA\*'s `offlineComputing`. [`lower`] performs that
//! resolution in one fallible step, and [`resolve`] does it over tasks
//! the caller already raised; any failure message simply names the
//! first unresolvable piece (the lint passes have already reported the
//! underlying problem as diagnostics).

use eua_platform::{optimal_uer_frequency, Cycles, Frequency, FrequencyTable};
use eua_sim::Task;

use crate::scenario::ScenarioSpec;

/// One task, fully resolved for semantic analysis.
#[derive(Debug, Clone)]
pub struct TaskIr {
    /// The simulator's task: name, TUF, `⟨a, P⟩`, Chebyshev allocation
    /// and critical time.
    pub task: Task,
    /// The task's UER-optimal frequency in MHz (EUA\*'s offline clamp
    /// never selects below it).
    pub uer_optimal_mhz: u64,
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
    /// Resolved tasks, in declaration order.
    pub tasks: Vec<TaskIr>,
    /// The frequency table ascending, positive, deduplicated, with
    /// per-cycle energy attached.
    pub freqs: Vec<FreqIr>,
    /// The table's top frequency in MHz.
    pub f_max_mhz: u64,
}

/// Resolves a raw spec into an [`AnalysisIr`], raising its tasks with
/// [`ScenarioSpec::to_tasks`].
///
/// # Errors
///
/// Returns a message naming the first unresolvable piece: a task the
/// simulator types reject, an unusable frequency table, or invalid
/// energy coefficients. Callers run the lint passes first, so these
/// messages never reach users as the *only* explanation.
pub fn lower(spec: &ScenarioSpec) -> Result<AnalysisIr, String> {
    resolve(spec, spec.to_tasks()?)
}

/// Resolves `spec` over `tasks`, its tasks already raised (in
/// declaration order).
///
/// # Errors
///
/// Returns a message naming an unusable frequency table or invalid
/// energy coefficients.
pub fn resolve(spec: &ScenarioSpec, tasks: Vec<Task>) -> Result<AnalysisIr, String> {
    let mut mhz: Vec<u64> = spec
        .frequencies_mhz
        .iter()
        .copied()
        .filter(|&f| f > 0)
        .collect();
    mhz.sort_unstable();
    mhz.dedup();
    let table = FrequencyTable::new(mhz).map_err(|e| e.to_string())?;
    let f_max = table.max();

    let model = spec
        .energy
        .setting()
        .map_err(|e| format!("energy model `{}`: {e}", spec.energy.name))?
        .model(f_max);
    let freqs = table
        .iter()
        .map(|f| FreqIr {
            mhz: f.as_mhz(),
            energy_per_cycle: model.energy_per_cycle(f),
        })
        .collect();

    let tasks = tasks
        .into_iter()
        .map(|task| {
            let tuf = task.tuf();
            let uer_optimal =
                optimal_uer_frequency(&table, &model, task.allocation(), |t| tuf.utility(t));
            TaskIr {
                uer_optimal_mhz: uer_optimal.as_mhz(),
                task,
            }
        })
        .collect();

    Ok(AnalysisIr {
        tasks,
        freqs,
        f_max_mhz: f_max.as_mhz(),
    })
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
        let t = &ir.tasks[0].task;
        let c = 150_000.0 + (0.96f64 / 0.04 * 150_000.0).sqrt();
        let got = t.allocation().as_f64();
        assert!((got - c.ceil()).abs() < 1.0, "{got} vs {c}");
        assert_eq!(t.critical_offset().as_micros(), 10_000);
        assert_eq!(t.uam().max_arrivals(), 2);
        assert!((t.window_demand().as_f64() - 2.0 * got).abs() < 1e-9);
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
