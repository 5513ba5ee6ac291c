//! The **energy interval analysis**: per-frequency UER brackets,
//! dominated-frequency detection, and statically-unreachable DVS
//! states.
//!
//! For a task with allocation `c`, TUF `U(·)`, and critical time `D`,
//! the **utility and energy ratio** of one job at frequency `f` is
//! `UER = U(sojourn)/(c·E(f))`. Without enumerating schedules, two
//! bounds bracket what any schedule can achieve at `f`:
//!
//! * **upper** — the job runs alone and immediately, so its sojourn is
//!   its own execution time `⌈c/f⌉` µs; the best per-task value is the
//!   scenario's `uer_max` at `f`;
//! * **lower** — when the frequency's demand-bound verdict is
//!   `Feasible`, every job completes by its critical time `D`, so each
//!   task's UER is at least `U(D)/(c·E(f))`; the worst per-task value is
//!   `uer_min`. At non-feasible frequencies nothing is guaranteed and
//!   `uer_min` is zero.
//!
//! A frequency is **dominated** when another table entry is no worse on
//! feasibility *and* energy per cycle (so no schedule improves by
//! selecting it), and **unreachable** when it lies below every task's
//! UER-optimal frequency — EUA\*'s offline clamp
//! `f = max(f, uer_optimal)` can never pick it.

use crate::demand::{FrequencyVerdict, Verdict};
use crate::ir::{quantized_exec_us, AnalysisIr};
use eua_platform::TimeDelta;

/// Absolute slop for energy comparisons.
const EPS: f64 = 1e-9;

/// The energy-side profile of one DVS state.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyProfile {
    /// The frequency in MHz.
    pub f_mhz: u64,
    /// Martin-model energy per cycle `E(f)`.
    pub energy_per_cycle: f64,
    /// Guaranteed-achievable UER floor (zero unless `Feasible`).
    pub uer_min: f64,
    /// Best-case single-job UER ceiling.
    pub uer_max: f64,
    /// The dominating frequency in MHz, if any.
    pub dominated_by: Option<u64>,
    /// Whether EUA\*'s offline UER clamp can ever select this state.
    pub reachable: bool,
}

/// Computes the energy profile of every table frequency, ascending.
///
/// `verdicts` must come from [`crate::demand::frequency_verdicts`] on
/// the same IR (same frequencies, same order); mismatched inputs yield
/// meaningless dominance ranks.
#[must_use]
pub fn energy_profiles(ir: &AnalysisIr, verdicts: &[FrequencyVerdict]) -> Vec<EnergyProfile> {
    let verdict_of = |mhz: u64| {
        verdicts
            .iter()
            .find(|v| v.f_mhz == mhz)
            .map_or(Verdict::Indeterminate, |v| v.verdict)
    };
    let all_step = ir.tasks.iter().all(|t| t.tuf.is_step());
    let min_uer_optimal = ir.tasks.iter().map(|t| t.uer_optimal_mhz).min();

    ir.freqs
        .iter()
        .map(|f| {
            let verdict = verdict_of(f.mhz);
            let (uer_min, uer_max) = uer_bracket(ir, f.mhz, f.energy_per_cycle, verdict);

            // A faster entry that is no worse on feasibility and no
            // dearer per cycle dominates; with step-only TUFs a slower
            // *feasible* entry that is strictly cheaper also dominates
            // (finishing earlier earns a step TUF nothing).
            let dominated_by = ir
                .freqs
                .iter()
                .filter(|g| g.mhz != f.mhz)
                .filter(|g| {
                    let faster_no_worse = g.mhz > f.mhz
                        && g.energy_per_cycle <= f.energy_per_cycle + EPS
                        && verdict_of(g.mhz) >= verdict;
                    let slower_step_win = all_step
                        && g.mhz < f.mhz
                        && verdict_of(g.mhz) == Verdict::Feasible
                        && g.energy_per_cycle < f.energy_per_cycle - EPS;
                    faster_no_worse || slower_step_win
                })
                .map(|g| g.mhz)
                .min();

            let reachable = min_uer_optimal.is_none_or(|min| f.mhz >= min);

            EnergyProfile {
                f_mhz: f.mhz,
                energy_per_cycle: f.energy_per_cycle,
                uer_min,
                uer_max,
                dominated_by,
                reachable,
            }
        })
        .collect()
}

/// The `[uer_min, uer_max]` bracket at one frequency.
fn uer_bracket(ir: &AnalysisIr, mhz: u64, energy_per_cycle: f64, verdict: Verdict) -> (f64, f64) {
    let mut uer_max = 0.0f64;
    let mut uer_min = f64::INFINITY;
    for t in &ir.tasks {
        #[allow(clippy::cast_precision_loss)]
        let denom = (t.allocation_cycles.max(1)) as f64 * energy_per_cycle;
        let sojourn = TimeDelta::from_micros(quantized_exec_us(t.allocation_cycles, mhz));
        uer_max = uer_max.max(t.tuf.utility(sojourn) / denom);
        let at_critical = t.tuf.utility(TimeDelta::from_micros(t.critical_us)) / denom;
        uer_min = uer_min.min(at_critical);
    }
    if verdict != Verdict::Feasible || !uer_min.is_finite() {
        uer_min = 0.0;
    }
    (uer_min, uer_max.max(0.0))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::demand::frequency_verdicts;
    use crate::ir::lower;
    use crate::scenario::{DemandSpec, EnergySpec, ScenarioSpec, TaskSpec, TufSpec};

    fn scenario(energy: EnergySpec, freqs: Vec<u64>) -> ScenarioSpec {
        ScenarioSpec {
            name: "energy-test".into(),
            frequencies_mhz: freqs,
            energy,
            tasks: vec![TaskSpec {
                name: "t".into(),
                tuf: TufSpec::Step {
                    umax: 10.0,
                    step_at_us: 10_000,
                },
                max_arrivals: 1.0,
                window_us: 10_000,
                demand: DemandSpec::Deterministic { cycles: 300_000.0 },
                nu: 1.0,
                rho: 0.5,
                declared_allocation: None,
                arrival: None,
            }],
            faults: None,
        }
    }

    fn profiles(energy: EnergySpec, freqs: Vec<u64>) -> Vec<EnergyProfile> {
        let ir = lower(&scenario(energy, freqs)).unwrap();
        let v = frequency_verdicts(&ir);
        energy_profiles(&ir, &v)
    }

    #[test]
    fn feasible_frequencies_have_positive_uer_floor() {
        // Needs 30 MHz: 25 infeasible (floor 0), 50/100 feasible.
        let p = profiles(EnergySpec::e1(), vec![25, 50, 100]);
        assert_eq!(p[0].uer_min, 0.0);
        assert!(p[1].uer_min > 0.0);
        assert!(p[2].uer_min > 0.0);
        for profile in &p {
            assert!(profile.uer_max >= profile.uer_min);
        }
    }

    #[test]
    fn under_e1_with_step_tuf_slower_feasible_dominates_faster() {
        // E1: energy rises with f; a step TUF earns nothing by finishing
        // early. 50 MHz (feasible, cheap) dominates 100 MHz.
        let p = profiles(EnergySpec::e1(), vec![25, 50, 100]);
        let at_100 = p.iter().find(|x| x.f_mhz == 100).unwrap();
        assert_eq!(at_100.dominated_by, Some(50));
        // 50 MHz itself is undominated: 25 MHz is infeasible, 100 MHz
        // costs more energy per cycle.
        let at_50 = p.iter().find(|x| x.f_mhz == 50).unwrap();
        assert_eq!(at_50.dominated_by, None);
    }

    #[test]
    fn under_e3_the_cheap_interior_frequency_dominates_slow_states() {
        // E3's knee is ≈ 63 MHz at f_m = 100: 36 MHz is both slower and
        // dearer per cycle than 64 MHz, hence dominated.
        let p = profiles(EnergySpec::e3(), vec![36, 64, 100]);
        let at_36 = p.iter().find(|x| x.f_mhz == 36).unwrap();
        assert_eq!(at_36.dominated_by, Some(64));
    }

    #[test]
    fn unreachable_states_sit_below_every_uer_optimum() {
        // Under E3 the UER optimum never drops below the knee (~64 MHz
        // here), so 36 MHz is statically unreachable for EUA*'s clamp.
        let p = profiles(EnergySpec::e3(), vec![36, 64, 100]);
        let at_36 = p.iter().find(|x| x.f_mhz == 36).unwrap();
        assert!(!at_36.reachable);
        let at_64 = p.iter().find(|x| x.f_mhz == 64).unwrap();
        assert!(at_64.reachable);
    }

    #[test]
    fn profiles_align_with_the_frequency_table() {
        let p = profiles(EnergySpec::e2(), vec![36, 55, 64, 73, 82, 91, 100]);
        let mhz: Vec<u64> = p.iter().map(|x| x.f_mhz).collect();
        assert_eq!(mhz, vec![36, 55, 64, 73, 82, 91, 100]);
        for profile in &p {
            assert!(profile.energy_per_cycle > 0.0);
        }
    }
}
