//! The **UAM demand-bound analysis**: per-frequency schedulability
//! verdicts with witness windows.
//!
//! The engine simulates in integer microseconds: a job of `c` cycles at
//! frequency `f` occupies exactly `⌈c/f⌉` µs of the processor (the
//! sub-µs remainder of the final microsecond is wasted). Two demand
//! models therefore bracket the simulator:
//!
//! * the **quantized upper model** charges each job its full occupancy,
//!   `C'_i = a_i·⌈c_i/f⌉·f` cycles per window — exact for the engine,
//!   never optimistic;
//! * the **continuous lower model** charges the raw allocation,
//!   `C_i = a_i·c_i` — a lower bound on any processor's work.
//!
//! If the quantized model fits at `f` (BRH scan says [`Fits`]) the
//! scenario is [`Verdict::Feasible`] there: EDF-by-critical-time on the
//! integer-time system meets every allocation-level deadline, so
//! fault-free simulation meets every `{ν, ρ}` assurance. If even the
//! continuous model overloads, the scenario is [`Verdict::Infeasible`]
//! with a concrete witness interval. Between the two — or when a scan
//! exhausts its point budget — the analysis reports
//! [`Verdict::Indeterminate`] rather than guess.
//!
//! [`Fits`]: DemandVerdict::Fits

use eua_uam::dbf::{self, DemandCurve, DemandVerdict};

use crate::ir::{quantized_exec_us, AnalysisIr, TaskIr};

/// Point budget for each BRH scan: generous for realistic scenarios
/// (busy periods of a few hundred windows) while bounding pathological
/// near-critical utilizations. Exhausting it yields `Indeterminate`,
/// never a wrong verdict.
pub const MAX_WITNESS_POINTS: usize = 20_000;

/// The three-way semantic verdict at one frequency.
///
/// Ordered `Infeasible < Indeterminate < Feasible` so dominance logic
/// can compare "no worse on feasibility" with `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The continuous lower model overloads: no processor at this speed
    /// can clear the allocation-level demand. Carries a witness.
    Infeasible,
    /// Neither proof applies (quantization gap or scan budget).
    Indeterminate,
    /// The quantized upper model fits: the simulator meets every
    /// allocation-level critical time at this frequency.
    Feasible,
}

impl Verdict {
    /// Lowercase name for renderers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Infeasible => "infeasible",
            Verdict::Indeterminate => "indeterminate",
            Verdict::Feasible => "feasible",
        }
    }
}

/// A concrete interval proving infeasibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WitnessWindow {
    /// Interval length `L` in µs.
    pub interval_us: u64,
    /// Forced demand `h(L)` in cycles.
    pub demand_cycles: f64,
    /// Capacity `f·L` in cycles (strictly less than the demand).
    pub capacity_cycles: f64,
}

/// The verdict at one frequency, with its utilization breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyVerdict {
    /// The frequency in MHz.
    pub f_mhz: u64,
    /// The three-way verdict.
    pub verdict: Verdict,
    /// The overload witness, present iff `verdict` is `Infeasible`.
    pub witness: Option<WitnessWindow>,
    /// Total long-run utilization `Σ a_i·c_i/P_i` in MHz (cycles/µs);
    /// independent of `f_mhz`.
    pub utilization_mhz: f64,
    /// Per-task utilization shares `(name, a·c/P)` in MHz.
    pub shares: Vec<(String, f64)>,
}

/// The continuous lower-model curve of one task: raw allocation cycles.
fn continuous_curve(t: &TaskIr) -> DemandCurve {
    DemandCurve {
        window_demand: t.window_demand_cycles(),
        critical_us: t.critical_us,
        window_us: t.window_us,
    }
}

/// The quantized upper-model curve at `mhz`: each job is charged its
/// whole-µs occupancy, `⌈c/f⌉·f` cycles.
fn quantized_curve(t: &TaskIr, mhz: u64) -> DemandCurve {
    let occupancy_us = quantized_exec_us(t.allocation_cycles, mhz);
    #[allow(clippy::cast_precision_loss)]
    let per_job = (occupancy_us.saturating_mul(mhz)) as f64;
    DemandCurve {
        window_demand: f64::from(t.arrivals) * per_job,
        critical_us: t.critical_us,
        window_us: t.window_us,
    }
}

/// Runs the demand-bound analysis at every table frequency, ascending.
#[must_use]
pub fn frequency_verdicts(ir: &AnalysisIr) -> Vec<FrequencyVerdict> {
    let continuous: Vec<DemandCurve> = ir.tasks.iter().map(continuous_curve).collect();
    let utilization = dbf::total_utilization(&continuous);
    let shares: Vec<(String, f64)> = ir
        .tasks
        .iter()
        .zip(&continuous)
        .map(|(t, c)| (t.name.clone(), c.utilization()))
        .collect();

    ir.freqs
        .iter()
        .map(|f| {
            #[allow(clippy::cast_precision_loss)]
            let speed = f.mhz as f64;
            let quantized: Vec<DemandCurve> =
                ir.tasks.iter().map(|t| quantized_curve(t, f.mhz)).collect();
            let (verdict, witness) =
                match dbf::demand_witness(&quantized, speed, MAX_WITNESS_POINTS) {
                    DemandVerdict::Fits => (Verdict::Feasible, None),
                    _ => match dbf::demand_witness(&continuous, speed, MAX_WITNESS_POINTS) {
                        DemandVerdict::Overload {
                            interval_us,
                            demand_cycles,
                        } => (
                            Verdict::Infeasible,
                            Some(WitnessWindow {
                                interval_us,
                                demand_cycles,
                                #[allow(clippy::cast_precision_loss)]
                                capacity_cycles: speed * interval_us as f64,
                            }),
                        ),
                        _ => (Verdict::Indeterminate, None),
                    },
                };
            FrequencyVerdict {
                f_mhz: f.mhz,
                verdict,
                witness,
                utilization_mhz: utilization,
                shares: shares.clone(),
            }
        })
        .collect()
}

/// The verdict at the table's top frequency `f_m`.
#[must_use]
pub fn verdict_at_fmax(verdicts: &[FrequencyVerdict]) -> Option<&FrequencyVerdict> {
    verdicts.last()
}

/// The lowest frequency whose verdict is [`Verdict::Feasible`] — the
/// scenario's static feasibility floor.
#[must_use]
pub fn feasibility_floor(verdicts: &[FrequencyVerdict]) -> Option<u64> {
    verdicts
        .iter()
        .find(|v| v.verdict == Verdict::Feasible)
        .map(|v| v.f_mhz)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ir::lower;
    use crate::scenario::{DemandSpec, EnergySpec, ScenarioSpec, TaskSpec, TufSpec};

    fn scenario(cycles: f64, window_us: u64, arrivals: f64, freqs: Vec<u64>) -> ScenarioSpec {
        ScenarioSpec {
            name: "demand-test".into(),
            frequencies_mhz: freqs,
            energy: EnergySpec::e1(),
            tasks: vec![TaskSpec {
                name: "t".into(),
                tuf: TufSpec::Step {
                    umax: 10.0,
                    step_at_us: window_us,
                },
                max_arrivals: arrivals,
                window_us,
                demand: DemandSpec::Deterministic { cycles },
                nu: 1.0,
                rho: 0.5,
                declared_allocation: None,
                arrival: None,
            }],
            faults: None,
        }
    }

    #[test]
    fn verdicts_are_monotone_in_frequency() {
        // 300k cycles per 10 ms ⇒ needs 30 MHz continuous; with
        // quantization, exactly ⌈300k/f⌉ µs per job.
        let ir = lower(&scenario(300_000.0, 10_000, 1.0, vec![25, 50, 75, 100])).unwrap();
        let v = frequency_verdicts(&ir);
        assert_eq!(v.len(), 4);
        assert_eq!(
            v[0].verdict,
            Verdict::Infeasible,
            "25 MHz under 30 MHz load"
        );
        assert!(v[0].witness.is_some());
        for verdict in &v[1..] {
            assert_eq!(verdict.verdict, Verdict::Feasible, "{} MHz", verdict.f_mhz);
            assert!(verdict.witness.is_none());
        }
        // Monotone: once feasible, faster frequencies never get worse.
        for pair in v.windows(2) {
            assert!(pair[1].verdict >= pair[0].verdict);
        }
    }

    #[test]
    fn witness_demand_exceeds_capacity() {
        let ir = lower(&scenario(300_000.0, 10_000, 2.0, vec![36, 55])).unwrap();
        let v = frequency_verdicts(&ir);
        // 600k cycles per 10 ms ⇒ 60 MHz: both table entries overload.
        for fv in &v {
            assert_eq!(fv.verdict, Verdict::Infeasible);
            let w = fv.witness.expect("witness");
            assert!(w.demand_cycles > w.capacity_cycles + 1e-9);
            #[allow(clippy::cast_precision_loss)]
            let cap = fv.f_mhz as f64 * w.interval_us as f64;
            assert!((w.capacity_cycles - cap).abs() < 1e-6);
        }
        assert!((v[0].utilization_mhz - 60.0).abs() < 1e-9);
        assert_eq!(v[0].shares.len(), 1);
    }

    #[test]
    fn quantization_gap_yields_indeterminate() {
        // 999 cycles per 100 µs at 10 MHz: continuous needs 9.99 MHz
        // (fits), but each job occupies ⌈999/10⌉ = 100 µs — the whole
        // window — so the quantized model saturates exactly. At 10 MHz
        // capacity is 10·100 = 1000 = 100·10 quantized demand: still
        // fits. Shrink the window to 99 µs instead: quantized demand
        // 100 µs > 99 µs window ⇒ quantized overload, continuous
        // 999 ≤ 10·99 = 990? No - 999 > 990, continuous also overloads.
        // Use 980 cycles / 99 µs: continuous 980 ≤ 990 fits, quantized
        // ⌈980/10⌉ = 98 µs·10 = 980... also fits. Use 985 cycles with
        // f = 10: quantized ⌈985/10⌉·10 = 990 ≤ 990 fits. 986: ⌈98.6⌉ =
        // 99 µs·10 = 990 ≤ 990 fits. 991: quantized 1000 > 990
        // overloads, continuous 991 > 990 overloads ⇒ infeasible.
        // A genuine gap needs multiple jobs: two tasks at 5 cycles/99 µs
        // and one at 981: quantized ⌈981/10⌉=99·10=990 + ⌈5/10⌉=1·10=10
        // = 1000 > 990, continuous 986 ≤ 990 ⇒ Indeterminate.
        let mut s = scenario(981.0, 99, 1.0, vec![10]);
        s.tasks.push(TaskSpec {
            name: "tiny".into(),
            tuf: TufSpec::Step {
                umax: 1.0,
                step_at_us: 99,
            },
            max_arrivals: 1.0,
            window_us: 99,
            demand: DemandSpec::Deterministic { cycles: 5.0 },
            nu: 1.0,
            rho: 0.5,
            declared_allocation: None,
            arrival: None,
        });
        let ir = lower(&s).unwrap();
        let v = frequency_verdicts(&ir);
        assert_eq!(v[0].verdict, Verdict::Indeterminate, "{v:?}");
        assert!(v[0].witness.is_none());
    }

    #[test]
    fn floor_and_fmax_helpers() {
        let ir = lower(&scenario(300_000.0, 10_000, 1.0, vec![25, 50, 75, 100])).unwrap();
        let v = frequency_verdicts(&ir);
        assert_eq!(feasibility_floor(&v), Some(50));
        assert_eq!(verdict_at_fmax(&v).unwrap().f_mhz, 100);
        assert_eq!(verdict_at_fmax(&v).unwrap().verdict, Verdict::Feasible);
    }

    #[test]
    fn verdict_ordering_supports_dominance() {
        assert!(Verdict::Feasible > Verdict::Indeterminate);
        assert!(Verdict::Indeterminate > Verdict::Infeasible);
        assert_eq!(Verdict::Feasible.as_str(), "feasible");
    }
}
