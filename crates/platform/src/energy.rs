//! Martin's system-level energy-consumption model.
//!
//! When a component operates at frequency `f`, its dynamic power is a
//! polynomial in `f`: the CPU core contributes `S3·f³`, second-order effects
//! (DC-DC regulator efficiency, CMOS leakage) contribute `S2·f²`, fixed-
//! voltage components such as main memory contribute `S1·f`, and
//! frequency-independent components such as displays contribute `S0`.
//! Dividing system power by the cycle rate gives the **energy per cycle**
//!
//! ```text
//! E(f) = S3·f² + S2·f + S1 + S0/f        (paper, Equation 1)
//! ```
//!
//! Unlike the CPU-only model (`S3` alone), `E(f)` is not monotonic: the
//! `S0/f` term grows as the clock slows, so there is an interior
//! energy-optimal frequency. This is what makes the per-task UER-optimal
//! clamp in EUA\* meaningful.

use std::fmt;

use crate::error::PlatformError;
use crate::frequency::{Frequency, FrequencyTable};
use crate::units::Cycles;

/// The per-cycle energy envelope of a discrete frequency table under one
/// [`EnergyModel`]: the cheapest and dearest `E(f)` over the table, with
/// the frequencies that attain them.
///
/// Because `E(f)` is non-monotonic (the `S0/f` term), the cheapest
/// frequency is generally *interior*; static analyses use the envelope to
/// bracket achievable utility-and-energy ratios without enumerating
/// schedules. Ties go to the lowest frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyInterval {
    /// Smallest per-cycle energy over the table.
    pub min: f64,
    /// Largest per-cycle energy over the table.
    pub max: f64,
    /// Frequency attaining `min` (lowest such, on ties).
    pub cheapest: Frequency,
    /// Frequency attaining `max` (lowest such, on ties).
    pub dearest: Frequency,
}

/// Coefficients `(S3, S2, S1, S0)` of Martin's model, before binding to a
/// concrete maximum frequency.
///
/// The paper's Table 2 expresses the static coefficients relative to the
/// maximum frequency `f_m` so that each power term is comparable in
/// magnitude at full speed; [`EnergySetting::model`] performs that binding.
///
/// # Example
///
/// ```
/// use eua_platform::{EnergySetting, Frequency};
///
/// let e3 = EnergySetting::e3();
/// let model = e3.model(Frequency::from_mhz(100));
/// // Under E3 the optimal frequency is interior, not the minimum:
/// let opt = model.energy_optimal_speed();
/// assert!(opt > 0.0 && opt < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySetting {
    name: &'static str,
    /// Cubic (CPU core) power coefficient.
    s3: f64,
    /// Quadratic (regulator/leakage) coefficient.
    s2: f64,
    /// Linear coefficient as a fraction of `f_m²` (fixed-voltage components).
    s1_rel: f64,
    /// Constant coefficient as a fraction of `f_m³` (constant-power
    /// components).
    s0_rel: f64,
}

impl EnergySetting {
    /// Table 2 setting **E1**: the conventional CPU-only model,
    /// `(S3, S2, S1, S0) = (1, 0, 0, 0)`.
    #[must_use]
    pub const fn e1() -> Self {
        EnergySetting {
            name: "E1",
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.0,
            s0_rel: 0.0,
        }
    }

    /// Table 2 setting **E2**: mild static consumption,
    /// `S1 = 0.1·f_m²`, `S0 = 0.1·f_m³`.
    #[must_use]
    pub const fn e2() -> Self {
        EnergySetting {
            name: "E2",
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.1,
            s0_rel: 0.1,
        }
    }

    /// Table 2 setting **E3**: heavy static consumption,
    /// `S1 = 0.5·f_m²`, `S0 = 0.5·f_m³`.
    #[must_use]
    pub const fn e3() -> Self {
        EnergySetting {
            name: "E3",
            s3: 1.0,
            s2: 0.0,
            s1_rel: 0.5,
            s0_rel: 0.5,
        }
    }

    /// All three Table 2 settings, in order.
    #[must_use]
    pub const fn all() -> [EnergySetting; 3] {
        [
            EnergySetting::e1(),
            EnergySetting::e2(),
            EnergySetting::e3(),
        ]
    }

    /// A custom setting with explicit relative coefficients.
    ///
    /// `s1_rel` and `s0_rel` are fractions of `f_m²` and `f_m³`
    /// respectively, mirroring how the paper's Table 2 scales the static
    /// terms to the platform's top speed.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidEnergyCoefficient`] if any
    /// coefficient is negative or non-finite, and
    /// [`PlatformError::ZeroEnergyModel`] if all four are zero.
    pub fn custom(
        name: &'static str,
        s3: f64,
        s2: f64,
        s1_rel: f64,
        s0_rel: f64,
    ) -> Result<Self, PlatformError> {
        for (coeff_name, value) in [("s3", s3), ("s2", s2), ("s1", s1_rel), ("s0", s0_rel)] {
            if !value.is_finite() || value < 0.0 {
                return Err(PlatformError::InvalidEnergyCoefficient {
                    name: coeff_name,
                    value,
                });
            }
        }
        if [s3, s2, s1_rel, s0_rel].iter().all(|&c| c == 0.0) {
            return Err(PlatformError::ZeroEnergyModel);
        }
        Ok(EnergySetting {
            name,
            s3,
            s2,
            s1_rel,
            s0_rel,
        })
    }

    /// The setting's display name (`"E1"`, `"E2"`, `"E3"`, or custom).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unbound coefficients `(S3, S2, S1/fm², S0/fm³)` — the exact
    /// values [`EnergySetting::model`] scales by `f_max`. Recording these
    /// (rather than the bound model) lets an offline auditor rebind the
    /// same setting to a different table's maximum frequency.
    #[must_use]
    pub fn relative_coefficients(&self) -> (f64, f64, f64, f64) {
        (self.s3, self.s2, self.s1_rel, self.s0_rel)
    }

    /// Binds the setting to a platform's maximum frequency, producing a
    /// concrete [`EnergyModel`].
    #[must_use]
    pub fn model(&self, f_max: Frequency) -> EnergyModel {
        let fm = f_max.as_f64();
        EnergyModel {
            name: self.name,
            s3: self.s3,
            s2: self.s2,
            s1: self.s1_rel * fm * fm,
            s0: self.s0_rel * fm * fm * fm,
        }
    }
}

impl fmt::Display for EnergySetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: S3={} S2={} S1={}·fm² S0={}·fm³",
            self.name, self.s3, self.s2, self.s1_rel, self.s0_rel
        )
    }
}

/// A concrete instance of Martin's model with bound coefficients.
///
/// Produced by [`EnergySetting::model`]; see the module documentation for
/// the formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    name: &'static str,
    s3: f64,
    s2: f64,
    s1: f64,
    s0: f64,
}

impl EnergyModel {
    /// The underlying setting's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bound coefficients `(S3, S2, S1, S0)`.
    #[must_use]
    pub fn coefficients(&self) -> (f64, f64, f64, f64) {
        (self.s3, self.s2, self.s1, self.s0)
    }

    /// Energy consumed per cycle at frequency `f`:
    /// `E(f) = S3·f² + S2·f + S1 + S0/f`.
    #[must_use]
    pub fn energy_per_cycle(&self, f: Frequency) -> f64 {
        let fv = f.as_f64();
        self.s3 * fv * fv + self.s2 * fv + self.s1 + self.s0 / fv
    }

    /// Energy consumed executing `cycles` of work at frequency `f`.
    #[must_use]
    pub fn energy_for(&self, cycles: Cycles, f: Frequency) -> f64 {
        cycles.as_f64() * self.energy_per_cycle(f)
    }

    /// The per-cycle energy envelope of `table` under this model.
    ///
    /// Iterates the table ascending; strict comparisons mean the lowest
    /// frequency wins ties for both ends of the interval.
    #[must_use]
    pub fn per_cycle_interval(&self, table: &FrequencyTable) -> EnergyInterval {
        // Tables are non-empty by construction; seed from the slowest
        // frequency and sweep the rest.
        let first = table.min();
        let e0 = self.energy_per_cycle(first);
        let mut interval = EnergyInterval {
            min: e0,
            max: e0,
            cheapest: first,
            dearest: first,
        };
        for f in table.iter() {
            let e = self.energy_per_cycle(f);
            if e < interval.min {
                interval.min = e;
                interval.cheapest = f;
            }
            if e > interval.max {
                interval.max = e;
                interval.dearest = f;
            }
        }
        interval
    }

    /// The continuous frequency (cycles/µs) minimizing energy per cycle.
    ///
    /// Solving `dE/df = 2·S3·f + S2 − S0/f² = 0`; with `S2 = 0` this is
    /// `f* = (S0 / (2·S3))^(1/3)`. Returns `0.0` when the model is CPU-only
    /// (`S0 = 0`), meaning "the slower the better".
    #[must_use]
    pub fn energy_optimal_speed(&self) -> f64 {
        if self.s0 == 0.0 {
            return 0.0;
        }
        if self.s3 == 0.0 && self.s2 == 0.0 {
            // Pure constant + static linear: energy per cycle strictly
            // decreases with f, so run as fast as possible.
            return f64::INFINITY;
        }
        // Newton iteration on g(f) = 2·S3·f³ + S2·f² − S0 = 0, which has a
        // single positive root because g is increasing for f > 0.
        let mut f = (self.s0 / (2.0 * self.s3 + self.s2).max(f64::MIN_POSITIVE))
            .cbrt()
            .max(1e-9);
        for _ in 0..64 {
            let g = 2.0 * self.s3 * f * f * f + self.s2 * f * f - self.s0;
            let dg = 6.0 * self.s3 * f * f + 2.0 * self.s2 * f;
            if dg == 0.0 {
                break;
            }
            let next = f - g / dg;
            if !next.is_finite() || (next - f).abs() < 1e-12 * f.max(1.0) {
                f = next.max(1e-12);
                break;
            }
            f = next.max(1e-12);
        }
        f
    }
}

impl fmt::Display for EnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: E(f) = {}·f² + {}·f + {} + {}/f",
            self.name, self.s3, self.s2, self.s1, self.s0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fm() -> Frequency {
        Frequency::from_mhz(100)
    }

    #[test]
    fn e1_is_pure_quadratic_per_cycle() {
        let m = EnergySetting::e1().model(fm());
        assert!((m.energy_per_cycle(Frequency::from_mhz(10)) - 100.0).abs() < 1e-9);
        assert!((m.energy_per_cycle(fm()) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn e2_and_e3_match_reconstruction_at_fmax() {
        // At f = f_m: E(f_m) = f_m²·(1 + s1_rel + s0_rel).
        let e2 = EnergySetting::e2().model(fm());
        assert!((e2.energy_per_cycle(fm()) - 10_000.0 * 1.2).abs() < 1e-6);
        let e3 = EnergySetting::e3().model(fm());
        assert!((e3.energy_per_cycle(fm()) - 10_000.0 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn e1_energy_optimal_speed_is_zero() {
        assert_eq!(EnergySetting::e1().model(fm()).energy_optimal_speed(), 0.0);
    }

    #[test]
    fn e3_energy_optimal_speed_is_interior() {
        // f* = (0.5·f_m³ / 2)^(1/3) = f_m·(0.25)^(1/3) ≈ 0.63·f_m.
        let opt = EnergySetting::e3().model(fm()).energy_optimal_speed();
        assert!((opt - 100.0 * 0.25f64.cbrt()).abs() < 1e-6, "got {opt}");
    }

    #[test]
    fn optimal_speed_minimizes_energy_among_neighbors() {
        for setting in [EnergySetting::e2(), EnergySetting::e3()] {
            let m = setting.model(fm());
            let opt = m.energy_optimal_speed();
            let at = |f: f64| m.s3 * f * f + m.s2 * f + m.s1 + m.s0 / f;
            assert!(at(opt) <= at(opt * 1.01) + 1e-9);
            assert!(at(opt) <= at(opt * 0.99) + 1e-9);
        }
    }

    #[test]
    fn energy_for_scales_linearly_with_cycles() {
        let m = EnergySetting::e1().model(fm());
        let one = m.energy_for(Cycles::new(1), fm());
        let thousand = m.energy_for(Cycles::new(1_000), fm());
        assert!((thousand - 1_000.0 * one).abs() < 1e-6);
    }

    #[test]
    fn custom_rejects_bad_coefficients() {
        assert!(EnergySetting::custom("bad", -1.0, 0.0, 0.0, 0.0).is_err());
        assert!(EnergySetting::custom("bad", 1.0, f64::NAN, 0.0, 0.0).is_err());
        assert!(EnergySetting::custom("ok", 1.0, 0.5, 0.1, 0.2).is_ok());
    }

    #[test]
    fn custom_rejects_a_model_with_no_energy() {
        assert_eq!(
            EnergySetting::custom("z", 0.0, 0.0, 0.0, 0.0),
            Err(PlatformError::ZeroEnergyModel)
        );
        assert_eq!(
            EnergySetting::custom("z", -0.0, 0.0, -0.0, 0.0),
            Err(PlatformError::ZeroEnergyModel)
        );
        assert!(EnergySetting::custom("idle-free", 0.0, 0.0, 0.0, 1e-9).is_ok());
    }

    #[test]
    fn newton_handles_nonzero_s2() {
        let m = EnergySetting::custom("mix", 1.0, 2.0, 0.0, 0.3)
            .unwrap()
            .model(fm());
        let opt = m.energy_optimal_speed();
        // Root of 2f³ + 2f² = S0 = 0.3e6.
        let g = 2.0 * opt * opt * opt + 2.0 * opt * opt - 0.3 * 1e6;
        assert!(g.abs() < 1e-3, "residual {g}");
    }

    #[test]
    fn degenerate_static_only_model_prefers_fast() {
        let m = EnergySetting::custom("static", 0.0, 0.0, 0.0, 1.0)
            .unwrap()
            .model(fm());
        assert!(m.energy_optimal_speed().is_infinite());
    }

    #[test]
    fn e1_interval_is_monotone_min_to_max() {
        // CPU-only energy grows with f: cheapest = slowest, dearest = fastest.
        let table = FrequencyTable::powernow_k6();
        let iv = EnergySetting::e1()
            .model(table.max())
            .per_cycle_interval(&table);
        assert_eq!(iv.cheapest, table.min());
        assert_eq!(iv.dearest, table.max());
        assert!(iv.min < iv.max);
    }

    #[test]
    fn e3_interval_cheapest_is_interior() {
        // E3's optimum is ≈ 0.63·f_m, so neither table endpoint is cheapest.
        let table = FrequencyTable::powernow_k6();
        let iv = EnergySetting::e3()
            .model(table.max())
            .per_cycle_interval(&table);
        assert_ne!(iv.cheapest, table.min());
        assert_ne!(iv.cheapest, table.max());
        let m = EnergySetting::e3().model(table.max());
        for f in table.iter() {
            let e = m.energy_per_cycle(f);
            assert!(e >= iv.min - 1e-9 && e <= iv.max + 1e-9);
        }
    }

    #[test]
    fn singleton_table_interval_is_degenerate() {
        let table = FrequencyTable::fixed(64);
        let iv = EnergySetting::e2()
            .model(table.max())
            .per_cycle_interval(&table);
        assert_eq!(iv.min, iv.max);
        assert_eq!(iv.cheapest, iv.dearest);
    }

    #[test]
    fn display_is_informative() {
        let s = EnergySetting::e2().to_string();
        assert!(s.contains("E2"));
        let m = EnergySetting::e2().model(fm()).to_string();
        assert!(m.contains("E(f)"));
    }
}
