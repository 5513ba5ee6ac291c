//! Output checks and the simulation digest.

use std::fmt;

use eua_sim::Metrics;

/// Checks that one run's metrics are internally consistent: accrued
/// utility within the possible maximum, finite non-negative energy, and
/// no task ending more jobs than arrived. `Err` names the first
/// violation.
pub fn check_metrics(m: &Metrics) -> Result<(), String> {
    if !(m.energy.is_finite() && m.energy >= 0.0) {
        return Err(format!("energy {} is not finite and >= 0", m.energy));
    }
    if !(m.total_utility.is_finite() && m.max_possible_utility.is_finite()) {
        return Err(format!(
            "utility {} / {} is not finite",
            m.total_utility, m.max_possible_utility
        ));
    }
    // Relative slack forgives summation-order rounding only.
    if m.total_utility > m.max_possible_utility * (1.0 + 1e-9) + 1e-9 {
        return Err(format!(
            "accrued utility {} exceeds the maximum possible {}",
            m.total_utility, m.max_possible_utility
        ));
    }
    for (i, t) in m.per_task.iter().enumerate() {
        let ended = t.completed + t.aborted_by_termination + t.aborted_by_policy;
        if ended > t.arrived {
            return Err(format!(
                "task {i}: {ended} jobs completed or aborted but {} arrived",
                t.arrived
            ));
        }
    }
    Ok(())
}

/// FNV-1a over the `Debug` text of every run's [`Metrics`], in run
/// order. `Debug` prints floats in shortest round-trip form, so two
/// digests match exactly when every simulated statistic is
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one run's metrics into the digest.
    pub fn add(&mut self, metrics: &Metrics) {
        use fmt::Write as _;
        // Writing into the hasher cannot fail.
        let _ = writeln!(self, "{metrics:?}");
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
