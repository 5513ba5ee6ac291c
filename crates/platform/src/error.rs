//! Error types for platform-model construction and frequency selection.

use std::error::Error;
use std::fmt;

/// Errors produced when building or querying the platform model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A frequency table was constructed with no frequencies.
    EmptyFrequencyTable,
    /// A frequency table contained a zero frequency (division by zero in
    /// every time conversion).
    ZeroFrequency,
    /// A frequency table was not strictly increasing.
    UnsortedFrequencyTable {
        /// Index of the first out-of-order entry.
        index: usize,
    },
    /// A demanded frequency exceeds the highest available frequency, so
    /// `selectFreq` cannot return a value (the paper handles this by
    /// clamping to `f_m` before calling `selectFreq`).
    DemandExceedsMaxFrequency {
        /// The demanded processor speed, in cycles per microsecond.
        demanded: f64,
        /// The highest available frequency, in cycles per microsecond.
        max: u64,
    },
    /// An energy-model coefficient was negative or non-finite.
    InvalidEnergyCoefficient {
        /// Which coefficient (`"s3"`, `"s2"`, `"s1"`, `"s0"`).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// All four energy-model coefficients were zero: every job would
    /// cost no energy, so its utility-and-energy ratio `U/(E·c)` would be
    /// infinite (or NaN at zero utility).
    ZeroEnergyModel,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::EmptyFrequencyTable => {
                write!(f, "frequency table must contain at least one frequency")
            }
            PlatformError::ZeroFrequency => {
                write!(f, "frequency table must not contain a zero frequency")
            }
            PlatformError::UnsortedFrequencyTable { index } => {
                write!(
                    f,
                    "frequency table must be strictly increasing (violated at index {index})"
                )
            }
            PlatformError::DemandExceedsMaxFrequency { demanded, max } => {
                write!(
                    f,
                    "demanded speed {demanded} cycles/us exceeds maximum frequency {max}"
                )
            }
            PlatformError::InvalidEnergyCoefficient { name, value } => {
                write!(
                    f,
                    "energy coefficient {name} must be finite and non-negative, got {value}"
                )
            }
            PlatformError::ZeroEnergyModel => {
                write!(f, "energy model must have a non-zero coefficient")
            }
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let msgs = [
            PlatformError::EmptyFrequencyTable.to_string(),
            PlatformError::ZeroFrequency.to_string(),
            PlatformError::UnsortedFrequencyTable { index: 2 }.to_string(),
            PlatformError::DemandExceedsMaxFrequency {
                demanded: 120.0,
                max: 100,
            }
            .to_string(),
            PlatformError::InvalidEnergyCoefficient {
                name: "s3",
                value: -1.0,
            }
            .to_string(),
            PlatformError::ZeroEnergyModel.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<PlatformError>();
    }
}
