//! Time/utility functions (TUFs) for utility-accrual real-time scheduling.
//!
//! A TUF generalizes the classical deadline: completing an activity at time
//! `t` yields utility `U(t)` rather than a binary "met/missed" verdict
//! (Jensen, Locke, Tokuda 1985). This crate implements the class of TUFs the
//! EUA\* paper schedules — **non-increasing, unimodal** functions defined on
//! a bounded interval `[I, X]` (initial time to termination time) — plus the
//! operations EUA\* needs:
//!
//! * evaluation of `U(t)` over a job's sojourn time,
//! * the maximum utility `U^max = U(0)`,
//! * inversion of the **critical time** `D` from an assurance fraction `ν`
//!   via `ν = U(D)/U^max` (paper §3.1),
//! * the Figure 1 example shapes from real applications
//!   ([`presets`]).
//!
//! Offsets are relative to the job's initial time (its arrival under the
//! paper's model); `U(t) = 0` for `t` past the termination offset, where the
//! job would be aborted instead of completed.
//!
//! # Example
//!
//! ```
//! use eua_platform::TimeDelta;
//! use eua_tuf::Tuf;
//!
//! # fn main() -> Result<(), eua_tuf::TufError> {
//! // A classical deadline is a downward-step TUF.
//! let step = Tuf::step(10.0, TimeDelta::from_millis(5))?;
//! assert_eq!(step.utility(TimeDelta::from_millis(4)), 10.0);
//! assert_eq!(step.utility(TimeDelta::from_millis(6)), 0.0);
//!
//! // For ν = 1 the critical time is the step's discontinuity.
//! assert_eq!(step.critical_time(1.0), Some(TimeDelta::from_millis(5)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod presets;
mod shape;

pub use error::TufError;
pub use shape::{ExponentialTuf, LinearTuf, PiecewiseTuf, StepTuf, Tuf};
