//! **EUA\*** — the energy-efficient, utility-accrual real-time scheduler of
//! Wu, Ravindran & Jensen (DATE 2005) — together with the deadline-based
//! baselines it is evaluated against.
//!
//! # The algorithm
//!
//! At every scheduling event (job release, completion, or termination-time
//! expiry) EUA\* ([`Eua`]):
//!
//! 1. **aborts infeasible jobs** — any job that cannot finish by its
//!    termination time even at the maximum frequency `f_m`;
//! 2. computes each remaining job's **utility and energy ratio**
//!    `UER = U(t + c/f_m) / (c · E(f_m))` — utility earned per unit energy;
//! 3. greedily builds a **critical-time-ordered schedule**: jobs are
//!    considered in non-increasing UER order and inserted at their
//!    critical-time position while the schedule stays feasible at `f_m`
//!    (Algorithm 1);
//! 4. executes the head of the schedule at the frequency chosen by the
//!    **stochastic UAM-aware DVS step** [`decide_freq`] (Algorithm 2),
//!    which defers as much work as possible past the earliest critical
//!    time and scales the current task, clamped from below by the task's
//!    offline UER-optimal frequency.
//!
//! # Baselines
//!
//! * [`EdfPolicy`] — deadline (critical-time) ordered scheduling with three
//!   DVS modes: none (always `f_m`, the paper's normalization baseline),
//!   cycle-conserving and look-ahead (Pillai & Shin), each with or without
//!   feasibility aborts (the paper's `-NA` variants);
//! * [`Dasa`] — a DASA-style pure utility-accrual baseline (utility
//!   density ordering, no DVS), included for reference.
//!
//! # Example
//!
//! ```
//! use eua_core::Eua;
//! use eua_platform::{EnergySetting, TimeDelta};
//! use eua_sim::{Engine, Platform, SimConfig, Task, TaskSet};
//! use eua_tuf::Tuf;
//! use eua_uam::demand::DemandModel;
//! use eua_uam::generator::ArrivalPattern;
//! use eua_uam::{Assurance, UamSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::powernow(EnergySetting::e1());
//! let p = TimeDelta::from_millis(10);
//! let task = Task::new(
//!     "control",
//!     Tuf::step(10.0, p)?,
//!     UamSpec::periodic(p)?,
//!     DemandModel::normal(100_000.0, 100_000.0)?,
//!     Assurance::new(1.0, 0.96)?,
//! )?;
//! let tasks = TaskSet::new(vec![task])?;
//! let patterns = vec![ArrivalPattern::periodic(p)?];
//!
//! let mut eua = Eua::new();
//! let config = SimConfig::new(TimeDelta::from_secs(1));
//! let out = Engine::run(&tasks, &patterns, &platform, &mut eua, &config, 7)?;
//! // Under-load: every job completes, at far less energy than f_m would use.
//! assert_eq!(out.metrics.jobs_completed(), 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod budget;
mod candidates;
mod dasa;
mod edf;
mod eua;
mod llf;
mod registry;

pub use analysis::{brh_schedulable, demand_bound, sufficient_speed, theorem1_speed};
pub use budget::BudgetedEua;
pub use candidates::{
    build_schedule, build_schedule_reference, job_feasible, schedule_feasible, Candidate,
    InsertionMode, ScheduleBuilder,
};
pub use dasa::Dasa;
pub use edf::{DvsMode, EdfPolicy};
pub use eua::decide_freq::{decide_freq, DvsAnalysis, LookAheadDvs};
pub use eua::{Eua, EuaOptions};
pub use llf::Llf;
pub use registry::{available_policies, make_policy};
