//! Discrete-event simulator for preemptive, DVS-capable uniprocessor
//! real-time scheduling — the test bench on which EUA\* and its baselines
//! are evaluated.
//!
//! The simulator owns everything a scheduling policy cannot know:
//!
//! * per-job **actual** cycle demands (sampled from each task's
//!   [`eua_uam::demand::DemandModel`]), while policies plan with the
//!   Chebyshev **allocation** `c_i`;
//! * the passage of time: execution at the policy-chosen frequency,
//!   preemption, completion, and the abort exception when a job's TUF
//!   termination time is reached (paper §2.2);
//! * accounting: accrued utility, per-cycle energy under Martin's model,
//!   context switches, preemptions, frequency changes, and the per-task
//!   statistics needed to check `{ν, ρ}` assurances.
//!
//! Policies implement [`SchedulerPolicy`]: at every scheduling event
//! (release, completion, termination expiry) they see the live [`JobView`]s
//! and return a [`Decision`] — which job to run, at which frequency, and
//! which jobs to abort.
//!
//! Simulations are **deterministic**: integer-microsecond time, integer
//! cycles, and seeded RNGs, so a `(workload, seed, policy)` triple always
//! reproduces the same metrics.
//!
//! # Example
//!
//! ```
//! use eua_platform::{EnergySetting, FrequencyTable, TimeDelta};
//! use eua_sim::{Engine, Platform, SimConfig, Task, TaskSet};
//! use eua_sim::policy::MaxSpeedEdf;
//! use eua_tuf::Tuf;
//! use eua_uam::demand::DemandModel;
//! use eua_uam::generator::ArrivalPattern;
//! use eua_uam::{Assurance, UamSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::new(FrequencyTable::powernow_k6(), EnergySetting::e1());
//! let period = TimeDelta::from_millis(10);
//! let task = Task::new(
//!     "sensor",
//!     Tuf::step(10.0, period)?,
//!     UamSpec::periodic(period)?,
//!     DemandModel::deterministic(200_000.0)?,
//!     Assurance::step_default(),
//! )?;
//! let tasks = TaskSet::new(vec![task])?;
//! let patterns = vec![ArrivalPattern::periodic(period)?];
//!
//! let config = SimConfig::new(TimeDelta::from_millis(100));
//! let mut policy = MaxSpeedEdf::new();
//! let outcome = Engine::run(&tasks, &patterns, &platform, &mut policy, &config, 42)?;
//! assert_eq!(outcome.metrics.jobs_completed(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod certificate;
mod context;
mod engine;
mod error;
pub mod faults;
mod ids;
mod invariants;
mod job;
pub mod json;
mod metrics;
mod platform_view;
pub mod policy;
pub mod pool;
mod reference;
mod runner;
mod task;
mod trace;

pub use analysis::{
    classify_degradation, edf_violations, response_stats, utilization_timeline, DegradationClass,
    DegradationReport, EdfViolation, ResponseStats, TaskDegradation, DEFAULT_COLLAPSE_FRACTION,
};
pub use certificate::{
    AbortWitness, ChargeKind, ChargeRecord, DecisionExplanation, DvsExplanation, EventRecord,
    JobSnapshot, RunCertificate, ScheduleEntry, TaskDecl, TufDecl, UerEntry, CERT_FORMAT,
};
pub use context::{JobView, SchedContext, SchedEvent};
pub use engine::{Engine, Outcome, SimConfig};
pub use error::SimError;
pub use faults::{
    map_to_degraded, DemandFault, DvsFault, FaultPlan, FaultStats, TimingFault, UamViolationFault,
};
pub use ids::{JobId, TaskId};
pub use invariants::{invariant_checks_enabled, InvariantChecker};
pub use job::{JobOutcome, JobRecord};
pub use metrics::{FrequencyResidency, Metrics, TaskMetrics};
pub use platform_view::Platform;
pub use policy::{Decision, SchedulerPolicy};
pub use pool::{
    map_parallel, map_parallel_labeled, map_parallel_settle, map_parallel_with, resolve_jobs,
    PoolError,
};
pub use runner::{
    replicate, replicate_parallel, replicate_parallel_with_faults, replicate_with_faults,
    Replication, Summary,
};
pub use task::{Task, TaskSet};
pub use trace::{ExecutionTrace, Segment, TraceEvent};
