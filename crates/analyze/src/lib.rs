//! `eua-analyze` — static workload/schedulability analyzer for the EUA\*
//! stack.
//!
//! The simulator crates validate their inputs at construction time and
//! refuse bad values one at a time. This crate does the opposite job: it
//! takes a *raw* scenario description — a platform frequency table, a
//! Martin energy model, and a set of UAM tasks with TUFs, demand
//! distributions, and assurances — and reports **everything** wrong (or
//! noteworthy) about it in one pass, as structured [`Diagnostic`]s with
//! stable kebab-case codes.
//!
//! | Module | What it holds |
//! |--------|---------------|
//! | [`diagnostic`] | [`DiagCode`], [`Severity`], [`Report`], text/JSON renderers |
//! | [`cli`] | the command-line front end `eua-analyze`, `eua-audit` and `eua-lint` share |
//! | [`scenario`] | raw specs ([`ScenarioSpec`] …), the `.scn` parser/renderer, bridges to simulator types |
//! | [`passes`] | the checks: TUF shape, assurances, Chebyshev, UAM, frequencies, energy, feasibility, faults, semantics, the simulator backstop |
//! | [`ir`] | the typed analysis IR ([`AnalysisIr`]): the simulator's tasks, raised once, and the table with the platform's `E(f)` |
//! | [`demand`] | UAM demand-bound verdicts per frequency ([`Verdict`], [`FrequencyVerdict`]) |
//! | [`energy`] | UER brackets, dominated frequencies, unreachable DVS states ([`EnergyProfile`]) |
//! | [`sarif`] | SARIF 2.1.0 rendering and subset validation |
//! | [`spans`] | the `.scn` token extents ([`SourceMap`]) the parser records for SARIF regions |
//! | [`examples`] | registry mirroring every shipped workload for `--all-examples` |
//!
//! # Example
//!
//! ```
//! use eua_analyze::{analyze, ScenarioSpec};
//!
//! let text = "
//! scenario demo
//! frequencies 36 55 64 73 82 91 100
//! energy E2
//! task control
//!   tuf step 10 10000
//!   uam 2 10000
//!   demand normal 150000 150000
//!   assurance 1.0 0.96
//! end
//! ";
//! let spec = ScenarioSpec::parse(text).unwrap();
//! let report = analyze(&spec);
//! assert!(!report.has_errors());
//! // Theorem 1 holds for this set, which the report records as an info:
//! assert!(report.codes().contains("theorem1-speed"));
//! ```
//!
//! The `eua-analyze` binary wraps this as `eua-analyze check <file.scn>`
//! (or `--all-examples`), exiting nonzero when any Error-severity
//! diagnostic is present; see the repository README.

#![forbid(unsafe_code)]

pub mod cli;
pub mod demand;
pub mod diagnostic;
pub mod energy;
pub mod examples;
pub mod ir;
pub mod passes;
pub mod sarif;
pub mod scenario;
pub mod spans;

pub use demand::{
    feasibility_floor, frequency_verdicts, verdict_at_fmax, FrequencyVerdict, Verdict,
    WitnessWindow,
};
pub use diagnostic::{render_json_reports, DiagCode, Diagnostic, Report, Severity};
pub use energy::{energy_profiles, EnergyProfile};
pub use examples::shipped_scenarios;
pub use ir::{lower, AnalysisIr, FreqIr, TaskIr};
pub use passes::analyze;
pub use sarif::{render_sarif, validate_sarif};
pub use scenario::{
    DemandSpec, EnergySpec, FaultSpec, ParseError, ScenarioSpec, TaskSpec, TufSpec,
};
pub use spans::{SourceMap, Span};
