//! Experiment harness regenerating every table and figure of the EUA\*
//! paper (see DESIGN.md's experiment index).
//!
//! The binaries in `src/bin` drive the sweeps:
//!
//! * `fig2` — normalized utility and energy vs load under E1/E2/E3
//!   (Figures 2(a)–(d) plus the "results under E2 are similar" remark);
//! * `fig3` — normalized energy vs load for UAM `⟨1..3, P⟩`
//!   (Figure 3);
//! * `theorems` — the §4 timeliness-property checks (Theorems 2–5);
//! * `ablation` — design-choice ablations (UER clamp, abortion,
//!   insertion mode, Chebyshev ρ);
//! * `budget` — utility accrued under a finite energy budget, swept
//!   from 10% to 120% of what unconstrained EUA\* spends;
//! * `robustness` — the fault-intensity × policy degradation sweep;
//! * `eua-chaos` — resumable chaos campaigns over the workload
//!   universes, with automatic shrinking of failing cells to minimal
//!   `.scn` repros (DESIGN.md §15).
//!
//! The `#[ignore]`d overload guard (`tests/overload_guard.rs`) pins the
//! scaling shape of the schedule builder's overload fallback and of the
//! Algorithm 2 look-ahead; the repository benchmark lives in `perf/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod chart;
pub mod experiment;
pub mod flags;
pub mod report;
pub mod robustness;
pub mod shrink;

pub use chaos::{
    campaign_report, chaos_cell_seed, journal_header, plan_cell, record_is_failing, run_campaign,
    unexpected_audit_errors, CampaignOutcome, CellPlan, ChaosConfig,
};
pub use chart::{render_chart, render_svg, Series};
pub use experiment::{run_cell, run_cells, Cell, ExperimentConfig};
pub use flags::{usage_error, Flags};
pub use report::{write_csv, Table};
pub use robustness::{
    run_robustness, FaultFamily, RobustnessConfig, RobustnessPoint, RobustnessReport,
};
pub use shrink::{probe, shrink, FailureKind, ShrinkCase};
