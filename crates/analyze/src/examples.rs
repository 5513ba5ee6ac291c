//! A registry mirroring every workload the repository ships — the five
//! `examples/*.rs` programs plus the §5 generators over the Table 1
//! application mix — lowered into raw [`ScenarioSpec`]s so
//! `eua-analyze check --all-examples` can pre-flight all of them.
//!
//! The constructions here reuse the same presets and constructors the
//! examples call, then lower the validated types via
//! [`ScenarioSpec::from_task_set`]. The parameters themselves are
//! copies: nothing compares them with the examples', so an example
//! whose parameters change must be mirrored here by hand.

use crate::scenario::{EnergySpec, ScenarioSpec};
use eua_platform::{FrequencyTable, TimeDelta};
use eua_sim::{Task, TaskSet};
use eua_tuf::{presets, Tuf};
use eua_uam::demand::DemandModel;
use eua_uam::{Assurance, UamSpec};
use eua_workload::{fig2_workload, fig3_workload, theorem_workload};

/// Builds every shipped scenario.
///
/// # Errors
///
/// Returns a message naming the scenario that failed to build; this only
/// happens if the registry drifts out of sync with the library (a bug
/// the `--all-examples` CI gate exists to catch).
pub fn shipped_scenarios() -> Result<Vec<ScenarioSpec>, String> {
    let table = FrequencyTable::powernow_k6();
    let f_max = table.max();
    let ms = TimeDelta::from_millis;
    let mut scenarios = Vec::new();

    let lower = |name: &str, tasks: TaskSet, energy: EnergySpec| {
        ScenarioSpec::from_task_set(name, &tasks, &table, energy)
    };
    let fail = |name: &str, e: &dyn std::fmt::Display| format!("building `{name}`: {e}");

    // examples/quickstart.rs: one hard-deadline control loop under E2.
    {
        let name = "quickstart";
        let window = ms(10);
        let task = (|| -> Result<Task, Box<dyn std::error::Error>> {
            Ok(Task::new(
                "control-loop",
                Tuf::step(10.0, window)?,
                UamSpec::new(2, window)?,
                DemandModel::normal(150_000.0, 150_000.0)?,
                Assurance::new(1.0, 0.96)?,
            )?)
        })()
        .map_err(|e| fail(name, &e))?;
        let tasks = TaskSet::new(vec![task]).map_err(|e| fail(name, &e))?;
        scenarios.push(lower(name, tasks, EnergySpec::e2()));
    }

    // examples/awacs_tracking.rs: the paper's AWACS mix under E1
    // (deliberately overloaded).
    {
        let name = "awacs-tracking";
        let tasks = (|| -> Result<TaskSet, Box<dyn std::error::Error>> {
            let track = Task::new(
                "track-association",
                presets::track_association(100.0, ms(40))?,
                UamSpec::new(4, ms(50))?,
                DemandModel::normal(1_200_000.0, 1_200_000.0)?,
                Assurance::new(1.0, 0.9)?,
            )?;
            let correlation = Task::new(
                "plot-correlation",
                presets::plot_correlation(40.0, ms(50))?,
                UamSpec::new(2, ms(100))?,
                DemandModel::normal(2_000_000.0, 2_000_000.0)?,
                Assurance::new(0.5, 0.9)?,
            )?;
            let display = Task::new(
                "display-update",
                presets::step_deadline(5.0, ms(100))?,
                UamSpec::periodic(ms(100))?,
                DemandModel::normal(1_500_000.0, 1_500_000.0)?,
                Assurance::new(1.0, 0.9)?,
            )?;
            Ok(TaskSet::new(vec![track, correlation, display])?)
        })()
        .map_err(|e| fail(name, &e))?;
        scenarios.push(lower(name, tasks, EnergySpec::e1()));
    }

    // examples/mobile_multimedia.rs: analyzed under all three Table 2
    // settings, as the example sweeps them.
    {
        let tasks = (|| -> Result<TaskSet, Box<dyn std::error::Error>> {
            let video_p = ms(33);
            let video = Task::new(
                "video-decode",
                Tuf::linear(30.0, video_p)?,
                UamSpec::periodic(video_p)?,
                DemandModel::normal(900_000.0, 900_000.0)?,
                Assurance::new(0.5, 0.95)?,
            )?;
            let audio_p = ms(10);
            let audio = Task::new(
                "audio-decode",
                Tuf::step(50.0, audio_p)?,
                UamSpec::periodic(audio_p)?,
                DemandModel::normal(80_000.0, 80_000.0)?,
                Assurance::new(1.0, 0.99)?,
            )?;
            let sync = Task::new(
                "background-sync",
                Tuf::linear(2.0, ms(500))?,
                UamSpec::new(3, ms(500))?,
                DemandModel::normal(2_000_000.0, 2_000_000.0)?,
                Assurance::new(0.1, 0.9)?,
            )?;
            Ok(TaskSet::new(vec![video, audio, sync])?)
        })()
        .map_err(|e| fail("mobile-multimedia", &e))?;
        for energy in [EnergySpec::e1(), EnergySpec::e2(), EnergySpec::e3()] {
            let name = format!("mobile-multimedia-{}", energy.name);
            scenarios.push(lower(&name, tasks.clone(), energy));
        }
    }

    // examples/overload_survival.rs: the Fig. 2 workload swept across
    // loads; analyze an under-load, a near-saturation, and an overload
    // point from the sweep.
    for load in [0.3, 0.9, 1.8] {
        let name = format!("overload-survival-{load}");
        let workload = fig2_workload(load, 42, f_max).map_err(|e| fail(&name, &e))?;
        scenarios.push(lower(&name, workload.tasks, EnergySpec::e1()));
    }

    // examples/energy_budget.rs: the Fig. 2 workload at load 0.7.
    {
        let name = "energy-budget";
        let workload = fig2_workload(0.7, 42, f_max).map_err(|e| fail(name, &e))?;
        scenarios.push(lower(name, workload.tasks, EnergySpec::e1()));
    }

    // crates/workload/src/apps.rs coverage: the Fig. 3 linear-TUF sweep
    // point and the §4 theorem workload over the Table 1 mix.
    {
        let name = "fig3-linear-a2";
        let workload = fig3_workload(0.5, 2, 42, f_max).map_err(|e| fail(name, &e))?;
        scenarios.push(lower(name, workload.tasks, EnergySpec::e2()));
    }
    {
        let name = "theorem-underload";
        let workload = theorem_workload(0.85, 42, f_max).map_err(|e| fail(name, &e))?;
        scenarios.push(lower(name, workload.tasks, EnergySpec::e1()));
    }

    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze;

    #[test]
    fn registry_builds() {
        let scenarios = shipped_scenarios().expect("registry builds");
        assert!(scenarios.len() >= 9, "got {}", scenarios.len());
        let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"quickstart"));
        assert!(names.contains(&"awacs-tracking"));
        assert!(names.contains(&"theorem-underload"));
    }

    #[test]
    fn every_shipped_scenario_is_error_free() {
        for scenario in shipped_scenarios().expect("registry builds") {
            let report = analyze(&scenario);
            assert!(
                !report.has_errors(),
                "shipped scenario `{}` has errors:\n{}",
                scenario.name,
                report.render_text()
            );
        }
    }

    #[test]
    fn overloaded_example_is_flagged_but_not_an_error() {
        let scenarios = shipped_scenarios().expect("registry builds");
        let awacs = scenarios
            .iter()
            .find(|s| s.name == "awacs-tracking")
            .expect("awacs");
        let report = analyze(awacs);
        assert!(
            report.codes().contains("overload") || report.codes().contains("theorem1-speed"),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors());
    }

    #[test]
    fn e3_mobile_scenario_reports_dominated_36mhz() {
        let scenarios = shipped_scenarios().expect("registry builds");
        let e3 = scenarios
            .iter()
            .find(|s| s.name == "mobile-multimedia-E3")
            .expect("E3");
        assert!(analyze(e3).codes().contains("dominated-frequency"));
    }
}
