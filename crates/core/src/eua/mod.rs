//! The EUA\* scheduling policy (paper Algorithm 1 + Algorithm 2).

pub mod decide_freq;

use eua_platform::{select_freq, Frequency};
use eua_sim::{
    AbortWitness, Decision, DecisionExplanation, DvsExplanation, SchedContext, ScheduleEntry,
    SchedulerPolicy, TaskId, UerEntry,
};

use crate::candidates::{Candidate, InsertionMode, ScheduleBuilder};
use decide_freq::LookAheadDvs;

/// Tunable switches of [`Eua`], defaulting to the paper's algorithm.
///
/// The non-default settings exist for the ablation experiments: disabling
/// DVS yields the Fig. 3 normalization baseline ("EUA\* without DVS, which
/// always selects `f_m`"); disabling the UER clamp or abortion isolates
/// those design choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EuaOptions {
    /// Scale frequency with Algorithm 2 (`true`) or always run at `f_m`.
    pub dvs: bool,
    /// Abort jobs that cannot finish by their termination time at `f_m`
    /// (Algorithm 1 line 10).
    pub abort_infeasible: bool,
    /// Clamp the chosen frequency from below by the task's offline
    /// UER-optimal frequency (Algorithm 2 line 11).
    pub uer_clamp: bool,
    /// Greedy insertion behaviour on an infeasible insertion.
    pub insertion: InsertionMode,
}

impl Default for EuaOptions {
    fn default() -> Self {
        EuaOptions {
            dvs: true,
            abort_infeasible: true,
            uer_clamp: true,
            insertion: InsertionMode::BreakOnInfeasible,
        }
    }
}

/// The **EUA\*** policy: energy-efficient utility-accrual scheduling under
/// the unimodal arbitrary arrival model.
///
/// See the crate-level documentation for the algorithm and a full
/// simulation example.
///
/// # Example
///
/// ```
/// use eua_core::Eua;
///
/// let paper = Eua::new();            // the algorithm as published
/// let no_dvs = Eua::without_dvs();   // Fig. 3 normalization baseline
/// assert_ne!(paper.options(), no_dvs.options());
/// ```
#[derive(Debug, Clone)]
pub struct Eua {
    options: EuaOptions,
    name: String,
    /// Per-task UER-optimal frequencies, computed on first use
    /// (`offlineComputing`).
    f_opt: Vec<Frequency>,
    /// The Algorithm 2 window-anchor state.
    dvs: LookAheadDvs,
    /// Incremental schedule constructor; its buffers persist across
    /// scheduling events so the per-event hot path does not reallocate.
    builder: ScheduleBuilder,
    /// Reused candidate scratch ([`Eua::plan`] refills it every event).
    cand_buf: Vec<Candidate>,
    /// Reused abort scratch; taken (and thus only reallocated on events
    /// that actually abort) when handed to the engine.
    abort_buf: Vec<eua_sim::JobId>,
    /// Whether the engine asked for per-decision explanations.
    certifying: bool,
    /// The explanation of the most recent decision, while certifying.
    explanation: Option<DecisionExplanation>,
}

impl Eua {
    /// EUA\* exactly as published.
    #[must_use]
    pub fn new() -> Self {
        Eua::with_options(EuaOptions::default())
    }

    /// EUA\* with explicit option switches (for ablations).
    #[must_use]
    pub fn with_options(options: EuaOptions) -> Self {
        let mut name = String::from("eua");
        if !options.dvs {
            name.push_str("-nodvs");
        }
        if !options.abort_infeasible {
            name.push_str("-na");
        }
        if !options.uer_clamp && options.dvs {
            name.push_str("-noclamp");
        }
        if options.insertion == InsertionMode::SkipInfeasible {
            name.push_str("-skip");
        }
        Eua {
            options,
            name,
            f_opt: Vec::new(),
            dvs: LookAheadDvs::new(),
            builder: ScheduleBuilder::new(),
            cand_buf: Vec::new(),
            abort_buf: Vec::new(),
            certifying: false,
            explanation: None,
        }
    }

    /// The Fig. 3 normalization baseline: EUA\* that always selects `f_m`.
    #[must_use]
    pub fn without_dvs() -> Self {
        Eua::with_options(EuaOptions {
            dvs: false,
            ..EuaOptions::default()
        })
    }

    /// The active option switches.
    #[must_use]
    pub fn options(&self) -> EuaOptions {
        self.options
    }

    // Memoized offline table: built on the first decision after a
    // task-set change, then reused — not per-event work.
    fn ensure_offline(&mut self, ctx: &SchedContext<'_>) {
        if self.f_opt.len() == ctx.tasks.len() {
            return;
        }
        // offlineComputing(): the frequency maximizing the task's UER
        // (paper §3.2), given its allocation and TUF.
        self.f_opt = ctx
            .tasks
            .iter()
            .map(|(_, task)| {
                eua_platform::optimal_uer_frequency(
                    ctx.platform.table(),
                    ctx.platform.energy(),
                    task.allocation(),
                    |sojourn| task.tuf().utility(sojourn),
                )
            })
            .collect();
    }

    fn uer_optimal(&self, task: TaskId) -> Frequency {
        self.f_opt[task.index()]
    }

    /// Algorithm 1 lines 3–18 plus the Algorithm 2 analysis: builds the
    /// feasible UER-ordered schedule into [`Eua::planned`]'s buffer and
    /// returns the infeasible jobs to abort plus the DVS analysis (when
    /// enabled). Shared with the energy-budgeted variant.
    ///
    /// The candidate and schedule buffers live on `self` and are reused
    /// across events, so a steady-state `plan` call performs no heap
    /// allocation (aborting events hand their — rare — abort list to the
    /// engine by value).
    // eua-lint: hot
    pub(crate) fn plan(
        &mut self,
        ctx: &SchedContext<'_>,
    ) -> (Vec<eua_sim::JobId>, Option<decide_freq::DvsAnalysis>) {
        self.ensure_offline(ctx);
        let f_m = ctx.platform.f_max();
        let per_cycle_at_fm = ctx.platform.energy().energy_per_cycle(f_m);
        // Run the DVS analysis at every event so its window anchors
        // observe every arrival, even when this decision ends up idling.
        let analysis = self.options.dvs.then(|| self.dvs.analyze(ctx));

        // Lines 9–11: abort infeasible jobs, compute the rest's UER.
        let mut expl = self.certifying.then(DecisionExplanation::default);
        self.abort_buf.clear();
        self.cand_buf.clear();
        for j in ctx.jobs {
            let predicted = ctx.now.saturating_add(f_m.execution_time(j.remaining));
            if predicted > j.termination {
                if self.options.abort_infeasible {
                    self.abort_buf.push(j.id);
                    if let Some(expl) = expl.as_mut() {
                        expl.aborts.push(AbortWitness {
                            job: j.id,
                            remaining: j.remaining,
                            termination: j.termination,
                            predicted_finish: predicted,
                        });
                    }
                }
                continue;
            }
            let utility = ctx
                .tasks
                .task(j.task)
                .tuf()
                .utility(predicted.saturating_since(j.arrival));
            let uer = utility / (per_cycle_at_fm * j.remaining.as_f64());
            if let Some(expl) = expl.as_mut() {
                expl.uer.push(UerEntry { job: j.id, uer });
            }
            self.cand_buf.push(Candidate::from_view(j, uer));
        }

        // Lines 12–18: greedy UER-ordered construction of a feasible
        // critical-time-ordered schedule.
        self.builder
            .rebuild(ctx.now, &mut self.cand_buf, f_m, self.options.insertion);

        if let Some(expl) = expl.as_mut() {
            expl.skip_infeasible = self.options.insertion == InsertionMode::SkipInfeasible;
            // The schedule's own feasibility witness: back-to-back finish
            // times at `f_m` starting now.
            let mut t = ctx.now;
            for c in self.planned() {
                t = t.saturating_add(f_m.execution_time(c.remaining));
                expl.schedule.push(ScheduleEntry {
                    job: c.id,
                    predicted_finish: t,
                });
            }
        }
        self.explanation = expl;
        (std::mem::take(&mut self.abort_buf), analysis)
    }

    /// The schedule built by the most recent [`Eua::plan`] call.
    pub(crate) fn planned(&self) -> &[Candidate] {
        self.builder.schedule()
    }
}

impl Default for Eua {
    fn default() -> Self {
        Eua::new()
    }
}

impl SchedulerPolicy for Eua {
    fn name(&self) -> &str {
        &self.name
    }

    // eua-lint: hot
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let (aborts, analysis) = self.plan(ctx);
        let f_m = ctx.platform.f_max();

        // Lines 19–21: execute the head at the decideFreq() frequency.
        let Some(head) = self.planned().first().copied() else {
            return Decision::idle(f_m).with_aborts(aborts);
        };
        #[allow(clippy::expect_used)] // `plan` only schedules ids drawn from `ctx.jobs`
        let head_task = ctx.job(head.id).expect("head comes from ctx.jobs").task;
        let frequency = match analysis {
            Some(analysis) => {
                let mut f = select_freq(ctx.platform.table(), analysis.required_speed);
                if self.options.uer_clamp {
                    // "The higher frequency is selected to provide
                    // performance assurances; we may increase it to
                    // maximize energy efficiency" — never decrease below
                    // the assurance demand.
                    f = f.max(self.uer_optimal(head_task));
                }
                f
            }
            None => f_m,
        };
        if self.explanation.is_some() {
            let clamp =
                (self.options.uer_clamp && analysis.is_some()).then(|| self.uer_optimal(head_task));
            if let Some(expl) = self.explanation.as_mut() {
                expl.dvs = analysis.map(|a| DvsExplanation {
                    required_speed: a.required_speed,
                    must_run_cycles: a.must_run_cycles,
                    earliest_critical: a.earliest_critical,
                    clamp,
                });
            }
        }
        Decision::run(head.id, frequency).with_aborts(aborts)
    }

    fn reset(&mut self) {
        self.f_opt.clear();
        self.dvs.reset();
        self.explanation = None;
    }

    fn certify(&mut self, on: bool) {
        self.certifying = on;
        self.explanation = None;
    }

    fn explain(&self) -> Option<DecisionExplanation> {
        self.explanation.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, SimTime, TimeDelta};
    use eua_sim::{Engine, JobOutcome, Platform, SimConfig, Task, TaskSet};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::generator::ArrivalPattern;
    use eua_uam::{ArrivalTrace, Assurance, UamSpec};

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn platform() -> Platform {
        Platform::powernow(EnergySetting::e1())
    }

    fn step_task(name: &str, p_ms: u64, cycles: f64, a: u32) -> Task {
        Task::new(
            name,
            Tuf::step(10.0, ms(p_ms)).unwrap(),
            UamSpec::new(a, ms(p_ms)).unwrap(),
            DemandModel::deterministic(cycles).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn underload_completes_everything_with_less_energy_than_fmax() {
        let tasks = TaskSet::new(vec![
            step_task("a", 10, 100_000.0, 1),
            step_task("b", 20, 300_000.0, 1),
        ])
        .unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(20)).unwrap(),
        ];
        let config = SimConfig::new(ms(1_000));
        let eua_out =
            Engine::run(&tasks, &patterns, &platform(), &mut Eua::new(), &config, 3).unwrap();
        let fmax_out = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut Eua::without_dvs(),
            &config,
            3,
        )
        .unwrap();
        // Same (optimal) utility...
        assert_eq!(eua_out.metrics.jobs_completed(), 150);
        assert_eq!(fmax_out.metrics.jobs_completed(), 150);
        assert!((eua_out.metrics.total_utility - fmax_out.metrics.total_utility).abs() < 1e-9);
        // ...at strictly less energy (load ≈ 0.25 ⇒ plenty of slack).
        assert!(
            eua_out.metrics.energy < 0.6 * fmax_out.metrics.energy,
            "eua {} vs fmax {}",
            eua_out.metrics.energy,
            fmax_out.metrics.energy
        );
    }

    #[test]
    fn infeasible_jobs_are_aborted_immediately() {
        // A job that needs 2 P of work at f_m can never finish: EUA aborts
        // it at release rather than burning energy.
        let tasks = TaskSet::new(vec![step_task("hopeless", 10, 2_000_000.0, 1)]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let config = SimConfig::new(ms(30)).with_job_records();
        let out =
            Engine::run_with_traces(&tasks, &traces, &platform(), &mut Eua::new(), &config, 1)
                .unwrap();
        let records = out.jobs.unwrap();
        assert_eq!(records.len(), 1);
        match records[0].outcome {
            JobOutcome::Aborted { at, by_policy } => {
                assert!(by_policy, "EUA should abort, not the termination exception");
                assert_eq!(at, SimTime::ZERO);
            }
            ref other => panic!("expected an abort, got {other:?}"),
        }
        assert_eq!(
            out.metrics.energy, 0.0,
            "no cycles wasted on a hopeless job"
        );
    }

    #[test]
    fn overload_prefers_higher_uer_jobs() {
        // Two tasks, each 1.5 P of work at f_m (individually feasible,
        // jointly not): the one with 10× utility should win.
        let p = ms(10);
        let mk = |name: &str, umax: f64| {
            Task::new(
                name,
                Tuf::step(umax, p).unwrap(),
                UamSpec::periodic(p).unwrap(),
                DemandModel::deterministic(600_000.0).unwrap(),
                Assurance::new(1.0, 0.5).unwrap(),
            )
            .unwrap()
        };
        let tasks = TaskSet::new(vec![mk("cheap", 1.0), mk("precious", 10.0)]).unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(p).unwrap(),
            ArrivalPattern::periodic(p).unwrap(),
        ];
        let config = SimConfig::new(ms(500));
        let out = Engine::run(&tasks, &patterns, &platform(), &mut Eua::new(), &config, 1).unwrap();
        let cheap = &out.metrics.per_task[0];
        let precious = &out.metrics.per_task[1];
        assert_eq!(precious.completed, 50, "every precious job completes");
        assert_eq!(
            cheap.completed, 0,
            "cheap jobs are sacrificed during overload"
        );
    }

    #[test]
    fn names_reflect_options() {
        assert_eq!(Eua::new().name(), "eua");
        assert_eq!(Eua::without_dvs().name(), "eua-nodvs");
        let na = Eua::with_options(EuaOptions {
            abort_infeasible: false,
            ..EuaOptions::default()
        });
        assert_eq!(na.name(), "eua-na");
        let noclamp = Eua::with_options(EuaOptions {
            uer_clamp: false,
            ..EuaOptions::default()
        });
        assert_eq!(noclamp.name(), "eua-noclamp");
    }

    #[test]
    fn reset_recomputes_offline_state() {
        let tasks = TaskSet::new(vec![step_task("a", 10, 100_000.0, 1)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let mut eua = Eua::new();
        let a = Engine::run(&tasks, &patterns, &platform(), &mut eua, &config, 1).unwrap();
        // Re-running the same policy value must give identical results.
        let b = Engine::run(&tasks, &patterns, &platform(), &mut eua, &config, 1).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn uer_clamp_keeps_frequency_at_or_above_e3_knee() {
        // Under E3 the energy-per-cycle optimum is ≈ 63 MHz. A nearly idle
        // workload would tempt pure look-ahead DVS down to 36 MHz; the UER
        // clamp must keep EUA* at ≥ 64 MHz, which shows up as lower energy.
        let platform = Platform::powernow(EnergySetting::e3());
        let tasks = TaskSet::new(vec![step_task("light", 100, 100_000.0, 1)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(100)).unwrap()];
        let config = SimConfig::new(ms(2_000));
        let clamped =
            Engine::run(&tasks, &patterns, &platform, &mut Eua::new(), &config, 1).unwrap();
        let unclamped = Engine::run(
            &tasks,
            &patterns,
            &platform,
            &mut Eua::with_options(EuaOptions {
                uer_clamp: false,
                ..EuaOptions::default()
            }),
            &config,
            1,
        )
        .unwrap();
        assert!(
            clamped.metrics.energy < unclamped.metrics.energy,
            "clamped {} vs unclamped {}",
            clamped.metrics.energy,
            unclamped.metrics.energy
        );
        assert_eq!(
            clamped.metrics.jobs_completed(),
            unclamped.metrics.jobs_completed()
        );
    }
}
