//! The discrete-event simulation engine.

use std::collections::BTreeSet;

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_uam::generator::ArrivalPattern;
use eua_uam::ArrivalTrace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::certificate::{ChargeKind, ChargeRecord, Recorder, RunCertificate, TaskDecl};
use crate::context::{JobView, SchedContext, SchedEvent};
use crate::error::SimError;
use crate::faults::{map_to_degraded, FaultPlan, FaultStats};
use crate::ids::{JobId, TaskId};
use crate::invariants::InvariantChecker;
use crate::metrics::Metrics;
use crate::platform_view::Platform;
use crate::policy::SchedulerPolicy;
use crate::task::TaskSet;

/// Configuration of one simulation run.
///
/// # Example
///
/// ```
/// use eua_platform::TimeDelta;
/// use eua_sim::SimConfig;
///
/// let config = SimConfig::new(TimeDelta::from_secs(10)).with_certificate();
/// assert!(config.record_certificate());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    horizon: TimeDelta,
    record_certificate: bool,
    context_switch: TimeDelta,
    frequency_switch: TimeDelta,
    progress_accrual: bool,
    idle_power: f64,
}

impl SimConfig {
    /// A configuration simulating `[0, horizon)` with no recording and no
    /// switch overhead.
    #[must_use]
    pub fn new(horizon: TimeDelta) -> Self {
        SimConfig {
            horizon,
            record_certificate: false,
            context_switch: TimeDelta::ZERO,
            frequency_switch: TimeDelta::ZERO,
            progress_accrual: false,
            idle_power: 0.0,
        }
    }

    /// Enables recording of the run's decision certificate: every
    /// scheduling decision (with the policy's self-explanation, when it
    /// provides one) and every energy charge, auditable offline by
    /// `eua-audit`. See [`crate::certificate`].
    #[must_use]
    pub fn with_certificate(mut self) -> Self {
        self.record_certificate = true;
        self
    }

    /// Charges `overhead` of wall time (at the chosen frequency's energy
    /// rate) whenever the running job changes. An interrupted switch is
    /// approximated by re-paying the penalty at the next dispatch.
    #[must_use]
    pub fn with_context_switch_overhead(mut self, overhead: TimeDelta) -> Self {
        self.context_switch = overhead;
        self
    }

    /// Charges `overhead` of wall time whenever the executing clock
    /// frequency changes (the PLL relock / voltage ramp of a real DVS
    /// processor). Same interruption approximation as
    /// [`SimConfig::with_context_switch_overhead`].
    #[must_use]
    pub fn with_frequency_switch_overhead(mut self, overhead: TimeDelta) -> Self {
        self.frequency_switch = overhead;
        self
    }

    /// Enables **progress-based utility accrual** (the paper's second
    /// named future-work item): a job aborted at time `t` with fraction
    /// `p` of its actual demand executed accrues `p · U(t − arrival)`
    /// instead of nothing.
    #[must_use]
    pub fn with_progress_accrual(mut self) -> Self {
        self.progress_accrual = true;
        self
    }

    /// The simulated horizon.
    #[must_use]
    pub fn horizon(&self) -> TimeDelta {
        self.horizon
    }

    /// Whether the decision certificate is recorded.
    #[must_use]
    pub fn record_certificate(&self) -> bool {
        self.record_certificate
    }

    /// The context-switch overhead.
    #[must_use]
    pub fn context_switch_overhead(&self) -> TimeDelta {
        self.context_switch
    }

    /// The frequency-switch overhead.
    #[must_use]
    pub fn frequency_switch_overhead(&self) -> TimeDelta {
        self.frequency_switch
    }

    /// Whether aborted jobs accrue progress-proportional utility.
    #[must_use]
    pub fn progress_accrual(&self) -> bool {
        self.progress_accrual
    }

    /// Charges `power` energy units per idle microsecond — the constant
    /// `S0`-class draw of non-CPU components that Martin's per-cycle model
    /// only accounts for while executing. The paper's evaluation uses the
    /// default of zero; the ablation harness explores non-zero values.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or non-finite.
    #[must_use]
    pub fn with_idle_power(mut self, power: f64) -> Self {
        assert!(
            power.is_finite() && power >= 0.0,
            "idle power must be non-negative"
        );
        self.idle_power = power;
        self
    }

    /// The idle power draw, in energy units per microsecond.
    #[must_use]
    pub fn idle_power(&self) -> f64 {
        self.idle_power
    }
}

/// Everything a run produced: metrics always, plus the decision
/// certificate when [`SimConfig::with_certificate`] is set. The
/// certificate is the run's only record of what happened when: its
/// events hold every decision (ready set, chosen job and frequency,
/// aborts) and its charge ledger every interval of execution, overhead
/// and idle draw. [`crate::analysis`] reads schedules back from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Aggregate metrics.
    pub metrics: Metrics,
    /// The decision certificate, when [`SimConfig::with_certificate`]
    /// was set.
    pub certificate: Option<RunCertificate>,
    /// What the run's [`FaultPlan`] actually injected (all zero without
    /// one; kept out of [`Metrics`] so zero-fault metrics stay
    /// bit-identical to the unfaulted engine).
    pub faults: FaultStats,
}

/// The simulation engine. See the crate-level documentation for the model
/// and an end-to-end example.
#[derive(Debug)]
pub struct Engine;

impl Engine {
    /// Runs `policy` against arrivals generated from `patterns` (one per
    /// task) over `config.horizon()`, with all randomness derived from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PatternCountMismatch`] if `patterns` and the
    /// task set disagree in length, [`SimError::ZeroHorizon`] for an empty
    /// horizon, and policy-contract violations as described in
    /// [`SimError`].
    pub fn run<P: SchedulerPolicy + ?Sized>(
        tasks: &TaskSet,
        patterns: &[ArrivalPattern],
        platform: &Platform,
        policy: &mut P,
        config: &SimConfig,
        seed: u64,
    ) -> Result<Outcome, SimError> {
        Self::run_with_faults(
            tasks,
            patterns,
            platform,
            policy,
            config,
            seed,
            &FaultPlan::none(),
        )
    }

    /// [`Engine::run`] with a [`FaultPlan`] injected: burst arrivals and
    /// jitter perturb the generated traces, demand mis-estimation scales
    /// the sampled cycle demands, and DVS/abort faults act inside the
    /// run loop. All fault randomness comes from a dedicated RNG derived
    /// from `seed` (see [`FaultPlan::rng`]), so an inactive plan is
    /// bit-identical to [`Engine::run`] and parallel replication stays
    /// byte-identical to sequential.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`], plus [`SimError::InvalidFaultPlan`] for a
    /// plan that fails [`FaultPlan::validate`] or whose degraded
    /// frequency set shares nothing with the platform table.
    pub fn run_with_faults<P: SchedulerPolicy + ?Sized>(
        tasks: &TaskSet,
        patterns: &[ArrivalPattern],
        platform: &Platform,
        policy: &mut P,
        config: &SimConfig,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<Outcome, SimError> {
        if patterns.len() != tasks.len() {
            return Err(SimError::PatternCountMismatch {
                tasks: tasks.len(),
                patterns: patterns.len(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let traces: Vec<ArrivalTrace> = patterns
            .iter()
            .map(|p| p.generate(config.horizon, &mut rng))
            .collect();
        Self::run_core(
            tasks, &traces, platform, policy, config, &mut rng, seed, plan,
        )
    }

    /// Runs `policy` against explicit arrival traces (one per task).
    /// Arrivals at or past the horizon are ignored. Demand sampling is
    /// seeded by `seed`.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run_with_traces<P: SchedulerPolicy + ?Sized>(
        tasks: &TaskSet,
        traces: &[ArrivalTrace],
        platform: &Platform,
        policy: &mut P,
        config: &SimConfig,
        seed: u64,
    ) -> Result<Outcome, SimError> {
        if traces.len() != tasks.len() {
            return Err(SimError::PatternCountMismatch {
                tasks: tasks.len(),
                patterns: traces.len(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        Self::run_core(
            tasks,
            traces,
            platform,
            policy,
            config,
            &mut rng,
            seed,
            &FaultPlan::none(),
        )
    }

    /// The production event loop: an arrival-ordered live table that is
    /// also the policy's view, and an ordered set of live terminations
    /// (DESIGN.md §14). The pre-overhaul loop is preserved in
    /// [`crate::reference`] and runs over the same [`PreparedRun`]; the
    /// `engine_differential` suite pins the two to byte-identical
    /// certificates.
    // eua-lint: hot
    #[allow(clippy::too_many_arguments)]
    fn run_core<P: SchedulerPolicy + ?Sized>(
        tasks: &TaskSet,
        traces: &[ArrivalTrace],
        platform: &Platform,
        policy: &mut P,
        config: &SimConfig,
        rng: &mut SmallRng,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<Outcome, SimError> {
        let prep = prepare_run(tasks, traces, platform, policy, config, rng, seed, plan)?;
        let mut state = EngineState::new(tasks, platform, config, plan, prep);
        state.run_loop(policy)?;
        state.invariants.finish(state.metrics.energy);
        Ok(Outcome {
            certificate: state.cert.map(|cert| cert.finish(state.metrics.energy)),
            metrics: state.metrics,
            faults: state.stats,
        })
    }
}

/// Everything both event loops consume, computed once: the validated
/// plan's perturbed arrival stream, pre-sampled demands, the degraded
/// platform view, and the certificate skeleton. Sharing this preamble is
/// what makes `run_core` and `run_core_reference` byte-comparable — they
/// cannot drift in setup, only in the loop itself.
pub(crate) struct PreparedRun {
    pub(crate) horizon_end: SimTime,
    pub(crate) arrivals: Vec<(SimTime, TaskId)>,
    pub(crate) demands: Vec<Cycles>,
    /// The surviving frequency set under a DVS degradation fault.
    pub(crate) degraded: Option<Vec<Frequency>>,
    /// The platform view handed to policies when `degraded` is set.
    pub(crate) policy_platform: Option<Platform>,
    pub(crate) stats: FaultStats,
    /// The decision certificate's recorder, when recording.
    pub(crate) cert: Option<Recorder>,
}

// Per-run setup: traces, frequency table, and certificate skeleton are
// built once before the first event, never per event.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_run<P: SchedulerPolicy + ?Sized>(
    tasks: &TaskSet,
    traces: &[ArrivalTrace],
    platform: &Platform,
    policy: &mut P,
    config: &SimConfig,
    rng: &mut SmallRng,
    seed: u64,
    plan: &FaultPlan,
) -> Result<PreparedRun, SimError> {
    if config.horizon.is_zero() {
        return Err(SimError::ZeroHorizon);
    }
    plan.validate()?;
    let horizon_end = SimTime::ZERO.saturating_add(config.horizon);

    // Fault randomness lives in its own seed-derived stream so an
    // active plan never re-deals the legal workload (and an inactive
    // one draws nothing at all).
    let mut fault_rng = FaultPlan::rng(seed);
    let mut stats = FaultStats::default();
    let perturbed;
    let traces: &[ArrivalTrace] = if plan.arrivals_faulted() {
        let before: u64 = traces.iter().map(|t| t.iter().count() as u64).sum();
        perturbed = plan.apply_to_traces(traces, tasks, horizon_end, &mut fault_rng);
        let after: u64 = perturbed.iter().map(|t| t.iter().count() as u64).sum();
        stats.injected_arrivals = after.saturating_sub(before);
        &perturbed
    } else {
        traces
    };

    // The degraded frequency view, when the plan restricts the table:
    // policies see (and the engine dispatches onto) only the surviving
    // frequencies, while energy is still billed by the true platform
    // model.
    let degraded = plan.degraded_table(platform.table())?;
    let policy_platform = match &degraded {
        Some(kept) => Some(Platform::new(
            eua_platform::FrequencyTable::new(kept.iter().map(|f| f.as_mhz())).map_err(|e| {
                SimError::InvalidFaultPlan {
                    reason: format!("degraded frequency set is unusable: {e}"),
                }
            })?,
            *platform.setting(),
        )),
        None => None,
    };

    // Merge all arrivals into one time-ordered stream (stable in task
    // order at equal instants) and pre-sample actual demands in that
    // order so results are reproducible per seed.
    let mut arrivals: Vec<(SimTime, TaskId)> = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        for t in trace.iter().filter(|&t| t < horizon_end) {
            arrivals.push((t, TaskId(i)));
        }
    }
    arrivals.sort_by_key(|&(t, tid)| (t, tid));
    let demand_faulted = plan.demand_faulted();
    let demands: Vec<Cycles> = arrivals
        .iter()
        .map(|&(_, tid)| {
            let sampled = tasks.task(tid).demand().sample(rng);
            plan.perturb_demand(sampled, &mut fault_rng)
        })
        .collect();
    if demand_faulted {
        stats.perturbed_demands = demands.len() as u64;
    }

    policy.reset();
    // Told unconditionally so a policy reused across runs drops any
    // stale certification state when recording is off.
    policy.certify(config.record_certificate);
    let cert = config.record_certificate.then(|| RunCertificate {
        policy: policy.name().to_string(),
        seed,
        horizon: config.horizon,
        frequencies_mhz: platform.table().iter().map(|f| f.as_mhz()).collect(),
        policy_frequencies_mhz: policy_platform
            .as_ref()
            .unwrap_or(platform)
            .table()
            .iter()
            .map(|f| f.as_mhz())
            .collect(),
        energy_name: platform.setting().name().to_string(),
        energy_rel: platform.setting().relative_coefficients(),
        idle_power: config.idle_power,
        tasks: tasks.iter().map(|(_, t)| TaskDecl::from_task(t)).collect(),
        arrivals: arrivals.iter().map(|&(t, tid)| (t, tid.index())).collect(),
        events: Vec::new(),
        charges: Vec::new(),
        final_energy: 0.0,
    });
    Ok(PreparedRun {
        horizon_end,
        arrivals,
        demands,
        degraded,
        policy_platform,
        stats,
        cert: cert.map(Recorder::new),
    })
}

struct EngineState<'a> {
    tasks: &'a TaskSet,
    platform: &'a Platform,
    config: &'a SimConfig,
    plan: &'a FaultPlan,
    horizon_end: SimTime,
    arrivals: Vec<(SimTime, TaskId)>,
    demands: Vec<Cycles>,
    cursor: usize,
    next_job_id: u64,
    now: SimTime,
    /// Live jobs in arrival (= id) order, exactly as the policy sees
    /// them. Maintained incrementally: only a dispatched job's
    /// `remaining`/`executed` ever change, so no per-event collect runs.
    views: Vec<JobView>,
    /// Lockstep with `views`: what the policy must not see.
    hidden: Vec<Hidden>,
    /// Tombstones in `views`/`hidden` awaiting `compact` (an abort wave
    /// marks in place and compacts once).
    dead: usize,
    /// Every live job's `(termination, id)`; the first entry is the
    /// earliest live termination.
    terminations: BTreeSet<(SimTime, JobId)>,
    running: Option<JobId>,
    last_freq: Option<Frequency>,
    /// The surviving frequency set under a DVS degradation fault.
    degraded: Option<Vec<Frequency>>,
    /// The platform view handed to policies when `degraded` is set.
    policy_platform: Option<Platform>,
    /// Absolute instant after which the clock generator is stuck.
    stuck_at: Option<SimTime>,
    /// The frequency the generator froze at (first dispatch past `stuck_at`).
    stuck_freq: Option<Frequency>,
    stats: FaultStats,
    metrics: Metrics,
    /// The decision certificate under construction, when recording.
    cert: Option<Recorder>,
    invariants: InvariantChecker,
}

/// The engine-only half of a live job, lockstep with its [`JobView`].
#[derive(Debug, Clone, Copy)]
struct Hidden {
    /// The sampled actual demand.
    actual: Cycles,
    /// Tombstone: the job died in the current wave and awaits `compact`.
    dead: bool,
}

/// What the scheduler believes remains: the allocation minus executed
/// cycles, floored at one cycle while the job is actually incomplete
/// (the scheduler cannot observe the overrun's true size).
fn believed_remaining(allocation: Cycles, executed: Cycles) -> Cycles {
    allocation.saturating_sub(executed).max(Cycles::new(1))
}

impl<'a> EngineState<'a> {
    // Per-run state construction (live table, metrics buffers):
    // allocates once, before the event loop starts.
    fn new(
        tasks: &'a TaskSet,
        platform: &'a Platform,
        config: &'a SimConfig,
        plan: &'a FaultPlan,
        prep: PreparedRun,
    ) -> Self {
        EngineState {
            tasks,
            platform,
            config,
            plan,
            horizon_end: prep.horizon_end,
            arrivals: prep.arrivals,
            demands: prep.demands,
            cursor: 0,
            next_job_id: 0,
            now: SimTime::ZERO,
            views: Vec::new(),
            hidden: Vec::new(),
            dead: 0,
            terminations: BTreeSet::new(),
            running: None,
            last_freq: None,
            degraded: prep.degraded,
            policy_platform: prep.policy_platform,
            stuck_at: plan
                .dvs
                .stuck_after
                .map(|after| SimTime::ZERO.saturating_add(after)),
            stuck_freq: None,
            stats: prep.stats,
            metrics: Metrics::new(config.horizon, tasks.len()),
            cert: prep.cert,
            invariants: InvariantChecker::new(tasks.len()),
        }
    }

    // eua-lint: hot
    fn run_loop<P: SchedulerPolicy + ?Sized>(&mut self, policy: &mut P) -> Result<(), SimError> {
        let mut event = SchedEvent::Start;
        loop {
            // 1 + 2. Admit arrivals due now and raise the termination
            // exception for overdue jobs — repeated to a fixpoint because
            // a costly abort (fault plan) advances the clock, possibly
            // past further arrivals or termination times.
            loop {
                if self.admit_arrivals() && !matches!(event, SchedEvent::Completion(_)) {
                    event = SchedEvent::Arrival;
                }
                let before = self.now;
                if let Some(aborted) = self.abort_overdue() {
                    if !matches!(event, SchedEvent::Completion(_)) {
                        event = SchedEvent::Abort(aborted);
                    }
                }
                if self.now == before {
                    break;
                }
            }
            // 3. Horizon.
            if self.now >= self.horizon_end {
                break;
            }
            // 4. Fast-forward through idle gaps.
            if self.views.is_empty() {
                match self.arrivals.get(self.cursor) {
                    Some(&(t, _)) => {
                        let stop = t.min(self.horizon_end);
                        self.advance_idle(stop);
                        continue;
                    }
                    None => {
                        self.advance_idle(self.horizon_end);
                        break;
                    }
                }
            }
            // 5. Ask the policy. `views` is maintained incrementally, so
            // no per-event collect happens here. Under a degraded-
            // frequency fault the policy sees (and budgets against) only
            // the surviving frequencies.
            let decision = {
                let ctx = SchedContext {
                    now: self.now,
                    event,
                    jobs: &self.views,
                    tasks: self.tasks,
                    platform: self.policy_platform.as_ref().unwrap_or(self.platform),
                    running: self.running,
                    energy_used: self.metrics.energy,
                };
                policy.decide(&ctx)
            };
            self.record_decision(event, &decision, policy);
            event = SchedEvent::Start; // consumed; will be overwritten below
            if let Some(aborted) = self.apply_policy_aborts(&decision)? {
                if !self.plan.timing.abort_cost.is_zero() {
                    // The costly abort handler advanced the clock, so the
                    // decision's timing assumptions are stale — re-decide.
                    event = SchedEvent::Abort(aborted);
                    continue;
                }
            }

            let Some(run_id) = decision.run else {
                // Idle until something happens.
                self.running = None;
                let stop = self.next_passive_event();
                self.advance_idle(stop);
                continue;
            };
            if !self
                .platform
                .table()
                .as_slice()
                .contains(&decision.frequency)
            {
                return Err(SimError::UnknownFrequency {
                    mhz: decision.frequency.as_mhz(),
                });
            }
            let Some(job_idx) = self.find_live(run_id) else {
                return Err(SimError::UnknownJob { job: run_id });
            };
            let mut freq = decision.frequency;
            // DVS faults: remap onto the degraded set, then pin to the
            // stuck frequency once the generator fault has fired.
            if let Some(kept) = &self.degraded {
                let mapped = map_to_degraded(kept, freq);
                if mapped != freq {
                    self.stats.degraded_remaps += 1;
                    freq = mapped;
                }
            }
            if let Some(stuck_at) = self.stuck_at {
                if self.now >= stuck_at {
                    let pinned = *self.stuck_freq.get_or_insert(freq);
                    if pinned != freq {
                        self.stats.stuck_dispatches += 1;
                        freq = pinned;
                    }
                }
            }

            // 6. Context/frequency switch bookkeeping (and optional
            // overheads).
            let switching_job = self.running != Some(run_id);
            let switching_freq = self.last_freq.is_some() && self.last_freq != Some(freq);
            if let Some(old) = self.running {
                if switching_job {
                    self.metrics.context_switches += 1;
                    if self.find_live(old).is_some() {
                        self.metrics.preemptions += 1;
                    }
                }
            }
            let mut pause = TimeDelta::ZERO;
            if switching_job {
                pause = pause.saturating_add(self.config.context_switch);
            }
            if switching_freq {
                pause = pause.saturating_add(self.config.frequency_switch);
                let latency = self.plan.dvs.switch_latency_cycles;
                if latency > 0 {
                    // PLL relock modelled in cycles: billed as wall time
                    // at the target frequency.
                    pause = pause.saturating_add(freq.execution_time(Cycles::new(latency)));
                    self.stats.latency_switches += 1;
                }
            }
            if !pause.is_zero() {
                let target = self.now.saturating_add(pause);
                let stop = self.next_passive_event().min(target).max(self.now);
                let delta = stop.saturating_since(self.now);
                if !delta.is_zero() {
                    let cycles = freq.cycles_in(delta);
                    let charge = self.platform.energy().energy_for(cycles, freq);
                    self.invariants.energy_charge(charge);
                    self.metrics.energy += charge;
                    self.metrics.add_busy(freq.as_mhz(), delta);
                    self.record_charge(ChargeKind::Switch, freq.as_mhz(), cycles, delta, charge);
                }
                self.invariants.clock_advance(self.now, stop);
                self.now = stop;
                if stop < target {
                    // Switch interrupted by an event; re-decide there.
                    continue;
                }
            }
            if self.last_freq != Some(freq) {
                if self.last_freq.is_some() {
                    self.metrics.frequency_changes += 1;
                }
                self.last_freq = Some(freq);
            }
            self.running = Some(run_id);

            // 7. Execute until the next event.
            let actual_remaining = self.hidden[job_idx]
                .actual
                .saturating_sub(self.views[job_idx].executed);
            let completion_at = self
                .now
                .saturating_add(freq.execution_time(actual_remaining));
            self.invariants.executing(run_id);
            let next = self.next_passive_event().min(completion_at).max(self.now);
            let delta = next.saturating_since(self.now);
            let cycles = freq.cycles_in(delta).min(actual_remaining);
            // The dispatched job is the only live job whose view fields
            // can change between events.
            let job = &mut self.views[job_idx];
            job.executed += cycles;
            job.remaining =
                believed_remaining(self.tasks.task(job.task).allocation(), job.executed);
            let job_id = job.id;
            let completed = cycles == actual_remaining;
            let charge = self.platform.energy().energy_for(cycles, freq);
            self.invariants.energy_charge(charge);
            self.metrics.energy += charge;
            self.metrics.add_busy(freq.as_mhz(), delta);
            self.record_charge(ChargeKind::Execute, freq.as_mhz(), cycles, delta, charge);
            self.invariants.clock_advance(self.now, next);
            self.now = next;
            if completed {
                self.complete_at(job_idx);
                event = SchedEvent::Completion(job_id);
            }
        }
        Ok(())
    }

    /// Advances the clock through an idle gap, charging the configured
    /// idle power.
    fn advance_idle(&mut self, to: SimTime) {
        let delta = to.saturating_since(self.now);
        if !delta.is_zero() && self.config.idle_power > 0.0 {
            let charge = self.config.idle_power * delta.as_micros() as f64;
            self.invariants.energy_charge(charge);
            self.metrics.energy += charge;
            self.record_charge(ChargeKind::Idle, 0, Cycles::ZERO, delta, charge);
        }
        self.invariants.clock_advance(self.now, to);
        self.now = to;
    }

    /// Mirrors one `metrics.energy` charge into the certificate, when
    /// recording. Empty charges (no cycles, no time, no energy) are
    /// dropped to keep certificates minimal.
    fn record_charge(
        &mut self,
        kind: ChargeKind,
        frequency_mhz: u64,
        cycles: Cycles,
        delta: TimeDelta,
        energy: f64,
    ) {
        let Some(cert) = self.cert.as_mut() else {
            return;
        };
        if cycles.is_zero() && delta.is_zero() && energy == 0.0 {
            return;
        }
        cert.charges.push(ChargeRecord {
            at: self.now,
            kind,
            frequency_mhz,
            cycles,
            micros: delta.as_micros(),
            energy,
        });
    }

    /// Certificate: every decision is recorded at its instant — including
    /// ones later discarded by a costly-abort clock jump, which were
    /// still valid when taken — with the ready set's change since the
    /// previous decision. Cold by construction: recording allocates and
    /// walks the ready set, so it lives outside the `// eua-lint: hot`
    /// loop body, and an uncertified run returns at once.
    fn record_decision<P: SchedulerPolicy + ?Sized>(
        &mut self,
        event: SchedEvent,
        decision: &crate::policy::Decision,
        policy: &mut P,
    ) {
        let Some(cert) = self.cert.as_mut() else {
            return;
        };
        cert.record(self.now, event, &self.views, decision, policy.explain());
    }

    /// The earliest upcoming event the engine controls: an arrival, a
    /// termination expiry, or the horizon itself. The arrival stream is
    /// cursor-ordered and the termination set is ordered, so both are a
    /// first-element read.
    // eua-lint: hot
    fn next_passive_event(&self) -> SimTime {
        let next_arrival = self
            .arrivals
            .get(self.cursor)
            .map_or(SimTime::MAX, |&(t, _)| t);
        let next_termination = self.terminations.first().map_or(SimTime::MAX, |&(t, _)| t);
        next_arrival.min(next_termination).min(self.horizon_end)
    }

    /// The position of live job `id` in `views`: ids are assigned in
    /// arrival order and `views` preserves it, so this is a binary
    /// search. A tombstoned entry counts as absent.
    #[inline]
    fn find_live(&self, id: JobId) -> Option<usize> {
        let idx = self.views.binary_search_by(|v| v.id.cmp(&id)).ok()?;
        (!self.hidden[idx].dead).then_some(idx)
    }

    /// Marks the job at `idx` dead in place and drops its termination
    /// from the live set, returning its view and actual demand. The
    /// caller owns the wave's final `compact`.
    fn tombstone(&mut self, idx: usize) -> (JobView, Cycles) {
        let job = self.views[idx];
        self.terminations.remove(&(job.termination, job.id));
        self.hidden[idx].dead = true;
        self.dead += 1;
        (job, self.hidden[idx].actual)
    }

    /// Drops every tombstoned entry from `views`/`hidden` in one pass,
    /// preserving arrival order.
    fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let mut w = 0;
        for i in 0..self.views.len() {
            if !self.hidden[i].dead {
                self.views[w] = self.views[i];
                self.hidden[w] = self.hidden[i];
                w += 1;
            }
        }
        self.views.truncate(w);
        self.hidden.truncate(w);
        self.dead = 0;
    }

    // eua-lint: hot
    fn admit_arrivals(&mut self) -> bool {
        let mut any = false;
        while let Some(&(t, tid)) = self.arrivals.get(self.cursor) {
            // `t < now` happens only after a costly-abort clock jump —
            // those arrivals are admitted late rather than stranded.
            if t > self.now {
                break;
            }
            let actual = self.demands[self.cursor];
            self.cursor += 1;
            let task = self.tasks.task(tid);
            // Under injected UAM violations the declared bound no longer
            // holds by construction; check against the relaxed bound the
            // plan guarantees instead.
            self.invariants.arrival(
                tid.index(),
                t,
                self.plan
                    .relaxed_uam_bound(task.uam().max_arrivals(), task.uam().window()),
                task.uam().window(),
            );
            let id = JobId(self.next_job_id);
            self.next_job_id += 1;
            let critical = t.saturating_add(task.critical_offset());
            let termination = t.saturating_add(task.termination_offset());
            self.terminations.insert((termination, id));
            self.views.push(JobView {
                id,
                task: tid,
                arrival: t,
                critical_time: critical,
                termination,
                remaining: believed_remaining(task.allocation(), Cycles::ZERO),
                executed: Cycles::ZERO,
            });
            self.hidden.push(Hidden {
                actual,
                dead: false,
            });
            let tm = &mut self.metrics.per_task[tid.index()];
            tm.arrived += 1;
            // Utility accounting is restricted to *observable* jobs —
            // those whose termination time falls within the horizon — so
            // slow-but-legal policies are not penalized for jobs still in
            // flight at the cutoff.
            if termination <= self.horizon_end {
                tm.observable += 1;
                tm.max_utility += task.tuf().max_utility();
                self.metrics.max_possible_utility += task.tuf().max_utility();
            }
            any = true;
        }
        any
    }

    /// Aborts every incomplete job whose termination time has been
    /// reached, as one batched wave: jobs are tombstoned in place and the
    /// live set compacts once at the end, so a termination wave costs one
    /// pass (and triggers one re-decide) instead of one removal each.
    /// Returns one of the aborted ids for event labelling.
    // eua-lint: hot
    fn abort_overdue(&mut self) -> Option<JobId> {
        // Fast path: nothing is overdue unless the earliest live
        // termination has been reached.
        match self.terminations.first() {
            Some(&(t, _)) if t <= self.now => {}
            _ => return None,
        }
        let mut witness = None;
        for idx in 0..self.views.len() {
            // A costly abort advances the clock mid-wave, so each job is
            // checked against the `now` in force when the wave reaches it
            // — exactly the reference loop's traversal. Jobs the jump
            // strands behind the wavefront are caught by the caller's
            // fixpoint.
            if self.views[idx].termination <= self.now {
                witness = Some(self.views[idx].id);
                self.finish_abort_at(idx, false);
            }
        }
        self.compact();
        witness
    }

    /// Applies `decision.abort` as one batched wave, returning the last
    /// aborted id (so the caller can re-decide after a costly-abort
    /// clock jump).
    fn apply_policy_aborts(
        &mut self,
        decision: &crate::policy::Decision,
    ) -> Result<Option<JobId>, SimError> {
        let mut last = None;
        for &id in &decision.abort {
            if decision.run == Some(id) {
                return Err(SimError::RunAbortConflict { job: id });
            }
            // Tombstones keep `views` id-sorted mid-wave, so the lookup
            // stays a binary search; a duplicate abort id finds a
            // tombstone and fails like the unknown id it now is.
            let Some(idx) = self.find_live(id) else {
                return Err(SimError::UnknownJob { job: id });
            };
            self.finish_abort_at(idx, true);
            last = Some(id);
        }
        self.compact();
        Ok(last)
    }

    /// Tombstones the job at `idx` and does the full end-of-life
    /// accounting. The caller owns the wave's final `compact`.
    fn finish_abort_at(&mut self, idx: usize, by_policy: bool) {
        let (job, actual) = self.tombstone(idx);
        self.invariants.job_aborted(job.id);
        let task = self.tasks.task(job.task);
        let tm = &mut self.metrics.per_task[job.task.index()];
        if by_policy {
            tm.aborted_by_policy += 1;
        } else {
            tm.aborted_by_termination += 1;
        }
        // An aborted job accrues nothing — unless progress-based accrual
        // is on, in which case it earns its executed fraction of the
        // current utility. Either way it can still satisfy its `ν`.
        let mut accrued = 0.0;
        if self.config.progress_accrual && !actual.is_zero() {
            let progress = (job.executed.as_f64() / actual.as_f64()).clamp(0.0, 1.0);
            accrued = progress * task.tuf().utility(self.now.saturating_since(job.arrival));
        }
        if job.termination <= self.horizon_end {
            tm.utility += accrued;
            self.metrics.total_utility += accrued;
            if accrued + 1e-9 >= task.assurance().nu() * task.tuf().max_utility() {
                tm.assured += 1;
            }
        }
        if self.running == Some(job.id) {
            self.running = None;
        }
        // Fault plan: the abort handler itself takes wall time and energy
        // (billed at the last dispatched frequency, f_max before any
        // dispatch), advancing the clock past the abort instant.
        let cost = self.plan.timing.abort_cost;
        if !cost.is_zero() {
            let freq = self.last_freq.unwrap_or_else(|| self.platform.f_max());
            let stop = self.now.saturating_add(cost);
            let charge = self
                .platform
                .energy()
                .energy_for(freq.cycles_in(cost), freq);
            self.invariants.energy_charge(charge);
            self.metrics.energy += charge;
            self.metrics.add_busy(freq.as_mhz(), cost);
            self.record_charge(
                ChargeKind::AbortCost,
                freq.as_mhz(),
                freq.cycles_in(cost),
                cost,
                charge,
            );
            self.invariants.clock_advance(self.now, stop);
            self.now = stop;
            self.stats.costly_aborts += 1;
        }
    }

    fn complete_at(&mut self, idx: usize) {
        let (job, actual) = self.tombstone(idx);
        self.compact();
        self.invariants
            .completion(job.id, self.now, job.termination, job.executed, actual);
        let task = self.tasks.task(job.task);
        let sojourn = self.now.saturating_since(job.arrival);
        let utility = task.tuf().utility(sojourn);
        let tm = &mut self.metrics.per_task[job.task.index()];
        tm.completed += 1;
        if job.termination <= self.horizon_end {
            tm.utility += utility;
            self.metrics.total_utility += utility;
            let needed = task.assurance().nu() * task.tuf().max_utility();
            if utility + 1e-9 >= needed {
                tm.assured += 1;
            }
        }
        if self.now <= job.critical_time {
            tm.critical_met += 1;
        }
        // In i128, clamped into the i64 field: a critical time may lie
        // anywhere in `u64` µs.
        let lateness = i128::from(self.now.as_micros())
            .saturating_sub(i128::from(job.critical_time.as_micros()))
            .clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
        tm.max_lateness_us = tm.max_lateness_us.max(lateness);
        if tm.completed == 1 {
            // First completion defines the initial lateness rather than the
            // i64 default of 0 (which would hide early completions).
            tm.max_lateness_us = lateness;
        }
        if self.running == Some(job.id) {
            self.running = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::EnergySetting;
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    use crate::policy::MaxSpeedEdf;
    use crate::task::Task;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn step_task(name: &str, p_ms: u64, cycles: f64) -> Task {
        Task::new(
            name,
            Tuf::step(10.0, ms(p_ms)).unwrap(),
            UamSpec::periodic(ms(p_ms)).unwrap(),
            DemandModel::deterministic(cycles).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap()
    }

    fn platform() -> Platform {
        Platform::powernow(EnergySetting::e1())
    }

    #[test]
    fn single_periodic_task_completes_every_job() {
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let m = &out.metrics;
        assert_eq!(m.jobs_arrived(), 10);
        assert_eq!(m.jobs_completed(), 10);
        assert_eq!(m.jobs_aborted(), 0);
        // Each job: 100k cycles at 100 MHz = 1 ms, utility 10.
        assert!((m.total_utility - 100.0).abs() < 1e-9);
        assert_eq!(m.busy_time, ms(10));
        // Energy: 1M cycles at E1(100) = 10^4 per cycle.
        assert!((m.energy - 1e6 * 1e4).abs() < 1.0);
        assert!(m.meets_assurances(&tasks));
    }

    #[test]
    fn overloaded_task_aborts_at_termination() {
        // 2M cycles at 100 MHz = 20 ms > 10 ms period: every job expires.
        let tasks = TaskSet::new(vec![step_task("t", 10, 2_000_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100)).with_certificate();
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let m = &out.metrics;
        assert_eq!(m.jobs_completed(), 0);
        assert_eq!(m.jobs_aborted(), 10);
        assert_eq!(m.per_task[0].aborted_by_termination, 10);
        assert_eq!(m.total_utility, 0.0);
        // No decision asked for an abort: the termination exception
        // took every job.
        let cert = out.certificate.unwrap();
        assert_eq!(cert.arrivals.len(), 10);
        assert!(cert.events.iter().all(|e| e.aborts.is_empty()));
    }

    #[test]
    fn trace_records_serial_segments() {
        let tasks = TaskSet::new(vec![
            step_task("a", 10, 200_000.0),
            step_task("b", 20, 400_000.0),
        ])
        .unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(20)).unwrap(),
        ];
        let config = SimConfig::new(ms(60)).with_certificate();
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        // The charge ledger is serial, and its non-idle intervals add up
        // to the metered busy time.
        assert_eq!(
            crate::analysis::ledger_busy_time(out.certificate.as_ref().unwrap()),
            Some(out.metrics.busy_time)
        );
        // 6 jobs of a (2 ms each) + 3 jobs of b (4 ms each) = 24 ms busy.
        assert_eq!(out.metrics.busy_time, ms(24));
    }

    #[test]
    fn preemption_happens_under_edf() {
        // Long low-urgency job released at 0 (critical 50 ms), short urgent
        // job released at 5 ms (critical 10 ms at arrival +5).
        let long = Task::new(
            "long",
            Tuf::step(1.0, ms(50)).unwrap(),
            UamSpec::periodic(ms(50)).unwrap(),
            DemandModel::deterministic(3_000_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let short = Task::new(
            "short",
            Tuf::step(1.0, ms(10)).unwrap(),
            UamSpec::periodic(ms(50)).unwrap(),
            DemandModel::deterministic(100_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![long, short]).unwrap();
        let traces = vec![
            ArrivalTrace::from_times([SimTime::ZERO]),
            ArrivalTrace::from_times([SimTime::from_millis(5)]),
        ];
        let config = SimConfig::new(ms(50)).with_certificate();
        let out = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        assert_eq!(out.metrics.preemptions, 1);
        assert_eq!(out.metrics.jobs_completed(), 2);
        let seq: Vec<u64> = crate::analysis::dispatch_sequence(&out.certificate.unwrap())
            .iter()
            .map(|j| j.get())
            .collect();
        assert_eq!(seq, vec![0, 1, 0]);
    }

    #[test]
    fn utility_respects_tuf_shape() {
        // Linear TUF over 10 ms; job takes 4 ms → utility = 0.6·Umax.
        let task = Task::new(
            "lin",
            Tuf::linear(100.0, ms(10)).unwrap(),
            UamSpec::periodic(ms(10)).unwrap(),
            DemandModel::deterministic(400_000.0).unwrap(),
            Assurance::new(0.3, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let config = SimConfig::new(ms(10));
        let out = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        assert!((out.metrics.total_utility - 60.0).abs() < 1e-6);
    }

    #[test]
    fn policy_abort_is_counted_separately() {
        struct AbortAll;
        impl SchedulerPolicy for AbortAll {
            fn name(&self) -> &str {
                "abort-all"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                crate::policy::Decision::idle(ctx.platform.f_max())
                    .with_aborts(ctx.jobs.iter().map(|j| j.id))
            }
        }
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(50));
        let out = Engine::run(&tasks, &patterns, &platform(), &mut AbortAll, &config, 1).unwrap();
        assert_eq!(out.metrics.per_task[0].aborted_by_policy, 5);
        assert_eq!(out.metrics.jobs_completed(), 0);
    }

    #[test]
    fn invalid_decisions_are_rejected() {
        struct BadFreq;
        impl SchedulerPolicy for BadFreq {
            fn name(&self) -> &str {
                "bad"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                crate::policy::Decision::run(ctx.jobs[0].id, Frequency::from_mhz(123))
            }
        }
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(50));
        let err =
            Engine::run(&tasks, &patterns, &platform(), &mut BadFreq, &config, 1).unwrap_err();
        assert_eq!(err, SimError::UnknownFrequency { mhz: 123 });

        struct Conflict;
        impl SchedulerPolicy for Conflict {
            fn name(&self) -> &str {
                "conflict"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                let id = ctx.jobs[0].id;
                crate::policy::Decision::run(id, ctx.platform.f_max()).with_aborts([id])
            }
        }
        let err =
            Engine::run(&tasks, &patterns, &platform(), &mut Conflict, &config, 1).unwrap_err();
        assert!(matches!(err, SimError::RunAbortConflict { .. }));

        // The second abort of one job in one decision finds its
        // tombstone, not a live job.
        struct DoubleAbort;
        impl SchedulerPolicy for DoubleAbort {
            fn name(&self) -> &str {
                "double-abort"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                let id = ctx.jobs[0].id;
                crate::policy::Decision::idle(ctx.platform.f_max()).with_aborts([id, id])
            }
        }
        let err =
            Engine::run(&tasks, &patterns, &platform(), &mut DoubleAbort, &config, 1).unwrap_err();
        assert_eq!(err, SimError::UnknownJob { job: JobId(0) });

        struct RunsGhost;
        impl SchedulerPolicy for RunsGhost {
            fn name(&self) -> &str {
                "runs-ghost"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                crate::policy::Decision::run(JobId(999), ctx.platform.f_max())
            }
        }
        let err =
            Engine::run(&tasks, &patterns, &platform(), &mut RunsGhost, &config, 1).unwrap_err();
        assert_eq!(err, SimError::UnknownJob { job: JobId(999) });
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let task = Task::new(
            "n",
            Tuf::step(5.0, ms(10)).unwrap(),
            UamSpec::new(2, ms(10)).unwrap(),
            DemandModel::normal(200_000.0, 200_000.0).unwrap(),
            Assurance::new(1.0, 0.9).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let patterns =
            vec![ArrivalPattern::random_burst(UamSpec::new(2, ms(10)).unwrap()).unwrap()];
        let config = SimConfig::new(ms(500));
        let a = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            9,
        )
        .unwrap();
        let b = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            9,
        )
        .unwrap();
        assert_eq!(a.metrics, b.metrics);
        let c = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            10,
        )
        .unwrap();
        assert_ne!(a.metrics, c.metrics);
        // Over one fixed trace, only the seed deals the demands.
        let traces = vec![patterns[0].generate(config.horizon, &mut SmallRng::seed_from_u64(1))];
        let metrics_at = |seed| {
            Engine::run_with_traces(
                &tasks,
                &traces,
                &platform(),
                &mut MaxSpeedEdf::new(),
                &config,
                seed,
            )
            .unwrap()
            .metrics
        };
        assert_ne!(metrics_at(9), metrics_at(10));
    }

    #[test]
    fn zero_horizon_rejected() {
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(TimeDelta::ZERO);
        let err = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap_err();
        assert_eq!(err, SimError::ZeroHorizon);
    }

    #[test]
    fn pattern_count_mismatch_rejected() {
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000.0)]).unwrap();
        let config = SimConfig::new(ms(10));
        let err = Engine::run(
            &tasks,
            &[],
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::PatternCountMismatch {
                tasks: 1,
                patterns: 0
            }
        );
    }

    #[test]
    fn context_switch_overhead_consumes_time_and_energy() {
        let tasks = TaskSet::new(vec![
            step_task("a", 10, 100_000.0),
            step_task("b", 10, 100_000.0),
        ])
        .unwrap();
        let patterns = vec![
            ArrivalPattern::periodic(ms(10)).unwrap(),
            ArrivalPattern::periodic(ms(10)).unwrap(),
        ];
        let plain = SimConfig::new(ms(100));
        let costly =
            SimConfig::new(ms(100)).with_context_switch_overhead(TimeDelta::from_micros(100));
        let a = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &plain,
            1,
        )
        .unwrap();
        let b = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &costly,
            1,
        )
        .unwrap();
        assert!(b.metrics.energy > a.metrics.energy);
        assert!(b.metrics.busy_time > a.metrics.busy_time);
    }

    #[test]
    fn progress_accrual_pays_partial_utility_on_abort() {
        // A job with 2 P of work executes half its demand before the
        // termination exception: with progress accrual it earns half the
        // step utility (the step is still "up" at the abort instant only
        // for TUFs that pay at termination — use a step whose step_at
        // equals termination so U(X) = height).
        let tasks = TaskSet::new(vec![step_task("t", 10, 2_000_000.0)]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let plain = SimConfig::new(ms(20));
        let partial = SimConfig::new(ms(20)).with_progress_accrual();
        let a = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &plain,
            1,
        )
        .unwrap();
        assert_eq!(a.metrics.total_utility, 0.0);
        let b = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &partial,
            1,
        )
        .unwrap();
        // Executed 10 ms · 100 MHz = 1M of 2M cycles ⇒ progress 0.5; the
        // step TUF still pays its height (10) at exactly t = X.
        assert!(
            (b.metrics.total_utility - 5.0).abs() < 1e-9,
            "{}",
            b.metrics.total_utility
        );
    }

    #[test]
    fn progress_accrual_changes_nothing_for_completed_jobs() {
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let plain = SimConfig::new(ms(100));
        let partial = SimConfig::new(ms(100)).with_progress_accrual();
        let a = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &plain,
            1,
        )
        .unwrap();
        let b = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &partial,
            1,
        )
        .unwrap();
        assert_eq!(a.metrics.total_utility, b.metrics.total_utility);
    }

    #[test]
    fn frequency_switch_overhead_consumes_time_and_energy() {
        // A policy that alternates between two frequencies every decision.
        struct Flapper(bool);
        impl SchedulerPolicy for Flapper {
            fn name(&self) -> &str {
                "flapper"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                self.0 = !self.0;
                let f = if self.0 {
                    ctx.platform.f_max()
                } else {
                    ctx.platform.table().min()
                };
                match ctx.jobs.first() {
                    Some(j) => crate::policy::Decision::run(j.id, f),
                    None => crate::policy::Decision::idle(f),
                }
            }
        }
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let plain = SimConfig::new(ms(100));
        let costly =
            SimConfig::new(ms(100)).with_frequency_switch_overhead(TimeDelta::from_micros(50));
        let a = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut Flapper(false),
            &plain,
            1,
        )
        .unwrap();
        let b = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut Flapper(false),
            &costly,
            1,
        )
        .unwrap();
        assert!(a.metrics.frequency_changes > 0);
        assert!(b.metrics.busy_time > a.metrics.busy_time);
        assert!(b.metrics.energy > a.metrics.energy);
    }

    #[test]
    fn frequency_residency_sums_to_busy_time() {
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let out = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let m = &out.metrics;
        let total: TimeDelta = m.freq_residency.iter().map(|r| r.busy).sum();
        assert_eq!(total, m.busy_time);
        // MaxSpeedEdf only ever runs at 100 MHz.
        assert_eq!(m.freq_residency.len(), 1);
        assert_eq!(m.freq_residency[0].mhz, 100);
        assert_eq!(m.mean_frequency_mhz(), Some(100.0));
    }

    #[test]
    fn idle_power_charges_idle_gaps() {
        // 1 ms of work per 10 ms window over 100 ms: 90 ms idle.
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let plain = SimConfig::new(ms(100));
        let drawing = SimConfig::new(ms(100)).with_idle_power(2.0);
        let a = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &plain,
            1,
        )
        .unwrap();
        let b = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &drawing,
            1,
        )
        .unwrap();
        let idle_us = ms(100).saturating_sub(a.metrics.busy_time).as_micros() as f64;
        assert!(
            (b.metrics.energy - a.metrics.energy - 2.0 * idle_us).abs() < 1e-6,
            "idle energy mismatch: {} vs {}",
            b.metrics.energy - a.metrics.energy,
            2.0 * idle_us
        );
    }

    #[test]
    fn context_exposes_cumulative_energy() {
        struct EnergyWatcher {
            last_seen: f64,
            monotone: bool,
        }
        impl SchedulerPolicy for EnergyWatcher {
            fn name(&self) -> &str {
                "watcher"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                if ctx.energy_used < self.last_seen {
                    self.monotone = false;
                }
                self.last_seen = ctx.energy_used;
                match ctx.jobs.first() {
                    Some(j) => crate::policy::Decision::run(j.id, ctx.platform.f_max()),
                    None => crate::policy::Decision::idle(ctx.platform.f_max()),
                }
            }
        }
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let mut watcher = EnergyWatcher {
            last_seen: 0.0,
            monotone: true,
        };
        let out = Engine::run(&tasks, &patterns, &platform(), &mut watcher, &config, 1).unwrap();
        assert!(watcher.monotone, "energy_used must be non-decreasing");
        assert!(
            watcher.last_seen <= out.metrics.energy,
            "policy view cannot exceed the final bill"
        );
        assert!(
            watcher.last_seen > 0.0,
            "policy must observe energy accruing"
        );
    }

    #[test]
    fn zero_intensity_plan_is_bit_identical_to_unfaulted_run() {
        use crate::faults::{DemandFault, DvsFault, TimingFault, UamViolationFault};
        // An explicit all-zero plan, not `FaultPlan::none()`: zero
        // intensities must short-circuit every fault path.
        let plan = FaultPlan {
            uam: UamViolationFault {
                extra_per_window: 0,
                every_n_windows: 4,
            },
            demand: DemandFault {
                mean_factor: 1.0,
                spread: 0.0,
            },
            dvs: DvsFault {
                switch_latency_cycles: 0,
                stuck_after: None,
                degraded_mhz: None,
            },
            timing: TimingFault {
                abort_cost: TimeDelta::ZERO,
                arrival_jitter: TimeDelta::ZERO,
            },
        };
        let task = Task::new(
            "n",
            Tuf::step(5.0, ms(10)).unwrap(),
            UamSpec::new(2, ms(10)).unwrap(),
            DemandModel::normal(200_000.0, 200_000.0).unwrap(),
            Assurance::new(1.0, 0.9).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let patterns =
            vec![ArrivalPattern::random_burst(UamSpec::new(2, ms(10)).unwrap()).unwrap()];
        let config = SimConfig::new(ms(500)).with_certificate();
        let plain = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            9,
        )
        .unwrap();
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            9,
            &plan,
        )
        .unwrap();
        assert_eq!(plain, faulted);
        assert_eq!(faulted.faults, crate::faults::FaultStats::default());
    }

    #[test]
    fn burst_fault_injects_extra_arrivals() {
        let plan = FaultPlan {
            uam: crate::faults::UamViolationFault {
                extra_per_window: 2,
                every_n_windows: 1,
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let plain = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        assert_eq!(faulted.faults.injected_arrivals, 20, "2 per 10ms window");
        assert_eq!(
            faulted.metrics.jobs_arrived(),
            plain.metrics.jobs_arrived() + 20
        );
    }

    #[test]
    fn demand_fault_turns_underload_into_overload() {
        // 100k cycles declared; ×15 exceeds the 10 ms window at 100 MHz.
        let plan = FaultPlan {
            demand: crate::faults::DemandFault {
                mean_factor: 15.0,
                spread: 0.0,
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        assert_eq!(faulted.faults.perturbed_demands, 10);
        assert_eq!(faulted.metrics.jobs_completed(), 0);
        assert_eq!(faulted.metrics.jobs_aborted(), 10);
    }

    #[test]
    fn degraded_frequency_set_slows_execution() {
        let plan = FaultPlan {
            dvs: crate::faults::DvsFault {
                degraded_mhz: Some(vec![55]),
                ..Default::default()
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        // MaxSpeedEdf asks for the degraded table's max (55 MHz), which is
        // already in the degraded set — no remap, but all residency at 55.
        assert_eq!(faulted.metrics.freq_residency.len(), 1);
        assert_eq!(faulted.metrics.freq_residency[0].mhz, 55);
        assert_eq!(faulted.metrics.jobs_completed(), 10);
    }

    #[test]
    fn stuck_frequency_pins_later_dispatches() {
        // Flapper alternates 100 ↔ 36 MHz; stuck-at-zero pins everything
        // to the first dispatch's frequency.
        struct Flapper(bool);
        impl SchedulerPolicy for Flapper {
            fn name(&self) -> &str {
                "flapper"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> crate::policy::Decision {
                self.0 = !self.0;
                let f = if self.0 {
                    ctx.platform.f_max()
                } else {
                    ctx.platform.table().min()
                };
                match ctx.jobs.first() {
                    Some(j) => crate::policy::Decision::run(j.id, f),
                    None => crate::policy::Decision::idle(f),
                }
            }
        }
        let plan = FaultPlan {
            dvs: crate::faults::DvsFault {
                stuck_after: Some(TimeDelta::ZERO),
                ..Default::default()
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut Flapper(false),
            &config,
            1,
            &plan,
        )
        .unwrap();
        assert!(faulted.faults.stuck_dispatches > 0);
        assert_eq!(faulted.metrics.frequency_changes, 0);
        assert_eq!(faulted.metrics.freq_residency.len(), 1);
    }

    #[test]
    fn abort_cost_bills_time_and_energy() {
        let plan = FaultPlan {
            timing: crate::faults::TimingFault {
                abort_cost: TimeDelta::from_millis(1),
                arrival_jitter: TimeDelta::ZERO,
            },
            ..FaultPlan::none()
        };
        // Every job expires (20 ms of work per 10 ms window).
        let tasks = TaskSet::new(vec![step_task("t", 10, 2_000_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100));
        let plain = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        assert!(faulted.faults.costly_aborts > 0);
        assert_eq!(faulted.faults.costly_aborts, faulted.metrics.jobs_aborted());
        assert!(faulted.metrics.busy_time > plain.metrics.busy_time);
        assert!(faulted.metrics.energy > plain.metrics.energy);
    }

    #[test]
    fn invalid_fault_plan_is_a_typed_error() {
        let plan = FaultPlan {
            demand: crate::faults::DemandFault {
                mean_factor: -1.0,
                spread: 0.0,
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(50));
        let err = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan { .. }));

        // A degraded set disjoint from the platform table is also typed.
        let disjoint = FaultPlan {
            dvs: crate::faults::DvsFault {
                degraded_mhz: Some(vec![999]),
                ..Default::default()
            },
            ..FaultPlan::none()
        };
        let err = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &disjoint,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn jitter_fault_runs_clean_and_changes_the_timeline() {
        let plan = FaultPlan {
            timing: crate::faults::TimingFault {
                abort_cost: TimeDelta::ZERO,
                arrival_jitter: TimeDelta::from_millis(3),
            },
            ..FaultPlan::none()
        };
        let tasks = TaskSet::new(vec![step_task("t", 10, 100_000.0)]).unwrap();
        let patterns = vec![ArrivalPattern::periodic(ms(10)).unwrap()];
        let config = SimConfig::new(ms(100)).with_certificate();
        let plain = Engine::run(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        let faulted = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        // Per-window completion still holds, so aggregate metrics survive;
        // the execution timeline itself must have moved.
        let charges = |out: &Outcome| out.certificate.as_ref().unwrap().charges.clone();
        assert_ne!(
            charges(&plain),
            charges(&faulted),
            "jitter must move the execution timeline"
        );
        // Deterministic: same seed, same jittered timeline.
        let again = Engine::run_with_faults(
            &tasks,
            &patterns,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
            &plan,
        )
        .unwrap();
        assert_eq!(faulted.certificate, again.certificate);
        assert_eq!(faulted.metrics, again.metrics);
    }

    #[test]
    fn completion_exactly_at_termination_accrues_step_utility() {
        // 1M cycles at 100 MHz = exactly 10 ms = the step + termination.
        let tasks = TaskSet::new(vec![step_task("t", 10, 1_000_000.0)]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let config = SimConfig::new(ms(20));
        let out = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &config,
            1,
        )
        .unwrap();
        assert_eq!(out.metrics.jobs_completed(), 1);
        assert!((out.metrics.total_utility - 10.0).abs() < 1e-9);
        assert_eq!(out.metrics.per_task[0].critical_met, 1);
        assert_eq!(out.metrics.per_task[0].max_lateness_us, 0);
    }

    #[test]
    fn lateness_past_i64_clamps_instead_of_overflowing() {
        // A critical time 2^63 µs + 5 ms away: the job completes after
        // 1 ms, 2^63 µs + 4 ms early, which is below `i64::MIN`.
        let far = TimeDelta::from_micros((1 << 63) + 5_000);
        let task = Task::new(
            "far",
            Tuf::step(1.0, far).unwrap(),
            UamSpec::periodic(ms(10)).unwrap(),
            DemandModel::deterministic(100_000.0).unwrap(),
            Assurance::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let traces = vec![ArrivalTrace::from_times([SimTime::ZERO])];
        let out = Engine::run_with_traces(
            &tasks,
            &traces,
            &platform(),
            &mut MaxSpeedEdf::new(),
            &SimConfig::new(ms(20)),
            1,
        )
        .unwrap();
        assert_eq!(out.metrics.jobs_completed(), 1);
        assert_eq!(out.metrics.per_task[0].max_lateness_us, i64::MIN);
    }
}
