//! The pre-overhaul event loop, preserved verbatim as a differential
//! oracle.
//!
//! The production loop (DESIGN.md §14) keeps an incrementally maintained
//! live table, batched abort waves, and an ordered set of termination
//! times. This module keeps the old `Vec<LiveJob>` loop unchanged: a
//! fresh view collect per decision, one removal per dead job, and a
//! linear termination scan. `Engine::run_with_faults_reference` executes
//! it end to end, sharing the exact run preamble (`prepare_run`) with the
//! production path, so the two loops consume bit-identical prepared state
//! and must produce byte-identical certificates and equal outcomes. The
//! `engine_differential` suite in `eua-core` asserts exactly that across
//! scenarios × policies × fault plans.
//!
//! This module is an oracle, not a product surface: do not optimize it,
//! and change it only when the engine's *semantics* deliberately change
//! (in which case both loops move together, pinned by the suite).

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_uam::generator::ArrivalPattern;
use eua_uam::ArrivalTrace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::certificate::{ChargeKind, ChargeRecord, Recorder};
use crate::context::{JobView, SchedContext, SchedEvent};
use crate::engine::{prepare_run, Engine, Outcome, SimConfig};
use crate::error::SimError;
use crate::faults::{map_to_degraded, FaultPlan, FaultStats};
use crate::ids::{JobId, TaskId};
use crate::invariants::InvariantChecker;
use crate::job::LiveJob;
use crate::metrics::Metrics;
use crate::platform_view::Platform;
use crate::policy::SchedulerPolicy;
use crate::task::TaskSet;

impl Engine {
    /// [`Engine::run_with_faults`], executed by the reference event loop.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_with_faults`].
    pub fn run_with_faults_reference<P: SchedulerPolicy + ?Sized>(
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
            .map(|p| p.generate(config.horizon(), &mut rng))
            .collect();
        run_core_reference(
            tasks, &traces, platform, policy, config, &mut rng, seed, plan,
        )
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_core_reference<P: SchedulerPolicy + ?Sized>(
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
    let mut state = ReferenceState {
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
        live: Vec::new(),
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
        metrics: Metrics::new(config.horizon(), tasks.len()),
        cert: prep.cert,
        invariants: InvariantChecker::new(tasks.len()),
    };
    state.run_loop(policy)?;
    state.invariants.finish(state.metrics.energy);
    Ok(Outcome {
        certificate: state.cert.map(|cert| cert.finish(state.metrics.energy)),
        metrics: state.metrics,
        faults: state.stats,
    })
}

/// The pre-overhaul engine state: a flat `Vec<LiveJob>` scanned linearly,
/// with the per-event `Vec<JobView>` collect.
struct ReferenceState<'a> {
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
    live: Vec<LiveJob>,
    running: Option<JobId>,
    last_freq: Option<Frequency>,
    degraded: Option<Vec<Frequency>>,
    policy_platform: Option<Platform>,
    stuck_at: Option<SimTime>,
    stuck_freq: Option<Frequency>,
    stats: FaultStats,
    metrics: Metrics,
    cert: Option<Recorder>,
    invariants: InvariantChecker,
}

impl ReferenceState<'_> {
    // The preserved pre-overhaul loop: it allocates per event by design
    // and exists only as the differential oracle for the production
    // engine.
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
            if self.live.is_empty() {
                match self.arrivals.get(self.cursor) {
                    Some(&(t, _)) => {
                        self.advance_idle(t.min(self.horizon_end));
                        continue;
                    }
                    None => {
                        self.advance_idle(self.horizon_end);
                        break;
                    }
                }
            }
            // 5. Ask the policy. Under a degraded-frequency fault the
            // policy sees (and budgets against) only the surviving
            // frequencies.
            let views: Vec<JobView> = self.live.iter().map(job_view).collect();
            let decision = {
                let ctx = SchedContext {
                    now: self.now,
                    event,
                    jobs: &views,
                    tasks: self.tasks,
                    platform: self.policy_platform.as_ref().unwrap_or(self.platform),
                    running: self.running,
                    energy_used: self.metrics.energy,
                };
                policy.decide(&ctx)
            };
            // Certificate: every decision is recorded at its instant —
            // including ones later discarded by a costly-abort clock jump,
            // which were still valid when taken.
            if let Some(cert) = self.cert.as_mut() {
                cert.record(self.now, event, &views, &decision, policy.explain());
            }
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
                self.advance_idle(self.next_passive_event());
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
            let Some(job_idx) = self.live.iter().position(|j| j.id == run_id) else {
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
                    if self.live.iter().any(|j| j.id == old) {
                        self.metrics.preemptions += 1;
                    }
                }
            }
            let mut pause = TimeDelta::ZERO;
            if switching_job {
                pause = pause.saturating_add(self.config.context_switch_overhead());
            }
            if switching_freq {
                pause = pause.saturating_add(self.config.frequency_switch_overhead());
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
            let completion_at = {
                let job = &self.live[job_idx];
                self.now
                    .saturating_add(freq.execution_time(job.actual_remaining()))
            };
            self.invariants.executing(run_id);
            let next = self.next_passive_event().min(completion_at).max(self.now);
            let delta = next.saturating_since(self.now);
            let job = &mut self.live[job_idx];
            let cycles = freq.cycles_in(delta).min(job.actual_remaining());
            job.executed += cycles;
            let charge = self.platform.energy().energy_for(cycles, freq);
            self.invariants.energy_charge(charge);
            self.metrics.energy += charge;
            self.metrics.add_busy(freq.as_mhz(), delta);
            let completed = job.actual_remaining().is_zero();
            let job_id = job.id;
            self.record_charge(ChargeKind::Execute, freq.as_mhz(), cycles, delta, charge);
            self.invariants.clock_advance(self.now, next);
            self.now = next;
            if completed {
                self.complete(job_idx);
                event = SchedEvent::Completion(job_id);
            }
        }
        Ok(())
    }

    /// Advances the clock through an idle gap, charging the configured
    /// idle power.
    fn advance_idle(&mut self, to: SimTime) {
        let delta = to.saturating_since(self.now);
        if !delta.is_zero() && self.config.idle_power() > 0.0 {
            let charge = self.config.idle_power() * delta.as_micros() as f64;
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

    /// The earliest upcoming event the engine controls: an arrival, a
    /// termination expiry, or the horizon itself, by a linear scan of the
    /// live jobs' termination times.
    fn next_passive_event(&self) -> SimTime {
        let next_arrival = self
            .arrivals
            .get(self.cursor)
            .map_or(SimTime::MAX, |&(t, _)| t);
        let next_termination = self
            .live
            .iter()
            .map(|j| j.termination)
            .min()
            .unwrap_or(SimTime::MAX);
        next_arrival.min(next_termination).min(self.horizon_end)
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
            let job = LiveJob {
                id: JobId(self.next_job_id),
                task: tid,
                arrival: t,
                critical: t.saturating_add(task.critical_offset()),
                termination: t.saturating_add(task.termination_offset()),
                actual,
                allocation: task.allocation(),
                executed: Cycles::ZERO,
            };
            self.next_job_id += 1;
            let tm = &mut self.metrics.per_task[tid.index()];
            tm.arrived += 1;
            // Utility accounting is restricted to *observable* jobs —
            // those whose termination time falls within the horizon — so
            // slow-but-legal policies are not penalized for jobs still in
            // flight at the cutoff.
            if job.termination <= self.horizon_end {
                tm.observable += 1;
                tm.max_utility += task.tuf().max_utility();
                self.metrics.max_possible_utility += task.tuf().max_utility();
            }
            self.live.push(job);
            any = true;
        }
        any
    }

    /// Aborts every incomplete job whose termination time has been
    /// reached. Returns one of the aborted ids for event labelling.
    // eua-lint: hot
    fn abort_overdue(&mut self) -> Option<JobId> {
        let mut witness = None;
        let mut idx = 0;
        while idx < self.live.len() {
            if self.live[idx].termination <= self.now {
                let id = self.live[idx].id;
                self.finish_abort(idx, false);
                witness = Some(id);
            } else {
                idx += 1;
            }
        }
        witness
    }

    /// Applies `decision.abort`, returning the last aborted id (so the
    /// caller can re-decide after a costly-abort clock jump).
    fn apply_policy_aborts(
        &mut self,
        decision: &crate::policy::Decision,
    ) -> Result<Option<JobId>, SimError> {
        let mut last = None;
        for &id in &decision.abort {
            if decision.run == Some(id) {
                return Err(SimError::RunAbortConflict { job: id });
            }
            let Some(idx) = self.live.iter().position(|j| j.id == id) else {
                return Err(SimError::UnknownJob { job: id });
            };
            self.finish_abort(idx, true);
            last = Some(id);
        }
        Ok(last)
    }

    fn finish_abort(&mut self, idx: usize, by_policy: bool) {
        let job = self.live.remove(idx);
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
        if self.config.progress_accrual() && !job.actual.is_zero() {
            let progress = (job.executed.as_f64() / job.actual.as_f64()).clamp(0.0, 1.0);
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

    fn complete(&mut self, idx: usize) {
        let job = self.live.remove(idx);
        self.invariants
            .completion(job.id, self.now, job.termination, job.executed, job.actual);
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
        if self.now <= job.critical {
            tm.critical_met += 1;
        }
        // In i128, clamped into the i64 field: a critical time may lie
        // anywhere in `u64` µs.
        let lateness = i128::from(self.now.as_micros())
            .saturating_sub(i128::from(job.critical.as_micros()))
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

fn job_view(job: &LiveJob) -> JobView {
    JobView {
        id: job.id,
        task: job.task,
        arrival: job.arrival,
        critical_time: job.critical,
        termination: job.termination,
        remaining: job.believed_remaining(),
        executed: job.executed,
    }
}
