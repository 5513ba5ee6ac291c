//! The traced run's instruments: policy wrappers that time each layer
//! from outside the library, and the counters they fill.
//!
//! [`Traced`] implements [`SchedulerPolicy`] around the policy under
//! test. It times every `decide` call and, for EUA\* runs, replays the
//! decision's feasible views through a shadow [`ScheduleBuilder`] and a
//! shadow [`LookAheadDvs`], timing each. Shadow work is kept apart
//! (`shadow_ns`) so it can be subtracted before the engine's self time
//! is computed. [`Counted`] only counts decisions; the untraced run uses
//! it once during set-up.

use std::time::Instant;

use eua_core::{Candidate, InsertionMode, LookAheadDvs, ScheduleBuilder};
use eua_platform::TimeDelta;
use eua_sim::{Decision, DecisionExplanation, SchedContext, SchedulerPolicy};

/// Log-linear latency histogram: 32 buckets per power of two, so a
/// reported quantile is within ~3% of the true sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            count: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// The bucket's `[low, high)` sample range.
    fn range(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, index as f64 + 1.0);
        }
        let exp = index / SUB - 1 + u64::from(SUB_BITS);
        let low = (SUB + index % SUB) << (exp - u64::from(SUB_BITS));
        let width = 1u64 << (exp - u64::from(SUB_BITS));
        (low as f64, (low + width) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (bucket midpoint), or 0 with no samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (low, high) = Self::range(i);
                return (low + high) / 2.0;
            }
        }
        0.0
    }
}

/// Everything the traced run counts and times, summed over runs. Times
/// are host nanoseconds; counts are deterministic for a given seed.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Simulation runs (chaos: certified runs).
    pub runs: u64,
    /// Host time inside `Engine::run*` calls, shadows included.
    pub run_ns: u64,
    /// `SchedulerPolicy::decide` calls.
    pub decisions: u64,
    /// Time inside the wrapped policy's `decide`.
    pub decide_ns: u64,
    /// Per-call `decide` times.
    pub decide_hist: Histogram,
    /// Sum of pending-job counts seen by `decide`.
    pub pending_sum: u64,
    /// Largest pending-job count seen by `decide`.
    pub pending_max: u64,
    /// Jobs the policy aborted.
    pub aborts: u64,
    /// Time spent in shadow replays inside the wrapper.
    pub shadow_ns: u64,
    /// Shadow `LookAheadDvs::analyze` time and calls.
    pub analyze_ns: u64,
    /// See `analyze_ns`.
    pub analyze_calls: u64,
    /// Shadow `Tuf::utility` time and calls.
    pub utility_ns: u64,
    /// See `utility_ns`.
    pub utility_calls: u64,
    /// Shadow `ScheduleBuilder::rebuild` calls that took the fast path.
    pub fast_calls: u64,
    /// Time of the fast-path calls.
    pub fast_ns: u64,
    /// Shadow rebuilds that took the overload fallback.
    pub fallback_calls: u64,
    /// Time of the fallback calls.
    pub fallback_ns: u64,
    /// Positive-key candidates offered to the shadow builder.
    pub considered: u64,
    /// Candidates the shadow builder accepted.
    pub accepted: u64,
    /// Decisions whose shadow schedule head was compared.
    pub head_checked: u64,
    /// Decisions whose shadow head differed from `Decision::run`.
    pub head_mismatches: u64,
    /// Jobs released (`Metrics::jobs_arrived`).
    pub jobs_released: u64,
    /// Preemptions (`Metrics::preemptions`).
    pub preemptions: u64,
    /// Shadow arrival generation time and arrivals generated.
    pub uam_ns: u64,
    /// See `uam_ns`.
    pub arrivals: u64,
    /// `UniverseFamily::generate` time and cells.
    pub universe_ns: u64,
    /// Chaos cells (universe, scenario and certificate layers).
    pub cells: u64,
    /// `.scn` render/parse round-trip time.
    pub scenario_ns: u64,
    /// Certified minus uncertified run time (may be negative by noise).
    pub record_ns: f64,
    /// Certificate text bytes rendered.
    pub cert_bytes: u64,
    /// `RunCertificate::render` time.
    pub render_ns: u64,
    /// `RunCertificate::parse` time.
    pub parse_ns: u64,
    /// `eua_audit::audit` time and certificate events checked.
    pub audit_ns: u64,
    /// See `audit_ns`.
    pub audit_events: u64,
    /// Audit errors the cell's fault plan does not explain.
    pub unexpected_errors: u64,
    /// Faults injected (sum over `Outcome::faults`).
    pub faults_injected: u64,
}

impl LayerStats {
    /// Adds another run's (or policy's) counters.
    pub fn merge(&mut self, o: &LayerStats) {
        self.runs += o.runs;
        self.run_ns += o.run_ns;
        self.decisions += o.decisions;
        self.decide_ns += o.decide_ns;
        self.decide_hist.merge(&o.decide_hist);
        self.pending_sum += o.pending_sum;
        self.pending_max = self.pending_max.max(o.pending_max);
        self.aborts += o.aborts;
        self.shadow_ns += o.shadow_ns;
        self.analyze_ns += o.analyze_ns;
        self.analyze_calls += o.analyze_calls;
        self.utility_ns += o.utility_ns;
        self.utility_calls += o.utility_calls;
        self.fast_calls += o.fast_calls;
        self.fast_ns += o.fast_ns;
        self.fallback_calls += o.fallback_calls;
        self.fallback_ns += o.fallback_ns;
        self.considered += o.considered;
        self.accepted += o.accepted;
        self.head_checked += o.head_checked;
        self.head_mismatches += o.head_mismatches;
        self.jobs_released += o.jobs_released;
        self.preemptions += o.preemptions;
        self.uam_ns += o.uam_ns;
        self.arrivals += o.arrivals;
        self.universe_ns += o.universe_ns;
        self.cells += o.cells;
        self.scenario_ns += o.scenario_ns;
        self.record_ns += o.record_ns;
        self.cert_bytes += o.cert_bytes;
        self.render_ns += o.render_ns;
        self.parse_ns += o.parse_ns;
        self.audit_ns += o.audit_ns;
        self.audit_events += o.audit_events;
        self.unexpected_errors += o.unexpected_errors;
        self.faults_injected += o.faults_injected;
    }

    /// The engine's own time (loop, calendar, arena, accounting): run
    /// time minus `decide`, shadow replays, arrival generation and one
    /// clock read per decision. Never negative.
    #[must_use]
    pub fn engine_self_ns(&self, clock_read_ns: f64) -> f64 {
        let attributed = self.decide_ns + self.shadow_ns + self.uam_ns;
        (self.run_ns as f64 - attributed as f64 - self.decisions as f64 * clock_read_ns).max(0.0)
    }
}

/// Nanoseconds since `since`, saturating.
pub fn ns_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The mean cost of one `Instant::now()` read on this host.
#[must_use]
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

/// Counts `decide` calls and forwards everything else.
#[derive(Debug)]
pub struct Counted<P> {
    inner: P,
    /// Decisions so far.
    pub decisions: u64,
}

impl<P> Counted<P> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: P) -> Self {
        Counted {
            inner,
            decisions: 0,
        }
    }
}

impl<P: SchedulerPolicy> SchedulerPolicy for Counted<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        self.decisions += 1;
        self.inner.decide(ctx)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn certify(&mut self, on: bool) {
        self.inner.certify(on);
    }
    fn explain(&self) -> Option<DecisionExplanation> {
        self.inner.explain()
    }
}

/// The timing wrapper of the traced run; see the module docs.
#[derive(Debug)]
pub struct Traced<'a, P> {
    inner: P,
    stats: &'a mut LayerStats,
    shadow: Option<EuaShadow>,
}

impl<'a, P: SchedulerPolicy> Traced<'a, P> {
    /// Wraps `inner`, filling `stats`. `eua_shadow` replays each
    /// decision through the shadow builder and look-ahead analysis; set
    /// it only for EUA\* runs.
    pub fn new(inner: P, stats: &'a mut LayerStats, eua_shadow: bool) -> Self {
        Traced {
            inner,
            stats,
            shadow: eua_shadow.then(EuaShadow::default),
        }
    }
}

impl<P: SchedulerPolicy> SchedulerPolicy for Traced<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(ctx);
        let decided = Instant::now();
        let ns = u64::try_from((decided - start).as_nanos()).unwrap_or(u64::MAX);
        let s = &mut *self.stats;
        s.decide_ns += ns;
        s.decide_hist.record(ns);
        s.decisions += 1;
        let pending = ctx.jobs.len() as u64;
        s.pending_sum += pending;
        s.pending_max = s.pending_max.max(pending);
        s.aborts += decision.abort.len() as u64;
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.observe(ctx, &decision, s);
            s.shadow_ns += ns_since(decided);
        }
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
        if let Some(shadow) = self.shadow.as_mut() {
            *shadow = EuaShadow::default();
        }
    }

    fn certify(&mut self, on: bool) {
        self.inner.certify(on);
    }

    fn explain(&self) -> Option<DecisionExplanation> {
        self.inner.explain()
    }
}

/// Replays one EUA\* decision from its context: the look-ahead analysis
/// (Algorithm 2), the UER of every feasible job, and the greedy
/// schedule construction (Algorithm 1 lines 12-18).
#[derive(Debug)]
struct EuaShadow {
    builder: ScheduleBuilder,
    dvs: LookAheadDvs,
    feasible: Vec<(usize, TimeDelta)>,
    utilities: Vec<f64>,
    cands: Vec<Candidate>,
    /// Whether the previous rebuild accepted every candidate. The
    /// builder skips its fast-path probe right after a rejection, so a
    /// call takes the fast path only when it and its predecessor both
    /// accept everything.
    prev_all_accepted: bool,
}

impl Default for EuaShadow {
    fn default() -> Self {
        EuaShadow {
            builder: ScheduleBuilder::new(),
            dvs: LookAheadDvs::new(),
            feasible: Vec::new(),
            utilities: Vec::new(),
            cands: Vec::new(),
            prev_all_accepted: true,
        }
    }
}

impl EuaShadow {
    fn observe(&mut self, ctx: &SchedContext<'_>, decision: &Decision, s: &mut LayerStats) {
        let t0 = Instant::now();
        std::hint::black_box(self.dvs.analyze(ctx));
        let t1 = Instant::now();
        s.analyze_ns += nanos(t0, t1);
        s.analyze_calls += 1;

        // Jobs EUA* keeps: those that can still finish by their
        // termination time at f_m.
        let f_m = ctx.platform.f_max();
        self.feasible.clear();
        for (k, j) in ctx.jobs.iter().enumerate() {
            let finish = ctx.now.saturating_add(f_m.execution_time(j.remaining));
            if finish <= j.termination {
                self.feasible.push((k, finish.saturating_since(j.arrival)));
            }
        }
        let t2 = Instant::now();
        self.utilities.clear();
        for &(k, sojourn) in &self.feasible {
            let tuf = ctx.tasks.task(ctx.jobs[k].task).tuf();
            self.utilities.push(tuf.utility(sojourn));
        }
        let t3 = Instant::now();
        s.utility_ns += nanos(t2, t3);
        s.utility_calls += self.feasible.len() as u64;

        let per_cycle = ctx.platform.energy().energy_per_cycle(f_m);
        self.cands.clear();
        for (&(k, _), &utility) in self.feasible.iter().zip(&self.utilities) {
            let j = &ctx.jobs[k];
            let uer = utility / (per_cycle * j.remaining.as_f64());
            self.cands.push(Candidate::from_view(j, uer));
        }
        let positive = self.cands.iter().filter(|c| c.key > 0.0).count();
        let t4 = Instant::now();
        let schedule = self.builder.rebuild(
            ctx.now,
            &mut self.cands,
            f_m,
            InsertionMode::BreakOnInfeasible,
        );
        let ns = nanos(t4, Instant::now());
        let accepted = schedule.len();
        let head = schedule.first().map(|c| c.id);
        let all_accepted = accepted == positive;
        if all_accepted && self.prev_all_accepted {
            s.fast_calls += 1;
            s.fast_ns += ns;
        } else {
            s.fallback_calls += 1;
            s.fallback_ns += ns;
        }
        self.prev_all_accepted = all_accepted;
        s.considered += positive as u64;
        s.accepted += accepted as u64;
        s.head_checked += 1;
        if head != decision.run {
            s.head_mismatches += 1;
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}
