//! The diagnostic model: codes, severities, and the per-scenario report
//! with text and machine-readable JSON renderers.
//!
//! Every check in [`crate::passes`] reports problems as [`Diagnostic`]
//! values carrying a stable kebab-case [`DiagCode`], a [`Severity`], the
//! entity it concerns (usually a task name), a human message, an
//! optional suggestion, and the source extent it concerns when there is
//! one. A [`Report`] collects the diagnostics for one scenario (and the
//! file it came from, when there is one) and renders them for humans
//! (`render_text`) or tools (`render_json`, and SARIF through
//! [`crate::sarif`]).

use std::collections::BTreeSet;
use std::fmt;

use eua_sim::json::Json;

use crate::spans::Span;

/// How bad a diagnostic is.
///
/// Only [`Severity::Error`] makes `eua-analyze check` exit nonzero:
/// errors mean the scenario cannot be simulated faithfully (invalid
/// parameters), while warnings flag analyzable-but-suspect inputs
/// (overload, dominated frequencies) and infos are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never affects the exit status.
    Info,
    /// Suspicious but analyzable; the simulator will run.
    Warning,
    /// Invalid input; construction or simulation would fail.
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable machine-readable identifier for one class of finding.
///
/// Codes are rendered kebab-case (see [`DiagCode::as_str`]) and are part
/// of the tool's output contract: tests and CI match on them, so renaming
/// one is a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// The scenario defines no tasks at all.
    NoTasks,
    /// Two tasks share a name, making per-task diagnostics ambiguous.
    DuplicateTaskName,
    /// A TUF's maximum utility is zero, negative, or non-finite.
    TufNonPositiveUmax,
    /// A piecewise TUF's utility increases over time (TUFs must be
    /// non-increasing under the paper's model).
    TufIncreasing,
    /// A TUF assigns negative or non-finite utility somewhere.
    TufNegativeUtility,
    /// Piecewise breakpoints are not strictly increasing in time.
    TufUnorderedBreakpoints,
    /// A TUF's termination (or decay constant) is zero.
    TufZeroTermination,
    /// `U(D) ≥ ν·U_max` is only satisfied at `D = 0`: no usable critical
    /// time exists for the requested assurance.
    CriticalTimeUnsolvable,
    /// The utility-assurance fraction ν lies outside `[0, 1]`.
    AssuranceNuRange,
    /// The timeliness-assurance probability ρ lies outside `[0, 1)`.
    AssuranceRhoRange,
    /// The Chebyshev allocation `E(Y) + sqrt(ρ/(1−ρ)·Var(Y))` is
    /// undefined or infinite (e.g. a Pareto tail with `α ≤ 2`).
    ChebyshevUnbounded,
    /// A demand-model parameter is invalid (negative mean, `lo > hi`, …).
    DemandInvalid,
    /// The UAM arrival bound `a` is not a positive integer.
    UamArrivalBound,
    /// The UAM window `P` is zero.
    UamZeroWindow,
    /// The per-window demand `a·c` saturates the cycle counter.
    UamWindowOverflow,
    /// The frequency table has no entries.
    FreqTableEmpty,
    /// The frequency table has a zero entry or is not strictly
    /// increasing.
    FreqTableInvalid,
    /// A frequency is dominated: some faster frequency costs no more
    /// energy per cycle, so its UER is never worse for any
    /// non-increasing TUF.
    DominatedFrequency,
    /// An energy-model coefficient is negative or non-finite.
    EnergyInvalidCoefficient,
    /// The energy-optimal speed (knee of `E(f)`) lies outside the
    /// frequency table's range.
    EnergyKneeOutsideRange,
    /// Theorem 1's sufficient speed `Σ C_i/D_i` exceeds `f_m`, so static
    /// schedulability is not guaranteed (set to Info when the condition
    /// holds, confirming a feasible static speed).
    Theorem1Speed,
    /// The Baruah–Rosier–Howell demand bound `h(L) ≤ f_m·L` fails (or,
    /// at Info severity, rescues a set that fails Theorem 1).
    BrhDemandBound,
    /// Sustained overload: total utilization `Σ C_i/P_i` exceeds `f_m`.
    Overload,
    /// A single task cannot finish its window demand by its critical
    /// time even running alone at `f_m`.
    AllocationExceedsCritical,
    /// A fault stanza's demand-deviation factor or spread is negative
    /// or non-finite.
    FaultNegativeDeviation,
    /// The injected DVS switch latency is at least one declared UAM
    /// window long even at `f_m` — every window's budget burns on
    /// relocking before any job runs.
    FaultSwitchLatencyExceedsWindow,
    /// The fault stanza's degraded frequency set is empty (or disjoint
    /// from the platform table), leaving no frequency to run at.
    FaultEmptyDegradedSet,
    /// The semantic demand-bound analysis proves the scenario infeasible
    /// even at the top frequency `f_m`: a witness window's worst-case
    /// demand exceeds capacity.
    SemInfeasibleAtFmax,
    /// The lowest frequency at which the allocation-level demand
    /// provably fits (the scenario's static feasibility floor).
    SemFeasibilityFloor,
    /// The demand-bound analysis could not decide a frequency either
    /// way (quantization gap or scan budget exhausted).
    SemIndeterminate,
    /// A frequency is semantically dominated: another table entry is no
    /// worse on feasibility *and* energy per cycle, so no schedule
    /// improves by selecting it.
    SemDominatedFrequency,
    /// A DVS state no EUA\* offline clamp can ever select: it lies below
    /// every task's UER-optimal frequency.
    SemUnreachableDvsState,
    /// A `.scn` file declares an `allocation` inconsistent with the
    /// Chebyshev allocation implied by its mean/variance/ρ.
    SemChebyshevAllocationMismatch,
    /// A scenario no other pass faults still fails to raise into the
    /// simulator's workload or fault plan (the backstop; the message is
    /// the simulator's).
    SimRejected,
    /// A decision certificate fails to parse, declares an unknown format,
    /// or references jobs/tasks that do not exist in its own tables.
    AudMalformedCertificate,
    /// A certified UER disagrees with the value recomputed from the
    /// declared TUF and the Martin energy model at `f_m`.
    AudUerMismatch,
    /// A certified schedule is not the one greedy non-increasing-UER
    /// insertion reconstructs, or is not critical-time ordered.
    AudScheduleOrder,
    /// A certified schedule misses a termination time when its entries
    /// are replayed back-to-back at `f_m` (its predicted finish times are
    /// wrong or infeasible).
    AudScheduleInfeasible,
    /// An abort lacks a valid infeasibility witness: the job could still
    /// have finished by its termination time at `f_m`.
    AudAbortIllegal,
    /// The chosen frequency violates the Algorithm 2 bound: it is not
    /// the table's lowest frequency at or above the certified required
    /// speed (raised by the UER clamp when active).
    AudDvsOutOfBound,
    /// The charge ledger is impossible: a charge's energy disagrees with
    /// Martin's `E(f)` per-cycle model (or the idle-power bill), a
    /// non-idle charge does not last exactly `⌈cycles / f⌉` µs, a charge
    /// starts before the previous one ends, or the charges do not sum to
    /// the certified total.
    AudEnergyMismatch,
    /// The certified arrival stream violates a task's declared UAM
    /// `<a, P>` bound: more than `a` arrivals inside one sliding window.
    AudUamViolation,
    /// `partial_cmp` inside a `sort_by`-family comparator: NaN ordering
    /// is unspecified where `total_cmp` would be deterministic.
    LintFloatSortPartialCmp,
    /// An allocating call that runs on every event or every inner-loop
    /// iteration: anywhere inside a function marked `// eua-lint: hot`,
    /// or at loop depth two or more elsewhere when the value does not
    /// escape its iteration.
    LintLoopAlloc,
    /// Raw `+`/`-`/`*` arithmetic on an integer-microsecond binding (a
    /// `_us` name, or one assigned from such a value), where the
    /// workspace idiom is the saturating `SimTime`/`TimeDelta` methods
    /// (`saturating_add`/`saturating_since`).
    LintUncheckedTimeArith,
    /// An `// eua-lint: allow(...)` directive that suppressed nothing.
    LintUnusedSuppression,
    /// An `// eua-lint:` directive that is malformed or names a code
    /// the linter does not recognize (or cannot suppress).
    LintUnknownSuppression,
}

impl DiagCode {
    /// Every code, in declaration order (the `codes` listings; a unit
    /// test pins that each variant appears exactly once).
    pub const ALL: [DiagCode; 47] = [
        DiagCode::NoTasks,
        DiagCode::DuplicateTaskName,
        DiagCode::TufNonPositiveUmax,
        DiagCode::TufIncreasing,
        DiagCode::TufNegativeUtility,
        DiagCode::TufUnorderedBreakpoints,
        DiagCode::TufZeroTermination,
        DiagCode::CriticalTimeUnsolvable,
        DiagCode::AssuranceNuRange,
        DiagCode::AssuranceRhoRange,
        DiagCode::ChebyshevUnbounded,
        DiagCode::DemandInvalid,
        DiagCode::UamArrivalBound,
        DiagCode::UamZeroWindow,
        DiagCode::UamWindowOverflow,
        DiagCode::FreqTableEmpty,
        DiagCode::FreqTableInvalid,
        DiagCode::DominatedFrequency,
        DiagCode::EnergyInvalidCoefficient,
        DiagCode::EnergyKneeOutsideRange,
        DiagCode::Theorem1Speed,
        DiagCode::BrhDemandBound,
        DiagCode::Overload,
        DiagCode::AllocationExceedsCritical,
        DiagCode::FaultNegativeDeviation,
        DiagCode::FaultSwitchLatencyExceedsWindow,
        DiagCode::FaultEmptyDegradedSet,
        DiagCode::SemInfeasibleAtFmax,
        DiagCode::SemFeasibilityFloor,
        DiagCode::SemIndeterminate,
        DiagCode::SemDominatedFrequency,
        DiagCode::SemUnreachableDvsState,
        DiagCode::SemChebyshevAllocationMismatch,
        DiagCode::SimRejected,
        DiagCode::AudMalformedCertificate,
        DiagCode::AudUerMismatch,
        DiagCode::AudScheduleOrder,
        DiagCode::AudScheduleInfeasible,
        DiagCode::AudAbortIllegal,
        DiagCode::AudDvsOutOfBound,
        DiagCode::AudEnergyMismatch,
        DiagCode::AudUamViolation,
        DiagCode::LintFloatSortPartialCmp,
        DiagCode::LintLoopAlloc,
        DiagCode::LintUncheckedTimeArith,
        DiagCode::LintUnusedSuppression,
        DiagCode::LintUnknownSuppression,
    ];

    /// The stable kebab-case identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::NoTasks => "no-tasks",
            DiagCode::DuplicateTaskName => "duplicate-task-name",
            DiagCode::TufNonPositiveUmax => "tuf-non-positive-umax",
            DiagCode::TufIncreasing => "tuf-increasing",
            DiagCode::TufNegativeUtility => "tuf-negative-utility",
            DiagCode::TufUnorderedBreakpoints => "tuf-unordered-breakpoints",
            DiagCode::TufZeroTermination => "tuf-zero-termination",
            DiagCode::CriticalTimeUnsolvable => "critical-time-unsolvable",
            DiagCode::AssuranceNuRange => "assurance-nu-range",
            DiagCode::AssuranceRhoRange => "assurance-rho-range",
            DiagCode::ChebyshevUnbounded => "chebyshev-unbounded",
            DiagCode::DemandInvalid => "demand-invalid",
            DiagCode::UamArrivalBound => "uam-arrival-bound",
            DiagCode::UamZeroWindow => "uam-zero-window",
            DiagCode::UamWindowOverflow => "uam-window-overflow",
            DiagCode::FreqTableEmpty => "freq-table-empty",
            DiagCode::FreqTableInvalid => "freq-table-invalid",
            DiagCode::DominatedFrequency => "dominated-frequency",
            DiagCode::EnergyInvalidCoefficient => "energy-invalid-coefficient",
            DiagCode::EnergyKneeOutsideRange => "energy-knee-outside-range",
            DiagCode::Theorem1Speed => "theorem1-speed",
            DiagCode::BrhDemandBound => "brh-demand-bound",
            DiagCode::Overload => "overload",
            DiagCode::AllocationExceedsCritical => "allocation-exceeds-critical",
            DiagCode::FaultNegativeDeviation => "fault-negative-deviation",
            DiagCode::FaultSwitchLatencyExceedsWindow => "fault-switch-latency-exceeds-window",
            DiagCode::FaultEmptyDegradedSet => "fault-empty-degraded-set",
            DiagCode::SemInfeasibleAtFmax => "sem-infeasible-at-fmax",
            DiagCode::SemFeasibilityFloor => "sem-feasibility-floor",
            DiagCode::SemIndeterminate => "sem-indeterminate",
            DiagCode::SemDominatedFrequency => "sem-dominated-frequency",
            DiagCode::SemUnreachableDvsState => "sem-unreachable-dvs-state",
            DiagCode::SemChebyshevAllocationMismatch => "sem-chebyshev-allocation-mismatch",
            DiagCode::SimRejected => "sim-rejected",
            DiagCode::AudMalformedCertificate => "aud-malformed-certificate",
            DiagCode::AudUerMismatch => "aud-uer-mismatch",
            DiagCode::AudScheduleOrder => "aud-schedule-order",
            DiagCode::AudScheduleInfeasible => "aud-schedule-infeasible",
            DiagCode::AudAbortIllegal => "aud-abort-illegal",
            DiagCode::AudDvsOutOfBound => "aud-dvs-out-of-bound",
            DiagCode::AudEnergyMismatch => "aud-energy-mismatch",
            DiagCode::AudUamViolation => "aud-uam-violation",
            DiagCode::LintFloatSortPartialCmp => "lint-float-sort-partial-cmp",
            DiagCode::LintLoopAlloc => "lint-loop-alloc",
            DiagCode::LintUncheckedTimeArith => "lint-unchecked-time-arith",
            DiagCode::LintUnusedSuppression => "lint-unused-suppression",
            DiagCode::LintUnknownSuppression => "lint-unknown-suppression",
        }
    }

    /// The severity a diagnostic with this code carries unless a pass
    /// overrides it (e.g. `theorem1-speed` downgraded to Info when the
    /// sufficient condition *holds*).
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::NoTasks
            | DiagCode::TufNonPositiveUmax
            | DiagCode::TufIncreasing
            | DiagCode::TufNegativeUtility
            | DiagCode::TufUnorderedBreakpoints
            | DiagCode::TufZeroTermination
            | DiagCode::CriticalTimeUnsolvable
            | DiagCode::AssuranceNuRange
            | DiagCode::AssuranceRhoRange
            | DiagCode::ChebyshevUnbounded
            | DiagCode::DemandInvalid
            | DiagCode::UamArrivalBound
            | DiagCode::UamZeroWindow
            | DiagCode::FreqTableEmpty
            | DiagCode::FreqTableInvalid
            | DiagCode::EnergyInvalidCoefficient
            | DiagCode::FaultNegativeDeviation
            | DiagCode::FaultSwitchLatencyExceedsWindow
            | DiagCode::FaultEmptyDegradedSet
            | DiagCode::SimRejected
            | DiagCode::AudMalformedCertificate
            | DiagCode::AudUerMismatch
            | DiagCode::AudScheduleOrder
            | DiagCode::AudScheduleInfeasible
            | DiagCode::AudAbortIllegal
            | DiagCode::AudDvsOutOfBound
            | DiagCode::AudEnergyMismatch
            | DiagCode::AudUamViolation
            | DiagCode::LintFloatSortPartialCmp
            | DiagCode::LintLoopAlloc
            | DiagCode::LintUncheckedTimeArith
            | DiagCode::LintUnusedSuppression
            | DiagCode::LintUnknownSuppression => Severity::Error,
            DiagCode::DuplicateTaskName
            | DiagCode::UamWindowOverflow
            | DiagCode::DominatedFrequency
            | DiagCode::Theorem1Speed
            | DiagCode::BrhDemandBound
            | DiagCode::Overload
            | DiagCode::AllocationExceedsCritical
            | DiagCode::SemInfeasibleAtFmax
            | DiagCode::SemDominatedFrequency
            | DiagCode::SemChebyshevAllocationMismatch => Severity::Warning,
            DiagCode::EnergyKneeOutsideRange
            | DiagCode::SemFeasibilityFloor
            | DiagCode::SemIndeterminate
            | DiagCode::SemUnreachableDvsState => Severity::Info,
        }
    }

    /// One-line description for `eua-analyze codes` and the docs.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::NoTasks => "scenario defines no tasks",
            DiagCode::DuplicateTaskName => "two tasks share a name",
            DiagCode::TufNonPositiveUmax => "TUF maximum utility is not positive and finite",
            DiagCode::TufIncreasing => "TUF utility increases over time",
            DiagCode::TufNegativeUtility => "TUF assigns negative or non-finite utility",
            DiagCode::TufUnorderedBreakpoints => "piecewise breakpoints not strictly increasing",
            DiagCode::TufZeroTermination => "TUF termination or decay constant is zero",
            DiagCode::CriticalTimeUnsolvable => {
                "no positive critical time satisfies U(D) >= nu*Umax"
            }
            DiagCode::AssuranceNuRange => "utility assurance nu outside [0, 1]",
            DiagCode::AssuranceRhoRange => "timeliness assurance rho outside [0, 1)",
            DiagCode::ChebyshevUnbounded => "Chebyshev allocation undefined or infinite",
            DiagCode::DemandInvalid => "demand-model parameter invalid",
            DiagCode::UamArrivalBound => "UAM arrival bound a is not a positive integer",
            DiagCode::UamZeroWindow => "UAM window P is zero",
            DiagCode::UamWindowOverflow => "per-window demand a*c saturates the cycle counter",
            DiagCode::FreqTableEmpty => "frequency table is empty",
            DiagCode::FreqTableInvalid => "frequency table has zero or unordered entries",
            DiagCode::DominatedFrequency => "a faster frequency is never more expensive per cycle",
            DiagCode::EnergyInvalidCoefficient => {
                "energy coefficient negative or non-finite, or all four zero"
            }
            DiagCode::EnergyKneeOutsideRange => "energy-optimal speed outside the table range",
            DiagCode::Theorem1Speed => "Theorem 1 sufficient-speed condition status",
            DiagCode::BrhDemandBound => "BRH demand-bound feasibility status",
            DiagCode::Overload => "sustained overload: utilization exceeds f_m",
            DiagCode::AllocationExceedsCritical => {
                "a task overruns its critical time even alone at f_m"
            }
            DiagCode::FaultNegativeDeviation => {
                "fault demand-deviation factor or spread negative or non-finite"
            }
            DiagCode::FaultSwitchLatencyExceedsWindow => {
                "injected switch latency spans a whole UAM window at f_m"
            }
            DiagCode::FaultEmptyDegradedSet => {
                "degraded frequency set empty or disjoint from the table"
            }
            DiagCode::SemInfeasibleAtFmax => {
                "demand-bound witness proves infeasibility even at f_m"
            }
            DiagCode::SemFeasibilityFloor => {
                "lowest frequency whose demand-bound verdict is Feasible"
            }
            DiagCode::SemIndeterminate => {
                "demand-bound analysis undecided at f_m (quantization gap)"
            }
            DiagCode::SemDominatedFrequency => {
                "another frequency is no worse on feasibility and energy"
            }
            DiagCode::SemUnreachableDvsState => {
                "below every task's UER-optimal frequency: EUA* never selects it"
            }
            DiagCode::SemChebyshevAllocationMismatch => {
                "declared allocation disagrees with the Chebyshev bound"
            }
            DiagCode::SimRejected => "the simulator rejects the workload or fault plan",
            DiagCode::AudMalformedCertificate => {
                "certificate unparsable or internally inconsistent"
            }
            DiagCode::AudUerMismatch => "certified UER disagrees with recomputation at f_m",
            DiagCode::AudScheduleOrder => {
                "schedule differs from greedy non-increasing-UER insertion"
            }
            DiagCode::AudScheduleInfeasible => {
                "certified schedule misses a termination time at f_m"
            }
            DiagCode::AudAbortIllegal => "abort without a valid infeasibility witness",
            DiagCode::AudDvsOutOfBound => "chosen frequency violates the look-ahead DVS bound",
            DiagCode::AudEnergyMismatch => {
                "charge ledger disagrees with Martin's model, the clock or the total"
            }
            DiagCode::AudUamViolation => "certified arrivals exceed a UAM <a, P> bound",
            DiagCode::LintFloatSortPartialCmp => "partial_cmp in a sort comparator; use total_cmp",
            DiagCode::LintLoopAlloc => "allocation in a hot function or a nested loop",
            DiagCode::LintUncheckedTimeArith => {
                "raw arithmetic on microseconds; use saturating ops"
            }
            DiagCode::LintUnusedSuppression => "allow directive that suppressed nothing",
            DiagCode::LintUnknownSuppression => "malformed or unknown eua-lint directive",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, its severity, the entity concerned, a message,
/// an optional remedy, and the source extent it concerns.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable identifier for the class of finding.
    pub code: DiagCode,
    /// Effective severity (usually [`DiagCode::default_severity`]).
    pub severity: Severity,
    /// What the finding concerns: a task name, `frequency 36 MHz`, …
    /// `None` for scenario-wide findings.
    pub entity: Option<String>,
    /// Human-readable explanation with the offending values inline.
    pub message: String,
    /// Optional remedy, rendered as a `help:` line.
    pub suggestion: Option<String>,
    /// The token extent the finding concerns in its report's file, the
    /// SARIF `region` (only rendered when the report has a `uri`).
    pub span: Option<Span>,
}

impl Diagnostic {
    /// A scenario-wide diagnostic at the code's default severity.
    #[must_use]
    pub fn new(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            entity: None,
            message: message.into(),
            suggestion: None,
            span: None,
        }
    }

    /// A diagnostic attached to a named entity (usually a task).
    #[must_use]
    pub fn for_entity(
        code: DiagCode,
        entity: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            entity: Some(entity.into()),
            ..Diagnostic::new(code, message)
        }
    }

    /// Overrides the default severity.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attaches a remedy rendered as a `help:` line.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Attaches the source extent the finding concerns.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }
}

/// All diagnostics produced for one scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The analyzed scenario's name.
    pub scenario: String,
    /// The file the scenario came from, the SARIF artifact (`None` for
    /// in-memory scenarios such as the shipped examples).
    pub uri: Option<String>,
    /// Findings, sorted most severe first (stable within a severity).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for the named scenario, backed by no file.
    #[must_use]
    pub fn new(scenario: impl Into<String>) -> Self {
        Report {
            scenario: scenario.into(),
            uri: None,
            diagnostics: Vec::new(),
        }
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Sorts findings most severe first, preserving pass order within a
    /// severity.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| std::cmp::Reverse(d.severity));
    }

    /// Number of findings at the given severity.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The distinct codes present, for matching in tests and CI.
    #[must_use]
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    /// Human-readable rendering, one finding per stanza.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "scenario `{}`: {} error(s), {} warning(s), {} info(s)\n",
            self.scenario,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            match &d.entity {
                Some(e) => {
                    out.push_str(&format!(
                        "  {}[{}] `{}`: {}\n",
                        d.severity, d.code, e, d.message
                    ));
                }
                None => out.push_str(&format!("  {}[{}] {}\n", d.severity, d.code, d.message)),
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("    help: {s}\n"));
            }
        }
        out
    }

    /// Machine-readable JSON rendering (a single compact object).
    ///
    /// All numeric detail lives inside the message strings, so the
    /// output contains only strings and integer counts and is always
    /// valid JSON regardless of non-finite values in the input.
    #[must_use]
    pub fn render_json(&self) -> String {
        self.to_json().render_compact()
    }

    /// The [`Report::render_json`] object as a JSON value.
    fn to_json(&self) -> Json {
        let text = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
        let count = |severity| Json::uint(self.count(severity) as u64);
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::Obj(vec![
                ("code".into(), Json::Str(d.code.as_str().into())),
                ("severity".into(), Json::Str(d.severity.as_str().into())),
                ("entity".into(), text(&d.entity)),
                ("message".into(), Json::Str(d.message.clone())),
                ("suggestion".into(), text(&d.suggestion)),
            ])
        });
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("errors".into(), count(Severity::Error)),
                    ("warnings".into(), count(Severity::Warning)),
                    ("infos".into(), count(Severity::Info)),
                ]),
            ),
            ("diagnostics".into(), Json::Arr(diagnostics.collect())),
        ])
    }
}

/// Renders several reports as one compact JSON array (the `--format
/// json` output shape).
#[must_use]
pub fn render_json_reports(reports: &[Report]) -> String {
    Json::Arr(reports.iter().map(Report::to_json).collect()).render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_kebab() {
        let mut seen = BTreeSet::new();
        for code in DiagCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert!(
                code.as_str()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "non-kebab code {code}"
            );
        }
        assert_eq!(seen.len(), DiagCode::ALL.len());
    }

    /// `ALL` is the registry every `codes` listing and SARIF rule table
    /// reads, so a variant missing from it would be emitted but never
    /// listed. The declaration is read from this file's own source.
    #[test]
    fn all_lists_every_variant_once_in_declaration_order() {
        let source = include_str!("diagnostic.rs");
        let body = source
            .split_once("pub enum DiagCode {")
            .and_then(|(_, rest)| rest.split_once("\n}"))
            .map(|(body, _)| body)
            .unwrap_or_default();
        let declared: Vec<&str> = body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .map(|l| l.trim_end_matches(','))
            .collect();
        let listed: Vec<String> = DiagCode::ALL.iter().map(|c| format!("{c:?}")).collect();
        assert_eq!(listed, declared);
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_sorting() {
        let mut r = Report::new("t");
        r.push(Diagnostic::new(DiagCode::EnergyKneeOutsideRange, "i"));
        r.push(Diagnostic::new(DiagCode::NoTasks, "e"));
        r.push(Diagnostic::new(DiagCode::Overload, "w"));
        r.sort();
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.diagnostics[2].severity, Severity::Info);
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn fault_codes_render_in_text_and_json() {
        let mut r = Report::new("faulty");
        r.push(Diagnostic::new(
            DiagCode::FaultNegativeDeviation,
            "demand-deviation factor -1 must be finite and non-negative",
        ));
        r.push(Diagnostic::for_entity(
            DiagCode::FaultSwitchLatencyExceedsWindow,
            "plan",
            "latency spans the shortest window",
        ));
        r.push(
            Diagnostic::new(DiagCode::FaultEmptyDegradedSet, "no surviving frequency")
                .with_suggestion("list at least one frequency"),
        );
        r.sort();
        let text = r.render_text();
        let json = r.render_json();
        for code in [
            "fault-negative-deviation",
            "fault-switch-latency-exceeds-window",
            "fault-empty-degraded-set",
        ] {
            assert!(text.contains(code), "text renderer must show {code}");
            assert!(json.contains(code), "json renderer must show {code}");
        }
        assert!(r.has_errors(), "fault codes default to error severity");
    }

    #[test]
    fn lint_codes_render_in_text_and_json() {
        let mut r = Report::new("lints");
        r.push(Diagnostic::for_entity(
            DiagCode::LintUncheckedTimeArith,
            "now_us + budget_us",
            "12:9: raw `+` on microsecond integers",
        ));
        r.push(Diagnostic::for_entity(
            DiagCode::LintFloatSortPartialCmp,
            "partial_cmp",
            "40:21: NaN ordering unspecified",
        ));
        r.push(
            Diagnostic::new(DiagCode::LintUnusedSuppression, "1:1: suppressed nothing")
                .with_suggestion("delete the directive"),
        );
        r.sort();
        let text = r.render_text();
        let json = r.render_json();
        for code in [
            "lint-unchecked-time-arith",
            "lint-float-sort-partial-cmp",
            "lint-unused-suppression",
        ] {
            assert!(text.contains(code), "text renderer must show {code}");
            assert!(json.contains(code), "json renderer must show {code}");
        }
        assert!(r.has_errors(), "lint codes default to error severity");
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = Report::new("a\"b\\c\nd");
        r.push(Diagnostic::for_entity(
            DiagCode::NoTasks,
            "task\t1",
            "msg \"quoted\"",
        ));
        let json = r.render_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("task\\t1"));
        assert!(json.contains("msg \\\"quoted\\\""));
    }
}
