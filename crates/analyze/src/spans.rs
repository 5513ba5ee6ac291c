//! Source spans for `.scn` scenario files: the token extents the
//! parser read, keyed the way diagnostics name their entities, so SARIF
//! output can carry precise `region`s (start/end line and column)
//! instead of whole-file locations.
//!
//! [`ScenarioSpec::parse_with_spans`](crate::ScenarioSpec::parse_with_spans)
//! fills a [`SourceMap`] as it reads each line: a `scenario` or `task`
//! name is the rest of its line, as the parser keeps it, so its span
//! runs from the name's first token to its last. Columns are 1-based
//! byte offsets and `end_col` is exclusive, matching SARIF's
//! `endColumn` convention.

use std::fmt;

use crate::diagnostic::Report;

/// One token extent in a `.scn` file. Lines and columns are 1-based;
/// `end_col` points one past the last byte, as SARIF's `endColumn` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line of the first byte.
    pub start_line: u32,
    /// 1-based column of the first byte.
    pub start_col: u32,
    /// 1-based line of the last byte (always `start_line`: `.scn`
    /// tokens never wrap).
    pub end_line: u32,
    /// 1-based exclusive end column.
    pub end_col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}-{}:{}",
            self.start_line, self.start_col, self.end_line, self.end_col
        )
    }
}

/// Token extents the parser read from one `.scn` text, keyed the way
/// diagnostics name their entities (see [`SourceMap::resolve`]).
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// The name on the `scenario` header line.
    pub(crate) scenario: Option<Span>,
    /// `(mhz, span)` per numeric token on the `frequencies` line.
    pub(crate) frequencies: Vec<(u64, Span)>,
    /// The value token(s) on the `energy` line, merged into one span.
    pub(crate) energy: Option<Span>,
    /// `(name, span)` per `task` header name.
    pub(crate) tasks: Vec<(String, Span)>,
}

impl SourceMap {
    /// Maps a diagnostic entity to its token span, following the entity
    /// grammar the passes emit:
    ///
    /// * `None` → the scenario name token (the finding concerns the
    ///   scenario as a whole);
    /// * a bare task name → that task's header name token;
    /// * `frequency <N> MHz` or `<N> MHz` → the matching numeric token
    ///   on the `frequencies` line;
    /// * `energy model <name>` → the `energy` line's value tokens.
    ///
    /// Returns `None` when the entity has no anchorable token (e.g. a
    /// task name the scan never saw) — the SARIF writer then omits the
    /// region rather than guessing.
    #[must_use]
    pub fn resolve(&self, entity: Option<&str>) -> Option<Span> {
        let Some(entity) = entity else {
            return self.scenario;
        };
        if entity.starts_with("energy model") {
            return self.energy;
        }
        let freq_name = entity
            .strip_prefix("frequency ")
            .unwrap_or(entity)
            .strip_suffix(" MHz");
        if let Some(mhz) = freq_name.and_then(|n| n.parse::<u64>().ok()) {
            return self
                .frequencies
                .iter()
                .find(|(f, _)| *f == mhz)
                .map(|(_, s)| *s);
        }
        self.tasks
            .iter()
            .find(|(name, _)| name == entity)
            .map(|(_, s)| *s)
    }

    /// Sets each of `report`'s diagnostics' span to the token its entity
    /// names (see [`SourceMap::resolve`]): the SARIF regions of a
    /// file-backed scenario.
    pub fn anchor(&self, report: &mut Report) {
        for d in &mut report.diagnostics {
            d.span = self.resolve(d.entity.as_deref());
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::ScenarioSpec;

    const SCN: &str = "\
scenario demo
frequencies 36 55 100
energy E2
task control
  tuf step 10 10000
  uam 1 10000
  demand det 1000
  assurance 1 0.5
end
task backup
  tuf step 10 10000
  uam 1 10000
  demand det 1000
  assurance 1 0.5
end
";

    fn map(text: &str) -> SourceMap {
        ScenarioSpec::parse_with_spans(text).unwrap().1
    }

    #[test]
    fn the_parser_anchors_every_entity_kind() {
        let map = map(SCN);
        let scenario = map.resolve(None).unwrap();
        assert_eq!(
            (scenario.start_line, scenario.start_col, scenario.end_col),
            (1, 10, 14)
        );
        let f55 = map.resolve(Some("frequency 55 MHz")).unwrap();
        assert_eq!((f55.start_line, f55.start_col, f55.end_col), (2, 16, 18));
        assert_eq!(map.resolve(Some("55 MHz")), Some(f55));
        let energy = map.resolve(Some("energy model E2")).unwrap();
        assert_eq!(
            (energy.start_line, energy.start_col, energy.end_col),
            (3, 8, 10)
        );
        let control = map.resolve(Some("control")).unwrap();
        assert_eq!(
            (control.start_line, control.start_col, control.end_col),
            (4, 6, 13)
        );
        let backup = map.resolve(Some("backup")).unwrap();
        assert_eq!(backup.start_line, 10);
    }

    #[test]
    fn multi_word_names_span_the_rest_of_their_line() {
        // A regression-corpus header and a two-word task name, each with
        // a trailing comment the parser strips, and a custom energy
        // model whose four values merge into one span.
        let text = "scenario chaos-repro policy=edf  seed=6 # a comment\n\
                    \x20 energy  custom 1 0 0.5 0.5 # comment\n\
                    task sensor fusion   # trailing comment\n\
                    \x20 tuf step 10 10000\n\
                    \x20 uam 1 10000\n\
                    \x20 demand det 1000\n\
                    \x20 assurance 1.0 0.9\n\
                    end\n";
        let (spec, map) = ScenarioSpec::parse_with_spans(text).unwrap();
        assert_eq!(spec.name, "chaos-repro policy=edf  seed=6");
        assert_eq!(spec.tasks[0].name, "sensor fusion");
        let scenario = map.resolve(None).unwrap();
        assert_eq!(
            (scenario.start_line, scenario.start_col, scenario.end_col),
            (1, 10, 40)
        );
        let energy = map.resolve(Some("energy model custom")).unwrap();
        assert_eq!(
            (energy.start_line, energy.start_col, energy.end_col),
            (2, 11, 29)
        );
        let task = map.resolve(Some(&spec.tasks[0].name)).unwrap();
        assert_eq!((task.start_line, task.start_col, task.end_col), (3, 6, 19));
        assert_eq!(map.resolve(Some("sensor")), None);
    }

    #[test]
    fn unknown_entities_resolve_to_nothing() {
        let map = map(SCN);
        assert_eq!(map.resolve(Some("frequency 99 MHz")), None);
        assert_eq!(map.resolve(Some("ghost-task")), None);
        // An empty text parses to a scenario with no header, no table and
        // no energy line, so nothing anchors.
        let empty = self::map("");
        assert_eq!(empty.resolve(None), None);
        assert_eq!(empty.resolve(Some("frequency 36 MHz")), None);
        assert_eq!(empty.resolve(Some("energy model E1")), None);
    }
}
