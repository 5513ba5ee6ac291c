//! Source spans for `.scn` scenario files: a lexical re-scan that maps
//! diagnostic entities back to the token extents they came from, so
//! SARIF output can carry precise `region`s (start/end line and column)
//! instead of whole-file locations.
//!
//! The scan reads only line structure and whitespace-separated tokens,
//! with `#` comments stripped as the parser strips them. A `scenario` or
//! `task` name is the rest of its line, as the parser keeps it, so its
//! span runs from the name's first token to its last.
//! [`ScenarioSpec::parse_with_spans`](crate::ScenarioSpec::parse_with_spans)
//! scans only text that parsed; on other text the scan still never
//! fails, and the map is simply sparse. Columns are 1-based byte offsets
//! and `end_col` is exclusive, matching SARIF's `endColumn` convention.

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

/// Token extents recovered from one `.scn` text, keyed the way
/// diagnostics name their entities (see [`SourceMap::resolve`]).
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// The name on the `scenario` header line.
    scenario: Option<Span>,
    /// `(mhz, span)` per numeric token on the `frequencies` line.
    frequencies: Vec<(u64, Span)>,
    /// The value token(s) on the `energy` line, merged into one span.
    energy: Option<Span>,
    /// `(name, span)` per `task` header name.
    tasks: Vec<(String, Span)>,
}

/// Whitespace-separated tokens of one line with their 1-based byte
/// columns (`start`, exclusive `end`).
fn tokens(line: &str) -> Vec<(u32, u32, &str)> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        #[allow(clippy::cast_possible_truncation)]
        out.push((start as u32 + 1, i as u32 + 1, &line[start..i]));
    }
    out
}

/// The 1-based columns from the first of `toks` to the end of the last.
fn extent(toks: &[(u32, u32, &str)]) -> Option<(u32, u32)> {
    Some((toks.first()?.0, toks.last()?.1))
}

impl SourceMap {
    /// Scans scenario text for anchorable tokens. Never fails: unknown
    /// or malformed lines simply contribute nothing.
    #[must_use]
    pub fn scan(text: &str) -> SourceMap {
        let mut map = SourceMap::default();
        for (idx, line) in text.lines().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let lineno = idx as u32 + 1;
            let body = line.split('#').next().unwrap_or("");
            let toks = tokens(body);
            let span = |(start, end): (u32, u32)| Span {
                start_line: lineno,
                start_col: start,
                end_line: lineno,
                end_col: end,
            };
            match toks.as_slice() {
                [(_, _, "scenario"), rest @ ..] if map.scenario.is_none() => {
                    map.scenario = extent(rest).map(span);
                }
                [(_, _, "frequencies"), rest @ ..] if map.frequencies.is_empty() => {
                    for &(s, e, tok) in rest {
                        if let Ok(mhz) = tok.parse::<u64>() {
                            map.frequencies.push((mhz, span((s, e))));
                        }
                    }
                }
                [(_, _, "energy"), rest @ ..] if map.energy.is_none() => {
                    map.energy = extent(rest).map(span);
                }
                [(_, _, "task"), rest @ ..] => {
                    if let Some((s, e)) = extent(rest) {
                        let name = &body[s as usize - 1..e as usize - 1];
                        map.tasks.push((name.to_string(), span((s, e))));
                    }
                }
                _ => {}
            }
        }
        map
    }

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

    const SCN: &str = "\
scenario demo
frequencies 36 55 100
energy E2
task control
  tuf step 10 10000
end
task backup
end
";

    #[test]
    fn scan_anchors_every_entity_kind() {
        let map = SourceMap::scan(SCN);
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
        assert_eq!(backup.start_line, 7);
    }

    #[test]
    fn multi_word_names_span_the_rest_of_their_line() {
        // A regression-corpus header and a two-word task name, each with
        // a trailing comment the parser strips.
        let text = "scenario chaos-repro policy=edf  seed=6 # a comment\n\
                    task sensor fusion   # trailing comment\n\
                    \x20 tuf step 10 10000\n\
                    \x20 uam 1 10000\n\
                    \x20 demand det 1000\n\
                    \x20 assurance 1.0 0.9\n\
                    end\n";
        let (spec, map) = crate::ScenarioSpec::parse_with_spans(text).unwrap();
        assert_eq!(spec.name, "chaos-repro policy=edf  seed=6");
        assert_eq!(spec.tasks[0].name, "sensor fusion");
        let scenario = map.resolve(None).unwrap();
        assert_eq!(
            (scenario.start_line, scenario.start_col, scenario.end_col),
            (1, 10, 40)
        );
        let task = map.resolve(Some(&spec.tasks[0].name)).unwrap();
        assert_eq!((task.start_line, task.start_col, task.end_col), (2, 6, 19));
        assert_eq!(map.resolve(Some("sensor")), None);
    }

    #[test]
    fn unknown_entities_resolve_to_nothing() {
        let map = SourceMap::scan(SCN);
        assert_eq!(map.resolve(Some("frequency 99 MHz")), None);
        assert_eq!(map.resolve(Some("ghost-task")), None);
        assert_eq!(SourceMap::scan("").resolve(None), None);
    }

    #[test]
    fn scan_survives_mangled_text() {
        let map = SourceMap::scan("scenario\nfrequencies x y\ntask\nenergy");
        assert_eq!(map.resolve(None), None);
        assert_eq!(map.resolve(Some("frequency 36 MHz")), None);
        assert_eq!(map.resolve(Some("energy model E1")), None);
    }
}
