//! SARIF 2.1.0 output for analyzer reports, plus a validator for the
//! exact subset this crate emits.
//!
//! The writer produces one `run` per invocation with the union of fired
//! rules (in [`DiagCode::ALL`] order) under `tool.driver.rules`, and one
//! `result` per diagnostic. Severities map onto SARIF levels as
//! `Error → error`, `Warning → warning`, `Info → note`. Each result
//! carries a logical location (scenario, and the task/frequency entity
//! when the diagnostic names one); results of a report with a
//! [`Report::uri`] also carry a physical `artifactLocation`, with the
//! diagnostic's [`Diagnostic::span`](crate::Diagnostic::span) as its
//! `region`.
//!
//! Rendering goes through the deterministic first-party
//! [`eua_sim::json`] tree, so [`validate_sarif`] (which every CLI runs
//! before it writes SARIF) can assert `render(parse(out)) == out` — the
//! SARIF output byte-round-trips.

use eua_sim::json::{self, Json};

use crate::diagnostic::{DiagCode, Report, Severity};

/// The schema URI pinned into every document this writer emits.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// The SARIF spec version pinned into every document.
pub const SARIF_VERSION: &str = "2.1.0";

/// The SARIF level string for a severity.
#[must_use]
pub fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Renders reports as one SARIF 2.1.0 document (a single run).
///
/// `driver` names the emitting tool (`eua-analyze`, `eua-audit`,
/// `eua-lint`). A report's [`Report::uri`] is its artifact, and each of
/// its diagnostics' spans becomes a region: 1-based
/// `startLine`/`startColumn`/`endLine` and exclusive `endColumn`. A
/// region is only emitted when the report also has an artifact,
/// matching SARIF's expectation that regions live inside a
/// `physicalLocation`.
#[must_use]
pub fn render_sarif(driver: &str, reports: &[Report]) -> String {
    // Rules: the union of codes that actually fired, in ALL order, so
    // ruleIndex is stable regardless of diagnostic ordering.
    let fired: Vec<DiagCode> = DiagCode::ALL
        .iter()
        .copied()
        .filter(|c| {
            reports
                .iter()
                .any(|r| r.diagnostics.iter().any(|d| d.code == *c))
        })
        .collect();
    let rule_index = |code: DiagCode| fired.iter().position(|c| *c == code).unwrap_or(0);

    let rules = Json::Arr(
        fired
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(c.as_str().into())),
                    (
                        "shortDescription".into(),
                        Json::Obj(vec![("text".into(), Json::Str(c.summary().into()))]),
                    ),
                ])
            })
            .collect(),
    );

    let mut results = Vec::new();
    for report in reports {
        for d in &report.diagnostics {
            let mut logical = vec![(
                "fullyQualifiedName".into(),
                Json::Str(match &d.entity {
                    Some(e) => format!("{}::{e}", report.scenario),
                    None => report.scenario.clone(),
                }),
            )];
            if let Some(e) = &d.entity {
                logical.push(("name".into(), Json::Str(e.clone())));
            }
            let mut location = Vec::new();
            if let Some(uri) = &report.uri {
                let mut physical = vec![(
                    "artifactLocation".into(),
                    Json::Obj(vec![("uri".into(), Json::Str(uri.clone()))]),
                )];
                if let Some(s) = d.span {
                    physical.push((
                        "region".into(),
                        Json::Obj(vec![
                            ("startLine".into(), Json::uint(u64::from(s.start_line))),
                            ("startColumn".into(), Json::uint(u64::from(s.start_col))),
                            ("endLine".into(), Json::uint(u64::from(s.end_line))),
                            ("endColumn".into(), Json::uint(u64::from(s.end_col))),
                        ]),
                    ));
                }
                location.push(("physicalLocation".into(), Json::Obj(physical)));
            }
            location.push((
                "logicalLocations".into(),
                Json::Arr(vec![Json::Obj(logical)]),
            ));

            let mut text = d.message.clone();
            if let Some(s) = &d.suggestion {
                text.push_str(" — ");
                text.push_str(s);
            }

            results.push(Json::Obj(vec![
                ("ruleId".into(), Json::Str(d.code.as_str().into())),
                ("ruleIndex".into(), Json::uint(rule_index(d.code) as u64)),
                ("level".into(), Json::Str(level(d.severity).into())),
                (
                    "message".into(),
                    Json::Obj(vec![("text".into(), Json::Str(text))]),
                ),
                ("locations".into(), Json::Arr(vec![Json::Obj(location)])),
            ]));
        }
    }

    let doc = Json::Obj(vec![
        ("$schema".into(), Json::Str(SCHEMA_URI.into())),
        ("version".into(), Json::Str(SARIF_VERSION.into())),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".into(),
                    Json::Obj(vec![(
                        "driver".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::Str(driver.into())),
                            ("rules".into(), rules),
                        ]),
                    )]),
                ),
                ("results".into(), Json::Arr(results)),
            ])]),
        ),
    ]);
    doc.render()
}

/// Validates a document against the pinned SARIF 2.1.0 subset this
/// writer emits, and checks that it byte-round-trips through the
/// first-party JSON tree (`render(parse(text)) == text`).
///
/// # Errors
///
/// A message naming the first violation: bad JSON, bytes that do not
/// round-trip, a missing or mistyped required field, an unknown
/// `level`, or a `ruleId` / `ruleIndex` that does not match the run's
/// rule table.
pub fn validate_sarif(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    if doc.render() != text {
        return Err("render(parse(output)) differs from output".into());
    }
    let str_of = |v: Option<&Json>, what: &str| -> Result<String, String> {
        v.and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| format!("missing or non-string {what}"))
    };

    str_of(doc.get("$schema"), "$schema")?;
    let version = str_of(doc.get("version"), "version")?;
    if version != SARIF_VERSION {
        return Err(format!(
            "version must be {SARIF_VERSION:?}, got {version:?}"
        ));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("runs must not be empty".into());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("missing tool.driver")?;
        str_of(driver.get("name"), "tool.driver.name")?;
        let rules = driver
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("missing tool.driver.rules array")?;
        let mut ids = Vec::with_capacity(rules.len());
        for rule in rules {
            let id = str_of(rule.get("id"), "rule id")?;
            str_of(
                rule.get("shortDescription").and_then(|s| s.get("text")),
                "rule shortDescription.text",
            )?;
            ids.push(id);
        }
        let results = run
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("missing results array")?;
        for result in results {
            let rule_id = str_of(result.get("ruleId"), "result ruleId")?;
            let index = match result.get("ruleIndex") {
                Some(Json::Num(n)) => n
                    .parse::<usize>()
                    .map_err(|_| format!("non-integer ruleIndex {n:?}"))?,
                _ => return Err("missing ruleIndex".into()),
            };
            if ids.get(index).map(String::as_str) != Some(rule_id.as_str()) {
                return Err(format!(
                    "ruleIndex {index} does not point at ruleId {rule_id:?}"
                ));
            }
            let lvl = str_of(result.get("level"), "result level")?;
            if !matches!(lvl.as_str(), "none" | "note" | "warning" | "error") {
                return Err(format!("unknown level {lvl:?}"));
            }
            str_of(
                result.get("message").and_then(|m| m.get("text")),
                "result message.text",
            )?;
            let locations = result.get("locations").and_then(Json::as_arr);
            for location in locations.unwrap_or(&[]) {
                let Some(region) = location
                    .get("physicalLocation")
                    .and_then(|p| p.get("region"))
                else {
                    continue;
                };
                let coord = |what: &str| -> Result<u64, String> {
                    match region.get(what) {
                        Some(Json::Num(n)) => {
                            let v = n
                                .parse::<u64>()
                                .map_err(|_| format!("non-integer region {what} {n:?}"))?;
                            if v == 0 {
                                return Err(format!("region {what} must be 1-based"));
                            }
                            Ok(v)
                        }
                        _ => Err(format!("region missing {what}")),
                    }
                };
                let (sl, sc, el, ec) = (
                    coord("startLine")?,
                    coord("startColumn")?,
                    coord("endLine")?,
                    coord("endColumn")?,
                );
                if el < sl || (el == sl && ec < sc) {
                    return Err(format!(
                        "region ends ({el}:{ec}) before it starts ({sl}:{sc})"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::diagnostic::Diagnostic;

    /// Two reports; `alpha` comes from `alpha.scn` when `file_backed`.
    fn sample_reports(file_backed: bool) -> Vec<Report> {
        let mut a = Report::new("alpha");
        a.push(
            Diagnostic::for_entity(
                DiagCode::AssuranceNuRange,
                "task `x`",
                "nu must lie in (0, 1]",
            )
            .with_suggestion("clamp nu to 1.0"),
        );
        a.push(
            Diagnostic::new(DiagCode::Theorem1Speed, "Theorem 1 holds at 73 MHz")
                .with_severity(Severity::Info),
        );
        if file_backed {
            a.uri = Some("alpha.scn".into());
        }
        let mut b = Report::new("beta");
        b.push(Diagnostic::new(
            DiagCode::FreqTableInvalid,
            "table is unsorted",
        ));
        vec![a, b]
    }

    fn render(reports: &[Report]) -> String {
        render_sarif("eua-analyze", reports)
    }

    #[test]
    fn sarif_output_byte_round_trips_and_validates() {
        let text = render(&sample_reports(true));
        let reparsed = json::parse(&text).expect("sarif must be valid json");
        assert_eq!(reparsed.render(), text, "byte-exact round-trip");
        validate_sarif(&text).expect("must satisfy the pinned subset");
    }

    #[test]
    fn severities_map_onto_sarif_levels() {
        assert_eq!(level(Severity::Error), "error");
        assert_eq!(level(Severity::Warning), "warning");
        assert_eq!(level(Severity::Info), "note");
        let text = render(&sample_reports(false));
        assert!(text.contains("\"level\": \"error\""));
        assert!(text.contains("\"level\": \"note\""));
    }

    #[test]
    fn rule_indices_point_at_their_rule_ids() {
        let text = render(&sample_reports(false));
        let doc = json::parse(&text).unwrap();
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap();
        // Three distinct codes fired.
        assert_eq!(rules.len(), 3);
        validate_sarif(&text).unwrap();
    }

    #[test]
    fn validator_rejects_structural_violations() {
        // A result whose ruleIndex points at the wrong rule.
        let mismatched = r#"{
  "$schema": "x",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {"driver": {"name": "t", "rules": [
        {"id": "a", "shortDescription": {"text": "A"}},
        {"id": "b", "shortDescription": {"text": "B"}}
      ]}},
      "results": [
        {"ruleId": "a", "ruleIndex": 1, "level": "note",
         "message": {"text": "m"}}
      ]
    }
  ]
}"#;
        for (bad, violation) in [
            ("{}", "$schema"),
            (
                "{\"$schema\": \"x\", \"version\": \"2.0.0\", \"runs\": []}",
                "version must be",
            ),
            (
                "{\"$schema\": \"x\", \"version\": \"2.1.0\", \"runs\": []}",
                "runs must not be empty",
            ),
            (mismatched, "ruleIndex 1 does not point"),
        ] {
            // Re-render in the writer's layout so the round-trip check
            // passes and the structural check is the one that fires.
            let bad = json::parse(bad).unwrap().render();
            let err = validate_sarif(&bad).expect_err(&bad);
            assert!(err.contains(violation), "{err:?} must name {violation:?}");
        }
        assert!(validate_sarif("not json").is_err());
        // Valid SARIF whose bytes do not round-trip is rejected too.
        let text = render(&sample_reports(false));
        validate_sarif(&text).unwrap();
        let err = validate_sarif(&text.replace("\n", "\n ")).unwrap_err();
        assert!(err.contains("differs from output"), "{err:?}");
    }

    #[test]
    fn physical_locations_appear_only_for_file_backed_reports() {
        let text = render(&sample_reports(true));
        assert!(text.contains("\"uri\": \"alpha.scn\""));
        // The beta report has no uri, so exactly one artifactLocation
        // uri string appears per alpha diagnostic (2 of them).
        assert_eq!(text.matches("artifactLocation").count(), 2);
    }
}
