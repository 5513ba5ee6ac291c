#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Golden pin for SARIF `region` output: findings on file-backed
//! scenarios carry start/end line-and-column extents for the exact
//! token the diagnostic names. A byte drift here means the span
//! scanner, the SARIF writer, or the fixture scenario changed — all
//! deliberate events that must update `fixtures/regions.sarif`.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run -p eua-analyze -- check --format sarif \
//!     crates/analyze/tests/fixtures/regions.scn \
//!     > crates/analyze/tests/fixtures/regions.sarif
//! ```

use eua_analyze::{analyze, render_sarif, validate_sarif, ScenarioSpec};
use eua_sim::json::{self, Json};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// The exact invocation the CLI performs for a file-backed scenario,
/// reproduced in-process.
fn render_fixture_sarif() -> String {
    let text = fixture("regions.scn");
    let (spec, map) = ScenarioSpec::parse_with_spans(&text).expect("fixture parses");
    let mut report = analyze(&spec);
    report.uri = Some("crates/analyze/tests/fixtures/regions.scn".to_string());
    map.anchor(&mut report);
    render_sarif("eua-analyze", &[report])
}

#[test]
fn sarif_regions_are_golden() {
    let rendered = render_fixture_sarif();
    assert_eq!(
        rendered,
        fixture("regions.sarif"),
        "SARIF region output drifted; regenerate the fixture if deliberate"
    );
}

#[test]
fn golden_sarif_validates_and_round_trips() {
    let text = fixture("regions.sarif");
    validate_sarif(&text).expect("golden must satisfy the pinned subset");
    assert_eq!(json::parse(&text).expect("valid json").render(), text);
}

/// The regions must anchor the *named tokens*: the `assurance-nu-range`
/// finding points at the task-name token, the `dominated-frequency`
/// finding at the `36` token on the frequencies line.
#[test]
fn regions_anchor_the_named_tokens() {
    let doc = json::parse(&render_fixture_sarif()).expect("valid json");
    let results = doc.get("runs").and_then(Json::as_arr).expect("runs")[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results")
        .to_vec();
    let region_of = |rule: &str| -> (u64, u64, u64, u64) {
        let result = results
            .iter()
            .find(|r| r.get("ruleId").and_then(Json::as_str) == Some(rule))
            .unwrap_or_else(|| panic!("no `{rule}` result"));
        let region = result
            .get("locations")
            .and_then(Json::as_arr)
            .expect("locations")[0]
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .unwrap_or_else(|| panic!("`{rule}` carries no region"));
        let coord = |k: &str| match region.get(k) {
            Some(Json::Num(n)) => n.parse::<u64>().expect("integer coord"),
            _ => panic!("missing {k}"),
        };
        (
            coord("startLine"),
            coord("startColumn"),
            coord("endLine"),
            coord("endColumn"),
        )
    };
    // `task sensor` on line 4: the name token spans columns 6..12.
    assert_eq!(region_of("assurance-nu-range"), (4, 6, 4, 12));
    // `frequencies 36 55 100` on line 2: the `36` token spans 13..15.
    assert_eq!(region_of("dominated-frequency"), (2, 13, 2, 15));
}
