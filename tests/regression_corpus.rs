//! Replays the shrunk chaos repros checked into
//! `tests/regression_corpus/` (tier-1, see ROADMAP).
//!
//! Each `.scn` in the corpus is a 1-minimal failing cell harvested by
//! `eua-chaos --shrink-dir` (see `eua_bench::shrink`): its scenario
//! name carries `policy=… seed=… horizon_us=… expect=…` metadata, and
//! replaying it — graded by `classify_degradation` and audited against
//! its decision certificate — must still exhibit exactly the recorded
//! failure. A behaviour change that silently "fixes" (or worsens) a
//! repro fails here and forces a deliberate corpus update.

#![allow(missing_docs)]
#![allow(clippy::expect_used, clippy::unwrap_used)] // test code: panicking on bad setup is the point

use std::fs;
use std::path::PathBuf;

use eua_bench::shrink::{candidates, case_from_repro_text, probe};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regression_corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/regression_corpus/ must exist")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        !corpus_files().is_empty(),
        "the regression corpus must hold at least one shrunk repro"
    );
}

#[test]
fn every_corpus_repro_still_reproduces_its_failure() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).expect("corpus file reads");
        let (case, expect) =
            case_from_repro_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let observed = probe(&case);
        assert_eq!(
            observed,
            Some(expect),
            "{}: expected {:?}, observed {observed:?}",
            path.display(),
            expect
        );
    }
}

#[test]
fn corpus_repros_are_canonical_and_minimal() {
    for path in corpus_files() {
        let text = fs::read_to_string(&path).expect("corpus file reads");
        // Committed repro text must be a parse ∘ render fixpoint, so a
        // re-harvested repro of the same spec is the same bytes.
        let spec = eua_analyze::scenario::ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(spec.render(), text, "{}: not canonical", path.display());
        // And 1-minimal: removing any single element (a task, a fault
        // component, half the horizon) must stop it reproducing.
        let (case, _) = case_from_repro_text(&text).expect("parses");
        for candidate in candidates(&case) {
            assert_eq!(
                probe(&candidate),
                None,
                "{}: a smaller candidate still reproduces — re-shrink it",
                path.display()
            );
        }
    }
}
