#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! The fixture corpus contract: one minimal bad-snippet `.rs` file per
//! `lint-*` code, each tripping **exactly** its own code — at least one
//! finding, and no finding of any other code. This pins both directions
//! of every rule at once: the rule fires on its canonical hazard, and no
//! other rule misfires on the same snippet (the cross-contamination trap
//! that grep-based lints cannot express).

use std::collections::BTreeSet;
use std::path::PathBuf;

use eua_analyze::DiagCode;
use eua_lint::{lint_source, LINT_CODES};

fn fixture_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture file for a code: `lint-loop-alloc` → `loop_alloc.rs`.
fn fixture_name(code: DiagCode) -> String {
    format!(
        "{}.rs",
        code.as_str()
            .strip_prefix("lint-")
            .expect("lint codes are lint-*")
            .replace('-', "_")
    )
}

/// Lints one fixture and returns the distinct codes plus finding count.
fn lint_fixture(code: DiagCode) -> (BTreeSet<&'static str>, usize) {
    let path = fixture_path(&fixture_name(code));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let lint = lint_source(&path.display().to_string(), &text);
    let codes: BTreeSet<&'static str> = lint.diagnostics.iter().map(|d| d.code.as_str()).collect();
    (codes, lint.diagnostics.len())
}

/// Every code has a fixture, and every fixture trips exactly its code.
#[test]
fn each_code_has_a_fixture_tripping_exactly_itself() {
    for code in LINT_CODES {
        let (codes, count) = lint_fixture(code);
        assert!(count >= 1, "fixture for {} tripped nothing", code.as_str());
        assert_eq!(
            codes,
            BTreeSet::from([code.as_str()]),
            "fixture for {} must trip exactly that code",
            code.as_str()
        );
    }
}

/// No stray files: the corpus is exactly one fixture per code, so a
/// renamed code cannot leave an orphan behind. Subdirectories (the
/// lexer and loop-depth corpora, the clippy ban package) are exempt — the
/// contract governs rule fixtures, which are all top-level files.
#[test]
fn fixture_corpus_is_exactly_one_file_per_code() {
    let dir = fixture_path("");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry"))
        .filter(|e| e.file_type().expect("file type").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = LINT_CODES.iter().map(|c| fixture_name(*c)).collect();
    expected.sort();
    assert_eq!(on_disk, expected);
}

/// The lexer edge-case corpus: raw strings with hashes, nested block
/// comments, raw identifiers, and a shebang line. Each file hides
/// hazard names inside non-code contexts, so each must lint fully
/// clean AND leak none of those names into the code token stream.
#[test]
fn lexer_edge_fixtures_produce_no_spurious_tokens() {
    use eua_lint::lexer::{lex, TokKind};

    let dir = fixture_path("lexer");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("lexer fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "nested_comments.rs",
            "raw_idents.rs",
            "raw_strings.rs",
            "shebang.rs"
        ]
    );
    for name in &names {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let lint = lint_source(name, &text);
        assert!(
            lint.diagnostics.is_empty(),
            "{name} must lint clean:\n{}",
            lint.render_text()
        );
        let toks = lex(&text);
        for hidden in ["thread", "spawn", "Instant", "HashMap", "SystemTime", "now"] {
            assert!(
                !toks
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == hidden),
                "{name} leaked `{hidden}` into the code token stream"
            );
        }
        match name.as_str() {
            "shebang.rs" => {
                let first = toks.first().expect("tokens after shebang");
                assert!(first.line >= 2, "shebang line must produce no tokens");
            }
            "raw_idents.rs" => {
                assert!(
                    toks.iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "r#type"),
                    "raw identifier must lex as one token, r# included"
                );
            }
            _ => {}
        }
    }
}

/// The loop-depth corpus: each fixture's maximum loop depth under
/// [`loop_depths`](eua_lint::rules::loop_depths) is pinned, and so is
/// the depth of each loop keyword (a `for` header sits outside its
/// loop, a `while` or `loop` header inside), next to the source that
/// exhibits the shape (early returns, a labeled break, match guards,
/// `for` over `while` over `loop`, and `?`).
#[test]
fn depth_corpus_loop_depths_are_pinned() {
    use eua_lint::lexer::{lex, Tok, TokKind};
    use eua_lint::parser::parse_file;
    use eua_lint::rules::loop_depths;

    // (file, max loop depth, depth of each loop keyword in order)
    let pins: [(&str, u32, &[u32]); 5] = [
        ("early_returns.rs", 0, &[]),
        ("labeled_break.rs", 2, &[0, 1]),
        ("match_guards.rs", 0, &[]),
        ("nested_loops.rs", 3, &[0, 2, 3]),
        ("question_mark.rs", 0, &[]),
    ];
    let dir = fixture_path("depth");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("depth fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, pins.map(|p| p.0), "corpus and pins must agree");

    let mut actual = Vec::new();
    for (name, ..) in pins {
        let text = std::fs::read_to_string(dir.join(name)).expect("fixture readable");
        let toks = lex(&text);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let fns = parse_file(&code);
        assert_eq!(fns.len(), 1, "{name} holds exactly one fn");
        let depths = loop_depths(&code, &fns);
        let keywords: Vec<u32> = (0..code.len())
            .filter(|&i| ["for", "while", "loop"].iter().any(|k| code[i].is_ident(k)))
            .map(|i| depths[i])
            .collect();
        let max = depths.into_iter().max().unwrap_or(0);
        actual.push((name, max, keywords));
    }
    let pins: Vec<(&str, u32, Vec<u32>)> = pins.iter().map(|p| (p.0, p.1, p.2.to_vec())).collect();
    assert_eq!(actual, pins, "loop depths drifted");
}
