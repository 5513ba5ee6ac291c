//! `eua-lint` — first-party determinism and hot-path static analyzer
//! over the workspace's Rust sources.
//!
//! Certificate byte-identity pins and bit-identical parallel sweeps
//! rest on one property: *nothing nondeterministic ever leaks into the
//! engine*. Lexical bans (wall clock, raw threads, hash collections,
//! shared-state sync types) live in `clippy.toml`; this crate checks
//! what a path ban cannot see, with a token-aware scan (no rustc/syn —
//! the same first-party philosophy as the `.scn` source maps and JSON
//! parsers) over every first-party `.rs` file, reporting hazards as
//! [`Diagnostic`]s with stable `lint-*` codes from the shared
//! `eua-analyze` registry.
//!
//! | Module | What it holds |
//! |--------|---------------|
//! | [`lexer`] | the lightweight Rust lexer (tokens with exact spans) |
//! | [`parser`] | the item parser (fns, their parameters and bodies) |
//! | [`flow`] | raw microsecond arithmetic (`lint-unchecked-time-arith`) |
//! | [`rules`] | the token rules (float sorts, allocation) and loop depth |
//! | this | directives, suppression accounting, the file walker |
//!
//! Every rule is per file: [`lint_source`] is the whole pipeline, and
//! [`lint_roots`] maps it over the files under a set of roots. Seed
//! provenance is not a rule here: each production RNG root has a test
//! that its stream moves with its master seed. Nor is pool purity —
//! `map_parallel`'s `Fn + Sync` bounds reject a closure holding a
//! `Cell`, `RefCell` or `Rc`, and `clippy.toml` bans the shared-state,
//! wall-clock and hash-collection types it could reach.
//!
//! # Directives
//!
//! Two line-comment directives steer the scan (plain `//` comments
//! only, exact `eua-lint:` prefix):
//!
//! * an allow directive — `eua-lint:` followed by `allow(code, …)` —
//!   suppresses the named hazards on its own line (when trailing) or
//!   on the next line holding any token (when alone on a line). An
//!   allow that suppresses nothing is itself a finding
//!   (`lint-unused-suppression`), so stale exemptions cannot linger.
//! * a hot marker — `eua-lint:` followed by `hot` — marks the next
//!   function as per-event code: every allocating call in its body is
//!   a `lint-loop-alloc` finding, at any loop depth.
//!
//! Malformed directives, unknown codes, and markers that precede no
//! function body are `lint-unknown-suppression` findings: a typo in an
//! exemption must fail loudly, not silently stop suppressing.

#![forbid(unsafe_code)]

pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

use eua_analyze::{DiagCode, Diagnostic, Report, Span};

use lexer::{lex, Tok, TokKind};
use rules::span_of;
pub use rules::{Finding, HAZARD_CODES, LINT_CODES};

/// Whether a comment token is an `eua-lint:` directive.
fn is_directive_comment(text: &str) -> bool {
    text.strip_prefix("//")
        .is_some_and(|rest| rest.trim_start().starts_with("eua-lint:"))
}

/// A parsed `eua-lint:` directive.
#[derive(Debug)]
enum DirectiveKind {
    /// `hot`: the next function is a marked hot path.
    Hot,
    /// `allow(...)`: suppress the named codes (unknown names kept as
    /// strings for the error message).
    Allow(Vec<Result<DiagCode, String>>),
    /// Anything else after the `eua-lint:` prefix.
    Malformed,
}

#[derive(Debug)]
struct Directive {
    kind: DirectiveKind,
    span: Span,
    /// Whether the directive is alone on its line (it then covers the
    /// next token-holding line instead of its own).
    standalone: bool,
}

/// Parses the directive grammar after the `eua-lint:` prefix.
fn parse_directive(rest: &str, span: Span, standalone: bool) -> Directive {
    let rest = rest.trim();
    let kind = if rest == "hot" {
        DirectiveKind::Hot
    } else if let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let codes: Vec<Result<DiagCode, String>> = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                HAZARD_CODES
                    .iter()
                    .copied()
                    .find(|c| c.as_str() == name)
                    .ok_or_else(|| name.to_string())
            })
            .collect();
        if codes.is_empty() {
            DirectiveKind::Malformed
        } else {
            DirectiveKind::Allow(codes)
        }
    } else {
        DirectiveKind::Malformed
    };
    Directive {
        kind,
        span,
        standalone,
    }
}

/// Extracts directives from the token stream. `standalone` is computed
/// against code tokens: a directive with code before it on its line is
/// trailing.
fn directives(toks: &[Tok<'_>]) -> Vec<Directive> {
    let mut out = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::Comment { line: true }) || !is_directive_comment(t.text) {
            continue;
        }
        let rest = t
            .text
            .strip_prefix("//")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix("eua-lint:"))
            .unwrap_or("");
        let standalone = !toks.iter().any(|o| {
            !matches!(o.kind, TokKind::Comment { .. }) && o.line == t.line && o.col < t.col
        });
        out.push(parse_directive(rest, span_of(t), standalone));
    }
    out
}

/// The line a standalone directive covers: the first later line that
/// holds any non-directive token (code or prose comment). Directives
/// stack — another directive line is skipped, so several allows can sit
/// above one offending line.
fn covered_line(toks: &[Tok<'_>], directive_line: u32) -> Option<u32> {
    toks.iter()
        .filter(|t| {
            t.line > directive_line
                && !(matches!(t.kind, TokKind::Comment { line: true })
                    && is_directive_comment(t.text))
        })
        .map(|t| t.line)
        .min()
}

/// Resolves a hot marker to the body token range of the next `fn`.
///
/// Returns `Err` with a description when no function body follows (the
/// marker would otherwise silently guard nothing).
fn hot_body_range(code: &[&Tok<'_>], after: Span) -> Result<(usize, usize), &'static str> {
    let fn_idx = code
        .iter()
        .position(|t| t.is_ident("fn") && (t.line, t.col) > (after.start_line, after.start_col))
        .ok_or("no `fn` follows the marker")?;
    // The body is the first brace group after the `fn` keyword; a `;`
    // first means a bodyless declaration.
    let mut open_idx = None;
    for (k, t) in code.iter().enumerate().skip(fn_idx) {
        if t.text == "{" {
            open_idx = Some(k);
            break;
        }
        if t.text == ";" {
            return Err("the marked function has no body");
        }
    }
    let open_idx = open_idx.ok_or("the marked function has no body")?;
    Ok((open_idx + 1, parser::match_bracket(code, open_idx)))
}

/// Resolves one file's hot markers to body ranges, reporting dangling
/// markers, unknown codes, and malformed directives as
/// `lint-unknown-suppression` findings.
fn prep_file(code: &[&Tok<'_>], directives: &[Directive]) -> (Vec<(usize, usize)>, Vec<Finding>) {
    let mut hot_bodies = Vec::new();
    let mut meta = Vec::new();
    for d in directives {
        match &d.kind {
            DirectiveKind::Hot => match hot_body_range(code, d.span) {
                Ok(range) => hot_bodies.push(range),
                Err(why) => meta.push(Finding {
                    code: DiagCode::LintUnknownSuppression,
                    span: d.span,
                    entity: "hot".into(),
                    message: format!("dangling hot marker: {why}"),
                }),
            },
            DirectiveKind::Allow(codes) => {
                for unknown in codes.iter().filter_map(|c| c.as_ref().err()) {
                    meta.push(Finding {
                        code: DiagCode::LintUnknownSuppression,
                        span: d.span,
                        entity: unknown.clone(),
                        message: format!(
                            "allow() names `{unknown}`, which is not a suppressible \
                             lint code (see `eua-lint codes`)"
                        ),
                    });
                }
            }
            DirectiveKind::Malformed => meta.push(Finding {
                code: DiagCode::LintUnknownSuppression,
                span: d.span,
                entity: "eua-lint:".into(),
                message: "malformed directive: expected `eua-lint: hot` or \
                          `eua-lint: allow(code, ...)`"
                    .into(),
            }),
        }
    }
    (hot_bodies, meta)
}

/// Applies allow-directive suppression to one file's findings, appends
/// unused-suppression accounting and the directive-layer meta findings,
/// and builds the file's final sorted [`Report`].
fn assemble_file(
    path: &str,
    toks: &[Tok<'_>],
    directives: &[Directive],
    findings: Vec<Finding>,
    meta: Vec<Finding>,
) -> Report {
    // Suppression: each allow directive covers one line; a finding on
    // that line with a named code is dropped and the (directive, code)
    // pair marked used.
    struct Cover {
        code: DiagCode,
        line: u32,
        span: Span,
        used: bool,
    }
    let mut covers: Vec<Cover> = Vec::new();
    for d in directives {
        if let DirectiveKind::Allow(codes) = &d.kind {
            let line = if d.standalone {
                covered_line(toks, d.span.start_line)
            } else {
                Some(d.span.start_line)
            };
            let Some(line) = line else { continue };
            for code in codes.iter().filter_map(|c| c.as_ref().ok()) {
                covers.push(Cover {
                    code: *code,
                    line,
                    span: d.span,
                    used: false,
                });
            }
        }
    }
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let suppressed = covers
            .iter_mut()
            .find(|c| c.code == f.code && c.line == f.span.start_line);
        match suppressed {
            Some(c) => c.used = true,
            None => kept.push(f),
        }
    }
    for c in covers.iter().filter(|c| !c.used) {
        kept.push(Finding {
            code: DiagCode::LintUnusedSuppression,
            span: c.span,
            entity: c.code.as_str().into(),
            message: format!(
                "allow({}) suppressed nothing on line {}; delete the stale directive",
                c.code.as_str(),
                c.line
            ),
        });
    }
    kept.extend(meta);

    kept.sort_by(|a, b| {
        (a.span.start_line, a.span.start_col, a.code.as_str()).cmp(&(
            b.span.start_line,
            b.span.start_col,
            b.code.as_str(),
        ))
    });

    let mut report = Report::new(path);
    report.uri = Some(path.to_string());
    for f in kept {
        report.push(
            Diagnostic::for_entity(
                f.code,
                f.entity,
                format!("{}:{}: {}", f.span.start_line, f.span.start_col, f.message),
            )
            .with_span(f.span),
        );
    }
    report
}

/// Lints one file's text: every rule, then suppression accounting. The
/// report is named after `path`, which is also its artifact, and each
/// finding carries its token extent.
#[must_use]
pub fn lint_source(path: &str, text: &str) -> Report {
    let toks = lex(text);
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
        .collect();
    let fns = parser::parse_file(&code);
    let directives = directives(&toks);
    let (hot_bodies, meta) = prep_file(&code, &directives);
    let depths = rules::loop_depths(&code, &fns);
    let mut findings = rules::run_hazards(&code, &hot_bodies, &depths);
    flow::unchecked_time_arith(&code, &fns, &mut findings);
    assemble_file(path, &toks, &directives, findings, meta)
}

/// Directory names the walker never descends into: vendored shims stand
/// in for external crates, build output is generated, fixture corpora
/// are deliberately hazardous, and hidden directories are not source.
const SKIPPED_DIRS: [&str; 3] = ["vendor", "target", "fixtures"];

/// Recursively collects `.rs` files under `root` in a deterministic
/// (sorted) order.
///
/// # Errors
///
/// Any I/O failure reading a directory, with the failing path embedded
/// in the error message via [`io::Error::other`].
fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let label = |e: io::Error, p: &Path| io::Error::other(format!("{}: {e}", p.display()));
    let meta = std::fs::metadata(root).map_err(|e| label(e, root))?;
    if meta.is_file() {
        if root.extension().is_some_and(|x| x == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .map_err(|e| label(e, root))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| label(e, root))?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The default scan roots, relative to a workspace checkout: the same
/// set the repository's CI gate greps covered.
pub const DEFAULT_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Lints every `.rs` file under the given roots, files or directories,
/// one [`Report`] per file in walk order (see [`lint_source`]).
///
/// # Errors
///
/// The first I/O failure (unreadable root, file, or directory).
pub fn lint_roots(roots: &[PathBuf]) -> io::Result<Vec<Report>> {
    let mut files = Vec::new();
    for root in roots {
        collect_sources(root, &mut files)?;
    }
    files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .map_err(|e| io::Error::other(format!("{}: {e}", file.display())))?;
            Ok(lint_source(&file.display().to_string(), &text))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn codes_of(lint: &Report) -> Vec<&'static str> {
        lint.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    const FLOAT_SORT: &str = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());";

    #[test]
    fn clean_source_yields_empty_report() {
        let lint = lint_source("x.rs", "fn main() { let a = 1 + 2; }");
        assert!(lint.diagnostics.is_empty());
        assert!(!lint.has_errors());
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = format!("{FLOAT_SORT} // eua-lint: allow(lint-float-sort-partial-cmp)\n");
        let lint = lint_source("x.rs", &src);
        assert!(codes_of(&lint).is_empty(), "{:?}", lint);
    }

    #[test]
    fn standalone_allow_suppresses_next_line() {
        let src = format!("// eua-lint: allow(lint-float-sort-partial-cmp)\n{FLOAT_SORT}\n");
        let lint = lint_source("x.rs", &src);
        assert!(codes_of(&lint).is_empty(), "{:?}", lint);
    }

    #[test]
    fn stacked_standalone_allows_cover_one_line() {
        let src = "// eua-lint: allow(lint-float-sort-partial-cmp)\n\
                   // eua-lint: allow(lint-unchecked-time-arith)\n\
                   fn f(a_us: u64, b_us: u64) -> u64 { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); a_us + b_us }\n";
        let lint = lint_source("x.rs", src);
        assert!(codes_of(&lint).is_empty(), "{:?}", lint);
    }

    #[test]
    fn unused_allow_is_reported_at_the_directive() {
        let src = "// eua-lint: allow(lint-loop-alloc)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-unused-suppression"]);
        assert_eq!(lint.diagnostics[0].span.unwrap().start_line, 1);
    }

    #[test]
    fn unknown_code_in_allow_is_reported() {
        let src = "// eua-lint: allow(lint-imaginary)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn meta_codes_cannot_be_suppressed() {
        let src = "// eua-lint: allow(lint-unused-suppression)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn malformed_directive_is_reported() {
        let src = "// eua-lint: alow(lint-loop-alloc)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn dangling_hot_marker_is_reported() {
        let src = "// eua-lint: hot\nconst X: u32 = 1;\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn hot_marker_binds_to_next_fn_past_docs_and_attrs() {
        let src = "// eua-lint: hot\n\
                   /// Docs between marker and fn.\n\
                   #[must_use]\n\
                   pub fn decide(xs: &[u64]) -> Vec<u64> {\n\
                   \x20   xs.to_vec()\n\
                   }\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(codes_of(&lint), ["lint-loop-alloc"]);
        assert_eq!(lint.diagnostics[0].span.unwrap().start_line, 5);
    }

    #[test]
    fn hot_fn_alloc_can_be_allowed_inline() {
        let src = "// eua-lint: hot\n\
                   fn decide(xs: &[u64]) -> Vec<u64> {\n\
                   \x20   xs.to_vec() // eua-lint: allow(lint-loop-alloc)\n\
                   }\n";
        let lint = lint_source("x.rs", src);
        assert!(codes_of(&lint).is_empty(), "{:?}", lint);
    }

    #[test]
    fn findings_sort_by_position() {
        let src = "fn f(a_us: u64, b_us: u64, v: &mut [f64]) -> u64 {\n\
                   \x20   let t = a_us + b_us;\n\
                   \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   \x20   t\n\
                   }\n";
        let lint = lint_source("x.rs", src);
        assert_eq!(
            codes_of(&lint),
            ["lint-unchecked-time-arith", "lint-float-sort-partial-cmp"]
        );
        let lines: Vec<u32> = lint
            .diagnostics
            .iter()
            .map(|d| d.span.unwrap().start_line)
            .collect();
        assert_eq!(lines, [2, 3]);
    }

    #[test]
    fn messages_carry_line_and_column() {
        let lint = lint_source(
            "x.rs",
            "fn f(a_us: u64, b_us: u64) -> u64 {\n    a_us + b_us\n}\n",
        );
        assert!(lint.diagnostics[0].message.starts_with("2:5: "));
        assert_eq!(lint.diagnostics[0].entity.as_deref(), Some("a_us + b_us"));
    }
}
