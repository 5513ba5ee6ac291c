//! The `eua-lint` command-line front end.
//!
//! ```text
//! eua-lint check [--format text|json|sarif] [--check] [--fix [--apply]]
//!                [path...]
//! eua-lint codes
//! ```
//!
//! With no paths, `check` scans the default roots (`src`, `crates`,
//! `tests`, `examples` — whichever exist under the current directory),
//! which is exactly the file set the repository's CI gate used to grep.
//! Exit status matches `eua-analyze`/`eua-audit` and is strictly
//! ordered: `2` on usage or I/O errors, `1` when at least one
//! Error-severity finding survives suppression, `0` when every scanned
//! file is clean.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use eua_analyze::{render_json_reports, render_sarif, validate_sarif, Report, Span};
use eua_lint::{
    collect_sources, fix::fix_file, lint_roots, lint_sources, FileLint, DEFAULT_ROOTS, LINT_CODES,
};

/// Writes to stdout, exiting quietly if the reader went away (e.g. the
/// output is piped into `head`); `println!` would panic instead.
fn emit(text: &str) {
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// Output format for `check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable stanzas for files with findings.
    Text,
    /// One JSON array of per-file report objects (findings only).
    Json,
    /// One SARIF 2.1.0 document (single run, token-exact regions).
    Sarif,
}

fn usage() -> &'static str {
    "usage: eua-lint check [--format text|json|sarif] [--check] [--fix [--apply]]\n\
     \x20                     [path...]\n\
     \x20      eua-lint codes\n\
     \n\
     check          scan first-party Rust sources for determinism and\n\
     \x20             hot-path hazards (default paths: src crates tests examples)\n\
     \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
     \x20 --check          (sarif) verify the output byte-round-trips and\n\
     \x20                  validates against the pinned SARIF subset\n\
     \x20 --fix            apply machine-applicable fixes; prints each fixed\n\
     \x20                  file to stdout (dry run) and a summary to stderr\n\
     \x20 --apply          with --fix: rewrite the .rs files in place\n\
     codes          list every lint code with severity and meaning\n\
     \n\
     exit status (strictly ordered, worst wins):\n\
     \x20 2  usage error or unreadable path\n\
     \x20 1  at least one Error-severity finding survives suppression\n\
     \x20 0  every scanned file is clean"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("codes") => {
            run_codes();
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            emit(usage());
            emit("\n");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Parses `check` flags and scans the requested roots.
fn run_check(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut self_check = false;
    let mut fix_mode = false;
    let mut apply = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fix" => fix_mode = true,
            "--apply" => apply = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("--format needs `text`, `json`, or `sarif`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--check" => self_check = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }
    if self_check && format != Format::Sarif {
        eprintln!("--check only applies to --format sarif");
        return ExitCode::from(2);
    }
    if apply && !fix_mode {
        eprintln!("--apply only applies with --fix");
        return ExitCode::from(2);
    }
    if fix_mode && format != Format::Text {
        eprintln!("--fix only applies to --format text");
        return ExitCode::from(2);
    }
    if roots.is_empty() {
        // Default roots are best-effort: only the ones that exist.
        roots = DEFAULT_ROOTS
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect();
        if roots.is_empty() {
            eprintln!("no default roots ({}) exist here", DEFAULT_ROOTS.join(", "));
            return ExitCode::from(2);
        }
    }

    if fix_mode {
        return run_fix(&roots, apply);
    }

    let lints = match lint_roots(&roots) {
        Ok(lints) => lints,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let scanned = lints.len();
    let dirty: Vec<&FileLint> = lints
        .iter()
        .filter(|l| !l.report.diagnostics.is_empty())
        .collect();
    let findings: usize = dirty.iter().map(|l| l.report.diagnostics.len()).sum();

    match format {
        Format::Text => {
            for l in &dirty {
                emit(&l.report.render_text());
            }
            emit(&format!(
                "eua-lint: {scanned} file(s) scanned, {findings} finding(s)\n"
            ));
        }
        Format::Json => {
            let reports: Vec<Report> = dirty.iter().map(|l| l.report.clone()).collect();
            emit(&render_json_reports(&reports));
            emit("\n");
        }
        Format::Sarif => {
            let reports: Vec<Report> = dirty.iter().map(|l| l.report.clone()).collect();
            let uris: Vec<Option<String>> = dirty.iter().map(|l| Some(l.path.clone())).collect();
            let regions: Vec<Vec<Option<Span>>> = dirty.iter().map(|l| l.spans.clone()).collect();
            let text = render_sarif("eua-lint", &reports, &uris, &regions);
            if self_check {
                if let Err(e) = validate_sarif(&text) {
                    eprintln!("error: sarif self-check failed: {e}");
                    return ExitCode::from(2);
                }
            }
            emit(&text);
        }
    }
    if dirty.iter().any(|l| l.report.has_errors()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `check --fix`: scans the roots as one workspace (so cross-file
/// call-graph findings match a plain `check`), applies the machine
/// rewrites, and
/// mirrors `eua-analyze check --fix`'s contract: dry-run prints each
/// fixed file to stdout, `--apply` rewrites in place, the fix summary
/// goes to stderr either way, and the exit status reflects re-linting
/// the fixed sources (the rewrite is idempotent, so a second run
/// applies nothing).
fn run_fix(roots: &[PathBuf], apply: bool) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    for root in roots {
        if let Err(e) = collect_sources(root, &mut paths) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    let mut sources: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((path.display().to_string(), text)),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let lints = lint_sources(&sources);
    let mut total = 0usize;
    for (i, lint) in lints.iter().enumerate() {
        let (fixed, applied) = fix_file(lint, &sources[i].1);
        if applied.is_empty() {
            continue;
        }
        total += applied.len();
        for f in &applied {
            eprintln!(
                "{}: fixed [{}] line {}: {}",
                lint.path,
                f.code.as_str(),
                f.line,
                f.action
            );
        }
        if apply {
            if let Err(e) = std::fs::write(&lint.path, &fixed) {
                eprintln!("error: writing `{}`: {e}", lint.path);
                return ExitCode::from(2);
            }
        } else {
            emit(&fixed);
        }
        sources[i].1 = fixed;
    }
    if total == 0 {
        eprintln!("eua-lint: nothing to fix");
    } else {
        eprintln!("eua-lint: {total} fix(es) applied");
    }

    let relint = lint_sources(&sources);
    if relint.iter().any(|l| l.report.has_errors()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints every lint code with its severity and summary.
fn run_codes() {
    for code in LINT_CODES {
        emit(&format!(
            "{:<36} {:<8} {}\n",
            code.as_str(),
            code.default_severity().as_str(),
            code.summary()
        ));
    }
}
