//! The `eua-analyze` command-line front end.
//!
//! ```text
//! eua-analyze check <scenario.scn>... [--format text|json|sarif] [--check]
//! eua-analyze check --all-examples    [--format text|json|sarif]
//! eua-analyze check --fix [--apply] <scenario.scn>...
//! eua-analyze codes
//! ```
//!
//! Exit status: `0` when no Error-severity diagnostic was produced, `1`
//! when at least one was, `2` on usage, I/O, or parse errors. The three
//! are strictly ordered: a parse failure in any input yields `2` even if
//! other inputs analyzed cleanly, and error diagnostics yield `1` only
//! when every input at least parsed.

use std::io::Write;
use std::process::ExitCode;

use eua_analyze::{
    analyze, apply_fixes, render_json_reports, render_sarif, shipped_scenarios, validate_sarif,
    DiagCode, Report, ScenarioSpec, SourceMap, Span,
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
    /// Human-readable stanzas.
    Text,
    /// One JSON array of per-scenario report objects.
    Json,
    /// One SARIF 2.1.0 document (single run).
    Sarif,
}

fn usage() -> &'static str {
    "usage: eua-analyze check [--format text|json|sarif] [--check] \
     (--all-examples | <scenario.scn>...)\n\
     \x20      eua-analyze check --fix [--apply] <scenario.scn>...\n\
     \x20      eua-analyze codes\n\
     \n\
     check          analyze scenario files (or every shipped example workload)\n\
     \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
     \x20 --check          (sarif) verify the output byte-round-trips and\n\
     \x20                  validates against the pinned SARIF subset\n\
     \x20 --fix            apply machine-applicable fixes; prints the fixed\n\
     \x20                  scenario to stdout (dry run) and a summary to stderr\n\
     \x20 --apply          with --fix: rewrite the .scn files in place\n\
     codes          list every diagnostic code with its severity and meaning\n\
     \n\
     exit status (strictly ordered, worst wins):\n\
     \x20 2  usage error, unreadable file, or scenario parse failure\n\
     \x20 1  at least one Error-severity diagnostic\n\
     \x20 0  every input parsed and analyzed clean of errors"
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

/// Parses `check` flags and runs the analysis.
fn run_check(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut all_examples = false;
    let mut self_check = false;
    let mut fix = false;
    let mut apply = false;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("--format needs `text`, `json`, or `sarif`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--all-examples" => all_examples = true,
            "--check" => self_check = true,
            "--fix" => fix = true,
            "--apply" => apply = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
            file => files.push(file),
        }
    }
    if !all_examples && files.is_empty() {
        eprintln!("nothing to check\n{}", usage());
        return ExitCode::from(2);
    }
    if self_check && format != Format::Sarif {
        eprintln!("--check only applies to --format sarif");
        return ExitCode::from(2);
    }
    if apply && !fix {
        eprintln!("--apply only applies with --fix");
        return ExitCode::from(2);
    }
    if fix && all_examples {
        eprintln!("--fix needs explicit files (shipped examples are read-only)");
        return ExitCode::from(2);
    }
    if fix {
        return run_fix(&files, apply);
    }

    // Parse everything first, continuing past per-file failures so a bad
    // file never hides findings in the good ones; exit precedence is
    // 2 (any failure here) > 1 (error diagnostics) > 0.
    let mut had_parse_failure = false;
    let mut reports: Vec<Report> = Vec::new();
    let mut uris: Vec<Option<String>> = Vec::new();
    let mut regions: Vec<Vec<Option<Span>>> = Vec::new();
    if all_examples {
        match shipped_scenarios() {
            Ok(scenarios) => {
                reports.extend(scenarios.iter().map(analyze));
                uris.extend(scenarios.iter().map(|_| None));
                regions.extend(scenarios.iter().map(|_| Vec::new()));
            }
            Err(e) => {
                eprintln!("error: {e}");
                had_parse_failure = true;
            }
        }
    }
    for file in files {
        match load_spec_with_spans(file) {
            Ok((spec, map)) => {
                let report = analyze(&spec);
                // Each diagnostic's region is the token its entity names.
                regions.push(
                    report
                        .diagnostics
                        .iter()
                        .map(|d| map.resolve(d.entity.as_deref()))
                        .collect(),
                );
                reports.push(report);
                uris.push(Some(file.to_string()));
            }
            Err(e) => {
                eprintln!("error: {e}");
                had_parse_failure = true;
            }
        }
    }

    match format {
        Format::Text => {
            for r in &reports {
                emit(&r.render_text());
            }
        }
        Format::Json => {
            emit(&render_json_reports(&reports));
            emit("\n");
        }
        Format::Sarif => {
            let text = render_sarif("eua-analyze", &reports, &uris, &regions);
            if self_check {
                if let Err(e) = validate_sarif(&text) {
                    eprintln!("error: sarif self-check failed: {e}");
                    return ExitCode::from(2);
                }
            }
            emit(&text);
        }
    }
    if had_parse_failure {
        ExitCode::from(2)
    } else if reports.iter().any(Report::has_errors) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads and parses one scenario file.
fn load_spec(file: &str) -> Result<ScenarioSpec, String> {
    load_spec_with_spans(file).map(|(spec, _)| spec)
}

/// Reads and parses one scenario file, keeping the token-extent map for
/// SARIF regions.
fn load_spec_with_spans(file: &str) -> Result<(ScenarioSpec, SourceMap), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading `{file}`: {e}"))?;
    ScenarioSpec::parse_with_spans(&text).map_err(|e| format!("`{file}`: {e}"))
}

/// `check --fix`: applies machine-applicable rewrites. Dry-run prints
/// each fixed scenario to stdout; `--apply` rewrites the files in place.
/// The summary of applied fixes goes to stderr either way, and the exit
/// status reflects re-analysis of the fixed specs.
fn run_fix(files: &[&str], apply: bool) -> ExitCode {
    let mut had_parse_failure = false;
    let mut any_errors = false;
    for file in files {
        let mut spec = match load_spec(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                had_parse_failure = true;
                continue;
            }
        };
        let applied = apply_fixes(&mut spec);
        if applied.is_empty() {
            eprintln!("{file}: nothing to fix");
        }
        for f in &applied {
            eprintln!(
                "{file}: fixed [{}] {}: {}",
                f.code.as_str(),
                f.entity,
                f.action
            );
        }
        let rendered = spec.render();
        if apply {
            if let Err(e) = std::fs::write(file, &rendered) {
                eprintln!("error: writing `{file}`: {e}");
                had_parse_failure = true;
                continue;
            }
        } else {
            emit(&rendered);
        }
        if analyze(&spec).has_errors() {
            any_errors = true;
        }
    }
    if had_parse_failure {
        ExitCode::from(2)
    } else if any_errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints every diagnostic code with its default severity and summary.
fn run_codes() {
    for code in DiagCode::ALL {
        emit(&format!(
            "{:<36} {:<8} {}\n",
            code.as_str(),
            code.default_severity().as_str(),
            code.summary()
        ));
    }
}
