//! The `eua-analyze` command-line front end.
//!
//! ```text
//! eua-analyze check <scenario.scn>... [--format text|json|sarif]
//! eua-analyze check --all-examples    [--format text|json|sarif]
//! eua-analyze check --fix [--apply] <scenario.scn>...
//! eua-analyze codes
//! ```
//!
//! Dispatch, output formats and the exit order are the shared
//! [`eua_analyze::cli`] front end's: `0` when no Error-severity diagnostic
//! was produced, `1` when at least one was, `2` on usage, I/O, or parse
//! errors. The three are strictly ordered: a parse failure in any input
//! yields `2` even if other inputs analyzed cleanly, and error
//! diagnostics yield `1` only when every input at least parsed.

use std::process::ExitCode;

use eua_analyze::cli::{self, Checked, Inputs, Tool};
use eua_analyze::{analyze, apply_fixes, shipped_scenarios, ScenarioSpec, SourceMap};

const TOOL: Tool = Tool {
    name: "eua-analyze",
    usage: "usage: eua-analyze check [--format text|json|sarif] \
            (--all-examples | <scenario.scn>...)\n\
            \x20      eua-analyze check --fix [--apply] <scenario.scn>...\n\
            \x20      eua-analyze codes\n\
            \n\
            check          analyze scenario files (or every shipped example workload)\n\
            \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
            \x20 --fix            apply machine-applicable fixes; prints the fixed\n\
            \x20                  scenario to stdout (dry run) and a summary to stderr\n\
            \x20 --apply          with --fix: rewrite the .scn files in place\n\
            codes          list every diagnostic code with its severity and meaning\n\
            \n\
            exit status (strictly ordered, worst wins):\n\
            \x20 2  usage error, unreadable file, or scenario parse failure\n\
            \x20 1  at least one Error-severity diagnostic\n\
            \x20 0  every input parsed and analyzed clean of errors",
    family: "",
    flags: &["--all-examples", "--fix", "--apply"],
};

fn main() -> ExitCode {
    cli::run(&TOOL, check)
}

/// Analyzes the shipped examples and every scenario file, continuing
/// past per-file failures so a bad file never hides findings in the
/// good ones.
fn check(inputs: &Inputs<'_>) -> Result<Checked, ExitCode> {
    let flag = |name| inputs.flags.contains(&name);
    let (all_examples, fix, apply) = (flag("--all-examples"), flag("--fix"), flag("--apply"));
    let files = &inputs.operands;
    if !all_examples && files.is_empty() {
        eprintln!("nothing to check\n{}", TOOL.usage);
        return Err(ExitCode::from(2));
    }
    if apply && !fix {
        eprintln!("--apply only applies with --fix");
        return Err(ExitCode::from(2));
    }
    if fix && all_examples {
        eprintln!("--fix needs explicit files (shipped examples are read-only)");
        return Err(ExitCode::from(2));
    }
    if fix {
        return Err(run_fix(files, apply));
    }

    let mut checked = Checked::default();
    if all_examples {
        match shipped_scenarios() {
            Ok(scenarios) => checked.reports.extend(scenarios.iter().map(analyze)),
            Err(e) => {
                eprintln!("error: {e}");
                checked.failed = true;
            }
        }
    }
    for file in files {
        match load(file) {
            Ok((spec, map)) => {
                let mut report = analyze(&spec);
                report.uri = Some((*file).to_string());
                map.anchor(&mut report);
                checked.reports.push(report);
            }
            Err(e) => {
                eprintln!("error: {e}");
                checked.failed = true;
            }
        }
    }
    Ok(checked)
}

/// Reads and parses one scenario file, keeping the token-extent map for
/// SARIF regions.
fn load(file: &str) -> Result<(ScenarioSpec, SourceMap), String> {
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
        let mut spec = match load(file) {
            Ok((spec, _)) => spec,
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
            cli::emit(&rendered);
        }
        if analyze(&spec).has_errors() {
            any_errors = true;
        }
    }
    cli::status(had_parse_failure, any_errors)
}
