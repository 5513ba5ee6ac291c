//! The `eua-analyze` command-line front end.
//!
//! ```text
//! eua-analyze check <scenario.scn>... [--format text|json|sarif]
//! eua-analyze check --all-examples    [--format text|json|sarif]
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
use eua_analyze::{analyze, shipped_scenarios, ScenarioSpec, SourceMap};

const TOOL: Tool = Tool {
    name: "eua-analyze",
    usage: "usage: eua-analyze check [--format text|json|sarif] \
            (--all-examples | <scenario.scn>...)\n\
            \x20      eua-analyze codes\n\
            \n\
            check          analyze scenario files (or every shipped example workload)\n\
            \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
            codes          list every diagnostic code with its severity and meaning\n\
            \n\
            exit status (strictly ordered, worst wins):\n\
            \x20 2  usage error, unreadable file, or scenario parse failure\n\
            \x20 1  at least one Error-severity diagnostic\n\
            \x20 0  every input parsed and analyzed clean of errors",
    family: "",
    flags: &["--all-examples"],
};

fn main() -> ExitCode {
    cli::run(&TOOL, check)
}

/// Analyzes the shipped examples and every scenario file, continuing
/// past per-file failures so a bad file never hides findings in the
/// good ones.
fn check(inputs: &Inputs<'_>) -> Result<Checked, String> {
    let all_examples = inputs.flags.contains(&"--all-examples");
    let files = &inputs.operands;
    if !all_examples && files.is_empty() {
        return Err(format!("nothing to check\n{}", TOOL.usage));
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
