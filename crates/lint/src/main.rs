//! The `eua-lint` command-line front end.
//!
//! ```text
//! eua-lint check [--format text|json|sarif] [path...]
//! eua-lint codes
//! ```
//!
//! With no paths, `check` scans the default roots (`src`, `crates`,
//! `tests`, `examples` — whichever exist under the current directory).
//! Only files with findings are reported; the text format ends with a
//! summary line. Dispatch, output formats and the exit order are the
//! shared [`eua_analyze::cli`] front end's, strictly ordered: `2` on usage
//! or I/O errors, `1` when at least one Error-severity finding survives
//! suppression, `0` when every scanned file is clean.

use std::path::PathBuf;
use std::process::ExitCode;

use eua_analyze::cli::{self, Checked, Inputs, Tool};
use eua_analyze::Report;
use eua_lint::{lint_roots, DEFAULT_ROOTS};

const TOOL: Tool = Tool {
    name: "eua-lint",
    usage: "usage: eua-lint check [--format text|json|sarif] [path...]\n\
            \x20      eua-lint codes\n\
            \n\
            check          scan first-party Rust sources for determinism and\n\
            \x20             hot-path hazards (default paths: src crates tests examples)\n\
            \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
            codes          list every lint code with severity and meaning\n\
            \n\
            exit status (strictly ordered, worst wins):\n\
            \x20 2  usage error or unreadable path\n\
            \x20 1  at least one Error-severity finding survives suppression\n\
            \x20 0  every scanned file is clean",
    family: "lint-",
    flags: &[],
};

fn main() -> ExitCode {
    cli::run(&TOOL, check)
}

/// Scans the given roots (or the default ones that exist) and keeps the
/// reports of files with findings.
fn check(inputs: &Inputs<'_>) -> Result<Checked, String> {
    let mut roots: Vec<PathBuf> = inputs.operands.iter().map(PathBuf::from).collect();
    if roots.is_empty() {
        roots = DEFAULT_ROOTS
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect();
        if roots.is_empty() {
            return Err(format!(
                "no default roots ({}) exist here",
                DEFAULT_ROOTS.join(", ")
            ));
        }
    }
    let reports = lint_roots(&roots).map_err(|e| format!("error: {e}"))?;
    let scanned = reports.len();
    let dirty: Vec<Report> = reports
        .into_iter()
        .filter(|r| !r.diagnostics.is_empty())
        .collect();
    let findings: usize = dirty.iter().map(|r| r.diagnostics.len()).sum();
    Ok(Checked {
        reports: dirty,
        failed: false,
        summary: Some(format!(
            "eua-lint: {scanned} file(s) scanned, {findings} finding(s)\n"
        )),
    })
}
