//! The `eua-audit` command-line front end.
//!
//! ```text
//! eua-audit check <certificate.json>... [--format text|json|sarif]
//! eua-audit codes
//! ```
//!
//! Certificates are produced by the simulator with
//! `SimConfig::with_certificate()` (or `eua-bench robustness --certify`).
//! Dispatch, output formats and the exit order are the shared
//! [`eua_analyze::cli`] front end's: `0` when every certificate parsed and
//! audited clean, `1` when at least one Error-severity finding was
//! produced, `2` on usage or I/O errors. The three are strictly ordered:
//! an unreadable file yields `2` even if other inputs audited cleanly.
//! (A certificate that *reads* but does not *parse* is an audit finding
//! — `aud-malformed-certificate` — not an I/O failure, so a forged or
//! truncated certificate rejects with `1` like any other violation.)

use std::process::ExitCode;

use eua_analyze::cli::{self, Checked, Inputs, Tool};
use eua_audit::audit_text;

const TOOL: Tool = Tool {
    name: "eua-audit",
    usage: "usage: eua-audit check [--format text|json|sarif] <certificate.json>...\n\
            \x20      eua-audit codes\n\
            \n\
            check          re-validate decision certificates recorded by the simulator\n\
            \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
            codes          list every audit diagnostic code with severity and meaning\n\
            \n\
            exit status (strictly ordered, worst wins):\n\
            \x20 2  usage error or unreadable file\n\
            \x20 1  at least one Error-severity audit finding (including a\n\
            \x20    certificate that does not parse)\n\
            \x20 0  every certificate audited clean",
    family: "aud-",
    flags: &[],
};

fn main() -> ExitCode {
    cli::run(&TOOL, check)
}

/// Audits every certificate, continuing past per-file I/O failures so a
/// missing file never hides findings in the readable ones.
fn check(inputs: &Inputs<'_>) -> Result<Checked, String> {
    if inputs.operands.is_empty() {
        return Err(format!("nothing to audit\n{}", TOOL.usage));
    }
    let mut checked = Checked::default();
    for file in &inputs.operands {
        match std::fs::read_to_string(file) {
            Ok(text) => {
                let mut report = audit_text(file, &text);
                report.uri = Some((*file).to_string());
                checked.reports.push(report);
            }
            Err(e) => {
                eprintln!("error: reading `{file}`: {e}");
                checked.failed = true;
            }
        }
    }
    Ok(checked)
}
