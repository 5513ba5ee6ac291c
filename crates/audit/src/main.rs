//! The `eua-audit` command-line front end.
//!
//! ```text
//! eua-audit check <certificate.json>... [--format text|json|sarif] [--check]
//! eua-audit codes
//! ```
//!
//! Certificates are produced by the simulator with
//! `SimConfig::with_certificate()` (or `eua-bench robustness --certify`).
//! Exit status matches `eua-analyze`: `0` when every certificate parsed
//! and audited clean, `1` when at least one Error-severity finding was
//! produced, `2` on usage or I/O errors. The three are strictly ordered:
//! an unreadable file yields `2` even if other inputs audited cleanly.
//! (A certificate that *reads* but does not *parse* is an audit finding
//! — `aud-malformed-certificate` — not an I/O failure, so a forged or
//! truncated certificate rejects with `1` like any other violation.)

use std::io::Write;
use std::process::ExitCode;

use eua_analyze::{render_json_reports, render_sarif, validate_sarif, Report};
use eua_audit::{audit_text, AUDIT_CODES};

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
    /// One JSON array of per-certificate report objects.
    Json,
    /// One SARIF 2.1.0 document (single run).
    Sarif,
}

fn usage() -> &'static str {
    "usage: eua-audit check [--format text|json|sarif] [--check] <certificate.json>...\n\
     \x20      eua-audit codes\n\
     \n\
     check          re-validate decision certificates recorded by the simulator\n\
     \x20 --format sarif   emit a SARIF 2.1.0 document instead of text/json\n\
     \x20 --check          (sarif) verify the output byte-round-trips and\n\
     \x20                  validates against the pinned SARIF subset\n\
     codes          list every audit diagnostic code with severity and meaning\n\
     \n\
     exit status (strictly ordered, worst wins):\n\
     \x20 2  usage error or unreadable file\n\
     \x20 1  at least one Error-severity audit finding (including a\n\
     \x20    certificate that does not parse)\n\
     \x20 0  every certificate audited clean"
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

/// Parses `check` flags and audits each certificate.
fn run_check(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut self_check = false;
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
            "--check" => self_check = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
            file => files.push(file),
        }
    }
    if files.is_empty() {
        eprintln!("nothing to audit\n{}", usage());
        return ExitCode::from(2);
    }
    if self_check && format != Format::Sarif {
        eprintln!("--check only applies to --format sarif");
        return ExitCode::from(2);
    }

    // Read everything first, continuing past per-file I/O failures so a
    // missing file never hides findings in the readable ones; exit
    // precedence is 2 (any failure here) > 1 (error findings) > 0.
    let mut had_io_failure = false;
    let mut reports: Vec<Report> = Vec::new();
    let mut uris: Vec<Option<String>> = Vec::new();
    for file in files {
        match std::fs::read_to_string(file) {
            Ok(text) => {
                reports.push(audit_text(file, &text));
                uris.push(Some(file.to_string()));
            }
            Err(e) => {
                eprintln!("error: reading `{file}`: {e}");
                had_io_failure = true;
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
            let text = render_sarif("eua-audit", &reports, &uris, &[]);
            if self_check {
                if let Err(e) = validate_sarif(&text) {
                    eprintln!("error: sarif self-check failed: {e}");
                    return ExitCode::from(2);
                }
            }
            emit(&text);
        }
    }
    if had_io_failure {
        ExitCode::from(2)
    } else if reports.iter().any(Report::has_errors) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints every audit diagnostic code with its severity and summary.
fn run_codes() {
    for code in AUDIT_CODES {
        emit(&format!(
            "{:<36} {:<8} {}\n",
            code.as_str(),
            code.default_severity().as_str(),
            code.summary()
        ));
    }
}
