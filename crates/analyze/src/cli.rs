//! The command-line front end `eua-analyze`, `eua-audit` and `eua-lint`
//! share.
//!
//! Each binary describes itself with a [`Tool`] and hands [`run`] its
//! input step, which turns the `check` operands into [`Report`]s. The
//! front end owns the rest: `check`/`codes`/`--help` dispatch; `--format
//! text|json|sarif` (each report's text stanza and then the step's
//! summary line, one compact JSON array, or one SARIF 2.1.0 document that
//! must pass [`validate_sarif`] before it is written); `codes`, which
//! lists the registry codes of the tool's family; and the exit order:
//! `2` when an input failed, else `1` on Error-severity findings, else
//! `0`.

use std::io::Write;
use std::process::ExitCode;

use crate::diagnostic::{render_json_reports, DiagCode, Report};
use crate::sarif::{render_sarif, validate_sarif};

/// One binary, as the front end sees it.
#[derive(Debug)]
pub struct Tool {
    /// The binary's name; also the SARIF driver name.
    pub name: &'static str,
    /// Usage text for `--help` (stdout) and usage errors (stderr).
    pub usage: &'static str,
    /// The prefix of the codes `codes` lists: `aud-`, `lint-`, or `""`
    /// for the whole registry.
    pub family: &'static str,
    /// The `check` flags besides `--format`, handed to the input step.
    pub flags: &'static [&'static str],
}

/// The `check` arguments left for the input step, in command-line
/// order.
#[derive(Debug, Default)]
pub struct Inputs<'a> {
    /// Every argument that is not a flag.
    pub operands: Vec<&'a str>,
    /// The [`Tool::flags`] given.
    pub flags: Vec<&'a str>,
}

/// What an input step hands back to the front end.
#[derive(Debug, Default)]
pub struct Checked {
    /// One report per checked input, in output order.
    pub reports: Vec<Report>,
    /// Whether some input could not be read or parsed (the step says
    /// which on stderr).
    pub failed: bool,
    /// A line the text format writes after the reports.
    pub summary: Option<String>,
}

/// Writes to stdout, exiting quietly if the reader went away (e.g. the
/// output is piped into `head`); `println!` would panic instead.
fn emit(text: &str) {
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// The exit status, strictly ordered: `2` when an input `failed` (even
/// if others were checked), else `1` when there are Error-severity
/// `errors`, else `0`.
fn status(failed: bool, errors: bool) -> ExitCode {
    if failed {
        ExitCode::from(2)
    } else if errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `tool` on the process's command line. `check` is the input
/// step: `Err(message)` is a usage error, such as nothing to check or
/// a root that cannot be read, and ends the run before any report is
/// written, with `message` on stderr and exit `2`.
pub fn run(tool: &Tool, check: impl FnOnce(&Inputs<'_>) -> Result<Checked, String>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(tool, &args[1..], check),
        Some("codes") => {
            for code in DiagCode::ALL {
                if code.as_str().starts_with(tool.family) {
                    emit(&format!(
                        "{:<36} {:<8} {}\n",
                        code.as_str(),
                        code.default_severity().as_str(),
                        code.summary()
                    ));
                }
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            emit(tool.usage);
            emit("\n");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", tool.usage);
            ExitCode::from(2)
        }
    }
}

/// Parses `check` flags, runs the input step and writes its reports.
fn run_check(
    tool: &Tool,
    args: &[String],
    check: impl FnOnce(&Inputs<'_>) -> Result<Checked, String>,
) -> ExitCode {
    let mut format = "text";
    let mut inputs = Inputs::default();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--format" => match it.next() {
                Some(f @ ("text" | "json" | "sarif")) => format = f,
                other => {
                    eprintln!("--format needs `text`, `json`, or `sarif`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            flag if tool.flags.contains(&flag) => inputs.flags.push(flag),
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{}", tool.usage);
                return ExitCode::from(2);
            }
            operand => inputs.operands.push(operand),
        }
    }
    let checked = match check(&inputs) {
        Ok(checked) => checked,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match format {
        "json" => emit(&(render_json_reports(&checked.reports) + "\n")),
        "sarif" => {
            let text = render_sarif(tool.name, &checked.reports);
            if let Err(e) = validate_sarif(&text) {
                eprintln!("error: sarif self-check failed: {e}");
                return ExitCode::from(2);
            }
            emit(&text);
        }
        _ => {
            for report in &checked.reports {
                emit(&report.render_text());
            }
            emit(checked.summary.as_deref().unwrap_or_default());
        }
    }
    let errors = checked.reports.iter().any(Report::has_errors);
    status(checked.failed, errors)
}
