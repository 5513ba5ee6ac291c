//! Sweeps fault intensity × policy (EUA\*, DASA, EDF, LLF) through the
//! deterministic fault-injection layer and emits UER-vs-fault-intensity
//! degradation curves for the four fault families of DESIGN.md §10:
//! UAM burst violations, demand mis-estimation, degraded DVS, and
//! abort-cost/jitter timing faults.
//!
//! Usage: `cargo run -p eua-bench --bin robustness [--quick] [--jobs N]
//! [--load X] [--out PATH] [--certify DIR]`
//!
//! The report goes to `results/robustness.json` (first-party JSON; the
//! document is byte-identical for any `--jobs` count). Before writing
//! it, the binary re-parses the rendered text and exits 1 unless
//! rendering the parse reproduces it exactly. `--certify DIR`
//! additionally records an `eua-certificate/2` document per `(family,
//! intensity, policy, seed)` cell into `DIR` so the sweep can be
//! validated offline:
//!
//! ```text
//! eua-audit check DIR/*.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use eua_bench::{run_robustness, Flags, RobustnessConfig};

fn main() -> ExitCode {
    let flags = Flags::parse(&["--quick"], &["--jobs", "--load", "--out", "--certify"]);
    let out = PathBuf::from(flags.value("--out").unwrap_or("results/robustness.json"));
    let certify_dir = flags.value("--certify").map(PathBuf::from);

    let mut config = if flags.has("--quick") {
        RobustnessConfig::quick()
    } else {
        RobustnessConfig::standard()
    }
    .with_jobs(flags.jobs());
    if let Some(load) = flags.parsed("--load") {
        config.load = load;
    }
    config.certify = certify_dir.is_some();

    eprintln!(
        "robustness sweep: load {}, {} intensities x {} policies x {} seeds, {} worker(s)",
        config.load,
        config.intensities.len(),
        config.policies.len(),
        config.seeds.len(),
        config.jobs,
    );
    let report = match run_robustness(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("robustness sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for point in &report.points {
        if point.intensity == 0.0 || point.intensity == 1.0 {
            eprintln!(
                "  {:12} intensity {:4} {:6} uer {:>10.3e} (met {} / degraded {} / collapsed {})",
                point.family.key(),
                point.intensity,
                point.policy,
                point.uer,
                point.met,
                point.degraded,
                point.collapsed,
            );
        }
    }

    let text = report.to_json().render();
    if !eua_sim::json::parse(&text).is_ok_and(|doc| doc.render() == text) {
        eprintln!("round-trip check failed: the report does not re-render to its own bytes");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());

    if let Some(dir) = &certify_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (name, cert) in &report.certificates {
            if let Err(e) = std::fs::write(dir.join(name), cert) {
                eprintln!("cannot write {}: {e}", dir.join(name).display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "wrote {} certificate(s) to {} (validate with: eua-audit check {}/*.json)",
            report.certificates.len(),
            dir.display(),
            dir.display(),
        );
    }
    ExitCode::SUCCESS
}
