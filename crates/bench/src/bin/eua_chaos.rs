//! Chaos campaigns: randomized fault compositions × workload-universe
//! cells × policies, behind a resumable journal, with automatic
//! shrinking of failing cells to minimal `.scn` repros (DESIGN.md §15).
//!
//! Usage: `cargo run -p eua-bench --bin eua-chaos -- [--quick]
//! [--seed N] [--cells N] [--horizon-ms N] [--jobs N]
//! [--policies a,b,c] [--no-audit] [--journal PATH] [--out PATH]
//! [--resume] [--halt-after N] [--shrink-dir DIR] [--shrink-limit N]`
//!
//! The journal (`results/chaos-journal.jsonl` by default) holds one
//! compact-JSON record per finished cell after a header line; because
//! every cell is a pure function of `(master seed, index)`, a killed
//! campaign resumed with `--resume` finishes with a journal — and a
//! derived report — byte-identical to an uninterrupted run at any
//! `--jobs` count. `--halt-after N` stops after journaling N new cells
//! (the deterministic stand-in for a kill, used by CI's two-phase
//! smoke). `--shrink-dir DIR` shrinks up to `--shrink-limit` (default
//! 3) failing cells to 1-minimal repro `.scn` files ready for
//! `tests/regression_corpus/`.

use std::path::PathBuf;
use std::process::ExitCode;

use eua_bench::chaos::{self, ChaosConfig};
use eua_bench::{shrink, usage_error, Flags};
use eua_core::make_policy;
use eua_platform::TimeDelta;

fn main() -> ExitCode {
    let flags = Flags::parse(
        &["--quick", "--resume", "--no-audit"],
        &[
            "--seed",
            "--cells",
            "--horizon-ms",
            "--jobs",
            "--policies",
            "--journal",
            "--out",
            "--halt-after",
            "--shrink-dir",
            "--shrink-limit",
        ],
    );
    let resume = flags.has("--resume");
    let journal = PathBuf::from(
        flags
            .value("--journal")
            .unwrap_or("results/chaos-journal.jsonl"),
    );
    let out = PathBuf::from(flags.value("--out").unwrap_or("results/chaos.json"));
    let halt_after: Option<u32> = flags.parsed("--halt-after");
    let shrink_dir = flags.value("--shrink-dir").map(PathBuf::from);
    let shrink_limit: usize = flags.parsed("--shrink-limit").unwrap_or(3);

    let mut config = if flags.has("--quick") {
        ChaosConfig::quick()
    } else {
        ChaosConfig::standard()
    }
    .with_jobs(flags.jobs());
    if let Some(seed) = flags.parsed("--seed") {
        config.master_seed = seed;
    }
    if let Some(cells) = flags.parsed("--cells") {
        config.cells = cells;
    }
    if let Some(ms) = flags.parsed("--horizon-ms") {
        config.horizon = TimeDelta::from_millis(ms);
    }
    if let Some(list) = flags.value("--policies") {
        config.policies = list.split(',').map(String::from).collect();
        if let Some(bad) = config.policies.iter().find(|p| make_policy(p).is_none()) {
            usage_error(format!(
                "`--policies` cannot take `{bad}`: no policy has that name"
            ));
        }
    }
    if flags.has("--no-audit") {
        config.audit = false;
    }

    eprintln!(
        "chaos campaign: seed {}, {} cells, {} ms horizon, policies [{}], audit {}, {} worker(s){}",
        config.master_seed,
        config.cells,
        config.horizon.as_micros() / 1_000,
        config.policies.join(", "),
        config.audit,
        config.jobs,
        if resume { " (resuming)" } else { "" },
    );

    let outcome = match chaos::run_campaign(&config, &journal, resume, halt_after) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("chaos campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "journal {} holds {} / {} cell(s)",
        journal.display(),
        outcome.records.len(),
        config.cells,
    );
    if outcome.halted {
        eprintln!("halted early (--halt-after); resume with --resume");
        return ExitCode::SUCCESS;
    }

    let report = chaos::campaign_report(&config, &outcome.records);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, report.render()) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if let Some(summary) = report.get("summary") {
        eprintln!("summary: {}", summary.render_compact());
    }
    eprintln!("wrote {}", out.display());

    if let Some(dir) = &shrink_dir {
        let failing: Vec<u32> = outcome
            .records
            .iter()
            .filter(|r| chaos::record_is_failing(r))
            .filter_map(chaos::record_cell)
            .collect();
        if failing.is_empty() {
            eprintln!("no failing cells to shrink");
            return ExitCode::SUCCESS;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for &cell in failing.iter().take(shrink_limit) {
            let case = match shrink::case_from_chaos_cell(&config, cell) {
                Ok(case) => case,
                Err(e) => {
                    eprintln!("cell {cell}: cannot rebuild for shrinking: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let origin = format!("{} cell={cell}", case.spec.name);
            let (shrunk, kind) = match shrink::shrink(&case) {
                Ok(result) => result,
                Err(e) => {
                    // A campaign failure that is only marginal under the
                    // shrinker's uniform audited probe is reported, not
                    // fatal — the journal record still names it.
                    eprintln!("cell {cell}: {e}");
                    continue;
                }
            };
            let text = shrink::render_repro(&origin, &shrunk, kind);
            let path = dir.join(format!("chaos-s{}-cell{cell}.scn", config.master_seed));
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "  shrunk cell {cell} -> {} ({} task(s), expect={})",
                path.display(),
                shrunk.spec.tasks.len(),
                kind.as_str(),
            );
        }
        let skipped = failing.len().saturating_sub(shrink_limit);
        if skipped > 0 {
            eprintln!("  ({skipped} more failing cell(s) beyond --shrink-limit {shrink_limit})");
        }
    }
    ExitCode::SUCCESS
}
