//! Regenerates **Figure 2** of the paper: normalized accrued utility and
//! normalized energy versus system load, under energy settings E1 and E3
//! (add `--energy e2` for the "results under E2 are similar" check),
//! step TUFs, `{ν = 1, ρ = 0.96}`, periodic Table 1 task sets.
//!
//! All values are normalized to the `edf` baseline (EDF that always uses
//! the highest frequency), exactly as in the paper.
//!
//! Usage: `cargo run -p eua-bench --bin fig2 [--quick] [--energy e1|e2|e3]...
//! [--show-settings] [--csv-dir DIR] [--jobs N]`

use std::path::PathBuf;

use eua_bench::{
    render_chart, render_svg, run_cells, usage_error, write_csv, ExperimentConfig, Flags, Series,
    Table,
};
use eua_platform::EnergySetting;
use eua_sim::Platform;
use eua_workload::{fig2_workload, table1};

const POLICIES: &[&str] = &["eua", "laedf", "ccedf", "edf-na", "edf"];
const BASELINE: &str = "edf";
const WORKLOAD_SEED: u64 = 42;

fn loads() -> Vec<f64> {
    (1..=9).map(|i| 0.2 * i as f64).collect() // 0.2 .. 1.8
}

fn main() {
    let flags = Flags::parse(
        &["--quick", "--show-settings"],
        &["--energy", "--csv-dir", "--jobs"],
    );
    let show_settings = flags.has("--show-settings");
    let csv_dir = flags.value("--csv-dir").map(PathBuf::from);
    let mut settings: Vec<EnergySetting> = flags
        .values("--energy")
        .map(|v| match v {
            "e1" => EnergySetting::e1(),
            "e2" => EnergySetting::e2(),
            "e3" => EnergySetting::e3(),
            _ => usage_error(format!(
                "`--energy` cannot take `{v}`: expected e1, e2 or e3"
            )),
        })
        .collect();
    if settings.is_empty() {
        settings = vec![EnergySetting::e1(), EnergySetting::e3()];
    }
    let config = if flags.has("--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::standard()
    }
    .with_jobs(flags.jobs());

    if show_settings {
        println!("Table 1 — task settings (reconstruction, see DESIGN.md):");
        for app in table1() {
            println!("  {app}");
        }
        println!("\nTable 2 — energy settings:");
        for s in EnergySetting::all() {
            println!("  {s}");
        }
        println!();
    }

    for setting in settings {
        let platform = Platform::powernow(setting);
        let mut header = vec!["load".to_string()];
        for p in POLICIES {
            header.push(format!("util({p})"));
        }
        for p in POLICIES {
            header.push(format!("energy({p})"));
        }
        let mut table = Table::new(header);
        let mut util_series: Vec<Series> = POLICIES
            .iter()
            .map(|p| Series::new(*p, Vec::new()))
            .collect();
        let mut energy_series: Vec<Series> = POLICIES
            .iter()
            .map(|p| Series::new(*p, Vec::new()))
            .collect();

        for load in loads() {
            let workload =
                fig2_workload(load, WORKLOAD_SEED, platform.f_max()).expect("workload synthesis");
            let cells = run_cells(POLICIES, &workload, &platform, &config);
            let base = cells
                .iter()
                .find(|c| c.policy == BASELINE)
                .expect("baseline is in POLICIES");
            let mut row = vec![format!("{load:.1}")];
            for (i, c) in cells.iter().enumerate() {
                let v = c.utility / base.utility.max(1e-12);
                row.push(format!("{v:.3}"));
                util_series[i].points.push((load, v));
            }
            for (i, c) in cells.iter().enumerate() {
                let v = c.energy / base.energy.max(1e-12);
                row.push(format!("{v:.3}"));
                energy_series[i].points.push((load, v));
            }
            table.push(row);
        }

        println!(
            "Figure 2 — normalized utility and energy vs load under {} \
             (normalized to {BASELINE}):",
            setting.name()
        );
        print!("{}", table.render());
        println!();
        println!("normalized utility vs load:");
        print!("{}", render_chart(&util_series, 54, 12));
        println!("normalized energy vs load:");
        print!("{}", render_chart(&energy_series, 54, 12));
        println!();
        if let Some(dir) = &csv_dir {
            let tag = setting.name().to_lowercase();
            let path = dir.join(format!("fig2_{tag}.csv"));
            write_csv(&table, &path).expect("csv write");
            println!("wrote {}", path.display());
            for (kind, series) in [("utility", &util_series), ("energy", &energy_series)] {
                let svg = render_svg(
                    series,
                    &format!("Figure 2 - normalized {kind} vs load ({})", setting.name()),
                    "system load",
                    &format!("normalized {kind}"),
                );
                let path = dir.join(format!("fig2_{tag}_{kind}.svg"));
                std::fs::write(&path, svg).expect("svg write");
                println!("wrote {}", path.display());
            }
        }
    }
}
