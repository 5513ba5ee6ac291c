//! Regenerates **Figure 3** of the paper: EUA\*'s normalized energy
//! consumption versus load for UAM descriptors `⟨1, P⟩`, `⟨2, P⟩`,
//! `⟨3, P⟩` — linear TUFs with slope `−U^max/P`, `{ν = 0.3, ρ = 0.9}`,
//! energy setting E1.
//!
//! Energy is normalized to EUA\* **without DVS** (always `f_m`), as in
//! the paper. The expected shape: during under-loads energy rises with
//! `a` (burstier arrivals spoil slack prediction); during overloads all
//! curves converge (everything runs at `f_m`).
//!
//! Usage: `cargo run -p eua-bench --bin fig3 [--quick] [--csv-dir DIR]
//! [--jobs N]`

use std::path::PathBuf;

use eua_bench::{
    render_chart, render_svg, run_cells, write_csv, ExperimentConfig, Flags, Series, Table,
};
use eua_platform::EnergySetting;
use eua_sim::Platform;
use eua_workload::fig3_workload;

const WORKLOAD_SEED: u64 = 42;

fn loads() -> Vec<f64> {
    (1..=9).map(|i| 0.2 * i as f64).collect()
}

fn main() {
    let flags = Flags::parse(&["--quick"], &["--csv-dir", "--jobs"]);
    let csv_dir = flags.value("--csv-dir").map(PathBuf::from);
    let config = if flags.has("--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::standard()
    }
    .with_jobs(flags.jobs());
    let platform = Platform::powernow(EnergySetting::e1());

    let mut table = Table::new(vec![
        "load".into(),
        "E, <1,P>".into(),
        "E, <2,P>".into(),
        "E, <3,P>".into(),
    ]);
    let mut series: Vec<Series> = (1..=3u32)
        .map(|a| Series::new(format!("<{a},P>"), Vec::new()))
        .collect();
    for load in loads() {
        let mut row = vec![format!("{load:.1}")];
        for a in 1..=3u32 {
            let workload = fig3_workload(load, a, WORKLOAD_SEED, platform.f_max())
                .expect("workload synthesis");
            let cells = run_cells(&["eua", "eua-nodvs"], &workload, &platform, &config);
            let (dvs, nodvs) = (&cells[0], &cells[1]);
            let v = dvs.energy / nodvs.energy.max(1e-12);
            row.push(format!("{v:.3}"));
            series[(a - 1) as usize].points.push((load, v));
        }
        table.push(row);
    }

    println!(
        "Figure 3 — EUA* energy consumption under different UAM settings \
         (normalized to EUA* without DVS), E1, linear TUFs:"
    );
    print!("{}", table.render());
    println!();
    print!("{}", render_chart(&series, 54, 12));
    if let Some(dir) = &csv_dir {
        let path = dir.join("fig3.csv");
        write_csv(&table, &path).expect("csv write");
        println!("wrote {}", path.display());
        let svg = render_svg(
            &series,
            "Figure 3 - EUA* energy under different UAM settings (E1)",
            "system load",
            "energy normalized to EUA* without DVS",
        );
        let path = dir.join("fig3.svg");
        std::fs::write(&path, svg).expect("svg write");
        println!("wrote {}", path.display());
    }
}
