//! Finite-energy-budget scheduling — the paper's first named future-work
//! item, explored: sweep the energy budget from 10% to 120% of what
//! unconstrained EUA\* would spend, and record the utility the budgeted
//! policy still accrues.
//!
//! Expected shape: utility rises steeply at small budgets (the policy
//! spends on the cheapest, highest-UER work first) and saturates at the
//! unconstrained level once the budget covers the full run.
//!
//! Usage: `cargo run -p eua-bench --bin budget [--quick] [--csv-dir DIR]
//! [--jobs N]`

use std::path::PathBuf;

use eua_bench::{write_csv, ExperimentConfig, Flags, Table};
use eua_core::{BudgetedEua, Eua};
use eua_platform::EnergySetting;
use eua_sim::{replicate, Platform, SimConfig, Summary};
use eua_workload::fig2_workload;

const WORKLOAD_SEED: u64 = 42;

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
    let sim_config = SimConfig::new(config.horizon);
    let totals = |summary: &Summary| {
        summary.runs.iter().fold((0.0, 0.0, 0.0), |acc, r| {
            (
                acc.0 + r.metrics.total_utility,
                acc.1 + r.metrics.energy,
                acc.2 + r.metrics.jobs_completed() as f64,
            )
        })
    };

    let mut table = Table::new(vec![
        "budget-frac".into(),
        "utility-frac".into(),
        "energy-frac".into(),
        "completed-frac".into(),
    ]);
    for load in [0.5, 0.8] {
        let workload = fig2_workload(load, WORKLOAD_SEED, platform.f_max()).expect("workload");
        // Baseline: unconstrained EUA* on the same seeds.
        let base = replicate(
            &workload.tasks,
            &workload.patterns,
            &platform,
            Eua::new,
            &sim_config,
            &config.seeds,
            config.jobs,
        )
        .expect("run");
        let (base_utility, base_energy, base_completed) = totals(&base);

        table.push(vec![
            format!("load={load}"),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for frac in [0.1, 0.25, 0.5, 0.75, 1.0, 1.2] {
            let budget = frac * base_energy / config.seeds.len() as f64;
            let bounded = replicate(
                &workload.tasks,
                &workload.patterns,
                &platform,
                || BudgetedEua::new(budget),
                &sim_config,
                &config.seeds,
                config.jobs,
            )
            .expect("run");
            let (utility, energy, completed) = totals(&bounded);
            table.push(vec![
                format!("{frac:.2}"),
                format!("{:.3}", utility / base_utility),
                format!("{:.3}", energy / base_energy),
                format!("{:.3}", completed / base_completed),
            ]);
        }
    }

    println!(
        "Energy-budget extension — budgeted EUA* vs unconstrained EUA* \
         (fractions of the unconstrained run):"
    );
    print!("{}", table.render());
    if let Some(dir) = &csv_dir {
        let path = dir.join("budget.csv");
        write_csv(&table, &path).expect("csv write");
        println!("wrote {}", path.display());
    }
}
