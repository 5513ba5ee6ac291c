//! Ablation studies for EUA\*'s design choices (our addition, flagged in
//! DESIGN.md §7):
//!
//! 1. **UER clamp** (Algorithm 2 line 11) — with the E3 energy setting the
//!    per-cycle-energy optimum is interior, so removing the clamp should
//!    cost energy at low loads;
//! 2. **Feasibility abortion** (Algorithm 1 line 10) — removing it should
//!    collapse overload utility (the domino effect);
//! 3. **Insertion mode** — the paper's `break` versus DASA-style `skip`;
//! 4. **Chebyshev ρ** — allocation head-room versus measured assurance;
//! 5. **Engine realism** — context/frequency-switch overheads and idle
//!    power draw, which the paper's model omits: switch costs erode the
//!    DVS saving slightly, and idle power erodes the *relative* saving
//!    because both policies pay it alike.
//!
//! Usage: `cargo run -p eua-bench --bin ablation [--quick] [--csv-dir DIR]
//! [--jobs N]`

use std::path::PathBuf;

use eua_bench::{run_cell, run_cells, write_csv, ExperimentConfig, Flags, Table};
use eua_platform::{EnergySetting, Frequency};
use eua_sim::Platform;
use eua_uam::Assurance;
use eua_workload::{fig2_workload, table1, TufShape, WorkloadBuilder};

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

    // --- Ablations 1–3: policy variants across loads, E3. ---
    let platform = Platform::powernow(EnergySetting::e3());
    let variants = ["eua", "eua-noclamp", "eua-na", "eua-skip"];
    let mut table = Table::new(
        std::iter::once("load".to_string())
            .chain(variants.iter().map(|v| format!("util({v})")))
            .chain(variants.iter().map(|v| format!("energy({v})")))
            .collect(),
    );
    for load in [0.3, 0.6, 0.9, 1.2, 1.5] {
        let w = fig2_workload(load, WORKLOAD_SEED, platform.f_max()).expect("workload");
        let cells = run_cells(&variants, &w, &platform, &config);
        let base = &cells[0];
        let mut row = vec![format!("{load:.1}")];
        for c in &cells {
            row.push(format!("{:.3}", c.utility / base.utility.max(1e-12)));
        }
        for c in &cells {
            row.push(format!("{:.3}", c.energy / base.energy.max(1e-12)));
        }
        table.push(row);
    }
    println!("Ablation — EUA* variants under E3 (normalized to full EUA*):");
    print!("{}", table.render());
    println!();
    if let Some(dir) = &csv_dir {
        write_csv(&table, &dir.join("ablation_variants.csv")).expect("csv write");
    }

    // --- Ablation 4: Chebyshev ρ sweep at a fixed 0.7 load, E1. ---
    let platform = Platform::powernow(EnergySetting::e1());
    let f_max: Frequency = platform.f_max();
    let mut rho_table = Table::new(vec![
        "rho".into(),
        "alloc/mean".into(),
        "assurance-ok".into(),
        "energy".into(),
    ]);
    for rho in [0.5, 0.75, 0.9, 0.96, 0.99] {
        let w = WorkloadBuilder::new(table1())
            .shape(TufShape::Step)
            .assurance(Assurance::new(1.0, rho).expect("valid rho"))
            .periodic()
            .build(WORKLOAD_SEED)
            .expect("workload")
            .scaled_to_load(0.7, f_max)
            .expect("scaling");
        let headroom: f64 = w
            .tasks
            .iter()
            .map(|(_, t)| t.allocation().as_f64() / t.demand().mean())
            .sum::<f64>()
            / w.tasks.len() as f64;
        let cell = run_cell("eua", &w, &platform, &config);
        rho_table.push(vec![
            format!("{rho:.2}"),
            format!("{headroom:.4}"),
            format!("{:.3}", cell.assurance_ok_rate),
            format!("{:.3e}", cell.energy),
        ]);
    }
    println!("Ablation — Chebyshev allocation probability ρ (load 0.7, E1):");
    print!("{}", rho_table.render());
    println!();

    // --- Ablation 5: engine realism (switch overheads, idle power). ---
    use eua_core::make_policy;
    use eua_platform::TimeDelta;
    use eua_sim::{Engine, SimConfig};
    let w = fig2_workload(0.5, WORKLOAD_SEED, f_max).expect("workload");
    let horizon = config.horizon;
    let run = |name: &str, sim: &SimConfig| {
        let mut p = make_policy(name).expect("known policy");
        Engine::run(&w.tasks, &w.patterns, &platform, &mut p, sim, 11)
            .expect("run")
            .metrics
    };
    let mut realism = Table::new(vec![
        "configuration".into(),
        "eua energy".into(),
        "edf energy".into(),
        "saving".into(),
    ]);
    let scenarios: [(&str, SimConfig); 4] = [
        ("ideal (paper model)", SimConfig::new(horizon)),
        (
            "ctx switch 100us",
            SimConfig::new(horizon).with_context_switch_overhead(TimeDelta::from_micros(100)),
        ),
        (
            "freq switch 200us",
            SimConfig::new(horizon).with_frequency_switch_overhead(TimeDelta::from_micros(200)),
        ),
        (
            "idle power 2000/us",
            SimConfig::new(horizon).with_idle_power(2_000.0),
        ),
    ];
    for (label, sim) in scenarios {
        let eua = run("eua", &sim);
        let edf = run("edf", &sim);
        realism.push(vec![
            label.into(),
            format!("{:.3e}", eua.energy),
            format!("{:.3e}", edf.energy),
            format!("{:.1}%", 100.0 * (1.0 - eua.energy / edf.energy)),
        ]);
    }
    println!("Ablation — engine realism (load 0.5, E1):");
    print!("{}", realism.render());

    if let Some(dir) = &csv_dir {
        write_csv(&rho_table, &dir.join("ablation_rho.csv")).expect("csv write");
        write_csv(&realism, &dir.join("ablation_realism.csv")).expect("csv write");
        println!("wrote CSVs to {}", dir.display());
    }
}
