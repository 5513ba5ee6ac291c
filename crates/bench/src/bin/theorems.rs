//! Empirically checks the §4 timeliness properties of EUA\* under the
//! theorem conditions — periodic `⟨1, P⟩` tasks, downward-step TUFs, no
//! CPU overload:
//!
//! * **Theorem 2** — EUA\* produces the same (critical-time-ordered)
//!   schedule as EDF, yielding equal total utilities (checked at `f_m` so
//!   the dispatch sequences are directly comparable);
//! * **Corollary 3** — EUA\* meets all task critical times;
//! * **Corollary 4** — EUA\* minimizes the maximum lateness (compared
//!   against EDF's);
//! * **Theorem 5** — EUA\* meets the `{ν, ρ}` statistical requirements;
//! * **Theorem 6** — the same holds for non-step, non-increasing TUFs
//!   under the Baruah–Rosier–Howell condition (checked with linear TUFs).
//!
//! Usage: `cargo run -p eua-bench --bin theorems [--quick] [--jobs N]`

use eua_bench::Flags;
use eua_core::{EdfPolicy, Eua};
use eua_platform::{EnergySetting, TimeDelta};
use eua_sim::{dispatch_sequence, map_parallel, Engine, Platform, SchedulerPolicy, SimConfig};
use eua_workload::{fig3_workload, theorem_workload, Workload};

fn check(label: &str, ok: bool, detail: String) -> bool {
    println!("  [{}] {label}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn run(
    workload: &Workload,
    platform: &Platform,
    policy: &mut dyn SchedulerPolicy,
    horizon: TimeDelta,
    seed: u64,
) -> eua_sim::Outcome {
    let config = SimConfig::new(horizon).with_certificate();
    Engine::run(
        &workload.tasks,
        &workload.patterns,
        platform,
        policy,
        &config,
        seed,
    )
    .expect("simulation failed")
}

fn main() {
    let flags = Flags::parse(&["--quick"], &["--jobs"]);
    let jobs = flags.jobs();
    let horizon = if flags.has("--quick") {
        TimeDelta::from_secs(5)
    } else {
        TimeDelta::from_secs(20)
    };
    let platform = Platform::powernow(EnergySetting::e1());
    let mut all_ok = true;

    for load in [0.3, 0.6, 0.9] {
        println!("load = {load} (periodic, step TUFs, under-load):");
        let w = theorem_workload(load, 42, platform.f_max()).expect("workload");
        // The three comparison runs are independent; fan them out.
        let mut outs = map_parallel(
            jobs,
            vec![0usize, 1, 2],
            |i, _| format!("item {i}"),
            |_, which| {
                let mut policy: Box<dyn SchedulerPolicy> = match which {
                    0 => Box::new(EdfPolicy::max_speed()),
                    1 => Box::new(Eua::without_dvs()),
                    _ => Box::new(Eua::new()),
                };
                run(&w, &platform, policy.as_mut(), horizon, 7)
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("theorem runs");
        let (edf, eua_fm, eua) = {
            let eua = outs.pop().expect("three runs");
            let eua_fm = outs.pop().expect("three runs");
            let edf = outs.pop().expect("three runs");
            (edf, eua_fm, eua)
        };

        // Theorem 2: identical schedules at f_m, equal utilities.
        let seq_edf = dispatch_sequence(edf.certificate.as_ref().expect("certificate"));
        let seq_eua = dispatch_sequence(eua_fm.certificate.as_ref().expect("certificate"));
        all_ok &= check(
            "Theorem 2 (schedule)",
            seq_edf == seq_eua,
            format!("{} vs {} dispatches", seq_edf.len(), seq_eua.len()),
        );
        let du = (edf.metrics.total_utility - eua_fm.metrics.total_utility).abs();
        all_ok &= check(
            "Theorem 2 (utility)",
            du < 1e-6,
            format!("|Δutility| = {du:.2e}"),
        );
        let du_dvs = (edf.metrics.total_utility - eua.metrics.total_utility).abs();
        all_ok &= check(
            "Theorem 2 (utility, with DVS)",
            du_dvs < 1e-6,
            format!("|Δutility| = {du_dvs:.2e}"),
        );

        // Corollary 3: all critical times met (with DVS active).
        let misses: u64 = eua
            .metrics
            .per_task
            .iter()
            .map(|t| t.completed - t.critical_met + t.aborted_by_termination + t.aborted_by_policy)
            .sum();
        all_ok &= check(
            "Corollary 3 (critical times)",
            misses == 0,
            format!("{misses} misses"),
        );

        // Corollary 4: max lateness no worse than EDF's.
        let l_eua = eua_fm.metrics.max_lateness_us();
        let l_edf = edf.metrics.max_lateness_us();
        all_ok &= check(
            "Corollary 4 (max lateness)",
            l_eua <= l_edf,
            format!("eua {l_eua} µs vs edf {l_edf} µs"),
        );

        // Theorem 5: statistical requirements met.
        let assured = eua.metrics.meets_assurances(&w.tasks);
        all_ok &= check("Theorem 5 (assurances)", assured, String::new());
        println!();
    }

    // Theorem 6: non-step, non-increasing (linear) TUFs under-load.
    for load in [0.3, 0.6] {
        println!("load = {load} (periodic, linear TUFs — Theorem 6):");
        let w = fig3_workload(load, 1, 42, platform.f_max()).expect("workload");
        let eua = run(&w, &platform, &mut Eua::new(), horizon, 7);
        // Theorem 6 is a *statistical* guarantee: with `{ν = 0.3, ρ = 0.9}`
        // up to 1 − ρ of the jobs may fall short of their critical time.
        let misses: u64 = eua
            .metrics
            .per_task
            .iter()
            .map(|t| t.completed - t.critical_met + t.aborted_by_termination + t.aborted_by_policy)
            .sum();
        let arrived = eua.metrics.jobs_arrived().max(1);
        let miss_rate = misses as f64 / arrived as f64;
        all_ok &= check(
            "Theorem 6 (critical-time miss rate <= 1 - rho)",
            miss_rate <= 0.1,
            format!("{misses}/{arrived} = {:.2}%", 100.0 * miss_rate),
        );
        let assured = eua.metrics.meets_assurances(&w.tasks);
        all_ok &= check("Theorem 6 (assurances)", assured, String::new());
        println!();
    }

    if all_ok {
        println!("all theorem checks passed");
    } else {
        println!("SOME THEOREM CHECKS FAILED");
        std::process::exit(1);
    }
}
