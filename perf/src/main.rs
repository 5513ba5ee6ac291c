//! `eua-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See the
//! library docs and `perf/README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match eua_perf::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eua-perf: {e}\n{}", eua_perf::USAGE);
            return ExitCode::from(2);
        }
    };
    match eua_perf::run(&args) {
        Ok(report) => {
            println!(
                "eua-perf workload={} seed={} seconds={} trace={}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("  {:<40} {:>16} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eua-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
