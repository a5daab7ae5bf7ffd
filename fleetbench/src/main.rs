//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric, then one JSON object as the last line
//! of standard output. Exits 1 when a correctness check failed and 2 on
//! bad arguments.

use std::process::ExitCode;

use fleetbench::{fleet, render, run, Options};

#[global_allocator]
static ALLOC: fleetbench::alloc::Counting = fleetbench::alloc::Counting;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = fleet::workloads().iter().map(|w| w.name).collect();
    eprintln!(
        "fleetbench: {msg}\nusage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = fleet::workload(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let workdir = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let report = run(&Options {
        spec,
        seed,
        seconds,
        trace,
        workdir,
    });
    print!("{}", render(&report, trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
