//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. The line
//! before it carries every metric the run measured, host calibration
//! included. Exits non-zero when any operation failed or any output was
//! wrong.

use fcbench_perfbench::report::{result_line, Metrics};
use fcbench_perfbench::{contract_metrics, run, spec, Opts, Scale};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <hpc-pipeline|column-store|serve-openloop> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: ".perfbench-out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => opts.trace = matches!(value.as_str(), "1"),
            _ => return None,
        }
    }
    spec::WORKLOADS
        .contains(&opts.workload.as_str())
        .then_some(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(outcome) = run(&opts, &Scale::full()) else {
        eprintln!("perfbench: could not set up {}", opts.workload);
        return ExitCode::FAILURE;
    };
    let mut all = Metrics::default();
    all.extend(outcome.e2e.clone());
    all.extend(outcome.layers.clone());
    println!("{}", all.to_json());

    let printed = contract_metrics(&outcome, opts.trace);
    let correct = outcome.correct();
    println!("{}", result_line(correct, &outcome.tally, &printed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
