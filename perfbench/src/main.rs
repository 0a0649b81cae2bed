//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let Some(outcome) = perfbench::run(&workload, seed, seconds, trace) else {
        return usage();
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "{}",
        outcome.result_line(if trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}
