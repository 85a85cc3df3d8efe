//! The benchmark of `BENCHMARK.json`: one workload per process, end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Run it
//! through `benchmark/run.sh`; see `benchmark/README.md`.

mod harness;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::Args;
use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pop-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out-dir DIR] | --list";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}\n{USAGE}",
            args.workload
        ));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            for line in report::list_lines() {
                println!("{line}");
            }
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "run workload={} seed={} seconds={} trace={} host_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut outcome: Outcome = match args.workload.as_str() {
        "serve_http" => workloads::serve_http::run(&args),
        "explore" => workloads::explore::run(&args),
        "corpus_cold" => workloads::corpus_cold::run(&args),
        _ => workloads::train_warm::run(&args),
    };
    let catalogue: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // A share that is 0 on every run has no median to take a bound of, so
    // it is gated through `correct`, not as a bounded end-to-end metric; the
    // traced pass lists it with the per-layer metrics.
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set_n("failed_share", failed_share, outcome.attempted);
    for note in &outcome.notes {
        println!("{note}");
    }
    for line in outcome.lines(catalogue) {
        println!("{line}");
    }
    if !args.trace {
        println!(
            "metric failed_share {failed_share} ratio n={}",
            outcome.attempted
        );
    }
    println!("{}", outcome.result_json(catalogue));
    ExitCode::SUCCESS
}
