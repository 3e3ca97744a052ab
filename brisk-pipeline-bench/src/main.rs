//! `brisk-pipeline-bench run|trace|selfcheck` — see README.md.

use brisk_pipeline_bench::{print_human, result_line, scratch_root, selfcheck, spec, Opts};

const USAGE: &str = "usage:
  brisk-pipeline-bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F]
  brisk-pipeline-bench run --all [--seed N] [--seconds S]
  brisk-pipeline-bench trace --workload <name> [--seed N] [--seconds S]
  brisk-pipeline-bench selfcheck [--runs N] [--seconds S]
workloads: ingest_sat paced_latency merge_heavy query_mix";

struct Args {
    command: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    runs: usize,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        command: it.next().ok_or("missing command")?,
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        scale: 1.0,
        trace: false,
        runs: 5,
    };
    while let Some(flag) = it.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            "--runs" => args.runs = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::is_workload(w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(args.seconds > 0.0 && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be > 0 and --scale within (0, 1]".into());
    }
    Ok(args)
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match args.command.as_str() {
        "run" | "trace" => run(&args),
        "selfcheck" => selfcheck::run(args.runs, args.seconds),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> i32 {
    let trace = args.trace || args.command == "trace";
    let workloads: Vec<String> = match (&args.workload, args.all) {
        (Some(w), false) => vec![w.clone()],
        (None, true) => spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
        _ => {
            eprintln!("give --workload <name> or --all\n{USAGE}");
            return 2;
        }
    };
    let mut code = 0;
    for workload in workloads {
        let opts = Opts {
            dir: scratch_root().join(format!("run-{}", std::process::id())),
            workload,
            seed: args.seed,
            seconds: args.seconds * args.scale,
            scale: args.scale,
            trace,
        };
        match brisk_pipeline_bench::run(&opts) {
            Ok(outcome) => {
                print_human(&opts, &outcome);
                // The driver reads the last line of a single-workload run.
                println!("{}", result_line(&outcome, trace));
                if outcome.failed > 0 {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", opts.workload);
                code = 1;
            }
        }
    }
    code
}
