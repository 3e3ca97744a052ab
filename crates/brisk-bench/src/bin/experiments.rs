//! CLI driver: regenerate the paper's evaluation tables.
//!
//! `experiments <id>... [--quick]`, where the ids are the rows of
//! [`EXPERIMENTS`] plus `all`; a bad id or flag prints the usage line and
//! exits 2 before anything runs. Exits 1 when an experiment's bar is
//! exceeded (only `s1` has bars).

use brisk_bench::experiments as x;

/// Runs one experiment; false when a bar it gates is exceeded.
type Experiment = fn(quick: bool) -> bool;

/// Every experiment by id, in `all` order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", x::e1_notice_cost),
    ("e2", x::e2_exs_utilization),
    ("e3", x::e3_throughput),
    ("e4", x::e4_latency),
    ("e5", x::e5_scalability),
    ("e6", x::e6_clock_sync),
    ("e7", x::e7_sorting),
    ("a1", x::a1_sync_ablation),
    ("a2", x::a2_cre_ablation),
    ("a3", x::a3_header_compression),
    ("s1", x::s1_overheads),
];

fn main() {
    let mut quick = false;
    let mut runs = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "all" => runs.extend(EXPERIMENTS),
            id => match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
                Some(run) => runs.push(run),
                None => usage(&format!("unknown experiment id or flag: {id}")),
            },
        }
    }
    if runs.is_empty() {
        usage("no experiment id given");
    }
    println!(
        "BRISK experiment harness ({} mode)",
        if quick { "quick" } else { "full" }
    );
    let mut passed = true;
    for (_, run) in runs {
        passed &= run(quick);
    }
    if !passed {
        std::process::exit(1);
    }
}

fn usage(why: &str) -> ! {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "{why}\nusage: experiments <{}|all>... [--quick]",
        ids.join("|")
    );
    std::process::exit(2);
}
