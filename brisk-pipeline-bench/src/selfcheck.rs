//! `selfcheck`: does the benchmark agree with itself?
//!
//! Two independent sets of N runs per workload (each run a fresh
//! process, seeds differing, the two sets visiting the workloads in
//! opposite orders), then per (metric, workload): median, quartiles and
//! spread of each set and the relative difference of the two medians.
//! It fails if a difference exceeds half the metric's bound, or a spread
//! exceeds the bound — the rule the driver applies, with margin.

use crate::json::Json;
use crate::{scratch_root, spec};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::Command;

type Values = BTreeMap<(String, String), Vec<f64>>;

fn one_run(workload: &str, seed: u64, seconds: f64, into: &mut Values) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    for (name, m) in result.get("metrics").map_or(&[][..], Json::entries) {
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        into.entry((workload.to_string(), name.clone()))
            .or_default()
            .push(v);
    }
    Ok(())
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` gives them
/// (exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo.min(n - 1)] - v[lo - 1]) * frac
    };
    (q(1), q(2), q(3))
}

pub fn run(runs: usize, seconds: f64) -> i32 {
    let runs = runs.max(2);
    let mut sets = [Values::new(), Values::new()];
    for (s, set) in sets.iter_mut().enumerate() {
        let mut order: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        if s == 1 {
            order.reverse();
        }
        for r in 0..runs {
            for workload in &order {
                let seed = 1_000 * (s as u64 + 1) + r as u64;
                eprintln!("set {} run {r}: {workload} seed {seed}", s + 1);
                if let Err(e) = one_run(workload, seed, seconds, set) {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
    }

    let mut report = String::from("{\"runs_per_set\": ");
    report.push_str(&format!("{runs}, \"seconds\": {seconds}, \"pairings\": ["));
    let mut worst = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "A vs B", "bound"
    );
    let mut first = true;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (a, b) = (&sets[0][&key], &sets[1][&key]);
            let ((a1, a2, a3), (b1, b2, b3)) = (quartiles(a), quartiles(b));
            let (spread_a, spread_b) = ((a3 - a1) / a2, (b3 - b1) / b2);
            // Positive when set B is worse than set A.
            let diff = if m.higher_is_better {
                (a2 - b2) / a2
            } else {
                (b2 - a2) / a2
            };
            // setup_s is exempt from the spread rule, as for the driver.
            let spread_fails = m.name != "setup_s" && spread_a.max(spread_b) > m.bound;
            let fails = diff.abs() > m.bound / 2.0 || spread_fails;
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>6.0}%{}",
                w.name,
                m.name,
                a2,
                b2,
                spread_a * 100.0,
                spread_b * 100.0,
                diff * 100.0,
                m.bound * 100.0,
                if fails { "  FAIL" } else { "" }
            );
            worst += fails as i32;
            report.push_str(&format!(
                "{}{{\"workload\": \"{}\", \"metric\": \"{}\", \"median_a\": {a2}, \"median_b\": {b2}, \"spread_a\": {spread_a}, \"spread_b\": {spread_b}, \"a_vs_b\": {diff}, \"bound\": {}}}",
                if first { "" } else { ", " },
                w.name,
                m.name,
                m.bound
            ));
            first = false;
        }
    }
    report.push_str("]}\n");
    let path = scratch_root().join("selfcheck.json");
    let written = std::fs::create_dir_all(scratch_root())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(report.as_bytes()));
    match written {
        Ok(()) => println!("measured A/A spreads written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if worst > 0 {
        eprintln!("{worst} pairing(s) disagree with themselves beyond the benchmark's own bounds");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
    }
}
