//! Smoke test: every workload at `--scale 0.01` runs correct, fast, and
//! emits every metric the benchmark declares; `BENCHMARK.json` lists
//! exactly the workloads and metrics the code does.

use brisk_pipeline_bench::json::Json;
use brisk_pipeline_bench::{result_line, run, scratch_root, spec, Opts};
use std::time::{Duration, Instant};

fn opts(workload: &str, trace: bool, tag: &str) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 10.0 * 0.01,
        scale: 0.01,
        trace,
        dir: scratch_root().join(format!("smoke-{tag}-{}", std::process::id())),
    }
}

/// One test drives all four: they share the machine's two cores, and
/// the allocator is armed process-wide during each timed phase.
#[test]
fn every_workload_runs_correct_at_scale_and_emits_every_metric() {
    let started = Instant::now();
    for w in &spec::WORKLOADS {
        let o = opts(w.name, false, w.name);
        let outcome = run(&o).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(outcome.failed, 0, "{}: failed operations", w.name);
        assert!(outcome.attempted > 0);
        for m in &spec::END_TO_END {
            let v = outcome.end_to_end.get(m.name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: end-to-end metric {} = {v:?}",
                w.name,
                m.name
            );
        }
        let line = Json::parse(&result_line(&outcome, false)).expect("result line parses");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(!o.dir.exists(), "scratch directory left behind");
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "four workloads at scale 0.01 took {:?}",
        started.elapsed()
    );

    // The traced run yields every per-layer metric, and the budget sums.
    for name in ["ingest_sat", "merge_heavy"] {
        let outcome = run(&opts(name, true, "trace")).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.failed, 0);
        let sum: f64 = spec::STEPPED_LINES
            .iter()
            .map(|l| outcome.per_layer[l])
            .sum();
        let total = outcome.per_layer["bench.stepped_ns_per_record"];
        assert!(
            (sum - total).abs() < 1e-6 * total,
            "{name}: {sum} vs {total}"
        );
        assert!(outcome.per_layer["bench.unattributed_share"] < 0.10);
        assert!(outcome.per_layer.contains_key("bench.trace_overhead_share"));
        let line = Json::parse(&result_line(&outcome, true)).expect("result line parses");
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), spec::PER_LAYER.len());
        for (key, _) in metrics.entries() {
            assert!(spec::PER_LAYER.iter().any(|m| m.name == key));
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        j.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let expect = |specs: &[spec::MetricSpec]| -> Vec<String> {
        specs.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(
        names("workloads"),
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(names("end_to_end"), expect(&spec::END_TO_END));
    assert_eq!(names("per_layer"), expect(&spec::PER_LAYER));
    for (entry, w) in j
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .zip(&spec::WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    for (entry, m) in j
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .zip(&spec::END_TO_END)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    for (entry, m) in j
        .get("per_layer")
        .unwrap()
        .as_arr()
        .iter()
        .zip(&spec::PER_LAYER)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
    }
    assert_eq!(
        j.get("paths").unwrap().as_arr(),
        [Json::Str("brisk-pipeline-bench".into())]
    );
}
