//! # brisk-pipeline-bench — the repo's benchmark
//!
//! Four seeded workloads over the real BRISK pipeline, one result line a
//! driver can parse, and a per-layer budget from a separate traced run.
//! See `README.md` beside this crate for the metric and workload tables,
//! the layer → end-to-end predictions and how to run it.
//!
//! The bench measures every layer from outside: it times calls into
//! public functions, reads public `*Stats`, and reads
//! `/proc/self/task/*/schedstat` for the threads the product names.

pub mod alloc;
pub mod gen;
pub mod json;
pub mod measure;
pub mod oracle;
pub mod rig;
pub mod selfcheck;
pub mod spec;
pub mod stepped;
pub mod sys;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub type Metrics = BTreeMap<&'static str, f64>;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Shrinks seconds, counts and preloads (the smoke test runs 0.01).
    pub scale: f64,
    /// Also run the stepped, traced pipeline and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the build's target directory.
    pub dir: PathBuf,
}

impl Opts {
    /// Set-up is repeated and `setup_s` is the median, so a single slow
    /// handshake or page-cache miss cannot move it. Scaled-down and
    /// traced runs set up once.
    pub fn setup_reps(&self) -> usize {
        if self.scale < 1.0 || self.trace {
            1
        } else {
            3
        }
    }
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Records offered plus queries issued.
    pub attempted: u64,
    /// Operations the oracle rejected (see README "Failure accounting").
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Human-readable remarks (sample counts, where the store lived).
    pub notes: Vec<String>,
}

/// Where scratch files go: `<target dir>/pipeline-bench`, found from the
/// running executable (`<target>/<profile>/<exe>` or
/// `<target>/<profile>/deps/<exe>`), so it follows `CARGO_TARGET_DIR`
/// and always lies inside the checkout that built the bench.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let mut dir = exe.parent().expect("exe has a directory").to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.pop();
    dir.join("pipeline-bench")
}

/// Run one workload (and, if asked, its traced stepped pipeline).
pub fn run(opts: &Opts) -> brisk_core::Result<Outcome> {
    assert!(spec::is_workload(&opts.workload), "unknown workload");
    std::fs::create_dir_all(&opts.dir)?;
    measure::now_ns(); // pin the bench epoch before any due time is computed
    let mut outcome = workloads::run(opts)?;
    if opts.trace {
        stepped::run(opts, &mut outcome)?;
    }
    let _ = std::fs::remove_dir_all(&opts.dir);
    Ok(outcome)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`; the metrics are the end-to-end set, or with `--trace 1`
/// the per-layer set. A metric the run did not produce is reported as 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let (specs, values): (&[spec::MetricSpec], &Metrics) = if trace {
        (&spec::PER_LAYER, &outcome.per_layer)
    } else {
        (&spec::END_TO_END, &outcome.end_to_end)
    };
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(values.get(m.name).copied().unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// A number as measured, with all its digits, but valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Every metric by name with its unit, for a person.
pub fn print_human(opts: &Opts, outcome: &Outcome) {
    println!(
        "workload {}  seed {}  seconds {}  scale {}  threads available {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.scale,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!("  end to end:");
    for m in &spec::END_TO_END {
        if let Some(v) = outcome.end_to_end.get(m.name) {
            println!("    {:<36} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!("  per layer:");
    for m in &spec::PER_LAYER {
        if let Some(v) = outcome.per_layer.get(m.name) {
            println!("    {:<36} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!(
        "  attempted {}  failed {}  correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed == 0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contracts_shape() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.end_to_end.insert("records_per_s", 1234.5678);
        outcome.end_to_end.insert("setup_s", f64::NAN);
        let line = result_line(&outcome, false);
        let j = json::Json::parse(&line).unwrap();
        let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = j.get("metrics").unwrap();
        assert_eq!(metrics.entries().len(), spec::END_TO_END.len());
        let rps = metrics.get("records_per_s").unwrap();
        assert_eq!(
            rps.get("value").and_then(json::Json::as_f64),
            Some(1234.5678)
        );
        assert_eq!(rps.get("unit").and_then(json::Json::as_str), Some("rec/s"));
        assert_eq!(
            json::Json::parse(&result_line(&outcome, true))
                .unwrap()
                .get("metrics")
                .unwrap()
                .entries()
                .len(),
            spec::PER_LAYER.len()
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && !m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric());
        }
        for line in spec::STEPPED_LINES {
            assert!(spec::PER_LAYER.iter().any(|m| m.name == line));
        }
    }
}
