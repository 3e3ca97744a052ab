//! Metric naming, registration and atomic snapshots.

use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Label set: `(key, value)` pairs attached to a series.
type Labels = Vec<(String, String)>;

enum Source {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
    /// Computed counter: read from existing state at snapshot time.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Computed gauge: read from existing state at snapshot time.
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
}

struct Family {
    name: String,
    help: String,
    labels: Labels,
    source: Source,
}

/// Names every metric series; the one place a whole-pipeline
/// [`TelemetrySnapshot`] can be taken from.
///
/// Components own their metric cells (see [`metrics!`](crate::metrics!))
/// and the registry *adopts* them: registration takes a mutex (cold
/// path), recording never touches the registry. Registering the same
/// `(name, labels)` twice keeps the first source, so binding is
/// idempotent.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// New empty registry (typically wrapped in an `Arc`).
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Add `(name, labels)` unless it is already registered.
    fn adopt(&self, name: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if !fams.iter().any(|f| f.name == name && f.labels == labels) {
            fams.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                labels,
                source,
            });
        }
    }

    /// Register (or fetch) a registry-owned counter with no labels — for
    /// callers that have no cells of their own, like an application's
    /// notice counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.adopt(name, help, &[], Source::Counter(Arc::default()));
        let fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        match fams.iter().find(|f| f.name == name && f.labels.is_empty()) {
            Some(Family {
                source: Source::Counter(c),
                ..
            }) => Arc::clone(c),
            // The name is taken by another kind: hand back a detached cell.
            _ => Arc::default(),
        }
    }

    /// Adopt a component's histogram.
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Arc<Histogram>,
    ) {
        self.adopt(name, help, labels, Source::Histogram(Arc::clone(h)));
    }

    /// Register a computed counter: `f` is called at snapshot time and
    /// must be monotonic (e.g. reads an existing atomic total).
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.adopt(name, help, labels, Source::CounterFn(Box::new(f)));
    }

    /// Register a computed gauge: `f` is called at snapshot time.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.adopt(name, help, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Read every registered series at once.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let samples = fams
            .iter()
            .map(|f| Sample {
                name: f.name.clone(),
                help: f.help.clone(),
                labels: f.labels.clone(),
                value: match &f.source {
                    Source::Counter(c) => SampleValue::Counter(c.get()),
                    Source::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    Source::CounterFn(f) => SampleValue::Counter(f()),
                    Source::GaugeFn(f) => SampleValue::Gauge(f()),
                },
            })
            .collect();
        TelemetrySnapshot { samples }
    }
}

/// One observed series value.
///
/// The histogram variant dominates the enum's size, but snapshots are
/// built once per scrape and dropped; boxing would add indirection on
/// every quantile read for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// Monotonic total.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Full distribution.
    Histogram(HistogramSnapshot),
}

/// One series: name, labels and the value read at snapshot time.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric name (Prometheus-safe snake case by convention).
    pub name: String,
    /// Help text for exposition.
    pub help: String,
    /// Label pairs distinguishing series of the same name.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: SampleValue,
}

/// A point-in-time copy of every registered series.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All series, in registration order.
    pub samples: Vec<Sample>,
}

impl TelemetrySnapshot {
    /// All samples with the given metric name.
    pub fn all(&self, name: &str) -> impl Iterator<Item = &Sample> {
        let name = name.to_string();
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// Sum of every counter series with this name (all label variants).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.all(name)
            .filter_map(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Value of the counter series with this name and exact labels.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.all(name)
            .find(|s| {
                s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .and_then(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// First gauge series with this name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.all(name).find_map(|s| match &s.value {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        })
    }

    /// Merge of every histogram series with this name.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut acc: Option<HistogramSnapshot> = None;
        for s in self.all(name) {
            if let SampleValue::Histogram(h) = &s.value {
                acc = Some(match acc {
                    Some(a) => a.merge(h),
                    None => h.clone(),
                });
            }
        }
        acc
    }

    /// Human-readable aligned table (for `--stats` dumps).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let mut name = s.name.clone();
            if !s.labels.is_empty() {
                let lbls: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = write!(name, "{{{}}}", lbls.join(","));
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<58} {v:>14}");
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<58} {v:>14}");
                }
                SampleValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<58} n={} mean={:.1} p50={} p95={} p99={} max={}",
                        h.count(),
                        h.mean(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        h.max
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "");
        let b = r.counter("x_total", "");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter_labeled("x_total", &[]), Some(2));
        // The first source registered under a (name, labels) wins;
        // distinct labels are distinct series.
        r.counter_fn("y_total", "", &[("node", "1")], || 3);
        r.counter_fn("y_total", "", &[("node", "1")], || 100);
        r.counter_fn("y_total", "", &[("node", "2")], || 4);
        assert_eq!(r.snapshot().counter_total("y_total"), 7);
    }

    #[test]
    fn computed_sources_read_live_state() {
        let r = Registry::new();
        let state = Arc::new(Counter::new());
        let s2 = Arc::clone(&state);
        r.gauge_fn("depth", "", &[], move || s2.get() as i64);
        state.add(9);
        assert_eq!(r.snapshot().gauge("depth"), Some(9));
    }

    #[test]
    fn histogram_lookup_merges_labels() {
        let r = Registry::new();
        for (node, v) in [("1", 10), ("2", 20)] {
            let h = Arc::new(Histogram::new());
            h.record(v);
            r.register_histogram("lat_us", "", &[("node", node)], &h);
        }
        let h = r.snapshot().histogram("lat_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 20);
    }
}
