//! Self-instrumentation for the BRISK pipeline.
//!
//! BRISK is an instrumentation system; this crate lets it observe
//! *itself*. It provides a lock-free metrics layer shared by every
//! pipeline stage (LIS → EXS → ISM):
//!
//! * [`metrics!`] — one declaration per component of the atomic cells
//!   it counts into and the series names they are published under;
//! * [`Counter`] — a single registry-owned atomic cell;
//! * [`Histogram`] — log₂-bucketed atomic histogram with p50/p95/p99/max
//!   readout and mergeable snapshots;
//! * [`Registry`] — names and labels metrics, and produces an atomic
//!   [`TelemetrySnapshot`] of every series at once;
//! * exporters — Prometheus text exposition
//!   ([`TelemetrySnapshot::to_prometheus`]), a JSON document
//!   ([`TelemetrySnapshot::to_json`]), an aligned human table
//!   ([`TelemetrySnapshot::render_table`]), and a tiny scrape endpoint
//!   ([`serve_stats`]).
//!
//! The hot-path cost of an instrumented stage is one or two relaxed
//! atomic RMWs; everything heavier (quantiles, rendering) happens at
//! snapshot time on the reader's thread.
//!
//! The [`trace`] module adds per-record self-tracing support: the
//! [`TraceSampler`] deciding which records carry an `X_TRACE` context,
//! [`StageLatencies`] histograms with exemplar trace-ids, and the
//! always-on [`FlightRecorder`] ring of recent structured events fed by
//! the [`flight_log!`] macro and dumped on panic.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod declare;
mod export;
mod metrics;
mod registry;
pub mod trace;

pub use export::{serve_stats, RouteTable, StatsServer};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
};
pub use registry::{Registry, Sample, SampleValue, TelemetrySnapshot};
pub use trace::{
    flight, install_flight_panic_hook, now_us, set_flight_capacity, splitmix64, ExemplarHistogram,
    FlightEvent, FlightLevel, FlightRecorder, StageLatencies, TraceSampler,
};
