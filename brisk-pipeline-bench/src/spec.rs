//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repo root lists exactly these (a test compares the two).

/// One workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "ingest_sat",
        why: "closed loop: 2 sensor threads saturate ring, EXS, TCP, reactor, manager and store; the merge plane idles (two in-order streams)",
    },
    WorkloadSpec {
        name: "paced_latency",
        why: "open loop at 2x10k rec/s, far below the knee: latency is set by flush timeout, frame T and fsync interval, not per-record CPU",
    },
    WorkloadSpec {
        name: "merge_heavy",
        why: "one thread, no sockets, no store: 64-node causal merge of disordered pre-encoded frames with CRE pairs; bypasses ring, EXS, net",
    },
    WorkloadSpec {
        name: "query_mix",
        why: "paced ingest beside a 40/s seeded query mix over a preloaded, partly compacted store: the only read-path workload",
    },
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// One metric: name, unit, whether higher is better, and (end-to-end
/// only) the share of the parent's median by which it may worsen.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Every end-to-end metric is measured on every workload (the driver's
/// contract); README.md defines each per workload.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("records_per_s", "rec/s", true, 0.25),
    e2e("cpu_ns_per_record", "ns", false, 0.25),
    e2e("allocs_per_record", "count", false, 0.02),
    e2e("alloc_bytes_per_record", "B", false, 0.02),
    e2e("deliver_p50_us", "us", false, 0.15),
    e2e("deliver_p99_us", "us", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// Per-layer metrics, printed by the traced run. The first block comes
/// from the threaded (untraced) phase of that run, read from public
/// stats and `/proc/self/task/*/schedstat`; the `*_ns` block is the
/// stepped pipeline's self time per record and sums to
/// `bench.stepped_ns_per_record`.
pub const PER_LAYER: [MetricSpec; 74] = [
    layer("thread.sensor.busy_share", "share", false),
    layer("thread.exs.busy_share", "share", false),
    layer("thread.reactor.busy_share", "share", false),
    layer("thread.manager.busy_share", "share", false),
    layer("thread.store_write.busy_share", "share", false),
    layer("thread.sensor.runq_wait_share", "share", false),
    layer("thread.exs.runq_wait_share", "share", false),
    layer("thread.reactor.runq_wait_share", "share", false),
    layer("thread.manager.runq_wait_share", "share", false),
    layer("thread.store_write.runq_wait_share", "share", false),
    layer("ringbuf.full_retries", "count", false),
    layer("ringbuf.dropped", "count", false),
    layer("ringbuf.occupancy_p99_bytes", "B", false),
    layer("lis.notice_ns", "ns", false),
    layer("lis.batch_records_mean", "count", true),
    layer("lis.flush_timeout_share", "share", false),
    layer("lis.credit_stall_share", "share", false),
    layer("proto.wire_bytes_per_record", "B", false),
    layer("net.frames", "count", false),
    layer("net.bytes", "B", false),
    layer("ism.frame_us_final", "us", false),
    layer("ism.sorter_buffered_p99", "count", false),
    layer("ism.inversions", "count", false),
    layer("ism.tachyons_repaired", "count", false),
    layer("ism.causal_reorders", "count", false),
    layer("ism.dedup_dropped", "count", false),
    layer("store.durable_p50_us", "us", false),
    layer("store.durable_p99_us", "us", false),
    layer("store.query_p50_us", "us", false),
    layer("store.query_p95_us", "us", false),
    layer("store.bytes_per_record", "B", false),
    layer("store.segments", "count", false),
    layer("store.segments_pruned_share", "share", true),
    layer("store.cache_hit_share", "share", true),
    layer("store.segments_scanned_per_query", "count", false),
    layer("store.allocs_per_query", "count", false),
    layer("store.alloc_bytes_per_query", "B", false),
    layer("store.cpu_us_per_query", "us", false),
    layer("clock.sync_rounds", "count", false),
    layer("bench.gen_late_p99_us", "us", false),
    layer("bench.deliver_p999_us", "us", false),
    layer("bench.durable_p999_us", "us", false),
    layer("bench.achieved_rate", "rec/s", true),
    layer("bench.query_thread_busy_share", "share", false),
    layer("bench.sat_deliver_p50_us", "us", false),
    layer("bench.sat_deliver_p99_us", "us", false),
    layer("bench.peak_rss_mib", "MiB", false),
    layer("bench.phase_records_per_s", "rec/s", true),
    // Stepped pipeline, self time per record; these sum.
    layer("ringbuf.emit_ns", "ns", false),
    layer("ringbuf.drain_ns", "ns", false),
    layer("lis.batch_ns", "ns", false),
    layer("proto.encode_ns", "ns", false),
    layer("net.send_ns", "ns", false),
    layer("net.recv_ns", "ns", false),
    layer("proto.parse_ns", "ns", false),
    layer("proto.materialize_ns", "ns", false),
    layer("ism.push_ns", "ns", false),
    layer("ism.tick_ns", "ns", false),
    layer("ism.output_encode_ns", "ns", false),
    layer("ism.memory_write_ns", "ns", false),
    layer("store.append_ns", "ns", false),
    layer("store.sync_ns", "ns", false),
    layer("store.tail_poll_ns", "ns", false),
    layer("bench.stepped_ns_per_record", "ns", false),
    layer("bench.unattributed_share", "share", false),
    layer("bench.trace_overhead_share", "share", false),
    layer("bench.stepped_vs_threaded", "ratio", false),
    // Timed standalone on the same inputs; inside ism.push/ism.tick, so
    // not part of the sum.
    layer("ism.cre_ns", "ns", false),
    layer("ism.sorter_push_ns", "ns", false),
    layer("ism.sorter_poll_ns", "ns", false),
    layer("clock.hlc_tick_ns", "ns", false),
    layer("store.query_ns_per_record_scanned", "ns", false),
    layer("bench.stepped_records", "count", true),
    layer("bench.spans", "count", false),
];

/// The stepped budget lines, in pipeline order.
pub const STEPPED_LINES: [&str; 15] = [
    "ringbuf.emit_ns",
    "ringbuf.drain_ns",
    "lis.batch_ns",
    "proto.encode_ns",
    "net.send_ns",
    "net.recv_ns",
    "proto.parse_ns",
    "proto.materialize_ns",
    "ism.push_ns",
    "ism.tick_ns",
    "ism.output_encode_ns",
    "ism.memory_write_ns",
    "store.append_ns",
    "store.sync_ns",
    "store.tail_poll_ns",
];
