//! Self-instrumentation overhead: the notice path with telemetry bound
//! versus unbound, plus the raw metric primitives.
//!
//! The acceptance bar for the telemetry subsystem is that binding a
//! registry costs ≤ 10% on the emit hot path: the only per-notice work
//! is one relaxed `fetch_add` on the bound notice counter (ring state
//! is exported through computed sources read at snapshot time, so it
//! adds nothing per event).

use brisk_bench::rig::six_i32_fields;
use brisk_clock::{Clock, SystemClock};
use brisk_core::{EventTypeId, NodeId};
use brisk_ringbuf::RingSet;
use brisk_telemetry::{Counter, Histogram, Registry};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_notice_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(1));

    for (name, bind) in [("notice_unbound", false), ("notice_bound", true)] {
        group.bench_function(name, |b| {
            let rings = RingSet::new(NodeId(0), 1 << 22);
            let registry = Registry::new();
            let mut port = rings.register();
            if bind {
                rings.bind_telemetry(&registry);
                port.set_notice_counter(registry.counter("brisk_notices_total", "notices emitted"));
            }
            let clock = SystemClock;
            let mut drain_buf = Vec::new();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let ok = port
                    .emit(EventTypeId(1), clock.now(), black_box(six_i32_fields(i)))
                    .unwrap();
                if !ok {
                    drain_buf.clear();
                    rings.drain_into(usize::MAX, &mut drain_buf).unwrap();
                }
                black_box(ok)
            });
        });
    }
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");
    group.throughput(Throughput::Elements(1));
    group.bench_function("counter_inc", |b| {
        let counter = Counter::new();
        b.iter(|| counter.inc());
        black_box(counter.get());
    });
    group.bench_function("histogram_record", |b| {
        let hist = Histogram::new();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            hist.record(black_box(i));
        });
        black_box(hist.snapshot());
    });
    group.finish();
}

criterion_group!(benches, bench_notice_paths, bench_primitives);
criterion_main!(benches);
