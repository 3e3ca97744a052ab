//! The four workloads. Each builds its inputs from the seed, sets up
//! (several times, so `setup_s` is a median), runs one timed phase of
//! `--seconds`, checks every output against the oracle and returns the
//! end-to-end metrics plus whatever per-layer numbers come for free.

use crate::gen::{self, MergeInput, Query, QueryKind};
use crate::measure::{median, now_ns, Phase, PhaseCost, Samples, Windows};
use crate::oracle::Checker;
use crate::rig::{Load, Rig, RigConfig, SensorReport, NODES, NODE_BASE};
use crate::sys;
use crate::{Metrics, Opts, Outcome};
use brisk_core::{
    CorrelationId, EventRecord, EventSink, FlowConfig, FsyncPolicy, IsmConfig, OrderMode, Result,
    SorterConfig, StoreConfig, UtcMicros,
};
use brisk_ism::IsmCore;
use brisk_lis::ExsStats;
use brisk_proto::BatchView;
use brisk_store::{
    causal_chain, windowed_aggregate, AggSource, CompactConfig, Compactor, Predicate, QueryCache,
    StoreReader, StoreWriter,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Paced workloads offer this many records per second per node: about
/// 5 % of what `ingest_sat` sustains on this box, far from the knee.
pub const PACED_RATE_PER_NODE: u64 = 10_000;
/// `query_mix` issues queries on this open-loop schedule.
pub const QUERY_RATE: u64 = 40;
/// Records preloaded into the `query_mix` store (older half compacted).
pub const PRELOAD_RECORDS: u64 = 600_000;
/// Segment size of the paced workloads' stores, preload included.
pub const PACED_SEGMENT_BYTES: u64 = 512 << 10;
/// `ingest_sat` pins the sorter's time frame here.
pub const SAT_FRAME_T_US: i64 = 20_000;
/// Warm-up records per node pushed through the full path in set-up.
const WARMUP_BLAST: u64 = 300_000;
const WARMUP_PACED: u64 = 3_000;
/// Untimed records each paced generator appends (0.4 s of stream: two
/// fsync intervals), so the last timed record becomes durable normally.
const PACED_COOLDOWN: u64 = 4_000;
/// Records per node in `ingest_sat`'s paced probe after the burst (3 s).
const PROBE_RECORDS: u64 = 30_000;
/// Frame rounds per `merge_heavy` epoch (64 nodes × 128 records each).
pub const MERGE_ROUNDS: u64 = 48;

pub fn run(opts: &Opts) -> Result<Outcome> {
    match opts.workload.as_str() {
        "ingest_sat" => socket_workload(opts, Kind::IngestSat),
        "paced_latency" => socket_workload(opts, Kind::PacedLatency),
        "query_mix" => socket_workload(opts, Kind::QueryMix),
        "merge_heavy" => merge_heavy(opts),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end figures every workload derives the same way.
/// Throughput and CPU per record are medians over the phase's windows
/// when it had enough of them (a scaled-down run has none), and the
/// whole-phase quotients otherwise.
fn common_e2e(
    e2e: &mut Metrics,
    layers: &mut Metrics,
    cost: &PhaseCost,
    windows: Option<(f64, f64)>,
    records: u64,
    setup_s: Vec<f64>,
) {
    let n = records as f64;
    let (rate, cpu) = windows.unwrap_or((
        ratio(n, cost.wall_ns as f64 / 1e9),
        ratio(cost.cpu_ns as f64, n),
    ));
    e2e.insert("records_per_s", rate);
    e2e.insert("cpu_ns_per_record", cpu);
    layers.insert(
        "bench.phase_records_per_s",
        ratio(n, cost.wall_ns as f64 / 1e9),
    );
    e2e.insert("allocs_per_record", ratio(cost.allocs as f64, n));
    e2e.insert("alloc_bytes_per_record", ratio(cost.alloc_bytes as f64, n));
    layers.insert("bench.peak_rss_mib", cost.peak_rss_mib);
    e2e.insert("setup_s", median(setup_s));
}

/// Samples per chunk when latency is summarised chunk by chunk: half a
/// second of a paced workload, and a p99 with 100 samples beyond it.
const LATENCY_CHUNK: usize = 10_000;

/// p50 and p99 in µs as medians over chunks, and p99.9 of the whole run.
/// A record that never arrived has no sample; it counts as missing every
/// percentile, so it enters as +∞ — which the whole-run p99.9 shows and
/// the run's `failed` count reports.
fn latency_us(samples: &mut Samples, missing: u64) -> (f64, f64, f64) {
    let [p50, p99] = samples.chunked_quantiles(LATENCY_CHUNK, [0.5, 0.99]);
    for _ in 0..missing {
        samples.push(u64::MAX);
    }
    (p50 / 1e3, p99 / 1e3, samples.quantile(0.999) / 1e3)
}

// ---- the three socket workloads -------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    IngestSat,
    PacedLatency,
    QueryMix,
}

struct SocketSetup {
    rig: Rig,
    queries: Option<QueryPlan>,
    preload_bytes: u64,
}

struct QueryPlan {
    reader: StoreReader,
    queries: Vec<Query>,
}

fn seg_bytes_and_count(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|e| e == "seg") {
            total.0 += entry.metadata().map_or(0, |m| m.len());
            total.1 += 1;
        }
    }
    total
}

fn socket_setup(opts: &Opts, kind: Kind, rep: usize) -> Result<SocketSetup> {
    let dir = opts.dir.join(format!("{}-{rep}", opts.workload));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let paced = kind != Kind::IngestSat;
    let per_node_cap = if paced {
        2 * (WARMUP_PACED + PACED_COOLDOWN)
            + (PACED_RATE_PER_NODE as f64 * (opts.seconds + 1.0)) as u64
    } else {
        // Far above what one sensor thread can emit in the time.
        WARMUP_BLAST + PROBE_RECORDS + (4_000_000.0 * (opts.seconds + 1.0)) as u64
    };
    let salt = gen::Rng::new(opts.seed).next_u64() as u32;

    let mut queries = None;
    // A tailer poll re-reads the whole active segment, so beside a 1 ms
    // tailer the segments are small; the saturated store keeps the default.
    let segment_bytes = if paced {
        PACED_SEGMENT_BYTES
    } else {
        StoreConfig::default().segment_bytes
    };
    if kind == Kind::QueryMix {
        let preload = scaled(PRELOAD_RECORDS, opts.scale);
        preload_store(&dir, preload, salt)?;
        let count = (QUERY_RATE as f64 * opts.seconds) as usize + 1;
        queries = Some(gen::query_mix(opts.seed, preload, count));
    }
    let preload_bytes = seg_bytes_and_count(&dir).0;

    let mut rig = Rig::start(RigConfig {
        dir: dir.clone(),
        segment_bytes,
        // Saturation without flow control is an unbounded manager queue,
        // and the manager drains its queue to empty before it ticks the
        // merge plane: with a deep queue under sustained load it never
        // ticks, deliveries stall for up to ~0.8 s, the sorter piles up
        // hundreds of MiB, and throughput, latency and RSS all follow the
        // longest stall. The product's own flow-control knobs keep the
        // queue shallow enough to empty between batches.
        flow: if paced {
            FlowConfig::default()
        } else {
            FlowConfig {
                credit_records: 2_048,
                max_queued_records: 1_024,
                shed_unmarked: false,
            }
        },
        // Under saturation the adaptive frame chases the queueing skew
        // between the two connections (hundreds of ms) and latency and
        // memory follow its last jump; pinned, they follow the pipeline.
        sorter: if paced {
            SorterConfig::default()
        } else {
            SorterConfig {
                initial_frame_us: SAT_FRAME_T_US,
                min_frame_us: SAT_FRAME_T_US,
                max_frame_us: SAT_FRAME_T_US,
                ..SorterConfig::default()
            }
        },
        // A sync round's polls would queue behind batches under
        // saturation and measure that, and every correction moves the
        // timestamps the sorter waits on. The paced workloads sync twice
        // a second; the saturated one, like the repo's own benches, not
        // at all.
        sync_period: paced.then_some(Duration::from_millis(500)),
        per_node_cap,
        latency_samples: if paced {
            (NODES as u64 * PACED_RATE_PER_NODE) as usize * (opts.seconds as usize + 2)
        } else {
            1 << 21
        },
        tail: paced,
        salt,
    })?;

    // Fixed-count warm-up through the full path, checked like the rest.
    rig.run_sensors(if paced {
        Load::Paced {
            interval_ns: 1_000_000_000 / PACED_RATE_PER_NODE,
            count: scaled(WARMUP_PACED, opts.scale.max(0.1)),
            cooldown: PACED_COOLDOWN,
        }
    } else {
        Load::Blast {
            count: scaled(WARMUP_BLAST, opts.scale),
            seconds: None,
        }
    });
    for state in std::iter::once(&rig.sink).chain(rig.tailed.as_ref()) {
        state.lock().expect("state poisoned").latency_ns.clear();
    }

    let queries = match queries {
        Some(queries) => {
            let reader = StoreReader::open(&dir)?.with_cache(QueryCache::with_default_capacity());
            // Warm the page cache and the query path once.
            reader.query(&queries[0].pred)?;
            Some(QueryPlan { reader, queries })
        }
        None => None,
    };
    Ok(SocketSetup {
        rig,
        queries,
        preload_bytes,
    })
}

/// A store as an earlier ISM run left it: time-ordered records in many
/// sealed segments with v2 sidecars, the older half compacted.
pub fn preload_store(dir: &Path, records: u64, salt: u32) -> Result<()> {
    let cfg = StoreConfig {
        dir: Some(dir.to_path_buf()),
        segment_bytes: PACED_SEGMENT_BYTES,
        fsync: FsyncPolicy::Never,
        ..StoreConfig::default()
    };
    let mut writer = StoreWriter::open(&cfg)?;
    for i in 0..records / 2 {
        writer.append(&gen::preload_record(i, salt))?;
    }
    drop(writer); // seals
    Compactor::new(
        dir,
        CompactConfig {
            keep_hot: 0,
            ..CompactConfig::default()
        },
    )
    .run_once()?;
    let mut writer = StoreWriter::open(&cfg)?;
    for i in records / 2..records {
        writer.append(&gen::preload_record(i, salt))?;
    }
    Ok(())
}

struct QueryRun {
    latency_ns: Samples,
    issued: u64,
    wrong: u64,
    busy_ns: u64,
    reader: StoreReader,
}

/// The query thread: a paced open loop, each query timed from when it
/// was due until its answer is fully materialised and digested.
fn spawn_queries(
    plan: QueryPlan,
    go: Arc<AtomicBool>,
    cpu_ns: Arc<AtomicU64>,
) -> std::thread::JoinHandle<Result<QueryRun>> {
    std::thread::Builder::new()
        .name("bench-query".into())
        .spawn(move || {
            let mut run = QueryRun {
                latency_ns: Samples::with_capacity(plan.queries.len()),
                issued: 0,
                wrong: 0,
                busy_ns: 0,
                reader: plan.reader,
            };
            crate::alloc::count_this_thread_apart();
            while !go.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(100));
            }
            let cpu0 = sys::thread_cpu_ns();
            let start = now_ns() + 1_000_000;
            let interval = 1_000_000_000 / QUERY_RATE;
            for (k, q) in plan.queries.iter().enumerate() {
                let due = start + k as u64 * interval;
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let (result, _report) = run.reader.query(&q.pred)?;
                match q.kind {
                    QueryKind::Window => {
                        std::hint::black_box(windowed_aggregate(
                            &result.records,
                            100_000,
                            AggSource::Gaps,
                        ));
                    }
                    QueryKind::Chain => {
                        std::hint::black_box(causal_chain(
                            &result.records,
                            CorrelationId(q.chain_from),
                            64,
                        ));
                    }
                    _ => {}
                }
                let digest = gen::result_digest(&result.records);
                run.latency_ns.push(now_ns().saturating_sub(due));
                run.issued += 1;
                if q.expect.is_some_and(|e| e != digest) {
                    run.wrong += 1;
                }
                cpu_ns.store(sys::thread_cpu_ns() - cpu0, Ordering::Relaxed);
            }
            run.busy_ns = cpu_ns.load(Ordering::Relaxed);
            Ok(run)
        })
        .expect("spawn query thread")
}

fn socket_workload(opts: &Opts, kind: Kind) -> Result<Outcome> {
    let paced = kind != Kind::IngestSat;
    let reps = opts.setup_reps();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let s = socket_setup(opts, kind, rep)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            let dir = s.rig.dir.clone();
            s.rig.stop()?;
            let _ = std::fs::remove_dir_all(dir);
        } else {
            setup = Some(s);
        }
    }
    let SocketSetup {
        mut rig,
        queries,
        preload_bytes,
    } = setup.expect("at least one set-up");

    let load = if paced {
        Load::Paced {
            interval_ns: 1_000_000_000 / PACED_RATE_PER_NODE,
            count: (PACED_RATE_PER_NODE as f64 * opts.seconds) as u64,
            cooldown: PACED_COOLDOWN,
        }
    } else {
        Load::Blast {
            count: u64::MAX,
            seconds: Some(opts.seconds),
        }
    };
    let exs_before: Vec<ExsStats> = rig.nodes.iter().map(|n| n.exs.stats_now()).collect();
    let net_before: Vec<(u64, u64)> = rig.nodes.iter().map(|n| n.net.totals()).collect();
    let delivered_before = rig.delivered();
    let query_go = Arc::new(AtomicBool::new(false));
    let query_cpu = Arc::new(AtomicU64::new(0));
    let query_thread =
        queries.map(|plan| spawn_queries(plan, Arc::clone(&query_go), Arc::clone(&query_cpu)));

    // ---- the timed phase ----
    let timed_before = rig.tail_samples();
    let sensors = rig.start_sensors(load);
    let sched_before = sys::sched_snapshot();
    let phase = Phase::begin();
    let mut windows = Windows::with_capacity(4 * opts.seconds as usize + 16);
    // CPU of the ingest path: the process, less the bench's own tailer
    // (an observer) and the query thread (the read path, reported per
    // query — and the part of the process most exposed to the host).
    let ingest_cpu =
        |rig: &Rig| sys::process_cpu_ns() - rig.tailer_cpu_ns() - query_cpu.load(Ordering::Relaxed);
    let cpu_before = ingest_cpu(&rig);
    let progress = |rig: &Rig| (ingest_cpu(rig), rig.delivered());
    sensors.go();
    query_go.store(true, Ordering::Release);
    let (cpu, n) = progress(&rig);
    windows.sample(cpu, n);
    sensors.wait_generated(Windows::INTERVAL, || {
        let (cpu, n) = progress(&rig);
        windows.sample(cpu, n);
    });
    let generated_ns = phase.start().elapsed().as_nanos() as u64;
    let timed = match load {
        Load::Paced { count, .. } => count * NODES as u64,
        Load::Blast { .. } => 0,
    };
    let drained_at = rig.wait_drained(Duration::from_secs(60), timed_before, timed);
    let query = query_thread
        .map(|t| t.join().expect("query thread panicked"))
        .transpose()?;
    let mut cost = phase.end(Some(drained_at));
    cost.cpu_ns = ingest_cpu(&rig) - cpu_before;
    let sched_after = sys::sched_snapshot();
    let reports = rig.finish_sensors(sensors);
    let records = rig.delivered() - delivered_before;

    // Latency inside a closed loop is queue depth over throughput (ring +
    // credit window), and moves with both. What a consumer can be
    // promised is latency once the burst ends: a short paced probe
    // through the same pipeline, straight after. The saturated figures
    // stay visible per layer.
    let mut sat_latency_us = None;
    if !paced {
        {
            let mut sink = rig.sink.lock().expect("sink state poisoned");
            sat_latency_us = Some(latency_us(&mut sink.latency_ns, 0));
            sink.latency_ns.clear();
        }
        rig.run_sensors(Load::Paced {
            interval_ns: 1_000_000_000 / PACED_RATE_PER_NODE,
            count: scaled(PROBE_RECORDS, opts.scale.max(0.1)),
            cooldown: 0,
        });
    }

    // ---- stop, then verify ----
    let exs_after: Vec<ExsStats> = rig.nodes.iter().map(|n| n.exs.stats_now()).collect();
    let net_after: Vec<(u64, u64)> = rig.nodes.iter().map(|n| n.net.totals()).collect();
    let offered: Vec<u64> = rig.nodes.iter().map(|n| n.offered).collect();
    let (sink, tailed, dir) = (Arc::clone(&rig.sink), rig.tailed.clone(), rig.dir.clone());
    let (_, report) = rig.stop()?;

    let mut out = Outcome::default();
    let mut sink = sink.lock().expect("sink state poisoned");
    let dropped: u64 = reports.iter().map(|r| r.dropped).sum();
    let sink_missing = sink.checker.missing(&offered);
    out.attempted = offered.iter().sum();
    out.failed = sink.checker.violations.total() + sink_missing;
    let (d50, d99, d999) = latency_us(&mut sink.latency_ns, sink_missing);
    out.notes.push(format!(
        "deliver samples {} (overflowed {}), {} records in the timed phase, {} dropped at a full ring",
        sink.latency_ns.len(),
        sink.latency_ns.overflowed,
        records,
        dropped
    ));

    common_e2e(
        &mut out.end_to_end,
        &mut out.per_layer,
        &cost,
        windows.medians(),
        records,
        setup_s,
    );
    out.end_to_end.insert("deliver_p50_us", d50);
    out.end_to_end.insert("deliver_p99_us", d99);

    let layers = &mut out.per_layer;
    layers.insert("bench.deliver_p999_us", d999);
    if let Some((p50, p99, _)) = sat_latency_us {
        layers.insert("bench.sat_deliver_p50_us", p50);
        layers.insert("bench.sat_deliver_p99_us", p99);
    }
    layers.insert("ism.causal_reorders", sink.ts_regressions as f64);
    if let Some(tailed) = &tailed {
        let mut tailed = tailed.lock().expect("tailer state poisoned");
        let missing = tailed.checker.missing(&offered);
        out.failed += tailed.checker.violations.total() + missing;
        let (p50, p99, p999) = latency_us(&mut tailed.latency_ns, missing);
        layers.insert("store.durable_p50_us", p50);
        layers.insert("store.durable_p99_us", p99);
        layers.insert("bench.durable_p999_us", p999);
    } else {
        // No tailer ran beside the saturated pipeline: read the store
        // back now and demand the delivered set.
        out.failed += verify_store(&dir, &offered, sink.checker.delivered)?;
    }
    if let Some(mut q) = query {
        out.attempted += q.issued;
        out.failed += q.wrong;
        layers.insert("store.query_p50_us", q.latency_ns.quantile(0.5) / 1e3);
        layers.insert("store.query_p95_us", q.latency_ns.quantile(0.95) / 1e3);
        layers.insert(
            "bench.query_thread_busy_share",
            ratio(q.busy_ns as f64, cost.wall_ns as f64),
        );
        layers.insert(
            "store.cpu_us_per_query",
            ratio(q.busy_ns as f64 / 1e3, q.issued as f64),
        );
        let stats = q.reader.stats();
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let (pruned, scanned) = (ld(&stats.segments_pruned), ld(&stats.segments_scanned));
        let (hits, misses) = (ld(&stats.cache_hits), ld(&stats.cache_misses));
        layers.insert(
            "store.segments_pruned_share",
            ratio(pruned, pruned + scanned),
        );
        layers.insert("store.cache_hit_share", ratio(hits, hits + misses));
        layers.insert(
            "store.segments_scanned_per_query",
            ratio(scanned, q.issued as f64),
        );
        let (allocs, bytes) = crate::alloc::apart_totals();
        layers.insert(
            "store.allocs_per_query",
            ratio(allocs as f64, q.issued as f64),
        );
        layers.insert(
            "store.alloc_bytes_per_query",
            ratio(bytes as f64, q.issued as f64),
        );
        out.notes
            .push(format!("query samples {}", q.latency_ns.len()));
    }

    // Per-layer numbers that cost nothing: public stats and schedstat.
    layers.extend(sys::thread_shares(
        &sched_before,
        &sched_after,
        cost.wall_ns,
    ));
    let mut occupancy = Samples::with_capacity(reports.iter().map(|r| r.occupancy.len()).sum());
    let mut late = Samples::with_capacity(reports.iter().map(|r| r.late_ns.len()).sum());
    for r in &reports {
        r.occupancy.iter().for_each(|&v| occupancy.push(v));
        r.late_ns.iter().for_each(|&v| late.push(v));
    }
    let sum = |f: fn(&SensorReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    layers.insert("ringbuf.full_retries", sum(|r| r.full_retries));
    layers.insert("ringbuf.dropped", dropped as f64);
    layers.insert("ringbuf.occupancy_p99_bytes", occupancy.quantile(0.99));
    layers.insert(
        "lis.notice_ns",
        ratio(sum(|r| r.notice_ns_sum), sum(|r| r.notice_samples)),
    );
    layers.insert("bench.gen_late_p99_us", late.quantile(0.99) / 1e3);
    layers.insert(
        "bench.achieved_rate",
        ratio(sum(|r| r.accepted), generated_ns as f64 / 1e9),
    );
    let exs = |f: fn(&ExsStats) -> u64| {
        exs_after.iter().map(f).sum::<u64>() as f64 - exs_before.iter().map(f).sum::<u64>() as f64
    };
    let batches = exs(|s| s.batches_sent);
    layers.insert(
        "lis.batch_records_mean",
        ratio(exs(|s| s.records_sent), batches),
    );
    layers.insert(
        "lis.flush_timeout_share",
        ratio(exs(|s| s.flush_timeout), batches),
    );
    layers.insert(
        "lis.credit_stall_share",
        ratio(exs(|s| s.credit_deferrals), exs(|s| s.iterations)),
    );
    let net = |i: usize| {
        let pick = |v: &[(u64, u64)]| {
            v.iter()
                .map(|t| if i == 0 { t.0 } else { t.1 })
                .sum::<u64>()
        };
        (pick(&net_after) - pick(&net_before)) as f64
    };
    layers.insert("net.frames", net(0));
    layers.insert("net.bytes", net(1));
    layers.insert(
        "proto.wire_bytes_per_record",
        ratio(net(1), exs(|s| s.records_sent)),
    );
    layers.insert("ism.inversions", report.sorter.inversions as f64);
    layers.insert("ism.tachyons_repaired", report.cre.tachyons_repaired as f64);
    layers.insert("ism.dedup_dropped", report.core.duplicate_records as f64);
    layers.insert("clock.sync_rounds", report.sync_rounds as f64);
    let (seg_bytes, segments) = seg_bytes_and_count(&dir);
    layers.insert(
        "store.bytes_per_record",
        ratio(
            (seg_bytes - preload_bytes.min(seg_bytes)) as f64,
            sink.checker.delivered as f64,
        ),
    );
    layers.insert("store.segments", segments as f64);
    out.notes.push(format!("store under {}", dir.display()));
    Ok(out)
}

/// Store `read_all` ≡ delivered set, in bounded memory: the store is
/// read back in slices of stream time through the query engine and
/// every record must be one the generator offered, exactly once. (Order
/// was already checked at the sink, which sees the same call sequence
/// the store appends.) Returns the number of failed operations.
fn verify_store(dir: &Path, offered: &[u64], delivered: u64) -> Result<u64> {
    let reader = StoreReader::open(dir)?;
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for id in reader.segment_ids()? {
        if let Some(idx) = reader.load_index(id) {
            lo = lo.min(idx.min_ts.as_micros());
            hi = hi.max(idx.max_ts.as_micros());
        }
    }
    let per_node = offered.iter().copied().max().unwrap_or(0);
    let mut checker = Checker::new(NODE_BASE, NODES, per_node, 0, false);
    const SLICE_US: i64 = 250_000;
    let mut from = lo;
    while from <= hi {
        let pred = Predicate::all()
            .since(UtcMicros::from_micros(from))
            .until(UtcMicros::from_micros(from + SLICE_US - 1));
        let (result, _) = reader.query(&pred)?;
        for rec in &result.records {
            checker.observe(rec);
        }
        from += SLICE_US;
    }
    let v = checker.violations;
    Ok(v.duplicates + v.foreign + checker.missing(offered) + delivered.abs_diff(checker.delivered))
}

// ---- merge_heavy ---------------------------------------------------------

/// The counting sink of `merge_heavy`: checks every record and times
/// one in eight on the workload's own clock — from the stamp its node
/// gave it to the SimClock reading of the tick that delivered it. (Wall
/// time through a single-threaded closed loop would only restate
/// `records_per_s`.)
struct MergeSink(Arc<Mutex<MergeObserved>>);

struct MergeObserved {
    checker: Checker,
    latency_ns: Samples,
    /// SimClock reading of the tick in progress; `None` during the
    /// end-of-epoch drain, whose "now" is no clock reading at all.
    sim_now_us: Option<i64>,
    ts_regressions: u64,
    last_ts: UtcMicros,
}

impl EventSink for MergeSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        let mut st = self.0.lock().expect("merge sink poisoned");
        if rec.ts < st.last_ts {
            st.ts_regressions += 1;
        }
        st.last_ts = st.last_ts.max(rec.ts);
        let checked = st.checker.observe(rec).is_some();
        if let (true, true, Some(now_us)) = (checked, rec.seq.is_multiple_of(8), st.sim_now_us) {
            // The generator's stamp, not `rec.ts`: CRE repair rewrites that.
            let created_us = gen::merge_record_ts(rec.node.0, rec.seq);
            st.latency_ns
                .push((now_us - created_us).max(0) as u64 * 1_000);
        }
        Ok(())
    }
}

pub fn merge_config() -> IsmConfig {
    IsmConfig {
        order_mode: OrderMode::Causal,
        sorter: SorterConfig {
            initial_frame_us: gen::MERGE_FRAME_T_US,
            min_frame_us: gen::MERGE_FRAME_T_US,
            ..SorterConfig::default()
        },
        ..IsmConfig::default()
    }
}

struct MergeEpoch {
    frame_us: i64,
    tachyons: u64,
    dedup: u64,
    inversions: u64,
}

/// One pass of the whole input through a fresh core, as the manager
/// thread drives it: parse, materialize, push, tick — under sim time.
fn merge_epoch(
    input: &MergeInput,
    state: &Arc<Mutex<MergeObserved>>,
    buffered: &mut Samples,
) -> Result<MergeEpoch> {
    let mut core = IsmCore::new(merge_config())?;
    core.add_sink(Box::new(MergeSink(Arc::clone(state))));
    {
        let mut st = state.lock().expect("merge sink poisoned");
        st.checker.reset();
        st.last_ts = UtcMicros::ZERO;
    }
    for (i, frame) in input.frames.iter().enumerate() {
        let view = BatchView::parse(&frame.bytes).map_err(brisk_core::BriskError::from)?;
        let records = view.materialize().map_err(brisk_core::BriskError::from)?;
        let now = UtcMicros::from_micros(frame.arrive_us);
        core.push_batch_seq(view.node(), view.seq(), records, now)?;
        state.lock().expect("merge sink poisoned").sim_now_us = Some(frame.arrive_us);
        core.tick(now)?;
        if i % 16 == 0 {
            let s = core.sorter_stats();
            buffered.push(s.pushed - s.released);
        }
    }
    state.lock().expect("merge sink poisoned").sim_now_us = None;
    core.drain_all()?;
    let (sorter, cre, stats) = (core.sorter_stats(), core.cre_stats(), core.stats());
    Ok(MergeEpoch {
        frame_us: core.frame_us(),
        tachyons: cre.tachyons_repaired,
        dedup: stats.duplicate_records,
        inversions: sorter.inversions,
    })
}

fn merge_heavy(opts: &Opts) -> Result<Outcome> {
    let rounds = scaled(MERGE_ROUNDS, opts.scale.max(0.05));
    let reps = opts.setup_reps();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let input = gen::merge_input(opts.seed, rounds);
        let state = Arc::new(Mutex::new(MergeObserved {
            checker: Checker::new(0, gen::MERGE_NODES, input.per_node, input.pairs, true),
            latency_ns: Samples::with_capacity(1 << 22),
            sim_now_us: None,
            ts_regressions: 0,
            last_ts: UtcMicros::ZERO,
        }));
        let mut buffered = Samples::with_capacity(1 << 20);
        // Fixed-count warm-up through the full path: one whole epoch.
        merge_epoch(&input, &state, &mut buffered)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((input, state, buffered));
    }
    let (input, state, mut buffered) = built.expect("at least one set-up");
    {
        let mut st = state.lock().expect("merge sink poisoned");
        st.latency_ns.clear();
        st.ts_regressions = 0;
        assert_eq!(
            st.checker.violations.total(),
            0,
            "warm-up epoch failed the oracle: {:?}",
            st.checker.violations
        );
    }
    buffered.clear();

    // Whole epochs until the time is up; the core is rebuilt per epoch
    // (its dedup map and CRE table belong to one pass of the input).
    let phase = Phase::begin();
    let mut windows = Windows::with_capacity(64 * opts.seconds as usize + 16);
    windows.sample(sys::process_cpu_ns(), 0);
    let mut epochs = 0u64;
    let mut last;
    loop {
        last = merge_epoch(&input, &state, &mut buffered)?;
        epochs += 1;
        // One window per epoch.
        windows.sample(sys::process_cpu_ns(), epochs * input.records);
        if phase.start().elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let cost = phase.end(None);

    let mut st = state.lock().expect("merge sink poisoned");
    let records = epochs * input.records;
    // Warm-up epoch + timed epochs, each offered the whole input.
    let offered = vec![input.per_node; gen::MERGE_NODES as usize];
    let missing = st.checker.missing(&offered);
    let undelivered = ((epochs + 1) * input.records).saturating_sub(st.checker.delivered);
    let mut out = Outcome {
        attempted: (epochs + 1) * input.records,
        failed: st.checker.violations.total() + missing + undelivered,
        ..Outcome::default()
    };
    common_e2e(
        &mut out.end_to_end,
        &mut out.per_layer,
        &cost,
        windows.medians(),
        records,
        setup_s,
    );
    let (p50, p99, p999) = latency_us(&mut st.latency_ns, missing + undelivered);
    out.end_to_end.insert("deliver_p50_us", p50);
    out.end_to_end.insert("deliver_p99_us", p99);
    out.notes.push(format!(
        "{epochs} epochs of {} records ({} frames, {} CRE pairs, {} tachyons); deliver samples {}",
        input.records,
        input.frames.len(),
        input.pairs,
        input.tachyons,
        st.latency_ns.len()
    ));
    let layers = &mut out.per_layer;
    layers.insert("bench.deliver_p999_us", p999);
    layers.insert("ism.frame_us_final", last.frame_us as f64);
    layers.insert("ism.sorter_buffered_p99", buffered.quantile(0.99));
    layers.insert("ism.inversions", last.inversions as f64);
    layers.insert("ism.tachyons_repaired", last.tachyons as f64);
    layers.insert("ism.dedup_dropped", last.dedup as f64);
    layers.insert(
        "ism.causal_reorders",
        st.ts_regressions as f64 / epochs as f64,
    );
    Ok(out)
}
