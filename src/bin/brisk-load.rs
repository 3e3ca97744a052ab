//! `brisk-load` — an instrumented demo application / load generator.
//!
//! The counterpart executable to `brisk-ismd`: it *is* an instrumented
//! node — sensors, ring buffers and an external sensor — generating a
//! configurable event load against a running manager. Use it to smoke-test
//! a deployment or to drive throughput experiments across real machines.
//! `brisk-load --help` lists every flag.
//!
//! `--stats` binds the node's ring buffers and EXS to a telemetry
//! registry and dumps the full snapshot table at the end of the run.
//! `--stats-addr` additionally serves that registry live over HTTP
//! (`/metrics`, `/json`, `/flight`, `/healthz`); when the fault plane is
//! armed the node also serves its injected-fault event log at `/faults`,
//! so a chaos drill's wire damage can be read off both ends without a
//! debugger (the ISM side serves the matching `/quarantine` view).
//!
//! `--trace-sample N` attaches an `X_TRACE` context to 1-in-N notices:
//! sampled records accumulate per-stage timestamps at every pipeline hop,
//! which the ISM turns into `/trace` latency exemplars renderable with
//! `brisk-trace`. `N=1` traces every record (use only at low rates).
//!
//! The clock-fault knobs are the chaos plane's *time* half: they wrap the
//! node's clock in a [`FaultClock`] with a constant `--clock-skew-us`
//! offset, a proportional `--clock-drift-ppm` drift, and a sudden
//! `--clock-step-ms` step injected halfway through the run. `--no-sync`
//! makes the node ignore the ISM's `SyncAdjust` corrections, so the fault
//! is never repaired — the condition `--order-mode causal` (on the ISM)
//! must survive. `--stamp-hlc` attaches an `X_HLC` hybrid-logical-clock
//! stamp to every record at scoop, which is what causal mode keys on.
//!
//! The `--fault-*` knobs wrap the ISM connection in the brisk-net fault
//! plane: each rate `R` (0.0–1.0) injects the corresponding wire fault
//! per outbound frame, scheduled deterministically from `--fault-seed` —
//! the same seed replays the same fault sequence, so an ISM-side
//! quarantine report can be reproduced exactly. `--fault-kill-after N`
//! severs each connection after N frames.
//!
//! The node outlives its links: the EXS redials whenever a connection dies
//! (a fault-plane kill, or an ISM that crashed and came back) and replays
//! every unacknowledged batch, so the ISM still receives each record
//! exactly once. Each dialed connection gets its dial ordinal as its fault
//! connection id. Only the first dial is checked: an ISM that is
//! unreachable at start is an error. An orderly ISM `Shutdown` ends the
//! node's shipping for good.
//!
//! `--replay DIR` switches to offline mode: instead of generating load, it
//! reads the durable trace a `brisk-ismd --store-dir DIR` run captured and
//! re-drives it through an [`OrderChecker`], reporting recovery results
//! and output-order quality.
//! `--speed F` compresses the original timing by `F` (default: flat out).

use brisk::cli::{ms, on, put, val, Endpoint, Flag, Verdict};
use brisk::lis::runtime::ConnectFn;
use brisk::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The node's flags land in its EXS config and fault plane; the load shape,
/// clock faults and replay mode live beside them.
#[derive(Default)]
struct Args {
    endpoint: Option<Endpoint>,
    exs: ExsConfig,
    fault: FaultSpec,
    node: u32,
    sensors: u32,
    rate: f64,
    duration: Duration,
    causal: bool,
    stats: bool,
    stats_addr: Option<String>,
    replay: Option<String>,
    speed: Option<f64>,
    clock_skew_us: i64,
    clock_drift_ppm: f64,
    clock_step_ms: i64,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    ("--tcp", "HOST:PORT", |a, v| Endpoint::set(&mut a.endpoint, Endpoint::Tcp(v.into()))),
    #[cfg(unix)]
    ("--uds", "PATH", |a, v| Endpoint::set(&mut a.endpoint, Endpoint::Uds(v.into()))),
    ("--node", "N", |a, v| put(&mut a.node, val(v))),
    ("--sensors", "N", |a, v| put(&mut a.sensors, val(v))),
    ("--rate", "EV_PER_S", |a, v| put(&mut a.rate, val(v))),
    ("--duration-s", "N", |a, v| put(&mut a.duration, val(v).map(Duration::from_secs))),
    ("--causal", "", |a, _| on(&mut a.causal)),
    ("--stats", "", |a, _| on(&mut a.stats)),
    ("--stats-addr", "HOST:PORT", |a, v| put(&mut a.stats_addr, val(v).map(Some))),
    ("--trace-sample", "N", |a, v| put(&mut a.exs.trace, val(v).map(TraceConfig::every))),
    ("--heartbeat-interval-ms", "N", |a, v| put(&mut a.exs.heartbeat_interval, ms(v))),
    ("--stamp-hlc", "", |a, _| on(&mut a.exs.stamp_hlc)),
    ("--clock-skew-us", "N", |a, v| put(&mut a.clock_skew_us, val(v))),
    ("--clock-drift-ppm", "F", |a, v| put(&mut a.clock_drift_ppm, val(v))),
    ("--clock-step-ms", "N", |a, v| put(&mut a.clock_step_ms, val(v))),
    ("--no-sync", "", |a, _| on(&mut a.exs.sync_disabled)),
    ("--fault-seed", "N", |a, v| put(&mut a.fault.seed, val(v))),
    ("--fault-corrupt", "R", |a, v| put(&mut a.fault.corrupt_rate, val(v))),
    ("--fault-truncate", "R", |a, v| put(&mut a.fault.truncate_rate, val(v))),
    ("--fault-duplicate", "R", |a, v| put(&mut a.fault.duplicate_rate, val(v))),
    ("--fault-reorder", "R", |a, v| put(&mut a.fault.reorder_rate, val(v))),
    ("--fault-delay", "R", |a, v| put(&mut a.fault.delay_rate, val(v))),
    ("--fault-max-delay-ms", "N", |a, v| put(&mut a.fault.max_delay, ms(v))),
    ("--fault-kill-after", "N", |a, v| put(&mut a.fault.kill_after_frames, val(v).map(Some))),
    ("--replay", "DIR", |a, v| put(&mut a.replay, val(v).map(Some))),
    ("--speed", "F", |a, v| put(&mut a.speed, val(v).map(Some))),
];

/// Cross-flag rules, checked before anything is opened.
fn check(a: &Args) -> Verdict {
    if a.sensors == 0 {
        return Err("--sensors must be at least 1".into());
    }
    a.fault.validate().map_err(|e| e.to_string())
}

/// Offline mode: re-drive a stored trace through the analysis consumers.
fn replay_main(dir: &str, speed: Option<f64>) {
    let reader = StoreReader::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open store {dir}: {e}");
        std::process::exit(1);
    });
    let (records, report) = reader.read_all().unwrap_or_else(|e| {
        eprintln!("cannot read store {dir}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "brisk-load: recovered {} records from {} segments in {dir}\
         \n            (torn tails truncated: {}, torn bytes: {}, corrupt frames: {})",
        report.records,
        report.segments,
        report.torn_tail_truncations,
        report.torn_bytes,
        report.corrupt_frames,
    );
    let replayer = match speed {
        Some(f) => Replayer::at_speed(f),
        None => Replayer::flat_out(),
    };
    let mut checker = OrderChecker::new();
    let mut sink = |rec: &brisk_core::EventRecord| -> brisk_core::Result<()> {
        checker.observe(rec);
        Ok(())
    };
    let stats = replayer.replay(&records, &mut sink).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "brisk-load: replayed {} records in {:?} (trace span {:?}{})",
        stats.records,
        stats.wall,
        stats.trace_span,
        match speed {
            Some(f) => format!(", speed {f}x"),
            None => ", flat out".into(),
        },
    );
    eprintln!(
        "brisk-load: order check: {} records, {} inversions (rate {:.6}), \
         max inversion {} us, {} sequence gaps",
        checker.total(),
        checker.inversions(),
        checker.inversion_rate(),
        checker.max_inversion_us(),
        checker.seq_gaps(),
    );
}

fn main() {
    let defaults = Args {
        node: 1,
        sensors: 2,
        rate: 10_000.0,
        duration: Duration::from_secs(10),
        ..Args::default()
    };
    let args = brisk::cli::parse_env("brisk-load", FLAGS, defaults, check);
    if let Some(dir) = &args.replay {
        replay_main(dir, args.speed);
        return;
    }

    // Clock fault plane: wrap the node's clock so skew/drift/step distort
    // every raw reading (sensors and EXS alike), exactly as a broken
    // oscillator or a misconfigured NTP daemon would.
    let clock_faulted =
        args.clock_skew_us != 0 || args.clock_drift_ppm != 0.0 || args.clock_step_ms != 0;
    let base: Arc<dyn Clock> = Arc::new(SystemClock);
    let fault_clock = clock_faulted
        .then(|| FaultClock::new(Arc::clone(&base), args.clock_skew_us, args.clock_drift_ppm));
    let clock: Arc<dyn Clock> = match &fault_clock {
        Some(f) => Arc::clone(f) as Arc<dyn Clock>,
        None => base,
    };
    if fault_clock.is_some() {
        eprintln!(
            "brisk-load: clock fault plane armed: skew {} us, drift {} ppm, \
             step {} ms at half-run{}",
            args.clock_skew_us,
            args.clock_drift_ppm,
            args.clock_step_ms,
            if args.exs.sync_disabled {
                ", sync disabled"
            } else {
                ""
            },
        );
    }
    let cfg = args.exs;
    if cfg.trace.enabled() {
        eprintln!(
            "brisk-load: self-tracing 1-in-{} notices",
            cfg.trace.sample_every
        );
    }
    let lis = Lis::new(NodeId(args.node), Arc::new(Arc::clone(&clock)), &cfg);
    let endpoint = args.endpoint.unwrap_or_default();
    let first = endpoint.connect().unwrap_or_else(|e| {
        eprintln!("cannot connect to the ISM: {e}");
        std::process::exit(1);
    });
    let fault_stats = (!args.fault.is_noop()).then(|| {
        eprintln!(
            "brisk-load: fault plane armed (seed {}): corrupt {} truncate {} duplicate {} \
             reorder {} delay {} (max {:?}) kill-after {:?}",
            args.fault.seed,
            args.fault.corrupt_rate,
            args.fault.truncate_rate,
            args.fault.duplicate_rate,
            args.fault.reorder_rate,
            args.fault.delay_rate,
            args.fault.max_delay,
            args.fault.kill_after_frames,
        );
        FaultStats::new()
    });
    // The EXS's first dial takes the connection checked above; later ones
    // dial afresh.
    let first = Mutex::new(Some(first));
    let dials = AtomicU64::new(0);
    let (fault, plane) = (args.fault, fault_stats.clone());
    let connect: ConnectFn = Box::new(move || {
        let taken = first.lock().expect("first-dial slot poisoned").take();
        let conn = match taken {
            Some(conn) => conn,
            None => endpoint.connect()?,
        };
        let ordinal = dials.fetch_add(1, Ordering::Relaxed);
        Ok(match &plane {
            Some(stats) => FaultingConnection::wrap(conn, fault, ordinal, Arc::clone(stats)),
            None => conn,
        })
    });
    let exs = spawn_exs_supervised(
        NodeId(args.node),
        Arc::clone(lis.rings()),
        clock,
        connect,
        cfg,
        SupervisorConfig::default(),
    )
    .expect("spawn EXS");
    let registry = (args.stats || args.stats_addr.is_some()).then(|| {
        let registry = Registry::new();
        lis.rings().bind_telemetry(&registry);
        exs.bind_telemetry(&registry);
        if let Some(fs) = &fault_stats {
            fs.bind_telemetry(&registry);
        }
        registry
    });
    let stats_server = args.stats_addr.as_deref().map(|addr| {
        let registry = registry.clone().expect("registry exists with --stats-addr");
        let routes = match &fault_stats {
            Some(fs) => {
                let fs = Arc::clone(fs);
                RouteTable::new().add("/faults", "application/json", move || faults_json(&fs))
            }
            None => RouteTable::new(),
        };
        let server = serve_stats(addr, registry, routes).unwrap_or_else(|e| {
            eprintln!("cannot serve stats on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "brisk-load: stats on http://{0}/metrics (also /json /flight /faults /healthz)",
            server.addr()
        );
        server
    });
    eprintln!(
        "brisk-load: node {} with {} sensors at {} ev/s for {:?}{}",
        args.node,
        args.sensors,
        args.rate,
        args.duration,
        if args.causal {
            " (causally marked)"
        } else {
            ""
        },
    );

    // The step fault fires halfway through the run, so the stream crosses
    // a live discontinuity rather than starting on one.
    let step_thread = (args.clock_step_ms != 0).then(|| {
        let f = Arc::clone(fault_clock.as_ref().expect("step implies fault clock"));
        let delay = args.duration / 2;
        let step_us = args.clock_step_ms * 1_000;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            f.step_by(step_us);
            eprintln!("brisk-load: clock stepped by {step_us} us");
        })
    });

    // One worker thread per sensor, each pacing its share of the rate.
    let per_sensor_rate = args.rate / args.sensors as f64;
    let mut workers = Vec::new();
    for s in 0..args.sensors {
        let mut port = lis.register();
        let clock = Arc::clone(lis.clock());
        let duration = args.duration;
        let causal = args.causal;
        let node = args.node;
        workers.push(std::thread::spawn(move || {
            let interval = Duration::from_secs_f64(1.0 / per_sensor_rate.max(0.001));
            let start = Instant::now();
            let end = start + duration;
            let mut next = start;
            let mut emitted = 0u64;
            let mut dropped = 0u64;
            while start.elapsed() < duration {
                let now = Instant::now();
                if now < next {
                    // Sleep until the next emit or the run's end.
                    std::thread::sleep(next.min(end).saturating_duration_since(now));
                    continue;
                }
                next += interval;
                let ok = if causal && emitted.is_multiple_of(2) {
                    // Mark pairs: even events are reasons, odd the conseqs.
                    let id = CorrelationId((node as u64) << 32 | (s as u64) << 24 | emitted);
                    notice!(
                        port,
                        clock,
                        EventTypeId(1),
                        Value::Reason(id),
                        emitted as i64
                    )
                } else if causal {
                    let id = CorrelationId((node as u64) << 32 | (s as u64) << 24 | (emitted - 1));
                    notice!(
                        port,
                        clock,
                        EventTypeId(2),
                        Value::Conseq(id),
                        emitted as i64
                    )
                } else {
                    notice!(
                        port,
                        clock,
                        EventTypeId(1),
                        emitted as i64,
                        (emitted * 31 % 1_000) as i32,
                        s
                    )
                };
                if ok {
                    emitted += 1;
                } else {
                    dropped += 1;
                }
            }
            (emitted, dropped)
        }));
    }
    let mut total_emitted = 0u64;
    let mut total_dropped = 0u64;
    for w in workers {
        let (e, d) = w.join().expect("worker");
        total_emitted += e;
        total_dropped += d;
    }
    if let Some(t) = step_thread {
        let _ = t.join();
    }
    // Give the EXS a moment to drain the tail, then stop it (flushes).
    std::thread::sleep(Duration::from_millis(100));
    let stats = exs.stop().expect("EXS shutdown");
    // The registry observes the EXS through shared atomics, so the
    // snapshot taken after stop() includes the forced teardown flush.
    if let Some(registry) = &registry {
        eprint!("{}", registry.snapshot().render_table());
    }
    eprintln!(
        "brisk-load: emitted {total_emitted} (dropped {total_dropped}); EXS sent {} records \
         in {} batches over {} connections, answered {} sync polls, applied {} adjustments \
         ({} ignored)",
        stats.records_sent,
        stats.batches_sent,
        stats.link.connects,
        stats.link.sync_replies,
        stats.adjustments,
        stats.sync_ignored,
    );
    if let Some(f) = &fault_clock {
        eprintln!(
            "brisk-load: clock fault plane: raw clock ended {} us off true time",
            f.error_us()
        );
    }
    if let Some(fault_stats) = fault_stats {
        let (corrupted, truncated, duplicated, reordered, delayed, killed) = fault_stats.counts();
        eprintln!(
            "brisk-load: faults injected: {corrupted} corrupted, {truncated} truncated, \
             {duplicated} duplicated, {reordered} reordered, {delayed} delayed, \
             {killed} kills ({} frames clean)",
            fault_stats.clean(),
        );
    }
    if let Some(server) = stats_server {
        server.stop();
    }
}

/// The `/faults` body: per-kind counters plus the bounded event log, so a
/// chaos drill's injected damage is inspectable from the node under test.
fn faults_json(stats: &FaultStats) -> String {
    use std::fmt::Write as _;
    let (corrupted, truncated, duplicated, reordered, delayed, killed) = stats.counts();
    let mut out = String::from("{\"counts\":{");
    let _ = write!(
        out,
        "\"corrupted\":{corrupted},\"truncated\":{truncated},\"duplicated\":{duplicated},\
         \"reordered\":{reordered},\"delayed\":{delayed},\"killed\":{killed},\
         \"clean\":{}}},\"events\":[",
        stats.clean()
    );
    for (i, e) in stats.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match &e.kind {
            brisk::net::FaultKind::Corrupt(_) => "corrupt",
            brisk::net::FaultKind::Truncate { .. } => "truncate",
            brisk::net::FaultKind::Duplicate => "duplicate",
            brisk::net::FaultKind::Reorder => "reorder",
            brisk::net::FaultKind::Delay { .. } => "delay",
            brisk::net::FaultKind::Kill => "kill",
        };
        let _ = write!(
            out,
            "{{\"conn\":{},\"frame\":{},\"kind\":\"{kind}\"}}",
            e.conn, e.frame
        );
    }
    out.push_str("]}");
    out
}
