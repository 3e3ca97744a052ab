//! `brisk-ismd` — the standalone instrumentation system manager daemon.
//!
//! One of the paper's "two executables" (§2): run it once per monitoring
//! domain, point external sensors at it, and read the sorted stream from
//! its outputs. `brisk-ismd --help` lists every flag.
//!
//! `--order-mode causal` switches the merge plane from physical-timestamp
//! order to hybrid-logical-clock order (DESIGN.md, "Causal ordering &
//! clock faults"): the sorter keys on each record's `X_HLC` stamp and the
//! CRE detects tachyons by provable happened-before instead of timestamp
//! heuristics, so reason→consequence order survives nodes whose clocks
//! are seconds wrong. Records without a stamp sort by their physical
//! timestamp, so mixed fleets degrade gracefully.
//!
//! `--upstream` + `--node-prefix` switch the daemon into *relay mode*
//! (DESIGN.md, "Relay topology"): it still accepts downstream EXS or
//! relay connections, sorts and CRE-repairs their merged stream, but then
//! re-exports that stream to the upstream ISM over one sequenced,
//! credit-controlled link — exactly as if the whole subtree were a single
//! external sensor. Every subtree node id is rewritten under the given
//! prefix (1..=255) so the root sees a flat, collision-free namespace;
//! trees compose by chaining relays tier over tier.
//!
//! `--stats-addr` serves the full telemetry registry as Prometheus text
//! exposition (`curl http://HOST:PORT/metrics`); the same registry backs
//! the periodic stats dump on stderr.
//!
//! `--store-dir` turns on the durable trace store: every sorted record is
//! appended to CRC-framed segment files under the directory, surviving ISM
//! crashes (reopening repairs torn tails) and replayable afterwards with
//! `brisk-load --replay DIR`.
//!
//! `--credit-records` sizes the credit grant (default 2048): each EXS
//! connection may have at most N records unacknowledged in flight, so a
//! slow ISM pushes backpressure out to the sensors' rings instead of
//! buffering unboundedly. That grant is the ISM's whole ingest bound: one
//! loop thread pushes every batch it reads straight into the pipeline.
//!
//! `--stats-addr` also serves the observability endpoints: `/json`
//! (snapshot), `/flight` (the always-on flight recorder's recent
//! structured events; ring size set by `--flight-size`, level filter by
//! the `BRISK_LOG` env var), `/quarantine` (malformed-frame samples as
//! hex), `/trace` (per-stage latency exemplars for `brisk-trace`), and a
//! readiness-aware `/healthz`. A panic anywhere in the daemon dumps the
//! flight ring to stderr before unwinding.
//!
//! One poll-based reactor thread drives every EXS connection, whatever
//! the connection count: a thousand sensors share it.
//!
//! `--node-timeout` evicts a node whose connection sent no frame for the
//! given interval — a half-open TCP connection otherwise holds the node's
//! claim forever, and the node's reconnects are refused.
//! `--error-budget` caps how many undecodable frames one connection may
//! deliver before it is quarantined and dropped (clean peers are
//! unaffected; the offender reconnects with a fresh budget).
//!
//! Runs until stdin closes or a line `quit` arrives (daemon managers send
//! EOF; interactive users type quit), then flushes and prints a final
//! report.

use brisk::cli::{ms, put, val, Endpoint, Flag, Verdict};
use brisk::prelude::*;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// The daemon's flags land in the ISM, sync and compaction configs; only
/// what is not config lives beside them.
#[derive(Default)]
struct Args {
    endpoint: Option<Endpoint>,
    ism: IsmConfig,
    sync: SyncConfig,
    compact: CompactConfig,
    compact_interval: Option<Duration>,
    upstream: Option<String>,
    node_prefix: Option<NodePrefix>,
    picl: Option<String>,
    ts_secs: bool,
    stats_every: Duration,
    stats_addr: Option<String>,
    flight_size: Option<usize>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    ("--tcp", "HOST:PORT", |a, v| Endpoint::set(&mut a.endpoint, Endpoint::Tcp(v.into()))),
    #[cfg(unix)]
    ("--uds", "PATH", |a, v| Endpoint::set(&mut a.endpoint, Endpoint::Uds(v.into()))),
    ("--picl", "FILE", |a, v| put(&mut a.picl, val(v).map(Some))),
    ("--ts", "utc|secs", |a, v| put(&mut a.ts_secs, match v {
        "utc" => Ok(false),
        "secs" => Ok(true),
        _ => Err(format!("unknown mode {v:?}")),
    })),
    ("--order-mode", "physical|causal", |a, v| put(&mut a.ism.order_mode, OrderMode::parse(v))),
    ("--upstream", "HOST:PORT", |a, v| put(&mut a.upstream, val(v).map(Some))),
    ("--node-prefix", "N", |a, v| put(&mut a.node_prefix, NodePrefix::new(val(v)?).map(Some))),
    ("--poll-period-ms", "N", |a, v| put(&mut a.sync.poll_period, ms(v))),
    ("--stats-every-s", "N", |a, v| put(&mut a.stats_every, val(v).map(Duration::from_secs))),
    ("--stats-addr", "HOST:PORT", |a, v| put(&mut a.stats_addr, val(v).map(Some))),
    ("--store-dir", "DIR", |a, v| put(&mut a.ism.store.dir, val(v).map(Some))),
    ("--fsync", "always|never|interval:MS", |a, v| put(&mut a.ism.store.fsync, FsyncPolicy::parse(v))),
    ("--retain-bytes", "N", |a, v| put(&mut a.ism.store.retain_bytes, val(v))),
    ("--segment-bytes", "N", |a, v| put(&mut a.ism.store.segment_bytes, val(v))),
    ("--credit-records", "N", |a, v| put(&mut a.ism.flow.credit_records, val(v))),
    ("--node-timeout", "MS", |a, v| put(&mut a.ism.node_timeout, ms(v).map(Some))),
    ("--error-budget", "N", |a, v| put(&mut a.ism.protocol_error_budget, val(v))),
    ("--flight-size", "N", |a, v| put(&mut a.flight_size, val(v).map(Some))),
    ("--compact-interval-ms", "N", |a, v| put(&mut a.compact_interval, ms(v).map(Some))),
    ("--compact-keep-hot", "N", |a, v| put(&mut a.compact.keep_hot, val(v))),
];

/// Cross-flag rules, checked before anything is opened.
fn check(a: &Args) -> Verdict {
    if a.upstream.is_some() != a.node_prefix.is_some() {
        return Err("relay mode needs both --upstream and --node-prefix".into());
    }
    if a.compact_interval.is_some() && a.ism.store.dir.is_none() {
        return Err("--compact-interval-ms needs --store-dir".into());
    }
    Ok(())
}

/// Stable stage name for a wire code (used by the `/trace` endpoint).
fn stage_name(code: u8) -> &'static str {
    TraceStage::from_code(code)
        .map(|s| s.name())
        .unwrap_or("unknown")
}

/// Render the quarantine log (counters + retained hex samples) as JSON.
fn quarantine_json(log: &QuarantineLog) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"frames\":{},\"disconnects\":{},\"samples\":[",
        log.frames(),
        log.disconnects()
    );
    for (i, s) in log.samples().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let error = s.error.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(
            out,
            "{{\"node\":{},\"len\":{},\"head_hex\":\"{}\",\"error\":\"{error}\"}}",
            s.node.0, s.len, s.head_hex
        );
    }
    out.push_str("]}");
    out
}

fn main() {
    let defaults = Args {
        stats_every: Duration::from_secs(10),
        ..Args::default()
    };
    let args = brisk::cli::parse_env("brisk-ismd", FLAGS, defaults, check);

    // Always-on flight recorder: size the ring before anything records
    // into it, and make sure a panic dumps it to stderr on the way out.
    if let Some(n) = args.flight_size {
        set_flight_capacity(n);
    }
    install_flight_panic_hook();

    // Relay mode shares one corrected clock between the server (receive
    // stamps, sync mastering over this tier's children) and the upstream
    // exporter (answers the parent's SyncPolls, applies its SyncAdjusts),
    // so the parent ISM steers this whole subtree's timeline.
    let relay_clock = args
        .upstream
        .as_ref()
        .map(|_| CorrectedClock::new(Arc::new(SystemClock) as Arc<dyn Clock>));
    let server_clock: Arc<dyn Clock> = match &relay_clock {
        Some(c) => Arc::clone(c) as Arc<dyn Clock>,
        None => Arc::new(SystemClock),
    };
    let mut server = IsmServer::new(args.ism.clone(), args.sync, Arc::clone(&server_clock))
        .unwrap_or_else(|e| {
            eprintln!("cannot start ISM: {e}");
            std::process::exit(1);
        });
    if let (Some(addr), Some(prefix)) = (&args.upstream, args.node_prefix) {
        let dial = addr.clone();
        let mut exporter = UpstreamExporter::new(
            RelayConfig::new(prefix),
            Box::new(move || TcpTransport.connect(&dial)),
            Arc::clone(&server_clock),
        );
        if let Some(c) = &relay_clock {
            exporter = exporter.with_sync_clock(Arc::clone(c));
        }
        server.set_upstream(exporter);
        eprintln!(
            "relay mode: merged stream re-exported to {addr} under node prefix {}",
            prefix.raw()
        );
    }
    let store = &args.ism.store;
    if let Some(dir) = &store.dir {
        eprintln!(
            "durable store -> {} (fsync {:?})",
            dir.display(),
            store.fsync
        );
    }
    if args.ism.order_mode == OrderMode::Causal {
        eprintln!("causal order mode: merge plane keys on X_HLC stamps");
    }
    let flow = args.ism.flow;
    if flow != FlowConfig::default() {
        eprintln!("flow control: credit {} records/conn", flow.credit_records);
    }

    let registry = Registry::new();
    server.bind_telemetry(&registry);

    if let Some(path) = &args.picl {
        let mode = if args.ts_secs {
            TsMode::SecondsSince(UtcMicros::now())
        } else {
            TsMode::Utc
        };
        let sink = PiclFileSink::from_path(path, mode).unwrap_or_else(|e| {
            eprintln!("cannot create PICL file {path}: {e}");
            std::process::exit(1);
        });
        server.core_mut().add_sink(Box::new(sink));
        eprintln!("PICL trace -> {path}");
    }

    let endpoint = args.endpoint.unwrap_or_default();
    let listener = endpoint.listen().unwrap_or_else(|e| {
        eprintln!("cannot bind {endpoint}: {e}");
        std::process::exit(1);
    });
    let handle = server.spawn(listener).expect("spawn ISM");
    eprintln!("brisk-ismd listening on {}", handle.addr());
    eprintln!("send `quit` or close stdin to stop");

    // Stats endpoint, started after spawn so routes can serve live server
    // state (quarantine samples, trace exemplars, delivered counts).
    let stats_server = args.stats_addr.as_deref().map(|addr| {
        let quarantine = Arc::clone(handle.quarantine());
        let stages = handle.stage_latencies().cloned();
        let ready_memory = Arc::clone(handle.memory());
        let routes = RouteTable::new()
            .add("/quarantine", "application/json", move || {
                quarantine_json(&quarantine)
            })
            .add("/trace", "application/json", move || match &stages {
                Some(s) => s.exemplars_json(stage_name),
                None => "{\"stages\":[]}".into(),
            })
            .add("/healthz", "application/json", move || {
                format!(
                    "{{\"status\":\"ok\",\"ready\":true,\"records_delivered\":{},\
                     \"flight_recorded\":{}}}",
                    ready_memory.written(),
                    flight().recorded()
                )
            });
        let s = serve_stats(addr, Arc::clone(&registry), routes).unwrap_or_else(|e| {
            eprintln!("cannot bind stats endpoint {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "stats on http://{0}/metrics (also /json /flight /quarantine /trace /healthz)",
            s.addr()
        );
        s
    });

    // Periodic stats on stderr; stop on stdin EOF / `quit`.
    let memory = Arc::clone(handle.memory());
    let stats_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Background compaction: periodically rewrite cold sealed segments
    // into the dictionary/delta format. Runs in its own thread against
    // the store directory — readers (including this process's writer)
    // see the swap atomically via rename.
    let compact_thread = args.compact_interval.map(|every| {
        let dir = args.ism.store.dir.clone().expect("validated by check");
        let cfg = args.compact.clone();
        let stop = Arc::clone(&stats_stop);
        let registry = Arc::clone(&registry);
        eprintln!(
            "background compaction every {every:?} (keeping {} sealed segments hot)",
            cfg.keep_hot
        );
        std::thread::spawn(move || {
            let compactor = Compactor::new(&dir, cfg);
            compactor.bind_telemetry(&registry);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(every);
                if let Err(e) = compactor.run_once() {
                    eprintln!("[ismd] compaction pass failed: {e}");
                }
            }
        })
    });
    let stats_thread = {
        let stop = Arc::clone(&stats_stop);
        let every = args.stats_every;
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(every);
                let written = memory.written();
                eprintln!(
                    "[ismd] records delivered: {written} (+{} since last)",
                    written - last
                );
                eprint!("{}", registry.snapshot().render_table());
                last = written;
            }
        })
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    stats_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let report = handle.stop().expect("orderly ISM shutdown");
    let _ = stats_thread.join();
    if let Some(t) = compact_thread {
        let _ = t.join();
    }
    if let Some(s) = stats_server {
        s.stop();
    }
    eprint!("{}", registry.snapshot().render_table());
    eprintln!(
        "[ismd] final: {} records in, {} out, {} batches, {} sync rounds, {} tachyons repaired",
        report.core.records_in,
        report.core.records_out,
        report.core.batches_in,
        report.sync_rounds,
        report.cre.tachyons_repaired,
    );
    if let Some(relay) = &report.relay {
        eprintln!(
            "[ismd] relay: {} records exported upstream in {} batches \
             ({} retransmitted, {} acks, {} heartbeats)",
            relay.records_exported,
            relay.batches_exported,
            relay.link.batches_retransmitted,
            relay.link.acks_received,
            relay.link.heartbeats_sent,
        );
    }
}
