//! `brisk-ismd` — the standalone instrumentation system manager daemon.
//!
//! One of the paper's "two executables" (§2): run it once per monitoring
//! domain, point external sensors at it, and read the sorted stream from
//! its outputs.
//!
//! ```text
//! brisk-ismd [--tcp HOST:PORT | --uds PATH] [--picl FILE] [--ts utc|secs]
//!            [--order-mode physical|causal]
//!            [--upstream HOST:PORT --node-prefix N]
//!            [--poll-period-ms N] [--stats-every-s N] [--stats-addr HOST:PORT]
//!            [--store-dir DIR] [--fsync always|never|interval:MS]
//!            [--retain-bytes N] [--segment-bytes N]
//!            [--credit-records N] [--max-queued-records N] [--shed-unmarked]
//!            [--node-timeout MS] [--error-budget N] [--pump-threads N]
//! ```
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
//! `--credit-records` turns on credit flow control: each EXS
//! connection may have at most N records unacknowledged in flight, so a
//! slow ISM pushes backpressure out to the sensors' rings instead of
//! buffering unboundedly. `--max-queued-records` bounds the pump→manager
//! queue (pumps stop reading their sockets while it is over the limit),
//! and `--shed-unmarked` switches the sorter's memory-pressure response
//! from force-release to dropping the oldest unmarked (never CRE-marked)
//! records.
//!
//! `--stats-addr` also serves the observability endpoints: `/json`
//! (snapshot), `/flight` (the always-on flight recorder's recent
//! structured events; ring size set by `--flight-size`, level filter by
//! the `BRISK_LOG` env var), `/quarantine` (malformed-frame samples as
//! hex), `/trace` (per-stage latency exemplars for `brisk-trace`), and a
//! readiness-aware `/healthz`. A panic anywhere in the daemon dumps the
//! flight ring to stderr before unwinding.
//!
//! `--pump-threads` sizes the poll-based reactor pool that drives every
//! EXS connection (0 = auto: available parallelism capped at 4). The pool
//! is bounded regardless of connection count — a thousand sensors share
//! the same handful of reactor threads.
//!
//! `--node-timeout` evicts a node whose connection has gone silent (no
//! batches, sync replies, or heartbeats) for the given interval — a
//! half-open TCP connection otherwise ties the node's pump up forever.
//! `--error-budget` caps how many undecodable frames one connection may
//! deliver before it is quarantined and dropped (clean peers are
//! unaffected; the offender reconnects with a fresh budget).
//!
//! Runs until stdin closes or a line `quit` arrives (daemon managers send
//! EOF; interactive users type quit), then flushes and prints a final
//! report.

use brisk::prelude::*;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    tcp: Option<String>,
    #[cfg(unix)]
    uds: Option<String>,
    upstream: Option<String>,
    node_prefix: Option<u32>,
    picl: Option<String>,
    ts_secs: bool,
    order_mode: OrderMode,
    poll_period: Duration,
    stats_every: Duration,
    stats_addr: Option<String>,
    store: StoreConfig,
    flow: FlowConfig,
    node_timeout: Option<Duration>,
    error_budget: u32,
    pump_threads: usize,
    flight_size: Option<usize>,
    compact_interval: Option<Duration>,
    compact_keep_hot: usize,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        tcp: None,
        #[cfg(unix)]
        uds: None,
        upstream: None,
        node_prefix: None,
        picl: None,
        ts_secs: false,
        order_mode: OrderMode::default(),
        poll_period: Duration::from_secs(5),
        stats_every: Duration::from_secs(10),
        stats_addr: None,
        store: StoreConfig::default(),
        flow: FlowConfig::default(),
        node_timeout: IsmConfig::default().node_timeout,
        error_budget: IsmConfig::default().protocol_error_budget,
        pump_threads: IsmConfig::default().pump_threads,
        flight_size: None,
        compact_interval: None,
        compact_keep_hot: CompactConfig::default().keep_hot,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(val("--tcp")?),
            #[cfg(unix)]
            "--uds" => args.uds = Some(val("--uds")?),
            "--upstream" => args.upstream = Some(val("--upstream")?),
            "--node-prefix" => {
                args.node_prefix = Some(
                    val("--node-prefix")?
                        .parse()
                        .map_err(|e| format!("bad --node-prefix: {e}"))?,
                )
            }
            "--picl" => args.picl = Some(val("--picl")?),
            "--order-mode" => {
                args.order_mode = OrderMode::parse(&val("--order-mode")?)
                    .map_err(|e| format!("bad --order-mode: {e}"))?
            }
            "--ts" => {
                args.ts_secs = match val("--ts")?.as_str() {
                    "utc" => false,
                    "secs" => true,
                    other => return Err(format!("unknown --ts mode {other:?}")),
                }
            }
            "--poll-period-ms" => {
                args.poll_period = Duration::from_millis(
                    val("--poll-period-ms")?
                        .parse()
                        .map_err(|e| format!("bad --poll-period-ms: {e}"))?,
                )
            }
            "--stats-every-s" => {
                args.stats_every = Duration::from_secs(
                    val("--stats-every-s")?
                        .parse()
                        .map_err(|e| format!("bad --stats-every-s: {e}"))?,
                )
            }
            "--stats-addr" => args.stats_addr = Some(val("--stats-addr")?),
            "--store-dir" => args.store.dir = Some(val("--store-dir")?.into()),
            "--fsync" => {
                args.store.fsync =
                    FsyncPolicy::parse(&val("--fsync")?).map_err(|e| format!("bad --fsync: {e}"))?
            }
            "--retain-bytes" => {
                args.store.retain_bytes = val("--retain-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --retain-bytes: {e}"))?
            }
            "--segment-bytes" => {
                args.store.segment_bytes = val("--segment-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --segment-bytes: {e}"))?
            }
            "--credit-records" => {
                args.flow.credit_records = val("--credit-records")?
                    .parse()
                    .map_err(|e| format!("bad --credit-records: {e}"))?
            }
            "--max-queued-records" => {
                args.flow.max_queued_records = val("--max-queued-records")?
                    .parse()
                    .map_err(|e| format!("bad --max-queued-records: {e}"))?
            }
            "--shed-unmarked" => args.flow.shed_unmarked = true,
            "--node-timeout" => {
                args.node_timeout = Some(Duration::from_millis(
                    val("--node-timeout")?
                        .parse()
                        .map_err(|e| format!("bad --node-timeout: {e}"))?,
                ))
            }
            "--error-budget" => {
                args.error_budget = val("--error-budget")?
                    .parse()
                    .map_err(|e| format!("bad --error-budget: {e}"))?
            }
            "--pump-threads" => {
                args.pump_threads = val("--pump-threads")?
                    .parse()
                    .map_err(|e| format!("bad --pump-threads: {e}"))?
            }
            "--flight-size" => {
                args.flight_size = Some(
                    val("--flight-size")?
                        .parse()
                        .map_err(|e| format!("bad --flight-size: {e}"))?,
                )
            }
            "--compact-interval-ms" => {
                args.compact_interval = Some(Duration::from_millis(
                    val("--compact-interval-ms")?
                        .parse()
                        .map_err(|e| format!("bad --compact-interval-ms: {e}"))?,
                ))
            }
            "--compact-keep-hot" => {
                args.compact_keep_hot = val("--compact-keep-hot")?
                    .parse()
                    .map_err(|e| format!("bad --compact-keep-hot: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: brisk-ismd [--tcp HOST:PORT | --uds PATH] [--picl FILE] \
                            [--order-mode physical|causal] \
                            [--upstream HOST:PORT --node-prefix N] \
                            [--ts utc|secs] [--poll-period-ms N] [--stats-every-s N] \
                            [--stats-addr HOST:PORT] [--store-dir DIR] \
                            [--fsync always|never|interval:MS] [--retain-bytes N] \
                            [--segment-bytes N] [--credit-records N] \
                            [--max-queued-records N] [--shed-unmarked] \
                            [--node-timeout MS] [--error-budget N] \
                            [--pump-threads N] [--flight-size N] \
                            [--compact-interval-ms N] [--compact-keep-hot N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.upstream.is_some() != args.node_prefix.is_some() {
        return Err("relay mode needs both --upstream and --node-prefix".into());
    }
    if args.compact_interval.is_some() && args.store.dir.is_none() {
        return Err("--compact-interval-ms needs --store-dir".into());
    }
    Ok(args)
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // Always-on flight recorder: size the ring before anything records
    // into it, and make sure a panic dumps it to stderr on the way out.
    if let Some(n) = args.flight_size {
        set_flight_capacity(n);
    }
    install_flight_panic_hook();

    let ism_cfg = IsmConfig {
        store: args.store.clone(),
        flow: args.flow,
        order_mode: args.order_mode,
        node_timeout: args.node_timeout,
        protocol_error_budget: args.error_budget,
        pump_threads: args.pump_threads,
        ..IsmConfig::default()
    };
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
    let mut server = IsmServer::new(
        ism_cfg,
        SyncConfig {
            poll_period: args.poll_period,
            ..SyncConfig::default()
        },
        Arc::clone(&server_clock),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start ISM: {e}");
        std::process::exit(1);
    });
    if let (Some(addr), Some(raw_prefix)) = (&args.upstream, args.node_prefix) {
        let prefix = NodePrefix::new(raw_prefix).unwrap_or_else(|e| {
            eprintln!("bad --node-prefix: {e}");
            std::process::exit(2);
        });
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
        eprintln!("relay mode: merged stream re-exported to {addr} under node prefix {raw_prefix}");
    }
    if let Some(dir) = &args.store.dir {
        eprintln!(
            "durable store -> {} (fsync {:?})",
            dir.display(),
            args.store.fsync
        );
    }
    if args.order_mode == OrderMode::Causal {
        eprintln!("causal order mode: merge plane keys on X_HLC stamps");
    }
    if args.flow != FlowConfig::default() {
        eprintln!(
            "flow control: credit {} records/conn, queue bound {} records, shed-unmarked {}",
            args.flow.credit_records, args.flow.max_queued_records, args.flow.shed_unmarked
        );
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

    // Bind the requested transport (TCP by default).
    let listener = {
        #[cfg(unix)]
        if let Some(path) = &args.uds {
            brisk::net::UdsTransport.listen(path).unwrap_or_else(|e| {
                eprintln!("cannot bind unix socket {path}: {e}");
                std::process::exit(1);
            })
        } else {
            let addr = args.tcp.as_deref().unwrap_or("127.0.0.1:7787");
            TcpTransport.listen(addr).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1);
            })
        }
        #[cfg(not(unix))]
        {
            let addr = args.tcp.as_deref().unwrap_or("127.0.0.1:7787");
            TcpTransport.listen(addr).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1);
            })
        }
    };
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
        let dir = args.store.dir.clone().expect("validated in parse_args");
        let keep_hot = args.compact_keep_hot;
        let stop = Arc::clone(&stats_stop);
        let registry = Arc::clone(&registry);
        eprintln!("background compaction every {every:?} (keeping {keep_hot} sealed segments hot)");
        std::thread::spawn(move || {
            let compactor = Compactor::new(
                &dir,
                CompactConfig {
                    keep_hot,
                    ..CompactConfig::default()
                },
            );
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
            relay.batches_retransmitted,
            relay.acks_received,
            relay.heartbeats_sent,
        );
    }
}
