//! Workspace integration tests: credit-based flow control under overload.
//!
//! Fault model: the ISM's consumer stalls (a sink that blocks the ISM's
//! loop), so the ISM stops reading and acking. The v3 credit budget must
//! turn that into backpressure that reaches the EXS — bounded residency
//! everywhere — and the whole pipeline must resume without loss or
//! deadlock once the consumer recovers.

use brisk::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sink that blocks the ISM's loop while the gate is closed.
struct StallingSink(Arc<AtomicBool>);

impl EventSink for StallingSink {
    fn on_record(&mut self, _rec: &EventRecord) -> Result<()> {
        while self.0.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

const CREDIT: u64 = 1_024;
const BATCH: usize = 16;

/// While the consumer is stalled, record residency inside the ISM is
/// bounded by the configured credit (the excess stays in the EXS rings);
/// when the consumer recovers, every record is delivered exactly once with
/// no deadlock.
#[test]
fn slow_consumer_backpressure_bounds_residency_then_recovers() {
    let transport = MemTransport::new();
    let mut server = IsmServer::new(
        IsmConfig {
            flow: FlowConfig {
                credit_records: CREDIT,
                shed_unmarked: false,
                ..FlowConfig::default()
            },
            // Release records as soon as they arrive so the stalled sink
            // blocks the loop right away — otherwise the whole backlog
            // would slip into the sorter before the first release.
            sorter: SorterConfig {
                initial_frame_us: 0,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        },
        SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let registry = Registry::new();
    server.bind_telemetry(&registry);
    let stalled = Arc::new(AtomicBool::new(true));
    server
        .core_mut()
        .add_sink(Box::new(StallingSink(Arc::clone(&stalled))));
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();

    let rings = RingSet::new(NodeId(1), 1 << 20);
    let mut port = rings.register();
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        transport.connect("ism").unwrap(),
        ExsConfig {
            max_batch_records: BATCH,
            flush_timeout: Duration::from_millis(1),
            ..ExsConfig::default()
        },
    )
    .unwrap();
    exs.bind_telemetry(&registry);

    const N: i32 = 5_000;
    for i in 0..N {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
    }

    // Overload phase: wait until backpressure is visibly active — the EXS
    // pausing its ring scoops (credit exhausted).
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let snap = registry.snapshot();
        if snap.counter_total("brisk_exs_credit_deferred_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure never engaged: {}",
            snap.to_prometheus()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Bounded residency while stalled: the ISM took in no more than the
    // credit plus one batch, the EXS never had more than its credit
    // unacknowledged, and almost nothing reached the output. The rest of
    // the backlog is still in the SPSC rings.
    let snap = registry.snapshot();
    let records_in = snap.counter_total("brisk_ism_records_in_total");
    assert!(
        records_in <= CREDIT + BATCH as u64,
        "the stalled ISM took in {records_in} records, over credit {CREDIT} + one batch"
    );
    let unacked = exs.stats_now().credit_deferrals;
    assert!(unacked >= 1, "the EXS must have paused on spent credit");
    assert!(
        ism.memory().written() <= CREDIT,
        "records slipped past the stalled sink: {}",
        ism.memory().written()
    );

    // Recovery: open the gate; the pipeline must drain the rings and the
    // sorter with no deadlock and exactly-once delivery.
    stalled.store(false, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(30);
    while ism.memory().written() < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        ism.memory().written(),
        N as u64,
        "recovery must deliver every record exactly once"
    );

    let stats = exs.stop().unwrap();
    assert_eq!(stats.records_drained, N as u64, "nothing lost in the rings");
    assert!(stats.credit_deferrals >= 1);

    // The whole story is visible in the Prometheus export.
    let snap = registry.snapshot();
    assert!(snap.counter_total("brisk_ism_credit_grants_total") >= 1);
    assert!(
        snap.histogram("brisk_ism_grant_latency_us")
            .unwrap()
            .count()
            >= 1
    );
    assert_eq!(
        snap.counter_total("brisk_ism_shed_total"),
        0,
        "no shedding configured, so nothing may be dropped"
    );
    let text = snap.to_prometheus();
    for series in [
        "brisk_ism_credit_grants_total",
        "brisk_ism_shed_total",
        "brisk_exs_credit_deferred_total",
        "brisk_uplink_credit_balance",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }

    let report = ism.stop().unwrap();
    assert_eq!(report.core.records_in, N as u64);
}

/// N scraper threads hammer `/metrics` and `/json` while the pipeline is
/// overloaded and while it recovers: every response must be well-formed,
/// no thread may panic, and the counters each thread observes must be
/// monotonic — scrapes are consistent snapshots, never torn mid-update.
#[test]
fn concurrent_scrapes_are_never_torn_during_overload() {
    const SCRAPERS: usize = 4;
    let transport = MemTransport::new();
    let mut server = IsmServer::new(
        IsmConfig {
            flow: FlowConfig {
                credit_records: CREDIT,
                shed_unmarked: false,
                ..FlowConfig::default()
            },
            sorter: SorterConfig {
                initial_frame_us: 0,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        },
        SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let registry = Registry::new();
    server.bind_telemetry(&registry);
    let stalled = Arc::new(AtomicBool::new(true));
    server
        .core_mut()
        .add_sink(Box::new(StallingSink(Arc::clone(&stalled))));
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();

    let rings = RingSet::new(NodeId(1), 1 << 20);
    let mut port = rings.register();
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        transport.connect("ism").unwrap(),
        ExsConfig {
            max_batch_records: BATCH,
            flush_timeout: Duration::from_millis(1),
            ..ExsConfig::default()
        },
    )
    .unwrap();
    exs.bind_telemetry(&registry);
    const N: i32 = 4_000;
    for i in 0..N {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
    }

    let stats = serve_stats("127.0.0.1:0", Arc::clone(&registry), RouteTable::new()).unwrap();
    let addr = stats.addr().to_string();
    let done = Arc::new(AtomicBool::new(false));
    // Scrapers that have completed two rounds.
    let warmed = Arc::new(AtomicUsize::new(0));
    let scrapers: Vec<_> = (0..SCRAPERS)
        .map(|_| {
            let addr = addr.clone();
            let done = Arc::clone(&done);
            let warmed = Arc::clone(&warmed);
            std::thread::spawn(move || {
                let fetch = |path: &str| -> String {
                    use std::io::{Read, Write};
                    let mut s = std::net::TcpStream::connect(&addr).unwrap();
                    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                        .unwrap();
                    let mut resp = String::new();
                    s.read_to_string(&mut resp).unwrap();
                    let (head, body) = resp.split_once("\r\n\r\n").unwrap();
                    assert!(head.starts_with("HTTP/1.0 200"), "bad status: {head}");
                    body.to_string()
                };
                let mut scrapes = 0u64;
                let mut last_sent = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let body = fetch("/metrics");
                    let mut sent = None;
                    for line in body
                        .lines()
                        .filter(|l| !l.starts_with('#') && !l.is_empty())
                    {
                        let (series, value) = line
                            .rsplit_once(' ')
                            .unwrap_or_else(|| panic!("unparseable line {line:?}"));
                        assert!(series.starts_with("brisk_"), "bad series in {line:?}");
                        let v: f64 = value
                            .parse()
                            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
                        let name = series.split('{').next().unwrap_or(series);
                        if name == "brisk_exs_records_sent_total" {
                            *sent.get_or_insert(0) += v as u64;
                        }
                    }
                    // Counters only ever move forward between scrapes.
                    let sent = sent.expect("scrape must include the sent counter");
                    assert!(
                        sent >= last_sent,
                        "counter went backwards: {sent} < {last_sent}"
                    );
                    last_sent = sent;
                    let json = fetch("/json");
                    assert!(
                        json.starts_with('{') && json.ends_with('}'),
                        "torn json body: {json:?}"
                    );
                    scrapes += 1;
                    if scrapes == 2 {
                        warmed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                scrapes
            })
        })
        .collect();

    // Hold the stall until the EXS waits on credit and every scraper has
    // completed two rounds of the overloaded state, then recover and drain
    // while they are still hammering.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (registry
        .snapshot()
        .counter_total("brisk_exs_credit_deferred_total")
        == 0
        || warmed.load(Ordering::Relaxed) < SCRAPERS)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    stalled.store(false, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(30);
    while ism.memory().written() < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(ism.memory().written(), N as u64);

    done.store(true, Ordering::Relaxed);
    for s in scrapers {
        let scrapes = s.join().expect("scraper thread must not panic");
        assert!(scrapes >= 2, "each scraper must complete several rounds");
    }
    stats.stop();
    exs.stop().unwrap();
    ism.stop().unwrap();
}

/// Under sorter memory pressure with the shedding policy on, unmarked
/// records are dropped (and counted) but CRE-marked records are never
/// lost, end to end through the real transport.
#[test]
fn shed_policy_never_drops_cre_marked_records() {
    let transport = MemTransport::new();
    let mut server = IsmServer::new(
        IsmConfig {
            flow: FlowConfig {
                shed_unmarked: true,
                ..FlowConfig::default()
            },
            // A huge frame keeps everything buffered in the sorter so the
            // tiny bound below forces the overload path.
            sorter: SorterConfig {
                initial_frame_us: 1_000_000,
                min_frame_us: 1_000_000,
                max_frame_us: 2_000_000,
                decay_factor: 1.0,
                ..SorterConfig::default()
            },
            max_buffered_records: 64,
            ..IsmConfig::default()
        },
        SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let registry = Registry::new();
    server.bind_telemetry(&registry);
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();
    let mut reader = ism.memory().reader();

    let rings = RingSet::new(NodeId(2), 1 << 20);
    let mut port = rings.register();
    let exs = spawn_exs(
        NodeId(2),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        transport.connect("ism").unwrap(),
        ExsConfig {
            flush_timeout: Duration::from_millis(1),
            ..ExsConfig::default()
        },
    )
    .unwrap();

    // 500 plain records with a CRE-marked one every 25th.
    const N: i32 = 500;
    let mut marked = 0u64;
    for i in 0..N {
        if i % 25 == 0 {
            marked += 1;
            port.emit(
                EventTypeId(2),
                UtcMicros::now(),
                vec![Value::Reason(CorrelationId(i as u64)), Value::I32(i)],
            )
            .unwrap();
        } else {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
    }

    // Memory pressure must engage and shed plain records.
    let deadline = Instant::now() + Duration::from_secs(15);
    while registry.snapshot().counter_total("brisk_ism_shed_total") == 0 {
        assert!(Instant::now() < deadline, "shedding never engaged");
        std::thread::sleep(Duration::from_millis(5));
    }

    exs.stop().unwrap();
    let report = ism.stop().unwrap();

    // Every CRE-marked record survived; the losses are all unmarked and
    // all accounted for.
    let (records, missed) = reader.poll().unwrap();
    assert_eq!(missed, 0, "the memory buffer itself must not have evicted");
    let delivered_marked = records.iter().filter(|r| r.is_causally_marked()).count();
    assert_eq!(
        delivered_marked as u64, marked,
        "CRE-marked records are never shed"
    );
    let shed = registry.snapshot().counter_total("brisk_ism_shed_total");
    assert!(shed >= 1, "pressure must have shed unmarked records");
    assert_eq!(
        records.len() as u64 + shed,
        report.core.records_in,
        "released + shed must account for every record the core accepted"
    );
}
