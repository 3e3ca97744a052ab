//! Workspace integration tests: the full LIS → TP → ISM → consumer path.

use brisk::core as brisk_core;
use brisk::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_for<T>(mut poll: impl FnMut() -> Vec<T>, expect: usize, timeout: Duration) -> Vec<T> {
    let deadline = Instant::now() + timeout;
    let mut got = Vec::new();
    while got.len() < expect && Instant::now() < deadline {
        got.extend(poll());
        std::thread::sleep(Duration::from_millis(5));
    }
    got
}

fn start_mem_ism(sync_period: Duration) -> (brisk::ism::IsmHandle, Arc<MemTransport>) {
    start_mem_ism_with(sync_period, IsmConfig::default())
}

fn start_mem_ism_with(
    sync_period: Duration,
    ism_cfg: IsmConfig,
) -> (brisk::ism::IsmHandle, Arc<MemTransport>) {
    let transport = MemTransport::new();
    let listener = transport.listen("ism").unwrap();
    let server = IsmServer::new(
        ism_cfg,
        SyncConfig {
            poll_period: sync_period,
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    (server.spawn(listener).unwrap(), transport)
}

#[test]
fn single_node_events_arrive_sorted_and_complete() {
    let (ism, transport) = start_mem_ism(Duration::from_secs(3600));
    let mut reader = ism.memory().reader();
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(1), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(lis.rings()),
        clock,
        transport.connect("ism").unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    for i in 0..1_000i32 {
        assert!(notice!(
            port,
            lis.clock(),
            EventTypeId(2),
            i,
            i as f64 / 3.0
        ));
    }
    let got = wait_for(|| reader.poll().unwrap().0, 1_000, Duration::from_secs(10));
    assert_eq!(got.len(), 1_000);
    assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
    // Payload integrity end to end.
    for (i, rec) in got.iter().enumerate() {
        assert_eq!(rec.node, NodeId(1));
        assert_eq!(rec.event_type, EventTypeId(2));
        assert_eq!(rec.seq, i as u64);
        assert_eq!(rec.fields[0], Value::I32(i as i32));
        assert_eq!(rec.fields[1], Value::F64(i as f64 / 3.0));
    }
    exs.stop().unwrap();
    let report = ism.stop().unwrap();
    assert_eq!(report.core.records_in, 1_000);
    assert_eq!(report.core.records_out, 1_000);
}

#[test]
fn eight_nodes_merge_into_one_sorted_stream() {
    // Perfect output order is only guaranteed when the time frame T covers
    // the worst-case delivery skew (here: the 40 ms flush timeout) — the
    // ordering/latency trade-off of §3.6. Pin T above it.
    let ism_cfg = IsmConfig {
        sorter: brisk_core::SorterConfig {
            initial_frame_us: 80_000,
            min_frame_us: 80_000,
            max_frame_us: 200_000,
            ..brisk_core::SorterConfig::default()
        },
        ..IsmConfig::default()
    };
    let (ism, transport) = start_mem_ism_with(Duration::from_secs(3600), ism_cfg);
    let mut reader = ism.memory().reader();
    const NODES: u32 = 8;
    const PER_NODE: usize = 500;
    let mut handles = Vec::new();
    let mut workers = Vec::new();
    for n in 0..NODES {
        let clock = Arc::new(SystemClock);
        let cfg = ExsConfig::default();
        let lis = Lis::new(NodeId(n), Arc::clone(&clock), &cfg);
        let exs = spawn_exs(
            NodeId(n),
            Arc::clone(lis.rings()),
            clock,
            transport.connect("ism").unwrap(),
            cfg,
        )
        .unwrap();
        handles.push(exs);
        let mut port = lis.register();
        let clock = Arc::clone(lis.clock());
        workers.push(std::thread::spawn(move || {
            for i in 0..PER_NODE {
                notice!(port, clock, EventTypeId(1), i as u32);
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let expect = NODES as usize * PER_NODE;
    let got = wait_for(|| reader.poll().unwrap().0, expect, Duration::from_secs(20));
    assert_eq!(got.len(), expect);
    // Sorted overall; per-node sequence order intact.
    assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
    for n in 0..NODES {
        let seqs: Vec<u64> = got
            .iter()
            .filter(|r| r.node == NodeId(n))
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs.len(), PER_NODE);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }
    for h in handles {
        h.stop().unwrap();
    }
    ism.stop().unwrap();
}

#[test]
fn skewed_node_clock_is_pulled_in_by_sync() {
    // Two nodes; node 1's clock starts 5 ms ahead. With a fast sync period
    // the ISM's master drives the laggard's correction value toward the
    // most-ahead clock, so the corrections observed must be positive and
    // the gap between the two corrected clocks must shrink.
    let (ism, transport) = start_mem_ism(Duration::from_millis(100));
    let src = SimTimeSource::starting_at(UtcMicros::now());
    // Keep the simulated source tracking real time so timeouts fire.
    let tick_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ticker = {
        let src = src.clone();
        let stop = Arc::clone(&tick_stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                src.advance_by(1_000);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let ahead = Arc::new(SimClock::new(src.clone(), 5_000, 0.0, 1));
    let behind = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
    let cfg = ExsConfig::default();
    let lis_a = Lis::new(NodeId(0), Arc::clone(&ahead), &cfg);
    let lis_b = Lis::new(NodeId(1), Arc::clone(&behind), &cfg);
    let exs_a = spawn_exs(
        NodeId(0),
        Arc::clone(lis_a.rings()),
        ahead.clone(),
        transport.connect("ism").unwrap(),
        cfg.clone(),
    )
    .unwrap();
    let exs_b = spawn_exs(
        NodeId(1),
        Arc::clone(lis_b.rings()),
        behind.clone(),
        transport.connect("ism").unwrap(),
        cfg,
    )
    .unwrap();

    // Wait for a few sync rounds.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let gap = (ahead.now().as_micros() + exs_a.corrected_clock().correction_us())
            - (behind.now().as_micros() + exs_b.corrected_clock().correction_us());
        if gap.abs() < 1_000 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let corr_b = exs_b.corrected_clock().correction_us();
    let corr_a = exs_a.corrected_clock().correction_us();
    assert!(
        corr_a >= 0 && corr_b >= 0,
        "BRISK only advances: {corr_a} {corr_b}"
    );
    assert!(
        corr_b > 3_000,
        "behind clock must have been advanced, correction = {corr_b}"
    );
    tick_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ticker.join().unwrap();
    exs_a.stop().unwrap();
    exs_b.stop().unwrap();
    let report = ism.stop().unwrap();
    assert!(report.sync_rounds >= 1);
}

#[test]
fn tcp_pipeline_with_picl_and_visual_outputs() {
    use parking_lot::Mutex;
    let mut server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    let picl_path = std::env::temp_dir().join("brisk_it_tcp.picl");
    let file = std::fs::File::create(&picl_path).unwrap();
    server.core_mut().add_sink(Box::new(
        PiclFileSink::new(Box::new(file), TsMode::Utc).unwrap(),
    ));
    let counter = EventCounter::new();
    let counts = counter.counts();
    let registry = Arc::new(Mutex::new(VisualObjectRegistry::new()));
    registry.lock().register(Box::new(counter));
    server
        .core_mut()
        .add_sink(Box::new(VisualObjectSink::new(registry, TsMode::Utc)));

    let transport = TcpTransport;
    let listener = transport.listen("127.0.0.1:0").unwrap();
    let ism = server.spawn(listener).unwrap();
    let addr = ism.addr().to_string();
    let mut reader = ism.memory().reader();

    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(9), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(9),
        Arc::clone(lis.rings()),
        clock,
        transport.connect(&addr).unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    for i in 0..300u32 {
        notice!(port, lis.clock(), EventTypeId(4), i);
    }
    let got = wait_for(|| reader.poll().unwrap().0, 300, Duration::from_secs(10));
    assert_eq!(got.len(), 300);
    exs.stop().unwrap();
    ism.stop().unwrap();

    assert_eq!(counts.lock()[&9], 300);
    let text = std::fs::read_to_string(&picl_path).unwrap();
    let parsed = brisk::picl::read_trace(text.as_bytes()).unwrap();
    assert_eq!(parsed.len(), 300);
    assert!(parsed.iter().all(|r| r.node == 9 && r.event == 4));
}

#[test]
fn ring_overflow_shows_up_as_seq_gaps_not_corruption() {
    let (ism, transport) = start_mem_ism(Duration::from_secs(3600));
    let mut reader = ism.memory().reader();
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig {
        ring_capacity: 2048, // tiny ring: overflow is certain
        ..ExsConfig::default()
    };
    let lis = Lis::new(NodeId(1), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(lis.rings()),
        clock,
        transport.connect("ism").unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    let mut accepted = 0u64;
    for i in 0..20_000i64 {
        if notice!(port, lis.clock(), EventTypeId(1), i, i * 2, i * 3) {
            accepted += 1;
        }
    }
    assert!(accepted < 20_000, "a 2 KiB ring must overflow");
    let mut got = wait_for(
        || reader.poll().unwrap().0,
        accepted as usize,
        Duration::from_secs(20),
    );
    // An EXS thread that got no CPU during the burst leaves every drop
    // after the last delivered record. One more record, emitted once the
    // burst has drained, puts the drops between delivered records.
    let i = 20_000i64;
    assert!(notice!(port, lis.clock(), EventTypeId(1), i, i * 2, i * 3));
    accepted += 1;
    got.extend(wait_for(
        || reader.poll().unwrap().0,
        1,
        Duration::from_secs(20),
    ));
    assert_eq!(got.len() as u64, accepted, "every accepted record arrives");
    let mut checker = OrderChecker::new();
    for r in &got {
        checker.observe(r);
    }
    assert_eq!(checker.inversions(), 0);
    // Gaps are only observable BETWEEN delivered records; drops after the
    // last delivered one are invisible to the checker, so compare against
    // the highest delivered sequence number.
    let last_seq = got.iter().map(|r| r.seq).max().unwrap();
    assert_eq!(
        checker.seq_gaps(),
        last_seq + 1 - accepted,
        "dropped records are visible as sequence gaps"
    );
    assert!(checker.seq_gaps() > 0);
    exs.stop().unwrap();
    ism.stop().unwrap();
}

#[test]
fn telemetry_accounts_for_every_record_across_the_pipeline() {
    const N: usize = 2_000;
    let registry = Registry::new();

    // ISM side: bind before spawn so the accept loop is metered.
    let transport = MemTransport::new();
    let listener = transport.listen("ism").unwrap();
    let mut server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig {
            poll_period: Duration::from_millis(100),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    server.bind_telemetry(&registry);
    let ism = server.spawn(listener).unwrap();
    let mut reader = ism.memory().reader();

    // Node side: rings, notice counter and EXS share the same registry.
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(1), Arc::clone(&clock), &cfg);
    lis.rings().bind_telemetry(&registry);
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(lis.rings()),
        clock,
        transport.connect("ism").unwrap(),
        cfg,
    )
    .unwrap();
    exs.bind_telemetry(&registry);
    let mut port = lis.register();
    port.set_notice_counter(registry.counter("brisk_notices_total", "Notices emitted"));
    for i in 0..N {
        assert!(notice!(port, lis.clock(), EventTypeId(1), i as u64));
    }

    let got = wait_for(|| reader.poll().unwrap().0, N, Duration::from_secs(15));
    assert_eq!(got.len(), N);

    // The Prometheus endpoint serves a scrape-parseable view of the same
    // registry while everything runs.
    let stats = serve_stats("127.0.0.1:0", Arc::clone(&registry), RouteTable::new()).unwrap();
    let body = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(stats.addr()).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp.split_once("\r\n\r\n").unwrap().1.to_string()
    };
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable exposition line: {line:?}");
        });
        assert!(series.starts_with("brisk_"), "bad series name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }
    for needle in [
        "brisk_ring_produced_total",
        "brisk_exs_records_sent_total",
        "brisk_ism_records_out_total",
        "brisk_ism_e2e_latency_us_bucket",
        "brisk_net_frames_total",
    ] {
        assert!(body.contains(needle), "scrape body missing {needle}");
    }
    stats.stop();

    exs.stop().unwrap();
    let report = ism.stop().unwrap();
    assert_eq!(report.core.records_out as usize, N);

    // Counter identity: every accepted notice is accounted for at every
    // stage, with zero drops anywhere.
    let snap = registry.snapshot();
    let n = N as u64;
    assert_eq!(snap.counter_total("brisk_notices_total"), n);
    assert_eq!(snap.counter_total("brisk_ring_produced_total"), n);
    assert_eq!(snap.counter_total("brisk_ring_consumed_total"), n);
    assert_eq!(snap.counter_total("brisk_ring_dropped_total"), 0);
    assert_eq!(snap.counter_total("brisk_exs_records_drained_total"), n);
    assert_eq!(snap.counter_total("brisk_exs_records_sent_total"), n);
    assert_eq!(snap.counter_total("brisk_ism_records_in_total"), n);
    assert_eq!(snap.counter_total("brisk_ism_records_out_total"), n);
    assert_eq!(snap.counter_total("brisk_ism_memory_written_total"), n);
    assert_eq!(
        snap.gauge("brisk_ring_occupancy_bytes"),
        Some(0),
        "all drained"
    );
    assert!(snap.gauge("brisk_ring_capacity_bytes").unwrap() > 0);

    // Batching: every batch is counted once, with a flush reason.
    let batches = snap.counter_total("brisk_exs_batches_sent_total");
    assert!(batches >= 1);
    assert_eq!(snap.counter_total("brisk_exs_flush_total"), batches);
    let batch_hist = snap.histogram("brisk_exs_batch_records").unwrap();
    assert_eq!(batch_hist.count(), batches);
    assert_eq!(batch_hist.sum, n);

    // Stage latency distributions are well-formed.
    let e2e = snap.histogram("brisk_ism_e2e_latency_us").unwrap();
    assert_eq!(e2e.count(), n);
    assert!(e2e.p50() <= e2e.p99());
    assert!(
        e2e.p99() <= e2e.max.max(1) * 2,
        "quantiles bounded by max bucket"
    );
    let drains = snap.histogram("brisk_exs_drain_us").unwrap();
    assert!(drains.count() >= 1);

    // Sorter gauges were bound (instantaneous values are whatever the
    // final tick left behind, but the series must exist).
    assert!(snap.gauge("brisk_ism_sorter_frame_us").is_some());
    assert!(snap.gauge("brisk_ism_sorter_depth").is_some());

    // Connection metering saw the Hello plus at least one batch frame.
    assert!(
        snap.counter_labeled("brisk_net_frames_total", &[("role", "ism"), ("dir", "in")])
            .unwrap()
            > batches
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_pipeline_end_to_end() {
    use brisk::net::UdsTransport;
    let sock = std::env::temp_dir().join(format!("brisk-it-{}.sock", std::process::id()));
    let transport = UdsTransport;
    let listener = transport.listen(sock.to_str().unwrap()).unwrap();
    let server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    let ism = server.spawn(listener).unwrap();
    let mut reader = ism.memory().reader();
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(4), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(4),
        Arc::clone(lis.rings()),
        clock,
        transport.connect(ism.addr()).unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    for i in 0..400i64 {
        notice!(port, lis.clock(), EventTypeId(2), i, "uds");
    }
    let got = wait_for(|| reader.poll().unwrap().0, 400, Duration::from_secs(10));
    assert_eq!(got.len(), 400);
    assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
    exs.stop().unwrap();
    ism.stop().unwrap();
}
