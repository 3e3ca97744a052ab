//! Workspace integration tests: failure injection and recovery.

use brisk::lis::{spawn_exs_supervised, SupervisorConfig};
use brisk::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn_ism_tcp() -> brisk::ism::IsmHandle {
    let server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    server
        .spawn(TcpTransport.listen("127.0.0.1:0").unwrap())
        .unwrap()
}

/// A supervised node keeps delivering through an ISM **crash**: the first
/// manager dies abruptly (no orderly `Shutdown`), a replacement binds, and
/// instrumentation resumes without the application noticing — with **zero**
/// record loss. The phase-1 ISM never acknowledges anything, so every batch
/// it swallowed is still in the retransmit window, carried across the
/// restart and replayed to the replacement. (An orderly `ism.stop()` is
/// honoured rather than retried — that case is covered by the EXS's
/// unit tests.)
#[test]
fn supervised_node_survives_ism_restart() {
    // Phase-1 "ISM": a bare listener that accepts the node, swallows its
    // traffic for a while, then crashes (drops the socket).
    let crash_listener = TcpTransport.listen("127.0.0.1:0").unwrap();
    let addr1 = crash_listener.local_addr();
    let phase1 = std::thread::spawn(move || {
        let mut listener = crash_listener;
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let mut batches = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while batches < 2 && Instant::now() < deadline {
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(20))) {
                if matches!(Message::decode(&frame), Ok(Message::EventBatch { .. })) {
                    batches += 1;
                }
            }
        }
        batches
        // conn and listener dropped here: the "crash".
    });

    let addr = Arc::new(parking_lot::Mutex::new(addr1));
    let rings = RingSet::new(NodeId(1), 1 << 20);
    let mut port = rings.register();
    let addr2 = Arc::clone(&addr);
    let handle = spawn_exs_supervised(
        NodeId(1),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        Box::new(move || TcpTransport.connect(&addr2.lock())),
        ExsConfig {
            flush_timeout: Duration::from_millis(5),
            ..ExsConfig::default()
        },
        SupervisorConfig {
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
        },
    )
    .unwrap();

    // Feed events until the phase-1 ISM has seen some batches and crashed.
    let mut i = 0i32;
    while !phase1.is_finished() {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
        i += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(phase1.join().unwrap() >= 2, "phase-1 ISM saw traffic");

    // Phase 2: a real replacement ISM appears; the EXS reconnects,
    // replays the carried window (phase 1 never acked, so everything it saw
    // is still retained), and new records flow. Some of the phase-2 records
    // below are emitted while still disconnected — they wait in the ring.
    let ism2 = spawn_ism_tcp();
    *addr.lock() = ism2.addr().to_string();
    for _ in 0..500 {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
        i += 1;
    }
    let produced = i as u64;
    let deadline = Instant::now() + Duration::from_secs(15);
    while ism2.memory().written() < produced && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.connects() >= 2, "a reconnect must have happened");

    let stats = handle.stop().unwrap();
    assert!(
        stats.link.batches_retransmitted >= 1,
        "the carried window must have replayed phase-1 batches"
    );
    // Zero loss *and* zero duplicates: every record emitted since the very
    // start — including those the crashed ISM swallowed unacknowledged —
    // is in the replacement's memory buffer exactly once.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        ism2.memory().written(),
        produced,
        "exactly-once delivery across the crash"
    );
    let report = ism2.stop().unwrap();
    assert_eq!(report.core.records_in, produced);
}

/// Tentpole end-to-end: a link that abruptly dies every few frames (both
/// directions, like a TCP reset) must not lose **or duplicate** a single
/// record. The supervised EXS carries its retransmit window across each
/// reconnect and replays; the ISM deduplicates by `(node, seq)`; the
/// sinks see the produced stream exactly once.
#[test]
fn flaky_link_delivers_every_record_exactly_once() {
    // The kill threshold must comfortably exceed the deepest unacked
    // backlog the EXS can accumulate (one emission burst, below): a replay
    // longer than the link's lifetime could never complete. Real links die
    // at random times, not on a deterministic frame count, so that
    // degenerate schedule is an artifact of the fault model — but the
    // bound keeps the test deterministic.
    let transport = Arc::new(FaultingTransport::new(
        MemTransport::new(),
        FaultSpec {
            kill_after_frames: Some(60),
            ..FaultSpec::default()
        },
    ));
    let server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();

    let rings = RingSet::new(NodeId(7), 1 << 20);
    let mut port = rings.register();
    let t2 = Arc::clone(&transport);
    let handle = spawn_exs_supervised(
        NodeId(7),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        Box::new(move || t2.connect("ism")),
        ExsConfig {
            max_batch_records: 8,
            flush_timeout: Duration::from_millis(2),
            ..ExsConfig::default()
        },
        SupervisorConfig {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        },
    )
    .unwrap();

    // Bursty emission: within a burst the EXS sends frames back-to-back,
    // so a kill landing mid-burst leaves delivered-but-unacked batches in
    // the window — exactly the case that used to duplicate (or, pre-window,
    // silently vanish). The pause between bursts lets the EXS drain its
    // ack backlog so the window depth stays far below the kill threshold.
    const N: i32 = 2_000;
    for i in 0..N {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
        if i % 50 == 49 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    while ism.memory().written() < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.stop().unwrap();
    assert!(
        stats.link.connects >= 2,
        "the link kill must have forced reconnects, connects = {}",
        stats.link.connects
    );
    assert!(
        stats.link.batches_retransmitted >= 1,
        "reconnects must have replayed the window"
    );
    // Let any straggling (would-be duplicate) deliveries settle, then
    // demand exactness: delivered == produced, nothing lost, nothing
    // double-counted.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        ism.memory().written(),
        N as u64,
        "exactly-once delivery over the flaky link"
    );
    let report = ism.stop().unwrap();
    assert_eq!(report.core.records_in, N as u64);
    assert!(
        report.core.duplicate_batches >= 1,
        "replay over a killed-mid-burst link must exercise the dedup path"
    );
    assert!(report.core.duplicate_records >= 1);
}

/// A client that speaks garbage at the ISM is dropped without taking the
/// server down; well-behaved clients are unaffected.
#[test]
fn ism_survives_malformed_clients() {
    let ism = spawn_ism_tcp();
    let addr = ism.addr().to_string();
    let mut reader = ism.memory().reader();

    // Garbage client 1: junk instead of Hello.
    let mut bad1 = TcpTransport.connect(&addr).unwrap();
    bad1.send(b"this is not xdr").unwrap();

    // Garbage client 2: valid Hello, then a corrupt frame.
    let mut bad2 = TcpTransport.connect(&addr).unwrap();
    bad2.send(
        &Message::Hello {
            node: NodeId(66),
            version: brisk::proto::VERSION,
        }
        .encode(),
    )
    .unwrap();
    bad2.send(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]).unwrap();

    // A good node still works end to end.
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(1), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(1),
        Arc::clone(lis.rings()),
        clock,
        TcpTransport.connect(&addr).unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    for i in 0..200i32 {
        notice!(port, lis.clock(), EventTypeId(1), i);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = 0;
    while got < 200 && Instant::now() < deadline {
        got += reader.poll().unwrap().0.len();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(got, 200);
    exs.stop().unwrap();
    let report = ism.stop().unwrap();
    assert_eq!(
        report.core.records_in, 200,
        "only the good node's records count"
    );
}

/// Slow consumers observe bounded memory: the ISM memory buffer evicts
/// oldest records and reports the loss explicitly.
#[test]
fn slow_consumer_sees_explicit_loss_not_unbounded_memory() {
    let transport = MemTransport::new();
    let listener = transport.listen("ism").unwrap();
    let server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    // Note: IsmServer's default memory buffer is sized generously; build a
    // separate small MemoryBuffer through the core API instead.
    let ism = server.spawn(listener).unwrap();
    let mut lazy_reader = ism.memory().reader();

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
    const N: i32 = 5_000;
    for i in 0..N {
        notice!(port, lis.clock(), EventTypeId(1), i, i * 2, i * 3);
    }
    // Wait for delivery without reading (the lazy consumer sleeps).
    let deadline = Instant::now() + Duration::from_secs(15);
    while ism.memory().written() < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(ism.memory().written(), N as u64);
    // Whatever happened, records read + missed must equal records written.
    let (records, missed) = lazy_reader.poll().unwrap();
    assert_eq!(records.len() as u64 + missed, N as u64);
    exs.stop().unwrap();
    ism.stop().unwrap();
}

/// Credit accounting stays consistent across a link kill + window replay:
/// the grant in each incarnation's `HelloAck` is **authoritative** — the
/// replayed (already-sent, never-acked) window must not inflate the budget
/// the EXS believes it has, the exported balance (grant − unacked) never
/// exceeds the grant, and once the manager has acked everything the
/// balance converges back to the full grant. Guards the reactor rewrite
/// against reintroducing the post-reconnect credit stall: if carry-over
/// double-counted (or the fresh grant were ignored), the EXS would either
/// overrun the ISM's budget or wedge with ring backlog it refuses to send.
#[test]
fn credit_grant_stays_authoritative_across_reconnect_replay() {
    const CREDIT: u64 = 256;
    let transport = Arc::new(FaultingTransport::new(
        MemTransport::new(),
        FaultSpec {
            kill_after_frames: Some(60),
            ..FaultSpec::default()
        },
    ));
    let mut server = IsmServer::new(
        IsmConfig {
            flow: FlowConfig {
                credit_records: CREDIT,
                ..FlowConfig::default()
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
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();

    let rings = RingSet::new(NodeId(9), 1 << 20);
    let mut port = rings.register();
    let t2 = Arc::clone(&transport);
    let handle = spawn_exs_supervised(
        NodeId(9),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        Box::new(move || t2.connect("ism")),
        ExsConfig {
            max_batch_records: 8,
            flush_timeout: Duration::from_millis(2),
            ..ExsConfig::default()
        },
        SupervisorConfig {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        },
    )
    .unwrap();
    handle.bind_telemetry(&registry);

    // Bursty emission (as in the flaky-link test) so kills land with
    // delivered-but-unacked batches in the window, forcing replay while
    // credit accounting is mid-flight. Sample the exported balance the
    // whole way: `grant − unacked` may go negative while a replayed
    // backlog exceeds the fresh grant, but it must never exceed the grant
    // itself — that would mean the EXS invented credit the ISM never gave.
    const N: i32 = 2_000;
    let mut sampled = 0u64;
    for i in 0..N {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
            .unwrap();
        if i % 50 == 49 {
            if let Some(bal) = registry.snapshot().gauge("brisk_uplink_credit_balance") {
                assert!(
                    bal <= CREDIT as i64,
                    "balance {bal} exceeds the authoritative grant {CREDIT}"
                );
                sampled += 1;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert!(sampled >= 10, "the balance gauge must have been live");

    // No stall: every record must land despite kills mid-replay.
    let deadline = Instant::now() + Duration::from_secs(30);
    while ism.memory().written() < N as u64 && Instant::now() < deadline {
        if let Some(bal) = registry.snapshot().gauge("brisk_uplink_credit_balance") {
            assert!(bal <= CREDIT as i64, "balance {bal} exceeds grant {CREDIT}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        ism.memory().written(),
        N as u64,
        "credit accounting stalled the pipeline after reconnect"
    );

    // Convergence: once the manager acks the tail (replaying again if the
    // final ack was lost to a kill), unacked drains to zero and the
    // balance returns to exactly the HelloAck grant.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let bal = registry
            .snapshot()
            .gauge("brisk_uplink_credit_balance")
            .unwrap_or(i64::MIN);
        if bal == CREDIT as i64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "balance never converged to the grant: {bal} != {CREDIT}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = handle.stop().unwrap();
    assert!(
        stats.link.connects >= 2,
        "the link kill must have forced reconnects, connects = {}",
        stats.link.connects
    );
    assert!(
        stats.link.hello_acks >= 2,
        "each incarnation must have received an authoritative grant"
    );
    assert!(
        stats.link.batches_retransmitted >= 1,
        "reconnects must have replayed the window"
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        ism.memory().written(),
        N as u64,
        "replay must stay exactly-once under credit"
    );
    let report = ism.stop().unwrap();
    assert_eq!(report.core.records_in, N as u64);
    assert!(
        report.core.duplicate_batches >= 1,
        "a lost-ack replay must exercise dedup, or the test saw no real kill"
    );
}
