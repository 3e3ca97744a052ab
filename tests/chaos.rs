//! Workspace chaos test: the full pipeline under seeded wire faults.
//!
//! Three nodes share one ISM. One of them speaks through the brisk-net
//! fault plane, which corrupts, truncates and duplicates its frames on a
//! deterministic seeded schedule; one goes silent mid-session; the rest are
//! clean. The ISM must quarantine the faulty connection within its error
//! budget, evict the silent node, and deliver the clean nodes' records
//! exactly once — all while staying up and exporting the damage as
//! Prometheus counters.

use brisk::lis::{spawn_exs_supervised, SupervisorConfig};
use brisk::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seeded fault schedule used throughout: heavy enough that a few
/// dozen frames are certain to blow a small error budget.
fn chaos_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        corrupt_rate: 0.35,
        truncate_rate: 0.2,
        duplicate_rate: 0.15,
        ..FaultSpec::default()
    }
}

/// A deterministic pool of batch frames for the faulty node to push.
fn scripted_frames(node: u32, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let record = EventRecord::new(
                NodeId(node),
                SensorId(0),
                EventTypeId(1),
                i as u64,
                UtcMicros::from_micros(1_000_000 + i as i64),
                vec![Value::I32(i as i32)],
            )
            .unwrap();
            Message::EventBatch {
                node: NodeId(node),
                seq: Some(i as u64 + 1),
                records: vec![record],
            }
            .encode()
        })
        .collect()
}

#[test]
fn seeded_faults_are_quarantined_while_clean_nodes_deliver_exactly_once() {
    let transport = MemTransport::new();
    let registry = Registry::new();
    let mut server = IsmServer::new(
        IsmConfig {
            // Generous against the clean nodes' 500 ms heartbeat default,
            // tight enough that the silent node is evicted within the test.
            node_timeout: Some(Duration::from_secs(2)),
            protocol_error_budget: 4,
            ..IsmConfig::default()
        },
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    server.bind_telemetry(&registry);
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();
    let mut reader = ism.memory().reader();

    // Two clean supervised nodes, 500 records each.
    const PER_NODE: usize = 500;
    let mut handles = Vec::new();
    for id in [1u32, 2] {
        let rings = RingSet::new(NodeId(id), 1 << 20);
        let mut port = rings.register();
        let t = Arc::clone(&transport);
        let handle = spawn_exs_supervised(
            NodeId(id),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(2),
                ..ExsConfig::default()
            },
            SupervisorConfig::default(),
        )
        .unwrap();
        for i in 0..PER_NODE {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i as i32)])
                .unwrap();
        }
        handles.push(handle);
    }

    // The faulty node: a clean Hello (so it reaches its pump), then batch
    // frames through the seeded fault plane until the ISM hangs up on it.
    let fault_stats = FaultStats::new();
    let mut faulty = {
        let raw = transport.connect("ism").unwrap();
        FaultingConnection::wrap(raw, chaos_spec(0xC0FFEE), 0, Arc::clone(&fault_stats))
    };
    faulty
        .send(
            &Message::Hello {
                node: NodeId(3),
                version: brisk::proto::VERSION,
            }
            .encode(),
        )
        .unwrap();
    for frame in scripted_frames(3, 60) {
        if faulty.send(&frame).is_err() {
            break; // the fault plane's kill, or the ISM hung up — both fine
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // The silent node: says hello, sends one batch, then holds the
    // connection open without another word — a half-open link in miniature.
    let mut silent = transport.connect("ism").unwrap();
    silent
        .send(
            &Message::Hello {
                node: NodeId(4),
                version: brisk::proto::VERSION,
            }
            .encode(),
        )
        .unwrap();
    silent.send(&scripted_frames(4, 1)[0]).unwrap();

    // The faulty connection must be quarantined within the error budget...
    let deadline = Instant::now() + Duration::from_secs(10);
    while ism.quarantine().disconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        ism.quarantine().disconnects() >= 1,
        "the faulty connection must be dropped"
    );
    let quarantined = ism.quarantine().frames();
    assert!(
        quarantined >= 1,
        "undecodable frames must be recorded before the drop"
    );
    assert!(
        !ism.quarantine().samples().is_empty(),
        "quarantine must keep hex-dump samples for diagnosis"
    );
    // ...having tolerated no more than budget + 1 frames from it.
    assert!(
        quarantined <= 5,
        "budget 4 tolerates at most 5 bad frames, saw {quarantined}"
    );

    // ...and the silent node evicted once its timeout lapses.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry
        .snapshot()
        .counter_total("brisk_ism_evicted_nodes_total")
        == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }

    // Clean nodes: every record exactly once, fault plane notwithstanding.
    let mut per_node = [0usize; 2];
    let deadline = Instant::now() + Duration::from_secs(20);
    while per_node[0] < PER_NODE && Instant::now() < deadline {
        let (records, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0, "the test's buffer must not overflow");
        for r in &records {
            if let Some(slot) = per_node.get_mut(r.node.raw() as usize - 1) {
                *slot += 1;
            }
        }
        if per_node[0] >= PER_NODE && per_node[1] >= PER_NODE {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let stragglers (would-be duplicates) land before demanding exactness.
    std::thread::sleep(Duration::from_millis(200));
    let (records, _) = reader.poll().unwrap();
    for r in &records {
        if let Some(slot) = per_node.get_mut(r.node.raw() as usize - 1) {
            *slot += 1;
        }
    }
    assert_eq!(
        per_node,
        [PER_NODE, PER_NODE],
        "clean nodes must deliver exactly once"
    );

    // The damage is visible in the Prometheus export.
    let text = registry.snapshot().to_prometheus();
    for series in [
        "brisk_ism_quarantined_frames_total",
        "brisk_ism_quarantine_disconnects_total",
        "brisk_ism_evicted_nodes_total",
    ] {
        assert!(text.contains(series), "export must carry {series}");
    }
    let snap = registry.snapshot();
    assert!(snap.counter_total("brisk_ism_quarantined_frames_total") >= 1);
    assert!(snap.counter_total("brisk_ism_quarantine_disconnects_total") >= 1);
    assert!(
        snap.counter_total("brisk_ism_evicted_nodes_total") >= 1,
        "the silent node must be evicted"
    );

    for h in handles {
        h.stop().unwrap();
    }
    drop(silent);
    // The ISM is still healthy enough for an orderly shutdown.
    let report = ism.stop().unwrap();
    assert!(report.core.records_in >= (2 * PER_NODE) as u64);
}

/// The fault plane is a deterministic function of `(seed, conn, frames)`:
/// pushing the same frames through two connections wrapped with the same
/// seed must put byte-identical streams on the wire — the property that
/// makes an ISM-side quarantine report replayable.
#[test]
fn same_seed_reproduces_the_fault_sequence_byte_for_byte() {
    fn run(seed: u64) -> (Vec<Vec<u8>>, Vec<(u64, u64)>) {
        let t = MemTransport::new();
        let mut listener = t.listen("sink").unwrap();
        let raw = t.connect("sink").unwrap();
        let mut server = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let stats = FaultStats::new();
        let mut conn = FaultingConnection::wrap(raw, chaos_spec(seed), 0, Arc::clone(&stats));
        for frame in scripted_frames(9, 40) {
            conn.send(&frame).unwrap();
        }
        drop(conn);
        let mut received = Vec::new();
        while let Ok(Some(frame)) = server.recv(Some(Duration::from_millis(100))) {
            received.push(frame);
        }
        let events = stats
            .events()
            .iter()
            .map(|e| (e.conn, e.frame))
            .collect::<Vec<_>>();
        (received, events)
    }
    let (bytes_a, events_a) = run(42);
    let (bytes_b, events_b) = run(42);
    assert_eq!(events_a, events_b, "fault schedule must be deterministic");
    assert_eq!(bytes_a, bytes_b, "wire bytes must replay identically");
    assert!(!bytes_a.is_empty());
    // A different seed draws a different schedule.
    let (bytes_c, _) = run(43);
    assert_ne!(bytes_a, bytes_c, "distinct seeds must differ");
}
