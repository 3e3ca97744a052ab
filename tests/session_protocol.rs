//! The session protocol has one generation: a connection either says
//! `Hello` at `brisk::proto::VERSION` and runs the acked, sequenced
//! session, or it is refused.
//!
//! Raw connections over `MemTransport`, as in `chaos.rs`, so the test
//! sees exactly the frames the ISM sends and nothing a client library
//! might smooth over. Each case reports what it observed in its failure
//! message.

use brisk::prelude::*;
use brisk::proto::VERSION;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(credit_records: u64) -> (brisk::ism::IsmHandle, Arc<MemTransport>) {
    start_with(IsmConfig {
        flow: FlowConfig {
            credit_records,
            ..FlowConfig::default()
        },
        ..IsmConfig::default()
    })
}

fn start_with(config: IsmConfig) -> (brisk::ism::IsmHandle, Arc<MemTransport>) {
    let transport = MemTransport::new();
    let server = IsmServer::new(
        config,
        // Keep sync polls off the wire: every frame the peer sees is the
        // session's answer to what it sent.
        SyncConfig {
            poll_period: Duration::from_secs(600),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();
    (ism, transport)
}

fn hello(node: u32, version: u32) -> Vec<u8> {
    Message::Hello {
        node: NodeId(node),
        version,
    }
    .encode()
}

fn batch(node: u32, seq: Option<u64>, records: u64) -> Vec<u8> {
    Message::EventBatch {
        node: NodeId(node),
        seq,
        records: (0..records)
            .map(|i| {
                EventRecord::new(
                    NodeId(node),
                    SensorId(0),
                    EventTypeId(1),
                    i,
                    UtcMicros::now(),
                    vec![Value::U64(i)],
                )
                .unwrap()
            })
            .collect(),
    }
    .encode()
}

/// Everything the ISM sends within `budget`, and whether it hung up.
fn replies(conn: &mut Box<dyn Connection>, budget: Duration) -> (Vec<Message>, bool) {
    let deadline = Instant::now() + budget;
    let mut got = Vec::new();
    while Instant::now() < deadline {
        match conn.recv(Some(Duration::from_millis(20))) {
            Ok(Some(frame)) => got.push(Message::decode(&frame).unwrap()),
            Ok(None) => {}
            Err(_) => return (got, true),
        }
    }
    (got, false)
}

#[test]
fn hello_below_the_current_version_is_refused_and_delivers_nothing() {
    for version in [1, 2] {
        let (ism, transport) = start(64);
        let mut conn = transport.connect("ism").unwrap();
        conn.send(&hello(5, version)).unwrap();
        // What a peer of that generation would send next: v1 unsequenced,
        // v2 sequenced. Either may fail once the ISM has hung up.
        let seq = (version >= 2).then_some(1);
        let _ = conn.send(&batch(5, seq, 4));
        let (got, closed) = replies(&mut conn, Duration::from_millis(500));
        let samples = ism.quarantine().samples();
        let report = ism.stop().unwrap();
        let observed = format!(
            "v{version}: replies {got:?}, closed {closed}, records_in {}, samples {samples:?}",
            report.core.records_in
        );
        assert_eq!(got, vec![Message::Shutdown], "{observed}");
        assert!(closed, "{observed}");
        assert_eq!(report.core.records_in, 0, "{observed}");
        assert!(
            samples
                .iter()
                .any(|s| s.node == NodeId(5) && s.error.contains(&format!("version {version}"))),
            "the refusal must be visible in /quarantine: {observed}"
        );
    }
}

#[test]
fn unsequenced_batch_after_a_current_hello_drops_the_connection() {
    let (ism, transport) = start(64);
    let mut conn = transport.connect("ism").unwrap();
    conn.send(&hello(6, VERSION)).unwrap();
    conn.send(&batch(6, None, 5)).unwrap();
    let (got, closed) = replies(&mut conn, Duration::from_millis(500));
    let report = ism.stop().unwrap();
    let observed = format!(
        "replies {got:?}, closed {closed}, records_in {}",
        report.core.records_in
    );
    assert_eq!(
        got,
        vec![Message::HelloAck {
            version: VERSION,
            credit: 64
        }],
        "{observed}"
    );
    assert!(
        closed,
        "an unsequenced batch is a protocol error: {observed}"
    );
    assert_eq!(report.core.records_in, 0, "{observed}");
}

/// Say `Hello`, send three two-record batches, and check the ISM answers
/// with a `HelloAck` and one `BatchAck` per batch, each granting `credit`.
fn assert_every_ack_grants(ism: brisk::ism::IsmHandle, transport: &Arc<MemTransport>, credit: u64) {
    let mut conn = transport.connect("ism").unwrap();
    conn.send(&hello(7, VERSION)).unwrap();
    for seq in 1..=3 {
        conn.send(&batch(7, Some(seq), 2)).unwrap();
    }
    let (got, closed) = replies(&mut conn, Duration::from_millis(500));
    let report = ism.stop().unwrap();
    let mut expect = vec![Message::HelloAck {
        version: VERSION,
        credit,
    }];
    expect.extend((1..=3).map(|seq| Message::BatchAck { seq, credit }));
    let observed = format!(
        "credit {credit}: replies {got:?}, closed {closed}, records_in {}",
        report.core.records_in
    );
    assert_eq!(got, expect, "{observed}");
    assert!(!closed, "{observed}");
    assert_eq!(report.core.records_in, 6, "{observed}");
}

#[test]
fn current_hello_gets_the_credit_setting_and_one_ack_per_batch() {
    let (ism, transport) = start(64);
    assert_every_ack_grants(ism, &transport, 64);
}

#[test]
fn a_default_ism_grants_credit_on_every_ack() {
    let (ism, transport) = start_with(IsmConfig::default());
    assert_every_ack_grants(ism, &transport, 2048);
}
