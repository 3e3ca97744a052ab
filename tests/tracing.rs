//! Workspace integration tests: self-hosted pipeline tracing.
//!
//! With `TraceConfig::every(1)` each notice carries an `X_TRACE` context
//! that every pipeline stage stamps on the way through. These tests run
//! the full LIS → TP → ISM path and assert the stamp chain is complete,
//! ordered, and survives a durable-store round trip; and that the
//! always-on flight recorder retains the damage history a panic dump
//! would need.

use brisk::core::TraceStage;
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

/// The stamp sequence every plain (non-CRE) record must accumulate on a
/// healthy path, in pipeline order.
const FULL_PATH: [TraceStage; 7] = [
    TraceStage::Notice,
    TraceStage::ExsScoop,
    TraceStage::BatchSend,
    TraceStage::PumpRecv,
    TraceStage::SorterAdmit,
    TraceStage::SorterRelease,
    TraceStage::Deliver,
];

#[test]
fn one_in_one_sampling_traces_every_record_end_to_end() {
    const N: usize = 500;
    let registry = Registry::new();
    let transport = MemTransport::new();
    let mut server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig {
            // No sync rounds: corrections stay zero so node-side and
            // ISM-side stamps share one uncorrected timebase.
            poll_period: Duration::from_secs(3600),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    server.bind_telemetry(&registry);
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();
    let mut reader = ism.memory().reader();

    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig {
        trace: TraceConfig::every(1),
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
    for i in 0..N {
        assert!(notice!(port, lis.clock(), EventTypeId(1), i as u64));
    }
    let got = wait_for(|| reader.poll().unwrap().0, N, Duration::from_secs(15));
    assert_eq!(got.len(), N);

    let mut ids = std::collections::HashSet::new();
    for rec in &got {
        let ctx = rec
            .trace()
            .unwrap_or_else(|| panic!("1-in-1 sampling must trace record seq {}", rec.seq));
        assert!(ids.insert(ctx.trace_id), "trace ids must be unique");
        let stages: Vec<TraceStage> = ctx.stamps().iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages, FULL_PATH,
            "record seq {} missing stages: {ctx}",
            rec.seq
        );
        for pair in ctx.stamps().windows(2) {
            assert!(
                pair[1].1.micros_since(pair[0].1) >= 0,
                "stamps must be monotonic within {ctx}"
            );
        }
        // The notice stamp is the record's own origin timestamp.
        assert_eq!(ctx.stamp_at(TraceStage::Notice), Some(rec.ts));
    }

    // Every adjacent stage pair fed the latency histograms, and each slow
    // bucket carries a real exemplar id from the delivered set.
    let stages = ism.stage_latencies().expect("telemetry bound");
    let (bucket_us, exemplar) = stages.slowest_exemplar().expect("exemplars recorded");
    assert!(bucket_us >= 1);
    assert!(
        ids.contains(&exemplar),
        "exemplar {exemplar:016x} must be a delivered trace id"
    );
    let json =
        stages.exemplars_json(|code| TraceStage::from_code(code).map(|s| s.name()).unwrap_or("?"));
    for (from, to) in FULL_PATH.iter().zip(FULL_PATH.iter().skip(1)) {
        assert!(
            json.contains(&format!("\"{from}\"")) && json.contains(&format!("\"{to}\"")),
            "stage pair {from}->{to} missing from exemplars json: {json}"
        );
    }

    // The trace context must survive the durable store: write the
    // delivered stream out, read it back, and compare stamp-for-stamp —
    // this is the data path `brisk-trace --store` renders waterfalls from.
    let dir = std::env::temp_dir().join(format!("brisk-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = StoreConfig::at(&dir);
    let mut writer = StoreWriter::open(&store_cfg).unwrap();
    for rec in &got {
        writer.append(rec).unwrap();
    }
    writer.sync().unwrap();
    drop(writer);
    let (replayed, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(replayed.len(), N);
    for (orig, back) in got.iter().zip(&replayed) {
        assert_eq!(orig.trace().unwrap(), back.trace().unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);

    exs.stop().unwrap();
    ism.stop().unwrap();
}

/// A 1-in-N sampler must trace roughly one record in N — and untraced
/// records must carry no `X_TRACE` field at all (zero wire overhead).
#[test]
fn sampled_tracing_stamps_a_subset_without_touching_the_rest() {
    const N: usize = 1_024;
    const EVERY: u32 = 64;
    let (transport, listener) = {
        let t = MemTransport::new();
        let l = t.listen("ism").unwrap();
        (t, l)
    };
    let server = IsmServer::new(
        IsmConfig::default(),
        SyncConfig {
            poll_period: Duration::from_secs(3600),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let ism = server.spawn(listener).unwrap();
    let mut reader = ism.memory().reader();
    let clock = Arc::new(SystemClock);
    let cfg = ExsConfig {
        trace: TraceConfig::every(EVERY),
        ..ExsConfig::default()
    };
    let lis = Lis::new(NodeId(7), Arc::clone(&clock), &cfg);
    let exs = spawn_exs(
        NodeId(7),
        Arc::clone(lis.rings()),
        clock,
        transport.connect("ism").unwrap(),
        cfg,
    )
    .unwrap();
    let mut port = lis.register();
    for i in 0..N {
        assert!(notice!(port, lis.clock(), EventTypeId(1), i as u64));
    }
    let got = wait_for(|| reader.poll().unwrap().0, N, Duration::from_secs(15));
    assert_eq!(got.len(), N);
    let traced = got.iter().filter(|r| r.trace().is_some()).count();
    assert_eq!(
        traced,
        N / EVERY as usize,
        "deterministic sampler fires exactly one in {EVERY}"
    );
    for rec in got.iter().filter(|r| r.trace().is_some()) {
        let stages: Vec<TraceStage> = rec
            .trace()
            .unwrap()
            .stamps()
            .iter()
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(stages, FULL_PATH);
    }
    exs.stop().unwrap();
    ism.stop().unwrap();
}

/// An induced panic must dump a flight recorder that still holds the
/// damage history that preceded it — here, the quarantine events from an
/// undecodable peer.
#[test]
fn flight_dump_on_panic_retains_prior_quarantine_events() {
    let transport = MemTransport::new();
    let server = IsmServer::new(
        IsmConfig {
            protocol_error_budget: 2,
            ..IsmConfig::default()
        },
        SyncConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    let ism = server.spawn(transport.listen("ism").unwrap()).unwrap();

    // A peer that says a clean hello, then speaks garbage until the ISM
    // hangs up — each bad frame lands in the flight recorder.
    let mut bad = transport.connect("ism").unwrap();
    bad.send(
        &Message::Hello {
            node: NodeId(66),
            version: brisk::proto::VERSION,
        }
        .encode(),
    )
    .unwrap();
    for i in 0..10u8 {
        if bad.send(&[0xDE, 0xAD, i, 0xEF, i]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while ism.quarantine().disconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        ism.quarantine().disconnects() >= 1,
        "peer never quarantined"
    );

    // Induce a panic with the hook installed. The hook prints the dump to
    // stderr; it reads the same global ring we assert on here.
    install_flight_panic_hook();
    let caught = std::panic::catch_unwind(|| panic!("induced: tracing test"));
    assert!(caught.is_err());

    let dump = flight().dump();
    assert!(
        dump.contains("quarantine") && dump.contains("ism.reactor"),
        "panic-time dump must retain the quarantine history:\n{dump}"
    );
    assert!(
        dump.contains("quarantine_disconnect"),
        "the disconnect event must be in the dump:\n{dump}"
    );
    let json = flight().to_json();
    assert!(json.contains("\"kind\":\"quarantine\""), "{json}");
    assert!(flight().recorded() >= 3, "per-frame events plus disconnect");

    ism.stop().unwrap();
}
