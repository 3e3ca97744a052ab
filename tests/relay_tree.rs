//! Workspace e2e: a two-level relay tree under seeded wire faults.
//!
//! Three relay ISMs serve three leaf nodes each and re-export their
//! merged, repaired streams to one root ISM under per-relay namespace
//! prefixes. One leaf→relay link and one relay→root link run through the
//! seeded fault plane (duplicated frames plus periodic kills — no
//! corruption, which a CRC-less wire cannot distinguish from data). The
//! root must still see every record exactly once, in per-node order,
//! with every CRE reason delivered before its consequence, and the
//! relay tier must export its link telemetry.

use brisk::prelude::*;
use brisk::sim::{RelayTree, TreeConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records each leaf emits (an even number: reason/conseq pairs).
const PER_LEAF: usize = 300;
const RELAYS: usize = 3;
const LEAVES_PER_RELAY: u32 = 3;

/// Duplication plus periodic kills: every failure mode the sequenced
/// window can repair. (Corruption/truncation would be quarantined and
/// *lost* — there is no wire CRC — so they would break the
/// delivered == produced check by design, not by bug.) The kill
/// threshold sits well above the replay backlog a reconnect carries, or
/// the link would livelock re-killing mid-replay forever.
fn link_faults(seed: u64, kill_after: u64) -> FaultSpec {
    FaultSpec {
        seed,
        duplicate_rate: 0.08,
        kill_after_frames: Some(kill_after),
        ..FaultSpec::default()
    }
}

fn quiet_sync() -> SyncConfig {
    SyncConfig {
        poll_period: Duration::from_secs(60), // keep sync out of the way
        ..SyncConfig::default()
    }
}

#[test]
fn two_tier_tree_survives_faulted_links_with_exactly_once_delivery() {
    let mut cfg = TreeConfig::new(RELAYS);
    cfg.sync = quiet_sync();
    let mut link = RelayConfig::new(NodePrefix::new(1).unwrap());
    link.flush_timeout = Duration::from_millis(2);
    // Small upstream batches so the faulted link sees enough frames to
    // hit its kill threshold several times within one test run.
    link.max_batch_records = 8;
    cfg.link = Some(link);
    // One faulted link in the relay→root tier.
    cfg.upstream_faults.insert(0, link_faults(0xBEEF, 40));
    let tree = RelayTree::build(cfg).unwrap();
    let mut reader = tree.root().memory().reader();

    // Nine supervised leaves; leaf 1 under relay 1 speaks through the
    // fault plane (the faulted link in the leaf→relay tier).
    let mut leaves = Vec::new();
    let mut emitters = Vec::new();
    for relay in 0..RELAYS {
        for leaf in 1..=LEAVES_PER_RELAY {
            let rings = RingSet::new(NodeId(leaf), 1 << 20);
            let mut port = rings.register();
            let t = Arc::clone(tree.transport());
            let name = RelayTree::relay_name(relay);
            let faulted = relay == 1 && leaf == 1;
            let fault_stats = FaultStats::new();
            let connect: Box<dyn Fn() -> Result<Box<dyn Connection>> + Send> = if faulted {
                let stats = Arc::clone(&fault_stats);
                Box::new(move || {
                    let raw = t.connect(&name)?;
                    Ok(FaultingConnection::wrap(
                        raw,
                        link_faults(0xF00D, 12),
                        0,
                        Arc::clone(&stats),
                    ))
                })
            } else {
                Box::new(move || t.connect(&name))
            };
            let exs = spawn_exs_supervised(
                NodeId(leaf),
                Arc::clone(&rings),
                Arc::new(SystemClock),
                connect,
                ExsConfig {
                    flush_timeout: Duration::from_millis(2),
                    // Small leaf batches for the same reason as the
                    // relay link: enough frames to trip the fault plane.
                    max_batch_records: 32,
                    ..ExsConfig::default()
                },
                SupervisorConfig::default(),
            )
            .unwrap();
            // Reason/conseq pairs with per-leaf-unique correlations and
            // explicitly increasing timestamps (per-node order must be
            // checkable at the root even when two emits land in the same
            // microsecond). Emission is paced in small bursts from a
            // thread: a killed link must find a replay backlog *smaller*
            // than its kill threshold after reconnecting, or it would
            // die mid-replay forever and never make progress.
            emitters.push(std::thread::spawn(move || {
                let base = UtcMicros::now();
                for k in 0..PER_LEAF / 2 {
                    let corr = CorrelationId(leaf as u64 * 1_000_000 + k as u64);
                    let ts = |off: usize| UtcMicros::from_micros(base.as_micros() + off as i64 * 5);
                    port.emit(EventTypeId(1), ts(2 * k), vec![Value::Reason(corr)])
                        .unwrap();
                    port.emit(EventTypeId(2), ts(2 * k + 1), vec![Value::Conseq(corr)])
                        .unwrap();
                    if k % 5 == 4 {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }));
            leaves.push(exs);
        }
    }

    // Drain the root until every leaf's records arrived (or a generous
    // deadline passes), then let would-be duplicates settle.
    let expected_total = RELAYS * LEAVES_PER_RELAY as usize * PER_LEAF;
    let mut got: Vec<EventRecord> = Vec::with_capacity(expected_total);
    let deadline = Instant::now() + Duration::from_secs(60);
    while got.len() < expected_total && Instant::now() < deadline {
        let (records, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0, "the root buffer must not overflow in-test");
        got.extend(records);
        std::thread::sleep(Duration::from_millis(10));
    }
    for emitter in emitters {
        emitter.join().unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));
    let (records, _) = reader.poll().unwrap();
    got.extend(records);

    // Exactly once: every (relay, leaf) contributes PER_LEAF records
    // under its rewritten node id — no more, no less.
    let mut per_node: HashMap<NodeId, Vec<u64>> = HashMap::new();
    for r in &got {
        per_node.entry(r.node).or_default().push(r.seq);
    }
    if got.len() != expected_total {
        let mut counts: Vec<(NodeId, usize)> =
            per_node.iter().map(|(n, s)| (*n, s.len())).collect();
        counts.sort();
        eprintln!("per-node counts: {counts:?}");
        for relay in 0..RELAYS {
            let snap = tree.relay_registry(relay).snapshot();
            eprintln!(
                "relay {relay}: exported={} retx={} connects={} acks={} credit_stalls={} window_evicted={} connected={:?} window_depth={:?}",
                snap.counter_total("brisk_relay_exported_records_total"),
                snap.counter_total("brisk_uplink_batches_retransmitted_total"),
                snap.counter_total("brisk_uplink_connects_total"),
                snap.counter_total("brisk_uplink_acks_total"),
                snap.counter_total("brisk_uplink_credit_stalls_total"),
                snap.counter_total("brisk_uplink_window_evicted_total"),
                snap.gauge("brisk_uplink_connected"),
                snap.gauge("brisk_uplink_window_depth"),
            );
            let rsnap = tree.relay(relay);
            eprintln!(
                "relay {relay} quarantine: rejected_hellos={}",
                rsnap.quarantine().rejected_hellos()
            );
        }
        eprintln!(
            "root quarantine: rejected_hellos={}",
            tree.root().quarantine().rejected_hellos()
        );
    }
    assert_eq!(got.len(), expected_total, "no loss, no duplicates");
    for relay in 0..RELAYS {
        for leaf in 1..=LEAVES_PER_RELAY {
            let node = RelayTree::global_node(relay, NodeId(leaf));
            let seqs = per_node
                .get(&node)
                .unwrap_or_else(|| panic!("no records for {node} (relay {relay} leaf {leaf})"));
            assert_eq!(seqs.len(), PER_LEAF, "exactly once for {node}");
            // In order: the per-sensor sequence numbers the leaf stamped
            // must come back strictly increasing at the root.
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "per-node order violated for {node}"
            );
        }
    }

    // CRE link order: every reason before its consequence, under the
    // relay-rewritten correlation ids.
    let mut reason_at: HashMap<CorrelationId, usize> = HashMap::new();
    for (i, r) in got.iter().enumerate() {
        for v in &r.fields {
            if let Value::Reason(c) = v {
                reason_at.entry(*c).or_insert(i);
            }
        }
    }
    let mut pairs = 0usize;
    for (i, r) in got.iter().enumerate() {
        for v in &r.fields {
            if let Value::Conseq(c) = v {
                pairs += 1;
                let at = reason_at
                    .get(c)
                    .unwrap_or_else(|| panic!("conseq {c:?} has no reason at the root"));
                assert!(
                    *at < i,
                    "reason for {c:?} must be delivered before its conseq"
                );
            }
        }
    }
    assert_eq!(pairs, expected_total / 2, "every pair must survive rewrite");

    // The fault planes actually fired…
    assert!(
        !tree.upstream_fault_stats(0).unwrap().events().is_empty(),
        "the relay→root fault plane must have fired"
    );
    // …and the relay tier exported its link telemetry.
    for relay in 0..RELAYS {
        let snap = tree.relay_registry(relay).snapshot();
        assert!(
            snap.counter_total("brisk_relay_exported_batches_total") >= 1,
            "relay {relay} must export batches upstream"
        );
        assert_eq!(
            snap.gauge("brisk_uplink_connected"),
            Some(1),
            "relay {relay} must be connected upstream"
        );
    }
    let faulted_snap = tree.relay_registry(0).snapshot();
    assert!(
        faulted_snap.counter_total("brisk_uplink_connects_total") >= 2,
        "the faulted upstream link must have reconnected"
    );
    assert!(
        faulted_snap.counter_total("brisk_uplink_batches_retransmitted_total") >= 1,
        "kills must force window replay on the faulted link"
    );

    for leaf in leaves {
        leaf.stop().unwrap();
    }
    let (root_report, relay_reports) = tree.stop().unwrap();
    assert_eq!(root_report.core.records_out as usize, expected_total);
    assert!(root_report.relay.is_none(), "the root is not a relay");
    for (i, report) in relay_reports.iter().enumerate() {
        let relay = report.relay.as_ref().expect("relay reports carry stats");
        assert!(
            relay.records_exported >= 1,
            "relay {i} must report upstream exports"
        );
    }
}

/// Satellite: a quiet subtree behind a relay must not be evicted by the
/// root's liveness sweep. The relay's upstream exporter heartbeats its
/// idle v3 link, standing in for every leaf behind it, so a root
/// `node_timeout` far shorter than the leaves' chatter cadence still
/// keeps the subtree registered.
#[test]
fn quiet_subtree_behind_a_relay_survives_root_eviction() {
    let mut cfg = TreeConfig::new(1);
    cfg.sync = quiet_sync();
    cfg.root.node_timeout = Some(Duration::from_millis(400));
    let mut link = RelayConfig::new(NodePrefix::new(1).unwrap());
    link.flush_timeout = Duration::from_millis(2);
    link.heartbeat_interval = Duration::from_millis(100);
    cfg.link = Some(link);
    let tree = RelayTree::build(cfg).unwrap();
    let mut reader = tree.root().memory().reader();

    let rings = RingSet::new(NodeId(1), 1 << 16);
    let mut port = rings.register();
    let t = Arc::clone(tree.transport());
    let exs = spawn_exs_supervised(
        NodeId(1),
        Arc::clone(&rings),
        Arc::new(SystemClock),
        Box::new(move || t.connect(&RelayTree::relay_name(0))),
        ExsConfig {
            flush_timeout: Duration::from_millis(2),
            ..ExsConfig::default()
        },
        SupervisorConfig::default(),
    )
    .unwrap();

    let emit_and_await = |port: &mut SensorPort, reader: &mut MemoryBufferReader, n: usize| {
        for i in 0..n {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i as i32)])
                .unwrap();
        }
        let mut seen = 0;
        let deadline = Instant::now() + Duration::from_secs(20);
        while seen < n && Instant::now() < deadline {
            let (records, _) = reader.poll().unwrap();
            seen += records.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        seen
    };

    assert_eq!(
        emit_and_await(&mut port, &mut reader, 10),
        10,
        "warm-up records must reach the root"
    );

    // Whole subtree goes quiet for several multiples of the root's
    // node_timeout; only the relay's heartbeats keep it registered.
    std::thread::sleep(Duration::from_millis(1_500));
    let snap = tree.root_registry().snapshot();
    assert_eq!(
        snap.counter_total("brisk_ism_evicted_nodes_total"),
        0,
        "a heartbeat-forwarding relay's subtree must not be evicted"
    );

    // The link is still live end-to-end.
    assert_eq!(
        emit_and_await(&mut port, &mut reader, 10),
        10,
        "records after the quiet spell must still arrive"
    );

    exs.stop().unwrap();
    let (_, relay_reports) = tree.stop().unwrap();
    let relay = relay_reports[0].relay.as_ref().unwrap();
    assert!(
        relay.link.heartbeats_sent >= 3,
        "the relay must have heartbeated its idle upstream link, saw {}",
        relay.link.heartbeats_sent
    );
}
