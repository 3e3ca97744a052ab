//! Workspace e2e for causal ordering under clock faults — the headline
//! scenario of the causality-true ordering work.
//!
//! A two-tier relay tree runs in [`OrderMode::Causal`] at every tier.
//! One leaf's clock is *badly* wrong (seconds of skew, or drift plus a
//! backward step) and clock synchronization is disabled on that node, so
//! nothing ever corrects it. The leaf emits CRE consequence records
//! whose reasons live on a healthy sibling leaf: by physical timestamps
//! every pair is inverted by seconds. The hybrid logical clocks carried
//! as `X_HLC` must still prove the true order, the relay's CRE must
//! repair the tachyons against that proof, and the root must deliver
//! every reason before its consequence with exactly-once delivery
//! intact — while the clock-fault telemetry (divergence histogram,
//! tachyon repairs, causal reorders) records what happened.

use brisk::prelude::*;
use brisk::sim::{RelayTree, TreeConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reason/conseq pairs emitted across the faulted relay-0 leaves.
const PAIRS: usize = 200;

fn quiet_sync() -> SyncConfig {
    SyncConfig {
        poll_period: Duration::from_secs(60), // periodic sync out of the way
        ..SyncConfig::default()
    }
}

fn causal_tree(relays: usize) -> TreeConfig {
    let mut cfg = TreeConfig::new(relays);
    cfg.sync = quiet_sync();
    cfg.root.order_mode = OrderMode::Causal;
    cfg.relay.order_mode = OrderMode::Causal;
    let mut link = RelayConfig::new(NodePrefix::new(1).unwrap());
    link.flush_timeout = Duration::from_millis(2);
    cfg.link = Some(link);
    cfg
}

/// Leaf EXS knobs for the causal experiments: stamp `X_HLC` at scoop;
/// optionally refuse clock synchronization (the chaos plane's "this node
/// will never be fixed" switch).
fn leaf_cfg(sync_disabled: bool) -> ExsConfig {
    ExsConfig {
        flush_timeout: Duration::from_millis(2),
        stamp_hlc: true,
        sync_disabled,
        ..ExsConfig::default()
    }
}

fn spawn_leaf<C: Clock + Send + Sync + 'static>(
    tree: &RelayTree,
    relay: usize,
    node: NodeId,
    clock: Arc<C>,
    cfg: ExsConfig,
) -> (ExsHandle, SensorPort) {
    let rings = RingSet::new(node, 1 << 20);
    let port = rings.register();
    let t = Arc::clone(tree.transport());
    let name = RelayTree::relay_name(relay);
    let exs = spawn_exs_supervised(
        node,
        rings,
        clock,
        Box::new(move || t.connect(&name)),
        cfg,
        SupervisorConfig::default(),
    )
    .unwrap();
    (exs, port)
}

/// Drain the root until `expected` records arrive (generous deadline),
/// then let stragglers settle.
fn drain_root(reader: &mut MemoryBufferReader, expected: usize) -> Vec<EventRecord> {
    let mut got = Vec::with_capacity(expected);
    let deadline = Instant::now() + Duration::from_secs(60);
    while got.len() < expected && Instant::now() < deadline {
        let (records, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0, "the root buffer must not overflow in-test");
        got.extend(records);
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    let (records, _) = reader.poll().unwrap();
    got.extend(records);
    got
}

/// Every consequence delivered after its reason, every pair present.
fn assert_causal_pairs(got: &[EventRecord], pairs: usize) {
    let mut reason_at: HashMap<CorrelationId, usize> = HashMap::new();
    for (i, r) in got.iter().enumerate() {
        for v in &r.fields {
            if let Value::Reason(c) = v {
                reason_at.entry(*c).or_insert(i);
            }
        }
    }
    let mut seen = 0usize;
    for (i, r) in got.iter().enumerate() {
        for v in &r.fields {
            if let Value::Conseq(c) = v {
                seen += 1;
                let at = reason_at
                    .get(c)
                    .unwrap_or_else(|| panic!("conseq {c:?} has no reason at the root"));
                assert!(
                    *at < i,
                    "reason for {c:?} must be delivered before its conseq despite the clock fault"
                );
            }
        }
    }
    assert_eq!(seen, pairs, "every pair must reach the root");
}

/// Headline: one leaf's clock is 3 s slow and will never be synchronized
/// (`sync_disabled`). Its consequence records carry physical timestamps
/// seconds before their reasons on a healthy sibling — yet the root of
/// the two-tier causal tree delivers every reason before its conseq,
/// exactly once, because HLC stamps prove the order and the relay's CRE
/// repairs the timestamps against that proof.
#[test]
fn skewed_unsynced_leaf_keeps_reason_before_conseq_at_the_root() {
    let tree = RelayTree::build(causal_tree(2)).unwrap();
    let mut reader = tree.root().memory().reader();

    // Relay 0: healthy reason leaf + skewed conseq leaf. The skewed
    // leaf's raw clock reads 3 s in the past, and it ignores SyncAdjust,
    // so the skew persists for the whole run.
    const SKEW_US: i64 = -3_000_000;
    let (reason_exs, mut reason_port) =
        spawn_leaf(&tree, 0, NodeId(1), Arc::new(SystemClock), leaf_cfg(false));
    let skewed_clock = FaultClock::new(SystemClock, SKEW_US, 0.0);
    let (conseq_exs, mut conseq_port) = spawn_leaf(
        &tree,
        0,
        NodeId(2),
        Arc::clone(&skewed_clock),
        leaf_cfg(true),
    );
    // Relay 1: a healthy filler leaf, proving unrelated subtrees are
    // unaffected by relay 0's chaos.
    let (filler_exs, mut filler_port) =
        spawn_leaf(&tree, 1, NodeId(1), Arc::new(SystemClock), leaf_cfg(false));

    // Reasons are stamped with the true time; consequences with the
    // skewed clock's view — each pair physically inverted by ~3 s.
    let emitter = std::thread::spawn(move || {
        for k in 0..PAIRS {
            let corr = CorrelationId(k as u64);
            reason_port
                .emit(EventTypeId(1), UtcMicros::now(), vec![Value::Reason(corr)])
                .unwrap();
            conseq_port
                .emit(
                    EventTypeId(2),
                    skewed_clock.now(),
                    vec![Value::Conseq(corr)],
                )
                .unwrap();
            if k % 5 == 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    });
    let filler = std::thread::spawn(move || {
        for k in 0..PAIRS {
            filler_port
                .emit(EventTypeId(3), UtcMicros::now(), vec![Value::I32(k as i32)])
                .unwrap();
            if k % 5 == 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    });

    let expected_total = 3 * PAIRS;
    let got = drain_root(&mut reader, expected_total);
    emitter.join().unwrap();
    filler.join().unwrap();

    // Exactly once, per-node order intact. (Repaired conseq stamps
    // inherit the reasons' monotone HLC order, so even the skewed node's
    // stream stays seq-ordered at the root.)
    let mut per_node: HashMap<NodeId, Vec<u64>> = HashMap::new();
    for r in &got {
        per_node.entry(r.node).or_default().push(r.seq);
    }
    assert_eq!(got.len(), expected_total, "no loss, no duplicates");
    for (relay, leaf) in [(0usize, 1u32), (0, 2), (1, 1)] {
        let node = RelayTree::global_node(relay, NodeId(leaf));
        let seqs = per_node
            .get(&node)
            .unwrap_or_else(|| panic!("no records for {node}"));
        assert_eq!(seqs.len(), PAIRS, "exactly once for {node}");
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-node order violated for {node}"
        );
    }

    // The causal contract itself.
    assert_causal_pairs(&got, PAIRS);

    // The repairs also reconciled the physical timestamps: each pair now
    // survives a *physically* ordered downstream consumer too.
    let mut reason_ts: HashMap<CorrelationId, UtcMicros> = HashMap::new();
    for r in &got {
        for v in &r.fields {
            if let Value::Reason(c) = v {
                reason_ts.insert(*c, r.ts);
            }
        }
    }
    for r in &got {
        for v in &r.fields {
            if let Value::Conseq(c) = v {
                assert!(
                    r.ts > reason_ts[c],
                    "repaired conseq ts must sit after its reason's"
                );
            }
        }
    }
    // Every delivered record carries a stamp in causal mode.
    assert!(got.iter().all(|r| r.hlc().is_some()));

    // The chaos was visible: relay 0 measured seconds of divergence
    // between X_HLC and its own clock…
    let snap = tree.relay_registry(0).snapshot();
    let divergence = snap
        .histogram("brisk_hlc_divergence_us")
        .expect("causal plane exports the divergence histogram");
    assert!(
        divergence.max >= 2_000_000,
        "divergence must show the 3 s skew, saw max {} us",
        divergence.max
    );
    assert!(
        snap.counter_total("brisk_ism_tachyons_repaired_total") >= (PAIRS / 2) as u64,
        "relay 0 must repair the inverted pairs"
    );
    // …while the healthy subtree saw none of it.
    let quiet = tree.relay_registry(1).snapshot();
    assert_eq!(
        quiet.counter_total("brisk_ism_tachyons_repaired_total"),
        0,
        "relay 1's subtree is healthy"
    );

    reason_exs.stop().unwrap();
    conseq_exs.stop().unwrap();
    filler_exs.stop().unwrap();
    let (root_report, relay_reports) = tree.stop().unwrap();
    assert_eq!(root_report.core.records_out as usize, expected_total);
    assert!(
        relay_reports[0].cre.tachyons_repaired >= (PAIRS / 2) as u64,
        "relay 0's CRE must report the repairs, saw {}",
        relay_reports[0].cre.tachyons_repaired
    );
    assert_eq!(
        root_report.cre.tachyons_repaired, 0,
        "repairs happen once, at the relay tier — the root sees proven order"
    );
}

/// The messier fault: a leaf whose clock *drifts* behind real time and
/// then takes a sudden 2.5 s backward step mid-run (a misfired NTP
/// correction). The HLC generator freezes its physical component across
/// the step, so the node's stamps stay monotone, causal pairs stay
/// provable, and the root's order survives — with the merge plane
/// counting the deliveries where HLC order overruled physical
/// timestamps.
#[test]
fn drifting_leaf_with_backward_step_keeps_causal_order() {
    const PAIRS: usize = 240;
    const DRIFT_PPM: f64 = -200_000.0; // falls behind 200 ms per second
    const STEP_US: i64 = -2_500_000;

    let tree = RelayTree::build(causal_tree(1)).unwrap();
    let mut reader = tree.root().memory().reader();

    let (reason_exs, mut reason_port) =
        spawn_leaf(&tree, 0, NodeId(1), Arc::new(SystemClock), leaf_cfg(false));
    let drifting_clock = FaultClock::new(SystemClock, 0, DRIFT_PPM);
    let (conseq_exs, mut conseq_port) = spawn_leaf(
        &tree,
        0,
        NodeId(2),
        Arc::clone(&drifting_clock),
        leaf_cfg(true),
    );

    // Each pair: a healthy reason, then a consequence plus an unmarked
    // record from the drifting node (both timestamped by its lying
    // clock). The step fires deterministically between pairs, from the
    // emitter itself.
    let emitter = std::thread::spawn(move || {
        for k in 0..PAIRS {
            if k == PAIRS / 2 {
                drifting_clock.step_by(STEP_US);
            }
            let corr = CorrelationId(k as u64);
            reason_port
                .emit(EventTypeId(1), UtcMicros::now(), vec![Value::Reason(corr)])
                .unwrap();
            let ts = drifting_clock.now();
            conseq_port
                .emit(EventTypeId(2), ts, vec![Value::Conseq(corr)])
                .unwrap();
            conseq_port
                .emit(EventTypeId(3), ts, vec![Value::I32(k as i32)])
                .unwrap();
            if k % 4 == 3 {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    });

    let expected_total = 3 * PAIRS;
    let got = drain_root(&mut reader, expected_total);
    emitter.join().unwrap();

    // Exactly once for both nodes. The drifting node's stream is not
    // asserted seq-ordered: near the drift threshold a repaired conseq
    // legitimately overtakes a not-yet-tachyonic neighbour — causal
    // order, not FIFO, is the contract here.
    let mut per_node: HashMap<NodeId, Vec<u64>> = HashMap::new();
    for r in &got {
        per_node.entry(r.node).or_default().push(r.seq);
    }
    assert_eq!(got.len(), expected_total, "no loss, no duplicates");
    let healthy = RelayTree::global_node(0, NodeId(1));
    let seqs = &per_node[&healthy];
    assert_eq!(seqs.len(), PAIRS);
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    let drifting = RelayTree::global_node(0, NodeId(2));
    let mut seqs = per_node[&drifting].clone();
    assert_eq!(seqs.len(), 2 * PAIRS);
    seqs.sort_unstable();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "no duplicate seqs from the drifting node"
    );

    assert_causal_pairs(&got, PAIRS);
    assert!(got.iter().all(|r| r.hlc().is_some()));

    // The fault plane left its fingerprints: tachyons were repaired, the
    // frozen-clock window shows up as HLC divergence, and some records
    // were delivered out of physical-timestamp order because the causal
    // order demanded it.
    let snap = tree.relay_registry(0).snapshot();
    assert!(
        snap.counter_total("brisk_ism_tachyons_repaired_total") >= 1,
        "drift must eventually invert pairs"
    );
    let divergence = snap
        .histogram("brisk_hlc_divergence_us")
        .expect("causal plane exports the divergence histogram");
    assert!(
        divergence.max >= 100_000,
        "post-step frozen stamps must diverge visibly, saw max {} us",
        divergence.max
    );

    reason_exs.stop().unwrap();
    conseq_exs.stop().unwrap();
    let (root_report, relay_reports) = tree.stop().unwrap();
    assert_eq!(root_report.core.records_out as usize, expected_total);
    assert!(relay_reports[0].cre.tachyons_repaired >= 1);
    // Checked against the snapshot taken above; it waits for the final
    // report so that a failure also shows whether the sorter's same-source
    // clamp or its inversion handling absorbed the reorders.
    assert!(
        snap.counter_total("brisk_hlc_causal_reorders_total") >= 1,
        "HLC order must have overruled physical timestamps at least once \
         (relay 0: brisk_ism_ts_clamped_total={}, \
         brisk_ism_tachyons_repaired_total={}, sorter inversions={})",
        snap.counter_total("brisk_ism_ts_clamped_total"),
        snap.counter_total("brisk_ism_tachyons_repaired_total"),
        relay_reports[0].sorter.inversions
    );
}
