//! End-to-end query & compaction over a real store directory: zone-map
//! pruning visible through telemetry counters, shared result caching,
//! background compaction transparency and replay parity.

use brisk::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "brisk-qc-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn store_cfg(dir: &Path) -> StoreConfig {
    let mut cfg = StoreConfig::at(dir.to_path_buf());
    cfg.segment_bytes = 4096;
    cfg.fsync = FsyncPolicy::Never;
    cfg
}

fn rec(node: u32, sensor: u32, seq: u64, ts: i64) -> EventRecord {
    EventRecord::new(
        NodeId(node),
        SensorId(sensor),
        EventTypeId(1),
        seq,
        UtcMicros::from_micros(ts),
        vec![
            Value::U32(seq as u32),
            Value::U32((seq / 3) as u32),
            Value::I32(-(seq as i32)),
            Value::U32(node),
            Value::U32(sensor),
            Value::I32(7),
        ],
    )
    .unwrap()
}

/// Phase the workload by node over time — each node's records land in
/// their own run of segments — so a node predicate lets zone maps prune
/// most of the store without reading it.
fn write_phased_store(dir: &Path, nodes: u32, per_node: u64) {
    let cfg = store_cfg(dir);
    let mut w = StoreWriter::open(&cfg).unwrap();
    let mut seq = 0u64;
    for node in 1..=nodes {
        for _ in 0..per_node {
            w.append(&rec(node, node * 10, seq, seq as i64 * 10))
                .unwrap();
            seq += 1;
        }
    }
    // Drop seals the active segment and writes its zoned sidecar.
}

#[test]
fn query_prunes_segments_and_counts_in_telemetry() {
    prunes_segments_and_counts_in_telemetry(3);
    // The zone maps carry exact node sets, so on 8 phased nodes a node-1
    // predicate must read at most a fifth of the store.
    let report = prunes_segments_and_counts_in_telemetry(8);
    assert!(
        report.segments_scanned * 5 <= report.segments_total,
        "report: {report:?}"
    );
}

/// Query a store phased over `nodes` nodes; returns the node-1 report.
fn prunes_segments_and_counts_in_telemetry(nodes: u32) -> QueryReport {
    let dir = temp_dir("prune");
    write_phased_store(&dir, nodes, 400);
    let registry = Registry::new();
    let mut reader = StoreReader::open(&dir).unwrap();
    reader.bind_telemetry(&registry);

    let pred = Predicate::all().node(1);
    let (hit, report) = reader.query(&pred).unwrap();
    let node1 = report;
    assert_eq!(hit.records.len(), 400, "every node-1 record found");
    assert!(hit.records.iter().all(|r| r.node == NodeId(1)));
    assert!(
        report.segments_pruned > 0,
        "zone maps must prune node-2/node-3 segments, report: {report:?}"
    );
    assert!(
        report.segments_scanned < report.segments_total,
        "a pruned query must not scan the whole store"
    );
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_total("brisk_store_segments_pruned_total"),
        report.segments_pruned as u64,
        "pruning must be visible as a telemetry counter"
    );
    assert_eq!(
        snap.counter_total("brisk_store_segments_scanned_total"),
        report.segments_scanned as u64
    );

    // Sensor-only predicates prune through the bloom filter.
    let (hit, report) = reader.query(&Predicate::all().sensor(30)).unwrap();
    assert_eq!(hit.records.len(), 400);
    assert!(hit.records.iter().all(|r| r.sensor == SensorId(30)));
    assert!(
        report.segments_pruned > 0,
        "bloom pruning, report: {report:?}"
    );

    // A predicate matching nothing prunes everything.
    let (hit, report) = reader.query(&Predicate::all().node(99)).unwrap();
    assert!(hit.records.is_empty());
    assert_eq!(report.segments_scanned, 0, "report: {report:?}");
    let _ = fs::remove_dir_all(&dir);
    node1
}

#[test]
fn query_cache_answers_repeats_without_scanning() {
    let dir = temp_dir("cache");
    write_phased_store(&dir, 3, 200);
    let reader = StoreReader::open(&dir)
        .unwrap()
        .with_cache(QueryCache::with_default_capacity());
    let pred = Predicate::all().node(2);
    let (first, r1) = reader.query(&pred).unwrap();
    assert!(!r1.cache_hit);
    let (second, r2) = reader.query(&pred).unwrap();
    assert!(
        r2.cache_hit,
        "identical query over unchanged store must hit"
    );
    assert_eq!(r2.records_matched, r1.records_matched);
    assert_eq!(first.records.len(), second.records.len());

    // Growing the store changes the fingerprint: the stale entry is
    // simply never addressed again.
    {
        let mut w = StoreWriter::open(&store_cfg(&dir)).unwrap();
        w.append(&rec(2, 20, 100_000, 100_000_000)).unwrap();
    }
    let (third, r3) = reader.query(&pred).unwrap();
    assert!(!r3.cache_hit, "store changed, cache must miss");
    assert_eq!(third.records.len(), second.records.len() + 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_shrinks_cold_segments_and_preserves_replay() {
    let dir = temp_dir("compact");
    write_phased_store(&dir, 3, 500);
    let reader = StoreReader::open(&dir).unwrap();
    let (before, _) = reader.read_all().unwrap();
    let size_of = |dir: &PathBuf| -> u64 {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    };
    let bytes_before = size_of(&dir);

    let registry = Registry::new();
    let compactor = Compactor::new(
        &dir,
        CompactConfig {
            keep_hot: 0,
            ..Default::default()
        },
    );
    compactor.bind_telemetry(&registry);
    let report = compactor.run_once().unwrap();
    assert!(report.compacted > 0, "cold segments must be rewritten");
    assert!(
        report.bytes_after * 5 <= report.bytes_before,
        "telemetry-shaped cold segments must shrink at least 5x, report: {report:?}"
    );
    assert!(size_of(&dir) < bytes_before);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_total("brisk_store_compactions_total"),
        report.compacted as u64
    );

    // Transparency: the same records, in the same order, through the
    // same reader API.
    let (after, rep) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(rep.corrupt_frames, 0);
    assert_eq!(after, before, "compaction must be invisible to readers");

    // Replay parity: a replayed compacted store delivers record-for-record
    // what the uncompacted store did.
    let mut replayed = Vec::new();
    let mut sink = |r: &EventRecord| -> Result<()> {
        replayed.push(r.clone());
        Ok(())
    };
    Replayer::flat_out().replay(&after, &mut sink).unwrap();
    assert_eq!(replayed, before);

    // A second pass finds nothing left to do.
    let again = compactor.run_once().unwrap();
    assert_eq!(again.compacted, 0, "already-compact segments are skipped");

    // A writer reopening the compacted store trusts the rebuilt sidecars
    // and keeps appending where it left off.
    {
        let mut w = StoreWriter::open(&store_cfg(&dir)).unwrap();
        assert_eq!(w.stats().idx_rebuilds.load(Ordering::Relaxed), 0);
        w.append(&rec(4, 40, 9_999_999, 999_999_999)).unwrap();
    }
    let (grown, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(grown.len(), before.len() + 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The `brisk-query` binary end to end: select with pruning stats,
/// windowed aggregation, and compaction via the CLI.
#[test]
fn brisk_query_cli_selects_aggregates_and_compacts() {
    use std::process::Command;
    let dir = temp_dir("cli");
    write_phased_store(&dir, 3, 300);
    let bin = env!("CARGO_BIN_EXE_brisk-query");

    let out = Command::new(bin)
        .args([
            dir.to_str().unwrap(),
            "--node",
            "1",
            "--limit",
            "5",
            "--stats",
        ])
        .output()
        .expect("run brisk-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5, "limit respected:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("300 records matched"), "{stderr}");
    assert!(stderr.contains("pruned"), "{stderr}");

    let out = Command::new(bin)
        .args([dir.to_str().unwrap(), "--node", "2", "--window-ms", "1"])
        .output()
        .expect("run brisk-query --window-ms");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() > 1, "header plus windows:\n{stdout}");

    let out = Command::new(bin)
        .args([dir.to_str().unwrap(), "--compact", "--keep-hot", "0"])
        .output()
        .expect("run brisk-query --compact");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("compacted "), "{stdout}");

    // The compacted store answers the same query, through the same CLI.
    let out = Command::new(bin)
        .args([dir.to_str().unwrap(), "--node", "1", "--stats"])
        .output()
        .expect("run brisk-query after compaction");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("300 records matched"),
        "compaction must not change query answers"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn query_through_compacted_store_still_prunes_and_matches() {
    let dir = temp_dir("compact-query");
    write_phased_store(&dir, 3, 400);
    let compactor = Compactor::new(
        &dir,
        CompactConfig {
            keep_hot: 0,
            ..Default::default()
        },
    );
    compactor.run_once().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    let (hit, report) = reader.query(&Predicate::all().node(3)).unwrap();
    assert_eq!(hit.records.len(), 400);
    assert!(hit.records.iter().all(|r| r.node == NodeId(3)));
    assert!(
        report.segments_pruned > 0,
        "compacted sidecars keep pruning, report: {report:?}"
    );
    // Windowed aggregation over the query result: 400 records 10 µs apart
    // in 1 ms windows → 100 records per window.
    let aggs = windowed_aggregate(&hit.records, 1_000, AggSource::Gaps);
    assert!(!aggs.is_empty());
    assert!(aggs.iter().all(|a| a.count > 0 && a.rate_hz > 0.0));
    let _ = fs::remove_dir_all(&dir);
}
