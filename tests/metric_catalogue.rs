//! Workspace e2e: `METRICS.md` is the catalogue of every `brisk_*`
//! series, generated from a live registry and enforced here.
//!
//! One registry is bound over a fully wired deployment — a root ISM with
//! a durable store, a relay re-exporting upstream, a supervised EXS with
//! rings behind a fault plane, a memory-buffer reader, a store reader, a
//! compactor and a corrected clock — and the sorted
//! `(name, kind, label keys, help)` table must equal the committed
//! file. A series that is renamed, dropped, relabelled or re-worded
//! fails this test; so does a new one that is not catalogued.
//!
//! To regenerate after an intended change, copy the file the failing
//! assertion names (under cargo's `target/tmp`) over `METRICS.md`.

use brisk::prelude::*;
use brisk::telemetry::SampleValue;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: usize = 64;

/// Bind one registry over every component that declares series and push
/// traced records through the whole tree so lazily registered series
/// (the per-stage trace histograms) exist too.
fn fully_wired_registry(store_dir: &Path) -> Arc<Registry> {
    let registry = Registry::new();
    let transport = MemTransport::new();
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let sync = SyncConfig {
        poll_period: Duration::from_millis(20),
        ..SyncConfig::default()
    };

    let mut root = IsmServer::new(
        IsmConfig {
            store: StoreConfig::at(store_dir.to_path_buf()),
            ..IsmConfig::default()
        },
        sync.clone(),
        Arc::clone(&clock),
    )
    .unwrap();
    root.bind_telemetry(&registry);
    let root = root.spawn(transport.listen("root").unwrap()).unwrap();
    let mut reader = root.memory().reader();
    reader.bind_telemetry(&registry, "catalogue");

    let mut relay = IsmServer::new(IsmConfig::default(), sync, Arc::clone(&clock)).unwrap();
    relay.bind_telemetry(&registry);
    let t = Arc::clone(&transport);
    relay.set_upstream(UpstreamExporter::new(
        RelayConfig::new(NodePrefix::new(1).unwrap()),
        Box::new(move || t.connect("root")),
        Arc::clone(&clock),
    ));
    let relay = relay.spawn(transport.listen("relay").unwrap()).unwrap();

    let rings = RingSet::new(NodeId(1), 1 << 20);
    rings.set_trace_sampler(Arc::new(TraceSampler::new(1)));
    rings.bind_telemetry(&registry);
    let mut port = rings.register();
    let faults = FaultStats::new();
    faults.bind_telemetry(&registry);
    let (t, stats) = (Arc::clone(&transport), Arc::clone(&faults));
    let exs = spawn_exs_supervised(
        NodeId(1),
        Arc::clone(&rings),
        Arc::clone(&clock),
        Box::new(move || {
            let raw = t.connect("relay")?;
            Ok(FaultingConnection::wrap(
                raw,
                FaultSpec::default(),
                0,
                Arc::clone(&stats),
            ))
        }),
        ExsConfig {
            flush_timeout: Duration::from_millis(2),
            ..ExsConfig::default()
        },
        SupervisorConfig::default(),
    )
    .unwrap();
    exs.bind_telemetry(&registry);

    for i in 0..RECORDS {
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::U64(i as u64)])
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = 0;
    while got < RECORDS && Instant::now() < deadline {
        got += reader.poll().unwrap().0.len();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(got, RECORDS, "the traced records must reach the root");
    exs.stop().unwrap();
    relay.stop().unwrap();
    root.stop().unwrap();

    StoreReader::open(store_dir)
        .unwrap()
        .bind_telemetry(&registry);
    Compactor::new(store_dir, CompactConfig::default()).bind_telemetry(&registry);
    CorrectedClock::new(SystemClock).bind_telemetry(&registry, "1");
    registry
}

/// The catalogue document: one row per distinct
/// `(name, kind, label keys, help)`, sorted.
fn render(registry: &Registry) -> String {
    let rows: BTreeSet<(String, &str, String, String)> = registry
        .snapshot()
        .samples
        .into_iter()
        .map(|s| {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            let mut keys: Vec<&str> = s.labels.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            (s.name, kind, keys.join(","), s.help)
        })
        .collect();
    let mut out = String::from(
        "# BRISK metric catalogue\n\n\
         Every series a fully wired deployment registers, generated from a live\n\
         registry and enforced by `tests/metric_catalogue.rs` (which also says how\n\
         to regenerate it). Label *keys* only; values are node ids, prefixes,\n\
         roles and the like.\n\n\
         | name | kind | labels | help |\n|---|---|---|---|\n",
    );
    for (name, kind, keys, help) in &rows {
        assert!(
            name.strip_prefix("brisk_")
                .is_some_and(|rest| !rest.is_empty()
                    && rest
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')),
            "series name {name:?} must match ^brisk_[a-z0-9_]+$"
        );
        assert_eq!(
            name.ends_with("_total"),
            *kind == "counter",
            "{name} is a {kind}: `_total` names exactly the counters"
        );
        out.push_str(&format!(
            "| `{name}` | {kind} | {keys} | {} |\n",
            help.replace('|', "\\|")
        ));
    }
    out
}

#[test]
fn metrics_md_lists_exactly_the_registered_series() {
    let store_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("metric-catalogue-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let actual = render(&fully_wired_registry(&store_dir));
    let _ = std::fs::remove_dir_all(&store_dir);

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("METRICS.md");
    let generated = Path::new(env!("CARGO_TARGET_TMPDIR")).join("METRICS.md");
    std::fs::write(&generated, &actual).unwrap();
    let expected = std::fs::read_to_string(&committed).unwrap_or_default();
    assert!(
        actual == expected,
        "{} is out of date: a series was added, dropped, renamed, relabelled or re-worded. \
         If intended, copy {} over it.",
        committed.display(),
        generated.display()
    );
}
