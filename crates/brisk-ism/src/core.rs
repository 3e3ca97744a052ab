//! The transport-free ISM composition: CRE switch → on-line sorter →
//! output stage (Fig. 1).
//!
//! [`IsmCore`] is deliberately free of threads, sockets and wall clocks:
//! the caller feeds it batches and drives `tick` with the current
//! (synchronized) time. The threaded [`crate::server::IsmServer`] drives it
//! in real deployments; the deterministic simulator in `brisk-sim` drives
//! it in experiments E5–E7.
//!
//! Since PR 8 the core is a thin composition of two planes: the
//! [`MergePlane`] (CRE + sorter + dedup, see [`crate::merge`]) and an
//! output implementing [`MergeOutput`] — either the [`LocalOutputs`]
//! stage below (memory buffer, durable store, sinks; leaf/root mode) or
//! an [`UpstreamExporter`] (relay mode, see [`crate::relay`]).

use crate::cre::CreStats;
use crate::merge::{MergeOutput, MergePlane, MergeStats};
use crate::output::{EventSink, MemoryBuffer};
use crate::relay::UpstreamExporter;
use crate::sorter::SorterStats;
use brisk_core::{binenc, EventRecord, IsmConfig, NodeId, Result, TraceStage, UtcMicros};
use brisk_proto::BatchWalk;
use brisk_store::StoreWriter;
use brisk_telemetry::{Histogram, Registry, StageLatencies};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of the output memory buffer (bytes).
pub const DEFAULT_MEMORY_BYTES: usize = 8 << 20;

/// The local output stage: one encode feeding the durable store, the
/// shared memory buffer, and any attached sinks; delivery-side trace
/// stamping and latency histograms live here too.
pub struct LocalOutputs {
    memory: Arc<MemoryBuffer>,
    sinks: Vec<Box<dyn EventSink>>,
    /// The durable trace store, opened when `IsmConfig.store.dir` is set.
    /// Kept separate from `sinks` so the server can expose its stats and
    /// bind its telemetry after construction.
    store: Option<StoreWriter>,
    /// Per-stage span histograms with exemplar trace ids, fed by traced
    /// records at delivery time. Optional (present once telemetry is
    /// bound): feeding it takes a lock and atomics per traced record.
    stages: Option<Arc<StageLatencies>>,
    /// Record creation → delivery latency on synchronized time. Optional:
    /// recording costs three atomics per record on a pipeline nobody observes.
    e2e_latency_us: Option<Arc<Histogram>>,
    /// Memory-buffer eviction total already reported to the flight
    /// recorder.
    flight_last_evicted: u64,
    /// Reused encode buffer: each record is encoded here once and the
    /// bytes shared by the store and the memory buffer.
    encoded: Vec<u8>,
    /// Delivered records kept for [`IsmCore::push_frame`] to decode into.
    shells: Shells,
}

/// Delivered records kept for [`IsmCore::push_frame`] to decode the next
/// frames into, so a record costs no allocation once the pool has grown
/// to the records in flight.
///
/// The pool follows demand and has no size knob: a delivered record is
/// kept only while `push_frame` has records out that it has not yet seen
/// delivered, so the pool never holds more shells than `push_frame` has
/// handed out. A core fed through `push_batch`/`push_batch_seq` keeps
/// none, and neither does a relay, whose records leave upstream.
#[derive(Default)]
struct Shells {
    free: Vec<EventRecord>,
    /// Records `push_frame` handed out and not yet seen delivered.
    lent: usize,
}

impl Shells {
    fn take(&mut self) -> EventRecord {
        self.lent += 1;
        self.free.pop().unwrap_or_default()
    }

    /// Keep a delivered record as a shell if `push_frame` is owed one.
    /// Its fields are dropped now, so a parked shell pins no payload.
    fn give_back(&mut self, mut rec: EventRecord) {
        if self.lent > 0 {
            self.lent -= 1;
            rec.fields.clear();
            self.free.push(rec);
        }
    }
}

impl MergeOutput for LocalOutputs {
    /// `now == UtcMicros::MAX` marks the shutdown drain, where "now" is
    /// meaningless and latency samples would be garbage.
    fn on_record(&mut self, mut rec: EventRecord, now: UtcMicros) -> Result<()> {
        if now != UtcMicros::MAX {
            if let Some(ctx) = rec.trace_mut() {
                ctx.stamp(TraceStage::Deliver, now);
                if let Some(stages) = &self.stages {
                    for pair in ctx.stamps().windows(2) {
                        let (from, t0) = pair[0];
                        let (to, t1) = pair[1];
                        stages.observe(
                            (from.code(), from.name()),
                            (to.code(), to.name()),
                            t1.micros_since(t0).max(0) as u64,
                            ctx.trace_id,
                        );
                    }
                }
            }
            if let Some(h) = &self.e2e_latency_us {
                h.record(now.micros_since(rec.ts).max(0) as u64);
            }
        }
        // One encode serves both byte-oriented consumers.
        self.encoded.clear();
        binenc::encode_record(&rec, &mut self.encoded);
        if let Some(store) = &mut self.store {
            store.append_encoded(&rec, &self.encoded)?;
        }
        self.memory.write_bytes(&self.encoded);
        for sink in &mut self.sinks {
            sink.on_record(&rec)?;
        }
        self.shells.give_back(rec);
        Ok(())
    }

    fn pump(&mut self, _now: UtcMicros) -> Result<()> {
        if let Some(store) = &mut self.store {
            store.sync_if_due()?;
        }
        let evicted_total = self.memory.evicted();
        if evicted_total > self.flight_last_evicted {
            brisk_telemetry::flight_log!(
                Info,
                "ism.memory",
                "evict",
                "{} records evicted from the output memory buffer ({evicted_total} total)",
                evicted_total - self.flight_last_evicted
            );
            self.flight_last_evicted = evicted_total;
        }
        Ok(())
    }

    /// The store's interval fsync, when one is pending.
    fn due_in(&self, _now: UtcMicros) -> Option<Duration> {
        let due = self.store.as_ref()?.sync_due()?;
        Some(due.saturating_duration_since(Instant::now()))
    }

    fn flush(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        if let Some(store) = &mut self.store {
            store.flush()?;
        }
        Ok(())
    }
}

/// The ISM pipeline core.
pub struct IsmCore {
    plane: MergePlane,
    local: LocalOutputs,
    /// Relay mode: when set, merged records go upstream instead of to the
    /// local outputs.
    upstream: Option<UpstreamExporter>,
    /// The records of the frame [`Self::push_frame`] is decoding; emptied
    /// into the merge plane and reused across frames.
    batch: Vec<EventRecord>,
}

impl IsmCore {
    /// New core with a [`DEFAULT_MEMORY_BYTES`] memory buffer.
    pub fn new(cfg: IsmConfig) -> Result<Self> {
        cfg.validate()?;
        let store = match cfg.store.dir {
            Some(_) => Some(StoreWriter::open(&cfg.store)?),
            None => None,
        };
        Ok(IsmCore {
            plane: MergePlane::new(&cfg)?,
            local: LocalOutputs {
                memory: MemoryBuffer::new(DEFAULT_MEMORY_BYTES),
                sinks: Vec::new(),
                store,
                stages: None,
                e2e_latency_us: None,
                flight_last_evicted: 0,
                encoded: Vec::new(),
                shells: Shells::default(),
            },
            upstream: None,
            batch: Vec::new(),
        })
    }

    /// Switch the core into relay mode: merged, repaired records are
    /// re-exported upstream instead of delivered to the local outputs.
    /// May be called before or after [`Self::bind_telemetry`].
    pub fn set_upstream(&mut self, exporter: UpstreamExporter) {
        // Already bound: the stage histograms hold the registry for series
        // that appear late, and an exporter attached now is one of those.
        if let Some(stages) = &self.local.stages {
            exporter.bind_telemetry(stages.registry());
        }
        self.upstream = Some(exporter);
    }

    /// The upstream exporter, when the core runs in relay mode.
    pub fn upstream(&self) -> Option<&UpstreamExporter> {
        self.upstream.as_ref()
    }

    /// The upstream exporter, mutably, when the core runs in relay mode.
    pub fn upstream_mut(&mut self) -> Option<&mut UpstreamExporter> {
        self.upstream.as_mut()
    }

    /// Publish this core's counters, gauges and the end-to-end latency
    /// histogram in `registry`. Gauges for the sorter window and CRE hold
    /// queue refresh on every `tick`; the memory buffer is exported
    /// through computed sources so no extra bookkeeping runs per record.
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.plane.bind_telemetry(registry);
        self.local
            .stages
            .get_or_insert_with(|| Arc::new(StageLatencies::new(Arc::clone(registry))));
        registry.register_histogram(
            "brisk_ism_e2e_latency_us",
            "Record creation to output delivery latency (synchronized time)",
            &[],
            self.local.e2e_latency_us.get_or_insert_with(Arc::default),
        );
        let mem = Arc::clone(&self.local.memory);
        registry.gauge_fn(
            "brisk_ism_memory_records",
            "Records currently resident in the output memory buffer",
            &[],
            move || mem.len() as i64,
        );
        let mem = Arc::clone(&self.local.memory);
        registry.counter_fn(
            "brisk_ism_memory_written_total",
            "Records ever written to the output memory buffer",
            &[],
            move || mem.written(),
        );
        let mem = Arc::clone(&self.local.memory);
        registry.counter_fn(
            "brisk_ism_memory_evicted_total",
            "Records evicted from the output memory buffer",
            &[],
            move || mem.evicted(),
        );
        if let Some(store) = &mut self.local.store {
            store.bind_telemetry(registry);
        }
        registry.counter_fn(
            "brisk_trace_stamps_dropped_total",
            "Trace stamps discarded because a record's context was full",
            &[],
            brisk_core::trace_stamps_dropped_total,
        );
        if let Some(up) = &self.upstream {
            up.bind_telemetry(registry);
        }
    }

    /// The default output: the shared memory buffer consumers read.
    pub fn memory(&self) -> &Arc<MemoryBuffer> {
        &self.local.memory
    }

    /// Per-stage trace latency histograms (present once telemetry is
    /// bound); clone the `Arc` to serve exemplars from another thread.
    pub fn stage_latencies(&self) -> Option<&Arc<StageLatencies>> {
        self.local.stages.as_ref()
    }

    /// Attach an additional output sink (PICL file, visual object, …).
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.local.sinks.push(sink);
    }

    /// The durable trace store, when one is configured.
    pub fn store(&self) -> Option<&StoreWriter> {
        self.local.store.as_ref()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> MergeStats {
        self.plane.stats()
    }

    /// Sorter counters (time frame, inversions, …).
    pub fn sorter_stats(&self) -> SorterStats {
        self.plane.sorter_stats()
    }

    /// Current adaptive time frame `T` (µs).
    pub fn frame_us(&self) -> i64 {
        self.plane.frame_us()
    }

    /// CRE counters (tachyons repaired, held, …).
    pub fn cre_stats(&self) -> CreStats {
        self.plane.cre_stats()
    }

    /// Accept one batch frame as it arrived on the wire from `node`, read
    /// off the socket at `recv_ts`, and stamp `PumpRecv` with that time.
    /// This is the ISM loop's batch path and the frame's only walk, over
    /// the header the caller already read:
    ///
    /// 1. a replayed `(node, seq)` is counted and dropped on the header
    ///    alone, as [`MergePlane::push_batch_seq`] would;
    /// 2. each record is decoded straight into a shell — a record this
    ///    core delivered earlier — reusing its `fields` capacity;
    /// 3. only after a clean decode is `seq` admitted (the node's dedup
    ///    mark raised) and the records pushed, from a reused batch vector.
    ///
    /// Returns `true` if the frame was accepted and `false` if it was a
    /// replay; the caller acks either way. The only error is a decode
    /// error, and such a frame enters nothing and leaves `seq` unadmitted.
    pub fn push_frame(
        &mut self,
        node: NodeId,
        seq: u64,
        walk: BatchWalk<'_>,
        recv_ts: UtcMicros,
        now: UtcMicros,
    ) -> Result<bool> {
        let mark = self.plane.seq_mark(node);
        if seq <= *mark {
            self.plane.note_replay(walk.header().count);
            return Ok(false);
        }
        let (shells, batch) = (&mut self.local.shells, &mut self.batch);
        let walked = walk.try_for_each(|origin, view| {
            let mut rec = shells.take();
            let decoded = view.materialize_into(origin, &mut rec);
            rec.stamp_trace(TraceStage::PumpRecv, recv_ts);
            batch.push(rec);
            decoded
        });
        if let Err(e) = walked {
            for rec in self.batch.drain(..) {
                self.local.shells.give_back(rec);
            }
            return Err(e);
        }
        // Raised only now, so the intact resend of a frame that failed to
        // decode is not taken for a replay.
        *mark = seq;
        self.plane.push_batch(self.batch.drain(..), now)?;
        Ok(true)
    }

    /// Accept one *sequenced* batch; see
    /// [`MergePlane::push_batch_seq`].
    pub fn push_batch_seq(
        &mut self,
        node: NodeId,
        seq: Option<u64>,
        records: Vec<EventRecord>,
        now: UtcMicros,
    ) -> Result<bool> {
        self.plane.push_batch_seq(node, seq, records, now)
    }

    /// Accept one batch of records (already correction-adjusted by the
    /// EXS). `now` is the ISM's current time.
    pub fn push_batch(
        &mut self,
        records: impl IntoIterator<Item = EventRecord>,
        now: UtcMicros,
    ) -> Result<()> {
        self.plane.push_batch(records, now)
    }

    /// Advance the pipeline: expire held CRE records, release everything
    /// whose delay elapsed, and deliver it to the active output (local
    /// sinks, or the upstream exporter in relay mode). Returns the number
    /// of records delivered.
    pub fn tick(&mut self, now: UtcMicros) -> Result<usize> {
        match &mut self.upstream {
            Some(up) => self.plane.tick(now, up),
            None => self.plane.tick(now, &mut self.local),
        }
    }

    /// How long until [`Self::tick`] has work at pipeline time `now`; see
    /// [`MergePlane::due_in`]. `None` when nothing is pending: the caller
    /// may sleep until new input.
    pub fn due_in(&self, now: UtcMicros) -> Option<Duration> {
        match &self.upstream {
            Some(up) => self.plane.due_in(now, up),
            None => self.plane.due_in(now, &self.local),
        }
    }

    /// True exactly once after a tachyon repair requested an extra clock
    /// synchronization round (§3.6); the caller (server or simulator)
    /// translates this into an immediate round.
    pub fn take_extra_sync_request(&mut self) -> bool {
        self.plane.take_extra_sync_request()
    }

    /// Shutdown path: flush every held and delayed record to the active
    /// output in merged order, then flush that output (sinks/store — or
    /// ship the final upstream batch in relay mode).
    pub fn drain_all(&mut self) -> Result<usize> {
        match &mut self.upstream {
            Some(up) => self.plane.drain_all(up),
            None => self.plane.drain_all(&mut self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::VecSink;
    use brisk_core::{CorrelationId, EventTypeId, NodeId, SensorId, SorterConfig, Value};
    use std::time::Duration;

    fn rec(node: u32, seq: u64, ts: i64, fields: Vec<Value>) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            fields,
        )
        .unwrap()
    }

    fn core_with_frame(frame_us: i64) -> IsmCore {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: frame_us,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        IsmCore::new(cfg).unwrap()
    }

    #[test]
    fn end_to_end_sorted_delivery() {
        let mut core = core_with_frame(100);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        core.push_batch(
            vec![rec(0, 0, 300, vec![]), rec(0, 1, 500, vec![])],
            UtcMicros::from_micros(500),
        )
        .unwrap();
        core.push_batch(vec![rec(1, 0, 400, vec![])], UtcMicros::from_micros(500))
            .unwrap();
        let n = core.tick(UtcMicros::from_micros(1_000)).unwrap();
        assert_eq!(n, 3);
        let ts: Vec<i64> = sink.snapshot().iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![300, 400, 500]);
        assert_eq!(core.stats().records_in, 3);
        assert_eq!(core.stats().records_out, 3);
        assert_eq!(core.stats().batches_in, 2);
    }

    #[test]
    fn memory_buffer_receives_everything() {
        let mut core = core_with_frame(0);
        let mut reader = core.memory().reader();
        core.push_batch(
            (0..20).map(|i| rec(0, i, i as i64, vec![Value::U64(i)])),
            UtcMicros::ZERO,
        )
        .unwrap();
        core.tick(UtcMicros::from_micros(100)).unwrap();
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0);
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn tachyon_repair_flows_through_and_requests_sync() {
        let mut core = core_with_frame(0);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        let reason = rec(0, 0, 1_000, vec![Value::Reason(CorrelationId(5))]);
        let conseq = rec(1, 0, 900, vec![Value::Conseq(CorrelationId(5))]);
        core.push_batch(vec![reason], UtcMicros::from_micros(1_000))
            .unwrap();
        core.push_batch(vec![conseq], UtcMicros::from_micros(1_000))
            .unwrap();
        assert!(core.take_extra_sync_request());
        assert!(!core.take_extra_sync_request(), "request is one-shot");
        core.tick(UtcMicros::from_micros(10_000)).unwrap();
        let got = sink.snapshot();
        assert_eq!(got.len(), 2);
        assert!(got[0].ts < got[1].ts, "causality restored in output order");
        assert_eq!(core.cre_stats().tachyons_repaired, 1);
    }

    #[test]
    fn held_conseq_expires_through_tick() {
        let mut core = core_with_frame(0);
        let conseq = rec(1, 0, 900, vec![Value::Conseq(CorrelationId(9))]);
        core.push_batch(vec![conseq], UtcMicros::ZERO).unwrap();
        // Before the hold timeout: nothing comes out.
        assert_eq!(core.tick(UtcMicros::from_millis(100)).unwrap(), 0);
        // After (default hold timeout 2 s): the orphan is released.
        let n = core.tick(UtcMicros::from_secs(3)).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn drain_all_flushes_held_and_delayed() {
        let mut core = core_with_frame(1_000_000);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        core.push_batch(
            vec![
                rec(0, 0, 100, vec![]),
                rec(1, 0, 50, vec![Value::Conseq(CorrelationId(1))]),
            ],
            UtcMicros::from_micros(100),
        )
        .unwrap();
        assert_eq!(core.tick(UtcMicros::from_micros(200)).unwrap(), 0);
        let n = core.drain_all().unwrap();
        assert_eq!(n, 2);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn bind_telemetry_tracks_core_flow() {
        let mut core = core_with_frame(100);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        core.push_batch(
            vec![rec(0, 0, 300, vec![]), rec(0, 1, 500, vec![])],
            UtcMicros::from_micros(500),
        )
        .unwrap();
        core.tick(UtcMicros::from_micros(1_000)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_in_total"), 2);
        assert_eq!(snap.counter_total("brisk_ism_batches_in_total"), 1);
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 2);
        assert_eq!(snap.counter_total("brisk_ism_memory_written_total"), 2);
        assert_eq!(snap.gauge("brisk_ism_memory_records"), Some(2));
        let hist = snap
            .histogram("brisk_ism_e2e_latency_us")
            .expect("latency histogram exported");
        assert_eq!(hist.count(), 2);
        // Delivered at now=1000 for ts 300/500 → latencies 700 and 500.
        assert_eq!(hist.max, 700);
        assert!(hist.p50() <= hist.p99());
        // Shutdown drain must not pollute the latency histogram.
        core.push_batch(
            vec![rec(0, 2, 2_000, vec![])],
            UtcMicros::from_micros(2_000),
        )
        .unwrap();
        core.drain_all().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 3);
        let hist = snap.histogram("brisk_ism_e2e_latency_us").unwrap();
        assert_eq!(hist.count(), 2, "drain_all records no latency samples");
        // The trace-stamp drop counter is exported and tracks the
        // process-wide total (other tests may bump it concurrently, so
        // compare against the source rather than an absolute value).
        let ctx = brisk_core::TraceContext::origin(7, UtcMicros::from_micros(1));
        let mut full = rec(0, 3, 3_000, vec![brisk_core::Value::Trace(ctx)]);
        for _ in 0..=brisk_core::MAX_TRACE_STAMPS {
            full.stamp_trace(brisk_core::TraceStage::PumpRecv, UtcMicros::from_micros(1));
        }
        let snap = registry.snapshot();
        let exported = snap.counter_total("brisk_trace_stamps_dropped_total");
        assert!(exported >= 1, "overflow stamp must surface in the metric");
        assert!(exported <= brisk_core::trace_stamps_dropped_total());
    }

    #[test]
    fn late_binding_loses_nothing_and_binding_twice_changes_nothing() {
        let mut core = core_with_frame(100);
        core.push_batch(
            vec![rec(0, 0, 300, vec![]), rec(0, 1, 500, vec![])],
            UtcMicros::from_micros(500),
        )
        .unwrap();
        core.tick(UtcMicros::from_micros(1_000)).unwrap();
        // The cells exist from construction; binding only publishes them.
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        let series = registry.snapshot().samples.len();
        core.bind_telemetry(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.samples.len(), series, "second bind adds no series");
        assert_eq!(snap.counter_total("brisk_ism_records_in_total"), 2);
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 2);
        // ... and the second bind did not orphan what the first registered.
        core.push_batch(vec![rec(0, 2, 900, vec![])], UtcMicros::from_micros(1_000))
            .unwrap();
        core.tick(UtcMicros::from_micros(2_000)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 3);
        let e2e = snap.histogram("brisk_ism_e2e_latency_us").unwrap();
        assert_eq!(e2e.count(), 1, "only the record delivered while bound");
    }

    #[test]
    fn upstream_series_do_not_depend_on_bind_order() {
        let series = |bind_first: bool| {
            let mut core = core_with_frame(0);
            let registry = brisk_telemetry::Registry::new();
            let exporter = crate::relay::UpstreamExporter::new(
                crate::relay::RelayConfig::new(brisk_proto::NodePrefix::new(3).unwrap()),
                Box::new(|| Err(brisk_core::BriskError::Disconnected)),
                Arc::new(brisk_clock::SystemClock),
            );
            if bind_first {
                core.bind_telemetry(&registry);
                core.set_upstream(exporter);
            } else {
                core.set_upstream(exporter);
                core.bind_telemetry(&registry);
            }
            let mut names: Vec<(String, Vec<(String, String)>)> = registry
                .snapshot()
                .samples
                .into_iter()
                .map(|s| (s.name, s.labels))
                .collect();
            names.sort();
            names
        };
        let bound_first = series(true);
        assert_eq!(bound_first, series(false));
        let relay_role = ("role".to_string(), "relay".to_string());
        assert!(bound_first
            .iter()
            .any(|(name, labels)| name == "brisk_uplink_connects_total"
                && labels.contains(&relay_role)));
    }

    #[test]
    fn sequenced_replay_is_dropped_per_node() {
        let mut core = core_with_frame(0);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        let now = UtcMicros::from_micros(100);
        assert!(core
            .push_batch_seq(NodeId(1), Some(1), vec![rec(1, 0, 10, vec![])], now)
            .unwrap());
        assert!(core
            .push_batch_seq(NodeId(1), Some(2), vec![rec(1, 1, 11, vec![])], now)
            .unwrap());
        // Replay of seq 2 from node 1: dropped.
        assert!(!core
            .push_batch_seq(NodeId(1), Some(2), vec![rec(1, 1, 11, vec![])], now)
            .unwrap());
        // Same seq from a *different* node: accepted (per-node streams).
        assert!(core
            .push_batch_seq(NodeId(2), Some(2), vec![rec(2, 0, 12, vec![])], now)
            .unwrap());
        // Unsequenced batches (never sent by a session) are not deduplicated.
        assert!(core
            .push_batch_seq(NodeId(1), None, vec![rec(1, 2, 13, vec![])], now)
            .unwrap());
        let stats = core.stats();
        assert_eq!(stats.batches_in, 4);
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.duplicate_batches, 1);
        assert_eq!(stats.duplicate_records, 1);
        // The plane publishes its plain totals once per tick.
        core.tick(now).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_duplicate_batches_total"), 1);
        assert_eq!(snap.counter_total("brisk_ism_duplicate_records_total"), 1);
    }

    #[test]
    fn store_receives_delivered_records() {
        use brisk_core::StoreConfig;
        use brisk_store::StoreReader;
        let dir = std::env::temp_dir().join(format!("brisk-core-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IsmConfig {
            store: StoreConfig::at(dir.clone()),
            ..IsmConfig::default()
        };
        let registry = brisk_telemetry::Registry::new();
        {
            let mut core = IsmCore::new(cfg).unwrap();
            core.bind_telemetry(&registry);
            assert!(core.store().is_some());
            core.push_batch(
                (0..50).map(|i| rec(0, i, i as i64 * 10, vec![Value::U64(i)])),
                UtcMicros::ZERO,
            )
            .unwrap();
            core.tick(UtcMicros::from_secs(1)).unwrap();
            core.drain_all().unwrap();
        } // core drop seals the store
        let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(recs.len(), 50);
        assert_eq!(report.corrupt_frames, 0);
        let ts: Vec<i64> = recs.iter().map(|r| r.ts.as_micros()).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "stored in sorted order"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_store_records_total"), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_quiet_stream_tail_is_durable_within_the_fsync_interval() {
        use brisk_clock::{Clock, SystemClock};
        use brisk_core::{FsyncPolicy, StoreConfig};
        use brisk_store::StoreReader;
        use std::time::Instant;
        let dir = std::env::temp_dir().join(format!("brisk-core-quiet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let interval = Duration::from_millis(200);
        let mut cfg = IsmConfig {
            store: StoreConfig {
                fsync: FsyncPolicy::Interval(interval),
                ..StoreConfig::at(dir.clone())
            },
            ..IsmConfig::default()
        };
        cfg.sorter.initial_frame_us = 0;
        cfg.sorter.min_frame_us = 0;
        let mut core = IsmCore::new(cfg).unwrap();
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        // A few records well under the store's write threshold,
        // then silence: the stream-time interval never elapses again.
        let t0 = SystemClock.now().as_micros();
        core.push_batch(
            (0..5).map(|i| rec(0, i, t0 + i as i64, vec![Value::U64(i)])),
            UtcMicros::from_micros(t0),
        )
        .unwrap();
        let stopped = Instant::now();
        let mut seen = 0;
        // The loop keeps ticking while no traffic arrives.
        while seen < 5 && stopped.elapsed() < interval + Duration::from_millis(800) {
            core.tick(SystemClock.now()).unwrap();
            seen += tail.poll().unwrap().len();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            seen,
            5,
            "tailer saw {seen} of 5 records after {:?}",
            stopped.elapsed()
        );
        assert!(
            core.store()
                .unwrap()
                .stats()
                .fsyncs
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 2
        );
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_stamps_accumulate_through_the_core() {
        use brisk_core::{TraceContext, TraceStage};
        let mut core = core_with_frame(0);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        // A record as the wire would deliver it: Notice→ExsScoop→
        // BatchSend→PumpRecv already stamped upstream.
        let mut ctx = TraceContext::origin(42, UtcMicros::from_micros(100));
        ctx.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(110));
        ctx.stamp(TraceStage::BatchSend, UtcMicros::from_micros(120));
        ctx.stamp(TraceStage::PumpRecv, UtcMicros::from_micros(140));
        let traced = rec(0, 0, 100, vec![Value::Trace(ctx)]);
        core.push_batch(vec![traced], UtcMicros::from_micros(150))
            .unwrap();
        assert_eq!(core.tick(UtcMicros::from_micros(200)).unwrap(), 1);
        let got = sink.snapshot();
        let ctx = got[0].trace().expect("trace survives the core");
        let stages: Vec<TraceStage> = ctx.stamps().iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages,
            vec![
                TraceStage::Notice,
                TraceStage::ExsScoop,
                TraceStage::BatchSend,
                TraceStage::PumpRecv,
                TraceStage::SorterAdmit,
                TraceStage::SorterRelease,
                TraceStage::Deliver,
            ]
        );
        assert!(
            ctx.stamps().windows(2).all(|w| w[0].1 <= w[1].1),
            "stamps must be monotonic: {ctx}"
        );
        // Every consecutive pair fed the stage histograms with this
        // record's id as the exemplar.
        let (_, exemplar) = core
            .stage_latencies()
            .expect("bound core exposes stage latencies")
            .slowest_exemplar()
            .expect("spans observed");
        assert_eq!(exemplar, 42);
    }

    #[test]
    fn cre_repair_and_hold_are_stamped() {
        use brisk_core::{TraceContext, TraceStage};
        let mut core = core_with_frame(0);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        let now = UtcMicros::from_micros(1_000);
        // Consequence first (held), its trace sampled at origin.
        let conseq = EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(2),
            0,
            UtcMicros::from_micros(900),
            vec![
                Value::Conseq(CorrelationId(5)),
                Value::Trace(TraceContext::origin(7, UtcMicros::from_micros(900))),
            ],
        )
        .unwrap();
        core.push_batch(vec![conseq], now).unwrap();
        // Reason arrives later with a later ts: the held conseq is a
        // tachyon — released, repaired, and both hops stamped.
        let reason = rec(0, 0, 950, vec![Value::Reason(CorrelationId(5))]);
        core.push_batch(vec![reason], now).unwrap();
        core.tick(UtcMicros::from_micros(10_000)).unwrap();
        let got = sink.snapshot();
        assert_eq!(got.len(), 2);
        let ctx = got
            .iter()
            .find_map(|r| r.trace())
            .expect("traced conseq delivered");
        assert_eq!(ctx.stamp_at(TraceStage::CreHold), Some(now));
        assert_eq!(ctx.stamp_at(TraceStage::CreRepair), Some(now));
    }

    #[test]
    fn invalid_config_rejected() {
        let spoils: [fn(&mut IsmConfig); 2] = [
            |c| c.sorter.decay_factor = 7.0,
            // Rounds to a 0 µs decay interval, which the sorter divides by.
            |c| c.sorter.decay_interval = Duration::from_nanos(500),
        ];
        for spoil in spoils {
            let mut cfg = IsmConfig::default();
            spoil(&mut cfg);
            assert!(IsmCore::new(cfg).is_err());
        }
    }
}
