//! The merge plane: CRE switch → adaptive sorter → an output behind a
//! trait.
//!
//! PR 8 splits the old monolithic `IsmCore` in two. The *session plane*
//! (connections, protocol, credit, quarantine) already lives in the
//! reactor/server; what remained entangled was the *merge plane* — the
//! causality switch and the on-line sorter — with its delivery targets.
//! [`MergePlane`] owns the former and knows the latter only as a
//! `&mut dyn` [`MergeOutput`], so the very same merging/repairing logic
//! can feed
//!
//! * local sinks (memory buffer, durable store, PICL files) when the ISM
//!   is a leaf or the tree root, or
//! * an upstream exporter (`crate::relay::UpstreamExporter`) when the ISM
//!   is a *relay* re-exporting its merged subtree to a parent ISM.
//!
//! Backpressure composes through the trait: when an output reports
//! `!ready()` (upstream credit exhausted, link down), the plane stops
//! polling the sorter, and records accumulate there until the output is
//! ready again.

use crate::cre::{CreMatcher, CreStats};
use crate::sorter::{OnlineSorter, OverloadPolicy, SorterStats};
use brisk_clock::Hlc;
use brisk_core::{
    EventRecord, HlcStamp, IsmConfig, NodeId, OrderMode, RecordMarks, Result, TraceStage, UtcMicros,
};
use brisk_telemetry::{HistogramSnapshot, Registry};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// Where merged, repaired records go. Implemented by the local output
/// stage (leaf/root mode) and by the upstream exporter (relay mode).
pub trait MergeOutput: Send {
    /// Deliver one record released by the sorter. `now` is the pipeline's
    /// current synchronized time, or [`UtcMicros::MAX`] during the
    /// shutdown drain (when "now" is meaningless and latency samples
    /// would be garbage).
    fn on_record(&mut self, rec: EventRecord, now: UtcMicros) -> Result<()>;

    /// May the plane release more records right now? A relay returns
    /// `false` while its upstream link is down or out of credit, which
    /// parks released-eligible records in the sorter instead of growing
    /// an unbounded queue here.
    fn ready(&self) -> bool {
        true
    }

    /// Housekeeping hook driven once per plane tick *before* release:
    /// timed flushes, credit checks, interval fsyncs.
    fn pump(&mut self, _now: UtcMicros) -> Result<()> {
        Ok(())
    }

    /// How long until [`Self::pump`] has work that is due, at pipeline
    /// time `now`; `None` when nothing is pending.
    fn due_in(&self, _now: UtcMicros) -> Option<Duration> {
        None
    }

    /// Flush everything buffered (shutdown path).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

brisk_telemetry::metrics! {
    /// Registry cells behind [`MergeStats`]. The plane runs on one thread
    /// (the ISM's loop), so its working totals are the plain snapshot and the
    /// cells are published once per tick — no atomics per record.
    struct MergeCells =>
    /// Aggregate counters of one merge plane.
    pub struct MergeStats {
        /// Records received in batches.
        records_in: counter "brisk_ism_records_in_total" "Records received by the ISM core",
        /// Records delivered to the output stage.
        records_out: counter "brisk_ism_records_out_total" "Records delivered to the output stage",
        /// Batches received.
        batches_in: counter "brisk_ism_batches_in_total" "Batches received by the ISM core",
        /// Sequenced batches dropped as replays (seq ≤ last seen for the node).
        duplicate_batches: counter "brisk_ism_duplicate_batches_total" "Replayed batches dropped by sequence-number dedup",
        /// Records inside those dropped replay batches.
        duplicate_records: counter "brisk_ism_duplicate_records_total" "Records inside replayed batches dropped by dedup",
    }
}

brisk_telemetry::metrics! {
    /// Sorter, CRE and HLC state, mirrored from those components' own
    /// plain stats once per tick rather than threading atomics through
    /// them.
    struct MirrorCells {
        sorter_depth: gauge "brisk_ism_sorter_depth" "Records buffered in the on-line sorter window",
        sorter_frame_us: gauge "brisk_ism_sorter_frame_us" "Current adaptive sorter time frame T (us)",
        cre_held: gauge "brisk_ism_cre_held" "Consequence records currently held by the CRE switch",
        tachyons_repaired: counter "brisk_ism_tachyons_repaired_total" "Causality violations repaired by the CRE switch",
        shed: counter "brisk_ism_shed_total" "Unmarked records dropped by the overload-shedding policy",
        ts_clamped: counter "brisk_ism_ts_clamped_total" "Non-monotone same-source records whose timestamp was clamped",
        extra_sync_suppressed: counter "brisk_sync_extra_suppressed_total" "Extra sync requests suppressed by the token-bucket rate limit",
        causal_reorders: counter "brisk_hlc_causal_reorders_total" "Records delivered out of physical-ts order because HLC order demanded it",
        hlc_divergence_us: histogram "brisk_hlc_divergence_us" "|X_HLC physical - ISM clock| at batch receive (us)",
    }
}

/// CRE switch + adaptive sorter + per-node dedup, decoupled from any
/// particular output.
pub struct MergePlane {
    cre: CreMatcher,
    sorter: OnlineSorter,
    order: OrderMode,
    /// The plane's own hybrid logical clock: merged with every received
    /// stamp (so downstream stamps dominate the whole subtree) and the
    /// source of stamps for records that arrive without one in causal
    /// mode.
    hlc: Arc<Hlc>,
    stats: MergeStats,
    extra_sync_pending: bool,
    /// Records delivered out of physical-timestamp order because the HLC
    /// order demanded it — the visible work causal mode does.
    causal_reorders: u64,
    /// Last delivered physical ts (causal-reorder detection).
    last_out_ts: Option<UtcMicros>,
    /// |HLC physical − ISM now| already above the flight-recorder alert
    /// threshold?
    flight_divergence_alerted: bool,
    /// Highest batch sequence number accepted per node.
    /// Replayed batches (seq ≤ the entry) are dropped here, which is what
    /// turns the wire's at-least-once delivery into exactly-once at the
    /// output. Lives in the plane — not the pump — so the memory survives
    /// the connection teardown/reconnect that triggers replays.
    last_seq: HashMap<NodeId, u64>,
    cells: Arc<MergeCells>,
    mirror: Arc<MirrorCells>,
    /// |X_HLC physical − ISM now|, one sample per batch (its largest),
    /// since the last tick; folded into `mirror.hlc_divergence_us` when
    /// the tick publishes.
    divergence_us: HistogramSnapshot,
    /// Sorter shed total already reported to the flight recorder.
    flight_shed_reported: u64,
    /// Records released by the sorter, awaiting delivery; emptied by every
    /// delivery and reused across ticks.
    released: Vec<EventRecord>,
}

impl MergePlane {
    /// New plane from the sorter/CRE/flow sections of an [`IsmConfig`]
    /// (the config must already be validated by the caller).
    pub fn new(cfg: &IsmConfig) -> Result<Self> {
        let mut sorter = OnlineSorter::new(cfg.sorter.clone(), cfg.max_buffered_records)?;
        if cfg.flow.shed_unmarked {
            sorter.set_overload_policy(OverloadPolicy::ShedUnmarked);
        }
        sorter.set_order_mode(cfg.order_mode);
        let mut cre = CreMatcher::new(cfg.cre.clone())?;
        cre.set_order_mode(cfg.order_mode);
        Ok(MergePlane {
            cre,
            sorter,
            order: cfg.order_mode,
            hlc: Hlc::new(),
            stats: MergeStats::default(),
            extra_sync_pending: false,
            causal_reorders: 0,
            last_out_ts: None,
            flight_divergence_alerted: false,
            last_seq: HashMap::new(),
            cells: Arc::default(),
            mirror: Arc::default(),
            divergence_us: HistogramSnapshot::default(),
            flight_shed_reported: 0,
            released: Vec::new(),
        })
    }

    /// Publish the plane's counters and gauges in `registry`. They are
    /// refreshed on every [`Self::tick`].
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.hlc.bind_telemetry(registry, "ism");
        self.cells.register(registry, &[]);
        self.mirror.register(registry, &[]);
        self.publish_telemetry();
    }

    /// The plane's hybrid logical clock (merged with every received stamp).
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// Records delivered out of physical-ts order under causal ordering.
    pub fn causal_reorders(&self) -> u64 {
        self.causal_reorders
    }

    /// Aggregate counters.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Sorter counters (time frame, inversions, …).
    pub fn sorter_stats(&self) -> SorterStats {
        self.sorter.stats()
    }

    /// Current adaptive time frame `T` (µs).
    pub fn frame_us(&self) -> i64 {
        self.sorter.frame_us()
    }

    /// Records currently buffered in the sorter window.
    pub fn buffered(&self) -> usize {
        self.sorter.buffered()
    }

    /// CRE counters (tachyons repaired, held, …).
    pub fn cre_stats(&self) -> CreStats {
        self.cre.stats()
    }

    /// True exactly once after a tachyon repair requested an extra clock
    /// synchronization round (§3.6); the caller (server or simulator)
    /// translates this into an immediate round.
    pub fn take_extra_sync_request(&mut self) -> bool {
        std::mem::take(&mut self.extra_sync_pending)
    }

    /// Accept one *sequenced* batch, deduplicating by
    /// `(node, seq)`: a batch whose sequence number is not above the
    /// highest already accepted from `node` is a replay and is dropped
    /// (counted, not processed). Returns `true` if the batch was accepted,
    /// `false` if it was dropped as a duplicate — the caller should ack
    /// either way (a replay means our previous ack was lost with the old
    /// connection).
    ///
    /// `seq == None` (in-process drivers that feed the core directly; the
    /// session never forwards one) is always accepted.
    pub fn push_batch_seq(
        &mut self,
        node: NodeId,
        seq: Option<u64>,
        records: Vec<EventRecord>,
        now: UtcMicros,
    ) -> Result<bool> {
        if let Some(seq) = seq {
            let mark = self.seq_mark(node);
            if seq <= *mark {
                self.note_replay(records.len());
                return Ok(false);
            }
            *mark = seq;
        }
        self.push_batch(records, now)?;
        Ok(true)
    }

    /// `node`'s dedup high-water mark: the highest seq accepted from it,
    /// 0 before any. A seq at or below it is a replay.
    pub(crate) fn seq_mark(&mut self, node: NodeId) -> &mut u64 {
        self.last_seq.entry(node).or_insert(0)
    }

    /// Count one replayed batch of `count` records, dropped unprocessed.
    pub(crate) fn note_replay(&mut self, count: usize) {
        self.stats.duplicate_batches += 1;
        self.stats.duplicate_records += count as u64;
    }

    /// Accept one batch of records (already correction-adjusted by the
    /// EXS). `now` is the ISM's current time.
    pub fn push_batch(
        &mut self,
        records: impl IntoIterator<Item = EventRecord>,
        now: UtcMicros,
    ) -> Result<()> {
        self.stats.batches_in += 1;
        // Observing a stamp is a set-max, which is associative: folding the
        // batch down to its max stamp and observing that once is equivalent
        // to observing every record, without taking the HLC lock per record.
        let mut batch_max: Option<HlcStamp> = None;
        let mut batch_max_logical = 0u32;
        // The batch's largest |X_HLC physical − now| and whose it is: one
        // divergence sample per batch.
        let mut worst: Option<(u64, NodeId)> = None;
        for mut rec in records {
            self.stats.records_in += 1;
            // One pass over the fields serves the HLC step, the CRE and the
            // sorter-admit stamp.
            let mut marks = rec.marks();
            let mut stamp = None;
            if self.order == OrderMode::Causal {
                let s = Self::merge_hlc(&mut rec, &mut marks);
                batch_max = Some(batch_max.map_or(s, |m| m.max(s)));
                batch_max_logical = batch_max_logical.max(s.logical);
                let divergence = s.divergence_us(now).unsigned_abs();
                if worst.is_none_or(|(d, _)| divergence > d) {
                    worst = Some((divergence, rec.node));
                }
                stamp = Some(s);
            }
            let out = self.cre.process_marked(rec, marks, now);
            if out.request_extra_sync {
                self.extra_sync_pending = true;
            }
            // The input passes first, if at all: whether it is traced is
            // known, and so is its merge stamp — unless the CRE repaired
            // it. Records a reason released (and any the sorter clamps)
            // are looked at anew.
            let mut input = Some((marks.traced, stamp.filter(|_| !out.input_repaired)));
            for mut passed in out.pass {
                let (traced, known) = input.take().unwrap_or((true, None));
                if traced {
                    passed.stamp_trace(TraceStage::SorterAdmit, now);
                }
                self.sorter.push_keyed(passed, known);
            }
        }
        if let Some(max) = batch_max {
            self.hlc.observe(max);
            self.hlc.note_logical(batch_max_logical);
        }
        if let Some((divergence, node)) = worst {
            self.divergence_us.record(divergence);
            // One flight-recorder alert per plane once physical clocks have
            // visibly diverged from causal time — the breadcrumb that says
            // "trust HLC order, not the timestamps" when debugging a capture.
            if divergence > 1_000_000 && !self.flight_divergence_alerted {
                self.flight_divergence_alerted = true;
                brisk_telemetry::flight_log!(
                    Warn,
                    "ism.hlc",
                    "divergence",
                    "X_HLC physical diverges from ISM clock by {divergence} us (node {node})"
                );
            }
        }
        Ok(())
    }

    /// Causal-mode receive step: read the record's `X_HLC` (stamping
    /// records that arrived without one — the stamp materializes the
    /// physical-ts fallback so it survives re-export through relay tiers)
    /// and return it for the caller's batch-max fold into the plane's
    /// clock, so everything stamped downstream dominates the whole
    /// subtree. It is also the record's merge stamp.
    fn merge_hlc(rec: &mut EventRecord, marks: &mut RecordMarks) -> HlcStamp {
        match marks.hlc {
            Some(s) => s,
            None => {
                let s = HlcStamp::new(rec.ts, 0);
                if rec.set_hlc(s) {
                    marks.hlc = Some(s);
                }
                s
            }
        }
    }

    /// Advance the pipeline: pump the output, expire held CRE records,
    /// release everything whose delay elapsed (if the output is ready for
    /// it), and deliver. Returns the number of records delivered.
    pub fn tick(&mut self, now: UtcMicros, out: &mut dyn MergeOutput) -> Result<usize> {
        out.pump(now)?;
        for expired in self.cre.expire(now) {
            self.sorter.push(expired);
        }
        let n = if out.ready() {
            self.sorter.poll_into(now, &mut self.released);
            self.deliver(now, out)?
        } else {
            0
        };
        let shed_total = self.sorter.stats().shed;
        if shed_total > self.flight_shed_reported {
            brisk_telemetry::flight_log!(
                Warn,
                "ism.sorter",
                "shed",
                "{} unmarked records shed under overload ({shed_total} total)",
                shed_total - self.flight_shed_reported
            );
            self.flight_shed_reported = shed_total;
        }
        self.publish_telemetry();
        Ok(n)
    }

    /// How long until [`Self::tick`] has work at pipeline time `now`: the
    /// sorter's next release or decay step (only while `out` is ready to
    /// take releases), the CRE's oldest hold expiry, or `out`'s own due
    /// time. `None` when nothing is pending.
    pub fn due_in(&self, now: UtcMicros, out: &dyn MergeOutput) -> Option<Duration> {
        let release = self.sorter.next_due().filter(|_| out.ready());
        let due = release.into_iter().chain(self.cre.next_expiry()).min();
        let until = due.map(|t| Duration::from_micros(t.micros_since(now).max(0) as u64));
        until.into_iter().chain(out.due_in(now)).min()
    }

    /// Bring the cells up to the plane's, the sorter's and the CRE's own
    /// plain stats.
    fn publish_telemetry(&mut self) {
        self.cells.publish(&self.stats);
        let (m, sorter, cre) = (&self.mirror, self.sorter.stats(), self.cre.stats());
        m.sorter_depth.store(self.sorter.buffered() as i64, Relaxed);
        m.sorter_frame_us.store(self.sorter.frame_us(), Relaxed);
        m.cre_held.store(self.cre.held_count() as i64, Relaxed);
        m.tachyons_repaired.store(cre.tachyons_repaired, Relaxed);
        m.shed.store(sorter.shed, Relaxed);
        m.ts_clamped.store(sorter.ts_clamped, Relaxed);
        m.extra_sync_suppressed
            .store(cre.extra_syncs_suppressed, Relaxed);
        m.causal_reorders.store(self.causal_reorders, Relaxed);
        m.hlc_divergence_us.absorb(&mut self.divergence_us);
    }

    /// Shutdown path: flush every held and delayed record to the output
    /// in merged order (ignoring `ready()` — the data must leave), then
    /// flush the output itself.
    pub fn drain_all(&mut self, out: &mut dyn MergeOutput) -> Result<usize> {
        for expired in self.cre.expire(UtcMicros::MAX) {
            self.sorter.push(expired);
        }
        self.released.extend(self.sorter.drain_all());
        let n = self.deliver(UtcMicros::MAX, out)?;
        out.flush()?;
        // The shutdown drain sheds and repairs too, with no tick to follow.
        self.publish_telemetry();
        Ok(n)
    }

    /// Hand every released record to `out`, emptying the release buffer.
    /// A real `now` (not the shutdown drain's `MAX`) also stamps the
    /// sorter-release hop of traced records.
    fn deliver(&mut self, now: UtcMicros, out: &mut dyn MergeOutput) -> Result<usize> {
        let n = self.released.len();
        for mut rec in self.released.drain(..) {
            if now != UtcMicros::MAX {
                rec.stamp_trace(TraceStage::SorterRelease, now);
            }
            if self.order == OrderMode::Causal {
                if let Some(last) = self.last_out_ts {
                    if rec.ts < last {
                        self.causal_reorders += 1;
                    }
                }
                self.last_out_ts = Some(rec.ts.max(self.last_out_ts.unwrap_or(rec.ts)));
            }
            out.on_record(rec, now)?;
            self.stats.records_out += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, SensorId, SorterConfig};

    fn rec(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![],
        )
        .unwrap()
    }

    fn plane(frame_us: i64) -> MergePlane {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: frame_us,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        MergePlane::new(&cfg).unwrap()
    }

    /// Collects records; `ready` flips to model a stalled upstream.
    struct TestOut {
        got: Vec<EventRecord>,
        ready: bool,
        pumps: usize,
    }

    impl TestOut {
        fn new() -> Self {
            TestOut {
                got: Vec::new(),
                ready: true,
                pumps: 0,
            }
        }
    }

    impl MergeOutput for TestOut {
        fn on_record(&mut self, rec: EventRecord, _now: UtcMicros) -> Result<()> {
            self.got.push(rec);
            Ok(())
        }
        fn ready(&self) -> bool {
            self.ready
        }
        fn pump(&mut self, _now: UtcMicros) -> Result<()> {
            self.pumps += 1;
            Ok(())
        }
    }

    #[test]
    fn a_stalled_output_parks_records_in_the_sorter() {
        let mut p = plane(0);
        let mut out = TestOut::new();
        out.ready = false;
        p.push_batch(
            vec![rec(1, 0, 100), rec(1, 1, 200)],
            UtcMicros::from_micros(200),
        )
        .unwrap();
        // Output not ready: nothing released, records parked in the window.
        assert_eq!(p.tick(UtcMicros::from_micros(10_000), &mut out).unwrap(), 0);
        assert!(out.got.is_empty());
        assert_eq!(p.buffered(), 2);
        assert_eq!(out.pumps, 1, "pump still runs while stalled");
        // Output recovers: everything flows, in order.
        out.ready = true;
        assert_eq!(p.tick(UtcMicros::from_micros(20_000), &mut out).unwrap(), 2);
        let ts: Vec<i64> = out.got.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![100, 200]);
        assert_eq!(p.stats().records_out, 2);
    }

    #[test]
    fn causal_plane_stamps_unstamped_records_and_counts_reorders() {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: 0,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            order_mode: brisk_core::OrderMode::Causal,
            ..IsmConfig::default()
        };
        let mut p = MergePlane::new(&cfg).unwrap();
        let mut out = TestOut::new();
        // Node 1's clock is 2 s fast: its record's header ts looks far
        // later than node 2's, but its HLC stamp is causally earlier.
        let mut fast = rec(1, 0, 2_000_300);
        fast.set_hlc(brisk_core::HlcStamp::new(UtcMicros::from_micros(300), 0));
        let slow = rec(2, 0, 400); // unstamped: falls back to ts 400
        let now = UtcMicros::from_micros(500);
        p.push_batch(vec![fast, slow], now).unwrap();
        p.tick(UtcMicros::from_micros(10_000_000), &mut out)
            .unwrap();
        assert_eq!(out.got.len(), 2);
        assert!(
            out.got.iter().all(|r| r.hlc().is_some()),
            "every delivered record carries a stamp in causal mode"
        );
        assert_eq!(out.got[0].node, NodeId(1), "hlc 300 first");
        assert_eq!(out.got[1].node, NodeId(2));
        assert_eq!(
            p.causal_reorders(),
            1,
            "node 2's record was delivered after a (physically) later one"
        );
        assert!(p.hlc().last().physical >= UtcMicros::from_micros(300));
    }

    #[test]
    fn a_repaired_tachyon_merges_by_its_repaired_stamp() {
        use brisk_core::{CorrelationId, HlcStamp, Value};
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: 0,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            order_mode: brisk_core::OrderMode::Causal,
            ..IsmConfig::default()
        };
        let mut p = MergePlane::new(&cfg).unwrap();
        let mut out = TestOut::new();
        let stamped = |node, ts, hlc: (i64, u32), mark: Option<Value>| {
            let mut r = rec(node, 0, ts);
            r.fields.extend(mark);
            r.set_hlc(HlcStamp::new(UtcMicros::from_micros(hlc.0), hlc.1));
            r
        };
        let reason = stamped(1, 1_000, (1_000, 5), Some(Value::Reason(CorrelationId(7))));
        let plain = stamped(3, 950, (950, 0), None);
        // Read on receive as (900, 0), below both; the CRE raises it to
        // (1000, 6), just above its reason.
        let tachyon = stamped(2, 900, (900, 0), Some(Value::Conseq(CorrelationId(7))));
        let now = UtcMicros::from_micros(1_000);
        p.push_batch(vec![reason, plain], now).unwrap();
        p.push_batch(vec![tachyon], now).unwrap();
        assert_eq!(p.cre_stats().tachyons_repaired, 1);
        p.tick(UtcMicros::from_micros(10_000_000), &mut out)
            .unwrap();
        let nodes: Vec<u32> = out.got.iter().map(|r| r.node.raw()).collect();
        assert_eq!(
            nodes,
            vec![3, 1, 2],
            "the repaired conseq follows its reason"
        );
    }

    #[test]
    fn drain_ignores_readiness() {
        let mut p = plane(1_000_000);
        let mut out = TestOut::new();
        out.ready = false;
        p.push_batch(vec![rec(1, 0, 100)], UtcMicros::from_micros(100))
            .unwrap();
        assert_eq!(p.drain_all(&mut out).unwrap(), 1);
        assert_eq!(out.got.len(), 1);
    }

    #[test]
    fn drain_reports_sheds_that_happened_after_the_last_tick() {
        // A batch pushed during the shutdown drain sheds like any other;
        // the registry must not miss it just because no tick follows.
        let mut cfg = IsmConfig {
            max_buffered_records: 4,
            ..IsmConfig::default()
        };
        cfg.flow.shed_unmarked = true;
        cfg.sorter.initial_frame_us = 1_000_000;
        let mut p = MergePlane::new(&cfg).unwrap();
        let registry = Registry::new();
        p.bind_telemetry(&registry);
        let batch: Vec<EventRecord> = (0..10).map(|i| rec(1, i, 100 + i as i64)).collect();
        p.push_batch(batch, UtcMicros::from_micros(200)).unwrap();
        let mut out = TestOut::new();
        let delivered = p.drain_all(&mut out).unwrap() as u64;
        let shed = p.sorter_stats().shed;
        assert!(shed > 0 && delivered + shed == 10);
        assert_eq!(
            registry.snapshot().counter_total("brisk_ism_shed_total"),
            shed
        );
    }
}
