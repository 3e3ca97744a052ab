//! The external sensor (EXS), as a machine.
//!
//! "The memory is read by an external sensor, which runs as another process
//! on the same node and may be assigned a lower priority" (§3.1). The EXS:
//!
//! 1. drains the node's sensor rings,
//! 2. adds the clock-sync *correction value* to every timestamp (§3.2),
//! 3. batches records under the latency-control knobs and ships batches to
//!    the ISM over the transfer protocol (§3.4),
//! 4. acts as the clock-sync *slave*: answers `SyncPoll`s with its corrected
//!    time and applies `SyncAdjust`s to the correction value (§3.3).
//!
//! Owned records exist only between ring and wire, and they are reused:
//! once a batch is encoded into the retransmit window, its records become
//! the shells the next drain decodes into and its vector carries the next
//! batch, so a steady EXS allocates one frame per batch and nothing per
//! record.
//!
//! [`ExternalSensor`] makes those decisions and does no I/O: it holds
//! its link's [`Uplink`] but no socket, dialer, poll set or wall clock.
//! Its inputs carry the driver's monotonic `now`: a frame from the ISM
//! ([`ExternalSensor::on_frame`]), the link's fate (through
//! [`ExternalSensor::uplink`]), and one bounded pass over the rings
//! ([`ExternalSensor::step`]) that drains, batches, ships, heartbeats or
//! dials and never sleeps. Its outputs are its link's. After an idle
//! pass [`ExternalSensor::wait`] names what to wait for: one deadline
//! (the partial batch's flush, the heartbeat, the next dial) and the fill
//! level of the node's rings that should wake the driver. With nothing
//! buffered the level is one record, so an idle EXS wakes only for its
//! link's traffic and heartbeats, and the first record starts the batch's
//! flush deadline at once. With a partial batch the level is what the
//! batch lacks under both size knobs, counted over all the node's rings
//! together, so the record that fills the batch wakes the EXS, whichever
//! sensor emits it, and it ships the batch then. With its credit spent,
//! or its link down, records wake nothing, and while the link is down
//! they stay in the rings. The driver is [`crate::runtime`]: one thread
//! waiting in one `poll(2)` — the "waiting select system call" the paper
//! identifies as the worst-case latency contributor (§4).
//!
//! All EXS *deadlines* (the flush timeout in particular) are measured on
//! the node's clock, not on wall time, so the whole component is
//! deterministic under a simulated clock. The flip side: a simulated clock
//! that stops advancing freezes those deadlines — tests and examples that
//! drive a `SimClock` must keep advancing it (or call the handle's `stop`,
//! which force-flushes) for timeout flushes to fire.
//!
//! One EXS serves its node's whole lifetime, across links ("robust",
//! §1): each link that comes up **carries the clock-sync correction value
//! over**, so the node does not fall back to raw time while the master
//! re-converges, and replays the window, which the ISM deduplicates by
//! `(node, seq)`: delivery to the sinks is exactly-once. The link's
//! counters are the [`Uplink`]'s own ([`UplinkStats`]); the EXS counts
//! only what it does itself.

use crate::batch::{Batcher, FlushReason};
use crate::uplink::{Control, SupervisorConfig, Uplink, UplinkStats, UplinkTelemetry};
use brisk_clock::{Clock, CorrectedClock, Hlc};
use brisk_core::{EventRecord, ExsConfig, NodeId, Result, TraceStage};
use brisk_ringbuf::{Fill, RingSet};
use brisk_telemetry::Registry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

brisk_telemetry::metrics! {
    /// Shared atomic backing for [`ExsStats`] plus the EXS's stage
    /// histograms, and the cells of its [`Uplink`]. Lives in an `Arc` so a
    /// telemetry registry (and the spawning thread, via [`ExsHandle`]) can
    /// observe a live EXS without locking: the EXS thread bumps every
    /// cell in place.
    pub struct ExsTelemetry =>
    /// Counters the EXS maintains while running, and (as `link`, which it
    /// derefs to) its link's.
    pub struct ExsStats {
        /// Records drained from sensor rings.
        records_drained: counter "brisk_exs_records_drained_total" "Records drained from sensor rings",
        /// Records handed to a live ISM link (first transmissions).
        records_sent: counter "brisk_exs_records_sent_total" "Records handed to a live ISM link (first transmissions)",
        /// Batches handed to a live ISM link (first transmissions).
        batches_sent: counter "brisk_exs_batches_sent_total" "Batches handed to a live ISM link (first transmissions)",
        /// Batches flushed by the record-count knob.
        flush_records: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "records"],
        /// Batches flushed by the byte-size knob.
        flush_bytes: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "bytes"],
        /// Batches flushed by the latency timeout.
        flush_timeout: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "timeout"],
        /// Batches flushed explicitly (shutdown).
        flush_forced: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "forced"],
        /// Sync adjustments applied.
        adjustments: counter "brisk_exs_adjustments_total" "Clock adjustments applied",
        /// Sync adjustments ignored because `sync_disabled` is set (chaos
        /// plane: the node's clock is deliberately left to drift).
        sync_ignored: counter "brisk_exs_sync_ignored_total" "Clock adjustments ignored (sync disabled on this node)",
        /// Ring scoops deferred because the ISM's credit budget was spent
        /// (credit flow control); backpressure is parked in the rings.
        credit_deferrals: counter "brisk_exs_credit_deferred_total" "Ring scoops deferred waiting for ISM credit",
        /// Loop iterations executed.
        iterations: counter "brisk_exs_iterations_total" "EXS loop iterations",
        /// Per-step drain+batch latency in µs, on the node's clock (so it is
        /// deterministic under `SimClock`).
        drain_us: histogram "brisk_exs_drain_us" "Per-step drain+batch latency on the node clock",
        /// Records per emitted batch.
        batch_records: histogram "brisk_exs_batch_records" "Records per emitted batch",
    } + link: UplinkTelemetry => UplinkStats
}

impl ExsTelemetry {
    /// Register every EXS series with `registry`, labeled by node, and
    /// its link's under `role="exs"`.
    pub fn bind(self: &Arc<Self>, node: NodeId, registry: &Registry) {
        self.register(registry, &[("node", &node.0.to_string())]);
        self.link.bind("exs", node, registry);
    }
}

/// What the driver waits for after an idle pass, besides link input and
/// its own stop ([`ExternalSensor::wait`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExsWait {
    /// The next deadline on the driver's clock: the partial batch's
    /// flush, the heartbeat or the next dial. `None`: no deadline.
    pub deadline: Option<Duration>,
    /// The fill level of the node's rings that should wake the driver.
    /// `None`: records must not wake it (credit spent, or link down).
    pub fill: Option<Fill>,
}

/// An XDR-encoded record, with the stamps the EXS adds, is at most twice
/// its ring frame, length prefix included: the ring's 32 bytes of prefix
/// and header outweigh the XDR padding of up to eight 1-byte fields, an
/// added `X_HLC` and a trace stamp. So the rings must hold at least half
/// the XDR bytes a batch lacks before its byte knob can trip.
const XDR_PER_RING_BYTE: usize = 2;

/// The external sensor: one per node.
pub struct ExternalSensor {
    node: NodeId,
    rings: Arc<RingSet>,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    cfg: ExsConfig,
    batcher: Batcher,
    shared: Arc<ExsTelemetry>,
    drain_buf: Vec<EventRecord>,
    /// Records of shipped batches, emptied, for the next drain to decode
    /// over: their `fields` vectors are reused, not reallocated.
    shells: Vec<EventRecord>,
    /// The session with the ISM: retransmit window, credit, acks, replay,
    /// heartbeats, control frames and redial. It outlives any one link.
    uplink: Uplink,
    /// Hybrid logical clock, ticked per record at scoop time when
    /// `cfg.stamp_hlc` is set (the stamp rides as `X_HLC`).
    hlc: Arc<Hlc>,
}

impl ExternalSensor {
    /// An EXS whose link is down, its first dial due at once, redialing
    /// under [`SupervisorConfig::default`]. A driver with one connection
    /// reports it up ([`Uplink::up`]) instead of dialing.
    ///
    /// `raw_clock` is the same clock the node's sensors sample; the EXS
    /// wraps it with the correction value it maintains.
    pub fn new(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        cfg: ExsConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        let clock = CorrectedClock::new(raw_clock);
        // Polls are answered with the *corrected* local time: slaves
        // converge on each other through their corrections.
        let uplink = Uplink::new(
            node,
            Arc::clone(&clock) as Arc<dyn Clock>,
            cfg.retransmit_window_batches,
            cfg.heartbeat_interval,
        );
        let shared = Arc::new(ExsTelemetry {
            link: Arc::clone(uplink.telemetry()),
            ..ExsTelemetry::default()
        });
        Ok(ExternalSensor {
            node,
            rings,
            clock,
            batcher: Batcher::new(cfg.clone()),
            cfg,
            shared,
            drain_buf: Vec::with_capacity(512),
            shells: Vec::new(),
            uplink,
            hlc: Hlc::new(),
        })
    }

    /// Redial lost links under `sup`'s backoff.
    pub fn with_backoff(mut self, sup: SupervisorConfig) -> Self {
        self.uplink = self.uplink.with_backoff(sup);
        self
    }

    /// The node this EXS serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's sensor rings.
    pub(crate) fn rings(&self) -> &Arc<RingSet> {
        &self.rings
    }

    /// This EXS's hybrid logical clock (stamps records when
    /// `cfg.stamp_hlc` is set; always safe to observe).
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// The corrected clock (shared view; records are stamped with raw time
    /// by sensors and shifted by this clock's correction on the way out).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Counters so far.
    pub fn stats(&self) -> ExsStats {
        self.shared.snapshot()
    }

    /// The live cells behind [`ExternalSensor::stats`] (share the `Arc` to
    /// observe the EXS from another thread).
    pub(crate) fn telemetry(&self) -> &Arc<ExsTelemetry> {
        &self.shared
    }

    /// Register this EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// The link's session: its driver reports the link up and down and
    /// carries out its outputs. A link that comes up carries the partial
    /// batch, the window and the last credit grant over; the new
    /// `HelloAck` overwrites the grant.
    pub fn uplink(&mut self) -> &mut Uplink {
        &mut self.uplink
    }

    /// Apply one frame from the ISM, received at `now`: its protocol
    /// effect ([`Uplink::on_frame`]), and this EXS's policy on what is
    /// left to it. A frame that ends the link leaves it to the next dial;
    /// `true` when the ISM asked this EXS to stop (an orderly `Shutdown`),
    /// which it honours rather than dialing again.
    pub fn on_frame(&mut self, frame: &[u8], now: Duration) -> bool {
        match self.uplink.on_frame(frame, now) {
            Control::Adjusted(advance_us) => {
                if self.cfg.sync_disabled {
                    // Chaos plane: the node deliberately refuses sync and
                    // lets its clock run wherever the fault takes it.
                    self.shared.sync_ignored.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.clock.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Control::Shutdown => true,
            Control::Skipped | Control::Handled | Control::Dropped => false,
        }
    }

    /// One bounded pass at `now`: drain, batch and ship while the link is
    /// up, then heartbeat, or dial once a lost link's backoff has passed.
    /// `true` when records moved; after a pass that moved none the driver
    /// may wait ([`ExternalSensor::wait`]). The only error is a corrupt
    /// ring record.
    pub fn step(&mut self, now: Duration) -> Result<bool> {
        self.shared.iterations.fetch_add(1, Ordering::Relaxed);
        let mut drained = 0;
        if self.uplink.connected() {
            // 0. Flow control: with the ISM's credit budget spent, leave
            //    new records parked in the rings (where overruns land on
            //    the rings' own drop accounting) instead of piling them
            //    into the batcher and window. Acks reopen the tap.
            let paused = !self.uplink.poll_credit();
            if paused {
                self.shared.credit_deferrals.fetch_add(1, Ordering::Relaxed);
            }
            // 1. Drain sensor rings and apply the correction value. The
            //    span is timed on the node's clock so it is meaningful
            //    (and deterministic) under simulation.
            let drain_start = self.clock.now().as_micros();
            if !paused {
                drained = self.scoop(self.cfg.max_batch_records * 2)?;
                // 2. Latency control: flush a stale partial batch.
                //    Deferred while credit is spent — the flush would put
                //    more records in flight.
                if let Some((batch, reason)) = self.batcher.poll_timeout(self.clock.now()) {
                    self.send_batch(batch, reason);
                }
            }
            let drain_us = self.clock.now().as_micros().saturating_sub(drain_start);
            self.shared.drain_us.record(drain_us.max(0) as u64);
        }
        // 3. Liveness: on an idle link, a heartbeat lets the ISM tell a
        //    quiet node from a silently dead one (TCP alone reports
        //    nothing for minutes); on a lost one, the next dial.
        self.uplink.advance(now);
        Ok(drained > 0)
    }

    /// Drain up to `max` records from the rings, apply the correction
    /// value, stamp each and push it into the batcher, shipping every
    /// batch that fills; returns how many records were drained.
    fn scoop(&mut self, max: usize) -> Result<usize> {
        // The *effective* correction: while a slew is smearing a backward
        // adjustment, records get the partially applied value, matching
        // the clock the later trace stamps read.
        let correction = self.clock.effective_correction_us();
        self.drain_buf.clear();
        let drained = self
            .rings
            .drain_reusing(max, &mut self.drain_buf, &mut self.shells)?;
        self.shared
            .records_drained
            .fetch_add(drained as u64, Ordering::Relaxed);
        let now = self.clock.now();
        let mut pending = std::mem::take(&mut self.drain_buf);
        for mut rec in pending.drain(..) {
            rec.apply_correction(correction);
            // After the correction: scoop time and every later stamp are
            // on the synchronized clock, only the notice stamp was shifted.
            rec.stamp_trace(TraceStage::ExsScoop, now);
            if self.cfg.stamp_hlc {
                rec.set_hlc(self.hlc.tick(now));
            }
            if let Some((batch, reason)) = self.batcher.push(rec, now) {
                self.send_batch(batch, reason);
            }
        }
        self.drain_buf = pending; // keep the allocation (workhorse buffer)
        Ok(drained)
    }

    /// Window a batch and, on a live link, ship it; the batch counters
    /// count batches handed to a live link, not replays.
    fn send_batch(&mut self, mut records: Vec<EventRecord>, reason: FlushReason) {
        let n = records.len() as u64;
        let send_ts = self.clock.now();
        for rec in records.iter_mut() {
            rec.stamp_trace(TraceStage::BatchSend, send_ts);
        }
        let sent = self.uplink.send(&records);
        self.recycle(records);
        if !sent {
            return;
        }
        self.shared.records_sent.fetch_add(n, Ordering::Relaxed);
        self.shared.batches_sent.fetch_add(1, Ordering::Relaxed);
        self.shared.batch_records.record(n);
        let reason_counter = match reason {
            FlushReason::Records => &self.shared.flush_records,
            FlushReason::Bytes => &self.shared.flush_bytes,
            FlushReason::Timeout => &self.shared.flush_timeout,
            FlushReason::Forced => &self.shared.flush_forced,
        };
        reason_counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep a windowed batch's records as shells for the next drain and
    /// its vector for the next batch: the window holds the encoded frame.
    fn recycle(&mut self, mut batch: Vec<EventRecord>) {
        self.shells.extend(batch.drain(..).map(|mut rec| {
            rec.fields.clear();
            rec
        }));
        self.batcher.recycle(batch);
    }

    /// What the driver waits for after an idle pass at `now`, besides link
    /// input and its stop: the link's deadline (heartbeat or next dial)
    /// and, with credit open on a live link, the rings' fill level — one
    /// record with nothing buffered, or what a partial batch lacks, with
    /// its flush deadline.
    pub fn wait(&self, now: Duration) -> ExsWait {
        let mut deadline = self.uplink.deadline(now);
        if !(self.uplink.connected() && self.uplink.credit_open()) {
            return ExsWait {
                deadline,
                fill: None,
            };
        }
        let fill = match self.batcher.time_to_deadline(self.clock.now()) {
            Some(us) => {
                let flush = now + Duration::from_micros(us.max(0) as u64);
                deadline = deadline.into_iter().chain([flush]).min();
                self.missing()
            }
            None => Fill::ANY,
        };
        ExsWait {
            deadline,
            fill: Some(fill),
        }
    }

    /// What the partial batch lacks before a size knob trips, as ring
    /// contents: the records it is short of, or ring bytes enough to carry
    /// the XDR bytes it is short of ([`XDR_PER_RING_BYTE`]). The rings
    /// reach this at the record that completes the batch or earlier.
    fn missing(&self) -> Fill {
        let records = self.cfg.max_batch_records - self.batcher.pending_records();
        let bytes = self.cfg.max_batch_bytes - self.batcher.pending_bytes();
        Fill {
            frames: records as u64,
            bytes: bytes.div_ceil(XDR_PER_RING_BYTE),
        }
    }

    /// Orderly teardown: drain the rings, flush everything buffered and
    /// say `Shutdown`, so no accepted record is lost once the driver has
    /// sent the outputs. Returns the final stats.
    pub fn finish(&mut self) -> Result<ExsStats> {
        self.scoop(usize::MAX)?;
        if let Some((batch, reason)) = self.batcher.flush() {
            self.send_batch(batch, reason);
        }
        self.uplink.send_shutdown();
        Ok(self.shared.snapshot())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // single-knob mutation is the point of these tests
mod tests {
    use super::*;
    use crate::uplink::{LinkOutput, CONTROL_ERROR_BUDGET};
    use brisk_clock::{SimClock, SimTimeSource};
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_proto::Message;
    use std::collections::VecDeque;

    /// An EXS fed by hand, with no thread and no sleep: its link is up
    /// from the start, time moves only when a test moves it, and every
    /// output is kept.
    struct Rig {
        exs: ExternalSensor,
        src: SimTimeSource,
        rings: Arc<RingSet>,
        /// The driver's clock.
        now: Duration,
        /// The frames the EXS sent, decoded, not yet looked at.
        sent: VecDeque<Message>,
        dials: usize,
        drops: usize,
    }

    fn rig(cfg: ExsConfig, clock_offset: i64) -> Rig {
        let src = SimTimeSource::new();
        let raw: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), clock_offset, 0.0, 1));
        rig_on(src, raw, cfg)
    }

    fn rig_on(src: SimTimeSource, raw: Arc<dyn Clock>, cfg: ExsConfig) -> Rig {
        let rings = RingSet::new(NodeId(7), cfg.ring_capacity);
        let exs = ExternalSensor::new(NodeId(7), Arc::clone(&rings), raw, cfg).unwrap();
        let mut r = Rig {
            exs,
            src,
            rings,
            now: Duration::ZERO,
            sent: VecDeque::new(),
            dials: 0,
            drops: 0,
        };
        r.exs.uplink().up();
        r.drain();
        r
    }

    impl Rig {
        fn drain(&mut self) {
            let Rig {
                sent, dials, drops, ..
            } = self;
            self.exs.uplink().drain_outputs(|out| match out {
                LinkOutput::Send(frame) => sent.push_back(Message::decode(frame).unwrap()),
                LinkOutput::Dial => *dials += 1,
                LinkOutput::Drop => *drops += 1,
            });
        }

        /// One step; `true` when records moved.
        fn step(&mut self) -> bool {
            let moved = self.exs.step(self.now).unwrap();
            self.drain();
            moved
        }

        /// Hand the EXS a frame; `true` when it asks to stop.
        fn frame_bytes(&mut self, frame: &[u8]) -> bool {
            let stop = self.exs.on_frame(frame, self.now);
            self.drain();
            stop
        }

        fn frame(&mut self, msg: &Message) -> bool {
            self.frame_bytes(&msg.encode())
        }

        fn up(&mut self) {
            self.exs.uplink().up();
            self.drain();
        }

        fn finish(&mut self) -> ExsStats {
            let stats = self.exs.finish().unwrap();
            self.drain();
            stats
        }

        /// The next frame the EXS sent.
        fn next(&mut self) -> Message {
            self.sent.pop_front().expect("a frame was sent")
        }

        /// Step, moving the driver's clock to each deadline the EXS
        /// names, until it outputs a dial.
        fn step_until_dial(&mut self) {
            let dials = self.dials;
            while self.dials == dials {
                self.step();
                if self.dials == dials {
                    let at = self.exs.wait(self.now).deadline.expect("a dial is due");
                    self.now = self.now.max(at);
                }
            }
        }
    }

    fn emit_n(rings: &Arc<RingSet>, n: u64) {
        let mut port = rings.register();
        for i in 0..n {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i as i64), vec![])
                .unwrap();
        }
    }

    fn hello_ack(credit: u64) -> Message {
        Message::HelloAck {
            version: brisk_proto::VERSION,
            credit,
        }
    }

    #[test]
    fn hello_is_sent_on_connect() {
        let mut r = rig(ExsConfig::default(), 0);
        assert_eq!(
            r.next(),
            Message::Hello {
                node: NodeId(7),
                version: brisk_proto::VERSION
            }
        );
        assert!(r.sent.is_empty());
    }

    #[test]
    fn records_flow_and_get_corrected() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        r.next(); // hello

        // Apply a known correction, then emit records with raw timestamps.
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(51),
            vec![Value::I32(2)],
        )
        .unwrap();

        r.step();
        match r.next() {
            Message::EventBatch { node, seq, records } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(seq, Some(1)); // the first batch is seq 1
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].ts, UtcMicros::from_micros(1_050));
                assert_eq!(records[1].ts, UtcMicros::from_micros(1_051));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().records_sent, 2);
        assert_eq!(r.exs.stats().flush_records, 1);
    }

    #[test]
    fn records_decoded_over_shipped_ones_carry_nothing_of_them() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 3;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        let shapes = [
            vec![
                Value::Str("wide".into()),
                Value::Bytes(vec![7; 40]),
                Value::I32(1),
            ],
            vec![],
            vec![Value::Ts(UtcMicros::from_micros(9)), Value::U8(2)],
        ];
        // Each round's records land in the shells of the round before, in
        // a different shape each time.
        for round in 0..4 {
            let mut want = Vec::new();
            for k in 0..3 {
                let fields = shapes[(round + k) % 3].clone();
                let ts = UtcMicros::from_micros(round as i64 * 10 + k as i64);
                port.emit(EventTypeId(1), ts, fields.clone()).unwrap();
                let seq = (round * 3 + k) as u64;
                let mut rec =
                    EventRecord::new(NodeId(7), port.sensor(), EventTypeId(1), seq, ts, fields)
                        .unwrap();
                rec.apply_correction(1_000);
                want.push(rec);
            }
            r.step();
            match r.next() {
                Message::EventBatch { records, .. } => assert_eq!(records, want),
                other => panic!("expected batch, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_stamps_accumulate_through_scoop_and_send() {
        use brisk_telemetry::TraceSampler;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        r.rings
            .set_trace_sampler(Arc::new(TraceSampler::with_seed(1, 9)));
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        r.src.advance_by(25); // scoop happens later than the notice
        r.step();
        match r.next() {
            Message::EventBatch { records, .. } => {
                let ctx = records[0].trace().expect("sampled record carries X_TRACE");
                let stages: Vec<TraceStage> = ctx.stamps().iter().map(|(s, _)| *s).collect();
                assert_eq!(
                    stages,
                    vec![
                        TraceStage::Notice,
                        TraceStage::ExsScoop,
                        TraceStage::BatchSend
                    ]
                );
                // The notice stamp was shifted by the correction along with
                // the header ts; later stamps read the corrected clock.
                assert_eq!(ctx.stamps()[0].1, records[0].ts);
                assert_eq!(ctx.stamps()[0].1, UtcMicros::from_micros(1_050));
                assert_eq!(ctx.stamps()[1].1, UtcMicros::from_micros(1_075));
                let times: Vec<i64> = ctx.stamps().iter().map(|(_, t)| t.as_micros()).collect();
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "monotonic stamps");
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn partial_batch_flushes_on_timeout() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100;
        cfg.flush_timeout = Duration::from_millis(40);
        let mut r = rig(cfg, 0);
        r.next(); // hello

        let mut port = r.rings.register();
        port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        r.step(); // drains; batch stays partial
        assert_eq!(r.exs.stats().batches_sent, 0);

        r.src.advance_by(41_000); // 41 ms of sim time
        r.step();
        match r.next() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().flush_timeout, 1);
    }

    #[test]
    fn wait_names_the_fill_level_and_the_deadline() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 4;
        cfg.flush_timeout = Duration::from_millis(40);
        cfg.heartbeat_interval = Duration::from_secs(1);
        let mut r = rig(cfg, 0);
        r.next(); // hello
        let now = Duration::from_secs(7);
        r.now = now;
        // Nothing buffered: any record wakes the driver, else the heartbeat.
        let idle = r.exs.wait(now);
        assert_eq!(idle.fill, Some(Fill::ANY));
        assert_eq!(idle.deadline, Some(now + Duration::from_secs(1)));
        // A partial batch of one: the three records it lacks, or its flush
        // deadline.
        emit_n(&r.rings, 1);
        assert!(r.step());
        let partial = r.exs.wait(now);
        assert_eq!(partial.fill.map(|f| f.frames), Some(3));
        assert_eq!(partial.deadline, Some(now + Duration::from_millis(40)));
        // Credit spent: records wake nothing, the ack will.
        r.frame(&hello_ack(1));
        r.src.advance_by(40_000);
        r.step();
        assert!(matches!(r.next(), Message::EventBatch { .. }));
        assert_eq!(r.exs.wait(now).fill, None);
        // Link down: the next dial is the deadline.
        r.exs.uplink().down("test", now);
        let down = r.exs.wait(now);
        assert_eq!(down.fill, None);
        assert_eq!(down.deadline, Some(now), "acked: dial again at once");
    }

    #[test]
    fn sync_poll_answered_with_corrected_time() {
        let mut r = rig(ExsConfig::default(), 500);
        r.next(); // hello
        r.exs.corrected_clock().adjust(-200);
        r.src.advance_by(1_000);
        r.frame(&Message::SyncPoll {
            round: 3,
            sample: 1,
            master_send: UtcMicros::from_micros(42),
        });
        match r.next() {
            Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            } => {
                assert_eq!(round, 3);
                assert_eq!(sample, 1);
                assert_eq!(master_send, UtcMicros::from_micros(42));
                // raw = 1000 + 500 offset, correction −200 → 1300.
                assert_eq!(slave_time, UtcMicros::from_micros(1_300));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(r.exs.stats().link.sync_replies, 1);
    }

    #[test]
    fn sync_adjust_moves_correction() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next();
        r.frame(&Message::SyncAdjust {
            round: 1,
            advance_us: 777,
        });
        assert_eq!(r.exs.corrected_clock().correction_us(), 777);
        assert_eq!(r.exs.stats().adjustments, 1);
    }

    #[test]
    fn shutdown_message_stops_step() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next();
        assert!(r.frame(&Message::Shutdown));
    }

    #[test]
    fn wrong_role_message_drops_the_link() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next();
        r.frame(&Message::Hello {
            node: NodeId(1),
            version: brisk_proto::VERSION,
        });
        assert_eq!(r.drops, 1, "the driver is told to drop the link");
        assert!(!r.exs.uplink.connected());
        assert_eq!(
            r.exs.stats().link.decode_errors,
            0,
            "not charged to the budget"
        );
    }

    #[test]
    fn run_flushes_pending_records_on_stop() {
        let mut r = rig(ExsConfig::default(), 0);
        emit_n(&r.rings, 5);
        let stats = r.finish();
        assert_eq!(stats.records_drained, 5);
        assert_eq!(stats.records_sent, 5);

        // The ISM side sees hello, one batch (possibly several), then
        // Shutdown.
        let mut seen_records = 0;
        loop {
            match r.next() {
                Message::Hello { .. } => {}
                Message::EventBatch { records, .. } => seen_records += records.len(),
                Message::Shutdown => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen_records, 5);
    }

    #[test]
    fn finish_accounts_records_drained_during_teardown() {
        // Records that only leave the rings in finish()'s force-flush
        // must land in records_drained (and the forced-flush counter).
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100; // nothing flushes by size
        let mut r = rig(cfg, 0);
        r.next(); // hello
        emit_n(&r.rings, 7);
        // No step at all: everything drains inside finish().
        let stats = r.finish();
        assert_eq!(stats.records_drained, 7);
        assert_eq!(stats.records_sent, 7);
        assert_eq!(stats.flush_forced, 1);
        match r.next() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 7),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_bind_exports_exs_series() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);

        r.src.advance_by(10);
        emit_n(&r.rings, 4);
        r.step();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_exs_records_drained_total", &[("node", "7")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("brisk_exs_records_sent_total"), 4);
        assert_eq!(
            snap.counter_labeled(
                "brisk_exs_flush_total",
                &[("node", "7"), ("reason", "records")]
            ),
            Some(2)
        );
        let batch_hist = snap.histogram("brisk_exs_batch_records").unwrap();
        assert_eq!(batch_hist.count(), 2);
        assert_eq!(batch_hist.max, 2);
        // Drain latency recorded once per step (0 µs under a frozen SimClock).
        assert_eq!(snap.histogram("brisk_exs_drain_us").unwrap().count(), 1);
    }

    #[test]
    fn batch_ack_releases_window() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.step(); // drain cap is 2·max_batch_records per step
        r.step();
        assert_eq!(r.exs.stats().batches_sent, 3);
        // All three batches are unacked and windowed.
        assert_eq!(r.exs.uplink.window_depth(), 3);

        // Cumulative ack for seq 2 releases the first two.
        r.frame(&Message::BatchAck {
            seq: 2,
            credit: 1024,
        });
        assert_eq!(r.exs.uplink.window_depth(), 1);
        assert_eq!(r.exs.stats().link.acks_received, 1);
    }

    #[test]
    fn reattach_replays_unacked_batches_and_the_partial_batch_survives() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        emit_n(&r.rings, 4);
        r.src.advance_by(10);
        r.step();
        r.next(); // batch 1
        r.next(); // batch 2
                  // Ack only the first; the second stays unacked.
        r.frame(&Message::BatchAck {
            seq: 1,
            credit: 1024,
        });
        assert_eq!(r.exs.uplink.window_depth(), 1);
        // One more record sits in the batcher as a partial batch when the
        // link dies.
        emit_n(&r.rings, 1);
        r.step();
        r.exs.uplink().down("peer hung up", r.now);
        assert!(!r.exs.uplink.connected());

        // Same EXS, next link: Hello, then the unacked batch (seq 2) is
        // replayed ahead of anything new.
        r.up();
        match r.next() {
            Message::Hello { node, version } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(version, brisk_proto::VERSION);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        match r.next() {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(2));
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected replayed batch, got {other:?}"),
        }
        let stats = r.exs.stats();
        assert_eq!(stats.link.batches_retransmitted, 1);
        // Replays are not re-counted as fresh sends.
        assert_eq!(stats.batches_sent, 2);
        // The partial batch outlived the link and continues the sequence
        // stream once its flush timeout fires.
        r.src.advance_by(50_000);
        r.step();
        match r.next() {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(3));
                assert_eq!(records.len(), 1);
            }
            other => panic!("expected the partial batch, got {other:?}"),
        }
    }

    #[test]
    fn credit_exhaustion_defers_scooping_until_replenished() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        r.next(); // hello
                  // The ISM grants a budget of 2 in-flight records.
        r.frame(&hello_ack(2));
        assert_eq!(r.exs.uplink.grant(), Some(2));

        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.step(); // scoops 2 (the per-step drain cap), sends 2
        assert_eq!(r.exs.stats().batches_sent, 2);
        let drained_before = r.exs.stats().records_drained;
        // Budget spent (2 unacked records): the third record must stay in
        // the ring, counted as a deferral.
        r.step();
        assert_eq!(r.exs.stats().records_drained, drained_before);
        assert!(r.exs.stats().credit_deferrals >= 1);
        assert_eq!(r.exs.stats().batches_sent, 2);

        // An ack replenishes the budget and reopens the tap.
        r.frame(&Message::BatchAck { seq: 2, credit: 2 });
        r.step(); // scoops the parked record
        assert_eq!(r.exs.stats().batches_sent, 3);
        assert_eq!(r.exs.stats().records_drained, drained_before + 1);
    }

    #[test]
    fn hello_ack_overwrites_carried_credit() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next(); // hello
        r.frame(&hello_ack(99));
        // Across a reconnect the previous grant keeps pacing the scoop
        // until the new link's HelloAck arrives...
        r.exs.uplink().down("test", r.now);
        r.up();
        assert!(matches!(r.next(), Message::Hello { .. }));
        assert_eq!(r.exs.uplink.grant(), Some(99));
        // ...whose grant replaces it.
        r.frame(&hello_ack(16));
        assert_eq!(r.exs.uplink.grant(), Some(16));
    }

    #[test]
    fn credit_telemetry_exports_balance_and_deferrals() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);
        r.frame(&hello_ack(2));
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.step(); // spends the whole budget
        r.step(); // defers
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("brisk_uplink_credit_balance"), Some(0));
        assert!(snap.counter_total("brisk_exs_credit_deferred_total") >= 1);
    }

    #[test]
    fn full_window_evicts_oldest_and_counts_it() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        cfg.retransmit_window_batches = 2;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        emit_n(&r.rings, 3); // three unacked batches into a window of two
        r.src.advance_by(10);
        r.step(); // drain cap is 2·max_batch_records per step
        r.step();
        let stats = r.exs.stats();
        assert_eq!(stats.batches_sent, 3);
        assert_eq!(stats.link.window_evicted, 1);
        assert_eq!(r.exs.uplink.window_depth(), 2);
    }

    #[test]
    fn heartbeat_sent_on_idle_link() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let mut r = rig(cfg, 0);
        r.next(); // hello
        r.src.advance_by(90_000);
        r.frame(&hello_ack(1024));
        r.step();
        // 180 ms idle since the Hello, but the HelloAck restarted the idle
        // clock 90 ms ago: no heartbeat yet.
        r.src.advance_by(90_000);
        r.step();
        assert!(r.sent.is_empty());
        r.src.advance_by(20_000);
        r.step();
        assert_eq!(r.next(), Message::Heartbeat);
        assert_eq!(r.exs.stats().link.heartbeats_sent, 1);
        assert_eq!(r.exs.stats().link.hello_acks, 1);
        // Without further idle time no extra heartbeat is sent.
        r.step();
        assert!(r.sent.is_empty());
    }

    #[test]
    fn heartbeat_pacing_survives_backward_clock_step() {
        use brisk_clock::FaultClock;
        // A node whose raw clock steps backward by 10 s must not stall
        // heartbeats for those 10 s (pacing on plain clock readings would:
        // the elapsed-since-last-send computation goes negative until the
        // clock climbs back past its old reading).
        let src = SimTimeSource::new();
        let sim: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
        let fault = FaultClock::new(sim, 0, 0.0);
        let raw: Arc<dyn Clock> = Arc::clone(&fault) as Arc<dyn Clock>;
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let mut r = rig_on(src.clone(), raw, cfg);
        r.next(); // hello
        r.frame(&hello_ack(1024));
        src.advance_by(150_000);
        r.step();
        assert_eq!(r.next(), Message::Heartbeat);
        assert_eq!(r.exs.stats().link.heartbeats_sent, 1);

        // The clock steps back 10 s. The next step rebases the pacing
        // clock without sending a spurious heartbeat...
        fault.step_by(-10_000_000);
        r.step();
        assert_eq!(r.exs.stats().link.heartbeats_sent, 1);
        // ...and one more idle interval of *forward* progress produces
        // the next heartbeat on schedule, stall-free.
        src.advance_by(150_000);
        r.step();
        assert_eq!(r.next(), Message::Heartbeat);
        assert_eq!(r.exs.stats().link.heartbeats_sent, 2);
    }

    #[test]
    fn stamp_hlc_attaches_monotone_stamps_at_scoop() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        cfg.stamp_hlc = true;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(2)],
        )
        .unwrap();
        r.step();
        match r.next() {
            Message::EventBatch { records, .. } => {
                let a = records[0].hlc().expect("first record carries X_HLC");
                let b = records[1].hlc().expect("second record carries X_HLC");
                // Both scooped at the same corrected instant: the physical
                // component ties and the logical counter breaks it.
                assert_eq!(a.physical, UtcMicros::from_micros(50));
                assert_eq!(b.physical, UtcMicros::from_micros(50));
                assert!(a < b, "scoop order is preserved in the stamps");
                assert_eq!(b.logical, a.logical + 1);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn sync_disabled_ignores_sync_adjust() {
        let mut cfg = ExsConfig::default();
        cfg.sync_disabled = true;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        r.frame(&Message::SyncAdjust {
            round: 1,
            advance_us: 777,
        });
        assert_eq!(r.exs.corrected_clock().correction_us(), 0);
        assert_eq!(r.exs.stats().adjustments, 0);
        assert_eq!(r.exs.stats().sync_ignored, 1);
    }

    #[test]
    fn zero_interval_disables_heartbeats() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::ZERO;
        let mut r = rig(cfg, 0);
        r.next(); // hello
        r.frame(&hello_ack(1024));
        r.src.advance_by(10_000_000);
        r.step();
        assert_eq!(r.exs.stats().link.heartbeats_sent, 0);
        assert_eq!(r.exs.wait(r.now).deadline, None);
    }

    #[test]
    fn garbage_control_frames_are_skipped_within_budget() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next(); // hello
                  // Up to the budget, undecodable frames are counted and skipped.
        for _ in 0..CONTROL_ERROR_BUDGET {
            r.frame_bytes(&[0xba, 0xad]);
        }
        assert_eq!(
            r.exs.stats().link.decode_errors,
            CONTROL_ERROR_BUDGET as u64
        );
        // The EXS is still fully functional: a sync poll gets answered.
        r.frame(&Message::SyncPoll {
            round: 1,
            sample: 0,
            master_send: UtcMicros::from_micros(1),
        });
        assert!(matches!(r.next(), Message::SyncReply { .. }));
        // One past the budget: the link is declared broken.
        r.frame_bytes(&[0xff]);
        assert_eq!(r.drops, 1);
        assert!(!r.exs.uplink.connected());
    }

    #[test]
    fn idle_steps_report_idle() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next();
        assert!(!r.step());
        assert!(r.exs.stats().iterations >= 1);
    }

    #[test]
    fn survives_server_side_disconnect() {
        let mut cfg = ExsConfig::default();
        cfg.flush_timeout = Duration::from_millis(5);
        let mut r = rig(cfg, 0);
        r.next(); // hello
        let delivered = |r: &mut Rig| {
            let mut n = 0;
            while let Some(msg) = r.sent.pop_front() {
                if let Message::EventBatch { records, .. } = msg {
                    n += records.len();
                }
            }
            n
        };
        // First link: records flow, then the ISM side hangs up.
        emit_n(&r.rings, 50);
        r.step();
        r.src.advance_by(5_000);
        r.step();
        assert_eq!(delivered(&mut r), 50, "the first link must carry records");
        r.exs.uplink().down("peer hung up", r.now);
        // The EXS must dial again...
        r.step_until_dial();
        assert_eq!(r.dials, 1);
        r.up();
        // ...re-send Hello...
        assert!(matches!(
            r.next(),
            Message::Hello {
                node: NodeId(7),
                ..
            }
        ));
        // ...and keep delivering new records.
        emit_n(&r.rings, 30);
        r.step();
        r.src.advance_by(5_000);
        r.step();
        assert!(delivered(&mut r) >= 30, "records must flow on the new link");
        assert_eq!(r.exs.stats().link.connects, 2);
    }

    #[test]
    fn correction_value_carries_across_reconnect() {
        let mut r = rig(ExsConfig::default(), 0);
        r.next(); // hello
                  // Adjust the slave's correction, then lose the link.
        r.frame(&Message::SyncAdjust {
            round: 1,
            advance_us: 12_345,
        });
        r.exs.uplink().down("peer hung up", r.now);
        r.step_until_dial();
        r.up();
        assert!(matches!(r.next(), Message::Hello { .. }));
        // Poll the next link: its reply carries the carried correction.
        r.src.advance_by(1_000);
        r.frame(&Message::SyncPoll {
            round: 2,
            sample: 0,
            master_send: UtcMicros::from_micros(1_000),
        });
        match r.next() {
            Message::SyncReply { slave_time, .. } => {
                assert_eq!(slave_time, UtcMicros::from_micros(1_000 + 12_345));
            }
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn a_link_declared_corrupt_is_redialed_and_replayed() {
        let mut cfg = ExsConfig::default();
        cfg.flush_timeout = Duration::from_millis(5);
        let mut r = rig(cfg, 0).with_backoff_of(Duration::from_millis(1), Duration::from_millis(5));
        r.next(); // hello
                  // One batch, never acked here, so every redial must replay it.
        emit_n(&r.rings, 3);
        r.step();
        r.src.advance_by(5_000);
        r.step();
        assert!(matches!(r.next(), Message::EventBatch { seq: Some(1), .. }));
        // Each next link opens with Hello and then the windowed batch.
        let relink = |r: &mut Rig| {
            r.step_until_dial();
            r.up();
            assert!(matches!(r.next(), Message::Hello { .. }));
            match r.next() {
                Message::EventBatch { seq, records, .. } => {
                    assert_eq!((seq, records.len()), (Some(1), 3));
                }
                other => panic!("expected the windowed batch, got {other:?}"),
            }
        };
        // One undecodable frame past the budget drops the link...
        for _ in 0..=CONTROL_ERROR_BUDGET {
            r.frame_bytes(&[0xba, 0xad]);
        }
        assert_eq!(r.drops, 1);
        relink(&mut r);
        // ...and so does a message a sender must never receive.
        r.frame(&Message::Hello {
            node: NodeId(9),
            version: brisk_proto::VERSION,
        });
        assert_eq!(r.drops, 2);
        relink(&mut r);
        let stats = r.exs.stats();
        assert_eq!(stats.link.connects, 3);
        assert_eq!(stats.link.decode_errors, u64::from(CONTROL_ERROR_BUDGET));
        assert_eq!(stats.link.batches_retransmitted, 2);
    }

    impl Rig {
        fn with_backoff_of(mut self, initial_backoff: Duration, max_backoff: Duration) -> Rig {
            let sup = SupervisorConfig {
                initial_backoff,
                max_backoff,
            };
            self.exs = self.exs.with_backoff(sup);
            self
        }
    }

    #[test]
    fn backoff_resets_only_after_hello_ack() {
        // Two runs against an ISM that kills every link shortly after it
        // comes up. The only difference: one acknowledges the Hello
        // first. With a large initial backoff the no-ack run must pay the
        // backoff between links, while the acked run redials at once.
        fn run(ack: bool) -> Duration {
            let initial = Duration::from_millis(250);
            let mut r =
                rig(ExsConfig::default(), 0).with_backoff_of(initial, Duration::from_secs(2));
            for _ in 0..2 {
                if ack {
                    r.frame(&hello_ack(1024));
                }
                r.now += Duration::from_millis(50);
                r.exs.uplink().down("killed", r.now);
                r.step_until_dial();
                r.up();
            }
            r.now
        }
        let with_ack = run(true);
        let without_ack = run(false);
        // No HelloAck → two backoff pauses of ≥ 250 ms each before the
        // third link comes up.
        assert!(
            without_ack >= Duration::from_millis(100 + 500),
            "pre-ack deaths must keep (and grow) the backoff, got {without_ack:?}"
        );
        assert_eq!(
            with_ack,
            Duration::from_millis(100),
            "acked links must be dialed again at once"
        );
    }

    #[test]
    fn a_reconnect_refused_before_its_hello_ack_is_retried() {
        let mut r = rig(ExsConfig::default(), 0)
            .with_backoff_of(Duration::from_millis(1), Duration::from_millis(5));
        // Link 1 is established, then dies abruptly.
        r.frame(&hello_ack(1024));
        r.exs.uplink().down("peer hung up", r.now);
        // Link 2 races the ISM's reaping of the dead one and is refused as
        // a duplicate: `Shutdown`, no `HelloAck`.
        r.step_until_dial();
        r.up();
        assert!(!r.frame(&Message::Shutdown));
        assert_eq!(r.drops, 1, "a refusal drops the link");
        // The node must come back rather than stay down for good.
        r.step_until_dial();
        assert_eq!(r.dials, 2);
    }

    #[test]
    fn orderly_ism_shutdown_is_honoured_not_retried() {
        let mut r = rig(ExsConfig::default(), 0);
        assert!(matches!(r.next(), Message::Hello { .. }));
        // The EXS asks to stop: the link stays as it is, neither dropped
        // nor dialed again (`runtime::tests` has the thread that ends).
        assert!(r.frame(&Message::Shutdown));
        assert!(r.exs.uplink.connected());
        assert_eq!((r.drops, r.dials), (0, 0));
        assert_eq!(r.exs.stats().link.connects, 1);
    }

    #[test]
    fn an_xdr_record_is_at_most_twice_its_ring_frame() {
        // The worst shapes for XDR's 4-byte padding, with the stamps the
        // EXS adds (a trace stage, an `X_HLC` where a field slot is free).
        use brisk_core::{binenc, HlcStamp, SensorId, TraceContext};
        let trace = Value::Trace(TraceContext::origin(1, UtcMicros::ZERO));
        let with_trace = |mut fields: Vec<Value>| {
            fields.push(trace.clone());
            fields
        };
        let shapes = [
            vec![],
            vec![Value::U8(1); 8],
            vec![Value::Bool(true); 7],
            vec![Value::I16(1); 7],
            vec![Value::Str("a".into()); 7],
            vec![Value::Bytes(vec![1; 5]); 7],
            with_trace(vec![]),
            with_trace(vec![Value::I8(1); 6]),
            with_trace(vec![Value::U8(1); 7]),
        ];
        for fields in shapes {
            let (ts, id) = (UtcMicros::ZERO, EventTypeId(1));
            let mut rec = EventRecord::new(NodeId(1), SensorId(1), id, 0, ts, fields).unwrap();
            let ring = 4 + binenc::encode_record(&rec, &mut Vec::new());
            rec.stamp_trace(TraceStage::ExsScoop, ts);
            rec.set_hlc(HlcStamp::ZERO);
            let xdr = rec.xdr_payload_size();
            assert!(xdr <= XDR_PER_RING_BYTE * ring, "{rec}: {xdr} > 2 x {ring}");
        }
    }
}
