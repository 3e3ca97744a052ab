//! Typed record rings: the internal-sensor writing surface.
//!
//! A [`SensorPort`] is the handle an instrumented thread holds; it plays the
//! role of the per-process shared-memory segment the paper's `NOTICE`
//! macros write to. Each port owns the producing half of one SPSC ring and
//! a private sequence counter. Sequence numbers are assigned even to
//! records that end up dropped, so downstream tools can detect loss from
//! gaps.
//!
//! A [`RingSet`] collects the consuming halves for one node; the external
//! sensor drains them all, and with nothing to drain sleeps on the set's
//! [`Doorbell`]. It arms the bell at a [`Fill`] for the whole set
//! ([`RingSet::arm_at`]), and the record that brings the set's rings to
//! that many records or bytes between them rings, whichever ring it
//! lands in. Armed at [`Fill::ANY`], the first record rings.

use crate::spsc::{ByteRing, Doorbell, Fill, RingConsumer, RingProducer, RingStats};
use brisk_core::binenc;
use brisk_core::descriptor::MAX_FIELDS;
use brisk_core::{
    EventRecord, EventTypeId, NodeId, Result, SensorId, TraceContext, UtcMicros, Value,
};
use brisk_telemetry::{Counter, Registry, TraceSampler};
use parking_lot::Mutex;
use std::sync::Arc;

/// Producer handle used by one internal sensor.
pub struct SensorPort {
    node: NodeId,
    sensor: SensorId,
    seq: u64,
    producer: RingProducer,
    scratch: Vec<u8>,
    /// Optional per-node notice counter (telemetry); one relaxed
    /// `fetch_add` on the emit hot path when bound, zero cost otherwise.
    notices: Option<Arc<Counter>>,
    /// Optional trace sampler; when it fires, the record picks up an
    /// `X_TRACE` context stamped with its notice time.
    tracer: Option<Arc<TraceSampler>>,
}

impl SensorPort {
    /// The node this port belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This port's sensor id.
    pub fn sensor(&self) -> SensorId {
        self.sensor
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Emit a record with the given event type, timestamp and fields.
    /// Returns `Ok(true)` if published, `Ok(false)` if dropped (ring full);
    /// the sequence number advances either way.
    pub fn emit(
        &mut self,
        event_type: EventTypeId,
        ts: UtcMicros,
        mut fields: Vec<Value>,
    ) -> Result<bool> {
        self.maybe_attach_trace(ts, &mut fields);
        let rec = EventRecord::new(self.node, self.sensor, event_type, self.seq, ts, fields)?;
        self.seq += 1;
        Ok(self.push_encoded(&rec))
    }

    /// Emit a pre-built record, overriding its origin and sequence fields
    /// with this port's. Used by the `notice!` macro expansion.
    pub fn emit_record(&mut self, mut rec: EventRecord) -> bool {
        rec.node = self.node;
        rec.sensor = self.sensor;
        rec.seq = self.seq;
        self.seq += 1;
        let ts = rec.ts;
        self.maybe_attach_trace(ts, &mut rec.fields);
        self.push_encoded(&rec)
    }

    /// If the sampler fires and a field slot is free, append an
    /// `X_TRACE` context whose origin stamp is the notice timestamp.
    /// A record already at [`MAX_FIELDS`] keeps its payload and the
    /// sampler counts the skip instead.
    #[inline]
    fn maybe_attach_trace(&self, ts: UtcMicros, fields: &mut Vec<Value>) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let Some(trace_id) = tracer.sample() else {
            return;
        };
        if fields.len() >= MAX_FIELDS {
            tracer.note_full_skip();
            return;
        }
        fields.push(Value::Trace(TraceContext::origin(trace_id, ts)));
    }

    fn push_encoded(&mut self, rec: &EventRecord) -> bool {
        if let Some(c) = &self.notices {
            c.inc();
        }
        self.scratch.clear();
        binenc::encode_record(rec, &mut self.scratch);
        self.producer.push(&self.scratch)
    }

    /// Traffic counters of the underlying ring.
    pub fn stats(&self) -> RingStats {
        self.producer.stats()
    }

    /// Bytes currently buffered in this port's ring (producer view:
    /// never negative, at most stale-high).
    pub fn occupancy(&self) -> usize {
        self.producer.occupancy()
    }

    /// Attach a notice counter incremented once per emitted record
    /// (whether or not the ring accepts it). `experiments s1` measures
    /// its cost on the emit path.
    pub fn set_notice_counter(&mut self, counter: Arc<Counter>) {
        self.notices = Some(counter);
    }

    /// Attach a trace sampler. Sampled emits gain an `X_TRACE` field;
    /// unsampled emits pay one relaxed `fetch_add`.
    pub fn set_trace_sampler(&mut self, sampler: Arc<TraceSampler>) {
        self.tracer = Some(sampler);
    }
}

/// Consumer handle for one sensor's ring.
pub struct RecordConsumer {
    sensor: SensorId,
    consumer: RingConsumer,
    scratch: Vec<u8>,
}

impl RecordConsumer {
    /// The sensor this consumer reads from.
    pub fn sensor(&self) -> SensorId {
        self.sensor
    }

    /// Pop one record, if available. A frame that fails to decode is a
    /// logic error (the port encoded it) and is surfaced as `Err`.
    pub fn pop(&mut self) -> Result<Option<EventRecord>> {
        if !self.consumer.pop(&mut self.scratch) {
            return Ok(None);
        }
        let (rec, used) = binenc::decode_record(&self.scratch)?;
        debug_assert_eq!(used, self.scratch.len());
        Ok(Some(rec))
    }

    /// Pop one record over `rec`, reusing its `fields` capacity (see
    /// [`binenc::decode_record_into`]). `Ok(false)` when the ring is empty.
    fn pop_into(&mut self, rec: &mut EventRecord) -> Result<bool> {
        if !self.consumer.pop(&mut self.scratch) {
            return Ok(false);
        }
        let used = binenc::decode_record_into(&self.scratch, rec)?;
        debug_assert_eq!(used, self.scratch.len());
        Ok(true)
    }

    /// Drain up to `max` records into `out`. Returns how many were read.
    pub fn drain_into(&mut self, max: usize, out: &mut Vec<EventRecord>) -> Result<usize> {
        self.drain_reusing(max, out, &mut Vec::new())
    }

    /// [`RecordConsumer::drain_into`], decoding over records popped from
    /// `shells` before allocating new ones. A shell left over when the
    /// ring runs dry goes back to `shells`.
    fn drain_reusing(
        &mut self,
        max: usize,
        out: &mut Vec<EventRecord>,
        shells: &mut Vec<EventRecord>,
    ) -> Result<usize> {
        let mut n = 0;
        while n < max {
            let rec = match shells.pop() {
                Some(mut shell) => {
                    if !self.pop_into(&mut shell)? {
                        shells.push(shell);
                        break;
                    }
                    shell
                }
                None => match self.pop()? {
                    Some(rec) => rec,
                    None => break,
                },
            };
            out.push(rec);
            n += 1;
        }
        Ok(n)
    }

    /// True if no record is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.consumer.is_empty()
    }

    /// Traffic counters of the underlying ring.
    pub fn stats(&self) -> RingStats {
        self.consumer.stats()
    }

    /// Bytes currently buffered (consumer view: exact or stale-low).
    pub fn occupancy(&self) -> usize {
        self.consumer.occupancy()
    }
}

/// One ring per record-producing sensor plus its consumer side; what the
/// external sensor polls.
pub struct RecordRing;

impl RecordRing {
    /// Create one sensor ring, returning the sensor-side port and the
    /// EXS-side consumer.
    pub fn create(node: NodeId, sensor: SensorId, capacity: usize) -> (SensorPort, RecordConsumer) {
        let (producer, consumer) = ByteRing::with_capacity(capacity);
        (
            SensorPort {
                node,
                sensor,
                seq: 0,
                producer,
                scratch: Vec::with_capacity(256),
                notices: None,
                tracer: None,
            },
            RecordConsumer {
                sensor,
                consumer,
                scratch: Vec::with_capacity(256),
            },
        )
    }
}

/// The per-node collection of sensor rings.
///
/// Registration may happen while the external sensor is draining (new
/// threads can be instrumented at any time), so the consumer list is behind
/// a mutex; the drain path holds the lock only while it works, which is
/// fine because there is exactly one drainer (the EXS).
pub struct RingSet {
    node: NodeId,
    capacity_per_ring: usize,
    consumers: Mutex<Vec<RecordConsumer>>,
    next_sensor: Mutex<u32>,
    tracer: Mutex<Option<Arc<TraceSampler>>>,
    /// Shared with every port: the drainer's wakeup.
    bell: Arc<Doorbell>,
}

impl RingSet {
    /// New ring set for the given node. `capacity_per_ring` sizes each
    /// sensor's ring (the `ring_capacity` knob).
    pub fn new(node: NodeId, capacity_per_ring: usize) -> Arc<Self> {
        Arc::new(RingSet {
            node,
            capacity_per_ring,
            consumers: Mutex::new(Vec::new()),
            next_sensor: Mutex::new(0),
            tracer: Mutex::new(None),
            bell: Arc::default(),
        })
    }

    /// Install a node-wide trace sampler shared by every port registered
    /// *after* this call (ports registered earlier are unaffected; call
    /// this before instrumented threads start).
    pub fn set_trace_sampler(&self, sampler: Arc<TraceSampler>) {
        *self.tracer.lock() = Some(sampler);
    }

    /// The node-wide trace sampler, if one was installed.
    pub fn trace_sampler(&self) -> Option<Arc<TraceSampler>> {
        self.tracer.lock().clone()
    }

    /// The node this set belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Register a new internal sensor, allocating the next sensor id.
    pub fn register(self: &Arc<Self>) -> SensorPort {
        let mut next = self.next_sensor.lock();
        let sensor = SensorId(*next);
        *next += 1;
        drop(next);
        self.register_with_id(sensor)
    }

    /// Register a sensor with an explicit id.
    pub fn register_with_id(self: &Arc<Self>, sensor: SensorId) -> SensorPort {
        let (mut port, consumer) = RecordRing::create(self.node, sensor, self.capacity_per_ring);
        if let Some(sampler) = self.trace_sampler() {
            port.set_trace_sampler(sampler);
        }
        port.producer.bell = Some(Arc::clone(&self.bell));
        self.consumers.lock().push(consumer);
        port
    }

    /// The drainer's doorbell (install its wake here).
    pub fn doorbell(&self) -> &Doorbell {
        &self.bell
    }

    /// Arm the doorbell for the set's rings holding `fill` between them,
    /// then count what they hold now. The bytes are capped at half a
    /// ring, so the set reaches the fill before any one ring is more than
    /// half full. `false`, with the bell disarmed again, when the rings
    /// already hold it: the caller must drain rather than sleep.
    pub fn arm_at(&self, fill: Fill) -> bool {
        let fill = Fill {
            bytes: fill.bytes.min(self.capacity_per_ring / 2),
            ..fill
        };
        let consumers = self.consumers.lock();
        self.bell
            .arm_at(fill, || consumers.iter().map(|c| c.consumer.held()).sum())
    }

    /// Number of registered sensors.
    pub fn sensor_count(&self) -> usize {
        self.consumers.lock().len()
    }

    /// Drain up to `max_total` records across all rings (round-robin over
    /// rings, in registration order) into `out`. Returns how many records
    /// were read.
    pub fn drain_into(&self, max_total: usize, out: &mut Vec<EventRecord>) -> Result<usize> {
        self.drain_reusing(max_total, out, &mut Vec::new())
    }

    /// [`RingSet::drain_into`], decoding over the record shells in
    /// `shells` (their `fields` capacity reused) before allocating new
    /// records. The EXS feeds it the records of every batch it has
    /// shipped, so a steady drain allocates nothing per record.
    pub fn drain_reusing(
        &self,
        max_total: usize,
        out: &mut Vec<EventRecord>,
        shells: &mut Vec<EventRecord>,
    ) -> Result<usize> {
        let mut consumers = self.consumers.lock();
        let mut total = 0;
        for c in consumers.iter_mut() {
            if total >= max_total {
                break;
            }
            total += c.drain_reusing(max_total - total, out, shells)?;
        }
        Ok(total)
    }

    /// Aggregated traffic counters across all rings.
    pub fn stats(&self) -> RingStats {
        let consumers = self.consumers.lock();
        let mut agg = RingStats::default();
        for c in consumers.iter() {
            let s = c.stats();
            agg.produced += s.produced;
            agg.dropped += s.dropped;
            agg.consumed += s.consumed;
        }
        agg
    }

    /// True if every ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.consumers.lock().iter().all(|c| c.is_empty())
    }

    /// Bytes currently buffered across all rings (consumer view, so the
    /// reading never races the drain loop into a negative value).
    pub fn occupancy_bytes(&self) -> usize {
        self.consumers.lock().iter().map(|c| c.occupancy()).sum()
    }

    /// Total ring capacity across all registered sensors.
    pub fn capacity_bytes(&self) -> usize {
        self.sensor_count() * self.capacity_per_ring
    }

    /// Register this set's live state with a telemetry registry.
    ///
    /// Everything is exported as computed sources reading the rings'
    /// own monotonic counters, so the hot paths pay nothing extra:
    ///
    /// - `brisk_ring_occupancy_bytes{node=..}` (gauge)
    /// - `brisk_ring_capacity_bytes{node=..}` (gauge)
    /// - `brisk_ring_produced_total{node=..}` / `_dropped_total` /
    ///   `_consumed_total` (counters)
    pub fn bind_telemetry(self: &Arc<Self>, registry: &Registry) {
        let node = self.node.0.to_string();
        let labels = [("node", node.as_str())];
        let s = Arc::clone(self);
        registry.gauge_fn(
            "brisk_ring_occupancy_bytes",
            "Bytes currently buffered in the node's sensor rings",
            &labels,
            move || s.occupancy_bytes() as i64,
        );
        let s = Arc::clone(self);
        registry.gauge_fn(
            "brisk_ring_capacity_bytes",
            "Total capacity of the node's sensor rings",
            &labels,
            move || s.capacity_bytes() as i64,
        );
        let s = Arc::clone(self);
        registry.counter_fn(
            "brisk_ring_produced_total",
            "Records accepted by the sensor rings",
            &labels,
            move || s.stats().produced,
        );
        let s = Arc::clone(self);
        registry.counter_fn(
            "brisk_ring_dropped_total",
            "Records dropped because a sensor ring was full",
            &labels,
            move || s.stats().dropped,
        );
        let s = Arc::clone(self);
        registry.counter_fn(
            "brisk_ring_consumed_total",
            "Records drained from the sensor rings by the EXS",
            &labels,
            move || s.stats().consumed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn fields(i: i32) -> Vec<Value> {
        vec![Value::I32(i), Value::Str(format!("e{i}"))]
    }

    #[test]
    fn port_round_trips_records() {
        let (mut port, mut cons) = RecordRing::create(NodeId(1), SensorId(2), 4096);
        assert!(port
            .emit(EventTypeId(7), UtcMicros::from_micros(10), fields(0))
            .unwrap());
        let rec = cons.pop().unwrap().unwrap();
        assert_eq!(rec.node, NodeId(1));
        assert_eq!(rec.sensor, SensorId(2));
        assert_eq!(rec.event_type, EventTypeId(7));
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.fields, fields(0));
        assert!(cons.pop().unwrap().is_none());
    }

    #[test]
    fn seq_advances_even_on_drop() {
        let (mut port, mut cons) = RecordRing::create(NodeId(1), SensorId(0), 64);
        // Fill the tiny ring until a drop occurs.
        let mut dropped = false;
        for i in 0..20 {
            let ok = port
                .emit(EventTypeId(1), UtcMicros::ZERO, fields(i))
                .unwrap();
            if !ok {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "64-byte ring must overflow");
        let stats = port.stats();
        assert!(stats.dropped >= 1);
        // Drain and observe the seq gap once more records flow.
        let mut out = Vec::new();
        cons.drain_into(usize::MAX, &mut out).unwrap();
        let last_seq = out.last().unwrap().seq;
        assert!(port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap());
        let next = cons.pop().unwrap().unwrap();
        assert!(
            next.seq > last_seq + 1,
            "gap {} -> {} must reveal the drop",
            last_seq,
            next.seq
        );
    }

    #[test]
    fn emit_record_overrides_origin() {
        let (mut port, mut cons) = RecordRing::create(NodeId(5), SensorId(6), 1024);
        let rec = EventRecord::new(
            NodeId(99),
            SensorId(99),
            EventTypeId(3),
            99,
            UtcMicros::from_micros(1),
            vec![],
        )
        .unwrap();
        assert!(port.emit_record(rec));
        let got = cons.pop().unwrap().unwrap();
        assert_eq!(got.node, NodeId(5));
        assert_eq!(got.sensor, SensorId(6));
        assert_eq!(got.seq, 0);
    }

    #[test]
    fn ring_set_round_robin_drain() {
        let set = RingSet::new(NodeId(1), 4096);
        let mut a = set.register();
        let mut b = set.register();
        assert_eq!(set.sensor_count(), 2);
        assert_ne!(a.sensor(), b.sensor());
        for i in 0..5 {
            a.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
            b.emit(EventTypeId(2), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        let mut out = Vec::new();
        let n = set.drain_into(usize::MAX, &mut out).unwrap();
        assert_eq!(n, 10);
        assert_eq!(out.iter().filter(|r| r.sensor == a.sensor()).count(), 5);
        assert_eq!(out.iter().filter(|r| r.sensor == b.sensor()).count(), 5);
        assert!(set.is_empty());
    }

    #[test]
    fn ring_set_drain_respects_budget() {
        let set = RingSet::new(NodeId(1), 4096);
        let mut a = set.register();
        for i in 0..10 {
            a.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(set.drain_into(3, &mut out).unwrap(), 3);
        assert_eq!(set.drain_into(100, &mut out).unwrap(), 7);
    }

    #[test]
    fn drain_reusing_decodes_over_shells_and_keeps_the_spare_ones() {
        let set = RingSet::new(NodeId(1), 4096);
        let mut a = set.register();
        for i in 0..3 {
            a.emit(EventTypeId(1), UtcMicros::from_micros(i as i64), fields(i))
                .unwrap();
        }
        let mut fresh = Vec::new();
        set.drain_into(usize::MAX, &mut fresh).unwrap();
        for i in 0..3 {
            a.emit(EventTypeId(1), UtcMicros::from_micros(i as i64), fields(i))
                .unwrap();
        }
        // Two shells for three records: the third is decoded fresh.
        let mut shells = fresh[..2].to_vec();
        shells.iter_mut().for_each(|s| s.fields = fields(99));
        let mut out = Vec::new();
        assert_eq!(
            set.drain_reusing(usize::MAX, &mut out, &mut shells)
                .unwrap(),
            3
        );
        assert!(shells.is_empty());
        let seqs: Vec<u64> = out.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        for (got, want) in out.iter().zip(&fresh) {
            assert_eq!(got.fields, want.fields);
        }
        // An empty ring hands the shell back.
        let mut shells = vec![fresh[2].clone()];
        assert_eq!(
            set.drain_reusing(usize::MAX, &mut out, &mut shells)
                .unwrap(),
            0
        );
        assert_eq!(shells.len(), 1);
    }

    #[test]
    fn ring_set_aggregated_stats() {
        let set = RingSet::new(NodeId(1), 4096);
        let mut a = set.register();
        let mut b = set.register();
        a.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        b.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        b.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        let stats = set.stats();
        assert_eq!(stats.produced, 3);
        assert_eq!(stats.consumed, 0);
        let mut out = Vec::new();
        set.drain_into(usize::MAX, &mut out).unwrap();
        assert_eq!(set.stats().consumed, 3);
    }

    #[test]
    fn bind_telemetry_exports_live_ring_state() {
        let registry = Registry::new();
        let set = RingSet::new(NodeId(3), 4096);
        set.bind_telemetry(&registry);
        let mut port = set.register();
        port.set_notice_counter(registry.counter("brisk_notices_total", "notices emitted"));
        for i in 0..4 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), fields(0))
                .unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_ring_produced_total", &[("node", "3")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("brisk_notices_total"), 4);
        let occ = snap.gauge("brisk_ring_occupancy_bytes").unwrap();
        assert!(occ > 0, "4 buffered records must show as occupancy");
        assert_eq!(snap.gauge("brisk_ring_capacity_bytes"), Some(4096));

        let mut out = Vec::new();
        set.drain_into(usize::MAX, &mut out).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("brisk_ring_occupancy_bytes"), Some(0));
        assert_eq!(
            snap.counter_labeled("brisk_ring_consumed_total", &[("node", "3")]),
            Some(4)
        );
    }

    #[test]
    fn sampler_attaches_trace_context_at_notice_time() {
        let set = RingSet::new(NodeId(1), 1 << 16);
        set.set_trace_sampler(Arc::new(TraceSampler::with_seed(2, 42)));
        let mut port = set.register();
        for i in 0..6 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(100 + i), fields(0))
                .unwrap();
        }
        let mut out = Vec::new();
        set.drain_into(usize::MAX, &mut out).unwrap();
        let traced: Vec<_> = out.iter().filter(|r| r.trace().is_some()).collect();
        assert_eq!(traced.len(), 3, "1-in-2 sampling over 6 emits");
        for rec in &traced {
            let ctx = rec.trace().unwrap();
            assert_ne!(ctx.trace_id, 0);
            assert_eq!(ctx.stamps().len(), 1, "origin stamp only at notice time");
            let (stage, ts) = ctx.stamps()[0];
            assert_eq!(stage, brisk_core::TraceStage::Notice);
            assert_eq!(ts, rec.ts, "origin stamp is the notice timestamp");
        }
        let ids: std::collections::HashSet<u64> =
            traced.iter().map(|r| r.trace().unwrap().trace_id).collect();
        assert_eq!(ids.len(), 3, "trace ids must be unique");
    }

    #[test]
    fn full_record_skips_trace_attach() {
        let set = RingSet::new(NodeId(1), 1 << 16);
        let sampler = Arc::new(TraceSampler::with_seed(1, 7));
        set.set_trace_sampler(Arc::clone(&sampler));
        let mut port = set.register();
        let full: Vec<Value> = (0..8).map(Value::I32).collect();
        port.emit(EventTypeId(1), UtcMicros::ZERO, full).unwrap();
        port.emit(EventTypeId(1), UtcMicros::ZERO, fields(1))
            .unwrap();
        assert_eq!(sampler.full_skips(), 1);
        let mut out = Vec::new();
        set.drain_into(usize::MAX, &mut out).unwrap();
        assert!(out[0].trace().is_none(), "full record keeps its payload");
        assert!(out[1].trace().is_some());
    }

    #[test]
    fn multi_threaded_sensors_one_drainer() {
        let set = RingSet::new(NodeId(1), 1 << 16);
        const SENSORS: usize = 4;
        const PER_SENSOR: u64 = 5_000;
        let mut handles = Vec::new();
        for _ in 0..SENSORS {
            let mut port = set.register();
            handles.push(thread::spawn(move || {
                let mut sent = 0u64;
                for i in 0..PER_SENSOR {
                    if port
                        .emit(
                            EventTypeId(1),
                            UtcMicros::from_micros(i as i64),
                            vec![Value::U64(i)],
                        )
                        .unwrap()
                    {
                        sent += 1;
                    } else {
                        // Ring full: spin briefly and retry once.
                        std::thread::yield_now();
                        if port
                            .emit(
                                EventTypeId(1),
                                UtcMicros::from_micros(i as i64),
                                vec![Value::U64(i)],
                            )
                            .unwrap()
                        {
                            sent += 1;
                        }
                    }
                }
                sent
            }));
        }
        // The drainer stops on the producers' done flag, not on an idle
        // count a loaded scheduler can exhaust while a sensor is runnable
        // but not running. It is stored (Release) once every producer has
        // joined and loaded (Acquire) before each drain, so an empty drain
        // after seeing it set has collected every record.
        let done = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (set, done) = (Arc::clone(&set), Arc::clone(&done));
            thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    if set.drain_into(1024, &mut out).unwrap() == 0 {
                        if finished {
                            break;
                        }
                        thread::yield_now();
                    }
                }
                out
            })
        };
        let sent: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        let drained = drainer.join().unwrap();
        assert_eq!(drained.len() as u64, sent);
        // Per-sensor sequence order must be preserved.
        for s in 0..SENSORS as u32 {
            let seqs: Vec<u64> = drained
                .iter()
                .filter(|r| r.sensor == SensorId(s))
                .map(|r| r.seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "sensor {s} out of order"
            );
        }
    }

    #[test]
    fn a_fill_beyond_half_a_ring_rings_at_half_a_ring() {
        // One busy ring of 1 KiB beside a quiet one, armed at 30 KiB: the
        // ring could never hold that, so the bell rings once the set
        // holds half a ring (512 bytes) and the ring still has room.
        let set = RingSet::new(NodeId(1), 1 << 10);
        let rung = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = Arc::clone(&rung);
        set.doorbell().set_wake(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let (mut busy, _quiet) = (set.register(), set.register());
        let fill = Fill {
            frames: 255,
            bytes: 30 * 1024,
        };
        assert!(set.arm_at(fill));
        let text = vec![Value::Str("x".repeat(60))];
        let mut held = 0;
        while rung.load(Ordering::Relaxed) == 0 {
            assert!(held < 512, "{held} bytes held and not rung");
            let before = busy.occupancy();
            assert!(busy
                .emit(EventTypeId(1), UtcMicros::ZERO, text.clone())
                .unwrap());
            held += busy.occupancy() - before;
        }
        assert!(held >= 512);
        assert_eq!(busy.stats().dropped, 0);
    }

    #[test]
    fn a_drainer_asleep_at_a_fill_is_woken_when_every_burst_completes() {
        // The drainer arms the set at what is left of the sensor's current
        // burst, by records or by bytes, and sleeps unless the set's own
        // re-check says the burst is already in; the sensor waits for
        // each burst to be drained before the next. A lost wakeup strands
        // the burst's tail, and a timeout says so. Two quiet rings beside
        // the sensor's own make the set's count, not one ring's, decide.
        let set = RingSet::new(NodeId(1), 1 << 12);
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        set.doorbell().set_wake(move || {
            let _ = tx.lock().send(());
        });
        let (mut port, _quiet) = (set.register(), [set.register(), set.register()]);
        // An empty record's frame: prefix, header, one descriptor byte.
        const FRAME: usize = 4 + binenc::HEADER_SIZE + 1;
        const BURSTS: u64 = 20_000;
        let burst_len = |b: u64| 1 + (b * 7) % 9;
        let records: u64 = (0..BURSTS).map(burst_len).sum();
        let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = Arc::clone(&taken);
        let sensor = thread::spawn(move || {
            for b in 0..BURSTS {
                for _ in 0..burst_len(b) {
                    let ts = UtcMicros::ZERO;
                    assert!(port.emit(EventTypeId(1), ts, vec![]).unwrap());
                }
                let (sent, t0) = (port.next_seq(), std::time::Instant::now());
                while seen.load(Ordering::Acquire) < sent {
                    assert!(
                        t0.elapsed() < std::time::Duration::from_secs(2),
                        "burst {b} ending at record {sent} was never drained"
                    );
                    thread::yield_now();
                }
                if b % 53 == 0 {
                    thread::sleep(std::time::Duration::from_micros(20));
                }
            }
        });
        let (mut out, mut burst, mut burst_end) = (Vec::new(), 0, 0);
        while (out.len() as u64) < records {
            let drained = out.len() as u64;
            if drained == burst_end {
                burst_end += burst_len(burst);
                burst += 1;
            }
            if set.drain_into(usize::MAX, &mut out).unwrap() > 0 {
                for (seq, rec) in out.iter().enumerate().skip(drained as usize) {
                    assert_eq!(rec.seq, seq as u64);
                }
                taken.store(out.len() as u64, Ordering::Release);
                continue;
            }
            let left = burst_end - drained;
            let fill = if burst % 2 == 0 {
                Fill {
                    frames: left,
                    bytes: usize::MAX,
                }
            } else {
                Fill {
                    frames: u64::MAX,
                    bytes: FRAME * left as usize,
                }
            };
            if set.arm_at(fill) {
                let woke = rx.recv_timeout(std::time::Duration::from_secs(5));
                assert!(woke.is_ok(), "asleep with record {drained} emitted");
            }
            set.doorbell().disarm();
        }
        sensor.join().unwrap();
    }
}
