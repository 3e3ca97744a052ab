//! Allocation budgets of the record plumbing. In steady state a record
//! costs one heap object, its `fields` vector, where the sensor builds it,
//! and none after that: the EXS decodes ring records over the records of
//! batches it has already shipped, and the ISM decodes frames into records
//! it has already delivered. Only the owned decode paths (a ring pop, a
//! materialized batch, a core fed records rather than frames) still pay a
//! `fields` vector per record.
//!
//! The counter is thread-local, so the tests of this binary can run in
//! parallel without seeing each other's allocations.

use brisk::core::{binenc, CreConfig};
use brisk::ism::CreMatcher;
use brisk::lis::uplink::Uplink;
use brisk::lis::Link;
use brisk::prelude::*;
use brisk::proto::{BatchView, BatchWalk};
use brisk::ringbuf::RecordRing;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    // Const-initialised and destructor-free: reading it inside the
    // allocator neither allocates nor touches a torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer; the counting beside it touches one thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) `f` makes on this
/// thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const NODE: NodeId = NodeId(7);

fn six_i32(seq: u64) -> Vec<Value> {
    vec![Value::I32(seq as i32); 6]
}

/// Both causal markers and an `X_HLC` stamp (a wide descriptor code).
fn causal_fields(seq: u64) -> Vec<Value> {
    vec![
        Value::I32(seq as i32),
        Value::Reason(CorrelationId(seq)),
        Value::Conseq(CorrelationId(seq + 1_000_000)),
        Value::Hlc(HlcStamp::new(UtcMicros::from_micros(seq as i64), 0)),
    ]
}

/// A sampled record: every system type the pipeline looks inside. Its
/// `X_TRACE` context owns a stamp vector — one more heap object wherever
/// the record is decoded, paid by one record in N.
fn traced_fields(seq: u64) -> Vec<Value> {
    let mut fields = causal_fields(seq);
    let origin = UtcMicros::from_micros(seq as i64);
    fields.push(Value::Trace(TraceContext::origin(seq + 1, origin)));
    fields
}

fn record(seq: u64, fields: Vec<Value>) -> EventRecord {
    let ts = UtcMicros::from_micros(seq as i64);
    EventRecord::new(NODE, SensorId(0), EventTypeId(1), seq, ts, fields).unwrap()
}

/// (record, heap objects an owned copy of it holds).
fn shapes() -> [(EventRecord, u64); 3] {
    [
        (record(1, six_i32(1)), 1),
        (record(2, causal_fields(2)), 1),
        (record(3, traced_fields(3)), 2),
    ]
}

fn batch(first_seq: u64, n: u64) -> Vec<EventRecord> {
    (first_seq..first_seq + n)
        .map(|s| record(s, six_i32(s)))
        .collect()
}

#[test]
fn descriptors_never_touch_the_heap() {
    for (rec, _) in shapes() {
        let (n, desc) = allocs(|| RecordDescriptor::of(&rec.fields).unwrap());
        assert_eq!(n, 0, "RecordDescriptor::of");
        let (n, packed) = allocs(|| desc.pack());
        assert_eq!(n, 0, "RecordDescriptor::pack");
        let (n, back) = allocs(|| RecordDescriptor::unpack(&packed).unwrap());
        assert_eq!(n, 0, "RecordDescriptor::unpack");
        assert_eq!(back, (desc, packed.len()));
    }
}

#[test]
fn native_encode_is_in_place_and_decode_costs_the_fields_vector() {
    for (rec, owned) in shapes() {
        let mut buf = Vec::with_capacity(rec.native_size());
        let (n, _) = allocs(|| binenc::encode_record(&rec, &mut buf));
        assert_eq!(n, 0, "binenc::encode_record into a reserved buffer");
        let (n, back) = allocs(|| binenc::decode_record(&buf).unwrap());
        assert_eq!(n, owned, "binenc::decode_record: the fields vector");
        assert_eq!(back.0, rec);
    }
}

#[test]
fn notice_path_allocates_nothing_given_its_fields() {
    let (mut port, mut consumer) = RecordRing::create(NODE, SensorId(0), 1 << 16);
    for fields in [six_i32, traced_fields] {
        // The port's scratch buffer grows to the record shape once.
        port.emit(EventTypeId(1), UtcMicros::ZERO, fields(0))
            .unwrap();
        let given = fields(1);
        let (n, published) = allocs(|| port.emit(EventTypeId(1), UtcMicros::ZERO, given));
        assert_eq!(n, 0, "SensorPort::emit");
        assert!(published.unwrap());
    }
    let (n, rec) = allocs(|| consumer.pop().unwrap().unwrap());
    assert_eq!(n, 1, "RecordConsumer::pop: the fields vector");
    assert_eq!(rec.fields, six_i32(0));
}

#[test]
fn batch_parse_is_independent_of_record_count() {
    let causal = (0..256).map(|s| record(s, causal_fields(s))).collect();
    for records in [batch(0, 256), causal] {
        let frame = Message::EventBatch {
            node: NODE,
            seq: Some(1),
            records: records.clone(),
        }
        .encode();
        let (n, view) = allocs(|| BatchView::parse(&frame).unwrap());
        assert!(
            n <= 2,
            "BatchView::parse of 256 records made {n} allocations"
        );
        let (n, owned) = allocs(|| view.materialize().unwrap());
        assert_eq!(
            n,
            256 + 1,
            "materialize: one fields vector each + the batch"
        );
        assert_eq!(owned, records);
    }
}

#[test]
fn cre_passes_an_unmarked_record_without_allocating() {
    let mut cre = CreMatcher::new(CreConfig::default()).unwrap();
    let rec = record(1, six_i32(1));
    let (n, out) = allocs(|| cre.process(rec, UtcMicros::ZERO));
    assert_eq!(n, 0, "CreMatcher::process");
    assert_eq!(out.pass.len(), 1);
}

#[test]
fn manager_delivery_allocates_per_batch_not_per_record() {
    let mut core = IsmCore::new(IsmConfig::default()).unwrap();
    let mut seq = 0;
    let mut deliver = |core: &mut IsmCore, n: u64| {
        let records = batch(seq * 10_000, n);
        seq += 1;
        let frame = Message::EventBatch {
            node: NODE,
            seq: Some(seq),
            records,
        }
        .encode();
        let view = BatchView::parse(&frame).unwrap();
        let (materialized, records) = allocs(|| view.materialize().unwrap());
        assert_eq!(
            materialized,
            n + 1,
            "materialize: the batch vector + one fields vector per record"
        );
        let (allocs, delivered) = allocs(|| {
            core.push_batch_seq(NODE, Some(seq), records, UtcMicros::ZERO)
                .unwrap();
            core.tick(UtcMicros::from_secs(3_600)).unwrap()
        });
        assert_eq!(delivered as u64, n);
        allocs
    };
    // Warm-up: the sorter's queue and heap, the plane's reused release
    // buffer and the memory buffer's length ring grow to the working size.
    deliver(&mut core, 4096);
    let small = deliver(&mut core, 64);
    let large = deliver(&mut core, 2048);
    // What is left is per tick: at most one doubling of the memory
    // buffer's length ring as its record count passes a power of two
    // (4096 + 64 does).
    assert!(small <= 1, "64-record batch: {small} allocations");
    assert!(large <= 1, "2048-record batch: {large} allocations");
    assert_eq!(core.memory().written(), 4096 + 64 + 2048);
}

/// A frame's header, read as the ISM loop reads it before the push.
fn walk(frame: &[u8]) -> BatchWalk<'_> {
    BatchWalk::new(frame).unwrap()
}

fn frame(seq: u64, records: Vec<EventRecord>) -> Vec<u8> {
    Message::EventBatch {
        node: NODE,
        seq: Some(seq),
        records,
    }
    .encode()
}

#[test]
fn manager_frames_decode_into_delivered_records() {
    let mut core = IsmCore::new(IsmConfig::default()).unwrap();
    let mut seq = 0;
    let mut deliver = |core: &mut IsmCore, n: u64| {
        seq += 1;
        let frame = frame(seq, batch(seq * 10_000, n));
        let (allocs, delivered) = allocs(|| {
            let pushed = core.push_frame(NODE, seq, walk(&frame), UtcMicros::ZERO, UtcMicros::ZERO);
            assert!(pushed.unwrap());
            core.tick(UtcMicros::from_secs(3_600)).unwrap()
        });
        assert_eq!(delivered as u64, n);
        allocs
    };
    // Warm-up: 4096 records are decoded fresh and, once delivered, become
    // the shells later frames decode into; the batch, sorter and release
    // buffers grow to the working size.
    let first = deliver(&mut core, 4096);
    assert!(first > 4096, "the first frame allocates its records");
    let small = deliver(&mut core, 64);
    let large = deliver(&mut core, 2048);
    // What is left is per tick, as in the record-fed test above: at most
    // one doubling of the memory buffer's length ring.
    assert!(small <= 1, "64-record frame: {small} allocations");
    assert!(large <= 1, "2048-record frame: {large} allocations");
    assert_eq!(core.memory().written(), 4096 + 64 + 2048);
}

#[test]
fn a_core_fed_through_push_batch_keeps_no_shells() {
    let mut core = IsmCore::new(IsmConfig::default()).unwrap();
    core.push_batch(batch(0, 4096), UtcMicros::ZERO).unwrap();
    assert_eq!(core.tick(UtcMicros::from_secs(3_600)).unwrap(), 4096);
    // Had delivery kept those 4096 records, this frame would decode into
    // them; it allocates a fields vector per record instead.
    let frame = frame(1, batch(10_000, 64));
    let (n, pushed) =
        allocs(|| core.push_frame(NODE, 1, walk(&frame), UtcMicros::ZERO, UtcMicros::ZERO));
    assert!(pushed.unwrap());
    assert!(
        n >= 64,
        "push_frame of 64 records found shells: {n} allocations"
    );
}

#[test]
fn a_replayed_frame_is_acked_but_never_decoded() {
    let mut core = IsmCore::new(IsmConfig::default()).unwrap();
    let good = frame(1, batch(0, 256));
    assert!(core
        .push_frame(NODE, 1, walk(&good), UtcMicros::ZERO, UtcMicros::ZERO)
        .unwrap());
    // The replay keeps its header (tag, node, seq, count: 20 bytes) and
    // carries garbage after it, so decoding any record would fail.
    let mut replay = good.clone();
    replay[20..].fill(0xff);
    let (n, pushed) =
        allocs(|| core.push_frame(NODE, 1, walk(&replay), UtcMicros::ZERO, UtcMicros::ZERO));
    assert!(
        !pushed.unwrap(),
        "a replay is reported for acking, not pushed"
    );
    assert_eq!(n, 0, "the replay cost {n} allocations");
    let stats = core.stats();
    assert_eq!((stats.duplicate_batches, stats.duplicate_records), (1, 256));
    assert_eq!(stats.records_in, 256);
    // The same bytes under a fresh seq are decoded, and refused whole.
    assert!(core
        .push_frame(NODE, 2, walk(&replay), UtcMicros::ZERO, UtcMicros::ZERO)
        .is_err());
    assert_eq!(core.stats().records_in, 256);
}

/// A link that takes frames without copying them.
struct NullLink {
    frames: usize,
}

impl Connection for NullLink {
    fn send(&mut self, _frame: &[u8]) -> brisk::core::Result<()> {
        self.frames += 1;
        Ok(())
    }

    fn recv(&mut self, _timeout: Option<Duration>) -> brisk::core::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    fn peer(&self) -> String {
        "null".into()
    }
}

#[test]
fn uplink_sends_a_batch_without_copying_it() {
    let mut up = Uplink::new(NODE, Arc::new(SystemClock), 64, Duration::ZERO);
    let mut link = Link::new(Some(Box::new(NullLink { frames: 0 })), None);
    up.up();
    link.serve(&mut up, Duration::ZERO);
    let records = batch(0, 256);
    let (n, sent) = allocs(|| {
        let sent = up.send(&records);
        link.serve(&mut up, Duration::ZERO);
        sent
    });
    assert!(sent);
    assert!(n <= 3, "Uplink::send of 256 records made {n} allocations");
    assert_eq!(up.window_depth(), 1);
}

#[test]
fn exs_ships_a_batch_without_allocating_per_record() {
    let rings = RingSet::new(NODE, 1 << 20);
    let mut port = rings.register();
    let mut link = Link::new(Some(Box::new(NullLink { frames: 0 })), None);
    let cfg = ExsConfig::default();
    assert_eq!(cfg.max_batch_records, 256);
    let mut exs =
        ExternalSensor::new(NODE, Arc::clone(&rings), Arc::new(SystemClock), cfg).unwrap();
    exs.uplink().up();
    link.serve(exs.uplink(), Duration::ZERO);
    // Emit one full batch of six-i32 records, then count what the step
    // that drains and ships it allocates (no grant yet: credit is open).
    let mut ship = |exs: &mut ExternalSensor, first: u64| {
        for s in first..first + 256 {
            port.emit(EventTypeId(1), UtcMicros::ZERO, six_i32(s))
                .unwrap();
        }
        let (n, step) = allocs(|| {
            let step = exs.step(Duration::ZERO);
            link.serve(exs.uplink(), Duration::ZERO);
            step
        });
        step.unwrap();
        n
    };
    // Warm-up: the first batch's records and vector become the shells and
    // the batch vector every later batch reuses.
    ship(&mut exs, 0);
    let n = ship(&mut exs, 256);
    assert!(
        n <= 3,
        "an EXS step shipping 256 records made {n} allocations"
    );
    let stats = exs.stats();
    assert_eq!((stats.records_sent, stats.batches_sent), (512, 2));
}
