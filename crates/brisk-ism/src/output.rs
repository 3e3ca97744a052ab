//! ISM output stage (§3.5, Fig. 1 right side).
//!
//! "Each instrumentation data record, after being extracted from the ISM's
//! heap, is written to a memory buffer using the same binary structure used
//! by the NOTICE macros. Optionally, a PICL trace record can be generated
//! … or it may pass instrumentation data to a list of CORBA-enabled visual
//! objects." The visual-object path is the [`EventSink`] trait; its
//! concrete implementations (and the memory-buffer consumer utilities)
//! live in `brisk-consumers`.

use brisk_core::{binenc, BriskError, EventRecord, Result};
use brisk_picl::{PiclWriter, TsMode};
use brisk_telemetry::Registry;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub use brisk_core::sink::EventSink;

struct MemoryBufferInner {
    /// The arena: encoded records back to back, oldest first.
    bytes: VecDeque<u8>,
    /// Encoded length of each held record, oldest first.
    lens: VecDeque<usize>,
    /// Global index of the oldest held record (grows monotonically as old
    /// records are evicted).
    first_index: u64,
    evicted: u64,
    written: u64,
}

/// The ISM's default output: a bounded in-memory log of encoded records
/// that any number of consumer tools read at their own pace.
///
/// Records are stored in the *native* binary encoding ("the same binary
/// structure used by the NOTICE macros"), back to back in one byte arena.
/// When the byte bound is exceeded the oldest records are evicted; a slow
/// reader observes the eviction as an explicit `missed` count rather than
/// silently corrupted data.
pub struct MemoryBuffer {
    capacity_bytes: usize,
    inner: Mutex<MemoryBufferInner>,
}

impl MemoryBuffer {
    /// New buffer bounded to roughly `capacity_bytes` of encoded records.
    /// The arena is reserved here and its pages are first touched as
    /// records arrive.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        let capacity_bytes = capacity_bytes.max(1024);
        Arc::new(MemoryBuffer {
            capacity_bytes,
            inner: Mutex::new(MemoryBufferInner {
                bytes: VecDeque::with_capacity(capacity_bytes),
                lens: VecDeque::new(),
                first_index: 0,
                evicted: 0,
                written: 0,
            }),
        })
    }

    /// Append one record the caller already `binenc`-encoded, by value.
    pub fn write_encoded(&self, encoded: Vec<u8>) {
        self.write_bytes(&encoded);
    }

    /// Append one record the caller already `binenc`-encoded. The delivery
    /// path encodes each record exactly once and shares the bytes between
    /// this buffer and the durable store.
    pub fn write_bytes(&self, encoded: &[u8]) {
        let mut inner = self.inner.lock();
        // Make room first (the newest record is always kept, even alone
        // and over the bound), so the arena never outgrows its reservation
        // for records that fit it.
        while inner.bytes.len() + encoded.len() > self.capacity_bytes {
            let Some(old) = inner.lens.pop_front() else {
                break;
            };
            inner.bytes.drain(..old);
            inner.first_index += 1;
            inner.evicted += 1;
        }
        inner.bytes.extend(encoded);
        inner.lens.push_back(encoded.len());
        inner.written += 1;
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().lens.len()
    }

    /// True if no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever written.
    pub fn written(&self) -> u64 {
        self.inner.lock().written
    }

    /// Records evicted to stay within the byte bound.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// Create a reader starting at the oldest available record.
    pub fn reader(self: &Arc<Self>) -> MemoryBufferReader {
        MemoryBufferReader {
            buffer: Arc::clone(self),
            next_index: self.inner.lock().first_index,
            cells: Arc::default(),
        }
    }

    /// Create a reader that only sees records written from now on.
    pub fn reader_from_now(self: &Arc<Self>) -> MemoryBufferReader {
        let inner = self.inner.lock();
        MemoryBufferReader {
            buffer: Arc::clone(self),
            next_index: inner.first_index + inner.lens.len() as u64,
            cells: Arc::default(),
        }
    }
}

brisk_telemetry::metrics! {
    /// One reader's cumulative eviction loss.
    struct ReaderCells {
        missed: counter "brisk_ism_reader_missed_total" "Records this memory-buffer reader missed due to eviction",
    }
}

/// A cursor over a [`MemoryBuffer`]; many can coexist.
pub struct MemoryBufferReader {
    buffer: Arc<MemoryBuffer>,
    next_index: u64,
    cells: Arc<ReaderCells>,
}

impl MemoryBufferReader {
    /// Export this reader's cumulative eviction loss as the labeled series
    /// `brisk_ism_reader_missed_total{reader="<label>"}`, so a lagging
    /// consumer's silent in-memory loss shows up on `--stats-addr`.
    pub fn bind_telemetry(&mut self, registry: &Registry, label: &str) {
        self.cells.register(registry, &[("reader", label)]);
    }

    /// Read all records available since the last poll. Returns the decoded
    /// records and the number missed due to eviction (0 for a reader that
    /// keeps up).
    pub fn poll(&mut self) -> Result<(Vec<EventRecord>, u64)> {
        // Under the lock only copy the pending span out (two `memcpy`s at
        // most); decoding, which allocates per record, happens after
        // releasing it, so a reader catching up on megabytes does not
        // stall the writer.
        let (bytes, count, missed) = {
            let inner = self.buffer.inner.lock();
            let missed = inner.first_index.saturating_sub(self.next_index);
            let skip = (self.next_index + missed - inner.first_index) as usize;
            let pending: usize = inner.lens.range(skip..).sum();
            let start = inner.bytes.len() - pending;
            let (a, b) = inner.bytes.as_slices();
            let mut bytes = Vec::with_capacity(pending);
            bytes.extend_from_slice(&a[start.min(a.len())..]);
            bytes.extend_from_slice(&b[start.saturating_sub(a.len())..]);
            (bytes, inner.lens.len() - skip, missed)
        };
        if missed > 0 {
            self.next_index += missed;
            self.cells.missed.fetch_add(missed, Ordering::Relaxed);
        }
        let out = binenc::decode_all(&bytes)?;
        if out.len() != count {
            return Err(BriskError::Codec("trailing bytes in memory buffer".into()));
        }
        self.next_index += count as u64;
        Ok((out, missed))
    }
}

/// Sink writing PICL ASCII trace records to any `Write` target ("it may
/// log instrumentation data to trace files in the PICL ASCII format").
///
/// Dropping the sink flushes buffered records, so a trace file opened via
/// [`PiclFileSink::from_path`] is complete even when the ISM exits without
/// an explicit [`EventSink::flush`] call.
pub struct PiclFileSink {
    writer: PiclWriter<Box<dyn Write + Send>>,
    /// Duplicate handle to the backing file (when there is one), kept so
    /// `flush()` can `sync_all` the written bytes to stable storage.
    sync_handle: Option<std::fs::File>,
}

impl PiclFileSink {
    /// New sink over `target` (typically a `File`) with the given timestamp
    /// mode.
    pub fn new(target: Box<dyn Write + Send>, mode: TsMode) -> Result<Self> {
        Ok(PiclFileSink {
            writer: PiclWriter::new(target, mode)?,
            sync_handle: None,
        })
    }

    /// New sink writing to the file at `path` (created/truncated). Unlike
    /// [`PiclFileSink::new`], this keeps a handle to the file so `flush()`
    /// also forces the trace to stable storage with `sync_all`.
    pub fn from_path(path: impl AsRef<Path>, mode: TsMode) -> Result<Self> {
        let file = std::fs::File::create(path)?;
        let sync_handle = file.try_clone().ok();
        let target: Box<dyn Write + Send> = Box::new(file);
        Ok(PiclFileSink {
            writer: PiclWriter::new(target, mode)?,
            sync_handle,
        })
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }
}

impl EventSink for PiclFileSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.writer.write_event(rec)
    }

    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        if let Some(f) = &self.sync_handle {
            f.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for PiclFileSink {
    fn drop(&mut self) {
        // Best effort: never panic in drop, but do not leave buffered
        // records behind when a sink is dropped without an explicit flush.
        let _ = self.flush();
    }
}

/// Test/diagnostic sink collecting records into a shared vector.
#[derive(Clone, Default)]
pub struct VecSink(pub Arc<Mutex<Vec<EventRecord>>>);

impl VecSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything collected.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.0.lock().clone()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.0.lock().push(rec.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, UtcMicros, Value};

    fn rec(seq: u64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(seq as i64),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    /// Append one record, encoded as the delivery path encodes it.
    fn write(buf: &MemoryBuffer, rec: &EventRecord) {
        let mut encoded = Vec::new();
        binenc::encode_record(rec, &mut encoded);
        buf.write_bytes(&encoded);
    }

    #[test]
    fn reader_sees_records_in_order() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut reader = buf.reader();
        for i in 0..10 {
            write(&buf, &rec(i));
        }
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0);
        assert_eq!(got.len(), 10);
        assert_eq!(got[4].seq, 4);
        // Second poll: nothing new.
        let (got, missed) = reader.poll().unwrap();
        assert!(got.is_empty());
        assert_eq!(missed, 0);
    }

    #[test]
    fn incremental_reads() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut reader = buf.reader();
        write(&buf, &rec(0));
        assert_eq!(reader.poll().unwrap().0.len(), 1);
        write(&buf, &rec(1));
        write(&buf, &rec(2));
        let (got, _) = reader.poll().unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn eviction_reports_missed() {
        // Tiny buffer: each encoded record is ~38 bytes, cap floor is 1024.
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        for i in 0..100 {
            write(&buf, &rec(i));
        }
        assert!(buf.evicted() > 0);
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, buf.evicted());
        assert_eq!(got.len() as u64 + missed, 100);
        // The survivors are the newest, contiguous.
        assert_eq!(got.last().unwrap().seq, 99);
        let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    /// Encoded size of `rec(_)`: 28-byte header + 2-byte descriptor + u64.
    const REC_BYTES: usize = 38;

    #[test]
    fn eviction_across_the_arena_wrap_point_keeps_the_newest() {
        // 1024 bytes hold 26 records of 38 bytes; the arena's ring wraps
        // about every 27 writes, so 1000 writes wrap it dozens of times
        // with evictions straddling the seam.
        let buf = MemoryBuffer::new(1024);
        let held = 1024 / REC_BYTES;
        for i in 0..1000u64 {
            write(&buf, &rec(i));
            let expect_len = (i as usize + 1).min(held);
            assert_eq!(buf.len(), expect_len, "after write {i}");
            assert_eq!(buf.evicted(), i + 1 - expect_len as u64);
            // A fresh reader sees exactly the survivors, intact.
            if i % 37 == 0 {
                let (got, missed) = buf.reader().poll().unwrap();
                assert_eq!(missed, 0);
                let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
                let want: Vec<u64> = (i + 1 - expect_len as u64..=i).collect();
                assert_eq!(seqs, want);
            }
        }
    }

    #[test]
    fn reader_inside_an_evicted_span_reports_the_exact_missed_count() {
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        for i in 0..10 {
            write(&buf, &rec(i));
        }
        assert_eq!(reader.poll().unwrap().0.len(), 10); // cursor now at 10
        for i in 10..100 {
            write(&buf, &rec(i));
        }
        // Held: the newest 26 (74..=99); the reader never saw 10..=73.
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 64);
        assert_eq!(got.first().unwrap().seq, 74);
        assert_eq!(got.last().unwrap().seq, 99);
        // Caught up: nothing more, nothing missed.
        assert_eq!(reader.poll().unwrap(), (vec![], 0));
    }

    #[test]
    fn reader_from_now_after_wrap_sees_only_new_records() {
        let buf = MemoryBuffer::new(1024);
        for i in 0..500 {
            write(&buf, &rec(i));
        }
        let mut reader = buf.reader_from_now();
        assert_eq!(reader.poll().unwrap(), (vec![], 0));
        write(&buf, &rec(500));
        write(&buf, &rec(501));
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0);
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), [500, 501]);
    }

    #[test]
    fn a_record_larger_than_the_bound_is_retained_alone() {
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        write(&buf, &rec(0));
        write(&buf, &rec(1));
        let mut big = rec(2);
        big.fields = vec![Value::Bytes(vec![7; 4000])];
        write(&buf, &big);
        assert_eq!(buf.len(), 1, "everything older made way");
        assert_eq!(buf.evicted(), 2);
        let (got, missed) = reader.poll().unwrap();
        assert_eq!((got, missed), (vec![big], 2));
        // The next ordinary record evicts it in turn.
        write(&buf, &rec(3));
        assert_eq!(buf.len(), 1);
        assert_eq!(reader.poll().unwrap(), (vec![rec(3)], 0), "big was read");
    }

    #[test]
    fn multiple_independent_readers() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut r1 = buf.reader();
        write(&buf, &rec(0));
        let mut r2 = buf.reader();
        write(&buf, &rec(1));
        assert_eq!(r1.poll().unwrap().0.len(), 2);
        assert_eq!(
            r2.poll().unwrap().0.len(),
            2,
            "r2 starts at oldest available"
        );
        let mut r3 = buf.reader_from_now();
        write(&buf, &rec(2));
        assert_eq!(r3.poll().unwrap().0.len(), 1, "r3 sees only new records");
    }

    #[test]
    fn picl_sink_produces_parseable_trace() {
        use brisk_picl::read_trace;
        let shared: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink =
            PiclFileSink::new(Box::new(SharedWriter(Arc::clone(&shared))), TsMode::Utc).unwrap();
        for i in 0..5 {
            sink.on_record(&rec(i)).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.records_written(), 5);
        let text = String::from_utf8(shared.lock().clone()).unwrap();
        let parsed = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 5);
    }

    #[test]
    fn picl_sink_drop_flushes_file() {
        use brisk_picl::read_trace;
        let path = std::env::temp_dir().join(format!("brisk-picl-drop-{}.trc", std::process::id()));
        {
            let mut sink = PiclFileSink::from_path(&path, TsMode::Utc).unwrap();
            for i in 0..7 {
                sink.on_record(&rec(i)).unwrap();
            }
            // No explicit flush: Drop must do it.
        }
        let bytes = std::fs::read(&path).unwrap();
        let parsed = read_trace(&bytes[..]).unwrap();
        assert_eq!(parsed.len(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_missed_counter_is_exported() {
        let registry = Registry::new();
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        reader.bind_telemetry(&registry, "test");
        for i in 0..100 {
            write(&buf, &rec(i));
        }
        let (_, missed) = reader.poll().unwrap();
        assert!(missed > 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_ism_reader_missed_total", &[("reader", "test")]),
            Some(missed)
        );
    }

    #[test]
    fn closure_sink_works() {
        let mut count = 0;
        {
            let mut sink = |_rec: &EventRecord| -> Result<()> {
                count += 1;
                Ok(())
            };
            sink.on_record(&rec(0)).unwrap();
            sink.on_record(&rec(1)).unwrap();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn vec_sink_collects() {
        let sink = VecSink::new();
        let mut s2 = sink.clone();
        s2.on_record(&rec(3)).unwrap();
        assert_eq!(sink.snapshot()[0].seq, 3);
        assert_eq!(sink.len(), 1);
    }
}
