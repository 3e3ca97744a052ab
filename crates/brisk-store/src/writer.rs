//! The write side: segment rotation, fsync policy, retention, repair.
//!
//! [`StoreWriter`] is an [`EventSink`], so the ISM's output stage can fan
//! sorted records into it exactly like any other consumer. Appends collect
//! frames in a pending buffer that the appending thread `write`s to the
//! segment file once it holds 64 KiB, and at every fsync point,
//! rotation, [`EventSink::flush`] and drop, so when any of these returns
//! its frames are in the file; the [`FsyncPolicy`] governs only when they
//! are synced. A slow `write(2)` stalls the caller, like any blocking sink.
//!
//! A writer never appends to a pre-existing segment: on open it *repairs*
//! the directory (truncates torn tails left by a crash, rebuilds missing
//! sidecar indexes) and then starts a fresh segment, so the repaired
//! history is immutable from that point on.

use crate::reader::{index_of_scan, list_segment_ids, scan_segment};
use crate::segment::{
    append_frame, index_path, segment_path, SegmentBody, SegmentHeader, SegmentIndex, SensorBloom,
    ZoneMap,
};
use brisk_core::sink::EventSink;
use brisk_core::{binenc, BriskError, EventRecord, FsyncPolicy, Result, StoreConfig, UtcMicros};
use brisk_telemetry::Registry;
use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Write the pending frames to the segment file once they hold this many
/// bytes.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// Write `bytes` to `path` durably and atomically: a temp file is written
/// and fsynced, then renamed over the destination, so a crash leaves either
/// the old file or the complete new one — never a torn or page-cache-only
/// segment or sidecar.
pub(crate) fn write_durable(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    Ok(())
}

brisk_telemetry::metrics! {
    /// Totals the writer maintains in place; [`StoreWriter::bind_telemetry`]
    /// publishes these same cells, so binding costs nothing on the append
    /// path.
    pub struct StoreStats {
        /// Records appended.
        pub records: counter "brisk_store_records_total" "Records appended to the durable trace store",
        /// Payload + framing bytes handed to the OS.
        pub bytes_written: counter "brisk_store_bytes_written_total" "Frame bytes appended to segment files",
        /// Segments created (including the repair pass's successor segment).
        pub segments_created: counter "brisk_store_segments_created_total" "Segment files created",
        /// `fdatasync` calls issued.
        pub fsyncs: counter "brisk_store_fsyncs_total" "fdatasync calls issued by the store writer",
        /// Torn tails truncated during the open-time repair pass.
        pub torn_tail_truncations: counter "brisk_store_torn_tail_truncations_total" "Torn segment tails truncated during crash repair",
        /// Sealed segments evicted by the retention policy.
        pub retention_evictions: counter "brisk_store_retention_evictions_total" "Sealed segments evicted by the retention policy",
        /// Sidecar indexes rebuilt during the open-time repair pass — missing,
        /// damaged (an older v1 or v2 sidecar no longer decodes), or stale
        /// (their seal stamp disagreed with the segment bytes, e.g. after a
        /// crash mid-seal).
        pub idx_rebuilds: counter "brisk_store_idx_rebuilds_total" "Sidecar indexes rebuilt on open (missing, damaged, old-format or stale)",
        /// Sealed segments currently retained.
        pub segments_live: gauge "brisk_store_segments_live" "Sealed segments currently on disk",
        /// Latency of each `fdatasync`, in µs.
        pub fsync_micros: histogram "brisk_store_fsync_micros" "Latency of store fdatasync calls (µs)",
    }
}

/// A sealed segment the writer still tracks for retention accounting.
#[derive(Clone, Debug)]
struct SealedSegment {
    id: u64,
    bytes: u64,
}

struct ActiveSegment {
    id: u64,
    file: File,
    /// Bytes logically appended (buffered + written).
    bytes: u64,
    /// Frames not yet handed to the OS.
    pending: Vec<u8>,
    records: u64,
    min_ts: UtcMicros,
    max_ts: UtcMicros,
    /// Node ids seen in this segment (zone map).
    nodes: BTreeSet<u32>,
    /// Sensor ids seen in this segment (zone map).
    sensors: SensorBloom,
    /// Offset and CRC word of the most recent frame (the sidecar's seal
    /// stamp).
    last_frame: Option<(u64, u32)>,
}

/// Append-only writer over a store directory (see module docs).
pub struct StoreWriter {
    cfg: StoreConfig,
    dir: PathBuf,
    active: Option<ActiveSegment>,
    sealed: Vec<SealedSegment>,
    next_segment_id: u64,
    /// Appends not yet published to `stats` (drained at every flush point;
    /// two `fetch_add`s per record were measurable on the append path).
    unpublished_records: u64,
    /// Frame bytes not yet published to `stats`.
    unpublished_bytes: u64,
    /// Stream timestamp at the last sync; `FsyncPolicy::Interval` compares
    /// record timestamps against this (stream time, so the append path
    /// reads no clock per record — an `Instant::now()` per record was
    /// measurable).
    last_sync_ts: UtcMicros,
    /// Wall-clock time of the first append since the last sync under
    /// `FsyncPolicy::Interval`, read once per interval, not per record;
    /// [`StoreWriter::sync_if_due`] syncs a quiet stream by it.
    unsynced_since: Option<Instant>,
    /// Newest appended record timestamp: the stream clock the interval
    /// fsync policy runs on.
    last_ts: UtcMicros,
    stats: Arc<StoreStats>,
    scratch: Vec<u8>,
}

impl StoreWriter {
    /// Open (and if necessary repair) the store at `cfg.dir`.
    pub fn open(cfg: &StoreConfig) -> Result<StoreWriter> {
        cfg.validate()?;
        let dir = cfg
            .dir
            .clone()
            .ok_or_else(|| BriskError::Config("StoreConfig.dir is required".into()))?;
        fs::create_dir_all(&dir)?;
        let stats = Arc::new(StoreStats::default());
        let mut sealed = Vec::new();
        let mut next_segment_id = 0u64;
        let mut last_ts = UtcMicros::from_micros(i64::MIN);
        for id in list_segment_ids(&dir)? {
            next_segment_id = id + 1;
            let seg_path = segment_path(&dir, id);
            let idx_path = index_path(&dir, id);
            let bytes = fs::read(&seg_path)?;
            // Trust a sidecar only when its seal stamp provably describes
            // these segment bytes: a crash in the seal window (or between a
            // compaction's two renames) can leave a sidecar describing bytes
            // that never made it to disk.
            let idx = match fs::read(&idx_path)
                .ok()
                .and_then(|b| SegmentIndex::decode(&b).ok())
                .filter(|i| i.segment_id == id && i.validate_against(&bytes))
            {
                Some(idx) => idx,
                None => {
                    // Crash before seal, or a damaged (v1 and v2 included)
                    // or stale sidecar: scan the segment, truncate any torn
                    // tail, rebuild the index.
                    let scan = match scan_segment(&bytes) {
                        Ok(s) => s,
                        Err(_) => {
                            // Header never made it to disk: nothing in this
                            // file is recoverable.
                            brisk_telemetry::flight_log!(
                                Error,
                                "store.writer",
                                "torn_tail",
                                "segment {id} unreadable (header lost in crash): removed"
                            );
                            fs::remove_file(&seg_path)?;
                            stats.torn_tail_truncations.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    if scan.torn_bytes > 0 {
                        brisk_telemetry::flight_log!(
                            Warn,
                            "store.writer",
                            "torn_tail",
                            "segment {id}: {} torn bytes truncated at offset {} during crash repair",
                            scan.torn_bytes,
                            scan.structural_end
                        );
                        let f = OpenOptions::new().write(true).open(&seg_path)?;
                        f.set_len(scan.structural_end)?;
                        f.sync_all()?;
                        stats.torn_tail_truncations.fetch_add(1, Ordering::Relaxed);
                        stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    let idx = index_of_scan(&scan, scan.structural_end);
                    write_durable(&idx_path, &idx.encode())?;
                    stats.idx_rebuilds.fetch_add(1, Ordering::Relaxed);
                    idx
                }
            };
            last_ts = last_ts.max(idx.max_ts);
            sealed.push(SealedSegment {
                id,
                bytes: fs::metadata(&seg_path)?.len(),
            });
        }
        stats
            .segments_live
            .store(sealed.len() as i64, Ordering::Relaxed);
        Ok(StoreWriter {
            cfg: cfg.clone(),
            dir,
            active: None,
            sealed,
            next_segment_id,
            unpublished_records: 0,
            unpublished_bytes: 0,
            last_sync_ts: last_ts,
            unsynced_since: None,
            last_ts,
            stats,
            scratch: Vec::with_capacity(256),
        })
    }

    /// The directory this writer appends into.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Shared handle to the writer's monotonic totals.
    pub fn stats(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }

    /// Register the store's telemetry series (`brisk_store_*`) with a
    /// metrics registry.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.stats.register(registry, &[]);
    }

    /// Append one record; durability is governed by the fsync policy.
    pub fn append(&mut self, rec: &EventRecord) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        binenc::encode_record(rec, &mut scratch);
        let result = self.append_encoded(rec, &scratch);
        self.scratch = scratch;
        result
    }

    /// Append a record whose `binenc` payload the caller already produced.
    ///
    /// `payload` **must** be `binenc::encode_record(rec)` — the record is
    /// used for zone-map and fsync bookkeeping, the payload is what lands in
    /// the frame. The ISM delivery path encodes each record once for its
    /// memory buffer and hands the same bytes here, so attaching the store
    /// adds framing and a CRC but no second encode.
    pub fn append_encoded(&mut self, rec: &EventRecord, payload: &[u8]) -> Result<()> {
        let frame_len = (payload.len() + crate::segment::FRAME_OVERHEAD) as u64;

        // Rotate before the append that would overflow the segment bound.
        if let Some(active) = &self.active {
            if active.records > 0 && active.bytes + frame_len > self.cfg.segment_bytes {
                self.seal_active()?;
            }
        }
        if self.active.is_none() {
            self.open_segment(rec)?;
        }
        let active = self.active.as_mut().expect("opened above");
        let before = active.pending.len();
        append_frame(payload, &mut active.pending);
        let crc = u32::from_le_bytes(
            active.pending[before + 4..before + 8]
                .try_into()
                .expect("4 bytes"),
        );
        active.last_frame = Some((active.bytes, crc));
        active.bytes += (active.pending.len() - before) as u64;
        active.records += 1;
        active.min_ts = active.min_ts.min(rec.ts);
        active.max_ts = active.max_ts.max(rec.ts);
        active.nodes.insert(rec.node.0);
        active.sensors.insert(rec.sensor.0);
        let pending_len = active.pending.len();
        self.last_ts = self.last_ts.max(rec.ts);
        self.unpublished_records += 1;
        self.unpublished_bytes += frame_len;

        if pending_len >= WRITE_BATCH_BYTES {
            self.write_pending()?;
        }
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(d) => {
                if self.unsynced_since.is_none() {
                    self.unsynced_since = Some(Instant::now());
                }
                let elapsed = rec
                    .ts
                    .as_micros()
                    .saturating_sub(self.last_sync_ts.as_micros());
                if elapsed >= d.as_micros() as i64 {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// `write` the active segment's pending frames to the OS (no fsync).
    /// A failed write drops them, so the buffer stays bounded while a
    /// device fails, and the error returns from this call.
    fn write_pending(&mut self) -> Result<()> {
        if self.unpublished_records > 0 {
            self.stats
                .records
                .fetch_add(self.unpublished_records, Ordering::Relaxed);
            self.stats
                .bytes_written
                .fetch_add(self.unpublished_bytes, Ordering::Relaxed);
            self.unpublished_records = 0;
            self.unpublished_bytes = 0;
        }
        if let Some(active) = &mut self.active {
            let written = active.file.write_all(&active.pending);
            active.pending.clear();
            written?;
        }
        Ok(())
    }

    /// Write the pending frames and `fdatasync` the active segment.
    pub fn sync(&mut self) -> Result<()> {
        self.write_pending()?;
        if let Some(active) = &self.active {
            let start = Instant::now();
            active.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.stats
                .fsync_micros
                .record(start.elapsed().as_micros() as u64);
        }
        self.last_sync_ts = self.last_ts;
        self.unsynced_since = None;
        Ok(())
    }

    /// Under `fsync=interval`, sync once the oldest unsynced append is an
    /// interval old by the wall clock. The append path syncs by stream
    /// time, which stops when the stream does; calling this at
    /// [`Self::sync_due`] (the ISM's loop wakes for it) makes a quiet
    /// stream's tail durable, and visible to tailers, within the interval.
    pub fn sync_if_due(&mut self) -> Result<()> {
        if let (FsyncPolicy::Interval(d), Some(since)) = (self.cfg.fsync, self.unsynced_since) {
            if since.elapsed() >= d {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// When [`Self::sync_if_due`] next syncs: an interval after the oldest
    /// unsynced append, under `fsync=interval`.
    pub fn sync_due(&self) -> Option<Instant> {
        match (self.cfg.fsync, self.unsynced_since) {
            (FsyncPolicy::Interval(d), Some(since)) => Some(since + d),
            _ => None,
        }
    }

    /// Seal the active segment (if any): write pending frames, write the
    /// sidecar, fsync as the policy requires, then apply retention.
    pub fn seal_active(&mut self) -> Result<()> {
        self.write_pending()?;
        let Some(active) = self.active.take() else {
            return Ok(());
        };
        if self.cfg.fsync != FsyncPolicy::Never {
            let start = Instant::now();
            active.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.stats
                .fsync_micros
                .record(start.elapsed().as_micros() as u64);
        }
        let (last_frame_offset, tail_crc) = active.last_frame.unwrap_or((0, 0));
        let idx = SegmentIndex {
            segment_id: active.id,
            record_count: active.records,
            min_ts: active.min_ts,
            max_ts: active.max_ts,
            zone: ZoneMap {
                nodes: active.nodes.iter().copied().collect(),
                sensors: active.sensors,
                seg_len: active.bytes,
                last_frame_offset,
                tail_crc,
            },
        };
        // Durable and atomic: a crash must never leave a half-written
        // sidecar that a later open would trust, and the segment's own
        // data is already synced above, so the sidecar must not be the
        // one thing the page cache still owns.
        write_durable(&index_path(&self.dir, active.id), &idx.encode())?;
        self.sealed.push(SealedSegment {
            id: active.id,
            bytes: active.bytes,
        });
        self.stats
            .segments_live
            .store(self.sealed.len() as i64, Ordering::Relaxed);
        self.apply_retention()?;
        Ok(())
    }

    fn open_segment(&mut self, first: &EventRecord) -> Result<()> {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let header = SegmentHeader {
            segment_id: id,
            base_ts: first.ts,
        };
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.dir, id))?;
        let header_bytes = header.encode(&SegmentBody::Plain);
        file.write_all(&header_bytes)?;
        self.stats.segments_created.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(header_bytes.len() as u64, Ordering::Relaxed);
        self.active = Some(ActiveSegment {
            id,
            file,
            bytes: header_bytes.len() as u64,
            pending: Vec::with_capacity(WRITE_BATCH_BYTES + 1024),
            records: 0,
            min_ts: UtcMicros::MAX,
            max_ts: first.ts,
            nodes: BTreeSet::new(),
            sensors: SensorBloom::new(),
            last_frame: None,
        });
        Ok(())
    }

    /// Evict the oldest sealed segments while the store exceeds the byte
    /// bound. The active segment and the newest sealed one are never
    /// evicted.
    fn apply_retention(&mut self) -> Result<()> {
        let mut evict = 0usize;
        if self.cfg.retain_bytes > 0 {
            let active_bytes = self.active.as_ref().map(|a| a.bytes).unwrap_or(0);
            let mut total: u64 = self.sealed.iter().map(|s| s.bytes).sum::<u64>() + active_bytes;
            while total > self.cfg.retain_bytes && evict < self.sealed.len().saturating_sub(1) {
                total -= self.sealed[evict].bytes;
                evict += 1;
            }
        }
        for seg in self.sealed.drain(..evict) {
            let _ = fs::remove_file(segment_path(&self.dir, seg.id));
            let _ = fs::remove_file(index_path(&self.dir, seg.id));
            self.stats
                .retention_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .segments_live
            .store(self.sealed.len() as i64, Ordering::Relaxed);
        Ok(())
    }
}

impl EventSink for StoreWriter {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.append(rec)
    }

    fn flush(&mut self) -> Result<()> {
        match self.cfg.fsync {
            // Write so flushed frames are visible to readers (tailers poll
            // the file right after a flush) — but no fsync.
            FsyncPolicy::Never => self.write_pending(),
            _ => self.sync(),
        }
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        // Seal so readers get a sidecar and no repair pass is needed
        // after a clean shutdown. Errors are ignored: drop must not panic,
        // and a failed seal degrades to the crash-recovery path.
        let _ = self.seal_active();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::reader::StoreReader;
    use crate::segment::tests::frame_offsets;
    use crate::segment::FRAME_OVERHEAD;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "brisk-store-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rec(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::U64(seq), Value::Str("payload".into())],
        )
        .unwrap()
    }

    fn cfg(dir: &std::path::Path) -> StoreConfig {
        let mut c = StoreConfig::at(dir.to_path_buf());
        c.segment_bytes = 4096;
        c.fsync = FsyncPolicy::Never;
        c
    }

    #[test]
    fn write_reopen_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let cfg = cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 0..500 {
                w.append(&rec(1, i, i as i64 * 100)).unwrap();
            }
        } // drop seals
        let reader = StoreReader::open(&dir).unwrap();
        let (recs, report) = reader.read_all().unwrap();
        assert_eq!(recs.len(), 500);
        assert_eq!(report.torn_tail_truncations, 0);
        assert_eq!(report.corrupt_frames, 0);
        assert!(report.segments > 1, "4 KiB segments must have rotated");
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_writer_continues_segment_ids() {
        let dir = temp_dir("reopen");
        let cfg = cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 0..100 {
                w.append(&rec(2, i, i as i64)).unwrap();
            }
        }
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 100..200 {
                w.append(&rec(2, i, i as i64)).unwrap();
            }
        }
        let reader = StoreReader::open(&dir).unwrap();
        let (recs, _) = reader.read_all().unwrap();
        assert_eq!(recs.len(), 200);
        let ids = reader.segment_ids().unwrap();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(
            ids.len() as u64,
            ids.last().unwrap() + 1 - ids.first().unwrap(),
            "segment ids stay contiguous across reopen"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_repaired_on_reopen() {
        let dir = temp_dir("repair");
        let cfg = cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 0..40 {
                w.append(&rec(1, i, i as i64)).unwrap();
            }
            w.flush().unwrap();
            // Simulate a crash: forget the writer without sealing.
            std::mem::forget(w);
        }
        // Tear the last segment by hand.
        let ids = list_segment_ids(&dir).unwrap();
        let last = segment_path(&dir, *ids.last().unwrap());
        let len = fs::metadata(&last).unwrap().len();
        let f = OpenOptions::new().write(true).open(&last).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let w = StoreWriter::open(&cfg).unwrap();
        assert_eq!(
            w.stats().torn_tail_truncations.load(Ordering::Relaxed),
            1,
            "repair pass must count the torn tail"
        );
        drop(w);
        let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(recs.len(), 39, "every intact record survives");
        assert_eq!(report.torn_tail_truncations, 0, "tail already truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Stale sidecar after a crash in the seal window (satellite bugfix 2):
    /// the sidecar index reached disk but part of the segment's data never
    /// did. Reopen used to trust any sidecar that merely decoded; it must
    /// instead validate the sidecar's seal stamp against the segment bytes,
    /// rebuild the index and truncate the torn tail.
    #[test]
    fn stale_sidecar_is_detected_and_rebuilt_on_reopen() {
        let dir = temp_dir("stale-idx");
        let cfg = cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 0..40 {
                w.append(&rec(1, i, i as i64)).unwrap();
            }
        } // drop seals: segment 0 has a sidecar with a seal stamp
        let ids = list_segment_ids(&dir).unwrap();
        let first = segment_path(&dir, ids[0]);
        // Simulate the crash: the sidecar survived, the tail of the
        // segment's data did not (page cache lost it before the rename).
        let len = fs::metadata(&first).unwrap().len();
        let f = OpenOptions::new().write(true).open(&first).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let w = StoreWriter::open(&cfg).unwrap();
        assert_eq!(
            w.stats().idx_rebuilds.load(Ordering::Relaxed),
            1,
            "stale sidecar must be detected and rebuilt"
        );
        assert_eq!(
            w.stats().torn_tail_truncations.load(Ordering::Relaxed),
            1,
            "the torn tail hiding behind the stale sidecar must be repaired"
        );
        drop(w);
        let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(report.torn_tail_truncations, 0, "repair already done");
        assert!(
            recs.iter().take_while(|r| r.node.0 == 1).count() > 0,
            "intact records before the tear survive"
        );
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `(ordinal, frame offset, timestamp)` of every 64th record of a plain
    /// segment image: the sparse seek index older sidecars carried.
    fn sparse_entries(seg: &[u8]) -> Vec<(u64, u64, UtcMicros)> {
        let offsets = frame_offsets(seg);
        offsets
            .into_iter()
            .enumerate()
            .step_by(64)
            .map(|(i, off)| {
                let (rec, _) = binenc::decode_record(&seg[off + FRAME_OVERHEAD..]).unwrap();
                (i as u64, off as u64, rec.ts)
            })
            .collect()
    }

    /// A sidecar in an older layout, byte for byte: version 1 (time range
    /// and sparse seek index) or version 2 (the same, then zone map and
    /// seal stamp).
    fn legacy_sidecar(
        version: u32,
        idx: &SegmentIndex,
        entries: &[(u64, u64, UtcMicros)],
    ) -> Vec<u8> {
        let mut xdr = brisk_xdr::XdrEncoder::new();
        xdr.uint(version)
            .uhyper(idx.segment_id)
            .uhyper(idx.record_count)
            .hyper(idx.min_ts.as_micros())
            .hyper(idx.max_ts.as_micros())
            .uint(entries.len() as u32);
        for &(ordinal, offset, ts) in entries {
            xdr.uhyper(ordinal).uhyper(offset).hyper(ts.as_micros());
        }
        if version == 2 {
            let zone = &idx.zone;
            xdr.uint(zone.nodes.len() as u32);
            for &n in &zone.nodes {
                xdr.uint(n);
            }
            let bloom: Vec<u8> = zone
                .sensors
                .0
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            xdr.opaque_fixed(&bloom);
            xdr.uhyper(zone.seg_len)
                .uhyper(zone.last_frame_offset)
                .uint(zone.tail_crc);
        }
        xdr.uint(crate::crc::crc32(xdr.as_bytes()));
        [&crate::segment::IDX_MAGIC[..], xdr.as_bytes()].concat()
    }

    /// Sidecars of the older layouts — v1 without a zone map, v2 with a
    /// sparse seek index — no longer decode: reopening a store sealed by an
    /// older writer rebuilds them as v3 sidecars with a zone map.
    #[test]
    fn v1_sidecar_is_backfilled_with_zone_map_on_reopen() {
        for version in [1, 2] {
            let dir = temp_dir("backfill");
            let cfg = cfg(&dir);
            {
                let mut w = StoreWriter::open(&cfg).unwrap();
                for i in 0..40 {
                    w.append(&rec(3, i, i as i64)).unwrap();
                }
            }
            let ids = list_segment_ids(&dir).unwrap();
            let idx_path = index_path(&dir, ids[0]);
            let idx = SegmentIndex::decode(&fs::read(&idx_path).unwrap()).unwrap();
            let seg = fs::read(segment_path(&dir, ids[0])).unwrap();
            let old = legacy_sidecar(version, &idx, &sparse_entries(&seg));
            assert!(
                SegmentIndex::decode(&old).is_err(),
                "v{version} is a damaged sidecar now"
            );
            fs::write(&idx_path, old).unwrap();

            let w = StoreWriter::open(&cfg).unwrap();
            assert!(w.stats().idx_rebuilds.load(Ordering::Relaxed) >= 1);
            drop(w);
            let reloaded = SegmentIndex::decode(&fs::read(&idx_path).unwrap()).unwrap();
            let zone = reloaded.zone;
            assert_eq!(zone.nodes, vec![3]);
            assert!(zone.sensors.may_contain(0));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A store as writers before the v3 sidecar left it, byte for byte:
    /// the segment header lists the nodes `[1, 2]` and the v2 sidecar
    /// carries a sparse seek index. It reads back record for record, and a
    /// writer reopening it rebuilds the sidecar and appends into a new
    /// segment.
    #[test]
    fn store_in_the_v2_sidecar_layout_reads_back_and_reopens() {
        let dir = temp_dir("v2-layout");
        fs::create_dir_all(&dir).unwrap();
        let recs: Vec<EventRecord> = (0..200)
            .map(|i| rec(1 + (i % 2) as u32, i, 1_000 + i as i64))
            .collect();
        let mut xdr = brisk_xdr::XdrEncoder::new();
        xdr.uint(crate::segment::FORMAT_VERSION)
            .uhyper(0)
            .hyper(recs[0].ts.as_micros())
            .uint(2)
            .uint(1)
            .uint(2);
        xdr.uint(crate::crc::crc32(xdr.as_bytes()));
        let mut seg = [&crate::segment::SEG_MAGIC[..], xdr.as_bytes()].concat();
        let mut payload = Vec::new();
        for r in &recs {
            payload.clear();
            binenc::encode_record(r, &mut payload);
            append_frame(&payload, &mut seg);
        }
        let last = *frame_offsets(&seg).last().unwrap();
        let mut sensors = SensorBloom::new();
        sensors.insert(0);
        let idx = SegmentIndex {
            segment_id: 0,
            record_count: recs.len() as u64,
            min_ts: recs[0].ts,
            max_ts: recs[recs.len() - 1].ts,
            zone: ZoneMap {
                nodes: vec![1, 2],
                sensors,
                seg_len: seg.len() as u64,
                last_frame_offset: last as u64,
                tail_crc: u32::from_le_bytes(seg[last + 4..last + 8].try_into().unwrap()),
            },
        };
        fs::write(segment_path(&dir, 0), &seg).unwrap();
        fs::write(
            index_path(&dir, 0),
            legacy_sidecar(2, &idx, &sparse_entries(&seg)),
        )
        .unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        let (all, report) = reader.read_all().unwrap();
        assert_eq!(all, recs);
        assert_eq!(
            (report.corrupt_frames, report.torn_tail_truncations),
            (0, 0)
        );
        let pred = Predicate::all()
            .node(2)
            .since(UtcMicros::from_micros(1_050));
        let (hit, _) = reader.query(&pred).unwrap();
        let expect: Vec<EventRecord> = all.into_iter().filter(|r| pred.matches(r)).collect();
        assert_eq!(hit.records, expect);
        assert_eq!(expect.len(), 75);

        let mut w = StoreWriter::open(&cfg(&dir)).unwrap();
        assert_eq!(w.stats().idx_rebuilds.load(Ordering::Relaxed), 1);
        w.append(&rec(1, 200, 1_200)).unwrap();
        drop(w);
        assert_eq!(list_segment_ids(&dir).unwrap(), vec![0, 1]);
        assert_eq!(
            fs::read(segment_path(&dir, 0)).unwrap(),
            seg,
            "history untouched"
        );
        let (all, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let seqs: Vec<u64> = all.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..=200).collect::<Vec<u64>>());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The sidecar vouches for its segment's length and tail frame, not
    /// for every frame: bit rot in a middle frame of a sealed segment
    /// leaves the sidecar trusted on reopen, and both `read_all` and
    /// `query` CRC-skip exactly that record.
    #[test]
    fn middle_frame_bit_rot_under_a_trusted_sidecar_is_skipped() {
        let dir = temp_dir("rot-under-sidecar");
        let mut cfg = cfg(&dir);
        cfg.segment_bytes = 1 << 20;
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for i in 0..100 {
                w.append(&rec(1, i, i as i64)).unwrap();
            }
        }
        let seg_path = segment_path(&dir, 0);
        let mut seg = fs::read(&seg_path).unwrap();
        let victim = frame_offsets(&seg)[50] + FRAME_OVERHEAD + 3;
        seg[victim] ^= 0x20;
        fs::write(&seg_path, &seg).unwrap();

        let w = StoreWriter::open(&cfg).unwrap();
        assert_eq!(
            w.stats().idx_rebuilds.load(Ordering::Relaxed),
            0,
            "the seal stamp still holds"
        );
        drop(w);
        let reader = StoreReader::open(&dir).unwrap();
        let expect: Vec<u64> = (0..100).filter(|&i| i != 50).collect();
        let (all, report) = reader.read_all().unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), expect);
        let (hit, qr) = reader.query(&Predicate::all().node(1)).unwrap();
        assert_eq!(qr.segments_scanned, 1, "the zone map admits the segment");
        assert_eq!(
            hit.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            expect
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_retention_evicts_oldest() {
        let dir = temp_dir("retention");
        let mut cfg = cfg(&dir);
        cfg.retain_bytes = 12 * 1024;
        let mut w = StoreWriter::open(&cfg).unwrap();
        for i in 0..2000 {
            w.append(&rec(1, i, i as i64 * 10)).unwrap();
        }
        w.seal_active().unwrap();
        assert!(
            w.stats().retention_evictions.load(Ordering::Relaxed) > 0,
            "2000 records cannot fit in 12 KiB of 4 KiB segments"
        );
        let total: u64 = list_segment_ids(&dir)
            .unwrap()
            .iter()
            .map(|&id| fs::metadata(segment_path(&dir, id)).unwrap().len())
            .sum();
        assert!(total <= cfg.retain_bytes + cfg.segment_bytes);
        // Survivors are the newest records, contiguous to the end.
        let (recs, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(recs.last().unwrap().seq, 1999);
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_always_counts_syncs() {
        let dir = temp_dir("always");
        let mut cfg = cfg(&dir);
        cfg.fsync = FsyncPolicy::Always;
        let mut w = StoreWriter::open(&cfg).unwrap();
        for i in 0..10 {
            w.append(&rec(1, i, i as i64)).unwrap();
        }
        assert!(w.stats().fsyncs.load(Ordering::Relaxed) >= 10);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Under `never` and `interval`, the append that carries the pending
    /// frames past the batching threshold has written them when it
    /// returns: the segment file holds every byte appended so far.
    #[test]
    fn threshold_append_is_in_the_file_on_return() {
        let policies = [
            FsyncPolicy::Never,
            FsyncPolicy::Interval(std::time::Duration::from_secs(3600)),
        ];
        for fsync in policies {
            let dir = temp_dir("threshold");
            let mut cfg = cfg(&dir);
            cfg.segment_bytes = 1 << 20;
            cfg.fsync = fsync;
            let mut w = StoreWriter::open(&cfg).unwrap();
            w.append(&rec(1, 0, 1_000)).unwrap();
            let path = segment_path(&dir, 0);
            let mut crossed = false;
            for i in 1..10_000 {
                let active = w.active.as_ref().unwrap();
                let (pending, bytes) = (active.pending.len() as u64, active.bytes);
                w.append(&rec(1, i, 1_000 + i as i64)).unwrap();
                let active = w.active.as_ref().unwrap();
                let on_disk = fs::metadata(&path).unwrap().len();
                assert_eq!(on_disk + active.pending.len() as u64, active.bytes);
                if pending + (active.bytes - bytes) >= WRITE_BATCH_BYTES as u64 {
                    assert_eq!(on_disk, active.bytes, "{fsync:?}: batch not in the file");
                    crossed = true;
                    break;
                }
            }
            assert!(crossed, "{fsync:?}: the threshold was never reached");
            drop(w);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn tailer_follows_rotation() {
        let dir = temp_dir("tail");
        let cfg = cfg(&dir);
        let mut w = StoreWriter::open(&cfg).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let mut tail = reader.tail();
        let mut seen = 0u64;
        for i in 0..600 {
            w.append(&rec(1, i, i as i64)).unwrap();
            if i % 97 == 0 {
                w.flush().unwrap(); // make buffered frames visible
                for r in tail.poll().unwrap() {
                    assert_eq!(r.seq, seen);
                    seen += 1;
                }
            }
        }
        w.flush().unwrap();
        for r in tail.poll().unwrap() {
            assert_eq!(r.seq, seen);
            seen += 1;
        }
        assert_eq!(seen, 600);
        assert_eq!(tail.corrupt_frames(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_binds_store_series() {
        let dir = temp_dir("telemetry");
        let cfg = cfg(&dir);
        let registry = Registry::new();
        let mut w = StoreWriter::open(&cfg).unwrap();
        w.bind_telemetry(&registry);
        for i in 0..100 {
            w.append(&rec(1, i, i as i64)).unwrap();
        }
        w.sync().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_store_records_total"), 100);
        assert!(snap.counter_total("brisk_store_bytes_written_total") > 0);
        assert!(snap.counter_total("brisk_store_fsyncs_total") >= 1);
        let h = snap.histogram("brisk_store_fsync_micros").unwrap();
        assert!(h.count() >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
