//! Reading a store back: segment scanning, CRC validation, torn-tail
//! recovery and live tailing.
//!
//! The scan is deliberately forgiving: a record whose CRC does not match is
//! *reported and skipped* (the length prefix lets the scan resynchronize on
//! the next frame), while a frame that is structurally incomplete — fewer
//! bytes on disk than its length word promises, or a length word that is
//! itself implausible — marks the *torn tail* left by a crash: everything
//! from there to the end of the segment is unrecoverable and is truncated
//! away. Every intact record before the tear is recovered.

use crate::crc::crc32;
use crate::segment::{
    decode_any_header, index_path, parse_segment_file_name, segment_path, SegmentBody,
    SegmentHeader, SegmentIndex, SensorBloom, ZoneMap, FRAME_OVERHEAD, MAX_FRAME_BYTES,
};
use brisk_core::{binenc, BriskError, EventRecord, Result, UtcMicros};
use brisk_telemetry::Registry;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What recovery found while reading a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments visited.
    pub segments: u32,
    /// Intact records recovered.
    pub records: u64,
    /// Torn tails found (at most one per segment): frames cut short by a
    /// crash and truncated away.
    pub torn_tail_truncations: u32,
    /// Bytes discarded as torn tails.
    pub torn_bytes: u64,
    /// Structurally complete frames whose CRC or decode failed; the scan
    /// skipped them and resynchronized on the next frame.
    pub corrupt_frames: u64,
    /// Segments that vanished mid-scan (unlinked by retention between the
    /// directory listing and the read); their records were already gone,
    /// the scan skipped them.
    pub evicted_under_scan: u32,
}

brisk_telemetry::metrics! {
    /// Lock-free counters shared by one reader's scans, published by
    /// [`StoreReader::bind_telemetry`].
    pub struct ReaderStats {
        /// Segments that vanished mid-scan (retention eviction) and were
        /// skipped instead of surfacing an io error.
        pub evicted_under_scan: counter "brisk_store_reader_evicted_under_scan_total" "Segments unlinked by retention mid-scan, skipped by readers",
        /// Segments skipped entirely by zone-map/time-range pruning during
        /// queries.
        pub segments_pruned: counter "brisk_store_segments_pruned_total" "Segments skipped entirely by zone-map/time-range pruning",
        /// Segments decode-scanned for queries.
        pub segments_scanned: counter "brisk_store_segments_scanned_total" "Segments decode-scanned to answer queries",
        /// Queries answered from the shared result cache.
        pub cache_hits: counter "brisk_store_query_cache_hits_total" "Queries answered from the shared result cache",
        /// Queries that had to scan (cache miss or no cache attached).
        pub cache_misses: counter "brisk_store_query_cache_misses_total" "Queries that had to scan segments",
        /// Wall time spent scanning segments per query, in µs.
        pub scan_micros: histogram "brisk_store_query_scan_micros" "Wall time spent scanning segments per query (µs)",
    }
}

/// Full scan result of one segment's bytes.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// The decoded header.
    pub header: SegmentHeader,
    /// Every intact record, in file order.
    pub records: Vec<EventRecord>,
    /// Offset just past the last structurally complete frame; bytes beyond
    /// this are a torn tail.
    pub structural_end: u64,
    /// Torn bytes past `structural_end` (0 when the segment ends cleanly).
    pub torn_bytes: u64,
    /// Complete frames with CRC/decode failures, skipped over.
    pub corrupt_frames: u64,
    /// Offset and stored CRC word of the last structurally complete frame
    /// seen, if any (feeds the sidecar's seal stamp).
    pub last_frame: Option<(u64, u32)>,
}

/// What [`walk_frames`] recovered from a run of frames. Offsets are file
/// offsets, whatever slice of the file the walk was handed.
pub(crate) struct FrameWalk {
    /// Every intact record, in file order.
    pub records: Vec<EventRecord>,
    /// Offset just past the last structurally complete frame.
    pub structural_end: u64,
    /// Complete frames with CRC/decode failures, skipped over.
    pub corrupt_frames: u64,
    /// Offset and stored CRC word of the last structurally complete frame.
    pub last_frame: Option<(u64, u32)>,
}

/// Walk the frames in `bytes`, the part of a segment file that starts at
/// file offset `base` (a frame boundary). Dispatches on the body kind:
/// plain segments decode one binenc record per frame, compacted segments
/// one delta block per frame. Stops at the first frame that is not
/// structurally complete — a torn tail, or an append still in flight.
pub(crate) fn walk_frames(bytes: &[u8], base: u64, body: &SegmentBody) -> FrameWalk {
    let mut walk = FrameWalk {
        records: Vec::new(),
        structural_end: base,
        corrupt_frames: 0,
        last_frame: None,
    };
    let mut off = 0usize;
    loop {
        let remaining = bytes.len() - off;
        if remaining < FRAME_OVERHEAD {
            // Clean end, or a frame header cut short by a crash.
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_BYTES || (len as usize) > remaining - FRAME_OVERHEAD {
            // Either a torn tail (length word promises more bytes than the
            // file holds) or corruption of the length word itself; in both
            // cases the frame stream is unrecoverable from here on.
            break;
        }
        let payload = &bytes[off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len as usize];
        let frame_off = base + off as u64;
        off += FRAME_OVERHEAD + len as usize;
        walk.structural_end = base + off as u64;
        walk.last_frame = Some((frame_off, crc));
        if crc32(payload) != crc {
            walk.corrupt_frames += 1;
            continue;
        }
        match body {
            SegmentBody::Plain => match binenc::decode_record(payload) {
                Ok((rec, used)) if used == payload.len() => walk.records.push(rec),
                _ => walk.corrupt_frames += 1,
            },
            SegmentBody::Compact(dict) => match crate::compact::decode_block(payload, dict) {
                Ok(recs) => walk.records.extend(recs),
                Err(_) => walk.corrupt_frames += 1,
            },
        }
    }
    walk
}

/// Scan a whole segment image: its header, then every frame.
pub(crate) fn scan_segment(bytes: &[u8]) -> Result<SegmentScan> {
    let (header, body, off) = decode_any_header(bytes)?;
    let walk = walk_frames(&bytes[off..], off as u64, &body);
    Ok(SegmentScan {
        header,
        records: walk.records,
        torn_bytes: bytes.len() as u64 - walk.structural_end,
        structural_end: walk.structural_end,
        corrupt_frames: walk.corrupt_frames,
        last_frame: walk.last_frame,
    })
}

/// Build the sidecar of a scanned segment (used when repairing a crashed
/// store and after compaction). `seg_len` is the segment file's byte
/// length the sidecar will describe — the seal stamp that later lets
/// readers detect a sidecar gone stale.
pub(crate) fn index_of_scan(scan: &SegmentScan, seg_len: u64) -> SegmentIndex {
    let mut min_ts = UtcMicros::MAX;
    let mut max_ts = UtcMicros::from_micros(i64::MIN);
    let mut nodes = std::collections::BTreeSet::new();
    let mut sensors = SensorBloom::new();
    for rec in &scan.records {
        min_ts = min_ts.min(rec.ts);
        max_ts = max_ts.max(rec.ts);
        nodes.insert(rec.node.0);
        sensors.insert(rec.sensor.0);
    }
    if scan.records.is_empty() {
        min_ts = scan.header.base_ts;
        max_ts = scan.header.base_ts;
    }
    let (last_frame_offset, tail_crc) = scan.last_frame.unwrap_or((0, 0));
    SegmentIndex {
        segment_id: scan.header.segment_id,
        record_count: scan.records.len() as u64,
        min_ts,
        max_ts,
        zone: ZoneMap {
            nodes: nodes.into_iter().collect(),
            sensors,
            seg_len,
            last_frame_offset,
            tail_crc,
        },
    }
}

/// List the segment ids present under `dir`, ascending.
pub(crate) fn list_segment_ids(dir: &Path) -> Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(id) = parse_segment_file_name(name) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Read-side handle on a store directory.
///
/// A `StoreReader` never writes: torn tails are *reported* (and their
/// records excluded) but the files are left untouched — repairing the
/// store on disk is the writer's job when it reopens the directory.
pub struct StoreReader {
    pub(crate) dir: PathBuf,
    pub(crate) stats: Arc<ReaderStats>,
    pub(crate) cache: Option<Arc<crate::cache::QueryCache>>,
}

impl StoreReader {
    /// Open a store directory for reading.
    pub fn open(dir: impl Into<PathBuf>) -> Result<StoreReader> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(BriskError::Config(format!(
                "store directory {} does not exist",
                dir.display()
            )));
        }
        Ok(StoreReader {
            dir,
            stats: Arc::new(ReaderStats::default()),
            cache: None,
        })
    }

    /// Attach a shared query-result cache (see [`crate::QueryCache`]):
    /// identical queries over an unchanged segment set are answered
    /// without a scan. Multiple readers may share one cache.
    pub fn with_cache(mut self, cache: Arc<crate::cache::QueryCache>) -> StoreReader {
        self.cache = Some(cache);
        self
    }

    /// The directory this reader scans.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This reader's scan counters.
    pub fn stats(&self) -> Arc<ReaderStats> {
        Arc::clone(&self.stats)
    }

    /// Register the reader's counters and the query scan-latency
    /// histogram on `registry`.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.stats.register(registry, &[]);
    }

    /// Segment ids currently present, ascending.
    pub fn segment_ids(&self) -> Result<Vec<u64>> {
        list_segment_ids(&self.dir)
    }

    /// Load the sidecar index of a segment, if present and intact.
    pub fn load_index(&self, id: u64) -> Option<SegmentIndex> {
        let bytes = fs::read(index_path(&self.dir, id)).ok()?;
        SegmentIndex::decode(&bytes)
            .ok()
            .filter(|i| i.segment_id == id)
    }

    /// Read every intact record in the store, oldest segment first.
    pub fn read_all(&self) -> Result<(Vec<EventRecord>, RecoveryReport)> {
        let mut out = Vec::new();
        let mut report = RecoveryReport::default();
        for id in self.segment_ids()? {
            // Retention may unlink a sealed segment between the directory
            // listing above and this read: that is not an error, those
            // records were evicted — skip and count.
            let bytes = match fs::read(segment_path(&self.dir, id)) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.evicted_under_scan += 1;
                    self.stats
                        .evicted_under_scan
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let scan = match scan_segment(&bytes) {
                Ok(s) => s,
                Err(_) if !out.is_empty() || report.segments > 0 => {
                    // An unreadable header mid-store: count the whole file
                    // as torn and keep whatever earlier segments held.
                    report.segments += 1;
                    report.torn_tail_truncations += 1;
                    report.torn_bytes += bytes.len() as u64;
                    continue;
                }
                Err(e) => return Err(e),
            };
            report.segments += 1;
            report.corrupt_frames += scan.corrupt_frames;
            if scan.torn_bytes > 0 {
                report.torn_tail_truncations += 1;
                report.torn_bytes += scan.torn_bytes;
            }
            report.records += scan.records.len() as u64;
            out.extend(scan.records);
        }
        Ok((out, report))
    }

    /// A cursor that follows the store as the writer appends: repeated
    /// [`StoreTailer::poll`] calls return newly durable records, crossing
    /// segment rotations automatically.
    pub fn tail(&self) -> StoreTailer {
        StoreTailer {
            dir: self.dir.clone(),
            current: None,
            corrupt_frames: 0,
            bytes_read: 0,
        }
    }
}

/// Live-tail cursor over a store directory (see [`StoreReader::tail`]).
pub struct StoreTailer {
    dir: PathBuf,
    /// The segment being tailed; `None` before the first one is found.
    current: Option<TailCursor>,
    corrupt_frames: u64,
    bytes_read: u64,
}

/// Where the tailer stands in one segment.
struct TailCursor {
    id: u64,
    /// Next unread file offset (a frame boundary).
    offset: u64,
    /// The body kind decoded with the header on first touch; `None` until
    /// the header is fully on disk.
    body: Option<SegmentBody>,
}

impl TailCursor {
    fn at_start_of(id: u64) -> TailCursor {
        TailCursor {
            id,
            offset: 0,
            body: None,
        }
    }
}

impl StoreTailer {
    /// Frames skipped over CRC/decode failures so far.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// Bytes read from segment files so far. A poll reads only what was
    /// appended since the previous one, so over a segment's life this
    /// stays near its length however often it is polled.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Return all records that became visible since the last poll. An empty
    /// result means no complete frame is available right now; the caller
    /// decides how to pace retries.
    ///
    /// A frame that is only partially on disk is *not* an error while the
    /// segment is still the newest one — the writer may simply be mid-append
    /// — but once a newer segment exists the partial frame is abandoned as
    /// a torn tail and the cursor moves on.
    pub fn poll(&mut self) -> Result<Vec<EventRecord>> {
        let mut out = Vec::new();
        loop {
            let ids = list_segment_ids(&self.dir)?;
            let Some(&first) = ids.first() else {
                return Ok(out); // store is still empty
            };
            let cur = self
                .current
                .get_or_insert_with(|| TailCursor::at_start_of(first));
            let next = ids.iter().copied().find(|&i| i > cur.id);
            // Only what was appended since the last poll: `[offset, EOF)`.
            let bytes = match read_tail(&segment_path(&self.dir, cur.id), cur.offset) {
                Ok(b) => b,
                // Evicted by retention while we were behind: skip forward.
                // Any other failure is an error, as in `read_all`.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => match next {
                    Some(next) => {
                        *cur = TailCursor::at_start_of(next);
                        continue;
                    }
                    None => return Ok(out),
                },
                Err(e) => return Err(e.into()),
            };
            self.bytes_read += bytes.len() as u64;
            let mut frames = &bytes[..];
            if cur.body.is_none() {
                // First touch: `bytes` starts at 0. A header that is not
                // fully written yet leaves the cursor there for a retry.
                if let Ok((_, body, end)) = decode_any_header(&bytes) {
                    cur.body = Some(body);
                    cur.offset = end as u64;
                    frames = &bytes[end..];
                }
            }
            if let Some(body) = &cur.body {
                let walk = walk_frames(frames, cur.offset, body);
                self.corrupt_frames += walk.corrupt_frames;
                out.extend(walk.records);
                cur.offset = walk.structural_end;
            }
            match next {
                // Current segment is sealed: any partial tail is torn for
                // good, move to the next segment and keep polling.
                Some(next) => *cur = TailCursor::at_start_of(next),
                None => return Ok(out),
            }
        }
    }
}

/// Read a file from `offset` to its end.
fn read_tail(path: &Path, offset: u64) -> std::io::Result<Vec<u8>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = fs::File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::append_frame;
    use crate::segment::tests::frame_offsets;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};

    fn rec(seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    fn segment_image(id: u64, recs: &[EventRecord]) -> Vec<u8> {
        let header = SegmentHeader {
            segment_id: id,
            base_ts: recs.first().map(|r| r.ts).unwrap_or(UtcMicros::ZERO),
        };
        let mut bytes = header.encode(&SegmentBody::Plain);
        let mut payload = Vec::new();
        for r in recs {
            payload.clear();
            binenc::encode_record(r, &mut payload);
            append_frame(&payload, &mut bytes);
        }
        bytes
    }

    #[test]
    fn scan_recovers_all_records() {
        let recs: Vec<_> = (0..50).map(|i| rec(i, i as i64 * 10)).collect();
        let bytes = segment_image(3, &recs);
        let scan = scan_segment(&bytes).unwrap();
        assert_eq!(scan.records.len(), 50);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.corrupt_frames, 0);
        assert_eq!(scan.structural_end, bytes.len() as u64);
    }

    #[test]
    fn torn_tail_is_detected_not_fatal() {
        let recs: Vec<_> = (0..10).map(|i| rec(i, i as i64)).collect();
        let mut bytes = segment_image(0, &recs);
        // Tear the last frame: drop its final 5 bytes.
        let full = bytes.len();
        bytes.truncate(full - 5);
        let scan = scan_segment(&bytes).unwrap();
        assert_eq!(scan.records.len(), 9, "all records before the tear");
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn corrupt_frame_is_skipped_rest_recovered() {
        let recs: Vec<_> = (0..10).map(|i| rec(i, i as i64)).collect();
        let mut bytes = segment_image(0, &recs);
        // Flip a byte inside record 4's payload.
        let target = frame_offsets(&bytes)[4] + FRAME_OVERHEAD + 3;
        bytes[target] ^= 0xFF;
        let scan = scan_segment(&bytes).unwrap();
        assert_eq!(scan.corrupt_frames, 1);
        assert_eq!(scan.records.len(), 9);
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "brisk-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seqs(recs: &[EventRecord]) -> Vec<u64> {
        recs.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn idle_polls_do_not_reread_the_segment() {
        // 2 MiB lands in two appends, then the store goes quiet while the
        // tailer keeps polling at its usual cadence.
        let recs: Vec<_> = (0..60_000).map(|i| rec(i, i as i64)).collect();
        let image = segment_image(0, &recs);
        assert!(image.len() > 2 << 20);
        let half = frame_offsets(&image)[30_000];
        let dir = fresh_dir("tail-idle");
        let path = segment_path(&dir, 0);
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        fs::write(&path, &image[..half]).unwrap();
        assert_eq!(tail.poll().unwrap().len(), 30_000);
        fs::write(&path, &image).unwrap();
        assert_eq!(tail.poll().unwrap().len(), 30_000);
        for _ in 0..200 {
            assert!(tail.poll().unwrap().is_empty());
        }
        assert!(
            tail.bytes_read() <= image.len() as u64 + (64 << 10),
            "{} bytes read to tail a {}-byte segment",
            tail.bytes_read(),
            image.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_crosses_a_rotation_that_lands_between_polls() {
        let first: Vec<_> = (0..100).map(|i| rec(i, i as i64)).collect();
        let second: Vec<_> = (100..150).map(|i| rec(i, i as i64)).collect();
        let image = segment_image(0, &first);
        // The first poll sees 60 whole frames and a slice of the 61st: an
        // append in flight, not a torn tail.
        let cut = frame_offsets(&image)[60] + 5;
        let dir = fresh_dir("tail-rotate");
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        assert!(tail.poll().unwrap().is_empty(), "empty store");
        fs::write(segment_path(&dir, 0), &image[..cut]).unwrap();
        assert_eq!(seqs(&tail.poll().unwrap()), (0..60).collect::<Vec<_>>());
        // The writer finishes the segment and rotates before the next poll.
        fs::write(segment_path(&dir, 0), &image).unwrap();
        fs::write(segment_path(&dir, 1), segment_image(1, &second)).unwrap();
        assert_eq!(seqs(&tail.poll().unwrap()), (60..150).collect::<Vec<_>>());
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.corrupt_frames(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_is_abandoned_once_the_segment_is_sealed() {
        let recs: Vec<_> = (0..10).map(|i| rec(i, i as i64)).collect();
        let mut torn = segment_image(0, &recs);
        torn.truncate(torn.len() - 5);
        let dir = fresh_dir("tail-torn");
        fs::write(segment_path(&dir, 0), &torn).unwrap();
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        // While segment 0 is the newest the partial frame may yet complete.
        assert_eq!(seqs(&tail.poll().unwrap()), (0..9).collect::<Vec<_>>());
        assert!(tail.poll().unwrap().is_empty());
        // A successor appears (the writer crashed and reopened): the torn
        // frame is lost for good and the cursor moves on.
        let next: Vec<_> = (20..25).map(|i| rec(i, i as i64)).collect();
        fs::write(segment_path(&dir, 1), segment_image(1, &next)).unwrap();
        assert_eq!(seqs(&tail.poll().unwrap()), (20..25).collect::<Vec<_>>());
        assert_eq!(tail.corrupt_frames(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The tailer tells eviction from damage the way `read_all` and
    /// `query` do: a segment that vanished (`NotFound`) is skipped, but a
    /// segment it cannot read is an error, not a silent skip past its
    /// records.
    #[cfg(unix)]
    #[test]
    fn tail_skips_an_evicted_segment_but_fails_on_an_unreadable_one() {
        let next: Vec<_> = (20..25).map(|i| rec(i, i as i64)).collect();
        let dir = fresh_dir("tail-unreadable");
        fs::create_dir(segment_path(&dir, 0)).unwrap();
        fs::write(segment_path(&dir, 1), segment_image(1, &next)).unwrap();
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        assert!(tail.poll().is_err(), "segment 0 is unreadable, not evicted");
        fs::remove_dir_all(&dir).ok();

        let dir = fresh_dir("tail-evicted");
        std::os::unix::fs::symlink(dir.join("nonexistent-target"), segment_path(&dir, 0)).unwrap();
        fs::write(segment_path(&dir, 1), segment_image(1, &next)).unwrap();
        let mut tail = StoreReader::open(&dir).unwrap().tail();
        assert_eq!(seqs(&tail.poll().unwrap()), (20..25).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).ok();
    }

    /// Write a store directory containing `segments`, each with a sidecar
    /// built from its scan, as a sealed store would have.
    fn write_indexed_store(segments: &[(u64, Vec<EventRecord>)]) -> PathBuf {
        let dir = fresh_dir("reader");
        for (id, recs) in segments {
            let bytes = segment_image(*id, recs);
            fs::write(segment_path(&dir, *id), &bytes).unwrap();
            let idx = index_of_scan(&scan_segment(&bytes).unwrap(), bytes.len() as u64);
            fs::write(index_path(&dir, *id), idx.encode()).unwrap();
        }
        dir
    }

    /// Retention eviction racing a live scan (satellite bugfix 1): the
    /// directory listing returns a segment that is unlinked before the
    /// reader gets to `fs::read` it. A dangling symlink reproduces that
    /// window deterministically — `read_dir` lists it, the read fails with
    /// `NotFound` — exactly what a concurrent eviction produces. The reader
    /// must skip it, count it, and return every surviving record instead of
    /// surfacing a raw io error.
    #[cfg(unix)]
    #[test]
    fn eviction_under_scan_is_skipped_not_fatal() {
        let recs: Vec<_> = (0..10).map(|i| rec(i, i as i64)).collect();
        let dir = write_indexed_store(&[(0, recs)]);
        std::os::unix::fs::symlink(dir.join("nonexistent-target"), segment_path(&dir, 1)).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let (got, report) = reader.read_all().unwrap();
        assert_eq!(got.len(), 10, "surviving segment fully recovered");
        assert_eq!(report.evicted_under_scan, 1);
        assert_eq!(
            reader.stats().evicted_under_scan.load(Ordering::Relaxed),
            1,
            "eviction race must be counted for telemetry"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_of_scan_covers_range() {
        let recs: Vec<_> = (0..130).map(|i| rec(i, 1000 + i as i64)).collect();
        let bytes = segment_image(7, &recs);
        let scan = scan_segment(&bytes).unwrap();
        let idx = index_of_scan(&scan, bytes.len() as u64);
        assert_eq!(idx.record_count, 130);
        assert_eq!(idx.min_ts, UtcMicros::from_micros(1000));
        assert_eq!(idx.max_ts, UtcMicros::from_micros(1129));
    }
}
