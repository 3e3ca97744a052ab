//! Compacted segment format and the background compactor.
//!
//! The transfer protocol compresses each record's meta-information header
//! on the wire; compaction applies the same idea *at rest*. A cold sealed
//! segment is rewritten as a format-version-2 segment file:
//!
//! * the header carries a [`DescriptorDict`] of the distinct record
//!   shapes `(node, sensor, event type, descriptor)` in the segment;
//! * each CRC frame holds a *block* of records (not one record), encoded
//!   as varint deltas against per-shape state that resets at every block
//!   boundary, so a corrupt block loses only itself and the frame stream
//!   resynchronizes exactly as it does for plain segments.
//!
//! Block payload layout (all varints are LEB128; `zz` is zigzag):
//!
//! ```text
//! varint record_count
//! record* {
//!   varint shape id                  (dictionary reference)
//!   varint zz(seq  - prev seq of this shape)      (init 0)
//!   varint zz(ts   - prev record ts in block)     (init 0)
//!   field*                           (types from the shape's descriptor)
//! }
//! ```
//!
//! Field encodings, each against the previous value of the *same field of
//! the same shape* within the block (integers start at 0, blobs empty):
//!
//! * integer-like (`I8..U64`, `Bool`, `Ts`, `Reason`, `Conseq`) —
//!   `varint zz(delta)` in 64-bit two's complement;
//! * floats — `varint (bits ^ prev bits)`, XOR of the IEEE-754 bit
//!   patterns (bit-exact round-trip, tiny varints for repeated values);
//! * `Str` / `Bytes` / `Trace` — `varint 0` when identical to the
//!   previous value, else `varint (len + 1)` followed by the raw bytes
//!   (for `Trace`, its native binary encoding).
//!
//! Slowly-varying telemetry — the common cold-trace shape — lands around
//! one byte per header field and one or two per payload field, versus the
//! plain format's 28-byte header + packed descriptor + fixed-width
//! payloads + an 8-byte frame per record.

use crate::reader::{index_of_scan, list_segment_ids, scan_segment};
use crate::segment::{
    append_frame, decode_any_header, index_path, segment_path, SegmentBody, SegmentHeader,
};
use crate::writer::write_durable;
use brisk_core::{
    BriskError, CorrelationId, EventRecord, EventTypeId, NodeId, Result, SensorId, TraceContext,
    UtcMicros, Value, ValueType,
};
use brisk_proto::{DescriptorDict, DictKey};
use brisk_telemetry::Registry;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Records per block frame. Large enough to amortize the frame header and
/// give deltas a long run, small enough that one corrupt block stays a
/// small loss.
pub const DEFAULT_BLOCK_RECORDS: usize = 512;

/// Decode-side cap on a block's declared record count (a block is at most
/// one frame, and a frame is capped, but the count varint is read before
/// the records are).
const MAX_BLOCK_RECORDS: usize = 1 << 20;

/// Cap on a varint-length-prefixed blob inside a block.
const MAX_BLOB_BYTES: u64 = 1 << 24;

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or_else(|| BriskError::Codec("truncated varint in block".into()))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(BriskError::Codec("varint overflow in block".into()));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Map an integer-like value onto the 64-bit two's-complement delta
/// domain.
fn int_bits(v: &Value) -> Option<u64> {
    Some(match *v {
        Value::I8(x) => x as i64 as u64,
        Value::U8(x) => x as u64,
        Value::I16(x) => x as i64 as u64,
        Value::U16(x) => x as u64,
        Value::I32(x) => x as i64 as u64,
        Value::U32(x) => x as u64,
        Value::I64(x) => x as u64,
        Value::U64(x) => x,
        Value::Bool(x) => x as u64,
        Value::Ts(t) => t.as_micros() as u64,
        Value::Reason(c) => c.0,
        Value::Conseq(c) => c.0,
        _ => return None,
    })
}

/// Inverse of [`int_bits`] for `ty`. Fails when the bits do not fit the
/// type (possible only on corrupt input).
fn value_from_bits(ty: ValueType, bits: u64) -> Result<Value> {
    let narrow = |what: &str| BriskError::Codec(format!("compact block: {what} out of range"));
    Ok(match ty {
        ValueType::I8 => Value::I8(i8::try_from(bits as i64).map_err(|_| narrow("i8"))?),
        ValueType::U8 => Value::U8(u8::try_from(bits).map_err(|_| narrow("u8"))?),
        ValueType::I16 => Value::I16(i16::try_from(bits as i64).map_err(|_| narrow("i16"))?),
        ValueType::U16 => Value::U16(u16::try_from(bits).map_err(|_| narrow("u16"))?),
        ValueType::I32 => Value::I32(i32::try_from(bits as i64).map_err(|_| narrow("i32"))?),
        ValueType::U32 => Value::U32(u32::try_from(bits).map_err(|_| narrow("u32"))?),
        ValueType::I64 => Value::I64(bits as i64),
        ValueType::U64 => Value::U64(bits),
        ValueType::Bool => match bits {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            _ => return Err(narrow("bool")),
        },
        ValueType::Ts => Value::Ts(UtcMicros::from_micros(bits as i64)),
        ValueType::Reason => Value::Reason(CorrelationId(bits)),
        ValueType::Conseq => Value::Conseq(CorrelationId(bits)),
        _ => return Err(BriskError::Codec("not an integer-like type".into())),
    })
}

/// Per-field delta state within a block.
#[derive(Clone)]
enum PrevField {
    Num(u64),
    Blob(Vec<u8>),
}

/// Per-shape delta state within a block.
#[derive(Clone)]
struct ShapeState {
    seq: u64,
    fields: Vec<PrevField>,
}

fn fresh_state(key: &DictKey) -> ShapeState {
    ShapeState {
        seq: 0,
        fields: key
            .descriptor
            .types()
            .iter()
            .map(|t| match t {
                ValueType::Str | ValueType::Bytes | ValueType::Trace => PrevField::Blob(Vec::new()),
                _ => PrevField::Num(0),
            })
            .collect(),
    }
}

/// Encode one block of records, interning shapes into `dict`.
pub fn encode_block(records: &[EventRecord], dict: &mut DescriptorDict) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(records.len() * 8);
    put_varint(records.len() as u64, &mut out);
    let mut states: Vec<Option<ShapeState>> = Vec::new();
    let mut prev_ts = 0i64;
    let mut scratch = Vec::new();
    for rec in records {
        let shape = dict.intern_record(rec)?;
        put_varint(shape as u64, &mut out);
        if states.len() <= shape as usize {
            states.resize(dict.len(), None);
        }
        let key = dict
            .get(shape)
            .ok_or_else(|| BriskError::Codec("dictionary lost a shape".into()))?
            .clone();
        let state = states[shape as usize].get_or_insert_with(|| fresh_state(&key));
        put_varint(zigzag(rec.seq.wrapping_sub(state.seq) as i64), &mut out);
        state.seq = rec.seq;
        let ts = rec.ts.as_micros();
        put_varint(zigzag(ts.wrapping_sub(prev_ts)), &mut out);
        prev_ts = ts;
        for (value, prev) in rec.fields.iter().zip(state.fields.iter_mut()) {
            match value {
                Value::F32(x) => {
                    let bits = x.to_bits() as u64;
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    put_varint(bits ^ *p, &mut out);
                    *p = bits;
                }
                Value::F64(x) => {
                    let bits = x.to_bits();
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    put_varint(bits ^ *p, &mut out);
                    *p = bits;
                }
                Value::Str(s) => encode_blob(s.as_bytes(), prev, &mut out)?,
                Value::Bytes(b) => encode_blob(b, prev, &mut out)?,
                Value::Trace(ctx) => {
                    scratch.clear();
                    ctx.encode_into(&mut scratch);
                    encode_blob(&scratch, prev, &mut out)?;
                }
                v => {
                    let bits = int_bits(v)
                        .ok_or_else(|| BriskError::Codec("unexpected field type".into()))?;
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    put_varint(zigzag(bits.wrapping_sub(*p) as i64), &mut out);
                    *p = bits;
                }
            }
        }
    }
    Ok(out)
}

fn encode_blob(bytes: &[u8], prev: &mut PrevField, out: &mut Vec<u8>) -> Result<()> {
    let PrevField::Blob(p) = prev else {
        return Err(BriskError::Codec("field state mismatch".into()));
    };
    if bytes == p.as_slice() {
        put_varint(0, out);
    } else {
        put_varint(bytes.len() as u64 + 1, out);
        out.extend_from_slice(bytes);
        p.clear();
        p.extend_from_slice(bytes);
    }
    Ok(())
}

/// Decode a block payload against the segment's dictionary.
pub fn decode_block(payload: &[u8], dict: &DescriptorDict) -> Result<Vec<EventRecord>> {
    let mut pos = 0usize;
    let count = get_varint(payload, &mut pos)? as usize;
    if count > MAX_BLOCK_RECORDS {
        return Err(BriskError::Codec(format!(
            "absurd block record count {count}"
        )));
    }
    let mut records = Vec::with_capacity(count.min(4096));
    let mut states: Vec<Option<ShapeState>> = vec![None; dict.len()];
    let mut prev_ts = 0i64;
    for _ in 0..count {
        let shape = get_varint(payload, &mut pos)?;
        let key = dict
            .get(u32::try_from(shape).unwrap_or(u32::MAX))
            .ok_or_else(|| BriskError::Codec(format!("unknown shape id {shape}")))?;
        let state = states
            .get_mut(shape as usize)
            .ok_or_else(|| BriskError::Codec("shape id out of range".into()))?
            .get_or_insert_with(|| fresh_state(key));
        let dseq = unzigzag(get_varint(payload, &mut pos)?);
        let seq = state.seq.wrapping_add(dseq as u64);
        state.seq = seq;
        let dts = unzigzag(get_varint(payload, &mut pos)?);
        let ts = prev_ts.wrapping_add(dts);
        prev_ts = ts;
        let types = key.descriptor.types().to_vec();
        let mut fields = Vec::with_capacity(types.len());
        for (i, ty) in types.iter().enumerate() {
            let prev = state
                .fields
                .get_mut(i)
                .ok_or_else(|| BriskError::Codec("field state missing".into()))?;
            let value = match ty {
                ValueType::F32 => {
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    let bits = (get_varint(payload, &mut pos)? ^ *p) & 0xFFFF_FFFF;
                    *p = bits;
                    Value::F32(f32::from_bits(bits as u32))
                }
                ValueType::F64 => {
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    let bits = get_varint(payload, &mut pos)? ^ *p;
                    *p = bits;
                    Value::F64(f64::from_bits(bits))
                }
                ValueType::Str => {
                    let bytes = decode_blob(payload, &mut pos, prev)?;
                    Value::Str(
                        String::from_utf8(bytes)
                            .map_err(|_| BriskError::Codec("invalid UTF-8 in block".into()))?,
                    )
                }
                ValueType::Bytes => Value::Bytes(decode_blob(payload, &mut pos, prev)?),
                ValueType::Trace => {
                    let bytes = decode_blob(payload, &mut pos, prev)?;
                    let (ctx, used) = TraceContext::decode(&bytes)?;
                    if used != bytes.len() {
                        return Err(BriskError::Codec("trailing trace bytes in block".into()));
                    }
                    Value::Trace(ctx)
                }
                ty => {
                    let PrevField::Num(p) = prev else {
                        return Err(BriskError::Codec("field state mismatch".into()));
                    };
                    let delta = unzigzag(get_varint(payload, &mut pos)?);
                    let bits = p.wrapping_add(delta as u64);
                    *p = bits;
                    value_from_bits(*ty, bits)?
                }
            };
            fields.push(value);
        }
        records.push(EventRecord {
            node: NodeId(key.node),
            sensor: SensorId(key.sensor),
            event_type: EventTypeId(key.event_type),
            seq,
            ts: UtcMicros::from_micros(ts),
            fields,
        });
    }
    if pos != payload.len() {
        return Err(BriskError::Codec("trailing bytes after block".into()));
    }
    Ok(records)
}

fn decode_blob(payload: &[u8], pos: &mut usize, prev: &mut PrevField) -> Result<Vec<u8>> {
    let PrevField::Blob(p) = prev else {
        return Err(BriskError::Codec("field state mismatch".into()));
    };
    let tag = get_varint(payload, pos)?;
    if tag == 0 {
        return Ok(p.clone());
    }
    let len = tag - 1;
    if len > MAX_BLOB_BYTES {
        return Err(BriskError::Codec(format!("absurd blob length {len}")));
    }
    let len = len as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= payload.len())
        .ok_or_else(|| BriskError::Codec("truncated blob in block".into()))?;
    let bytes = payload[*pos..end].to_vec();
    *pos = end;
    p.clear();
    p.extend_from_slice(&bytes);
    Ok(bytes)
}

/// Build a complete compacted segment image (header + block frames) for
/// `records`, which must be the full intact record stream of the segment
/// `header` describes, in file order.
pub fn build_compact_image(
    header: &SegmentHeader,
    records: &[EventRecord],
    block_records: usize,
) -> Result<Vec<u8>> {
    let block_records = block_records.max(1);
    let mut dict = DescriptorDict::new();
    let mut blocks = Vec::new();
    for chunk in records.chunks(block_records) {
        blocks.push(encode_block(chunk, &mut dict)?);
    }
    let mut out = header.encode(&SegmentBody::Compact(dict));
    for block in &blocks {
        append_frame(block, &mut out);
    }
    Ok(out)
}

/// Compaction tuning knobs.
#[derive(Clone, Debug)]
pub struct CompactConfig {
    /// Newest sealed segments to leave untouched — they may still be read
    /// hot (tailers, recent-window queries) and retention reaps oldest
    /// first, so compacting them would be wasted work.
    pub keep_hot: usize,
    /// Records per block frame.
    pub block_records: usize,
}

impl Default for CompactConfig {
    fn default() -> CompactConfig {
        CompactConfig {
            keep_hot: 2,
            block_records: DEFAULT_BLOCK_RECORDS,
        }
    }
}

brisk_telemetry::metrics! {
    /// Lock-free counters describing compactor activity.
    pub struct CompactStats {
        /// Segments rewritten in the compacted format.
        pub segments_compacted: counter "brisk_store_compactions_total" "Cold sealed segments rewritten in the compacted format",
        /// Records carried through compaction.
        pub records_compacted: counter "brisk_store_compacted_records_total" "Records carried through compaction",
        /// Sum of segment byte sizes before compaction.
        pub bytes_before: counter "brisk_store_compaction_bytes_before_total" "Byte size of compacted segments before rewriting",
        /// Sum of segment byte sizes after compaction.
        pub bytes_after: counter "brisk_store_compaction_bytes_after_total" "Byte size of compacted segments after rewriting",
        /// Eligible segments skipped (torn/corrupt frames, no win, raced with
        /// retention, already compacted).
        pub segments_skipped: counter "brisk_store_compaction_skipped_total" "Eligible segments left alone (damaged, empty, or no win)",
    }
}

/// What one compaction sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments rewritten this sweep.
    pub compacted: u32,
    /// Segments examined but left alone.
    pub skipped: u32,
    /// Byte size of rewritten segments before.
    pub bytes_before: u64,
    /// Byte size of rewritten segments after.
    pub bytes_after: u64,
}

/// Rewrites cold sealed segments in the compacted format, in place
/// (atomic rename), leaving readers none the wiser.
///
/// Safe to run while a [`crate::StoreWriter`] appends to the same
/// directory: only sealed segments older than the `keep_hot` window are
/// touched, the segment file is swapped with `rename(2)`, and the sidecar
/// is rewritten *after* the swap — a reader that loads the sidecar in the
/// window between the two sees a seal stamp that no longer matches the
/// file and falls back to a full scan (see `SegmentIndex::validate_against`).
pub struct Compactor {
    dir: PathBuf,
    cfg: CompactConfig,
    stats: Arc<CompactStats>,
}

impl Compactor {
    /// A compactor over `dir`.
    pub fn new(dir: impl Into<PathBuf>, cfg: CompactConfig) -> Compactor {
        Compactor {
            dir: dir.into(),
            cfg,
            stats: Arc::new(CompactStats::default()),
        }
    }

    /// Shared activity counters.
    pub fn stats(&self) -> Arc<CompactStats> {
        Arc::clone(&self.stats)
    }

    /// Register compaction counters on `registry`.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.stats.register(registry, &[]);
    }

    /// One sweep: examine every eligible cold sealed segment and rewrite
    /// the plain ones. Returns what happened.
    pub fn run_once(&self) -> Result<CompactReport> {
        let mut report = CompactReport::default();
        let ids = list_segment_ids(&self.dir)?;
        if ids.len() < 2 {
            return Ok(report); // nothing sealed
        }
        // The last id is the active segment; of the sealed rest, leave the
        // newest `keep_hot` alone.
        let sealed = &ids[..ids.len() - 1];
        let cold = &sealed[..sealed.len().saturating_sub(self.cfg.keep_hot)];
        for &id in cold {
            match self.compact_segment(id) {
                Ok(Some((before, after))) => {
                    report.compacted += 1;
                    report.bytes_before += before;
                    report.bytes_after += after;
                    self.stats
                        .segments_compacted
                        .fetch_add(1, Ordering::Relaxed);
                    self.stats.bytes_before.fetch_add(before, Ordering::Relaxed);
                    self.stats.bytes_after.fetch_add(after, Ordering::Relaxed);
                    brisk_telemetry::flight_log!(
                        Info,
                        "store.compact",
                        "compacted",
                        "segment {id} compacted {before} -> {after} bytes"
                    );
                }
                Ok(None) => {
                    report.skipped += 1;
                    self.stats.segments_skipped.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Compact one segment. `Ok(None)` means it was (no longer) eligible.
    fn compact_segment(&self, id: u64) -> Result<Option<(u64, u64)>> {
        let path = segment_path(&self.dir, id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            // Raced with retention eviction: fine, it is gone.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let Ok((_, body, _)) = decode_any_header(&bytes) else {
            return Ok(None); // unreadable header: leave for the writer's repair
        };
        if matches!(body, SegmentBody::Compact(_)) {
            return Ok(None); // already compacted
        }
        let scan = scan_segment(&bytes)?;
        if scan.torn_bytes > 0 || scan.corrupt_frames > 0 || scan.records.is_empty() {
            // Damaged or empty segments keep their original bytes: the
            // plain format is the recoverable source of truth for them.
            return Ok(None);
        }
        let header = SegmentHeader {
            segment_id: id,
            base_ts: scan.header.base_ts,
        };
        let image = build_compact_image(&header, &scan.records, self.cfg.block_records)?;
        if image.len() >= bytes.len() {
            return Ok(None); // no win (tiny or high-entropy segment)
        }
        // Swap the segment first, then rebuild the sidecar from the new
        // bytes; the stale-sidecar window in between is covered by the
        // seal-stamp validation on the read side.
        write_durable(&path, &image)?;
        let idx = index_of_scan(&scan_segment(&image)?, image.len() as u64);
        write_durable(&index_path(&self.dir, id), &idx.encode())?;
        self.stats
            .records_compacted
            .fetch_add(scan.records.len() as u64, Ordering::Relaxed);
        Ok(Some((bytes.len() as u64, image.len() as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::frame_offsets;
    use crate::segment::FRAME_OVERHEAD;

    /// The plain-format byte cost of `records` (header excluded), for
    /// size-reduction accounting.
    fn plain_frames_len(records: &[EventRecord]) -> usize {
        records
            .iter()
            .map(|r| FRAME_OVERHEAD + brisk_core::binenc::record_size(r))
            .sum()
    }

    fn header(segment_id: u64, base_ts: UtcMicros) -> SegmentHeader {
        SegmentHeader {
            segment_id,
            base_ts,
        }
    }

    fn rec(node: u32, sensor: u32, seq: u64, ts: i64, fields: Vec<Value>) -> EventRecord {
        EventRecord {
            node: NodeId(node),
            sensor: SensorId(sensor),
            event_type: EventTypeId(1),
            seq,
            ts: UtcMicros::from_micros(ts),
            fields,
        }
    }

    #[test]
    fn block_round_trips_mixed_shapes() {
        let recs = vec![
            rec(1, 1, 1, 100, vec![Value::I32(5), Value::Str("ok".into())]),
            rec(1, 1, 2, 105, vec![Value::I32(6), Value::Str("ok".into())]),
            rec(2, 4, 7, 105, vec![Value::F64(0.25)]),
            rec(1, 1, 3, 90, vec![Value::I32(-9), Value::Str("err".into())]),
            rec(2, 4, 8, 200, vec![Value::F64(0.25)]),
            rec(3, 9, 1, 201, vec![]),
            rec(
                1,
                2,
                1,
                202,
                vec![
                    Value::Bool(true),
                    Value::Ts(UtcMicros::from_micros(7)),
                    Value::Reason(CorrelationId(u64::MAX)),
                    Value::Bytes(vec![0, 1, 2]),
                ],
            ),
        ];
        let mut dict = DescriptorDict::new();
        let block = encode_block(&recs, &mut dict).unwrap();
        let back = decode_block(&block, &dict).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn compact_image_scans_identically() {
        let recs: Vec<EventRecord> = (0..1500)
            .map(|i| {
                rec(
                    1 + (i % 3) as u32,
                    (i % 5) as u32,
                    i,
                    1_000_000 + i as i64 * 7,
                    vec![Value::I32(i as i32 / 10), Value::U64(i * 3)],
                )
            })
            .collect();
        let image = build_compact_image(&header(3, recs[0].ts), &recs, 512).unwrap();
        let scan = scan_segment(&image).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.corrupt_frames, 0);
        assert_eq!(scan.records, recs);
    }

    #[test]
    fn compact_image_is_much_smaller_for_telemetry_shapes() {
        // The paper's evaluation workload: six i32 fields, slowly varying.
        let recs: Vec<EventRecord> = (0..4000)
            .map(|i| {
                rec(
                    1,
                    2,
                    i,
                    5_000_000 + i as i64 * 13,
                    (0..6).map(|f| Value::I32((i as i32 / 50) + f)).collect(),
                )
            })
            .collect();
        let plain = plain_frames_len(&recs);
        let image = build_compact_image(&header(0, recs[0].ts), &recs, 512).unwrap();
        assert!(
            image.len() * 5 <= plain,
            "compacted {} bytes vs plain {} bytes: less than 5x",
            image.len(),
            plain
        );
    }

    #[test]
    fn corrupt_block_loses_only_itself() {
        let recs: Vec<EventRecord> = (0..300)
            .map(|i| rec(1, 1, i, i as i64, vec![Value::U32(i as u32)]))
            .collect();
        let mut image = build_compact_image(&header(0, recs[0].ts), &recs, 100).unwrap();
        // Flip a payload byte inside the second block frame.
        let second_block_off = frame_offsets(&image)[1];
        image[second_block_off + FRAME_OVERHEAD + 10] ^= 0xFF;
        let damaged = scan_segment(&image).unwrap();
        assert_eq!(damaged.corrupt_frames, 1);
        let seqs: Vec<u64> = damaged.records.iter().map(|r| r.seq).collect();
        let want: Vec<u64> = (0..100).chain(200..300).collect();
        assert_eq!(seqs, want, "first and third blocks intact");
    }
}
