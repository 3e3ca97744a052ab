//! On-disk segment format.
//!
//! A store directory holds a sequence of fixed-size-bounded segment files
//! named `seg-<id:016x>.seg`, each optionally accompanied by a sparse-index
//! sidecar `seg-<id:016x>.idx` written when the segment is sealed. Layout
//! of a `.seg` file:
//!
//! ```text
//! +----------------------------+
//! | magic  "BRISKSEG"  (8 B)   |
//! | XDR header:                |
//! |   uint    format version   |
//! |   uhyper  segment id       |
//! |   hyper   base timestamp   |   first record's UtcMicros
//! |   uint    node count       |
//! |   uint[]  node ids         |   nodes known when the segment opened
//! |   uint    CRC-32           |   over the XDR bytes above
//! +----------------------------+
//! | frame 0:                   |
//! |   u32 LE  payload length   |
//! |   u32 LE  CRC-32(payload)  |
//! |   payload (binenc record)  |
//! | frame 1: …                 |
//! +----------------------------+
//! ```
//!
//! The header is RFC-1832 XDR (big-endian, like every BRISK control
//! structure on the wire); frames use the native little-endian framing of
//! the data path, and each payload is exactly one
//! [`brisk_core::binenc`]-encoded record. A crash can leave a *torn tail*
//! — a final frame whose bytes were only partially written; recovery
//! truncates it (see `reader`).
//!
//! The `.idx` sidecar caches one `(record ordinal, file offset, timestamp)`
//! entry per `index_every` records plus the segment's record count and
//! timestamp range, so seeks do not scan sealed segments. It is a pure
//! cache: when missing or corrupt, readers fall back to scanning the `.seg`
//! file, which remains the single source of truth.
//!
//! ## Zone maps and the seal stamp
//!
//! Every sidecar carries a *zone map* — the distinct node-id set, a
//! 256-bit bloom filter over sensor ids, and the min/max timestamp — so a
//! query can prune a sealed segment without reading its `.seg` file at
//! all. It also carries a *seal stamp*: the segment's byte length, the
//! offset of its last frame, and that frame's CRC as they were at seal
//! time. A sidecar whose stamp disagrees with the segment bytes (crash
//! between segment fsync and idx write, or a compaction that swapped the
//! segment under it) is *stale* and must be ignored/rebuilt; see
//! [`SegmentIndex::validate_against`]. Sidecars of the pre-zone-map
//! layout (version 1) no longer decode: like any damaged sidecar they are
//! scanned past by readers and rebuilt on writer open.
//!
//! ## Compacted segments (format version 2)
//!
//! Cold sealed segments may be rewritten in a compacted format: the
//! header (version 2) additionally carries a descriptor dictionary of
//! the distinct record shapes, and each CRC frame holds a *block* of
//! delta-encoded records instead of a single binenc record (see
//! `compact`). [`decode_any_header`] dispatches on the version.

use crate::crc::crc32;
use brisk_core::{BriskError, Result, UtcMicros};
use brisk_proto::DescriptorDict;
use brisk_xdr::{XdrDecoder, XdrEncoder};
use std::path::{Path, PathBuf};

/// Magic prefix of a segment file.
pub const SEG_MAGIC: &[u8; 8] = b"BRISKSEG";
/// Magic prefix of an index sidecar.
pub const IDX_MAGIC: &[u8; 8] = b"BRISKIDX";
/// On-disk format version (plain, one binenc record per frame).
pub const FORMAT_VERSION: u32 = 1;
/// On-disk format version of compacted segments (dictionary + delta
/// blocks, one block per frame).
pub const COMPACT_VERSION: u32 = 2;
/// Sidecar format version carrying zone maps + the seal stamp.
pub const IDX_ZONED_VERSION: u32 = 2;
/// Bytes of frame header preceding each payload (length + CRC).
pub const FRAME_OVERHEAD: usize = 8;
/// Upper bound on a sane frame payload; anything larger in a length word
/// means the file is corrupt at that point.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;
/// Upper bound on the node set recorded in a header.
const MAX_HEADER_NODES: usize = 64 * 1024;
/// Upper bound on index entries in a sidecar.
const MAX_INDEX_ENTRIES: usize = 1 << 24;

/// File name of segment `id` (zero-padded hex keeps lexicographic order
/// equal to numeric order).
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:016x}.seg")
}

/// File name of the index sidecar of segment `id`.
pub fn index_file_name(id: u64) -> String {
    format!("seg-{id:016x}.idx")
}

/// Path of segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(segment_file_name(id))
}

/// Path of the index sidecar of segment `id` under `dir`.
pub fn index_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(index_file_name(id))
}

/// Parse a segment id back out of a `seg-<id>.seg` file name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The XDR-encoded metadata at the start of every segment file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// On-disk format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Monotonically increasing segment id, unique within a store.
    pub segment_id: u64,
    /// Timestamp of the first record appended to this segment.
    pub base_ts: UtcMicros,
    /// Node ids the store had seen when the segment was opened (advisory:
    /// later segments accumulate nodes as they appear in the stream).
    pub nodes: Vec<u32>,
}

impl SegmentHeader {
    /// Encode magic + header, returning the bytes to place at offset 0.
    pub fn encode(&self) -> Vec<u8> {
        let mut xdr = XdrEncoder::with_capacity(32 + 4 * self.nodes.len());
        xdr.uint(self.version)
            .uhyper(self.segment_id)
            .hyper(self.base_ts.as_micros())
            .uint(self.nodes.len() as u32);
        for &n in &self.nodes {
            xdr.uint(n);
        }
        let body = xdr.as_bytes().to_vec();
        let crc = crc32(&body);
        xdr.uint(crc);
        let mut out = Vec::with_capacity(8 + xdr.len());
        out.extend_from_slice(SEG_MAGIC);
        out.extend_from_slice(xdr.as_bytes());
        out
    }

    /// Decode a header from the start of a segment file. Returns the header
    /// and the offset of the first frame. Accepts both plain and compacted
    /// segments; use [`decode_any_header`] when the dictionary is needed.
    pub fn decode(bytes: &[u8]) -> Result<(SegmentHeader, usize)> {
        let (header, _, off) = decode_any_header(bytes)?;
        Ok((header, off))
    }
}

/// What follows a segment header: plain binenc frames, or compact blocks
/// decoded against the header's descriptor dictionary.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentBody {
    /// Format v1: each frame payload is one binenc record.
    Plain,
    /// Format v2: each frame payload is a delta-encoded block referring
    /// to this dictionary.
    Compact(DescriptorDict),
}

/// Decode a segment header of either format version. Returns the header,
/// the body kind (with the descriptor dictionary for compacted segments),
/// and the offset of the first frame.
pub fn decode_any_header(bytes: &[u8]) -> Result<(SegmentHeader, SegmentBody, usize)> {
    if bytes.len() < 8 || &bytes[..8] != SEG_MAGIC {
        return Err(BriskError::Codec("bad segment magic".into()));
    }
    let mut dec = XdrDecoder::new(&bytes[8..]);
    let version = dec.uint()?;
    if version != FORMAT_VERSION && version != COMPACT_VERSION {
        return Err(BriskError::Codec(format!(
            "unsupported segment format version {version}"
        )));
    }
    let segment_id = dec.uhyper()?;
    let base_ts = UtcMicros::from_micros(dec.hyper()?);
    let n = dec.uint()? as usize;
    if n > MAX_HEADER_NODES {
        return Err(BriskError::Codec(format!("absurd header node count {n}")));
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(dec.uint()?);
    }
    let body = if version == COMPACT_VERSION {
        SegmentBody::Compact(DescriptorDict::decode(&mut dec)?)
    } else {
        SegmentBody::Plain
    };
    let body_len = dec.position();
    let want = crc32(&bytes[8..8 + body_len]);
    let got = dec.uint()?;
    if want != got {
        return Err(BriskError::Codec("segment header CRC mismatch".into()));
    }
    let header = SegmentHeader {
        version,
        segment_id,
        base_ts,
        nodes,
    };
    Ok((header, body, 8 + dec.position()))
}

/// Encode magic + compacted (version-2) header: the common header fields
/// followed by the descriptor dictionary the segment's blocks refer to.
pub fn encode_compact_header(
    segment_id: u64,
    base_ts: UtcMicros,
    nodes: &[u32],
    dict: &DescriptorDict,
) -> Vec<u8> {
    let mut xdr = XdrEncoder::with_capacity(64 + 4 * nodes.len() + 16 * dict.len());
    xdr.uint(COMPACT_VERSION)
        .uhyper(segment_id)
        .hyper(base_ts.as_micros())
        .uint(nodes.len() as u32);
    for &n in nodes {
        xdr.uint(n);
    }
    dict.encode(&mut xdr);
    let crc = crc32(xdr.as_bytes());
    xdr.uint(crc);
    let mut out = Vec::with_capacity(8 + xdr.len());
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(xdr.as_bytes());
    out
}

/// Append one CRC-framed payload to `out`.
pub fn append_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One sparse-index entry: every `index_every`-th record's position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Zero-based ordinal of the record within its segment.
    pub ordinal: u64,
    /// Byte offset of the record's frame within the segment file.
    pub offset: u64,
    /// The record's timestamp.
    pub ts: UtcMicros,
}

/// A 256-bit bloom filter over sensor ids (two probes per id). Sized for
/// the common case — tens of distinct sensors per segment — where the
/// false-positive rate stays under ~2%; at higher cardinality it degrades
/// toward "may contain anything", which only costs a wasted scan, never a
/// missed record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SensorBloom(pub [u64; 4]);

impl SensorBloom {
    /// An empty filter (matches nothing).
    pub fn new() -> SensorBloom {
        SensorBloom::default()
    }

    fn probes(id: u32) -> (u32, u32) {
        // SplitMix64 finalizer: cheap, well-mixed 64 bits from the id;
        // the low and high halves give two independent probe positions.
        let mut x = (id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x & 0xFF) as u32, ((x >> 32) & 0xFF) as u32)
    }

    /// Insert a sensor id.
    pub fn insert(&mut self, id: u32) {
        let (a, b) = Self::probes(id);
        self.0[(a >> 6) as usize] |= 1 << (a & 63);
        self.0[(b >> 6) as usize] |= 1 << (b & 63);
    }

    /// False means the id is definitely absent; true means it may be
    /// present.
    pub fn may_contain(&self, id: u32) -> bool {
        let (a, b) = Self::probes(id);
        self.0[(a >> 6) as usize] & (1 << (a & 63)) != 0
            && self.0[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }

    fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<SensorBloom> {
        if bytes.len() != 32 {
            return Err(BriskError::Codec("bad sensor bloom length".into()));
        }
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(b);
        }
        Ok(SensorBloom(words))
    }
}

/// The sidecar's per-segment zone map plus the seal stamp
/// that binds the sidecar to the exact segment bytes it was built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    /// Distinct node ids appearing in the segment, sorted ascending.
    pub nodes: Vec<u32>,
    /// Bloom filter over distinct sensor ids in the segment.
    pub sensors: SensorBloom,
    /// Segment file length, in bytes, at seal time.
    pub seg_len: u64,
    /// Offset of the last frame at seal time (0 when the segment holds
    /// no frames).
    pub last_frame_offset: u64,
    /// Stored CRC word of the last frame (0 when no frames).
    pub tail_crc: u32,
}

/// The sealed-segment summary stored in a `.idx` sidecar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentIndex {
    /// Segment this index describes.
    pub segment_id: u64,
    /// Total records in the segment.
    pub record_count: u64,
    /// Smallest record timestamp in the segment.
    pub min_ts: UtcMicros,
    /// Largest record timestamp in the segment.
    pub max_ts: UtcMicros,
    /// Sparse entries, ascending by ordinal.
    pub entries: Vec<IndexEntry>,
    /// Zone map + seal stamp.
    pub zone: ZoneMap,
}

impl SegmentIndex {
    /// Encode magic + index for the sidecar file.
    pub fn encode(&self) -> Vec<u8> {
        let mut xdr = XdrEncoder::with_capacity(128 + 24 * self.entries.len());
        xdr.uint(IDX_ZONED_VERSION)
            .uhyper(self.segment_id)
            .uhyper(self.record_count)
            .hyper(self.min_ts.as_micros())
            .hyper(self.max_ts.as_micros())
            .uint(self.entries.len() as u32);
        for e in &self.entries {
            xdr.uhyper(e.ordinal)
                .uhyper(e.offset)
                .hyper(e.ts.as_micros());
        }
        let zone = &self.zone;
        xdr.uint(zone.nodes.len() as u32);
        for &n in &zone.nodes {
            xdr.uint(n);
        }
        xdr.opaque_fixed(&zone.sensors.to_bytes());
        xdr.uhyper(zone.seg_len)
            .uhyper(zone.last_frame_offset)
            .uint(zone.tail_crc);
        let crc = crc32(xdr.as_bytes());
        xdr.uint(crc);
        let mut out = Vec::with_capacity(8 + xdr.len());
        out.extend_from_slice(IDX_MAGIC);
        out.extend_from_slice(xdr.as_bytes());
        out
    }

    /// Decode a sidecar file. Any corruption is an error: callers treat a
    /// bad sidecar as absent and rescan the segment itself.
    pub fn decode(bytes: &[u8]) -> Result<SegmentIndex> {
        if bytes.len() < 8 || &bytes[..8] != IDX_MAGIC {
            return Err(BriskError::Codec("bad index magic".into()));
        }
        let mut dec = XdrDecoder::new(&bytes[8..]);
        let version = dec.uint()?;
        if version != IDX_ZONED_VERSION {
            return Err(BriskError::Codec(format!(
                "unsupported index format version {version}"
            )));
        }
        let segment_id = dec.uhyper()?;
        let record_count = dec.uhyper()?;
        let min_ts = UtcMicros::from_micros(dec.hyper()?);
        let max_ts = UtcMicros::from_micros(dec.hyper()?);
        let n = dec.uint()? as usize;
        if n > MAX_INDEX_ENTRIES {
            return Err(BriskError::Codec(format!("absurd index entry count {n}")));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let ordinal = dec.uhyper()?;
            let offset = dec.uhyper()?;
            let ts = UtcMicros::from_micros(dec.hyper()?);
            entries.push(IndexEntry {
                ordinal,
                offset,
                ts,
            });
        }
        let nn = dec.uint()? as usize;
        if nn > MAX_HEADER_NODES {
            return Err(BriskError::Codec(format!("absurd zone node count {nn}")));
        }
        let mut nodes = Vec::with_capacity(nn);
        for _ in 0..nn {
            nodes.push(dec.uint()?);
        }
        let zone = ZoneMap {
            nodes,
            sensors: SensorBloom::from_bytes(dec.opaque_fixed(32)?)?,
            seg_len: dec.uhyper()?,
            last_frame_offset: dec.uhyper()?,
            tail_crc: dec.uint()?,
        };
        let body_len = dec.position();
        let want = crc32(&bytes[8..8 + body_len]);
        if want != dec.uint()? {
            return Err(BriskError::Codec("index CRC mismatch".into()));
        }
        dec.finish()?;
        Ok(SegmentIndex {
            segment_id,
            record_count,
            min_ts,
            max_ts,
            entries,
            zone,
        })
    }

    /// True when this sidecar demonstrably describes `seg` — the actual
    /// bytes of its segment file; false means "rebuild".
    ///
    /// The check is deliberately cheap relative to a full decode-scan:
    /// the seal stamp must match the file length and the tail frame's
    /// stored CRC, the tail frame payload must actually carry that CRC,
    /// and every sparse entry must point at a frame whose CRC verifies.
    pub fn validate_against(&self, seg: &[u8]) -> bool {
        let zone = &self.zone;
        if zone.seg_len != seg.len() as u64 {
            return false;
        }
        if self.record_count == 0 {
            return true;
        }
        if !frame_checks_out(seg, zone.last_frame_offset, Some(zone.tail_crc)) {
            return false;
        }
        self.entries
            .iter()
            .all(|e| frame_checks_out(seg, e.offset, None))
    }
}

/// Verify the frame starting at `offset`: header in bounds, sane length,
/// payload CRC matches the stored word (and `expect_crc`, when given).
pub(crate) fn frame_checks_out(seg: &[u8], offset: u64, expect_crc: Option<u32>) -> bool {
    let Ok(off) = usize::try_from(offset) else {
        return false;
    };
    if off + FRAME_OVERHEAD > seg.len() {
        return false;
    }
    let len = u32::from_le_bytes([seg[off], seg[off + 1], seg[off + 2], seg[off + 3]]) as usize;
    let stored = u32::from_le_bytes([seg[off + 4], seg[off + 5], seg[off + 6], seg[off + 7]]);
    if len > MAX_FRAME_BYTES as usize || off + FRAME_OVERHEAD + len > seg.len() {
        return false;
    }
    if let Some(want) = expect_crc {
        if stored != want {
            return false;
        }
    }
    crc32(&seg[off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len]) == stored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = SegmentHeader {
            version: FORMAT_VERSION,
            segment_id: 42,
            base_ts: UtcMicros::from_micros(1_234_567),
            nodes: vec![1, 2, 7],
        };
        let bytes = h.encode();
        let (back, off) = SegmentHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, bytes.len());
        // Frames start right after; decode must also work with trailing data.
        let mut with_frames = bytes.clone();
        append_frame(b"payload", &mut with_frames);
        let (_, off2) = SegmentHeader::decode(&with_frames).unwrap();
        assert_eq!(off2, bytes.len());
    }

    #[test]
    fn header_crc_detects_corruption() {
        let h = SegmentHeader {
            version: FORMAT_VERSION,
            segment_id: 1,
            base_ts: UtcMicros::ZERO,
            nodes: vec![3],
        };
        let mut bytes = h.encode();
        let n = bytes.len();
        bytes[n - 6] ^= 0x40; // flip a bit inside the node list
        assert!(SegmentHeader::decode(&bytes).is_err());
    }

    #[test]
    fn index_round_trips() {
        let idx = SegmentIndex {
            segment_id: 9,
            record_count: 1000,
            min_ts: UtcMicros::from_micros(10),
            max_ts: UtcMicros::from_micros(99_999),
            entries: (0..16)
                .map(|i| IndexEntry {
                    ordinal: i * 64,
                    offset: 53 + i * 640,
                    ts: UtcMicros::from_micros(10 + i as i64 * 100),
                })
                .collect(),
            zone: ZoneMap {
                nodes: vec![],
                sensors: SensorBloom::new(),
                seg_len: 0,
                last_frame_offset: 0,
                tail_crc: 0,
            },
        };
        let bytes = idx.encode();
        assert_eq!(SegmentIndex::decode(&bytes).unwrap(), idx);
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n / 2] ^= 1;
        assert!(SegmentIndex::decode(&bad).is_err());
    }

    #[test]
    fn zoned_index_round_trips() {
        let mut sensors = SensorBloom::new();
        sensors.insert(7);
        sensors.insert(99);
        let idx = SegmentIndex {
            segment_id: 3,
            record_count: 128,
            min_ts: UtcMicros::from_micros(5),
            max_ts: UtcMicros::from_micros(500),
            entries: vec![IndexEntry {
                ordinal: 0,
                offset: 53,
                ts: UtcMicros::from_micros(5),
            }],
            zone: ZoneMap {
                nodes: vec![1, 2, 9],
                sensors,
                seg_len: 4096,
                last_frame_offset: 4000,
                tail_crc: 0xDEAD_BEEF,
            },
        };
        let bytes = idx.encode();
        let back = SegmentIndex::decode(&bytes).unwrap();
        assert_eq!(back, idx);
        let z = back.zone;
        assert!(z.sensors.may_contain(7) && z.sensors.may_contain(99));
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = SensorBloom::new();
        for id in (0..400).step_by(7) {
            b.insert(id);
        }
        for id in (0..400).step_by(7) {
            assert!(b.may_contain(id), "false negative for {id}");
        }
        // Spot-check that it actually discriminates at low cardinality.
        let mut small = SensorBloom::new();
        small.insert(1);
        let misses = (1000u32..2000).filter(|&i| !small.may_contain(i)).count();
        assert!(misses > 900, "bloom too dense: {misses}/1000 misses");
    }

    #[test]
    fn validate_against_binds_sidecar_to_segment_bytes() {
        // Build a tiny segment image: header + two frames.
        let h = SegmentHeader {
            version: FORMAT_VERSION,
            segment_id: 0,
            base_ts: UtcMicros::from_micros(1),
            nodes: vec![1],
        };
        let mut seg = h.encode();
        let first_off = seg.len() as u64;
        append_frame(b"first-record", &mut seg);
        let tail_off = seg.len() as u64;
        append_frame(b"second-record", &mut seg);
        let tail_crc = crc32(b"second-record");
        let mut sensors = SensorBloom::new();
        sensors.insert(2);
        let idx = SegmentIndex {
            segment_id: 0,
            record_count: 2,
            min_ts: UtcMicros::from_micros(1),
            max_ts: UtcMicros::from_micros(2),
            entries: vec![IndexEntry {
                ordinal: 0,
                offset: first_off,
                ts: UtcMicros::from_micros(1),
            }],
            zone: ZoneMap {
                nodes: vec![1],
                sensors,
                seg_len: seg.len() as u64,
                last_frame_offset: tail_off,
                tail_crc,
            },
        };
        assert!(idx.validate_against(&seg));
        // Stale: segment truncated after the sidecar was written.
        assert!(!idx.validate_against(&seg[..seg.len() - 4]));
        // Stale: segment grew (extra frame) after the sidecar was written.
        let mut grown = seg.clone();
        append_frame(b"third", &mut grown);
        assert!(!idx.validate_against(&grown));
        // Corrupt frame under an entry.
        let mut bitrot = seg.clone();
        let p = first_off as usize + FRAME_OVERHEAD + 2;
        bitrot[p] ^= 0x10;
        assert!(!idx.validate_against(&bitrot));
    }

    #[test]
    fn compact_header_round_trips() {
        use brisk_core::{EventTypeId, NodeId, SensorId, Value};
        let mut dict = DescriptorDict::new();
        dict.intern_record(&brisk_core::EventRecord {
            node: NodeId(1),
            sensor: SensorId(2),
            event_type: EventTypeId(3),
            seq: 0,
            ts: UtcMicros::ZERO,
            fields: vec![Value::I32(5), Value::Str("x".into())],
        })
        .unwrap();
        let bytes = encode_compact_header(7, UtcMicros::from_micros(42), &[1, 2], &dict);
        let (h, body, off) = decode_any_header(&bytes).unwrap();
        assert_eq!(h.version, COMPACT_VERSION);
        assert_eq!(h.segment_id, 7);
        assert_eq!(h.nodes, vec![1, 2]);
        assert_eq!(off, bytes.len());
        assert_eq!(body, SegmentBody::Compact(dict));
        // SegmentHeader::decode accepts it too (dictionary discarded).
        let (h2, off2) = SegmentHeader::decode(&bytes).unwrap();
        assert_eq!((h2.segment_id, off2), (7, bytes.len()));
    }

    #[test]
    fn file_names_sort_numerically() {
        assert_eq!(segment_file_name(0x2a), "seg-000000000000002a.seg");
        assert_eq!(
            parse_segment_file_name("seg-000000000000002a.seg"),
            Some(0x2a)
        );
        assert_eq!(parse_segment_file_name("seg-2a.seg"), None);
        assert_eq!(parse_segment_file_name("other.seg"), None);
        let names: Vec<String> = [1u64, 9, 10, 255, 4096]
            .iter()
            .map(|&i| segment_file_name(i))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names);
    }
}
