//! On-disk segment format.
//!
//! A store directory holds a sequence of fixed-size-bounded segment files
//! named `seg-<id:016x>.seg`, each optionally accompanied by a zone-map
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
//! |   uint    node count       |   0; older writers listed nodes
//! |   uint[]  node ids         |   read and discarded
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
//! The `.idx` sidecar caches the segment's record count, timestamp range
//! and zone map, so queries can skip sealed segments without reading them.
//! It is a pure cache: when missing or corrupt, readers fall back to
//! scanning the `.seg` file, which remains the single source of truth.
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
//! [`SegmentIndex::validate_against`]. Sidecars of older layouts
//! (version 1 without a zone map, version 2 with a sparse seek index) no
//! longer decode: like any damaged sidecar they are scanned past by
//! readers and rebuilt on writer open.
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
/// Sidecar format version: zone map + seal stamp, no seek index.
pub const IDX_VERSION: u32 = 3;
/// Bytes of frame header preceding each payload (length + CRC).
pub const FRAME_OVERHEAD: usize = 8;
/// Upper bound on a sane frame payload; anything larger in a length word
/// means the file is corrupt at that point.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;
/// Upper bound on a node list in a header (older writers wrote one) or a
/// zone map.
const MAX_HEADER_NODES: usize = 64 * 1024;

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
    /// Monotonically increasing segment id, unique within a store.
    pub segment_id: u64,
    /// Timestamp of the first record appended to this segment.
    pub base_ts: UtcMicros,
}

impl SegmentHeader {
    /// Encode magic + header for a segment holding `body`, returning the
    /// bytes to place at offset 0. The body kind selects the format
    /// version; a compacted body appends its descriptor dictionary.
    pub fn encode(&self, body: &SegmentBody) -> Vec<u8> {
        let mut xdr = XdrEncoder::with_capacity(64);
        let version = match body {
            SegmentBody::Plain => FORMAT_VERSION,
            SegmentBody::Compact(_) => COMPACT_VERSION,
        };
        xdr.uint(version)
            .uhyper(self.segment_id)
            .hyper(self.base_ts.as_micros())
            .uint(0); // empty node list
        if let SegmentBody::Compact(dict) = body {
            dict.encode(&mut xdr);
        }
        let crc = crc32(xdr.as_bytes());
        xdr.uint(crc);
        let mut out = Vec::with_capacity(8 + xdr.len());
        out.extend_from_slice(SEG_MAGIC);
        out.extend_from_slice(xdr.as_bytes());
        out
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
    for _ in 0..n {
        dec.uint()?; // a node list from an older writer: discarded
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
        segment_id,
        base_ts,
    };
    Ok((header, body, 8 + dec.position()))
}

/// Append one CRC-framed payload to `out`.
pub fn append_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
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
    /// Zone map + seal stamp.
    pub zone: ZoneMap,
}

impl SegmentIndex {
    /// Encode magic + index for the sidecar file.
    pub fn encode(&self) -> Vec<u8> {
        let mut xdr = XdrEncoder::with_capacity(128);
        xdr.uint(IDX_VERSION)
            .uhyper(self.segment_id)
            .uhyper(self.record_count)
            .hyper(self.min_ts.as_micros())
            .hyper(self.max_ts.as_micros());
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
        if version != IDX_VERSION {
            return Err(BriskError::Codec(format!(
                "unsupported index format version {version}"
            )));
        }
        let segment_id = dec.uhyper()?;
        let record_count = dec.uhyper()?;
        let min_ts = UtcMicros::from_micros(dec.hyper()?);
        let max_ts = UtcMicros::from_micros(dec.hyper()?);
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
            zone,
        })
    }

    /// True when this sidecar demonstrably describes `seg` — the actual
    /// bytes of its segment file; false means "rebuild".
    ///
    /// The check is the seal stamp alone, cheap next to a decode-scan: the
    /// file length must match, and the frame at the stamped tail offset
    /// must be whole and carry the stamped CRC over its payload. Bit rot in
    /// an earlier frame is no reason to distrust the zone map: every scan
    /// CRC-checks each frame, skips a bad one and counts it.
    pub fn validate_against(&self, seg: &[u8]) -> bool {
        let zone = &self.zone;
        if zone.seg_len != seg.len() as u64 {
            return false;
        }
        if self.record_count == 0 {
            return true;
        }
        let tail = usize::try_from(zone.last_frame_offset)
            .ok()
            .and_then(|off| seg.get(off..))
            .filter(|tail| tail.len() >= FRAME_OVERHEAD);
        let Some(tail) = tail else {
            return false;
        };
        let len = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        let stored = u32::from_le_bytes(tail[4..8].try_into().expect("4 bytes"));
        len <= MAX_FRAME_BYTES
            && stored == zone.tail_crc
            && tail
                .get(FRAME_OVERHEAD..FRAME_OVERHEAD + len as usize)
                .is_some_and(|payload| crc32(payload) == stored)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// File offsets of every frame in a segment image, read from the frame
    /// headers alone; tests use them to aim a bit flip or a cut.
    pub(crate) fn frame_offsets(seg: &[u8]) -> Vec<usize> {
        let (_, _, mut off) = decode_any_header(seg).unwrap();
        let mut offsets = Vec::new();
        while off + FRAME_OVERHEAD <= seg.len() {
            offsets.push(off);
            let len = u32::from_le_bytes(seg[off..off + 4].try_into().unwrap());
            off += FRAME_OVERHEAD + len as usize;
        }
        offsets
    }

    #[test]
    fn header_round_trips() {
        let h = SegmentHeader {
            segment_id: 42,
            base_ts: UtcMicros::from_micros(1_234_567),
        };
        let bytes = h.encode(&SegmentBody::Plain);
        let (back, body, off) = decode_any_header(&bytes).unwrap();
        assert_eq!(body, SegmentBody::Plain);
        assert_eq!(back, h);
        assert_eq!(off, bytes.len());
        // Frames start right after; decode must also work with trailing data.
        let mut with_frames = bytes.clone();
        append_frame(b"payload", &mut with_frames);
        let (_, _, off2) = decode_any_header(&with_frames).unwrap();
        assert_eq!(off2, bytes.len());
    }

    #[test]
    fn header_crc_detects_corruption() {
        let h = SegmentHeader {
            segment_id: 1,
            base_ts: UtcMicros::ZERO,
        };
        let mut bytes = h.encode(&SegmentBody::Plain);
        let n = bytes.len();
        bytes[n - 6] ^= 0x40; // flip a bit inside the node count
        assert!(decode_any_header(&bytes).is_err());
    }

    #[test]
    fn index_round_trips() {
        let idx = SegmentIndex {
            segment_id: 9,
            record_count: 1000,
            min_ts: UtcMicros::from_micros(10),
            max_ts: UtcMicros::from_micros(99_999),
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
            segment_id: 0,
            base_ts: UtcMicros::from_micros(1),
        };
        let mut seg = h.encode(&SegmentBody::Plain);
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
        // A stamp pointing past the segment is stale, not a panic.
        let mut absurd = idx.clone();
        absurd.zone.last_frame_offset = u64::MAX;
        assert!(!absurd.validate_against(&seg));
        // Bit rot in the tail frame's payload breaks the stamp.
        let mut bitrot = seg.clone();
        let p = tail_off as usize + FRAME_OVERHEAD + 2;
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
        let h = SegmentHeader {
            segment_id: 7,
            base_ts: UtcMicros::from_micros(42),
        };
        let bytes = h.encode(&SegmentBody::Compact(dict.clone()));
        assert_eq!(&bytes[8..12], &COMPACT_VERSION.to_be_bytes());
        let (back, body, off) = decode_any_header(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, bytes.len());
        assert_eq!(body, SegmentBody::Compact(dict));
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
