//! # brisk-proto — the BRISK transfer protocol messages
//!
//! The transfer protocol (TP) between an external sensor and the ISM is
//! XDR-based (§3.4). Each transport frame carries exactly one
//! [`Message`]; framing (length prefixes) is the transport's job
//! (`brisk-net`), encoding is this crate's.
//!
//! Message set:
//!
//! * [`Message::Hello`] — sent by the EXS when it connects; carries the
//!   protocol magic/version and the node id, which subsequent batches from
//!   this connection implicitly belong to.
//! * [`Message::HelloAck`] — the ISM's reply to an accepted `Hello`,
//!   carrying the connection's credit budget.
//! * [`Message::EventBatch`] — a batch of event records. "The external
//!   sensor packages instrumentation data in XDR format with the
//!   meta-information header compressed" — each record body embeds its
//!   packed descriptor, see [`brisk_xdr::values`]. The batch carries a
//!   per-node monotonic sequence number so the ISM can acknowledge and
//!   deduplicate.
//! * [`Message::BatchAck`] — ISM→EXS cumulative acknowledgement: every
//!   batch with `seq <= ack.seq` has been handed to the ISM pipeline and
//!   may be dropped from the sender's retransmit window. Like `HelloAck`
//!   it re-advertises the credit budget (absolute, not a delta, so a lost
//!   ack cannot strand credit); `credit: 0` means "send no new batches
//!   until replenished".
//! * [`Message::SyncPoll`] / [`Message::SyncReply`] /
//!   [`Message::SyncAdjust`] — the clock-synchronization exchange (§3.3).
//!   The poll carries the master send time so the reply can echo it; the
//!   sample index lets the master average several exchanges per round.
//! * [`Message::Shutdown`] — orderly termination.
//!
//! ## One session, several wire forms
//!
//! The session protocol has one generation, [`VERSION`]: the ISM refuses
//! any other `Hello`. The codec is wider than the session — it still
//! encodes and decodes `MIN_VERSION..=VERSION` hellos and unsequenced
//! batches, because the golden fixtures pin those bytes. Acks have one
//! wire form, the credit-carrying one: the credit-less ack tags 8 and 9
//! are retired and decode as [`DecodeError::UnknownTag`].

#![deny(missing_docs)]
#![deny(unsafe_code)]
// The decode path is a hostile-input boundary; it must never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dict;
pub mod namespace;

pub use dict::{DescriptorDict, DictKey};
pub use namespace::{NamespaceError, NodePrefix};

use brisk_core::{BriskError, EventRecord, NodeId, UtcMicros};
use brisk_xdr::values::encode_record_body;
use brisk_xdr::{decode_record_view, RecordView, XdrDecoder, XdrEncoder};
use std::fmt;

/// Protocol magic: "BRSK".
pub const MAGIC: u32 = 0x4252_534B;

/// Protocol version implemented by this crate.
pub const VERSION: u32 = 3;

/// Oldest `Hello` version the *codec* still decodes. The ISM session
/// accepts only [`VERSION`].
pub const MIN_VERSION: u32 = 1;

/// Maximum records accepted in one batch.
pub const MAX_BATCH_RECORDS: usize = 65_536;

/// Why a frame failed to decode into a [`Message`]. Typed so the ingest
/// layers (ISM pump quarantine, EXS control loop) can count and budget
/// protocol errors without string matching; converts into
/// [`BriskError`] for callers that propagate through the kernel-wide
/// error type.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodeError {
    /// The tag word named no known message kind.
    UnknownTag(u32),
    /// A `Hello` carried the wrong protocol magic.
    BadMagic(u32),
    /// A `Hello` advertised a version outside `MIN_VERSION..=VERSION`.
    UnsupportedVersion(u32),
    /// An `EventBatch` declared more records than [`MAX_BATCH_RECORDS`].
    TooManyRecords {
        /// Declared record count.
        count: usize,
        /// Permitted maximum.
        max: usize,
    },
    /// A record body inside a batch failed semantic validation.
    Record(String),
    /// The underlying XDR primitives failed (truncation, padding, bounds,
    /// trailing bytes, ...).
    Xdr(brisk_xdr::DecodeError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownTag(v) => write!(f, "unknown message tag {v}"),
            DecodeError::BadMagic(m) => {
                write!(f, "bad magic {m:#x}, expected {MAGIC:#x}")
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            DecodeError::TooManyRecords { count, max } => {
                write!(f, "batch of {count} records exceeds {max}")
            }
            DecodeError::Record(m) => write!(f, "bad record in batch: {m}"),
            DecodeError::Xdr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Xdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<brisk_xdr::DecodeError> for DecodeError {
    fn from(e: brisk_xdr::DecodeError) -> Self {
        DecodeError::Xdr(e)
    }
}

impl From<BriskError> for DecodeError {
    fn from(e: BriskError) -> Self {
        DecodeError::Record(e.to_string())
    }
}

impl From<DecodeError> for BriskError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::UnknownTag(_)
            | DecodeError::BadMagic(_)
            | DecodeError::UnsupportedVersion(_)
            | DecodeError::TooManyRecords { .. } => BriskError::Protocol(e.to_string()),
            DecodeError::Record(_) | DecodeError::Xdr(_) => BriskError::Codec(e.to_string()),
        }
    }
}

/// Message discriminants on the wire. An event batch has several wire
/// forms: with or without a seq (an `Option` field picks the tag, so no
/// form needs extra fields a decoder would reject as trailing bytes).
///
/// `EventBatchMulti` is the relay-tier batch format: `EventBatch` /
/// `EventBatchSeq` compress the per-record node id into the batch header
/// (every record in an EXS batch comes from the one node that said
/// `Hello`), but a relay ISM merges many downstream nodes into a single
/// upstream link, so its batches carry one node id per record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
enum Tag {
    Hello = 1,
    EventBatch = 2,
    SyncPoll = 3,
    SyncReply = 4,
    SyncAdjust = 5,
    Shutdown = 6,
    EventBatchSeq = 7,
    // 8 and 9 were the credit-less BatchAck and HelloAck. They are
    // retired, decode as `UnknownTag`, and must never be reassigned.
    HelloAckCredit = 10,
    BatchAckCredit = 11,
    Heartbeat = 12,
    EventBatchMulti = 13,
}

impl Tag {
    fn from_u32(v: u32) -> Result<Tag, DecodeError> {
        Ok(match v {
            1 => Tag::Hello,
            2 => Tag::EventBatch,
            3 => Tag::SyncPoll,
            4 => Tag::SyncReply,
            5 => Tag::SyncAdjust,
            6 => Tag::Shutdown,
            7 => Tag::EventBatchSeq,
            10 => Tag::HelloAckCredit,
            11 => Tag::BatchAckCredit,
            12 => Tag::Heartbeat,
            13 => Tag::EventBatchMulti,
            _ => return Err(DecodeError::UnknownTag(v)),
        })
    }
}

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Connection preamble from the external sensor.
    Hello {
        /// Node this connection serves.
        node: NodeId,
        /// Protocol version spoken by the sender.
        version: u32,
    },
    /// The ISM's reply to an accepted `Hello`: the session version and
    /// the initial credit budget.
    HelloAck {
        /// Version the connection runs at.
        version: u32,
        /// Maximum records the sender may have unacknowledged in flight.
        credit: u64,
    },
    /// A batch of event records from one node.
    EventBatch {
        /// Originating node (redundant with Hello; kept so a batch is
        /// self-describing for trace files and debugging).
        node: NodeId,
        /// Per-node monotonic batch sequence number. The ISM session
        /// requires `Some`; `None` encodes the unsequenced wire form the
        /// codec still reads.
        seq: Option<u64>,
        /// The records, in per-sensor sequence order.
        records: Vec<EventRecord>,
    },
    /// ISM→EXS cumulative acknowledgement of sequenced batches.
    BatchAck {
        /// Every batch with sequence number `<= seq` has been handed to
        /// the ISM pipeline.
        seq: u64,
        /// Replenished credit budget (absolute, replaces the previous
        /// grant).
        credit: u64,
    },
    /// Master→slave: "what time is it?" — sample `sample` of round `round`.
    SyncPoll {
        /// Synchronization round number.
        round: u64,
        /// Sample index within the round.
        sample: u32,
        /// Master clock at send time, echoed back in the reply.
        master_send: UtcMicros,
    },
    /// Slave→master reply to a poll.
    SyncReply {
        /// Round number echoed from the poll.
        round: u64,
        /// Sample index echoed from the poll.
        sample: u32,
        /// Master send time echoed from the poll.
        master_send: UtcMicros,
        /// Slave's corrected clock reading when the poll arrived.
        slave_time: UtcMicros,
    },
    /// Master→slave: advance your correction value.
    SyncAdjust {
        /// Round that produced this correction.
        round: u64,
        /// Microseconds to add to the slave's correction value.
        advance_us: i64,
    },
    /// Orderly shutdown notice (either direction).
    Shutdown,
    /// EXS→ISM liveness probe: sent when the connection has been idle
    /// past the heartbeat interval, so the ISM can tell a quiet node from a
    /// silently dead one (a half-open TCP connection never reports). Pure
    /// liveness — no payload, no reply.
    Heartbeat,
}

impl Message {
    /// Encode into a transport frame.
    pub fn encode(&self) -> Vec<u8> {
        if let Message::EventBatch { node, seq, records } = self {
            return encode_batch(*node, *seq, records);
        }
        let mut frame = Vec::with_capacity(64);
        self.encode_into(&mut frame);
        frame
    }

    /// Append this message's frame to `out`, so a loop that answers many
    /// peers encodes its control messages into one reused buffer (a batch
    /// still takes [`encode_batch`]'s own).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if let Message::EventBatch { node, seq, records } = self {
            return out.extend_from_slice(&encode_batch(*node, *seq, records));
        }
        let mut e = XdrEncoder::append_to(std::mem::take(out));
        match self {
            Message::Hello { node, version } => {
                e.uint(Tag::Hello as u32);
                e.uint(MAGIC);
                e.uint(*version);
                e.uint(node.raw());
            }
            Message::HelloAck { version, credit } => {
                e.uint(Tag::HelloAckCredit as u32);
                e.uint(*version);
                e.uhyper(*credit);
            }
            Message::EventBatch { .. } => unreachable!("encoded by encode_batch above"),
            Message::BatchAck { seq, credit } => {
                e.uint(Tag::BatchAckCredit as u32);
                e.uhyper(*seq);
                e.uhyper(*credit);
            }
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                e.uint(Tag::SyncPoll as u32);
                e.uhyper(*round);
                e.uint(*sample);
                e.hyper(master_send.as_micros());
            }
            Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            } => {
                e.uint(Tag::SyncReply as u32);
                e.uhyper(*round);
                e.uint(*sample);
                e.hyper(master_send.as_micros());
                e.hyper(slave_time.as_micros());
            }
            Message::SyncAdjust { round, advance_us } => {
                e.uint(Tag::SyncAdjust as u32);
                e.uhyper(*round);
                e.hyper(*advance_us);
            }
            Message::Shutdown => {
                e.uint(Tag::Shutdown as u32);
            }
            Message::Heartbeat => {
                e.uint(Tag::Heartbeat as u32);
            }
        }
        *out = e.into_bytes();
    }

    /// Decode a transport frame.
    ///
    /// Never panics: arbitrary input yields a typed [`DecodeError`] (which
    /// converts into [`BriskError`] via `?` where the kernel-wide error
    /// type is wanted), and allocation is bounded by the frame length plus
    /// the declared-and-checked record count.
    pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
        let mut d = XdrDecoder::new(frame);
        let tag = Tag::from_u32(d.uint()?)?;
        let msg = match tag {
            Tag::Hello => {
                let magic = d.uint()?;
                if magic != MAGIC {
                    return Err(DecodeError::BadMagic(magic));
                }
                let version = d.uint()?;
                if !(MIN_VERSION..=VERSION).contains(&version) {
                    return Err(DecodeError::UnsupportedVersion(version));
                }
                Message::Hello {
                    node: NodeId(d.uint()?),
                    version,
                }
            }
            Tag::HelloAckCredit => Message::HelloAck {
                version: d.uint()?,
                credit: d.uhyper()?,
            },
            // One validator for batch bytes: the owned form is the
            // borrowing view, materialized.
            Tag::EventBatch | Tag::EventBatchSeq | Tag::EventBatchMulti => {
                let view = BatchView::parse(frame)?;
                return Ok(Message::EventBatch {
                    node: view.node(),
                    seq: view.seq(),
                    records: view.materialize()?,
                });
            }
            Tag::BatchAckCredit => Message::BatchAck {
                seq: d.uhyper()?,
                credit: d.uhyper()?,
            },
            Tag::SyncPoll => Message::SyncPoll {
                round: d.uhyper()?,
                sample: d.uint()?,
                master_send: UtcMicros::from_micros(d.hyper()?),
            },
            Tag::SyncReply => Message::SyncReply {
                round: d.uhyper()?,
                sample: d.uint()?,
                master_send: UtcMicros::from_micros(d.hyper()?),
                slave_time: UtcMicros::from_micros(d.hyper()?),
            },
            Tag::SyncAdjust => Message::SyncAdjust {
                round: d.uhyper()?,
                advance_us: d.hyper()?,
            },
            Tag::Shutdown => Message::Shutdown,
            Tag::Heartbeat => Message::Heartbeat,
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Encode an event batch from borrowed records — [`Message::EventBatch`]'s
/// wire form without first moving the records into a `Message`, so a
/// sender can encode a batch it keeps (its retransmit window).
pub fn encode_batch(node: NodeId, seq: Option<u64>, records: &[EventRecord]) -> Vec<u8> {
    // The EXS wire formats compress the node id into the batch header;
    // only a batch whose records all share the header node survives that
    // round trip. A relay batch mixes nodes, so it takes the Multi format,
    // which spends one word per record to keep each origin (and a flag
    // word, not a second tag, to say whether a seq follows).
    let multi = records.iter().any(|r| r.node != node);
    let tag = match (multi, seq) {
        (true, _) => Tag::EventBatchMulti,
        (false, Some(_)) => Tag::EventBatchSeq,
        (false, None) => Tag::EventBatch,
    };
    // Sized once: tag, node, count (+ flag, + seq), then per record the
    // body, its descriptor length word (+ its node).
    let header = 12 + 4 * multi as usize + 8 * seq.is_some() as usize;
    let per_record = 4 + 4 * multi as usize;
    let bodies: usize = records
        .iter()
        .map(|r| per_record + r.xdr_payload_size())
        .sum();
    let mut e = XdrEncoder::with_capacity(header + bodies);
    e.uint(tag as u32);
    e.uint(node.raw());
    if multi {
        e.uint(seq.is_some() as u32);
    }
    if let Some(seq) = seq {
        e.uhyper(seq);
    }
    e.uint(records.len() as u32);
    for r in records {
        if multi {
            e.uint(r.node.raw());
        }
        encode_record_body(r, &mut e);
    }
    debug_assert_eq!(e.len(), header + bodies, "batch frame sized exactly");
    e.into_bytes()
}

/// Read a frame's wire tag without decoding the body. `None` when the
/// frame is shorter than one XDR word (such a frame can never decode).
///
/// The ingest hot path uses this to route event batches through the
/// zero-copy [`BatchWalk`] while every other (rare, small) message kind
/// takes the owned [`Message::decode`] path.
pub fn peek_tag(frame: &[u8]) -> Option<u32> {
    let word: [u8; 4] = frame.get(..4)?.try_into().ok()?;
    Some(u32::from_be_bytes(word))
}

/// Does this wire tag name an event batch (`EventBatch`, `EventBatchSeq`
/// or `EventBatchMulti`)? Pair with [`peek_tag`] to route frames.
pub const fn is_batch_tag(tag: u32) -> bool {
    tag == Tag::EventBatch as u32
        || tag == Tag::EventBatchSeq as u32
        || tag == Tag::EventBatchMulti as u32
}

/// What routing, dedup and flow accounting need from a batch frame: its
/// header, read without touching a record body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchHeader {
    /// Originating node (for the Multi format: the sending relay).
    pub node: NodeId,
    /// Per-node batch sequence number (`None` on the unsequenced form).
    pub seq: Option<u64>,
    /// Declared record count, already checked against
    /// [`MAX_BATCH_RECORDS`].
    pub count: usize,
}

/// The one walker over batch bytes: reads an `EventBatch` /
/// `EventBatchSeq` / `EventBatchMulti` header, then hands each record to
/// a callback as its origin node and a validated [`RecordView`] borrowing
/// the frame ([`BatchWalk::try_for_each`]).
///
/// [`BatchView::parse`] collects the walk; the ISM walks a frame once,
/// decoding each record straight into a record it reuses. Validation is
/// exhaustive — bounds, descriptor, every field and, last, no trailing
/// bytes — and the walk stops at the first error.
#[derive(Debug)]
pub struct BatchWalk<'a> {
    d: XdrDecoder<'a>,
    header: BatchHeader,
    multi: bool,
}

impl<'a> BatchWalk<'a> {
    /// Read a batch frame's header. The frame must carry a batch tag
    /// (check with [`peek_tag`] / [`is_batch_tag`] first); any other tag
    /// is a [`DecodeError::UnknownTag`] here.
    pub fn new(frame: &'a [u8]) -> Result<BatchWalk<'a>, DecodeError> {
        let mut d = XdrDecoder::new(frame);
        let tag = d.uint()?;
        if !is_batch_tag(tag) {
            return Err(DecodeError::UnknownTag(tag));
        }
        let multi = tag == Tag::EventBatchMulti as u32;
        let node = NodeId(d.uint()?);
        let seq = if tag == Tag::EventBatchSeq as u32 {
            Some(d.uhyper()?)
        } else if multi {
            match d.uint()? {
                0 => None,
                _ => Some(d.uhyper()?),
            }
        } else {
            None
        };
        let count = d.uint()? as usize;
        if count > MAX_BATCH_RECORDS {
            return Err(DecodeError::TooManyRecords {
                count,
                max: MAX_BATCH_RECORDS,
            });
        }
        Ok(BatchWalk {
            d,
            header: BatchHeader { node, seq, count },
            multi,
        })
    }

    /// The frame's header.
    pub fn header(&self) -> BatchHeader {
        self.header
    }

    /// Hand each record in order to `f`, with its origin node — its own
    /// in a Multi-format batch, the header node otherwise. The walk stops
    /// at the first error, the frame's or `f`'s; trailing bytes are the
    /// frame's last possible error.
    pub fn try_for_each<E: From<DecodeError>>(
        mut self,
        mut f: impl FnMut(NodeId, RecordView<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        for _ in 0..self.header.count {
            let node = match self.multi {
                true => NodeId(self.d.uint().map_err(DecodeError::from)?),
                false => self.header.node,
            };
            let view = decode_record_view(&mut self.d).map_err(DecodeError::from)?;
            f(node, view)?;
        }
        self.d.finish().map_err(DecodeError::from)?;
        Ok(())
    }
}

/// A fully-validated *borrowing* view over a batch frame: a
/// [`BatchWalk`] collected ([`Message::decode`] is this parse plus
/// [`BatchView::materialize`]).
///
/// Each record is kept as a [`RecordView`] whose field bytes still point
/// into the arrival buffer — nothing is copied until
/// [`BatchView::materialize`] (or a per-record [`RecordView::materialize`])
/// is called. The ISM never builds one: it decodes while walking.
#[derive(Debug)]
pub struct BatchView<'a> {
    header: BatchHeader,
    records: Vec<RecordView<'a>>,
    /// Per-record origin nodes, parallel to `records`. `None` for the
    /// single-node `EventBatch` / `EventBatchSeq` formats, where every
    /// record originates from the header node.
    nodes: Option<Vec<NodeId>>,
}

impl<'a> BatchView<'a> {
    /// Parse and validate a batch frame without copying record payloads;
    /// see [`BatchWalk`] for what is checked.
    pub fn parse(frame: &'a [u8]) -> Result<BatchView<'a>, DecodeError> {
        let walk = BatchWalk::new(frame)?;
        let header = walk.header();
        let mut records = Vec::with_capacity(header.count.min(4096));
        let mut nodes = walk
            .multi
            .then(|| Vec::with_capacity(header.count.min(4096)));
        walk.try_for_each(|node, view| {
            if let Some(nodes) = nodes.as_mut() {
                nodes.push(node);
            }
            records.push(view);
            Ok::<_, DecodeError>(())
        })?;
        Ok(BatchView {
            header,
            records,
            nodes,
        })
    }

    /// Originating node.
    pub fn node(&self) -> NodeId {
        self.header.node
    }

    /// Per-node batch sequence number (`None` on the unsequenced wire form).
    pub fn seq(&self) -> Option<u64> {
        self.header.seq
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The validated record views, still borrowing the frame.
    pub fn records(&self) -> &[RecordView<'a>] {
        &self.records
    }

    /// Copy the records out into owned [`EventRecord`]s. Records from a
    /// Multi-format batch keep their own origin node; the single-node
    /// formats stamp the header node onto every record.
    pub fn materialize(&self) -> Result<Vec<EventRecord>, DecodeError> {
        let mut out = Vec::with_capacity(self.records.len());
        for (i, rv) in self.records.iter().enumerate() {
            let node = match &self.nodes {
                Some(nodes) => nodes[i],
                None => self.header.node,
            };
            out.push(rv.materialize(node)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, SensorId, Value};

    fn rec(seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(3),
            SensorId(1),
            EventTypeId(7),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::I32(seq as i32), Value::Str(format!("r{seq}"))],
        )
        .unwrap()
    }

    #[test]
    fn hello_round_trip() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        let mut bytes = m.encode();
        bytes[4] ^= 0xff; // clobber magic
        assert!(Message::decode(&bytes).is_err());

        let mut bytes = m.encode();
        bytes[11] = 99; // version -> 99
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn sequenced_batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(u64::MAX - 7),
            records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    fn rec_at(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(1),
            EventTypeId(7),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::I32(seq as i32)],
        )
        .unwrap()
    }

    #[test]
    fn multi_node_batch_round_trips() {
        // A relay batch: header node is the relay, records keep their
        // rewritten subtree ids. Both seq variants must survive.
        for seq in [None, Some(0), Some(u64::MAX - 7)] {
            let m = Message::EventBatch {
                node: NodeId(2),
                seq,
                records: vec![
                    rec_at(0x0502, 0, 100),
                    rec_at(0x0902, 1, 200),
                    rec_at(0x0502, 2, 300),
                ],
            };
            let bytes = m.encode();
            assert_eq!(peek_tag(&bytes), Some(13), "{seq:?}");
            assert!(is_batch_tag(13));
            assert_eq!(Message::decode(&bytes).unwrap(), m, "{seq:?}");
        }
    }

    #[test]
    fn single_node_batch_stays_on_the_compact_wire_format() {
        // When every record shares the header node (the EXS case) the
        // encoder must keep emitting the compact single-node formats.
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(9),
            records: (0..4).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(peek_tag(&m.encode()), Some(7));
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: (0..4).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(peek_tag(&m.encode()), Some(2));
    }

    #[test]
    fn multi_node_batch_view_materializes_per_record_nodes() {
        let m = Message::EventBatch {
            node: NodeId(2),
            seq: Some(5),
            records: vec![rec_at(0x0502, 0, 100), rec_at(0x0902, 1, 200)],
        };
        let bytes = m.encode();
        let view = BatchView::parse(&bytes).unwrap();
        assert_eq!(view.node(), NodeId(2));
        assert_eq!(view.seq(), Some(5));
        assert_eq!(view.len(), 2);
        let records = view.materialize().unwrap();
        assert_eq!(records[0].node, NodeId(0x0502));
        assert_eq!(records[1].node, NodeId(0x0902));
        match Message::decode(&bytes).unwrap() {
            Message::EventBatch { records: owned, .. } => assert_eq!(owned, records),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn v3_credit_messages_round_trip() {
        for m in [
            Message::HelloAck {
                version: VERSION,
                credit: 10_000,
            },
            Message::HelloAck {
                version: VERSION,
                credit: 0,
            },
            Message::BatchAck {
                seq: 42,
                credit: u64::MAX,
            },
            Message::BatchAck { seq: 0, credit: 0 },
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn v1_hello_still_accepted() {
        let m = Message::Hello {
            node: NodeId(4),
            version: MIN_VERSION,
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: vec![],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn batch_count_bound_enforced() {
        // Forge a batch header claiming too many records.
        let mut e = XdrEncoder::new();
        e.uint(2); // EventBatch tag
        e.uint(3); // node
        e.uint((MAX_BATCH_RECORDS + 1) as u32);
        assert!(Message::decode(e.as_bytes()).is_err());
    }

    #[test]
    fn sync_messages_round_trip() {
        for m in [
            Message::SyncPoll {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123),
            },
            Message::SyncReply {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123),
                slave_time: UtcMicros::from_micros(456),
            },
            Message::SyncAdjust {
                round: 5,
                advance_us: -42,
            },
            Message::Shutdown,
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut e = XdrEncoder::new();
        e.uint(77);
        assert_eq!(
            Message::decode(e.as_bytes()),
            Err(DecodeError::UnknownTag(77))
        );
    }

    #[test]
    fn heartbeat_round_trip_and_tag() {
        let m = Message::Heartbeat;
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        // Tag 12 on the wire.
        assert_eq!(&m.encode()[..4], &[0, 0, 0, 12]);
    }

    #[test]
    fn decode_errors_are_typed() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        let mut bytes = m.encode();
        bytes[4] ^= 0xff;
        assert!(matches!(
            Message::decode(&bytes),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bytes = m.encode();
        bytes[11] = 99;
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(99))
        );
        // And the conversion into the kernel-wide error type categorizes.
        let e: BriskError = DecodeError::UnknownTag(5).into();
        assert!(matches!(e, BriskError::Protocol(_)));
        let e: BriskError =
            DecodeError::Xdr(brisk_xdr::DecodeError::Trailing { remaining: 4 }).into();
        assert!(matches!(e, BriskError::Codec(_)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Shutdown.encode();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_frames_rejected() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(5),
            records: vec![rec(0, 1)],
        };
        let bytes = m.encode();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batch_wire_size_is_modest() {
        // 256 six-i32 records must stay near 256 * 56 bytes + small header.
        let records: Vec<EventRecord> = (0..256)
            .map(|i| {
                EventRecord::new(
                    NodeId(1),
                    SensorId(0),
                    EventTypeId(1),
                    i,
                    UtcMicros::from_micros(i as i64),
                    vec![Value::I32(0); 6],
                )
                .unwrap()
            })
            .collect();
        let m = Message::EventBatch {
            node: NodeId(1),
            seq: None,
            records,
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 12 + 256 * 56);
    }

    #[test]
    fn peek_tag_reads_the_wire_tag() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(5),
            records: vec![rec(0, 1)],
        };
        let bytes = m.encode();
        assert_eq!(peek_tag(&bytes), Some(7));
        assert!(is_batch_tag(7) && is_batch_tag(2));
        assert!(!is_batch_tag(1) && !is_batch_tag(8));
        assert_eq!(peek_tag(&bytes[..3]), None);
        assert_eq!(peek_tag(&Message::Heartbeat.encode()), Some(12));
    }

    #[test]
    fn batch_view_matches_owned_decode() {
        for seq in [None, Some(u64::MAX - 7)] {
            let m = Message::EventBatch {
                node: NodeId(3),
                seq,
                records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
            };
            let bytes = m.encode();
            let view = BatchView::parse(&bytes).unwrap();
            assert_eq!(view.node(), NodeId(3));
            assert_eq!(view.seq(), seq);
            assert_eq!(view.len(), 10);
            let Message::EventBatch { records, .. } = Message::decode(&bytes).unwrap() else {
                panic!("not a batch");
            };
            assert_eq!(view.materialize().unwrap(), records);
        }
    }

    #[test]
    fn batch_view_rejects_exactly_what_owned_decode_rejects() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(9),
            records: (0..4).map(|i| rec(i, i as i64)).collect(),
        };
        let bytes = m.encode();
        // Truncations.
        for cut in 0..bytes.len() {
            let owned = Message::decode(&bytes[..cut]).is_ok();
            let view = BatchView::parse(&bytes[..cut]).is_ok();
            assert_eq!(owned, view, "truncated at {cut}");
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(BatchView::parse(&long).is_err());
        // Single-byte corruptions must agree bit-for-bit with the owned
        // path — the two decoders share one implementation and this pins
        // that property at the frame level.
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                let owned = Message::decode(&b).is_ok();
                let view = BatchView::parse(&b).is_ok();
                assert_eq!(owned, view, "byte {i} flipped by {flip:#x}");
            }
        }
    }

    #[test]
    fn batch_view_rejects_non_batch_frames_and_bounds() {
        let hello = Message::Hello {
            node: NodeId(1),
            version: VERSION,
        }
        .encode();
        assert!(matches!(
            BatchView::parse(&hello),
            Err(DecodeError::UnknownTag(1))
        ));
        let mut e = XdrEncoder::new();
        e.uint(2);
        e.uint(3);
        e.uint((MAX_BATCH_RECORDS + 1) as u32);
        assert!(matches!(
            BatchView::parse(e.as_bytes()),
            Err(DecodeError::TooManyRecords { .. })
        ));
    }

    #[test]
    fn the_walk_yields_what_the_view_collects_and_validates_alike() {
        let single = Message::EventBatch {
            node: NodeId(3),
            seq: Some(4),
            records: (0..5).map(|i| rec(i, i as i64)).collect(),
        }
        .encode();
        let mut mixed: Vec<EventRecord> = (0..4).map(|i| rec(i, i as i64)).collect();
        mixed[1].node = NodeId(8);
        let multi = encode_batch(NodeId(1), None, &mixed);
        for bytes in [single, multi] {
            let view = BatchView::parse(&bytes).unwrap();
            let walk = BatchWalk::new(&bytes).unwrap();
            assert_eq!(walk.header().node, view.node());
            assert_eq!(walk.header().seq, view.seq());
            assert_eq!(walk.header().count, view.len());
            let mut walked = Vec::new();
            walk.try_for_each(|node, rv| {
                walked.push(rv.materialize(node)?);
                Ok::<_, DecodeError>(())
            })
            .unwrap();
            assert_eq!(walked, view.materialize().unwrap());
            // Trailing bytes are the walk's last error, after every record.
            let mut long = bytes.clone();
            long.extend_from_slice(&[0, 0, 0, 0]);
            let mut seen = 0;
            let walk = BatchWalk::new(&long).unwrap();
            assert!(walk
                .try_for_each(|_, _| {
                    seen += 1;
                    Ok::<_, DecodeError>(())
                })
                .is_err());
            assert_eq!(seen, view.len());
            // The walk stops at the callback's first error.
            let mut seen = 0;
            let stopped = BatchWalk::new(&bytes).unwrap().try_for_each(|_, _| {
                seen += 1;
                Err(DecodeError::Record("enough".into()))
            });
            assert!(stopped.is_err());
            assert_eq!(seen, 1);
        }
    }

    #[test]
    fn batch_view_records_borrow_the_frame() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: vec![rec(1, 10)],
        };
        let bytes = m.encode();
        let view = BatchView::parse(&bytes).unwrap();
        let range = bytes.as_ptr_range();
        for rv in view.records() {
            let fields = rv.fields_bytes();
            assert!(range.contains(&fields.as_ptr()), "view copied the frame");
        }
    }
}
