//! Golden wire vectors: byte-exact fixtures for every tag and variant of
//! the v1/v2/v3 transfer protocol.
//!
//! The hex strings were produced by the encoder as it stood *before* the
//! owned batch decode was rebuilt on `BatchView` (PR 14), so they pin
//! three things at once: `encode()` still emits the same bytes, `decode()`
//! still reads them back, and — for batches — the borrowing parser yields
//! exactly the owned records. A later change that collapses the paired
//! v1/v2/v3 tags must keep every fixture here decoding to the same
//! message. The credit-less acks (tags 8 and 9) are retired: their
//! fixtures stay, and must now fail to decode as an unknown tag.

use brisk_core::prelude::*;
use brisk_proto::{is_batch_tag, peek_tag, BatchView, DecodeError, Message};

/// A record exercising every system field kind that crosses the wire:
/// plain values, `X_REASON`, `X_CONSEQ`, `X_HLC` and `X_TRACE`.
fn rich_record(node: u32, seq: u64) -> EventRecord {
    let trace = TraceContext::with_stamps(
        0x0123_4567_89ab_cdef,
        vec![
            (TraceStage::Notice, UtcMicros::from_micros(1_000_000)),
            (TraceStage::ExsScoop, UtcMicros::from_micros(1_000_040)),
            (TraceStage::BatchSend, UtcMicros::from_micros(1_000_055)),
        ],
    )
    .unwrap();
    EventRecord::builder(EventTypeId(7))
        .field(Value::I32(-5))
        .field(Value::Str("brisk".into()))
        .reason(CorrelationId(42))
        .conseq(CorrelationId(43))
        .hlc(HlcStamp::new(UtcMicros::from_micros(1_000_040), 3))
        .field(Value::Trace(trace))
        .build(
            NodeId(node),
            SensorId(1),
            seq,
            UtcMicros::from_micros(1_000_000),
        )
        .unwrap()
}

fn plain_record(node: u32, seq: u64) -> EventRecord {
    EventRecord::new(
        NodeId(node),
        SensorId(0),
        EventTypeId(1),
        seq,
        UtcMicros::from_micros(-9),
        vec![Value::U64(seq)],
    )
    .unwrap()
}

/// What a fixture decodes to.
type Decoded = std::result::Result<Message, DecodeError>;

fn batch(node: u32, seq: Option<u64>, records: Vec<EventRecord>) -> Decoded {
    Ok(Message::EventBatch {
        node: NodeId(node),
        seq,
        records,
    })
}

/// `(name, wire tag, what the fixture decodes to, fixture hex)`.
fn vectors() -> Vec<(&'static str, u32, Decoded, &'static str)> {
    let hello = |version| {
        Ok(Message::Hello {
            node: NodeId(0x0102_0304),
            version,
        })
    };
    vec![
        ("hello_v1", 1, hello(1), "000000014252534b0000000101020304"),
        ("hello_v2", 1, hello(2), "000000014252534b0000000201020304"),
        ("hello_v3", 1, hello(3), "000000014252534b0000000301020304"),
        (
            "hello_ack",
            9,
            Err(DecodeError::UnknownTag(9)),
            "0000000900000002",
        ),
        (
            "hello_ack_credit",
            10,
            Ok(Message::HelloAck {
                version: 3,
                credit: 4096,
            }),
            "0000000a000000030000000000001000",
        ),
        (
            "batch_v1",
            2,
            batch(3, None, vec![rich_record(3, 11), plain_record(3, 12)]),
            BATCH_V1,
        ),
        (
            "batch_v1_empty",
            2,
            batch(3, None, vec![]),
            "000000020000000300000000",
        ),
        (
            "batch_seq",
            7,
            batch(3, Some(0x1_0000_0002), vec![rich_record(3, 11)]),
            BATCH_SEQ,
        ),
        (
            "batch_multi",
            13,
            batch(
                2,
                None,
                vec![rich_record(0x0502, 1), plain_record(0x0902, 2)],
            ),
            BATCH_MULTI,
        ),
        (
            "batch_multi_seq",
            13,
            batch(
                2,
                Some(77),
                vec![plain_record(0x0502, 1), plain_record(0x0902, 2)],
            ),
            BATCH_MULTI_SEQ,
        ),
        (
            "batch_ack",
            8,
            Err(DecodeError::UnknownTag(8)),
            "00000008000000000000004d",
        ),
        (
            "batch_ack_credit",
            11,
            Ok(Message::BatchAck { seq: 77, credit: 0 }),
            "0000000b000000000000004d0000000000000000",
        ),
        (
            "sync_poll",
            3,
            Ok(Message::SyncPoll {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123_456_789),
            }),
            "0000000300000000000000050000000200000000075bcd15",
        ),
        (
            "sync_reply",
            4,
            Ok(Message::SyncReply {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123_456_789),
                slave_time: UtcMicros::from_micros(-1),
            }),
            "0000000400000000000000050000000200000000075bcd15ffffffffffffffff",
        ),
        (
            "sync_adjust",
            5,
            Ok(Message::SyncAdjust {
                round: 5,
                advance_us: -42,
            }),
            "000000050000000000000005ffffffffffffffd6",
        ),
        ("shutdown", 6, Ok(Message::Shutdown), "00000006"),
        ("heartbeat", 12, Ok(Message::Heartbeat), "0000000c"),
    ]
}

const BATCH_V1: &str = "\
    0000000200000003000000020000000100000007000000000000000b00000000 \
    000f42400000000786040b0e0f111000fffffffb00000005627269736b000000 \
    000000000000002a000000000000002b00000000000f42680000000301234567 \
    89abcdef000000030000000000000000000f42400000000100000000000f4268 \
    0000000200000000000f42770000000000000001000000000000000cffffffff \
    fffffff70000000201070000000000000000000c";
const BATCH_SEQ: &str = "\
    0000000700000003000000010000000200000001000000010000000700000000 \
    0000000b00000000000f42400000000786040b0e0f111000fffffffb00000005 \
    627269736b000000000000000000002a000000000000002b00000000000f4268 \
    000000030123456789abcdef000000030000000000000000000f424000000001 \
    00000000000f42680000000200000000000f4277";
const BATCH_MULTI: &str = "\
    0000000d00000002000000000000000200000502000000010000000700000000 \
    0000000100000000000f42400000000786040b0e0f111000fffffffb00000005 \
    627269736b000000000000000000002a000000000000002b00000000000f4268 \
    000000030123456789abcdef000000030000000000000000000f424000000001 \
    00000000000f42680000000200000000000f4277000009020000000000000001 \
    0000000000000002fffffffffffffff700000002010700000000000000000002";
const BATCH_MULTI_SEQ: &str = "\
    0000000d0000000200000001000000000000004d000000020000050200000000 \
    000000010000000000000001fffffffffffffff7000000020107000000000000 \
    000000010000090200000000000000010000000000000002fffffffffffffff7 \
    00000002010700000000000000000002";

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    assert_eq!(digits.len() % 2, 0, "odd hex length");
    digits.chunks(2).map(|p| p[0] << 4 | p[1]).collect()
}

#[test]
fn every_variant_encodes_to_and_decodes_from_its_fixture() {
    for (name, tag, decoded, hex) in vectors() {
        let fixture = from_hex(hex);
        assert_eq!(peek_tag(&fixture), Some(tag), "{name}: wire tag");
        assert_eq!(Message::decode(&fixture), decoded, "{name}: decode");
        let Ok(msg) = decoded else {
            continue; // a retired tag: decode-only, nothing encodes it
        };
        assert_eq!(to_hex(&msg.encode()), to_hex(&fixture), "{name}: encode");
        if let Message::EventBatch { node, seq, records } = &msg {
            assert!(is_batch_tag(tag), "{name}");
            let view = BatchView::parse(&fixture).unwrap();
            assert_eq!((view.node(), view.seq()), (*node, *seq), "{name}: header");
            assert_eq!(view.len(), records.len(), "{name}: count");
            assert_eq!(&view.materialize().unwrap(), records, "{name}: view");
        } else {
            assert!(!is_batch_tag(tag), "{name}");
            assert!(BatchView::parse(&fixture).is_err(), "{name}: not a batch");
        }
    }
}

#[test]
fn fixtures_cover_every_wire_tag() {
    let mut tags: Vec<u32> = vectors()
        .iter()
        .filter_map(|v| peek_tag(&from_hex(v.3)))
        .collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags, (1..=13).collect::<Vec<u32>>());
}
