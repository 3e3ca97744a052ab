//! Fuzz harness for the wire-message decoder: whatever bytes the network
//! delivers, `Message::decode` must return a typed error — never panic and
//! never allocate proportionally to an attacker-declared length — and the
//! owned and borrowing batch parsers must agree on every batch frame.

use brisk_core::prelude::*;
use brisk_proto::{is_batch_tag, peek_tag, BatchView, Message, MAX_BATCH_RECORDS, VERSION};
use proptest::prelude::*;

/// Decode `bytes` both ways. Neither may panic, and on a batch-tagged
/// frame `Message::decode` and `BatchView::parse` must accept or reject
/// together (the owned decode is built on the view; this is the guard
/// against the two ever being forked again).
fn decode_both_ways(bytes: &[u8]) {
    let owned = Message::decode(bytes);
    let view = BatchView::parse(bytes).and_then(|v| v.materialize());
    if peek_tag(bytes).is_some_and(is_batch_tag) {
        match (owned, view) {
            (Ok(Message::EventBatch { records, .. }), Ok(viewed)) => assert!(
                records_bitwise_eq(&records, &viewed),
                "parsers disagree: owned {records:?}, view {viewed:?}"
            ),
            (Err(_), Err(_)) => {}
            (owned, view) => panic!("parsers disagree: owned {owned:?}, view {view:?}"),
        }
    } else {
        assert!(view.is_err(), "BatchView accepted a non-batch frame");
    }
}

/// Record equality with floats compared by their bits: a flipped byte can
/// decode to a NaN, which both parsers read alike but `==` never equates.
fn records_bitwise_eq(a: &[EventRecord], b: &[EventRecord]) -> bool {
    let value_eq = |p: &Value, q: &Value| match (p, q) {
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => p == q,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.node, x.sensor, x.event_type, x.seq, x.ts)
                == (y.node, y.sensor, y.event_type, y.seq, y.ts)
                && x.fields.len() == y.fields.len()
                && x.fields.iter().zip(&y.fields).all(|(p, q)| value_eq(p, q))
        })
}

/// A pool of valid frames covering every message variant, so the mutation
/// tests start from realistic inputs rather than pure noise.
fn valid_frames() -> Vec<Vec<u8>> {
    let record = EventRecord::new(
        NodeId(3),
        SensorId(1),
        EventTypeId(7),
        42,
        UtcMicros::from_micros(1_000_000),
        vec![Value::I32(-5), Value::Str("x".into())],
    )
    .unwrap();
    [
        Message::Hello {
            node: NodeId(3),
            version: VERSION,
        },
        Message::HelloAck {
            version: VERSION,
            credit: 1024,
        },
        Message::EventBatch {
            node: NodeId(3),
            seq: Some(9),
            records: vec![record.clone()],
        },
        Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: vec![record.clone()],
        },
        // Header node differs from the record's: the relay Multi format.
        Message::EventBatch {
            node: NodeId(1),
            seq: Some(4),
            records: vec![record],
        },
        Message::BatchAck {
            seq: 9,
            credit: 512,
        },
        Message::SyncPoll {
            round: 2,
            sample: 1,
            master_send: UtcMicros::from_micros(5),
        },
        Message::SyncReply {
            round: 2,
            sample: 1,
            master_send: UtcMicros::from_micros(5),
            slave_time: UtcMicros::from_micros(6),
        },
        Message::SyncAdjust {
            round: 2,
            advance_us: -30,
        },
        Message::Shutdown,
        Message::Heartbeat,
    ]
    .iter()
    .map(Message::encode)
    .collect()
}

proptest! {
    /// Pure noise: decode must return Ok or Err, never panic.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_both_ways(&bytes);
    }

    /// Single-byte corruption of a valid frame — the fault plane's
    /// `Corrupt` fault — must decode to Ok (the flip landed somewhere
    /// harmless) or a typed Err, never panic.
    #[test]
    fn decode_survives_flipped_byte(
        which in any::<usize>(),
        pos in any::<usize>(),
        xor in 1..=255u8,
    ) {
        let frames = valid_frames();
        let mut frame = frames[which % frames.len()].clone();
        if !frame.is_empty() {
            let pos = pos % frame.len();
            frame[pos] ^= xor;
        }
        decode_both_ways(&frame);
    }

    /// Truncation at every possible point — the fault plane's `Truncate`
    /// fault — must yield a typed error, never panic.
    #[test]
    fn decode_survives_truncation(which in any::<usize>(), cut in any::<usize>()) {
        let frames = valid_frames();
        let frame = &frames[which % frames.len()];
        let cut = cut % (frame.len() + 1);
        decode_both_ways(&frame[..cut]);
    }
}

/// A batch header declaring `u32::MAX` records must be rejected from the
/// header alone — before any proportional allocation.
#[test]
fn declared_length_bomb_is_rejected_without_allocation() {
    // Hand-build the smallest EventBatch prefix: tag, node, seq-flag,
    // seq, then a count far past MAX_BATCH_RECORDS with no body behind it.
    let valid = Message::EventBatch {
        node: NodeId(1),
        seq: Some(1),
        records: vec![],
    }
    .encode();
    let mut bomb = valid;
    let count_off = bomb.len() - 4; // trailing u32 record count
    bomb[count_off..].copy_from_slice(&u32::MAX.to_be_bytes());
    let err = Message::decode(&bomb).unwrap_err();
    assert!(
        err.to_string().contains(&MAX_BATCH_RECORDS.to_string()),
        "expected the record-count bound in the error, got: {err}"
    );
}
