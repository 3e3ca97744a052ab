//! XDR encoding of BRISK's dynamically-typed values and records.
//!
//! XDR has no types narrower than 32 bits, so the narrow integer types are
//! promoted onto `int`/`unsigned int` on the wire (RFC 1832's convention for
//! smaller-than-word quantities); the receiver narrows them back using the
//! record descriptor and rejects out-of-range values, so a round trip is
//! exact. The descriptor itself travels once per record in packed-nibble
//! form (see [`brisk_core::descriptor::RecordDescriptor::pack`]) as a
//! variable-length opaque — the "meta-information header compressed" of
//! §3.4.

use crate::{XdrDecoder, XdrEncoder};
#[cfg(test)]
use brisk_core::HlcStamp;
use brisk_core::{
    BriskError, EventRecord, EventTypeId, NodeId, RecordDescriptor, Result, SensorId, UtcMicros,
    Value, ValueType,
};

/// Upper bound accepted for one variable-length field (string or bytes).
/// Instrumentation payloads are small; the bound keeps a corrupt stream
/// from allocating unboundedly.
pub const MAX_FIELD_BYTES: usize = 1 << 20;

/// Encode one field value.
pub fn encode_value(v: &Value, e: &mut XdrEncoder) {
    match v {
        Value::I8(x) => e.int(*x as i32),
        Value::U8(x) => e.uint(*x as u32),
        Value::I16(x) => e.int(*x as i32),
        Value::U16(x) => e.uint(*x as u32),
        Value::I32(x) => e.int(*x),
        Value::U32(x) => e.uint(*x),
        Value::I64(x) => e.hyper(*x),
        Value::U64(x) => e.uhyper(*x),
        Value::F32(x) => e.float(*x),
        Value::F64(x) => e.double(*x),
        Value::Bool(x) => e.boolean(*x),
        Value::Str(s) => e.string(s),
        Value::Bytes(b) => e.opaque(b),
        Value::Ts(t) => e.hyper(t.as_micros()),
        Value::Reason(id) => e.uhyper(id.raw()),
        Value::Conseq(id) => e.uhyper(id.raw()),
        Value::Trace(ctx) => {
            e.uhyper(ctx.trace_id);
            e.uint(ctx.stamps().len() as u32);
            for &(stage, ts) in ctx.stamps() {
                e.uint(stage.code() as u32);
                e.hyper(ts.as_micros());
            }
            &mut *e
        }
        Value::Hlc(s) => {
            e.hyper(s.physical.as_micros());
            e.uint(s.logical)
        }
    };
}

/// Decode one field value of the given type. Delegates to the borrowing
/// [`crate::view::decode_value_ref`] — a single decode implementation
/// keeps the owned and view paths from ever diverging on what they
/// accept — and pays the payload copy here.
pub fn decode_value(vt: ValueType, d: &mut XdrDecoder<'_>) -> Result<Value> {
    Ok(crate::view::decode_value_ref(vt, d)?.into_owned())
}

/// Encode a record *without* its node id — within a batch the node identity
/// is carried once at the connection/batch level ("minimizing the slack in
/// instrumentation data messages", §3.4).
pub fn encode_record_body(rec: &EventRecord, e: &mut XdrEncoder) {
    e.uint(rec.sensor.raw());
    e.uint(rec.event_type.raw());
    e.uhyper(rec.seq);
    e.hyper(rec.ts.as_micros());
    e.opaque(&rec.descriptor().pack());
    for f in &rec.fields {
        encode_value(f, e);
    }
}

/// Decode a record body; the node id comes from the enclosing batch.
pub fn decode_record_body(node: NodeId, d: &mut XdrDecoder<'_>) -> Result<EventRecord> {
    let sensor = SensorId(d.uint()?);
    let event_type = EventTypeId(d.uint()?);
    let seq = d.uhyper()?;
    let ts = UtcMicros::from_micros(d.hyper()?);
    let packed = d.opaque_bounded(16)?;
    let (desc, used) = RecordDescriptor::unpack(packed)?;
    if used != packed.len() {
        return Err(BriskError::Codec(
            "descriptor opaque has trailing bytes".into(),
        ));
    }
    let mut fields = Vec::with_capacity(desc.len());
    for &vt in desc.types() {
        fields.push(decode_value(vt, d)?);
    }
    EventRecord::new(node, sensor, event_type, seq, ts, fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::trace::{TraceContext, TraceStage};
    use brisk_core::{CorrelationId, MAX_TRACE_STAMPS};

    fn rec(fields: Vec<Value>) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(2),
            EventTypeId(3),
            4,
            UtcMicros::from_micros(5),
            fields,
        )
        .unwrap()
    }

    #[test]
    fn every_value_type_round_trips() {
        let values = vec![
            Value::I8(i8::MIN),
            Value::U8(u8::MAX),
            Value::I16(i16::MIN),
            Value::U16(u16::MAX),
            Value::I32(-1),
            Value::U32(u32::MAX),
            Value::I64(i64::MIN),
            Value::U64(u64::MAX),
            Value::F32(3.5),
            Value::F64(-2.25),
            Value::Bool(true),
            Value::Str("snow ❄".into()),
            Value::Bytes(vec![1, 2, 3, 4, 5]),
            Value::Ts(UtcMicros::from_micros(-77)),
            Value::Reason(CorrelationId(9)),
            Value::Conseq(CorrelationId(10)),
            Value::Trace({
                let mut c = TraceContext::origin(0xfeed_f00d, UtcMicros::from_micros(12));
                c.stamp(TraceStage::PumpRecv, UtcMicros::from_micros(40));
                c
            }),
            Value::Hlc(HlcStamp::new(UtcMicros::from_micros(-3), u32::MAX)),
        ];
        for v in values {
            let mut e = XdrEncoder::new();
            encode_value(&v, &mut e);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len() % 4, 0, "alignment for {v:?}");
            let mut d = XdrDecoder::new(&bytes);
            let back = decode_value(v.value_type(), &mut d).unwrap();
            assert_eq!(back, v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn narrow_types_reject_out_of_range() {
        // Hand-encode an int 300 and try to decode it as U8 / I8.
        let mut e = XdrEncoder::new();
        e.uint(300);
        let bytes = e.into_bytes();
        assert!(decode_value(ValueType::U8, &mut XdrDecoder::new(&bytes)).is_err());
        let mut e = XdrEncoder::new();
        e.int(40_000);
        let bytes = e.into_bytes();
        assert!(decode_value(ValueType::I16, &mut XdrDecoder::new(&bytes)).is_err());
    }

    #[test]
    fn record_body_round_trips() {
        let r = rec(vec![
            Value::I32(7),
            Value::Str("tick".into()),
            Value::Reason(CorrelationId(1000)),
            Value::Ts(UtcMicros::from_secs(1)),
        ]);
        let mut e = XdrEncoder::new();
        encode_record_body(&r, &mut e);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        let back = decode_record_body(NodeId(1), &mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn traced_record_body_round_trips() {
        let mut ctx = TraceContext::origin(42, UtcMicros::from_micros(5));
        ctx.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(9));
        ctx.stamp(TraceStage::BatchSend, UtcMicros::from_micros(11));
        let r = rec(vec![
            Value::I32(7),
            Value::Trace(ctx),
            Value::Str("tail".into()),
        ]);
        let mut e = XdrEncoder::new();
        encode_record_body(&r, &mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len() % 4, 0);
        let mut d = XdrDecoder::new(&bytes);
        let back = decode_record_body(NodeId(1), &mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn oversized_trace_stamp_count_rejected() {
        let mut e = XdrEncoder::new();
        e.uhyper(1); // trace id
        e.uint((MAX_TRACE_STAMPS + 1) as u32);
        let bytes = e.into_bytes();
        assert!(decode_value(ValueType::Trace, &mut XdrDecoder::new(&bytes)).is_err());
    }

    #[test]
    fn bad_trace_stage_code_rejected() {
        let mut e = XdrEncoder::new();
        e.uhyper(1);
        e.uint(1);
        e.uint(99); // no such stage
        e.hyper(0);
        let bytes = e.into_bytes();
        assert!(decode_value(ValueType::Trace, &mut XdrDecoder::new(&bytes)).is_err());
    }

    #[test]
    fn record_body_size_six_i32_near_paper_figure() {
        // Paper: 40 bytes per record including timestamp and type info.
        let r = rec(vec![Value::I32(0); 6]);
        let mut e = XdrEncoder::new();
        encode_record_body(&r, &mut e);
        let n = e.len();
        assert_eq!(n % 4, 0);
        // sensor 4 + ety 4 + seq 8 + ts 8 + opaque(4 len + 4 padded) + 24 = 56.
        // The extra over the paper's 40 is seq (8) + sensor id (4) + length
        // word (4); documented in EXPERIMENTS.md.
        assert_eq!(n, 56);
    }

    #[test]
    fn trailing_descriptor_bytes_rejected() {
        let r = rec(vec![Value::I32(0)]);
        let mut e = XdrEncoder::new();
        e.uint(r.sensor.raw());
        e.uint(r.event_type.raw());
        e.uhyper(r.seq);
        e.hyper(r.ts.as_micros());
        let mut packed = r.descriptor().pack().to_vec();
        packed.push(0); // extra junk inside the descriptor opaque
        e.opaque(&packed);
        encode_value(&r.fields[0], &mut e);
        let bytes = e.into_bytes();
        assert!(decode_record_body(NodeId(1), &mut XdrDecoder::new(&bytes)).is_err());
    }

    #[test]
    fn truncated_record_body_rejected() {
        let r = rec(vec![Value::Str("abcdefg".into())]);
        let mut e = XdrEncoder::new();
        encode_record_body(&r, &mut e);
        let bytes = e.into_bytes();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(
                decode_record_body(NodeId(1), &mut XdrDecoder::new(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_string_field_rejected() {
        // Forge a string field claiming MAX_FIELD_BYTES + 1.
        let mut e = XdrEncoder::new();
        e.uint((MAX_FIELD_BYTES + 1) as u32);
        let bytes = e.into_bytes();
        assert!(decode_value(ValueType::Str, &mut XdrDecoder::new(&bytes)).is_err());
    }
}
