//! Borrowing (zero-copy) decode: values and record bodies as *views* over
//! the arrival buffer.
//!
//! The owned decode path ([`crate::values::decode_value`]) allocates for
//! every string, byte blob and record; on the ISM's ingest hot path that
//! is the dominant cost. The view path decodes the same wire bytes into
//! [`ValueRef`]/[`RecordView`], whose variable-size
//! payloads stay borrowed from the frame they arrived in. A record is
//! *validated* where the frame enters the system (the pump) without
//! copying anything, then *materialized* exactly once, downstream, where
//! ownership is actually needed — into a fresh
//! [`brisk_core::EventRecord`] or over one already delivered
//! ([`RecordView::materialize_into`]) — so each payload byte is copied at
//! most once end-to-end.
//!
//! Validation is exact: a body [`decode_record_view`] accepts is precisely
//! a body [`crate::values::decode_value`]-based decoding accepts (the
//! owned path delegates to this module), so frame-quarantine semantics do
//! not change between the two.
//!
//! Like the rest of the decode path this is a hostile-input boundary:
//! panic-free by construction.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::values::MAX_FIELD_BYTES;
use crate::XdrDecoder;
use brisk_core::trace::{TraceContext, TraceStage};
use brisk_core::{
    BriskError, CorrelationId, EventRecord, EventTypeId, HlcStamp, NodeId, RecordDescriptor,
    Result, SensorId, UtcMicros, Value, ValueType, MAX_TRACE_STAMPS,
};

/// One decoded field whose variable-size payload borrows the input buffer.
///
/// Mirrors [`brisk_core::Value`] variant for variant; `Str` and `Bytes`
/// borrow. `Trace` is owned — it is tiny, rare (one record in N is
/// sampled) and mutated downstream anyway.
#[derive(Clone, PartialEq, Debug)]
pub enum ValueRef<'a> {
    /// Signed 8-bit integer.
    I8(i8),
    /// Unsigned 8-bit integer.
    U8(u8),
    /// Signed 16-bit integer.
    I16(i16),
    /// Unsigned 16-bit integer.
    U16(u16),
    /// Signed 32-bit integer.
    I32(i32),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string, borrowed from the arrival buffer.
    Str(&'a str),
    /// Raw bytes, borrowed from the arrival buffer.
    Bytes(&'a [u8]),
    /// Embedded synchronized timestamp (`X_TS`).
    Ts(UtcMicros),
    /// Reason marker (`X_REASON`).
    Reason(CorrelationId),
    /// Consequence marker (`X_CONSEQ`).
    Conseq(CorrelationId),
    /// Self-tracing context (`X_TRACE`).
    Trace(TraceContext),
    /// Hybrid logical clock stamp (`X_HLC`).
    Hlc(HlcStamp),
}

impl ValueRef<'_> {
    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            ValueRef::I8(_) => ValueType::I8,
            ValueRef::U8(_) => ValueType::U8,
            ValueRef::I16(_) => ValueType::I16,
            ValueRef::U16(_) => ValueType::U16,
            ValueRef::I32(_) => ValueType::I32,
            ValueRef::U32(_) => ValueType::U32,
            ValueRef::I64(_) => ValueType::I64,
            ValueRef::U64(_) => ValueType::U64,
            ValueRef::F32(_) => ValueType::F32,
            ValueRef::F64(_) => ValueType::F64,
            ValueRef::Bool(_) => ValueType::Bool,
            ValueRef::Str(_) => ValueType::Str,
            ValueRef::Bytes(_) => ValueType::Bytes,
            ValueRef::Ts(_) => ValueType::Ts,
            ValueRef::Reason(_) => ValueType::Reason,
            ValueRef::Conseq(_) => ValueType::Conseq,
            ValueRef::Trace(_) => ValueType::Trace,
            ValueRef::Hlc(_) => ValueType::Hlc,
        }
    }

    /// Copy into an owned [`Value`] — the one copy a payload byte takes.
    pub fn into_owned(self) -> Value {
        match self {
            ValueRef::I8(v) => Value::I8(v),
            ValueRef::U8(v) => Value::U8(v),
            ValueRef::I16(v) => Value::I16(v),
            ValueRef::U16(v) => Value::U16(v),
            ValueRef::I32(v) => Value::I32(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::F32(v) => Value::F32(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
            ValueRef::Ts(t) => Value::Ts(t),
            ValueRef::Reason(id) => Value::Reason(id),
            ValueRef::Conseq(id) => Value::Conseq(id),
            ValueRef::Trace(ctx) => Value::Trace(ctx),
            ValueRef::Hlc(s) => Value::Hlc(s),
        }
    }
}

/// Decode one field value of the given type as a borrowing view. This is
/// the single decode implementation: the owned path wraps it with
/// [`ValueRef::into_owned`].
pub fn decode_value_ref<'a>(vt: ValueType, d: &mut XdrDecoder<'a>) -> Result<ValueRef<'a>> {
    fn narrow<T: TryFrom<i32>>(v: i32, vt: ValueType) -> Result<T> {
        T::try_from(v)
            .map_err(|_| BriskError::Codec(format!("value {v} out of range for field type {vt}")))
    }
    fn narrow_u<T: TryFrom<u32>>(v: u32, vt: ValueType) -> Result<T> {
        T::try_from(v)
            .map_err(|_| BriskError::Codec(format!("value {v} out of range for field type {vt}")))
    }
    Ok(match vt {
        ValueType::I8 => ValueRef::I8(narrow(d.int()?, vt)?),
        ValueType::U8 => ValueRef::U8(narrow_u(d.uint()?, vt)?),
        ValueType::I16 => ValueRef::I16(narrow(d.int()?, vt)?),
        ValueType::U16 => ValueRef::U16(narrow_u(d.uint()?, vt)?),
        ValueType::I32 => ValueRef::I32(d.int()?),
        ValueType::U32 => ValueRef::U32(d.uint()?),
        ValueType::I64 => ValueRef::I64(d.hyper()?),
        ValueType::U64 => ValueRef::U64(d.uhyper()?),
        ValueType::F32 => ValueRef::F32(d.float()?),
        ValueType::F64 => ValueRef::F64(d.double()?),
        ValueType::Bool => ValueRef::Bool(d.boolean()?),
        ValueType::Str => ValueRef::Str({
            let bytes = d.opaque_bounded(MAX_FIELD_BYTES)?;
            std::str::from_utf8(bytes)
                .map_err(|e| BriskError::Codec(format!("invalid UTF-8 string field: {e}")))?
        }),
        ValueType::Bytes => ValueRef::Bytes(d.opaque_bounded(MAX_FIELD_BYTES)?),
        ValueType::Ts => ValueRef::Ts(UtcMicros::from_micros(d.hyper()?)),
        ValueType::Reason => ValueRef::Reason(CorrelationId(d.uhyper()?)),
        ValueType::Conseq => ValueRef::Conseq(CorrelationId(d.uhyper()?)),
        ValueType::Trace => {
            let trace_id = d.uhyper()?;
            let count = d.uint()? as usize;
            if count > MAX_TRACE_STAMPS {
                return Err(BriskError::Codec(format!(
                    "trace stamp count {count} exceeds {MAX_TRACE_STAMPS}"
                )));
            }
            let mut stamps = Vec::with_capacity(count);
            for _ in 0..count {
                let code = d.uint()?;
                let stage = u8::try_from(code)
                    .map_err(|_| BriskError::Codec(format!("trace stage code {code} too wide")))
                    .and_then(TraceStage::from_code)?;
                stamps.push((stage, UtcMicros::from_micros(d.hyper()?)));
            }
            ValueRef::Trace(TraceContext::with_stamps(trace_id, stamps)?)
        }
        ValueType::Hlc => {
            let physical = UtcMicros::from_micros(d.hyper()?);
            let logical = d.uint()?;
            ValueRef::Hlc(HlcStamp::new(physical, logical))
        }
    })
}

/// A fully *validated* record body whose field payloads still live in the
/// arrival buffer.
///
/// Produced by [`decode_record_view`]. The header fields are plain values
/// (they are fixed-size anyway); the field region is kept as the raw
/// validated bytes plus the descriptor needed to walk them again, so the
/// view is `Copy`-cheap to pass around and a batch of views costs one
/// `Vec`, not one allocation per string field.
#[derive(Clone, Debug)]
pub struct RecordView<'a> {
    /// The internal sensor within the originating node.
    pub sensor: SensorId,
    /// Application-defined event type.
    pub event_type: EventTypeId,
    /// Per-sensor sequence number.
    pub seq: u64,
    /// Record timestamp (raw local or synchronized, per pipeline stage).
    pub ts: UtcMicros,
    desc: RecordDescriptor,
    fields: &'a [u8],
}

/// Decode one record body as a view, fully validating its structure and
/// content. A body this accepts is exactly a body the owned
/// [`crate::values::decode_record_body`] accepts, with the same errors —
/// the frame-quarantine boundary behaves identically on both paths.
pub fn decode_record_view<'a>(d: &mut XdrDecoder<'a>) -> Result<RecordView<'a>> {
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
    let start = d.position();
    for &vt in desc.types() {
        // The walk validates everything (ranges, UTF-8, trace stages) and
        // throws the value away; payloads are not copied.
        decode_value_ref(vt, d)?;
    }
    let fields = &d.input()[start..d.position()];
    Ok(RecordView {
        sensor,
        event_type,
        seq,
        ts,
        desc,
        fields,
    })
}

impl<'a> RecordView<'a> {
    /// The record's shape.
    pub fn descriptor(&self) -> &RecordDescriptor {
        &self.desc
    }

    /// Number of payload fields.
    pub fn num_fields(&self) -> usize {
        self.desc.len()
    }

    /// The raw (already-validated) field region, still borrowing the
    /// arrival buffer. Exposed so callers can assert the zero-copy
    /// property and so re-encoders can splice the bytes through.
    pub fn fields_bytes(&self) -> &'a [u8] {
        self.fields
    }

    /// Iterate the field values as borrowing views. The region was
    /// validated at construction, so decode errors here are unreachable
    /// in practice; they are still surfaced rather than unwrapped.
    pub fn values(&self) -> impl Iterator<Item = Result<ValueRef<'a>>> + '_ {
        let mut d = XdrDecoder::new(self.fields);
        self.desc
            .types()
            .iter()
            .map(move |&vt| decode_value_ref(vt, &mut d))
    }

    /// Materialize an owned [`EventRecord`]. `node` comes from the
    /// enclosing batch.
    pub fn materialize(&self, node: NodeId) -> Result<EventRecord> {
        let mut rec = EventRecord {
            fields: Vec::with_capacity(self.desc.len()),
            ..EventRecord::default()
        };
        self.materialize_into(node, &mut rec)?;
        Ok(rec)
    }

    /// Overwrite `rec` with this record — the single end-to-end copy of
    /// the payload bytes. `rec` is a shell: a record already delivered,
    /// whose `fields` capacity is reused, so a record no wider than the
    /// shell's costs no allocation. On error `rec` holds a partial record.
    ///
    /// [`decode_record_view`] already validated the region, so fixed-width
    /// fields are read straight into [`Value`] (the narrow integers were
    /// range-checked there, so their casts are exact); only the variable
    /// and composite arms go through [`decode_value_ref`]. A short read is
    /// still an error, never a panic.
    pub fn materialize_into(&self, node: NodeId, rec: &mut EventRecord) -> Result<()> {
        rec.node = node;
        rec.sensor = self.sensor;
        rec.event_type = self.event_type;
        rec.seq = self.seq;
        rec.ts = self.ts;
        let fields = &mut rec.fields;
        fields.clear();
        fields.reserve(self.desc.len());
        let mut d = XdrDecoder::new(self.fields);
        for &vt in self.desc.types() {
            fields.push(match vt {
                ValueType::I8 => Value::I8(d.int()? as i8),
                ValueType::U8 => Value::U8(d.uint()? as u8),
                ValueType::I16 => Value::I16(d.int()? as i16),
                ValueType::U16 => Value::U16(d.uint()? as u16),
                ValueType::I32 => Value::I32(d.int()?),
                ValueType::U32 => Value::U32(d.uint()?),
                ValueType::I64 => Value::I64(d.hyper()?),
                ValueType::U64 => Value::U64(d.uhyper()?),
                ValueType::F32 => Value::F32(d.float()?),
                ValueType::F64 => Value::F64(d.double()?),
                ValueType::Bool => Value::Bool(d.boolean()?),
                ValueType::Reason => Value::Reason(CorrelationId(d.uhyper()?)),
                ValueType::Conseq => Value::Conseq(CorrelationId(d.uhyper()?)),
                ValueType::Hlc => {
                    let physical = UtcMicros::from_micros(d.hyper()?);
                    Value::Hlc(HlcStamp::new(physical, d.uint()?))
                }
                ValueType::Str | ValueType::Bytes | ValueType::Trace | ValueType::Ts => {
                    decode_value_ref(vt, &mut d)?.into_owned()
                }
            });
        }
        // The descriptor holds at most MAX_FIELDS types, so the field-count
        // check `EventRecord::new` would repeat cannot fail.
        Ok(d.finish()?)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::values::{decode_record_body, encode_record_body};
    use crate::XdrEncoder;

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

    fn encoded(r: &EventRecord) -> Vec<u8> {
        let mut e = XdrEncoder::new();
        encode_record_body(r, &mut e);
        e.into_bytes()
    }

    #[test]
    fn view_materializes_exactly_what_owned_decode_produces() {
        let mut ctx = TraceContext::origin(42, UtcMicros::from_micros(5));
        ctx.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(9));
        let r = rec(vec![
            Value::I32(7),
            Value::Str("tick ❄".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Reason(CorrelationId(1000)),
            Value::Ts(UtcMicros::from_secs(1)),
            Value::Trace(ctx),
        ]);
        let bytes = encoded(&r);
        let mut d = XdrDecoder::new(&bytes);
        let view = decode_record_view(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(view.seq, r.seq);
        assert_eq!(view.ts, r.ts);
        assert_eq!(view.num_fields(), r.fields.len());
        assert_eq!(view.materialize(NodeId(1)).unwrap(), r);
    }

    #[test]
    fn materialize_reads_every_field_type_back() {
        let values = [
            Value::I8(i8::MIN),
            Value::U8(u8::MAX),
            Value::I16(i16::MIN),
            Value::U16(u16::MAX),
            Value::I32(i32::MIN),
            Value::U32(u32::MAX),
            Value::I64(i64::MIN),
            Value::U64(u64::MAX),
            Value::F32(-3.5),
            Value::F64(2.25),
            Value::Bool(true),
            Value::Str("snow ❄".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::Ts(UtcMicros::from_micros(-77)),
            Value::Reason(CorrelationId(9)),
            Value::Conseq(CorrelationId(u64::MAX)),
            Value::Trace(TraceContext::origin(7, UtcMicros::from_micros(3))),
            Value::Hlc(HlcStamp::new(UtcMicros::from_micros(-321), u32::MAX)),
        ];
        for fields in values.chunks(brisk_core::descriptor::MAX_FIELDS) {
            let r = rec(fields.to_vec());
            let bytes = encoded(&r);
            let view = decode_record_view(&mut XdrDecoder::new(&bytes)).unwrap();
            assert_eq!(view.materialize(NodeId(1)).unwrap(), r);
        }
    }

    #[test]
    fn materialize_into_a_shell_reuses_its_fields_and_overwrites_the_rest() {
        let wide = rec(vec![Value::Str("wide".into()), Value::I64(1), Value::U8(2)]);
        let narrow = EventRecord {
            node: NodeId(9),
            seq: 77,
            ..rec(vec![Value::I32(5)])
        };
        let mut shell = wide.clone();
        let capacity = shell.fields.capacity();
        let bytes = encoded(&narrow);
        let view = decode_record_view(&mut XdrDecoder::new(&bytes)).unwrap();
        view.materialize_into(NodeId(9), &mut shell).unwrap();
        assert_eq!(shell, narrow);
        assert_eq!(
            shell.fields.capacity(),
            capacity,
            "the shell's vector is reused"
        );
    }

    #[test]
    fn view_values_borrow_the_input_buffer() {
        let r = rec(vec![
            Value::Str("borrowed".into()),
            Value::Bytes(vec![9; 8]),
        ]);
        let bytes = encoded(&r);
        let view = decode_record_view(&mut XdrDecoder::new(&bytes)).unwrap();
        let vals: Vec<ValueRef<'_>> = view.values().map(|v| v.unwrap()).collect();
        let (s, b) = match (&vals[0], &vals[1]) {
            (ValueRef::Str(s), ValueRef::Bytes(b)) => (*s, *b),
            other => panic!("wrong variants: {other:?}"),
        };
        // The payload pointers land inside `bytes` — no copy happened.
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(s.as_ptr() as usize)));
        assert!(range.contains(&(b.as_ptr() as usize)));
    }

    #[test]
    fn view_rejects_exactly_what_owned_decode_rejects() {
        let good = encoded(&rec(vec![Value::Str("abcdefg".into()), Value::I32(1)]));
        // Truncations at every length must fail identically on both paths.
        for cut in 0..good.len() {
            let owned = decode_record_body(NodeId(1), &mut XdrDecoder::new(&good[..cut]));
            let view = decode_record_view(&mut XdrDecoder::new(&good[..cut]));
            assert_eq!(owned.is_err(), view.is_err(), "cut {cut}");
        }
        // Corruptions: flip each byte and compare accept/reject decisions.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            let owned = decode_record_body(NodeId(1), &mut XdrDecoder::new(&bad)).is_err();
            let view = decode_record_view(&mut XdrDecoder::new(&bad)).is_err();
            assert_eq!(owned, view, "flip at {i}");
        }
    }

    #[test]
    fn every_value_type_round_trips_through_the_view() {
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
            Value::Hlc(HlcStamp::new(UtcMicros::from_micros(321), 7)),
        ];
        for v in values {
            let mut e = XdrEncoder::new();
            crate::values::encode_value(&v, &mut e);
            let bytes = e.into_bytes();
            let mut d = XdrDecoder::new(&bytes);
            let back = decode_value_ref(v.value_type(), &mut d).unwrap();
            assert_eq!(back.value_type(), v.value_type());
            assert_eq!(back.into_owned(), v);
            d.finish().unwrap();
        }
    }
}
