//! Native binary record encoding.
//!
//! This is "the same binary structure used by the NOTICE macros" (§3.5): a
//! compact little-endian layout used on the *local* paths — the
//! sensor→external-sensor ring buffer and the ISM's output memory buffer —
//! where "transferring … through memory" is cheap and no cross-machine
//! portability is needed. The portable XDR form (in `brisk-xdr`) is used on
//! the network path only.
//!
//! Layout of one record:
//!
//! ```text
//! u32  node          (LE)
//! u32  sensor        (LE)
//! u32  event_type    (LE)
//! u64  seq           (LE)
//! i64  ts            (LE, microseconds UTC)
//! [u8] packed descriptor (count byte + type nibbles)
//! fields, each per its type:
//!     fixed-size types: raw LE payload (1/2/4/8 bytes)
//!     str / bytes: u32 LE length + payload bytes (no padding)
//! ```

use crate::descriptor::RecordDescriptor;
use crate::error::{BriskError, Result};
use crate::hlc::HlcStamp;
use crate::ids::{CorrelationId, EventTypeId, NodeId, SensorId};
use crate::record::EventRecord;
use crate::time::UtcMicros;
use crate::trace::TraceContext;
use crate::value::{Value, ValueType};

/// Fixed part of the header before the descriptor: 4+4+4+8+8 bytes.
pub const HEADER_SIZE: usize = 28;

/// Total encoded size of `rec` in this format.
pub fn record_size(rec: &EventRecord) -> usize {
    HEADER_SIZE
        + rec.descriptor().packed_size()
        + rec.fields.iter().map(Value::native_size).sum::<usize>()
}

/// Append the encoding of `rec` to `out`. Returns the number of bytes
/// written.
pub fn encode_record(rec: &EventRecord, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let packed = rec.descriptor().pack();
    out.reserve(
        HEADER_SIZE + packed.len() + rec.fields.iter().map(Value::native_size).sum::<usize>(),
    );
    let mut header = [0u8; HEADER_SIZE];
    header[0..4].copy_from_slice(&rec.node.raw().to_le_bytes());
    header[4..8].copy_from_slice(&rec.sensor.raw().to_le_bytes());
    header[8..12].copy_from_slice(&rec.event_type.raw().to_le_bytes());
    header[12..20].copy_from_slice(&rec.seq.to_le_bytes());
    header[20..28].copy_from_slice(&rec.ts.as_micros().to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(&packed);
    for f in &rec.fields {
        encode_value(f, out);
    }
    out.len() - start
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::I8(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::U8(x) => out.push(*x),
        Value::I16(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::U16(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::I32(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::U32(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::U64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::F32(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Bool(x) => out.push(*x as u8),
        Value::Str(s) => {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Ts(t) => out.extend_from_slice(&t.as_micros().to_le_bytes()),
        Value::Reason(id) => out.extend_from_slice(&id.raw().to_le_bytes()),
        Value::Conseq(id) => out.extend_from_slice(&id.raw().to_le_bytes()),
        Value::Trace(ctx) => ctx.encode_into(out),
        Value::Hlc(s) => s.encode_into(out),
    }
}

/// Cursor over a byte slice used by the decoder.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(BriskError::Codec(format!(
                "truncated record: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode one record from the front of `buf`. Returns the record and the
/// number of bytes consumed.
pub fn decode_record(buf: &[u8]) -> Result<(EventRecord, usize)> {
    let mut rec = EventRecord::default();
    let used = decode_record_into(buf, &mut rec)?;
    Ok((rec, used))
}

/// Decode one record from the front of `buf` over `rec`, reusing the
/// capacity of its `fields` vector: a record of no more fields than `rec`
/// had room for costs no allocation (strings, byte strings and trace
/// stamps still own theirs). Returns the number of bytes consumed; on
/// error `rec` holds a partial record.
pub fn decode_record_into(buf: &[u8], rec: &mut EventRecord) -> Result<usize> {
    let mut c = Cursor { buf, pos: 0 };
    rec.node = NodeId(c.u32()?);
    rec.sensor = SensorId(c.u32()?);
    rec.event_type = EventTypeId(c.u32()?);
    rec.seq = c.u64()?;
    rec.ts = UtcMicros::from_micros(c.i64()?);
    // `unpack` bounds the count by `MAX_FIELDS`, the limit
    // `EventRecord::new` checks.
    let (desc, used) = RecordDescriptor::unpack(&buf[c.pos..])?;
    c.pos += used;
    rec.fields.clear();
    rec.fields.reserve_exact(desc.len());
    for &vt in desc.types() {
        rec.fields.push(decode_value(vt, &mut c)?);
    }
    Ok(c.pos)
}

fn decode_value(vt: ValueType, c: &mut Cursor<'_>) -> Result<Value> {
    Ok(match vt {
        ValueType::I8 => Value::I8(c.take(1)?[0] as i8),
        ValueType::U8 => Value::U8(c.take(1)?[0]),
        ValueType::I16 => Value::I16(i16::from_le_bytes(c.take(2)?.try_into().unwrap())),
        ValueType::U16 => Value::U16(u16::from_le_bytes(c.take(2)?.try_into().unwrap())),
        ValueType::I32 => Value::I32(i32::from_le_bytes(c.take(4)?.try_into().unwrap())),
        ValueType::U32 => Value::U32(c.u32()?),
        ValueType::I64 => Value::I64(c.i64()?),
        ValueType::U64 => Value::U64(c.u64()?),
        ValueType::F32 => Value::F32(f32::from_le_bytes(c.take(4)?.try_into().unwrap())),
        ValueType::F64 => Value::F64(f64::from_le_bytes(c.take(8)?.try_into().unwrap())),
        ValueType::Bool => match c.take(1)?[0] {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            b => {
                return Err(BriskError::Codec(format!("invalid bool byte {b}")));
            }
        },
        ValueType::Str => {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| BriskError::Codec(format!("invalid UTF-8 string: {e}")))?;
            Value::Str(s.to_owned())
        }
        ValueType::Bytes => {
            let len = c.u32()? as usize;
            Value::Bytes(c.take(len)?.to_vec())
        }
        ValueType::Ts => Value::Ts(UtcMicros::from_micros(c.i64()?)),
        ValueType::Reason => Value::Reason(CorrelationId(c.u64()?)),
        ValueType::Conseq => Value::Conseq(CorrelationId(c.u64()?)),
        ValueType::Trace => {
            let (ctx, used) = TraceContext::decode(&c.buf[c.pos..])?;
            c.pos += used;
            Value::Trace(ctx)
        }
        ValueType::Hlc => Value::Hlc(HlcStamp::decode(c.take(HlcStamp::ENCODED_SIZE)?)?),
    })
}

/// Decode every record in `buf`, which must contain a whole number of
/// records. This is how consumer tools walk the ISM's output memory buffer.
pub fn decode_all(mut buf: &[u8]) -> Result<Vec<EventRecord>> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (rec, used) = decode_record(buf)?;
        out.push(rec);
        buf = &buf[used..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fields: Vec<Value>) -> EventRecord {
        EventRecord::new(
            NodeId(11),
            SensorId(22),
            EventTypeId(33),
            44,
            UtcMicros::from_micros(55),
            fields,
        )
        .unwrap()
    }

    fn all_types_record() -> EventRecord {
        sample(vec![
            Value::I8(-1),
            Value::U16(2),
            Value::F32(1.25),
            Value::Str("héllo".into()),
            Value::Bytes(vec![0, 255, 7]),
            Value::Ts(UtcMicros::from_micros(-9)),
            Value::Reason(CorrelationId(u64::MAX)),
            Value::Hlc(HlcStamp::new(UtcMicros::from_micros(123), 4)),
        ])
    }

    fn traced_record() -> EventRecord {
        use crate::trace::TraceStage;
        let mut ctx = TraceContext::origin(0x1234_5678_9abc_def0, UtcMicros::from_micros(10));
        ctx.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(20));
        sample(vec![
            Value::I32(7),
            Value::Trace(ctx),
            Value::Str("after".into()),
        ])
    }

    #[test]
    fn round_trip_simple() {
        let rec = sample(vec![Value::I32(5); 6]);
        let mut buf = Vec::new();
        let n = encode_record(&rec, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, record_size(&rec));
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, n);
    }

    #[test]
    fn round_trip_all_types() {
        let rec = all_types_record();
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        let (back, _) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn round_trip_traced_record() {
        let rec = traced_record();
        let mut buf = Vec::new();
        let n = encode_record(&rec, &mut buf);
        assert_eq!(n, record_size(&rec));
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, n);
        // Truncation anywhere inside the trace field is detected too.
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn round_trip_empty_fields() {
        let rec = sample(vec![]);
        let mut buf = Vec::new();
        let n = encode_record(&rec, &mut buf);
        assert_eq!(n, HEADER_SIZE + 1);
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, n);
    }

    #[test]
    fn decode_into_a_reused_record_leaves_nothing_of_the_last_one() {
        let shapes = [
            all_types_record(),
            sample(vec![]),
            traced_record(),
            sample(vec![Value::I32(5); 6]),
        ];
        let mut shell = sample(vec![Value::Str("stale".into()); 8]);
        for rec in shapes.iter().chain(shapes.iter().rev()) {
            let mut buf = Vec::new();
            let n = encode_record(rec, &mut buf);
            assert_eq!(decode_record_into(&buf, &mut shell).unwrap(), n);
            assert_eq!(&shell, rec);
        }
        // Eight slots were reserved up front and never outgrown.
        assert_eq!(shell.fields.capacity(), 8);
    }

    #[test]
    fn decode_all_walks_concatenated_records() {
        let recs: Vec<EventRecord> = (0..10)
            .map(|i| sample(vec![Value::U64(i), Value::Str(format!("r{i}"))]))
            .collect();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let back = decode_all(&buf).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let rec = all_types_record();
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_record(&buf[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn invalid_bool_rejected() {
        let rec = sample(vec![Value::Bool(false)]);
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        *buf.last_mut().unwrap() = 2;
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let rec = sample(vec![Value::Str("ab".into())]);
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        let n = buf.len();
        buf[n - 1] = 0xff; // clobber last string byte with invalid UTF-8
        buf[n - 2] = 0xfe;
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn trailing_garbage_fails_decode_all() {
        let rec = sample(vec![Value::I32(1)]);
        let mut buf = Vec::new();
        encode_record(&rec, &mut buf);
        buf.push(0xaa);
        assert!(decode_all(&buf).is_err());
    }

    #[test]
    fn record_size_matches_encoding_for_variable_fields() {
        for s in ["", "a", "abcd", "a longer string with spaces"] {
            let rec = sample(vec![Value::Str(s.into()), Value::Bytes(vec![1; s.len()])]);
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            assert_eq!(buf.len(), record_size(&rec), "for {s:?}");
        }
    }
}
