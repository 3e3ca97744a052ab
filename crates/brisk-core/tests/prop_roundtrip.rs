//! Property-based tests for brisk-core encodings and invariants.

use brisk_core::binenc;
use brisk_core::prelude::*;
use proptest::prelude::*;

/// Strategy producing an arbitrary `Value` of any type.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i8>().prop_map(Value::I8),
        any::<u8>().prop_map(Value::U8),
        any::<i16>().prop_map(Value::I16),
        any::<u16>().prop_map(Value::U16),
        any::<i32>().prop_map(Value::I32),
        any::<u32>().prop_map(Value::U32),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        any::<f32>().prop_map(Value::F32),
        any::<f64>().prop_map(Value::F64),
        any::<bool>().prop_map(Value::Bool),
        ".{0,40}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(|us| Value::Ts(UtcMicros::from_micros(us))),
        any::<u64>().prop_map(|id| Value::Reason(CorrelationId(id))),
        any::<u64>().prop_map(|id| Value::Conseq(CorrelationId(id))),
    ]
}

fn arb_record() -> impl Strategy<Value = EventRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<i64>(),
        proptest::collection::vec(arb_value(), 0..=8),
    )
        .prop_map(|(node, sensor, ety, seq, ts, fields)| {
            EventRecord::new(
                NodeId(node),
                SensorId(sensor),
                EventTypeId(ety),
                seq,
                UtcMicros::from_micros(ts),
                fields,
            )
            .expect("<=8 fields by construction")
        })
}

/// NaN-tolerant record equality: `Value::F32(NaN) != Value::F32(NaN)` under
/// `PartialEq`, but the codec must still preserve the bit pattern.
fn bitwise_eq(a: &EventRecord, b: &EventRecord) -> bool {
    if (a.node, a.sensor, a.event_type, a.seq, a.ts)
        != (b.node, b.sensor, b.event_type, b.seq, b.ts)
    {
        return false;
    }
    if a.fields.len() != b.fields.len() {
        return false;
    }
    a.fields.iter().zip(&b.fields).all(|(x, y)| match (x, y) {
        (Value::F32(p), Value::F32(q)) => p.to_bits() == q.to_bits(),
        (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
        _ => x == y,
    })
}

/// Any type vector a record may have, wide codes (`X_TRACE`, `X_HLC`)
/// included.
fn arb_types() -> impl Strategy<Value = Vec<ValueType>> {
    proptest::collection::vec(
        (0usize..ValueType::ALL.len()).prop_map(|i| ValueType::ALL[i]),
        0..=8,
    )
}

/// Some value of the given type.
fn value_of(vt: ValueType) -> Value {
    match vt {
        ValueType::I8 => Value::I8(0),
        ValueType::U8 => Value::U8(0),
        ValueType::I16 => Value::I16(0),
        ValueType::U16 => Value::U16(0),
        ValueType::I32 => Value::I32(0),
        ValueType::U32 => Value::U32(0),
        ValueType::I64 => Value::I64(0),
        ValueType::U64 => Value::U64(0),
        ValueType::F32 => Value::F32(0.0),
        ValueType::F64 => Value::F64(0.0),
        ValueType::Bool => Value::Bool(false),
        ValueType::Str => Value::Str(String::new()),
        ValueType::Bytes => Value::Bytes(Vec::new()),
        ValueType::Ts => Value::Ts(UtcMicros::ZERO),
        ValueType::Reason => Value::Reason(CorrelationId(0)),
        ValueType::Conseq => Value::Conseq(CorrelationId(0)),
        ValueType::Trace => Value::Trace(TraceContext::origin(1, UtcMicros::ZERO)),
        ValueType::Hlc => Value::Hlc(HlcStamp::ZERO),
    }
}

fn hash_of(d: &RecordDescriptor) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    d.hash(&mut h);
    h.finish()
}

fn codec_error(packed: &[u8]) -> String {
    match RecordDescriptor::unpack(packed) {
        Err(BriskError::Codec(msg)) => msg,
        other => panic!("expected a codec error for {packed:?}, got {other:?}"),
    }
}

proptest! {
    /// However a descriptor is built it is the same value: equal, equally
    /// hashed, and `unpack` inverts `pack` exactly.
    #[test]
    fn descriptor_is_one_value_however_built(types in arb_types()) {
        let built = RecordDescriptor::new(types.clone()).unwrap();
        let fields: Vec<Value> = types.iter().copied().map(value_of).collect();
        let of = RecordDescriptor::of(&fields).unwrap();
        let packed = built.pack();
        prop_assert_eq!(packed.len(), built.packed_size());
        let (unpacked, used) = RecordDescriptor::unpack(&packed).unwrap();
        prop_assert_eq!(used, built.packed_size());
        prop_assert_eq!(built.types(), &types[..]);
        for other in [of, unpacked, RecordDescriptor::try_from(types.clone()).unwrap()] {
            prop_assert_eq!(&other, &built);
            prop_assert_eq!(hash_of(&other), hash_of(&built));
        }
        // The byte form is the historical one: a count byte (wide flag
        // iff some code is past the nibble range), then nibbles or bytes.
        let wide = types.iter().any(|t| t.code() > 0x0f);
        prop_assert_eq!(packed[0], types.len() as u8 | if wide { 0x80 } else { 0 });
        prop_assert_eq!(packed.len(), 1 + if wide { types.len() } else { types.len().div_ceil(2) });
    }

    /// Each descriptor has exactly one packed form; the others are
    /// rejected, each with its own error.
    #[test]
    fn descriptor_rejects_non_canonical_forms(types in arb_types()) {
        let d = RecordDescriptor::new(types.clone()).unwrap();
        let packed = d.pack();
        let wide = packed[0] & 0x80 != 0;
        if !wide {
            // The same types spelled in the wide form.
            let mut spelled = vec![types.len() as u8 | 0x80];
            spelled.extend(types.iter().map(|t| t.code()));
            prop_assert_eq!(codec_error(&spelled), "wide descriptor with only nibble-range codes");
            if types.len() % 2 == 1 {
                let mut padded = packed.to_vec();
                *padded.last_mut().unwrap() |= 0x10;
                prop_assert_eq!(codec_error(&padded), "non-zero padding nibble in descriptor");
            }
        }
        if !types.is_empty() {
            prop_assert_eq!(codec_error(&packed[..packed.len() - 1]), "truncated descriptor");
        }
        prop_assert_eq!(codec_error(&[]), "empty descriptor");
        prop_assert_eq!(codec_error(&[9]), "descriptor field count 9 exceeds 8");
        prop_assert_eq!(codec_error(&[0x81, 18]), "invalid value-type code 18");
    }

    #[test]
    fn binenc_round_trips(rec in arb_record()) {
        let mut buf = Vec::new();
        let n = binenc::encode_record(&rec, &mut buf);
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(n, binenc::record_size(&rec));
        let (back, used) = binenc::decode_record(&buf).unwrap();
        prop_assert_eq!(used, n);
        prop_assert!(bitwise_eq(&back, &rec));
    }

    /// Decoding over a reused record (the EXS's shells) yields exactly
    /// what a fresh decode does, whatever shape the record had before.
    #[test]
    fn binenc_decode_into_a_reused_record_matches_a_fresh_decode(
        recs in proptest::collection::vec(arb_record(), 1..20),
    ) {
        let mut shell = recs[0].clone();
        for rec in &recs {
            let mut buf = Vec::new();
            let n = binenc::encode_record(rec, &mut buf);
            prop_assert_eq!(binenc::decode_record_into(&buf, &mut shell).unwrap(), n);
            prop_assert!(bitwise_eq(&shell, rec));
        }
    }

    #[test]
    fn binenc_rejects_any_truncation(rec in arb_record()) {
        let mut buf = Vec::new();
        binenc::encode_record(&rec, &mut buf);
        // Cut at a few representative points instead of all (keeps the
        // test fast for long records).
        for cut in [0, 1, buf.len() / 2, buf.len().saturating_sub(1)] {
            if cut < buf.len() {
                prop_assert!(binenc::decode_record(&buf[..cut]).is_err());
            }
        }
    }

    #[test]
    fn descriptor_pack_unpack(rec in arb_record()) {
        let d = rec.descriptor();
        let packed = d.pack();
        let (back, used) = RecordDescriptor::unpack(&packed).unwrap();
        prop_assert_eq!(&back, &d);
        prop_assert_eq!(used, packed.len());
        prop_assert_eq!(packed.len(), d.packed_size());
    }

    #[test]
    fn correction_is_invertible(rec in arb_record(), delta in -1_000_000i64..1_000_000) {
        // Keep timestamps away from the saturation boundaary so the shift
        // is exactly invertible.
        prop_assume!(rec.ts.as_micros().checked_add(delta).is_some());
        prop_assume!(rec.fields.iter().all(|f| match f {
            Value::Ts(t) => t.as_micros().checked_add(delta).is_some()
                && t.as_micros().checked_add(delta).unwrap().checked_sub(delta).is_some(),
            _ => true,
        }));
        let mut shifted = rec.clone();
        shifted.apply_correction(delta);
        shifted.apply_correction(-delta);
        prop_assert!(bitwise_eq(&shifted, &rec));
    }

    #[test]
    fn sort_key_total_order_consistent(a in arb_record(), b in arb_record()) {
        // sort_key comparison must agree with timestamp ordering whenever
        // timestamps differ.
        if a.ts < b.ts {
            prop_assert!(a.sort_key() < b.sort_key());
        } else if a.ts > b.ts {
            prop_assert!(a.sort_key() > b.sort_key());
        }
    }

    #[test]
    fn concatenated_records_decode_all(recs in proptest::collection::vec(arb_record(), 0..20)) {
        let mut buf = Vec::new();
        for r in &recs {
            binenc::encode_record(r, &mut buf);
        }
        let back = binenc::decode_all(&buf).unwrap();
        prop_assert_eq!(back.len(), recs.len());
        for (x, y) in back.iter().zip(&recs) {
            prop_assert!(bitwise_eq(x, y));
        }
    }
}
