//! Record descriptors: the meta-information describing a record's shape.
//!
//! Each dynamically-typed record is sent "with a meta-information header
//! needed for it to be correctly received", and the external sensor sends it
//! "with the meta-information header compressed" (§3.4). A
//! [`RecordDescriptor`] is the sequence of field types; it compresses to one
//! nibble per field (two fields per byte).
//!
//! The paper bounds records to eight dynamically-typed fields because "more
//! than eight fields in a macro adds excessive code"; BRISK-rs enforces the
//! same limit ([`MAX_FIELDS`]) for wire-format compatibility with that
//! design, while the `define_notice!` specialization macro (in `brisk-lis`)
//! plays the role of the paper's custom-NOTICE generator utility.

use crate::error::{BriskError, Result};
use crate::value::{Value, ValueType};
use std::fmt;

/// Maximum number of fields in one record (paper §3.2).
pub const MAX_FIELDS: usize = 8;

/// High bit of the descriptor count byte: signals the *wide* packed form
/// (one byte per type code) used when any field's code exceeds a nibble.
/// `MAX_FIELDS` is far below 0x80, so the bit is unambiguous.
const WIDE_FLAG: u8 = 0x80;

/// The shape of an event record: the ordered field types, held inline
/// (a record has at most [`MAX_FIELDS`] fields), so looking at a record's
/// shape never touches the heap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecordDescriptor {
    len: u8,
    /// Slots past `len` stay at `I8` in every constructor, so the derived
    /// `Eq`/`Hash` compare live types only.
    types: [ValueType; MAX_FIELDS],
}

/// The packed form of a descriptor (see [`RecordDescriptor::pack`]), held
/// on the stack; dereferences to its bytes.
#[derive(Clone, Copy, Debug)]
pub struct PackedDescriptor {
    len: u8,
    bytes: [u8; 1 + MAX_FIELDS],
}

impl std::ops::Deref for PackedDescriptor {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl Default for RecordDescriptor {
    fn default() -> Self {
        RecordDescriptor {
            len: 0,
            types: [ValueType::I8; MAX_FIELDS],
        }
    }
}

impl RecordDescriptor {
    /// Build a descriptor from field types. Fails if there are more than
    /// [`MAX_FIELDS`] fields.
    pub fn new(types: impl Into<Vec<ValueType>>) -> Result<Self> {
        Self::collect(types.into().into_iter())
    }

    /// Descriptor of the given field values.
    pub fn of(fields: &[Value]) -> Result<Self> {
        Self::collect(fields.iter().map(Value::value_type))
    }

    fn collect(types: impl ExactSizeIterator<Item = ValueType>) -> Result<Self> {
        let count = types.len();
        if count > MAX_FIELDS {
            return Err(BriskError::Malformed(format!(
                "{count} fields exceeds the {MAX_FIELDS}-field limit"
            )));
        }
        let mut desc = RecordDescriptor {
            len: count as u8,
            ..RecordDescriptor::default()
        };
        for (slot, t) in desc.types.iter_mut().zip(types) {
            *slot = t;
        }
        Ok(desc)
    }

    /// The paper's evaluation workload: "six fields of type integer" (§4).
    pub fn six_i32() -> Self {
        Self::collect([ValueType::I32; 6].into_iter()).expect("within the field limit")
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the record has no fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ordered field types.
    #[inline]
    pub fn types(&self) -> &[ValueType] {
        &self.types[..self.len as usize]
    }

    /// True if any field is `X_TS`.
    pub fn has_ts(&self) -> bool {
        self.types().contains(&ValueType::Ts)
    }

    /// True if any field is `X_REASON` or `X_CONSEQ`.
    pub fn has_causal_marker(&self) -> bool {
        self.types()
            .iter()
            .any(|t| matches!(t, ValueType::Reason | ValueType::Conseq))
    }

    /// Check that `fields` matches this descriptor exactly.
    pub fn check(&self, fields: &[Value]) -> Result<()> {
        if fields.len() != self.len() {
            return Err(BriskError::Malformed(format!(
                "record has {} fields, descriptor expects {}",
                fields.len(),
                self.len()
            )));
        }
        for (i, (f, t)) in fields.iter().zip(self.types()).enumerate() {
            if f.value_type() != *t {
                return Err(BriskError::Malformed(format!(
                    "field {i} is {}, descriptor expects {t}",
                    f.value_type()
                )));
            }
        }
        Ok(())
    }

    /// True if any field's type code is beyond the nibble range, forcing
    /// the wide packed form.
    fn needs_wide(&self) -> bool {
        self.types().iter().any(|t| t.code() > 0x0f)
    }

    /// Compressed encoding: field count byte followed by packed type
    /// nibbles, low nibble first. An 8-field record costs 5 bytes of
    /// meta-information instead of the 36 bytes a naive
    /// one-XDR-word-per-type header would take.
    ///
    /// Descriptors containing a type code beyond the nibble range (today
    /// only `X_TRACE`, code 16) use the *wide* form: the count byte's high
    /// bit (`WIDE_FLAG`, 0x80) is set and each type takes a whole byte.
    /// Descriptors with only classic codes stay byte-identical to the
    /// historical nibble form, so old wire frames and stored segments
    /// decode unchanged.
    pub fn pack(&self) -> PackedDescriptor {
        let wide = self.needs_wide();
        let mut bytes = [0u8; 1 + MAX_FIELDS];
        bytes[0] = if wide { self.len | WIDE_FLAG } else { self.len };
        for (i, t) in self.types().iter().enumerate() {
            if wide {
                bytes[1 + i] = t.code();
            } else {
                bytes[1 + i / 2] |= t.code() << (4 * (i % 2));
            }
        }
        PackedDescriptor {
            len: self.packed_size() as u8,
            bytes,
        }
    }

    /// Decode a packed descriptor from the front of `buf`, returning the
    /// descriptor and the number of bytes consumed. Accepts both the
    /// nibble and the wide form; each descriptor has exactly one canonical
    /// encoding and the other is rejected.
    pub fn unpack(buf: &[u8]) -> Result<(Self, usize)> {
        let &count_byte = buf
            .first()
            .ok_or_else(|| BriskError::Codec("empty descriptor".into()))?;
        let wide = count_byte & WIDE_FLAG != 0;
        let count = (count_byte & !WIDE_FLAG) as usize;
        if count > MAX_FIELDS {
            return Err(BriskError::Codec(format!(
                "descriptor field count {count} exceeds {MAX_FIELDS}"
            )));
        }
        let used = 1 + if wide { count } else { count.div_ceil(2) };
        let body = buf
            .get(1..used)
            .ok_or_else(|| BriskError::Codec("truncated descriptor".into()))?;
        let mut desc = RecordDescriptor {
            len: count as u8,
            ..RecordDescriptor::default()
        };
        for (i, slot) in desc.types[..count].iter_mut().enumerate() {
            let code = match wide {
                true => body[i],
                false => (body[i / 2] >> (4 * (i % 2))) & 0x0f,
            };
            *slot = ValueType::from_code(code)?;
        }
        // Reject non-canonical encodings, so each descriptor has exactly
        // one packed form: the wide form only when some code needs it, and
        // a trailing unused high nibble must be zero.
        if wide && !desc.needs_wide() {
            return Err(BriskError::Codec(
                "wide descriptor with only nibble-range codes".into(),
            ));
        }
        if !wide && count % 2 == 1 && body[count / 2] >> 4 != 0 {
            return Err(BriskError::Codec(
                "non-zero padding nibble in descriptor".into(),
            ));
        }
        Ok((desc, used))
    }

    /// Size of the packed form in bytes.
    pub fn packed_size(&self) -> usize {
        if self.needs_wide() {
            1 + self.len()
        } else {
            1 + self.len().div_ceil(2)
        }
    }
}

impl fmt::Display for RecordDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.types().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<Vec<ValueType>> for RecordDescriptor {
    type Error = BriskError;
    fn try_from(types: Vec<ValueType>) -> Result<Self> {
        RecordDescriptor::new(types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CorrelationId;
    use crate::time::UtcMicros;

    fn mixed() -> RecordDescriptor {
        RecordDescriptor::new(vec![
            ValueType::Ts,
            ValueType::I32,
            ValueType::Str,
            ValueType::Reason,
            ValueType::F64,
        ])
        .unwrap()
    }

    #[test]
    fn construction_enforces_field_limit() {
        assert!(RecordDescriptor::new(vec![ValueType::I32; 8]).is_ok());
        assert!(RecordDescriptor::new(vec![ValueType::I32; 9]).is_err());
    }

    #[test]
    fn of_matches_values() {
        let fields = vec![
            Value::Ts(UtcMicros::ZERO),
            Value::I32(1),
            Value::Str("x".into()),
        ];
        let d = RecordDescriptor::of(&fields).unwrap();
        assert_eq!(d.types(), &[ValueType::Ts, ValueType::I32, ValueType::Str]);
        d.check(&fields).unwrap();
    }

    #[test]
    fn six_i32_is_the_paper_workload() {
        let d = RecordDescriptor::six_i32();
        assert_eq!(d.len(), 6);
        assert!(d.types().iter().all(|t| *t == ValueType::I32));
    }

    #[test]
    fn check_rejects_wrong_arity_and_types() {
        let d = RecordDescriptor::new(vec![ValueType::I32, ValueType::Str]).unwrap();
        assert!(d.check(&[Value::I32(1)]).is_err());
        assert!(d.check(&[Value::I32(1), Value::I32(2)]).is_err());
        assert!(d.check(&[Value::I32(1), Value::Str("a".into())]).is_ok());
    }

    #[test]
    fn pack_unpack_round_trip() {
        for d in [
            RecordDescriptor::new(Vec::<ValueType>::new()).unwrap(),
            RecordDescriptor::new(vec![ValueType::U8]).unwrap(),
            RecordDescriptor::six_i32(),
            mixed(),
            RecordDescriptor::new(vec![ValueType::Conseq; 8]).unwrap(),
            RecordDescriptor::new(vec![ValueType::Trace]).unwrap(),
            RecordDescriptor::new(vec![
                ValueType::I32,
                ValueType::Str,
                ValueType::Ts,
                ValueType::Trace,
            ])
            .unwrap(),
            RecordDescriptor::new(vec![ValueType::Trace; 8]).unwrap(),
        ] {
            let packed = d.pack();
            assert_eq!(packed.len(), d.packed_size());
            let (back, used) = RecordDescriptor::unpack(&packed).unwrap();
            assert_eq!(back, d);
            assert_eq!(used, packed.len());
        }
    }

    #[test]
    fn unpack_consumes_prefix_only() {
        let mut buf = mixed().pack().to_vec();
        buf.extend_from_slice(&[0xde, 0xad]);
        let (back, used) = RecordDescriptor::unpack(&buf).unwrap();
        assert_eq!(back, mixed());
        assert_eq!(used, mixed().packed_size());
    }

    #[test]
    fn unpack_rejects_bad_input() {
        assert!(RecordDescriptor::unpack(&[]).is_err());
        assert!(RecordDescriptor::unpack(&[9]).is_err()); // count > MAX_FIELDS
        assert!(RecordDescriptor::unpack(&[2, 0x04]).is_ok()); // 2 fields in 1 byte
        assert!(RecordDescriptor::unpack(&[3, 0x44]).is_err()); // truncated
                                                                // odd count with non-zero padding nibble is non-canonical
        assert!(RecordDescriptor::unpack(&[1, 0x14]).is_err());
        assert!(RecordDescriptor::unpack(&[1, 0x04]).is_ok());
    }

    #[test]
    fn classic_descriptors_stay_byte_identical() {
        // The wide escape must not change the encoding of any descriptor
        // made of nibble-range codes: old frames and segments depend on it.
        let d = mixed();
        assert_eq!(d.pack()[0], d.len() as u8, "no wide flag on classic form");
        assert_eq!(d.pack().len(), 1 + d.len().div_ceil(2));
        assert_eq!(*RecordDescriptor::six_i32().pack(), [6, 0x44, 0x44, 0x44]);
    }

    #[test]
    fn wide_form_round_trips_and_is_flagged() {
        let d = RecordDescriptor::new(vec![ValueType::I32, ValueType::Trace]).unwrap();
        let packed = d.pack();
        assert_eq!(*packed, [0x82, 4, 16]);
        assert_eq!(packed.len(), d.packed_size());
        let (back, used) = RecordDescriptor::unpack(&packed).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, packed.len());
    }

    #[test]
    fn wide_form_rejects_non_canonical_and_bad_input() {
        // Wide form holding only classic codes is non-canonical.
        assert!(RecordDescriptor::unpack(&[0x81, 4]).is_err());
        // Wide count over MAX_FIELDS.
        assert!(RecordDescriptor::unpack(&[0x89, 16, 16, 16, 16, 16, 16, 16, 16, 16]).is_err());
        // Truncated wide descriptor.
        assert!(RecordDescriptor::unpack(&[0x82, 16]).is_err());
        // Unknown wide code.
        assert!(RecordDescriptor::unpack(&[0x81, 18]).is_err());
        // Empty wide descriptor can never need the wide form.
        assert!(RecordDescriptor::unpack(&[0x80]).is_err());
    }

    #[test]
    fn packed_size_is_minimal() {
        assert_eq!(RecordDescriptor::new(vec![]).unwrap().packed_size(), 1);
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32])
                .unwrap()
                .packed_size(),
            2
        );
        assert_eq!(RecordDescriptor::six_i32().packed_size(), 4);
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32; 8])
                .unwrap()
                .packed_size(),
            5
        );
    }

    #[test]
    fn predicates() {
        assert!(mixed().has_ts());
        assert!(mixed().has_causal_marker());
        assert!(!RecordDescriptor::six_i32().has_ts());
        assert!(!RecordDescriptor::six_i32().has_causal_marker());
        let conseq_only = RecordDescriptor::new(vec![ValueType::Conseq]).unwrap();
        assert!(conseq_only.has_causal_marker());
    }

    #[test]
    fn display_lists_types() {
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32, ValueType::Str])
                .unwrap()
                .to_string(),
            "(i32, str)"
        );
    }

    #[test]
    fn causal_check_values() {
        let fields = vec![Value::Reason(CorrelationId(1))];
        let d = RecordDescriptor::of(&fields).unwrap();
        assert!(d.has_causal_marker());
    }
}
