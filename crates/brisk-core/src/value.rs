//! Dynamically-typed field values.
//!
//! The BRISK sensors provide "the convenience of dynamic typing" (§3.2): a
//! record is a short sequence of heterogeneous fields. There are thirteen
//! *basic* types ("over ten basic types … ranging from bytes, to floats, to
//! null-terminated strings") and three *system* types used for coordination
//! between BRISK, the application and consumer tools:
//!
//! * `X_TS` ([`ValueType::Ts`]) — an embedded BRISK-internal timestamp,
//! * `X_REASON` ([`ValueType::Reason`]) and `X_CONSEQ`
//!   ([`ValueType::Conseq`]) — markers for causally-related events.
//!
//! The sixteen original types have 4-bit codes so the transfer protocol can
//! pack two field types per byte in its compressed meta-information header.
//! A fourth system type added by BRISK-rs, `X_TRACE` ([`ValueType::Trace`],
//! code 16), carries the self-tracing context of a sampled record; any
//! descriptor containing it switches to the wide (one byte per code)
//! descriptor form — see [`crate::descriptor::RecordDescriptor::pack`].

use crate::error::{BriskError, Result};
use crate::hlc::HlcStamp;
use crate::ids::CorrelationId;
use crate::time::UtcMicros;
use crate::trace::TraceContext;
use std::fmt;

/// The type tag of a [`Value`]. Codes are stable wire constants: the
/// classic sixteen fit a nibble, `Trace` is the first wide code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ValueType {
    /// Signed 8-bit integer.
    I8 = 0,
    /// Unsigned 8-bit integer (a "byte").
    U8 = 1,
    /// Signed 16-bit integer.
    I16 = 2,
    /// Unsigned 16-bit integer.
    U16 = 3,
    /// Signed 32-bit integer (the paper's workhorse `integer` type).
    I32 = 4,
    /// Unsigned 32-bit integer.
    U32 = 5,
    /// Signed 64-bit integer.
    I64 = 6,
    /// Unsigned 64-bit integer.
    U64 = 7,
    /// IEEE-754 single-precision float.
    F32 = 8,
    /// IEEE-754 double-precision float.
    F64 = 9,
    /// Boolean.
    Bool = 10,
    /// UTF-8 string (the original used null-terminated C strings).
    Str = 11,
    /// Raw byte blob.
    Bytes = 12,
    /// System type `X_TS`: embedded synchronized timestamp.
    Ts = 13,
    /// System type `X_REASON`: marks this event as a *reason* with the given
    /// correlation identifier.
    Reason = 14,
    /// System type `X_CONSEQ`: marks this event as a *consequence* that must
    /// follow the reason with the same identifier.
    Conseq = 15,
    /// System type `X_TRACE`: self-tracing context of a sampled record
    /// (trace id + per-stage stamps). First code beyond the nibble range.
    Trace = 16,
    /// System type `X_HLC`: hybrid logical clock stamp, a timestamp
    /// consistent with happened-before even when wall clocks disagree.
    /// Wide (one byte) code, like `X_TRACE`.
    Hlc = 17,
}

impl ValueType {
    /// All value types in code order.
    pub const ALL: [ValueType; 18] = [
        ValueType::I8,
        ValueType::U8,
        ValueType::I16,
        ValueType::U16,
        ValueType::I32,
        ValueType::U32,
        ValueType::I64,
        ValueType::U64,
        ValueType::F32,
        ValueType::F64,
        ValueType::Bool,
        ValueType::Str,
        ValueType::Bytes,
        ValueType::Ts,
        ValueType::Reason,
        ValueType::Conseq,
        ValueType::Trace,
        ValueType::Hlc,
    ];

    /// Wire code (0..=17).
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ValueType::code`].
    pub fn from_code(code: u8) -> Result<ValueType> {
        ValueType::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| BriskError::Codec(format!("invalid value-type code {code}")))
    }

    /// True for the system types (`X_TS`, `X_REASON`, `X_CONSEQ`,
    /// `X_TRACE`, `X_HLC`).
    #[inline]
    pub const fn is_system(self) -> bool {
        matches!(
            self,
            ValueType::Ts
                | ValueType::Reason
                | ValueType::Conseq
                | ValueType::Trace
                | ValueType::Hlc
        )
    }

    /// Size of the payload in the *native* binary encoding, if fixed.
    pub const fn native_fixed_size(self) -> Option<usize> {
        match self {
            ValueType::I8 | ValueType::U8 | ValueType::Bool => Some(1),
            ValueType::I16 | ValueType::U16 => Some(2),
            ValueType::I32 | ValueType::U32 | ValueType::F32 => Some(4),
            ValueType::I64
            | ValueType::U64
            | ValueType::F64
            | ValueType::Ts
            | ValueType::Reason
            | ValueType::Conseq => Some(8),
            ValueType::Hlc => Some(HlcStamp::ENCODED_SIZE),
            ValueType::Str | ValueType::Bytes | ValueType::Trace => None,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::I8 => "i8",
            ValueType::U8 => "u8",
            ValueType::I16 => "i16",
            ValueType::U16 => "u16",
            ValueType::I32 => "i32",
            ValueType::U32 => "u32",
            ValueType::I64 => "i64",
            ValueType::U64 => "u64",
            ValueType::F32 => "f32",
            ValueType::F64 => "f64",
            ValueType::Bool => "bool",
            ValueType::Str => "str",
            ValueType::Bytes => "bytes",
            ValueType::Ts => "X_TS",
            ValueType::Reason => "X_REASON",
            ValueType::Conseq => "X_CONSEQ",
            ValueType::Trace => "X_TRACE",
            ValueType::Hlc => "X_HLC",
        };
        f.write_str(s)
    }
}

/// One dynamically-typed field of an event record.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
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
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
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

impl Value {
    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::I8(_) => ValueType::I8,
            Value::U8(_) => ValueType::U8,
            Value::I16(_) => ValueType::I16,
            Value::U16(_) => ValueType::U16,
            Value::I32(_) => ValueType::I32,
            Value::U32(_) => ValueType::U32,
            Value::I64(_) => ValueType::I64,
            Value::U64(_) => ValueType::U64,
            Value::F32(_) => ValueType::F32,
            Value::F64(_) => ValueType::F64,
            Value::Bool(_) => ValueType::Bool,
            Value::Str(_) => ValueType::Str,
            Value::Bytes(_) => ValueType::Bytes,
            Value::Ts(_) => ValueType::Ts,
            Value::Reason(_) => ValueType::Reason,
            Value::Conseq(_) => ValueType::Conseq,
            Value::Trace(_) => ValueType::Trace,
            Value::Hlc(_) => ValueType::Hlc,
        }
    }

    /// Widening view of any integer-like value as `i64`, if applicable.
    /// `U64` values above `i64::MAX` return `None` rather than wrap.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I8(v) => Some(v as i64),
            Value::U8(v) => Some(v as i64),
            Value::I16(v) => Some(v as i64),
            Value::U16(v) => Some(v as i64),
            Value::I32(v) => Some(v as i64),
            Value::U32(v) => Some(v as i64),
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            Value::Bool(v) => Some(v as i64),
            _ => None,
        }
    }

    /// Numeric view as `f64` for integers and floats.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F32(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            Value::U64(v) => Some(v as f64),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    /// String view, for `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Byte-slice view, for `Bytes` values.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Embedded timestamp, for `X_TS` values.
    pub fn as_ts(&self) -> Option<UtcMicros> {
        match *self {
            Value::Ts(t) => Some(t),
            _ => None,
        }
    }

    /// Correlation id, for `X_REASON` / `X_CONSEQ` values.
    pub fn correlation_id(&self) -> Option<CorrelationId> {
        match *self {
            Value::Reason(id) | Value::Conseq(id) => Some(id),
            _ => None,
        }
    }

    /// Trace context, for `X_TRACE` values.
    pub fn as_trace(&self) -> Option<&TraceContext> {
        match self {
            Value::Trace(ctx) => Some(ctx),
            _ => None,
        }
    }

    /// Hybrid logical clock stamp, for `X_HLC` values.
    pub fn as_hlc(&self) -> Option<HlcStamp> {
        match *self {
            Value::Hlc(s) => Some(s),
            _ => None,
        }
    }

    /// Size of this value's payload in the native binary encoding
    /// (excluding the type nibble held in the record header).
    pub fn native_size(&self) -> usize {
        match self {
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
            Value::Trace(ctx) => ctx.encoded_size(),
            v => v.value_type().native_fixed_size().expect("fixed-size type"),
        }
    }

    /// Size of this value's payload in the XDR encoding (4-byte aligned,
    /// variable-size values carry a length word).
    pub fn xdr_size(&self) -> usize {
        fn pad4(n: usize) -> usize {
            (n + 3) & !3
        }
        match self {
            Value::I8(_)
            | Value::U8(_)
            | Value::I16(_)
            | Value::U16(_)
            | Value::I32(_)
            | Value::U32(_)
            | Value::F32(_)
            | Value::Bool(_) => 4,
            Value::I64(_)
            | Value::U64(_)
            | Value::F64(_)
            | Value::Ts(_)
            | Value::Reason(_)
            | Value::Conseq(_) => 8,
            // hyper physical + uint logical.
            Value::Hlc(_) => 12,
            Value::Str(s) => 4 + pad4(s.len()),
            Value::Bytes(b) => 4 + pad4(b.len()),
            // uhyper id + uint stamp count + (uint stage + hyper ts) each.
            Value::Trace(ctx) => 12 + 12 * ctx.stamps().len(),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for Value {
            #[inline]
            fn from(v: $ty) -> Value { Value::$variant(v) }
        })*
    };
}

value_from! {
    i8 => I8, u8 => U8, i16 => I16, u16 => U16, i32 => I32, u32 => U32,
    i64 => I64, u64 => U64, f32 => F32, f64 => F64, bool => Bool,
    String => Str, Vec<u8> => Bytes, UtcMicros => Ts,
}

impl From<&str> for Value {
    #[inline]
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<&[u8]> for Value {
    #[inline]
    fn from(v: &[u8]) -> Value {
        Value::Bytes(v.to_vec())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I8(v) => write!(f, "{v}"),
            Value::U8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::U16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Ts(t) => write!(f, "ts:{t}"),
            Value::Reason(id) => write!(f, "reason:{id}"),
            Value::Conseq(id) => write!(f, "conseq:{id}"),
            Value::Trace(ctx) => write!(f, "{ctx}"),
            Value::Hlc(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for vt in ValueType::ALL {
            assert_eq!(ValueType::from_code(vt.code()).unwrap(), vt);
            if !matches!(vt, ValueType::Trace | ValueType::Hlc) {
                assert!(vt.code() < 16, "classic codes must fit in a nibble");
            }
        }
        assert_eq!(ValueType::Trace.code(), 16);
        assert_eq!(ValueType::Hlc.code(), 17);
        assert!(ValueType::from_code(18).is_err());
        assert!(ValueType::from_code(255).is_err());
    }

    #[test]
    fn system_type_classification() {
        assert!(ValueType::Ts.is_system());
        assert!(ValueType::Reason.is_system());
        assert!(ValueType::Conseq.is_system());
        assert!(ValueType::Trace.is_system());
        assert!(ValueType::Hlc.is_system());
        assert!(!ValueType::I32.is_system());
        assert!(!ValueType::Str.is_system());
    }

    #[test]
    fn value_type_of_each_variant() {
        let cases: Vec<(Value, ValueType)> = vec![
            (Value::I8(-1), ValueType::I8),
            (Value::U8(1), ValueType::U8),
            (Value::I16(-2), ValueType::I16),
            (Value::U16(2), ValueType::U16),
            (Value::I32(-3), ValueType::I32),
            (Value::U32(3), ValueType::U32),
            (Value::I64(-4), ValueType::I64),
            (Value::U64(4), ValueType::U64),
            (Value::F32(0.5), ValueType::F32),
            (Value::F64(0.25), ValueType::F64),
            (Value::Bool(true), ValueType::Bool),
            (Value::Str("x".into()), ValueType::Str),
            (Value::Bytes(vec![1]), ValueType::Bytes),
            (Value::Ts(UtcMicros::from_micros(1)), ValueType::Ts),
            (Value::Reason(CorrelationId(1)), ValueType::Reason),
            (Value::Conseq(CorrelationId(2)), ValueType::Conseq),
            (
                Value::Trace(TraceContext::origin(7, UtcMicros::ZERO)),
                ValueType::Trace,
            ),
            (
                Value::Hlc(HlcStamp::new(UtcMicros::from_micros(3), 1)),
                ValueType::Hlc,
            ),
        ];
        for (v, vt) in cases {
            assert_eq!(v.value_type(), vt);
        }
    }

    #[test]
    fn integer_widening() {
        assert_eq!(Value::I8(-5).as_i64(), Some(-5));
        assert_eq!(Value::U32(7).as_i64(), Some(7));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::Str("x".into()).as_i64(), None);
    }

    #[test]
    fn float_view() {
        assert_eq!(Value::F32(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::I32(3).as_f64(), Some(3.0));
        assert_eq!(Value::U64(u64::MAX).as_f64(), Some(u64::MAX as f64));
        assert_eq!(Value::Bytes(vec![]).as_f64(), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Value::Bytes(vec![9]).as_bytes(), Some(&[9u8][..]));
        assert_eq!(
            Value::Ts(UtcMicros::from_secs(1)).as_ts(),
            Some(UtcMicros::from_secs(1))
        );
        assert_eq!(
            Value::Reason(CorrelationId(42)).correlation_id(),
            Some(CorrelationId(42))
        );
        assert_eq!(
            Value::Conseq(CorrelationId(43)).correlation_id(),
            Some(CorrelationId(43))
        );
        assert_eq!(Value::I32(1).correlation_id(), None);
    }

    #[test]
    fn native_sizes_match_fixed_table() {
        assert_eq!(Value::U8(0).native_size(), 1);
        assert_eq!(Value::I16(0).native_size(), 2);
        assert_eq!(Value::F32(0.0).native_size(), 4);
        assert_eq!(Value::Ts(UtcMicros::ZERO).native_size(), 8);
        assert_eq!(Value::Hlc(HlcStamp::ZERO).native_size(), 12);
        assert_eq!(Value::Str("abc".into()).native_size(), 7);
        assert_eq!(Value::Bytes(vec![0; 10]).native_size(), 14);
        // id (8) + count (1) + one origin stamp (9).
        assert_eq!(
            Value::Trace(TraceContext::origin(1, UtcMicros::ZERO)).native_size(),
            18
        );
    }

    #[test]
    fn trace_accessor() {
        let ctx = TraceContext::origin(5, UtcMicros::from_micros(1));
        let v = Value::Trace(ctx.clone());
        assert_eq!(v.as_trace(), Some(&ctx));
        assert_eq!(Value::I32(0).as_trace(), None);
        assert_eq!(v.as_i64(), None);
        assert_eq!(v.as_f64(), None);
    }

    #[test]
    fn hlc_accessor() {
        let s = HlcStamp::new(UtcMicros::from_micros(5), 2);
        let v = Value::Hlc(s);
        assert_eq!(v.as_hlc(), Some(s));
        assert_eq!(Value::I32(0).as_hlc(), None);
        assert_eq!(v.as_i64(), None);
        assert_eq!(v.as_f64(), None);
    }

    #[test]
    fn xdr_sizes_are_four_byte_aligned() {
        assert_eq!(Value::U8(0).xdr_size(), 4);
        assert_eq!(Value::I64(0).xdr_size(), 8);
        assert_eq!(Value::Hlc(HlcStamp::ZERO).xdr_size(), 12);
        assert_eq!(Value::Str("abc".into()).xdr_size(), 8); // 4 len + 3 pad to 4
        assert_eq!(Value::Str("abcd".into()).xdr_size(), 8);
        assert_eq!(Value::Str("abcde".into()).xdr_size(), 12);
        assert_eq!(Value::Bytes(vec![0; 5]).xdr_size(), 12);
        for v in [Value::I32(0), Value::F64(0.0), Value::Str("xyz".into())] {
            assert_eq!(v.xdr_size() % 4, 0);
        }
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::I32(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(&b"ab"[..]), Value::Bytes(vec![b'a', b'b']));
        assert_eq!(
            Value::from(UtcMicros::from_micros(9)),
            Value::Ts(UtcMicros::from_micros(9))
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::I32(7).to_string(), "7");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(Value::Bytes(vec![0; 3]).to_string(), "<3 bytes>");
        assert_eq!(Value::Reason(CorrelationId(1)).to_string(), "reason:1");
    }
}
