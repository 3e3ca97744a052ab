//! XDR encoding (RFC 1832 subset).
//!
//! All quantities are big-endian and every item occupies a multiple of four
//! bytes; variable-length items are padded with zero bytes.

use crate::pad4;

/// Streaming XDR encoder writing into an owned byte buffer.
///
/// The encoder is infallible: it only ever appends to a growable `Vec`.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// New empty encoder.
    pub fn new() -> Self {
        XdrEncoder { buf: Vec::new() }
    }

    /// New encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        XdrEncoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// An encoder appending to `buf`, keeping what it holds and its
    /// allocation.
    pub fn append_to(buf: Vec<u8>) -> Self {
        XdrEncoder { buf }
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reset to empty, keeping the allocation (workhorse-buffer pattern).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// XDR `int`: 32-bit signed, big-endian.
    pub fn int(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `unsigned int`.
    pub fn uint(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `hyper`: 64-bit signed.
    pub fn hyper(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `unsigned hyper`.
    pub fn uhyper(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `float` (IEEE-754 single, big-endian).
    pub fn float(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `double` (IEEE-754 double, big-endian).
    pub fn double(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// XDR `bool`: encoded as int 0 or 1.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.int(v as i32)
    }

    /// XDR fixed-length `opaque[n]`: raw bytes padded to 4-byte alignment.
    /// The length is *not* encoded; the receiver must know it.
    pub fn opaque_fixed(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self.pad_to_alignment(bytes.len());
        self
    }

    /// XDR variable-length `opaque<>`: length word, bytes, padding.
    pub fn opaque(&mut self, bytes: &[u8]) -> &mut Self {
        self.uint(bytes.len() as u32);
        self.opaque_fixed(bytes)
    }

    /// XDR `string<>`: identical wire form to variable opaque; the paper's
    /// original used null-terminated C strings, but the XDR string carries
    /// an explicit length so no terminator is sent.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.opaque(s.as_bytes())
    }

    fn pad_to_alignment(&mut self, payload_len: usize) {
        for _ in payload_len..pad4(payload_len) {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
        let mut e = XdrEncoder::new();
        f(&mut e);
        e.into_bytes()
    }

    #[test]
    fn int_is_big_endian() {
        assert_eq!(
            enc(|e| {
                e.int(1);
            }),
            vec![0, 0, 0, 1]
        );
        assert_eq!(
            enc(|e| {
                e.int(-1);
            }),
            vec![0xff; 4]
        );
        assert_eq!(
            enc(|e| {
                e.int(0x0102_0304);
            }),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn hyper_is_eight_bytes() {
        assert_eq!(
            enc(|e| {
                e.hyper(0x0102_0304_0506_0708);
            }),
            vec![1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(
            enc(|e| {
                e.uhyper(u64::MAX);
            }),
            vec![0xff; 8]
        );
    }

    #[test]
    fn floats_are_ieee_be() {
        assert_eq!(
            enc(|e| {
                e.float(1.0);
            }),
            vec![0x3f, 0x80, 0, 0]
        );
        assert_eq!(
            enc(|e| {
                e.double(1.0);
            }),
            vec![0x3f, 0xf0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn bool_is_int() {
        assert_eq!(
            enc(|e| {
                e.boolean(true);
            }),
            vec![0, 0, 0, 1]
        );
        assert_eq!(
            enc(|e| {
                e.boolean(false);
            }),
            vec![0, 0, 0, 0]
        );
    }

    #[test]
    fn opaque_variable_has_length_and_padding() {
        assert_eq!(
            enc(|e| {
                e.opaque(b"ab");
            }),
            vec![0, 0, 0, 2, b'a', b'b', 0, 0]
        );
        assert_eq!(
            enc(|e| {
                e.opaque(b"abcd");
            }),
            vec![0, 0, 0, 4, b'a', b'b', b'c', b'd']
        );
        assert_eq!(
            enc(|e| {
                e.opaque(b"");
            }),
            vec![0, 0, 0, 0]
        );
    }

    #[test]
    fn opaque_fixed_pads_without_length() {
        assert_eq!(
            enc(|e| {
                e.opaque_fixed(b"abc");
            }),
            vec![b'a', b'b', b'c', 0]
        );
        assert_eq!(
            enc(|e| {
                e.opaque_fixed(b"");
            }),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn string_matches_opaque() {
        assert_eq!(
            enc(|e| {
                e.string("hi");
            }),
            enc(|e| {
                e.opaque(b"hi");
            })
        );
    }

    #[test]
    fn everything_stays_4_aligned() {
        let bytes = enc(|e| {
            e.int(1).string("odd").uint(2).opaque(b"12345").hyper(3);
        });
        assert_eq!(bytes.len() % 4, 0);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut e = XdrEncoder::with_capacity(64);
        e.uhyper(9);
        assert!(!e.is_empty());
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
