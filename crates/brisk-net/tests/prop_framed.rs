//! Fuzz harness for the length-prefix framing layer: `FramedConnection` is
//! the first consumer of raw wire bytes, so it must never panic and never
//! trust a length prefix further than `MAX_FRAME_BYTES`, whatever the
//! stream delivers and however the kernel chunks it.

use brisk_core::BriskError;
use brisk_net::{Connection, FramedConnection, RawStream, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::time::Duration;

/// A scripted peer: serves a fixed byte sequence in bounded chunks (as a
/// real socket might), then reports would-block forever.
struct MockStream {
    input: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl MockStream {
    fn new(input: Vec<u8>, chunk: usize) -> Self {
        MockStream {
            input,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl Read for MockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.input.len() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = (self.input.len() - self.pos).min(self.chunk).min(buf.len());
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for MockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl RawStream for MockStream {
    fn peer_label(&self) -> String {
        "mock".into()
    }
}

/// Drain a connection until it reports would-block or errors, returning the
/// extracted frames.
fn drain(conn: &mut FramedConnection<MockStream>) -> (Vec<Vec<u8>>, Option<BriskError>) {
    let mut frames = Vec::new();
    loop {
        match conn.recv(Some(Duration::from_millis(1))) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

proptest! {
    /// Arbitrary bytes under arbitrary chunking: recv must terminate with
    /// frames and/or a typed error — never panic, never loop forever, and
    /// never produce a frame larger than the advertised maximum.
    #[test]
    fn garbage_stream_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1..128usize,
    ) {
        let mut conn = FramedConnection::new(MockStream::new(bytes, chunk));
        let (frames, _err) = drain(&mut conn);
        for f in frames {
            prop_assert!(f.len() <= MAX_FRAME_BYTES);
        }
    }

    /// Well-formed frames survive any chunking intact and in order.
    #[test]
    fn frames_round_trip_under_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..8),
        chunk in 1..16usize,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&(p.len() as u32).to_be_bytes());
            wire.extend_from_slice(p);
        }
        let mut conn = FramedConnection::new(MockStream::new(wire, chunk));
        let (frames, err) = drain(&mut conn);
        prop_assert!(err.is_none(), "clean frames must not error: {err:?}");
        prop_assert_eq!(frames, payloads);
    }
}

/// A length prefix past `MAX_FRAME_BYTES` is rejected from the four header
/// bytes alone — no body is awaited and no buffer of the declared size is
/// allocated.
#[test]
fn length_prefix_bomb_is_rejected_from_header() {
    let bomb = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    let mut conn = FramedConnection::new(MockStream::new(bomb, 4));
    let (frames, err) = drain(&mut conn);
    assert!(frames.is_empty());
    match err {
        Some(BriskError::Protocol(msg)) => assert!(msg.contains("exceeds")),
        other => panic!("expected protocol error, got {other:?}"),
    }
}
