//! Shared framing over any stream socket.
//!
//! Both the TCP and Unix-domain transports speak the same wire framing — a
//! 4-byte big-endian length prefix per frame. [`FramedConnection`]
//! implements it once over anything satisfying [`RawStream`].
//!
//! This is the first consumer of raw wire bytes, so its decode path must
//! never panic regardless of input.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::traits::Connection;
use crate::MAX_FRAME_BYTES;
use brisk_core::{BriskError, Result};
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// The socket operations framing needs beyond `Read + Write`. Streams
/// stay blocking: a timed receive waits in `poll(2)` on [`RawStream::raw_fd`]
/// and reads only once the fd is readable.
pub trait RawStream: Read + Write + Send {
    /// Human-readable peer identity.
    fn peer_label(&self) -> String;
    /// The underlying OS file descriptor, if any (reactor polling). A
    /// stream without one is read without waiting; `WouldBlock` from it
    /// means no data.
    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

impl RawStream for std::net::TcpStream {
    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }

    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.as_raw_fd())
    }
}

#[cfg(unix)]
impl RawStream for std::os::unix::net::UnixStream {
    fn peer_label(&self) -> String {
        self.peer_addr()
            .ok()
            .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
            .unwrap_or_else(|| "<unix-peer>".into())
    }

    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.as_raw_fd())
    }
}

/// One `accept` result from a non-blocking std listener, as
/// [`Listener::try_accept`](crate::Listener::try_accept) reports it;
/// shared by the TCP, Unix-domain and in-memory listeners. `Ok(None)`
/// when no connection is pending. The stream returned is blocking: on
/// Linux `accept4` does not pass the listener's `O_NONBLOCK` on.
pub(crate) fn accepted<S: RawStream>(accepted: std::io::Result<S>) -> Result<Option<S>> {
    match accepted {
        Ok(stream) => Ok(Some(stream)),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// One framed connection over a raw stream socket.
pub struct FramedConnection<S: RawStream> {
    stream: S,
    /// Receive buffer, zeroed once and read into in place: bytes
    /// `[start, end)` are received but not yet consumed as a whole frame,
    /// `[end, len)` take the next `read`. A timeout may strike mid-frame;
    /// the partial bytes stay here so nothing is lost.
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    /// Send scratch: prefix + payload are combined into one `write` — one
    /// syscall per frame, and (on Unix sockets) one kernel skb instead of
    /// two, which doubles how many small unread frames fit in the socket
    /// buffer before backpressure.
    wbuf: Vec<u8>,
    peer: String,
}

impl<S: RawStream> FramedConnection<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Self {
        let peer = stream.peer_label();
        FramedConnection {
            stream,
            rbuf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            wbuf: Vec::with_capacity(4 * 1024),
            peer,
        }
    }

    /// If the buffer holds a complete frame, copy it out and consume it
    /// by moving `start` past it.
    fn try_extract_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let buffered = &self.rbuf[self.start..self.end];
        if buffered.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([buffered[0], buffered[1], buffered[2], buffered[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {len} exceeds {MAX_FRAME_BYTES}"
            )));
        }
        let Some(frame) = buffered.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = frame.to_vec();
        self.start += 4 + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(frame))
    }

    /// One `read` into the buffer's free tail; `false` when the stream had
    /// nothing after all (only a stream without an fd says so). Buffered
    /// bytes move to the front only once the consumed prefix is half the
    /// buffer, so a move copies fewer bytes than were consumed since the
    /// last; a full buffer with less consumed holds a partial frame of
    /// more than half its size, and doubles.
    fn read_once(&mut self) -> Result<bool> {
        let size = self.rbuf.len();
        if self.start >= size / 2 {
            self.rbuf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        } else if self.end == size {
            self.rbuf.resize(2 * size, 0);
        }
        match self.stream.read(&mut self.rbuf[self.end..]) {
            Ok(0) => Err(BriskError::Disconnected),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

impl<S: RawStream> Connection for FramedConnection<S> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {} exceeds {MAX_FRAME_BYTES}",
                frame.len()
            )));
        }
        self.wbuf.clear();
        self.wbuf
            .extend_from_slice(&(frame.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(frame);
        self.stream.write_all(&self.wbuf)?;
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        // A frame already buffered costs no syscall; otherwise each round
        // is one poll(2) for the time left (0 for `Some(ZERO)`, so a busy
        // caller learns "nothing" in one syscall) and one read once the
        // fd is readable, which a blocking stream then does not block on.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        loop {
            if let Some(frame) = self.try_extract_frame()? {
                return Ok(Some(frame));
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let readable = match self.stream.raw_fd() {
                Some(fd) => crate::poll::wait_readable(fd, left)?,
                None => true,
            };
            if readable {
                if !self.read_once()? {
                    return Ok(None);
                }
            } else if left.is_some_and(|l| l.is_zero()) {
                return Ok(None);
            }
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.stream.raw_fd()
    }

    fn has_buffered(&self) -> bool {
        self.start < self.end
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use crate::traits::{Connection, Listener, Transport};
    use std::io::Write;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A stream without an fd that hands out scripted chunks, one or
    /// part of one per `read`; an empty chunk reads as `WouldBlock` once.
    struct Script(std::collections::VecDeque<Vec<u8>>, usize);

    impl std::io::Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            let Some(chunk) = self.0.front_mut() else {
                return Err(std::io::ErrorKind::WouldBlock.into());
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.0.pop_front();
            }
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl super::RawStream for Script {
        fn peer_label(&self) -> String {
            "script".into()
        }
    }

    fn wire(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for f in frames {
            wire.extend_from_slice(&(f.len() as u32).to_be_bytes());
            wire.extend_from_slice(f);
        }
        wire
    }

    fn scripted(chunks: Vec<Vec<u8>>) -> super::FramedConnection<Script> {
        super::FramedConnection::new(Script(chunks.into(), 0))
    }

    #[test]
    fn several_frames_in_one_read_come_out_one_by_one() {
        let frames = vec![b"one".to_vec(), Vec::new(), b"three".to_vec()];
        let mut conn = scripted(vec![wire(&frames)]);
        for f in &frames {
            assert_eq!(conn.recv(Some(Duration::ZERO)).unwrap().as_ref(), Some(f));
        }
        assert!(!conn.has_buffered());
        assert_eq!(conn.recv(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(
            conn.stream.1, 2,
            "one read for three frames, one that found nothing"
        );
    }

    #[test]
    fn a_frame_split_across_reads_waits_for_its_last_byte() {
        // Split inside the prefix, then inside the payload, with nothing
        // to read between the pieces.
        let w = wire(&[b"split frame".to_vec(), b"next".to_vec()]);
        let mut conn = scripted(vec![
            w[..2].to_vec(),
            Vec::new(),
            w[2..9].to_vec(),
            Vec::new(),
            w[9..].to_vec(),
        ]);
        assert_eq!(conn.recv(Some(Duration::ZERO)).unwrap(), None);
        assert!(conn.has_buffered());
        assert_eq!(conn.recv(Some(Duration::ZERO)).unwrap(), None);
        let got = conn.recv(Some(Duration::ZERO)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"split frame"[..]));
        let got = conn.recv(Some(Duration::ZERO)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"next"[..]));
    }

    #[test]
    fn frames_in_arbitrary_chunks_survive_compaction_and_growth() {
        // Thousands of small frames and two larger than the 64 KiB
        // buffer, cut into chunks that ignore frame bounds.
        let mut frames: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| (0..i % 301).map(|j| (i + j) as u8).collect())
            .collect();
        frames.insert(1000, vec![0xAB; 150 * 1024]);
        frames.insert(2500, vec![0xCD; 70 * 1024]);
        let w = wire(&frames);
        let (mut chunks, mut at, mut cut) = (Vec::new(), 0, 1usize);
        while at < w.len() {
            cut = (cut * 7919 + 13) % 9000 + 1;
            let end = (at + cut).min(w.len());
            chunks.push(w[at..end].to_vec());
            at = end;
        }
        let mut conn = scripted(chunks);
        for (i, f) in frames.iter().enumerate() {
            let got = conn.recv(Some(Duration::ZERO)).unwrap();
            assert_eq!(got.as_ref(), Some(f), "frame {i}");
        }
        assert!(!conn.has_buffered());
    }

    /// A fresh listener on every transport, with the transport that dials
    /// it: the accept-deadline cases run over each.
    fn listeners(tag: &str) -> Vec<(Arc<dyn Transport>, Box<dyn Listener>)> {
        let mut at: Vec<(Arc<dyn Transport>, String)> = vec![
            (Arc::new(crate::TcpTransport), "127.0.0.1:0".into()),
            (Arc::new(crate::MemTransport::new()), tag.into()),
        ];
        #[cfg(unix)]
        at.push((
            Arc::new(crate::UdsTransport),
            std::env::temp_dir()
                .join(format!("brisk-accept-{tag}-{}.sock", std::process::id()))
                .display()
                .to_string(),
        ));
        at.into_iter()
            .map(|(t, addr)| {
                let l = t.listen(&addr).unwrap();
                (t, l)
            })
            .collect()
    }

    #[test]
    fn accept_timeout_expires_near_deadline() {
        // The wait is one poll(2) on the listener's fd: it must honour
        // the caller's deadline, neither early nor oversleeping it.
        for (_, mut listener) in listeners("deadline") {
            let t0 = Instant::now();
            let r = listener.accept(Some(Duration::from_millis(60))).unwrap();
            let elapsed = t0.elapsed();
            assert!(r.is_none());
            assert!(
                elapsed >= Duration::from_millis(60),
                "returned early: {elapsed:?}"
            );
            assert!(
                elapsed < Duration::from_millis(200),
                "overslept the deadline: {elapsed:?}"
            );
        }
    }

    #[test]
    fn connection_arriving_mid_wait_is_accepted() {
        // A connect that lands while accept() is parked in poll(2) wakes
        // it well before the timeout expires.
        for (transport, mut listener) in listeners("midwait") {
            let addr = listener.local_addr();
            let client = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                transport.connect(&addr).unwrap()
            });
            let r = listener.accept(Some(Duration::from_secs(5))).unwrap();
            assert!(r.is_some(), "mid-wait connection must be accepted");
            drop(client.join().unwrap());
        }
    }

    /// A dialed connection and its accepted peer on every transport.
    fn connected(tag: &str) -> Vec<(Box<dyn Connection>, Box<dyn Connection>)> {
        listeners(tag)
            .into_iter()
            .map(|(t, mut l)| {
                let dialed = t.connect(&l.local_addr()).unwrap();
                let accepted = l.accept(Some(Duration::from_secs(5))).unwrap().unwrap();
                (dialed, accepted)
            })
            .collect()
    }

    #[test]
    fn a_timed_recv_keeps_its_deadline() {
        // One poll(2) for the time left: a 1 ms wait on a silent link
        // lasts about 1 ms, not a socket-timeout's timer tick.
        for (_dialed, mut accepted) in connected("silent") {
            let mut took: Vec<Duration> = (0..20)
                .map(|_| {
                    let t0 = Instant::now();
                    let got = accepted.recv(Some(Duration::from_millis(1))).unwrap();
                    assert!(got.is_none());
                    t0.elapsed()
                })
                .collect();
            took.sort();
            assert!(
                took[0] >= Duration::from_millis(1),
                "returned early: {took:?}"
            );
            assert!(took[10] < Duration::from_millis(3), "overslept: {took:?}");
        }
    }

    #[test]
    fn a_frame_written_in_two_halves_arrives_whole() {
        // The accepting side of each transport, dialed by a raw socket
        // that writes one frame's bytes 2 ms apart.
        let mem = crate::MemTransport::new();
        let uds = std::env::temp_dir()
            .join(format!("brisk-halves-{}.sock", std::process::id()))
            .display()
            .to_string();
        let mut tcp_l = crate::TcpTransport.listen("127.0.0.1:0").unwrap();
        let mut mem_l = mem.listen("halves").unwrap();
        let mut uds_l = crate::UdsTransport.listen(&uds).unwrap();
        let tcp_peer = std::net::TcpStream::connect(tcp_l.local_addr()).unwrap();
        let mem_addr = mem.socket_addr("halves").unwrap();
        let mem_peer = std::os::unix::net::UnixStream::connect_addr(&mem_addr).unwrap();
        let uds_peer = std::os::unix::net::UnixStream::connect(&uds).unwrap();
        let raw: Vec<(Box<dyn Write + Send>, _)> = vec![
            (Box::new(tcp_peer), &mut tcp_l),
            (Box::new(mem_peer), &mut mem_l),
            (Box::new(uds_peer), &mut uds_l),
        ];
        for (mut peer, listener) in raw {
            let accepted = listener.accept(Some(Duration::from_secs(5))).unwrap();
            let mut conn = accepted.unwrap();
            let writer = std::thread::spawn(move || {
                let mut wire = 6u32.to_be_bytes().to_vec();
                wire.extend_from_slice(b"halves");
                peer.write_all(&wire[..5]).unwrap();
                std::thread::sleep(Duration::from_millis(2));
                peer.write_all(&wire[5..]).unwrap();
                peer
            });
            let got = conn.recv(Some(Duration::from_millis(50))).unwrap();
            assert_eq!(got.as_deref(), Some(&b"halves"[..]));
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn an_accepted_stream_blocks_on_a_full_socket_buffer() {
        // The listener is non-blocking, its accepted streams are not: a
        // send larger than the socket buffers waits for the reader
        // instead of failing with WouldBlock.
        let big = vec![7u8; 12 << 20];
        for (mut dialed, mut accepted) in connected("full") {
            let frame = big.clone();
            let sender = std::thread::spawn(move || accepted.send(&frame).map(|()| accepted));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!sender.is_finished(), "the send must wait for the reader");
            let got = dialed.recv(Some(Duration::from_secs(10))).unwrap();
            assert!(got.is_some_and(|f| f == big));
            assert!(sender.join().unwrap().is_ok());
        }
    }
}
