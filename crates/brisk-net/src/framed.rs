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
use std::time::Duration;

/// The socket operations framing needs beyond `Read + Write`.
pub trait RawStream: Read + Write + Send {
    /// Set (or clear) the read timeout.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Toggle non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
    /// Human-readable peer identity.
    fn peer_label(&self) -> String;
    /// The underlying OS file descriptor, if any (reactor polling).
    fn raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

impl RawStream for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        std::net::TcpStream::set_nonblocking(self, nonblocking)
    }

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
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_nonblocking(self, nonblocking)
    }

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
/// when no connection is pending. The stream returned is blocking.
pub(crate) fn accepted<S: RawStream>(accepted: std::io::Result<S>) -> Result<Option<S>> {
    match accepted {
        Ok(stream) => {
            stream.set_nonblocking(false)?;
            Ok(Some(stream))
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// One framed connection over a raw stream socket.
pub struct FramedConnection<S: RawStream> {
    stream: S,
    /// Bytes received but not yet consumed as a whole frame. A timeout may
    /// strike mid-frame; the partial bytes are kept here so nothing is
    /// lost.
    rbuf: Vec<u8>,
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
            rbuf: Vec::with_capacity(64 * 1024),
            wbuf: Vec::with_capacity(4 * 1024),
            peer,
        }
    }

    /// If `rbuf` holds a complete frame, detach and return it.
    fn try_extract_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.rbuf.len() < 4 {
            return Ok(None);
        }
        let len =
            u32::from_be_bytes([self.rbuf[0], self.rbuf[1], self.rbuf[2], self.rbuf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {len} exceeds {MAX_FRAME_BYTES}"
            )));
        }
        if self.rbuf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.rbuf[4..4 + len].to_vec();
        self.rbuf.drain(..4 + len);
        Ok(Some(frame))
    }

    fn recv_inner(&mut self) -> Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.try_extract_frame()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(BriskError::Disconnected),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
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
        // A zero timeout means "poll without blocking": the EXS uses it on
        // its hot path, so it must cost one non-blocking read, not a 1 ms
        // stall. std rejects Duration::ZERO in set_read_timeout, hence the
        // nonblocking-mode branch.
        let nonblocking = timeout == Some(Duration::ZERO);
        if nonblocking {
            self.stream.set_nonblocking(true)?;
        } else {
            self.stream.set_nonblocking(false)?;
            let timeout = timeout.map(|t| t.max(Duration::from_millis(1)));
            self.stream.set_read_timeout(timeout)?;
        }
        let result = self.recv_inner();
        if nonblocking {
            self.stream.set_nonblocking(false)?;
        }
        result
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.stream.raw_fd()
    }

    fn has_buffered(&self) -> bool {
        !self.rbuf.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use crate::traits::{Listener, Transport};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
}
