//! Transport abstraction: blocking, frame-oriented, reliable, in-order.

use brisk_core::Result;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

/// A bidirectional, reliable, in-order frame channel between an external
/// sensor and the ISM.
pub trait Connection: Send {
    /// Send one frame. Blocks until the frame is handed to the transport.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Receive one frame.
    ///
    /// * `Ok(Some(frame))` — a frame arrived;
    /// * `Ok(None)` — the timeout elapsed with no complete frame (only when
    ///   a timeout was given);
    /// * `Err(BriskError::Disconnected)` — the peer closed the channel.
    ///
    /// A `None` timeout blocks indefinitely; `Some(ZERO)` only looks. A
    /// framed connection returns a frame it already buffered at once, and
    /// otherwise waits in one `poll(2)` on its fd for the time left — the
    /// paper's "waiting select system call" — reading once the fd is
    /// readable, so the deadline holds to the millisecond rather than to
    /// the kernel's timer tick.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>>;

    /// Human-readable peer identity, for diagnostics.
    fn peer(&self) -> String;

    /// The OS file descriptor a reactor may poll for readability (see
    /// `brisk_net::poll`). Every transport's live connections have one;
    /// `None` marks a connection with no socket left (a fault-killed
    /// link), whose next `recv` fails at once.
    fn poll_fd(&self) -> Option<RawFd> {
        None
    }

    /// True if a previous `recv` left bytes in a userspace read buffer.
    /// Framed transports drain the kernel socket eagerly, so complete
    /// frames can be waiting here with `poll_fd` showing no readability —
    /// a reactor must treat such a connection as readable or those frames
    /// stall until the peer happens to send more bytes.
    fn has_buffered(&self) -> bool {
        false
    }
}

/// Accepts incoming connections (the ISM side).
///
/// Every listener is non-blocking with a pollable fd: a reactor puts
/// [`Listener::poll_fd`] in its poll set and calls
/// [`Listener::try_accept`] while it reports readable.
pub trait Listener: Send {
    /// Accept one pending connection without blocking; `Ok(None)` when
    /// none is pending.
    fn try_accept(&mut self) -> Result<Option<Box<dyn Connection>>>;

    /// The listening socket's fd: readable while a connection is pending.
    fn poll_fd(&self) -> RawFd;

    /// The address peers should connect to.
    fn local_addr(&self) -> String;

    /// Accept one connection, waiting in `poll(2)` on [`Listener::poll_fd`]
    /// for at most `timeout` (`None` blocks); `Ok(None)` on timeout.
    fn accept(&mut self, timeout: Option<Duration>) -> Result<Option<Box<dyn Connection>>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(conn) = self.try_accept()? {
                return Ok(Some(conn));
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return Ok(None);
            }
            crate::poll::wait_readable(self.poll_fd(), left)?;
        }
    }
}

/// A transport: a way to listen and to connect.
pub trait Transport: Send + Sync {
    /// Bind a listener. `addr` syntax is transport-specific (`host:port`
    /// for TCP, any string key for the in-memory transport; for TCP, port 0
    /// picks a free port, see [`Listener::local_addr`]).
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>>;

    /// Connect to a listener.
    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>>;
}
