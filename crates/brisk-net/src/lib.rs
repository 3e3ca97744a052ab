//! # brisk-net — transport substrate
//!
//! BRISK sends instrumentation data "over a TCP stream socket" (§3.4); the
//! in-order, reliable delivery of batches "is guaranteed by the socket
//! stream protocol" (§3.5). This crate provides that substrate behind a
//! small trait surface so the LIS and ISM are transport-agnostic:
//!
//! * [`traits`] — [`traits::Transport`], [`traits::Listener`],
//!   [`traits::Connection`]: blocking, frame-oriented (each frame is one
//!   protocol message; framing is a 4-byte big-endian length prefix on the
//!   wire).
//! * [`tcp`] — the real `std::net` TCP implementation; the ISM's reactor
//!   multiplexes every connection's socket through one `poll(2)`.
//! * [`uds`] — Unix-domain sockets for co-located deployments (Unix only).
//! * [`mem`] — named abstract-namespace sockets in one process (Linux),
//!   framed like the other two, used by tests, examples and the
//!   simulator. Faults on any of them come from [`fault`]. (The fully deterministic virtual-time
//!   network lives in `brisk-sim`.)

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod fault;
pub mod framed;
pub mod mem;
pub mod metered;
#[cfg(unix)]
pub mod poll;
pub mod tcp;
pub mod traits;
#[cfg(unix)]
pub mod uds;

pub use fault::{
    FaultEvent, FaultKind, FaultSpec, FaultStats, FaultingConnection, FaultingTransport,
};
pub use framed::{FramedConnection, RawStream};
pub use mem::MemTransport;
pub use metered::{ConnMetrics, MeteredConnection};
#[cfg(unix)]
pub use poll::{poll_in, PollFd, Poller, Waker, POLLERR, POLLHUP, POLLIN};
pub use tcp::TcpTransport;
pub use traits::{Connection, Listener, Transport};
#[cfg(unix)]
pub use uds::UdsTransport;

/// Upper bound on one frame; a corrupt length prefix must not cause a
/// multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;
