//! Readiness polling for the ISM's loop and the EXS: a thin,
//! dependency-free wrapper over `poll(2)` (no tokio). The single `unsafe`
//! block in the crate lives here, confined to the raw syscall binding in
//! `sys`.
//!
//! * [`Poller`] — owns a wake channel (a socketpair) and sleeps in
//!   `poll(2)` over caller-supplied [`PollFd`]s plus its own wake fd, for
//!   at most a timeout, so its caller also keeps its deadlines.
//! * [`Waker`] — the cross-thread handle that interrupts a sleeping
//!   [`Poller`]; cheap to clone, safe to fire from any thread.
//! * [`wait_readable`] — one fd's wait, behind every blocking
//!   `Listener::accept` and every timed `Connection::recv`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

pub use sys::{PollFd, POLLERR, POLLHUP, POLLIN};

/// The raw `poll(2)` binding. `libc` is not among the vendored crates, so
/// the struct layout and constants are declared here; they are fixed ABI
/// on every platform this repo targets (Linux, and POSIX generally).
#[allow(unsafe_code)]
mod sys {
    /// One pollable descriptor, layout-compatible with `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events ([`POLLIN`]).
        pub events: i16,
        /// Returned events, filled by the kernel.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Error condition (returned only; never requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (returned only; never requested).
    pub const POLLHUP: i16 = 0x010;

    unsafe extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Safe wrapper: poll `fds` for at most `timeout_ms` milliseconds
    /// (negative blocks indefinitely). Returns the number of descriptors
    /// with non-zero `revents`. Retries on `EINTR`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-layout structs for the duration of the
            // call, and `nfds` matches its length.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
    }
}

/// Cross-thread wake handle for a [`Poller`]; see [`Poller::waker`].
///
/// Firing writes one byte into the poller's wake socketpair, making its
/// `poll(2)` return immediately (or its next call return without
/// sleeping). Wakes coalesce: many calls before the poller drains cost
/// one byte each at most, and a full pipe just means a wake is already
/// pending.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupt the poller. Never blocks, never fails: a full wake pipe
    /// already guarantees the poller will wake.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish()
    }
}

/// A `poll(2)` loop core: sleeps over a set of descriptors plus an
/// internal wake channel.
pub struct Poller {
    wake_rx: UnixStream,
    waker: Waker,
}

impl Poller {
    /// Create a poller and its wake channel.
    pub fn new() -> std::io::Result<Poller> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Poller {
            wake_rx: rx,
            waker: Waker { tx: Arc::new(tx) },
        })
    }

    /// A handle other threads can use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Sleep until a descriptor in `fds` is ready, the timeout elapses, or
    /// a [`Waker`] fires. On return each entry's `revents` is filled in;
    /// the result is `true` when the poller was explicitly woken. `None`
    /// blocks indefinitely (only sensible when a waker is held somewhere).
    ///
    /// The wake fd is appended to `fds` for the syscall and removed again
    /// before returning, so the caller's indices are stable.
    pub fn wait(&self, fds: &mut Vec<PollFd>, timeout: Option<Duration>) -> std::io::Result<bool> {
        fds.push(poll_in(self.wake_rx.as_raw_fd()));
        let polled = sys::poll_fds(fds, timeout_ms(timeout));
        let wake_entry = fds.pop();
        polled?;
        let woken = wake_entry.is_some_and(|e| e.revents & (POLLIN | POLLERR | POLLHUP) != 0);
        if woken {
            self.drain_wakes();
        }
        Ok(woken)
    }

    /// Swallow all pending wake bytes (the channel is nonblocking).
    fn drain_wakes(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish()
    }
}

/// `poll(2)`'s timeout argument for `timeout` (`None` blocks). `poll`
/// counts whole milliseconds, so every timeout rounds up: a loop waiting
/// for a deadline never wakes before it only to sleep the rest.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
        None => -1,
    }
}

/// Sleep until `fd` is readable or `timeout` elapses (`None` blocks);
/// `true` when it became readable. A hangup or error counts: the next
/// read reports it.
pub fn wait_readable(fd: RawFd, timeout: Option<Duration>) -> std::io::Result<bool> {
    let mut fds = [poll_in(fd)];
    sys::poll_fds(&mut fds, timeout_ms(timeout))?;
    Ok(fds[0].revents != 0)
}

/// Build a [`PollFd`] watching `fd` for readability.
pub fn poll_in(fd: RawFd) -> PollFd {
    PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1_500))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert_eq!(timeout_ms(None), -1);
    }

    #[test]
    fn timeout_elapses_without_ready_fds() {
        let p = Poller::new().unwrap();
        let mut fds = Vec::new();
        let t0 = Instant::now();
        let woken = p.wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert!(!woken);
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(fds.is_empty(), "wake entry must not leak into caller fds");
    }

    #[test]
    fn readable_fd_wakes_immediately() {
        let (a, b) = UnixStream::pair().unwrap();
        (&a).write_all(&[7]).unwrap();
        let p = Poller::new().unwrap();
        let mut fds = vec![poll_in(b.as_raw_fd())];
        let t0 = Instant::now();
        let woken = p.wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(!woken, "readiness is not an explicit wake");
        assert!(fds[0].revents & POLLIN != 0);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn waker_interrupts_a_sleeping_poller() {
        let p = Poller::new().unwrap();
        let w = p.waker();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        let mut fds = Vec::new();
        let t0 = Instant::now();
        let woken = p.wait(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert!(woken);
        assert!(t0.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_drain() {
        let p = Poller::new().unwrap();
        let w = p.waker();
        for _ in 0..100 {
            w.wake();
        }
        let mut fds = Vec::new();
        assert!(p.wait(&mut fds, Some(Duration::ZERO)).unwrap());
        // All pending wakes were drained by the previous wait.
        let t0 = Instant::now();
        assert!(!p.wait(&mut fds, Some(Duration::from_millis(15))).unwrap());
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn hangup_on_watched_fd_reports_ready() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        let p = Poller::new().unwrap();
        let mut fds = vec![poll_in(b.as_raw_fd())];
        p.wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(fds[0].revents & (POLLIN | POLLHUP) != 0);
    }
}
