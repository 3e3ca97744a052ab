//! In-process transport: Linux abstract-namespace Unix sockets.
//!
//! Each [`MemTransport`] is a private namespace of string addresses: it
//! binds an address as an abstract-namespace socket named by a prefix of
//! the process id and the transport's instance number, so two transports
//! in one process, or two processes, never collide. An in-process link is
//! then an ordinary Unix stream wrapped in the same [`FramedConnection`]
//! the TCP and Unix-domain transports use: it has a pollable fd, the
//! listener has one too, and the stream's reliable, in-order delivery and
//! backpressure hold (a send blocks once the peer's socket buffer is full,
//! as on TCP), without touching the filesystem or the network stack.
//! Abstract sockets are Linux-only, like the reactor's `poll(2)` binding.
//! Faults are injected by wrapping the transport in
//! [`FaultingTransport`](crate::FaultingTransport); the deterministic
//! virtual-time network lives in `brisk-sim`.

use crate::framed::FramedConnection;
use crate::traits::{Connection, Listener, Transport};
use crate::uds::UnixListenerWrap;
use brisk_core::Result;
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Instance numbers for [`MemTransport`] namespaces.
static NEXT_NAMESPACE: AtomicU64 = AtomicU64::new(0);

/// The in-memory transport. Addresses are arbitrary strings; each
/// `MemTransport` instance is its own private namespace.
pub struct MemTransport {
    /// Abstract socket name prefix: `brisk-mem/<pid>/<instance>/`.
    prefix: String,
}

impl MemTransport {
    /// New transport with an empty namespace.
    pub fn new() -> Arc<Self> {
        let instance = NEXT_NAMESPACE.fetch_add(1, Ordering::Relaxed);
        Arc::new(MemTransport {
            prefix: format!("brisk-mem/{}/{instance}/", std::process::id()),
        })
    }

    /// The abstract socket address `addr` names in this namespace.
    pub(crate) fn socket_addr(&self, addr: &str) -> Result<SocketAddr> {
        Ok(SocketAddr::from_abstract_name(format!(
            "{}{addr}",
            self.prefix
        ))?)
    }
}

impl Transport for Arc<MemTransport> {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let listener = UnixListener::bind_addr(&self.socket_addr(addr)?)?;
        UnixListenerWrap::boxed(listener, addr.into(), None)
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        let stream = UnixStream::connect_addr(&self.socket_addr(addr)?)?;
        Ok(Box::new(FramedConnection::new(stream)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{poll_in, Poller, POLLIN};
    use std::thread;
    use std::time::Duration;

    fn pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let c = t.connect("ism").unwrap();
        let s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        (s, c)
    }

    #[test]
    fn round_trip() {
        let (mut s, mut c) = pair();
        c.send(b"batch").unwrap();
        assert_eq!(
            s.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"batch"
        );
        s.send(b"ack").unwrap();
        assert_eq!(
            c.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"ack"
        );
    }

    #[test]
    fn in_order_delivery() {
        let (mut s, mut c) = pair();
        for i in 0..200u32 {
            c.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..200u32 {
            let f = s.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn disconnect_detected() {
        let (mut s, c) = pair();
        drop(c);
        let err = s.recv(Some(Duration::from_secs(1))).unwrap_err();
        assert!(err.is_disconnect());
    }

    #[test]
    fn mem_connections_are_pollable() {
        let (s, mut c) = pair();
        let s_fd = s.poll_fd().expect("accepted half has an fd");
        assert!(c.poll_fd().is_some(), "dialed half has an fd");
        let poller = Poller::new().unwrap();
        let mut fds = vec![poll_in(s_fd)];
        poller.wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_eq!(fds[0].revents & POLLIN, 0, "nothing sent yet");
        c.send(b"wake").unwrap();
        let mut fds = vec![poll_in(s_fd)];
        poller.wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_ne!(fds[0].revents & POLLIN, 0, "peer readable after a send");
    }

    #[test]
    fn frame_larger_than_the_socket_buffer_round_trips() {
        let (mut s, mut c) = pair();
        let frame: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
        let expected = frame.clone();
        let sender = thread::spawn(move || {
            c.send(&frame).unwrap();
            c
        });
        let got = s.recv(Some(Duration::from_secs(10))).unwrap().unwrap();
        assert_eq!(got, expected);
        drop(sender.join().unwrap());
    }

    #[test]
    fn connect_to_missing_address_fails() {
        let t = MemTransport::new();
        assert!(t.connect("nowhere").is_err());
    }

    #[test]
    fn double_bind_rejected_and_freed_on_drop() {
        let t = MemTransport::new();
        let l = t.listen("a").unwrap();
        assert!(t.listen("a").is_err());
        drop(l);
        assert!(t.listen("a").is_ok());
    }

    #[test]
    fn multiple_clients_one_listener() {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let mut clients: Vec<Box<dyn Connection>> =
            (0..4).map(|_| t.connect("ism").unwrap()).collect();
        let mut servers = Vec::new();
        for _ in 0..4 {
            servers.push(l.accept(Some(Duration::from_secs(1))).unwrap().unwrap());
        }
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(&(i as u32).to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        for s in &mut servers {
            let f = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            seen.push(u32::from_le_bytes(f[..].try_into().unwrap()));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cross_thread_traffic() {
        let (mut s, mut c) = pair();
        const N: u32 = 2_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                c.send(&i.to_le_bytes()).unwrap();
            }
            c
        });
        for i in 0..N {
            let f = s.recv(Some(Duration::from_secs(10))).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
        drop(producer.join().unwrap());
    }

    #[test]
    fn instances_are_separate_namespaces() {
        let (a, b) = (MemTransport::new(), MemTransport::new());
        let mut la = a.listen("ism").unwrap();
        let mut lb = b.listen("ism").unwrap();
        let mut ca = a.connect("ism").unwrap();
        ca.send(b"to a").unwrap();
        let mut sa = la.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            sa.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"to a"
        );
        assert!(
            lb.accept(Some(Duration::from_millis(50)))
                .unwrap()
                .is_none(),
            "a connect must reach only its own instance's listener"
        );
        drop(la);
        assert!(a.connect("ism").is_err(), "a's name is free once it drops");
        assert!(b.connect("ism").is_ok(), "b's listener is still bound");
    }
}
