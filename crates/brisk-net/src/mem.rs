//! In-process transport: named socketpairs.
//!
//! Each [`MemTransport`] is a private namespace of string addresses.
//! `connect` opens a `UnixStream::pair()`, hands one half to the listener
//! bound at the address and keeps the other; both halves are wrapped in the
//! same [`FramedConnection`] the TCP and Unix-domain transports use. An
//! in-process link therefore has a pollable fd and the stream's reliable,
//! in-order delivery and backpressure (a send blocks once the peer's socket
//! buffer is full, as on TCP), without touching the filesystem or the
//! network stack. Faults are injected by wrapping the transport in
//! [`FaultingTransport`](crate::FaultingTransport); the deterministic
//! virtual-time network lives in `brisk-sim`.

use crate::framed::FramedConnection;
use crate::traits::{Connection, Listener, Transport};
use brisk_core::{BriskError, Result};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Error, ErrorKind};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Bound addresses, each with the channel its listener accepts from.
type Registry = Arc<Mutex<HashMap<String, Sender<UnixStream>>>>;

/// The in-memory transport. Addresses are arbitrary strings; each
/// `MemTransport` instance is its own private namespace.
pub struct MemTransport {
    registry: Registry,
}

impl MemTransport {
    /// New transport with an empty namespace.
    pub fn new() -> Arc<Self> {
        Arc::new(MemTransport {
            registry: Registry::default(),
        })
    }
}

impl Transport for Arc<MemTransport> {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let mut reg = self.registry.lock();
        if reg.contains_key(addr) {
            return Err(BriskError::Io(Error::new(
                ErrorKind::AddrInUse,
                format!("mem address {addr:?} already bound"),
            )));
        }
        let (tx, incoming) = unbounded();
        reg.insert(addr.to_string(), tx);
        Ok(Box::new(MemListener {
            addr: addr.to_string(),
            incoming,
            registry: Arc::clone(&self.registry),
        }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        let acceptor = self.registry.lock().get(addr).cloned().ok_or_else(|| {
            BriskError::Io(Error::new(
                ErrorKind::ConnectionRefused,
                format!("no mem listener at {addr:?}"),
            ))
        })?;
        let (client, server) = UnixStream::pair()?;
        acceptor
            .send(server)
            .map_err(|_| BriskError::Disconnected)?;
        Ok(Box::new(FramedConnection::new(client)))
    }
}

/// Listener half of [`MemTransport`]: a channel of dialed socketpair
/// halves. Unbinds its address on drop.
pub struct MemListener {
    addr: String,
    incoming: Receiver<UnixStream>,
    registry: Registry,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.addr);
    }
}

impl Listener for MemListener {
    fn accept(&mut self, timeout: Option<Duration>) -> Result<Option<Box<dyn Connection>>> {
        let stream = match timeout {
            None => self.incoming.recv().map_err(|_| BriskError::Disconnected)?,
            Some(t) => match self.incoming.recv_timeout(t) {
                Ok(s) => s,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(BriskError::Disconnected),
            },
        };
        Ok(Some(Box::new(FramedConnection::new(stream))))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{poll_in, Poller, POLLIN};
    use std::thread;

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
}
