//! TCP transport: `std::net` with 4-byte big-endian length framing.
//!
//! `TCP_NODELAY` is set on every connection: BRISK batches records itself
//! (the EXS's "batching, latency control" stage), so Nagle's algorithm
//! would only add latency on top of deliberately-flushed batches.

use crate::framed::{accepted, FramedConnection};
use crate::traits::{Connection, Listener, Transport};
use brisk_core::Result;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};

/// The real-network transport.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTransport;

fn wrap(stream: TcpStream) -> Result<Box<dyn Connection>> {
    stream.set_nodelay(true)?;
    Ok(Box::new(FramedConnection::new(stream)))
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Box::new(TcpListenerWrap { listener }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        wrap(TcpStream::connect(addr)?)
    }
}

struct TcpListenerWrap {
    listener: TcpListener,
}

impl Listener for TcpListenerWrap {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Connection>>> {
        accepted(self.listener.accept().map(|(s, _)| s))?
            .map(wrap)
            .transpose()
    }

    fn poll_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_FRAME_BYTES;
    use std::thread;
    use std::time::Duration;

    fn pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = TcpTransport;
        let mut listener = t.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let client = thread::spawn(move || TcpTransport.connect(&addr).unwrap());
        let server = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        (server, client.join().unwrap())
    }

    #[test]
    fn round_trip_frames() {
        let (mut server, mut client) = pair();
        client.send(b"hello ism").unwrap();
        let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(got, b"hello ism");
        server.send(b"hello exs").unwrap();
        let got = client.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(got, b"hello exs");
    }

    #[test]
    fn empty_frames_are_legal() {
        let (mut server, mut client) = pair();
        client.send(b"").unwrap();
        let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn many_frames_keep_order_and_boundaries() {
        let (mut server, mut client) = pair();
        let frames: Vec<Vec<u8>> = (0..500u32)
            .map(|i| {
                let mut v = i.to_le_bytes().to_vec();
                v.resize(4 + (i % 97) as usize, (i % 251) as u8);
                v
            })
            .collect();
        let sender = {
            let frames = frames.clone();
            thread::spawn(move || {
                for f in &frames {
                    client.send(f).unwrap();
                }
                client // keep alive until the receiver is done
            })
        };
        for expect in &frames {
            let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
            assert_eq!(&got, expect);
        }
        drop(sender.join().unwrap());
    }

    #[test]
    fn recv_timeout_returns_none_and_loses_nothing() {
        let (mut server, mut client) = pair();
        assert!(server
            .recv(Some(Duration::from_millis(10)))
            .unwrap()
            .is_none());
        client.send(b"late").unwrap();
        let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(got, b"late");
    }

    #[test]
    fn zero_timeout_is_nonblocking_poll() {
        let (mut server, mut client) = pair();
        let t0 = std::time::Instant::now();
        assert!(server.recv(Some(Duration::ZERO)).unwrap().is_none());
        assert!(t0.elapsed() < Duration::from_millis(5), "must not stall");
        client.send(b"x").unwrap();
        // Poll until the kernel delivers it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(got) = server.recv(Some(Duration::ZERO)).unwrap() {
                assert_eq!(got, b"x");
                break;
            }
            assert!(std::time::Instant::now() < deadline);
        }
    }

    #[test]
    fn peer_disconnect_is_reported() {
        let (mut server, client) = pair();
        drop(client);
        let err = loop {
            match server.recv(Some(Duration::from_secs(5))) {
                Ok(Some(_)) => continue,
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.is_disconnect(), "got {err}");
    }

    #[test]
    fn oversized_send_rejected_locally() {
        let (mut server, mut client) = pair();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(client.send(&huge).is_err());
        // Connection still usable.
        client.send(b"ok").unwrap();
        let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(got, b"ok");
    }

    #[test]
    fn accept_timeout_expires() {
        let t = TcpTransport;
        let mut listener = t.listen("127.0.0.1:0").unwrap();
        let r = listener.accept(Some(Duration::from_millis(20))).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn concurrent_bidirectional_traffic() {
        let (mut server, mut client) = pair();
        const N: u32 = 1_000;
        let a = thread::spawn(move || {
            for i in 0..N {
                client.send(&i.to_le_bytes()).unwrap();
            }
            let mut sum = 0u64;
            for _ in 0..N {
                let f = client.recv(Some(Duration::from_secs(10))).unwrap().unwrap();
                sum += u32::from_le_bytes(f[..].try_into().unwrap()) as u64;
            }
            sum
        });
        let b = thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..N {
                let f = server.recv(Some(Duration::from_secs(10))).unwrap().unwrap();
                let v = u32::from_le_bytes(f[..].try_into().unwrap());
                sum += v as u64;
                server.send(&v.to_le_bytes()).unwrap();
            }
            sum
        });
        let expected: u64 = (0..N as u64).sum();
        assert_eq!(a.join().unwrap(), expected);
        assert_eq!(b.join().unwrap(), expected);
    }
}
