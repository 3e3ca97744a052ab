//! Unix-domain-socket transport (Unix only).
//!
//! On a single host — EXS and ISM co-located, or containerized nodes
//! sharing a volume — Unix sockets skip the TCP/IP stack entirely while
//! keeping the exact same reliable-stream semantics. The address is a
//! filesystem path; binding removes a stale socket file left by a crashed
//! predecessor, and the listener unlinks its path on drop.

#![cfg(unix)]

use crate::framed::{accepted, FramedConnection};
use crate::traits::{Connection, Listener, Transport};
use brisk_core::Result;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// The Unix-domain-socket transport. Addresses are filesystem paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdsTransport;

impl Transport for UdsTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        // Remove a stale socket file (e.g. from a crashed ISM); a live
        // listener would have it open, making the remove harmless to new
        // connections only in the crashed case we care about.
        let path = PathBuf::from(addr);
        if path.exists() {
            let _ = std::fs::remove_file(&path);
        }
        let listener = UnixListener::bind(&path)?;
        UnixListenerWrap::boxed(listener, addr.into(), Some(path))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        let stream = UnixStream::connect(addr)?;
        Ok(Box::new(FramedConnection::new(stream)))
    }
}

/// A non-blocking Unix listener, shared with the in-memory transport's
/// abstract-namespace sockets. `socket_file`, when set, is unlinked on
/// drop.
pub(crate) struct UnixListenerWrap {
    listener: UnixListener,
    addr: String,
    socket_file: Option<PathBuf>,
}

impl UnixListenerWrap {
    /// Serve `listener`, made non-blocking, as `addr`.
    pub(crate) fn boxed(
        listener: UnixListener,
        addr: String,
        socket_file: Option<PathBuf>,
    ) -> Result<Box<dyn Listener>> {
        listener.set_nonblocking(true)?;
        Ok(Box::new(UnixListenerWrap {
            listener,
            addr,
            socket_file,
        }))
    }
}

impl Drop for UnixListenerWrap {
    fn drop(&mut self) {
        if let Some(path) = &self.socket_file {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Listener for UnixListenerWrap {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Connection>>> {
        let stream = accepted(self.listener.accept().map(|(s, _)| s))?;
        Ok(stream.map(|s| Box::new(FramedConnection::new(s)) as Box<dyn Connection>))
    }

    fn poll_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn sock_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("brisk-uds-test-{tag}-{}.sock", std::process::id()))
            .display()
            .to_string()
    }

    fn pair(tag: &str) -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = UdsTransport;
        let mut listener = t.listen(&sock_path(tag)).unwrap();
        let addr = listener.local_addr();
        let client = thread::spawn(move || UdsTransport.connect(&addr).unwrap());
        let server = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let client = client.join().unwrap();
        // Listener may drop now; established connections outlive it.
        (server, client)
    }

    #[test]
    fn round_trip_frames() {
        let (mut server, mut client) = pair("rt");
        client.send(b"over unix").unwrap();
        let got = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(got, b"over unix");
        server.send(b"ack").unwrap();
        assert_eq!(
            client.recv(Some(Duration::from_secs(5))).unwrap().unwrap(),
            b"ack"
        );
    }

    #[test]
    fn ordering_and_boundaries_hold() {
        // Sender on its own thread: hundreds of unread tiny frames can
        // legitimately fill the socket buffer (each frame costs a whole
        // kernel skb on AF_UNIX), so sending inline would deadlock — the
        // same backpressure a real EXS/ISM pair never hits because the ISM
        // always drains.
        let (mut server, mut client) = pair("ord");
        let sender = thread::spawn(move || {
            for i in 0..500u32 {
                client.send(&i.to_le_bytes()).unwrap();
            }
            client
        });
        for i in 0..500u32 {
            let f = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
        drop(sender.join().unwrap());
    }

    #[test]
    fn timeout_and_disconnect() {
        let (mut server, client) = pair("dc");
        assert!(server
            .recv(Some(Duration::from_millis(10)))
            .unwrap()
            .is_none());
        drop(client);
        let err = server.recv(Some(Duration::from_secs(5))).unwrap_err();
        assert!(err.is_disconnect());
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let path = sock_path("stale");
        std::fs::write(&path, b"stale").unwrap();
        let t = UdsTransport;
        let mut listener = t.listen(&path).unwrap();
        let client = {
            let addr = listener.local_addr();
            thread::spawn(move || UdsTransport.connect(&addr).unwrap())
        };
        assert!(listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .is_some());
        drop(client.join().unwrap());
    }

    #[test]
    fn socket_file_removed_on_drop() {
        let path = sock_path("rm");
        let t = UdsTransport;
        let listener = t.listen(&path).unwrap();
        assert!(std::path::Path::new(&path).exists());
        drop(listener);
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn works_with_the_full_pipeline_protocol() {
        use brisk_proto::Message;
        let (mut server, mut client) = pair("proto");
        client
            .send(
                &Message::Hello {
                    node: brisk_core::NodeId(3),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        let frame = server.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Message::Hello { .. }
        ));
    }
}
