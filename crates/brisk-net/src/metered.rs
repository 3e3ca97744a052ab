//! Connection instrumentation: a transparent byte/frame-counting wrapper.
//!
//! [`MeteredConnection`] wraps any [`Connection`] and counts frames and
//! bytes in each direction into shared [`ConnMetrics`] cells, so the ISM
//! can expose per-direction traffic totals without the transports
//! knowing anything about metrics. Wrapping every accepted connection
//! with the same cells aggregates naturally into one series per
//! direction.

use crate::traits::Connection;
use brisk_core::Result;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

brisk_telemetry::metrics! {
    /// The four traffic counters a [`MeteredConnection`] feeds; register
    /// them labeled by `role` (e.g. `"ism"` or `"exs"`).
    pub struct ConnMetrics {
        frames_in: counter "brisk_net_frames_total" "Frames moved over connections" ["dir" = "in"],
        frames_out: counter "brisk_net_frames_total" "Frames moved over connections" ["dir" = "out"],
        bytes_in: counter "brisk_net_bytes_total" "Frame payload bytes moved over connections" ["dir" = "in"],
        bytes_out: counter "brisk_net_bytes_total" "Frame payload bytes moved over connections" ["dir" = "out"],
    }
}

impl ConnMetrics {
    /// (frames_in, frames_out, bytes_in, bytes_out) totals so far.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.frames_in.load(Relaxed),
            self.frames_out.load(Relaxed),
            self.bytes_in.load(Relaxed),
            self.bytes_out.load(Relaxed),
        )
    }

    /// Wrap a connection so its traffic feeds these counters.
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn Connection>) -> Box<dyn Connection> {
        Box::new(MeteredConnection {
            inner,
            metrics: Arc::clone(self),
        })
    }
}

/// A [`Connection`] decorator counting frames and payload bytes per
/// direction. `recv` timeouts and disconnects are passed through
/// uncounted; only delivered frames move the counters.
pub struct MeteredConnection {
    inner: Box<dyn Connection>,
    metrics: Arc<ConnMetrics>,
}

impl Connection for MeteredConnection {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.inner.send(frame)?;
        self.metrics.frames_out.fetch_add(1, Relaxed);
        self.metrics
            .bytes_out
            .fetch_add(frame.len() as u64, Relaxed);
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        let got = self.inner.recv(timeout)?;
        if let Some(frame) = &got {
            self.metrics.frames_in.fetch_add(1, Relaxed);
            self.metrics.bytes_in.fetch_add(frame.len() as u64, Relaxed);
        }
        Ok(got)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.inner.poll_fd()
    }

    fn has_buffered(&self) -> bool {
        self.inner.has_buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemTransport;
    use crate::traits::Transport;
    use brisk_telemetry::Registry;

    #[test]
    fn counts_both_directions() {
        let t = MemTransport::new();
        let mut l = t.listen("x").unwrap();
        let client = t.connect("x").unwrap();
        let server = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();

        let m = Arc::<ConnMetrics>::default();
        let mut client = m.wrap(client);
        let mut server = server;

        client.send(b"hello").unwrap();
        client.send(b"worlds!").unwrap();
        let a = server.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        server.send(&a).unwrap();
        let echoed = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(echoed, b"hello");

        let (fi, fo, bi, bo) = m.totals();
        assert_eq!((fi, fo), (1, 2));
        assert_eq!(bo, 12); // "hello" + "worlds!"
        assert_eq!(bi, 5);
    }

    #[test]
    fn registry_series_aggregate_across_connections() {
        let registry = Registry::new();
        let m = Arc::<ConnMetrics>::default();
        m.register(&registry, &[("role", "ism")]);
        let t = MemTransport::new();
        let mut l = t.listen("x").unwrap();
        for _ in 0..3 {
            let c = t.connect("x").unwrap();
            let mut srv = m.wrap(l.accept(Some(Duration::from_secs(1))).unwrap().unwrap());
            let mut c = c;
            c.send(b"abcd").unwrap();
            srv.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_net_frames_total", &[("role", "ism"), ("dir", "in")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_labeled("brisk_net_bytes_total", &[("role", "ism"), ("dir", "in")]),
            Some(12)
        );
    }

    #[test]
    fn timeout_is_not_counted() {
        let t = MemTransport::new();
        let mut l = t.listen("x").unwrap();
        let _client = t.connect("x").unwrap();
        let server = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let m = Arc::<ConnMetrics>::default();
        let mut server = m.wrap(server);
        assert!(server
            .recv(Some(Duration::from_millis(5)))
            .unwrap()
            .is_none());
        assert_eq!(m.totals(), (0, 0, 0, 0));
    }
}
