//! Deterministic wire-fault injection: the chaos plane of `brisk-net`.
//!
//! [`FaultingTransport`] wraps any [`Transport`] (tcp, uds or mem) and
//! perturbs *outbound* frames on every connection it creates: per-frame
//! byte corruption, truncation, duplication, adjacent-frame reordering,
//! bounded extra delay, and an abrupt mid-stream kill. All decisions are
//! drawn from a seeded per-connection RNG described by [`FaultSpec`], so
//! **the same seed replays the same fault sequence byte-for-byte** — a
//! failing chaos run is a reproducible test case, not an anecdote.
//!
//! The wrapper sits *above* framing: a "corrupted frame" arrives with a
//! consistent length prefix but damaged payload, which is exactly what the
//! decode layers (`brisk-proto`/`brisk-xdr`) must survive. Truncation
//! shortens the payload (the transport re-frames it), reordering swaps two
//! adjacent frames, and a kill severs the connection like a TCP reset.
//! Inbound frames pass through untouched — fault one side of a link by
//! wrapping that side's transport.
//!
//! Every injected fault is counted in a shared [`FaultStats`] and appended
//! to a bounded event log ([`FaultStats::events`]) that tests compare
//! across runs to assert determinism.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::traits::{Connection, Listener, Transport};
use brisk_core::{BriskError, Result};
use brisk_telemetry::Registry;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on retained [`FaultEvent`]s; counters keep counting past it.
const MAX_FAULT_EVENTS: usize = 4096;

/// What faults to inject, and with what probability. All rates are
/// per-frame probabilities in `[0, 1]`; `seed` makes the whole schedule
/// deterministic (each connection derives its own RNG from `seed` and its
/// connection index, so multi-connection runs replay too).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Master seed for the fault schedule.
    pub seed: u64,
    /// Probability of flipping 1–3 payload bytes of a frame.
    pub corrupt_rate: f64,
    /// Probability of truncating a frame to a random prefix.
    pub truncate_rate: f64,
    /// Probability of sending a frame twice.
    pub duplicate_rate: f64,
    /// Probability of holding a frame back so it swaps places with the
    /// next one (adjacent reorder — the strongest reorder a stream
    /// transport's consumer can observe).
    pub reorder_rate: f64,
    /// Probability of delaying a frame by a uniform draw from
    /// `[0, max_delay]`.
    pub delay_rate: f64,
    /// Bound for injected delays.
    pub max_delay: Duration,
    /// Sever the connection (both directions, like a TCP reset) after this
    /// many sends. `None` disables the kill.
    pub kill_after_frames: Option<u64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(5),
            kill_after_frames: None,
        }
    }
}

impl FaultSpec {
    /// A spec injecting nothing, with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// True when every fault is disabled (the wrapper becomes a no-op
    /// pass-through apart from send accounting).
    pub fn is_noop(&self) -> bool {
        self.corrupt_rate == 0.0
            && self.truncate_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0
            && self.kill_after_frames.is_none()
    }

    /// Validate rates are probabilities.
    pub fn validate(&self) -> Result<()> {
        for (name, r) in [
            ("corrupt", self.corrupt_rate),
            ("truncate", self.truncate_rate),
            ("duplicate", self.duplicate_rate),
            ("reorder", self.reorder_rate),
            ("delay", self.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(BriskError::Config(format!(
                    "fault {name} rate {r} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// One injected fault, recorded with enough detail that two runs with the
/// same [`FaultSpec`] can be compared byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Bytes flipped in place: `(offset, xor_mask)` pairs.
    Corrupt(Vec<(usize, u8)>),
    /// Frame cut down to its first `keep` bytes.
    Truncate {
        /// Bytes kept.
        keep: usize,
    },
    /// Frame sent twice.
    Duplicate,
    /// Frame held back to swap with its successor.
    Reorder,
    /// Frame delayed by this many microseconds before sending.
    Delay {
        /// Injected delay.
        us: u64,
    },
    /// Connection severed mid-stream.
    Kill,
}

/// A fault applied to one frame of one connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which connection of the transport (creation order, from 0).
    pub conn: u64,
    /// Which outbound frame of that connection (from 0).
    pub frame: u64,
    /// What was done to it.
    pub kind: FaultKind,
}

brisk_telemetry::metrics! {
    /// Faults injected so far, one `brisk_fault_injected_total{kind=..}`
    /// series per kind.
    struct FaultCells {
        corrupted: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "corrupt"],
        truncated: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "truncate"],
        duplicated: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "duplicate"],
        reordered: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "reorder"],
        delayed: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "delay"],
        killed: counter "brisk_fault_injected_total" "Wire faults injected by the brisk-net fault plane" ["kind" = "kill"],
    }
}

/// Shared fault accounting: per-kind counters plus a bounded event log.
#[derive(Default)]
pub struct FaultStats {
    cells: Arc<FaultCells>,
    clean: AtomicU64,
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultStats {
    /// Fresh, empty stats.
    pub fn new() -> Arc<FaultStats> {
        Arc::new(FaultStats::default())
    }

    fn record(&self, counter: &AtomicU64, event: FaultEvent) {
        counter.fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock();
        if events.len() < MAX_FAULT_EVENTS {
            events.push(event);
        }
    }

    /// `(corrupted, truncated, duplicated, reordered, delayed, killed)`
    /// totals so far.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &self.cells;
        (
            ld(&c.corrupted),
            ld(&c.truncated),
            ld(&c.duplicated),
            ld(&c.reordered),
            ld(&c.delayed),
            ld(&c.killed),
        )
    }

    /// Total faults injected, of any kind.
    pub fn total(&self) -> u64 {
        let (c, t, d, r, dl, k) = self.counts();
        c + t + d + r + dl + k
    }

    /// Frames that passed through unperturbed.
    pub fn clean(&self) -> u64 {
        self.clean.load(Ordering::Relaxed)
    }

    /// The (bounded) fault event log, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    /// Export the per-kind injection counters as
    /// `brisk_fault_injected_total{kind=...}`.
    pub fn bind_telemetry(self: &Arc<Self>, registry: &Registry) {
        self.cells.register(registry, &[]);
    }
}

/// SplitMix64-style mix of the master seed and a connection index into a
/// per-connection RNG seed.
fn conn_seed(master: u64, conn: u64) -> u64 {
    let mut z = master ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`Transport`] decorator that injects [`FaultSpec`] faults into the
/// outbound direction of every connection it creates (both dialed and
/// accepted). Connection indices are assigned in creation order from a
/// shared counter, so a single-connection-per-role test is fully
/// deterministic.
pub struct FaultingTransport<T> {
    inner: T,
    spec: FaultSpec,
    stats: Arc<FaultStats>,
    next_conn: Arc<AtomicU64>,
}

impl<T: Transport> FaultingTransport<T> {
    /// Wrap `inner` so its connections inject faults per `spec`.
    pub fn new(inner: T, spec: FaultSpec) -> Self {
        FaultingTransport {
            inner,
            spec,
            stats: FaultStats::new(),
            next_conn: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The shared fault accounting for all connections of this transport.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }
}

impl<T: Transport> Transport for FaultingTransport<T> {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        Ok(Box::new(FaultingListener {
            inner: self.inner.listen(addr)?,
            spec: self.spec,
            stats: Arc::clone(&self.stats),
            next_conn: Arc::clone(&self.next_conn),
        }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        let conn = self.inner.connect(addr)?;
        let idx = self.next_conn.fetch_add(1, Ordering::Relaxed);
        Ok(FaultingConnection::wrap(
            conn,
            self.spec,
            idx,
            Arc::clone(&self.stats),
        ))
    }
}

/// Listener half of [`FaultingTransport`]: wraps every accepted
/// connection.
struct FaultingListener {
    inner: Box<dyn Listener>,
    spec: FaultSpec,
    stats: Arc<FaultStats>,
    next_conn: Arc<AtomicU64>,
}

impl Listener for FaultingListener {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Connection>>> {
        match self.inner.try_accept()? {
            None => Ok(None),
            Some(conn) => {
                let idx = self.next_conn.fetch_add(1, Ordering::Relaxed);
                Ok(Some(FaultingConnection::wrap(
                    conn,
                    self.spec,
                    idx,
                    Arc::clone(&self.stats),
                )))
            }
        }
    }

    fn poll_fd(&self) -> std::os::unix::io::RawFd {
        self.inner.poll_fd()
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// A [`Connection`] decorator injecting seeded faults into its outbound
/// frames. See the module docs for the fault model.
pub struct FaultingConnection {
    /// `None` once the kill fault severed the connection; dropping the
    /// inner half makes the peer observe a disconnect, like a TCP reset.
    inner: Option<Box<dyn Connection>>,
    spec: FaultSpec,
    rng: StdRng,
    stats: Arc<FaultStats>,
    conn: u64,
    /// Outbound frames offered so far (drives `kill_after_frames` and the
    /// per-frame event indices).
    frames: u64,
    /// A frame held back by the reorder fault, sent after the next one.
    stashed: Option<Vec<u8>>,
    peer: String,
}

impl FaultingConnection {
    /// Wrap one connection. `conn` is its index in the fault schedule
    /// (connections with the same `(spec.seed, conn)` draw identical fault
    /// sequences).
    pub fn wrap(
        inner: Box<dyn Connection>,
        spec: FaultSpec,
        conn: u64,
        stats: Arc<FaultStats>,
    ) -> Box<dyn Connection> {
        let peer = inner.peer();
        Box::new(FaultingConnection {
            inner: Some(inner),
            spec,
            rng: StdRng::seed_from_u64(conn_seed(spec.seed, conn)),
            stats,
            conn,
            frames: 0,
            stashed: None,
            peer,
        })
    }

    fn event(&self, frame: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            conn: self.conn,
            frame,
            kind,
        }
    }

    /// Perturb one frame and hand it (and any stashed predecessor) to the
    /// inner connection.
    fn send_faulted(&mut self, frame: &[u8]) -> Result<()> {
        let idx = self.frames;
        self.frames += 1;

        if let Some(kill_after) = self.spec.kill_after_frames {
            if idx >= kill_after && self.inner.is_some() {
                self.inner = None;
                self.stashed = None;
                self.stats
                    .record(&self.stats.cells.killed, self.event(idx, FaultKind::Kill));
            }
        }
        if self.inner.is_none() {
            return Err(BriskError::Disconnected);
        }

        // Decisions are drawn in a fixed order so a given (seed, conn,
        // frame) triple always yields the same perturbation.
        let mut payload = frame.to_vec();
        let mut faulted = false;

        if self.spec.delay_rate > 0.0 && self.rng.gen_bool(self.spec.delay_rate) {
            let us = self
                .rng
                .gen_range(0..=self.spec.max_delay.as_micros() as u64);
            self.stats.record(
                &self.stats.cells.delayed,
                self.event(idx, FaultKind::Delay { us }),
            );
            std::thread::sleep(Duration::from_micros(us));
            faulted = true;
        }
        if !payload.is_empty()
            && self.spec.corrupt_rate > 0.0
            && self.rng.gen_bool(self.spec.corrupt_rate)
        {
            let n = self.rng.gen_range(1..=3usize);
            let mut flips = Vec::with_capacity(n);
            for _ in 0..n {
                let off = self.rng.gen_range(0..payload.len());
                let mask = self.rng.gen_range(1..=255u32) as u8;
                payload[off] ^= mask;
                flips.push((off, mask));
            }
            self.stats.record(
                &self.stats.cells.corrupted,
                self.event(idx, FaultKind::Corrupt(flips)),
            );
            faulted = true;
        }
        if !payload.is_empty()
            && self.spec.truncate_rate > 0.0
            && self.rng.gen_bool(self.spec.truncate_rate)
        {
            let keep = self.rng.gen_range(0..payload.len());
            payload.truncate(keep);
            self.stats.record(
                &self.stats.cells.truncated,
                self.event(idx, FaultKind::Truncate { keep }),
            );
            faulted = true;
        }
        let duplicate =
            self.spec.duplicate_rate > 0.0 && self.rng.gen_bool(self.spec.duplicate_rate);
        let reorder = self.spec.reorder_rate > 0.0 && self.rng.gen_bool(self.spec.reorder_rate);

        if reorder && self.stashed.is_none() {
            // Hold this frame back; it goes out right after the next one.
            self.stats.record(
                &self.stats.cells.reordered,
                self.event(idx, FaultKind::Reorder),
            );
            self.stashed = Some(payload);
            return Ok(());
        }
        if duplicate {
            self.stats.record(
                &self.stats.cells.duplicated,
                self.event(idx, FaultKind::Duplicate),
            );
            faulted = true;
        }

        let held = self.stashed.take();
        let inner = match self.inner.as_mut() {
            Some(inner) => inner,
            None => return Err(BriskError::Disconnected),
        };
        inner.send(&payload)?;
        if duplicate {
            inner.send(&payload)?;
        }
        if let Some(held) = held {
            inner.send(&held)?;
        }
        if !faulted {
            self.stats.clean.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl Connection for FaultingConnection {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.send_faulted(frame)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        match self.inner.as_mut() {
            Some(inner) => inner.recv(timeout),
            None => Err(BriskError::Disconnected),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        // A killed link has no fd anymore; the reactor's next recv sees
        // the Disconnected it expects.
        self.inner.as_ref().and_then(|c| c.poll_fd())
    }

    fn has_buffered(&self) -> bool {
        self.inner.as_ref().is_some_and(|c| c.has_buffered())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mem::MemTransport;

    fn chaos_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            corrupt_rate: 0.3,
            truncate_rate: 0.2,
            duplicate_rate: 0.2,
            reorder_rate: 0.15,
            delay_rate: 0.0,
            ..FaultSpec::default()
        }
    }

    /// Run N frames through a faulted link; return (delivered frames, events).
    fn run(seed: u64, frames: usize) -> (Vec<Vec<u8>>, Vec<FaultEvent>) {
        let t = FaultingTransport::new(MemTransport::new(), chaos_spec(seed));
        let stats = t.stats();
        let mut l = t.listen("x").unwrap();
        let mut c = t.connect("x").unwrap();
        let mut s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        for i in 0..frames {
            c.send(format!("frame-{i:04}-payload").as_bytes()).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some(f)) = s.recv(Some(Duration::from_millis(20))) {
            got.push(f);
        }
        (got, stats.events())
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        let (frames_a, events_a) = run(42, 200);
        let (frames_b, events_b) = run(42, 200);
        assert!(!events_a.is_empty(), "chaos spec injected nothing");
        assert_eq!(events_a, events_b, "fault schedules diverged");
        assert_eq!(frames_a, frames_b, "delivered bytes diverged");
    }

    #[test]
    fn different_seeds_differ() {
        let (_, events_a) = run(1, 200);
        let (_, events_b) = run(2, 200);
        assert_ne!(events_a, events_b);
    }

    #[test]
    fn noop_spec_passes_frames_untouched() {
        let t = FaultingTransport::new(MemTransport::new(), FaultSpec::seeded(7));
        assert!(FaultSpec::seeded(7).is_noop());
        let stats = t.stats();
        let mut l = t.listen("x").unwrap();
        let mut c = t.connect("x").unwrap();
        let mut s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        for i in 0..50u32 {
            c.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..50u32 {
            let f = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            assert_eq!(f, i.to_be_bytes());
        }
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.clean(), 50);
    }

    #[test]
    fn corruption_changes_bytes_but_not_framing() {
        let spec = FaultSpec {
            seed: 9,
            corrupt_rate: 1.0,
            ..FaultSpec::default()
        };
        let t = FaultingTransport::new(MemTransport::new(), spec);
        let stats = t.stats();
        let mut l = t.listen("x").unwrap();
        let mut c = t.connect("x").unwrap();
        let mut s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let original = b"all-good-bytes".to_vec();
        c.send(&original).unwrap();
        let got = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(got.len(), original.len(), "corruption must preserve length");
        assert_ne!(got, original, "corruption must change bytes");
        let (corrupted, ..) = stats.counts();
        assert_eq!(corrupted, 1);
    }

    #[test]
    fn kill_severs_both_directions() {
        let spec = FaultSpec {
            seed: 3,
            kill_after_frames: Some(2),
            ..FaultSpec::default()
        };
        let t = FaultingTransport::new(MemTransport::new(), spec);
        let mut l = t.listen("x").unwrap();
        let mut c = t.connect("x").unwrap();
        let mut s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        c.send(b"one").unwrap();
        c.send(b"two").unwrap();
        let err = c.send(b"three").unwrap_err();
        assert!(err.is_disconnect());
        assert!(c.recv(Some(Duration::from_millis(5))).is_err());
        // In-flight frames drain, then the peer sees the disconnect.
        assert_eq!(
            s.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"one"
        );
        assert_eq!(
            s.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"two"
        );
        assert!(s.recv(Some(Duration::from_secs(1))).is_err());
        assert_eq!(t.stats().counts().5, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        // reorder_rate 1.0 stashes frame 0, sends frame 1 then releases 0;
        // frame 2 is stashed again, and so on. With an even frame count
        // every pair arrives swapped.
        let spec = FaultSpec {
            seed: 5,
            reorder_rate: 1.0,
            ..FaultSpec::default()
        };
        let t = FaultingTransport::new(MemTransport::new(), spec);
        let mut l = t.listen("x").unwrap();
        let mut c = t.connect("x").unwrap();
        let mut s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        for i in 0..4u32 {
            c.send(&i.to_be_bytes()).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..4 {
            let f = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            got.push(u32::from_be_bytes([f[0], f[1], f[2], f[3]]));
        }
        assert_eq!(got, vec![1, 0, 3, 2]);
    }

    #[test]
    fn rates_validated() {
        let mut spec = FaultSpec::seeded(1);
        spec.corrupt_rate = 1.5;
        assert!(spec.validate().is_err());
        assert!(FaultSpec::seeded(1).validate().is_ok());
    }
}
