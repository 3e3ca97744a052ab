//! The drivers' side of a sender link, and the EXS runtime.
//!
//! The machines decide: an [`crate::uplink::Uplink`] what its link does,
//! an [`ExternalSensor`] what its node ships, and the ISM's machine, which
//! holds a relay's `Uplink`. A [`Link`] carries out what they decide about
//! their link. It owns the connection and the optional [`ConnectFn`],
//! dials, sends and reads, and hands what became of the link back to its
//! `Uplink` as `up` or `down` ([`Link::serve`], [`Link::read`]). The EXS
//! runtime below and the ISM's loop (`brisk_ism::server`) both use it, so
//! dial, send and a pass's bounded read are written once.
//!
//! One runtime drives every EXS, behind [`spawn_exs`] and
//! [`spawn_exs_supervised`] alike: a thread that hands the EXS what its
//! link holds, steps it, serves its link and, after an idle pass, sleeps
//! in one `poll(2)` on the link's fd and on the doorbell the node's rings
//! share, armed at the fill level the EXS names, until its deadline. It
//! runs until its `stop` flag or an orderly ISM `Shutdown`, then flushes
//! and says goodbye on a live link. An EXS spawned on one connection ends
//! when that link is lost; one spawned with a [`ConnectFn`] dials when
//! its EXS asks, so the node's instrumentation outlives manager restarts
//! and network blips.

use crate::exs::{ExsStats, ExsTelemetry, ExternalSensor};
use crate::uplink::{LinkOutput, SupervisorConfig, Uplink};
use brisk_clock::{Clock, CorrectedClock};
use brisk_core::{BriskError, ExsConfig, NodeId, Result};
use brisk_net::{poll_in, Connection, PollFd, Poller, Waker};
use brisk_ringbuf::RingSet;
use brisk_telemetry::Registry;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Factory producing a fresh connection to the ISM, invoked on every
/// dial.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Frames a driver reads from one connection per pass at most, so one
/// busy link cannot hold up the rest of the pass.
pub const MAX_FRAMES_PER_PASS: usize = 32;

/// The socket side of one sender link: its connection, while up, and the
/// dialer, when it has one.
pub struct Link {
    conn: Option<Box<dyn Connection>>,
    connect: Option<ConnectFn>,
}

impl Link {
    /// A link that is up on `conn`, or down; `connect` dials it when its
    /// machine asks. A link with no dialer stays down once lost.
    pub fn new(conn: Option<Box<dyn Connection>>, connect: Option<ConnectFn>) -> Link {
        Link { conn, connect }
    }

    /// True while a connection is attached.
    pub fn is_up(&self) -> bool {
        self.conn.is_some()
    }

    /// True when a lost link can be dialed again.
    pub fn dials(&self) -> bool {
        self.connect.is_some()
    }

    /// The fd a sleeper waits on for an up link's input; `None` when it
    /// must not wait: whole frames are buffered already, or no socket is
    /// left, whose next read fails at once.
    pub fn poll_fd(&self) -> Option<RawFd> {
        let conn = self.conn.as_ref()?;
        conn.poll_fd().filter(|_| !conn.has_buffered())
    }

    /// Carry out `uplink`'s outputs and hand what became of a dial or a
    /// failed send back to it ([`Uplink::up`], [`Uplink::down`]), until
    /// it decides nothing more.
    pub fn serve(&mut self, uplink: &mut Uplink, now: Duration) {
        loop {
            let mut fate = None;
            uplink.drain_outputs(|out| fate = fate.take().or(self.carry_out(out)));
            match fate {
                Some(Ok(())) => uplink.up(),
                Some(Err(e)) => uplink.down(&e.to_string(), now),
                None => return,
            }
        }
    }

    /// Carry out one output; `Some` when the link's fate changed: `Ok` a
    /// dial came up, `Err` a dial or a send failed.
    fn carry_out(&mut self, out: LinkOutput<'_>) -> Option<Result<()>> {
        match out {
            LinkOutput::Dial => {
                let dialed = match &self.connect {
                    Some(connect) => connect(),
                    None => Err(BriskError::Disconnected),
                };
                Some(dialed.map(|conn| self.conn = Some(conn)))
            }
            LinkOutput::Send(frame) => {
                let sent = self.conn.as_mut()?.send(frame);
                sent.err().map(|e| {
                    self.conn = None;
                    Err(e)
                })
            }
            LinkOutput::Drop => {
                self.conn = None;
                None
            }
        }
    }

    /// Hand `input` each frame the link holds, without waiting, and serve
    /// `machine`'s uplink after each ([`Link::serve`]). It reads at most
    /// [`MAX_FRAMES_PER_PASS`] frames, and stops early when the link holds
    /// no more, when it went down (a read that fails reports the loss),
    /// or when `input` returns `true`; returns whether `input` did.
    pub fn read<M>(
        &mut self,
        machine: &mut M,
        uplink: fn(&mut M) -> &mut Uplink,
        now: Duration,
        mut input: impl FnMut(&mut M, &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        for _ in 0..MAX_FRAMES_PER_PASS {
            let Some(conn) = self.conn.as_mut() else {
                break;
            };
            let frame = match conn.recv(Some(Duration::ZERO)) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    self.conn = None;
                    uplink(machine).down(&e.to_string(), now);
                    break;
                }
            };
            let stop = input(machine, &frame)?;
            self.serve(uplink(machine), now);
            if stop {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The one EXS runtime: each pass hands the EXS what its link holds,
/// steps it and carries out its outputs, and after an idle pass sleeps
/// ([`sleep`]). A lost link is dialed again when the [`Link`] has a
/// [`ConnectFn`] and ends the run when it has none. Runs until `stop` or
/// an orderly ISM `Shutdown`, then flushes and says goodbye on a live
/// link.
fn drive(
    mut exs: ExternalSensor,
    mut link: Link,
    poller: &Poller,
    stop: &AtomicBool,
) -> Result<ExsStats> {
    let shared = Arc::clone(exs.telemetry());
    let epoch = Instant::now();
    let mut fds = Vec::with_capacity(2);
    while !stop.load(Ordering::Relaxed) {
        let now = epoch.elapsed();
        let mut busy = false;
        let shutdown = link.read(&mut exs, ExternalSensor::uplink, now, |exs, frame| {
            busy = true;
            Ok(exs.on_frame(frame, now))
        })?;
        if shutdown {
            break;
        }
        busy |= exs.step(now)?;
        link.serve(exs.uplink(), now);
        if !link.is_up() && !link.dials() {
            break;
        }
        if !busy {
            sleep(&exs, &link, poller, &mut fds, epoch.elapsed())?;
        }
    }
    // A connection that dies during the final flush is fine; the counters
    // land in `shared` either way.
    if link.is_up() {
        let _ = exs.finish();
        link.serve(exs.uplink(), epoch.elapsed());
    }
    Ok(shared.snapshot())
}

/// The runtime's one wait after an idle pass, until link input (an ack,
/// a sync poll), the EXS's deadline, the handle's stop, or the rings
/// reaching the EXS's fill level ([`ExternalSensor::wait`]). Returns at
/// once if input is waiting or the rings already hold what it would wait
/// for.
fn sleep(
    exs: &ExternalSensor,
    link: &Link,
    poller: &Poller,
    fds: &mut Vec<PollFd>,
    now: Duration,
) -> Result<()> {
    if link.is_up() {
        let Some(fd) = link.poll_fd() else {
            return Ok(());
        };
        fds.push(poll_in(fd));
    }
    let wait = exs.wait(now);
    let rings = exs.rings();
    if wait.fill.is_some_and(|fill| !rings.arm_at(fill)) {
        fds.clear();
        return Ok(());
    }
    let waited = poller.wait(fds, wait.deadline.map(|at| at.saturating_sub(now)));
    fds.clear();
    rings.doorbell().disarm();
    Ok(waited.map(drop)?)
}

/// Handle to an EXS running on its own thread.
pub struct ExsHandle {
    stop: Arc<AtomicBool>,
    /// Wakes the EXS's sleep so it sees `stop` at once.
    waker: Waker,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    node: NodeId,
    shared: Arc<ExsTelemetry>,
    join: std::thread::JoinHandle<Result<ExsStats>>,
}

impl ExsHandle {
    /// The EXS's corrected clock (e.g. to observe the correction value).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Live counters of the running EXS (no need to stop it).
    pub fn stats_now(&self) -> ExsStats {
        self.shared.snapshot()
    }

    /// Connections attached so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.shared.link.connects.load(Ordering::Relaxed)
    }

    /// Register the running EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// Signal the EXS to stop.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
    }

    /// Signal and wait for the EXS; returns its final stats.
    pub fn stop(self) -> Result<ExsStats> {
        self.request_stop();
        self.join
            .join()
            .map_err(|_| BriskError::Sync("EXS thread panicked".into()))?
    }
}

fn spawn(exs: ExternalSensor, link: Link) -> Result<ExsHandle> {
    let (node, clock) = (exs.node(), Arc::clone(exs.corrected_clock()));
    let shared = Arc::clone(exs.telemetry());
    let poller = Poller::new()?;
    let (waker, bell) = (poller.waker(), poller.waker());
    exs.rings().doorbell().set_wake(move || bell.wake());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(format!("brisk-exs-{node}"))
        .spawn(move || drive(exs, link, &poller, &stop2))
        .map_err(BriskError::Io)?;
    Ok(ExsHandle {
        stop,
        waker,
        clock,
        node,
        shared,
        join,
    })
}

/// Spawn an EXS on a dedicated thread (the usual deployment: "runs as
/// another process on the same node", here a thread) over `conn`, its
/// `Hello` sent before the thread starts. It ends when that link is
/// lost.
pub fn spawn_exs(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    conn: Box<dyn Connection>,
    cfg: ExsConfig,
) -> Result<ExsHandle> {
    let mut exs = ExternalSensor::new(node, rings, raw_clock, cfg)?;
    let mut link = Link::new(Some(conn), None);
    exs.uplink().up();
    link.serve(exs.uplink(), Duration::ZERO);
    if !link.is_up() {
        return Err(BriskError::Disconnected);
    }
    spawn(exs, link)
}

/// Spawn an EXS that dials through `connect`, at once and again after
/// every lost link under `sup`'s backoff. It stops for good only on its
/// `stop` flag or an orderly ISM `Shutdown`. One EXS serves the node's
/// whole lifetime, so its counters are totals across reconnects.
pub fn spawn_exs_supervised(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    connect: ConnectFn,
    cfg: ExsConfig,
    sup: SupervisorConfig,
) -> Result<ExsHandle> {
    let exs = ExternalSensor::new(node, rings, raw_clock, cfg)?.with_backoff(sup);
    spawn(exs, Link::new(None, Some(connect)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_net::{MemTransport, Transport};
    use brisk_proto::Message;

    /// A connected in-memory link: `(accepting end, dialing end)`.
    fn mem_pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = MemTransport::new();
        let mut l = t.listen("x").unwrap();
        let c = t.connect("x").unwrap();
        let s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        (s, c)
    }

    /// Receive and decode the next frame, panicking if none arrives in time.
    fn recv_msg(conn: &mut Box<dyn Connection>) -> Message {
        let frame = conn.recv(Some(Duration::from_secs(2))).unwrap();
        Message::decode(&frame.expect("frame expected")).unwrap()
    }

    #[test]
    fn orderly_ism_shutdown_is_honoured_not_retried() {
        // A supervised EXS would dial again after any lost link; the ISM's
        // orderly `Shutdown` must end its thread instead, on one link.
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        assert!(matches!(recv_msg(&mut conn), Message::Hello { .. }));
        conn.send(&Message::Shutdown.encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.join.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.join.is_finished(), "the EXS must end by itself");
        assert!(
            listener
                .accept(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none(),
            "no reconnect after an orderly shutdown"
        );
        let stats = handle.stop().unwrap();
        assert_eq!(stats.link.connects, 1);
    }

    #[test]
    fn a_link_its_machine_gave_up_is_read_no_further() {
        // A wrong-role frame ends a first link. The `Shutdown` queued
        // behind it came on that dead link and must not stop the EXS.
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(2), 1 << 16);
        let clock = Arc::new(SystemClock);
        let mut exs = ExternalSensor::new(NodeId(2), rings, clock, ExsConfig::default()).unwrap();
        let mut link = Link::new(Some(conn), None);
        exs.uplink().up();
        link.serve(exs.uplink(), Duration::ZERO);
        ism.send(&Message::Heartbeat.encode()).unwrap();
        ism.send(&Message::Shutdown.encode()).unwrap();
        let now = Duration::ZERO;
        let stop = link.read(&mut exs, ExternalSensor::uplink, now, |exs, frame| {
            Ok(exs.on_frame(frame, now))
        });
        assert!(!stop.unwrap(), "the dead link's Shutdown was read");
        assert!(!link.is_up() && !exs.uplink().connected());
    }

    #[test]
    fn a_sleeping_exs_is_rung_awake_by_every_burst() {
        // Two sensors emit seeded bursts, and each waits for its burst's
        // tail to reach the fake ISM before a 0–5 ms gap. With heartbeats
        // off, only the doorbell wakes an EXS asleep on empty rings, so a
        // lost wakeup strands a tail for good: 2 s bounds "for good", it
        // is no latency bar (`partial_batch_flushes_on_timeout` times the
        // flush).
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        use std::sync::{Condvar, Mutex};
        const PER_SENSOR: u64 = 10_000;
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(3), 1 << 18);
        let ports = [rings.register(), rings.register()];
        let cfg = ExsConfig {
            flush_timeout: Duration::from_millis(10),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(3), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        // Records the fake ISM has received per sensor: the next seq due.
        let arrived = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
        let sensors: Vec<_> = ports
            .into_iter()
            .zip(0..)
            .map(|(mut port, s)| {
                let arrived = Arc::clone(&arrived);
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0d00_be11 + s);
                    while port.next_seq() < PER_SENSOR {
                        let burst = rng.gen_range(1..=200u64).min(PER_SENSOR - port.next_seq());
                        for _ in 0..burst {
                            assert!(port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap());
                        }
                        let (sensor, tail) = (port.sensor(), port.next_seq() - 1);
                        let (seen, rung) = &*arrived;
                        let wait = Duration::from_secs(2);
                        let stranded =
                            |seen: &mut HashMap<_, u64>| seen.get(&sensor) <= Some(&tail);
                        let waited = rung
                            .wait_timeout_while(seen.lock().unwrap(), wait, stranded)
                            .unwrap()
                            .1;
                        assert!(
                            !waited.timed_out(),
                            "the burst ending at {sensor:?}/{tail} never arrived"
                        );
                        let gap = rng.gen_range(0..=5_000u64);
                        std::thread::sleep(Duration::from_micros(gap));
                    }
                })
            })
            .collect();
        // Every sensor returns once its last tail arrived, or panics.
        while !sensors.iter().all(|s| s.is_finished()) {
            let Some(frame) = ism.recv(Some(Duration::from_millis(100))).unwrap() else {
                continue;
            };
            if let Message::EventBatch { records, .. } = Message::decode(&frame).unwrap() {
                let (seen, rung) = &*arrived;
                let mut seen = seen.lock().unwrap();
                for r in records {
                    let next = seen.entry(r.sensor).or_insert(0);
                    assert_eq!(r.seq, *next, "{:?} out of order or twice", r.sensor);
                    *next += 1;
                }
                rung.notify_all();
            }
        }
        for sensor in sensors {
            sensor.join().unwrap();
        }
        handle.stop().unwrap();
    }

    #[test]
    fn stop_wakes_a_sleeping_exs_at_once() {
        // Asleep on its link and doorbell with heartbeats off, or in a 2 s
        // redial backoff: either way the stop bell ends the sleep.
        let (_ism, conn) = mem_pair();
        let cfg = ExsConfig {
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let rings = |n| RingSet::new(NodeId(n), 1 << 16);
        let clock = || Arc::new(SystemClock) as Arc<dyn Clock>;
        let parked = spawn_exs(NodeId(4), rings(4), clock(), conn, cfg.clone()).unwrap();
        let t = MemTransport::new();
        let backoff = SupervisorConfig {
            initial_backoff: Duration::from_secs(2),
            max_backoff: Duration::from_secs(2),
        };
        let dial: ConnectFn = Box::new(move || t.connect("nobody"));
        let redialing =
            spawn_exs_supervised(NodeId(5), rings(5), clock(), dial, cfg, backoff).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(redialing.connects(), 0, "the dial must have failed");
        for handle in [parked, redialing] {
            let t0 = Instant::now();
            handle.stop().unwrap();
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(50), "stop took {took:?}");
        }
    }

    #[test]
    fn large_records_ship_when_the_byte_knob_trips_not_at_the_deadline() {
        // 1 KiB strings trip the 8 KiB byte knob at the eighth record, far
        // below the record knob. The sensor emits them 5 ms apart, so the
        // EXS sleeps on its partial batch between them (it wakes at what
        // the batch lacks, not per record). The eighth must ship within
        // 2 s, far from the 30 s flush deadline and from a fifth of it.
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(8), 1 << 18);
        let mut port = rings.register();
        let cfg = ExsConfig {
            max_batch_bytes: 8 * 1024,
            flush_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(8), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        recv_msg(&mut ism); // hello
        for n in 1..=8 {
            std::thread::sleep(Duration::from_millis(5));
            assert!(ism.recv(Some(Duration::ZERO)).unwrap().is_none(), "{n}");
            let big = vec![Value::Str("x".repeat(1024))];
            port.emit(EventTypeId(1), UtcMicros::ZERO, big).unwrap();
        }
        let filled = Instant::now();
        let frame = ism.recv(Some(Duration::from_secs(10))).unwrap();
        match Message::decode(&frame.expect("no batch within 10 s")).unwrap() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 8),
            other => panic!("expected a batch, got {other:?}"),
        }
        let took = filled.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shipped {took:?} after it filled"
        );
        let stats = handle.stop().unwrap();
        assert_eq!((stats.flush_bytes, stats.flush_timeout), (1, 0));
    }

    #[test]
    fn a_small_ring_is_drained_before_it_fills_on_the_way_to_a_full_batch() {
        // A 2 KiB ring holds 62 empty records, far fewer than the 256 of
        // a batch at the default knobs, and the flush deadline is 30 s
        // off. The doorbell's level is capped at half a ring, so at two
        // records a millisecond the EXS drains the ring every 31 records,
        // 15 ms before it would overflow, and the 256th ships the batch.
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(9), 2 << 10);
        let mut port = rings.register();
        let cfg = ExsConfig {
            flush_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(9), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        recv_msg(&mut ism); // hello
        for _ in 0..150 {
            for _ in 0..2 {
                port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let frame = ism.recv(Some(Duration::from_secs(10))).unwrap();
        match Message::decode(&frame.expect("no batch within 10 s")).unwrap() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 256),
            other => panic!("expected a batch, got {other:?}"),
        }
        assert_eq!(port.stats().dropped, 0);
        let stats = handle.stop().unwrap();
        assert_eq!((stats.flush_records, stats.flush_timeout), (1, 0));
    }
}
