//! The ISM server: [`IsmServer::spawn`] starts one thread,
//! `brisk-reactor-0`, whose driver (`run`) feeds the session machine
//! (`crate::reactor::Ism`) from one `poll(2)` on the listener, every EXS
//! connection and, in a relay, the upstream link, which it owns as a
//! [`Link`] and dials with the exporter's dialer. A pass advances the
//! machine to `now` and carries out its outputs, sleeps until a socket is
//! readable, the [`Waker`] fires (stop) or the machine's deadline, then
//! reads at most `MAX_FRAMES_PER_PASS` frames per readable connection,
//! handing each to the machine with the instant it was read and sending
//! its ack at once, accepts, and hands the machine what the upstream link
//! holds. `now` is the instant `poll` returned, taken before the reads,
//! so time spent inside the core is never a peer's silence. A connection
//! with whole frames buffered, or with no fd (a killed link), is read
//! without waiting. A sink that blocks stalls the loop, and the senders
//! run out of credit. [`IsmHandle::stop`] stops the machine; the loop
//! runs until the machine has drained ([`Ism::stopped`]) and returns the
//! [`IsmReport`].

use crate::core::IsmCore;
use crate::cre::CreStats;
use crate::merge::MergeStats;
use crate::output::MemoryBuffer;
use crate::quarantine::QuarantineLog;
use crate::reactor::{Ism, Output, PeerId};
use crate::relay::UpstreamExporter;
use crate::sorter::SorterStats;
use brisk_clock::{Clock, SyncOutcome};
use brisk_core::{BriskError, IsmConfig, Result, SyncConfig};
use brisk_lis::runtime::{Link, MAX_FRAMES_PER_PASS};
use brisk_lis::uplink::Uplink;
use brisk_net::{
    poll_in, ConnMetrics, Connection, Listener, PollFd, Poller, Waker, POLLERR, POLLHUP, POLLIN,
};
use brisk_telemetry::{Registry, StageLatencies};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Final report returned when the server stops.
#[derive(Clone, Debug, Default)]
pub struct IsmReport {
    /// Pipeline counters.
    pub core: MergeStats,
    /// Sorter counters.
    pub sorter: SorterStats,
    /// CRE counters.
    pub cre: CreStats,
    /// Completed synchronization rounds.
    pub sync_rounds: u64,
    /// Outcome of the last round, if any.
    pub last_sync: Option<SyncOutcome>,
    /// Upstream-export counters, present when the server ran in relay
    /// mode (see [`IsmServer::set_upstream`]).
    pub relay: Option<crate::relay::RelayStats>,
}

/// The ISM server, pre-spawn. Attach sinks via [`IsmServer::core_mut`],
/// then call [`IsmServer::spawn`].
pub struct IsmServer {
    ism: Ism,
    /// Meters every accepted connection, `Hello` frames included.
    conn_metrics: Arc<ConnMetrics>,
}

impl IsmServer {
    /// New server.
    pub fn new(cfg: IsmConfig, sync_cfg: SyncConfig, clock: Arc<dyn Clock>) -> Result<Self> {
        Ok(IsmServer {
            ism: Ism::new(cfg, sync_cfg, clock)?,
            conn_metrics: Arc::default(),
        })
    }

    /// Bind the whole server — core pipeline, sync master, connection
    /// metering and the session series — to `registry`. Call before
    /// [`IsmServer::spawn`].
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.ism.bind_telemetry(registry);
        self.conn_metrics.register(registry, &[("role", "ism")]);
    }

    /// Access the core (e.g. to attach sinks) before spawning.
    pub fn core_mut(&mut self) -> &mut IsmCore {
        &mut self.ism.hub.core
    }

    /// Run this server as a *relay*: instead of delivering merged,
    /// repaired records to the local outputs, re-export them upstream as
    /// one namespaced EXS-like stream (§ relay topology in DESIGN.md).
    /// Call before [`IsmServer::spawn`].
    pub fn set_upstream(&mut self, exporter: crate::relay::UpstreamExporter) {
        self.ism.hub.core.set_upstream(exporter);
    }

    /// The output memory buffer (clone the `Arc` to create readers).
    pub fn memory(&self) -> Arc<MemoryBuffer> {
        Arc::clone(self.ism.hub.core.memory())
    }

    /// Start the loop thread, accepting from `listener`.
    pub fn spawn(self, listener: Box<dyn Listener>) -> Result<IsmHandle> {
        let addr = listener.local_addr();
        let memory = self.memory();
        let stages = self.ism.hub.core.stage_latencies().cloned();
        let quarantine = Arc::clone(&self.ism.hub.quarantine);
        let poller = Poller::new().map_err(BriskError::Io)?;
        let waker = poller.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::clone(&stop);
        let IsmServer { ism, conn_metrics } = self;
        // The loop keeps the reactor thread's name, which tools that class
        // threads by name (the pipeline bench) already know.
        let join = std::thread::Builder::new()
            .name("brisk-reactor-0".into())
            .spawn(move || run(ism, &conn_metrics, poller, listener, &halt))
            .map_err(BriskError::Io)?;
        Ok(IsmHandle {
            addr,
            memory,
            quarantine,
            stages,
            stop,
            waker,
            join,
        })
    }
}

/// Each machine peer's connection, indexed by its [`PeerId`].
type Conns = Vec<Option<Box<dyn Connection>>>;

/// The driver: run passes until `stop` is set and the machine has
/// stopped, closing the listener and stopping the machine on the way,
/// then flush the pipeline and report.
fn run(
    mut ism: Ism,
    conn_metrics: &Arc<ConnMetrics>,
    poller: Poller,
    listener: Box<dyn Listener>,
    stop: &AtomicBool,
) -> Result<IsmReport> {
    let epoch = Instant::now();
    let mut now = Duration::ZERO;
    let mut listener = Some(listener);
    let mut stopping = false;
    let mut conns: Conns = Vec::new();
    // A relay's link to its parent: dialed, sent on and read here, as its
    // exporter in the machine decides.
    let dialer = ism
        .hub
        .core
        .upstream_mut()
        .and_then(UpstreamExporter::take_dialer);
    let mut upstream = dialer.map(|dial| Link::new(None, Some(dial)));
    let mut fds: Vec<PollFd> = Vec::new();
    // Each polled connection's id and its slot in `fds`; `None` for one
    // read without polling.
    let mut polled: Vec<(usize, Option<usize>)> = Vec::new();
    loop {
        if !stopping && stop.load(Ordering::Acquire) {
            stopping = true;
            listener = None;
            ism.stop(now);
        }
        let due = ism.advance(now)?;
        deliver(&mut ism, &mut conns, upstream.as_mut(), now);
        if ism.stopped() {
            break;
        }
        fds.clear();
        polled.clear();
        let listen_fd = listener.as_ref().map(|l| l.poll_fd());
        fds.extend(listen_fd.map(poll_in));
        // Framed transports drain the kernel socket eagerly, so whole
        // frames can wait in userspace with POLLIN clear.
        let mut pass_now = false;
        // The upstream link's slot in `fds`, as a connection's below.
        let up_slot = upstream.as_ref().filter(|l| l.is_up()).map(|link| {
            let slot = link.poll_fd().map(|fd| {
                fds.push(poll_in(fd));
                fds.len() - 1
            });
            pass_now |= slot.is_none();
            slot
        });
        for (id, conn) in conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let fd = conn.poll_fd().filter(|_| !conn.has_buffered());
            let slot = fd.map(|fd| {
                fds.push(poll_in(fd));
                fds.len() - 1
            });
            pass_now |= slot.is_none();
            polled.push((id, slot));
        }
        // The machine reckons its deadlines from the `now` it was given,
        // the pipeline's from a fresh clock read: sleeping for their
        // distance from `now` never wakes before the pipeline is due, and
        // wakes at most one pass late for the rest.
        let timeout = match pass_now {
            true => Some(Duration::ZERO),
            false => due.map(|at| at.saturating_sub(now)),
        };
        poller.wait(&mut fds, timeout).map_err(BriskError::Io)?;
        now = epoch.elapsed();
        let ready = |s: usize| fds[s].revents & (POLLIN | POLLERR | POLLHUP) != 0;
        for &(id, slot) in &polled {
            if !slot.is_none_or(ready) {
                continue;
            }
            for _ in 0..MAX_FRAMES_PER_PASS {
                let Some(conn) = conns[id].as_mut() else {
                    break;
                };
                match conn.recv(Some(Duration::ZERO)) {
                    Ok(Some(frame)) => {
                        let read = Instant::now();
                        ism.on_frame(PeerId(id), &frame, read - epoch)?;
                        if deliver(&mut ism, &mut conns, upstream.as_mut(), now) {
                            ism.acked(read.elapsed());
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        ism.on_closed(PeerId(id));
                        conns[id] = None;
                        break;
                    }
                }
            }
        }
        if listen_fd.is_some() && fds[0].revents != 0 {
            accept_pending(&mut listener, &mut ism, conn_metrics, &mut conns, now);
        }
        let readable = up_slot.is_some_and(|slot| slot.is_none_or(ready));
        if let Some(link) = upstream.as_mut().filter(|_| readable) {
            link.read(&mut ism, relay_uplink, now, |ism, frame| {
                ism.on_upstream(frame, now)?;
                deliver(ism, &mut conns, None, now);
                Ok(false)
            })?;
        }
    }
    ism.finish()
}

/// Carry out the machine's outputs, and its upstream link's when given;
/// `true` when a batch ack was sent.
fn deliver(ism: &mut Ism, conns: &mut Conns, upstream: Option<&mut Link>, now: Duration) -> bool {
    let mut acked = false;
    ism.drain_outputs(|out| match out {
        Output::Send { to, frame, ack } => {
            if let Some(conn) = conns[to.0].as_mut() {
                acked |= conn.send(frame).is_ok() && ack;
            }
        }
        Output::Close(to) => conns[to.0] = None,
    });
    if let Some(link) = upstream {
        link.serve(relay_uplink(ism), now);
    }
    acked
}

/// A relay's upstream session, which the driver's upstream [`Link`]
/// serves: the driver has a link only when the machine has an exporter.
fn relay_uplink(ism: &mut Ism) -> &mut Uplink {
    ism.upstream()
        .expect("an upstream link serves a relay's exporter")
}

/// Accept until the listener would block; each connection is metered,
/// handed to the machine and joins the next pass's poll set. An accept
/// error closes the listener: the server accepts nothing more.
fn accept_pending(
    listener: &mut Option<Box<dyn Listener>>,
    ism: &mut Ism,
    conn_metrics: &Arc<ConnMetrics>,
    conns: &mut Conns,
    now: Duration,
) {
    while let Some(l) = listener.as_mut() {
        match l.try_accept() {
            Ok(Some(conn)) => {
                let id = ism.accept(now).0;
                let conn = Some(conn_metrics.wrap(conn));
                match conns.get_mut(id) {
                    Some(slot) => *slot = conn,
                    None => conns.push(conn),
                }
            }
            Ok(None) => return,
            Err(e) => {
                brisk_telemetry::flight_log!(
                    Error,
                    "ism.reactor",
                    "accept_failed",
                    "listener closed after an accept error: {e}"
                );
                *listener = None;
            }
        }
    }
}

/// Handle to a running ISM server.
pub struct IsmHandle {
    addr: String,
    memory: Arc<MemoryBuffer>,
    quarantine: Arc<QuarantineLog>,
    /// Clone of `LocalOutputs`' optional stage histograms (set when bound).
    stages: Option<Arc<StageLatencies>>,
    /// Asks the loop to stop; `waker` interrupts its sleep.
    stop: Arc<AtomicBool>,
    waker: Waker,
    join: std::thread::JoinHandle<Result<IsmReport>>,
}

impl IsmHandle {
    /// Address external sensors should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The output memory buffer.
    pub fn memory(&self) -> &Arc<MemoryBuffer> {
        &self.memory
    }

    /// The malformed-frame quarantine log (counters + retained samples).
    pub fn quarantine(&self) -> &Arc<QuarantineLog> {
        &self.quarantine
    }

    /// Per-stage trace latency histograms with exemplar trace ids
    /// (present when telemetry was bound before spawning).
    pub fn stage_latencies(&self) -> Option<&Arc<StageLatencies>> {
        self.stages.as_ref()
    }

    /// Stop the server and collect the final report: the loop closes its
    /// listener, tells every running connection to shut down, drains
    /// their final flushes and flushes the pipeline.
    pub fn stop(self) -> Result<IsmReport> {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        self.join
            .join()
            .map_err(|_| BriskError::Sync("ISM loop thread panicked".into()))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, NodeId, UtcMicros, Value};
    use brisk_lis_like::*;
    use std::time::{Duration, Instant};

    /// Minimal in-test EXS substitute: we drive the protocol by hand so the
    /// server tests do not depend on brisk-lis (which depends on this
    /// crate's siblings only, but keeping the dependency graph acyclic for
    /// tests is simpler).
    mod brisk_lis_like {
        pub use brisk_net::{MemTransport, TcpTransport, Transport};
        pub use brisk_proto::Message;
    }

    fn start_server() -> (IsmHandle, Arc<MemTransport>) {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_millis(50),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        (server.spawn(listener).unwrap(), t)
    }

    fn hello(conn: &mut Box<dyn Connection>, node: u32) {
        conn.send(
            &Message::Hello {
                node: NodeId(node),
                version: brisk_proto::VERSION,
            }
            .encode(),
        )
        .unwrap();
    }

    fn batch(node: u32, seq: u64, seqs: std::ops::Range<u64>) -> Message {
        Message::EventBatch {
            node: NodeId(node),
            seq: Some(seq),
            records: seqs
                .map(|i| {
                    brisk_core::EventRecord::new(
                        NodeId(node),
                        brisk_core::SensorId(0),
                        EventTypeId(1),
                        i,
                        UtcMicros::now(),
                        vec![Value::U64(i)],
                    )
                    .unwrap()
                })
                .collect(),
        }
    }

    /// Receive decoded messages until `pred` returns `Some`, answering
    /// nothing; returns `None` on timeout.
    fn recv_until<T>(
        conn: &mut Box<dyn Connection>,
        budget: Duration,
        mut pred: impl FnMut(Message) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(20))) {
                if let Some(t) = pred(Message::decode(&frame).unwrap()) {
                    return Some(t);
                }
            }
        }
        None
    }

    #[test]
    fn records_reach_memory_buffer() {
        let (handle, t) = start_server();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch(1, 1, 0..10).encode()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 10 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 10);
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 10);
        assert_eq!(report.core.records_out, 10);
    }

    #[test]
    fn multiple_nodes_merge() {
        let (handle, t) = start_server();
        let mut reader = handle.memory().reader();
        let mut conns: Vec<Box<dyn Connection>> = (1..=3)
            .map(|n| {
                let mut c = t.connect("ism").unwrap();
                hello(&mut c, n);
                c
            })
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.send(&batch(i as u32 + 1, 1, 0..5).encode()).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 15 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            got.extend(recs);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(got.len(), 15);
        // Output must be timestamp-sorted.
        assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
        handle.stop().unwrap();
    }

    #[test]
    fn server_answers_nothing_until_clients_connect_then_syncs() {
        let (handle, t) = start_server();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Expect a SyncPoll within a few poll periods; answer a few.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut polls_answered = 0;
        while polls_answered < 4 && Instant::now() < deadline {
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(100))) {
                if let Message::SyncPoll {
                    round,
                    sample,
                    master_send,
                } = Message::decode(&frame).unwrap()
                {
                    conn.send(
                        &Message::SyncReply {
                            round,
                            sample,
                            master_send,
                            slave_time: UtcMicros::now(),
                        }
                        .encode(),
                    )
                    .unwrap();
                    polls_answered += 1;
                }
            }
        }
        assert!(polls_answered >= 4, "master must poll its slave");
        let report = handle.stop().unwrap();
        assert!(report.sync_rounds >= 1);
    }

    #[test]
    fn client_gets_hello_ack_and_batch_acks() {
        let (handle, t) = start_server();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::HelloAck { version, credit } => Some((version, credit)),
            _ => None,
        });
        // The default flow config grants credit on every ack.
        assert_eq!(acked, Some((brisk_proto::VERSION, 2048)));
        conn.send(&batch(1, 1, 0..3).encode()).unwrap();
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, credit } => Some((seq, credit)),
            _ => None,
        });
        assert_eq!(acked, Some((1, 2048)));
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 3);
    }

    #[test]
    fn credit_enabled_server_grants_on_hello_and_acks() {
        let t = MemTransport::new();
        let listener = t.listen("ism-credit").unwrap();
        let mut server = IsmServer::new(
            IsmConfig {
                flow: brisk_core::FlowConfig {
                    credit_records: 64,
                    ..brisk_core::FlowConfig::default()
                },
                ..IsmConfig::default()
            },
            SyncConfig {
                poll_period: Duration::from_secs(60),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut conn = t.connect("ism-credit").unwrap();
        hello(&mut conn, 1);
        let granted = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::HelloAck { credit, .. } => Some(credit),
            _ => None,
        });
        assert_eq!(granted, Some(64), "HelloAck must carry the budget");
        conn.send(&batch(1, 1, 0..3).encode()).unwrap();
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, credit } => Some((seq, credit)),
            _ => None,
        });
        assert_eq!(acked, Some((1, 64)), "acks must replenish credit");
        handle.stop().unwrap();
        let snap = registry.snapshot();
        assert!(snap.counter_total("brisk_ism_credit_grants_total") >= 1);
        let lat = snap
            .histogram("brisk_ism_grant_latency_us")
            .expect("grant latency histogram");
        assert!(lat.count() >= 1);
    }

    #[test]
    fn replayed_batch_is_dropped_and_reacked() {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let mut server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_secs(60), // keep sync out of the way
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch(1, 1, 0..4).encode()).unwrap();
        let first_ack = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } => Some(seq),
            _ => None,
        });
        assert_eq!(first_ack, Some(1));
        // Replay the same batch (as after a reconnect whose ack was lost):
        // it must be dropped by dedup yet acked again.
        conn.send(&batch(1, 1, 0..4).encode()).unwrap();
        let second_ack = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } => Some(seq),
            _ => None,
        });
        assert_eq!(second_ack, Some(1), "replays must be re-acked");
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 4, "replay must not double-count");
        assert_eq!(report.core.duplicate_batches, 1);
        assert_eq!(report.core.duplicate_records, 4);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_duplicate_batches_total"), 1);
        assert!(snap.counter_total("brisk_ism_acks_sent_total") >= 2);
    }

    fn start_server_with_timeout(
        node_timeout: Duration,
    ) -> (IsmHandle, Arc<MemTransport>, Arc<Registry>) {
        start_configured(node_timeout, |_| {})
    }

    /// A server with liveness timeout `node_timeout`, adjusted by
    /// `configure` before it spawns.
    fn start_configured(
        node_timeout: Duration,
        configure: impl FnOnce(&mut IsmServer),
    ) -> (IsmHandle, Arc<MemTransport>, Arc<Registry>) {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let mut server = IsmServer::new(
            IsmConfig {
                node_timeout: Some(node_timeout),
                ..IsmConfig::default()
            },
            SyncConfig {
                poll_period: Duration::from_secs(60), // keep sync out of the way
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        configure(&mut server);
        (server.spawn(listener).unwrap(), t, registry)
    }

    #[test]
    fn heartbeats_keep_a_quiet_node_alive() {
        let (handle, t, registry) = start_server_with_timeout(Duration::from_millis(250));
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Send no batches at all — only heartbeats — for several times
        // the timeout. The node must never be evicted.
        let deadline = Instant::now() + Duration::from_millis(1200);
        while Instant::now() < deadline {
            conn.send(&Message::Heartbeat.encode()).unwrap();
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(50))) {
                if let Ok(Message::Shutdown) = Message::decode(&frame) {
                    panic!("heartbeating node must not be evicted");
                }
            }
        }
        handle.stop().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 0);
    }

    #[test]
    fn a_stalled_manager_does_not_evict_a_heartbeating_node() {
        // The first delivery stalls the manager for four timeouts.
        let (handle, t, registry) = start_configured(Duration::from_millis(300), |server| {
            let mut stalled = false;
            server
                .core_mut()
                .add_sink(Box::new(move |_: &brisk_core::EventRecord| {
                    if !std::mem::replace(&mut stalled, true) {
                        std::thread::sleep(Duration::from_millis(1200));
                    }
                    Ok(())
                }));
        });
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch(1, 1, 0..2).encode()).unwrap();
        // The node heartbeats every 50 ms right through the stall: a busy
        // manager is no evidence that the peer went silent.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            conn.send(&Message::Heartbeat.encode()).unwrap();
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(50))) {
                let msg = Message::decode(&frame).unwrap();
                assert_ne!(msg, Message::Shutdown, "heartbeating node evicted");
            }
        }
        handle.stop().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 0);
    }

    #[test]
    fn a_stalled_loop_evicts_neither_of_two_heartbeating_nodes() {
        // The first delivery blocks the whole loop for four timeouts.
        let stalled = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = Arc::clone(&stalled);
        let (handle, t, registry) = start_configured(Duration::from_millis(300), |server| {
            server
                .core_mut()
                .add_sink(Box::new(move |_: &brisk_core::EventRecord| {
                    if !seen.swap(true, Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1200));
                    }
                    Ok(())
                }));
        });
        let mut conns: Vec<_> = (1..=2)
            .map(|node| {
                let mut conn = t.connect("ism").unwrap();
                hello(&mut conn, node);
                conn
            })
            .collect();
        conns[0].send(&batch(1, 1, 0..2).encode()).unwrap();
        // Both nodes heartbeat every 50 ms right through the stall: what
        // arrived while the loop was inside the core is read before either
        // is judged.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            for conn in conns.iter_mut() {
                conn.send(&Message::Heartbeat.encode()).unwrap();
                if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(25))) {
                    let msg = Message::decode(&frame).unwrap();
                    assert_ne!(msg, Message::Shutdown, "heartbeating node evicted");
                }
            }
        }
        handle.stop().unwrap();
        assert!(stalled.load(Ordering::Relaxed), "the sink never stalled");
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 0);
    }

    #[test]
    fn stop_with_no_clients_is_clean() {
        let (handle, _t) = start_server();
        std::thread::sleep(Duration::from_millis(50));
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 0);
    }

    #[test]
    fn bound_server_exports_pipeline_and_net_series() {
        let t = MemTransport::new();
        let listener = t.listen("ism-telemetry").unwrap();
        let mut server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_millis(50),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism-telemetry").unwrap();
        hello(&mut conn, 3);
        conn.send(&batch(3, 1, 0..12).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 12 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 12);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_in_total"), 12);
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 12);
        assert!(
            snap.counter_labeled("brisk_net_frames_total", &[("role", "ism"), ("dir", "in")])
                .unwrap()
                >= 2,
            "Hello + EventBatch frames metered"
        );
        assert!(
            snap.counter_labeled("brisk_net_bytes_total", &[("role", "ism"), ("dir", "in")])
                .unwrap()
                > 0
        );
        drop(conn);
        handle.stop().unwrap();
    }

    #[test]
    fn works_over_real_tcp() {
        let t = TcpTransport;
        let listener = t.listen("127.0.0.1:0").unwrap();
        let server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig::default(),
            Arc::new(SystemClock),
        )
        .unwrap();
        let handle = server.spawn(listener).unwrap();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect(handle.addr()).unwrap();
        hello(&mut conn, 7);
        conn.send(&batch(7, 1, 0..20).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 20 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 20);
        handle.stop().unwrap();
    }

    /// A server on `t` at `name` built from `cfg`, with sync rounds out of
    /// the way; `configure` runs before it spawns.
    fn spawn_quiet(
        t: &Arc<MemTransport>,
        name: &str,
        cfg: IsmConfig,
        configure: impl FnOnce(&mut IsmServer),
    ) -> IsmHandle {
        let mut server = IsmServer::new(
            cfg,
            SyncConfig {
                poll_period: Duration::from_secs(60),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        configure(&mut server);
        server.spawn(t.listen(name).unwrap()).unwrap()
    }

    /// Records `n` records from `node` stamped now, as one batch.
    fn fresh(node: u32, seq: u64, n: u64) -> Message {
        batch(node, seq, 0..n)
    }

    /// Poll `reader` until it has yielded `n` records or `budget` ran
    /// out; returns what arrived and when the last of it did.
    fn await_records(
        reader: &mut crate::output::MemoryBufferReader,
        n: usize,
        budget: Duration,
    ) -> (usize, Instant) {
        let deadline = Instant::now() + budget;
        let mut seen = 0;
        while seen < n && Instant::now() < deadline {
            seen += reader.poll().unwrap().0.len();
            std::thread::sleep(Duration::from_millis(1));
        }
        (seen, Instant::now())
    }

    #[test]
    fn a_deep_queue_does_not_starve_the_tick() {
        // Credit sits far above the flood, so nothing throttles the
        // senders and the sockets stay deep until the flood is over.
        // Every record is already due on arrival.
        const CONNS: u32 = 4;
        const BATCHES: u64 = 128;
        const PER_BATCH: u64 = 512;
        const BUFFER_BOUND: usize = 1 << 16;
        let cfg = IsmConfig {
            flow: brisk_core::FlowConfig {
                credit_records: 1 << 20,
                ..brisk_core::FlowConfig::default()
            },
            max_buffered_records: BUFFER_BOUND,
            ..IsmConfig::default()
        };
        // The sink notes the longest gap between deliveries.
        let gaps = Arc::new(parking_lot::Mutex::new((
            Instant::now(),
            Duration::ZERO,
            0u64,
        )));
        let t = MemTransport::new();
        let sink_gaps = Arc::clone(&gaps);
        let registry = Registry::new();
        let handle = spawn_quiet(&t, "ism-flood", cfg, |server| {
            server.bind_telemetry(&registry);
            server
                .core_mut()
                .add_sink(Box::new(move |_: &brisk_core::EventRecord| {
                    let mut g = sink_gaps.lock();
                    let now = Instant::now();
                    g.1 = g.1.max(now - g.0);
                    g.0 = now;
                    g.2 += 1;
                    Ok(())
                }));
        });
        // Pre-encoded, so the senders outrun the loop. Timestamps rise
        // across connections batch by batch, a minute in the past.
        let base = UtcMicros::now().as_micros() - 60_000_000;
        let floods = (0..CONNS)
            .map(|c| {
                let node = c + 1;
                let mut conn = t.connect("ism-flood").unwrap();
                hello(&mut conn, node);
                let frames = (0..BATCHES)
                    .map(|b| {
                        let first = (b * u64::from(CONNS) + u64::from(c)) * PER_BATCH;
                        let records = (first..first + PER_BATCH)
                            .map(|i| {
                                brisk_core::EventRecord::new(
                                    NodeId(node),
                                    brisk_core::SensorId(0),
                                    EventTypeId(1),
                                    i,
                                    UtcMicros::from_micros(base + i as i64),
                                    vec![Value::U64(i)],
                                )
                                .unwrap()
                            })
                            .collect();
                        Message::EventBatch {
                            node: NodeId(node),
                            seq: Some(b + 1),
                            records,
                        }
                        .encode()
                    })
                    .collect();
                (conn, frames)
            })
            .collect::<Vec<(_, Vec<Vec<u8>>)>>();
        gaps.lock().0 = Instant::now();
        let senders: Vec<_> = floods
            .into_iter()
            .map(|(mut conn, frames)| {
                std::thread::spawn(move || {
                    for frame in frames {
                        conn.send(&frame).unwrap();
                        // Drain acks so the reactor never blocks on them.
                        while let Ok(Some(_)) = conn.recv(Some(Duration::ZERO)) {}
                    }
                    conn
                })
            })
            .collect();
        let conns: Vec<_> = senders.into_iter().map(|s| s.join().unwrap()).collect();
        let total = u64::from(CONNS) * BATCHES * PER_BATCH;
        let deadline = Instant::now() + Duration::from_secs(60);
        while gaps.lock().2 < total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(conns);
        let report = handle.stop().unwrap();
        let (_, max_gap, delivered) = *gaps.lock();
        assert_eq!(delivered, total);
        let frame_us = registry
            .snapshot()
            .gauge("brisk_ism_sorter_frame_us")
            .unwrap();
        let frame = Duration::from_micros(frame_us as u64);
        assert!(
            max_gap <= frame + Duration::from_millis(250),
            "deliveries stalled {max_gap:?} behind a deep queue (frame T {frame:?})"
        );
        assert_eq!(
            report.sorter.forced_releases, 0,
            "the sorter outgrew {BUFFER_BOUND} records between ticks"
        );
    }

    /// A store under `fsync=interval:50ms` in a fresh directory.
    fn interval_store(tag: &str) -> (std::path::PathBuf, IsmConfig) {
        let dir = std::env::temp_dir().join(format!("brisk-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IsmConfig {
            store: brisk_core::StoreConfig {
                fsync: brisk_core::FsyncPolicy::Interval(Duration::from_millis(50)),
                ..brisk_core::StoreConfig::at(dir.clone())
            },
            ..IsmConfig::default()
        };
        (dir, cfg)
    }

    #[test]
    fn a_quiet_burst_is_durable_within_the_fsync_interval() {
        let (dir, cfg) = interval_store("fsync");
        let t = MemTransport::new();
        let handle = spawn_quiet(&t, "ism", cfg, |_| {});
        let mut tail = brisk_store::StoreReader::open(&dir).unwrap().tail();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&fresh(1, 1, 3).encode()).unwrap();
        // Then silence: only the store's own due time can sync the tail.
        let sent = Instant::now();
        let mut seen = 0;
        while seen < 3 && sent.elapsed() < Duration::from_millis(50 + 450) {
            seen += tail.poll().unwrap().len();
            std::thread::sleep(Duration::from_millis(2));
        }
        let waited = sent.elapsed();
        assert_eq!(seen, 3, "tailer saw {seen} of 3 records after {waited:?}");
        drop(conn);
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_orphaned_consequence_is_released_at_its_hold_timeout() {
        let mut cfg = IsmConfig::default();
        cfg.cre.hold_timeout = Duration::from_millis(100);
        let t = MemTransport::new();
        let handle = spawn_quiet(&t, "ism", cfg, |_| {});
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        let orphan = brisk_core::EventRecord::new(
            NodeId(1),
            brisk_core::SensorId(0),
            EventTypeId(2),
            0,
            UtcMicros::now(),
            vec![Value::Conseq(brisk_core::CorrelationId(7))],
        )
        .unwrap();
        let sent = Instant::now();
        conn.send(
            &Message::EventBatch {
                node: NodeId(1),
                seq: Some(1),
                records: vec![orphan],
            }
            .encode(),
        )
        .unwrap();
        // Its reason never comes, and neither does anything else.
        let (seen, at) = await_records(&mut reader, 1, Duration::from_millis(100 + 400));
        assert_eq!(
            seen,
            1,
            "orphan not released {:?} after it was sent",
            at - sent
        );
        drop(conn);
        let report = handle.stop().unwrap();
        assert_eq!(report.cre.expired, 1);
    }

    #[test]
    fn a_relays_partial_batch_leaves_at_its_flush_timeout() {
        let t = MemTransport::new();
        let root = spawn_quiet(&t, "root", IsmConfig::default(), |_| {});
        let mut reader = root.memory().reader();
        let mut link = crate::relay::RelayConfig::new(brisk_proto::NodePrefix::new(1).unwrap());
        link.flush_timeout = Duration::from_millis(100);
        // No heartbeats: nothing but the flush timeout wakes the relay.
        link.heartbeat_interval = Duration::ZERO;
        let dial = Arc::clone(&t);
        let relay = spawn_quiet(&t, "relay", IsmConfig::default(), |server| {
            server.set_upstream(crate::relay::UpstreamExporter::new(
                link,
                Box::new(move || dial.connect("root")),
                Arc::new(SystemClock),
            ));
        });
        let mut conn = t.connect("relay").unwrap();
        hello(&mut conn, 1);
        let sent = Instant::now();
        conn.send(&fresh(1, 1, 3).encode()).unwrap();
        // Three records, far below a full batch, and then no more input.
        let (seen, at) = await_records(&mut reader, 3, Duration::from_millis(100 + 400));
        assert_eq!(
            seen,
            3,
            "root saw {seen} of 3 records {:?} after the send",
            at - sent
        );
        drop(conn);
        relay.stop().unwrap();
        root.stop().unwrap();
    }

    #[test]
    fn a_relay_out_of_credit_resumes_on_the_ack() {
        let t = MemTransport::new();
        let mut parent = t.listen("parent").unwrap();
        let mut link = crate::relay::RelayConfig::new(brisk_proto::NodePrefix::new(1).unwrap());
        link.max_batch_records = 4;
        // No heartbeat within the test: only link input can wake the relay.
        link.heartbeat_interval = Duration::from_secs(5);
        let dial = Arc::clone(&t);
        let relay = spawn_quiet(&t, "relay", IsmConfig::default(), |server| {
            server.set_upstream(crate::relay::UpstreamExporter::new(
                link,
                Box::new(move || dial.connect("parent")),
                Arc::new(SystemClock),
            ));
        });
        let mut up = parent
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("the relay dials its parent");
        let hello_seen = recv_until(&mut up, Duration::from_secs(2), |m| match m {
            Message::Hello { .. } => Some(()),
            _ => None,
        });
        assert!(hello_seen.is_some());
        // Credit for one batch of four records.
        let grant = Message::HelloAck {
            version: brisk_proto::VERSION,
            credit: 4,
        };
        up.send(&grant.encode()).unwrap();
        let batch_len = |m| match m {
            Message::EventBatch { records, .. } => Some(records.len()),
            _ => None,
        };
        let mut conn = t.connect("relay").unwrap();
        hello(&mut conn, 1);
        conn.send(&fresh(1, 1, 4).encode()).unwrap();
        assert_eq!(
            recv_until(&mut up, Duration::from_secs(2), batch_len),
            Some(4)
        );
        // Four more records park behind the spent credit.
        conn.send(&fresh(1, 2, 4).encode()).unwrap();
        let early = recv_until(&mut up, Duration::from_millis(300), batch_len);
        assert_eq!(early, None, "records left without credit");
        let acked = Instant::now();
        up.send(&Message::BatchAck { seq: 1, credit: 4 }.encode())
            .unwrap();
        let parked = recv_until(&mut up, Duration::from_secs(1), batch_len);
        let waited = acked.elapsed();
        assert_eq!(parked, Some(4), "the parked records never left");
        assert!(
            waited < Duration::from_millis(50),
            "the parked records left {waited:?} after the ack"
        );
        drop((up, conn));
        relay.stop().unwrap();
    }
}
