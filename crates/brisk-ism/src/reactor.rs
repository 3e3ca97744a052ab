//! Poll-based connection reactor: the ISM's one receive path.
//!
//! One thread serves every EXS connection: it multiplexes the server's
//! listener, every connection's socket and, in a relay, the upstream
//! link through one [`Poller`] (`poll(2)` — see `brisk_net::poll`),
//! driving handshakes, batch ingest, heartbeats, credit acks, clock-sync
//! exchanges and fault-injected transports alike. A thousand mostly-idle
//! sensors cost sockets, not threads.
//!
//! What a greeted connection accepts and rejects is decided in
//! `crate::session` ([`PumpIo::on_frame`]); this module owns the socket
//! and the scheduling:
//!
//! * A readable listener is accepted until it would block, and each
//!   connection is metered and joins the poll set, so no thread sleeps
//!   in `accept`.
//! * In a relay, the reactor also watches the upstream link the manager
//!   owns ([`UplinkWatch`]): once its fd polls readable, the reactor
//!   clears the watch and queues [`PumpEvent::Uplink`]; the manager reads
//!   the link and re-arms it. Flow control never defers this watch.
//! * Connections are read only when `poll` reports their socket
//!   readable, or when whole frames already wait in their userspace read
//!   buffer. Every transport (tcp, uds and the in-process abstract
//!   sockets) has an fd; the one fd-less case is a fault-killed link,
//!   read once more at once so its `Disconnected` is seen.
//! * With nothing due, the reactor sleeps until a socket or its
//!   [`Waker`] fires: its only timeouts are its connections' deadlines
//!   (greeting, closing drain, sync sample, liveness).
//! * Manager commands (acks, credit grants, sync rounds, shutdown) are
//!   queued per connection; [`PumpHandle::command`] fires the reactor's
//!   [`Waker`] so a sleeping `poll` services them immediately.
//! * The clock-sync poll exchange is an explicit state machine
//!   ([`SyncState`]) so one slow slave cannot stall the reactor.
//! * EXS→ISM flow control keeps its semantics: while the shared manager
//!   queue is over its bound, running connections are excluded from the
//!   poll set (deferred), while greetings, teardown drains and manager
//!   commands still make progress. The manager draining the queue back to
//!   its bound wakes the reactor ([`FlowState::sub`]).
//! * Liveness is judged where frames arrive: a running connection that
//!   sends no frame for `node_timeout`, counting only passes willing to
//!   read it (never flow-control deferral), gets `Shutdown` and is dropped.
//! * A node id is served by one live connection at a time: the reactor
//!   owns the claims, so a second `Hello` for an active node is refused
//!   at the greeting, and a dead connection's `Disconnected` is queued
//!   before its claim is released.

use crate::flow::FlowState;
use crate::quarantine::QuarantineLog;
use crate::server::ManagerCells;
use crate::session::{pump_channel, FrameOutcome, PumpCommand, PumpEvent, PumpIo};
use brisk_clock::{Clock, SkewSample};
use brisk_core::{BriskError, NodeId, Result, UtcMicros};
use brisk_net::{
    poll_in, ConnMetrics, Connection, Listener, PollFd, Poller, Waker, POLLERR, POLLHUP, POLLIN,
};
use brisk_proto::Message;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::collections::HashMap;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a fresh connection may sit without completing its `Hello`.
const GREETING_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a shut-down connection keeps draining late batches.
const CLOSING_DRAIN: Duration = Duration::from_secs(2);
/// How long one `SyncPoll` waits for its reply before the sample is lost.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(1);
/// Frames read from one connection per pass before yielding to the rest
/// — bounds how long one firehose sensor can monopolize the reactor.
const MAX_FRAMES_PER_PASS: usize = 32;

/// Which node ids are currently served by a live connection, and by
/// which pump. A second `Hello` claiming an already-active node is
/// rejected at the greeting instead of racing the first connection's
/// session state (two pumps stamping the same node id would interleave
/// batches, corrupt per-node sequence tracking, and let a misconfigured
/// sensor silently hijack another's stream). The reactor loop is its only
/// user, and a claim is released only by the connection that made it.
type Claims = HashMap<NodeId, u64>;

/// Everything the reactor needs to turn an anonymous socket into a pump.
pub(crate) struct ReactorConfig {
    /// Master clock for receive stamps and sync exchanges.
    pub clock: Arc<dyn Clock>,
    /// Event stream into the manager; freshly greeted connections are
    /// announced on it too ([`PumpEvent::Connected`]).
    pub events: Sender<PumpEvent>,
    /// Event-path cells shared with the manager (queue depth).
    pub cells: Arc<ManagerCells>,
    /// Shared EXS→ISM flow-control state.
    pub flow: Arc<FlowState>,
    /// Undecodable frames tolerated per connection before disconnect.
    pub error_budget: u32,
    /// Shared malformed-frame quarantine log.
    pub quarantine: Arc<QuarantineLog>,
    /// Evict a running connection silent this long (`None`: never).
    pub node_timeout: Option<Duration>,
    /// Meters every accepted connection, `Hello` frames included.
    pub conn_metrics: Arc<ConnMetrics>,
}

impl ReactorConfig {
    /// Queue `event` for the manager; `false` when the manager is gone.
    /// The depth is raised first so the manager's matching decrement can
    /// never be observed ahead of it.
    pub(crate) fn send_event(&self, event: PumpEvent) -> bool {
        self.cells.queue_depth.fetch_add(1, Ordering::Relaxed);
        let sent = self.events.send(event).is_ok();
        if !sent {
            self.cells.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }
}

/// The reactor's one-shot watch on a relay's upstream link. The manager
/// owns the link but sleeps on its event queue, so it lends the reactor
/// the link's fd ([`UplinkWatch::arm`]). Once the fd polls ready (input,
/// an error or a hang-up), the reactor clears the watch and queues
/// [`PumpEvent::Uplink`]; the manager ticks, which reads the link, and
/// arms the watch again. One-shot, so the reactor never spins on input
/// the manager has yet to read.
pub(crate) struct UplinkWatch {
    /// The watched fd, or [`UplinkWatch::NONE`].
    fd: AtomicI32,
    /// The reactor's waker.
    waker: Waker,
}

impl UplinkWatch {
    const NONE: RawFd = -1;

    /// Watch `fd` (`None`: nothing) and ring the reactor if that changed
    /// the watch, so its poll set follows: a `poll` already asleep on an
    /// old fd would not see a new socket that reused its number.
    pub(crate) fn arm(&self, fd: Option<RawFd>) {
        let fd = fd.unwrap_or(Self::NONE);
        if self.fd.swap(fd, Ordering::AcqRel) != fd {
            self.waker.wake();
        }
    }

    /// The fd to poll, if one is watched.
    fn armed(&self) -> Option<RawFd> {
        Some(self.fd.load(Ordering::Acquire)).filter(|&fd| fd != Self::NONE)
    }

    /// Clear the watch if it still holds `fd`; `true` when it did, and
    /// the manager must be told.
    fn fire(&self, fd: RawFd) -> bool {
        let cleared = self
            .fd
            .compare_exchange(fd, Self::NONE, Ordering::AcqRel, Ordering::Acquire);
        cleared.is_ok()
    }
}

/// The reactor thread: one `poll(2)` loop over the listener, every
/// connection and a relay's upstream link.
pub(crate) struct Reactor {
    waker: Waker,
    /// The watch on a relay's upstream link.
    uplink: Arc<UplinkWatch>,
    join: std::thread::JoinHandle<()>,
    /// Asks the reactor to close the listener.
    closing: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
}

/// The server's listener, until it closes.
struct Acceptor {
    listener: Option<Box<dyn Listener>>,
    closing: Arc<AtomicBool>,
}

impl Acceptor {
    /// The listener, until it closes or a close is asked for.
    fn open(&mut self) -> Option<&mut Box<dyn Listener>> {
        if self.closing.load(Ordering::Acquire) {
            self.listener = None;
        }
        self.listener.as_mut()
    }

    /// Accept until the listener would block, metering each connection
    /// onto `drivers`. An accept error closes the listener: the server
    /// accepts nothing more.
    fn accept_pending(&mut self, ctx: &ReactorConfig, drivers: &mut Vec<Driver>) {
        while let Some(listener) = self.open() {
            match listener.try_accept() {
                Ok(Some(conn)) => drivers.push(Driver::new(ctx.conn_metrics.wrap(conn))),
                Ok(None) => return,
                Err(e) => {
                    brisk_telemetry::flight_log!(
                        Error,
                        "ism.reactor",
                        "accept_failed",
                        "listener closed after an accept error: {e}"
                    );
                    self.listener = None;
                }
            }
        }
    }
}

impl Reactor {
    /// Spawn the reactor thread, accepting from `listener` and watching
    /// the upstream link armed through [`Reactor::uplink_watch`]. A
    /// drained manager queue wakes it.
    pub(crate) fn spawn(cfg: ReactorConfig, listener: Box<dyn Listener>) -> Result<Reactor> {
        let (stop, closing) = (Arc::default(), Arc::<AtomicBool>::default());
        let poller = Poller::new().map_err(BriskError::Io)?;
        let waker = poller.waker();
        cfg.flow.register_waker(waker.clone());
        let uplink = Arc::new(UplinkWatch {
            fd: AtomicI32::new(UplinkWatch::NONE),
            waker: waker.clone(),
        });
        let acceptor = Acceptor {
            listener: Some(listener),
            closing: Arc::clone(&closing),
        };
        let (watch, halt) = (Arc::clone(&uplink), Arc::clone(&stop));
        let join = std::thread::Builder::new()
            .name("brisk-reactor-0".into())
            .spawn(move || run(cfg, poller, acceptor, watch, halt))
            .map_err(BriskError::Io)?;
        Ok(Reactor {
            waker,
            uplink,
            join,
            closing,
            stop,
        })
    }

    /// The watch on a relay's upstream link, for the manager to arm.
    pub(crate) fn uplink_watch(&self) -> Arc<UplinkWatch> {
        Arc::clone(&self.uplink)
    }

    /// Close the listener: new connects are refused, live connections
    /// carry on.
    pub(crate) fn close_listener(&self) {
        self.closing.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Stop the reactor and join its thread. Call only after the manager
    /// has finished its shutdown drain: live connections are dropped
    /// without further events.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        let _ = self.join.join();
    }
}

/// One in-flight clock-sync exchange as poll-driven state.
struct SyncState {
    round: u64,
    total: u32,
    next_sample: u32,
    outstanding: Option<Outstanding>,
    collected: Vec<SkewSample>,
}

struct Outstanding {
    sample: u32,
    t0: UtcMicros,
    deadline: Instant,
}

impl SyncState {
    fn new(round: u64, samples: u32) -> SyncState {
        SyncState {
            round,
            total: samples,
            next_sample: 0,
            outstanding: None,
            collected: Vec::with_capacity(samples as usize),
        }
    }

    /// Record a reply if it matches the outstanding poll; stale or
    /// mismatched replies are dropped.
    fn on_reply(&mut self, round: u64, sample: u32, slave_time: UtcMicros, now: UtcMicros) {
        match &self.outstanding {
            Some(out) if self.round == round && out.sample == sample => {
                let t0 = out.t0;
                self.outstanding = None;
                self.collected.push(SkewSample {
                    t_master_send: t0,
                    t_slave: slave_time,
                    t_master_recv: now,
                });
            }
            _ => {}
        }
    }

    /// Hand the round's samples (possibly fewer than requested) to the
    /// manager.
    fn report(self, io: &PumpIo, ctx: &ReactorConfig) {
        ctx.send_event(PumpEvent::SyncSamples {
            node: io.node,
            round: self.round,
            samples: self.collected,
        });
    }
}

/// A connection that completed its greeting and serves a node.
struct Running {
    io: PumpIo,
    cmd_rx: Receiver<PumpCommand>,
    sync: Option<SyncState>,
}

enum State {
    /// Accepted but not yet identified: waiting for `Hello`.
    Greeting { deadline: Instant },
    /// Greeted; batches, heartbeats, commands and sync exchanges flow.
    Running(Running),
    /// `Shutdown` sent; draining the EXS's final flush so no records are
    /// lost at teardown, then reporting `Disconnected`.
    Closing { io: PumpIo, deadline: Instant },
}

struct Driver {
    conn: Box<dyn Connection>,
    state: State,
    dead: bool,
    /// When its last frame arrived, pushed forward by every pass that
    /// held it unread: a running connection's silence counts from here.
    heard: Instant,
}

/// How the read pass treats one driver this iteration.
enum ReadMode {
    /// Has a kernel fd at this slot in the poll set; read on readiness.
    Polled(usize),
    /// Buffered frames, or no fd (a killed link): recv every pass.
    Always,
    /// Deferred by flow control: not read, and the pass is not silence.
    Held,
    /// Dead: do not read.
    Skip,
}

impl Driver {
    fn new(conn: Box<dyn Connection>) -> Driver {
        let now = Instant::now();
        Driver {
            conn,
            state: State::Greeting {
                deadline: now + GREETING_TIMEOUT,
            },
            dead: false,
            heard: now,
        }
    }

    fn is_running(&self) -> bool {
        matches!(self.state, State::Running(_))
    }

    /// The next instant this driver needs the reactor awake regardless of
    /// socket readiness; `liveness` is the node timeout, if it is running.
    fn next_deadline(&self, liveness: Option<Duration>) -> Option<Instant> {
        match &self.state {
            State::Greeting { deadline } => Some(*deadline),
            State::Closing { deadline, .. } => Some(*deadline),
            State::Running(run) => {
                let sample = run.sync.as_ref().and_then(|s| s.outstanding.as_ref());
                let silent = liveness.map(|t| self.heard + t);
                sample.map(|o| o.deadline).into_iter().chain(silent).min()
            }
        }
    }

    /// Drain queued manager commands. Returns `false` when the
    /// connection is done.
    fn service_commands(&mut self, ctx: &ReactorConfig) -> bool {
        loop {
            let cmd = match &mut self.state {
                State::Running(run) => run.cmd_rx.try_recv(),
                _ => return true,
            };
            let reply = match cmd {
                Ok(PumpCommand::SyncRound { round, samples }) => {
                    if let State::Running(run) = &mut self.state {
                        run.sync = Some(SyncState::new(round, samples));
                    }
                    continue;
                }
                Ok(PumpCommand::Adjust { round, advance_us }) => {
                    Message::SyncAdjust { round, advance_us }
                }
                Ok(PumpCommand::Ack { seq }) => Message::BatchAck {
                    seq,
                    credit: ctx.flow.credit(),
                },
                Ok(PumpCommand::Shutdown) => {
                    let _ = self.conn.send(&Message::Shutdown.encode());
                    // Keep draining the EXS's final flush for a bounded
                    // window so no records are lost at teardown.
                    let placeholder = State::Greeting {
                        deadline: Instant::now(),
                    };
                    if let State::Running(mut run) = std::mem::replace(&mut self.state, placeholder)
                    {
                        // A sync round interrupted by shutdown reports
                        // what it collected — to the manager, samples
                        // lost to teardown look like samples lost to
                        // timeouts, and the round can still close.
                        if let Some(sync) = run.sync.take() {
                            sync.report(&run.io, ctx);
                        }
                        self.state = State::Closing {
                            io: run.io,
                            deadline: Instant::now() + CLOSING_DRAIN,
                        };
                    }
                    return true;
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            };
            if self.conn.send(&reply.encode()).is_err() {
                return false;
            }
        }
    }

    /// Advance the sync state machine: time out lost samples, send the
    /// next poll, emit `SyncSamples` when the round completes. Returns
    /// `false` when the connection is done.
    fn advance_sync(&mut self, ctx: &ReactorConfig) -> bool {
        let run = match &mut self.state {
            State::Running(run) => run,
            _ => return true,
        };
        let Some(sync) = &mut run.sync else {
            return true;
        };
        let now = Instant::now();
        if let Some(out) = &sync.outstanding {
            if now >= out.deadline {
                sync.outstanding = None; // sample lost; move on
            }
        }
        if sync.outstanding.is_none() && sync.next_sample < sync.total {
            let sample = sync.next_sample;
            let t0 = ctx.clock.now();
            if self
                .conn
                .send(
                    &Message::SyncPoll {
                        round: sync.round,
                        sample,
                        master_send: t0,
                    }
                    .encode(),
                )
                .is_err()
            {
                return false;
            }
            sync.next_sample += 1;
            sync.outstanding = Some(Outstanding {
                sample,
                t0,
                deadline: now + SAMPLE_TIMEOUT,
            });
        }
        if sync.outstanding.is_none() && sync.next_sample >= sync.total {
            if let Some(done) = run.sync.take() {
                done.report(&run.io, ctx);
            }
        }
        true
    }

    /// Handle one inbound frame. Returns `false` when the connection is
    /// done.
    fn on_frame(
        &mut self,
        frame: Vec<u8>,
        ctx: &ReactorConfig,
        waker: &Waker,
        claims: &mut Claims,
    ) -> bool {
        match &mut self.state {
            State::Greeting { .. } => self.greet(frame, ctx, waker, claims),
            State::Running(run) => match run.io.on_frame(ctx, frame) {
                Ok(FrameOutcome::Consumed) => true,
                Ok(FrameOutcome::SyncReply {
                    round,
                    sample,
                    slave_time,
                }) => {
                    // A reply outside a round is stale; inside one, the
                    // state machine decides whether it matches.
                    if let Some(sync) = &mut run.sync {
                        sync.on_reply(round, sample, slave_time, ctx.clock.now());
                    }
                    true
                }
                Err(_) => false,
            },
            State::Closing { io, .. } => io.on_frame(ctx, frame).is_ok(),
        }
    }

    /// Server-side handshake, reactor style: the first frame must be a
    /// `Hello`. Anything else — or a decode failure — drops the
    /// connection silently; it never had an identity to report. A `Hello`
    /// at any version but [`brisk_proto::VERSION`], or claiming a node id
    /// another live connection already serves, is refused: quarantined
    /// and answered with `Shutdown`. Every accepted connection runs the
    /// one session — `HelloAck`, sequenced and acked batches, heartbeats.
    fn greet(
        &mut self,
        frame: Vec<u8>,
        ctx: &ReactorConfig,
        waker: &Waker,
        claims: &mut Claims,
    ) -> bool {
        let Ok(Message::Hello { node, version }) = Message::decode(&frame) else {
            return false;
        };
        if version != brisk_proto::VERSION {
            let reason = format!(
                "Hello version {version} refused: this ISM speaks only v{}",
                brisk_proto::VERSION
            );
            return self.refuse(ctx, node, &frame, "unsupported_hello", &reason);
        }
        if claims.contains_key(&node) {
            ctx.quarantine.note_rejected_hello();
            let reason = "duplicate Hello: node already active";
            return self.refuse(ctx, node, &frame, "duplicate_hello", reason);
        }
        let (handle, cmd_rx) = pump_channel(node, waker.clone());
        let id = handle.id();
        let ack = Message::HelloAck {
            version,
            credit: ctx.flow.credit(),
        };
        if self.conn.send(&ack.encode()).is_err() {
            return false;
        }
        let io = PumpIo {
            node,
            id,
            errors: 0,
        };
        if !ctx.send_event(PumpEvent::Connected(handle)) {
            return false; // server is shutting down
        }
        claims.insert(node, id);
        self.state = State::Running(Running {
            io,
            cmd_rx,
            sync: None,
        });
        true
    }

    /// Refuse a `Hello`: sample it in the quarantine, log why, and answer
    /// `Shutdown`. Returns `false` (the connection is done).
    fn refuse(
        &mut self,
        ctx: &ReactorConfig,
        node: NodeId,
        frame: &[u8],
        event: &'static str,
        reason: &str,
    ) -> bool {
        ctx.quarantine.record(node, frame, reason);
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            event,
            "rejected Hello for node {node}: {reason}"
        );
        let _ = self.conn.send(&Message::Shutdown.encode());
        false
    }

    /// Liveness: a running connection silent for the node timeout over
    /// passes willing to read it is answered `Shutdown` and marked dead.
    /// A pass that `held` it unread pushes `heard` forward by the pass
    /// length instead: a slow manager is not a silent peer.
    fn judge(&mut self, held: bool, pass: Duration, now: Instant, ctx: &ReactorConfig) {
        let (Some(timeout), State::Running(run)) = (ctx.node_timeout, &self.state) else {
            return;
        };
        if held {
            self.heard = (self.heard + pass).min(now);
        } else if now.duration_since(self.heard) >= timeout {
            brisk_telemetry::flight_log!(
                Warn,
                "ism.reactor",
                "node_evicted",
                "node {} evicted: no frame for over {timeout:?}",
                run.io.node
            );
            ctx.cells.evicted.fetch_add(1, Ordering::Relaxed);
            let _ = self.conn.send(&Message::Shutdown.encode());
            self.dead = true;
        }
    }

    /// Report the death of an identified connection, then release its
    /// node-id claim, so the manager sees it before any successor's
    /// `Connected`. A connection still in its greeting never had an
    /// identity, so nothing is emitted.
    fn emit_disconnect(&self, ctx: &ReactorConfig, claims: &mut Claims) {
        let io = match &self.state {
            State::Running(run) => &run.io,
            State::Closing { io, .. } => io,
            State::Greeting { .. } => return,
        };
        ctx.send_event(PumpEvent::Disconnected {
            node: io.node,
            id: io.id,
        });
        claims.remove(&io.node);
    }
}

/// The reactor thread: service commands, poll the listener, the
/// upstream link and every connection, accept, route frames, judge
/// liveness, sweep the dead.
fn run(
    ctx: ReactorConfig,
    poller: Poller,
    mut acceptor: Acceptor,
    uplink: Arc<UplinkWatch>,
    stop: Arc<AtomicBool>,
) {
    let waker = poller.waker();
    let mut drivers: Vec<Driver> = Vec::new();
    let mut claims = Claims::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut modes: Vec<ReadMode> = Vec::new();
    let mut last_wake = Instant::now();
    while !stop.load(Ordering::Acquire) {
        // Commands and sync exchanges first: acks, credit grants and
        // sync traffic must not starve behind inbound batches.
        for d in drivers.iter_mut() {
            if !d.dead && (!d.service_commands(&ctx) || !d.advance_sync(&ctx)) {
                d.dead = true;
            }
        }
        // Deadlines: greetings that never said Hello, drains that ran out.
        let now = Instant::now();
        for d in drivers.iter_mut() {
            match &d.state {
                State::Greeting { deadline } if now >= *deadline => d.dead = true,
                State::Closing { deadline, .. } if now >= *deadline => d.dead = true,
                _ => {}
            }
        }
        // Backpressure: while the manager queue is over its bound,
        // running connections leave the poll set so their bytes pile up
        // in the transport. Greetings and closing drains still read, and
        // commands above still ran — sync and shutdown cannot deadlock.
        let over = ctx.flow.over_limit();
        fds.clear();
        modes.clear();
        let listen_fd = acceptor.open().map(|l| l.poll_fd());
        fds.extend(listen_fd.map(poll_in));
        // Flow control never defers the upstream link: a parent's ack is
        // what frees a relay parked behind spent credit.
        let watched = uplink.armed().map(|fd| {
            fds.push(poll_in(fd));
            (fd, fds.len() - 1)
        });
        // Set when the next pass must not sleep: a connection already died
        // (its sweep is owed) or has frames to read without a poll.
        let mut pass_now = false;
        for d in drivers.iter() {
            if d.dead {
                pass_now = true;
                modes.push(ReadMode::Skip);
                continue;
            }
            if over && d.is_running() {
                ctx.flow.note_deferral();
                modes.push(ReadMode::Held);
                continue;
            }
            // Framed transports drain the kernel socket eagerly, so a
            // frame-cap or backpressure break can leave whole frames in
            // the userspace buffer with POLLIN clear — such a connection
            // is readable now, whatever poll says. A killed link has no
            // fd; its next recv fails at once.
            match d.conn.poll_fd().filter(|_| !d.conn.has_buffered()) {
                Some(fd) => {
                    modes.push(ReadMode::Polled(fds.len()));
                    fds.push(poll_in(fd));
                }
                None => {
                    pass_now = true;
                    modes.push(ReadMode::Always);
                }
            }
        }
        // Sleep until a socket is readable, a waker fires (new
        // connection, queued command, a drained manager queue, a re-armed
        // uplink, shutdown) or the nearest deadline; with none, until
        // input. A deferred connection cannot fall silent, so it sets no
        // liveness deadline. With `pass_now`, don't sleep at all, just
        // collect any concurrently-readable sockets.
        let mut timeout = pass_now.then_some(Duration::ZERO);
        let now = Instant::now();
        let liveness = ctx.node_timeout.filter(|_| !over);
        for d in drivers.iter().filter(|d| !d.dead) {
            if let Some(deadline) = d.next_deadline(liveness) {
                let left = deadline.saturating_duration_since(now);
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
        }
        if poller.wait(&mut fds, timeout).is_err() {
            // poll(2) failing is unrecoverable for the reactor; dropping
            // the drivers closes every connection it owned.
            break;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        if let Some((fd, slot)) = watched {
            if fds[slot].revents != 0 && uplink.fire(fd) {
                ctx.send_event(PumpEvent::Uplink);
            }
        }
        let now = Instant::now();
        let pass = now.duration_since(last_wake);
        last_wake = now;
        // Read pass: drain readable connections, a bounded number of
        // frames each so one firehose cannot monopolize the reactor, then
        // judge each one's liveness.
        for (d, mode) in drivers.iter_mut().zip(modes.iter_mut()) {
            let readable = match mode {
                ReadMode::Polled(slot) => fds[*slot].revents & (POLLIN | POLLERR | POLLHUP) != 0,
                ReadMode::Always => true,
                ReadMode::Held | ReadMode::Skip => false,
            };
            for _ in 0..if readable { MAX_FRAMES_PER_PASS } else { 0 } {
                // Re-check the queue bound between frames, not just when
                // the poll set was built: one drain of a deep socket
                // buffer could otherwise overshoot the bound by a whole
                // pass (the bound the tests pin is queue + one batch per
                // pump).
                if d.is_running() && ctx.flow.over_limit() {
                    *mode = ReadMode::Held;
                    break;
                }
                match d.conn.recv(Some(Duration::ZERO)) {
                    Ok(Some(frame)) => {
                        d.heard = now;
                        if !d.on_frame(frame, &ctx, &waker, &mut claims) {
                            d.dead = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        d.dead = true;
                        break;
                    }
                }
            }
            if !d.dead {
                d.judge(matches!(mode, ReadMode::Held), pass, now, &ctx);
            }
        }
        // Sweep: report identified deaths, drop the rest silently.
        drivers.retain_mut(|d| {
            if !d.dead {
                return true;
            }
            d.emit_disconnect(&ctx, &mut claims);
            false
        });
        // New connections join the next pass's poll set.
        if listen_fd.and(fds.first()).is_some_and(|l| l.revents != 0) {
            acceptor.accept_pending(&ctx, &mut drivers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::PumpHandle;
    use brisk_clock::SystemClock;
    use brisk_core::{EventRecord, EventTypeId, FlowConfig, NodeId, SensorId};
    use brisk_lis::testkit::recv_msg;
    use brisk_net::{MemTransport, Transport};
    use brisk_proto::BatchView;
    use crossbeam::channel::unbounded;

    /// A reactor whose manager side is the test itself.
    struct Rig {
        transport: Arc<MemTransport>,
        reactor: Reactor,
        events: Receiver<PumpEvent>,
        quarantine: Arc<QuarantineLog>,
        flow: Arc<FlowState>,
    }

    /// Credit 64, default manager-queue bound, error budget 2, no node
    /// timeout.
    fn test_reactor() -> Rig {
        reactor_with(credit(64), 2)
    }

    fn reactor_with(flow: FlowConfig, error_budget: u32) -> Rig {
        timed_reactor(flow, error_budget, None)
    }

    fn credit(credit_records: u64) -> FlowConfig {
        FlowConfig {
            credit_records,
            ..FlowConfig::default()
        }
    }

    fn timed_reactor(flow: FlowConfig, error_budget: u32, node_timeout: Option<Duration>) -> Rig {
        let (event_tx, events) = unbounded();
        let quarantine = QuarantineLog::new();
        let flow = FlowState::new(flow);
        let transport = MemTransport::new();
        let reactor = Reactor::spawn(
            ReactorConfig {
                clock: Arc::new(SystemClock),
                events: event_tx,
                cells: Arc::default(),
                flow: Arc::clone(&flow),
                error_budget,
                quarantine: Arc::clone(&quarantine),
                node_timeout,
                conn_metrics: Arc::default(),
            },
            transport.listen("reactor").unwrap(),
        )
        .unwrap();
        Rig {
            transport,
            reactor,
            events,
            quarantine,
            flow,
        }
    }

    impl Rig {
        /// A fresh client connection, accepted by the reactor.
        fn client(&self) -> Box<dyn Connection> {
            self.transport.connect("reactor").unwrap()
        }

        /// Connect and say `Hello` as `node` at the current protocol
        /// version; returns the client end (HelloAck consumed) and the
        /// pump handle the manager would hold.
        fn greeted(&self, node: u32) -> (Box<dyn Connection>, PumpHandle) {
            let mut client = self.client();
            client.send(&hello(node, brisk_proto::VERSION)).unwrap();
            assert!(matches!(recv_msg(&mut client), Message::HelloAck { .. }));
            (client, self.connected())
        }

        fn event(&self) -> PumpEvent {
            self.events.recv_timeout(Duration::from_secs(2)).unwrap()
        }

        /// The next event, which must announce a greeted connection.
        fn connected(&self) -> PumpHandle {
            match self.event() {
                PumpEvent::Connected(handle) => handle,
                other => panic!("expected Connected, got {other:?}"),
            }
        }
    }

    fn hello(node: u32, version: u32) -> Vec<u8> {
        Message::Hello {
            node: NodeId(node),
            version,
        }
        .encode()
    }

    fn empty_batch(node: u32, seq: u64) -> Vec<u8> {
        Message::EventBatch {
            node: NodeId(node),
            seq: Some(seq),
            records: vec![],
        }
        .encode()
    }

    #[test]
    fn greets_pumps_batches_and_reports_disconnect() {
        let rig = test_reactor();
        let mut client = rig.client();
        client.send(&hello(7, brisk_proto::VERSION)).unwrap();
        // HelloAck carries the session version and the credit grant.
        assert_eq!(
            recv_msg(&mut client),
            Message::HelloAck {
                version: brisk_proto::VERSION,
                credit: 64
            }
        );
        let handle = rig.connected();
        assert_eq!(handle.node, NodeId(7));
        // A batch flows through untouched and still parses as a view.
        let rec = EventRecord::new(
            NodeId(7),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(9),
            vec![],
        )
        .unwrap();
        client
            .send(
                &Message::EventBatch {
                    node: NodeId(7),
                    seq: Some(1),
                    records: vec![rec.clone()],
                }
                .encode(),
            )
            .unwrap();
        match rig.event() {
            PumpEvent::Batch {
                node,
                id,
                seq,
                frame,
                count,
                ..
            } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(id, handle.id());
                assert_eq!(seq, 1);
                assert_eq!(count, 1);
                let view = BatchView::parse(&frame).unwrap();
                assert_eq!(view.materialize().unwrap(), vec![rec]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A heartbeat is liveness, judged at the reactor: nothing reaches
        // the manager.
        client.send(&Message::Heartbeat.encode()).unwrap();
        assert!(rig.events.recv_timeout(Duration::from_millis(100)).is_err());
        // Commands flow back out through the handle (waker-driven), and
        // every ack carries the server's credit grant.
        assert!(handle.command(PumpCommand::Ack { seq: 42 }));
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck {
                seq: 42,
                credit: 64
            }
        );
        // Dropping the client surfaces as a Disconnected event.
        drop(client);
        match rig.event() {
            PumpEvent::Disconnected { node, id } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(id, handle.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        rig.reactor.stop();
    }

    #[test]
    fn greeting_refuses_every_version_but_the_current_one() {
        // (server credit, Hello version) → the reply the peer must see.
        // The current version always gets a HelloAck carrying the server's
        // credit setting; any other version is refused like a duplicate
        // Hello: quarantined, answered with Shutdown, never connected.
        let v = brisk_proto::VERSION;
        for (grant, version, expect) in [
            (
                512,
                v,
                Message::HelloAck {
                    version: v,
                    credit: 512,
                },
            ),
            (512, 2, Message::Shutdown),
            (512, 1, Message::Shutdown),
        ] {
            let rig = reactor_with(credit(grant), 2);
            let mut client = rig.client();
            client.send(&hello(5, version)).unwrap();
            assert_eq!(recv_msg(&mut client), expect, "credit {grant}, v{version}");
            if version == v {
                assert_eq!(rig.connected().node, NodeId(5));
                assert!(rig.quarantine.samples().is_empty());
            } else {
                assert!(rig.events.recv_timeout(Duration::from_millis(100)).is_err());
                let samples = rig.quarantine.samples();
                assert_eq!(samples.len(), 1);
                assert_eq!(samples[0].node, NodeId(5));
                assert!(samples[0].error.contains(&format!("version {version}")));
            }
            rig.reactor.stop();
        }
    }

    #[test]
    fn non_hello_greeting_is_dropped_without_a_pump() {
        let rig = test_reactor();
        for first_frame in [Message::Heartbeat, Message::Shutdown] {
            let mut client = rig.client();
            client.send(&first_frame.encode()).unwrap();
            assert!(rig.events.recv_timeout(Duration::from_millis(250)).is_err());
        }
        rig.reactor.stop();
    }

    #[test]
    fn silent_greeting_is_dropped_at_the_deadline() {
        let rig = test_reactor();
        let mut client = rig.client();
        // Never say Hello: past the greeting deadline the connection is
        // closed, with no pump and no event (it never had an identity).
        let give_up = Instant::now() + GREETING_TIMEOUT + Duration::from_secs(3);
        let closed = loop {
            match client.recv(Some(Duration::from_millis(100))) {
                Err(_) => break true,
                Ok(_) if Instant::now() > give_up => break false,
                Ok(_) => {}
            }
        };
        assert!(closed, "a peer that never greets must be dropped");
        assert!(rig.events.try_recv().is_err());
        rig.reactor.stop();
    }

    #[test]
    fn sync_round_runs_as_state_machine_while_batches_flow() {
        let rig = test_reactor();
        let (mut client, handle) = rig.greeted(2);
        assert!(handle.command(PumpCommand::SyncRound {
            round: 9,
            samples: 3
        }));
        // Slave side: answer 3 polls, interleaving a batch.
        let mut answered = 0;
        while answered < 3 {
            match recv_msg(&mut client) {
                Message::SyncPoll {
                    round,
                    sample,
                    master_send,
                } => {
                    if answered == 1 {
                        client.send(&empty_batch(2, 1)).unwrap();
                    }
                    client
                        .send(
                            &Message::SyncReply {
                                round,
                                sample,
                                master_send,
                                slave_time: UtcMicros::now(),
                            }
                            .encode(),
                        )
                        .unwrap();
                    answered += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut batches = 0;
        let mut samples = None;
        for _ in 0..2 {
            match rig.event() {
                PumpEvent::Batch { .. } => batches += 1,
                PumpEvent::SyncSamples {
                    node,
                    round,
                    samples: s,
                } => {
                    assert_eq!(node, NodeId(2));
                    assert_eq!(round, 9);
                    samples = Some(s);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(batches, 1);
        let samples = samples.expect("sync samples event");
        assert_eq!(samples.len(), 3);
        for s in samples {
            assert!(s.rtt_us() >= 0);
        }
        // The round's correction reaches the slave as a SyncAdjust.
        handle.command(PumpCommand::Adjust {
            round: 9,
            advance_us: 123,
        });
        assert_eq!(
            recv_msg(&mut client),
            Message::SyncAdjust {
                round: 9,
                advance_us: 123
            }
        );
        rig.reactor.stop();
    }

    #[test]
    fn spoofed_or_unsequenced_batch_ends_the_connection() {
        let rig = test_reactor();
        // The connection said Hello as node 5; a batch claiming node 6 is
        // spoofed, and one without a seq can be neither acked nor
        // deduplicated. Either must end the connection without being
        // forwarded or quarantined.
        let unsequenced = Message::EventBatch {
            node: NodeId(5),
            seq: None,
            records: vec![],
        };
        for frame in [empty_batch(6, 1), unsequenced.encode()] {
            let (mut client, handle) = rig.greeted(5);
            client.send(&frame).unwrap();
            match rig.event() {
                PumpEvent::Disconnected { node, id } => {
                    assert_eq!(node, NodeId(5));
                    assert_eq!(id, handle.id());
                }
                other => panic!("bad batch must not be forwarded, got {other:?}"),
            }
        }
        assert_eq!(rig.quarantine.frames(), 0);
        rig.reactor.stop();
    }

    #[test]
    fn over_limit_flow_defers_socket_reads_but_not_commands() {
        let tight = FlowConfig {
            max_queued_records: 1,
            ..credit(64)
        };
        for flow in [tight, FlowConfig::default()] {
            let rig = reactor_with(flow, 2);
            let (mut client, handle) = rig.greeted(5);
            // Some other connection filled the manager queue past its bound.
            let queued = flow.max_queued_records as u64 + 9;
            rig.flow.add(queued);
            client.send(&empty_batch(5, 1)).unwrap();
            // The batch stays in the transport while the queue is over its
            // bound...
            assert!(rig.events.recv_timeout(Duration::from_millis(100)).is_err());
            // ...but manager commands are still serviced (no sync deadlock).
            let credit = flow.credit_records;
            assert!(handle.command(PumpCommand::Ack { seq: 7 }));
            assert_eq!(recv_msg(&mut client), Message::BatchAck { seq: 7, credit });
            assert!(rig.flow.deferrals() > 0, "{flow:?}");
            // Once the manager drains the queue the deferred batch flows.
            rig.flow.sub(queued);
            match rig.event() {
                PumpEvent::Batch { seq, .. } => assert_eq!(seq, 1),
                other => panic!("unexpected {other:?}"),
            }
            rig.reactor.stop();
        }
    }

    #[test]
    fn a_connection_held_unread_by_flow_control_is_not_silent() {
        let rig = timed_reactor(credit(64), 2, Some(Duration::from_millis(150)));
        let (mut client, _handle) = rig.greeted(5);
        // Another connection filled the manager queue past its bound, and
        // it stays there for four timeouts with a batch waiting here.
        let queued = FlowConfig::default().max_queued_records as u64 + 9;
        rig.flow.add(queued);
        client.send(&empty_batch(5, 1)).unwrap();
        assert!(rig.events.recv_timeout(Duration::from_millis(600)).is_err());
        // Once the bound clears the batch flows: the peer was never silent,
        // the reactor just would not read it.
        rig.flow.sub(queued);
        match rig.event() {
            PumpEvent::Batch { seq, .. } => assert_eq!(seq, 1),
            other => panic!("held connection evicted: {other:?}"),
        }
        assert!(client
            .recv(Some(Duration::from_millis(100)))
            .unwrap()
            .is_none());
        rig.reactor.stop();
    }

    #[test]
    fn a_half_open_peer_is_evicted_while_others_are_deferred_now_and_then() {
        let rig = timed_reactor(credit(64), 2, Some(Duration::from_millis(300)));
        // Two peers heartbeat every 2 ms beside the silent one, so the
        // reactor samples the flickering bound far more often than it
        // flips.
        let (mut silent, handle) = rig.greeted(5);
        let mut chatty: Vec<_> = (6..8).map(|node| rig.greeted(node)).collect();
        // The queue bound flickers every 5 ms, so every connection is
        // deferred about half the time. Refreshing liveness on a deferred
        // pass would keep the silent peer alive for ever.
        let stop = Arc::new(AtomicBool::new(false));
        let flow = Arc::clone(&rig.flow);
        let flicker = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let queued = FlowConfig::default().max_queued_records as u64 + 9;
                while !stop.load(Ordering::Relaxed) {
                    flow.add(queued);
                    std::thread::sleep(Duration::from_millis(5));
                    flow.sub(queued);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let give_up = Instant::now() + Duration::from_secs(3);
        let mut evicted = false;
        while !evicted && Instant::now() < give_up {
            for (peer, _handle) in chatty.iter_mut() {
                peer.send(&Message::Heartbeat.encode()).unwrap();
            }
            evicted = matches!(
                rig.events.recv_timeout(Duration::from_millis(2)),
                Ok(PumpEvent::Disconnected { id, .. }) if id == handle.id()
            );
        }
        stop.store(true, Ordering::Relaxed);
        flicker.join().unwrap();
        assert!(
            evicted,
            "a silent peer must be evicted under flickering flow control"
        );
        assert_eq!(recv_msg(&mut silent), Message::Shutdown);
        // The heartbeating peers kept their sessions through the same
        // passes.
        for (peer, _handle) in chatty.iter_mut() {
            assert!(peer
                .recv(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none());
        }
        rig.reactor.stop();
    }

    #[test]
    fn malformed_frames_are_quarantined_within_budget() {
        let rig = test_reactor();
        let (mut client, _handle) = rig.greeted(5);
        // Two garbage frames fit inside the budget: the connection lives
        // and a valid batch still flows afterwards.
        client.send(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        client.send(b"not a brisk frame").unwrap();
        client.send(&empty_batch(5, 1)).unwrap();
        match rig.event() {
            PumpEvent::Batch { seq, .. } => assert_eq!(seq, 1),
            other => panic!("batch must survive quarantined garbage, got {other:?}"),
        }
        assert_eq!(rig.quarantine.frames(), 2);
        assert_eq!(rig.quarantine.disconnects(), 0);
        // The third garbage frame exhausts the budget: disconnect.
        client.send(&[0xff; 8]).unwrap();
        match rig.event() {
            PumpEvent::Disconnected { node, .. } => assert_eq!(node, NodeId(5)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rig.quarantine.frames(), 3);
        assert_eq!(rig.quarantine.disconnects(), 1);
        let samples = rig.quarantine.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].node, NodeId(5));
        assert_eq!(samples[0].head_hex, "deadbeef");
        assert!(!samples[0].error.is_empty());
        rig.reactor.stop();
    }

    #[test]
    fn zero_budget_drops_connection_on_first_bad_frame() {
        let rig = reactor_with(credit(64), 0);
        let (mut client, _handle) = rig.greeted(5);
        client.send(&[0x00]).unwrap();
        match rig.event() {
            PumpEvent::Disconnected { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rig.quarantine.frames(), 1);
        assert_eq!(rig.quarantine.disconnects(), 1);
        rig.reactor.stop();
    }
}
