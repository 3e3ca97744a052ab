//! The ISM's one loop. A single thread waits in one `poll(2)`
//! ([`Poller`], see `brisk_net::poll`) on the listener, every EXS
//! connection and, in a relay, the upstream link — as the paper's ISM
//! waits in `select` on all of its EXS sockets — and owns the
//! [`IsmCore`] and the [`SyncMaster`]. A thousand mostly-idle sensors cost
//! sockets, not threads, and nothing crosses a thread.
//!
//! What a greeted connection's frame does is decided in one place,
//! `Peer::on_frame`. One pass:
//!
//! 1. Start a sync round when one is due (every `poll_period`, or at once
//!    after a tachyon repair asked for one) and close the open round once
//!    its samples are in or its deadline passed; advance each connection's
//!    poll exchange ([`SyncState`], so one slow slave cannot stall the
//!    loop); drop greetings and closing drains past their deadlines.
//! 2. Sleep until a socket is readable, the [`Waker`] fires (stop), or
//!    the earliest deadline: a connection's (greeting, closing drain, sync
//!    sample, liveness), the pipeline's ([`IsmCore::due_in`], no sooner
//!    than [`COALESCE_WINDOW`] after the last tick) or the sync round's.
//!    Connections are read only when `poll` reports them readable or when
//!    whole frames already wait in their userspace buffer; a fault-killed
//!    link has no fd and is read at once, so its end is seen.
//! 3. Read each readable connection, at most [`MAX_FRAMES_PER_PASS`]
//!    frames. A batch goes straight into [`IsmCore::push_frame`], its
//!    only walk, and its `BatchAck`, which re-advertises the
//!    credit grant, goes out on the same connection in the same pass. The
//!    pipeline ticks between frames whenever it is due, so a deep backlog
//!    cannot starve it. Then judge each connection's liveness.
//! 4. Sweep the dead, releasing their node claims and their place in an
//!    open sync round, and accept what the listener has pending.
//! 5. Tick when the pipeline is due or the upstream link has input (a
//!    parent's ack or `SyncPoll` is answered at once).
//!
//! Backpressure is credit: a connection may have
//! [`brisk_core::FlowConfig::credit_records`] records unacked, and a batch
//! is acked once it is in the core. Records resident in the ISM are
//! therefore bounded by each connection's credit plus one pass's frames.
//! A sink that blocks stalls the loop: nothing is read or acked until it
//! returns, and the senders run out of credit.
//!
//! Liveness is judged against the instant `poll` returned, after reading
//! what arrived while the loop was busy: time spent inside the core is
//! never a peer's silence. A running connection that sends no frame for
//! `node_timeout` gets `Shutdown` and is dropped.
//!
//! A failed send never ends a connection: the frames a peer sent before
//! it hung up are still read, and the read that finds the hang-up ends
//! it.
//!
//! A node id is served by one live connection at a time: a second `Hello`
//! for a claimed node is refused at the greeting, and a claim is released
//! when its connection is swept.

use crate::core::IsmCore;
use crate::quarantine::QuarantineLog;
use crate::server::IsmReport;
use brisk_clock::{Clock, SkewSample, SyncMaster};
use brisk_core::{BriskError, IsmConfig, NodeId, Result, SyncConfig, UtcMicros};
use brisk_net::{
    poll_in, ConnMetrics, Connection, Listener, PollFd, Poller, POLLERR, POLLHUP, POLLIN,
};
use brisk_proto::{BatchWalk, Message};
use brisk_telemetry::Registry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a fresh connection may sit without completing its `Hello`.
const GREETING_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a shut-down connection keeps draining late batches.
const CLOSING_DRAIN: Duration = Duration::from_secs(2);
/// How long one `SyncPoll` waits for its reply before the sample is lost.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(1);
/// Frames read from one connection per pass before yielding to the rest
/// — bounds how long one firehose sensor can monopolize the loop.
const MAX_FRAMES_PER_PASS: usize = 32;
/// How long the master waits for all slaves' samples before closing a
/// round with whatever arrived.
const ROUND_DEADLINE: Duration = Duration::from_secs(2);
/// The shortest gap between two ticks. In a steady stream each record
/// falls due a few microseconds after the last; ticks this far apart
/// release them together, at most this late, where a tick per due time
/// would cost a wakeup (and a telemetry publish) per record.
const COALESCE_WINDOW: Duration = Duration::from_millis(1);

brisk_telemetry::metrics! {
    /// The session series the loop keeps.
    struct LoopCells {
        acks_sent: counter "brisk_ism_acks_sent_total" "Batch acknowledgements sent to external sensors",
        credit_grants: counter "brisk_ism_credit_grants_total" "Credit replenishments piggybacked on batch acknowledgements",
        grant_latency: histogram "brisk_ism_grant_latency_us" "Microseconds from reading a batch frame to sending its acknowledgement",
        evicted: counter "brisk_ism_evicted_nodes_total" "Nodes evicted after going silent past the liveness timeout",
    }
}

/// Everything the loop owns but its connections: the pipeline, the sync
/// master, the session policy and the node claims.
pub(crate) struct Ism {
    pub(crate) core: IsmCore,
    sync: SyncMaster,
    /// Master clock for receive stamps and sync exchanges.
    clock: Arc<dyn Clock>,
    cells: Arc<LoopCells>,
    /// Malformed-frame quarantine across all connections.
    pub(crate) quarantine: Arc<QuarantineLog>,
    /// Meters every accepted connection, `Hello` frames included.
    conn_metrics: Arc<ConnMetrics>,
    /// The credit grant every `HelloAck` and `BatchAck` carries.
    credit: u64,
    /// Undecodable frames tolerated per connection before disconnect.
    error_budget: u32,
    /// Evict a running connection silent this long (`None`: never).
    node_timeout: Option<Duration>,
    /// The node ids a live connection serves. Two connections stamping
    /// one node id would interleave batches, corrupt per-node sequence
    /// tracking and let a misconfigured sensor hijack another's stream.
    claims: HashSet<NodeId>,
    round: Option<RoundInFlight>,
    last_tick: Instant,
    last_round_finished: Instant,
}

struct RoundInFlight {
    round: u64,
    expected: HashSet<NodeId>,
    started: Instant,
}

impl Ism {
    pub(crate) fn new(cfg: IsmConfig, sync_cfg: SyncConfig, clock: Arc<dyn Clock>) -> Result<Ism> {
        let (credit, error_budget) = (cfg.flow.credit_records, cfg.protocol_error_budget);
        let node_timeout = cfg.node_timeout;
        Ok(Ism {
            core: IsmCore::new(cfg)?,
            sync: SyncMaster::new(sync_cfg)?,
            clock,
            cells: Arc::default(),
            quarantine: QuarantineLog::new(),
            conn_metrics: Arc::default(),
            credit,
            error_budget,
            node_timeout,
            claims: HashSet::new(),
            round: None,
            last_tick: Instant::now(),
            last_round_finished: Instant::now(),
        })
    }

    /// Bind the core pipeline, the sync master, the quarantine,
    /// connection metering and the session series to `registry`.
    pub(crate) fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.core.bind_telemetry(registry);
        self.sync.bind_telemetry(registry);
        self.quarantine.bind_telemetry(registry);
        self.cells.register(registry, &[]);
        self.conn_metrics.register(registry, &[("role", "ism")]);
    }

    /// How long until the pipeline must tick ([`IsmCore::due_in`]), but
    /// no sooner than [`COALESCE_WINDOW`] after the last tick. `None` when
    /// nothing is pending.
    fn pipeline_due_in(&self) -> Option<Duration> {
        let due = self.core.due_in(self.clock.now())?;
        Some(due.max(COALESCE_WINDOW.saturating_sub(self.last_tick.elapsed())))
    }

    /// Advance the pipeline if it is due, or at once when `forced` (a
    /// relay's upstream link has input, so a parent's ack or `SyncPoll`
    /// is served without delay).
    fn tick(&mut self, forced: bool) -> Result<()> {
        if forced || self.pipeline_due_in().is_some_and(|w| w.is_zero()) {
            self.last_tick = Instant::now();
            self.core.tick(self.clock.now())?;
        }
        Ok(())
    }

    /// How long until [`Ism::step_rounds`] has work: the open round's
    /// close (all samples in, or its deadline) or, while a connection is
    /// `running`, the next periodic round. A tachyon repair's request is
    /// taken in the pass that raised it.
    fn rounds_due_in(&self, running: bool) -> Option<Duration> {
        match &self.round {
            Some(r) if r.expected.is_empty() => Some(Duration::ZERO),
            Some(r) => Some(ROUND_DEADLINE.saturating_sub(r.started.elapsed())),
            None if running => Some(
                self.sync
                    .config()
                    .poll_period
                    .saturating_sub(self.last_round_finished.elapsed()),
            ),
            None => None,
        }
    }

    /// Start a round while a connection is `running` — every
    /// `poll_period`, or at once when a tachyon repair asked for an extra
    /// one and no round is in flight — and close the open round once
    /// every expected slave reported or its deadline passed.
    fn step_rounds(&mut self, peers: &mut [Peer], running: bool) -> Result<()> {
        let extra = self.core.take_extra_sync_request();
        let due = self.last_round_finished.elapsed() >= self.sync.config().poll_period;
        if self.round.is_none() && running && (due || extra) {
            self.begin_round(peers);
        }
        self.maybe_close_round(peers)
    }

    /// Start a round: every running connection begins its poll exchange.
    fn begin_round(&mut self, peers: &mut [Peer]) {
        let round = self.sync.begin_round();
        let samples = self.sync.samples_per_slave() as u32;
        let mut expected = HashSet::new();
        for d in peers.iter_mut().filter(|d| !d.dead) {
            if let State::Running(run) = &mut d.state {
                run.sync = Some(SyncState::new(round, samples));
                expected.insert(run.id.node);
            }
        }
        if expected.is_empty() {
            self.last_round_finished = Instant::now();
            return;
        }
        self.round = Some(RoundInFlight {
            round,
            expected,
            started: Instant::now(),
        });
    }

    /// A connection's exchange ended (possibly with fewer samples than
    /// asked for, if replies timed out or it shut down): feed the master
    /// if it belongs to the open round.
    fn add_samples(&mut self, node: NodeId, exchange: SyncState) {
        if let Some(r) = self.round.as_mut().filter(|r| r.round == exchange.round) {
            for s in exchange.collected {
                self.sync.add_sample(node, s);
            }
            r.expected.remove(&node);
        }
    }

    /// Close the open round if every expected slave reported or its
    /// deadline passed, and send each correction as a `SyncAdjust`.
    fn maybe_close_round(&mut self, peers: &mut [Peer]) -> Result<()> {
        let Some(r) = &self.round else {
            return Ok(());
        };
        if !r.expected.is_empty() && r.started.elapsed() <= ROUND_DEADLINE {
            return Ok(());
        }
        self.round = None;
        let outcome = self.sync.finish_round()?;
        let round = self.sync.rounds_completed();
        let advance: HashMap<NodeId, i64> = outcome
            .corrections
            .iter()
            .map(|c| (c.node, c.advance_us))
            .collect();
        for d in peers.iter_mut().filter(|d| !d.dead) {
            let State::Running(run) = &d.state else {
                continue;
            };
            if let Some(&advance_us) = advance.get(&run.id.node) {
                let adjust = Message::SyncAdjust { round, advance_us };
                let _ = d.conn.send(&adjust.encode());
            }
        }
        self.last_round_finished = Instant::now();
        Ok(())
    }

    /// A swept connection's node is free for a successor and no longer
    /// owes the open round its samples.
    fn release(&mut self, node: NodeId) {
        self.claims.remove(&node);
        if let Some(r) = &mut self.round {
            r.expected.remove(&node);
        }
    }

    /// Flush every held record and collect the final report.
    fn finish(mut self) -> Result<IsmReport> {
        self.core.drain_all()?;
        Ok(IsmReport {
            core: self.core.stats(),
            sorter: self.core.sorter_stats(),
            cre: self.core.cre_stats(),
            sync_rounds: self.sync.rounds_completed(),
            last_sync: self.sync.last_outcome().cloned(),
            relay: self.core.upstream().map(|u| u.stats()),
        })
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
}

/// The node a greeted connection serves, and the undecodable frames it
/// has sent so far.
struct Identity {
    node: NodeId,
    errors: u32,
}

impl Identity {
    /// Quarantine one undecodable frame. `false` when that exhausts the
    /// connection's protocol error budget and it must be dropped — other
    /// nodes' connections are never affected.
    fn quarantine(&mut self, ism: &Ism, frame: &[u8], error: &dyn std::fmt::Display) -> bool {
        self.errors += 1;
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            "quarantine",
            "node {} frame of {} bytes quarantined: {error}",
            self.node,
            frame.len()
        );
        ism.quarantine.record(self.node, frame, &error.to_string());
        if self.errors <= ism.error_budget {
            return true;
        }
        ism.quarantine.note_disconnect();
        brisk_telemetry::flight_log!(
            Error,
            "ism.reactor",
            "quarantine_disconnect",
            "node {} dropped after {} undecodable frames (budget {})",
            self.node,
            self.errors,
            ism.error_budget
        );
        false
    }
}

/// A connection that completed its greeting and serves a node.
struct Running {
    id: Identity,
    sync: Option<SyncState>,
}

enum State {
    /// Accepted but not yet identified: waiting for `Hello`.
    Greeting { deadline: Instant },
    /// Greeted; batches, heartbeats and sync exchanges flow.
    Running(Running),
    /// `Shutdown` sent; draining the EXS's final flush so no records are
    /// lost at teardown.
    Closing { id: Identity, deadline: Instant },
}

struct Peer {
    conn: Box<dyn Connection>,
    state: State,
    dead: bool,
    /// The instant `poll` returned in the pass that read its last frame:
    /// a running connection's silence counts from here.
    heard: Instant,
}

impl Peer {
    fn new(conn: Box<dyn Connection>) -> Peer {
        let now = Instant::now();
        Peer {
            conn,
            state: State::Greeting {
                deadline: now + GREETING_TIMEOUT,
            },
            dead: false,
            heard: now,
        }
    }

    fn is_running(&self) -> bool {
        !self.dead && matches!(self.state, State::Running(_))
    }

    /// The node an identified connection serves.
    fn node(&self) -> Option<NodeId> {
        match &self.state {
            State::Running(run) => Some(run.id.node),
            State::Closing { id, .. } => Some(id.node),
            State::Greeting { .. } => None,
        }
    }

    /// The next instant this peer needs the loop awake regardless of
    /// socket readiness; `liveness` is the node timeout, if it is running.
    fn next_deadline(&self, liveness: Option<Duration>) -> Option<Instant> {
        match &self.state {
            State::Greeting { deadline } | State::Closing { deadline, .. } => Some(*deadline),
            State::Running(run) => {
                let sample = run.sync.as_ref().and_then(|s| s.outstanding.as_ref());
                let silent = liveness.map(|t| self.heard + t);
                sample.map(|o| o.deadline).into_iter().chain(silent).min()
            }
        }
    }

    /// A greeting that never said `Hello`, or a drain that ran out.
    fn expired(&self, now: Instant) -> bool {
        match &self.state {
            State::Greeting { deadline } | State::Closing { deadline, .. } => now >= *deadline,
            State::Running(_) => false,
        }
    }

    /// Advance the sync state machine: time out a lost sample, send the
    /// next poll, hand the samples to the master when the exchange is
    /// done.
    fn advance_sync(&mut self, ism: &mut Ism) {
        let State::Running(run) = &mut self.state else {
            return;
        };
        let Some(sync) = &mut run.sync else {
            return;
        };
        let now = Instant::now();
        if sync
            .outstanding
            .as_ref()
            .is_some_and(|out| now >= out.deadline)
        {
            sync.outstanding = None; // sample lost; move on
        }
        if sync.outstanding.is_none() && sync.next_sample < sync.total {
            let sample = sync.next_sample;
            let t0 = ism.clock.now();
            let poll = Message::SyncPoll {
                round: sync.round,
                sample,
                master_send: t0,
            };
            let _ = self.conn.send(&poll.encode());
            sync.next_sample += 1;
            sync.outstanding = Some(Outstanding {
                sample,
                t0,
                deadline: now + SAMPLE_TIMEOUT,
            });
        }
        if sync.outstanding.is_none() && sync.next_sample >= sync.total {
            if let Some(done) = run.sync.take() {
                ism.add_samples(run.id.node, done);
            }
        }
    }

    /// Handle one inbound frame; `false` when the connection is done. For
    /// a greeted connection this is the one place that decides what a
    /// frame does:
    ///
    /// - a batch whose header names this connection's node and carries a
    ///   seq goes to [`IsmCore::push_frame`] and, while `Running`, is acked
    ///   in the same pass — a replay too, as its earlier ack died with the
    ///   old connection. A `Closing` connection's batch enters unacked;
    /// - a `SyncReply` feeds the exchange and a `Heartbeat` is liveness
    ///   only, which the loop already noted;
    /// - `Shutdown`, or any other message, ends the connection;
    /// - an undecodable frame, a batch that fails to decode included, is
    ///   quarantined against the error budget.
    fn on_frame(&mut self, frame: &[u8], ism: &mut Ism) -> bool {
        let read = Instant::now();
        let (id, sync, acks) = match &mut self.state {
            State::Greeting { .. } => return self.greet(frame, ism),
            State::Running(run) => (&mut run.id, run.sync.as_mut(), true),
            State::Closing { id, .. } => (id, None, false),
        };
        if !brisk_proto::peek_tag(frame).is_some_and(brisk_proto::is_batch_tag) {
            return match Message::decode(frame) {
                Ok(Message::SyncReply {
                    round,
                    sample,
                    slave_time,
                    ..
                }) => {
                    // A reply outside a round is stale; inside one, the
                    // state machine decides whether it matches.
                    if let Some(sync) = sync {
                        sync.on_reply(round, sample, slave_time, ism.clock.now());
                    }
                    true
                }
                Ok(Message::Heartbeat) => true,
                Ok(_) => false,
                Err(e) => id.quarantine(ism, frame, &e),
            };
        }
        let header = match BatchWalk::new(frame) {
            Ok(walk) => walk.header(),
            Err(e) => return id.quarantine(ism, frame, &e),
        };
        // The connection authenticated as `id.node` in the handshake; a
        // batch claiming another origin is spoofed (or a badly confused
        // client): end the connection rather than pollute another node's
        // event stream. A batch without a seq could be neither
        // deduplicated nor acked: same verdict.
        let (true, Some(seq)) = (header.node == id.node, header.seq) else {
            return false;
        };
        let now = ism.clock.now();
        if let Err(e) = ism.core.push_frame(id.node, seq, frame, now, now) {
            return id.quarantine(ism, frame, &e);
        }
        let ack = Message::BatchAck {
            seq,
            credit: ism.credit,
        };
        if acks && self.conn.send(&ack.encode()).is_ok() {
            ism.cells.acks_sent.fetch_add(1, Ordering::Relaxed);
            ism.cells.credit_grants.fetch_add(1, Ordering::Relaxed);
            let waited = read.elapsed().as_micros() as u64;
            ism.cells.grant_latency.record(waited);
        }
        true
    }

    /// Server-side handshake: the first frame must be a `Hello`. Anything
    /// else — or a decode failure — drops the connection silently; it
    /// never had an identity. A `Hello` at any version but
    /// [`brisk_proto::VERSION`], or claiming a node id another live
    /// connection already serves, is refused: quarantined and answered
    /// with `Shutdown`. Every accepted connection runs the one session —
    /// `HelloAck`, sequenced and acked batches, heartbeats.
    fn greet(&mut self, frame: &[u8], ism: &mut Ism) -> bool {
        let Ok(Message::Hello { node, version }) = Message::decode(frame) else {
            return false;
        };
        if version != brisk_proto::VERSION {
            let reason = format!(
                "Hello version {version} refused: this ISM speaks only v{}",
                brisk_proto::VERSION
            );
            return self.refuse(ism, node, frame, "unsupported_hello", &reason);
        }
        if ism.claims.contains(&node) {
            ism.quarantine.note_rejected_hello();
            let reason = "duplicate Hello: node already active";
            return self.refuse(ism, node, frame, "duplicate_hello", reason);
        }
        let ack = Message::HelloAck {
            version,
            credit: ism.credit,
        };
        if self.conn.send(&ack.encode()).is_err() {
            return false;
        }
        ism.claims.insert(node);
        self.state = State::Running(Running {
            id: Identity { node, errors: 0 },
            sync: None,
        });
        true
    }

    /// Refuse a `Hello`: sample it in the quarantine, log why, and answer
    /// `Shutdown`. Returns `false` (the connection is done).
    fn refuse(
        &mut self,
        ism: &Ism,
        node: NodeId,
        frame: &[u8],
        event: &'static str,
        reason: &str,
    ) -> bool {
        ism.quarantine.record(node, frame, reason);
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            event,
            "rejected Hello for node {node}: {reason}"
        );
        let _ = self.conn.send(&Message::Shutdown.encode());
        false
    }

    /// Liveness: a running connection whose last frame was read a node
    /// timeout or more before `now`, the instant `poll` returned, is
    /// answered `Shutdown` and marked dead.
    fn judge(&mut self, now: Instant, ism: &Ism) {
        let (Some(timeout), State::Running(run)) = (ism.node_timeout, &self.state) else {
            return;
        };
        if now.duration_since(self.heard) < timeout {
            return;
        }
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            "node_evicted",
            "node {} evicted: no frame for over {timeout:?}",
            run.id.node
        );
        ism.cells.evicted.fetch_add(1, Ordering::Relaxed);
        let _ = self.conn.send(&Message::Shutdown.encode());
        self.dead = true;
    }

    /// The server is stopping: a greeting is dropped; a running
    /// connection is told `Shutdown`, hands the master what its sync
    /// exchange collected (to the master, samples lost to teardown look
    /// like samples lost to timeouts) and drains the EXS's final flush for
    /// up to [`CLOSING_DRAIN`].
    fn shut_down(&mut self, ism: &mut Ism) {
        let placeholder = State::Greeting {
            deadline: Instant::now(),
        };
        match std::mem::replace(&mut self.state, placeholder) {
            State::Greeting { .. } => self.dead = true,
            State::Running(run) => {
                let _ = self.conn.send(&Message::Shutdown.encode());
                if let Some(sync) = run.sync {
                    ism.add_samples(run.id.node, sync);
                }
                self.state = State::Closing {
                    id: run.id,
                    deadline: Instant::now() + CLOSING_DRAIN,
                };
            }
            closing => self.state = closing,
        }
    }
}

/// Accept until the listener would block; each connection is metered and
/// joins the next pass's poll set. An accept error closes the listener:
/// the server accepts nothing more.
fn accept_pending(listener: &mut Option<Box<dyn Listener>>, ism: &Ism, peers: &mut Vec<Peer>) {
    while let Some(l) = listener.as_mut() {
        match l.try_accept() {
            Ok(Some(conn)) => peers.push(Peer::new(ism.conn_metrics.wrap(conn))),
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

/// The ISM: run passes until `stop` is set, then close the listener, shut
/// every running connection down, drain their final flushes, flush the
/// pipeline and report.
pub(crate) fn run(
    mut ism: Ism,
    poller: Poller,
    listener: Box<dyn Listener>,
    stop: &AtomicBool,
) -> Result<IsmReport> {
    let mut listener = Some(listener);
    let mut stopping = false;
    let mut peers: Vec<Peer> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Each peer's slot in `fds`; `None` for a peer read without
    // polling (or not read at all, if dead).
    let mut slots: Vec<Option<usize>> = Vec::new();
    loop {
        if !stopping && stop.load(Ordering::Acquire) {
            stopping = true;
            listener = None;
            for d in peers.iter_mut() {
                d.shut_down(&mut ism);
            }
        }
        if stopping && peers.is_empty() {
            break;
        }
        // Rounds and sync exchanges first, so a due poll goes out before
        // the loop sleeps; then greetings that never said Hello and drains
        // that ran out.
        let running = peers.iter().any(Peer::is_running);
        ism.step_rounds(&mut peers, running)?;
        let now = Instant::now();
        for d in peers.iter_mut().filter(|d| !d.dead) {
            d.advance_sync(&mut ism);
            d.dead = d.expired(now);
        }
        fds.clear();
        slots.clear();
        let listen_fd = listener.as_ref().map(|l| l.poll_fd());
        fds.extend(listen_fd.map(poll_in));
        let uplink = ism.core.upstream().and_then(|u| u.wait_fd()).map(|fd| {
            fds.push(poll_in(fd));
            fds.len() - 1
        });
        // Framed transports drain the kernel socket eagerly, so a frame
        // cap can leave whole frames in the userspace buffer with POLLIN
        // clear; such a connection is readable now, whatever poll says. A
        // killed link has no fd; its next recv fails at once. Either, or a
        // dead peer owed its sweep, means this pass must not sleep.
        let mut pass_now = false;
        for d in &peers {
            let fd = d
                .conn
                .poll_fd()
                .filter(|_| !d.dead && !d.conn.has_buffered());
            let slot = fd.map(|fd| {
                fds.push(poll_in(fd));
                fds.len() - 1
            });
            pass_now |= slot.is_none();
            slots.push(slot);
        }
        let timeout = if pass_now {
            Some(Duration::ZERO)
        } else {
            let (now, liveness) = (Instant::now(), ism.node_timeout);
            let deadlines = peers
                .iter()
                .filter_map(|d| d.next_deadline(liveness))
                .map(|at| at.saturating_duration_since(now));
            let due = [ism.pipeline_due_in(), ism.rounds_due_in(running)];
            deadlines.chain(due.into_iter().flatten()).min()
        };
        poller.wait(&mut fds, timeout).map_err(BriskError::Io)?;
        // Judge against the instant poll returned: whatever arrived while
        // the loop was busy in the core is read before anyone is judged.
        let now = Instant::now();
        for (d, slot) in peers.iter_mut().zip(&slots) {
            if d.dead {
                continue;
            }
            let ready = |s: usize| fds[s].revents & (POLLIN | POLLERR | POLLHUP) != 0;
            let frames = if slot.is_none_or(ready) {
                MAX_FRAMES_PER_PASS
            } else {
                0
            };
            for _ in 0..frames {
                match d.conn.recv(Some(Duration::ZERO)) {
                    Ok(Some(frame)) => {
                        d.heard = now;
                        if !d.on_frame(&frame, &mut ism) {
                            d.dead = true;
                            break;
                        }
                        // Between frames too, so a deep backlog cannot
                        // starve the tick.
                        ism.tick(false)?;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        d.dead = true;
                        break;
                    }
                }
            }
            if !d.dead {
                d.judge(now, &ism);
            }
        }
        peers.retain(|d| {
            if let (true, Some(node)) = (d.dead, d.node()) {
                ism.release(node);
            }
            !d.dead
        });
        if listen_fd.is_some() && fds[0].revents != 0 {
            accept_pending(&mut listener, &ism, &mut peers);
        }
        ism.tick(uplink.is_some_and(|s| fds[s].revents != 0))?;
    }
    ism.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{IsmHandle, IsmServer};
    use brisk_clock::SystemClock;
    use brisk_core::{EventRecord, EventTypeId, FlowConfig, SensorId};
    use brisk_lis::testkit::recv_msg;
    use brisk_net::{MemTransport, Transport};

    /// A spawned server over `MemTransport`, observed from its clients'
    /// side of the wire.
    struct Rig {
        transport: Arc<MemTransport>,
        handle: IsmHandle,
    }

    /// Credit 64, error budget 2, no node timeout, sync rounds out of the
    /// way.
    fn test_server() -> Rig {
        server_with(|_, _| {})
    }

    /// [`test_server`]'s settings, adjusted by `configure`.
    fn server_with(configure: impl FnOnce(&mut IsmConfig, &mut SyncConfig)) -> Rig {
        let mut cfg = IsmConfig {
            flow: FlowConfig {
                credit_records: 64,
                ..FlowConfig::default()
            },
            protocol_error_budget: 2,
            node_timeout: None,
            ..IsmConfig::default()
        };
        let mut sync = SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        };
        configure(&mut cfg, &mut sync);
        let transport = MemTransport::new();
        let server = IsmServer::new(cfg, sync, Arc::new(SystemClock)).unwrap();
        let handle = server.spawn(transport.listen("reactor").unwrap()).unwrap();
        Rig { transport, handle }
    }

    impl Rig {
        /// A fresh client connection, accepted by the server.
        fn client(&self) -> Box<dyn Connection> {
            self.transport.connect("reactor").unwrap()
        }

        /// Connect and say `Hello` as `node` at the current protocol
        /// version; returns the client end, its `HelloAck` consumed.
        fn greeted(&self, node: u32) -> Box<dyn Connection> {
            let mut client = self.client();
            client.send(&hello(node, brisk_proto::VERSION)).unwrap();
            assert!(matches!(recv_msg(&mut client), Message::HelloAck { .. }));
            client
        }

        fn quarantine(&self) -> &QuarantineLog {
            self.handle.quarantine()
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

    fn record(node: u32) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(9),
            vec![],
        )
        .unwrap()
    }

    /// True when the server closes `client` within 2 s without sending
    /// it anything more.
    fn dropped_silently(client: &mut Box<dyn Connection>) -> bool {
        client.recv(Some(Duration::from_secs(2))).is_err()
    }

    #[test]
    fn greets_pumps_batches_and_reports_disconnect() {
        let rig = test_server();
        let mut reader = rig.handle.memory().reader();
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
        // A batch enters the core and is acked on the same connection,
        // and every ack carries the server's credit grant.
        let rec = record(7);
        let batch = Message::EventBatch {
            node: NodeId(7),
            seq: Some(1),
            records: vec![rec.clone()],
        };
        client.send(&batch.encode()).unwrap();
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, credit: 64 }
        );
        // A heartbeat is liveness only: nothing answers it.
        client.send(&Message::Heartbeat.encode()).unwrap();
        assert!(client
            .recv(Some(Duration::from_millis(100)))
            .unwrap()
            .is_none());
        // Dropping the client ends its session and frees node 7 for a
        // successor.
        drop(client);
        let mut successor = rig.greeted(7);
        successor.send(&empty_batch(7, 2)).unwrap();
        assert_eq!(
            recv_msg(&mut successor),
            Message::BatchAck { seq: 2, credit: 64 }
        );
        let report = rig.handle.stop().unwrap();
        assert_eq!(report.core.records_in, 1);
        // The record came through untouched.
        assert_eq!(reader.poll().unwrap().0, vec![rec]);
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
            let rig = server_with(|cfg, _| cfg.flow.credit_records = grant);
            let mut client = rig.client();
            client.send(&hello(5, version)).unwrap();
            assert_eq!(recv_msg(&mut client), expect, "credit {grant}, v{version}");
            if version == v {
                // Connected: its batches are acked.
                client.send(&empty_batch(5, 1)).unwrap();
                assert_eq!(
                    recv_msg(&mut client),
                    Message::BatchAck {
                        seq: 1,
                        credit: grant
                    }
                );
                assert!(rig.quarantine().samples().is_empty());
            } else {
                assert!(dropped_silently(&mut client), "v{version} connected");
                let samples = rig.quarantine().samples();
                assert_eq!(samples.len(), 1);
                assert_eq!(samples[0].node, NodeId(5));
                assert!(samples[0].error.contains(&format!("version {version}")));
            }
            rig.handle.stop().unwrap();
        }
    }

    #[test]
    fn non_hello_greeting_is_dropped_without_a_pump() {
        let rig = test_server();
        for first_frame in [Message::Heartbeat, Message::Shutdown] {
            let mut client = rig.client();
            client.send(&first_frame.encode()).unwrap();
            assert!(dropped_silently(&mut client), "{first_frame:?} greeted");
        }
        assert!(rig.quarantine().samples().is_empty());
        rig.handle.stop().unwrap();
    }

    #[test]
    fn silent_greeting_is_dropped_at_the_deadline() {
        let rig = test_server();
        let mut client = rig.client();
        // Never say Hello: past the greeting deadline the connection is
        // closed, and it is told nothing (it never had an identity).
        let give_up = Instant::now() + GREETING_TIMEOUT + Duration::from_secs(3);
        let closed = loop {
            match client.recv(Some(Duration::from_millis(100))) {
                Err(_) => break true,
                Ok(Some(frame)) => panic!("told {:?}", Message::decode(&frame)),
                Ok(None) if Instant::now() > give_up => break false,
                Ok(None) => {}
            }
        };
        assert!(closed, "a peer that never greets must be dropped");
        rig.handle.stop().unwrap();
    }

    #[test]
    fn sync_round_runs_as_state_machine_while_batches_flow() {
        // Textbook Cristian corrects even a lone slave, so the round's
        // correction is visible on the wire.
        let rig = server_with(|_, sync| {
            sync.poll_period = Duration::from_millis(50);
            sync.samples_per_slave = 3;
            sync.original_cristian = true;
        });
        let mut client = rig.greeted(2);
        // Slave side: answer 3 polls from a clock 5 s behind, interleaving
        // a batch, which is acked while the round runs.
        const BEHIND_US: i64 = 5_000_000;
        let (mut answered, mut acked, mut poll_round) = (0, false, None);
        while answered < 3 {
            match recv_msg(&mut client) {
                Message::SyncPoll {
                    round,
                    sample,
                    master_send,
                } => {
                    assert_eq!(*poll_round.get_or_insert(round), round);
                    assert_eq!(sample, answered);
                    if answered == 1 {
                        client.send(&empty_batch(2, 1)).unwrap();
                    }
                    let reply = Message::SyncReply {
                        round,
                        sample,
                        master_send,
                        slave_time: UtcMicros::from_micros(master_send.as_micros() - BEHIND_US),
                    };
                    client.send(&reply.encode()).unwrap();
                    answered += 1;
                }
                Message::BatchAck { seq: 1, .. } => acked = true,
                other => panic!("unexpected {other:?}"),
            }
        }
        // The round closes on its third sample, and its correction reaches
        // the slave as a SyncAdjust.
        let advance = loop {
            match recv_msg(&mut client) {
                Message::BatchAck { seq: 1, .. } => acked = true,
                Message::SyncAdjust { round, advance_us } => {
                    assert_eq!(Some(round), poll_round);
                    break advance_us;
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        assert!(acked, "the batch sent mid-round was never acked");
        assert!(
            (BEHIND_US..BEHIND_US + 100_000).contains(&advance),
            "correction {advance} µs for a slave {BEHIND_US} µs behind"
        );
        let report = rig.handle.stop().unwrap();
        assert!(report.sync_rounds >= 1);
    }

    #[test]
    fn spoofed_or_unsequenced_batch_ends_the_connection() {
        let rig = test_server();
        // The connection said Hello as node 5; a batch claiming node 6 is
        // spoofed, and one without a seq can be neither acked nor
        // deduplicated. Either must end the connection without being
        // pushed, acked or quarantined.
        for seq in [Some(1), None] {
            let node = if seq.is_some() { 6 } else { 5 };
            let bad = Message::EventBatch {
                node: NodeId(node),
                seq,
                records: vec![record(node)],
            };
            let mut client = rig.greeted(5);
            client.send(&bad.encode()).unwrap();
            assert!(dropped_silently(&mut client), "bad batch {seq:?} kept");
        }
        assert_eq!(rig.quarantine().frames(), 0);
        let report = rig.handle.stop().unwrap();
        assert_eq!(report.core.records_in, 0);
    }

    #[test]
    fn a_half_open_peer_is_evicted_while_others_heartbeat() {
        let rig = server_with(|cfg, _| cfg.node_timeout = Some(Duration::from_millis(300)));
        let mut silent = rig.greeted(5);
        let mut chatty: Vec<_> = (6..8).map(|node| rig.greeted(node)).collect();
        let give_up = Instant::now() + Duration::from_secs(3);
        let mut evicted = false;
        while !evicted && Instant::now() < give_up {
            for peer in chatty.iter_mut() {
                peer.send(&Message::Heartbeat.encode()).unwrap();
            }
            evicted = match silent.recv(Some(Duration::from_millis(20))) {
                Ok(Some(frame)) => Message::decode(&frame).unwrap() == Message::Shutdown,
                _ => false,
            };
        }
        assert!(evicted, "a silent peer must be evicted");
        assert!(dropped_silently(&mut silent));
        // The heartbeating peers kept their sessions through the same
        // passes.
        for peer in chatty.iter_mut() {
            assert!(peer
                .recv(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none());
        }
        rig.handle.stop().unwrap();
    }

    #[test]
    fn stop_shuts_running_connections_down_and_drains_their_final_flush() {
        let rig = test_server();
        let mut client = rig.greeted(3);
        let Rig { handle, .. } = rig;
        let stopping = std::thread::spawn(move || handle.stop().unwrap());
        assert_eq!(recv_msg(&mut client), Message::Shutdown);
        // The EXS's final flush still enters the core, unacked, before it
        // hangs up.
        let last = Message::EventBatch {
            node: NodeId(3),
            seq: Some(1),
            records: vec![record(3)],
        };
        client.send(&last.encode()).unwrap();
        // It is past acks: nothing the server sends before it hangs up at
        // the end of the drain is a BatchAck.
        loop {
            match client.recv(Some(CLOSING_DRAIN * 2)) {
                Ok(Some(frame)) => {
                    if let Ok(Message::BatchAck { seq, .. }) = Message::decode(&frame) {
                        panic!("batch {seq} acked while closing");
                    }
                }
                Ok(None) => panic!("the closing drain never ended"),
                Err(_) => break,
            }
        }
        let report = stopping.join().unwrap();
        assert_eq!(report.core.records_in, 1);
    }

    /// A batch frame of `records` from `node`, and the same frame with
    /// garbage after its 20-byte header (tag, node, seq, count): the
    /// header reads, no record decodes.
    fn batch_and_corrupt(node: u32, seq: u64) -> (Vec<u8>, Vec<u8>) {
        let good = Message::EventBatch {
            node: NodeId(node),
            seq: Some(seq),
            records: vec![record(node)],
        }
        .encode();
        let mut corrupt = good.clone();
        corrupt[20..].fill(0xff);
        (good, corrupt)
    }

    #[test]
    fn an_undecodable_batch_leaves_its_seq_unadmitted() {
        let rig = test_server();
        let mut client = rig.greeted(5);
        let (good, corrupt) = batch_and_corrupt(5, 1);
        // The corrupt seq 1 is quarantined unacked and enters nothing, so
        // the intact seq 1 after it is fresh, not a replay: it is acked
        // once, and its record enters the core.
        client.send(&corrupt).unwrap();
        client.send(&good).unwrap();
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, credit: 64 }
        );
        assert!(client
            .recv(Some(Duration::from_millis(200)))
            .unwrap()
            .is_none());
        assert_eq!(rig.quarantine().frames(), 1);
        let report = rig.handle.stop().unwrap();
        assert_eq!(report.core.records_in, 1);
        assert_eq!(report.core.duplicate_batches, 0);
    }

    #[test]
    fn a_corrupt_replay_is_acked_as_a_replay() {
        let rig = test_server();
        let mut client = rig.greeted(5);
        let (good, corrupt) = batch_and_corrupt(5, 1);
        client.send(&good).unwrap();
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, credit: 64 }
        );
        // A replay is dropped on its header alone, so its body is never
        // read: acked, counted as a duplicate, never quarantined.
        client.send(&corrupt).unwrap();
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, credit: 64 }
        );
        assert_eq!(rig.quarantine().frames(), 0);
        let report = rig.handle.stop().unwrap();
        assert_eq!(report.core.records_in, 1);
        assert_eq!(report.core.duplicate_batches, 1);
    }

    #[test]
    fn batches_sent_before_a_hang_up_all_enter_the_core() {
        // The first delivery stalls the loop while the peer sends two more
        // batches and hangs up, so both acks fail to send.
        let transport = MemTransport::new();
        let sync = SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        };
        let mut server = IsmServer::new(IsmConfig::default(), sync, Arc::new(SystemClock)).unwrap();
        let mut stalled = false;
        let stall = move |_: &EventRecord| {
            if !std::mem::replace(&mut stalled, true) {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(())
        };
        server.core_mut().add_sink(Box::new(stall));
        let rig = Rig {
            handle: server.spawn(transport.listen("reactor").unwrap()).unwrap(),
            transport,
        };
        let mut client = rig.greeted(4);
        let batch = |seq| Message::EventBatch {
            node: NodeId(4),
            seq: Some(seq),
            records: vec![record(4)],
        };
        client.send(&batch(1).encode()).unwrap();
        assert!(matches!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, .. }
        ));
        client.send(&batch(2).encode()).unwrap();
        client.send(&batch(3).encode()).unwrap();
        drop(client);
        let report = rig.handle.stop().unwrap();
        assert_eq!(report.core.records_in, 3);
    }

    #[test]
    fn malformed_frames_are_quarantined_within_budget() {
        let rig = test_server();
        let mut client = rig.greeted(5);
        // Two garbage frames fit inside the budget: the connection lives
        // and a valid batch still flows afterwards.
        client.send(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        client.send(b"not a brisk frame").unwrap();
        client.send(&empty_batch(5, 1)).unwrap();
        assert_eq!(
            recv_msg(&mut client),
            Message::BatchAck { seq: 1, credit: 64 },
            "batch must survive quarantined garbage"
        );
        assert_eq!(rig.quarantine().frames(), 2);
        assert_eq!(rig.quarantine().disconnects(), 0);
        // The third garbage frame exhausts the budget: disconnect.
        client.send(&[0xff; 8]).unwrap();
        assert!(dropped_silently(&mut client));
        assert_eq!(rig.quarantine().frames(), 3);
        assert_eq!(rig.quarantine().disconnects(), 1);
        let samples = rig.quarantine().samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].node, NodeId(5));
        assert_eq!(samples[0].head_hex, "deadbeef");
        assert!(!samples[0].error.is_empty());
        rig.handle.stop().unwrap();
    }

    #[test]
    fn zero_budget_drops_connection_on_first_bad_frame() {
        let rig = server_with(|cfg, _| cfg.protocol_error_budget = 0);
        let mut client = rig.greeted(5);
        client.send(&[0x00]).unwrap();
        assert!(dropped_silently(&mut client));
        assert_eq!(rig.quarantine().frames(), 1);
        assert_eq!(rig.quarantine().disconnects(), 1);
        rig.handle.stop().unwrap();
    }
}
