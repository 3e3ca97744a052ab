//! The ISM's session machine: every decision of the paper's one `select`
//! loop (§3.5) and none of its I/O. `server.rs` drives it from one
//! `poll(2)`; brisk-sim drives it under simulated time, so E6 and A1
//! measure the product's sync rounds.
//!
//! Inputs carry the caller's monotonic `now`: a connection accepted
//! ([`Ism::accept`], which names it by a [`PeerId`]), a frame
//! ([`Ism::on_frame`]), a hang-up ([`Ism::on_closed`]), a relay's upstream
//! frame ([`Ism::on_upstream`]), stop ([`Ism::stop`]) and time itself
//! ([`Ism::advance`]). Outputs are frames to send and connections to
//! close ([`Ism::drain_outputs`]) and one next deadline, which
//! [`Ism::advance`] returns: the earliest of each peer's (greeting,
//! closing drain, sync sample, liveness), the pipeline's
//! ([`IsmCore::due_in`], at least `COALESCE_WINDOW` after the last tick),
//! the sync rounds', the upstream link's (heartbeat or next dial) and the
//! stop's. What is due is acted on there and nowhere else.
//!
//! A greeted connection's frame is decided in `Peer::on_frame`: a batch
//! goes into [`IsmCore::push_frame`], its only walk, and its `BatchAck`,
//! which re-advertises the credit grant, is output at once; the pipeline
//! then ticks if it is due. A node id is served by one connection at a
//! time: a second `Hello` for a claimed node is refused, and the claim
//! is released when its connection ends. A running connection silent for
//! `node_timeout` is told `Shutdown` and closed; the driver advances the
//! machine to the instant `poll` returned, after reading what arrived
//! meanwhile, so time spent inside the core is never a peer's silence.
//!
//! A sync round starts every `poll_period` while a connection runs, or at
//! once after a tachyon repair asked for one. Every running connection
//! runs its exchange (`SyncState`) concurrently, one `SyncPoll` at a time,
//! each lost after `SAMPLE_TIMEOUT`. The round closes when every
//! exchange is in, or at `ROUND_DEADLINE` with what arrived, and sends
//! its corrections as `SyncAdjust`s, and every exchange of the round ends
//! with it.
//!
//! Stop is machine state too. Running connections are told `Shutdown` and
//! drain for `CLOSING_DRAIN`; once none is left, a relay drains its sorter
//! into the exporter, ships the final batch and waits until the parent
//! acks the window, the link is lost, or `UPSTREAM_DRAIN` passes. Then
//! [`Ism::stopped`] holds and [`Ism::finish`] reports, with no I/O.

use crate::core::IsmCore;
use crate::quarantine::QuarantineLog;
use crate::relay::UpstreamExporter;
use crate::server::IsmReport;
use brisk_clock::{Clock, SkewSample, SyncMaster};
use brisk_core::{IsmConfig, NodeId, Result, SyncConfig, UtcMicros};
use brisk_lis::uplink::Uplink;
use brisk_proto::{BatchWalk, Message};
use brisk_telemetry::Registry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a fresh connection may sit without completing its `Hello`.
const GREETING_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a shut-down connection keeps draining late batches.
const CLOSING_DRAIN: Duration = Duration::from_secs(2);
/// How long one `SyncPoll` waits for its reply before the sample is lost.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a stopping relay waits for its parent to ack its final
/// batches.
pub(crate) const UPSTREAM_DRAIN: Duration = Duration::from_secs(2);
/// How long the master waits for all slaves' samples before closing a
/// round with whatever arrived.
const ROUND_DEADLINE: Duration = Duration::from_secs(2);
/// The shortest gap between two ticks. In a steady stream each record
/// falls due a few microseconds after the last; ticks this far apart
/// release them together, at most this late, where a tick per due time
/// would cost a wakeup (and a telemetry publish) per record.
const COALESCE_WINDOW: Duration = Duration::from_millis(1);

brisk_telemetry::metrics! {
    /// The session series: the machine counts evictions, the driver the
    /// acks it sent ([`Ism::acked`]).
    struct LoopCells {
        acks_sent: counter "brisk_ism_acks_sent_total" "Batch acknowledgements sent to external sensors",
        credit_grants: counter "brisk_ism_credit_grants_total" "Credit replenishments piggybacked on batch acknowledgements",
        grant_latency: histogram "brisk_ism_grant_latency_us" "Microseconds from reading a batch frame to sending its acknowledgement",
        evicted: counter "brisk_ism_evicted_nodes_total" "Nodes evicted after going silent past the liveness timeout",
    }
}

/// A connection as the machine knows it. [`Ism::accept`] hands one out,
/// and every later input and output about that connection names it. An
/// id is reused once its connection is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerId(pub(crate) usize);

/// What the machine asks of its driver, in the order it decided it.
#[derive(Debug)]
pub enum Output<'a> {
    /// Send `frame` on the peer's connection. A failed send does not end
    /// the connection: the frames the peer sent before it hung up are
    /// still read, and the read that finds the hang-up ends it.
    Send {
        /// The peer.
        to: PeerId,
        /// One encoded message.
        frame: &'a [u8],
        /// The message is a batch's acknowledgement.
        ack: bool,
    },
    /// Close the peer's connection; the machine has forgotten the peer.
    Close(PeerId),
}

enum Queued {
    Send(PeerId, Range<usize>, bool),
    Close(PeerId),
}

/// Outputs not yet drained. Their frames share one buffer, reused, so an
/// output costs no allocation.
#[derive(Default)]
struct Outbox {
    frames: Vec<u8>,
    queued: Vec<Queued>,
}

impl Outbox {
    fn send(&mut self, to: PeerId, msg: &Message) {
        let start = self.frames.len();
        msg.encode_into(&mut self.frames);
        let ack = matches!(msg, Message::BatchAck { .. });
        self.queued
            .push(Queued::Send(to, start..self.frames.len(), ack));
    }
}

/// The ISM's session machine: its peers, and everything else it owns.
pub struct Ism {
    /// Indexed by [`PeerId`]; `None` is a free id.
    peers: Vec<Option<Peer>>,
    pub(crate) hub: Hub,
}

/// Everything the machine owns but its peers: the pipeline, the sync
/// master, the session policy, the node claims and the outbox.
pub(crate) struct Hub {
    pub(crate) core: IsmCore,
    sync: SyncMaster,
    /// Master clock for receive stamps and sync exchanges.
    clock: Arc<dyn Clock>,
    cells: Arc<LoopCells>,
    /// Malformed-frame quarantine across all connections.
    pub(crate) quarantine: Arc<QuarantineLog>,
    /// The credit grant every `HelloAck` and `BatchAck` carries.
    credit: u64,
    /// Undecodable frames tolerated per connection before disconnect.
    error_budget: u32,
    /// Evict a running connection silent this long (`None`: never).
    node_timeout: Option<Duration>,
    /// The node ids a live connection serves, and which. Two connections
    /// stamping one node id would interleave batches, corrupt per-node
    /// sequence tracking and let a misconfigured sensor hijack another's
    /// stream.
    claims: HashMap<NodeId, PeerId>,
    round: Option<RoundInFlight>,
    /// The master clock's reading at the last tick.
    last_tick: UtcMicros,
    last_round_finished: Duration,
    out: Outbox,
    /// Set by [`Ism::stop`].
    stop: Option<Stop>,
}

/// How far a stop has come.
#[derive(Clone, Copy)]
enum Stop {
    /// Shut-down connections drain their EXS's final flushes.
    Downstream,
    /// A relay's final batches wait for the parent's acks.
    Upstream { deadline: Duration },
    /// Nothing is left to wait for.
    Done,
}

struct RoundInFlight {
    round: u64,
    expected: HashSet<NodeId>,
    started: Duration,
}

impl Ism {
    /// A machine with no peers; its time starts at zero.
    pub fn new(cfg: IsmConfig, sync_cfg: SyncConfig, clock: Arc<dyn Clock>) -> Result<Ism> {
        let (credit, error_budget) = (cfg.flow.credit_records, cfg.protocol_error_budget);
        let node_timeout = cfg.node_timeout;
        let hub = Hub {
            core: IsmCore::new(cfg)?,
            sync: SyncMaster::new(sync_cfg)?,
            clock,
            cells: Arc::default(),
            quarantine: QuarantineLog::new(),
            credit,
            error_budget,
            node_timeout,
            claims: HashMap::new(),
            round: None,
            last_tick: UtcMicros::ZERO,
            last_round_finished: Duration::ZERO,
            out: Outbox::default(),
            stop: None,
        };
        Ok(Ism {
            peers: Vec::new(),
            hub,
        })
    }

    /// Bind the core pipeline, the sync master, the quarantine and the
    /// session series to `registry`.
    pub(crate) fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        let hub = &mut self.hub;
        hub.core.bind_telemetry(registry);
        hub.sync.bind_telemetry(registry);
        hub.quarantine.bind_telemetry(registry);
        hub.cells.register(registry, &[]);
    }

    /// Synchronization rounds completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.hub.sync.rounds_completed()
    }

    /// A connection was accepted at `now`: it has `GREETING_TIMEOUT` to
    /// say `Hello`.
    pub fn accept(&mut self, now: Duration) -> PeerId {
        let free = self.peers.iter().position(Option::is_none);
        let id = PeerId(free.unwrap_or_else(|| {
            self.peers.push(None);
            self.peers.len() - 1
        }));
        let deadline = now + GREETING_TIMEOUT;
        let (state, heard) = (State::Greeting { deadline }, now);
        self.peers[id.0] = Some(Peer { id, state, heard });
        id
    }

    /// A frame arrived from `id` at `now`; the pipeline then ticks if it
    /// is due.
    pub fn on_frame(&mut self, id: PeerId, frame: &[u8], now: Duration) -> Result<()> {
        let Ism { peers, hub } = self;
        if let Some(slot) = peers.get_mut(id.0) {
            let ended = slot.as_mut().is_some_and(|peer| {
                peer.heard = now;
                !peer.on_frame(frame, hub)
            });
            if ended {
                hub.forget(slot, true);
            }
        }
        hub.tick_if_due(now)
    }

    /// `id`'s connection ended: its node is free for a successor.
    pub fn on_closed(&mut self, id: PeerId) {
        if let Some(slot) = self.peers.get_mut(id.0) {
            self.hub.forget(slot, false);
        }
    }

    /// A frame arrived on a relay's upstream link at `now`: the exporter
    /// applies it, and the pipeline ticks at once, so a parent's ack
    /// releases parked records in the same pass.
    pub fn on_upstream(&mut self, frame: &[u8], now: Duration) -> Result<()> {
        if let Some(up) = self.hub.core.upstream_mut() {
            up.on_frame(frame, now);
        }
        self.hub.tick()
    }

    /// A relay's upstream link, a machine of its own: [`Ism::advance`]
    /// advances it, and the driver carries out its outputs and reports
    /// it up and down.
    pub fn upstream(&mut self) -> Option<&mut Uplink> {
        self.hub.core.upstream_mut().map(UpstreamExporter::uplink)
    }

    /// The server is stopping: a greeting is closed; a running connection
    /// is told `Shutdown`, hands the master what its sync exchange
    /// collected (to the master, samples lost to teardown look like
    /// samples lost to timeouts) and drains the EXS's final flush for up
    /// to `CLOSING_DRAIN`. Then a relay drains upstream ([`Ism::advance`]).
    pub fn stop(&mut self, now: Duration) {
        let Ism { peers, hub } = self;
        hub.stop = Some(Stop::Downstream);
        for slot in peers.iter_mut() {
            if slot.as_mut().is_some_and(|peer| !peer.shut_down(now, hub)) {
                hub.forget(slot, true);
            }
        }
    }

    /// Do everything due at `now` and return the next deadline (`None`:
    /// nothing is pending until input). In order: tick the pipeline; act
    /// on each peer's passed deadline; start a round, advance every
    /// exchange and close the round; move a stop on; heartbeat or dial
    /// upstream.
    pub fn advance(&mut self, now: Duration) -> Result<Option<Duration>> {
        let Ism { peers, hub } = self;
        hub.tick_if_due(now)?;
        for slot in peers.iter_mut() {
            let Some(peer) = slot else { continue };
            let due = peer.deadline(hub.node_timeout).is_some_and(|at| now >= at);
            if due && !peer.on_deadline(now, hub) {
                hub.forget(slot, true);
            }
        }
        let running = peers.iter().flatten().any(Peer::is_running);
        let extra = hub.core.take_extra_sync_request();
        let due = |hub: &Hub| hub.rounds_deadline(running).is_some_and(|at| now >= at);
        if hub.round.is_none() && running && (extra || due(hub)) {
            hub.begin_round(peers, now);
        }
        for peer in peers.iter_mut().flatten() {
            peer.advance_sync(now, hub);
        }
        if hub.round.is_some() && due(hub) {
            hub.close_round(peers, now)?;
        }
        let stop = hub.advance_stop(peers, now)?;
        let upstream = match (hub.stop, hub.core.upstream_mut()) {
            (Some(Stop::Done), _) | (_, None) => None,
            (_, Some(up)) => up.uplink().advance(now),
        };
        let peer_deadlines = peers.iter().flatten();
        let peer_deadlines = peer_deadlines.filter_map(|p| p.deadline(hub.node_timeout));
        Ok(peer_deadlines
            .chain(hub.pipeline_deadline(now))
            .chain(hub.rounds_deadline(running))
            .chain(stop)
            .chain(upstream)
            .min())
    }

    /// True once a stop has nothing left to wait for: the driver may
    /// [`Ism::finish`].
    pub fn stopped(&self) -> bool {
        matches!(self.hub.stop, Some(Stop::Done))
    }

    /// Hand every output decided since the last drain to `f`, in order.
    pub fn drain_outputs(&mut self, mut f: impl FnMut(Output<'_>)) {
        let Outbox { frames, queued } = &mut self.hub.out;
        for q in queued.drain(..) {
            f(match q {
                Queued::Send(to, range, ack) => Output::Send {
                    to,
                    frame: &frames[range],
                    ack,
                },
                Queued::Close(to) => Output::Close(to),
            });
        }
        frames.clear();
    }

    /// The driver sent a batch's acknowledgement `waited` after reading
    /// the batch.
    pub(crate) fn acked(&self, waited: Duration) {
        let cells = &self.hub.cells;
        cells.acks_sent.fetch_add(1, Ordering::Relaxed);
        cells.credit_grants.fetch_add(1, Ordering::Relaxed);
        cells.grant_latency.record(waited.as_micros() as u64);
    }

    /// Collect the final report. A stop has flushed every held record by
    /// the time no peer is left ([`Ism::advance`]); a machine finished
    /// before that flushes them here. A relay's final batches are left
    /// in its window unsent unless a stop drained them
    /// ([`Ism::stopped`]).
    pub fn finish(self) -> Result<IsmReport> {
        let drained = matches!(self.hub.stop, Some(Stop::Upstream { .. } | Stop::Done));
        let Hub { mut core, sync, .. } = self.hub;
        if !drained {
            core.drain_all()?;
        }
        Ok(IsmReport {
            core: core.stats(),
            sorter: core.sorter_stats(),
            cre: core.cre_stats(),
            sync_rounds: sync.rounds_completed(),
            last_sync: sync.last_outcome().cloned(),
            relay: core.upstream().map(|u| u.stats()),
        })
    }
}

impl Hub {
    /// When the pipeline must tick: [`IsmCore::due_in`] from `now`, but no
    /// sooner than `COALESCE_WINDOW` after the last tick, both read off
    /// the master clock as distances from `now`. `None` when nothing is
    /// pending.
    fn pipeline_deadline(&self, now: Duration) -> Option<Duration> {
        let clock = self.clock.now();
        let due = self.core.due_in(clock)?;
        let since_tick = clock.micros_since(self.last_tick).max(0) as u64;
        let coalesce = COALESCE_WINDOW.saturating_sub(Duration::from_micros(since_tick));
        Some(now + due.max(coalesce))
    }

    /// Move a stop on at `now`; returns the upstream drain's deadline
    /// while it runs. Once no peer is left, the sorter drains: into the
    /// local outputs, or a relay's exporter, which ships its final batch
    /// and waits for the parent's acks until `UPSTREAM_DRAIN` has passed.
    fn advance_stop(&mut self, peers: &[Option<Peer>], now: Duration) -> Result<Option<Duration>> {
        if matches!(self.stop, Some(Stop::Downstream)) && peers.iter().all(Option::is_none) {
            self.core.drain_all()?;
            self.stop = Some(match self.core.upstream() {
                Some(_) => Stop::Upstream {
                    deadline: now + UPSTREAM_DRAIN,
                },
                None => Stop::Done,
            });
        }
        let (Some(Stop::Upstream { deadline }), Some(up)) = (self.stop, self.core.upstream())
        else {
            return Ok(None);
        };
        if !up.drained() && now < deadline {
            return Ok(Some(deadline));
        }
        up.note_stopped();
        self.stop = Some(Stop::Done);
        Ok(None)
    }

    fn tick_if_due(&mut self, now: Duration) -> Result<()> {
        match self.pipeline_deadline(now) {
            Some(at) if now >= at => self.tick(),
            _ => Ok(()),
        }
    }

    fn tick(&mut self) -> Result<()> {
        self.last_tick = self.clock.now();
        self.core.tick(self.last_tick)?;
        Ok(())
    }

    /// When the rounds need the machine: the open round's close, at once
    /// when every expected slave reported, else at its deadline; or,
    /// while a connection is `running`, the next periodic round. A
    /// tachyon repair's request is taken when it is raised.
    fn rounds_deadline(&self, running: bool) -> Option<Duration> {
        match &self.round {
            Some(r) if r.expected.is_empty() => Some(r.started),
            Some(r) => Some(r.started + ROUND_DEADLINE),
            None => running.then(|| self.last_round_finished + self.sync.config().poll_period),
        }
    }

    /// Start a round: every running connection begins its poll exchange.
    fn begin_round(&mut self, peers: &mut [Option<Peer>], now: Duration) {
        let round = self.sync.begin_round();
        let samples = self.sync.samples_per_slave() as u32;
        let mut expected = HashSet::new();
        for peer in peers.iter_mut().flatten() {
            if let State::Running(run) = &mut peer.state {
                run.sync = Some(SyncState::new(round, samples));
                expected.insert(run.id.node);
            }
        }
        self.round = Some(RoundInFlight {
            round,
            expected,
            started: now,
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

    /// Close the open round, end every exchange of it (a silent slave is
    /// polled no more) and send each correction as a `SyncAdjust`.
    fn close_round(&mut self, peers: &mut [Option<Peer>], now: Duration) -> Result<()> {
        let closed = self.round.take().map(|r| r.round);
        for peer in peers.iter_mut().flatten() {
            if let State::Running(run) = &mut peer.state {
                if run.sync.as_ref().map(|s| s.round) == closed {
                    run.sync = None;
                }
            }
        }
        self.last_round_finished = now;
        let outcome = self.sync.finish_round()?;
        let round = self.sync.rounds_completed();
        for c in &outcome.corrections {
            let Some(&id) = self.claims.get(&c.node) else {
                continue;
            };
            if peers[id.0].as_ref().is_some_and(Peer::is_running) {
                let advance_us = c.advance_us;
                self.out
                    .send(id, &Message::SyncAdjust { round, advance_us });
            }
        }
        Ok(())
    }

    /// Forget the peer in `slot`: its node is free for a successor and no
    /// longer owes the open round its samples. `close` when the machine
    /// ended the connection, so the driver closes it.
    fn forget(&mut self, slot: &mut Option<Peer>, close: bool) {
        let Some(peer) = slot.take() else {
            return;
        };
        if let Some(node) = peer.node() {
            self.claims.remove(&node);
            if let Some(r) = &mut self.round {
                r.expected.remove(&node);
            }
        }
        if close {
            self.out.queued.push(Queued::Close(peer.id));
        }
    }
}

/// One in-flight clock-sync exchange.
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
    deadline: Duration,
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
    fn quarantine(&mut self, hub: &Hub, frame: &[u8], error: &dyn std::fmt::Display) -> bool {
        self.errors += 1;
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            "quarantine",
            "node {} frame of {} bytes quarantined: {error}",
            self.node,
            frame.len()
        );
        hub.quarantine.record(self.node, frame, &error.to_string());
        if self.errors <= hub.error_budget {
            return true;
        }
        hub.quarantine.note_disconnect();
        brisk_telemetry::flight_log!(
            Error,
            "ism.reactor",
            "quarantine_disconnect",
            "node {} dropped after {} undecodable frames (budget {})",
            self.node,
            self.errors,
            hub.error_budget
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
    Greeting { deadline: Duration },
    /// Greeted; batches, heartbeats and sync exchanges flow.
    Running(Running),
    /// `Shutdown` sent; draining the EXS's final flush so no records are
    /// lost at teardown.
    Closing { id: Identity, deadline: Duration },
}

struct Peer {
    id: PeerId,
    state: State,
    /// The `now` of its last frame: a running connection's silence counts
    /// from here.
    heard: Duration,
}

impl Peer {
    fn is_running(&self) -> bool {
        matches!(self.state, State::Running(_))
    }

    /// The node an identified connection serves.
    fn node(&self) -> Option<NodeId> {
        match &self.state {
            State::Running(run) => Some(run.id.node),
            State::Closing { id, .. } => Some(id.node),
            State::Greeting { .. } => None,
        }
    }

    /// When this peer next needs the machine: its greeting's or closing
    /// drain's end or, while running, its outstanding sync sample's
    /// timeout and its liveness limit (`liveness` after its last frame).
    fn deadline(&self, liveness: Option<Duration>) -> Option<Duration> {
        match &self.state {
            State::Greeting { deadline } | State::Closing { deadline, .. } => Some(*deadline),
            State::Running(run) => {
                let sample = run.sync.as_ref().and_then(|s| s.outstanding.as_ref());
                let silent = liveness.map(|t| self.heard + t);
                sample.map(|o| o.deadline).into_iter().chain(silent).min()
            }
        }
    }

    /// This peer's deadline passed at `now`; `false` when the connection
    /// ends. A greeting that never said `Hello` and a drain that ran out
    /// end. A running connection silent for the node timeout is told
    /// `Shutdown` and ends; otherwise its outstanding sync sample is lost
    /// and its exchange moves on.
    fn on_deadline(&mut self, now: Duration, hub: &mut Hub) -> bool {
        let State::Running(run) = &mut self.state else {
            return false;
        };
        if let Some(timeout) = hub.node_timeout.filter(|&t| now >= self.heard + t) {
            brisk_telemetry::flight_log!(
                Warn,
                "ism.reactor",
                "node_evicted",
                "node {} evicted: no frame for over {timeout:?}",
                run.id.node
            );
            hub.cells.evicted.fetch_add(1, Ordering::Relaxed);
            hub.out.send(self.id, &Message::Shutdown);
            return false;
        }
        if let Some(sync) = &mut run.sync {
            sync.outstanding = None;
        }
        true
    }

    /// Advance the sync exchange: send the next poll once the last one
    /// is answered or lost, and hand the master the samples when the
    /// exchange is done.
    fn advance_sync(&mut self, now: Duration, hub: &mut Hub) {
        let State::Running(run) = &mut self.state else {
            return;
        };
        let Some(sync) = &mut run.sync else {
            return;
        };
        if sync.outstanding.is_some() {
            return;
        }
        if sync.next_sample < sync.total {
            let (sample, t0) = (sync.next_sample, hub.clock.now());
            let poll = Message::SyncPoll {
                round: sync.round,
                sample,
                master_send: t0,
            };
            hub.out.send(self.id, &poll);
            sync.next_sample += 1;
            sync.outstanding = Some(Outstanding {
                sample,
                t0,
                deadline: now + SAMPLE_TIMEOUT,
            });
        } else if let Some(done) = run.sync.take() {
            hub.add_samples(run.id.node, done);
        }
    }

    /// Handle one inbound frame; `false` when the connection is done. For
    /// a greeted connection this is the one place that decides what a
    /// frame does:
    ///
    /// - a batch whose header names this connection's node and carries a
    ///   seq goes to [`IsmCore::push_frame`] and, while `Running`, is acked
    ///   — a replay too, as its earlier ack died with the old connection.
    ///   A `Closing` connection's batch enters unacked;
    /// - a `SyncReply` feeds the exchange and a `Heartbeat` is liveness
    ///   only, which [`Ism::on_frame`] already noted;
    /// - `Shutdown`, or any other message, ends the connection;
    /// - an undecodable frame, a batch that fails to decode included, is
    ///   quarantined against the error budget.
    fn on_frame(&mut self, frame: &[u8], hub: &mut Hub) -> bool {
        let me = self.id;
        let (id, sync, acks) = match &mut self.state {
            State::Greeting { .. } => return self.greet(frame, hub),
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
                    // exchange decides whether it matches.
                    if let Some(sync) = sync {
                        sync.on_reply(round, sample, slave_time, hub.clock.now());
                    }
                    true
                }
                Ok(Message::Heartbeat) => true,
                Ok(_) => false,
                Err(e) => id.quarantine(hub, frame, &e),
            };
        }
        let walk = match BatchWalk::new(frame) {
            Ok(walk) => walk,
            Err(e) => return id.quarantine(hub, frame, &e),
        };
        let header = walk.header();
        // The connection authenticated as `id.node` in the handshake; a
        // batch claiming another origin is spoofed (or a badly confused
        // client): end the connection rather than pollute another node's
        // event stream. A batch without a seq could be neither
        // deduplicated nor acked: same verdict.
        let (true, Some(seq)) = (header.node == id.node, header.seq) else {
            return false;
        };
        let now = hub.clock.now();
        if let Err(e) = hub.core.push_frame(id.node, seq, walk, now, now) {
            return id.quarantine(hub, frame, &e);
        }
        if acks {
            let credit = hub.credit;
            hub.out.send(me, &Message::BatchAck { seq, credit });
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
    fn greet(&mut self, frame: &[u8], hub: &mut Hub) -> bool {
        let Ok(Message::Hello { node, version }) = Message::decode(frame) else {
            return false;
        };
        if version != brisk_proto::VERSION {
            let reason = format!(
                "Hello version {version} refused: this ISM speaks only v{}",
                brisk_proto::VERSION
            );
            return self.refuse(hub, node, frame, "unsupported_hello", &reason);
        }
        if hub.claims.contains_key(&node) {
            hub.quarantine.note_rejected_hello();
            let reason = "duplicate Hello: node already active";
            return self.refuse(hub, node, frame, "duplicate_hello", reason);
        }
        let credit = hub.credit;
        hub.out
            .send(self.id, &Message::HelloAck { version, credit });
        hub.claims.insert(node, self.id);
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
        hub: &mut Hub,
        node: NodeId,
        frame: &[u8],
        event: &'static str,
        reason: &str,
    ) -> bool {
        hub.quarantine.record(node, frame, reason);
        brisk_telemetry::flight_log!(
            Warn,
            "ism.reactor",
            event,
            "rejected Hello for node {node}: {reason}"
        );
        hub.out.send(self.id, &Message::Shutdown);
        false
    }

    /// The server is stopping; `false` for a greeting, which is dropped.
    /// See [`Ism::stop`].
    fn shut_down(&mut self, now: Duration, hub: &mut Hub) -> bool {
        let placeholder = State::Greeting { deadline: now };
        match std::mem::replace(&mut self.state, placeholder) {
            State::Greeting { .. } => return false,
            State::Running(run) => {
                hub.out.send(self.id, &Message::Shutdown);
                if let Some(sync) = run.sync {
                    hub.add_samples(run.id.node, sync);
                }
                self.state = State::Closing {
                    id: run.id,
                    deadline: now + CLOSING_DRAIN,
                };
            }
            closing => self.state = closing,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::{SimClock, SimTimeSource, SystemClock};
    use brisk_core::{EventRecord, EventTypeId, ExsConfig, FlowConfig, SensorId};
    use brisk_lis::uplink::LinkOutput;
    use brisk_lis::{ExternalSensor, Lis};
    use std::collections::VecDeque;

    /// A machine fed by hand, with no thread and no sleep: time moves only
    /// when a test moves it, and every output is kept, decoded, per peer.
    struct Rig {
        ism: Ism,
        now: Duration,
        sent: HashMap<usize, Vec<Message>>,
        closed: Vec<PeerId>,
    }

    /// Credit 64, error budget 2, no node timeout, sync rounds out of the
    /// way.
    fn rig() -> Rig {
        rig_with(|_, _| {})
    }

    /// [`rig`]'s settings, adjusted by `configure`.
    fn rig_with(configure: impl FnOnce(&mut IsmConfig, &mut SyncConfig)) -> Rig {
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
        Rig {
            ism: Ism::new(cfg, sync, Arc::new(SystemClock)).unwrap(),
            now: Duration::ZERO,
            sent: HashMap::new(),
            closed: Vec::new(),
        }
    }

    impl Rig {
        fn drain(&mut self) {
            let Rig { sent, closed, .. } = self;
            self.ism.drain_outputs(|out| match out {
                Output::Send { to, frame, .. } => {
                    let msg = Message::decode(frame).unwrap();
                    sent.entry(to.0).or_default().push(msg);
                }
                Output::Close(to) => closed.push(to),
            });
        }

        fn accept(&mut self) -> PeerId {
            let id = self.ism.accept(self.now);
            self.closed.retain(|&c| c != id);
            id
        }

        fn frame(&mut self, id: PeerId, frame: &[u8]) {
            self.ism.on_frame(id, frame, self.now).unwrap();
            self.drain();
        }

        fn send(&mut self, id: PeerId, msg: &Message) {
            self.frame(id, &msg.encode());
        }

        /// Move time to `at` and advance the machine; returns its next
        /// deadline.
        fn wait_until(&mut self, at: Duration) -> Option<Duration> {
            self.now = at;
            let next = self.ism.advance(at).unwrap();
            self.drain();
            next
        }

        fn wait(&mut self, by: Duration) -> Option<Duration> {
            self.wait_until(self.now + by)
        }

        /// What the machine sent `id` since the last look.
        fn take(&mut self, id: PeerId) -> Vec<Message> {
            self.sent.remove(&id.0).unwrap_or_default()
        }

        fn is_closed(&self, id: PeerId) -> bool {
            self.closed.contains(&id)
        }

        /// Accept and say `Hello` as `node` at the current protocol
        /// version; its `HelloAck` consumed.
        fn greeted(&mut self, node: u32) -> PeerId {
            let id = self.accept();
            self.send(id, &hello(node, brisk_proto::VERSION));
            assert!(matches!(self.take(id)[..], [Message::HelloAck { .. }]));
            id
        }

        fn quarantine(&self) -> &QuarantineLog {
            &self.ism.hub.quarantine
        }

        /// Answer the one `SyncPoll` `id` was sent from a clock `behind_us`
        /// behind the master's; returns the poll's round and sample.
        fn answer(&mut self, id: PeerId, behind_us: i64) -> (u64, u32) {
            let msgs = self.take(id);
            let [Message::SyncPoll {
                round,
                sample,
                master_send,
            }] = msgs[..]
            else {
                panic!("expected one SyncPoll, got {msgs:?}");
            };
            let slave_time = UtcMicros::from_micros(master_send.as_micros() - behind_us);
            let reply = Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            };
            self.send(id, &reply);
            (round, sample)
        }
    }

    fn hello(node: u32, version: u32) -> Message {
        Message::Hello {
            node: NodeId(node),
            version,
        }
    }

    fn empty_batch(node: u32, seq: u64) -> Message {
        Message::EventBatch {
            node: NodeId(node),
            seq: Some(seq),
            records: vec![],
        }
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

    fn batch(node: u32, seq: u64, records: usize) -> Message {
        Message::EventBatch {
            node: NodeId(node),
            seq: Some(seq),
            records: vec![record(node); records],
        }
    }

    fn ack(seq: u64) -> Message {
        Message::BatchAck { seq, credit: 64 }
    }

    const MICRO: Duration = Duration::from_micros(1);

    #[test]
    fn greets_pumps_batches_and_reports_disconnect() {
        let mut rig = rig();
        let mut reader = rig.ism.hub.core.memory().reader();
        let id = rig.accept();
        rig.send(id, &hello(7, brisk_proto::VERSION));
        // HelloAck carries the session version and the credit grant.
        let greeting = Message::HelloAck {
            version: brisk_proto::VERSION,
            credit: 64,
        };
        assert_eq!(rig.take(id), [greeting]);
        // A batch enters the core and is acked on the same connection,
        // and every ack carries the server's credit grant.
        let rec = record(7);
        rig.send(id, &batch(7, 1, 1));
        assert_eq!(rig.take(id), [ack(1)]);
        // A heartbeat is liveness only: nothing answers it.
        rig.send(id, &Message::Heartbeat);
        assert!(rig.take(id).is_empty());
        assert!(!rig.is_closed(id));
        // The connection's end frees node 7 for a successor.
        rig.ism.on_closed(id);
        let successor = rig.greeted(7);
        rig.send(successor, &empty_batch(7, 2));
        assert_eq!(rig.take(successor), [ack(2)]);
        let report = rig.ism.finish().unwrap();
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
            let mut rig = rig_with(|cfg, _| cfg.flow.credit_records = grant);
            let id = rig.accept();
            rig.send(id, &hello(5, version));
            assert_eq!(rig.take(id), [expect], "credit {grant}, v{version}");
            if version == v {
                // Connected: its batches are acked.
                rig.send(id, &empty_batch(5, 1));
                let acked = Message::BatchAck {
                    seq: 1,
                    credit: grant,
                };
                assert_eq!(rig.take(id), [acked]);
                assert!(rig.quarantine().samples().is_empty());
            } else {
                assert!(rig.is_closed(id), "v{version} connected");
                let samples = rig.quarantine().samples();
                assert_eq!(samples.len(), 1);
                assert_eq!(samples[0].node, NodeId(5));
                assert!(samples[0].error.contains(&format!("version {version}")));
            }
        }
    }

    #[test]
    fn non_hello_greeting_is_dropped_without_a_pump() {
        let mut rig = rig();
        for first_frame in [Message::Heartbeat, Message::Shutdown] {
            let id = rig.accept();
            rig.send(id, &first_frame);
            assert!(rig.is_closed(id), "{first_frame:?} greeted");
            assert!(rig.take(id).is_empty());
        }
        assert!(rig.quarantine().samples().is_empty());
    }

    #[test]
    fn silent_greeting_is_dropped_at_the_deadline() {
        let mut rig = rig();
        let id = rig.accept();
        // Never say Hello: the greeting's end is the machine's deadline,
        // and there the connection is closed and told nothing (it never
        // had an identity).
        assert_eq!(rig.wait(Duration::ZERO), Some(GREETING_TIMEOUT));
        rig.wait_until(GREETING_TIMEOUT - MICRO);
        assert!(!rig.is_closed(id));
        assert_eq!(rig.wait(MICRO), None);
        assert!(
            rig.is_closed(id),
            "a peer that never greets must be dropped"
        );
        assert!(rig.take(id).is_empty());
    }

    #[test]
    fn sync_round_runs_as_state_machine_while_batches_flow() {
        // Textbook Cristian corrects even a lone slave, so the round's
        // correction is visible on the wire.
        let mut rig = rig_with(|_, sync| {
            sync.poll_period = Duration::from_millis(50);
            sync.samples_per_slave = 3;
            sync.original_cristian = true;
        });
        let id = rig.greeted(2);
        // The first round is due one poll period in.
        assert_eq!(rig.wait(Duration::ZERO), Some(Duration::from_millis(50)));
        rig.wait(Duration::from_millis(50));
        // Slave side: answer 3 polls from a clock 5 s behind, interleaving
        // a batch, which is acked while the round runs.
        const BEHIND_US: i64 = 5_000_000;
        let mut poll_round = None;
        for answered in 0..3 {
            let (round, sample) = rig.answer(id, BEHIND_US);
            assert_eq!(*poll_round.get_or_insert(round), round);
            assert_eq!(sample, answered);
            if answered == 1 {
                rig.send(id, &empty_batch(2, 1));
                assert_eq!(rig.take(id), [ack(1)]);
            }
            // The next poll goes out, or the round closes.
            rig.wait(Duration::ZERO);
        }
        // The round closes on its third sample, and its correction reaches
        // the slave as a SyncAdjust.
        let msgs = rig.take(id);
        let [Message::SyncAdjust { round, advance_us }] = msgs[..] else {
            panic!("expected the round's SyncAdjust, got {msgs:?}");
        };
        assert_eq!(Some(round), poll_round);
        assert!(
            (BEHIND_US..BEHIND_US + 100_000).contains(&advance_us),
            "correction {advance_us} µs for a slave {BEHIND_US} µs behind"
        );
        assert_eq!(rig.ism.rounds_completed(), 1);
    }

    #[test]
    fn spoofed_or_unsequenced_batch_ends_the_connection() {
        let mut rig = rig();
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
            let id = rig.greeted(5);
            rig.send(id, &bad);
            assert!(rig.is_closed(id), "bad batch {seq:?} kept");
            assert!(rig.take(id).is_empty());
        }
        assert_eq!(rig.quarantine().frames(), 0);
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 0);
    }

    #[test]
    fn a_half_open_peer_is_evicted_while_others_heartbeat() {
        let timeout = Duration::from_millis(300);
        let mut rig = rig_with(|cfg, _| cfg.node_timeout = Some(timeout));
        let silent = rig.greeted(5);
        let chatty: Vec<_> = (6..8).map(|node| rig.greeted(node)).collect();
        // The silent peer's liveness limit is the machine's deadline.
        assert_eq!(rig.wait(Duration::ZERO), Some(timeout));
        let step = Duration::from_millis(50);
        while rig.now < timeout {
            assert!(!rig.is_closed(silent), "evicted at {:?}", rig.now);
            for &peer in &chatty {
                rig.send(peer, &Message::Heartbeat);
            }
            rig.wait(step);
        }
        assert_eq!(rig.take(silent), [Message::Shutdown]);
        assert!(rig.is_closed(silent), "a silent peer must be evicted");
        // The heartbeating peers kept their sessions through the same
        // passes.
        for &peer in &chatty {
            assert!(rig.take(peer).is_empty());
            assert!(!rig.is_closed(peer));
        }
    }

    #[test]
    fn stop_shuts_running_connections_down_and_drains_their_final_flush() {
        let mut rig = rig();
        let id = rig.greeted(3);
        rig.ism.stop(rig.now);
        rig.drain();
        assert_eq!(rig.take(id), [Message::Shutdown]);
        // The EXS's final flush still enters the core, unacked.
        rig.send(id, &batch(3, 1, 1));
        assert!(rig.take(id).is_empty(), "a batch acked while closing");
        // The drain ends at its deadline, and the connection is closed.
        rig.wait_until(CLOSING_DRAIN - MICRO);
        assert!(!rig.is_closed(id));
        rig.wait(MICRO);
        assert!(rig.is_closed(id), "the closing drain never ended");
        assert!(rig.take(id).is_empty());
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 1);
    }

    /// A batch frame of one record from `node`, and the same frame with
    /// garbage after its 20-byte header (tag, node, seq, count): the
    /// header reads, no record decodes.
    fn batch_and_corrupt(node: u32, seq: u64) -> (Vec<u8>, Vec<u8>) {
        let good = batch(node, seq, 1).encode();
        let mut corrupt = good.clone();
        corrupt[20..].fill(0xff);
        (good, corrupt)
    }

    #[test]
    fn an_undecodable_batch_leaves_its_seq_unadmitted() {
        let mut rig = rig();
        let id = rig.greeted(5);
        let (good, corrupt) = batch_and_corrupt(5, 1);
        // The corrupt seq 1 is quarantined unacked and enters nothing, so
        // the intact seq 1 after it is fresh, not a replay: it is acked
        // once, and its record enters the core.
        rig.frame(id, &corrupt);
        rig.frame(id, &good);
        assert_eq!(rig.take(id), [ack(1)]);
        assert_eq!(rig.quarantine().frames(), 1);
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 1);
        assert_eq!(report.core.duplicate_batches, 0);
    }

    #[test]
    fn a_corrupt_replay_is_acked_as_a_replay() {
        let mut rig = rig();
        let id = rig.greeted(5);
        let (good, corrupt) = batch_and_corrupt(5, 1);
        rig.frame(id, &good);
        assert_eq!(rig.take(id), [ack(1)]);
        // A replay is dropped on its header alone, so its body is never
        // read: acked, counted as a duplicate, never quarantined.
        rig.frame(id, &corrupt);
        assert_eq!(rig.take(id), [ack(1)]);
        assert_eq!(rig.quarantine().frames(), 0);
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 1);
        assert_eq!(report.core.duplicate_batches, 1);
    }

    #[test]
    fn batches_sent_before_a_hang_up_all_enter_the_core() {
        // The peer sends three batches and hangs up before it reads an
        // ack. Every batch enters the core and is acked; whether an ack
        // reaches the peer ends nothing, and the hang-up only frees the
        // node.
        let mut rig = rig();
        let id = rig.greeted(4);
        for seq in 1..=3 {
            rig.send(id, &batch(4, seq, 1));
        }
        assert_eq!(rig.take(id), [ack(1), ack(2), ack(3)]);
        rig.ism.on_closed(id);
        assert!(!rig.is_closed(id), "the machine closes what it ends");
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 3);
    }

    #[test]
    fn malformed_frames_are_quarantined_within_budget() {
        let mut rig = rig();
        let id = rig.greeted(5);
        // Two garbage frames fit inside the budget: the connection lives
        // and a valid batch still flows afterwards.
        rig.frame(id, &[0xde, 0xad, 0xbe, 0xef]);
        rig.frame(id, b"not a brisk frame");
        rig.send(id, &empty_batch(5, 1));
        assert_eq!(
            rig.take(id),
            [ack(1)],
            "batch must survive quarantined garbage"
        );
        assert_eq!(rig.quarantine().frames(), 2);
        assert_eq!(rig.quarantine().disconnects(), 0);
        // The third garbage frame exhausts the budget: disconnect.
        rig.frame(id, &[0xff; 8]);
        assert!(rig.is_closed(id));
        assert!(rig.take(id).is_empty());
        assert_eq!(rig.quarantine().frames(), 3);
        assert_eq!(rig.quarantine().disconnects(), 1);
        let samples = rig.quarantine().samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].node, NodeId(5));
        assert_eq!(samples[0].head_hex, "deadbeef");
        assert!(!samples[0].error.is_empty());
    }

    #[test]
    fn zero_budget_drops_connection_on_first_bad_frame() {
        let mut rig = rig_with(|cfg, _| cfg.protocol_error_budget = 0);
        let id = rig.greeted(5);
        rig.frame(id, &[0x00]);
        assert!(rig.is_closed(id));
        assert_eq!(rig.quarantine().frames(), 1);
        assert_eq!(rig.quarantine().disconnects(), 1);
    }

    #[test]
    fn spoofed_batch_node_ends_connection() {
        let mut rig = rig();
        let id = rig.greeted(1);
        // Spoof: the connection authenticated as node 1 but the batch
        // claims node 2. The machine must close the connection.
        rig.send(id, &batch(2, 1, 3));
        assert!(rig.is_closed(id), "spoofed connection must be dropped");
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 0, "spoofed records must not land");
    }

    #[test]
    fn duplicate_hello_is_rejected_and_node_frees_on_disconnect() {
        let mut rig = rig();
        // First connection for node 1, held open.
        let first = rig.greeted(1);
        rig.send(first, &batch(1, 1, 2));
        assert_eq!(rig.take(first), [ack(1)], "first connection must be live");
        // A second Hello claiming node 1 while the first connection is
        // live is a protocol error: the impostor is answered with Shutdown
        // and quarantined, and the first session is untouched.
        let impostor = rig.accept();
        rig.send(impostor, &hello(1, brisk_proto::VERSION));
        assert_eq!(rig.take(impostor), [Message::Shutdown]);
        assert!(rig.is_closed(impostor), "duplicate Hello must be rejected");
        assert_eq!(rig.quarantine().rejected_hellos(), 1);
        // The original connection keeps working...
        rig.send(first, &batch(1, 2, 2));
        assert_eq!(
            rig.take(first),
            [ack(2)],
            "original connection must keep its acks"
        );
        // ...and once it says Shutdown, the node id is free for a
        // reconnect.
        rig.send(first, &Message::Shutdown);
        assert!(rig.is_closed(first));
        let third = rig.greeted(1);
        rig.send(third, &batch(1, 3, 2));
        assert_eq!(
            rig.take(third),
            [ack(3)],
            "reconnect after disconnect must be accepted"
        );
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 6);
    }

    #[test]
    fn garbage_frames_are_quarantined_then_budget_disconnects() {
        let mut rig = rig();
        let registry = Registry::new();
        rig.ism.bind_telemetry(&registry);
        let id = rig.greeted(1);
        // Two garbage frames are quarantined; a batch still lands.
        rig.frame(id, &[0xde, 0xad]);
        rig.frame(id, &[0xbe, 0xef]);
        rig.send(id, &batch(1, 1, 3));
        assert_eq!(
            rig.take(id),
            [ack(1)],
            "batches must survive quarantined frames"
        );
        // The third garbage frame exhausts the budget: disconnect.
        rig.frame(id, &[0x00]);
        assert!(
            rig.is_closed(id),
            "offender must be disconnected after the budget"
        );
        assert_eq!(rig.quarantine().frames(), 3);
        assert_eq!(rig.quarantine().disconnects(), 1);
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_quarantined_frames_total"), 3);
        assert_eq!(
            snap.counter_total("brisk_ism_quarantine_disconnects_total"),
            1
        );
    }

    #[test]
    fn silent_node_is_evicted_after_timeout() {
        let timeout = Duration::from_millis(150);
        let mut rig = rig_with(|cfg, _| cfg.node_timeout = Some(timeout));
        let registry = Registry::new();
        rig.ism.bind_telemetry(&registry);
        let id = rig.greeted(1);
        rig.send(id, &batch(1, 1, 2));
        assert_eq!(rig.take(id), [ack(1)]);
        // Then go silent: at the timeout the machine evicts the node — it
        // sends Shutdown and closes the connection.
        rig.wait_until(timeout - MICRO);
        assert!(!rig.is_closed(id));
        rig.wait(MICRO);
        assert_eq!(
            rig.take(id),
            [Message::Shutdown],
            "silent node must be told to shut down"
        );
        assert!(rig.is_closed(id));
        let report = rig.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 1);
    }

    /// Rounds every 50 ms of `samples` polls per slave, textbook Cristian,
    /// so a lone slave's answers are corrected.
    fn round_rig(samples: usize) -> Rig {
        rig_with(|_, sync| {
            sync.poll_period = Duration::from_millis(50);
            sync.samples_per_slave = samples;
            sync.original_cristian = true;
        })
    }

    #[test]
    fn a_lost_sync_reply_moves_the_exchange_on_at_the_sample_timeout() {
        let mut rig = round_rig(2);
        let id = rig.greeted(1);
        rig.wait(Duration::from_millis(50));
        // The first poll's reply is lost: the exchange waits one sample
        // timeout for it, and no longer.
        let msgs = rig.take(id);
        assert!(matches!(msgs[..], [Message::SyncPoll { sample: 0, .. }]));
        let lost_at = rig.now + SAMPLE_TIMEOUT;
        assert_eq!(rig.wait(Duration::ZERO), Some(lost_at));
        rig.wait_until(lost_at - MICRO);
        assert!(rig.take(id).is_empty(), "polled again before the timeout");
        rig.wait_until(lost_at);
        let (_, sample) = rig.answer(id, 0);
        assert_eq!(sample, 1, "the lost sample is not asked again");
        // The answered second sample ends the exchange, and the round
        // closes on it.
        rig.wait(Duration::ZERO);
        assert_eq!(rig.ism.rounds_completed(), 1);
        assert!(matches!(rig.take(id)[..], [Message::SyncAdjust { .. }]));
    }

    #[test]
    fn a_silent_slave_closes_the_round_at_the_round_deadline_with_the_others_samples() {
        // Three samples at one sample timeout each outlast the round
        // deadline, so a silent slave holds the round open until then.
        let mut rig = round_rig(3);
        let (quick, silent) = (rig.greeted(1), rig.greeted(2));
        rig.wait(Duration::from_millis(50));
        let started = rig.now;
        const BEHIND_US: i64 = 5_000_000;
        for _ in 0..3 {
            rig.answer(quick, BEHIND_US);
            rig.wait(Duration::ZERO);
        }
        assert_eq!(
            rig.ism.rounds_completed(),
            0,
            "closed without the silent slave"
        );
        rig.wait_until(started + ROUND_DEADLINE - MICRO);
        assert_eq!(rig.ism.rounds_completed(), 0);
        rig.wait_until(started + ROUND_DEADLINE);
        assert_eq!(rig.ism.rounds_completed(), 1);
        // The quick slave's samples made the round: it is corrected.
        let msgs = rig.take(quick);
        let [Message::SyncAdjust { advance_us, .. }] = msgs[..] else {
            panic!("expected the round's SyncAdjust, got {msgs:?}");
        };
        assert!((BEHIND_US..BEHIND_US + 100_000).contains(&advance_us));
        // The silent one had only polls, and no correction.
        let to_silent = rig.take(silent);
        assert!(to_silent
            .iter()
            .all(|m| matches!(m, Message::SyncPoll { .. })));
    }

    #[test]
    fn a_swept_peer_stops_holding_the_round_open() {
        let mut rig = round_rig(1);
        let (quick, gone) = (rig.greeted(1), rig.greeted(2));
        rig.wait(Duration::from_millis(50));
        rig.answer(quick, 0);
        rig.wait(Duration::ZERO);
        assert_eq!(
            rig.ism.rounds_completed(),
            0,
            "closed without the second slave"
        );
        // Its connection ends before it answers: the round no longer
        // waits for it, neither for its sample timeout nor its deadline.
        rig.ism.on_closed(gone);
        rig.wait(Duration::ZERO);
        assert_eq!(rig.ism.rounds_completed(), 1);
        assert!(matches!(rig.take(quick)[..], [Message::SyncAdjust { .. }]));
    }

    #[test]
    fn a_closed_round_polls_its_silent_slave_no_more() {
        // Five samples at one sample timeout each outlast the round
        // deadline by three, and the next round is a poll period away:
        // the silent slave's exchange would still owe samples after its
        // round closed without it.
        let period = Duration::from_secs(10);
        let mut rig = rig_with(|_, sync| {
            sync.poll_period = period;
            sync.samples_per_slave = 5;
            sync.original_cristian = true;
        });
        let (quick, silent) = (rig.greeted(1), rig.greeted(2));
        rig.wait(period);
        let started = rig.now;
        for _ in 0..5 {
            rig.answer(quick, 0);
            rig.wait(Duration::ZERO);
        }
        rig.wait_until(started + ROUND_DEADLINE);
        assert_eq!(rig.ism.rounds_completed(), 1);
        rig.take(silent);
        let end = rig.now + 2 * SAMPLE_TIMEOUT;
        while let Some(at) = rig.wait(Duration::ZERO).filter(|&at| at <= end) {
            rig.wait_until(at);
        }
        rig.wait_until(end);
        assert!(
            rig.take(silent).is_empty(),
            "the closed round kept polling its silent slave"
        );
    }

    /// One EXS machine and the ISM machine on one simulated clock, their
    /// link two in-memory queues: no socket, no thread, no sleep.
    struct Session {
        ism: Ism,
        exs: ExternalSensor,
        src: SimTimeSource,
        now: Duration,
        /// The ISM's peer for the EXS's link, while it is up.
        peer: Option<PeerId>,
        to_ism: VecDeque<Vec<u8>>,
        to_exs: VecDeque<Vec<u8>>,
        /// Every message the EXS received, in order.
        exs_got: Vec<Message>,
        /// The ISM told the EXS to shut down.
        shutdown: bool,
    }

    impl Session {
        /// The link dies with whatever is in flight on it.
        fn cut(&mut self) {
            self.to_ism.clear();
            self.to_exs.clear();
            if let Some(peer) = self.peer.take() {
                self.ism.on_closed(peer);
            }
            self.exs.uplink().down("link cut", self.now);
        }

        fn ism_outputs(&mut self) {
            let mut closed = false;
            let to_exs = &mut self.to_exs;
            self.ism.drain_outputs(|out| match out {
                Output::Send { frame, .. } => to_exs.push_back(frame.to_vec()),
                Output::Close(_) => closed = true,
            });
            if closed {
                self.peer = None;
                self.cut();
            }
        }

        /// Carry out both machines' outputs and deliver what is in
        /// flight, until neither has anything left to say.
        fn settle(&mut self) {
            loop {
                let (mut dial, mut dropped) = (false, false);
                let to_ism = &mut self.to_ism;
                self.exs.uplink().drain_outputs(|out| match out {
                    LinkOutput::Send(frame) => to_ism.push_back(frame.to_vec()),
                    LinkOutput::Dial => dial = true,
                    LinkOutput::Drop => dropped = true,
                });
                if dropped {
                    self.cut();
                } else if dial {
                    self.peer = Some(self.ism.accept(self.now));
                    self.exs.uplink().up();
                } else if let Some(frame) = self.to_ism.pop_front() {
                    let peer = self.peer.expect("a link is up");
                    self.ism.on_frame(peer, &frame, self.now).unwrap();
                    self.ism_outputs();
                } else if let Some(frame) = self.to_exs.pop_front() {
                    self.exs_got.push(Message::decode(&frame).unwrap());
                    self.shutdown |= self.exs.on_frame(&frame, self.now);
                } else {
                    return;
                }
            }
        }

        /// Run both machines for `span`, a millisecond a pass.
        fn run_for(&mut self, span: Duration) {
            let end = self.now + span;
            while self.now < end {
                self.now += Duration::from_millis(1);
                self.src.advance_by(1_000);
                if !self.shutdown {
                    self.exs.step(self.now).unwrap();
                }
                self.ism.advance(self.now).unwrap();
                self.ism_outputs();
                self.settle();
            }
        }
    }

    #[test]
    fn an_exs_and_the_ism_run_a_whole_session_over_in_memory_queues() {
        let src = SimTimeSource::new();
        let master: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
        // The node's clock runs 3 ms behind the master's.
        let node_clock = Arc::new(SimClock::new(src.clone(), -3_000, 0.0, 1));
        let sync = SyncConfig {
            poll_period: Duration::from_secs(1),
            samples_per_slave: 2,
            original_cristian: true,
        };
        let cfg = IsmConfig {
            node_timeout: None,
            ..IsmConfig::default()
        };
        let ism = Ism::new(cfg, sync, master).unwrap();
        let mut reader = ism.hub.core.memory().reader();
        let exs_cfg = ExsConfig {
            max_batch_records: 4,
            flush_timeout: Duration::from_millis(5),
            ..ExsConfig::default()
        };
        let lis = Lis::new(NodeId(5), Arc::clone(&node_clock), &exs_cfg);
        let mut ports = [lis.register(), lis.register()];
        let raw = Arc::clone(&node_clock) as Arc<dyn Clock>;
        let exs = ExternalSensor::new(NodeId(5), Arc::clone(lis.rings()), raw, exs_cfg).unwrap();
        let mut s = Session {
            ism,
            exs,
            src,
            now: Duration::ZERO,
            peer: None,
            to_ism: VecDeque::new(),
            to_exs: VecDeque::new(),
            exs_got: Vec::new(),
            shutdown: false,
        };
        let mut emit = |n: usize| {
            for port in &mut ports {
                for _ in 0..n {
                    let ts = node_clock.now();
                    assert!(port.emit(EventTypeId(1), ts, vec![]).unwrap());
                }
            }
        };

        // Hello → HelloAck: the EXS's first pass dials.
        s.run_for(Duration::from_millis(1));
        assert!(matches!(s.exs_got[..], [Message::HelloAck { .. }]));
        // Batches and their acks: 10 records as 4 + 4 + a partial 2 at
        // its flush timeout.
        emit(5);
        s.run_for(Duration::from_millis(20));
        let stats = s.exs.stats();
        assert_eq!((stats.records_sent, stats.batches_sent), (10, 3));
        assert_eq!(stats.link.acks_received, 3);

        // A full sync round, ending in a SyncAdjust that brings the node's
        // clock onto the master's.
        s.run_for(Duration::from_millis(1_500));
        assert_eq!(s.ism.rounds_completed(), 1);
        assert!(s
            .exs_got
            .iter()
            .any(|m| matches!(m, Message::SyncAdjust { .. })));
        let correction = s.exs.corrected_clock().correction_us();
        assert!(
            (2_900..=3_100).contains(&correction),
            "correction {correction} µs"
        );

        // The link dies with a batch in flight: the EXS dials again and
        // replays it.
        emit(3);
        s.exs.step(s.now).unwrap();
        s.exs.uplink().drain_outputs(|_lost| {});
        s.cut();
        s.run_for(Duration::from_millis(20));
        let link = s.exs.stats().link;
        assert_eq!(link.connects, 2);
        assert_eq!(link.batches_retransmitted, 1);

        // Shutdown: the ISM asks, the EXS flushes what its rings still
        // hold and says goodbye, and the ISM drains it.
        emit(2);
        s.ism.stop(s.now);
        s.ism_outputs();
        s.settle();
        assert!(s.shutdown, "the ISM's Shutdown reached the EXS");
        s.exs.finish().unwrap();
        s.settle();
        while !s.ism.stopped() {
            s.run_for(Duration::from_millis(1));
        }
        let report = s.ism.finish().unwrap();
        assert_eq!(report.core.records_in, 20);
        assert_eq!(report.core.duplicate_batches, 0);

        // Every record delivered once, in each sensor's order.
        let (delivered, missed) = reader.poll().unwrap();
        assert_eq!((delivered.len(), missed), (20, 0));
        let mut next: HashMap<_, u64> = HashMap::new();
        for rec in delivered {
            let seq = next.entry(rec.sensor).or_default();
            assert_eq!(rec.seq, *seq, "{:?} out of order or twice", rec.sensor);
            *seq += 1;
        }
        assert_eq!(next.len(), 2);
    }
}
