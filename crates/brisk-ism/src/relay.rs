//! The upstream export plane: what makes an ISM a *relay*.
//!
//! A relay ISM accepts N downstream EXS (or relay) connections through
//! the ordinary session plane, merges and repairs their streams through
//! the [`crate::merge::MergePlane`], and then — instead of delivering to
//! local sinks — re-exports the merged stream to a parent ISM over an
//! ordinary EXS link. The [`UpstreamExporter`] here owns a
//! [`brisk_lis::Uplink`], the same sender-side session an external
//! sensor runs — window, credit, replay across reconnects, sync-poll
//! answers, idle heartbeats (so the parent's reactor, which judges
//! the link's liveness, never falsely evicts a quiet subtree), and the
//! one redial policy (jittered backoff,
//! seeded by the relay's node id, that only a `HelloAck` resets) — and
//! adds only what is relay-specific: the prefix rewrite and its own
//! batcher. One policy difference from the EXS: a parent's orderly
//! `Shutdown` retires the link and the relay dials again. The link's
//! counters are the `Uplink`'s own, registered under `role="relay"`.
//!
//! The exporter decides and does no I/O. The ISM's driver owns the
//! upstream link beside its connections, one more fd in its `poll(2)`,
//! dialing through the [`ConnectFn`] it takes from the exporter
//! ([`UpstreamExporter::take_dialer`]). A frame from the parent is an
//! input of the ISM's machine, which hands it to
//! [`UpstreamExporter::on_frame`] and ticks at once, so an ack releases
//! parked records in the same pass; the link's outputs (dial, send, drop)
//! drain with the machine's, and its deadline (heartbeat or next dial) is
//! one of the machine's. The pipeline's tick only flushes the partial
//! batch at its timeout ([`MergeOutput::pump`]). On stop the machine
//! drains the sorter into the exporter, ships the final batch and waits,
//! as machine state, for the parent to ack the window.
//!
//! Namespacing: every record is rewritten through the relay's
//! [`NodePrefix`] before it leaves (node id plus CRE reason/conseq
//! correlation ids, see [`brisk_proto::namespace`]), and the relay
//! introduces itself upstream as [`NodePrefix::relay_node`] — the bare
//! prefix value, which is disjoint from every rewritten subtree id. The
//! parent therefore sees one EXS-like peer whose batches happen to carry
//! many (namespaced) node ids, which the protocol permits: the batch
//! *header* node is what the spoof check validates, per-record ids are
//! the payload.
//!
//! Backpressure composes across tiers through [`MergeOutput::ready`]:
//! with the upstream link down or its credit spent, the exporter reports
//! not-ready and the merge plane parks records in the sorter. The
//! parent's ack is link input: it ticks the loop, which releases the
//! parked records. Downstream credit is still granted as each batch
//! enters the core, so a long outage grows the sorter.

use crate::merge::MergeOutput;
use brisk_clock::{Clock, CorrectedClock};
use brisk_core::{EventRecord, Result, UtcMicros};
use brisk_lis::uplink::{Control, Uplink, UplinkStats, UplinkTelemetry};
use brisk_lis::{Batcher, SupervisorConfig};
use brisk_proto::NodePrefix;
use brisk_telemetry::Registry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

pub use brisk_lis::runtime::ConnectFn;

/// Sent-but-unacked upstream batches kept for replay across reconnects. A
/// full window evicts the oldest unacked batch (counted) rather than
/// blocking the relay.
const WINDOW_BATCHES: usize = 1024;

/// Knobs of one relay's upstream link.
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// This relay's namespace prefix; also its upstream identity
    /// ([`NodePrefix::relay_node`]).
    pub prefix: NodePrefix,
    /// Flush an upstream batch once it holds this many records (a batch
    /// also flushes at the EXS's byte bound).
    pub max_batch_records: usize,
    /// Flush a non-empty partial batch after this long (latency knob —
    /// every relay tier adds at most this much batching delay).
    pub flush_timeout: Duration,
    /// Heartbeat the upstream once the link has been send-idle this long
    /// (zero disables). This is also what keeps the parent's reactor
    /// from evicting, after `--node-timeout` of silence, a subtree
    /// that is merely quiet: the relay synthesizes its subtree's liveness.
    pub heartbeat_interval: Duration,
}

impl RelayConfig {
    /// Defaults for the given prefix.
    pub fn new(prefix: NodePrefix) -> Self {
        RelayConfig {
            prefix,
            max_batch_records: 256,
            flush_timeout: Duration::from_millis(5),
            heartbeat_interval: Duration::from_millis(500),
        }
    }
}

brisk_telemetry::metrics! {
    /// Shared atomic backing for [`RelayStats`], and the cells of the
    /// upstream [`Uplink`], so a telemetry registry (and tests) can
    /// observe a live exporter from another thread without locking.
    pub struct RelayTelemetry =>
    /// Counters of one upstream exporter, and (as `link`, which it derefs
    /// to) its upstream link's.
    pub struct RelayStats {
        /// Batches handed to a live upstream link (first transmissions).
        batches_exported: counter "brisk_relay_exported_batches_total" "Merged batches handed to a live upstream link (first transmissions)",
        /// Records handed to a live upstream link (first transmissions).
        records_exported: counter "brisk_relay_exported_records_total" "Merged records handed to a live upstream link (first transmissions)",
        /// Records dropped because the prefix rewrite overflowed (tree too
        /// deep for the id width).
        rewrite_errors: counter "brisk_relay_rewrite_errors_total" "Records dropped because the namespace rewrite overflowed",
        /// Clock adjustments applied from upstream `SyncAdjust`s.
        adjustments: counter "brisk_relay_adjustments_total" "Clock adjustments applied from upstream sync rounds",
    } + link: UplinkTelemetry => UplinkStats
}

impl RelayTelemetry {
    /// Register every relay series with `registry`, labeled by prefix,
    /// and its upstream link's under `role="relay"`.
    pub fn bind(self: &Arc<Self>, prefix: NodePrefix, registry: &Registry) {
        self.register(registry, &[("prefix", &prefix.raw().to_string())]);
        self.link.bind("relay", prefix.relay_node(), registry);
    }
}

/// The relay's upstream link: rewrites and batches the merged stream and
/// ships it to the parent ISM under the relay's own node id over an
/// ordinary EXS session ([`Uplink`]), which also decides when to redial.
/// Exactly-once delivery across link failures is the `Uplink`'s send
/// window + replay and the parent's `(node, seq)` dedup.
pub struct UpstreamExporter {
    cfg: RelayConfig,
    batcher: Batcher,
    /// Window, credit, acks, replay, heartbeats, control frames and the
    /// redial schedule; survives reconnects.
    uplink: Uplink,
    /// The relay's correction clock, when the parent's `SyncAdjust`s
    /// should steer this tier.
    sync_clock: Option<Arc<CorrectedClock<Arc<dyn Clock>>>>,
    shared: Arc<RelayTelemetry>,
    /// The dialer, until the ISM's driver takes it.
    dialer: Option<ConnectFn>,
}

impl UpstreamExporter {
    /// Redial backoff after a link failure — the EXS's policy.
    const RECONNECT: SupervisorConfig = SupervisorConfig {
        initial_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_secs(2),
    };

    /// New exporter. Nothing is connected yet; its first
    /// [`Uplink::advance`] asks for a dial through `connect`,
    /// which the ISM's driver carries out. `clock` is the relay's own
    /// clock (the one its server stamps with): the parent's `SyncPoll`s
    /// are answered from it.
    pub fn new(cfg: RelayConfig, connect: ConnectFn, clock: Arc<dyn Clock>) -> Self {
        let synth = brisk_core::ExsConfig {
            max_batch_records: cfg.max_batch_records,
            flush_timeout: cfg.flush_timeout,
            ..brisk_core::ExsConfig::default()
        };
        let uplink = Uplink::new(
            cfg.prefix.relay_node(),
            clock,
            WINDOW_BATCHES,
            cfg.heartbeat_interval,
        )
        .with_backoff(Self::RECONNECT);
        let shared = Arc::new(RelayTelemetry {
            link: Arc::clone(uplink.telemetry()),
            ..RelayTelemetry::default()
        });
        UpstreamExporter {
            batcher: Batcher::new(synth),
            uplink,
            sync_clock: None,
            shared,
            dialer: Some(connect),
            cfg,
        }
    }

    /// Let the parent's sync rounds steer this relay's correction clock:
    /// `SyncPoll`s answer with this clock's corrected time, and
    /// `SyncAdjust`s shift its correction value. Without this the
    /// exporter drops adjustments.
    pub fn with_sync_clock(mut self, clock: Arc<CorrectedClock<Arc<dyn Clock>>>) -> Self {
        self.uplink.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        self.sync_clock = Some(clock);
        self
    }

    /// This relay's namespace prefix.
    pub fn prefix(&self) -> NodePrefix {
        self.cfg.prefix
    }

    /// Counters so far.
    pub fn stats(&self) -> RelayStats {
        self.shared.snapshot()
    }

    /// Register this exporter's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.cfg.prefix, registry);
    }

    /// The dialer of the upstream link, for the driver that owns the
    /// link; `None` once taken.
    pub fn take_dialer(&mut self) -> Option<ConnectFn> {
        self.dialer.take()
    }

    /// The upstream link's session: the ISM's machine advances it, and
    /// its driver carries out its outputs and reports the link up and
    /// down.
    pub fn uplink(&mut self) -> &mut Uplink {
        &mut self.uplink
    }

    /// Apply one frame of the parent's control traffic, received at
    /// `now`, under this relay's policy: a `SyncAdjust` steers the sync
    /// clock, if any, and an orderly `Shutdown` retires the link to be
    /// dialed again.
    pub fn on_frame(&mut self, frame: &[u8], now: Duration) {
        match self.uplink.on_frame(frame, now) {
            Control::Adjusted(advance_us) => {
                if let Some(c) = &self.sync_clock {
                    c.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The parent is retiring this link (eviction, restart): drop
            // it like any other and dial again.
            Control::Shutdown => self.uplink.drop_link("upstream sent Shutdown", now),
            Control::Skipped | Control::Handled | Control::Dropped => {}
        }
    }

    /// True when a final drain has nothing left to wait for: the parent
    /// acked every batch, or the link is down.
    pub fn drained(&self) -> bool {
        self.uplink.window_depth() == 0 || !self.uplink.connected()
    }

    /// Log what a stopped relay leaves unacked upstream.
    pub(crate) fn note_stopped(&self) {
        if self.uplink.window_depth() > 0 {
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "unacked_at_stop",
                "prefix {} stopping with {} unacked upstream batches",
                self.cfg.prefix.raw(),
                self.uplink.window_depth()
            );
        }
    }

    /// Window a fresh batch and, on a live link, ship it; the export
    /// counters count batches handed to a live link. On a dead link the
    /// batch simply stays windowed; the next link's replay delivers it.
    fn ship(&mut self, records: Vec<EventRecord>) {
        let n = records.len() as u64;
        let sent = self.uplink.send(&records);
        self.batcher.recycle(records);
        if sent {
            self.shared.batches_exported.fetch_add(1, Ordering::Relaxed);
            self.shared.records_exported.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl MergeOutput for UpstreamExporter {
    /// Rewrite one merged record into this relay's namespace and batch
    /// it for upstream shipment. A record whose ids cannot be rewritten
    /// (tree deeper than the id width) is counted and dropped rather
    /// than poisoning the pipeline.
    fn on_record(&mut self, mut rec: EventRecord, now: UtcMicros) -> Result<()> {
        if self.cfg.prefix.rewrite_record(&mut rec).is_err() {
            self.shared.rewrite_errors.fetch_add(1, Ordering::Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "rewrite_overflow",
                "prefix {} dropped a record whose ids overflow the namespace (node {})",
                self.cfg.prefix.raw(),
                rec.node
            );
            return Ok(());
        }
        if let Some((batch, _reason)) = self.batcher.push(rec, now) {
            self.ship(batch);
        }
        Ok(())
    }

    /// Ready while the link is up and credit permits more in-flight
    /// records. Not-ready parks releases in the merge plane's sorter —
    /// tier-by-tier backpressure instead of an unbounded queue here.
    fn ready(&self) -> bool {
        self.uplink.connected() && self.uplink.credit_open()
    }

    /// Per-tick housekeeping: flush the latency knob, note a credit
    /// stall.
    fn pump(&mut self, now: UtcMicros) -> Result<()> {
        if let Some((batch, _reason)) = self.batcher.poll_timeout(now) {
            self.ship(batch);
        }
        // Notes a stall's leading edge; `ready` reads credit exactly.
        self.uplink.poll_credit();
        Ok(())
    }

    /// The partial batch's flush timeout. The link's own deadline is the
    /// machine's ([`Uplink::advance`]), and its input wakes the
    /// driver through the link's fd.
    fn due_in(&self, now: UtcMicros) -> Option<Duration> {
        let flush = self.batcher.time_to_deadline(now)?;
        Some(Duration::from_micros(flush.max(0) as u64))
    }

    /// Shutdown path: ship the final partial batch. Waiting for the
    /// parent's acks is the ISM machine's stop state.
    fn flush(&mut self) -> Result<()> {
        if let Some((batch, _reason)) = self.batcher.flush() {
            self.ship(batch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Ism, UPSTREAM_DRAIN};
    use brisk_clock::{SimClock, SimTimeSource, SystemClock};
    use brisk_core::{BriskError, EventTypeId, IsmConfig, NodeId, SensorId, SyncConfig, Value};
    use brisk_lis::uplink::LinkOutput;
    use brisk_proto::{Message, VERSION};

    fn rec(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    /// An exporter driven by hand: no driver ever calls its dialer.
    fn exporter_on(cfg: RelayConfig, clock: Arc<dyn Clock>) -> UpstreamExporter {
        UpstreamExporter::new(cfg, Box::new(|| Err(BriskError::Disconnected)), clock)
    }

    fn exporter(cfg: RelayConfig) -> UpstreamExporter {
        exporter_on(cfg, Arc::new(SystemClock))
    }

    fn frozen_clock() -> Arc<dyn Clock> {
        Arc::new(SimClock::new(SimTimeSource::new(), 0, 0.0, 1))
    }

    /// What the link asked of its driver, frames decoded.
    #[derive(Debug, PartialEq)]
    enum Out {
        Dial,
        Sent(Message),
        Drop,
    }

    impl From<LinkOutput<'_>> for Out {
        fn from(out: LinkOutput<'_>) -> Out {
            match out {
                LinkOutput::Dial => Out::Dial,
                LinkOutput::Send(frame) => Out::Sent(Message::decode(frame).unwrap()),
                LinkOutput::Drop => Out::Drop,
            }
        }
    }

    fn outputs(ex: &mut UpstreamExporter) -> Vec<Out> {
        let mut outs = Vec::new();
        ex.uplink.drain_outputs(|out| outs.push(out.into()));
        outs
    }

    /// The frames among `outs`; anything else fails the test.
    fn frames(outs: Vec<Out>) -> Vec<Message> {
        let frame = |out| match out {
            Out::Sent(msg) => msg,
            other => panic!("expected a frame, got {other:?}"),
        };
        outs.into_iter().map(frame).collect()
    }

    fn hello_ack(credit: u64) -> Vec<u8> {
        Message::HelloAck {
            version: VERSION,
            credit,
        }
        .encode()
    }

    fn ack(seq: u64) -> Vec<u8> {
        Message::BatchAck { seq, credit: 1024 }.encode()
    }

    /// Dial, bring the link up and answer its `Hello` with `credit`.
    fn greeted(ex: &mut UpstreamExporter, now: Duration, credit: u64) {
        ex.uplink.advance(now);
        assert_eq!(outputs(ex), [Out::Dial]);
        ex.uplink.up();
        assert!(matches!(frames(outputs(ex))[..], [Message::Hello { .. }]));
        ex.on_frame(&hello_ack(credit), now);
    }

    #[test]
    fn ships_rewritten_batches_and_replays_across_reconnect() {
        let mut cfg = RelayConfig::new(NodePrefix::new(7).unwrap());
        cfg.max_batch_records = 2;
        let mut ex = exporter(cfg);
        let (now, t) = (Duration::ZERO, UtcMicros::from_micros(1_000));

        assert!(!ex.ready(), "no link yet");
        ex.uplink.advance(now);
        assert_eq!(outputs(&mut ex), [Out::Dial]);
        ex.uplink.up();
        match &frames(outputs(&mut ex))[..] {
            [Message::Hello { node, version }] => {
                assert_eq!(*node, NodeId(7), "relay introduces itself as its prefix");
                assert_eq!(*version, VERSION);
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        ex.on_frame(&hello_ack(1024), now);
        ex.pump(t).unwrap();
        assert!(ex.ready());

        // Two records trip the record knob: one batch ships, rewritten.
        ex.on_record(rec(3, 0, 100), t).unwrap();
        ex.on_record(rec(4, 1, 200), t).unwrap();
        match &frames(outputs(&mut ex))[..] {
            [Message::EventBatch { node, seq, records }] => {
                assert_eq!(*node, NodeId(7), "header node is the relay itself");
                assert_eq!(*seq, Some(1));
                assert_eq!(records[0].node, NodeId((3 << 8) | 7));
                assert_eq!(records[1].node, NodeId((4 << 8) | 7));
            }
            other => panic!("expected EventBatch, got {other:?}"),
        }
        assert_eq!(ex.uplink.window_depth(), 1, "unacked batch stays windowed");

        // The link dies before the ack: the parent had answered its Hello,
        // so the exporter dials again at once and replays the batch.
        ex.uplink.down("test", now);
        assert!(!ex.ready(), "dead link detected");
        ex.uplink.advance(now);
        assert_eq!(outputs(&mut ex), [Out::Dial]);
        ex.uplink.up();
        match &frames(outputs(&mut ex))[..] {
            [Message::Hello { node, .. }, Message::EventBatch { seq, records, .. }] => {
                assert_eq!(*node, NodeId(7));
                assert_eq!(*seq, Some(1), "same sequence number on replay");
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected Hello and the replayed batch, got {other:?}"),
        }
        ex.on_frame(&ack(1), now);
        assert_eq!(
            ex.uplink.window_depth(),
            0,
            "cumulative ack releases the window"
        );
        let stats = ex.stats();
        assert_eq!(stats.link.connects, 2);
        assert_eq!(stats.batches_exported, 1);
        assert_eq!(stats.records_exported, 2);
        assert_eq!(stats.link.batches_retransmitted, 1);
        assert_eq!(stats.link.acks_received, 1);
    }

    #[test]
    fn wrong_role_upstream_message_drops_and_redials_the_link() {
        let mut ex = exporter(RelayConfig::new(NodePrefix::new(3).unwrap()));
        let now = Duration::ZERO;
        greeted(&mut ex, now, 1024);
        assert!(ex.ready());
        // A Hello is something only a sender says: the parent is broken,
        // not the bytes, so the link goes at once instead of eating into
        // the decode budget.
        let hello = Message::Hello {
            node: NodeId(1),
            version: VERSION,
        };
        ex.on_frame(&hello.encode(), now);
        assert_eq!(outputs(&mut ex), [Out::Drop]);
        assert!(!ex.uplink.connected(), "link dropped");
        assert_eq!(ex.stats().link.decode_errors, 0);
        // The dropped link had been acked, so the redial is due at once.
        ex.uplink.advance(now);
        assert_eq!(outputs(&mut ex), [Out::Dial]);
        ex.uplink.up();
        assert!(matches!(
            frames(outputs(&mut ex))[..],
            [Message::Hello { .. }]
        ));
        assert_eq!(ex.stats().link.connects, 2);
    }

    #[test]
    fn credit_exhaustion_gates_ready_until_acked() {
        let mut cfg = RelayConfig::new(NodePrefix::new(9).unwrap());
        cfg.max_batch_records = 1;
        let mut ex = exporter(cfg);
        let (now, t) = (Duration::ZERO, UtcMicros::from_micros(1_000));
        greeted(&mut ex, now, 1);
        ex.pump(t).unwrap();
        assert!(ex.ready(), "an empty window always passes");
        ex.on_record(rec(1, 0, 100), t).unwrap();
        assert!(matches!(
            frames(outputs(&mut ex))[..],
            [Message::EventBatch { .. }]
        ));
        ex.pump(t).unwrap();
        assert!(!ex.ready(), "budget of 1 spent by the in-flight record");
        assert!(ex.stats().link.credit_stalls >= 1);
        ex.on_frame(&Message::BatchAck { seq: 1, credit: 1 }.encode(), now);
        ex.pump(t).unwrap();
        assert!(ex.ready(), "ack replenishes the budget");
    }

    #[test]
    fn idle_link_heartbeats() {
        let src = SimTimeSource::new();
        let mut cfg = RelayConfig::new(NodePrefix::new(2).unwrap());
        cfg.heartbeat_interval = Duration::from_millis(10);
        let mut ex = exporter_on(cfg, Arc::new(SimClock::new(src.clone(), 0, 0.0, 1)));
        let now = Duration::ZERO;
        ex.uplink.advance(now);
        assert_eq!(outputs(&mut ex), [Out::Dial]);
        ex.uplink.up();
        assert!(matches!(
            frames(outputs(&mut ex))[..],
            [Message::Hello { .. }]
        ));
        src.advance_by(8_000);
        ex.on_frame(&hello_ack(1024), now);
        src.advance_by(8_000);
        ex.uplink.advance(now);
        assert_eq!(
            ex.stats().link.heartbeats_sent,
            0,
            "the HelloAck restarts the idle clock"
        );
        src.advance_by(7_000);
        ex.uplink.advance(now);
        assert_eq!(ex.stats().link.heartbeats_sent, 1);
        assert_eq!(frames(outputs(&mut ex)), [Message::Heartbeat]);
    }

    /// A relay's machine on a frozen master clock, its upstream link up
    /// and granted credit 1024, and one record in its merge plane.
    fn stopping_relay(prefix: u32, clock: Arc<dyn Clock>) -> Ism {
        let sync = SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        };
        let mut ism = Ism::new(IsmConfig::default(), sync, frozen_clock()).unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(prefix).unwrap());
        ism.hub.core.set_upstream(exporter_on(cfg, clock));
        ism.advance(Duration::ZERO).unwrap();
        assert_eq!(upstream(&mut ism), [Out::Dial]);
        ism.upstream().unwrap().up();
        assert!(matches!(
            frames(upstream(&mut ism))[..],
            [Message::Hello { .. }]
        ));
        ism.on_upstream(&hello_ack(1024), Duration::ZERO).unwrap();
        ism.hub
            .core
            .push_batch([rec(1, 0, 100)], UtcMicros::ZERO)
            .unwrap();
        ism.advance(Duration::ZERO).unwrap();
        assert!(
            upstream(&mut ism).is_empty(),
            "the record waits in the sorter"
        );
        ism
    }

    /// What the machine asked of the upstream link since the last look.
    fn upstream(ism: &mut Ism) -> Vec<Out> {
        let mut outs = Vec::new();
        ism.upstream()
            .unwrap()
            .drain_outputs(|out| outs.push(out.into()));
        outs
    }

    /// Stop `ism` at `now`: the sorter drains into the exporter, which
    /// ships the final batch, seq 1.
    fn stop(ism: &mut Ism, now: Duration) {
        ism.stop(now);
        ism.advance(now).unwrap();
        match &frames(upstream(ism))[..] {
            [Message::EventBatch { seq, records, .. }] => {
                assert_eq!(*seq, Some(1));
                assert_eq!(records.len(), 1);
            }
            other => panic!("expected the final batch, got {other:?}"),
        }
    }

    #[test]
    fn flush_waits_for_the_final_ack() {
        let mut ism = stopping_relay(5, Arc::new(SystemClock));
        let now = Duration::ZERO;
        stop(&mut ism, now);
        assert!(!ism.stopped(), "the stop waits for the final ack");
        ism.on_upstream(&ack(1), now).unwrap();
        ism.advance(now).unwrap();
        assert!(ism.stopped(), "final batch acked before stop");
        let relay = ism.finish().unwrap().relay.unwrap();
        assert_eq!((relay.records_exported, relay.link.acks_received), (1, 1));
    }

    #[test]
    fn sync_poll_during_the_final_drain_is_answered_with_real_time() {
        // A relay without a sync clock (the brisk-sim RelayTree setup):
        // the parent polls it while the stop waits for the last ack. The
        // reply must carry the relay's clock, not a sentinel — a slave
        // time of i64::MAX would make this relay a ~292 000-year-ahead
        // reference for the whole round.
        let mut ism = stopping_relay(6, Arc::new(SystemClock));
        let now = Duration::ZERO;
        stop(&mut ism, now);
        let before = UtcMicros::now();
        let poll = Message::SyncPoll {
            round: 1,
            sample: 0,
            master_send: before,
        };
        ism.on_upstream(&poll.encode(), now).unwrap();
        let slave_time = match &frames(upstream(&mut ism))[..] {
            [Message::SyncReply { slave_time, .. }] => *slave_time,
            other => panic!("expected SyncReply, got {other:?}"),
        };
        let after = UtcMicros::now();
        assert!(
            before <= slave_time && slave_time <= after,
            "poll answered with {slave_time:?}, outside [{before:?}, {after:?}]"
        );
        ism.on_upstream(&ack(1), now).unwrap();
        ism.advance(now).unwrap();
        assert!(ism.stopped());
    }

    #[test]
    fn a_relay_whose_parent_never_acks_stops_at_the_drain_deadline() {
        let mut ism = stopping_relay(4, frozen_clock());
        let now = Duration::from_secs(1);
        stop(&mut ism, now);
        ism.advance(now + UPSTREAM_DRAIN - Duration::from_micros(1))
            .unwrap();
        assert!(!ism.stopped(), "gave up before the drain deadline");
        ism.advance(now + UPSTREAM_DRAIN).unwrap();
        assert!(ism.stopped(), "the drain never ended");
        assert!(upstream(&mut ism).is_empty());
        let relay = ism.finish().unwrap().relay.unwrap();
        // The batch went out, and its ack never came.
        assert_eq!(relay.batches_exported, 1);
        assert_eq!(relay.link.acks_received, 0);
    }

    #[test]
    fn sync_poll_is_answered_and_adjust_steers_the_clock() {
        let cfg = RelayConfig::new(NodePrefix::new(4).unwrap());
        let raw: Arc<dyn Clock> = Arc::new(SystemClock);
        let clock = CorrectedClock::new(raw);
        let mut ex = exporter(cfg).with_sync_clock(Arc::clone(&clock));
        let now = Duration::ZERO;
        ex.uplink.advance(now);
        assert_eq!(outputs(&mut ex), [Out::Dial]);
        ex.uplink.up();
        assert!(matches!(
            frames(outputs(&mut ex))[..],
            [Message::Hello { .. }]
        ));
        let poll = Message::SyncPoll {
            round: 1,
            sample: 0,
            master_send: UtcMicros::from_micros(500),
        };
        ex.on_frame(&poll.encode(), now);
        match &frames(outputs(&mut ex))[..] {
            [Message::SyncReply { round, sample, .. }] => {
                assert_eq!((*round, *sample), (1, 0));
            }
            other => panic!("expected SyncReply, got {other:?}"),
        }
        let adjust = Message::SyncAdjust {
            round: 1,
            advance_us: 250,
        };
        ex.on_frame(&adjust.encode(), now);
        assert_eq!(clock.correction_us(), 250);
        assert_eq!(ex.stats().adjustments, 1);
    }

    #[test]
    fn due_in_is_the_heartbeat_while_up_and_the_redial_while_down() {
        let heartbeat = Duration::from_secs(5);
        let mut cfg = RelayConfig::new(NodePrefix::new(7).unwrap());
        cfg.heartbeat_interval = heartbeat;
        let mut ex = exporter(cfg);
        let now = Duration::ZERO;
        ex.uplink.advance(now);
        ex.uplink.up();
        // An answer the parent owes is link input, not a deadline: the
        // heartbeat stays the only one, and the pipeline's due time is
        // only a partial batch's flush.
        assert!(
            ex.uplink.advance(now).unwrap() > heartbeat / 2,
            "the greeting is owed"
        );
        assert!(ex.uplink.send(&[]));
        assert!(
            ex.uplink.advance(now).unwrap() > heartbeat / 2,
            "an ack is owed"
        );
        assert_eq!(MergeOutput::due_in(&ex, UtcMicros::ZERO), None);
        // A lost link is due at its redial, one backoff away, since the
        // parent never answered.
        ex.uplink.down("test", now);
        let redial = UpstreamExporter::RECONNECT.initial_backoff;
        assert_eq!(ex.uplink.advance(now), Some(now + redial));
    }
}
