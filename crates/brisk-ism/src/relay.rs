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
//! The server's one loop owns the exporter and polls the link's fd
//! ([`UpstreamExporter::wait_fd`]) beside its connections. Link input
//! (an ack, a `SyncPoll`) ticks the loop at once, and its tick
//! [`MergeOutput::pump`]s the exporter; nothing reads the link on a
//! timer. The exporter's own due times are its partial batch's flush and
//! the link's heartbeat or redial.
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
use std::os::unix::io::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use brisk_lis::uplink::ConnectFn;

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
        /// Batches shipped upstream (first transmissions).
        batches_exported: counter "brisk_relay_exported_batches_total" "Merged batches shipped upstream (first transmissions)",
        /// Records shipped upstream (first transmissions).
        records_exported: counter "brisk_relay_exported_records_total" "Merged records shipped upstream (first transmissions)",
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
/// ordinary EXS session ([`Uplink`]), which also redials lost links.
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
}

impl UpstreamExporter {
    /// Redial backoff after a link failure — the EXS's policy.
    const RECONNECT: SupervisorConfig = SupervisorConfig {
        initial_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_secs(2),
    };

    /// New exporter. Nothing is connected yet; the first
    /// [`MergeOutput::pump`] dials upstream. `clock` is the relay's own
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
        .with_redial(connect, Self::RECONNECT);
        let shared = Arc::new(RelayTelemetry {
            link: Arc::clone(uplink.telemetry()),
            ..RelayTelemetry::default()
        });
        UpstreamExporter {
            batcher: Batcher::new(synth),
            uplink,
            sync_clock: None,
            shared,
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

    /// The fd to watch for the parent's traffic ([`Uplink::wait_fd`]);
    /// `None` while the link is down, or when it must not be waited on
    /// (then [`MergeOutput::due_in`] reports it due now).
    pub fn wait_fd(&self) -> Option<RawFd> {
        self.uplink.wait_fd()
    }

    /// Window a fresh batch and ship it. On a dead link the batch simply
    /// stays windowed; the next reconnect's replay delivers it.
    fn ship(&mut self, records: Vec<EventRecord>) {
        let n = records.len() as u64;
        let sent = self.uplink.send(&records);
        self.batcher.recycle(records);
        if sent.is_ok() {
            self.shared.batches_exported.fetch_add(1, Ordering::Relaxed);
            self.shared.records_exported.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Wait up to `wait` for one frame of the parent's control traffic
    /// and apply this relay's policy to it. `false` when nothing arrived
    /// or the link is (now) down — an error means the uplink dropped it.
    fn poll_control(&mut self, wait: Duration) -> bool {
        match self.uplink.poll_control(wait) {
            Ok(None) | Err(_) => return false,
            Ok(Some(Control::Skipped | Control::Handled)) => {}
            Ok(Some(Control::Adjusted(advance_us))) => {
                if let Some(c) = &self.sync_clock {
                    c.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Some(Control::Shutdown)) => {
                // The parent is retiring this link (eviction, restart):
                // drop it like any other and dial again.
                self.uplink.drop_link("upstream sent Shutdown");
                return false;
            }
        }
        true
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

    /// Per-tick housekeeping: redial once due, answer control traffic,
    /// flush the latency knob, heartbeat, check credit.
    fn pump(&mut self, now: UtcMicros) -> Result<()> {
        self.uplink.redial();
        while self.poll_control(Duration::ZERO) {}
        if let Some((batch, _reason)) = self.batcher.poll_timeout(now) {
            self.ship(batch);
        }
        // A failed heartbeat dropped the link; the next tick redials.
        let _ = self.uplink.heartbeat_if_idle();
        // Notes a stall's leading edge; `ready` reads credit exactly.
        self.uplink.poll_credit();
        Ok(())
    }

    /// The partial batch's flush timeout or the link's own due time
    /// ([`Uplink::due_in`]: its heartbeat, or its redial while down).
    /// Link input is no due time: it wakes the loop through
    /// [`UpstreamExporter::wait_fd`], and a live link with no fd to wait
    /// on is due now.
    fn due_in(&self, now: UtcMicros) -> Option<Duration> {
        let flush = self.batcher.time_to_deadline(now);
        let flush = flush.map(|us| Duration::from_micros(us.max(0) as u64));
        let unwatched = self.uplink.connected() && self.uplink.wait_fd().is_none();
        let now_due = unwatched.then_some(Duration::ZERO);
        [flush, now_due, self.uplink.due_in()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Shutdown path: ship the final partial batch, then wait briefly
    /// for the parent's acks to drain the window so an orderly stop
    /// leaves nothing only-locally-buffered.
    fn flush(&mut self) -> Result<()> {
        if let Some((batch, _reason)) = self.batcher.flush() {
            self.ship(batch);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.uplink.window_depth() > 0 && self.uplink.connected() && Instant::now() < deadline
        {
            self.poll_control(Duration::from_millis(20));
        }
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use brisk_lis::testkit::recv_msg;
    use brisk_net::{Connection, Listener, MemTransport, Transport};
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

    fn exporter(t: &Arc<MemTransport>, name: &'static str, cfg: RelayConfig) -> UpstreamExporter {
        let t = Arc::clone(t);
        UpstreamExporter::new(
            cfg,
            Box::new(move || t.connect(name)),
            Arc::new(SystemClock),
        )
    }

    fn accept(l: &mut Box<dyn Listener>) -> Box<dyn Connection> {
        l.accept(Some(Duration::from_secs(1)))
            .unwrap()
            .expect("exporter must dial")
    }

    #[test]
    fn ships_rewritten_batches_and_replays_across_reconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("up").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(7).unwrap());
        cfg.max_batch_records = 2;
        let mut ex = exporter(&t, "up", cfg);
        let now = UtcMicros::from_micros(1_000);

        assert!(!ex.ready(), "no link yet");
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        match recv_msg(&mut server) {
            Message::Hello { node, version } => {
                assert_eq!(node, NodeId(7), "relay introduces itself as its prefix");
                assert_eq!(version, VERSION);
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        server
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready());

        // Two records trip the record knob: one batch ships, rewritten.
        ex.on_record(rec(3, 0, 100), now).unwrap();
        ex.on_record(rec(4, 1, 200), now).unwrap();
        match recv_msg(&mut server) {
            Message::EventBatch { node, seq, records } => {
                assert_eq!(node, NodeId(7), "header node is the relay itself");
                assert_eq!(seq, Some(1));
                assert_eq!(records[0].node, NodeId((3 << 8) | 7));
                assert_eq!(records[1].node, NodeId((4 << 8) | 7));
            }
            other => panic!("expected EventBatch, got {other:?}"),
        }
        assert_eq!(ex.uplink.window_depth(), 1, "unacked batch stays windowed");

        // Kill the link without acking: the exporter must notice, back
        // off, redial, and replay the unacked batch.
        drop(server);
        ex.pump(now).unwrap();
        assert!(!ex.uplink.connected(), "dead link detected");
        std::thread::sleep(UpstreamExporter::RECONNECT.initial_backoff);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        match recv_msg(&mut server) {
            Message::Hello { node, .. } => assert_eq!(node, NodeId(7)),
            other => panic!("expected Hello, got {other:?}"),
        }
        match recv_msg(&mut server) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(1), "same sequence number on replay");
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected replayed EventBatch, got {other:?}"),
        }
        server
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
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
        let t = MemTransport::new();
        let mut listener = t.listen("role").unwrap();
        let mut ex = exporter(&t, "role", RelayConfig::new(NodePrefix::new(3).unwrap()));
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        let ack = Message::HelloAck {
            version: VERSION,
            credit: 1024,
        };
        server.send(&ack.encode()).unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready());
        // A Hello is something only a sender says: the parent is broken,
        // not the bytes, so the link goes at once instead of eating into
        // the decode budget.
        let hello = Message::Hello {
            node: NodeId(1),
            version: VERSION,
        };
        server.send(&hello.encode()).unwrap();
        ex.pump(now).unwrap();
        assert!(!ex.uplink.connected(), "link dropped");
        assert_eq!(ex.stats().link.decode_errors, 0);
        // The dropped link had been acked, so the redial is due at once.
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        assert!(matches!(recv_msg(&mut server), Message::Hello { .. }));
        assert_eq!(ex.stats().link.connects, 2);
    }

    #[test]
    fn credit_exhaustion_gates_ready_until_acked() {
        let t = MemTransport::new();
        let mut listener = t.listen("credit").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(9).unwrap());
        cfg.max_batch_records = 1;
        let mut ex = exporter(&t, "credit", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: 1,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "an empty window always passes");
        ex.on_record(rec(1, 0, 100), now).unwrap();
        let _batch = recv_msg(&mut server);
        ex.pump(now).unwrap();
        assert!(!ex.ready(), "budget of 1 spent by the in-flight record");
        assert!(ex.stats().link.credit_stalls >= 1);
        server
            .send(&Message::BatchAck { seq: 1, credit: 1 }.encode())
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "ack replenishes the budget");
    }

    #[test]
    fn idle_link_heartbeats() {
        let t = MemTransport::new();
        let mut listener = t.listen("hb").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(2).unwrap());
        cfg.heartbeat_interval = Duration::from_millis(10);
        let mut ex = exporter(&t, "hb", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert_eq!(
            ex.stats().link.heartbeats_sent,
            0,
            "the HelloAck restarts the idle clock"
        );
        std::thread::sleep(Duration::from_millis(15));
        ex.pump(now).unwrap();
        assert_eq!(ex.stats().link.heartbeats_sent, 1);
        match recv_msg(&mut server) {
            Message::Heartbeat => {}
            other => panic!("expected Heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn flush_waits_for_the_final_ack() {
        let t = MemTransport::new();
        let mut listener = t.listen("flush").unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(5).unwrap());
        let mut ex = exporter(&t, "flush", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        // A partial batch sits in the batcher; flush must ship it and
        // wait for the ack.
        ex.on_record(rec(1, 0, 100), now).unwrap();
        assert_eq!(ex.uplink.window_depth(), 0, "partial batch not yet shipped");
        let acker = std::thread::spawn(move || {
            match recv_msg(&mut server) {
                Message::EventBatch { seq, records, .. } => {
                    assert_eq!(seq, Some(1));
                    assert_eq!(records[0].node, NodeId((1 << 8) | 5));
                }
                other => panic!("expected final batch, got {other:?}"),
            }
            server
                .send(
                    &Message::BatchAck {
                        seq: 1,
                        credit: 1024,
                    }
                    .encode(),
                )
                .unwrap();
        });
        ex.flush().unwrap();
        assert_eq!(ex.uplink.window_depth(), 0, "final batch acked before stop");
        acker.join().unwrap();
    }

    #[test]
    fn sync_poll_during_the_final_drain_is_answered_with_real_time() {
        // A relay without a sync clock (the brisk-sim RelayTree setup):
        // the parent polls it while flush() waits for the last ack. The
        // reply must carry the relay's clock, not a sentinel — a slave
        // time of i64::MAX would make this relay a ~292 000-year-ahead
        // reference for the whole round.
        let t = MemTransport::new();
        let mut listener = t.listen("drain-sync").unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(6).unwrap());
        let mut ex = exporter(&t, "drain-sync", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        ex.on_record(rec(1, 0, 100), now).unwrap();
        let parent = std::thread::spawn(move || {
            assert!(matches!(
                recv_msg(&mut server),
                Message::EventBatch { seq: Some(1), .. }
            ));
            let before = UtcMicros::now();
            server
                .send(
                    &Message::SyncPoll {
                        round: 1,
                        sample: 0,
                        master_send: before,
                    }
                    .encode(),
                )
                .unwrap();
            let slave_time = match recv_msg(&mut server) {
                Message::SyncReply { slave_time, .. } => slave_time,
                other => panic!("expected SyncReply, got {other:?}"),
            };
            server
                .send(
                    &Message::BatchAck {
                        seq: 1,
                        credit: 1024,
                    }
                    .encode(),
                )
                .unwrap();
            (before, slave_time, UtcMicros::now())
        });
        ex.flush().unwrap();
        let (before, slave_time, after) = parent.join().unwrap();
        assert!(
            before <= slave_time && slave_time <= after,
            "poll answered with {slave_time:?}, outside [{before:?}, {after:?}]"
        );
        assert_eq!(ex.uplink.window_depth(), 0);
    }

    #[test]
    fn sync_poll_is_answered_and_adjust_steers_the_clock() {
        let t = MemTransport::new();
        let mut listener = t.listen("sync").unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(4).unwrap());
        let raw: Arc<dyn Clock> = Arc::new(SystemClock);
        let clock = CorrectedClock::new(raw);
        let mut ex = exporter(&t, "sync", cfg).with_sync_clock(Arc::clone(&clock));
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::SyncPoll {
                    round: 1,
                    sample: 0,
                    master_send: UtcMicros::from_micros(500),
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        match recv_msg(&mut server) {
            Message::SyncReply { round, sample, .. } => {
                assert_eq!((round, sample), (1, 0));
            }
            other => panic!("expected SyncReply, got {other:?}"),
        }
        server
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 250,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert_eq!(clock.correction_us(), 250);
        assert_eq!(ex.stats().adjustments, 1);
    }

    #[test]
    fn due_in_is_the_heartbeat_while_up_and_the_redial_while_down() {
        let t = MemTransport::new();
        let mut listener = t.listen("due").unwrap();
        let heartbeat = Duration::from_secs(5);
        let mut cfg = RelayConfig::new(NodePrefix::new(7).unwrap());
        cfg.heartbeat_interval = heartbeat;
        let mut ex = exporter(&t, "due", cfg);
        let now = UtcMicros::ZERO;
        ex.pump(now).unwrap();
        let _server = accept(&mut listener);
        // An answer the parent owes is link input, watched through the
        // fd, not a due time: the heartbeat stays the only one.
        assert!(ex.wait_fd().is_some());
        assert!(
            ex.due_in(now).unwrap() > heartbeat / 2,
            "the greeting is owed"
        );
        ex.uplink.send(&[]).unwrap();
        assert!(ex.due_in(now).unwrap() > heartbeat / 2, "an ack is owed");
        // A lost link has nothing to watch and is due at its redial, one
        // backoff away, since the parent never answered.
        ex.uplink.drop_link("test");
        assert_eq!(ex.wait_fd(), None);
        assert!(ex.due_in(now).unwrap() <= UpstreamExporter::RECONNECT.initial_backoff);
    }
}
