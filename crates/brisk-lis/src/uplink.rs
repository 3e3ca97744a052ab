//! The sender side of the session protocol, written once.
//!
//! An [`Uplink`] is everything a *sender* must do with window, credit,
//! acks, replay, heartbeats and control frames (§3.4–3.5). It is session
//! state that outlives any one connection: reconnecting is "keep the
//! `Uplink`, [`Uplink::attach`] the next connection" — `Hello` goes out
//! followed by every still-unacked batch, nothing is carried over by hand.
//! The window holds each batch as the frame it was sent as, encoded once
//! under the sequence number the window assigns, so replay resends the
//! original bytes and callers only lend their records.
//!
//! Two callers sit on it, the [`crate::ExternalSensor`] and the relay
//! ISM's upstream exporter (a relay's upstream link *is* an EXS link).
//! The `Uplink` also owns the one redial policy both follow: it decides
//! when a link is dead and when to dial again. Any link error, an
//! undecodable control frame one past [`CONTROL_ERROR_BUDGET`], or a
//! message a sender must never receive drops *this link*. With a
//! [`ConnectFn`] ([`Uplink::with_redial`]) the next [`Uplink::redial`]
//! dials again under decorrelated-jitter backoff ([`SupervisorConfig`]);
//! without one the link simply stays down. The callers keep one policy
//! difference: after an orderly `Shutdown` the EXS stops, the relay
//! redials. Heartbeats are paced on the sender's own clock, accumulated
//! forward-only, so the EXS stays deterministic under a simulated clock
//! and a clock stepped backward neither stalls nor floods them.
//!
//! The `Uplink` also counts what it sees, once for both callers: its
//! [`UplinkTelemetry`] cells are bumped where each link event happens, and
//! each caller's own telemetry shares them, registered under `role`
//! (`exs` | `relay`) and the link's `node`.

use crate::batch::{SendWindow, SentFrame};
use brisk_clock::Clock;
use brisk_core::{BriskError, EventRecord, NodeId, Result};
use brisk_net::Connection;
use brisk_proto::{encode_batch, Message};
use brisk_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::os::unix::io::RawFd;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Factory producing a fresh connection to the ISM, invoked on every
/// (re)connect.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Undecodable inbound control frames tolerated per connection before it
/// is declared corrupt. Mirrors the ISM-side protocol error budget.
pub const CONTROL_ERROR_BUDGET: u32 = 8;

brisk_telemetry::metrics! {
    /// The cells of one sender link. The [`Uplink`] bumps them in place;
    /// its caller's telemetry holds the same `Arc`, so a registry or
    /// another thread observes a live link without locking.
    pub struct UplinkTelemetry =>
    /// Counters of one sender link, totals across its connections.
    pub struct UplinkStats {
        /// Connections attached (1 = never reconnected).
        pub(crate) connects: counter "brisk_uplink_connects_total" "Connections attached (1 = never reconnected)",
        /// `HelloAck`s received (connections the ISM answered).
        hello_acks: counter "brisk_uplink_hello_acks_total" "HelloAcks received (connections the ISM answered)",
        /// Cumulative `BatchAck`s received.
        acks_received: counter "brisk_uplink_acks_total" "Batch acknowledgements received",
        /// `SyncPoll`s answered.
        sync_replies: counter "brisk_uplink_sync_replies_total" "Sync polls answered",
        /// Inbound control frames that failed to decode and were skipped.
        decode_errors: counter "brisk_uplink_decode_errors_total" "Inbound control frames that failed to decode and were skipped",
        /// Liveness heartbeats sent on idle links.
        heartbeats_sent: counter "brisk_uplink_heartbeats_sent_total" "Liveness heartbeats sent on idle links",
        /// Batches replayed from the window after a reconnect.
        batches_retransmitted: counter "brisk_uplink_batches_retransmitted_total" "Batches replayed from the retransmit window after a reconnect",
        /// Unacked batches evicted from a full window (lost to replay;
        /// at-most-once delivery for those records).
        window_evicted: counter "brisk_uplink_window_evicted_total" "Unacked batches evicted from a full retransmit window",
        /// Credit stalls: checks by [`Uplink::poll_credit`] that found the
        /// budget spent after it was open (leading edges, not durations).
        credit_stalls: counter "brisk_uplink_credit_stalls_total" "Times the sender found its credit budget spent (leading edges)",
        /// 1 while a connection is attached.
        connected: gauge "brisk_uplink_connected" "1 while a connection is attached",
        /// Sent-but-unacked batches held for replay.
        window_depth: gauge "brisk_uplink_window_depth" "Sent-but-unacked batches held for replay",
        /// Granted credit minus unacked in-flight records (0 before the
        /// first grant).
        credit_balance: gauge "brisk_uplink_credit_balance" "Granted credit minus unacked in-flight records (0 before the first grant)",
        /// Windowing a batch → the cumulative ack covering it, in µs on
        /// the link's clock.
        ack_latency_us: histogram "brisk_uplink_ack_latency_us" "Batch windowed to the cumulative ack covering it, on the sender clock",
    }
}

impl UplinkTelemetry {
    /// Register the link's series with `registry`, labeled by the role of
    /// its caller (`exs` | `relay`) and the link's node id.
    pub fn bind(self: &Arc<Self>, role: &str, node: NodeId, registry: &Registry) {
        self.register(registry, &[("role", role), ("node", &node.0.to_string())]);
    }
}

/// Redial policy of a sender's link.
///
/// Backoff uses *decorrelated jitter*: each failed attempt waits a
/// uniformly random duration in `[initial_backoff, 3 × previous]`, capped
/// at `max_backoff`. Pure doubling would synchronize the whole fleet —
/// after an ISM restart every sender observes the disconnect in the same
/// instant and would retry on the same deterministic schedule, hammering
/// the recovering manager in lockstep. The jitter spreads those retries;
/// the per-node RNG seed keeps any one sender's schedule reproducible.
///
/// The backoff resets to `initial_backoff` only once the ISM answers a
/// `Hello` with a `HelloAck` — a bare TCP connect proves only that
/// something is listening, not that the manager is actually serving
/// (e.g. an accept loop whose manager thread is wedged).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// First reconnect delay; grows with decorrelated jitter per
    /// consecutive failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// When to dial next: the jittered backoff schedule of one link.
struct Redial {
    connect: ConnectFn,
    sup: SupervisorConfig,
    rng: StdRng,
    /// Delay the next failure waits before the following attempt.
    backoff: Duration,
    next_attempt: Instant,
}

impl Redial {
    fn new(node: NodeId, connect: ConnectFn, sup: SupervisorConfig) -> Redial {
        Redial {
            connect,
            // Per-node jitter stream: nodes decorrelate from each other
            // while one node's retry schedule stays reproducible.
            rng: StdRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ u64::from(node.0)),
            backoff: sup.initial_backoff,
            next_attempt: Instant::now(),
            sup,
        }
    }

    /// An attempt failed: wait out the current backoff, then widen it to
    /// `min(max, U(initial, 3 × current))`. Returns the wait.
    fn defer(&mut self) -> Duration {
        let wait = self.backoff;
        self.next_attempt = Instant::now() + wait;
        let lo = self.sup.initial_backoff.as_micros() as u64;
        let cap = (self.sup.max_backoff.as_micros() as u64).max(lo);
        let hi = (wait.as_micros() as u64).saturating_mul(3).clamp(lo, cap);
        self.backoff = Duration::from_micros(self.rng.gen_range(lo..=hi));
        wait
    }

    /// The link worked (the ISM answered its `Hello`): dial again at once
    /// and start the next schedule gently.
    fn reset(&mut self) {
        self.backoff = self.sup.initial_backoff;
        self.next_attempt = Instant::now();
    }
}

/// What one inbound control frame turned out to be, after the `Uplink`
/// applied its protocol-level effect.
#[derive(Debug, PartialEq)]
pub enum Control {
    /// An undecodable frame was skipped (within the error budget).
    Skipped,
    /// A `HelloAck`, a `BatchAck` or a `SyncPoll` (answered), fully
    /// handled here.
    Handled,
    /// `SyncAdjust`: the caller owns the correction value and decides
    /// whether to apply these microseconds.
    Adjusted(i64),
    /// The peer announced an orderly shutdown.
    Shutdown,
}

/// Sender-side session state for one node's link to its ISM.
pub struct Uplink {
    node: NodeId,
    /// Answers `SyncPoll`s (the sender's *corrected* time: slaves converge
    /// on each other through their corrections) and paces heartbeats.
    clock: Arc<dyn Clock>,
    heartbeat_interval: Duration,
    conn: Option<Box<dyn Connection>>,
    /// Sent-but-unacked batch frames, replayed byte for byte on every
    /// `attach`.
    window: SendWindow<SentFrame>,
    /// Absolute in-flight budget the ISM re-advertises on `HelloAck` and
    /// every `BatchAck`; `None` until the first `HelloAck` on any
    /// connection, and the link is open until then. Survives `attach`, so
    /// the gap before the new `HelloAck` stays paced by the old grant.
    grant: Option<u64>,
    control_errors: u32,
    /// Heartbeat pacing µs: forward progress of `clock` accrues here, a
    /// backward step contributes nothing.
    paced_us: i64,
    /// Last `clock` reading, to derive forward deltas for `paced_us`.
    last_read_us: i64,
    /// `paced_us` of the last frame sent on this connection.
    last_send_us: i64,
    /// The ISM answered this connection's `Hello`.
    acked: bool,
    /// The last [`Uplink::poll_credit`] found the budget spent.
    stalled: bool,
    /// `None`: a lost link stays down.
    redial: Option<Redial>,
    telemetry: Arc<UplinkTelemetry>,
}

impl Uplink {
    /// New, unattached session for `node`. `clock` answers sync polls and
    /// paces heartbeats; `heartbeat_interval` zero disables them.
    pub fn new(
        node: NodeId,
        clock: Arc<dyn Clock>,
        window_batches: usize,
        heartbeat_interval: Duration,
    ) -> Uplink {
        Uplink {
            node,
            last_read_us: clock.now().as_micros(),
            clock,
            heartbeat_interval,
            conn: None,
            window: SendWindow::new(window_batches),
            grant: None,
            control_errors: 0,
            paced_us: 0,
            last_send_us: 0,
            acked: false,
            stalled: false,
            redial: None,
            telemetry: Arc::default(),
        }
    }

    /// The link's cells (share the `Arc` to observe it from elsewhere).
    pub fn telemetry(&self) -> &Arc<UplinkTelemetry> {
        &self.telemetry
    }

    /// Dial lost links again through `connect` under `sup`'s backoff,
    /// jittered by this link's node id. The first [`Uplink::redial`] is
    /// due at once.
    pub fn with_redial(mut self, connect: ConnectFn, sup: SupervisorConfig) -> Uplink {
        self.redial = Some(Redial::new(self.node, connect, sup));
        self
    }

    /// Replace the clock that answers sync polls and paces heartbeats.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.last_read_us = clock.now().as_micros();
        self.clock = clock;
    }

    /// Advance and read the heartbeat pacing clock.
    fn pace(&mut self) -> i64 {
        let now = self.clock.now().as_micros();
        let delta = now.saturating_sub(self.last_read_us);
        self.last_read_us = now;
        self.paced_us = self.paced_us.saturating_add(delta.max(0));
        self.paced_us
    }

    /// True when a [`ConnectFn`] dials lost links again.
    pub(crate) fn redials(&self) -> bool {
        self.redial.is_some()
    }

    /// The window or the grant moved: refresh their gauges.
    fn window_moved(&self) {
        let t = &self.telemetry;
        let in_flight = self.window.unacked_records() as i64;
        t.window_depth.store(self.window.depth() as i64, Relaxed);
        t.credit_balance
            .store(self.grant.map_or(0, |c| c as i64 - in_flight), Relaxed);
    }

    /// True while a connection is attached.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The credit budget last granted by the ISM; `None` before the first
    /// `HelloAck`.
    pub fn grant(&self) -> Option<u64> {
        self.grant
    }

    /// Sent-but-unacked batches currently held for replay.
    pub fn window_depth(&self) -> usize {
        self.window.depth()
    }

    /// True when flow control permits putting more records in flight: no
    /// grant has arrived yet, or in-flight records are under budget. An
    /// empty window always passes — even a zero grant can only stop *new*
    /// traffic while something is in flight, never deadlock the sender.
    pub fn credit_open(&self) -> bool {
        let w = &self.window;
        self.grant
            .is_none_or(|c| w.depth() == 0 || w.unacked_records() < c)
    }

    /// [`Uplink::credit_open`] as the caller's once-per-pass check: the
    /// first check that finds the budget spent counts one credit stall
    /// and logs it, the checks after it until credit reopens do not.
    pub fn poll_credit(&mut self) -> bool {
        let open = self.credit_open();
        if !open && !self.stalled {
            self.telemetry.credit_stalls.fetch_add(1, Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "uplink",
                "credit_stall",
                "node {} paused: credit budget {:?} spent",
                self.node,
                self.grant
            );
        }
        self.stalled = !open;
        open
    }

    /// How long until this link needs its owner: while down, the next
    /// redial; while up, the next heartbeat. `None` when nothing is due.
    /// Acks and sync polls are link input, not due times.
    pub fn due_in(&self) -> Option<Duration> {
        if self.conn.is_none() {
            let redial = self.redial.as_ref()?;
            return Some(
                redial
                    .next_attempt
                    .saturating_duration_since(Instant::now()),
            );
        }
        if self.heartbeat_interval.is_zero() {
            return None;
        }
        let now = self.clock.now().as_micros();
        let paced = self.paced_us + now.saturating_sub(self.last_read_us).max(0);
        let idle = paced.saturating_sub(self.last_send_us).max(0) as u64;
        Some(
            self.heartbeat_interval
                .saturating_sub(Duration::from_micros(idle)),
        )
    }

    /// The fd a sleeper waits on for this link's input; `None` when it
    /// must not wait: input is already buffered, or the link has no
    /// socket left (its next read fails at once) or is down.
    pub fn wait_fd(&self) -> Option<RawFd> {
        let conn = self.conn.as_ref()?;
        if conn.has_buffered() {
            return None;
        }
        conn.poll_fd()
    }

    /// Adopt `conn`: send `Hello`, then replay every unacked batch in
    /// sequence order ahead of new traffic. Returns how many batches were
    /// replayed (harmless if the ISM already processed them: it dedups by
    /// `(node, seq)`). On error nothing is attached and the window is intact.
    pub fn attach(&mut self, mut conn: Box<dyn Connection>) -> Result<usize> {
        self.conn = None;
        self.telemetry.connected.store(0, Relaxed);
        self.control_errors = 0;
        self.acked = false;
        conn.send(
            &Message::Hello {
                node: self.node,
                version: brisk_proto::VERSION,
            }
            .encode(),
        )?;
        // Replay deliberately ignores credit: those records were already
        // granted in flight by the previous connection, and holding them
        // back would stall recovery behind acks that cannot arrive yet.
        for (_, batch) in self.window.iter_unacked() {
            conn.send(&batch.frame)?;
        }
        self.conn = Some(conn);
        let replayed = self.window.depth();
        let t = &self.telemetry;
        t.connects.fetch_add(1, Relaxed);
        t.batches_retransmitted.fetch_add(replayed as u64, Relaxed);
        t.connected.store(1, Relaxed);
        self.last_send_us = self.pace();
        Ok(replayed)
    }

    /// With the link down, a [`ConnectFn`] set and the backoff elapsed,
    /// dial and [`Uplink::attach`]; `true` once a connection is attached.
    /// A failed attempt schedules the next one.
    pub fn redial(&mut self) -> bool {
        let Some(r) = &self.redial else {
            return false;
        };
        if self.conn.is_some() || r.next_attempt > Instant::now() {
            return false;
        }
        let dialed = (r.connect)();
        match dialed.and_then(|conn| self.attach(conn)) {
            Ok(replayed) => {
                brisk_telemetry::flight_log!(
                    Info,
                    "uplink",
                    "connect",
                    "node {} attached connection {}; replayed {replayed} unacked batches",
                    self.node,
                    self.telemetry.connects.load(Relaxed)
                );
                true
            }
            Err(_) => {
                self.redial.as_mut().map(Redial::defer);
                false
            }
        }
    }

    /// Drop the connection (if any); the window and credit are kept for
    /// the next [`Uplink::attach`]. With a [`ConnectFn`], the next dial is
    /// due at once if the ISM answered this connection's `Hello`, and
    /// after the backoff otherwise.
    pub fn drop_link(&mut self, why: &str) {
        if self.conn.take().is_none() {
            return;
        }
        self.telemetry.connected.store(0, Relaxed);
        brisk_telemetry::flight_log!(
            Warn,
            "uplink",
            "disconnect",
            "node {} lost its link ({why}); {} unacked batches held for replay",
            self.node,
            self.window.depth()
        );
        match &mut self.redial {
            Some(r) if self.acked => r.reset(),
            Some(r) => {
                r.defer();
            }
            None => {}
        }
    }

    /// Drop the link over `e` and hand `e` back: every link error the
    /// `Uplink` returns means the link is gone.
    fn fail(&mut self, e: BriskError) -> BriskError {
        self.drop_link(&e.to_string());
        e
    }

    /// Encode a batch under the next sequence number and retain the frame
    /// for replay without sending it (the link is down); the next `attach`
    /// delivers it. A full window evicts its oldest unacked batch, which
    /// is then beyond replay.
    pub fn stash(&mut self, records: &[EventRecord]) {
        let next = self.window.next_seq();
        let frame = encode_batch(self.node, Some(next), records);
        let (seq, evicted) = self.window.push(SentFrame {
            frame,
            records: records.len() as u64,
            windowed_us: self.clock.now().as_micros(),
        });
        debug_assert_eq!(seq, next);
        if evicted.is_some() {
            self.telemetry.window_evicted.fetch_add(1, Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "uplink",
                "window_evict",
                "node {} evicted an unacked batch from a full window (size {})",
                self.node,
                self.window.depth()
            );
        }
        self.window_moved();
    }

    /// Window a fresh batch and ship it. The window effect happens
    /// whether or not the link send succeeds: a batch whose send failed
    /// stays windowed and the next `attach` replays it. The records are
    /// only borrowed, so the caller can reuse them.
    pub fn send(&mut self, records: &[EventRecord]) -> Result<()> {
        self.stash(records);
        let batch = self.window.newest().expect("a batch was just windowed");
        let sent = send_on(&mut self.conn, &batch.frame);
        self.sent(sent)
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<()> {
        let sent = send_on(&mut self.conn, frame);
        self.sent(sent)
    }

    /// Account one send attempt: a failure drops the link, a success
    /// resets the heartbeat pacing.
    fn sent(&mut self, sent: Result<()>) -> Result<()> {
        sent.map_err(|e| self.fail(e))?;
        self.last_send_us = self.pace();
        Ok(())
    }

    /// Best-effort orderly `Shutdown` notice.
    pub fn send_shutdown(&mut self) {
        let _ = self.send_frame(&Message::Shutdown.encode());
    }

    /// Send a `Heartbeat` when the link has been send-idle for a full
    /// interval (a zero interval disables them). Any frame sent — and the
    /// `HelloAck` — resets the pacing, so heartbeats only ever ride an
    /// otherwise-quiet link. Returns whether one was sent.
    pub fn heartbeat_if_idle(&mut self) -> Result<bool> {
        if self.heartbeat_interval.is_zero() || self.conn.is_none() {
            return Ok(false);
        }
        let interval_us = self.heartbeat_interval.as_micros() as i64;
        if self.pace().saturating_sub(self.last_send_us) < interval_us {
            return Ok(false);
        }
        self.send_frame(&Message::Heartbeat.encode())?;
        self.telemetry.heartbeats_sent.fetch_add(1, Relaxed);
        Ok(true)
    }

    /// Decode one inbound frame and apply its protocol-level effect. An
    /// undecodable frame (corrupted wire) is skipped rather than fatal —
    /// up to the budget. One frame past it, a message a sender must never
    /// receive, or a `Shutdown` refusing a *re*connect before its
    /// `HelloAck` drops the link and returns the error.
    fn handle_frame(&mut self, frame: &[u8]) -> Result<Control> {
        let msg = match Message::decode(frame) {
            Ok(msg) => msg,
            Err(_) if self.control_errors < CONTROL_ERROR_BUDGET => {
                self.control_errors += 1;
                self.telemetry.decode_errors.fetch_add(1, Relaxed);
                return Ok(Control::Skipped);
            }
            Err(e) => return Err(self.fail(e.into())),
        };
        Ok(match msg {
            Message::HelloAck { credit, .. } => {
                self.acked = true;
                self.grant = Some(credit);
                // Idle time before the greeting completed doesn't count
                // toward the heartbeat deadline.
                self.last_send_us = self.pace();
                self.telemetry.hello_acks.fetch_add(1, Relaxed);
                brisk_telemetry::flight_log!(
                    Info,
                    "uplink",
                    "hello_ack",
                    "node {} granted credit {credit}",
                    self.node
                );
                self.window_moved();
                Control::Handled
            }
            Message::BatchAck { seq, credit } => {
                let now = self.clock.now().as_micros();
                for (_, batch) in self.window.iter_unacked().take_while(|(s, _)| *s <= seq) {
                    let waited = now.saturating_sub(batch.windowed_us).max(0);
                    self.telemetry.ack_latency_us.record(waited as u64);
                }
                self.window.ack(seq);
                // The piggybacked grant re-advertises the budget absolutely.
                self.grant = Some(credit);
                self.telemetry.acks_received.fetch_add(1, Relaxed);
                self.window_moved();
                Control::Handled
            }
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                let reply = Message::SyncReply {
                    round,
                    sample,
                    master_send,
                    slave_time: self.clock.now(),
                };
                self.send_frame(&reply.encode())?;
                self.telemetry.sync_replies.fetch_add(1, Relaxed);
                Control::Handled
            }
            Message::SyncAdjust { advance_us, .. } => Control::Adjusted(advance_us),
            // The ISM answers a `Hello` for a node id it still holds with
            // `Shutdown`; right after a link death the holder is our own
            // dead connection, not yet reaped. That is a refusal to retry,
            // not an orderly stop: the claim is released within a tick.
            Message::Shutdown if self.telemetry.connects.load(Relaxed) > 1 && !self.acked => {
                return Err(self.fail(BriskError::Protocol(
                    "reconnect refused before its HelloAck".into(),
                )))
            }
            Message::Shutdown => Control::Shutdown,
            other => {
                return Err(self.fail(BriskError::Protocol(format!(
                    "a sender must never receive {other:?}"
                ))))
            }
        })
    }

    /// Receive one inbound frame, waiting at most `wait`, and apply its
    /// protocol-level effect; `None` when nothing arrived. An undecodable
    /// frame is skipped rather than fatal, up to [`CONTROL_ERROR_BUDGET`].
    pub fn poll_control(&mut self, wait: Duration) -> Result<Option<Control>> {
        let conn = self.conn.as_mut().ok_or(BriskError::Disconnected)?;
        match conn.recv(Some(wait)).map_err(|e| self.fail(e))? {
            Some(frame) => self.handle_frame(&frame).map(Some),
            None => Ok(None),
        }
    }
}

fn send_on(conn: &mut Option<Box<dyn Connection>>, frame: &[u8]) -> Result<()> {
    conn.as_mut().ok_or(BriskError::Disconnected)?.send(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem_pair, recv_msg};
    use brisk_clock::SystemClock;
    use brisk_proto::NodePrefix;

    fn uplink() -> Uplink {
        Uplink::new(
            NodeId(7),
            Arc::new(SystemClock),
            8,
            Duration::from_millis(100),
        )
    }

    #[test]
    fn send_on_a_detached_link_still_windows_the_batch() {
        let mut up = uplink();
        assert!(up.send(&[]).unwrap_err().is_disconnect());
        assert_eq!(up.window_depth(), 1);
        // Attaching replays it right after the Hello.
        let (mut ism, conn) = mem_pair();
        assert_eq!(up.attach(conn).unwrap(), 1);
        assert!(matches!(recv_msg(&mut ism), Message::Hello { .. }));
        assert!(matches!(
            recv_msg(&mut ism),
            Message::EventBatch { seq: Some(1), .. }
        ));
    }

    #[test]
    fn the_uplink_counts_its_own_link_events() {
        let mut up = uplink();
        let (mut ism, conn) = mem_pair();
        assert_eq!(up.attach(conn).unwrap(), 0);
        for _ in 0..3 {
            up.send(&[]).unwrap();
        }
        let ack = Message::BatchAck {
            seq: 1,
            credit: 1024,
        };
        ism.send(&ack.encode()).unwrap();
        let wait = Duration::from_secs(1);
        assert_eq!(up.poll_control(wait).unwrap(), Some(Control::Handled));
        ism.send(&[0xba, 0xad]).unwrap();
        assert_eq!(up.poll_control(wait).unwrap(), Some(Control::Skipped));
        up.drop_link("test");
        let (_ism2, conn) = mem_pair();
        assert_eq!(up.attach(conn).unwrap(), 2);

        let t = up.telemetry();
        let stats = t.snapshot();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.batches_retransmitted, 2);
        assert_eq!(stats.acks_received, 1);
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(t.window_depth.load(Relaxed), 2);
        assert_eq!(t.connected.load(Relaxed), 1);
        assert_eq!(t.ack_latency_us.snapshot().count(), 1, "one batch acked");
    }

    #[test]
    fn next_backoff_is_bounded_and_deterministic() {
        let sup = SupervisorConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        };
        // The waits a link whose every dial fails would sit out.
        let waits = |node: NodeId| {
            let refuse: ConnectFn = Box::new(|| Err(BriskError::Disconnected));
            let mut r = Redial::new(node, refuse, sup.clone());
            (0..1000).map(|_| r.defer()).collect::<Vec<_>>()
        };
        let relays = [1, 2].map(|p| NodePrefix::new(p).unwrap().relay_node());
        for node in relays {
            let seq = waits(node);
            assert_eq!(
                seq[0], sup.initial_backoff,
                "the first retry waits the floor"
            );
            for w in seq.windows(2) {
                let (prev, next) = (w[0], w[1]);
                assert!(next >= sup.initial_backoff, "below floor: {next:?}");
                assert!(next <= sup.max_backoff, "above cap: {next:?}");
                assert!(next <= prev * 3, "grew faster than 3×: {prev:?} → {next:?}");
            }
            // Same node → identical sequence, so a flaky reconnect storm
            // can be replayed exactly.
            assert_eq!(seq, waits(node));
        }
        // Two relays orphaned by the same parent restart do not redial in
        // lockstep.
        assert_ne!(waits(relays[0]), waits(relays[1]));
    }
}
