//! The sender side of the session protocol, written once, as a machine.
//!
//! An [`Uplink`] is everything a *sender* decides about window, credit,
//! acks, replay, heartbeats, control frames and redial (§3.4–3.5), and
//! none of its I/O: it holds no socket, no dialer and no wall clock. Its
//! inputs carry the driver's monotonic `now` where time matters: the link
//! came up ([`Uplink::up`]) or was lost ([`Uplink::down`]), a frame
//! arrived ([`Uplink::on_frame`]), a batch is to be shipped
//! ([`Uplink::send`]), and time itself ([`Uplink::advance`]). Its outputs
//! ([`Uplink::drain_outputs`]) are a dial, a frame to send and a link to
//! drop, and [`Uplink::advance`] returns its one next deadline: the
//! heartbeat while up, the next dial while down. The driver side,
//! [`crate::runtime::Link`], owns the socket and the dialer and reports
//! back what became of them; the EXS runtime and the ISM's loop both use
//! it.
//!
//! The `Uplink` is session state that outlives any one link: when a link
//! comes up, `Hello` goes out followed by every still-unacked batch, and
//! nothing is carried over by hand. The window holds each batch as the
//! frame it was sent as, encoded once under the sequence number the window
//! assigns, so replay resends the original bytes, callers only lend their
//! records, and a send output lends the window's frame rather than a copy.
//!
//! Two callers sit on it, the [`crate::ExternalSensor`] and the relay
//! ISM's upstream exporter (a relay's upstream link *is* an EXS link).
//! The `Uplink` also owns the one redial policy both follow: it decides
//! when a link is dead and when to dial again. A lost link, an
//! undecodable control frame one past [`CONTROL_ERROR_BUDGET`], or a
//! message a sender must never receive ends *this link*, and the next
//! dial is due on the driver's clock: at once if the ISM answered the
//! link's `Hello`, else after a decorrelated-jitter backoff
//! ([`SupervisorConfig`]). A driver with no dialer ends with its link.
//! The callers keep one policy difference: after an orderly `Shutdown`
//! the EXS stops, the relay redials. Heartbeats and `SyncReply`s stay on
//! the sender's own clock; heartbeats are paced by its forward progress,
//! so the EXS stays deterministic under a simulated clock and a clock
//! stepped backward neither stalls nor floods them.
//!
//! The `Uplink` also counts what it sees, once for both callers: its
//! [`UplinkTelemetry`] cells are bumped where each link event happens, and
//! each caller's own telemetry shares them, registered under `role`
//! (`exs` | `relay`) and the link's `node`.

use crate::batch::{SendWindow, SentFrame};
use brisk_clock::Clock;
use brisk_core::{EventRecord, NodeId};
use brisk_proto::{encode_batch, Message};
use brisk_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// Undecodable inbound control frames tolerated per link before it is
/// declared corrupt. Mirrors the ISM-side protocol error budget.
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

/// When to dial next: the jittered backoff schedule of one link, on the
/// driver's clock.
struct Redial {
    sup: SupervisorConfig,
    rng: StdRng,
    /// Delay the next failure waits before the following attempt.
    backoff: Duration,
    next_attempt: Duration,
}

impl Redial {
    fn new(node: NodeId, sup: SupervisorConfig) -> Redial {
        Redial {
            // Per-node jitter stream: nodes decorrelate from each other
            // while one node's retry schedule stays reproducible.
            rng: StdRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ u64::from(node.0)),
            backoff: sup.initial_backoff,
            next_attempt: Duration::ZERO,
            sup,
        }
    }

    /// An attempt failed at `now`: wait out the current backoff, then
    /// widen it to `min(max, U(initial, 3 × current))`. Returns the wait.
    fn defer(&mut self, now: Duration) -> Duration {
        let wait = self.backoff;
        self.next_attempt = now + wait;
        let lo = self.sup.initial_backoff.as_micros() as u64;
        let cap = (self.sup.max_backoff.as_micros() as u64).max(lo);
        let hi = (wait.as_micros() as u64).saturating_mul(3).clamp(lo, cap);
        self.backoff = Duration::from_micros(self.rng.gen_range(lo..=hi));
        wait
    }

    /// The link worked (the ISM answered its `Hello`): dial again at once
    /// and start the next schedule gently.
    fn reset(&mut self, now: Duration) {
        self.backoff = self.sup.initial_backoff;
        self.next_attempt = now;
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
    /// The frame ended the link (one undecodable frame past the budget,
    /// a message a sender must never receive, or a refused reconnect):
    /// the `Uplink` is down and has told its driver to drop the link.
    Dropped,
}

/// What the [`Uplink`] asks of its driver, in the order it decided it.
#[derive(Debug, PartialEq, Eq)]
pub enum LinkOutput<'a> {
    /// Dial the ISM, then report [`Uplink::up`] or [`Uplink::down`].
    Dial,
    /// Send one encoded frame on the link. A batch's frame is the
    /// window's own, lent rather than copied.
    Send(&'a [u8]),
    /// Drop the link: the `Uplink` has given it up and counts it down.
    Drop,
}

enum Queued {
    Dial,
    /// A frame in the outbox's buffer.
    Frame(Range<usize>),
    /// The window's frame of this sequence number.
    Batch(u64),
    Drop,
}

/// Outputs not yet drained. Control frames share one buffer, reused, so
/// an output costs no allocation.
#[derive(Default)]
struct Outbox {
    frames: Vec<u8>,
    queued: Vec<Queued>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkState {
    /// No link: the next dial is due at `Redial::next_attempt`.
    Down,
    /// A dial is out; the driver reports its outcome.
    Dialing,
    Up,
}

/// Sender-side session state for one node's link to its ISM.
pub struct Uplink {
    node: NodeId,
    /// Answers `SyncPoll`s (the sender's *corrected* time: slaves converge
    /// on each other through their corrections) and paces heartbeats.
    clock: Arc<dyn Clock>,
    heartbeat_interval: Duration,
    state: LinkState,
    /// Sent-but-unacked batch frames, replayed byte for byte whenever a
    /// link comes up.
    window: SendWindow<SentFrame>,
    /// Absolute in-flight budget the ISM re-advertises on `HelloAck` and
    /// every `BatchAck`; `None` until the first `HelloAck` on any link,
    /// and the link is open until then. Survives a reconnect, so the gap
    /// before the new `HelloAck` stays paced by the old grant.
    grant: Option<u64>,
    control_errors: u32,
    /// Heartbeat pacing µs: forward progress of `clock` accrues here, a
    /// backward step contributes nothing.
    paced_us: i64,
    /// Last `clock` reading, to derive forward deltas for `paced_us`.
    last_read_us: i64,
    /// `paced_us` of the last frame sent on this link.
    last_send_us: i64,
    /// The ISM answered this link's `Hello`.
    acked: bool,
    /// The last [`Uplink::poll_credit`] found the budget spent.
    stalled: bool,
    redial: Redial,
    out: Outbox,
    telemetry: Arc<UplinkTelemetry>,
}

impl Uplink {
    /// New session for `node`, its link down and its first dial due at
    /// once, redialing under [`SupervisorConfig::default`]. `clock`
    /// answers sync polls and paces heartbeats; `heartbeat_interval` zero
    /// disables them.
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
            state: LinkState::Down,
            window: SendWindow::new(window_batches),
            grant: None,
            control_errors: 0,
            paced_us: 0,
            last_send_us: 0,
            acked: false,
            stalled: false,
            redial: Redial::new(node, SupervisorConfig::default()),
            out: Outbox::default(),
            telemetry: Arc::default(),
        }
    }

    /// Redial lost links under `sup`'s backoff, jittered by this link's
    /// node id.
    pub fn with_backoff(mut self, sup: SupervisorConfig) -> Uplink {
        self.redial = Redial::new(self.node, sup);
        self
    }

    /// The link's cells (share the `Arc` to observe it from elsewhere).
    pub fn telemetry(&self) -> &Arc<UplinkTelemetry> {
        &self.telemetry
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

    /// The window or the grant moved: refresh their gauges.
    fn window_moved(&self) {
        let t = &self.telemetry;
        let in_flight = self.window.unacked_records() as i64;
        t.window_depth.store(self.window.depth() as i64, Relaxed);
        t.credit_balance
            .store(self.grant.map_or(0, |c| c as i64 - in_flight), Relaxed);
    }

    /// True while the link is up.
    pub fn connected(&self) -> bool {
        self.state == LinkState::Up
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

    /// Queue `msg` for a live link; the frame restarts the heartbeat
    /// pacing. Nothing is queued while the link is not up.
    fn queue(&mut self, msg: &Message) {
        if self.state != LinkState::Up {
            return;
        }
        let Outbox { frames, queued } = &mut self.out;
        let start = frames.len();
        msg.encode_into(frames);
        queued.push(Queued::Frame(start..frames.len()));
        self.last_send_us = self.pace();
    }

    /// A dial succeeded: `Hello` goes out, then every unacked batch in
    /// sequence order ahead of new traffic (harmless if the ISM already
    /// processed them: it dedups by `(node, seq)`). Replay deliberately
    /// ignores credit: those records were already granted in flight by
    /// the previous link, and holding them back would stall recovery
    /// behind acks that cannot arrive yet.
    pub fn up(&mut self) {
        self.state = LinkState::Up;
        self.control_errors = 0;
        self.acked = false;
        let hello = Message::Hello {
            node: self.node,
            version: brisk_proto::VERSION,
        };
        self.queue(&hello);
        let replay = self
            .window
            .iter_unacked()
            .map(|(seq, _)| Queued::Batch(seq));
        self.out.queued.extend(replay);
        let replayed = self.window.depth();
        let t = &self.telemetry;
        t.connects.fetch_add(1, Relaxed);
        t.batches_retransmitted.fetch_add(replayed as u64, Relaxed);
        t.connected.store(1, Relaxed);
        brisk_telemetry::flight_log!(
            Info,
            "uplink",
            "connect",
            "node {} attached connection {}; replayed {replayed} unacked batches",
            self.node,
            t.connects.load(Relaxed)
        );
    }

    /// The link is gone at `now` (a dial, a send or a read failed): what
    /// was queued for it is moot. The window and credit are kept for the
    /// next link, due at once if the ISM answered this link's `Hello` and
    /// after the backoff otherwise.
    pub fn down(&mut self, why: &str, now: Duration) {
        self.lose(why, now);
        self.out.queued.clear();
        self.out.frames.clear();
    }

    /// Give the link up at `now`: what is queued still goes out, then the
    /// driver is told to drop it, and the `Uplink` counts it down.
    pub fn drop_link(&mut self, why: &str, now: Duration) {
        if self.state == LinkState::Up {
            self.lose(why, now);
            self.out.queued.push(Queued::Drop);
        }
    }

    fn lose(&mut self, why: &str, now: Duration) {
        match self.state {
            LinkState::Down => return,
            LinkState::Dialing => {
                self.redial.defer(now);
            }
            LinkState::Up => {
                self.telemetry.connected.store(0, Relaxed);
                brisk_telemetry::flight_log!(
                    Warn,
                    "uplink",
                    "disconnect",
                    "node {} lost its link ({why}); {} unacked batches held for replay",
                    self.node,
                    self.window.depth()
                );
                if self.acked {
                    self.redial.reset(now);
                } else {
                    self.redial.defer(now);
                }
            }
        }
        self.state = LinkState::Down;
    }

    /// Window a fresh batch under the next sequence number and, while the
    /// link is up, ship it; `true` when it was handed to a live link. A
    /// batch windowed while the link is down goes out with the next
    /// link's replay. A full window evicts its oldest unacked batch,
    /// which is then beyond replay. The records are only borrowed, so the
    /// caller can reuse them.
    pub fn send(&mut self, records: &[EventRecord]) -> bool {
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
        if self.state != LinkState::Up {
            return false;
        }
        self.out.queued.push(Queued::Batch(seq));
        self.last_send_us = self.pace();
        true
    }

    /// Orderly `Shutdown` notice, on a live link.
    pub fn send_shutdown(&mut self) {
        self.queue(&Message::Shutdown);
    }

    /// Act on what is due at `now` and return the next deadline
    /// ([`Uplink::deadline`]). Up, a link send-idle for a full heartbeat
    /// interval is sent a `Heartbeat`: any frame sent, and the
    /// `HelloAck`, restart the interval, so heartbeats only ever ride an
    /// otherwise quiet link. Down, a dial is output once its backoff has
    /// passed.
    pub fn advance(&mut self, now: Duration) -> Option<Duration> {
        match self.state {
            LinkState::Up if !self.heartbeat_interval.is_zero() => {
                let interval_us = self.heartbeat_interval.as_micros() as i64;
                if self.pace().saturating_sub(self.last_send_us) >= interval_us {
                    self.queue(&Message::Heartbeat);
                    self.telemetry.heartbeats_sent.fetch_add(1, Relaxed);
                }
            }
            LinkState::Down if now >= self.redial.next_attempt => {
                self.out.queued.push(Queued::Dial);
                self.state = LinkState::Dialing;
            }
            _ => {}
        }
        self.deadline(now)
    }

    /// When this link next needs [`Uplink::advance`], on the driver's
    /// clock: up, its next heartbeat (`None` with heartbeats off); down,
    /// its next dial; with a dial out, the time it was due, as its
    /// outcome is owed. Acks and sync polls are link input, not deadlines.
    pub fn deadline(&self, now: Duration) -> Option<Duration> {
        match self.state {
            LinkState::Down | LinkState::Dialing => Some(self.redial.next_attempt),
            LinkState::Up if self.heartbeat_interval.is_zero() => None,
            LinkState::Up => {
                let read = self.clock.now().as_micros();
                let paced = self.paced_us + read.saturating_sub(self.last_read_us).max(0);
                let idle = paced.saturating_sub(self.last_send_us).max(0) as u64;
                let idle = Duration::from_micros(idle);
                Some(now + self.heartbeat_interval.saturating_sub(idle))
            }
        }
    }

    /// Apply one inbound frame, received at `now`. An undecodable frame
    /// (corrupted wire) is skipped rather than fatal, up to the budget.
    /// One frame past it, a message a sender must never receive, or a
    /// `Shutdown` refusing a *re*connect before its `HelloAck` drops the
    /// link ([`Control::Dropped`]).
    pub fn on_frame(&mut self, frame: &[u8], now: Duration) -> Control {
        let msg = match Message::decode(frame) {
            Ok(msg) => msg,
            Err(_) if self.control_errors < CONTROL_ERROR_BUDGET => {
                self.control_errors += 1;
                self.telemetry.decode_errors.fetch_add(1, Relaxed);
                return Control::Skipped;
            }
            Err(e) => return self.refuse(&e.to_string(), now),
        };
        match msg {
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
                self.queue(&reply);
                self.telemetry.sync_replies.fetch_add(1, Relaxed);
                Control::Handled
            }
            Message::SyncAdjust { advance_us, .. } => Control::Adjusted(advance_us),
            // The ISM answers a `Hello` for a node id it still holds with
            // `Shutdown`; right after a link death the holder is our own
            // dead connection, not yet reaped. That is a refusal to retry,
            // not an orderly stop: the claim is released within a tick.
            Message::Shutdown if self.telemetry.connects.load(Relaxed) > 1 && !self.acked => {
                self.refuse("reconnect refused before its HelloAck", now)
            }
            Message::Shutdown => Control::Shutdown,
            other => self.refuse(&format!("a sender must never receive {other:?}"), now),
        }
    }

    fn refuse(&mut self, why: &str, now: Duration) -> Control {
        self.drop_link(why, now);
        Control::Dropped
    }

    /// Hand every output decided since the last drain to `f`, in order.
    /// A batch acked or evicted since it was queued is not sent.
    pub fn drain_outputs(&mut self, mut f: impl FnMut(LinkOutput<'_>)) {
        let Outbox { frames, queued } = &mut self.out;
        for q in queued.drain(..) {
            match q {
                Queued::Dial => f(LinkOutput::Dial),
                Queued::Frame(range) => f(LinkOutput::Send(&frames[range])),
                Queued::Batch(seq) => {
                    if let Some(batch) = self.window.get(seq) {
                        f(LinkOutput::Send(&batch.frame));
                    }
                }
                Queued::Drop => f(LinkOutput::Drop),
            }
        }
        frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The frames `up` asked its driver to send, decoded.
    fn sent(up: &mut Uplink) -> Vec<Message> {
        let mut msgs = Vec::new();
        up.drain_outputs(|out| {
            if let LinkOutput::Send(frame) = out {
                msgs.push(Message::decode(frame).unwrap());
            }
        });
        msgs
    }

    #[test]
    fn send_on_a_detached_link_still_windows_the_batch() {
        let mut up = uplink();
        assert!(!up.send(&[]), "handed to no link");
        assert_eq!(up.window_depth(), 1);
        assert!(sent(&mut up).is_empty());
        // The link coming up replays it right after the Hello.
        up.up();
        let msgs = sent(&mut up);
        assert!(matches!(msgs[0], Message::Hello { .. }));
        assert!(matches!(
            msgs[1..],
            [Message::EventBatch { seq: Some(1), .. }]
        ));
    }

    #[test]
    fn the_uplink_counts_its_own_link_events() {
        let mut up = uplink();
        let now = Duration::ZERO;
        up.up();
        for _ in 0..3 {
            assert!(up.send(&[]));
        }
        assert_eq!(sent(&mut up).len(), 4, "Hello and three batches");
        let ack = Message::BatchAck {
            seq: 1,
            credit: 1024,
        };
        assert_eq!(up.on_frame(&ack.encode(), now), Control::Handled);
        assert_eq!(up.on_frame(&[0xba, 0xad], now), Control::Skipped);
        up.down("test", now);
        up.up();
        assert_eq!(sent(&mut up).len(), 3, "Hello and two replays");

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
            let mut r = Redial::new(node, sup.clone());
            (0..1000)
                .map(|_| r.defer(Duration::ZERO))
                .collect::<Vec<_>>()
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
