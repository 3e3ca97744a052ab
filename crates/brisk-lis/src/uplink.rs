//! The sender side of the session protocol, written once.
//!
//! An [`Uplink`] is everything a *sender* must do with window, credit,
//! acks, replay, heartbeats and control frames (§3.4–3.5). It is session
//! state that outlives any one connection: reconnecting is "keep the
//! `Uplink`, [`Uplink::attach`] the next connection" — `Hello` goes out
//! followed by every still-unacked batch, nothing is carried over by hand.
//!
//! Two callers sit on it, the [`crate::ExternalSensor`] and the relay
//! ISM's upstream exporter (a relay's upstream link *is* an EXS link).
//! Where they differ the difference is policy, not protocol, so the
//! `Uplink` reports typed [`Control`] outcomes and link errors and each
//! caller decides what a link error or an unexpected message means.
//! Heartbeat pacing takes its "now" as an argument (any monotone µs
//! count), so the EXS can pace on its raw-clock accumulator and stay
//! deterministic under a simulated clock while the relay uses wall time.

use crate::batch::SendWindow;
use brisk_clock::Clock;
use brisk_core::{BriskError, EventRecord, NodeId, Result};
use brisk_net::Connection;
use brisk_proto::{encode_batch, Message};
use std::sync::Arc;
use std::time::Duration;

/// Factory producing a fresh connection to the ISM, invoked on every
/// (re)connect.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Undecodable (or, at the caller's choice, unexpected) inbound control
/// frames tolerated per connection before it is declared corrupt. Mirrors
/// the ISM-side protocol error budget.
pub const CONTROL_ERROR_BUDGET: u32 = 8;

/// What one inbound control frame turned out to be, after the `Uplink`
/// applied its protocol-level effect.
#[derive(Debug, PartialEq)]
pub enum Control {
    /// An undecodable frame was skipped (within the error budget).
    Skipped,
    /// `HelloAck`: the connection's authoritative credit grant (`None`
    /// clears a carried-over budget).
    Granted {
        /// Credit budget granted, if flow control is on.
        credit: Option<u64>,
    },
    /// `BatchAck`: the window released everything up to `seq`, and a
    /// piggybacked grant (if any) replaced the credit budget.
    Acked {
        /// Cumulative acknowledged sequence number.
        seq: u64,
    },
    /// A `SyncPoll` was answered from the uplink's clock.
    SyncPoll,
    /// `SyncAdjust`: the caller owns the correction value and decides
    /// whether to apply these microseconds.
    Adjusted(i64),
    /// The peer announced an orderly shutdown.
    Shutdown,
    /// A well-formed message that has no business on an uplink.
    Unexpected(Message),
}

/// What [`Uplink::send`] / [`Uplink::stash`] did to the retransmit window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Windowed {
    /// Sequence number assigned, typed as the wire's `EventBatch.seq`
    /// field it is sent in; an `Uplink` always assigns one.
    pub seq: Option<u64>,
    /// A full window evicted its oldest unacked batch (now beyond replay).
    pub evicted: bool,
}

/// Sender-side session state for one node's link to its ISM.
pub struct Uplink {
    node: NodeId,
    /// Answers `SyncPoll`s (the sender's *corrected* time: slaves converge
    /// on each other through their corrections).
    clock: Arc<dyn Clock>,
    heartbeat_interval: Duration,
    conn: Option<Box<dyn Connection>>,
    /// Sent-but-unacked batches, replayed on every `attach`.
    window: SendWindow,
    /// Absolute in-flight budget the ISM re-advertises on `HelloAck` and
    /// every `BatchAck`; `None` = no flow control. Survives `attach`, so
    /// the gap before the new `HelloAck` stays paced by the old grant.
    credit: Option<u64>,
    control_errors: u32,
    /// Pacing "now" of the last frame sent on this connection.
    last_send_us: i64,
}

impl Uplink {
    /// New, unattached session for `node`. `clock` answers sync polls;
    /// `heartbeat_interval` zero disables heartbeats.
    pub fn new(
        node: NodeId,
        clock: Arc<dyn Clock>,
        window_batches: usize,
        heartbeat_interval: Duration,
    ) -> Uplink {
        Uplink {
            node,
            clock,
            heartbeat_interval,
            conn: None,
            window: SendWindow::new(window_batches),
            credit: None,
            control_errors: 0,
            last_send_us: 0,
        }
    }

    /// Replace the clock that answers sync polls.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// True while a connection is attached.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The credit budget currently granted by the ISM, if any.
    pub fn credit(&self) -> Option<u64> {
        self.credit
    }

    /// Sent-but-unacked batches currently held for replay.
    pub fn window_depth(&self) -> usize {
        self.window.depth()
    }

    /// Granted credit minus unacked in-flight records (0 with credit off).
    pub fn credit_balance(&self) -> i64 {
        self.credit
            .map_or(0, |c| c as i64 - self.window.unacked_records() as i64)
    }

    /// True when flow control permits putting more records in flight:
    /// credit is off, or in-flight records are under budget. An empty
    /// window always passes — even a zero grant can only stop *new*
    /// traffic while something is in flight, never deadlock the sender.
    pub fn credit_open(&self) -> bool {
        let w = &self.window;
        self.credit
            .is_none_or(|c| w.depth() == 0 || w.unacked_records() < c)
    }

    /// Adopt `conn`: send `Hello`, then replay every unacked batch in
    /// sequence order ahead of new traffic. Returns how many batches were
    /// replayed (harmless if the ISM already processed them: it dedups by
    /// `(node, seq)`). On error nothing is attached and the window is intact.
    pub fn attach(&mut self, mut conn: Box<dyn Connection>, now_us: i64) -> Result<usize> {
        self.detach();
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
        for (seq, records) in self.window.iter_unacked() {
            conn.send(&encode_batch(self.node, Some(seq), records))?;
        }
        self.conn = Some(conn);
        self.last_send_us = now_us;
        Ok(self.window.depth())
    }

    /// Drop the connection (if any). Window and credit are kept for the
    /// next [`Uplink::attach`].
    pub fn detach(&mut self) {
        self.conn = None;
        self.control_errors = 0;
    }

    /// Retain a batch for replay without sending it (the link is down);
    /// the next `attach` delivers it.
    pub fn stash(&mut self, records: Vec<EventRecord>) -> Windowed {
        let (seq, evicted) = self.window.push(records);
        Windowed {
            seq: Some(seq),
            evicted: evicted.is_some(),
        }
    }

    /// Window a fresh batch and ship it. The window effect happens
    /// whether or not the link send succeeds: a batch whose send failed
    /// stays windowed and the next `attach` replays it.
    pub fn send(&mut self, records: Vec<EventRecord>, now_us: i64) -> (Windowed, Result<()>) {
        // Encode from the borrow under the sequence number the window is
        // about to assign, then move the records into it: no copy.
        let seq = Some(self.window.next_seq());
        let frame = encode_batch(self.node, seq, &records);
        let windowed = self.stash(records);
        debug_assert_eq!(windowed.seq, seq);
        (windowed, self.send_frame(&frame, now_us))
    }

    fn send_frame(&mut self, frame: &[u8], now_us: i64) -> Result<()> {
        let conn = self.conn.as_mut().ok_or(BriskError::Disconnected)?;
        conn.send(frame)?;
        self.last_send_us = now_us;
        Ok(())
    }

    /// Best-effort orderly `Shutdown` notice.
    pub fn send_shutdown(&mut self) {
        let _ = self.send_frame(&Message::Shutdown.encode(), self.last_send_us);
    }

    /// Send a `Heartbeat` when the link has been send-idle for a full
    /// interval (a zero interval disables them). Any frame sent — and the
    /// `HelloAck` — resets the pacing, so heartbeats only ever ride an
    /// otherwise-quiet link. Returns whether one was sent.
    pub fn heartbeat_if_idle(&mut self, now_us: i64) -> Result<bool> {
        if self.heartbeat_interval.is_zero() || self.conn.is_none() {
            return Ok(false);
        }
        let interval_us = self.heartbeat_interval.as_micros() as i64;
        if now_us.saturating_sub(self.last_send_us) < interval_us {
            return Ok(false);
        }
        self.send_frame(&Message::Heartbeat.encode(), now_us)?;
        Ok(true)
    }

    /// Count one control error against this connection's budget; `true`
    /// once the budget is exhausted. Undecodable frames are counted here
    /// by [`Uplink::handle_frame`]; callers that tolerate
    /// [`Control::Unexpected`] traffic charge it to the same budget.
    pub fn note_control_error(&mut self) -> bool {
        self.control_errors += 1;
        self.control_errors > CONTROL_ERROR_BUDGET
    }

    /// Receive one raw inbound frame, waiting at most `wait`.
    pub fn recv(&mut self, wait: Duration) -> Result<Option<Vec<u8>>> {
        let conn = self.conn.as_mut().ok_or(BriskError::Disconnected)?;
        conn.recv(Some(wait))
    }

    /// Decode one inbound frame and apply its protocol-level effect. An
    /// undecodable frame (corrupted wire) is skipped rather than fatal —
    /// up to the budget, past which the decode error is returned so the
    /// caller rebuilds the connection.
    pub fn handle_frame(&mut self, frame: &[u8], now_us: i64) -> Result<Control> {
        let msg = match Message::decode(frame) {
            Ok(msg) => msg,
            Err(e) if self.note_control_error() => return Err(e.into()),
            Err(_) => return Ok(Control::Skipped),
        };
        Ok(match msg {
            Message::HelloAck { credit, .. } => {
                self.credit = credit;
                // Idle time before the greeting completed doesn't count
                // toward the heartbeat deadline.
                self.last_send_us = now_us;
                Control::Granted { credit }
            }
            Message::BatchAck { seq, credit } => {
                self.window.ack(seq);
                // A piggybacked grant re-advertises the budget absolutely;
                // a credit-less ack leaves it untouched.
                if credit.is_some() {
                    self.credit = credit;
                }
                Control::Acked { seq }
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
                self.send_frame(&reply.encode(), now_us)?;
                Control::SyncPoll
            }
            Message::SyncAdjust { advance_us, .. } => Control::Adjusted(advance_us),
            Message::Shutdown => Control::Shutdown,
            other => Control::Unexpected(other),
        })
    }

    /// [`Uplink::recv`] then [`Uplink::handle_frame`]; `None` when nothing
    /// arrived within the wait.
    pub fn poll_control(&mut self, wait: Duration, now_us: i64) -> Result<Option<Control>> {
        match self.recv(wait)? {
            Some(frame) => self.handle_frame(&frame, now_us).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{mem_pair, recv_msg};
    use brisk_clock::SystemClock;

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
        let (w, sent) = up.send(vec![], 0);
        assert_eq!(w.seq, Some(1));
        assert!(sent.unwrap_err().is_disconnect());
        assert_eq!(up.window_depth(), 1);
        // Attaching replays it right after the Hello.
        let (mut ism, conn) = mem_pair();
        assert_eq!(up.attach(conn, 0).unwrap(), 1);
        assert!(matches!(recv_msg(&mut ism), Message::Hello { .. }));
        assert!(matches!(
            recv_msg(&mut ism),
            Message::EventBatch { seq: Some(1), .. }
        ));
    }
}
