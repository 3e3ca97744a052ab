//! What one greeted connection accepts: the routing of its inbound frames.
//!
//! The ISM keeps one long-lived connection per external sensor. The loop
//! (`crate::reactor`) owns the socket, runs the clock-sync poll exchange
//! and the liveness check *at the connection*, so `t_master_send` /
//! `t_master_recv` are stamped right at the socket, and hands every
//! inbound frame of a greeted connection to [`PumpIo::on_frame`], the one
//! place that decides what a receiver pushes into the core, quarantines or
//! treats as fatal.

use crate::reactor::Ism;
use brisk_core::{BriskError, NodeId, Result, UtcMicros};
use brisk_proto::{BatchWalk, Message};

/// What [`PumpIo::on_frame`] did with a frame.
pub(crate) enum FrameOutcome {
    /// Fully handled: a heartbeat, or a quarantined frame.
    Consumed,
    /// A batch entered the core (or was dropped there as a replay): ack
    /// it. A replayed duplicate means the earlier ack died with the old
    /// connection, so re-acking is exactly what unblocks the sender's
    /// retransmit window.
    Batch {
        /// The batch's sequence number.
        seq: u64,
    },
    /// A `SyncReply` arrived. The loop owns the per-connection sync state
    /// machine, so the reply is surfaced instead of swallowed.
    SyncReply {
        /// Round the reply claims to answer.
        round: u64,
        /// Sample index within the round.
        sample: u32,
        /// The slave's clock reading at reply time.
        slave_time: UtcMicros,
    },
}

/// The identity and error count of one greeted connection.
pub(crate) struct PumpIo {
    pub(crate) node: NodeId,
    /// Undecodable frames seen on this connection so far.
    pub(crate) errors: u32,
}

impl PumpIo {
    /// Quarantine one undecodable frame. `Err` when the connection's
    /// protocol error budget is exhausted and it must be dropped — other
    /// nodes' connections are never affected.
    fn note_malformed(
        &mut self,
        ism: &Ism,
        frame: &[u8],
        error: &brisk_proto::DecodeError,
    ) -> Result<FrameOutcome> {
        self.errors += 1;
        brisk_telemetry::flight_log!(
            Warn,
            "ism.pump",
            "quarantine",
            "node {} frame of {} bytes quarantined: {error}",
            self.node,
            frame.len()
        );
        ism.quarantine.record(self.node, frame, &error.to_string());
        if self.errors > ism.error_budget {
            ism.quarantine.note_disconnect();
            brisk_telemetry::flight_log!(
                Error,
                "ism.pump",
                "quarantine_disconnect",
                "node {} dropped after {} undecodable frames (budget {})",
                self.node,
                self.errors,
                ism.error_budget
            );
            return Err(BriskError::Disconnected);
        }
        Ok(FrameOutcome::Consumed)
    }

    /// Route one inbound frame. `Err` means the connection is done
    /// (orderly `Shutdown`, a spoofed or unsequenced batch, a protocol
    /// violation, or an exhausted quarantine budget); `Ok` carries what
    /// happened.
    ///
    /// A batch is validated by walking it ([`BatchWalk::validate`]) —
    /// every record body walked and bounds-checked, none kept — and then
    /// decoded once, by [`crate::IsmCore::push_frame`].
    pub(crate) fn on_frame(&mut self, ism: &mut Ism, frame: &[u8]) -> Result<FrameOutcome> {
        if brisk_proto::peek_tag(frame).is_some_and(brisk_proto::is_batch_tag) {
            let header = match BatchWalk::new(frame).and_then(BatchWalk::validate) {
                Ok(header) => header,
                Err(e) => return self.note_malformed(ism, frame, &e),
            };
            // The connection authenticated as `self.node` in the
            // handshake; a batch claiming another origin is spoofed (or a
            // badly confused client) — kill the connection rather than
            // pollute another node's event stream. A batch without a seq
            // could be neither deduplicated nor acked: same verdict.
            if header.node != self.node {
                return Err(BriskError::Protocol(format!(
                    "batch claims node {} on a connection that said Hello as {}",
                    header.node, self.node
                )));
            }
            let Some(seq) = header.seq else {
                return Err(BriskError::Protocol(format!(
                    "unsequenced batch from node {}",
                    self.node
                )));
            };
            // The frame was validated, so a decode failure here is a logic
            // error rather than wire corruption: drop the batch instead of
            // the connection. A replay is dropped by the core before
            // decoding. Either way the batch is acked.
            let now = ism.clock.now();
            if let Err(e) = ism.core.push_frame(self.node, seq, frame, now, now) {
                brisk_telemetry::flight_log!(
                    Error,
                    "ism.pump",
                    "frame_dropped",
                    "node {} batch {seq} of {} records dropped: {e}",
                    self.node,
                    header.count
                );
            }
            return Ok(FrameOutcome::Batch { seq });
        }
        match Message::decode(frame) {
            Ok(Message::SyncReply {
                round,
                sample,
                slave_time,
                ..
            }) => Ok(FrameOutcome::SyncReply {
                round,
                sample,
                slave_time,
            }),
            // Liveness is the only thing a heartbeat carries, and the
            // loop already noted the frame's arrival.
            Ok(Message::Heartbeat) => Ok(FrameOutcome::Consumed),
            Ok(Message::Shutdown) => Err(BriskError::Disconnected),
            Ok(other) => Err(BriskError::Protocol(format!(
                "unexpected message at ISM: {other:?}"
            ))),
            Err(e) => self.note_malformed(ism, frame, &e),
        }
    }
}
