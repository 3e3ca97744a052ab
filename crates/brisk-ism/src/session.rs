//! Per-connection session state: what the manager and a connection say
//! to each other, and how inbound frames are routed.
//!
//! The ISM keeps one long-lived connection per external sensor. Each is a
//! *pump* that forwards incoming event batches to the manager and runs
//! clock-sync poll exchanges and the liveness check on its behalf — *at
//! the connection*, so `t_master_send` / `t_master_recv` are stamped
//! right at the socket and manager scheduling delays stay out of both
//! the skew samples and a node's silence. The manager
//! holds a [`PumpHandle`] ([`PumpCommand`]s in, [`PumpEvent`]s out); the
//! reactor owns the socket and hands every inbound frame of a greeted
//! connection to [`PumpIo::on_frame`], the one place that decides what a
//! receiver accepts, forwards, quarantines or treats as fatal.

use crate::reactor::ReactorConfig;
use brisk_clock::SkewSample;
use brisk_core::{BriskError, NodeId, Result, UtcMicros};
use brisk_net::Waker;
use brisk_proto::{BatchWalk, Message};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-wide pump identity source. Ids name pump *instances*: acks and
/// `Disconnected` reach the instance they belong to, never whichever pump
/// serves the node now.
static NEXT_PUMP_ID: AtomicU64 = AtomicU64::new(1);

/// Commands the manager sends to a pump.
#[derive(Debug)]
pub enum PumpCommand {
    /// Run a poll exchange of `samples` polls for round `round` and report
    /// a [`PumpEvent::SyncSamples`].
    SyncRound {
        /// Round number.
        round: u64,
        /// Number of poll/reply pairs to collect.
        samples: u32,
    },
    /// Forward a `SyncAdjust` to the slave.
    Adjust {
        /// Round that produced the correction.
        round: u64,
        /// Microseconds the slave should add to its correction value.
        advance_us: i64,
    },
    /// Acknowledge every batch up to `seq`: the manager issues this once
    /// the core accepted (or dedup-dropped) the batch, and the pump turns
    /// it into a wire [`Message::BatchAck`] that re-advertises the
    /// server's credit grant.
    Ack {
        /// Cumulative acknowledged sequence number.
        seq: u64,
    },
    /// Send `Shutdown` to the slave and exit.
    Shutdown,
}

/// Events pumps send to the manager.
#[derive(Debug)]
pub enum PumpEvent {
    /// A connection completed its greeting; here is the handle to command
    /// it through. Sent on the reactor thread that reads the connection,
    /// so it is queued ahead of that connection's first batch.
    Connected(PumpHandle),
    /// A batch of records arrived.
    Batch {
        /// Origin node (the *handshake* identity — the pump rejects
        /// batches whose embedded node disagrees).
        node: NodeId,
        /// Pump instance that received the batch (matches
        /// [`PumpHandle::id`]); acks are routed back through it, never
        /// through whichever handle happens to own the node right now.
        id: u64,
        /// Batch sequence number.
        seq: u64,
        /// The wire frame, validated but still encoded. The pump walked
        /// it ([`BatchWalk::validate`], rejecting malformed bytes and
        /// spoofed node ids) without keeping a single record; the manager
        /// decodes it once, in [`crate::IsmCore::push_frame`], so record
        /// payloads cross the queue as one buffer, not per-record
        /// allocations.
        frame: Vec<u8>,
        /// Records in the frame, pre-counted at validation so flow
        /// accounting and credit math never re-parse the frame.
        count: usize,
        /// When the frame left the socket; the manager stamps
        /// `PumpRecv` with this so the BatchSend→PumpRecv trace span
        /// stays pure wire + validation time even though decoding
        /// happens later.
        recv_ts: UtcMicros,
        /// When the pump put this batch on the manager queue; the delay
        /// until the manager acks it is the credit-grant latency.
        enqueued_at: Instant,
    },
    /// A sync round's samples are ready (possibly fewer than requested if
    /// replies timed out).
    SyncSamples {
        /// The slave node.
        node: NodeId,
        /// Round number.
        round: u64,
        /// Collected samples.
        samples: Vec<SkewSample>,
    },
    /// The connection ended (orderly, dropped, or evicted as silent).
    /// Queued before the node is free for a successor's `Connected`.
    Disconnected {
        /// The node that went away.
        node: NodeId,
        /// Identity of the pump instance that ended (matches
        /// [`PumpHandle::id`]).
        id: u64,
    },
    /// A relay's upstream link has input (or hung up): the reactor's
    /// one-shot watch on its fd fired. The manager ticks, which reads the
    /// link, then re-arms the watch.
    Uplink,
    /// The server is stopping: sent once by `IsmHandle::stop`, never by
    /// a pump, so a manager asleep until its next due time wakes at once.
    Stop,
}

/// Handle the manager holds for one pump.
#[derive(Debug)]
pub struct PumpHandle {
    /// The node this pump serves.
    pub node: NodeId,
    id: u64,
    cmd_tx: Sender<PumpCommand>,
    /// Fired after every queued command to kick the reactor out of
    /// `poll`, so commands are serviced immediately rather than on the
    /// next timeout.
    waker: Waker,
}

impl PumpHandle {
    /// This pump instance's identity (unique across the process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Send a command; returns `false` if the pump is gone.
    pub fn command(&self, cmd: PumpCommand) -> bool {
        let sent = self.cmd_tx.send(cmd).is_ok();
        if sent {
            self.waker.wake();
        }
        sent
    }
}

/// Build the handle/receiver pair for a freshly greeted connection. The
/// manager learns of the pump's death through its `Disconnected` event.
pub(crate) fn pump_channel(node: NodeId, waker: Waker) -> (PumpHandle, Receiver<PumpCommand>) {
    let (cmd_tx, cmd_rx) = unbounded();
    let handle = PumpHandle {
        node,
        id: NEXT_PUMP_ID.fetch_add(1, Ordering::Relaxed),
        cmd_tx,
        waker,
    };
    (handle, cmd_rx)
}

/// What [`PumpIo::on_frame`] did with a frame.
pub(crate) enum FrameOutcome {
    /// Fully handled: forwarded to the manager, quarantined, or dropped.
    Consumed,
    /// A `SyncReply` arrived. The reactor owns the per-connection sync
    /// state machine, so the reply is surfaced instead of swallowed.
    SyncReply {
        /// Round the reply claims to answer.
        round: u64,
        /// Sample index within the round.
        sample: u32,
        /// The slave's clock reading at reply time.
        slave_time: UtcMicros,
    },
}

/// The identity and error count of one greeted connection, plus the
/// frame routing, event emission, flow accounting and malformed-frame
/// quarantine policy that go with it. Everything shared across
/// connections comes in through the server's [`ReactorConfig`].
pub(crate) struct PumpIo {
    pub(crate) node: NodeId,
    pub(crate) id: u64,
    /// Undecodable frames seen on this connection so far.
    pub(crate) errors: u32,
}

impl PumpIo {
    /// Quarantine one undecodable frame. `Err` when the connection's
    /// protocol error budget is exhausted and it must be dropped — other
    /// nodes' connections are never affected.
    fn note_malformed(
        &mut self,
        ctx: &ReactorConfig,
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
        ctx.quarantine.record(self.node, frame, &error.to_string());
        if self.errors > ctx.error_budget {
            ctx.quarantine.note_disconnect();
            brisk_telemetry::flight_log!(
                Error,
                "ism.pump",
                "quarantine_disconnect",
                "node {} dropped after {} undecodable frames (budget {})",
                self.node,
                self.errors,
                ctx.error_budget
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
    /// Batches take the zero-copy path: the frame is validated by
    /// walking it ([`BatchWalk::validate`]) — every record body walked
    /// and bounds-checked, none kept — and the raw bytes are forwarded
    /// to the manager, which decodes them once.
    pub(crate) fn on_frame(&mut self, ctx: &ReactorConfig, frame: Vec<u8>) -> Result<FrameOutcome> {
        if brisk_proto::peek_tag(&frame).is_some_and(brisk_proto::is_batch_tag) {
            let (count, seq) = match BatchWalk::new(&frame).and_then(BatchWalk::validate) {
                Ok(header) => {
                    // The connection authenticated as `self.node` in the
                    // handshake; a batch claiming another origin is
                    // spoofed (or a badly confused client) — kill the
                    // connection rather than pollute another node's
                    // event stream. A batch without a seq could be
                    // neither deduplicated nor acked: same verdict.
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
                    (header.count, seq)
                }
                Err(e) => return self.note_malformed(ctx, &frame, &e),
            };
            ctx.flow.add(count as u64);
            // First ISM-side trace hop, taken right at the socket: the
            // manager stamps PumpRecv with this timestamp when it
            // decodes, keeping queueing delay out of the
            // BatchSend→PumpRecv span.
            let recv_ts = ctx.clock.now();
            ctx.send_event(PumpEvent::Batch {
                node: self.node,
                id: self.id,
                seq,
                frame,
                count,
                recv_ts,
                enqueued_at: Instant::now(),
            });
            return Ok(FrameOutcome::Consumed);
        }
        match Message::decode(&frame) {
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
            // reactor already noted the frame's arrival.
            Ok(Message::Heartbeat) => Ok(FrameOutcome::Consumed),
            Ok(Message::Shutdown) => Err(BriskError::Disconnected),
            Ok(other) => Err(BriskError::Protocol(format!(
                "unexpected message at ISM: {other:?}"
            ))),
            Err(e) => self.note_malformed(ctx, &frame, &e),
        }
    }
}
