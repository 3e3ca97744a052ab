//! The external sensor (EXS).
//!
//! "The memory is read by an external sensor, which runs as another process
//! on the same node and may be assigned a lower priority" (§3.1). The EXS:
//!
//! 1. drains the node's sensor rings,
//! 2. adds the clock-sync *correction value* to every timestamp (§3.2),
//! 3. batches records under the latency-control knobs and ships batches to
//!    the ISM over the transfer protocol (§3.4),
//! 4. acts as the clock-sync *slave*: answers `SyncPoll`s with its corrected
//!    time and applies `SyncAdjust`s to the correction value (§3.3).
//!
//! Owned records exist only between ring and wire, and they are reused:
//! once a batch is encoded into the retransmit window, its records become
//! the shells the next drain decodes into and its vector carries the next
//! batch, so a steady EXS allocates one frame per batch and nothing per
//! record.
//!
//! [`ExternalSensor::step`] is one bounded pass that never sleeps; the
//! runtime owns the wait. After a pass that moved nothing it sleeps in one
//! `poll(2)` — the "waiting select system call" the paper identifies as the
//! worst-case latency contributor (§4) — on the ISM link's fd and on a
//! doorbell the node's rings share, until the next thing the EXS must do.
//! The doorbell is armed at a fill level, and the sensor's push that
//! reaches it rings. With nothing buffered the level is one record, so an
//! idle EXS wakes only for its link's traffic and heartbeats, and the
//! first record starts the batch's flush deadline at once. With a partial
//! batch the level is what the batch lacks under both size knobs, counted
//! over all the node's rings together, so the record that fills the
//! batch wakes the EXS, whichever sensor emits it, and it ships the batch
//! then, not on a later poll; the flush deadline bounds the wait
//! otherwise. With its credit spent it waits for the ack,
//! which is link input.
//!
//! All EXS *deadlines* (the flush timeout in particular) are measured on
//! the node's clock, not on wall time, so the whole component is
//! deterministic under a simulated clock. The flip side: a simulated clock
//! that stops advancing freezes those deadlines — tests and examples that
//! drive a `SimClock` must keep advancing it (or call the handle's `stop`,
//! which force-flushes) for timeout flushes to fire.
//!
//! One runtime drives every EXS, behind [`spawn_exs`] and
//! [`spawn_exs_supervised`] alike: it steps the EXS until its `stop` flag
//! or an orderly ISM `Shutdown`. The two differ only in the link. An EXS
//! spawned on one connection ends when that link drops. One spawned with
//! a [`ConnectFn`] keeps the node's instrumentation alive across manager
//! restarts and network blips ("robust", §1): its [`Uplink`] decides when
//! a link is dead and when to dial again. Every reconnect re-sends `Hello`
//! and **carries the clock-sync correction value over**, so the node does
//! not fall back to raw time while the master re-converges. It also
//! replays every sent-but-unacked batch from the bounded retransmit
//! window, which the ISM deduplicates by `(node, seq)`: delivery to the
//! sinks is exactly-once. A full window evicts its oldest batch, which is
//! then beyond replay — surfaced through telemetry rather than hidden.
//! The link's counters are the [`Uplink`]'s own ([`UplinkStats`]); the
//! EXS counts only what it does itself.

use crate::batch::{Batcher, FlushReason};
use crate::uplink::{ConnectFn, Control, SupervisorConfig, Uplink, UplinkStats, UplinkTelemetry};
use brisk_clock::{Clock, CorrectedClock, Hlc};
use brisk_core::{BriskError, EventRecord, ExsConfig, NodeId, Result, TraceStage};
use brisk_net::{poll_in, Connection, PollFd, Poller, Waker};
use brisk_ringbuf::{Fill, RingSet};
use brisk_telemetry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

brisk_telemetry::metrics! {
    /// Shared atomic backing for [`ExsStats`] plus the EXS's stage
    /// histograms, and the cells of its [`Uplink`]. Lives in an `Arc` so a
    /// telemetry registry (and the spawning thread, via [`ExsHandle`]) can
    /// observe a live EXS without locking: the EXS thread bumps every
    /// cell in place.
    pub struct ExsTelemetry =>
    /// Counters the EXS maintains while running, and (as `link`, which it
    /// derefs to) its link's.
    pub struct ExsStats {
        /// Records drained from sensor rings.
        records_drained: counter "brisk_exs_records_drained_total" "Records drained from sensor rings",
        /// Records sent to the ISM.
        records_sent: counter "brisk_exs_records_sent_total" "Records shipped to the ISM",
        /// Batches sent.
        batches_sent: counter "brisk_exs_batches_sent_total" "Batches shipped to the ISM",
        /// Batches flushed by the record-count knob.
        flush_records: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "records"],
        /// Batches flushed by the byte-size knob.
        flush_bytes: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "bytes"],
        /// Batches flushed by the latency timeout.
        flush_timeout: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "timeout"],
        /// Batches flushed explicitly (shutdown).
        flush_forced: counter "brisk_exs_flush_total" "Batch flushes by triggering knob" ["reason" = "forced"],
        /// Sync adjustments applied.
        adjustments: counter "brisk_exs_adjustments_total" "Clock adjustments applied",
        /// Sync adjustments ignored because `sync_disabled` is set (chaos
        /// plane: the node's clock is deliberately left to drift).
        sync_ignored: counter "brisk_exs_sync_ignored_total" "Clock adjustments ignored (sync disabled on this node)",
        /// Ring scoops deferred because the ISM's credit budget was spent
        /// (credit flow control); backpressure is parked in the rings.
        credit_deferrals: counter "brisk_exs_credit_deferred_total" "Ring scoops deferred waiting for ISM credit",
        /// Loop iterations executed.
        iterations: counter "brisk_exs_iterations_total" "EXS loop iterations",
        /// Per-step drain+batch latency in µs, on the node's clock (so it is
        /// deterministic under `SimClock`).
        drain_us: histogram "brisk_exs_drain_us" "Per-step drain+batch latency on the node clock",
        /// Records per emitted batch.
        batch_records: histogram "brisk_exs_batch_records" "Records per emitted batch",
    } + link: UplinkTelemetry => UplinkStats
}

impl ExsTelemetry {
    /// Register every EXS series with `registry`, labeled by node, and
    /// its link's under `role="exs"`.
    pub fn bind(self: &Arc<Self>, node: NodeId, registry: &Registry) {
        self.register(registry, &[("node", &node.0.to_string())]);
        self.link.bind("exs", node, registry);
    }
}

/// What one [`ExternalSensor::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExsStep {
    /// Work was done (records moved or messages handled).
    Busy,
    /// Nothing to do; the runtime may sleep until input or a deadline.
    Idle,
    /// The ISM asked us to shut down (orderly `Shutdown` message).
    Shutdown,
    /// The link dropped: lost, or declared corrupt by the uplink (one
    /// undecodable control frame past the budget, or a message a sender
    /// must never receive).
    Disconnected,
}

/// An XDR-encoded record, with the stamps the EXS adds, is at most twice
/// its ring frame, length prefix included: the ring's 32 bytes of prefix
/// and header outweigh the XDR padding of up to eight 1-byte fields, an
/// added `X_HLC` and a trace stamp. So the rings must hold at least half
/// the XDR bytes a batch lacks before its byte knob can trip.
const XDR_PER_RING_BYTE: usize = 2;

/// The external sensor: one per node.
pub struct ExternalSensor {
    node: NodeId,
    rings: Arc<RingSet>,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    cfg: ExsConfig,
    batcher: Batcher,
    shared: Arc<ExsTelemetry>,
    drain_buf: Vec<EventRecord>,
    /// Records of shipped batches, emptied, for the next drain to decode
    /// over: their `fields` vectors are reused, not reallocated.
    shells: Vec<EventRecord>,
    /// The session with the ISM: retransmit window, credit, acks, replay,
    /// heartbeats, control frames and redial. It outlives any one
    /// connection — [`ExternalSensor::reattach`] is all a reconnect takes.
    uplink: Uplink,
    /// Hybrid logical clock, ticked per record at scoop time when
    /// `cfg.stamp_hlc` is set (the stamp rides as `X_HLC`).
    hlc: Arc<Hlc>,
}

impl ExternalSensor {
    /// Connect-side constructor: sends the `Hello` preamble immediately.
    ///
    /// `raw_clock` is the same clock the node's sensors sample; the EXS
    /// wraps it with the correction value it maintains.
    pub fn new(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        conn: Box<dyn Connection>,
        cfg: ExsConfig,
    ) -> Result<Self> {
        let mut exs = Self::detached(node, rings, raw_clock, cfg)?;
        exs.reattach(conn)?;
        Ok(exs)
    }

    /// An EXS with no connection yet (it dials through
    /// [`ExternalSensor::redial`]).
    fn detached(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        cfg: ExsConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        let clock = CorrectedClock::new(raw_clock);
        // Polls are answered with the *corrected* local time: slaves
        // converge on each other through their corrections.
        let uplink = Uplink::new(
            node,
            Arc::clone(&clock) as Arc<dyn Clock>,
            cfg.retransmit_window_batches,
            cfg.heartbeat_interval,
        );
        let shared = Arc::new(ExsTelemetry {
            link: Arc::clone(uplink.telemetry()),
            ..ExsTelemetry::default()
        });
        Ok(ExternalSensor {
            node,
            rings,
            clock,
            batcher: Batcher::new(cfg.clone()),
            cfg,
            shared,
            drain_buf: Vec::with_capacity(512),
            shells: Vec::new(),
            uplink,
            hlc: Hlc::new(),
        })
    }

    /// Adopt a fresh connection after the previous one died: re-send
    /// `Hello`, then replay every still-unacked batch (in sequence order,
    /// ahead of new traffic) so an abrupt disconnect loses nothing.
    /// Correction value, partial batch, window and the last credit grant
    /// all stay where they are; the new `HelloAck` overwrites the grant.
    pub fn reattach(&mut self, conn: Box<dyn Connection>) -> Result<()> {
        self.uplink.attach(conn).map(drop)
    }

    /// Let the uplink dial lost links again through `connect`.
    fn with_redial(mut self, connect: ConnectFn, sup: SupervisorConfig) -> Self {
        self.uplink = self.uplink.with_redial(connect, sup);
        self
    }

    /// True while a connection is attached.
    fn linked(&self) -> bool {
        self.uplink.connected()
    }

    /// The node this EXS serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This EXS's hybrid logical clock (stamps records when
    /// `cfg.stamp_hlc` is set; always safe to observe).
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// The corrected clock (shared view; records are stamped with raw time
    /// by sensors and shifted by this clock's correction on the way out).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Counters so far.
    pub fn stats(&self) -> ExsStats {
        self.shared.snapshot()
    }

    /// Register this EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// Run one iteration: drain, batch, ship, answer control traffic.
    pub fn step(&mut self) -> Result<ExsStep> {
        match self.work() {
            // Every link error has already dropped the link in the uplink.
            Err(_) if !self.uplink.connected() => Ok(ExsStep::Disconnected),
            stepped => stepped,
        }
    }

    fn work(&mut self) -> Result<ExsStep> {
        self.shared.iterations.fetch_add(1, Ordering::Relaxed);

        // 0. Flow control: with the ISM's credit budget spent, leave new
        //    records parked in the rings (where overruns land on the
        //    rings' own drop accounting) instead of piling them into the
        //    batcher and window. Acks received below reopen the tap.
        let paused = !self.uplink.poll_credit();
        if paused {
            self.shared.credit_deferrals.fetch_add(1, Ordering::Relaxed);
        }

        // 1. Drain sensor rings and apply the correction value. The span
        //    is timed on the node's clock so it is meaningful (and
        //    deterministic) under simulation.
        let drain_start = self.clock.now().as_micros();
        let drained = if paused {
            0
        } else {
            self.scoop(self.cfg.max_batch_records * 2)?
        };

        // 2. Latency control: flush a stale partial batch. Deferred while
        //    credit is spent — the flush would put more records in flight.
        if !paused {
            if let Some((batch, reason)) = self.batcher.poll_timeout(self.clock.now()) {
                self.send_batch(batch, reason)?;
            }
        }
        // 2b. Liveness: on an idle connection, send a heartbeat so the
        //     ISM can tell a quiet node from a silently dead one (TCP
        //     alone reports nothing for minutes).
        self.uplink.heartbeat_if_idle()?;
        let drain_us = self.clock.now().as_micros().saturating_sub(drain_start);
        self.shared.drain_us.record(drain_us.max(0) as u64);

        // 3. Control traffic, without waiting: a pass never sleeps, the
        //    runtime does after an idle one ([`ExternalSensor::sleep`]).
        let control = self.uplink.poll_control(Duration::ZERO)?;
        let step = control.and_then(|c| self.on_control(c));
        Ok(step.unwrap_or(if drained > 0 {
            ExsStep::Busy
        } else {
            ExsStep::Idle
        }))
    }

    /// Apply this EXS's policy to one inbound control frame. `None` means
    /// the frame was skipped (undecodable, within the budget — past it the
    /// uplink drops the link, and an EXS with a [`ConnectFn`] dials again).
    fn on_control(&mut self, control: Control) -> Option<ExsStep> {
        match control {
            Control::Skipped => None,
            Control::Handled => Some(ExsStep::Busy),
            Control::Adjusted(advance_us) => {
                if self.cfg.sync_disabled {
                    // Chaos plane: the node deliberately refuses sync and
                    // lets its clock run wherever the fault takes it.
                    self.shared.sync_ignored.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.clock.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
                Some(ExsStep::Busy)
            }
            Control::Shutdown => Some(ExsStep::Shutdown),
        }
    }

    /// Drain up to `max` records from the rings, apply the correction
    /// value, stamp each and push it into the batcher, shipping every
    /// batch that fills; returns how many records were drained. A
    /// disconnect mid-scoop must not drop the records already pulled out
    /// of the rings: once a send fails, the rest of the scoop still goes
    /// through the batcher and every further batch is stashed (unsent) in
    /// the retransmit window, where the next connection's replay picks it
    /// up. The failed send's error is returned after that.
    fn scoop(&mut self, max: usize) -> Result<usize> {
        // The *effective* correction: while a slew is smearing a backward
        // adjustment, records get the partially applied value, matching
        // the clock the later trace stamps read.
        let correction = self.clock.effective_correction_us();
        self.drain_buf.clear();
        let drained = self
            .rings
            .drain_reusing(max, &mut self.drain_buf, &mut self.shells)?;
        self.shared
            .records_drained
            .fetch_add(drained as u64, Ordering::Relaxed);
        let now = self.clock.now();
        let mut pending = std::mem::take(&mut self.drain_buf);
        let mut failed: Option<BriskError> = None;
        for mut rec in pending.drain(..) {
            rec.apply_correction(correction);
            // After the correction: scoop time and every later stamp are
            // on the synchronized clock, only the notice stamp was shifted.
            rec.stamp_trace(TraceStage::ExsScoop, now);
            if self.cfg.stamp_hlc {
                rec.set_hlc(self.hlc.tick(now));
            }
            if let Some((batch, reason)) = self.batcher.push(rec, now) {
                if failed.is_some() {
                    self.uplink.stash(&batch);
                    self.recycle(batch);
                } else if let Err(e) = self.send_batch(batch, reason) {
                    failed = Some(e);
                }
            }
        }
        self.drain_buf = pending; // keep the allocation (workhorse buffer)
        failed.map_or(Ok(drained), Err)
    }

    fn send_batch(&mut self, mut records: Vec<EventRecord>, reason: FlushReason) -> Result<()> {
        let n = records.len() as u64;
        let send_ts = self.clock.now();
        for rec in records.iter_mut() {
            rec.stamp_trace(TraceStage::BatchSend, send_ts);
        }
        let sent = self.uplink.send(&records);
        self.recycle(records);
        sent?;
        self.shared.records_sent.fetch_add(n, Ordering::Relaxed);
        self.shared.batches_sent.fetch_add(1, Ordering::Relaxed);
        self.shared.batch_records.record(n);
        let reason_counter = match reason {
            FlushReason::Records => &self.shared.flush_records,
            FlushReason::Bytes => &self.shared.flush_bytes,
            FlushReason::Timeout => &self.shared.flush_timeout,
            FlushReason::Forced => &self.shared.flush_forced,
        };
        reason_counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Keep a windowed batch's records as shells for the next drain and
    /// its vector for the next batch: the window holds the encoded frame.
    fn recycle(&mut self, mut batch: Vec<EventRecord>) {
        self.shells.extend(batch.drain(..).map(|mut rec| {
            rec.fields.clear();
            rec
        }));
        self.batcher.recycle(batch);
    }

    /// The runtime's one wait after an idle pass, until link input (an
    /// ack, a sync poll), the next heartbeat, the handle's stop, and: with
    /// nothing buffered, the first record into the rings; with a partial
    /// batch and credit open, the record that could complete it or its
    /// flush deadline; with credit spent, nothing more. Returns at once if
    /// input is waiting or the rings already hold what it would wait for.
    fn sleep(&self, poller: &Poller, fds: &mut Vec<PollFd>) -> Result<()> {
        let Some(fd) = self.uplink.wait_fd() else {
            return Ok(());
        };
        let mut due = self.uplink.due_in();
        if self.uplink.credit_open() {
            let fill = match self.batcher.time_to_deadline(self.clock.now()) {
                Some(us) => {
                    let flush = Duration::from_micros(us.max(0) as u64);
                    due = due.into_iter().chain([flush]).min();
                    self.missing()
                }
                None => Fill::ANY,
            };
            if !self.rings.arm_at(fill) {
                return Ok(());
            }
        }
        fds.push(poll_in(fd));
        let waited = poller.wait(fds, due);
        fds.clear();
        self.rings.doorbell().disarm();
        Ok(waited.map(drop)?)
    }

    /// What the partial batch lacks before a size knob trips, as ring
    /// contents: the records it is short of, or ring bytes enough to carry
    /// the XDR bytes it is short of ([`XDR_PER_RING_BYTE`]). The rings
    /// reach this at the record that completes the batch or earlier.
    fn missing(&self) -> Fill {
        let records = self.cfg.max_batch_records - self.batcher.pending_records();
        let bytes = self.cfg.max_batch_bytes - self.batcher.pending_bytes();
        Fill {
            frames: records as u64,
            bytes: bytes.div_ceil(XDR_PER_RING_BYTE),
        }
    }

    /// Orderly teardown: drain the rings, flush everything buffered and
    /// send `Shutdown`, so no accepted record is lost. Consumes the EXS
    /// and returns its final stats.
    pub fn finish(mut self) -> Result<ExsStats> {
        self.scoop(usize::MAX)?;
        if let Some((batch, reason)) = self.batcher.flush() {
            self.send_batch(batch, reason)?;
        }
        self.uplink.send_shutdown();
        Ok(self.shared.snapshot())
    }
}

/// The one EXS runtime. Steps while linked; a lost link is dialed again
/// when the EXS has a [`ConnectFn`] and ends the run when it has none.
/// Between passes it sleeps in `poller` ([`ExternalSensor::sleep`]; in
/// redial backoff, until the next dial). Runs until `stop` or an orderly
/// ISM `Shutdown`, then flushes and says goodbye on a live link.
fn drive(mut exs: ExternalSensor, poller: &Poller, stop: &AtomicBool) -> Result<ExsStats> {
    let shared = Arc::clone(&exs.shared);
    let mut fds = Vec::with_capacity(2);
    while !stop.load(Ordering::Relaxed) {
        if !exs.linked() && !exs.uplink.redial() {
            if !exs.uplink.redials() {
                break;
            }
            // A failed dial scheduled the next attempt.
            poller.wait(&mut fds, exs.uplink.due_in())?;
            continue;
        }
        match exs.step()? {
            ExsStep::Shutdown => break,
            ExsStep::Idle => exs.sleep(poller, &mut fds)?,
            ExsStep::Busy | ExsStep::Disconnected => {}
        }
    }
    // A connection that dies during the final flush is fine; the counters
    // land in `shared` either way.
    if exs.linked() {
        let _ = exs.finish();
    }
    Ok(shared.snapshot())
}

/// Handle to an EXS running on its own thread.
pub struct ExsHandle {
    stop: Arc<AtomicBool>,
    /// Wakes the EXS's sleep so it sees `stop` at once.
    waker: Waker,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    node: NodeId,
    shared: Arc<ExsTelemetry>,
    join: std::thread::JoinHandle<Result<ExsStats>>,
}

impl ExsHandle {
    /// The EXS's corrected clock (e.g. to observe the correction value).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Live counters of the running EXS (no need to stop it).
    pub fn stats_now(&self) -> ExsStats {
        self.shared.snapshot()
    }

    /// Connections attached so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.shared.link.connects.load(Ordering::Relaxed)
    }

    /// Register the running EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// Signal the EXS to stop.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
    }

    /// Signal and wait for the EXS; returns its final stats.
    pub fn stop(self) -> Result<ExsStats> {
        self.request_stop();
        self.join
            .join()
            .map_err(|_| BriskError::Sync("EXS thread panicked".into()))?
    }
}

fn spawn(exs: ExternalSensor) -> Result<ExsHandle> {
    let (node, clock, shared) = (exs.node, Arc::clone(&exs.clock), Arc::clone(&exs.shared));
    let poller = Poller::new()?;
    let (waker, bell) = (poller.waker(), poller.waker());
    exs.rings.doorbell().set_wake(move || bell.wake());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(format!("brisk-exs-{node}"))
        .spawn(move || drive(exs, &poller, &stop2))
        .map_err(BriskError::Io)?;
    Ok(ExsHandle {
        stop,
        waker,
        clock,
        node,
        shared,
        join,
    })
}

/// Spawn an EXS on a dedicated thread (the usual deployment: "runs as
/// another process on the same node", here a thread) over `conn`. It ends
/// when that link drops.
pub fn spawn_exs(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    conn: Box<dyn Connection>,
    cfg: ExsConfig,
) -> Result<ExsHandle> {
    spawn(ExternalSensor::new(node, rings, raw_clock, conn, cfg)?)
}

/// Spawn an EXS that dials through `connect`, at once and again after
/// every lost link under `sup`'s backoff. It stops for good only on its
/// `stop` flag or an orderly ISM `Shutdown`. One EXS serves the node's
/// whole lifetime, so its counters are totals across reconnects.
pub fn spawn_exs_supervised(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    connect: ConnectFn,
    cfg: ExsConfig,
    sup: SupervisorConfig,
) -> Result<ExsHandle> {
    spawn(ExternalSensor::detached(node, rings, raw_clock, cfg)?.with_redial(connect, sup))
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // single-knob mutation is the point of these tests
mod tests {
    use super::*;
    use crate::testkit::{mem_pair, recv_msg};
    use crate::uplink::CONTROL_ERROR_BUDGET;
    use brisk_clock::{SimClock, SimTimeSource, SystemClock};
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_net::{MemTransport, Transport};
    use brisk_proto::Message;
    use std::time::Instant;

    struct Rig {
        exs: ExternalSensor,
        ism_side: Box<dyn Connection>,
        src: SimTimeSource,
        rings: Arc<RingSet>,
    }

    fn rig(cfg: ExsConfig, clock_offset: i64) -> Rig {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let src = SimTimeSource::new();
        let raw: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), clock_offset, 0.0, 1));
        let rings = RingSet::new(NodeId(7), cfg.ring_capacity);
        let exs = ExternalSensor::new(NodeId(7), Arc::clone(&rings), raw, conn, cfg).unwrap();
        Rig {
            exs,
            ism_side,
            src,
            rings,
        }
    }

    #[test]
    fn hello_is_sent_on_connect() {
        let mut r = rig(ExsConfig::default(), 0);
        assert_eq!(
            recv_msg(&mut r.ism_side),
            Message::Hello {
                node: NodeId(7),
                version: brisk_proto::VERSION
            }
        );
        let _ = &r.exs;
    }

    #[test]
    fn records_flow_and_get_corrected() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello

        // Apply a known correction, then emit records with raw timestamps.
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(51),
            vec![Value::I32(2)],
        )
        .unwrap();

        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { node, seq, records } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(seq, Some(1)); // the first batch is seq 1
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].ts, UtcMicros::from_micros(1_050));
                assert_eq!(records[1].ts, UtcMicros::from_micros(1_051));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().records_sent, 2);
        assert_eq!(r.exs.stats().flush_records, 1);
    }

    #[test]
    fn records_decoded_over_shipped_ones_carry_nothing_of_them() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 3;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        let shapes = [
            vec![
                Value::Str("wide".into()),
                Value::Bytes(vec![7; 40]),
                Value::I32(1),
            ],
            vec![],
            vec![Value::Ts(UtcMicros::from_micros(9)), Value::U8(2)],
        ];
        // Each round's records land in the shells of the round before, in
        // a different shape each time.
        for round in 0..4 {
            let mut want = Vec::new();
            for k in 0..3 {
                let fields = shapes[(round + k) % 3].clone();
                let ts = UtcMicros::from_micros(round as i64 * 10 + k as i64);
                port.emit(EventTypeId(1), ts, fields.clone()).unwrap();
                let seq = (round * 3 + k) as u64;
                let mut rec =
                    EventRecord::new(NodeId(7), port.sensor(), EventTypeId(1), seq, ts, fields)
                        .unwrap();
                rec.apply_correction(1_000);
                want.push(rec);
            }
            r.exs.step().unwrap();
            match recv_msg(&mut r.ism_side) {
                Message::EventBatch { records, .. } => assert_eq!(records, want),
                other => panic!("expected batch, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_stamps_accumulate_through_scoop_and_send() {
        use brisk_telemetry::TraceSampler;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.rings
            .set_trace_sampler(Arc::new(TraceSampler::with_seed(1, 9)));
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        r.src.advance_by(25); // scoop happens later than the notice
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => {
                let ctx = records[0].trace().expect("sampled record carries X_TRACE");
                let stages: Vec<TraceStage> = ctx.stamps().iter().map(|(s, _)| *s).collect();
                assert_eq!(
                    stages,
                    vec![
                        TraceStage::Notice,
                        TraceStage::ExsScoop,
                        TraceStage::BatchSend
                    ]
                );
                // The notice stamp was shifted by the correction along with
                // the header ts; later stamps read the corrected clock.
                assert_eq!(ctx.stamps()[0].1, records[0].ts);
                assert_eq!(ctx.stamps()[0].1, UtcMicros::from_micros(1_050));
                assert_eq!(ctx.stamps()[1].1, UtcMicros::from_micros(1_075));
                let times: Vec<i64> = ctx.stamps().iter().map(|(_, t)| t.as_micros()).collect();
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "monotonic stamps");
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn partial_batch_flushes_on_timeout() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100;
        cfg.flush_timeout = Duration::from_millis(40);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello

        let mut port = r.rings.register();
        port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        r.exs.step().unwrap(); // drains; batch stays partial
        assert_eq!(r.exs.stats().batches_sent, 0);

        r.src.advance_by(41_000); // 41 ms of sim time
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().flush_timeout, 1);
    }

    #[test]
    fn sync_poll_answered_with_corrected_time() {
        let mut r = rig(ExsConfig::default(), 500);
        recv_msg(&mut r.ism_side); // hello
        r.exs.corrected_clock().adjust(-200);
        r.src.advance_by(1_000);
        r.ism_side
            .send(
                &Message::SyncPoll {
                    round: 3,
                    sample: 1,
                    master_send: UtcMicros::from_micros(42),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            } => {
                assert_eq!(round, 3);
                assert_eq!(sample, 1);
                assert_eq!(master_send, UtcMicros::from_micros(42));
                // raw = 1000 + 500 offset, correction −200 → 1300.
                assert_eq!(slave_time, UtcMicros::from_micros(1_300));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(r.exs.stats().link.sync_replies, 1);
    }

    #[test]
    fn sync_adjust_moves_correction() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 777,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.corrected_clock().correction_us(), 777);
        assert_eq!(r.exs.stats().adjustments, 1);
    }

    #[test]
    fn shutdown_message_stops_step() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side.send(&Message::Shutdown.encode()).unwrap();
        assert_eq!(r.exs.step().unwrap(), ExsStep::Shutdown);
    }

    #[test]
    fn wrong_role_message_drops_the_link() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side
            .send(
                &Message::Hello {
                    node: NodeId(1),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(r.exs.step().unwrap(), ExsStep::Disconnected);
        assert!(!r.exs.linked());
        assert_eq!(
            r.exs.stats().link.decode_errors,
            0,
            "not charged to the budget"
        );
    }

    #[test]
    fn run_flushes_pending_records_on_stop() {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let mut ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        for i in 0..5 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        let handle = spawn_exs(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            conn,
            ExsConfig::default(),
        )
        .unwrap();
        // Give the EXS a moment to drain, then stop it.
        std::thread::sleep(Duration::from_millis(20));
        let stats = handle.stop().unwrap();
        assert_eq!(stats.records_drained, 5);
        assert_eq!(stats.records_sent, 5);

        // ISM side sees hello, one batch (possibly several), then Shutdown.
        let mut seen_records = 0;
        loop {
            match recv_msg(&mut ism_side) {
                Message::Hello { .. } => {}
                Message::EventBatch { records, .. } => seen_records += records.len(),
                Message::Shutdown => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen_records, 5);
    }

    #[test]
    fn finish_accounts_records_drained_during_teardown() {
        // Records that only leave the rings in finish()'s force-flush
        // must land in records_drained (and the forced-flush counter).
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100; // nothing flushes by size
        let r = rig(cfg, 0);
        let mut ism_side = r.ism_side;
        recv_msg(&mut ism_side); // hello
        let mut port = r.rings.register();
        for i in 0..7 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        // No step() at all: everything drains inside finish().
        let stats = r.exs.finish().unwrap();
        assert_eq!(stats.records_drained, 7);
        assert_eq!(stats.records_sent, 7);
        assert_eq!(stats.flush_forced, 1);
        match recv_msg(&mut ism_side) {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 7),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_bind_exports_exs_series() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);

        let mut port = r.rings.register();
        r.src.advance_by(10);
        for i in 0..4 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        r.exs.step().unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_exs_records_drained_total", &[("node", "7")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("brisk_exs_records_sent_total"), 4);
        assert_eq!(
            snap.counter_labeled(
                "brisk_exs_flush_total",
                &[("node", "7"), ("reason", "records")]
            ),
            Some(2)
        );
        let batch_hist = snap.histogram("brisk_exs_batch_records").unwrap();
        assert_eq!(batch_hist.count(), 2);
        assert_eq!(batch_hist.max, 2);
        // Drain latency recorded once per step (0 µs under a frozen SimClock).
        assert_eq!(snap.histogram("brisk_exs_drain_us").unwrap().count(), 1);
    }

    fn emit_n(rings: &Arc<RingSet>, n: u64) {
        let mut port = rings.register();
        for i in 0..n {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i as i64), vec![])
                .unwrap();
        }
    }

    #[test]
    fn batch_ack_releases_window() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // drain cap is 2·max_batch_records per step
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().batches_sent, 3);
        // All three batches are unacked and windowed.
        assert_eq!(r.exs.uplink.window_depth(), 3);

        // Cumulative ack for seq 2 releases the first two.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 2,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.uplink.window_depth(), 1);
        assert_eq!(r.exs.stats().link.acks_received, 1);
    }

    #[test]
    fn reattach_replays_unacked_batches_and_the_partial_batch_survives() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 4);
        r.src.advance_by(10);
        r.exs.step().unwrap();
        recv_msg(&mut r.ism_side); // batch 1
        recv_msg(&mut r.ism_side); // batch 2
                                   // Ack only the first; the second stays unacked.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.uplink.window_depth(), 1);
        // One more record sits in the batcher as a partial batch when the
        // link dies.
        emit_n(&r.rings, 1);
        r.exs.step().unwrap();
        drop(r.ism_side);
        assert_eq!(r.exs.step().unwrap(), ExsStep::Disconnected);

        // Same EXS, fresh connection: Hello, then the unacked batch
        // (seq 2) is replayed ahead of anything new.
        let (mut ism2, conn) = mem_pair();
        r.exs.reattach(conn).unwrap();
        match recv_msg(&mut ism2) {
            Message::Hello { node, version } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(version, brisk_proto::VERSION);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        match recv_msg(&mut ism2) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(2));
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected replayed batch, got {other:?}"),
        }
        let stats = r.exs.stats();
        assert_eq!(stats.link.batches_retransmitted, 1);
        // Replays are not re-counted as fresh sends.
        assert_eq!(stats.batches_sent, 2);
        // The partial batch outlived the connection and continues the
        // sequence stream once its flush timeout fires.
        r.src.advance_by(50_000);
        r.exs.step().unwrap();
        match recv_msg(&mut ism2) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(3));
                assert_eq!(records.len(), 1);
            }
            other => panic!("expected the partial batch, got {other:?}"),
        }
    }

    #[test]
    fn credit_exhaustion_defers_scooping_until_replenished() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
                                   // The ISM grants a budget of 2 in-flight records.
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 2,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.uplink.grant(), Some(2));

        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // scoops 2 (the per-step drain cap), sends 2
        assert_eq!(r.exs.stats().batches_sent, 2);
        let drained_before = r.exs.stats().records_drained;
        // Budget spent (2 unacked records): the third record must stay in
        // the ring, counted as a deferral.
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().records_drained, drained_before);
        assert!(r.exs.stats().credit_deferrals >= 1);
        assert_eq!(r.exs.stats().batches_sent, 2);

        // An ack replenishes the budget and reopens the tap.
        r.ism_side
            .send(&Message::BatchAck { seq: 2, credit: 2 }.encode())
            .unwrap();
        r.exs.step().unwrap(); // consumes the ack
        r.exs.step().unwrap(); // scoops the parked record
        assert_eq!(r.exs.stats().batches_sent, 3);
        assert_eq!(r.exs.stats().records_drained, drained_before + 1);
    }

    #[test]
    fn hello_ack_overwrites_carried_credit() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 99,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        // Across a reconnect the previous grant keeps pacing the scoop
        // until the new connection's HelloAck arrives...
        let (mut ism2, conn) = mem_pair();
        r.exs.reattach(conn).unwrap();
        recv_msg(&mut ism2); // hello
        assert_eq!(r.exs.uplink.grant(), Some(99));
        // ...whose grant replaces it.
        ism2.send(
            &Message::HelloAck {
                version: brisk_proto::VERSION,
                credit: 16,
            }
            .encode(),
        )
        .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.uplink.grant(), Some(16));
    }

    #[test]
    fn credit_telemetry_exports_balance_and_deferrals() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 2,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // spends the whole budget
        r.exs.step().unwrap(); // defers
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("brisk_uplink_credit_balance"), Some(0));
        assert!(snap.counter_total("brisk_exs_credit_deferred_total") >= 1);
    }

    #[test]
    fn full_window_evicts_oldest_and_counts_it() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        cfg.retransmit_window_batches = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 3); // three unacked batches into a window of two
        r.src.advance_by(10);
        r.exs.step().unwrap(); // drain cap is 2·max_batch_records per step
        r.exs.step().unwrap();
        let stats = r.exs.stats();
        assert_eq!(stats.batches_sent, 3);
        assert_eq!(stats.link.window_evicted, 1);
        assert_eq!(r.exs.uplink.window_depth(), 2);
    }

    #[test]
    fn heartbeat_sent_on_idle_link() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.src.advance_by(90_000);
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        // 180 ms idle since the Hello, but the HelloAck restarted the idle
        // clock 90 ms ago: no heartbeat yet.
        r.src.advance_by(90_000);
        r.exs.step().unwrap();
        assert!(r
            .ism_side
            .recv(Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
        r.src.advance_by(20_000);
        r.exs.step().unwrap();
        assert_eq!(recv_msg(&mut r.ism_side), Message::Heartbeat);
        assert_eq!(r.exs.stats().link.heartbeats_sent, 1);
        assert_eq!(r.exs.stats().link.hello_acks, 1);
        // Without further idle time no extra heartbeat is sent.
        r.exs.step().unwrap();
        assert!(r
            .ism_side
            .recv(Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn heartbeat_pacing_survives_backward_clock_step() {
        use brisk_clock::FaultClock;
        // A node whose raw clock steps backward by 10 s must not stall
        // heartbeats for those 10 s (pacing on plain clock readings would:
        // the elapsed-since-last-send computation goes negative until the
        // clock climbs back past its old reading).
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let mut ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let src = SimTimeSource::new();
        let sim: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
        let fault = FaultClock::new(sim, 0, 0.0);
        let raw: Arc<dyn Clock> = Arc::clone(&fault) as Arc<dyn Clock>;
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let rings = RingSet::new(NodeId(7), cfg.ring_capacity);
        let mut exs = ExternalSensor::new(NodeId(7), rings, raw, conn, cfg).unwrap();
        recv_msg(&mut ism_side); // hello
        ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        exs.step().unwrap();
        src.advance_by(150_000);
        exs.step().unwrap();
        assert_eq!(recv_msg(&mut ism_side), Message::Heartbeat);
        assert_eq!(exs.stats().link.heartbeats_sent, 1);

        // The clock steps back 10 s. The next step rebases the pacing
        // clock without sending a spurious heartbeat...
        fault.step_by(-10_000_000);
        exs.step().unwrap();
        assert_eq!(exs.stats().link.heartbeats_sent, 1);
        // ...and one more idle interval of *forward* progress produces
        // the next heartbeat on schedule, stall-free.
        src.advance_by(150_000);
        exs.step().unwrap();
        assert_eq!(recv_msg(&mut ism_side), Message::Heartbeat);
        assert_eq!(exs.stats().link.heartbeats_sent, 2);
    }

    #[test]
    fn stamp_hlc_attaches_monotone_stamps_at_scoop() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        cfg.stamp_hlc = true;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(2)],
        )
        .unwrap();
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => {
                let a = records[0].hlc().expect("first record carries X_HLC");
                let b = records[1].hlc().expect("second record carries X_HLC");
                // Both scooped at the same corrected instant: the physical
                // component ties and the logical counter breaks it.
                assert_eq!(a.physical, UtcMicros::from_micros(50));
                assert_eq!(b.physical, UtcMicros::from_micros(50));
                assert!(a < b, "scoop order is preserved in the stamps");
                assert_eq!(b.logical, a.logical + 1);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn sync_disabled_ignores_sync_adjust() {
        let mut cfg = ExsConfig::default();
        cfg.sync_disabled = true;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 777,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.corrected_clock().correction_us(), 0);
        assert_eq!(r.exs.stats().adjustments, 0);
        assert_eq!(r.exs.stats().sync_ignored, 1);
    }

    #[test]
    fn zero_interval_disables_heartbeats() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::ZERO;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: brisk_proto::VERSION,
                    credit: 1024,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        r.src.advance_by(10_000_000);
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().link.heartbeats_sent, 0);
    }

    #[test]
    fn garbage_control_frames_are_skipped_within_budget() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side); // hello
                                   // Up to the budget, undecodable frames are counted and skipped.
        for _ in 0..CONTROL_ERROR_BUDGET {
            r.ism_side.send(&[0xba, 0xad]).unwrap();
            r.exs.step().unwrap();
        }
        assert_eq!(
            r.exs.stats().link.decode_errors,
            CONTROL_ERROR_BUDGET as u64
        );
        // The EXS is still fully functional: a sync poll gets answered.
        r.ism_side
            .send(
                &Message::SyncPoll {
                    round: 1,
                    sample: 0,
                    master_send: UtcMicros::from_micros(1),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert!(matches!(
            recv_msg(&mut r.ism_side),
            Message::SyncReply { .. }
        ));
        // One past the budget: the connection is declared broken.
        r.ism_side.send(&[0xff]).unwrap();
        assert_eq!(r.exs.step().unwrap(), ExsStep::Disconnected);
        assert!(!r.exs.linked());
    }

    #[test]
    fn idle_steps_report_idle() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        assert_eq!(r.exs.step().unwrap(), ExsStep::Idle);
        assert!(r.exs.stats().iterations >= 1);
    }

    /// A hand-rolled "ISM" that accepts connections one at a time and can
    /// kill them, counting the records received across connections.
    fn recv_records(
        conn: &mut Box<dyn Connection>,
        budget: Duration,
    ) -> (usize, bool /* disconnected */) {
        let deadline = std::time::Instant::now() + budget;
        let mut n = 0;
        while std::time::Instant::now() < deadline {
            match conn.recv(Some(Duration::from_millis(10))) {
                Ok(Some(frame)) => {
                    if let Ok(Message::EventBatch { records, .. }) = Message::decode(&frame) {
                        n += records.len();
                    }
                }
                Ok(None) => {}
                Err(_) => return (n, true),
            }
        }
        (n, false)
    }

    #[test]
    fn survives_server_side_disconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(5),
                ..ExsConfig::default()
            },
            SupervisorConfig::default(),
        )
        .unwrap();

        // First connection: receive some records, then kill it.
        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        for i in 0..50 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got1, _) = recv_records(&mut conn1, Duration::from_millis(300));
        assert!(got1 > 0, "first connection must carry records");
        drop(conn1); // abrupt server-side disconnect

        // The EXS must reconnect…
        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        // …re-send Hello…
        let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Message::Hello {
                node: NodeId(1),
                ..
            }
        ));
        // …and keep delivering new records.
        for i in 50..80 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got2, _) = recv_records(&mut conn2, Duration::from_millis(300));
        assert!(got2 > 0, "records must flow on the new connection");

        assert_eq!(handle.connects(), 2);
        let stats = handle.stop().unwrap();
        assert_eq!(stats.link.connects, 2);
    }

    #[test]
    fn correction_value_carries_across_reconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();

        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn1.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Adjust the slave's correction, then kill the connection.
        conn1
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 12_345,
                }
                .encode(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(conn1);

        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Poll the new incarnation: its reply must include the carried
        // correction (clock reads now + 12_345 ± scheduling slack).
        let before = UtcMicros::now();
        conn2
            .send(
                &Message::SyncPoll {
                    round: 2,
                    sample: 0,
                    master_send: before,
                }
                .encode(),
            )
            .unwrap();
        let reply = loop {
            let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            if let Message::SyncReply { slave_time, .. } = Message::decode(&frame).unwrap() {
                break slave_time;
            }
        };
        let skew = reply.micros_since(UtcMicros::now());
        assert!(
            (8_000..=12_345).contains(&skew),
            "slave clock must be ~12.3 ms ahead (carried correction), got {skew}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn a_link_declared_corrupt_is_redialed_and_replayed() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(5),
                ..ExsConfig::default()
            },
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        )
        .unwrap();
        // Each incarnation opens with Hello and then the unacked batch
        // (never acked here, so every redial must replay it).
        let mut accept = || {
            let mut conn = listener
                .accept(Some(Duration::from_secs(5)))
                .unwrap()
                .expect("the EXS must dial again");
            let hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            assert!(matches!(Message::decode(&hello), Ok(Message::Hello { .. })));
            let batch = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            match Message::decode(&batch).unwrap() {
                Message::EventBatch { seq, records, .. } => {
                    assert_eq!((seq, records.len()), (Some(1), 3));
                }
                other => panic!("expected the windowed batch, got {other:?}"),
            }
            conn
        };
        for i in 0..3 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let mut first = accept();
        // One undecodable frame past the budget drops the link…
        for _ in 0..=CONTROL_ERROR_BUDGET {
            first.send(&[0xba, 0xad]).unwrap();
        }
        let mut second = accept();
        // …and so does a message a sender must never receive.
        let hello = Message::Hello {
            node: NodeId(9),
            version: brisk_proto::VERSION,
        };
        second.send(&hello.encode()).unwrap();
        let _third = accept();
        // An attach is counted once its Hello and replay are out, so the
        // peer can read them before the count moves.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.connects() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.connects(), 3);
        let stats = handle.stop().unwrap();
        assert_eq!(stats.link.decode_errors, u64::from(CONTROL_ERROR_BUDGET));
        assert_eq!(stats.link.batches_retransmitted, 2);
    }

    #[test]
    fn backoff_resets_only_after_hello_ack() {
        // Two supervised runs against hand-rolled ISMs that kill every
        // connection shortly after accepting it. The only difference: one
        // acknowledges the Hello first. With a large initial backoff the
        // no-ack run must pay the backoff between incarnations, while the
        // acked run reconnects promptly each time.
        fn run(ack: bool) -> Duration {
            let t = MemTransport::new();
            let mut listener = t.listen("ism").unwrap();
            let rings = RingSet::new(NodeId(1), 1 << 20);
            let t2 = Arc::clone(&t);
            let handle = spawn_exs_supervised(
                NodeId(1),
                rings,
                Arc::new(SystemClock),
                Box::new(move || t2.connect("ism")),
                ExsConfig::default(),
                SupervisorConfig {
                    initial_backoff: Duration::from_millis(250),
                    max_backoff: Duration::from_secs(2),
                },
            )
            .unwrap();
            let start = std::time::Instant::now();
            for _ in 0..2 {
                let mut conn = listener
                    .accept(Some(Duration::from_secs(10)))
                    .unwrap()
                    .unwrap();
                let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
                if ack {
                    conn.send(
                        &Message::HelloAck {
                            version: brisk_proto::VERSION,
                            credit: 1024,
                        }
                        .encode(),
                    )
                    .unwrap();
                    // Give the EXS a step to process the ack before the kill.
                    std::thread::sleep(Duration::from_millis(50));
                }
                drop(conn);
            }
            let _conn3 = listener
                .accept(Some(Duration::from_secs(10)))
                .unwrap()
                .unwrap();
            let elapsed = start.elapsed();
            handle.stop().ok();
            elapsed
        }
        let with_ack = run(true);
        let without_ack = run(false);
        // No HelloAck → two backoff pauses of ≥ 250 ms each before the
        // third connection shows up.
        assert!(
            without_ack >= Duration::from_millis(450),
            "pre-ack deaths must keep (and grow) the backoff, got {without_ack:?}"
        );
        assert!(
            with_ack < without_ack,
            "acked incarnations must reconnect faster ({with_ack:?} vs {without_ack:?})"
        );
    }

    #[test]
    fn a_reconnect_refused_before_its_hello_ack_is_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            RingSet::new(NodeId(1), 1 << 20),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        )
        .unwrap();
        let mut accept = || {
            let mut conn = listener
                .accept(Some(Duration::from_secs(5)))
                .unwrap()
                .expect("the EXS must dial");
            let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            conn
        };
        // Incarnation 1 is established, then its link dies abruptly.
        let mut first = accept();
        let ack = Message::HelloAck {
            version: brisk_proto::VERSION,
            credit: 1024,
        };
        first.send(&ack.encode()).unwrap();
        while handle.stats_now().link.hello_acks < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(first);
        // Incarnation 2 races the ISM's reaping of the dead connection and
        // is refused as a duplicate: `Shutdown`, no `HelloAck`.
        let mut second = accept();
        second.send(&Message::Shutdown.encode()).unwrap();
        // The node must come back rather than stay down for good.
        let _third = accept();
        handle.stop().ok();
    }

    #[test]
    fn orderly_ism_shutdown_is_honoured_not_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&Message::Shutdown.encode()).unwrap();
        // The EXS must exit on its own, without a reconnect attempt.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.connects() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            listener
                .accept(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none(),
            "no reconnect after an orderly shutdown"
        );
        let stats = handle.stop().unwrap();
        assert_eq!(stats.link.connects, 1);
    }

    #[test]
    fn a_sleeping_exs_is_rung_awake_by_every_burst() {
        // Two sensors emit seeded bursts, and each waits for its burst's
        // tail to reach the fake ISM before a 0–5 ms gap. With heartbeats
        // off, only the doorbell wakes an EXS asleep on empty rings, so a
        // lost wakeup strands a tail for good: 2 s bounds "for good", it
        // is no latency bar (`partial_batch_flushes_on_timeout` times the
        // flush).
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        use std::sync::{Condvar, Mutex};
        const PER_SENSOR: u64 = 10_000;
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(3), 1 << 18);
        let ports = [rings.register(), rings.register()];
        let cfg = ExsConfig {
            flush_timeout: Duration::from_millis(10),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(3), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        // Records the fake ISM has received per sensor: the next seq due.
        let arrived = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
        let sensors: Vec<_> = ports
            .into_iter()
            .zip(0..)
            .map(|(mut port, s)| {
                let arrived = Arc::clone(&arrived);
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0d00_be11 + s);
                    while port.next_seq() < PER_SENSOR {
                        let burst = rng.gen_range(1..=200u64).min(PER_SENSOR - port.next_seq());
                        for _ in 0..burst {
                            assert!(port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap());
                        }
                        let (sensor, tail) = (port.sensor(), port.next_seq() - 1);
                        let (seen, rung) = &*arrived;
                        let wait = Duration::from_secs(2);
                        let stranded =
                            |seen: &mut HashMap<_, u64>| seen.get(&sensor) <= Some(&tail);
                        let waited = rung
                            .wait_timeout_while(seen.lock().unwrap(), wait, stranded)
                            .unwrap()
                            .1;
                        assert!(
                            !waited.timed_out(),
                            "the burst ending at {sensor:?}/{tail} never arrived"
                        );
                        let gap = rng.gen_range(0..=5_000u64);
                        std::thread::sleep(Duration::from_micros(gap));
                    }
                })
            })
            .collect();
        // Every sensor returns once its last tail arrived, or panics.
        while !sensors.iter().all(|s| s.is_finished()) {
            let Some(frame) = ism.recv(Some(Duration::from_millis(100))).unwrap() else {
                continue;
            };
            if let Message::EventBatch { records, .. } = Message::decode(&frame).unwrap() {
                let (seen, rung) = &*arrived;
                let mut seen = seen.lock().unwrap();
                for r in records {
                    let next = seen.entry(r.sensor).or_insert(0);
                    assert_eq!(r.seq, *next, "{:?} out of order or twice", r.sensor);
                    *next += 1;
                }
                rung.notify_all();
            }
        }
        for sensor in sensors {
            sensor.join().unwrap();
        }
        handle.stop().unwrap();
    }

    #[test]
    fn stop_wakes_a_sleeping_exs_at_once() {
        // Asleep on its link and doorbell with heartbeats off, or in a 2 s
        // redial backoff: either way the stop bell ends the sleep.
        let (_ism, conn) = mem_pair();
        let cfg = ExsConfig {
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let rings = |n| RingSet::new(NodeId(n), 1 << 16);
        let clock = || Arc::new(SystemClock) as Arc<dyn Clock>;
        let parked = spawn_exs(NodeId(4), rings(4), clock(), conn, cfg.clone()).unwrap();
        let t = MemTransport::new();
        let backoff = SupervisorConfig {
            initial_backoff: Duration::from_secs(2),
            max_backoff: Duration::from_secs(2),
        };
        let dial: ConnectFn = Box::new(move || t.connect("nobody"));
        let redialing =
            spawn_exs_supervised(NodeId(5), rings(5), clock(), dial, cfg, backoff).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(redialing.connects(), 0, "the dial must have failed");
        for handle in [parked, redialing] {
            let t0 = Instant::now();
            handle.stop().unwrap();
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(50), "stop took {took:?}");
        }
    }

    #[test]
    fn an_xdr_record_is_at_most_twice_its_ring_frame() {
        // The worst shapes for XDR's 4-byte padding, with the stamps the
        // EXS adds (a trace stage, an `X_HLC` where a field slot is free).
        use brisk_core::{binenc, HlcStamp, SensorId, TraceContext};
        let trace = Value::Trace(TraceContext::origin(1, UtcMicros::ZERO));
        let with_trace = |mut fields: Vec<Value>| {
            fields.push(trace.clone());
            fields
        };
        let shapes = [
            vec![],
            vec![Value::U8(1); 8],
            vec![Value::Bool(true); 7],
            vec![Value::I16(1); 7],
            vec![Value::Str("a".into()); 7],
            vec![Value::Bytes(vec![1; 5]); 7],
            with_trace(vec![]),
            with_trace(vec![Value::I8(1); 6]),
            with_trace(vec![Value::U8(1); 7]),
        ];
        for fields in shapes {
            let (ts, id) = (UtcMicros::ZERO, EventTypeId(1));
            let mut rec = EventRecord::new(NodeId(1), SensorId(1), id, 0, ts, fields).unwrap();
            let ring = 4 + binenc::encode_record(&rec, &mut Vec::new());
            rec.stamp_trace(TraceStage::ExsScoop, ts);
            rec.set_hlc(HlcStamp::ZERO);
            let xdr = rec.xdr_payload_size();
            assert!(xdr <= XDR_PER_RING_BYTE * ring, "{rec}: {xdr} > 2 x {ring}");
        }
    }

    #[test]
    fn large_records_ship_when_the_byte_knob_trips_not_at_the_deadline() {
        // 1 KiB strings trip the 8 KiB byte knob at the eighth record, far
        // below the record knob. The sensor emits them 5 ms apart, so the
        // EXS sleeps on its partial batch between them (it wakes at what
        // the batch lacks, not per record). The eighth must ship within
        // 2 s, far from the 30 s flush deadline and from a fifth of it.
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(8), 1 << 18);
        let mut port = rings.register();
        let cfg = ExsConfig {
            max_batch_bytes: 8 * 1024,
            flush_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(8), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        recv_msg(&mut ism); // hello
        for n in 1..=8 {
            std::thread::sleep(Duration::from_millis(5));
            assert!(ism.recv(Some(Duration::ZERO)).unwrap().is_none(), "{n}");
            let big = vec![Value::Str("x".repeat(1024))];
            port.emit(EventTypeId(1), UtcMicros::ZERO, big).unwrap();
        }
        let filled = Instant::now();
        let frame = ism.recv(Some(Duration::from_secs(10))).unwrap();
        match Message::decode(&frame.expect("no batch within 10 s")).unwrap() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 8),
            other => panic!("expected a batch, got {other:?}"),
        }
        let took = filled.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shipped {took:?} after it filled"
        );
        let stats = handle.stop().unwrap();
        assert_eq!((stats.flush_bytes, stats.flush_timeout), (1, 0));
    }

    #[test]
    fn a_small_ring_is_drained_before_it_fills_on_the_way_to_a_full_batch() {
        // A 2 KiB ring holds 62 empty records, far fewer than the 256 of
        // a batch at the default knobs, and the flush deadline is 30 s
        // off. The doorbell's level is capped at half a ring, so at two
        // records a millisecond the EXS drains the ring every 31 records,
        // 15 ms before it would overflow, and the 256th ships the batch.
        let (mut ism, conn) = mem_pair();
        let rings = RingSet::new(NodeId(9), 2 << 10);
        let mut port = rings.register();
        let cfg = ExsConfig {
            flush_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
            ..ExsConfig::default()
        };
        let handle = spawn_exs(NodeId(9), rings, Arc::new(SystemClock), conn, cfg).unwrap();
        recv_msg(&mut ism); // hello
        for _ in 0..150 {
            for _ in 0..2 {
                port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let frame = ism.recv(Some(Duration::from_secs(10))).unwrap();
        match Message::decode(&frame.expect("no batch within 10 s")).unwrap() {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 256),
            other => panic!("expected a batch, got {other:?}"),
        }
        assert_eq!(port.stats().dropped, 0);
        let stats = handle.stop().unwrap();
        assert_eq!((stats.flush_records, stats.flush_timeout), (1, 0));
    }
}
