//! EXS→ISM flow control: the shared bound on records queued for the
//! manager, and the per-connection credit budget derived from it.

use brisk_core::FlowConfig;
use brisk_net::Waker;
use brisk_telemetry::Registry;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};

brisk_telemetry::metrics! {
    /// The manager-queue accounting every pump and the manager share.
    struct FlowCells {
        queued: gauge "brisk_ism_manager_queue_records" "Records resident in the ISM manager queue",
        high_water: gauge "brisk_ism_manager_queue_depth_high_water" "Highest record count ever resident in the ISM manager queue",
        deferrals: counter "brisk_ism_deferred_reads_total" "Socket reads pumps deferred because the manager queue was over its bound",
    }
}

/// Shared EXS→ISM flow-control state: one instance per server, touched by
/// every pump and by the manager.
///
/// The manager's ingest queue itself stays an unbounded channel (events
/// already read off a socket are never dropped); what is bounded is the
/// number of *records* resident in it. While `queued` exceeds the
/// configured bound, pumps stop reading their sockets — commands from the
/// manager still run, so sync rounds and shutdown cannot deadlock — and
/// TCP backpressure pushes the overload back to the sender, whose credit
/// runs out next. The [`FlowState::sub`] that brings the queue back to
/// its bound wakes the reactor, so a deferring reactor sleeps until then
/// instead of re-checking on a timer.
pub struct FlowState {
    cfg: FlowConfig,
    cells: Arc<FlowCells>,
    /// The reactor's waker, registered once when it spawns.
    waker: OnceLock<Waker>,
}

impl FlowState {
    /// New shared state for one server.
    pub fn new(cfg: FlowConfig) -> Arc<Self> {
        Arc::new(FlowState {
            cfg,
            cells: Arc::default(),
            waker: OnceLock::new(),
        })
    }

    /// Wake `waker` whenever the queue drains back to its bound.
    pub(crate) fn register_waker(&self, waker: Waker) {
        let _ = self.waker.set(waker);
    }

    /// Publish the queue gauges and the deferral counter.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.cells.register(registry, &[]);
    }

    /// The per-connection credit budget to grant.
    pub fn credit(&self) -> u64 {
        self.cfg.credit_records
    }

    /// Account `n` records entering the manager queue.
    pub fn add(&self, n: u64) {
        let now = self.cells.queued.fetch_add(n as i64, Relaxed) + n as i64;
        self.cells.high_water.fetch_max(now, Relaxed);
    }

    /// Account `n` records leaving the manager queue. The one `sub` per
    /// over-bound episode that takes the queue from above its bound to at
    /// or below it wakes the reactor, which deferred its reads.
    pub fn sub(&self, n: u64) {
        let bound = self.cfg.max_queued_records as i64;
        let before = self.cells.queued.fetch_sub(n as i64, Relaxed);
        if before > bound && before - n as i64 <= bound {
            if let Some(waker) = self.waker.get() {
                waker.wake();
            }
        }
    }

    /// Records currently queued between the pumps and the manager.
    pub fn queued_records(&self) -> u64 {
        self.cells.queued.load(Relaxed) as u64
    }

    /// Highest queue depth (records) observed so far.
    pub fn high_water(&self) -> u64 {
        self.cells.high_water.load(Relaxed) as u64
    }

    /// True while pumps should defer socket reads.
    pub fn over_limit(&self) -> bool {
        self.queued_records() > self.cfg.max_queued_records as u64
    }

    /// Count one deferred socket read.
    pub fn note_deferral(&self) {
        self.cells.deferrals.fetch_add(1, Relaxed);
    }

    /// Deferred socket reads so far.
    pub fn deferrals(&self) -> u64 {
        self.cells.deferrals.load(Relaxed)
    }
}
