//! EXS→ISM flow control: the shared bound on records queued for the
//! manager, and the per-connection credit budget derived from it.

use brisk_core::FlowConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared EXS→ISM flow-control state: one instance per server, touched by
/// every pump and by the manager.
///
/// The manager's ingest queue itself stays an unbounded channel (events
/// already read off a socket are never dropped); what is bounded is the
/// number of *records* resident in it. While `queued` exceeds the
/// configured bound, pumps stop reading their sockets — commands from the
/// manager still run, so sync rounds and shutdown cannot deadlock — and
/// TCP backpressure pushes the overload back to the sender, whose credit
/// runs out next.
pub struct FlowState {
    cfg: FlowConfig,
    queued: AtomicU64,
    high_water: AtomicU64,
    deferrals: AtomicU64,
}

impl FlowState {
    /// New shared state for one server.
    pub fn new(cfg: FlowConfig) -> Arc<Self> {
        Arc::new(FlowState {
            cfg,
            queued: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            deferrals: AtomicU64::new(0),
        })
    }

    /// The per-connection credit budget to grant, or `None` when credit
    /// flow control is disabled.
    pub fn credit(&self) -> Option<u64> {
        match self.cfg.credit_records {
            0 => None,
            n => Some(n),
        }
    }

    /// Account `n` records entering the manager queue.
    pub fn add(&self, n: u64) {
        let now = self.queued.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Account `n` records leaving the manager queue.
    pub fn sub(&self, n: u64) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records currently queued between the pumps and the manager.
    pub fn queued_records(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Highest queue depth (records) observed so far.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// True while pumps should defer socket reads.
    pub fn over_limit(&self) -> bool {
        self.cfg.max_queued_records != 0
            && self.queued_records() > self.cfg.max_queued_records as u64
    }

    /// Count one deferred socket read.
    pub fn note_deferral(&self) {
        self.deferrals.fetch_add(1, Ordering::Relaxed);
    }

    /// Deferred socket reads so far.
    pub fn deferrals(&self) -> u64 {
        self.deferrals.load(Ordering::Relaxed)
    }
}
