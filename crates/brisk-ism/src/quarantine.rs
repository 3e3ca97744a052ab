//! The malformed-frame quarantine: a frame that fails to decode is
//! counted, sampled (bounded) and dropped, and only a connection that
//! exhausts its error budget is closed.

use brisk_core::NodeId;
use brisk_telemetry::Registry;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

brisk_telemetry::metrics! {
    /// What the quarantine counted, bumped by the reactor.
    struct QuarantineCells {
        frames: counter "brisk_ism_quarantined_frames_total" "Undecodable frames quarantined by the ISM",
        disconnects: counter "brisk_ism_quarantine_disconnects_total" "Connections dropped after exhausting their protocol error budget",
        rejected_hellos: counter "brisk_ism_rejected_hellos_total" "Hellos rejected for claiming a node id already served by a live connection",
    }
}

/// Upper bound on retained malformed-frame samples: enough to diagnose a
/// corruption pattern, small enough never to matter for memory.
pub const MAX_QUARANTINE_SAMPLES: usize = 16;
/// Leading bytes of a malformed frame kept (as hex) per sample.
pub const QUARANTINE_SAMPLE_BYTES: usize = 64;

/// One retained malformed frame (head only), for post-mortem inspection.
#[derive(Clone, Debug)]
pub struct QuarantineSample {
    /// Node whose connection produced the frame.
    pub node: NodeId,
    /// Full length of the offending frame in bytes.
    pub len: usize,
    /// Hex dump of the frame's first [`QUARANTINE_SAMPLE_BYTES`] bytes.
    pub head_hex: String,
    /// Why the frame did not decode.
    pub error: String,
}

/// The ISM's record of undecodable frames, across all connections.
///
/// A frame that fails to decode is *quarantined*: counted here, sampled
/// (bounded), and otherwise dropped — the connection survives
/// until its per-connection error budget runs out. This keeps one node's
/// corrupted link from taking anything else down while still leaving an
/// audit trail of what arrived.
#[derive(Default)]
pub struct QuarantineLog {
    cells: Arc<QuarantineCells>,
    samples: Mutex<Vec<QuarantineSample>>,
}

impl QuarantineLog {
    /// New shared log.
    pub fn new() -> Arc<Self> {
        Arc::new(QuarantineLog::default())
    }

    /// Record one undecodable frame.
    pub fn record(&self, node: NodeId, frame: &[u8], error: &str) {
        self.cells.frames.fetch_add(1, Relaxed);
        if let Ok(mut samples) = self.samples.lock() {
            if samples.len() < MAX_QUARANTINE_SAMPLES {
                let head = &frame[..frame.len().min(QUARANTINE_SAMPLE_BYTES)];
                let head_hex = head.iter().map(|b| format!("{b:02x}")).collect();
                samples.push(QuarantineSample {
                    node,
                    len: frame.len(),
                    head_hex,
                    error: error.to_string(),
                });
            }
        }
    }

    /// Record one connection dropped for exhausting its error budget.
    pub fn note_disconnect(&self) {
        self.cells.disconnects.fetch_add(1, Relaxed);
    }

    /// Total undecodable frames quarantined.
    pub fn frames(&self) -> u64 {
        self.cells.frames.load(Relaxed)
    }

    /// Connections dropped for exhausting their error budget.
    pub fn disconnects(&self) -> u64 {
        self.cells.disconnects.load(Relaxed)
    }

    /// Record one `Hello` rejected because its node id was already
    /// claimed by a live connection.
    pub fn note_rejected_hello(&self) {
        self.cells.rejected_hellos.fetch_add(1, Relaxed);
    }

    /// `Hello`s rejected for claiming an already-active node id.
    pub fn rejected_hellos(&self) -> u64 {
        self.cells.rejected_hellos.load(Relaxed)
    }

    /// The retained samples (at most [`MAX_QUARANTINE_SAMPLES`]).
    pub fn samples(&self) -> Vec<QuarantineSample> {
        self.samples.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Export the quarantine counters.
    pub fn bind_telemetry(self: &Arc<Self>, registry: &Arc<Registry>) {
        self.cells.register(registry, &[]);
    }
}
