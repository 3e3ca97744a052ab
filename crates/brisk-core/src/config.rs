//! Configuration: the "tuning knobs" of BRISK's subsystems.
//!
//! The paper adds "tuning knobs to many of BRISK's subsystems, so that users
//! can trade-off among the various simple and complex IS performance metrics
//! in a specific working environment" (§2). Each knob cluster gets a struct
//! here; defaults follow the values stated or implied by the paper.
//!
//! A field exists only when two non-test callers set it to different
//! values (a flag, an example, an experiment, an e2e test or the
//! benchmark against the default). Any other setting — the paper's fixed
//! constants such as the 0.7 sync damping among them — is a private
//! `const` beside its one reader.

use crate::error::{BriskError, Result};
use std::path::PathBuf;
use std::time::Duration;

/// External sensor (EXS) knobs: batching and latency control (§3.4, Fig. 1
/// "batching, latency control").
#[derive(Clone, Debug, PartialEq)]
pub struct ExsConfig {
    /// Capacity of the sensor→EXS ring buffer in bytes.
    pub ring_capacity: usize,
    /// Flush a batch to the ISM once it holds this many records.
    pub max_batch_records: usize,
    /// Flush a batch once its encoded size reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Flush a non-empty batch after this long even if it is not full —
    /// the *latency control* knob. The paper's worst-case latency lower
    /// bound "was found to depend on waiting select system calls, which can
    /// delay an event record for up to 40 ms"; this plays the role of that
    /// select timeout.
    pub flush_timeout: Duration,
    /// How many sent-but-unacknowledged batches the EXS keeps for replay
    /// after a reconnect. When the window is full the oldest unacked batch
    /// is evicted (and counted), so those records degrade to at-most-once
    /// instead of blocking the node; size it to cover the ISM's ack
    /// round-trip at peak batch rate.
    pub retransmit_window_batches: usize,
    /// Send a `Heartbeat` once the connection has been idle (nothing sent)
    /// this long, so the ISM can distinguish a quiet node from a silently
    /// dead one. `Duration::ZERO` disables heartbeats. Keep this well below
    /// the ISM's `node_timeout` or quiet nodes get evicted.
    pub heartbeat_interval: Duration,
    /// Attach an `X_HLC` hybrid-logical-clock stamp to every record at
    /// scoop time. The stamp captures per-node causal order even when
    /// the physical clock is skewed; an ISM running in causal order mode
    /// merges these stamps into its own HLC. Off by default (adds up to
    /// 14 bytes per record on the wire).
    pub stamp_hlc: bool,
    /// Ignore `SyncAdjust` messages from the ISM, leaving the correction
    /// value wherever it is. A chaos-plane knob: a node with sync
    /// disabled drifts freely, which is exactly the condition causal
    /// ordering must survive. Never set in production.
    pub sync_disabled: bool,
    /// Self-tracing knobs: sampled `X_TRACE` contexts attached at notice
    /// time.
    pub trace: TraceConfig,
}

impl Default for ExsConfig {
    fn default() -> Self {
        ExsConfig {
            ring_capacity: 1 << 20,
            max_batch_records: 256,
            max_batch_bytes: 60 * 1024,
            flush_timeout: Duration::from_millis(40),
            retransmit_window_batches: 256,
            heartbeat_interval: Duration::from_millis(500),
            stamp_hlc: false,
            sync_disabled: false,
            trace: TraceConfig::default(),
        }
    }
}

impl ExsConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        if self.ring_capacity < 1024 {
            return Err(BriskError::Config(
                "ring_capacity must be at least 1 KiB".into(),
            ));
        }
        if self.max_batch_records == 0 {
            return Err(BriskError::Config("max_batch_records must be > 0".into()));
        }
        if self.max_batch_bytes < 64 {
            return Err(BriskError::Config(
                "max_batch_bytes must be at least 64".into(),
            ));
        }
        if self.flush_timeout.is_zero() {
            return Err(BriskError::Config("flush_timeout must be > 0".into()));
        }
        if self.retransmit_window_batches == 0 {
            return Err(BriskError::Config(
                "retransmit_window_batches must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Self-tracing knobs: how often a `NOTICE` attaches an `X_TRACE`
/// context so the record's journey through the pipeline is recorded
/// stage by stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Attach a trace context to one in every `sample_every` records a
    /// sensor port emits. `0` disables tracing entirely (the default);
    /// `1` traces every record (e2e test mode). Sampling is per-port
    /// counter based, so a steady sensor yields an unbiased 1-in-N
    /// stream regardless of rate.
    pub sample_every: u32,
}

impl TraceConfig {
    /// Tracing enabled at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sample_every != 0
    }

    /// Trace one record in every `n`.
    pub fn every(n: u32) -> Self {
        TraceConfig { sample_every: n }
    }
}

/// Clock-synchronization knobs (§3.3).
#[derive(Clone, Debug, PartialEq)]
pub struct SyncConfig {
    /// Period between synchronization rounds. The paper's evaluation used a
    /// "5 s polling period".
    pub poll_period: Duration,
    /// How many times the master queries each slave per round, "to average
    /// the results".
    pub samples_per_slave: usize,
    /// Use the unmodified Cristian algorithm (slaves are driven toward the
    /// *master* clock, full correction always) instead of BRISK's
    /// most-ahead-slave variant. Ablation knob for experiment A1.
    pub original_cristian: bool,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            poll_period: Duration::from_secs(5),
            samples_per_slave: 4,
            original_cristian: false,
        }
    }
}

impl SyncConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        if self.poll_period.is_zero() {
            return Err(BriskError::Config("poll_period must be > 0".into()));
        }
        if self.samples_per_slave == 0 {
            return Err(BriskError::Config("samples_per_slave must be > 0".into()));
        }
        Ok(())
    }
}

/// On-line sorting knobs (§3.6).
///
/// The sorter "delays each instrumentation data record for `T` time units
/// after its creation", grows `T` when an inversion is detected and then
/// "exponentially decreases the time frame". The evaluation varied four
/// parameters; these knobs are that parameter space.
#[derive(Clone, Debug, PartialEq)]
pub struct SorterConfig {
    /// Initial time frame `T` in microseconds.
    pub initial_frame_us: i64,
    /// Lower bound for `T` as it decays.
    pub min_frame_us: i64,
    /// Upper bound for `T` as it grows.
    pub max_frame_us: i64,
    /// Growth policy on an observed inversion.
    pub growth: FrameGrowth,
    /// Per-decay-step multiplier in (0, 1]; 1.0 disables decay. A *small*
    /// exponent constant (multiplier close to 1, i.e. "a large T's
    /// half-life") is the paper's recommendation for non-latency-critical
    /// applications.
    pub decay_factor: f64,
    /// How often the exponential decay step is applied (at least 1 µs).
    pub decay_interval: Duration,
}

/// How the time frame grows when two successive records from different
/// external sensors are extracted out of order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameGrowth {
    /// Set `T` to the observed lateness of the late record (the paper's
    /// recommended strategy for latency-critical applications: "setting the
    /// time frame T to be as large as the latest late event's lateness").
    ToObservedLateness,
    /// Multiply `T` by this factor.
    Multiplicative(f64),
    /// Add this many microseconds.
    Additive(i64),
}

impl Default for SorterConfig {
    fn default() -> Self {
        SorterConfig {
            initial_frame_us: 2_000,
            min_frame_us: 100,
            max_frame_us: 2_000_000,
            growth: FrameGrowth::ToObservedLateness,
            decay_factor: 0.95,
            decay_interval: Duration::from_millis(100),
        }
    }
}

impl SorterConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        if self.initial_frame_us < 0 || self.min_frame_us < 0 {
            return Err(BriskError::Config("frames must be non-negative".into()));
        }
        if self.min_frame_us > self.max_frame_us {
            return Err(BriskError::Config(
                "min_frame_us must not exceed max_frame_us".into(),
            ));
        }
        if !(self.min_frame_us..=self.max_frame_us).contains(&self.initial_frame_us) {
            return Err(BriskError::Config(
                "initial_frame_us must lie within [min, max]".into(),
            ));
        }
        if !(0.0 < self.decay_factor && self.decay_factor <= 1.0) {
            return Err(BriskError::Config("decay_factor must be in (0, 1]".into()));
        }
        // The sorter steps decay in whole microseconds and divides by the
        // interval.
        if self.decay_interval < Duration::from_micros(1) {
            return Err(BriskError::Config(
                "decay_interval must be at least 1 µs".into(),
            ));
        }
        match self.growth {
            FrameGrowth::Multiplicative(f) if f < 1.0 => Err(BriskError::Config(
                "multiplicative growth factor must be >= 1".into(),
            )),
            FrameGrowth::Additive(a) if a < 0 => Err(BriskError::Config(
                "additive growth must be non-negative".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// Causally-related-event (CRE) handling knobs (§3.6).
#[derive(Clone, Debug, PartialEq)]
pub struct CreConfig {
    /// "A causally-marked event of either type is kept in memory no longer
    /// than a specified timeout, because its peer may have been dropped."
    pub hold_timeout: Duration,
}

impl Default for CreConfig {
    fn default() -> Self {
        CreConfig {
            hold_timeout: Duration::from_secs(2),
        }
    }
}

impl CreConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        if self.hold_timeout.is_zero() {
            return Err(BriskError::Config("hold_timeout must be > 0".into()));
        }
        Ok(())
    }
}

/// When the durable trace store forces its buffered segment bytes to disk.
///
/// The knob trades durability against write amplification: `Always` loses
/// nothing an `on_record` returned `Ok` for, `Interval` bounds the loss
/// window after a crash to the chosen duration, `Never` leaves flushing to
/// the OS page cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record.
    Always,
    /// `fdatasync` whenever this much *stream time* (the records' own
    /// timestamps) has passed since the last sync. Stream time tracks wall
    /// time for a live trace while keeping the append path free of clock
    /// reads, and makes the policy behave identically under replay. A
    /// stream that goes quiet stops that clock, so the writer's owner also
    /// calls `StoreWriter::sync_if_due` at `StoreWriter::sync_due` (the
    /// ISM's loop wakes for it): it syncs once the oldest unsynced append
    /// is this old by the wall clock.
    Interval(Duration),
    /// Never sync explicitly; the OS decides. A machine crash can lose
    /// everything since the last rotation, a process crash at most the
    /// store's one pending buffer: under 64 KiB plus one frame.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `never`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:") {
                Some(ms) => {
                    let ms: u64 = ms.parse().map_err(|e| {
                        BriskError::Config(format!("bad fsync interval {ms:?}: {e}"))
                    })?;
                    if ms == 0 {
                        return Err(BriskError::Config("fsync interval must be > 0 ms".into()));
                    }
                    Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
                }
                None => Err(BriskError::Config(format!(
                    "unknown fsync policy {other:?} (want always | never | interval:<ms>)"
                ))),
            },
        }
    }
}

/// Durable trace store knobs (the `brisk-store` subsystem).
#[derive(Clone, Debug, PartialEq)]
pub struct StoreConfig {
    /// Directory holding the segment files. `None` disables the store.
    pub dir: Option<PathBuf>,
    /// Rotate the active segment once it holds this many bytes.
    pub segment_bytes: u64,
    /// When appended records are forced to disk.
    pub fsync: FsyncPolicy,
    /// Evict the oldest sealed segments once the store exceeds this many
    /// bytes in total. `0` disables retention.
    pub retain_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            dir: None,
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Interval(Duration::from_millis(200)),
            retain_bytes: 0,
        }
    }
}

impl StoreConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        if self.segment_bytes < 4096 {
            return Err(BriskError::Config(
                "segment_bytes must be at least 4 KiB".into(),
            ));
        }
        if let FsyncPolicy::Interval(d) = self.fsync {
            if d.is_zero() {
                return Err(BriskError::Config("fsync interval must be > 0".into()));
            }
        }
        Ok(())
    }

    /// Convenience: a store rooted at `dir` with defaults otherwise.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: Some(dir.into()),
            ..StoreConfig::default()
        }
    }
}

/// EXS→ISM flow-control knobs (credit).
///
/// The ISM grants each connection a budget of unacknowledged records in
/// `HelloAck`, re-advertised on every `BatchAck`; the EXS stops scooping
/// its rings when the budget is spent, so overload backs up into the SPSC
/// rings' drop accounting instead of RAM. Under sorter memory pressure the
/// shedding policy picks what to lose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Records one connection may have unacknowledged in flight (at
    /// least 16).
    pub credit_records: u64,
    /// No effect: the ISM is one loop, so no queue sits between reading a
    /// batch and pushing it into the core. The field stays only because
    /// the pipeline benchmark builds `FlowConfig` as a struct literal;
    /// ROADMAP item 2a(c) deletes it.
    pub max_queued_records: usize,
    /// Under sorter memory pressure, drop the oldest *unmarked* records
    /// instead of force-releasing everything early. CRE-marked records are
    /// never dropped. `false` keeps the force-release behaviour.
    pub shed_unmarked: bool,
}

/// A grant of a few batches per connection.
impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            credit_records: 2048,
            max_queued_records: 1024,
            shed_unmarked: false,
        }
    }
}

impl FlowConfig {
    /// Validate knob values.
    pub fn validate(&self) -> Result<()> {
        // An EXS may always send when its window is empty, so even a tiny
        // budget cannot deadlock the path; the floor only guards against
        // a budget so small it forces one-record batches.
        if self.credit_records < 16 {
            return Err(BriskError::Config(
                "credit_records must be at least 16".into(),
            ));
        }
        Ok(())
    }
}

/// How the ISM merge plane orders the records it releases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderMode {
    /// Order by the corrected physical header timestamp (the paper's
    /// behaviour): cheap, but only as truthful as clock synchronization.
    #[default]
    Physical,
    /// Order by the hybrid-logical-clock stamp (`X_HLC`): a total order
    /// consistent with happened-before, correct even when a node's
    /// physical clock is seconds wrong. Records without a stamp are
    /// ordered by their physical timestamp as an HLC with logical 0.
    Causal,
}

impl OrderMode {
    /// Parse the CLI spelling: `physical` or `causal`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "physical" => Ok(OrderMode::Physical),
            "causal" => Ok(OrderMode::Causal),
            other => Err(BriskError::Config(format!(
                "unknown order mode {other:?} (want physical | causal)"
            ))),
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            OrderMode::Physical => "physical",
            OrderMode::Causal => "causal",
        }
    }
}

/// ISM knobs: the sorter and CRE configs plus resource bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct IsmConfig {
    /// On-line sorter knobs.
    pub sorter: SorterConfig,
    /// CRE matcher knobs.
    pub cre: CreConfig,
    /// Ordering discipline for the merge plane (sorter keying and CRE
    /// happened-before reasoning).
    pub order_mode: OrderMode,
    /// Drop events older than the frame when memory pressure exceeds this
    /// many buffered records (Fig. 1 "event dropping"). `0` disables the
    /// bound.
    pub max_buffered_records: usize,
    /// Durable trace store knobs (disabled unless `store.dir` is set).
    pub store: StoreConfig,
    /// EXS→ISM flow-control knobs (credit, queue bound, shedding).
    pub flow: FlowConfig,
    /// Evict a node whose connection has shown no life (no batch, sync
    /// reply or heartbeat) for this long — the liveness net under silently
    /// dead peers that TCP never reports. Must be comfortably larger than
    /// the senders' `ExsConfig::heartbeat_interval`. `None` disables
    /// eviction.
    pub node_timeout: Option<Duration>,
    /// How many undecodable frames one connection may produce before the
    /// ISM disconnects it. Bad frames below the budget are quarantined
    /// (counted and sampled in telemetry) and skipped, so a glitching link
    /// degrades without taking the node's stream down; `0` disconnects on
    /// the first bad frame.
    pub protocol_error_budget: u32,
}

impl Default for IsmConfig {
    fn default() -> Self {
        IsmConfig {
            sorter: SorterConfig::default(),
            cre: CreConfig::default(),
            order_mode: OrderMode::default(),
            max_buffered_records: 0,
            store: StoreConfig::default(),
            flow: FlowConfig::default(),
            node_timeout: None,
            protocol_error_budget: 8,
        }
    }
}

impl IsmConfig {
    /// Validate all nested knob values.
    pub fn validate(&self) -> Result<()> {
        self.sorter.validate()?;
        self.cre.validate()?;
        self.store.validate()?;
        self.flow.validate()?;
        if let Some(t) = self.node_timeout {
            if t.is_zero() {
                return Err(BriskError::Config("node_timeout must be > 0".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // single-knob mutation is the point of these tests
mod tests {
    use super::*;

    #[test]
    fn trace_config_knob() {
        assert!(!TraceConfig::default().enabled());
        assert!(TraceConfig::every(1).enabled());
        assert_eq!(TraceConfig::every(128).sample_every, 128);
        let mut c = ExsConfig::default();
        c.trace = TraceConfig::every(64);
        c.validate().unwrap();
    }

    #[test]
    fn defaults_are_valid() {
        ExsConfig::default().validate().unwrap();
        SyncConfig::default().validate().unwrap();
        SorterConfig::default().validate().unwrap();
        CreConfig::default().validate().unwrap();
        IsmConfig::default().validate().unwrap();
    }

    #[test]
    fn default_values_match_paper() {
        let sync = SyncConfig::default();
        assert_eq!(sync.poll_period, Duration::from_secs(5));
        let exs = ExsConfig::default();
        assert_eq!(exs.flush_timeout, Duration::from_millis(40));
    }

    #[test]
    fn exs_validation_catches_bad_knobs() {
        let mut c = ExsConfig::default();
        c.ring_capacity = 10;
        assert!(c.validate().is_err());
        let mut c = ExsConfig::default();
        c.max_batch_records = 0;
        assert!(c.validate().is_err());
        let mut c = ExsConfig::default();
        c.flush_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ExsConfig::default();
        c.max_batch_bytes = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sync_validation() {
        let mut c = SyncConfig::default();
        c.samples_per_slave = 0;
        assert!(c.validate().is_err());
        let mut c = SyncConfig::default();
        c.poll_period = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sorter_validation() {
        let mut c = SorterConfig::default();
        c.min_frame_us = 10;
        c.max_frame_us = 5;
        assert!(c.validate().is_err());
        let mut c = SorterConfig::default();
        c.initial_frame_us = c.max_frame_us + 1;
        assert!(c.validate().is_err());
        let mut c = SorterConfig::default();
        c.decay_factor = 0.0;
        assert!(c.validate().is_err());
        let mut c = SorterConfig::default();
        c.decay_factor = 1.0;
        assert!(c.validate().is_ok(), "1.0 disables decay and is legal");
        let mut c = SorterConfig::default();
        c.growth = FrameGrowth::Multiplicative(0.5);
        assert!(c.validate().is_err());
        let mut c = SorterConfig::default();
        c.growth = FrameGrowth::Additive(-1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cre_validation() {
        let c = CreConfig {
            hold_timeout: Duration::ZERO,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn order_mode_parses() {
        assert_eq!(OrderMode::parse("physical").unwrap(), OrderMode::Physical);
        assert_eq!(OrderMode::parse("causal").unwrap(), OrderMode::Causal);
        assert!(OrderMode::parse("hlc").is_err());
        assert_eq!(OrderMode::default(), OrderMode::Physical);
        for m in [OrderMode::Physical, OrderMode::Causal] {
            assert_eq!(OrderMode::parse(m.as_str()).unwrap(), m);
        }
    }

    #[test]
    fn ism_validation_is_recursive() {
        let mut c = IsmConfig::default();
        c.sorter.decay_factor = 2.0;
        assert!(c.validate().is_err());
        let mut c = IsmConfig::default();
        c.node_timeout = Some(Duration::ZERO);
        assert!(c.validate().is_err());
        let mut c = IsmConfig::default();
        c.node_timeout = Some(Duration::from_secs(2));
        c.protocol_error_budget = 0;
        assert!(c.validate().is_ok(), "budget 0 = disconnect on first error");
        let mut c = IsmConfig::default();
        c.cre.hold_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = IsmConfig::default();
        c.store.segment_bytes = 16;
        assert!(c.validate().is_err());
        let mut c = IsmConfig::default();
        c.flow.credit_records = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn flow_validation() {
        let d = FlowConfig::default();
        assert_eq!(d.credit_records, 2048);
        assert!(!d.shed_unmarked);
        d.validate().unwrap();
        let c = FlowConfig {
            credit_records: 0,
            ..d
        };
        assert!(c.validate().is_err(), "{c:?}: credit is always on");
        let c = FlowConfig {
            credit_records: 16,
            ..d
        };
        c.validate().unwrap();
        let c = FlowConfig {
            credit_records: 15,
            ..FlowConfig::default()
        };
        assert!(c.validate().is_err(), "sub-batch budgets rejected");
    }

    #[test]
    fn store_validation() {
        StoreConfig::default().validate().unwrap();
        StoreConfig::at("/tmp/x").validate().unwrap();
        let mut c = StoreConfig::default();
        c.segment_bytes = 1024;
        assert!(c.validate().is_err());
        let mut c = StoreConfig::default();
        c.fsync = FsyncPolicy::Interval(Duration::ZERO);
        assert!(c.validate().is_err());
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("interval:abc").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
