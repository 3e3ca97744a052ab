//! The modified Cristian clock-synchronization algorithm (§3.3).
//!
//! Cristian's algorithm: a master polls slaves in rounds, measures the
//! difference between its clock and each slave's, and tells the slaves to
//! adjust. BRISK's modification: "the master (ISM) time is used only as a
//! common reference point for computing relative skews of the slave (EXS)
//! clocks … it is important that the EXS clocks be as close to each other
//! as possible, while it is not necessary for them to be close to the ISM
//! clock."
//!
//! Per round:
//!
//! 1. Each slave's skew relative to the master is estimated from
//!    poll/reply samples ([`estimate_skew`]).
//! 2. The slave with the **maximum** skew — the most-ahead clock — is
//!    selected as the reference.
//! 3. The other slaves' skews *relative to the reference* (all
//!    non-negative) and their average are computed.
//! 4. **Only slaves whose relative skew exceeds the average are advanced**;
//!    this conservatively accounts for network noise and avoids promoting
//!    another clock to "fastest" erroneously.
//! 5. The correction is the full relative skew if the average is above a
//!    small threshold, otherwise a fixed portion of it (0.7) — again
//!    conservative, "because the EXS clocks cannot be perfectly
//!    synchronized in practice".
//!
//! All corrections are therefore *advances* (non-negative), "at the cost of
//! small positive drifts of the EXS clocks". Setting
//! [`brisk_core::SyncConfig::original_cristian`] switches to the textbook
//! algorithm (every slave fully corrected toward the master) for the A1
//! ablation experiment.

use crate::clock::Clock;
use crate::correction::CorrectedClock;
use brisk_core::{BriskError, NodeId, Result, SyncConfig, UtcMicros};
use brisk_telemetry::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One poll/reply observation of a slave clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkewSample {
    /// Master clock when the poll was sent.
    pub t_master_send: UtcMicros,
    /// Slave clock embedded in the reply.
    pub t_slave: UtcMicros,
    /// Master clock when the reply arrived.
    pub t_master_recv: UtcMicros,
}

impl SkewSample {
    /// Round-trip time seen by the master.
    pub fn rtt_us(&self) -> i64 {
        self.t_master_recv - self.t_master_send
    }

    /// Estimated slave−master skew: the slave's reading minus the master's
    /// midpoint estimate of when the slave read its clock (Cristian's
    /// interpolation).
    pub fn skew_us(&self) -> i64 {
        let midpoint = self.t_master_send.as_micros() + self.rtt_us() / 2;
        self.t_slave.as_micros() - midpoint
    }
}

/// Aggregated per-slave skew estimate for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkewEstimate {
    /// The slave node.
    pub node: NodeId,
    /// Estimated slave−master skew in microseconds.
    pub skew_us: i64,
    /// Smallest RTT among the samples used.
    pub min_rtt_us: i64,
    /// How many samples survived noise filtering.
    pub samples_used: usize,
}

/// Combine a slave's samples into one estimate.
///
/// Samples whose RTT exceeds twice the round's minimum are discarded as
/// network noise (a queued packet inflates the interpolation error bound by
/// its extra delay); the rest are averaged, following the paper's "repeated
/// a number of times for each slave to average the results".
pub fn estimate_skew(node: NodeId, samples: &[SkewSample]) -> Result<SkewEstimate> {
    if samples.is_empty() {
        return Err(BriskError::Sync(format!("no samples for node {node}")));
    }
    if samples.iter().any(|s| s.rtt_us() < 0) {
        return Err(BriskError::Sync(format!(
            "negative RTT in samples for node {node}"
        )));
    }
    let min_rtt = samples.iter().map(SkewSample::rtt_us).min().unwrap();
    let cutoff = (min_rtt * 2).max(min_rtt + 1);
    let used: Vec<i64> = samples
        .iter()
        .filter(|s| s.rtt_us() <= cutoff)
        .map(SkewSample::skew_us)
        .collect();
    let sum: i64 = used.iter().sum();
    let skew = sum / used.len() as i64;
    Ok(SkewEstimate {
        node,
        skew_us: skew,
        min_rtt_us: min_rtt,
        samples_used: used.len(),
    })
}

/// An adjustment to send to one slave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Correction {
    /// The slave to adjust.
    pub node: NodeId,
    /// Microseconds to add to the slave's correction value. Non-negative
    /// under the BRISK algorithm; may be negative under original Cristian.
    pub advance_us: i64,
}

/// Result of planning one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SyncOutcome {
    /// The reference (most-ahead) slave, if the BRISK variant ran.
    pub reference: Option<NodeId>,
    /// Average relative skew of the non-reference slaves (µs).
    pub avg_rel_skew_us: f64,
    /// Largest relative skew observed this round (µs).
    pub max_rel_skew_us: i64,
    /// The corrections to apply.
    pub corrections: Vec<Correction>,
}

/// Plan the corrections for one round from the slaves' skew estimates.
pub fn plan_corrections(cfg: &SyncConfig, estimates: &[SkewEstimate]) -> SyncOutcome {
    if cfg.original_cristian {
        return plan_original(estimates);
    }
    plan_brisk(estimates)
}

fn plan_original(estimates: &[SkewEstimate]) -> SyncOutcome {
    // Textbook Cristian: drive every slave to the master clock.
    let corrections: Vec<Correction> = estimates
        .iter()
        .map(|e| Correction {
            node: e.node,
            advance_us: -e.skew_us,
        })
        .collect();
    let max_abs = estimates.iter().map(|e| e.skew_us.abs()).max().unwrap_or(0);
    let avg = if estimates.is_empty() {
        0.0
    } else {
        estimates
            .iter()
            .map(|e| e.skew_us.abs() as f64)
            .sum::<f64>()
            / estimates.len() as f64
    };
    SyncOutcome {
        reference: None,
        avg_rel_skew_us: avg,
        max_rel_skew_us: max_abs,
        corrections,
    }
}

/// The "small threshold" (µs): an average relative skew at or below it is damped.
const SKEW_THRESHOLD_US: f64 = 50.0;
/// The damped correction is "a fixed portion of the relative skew (0.7 in
/// the current implementation)".
const DAMPING: f64 = 0.7;

fn plan_brisk(estimates: &[SkewEstimate]) -> SyncOutcome {
    let Some(reference) = estimates.iter().max_by_key(|e| (e.skew_us, e.node.raw())) else {
        return SyncOutcome::default();
    };
    let others: Vec<&SkewEstimate> = estimates
        .iter()
        .filter(|e| e.node != reference.node)
        .collect();
    if others.is_empty() {
        // A single slave is trivially "synchronized with itself".
        return SyncOutcome {
            reference: Some(reference.node),
            ..SyncOutcome::default()
        };
    }
    // Relative skews are measured against the most-ahead clock, hence all
    // non-negative ("as absolute values").
    let rel: Vec<(NodeId, i64)> = others
        .iter()
        .map(|e| (e.node, reference.skew_us - e.skew_us))
        .collect();
    let avg = rel.iter().map(|&(_, r)| r as f64).sum::<f64>() / rel.len() as f64;
    let max_rel = rel.iter().map(|&(_, r)| r).max().unwrap_or(0);
    let full = avg > SKEW_THRESHOLD_US;
    // "Only the EXS clocks whose relative skews are above the average are
    // advanced." With a single non-reference slave its skew *is* the
    // average, which would deadlock a two-node system; in that degenerate
    // case any positive skew counts as above-average.
    let single = rel.len() == 1;
    let corrections = rel
        .iter()
        .filter(|&&(_, r)| if single { r > 0 } else { (r as f64) > avg })
        .map(|&(node, r)| Correction {
            node,
            advance_us: if full { r } else { (DAMPING * r as f64) as i64 },
        })
        .collect();
    SyncOutcome {
        reference: Some(reference.node),
        avg_rel_skew_us: avg,
        max_rel_skew_us: max_rel,
        corrections,
    }
}

/// Master-side state machine: accumulates samples for the current round and
/// plans corrections when the round closes. Transport-agnostic — the ISM's
/// sync loop feeds it samples gathered over whatever channel is in use.
///
/// ```
/// use brisk_clock::{SkewSample, SyncMaster};
/// use brisk_core::{NodeId, SyncConfig, UtcMicros};
///
/// let mut master = SyncMaster::new(SyncConfig::default()).unwrap();
/// master.begin_round();
/// // One slave answers 100 µs ahead of the master midpoint, one 900 µs.
/// for (node, slave_us) in [(0, 150), (1, 950)] {
///     master.add_sample(NodeId(node), SkewSample {
///         t_master_send: UtcMicros::from_micros(0),
///         t_slave: UtcMicros::from_micros(slave_us),
///         t_master_recv: UtcMicros::from_micros(100),
///     });
/// }
/// let outcome = master.finish_round().unwrap();
/// // The most-ahead slave is the reference; the laggard is advanced to it.
/// assert_eq!(outcome.reference, Some(NodeId(1)));
/// assert_eq!(outcome.corrections[0].node, NodeId(0));
/// assert_eq!(outcome.corrections[0].advance_us, 800);
/// ```
#[derive(Debug)]
pub struct SyncMaster {
    cfg: SyncConfig,
    round: u64,
    samples: BTreeMap<NodeId, Vec<SkewSample>>,
    /// Accepted RTTs per node, kept across rounds (bounded ring). The
    /// intra-round min-RTT filter in [`estimate_skew`] cannot catch a round
    /// where *every* sample is delayed — a congestion spike inflates the
    /// minimum itself — so incoming samples are also checked against the
    /// rolling median of this history.
    rtt_history: BTreeMap<NodeId, VecDeque<i64>>,
    last_outcome: Option<SyncOutcome>,
    /// Round totals and quality histograms, bumped in place (a round is
    /// rare; nothing here is per record).
    cells: Arc<SyncCells>,
}

/// How many accepted RTTs to remember per node.
const RTT_HISTORY_LEN: usize = 64;
/// Outlier rejection stays off until the history holds at least this many
/// entries, so a cold start cannot misclassify the first real samples.
const RTT_HISTORY_MIN: usize = 8;
/// RTTs above this multiple of the node's rolling median are outliers.
const RTT_OUTLIER_MULTIPLE: f64 = 3.0;

fn rolling_median(history: &VecDeque<i64>) -> i64 {
    let mut sorted: Vec<i64> = history.iter().copied().collect();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

brisk_telemetry::metrics! {
    /// The master's sync-quality series: one histogram observation per
    /// slave per round, plus round totals.
    struct SyncCells {
        skew_us: histogram "brisk_sync_skew_us" "Per-slave absolute skew estimate per sync round",
        rtt_us: histogram "brisk_sync_rtt_us" "Per-slave minimum poll round-trip time per sync round",
        rounds: counter "brisk_sync_rounds_total" "Sync rounds completed",
        corrections: counter "brisk_sync_corrections_total" "Slave corrections issued",
        rtt_outliers: counter "brisk_sync_rtt_outliers_total" "Poll samples rejected against the rolling per-node RTT median",
    }
}

impl SyncMaster {
    /// New master with the given knobs.
    pub fn new(cfg: SyncConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(SyncMaster {
            cfg,
            round: 0,
            samples: BTreeMap::new(),
            rtt_history: BTreeMap::new(),
            last_outcome: None,
            cells: Arc::default(),
        })
    }

    /// Register the master's sync-quality series with a telemetry
    /// registry: `brisk_sync_skew_us` and `brisk_sync_rtt_us` histograms
    /// (one observation per slave per round) plus
    /// `brisk_sync_rounds_total` and `brisk_sync_corrections_total`.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.cells.register(registry, &[]);
    }

    /// The configured knobs.
    pub fn config(&self) -> &SyncConfig {
        &self.cfg
    }

    /// Start a new round, discarding any samples from an unfinished one.
    /// Returns the round number.
    pub fn begin_round(&mut self) -> u64 {
        self.round += 1;
        self.samples.clear();
        self.round
    }

    /// How many times the master should poll each slave per round.
    pub fn samples_per_slave(&self) -> usize {
        self.cfg.samples_per_slave
    }

    /// Record one poll/reply observation for `node`.
    ///
    /// Samples whose RTT exceeds `RTT_OUTLIER_MULTIPLE` (3×) times the
    /// node's rolling RTT median (built from previously accepted
    /// samples) are dropped before they can bias the round; rejected RTTs do
    /// not enter the history, so a sustained congestion spike cannot drag
    /// the median up and launder itself into acceptance.
    pub fn add_sample(&mut self, node: NodeId, sample: SkewSample) {
        let rtt = sample.rtt_us();
        if rtt >= 0 {
            if self.is_rtt_outlier(node, rtt) {
                self.cells.rtt_outliers.fetch_add(1, Relaxed);
                return;
            }
            let history = self.rtt_history.entry(node).or_default();
            if history.len() == RTT_HISTORY_LEN {
                history.pop_front();
            }
            history.push_back(rtt);
        }
        self.samples.entry(node).or_default().push(sample);
    }

    fn is_rtt_outlier(&self, node: NodeId, rtt: i64) -> bool {
        match self.rtt_history.get(&node) {
            Some(h) if h.len() >= RTT_HISTORY_MIN => {
                rtt as f64 > RTT_OUTLIER_MULTIPLE * rolling_median(h) as f64
            }
            _ => false,
        }
    }

    /// Samples rejected so far against the rolling RTT median.
    pub fn rtt_outliers_rejected(&self) -> u64 {
        self.cells.rtt_outliers.load(Relaxed)
    }

    /// Close the round: estimate skews and plan corrections. Slaves that
    /// produced no usable samples this round are skipped (they keep their
    /// previous correction).
    pub fn finish_round(&mut self) -> Result<SyncOutcome> {
        let mut estimates = Vec::with_capacity(self.samples.len());
        for (&node, samples) in &self.samples {
            match estimate_skew(node, samples) {
                Ok(e) => estimates.push(e),
                Err(_) if samples.is_empty() => {}
                Err(e) => return Err(e),
            }
        }
        let outcome = plan_corrections(&self.cfg, &estimates);
        for e in &estimates {
            self.cells.skew_us.record(e.skew_us.unsigned_abs());
            self.cells.rtt_us.record(e.min_rtt_us.max(0) as u64);
        }
        self.cells.rounds.fetch_add(1, Relaxed);
        self.cells
            .corrections
            .fetch_add(outcome.corrections.len() as u64, Relaxed);
        self.last_outcome = Some(outcome.clone());
        self.samples.clear();
        Ok(outcome)
    }

    /// The most recent round's outcome.
    pub fn last_outcome(&self) -> Option<&SyncOutcome> {
        self.last_outcome.as_ref()
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.cells.rounds.load(Relaxed)
    }
}

/// Slave-side handler: answers polls with the corrected local time and
/// applies adjustments to the correction value.
pub struct SyncSlave<C: Clock> {
    clock: Arc<CorrectedClock<C>>,
    adjustments_applied: u64,
}

impl<C: Clock> SyncSlave<C> {
    /// New slave serving the given corrected clock.
    pub fn new(clock: Arc<CorrectedClock<C>>) -> Self {
        SyncSlave {
            clock,
            adjustments_applied: 0,
        }
    }

    /// Answer a poll: the slave's current (corrected) time.
    pub fn on_poll(&self) -> UtcMicros {
        self.clock.now()
    }

    /// Apply a correction received from the master.
    pub fn on_adjust(&mut self, advance_us: i64) {
        self.clock.adjust(advance_us);
        self.adjustments_applied += 1;
    }

    /// The clock this slave manages.
    pub fn clock(&self) -> &Arc<CorrectedClock<C>> {
        &self.clock
    }

    /// Number of adjustments applied so far.
    pub fn adjustments_applied(&self) -> u64 {
        self.adjustments_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, SimTimeSource};

    fn est(node: u32, skew: i64) -> SkewEstimate {
        SkewEstimate {
            node: NodeId(node),
            skew_us: skew,
            min_rtt_us: 100,
            samples_used: 4,
        }
    }

    #[test]
    fn skew_sample_interpolates_midpoint() {
        let s = SkewSample {
            t_master_send: UtcMicros::from_micros(1_000),
            t_slave: UtcMicros::from_micros(1_300),
            t_master_recv: UtcMicros::from_micros(1_200),
        };
        assert_eq!(s.rtt_us(), 200);
        // Midpoint 1100, slave says 1300 → +200 skew.
        assert_eq!(s.skew_us(), 200);
    }

    #[test]
    fn estimate_averages_and_filters_noise() {
        let clean = |skew: i64| SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(50 + skew),
            t_master_recv: UtcMicros::from_micros(100),
        };
        // One wildly delayed sample (RTT 10x) with a bogus skew.
        let noisy = SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(9_000),
            t_master_recv: UtcMicros::from_micros(1_000),
        };
        let e = estimate_skew(NodeId(1), &[clean(10), clean(20), noisy]).unwrap();
        assert_eq!(e.samples_used, 2);
        assert_eq!(e.skew_us, 15);
        assert_eq!(e.min_rtt_us, 100);
    }

    #[test]
    fn estimate_rejects_empty_and_negative_rtt() {
        assert!(estimate_skew(NodeId(1), &[]).is_err());
        let bad = SkewSample {
            t_master_send: UtcMicros::from_micros(10),
            t_slave: UtcMicros::from_micros(0),
            t_master_recv: UtcMicros::from_micros(5),
        };
        assert!(estimate_skew(NodeId(1), &[bad]).is_err());
    }

    #[test]
    fn brisk_selects_most_ahead_as_reference() {
        let cfg = SyncConfig::default();
        let out = plan_corrections(&cfg, &[est(1, -100), est(2, 300), est(3, 0)]);
        assert_eq!(out.reference, Some(NodeId(2)));
        // Reference never corrected.
        assert!(out.corrections.iter().all(|c| c.node != NodeId(2)));
    }

    #[test]
    fn brisk_corrects_only_above_average() {
        let cfg = SyncConfig::default();
        // Rel skews vs node 4 (skew 1000): node1=1000, node2=600, node3=200.
        // avg = 600. Only node1 (>600) corrected.
        let out = plan_corrections(&cfg, &[est(1, 0), est(2, 400), est(3, 800), est(4, 1000)]);
        assert_eq!(out.reference, Some(NodeId(4)));
        assert!((out.avg_rel_skew_us - 600.0).abs() < 1e-9);
        assert_eq!(out.max_rel_skew_us, 1000);
        assert_eq!(out.corrections.len(), 1);
        assert_eq!(out.corrections[0].node, NodeId(1));
        // avg (600) above threshold (50) → full correction.
        assert_eq!(out.corrections[0].advance_us, 1000);
    }

    #[test]
    fn brisk_damps_below_threshold() {
        let cfg = SyncConfig::default(); // threshold 50, damping 0.7
                                         // Rel skews vs node 3 (skew 60): node1=60, node2=20; avg=40 <= 50.
        let out = plan_corrections(&cfg, &[est(1, 0), est(2, 40), est(3, 60)]);
        assert_eq!(out.corrections.len(), 1);
        assert_eq!(out.corrections[0].node, NodeId(1));
        assert_eq!(out.corrections[0].advance_us, 42); // 0.7 * 60
    }

    #[test]
    fn brisk_corrections_are_always_advances() {
        let cfg = SyncConfig::default();
        for skews in [
            vec![est(1, -5000), est(2, -100), est(3, 7000)],
            vec![est(1, 0), est(2, 0)],
            vec![est(1, -10), est(2, -20), est(3, -30), est(4, -40)],
        ] {
            let out = plan_corrections(&cfg, &skews);
            assert!(
                out.corrections.iter().all(|c| c.advance_us >= 0),
                "corrections must be non-negative: {:?}",
                out.corrections
            );
        }
    }

    #[test]
    fn brisk_equal_clocks_need_no_correction() {
        let cfg = SyncConfig::default();
        let out = plan_corrections(&cfg, &[est(1, 77), est(2, 77), est(3, 77)]);
        // rel skews all 0, avg 0, none strictly above avg.
        assert!(out.corrections.is_empty());
    }

    #[test]
    fn brisk_single_slave_is_noop() {
        let cfg = SyncConfig::default();
        let out = plan_corrections(&cfg, &[est(9, 1234)]);
        assert_eq!(out.reference, Some(NodeId(9)));
        assert!(out.corrections.is_empty());
    }

    #[test]
    fn empty_estimates_yield_empty_outcome() {
        let cfg = SyncConfig::default();
        let out = plan_corrections(&cfg, &[]);
        assert_eq!(out, SyncOutcome::default());
    }

    #[test]
    fn original_cristian_targets_master() {
        let cfg = SyncConfig {
            original_cristian: true,
            ..SyncConfig::default()
        };
        let out = plan_corrections(&cfg, &[est(1, -100), est(2, 300)]);
        assert_eq!(out.reference, None);
        assert_eq!(out.corrections.len(), 2);
        assert!(out
            .corrections
            .iter()
            .any(|c| c.node == NodeId(1) && c.advance_us == 100));
        assert!(out
            .corrections
            .iter()
            .any(|c| c.node == NodeId(2) && c.advance_us == -300));
    }

    #[test]
    fn master_round_lifecycle() {
        let mut m = SyncMaster::new(SyncConfig::default()).unwrap();
        assert_eq!(m.begin_round(), 1);
        let mk = |slave_us: i64| SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(slave_us),
            t_master_recv: UtcMicros::from_micros(100),
        };
        for _ in 0..m.samples_per_slave() {
            m.add_sample(NodeId(1), mk(50)); // skew 0
            m.add_sample(NodeId(2), mk(850)); // skew +800
        }
        let out = m.finish_round().unwrap();
        assert_eq!(out.reference, Some(NodeId(2)));
        assert_eq!(out.corrections.len(), 1);
        assert_eq!(out.corrections[0].node, NodeId(1));
        assert_eq!(out.corrections[0].advance_us, 800);
        assert_eq!(m.rounds_completed(), 1);
        assert_eq!(m.last_outcome().unwrap(), &out);
        assert_eq!(m.begin_round(), 2);
    }

    #[test]
    fn bound_master_exports_round_telemetry() {
        let registry = Registry::new();
        let mut m = SyncMaster::new(SyncConfig::default()).unwrap();
        m.bind_telemetry(&registry);
        m.begin_round();
        let mk = |slave_us: i64| SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(slave_us),
            t_master_recv: UtcMicros::from_micros(100),
        };
        m.add_sample(NodeId(1), mk(50)); // skew 0
        m.add_sample(NodeId(2), mk(850)); // skew +800
        let out = m.finish_round().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_sync_rounds_total"), 1);
        assert_eq!(
            snap.counter_total("brisk_sync_corrections_total"),
            out.corrections.len() as u64
        );
        let skews = snap.histogram("brisk_sync_skew_us").unwrap();
        assert_eq!(skews.count(), 2);
        assert_eq!(skews.max, 800);
        let rtts = snap.histogram("brisk_sync_rtt_us").unwrap();
        assert_eq!(rtts.count(), 2);
        assert_eq!(rtts.max, 100);
    }

    #[test]
    fn binding_after_a_round_shows_the_full_totals() {
        let mut m = SyncMaster::new(SyncConfig::default()).unwrap();
        m.begin_round();
        m.add_sample(
            NodeId(1),
            SkewSample {
                t_master_send: UtcMicros::from_micros(0),
                t_slave: UtcMicros::from_micros(50),
                t_master_recv: UtcMicros::from_micros(100),
            },
        );
        m.finish_round().unwrap();
        // Cells exist from construction; binding only publishes them, so
        // the round finished before it is not lost — and binding again
        // changes nothing.
        let registry = Registry::new();
        m.bind_telemetry(&registry);
        m.bind_telemetry(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_sync_rounds_total"), 1);
        assert_eq!(snap.histogram("brisk_sync_rtt_us").unwrap().count(), 1);
        assert_eq!(snap.all("brisk_sync_rounds_total").count(), 1);
    }

    #[test]
    fn congestion_round_is_rejected_by_rolling_rtt_median() {
        // The intra-round min-RTT filter is blind to a round where *every*
        // sample for a node is delayed (a congestion spike): the minimum
        // itself is inflated, so nothing gets discarded and the garbage
        // skew would elect the node as reference. The rolling per-node RTT
        // median built up over earlier rounds must catch it.
        let mut m = SyncMaster::new(SyncConfig::default()).unwrap();
        let mk = |rtt: i64, skew: i64| SkewSample {
            t_master_send: UtcMicros::from_micros(0),
            t_slave: UtcMicros::from_micros(rtt / 2 + skew),
            t_master_recv: UtcMicros::from_micros(rtt),
        };
        // Build RTT history: several clean rounds at ~100 µs for both nodes.
        for _ in 0..3 {
            m.begin_round();
            for _ in 0..4 {
                m.add_sample(NodeId(1), mk(100, 0));
                m.add_sample(NodeId(2), mk(100, 0));
            }
            m.finish_round().unwrap();
        }
        assert_eq!(m.rtt_outliers_rejected(), 0);
        // Congestion round: all of node 1's samples arrive 100× delayed,
        // carrying a wildly wrong skew estimate.
        m.begin_round();
        for _ in 0..4 {
            m.add_sample(NodeId(1), mk(10_000, 50_000));
            m.add_sample(NodeId(2), mk(100, 0));
        }
        let out = m.finish_round().unwrap();
        assert_eq!(m.rtt_outliers_rejected(), 4);
        // Node 1 contributed no usable samples → skipped this round; node 2
        // alone is a trivially-synchronized single slave.
        assert_eq!(out.reference, Some(NodeId(2)));
        assert!(
            out.corrections.is_empty(),
            "congested node must not drag others: {:?}",
            out.corrections
        );
    }

    #[test]
    fn slave_answers_polls_and_applies_adjustments() {
        let src = SimTimeSource::new();
        src.advance_by(1_000);
        let cc = CorrectedClock::new(SimClock::new(src.clone(), -200, 0.0, 1));
        let mut slave = SyncSlave::new(Arc::clone(&cc));
        assert_eq!(slave.on_poll().as_micros(), 800);
        slave.on_adjust(200);
        assert_eq!(slave.on_poll().as_micros(), 1_000);
        assert_eq!(slave.adjustments_applied(), 1);
    }

    /// End-to-end convergence on simulated clocks with drift: after a few
    /// rounds the pairwise spread must collapse to near zero, and it must
    /// stay bounded as drift keeps pulling the clocks apart.
    #[test]
    fn brisk_converges_on_drifting_sim_clocks() {
        let src = SimTimeSource::new();
        let offsets = [0i64, 900, -700, 350, -150, 500, -900, 120];
        let drifts = [10.0, -25.0, 40.0, -5.0, 30.0, -45.0, 15.0, 0.0];
        let clocks: Vec<Arc<CorrectedClock<SimClock>>> = offsets
            .iter()
            .zip(&drifts)
            .map(|(&o, &d)| CorrectedClock::new(SimClock::new(src.clone(), o, d, 1)))
            .collect();
        let mut slaves: Vec<SyncSlave<SimClock>> = clocks
            .iter()
            .map(|c| SyncSlave::new(Arc::clone(c)))
            .collect();
        let master_clock = SimClock::new(src.clone(), 0, 0.0, 1);
        let mut master = SyncMaster::new(SyncConfig::default()).unwrap();

        let spread = |clocks: &[Arc<CorrectedClock<SimClock>>]| {
            let readings: Vec<i64> = clocks.iter().map(|c| c.now().as_micros()).collect();
            readings.iter().max().unwrap() - readings.iter().min().unwrap()
        };
        let initial_spread = spread(&clocks);
        assert!(initial_spread >= 1_800, "test setup should start dispersed");

        for _round in 0..20 {
            master.begin_round();
            for (i, slave) in slaves.iter().enumerate() {
                for _ in 0..master.samples_per_slave() {
                    let t0 = master_clock.now();
                    src.advance_by(50); // poll flight time
                    let ts = slave.on_poll();
                    src.advance_by(50); // reply flight time
                    let t1 = master_clock.now();
                    master.add_sample(
                        NodeId(i as u32),
                        SkewSample {
                            t_master_send: t0,
                            t_slave: ts,
                            t_master_recv: t1,
                        },
                    );
                }
            }
            let out = master.finish_round().unwrap();
            for c in out.corrections {
                assert!(c.advance_us >= 0, "BRISK only advances clocks");
                slaves[c.node.raw() as usize].on_adjust(c.advance_us);
            }
            src.advance_by(5_000_000); // 5 s polling period
        }
        let final_spread = spread(&clocks);
        assert!(
            final_spread < 600,
            "spread should collapse: initial {initial_spread} final {final_spread}"
        );
    }
}
