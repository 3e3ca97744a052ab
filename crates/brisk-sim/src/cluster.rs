//! Simulated cluster for the clock-synchronization experiments (E6, A1).

use crate::net::DelayModel;
use brisk_clock::{
    Clock, CorrectedClock, SimClock, SimTimeSource, SkewSample, SyncMaster, SyncSlave,
};
use brisk_core::{NodeId, Result, SyncConfig, UtcMicros};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one synchronization simulation run.
#[derive(Clone, Debug)]
pub struct SyncSimConfig {
    /// Number of slave (EXS) nodes. The paper used 8.
    pub nodes: usize,
    /// Simulated duration. The paper ran 10 minutes.
    pub duration: Duration,
    /// Synchronization knobs (poll period, samples, algorithm variant).
    pub sync: SyncConfig,
    /// One-way network delay model.
    pub delay: DelayModel,
    /// Initial clock offsets drawn uniformly from `[-max, max]` µs.
    pub max_offset_us: i64,
    /// Clock drifts drawn uniformly from `[-max, max]` ppm.
    pub max_drift_ppm: f64,
    /// How often the pairwise spread is sampled.
    pub sample_interval: Duration,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
}

impl Default for SyncSimConfig {
    fn default() -> Self {
        SyncSimConfig {
            nodes: 8,
            duration: Duration::from_secs(600),
            sync: SyncConfig::default(),
            delay: DelayModel::quiet_lan(),
            max_offset_us: 1_000,
            // Workstation crystal oscillators are good to a few ppm; ±10
            // keeps worst-case relative drift at 20 ppm (100 µs per 5 s
            // round), consistent with the paper staying within ~200 µs.
            max_drift_ppm: 10.0,
            sample_interval: Duration::from_secs(1),
            seed: 0x00B1_215C,
        }
    }
}

/// One spread sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpreadSample {
    /// Simulated time (µs).
    pub t_us: i64,
    /// Maximum pairwise difference of the corrected slave clocks (µs).
    pub max_pairwise_us: i64,
    /// Whether the sample fell inside a disturbance window.
    pub disturbed: bool,
}

/// Result of one run.
#[derive(Clone, Debug, Default)]
pub struct SyncSimReport {
    /// Spread over time.
    pub samples: Vec<SpreadSample>,
    /// Completed rounds.
    pub rounds: u64,
    /// Corrections applied across all rounds.
    pub corrections: u64,
    /// Sum of all advances (µs) — the "small positive drift" cost of the
    /// BRISK variant.
    pub total_advance_us: i64,
    /// Spread before the first round (µs).
    pub initial_spread_us: i64,
    /// Largest spread after the warm-up period (first 3 rounds).
    pub max_spread_after_warmup_us: i64,
    /// Mean spread after warm-up (µs).
    pub mean_spread_after_warmup_us: f64,
    /// Fraction of post-warm-up samples with spread under 200 µs — the
    /// paper's headline number ("most of the time under 200 microseconds").
    pub fraction_under_200us: f64,
}

/// The simulation driver.
pub struct SyncSimulation {
    cfg: SyncSimConfig,
}

impl SyncSimulation {
    /// New simulation.
    pub fn new(cfg: SyncSimConfig) -> Self {
        SyncSimulation { cfg }
    }

    /// Run to completion, returning the report.
    pub fn run(&self) -> Result<SyncSimReport> {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let src = SimTimeSource::new();
        let master_clock = SimClock::new(src.clone(), 0, 0.0, 1);
        let mut master = SyncMaster::new(cfg.sync.clone())?;

        let clocks: Vec<Arc<CorrectedClock<SimClock>>> = (0..cfg.nodes)
            .map(|_| {
                let offset = rng.gen_range(-cfg.max_offset_us..=cfg.max_offset_us);
                let drift = rng.gen_range(-cfg.max_drift_ppm..=cfg.max_drift_ppm);
                CorrectedClock::new(SimClock::new(src.clone(), offset, drift, 1))
            })
            .collect();
        let mut slaves: Vec<SyncSlave<SimClock>> = clocks
            .iter()
            .map(|c| SyncSlave::new(Arc::clone(c)))
            .collect();

        let spread = |clocks: &[Arc<CorrectedClock<SimClock>>]| -> i64 {
            let readings: Vec<i64> = clocks.iter().map(|c| c.now().as_micros()).collect();
            readings.iter().max().unwrap() - readings.iter().min().unwrap()
        };

        let mut report = SyncSimReport {
            initial_spread_us: spread(&clocks),
            ..SyncSimReport::default()
        };

        let end_us = cfg.duration.as_micros() as i64;
        let sample_us = cfg.sample_interval.as_micros() as i64;
        let period_us = cfg.sync.poll_period.as_micros() as i64;
        let mut next_sample = 0i64;
        let mut next_round = period_us; // first round after one poll period
        let warmup_rounds = 3;

        while src.now().as_micros() < end_us {
            let now = src.now().as_micros();
            if next_sample <= next_round {
                // Advance to the sampling instant.
                if next_sample > now {
                    src.advance_to(UtcMicros::from_micros(next_sample));
                }
                let s = SpreadSample {
                    t_us: src.now().as_micros(),
                    max_pairwise_us: spread(&clocks),
                    disturbed: cfg.delay.disturbed_at(src.now()),
                };
                if report.rounds >= warmup_rounds {
                    report.max_spread_after_warmup_us =
                        report.max_spread_after_warmup_us.max(s.max_pairwise_us);
                }
                report.samples.push(s);
                next_sample += sample_us;
            } else {
                if next_round > now {
                    src.advance_to(UtcMicros::from_micros(next_round));
                }
                self.run_round(
                    &src,
                    &master_clock,
                    &mut master,
                    &mut slaves,
                    &mut rng,
                    &mut report,
                )?;
                next_round += period_us;
            }
        }

        let post: Vec<&SpreadSample> = report
            .samples
            .iter()
            .filter(|s| s.t_us >= warmup_rounds as i64 * period_us)
            .collect();
        if !post.is_empty() {
            report.mean_spread_after_warmup_us =
                post.iter().map(|s| s.max_pairwise_us as f64).sum::<f64>() / post.len() as f64;
            report.fraction_under_200us =
                post.iter().filter(|s| s.max_pairwise_us < 200).count() as f64 / post.len() as f64;
        }
        Ok(report)
    }

    /// Execute one synchronization round at the current simulated time.
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &self,
        src: &SimTimeSource,
        master_clock: &SimClock,
        master: &mut SyncMaster,
        slaves: &mut [SyncSlave<SimClock>],
        rng: &mut StdRng,
        report: &mut SyncSimReport,
    ) -> Result<()> {
        master.begin_round();
        for (i, slave) in slaves.iter().enumerate() {
            for _ in 0..master.samples_per_slave() {
                let t0 = master_clock.now();
                src.advance_by(self.cfg.delay.sample(rng, src.now())); // poll flight
                let ts = slave.on_poll();
                src.advance_by(self.cfg.delay.sample(rng, src.now())); // reply flight
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
        let outcome = master.finish_round()?;
        for c in &outcome.corrections {
            // Adjustment delivery also crosses the network.
            src.advance_by(self.cfg.delay.sample(rng, src.now()));
            slaves[c.node.raw() as usize].on_adjust(c.advance_us);
            report.corrections += 1;
            report.total_advance_us += c.advance_us;
        }
        report.rounds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SyncSimConfig {
        SyncSimConfig {
            nodes: 8,
            duration: Duration::from_secs(120),
            delay: DelayModel::quiet_lan(),
            ..SyncSimConfig::default()
        }
    }

    #[test]
    fn brisk_sync_converges_under_quiet_lan() {
        let report = SyncSimulation::new(quick_cfg()).run().unwrap();
        assert!(report.rounds >= 20, "rounds: {}", report.rounds);
        assert!(report.initial_spread_us > 500);
        assert!(
            report.max_spread_after_warmup_us < 500,
            "max post-warmup spread {} µs",
            report.max_spread_after_warmup_us
        );
        assert!(report.fraction_under_200us > 0.8);
    }

    #[test]
    fn corrections_are_positive_for_brisk_variant() {
        let report = SyncSimulation::new(quick_cfg()).run().unwrap();
        assert!(report.corrections > 0);
        assert!(report.total_advance_us >= 0, "BRISK only advances clocks");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = SyncSimulation::new(quick_cfg()).run().unwrap();
        let b = SyncSimulation::new(quick_cfg()).run().unwrap();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.total_advance_us, b.total_advance_us);
        let mut other = quick_cfg();
        other.seed ^= 1;
        let c = SyncSimulation::new(other).run().unwrap();
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn original_cristian_also_converges() {
        let mut cfg = quick_cfg();
        cfg.sync.original_cristian = true;
        let report = SyncSimulation::new(cfg).run().unwrap();
        assert!(report.max_spread_after_warmup_us < 500);
    }

    #[test]
    fn disturbances_degrade_spread() {
        let mut quiet = quick_cfg();
        quiet.duration = Duration::from_secs(300);
        let mut noisy = quiet.clone();
        noisy.delay = DelayModel::disturbed_lan();
        let q = SyncSimulation::new(quiet).run().unwrap();
        let n = SyncSimulation::new(noisy).run().unwrap();
        assert!(
            n.max_spread_after_warmup_us > q.max_spread_after_warmup_us,
            "disturbed {} µs must exceed quiet {} µs",
            n.max_spread_after_warmup_us,
            q.max_spread_after_warmup_us
        );
    }

    #[test]
    fn without_sync_clocks_drift_apart() {
        // Degenerate control: poll period longer than the run = no rounds.
        let mut cfg = quick_cfg();
        cfg.sync.poll_period = Duration::from_secs(10_000);
        cfg.duration = Duration::from_secs(120);
        let report = SyncSimulation::new(cfg).run().unwrap();
        assert_eq!(report.rounds, 0);
        let last = report.samples.last().unwrap();
        assert!(
            last.max_pairwise_us >= report.initial_spread_us,
            "drift must widen the spread"
        );
    }
}
