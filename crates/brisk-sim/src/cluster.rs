//! Simulated cluster for the clock-synchronization experiments (E6, A1).
//! The master is the product's session machine, so these experiments
//! measure the ISM's own concurrent sync rounds, not a copy of them.

use crate::net::DelayModel;
use brisk_clock::{Clock, CorrectedClock, SimClock, SimTimeSource, SyncSlave};
use brisk_core::{IsmConfig, NodeId, Result, SyncConfig, UtcMicros};
use brisk_ism::{Ism, Output, PeerId};
use brisk_proto::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
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

/// The simulation driver: the product's session machine ([`Ism`]) as
/// the master, one [`SyncSlave`] per node, and a LAN between them.
pub struct SyncSimulation {
    cfg: SyncSimConfig,
}

/// A frame in flight.
enum Flight {
    ToMaster(PeerId, Vec<u8>),
    ToSlave(usize, Vec<u8>),
}

/// The simulated LAN: frames in flight by arrival time, equal times in
/// the order they were sent, each delayed by one [`DelayModel`] draw.
struct Lan {
    delay: DelayModel,
    rng: StdRng,
    in_flight: BTreeMap<(i64, u64), Flight>,
    sent: u64,
}

impl Lan {
    fn send(&mut self, now: UtcMicros, flight: Flight) {
        let at = now.as_micros() + self.delay.sample(&mut self.rng, now);
        self.in_flight.insert((at, self.sent), flight);
        self.sent += 1;
    }
}

impl SyncSimulation {
    /// New simulation.
    pub fn new(cfg: SyncSimConfig) -> Self {
        SyncSimulation { cfg }
    }

    /// Run to completion, returning the report. Every node connects and
    /// says `Hello` at time 0; from then on the master's machine runs its
    /// own rounds, and its `SyncPoll`s, the slaves' `SyncReply`s and the
    /// `SyncAdjust`s cross the LAN as encoded frames.
    pub fn run(&self) -> Result<SyncSimReport> {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let src = SimTimeSource::new();
        let master_clock = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
        let mut master = Ism::new(IsmConfig::default(), cfg.sync.clone(), master_clock)?;

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

        let mut lan = Lan {
            delay: cfg.delay.clone(),
            rng,
            in_flight: BTreeMap::new(),
            sent: 0,
        };
        let peers: Vec<PeerId> = (0..cfg.nodes)
            .map(|i| {
                let id = master.accept(Duration::ZERO);
                let hello = Message::Hello {
                    node: NodeId(i as u32),
                    version: brisk_proto::VERSION,
                };
                lan.send(src.now(), Flight::ToMaster(id, hello.encode()));
                id
            })
            .collect();

        let end_us = cfg.duration.as_micros() as i64;
        let sample_us = cfg.sample_interval.as_micros() as i64;
        let period_us = cfg.sync.poll_period.as_micros() as i64;
        let mut next_sample = 0i64;
        let mut deadline = master.advance(Duration::ZERO)?;
        let warmup_rounds = 3;

        loop {
            let wake = deadline.map(|d| d.as_micros() as i64);
            let arrival = lan.in_flight.keys().next().map(|&(at, _)| at);
            let t = arrival.into_iter().chain(wake).fold(next_sample, i64::min);
            let t = t.max(src.now().as_micros());
            if t > end_us {
                break;
            }
            src.advance_to(UtcMicros::from_micros(t));
            let now = Duration::from_micros(t as u64);
            if t == next_sample {
                let s = SpreadSample {
                    t_us: t,
                    max_pairwise_us: spread(&clocks),
                    disturbed: cfg.delay.disturbed_at(src.now()),
                };
                if report.rounds >= warmup_rounds {
                    report.max_spread_after_warmup_us =
                        report.max_spread_after_warmup_us.max(s.max_pairwise_us);
                }
                report.samples.push(s);
                next_sample += sample_us;
                continue;
            }
            if arrival == Some(t) {
                let (_, flight) = lan.in_flight.pop_first().expect("an arrival at t");
                match flight {
                    Flight::ToMaster(id, frame) => master.on_frame(id, &frame, now)?,
                    Flight::ToSlave(i, frame) => match Message::decode(&frame) {
                        Ok(Message::SyncPoll {
                            round,
                            sample,
                            master_send,
                        }) => {
                            let reply = Message::SyncReply {
                                round,
                                sample,
                                master_send,
                                slave_time: slaves[i].on_poll(),
                            };
                            lan.send(src.now(), Flight::ToMaster(peers[i], reply.encode()));
                        }
                        Ok(Message::SyncAdjust { advance_us, .. }) => {
                            slaves[i].on_adjust(advance_us);
                            report.corrections += 1;
                            report.total_advance_us += advance_us;
                        }
                        _ => {}
                    },
                }
            }
            deadline = master.advance(now)?;
            report.rounds = master.rounds_completed();
            master.drain_outputs(|out| {
                if let Output::Send { to, frame, .. } = out {
                    let i = peers.iter().position(|&p| p == to).expect("a slave's peer");
                    lan.send(src.now(), Flight::ToSlave(i, frame.to_vec()));
                }
            });
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
