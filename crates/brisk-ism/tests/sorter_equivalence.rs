//! The on-line sorter against a straightforward reference: one
//! `HashMap` of per-source queues, a heap of `(full sort key, source)`
//! heads, and a pop plus a push per release. Seeded random interleavings
//! must give the same release sequence, the same `SorterStats` and the
//! same frame `T` after every poll and after the final drain.

use brisk_core::config::FrameGrowth;
use brisk_core::{
    CorrelationId, EventRecord, EventTypeId, HlcStamp, NodeId, OrderMode, SensorId, SorterConfig,
    UtcMicros, Value,
};
use brisk_ism::{OnlineSorter, OverloadPolicy, SorterStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

type Source = (u32, u32);
type Key = (HlcStamp, u32, u32, u64);

/// The reference merge: the sorter's documented behaviour, written the
/// plain way.
struct Reference {
    cfg: SorterConfig,
    max_buffered: usize,
    shed: bool,
    order: OrderMode,
    queues: HashMap<Source, VecDeque<(EventRecord, Key)>>,
    heads: BinaryHeap<Reverse<(Key, Source)>>,
    buffered: usize,
    frame_us: i64,
    last_released: Option<(HlcStamp, Source)>,
    last_decay_at: Option<UtcMicros>,
    stats: SorterStats,
}

impl Reference {
    fn new(cfg: SorterConfig, max_buffered: usize, shed: bool, order: OrderMode) -> Self {
        Reference {
            frame_us: cfg.initial_frame_us,
            cfg,
            max_buffered,
            shed,
            order,
            queues: HashMap::new(),
            heads: BinaryHeap::new(),
            buffered: 0,
            last_released: None,
            last_decay_at: None,
            stats: SorterStats::default(),
        }
    }

    fn key(&self, rec: &EventRecord) -> Key {
        match self.order {
            OrderMode::Physical => (
                HlcStamp::new(rec.ts, 0),
                rec.node.raw(),
                rec.sensor.raw(),
                rec.seq,
            ),
            OrderMode::Causal => rec.causal_sort_key(),
        }
    }

    fn push(&mut self, mut rec: EventRecord) {
        let source = (rec.node.raw(), rec.sensor.raw());
        let mut key = self.key(&rec);
        let tail = self.queues.get(&source).and_then(VecDeque::back);
        if let Some((back, back_key)) = tail {
            let (back_ts, bk) = (back.ts, back_key.0);
            let late = match self.order {
                OrderMode::Physical => rec.ts < back_ts,
                OrderMode::Causal => key.0 < bk,
            };
            if late {
                if self.order == OrderMode::Causal {
                    rec.set_hlc(HlcStamp::new(bk.physical, bk.logical.saturating_add(1)));
                }
                rec.ts = rec.ts.max(back_ts);
                key = self.key(&rec);
                self.stats.ts_clamped += 1;
            }
        }
        let q = self.queues.entry(source).or_default();
        if q.is_empty() {
            self.heads.push(Reverse((key, source)));
        }
        q.push_back((rec, key));
        self.buffered += 1;
        self.stats.pushed += 1;
    }

    fn poll(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let interval = self.cfg.decay_interval.as_micros() as i64;
        let last = *self.last_decay_at.get_or_insert(now);
        if now.micros_since(last) >= interval {
            let steps = (now.micros_since(last) / interval).min(64);
            if self.cfg.decay_factor < 1.0 {
                let factor = self.cfg.decay_factor.powi(steps as i32);
                self.frame_us = (((self.frame_us as f64) * factor) as i64)
                    .clamp(self.cfg.min_frame_us, self.cfg.max_frame_us);
                self.stats.decays += steps as u64;
            }
            self.last_decay_at = Some(last.offset(steps * interval));
        }
        self.release(now)
    }

    fn drain_all(&mut self) -> Vec<EventRecord> {
        let saved = std::mem::replace(&mut self.frame_us, 0);
        let out = self.release(UtcMicros::MAX);
        self.frame_us = saved;
        out
    }

    fn release(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let mut out = Vec::new();
        while let Some(&Reverse((key, source))) = self.heads.peek() {
            let force = self.max_buffered != 0 && self.buffered > self.max_buffered;
            if !force && now < key.0.physical.offset(self.frame_us) {
                break;
            }
            self.heads.pop();
            let q = self.queues.get_mut(&source).unwrap();
            let (rec, _) = q.pop_front().unwrap();
            if let Some(&(_, next)) = q.front() {
                self.heads.push(Reverse((next, source)));
            }
            self.buffered -= 1;
            if force {
                if self.shed && !rec.is_causally_marked() {
                    self.stats.shed += 1;
                    continue;
                }
                self.stats.forced_releases += 1;
            }
            self.stats.released += 1;
            if let Some((last_key, last_source)) = self.last_released {
                if key.0 < last_key && source != last_source {
                    self.stats.inversions += 1;
                    let grown = match self.cfg.growth {
                        FrameGrowth::ToObservedLateness => {
                            last_key.physical.micros_since(key.0.physical)
                        }
                        FrameGrowth::Multiplicative(f) => {
                            ((self.frame_us.max(1) as f64) * f).ceil() as i64
                        }
                        FrameGrowth::Additive(a) => self.frame_us + a,
                    };
                    self.frame_us = grown
                        .max(self.frame_us.saturating_add(1))
                        .clamp(self.cfg.min_frame_us, self.cfg.max_frame_us);
                }
            }
            self.last_released = Some((key.0, source));
            out.push(rec);
        }
        out
    }
}

/// One source's stream: its clock and next sequence number.
struct Stream {
    ts: i64,
    seq: u64,
}

/// A record from `source` whose stamp steps forward, repeats or steps
/// back from the stream's last one; sometimes CRE-marked, sometimes
/// `X_HLC`-stamped (or stamped on a clock of its own), sometimes full to
/// the field limit so a causal clamp cannot attach a stamp.
fn next_record(rng: &mut StdRng, source: Source, s: &mut Stream) -> EventRecord {
    s.ts += rng.gen_range(-40i64..=60);
    s.seq += 1;
    let mut fields = match rng.gen_range(0u32..10) {
        0 => vec![Value::I32(0); 8],
        1 => vec![Value::Reason(CorrelationId(s.seq))],
        2 => vec![Value::Conseq(CorrelationId(s.seq))],
        _ => vec![Value::I32(s.seq as i32)],
    };
    if fields.len() < 8 && rng.gen_bool(0.6) {
        let physical = UtcMicros::from_micros(s.ts + rng.gen_range(-30i64..=30));
        fields.push(Value::Hlc(HlcStamp::new(physical, rng.gen_range(0u32..3))));
    }
    let ts = UtcMicros::from_micros(s.ts);
    EventRecord::new(
        NodeId(source.0),
        SensorId(source.1),
        EventTypeId(1),
        s.seq,
        ts,
        fields,
    )
    .unwrap()
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let order = if rng.gen_bool(0.5) {
        OrderMode::Causal
    } else {
        OrderMode::Physical
    };
    let shed = rng.gen_bool(0.5);
    let max_buffered = if rng.gen_bool(0.4) {
        rng.gen_range(2usize..12)
    } else {
        0
    };
    let cfg = SorterConfig {
        initial_frame_us: rng.gen_range(0i64..300),
        min_frame_us: 0,
        max_frame_us: 2_000,
        growth: match rng.gen_range(0u32..3) {
            0 => FrameGrowth::ToObservedLateness,
            1 => FrameGrowth::Multiplicative(2.0),
            _ => FrameGrowth::Additive(25),
        },
        decay_factor: 0.7,
        decay_interval: Duration::from_micros(rng.gen_range(100u64..600)),
    };
    let mut sorter = OnlineSorter::new(cfg.clone(), max_buffered).unwrap();
    sorter.set_order_mode(order);
    if shed {
        sorter.set_overload_policy(OverloadPolicy::ShedUnmarked);
    }
    let mut reference = Reference::new(cfg, max_buffered, shed, order);

    let (nodes, sensors) = (rng.gen_range(1u32..5), rng.gen_range(1u32..4));
    let mut streams: HashMap<Source, Stream> = HashMap::new();
    let mut now = 1_000i64;
    let ctx = |step: usize| {
        format!("seed {seed}, step {step}, {order:?}, shed {shed}, bound {max_buffered}")
    };
    for step in 0..400 {
        // A run from one source (batches are single-node runs), or a
        // record from a random source to break the run.
        let source = (rng.gen_range(0..nodes), rng.gen_range(0..sensors));
        let stream = streams.entry(source).or_insert(Stream { ts: now, seq: 0 });
        for _ in 0..rng.gen_range(1usize..6) {
            let rec = next_record(&mut rng, source, stream);
            sorter.push(rec.clone());
            reference.push(rec);
        }
        if rng.gen_bool(0.5) {
            now += rng.gen_range(0i64..120);
            let at = UtcMicros::from_micros(now);
            assert_eq!(sorter.poll(at), reference.poll(at), "{}", ctx(step));
            assert_eq!(sorter.stats(), reference.stats, "{}", ctx(step));
            assert_eq!(sorter.frame_us(), reference.frame_us, "{}", ctx(step));
            assert_eq!(sorter.buffered(), reference.buffered, "{}", ctx(step));
        }
    }
    assert_eq!(sorter.drain_all(), reference.drain_all(), "{}", ctx(400));
    assert_eq!(sorter.stats(), reference.stats, "{}", ctx(400));
    assert_eq!(sorter.frame_us(), reference.frame_us, "{}", ctx(400));
    assert_eq!(sorter.buffered(), 0);
}

#[test]
fn slab_sorter_matches_a_reference_heap_of_heads() {
    for seed in 0..300 {
        run_case(seed);
    }
}
