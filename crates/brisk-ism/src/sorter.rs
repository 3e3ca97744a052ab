//! Dynamic on-line sorting (§3.5, §3.6).
//!
//! "For dynamic merging/on-line sorting and extracting instrumentation data
//! records from multiple queues, the ISM uses a heap having one entry for
//! each queue." Queues are keyed by *(node, sensor)*: within one sensor,
//! records arrive in emission order with timestamps from one clock, so each
//! queue is non-decreasing in timestamp — the precondition a heap-of-heads
//! merge needs. (The paper keys by external sensor; one queue per internal
//! sensor is the same idea one level finer, needed because our EXS drains
//! multiple sensor rings round-robin.)
//!
//! "Using the synchronized embedded time-stamps, its current time, and a
//! user-specified time frame `T`, the ISM delays each instrumentation data
//! record for `T` time units after its creation. If the ISM detects that
//! two successive records from different external sensors have been
//! extracted out of order, it increases the time frame; then, it
//! exponentially decreases the time frame to reduce the amount of
//! instrumentation data delayed in memory. This method of sorting results
//! in a trade-off between the event ordering and latency."

use brisk_core::config::FrameGrowth;
use brisk_core::{
    EventRecord, HlcStamp, NodeId, OrderMode, Result, SensorId, SorterConfig, UtcMicros,
};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Key of one input queue.
type QueueKey = (NodeId, SensorId);

/// The stamp `rec` merges by: physical mode orders by the header
/// timestamp as an HLC with logical 0, causal mode by the `X_HLC` stamp
/// (with the same fallback for a record that carries none).
fn stamp_under(order: OrderMode, rec: &EventRecord) -> HlcStamp {
    match order {
        OrderMode::Physical => HlcStamp::new(rec.ts, 0),
        OrderMode::Causal => rec.hlc().unwrap_or(HlcStamp::new(rec.ts, 0)),
    }
}

/// Heap entry: the head record's stamp, its node and sensor as stable
/// tiebreakers, then its queue's slot. Heads come from distinct queues, so
/// (stamp, node, sensor) never ties: neither the slot nor the sequence
/// number ever decides an order.
type HeapEntry = Reverse<(HlcStamp, u32, u32, u32)>;

/// One input queue: records with their merge stamps, computed once at push
/// time (an `X_HLC` lookup scans the record's fields — doing it per heap
/// operation instead would dominate the causal-mode merge cost).
type Queue = VecDeque<(EventRecord, HlcStamp)>;

/// Counters describing sorter behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SorterStats {
    /// Records accepted.
    pub pushed: u64,
    /// Records released to the output stage.
    pub released: u64,
    /// Out-of-order extractions observed (each grows `T`).
    pub inversions: u64,
    /// Records released early because the buffer bound was hit
    /// (Fig. 1 "event dropping" under memory pressure).
    pub forced_releases: u64,
    /// Records *dropped* under memory pressure by the
    /// [`OverloadPolicy::ShedUnmarked`] policy. Never includes
    /// CRE-marked records.
    pub shed: u64,
    /// Exponential decay steps applied to `T`.
    pub decays: u64,
    /// Non-monotone same-source records whose timestamp was clamped to
    /// preserve the per-queue ordering invariant.
    pub ts_clamped: u64,
}

/// What the sorter does with records when the buffer bound is exceeded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Release the globally-smallest heads early, out of frame
    /// (today's behaviour; ordering may suffer, nothing is lost).
    #[default]
    ForceRelease,
    /// Drop the oldest *unmarked* heads outright (counted in
    /// [`SorterStats::shed`]); CRE-marked records are never dropped —
    /// they are force-released instead, so causal pairs survive
    /// overload intact.
    ShedUnmarked,
}

/// The adaptive-time-frame k-way merge.
///
/// ```
/// use brisk_core::{EventRecord, EventTypeId, NodeId, SensorId, SorterConfig, UtcMicros};
/// use brisk_ism::OnlineSorter;
///
/// let mut sorter = OnlineSorter::new(
///     SorterConfig { initial_frame_us: 1_000, ..SorterConfig::default() },
///     0, // unbounded buffering
/// ).unwrap();
/// let rec = |node: u32, ts: i64| EventRecord::new(
///     NodeId(node), SensorId(0), EventTypeId(1), 0,
///     UtcMicros::from_micros(ts), vec![],
/// ).unwrap();
///
/// // Records from two nodes arrive out of order…
/// sorter.push(rec(0, 300));
/// sorter.push(rec(1, 100));
/// // …and nothing is released until the frame T has passed…
/// assert!(sorter.poll(UtcMicros::from_micros(1_050)).is_empty());
/// // …after which they come out merged by timestamp.
/// let out = sorter.poll(UtcMicros::from_micros(2_000));
/// assert_eq!(out[0].ts.as_micros(), 100);
/// assert_eq!(out[1].ts.as_micros(), 300);
/// ```
pub struct OnlineSorter {
    cfg: SorterConfig,
    /// Upper bound on buffered records; 0 = unbounded.
    max_buffered: usize,
    overload: OverloadPolicy,
    order: OrderMode,
    /// Per-source FIFO queues, a slab indexed by slot; a queue keeps its
    /// slot for the sorter's lifetime.
    queues: Vec<Queue>,
    /// Source → slot.
    slots: HashMap<QueueKey, u32>,
    /// The previous push's source and slot: batches are single-node runs,
    /// so most pushes skip the map.
    last_push: Option<(QueueKey, u32)>,
    /// Min-heap over the head of every non-empty queue.
    heads: BinaryHeap<HeapEntry>,
    buffered: usize,
    frame_us: i64,
    last_released_key: Option<HlcStamp>,
    last_released_from: Option<u32>,
    last_decay_at: Option<UtcMicros>,
    stats: SorterStats,
}

impl OnlineSorter {
    /// New sorter. `max_buffered` bounds in-memory records (0 = unbounded).
    pub fn new(cfg: SorterConfig, max_buffered: usize) -> Result<Self> {
        cfg.validate()?;
        Ok(OnlineSorter {
            frame_us: cfg.initial_frame_us,
            cfg,
            max_buffered,
            overload: OverloadPolicy::default(),
            order: OrderMode::default(),
            queues: Vec::new(),
            slots: HashMap::new(),
            last_push: None,
            heads: BinaryHeap::new(),
            buffered: 0,
            last_released_key: None,
            last_released_from: None,
            last_decay_at: None,
            stats: SorterStats::default(),
        })
    }

    /// Select the policy applied when the buffer bound is exceeded.
    pub fn set_overload_policy(&mut self, policy: OverloadPolicy) {
        self.overload = policy;
    }

    /// Select the ordering discipline. Must be called before any record
    /// is pushed — heap keys are computed at push time.
    pub fn set_order_mode(&mut self, order: OrderMode) {
        debug_assert_eq!(self.buffered, 0, "order mode change with records buffered");
        self.order = order;
    }

    /// Current time frame `T` in microseconds.
    pub fn frame_us(&self) -> i64 {
        self.frame_us
    }

    /// Records currently delayed in memory.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Counters so far.
    pub fn stats(&self) -> SorterStats {
        self.stats
    }

    /// Accept a batch from one node. Records are appended to their
    /// per-sensor queues in arrival order ("the in-order arrival of these
    /// batches is guaranteed by the socket stream protocol").
    pub fn push_batch(&mut self, records: impl IntoIterator<Item = EventRecord>) {
        for rec in records {
            self.push(rec);
        }
    }

    /// Accept one record.
    pub fn push(&mut self, rec: EventRecord) {
        self.push_keyed(rec, None);
    }

    /// [`Self::push`] given the record's merge stamp when the caller has
    /// already read it (the merge plane reads `X_HLC` on receive); `None`
    /// reads it here.
    pub(crate) fn push_keyed(&mut self, rec: EventRecord, stamp: Option<HlcStamp>) {
        let qkey = (rec.node, rec.sensor);
        let slot = match self.last_push {
            Some((key, slot)) if key == qkey => slot,
            _ => {
                let queues = &mut self.queues;
                let slot = *self.slots.entry(qkey).or_insert_with(|| {
                    queues.push(Queue::new());
                    (queues.len() - 1) as u32
                });
                self.last_push = Some((qkey, slot));
                slot
            }
        };
        let q = &mut self.queues[slot as usize];
        let was_empty = q.is_empty();
        // Defensive: a sensor whose clock stepped backwards could emit a
        // non-monotone stream; clamp so the queue invariant holds and the
        // inversion is surfaced by the merge rather than corrupting it.
        // The tail's stamp is read from the queue — never recomputed from
        // its fields — so a push costs one stamp computation total.
        let mut rec = rec;
        let mut stamp = stamp.unwrap_or_else(|| stamp_under(self.order, &rec));
        if let Some((back, bk)) = q.back() {
            match self.order {
                OrderMode::Physical => {
                    if rec.ts < back.ts {
                        rec.ts = back.ts;
                        stamp = stamp_under(self.order, &rec);
                        self.stats.ts_clamped += 1;
                    }
                }
                OrderMode::Causal => {
                    let bk = *bk;
                    if stamp < bk {
                        // Raise the stamp just above the queue tail; keep
                        // the physical ts monotone too so a later switch
                        // back to timestamp views stays coherent.
                        rec.set_hlc(HlcStamp::new(bk.physical, bk.logical.saturating_add(1)));
                        if rec.ts < back.ts {
                            rec.ts = back.ts;
                        }
                        stamp = stamp_under(self.order, &rec);
                        self.stats.ts_clamped += 1;
                    }
                }
            }
        }
        let head = Reverse((stamp, rec.node.raw(), rec.sensor.raw(), slot));
        q.push_back((rec, stamp));
        self.buffered += 1;
        self.stats.pushed += 1;
        if was_empty {
            self.heads.push(head);
        }
    }

    /// Release every record whose delay has expired, in merged timestamp
    /// order. `now` is the ISM's current (synchronized) time.
    pub fn poll(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`Self::poll`], appending to `out` — the merge plane reuses one
    /// buffer across ticks.
    pub(crate) fn poll_into(&mut self, now: UtcMicros, out: &mut Vec<EventRecord>) {
        self.maybe_decay(now);
        self.release_ready(now, out);
    }

    /// The release loop proper, shared by `poll` (which decays first) and
    /// `drain_all` (which must not touch the decay schedule). Each release
    /// sifts the heap once: the top entry is overwritten with its queue's
    /// next head, or popped when the queue empties.
    fn release_ready(&mut self, now: UtcMicros, out: &mut Vec<EventRecord>) {
        loop {
            // Memory pressure: evict the globally-smallest head early.
            let force = self.max_buffered != 0 && self.buffered > self.max_buffered;
            let Some(mut top) = self.heads.peek_mut() else {
                break;
            };
            let Reverse((stamp, _, _, slot)) = *top;
            if !force && now < stamp.physical.offset(self.frame_us) {
                break;
            }
            let q = &mut self.queues[slot as usize];
            let (rec, _) = q.pop_front().expect("non-empty queue in heap");
            if let Some(&(_, next)) = q.front() {
                top.0 .0 = next;
                drop(top); // sifts the new head into place
            } else {
                PeekMut::pop(top);
            }
            self.buffered -= 1;
            if force {
                // Under ShedUnmarked, plain records are dropped outright;
                // CRE-marked ones are never shed (their peer may already
                // have been delivered) and fall back to a forced release.
                if self.overload == OverloadPolicy::ShedUnmarked && !rec.is_causally_marked() {
                    self.stats.shed += 1;
                    continue;
                }
                self.stats.forced_releases += 1;
            }
            self.stats.released += 1;
            self.observe_release(stamp, slot);
            out.push(rec);
        }
    }

    /// Inversion detection and frame growth: "two successive records from
    /// different external sensors … extracted out of order". `key` is the
    /// released record's cached stamp (from its heap entry) and `from` its
    /// queue's slot — no field rescan on release.
    fn observe_release(&mut self, key: HlcStamp, from: u32) {
        if let (Some(last_key), Some(last_from)) = (self.last_released_key, self.last_released_from)
        {
            if key < last_key && from != last_from {
                self.stats.inversions += 1;
                let lateness = last_key.physical.micros_since(key.physical);
                let grown = match self.cfg.growth {
                    FrameGrowth::ToObservedLateness => lateness,
                    // max(1) so a frame that decayed to 0 (legal with
                    // min_frame_us = 0) can still grow: 0 * f == 0.
                    FrameGrowth::Multiplicative(f) => {
                        ((self.frame_us.max(1) as f64) * f).ceil() as i64
                    }
                    FrameGrowth::Additive(a) => self.frame_us + a,
                };
                // An inversion must always move T, whatever the policy
                // computes (e.g. lateness smaller than the current frame).
                self.frame_us = grown
                    .max(self.frame_us.saturating_add(1))
                    .clamp(self.cfg.min_frame_us, self.cfg.max_frame_us);
            }
        }
        // "Two SUCCESSIVE records": the comparison baseline is always the
        // record released immediately before this one.
        self.last_released_key = Some(key);
        self.last_released_from = Some(from);
    }

    fn maybe_decay(&mut self, now: UtcMicros) {
        let interval_us = self.cfg.decay_interval.as_micros() as i64;
        let last = *self.last_decay_at.get_or_insert(now);
        if now.micros_since(last) < interval_us {
            return;
        }
        // Apply one decay step per elapsed interval.
        let steps = (now.micros_since(last) / interval_us).min(64) as u32;
        if self.cfg.decay_factor < 1.0 {
            let factor = self.cfg.decay_factor.powi(steps as i32);
            self.frame_us = (((self.frame_us as f64) * factor) as i64)
                .clamp(self.cfg.min_frame_us, self.cfg.max_frame_us);
            self.stats.decays += steps as u64;
        }
        self.last_decay_at = Some(last.offset(steps as i64 * interval_us));
    }

    /// When [`Self::poll`] next has work, while records are buffered: the
    /// head's release time (at once past the buffer bound) or, while `T`
    /// can still shrink, the next decay step, which brings that release
    /// forward.
    pub(crate) fn next_due(&self) -> Option<UtcMicros> {
        let Reverse((head, ..)) = self.heads.peek()?;
        if self.max_buffered != 0 && self.buffered > self.max_buffered {
            return Some(UtcMicros::ZERO);
        }
        let release = head.physical.offset(self.frame_us);
        let decays = self.cfg.decay_factor < 1.0 && self.frame_us > self.cfg.min_frame_us;
        let decay = self
            .last_decay_at
            .filter(|_| decays)
            .map(|t| t.offset(self.cfg.decay_interval.as_micros() as i64));
        Some(decay.map_or(release, |d| d.min(release)))
    }

    /// Unconditionally release everything in merged order (shutdown path).
    /// Bypasses `maybe_decay`: "now = MAX" is not a real clock reading and
    /// must not advance the decay schedule or its counters.
    pub fn drain_all(&mut self) -> Vec<EventRecord> {
        let mut out = Vec::new();
        let saved_frame = self.frame_us;
        self.frame_us = 0;
        self.release_ready(UtcMicros::MAX, &mut out);
        self.frame_us = saved_frame;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::EventTypeId;
    use std::time::Duration;

    fn rec(node: u32, sensor: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(sensor),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![],
        )
        .unwrap()
    }

    fn cfg(initial: i64) -> SorterConfig {
        SorterConfig {
            initial_frame_us: initial,
            min_frame_us: 0,
            max_frame_us: 1_000_000,
            growth: FrameGrowth::ToObservedLateness,
            decay_factor: 0.5,
            decay_interval: Duration::from_millis(100),
        }
    }

    #[test]
    fn records_are_delayed_t_after_creation() {
        let mut s = OnlineSorter::new(cfg(1_000), 0).unwrap();
        s.push(rec(0, 0, 0, 5_000));
        // Before ts+T: nothing.
        assert!(s.poll(UtcMicros::from_micros(5_999)).is_empty());
        // At ts+T: released.
        let out = s.poll(UtcMicros::from_micros(6_000));
        assert_eq!(out.len(), 1);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn merge_is_timestamp_ordered_across_sources() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.push_batch([rec(0, 0, 0, 10), rec(0, 0, 1, 30), rec(0, 0, 2, 50)]);
        s.push_batch([rec(1, 0, 0, 20), rec(1, 0, 1, 40)]);
        s.push_batch([rec(2, 0, 0, 25)]);
        let out = s.poll(UtcMicros::from_micros(1_000));
        let ts: Vec<i64> = out.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 25, 30, 40, 50]);
    }

    #[test]
    fn equal_timestamps_break_ties_deterministically() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.push(rec(1, 0, 0, 10));
        s.push(rec(0, 0, 0, 10));
        let out = s.poll(UtcMicros::from_micros(1_000));
        assert_eq!(out[0].node, NodeId(0));
        assert_eq!(out[1].node, NodeId(1));
    }

    #[test]
    fn inversion_grows_frame_to_observed_lateness() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        // Release node 0's record at ts=100 first (T=0, it is released as
        // soon as polled)…
        s.push(rec(0, 0, 0, 100));
        assert_eq!(s.poll(UtcMicros::from_micros(100)).len(), 1);
        // …then node 1's record arrives late with ts=40: inversion.
        s.push(rec(1, 0, 0, 40));
        let out = s.poll(UtcMicros::from_micros(200));
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().inversions, 1);
        assert_eq!(s.frame_us(), 60, "grown to the observed lateness");
    }

    #[test]
    fn same_source_out_of_order_is_not_an_inversion() {
        // Within one sensor the sorter clamps (defensive monotonicity), so
        // no inversion is counted.
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.push(rec(0, 0, 0, 100));
        s.push(rec(0, 0, 1, 50)); // clamped to 100
        let out = s.poll(UtcMicros::from_micros(1_000));
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].ts.as_micros(), 100);
        assert_eq!(s.stats().inversions, 0);
        assert_eq!(s.stats().ts_clamped, 1, "the silent clamp is counted");
    }

    #[test]
    fn shed_policy_drops_unmarked_but_never_marked_records() {
        use brisk_core::{CorrelationId, Value};
        let mut s = OnlineSorter::new(cfg(1_000_000), 3).unwrap();
        s.set_overload_policy(OverloadPolicy::ShedUnmarked);
        // Oldest two heads: one unmarked, one CRE-marked.
        s.push(rec(0, 0, 0, 10));
        let marked = EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(11),
            vec![Value::Conseq(CorrelationId(4))],
        )
        .unwrap();
        s.push(marked);
        for i in 2..5 {
            s.push(rec(0, 0, i, 10 + i as i64));
        }
        let out = s.poll(UtcMicros::from_micros(20));
        assert_eq!(s.buffered(), 3, "buffered must drop to the bound");
        assert_eq!(s.stats().shed, 1, "the unmarked head was dropped");
        assert_eq!(s.stats().forced_releases, 1, "the marked one released");
        assert_eq!(out.len(), 1);
        assert!(out[0].is_causally_marked(), "marked records are never shed");
    }

    #[test]
    fn multiplicative_and_additive_growth() {
        let mut c = cfg(100);
        c.growth = FrameGrowth::Multiplicative(2.0);
        let mut s = OnlineSorter::new(c, 0).unwrap();
        s.push(rec(0, 0, 0, 100));
        s.poll(UtcMicros::from_micros(200));
        s.push(rec(1, 0, 0, 40));
        s.poll(UtcMicros::from_micros(400));
        assert_eq!(s.frame_us(), 200);

        let mut c = cfg(100);
        c.growth = FrameGrowth::Additive(35);
        let mut s = OnlineSorter::new(c, 0).unwrap();
        s.push(rec(0, 0, 0, 100));
        s.poll(UtcMicros::from_micros(200));
        s.push(rec(1, 0, 0, 40));
        s.poll(UtcMicros::from_micros(400));
        assert_eq!(s.frame_us(), 135);
    }

    #[test]
    fn multiplicative_growth_recovers_from_zero_frame() {
        // With min_frame_us = 0 the frame can legally decay to 0; an
        // inversion must still be able to grow it again.
        let mut c = cfg(0);
        c.growth = FrameGrowth::Multiplicative(2.0);
        let mut s = OnlineSorter::new(c, 0).unwrap();
        s.push(rec(0, 0, 0, 100));
        s.poll(UtcMicros::from_micros(100));
        s.push(rec(1, 0, 0, 40));
        s.poll(UtcMicros::from_micros(200));
        assert_eq!(s.stats().inversions, 1);
        assert!(s.frame_us() > 0, "frame must escape 0 on an inversion");
    }

    #[test]
    fn every_growth_policy_strictly_grows_on_inversion() {
        for growth in [
            FrameGrowth::ToObservedLateness,
            FrameGrowth::Multiplicative(2.0),
            FrameGrowth::Additive(35),
        ] {
            for initial in [0i64, 1, 100, 10_000] {
                let mut c = cfg(initial);
                c.growth = growth;
                let mut s = OnlineSorter::new(c, 0).unwrap();
                s.push(rec(0, 0, 0, 100_000));
                s.poll(UtcMicros::from_micros(200_000));
                s.push(rec(1, 0, 0, 99_000));
                s.poll(UtcMicros::from_micros(200_000));
                assert_eq!(s.stats().inversions, 1, "{growth:?} from {initial}");
                assert!(
                    s.frame_us() > initial,
                    "{growth:?} must strictly grow from {initial}, got {}",
                    s.frame_us()
                );
            }
        }
    }

    #[test]
    fn drain_all_does_not_decay() {
        let mut s = OnlineSorter::new(cfg(1_000), 0).unwrap();
        let t0 = UtcMicros::ZERO;
        s.poll(t0); // initializes the decay timer
        s.push(rec(0, 0, 0, 10));
        let out = s.drain_all();
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().decays, 0, "shutdown drain must not decay");
        // The decay timer must not have been dragged to now = MAX either:
        // one interval later a normal poll still decays exactly once.
        s.poll(t0 + Duration::from_millis(100));
        assert_eq!(s.frame_us(), 500, "decay schedule intact after drain");
    }

    #[test]
    fn frame_decays_exponentially_and_clamps() {
        let mut c = cfg(1_000);
        c.min_frame_us = 100;
        let mut s = OnlineSorter::new(c, 0).unwrap();
        let t0 = UtcMicros::ZERO;
        s.poll(t0); // initializes decay timer
        s.poll(t0 + Duration::from_millis(100));
        assert_eq!(s.frame_us(), 500);
        s.poll(t0 + Duration::from_millis(200));
        assert_eq!(s.frame_us(), 250);
        // Far in the future: clamped at min.
        s.poll(t0 + Duration::from_secs(10));
        assert_eq!(s.frame_us(), 100);
        assert!(s.stats().decays >= 3);
    }

    #[test]
    fn larger_frame_orders_late_traffic_correctly() {
        // With T large enough, a late-delivered record still comes out in
        // order — the ordering/latency trade-off.
        let mut s = OnlineSorter::new(cfg(1_000), 0).unwrap();
        s.push(rec(0, 0, 0, 100));
        // Node 1's ts=50 record arrives AFTER node 0's ts=100 one.
        s.push(rec(1, 0, 0, 50));
        let out = s.poll(UtcMicros::from_micros(2_000));
        let ts: Vec<i64> = out.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![50, 100]);
        assert_eq!(s.stats().inversions, 0);
    }

    #[test]
    fn memory_pressure_forces_early_release() {
        let mut s = OnlineSorter::new(cfg(1_000_000), 3).unwrap();
        for i in 0..5 {
            s.push(rec(0, 0, i, 10 + i as i64));
        }
        // Frame is huge; without pressure nothing would be released.
        let out = s.poll(UtcMicros::from_micros(20));
        assert_eq!(out.len(), 2, "buffered must drop to the bound");
        assert_eq!(s.buffered(), 3);
        assert_eq!(s.stats().forced_releases, 2);
    }

    #[test]
    fn drain_all_empties_in_order_and_restores_frame() {
        let mut s = OnlineSorter::new(cfg(500), 0).unwrap();
        s.push(rec(0, 0, 0, 30));
        s.push(rec(1, 0, 0, 10));
        s.push(rec(2, 0, 0, 20));
        let out = s.drain_all();
        let ts: Vec<i64> = out.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(s.frame_us(), 500);
        assert_eq!(s.buffered(), 0);
    }

    fn hlc_rec(node: u32, seq: u64, ts: i64, hlc_phys: i64, hlc_logical: u32) -> EventRecord {
        let mut r = rec(node, 0, seq, ts);
        r.set_hlc(HlcStamp::new(UtcMicros::from_micros(hlc_phys), hlc_logical));
        r
    }

    #[test]
    fn causal_mode_orders_by_hlc_not_timestamp() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.set_order_mode(OrderMode::Causal);
        // Node 0's clock is 2 s ahead: its record's physical ts LOOKS later,
        // but its HLC stamp is causally earlier.
        s.push(hlc_rec(0, 0, 2_000_100, 100, 0));
        s.push(hlc_rec(1, 0, 200, 150, 0));
        let out = s.poll(UtcMicros::from_micros(10_000_000));
        assert_eq!(out[0].node, NodeId(0), "HLC order wins over ts order");
        assert_eq!(out[1].node, NodeId(1));
    }

    #[test]
    fn causal_mode_logical_counter_breaks_physical_ties() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.set_order_mode(OrderMode::Causal);
        s.push(hlc_rec(0, 0, 10, 100, 5));
        s.push(hlc_rec(1, 0, 20, 100, 2));
        let out = s.poll(UtcMicros::from_micros(1_000));
        assert_eq!(out[0].node, NodeId(1), "lower logical first");
        assert_eq!(out[1].node, NodeId(0));
    }

    #[test]
    fn causal_mode_unstamped_records_fall_back_to_timestamp() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.set_order_mode(OrderMode::Causal);
        s.push(rec(0, 0, 0, 300));
        s.push(hlc_rec(1, 0, 0, 250, 1));
        let out = s.poll(UtcMicros::from_micros(1_000));
        assert_eq!(out[0].node, NodeId(1), "hlc 250 before plain ts 300");
        assert_eq!(out[1].node, NodeId(0));
    }

    #[test]
    fn causal_mode_clamps_non_monotone_queue_stamps() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.set_order_mode(OrderMode::Causal);
        s.push(hlc_rec(0, 0, 0, 100, 0));
        s.push(hlc_rec(0, 1, 0, 50, 0)); // same queue, stamp went backwards
        let out = s.poll(UtcMicros::from_micros(1_000));
        assert_eq!(out.len(), 2);
        assert_eq!(s.stats().ts_clamped, 1);
        let k0 = out[0].causal_sort_key().0;
        let k1 = out[1].causal_sort_key().0;
        assert!(k1 > k0, "clamped stamp must restore queue monotonicity");
    }

    #[test]
    fn causal_inversion_grows_frame() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.set_order_mode(OrderMode::Causal);
        s.push(hlc_rec(0, 0, 100, 100, 0));
        assert_eq!(s.poll(UtcMicros::from_micros(200)).len(), 1);
        // Late arrival, causally earlier: an inversion in causal terms.
        s.push(hlc_rec(1, 0, 90, 40, 0));
        assert_eq!(s.poll(UtcMicros::from_micros(300)).len(), 1);
        assert_eq!(s.stats().inversions, 1);
        assert_eq!(s.frame_us(), 60, "grown to observed HLC-physical lateness");
    }

    #[test]
    fn stats_track_pushes_and_releases() {
        let mut s = OnlineSorter::new(cfg(0), 0).unwrap();
        s.push_batch((0..10).map(|i| rec(0, 0, i, i as i64)));
        let out = s.poll(UtcMicros::from_micros(100));
        assert_eq!(out.len(), 10);
        let st = s.stats();
        assert_eq!(st.pushed, 10);
        assert_eq!(st.released, 10);
    }

    #[test]
    fn interleaved_push_poll_still_sorted_with_adequate_frame() {
        let mut s = OnlineSorter::new(cfg(100), 0).unwrap();
        let mut released = Vec::new();
        // Two sources, slightly out of phase, delivered in dribbles.
        for step in 0..50i64 {
            s.push(rec(0, 0, step as u64, step * 10));
            if step % 3 == 0 {
                s.push(rec(1, 0, (step / 3) as u64, step * 10 - 5));
            }
            released.extend(s.poll(UtcMicros::from_micros(step * 10)));
        }
        released.extend(s.drain_all());
        let ts: Vec<i64> = released.iter().map(|r| r.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "output must be globally sorted");
        assert_eq!(released.len(), 50 + 17);
    }
}
