//! The CRE matcher against a reference that finds what timed out by
//! scanning: one hash table of reasons and one of held-consequence lists,
//! each `retain`ed in full on every expiry, and a scan of every hold for
//! the next deadline. Seeded random mixes of reasons, consequences, relay
//! hops and unmarked records, with reused ids, tachyons, `expire` at
//! random points and a clock that steps forward and sometimes back, must
//! give the same output, counters and next deadline after every call.
//!
//! `PROPTEST_CASES` raises the number of cases above the default 300.

use brisk_core::{
    CorrelationId, CreConfig, EventRecord, EventTypeId, HlcStamp, NodeId, OrderMode, SensorId,
    TraceContext, TraceStage, UtcMicros, Value,
};
use brisk_ism::{CreMatcher, CreStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

const TACHYON_BUMP_US: i64 = 1;
const EXTRA_SYNC_BURST: u32 = 4;
const EXTRA_SYNC_REFILL_US: i64 = 1_000_000;

struct ReasonEntry {
    ts: UtcMicros,
    hlc: Option<HlcStamp>,
    seen_at: UtcMicros,
}

struct HeldConseq {
    rec: EventRecord,
    held_at: UtcMicros,
}

/// What one `process` call returned: the records passed, in order, then
/// `request_extra_sync` and `input_repaired`.
type Output = (Vec<EventRecord>, bool, bool);

/// The reference matcher: the documented behaviour, with every expiry a
/// full scan.
struct Reference {
    timeout_us: i64,
    order: OrderMode,
    reasons: HashMap<CorrelationId, ReasonEntry>,
    waiting: HashMap<CorrelationId, Vec<HeldConseq>>,
    stats: CreStats,
    sync_tokens: u32,
    sync_last_refill: Option<UtcMicros>,
}

impl Reference {
    fn new(hold_timeout: Duration, order: OrderMode) -> Self {
        Reference {
            timeout_us: hold_timeout.as_micros() as i64,
            order,
            reasons: HashMap::new(),
            waiting: HashMap::new(),
            stats: CreStats::default(),
            sync_tokens: EXTRA_SYNC_BURST,
            sync_last_refill: None,
        }
    }

    fn held_count(&self) -> usize {
        self.waiting.values().map(Vec::len).sum()
    }

    fn next_expiry(&self) -> Option<UtcMicros> {
        let oldest = self.waiting.values().flatten().map(|h| h.held_at).min();
        oldest.map(|t| t.offset(self.timeout_us))
    }

    fn process(&mut self, mut rec: EventRecord, now: UtcMicros) -> Output {
        let mut out = (Vec::new(), false, false);
        let marks = rec.marks();
        let (reason_id, conseq_id) = (marks.reason, marks.conseq);
        if let Some(id) = conseq_id {
            self.stats.conseqs += 1;
            match self.reasons.get(&id) {
                Some(entry) => {
                    if is_tachyon(self.order, &rec, entry) {
                        let (ts, hlc) = (entry.ts, entry.hlc);
                        self.repair(&mut rec, ts, hlc, now, &mut out);
                        out.2 = true;
                    }
                }
                None => {
                    if let Some(rid) = reason_id {
                        self.stats.reasons += 1;
                        let entry = ReasonEntry {
                            ts: rec.ts,
                            hlc: rec.hlc(),
                            seen_at: now,
                        };
                        self.reasons.insert(rid, entry);
                    }
                    self.stats.held += 1;
                    rec.stamp_trace(TraceStage::CreHold, now);
                    let held = HeldConseq { rec, held_at: now };
                    self.waiting.entry(id).or_default().push(held);
                    return out;
                }
            }
        }
        if let Some(id) = reason_id {
            self.stats.reasons += 1;
            let (reason_ts, reason_hlc) = (rec.ts, rec.hlc());
            let entry = ReasonEntry {
                ts: reason_ts,
                hlc: reason_hlc,
                seen_at: now,
            };
            self.reasons.insert(id, entry);
            if let Some(held) = self.waiting.remove(&id) {
                out.0.push(rec);
                self.release_cascade(reason_ts, reason_hlc, held, now, &mut out);
                return out;
            }
        } else if conseq_id.is_none() {
            self.stats.unmarked += 1;
        }
        out.0.push(rec);
        out
    }

    fn repair(
        &mut self,
        rec: &mut EventRecord,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        now: UtcMicros,
        out: &mut Output,
    ) {
        let mut ts_floor = reason_ts;
        if self.order == OrderMode::Causal {
            if let Some(r) = reason_hlc {
                let bound = HlcStamp::new(r.physical, r.logical.saturating_add(1));
                match rec.hlc() {
                    Some(c) if c > bound => {}
                    _ => {
                        rec.set_hlc(bound);
                    }
                }
                ts_floor = ts_floor.max(r.physical);
            }
        }
        if rec.ts <= ts_floor {
            rec.override_ts(ts_floor.offset(TACHYON_BUMP_US));
        }
        rec.stamp_trace(TraceStage::CreRepair, now);
        self.stats.tachyons_repaired += 1;
        if self.take_sync_token(now) {
            self.stats.extra_syncs_requested += 1;
            out.1 = true;
        } else {
            self.stats.extra_syncs_suppressed += 1;
        }
    }

    fn take_sync_token(&mut self, now: UtcMicros) -> bool {
        let last = *self.sync_last_refill.get_or_insert(now);
        let steps = now.micros_since(last).max(0) / EXTRA_SYNC_REFILL_US;
        if steps > 0 {
            let add = u32::try_from(steps).unwrap_or(u32::MAX);
            self.sync_tokens = self.sync_tokens.saturating_add(add).min(EXTRA_SYNC_BURST);
            self.sync_last_refill = Some(last.offset(steps.saturating_mul(EXTRA_SYNC_REFILL_US)));
        }
        if self.sync_tokens > 0 {
            self.sync_tokens -= 1;
            true
        } else {
            false
        }
    }

    fn release_cascade(
        &mut self,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        held: Vec<HeldConseq>,
        now: UtcMicros,
        out: &mut Output,
    ) {
        let mut work = VecDeque::new();
        work.push_back((reason_ts, reason_hlc, held));
        while let Some((reason_ts, reason_hlc, held)) = work.pop_front() {
            let entry = ReasonEntry {
                ts: reason_ts,
                hlc: reason_hlc,
                seen_at: now,
            };
            for mut h in held {
                if is_tachyon(self.order, &h.rec, &entry) {
                    self.repair(&mut h.rec, reason_ts, reason_hlc, now, out);
                }
                if let Some(rid) = h.rec.reason_id() {
                    if let Some(entry) = self.reasons.get_mut(&rid) {
                        entry.ts = h.rec.ts;
                        entry.hlc = h.rec.hlc();
                        entry.seen_at = now;
                    }
                    if let Some(waiters) = self.waiting.remove(&rid) {
                        work.push_back((h.rec.ts, h.rec.hlc(), waiters));
                    }
                }
                out.0.push(h.rec);
            }
        }
    }

    fn expire(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let timeout_us = self.timeout_us;
        let mut released = Vec::new();
        self.waiting.retain(|_, held| {
            held.retain_mut(|h| {
                if now.micros_since(h.held_at) >= timeout_us {
                    released.push(std::mem::take(&mut h.rec));
                    false
                } else {
                    true
                }
            });
            !held.is_empty()
        });
        self.stats.expired += released.len() as u64;
        self.reasons
            .retain(|_, entry| now.micros_since(entry.seen_at) < timeout_us);
        released.sort_by_key(|r| r.sort_key());
        released
    }
}

fn is_tachyon(order: OrderMode, conseq: &EventRecord, reason: &ReasonEntry) -> bool {
    match (order, conseq.hlc(), reason.hlc) {
        (OrderMode::Causal, Some(c), Some(r)) => c <= r,
        _ => conseq.ts <= reason.ts,
    }
}

/// A record from one of a few nodes with a unique sequence number (so
/// expired records sort the same whatever order they were found in),
/// marked per `marks`, sometimes `X_HLC`-stamped and sometimes traced.
fn record(rng: &mut StdRng, seq: u64, marks: &[Value]) -> EventRecord {
    let ts = rng.gen_range(0i64..2_000);
    let mut fields = marks.to_vec();
    if marks.is_empty() {
        fields.push(Value::I32(seq as i32));
    }
    if rng.gen_bool(0.5) {
        let physical = UtcMicros::from_micros(ts + rng.gen_range(-50i64..=50));
        fields.push(Value::Hlc(HlcStamp::new(physical, rng.gen_range(0u32..3))));
    }
    if rng.gen_bool(0.1) {
        let origin = TraceContext::origin(seq + 1, UtcMicros::from_micros(ts));
        fields.push(Value::Trace(origin));
    }
    EventRecord::new(
        NodeId(rng.gen_range(0u32..4)),
        SensorId(0),
        EventTypeId(1),
        seq,
        UtcMicros::from_micros(ts),
        fields,
    )
    .unwrap()
}

fn assert_same_state(cre: &CreMatcher, reference: &Reference, ctx: &str) {
    assert_eq!(cre.stats(), reference.stats, "stats: {ctx}");
    assert_eq!(cre.held_count(), reference.held_count(), "held: {ctx}");
    let reasons = reference.reasons.len();
    assert_eq!(cre.reason_count(), reasons, "reasons: {ctx}");
    let next = reference.next_expiry();
    assert_eq!(cre.next_expiry(), next, "next expiry: {ctx}");
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let order = if rng.gen_bool(0.5) {
        OrderMode::Causal
    } else {
        OrderMode::Physical
    };
    // 1 µs to 2 s, spread evenly over the decades.
    let timeout_us = (10f64.powf(rng.gen_range(0.0..6.31)) as u64).clamp(1, 2_000_000);
    let hold_timeout = Duration::from_micros(timeout_us);
    let timeout_us = timeout_us as i64;
    let mut cre = CreMatcher::new(CreConfig { hold_timeout }).unwrap();
    cre.set_order_mode(order);
    let mut reference = Reference::new(hold_timeout, order);

    let ids = rng.gen_range(1u64..=24);
    let mut now = 10_000_000i64;
    let ctx = |step: usize| format!("seed {seed}, step {step}, {order:?}, timeout {timeout_us} µs");
    for (step, seq) in (0..300).zip(0u64..) {
        match rng.gen_range(0u32..20) {
            0..=2 => {}
            3 => now = (now - rng.gen_range(0..=timeout_us)).max(0),
            _ => now += rng.gen_range(0..=timeout_us / 3 + 1),
        }
        let at = UtcMicros::from_micros(now);
        let id = CorrelationId(rng.gen_range(0..ids));
        let other = CorrelationId(rng.gen_range(0..ids));
        let marks = match rng.gen_range(0u32..20) {
            0..=4 => Some(vec![Value::Reason(id)]),
            5..=10 => Some(vec![Value::Conseq(id)]),
            11 => Some(vec![Value::Conseq(id), Value::Reason(other)]),
            12 => Some(vec![Value::Reason(other), Value::Conseq(id)]),
            13..=14 => Some(vec![]),
            _ => None,
        };
        match marks {
            Some(marks) => {
                let rec = record(&mut rng, seq, &marks);
                let out = cre.process(rec.clone(), at);
                let want = reference.process(rec, at);
                assert_eq!(&out.pass[..], &want.0[..], "pass: {}", ctx(step));
                assert_eq!(out.request_extra_sync, want.1, "sync: {}", ctx(step));
                assert_eq!(out.input_repaired, want.2, "repaired: {}", ctx(step));
            }
            None => {
                let want = reference.expire(at);
                assert_eq!(cre.expire(at), want, "expire: {}", ctx(step));
            }
        }
        assert_same_state(&cre, &reference, &ctx(step));
    }
    // Shutdown: everything still held comes out.
    let want = reference.expire(UtcMicros::MAX);
    assert_eq!(cre.expire(UtcMicros::MAX), want, "drain: {}", ctx(300));
    assert_same_state(&cre, &reference, &ctx(300));
    assert_eq!((cre.held_count(), cre.reason_count()), (0, 0));
}

#[test]
fn indexed_matcher_matches_a_scanning_reference() {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .map_or(300, |n: u64| n.max(300));
    for seed in 0..cases {
        run_case(seed);
    }
}
