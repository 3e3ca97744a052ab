//! Causally-related event (CRE) handling (§3.2, §3.6).
//!
//! Users mark causally-related events with `X_REASON` / `X_CONSEQ` fields
//! carrying the same identifier: "determining which consequence events must
//! follow respective reason events". If clock synchronization fails to
//! prevent *tachyons* — "a consequence event that appears to happen before
//! its reason event" — the ISM post-processes them:
//!
//! * reasons are remembered in a hash table keyed by correlation id;
//! * a consequence whose reason is known and whose timestamp is not after
//!   the reason's gets its timestamp **overridden** to just after the
//!   reason ("the time-stamps must reflect the causality") and an **extra
//!   synchronization round** is requested;
//! * a consequence arriving before its reason is **held** until the reason
//!   shows up ("it is kept in memory until the corresponding reason event
//!   record is processed");
//! * "a causally-marked event of either type is kept in memory no longer
//!   than a specified timeout, because its peer may have been dropped."
//!
//! The hold memory is indexed by deadline: a min-heap of reasons by the
//! time they were last seen and one of held consequences by the time they
//! were held. Remembering a reason or holding a consequence costs
//! O(log n); [`CreMatcher::expire`] pops only what is due, so a tick costs
//! O(expired) however much is held; and the held heap's head is always a
//! live hold, so [`CreMatcher::next_expiry`] is the exact earliest hold
//! deadline, read in O(1). Entries a reason overwrote or released stay in
//! the heaps as stale until they reach the head; both heaps grow to the
//! entries made within one hold timeout and are then reused.

use brisk_core::{
    CorrelationId, CreConfig, EventRecord, HlcStamp, OrderMode, RecordMarks, Result, TraceStage,
    UtcMicros,
};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// A repaired consequence is placed this many µs after its reason.
const TACHYON_BUMP_US: i64 = 1;
/// At most this many extra sync requests fire back-to-back: one round fixes
/// a skewed clock, so a tachyon storm must not become a sync-round storm.
const EXTRA_SYNC_BURST: u32 = 4;
/// One extra sync token is restored per this much ISM time (µs).
const EXTRA_SYNC_REFILL_US: i64 = 1_000_000;

/// Counters describing CRE behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CreStats {
    /// Records that passed through unmarked.
    pub unmarked: u64,
    /// Reason records processed.
    pub reasons: u64,
    /// Consequence records processed.
    pub conseqs: u64,
    /// Tachyons repaired by timestamp override.
    pub tachyons_repaired: u64,
    /// Consequences held waiting for their reason.
    pub held: u64,
    /// Held consequences released because the timeout expired.
    pub expired: u64,
    /// Extra synchronization rounds requested.
    pub extra_syncs_requested: u64,
    /// Extra sync requests suppressed by the token-bucket rate limit
    /// (the tachyon was still repaired; only the sync round was skipped).
    pub extra_syncs_suppressed: u64,
}

/// The records one [`CreMatcher::process`] call lets through, in order: a
/// slice of [`EventRecord`]s. Nearly every call passes exactly its input
/// (or holds it), so a lone record lives inline and only a release cascade
/// touches the heap.
#[derive(Debug, Default, PartialEq)]
pub struct Passed {
    /// The only record, while there is exactly one; else `None`.
    one: Option<EventRecord>,
    many: Vec<EventRecord>,
}

impl Passed {
    /// Append a record.
    pub fn push(&mut self, rec: EventRecord) {
        if self.is_empty() {
            self.one = Some(rec);
        } else {
            self.many.extend(self.one.take());
            self.many.push(rec);
        }
    }
}

impl std::ops::Deref for Passed {
    type Target = [EventRecord];
    fn deref(&self) -> &[EventRecord] {
        match &self.one {
            Some(_) => self.one.as_slice(),
            None => &self.many,
        }
    }
}

impl IntoIterator for Passed {
    type Item = EventRecord;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<EventRecord>, std::vec::IntoIter<EventRecord>>;
    fn into_iter(self) -> Self::IntoIter {
        self.one.into_iter().chain(self.many)
    }
}

/// What the matcher did with one input record.
#[derive(Debug, PartialEq)]
pub struct CreOutput {
    /// Records ready to continue down the pipeline (the input and possibly
    /// previously-held consequences it unblocked), in the order they should
    /// be pushed to the sorter.
    pub pass: Passed,
    /// True if a tachyon was repaired and an extra sync round should run
    /// (§3.6; rate-limited by a token bucket).
    pub request_extra_sync: bool,
    /// True if the input record was a tachyon and its stamps were
    /// rewritten: a merge stamp read before `process` no longer holds.
    pub input_repaired: bool,
}

struct ReasonEntry {
    ts: UtcMicros,
    hlc: Option<HlcStamp>,
    seen_at: UtcMicros,
}

struct HeldConseq {
    rec: EventRecord,
    /// Unique and rising per matcher: a waiters list is sorted by it, and
    /// it names this hold in the held index, which keeps its hold time.
    ticket: u64,
}

/// The CRE hash-table matcher.
///
/// ```
/// use brisk_core::{CorrelationId, CreConfig, EventRecord, EventTypeId,
///                  NodeId, SensorId, UtcMicros, Value};
/// use brisk_ism::CreMatcher;
///
/// let mut cre = CreMatcher::new(CreConfig::default()).unwrap();
/// let reason = EventRecord::new(
///     NodeId(0), SensorId(0), EventTypeId(1), 0, UtcMicros::from_micros(100),
///     vec![Value::Reason(CorrelationId(7))],
/// ).unwrap();
/// // The "effect" carries an EARLIER timestamp — a tachyon.
/// let conseq = EventRecord::new(
///     NodeId(1), SensorId(0), EventTypeId(2), 0, UtcMicros::from_micros(90),
///     vec![Value::Conseq(CorrelationId(7))],
/// ).unwrap();
///
/// cre.process(reason, UtcMicros::ZERO);
/// let out = cre.process(conseq, UtcMicros::ZERO);
/// // Repaired: the consequence now sits just after its reason, and an
/// // extra clock-sync round is requested.
/// assert!(out.pass[0].ts.as_micros() > 100);
/// assert!(out.request_extra_sync);
/// ```
pub struct CreMatcher {
    cfg: CreConfig,
    order: OrderMode,
    reasons: HashMap<CorrelationId, ReasonEntry>,
    /// `(seen_at, id)`, pushed whenever a reason's `seen_at` is set,
    /// earliest first. An entry whose `seen_at` is no longer its reason's
    /// (the reason was seen again, refreshed or expired) is stale and is
    /// dropped when due.
    reason_due: BinaryHeap<Reverse<(UtcMicros, CorrelationId)>>,
    waiting: HashMap<CorrelationId, Vec<HeldConseq>>,
    /// `(held_at, ticket, id)` for every held consequence, earliest first.
    /// An entry whose hold its reason released is stale; every public call
    /// leaves a live head, which `next_expiry` reads.
    held_due: BinaryHeap<Reverse<(UtcMicros, u64, CorrelationId)>>,
    /// Consequences in `waiting`.
    held: usize,
    next_ticket: u64,
    stats: CreStats,
    /// Extra-sync token bucket: available tokens and last refill time.
    sync_tokens: u32,
    sync_last_refill: Option<UtcMicros>,
}

impl CreMatcher {
    /// New matcher with the given knobs.
    pub fn new(cfg: CreConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(CreMatcher {
            sync_tokens: EXTRA_SYNC_BURST,
            cfg,
            order: OrderMode::default(),
            reasons: HashMap::new(),
            reason_due: BinaryHeap::new(),
            waiting: HashMap::new(),
            held_due: BinaryHeap::new(),
            held: 0,
            next_ticket: 0,
            stats: CreStats::default(),
            sync_last_refill: None,
        })
    }

    /// Select the ordering discipline: in [`OrderMode::Causal`] the
    /// tachyon test compares `X_HLC` stamps (provable happened-before)
    /// when both sides carry one, falling back to the timestamp heuristic
    /// otherwise.
    pub fn set_order_mode(&mut self, order: OrderMode) {
        self.order = order;
    }

    /// Counters so far.
    pub fn stats(&self) -> CreStats {
        self.stats
    }

    /// Consequences currently held.
    pub fn held_count(&self) -> usize {
        self.held
    }

    /// Remembered reasons.
    pub fn reason_count(&self) -> usize {
        self.reasons.len()
    }

    /// Process one record. `now` is the ISM's current time (used for the
    /// hold timeout).
    pub fn process(&mut self, rec: EventRecord, now: UtcMicros) -> CreOutput {
        let marks = rec.marks();
        self.process_marked(rec, marks, now)
    }

    /// [`Self::process`] given `rec.marks()`, which the caller has
    /// already read.
    pub(crate) fn process_marked(
        &mut self,
        mut rec: EventRecord,
        marks: RecordMarks,
        now: UtcMicros,
    ) -> CreOutput {
        let mut out = CreOutput {
            pass: Passed::default(),
            request_extra_sync: false,
            input_repaired: false,
        };
        // A record can be a reason, a consequence, or (rarely) both — e.g.
        // a relay hop that is caused by one event and causes another.
        let (reason_id, conseq_id) = (marks.reason, marks.conseq);

        if let Some(id) = conseq_id {
            self.stats.conseqs += 1;
            match self.reasons.get(&id) {
                Some(entry) => {
                    if Self::is_tachyon(self.order, &rec, entry) {
                        let (ts, hlc) = (entry.ts, entry.hlc);
                        self.repair(&mut rec, ts, hlc, now, &mut out);
                        out.input_repaired = true;
                    }
                }
                None => {
                    // Reason not seen yet: hold. A relay hop (conseq of one
                    // id, reason for another) still registers the reason id
                    // it carries, so consequences of the hop don't stall
                    // until the hold timeout; waiters already held for that
                    // id release when the hop itself does.
                    if let Some(rid) = reason_id {
                        self.stats.reasons += 1;
                        self.remember(rid, rec.ts, rec.hlc(), now);
                    }
                    self.stats.held += 1;
                    rec.stamp_trace(TraceStage::CreHold, now);
                    self.hold(id, rec, now);
                    return out;
                }
            }
        }

        if let Some(id) = reason_id {
            self.stats.reasons += 1;
            let reason_ts = rec.ts;
            let reason_hlc = rec.hlc();
            self.remember(id, reason_ts, reason_hlc, now);
            // Release any consequences that were waiting for this reason.
            if let Some(held) = self.take_waiters(id) {
                // The reason itself goes first so consumers see causality.
                out.pass.push(rec);
                self.release_cascade(reason_ts, reason_hlc, held, now, &mut out);
                self.drop_stale_head();
                return out;
            }
        } else if conseq_id.is_none() {
            self.stats.unmarked += 1;
        }

        out.pass.push(rec);
        out
    }

    /// Remember (or overwrite) the reason `id`, seen at `now`.
    fn remember(
        &mut self,
        id: CorrelationId,
        ts: UtcMicros,
        hlc: Option<HlcStamp>,
        now: UtcMicros,
    ) {
        let entry = ReasonEntry {
            ts,
            hlc,
            seen_at: now,
        };
        self.reasons.insert(id, entry);
        self.reason_due.push(Reverse((now, id)));
    }

    /// Hold `rec`, a consequence of `id` whose reason is not known yet.
    fn hold(&mut self, id: CorrelationId, rec: EventRecord, now: UtcMicros) {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        // Nearly every id holds one consequence: size its list for that
        // (a first push into an empty `Vec` reserves room for four).
        self.waiting
            .entry(id)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(HeldConseq { rec, ticket });
        self.held_due.push(Reverse((now, ticket, id)));
        self.held += 1;
    }

    /// Take every consequence held for `id`. Their index entries go stale;
    /// the caller calls [`Self::drop_stale_head`] once it is done.
    fn take_waiters(&mut self, id: CorrelationId) -> Option<Vec<HeldConseq>> {
        let held = self.waiting.remove(&id)?;
        self.held -= held.len();
        Some(held)
    }

    /// Is hold `ticket` of `id` still waiting?
    fn is_held(&self, ticket: u64, id: CorrelationId) -> bool {
        self.waiting
            .get(&id)
            .is_some_and(|w| w.binary_search_by_key(&ticket, |h| h.ticket).is_ok())
    }

    /// Pop stale entries off the held index until its head is a live hold.
    fn drop_stale_head(&mut self) {
        while let Some(&Reverse((_, ticket, id))) = self.held_due.peek() {
            if self.is_held(ticket, id) {
                break;
            }
            self.held_due.pop();
        }
    }

    /// Remove hold `ticket` of `id`, if it is still waiting.
    fn unhold(&mut self, ticket: u64, id: CorrelationId) -> Option<EventRecord> {
        let Entry::Occupied(mut waiters) = self.waiting.entry(id) else {
            return None;
        };
        let at = waiters
            .get()
            .binary_search_by_key(&ticket, |h| h.ticket)
            .ok()?;
        let h = waiters.get_mut().remove(at);
        if waiters.get().is_empty() {
            waiters.remove();
        }
        self.held -= 1;
        Some(h.rec)
    }

    /// The causality test: did this consequence provably NOT happen after
    /// its reason? In causal mode an `X_HLC` comparison decides when both
    /// sides carry a stamp — provable happened-before, immune to clock
    /// skew; otherwise (and always in physical mode) the timestamp
    /// heuristic of §3.6 applies.
    fn is_tachyon(order: OrderMode, conseq: &EventRecord, reason: &ReasonEntry) -> bool {
        match (order, conseq.hlc(), reason.hlc) {
            (OrderMode::Causal, Some(c), Some(r)) => c <= r,
            _ => conseq.ts <= reason.ts,
        }
    }

    /// Repair one tachyonic consequence against its reason's stamps:
    /// raise its `X_HLC` strictly above the reason's (causal mode) and
    /// reconcile its physical timestamp toward the HLC bound — the
    /// repaired record must sort after its reason under BOTH disciplines,
    /// so causal repairs survive a physically-ordered downstream tier.
    fn repair(
        &mut self,
        rec: &mut EventRecord,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        now: UtcMicros,
        out: &mut CreOutput,
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
            out.request_extra_sync = true;
        } else {
            self.stats.extra_syncs_suppressed += 1;
        }
    }

    /// Token-bucket gate for extra sync rounds: `EXTRA_SYNC_BURST` tokens,
    /// one restored per `EXTRA_SYNC_REFILL_US` of ISM time.
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

    /// Release `held` (the waiters of a reason stamped `reason_ts`),
    /// repairing tachyons, and transitively release the waiters of any
    /// released record that is itself a reason (a relay hop). The hop's
    /// reason entry is refreshed with its final — possibly bumped —
    /// stamps so its consequences land causally after it.
    fn release_cascade(
        &mut self,
        reason_ts: UtcMicros,
        reason_hlc: Option<HlcStamp>,
        held: Vec<HeldConseq>,
        now: UtcMicros,
        out: &mut CreOutput,
    ) {
        let mut work = std::collections::VecDeque::new();
        work.push_back((reason_ts, reason_hlc, held));
        while let Some((reason_ts, reason_hlc, held)) = work.pop_front() {
            let entry = ReasonEntry {
                ts: reason_ts,
                hlc: reason_hlc,
                seen_at: now,
            };
            for mut h in held {
                if Self::is_tachyon(self.order, &h.rec, &entry) {
                    self.repair(&mut h.rec, reason_ts, reason_hlc, now, out);
                }
                // `stats.reasons` already counted when the hop registered
                // its id at hold time — only the entry is refreshed here.
                if let Some(rid) = h.rec.reason_id() {
                    if let Some(entry) = self.reasons.get_mut(&rid) {
                        entry.ts = h.rec.ts;
                        entry.hlc = h.rec.hlc();
                        entry.seen_at = now;
                        self.reason_due.push(Reverse((now, rid)));
                    }
                    if let Some(waiters) = self.take_waiters(rid) {
                        work.push_back((h.rec.ts, h.rec.hlc(), waiters));
                    }
                }
                out.pass.push(h.rec);
            }
        }
    }

    /// When the oldest held consequence's hold timeout expires.
    pub fn next_expiry(&self) -> Option<UtcMicros> {
        let timeout_us = self.cfg.hold_timeout.as_micros() as i64;
        let Reverse((oldest, ..)) = self.held_due.peek()?;
        Some(oldest.offset(timeout_us))
    }

    /// Expire held consequences and stale reasons per the hold timeout.
    /// Returns timed-out consequences (released unmodified — "its peer may
    /// have been dropped").
    pub fn expire(&mut self, now: UtcMicros) -> Vec<EventRecord> {
        let timeout_us = self.cfg.hold_timeout.as_micros() as i64;
        let mut released = Vec::new();
        while let Some(&Reverse((held_at, ticket, id))) = self.held_due.peek() {
            if now.micros_since(held_at) < timeout_us {
                break;
            }
            self.held_due.pop();
            released.extend(self.unhold(ticket, id));
        }
        self.drop_stale_head();
        self.stats.expired += released.len() as u64;
        while let Some(&Reverse((seen_at, id))) = self.reason_due.peek() {
            if now.micros_since(seen_at) < timeout_us {
                break;
            }
            self.reason_due.pop();
            if self.reasons.get(&id).is_some_and(|e| e.seen_at == seen_at) {
                self.reasons.remove(&id);
            }
        }
        // Held consequences are released in arrival order best-effort; sort
        // by origin sequence for determinism.
        released.sort_by_key(|r| r.sort_key());
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use std::time::Duration;

    fn reason(id: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(0),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::Reason(CorrelationId(id))],
        )
        .unwrap()
    }

    fn conseq(id: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(2),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::Conseq(CorrelationId(id))],
        )
        .unwrap()
    }

    fn plain(ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(2),
            SensorId(0),
            EventTypeId(3),
            0,
            UtcMicros::from_micros(ts),
            vec![Value::I32(1)],
        )
        .unwrap()
    }

    fn matcher() -> CreMatcher {
        CreMatcher::new(CreConfig {
            hold_timeout: Duration::from_millis(100),
        })
        .unwrap()
    }

    #[test]
    fn unmarked_records_pass_through() {
        let mut m = matcher();
        let out = m.process(plain(10), UtcMicros::ZERO);
        assert_eq!(out.pass.len(), 1);
        assert!(!out.request_extra_sync);
        assert_eq!(m.stats().unmarked, 1);
    }

    #[test]
    fn ordered_pair_passes_untouched() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        let out = m.process(reason(7, 100), now);
        assert_eq!(out.pass.len(), 1);
        let out = m.process(conseq(7, 150), now);
        assert_eq!(out.pass[0].ts.as_micros(), 150);
        assert!(!out.request_extra_sync);
        assert_eq!(m.stats().tachyons_repaired, 0);
    }

    #[test]
    fn tachyon_after_reason_is_bumped() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.process(reason(7, 100), now);
        let out = m.process(conseq(7, 90), now);
        assert_eq!(out.pass[0].ts.as_micros(), 101, "reason ts + bump");
        assert!(out.request_extra_sync);
        assert_eq!(m.stats().tachyons_repaired, 1);
        assert_eq!(m.stats().extra_syncs_requested, 1);
    }

    #[test]
    fn equal_timestamps_also_count_as_tachyon() {
        let mut m = matcher();
        m.process(reason(7, 100), UtcMicros::ZERO);
        let out = m.process(conseq(7, 100), UtcMicros::ZERO);
        assert_eq!(out.pass[0].ts.as_micros(), 101);
    }

    #[test]
    fn conseq_before_reason_is_held_then_released() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        let out = m.process(conseq(9, 50), now);
        assert!(out.pass.is_empty());
        assert_eq!(m.held_count(), 1);
        // Reason arrives with a LATER ts: held conseq was a tachyon.
        let out = m.process(reason(9, 80), now);
        assert_eq!(out.pass.len(), 2);
        assert_eq!(out.pass[0].ts.as_micros(), 80, "reason first");
        assert_eq!(out.pass[1].ts.as_micros(), 81, "conseq bumped past reason");
        assert!(out.request_extra_sync);
        assert_eq!(m.held_count(), 0);
    }

    #[test]
    fn held_conseq_with_good_ts_released_unmodified() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.process(conseq(9, 500), now);
        let out = m.process(reason(9, 80), now);
        assert_eq!(out.pass.len(), 2);
        assert_eq!(out.pass[1].ts.as_micros(), 500);
        assert!(!out.request_extra_sync);
    }

    #[test]
    fn multiple_held_conseqs_released_together() {
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.process(conseq(9, 50), now);
        m.process(conseq(9, 60), now);
        let out = m.process(reason(9, 100), now);
        assert_eq!(out.pass.len(), 3);
        assert_eq!(m.stats().tachyons_repaired, 2);
    }

    #[test]
    fn hold_timeout_releases_unmatched_conseq() {
        let mut m = matcher();
        let t0 = UtcMicros::ZERO;
        m.process(conseq(11, 50), t0);
        assert!(m.expire(t0 + Duration::from_millis(50)).is_empty());
        let released = m.expire(t0 + Duration::from_millis(100));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].ts.as_micros(), 50, "released unmodified");
        assert_eq!(m.stats().expired, 1);
        assert_eq!(m.held_count(), 0);
    }

    #[test]
    fn reasons_expire_too() {
        let mut m = matcher();
        let t0 = UtcMicros::ZERO;
        m.process(reason(12, 100), t0);
        assert_eq!(m.reason_count(), 1);
        m.expire(t0 + Duration::from_millis(100));
        assert_eq!(m.reason_count(), 0);
        // A conseq arriving after its reason expired is held (peer gone).
        let out = m.process(conseq(12, 90), t0 + Duration::from_millis(100));
        assert!(out.pass.is_empty());
        assert_eq!(m.held_count(), 1);
    }

    fn with_hlc(mut rec: EventRecord, phys: i64, logical: u32) -> EventRecord {
        rec.set_hlc(HlcStamp::new(UtcMicros::from_micros(phys), logical));
        rec
    }

    fn causal_matcher() -> CreMatcher {
        let mut m = matcher();
        m.set_order_mode(OrderMode::Causal);
        m
    }

    #[test]
    fn causal_mode_detects_tachyon_by_hlc_despite_plausible_ts() {
        // The conseq's physical ts LOOKS fine (150 > 100) because its
        // node's clock is fast — but its HLC proves it cannot have
        // happened after the reason. Physical mode would pass it
        // untouched; causal mode repairs it.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.process(with_hlc(reason(7, 100), 100, 4), now);
        let out = m.process(with_hlc(conseq(7, 150), 100, 2), now);
        assert_eq!(m.stats().tachyons_repaired, 1);
        let repaired = &out.pass[0];
        let h = repaired.hlc().unwrap();
        assert!(
            h > HlcStamp::new(UtcMicros::from_micros(100), 4),
            "repaired stamp must dominate the reason's"
        );
        assert_eq!(h, HlcStamp::new(UtcMicros::from_micros(100), 5));
        assert_eq!(repaired.ts.as_micros(), 150, "plausible ts left alone");
    }

    #[test]
    fn causal_mode_accepts_hlc_ordered_pair_with_skewed_ts() {
        // The conseq's ts is EARLIER (its node's clock is 2 s slow) but
        // its HLC dominates the reason's: provably ordered, no repair.
        // The physical heuristic would have flagged this as a tachyon.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.process(with_hlc(reason(7, 2_000_100), 2_000_100, 0), now);
        let out = m.process(with_hlc(conseq(7, 200), 2_000_100, 3), now);
        assert_eq!(m.stats().tachyons_repaired, 0, "provably ordered");
        assert_eq!(out.pass[0].ts.as_micros(), 200, "not touched");
        assert!(!out.request_extra_sync);
    }

    #[test]
    fn causal_repair_reconciles_ts_toward_hlc_bound() {
        // Reason stamped at HLC physical 2_000_000 (its clock is right);
        // the conseq comes from a node 2 s behind: ts 90, HLC (90, 0).
        // The repair must raise BOTH the stamp and the physical ts past
        // the reason's, so the pair survives a physically-ordered tier.
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.process(with_hlc(reason(9, 2_000_000), 2_000_000, 0), now);
        let out = m.process(with_hlc(conseq(9, 90), 90, 0), now);
        assert_eq!(m.stats().tachyons_repaired, 1);
        let repaired = &out.pass[0];
        assert_eq!(
            repaired.hlc().unwrap(),
            HlcStamp::new(UtcMicros::from_micros(2_000_000), 1)
        );
        assert_eq!(
            repaired.ts.as_micros(),
            2_000_001,
            "ts reconciled to the HLC bound + bump"
        );
    }

    #[test]
    fn causal_mode_falls_back_to_ts_without_stamps() {
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        m.process(reason(7, 100), now);
        let out = m.process(conseq(7, 90), now);
        assert_eq!(out.pass[0].ts.as_micros(), 101, "ts heuristic still works");
        assert_eq!(m.stats().tachyons_repaired, 1);
    }

    #[test]
    fn causal_held_conseq_repaired_by_hlc_on_release() {
        let mut m = causal_matcher();
        let now = UtcMicros::ZERO;
        // Conseq first (held), stamped causally before the reason.
        assert!(m
            .process(with_hlc(conseq(9, 500), 100, 1), now)
            .pass
            .is_empty());
        let out = m.process(with_hlc(reason(9, 80), 100, 7), now);
        assert_eq!(out.pass.len(), 2);
        let h = out.pass[1].hlc().unwrap();
        assert_eq!(h, HlcStamp::new(UtcMicros::from_micros(100), 8));
        assert_eq!(m.stats().tachyons_repaired, 1);
    }

    #[test]
    fn extra_sync_requests_are_rate_limited() {
        // A tachyon storm (one skewed node mis-stamping many pairs) must
        // not turn into a sync-round storm: the token bucket allows a
        // burst, suppresses the rest, and refills with time.
        let mut m = matcher();
        let burst = u64::from(EXTRA_SYNC_BURST);
        let t0 = UtcMicros::ZERO;
        for id in 0..=burst + 1 {
            m.process(reason(id, 100), t0);
        }
        for id in 0..burst {
            assert!(m.process(conseq(id, 50), t0).request_extra_sync);
        }
        // Burst exhausted: tachyons are still repaired, syncs suppressed.
        let out = m.process(conseq(burst, 50), t0);
        assert!(
            !out.request_extra_sync,
            "request past the burst must be suppressed"
        );
        assert_eq!(out.pass[0].ts.as_micros(), 101, "repair still happens");
        assert_eq!(m.stats().extra_syncs_requested, burst);
        assert_eq!(m.stats().extra_syncs_suppressed, 1);
        // One refill period later a token is back.
        let t1 = t0.offset(EXTRA_SYNC_REFILL_US);
        assert!(m.process(conseq(burst + 1, 50), t1).request_extra_sync);
        assert_eq!(m.stats().extra_syncs_requested, burst + 1);
        assert_eq!(m.stats().extra_syncs_suppressed, 1);
    }

    #[test]
    fn record_that_is_both_reason_and_conseq() {
        // A relay hop: conseq of id 1, reason for id 2.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        m.process(reason(1, 100), now);
        let hop = EventRecord::new(
            NodeId(3),
            SensorId(0),
            EventTypeId(4),
            0,
            UtcMicros::from_micros(90),
            vec![
                Value::Conseq(CorrelationId(1)),
                Value::Reason(CorrelationId(2)),
            ],
        )
        .unwrap();
        let out = m.process(hop, now);
        // Tachyon vs reason 1 repaired; registered as reason 2 with the
        // corrected timestamp.
        assert_eq!(out.pass[0].ts.as_micros(), 101);
        let out = m.process(conseq(2, 95), now);
        assert_eq!(out.pass[0].ts.as_micros(), 102, "chained repair");
    }

    fn relay_hop(conseq_of: u64, reason_for: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(3),
            SensorId(0),
            EventTypeId(4),
            0,
            UtcMicros::from_micros(ts),
            vec![
                Value::Conseq(CorrelationId(conseq_of)),
                Value::Reason(CorrelationId(reason_for)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn held_relay_hop_registers_its_reason_id() {
        // A relay hop held for its own reason must still register the
        // reason id it carries, so consequences of the hop don't stall
        // until the hold timeout.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        assert!(
            m.process(relay_hop(1, 2, 90), now).pass.is_empty(),
            "hop held: reason 1 unseen"
        );
        let out = m.process(conseq(2, 95), now);
        assert_eq!(out.pass.len(), 1, "conseq of the held hop must not stall");
        assert_eq!(out.pass[0].ts.as_micros(), 95, "95 > 90: no repair needed");
    }

    #[test]
    fn relay_chain_released_in_causal_order_without_timeouts() {
        // Worst-case arrival order for the chain 1 → hop → 2:
        // conseq(2) first, then the hop (conseq of 1, reason for 2),
        // then reason(1). Everything must come out on the reason's
        // arrival, causally stamped, with zero timeout expiries.
        let mut m = matcher();
        let now = UtcMicros::ZERO;
        assert!(m.process(conseq(2, 80), now).pass.is_empty());
        assert!(m.process(relay_hop(1, 2, 90), now).pass.is_empty());
        let out = m.process(reason(1, 100), now);
        let ts: Vec<i64> = out.pass.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![100, 101, 102], "reason → hop → conseq, causal");
        assert_eq!(m.held_count(), 0);
        assert_eq!(m.stats().expired, 0, "no timeout-expiry releases");
    }

    #[test]
    fn a_tick_costs_what_is_due_not_what_is_held() {
        // 200 000 live reasons and 20 000 held consequences, none due: a
        // tick that scanned them would visit 2·10⁹ entries in this loop.
        let mut m = CreMatcher::new(CreConfig::default()).unwrap();
        let t0 = UtcMicros::from_micros(1_000_000);
        for id in 0..200_000 {
            m.process(reason(id, 100), t0);
        }
        for id in 200_000..220_000 {
            m.process(conseq(id, 100), t0);
        }
        let deadline = t0 + CreConfig::default().hold_timeout;
        let now = deadline.offset(-1);
        let start = std::time::Instant::now();
        for _ in 0..10_000 {
            assert!(m.expire(now).is_empty());
            assert_eq!(m.next_expiry(), Some(deadline));
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "10 000 ticks took {took:?}"
        );
        assert_eq!((m.reason_count(), m.held_count()), (200_000, 20_000));
    }

    #[test]
    fn different_ids_do_not_interact() {
        let mut m = matcher();
        m.process(reason(1, 100), UtcMicros::ZERO);
        let out = m.process(conseq(2, 50), UtcMicros::ZERO);
        assert!(out.pass.is_empty(), "conseq 2 must wait for reason 2");
        assert_eq!(m.stats().tachyons_repaired, 0);
    }
}
