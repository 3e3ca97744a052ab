//! Query engine: predicate scans with zone-map pruning, windowed
//! aggregations, and causal-chain walks.
//!
//! A query is a [`Predicate`] — time range × node set × sensor set. The
//! engine answers it in O(segments *touched*): every sealed segment whose
//! sidecar zone map (or timestamp range) proves it cannot contain a
//! matching record is pruned without reading its `.seg` file; only the
//! rest are decode-scanned. Pruning decisions are counted in
//! `brisk_store_segments_pruned_total`, the scans in
//! `brisk_store_segments_scanned_total`.
//!
//! Pruning rules, applied per segment in order (any hit prunes):
//!
//! 1. sidecar `max_ts < from` — wholly before the range;
//! 2. sidecar `min_ts > to` — wholly after the range;
//! 3. zone node set ∩ predicate node set = ∅;
//! 4. every predicate sensor id is definitely absent from the zone's
//!    sensor bloom filter.
//!
//! A segment without a usable sidecar (missing, damaged, or of an older
//! v1 or v2 layout) is scanned, never pruned.

use crate::cache::CachedQuery;
use crate::reader::{scan_segment, StoreReader};
use crate::segment::segment_path;
use brisk_core::{CorrelationId, EventRecord, Result, UtcMicros, Value};
use brisk_telemetry::Histogram;
use std::collections::BTreeSet;
use std::fs;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A time-range × node × sensor filter. `None` dimensions match
/// everything; both timestamp bounds are inclusive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Match records with `ts >= from`.
    pub from: Option<UtcMicros>,
    /// Match records with `ts <= to`.
    pub to: Option<UtcMicros>,
    /// Match records from these node ids.
    pub nodes: Option<BTreeSet<u32>>,
    /// Match records from these sensor ids.
    pub sensors: Option<BTreeSet<u32>>,
}

impl Predicate {
    /// Match everything.
    pub fn all() -> Predicate {
        Predicate::default()
    }

    /// Restrict to `ts >= from`.
    pub fn since(mut self, from: UtcMicros) -> Predicate {
        self.from = Some(from);
        self
    }

    /// Restrict to `ts <= to`.
    pub fn until(mut self, to: UtcMicros) -> Predicate {
        self.to = Some(to);
        self
    }

    /// Restrict to one more node id.
    pub fn node(mut self, id: u32) -> Predicate {
        self.nodes.get_or_insert_with(BTreeSet::new).insert(id);
        self
    }

    /// Restrict to one more sensor id.
    pub fn sensor(mut self, id: u32) -> Predicate {
        self.sensors.get_or_insert_with(BTreeSet::new).insert(id);
        self
    }

    /// Does `rec` satisfy every dimension?
    pub fn matches(&self, rec: &EventRecord) -> bool {
        if let Some(from) = self.from {
            if rec.ts < from {
                return false;
            }
        }
        if let Some(to) = self.to {
            if rec.ts > to {
                return false;
            }
        }
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&rec.node.0) {
                return false;
            }
        }
        if let Some(sensors) = &self.sensors {
            if !sensors.contains(&rec.sensor.0) {
                return false;
            }
        }
        true
    }

    /// Fold this predicate into an FNV-1a fingerprint.
    fn fingerprint_into(&self, h: &mut u64) {
        fnv_i64(h, self.from.map(UtcMicros::as_micros).unwrap_or(i64::MIN));
        fnv_i64(h, self.to.map(UtcMicros::as_micros).unwrap_or(i64::MAX));
        for set in [&self.nodes, &self.sensors] {
            match set {
                None => fnv_u64(h, u64::MAX),
                Some(ids) => {
                    fnv_u64(h, ids.len() as u64);
                    for &id in ids.iter() {
                        fnv_u64(h, id as u64);
                    }
                }
            }
        }
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_i64(h: &mut u64, v: i64) {
    fnv_u64(h, v as u64);
}

/// How a query was answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Segments present when the query started.
    pub segments_total: u32,
    /// Segments skipped without reading their `.seg` file.
    pub segments_pruned: u32,
    /// Segments decode-scanned.
    pub segments_scanned: u32,
    /// Segments that vanished (retention) between listing and reading.
    pub evicted_under_scan: u32,
    /// Records matching the predicate.
    pub records_matched: u64,
    /// True when the result came from the shared cache without scanning.
    pub cache_hit: bool,
}

impl StoreReader {
    /// Answer `pred`, scanning only segments the zone maps cannot rule
    /// out. With a cache attached ([`StoreReader::with_cache`]), an
    /// identical query over an unchanged segment set is answered without
    /// touching segment files at all.
    pub fn query(&self, pred: &Predicate) -> Result<(Arc<CachedQuery>, QueryReport)> {
        // Snapshot the segment set (id + byte length). Lengths make the
        // cache fingerprint change when the active segment grows or a
        // segment is compacted.
        let mut segments = Vec::new();
        for id in self.segment_ids()? {
            match fs::metadata(segment_path(&self.dir, id)) {
                Ok(m) => segments.push((id, m.len())),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let mut fp = 0xCBF2_9CE4_8422_2325u64;
        pred.fingerprint_into(&mut fp);
        for &(id, len) in &segments {
            fnv_u64(&mut fp, id);
            fnv_u64(&mut fp, len);
        }
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(fp) {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                let mut report = hit.report;
                report.cache_hit = true;
                return Ok((hit, report));
            }
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

        let started = Instant::now();
        let mut report = QueryReport {
            segments_total: segments.len() as u32,
            ..QueryReport::default()
        };
        let mut records = Vec::new();
        for &(id, _) in &segments {
            let idx = self.load_index(id);
            if let Some(idx) = &idx {
                if self.pruned_by_index(pred, idx) {
                    report.segments_pruned += 1;
                    self.stats.segments_pruned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let bytes = match fs::read(segment_path(&self.dir, id)) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.evicted_under_scan += 1;
                    self.stats
                        .evicted_under_scan
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            // A touched segment is scanned whole, so the answer equals
            // scan+filter even on stores that were fed unsorted records;
            // segment-level pruning above is sound in any order (min/max
            // are exact).
            let Ok(scan) = scan_segment(&bytes) else {
                continue; // unreadable header: repair is the writer's job
            };
            report.segments_scanned += 1;
            self.stats.segments_scanned.fetch_add(1, Ordering::Relaxed);
            records.extend(scan.records.into_iter().filter(|r| pred.matches(r)));
        }
        report.records_matched = records.len() as u64;
        record_elapsed(&self.stats.scan_micros, started);
        let entry = Arc::new(CachedQuery { records, report });
        if let Some(cache) = &self.cache {
            cache.put(fp, Arc::clone(&entry));
        }
        Ok((entry, report))
    }

    /// Can `idx` prove its segment holds no matching record?
    fn pruned_by_index(&self, pred: &Predicate, idx: &crate::segment::SegmentIndex) -> bool {
        if let Some(from) = pred.from {
            if idx.max_ts < from {
                return true;
            }
        }
        if let Some(to) = pred.to {
            if idx.min_ts > to {
                return true;
            }
        }
        let zone = &idx.zone;
        if let Some(nodes) = &pred.nodes {
            if !nodes.iter().any(|n| zone.nodes.binary_search(n).is_ok()) {
                return true;
            }
        }
        if let Some(sensors) = &pred.sensors {
            if sensors.iter().all(|&s| !zone.sensors.may_contain(s)) {
                return true;
            }
        }
        false
    }
}

fn record_elapsed(h: &Histogram, started: Instant) {
    h.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
}

/// What a windowed aggregation measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggSource {
    /// Inter-arrival gaps between consecutive records, in µs.
    Gaps,
    /// A numeric record field by index (negative values clamp to 0;
    /// floats round).
    Field(usize),
}

/// One aggregation window over a record stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowAgg {
    /// Window start (inclusive, aligned to the window size).
    pub start: UtcMicros,
    /// Records in the window.
    pub count: u64,
    /// Records per second.
    pub rate_hz: f64,
    /// Mean of the measured values.
    pub mean: f64,
    /// Estimated 50th percentile (log2 bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// Numeric view of a field for aggregation.
fn field_value(rec: &EventRecord, i: usize) -> Option<u64> {
    Some(match rec.fields.get(i)? {
        Value::I8(x) => (*x).max(0) as u64,
        Value::U8(x) => *x as u64,
        Value::I16(x) => (*x).max(0) as u64,
        Value::U16(x) => *x as u64,
        Value::I32(x) => (*x).max(0) as u64,
        Value::U32(x) => *x as u64,
        Value::I64(x) => (*x).max(0) as u64,
        Value::U64(x) => *x,
        Value::F32(x) => x.max(0.0).round() as u64,
        Value::F64(x) => x.max(0.0).round() as u64,
        Value::Bool(x) => *x as u64,
        Value::Ts(t) => t.as_micros().max(0) as u64,
        _ => return None,
    })
}

/// Aggregate `records` (assumed in timestamp order, as stores hold the
/// ISM's sorted output) into fixed windows of `window_us` microseconds,
/// using the existing log2-bucket histograms for the percentiles. Windows
/// with no records are omitted.
pub fn windowed_aggregate(
    records: &[EventRecord],
    window_us: i64,
    source: AggSource,
) -> Vec<WindowAgg> {
    let window_us = window_us.max(1);
    let mut out: Vec<WindowAgg> = Vec::new();
    let mut cur: Option<(i64, Histogram, u64)> = None; // (window idx, hist, count)
    let mut prev_ts: Option<i64> = None;
    for rec in records {
        let ts = rec.ts.as_micros();
        let w = ts.div_euclid(window_us);
        match &mut cur {
            Some((cw, hist, count)) if *cw == w => {
                measure(hist, rec, prev_ts, source);
                *count += 1;
            }
            _ => {
                if let Some(done) = cur.take() {
                    out.push(finish_window(done, window_us));
                }
                let hist = Histogram::new();
                measure(&hist, rec, prev_ts, source);
                cur = Some((w, hist, 1));
            }
        }
        prev_ts = Some(ts);
    }
    if let Some(done) = cur.take() {
        out.push(finish_window(done, window_us));
    }
    out
}

fn measure(hist: &Histogram, rec: &EventRecord, prev_ts: Option<i64>, source: AggSource) {
    match source {
        AggSource::Gaps => {
            let gap = prev_ts
                .map(|p| (rec.ts.as_micros() - p).max(0) as u64)
                .unwrap_or(0);
            hist.record(gap);
        }
        AggSource::Field(i) => {
            if let Some(v) = field_value(rec, i) {
                hist.record(v);
            }
        }
    }
}

fn finish_window((w, hist, count): (i64, Histogram, u64), window_us: i64) -> WindowAgg {
    let snap = hist.snapshot();
    WindowAgg {
        start: UtcMicros::from_micros(w * window_us),
        count,
        rate_hz: count as f64 / (window_us as f64 / 1_000_000.0),
        mean: snap.mean(),
        p50: snap.p50(),
        p95: snap.p95(),
        p99: snap.p99(),
    }
}

/// One event on a causal chain.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalEvent {
    /// Hops from the chain's starting correlation id: reason events carry
    /// the depth at which their id was reached, their consequences that
    /// depth + 1.
    pub depth: u32,
    /// The event record.
    pub record: EventRecord,
}

/// Walk the CRE reason/conseq links reachable from `start`: records
/// marked `X_REASON start` are the causes (depth d), records marked
/// `X_CONSEQ start` their effects (depth d+1); an effect that is itself
/// marked as a reason extends the chain. Returns events ordered by depth
/// then stream position, capped at `max_events`.
pub fn causal_chain(
    records: &[EventRecord],
    start: CorrelationId,
    max_events: usize,
) -> Vec<CausalEvent> {
    use std::collections::{HashMap, HashSet, VecDeque};
    let mut by_reason: HashMap<CorrelationId, Vec<usize>> = HashMap::new();
    let mut by_conseq: HashMap<CorrelationId, Vec<usize>> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        if let Some(id) = rec.reason_id() {
            by_reason.entry(id).or_default().push(i);
        }
        if let Some(id) = rec.conseq_id() {
            by_conseq.entry(id).or_default().push(i);
        }
    }
    let mut emitted: HashSet<usize> = HashSet::new();
    let mut visited: HashSet<CorrelationId> = HashSet::new();
    let mut out: Vec<CausalEvent> = Vec::new();
    let mut frontier: VecDeque<(CorrelationId, u32)> = VecDeque::new();
    visited.insert(start);
    frontier.push_back((start, 0));
    while let Some((id, depth)) = frontier.pop_front() {
        if out.len() >= max_events {
            break;
        }
        for &i in by_reason.get(&id).into_iter().flatten() {
            if emitted.insert(i) && out.len() < max_events {
                out.push(CausalEvent {
                    depth,
                    record: records[i].clone(),
                });
            }
        }
        for &i in by_conseq.get(&id).into_iter().flatten() {
            if emitted.insert(i) && out.len() < max_events {
                out.push(CausalEvent {
                    depth: depth + 1,
                    record: records[i].clone(),
                });
            }
            if let Some(next) = records[i].reason_id() {
                if visited.insert(next) {
                    frontier.push_back((next, depth + 1));
                }
            }
        }
    }
    out.sort_by_key(|e| e.depth);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId};

    fn rec(node: u32, sensor: u32, seq: u64, ts: i64, fields: Vec<Value>) -> EventRecord {
        EventRecord {
            node: NodeId(node),
            sensor: SensorId(sensor),
            event_type: EventTypeId(1),
            seq,
            ts: UtcMicros::from_micros(ts),
            fields,
        }
    }

    #[test]
    fn predicate_matches_all_dimensions() {
        let p = Predicate::all()
            .since(UtcMicros::from_micros(10))
            .until(UtcMicros::from_micros(20))
            .node(1)
            .sensor(5);
        assert!(p.matches(&rec(1, 5, 0, 15, vec![])));
        assert!(p.matches(&rec(1, 5, 0, 10, vec![])), "from is inclusive");
        assert!(p.matches(&rec(1, 5, 0, 20, vec![])), "to is inclusive");
        assert!(!p.matches(&rec(1, 5, 0, 9, vec![])));
        assert!(!p.matches(&rec(1, 5, 0, 21, vec![])));
        assert!(!p.matches(&rec(2, 5, 0, 15, vec![])));
        assert!(!p.matches(&rec(1, 6, 0, 15, vec![])));
    }

    #[test]
    fn windows_aggregate_counts_and_rates() {
        // 100 records at 1 ms spacing: 10 windows of 10 ms, 10 records each.
        let recs: Vec<EventRecord> = (0..100)
            .map(|i| rec(1, 1, i, i as i64 * 1_000, vec![Value::U32(7)]))
            .collect();
        let aggs = windowed_aggregate(&recs, 10_000, AggSource::Field(0));
        assert_eq!(aggs.len(), 10);
        for a in &aggs {
            assert_eq!(a.count, 10);
            assert!((a.rate_hz - 1000.0).abs() < 1e-6);
            assert!(a.p50 >= 7, "log2 bucket upper bound at or above the value");
        }
        let gaps = windowed_aggregate(&recs, 10_000, AggSource::Gaps);
        assert_eq!(gaps.len(), 10);
        assert!(gaps[1].p95 >= 1_000);
    }

    #[test]
    fn causal_chain_follows_reason_conseq_links() {
        // 1 --(A)--> 2 --(B)--> 3, plus an unrelated record.
        let recs = vec![
            rec(1, 1, 0, 10, vec![Value::Reason(CorrelationId(0xA))]),
            rec(
                2,
                1,
                1,
                20,
                vec![
                    Value::Conseq(CorrelationId(0xA)),
                    Value::Reason(CorrelationId(0xB)),
                ],
            ),
            rec(3, 1, 2, 30, vec![Value::Conseq(CorrelationId(0xB))]),
            rec(9, 9, 3, 40, vec![]),
        ];
        let chain = causal_chain(&recs, CorrelationId(0xA), 100);
        let got: Vec<(u32, u64)> = chain.iter().map(|e| (e.depth, e.record.seq)).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2)]);
        // Capped walks stop early.
        assert_eq!(causal_chain(&recs, CorrelationId(0xA), 2).len(), 2);
        // Unknown id: empty chain.
        assert!(causal_chain(&recs, CorrelationId(0xF), 10).is_empty());
    }
}
