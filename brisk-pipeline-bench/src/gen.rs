//! Seeded inputs. The same seed gives byte-identical inputs; the program
//! under test only ever sees what is generated here.

use brisk_core::{
    CorrelationId, EventRecord, EventTypeId, HlcStamp, NodeId, SensorId, UtcMicros, Value,
};
use brisk_proto::Message;
use brisk_store::Predicate;

/// SplitMix64: small, seedable, and good enough to shape workloads.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub const EVENT: EventTypeId = EventTypeId(1);

/// The paper's record shape, six `i32` fields. The generator's own data
/// rides in them: `a` (the due time in ns since the bench epoch, or the
/// frame index on `merge_heavy`), the per-node sequence, and a salt
/// drawn from the seed so inputs differ between seeds.
pub fn six_fields(a: u64, seq: u64, salt: u32) -> Vec<Value> {
    vec![
        Value::I32(a as u32 as i32),
        Value::I32((a >> 32) as u32 as i32),
        Value::I32(seq as u32 as i32),
        Value::I32((seq >> 32) as u32 as i32),
        Value::I32(salt as i32),
        Value::I32(6),
    ]
}

/// Read `(a, seq)` back out of a delivered record.
pub fn unpack(rec: &EventRecord) -> Option<(u64, u64)> {
    let word = |i: usize| match rec.fields.get(i) {
        Some(Value::I32(v)) => Some(*v as u32 as u64),
        _ => None,
    };
    Some((word(0)? | word(1)? << 32, word(2)? | word(3)? << 32))
}

// ---- merge_heavy ---------------------------------------------------------

pub const MERGE_NODES: u32 = 64;
pub const MERGE_FRAME_RECORDS: u64 = 128;
/// Sim-time gap between a node's consecutive records.
pub const MERGE_RECORD_GAP_US: i64 = 64;
/// Frames arrive up to this long after their newest record.
pub const MERGE_JITTER_US: i64 = 4_000;
/// Sorter frame pinned above one frame span plus the jitter, so the
/// merged output is totally ordered and the oracle can demand it.
pub const MERGE_FRAME_T_US: i64 = 16_000;
const REASON_PER_1000: u64 = 50;
const TACHYON_PER_1000: u64 = 200;

/// The stamp `node` gives its `seq`-th record: a steady per-node stream,
/// the node offset keeping stamps distinct across nodes.
pub fn merge_record_ts(node: u32, seq: u64) -> i64 {
    1_000_000 + seq as i64 * MERGE_RECORD_GAP_US + node as i64
}

/// One pre-encoded batch frame and when (sim time) it reaches the ISM.
pub struct MergeFrame {
    pub arrive_us: i64,
    pub bytes: Vec<u8>,
}

pub struct MergeInput {
    /// Frames in arrival order.
    pub frames: Vec<MergeFrame>,
    pub records: u64,
    pub per_node: u64,
    pub pairs: u64,
    pub tachyons: u64,
}

#[derive(Clone, Copy)]
enum Mark {
    Reason(u64),
    Conseq(u64),
    /// Unmarked, and must stay so: it directly follows a tachyon.
    Plain,
}

/// `rounds` frames from each of 64 nodes: per-node monotone timestamps
/// and `X_HLC` stamps, 5 % of records a reason whose consequence sits on
/// another node a few records later — or, for a fifth of the pairs,
/// *earlier* (a tachyon the CRE must repair). Frames are shuffled by a
/// bounded arrival jitter, so nodes overtake each other.
pub fn merge_input(seed: u64, rounds: u64) -> MergeInput {
    let mut rng = Rng::new(seed);
    let per_node = rounds * MERGE_FRAME_RECORDS;
    let slot = |node: u32, i: u64| (node as u64 * per_node + i) as usize;
    let mut marks: Vec<Option<Mark>> = vec![None; (MERGE_NODES as u64 * per_node) as usize];
    let (mut pairs, mut tachyons) = (0u64, 0u64);
    for node in 0..MERGE_NODES {
        for i in 2..per_node.saturating_sub(5) {
            if rng.below(1000) >= REASON_PER_1000 || marks[slot(node, i)].is_some() {
                continue;
            }
            let other = (node + 1 + rng.below(MERGE_NODES as u64 - 1) as u32) % MERGE_NODES;
            let tachyon = rng.below(1000) < TACHYON_PER_1000;
            let j = if tachyon {
                i - 1 - rng.below(2)
            } else {
                i + 1 + rng.below(4)
            };
            // A repaired tachyon's stamp is raised past its node's next
            // few records, and the sorter clamps those up behind it — after
            // the CRE has noted their stamps. A reason among them would
            // then sort after its own consequence, so keep them plain.
            let shadow = j + 1..=j + 3;
            if marks[slot(other, j)].is_some()
                || (tachyon && shadow.clone().any(|k| marks[slot(other, k)].is_some()))
            {
                continue;
            }
            if tachyon {
                shadow.for_each(|k| marks[slot(other, k)] = Some(Mark::Plain));
            }
            marks[slot(node, i)] = Some(Mark::Reason(pairs));
            marks[slot(other, j)] = Some(Mark::Conseq(pairs));
            pairs += 1;
            tachyons += tachyon as u64;
        }
    }
    let salt = rng.next_u64() as u32;
    let mut frames = Vec::with_capacity((MERGE_NODES as u64 * rounds) as usize);
    for round in 0..rounds {
        for node in 0..MERGE_NODES {
            let frame_idx = round * MERGE_NODES as u64 + node as u64;
            let mut records = Vec::with_capacity(MERGE_FRAME_RECORDS as usize);
            let mut last_ts = 0;
            for k in 0..MERGE_FRAME_RECORDS {
                let i = round * MERGE_FRAME_RECORDS + k;
                last_ts = merge_record_ts(node, i);
                let ts = UtcMicros::from_micros(last_ts);
                let mut fields = six_fields(frame_idx, i, salt);
                match marks[slot(node, i)] {
                    Some(Mark::Reason(id)) => fields.push(Value::Reason(CorrelationId(id))),
                    Some(Mark::Conseq(id)) => fields.push(Value::Conseq(CorrelationId(id))),
                    Some(Mark::Plain) | None => {}
                }
                fields.push(Value::Hlc(HlcStamp::new(ts, 0)));
                records.push(
                    EventRecord::new(NodeId(node), SensorId(0), EVENT, i, ts, fields)
                        .expect("at most eight fields"),
                );
            }
            let bytes = Message::EventBatch {
                node: NodeId(node),
                seq: Some(round + 1),
                records,
            }
            .encode();
            frames.push(MergeFrame {
                arrive_us: last_ts + 1 + rng.below(MERGE_JITTER_US as u64) as i64,
                bytes,
            });
        }
    }
    // Stable: equal arrival times keep (round, node) order, and a node's
    // own frames can never swap (a round spans more than the jitter).
    frames.sort_by_key(|f| f.arrive_us);
    MergeInput {
        frames,
        records: MERGE_NODES as u64 * per_node,
        per_node,
        pairs,
        tachyons,
    }
}

// ---- query_mix -----------------------------------------------------------

pub const PRELOAD_NODES: u32 = 16;
/// Sim-time gap between consecutive preloaded records (all nodes).
pub const PRELOAD_GAP_US: i64 = 50;
/// Preloaded timestamps start here: far in the past, so no live record
/// (stamped with the wall clock) can ever match a query's time range.
pub const PRELOAD_BASE_US: i64 = 1_000_000_000;

/// The i-th preloaded record: round-robin over nodes, time-ordered like
/// an ISM's output, every 97th a reason and its successor the conseq.
pub fn preload_record(i: u64, salt: u32) -> EventRecord {
    let node = (i % PRELOAD_NODES as u64) as u32;
    let ts = UtcMicros::from_micros(PRELOAD_BASE_US + i as i64 * PRELOAD_GAP_US);
    let mut fields = six_fields(i, i / PRELOAD_NODES as u64, salt);
    match i % 97 {
        0 => fields.push(Value::Reason(CorrelationId(i / 97))),
        1 if i > 1 => fields.push(Value::Conseq(CorrelationId(i / 97))),
        _ => {}
    }
    EventRecord::new(
        NodeId(node),
        SensorId(node % 4),
        EVENT,
        i / PRELOAD_NODES as u64,
        ts,
        fields,
    )
    .expect("at most eight fields")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    Narrow,
    Medium,
    Repeat,
    Window,
    Chain,
}

pub struct Query {
    pub kind: QueryKind,
    pub pred: Predicate,
    /// For `Chain`: the correlation id to walk from.
    pub chain_from: u64,
    /// `(matches, xor of matching record indices)` by scan+filter over
    /// the generated preload — set on every 7th query.
    pub expect: Option<(u64, u64)>,
}

/// The mix, as a fixed cycle of 20: 14 narrow, 2 medium, 2 repeats of
/// the previous query, 1 windowed aggregate, 1 causal chain. Kinds and
/// range widths are the same for every seed — only *where* each query
/// looks is drawn from it — so the work per run does not depend on the
/// seed and the per-record costs stay comparable between runs.
const CYCLE: [QueryKind; 20] = {
    use QueryKind::{Chain as C, Medium as M, Narrow as N, Repeat as R, Window as W};
    [N, N, N, R, N, N, M, N, N, W, N, N, N, R, N, M, N, N, C, N]
};
/// Records' worth of stream time a narrow query spans (one node of 16).
const NARROW_RECORDS: u64 = 512;

/// A seeded query schedule over `preload` records. Every 7th query
/// carries the oracle's expected answer (7 is coprime to the cycle, so
/// every kind gets checked).
pub fn query_mix(seed: u64, preload: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x51_75_65_72_79);
    let span_us = preload as i64 * PRELOAD_GAP_US;
    let mut out: Vec<Query> = Vec::with_capacity(count);
    for q in 0..count {
        let kind = CYCLE[q % CYCLE.len()];
        let (pred, chain_from) = if kind == QueryKind::Repeat {
            let prev = &out[q - 1];
            (prev.pred.clone(), prev.chain_from)
        } else {
            // Everything but a narrow query reads 3 % of the store.
            let width_records = match kind {
                QueryKind::Narrow => NARROW_RECORDS.min(preload / 4),
                _ => (preload * 3 / 100).max(1),
            } as i64;
            let width_us = width_records * PRELOAD_GAP_US;
            let from = PRELOAD_BASE_US + rng.below((span_us - width_us) as u64) as i64;
            let mut pred = Predicate::all()
                .since(UtcMicros::from_micros(from))
                .until(UtcMicros::from_micros(from + width_us - 1));
            if kind == QueryKind::Narrow {
                pred = pred.node(rng.below(PRELOAD_NODES as u64) as u32);
            }
            let first_idx = ((from - PRELOAD_BASE_US) / PRELOAD_GAP_US) as u64;
            (pred, first_idx / 97 + 1)
        };
        let expect = (q % 7 == 0).then(|| scan_filter(&pred, preload));
        out.push(Query {
            kind,
            pred,
            chain_from,
            expect,
        });
    }
    out
}

/// The oracle's scan+filter, over the generator's own definition of the
/// preload rather than anything read back from the store.
pub fn scan_filter(pred: &Predicate, preload: u64) -> (u64, u64) {
    let idx_of = |ts: UtcMicros| (ts.as_micros() - PRELOAD_BASE_US).div_euclid(PRELOAD_GAP_US);
    let lo = pred.from.map_or(0, |t| {
        // First index whose ts >= from.
        let us = t.as_micros() - PRELOAD_BASE_US;
        (us + PRELOAD_GAP_US - 1).div_euclid(PRELOAD_GAP_US).max(0)
    }) as u64;
    let hi = pred
        .to
        .map_or(preload, |t| (idx_of(t) + 1).clamp(0, preload as i64) as u64);
    let (mut n, mut x) = (0u64, 0u64);
    for i in lo..hi.min(preload) {
        let node = (i % PRELOAD_NODES as u64) as u32;
        if pred.nodes.as_ref().is_none_or(|s| s.contains(&node))
            && pred
                .sensors
                .as_ref()
                .is_none_or(|s| s.contains(&(node % 4)))
        {
            n += 1;
            x ^= i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    (n, x)
}

/// `(matches, xor)` of a query result, in `scan_filter`'s terms.
pub fn result_digest(records: &[EventRecord]) -> (u64, u64) {
    let mut x = 0u64;
    for rec in records {
        if let Some((i, _)) = unpack(rec) {
            x ^= i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    (records.len() as u64, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = merge_input(7, 3);
        let b = merge_input(7, 3);
        assert_eq!(a.frames.len(), b.frames.len());
        assert!(a
            .frames
            .iter()
            .zip(&b.frames)
            .all(|(x, y)| x.arrive_us == y.arrive_us && x.bytes == y.bytes));
        let c = merge_input(8, 3);
        assert!(a
            .frames
            .iter()
            .zip(&c.frames)
            .any(|(x, y)| x.bytes != y.bytes));
        assert!(a.pairs > 0 && a.tachyons > 0 && a.tachyons < a.pairs);

        let qa = query_mix(7, 100_000, 200);
        let qb = query_mix(7, 100_000, 200);
        assert!(qa
            .iter()
            .zip(&qb)
            .all(|(x, y)| x.pred == y.pred && x.kind == y.kind && x.expect == y.expect));
        assert_ne!(
            query_mix(8, 100_000, 200)[0].pred,
            qa[0].pred,
            "another seed, another mix"
        );
    }

    #[test]
    fn fields_round_trip_and_scan_filter_matches_the_predicate() {
        let rec = preload_record(12_345, 9);
        assert_eq!(unpack(&rec), Some((12_345, 12_345 / 16)));
        let preload = 50_000;
        for q in query_mix(3, preload, 60) {
            let brute: Vec<EventRecord> = (0..preload)
                .map(|i| preload_record(i, 0))
                .filter(|r| q.pred.matches(r))
                .collect();
            assert_eq!(scan_filter(&q.pred, preload), result_digest(&brute));
        }
    }
}
