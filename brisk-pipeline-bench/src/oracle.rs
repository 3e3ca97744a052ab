//! The one checker every workload's output goes through.
//!
//! It sees a stream of delivered records (from the bench-owned sink, the
//! store tailer, or a post-run segment scan) and counts violations of
//! the pipeline's guarantees: exactly-once per (node, seq), per-node
//! order, reason-before-conseq and — where the workload pins the sorter
//! frame — total order on the sort key the record carries. It allocates
//! nothing after construction, so it can run inside the timed phase.

use crate::gen::unpack;
use brisk_core::{EventRecord, HlcStamp};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Violations {
    /// A (node, seq) seen twice.
    pub duplicates: u64,
    /// A record that went backwards within its node's stream.
    pub out_of_order: u64,
    /// A conseq delivered before its reason.
    pub conseq_before_reason: u64,
    /// A record whose carried sort key is below its predecessor's
    /// (only counted when total order was demanded).
    pub unsorted: u64,
    /// A record whose payload does not decode as the generator's shape
    /// or names a node/seq the generator never produced.
    pub foreign: u64,
}

impl Violations {
    pub fn total(&self) -> u64 {
        self.duplicates
            + self.out_of_order
            + self.conseq_before_reason
            + self.unsorted
            + self.foreign
    }
}

pub struct Checker {
    /// First node id; nodes are `base..base + next.len()`.
    base: u32,
    /// Per node, one bit per sequence number seen.
    seen: Vec<Vec<u64>>,
    /// Per node, the next unmarked sequence number expected.
    next: Vec<u64>,
    /// Per correlation id, whether its reason was delivered.
    reasons: Vec<bool>,
    total_order: bool,
    last_key: (HlcStamp, u32, u32, u64),
    pub delivered: u64,
    pub violations: Violations,
}

impl Checker {
    /// `per_node` bounds the sequence numbers, `pairs` the correlation
    /// ids; `total_order` demands a stream sorted by carried causal key.
    pub fn new(base: u32, nodes: u32, per_node: u64, pairs: u64, total_order: bool) -> Checker {
        Checker {
            base,
            seen: vec![vec![0u64; per_node.div_ceil(64) as usize]; nodes as usize],
            next: vec![0; nodes as usize],
            reasons: vec![false; pairs as usize],
            total_order,
            last_key: (HlcStamp::ZERO, 0, 0, 0),
            delivered: 0,
            violations: Violations::default(),
        }
    }

    /// Forget everything seen (a new epoch over the same input).
    pub fn reset(&mut self) {
        for bits in &mut self.seen {
            bits.fill(0);
        }
        self.next.fill(0);
        self.reasons.fill(false);
        self.last_key = (HlcStamp::ZERO, 0, 0, 0);
    }

    /// Check one delivered record; returns the generator's `a` word.
    pub fn observe(&mut self, rec: &EventRecord) -> Option<u64> {
        let slot = rec.node.0.wrapping_sub(self.base) as usize;
        let Some((a, seq)) = unpack(rec).filter(|_| slot < self.next.len()) else {
            self.violations.foreign += 1;
            return None;
        };
        let Some(word) = self.seen[slot].get_mut((seq / 64) as usize) else {
            self.violations.foreign += 1;
            return None;
        };
        self.delivered += 1;
        if *word & (1 << (seq % 64)) != 0 {
            self.violations.duplicates += 1;
            return Some(a);
        }
        *word |= 1 << (seq % 64);
        // A held conseq is legitimately overtaken by its node's later
        // records; every other record must keep its node's order.
        let conseq = rec.conseq_id();
        if conseq.is_none() {
            if seq < self.next[slot] {
                self.violations.out_of_order += 1;
            }
            self.next[slot] = self.next[slot].max(seq + 1);
        }
        if let Some(flag) = rec
            .reason_id()
            .and_then(|id| self.reasons.get_mut(id.0 as usize))
        {
            *flag = true;
        }
        if let Some(id) = conseq {
            if !self.reasons.get(id.0 as usize).copied().unwrap_or(false) {
                self.violations.conseq_before_reason += 1;
            }
        }
        if self.total_order {
            let key = rec.causal_sort_key();
            if key < self.last_key {
                self.violations.unsorted += 1;
            }
            self.last_key = key;
        }
        Some(a)
    }

    /// Records the generator produced that were never delivered, given
    /// how many each node was offered.
    pub fn missing(&self, offered_per_node: &[u64]) -> u64 {
        self.seen
            .iter()
            .zip(offered_per_node)
            .map(|(bits, &offered)| {
                let seen: u64 = bits.iter().map(|w| w.count_ones() as u64).sum();
                offered.saturating_sub(seen)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{six_fields, EVENT};
    use brisk_core::{CorrelationId, NodeId, SensorId, UtcMicros, Value};

    fn rec(node: u32, seq: u64, ts: i64, extra: Option<Value>) -> EventRecord {
        let mut fields = six_fields(0, seq, 0);
        fields.extend(extra);
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EVENT,
            seq,
            UtcMicros::from_micros(ts),
            fields,
        )
        .unwrap()
    }

    #[test]
    fn clean_stream_passes_and_each_fault_is_counted_once() {
        let mut c = Checker::new(1, 2, 100, 4, true);
        c.observe(&rec(1, 0, 10, None));
        c.observe(&rec(2, 0, 11, Some(Value::Reason(CorrelationId(0)))));
        c.observe(&rec(1, 1, 12, Some(Value::Conseq(CorrelationId(0)))));
        assert_eq!(c.violations, Violations::default());
        assert_eq!(c.missing(&[2, 1]), 0);
        assert_eq!(c.missing(&[3, 1]), 1);

        c.observe(&rec(1, 1, 13, None)); // duplicate
        c.observe(&rec(2, 2, 14, None));
        c.observe(&rec(2, 1, 15, None)); // went backwards within node 2
        c.observe(&rec(1, 2, 16, Some(Value::Conseq(CorrelationId(3))))); // no reason yet
        c.observe(&rec(1, 3, 5, None)); // sort key below predecessor
        c.observe(&rec(9, 0, 20, None)); // unknown node
        c.observe(&rec(1, 1_000, 21, None)); // seq the generator never made
        assert_eq!(
            c.violations,
            Violations {
                duplicates: 1,
                out_of_order: 1,
                conseq_before_reason: 1,
                unsorted: 1,
                foreign: 2,
            }
        );
        c.reset();
        c.observe(&rec(1, 0, 1, None));
        assert_eq!(
            c.violations.total(),
            6,
            "reset keeps the tally, clears the state"
        );
    }
}
