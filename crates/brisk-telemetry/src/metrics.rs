//! The metric primitives: counter and histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`].
///
/// Bucket 0 holds the value `0`; bucket `i` (1..=63) holds values in
/// `[2^(i-1), 2^i)`. The last bucket's upper edge is `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂-bucketed histogram of `u64` observations.
///
/// Recording is one relaxed `fetch_add` on the bucket plus relaxed
/// updates of `sum` and `max`; reading is a [`HistogramSnapshot`] that
/// can estimate quantiles and merge with other snapshots.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`, with
/// everything `>= 2^62` collapsed into the final bucket. Public so
/// exemplar tracking (`crate::trace`) can address the same buckets.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add a plain accumulation in and clear it: how a single-threaded
    /// owner publishes once per tick what it recorded per observation
    /// (see [`HistogramSnapshot::record`]), instead of paying three atomic
    /// RMWs each time.
    pub fn absorb(&self, local: &mut HistogramSnapshot) {
        // Empty iff nothing positive was seen and no zero was either.
        if local.max == 0 && local.buckets[0] == 0 {
            return;
        }
        for (a, b) in self.buckets.iter().zip(&mut local.buckets) {
            if *b != 0 {
                a.fetch_add(std::mem::take(b), Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
        self.max
            .fetch_max(std::mem::take(&mut local.max), Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the whole histogram.
    ///
    /// Individual bucket loads are relaxed; a snapshot taken while
    /// writers are active may be off by in-flight observations, which is
    /// the usual contract for lock-free metrics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one observation into this plain copy (no atomics; publish
    /// it with [`Histogram::absorb`]).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) as the upper edge of the
    /// bucket containing that rank, clamped to the observed maximum.
    ///
    /// The clamp guarantees `quantile(a) <= quantile(b) <= max` for
    /// `a <= b`, which downstream monitoring relies on.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p95 shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge two snapshots (e.g. the same stage on two nodes).
    ///
    /// Saturating addition keeps the operation associative: the merged
    /// value is `min(Σ, u64::MAX)` regardless of grouping.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (b, o) in out.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        out.sum = out.sum.saturating_add(other.sum);
        out.max = out.max.max(other.max);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value lands in a bucket whose upper edge is >= it.
        for v in [0u64, 1, 2, 3, 255, 256, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_upper(b) >= v, "v={v} bucket={b}");
        }
    }

    #[test]
    fn quantiles_bounded_by_max() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(5);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max, 5);
        assert_eq!(s.p50(), 5, "upper edge (7) must clamp to max");
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max);
    }

    #[test]
    fn quantiles_spread() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50() >= 500 && s.p50() <= 1023, "p50={}", s.p50());
        assert!(s.p99() >= 990, "p99={}", s.p99());
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        b.record(1000);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum, 1001);
        assert_eq!(m.max, 1000);
    }

    #[test]
    fn absorb_equals_recording_directly_and_clears_the_local_copy() {
        let (direct, folded) = (Histogram::new(), Histogram::new());
        let mut local = HistogramSnapshot::default();
        folded.absorb(&mut local); // empty: nothing to add
        for v in [0u64, 0, 7, 1_000, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        folded.absorb(&mut local);
        assert_eq!(folded.snapshot(), direct.snapshot());
        assert_eq!(local, HistogramSnapshot::default());
    }
}
