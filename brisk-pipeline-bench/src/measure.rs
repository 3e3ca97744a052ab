//! Measurement plumbing shared by the workloads: the bench epoch, latency
//! sample buffers that never reallocate while armed, and the bracket
//! that turns a timed phase into CPU, allocation and RSS figures.

use crate::{alloc, sys};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (the bench epoch). Due times travel
/// in records as this, so latency never depends on `X_TS` or any clock
/// the pipeline corrects.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Latency samples in a buffer sized during set-up. A sample beyond the
/// capacity is counted, not stored: the buffer must not grow (allocate)
/// inside the timed phase.
pub struct Samples {
    values: Vec<u64>,
    pub overflowed: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(cap),
            overflowed: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, v: u64) {
        if self.values.len() < self.values.capacity() {
            self.values.push(v);
        } else {
            self.overflowed += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// The `p`-quantile (0..=1) by nearest rank; 0 when empty. Sorts.
    pub fn quantile(&mut self, p: f64) -> f64 {
        nearest_rank(&mut self.values, p)
    }

    /// The median, over consecutive chunks of `chunk` samples in arrival
    /// order, of each chunk's `p`-quantile — one figure per `p`. A burst
    /// of interference from the host (two shared cores) lands in a few
    /// chunks and cannot move the median the way it moves a percentile
    /// of the whole run. A short tail chunk joins its predecessor. Sorts
    /// within chunks, so call it once, with every `p` wanted.
    pub fn chunked_quantiles<const N: usize>(&mut self, chunk: usize, ps: [f64; N]) -> [f64; N] {
        let chunks = (self.values.len() / chunk).max(1);
        let mut per_p: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(chunks));
        for c in 0..chunks {
            let end = if c + 1 == chunks {
                self.values.len()
            } else {
                (c + 1) * chunk
            };
            let slice = &mut self.values[c * chunk..end];
            for (out, p) in per_p.iter_mut().zip(ps) {
                out.push(nearest_rank(slice, p));
            }
        }
        per_p.map(median)
    }
}

fn nearest_rank(values: &mut [u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * p).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// Median (upper of the two middle values); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Progress of a timed phase sampled at fixed intervals, so throughput
/// and CPU per record can be reported as medians over windows rather
/// than one quotient over the whole phase (see `chunked_quantiles`).
/// Sized up front: sampling happens with the allocator armed.
pub struct Windows {
    /// (wall ns, process CPU ns, records delivered) at each sample.
    samples: Vec<(u64, u64, u64)>,
}

impl Windows {
    pub const INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

    pub fn with_capacity(cap: usize) -> Windows {
        Windows {
            samples: Vec::with_capacity(cap),
        }
    }

    pub fn sample(&mut self, cpu_ns: u64, records: u64) {
        if self.samples.len() < self.samples.capacity() {
            self.samples.push((now_ns(), cpu_ns, records));
        }
    }

    /// Median records/s and median CPU ns per record over the windows
    /// that delivered anything; `None` with fewer than three of them.
    pub fn medians(&self) -> Option<(f64, f64)> {
        let (mut rates, mut cpu) = (Vec::new(), Vec::new());
        for w in self.samples.windows(2) {
            let (dt, dcpu, dn) = (w[1].0 - w[0].0, w[1].1 - w[0].1, w[1].2 - w[0].2);
            if dn > 0 && dt > 0 {
                rates.push(dn as f64 / (dt as f64 / 1e9));
                cpu.push(dcpu as f64 / dn as f64);
            }
        }
        (rates.len() >= 3).then(|| (median(rates), median(cpu)))
    }
}

/// Mean cost of one `Instant::now()` pair, subtracted from sampled
/// notice timings.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// What one timed phase cost the process.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCost {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_rss_mib: f64,
}

/// Opens a timed phase: arms the allocator, notes wall and CPU time.
pub struct Phase {
    start: Instant,
    cpu0: u64,
    alloc0: (u64, u64),
}

impl Phase {
    pub fn begin() -> Phase {
        let alloc0 = alloc::arm();
        Phase {
            cpu0: sys::process_cpu_ns(),
            start: Instant::now(),
            alloc0,
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Close the phase. `wall_end` lets a workload stop the wall clock
    /// at the last verified delivery rather than at this call.
    pub fn end(self, wall_end: Option<Instant>) -> PhaseCost {
        let cpu1 = sys::process_cpu_ns();
        let (allocs, bytes) = alloc::disarm();
        PhaseCost {
            wall_ns: wall_end
                .unwrap_or_else(Instant::now)
                .saturating_duration_since(self.start)
                .as_nanos() as u64,
            cpu_ns: cpu1 - self.cpu0,
            allocs: allocs - self.alloc0.0,
            alloc_bytes: bytes - self.alloc0.1,
            peak_rss_mib: sys::peak_rss_mib(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank_and_no_growth_past_capacity() {
        let mut s = Samples::with_capacity(100);
        for v in (1..=100u64).rev() {
            s.push(v);
        }
        s.push(1_000);
        assert_eq!(s.overflowed, 1);
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::with_capacity(4).quantile(0.5), 0.0);
        assert!(timer_cost_ns() > 0.0);

        // Three quiet chunks and one disturbed: the chunk median ignores
        // what moves the whole-run p99.
        let mut s = Samples::with_capacity(400);
        for c in 0..4u64 {
            for v in 1..=100u64 {
                s.push(if c == 2 { v * 1_000 } else { v });
            }
        }
        assert_eq!(s.chunked_quantiles(100, [0.5, 0.99]), [50.0, 99.0]);
        assert_eq!(s.quantile(0.99), 96_000.0);
        assert_eq!(
            Samples::with_capacity(4).chunked_quantiles(100, [0.5]),
            [0.0]
        );

        let mut w = Windows::with_capacity(8);
        assert_eq!(w.medians(), None);
        for (cpu, n) in [(0, 0), (100, 10), (300, 20), (600, 30), (600, 30)] {
            w.sample(cpu, n);
        }
        let (_, cpu_per_record) = w.medians().expect("three productive windows");
        assert_eq!(cpu_per_record, 20.0);
    }
}
