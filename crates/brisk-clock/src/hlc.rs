//! Hybrid logical clock generator.
//!
//! An HLC stamp ([`HlcStamp`]) pairs a physical timestamp with a logical
//! counter; the generator keeps the physical component close to the local
//! (corrected) wall clock while guaranteeing that every stamp it hands
//! out — and every stamp merged in from a remote batch — is strictly
//! greater than everything it has seen before. Comparing two stamps then
//! gives a total order *consistent with happened-before*: if record A
//! causally precedes record B (same node, or A's stamp travelled to B's
//! node before B was stamped), then `A.hlc < B.hlc`, regardless of how
//! badly the nodes' physical clocks disagree.
//!
//! This is the Kulkarni et al. HLC algorithm: `tick` for local events,
//! `merge` for receive events. The logical counter absorbs whatever the
//! physical clocks get wrong; its high-water mark is exported as
//! telemetry (`brisk_hlc_logical_high_water`) because a large value means
//! physical clocks have diverged badly enough that HLC is doing all the
//! ordering work.

use brisk_core::{HlcStamp, UtcMicros};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

brisk_telemetry::metrics! {
    /// High-water marks: telemetry only, never read back by the clock.
    struct HlcCells {
        logical_high_water: gauge "brisk_hlc_logical_high_water" "Largest HLC logical counter issued or observed",
        divergence_high_water_us: gauge "brisk_hlc_divergence_high_water_us" "Largest |HLC physical - wall clock| divergence seen (us)",
    }
}

/// A hybrid logical clock: monotonically increasing stamps coupled to a
/// physical clock. Cheap to share (`Arc`) and safe to call from many
/// threads; each stamp is unique and strictly greater than all prior
/// stamps issued or observed by this instance.
#[derive(Debug, Default)]
pub struct Hlc {
    last: Mutex<HlcStamp>,
    cells: Arc<HlcCells>,
}

impl Hlc {
    /// New generator starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Hlc::default())
    }

    /// Stamp a local event at wall time `now`. The physical component is
    /// `max(now, last.physical)`; the logical counter increments only
    /// when the wall clock has not advanced past the last stamp.
    pub fn tick(&self, now: UtcMicros) -> HlcStamp {
        let mut last = self.last.lock();
        let stamp = if now > last.physical {
            HlcStamp::new(now, 0)
        } else {
            HlcStamp::new(last.physical, last.logical.saturating_add(1))
        };
        *last = stamp;
        drop(last);
        self.note(stamp, now);
        stamp
    }

    /// Observe a stamp from a remote node at local wall time `now`,
    /// returning a fresh stamp strictly greater than both the remote
    /// stamp and everything issued locally. This is the receive rule:
    /// the ISM calls it for each batch record so that downstream stamps
    /// dominate upstream ones.
    pub fn merge(&self, remote: HlcStamp, now: UtcMicros) -> HlcStamp {
        let mut last = self.last.lock();
        let physical = now.max(last.physical).max(remote.physical);
        let logical = if physical == last.physical && physical == remote.physical {
            last.logical.max(remote.logical).saturating_add(1)
        } else if physical == last.physical {
            last.logical.saturating_add(1)
        } else if physical == remote.physical {
            remote.logical.saturating_add(1)
        } else {
            0
        };
        let stamp = HlcStamp::new(physical, logical);
        *last = stamp;
        drop(last);
        self.note(stamp, now);
        stamp
    }

    /// Observe a remote stamp *without* issuing a new one — advances the
    /// internal state so later `tick`s dominate it. Used when a record
    /// already carries a stamp that must be preserved (relay pass-through).
    pub fn observe(&self, remote: HlcStamp) {
        let mut last = self.last.lock();
        if remote > *last {
            *last = remote;
        }
        drop(last);
        self.note_logical(remote.logical);
    }

    /// Fold a logical counter into the high-water telemetry without
    /// touching the clock state. Lets a batch observer `observe` only the
    /// max stamp (set-max is associative) while keeping the gauge exact:
    /// the batch's largest logical counter may sit on a stamp that is not
    /// the batch maximum.
    pub fn note_logical(&self, logical: u32) {
        self.cells
            .logical_high_water
            .fetch_max(i64::from(logical), Ordering::Relaxed);
    }

    /// The most recent stamp issued or observed.
    pub fn last(&self) -> HlcStamp {
        *self.last.lock()
    }

    /// Largest logical counter this instance has issued or observed.
    pub fn logical_high_water(&self) -> u32 {
        self.cells.logical_high_water.load(Ordering::Relaxed) as u32
    }

    /// Largest |physical − wall| divergence seen, in microseconds.
    pub fn divergence_high_water_us(&self) -> i64 {
        self.cells.divergence_high_water_us.load(Ordering::Relaxed)
    }

    fn note(&self, stamp: HlcStamp, now: UtcMicros) {
        self.note_logical(stamp.logical);
        self.cells
            .divergence_high_water_us
            .fetch_max(stamp.divergence_us(now).abs(), Ordering::Relaxed);
    }

    /// Register this generator's gauges on a telemetry registry, labelled
    /// by `node`: `brisk_hlc_logical_high_water` and
    /// `brisk_hlc_divergence_high_water_us`.
    pub fn bind_telemetry(self: &Arc<Self>, registry: &brisk_telemetry::Registry, node: &str) {
        self.cells.register(registry, &[("node", node)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: i64) -> UtcMicros {
        UtcMicros::from_micros(v)
    }

    #[test]
    fn tick_follows_advancing_wall_clock() {
        let h = Hlc::new();
        let a = h.tick(us(100));
        let b = h.tick(us(200));
        assert_eq!(a, HlcStamp::new(us(100), 0));
        assert_eq!(b, HlcStamp::new(us(200), 0));
        assert!(b > a);
        assert_eq!(h.logical_high_water(), 0);
    }

    #[test]
    fn tick_on_stalled_clock_increments_logical() {
        let h = Hlc::new();
        let a = h.tick(us(100));
        let b = h.tick(us(100));
        let c = h.tick(us(50)); // clock even went backwards
        assert!(a < b && b < c);
        assert_eq!(b, HlcStamp::new(us(100), 1));
        assert_eq!(c, HlcStamp::new(us(100), 2));
        assert_eq!(h.logical_high_water(), 2);
    }

    #[test]
    fn merge_dominates_remote_and_local() {
        let h = Hlc::new();
        h.tick(us(100));
        // Remote node is 5 s ahead.
        let remote = HlcStamp::new(us(5_000_100), 7);
        let m = h.merge(remote, us(101));
        assert!(m > remote);
        assert_eq!(m, HlcStamp::new(us(5_000_100), 8));
        // Local ticks after the merge still dominate it even though the
        // local wall clock lags far behind.
        let t = h.tick(us(102));
        assert!(t > m);
        assert_eq!(t.physical, us(5_000_100));
    }

    #[test]
    fn merge_with_fresh_wall_clock_resets_logical() {
        let h = Hlc::new();
        h.tick(us(100));
        let m = h.merge(HlcStamp::new(us(90), 3), us(200));
        assert_eq!(m, HlcStamp::new(us(200), 0));
    }

    #[test]
    fn merge_three_way_tie_takes_max_logical() {
        let h = Hlc::new();
        h.tick(us(100)); // last = (100, 0)
        let m = h.merge(HlcStamp::new(us(100), 9), us(100));
        assert_eq!(m, HlcStamp::new(us(100), 10));
    }

    #[test]
    fn observe_advances_without_issuing() {
        let h = Hlc::new();
        h.tick(us(100));
        h.observe(HlcStamp::new(us(900), 4));
        assert_eq!(h.last(), HlcStamp::new(us(900), 4));
        let t = h.tick(us(101));
        assert!(t > HlcStamp::new(us(900), 4));
        // Observe of an older stamp is a no-op.
        h.observe(HlcStamp::new(us(10), 0));
        assert_eq!(h.last(), t);
        assert_eq!(h.logical_high_water(), 5);
    }

    #[test]
    fn stamps_are_strictly_monotonic_under_interleaving() {
        let h = Hlc::new();
        let mut prev = HlcStamp::ZERO;
        let wall = [10, 10, 9, 50, 50, 3, 51];
        let remote = [
            HlcStamp::new(us(40), 2),
            HlcStamp::new(us(5), 0),
            HlcStamp::new(us(60), 0),
        ];
        let mut r = remote.iter().cycle();
        for (i, &w) in wall.iter().enumerate() {
            let s = if i % 2 == 0 {
                h.tick(us(w))
            } else {
                h.merge(*r.next().unwrap(), us(w))
            };
            assert!(s > prev, "stamp {s} not above {prev}");
            prev = s;
        }
    }

    #[test]
    fn divergence_high_water_tracks_offset() {
        let h = Hlc::new();
        h.tick(us(100));
        h.merge(HlcStamp::new(us(2_000_000), 0), us(100));
        assert!(h.divergence_high_water_us() >= 1_999_900);
    }

    #[test]
    fn telemetry_binding_exposes_gauges() {
        let h = Hlc::new();
        let reg = brisk_telemetry::Registry::new();
        h.bind_telemetry(&reg, "n1");
        h.tick(us(100));
        h.tick(us(100));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("brisk_hlc_logical_high_water"), Some(1));
    }
}
