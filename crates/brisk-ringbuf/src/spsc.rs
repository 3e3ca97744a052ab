//! Lock-free single-producer single-consumer byte ring.
//!
//! The ring carries *frames*: a 4-byte little-endian length prefix followed
//! by the payload. Indices are monotonically increasing `usize` counters
//! (they wrap modulo the power-of-two capacity only when addressing the
//! buffer), the classic Lamport queue formulation:
//!
//! * the producer owns `tail` and reads `head` with `Acquire`;
//! * the consumer owns `head` and reads `tail` with `Acquire`;
//! * each side publishes its counter with `Release` after touching the data,
//!   which is what makes the payload bytes visible to the other side.
//!
//! A full ring causes the frame to be **dropped**, never a block: BRISK
//! sensors must not change "the order and timing of critical events in the
//! target system" (§2). Drops are counted so consumers can report loss.
//!
//! A consumer with nothing to drain sleeps on a [`Doorbell`]; the first
//! push after it armed the bell wakes it. For that handshake the
//! producer's `tail` store is `SeqCst`, a superset of `Release`.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Frame length prefix size.
const LEN_PREFIX: usize = 4;

/// Shared state of one SPSC byte ring.
///
/// # Safety discipline
///
/// The buffer is a slice of `UnsafeCell<u8>`. At any moment each byte is
/// accessed by at most one side: bytes in `[head, tail)` belong to the
/// consumer, bytes in `[tail, head + cap)` to the producer. The counters
/// only move forward, and each side moves only its own counter, after it has
/// finished touching the bytes the move hands over. `Release` on the store
/// and `Acquire` on the observing load give the happens-before edge.
pub struct ByteRing {
    buf: Box<[UnsafeCell<u8>]>,
    /// Capacity, always a power of two.
    cap: usize,
    /// Consumer position (monotonic).
    head: CachePadded<AtomicUsize>,
    /// Producer position (monotonic).
    tail: CachePadded<AtomicUsize>,
    /// Frames dropped because the ring was full.
    dropped: AtomicU64,
    /// Frames successfully published.
    produced: AtomicU64,
    /// Frames consumed.
    consumed: AtomicU64,
}

// SAFETY: the UnsafeCell buffer is protected by the head/tail ownership
// protocol documented above; RingProducer and RingConsumer are the only
// accessors and each exists exactly once.
unsafe impl Send for ByteRing {}
unsafe impl Sync for ByteRing {}

/// Counters describing ring traffic so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Frames successfully written.
    pub produced: u64,
    /// Frames dropped because the ring was full.
    pub dropped: u64,
    /// Frames read out.
    pub consumed: u64,
}

impl ByteRing {
    /// Create a ring with at least `capacity` bytes (rounded up to a power
    /// of two, minimum 64) and split it into its producer and consumer
    /// halves.
    pub fn with_capacity(capacity: usize) -> (RingProducer, RingConsumer) {
        let cap = capacity.max(64).next_power_of_two();
        let buf = (0..cap).map(|_| UnsafeCell::new(0u8)).collect::<Vec<_>>();
        let ring = Arc::new(ByteRing {
            buf: buf.into_boxed_slice(),
            cap,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            dropped: AtomicU64::new(0),
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        });
        (
            RingProducer {
                ring: Arc::clone(&ring),
                bell: None,
            },
            RingConsumer { ring },
        )
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn stats(&self) -> RingStats {
        RingStats {
            produced: self.produced.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn slot(&self, pos: usize) -> *mut u8 {
        self.buf[pos & (self.cap - 1)].get()
    }

    /// Copy `src` into the ring starting at monotonic position `pos`.
    /// Caller must own `[pos, pos + src.len())`.
    #[inline]
    unsafe fn write_bytes(&self, pos: usize, src: &[u8]) {
        for (i, &b) in src.iter().enumerate() {
            // SAFETY: caller owns this span per the head/tail protocol.
            unsafe { *self.slot(pos + i) = b };
        }
    }

    /// Copy from the ring at monotonic position `pos` into `dst`.
    /// Caller must own `[pos, pos + dst.len())`.
    #[inline]
    unsafe fn read_bytes(&self, pos: usize, dst: &mut [u8]) {
        for (i, b) in dst.iter_mut().enumerate() {
            // SAFETY: caller owns this span per the head/tail protocol.
            *b = unsafe { *self.slot(pos + i) };
        }
    }
}

/// A sleeping consumer's wakeup, shared by the rings it drains. The
/// consumer arms it, looks at its rings once more and sleeps only if all
/// are still empty, so the first push while it is armed is the one that
/// took a ring from empty to non-empty: that push fires the wake and
/// disarms. No wakeup is lost, Dekker style: the consumer stores `armed`
/// and fences `SeqCst` before it loads the `tail`s; the producer stores
/// `tail`, then loads `armed`, both `SeqCst`. One of the two sees the
/// other's store. A push while disarmed costs one load of a line only
/// the consumer's sleeps write.
#[derive(Default)]
pub struct Doorbell {
    /// A line of its own: every push loads it, only sleeps write it.
    armed: CachePadded<AtomicBool>,
    wake: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Doorbell {
    /// Install what ringing does (the consumer's poller wake).
    pub fn set_wake(&self, wake: impl Fn() + Send + Sync + 'static) {
        *self.wake.lock() = Some(Box::new(wake));
    }

    /// Arm before the consumer's last look at its rings.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// The consumer is awake; writes the line only if it is still armed.
    pub fn disarm(&self) {
        if self.armed.load(Ordering::Relaxed) {
            self.armed.store(false, Ordering::Relaxed);
        }
    }

    fn ring(&self) {
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            if let Some(wake) = &*self.wake.lock() {
                wake();
            }
        }
    }
}

/// The producing half of a [`ByteRing`]. Exactly one exists per ring.
pub struct RingProducer {
    ring: Arc<ByteRing>,
    /// Rung by every push; it fires only while the consumer is armed.
    pub(crate) bell: Option<Arc<Doorbell>>,
}

impl RingProducer {
    /// Try to publish one frame. Returns `false` (and bumps the drop
    /// counter) if the ring does not currently have room; never blocks.
    pub fn push(&mut self, payload: &[u8]) -> bool {
        let ring = &*self.ring;
        let need = LEN_PREFIX + payload.len();
        if need > ring.cap {
            // Frame can never fit; count as dropped rather than wedge.
            ring.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let tail = ring.tail.load(Ordering::Relaxed); // producer owns tail
        let head = ring.head.load(Ordering::Acquire);
        let free = ring.cap - (tail - head);
        if need > free {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let len_bytes = (payload.len() as u32).to_le_bytes();
        // SAFETY: `[tail, tail+need)` is producer-owned: it is within
        // `cap - (tail - head)` free bytes checked above.
        unsafe {
            ring.write_bytes(tail, &len_bytes);
            ring.write_bytes(tail + LEN_PREFIX, payload);
        }
        ring.tail.store(tail + need, Ordering::SeqCst);
        // The only writer: a plain store, not a second locked instruction.
        let produced = ring.produced.load(Ordering::Relaxed) + 1;
        ring.produced.store(produced, Ordering::Relaxed);
        if let Some(bell) = &self.bell {
            bell.ring();
        }
        true
    }

    /// Bytes currently available for writing.
    pub fn free_bytes(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Acquire);
        self.ring.cap - (tail - head)
    }

    /// Bytes currently buffered (occupancy), from the producer side.
    ///
    /// Reads the producer-owned `tail` first, then `head`: the consumer
    /// can only advance `head` towards `tail`, so the difference is a
    /// conservative (never negative, at-most-stale-high) occupancy —
    /// safe to export as a gauge without racing the consumer.
    pub fn occupancy(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed); // owned, exact
        let head = self.ring.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Traffic counters.
    pub fn stats(&self) -> RingStats {
        self.ring.stats()
    }
}

/// The consuming half of a [`ByteRing`]. Exactly one exists per ring.
pub struct RingConsumer {
    ring: Arc<ByteRing>,
}

impl RingConsumer {
    /// Pop one frame into `out` (which is cleared first). Returns `true` if
    /// a frame was read, `false` if the ring was empty.
    pub fn pop(&mut self, out: &mut Vec<u8>) -> bool {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed); // consumer owns head
        let tail = ring.tail.load(Ordering::Acquire);
        let avail = tail - head;
        if avail < LEN_PREFIX {
            debug_assert_eq!(avail, 0, "partial frame in ring");
            return false;
        }
        let mut len_bytes = [0u8; LEN_PREFIX];
        // SAFETY: `[head, tail)` is consumer-owned.
        unsafe { ring.read_bytes(head, &mut len_bytes) };
        let len = u32::from_le_bytes(len_bytes) as usize;
        debug_assert!(
            avail >= LEN_PREFIX + len,
            "frame published incompletely: avail={avail} len={len}"
        );
        out.clear();
        out.resize(len, 0);
        // SAFETY: same ownership; the producer published the whole frame
        // before releasing tail.
        unsafe { ring.read_bytes(head + LEN_PREFIX, out) };
        ring.head.store(head + LEN_PREFIX + len, Ordering::Release);
        ring.consumed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drain up to `max` frames, invoking `f` on each. Returns the number
    /// of frames consumed. The scratch buffer is reused across frames.
    pub fn drain(&mut self, max: usize, mut f: impl FnMut(&[u8])) -> usize {
        let mut scratch = Vec::new();
        let mut n = 0;
        while n < max && self.pop(&mut scratch) {
            f(&scratch);
            n += 1;
        }
        n
    }

    /// True if no complete frame is currently available.
    pub fn is_empty(&self) -> bool {
        let head = self.ring.head.load(Ordering::Relaxed);
        let tail = self.ring.tail.load(Ordering::Acquire);
        tail == head
    }

    /// Bytes currently buffered (occupancy), from the consumer side.
    ///
    /// Reads the consumer-owned `head` first, then `tail`: the producer
    /// can only grow `tail`, so the difference is exact-or-stale-low and
    /// never negative — the gauge cannot race its own drain loop.
    pub fn occupancy(&self) -> usize {
        let head = self.ring.head.load(Ordering::Relaxed); // owned, exact
        let tail = self.ring.tail.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Traffic counters.
    pub fn stats(&self) -> RingStats {
        self.ring.stats()
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = ByteRing::with_capacity(1000);
        assert_eq!(p.ring.capacity(), 1024);
        let (p, _c) = ByteRing::with_capacity(1);
        assert_eq!(p.ring.capacity(), 64);
    }

    #[test]
    fn push_pop_single_frame() {
        let (mut p, mut c) = ByteRing::with_capacity(256);
        assert!(p.push(b"hello"));
        let mut out = Vec::new();
        assert!(c.pop(&mut out));
        assert_eq!(out, b"hello");
        assert!(!c.pop(&mut out));
    }

    #[test]
    fn empty_frame_supported() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        assert!(p.push(b""));
        let mut out = vec![1, 2, 3];
        assert!(c.pop(&mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut p, mut c) = ByteRing::with_capacity(4096);
        for i in 0..100u32 {
            assert!(p.push(&i.to_le_bytes()));
        }
        let mut out = Vec::new();
        for i in 0..100u32 {
            assert!(c.pop(&mut out));
            assert_eq!(u32::from_le_bytes(out[..].try_into().unwrap()), i);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        let frame = [0u8; 28]; // 32 bytes with prefix
        assert!(p.push(&frame));
        assert!(p.push(&frame));
        assert!(!p.push(&frame)); // full
        assert_eq!(p.stats().dropped, 1);
        assert_eq!(p.stats().produced, 2);
        let mut out = Vec::new();
        assert!(c.pop(&mut out));
        assert!(p.push(&frame)); // space reclaimed
        assert_eq!(c.stats().consumed, 1);
    }

    #[test]
    fn oversized_frame_rejected_without_wedging() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        assert!(!p.push(&[0u8; 100]));
        assert_eq!(p.stats().dropped, 1);
        assert!(p.push(b"ok"));
        let mut out = Vec::new();
        assert!(c.pop(&mut out));
        assert_eq!(out, b"ok");
    }

    #[test]
    fn wraparound_preserves_contents() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        let mut out = Vec::new();
        // Push/pop enough varied frames to wrap the 64-byte ring many times.
        for round in 0..200u32 {
            let len = (round % 23) as usize;
            let payload: Vec<u8> = (0..len)
                .map(|i| (round as u8).wrapping_add(i as u8))
                .collect();
            assert!(p.push(&payload), "round {round}");
            assert!(c.pop(&mut out));
            assert_eq!(out, payload, "round {round}");
        }
    }

    #[test]
    fn drain_respects_max_and_reuses_buffer() {
        let (mut p, mut c) = ByteRing::with_capacity(1024);
        for i in 0..10u8 {
            p.push(&[i]);
        }
        let mut seen = Vec::new();
        let n = c.drain(4, |frame| seen.push(frame[0]));
        assert_eq!(n, 4);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let n = c.drain(usize::MAX, |frame| seen.push(frame[0]));
        assert_eq!(n, 6);
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn free_bytes_reports_capacity_minus_used() {
        let (mut p, _c) = ByteRing::with_capacity(64);
        assert_eq!(p.free_bytes(), 64);
        p.push(b"abcd"); // 8 bytes with prefix
        assert_eq!(p.free_bytes(), 56);
    }

    #[test]
    fn occupancy_tracks_both_halves() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        assert_eq!(p.occupancy(), 0);
        assert_eq!(c.occupancy(), 0);
        p.push(b"abcd"); // 8 bytes with prefix
        assert_eq!(p.occupancy(), 8);
        assert_eq!(c.occupancy(), 8);
        let mut out = Vec::new();
        c.pop(&mut out);
        assert_eq!(p.occupancy(), 0);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(p.capacity(), 64);
    }

    #[test]
    fn concurrent_producer_consumer_stress() {
        let (mut p, mut c) = ByteRing::with_capacity(1 << 12);
        const N: u64 = 200_000;
        let producer = thread::spawn(move || {
            let mut sent = 0u64;
            let mut i = 0u64;
            while i < N {
                let payload = i.to_le_bytes();
                if p.push(&payload) {
                    sent += 1;
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            sent
        });
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            let mut expected = 0u64;
            while expected < N {
                if c.pop(&mut out) {
                    let v = u64::from_le_bytes(out[..].try_into().unwrap());
                    assert_eq!(v, expected, "frames must arrive in order, intact");
                    expected += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            expected
        });
        assert_eq!(producer.join().unwrap(), N);
        assert_eq!(consumer.join().unwrap(), N);
    }

    #[test]
    fn concurrent_stress_with_varied_sizes_and_drops() {
        let (mut p, mut c) = ByteRing::with_capacity(256);
        const N: u32 = 50_000;
        let producer = thread::spawn(move || {
            let mut accepted = Vec::new();
            for i in 0..N {
                let len = (i % 40) as usize;
                let mut payload = vec![0u8; 4 + len];
                payload[..4].copy_from_slice(&i.to_le_bytes());
                for (j, b) in payload[4..].iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
                }
                if p.push(&payload) {
                    accepted.push(i);
                }
            }
            (accepted, p.stats())
        });
        let consumer = thread::spawn(move || {
            let mut out = Vec::new();
            let mut got = Vec::new();
            let mut idle = 0;
            while idle < 10_000 {
                if c.pop(&mut out) {
                    idle = 0;
                    let i = u32::from_le_bytes(out[..4].try_into().unwrap());
                    for (j, &b) in out[4..].iter().enumerate() {
                        assert_eq!(b, (i as u8).wrapping_mul(31).wrapping_add(j as u8));
                    }
                    got.push(i);
                } else {
                    idle += 1;
                    std::thread::yield_now();
                }
            }
            got
        });
        let (accepted, stats) = producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(
            accepted, got,
            "consumer sees exactly the accepted frames in order"
        );
        assert_eq!(stats.produced + stats.dropped, N as u64);
    }

    #[test]
    fn a_consumer_asleep_on_its_doorbell_is_woken_for_every_frame() {
        // The consumer drains, arms, re-checks and sleeps; the producer
        // pushes in bursts with short gaps. A lost wakeup leaves a frame
        // in the ring while the consumer sleeps, and the timeout says so.
        let bell = Arc::new(Doorbell::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        bell.set_wake(move || {
            let _ = tx.lock().send(());
        });
        let (mut p, mut c) = ByteRing::with_capacity(1 << 12);
        p.bell = Some(Arc::clone(&bell));
        const N: u64 = 100_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                while !p.push(&i.to_le_bytes()) {
                    std::hint::spin_loop();
                }
                match i % 97 {
                    0 => thread::sleep(std::time::Duration::from_micros(20)),
                    1..=8 => thread::yield_now(),
                    _ => {}
                }
            }
        });
        let mut out = Vec::new();
        let mut expected = 0u64;
        while expected < N {
            if c.pop(&mut out) {
                assert_eq!(u64::from_le_bytes(out[..].try_into().unwrap()), expected);
                expected += 1;
                continue;
            }
            bell.arm();
            if c.is_empty() {
                let woke = rx.recv_timeout(std::time::Duration::from_secs(5));
                assert!(woke.is_ok(), "asleep with frame {expected} pushed");
            }
            bell.disarm();
        }
        producer.join().unwrap();
    }

    #[test]
    fn only_the_first_push_after_arming_rings() {
        let bell = Arc::new(Doorbell::default());
        let rung = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&rung);
        bell.set_wake(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let (mut p, _c) = ByteRing::with_capacity(1 << 10);
        p.bell = Some(Arc::clone(&bell));
        p.push(b"disarmed");
        assert_eq!(
            rung.load(Ordering::Relaxed),
            0,
            "a push while disarmed is silent"
        );
        bell.arm();
        p.push(b"first");
        p.push(b"second");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "the first ringer disarms");
        bell.arm();
        bell.disarm();
        p.push(b"after a wake");
        assert_eq!(rung.load(Ordering::Relaxed), 1);
    }
}
