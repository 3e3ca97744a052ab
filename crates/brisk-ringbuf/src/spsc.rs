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
//! Each side counts its frames on its own counter's line, so neither
//! side's counting writes a line the other side's hot path reads.
//!
//! A full ring causes the frame to be **dropped**, never a block: BRISK
//! sensors must not change "the order and timing of critical events in the
//! target system" (§2). Drops are counted so consumers can report loss.
//!
//! A consumer sleeps on a [`Doorbell`] armed at a [`Fill`]: the push that
//! brings the rings it drains to that many frames or bytes between them
//! rings it. Armed at [`Fill::ANY`], that is the first push; armed at
//! what a batch still lacks, it is the push that completes the batch.
//! For that handshake the producer's `tail` store is `SeqCst`, a superset
//! of `Release`.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Frame length prefix size.
const LEN_PREFIX: usize = 4;

/// One side's position and frame count, on a line of its own.
#[derive(Default)]
struct Side {
    /// Monotonic byte position.
    pos: AtomicUsize,
    /// Frames this side has moved (written by this side only).
    frames: AtomicU64,
}

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
    /// Consumer position and frames consumed.
    head: CachePadded<Side>,
    /// Producer position and frames published.
    tail: CachePadded<Side>,
    /// Frames dropped because the ring was full.
    dropped: AtomicU64,
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
            head: CachePadded::default(),
            tail: CachePadded::default(),
            dropped: AtomicU64::new(0),
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
            produced: self.tail.frames.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            consumed: self.head.frames.load(Ordering::Relaxed),
        }
    }

    /// The ring bytes `[pos, pos + len)` as at most two runs, split at
    /// the wrap: `first` bytes at `start`, then the rest at `base`.
    /// `len <= cap`.
    #[inline]
    fn runs(&self, pos: usize, len: usize) -> (*mut u8, usize, *mut u8) {
        let at = pos & (self.cap - 1);
        // Every byte of `buf` sits in an `UnsafeCell`, so a pointer to the
        // whole slice, taken through `&self`, may be written: whoever
        // writes owns the span under the head/tail protocol.
        let base = UnsafeCell::raw_get(self.buf.as_ptr());
        // `at < cap`: in bounds.
        (base.wrapping_add(at), len.min(self.cap - at), base)
    }

    /// Copy `src` into the ring starting at monotonic position `pos`.
    /// Caller must own `[pos, pos + src.len())`.
    #[inline]
    unsafe fn write_bytes(&self, pos: usize, src: &[u8]) {
        let (start, first, base) = self.runs(pos, src.len());
        // SAFETY: both runs lie in `buf` and are the caller's; `src` is a
        // separate borrow, so the copies do not overlap.
        unsafe {
            ptr::copy_nonoverlapping(src.as_ptr(), start, first);
            ptr::copy_nonoverlapping(src.as_ptr().add(first), base, src.len() - first);
        }
    }

    /// Copy `len` bytes from the ring at monotonic position `pos` to
    /// `dst`. Caller must own `[pos, pos + len)`, and `dst` must be valid
    /// for `len` bytes of writes (it may be uninitialised).
    #[inline]
    unsafe fn read_bytes(&self, pos: usize, dst: *mut u8, len: usize) {
        let (start, first, base) = self.runs(pos, len);
        // SAFETY: both runs lie in `buf` and are the caller's; `dst` is
        // never the ring's own storage.
        unsafe {
            ptr::copy_nonoverlapping(start, dst, first);
            ptr::copy_nonoverlapping(base, dst.add(first), len - first);
        }
    }
}

/// How full a consumer's rings must be, between them, before a push
/// rings its armed [`Doorbell`]: at least `frames` frames or at least
/// `bytes` bytes buffered, length prefixes included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fill {
    /// Frames buffered.
    pub frames: u64,
    /// Bytes buffered.
    pub bytes: usize,
}

/// Low bits of a packed [`Fill`] that count bytes; the frames sit above.
const BYTE_BITS: u32 = 40;
const BYTE_MASK: u64 = (1 << BYTE_BITS) - 1;

impl Fill {
    /// Any frame at all: the first push rings.
    pub const ANY: Fill = Fill {
        frames: 1,
        bytes: 1,
    };

    /// `self` in one word, each field saturating at its top, so a push
    /// adds its frame and its bytes to the bell's count in one atomic
    /// add. The count starts at zero at each arming and stops growing
    /// once it reaches the goal, so neither field overflows into the
    /// other.
    fn pack(self) -> u64 {
        let bytes = (self.bytes as u64).min(BYTE_MASK);
        self.frames.min(u64::MAX >> BYTE_BITS) << BYTE_BITS | bytes
    }

    /// Packed `count` reaches packed `goal` in frames or in bytes.
    fn reaches(count: u64, goal: u64) -> bool {
        count >> BYTE_BITS >= goal >> BYTE_BITS || count & BYTE_MASK >= goal & BYTE_MASK
    }
}

impl std::iter::Sum for Fill {
    fn sum<I: Iterator<Item = Fill>>(fills: I) -> Fill {
        fills.fold(
            Fill {
                frames: 0,
                bytes: 0,
            },
            |a, b| Fill {
                frames: a.frames + b.frames,
                bytes: a.bytes + b.bytes,
            },
        )
    }
}

/// What a sleeping consumer waits for: one line, which every push loads
/// `armed` from and which only pushes while armed, and the consumer's
/// sleeps, write.
#[derive(Default)]
struct Trigger {
    /// The consumer sleeps on the bell.
    armed: AtomicBool,
    /// The fill it waits for, packed.
    goal: AtomicU64,
    /// What its rings hold towards the goal, packed: what they held when
    /// it armed, plus every frame pushed while it is armed.
    count: AtomicU64,
}

/// A sleeping consumer's wakeup, shared by the rings it drains. The
/// consumer arms it at a [`Fill`] for all its rings together
/// ([`RingSet::arm_at`](crate::RingSet::arm_at)); while it is armed
/// every push adds its frame to one count on the bell, and the push that
/// brings the count to the fill fires the wake and disarms. Counting the set, not each ring,
/// means the wake comes at the push that completes the fill however the
/// traffic is spread over the rings.
///
/// No wakeup is lost, Dekker style. The consumer stores the goal, resets
/// the count (`SeqCst`), stores `armed`, fences `SeqCst` and only then
/// reads its rings' `tail`s and frame counts and adds what they hold to
/// the count. The producer counts its frame, stores `tail` (`SeqCst`),
/// then loads `armed` (`SeqCst`) and, if armed, adds its frame to the
/// count (`SeqCst`) and compares it with the goal. For every push, one
/// of the two sees the other's store: the push is counted by itself or
/// by the consumer's look, so the count reaches the fill no later than
/// the rings do, at a push (which rings) or at the consumer's own add
/// (which then does not sleep). A push counted by both only brings the
/// wake early. A push whose add lands before the reset published its
/// `tail` before it, so the consumer's look counts it; one whose add
/// lands after the reset reads the goal stored before it. A push while
/// disarmed costs one load of the trigger line; while armed, one atomic
/// add to it.
#[derive(Default)]
pub struct Doorbell {
    trigger: CachePadded<Trigger>,
    wake: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Doorbell {
    /// Install what ringing does (the consumer's poller wake).
    pub fn set_wake(&self, wake: impl Fn() + Send + Sync + 'static) {
        *self.wake.lock() = Some(Box::new(wake));
    }

    /// Arm for the consumer's rings reaching `fill` between them, then
    /// count what they hold now: `held`, the consumer's last look at its
    /// rings ([`RingConsumer::held`]), runs after arming. `true` if the
    /// consumer may sleep; `false`, with the bell disarmed, if the rings
    /// already hold `fill`, and it must drain instead.
    pub(crate) fn arm_at(&self, fill: Fill, held: impl FnOnce() -> Fill) -> bool {
        let t = &*self.trigger;
        let goal = fill.pack();
        t.goal.store(goal, Ordering::Relaxed);
        t.count.store(0, Ordering::SeqCst);
        t.armed.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let held = held().pack();
        if Fill::reaches(t.count.fetch_add(held, Ordering::SeqCst) + held, goal) {
            self.disarm();
            return false;
        }
        true
    }

    /// The consumer is awake; writes the line only if it is still armed.
    pub fn disarm(&self) {
        let armed = &self.trigger.armed;
        if armed.load(Ordering::Relaxed) {
            armed.store(false, Ordering::Relaxed);
        }
    }

    /// A push published a frame of `bytes` bytes: if armed, count it,
    /// and ring if the count reaches the goal.
    #[inline]
    fn pushed(&self, bytes: usize) {
        let t = &*self.trigger;
        if t.armed.load(Ordering::SeqCst) {
            let one = 1 << BYTE_BITS | bytes as u64;
            let count = t.count.fetch_add(one, Ordering::SeqCst) + one;
            if Fill::reaches(count, t.goal.load(Ordering::Relaxed)) {
                self.ring();
            }
        }
    }

    /// Wake an armed consumer and disarm.
    fn ring(&self) {
        let armed = &self.trigger.armed;
        if armed.load(Ordering::SeqCst) && armed.swap(false, Ordering::SeqCst) {
            if let Some(wake) = &*self.wake.lock() {
                wake();
            }
        }
    }
}

/// The producing half of a [`ByteRing`]. Exactly one exists per ring.
pub struct RingProducer {
    ring: Arc<ByteRing>,
    /// Told of every push; it fires only while the consumer is armed and
    /// the push brings the consumer's rings to the armed fill.
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
        let tail = ring.tail.pos.load(Ordering::Relaxed); // producer owns tail
        let head = ring.head.pos.load(Ordering::Acquire);
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
        // Counted before `tail` publishes the frame, so whoever sees the
        // frame sees it counted. The only writer: a plain store, not a
        // second locked instruction.
        let produced = ring.tail.frames.load(Ordering::Relaxed) + 1;
        ring.tail.frames.store(produced, Ordering::Relaxed);
        ring.tail.pos.store(tail + need, Ordering::SeqCst);
        if let Some(bell) = &self.bell {
            bell.pushed(need);
        }
        true
    }

    /// Bytes currently available for writing.
    pub fn free_bytes(&self) -> usize {
        self.ring.cap - self.occupancy()
    }

    /// Bytes currently buffered (occupancy), from the producer side.
    ///
    /// Reads the producer-owned `tail` first, then `head`: the consumer
    /// can only advance `head` towards `tail`, so the difference is a
    /// conservative (never negative, at-most-stale-high) occupancy —
    /// safe to export as a gauge without racing the consumer.
    pub fn occupancy(&self) -> usize {
        let tail = self.ring.tail.pos.load(Ordering::Relaxed); // owned, exact
        let head = self.ring.head.pos.load(Ordering::Acquire);
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
        let head = ring.head.pos.load(Ordering::Relaxed); // consumer owns head
        let tail = ring.tail.pos.load(Ordering::Acquire);
        let avail = tail - head;
        if avail < LEN_PREFIX {
            debug_assert_eq!(avail, 0, "partial frame in ring");
            return false;
        }
        let mut len_bytes = [0u8; LEN_PREFIX];
        // SAFETY: `[head, tail)` is consumer-owned.
        unsafe { ring.read_bytes(head, len_bytes.as_mut_ptr(), LEN_PREFIX) };
        let len = u32::from_le_bytes(len_bytes) as usize;
        debug_assert!(
            avail >= LEN_PREFIX + len,
            "frame published incompletely: avail={avail} len={len}"
        );
        out.clear();
        out.reserve(len);
        // SAFETY: same ownership; the producer published the whole frame
        // before releasing tail. `out` has room for `len` bytes, all of
        // which the copy initialises before `set_len` exposes them.
        unsafe {
            ring.read_bytes(head + LEN_PREFIX, out.as_mut_ptr(), len);
            out.set_len(len);
        }
        ring.head
            .pos
            .store(head + LEN_PREFIX + len, Ordering::Release);
        // The only writer, like the producer's count.
        let consumed = ring.head.frames.load(Ordering::Relaxed) + 1;
        ring.head.frames.store(consumed, Ordering::Relaxed);
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
        self.occupancy() == 0
    }

    /// The frames and bytes the ring holds now: the consumer's last look
    /// after it armed its [`Doorbell`]. The frame count is read after
    /// `tail`, and the producer counts a frame before it publishes it,
    /// so every byte seen is counted as a frame too.
    pub(crate) fn held(&self) -> Fill {
        let ring = &*self.ring;
        let bytes = self.occupancy();
        let consumed = ring.head.frames.load(Ordering::Relaxed); // owned, exact
        let produced = ring.tail.frames.load(Ordering::Relaxed);
        Fill {
            frames: produced.saturating_sub(consumed),
            bytes,
        }
    }

    /// Bytes currently buffered (occupancy), from the consumer side.
    ///
    /// Reads the consumer-owned `head` first, then `tail`: the producer
    /// can only grow `tail`, so the difference is exact-or-stale-low and
    /// never negative — the gauge cannot race its own drain loop.
    pub fn occupancy(&self) -> usize {
        let head = self.ring.head.pos.load(Ordering::Relaxed); // owned, exact
        let tail = self.ring.tail.pos.load(Ordering::Acquire);
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
    fn a_length_prefix_straddling_the_wrap_round_trips() {
        let (mut p, mut c) = ByteRing::with_capacity(64);
        let mut out = Vec::new();
        // 4 + 58 bytes leave the tail at 62: the next prefix spans
        // bytes 62, 63, 0 and 1, and its payload starts past the wrap.
        assert!(p.push(&[9u8; 58]));
        assert!(c.pop(&mut out));
        let payload: Vec<u8> = (0..20).collect();
        assert!(p.push(&payload));
        assert!(c.pop(&mut out));
        assert_eq!(out, payload);
        // And a payload that itself wraps, after a 3-byte offset.
        assert!(p.push(&[7u8; 35]));
        assert!(c.pop(&mut out));
        let payload: Vec<u8> = (100..140).collect();
        assert!(p.push(&payload));
        assert!(c.pop(&mut out));
        assert_eq!(out, payload);
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
            if bell.arm_at(Fill::ANY, || c.held()) {
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
        let (mut p, mut c) = ByteRing::with_capacity(1 << 10);
        p.bell = Some(Arc::clone(&bell));
        p.push(b"disarmed");
        assert_eq!(
            rung.load(Ordering::Relaxed),
            0,
            "a push while disarmed is silent"
        );
        assert!(!bell.arm_at(Fill::ANY, || c.held()), "a frame is waiting");
        c.pop(&mut Vec::new());
        assert!(bell.arm_at(Fill::ANY, || c.held()));
        p.push(b"first");
        p.push(b"second");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "the first ringer disarms");
        assert!(!bell.arm_at(Fill::ANY, || c.held()));
        p.push(b"after a failed arm");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "the failed arm disarmed");
        c.drain(usize::MAX, |_| {});
        assert!(bell.arm_at(Fill::ANY, || c.held()));
        bell.disarm();
        p.push(b"after a wake");
        assert_eq!(rung.load(Ordering::Relaxed), 1);
    }

    /// A bell whose wakes are counted.
    fn counted_bell() -> (Arc<Doorbell>, Arc<AtomicU64>) {
        let bell = Arc::new(Doorbell::default());
        let rung = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&rung);
        bell.set_wake(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        (bell, rung)
    }

    #[test]
    fn an_armed_fill_rings_at_the_push_that_reaches_it_and_once() {
        let (bell, rung) = counted_bell();
        let (mut p, mut c) = ByteRing::with_capacity(1 << 10);
        p.bell = Some(Arc::clone(&bell));
        // By frames: the fifth frame in the ring rings, not the fourth.
        let fill = Fill {
            frames: 5,
            bytes: usize::MAX,
        };
        assert!(bell.arm_at(fill, || c.held()));
        for i in 0..4u32 {
            p.push(&i.to_le_bytes());
        }
        assert_eq!(c.held().frames, 4);
        assert_eq!(rung.load(Ordering::Relaxed), 0, "below the fill");
        p.push(b"5th!");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "the crossing push");
        p.push(b"6th!");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "it disarmed");
        // What the ring holds when the consumer arms counts: with two
        // frames left in it, the third new one rings.
        let mut out = Vec::new();
        for _ in 0..4 {
            c.pop(&mut out);
        }
        assert!(bell.arm_at(fill, || c.held()));
        p.push(b"more");
        p.push(b"more");
        assert_eq!(rung.load(Ordering::Relaxed), 1);
        p.push(b"more");
        assert_eq!(rung.load(Ordering::Relaxed), 2);
        // Armed at what the ring already holds: no sleep, and disarmed.
        assert!(!bell.arm_at(fill, || c.held()));
        p.push(b"more");
        assert_eq!(rung.load(Ordering::Relaxed), 2);
        while c.pop(&mut out) {}
        // By bytes: three 12-byte frames reach 36 bytes, two do not.
        let fill = Fill {
            frames: u64::MAX,
            bytes: 36,
        };
        assert!(bell.arm_at(fill, || c.held()));
        p.push(&[0u8; 8]);
        p.push(&[0u8; 8]);
        assert_eq!(c.held().bytes, 24);
        assert_eq!(rung.load(Ordering::Relaxed), 2, "24 of 36 bytes");
        p.push(&[0u8; 8]);
        assert_eq!(rung.load(Ordering::Relaxed), 3, "36 of 36 bytes");
    }

    #[test]
    fn rings_sharing_a_bell_ring_at_the_push_that_fills_them_together() {
        let (bell, rung) = counted_bell();
        let (mut producers, mut consumers): (Vec<_>, Vec<_>) =
            (0..3).map(|_| ByteRing::with_capacity(1 << 10)).unzip();
        for p in &mut producers {
            p.bell = Some(Arc::clone(&bell));
        }
        let held = |cs: &[RingConsumer]| cs.iter().map(RingConsumer::held).sum();
        let fill = Fill {
            frames: 7,
            bytes: usize::MAX,
        };
        // Spread: two frames in each ring are six, and the seventh rings,
        // whichever ring it lands in.
        assert!(bell.arm_at(fill, || held(&consumers)));
        for p in &mut producers {
            p.push(b"a");
            p.push(b"b");
        }
        assert_eq!(rung.load(Ordering::Relaxed), 0);
        producers[1].push(b"c");
        assert_eq!(rung.load(Ordering::Relaxed), 1, "the seventh frame");
        for c in &mut consumers {
            c.drain(usize::MAX, |_| {});
        }
        // Skewed: one busy ring beside two quiet ones rings at its own
        // seventh frame, not later.
        assert!(bell.arm_at(fill, || held(&consumers)));
        for i in 0..6u8 {
            producers[2].push(&[i]);
        }
        assert_eq!(rung.load(Ordering::Relaxed), 1);
        producers[2].push(b"7");
        assert_eq!(rung.load(Ordering::Relaxed), 2, "one ring's seventh");
        // What the quiet rings hold when the consumer arms counts too.
        consumers[2].drain(usize::MAX, |_| {});
        producers[0].push(b"early");
        assert!(bell.arm_at(fill, || held(&consumers)));
        for _ in 0..5 {
            producers[2].push(b"x");
        }
        assert_eq!(rung.load(Ordering::Relaxed), 2);
        producers[2].push(b"x");
        assert_eq!(rung.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_packed_fill_compares_each_field_on_its_own() {
        let goal = Fill {
            frames: 3,
            bytes: 100,
        }
        .pack();
        let count = |frames, bytes| Fill { frames, bytes }.pack();
        assert!(!Fill::reaches(count(2, 99), goal));
        assert!(Fill::reaches(count(3, 0), goal));
        assert!(Fill::reaches(count(0, 100), goal));
        // A goal beyond a field's top saturates rather than wraps.
        let far = Fill {
            frames: u64::MAX,
            bytes: usize::MAX,
        }
        .pack();
        assert!(!Fill::reaches(count(1 << 20, 1 << 30), far));
        assert!(Fill::reaches(count(0, 1), Fill::ANY.pack()));
    }
}
