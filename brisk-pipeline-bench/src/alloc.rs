//! Counting global allocator, armed only during the timed phase.
//!
//! Counts land in per-thread shards so the sensor, EXS, reactor and
//! manager threads do not bounce one cache line between two cores. A
//! thread may exempt itself — the bench's own observers (the store
//! tailer, whose poll cadence is the harness's choice, not the
//! pipeline's) must not drown the product's allocations — or have
//! itself counted apart: the query thread's allocations are the read
//! path's, per query, not the ingest path's, per record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initializer only
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static APART: Shard = EMPTY;
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

const UNASSIGNED: usize = usize::MAX;
const EXEMPT: usize = usize::MAX - 1;
const COUNTED_APART: usize = usize::MAX - 2;

thread_local! {
    // Const-initialised and destructor-free, so reading it from inside
    // the allocator neither allocates nor touches a torn-down slot.
    static SHARD: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

pub struct CountingAlloc;

#[inline]
fn note(bytes: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let shard = SHARD.with(|s| {
        let mut i = s.get();
        if i == UNASSIGNED {
            i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(i);
        }
        i
    });
    let counts = match shard {
        EXEMPT => return,
        COUNTED_APART => &APART,
        i => &COUNTS[i],
    };
    counts.allocs.fetch_add(1, Ordering::Relaxed);
    counts.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer; the counting beside it only touches atomics and a
// const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which always delegates to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start counting. Returns the totals so far, for the caller to subtract.
pub fn arm() -> (u64, u64) {
    let before = totals();
    ARMED.store(true, Ordering::SeqCst);
    before
}

/// Stop counting and return the totals.
pub fn disarm() -> (u64, u64) {
    ARMED.store(false, Ordering::SeqCst);
    totals()
}

/// (allocations, bytes requested) counted so far.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Exclude the calling thread's allocations from the counts.
pub fn exempt_this_thread() {
    SHARD.with(|s| s.set(EXEMPT));
}

/// Count the calling thread's allocations apart from `totals`.
pub fn count_this_thread_apart() {
    SHARD.with(|s| s.set(COUNTED_APART));
}

/// (allocations, bytes requested) by threads counted apart, while armed.
pub fn apart_totals() -> (u64, u64) {
    (
        APART.allocs.load(Ordering::Relaxed),
        APART.bytes.load(Ordering::Relaxed),
    )
}
