//! The counting allocator's zero-noise guarantee. One test per binary:
//! arming is process-wide, so nothing else may run beside it.

use brisk_pipeline_bench::alloc;

#[test]
fn armed_idle_interval_counts_exactly_zero_and_real_allocations_count() {
    // The harness's own measurement path: pre-sized sample buffer,
    // timer reads, pushes within capacity.
    let mut samples: Vec<u32> = Vec::with_capacity(4096);
    let before = alloc::arm();
    let t0 = std::time::Instant::now();
    while t0.elapsed() < std::time::Duration::from_millis(50) {
        if samples.len() < samples.capacity() {
            samples.push(t0.elapsed().as_nanos() as u32);
        }
    }
    let after = alloc::disarm();
    assert_eq!(after, before, "harness path allocated while armed");
    assert!(samples.len() > 1);

    // A real allocation while armed is counted, with its size...
    let (a0, b0) = alloc::arm();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    let (a1, b1) = alloc::disarm();
    assert_eq!((a1 - a0, b1 - b0), (1, 4096));

    // ...but not while disarmed...
    let w: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&w);
    assert_eq!(alloc::totals(), (a1, b1));

    // ...and not on a thread that exempted itself. (Spawning allocates a
    // little on this, counted, thread; the 1 MiB buffer must not appear.)
    alloc::arm();
    std::thread::spawn(|| {
        alloc::exempt_this_thread();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
    })
    .join()
    .unwrap();
    let (_, b2) = alloc::disarm();
    assert!(
        b2 - b1 < 1 << 20,
        "exempt thread counted: {} bytes",
        b2 - b1
    );

    // A thread counted apart shows up there and only there.
    alloc::arm();
    std::thread::spawn(|| {
        alloc::count_this_thread_apart();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
    })
    .join()
    .unwrap();
    let (_, b3) = alloc::disarm();
    assert!(b3 - b2 < 1 << 20);
    assert_eq!(alloc::apart_totals(), (1, 1 << 20));
}
