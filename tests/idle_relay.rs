//! Workspace test: an idle relay answers its parent's sync polls at once
//! and otherwise sleeps. A relay's upstream link is one more fd in a
//! reactor poll set, so a `SyncPoll` wakes the manager that answers it,
//! and nothing reads the link on a timer.
//!
//! Threads are counted per process by name (`/proc/self/task/*/comm`), so
//! this file is its own test binary and holds a single test.

use brisk_clock::SystemClock;
use brisk_core::{IsmConfig, SyncConfig, UtcMicros};
use brisk_ism::{IsmServer, RelayConfig, UpstreamExporter};
use brisk_net::{Connection, MemTransport, Transport};
use brisk_proto::{Message, NodePrefix};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sync rounds the fake parent runs, one a second.
const ROUNDS: u32 = 5;
/// Samples per round, polled back to back as the master does.
const SAMPLES: u32 = 4;
/// The slowest answer to any one poll.
const RTT_BOUND: Duration = Duration::from_millis(50);
/// Wakeups per second the relay may spend beyond two per frame.
const IDLE_BUDGET: f64 = 20.0;

/// Voluntary plus involuntary context switches of the `brisk-*` threads.
fn relay_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with("brisk-") {
            continue;
        }
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        total += status
            .lines()
            .filter(|l| l.starts_with("voluntary_ctxt") || l.starts_with("nonvoluntary_ctxt"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
            .sum::<u64>();
    }
    total
}

/// The next frame from the relay within `wait`, counted in `frames`.
fn next_frame(conn: &mut Box<dyn Connection>, wait: Duration, frames: &mut u64) -> Option<Message> {
    let frame = conn.recv(Some(wait)).unwrap()?;
    *frames += 1;
    Some(Message::decode(&frame).unwrap())
}

#[test]
fn an_idle_relay_answers_sync_polls_at_once_and_sleeps() {
    if !Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no /proc/self/task");
        return;
    }
    let t = MemTransport::new();
    let mut parent = t.listen("parent").unwrap();
    let mut relay = IsmServer::new(
        IsmConfig::default(),
        SyncConfig {
            poll_period: Duration::from_secs(60),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let dial = Arc::clone(&t);
    relay.set_upstream(UpstreamExporter::new(
        RelayConfig::new(NodePrefix::new(1).unwrap()),
        Box::new(move || dial.connect("parent")),
        Arc::new(SystemClock),
    ));
    let handle = relay.spawn(t.listen("relay").unwrap()).unwrap();

    let mut link = parent
        .accept(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("the relay dials its parent");
    let mut frames = 0u64;
    match next_frame(&mut link, Duration::from_secs(5), &mut frames) {
        Some(Message::Hello { .. }) => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    let ack = Message::HelloAck {
        version: brisk_proto::VERSION,
        credit: 1024,
    };
    link.send(&ack.encode()).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // One round a second: four polls back to back, each sent once the
    // last is answered, then the round's adjustment.
    frames = 0;
    let mut rtts = Vec::new();
    let before = relay_switches();
    let started = Instant::now();
    for round in 1..=u64::from(ROUNDS) {
        for sample in 0..SAMPLES {
            let sent = Instant::now();
            let poll = Message::SyncPoll {
                round,
                sample,
                master_send: UtcMicros::now(),
            };
            link.send(&poll.encode()).unwrap();
            frames += 1;
            let rtt = loop {
                let left = Duration::from_secs(2).saturating_sub(sent.elapsed());
                match next_frame(&mut link, left, &mut frames) {
                    Some(Message::SyncReply {
                        round: r,
                        sample: s,
                        ..
                    }) if (r, s) == (round, sample) => break sent.elapsed(),
                    Some(Message::Heartbeat | Message::SyncReply { .. }) => {}
                    Some(other) => panic!("unexpected {other:?}"),
                    None => panic!("round {round} sample {sample} unanswered"),
                }
            };
            rtts.push(rtt);
        }
        let adjust = Message::SyncAdjust {
            round,
            advance_us: 0,
        };
        link.send(&adjust.encode()).unwrap();
        frames += 1;
        // Idle until the next round: the relay only heartbeats.
        let next = Duration::from_secs(round);
        while started.elapsed() < next {
            let left = next.saturating_sub(started.elapsed());
            match next_frame(&mut link, left, &mut frames) {
                Some(Message::Heartbeat) | None => {}
                Some(other) => panic!("unexpected {other:?}"),
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let wakeups = (relay_switches() - before) as f64 / elapsed;
    let frame_rate = frames as f64 / elapsed;

    drop(link);
    handle.stop().unwrap();
    let us: Vec<u128> = rtts.iter().map(Duration::as_micros).collect();
    eprintln!("SyncPoll→SyncReply RTTs (µs), {SAMPLES} per round: {us:?}");
    eprintln!("relay wakeups {wakeups:.1}/s for {frame_rate:.1} frames/s");
    let slowest = rtts.iter().max().unwrap();
    assert!(
        *slowest < RTT_BOUND,
        "a sync poll waited {slowest:?} for its answer (RTTs µs: {us:?})"
    );
    assert!(
        wakeups <= 2.0 * frame_rate + IDLE_BUDGET,
        "an idle relay woke {wakeups:.1} times a second for {frame_rate:.1} frames a second"
    );
}
