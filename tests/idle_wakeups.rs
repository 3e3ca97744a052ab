//! Workspace test: an idle ISM sleeps. Its one thread, which also writes
//! the store, waits on input or its nearest deadline, so with no traffic
//! it barely wakes, and a quiet client costs about one wakeup per
//! frame it exchanges. A connected EXS with nothing to send sleeps too,
//! until its heartbeat, a sync poll or its rings' doorbell, and a paced
//! one wakes a few times per batch it ships, not on a period.
//!
//! Threads are counted per process by name (`/proc/self/task/*/comm`), so
//! this file is its own test binary and holds a single test.

use brisk_clock::SystemClock;
use brisk_core::{EventTypeId, ExsConfig, IsmConfig, NodeId, StoreConfig, SyncConfig, UtcMicros};
use brisk_ism::IsmServer;
use brisk_lis::spawn_exs;
use brisk_net::{MemTransport, Transport};
use brisk_proto::Message;
use brisk_ringbuf::RingSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name prefix of the server's one thread (`comm` keeps 15 bytes).
const SERVER_THREADS: [&str; 1] = ["brisk-reactor"];
/// How long each phase is measured.
const WINDOW: Duration = Duration::from_secs(2);
/// Wakeups per second the server may spend on its own.
const IDLE_BUDGET: f64 = 20.0;

/// The `/proc/self/task` entries of the threads whose name starts with
/// one of `prefixes`.
fn tasks(prefixes: &[&str]) -> Vec<PathBuf> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
    tasks
        .map(|task| task.path())
        .filter(|task| {
            let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
            prefixes.iter().any(|p| comm.starts_with(p))
        })
        .collect()
}

/// Voluntary plus involuntary context switches of the server's threads.
fn server_switches() -> u64 {
    switches(&SERVER_THREADS)
}

/// Voluntary plus involuntary context switches of the threads whose name
/// starts with one of `threads`.
fn switches(threads: &[&str]) -> u64 {
    let mut total = 0;
    for task in tasks(threads) {
        let status = std::fs::read_to_string(task.join("status")).unwrap_or_default();
        total += status
            .lines()
            .filter(|l| l.starts_with("voluntary_ctxt") || l.starts_with("nonvoluntary_ctxt"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
            .sum::<u64>();
    }
    total
}

/// Server wakeups per second over one [`WINDOW`].
fn wakeups_per_s() -> f64 {
    let before = server_switches();
    std::thread::sleep(WINDOW);
    (server_switches() - before) as f64 / WINDOW.as_secs_f64()
}

#[test]
fn an_idle_server_sleeps_until_input_or_a_deadline() {
    if !Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no /proc/self/task");
        return;
    }
    let dir = std::env::temp_dir().join(format!("brisk-idle-wakeups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = MemTransport::new();
    let server = IsmServer::new(
        IsmConfig {
            store: StoreConfig::at(dir.clone()),
            ..IsmConfig::default()
        },
        SyncConfig {
            poll_period: Duration::from_secs(1),
            ..SyncConfig::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap();
    let handle = server.spawn(t.listen("ism").unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // One loop thread polls the listener and every connection, however
    // many CPUs the host has, and owns the pipeline and the store: no
    // manager thread, no store writer thread.
    assert_eq!(tasks(&["brisk-reactor"]).len(), 1, "reactor threads");
    assert!(tasks(&["brisk-ism-manag"]).is_empty(), "a manager thread");
    assert!(tasks(&["brisk-store"]).is_empty(), "a store writer thread");

    // No connections: nothing is due, so nothing wakes.
    let idle = wakeups_per_s();
    assert!(
        idle <= IDLE_BUDGET,
        "an idle server woke {idle:.1} times a second"
    );

    // One quiet client: a heartbeat every 500 ms, and the answers to the
    // server's sync polls (a round a second). Every frame either way may
    // wake the server once.
    let mut conn = t.connect("ism").unwrap();
    conn.send(
        &Message::Hello {
            node: NodeId(1),
            version: brisk_proto::VERSION,
        }
        .encode(),
    )
    .unwrap();
    let frames = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let (frames, stop) = (Arc::clone(&frames), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut next_beat = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if Instant::now() >= next_beat {
                    conn.send(&Message::Heartbeat.encode()).unwrap();
                    frames.fetch_add(1, Ordering::Relaxed);
                    next_beat += Duration::from_millis(500);
                }
                let wait = next_beat.saturating_duration_since(Instant::now());
                let Ok(Some(frame)) = conn.recv(Some(wait.min(Duration::from_millis(50)))) else {
                    continue;
                };
                frames.fetch_add(1, Ordering::Relaxed);
                if let Ok(Message::SyncPoll {
                    round,
                    sample,
                    master_send,
                }) = Message::decode(&frame)
                {
                    let reply = Message::SyncReply {
                        round,
                        sample,
                        master_send,
                        slave_time: UtcMicros::now(),
                    };
                    conn.send(&reply.encode()).unwrap();
                    frames.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let before = frames.load(Ordering::Relaxed);
    let busy = wakeups_per_s();
    let frame_rate = (frames.load(Ordering::Relaxed) - before) as f64 / WINDOW.as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    client.join().unwrap();

    // A connected EXS with nothing to send: it wakes for its heartbeat
    // (500 ms), the sync polls it answers and a few more, and the first
    // record rings it awake.
    let rings = RingSet::new(NodeId(2), 1 << 16);
    let mut port = rings.register();
    let exs_cfg = ExsConfig {
        heartbeat_interval: Duration::from_millis(500),
        ..ExsConfig::default()
    };
    let flush = exs_cfg.flush_timeout;
    let conn = t.connect("ism").unwrap();
    let exs = spawn_exs(NodeId(2), rings, Arc::new(SystemClock), conn, exs_cfg).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let answered = exs.stats_now().link.sync_replies;
    let before = switches(&["brisk-exs"]);
    std::thread::sleep(WINDOW);
    let exs_wakeups = (switches(&["brisk-exs"]) - before) as f64 / WINDOW.as_secs_f64();
    let polls = (exs.stats_now().link.sync_replies - answered) as f64 / WINDOW.as_secs_f64();
    assert!(
        exs_wakeups <= 2.0 + polls + 5.0,
        "an idle EXS woke {exs_wakeups:.1} times a second for {polls:.1} sync polls"
    );
    let delivered = handle.memory().written();
    let emitted = Instant::now();
    port.emit(EventTypeId(1), UtcMicros::now(), vec![]).unwrap();
    while handle.memory().written() == delivered {
        assert!(
            emitted.elapsed() < flush + Duration::from_millis(50),
            "a record into an idle EXS was not delivered within the flush timeout"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The same EXS paced at 2 000 records a second, default knobs. Per
    // batch it wakes three times: the batch's first record rings it, the
    // record that fills the batch or (at this rate) the flush deadline
    // wakes it again, and the batch's ack is link input. Sync polls and
    // adjustments wake it too, and nothing else does: no period.
    let before = (switches(&["brisk-exs"]), exs.stats_now());
    let (start, mut emitted) = (Instant::now(), 0u64);
    while start.elapsed() < WINDOW {
        let due = start.elapsed().as_micros() as u64 * 2_000 / 1_000_000;
        while emitted < due {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![]).unwrap();
            emitted += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (after, stats) = (switches(&["brisk-exs"]), exs.stats_now());
    let paced_wakeups = after - before.0;
    let batches = stats.batches_sent - before.1.batches_sent;
    let link = stats.link.heartbeats_sent + stats.link.sync_replies + stats.adjustments
        - (before.1.link.heartbeats_sent + before.1.link.sync_replies + before.1.adjustments);
    assert!(batches > 0, "no batch shipped from {emitted} records");
    assert!(
        paced_wakeups <= 3 * batches + link + 10,
        "a paced EXS woke {paced_wakeups} times for {batches} batches and \
         {link} heartbeats, sync polls and adjustments"
    );
    exs.stop().unwrap();

    let report = handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.sync_rounds >= 1, "the client must have been polled");
    assert!(
        busy <= frame_rate + IDLE_BUDGET,
        "a server with one quiet client woke {busy:.1} times a second \
         for {frame_rate:.1} frames a second"
    );
}
