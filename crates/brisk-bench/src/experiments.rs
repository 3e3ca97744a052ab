//! The experiment implementations, one per evaluation item of §4.
//!
//! Every function prints one or more tables and returns false only when
//! a bar it gates is exceeded (only S1 gates any); the `experiments`
//! binary maps subcommands onto them. `quick` shrinks durations for
//! CI-style smoke runs.

use crate::rig::{blast_events, paced_events, six_i32_fields, start_ism, start_node};
use crate::table::{f, Table};
use brisk_clock::{Clock, Hlc, SystemClock};
use brisk_consumers::{LatencyTracker, SummaryStats};
use brisk_core::config::FrameGrowth;
use brisk_core::{
    EventRecord, EventTypeId, ExsConfig, FsyncPolicy, IsmConfig, NodeId, OrderMode, SensorId,
    SorterConfig, StoreConfig, SyncConfig, UtcMicros, Value,
};
use brisk_ism::IsmCore;
use brisk_lis::spawn_exs;
use brisk_net::{MemTransport, TcpTransport, Transport};
use brisk_ringbuf::{RingSet, SensorPort};
use brisk_sim::{
    run_causal_experiment, run_sorting_experiment, CausalConfig, DelayModel, SortingConfig,
    SyncSimConfig, SyncSimulation,
};
use brisk_telemetry::{Registry, TraceSampler};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E1 — cost of one `NOTICE` (paper: 3.6–18.6 µs across platforms).
pub fn e1_notice_cost(quick: bool) -> bool {
    type ShapeFn = Box<dyn Fn(u64) -> Vec<Value>>;
    let iters: u64 = if quick { 50_000 } else { 500_000 };
    let shapes: Vec<(&str, ShapeFn)> = vec![
        ("0 fields", Box::new(|_| vec![])),
        ("2 x i32", Box::new(|i| vec![Value::I32(i as i32); 2])),
        ("6 x i32 (paper)", Box::new(six_i32_fields)),
        ("8 x i32", Box::new(|i| vec![Value::I32(i as i32); 8])),
        (
            "ts + str(16)",
            Box::new(|i| {
                vec![
                    Value::Ts(UtcMicros::from_micros(i as i64)),
                    Value::Str("abcdefgh12345678".into()),
                ]
            }),
        ),
        (
            "mixed 4",
            Box::new(|i| {
                vec![
                    Value::I64(i as i64),
                    Value::F64(i as f64),
                    Value::U8(i as u8),
                    Value::Bool(i % 2 == 0),
                ]
            }),
        ),
    ];

    let mut table = Table::new(&["record shape", "ns/notice", "us/notice", "Mev/s"]);
    for (name, make) in shapes {
        let rings = RingSet::new(NodeId(0), 1 << 22);
        let mut port = rings.register();
        // Dedicated drainer so the ring never fills.
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let rings = Arc::clone(&rings);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    buf.clear();
                    if rings.drain_into(4096, &mut buf).unwrap_or(0) == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let clock = SystemClock;
        let start = Instant::now();
        for i in 0..iters {
            // The full sensor path: clock read + record build + ring write.
            let _ = port.emit(EventTypeId(1), clock.now(), make(i));
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        drainer.join().unwrap();
        let ns = elapsed.as_nanos() as f64 / iters as f64;
        table.row(&[name.to_string(), f(ns), f(ns / 1_000.0), f(1_000.0 / ns)]);
    }
    table.print("E1: CPU cost per NOTICE (paper: 3.6–18.6 µs on 1996-era CPUs)");
    true
}

/// E2 — EXS CPU utilization at fixed event rates (paper: <1% up to
/// 38,000 ev/s): the `brisk-exs-1` thread's CPU over the paced window.
pub fn e2_exs_utilization(quick: bool) -> bool {
    let duration = Duration::from_millis(if quick { 500 } else { 2_000 });
    let rates = [1_000.0, 10_000.0, 38_000.0, 80_000.0];
    let mut table = Table::new(&[
        "target ev/s",
        "achieved ev/s",
        "EXS CPU %",
        "wakeups/s",
        "CPU µs/wakeup",
        "dropped",
    ]);
    for rate in rates {
        let t = MemTransport::new();
        let mut listener = t.listen("sink").unwrap();
        // Bare sink: consumes frames so the EXS is measured in isolation.
        let sink_stop = Arc::new(AtomicBool::new(false));
        let sink = {
            let stop = Arc::clone(&sink_stop);
            std::thread::spawn(move || {
                let mut conn = listener
                    .accept(Some(Duration::from_secs(5)))
                    .unwrap()
                    .unwrap();
                while !stop.load(Ordering::Relaxed) {
                    match conn.recv(Some(Duration::from_millis(20))) {
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            })
        };
        let clock = Arc::new(SystemClock);
        let rings = RingSet::new(NodeId(1), 1 << 22);
        let exs = spawn_exs(
            NodeId(1),
            Arc::clone(&rings),
            clock.clone(),
            t.connect("sink").unwrap(),
            ExsConfig::default(),
        )
        .unwrap();
        let mut port = rings.register();
        // A thread this young may not carry its name yet; it has barely
        // run either, so it starts the window at zero.
        let start = thread_sched("brisk-exs-1").unwrap_or_default();
        let wall = Instant::now();
        let (emitted, dropped) = paced_events(&mut port, &SystemClock, rate, duration);
        let wall = wall.elapsed();
        let used = thread_sched("brisk-exs-1").map(|end| end.since(start));
        std::thread::sleep(Duration::from_millis(60)); // let the EXS drain
        exs.stop().unwrap();
        sink_stop.store(true, Ordering::Relaxed);
        sink.join().unwrap();
        let na = || "n/a".to_string();
        let secs = wall.as_secs_f64();
        table.row(&[
            f(rate),
            f(emitted as f64 / secs),
            used.map_or_else(na, |u| f(100.0 * u.cpu_ns as f64 / 1e9 / secs)),
            used.map_or_else(na, |u| f(u.wakeups as f64 / secs)),
            used.map_or_else(na, |u| f(u.cpu_ns as f64 / 1e3 / u.wakeups.max(1) as f64)),
            dropped.to_string(),
        ]);
    }
    table.print("E2: EXS CPU utilization vs event rate (paper: <1% at 38k ev/s)");
    true
}

/// What a thread has used of the CPU so far.
#[derive(Clone, Copy, Default)]
struct ThreadSched {
    /// Run time in ns: the first field of `schedstat`, which unlike wall
    /// time inside a pass leaves out time spent preempted.
    cpu_ns: u64,
    /// Times it went to sleep of its own accord (`voluntary_ctxt_switches`
    /// in `status`): one per wait that blocked, so one per wakeup.
    wakeups: u64,
}

impl ThreadSched {
    fn since(self, start: ThreadSched) -> ThreadSched {
        ThreadSched {
            cpu_ns: self.cpu_ns - start.cpu_ns,
            wakeups: self.wakeups - start.wakeups,
        }
    }
}

/// [`ThreadSched`] of the thread named `name`, from
/// `/proc/self/task/<tid>`. `None` without procfs.
fn thread_sched(name: &str) -> Option<ThreadSched> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    tasks.flatten().find_map(|task| {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        if comm.trim_end() != name {
            return None;
        }
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        let status = std::fs::read_to_string(task.path().join("status")).ok()?;
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
        Some(ThreadSched {
            cpu_ns: stat.split_whitespace().next()?.parse().ok()?,
            wakeups: voluntary.trim().parse().ok()?,
        })
    })
}

/// E3 — maximum EXS→ISM event throughput (paper: 90,000 ev/s for 40-byte
/// records over 155 Mbps ATM).
pub fn e3_throughput(quick: bool) -> bool {
    let events: u64 = if quick { 50_000 } else { 400_000 };
    let mut table = Table::new(&["transport", "batch records", "events/s", "MB/s (wire)"]);
    for (tname, use_tcp) in [("mem", false), ("tcp-loopback", true)] {
        for batch in [16usize, 64, 256, 1024] {
            let mem;
            let tcp;
            let (transport, addr): (&dyn Transport, String) = if use_tcp {
                tcp = TcpTransport;
                (&tcp, "127.0.0.1:0".to_string())
            } else {
                mem = MemTransport::new();
                (&mem, "ism".to_string())
            };
            let ism_cfg = IsmConfig {
                sorter: SorterConfig {
                    initial_frame_us: 100,
                    min_frame_us: 100,
                    ..SorterConfig::default()
                },
                ..IsmConfig::default()
            };
            let ism = start_ism(transport, &addr, ism_cfg, SyncConfig::default()).unwrap();
            let exs_cfg = ExsConfig {
                max_batch_records: batch,
                max_batch_bytes: usize::MAX >> 1,
                ring_capacity: 1 << 22,
                ..ExsConfig::default()
            };
            let node = start_node(transport, ism.addr(), NodeId(1), exs_cfg).unwrap();
            let mut port = node.lis.register();
            let mut reader = ism.memory().reader_from_now();
            let start = Instant::now();
            let gen = std::thread::spawn(move || blast_events(&mut port, &SystemClock, events));
            let mut delivered: u64 = 0;
            let deadline = Instant::now() + Duration::from_secs(60);
            while delivered < events && Instant::now() < deadline {
                let (recs, missed) = reader.poll().unwrap();
                delivered += recs.len() as u64 + missed;
                if recs.is_empty() {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let elapsed = start.elapsed();
            gen.join().unwrap();
            node.exs.stop().unwrap();
            ism.stop().unwrap();
            let rate = delivered as f64 / elapsed.as_secs_f64();
            // 56 wire bytes per six-i32 record body (see brisk-xdr tests).
            let mbps = rate * 56.0 / 1e6;
            table.row(&[tname.to_string(), batch.to_string(), f(rate), f(mbps)]);
        }
    }
    table.print("E3: max EXS→ISM throughput (paper: 90,000 ev/s @ 40 B/record)");
    true
}

/// E4 — delivery latency vs the flush-timeout knob (paper: worst case
/// bounded by the 40 ms select timeout).
pub fn e4_latency(quick: bool) -> bool {
    let duration = Duration::from_millis(if quick { 600 } else { 2_000 });
    let mut table = Table::new(&["flush timeout", "p50 us", "p95 us", "p99 us", "max us"]);
    for flush_ms in [1u64, 5, 40] {
        let t = MemTransport::new();
        let ism_cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: 100,
                min_frame_us: 100,
                max_frame_us: 1_000,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        let ism = start_ism(&t, "ism", ism_cfg, SyncConfig::default()).unwrap();
        let exs_cfg = ExsConfig {
            flush_timeout: Duration::from_millis(flush_ms),
            max_batch_records: 10_000, // only the timeout flushes
            max_batch_bytes: usize::MAX >> 1,
            ..ExsConfig::default()
        };
        let node = start_node(&t, "ism", NodeId(1), exs_cfg).unwrap();
        let mut port = node.lis.register();
        let mut reader = ism.memory().reader_from_now();
        let mut tracker = LatencyTracker::new();
        let gen =
            std::thread::spawn(move || paced_events(&mut port, &SystemClock, 200.0, duration));
        let deadline = Instant::now() + duration + Duration::from_millis(300);
        while Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            let now = UtcMicros::now();
            for r in &recs {
                tracker.observe(r, now);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        gen.join().unwrap();
        node.exs.stop().unwrap();
        ism.stop().unwrap();
        let s: SummaryStats = tracker.summary();
        table.row(&[
            format!("{flush_ms} ms"),
            f(s.p50),
            f(s.p95),
            f(s.p99),
            f(s.max),
        ]);
    }
    table.print("E4: delivery latency vs flush timeout (paper: worst case ≈ 40 ms select)");
    true
}

/// E5 — ISM scalability: aggregate throughput vs number of EXS nodes
/// (paper: roughly constant up to 8 nodes; the ISM CPU is the bottleneck).
pub fn e5_scalability(quick: bool) -> bool {
    let per_node: u64 = if quick { 30_000 } else { 150_000 };
    let mut table = Table::new(&["EXS nodes", "aggregate ev/s", "per-node ev/s"]);
    for nodes in 1..=8usize {
        let t = MemTransport::new();
        let ism_cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: 100,
                min_frame_us: 100,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        let ism = start_ism(&t, "ism", ism_cfg, SyncConfig::default()).unwrap();
        let mut reader = ism.memory().reader_from_now();
        let mut handles = Vec::new();
        let mut gens = Vec::new();
        for n in 0..nodes {
            let exs_cfg = ExsConfig {
                max_batch_records: 256,
                ring_capacity: 1 << 21,
                ..ExsConfig::default()
            };
            let node = start_node(&t, "ism", NodeId(n as u32), exs_cfg).unwrap();
            let mut port = node.lis.register();
            gens.push(std::thread::spawn(move || {
                blast_events(&mut port, &SystemClock, per_node)
            }));
            handles.push(node.exs);
        }
        let total = per_node * nodes as u64;
        let start = Instant::now();
        let mut delivered: u64 = 0;
        let deadline = Instant::now() + Duration::from_secs(120);
        while delivered < total && Instant::now() < deadline {
            let (recs, missed) = reader.poll().unwrap();
            delivered += recs.len() as u64 + missed;
            if recs.is_empty() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let elapsed = start.elapsed();
        for g in gens {
            g.join().unwrap();
        }
        for h in handles {
            h.stop().unwrap();
        }
        ism.stop().unwrap();
        let rate = delivered as f64 / elapsed.as_secs_f64();
        table.row(&[nodes.to_string(), f(rate), f(rate / nodes as f64)]);
    }
    table.print("E5: ISM aggregate throughput vs #EXS (paper: ~constant, ISM-bound)");
    true
}

/// E6 — clock-synchronization quality on the simulated cluster (paper: 8
/// EXS, 5 s polling, 10 min; within ~100–200 µs, disturbances push above).
pub fn e6_clock_sync(quick: bool) -> bool {
    let duration = Duration::from_secs(if quick { 120 } else { 600 });
    let mut table = Table::new(&[
        "scenario",
        "initial us",
        "max post-warmup us",
        "mean us",
        "% samples <200us",
        "rounds",
    ]);
    for (name, delay) in [
        ("quiet LAN", DelayModel::quiet_lan()),
        ("disturbed LAN", DelayModel::disturbed_lan()),
    ] {
        let cfg = SyncSimConfig {
            duration,
            delay,
            ..SyncSimConfig::default()
        };
        let r = SyncSimulation::new(cfg).run().unwrap();
        table.row(&[
            name.to_string(),
            r.initial_spread_us.to_string(),
            r.max_spread_after_warmup_us.to_string(),
            f(r.mean_spread_after_warmup_us),
            f(100.0 * r.fraction_under_200us),
            r.rounds.to_string(),
        ]);
    }
    table.print("E6: clock sync quality, 8 EXS, 5 s polling (paper: <200 µs most of the time)");
    true
}

/// E7 — on-line sorting parameter study (paper: four parameters varied).
pub fn e7_sorting(quick: bool) -> bool {
    let events = if quick { 2_000 } else { 10_000 };
    let heavy_jitter = DelayModel {
        base_us: 100,
        jitter_us: 2_000,
        ..DelayModel::ideal()
    };
    let spiky = DelayModel {
        base_us: 100,
        jitter_us: 500,
        spike_probability: 0.05,
        spike_us: 8_000,
        ..DelayModel::ideal()
    };

    let base = |sorter: SorterConfig, delay: DelayModel| SortingConfig {
        nodes: 4,
        events_per_node: events,
        arrivals: brisk_sim::ArrivalProcess::Uniform {
            rate_hz: 1_000.0,
            jitter: 0.5,
        },
        delay,
        sorter,
        seed: 0x50_127,
    };
    let fixed = |t_us: i64| SorterConfig {
        initial_frame_us: t_us,
        min_frame_us: t_us,
        max_frame_us: t_us,
        decay_factor: 1.0,
        ..SorterConfig::default()
    };

    // (1) Fixed time frame T: the ordering/latency trade-off.
    let mut t1 = Table::new(&[
        "fixed T us",
        "inversion rate",
        "mean added lat us",
        "max added lat us",
    ]);
    for t_us in [0i64, 500, 2_000, 10_000] {
        let r = run_sorting_experiment(&base(fixed(t_us), heavy_jitter.clone())).unwrap();
        t1.row(&[
            t_us.to_string(),
            format!("{:.4}", r.inversion_rate),
            f(r.mean_added_latency_us),
            r.max_added_latency_us.to_string(),
        ]);
    }
    t1.print("E7a: fixed time frame — ordering vs latency trade-off");

    // (2) Growth policy under adaptive T.
    let mut t2 = Table::new(&[
        "growth policy",
        "inversion rate",
        "mean added lat us",
        "max T us",
    ]);
    for (name, growth) in [
        ("to-observed-lateness", FrameGrowth::ToObservedLateness),
        ("multiplicative x2", FrameGrowth::Multiplicative(2.0)),
        ("additive +1ms", FrameGrowth::Additive(1_000)),
    ] {
        // Multiplicative growth needs a non-zero seed (k*0 = 0 forever).
        let seed_frame = if matches!(growth, FrameGrowth::Multiplicative(_)) {
            50
        } else {
            0
        };
        let sorter = SorterConfig {
            initial_frame_us: seed_frame,
            min_frame_us: seed_frame,
            growth,
            decay_factor: 0.95,
            ..SorterConfig::default()
        };
        let r = run_sorting_experiment(&base(sorter, heavy_jitter.clone())).unwrap();
        t2.row(&[
            name.to_string(),
            format!("{:.4}", r.inversion_rate),
            f(r.mean_added_latency_us),
            r.max_frame_us.to_string(),
        ]);
    }
    t2.print("E7b: frame growth policy (paper recommends T = observed lateness)");

    // (3) Decay constant (T's half-life).
    let mut t3 = Table::new(&[
        "decay factor",
        "inversion rate",
        "mean added lat us",
        "final T us",
    ]);
    for decay in [0.5, 0.9, 0.99, 1.0] {
        let sorter = SorterConfig {
            initial_frame_us: 0,
            min_frame_us: 0,
            growth: FrameGrowth::ToObservedLateness,
            decay_factor: decay,
            decay_interval: Duration::from_millis(10),
            ..SorterConfig::default()
        };
        let r = run_sorting_experiment(&base(sorter, spiky.clone())).unwrap();
        t3.row(&[
            format!("{decay}"),
            format!("{:.4}", r.inversion_rate),
            f(r.mean_added_latency_us),
            r.final_frame_us.to_string(),
        ]);
    }
    t3.print("E7c: decay constant (paper: a large T half-life helps ordering)");

    // (4) Delay distribution.
    let mut t4 = Table::new(&[
        "delay model",
        "inversion rate",
        "mean added lat us",
        "max T us",
    ]);
    for (name, delay) in [
        ("quiet LAN", DelayModel::quiet_lan()),
        ("heavy jitter", heavy_jitter),
        ("spiky", spiky),
    ] {
        let sorter = SorterConfig {
            initial_frame_us: 0,
            min_frame_us: 0,
            growth: FrameGrowth::ToObservedLateness,
            decay_factor: 0.98,
            ..SorterConfig::default()
        };
        let r = run_sorting_experiment(&base(sorter, delay)).unwrap();
        t4.row(&[
            name.to_string(),
            format!("{:.4}", r.inversion_rate),
            f(r.mean_added_latency_us),
            r.max_frame_us.to_string(),
        ]);
    }
    t4.print("E7d: delay distribution under the adaptive frame");

    // (Scenario extension) Arrival process: the same sorter against the
    // paper's "very different instrumentation/experiment scenarios" (§2).
    use brisk_sim::ArrivalProcess;
    let mut t5 = Table::new(&[
        "arrival process",
        "inversion rate",
        "mean added lat us",
        "max T us",
    ]);
    let processes: Vec<(&str, ArrivalProcess)> = vec![
        (
            "uniform loop",
            ArrivalProcess::Uniform {
                rate_hz: 1_000.0,
                jitter: 0.0,
            },
        ),
        (
            "uniform jittered",
            ArrivalProcess::Uniform {
                rate_hz: 1_000.0,
                jitter: 0.5,
            },
        ),
        ("poisson", ArrivalProcess::Poisson { rate_hz: 1_000.0 }),
        (
            "bursty 64",
            ArrivalProcess::Bursty {
                rate_hz: 1_000.0,
                burst_size: 64,
                intra_gap_us: 5,
            },
        ),
        (
            "phased 10x",
            ArrivalProcess::Phased {
                rates_hz: vec![3_000.0, 300.0],
                phase_us: 200_000,
            },
        ),
    ];
    for (name, arrivals) in processes {
        let sorter = SorterConfig {
            initial_frame_us: 0,
            min_frame_us: 0,
            growth: FrameGrowth::ToObservedLateness,
            decay_factor: 0.98,
            ..SorterConfig::default()
        };
        let mut cfg = base(sorter, DelayModel::quiet_lan());
        cfg.arrivals = arrivals;
        let r = run_sorting_experiment(&cfg).unwrap();
        t5.row(&[
            name.to_string(),
            format!("{:.4}", r.inversion_rate),
            f(r.mean_added_latency_us),
            r.max_frame_us.to_string(),
        ]);
    }
    t5.print("E7e: arrival-process scenarios (extension)");
    true
}

/// A1 — ablation: BRISK's modified Cristian vs the original algorithm.
pub fn a1_sync_ablation(quick: bool) -> bool {
    let duration = Duration::from_secs(if quick { 120 } else { 600 });
    let mut table = Table::new(&[
        "algorithm",
        "rounds to <200us",
        "max post-warmup us",
        "mean us",
        "total advance us",
    ]);
    for (name, original) in [
        ("BRISK (most-ahead ref)", false),
        ("original Cristian", true),
    ] {
        let cfg = SyncSimConfig {
            duration,
            sync: SyncConfig {
                original_cristian: original,
                ..SyncConfig::default()
            },
            ..SyncSimConfig::default()
        };
        let r = SyncSimulation::new(cfg.clone()).run().unwrap();
        // Rounds until the spread first stays below 200 µs.
        let period_us = cfg.sync.poll_period.as_micros() as i64;
        let converged_at = r
            .samples
            .iter()
            .find(|s| s.max_pairwise_us < 200)
            .map(|s| (s.t_us / period_us) + 1)
            .unwrap_or(-1);
        table.row(&[
            name.to_string(),
            converged_at.to_string(),
            r.max_spread_after_warmup_us.to_string(),
            f(r.mean_spread_after_warmup_us),
            r.total_advance_us.to_string(),
        ]);
    }
    table.print("A1: modified vs original Cristian (ablation)");
    true
}

/// A2 — ablation: CRE tachyon repair on vs off.
pub fn a2_cre_ablation(quick: bool) -> bool {
    let exchanges = if quick { 500 } else { 5_000 };
    let mut table = Table::new(&[
        "CRE markers",
        "delivered",
        "visible tachyons",
        "repaired",
        "extra syncs",
    ]);
    for (name, marked) in [("on", true), ("off", false)] {
        let cfg = CausalConfig {
            exchanges,
            mark_causality: marked,
            ..CausalConfig::default()
        };
        let r = run_causal_experiment(&cfg).unwrap();
        table.row(&[
            name.to_string(),
            r.delivered.to_string(),
            r.visible_tachyons.to_string(),
            r.repaired_tachyons.to_string(),
            r.extra_sync_requests.to_string(),
        ]);
    }
    table.print("A2: causally-related-event repair (ablation)");
    true
}

/// A3 — ablation: compressed vs naive record meta-information headers.
///
/// The TP sends each record's descriptor "with the meta-information header
/// compressed" (§3.4) — one nibble per field type — because "minimizing the
/// slack in instrumentation data messages is important". This ablation
/// quantifies the wire savings against the naive alternative (one XDR
/// unsigned int per field type, as a static-typing-free rpcgen encoding
/// would produce).
pub fn a3_header_compression(_quick: bool) -> bool {
    use brisk_core::{RecordDescriptor, ValueType};
    let shapes: Vec<(&str, Vec<ValueType>)> = vec![
        ("1 x i32", vec![ValueType::I32]),
        ("6 x i32 (paper)", vec![ValueType::I32; 6]),
        ("8 x i32", vec![ValueType::I32; 8]),
        (
            "mixed 5",
            vec![
                ValueType::Ts,
                ValueType::I32,
                ValueType::Str,
                ValueType::Reason,
                ValueType::F64,
            ],
        ),
    ];
    let mut table = Table::new(&[
        "record shape",
        "packed hdr B",
        "naive hdr B",
        "record wire B",
        "hdr overhead %",
        "naive overhead %",
    ]);
    for (name, types) in shapes {
        let desc = RecordDescriptor::new(types.clone()).unwrap();
        // Packed on the wire: descriptor opaque = 4 (len) + padded nibbles.
        let packed_wire = 4 + ((desc.packed_size() + 3) & !3);
        // Naive: count word + one uint per field type.
        let naive_wire = 4 + 4 * types.len();
        let rec = brisk_core::EventRecord::new(
            NodeId(0),
            brisk_core::SensorId(0),
            EventTypeId(0),
            0,
            UtcMicros::ZERO,
            types
                .iter()
                .map(|t| match t {
                    ValueType::I32 => Value::I32(0),
                    ValueType::Ts => Value::Ts(UtcMicros::ZERO),
                    ValueType::Str => Value::Str("abcdefgh".into()),
                    ValueType::Reason => Value::Reason(brisk_core::CorrelationId(0)),
                    ValueType::F64 => Value::F64(0.0),
                    _ => Value::I32(0),
                })
                .collect(),
        )
        .unwrap();
        let body = rec.xdr_payload_size();
        let naive_body = body - packed_wire + naive_wire;
        table.row(&[
            name.to_string(),
            packed_wire.to_string(),
            naive_wire.to_string(),
            body.to_string(),
            f(100.0 * packed_wire as f64 / body as f64),
            f(100.0 * naive_wire as f64 / naive_body as f64),
        ]);
    }
    table.print("A3: compressed vs naive meta-information header (ablation)");
    true
}

/// Emits per timed S1 slice: few enough that a slice never fills the
/// 4 MiB ring, which is drained untimed between slices.
const EMITS_PER_SLICE: u64 = 2_048;
/// Records per `push_batch` on the S1 delivery path.
const DELIVERY_BATCH: usize = 64;
/// Batches per timed S1 delivery slice: a slice's frame bytes (~18 KiB)
/// stay under the store's 64 KiB write threshold, so every segment write
/// happens in the untimed drain between slices.
const BATCHES_PER_SLICE: usize = 4;
/// Untimed slices each S1 variant runs before the paired trials.
const WARMUP_SLICES: usize = 200;

/// S1 — what the optional planes cost on the two hot paths, as paired
/// overheads against the plain path. CI gates two rows: 1-in-128 trace
/// sampling ≤ 5 % on the emit path and causal ordering ≤ 10 % on the
/// delivery path. Returns false when either bar is exceeded.
pub fn s1_overheads(quick: bool) -> bool {
    let (emit_trials, delivery_trials) = if quick { (300, 200) } else { (600, 400) };

    let mut emit = [
        EmitPath::new(|_| {}),
        // Taken from a registry, as a node binds it. A standalone
        // `Counter::new()` shifts the heap so that the plain port's emits
        // run ~70 ns slower on the reference host (EXPERIMENTS.md, S1).
        EmitPath::new(|port| {
            port.set_notice_counter(Registry::new().counter("brisk_notices_total", "notices"))
        }),
        EmitPath::new(|port| {
            port.set_trace_sampler(Arc::new(TraceSampler::with_seed(128, 0x5eed)))
        }),
    ];
    let emit_ok = print_overheads(
        &format!("S1a: emit-path overhead, SensorPort::emit 6 x i32 ({emit_trials} paired trials)"),
        &[
            ("plain", None),
            ("notice counter bound", None),
            ("trace 1-in-128", Some(5.0)),
        ],
        &paired(&mut emit, emit_trials, EmitPath::slice),
    );

    let dirs = [s1_store_dir("never"), s1_store_dir("interval")];
    let store = |dir: &Path, fsync| IsmConfig {
        store: StoreConfig {
            fsync,
            retain_bytes: 64 << 20, // bound a long run's footprint
            ..StoreConfig::at(dir)
        },
        ..IsmConfig::default()
    };
    let mut delivery = [
        DeliveryPath::new(IsmConfig::default()),
        DeliveryPath::new(IsmConfig {
            order_mode: OrderMode::Causal,
            ..IsmConfig::default()
        }),
        DeliveryPath::new(store(&dirs[0], FsyncPolicy::Never)),
        DeliveryPath::new(store(
            &dirs[1],
            FsyncPolicy::Interval(Duration::from_millis(200)),
        )),
    ];
    let delivery_ok = print_overheads(
        &format!(
            "S1b: delivery-path overhead, IsmCore push_batch + tick ({delivery_trials} paired trials)"
        ),
        &[
            ("memory, physical order", None),
            ("causal (HLC stamps)", Some(10.0)),
            ("store fsync=never", None),
            ("store fsync=interval", None),
        ],
        &paired(&mut delivery, delivery_trials, DeliveryPath::slice),
    );
    drop(delivery); // seal the stores before removing their directories
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    emit_ok && delivery_ok
}

/// S1 emit path: one sensor port on a 4 MiB ring.
struct EmitPath {
    rings: Arc<RingSet>,
    port: SensorPort,
    drained: Vec<EventRecord>,
    i: u64,
}

impl EmitPath {
    fn new(setup: impl FnOnce(&mut SensorPort)) -> Self {
        let rings = RingSet::new(NodeId(0), 1 << 22);
        let mut port = rings.register();
        setup(&mut port);
        EmitPath {
            rings,
            port,
            drained: Vec::new(),
            i: 0,
        }
    }

    /// Time one slice of emits, each in `notice!` order (clock read,
    /// field build, emit), and return ns/record. The drain after it is
    /// untimed: on a real node the EXS does it on another core.
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..EMITS_PER_SLICE {
            self.i += 1;
            let ts = SystemClock.now();
            let fields = black_box(six_i32_fields(self.i));
            black_box(self.port.emit(EventTypeId(1), ts, fields)).unwrap();
        }
        let ns = start.elapsed().as_nanos() as f64;
        self.drained.clear();
        self.rings
            .drain_into(usize::MAX, &mut self.drained)
            .unwrap();
        ns / EMITS_PER_SLICE as f64
    }
}

/// S1 delivery path: an `IsmCore` fed batches as the wire delivers them,
/// `X_HLC`-stamped by a producer-side clock when the core orders causally.
struct DeliveryPath {
    core: IsmCore,
    hlc: Option<Arc<Hlc>>,
    ts: i64,
    seq: u64,
}

impl DeliveryPath {
    fn new(cfg: IsmConfig) -> Self {
        DeliveryPath {
            hlc: (cfg.order_mode == OrderMode::Causal).then(Hlc::new),
            core: IsmCore::new(cfg).unwrap(),
            ts: 1_000_000_000,
            seq: 0,
        }
    }

    /// Build one slice's batches (untimed: stamping is the leaf EXS's
    /// cost), push and tick each far enough that the sorter releases it
    /// (timed), then drain the store's pending frames (untimed, so no
    /// slice pays for segment writes another slice buffered). Returns
    /// ns/record.
    fn slice(&mut self) -> f64 {
        let batches: Vec<Vec<EventRecord>> = (0..BATCHES_PER_SLICE)
            .map(|_| (0..DELIVERY_BATCH).map(|_| self.record()).collect())
            .collect();
        let now = UtcMicros::from_micros(self.ts);
        let release = UtcMicros::from_micros(self.ts + 10_000_000);
        let start = Instant::now();
        for batch in batches {
            self.core.push_batch(batch, now).unwrap();
            black_box(self.core.tick(release).unwrap());
        }
        let ns = start.elapsed().as_nanos() as f64;
        self.core.drain_all().unwrap();
        ns / (BATCHES_PER_SLICE * DELIVERY_BATCH) as f64
    }

    fn record(&mut self) -> EventRecord {
        self.ts += 1;
        self.seq += 1;
        let ts = UtcMicros::from_micros(self.ts);
        let mut rec = EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            self.seq,
            ts,
            six_i32_fields(self.seq),
        )
        .unwrap();
        if let Some(hlc) = &self.hlc {
            rec.set_hlc(hlc.tick(ts));
        }
        rec
    }
}

/// A fresh store directory for S1, on tmpfs when the host has one so the
/// table measures the store's CPU cost rather than the disk.
fn s1_store_dir(tag: &str) -> PathBuf {
    let shm = Path::new("/dev/shm");
    let base = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("brisk-s1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Median ns/record of one variant and the median of its per-trial time
/// ratios against the first variant.
struct Paired {
    ns: f64,
    ratio: f64,
}

/// Time `trials` trials of `variants` after [`WARMUP_SLICES`] untimed
/// slices each; a trial runs every variant's `slice` (which returns
/// ns/record) back to back. Pairing adjacent slices cancels the slow
/// drift of a shared host, which moves unpaired A-then-B runs by more
/// than the bars; the median discards page-reclaim stalls.
fn paired<V>(
    variants: &mut [V],
    trials: usize,
    mut slice: impl FnMut(&mut V) -> f64,
) -> Vec<Paired> {
    for v in variants.iter_mut() {
        for _ in 0..WARMUP_SLICES {
            slice(v);
        }
    }
    let mut ns = vec![Vec::with_capacity(trials); variants.len()];
    for _ in 0..trials {
        for (v, ns) in variants.iter_mut().zip(&mut ns) {
            ns.push(slice(v));
        }
    }
    ns.iter()
        .map(|own| Paired {
            ns: median(own.clone()),
            ratio: median(own.iter().zip(&ns[0]).map(|(a, b)| a / b).collect()),
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Print one S1 table, a row per `(variant, bar %)`. Returns false when
/// a row exceeds its bar.
fn print_overheads(title: &str, rows: &[(&str, Option<f64>)], results: &[Paired]) -> bool {
    let mut table = Table::new(&["variant", "ns/record", "vs first", "bar"]);
    let mut ok = true;
    for (&(name, bar), r) in rows.iter().zip(results) {
        let pct = (r.ratio - 1.0) * 100.0;
        let bar = bar.map_or(String::new(), |bar| {
            let pass = pct <= bar;
            ok &= pass;
            format!("<= {bar}% {}", if pass { "PASS" } else { "FAIL" })
        });
        table.row(&[name.to_string(), f(r.ns), format!("{pct:+.1}%"), bar]);
    }
    table.print(title);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_ratios_are_medians_of_per_trial_ratios() {
        // Variant 1 takes twice variant 0's time in every trial, however
        // the trials drift; variant 0 against itself is exactly 1.
        let mut slices = 0u32;
        let mut variants = [1.0, 2.0];
        let r = paired(&mut variants, 9, |v| {
            let trial = slices / 2;
            slices += 1;
            *v * f64::from(10 + trial)
        });
        assert_eq!((r[0].ratio, r[1].ratio), (1.0, 2.0));
        assert_eq!(r[1].ns, 2.0 * r[0].ns);
    }
}
