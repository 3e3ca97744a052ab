//! The threaded pipeline the three socket workloads share: 2 nodes × 1
//! sensor thread → ring → EXS → TCP loopback → reactor → manager →
//! merge → `MemoryBuffer` + `StoreWriter`, with a bench-owned sink in
//! the manager's output stage and (paced workloads) a store tailer.
//!
//! Everything is measured from outside: the sink and tailer time records
//! against the due time they carry, `NetCount` wraps the connection, and
//! the rest comes from the product's public `*Stats`.

use crate::alloc;
use crate::gen::{six_fields, EVENT};
use crate::measure::{now_ns, Samples};
use crate::oracle::Checker;
use brisk_clock::{Clock, SystemClock};
use brisk_core::{
    EventRecord, EventSink, ExsConfig, FlowConfig, FsyncPolicy, IsmConfig, NodeId, Result,
    SorterConfig, StoreConfig, SyncConfig, UtcMicros,
};
use brisk_ism::{IsmHandle, IsmReport, IsmServer};
use brisk_lis::{spawn_exs, ExsHandle, ExsStats};
use brisk_net::{Connection, TcpTransport, Transport};
use brisk_ringbuf::{RingSet, SensorPort};
use brisk_store::StoreReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub const NODES: u32 = 2;
/// Live node ids start here, clear of the preloaded store's 0..16.
pub const NODE_BASE: u32 = 101;

/// Frames and bytes an EXS put on its connection.
#[derive(Default)]
pub struct NetCount {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
}

impl NetCount {
    /// (frames, bytes) so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

struct CountingConn {
    inner: Box<dyn Connection>,
    count: Arc<NetCount>,
}

impl Connection for CountingConn {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.count.frames.fetch_add(1, Ordering::Relaxed);
        // 4-byte length prefix on the wire.
        self.count
            .bytes
            .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
        self.inner.send(frame)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        self.inner.recv(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.inner.poll_fd()
    }

    fn has_buffered(&self) -> bool {
        self.inner.has_buffered()
    }
}

/// What a consumer of the record stream saw: the oracle's verdicts and
/// due-time → arrival latencies. One for the sink, one for the tailer.
pub struct Observed {
    pub checker: Checker,
    pub latency_ns: Samples,
    /// Records delivered with a physical timestamp below a predecessor's.
    pub ts_regressions: u64,
    last_ts: UtcMicros,
}

impl Observed {
    pub fn new(per_node: u64, latency_samples: usize) -> Observed {
        Observed {
            checker: Checker::new(NODE_BASE, NODES, per_node, 0, false),
            latency_ns: Samples::with_capacity(latency_samples),
            ts_regressions: 0,
            last_ts: UtcMicros::ZERO,
        }
    }

    #[inline]
    pub fn observe(&mut self, rec: &EventRecord, now_ns: impl FnOnce() -> u64) {
        if rec.ts < self.last_ts {
            self.ts_regressions += 1;
        }
        self.last_ts = self.last_ts.max(rec.ts);
        // `a == 0` marks a closed-loop record that was not timed.
        if let Some(due) = self.checker.observe(rec).filter(|&a| a != 0) {
            self.latency_ns.push(now_ns().saturating_sub(due));
        }
    }
}

/// The bench-owned `EventSink`: latency is taken inside the sink call,
/// on the manager thread, with no polling thread in between.
struct BenchSink(Arc<Mutex<Observed>>);

impl EventSink for BenchSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.0
            .lock()
            .expect("sink state poisoned")
            .observe(rec, now_ns);
        Ok(())
    }
}

pub struct Node {
    pub id: NodeId,
    pub rings: Arc<RingSet>,
    pub exs: ExsHandle,
    pub net: Arc<NetCount>,
    /// `None` while a sensor thread holds it.
    port: Option<SensorPort>,
    /// Generator sequence: records offered so far (accepted or not).
    pub offered: u64,
}

struct TailerThread {
    stop: Arc<AtomicBool>,
    /// CPU the tailer thread has used, updated every poll.
    cpu_ns: Arc<AtomicU64>,
    join: std::thread::JoinHandle<()>,
}

pub struct RigConfig {
    pub dir: PathBuf,
    pub segment_bytes: u64,
    pub flow: FlowConfig,
    pub sorter: SorterConfig,
    /// Clock-sync poll period; `None` runs no sync round at all.
    pub sync_period: Option<Duration>,
    /// Bound on sequence numbers per node (sizes the oracle's bitmaps).
    pub per_node_cap: u64,
    pub latency_samples: usize,
    pub tail: bool,
    /// Seed-derived word every generated record carries.
    pub salt: u32,
}

pub struct Rig {
    pub dir: PathBuf,
    ism: Option<IsmHandle>,
    pub nodes: Vec<Node>,
    pub sink: Arc<Mutex<Observed>>,
    pub tailed: Option<Arc<Mutex<Observed>>>,
    tailer: Option<TailerThread>,
    salt: u32,
}

/// How a sensor thread generates load.
#[derive(Clone, Copy)]
pub enum Load {
    /// Closed loop: emit until `count` records are accepted or the
    /// deadline passes, retrying on a full ring.
    Blast { count: u64, seconds: Option<f64> },
    /// Open loop: one record every `interval_ns`, each due at its slot;
    /// a full ring drops the record. `count` timed records, then
    /// `cooldown` untimed ones at the same pace: the store makes data
    /// visible as *stream* time advances, so the stream must outlive the
    /// last timed record or its durable latency would be the time to
    /// shutdown.
    Paced {
        interval_ns: u64,
        count: u64,
        cooldown: u64,
    },
}

/// Sensor threads between spawn and join.
pub struct SensorsRun {
    start: Arc<Barrier>,
    exit: Arc<Barrier>,
    done: std::sync::mpsc::Receiver<()>,
    joins: Vec<std::thread::JoinHandle<(SensorPort, SensorReport)>>,
}

impl SensorsRun {
    pub fn go(&self) {
        self.start.wait();
    }

    /// Block until every sensor thread has offered its last record,
    /// calling `tick` every `every` in the meantime.
    pub fn wait_generated(&self, every: Duration, mut tick: impl FnMut()) {
        let mut left = self.joins.len();
        let mut next = Instant::now() + every;
        while left > 0 {
            match self
                .done
                .recv_timeout(next.saturating_duration_since(Instant::now()))
            {
                Ok(()) => left -= 1,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    tick();
                    next += every;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("sensor thread died")
                }
            }
        }
    }
}

#[derive(Default)]
pub struct SensorReport {
    pub offered: u64,
    pub accepted: u64,
    /// Accepted records that carry a due time (paced loads).
    pub timed: u64,
    pub dropped: u64,
    pub full_retries: u64,
    pub notice_ns_sum: u64,
    pub notice_samples: u64,
    pub late_ns: Vec<u64>,
    pub occupancy: Vec<u64>,
}

impl Rig {
    /// Daemon start, handshakes, first sync round. The store directory
    /// may already hold a preloaded store.
    pub fn start(cfg: RigConfig) -> Result<Rig> {
        let ism_cfg = IsmConfig {
            store: StoreConfig {
                dir: Some(cfg.dir.clone()),
                segment_bytes: cfg.segment_bytes,
                fsync: FsyncPolicy::Interval(Duration::from_millis(200)),
                ..StoreConfig::default()
            },
            flow: cfg.flow,
            sorter: cfg.sorter,
            ..IsmConfig::default()
        };
        let sync_cfg = SyncConfig {
            poll_period: cfg.sync_period.unwrap_or(Duration::from_secs(3600)),
            ..SyncConfig::default()
        };
        let sync_samples = match cfg.sync_period {
            Some(_) => sync_cfg.samples_per_slave as u64,
            None => 0,
        };
        let mut server = IsmServer::new(ism_cfg, sync_cfg, Arc::new(SystemClock))?;
        let sink = Arc::new(Mutex::new(Observed::new(
            cfg.per_node_cap,
            cfg.latency_samples,
        )));
        server
            .core_mut()
            .add_sink(Box::new(BenchSink(Arc::clone(&sink))));
        let ism = server.spawn(TcpTransport.listen("127.0.0.1:0")?)?;

        let exs_cfg = ExsConfig::default();
        let mut nodes = Vec::new();
        for n in 0..NODES {
            let id = NodeId(NODE_BASE + n);
            let rings = RingSet::new(id, exs_cfg.ring_capacity);
            let port = rings.register();
            let net = Arc::new(NetCount::default());
            let conn = Box::new(CountingConn {
                inner: TcpTransport.connect(ism.addr())?,
                count: Arc::clone(&net),
            });
            let clock: Arc<dyn Clock> = Arc::new(SystemClock);
            let exs = spawn_exs(id, Arc::clone(&rings), clock, conn, exs_cfg.clone())?;
            nodes.push(Node {
                id,
                rings,
                exs,
                net,
                port: Some(port),
                offered: 0,
            });
        }
        // Handshake, then one full clock-sync round answered. (Not an
        // adjustment: co-located clocks may need none.)
        wait_until(
            Duration::from_secs(10),
            "handshake and first sync round",
            || {
                nodes.iter().all(|n| {
                    let s = n.exs.stats_now();
                    s.hello_acks >= 1 && s.sync_replies >= sync_samples
                })
            },
        );

        let (tailed, tailer) = if cfg.tail {
            let state = Arc::new(Mutex::new(Observed::new(
                cfg.per_node_cap,
                cfg.latency_samples,
            )));
            let thread = spawn_tailer(&cfg.dir, Arc::clone(&state))?;
            (Some(state), Some(thread))
        } else {
            (None, None)
        };
        Ok(Rig {
            dir: cfg.dir,
            ism: Some(ism),
            nodes,
            sink,
            tailed,
            tailer,
            salt: cfg.salt,
        })
    }

    /// Records the sink has checked so far.
    pub fn delivered(&self) -> u64 {
        self.sink
            .lock()
            .expect("sink state poisoned")
            .checker
            .delivered
    }

    pub fn durable(&self) -> u64 {
        self.tailed.as_ref().map_or(0, |t| {
            t.lock().expect("tailer state poisoned").checker.delivered
        })
    }

    pub fn accepted(&self) -> u64 {
        self.nodes.iter().map(|n| n.rings.stats().produced).sum()
    }

    /// Spawn one sensor thread per node under `load`, parked at a start
    /// barrier so the caller can snapshot `schedstat` and arm the
    /// allocator with the threads already alive. Then `go`,
    /// `wait_generated`, and hand the run back to `finish_sensors`.
    pub fn start_sensors(&mut self, load: Load) -> SensorsRun {
        let ready = Arc::new(Barrier::new(self.nodes.len() + 1));
        let start = Arc::new(Barrier::new(self.nodes.len() + 1));
        let exit = Arc::new(Barrier::new(self.nodes.len() + 1));
        let (done_tx, done) = std::sync::mpsc::channel::<()>();
        let timer_cost = crate::measure::timer_cost_ns() as u64;
        let mut joins = Vec::new();
        for (n, node) in self.nodes.iter_mut().enumerate() {
            let mut port = node.port.take().expect("sensor port is home");
            let (start, exit, done) = (Arc::clone(&start), Arc::clone(&exit), done_tx.clone());
            let ready = Arc::clone(&ready);
            let (first_seq, salt) = (node.offered, self.salt);
            let join = std::thread::Builder::new()
                .name(format!("bench-sensor-{n}"))
                .spawn(move || {
                    let mut report = SensorReport::default();
                    // Pre-sized: nothing below may allocate but the
                    // record fields `emit` takes by value.
                    match load {
                        Load::Paced {
                            count, cooldown, ..
                        } => {
                            report.late_ns.reserve_exact((count + cooldown) as usize);
                            report
                                .occupancy
                                .reserve_exact((count + cooldown) as usize / 16 + 1);
                        }
                        Load::Blast { .. } => report.occupancy.reserve_exact(1 << 20),
                    }
                    ready.wait();
                    start.wait();
                    generate(&mut port, load, first_seq, salt, timer_cost, &mut report);
                    let _ = done.send(());
                    exit.wait();
                    (port, report)
                })
                .expect("spawn sensor thread");
            joins.push(join);
        }
        // Past this point every sensor thread runs under its own name,
        // so a `schedstat` snapshot finds it.
        ready.wait();
        SensorsRun {
            start,
            exit,
            done,
            joins,
        }
    }

    /// Release the sensors' exit barrier, take the ports back.
    pub fn finish_sensors(&mut self, run: SensorsRun) -> Vec<SensorReport> {
        run.exit.wait();
        let mut reports = Vec::new();
        for (node, join) in self.nodes.iter_mut().zip(run.joins) {
            let (port, report) = join.join().expect("sensor thread panicked");
            node.port = Some(port);
            node.offered += report.offered;
            reports.push(report);
        }
        reports
    }

    /// A whole generation pass with nothing measured around it.
    pub fn run_sensors(&mut self, load: Load) -> Vec<SensorReport> {
        let timed_before = self.tail_samples();
        let run = self.start_sensors(load);
        run.go();
        run.wait_generated(Duration::from_secs(1), || ());
        let reports = self.finish_sensors(run);
        let timed = reports.iter().map(|r| r.timed).sum();
        self.wait_drained(Duration::from_secs(60), timed_before, timed);
        reports
    }

    /// Block until the sink has seen every accepted record; returns when
    /// it had. With a tailer, then also until it has timed `timed` more
    /// records than `timed_before` (the cool-down tail need not be
    /// visible yet — it is flushed, and checked, at `stop`).
    pub fn wait_drained(&self, timeout: Duration, timed_before: usize, timed: u64) -> Instant {
        let want = self.accepted();
        wait_until(timeout, "pipeline drain", || self.delivered() >= want);
        let at = Instant::now();
        if let Some(tailed) = &self.tailed {
            // Soft: a timed record dropped at a full ring never arrives,
            // and is the oracle's to count, not a reason to hang.
            let want = timed_before + timed as usize;
            let deadline = Instant::now() + Duration::from_secs(10);
            while tailed
                .lock()
                .expect("tailer state poisoned")
                .latency_ns
                .len()
                < want
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        at
    }

    /// CPU time the bench's own tailer thread has used so far: an
    /// observer's cost, which the workloads take out of the process total.
    pub fn tailer_cpu_ns(&self) -> u64 {
        self.tailer
            .as_ref()
            .map_or(0, |t| t.cpu_ns.load(Ordering::Relaxed))
    }

    /// Latency samples the tailer holds (0 without one).
    pub fn tail_samples(&self) -> usize {
        self.tailed.as_ref().map_or(0, |t| {
            t.lock().expect("tailer state poisoned").latency_ns.len()
        })
    }

    /// Stop the EXSs and the ISM (whose shutdown flushes the store),
    /// let the tailer read the rest, stop it; returns the final stats.
    pub fn stop(mut self) -> Result<(Vec<ExsStats>, IsmReport)> {
        let mut exs_stats = Vec::new();
        for node in self.nodes.drain(..) {
            exs_stats.push(node.exs.stop()?);
        }
        let report = self.ism.take().expect("ism running").stop()?;
        if let Some(t) = self.tailer.take() {
            // A record still missing after this is the oracle's to count.
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.durable() < self.delivered() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            t.stop.store(true, Ordering::Relaxed);
            t.join.join().expect("tailer thread panicked");
        }
        Ok((exs_stats, report))
    }
}

fn spawn_tailer(dir: &Path, state: Arc<Mutex<Observed>>) -> Result<TailerThread> {
    let mut tailer = StoreReader::open(dir)?.tail();
    // Whatever the store already holds (a preloaded store) is not this
    // run's traffic: read past it now, in set-up.
    tailer.poll()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let cpu_ns = Arc::new(AtomicU64::new(0));
    let cpu2 = Arc::clone(&cpu_ns);
    let join = std::thread::Builder::new()
        .name("bench-tailer".into())
        .spawn(move || {
            // The poll cadence is the harness's choice and each poll
            // re-reads the active segment; keep that out of the counts.
            alloc::exempt_this_thread();
            let cadence = Duration::from_millis(1);
            let mut next = Instant::now() + cadence;
            while !stop2.load(Ordering::Relaxed) {
                let records = tailer.poll().expect("store tail poll");
                if !records.is_empty() {
                    let now = now_ns();
                    let mut st = state.lock().expect("tailer state poisoned");
                    for rec in &records {
                        st.observe(rec, || now);
                    }
                }
                cpu2.store(crate::sys::thread_cpu_ns(), Ordering::Relaxed);
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
                next += cadence;
            }
        })
        .map_err(brisk_core::BriskError::Io)?;
    Ok(TailerThread { stop, cpu_ns, join })
}

fn generate(
    port: &mut SensorPort,
    load: Load,
    first_seq: u64,
    salt: u32,
    timer_cost: u64,
    report: &mut SensorReport,
) {
    let clock = SystemClock;
    match load {
        Load::Blast { count, seconds } => {
            let deadline_ns = seconds.map(|s| now_ns() + (s * 1e9) as u64);
            let mut seq = first_seq;
            while report.accepted < count {
                // 1 record in 16 is timed: one clock read serves the
                // deadline test and the record's creation stamp.
                let timed = seq.is_multiple_of(16);
                let created = if timed { now_ns() } else { 0 };
                if timed && deadline_ns.is_some_and(|d| created >= d) {
                    break;
                }
                loop {
                    let fields = six_fields(created, seq, salt);
                    let t0 = timed.then(Instant::now);
                    if port
                        .emit(EVENT, clock.now(), fields)
                        .expect("six fields fit a record")
                    {
                        if let Some(t0) = t0 {
                            report.notice_ns_sum +=
                                (t0.elapsed().as_nanos() as u64).saturating_sub(timer_cost);
                            report.notice_samples += 1;
                            if report.occupancy.len() < report.occupancy.capacity() {
                                report.occupancy.push(port.occupancy() as u64);
                            }
                        }
                        break;
                    }
                    report.full_retries += 1;
                    // Back off rather than spin: on two cores a spinning
                    // sensor would bill its wait to `cpu_ns_per_record`
                    // and steal the EXS's time to drain the ring.
                    std::thread::sleep(Duration::from_micros(100));
                }
                report.accepted += 1;
                seq += 1;
            }
            report.offered = seq - first_seq;
        }
        Load::Paced {
            interval_ns,
            count,
            cooldown,
        } => {
            let start = now_ns() + 1_000_000;
            for i in 0..count + cooldown {
                let due = start + i * interval_ns;
                let mut now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                    now = now_ns();
                }
                report.late_ns.push(now.saturating_sub(due));
                let timed = i.is_multiple_of(16);
                let stamp = if i < count { due } else { 0 };
                let fields = six_fields(stamp, first_seq + i, salt);
                let t0 = timed.then(Instant::now);
                if port
                    .emit(EVENT, clock.now(), fields)
                    .expect("six fields fit a record")
                {
                    report.accepted += 1;
                    report.timed += (i < count) as u64;
                    if let Some(t0) = t0 {
                        report.notice_ns_sum +=
                            (t0.elapsed().as_nanos() as u64).saturating_sub(timer_cost);
                        report.notice_samples += 1;
                        report.occupancy.push(port.occupancy() as u64);
                    }
                } else {
                    report.dropped += 1;
                }
            }
            report.offered = count + cooldown;
        }
    }
}

fn wait_until(timeout: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
