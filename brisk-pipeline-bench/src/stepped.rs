//! The traced run: one thread steps the pipeline batch by batch through
//! the same public calls the threaded daemons make, with a span around
//! each call. Self time ÷ records gives the per-layer budget, whose
//! lines sum to `bench.stepped_ns_per_record`; what no span covers is
//! `bench.unattributed_share`.
//!
//! The socket workloads step `SensorPort::emit` → `RingSet::drain_into`
//! → `Batcher::push` (+ `SendWindow`) → `Message::encode` → framed TCP
//! loopback → `BatchView::parse` (pump, then manager) → `materialize` →
//! `MergePlane::push_batch_seq` → `tick` → `binenc::encode_record` →
//! `MemoryBuffer::write_encoded` → `StoreWriter::append_encoded`/`sync`
//! → `StoreTailer::poll`. `merge_heavy` enters at `parse` with its
//! pre-encoded frames and has no store. After a discarded warm-up pass
//! each runs twice — spans off, then on — and the difference is
//! `bench.trace_overhead_share`.

use crate::gen::{self, six_fields, EVENT};
use crate::measure::now_ns;
use crate::workloads::{merge_config, MERGE_ROUNDS, SAT_FRAME_T_US};
use crate::{json, scratch_root, spec, Opts, Outcome};
use brisk_clock::Hlc;
use brisk_core::{
    binenc, BriskError, CreConfig, EventRecord, ExsConfig, FsyncPolicy, IsmConfig, NodeId, Result,
    SensorId, SorterConfig, StoreConfig, UtcMicros,
};
use brisk_ism::{CreMatcher, MemoryBuffer, MergeOutput, MergePlane, OnlineSorter};
use brisk_lis::batch::SendWindow;
use brisk_lis::Batcher;
use brisk_net::{Connection, TcpTransport, Transport};
use brisk_proto::{BatchView, Message};
use brisk_ringbuf::{RingSet, SensorPort};
use brisk_store::{Predicate, StoreReader, StoreTailer, StoreWriter};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches the sensor path steps (256 records each, alternating nodes).
const SENSOR_BATCHES: u64 = 1_600;
const BATCH_RECORDS: u64 = 256;
/// Virtual stream time between a node's consecutive records.
const RECORD_GAP_US: i64 = 2;
const NO_PARENT: u32 = u32::MAX;
const BASE_US: i64 = 1_000_000;

/// Virtual timestamp of a node's `seq`-th record; `lane` (the node's
/// index) keeps the two nodes' stamps distinct.
fn record_ts(seq: u64, lane: u64) -> UtcMicros {
    UtcMicros::from_micros(BASE_US + seq as i64 * RECORD_GAP_US + lane as i64)
}

/// The ISM's clock once a node has emitted `seq` records.
fn now_after(seq: u64) -> UtcMicros {
    UtcMicros::from_micros(BASE_US + seq as i64 * RECORD_GAP_US)
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    batch: u32,
}

/// Spans held in memory; written out when the run ends.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
    root: u32,
    batch: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            root: NO_PARENT,
            batch: 0,
        }
    }

    /// Open the root span of one batch; `close_batch` ends it.
    fn open_batch(&mut self, batch: u32) {
        self.batch = batch;
        if self.on {
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                name: "batch",
                start_ns: now_ns(),
                end_ns: 0,
                parent: NO_PARENT,
                batch,
            });
        }
    }

    fn close_batch(&mut self) {
        if self.on {
            self.spans[self.root as usize].end_ns = now_ns();
        }
    }

    /// Run `f` inside a child span of the current batch.
    #[inline]
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            parent: self.root,
            batch: self.batch,
        });
        out
    }
}

/// Collects what the merge plane releases, owned, so the output stage
/// can be stepped call by call afterwards.
#[derive(Default)]
struct Released(Vec<EventRecord>);

impl MergeOutput for Released {
    fn on_record(&mut self, rec: EventRecord, _now: UtcMicros) -> Result<()> {
        self.0.push(rec);
        Ok(())
    }
}

/// The ISM side from the arrival buffer onwards.
struct IsmSide {
    plane: MergePlane,
    released: Released,
    encoded: Vec<Vec<u8>>,
    memory: std::sync::Arc<MemoryBuffer>,
    store: Option<(StoreWriter, StoreTailer)>,
    delivered: u64,
    tailed: u64,
    since_sync: u32,
}

impl IsmSide {
    fn new(cfg: &IsmConfig, store_dir: Option<&Path>) -> Result<IsmSide> {
        let store = match store_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                let writer = StoreWriter::open(&StoreConfig {
                    dir: Some(dir.to_path_buf()),
                    // Syncs are stepped explicitly, as their own span.
                    fsync: FsyncPolicy::Never,
                    ..StoreConfig::default()
                })?;
                Some((writer, StoreReader::open(dir)?.tail()))
            }
            None => None,
        };
        Ok(IsmSide {
            plane: MergePlane::new(cfg)?,
            released: Released::default(),
            encoded: Vec::new(),
            memory: MemoryBuffer::new(brisk_ism::core::DEFAULT_MEMORY_BYTES),
            store,
            delivered: 0,
            tailed: 0,
            since_sync: 0,
        })
    }

    /// One arrived frame: pump validation, the manager's parse and
    /// materialize, push, tick, then the output stage.
    fn frame(&mut self, t: &mut Tracer, frame: &[u8], now: UtcMicros) -> Result<()> {
        t.span("proto.parse_ns", || {
            BatchView::parse(frame).map(|v| v.len())
        })
        .map_err(BriskError::from)?;
        let view = t
            .span("proto.parse_ns", || BatchView::parse(frame))
            .map_err(BriskError::from)?;
        let records = t
            .span("proto.materialize_ns", || view.materialize())
            .map_err(BriskError::from)?;
        let (node, seq) = (view.node(), view.seq());
        let plane = &mut self.plane;
        t.span("ism.push_ns", || {
            plane.push_batch_seq(node, seq, records, now)
        })?;
        let released = &mut self.released;
        t.span("ism.tick_ns", || plane.tick(now, released))?;
        self.outputs(t)
    }

    /// What `LocalOutputs` does per released record, a loop per call.
    fn outputs(&mut self, t: &mut Tracer) -> Result<()> {
        let (released, encoded) = (&self.released.0, &mut self.encoded);
        t.span("ism.output_encode_ns", || {
            for rec in released {
                let mut bytes = Vec::with_capacity(rec.native_size());
                binenc::encode_record(rec, &mut bytes);
                encoded.push(bytes);
            }
        });
        if let Some((writer, _)) = &mut self.store {
            t.span("store.append_ns", || {
                released
                    .iter()
                    .zip(encoded.iter())
                    .try_for_each(|(rec, bytes)| writer.append_encoded(rec, bytes))
            })?;
        }
        let memory = &self.memory;
        t.span("ism.memory_write_ns", || {
            for bytes in encoded.drain(..) {
                memory.write_encoded(bytes);
            }
        });
        self.delivered += self.released.0.len() as u64;
        self.released.0.clear();
        self.since_sync += 1;
        if let Some((writer, tailer)) = &mut self.store {
            // Every 128 batches: what fsync=interval does every 200 ms of
            // stream, then what a tailing consumer does.
            if self.since_sync >= 128 {
                self.since_sync = 0;
                t.span("store.sync_ns", || writer.sync())?;
                self.tailed += t.span("store.tail_poll_ns", || tailer.poll())?.len() as u64;
            }
        }
        Ok(())
    }

    fn finish(&mut self, t: &mut Tracer) -> Result<()> {
        let (plane, released) = (&mut self.plane, &mut self.released);
        t.span("ism.tick_ns", || plane.drain_all(released))?;
        self.outputs(t)?;
        if let Some((writer, tailer)) = &mut self.store {
            t.span("store.sync_ns", || writer.sync())?;
            self.tailed += t.span("store.tail_poll_ns", || tailer.poll())?.len() as u64;
        }
        Ok(())
    }
}

/// One node's LIS side.
struct NodeSide {
    id: NodeId,
    rings: std::sync::Arc<RingSet>,
    port: SensorPort,
    batcher: Batcher,
    window: SendWindow,
    conn: Box<dyn Connection>,
    peer: Box<dyn Connection>,
    drained: Vec<EventRecord>,
    seq: u64,
}

struct PassResult {
    wall_ns: u64,
    records: u64,
    spans: Vec<Span>,
}

fn sensor_ism_config() -> IsmConfig {
    IsmConfig {
        sorter: SorterConfig {
            initial_frame_us: SAT_FRAME_T_US,
            min_frame_us: SAT_FRAME_T_US,
            max_frame_us: SAT_FRAME_T_US,
            ..SorterConfig::default()
        },
        ..IsmConfig::default()
    }
}

/// The full path, emit to tail poll, for the socket workloads.
fn sensor_pass(dir: &Path, salt: u32, batches: u64, traced: bool) -> Result<PassResult> {
    let exs_cfg = ExsConfig::default();
    let mut listener = TcpTransport.listen("127.0.0.1:0")?;
    let mut nodes = Vec::new();
    for n in 0..crate::rig::NODES {
        let id = NodeId(crate::rig::NODE_BASE + n);
        let rings = RingSet::new(id, exs_cfg.ring_capacity);
        let conn = TcpTransport.connect(&listener.local_addr())?;
        let peer = listener
            .accept(Some(Duration::from_secs(5)))?
            .ok_or_else(|| BriskError::Sync("loopback accept timed out".into()))?;
        nodes.push(NodeSide {
            id,
            port: rings.register(),
            rings,
            batcher: Batcher::new(exs_cfg.clone()),
            window: SendWindow::new(exs_cfg.retransmit_window_batches),
            conn,
            peer,
            drained: Vec::with_capacity(512),
            seq: 0,
        });
    }
    let mut ism = IsmSide::new(&sensor_ism_config(), Some(dir))?;
    let mut t = Tracer::new(traced);
    let started = Instant::now();
    for b in 0..batches {
        let lanes = nodes.len() as u64;
        let node = &mut nodes[(b % lanes) as usize];
        let lane = (node.id.0 - crate::rig::NODE_BASE) as u64;
        t.open_batch(b as u32);
        let (port, first) = (&mut node.port, node.seq);
        t.span("ringbuf.emit_ns", || -> Result<()> {
            for k in 0..BATCH_RECORDS {
                let seq = first + k;
                port.emit(EVENT, record_ts(seq, lane), six_fields(0, seq, salt))?;
            }
            Ok(())
        })?;
        node.seq += BATCH_RECORDS;
        let now = now_after(node.seq);
        let (rings, drained) = (&node.rings, &mut node.drained);
        drained.clear();
        t.span("ringbuf.drain_ns", || rings.drain_into(512, drained))?;
        let (batcher, window) = (&mut node.batcher, &mut node.window);
        let batch = t.span("lis.batch_ns", || {
            let mut out = None;
            for mut rec in drained.drain(..) {
                rec.apply_correction(0);
                if let Some((batch, _)) = batcher.push(rec, now) {
                    out = Some(batch);
                }
            }
            out.map(|records| {
                let (seq, _) = window.push(records.clone());
                window.ack(seq.saturating_sub(1));
                (seq, records)
            })
        });
        let Some((seq, records)) = batch else {
            t.close_batch();
            continue;
        };
        let id = node.id;
        let frame = t.span("proto.encode_ns", || {
            Message::EventBatch {
                node: id,
                seq: Some(seq),
                records,
            }
            .encode()
        });
        let (conn, peer) = (&mut node.conn, &mut node.peer);
        t.span("net.send_ns", || conn.send(&frame))?;
        let arrived = t
            .span("net.recv_ns", || peer.recv(Some(Duration::from_secs(5))))?
            .ok_or_else(|| BriskError::Sync("loopback frame never arrived".into()))?;
        ism.frame(&mut t, &arrived, now)?;
        t.close_batch();
    }
    t.open_batch(batches as u32);
    ism.finish(&mut t)?;
    t.close_batch();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let records = batches * BATCH_RECORDS;
    if ism.delivered != records || ism.tailed != records {
        return Err(BriskError::Sync(format!(
            "stepped pipeline lost records: {records} emitted, {} delivered, {} tailed",
            ism.delivered, ism.tailed
        )));
    }
    Ok(PassResult {
        wall_ns,
        records,
        spans: t.spans,
    })
}

/// `merge_heavy`'s path: pre-encoded frames in, no ring, EXS, net, store.
fn frame_pass(input: &gen::MergeInput, traced: bool) -> Result<PassResult> {
    let mut ism = IsmSide::new(&merge_config(), None)?;
    let mut t = Tracer::new(traced);
    let started = Instant::now();
    for (i, frame) in input.frames.iter().enumerate() {
        t.open_batch(i as u32);
        ism.frame(
            &mut t,
            &frame.bytes,
            UtcMicros::from_micros(frame.arrive_us),
        )?;
        t.close_batch();
    }
    t.open_batch(input.frames.len() as u32);
    ism.finish(&mut t)?;
    t.close_batch();
    let wall_ns = started.elapsed().as_nanos() as u64;
    if ism.delivered != input.records {
        return Err(BriskError::Sync(format!(
            "stepped merge lost records: {} in, {} out",
            input.records, ism.delivered
        )));
    }
    Ok(PassResult {
        wall_ns,
        records: input.records,
        spans: t.spans,
    })
}

/// `CreMatcher::process` and `OnlineSorter::push`/`poll` alone, on the
/// batches the merge plane saw. ns per record each.
fn standalone(
    batches: &[(UtcMicros, Vec<EventRecord>)],
    cfg: &IsmConfig,
) -> Result<(f64, f64, f64)> {
    let records: u64 = batches.iter().map(|(_, b)| b.len() as u64).sum();
    let mut cre = CreMatcher::new(CreConfig::default())?;
    cre.set_order_mode(cfg.order_mode);
    let mut sorter = OnlineSorter::new(cfg.sorter.clone(), 0)?;
    sorter.set_order_mode(cfg.order_mode);
    let (mut cre_ns, mut push_ns, mut poll_ns) = (0u64, 0u64, 0u64);
    for (now, batch) in batches {
        let input = batch.clone();
        let mut passed = Vec::with_capacity(input.len());
        let t0 = Instant::now();
        for rec in input {
            passed.extend(cre.process(rec, *now).pass);
        }
        cre_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for rec in passed {
            sorter.push(rec);
        }
        push_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        std::hint::black_box(sorter.poll(*now));
        poll_ns += t0.elapsed().as_nanos() as u64;
    }
    let per = |ns: u64| ns as f64 / records.max(1) as f64;
    Ok((per(cre_ns), per(push_ns), per(poll_ns)))
}

fn hlc_tick_ns() -> f64 {
    const N: u32 = 200_000;
    let hlc = Hlc::new();
    let t0 = Instant::now();
    for i in 0..N {
        std::hint::black_box(hlc.tick(UtcMicros::from_micros(1_000_000 + i as i64 / 4)));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Full scans of the store the traced pass wrote: ns per record scanned.
fn query_ns_per_record(dir: &Path, store_records: u64) -> Result<f64> {
    let reader = StoreReader::open(dir)?;
    const SCANS: u32 = 4;
    let t0 = Instant::now();
    for k in 0..SCANS {
        let pred = Predicate::all().node(crate::rig::NODE_BASE + k % crate::rig::NODES);
        let (result, report) = reader.query(&pred)?;
        if report.segments_pruned != 0 || result.records.len() as u64 != store_records / 2 {
            return Err(BriskError::Sync(format!(
                "stepped store scan: {} pruned, {} of {} matched",
                report.segments_pruned,
                result.records.len(),
                store_records / 2
            )));
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / (SCANS as u64 * store_records) as f64)
}

pub fn run(opts: &Opts, outcome: &mut Outcome) -> Result<()> {
    let salt = gen::Rng::new(opts.seed).next_u64() as u32;
    let dir = opts.dir.join("stepped-store");
    let merge = opts.workload == "merge_heavy";
    let layers = &mut outcome.per_layer;

    let (untraced, traced, standalone_ns) = if merge {
        let input = gen::merge_input(
            opts.seed,
            ((MERGE_ROUNDS as f64 * opts.scale) as u64).max(3),
        );
        // A discarded pass first: page faults and cold caches would
        // otherwise be billed to whichever pass runs first.
        frame_pass(&input, false)?;
        let untraced = frame_pass(&input, false)?;
        let traced = frame_pass(&input, true)?;
        let mut batches = Vec::with_capacity(input.frames.len());
        for f in &input.frames {
            let view = BatchView::parse(&f.bytes).map_err(BriskError::from)?;
            batches.push((
                UtcMicros::from_micros(f.arrive_us),
                view.materialize().map_err(BriskError::from)?,
            ));
        }
        (untraced, traced, standalone(&batches, &merge_config())?)
    } else {
        let batches = ((SENSOR_BATCHES as f64 * opts.scale) as u64).max(64) & !1;
        sensor_pass(&dir, salt, batches / 4, false)?;
        let untraced = sensor_pass(&dir, salt, batches, false)?;
        let traced = sensor_pass(&dir, salt, batches, true)?;
        let mut input = Vec::with_capacity(batches as usize);
        for b in 0..batches {
            let lane = b % crate::rig::NODES as u64;
            let first = b / crate::rig::NODES as u64 * BATCH_RECORDS;
            let mut recs = Vec::with_capacity(BATCH_RECORDS as usize);
            for seq in first..first + BATCH_RECORDS {
                recs.push(EventRecord::new(
                    NodeId(crate::rig::NODE_BASE + lane as u32),
                    SensorId(0),
                    EVENT,
                    seq,
                    record_ts(seq, lane),
                    six_fields(0, seq, salt),
                )?);
            }
            input.push((now_after(first + BATCH_RECORDS), recs));
        }
        (untraced, traced, standalone(&input, &sensor_ism_config())?)
    };

    // Self time per line. Children of a batch root do not nest, so a
    // child's self time is its duration and the root's is what is left.
    let records = traced.records as f64;
    let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
    let (mut root_ns, mut child_ns) = (0u64, 0u64);
    for s in &traced.spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        if s.parent == NO_PARENT {
            root_ns += dur;
        } else {
            child_ns += dur;
            *by_name.entry(s.name).or_default() += dur;
        }
    }
    let mut sum = 0.0;
    for line in spec::STEPPED_LINES {
        let ns = by_name.get(line).copied().unwrap_or(0) as f64 / records;
        sum += ns;
        layers.insert(line, ns);
    }
    layers.insert("bench.stepped_ns_per_record", sum);
    layers.insert(
        "bench.unattributed_share",
        root_ns.saturating_sub(child_ns) as f64 / root_ns.max(1) as f64,
    );
    layers.insert(
        "bench.trace_overhead_share",
        (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns as f64,
    );
    let threaded_cpu = outcome
        .end_to_end
        .get("cpu_ns_per_record")
        .copied()
        .unwrap_or(0.0);
    layers.insert(
        "bench.stepped_vs_threaded",
        if threaded_cpu > 0.0 {
            sum / threaded_cpu
        } else {
            0.0
        },
    );
    layers.insert("ism.cre_ns", standalone_ns.0);
    layers.insert("ism.sorter_push_ns", standalone_ns.1);
    layers.insert("ism.sorter_poll_ns", standalone_ns.2);
    layers.insert("clock.hlc_tick_ns", hlc_tick_ns());
    layers.insert("bench.stepped_records", records);
    layers.insert("bench.spans", traced.spans.len() as f64);
    if !merge {
        layers.insert(
            "store.query_ns_per_record_scanned",
            query_ns_per_record(&dir, traced.records)?,
        );
    }

    // Spans leave memory only now, after everything is measured.
    let path = scratch_root().join(format!("trace-{}.jsonl", opts.workload));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in traced.spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            file,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"batch\": {}}}",
            json::escape(s.name),
            s.start_ns,
            s.end_ns,
            s.batch
        )?;
    }
    file.flush()?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        traced.spans.len(),
        path.display()
    ));
    Ok(())
}
