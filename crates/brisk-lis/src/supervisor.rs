//! Supervised external sensor: automatic reconnection.
//!
//! "An off-the-shelf distributed IS that is robust, portable and flexible
//! would benefit both designers and users" (§1). The plain
//! [`crate::spawn_exs`] terminates when its ISM connection dies; the
//! supervisor keeps the node's instrumentation alive across manager
//! restarts and network blips. It owns no redial logic of its own: the
//! EXS's [`crate::Uplink`] decides when a link is dead and when to dial
//! again (the one policy the relay's upstream link follows too, see
//! [`SupervisorConfig`]), and the supervisor just drives the EXS while it
//! is linked and waits for the next dial while it is not. It stops for
//! good only on its `stop` flag or an orderly ISM `Shutdown`. Every
//! reconnect re-sends `Hello` and **carries the clock-sync correction
//! value over**, so the node does not fall back to raw, unsynchronized
//! time while the master re-converges.
//!
//! Delivery semantics across an abrupt disconnect: the EXS keeps every
//! sent-but-unacked batch in a bounded retransmit window that lives in
//! its [`crate::Uplink`] (like the clock correction, it simply stays with
//! the EXS while the next connection is attached), and the
//! unacked batches are **replayed** right after the re-`Hello` — so
//! nothing handed to the dead connection is lost. The ISM deduplicates
//! replays by `(node, seq)`, making delivery to the sinks exactly-once.
//! One degraded edge remains: a retransmit window that overflows
//! (`ExsConfig::retransmit_window_batches` unacked batches outstanding)
//! evicts its oldest batch, which is then beyond replay — surfaced
//! through telemetry rather than hidden.

use crate::exs::{ExsStats, ExsStep, ExsTelemetry, ExternalSensor};
use brisk_clock::Clock;
use brisk_core::{BriskError, ExsConfig, NodeId, Result};
use brisk_ringbuf::RingSet;
use brisk_telemetry::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use crate::uplink::{ConnectFn, SupervisorConfig};

/// Aggregate statistics across all incarnations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisedStats {
    /// Combined EXS counters.
    pub exs: ExsStats,
    /// How many times a connection was (re-)established.
    pub connects: u64,
    /// How many abrupt disconnects were survived.
    pub reconnects: u64,
}

fn supervised_stats(shared: &ExsTelemetry, connects: &AtomicU64) -> SupervisedStats {
    let connects = connects.load(Ordering::Relaxed);
    SupervisedStats {
        exs: shared.snapshot(),
        connects,
        reconnects: connects.saturating_sub(1),
    }
}

/// Handle to a supervised EXS.
pub struct SupervisedExsHandle {
    stop: Arc<AtomicBool>,
    connects: Arc<AtomicU64>,
    node: NodeId,
    shared: Arc<ExsTelemetry>,
    join: std::thread::JoinHandle<Result<SupervisedStats>>,
}

impl SupervisedExsHandle {
    /// Connections established so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Live aggregate counters across all incarnations so far.
    pub fn stats_now(&self) -> SupervisedStats {
        supervised_stats(&self.shared, &self.connects)
    }

    /// Register this supervised EXS with a telemetry registry: all the
    /// per-incarnation EXS series (shared across restarts) plus
    /// `brisk_exs_connects_total` and `brisk_exs_reconnects_total`.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
        let n = self.node.0.to_string();
        let c = Arc::clone(&self.connects);
        registry.counter_fn(
            "brisk_exs_connects_total",
            "ISM connections established by the supervised EXS",
            &[("node", &n)],
            move || c.load(Ordering::Relaxed),
        );
        let c = Arc::clone(&self.connects);
        registry.counter_fn(
            "brisk_exs_reconnects_total",
            "Supervisor restarts after an abrupt disconnect",
            &[("node", &n)],
            move || c.load(Ordering::Relaxed).saturating_sub(1),
        );
    }

    /// Signal and wait; returns aggregate stats.
    pub fn stop(self) -> Result<SupervisedStats> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| BriskError::Sync("supervised EXS thread panicked".into()))?
    }
}

/// Spawn a supervised EXS. `connect` is invoked for the initial connection
/// and after every disconnect.
pub fn spawn_exs_supervised(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    connect: ConnectFn,
    cfg: ExsConfig,
    sup: SupervisorConfig,
) -> Result<SupervisedExsHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let connects = Arc::new(AtomicU64::new(0));
    // One EXS for the node's whole lifetime: correction value, partial
    // batch, retransmit window, the last credit grant and the redial
    // schedule all live in it (the link state in its `Uplink`), so a
    // reconnect is nothing more than attaching the next connection —
    // which re-sends `Hello` and replays the unacked window. Its counters
    // are totals across reconnects, so a bound registry keeps observing
    // the live EXS.
    let exs = ExternalSensor::detached(node, rings, raw_clock, cfg)?.with_redial(connect, sup);
    let shared = Arc::clone(exs.telemetry());
    let stop2 = Arc::clone(&stop);
    let connects2 = Arc::clone(&connects);
    let join = std::thread::Builder::new()
        .name(format!("brisk-exs-sup-{node}"))
        .spawn(move || supervise(exs, stop2, connects2))
        .map_err(BriskError::Io)?;
    Ok(SupervisedExsHandle {
        stop,
        connects,
        node,
        shared,
        join,
    })
}

fn supervise(
    mut exs: ExternalSensor,
    stop: Arc<AtomicBool>,
    connects: Arc<AtomicU64>,
) -> Result<SupervisedStats> {
    let shared = Arc::clone(exs.telemetry());
    while !stop.load(Ordering::Relaxed) {
        if !exs.linked() {
            // Wait out the uplink's backoff in small slices so `stop`
            // stays responsive; a failed dial schedules the next attempt.
            if !exs.redial() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            connects.fetch_add(1, Ordering::Relaxed);
        }
        // A dropped link is dialed again above; only an orderly ISM
        // `Shutdown` (or the stop flag) ends the node's run.
        if exs.step()? == ExsStep::Shutdown {
            break;
        }
    }
    // Flush and say goodbye on a live link. A connection that dies during
    // the final flush is fine; the counters land in `shared` either way.
    if exs.linked() {
        let _ = exs.finish();
    }
    Ok(supervised_stats(&shared, &connects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_net::{Connection, MemTransport, Transport};
    use brisk_proto::Message;

    /// A hand-rolled "ISM" that accepts connections one at a time and can
    /// kill them, counting the records received across connections.
    fn recv_records(
        conn: &mut Box<dyn Connection>,
        budget: Duration,
    ) -> (usize, bool /* disconnected */) {
        let deadline = std::time::Instant::now() + budget;
        let mut n = 0;
        while std::time::Instant::now() < deadline {
            match conn.recv(Some(Duration::from_millis(10))) {
                Ok(Some(frame)) => {
                    if let Ok(Message::EventBatch { records, .. }) = Message::decode(&frame) {
                        n += records.len();
                    }
                }
                Ok(None) => {}
                Err(_) => return (n, true),
            }
        }
        (n, false)
    }

    #[test]
    fn survives_server_side_disconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(5),
                ..ExsConfig::default()
            },
            SupervisorConfig::default(),
        )
        .unwrap();

        // First connection: receive some records, then kill it.
        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        for i in 0..50 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got1, _) = recv_records(&mut conn1, Duration::from_millis(300));
        assert!(got1 > 0, "first connection must carry records");
        drop(conn1); // abrupt server-side disconnect

        // The supervisor must reconnect…
        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        // …re-send Hello…
        let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Message::Hello {
                node: NodeId(1),
                ..
            }
        ));
        // …and keep delivering new records.
        for i in 50..80 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got2, _) = recv_records(&mut conn2, Duration::from_millis(300));
        assert!(got2 > 0, "records must flow on the new connection");

        assert_eq!(handle.connects(), 2);
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.reconnects, 1);
    }

    #[test]
    fn correction_value_carries_across_reconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();

        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn1.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Adjust the slave's correction, then kill the connection.
        conn1
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 12_345,
                }
                .encode(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(conn1);

        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Poll the new incarnation: its reply must include the carried
        // correction (clock reads now + 12_345 ± scheduling slack).
        let before = UtcMicros::now();
        conn2
            .send(
                &Message::SyncPoll {
                    round: 2,
                    sample: 0,
                    master_send: before,
                }
                .encode(),
            )
            .unwrap();
        let reply = loop {
            let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            if let Message::SyncReply { slave_time, .. } = Message::decode(&frame).unwrap() {
                break slave_time;
            }
        };
        let skew = reply.micros_since(UtcMicros::now());
        assert!(
            (8_000..=12_345).contains(&skew),
            "slave clock must be ~12.3 ms ahead (carried correction), got {skew}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn a_link_declared_corrupt_is_redialed_and_replayed() {
        use crate::uplink::CONTROL_ERROR_BUDGET;
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(5),
                ..ExsConfig::default()
            },
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        )
        .unwrap();
        // Each incarnation opens with Hello and then the unacked batch
        // (never acked here, so every redial must replay it).
        let mut accept = || {
            let mut conn = listener
                .accept(Some(Duration::from_secs(5)))
                .unwrap()
                .expect("the supervisor must dial again");
            let hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            assert!(matches!(Message::decode(&hello), Ok(Message::Hello { .. })));
            let batch = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            match Message::decode(&batch).unwrap() {
                Message::EventBatch { seq, records, .. } => {
                    assert_eq!((seq, records.len()), (Some(1), 3));
                }
                other => panic!("expected the windowed batch, got {other:?}"),
            }
            conn
        };
        for i in 0..3 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let mut first = accept();
        // One undecodable frame past the budget drops the link…
        for _ in 0..=CONTROL_ERROR_BUDGET {
            first.send(&[0xba, 0xad]).unwrap();
        }
        let mut second = accept();
        // …and so does a message a sender must never receive.
        let hello = Message::Hello {
            node: NodeId(9),
            version: brisk_proto::VERSION,
        };
        second.send(&hello.encode()).unwrap();
        let _third = accept();
        assert_eq!(handle.connects(), 3);
        let stats = handle.stop().unwrap();
        assert_eq!(stats.exs.decode_errors, u64::from(CONTROL_ERROR_BUDGET));
        assert_eq!(stats.exs.batches_retransmitted, 2);
    }

    #[test]
    fn backoff_resets_only_after_hello_ack() {
        // Two supervised runs against hand-rolled ISMs that kill every
        // connection shortly after accepting it. The only difference: one
        // acknowledges the Hello first. With a large initial backoff the
        // no-ack run must pay the backoff between incarnations, while the
        // acked run reconnects promptly each time.
        fn run(ack: bool) -> Duration {
            let t = MemTransport::new();
            let mut listener = t.listen("ism").unwrap();
            let rings = RingSet::new(NodeId(1), 1 << 20);
            let t2 = Arc::clone(&t);
            let handle = spawn_exs_supervised(
                NodeId(1),
                rings,
                Arc::new(SystemClock),
                Box::new(move || t2.connect("ism")),
                ExsConfig::default(),
                SupervisorConfig {
                    initial_backoff: Duration::from_millis(250),
                    max_backoff: Duration::from_secs(2),
                },
            )
            .unwrap();
            let start = std::time::Instant::now();
            for _ in 0..2 {
                let mut conn = listener
                    .accept(Some(Duration::from_secs(10)))
                    .unwrap()
                    .unwrap();
                let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
                if ack {
                    conn.send(
                        &Message::HelloAck {
                            version: brisk_proto::VERSION,
                            credit: 1024,
                        }
                        .encode(),
                    )
                    .unwrap();
                    // Give the EXS a step to process the ack before the kill.
                    std::thread::sleep(Duration::from_millis(50));
                }
                drop(conn);
            }
            let _conn3 = listener
                .accept(Some(Duration::from_secs(10)))
                .unwrap()
                .unwrap();
            let elapsed = start.elapsed();
            handle.stop().ok();
            elapsed
        }
        let with_ack = run(true);
        let without_ack = run(false);
        // No HelloAck → two backoff pauses of ≥ 250 ms each before the
        // third connection shows up.
        assert!(
            without_ack >= Duration::from_millis(450),
            "pre-ack deaths must keep (and grow) the backoff, got {without_ack:?}"
        );
        assert!(
            with_ack < without_ack,
            "acked incarnations must reconnect faster ({with_ack:?} vs {without_ack:?})"
        );
    }

    #[test]
    fn a_reconnect_refused_before_its_hello_ack_is_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            RingSet::new(NodeId(1), 1 << 20),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        )
        .unwrap();
        let mut accept = || {
            let mut conn = listener
                .accept(Some(Duration::from_secs(5)))
                .unwrap()
                .expect("the supervisor must dial");
            let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            conn
        };
        // Incarnation 1 is established, then its link dies abruptly.
        let mut first = accept();
        let ack = Message::HelloAck {
            version: brisk_proto::VERSION,
            credit: 1024,
        };
        first.send(&ack.encode()).unwrap();
        while handle.stats_now().exs.hello_acks < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(first);
        // Incarnation 2 races the ISM's reaping of the dead connection and
        // is refused as a duplicate: `Shutdown`, no `HelloAck`.
        let mut second = accept();
        second.send(&Message::Shutdown.encode()).unwrap();
        // The node must come back rather than stay down for good.
        let _third = accept();
        handle.stop().ok();
    }

    #[test]
    fn orderly_ism_shutdown_is_honoured_not_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&Message::Shutdown.encode()).unwrap();
        // The supervisor must exit on its own, without a reconnect attempt.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.connects() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            listener
                .accept(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none(),
            "no reconnect after an orderly shutdown"
        );
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 1);
        assert_eq!(stats.reconnects, 0);
    }
}
