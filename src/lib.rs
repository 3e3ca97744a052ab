//! # BRISK — Baseline Reduced Instrumentation System Kernel
//!
//! A Rust reproduction of *BRISK: A Portable and Flexible Distributed
//! Instrumentation System* (Bakić, Mutka & Rover, IPPS 1999): a
//! general-purpose distributed instrumentation-system kernel built from
//! three model components — local instrumentation servers (LIS), an
//! instrumentation system manager (ISM), and an XDR-based transfer
//! protocol (TP) — plus a modified Cristian clock-synchronization
//! algorithm and an adaptive on-line sorting stage with causally-related
//! event repair.
//!
//! This facade crate re-exports the whole workspace. A minimal end-to-end
//! pipeline:
//!
//! ```
//! use brisk::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // 1. Start the manager (ISM) on an in-memory transport.
//! let transport = MemTransport::new();
//! let listener = transport.listen("ism").unwrap();
//! let server = IsmServer::new(
//!     IsmConfig::default(),
//!     SyncConfig::default(),
//!     Arc::new(SystemClock),
//! ).unwrap();
//! let ism = server.spawn(listener).unwrap();
//! let mut reader = ism.memory().reader();
//!
//! // 2. Start one node: sensors + external sensor (EXS).
//! let clock: Arc<SystemClock> = Arc::new(SystemClock);
//! let cfg = ExsConfig::default();
//! let lis = Lis::new(NodeId(1), Arc::clone(&clock), &cfg);
//! let exs = spawn_exs(
//!     NodeId(1),
//!     Arc::clone(lis.rings()),
//!     clock,
//!     transport.connect("ism").unwrap(),
//!     cfg,
//! ).unwrap();
//!
//! // 3. Instrument: fire events.
//! let mut port = lis.register();
//! for i in 0..100i32 {
//!     notice!(port, lis.clock(), EventTypeId(1), i, "work-item");
//! }
//!
//! // 4. Consume the sorted stream.
//! let mut got = 0;
//! while got < 100 {
//!     let (records, _missed) = reader.poll().unwrap();
//!     got += records.len();
//!     std::thread::sleep(Duration::from_millis(5));
//! }
//! exs.stop().unwrap();
//! ism.stop().unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`core`] | event model, dynamic typing, configs |
//! | [`xdr`] | XDR codec + compressed meta headers |
//! | [`ringbuf`] | lock-free sensor→EXS rings |
//! | [`clock`] | clocks + modified Cristian sync |
//! | [`net`] | TCP / in-memory transports |
//! | [`proto`] | transfer-protocol messages |
//! | [`lis`] | `notice!` sensors + external sensor |
//! | [`ism`] | manager: sorter, CRE, outputs, server |
//! | [`picl`] | PICL ASCII trace format |
//! | [`consumers`] | visual objects + analysis tools |
//! | [`sim`] | deterministic experiment substrate |
//! | [`telemetry`] | lock-free self-instrumentation metrics + exporters |
//! | [`store`] | durable segmented trace store, crash recovery, replay |
//!
//! [`cli`] is the flag parser the executables under `src/bin/` share.

#![deny(missing_docs)]

pub use brisk_clock as clock;
pub use brisk_consumers as consumers;
pub use brisk_core as core;
pub use brisk_ism as ism;
pub use brisk_lis as lis;
pub use brisk_net as net;
pub use brisk_picl as picl;
pub use brisk_proto as proto;
pub use brisk_ringbuf as ringbuf;
pub use brisk_sim as sim;
pub use brisk_store as store;
pub use brisk_telemetry as telemetry;
pub use brisk_xdr as xdr;

pub mod cli;

pub use brisk_lis::{define_notice, notice, notice_gated};

/// Everything needed for typical use in one import.
pub mod prelude {
    pub use brisk_clock::{
        Clock, CorrectedClock, FaultClock, Hlc, SimClock, SimTimeSource, SystemClock,
    };
    pub use brisk_consumers::{
        EventCounter, LatencyTracker, OrderChecker, RateMeter, SummaryStats, TextPane,
        VisualObject, VisualObjectRegistry, VisualObjectSink,
    };
    pub use brisk_core::prelude::*;
    pub use brisk_ism::{
        EventSink, IsmCore, IsmServer, MemoryBuffer, MemoryBufferReader, OnlineSorter,
        PiclFileSink, QuarantineLog, RelayConfig, UpstreamExporter,
    };
    pub use brisk_lis::{
        spawn_exs, spawn_exs_supervised, Batcher, CounterSensor, ExsHandle, ExternalSensor, Lis,
        Scope, SensorGate, SupervisorConfig,
    };
    #[cfg(unix)]
    pub use brisk_net::UdsTransport;
    pub use brisk_net::{
        Connection, FaultSpec, FaultStats, FaultingConnection, FaultingTransport, Listener,
        MemTransport, TcpTransport, Transport,
    };
    pub use brisk_picl::{PiclRecord, PiclWriter, TsMode};
    pub use brisk_proto::{Message, NodePrefix};
    pub use brisk_ringbuf::{RingSet, SensorPort};
    pub use brisk_sim::{SortingConfig, SyncSimConfig, SyncSimulation};
    pub use brisk_store::{
        causal_chain, windowed_aggregate, AggSource, CompactConfig, Compactor, Predicate,
        QueryCache, QueryReport, Replayer, StoreReader, StoreTailer, StoreWriter,
    };
    pub use brisk_telemetry::{
        flight, install_flight_panic_hook, serve_stats, set_flight_capacity, Counter, FlightLevel,
        FlightRecorder, Histogram, Registry, RouteTable, StageLatencies, StatsServer,
        TelemetrySnapshot, TraceSampler,
    };
    pub use {crate::define_notice, crate::notice, crate::notice_gated};
}
