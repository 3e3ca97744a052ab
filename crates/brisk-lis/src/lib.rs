//! # brisk-lis — the local instrumentation server
//!
//! One LIS runs on each node of the target system (§3.1, §3.2). It has two
//! halves:
//!
//! * **Internal sensors** — the instrumentation points inside the
//!   application. The original's cpp `NOTICE` macros become the
//!   [`notice!`] macro, which samples the clock, builds a dynamically-typed
//!   record and writes it to the node's shared ring buffer without ever
//!   blocking. The paper's "utility tool … to create custom NOTICE macros
//!   having user-defined field types" (an on-demand partial evaluation of
//!   the sensors) becomes the [`define_notice!`] macro, which generates a
//!   monomorphic, statically-typed emit function.
//! * **The external sensor (EXS)** — [`exs::ExternalSensor`], run on a separate
//!   thread (the original used a separate, lower-priority process) that
//!   drains the ring buffers, adds the clock-sync correction value to every
//!   timestamp, batches records under the latency-control knobs
//!   ([`brisk_core::ExsConfig`]) and ships batches to the ISM over the
//!   transfer protocol. It also answers clock-sync polls and applies
//!   adjustments (the sync *slave* role). The EXS is a machine that
//!   decides and does no I/O; everything a sender does with window,
//!   credit, acks, replay, heartbeats and redial lives in its
//!   [`uplink::Uplink`], which the relay ISM's upstream link shares.
//! * **The runtime** — [`runtime`], the EXS's driver: one thread, one
//!   `poll(2)`, and the [`runtime::Link`] that owns the socket and the
//!   dialer, which the ISM's loop uses for a relay's upstream link too.
//!   Every EXS returns one [`ExsHandle`]: [`spawn_exs`] runs it over a
//!   single connection, and [`spawn_exs_supervised`] dials through a
//!   [`runtime::ConnectFn`] and dials again after every lost link.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod exs;
pub mod profiling;
pub mod runtime;
pub mod sensor;
pub mod uplink;

pub use batch::{Batcher, FlushReason};
pub use exs::{ExsStats, ExsTelemetry, ExsWait, ExternalSensor};
pub use profiling::{CounterSensor, Scope, SensorGate};
pub use runtime::{spawn_exs, spawn_exs_supervised, ExsHandle, Link};
pub use sensor::Lis;
pub use uplink::{SupervisorConfig, Uplink, UplinkStats, UplinkTelemetry};
