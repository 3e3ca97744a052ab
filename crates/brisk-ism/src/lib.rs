//! # brisk-ism — the instrumentation system manager
//!
//! The ISM is the central component of BRISK (§3.5, Fig. 1): it receives
//! instrumentation data batches from the external sensors, merges them into
//! one time-ordered stream, repairs causally-inconsistent timestamps, runs
//! the clock-synchronization master, and hands the result to consumers.
//!
//! Pipeline, matching Fig. 1 left to right:
//!
//! ```text
//! batch queues → CRE switch/hash → on-line sorting (ts-ordered heap)
//!             → outputs: memory buffer | PICL trace file | consumer sinks
//! ```
//!
//! * [`sorter::OnlineSorter`] — the adaptive time-frame merge (§3.6): each
//!   record is delayed `T` after its (synchronized) creation time; `T`
//!   grows when an out-of-order extraction is observed and decays
//!   exponentially afterwards.
//! * [`cre::CreMatcher`] — causally-related-event handling: `X_REASON` /
//!   `X_CONSEQ` matching via a hash table, timestamp override for tachyons,
//!   and the request for an extra synchronization round.
//! * [`output`] — the output stage: [`output::MemoryBuffer`] (the default
//!   output mode — consumers read the same binary structure the sensors
//!   wrote), [`output::PiclFileSink`], and arbitrary [`output::EventSink`]s
//!   (the visual-object path lives in `brisk-consumers`).
//! * [`core::IsmCore`] — the transport-free composition of the above;
//!   driven by the networked [`server::IsmServer`] in real deployments and
//!   directly by `brisk-sim` in deterministic experiments.
//! * [`Ism`] — the session machine: greetings, acks, credit, poll
//!   exchanges, sync rounds, evictions and ticks, decided from inputs
//!   (a connection accepted, a frame, a hang-up, `now`) into outputs
//!   (frames to send, connections to close, one next deadline), with no
//!   socket and no clock of its own; [`quarantine`] contains malformed
//!   frames. `brisk-sim` drives it under simulated time.
//! * [`server::IsmServer`] — the networked manager: one thread drives the
//!   machine from one `poll(2)` on every EXS connection and a relay's
//!   upstream link, so connection count is decoupled from thread count.
//! * [`relay::UpstreamExporter`] — relay mode: the merged stream leaves
//!   over an ordinary EXS link ([`brisk_lis::Uplink`]), which the
//!   machine decides and the server's driver dials, sends on and reads.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod core;
pub mod cre;
pub mod merge;
pub mod output;
pub mod quarantine;
mod reactor;
pub mod relay;
pub mod server;
pub mod sorter;

pub use crate::core::IsmCore;
pub use cre::{CreMatcher, CreStats};
pub use merge::{MergeOutput, MergePlane, MergeStats};
pub use output::{EventSink, MemoryBuffer, MemoryBufferReader, PiclFileSink};
pub use quarantine::{QuarantineLog, QuarantineSample};
pub use reactor::{Ism, Output, PeerId};
pub use relay::{RelayConfig, RelayStats, UpstreamExporter};
pub use server::{IsmHandle, IsmReport, IsmServer};
pub use sorter::{OnlineSorter, OverloadPolicy, SorterStats};
