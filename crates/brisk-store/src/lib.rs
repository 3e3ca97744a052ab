//! # brisk-store — durable segmented trace store with crash recovery
//!
//! The paper's ISM keeps the merged trace "in a memory buffer" with an
//! optional PICL text file (§3.5); both lose data — the memory buffer by
//! evicting under pressure, the whole trace on an ISM crash. The acked
//! session makes EXS→ISM delivery exactly-once; this crate closes the remaining
//! loss hole *after* the ISM by appending every sorted record to a
//! segmented, append-only on-disk log:
//!
//! * [`writer::StoreWriter`] — an [`brisk_core::sink::EventSink`] appending
//!   CRC32-framed [`brisk_core::binenc`]-encoded records into fixed-size
//!   segment files, with a configurable fsync policy, segment rotation,
//!   byte retention, and a zone-map sidecar per sealed segment.
//! * [`reader::StoreReader`] — scans segments, validates CRCs, truncates
//!   torn tails after a crash (recovering every intact record), answers
//!   zone-map-pruned queries and live-tails a store another process is
//!   writing.
//! * [`replay::Replayer`] — feeds a stored trace back through `EventSink`s
//!   at original or accelerated speed, so consumers can be re-driven
//!   offline from a capture.
//!
//! The on-disk format is specified in [`segment`]; durability trade-offs
//! are selected with [`brisk_core::config::FsyncPolicy`] via
//! [`brisk_core::config::StoreConfig`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod compact;
pub mod crc;
pub mod query;
pub mod reader;
pub mod replay;
pub mod segment;
pub mod writer;

pub use cache::{CachedQuery, QueryCache};
pub use compact::{CompactConfig, CompactReport, Compactor};
pub use query::{
    causal_chain, windowed_aggregate, AggSource, CausalEvent, Predicate, QueryReport, WindowAgg,
};
pub use reader::{ReaderStats, RecoveryReport, StoreReader, StoreTailer};
pub use replay::{ReplayStats, Replayer};
pub use writer::{StoreStats, StoreWriter};
