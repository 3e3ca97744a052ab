//! # brisk-core — event model, dynamic typing and shared definitions
//!
//! This crate is the foundation of the BRISK distributed instrumentation
//! system kernel (Bakić, Mutka & Rover, IPPS 1999). It defines:
//!
//! * [`time::UtcMicros`] — the eight-byte microsecond UTC timestamp the
//!   paper embeds into every event record (`longlong_t` in the original).
//! * [`value::Value`] / [`value::ValueType`] — the dynamically-typed field
//!   system. The paper's internal sensors can write heterogeneous records
//!   "with over ten basic types available for individual fields, ranging
//!   from bytes, to floats, to null-terminated strings", plus three *system*
//!   types: `X_TS` (embedded timestamp), `X_REASON` and `X_CONSEQ`
//!   (causally-related event markers).
//! * [`record::EventRecord`] — one instrumentation data record.
//! * [`descriptor::RecordDescriptor`] — the meta-information describing the
//!   shape of a record; the transfer protocol sends it in compressed form.
//! * [`binenc`] — the compact *native* binary encoding used for the
//!   sensor→EXS shared-memory ring buffer and for the ISM output memory
//!   buffer ("the same binary structure used by the NOTICE macros").
//! * [`config`] — the tuning knobs the paper adds "to many of BRISK's
//!   subsystems, so that users can trade-off among the various simple and
//!   complex IS performance metrics".
//! * [`error::BriskError`] — the error type shared by all BRISK crates.
//!
//! `brisk-core` deliberately has no dependencies: it corresponds to the
//! "tiny library" linked into every instrumented application.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod binenc;
pub mod config;
pub mod descriptor;
pub mod error;
pub mod hlc;
pub mod ids;
pub mod record;
pub mod sink;
pub mod time;
pub mod trace;
pub mod value;

pub use config::{
    CreConfig, ExsConfig, FlowConfig, FsyncPolicy, IsmConfig, OrderMode, SorterConfig, StoreConfig,
    SyncConfig, TraceConfig,
};
pub use descriptor::{PackedDescriptor, RecordDescriptor};
pub use error::{BriskError, Result};
pub use hlc::HlcStamp;
pub use ids::{CorrelationId, EventTypeId, NodeId, SensorId};
pub use record::{EventRecord, RecordMarks};
pub use sink::EventSink;
pub use time::UtcMicros;
pub use trace::{trace_stamps_dropped_total, TraceContext, TraceStage, MAX_TRACE_STAMPS};
pub use value::{Value, ValueType};

/// Convenient glob-import surface: `use brisk_core::prelude::*;`.
pub mod prelude {
    pub use crate::config::{
        CreConfig, ExsConfig, FlowConfig, FsyncPolicy, IsmConfig, OrderMode, SorterConfig,
        StoreConfig, SyncConfig, TraceConfig,
    };
    pub use crate::descriptor::RecordDescriptor;
    pub use crate::error::{BriskError, Result};
    pub use crate::hlc::HlcStamp;
    pub use crate::ids::{CorrelationId, EventTypeId, NodeId, SensorId};
    pub use crate::record::EventRecord;
    pub use crate::sink::EventSink;
    pub use crate::time::UtcMicros;
    pub use crate::trace::{TraceContext, TraceStage, MAX_TRACE_STAMPS};
    pub use crate::value::{Value, ValueType};
}
