//! # brisk-ringbuf — the sensor→EXS shared-memory rings
//!
//! In BRISK, "internal sensors use cpp macros to write instrumentation data
//! records to the memory. The memory is read by an external sensor, which
//! runs as another process on the same node" (§3.1). The original used a
//! SysV shared-memory segment holding "a ring-buffer data structure"; here
//! the equivalent is an in-process lock-free ring shared between sensor
//! threads and the external-sensor thread. Threads stand in for the
//! original's processes — the synchronization discipline (single-writer /
//! single-reader, no locks, never block the application) is identical, and
//! it is what experiments E1/E2 measure.
//!
//! Two layers:
//!
//! * [`spsc::ByteRing`] — a fixed-capacity single-producer single-consumer
//!   byte ring carrying length-prefixed frames. Writes never block: if the
//!   ring is full the frame is *dropped* and counted, because a sensor must
//!   never stall the target application (§2, "degree of intrusion").
//! * [`record::RecordRing`] / [`record::RingSet`] — typed wrappers that
//!   frame [`brisk_core::EventRecord`]s using the native binary encoding.
//!   A [`record::RingSet`] holds one SPSC ring per internal sensor, mirroring
//!   the paper's one-segment-per-instrumented-process layout; the EXS
//!   drains them all.

#![deny(missing_docs)]

pub mod record;
pub mod spsc;

pub use record::{RecordConsumer, RecordRing, RingSet, SensorPort};
pub use spsc::{ByteRing, Doorbell, Fill, RingConsumer, RingProducer, RingStats};
