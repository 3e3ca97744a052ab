//! # brisk-sim — deterministic simulation substrate
//!
//! The paper's distributed evaluation ran on "Sun Ultra-1 workstations …
//! within a 155 Mbps local ATM network" (§4). That testbed is replaced by a
//! virtual-time simulation: per-node [`brisk_clock::SimClock`]s with
//! independent drift, a parameterized one-way [`net::DelayModel`] with
//! jitter and *disturbance windows* ("times when disturbances of various
//! sources in the LAN interfered"), and drivers that run the real BRISK
//! code — the ISM's session machine [`brisk_ism::Ism`], [`brisk_clock::sync`]
//! and [`brisk_ism::IsmCore`] — against them. Every run is seeded, hence
//! exactly reproducible.
//!
//! * [`cluster::SyncSimulation`] — experiments E6/A1: N drifting slave
//!   clocks synchronized over a noisy network by the product's own sync
//!   rounds — the ISM's machine polls every slave concurrently, and its
//!   `SyncPoll`, `SyncReply` and `SyncAdjust` frames cross the simulated
//!   LAN — recording the pairwise skew spread over time.
//! * [`streams`] — experiment E7: multi-node event streams with artificial
//!   delivery delays pushed through the on-line sorter; measures the
//!   ordering/latency trade-off.
//! * [`causal`] — experiment A2: a causal ping-pong workload with badly
//!   skewed clocks; measures consumer-visible tachyons with CRE repair on
//!   and off.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod causal;
pub mod cluster;
pub mod net;
pub mod scenario;
pub mod streams;
pub mod topology;

pub use causal::{run_causal_experiment, CausalConfig, CausalReport};
pub use cluster::{SyncSimConfig, SyncSimReport, SyncSimulation};
pub use net::DelayModel;
pub use scenario::ArrivalProcess;
pub use streams::{run_sorting_experiment, SortingConfig, SortingReport};
pub use topology::{RelayTree, TreeConfig};
