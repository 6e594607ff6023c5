//! # chopim — facade crate
//!
//! Reproduction of "Near Data Acceleration with Concurrent Host Access"
//! (Cho, Kwon, Lym, Erez — ISCA 2020). This crate re-exports the whole
//! workspace so examples, integration tests, and downstream users have a
//! single dependency:
//!
//! * [`dram`] — cycle-level DDR4 device/channel timing model,
//! * [`mapping`] — XOR-hash address mapping, bank partitioning, OS
//!   coloring/allocation,
//! * [`host`] — multi-core out-of-order host model with SPEC-like mixes,
//! * [`nda`] — near-data accelerator PEs, microcode, write buffer, FSMs,
//! * [`core`] — the Chopim system: FR-FCFS host controller, NDA issue
//!   policies, replicated FSM coordination, runtime/API, energy model,
//! * [`ml`] — SVRG logistic regression (host-only / accelerated /
//!   delayed-update) and its simulator-measured time model,
//! * [`exp`] — the experiment subsystem: declarative [`exp::ScenarioSpec`]s,
//!   cartesian sweep grids, and the deterministic parallel
//!   [`exp::SweepRunner`] every figure bench runs on.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

pub use chopim_core as core;
pub use chopim_dram as dram;
pub use chopim_exp as exp;
pub use chopim_host as host;
pub use chopim_mapping as mapping;
pub use chopim_ml as ml;
pub use chopim_nda as nda;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use chopim_core::prelude::*;
    pub use chopim_dram::{DramConfig, TimingParams};
    pub use chopim_exp::prelude::*;
    pub use chopim_host::MixId;
}
