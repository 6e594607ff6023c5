//! # chopim-exp — the experiment subsystem
//!
//! Every figure in the paper is a *sweep*: the same machine simulated over
//! a grid of configuration points (policies, bank partitions, launch
//! granularities, rank counts, host mixes). This crate turns those sweeps
//! from hand-rolled per-bench loops into three declarative pieces:
//!
//! * [`ScenarioSpec`] — a cloneable description of one simulation point:
//!   a [`ChopimConfig`](chopim_core::ChopimConfig), a declarative
//!   [`Workload`], a measurement window, and a seed;
//! * [`SweepBuilder`] — builds the cartesian grid of specs from named
//!   axes, tagging each point and deriving a deterministic per-point
//!   seed from the tag set (stable under reordering and threading);
//! * [`SweepRunner`] — executes points across threads (or serially; the
//!   results are bit-identical either way) and collects them into a
//!   tagged [`SweepResult`] with CSV emit and table helpers.
//!
//! ## Example
//!
//! ```
//! use chopim_exp::prelude::*;
//! use chopim_core::prelude::*;
//!
//! let specs = SweepBuilder::new(ScenarioSpec::with_window(5_000))
//!     .axis("banks", [("shared", 0usize), ("partitioned", 1)],
//!           |s, &r| s.cfg.reserved_banks = r)
//!     .axis("op", [("DOT", Opcode::Dot), ("COPY", Opcode::Copy)],
//!           |s, &op| s.workload = Workload::elementwise(op, 1 << 10))
//!     .build();
//! assert_eq!(specs.len(), 4);
//! let result = SweepRunner::serial().run_reports(&specs);
//! let dot = result.get(&[("banks", "partitioned"), ("op", "DOT")]);
//! assert!(dot.result.cycles >= 5_000);
//! ```

#![forbid(unsafe_code)]

pub mod grid;
pub mod perfmatrix;
pub mod result;
pub mod runner;
pub mod scenario;

pub use grid::{labeled, SweepBuilder};
pub use perfmatrix::{bench_window, perf_matrix};
pub use result::{rows_to_csv, Metrics, SweepPoint, SweepResult};
pub use runner::SweepRunner;
pub use scenario::{
    capture_prefix, fleet_qos, run_scenario, run_scenario_from, run_scenario_prefixed,
    run_two_session_dag, spawn_spec_workload, spawn_workload, ScenarioSpec, Workload,
};

/// Everything needed to declare and run a sweep.
pub mod prelude {
    pub use crate::grid::{labeled, SweepBuilder};
    pub use crate::result::{rows_to_csv, Metrics, SweepPoint, SweepResult};
    pub use crate::runner::SweepRunner;
    pub use crate::scenario::{run_scenario, spawn_workload, ScenarioSpec, Workload};
}
