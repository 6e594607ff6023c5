//! Determinism of the fault plane itself: an *active* `FaultPlan` must
//! produce bit-identical `SimReport`s, fault counters included, across
//! serial, 2-thread and 4-thread execution, the naive and fast-forward
//! loops, and a snapshot.
//!
//! The fault streams are keyed on per-shard event counters, not wall
//! cycles, and rank death is folded into the shard horizon, so every
//! engine must draw the same schedule and make the same recovery
//! decisions. The plans with their must-fire checks, the engines and the
//! comparison are the lockstep harness's (`lockstep/mod.rs`); this file
//! is its `FAULTS` dimension.

#[macro_use]
mod lockstep;

cases!(FAULTS:
    fault_lockstep_transient = transient
    fault_lockstep_hang = hang
    fault_lockstep_drop = drop
    fault_lockstep_delay = delay
    fault_lockstep_bitflip_ecc = bitflip_ecc
    fault_lockstep_rank_death = rank_death
    fault_lockstep_all_classes = all_classes
);
cases!(FAULTS_RESUMED:
    snapshot_resume_under_active_faults = resume_under_active_faults
    snapshot_resume_after_rank_death = resume_after_rank_death
);
