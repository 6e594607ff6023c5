//! Thread-count lockstep of the channel-sharded engine: every case run
//! on a 2- or 4-thread worker pool must produce a `SimReport`
//! bit-identical to serial execution.
//!
//! The schedule (lookahead windows, message delivery cycles, per-shard
//! policy RNG streams) is fixed by the configuration, so state leaking
//! across the shard boundary, an order that depends on worker
//! interleaving, or a drifted RNG stream shows up as a mismatch. The
//! cases, engines and the comparison are the lockstep harness's
//! (`lockstep/mod.rs`); this file is its `THREADS` dimension.

#[macro_use]
mod lockstep;

matrix!(THREADS);
cases!(THREADS:
    shard_lockstep_dag_two_sessions = dag_two_sessions_4ch
    shard_lockstep_stochastic_policy = stochastic_policy
    shard_lockstep_packetized = packetized
    shard_lockstep_boundary_latencies = boundary_latencies
    shard_lockstep_single_cycle_window = single_cycle_window
    shard_lockstep_naive_loop = naive_loop
);
