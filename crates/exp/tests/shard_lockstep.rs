//! Thread-count lockstep of the channel-sharded engine: for every
//! scenario in the shared perf matrix, running the shards on a 2- or
//! 4-thread worker pool must produce a `SimReport` bit-identical to
//! serial execution.
//!
//! This is the contract that makes the parallel executor trustworthy:
//! the engine's schedule — lookahead windows, message delivery cycles,
//! per-shard policy RNG streams — is fixed by the configuration, and
//! `sim_threads` only chooses how many workers tick the (fully
//! independent) shards. Any shared mutable state that leaked across the
//! shard boundary, any ordering that depended on worker interleaving,
//! or any drifted RNG stream shows up as a report mismatch.
//!
//! The matrix is the same `chopim_exp::perf_matrix` the `chopim-perf`
//! harness measures (including the wide 8-channel scenarios the
//! parallel speedup gate runs on), so the equivalence job always covers
//! exactly what the perf gate gates. CI runs this suite twice — with
//! `CHOPIM_SIM_THREADS` unset (specs pin their own thread counts) — and
//! the weekly job repeats it at the 200 000-cycle window via
//! `CHOPIM_BENCH_CYCLES`.

use chopim_core::prelude::*;
use chopim_exp::{bench_window, perf_matrix, run_scenario, ScenarioSpec, Workload};

fn window() -> u64 {
    bench_window(20_000)
}

/// Serial vs 2-thread vs 4-thread reports must be bit-identical.
fn assert_thread_lockstep(name: &str, spec: &ScenarioSpec, seed: u64) {
    let mut serial = spec.clone();
    serial.seed = seed;
    serial.cfg.sim_threads = 1;
    let serial_report = run_scenario(&serial);
    for threads in [2usize, 4] {
        let mut par = spec.clone();
        par.seed = seed;
        par.cfg.sim_threads = threads;
        let par_report = run_scenario(&par);
        assert_eq!(
            serial_report, par_report,
            "{threads}-thread execution diverged from serial on `{name}` (seed {seed})"
        );
    }
}

fn run_matrix_entry(name: &str) {
    let matrix = perf_matrix(window());
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == name)
        .expect("scenario in matrix");
    for seed in [1, 7] {
        assert_thread_lockstep(name, spec, seed);
    }
}

/// Every matrix entry has a dedicated test below; this guards against a
/// new scenario being added to the matrix without thread-lockstep
/// coverage.
#[test]
fn matrix_is_fully_covered() {
    let names: Vec<&str> = perf_matrix(1).iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        vec![
            "host_only",
            "host_idle",
            "nda_only",
            "colocated_svrg",
            "colocated_mix",
            "rank_partitioned",
            "wide_host_8ch",
            "wide_colocated_8ch",
            "wide_host_16ch",
            "wide_colocated_16ch",
            "multi_tenant_2sess",
            "multi_tenant_qos",
            "multi_tenant_1k",
            "faulty_colocated_8ch"
        ],
        "new matrix scenario: add a shard-lockstep test for it"
    );
}

#[test]
fn shard_lockstep_faulty_colocated_8ch() {
    run_matrix_entry("faulty_colocated_8ch");
}

#[test]
fn shard_lockstep_host_only() {
    run_matrix_entry("host_only");
}

#[test]
fn shard_lockstep_host_idle() {
    run_matrix_entry("host_idle");
}

#[test]
fn shard_lockstep_nda_only() {
    run_matrix_entry("nda_only");
}

#[test]
fn shard_lockstep_colocated_svrg() {
    run_matrix_entry("colocated_svrg");
}

#[test]
fn shard_lockstep_colocated_mix() {
    run_matrix_entry("colocated_mix");
}

#[test]
fn shard_lockstep_rank_partitioned() {
    run_matrix_entry("rank_partitioned");
}

#[test]
fn shard_lockstep_wide_host_8ch() {
    run_matrix_entry("wide_host_8ch");
}

#[test]
fn shard_lockstep_multi_tenant_2sess() {
    run_matrix_entry("multi_tenant_2sess");
}

/// 32 mixed-QoS streaming tenants on a 4-channel machine: credit
/// returns (which wake parked sessions) arrive from different shards,
/// so worker interleaving must not perturb QoS arbitration.
#[test]
fn shard_lockstep_multi_tenant_qos() {
    let matrix = perf_matrix(window().min(20_000));
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == "multi_tenant_qos")
        .expect("scenario in matrix");
    for seed in [1, 7] {
        assert_thread_lockstep(name, spec, seed);
    }
}

/// The thousand-tenant headline point, windowed down: the ready-index
/// schedule over 1000 sessions must be thread-count independent.
#[test]
fn shard_lockstep_multi_tenant_1k() {
    let matrix = perf_matrix(window().min(12_000));
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == "multi_tenant_1k")
        .expect("scenario in matrix");
    assert_thread_lockstep(name, spec, 1);
}

#[test]
fn shard_lockstep_wide_colocated_8ch() {
    run_matrix_entry("wide_colocated_8ch");
}

#[test]
fn shard_lockstep_wide_host_16ch() {
    run_matrix_entry("wide_host_16ch");
}

#[test]
fn shard_lockstep_wide_colocated_16ch() {
    run_matrix_entry("wide_colocated_16ch");
}

/// The two-session dependency-graph scenario on a 4-channel machine:
/// `(session, op)`-tagged completion routing crosses the shard boundary,
/// so worker interleaving must not perturb DAG staging or fair-share
/// arbitration.
#[test]
fn shard_lockstep_dag_two_sessions() {
    let window = window().min(20_000);
    for seed in [1, 7] {
        let mk = |threads: usize| {
            let mut cfg = ChopimConfig {
                dram: DramConfig::table_ii().with_channels(4),
                mix: MixId::new(2),
                ..ChopimConfig::default()
            };
            cfg.sim_threads = threads;
            chopim_exp::run_two_session_dag(cfg, window, seed)
        };
        let serial = mk(1);
        for threads in [2usize, 4] {
            assert_eq!(
                serial,
                mk(threads),
                "{threads}-thread execution diverged on the two-session DAG (seed {seed})"
            );
        }
    }
}

/// Stochastic write throttling draws per-shard RNG streams; worker
/// interleaving must not perturb them.
#[test]
fn shard_lockstep_stochastic_policy() {
    let mut spec = ScenarioSpec::with_window(window().min(20_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.policy = WriteIssuePolicy::stochastic(1, 4);
    spec.workload = Workload::elementwise(Opcode::Copy, 1 << 15);
    assert_thread_lockstep("stochastic", &spec, 3);
}

/// Packetized mode routes everything through the ingress queues whose
/// occupancy view is published at window barriers; the barrier schedule
/// must be thread-count independent.
#[test]
fn shard_lockstep_packetized() {
    let mut spec = ScenarioSpec::with_window(window().min(20_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.packetized_latency = 8;
    spec.workload = Workload::elementwise(Opcode::Axpy, 1 << 15);
    assert_thread_lockstep("packetized", &spec, 5);
}

/// Non-default cross-boundary pipeline depths change the lookahead
/// window (`completion_latency = 5` shrinks W to 5; `ingress_latency`
/// exercises delayed front-end → shard delivery). The schedule must
/// stay thread-count independent at every window length.
#[test]
fn shard_lockstep_boundary_latencies() {
    let mut spec = ScenarioSpec::with_window(window().min(10_000));
    spec.cfg.mix = MixId::new(2);
    spec.cfg.ingress_latency = 6;
    spec.cfg.completion_latency = 5;
    spec.workload = Workload::elementwise(Opcode::Axpy, 1 << 15);
    assert_thread_lockstep("boundary_latencies", &spec, 11);
}

/// `completion_latency = 1` collapses the lookahead window to a single
/// cycle — a barrier every cycle, the degenerate schedule most likely
/// to expose an off-by-one in the window grid.
#[test]
fn shard_lockstep_single_cycle_window() {
    let mut spec = ScenarioSpec::with_window(window().min(3_000));
    spec.cfg.mix = MixId::new(4);
    spec.cfg.completion_latency = 1;
    spec.workload = Workload::elementwise(Opcode::Copy, 1 << 14);
    assert_thread_lockstep("single_cycle_window", &spec, 13);
}

/// The naive reference loop (`fast_forward = false`) must be just as
/// thread-count independent as the fast path.
#[test]
fn shard_lockstep_naive_loop() {
    let mut spec = ScenarioSpec::with_window(window().min(10_000));
    spec.cfg.mix = MixId::new(4);
    spec.cfg.fast_forward = false;
    spec.workload = Workload::elementwise(Opcode::Dot, 1 << 15);
    assert_thread_lockstep("naive_loop", &spec, 9);
}
