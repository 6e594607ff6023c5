//! Snapshot/restore lockstep: capturing a machine mid-run and resuming
//! the image must continue bit-identically to a run that never
//! snapshotted — under every engine mode — and a captured event trace
//! must replay to identical DRAM statistics.
//!
//! Three layers of coverage:
//!
//! * **Warm-start lockstep over the perf matrix**: for every scenario in
//!   the shared `chopim_exp::perf_matrix`, run a warm-up prefix, fork a
//!   snapshot, and check that resuming under serial and 2-thread
//!   engines both reproduce the cold-path oracle
//!   ([`run_scenario_prefixed`]) bit-for-bit. The prefix is deliberately
//!   off the lookahead-window grid, so mid-window ingress accounting,
//!   refresh phases, and the CPU-clock divider are all captured
//!   mid-flight.
//! * **Mid-op snapshot**: the two-session DAG scenario snapshotted with
//!   NDA instructions in flight (launch slab occupied, FSMs busy, write
//!   buffers non-empty, completions in transit), resumed under every
//!   engine mode and driven to completion against the straight-run
//!   oracle.
//! * **Trace capture → replay**: the recorded DRAM command stream
//!   re-issued through the validating device model must land on the
//!   exact `DramStats` of the original run.
//!
//! Plus rejection coverage: truncated and bit-flipped images, mismatched
//! semantic configurations, and the snapshot preconditions (no spawned
//! streams, not finalized).

use chopim_core::prelude::*;
use chopim_core::SnapshotError;
use chopim_dram::codec::CodecError;
use chopim_dram::trace::replay_bytes;
use chopim_exp::{
    bench_window, capture_prefix, perf_matrix, run_scenario_from, run_scenario_prefixed,
    spawn_spec_workload, ScenarioSpec, SweepRunner, Workload,
};

fn window() -> u64 {
    bench_window(10_000)
}

/// Off the lookahead-window grid (W = 20 for Table II timing), so the
/// capture point sits mid-window.
const PREFIX: u64 = 4_003;

/// Cold oracle vs snapshot-resume under {serial, 2-thread}: all three
/// reports must be bit-identical.
fn assert_snapshot_lockstep(name: &str, spec: &ScenarioSpec, seed: u64) {
    let mut spec = spec.clone();
    spec.seed = seed;
    spec.cfg.sim_threads = 1;
    let oracle = run_scenario_prefixed(&spec, PREFIX);
    let image = capture_prefix(&spec, PREFIX);

    let serial = run_scenario_from(&spec, &image);
    assert_eq!(
        oracle, serial,
        "serial resume diverged from the cold run on `{name}` (seed {seed})"
    );
    let mut par = spec.clone();
    par.cfg.sim_threads = 2;
    assert_eq!(
        oracle,
        run_scenario_from(&par, &image),
        "2-thread resume diverged from the cold run on `{name}` (seed {seed})"
    );
}

fn run_matrix_entry(name: &str) {
    let matrix = perf_matrix(window());
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == name)
        .expect("scenario in matrix");
    for seed in [1, 7] {
        assert_snapshot_lockstep(name, spec, seed);
    }
}

/// Every matrix entry has a dedicated test below; this guards against a
/// new scenario being added to the matrix without snapshot-lockstep
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
        "new matrix scenario: add a snapshot-lockstep test for it"
    );
}

#[test]
fn snapshot_lockstep_host_only() {
    run_matrix_entry("host_only");
}

#[test]
fn snapshot_lockstep_host_idle() {
    run_matrix_entry("host_idle");
}

#[test]
fn snapshot_lockstep_nda_only() {
    run_matrix_entry("nda_only");
}

#[test]
fn snapshot_lockstep_colocated_svrg() {
    run_matrix_entry("colocated_svrg");
}

#[test]
fn snapshot_lockstep_colocated_mix() {
    run_matrix_entry("colocated_mix");
}

#[test]
fn snapshot_lockstep_rank_partitioned() {
    run_matrix_entry("rank_partitioned");
}

#[test]
fn snapshot_lockstep_wide_host_8ch() {
    run_matrix_entry("wide_host_8ch");
}

#[test]
fn snapshot_lockstep_wide_colocated_8ch() {
    run_matrix_entry("wide_colocated_8ch");
}

#[test]
fn snapshot_lockstep_wide_host_16ch() {
    run_matrix_entry("wide_host_16ch");
}

#[test]
fn snapshot_lockstep_wide_colocated_16ch() {
    run_matrix_entry("wide_colocated_16ch");
}

#[test]
fn snapshot_lockstep_multi_tenant_2sess() {
    run_matrix_entry("multi_tenant_2sess");
}

#[test]
fn snapshot_lockstep_multi_tenant_qos() {
    run_matrix_entry("multi_tenant_qos");
}

#[test]
fn snapshot_lockstep_multi_tenant_1k() {
    let matrix = perf_matrix(window().min(8_000));
    let (name, spec) = matrix
        .iter()
        .find(|(n, _)| *n == "multi_tenant_1k")
        .expect("scenario in matrix");
    assert_snapshot_lockstep(name, spec, 1);
}

#[test]
fn snapshot_lockstep_faulty_colocated_8ch() {
    run_matrix_entry("faulty_colocated_8ch");
}

/// Build the two-session DAG machine (the first half of
/// `run_two_session_dag`, before any stream is spawned): session A runs
/// an ordered chain, session B is gated on it across the session
/// boundary.
fn dag_machine(mut cfg: ChopimConfig, seed: u64) -> (ChopimSystem, OpHandle, OpHandle) {
    cfg.seed = seed;
    let mut sys = ChopimSystem::new(cfg);
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    let n = 1 << 13;
    let x = sys.runtime.vector(n, Sharing::Shared);
    let y = sys.runtime.vector(n, Sharing::Shared);
    let u = sys.runtime.vector(n, Sharing::Shared);
    let v = sys.runtime.vector(n, Sharing::Shared);
    let data: Vec<f32> = (0..n).map(|i| (i % 101) as f32 * 0.5 - 25.0).collect();
    sys.runtime.write_vector(x, &data);
    sys.runtime.write_vector(v, &data);
    let _a1 = sa
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let a2 = sa
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![2.0], vec![], Some(y))
        .submit();
    let b1 = sb
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(u))
        .submit();
    let b2 = sb
        .elementwise(&mut sys.runtime, Opcode::Axpy, vec![1.0], vec![y], Some(v))
        .after(a2)
        .after(b1)
        .unordered()
        .submit();
    (sys, a2, b2)
}

/// Snapshot with NDA instructions genuinely in flight: launch slab
/// occupied, rank FSMs mid-instruction, op-graph partially complete.
/// Resuming under every engine mode must finish identically to the
/// straight run.
#[test]
fn snapshot_mid_flight_dag() {
    // Off-grid, and early enough that the DAG is still executing.
    const SPLIT: u64 = 777;
    let base_cfg = || ChopimConfig {
        dram: DramConfig::table_ii().with_channels(4),
        mix: MixId::new(2),
        ..ChopimConfig::default()
    };
    let finish = |mut sys: ChopimSystem, a2: OpHandle, b2: OpHandle| {
        sys.drive(Waitable::all_of([a2, b2]), 4_000_000);
        assert!(sys.runtime.op_done(a2) && sys.runtime.op_done(b2));
        sys.run(2_000);
        sys.report()
    };
    for seed in [1, 7] {
        let (mut sys, a2, b2) = dag_machine(base_cfg(), seed);
        sys.run(SPLIT);
        let oracle = finish(sys, a2, b2);

        let (mut sys, a2, b2) = dag_machine(base_cfg(), seed);
        sys.run(SPLIT);
        let image = sys.snapshot().expect("no streams spawned yet");
        drop(sys);

        for (label, threads) in [("serial", 1usize), ("2-thread", 2)] {
            let mut cfg = base_cfg();
            cfg.seed = seed;
            cfg.sim_threads = threads;
            let resumed = ChopimSystem::resume(cfg, &image).expect("image must resume");
            assert_eq!(
                oracle,
                finish(resumed, a2, b2),
                "{label} mid-flight resume diverged (seed {seed})"
            );
        }
    }
}

/// Build a three-tenant machine with the QoS runtime state fully
/// populated: mixed classes, direct submissions on two sessions, and an
/// executor session whose in-flight cap admits its first job graph and
/// parks the second in the admission queue.
fn qos_machine(mut cfg: ChopimConfig, seed: u64) -> (ChopimSystem, Ticket, Ticket) {
    cfg.seed = seed;
    let mut sys = ChopimSystem::new(cfg);
    let lat = sys.runtime.default_session();
    let heavy = sys.runtime.create_session();
    let light = sys.runtime.create_session();
    sys.runtime.set_qos(lat, QosClass::LatencySensitive);
    sys.runtime.set_qos(heavy, QosClass::Batch { weight: 4 });
    // `light` keeps the default Batch { weight: 1 }.
    let n = 1 << 14;
    let x = sys.runtime.vector(n, Sharing::Shared);
    let y = sys.runtime.vector(n, Sharing::Shared);
    let u = sys.runtime.vector(n, Sharing::Shared);
    let w = sys.runtime.vector(n, Sharing::Shared);
    let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25 - 12.0).collect();
    sys.runtime.write_vector(x, &data);
    let _ = lat
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let _ = lat
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![0.5], vec![], Some(y))
        .submit();
    let _ = light
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(w))
        .submit();
    // Cap of 2 in-flight ops: the two-node graph is admitted whole, the
    // follow-up job must wait in the queue until it retires.
    sys.runtime.set_tenant_limits(
        heavy,
        TenantLimits {
            max_inflight_ops: 2,
            queue_depth: 4,
        },
    );
    let mut g1 = JobGraph::new();
    let c = g1.elementwise(Opcode::Copy, vec![], vec![x], Some(u));
    let a = g1.elementwise(Opcode::Axpy, vec![1.0], vec![u], Some(y));
    g1.after(a, c);
    let t1 = sys
        .runtime
        .submit_job(heavy, g1)
        .expect("fits under the cap");
    let mut g2 = JobGraph::new();
    g2.elementwise(Opcode::Scal, vec![0.75], vec![], Some(u));
    let t2 = sys.runtime.submit_job(heavy, g2).expect("queue has room");
    (sys, t1, t2)
}

/// Snapshot with the QoS scheduler mid-stride: ready-index entries live,
/// virtual times charged, per-tenant meters non-zero, one executor job
/// admitted and another parked in the admission queue. Resuming under
/// every engine mode must admit, schedule, and retire identically to the
/// straight run — including the `SimReport.tenants` metering.
#[test]
fn snapshot_mid_flight_qos_executor() {
    // Off the lookahead-window grid, early enough that the queued job is
    // still waiting on the admitted one.
    const SPLIT: u64 = 777;
    let base_cfg = || ChopimConfig {
        dram: DramConfig::table_ii().with_channels(4),
        mix: MixId::new(2),
        ..ChopimConfig::default()
    };
    let finish = |mut sys: ChopimSystem, t1: Ticket, t2: Ticket| {
        sys.run(60_000);
        assert!(sys.runtime.ticket_done(t1), "admitted job must retire");
        assert!(
            sys.runtime.ticket_done(t2),
            "queued job must be admitted and retire"
        );
        assert!(sys.runtime.quiescent());
        sys.report()
    };
    for seed in [1, 7] {
        let (mut sys, t1, t2) = qos_machine(base_cfg(), seed);
        sys.run(SPLIT);
        let oracle = finish(sys, t1, t2);

        let (mut sys, t1, t2) = qos_machine(base_cfg(), seed);
        sys.run(SPLIT);
        assert!(
            sys.runtime.ticket_admitted(t1),
            "first job admitted at submit"
        );
        assert!(
            !sys.runtime.ticket_admitted(t2),
            "second job must still be queued at the capture point"
        );
        let image = sys.snapshot().expect("no streams spawned");
        drop(sys);

        for (label, threads) in [("serial", 1usize), ("2-thread", 2)] {
            let mut cfg = base_cfg();
            cfg.seed = seed;
            cfg.sim_threads = threads;
            let resumed = ChopimSystem::resume(cfg, &image).expect("image must resume");
            assert_eq!(
                oracle,
                finish(resumed, t1, t2),
                "{label} QoS/executor mid-flight resume diverged (seed {seed})"
            );
        }
    }
}

/// `cfg` with every engine-mode knob pinned, so nothing the environment
/// sets (`CHOPIM_SIM_THREADS`, `CHOPIM_FAULTS`, ...) reaches the image.
fn pinned(cfg: ChopimConfig) -> ChopimConfig {
    ChopimConfig {
        sim_threads: 1,
        trace_path: None,
        ..cfg
    }
}

/// `(length, fnv1a)` of a framed image.
fn fingerprint(image: &[u8]) -> (usize, u64) {
    (image.len(), chopim_dram::codec::fnv1a(image))
}

/// The CHSS v7 bytes of four fixed machines, pinned. Any change to the
/// encoded layout — a field added, dropped, reordered, or re-encoded in
/// any component codec — moves at least one of these and must come with
/// a format version bump (`docs/SNAPSHOT_FORMAT.md`, "Versioning").
#[test]
fn snapshot_bytes_are_pinned() {
    // (a) A default machine at cycle 0: the worked example of the spec.
    let sys = ChopimSystem::new(pinned(ChopimConfig {
        faults: FaultPlan::NONE,
        ..ChopimConfig::default()
    }));
    let image = sys.snapshot().expect("fresh machine");
    assert_eq!(
        image[..48],
        [
            0x43, 0x48, 0x53, 0x53, 0x07, 0x00, 0x00, 0x00, 0x80, 0xc4, 0x02, 0x00, 0x00, 0x00,
            0x00, 0x00, 0xd6, 0x89, 0x55, 0x41, 0xe5, 0x68, 0xf9, 0xf9, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x10, 0x10, 0x10, 0x10, 0x00,
        ],
        "header no longer matches the worked dump in docs/SNAPSHOT_FORMAT.md"
    );
    assert_eq!(
        fingerprint(&image),
        (181_400, 0x5c8c_bbe7_cdc2_a39b),
        "default"
    );

    // (b) Mid-flight under an active fault plan (live in-flight records,
    // completion status bytes, per-op recovery state).
    let mut sys = ChopimSystem::new(pinned(ChopimConfig {
        mix: MixId::new(2),
        faults: FaultPlan::parse("seed=7,transient=90,drop=100,delay=80:64"),
        instr_timeout: 8_000,
        ..ChopimConfig::default()
    }));
    let len = 1 << 12;
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; len]);
    let sess = sys.runtime.default_session();
    let _op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .opts(LaunchOpts {
            granularity_lines: Some(4),
            barrier_per_chunk: false,
        })
        .deadline(1_000_000)
        .submit();
    sys.run(4_003);
    let image = sys.snapshot().expect("mid-flight capture");
    assert_eq!(
        fingerprint(&image),
        (207_200, 0xec62_686c_d957_9e89),
        "faulty"
    );

    // (c) The two-session DAG and the QoS/executor machines mid-flight.
    let cfg = || {
        pinned(ChopimConfig {
            dram: DramConfig::table_ii().with_channels(4),
            mix: MixId::new(2),
            faults: FaultPlan::NONE,
            ..ChopimConfig::default()
        })
    };
    let (mut sys, _, _) = dag_machine(cfg(), 1);
    sys.run(777);
    let image = sys.snapshot().expect("no streams");
    assert_eq!(fingerprint(&image), (322_582, 0x3fcc_1a4a_1b4a_3a26), "dag");
    let (mut sys, _, _) = qos_machine(cfg(), 1);
    sys.run(777);
    let image = sys.snapshot().expect("no streams");
    assert_eq!(fingerprint(&image), (453_958, 0x2489_012c_8e30_11bb), "qos");
}

/// Capture → replay: re-issuing the recorded command stream through the
/// validating device model must land on the original run's exact DRAM
/// statistics.
#[test]
fn trace_capture_replay_stats_identity() {
    let matrix = perf_matrix(window().min(10_000));
    for name in [
        "host_only",
        "nda_only",
        "colocated_svrg",
        "rank_partitioned",
    ] {
        let (_, spec) = matrix
            .iter()
            .find(|(n, _)| *n == name)
            .expect("scenario in matrix");
        let mut cfg = spec.cfg.clone();
        cfg.seed = spec.seed;
        let dram_cfg = cfg.dram.clone();
        let mut sys = ChopimSystem::new(cfg);
        sys.enable_trace_capture();
        spawn_spec_workload(&mut sys, spec.workload.clone());
        sys.run(spec.window);
        let bytes = sys.trace_bytes();
        let report = sys.report();
        let outcome = replay_bytes(&dram_cfg, &bytes)
            .unwrap_or_else(|e| panic!("replay failed on `{name}`: {e:?}"));
        assert_eq!(outcome.end_cycle, report.cycles, "end cycle on `{name}`");
        assert_eq!(
            outcome.stats, report.dram,
            "replayed DRAM stats diverged on `{name}`"
        );
        if name != "host_only" {
            assert!(outcome.launches > 0, "`{name}` should record launches");
        }
    }

    // A small-op scenario whose instructions actually retire inside the
    // window, so launch AND completion records are exercised end-to-end
    // (the matrix's big-operand ops stay in flight at these windows).
    let mut spec = ScenarioSpec::with_window(20_000);
    spec.workload = Workload::elementwise(Opcode::Axpy, 1 << 12);
    let mut cfg = spec.cfg.clone();
    cfg.seed = spec.seed;
    let dram_cfg = cfg.dram.clone();
    let mut sys = ChopimSystem::new(cfg);
    sys.enable_trace_capture();
    spawn_spec_workload(&mut sys, spec.workload.clone());
    sys.run(spec.window);
    let bytes = sys.trace_bytes();
    let report = sys.report();
    assert!(report.nda_instrs_completed > 0, "ops must retire in-window");
    let outcome = replay_bytes(&dram_cfg, &bytes).expect("replay small-op trace");
    assert_eq!(outcome.stats, report.dram);
    assert!(outcome.launches > 0);
    assert!(outcome.completions > 0);
}

/// `ChopimConfig::trace_path` wires capture at construction and
/// `write_trace` emits a file replayable from disk.
#[test]
fn trace_path_writes_replayable_file() {
    let path = std::env::temp_dir().join(format!("chopim_trace_test_{}.chtr", std::process::id()));
    let mut cfg = ChopimConfig {
        mix: MixId::new(2),
        ..ChopimConfig::default()
    };
    cfg.trace_path = Some(path.clone());
    let dram_cfg = cfg.dram.clone();
    let mut sys = ChopimSystem::new(cfg);
    sys.run(5_000);
    let written = sys.write_trace().expect("write").expect("path configured");
    assert_eq!(written, path);
    let report = sys.report();
    let bytes = std::fs::read(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    let outcome = replay_bytes(&dram_cfg, &bytes).expect("replay from file");
    assert_eq!(outcome.stats, report.dram);
}

/// Damaged images must be rejected with an error, never accepted or
/// panicked on; engine-mode knobs may differ, semantic knobs may not.
#[test]
fn snapshot_rejects_damage_and_config_mismatch() {
    let mut spec = ScenarioSpec::with_window(1);
    spec.cfg.mix = MixId::new(2);
    let image = capture_prefix(&spec, 2_003);
    let cfg = || {
        let mut c = spec.cfg.clone();
        c.seed = spec.seed;
        c
    };
    assert!(
        ChopimSystem::resume(cfg(), &image).is_ok(),
        "baseline resume"
    );

    // Truncations at a spread of lengths: always a clean error.
    for len in [0, 3, 4, 11, image.len() / 2, image.len() - 1] {
        assert!(
            ChopimSystem::resume(cfg(), &image[..len]).is_err(),
            "truncation to {len} bytes accepted"
        );
    }
    // Bit flips across the whole image: the checksum (or a structural
    // validation) must catch every one.
    let step = (image.len() / 29).max(1);
    for i in (0..image.len()).step_by(step) {
        let mut bad = image.clone();
        bad[i] ^= 0x40;
        assert!(
            ChopimSystem::resume(cfg(), &bad).is_err(),
            "bit flip at byte {i} accepted"
        );
    }
    // A different semantic configuration is a fingerprint mismatch.
    let mut other = cfg();
    other.seed ^= 1;
    assert!(matches!(
        ChopimSystem::resume(other, &image),
        Err(CodecError::ConfigMismatch)
    ));
    let mut other = cfg();
    other.nda_queue_cap += 1;
    assert!(matches!(
        ChopimSystem::resume(other, &image),
        Err(CodecError::ConfigMismatch)
    ));
    // Engine-mode knobs are free.
    let mut free = cfg();
    free.sim_threads = 2;
    free.fast_forward = false;
    assert!(ChopimSystem::resume(free, &image).is_ok());
}

/// Snapshot preconditions: spawned streams and finalized statistics are
/// both refused.
#[test]
fn snapshot_refuses_streams_and_finalized() {
    let mut sys = ChopimSystem::new(ChopimConfig::default());
    spawn_spec_workload(&mut sys, Workload::elementwise(Opcode::Axpy, 1 << 12));
    assert_eq!(sys.snapshot().unwrap_err(), SnapshotError::ActiveStreams);

    let mut sys = ChopimSystem::new(ChopimConfig::default());
    sys.run(100);
    let _ = sys.report();
    assert_eq!(sys.snapshot().unwrap_err(), SnapshotError::Finalized);
}

/// The `SweepRunner` warm-start mode forks N points from one captured
/// prefix; every point must equal its cold-path run, and the fork must
/// be thread-safe (the image is shared read-only).
#[test]
fn warm_start_sweep_matches_cold_runs() {
    let prefix = 3_003;
    let mut base = ScenarioSpec::with_window(window().min(8_000));
    base.cfg.mix = MixId::new(2);
    base.workload = Workload::elementwise(Opcode::Axpy, 1 << 14);

    let mut p1 = base.clone();
    p1.cfg.sim_threads = 2;
    let mut p2 = base.clone();
    p2.cfg.fast_forward = false;
    let mut p3 = base.clone();
    p3.workload = Workload::elementwise(Opcode::Dot, 1 << 14);
    let specs = vec![base.clone(), p1, p2, p3];

    let warm = SweepRunner::with_threads(2).run_warm_start(&base, prefix, &specs);
    assert_eq!(warm.points.len(), specs.len());
    for (point, spec) in warm.points.iter().zip(&specs) {
        assert_eq!(
            point.result,
            run_scenario_prefixed(spec, prefix),
            "warm-start point diverged from its cold run"
        );
    }
}
