//! The lockstep harness: one machine must produce a bit-identical
//! `SimReport` whatever engine runs it. This module holds the three case
//! tables, the engine modes and the one comparison; each lockstep test
//! binary includes it and is one dimension of the contract:
//!
//! * `ff_lockstep` — fast-forward against the naive cycle-by-cycle loop.
//! * `shard_lockstep` — serial against a 2- and a 4-thread shard pool.
//! * `snapshot_lockstep` — a run that never snapshotted against the
//!   machine captured mid-run and resumed serially and on 2 threads,
//!   plus the snapshot and trace formats' own tests.
//! * `fault_lockstep` — an *active* fault plan under every engine, also
//!   across a snapshot.
//!
//! The matrix cases are `chopim_exp::perf_matrix`, the scenarios the
//! `chopim-perf` gate measures. `CHOPIM_BENCH_CYCLES` replaces every
//! default window, and `CHOPIM_SIM_THREADS` reaches the engines that
//! leave the thread count to the machine (CI reruns `ff_lockstep` under
//! it).

use chopim_core::prelude::*;
use chopim_exp::{
    bench_window, capture_prefix, perf_matrix, run_scenario, run_scenario_from,
    run_scenario_prefixed, run_two_session_dag, ScenarioSpec, Workload,
};

/// How an engine reaches the end of a case: from cycle 0, straight
/// through the snapshot point, or from the image captured there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Start {
    Straight,
    Cold,
    Resumed,
}

/// An engine mode: a label, the shard thread count, the fast-forward
/// switch and the start. It changes how a machine runs, never what it
/// computes; a `None` knob stays as the machine (or the environment)
/// sets it.
pub type Engine = (&'static str, Option<usize>, Option<bool>, Start);

const NAIVE: Engine = ("naive loop", None, Some(false), Start::Straight);
const FAST: Engine = ("fast-forward", None, Some(true), Start::Straight);
const SERIAL: Engine = ("serial", Some(1), None, Start::Straight);
const TWO_THREADS: Engine = ("2-thread", Some(2), None, Start::Straight);
const FOUR_THREADS: Engine = ("4-thread", Some(4), None, Start::Straight);
const SERIAL_NAIVE: Engine = ("serial naive", Some(1), Some(false), Start::Straight);
const SERIAL_FAST: Engine = ("serial fast", Some(1), Some(true), Start::Straight);
const TWO_THREADS_FAST: Engine = ("2-thread fast", Some(2), Some(true), Start::Straight);
const FOUR_THREADS_FAST: Engine = ("4-thread fast", Some(4), Some(true), Start::Straight);
const FOUR_THREADS_NAIVE: Engine = ("4-thread naive", Some(4), Some(false), Start::Straight);
const COLD: Engine = ("cold serial", Some(1), None, Start::Cold);
const RESUMED: Engine = ("resumed serial", Some(1), None, Start::Resumed);
const RESUMED_TWO_THREADS: Engine = ("resumed 2-thread", Some(2), None, Start::Resumed);

/// A lockstep dimension: the oracle engine, the engines that must
/// reproduce its report bit for bit, and the default window
/// (`CHOPIM_BENCH_CYCLES` replaces it; a case may cap it).
pub type Dim = (Engine, &'static [Engine], u64);

pub const FF: Dim = (NAIVE, &[FAST], 30_000);
pub const THREADS: Dim = (SERIAL, &[TWO_THREADS, FOUR_THREADS], 20_000);
pub const SNAPSHOT: Dim = (COLD, &[RESUMED, RESUMED_TWO_THREADS], 10_000);
const FAULT_ENGINES: &[Engine] = &[
    SERIAL_FAST,
    TWO_THREADS_FAST,
    FOUR_THREADS_FAST,
    FOUR_THREADS_NAIVE,
];
// Only `fault_lockstep` runs this dimension, so the other binaries
// leave it and its engines unused.
#[allow(dead_code)]
pub const FAULTS: Dim = (SERIAL_NAIVE, FAULT_ENGINES, 20_000);
/// The snapshot comparison at the fault window, for `fault_lockstep`.
pub const FAULTS_RESUMED: Dim = (COLD, &[RESUMED, RESUMED_TWO_THREADS], 20_000);

/// The snapshot point of spec machines: off the lookahead-window grid
/// (W = 20 for Table II timing), so mid-window ingress accounting,
/// refresh phases and the CPU-clock divider are all captured mid-flight.
const PREFIX: u64 = 4_003;

/// The snapshot point of the mid-flight machines: off-grid, and early
/// enough that their ops are still executing.
const SPLIT: u64 = 777;

/// Runs a mid-flight machine from its snapshot point to its report.
pub type Finish = Box<dyn FnOnce(ChopimSystem) -> SimReport>;

/// The snapshot image the resumed engines of one case and seed share.
type Image = Option<Vec<u8>>;

/// What a case runs.
enum Machine {
    /// A spec through `run_scenario`, or with its workload spawned at
    /// [`PREFIX`] under the snapshot engines.
    Spec(ScenarioSpec),
    /// `run_two_session_dag` on this configuration.
    Dag(ChopimConfig),
    /// A 4-channel machine built with ops in flight, run to [`SPLIT`]
    /// and finished.
    MidFlight(fn(ChopimConfig, u64) -> (ChopimSystem, Finish)),
}

impl Machine {
    /// The report under `engine` at `seed` over `window` cycles; the
    /// first resumed engine captures `image`.
    fn run(&self, engine: Engine, window: u64, seed: u64, image: &mut Image) -> SimReport {
        let (_, threads, fast_forward, start) = engine;
        let apply = |mut cfg: ChopimConfig| {
            cfg.sim_threads = threads.unwrap_or(cfg.sim_threads);
            cfg.fast_forward = fast_forward.unwrap_or(cfg.fast_forward);
            cfg
        };
        match self {
            Machine::Spec(spec) => {
                let mut spec = spec.clone();
                spec.seed = seed;
                spec.cfg = apply(spec.cfg);
                match start {
                    Start::Straight => run_scenario(&spec),
                    Start::Cold => run_scenario_prefixed(&spec, PREFIX),
                    Start::Resumed => {
                        let image = image.get_or_insert_with(|| capture_prefix(&spec, PREFIX));
                        run_scenario_from(&spec, image)
                    }
                }
            }
            Machine::Dag(cfg) => {
                assert_eq!(start, Start::Straight, "the DAG has no snapshot point");
                run_two_session_dag(apply(cfg.clone()), window, seed)
            }
            Machine::MidFlight(build) => {
                let mut cfg = apply(mix2(4));
                cfg.seed = seed;
                let (mut sys, finish) = build(cfg.clone(), seed);
                sys.run(SPLIT);
                if start == Start::Resumed {
                    let image = image.get_or_insert_with(|| sys.snapshot().expect("no streams"));
                    sys = ChopimSystem::resume(cfg, image).expect("image must resume");
                }
                finish(sys)
            }
        }
    }
}

/// Window caps: the dimensions that run a case below their default
/// window.
type Caps = &'static [(&'static Dim, u64)];

/// A row of a case table: the machine at a window, the seeds it runs
/// at, the window caps of the dimensions that run it below their
/// default, and what the oracle's report must show for the case to have
/// exercised what it exists for.
struct Case {
    seeds: &'static [u64],
    caps: Caps,
    machine: Box<dyn Fn(u64) -> Machine>,
    fired: fn(&SimReport),
}

impl Case {
    fn new(seeds: &'static [u64], caps: Caps, machine: impl Fn(u64) -> Machine + 'static) -> Self {
        let (machine, fired) = (Box::new(machine), |_: &SimReport| {});
        Case {
            seeds,
            caps,
            machine,
            fired,
        }
    }

    fn fired(self, fired: fn(&SimReport)) -> Self {
        Case { fired, ..self }
    }
}

/// Table 1: the perf-matrix scenario `name`, at seeds 1 and 7 and each
/// dimension's window unless its row says otherwise.
fn matrix_case(name: &'static str) -> Case {
    let (seeds, caps): (&[u64], Caps) = match name {
        // 32 mixed-QoS streaming tenants on a 4-channel machine: the
        // debug-build arbitration oracle is active at this scale, so this
        // point pins the ready index against a full-scan re-derivation of
        // every pick; and credit returns (which wake parked sessions)
        // arrive from different shards, so worker interleaving must not
        // perturb QoS arbitration.
        "multi_tenant_qos" => (&[1, 7], &[(&FF, 20_000), (&THREADS, 20_000)]),
        // The thousand-tenant headline point, windowed down: the ready
        // index, per-NDA waitlists, and the finished-op stream pump all
        // carry real load here, and the schedule over 1000 sessions must
        // not depend on the engine.
        "multi_tenant_1k" => (
            &[1],
            &[(&FF, 12_000), (&THREADS, 12_000), (&SNAPSHOT, 8_000)],
        ),
        _ => (&[1, 7], &[]),
    };
    Case::new(seeds, caps, move |w| {
        let mut matrix = perf_matrix(w).into_iter();
        let (_, spec) = matrix.find(|(n, _)| *n == name).expect("a matrix scenario");
        Machine::Spec(spec)
    })
}

/// The default machine with SPEC mix 2 on `channels` channels.
fn mix2(channels: usize) -> ChopimConfig {
    let mut cfg = ChopimConfig::default();
    cfg.dram = cfg.dram.with_channels(channels);
    cfg.mix = MixId::new(2);
    cfg
}

/// A one-stream spec: the default machine with SPEC mix `mix` and
/// `tweak` applied, streaming `op` over `elems` elements.
fn stream(w: u64, mix: usize, op: Opcode, elems: usize, tweak: fn(&mut ChopimConfig)) -> Machine {
    let mut spec = ScenarioSpec::with_window(w);
    spec.cfg.mix = MixId::new(mix);
    tweak(&mut spec.cfg);
    spec.workload = Workload::elementwise(op, elems);
    Machine::Spec(spec)
}

/// Table 2: the ablation `name`, an engine-sensitive configuration the
/// matrix does not reach.
fn ablation(name: &str) -> Option<Case> {
    const FF_20K: Caps = &[(&FF, 20_000)];
    const THREADS_20K: Caps = &[(&THREADS, 20_000)];
    const BOTH_20K: Caps = &[(&FF, 20_000), (&THREADS, 20_000)];
    Some(match name {
        // The two-session dependency-graph scenario (cross-session
        // `.after()` edges, an `unordered` op, then two fair-share
        // streams): the DAG stager's launch gating feeds the fast-forward
        // horizon, so skipping must stay exact under multi-tenant
        // submission too.
        "dag_two_sessions" => Case::new(&[1, 7], FF_20K, |_| Machine::Dag(mix2(2))),
        // The same on a 4-channel machine: completions of two sessions'
        // ops cross the shard boundary and resolve through the
        // front-end's in-flight records, so worker interleaving must not
        // perturb DAG staging or fair-share arbitration.
        "dag_two_sessions_4ch" => Case::new(&[1, 7], THREADS_20K, |_| Machine::Dag(mix2(4))),
        // Stochastic write throttling draws a coin per attempted write
        // from per-shard RNG streams: the horizon must refuse to skip any
        // cycle where a draw could occur, and worker interleaving must
        // not perturb the streams.
        "stochastic_policy" => Case::new(&[3], BOTH_20K, |w| {
            stream(w, 2, Opcode::Copy, 1 << 15, |c| {
                c.policy = WriteIssuePolicy::stochastic(1, 4)
            })
        }),
        // Packetized mode routes everything through the ingress queues:
        // their serialization delays are part of the horizon, and their
        // occupancy view, published at window barriers, must not depend
        // on the thread count.
        "packetized" => Case::new(&[5], BOTH_20K, |w| {
            stream(w, 2, Opcode::Axpy, 1 << 15, |c| c.packetized_latency = 8)
        }),
        // Non-default cross-boundary pipeline depths: `ingress_latency`
        // delays front-end → shard delivery and `completion_latency = 5`
        // shrinks the lookahead window to 5. Both engines must stay
        // exact at every window length.
        "boundary_latencies" => Case::new(&[11], &[(&FF, 15_000), (&THREADS, 10_000)], |w| {
            stream(w, 2, Opcode::Axpy, 1 << 15, |c| {
                c.ingress_latency = 6;
                c.completion_latency = 5;
            })
        }),
        // Closed-page + FCFS ablation modes exercise the eager-precharge
        // branch of the controller horizon.
        "closed_page_fcfs" => Case::new(&[9], FF_20K, |w| {
            stream(w, 2, Opcode::Dot, 1 << 15, |c| {
                c.scheduler = SchedulerKind::Fcfs;
                c.page_policy = PagePolicy::Closed;
            })
        }),
        // `completion_latency = 1` collapses the lookahead window to a
        // single cycle — a barrier every cycle, the degenerate schedule
        // most likely to expose an off-by-one in the window grid.
        "single_cycle_window" => Case::new(&[13], &[(&THREADS, 3_000)], |w| {
            stream(w, 4, Opcode::Copy, 1 << 14, |c| c.completion_latency = 1)
        }),
        // The naive reference loop must be just as thread-count
        // independent as the fast path.
        "naive_loop" => Case::new(&[9], &[(&THREADS, 10_000)], |w| {
            stream(w, 4, Opcode::Dot, 1 << 15, |c| c.fast_forward = false)
        }),
        // Snapshot with NDA instructions genuinely in flight: launch slab
        // occupied, rank FSMs mid-instruction, write buffers non-empty,
        // completions in transit, op graph partially complete.
        "mid_flight_dag" => Case::new(&[1, 7], &[], |_| Machine::MidFlight(dag_machine)),
        // Snapshot with the QoS scheduler mid-stride: ready-index entries
        // live, virtual times charged, per-tenant meters non-zero, and an
        // op held by program order. The resumed machines must schedule
        // and retire identically, `SimReport.tenants` metering included.
        "mid_flight_qos" => Case::new(&[1, 7], &[], |_| Machine::MidFlight(qos_machine)),
        _ => return None,
    })
}

/// A co-located point with real NDA completion traffic under fault
/// plan `plan`: the SPEC mix against a fine-grained elementwise stream
/// (small chunks, so many instructions retire inside the window and the
/// retirement-keyed fault streams actually draw), with a short launch
/// timeout so drops and hangs retry in-window.
fn faulted(w: u64, plan: &str) -> Machine {
    let mut spec = ScenarioSpec::with_window(w);
    spec.cfg.mix = MixId::new(2);
    spec.cfg.faults = FaultPlan::parse(plan);
    spec.cfg.instr_timeout = 8_000;
    let opts = LaunchOpts {
        granularity_lines: Some(4),
        barrier_per_chunk: false,
    };
    spec.workload = Workload::elementwise_opts(Opcode::Axpy, 1 << 13, opts);
    Machine::Spec(spec)
}

/// A fault-plan case at seed 1: [`faulted`] under `plan`.
fn plan(caps: Caps, plan: &'static str) -> Case {
    Case::new(&[1], caps, move |w| faulted(w, plan))
}

/// Table 3: the fault plan `name`, with the counters that prove it
/// fired.
fn fault_plan(name: &str) -> Option<Case> {
    const RESUMED_20K: Caps = &[(&FAULTS_RESUMED, 20_000)];
    Some(match name {
        "transient" => plan(&[], "seed=3,transient=60").fired(|r| {
            assert!(r.faults.transient_faults > 0, "plan must actually fire");
            assert!(r.faults.instr_retries > 0, "failed launches must retry");
        }),
        "hang" => plan(&[], "seed=5,hang=80:150").fired(|r| {
            assert!(r.faults.fsm_hangs > 0, "plan must actually fire");
        }),
        "drop" => plan(&[], "seed=11,drop=70").fired(|r| {
            assert!(r.faults.completions_dropped > 0, "plan must actually fire");
            assert!(
                r.faults.instr_timeouts > 0,
                "dropped completions must hit the launch timeout"
            );
        }),
        "delay" => plan(&[], "seed=13,delay=50:96").fired(|r| {
            assert!(r.faults.completions_delayed > 0, "plan must actually fire");
        }),
        "bitflip_ecc" => plan(&[], "seed=17,bitflip=200,uncorrectable=20").fired(|r| {
            assert!(r.dram.ecc_corrected > 0, "ECC must correct some flips");
            assert!(
                r.dram.ecc_uncorrectable > 0,
                "some flips must be detected-uncorrectable"
            );
        }),
        "rank_death" => Case::new(&[1], &[], |w| {
            faulted(w, &format!("seed=19,rankdeath={}:1", w / 3))
        })
        .fired(|r| {
            assert_eq!(r.faults.rank_deaths, 1);
            assert!(
                r.faults.ranks_quarantined > 0,
                "the dead rank must be quarantined once a completion reports it"
            );
        }),
        // Every fault class firing at once — injection, retry, timeout,
        // and quarantine all interleaved — still bit-identical everywhere.
        "all_classes" => Case::new(&[1], &[], |w| {
            let plan = "seed=7,bitflip=400,uncorrectable=10,transient=90,\
                        hang=110:120,drop=100,delay=80:48";
            faulted(w, &format!("{plan},rankdeath={}:2", w / 2))
        })
        .fired(|r| {
            assert!(r.faults.transient_faults > 0);
            assert!(r.faults.completions_dropped > 0);
            assert_eq!(r.faults.rank_deaths, 1);
        }),
        // Snapshot-at-PREFIX + resume must equal the straight run with
        // the plan active on both sides of the capture point.
        "resume_under_active_faults" => plan(
            RESUMED_20K,
            "seed=7,transient=90,hang=110:100,drop=100,delay=80:64",
        ),
        // Rank death *before* the capture point: the shard-side death
        // state and the fault counters must ride through the image so the
        // resumed machine quarantines on first contact exactly like the
        // straight run.
        "resume_after_rank_death" => plan(RESUMED_20K, "seed=23,transient=120,rankdeath=2000:0")
            .fired(|r| {
                assert_eq!(r.faults.rank_deaths, 1);
                assert!(r.faults.ranks_quarantined > 0);
            }),
        _ => return None,
    })
}

/// Where two reports first differ: `None` when they are equal, else
/// the first line on which their `{:#?}` dumps differ.
pub fn first_difference(want: &SimReport, got: &SimReport) -> Option<String> {
    if want == got {
        return None;
    }
    let (want, got) = (format!("{want:#?}"), format!("{got:#?}"));
    let mut lines = want.lines().zip(got.lines()).enumerate();
    Some(match lines.find(|(_, (w, g))| w != g) {
        Some((i, (w, g))) => format!("dump line {}: `{}` became `{}`", i + 1, w.trim(), g.trim()),
        None => "the dumps are equal, so a field is NaN".to_string(),
    })
}

/// Check case `name` in dimension `dim`: at each of the case's seeds,
/// every engine compared against the oracle must reproduce its report.
pub fn check(dim: &Dim, name: &'static str) {
    let (oracle_engine, against, default_window) = *dim;
    let case = ablation(name).or_else(|| fault_plan(name));
    let case = case.unwrap_or_else(|| matrix_case(name));
    let cap = case.caps.iter().find(|(d, _)| *d == dim);
    let window = bench_window(default_window).min(cap.map_or(u64::MAX, |c| c.1));
    let machine = (case.machine)(window);
    for &seed in case.seeds {
        let mut image = None;
        let oracle = machine.run(oracle_engine, window, seed, &mut image);
        for &engine in against {
            let report = machine.run(engine, window, seed, &mut image);
            if let Some(diff) = first_difference(&oracle, &report) {
                let (got, want) = (engine.0, oracle_engine.0);
                panic!(
                    "{got} diverged from {want} on `{name}`, seed {seed}, {window} cycles: {diff}"
                );
            }
        }
        (case.fired)(&oracle);
    }
}

/// One test per `$test = $case` pair, checking case `$case` in
/// dimension `$dim`.
macro_rules! cases {
    ($dim:ident: $($test:ident = $case:ident)*) => {
        $(
            #[test]
            fn $test() {
                $crate::lockstep::check(&$crate::lockstep::$dim, stringify!($case));
            }
        )*
    };
}

/// Table 1's rows, in `perf_matrix` order: each scenario and the name of
/// its test in the `FF`, `THREADS` and `SNAPSHOT` dimensions (each suite
/// keeps its own test names, and `macro_rules!` cannot build an
/// identifier from a prefix). `matrix!(FF)` generates that dimension's
/// column of tests and a guard against a scenario added to the matrix
/// without lockstep coverage, so a new scenario is one row here.
#[allow(unused_macros)] // `fault_lockstep` runs no matrix
macro_rules! matrix {
    ($dim:ident) => {
        matrix!(@$dim
            host_only: lockstep_host_only shard_lockstep_host_only snapshot_lockstep_host_only
            host_idle: lockstep_host_idle shard_lockstep_host_idle snapshot_lockstep_host_idle
            nda_only: lockstep_nda_only shard_lockstep_nda_only snapshot_lockstep_nda_only
            colocated_svrg: lockstep_colocated_svrg shard_lockstep_colocated_svrg
                snapshot_lockstep_colocated_svrg
            colocated_mix: lockstep_colocated_mix shard_lockstep_colocated_mix
                snapshot_lockstep_colocated_mix
            rank_partitioned: lockstep_rank_partitioned shard_lockstep_rank_partitioned
                snapshot_lockstep_rank_partitioned
            wide_host_8ch: lockstep_wide_host_8ch shard_lockstep_wide_host_8ch
                snapshot_lockstep_wide_host_8ch
            wide_colocated_8ch: lockstep_wide_colocated_8ch shard_lockstep_wide_colocated_8ch
                snapshot_lockstep_wide_colocated_8ch
            wide_host_16ch: lockstep_wide_host_16ch shard_lockstep_wide_host_16ch
                snapshot_lockstep_wide_host_16ch
            wide_colocated_16ch: lockstep_wide_colocated_16ch shard_lockstep_wide_colocated_16ch
                snapshot_lockstep_wide_colocated_16ch
            multi_tenant_2sess: lockstep_multi_tenant_2sess shard_lockstep_multi_tenant_2sess
                snapshot_lockstep_multi_tenant_2sess
            multi_tenant_qos: lockstep_multi_tenant_qos shard_lockstep_multi_tenant_qos
                snapshot_lockstep_multi_tenant_qos
            multi_tenant_1k: lockstep_multi_tenant_1k shard_lockstep_multi_tenant_1k
                snapshot_lockstep_multi_tenant_1k
            faulty_colocated_8ch: lockstep_faulty_colocated_8ch
                shard_lockstep_faulty_colocated_8ch snapshot_lockstep_faulty_colocated_8ch
        );
    };
    (@FF $($case:ident: $test:ident $_t:ident $_s:ident)*) => {
        matrix!(FF, $($test = $case)*);
    };
    (@THREADS $($case:ident: $_f:ident $test:ident $_s:ident)*) => {
        matrix!(THREADS, $($test = $case)*);
    };
    (@SNAPSHOT $($case:ident: $_f:ident $_t:ident $test:ident)*) => {
        matrix!(SNAPSHOT, $($test = $case)*);
    };
    ($dim:ident, $($test:ident = $case:ident)*) => {
        cases!($dim: $($test = $case)*);

        #[test]
        fn matrix_is_fully_covered() {
            let names = [$(stringify!($case)),*];
            let matrix = chopim_exp::perf_matrix(1).into_iter().map(|(n, _)| n);
            let matrix: Vec<_> = matrix.collect();
            assert_eq!(matrix, names, "new matrix scenario: add a row to `matrix!`");
        }
    };
}

/// Build the two-session DAG machine (the first half of
/// `run_two_session_dag`, before any stream is spawned): session A runs
/// an ordered chain, session B is gated on it across the session
/// boundary. The returned closure drives both to completion.
pub fn dag_machine(mut cfg: ChopimConfig, seed: u64) -> (ChopimSystem, Finish) {
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
    let finish = move |mut sys: ChopimSystem| {
        sys.drive(Waitable::all_of([a2, b2]), 4_000_000);
        assert!(sys.runtime.op_done(a2) && sys.runtime.op_done(b2));
        sys.run(2_000);
        sys.report()
    };
    (sys, Box::new(finish))
}

/// Build a three-tenant machine with the QoS runtime state fully
/// populated: mixed classes and direct submissions on every session. The
/// `heavy` session submits a copy, an axpy gated on it by a DAG edge, and
/// a program-ordered scale held behind both. The returned closure checks
/// that the scale is still held, then that it stages and retires.
pub fn qos_machine(mut cfg: ChopimConfig, seed: u64) -> (ChopimSystem, Finish) {
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
    let copy = heavy
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(u))
        .submit();
    let _ = heavy
        .elementwise(&mut sys.runtime, Opcode::Axpy, vec![1.0], vec![u], Some(y))
        .after(copy)
        .submit();
    let scal = heavy
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![0.75], vec![], Some(u))
        .submit();
    let finish = move |mut sys: ChopimSystem| {
        assert_eq!(
            sys.runtime.op_first_staged_at(scal),
            None,
            "the scale must still be held at the capture point"
        );
        sys.run(60_000);
        assert!(sys.runtime.op_done(scal), "held op must stage and retire");
        assert!(sys.runtime.quiescent());
        sys.report()
    };
    (sys, Box::new(finish))
}
