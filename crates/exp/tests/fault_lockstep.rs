//! Determinism of the fault plane itself: an *active* `FaultPlan` must
//! produce bit-identical `SimReport`s — fault counters included —
//! across serial, 2-thread, and 4-thread execution, and across the
//! naive and fast-forward loops. The fault streams are keyed on per-shard event counters (not wall
//! cycles), and the only cycle-keyed fault (rank death) is folded into
//! the shard horizon, so every engine variant must draw the exact same
//! schedule and make the exact same recovery decisions.
//!
//! Also covers snapshot/restore under fire: capturing mid-run with
//! faults enabled and resuming must continue bit-identically to a run
//! that never snapshotted — including a plan whose rank death fires
//! *before* the capture point, so the quarantine/death state itself
//! rides through the image.

use chopim_core::prelude::*;
use chopim_exp::{
    bench_window, capture_prefix, run_scenario, run_scenario_from, run_scenario_prefixed,
    ScenarioSpec, Workload,
};

fn window() -> u64 {
    bench_window(20_000)
}

/// A co-located point with real NDA completion traffic: the SPEC mix
/// against a fine-grained elementwise stream (small chunks, so many
/// instructions retire inside the window and the retirement-keyed fault
/// streams actually draw), with a short launch timeout so drops and
/// hangs retry in-window.
fn faulted_spec(plan: &str, w: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::with_window(w);
    spec.cfg.mix = MixId::new(2);
    spec.cfg.faults = FaultPlan::parse(plan);
    spec.cfg.instr_timeout = 8_000;
    spec.workload = Workload::elementwise_opts(
        Opcode::Axpy,
        1 << 13,
        LaunchOpts {
            granularity_lines: Some(4),
            barrier_per_chunk: false,
        },
    );
    spec
}

/// The full engine cross-product on one spec: serial naive is the
/// oracle; serial/2-thread/4-thread fast and 4-thread naive must all
/// match it bit-for-bit.
fn assert_fault_lockstep(label: &str, spec: &ScenarioSpec) -> SimReport {
    let run = |threads: usize, ff: bool| {
        let mut s = spec.clone();
        s.cfg.sim_threads = threads;
        s.cfg.fast_forward = ff;
        run_scenario(&s)
    };
    let oracle = run(1, false);
    for (mode, threads, ff) in [
        ("serial fast", 1usize, true),
        ("2-thread fast", 2, true),
        ("4-thread fast", 4, true),
        ("4-thread naive", 4, false),
    ] {
        assert_eq!(
            oracle,
            run(threads, ff),
            "{mode} diverged from serial naive under `{label}`"
        );
    }
    oracle
}

#[test]
fn fault_lockstep_transient() {
    let r = assert_fault_lockstep("transient", &faulted_spec("seed=3,transient=60", window()));
    assert!(r.faults.transient_faults > 0, "plan must actually fire");
    assert!(r.faults.instr_retries > 0, "failed launches must retry");
}

#[test]
fn fault_lockstep_hang() {
    let r = assert_fault_lockstep("hang", &faulted_spec("seed=5,hang=80:150", window()));
    assert!(r.faults.fsm_hangs > 0, "plan must actually fire");
}

#[test]
fn fault_lockstep_drop() {
    let r = assert_fault_lockstep("drop", &faulted_spec("seed=11,drop=70", window()));
    assert!(r.faults.completions_dropped > 0, "plan must actually fire");
    assert!(
        r.faults.instr_timeouts > 0,
        "dropped completions must hit the launch timeout"
    );
}

#[test]
fn fault_lockstep_delay() {
    let r = assert_fault_lockstep("delay", &faulted_spec("seed=13,delay=50:96", window()));
    assert!(r.faults.completions_delayed > 0, "plan must actually fire");
}

#[test]
fn fault_lockstep_bitflip_ecc() {
    let r = assert_fault_lockstep(
        "bitflip",
        &faulted_spec("seed=17,bitflip=200,uncorrectable=20", window()),
    );
    assert!(r.dram.ecc_corrected > 0, "ECC must correct some flips");
    assert!(
        r.dram.ecc_uncorrectable > 0,
        "some flips must be detected-uncorrectable"
    );
}

#[test]
fn fault_lockstep_rank_death() {
    let mut spec = faulted_spec("seed=19", window());
    spec.cfg.faults.rank_death_cycle = window() / 3;
    spec.cfg.faults.rank_death_nda = 1;
    let r = assert_fault_lockstep("rank_death", &spec);
    assert_eq!(r.faults.rank_deaths, 1);
    assert!(
        r.faults.ranks_quarantined > 0,
        "the dead rank must be quarantined once a completion reports it"
    );
}

/// Every fault class firing at once — injection, retry, timeout, and
/// quarantine all interleaved — still bit-identical everywhere.
#[test]
fn fault_lockstep_all_classes() {
    let mut spec = faulted_spec(
        "seed=7,bitflip=400,uncorrectable=10,transient=90,hang=110:120,drop=100,delay=80:48",
        window(),
    );
    spec.cfg.faults.rank_death_cycle = window() / 2;
    spec.cfg.faults.rank_death_nda = 2;
    let r = assert_fault_lockstep("all_classes", &spec);
    assert!(r.faults.transient_faults > 0);
    assert!(r.faults.completions_dropped > 0);
    assert_eq!(r.faults.rank_deaths, 1);
}

/// Off the lookahead-window grid, as in `snapshot_lockstep`.
const PREFIX: u64 = 4_003;

/// Snapshot-at-N + resume must equal the straight run with the plan
/// active on both sides of the capture point.
fn assert_snapshot_under_faults(label: &str, spec: &ScenarioSpec) {
    let oracle = run_scenario_prefixed(spec, PREFIX);
    let image = capture_prefix(spec, PREFIX);
    for (mode, threads) in [("serial", 1usize), ("2-thread", 2)] {
        let mut s = spec.clone();
        s.cfg.sim_threads = threads;
        assert_eq!(
            oracle,
            run_scenario_from(&s, &image),
            "{mode} resume diverged from the straight run under `{label}`"
        );
    }
}

#[test]
fn snapshot_resume_under_active_faults() {
    let w = window().min(20_000);
    assert_snapshot_under_faults(
        "combined",
        &faulted_spec("seed=7,transient=90,hang=110:100,drop=100,delay=80:64", w),
    );
}

/// Rank death *before* the capture point: the shard-side death state and
/// the fault counters must ride through the image so the resumed machine
/// quarantines on first contact exactly like the straight run.
#[test]
fn snapshot_resume_after_rank_death() {
    let w = window().min(20_000);
    let mut spec = faulted_spec("seed=23,transient=120", w);
    spec.cfg.faults.rank_death_cycle = 2_000; // < PREFIX
    spec.cfg.faults.rank_death_nda = 0;
    assert_snapshot_under_faults("dead_at_capture", &spec);
    let r = run_scenario_prefixed(&spec, PREFIX);
    assert_eq!(r.faults.rank_deaths, 1);
    assert!(r.faults.ranks_quarantined > 0);
}
