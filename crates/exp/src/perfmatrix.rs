//! The fixed perf/equivalence scenario matrix.
//!
//! `chopim-perf` measures these scenarios and the lockstep suites
//! (`crates/exp/tests/*_lockstep.rs`) prove every engine mode equivalent
//! on them — sharing one definition guarantees the equivalence jobs
//! always cover exactly what the perf gate measures.

use chopim_core::prelude::*;

use crate::scenario::{ScenarioSpec, Workload};

/// The measurement window: `CHOPIM_BENCH_CYCLES`, defaulting to
/// `default` cycles.
pub fn bench_window(default: u64) -> u64 {
    std::env::var("CHOPIM_BENCH_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The scenario matrix, each point `w` cycles long.
pub fn perf_matrix(w: u64) -> Vec<(&'static str, ScenarioSpec)> {
    let mut points = Vec::new();

    // Pure host traffic: a memory-intensive mix, no NDA work.
    let mut host_only = ScenarioSpec::with_window(w);
    host_only.cfg.mix = MixId::new(2);
    points.push(("host_only", host_only));

    // Host idle, NDAs idle: only periodic refresh. The idle-heavy limit
    // case — it measures the event-horizon floor (bursty/sparse windows
    // approach this as their duty cycle drops) and exercises refresh
    // timer skipping.
    points.push(("host_idle", ScenarioSpec::with_window(w)));

    // Host idle, NDAs streaming.
    let mut nda_only = ScenarioSpec::with_window(w);
    nda_only.workload = Workload::elementwise(Opcode::Axpy, 1 << 16);
    points.push(("nda_only", nda_only));

    // The co-located default: the paper's SVRG collaboration — the
    // SVRG-shaped host inner loop (custom profile) against the NDA
    // average-gradient macro stream on the default (bank-partitioned)
    // machine.
    let mut colocated = ScenarioSpec::with_window(w);
    colocated.cfg.custom_profiles = Some(vec![chopim_ml::SvrgTimeModel::svrg_host_profile()]);
    colocated.workload = Workload::MacroAxpyRows {
        rows: 64,
        d: 4096,
        rows_per_instr: 8,
        opts: LaunchOpts::default(),
    };
    points.push(("colocated_svrg", colocated));

    // A SPEC-mix co-location point as well, so both host models run
    // concurrently with NDA traffic.
    let mut colocated_mix = ScenarioSpec::with_window(w);
    colocated_mix.cfg.mix = MixId::new(2);
    colocated_mix.workload = Workload::MacroAxpyRows {
        rows: 64,
        d: 4096,
        rows_per_instr: 8,
        opts: LaunchOpts::default(),
    };
    points.push(("colocated_mix", colocated_mix));

    // Rank-partitioning baseline (Fig. 14): dedicated NDA ranks.
    let mut rank_part = ScenarioSpec::with_window(w);
    rank_part.cfg.mix = MixId::new(2);
    rank_part.cfg.rank_partition = true;
    rank_part.cfg.reserved_banks = 0;
    rank_part.workload = Workload::elementwise(Opcode::Copy, 1 << 15);
    points.push(("rank_partitioned", rank_part));

    // Wide-machine scenarios: the production-scale geometry the
    // channel-sharded engine exists for — 8 channels (16 NDA ranks) with
    // proportionally more host cores (mix0's 8 memory-intensive cores).
    // `chopim-perf` additionally measures these with a 4-thread worker
    // pool to gate the parallel-vs-serial speedup.
    let mut wide_host = ScenarioSpec::with_window(w);
    wide_host.cfg.dram = DramConfig::table_ii().with_channels(8);
    wide_host.cfg.mix = MixId::new(0);
    points.push(("wide_host_8ch", wide_host));

    let mut wide_col = ScenarioSpec::with_window(w);
    wide_col.cfg.dram = DramConfig::table_ii().with_channels(8);
    wide_col.cfg.mix = MixId::new(0);
    wide_col.workload = Workload::MacroAxpyRows {
        rows: 64,
        d: 16384,
        rows_per_instr: 8,
        opts: LaunchOpts::default(),
    };
    points.push(("wide_colocated_8ch", wide_col));

    // The 16-channel tier of the same pair (32 NDA ranks): twice the
    // shard count stresses the barrier/exchange machinery — per-shard
    // horizons and the flat exchange have to hold their per-window cost
    // flat as shards multiply, and the speedup gate gets a point with
    // more shards than worker threads.
    let mut wide_host_16 = ScenarioSpec::with_window(w);
    wide_host_16.cfg.dram = DramConfig::table_ii().with_channels(16);
    wide_host_16.cfg.mix = MixId::new(0);
    points.push(("wide_host_16ch", wide_host_16));

    let mut wide_col_16 = ScenarioSpec::with_window(w);
    wide_col_16.cfg.dram = DramConfig::table_ii().with_channels(16);
    wide_col_16.cfg.mix = MixId::new(0);
    wide_col_16.workload = Workload::MacroAxpyRows {
        rows: 64,
        d: 16384,
        rows_per_instr: 8,
        opts: LaunchOpts::default(),
    };
    points.push(("wide_colocated_16ch", wide_col_16));

    // Two tenants on the 8-channel machine: an SVRG-shaped session (the
    // average-gradient macro stream) and an elementwise-stream session,
    // submitted concurrently under fair-share arbitration, with the
    // SVRG-shaped host inner loop live — the multi-tenant axis the
    // session API opened.
    let mut multi = ScenarioSpec::with_window(w);
    multi.cfg.dram = DramConfig::table_ii().with_channels(8);
    multi.cfg.custom_profiles = Some(vec![chopim_ml::SvrgTimeModel::svrg_host_profile()]);
    multi.workload = Workload::MultiTenant {
        tenants: vec![
            Workload::MacroAxpyRows {
                rows: 64,
                d: 4096,
                rows_per_instr: 8,
                opts: LaunchOpts::default(),
            },
            Workload::elementwise(Opcode::Axpy, 1 << 15),
        ],
    };
    points.push(("multi_tenant_2sess", multi));

    // Mid-scale QoS point: 32 streaming tenants with mixed classes
    // (latency-sensitive + weighted batch) on a 4-channel machine. Small
    // enough that the lockstep suites' debug-build oracle (which
    // re-derives every arbitration pick by scanning all sessions) stays
    // active, pinning the ready index against the naive scheduler.
    let mut qos = ScenarioSpec::with_window(w);
    qos.cfg.dram = DramConfig::table_ii().with_channels(4);
    qos.workload = Workload::TenantFleet {
        tenants: 32,
        shared_vectors: 8,
        elems: 1 << 13,
    };
    points.push(("multi_tenant_qos", qos));

    // The headline thousand-tenant point: 1000 streaming sessions with
    // mixed QoS classes on the 8-channel machine, host idle. Arbitration
    // cost must stay O(active) — `sched_sessions_scanned` per launch
    // window, not O(sessions); the pre-index rotating scan made this
    // point quadratic-ish and unmeasurable.
    let mut fleet = ScenarioSpec::with_window(w);
    fleet.cfg.dram = DramConfig::table_ii().with_channels(8);
    fleet.workload = Workload::TenantFleet {
        tenants: 1000,
        shared_vectors: 16,
        elems: 1 << 12,
    };
    points.push(("multi_tenant_1k", fleet));

    // The wide co-located point under an active fault plane: transient
    // compute faults, FSM hangs, dropped and delayed completions, plus a
    // mid-window rank death — the recovery machinery (retry staging,
    // inflight timeout scan, quarantine re-shard) all on the hot path.
    // The lockstep suites pin its schedule across thread counts and
    // loop variants; `chopim-perf` measures what the fault plane costs
    // when it is actually firing.
    let mut faulty = ScenarioSpec::with_window(w);
    faulty.cfg.dram = DramConfig::table_ii().with_channels(8);
    faulty.cfg.mix = MixId::new(0);
    faulty.cfg.faults =
        FaultPlan::parse("seed=7,transient=600,hang=900:120,drop=1100,delay=700:48");
    faulty.cfg.faults.rank_death_cycle = w / 2;
    faulty.cfg.faults.rank_death_nda = 3;
    faulty.workload = Workload::MacroAxpyRows {
        rows: 64,
        d: 16384,
        rows_per_instr: 8,
        opts: LaunchOpts::default(),
    };
    points.push(("faulty_colocated_8ch", faulty));

    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_names_are_unique_and_stable() {
        let m = perf_matrix(1000);
        let names: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
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
            ]
        );
        for (_, spec) in &m {
            assert_eq!(spec.window, 1000);
        }
    }

    #[test]
    fn faulty_scenario_has_active_plan() {
        let m = perf_matrix(20_000);
        let (_, spec) = m
            .iter()
            .find(|(n, _)| *n == "faulty_colocated_8ch")
            .unwrap();
        assert!(!spec.cfg.faults.is_empty());
        assert_eq!(spec.cfg.faults.rank_death_cycle, 10_000);
        for (name, spec) in &m {
            if *name != "faulty_colocated_8ch" {
                assert!(spec.cfg.faults.is_empty(), "{name} should be fault-free");
            }
        }
    }
}
