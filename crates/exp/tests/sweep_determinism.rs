//! The acceptance property of the experiment subsystem: running the same
//! spec grid serially and in parallel yields bit-identical `SimReport`s,
//! and identical seeds reproduce identical reports across runs.

use chopim_core::prelude::*;
use chopim_exp::prelude::*;

/// A small but real grid: 2 bank modes x 2 ops x 2 mixes = 8 simulation
/// points, each a genuine `ChopimSystem` window with host + NDA traffic.
fn grid(window: u64, base_seed: u64) -> Vec<ScenarioSpec> {
    let mut base = ScenarioSpec::with_window(window);
    base.seed = base_seed;
    base.cfg.dram = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    SweepBuilder::new(base)
        .axis(
            "banks",
            [("shared", 0usize), ("partitioned", 1)],
            |s, &r| s.cfg.reserved_banks = r,
        )
        .axis(
            "op",
            [("DOT", Opcode::Dot), ("COPY", Opcode::Copy)],
            |s, &op| s.workload = Workload::elementwise(op, 1 << 12),
        )
        .axis("mix", [("mix0", 0usize), ("mix4", 4)], |s, &m| {
            s.cfg.mix = Some(MixId::new(m).unwrap())
        })
        .build()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let specs = grid(4_000, 11);
    assert_eq!(specs.len(), 8);

    let serial = SweepRunner::serial().run_reports(&specs);
    let parallel = SweepRunner::with_threads(4).run_reports(&specs);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.spec.label, p.spec.label, "point order must match");
        assert_eq!(
            s.result, p.result,
            "parallel run diverged from serial at point {}",
            s.spec.label
        );
    }
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let specs = grid(3_000, 23);
    let a = SweepRunner::with_threads(3).run_reports(&specs);
    let b = SweepRunner::with_threads(2).run_reports(&grid(3_000, 23));
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.result, y.result, "rerun diverged at {}", x.spec.label);
    }
}

#[test]
fn different_base_seeds_change_the_simulation() {
    // Guards against per-point seeding being accidentally constant: with
    // host traffic present, a different seed must perturb the reports
    // somewhere in the grid.
    let a = SweepRunner::serial().run_reports(&grid(3_000, 1));
    let b = SweepRunner::serial().run_reports(&grid(3_000, 2));
    assert!(
        a.iter().zip(b.iter()).any(|(x, y)| x.result != y.result),
        "base seed had no effect on any of the 8 points"
    );
}

#[test]
fn csv_covers_every_point() {
    let specs = grid(2_000, 5);
    let csv = SweepRunner::with_threads(4).run_reports(&specs).to_csv();
    // Header + 8 points.
    assert_eq!(csv.lines().count(), 9);
    assert!(csv.lines().next().unwrap().starts_with("banks,op,mix,"));
}
