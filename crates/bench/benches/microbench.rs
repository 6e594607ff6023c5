//! Criterion microbenchmarks of the simulator's hot paths: address
//! mapping, DRAM command issue, FSM stepping, and the core model. These
//! track simulator performance (cycles simulated per second), not paper
//! results.

use chopim_dram::{Channel, Command, DramConfig, Issuer, TimingParams};
use chopim_host::{CoreConfig, OooCore, WorkloadProfile};
use chopim_mapping::{presets, AddressMapper, PartitionedMapping};
use chopim_nda::fsm::NdaFsm;
use chopim_nda::isa::{NdaInstr, Opcode};
use chopim_nda::operand::OperandLayout;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mapping(c: &mut Criterion) {
    let cfg = DramConfig::table_ii();
    let map = PartitionedMapping::new(&cfg, presets::skylake_like(&cfg), 1);
    c.bench_function("mapping/map_pa", |b| {
        let mut pa = 0u64;
        b.iter(|| {
            pa = pa.wrapping_add(0x9e37_79b9_7f4a_7c15) & ((1 << 35) - 1);
            black_box(map.map_pa(black_box(pa)))
        })
    });
}

fn bench_dram_issue(c: &mut Criterion) {
    c.bench_function("dram/act_rd_pre_cycle", |b| {
        let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
        let mut ch = Channel::new(&cfg);
        let mut now = 0u64;
        let mut row = 0u32;
        b.iter(|| {
            let act = Command::act(0, 0, 0, row);
            while !ch.can_issue(&act, Issuer::Host, now) {
                now += 1;
            }
            ch.issue(&act, Issuer::Host, now).unwrap();
            let rd = Command::rd(0, 0, 0, row, 0);
            while !ch.can_issue(&rd, Issuer::Host, now) {
                now += 1;
            }
            ch.issue(&rd, Issuer::Host, now).unwrap();
            let pre = Command::pre(0, 0, 0);
            while !ch.can_issue(&pre, Issuer::Host, now) {
                now += 1;
            }
            ch.issue(&pre, Issuer::Host, now).unwrap();
            row = row.wrapping_add(1) % 1024;
            black_box(now)
        })
    });
}

fn bench_fsm(c: &mut Criterion) {
    c.bench_function("nda/fsm_grant", |b| {
        let mut fsm = NdaFsm::new(64);
        let mut id = 0u64;
        b.iter(|| {
            if fsm.is_idle() {
                let x = OperandLayout::rotating(16, 0, 64, 128);
                let y = OperandLayout::rotating(16, 100, 64, 128);
                fsm.launch(NdaInstr::elementwise(
                    Opcode::Copy,
                    4096,
                    vec![(x, 0)],
                    vec![(y, 0)],
                    id,
                ))
                .unwrap();
                id += 1;
            }
            let acc = fsm.next_access().expect("work queued");
            fsm.commit(acc);
            while fsm.pop_completed().is_some() {}
            black_box(acc)
        })
    });
}

fn bench_core(c: &mut Criterion) {
    c.bench_function("host/core_cpu_cycle", |b| {
        let mut core = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), 1);
        let mut pending: Vec<u64> = Vec::new();
        b.iter(|| {
            let mut sink = |r: chopim_host::MemRequest| {
                if !r.is_write {
                    pending.push(r.id);
                }
                true
            };
            core.cpu_cycle(&mut sink);
            // Fill with a fixed two-cycle lag to keep the window moving.
            if pending.len() > 4 {
                for id in pending.drain(..) {
                    core.fill(id);
                }
            }
            black_box(core.retired_instructions())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_mapping, bench_dram_issue, bench_fsm, bench_core
);
criterion_main!(benches);
