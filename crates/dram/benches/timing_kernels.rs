//! Micro-benchmarks for the busy-path kernels: `ready_at`,
//! `plan_access`/`plan_kind_and_ready`, and the host scheduler's
//! candidate pick over a full queue, which plans every scanned entry with
//! `plan_kind_and_ready`. Run them when touching the timing checker or
//! the scheduler to see the kernel cost directly (`make perf-micro`, or
//! `cargo bench -p chopim-dram`).

use criterion::{criterion_group, criterion_main, Criterion};

use chopim_core::sched::{HostMc, HostTransaction, TxMeta};
use chopim_dram::{Channel, Command, DramAddress, DramConfig, Issuer, TimingParams};

fn busy_channel() -> Channel {
    let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    let mut ch = Channel::new(&cfg);
    // Open a spread of rows and issue some columns so every timing
    // register holds a nontrivial value.
    let mut now = 0;
    for rank in 0..2 {
        for bg in 0..4 {
            let act = Command::act(rank, bg, 0, (bg % 3) as u32);
            while !ch.can_issue(&act, Issuer::Host, now) {
                now += 1;
            }
            ch.issue(&act, Issuer::Host, now).unwrap();
            now += 1;
        }
    }
    for rank in 0..2 {
        let rd = Command::rd(rank, 0, 0, 0, 0);
        while !ch.can_issue(&rd, Issuer::Host, now) {
            now += 1;
        }
        ch.issue(&rd, Issuer::Host, now).unwrap();
        now += 1;
    }
    ch
}

fn bench_ready_at(c: &mut Criterion) {
    let ch = busy_channel();
    let cmds = [
        Command::rd(0, 0, 0, 0, 1),
        Command::wr(1, 0, 0, 0, 2),
        Command::act(0, 1, 1, 5),
        Command::pre(1, 2, 0),
    ];
    c.bench_function("ready_at (4 cmds, host+nda)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for cmd in &cmds {
                acc ^= ch.ready_at(cmd, Issuer::Host).unwrap_or(0);
                acc ^= ch.ready_at(cmd, Issuer::Nda).unwrap_or(0);
            }
            acc
        })
    });
}

fn bench_plan_access(c: &mut Criterion) {
    let ch = busy_channel();
    c.bench_function("plan_kind_and_ready (8 accesses)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..8usize {
                let (_, ready) = ch.plan_kind_and_ready(
                    k % 2,
                    k % 4,
                    (k / 2) % 4,
                    (k % 3) as u32,
                    k % 2 == 0,
                    if k % 3 == 0 {
                        Issuer::Nda
                    } else {
                        Issuer::Host
                    },
                );
                acc ^= ready;
            }
            acc
        })
    });
}

fn bench_sched_pick(c: &mut Criterion) {
    let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    // A full 32-entry read queue over a spread of banks/rows, against a
    // device state where some banks are open: the canonical busy pick.
    let mk = || {
        let ch = busy_channel();
        let mut mc = HostMc::new(
            cfg.ranks_per_channel,
            cfg.bankgroups,
            cfg.banks_per_group,
            cfg.timing.refi,
        );
        for k in 0..32usize {
            let tx = HostTransaction {
                addr: DramAddress {
                    channel: 0,
                    rank: k % 2,
                    bankgroup: k % 4,
                    bank: (k / 4) % 4,
                    row: (k % 5) as u32,
                    col: (k % 8) as u32,
                },
                is_write: false,
                meta: TxMeta::CoreRead {
                    core: 0,
                    req: k as u64,
                },
                arrival: 0,
            };
            assert!(mc.try_push(tx, &ch, 0));
        }
        (ch, mc)
    };
    c.bench_function("scheduler pick (32-entry queue)", |b| {
        let (mut ch, mut mc) = mk();
        // Ticks at a far-future cycle where the bus is free but many
        // candidates exist.
        let mut now = 10_000;
        b.iter(|| {
            let r = mc.tick(&mut ch, now);
            now += 1;
            r.is_some()
        })
    });
}

criterion_group!(benches, bench_ready_at, bench_plan_access, bench_sched_pick);
criterion_main!(benches);
