//! Indexed-scheduler equivalence properties.
//!
//! `HostMc` maintains incremental per-(rank,bank) indexes (occupancy,
//! open-row demand) and epoch-keyed timing memos so its per-cycle cost
//! scales with state changes. These properties re-implement the original
//! naive full-scan FR-FCFS/FCFS decision procedure — straight from the
//! public device-model API, with no indexes or memos — and assert that
//! over randomized push/issue/pop sequences the indexed controller issues
//! *exactly* the same command stream, under both page policies and both
//! scheduler kinds. The index invariants themselves are recounted from
//! scratch along the way.

use chopim_core::sched::{HostMc, HostTransaction, PagePolicy, SchedulerKind, TxMeta};
use chopim_dram::{Channel, Command, DramAddress, Issuer, TimingParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The naive scheduler oracle: arrival-ordered queues, full scans, no
/// indexes, no memos. Mirrors the pre-index `HostMc` decision procedure.
struct Oracle {
    read_q: Vec<HostTransaction>,
    write_q: Vec<HostTransaction>,
    drain: bool,
    scheduler: SchedulerKind,
    page_policy: PagePolicy,
}

impl Oracle {
    fn new(scheduler: SchedulerKind, page_policy: PagePolicy) -> Self {
        Self {
            read_q: Vec::new(),
            write_q: Vec::new(),
            drain: false,
            scheduler,
            page_policy,
        }
    }

    fn push(&mut self, tx: HostTransaction) {
        if matches!(tx.meta, TxMeta::CoreWrite) {
            self.write_q.push(tx);
        } else {
            self.read_q.push(tx);
        }
    }

    /// The command the naive controller would issue at `now` (and the
    /// queue+index of a completing column command).
    fn expected(&mut self, ch: &Channel, now: u64) -> Option<(Command, Option<(bool, usize)>)> {
        // Closed-page eager precharge, scanning both queues per bank.
        if self.page_policy == PagePolicy::Closed {
            let cfg = ch.config();
            for rank in 0..cfg.ranks_per_channel {
                for bg in 0..cfg.bankgroups {
                    for bk in 0..cfg.banks_per_group {
                        let Some(open) = ch.bank(rank, bg, bk).open_row() else {
                            continue;
                        };
                        let wanted = self.read_q.iter().chain(self.write_q.iter()).any(|t| {
                            t.addr.rank == rank
                                && t.addr.bankgroup == bg
                                && t.addr.bank == bk
                                && t.addr.row == open
                        });
                        if wanted {
                            continue;
                        }
                        let cmd = Command::pre(rank, bg, bk);
                        if ch.can_issue(&cmd, Issuer::Host, now) {
                            return Some((cmd, None));
                        }
                    }
                }
            }
        }
        // Write-drain hysteresis.
        if self.write_q.len() >= 28 {
            self.drain = true;
        } else if self.write_q.len() <= 8 {
            self.drain = false;
        }
        let serve_writes = self.drain || self.read_q.is_empty();
        let first = if serve_writes && !self.write_q.is_empty() {
            self.schedule(ch, now, true)
        } else {
            self.schedule(ch, now, false)
        };
        match first {
            Some(r) => Some(r),
            None if serve_writes && !self.read_q.is_empty() => self.schedule(ch, now, false),
            None => None,
        }
    }

    fn schedule(
        &self,
        ch: &Channel,
        now: u64,
        writes: bool,
    ) -> Option<(Command, Option<(bool, usize)>)> {
        let q = if writes { &self.write_q } else { &self.read_q };
        if q.is_empty() {
            return None;
        }
        let horizon = match self.scheduler {
            SchedulerKind::FrFcfs => q.len(),
            SchedulerKind::Fcfs => 1,
        };
        // Pass 1: oldest ready row hit.
        for (i, tx) in q.iter().take(horizon).enumerate() {
            let a = &tx.addr;
            let bank = ch.bank(a.rank, a.bankgroup, a.bank);
            if bank.is_row_hit(a.row) {
                let cmd = if tx.is_write {
                    Command::wr(a.rank, a.bankgroup, a.bank, a.row, a.col)
                } else {
                    Command::rd(a.rank, a.bankgroup, a.bank, a.row, a.col)
                };
                if ch.can_issue(&cmd, Issuer::Host, now) {
                    return Some((cmd, Some((writes, i))));
                }
            }
        }
        // Pass 2: oldest transaction, ACT a closed bank or PRE a dead row
        // (full-scan keep-open guard over the served queue's horizon).
        for tx in q.iter().take(horizon) {
            let a = &tx.addr;
            let bank = ch.bank(a.rank, a.bankgroup, a.bank);
            let cmd = match bank.open_row() {
                None => Command::act(a.rank, a.bankgroup, a.bank, a.row),
                Some(open) if open != a.row => {
                    let keep = q.iter().take(horizon).any(|t| {
                        t.addr.rank == a.rank
                            && t.addr.bankgroup == a.bankgroup
                            && t.addr.bank == a.bank
                            && ch.bank(a.rank, a.bankgroup, a.bank).is_row_hit(t.addr.row)
                    });
                    if keep {
                        continue;
                    }
                    Command::pre(a.rank, a.bankgroup, a.bank)
                }
                Some(_) => continue,
            };
            if ch.can_issue(&cmd, Issuer::Host, now) {
                return Some((cmd, None));
            }
        }
        None
    }
}

fn rand_tx(rng: &mut StdRng, cfg: &chopim_dram::DramConfig, now: u64) -> HostTransaction {
    let is_write = rng.gen_bool(0.4);
    let meta = if is_write {
        if rng.gen_bool(0.1) {
            TxMeta::Launch {
                launch: rng.gen_range(0..100),
            }
        } else {
            TxMeta::CoreWrite
        }
    } else {
        TxMeta::CoreRead {
            core: 0,
            req: rng.gen_range(0..1000),
        }
    };
    HostTransaction {
        addr: DramAddress {
            channel: 0,
            rank: rng.gen_range(0..cfg.ranks_per_channel),
            bankgroup: rng.gen_range(0..2),
            bank: rng.gen_range(0..2),
            row: rng.gen_range(0..4),
            col: rng.gen_range(0..4),
        },
        is_write,
        meta,
        arrival: now,
    }
}

fn run_case(seed: u64, scheduler: SchedulerKind, page_policy: PagePolicy, cycles: u64) {
    let cfg = chopim_dram::DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    let mut ch = Channel::new(&cfg);
    let mut mc = HostMc::new(
        cfg.ranks_per_channel,
        cfg.bankgroups,
        cfg.banks_per_group,
        cfg.timing.refi,
    );
    mc.set_scheduler(scheduler);
    mc.set_page_policy(page_policy);
    let mut oracle = Oracle::new(scheduler, page_policy);
    let mut rng = StdRng::seed_from_u64(seed);

    for now in 0..cycles {
        // Random arrivals (respecting the same admission the MC applies).
        for _ in 0..rng.gen_range(0..3u32) {
            let tx = rand_tx(&mut rng, &cfg, now);
            if mc.try_push(tx) {
                oracle.push(tx);
            }
        }
        // Cross-check the cheap cached predicates against full scans.
        assert_eq!(
            mc.oldest_read_rank(),
            oracle
                .read_q
                .iter()
                .find(|t| !t.is_write)
                .map(|t| t.addr.rank),
            "oldest-read predictor diverged at {now}"
        );

        let expected = oracle.expected(&ch, now);
        let actual = mc.tick(&mut ch, now);
        match (&expected, &actual) {
            (None, None) => {}
            (Some((cmd, completes)), Some(iss)) => {
                assert_eq!(*cmd, iss.cmd, "command diverged at cycle {now}");
                match (completes, iss.completed) {
                    (None, None) => {}
                    (Some((writes, i)), Some(tx)) => {
                        let q = if *writes {
                            &mut oracle.write_q
                        } else {
                            &mut oracle.read_q
                        };
                        let o = q.remove(*i);
                        assert_eq!(
                            (o.addr, o.is_write, o.arrival),
                            (tx.addr, tx.is_write, tx.arrival),
                            "completed a different transaction at {now}"
                        );
                    }
                    other => panic!("completion mismatch at {now}: {other:?}"),
                }
            }
            other => panic!("decision diverged at cycle {now}: {other:?}"),
        }
        if now % 64 == 0 {
            mc.assert_index_invariants();
        }
    }
    mc.assert_index_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// FR-FCFS + open page (the paper's configuration).
    #[test]
    fn frfcfs_open_matches_naive(seed in 0u64..1_000_000) {
        run_case(seed, SchedulerKind::FrFcfs, PagePolicy::Open, 400);
    }

    /// FR-FCFS + closed page (exercises `eager_close` + demand maps).
    #[test]
    fn frfcfs_closed_matches_naive(seed in 0u64..1_000_000) {
        run_case(seed, SchedulerKind::FrFcfs, PagePolicy::Closed, 400);
    }

    /// Strict FCFS + open page (horizon-1 scheduling).
    #[test]
    fn fcfs_open_matches_naive(seed in 0u64..1_000_000) {
        run_case(seed, SchedulerKind::Fcfs, PagePolicy::Open, 400);
    }

    /// Strict FCFS + closed page.
    #[test]
    fn fcfs_closed_matches_naive(seed in 0u64..1_000_000) {
        run_case(seed, SchedulerKind::Fcfs, PagePolicy::Closed, 400);
    }
}
