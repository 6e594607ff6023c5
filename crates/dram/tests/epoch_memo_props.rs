//! Epoch-memo soundness properties.
//!
//! The schedulers memoize `(plan_access, ready_at)` per pending access,
//! keyed on the target rank's state epoch, and trust the memo while the
//! epoch is unchanged. That is only sound if the device model bumps the
//! epoch on *every* command that could change those answers. These
//! properties drive random legal command streams and verify, after every
//! single issue (including refreshes), that:
//!
//! * a memo whose epoch still matches equals a fresh recomputation
//!   (host memos against [`chopim_dram::Rank::epoch`], NDA memos against
//!   [`chopim_dram::Rank::nda_epoch`]);
//! * epochs never move backwards.

use chopim_dram::{Channel, Command, CommandKind, Cycle, DramConfig, Issuer, TimingParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A probe: one hypothetical column access whose plan+ready we memoize.
#[derive(Clone, Copy)]
struct Probe {
    rank: usize,
    bg: usize,
    bank: usize,
    row: u32,
    col: u32,
    write: bool,
    issuer: Issuer,
}

#[derive(Clone, Copy)]
struct Memo {
    epoch: u64,
    cmd: Command,
    ready: Cycle,
}

fn compute(ch: &Channel, p: &Probe) -> (Command, Cycle) {
    ch.plan_and_ready(p.rank, p.bg, p.bank, p.row, p.col, p.write, p.issuer)
}

fn epoch_of(ch: &Channel, p: &Probe) -> u64 {
    match p.issuer {
        Issuer::Host => ch.rank_epoch(p.rank),
        Issuer::Nda => ch.rank_nda_epoch(p.rank),
    }
}

/// Generate a structurally legal random command for the current state.
fn gen_cmd(rng: &mut StdRng, ch: &Channel, cfg: &DramConfig) -> (Command, Issuer) {
    let rank = rng.gen_range(0..cfg.ranks_per_channel);
    let bg = rng.gen_range(0..cfg.bankgroups);
    let bank = rng.gen_range(0..cfg.banks_per_group);
    let issuer = if rng.gen_bool(0.5) {
        Issuer::Host
    } else {
        Issuer::Nda
    };
    let open = ch.bank(rank, bg, bank).open_row();
    let cmd = match (open, rng.gen_range(0..5u32)) {
        (_, 0) if ch.all_banks_closed(rank) => Command::ref_ab(rank),
        (Some(row), 1) => Command::rd(rank, bg, bank, row, rng.gen_range(0..4)),
        (Some(row), 2) => Command::wr(rank, bg, bank, row, rng.gen_range(0..4)),
        (Some(_), 3) => Command::pre_all(rank),
        (Some(_), _) => Command::pre(rank, bg, bank),
        (None, _) => Command::act(rank, bg, bank, rng.gen_range(0..4)),
    };
    // Refresh and PREA are host-managed in this model's schedulers.
    let issuer = if matches!(cmd.kind, CommandKind::RefAb | CommandKind::PreAll) {
        Issuer::Host
    } else {
        issuer
    };
    (cmd, issuer)
}

fn run_case(seed: u64, refresh: bool, steps: usize) {
    let cfg = if refresh {
        DramConfig::table_ii()
    } else {
        DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh())
    };
    let mut ch = Channel::new(&cfg);
    let mut rng = StdRng::seed_from_u64(seed);

    // A spread of probes over ranks/banks/rows, both issuers.
    let mut probes = Vec::new();
    for rank in 0..cfg.ranks_per_channel {
        for k in 0..6 {
            probes.push(Probe {
                rank,
                bg: k % cfg.bankgroups,
                bank: (k / 2) % cfg.banks_per_group,
                row: (k % 3) as u32,
                col: k as u32 % 4,
                write: k % 2 == 0,
                issuer: if k % 3 == 0 {
                    Issuer::Nda
                } else {
                    Issuer::Host
                },
            });
        }
    }
    let mut memos: Vec<Memo> = probes
        .iter()
        .map(|p| {
            let (cmd, ready) = compute(&ch, p);
            Memo {
                epoch: epoch_of(&ch, p),
                cmd,
                ready,
            }
        })
        .collect();

    let mut now: Cycle = 0;
    let mut issued = 0;
    while issued < steps {
        let (cmd, issuer) = gen_cmd(&mut rng, &ch, &cfg);
        let epochs_before: Vec<u64> = (0..cfg.ranks_per_channel)
            .map(|r| ch.rank_epoch(r))
            .collect();
        if ch.issue(&cmd, issuer, now).is_ok() {
            issued += 1;
            // Epoch monotonicity: never backwards, own rank always bumped.
            for (r, &before) in epochs_before.iter().enumerate() {
                assert!(ch.rank_epoch(r) >= before);
            }
            assert!(
                ch.rank_epoch(cmd.rank) > epochs_before[cmd.rank],
                "command to rank {} must bump its epoch",
                cmd.rank
            );
            // The memo contract: matching epoch ⇒ memo equals a fresh
            // computation, for every probe after every issue.
            for (p, m) in probes.iter().zip(memos.iter_mut()) {
                let epoch = epoch_of(&ch, p);
                let (cmd_now, ready_now) = compute(&ch, p);
                if m.epoch == epoch {
                    assert_eq!(
                        (m.cmd, m.ready),
                        (cmd_now, ready_now),
                        "stale memo accepted: probe rank {} issuer {:?} after {:?}",
                        p.rank,
                        p.issuer,
                        cmd
                    );
                } else {
                    *m = Memo {
                        epoch,
                        cmd: cmd_now,
                        ready: ready_now,
                    };
                }
            }
        }
        now += rng.gen_range(1u64..6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Memoized `ready_at` equals a fresh `ready_at` after every issue
    /// whenever the keying epoch is unchanged (no refresh traffic).
    #[test]
    fn memo_matches_fresh_without_refresh(seed in 0u64..1_000_000) {
        run_case(seed, false, 120);
    }

    /// Same, with periodic refresh in the stream (REF moves
    /// `refresh_done_at` and bank `next_act`, and must invalidate).
    #[test]
    fn memo_matches_fresh_with_refresh(seed in 0u64..1_000_000) {
        run_case(seed, true, 120);
    }
}
