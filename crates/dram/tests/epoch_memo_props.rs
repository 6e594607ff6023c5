//! Plan-kernel and NDA epoch-memo soundness properties.
//!
//! The NDA rank controllers memoize `(plan_access, ready_at)` for their
//! next access, keyed on the target rank's NDA epoch
//! ([`chopim_dram::Rank::nda_epoch`]), and trust the memo while that epoch
//! is unchanged. That is only sound if the device model bumps the epoch on
//! *every* command that could change those answers. The host scheduler
//! keeps no memo: it plans every queued access fresh with the fused
//! kernels. These properties drive random legal command streams and
//! verify, after every single issue (including refreshes), that:
//!
//! * an NDA memo whose epoch still matches equals a fresh recomputation;
//! * every command bumps its own rank's NDA epoch, and epochs never move
//!   backwards;
//! * for every probe of both issuers, the fused `plan_and_ready` and
//!   `plan_kind_and_ready` equal the reference `plan_access` plus
//!   `ready_at` of the planned command.

use chopim_dram::{Channel, Command, CommandKind, Cycle, DramConfig, Issuer, TimingParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A probe: one hypothetical column access whose plan+ready we check.
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
    let flat_bank = p.bg * ch.config().banks_per_group + p.bank;
    ch.plan_and_ready(p.rank, flat_bank, p.row, p.col, p.write, p.issuer)
}

/// Assert both fused kernels agree with `plan_access` + `ready_at` for
/// `p` in the channel's current state (`after` names the last command,
/// for the failure message).
fn check_kernels(ch: &Channel, p: &Probe, after: Option<&Command>) {
    let reference = ch.plan_access(p.rank, p.bg, p.bank, p.row, p.col, p.write);
    let ready = ch
        .ready_at(&reference, p.issuer)
        .expect("a planned command is structurally legal");
    assert_eq!(
        compute(ch, p),
        (reference, ready),
        "plan_and_ready diverged: probe rank {} issuer {:?} after {after:?}",
        p.rank,
        p.issuer,
    );
    assert_eq!(
        ch.plan_kind_and_ready(p.rank, p.bg, p.bank, p.row, p.write, p.issuer),
        (reference.kind, ready),
        "plan_kind_and_ready diverged: probe rank {} issuer {:?} after {after:?}",
        p.rank,
        p.issuer,
    );
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

    // A spread of probes over ranks/banks/rows, each under both issuers.
    let mut probes = Vec::new();
    for rank in 0..cfg.ranks_per_channel {
        for k in 0..6 {
            for issuer in [Issuer::Host, Issuer::Nda] {
                probes.push(Probe {
                    rank,
                    bg: k % cfg.bankgroups,
                    bank: (k / 2) % cfg.banks_per_group,
                    row: (k % 3) as u32,
                    col: k as u32 % 4,
                    write: k % 2 == 0,
                    issuer,
                });
            }
        }
    }
    for p in &probes {
        check_kernels(&ch, p, None);
    }
    // The NDA probes carry memos keyed on their rank's NDA epoch.
    let mut memos: Vec<(Probe, Memo)> = probes
        .iter()
        .filter(|p| p.issuer == Issuer::Nda)
        .map(|p| {
            let (cmd, ready) = compute(&ch, p);
            let epoch = ch.rank_nda_epoch(p.rank);
            (*p, Memo { epoch, cmd, ready })
        })
        .collect();

    let mut now: Cycle = 0;
    let mut issued = 0;
    while issued < steps {
        let (cmd, issuer) = gen_cmd(&mut rng, &ch, &cfg);
        let epochs_before: Vec<u64> = (0..cfg.ranks_per_channel)
            .map(|r| ch.rank_nda_epoch(r))
            .collect();
        if ch.issue(&cmd, issuer, now).is_ok() {
            issued += 1;
            // Epoch monotonicity: never backwards, own rank always bumped.
            for (r, &before) in epochs_before.iter().enumerate() {
                assert!(ch.rank_nda_epoch(r) >= before);
            }
            assert!(
                ch.rank_nda_epoch(cmd.rank) > epochs_before[cmd.rank],
                "command to rank {} must bump its NDA epoch",
                cmd.rank
            );
            // The fused kernels match the reference for every probe.
            for p in &probes {
                check_kernels(&ch, p, Some(&cmd));
            }
            // The memo contract: matching epoch ⇒ memo equals a fresh
            // computation, for every NDA probe after every issue.
            for (p, m) in &mut memos {
                let epoch = ch.rank_nda_epoch(p.rank);
                let (cmd_now, ready_now) = compute(&ch, p);
                if m.epoch == epoch {
                    assert_eq!(
                        (m.cmd, m.ready),
                        (cmd_now, ready_now),
                        "stale memo accepted: probe rank {} after {:?}",
                        p.rank,
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

    /// A memoized NDA plan equals a fresh one after every issue whenever
    /// the rank's NDA epoch is unchanged, and the fused kernels match the
    /// reference (no refresh traffic).
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
