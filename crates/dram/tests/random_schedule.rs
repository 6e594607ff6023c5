//! Cross-validation: drive the channel model with a greedy random command
//! generator mixing host and NDA issuers; every command the model
//! *accepts* must be accepted by the independently-written
//! [`TimingChecker`], and the model must never accept a structurally
//! illegal command.

use chopim_dram::{Channel, Command, CommandKind, DramConfig, Issuer, TimingChecker, TimingParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type TraceEntry = (u64, Command, Issuer);

/// Run a randomized open-page workload on one channel and return the trace.
/// Each cycle tries one host command first (host priority), then offers
/// each rank's NDA controller a try — mirroring the real arbitration.
fn random_trace(seed: u64, cycles: u64, cfg: &DramConfig, with_nda: bool) -> Vec<TraceEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ch = Channel::new(cfg);
    let mut trace = Vec::new();
    let gen_cmd = |rng: &mut StdRng, ch: &Channel, rank: usize| {
        let bg = rng.gen_range(0..cfg.bankgroups);
        let bank = rng.gen_range(0..cfg.banks_per_group);
        let row = rng.gen_range(0..4u32);
        let col = rng.gen_range(0..cfg.lines_per_row() as u32);
        let kind = match rng.gen_range(0..10) {
            0..=2 => CommandKind::Act,
            3..=5 => CommandKind::Rd,
            6..=7 => CommandKind::Wr,
            8 => CommandKind::Pre,
            _ => CommandKind::RefAb,
        };
        match kind {
            CommandKind::Act => Command::act(rank, bg, bank, row),
            CommandKind::Pre => Command::pre(rank, bg, bank),
            CommandKind::Rd => {
                let open = ch.bank(rank, bg, bank).open_row().unwrap_or(row);
                Command::rd(rank, bg, bank, open, col)
            }
            CommandKind::Wr => {
                let open = ch.bank(rank, bg, bank).open_row().unwrap_or(row);
                Command::wr(rank, bg, bank, open, col)
            }
            CommandKind::RefAb => Command::ref_ab(rank),
            CommandKind::PreAll => unreachable!(),
        }
    };
    for now in 0..cycles {
        // Host tries a handful of random commands; first accepted wins.
        for _ in 0..6 {
            let rank = rng.gen_range(0..cfg.ranks_per_channel);
            let cmd = gen_cmd(&mut rng, &ch, rank);
            if ch.can_issue(&cmd, Issuer::Host, now) {
                ch.issue(&cmd, Issuer::Host, now)
                    .expect("can_issue implies issue");
                trace.push((now, cmd, Issuer::Host));
                break;
            }
        }
        if !with_nda {
            continue;
        }
        // Each rank's NDA controller gets an independent try (column and
        // row commands only — refresh stays host-managed).
        for rank in 0..cfg.ranks_per_channel {
            for _ in 0..3 {
                let cmd = gen_cmd(&mut rng, &ch, rank);
                if cmd.kind == CommandKind::RefAb {
                    continue;
                }
                if ch.can_issue(&cmd, Issuer::Nda, now) {
                    ch.issue(&cmd, Issuer::Nda, now)
                        .expect("can_issue implies issue");
                    trace.push((now, cmd, Issuer::Nda));
                    break;
                }
            }
        }
    }
    trace
}

#[test]
fn model_and_checker_agree_on_host_only_schedules() {
    let cfg = DramConfig::table_ii();
    for seed in 0..6u64 {
        let trace = random_trace(seed, 4000, &cfg, false);
        assert!(
            trace.len() > 100,
            "generator should make progress (seed {seed})"
        );
        let n = TimingChecker::check_trace(&cfg, trace.iter().copied())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(n as usize, trace.len());
    }
}

#[test]
fn model_and_checker_agree_on_concurrent_schedules() {
    let cfg = DramConfig::table_ii();
    for seed in 0..6u64 {
        let trace = random_trace(seed, 4000, &cfg, true);
        let nda = trace.iter().filter(|e| e.2 == Issuer::Nda).count();
        assert!(
            nda > 50,
            "NDA should get issue slots (seed {seed}, got {nda})"
        );
        TimingChecker::check_trace(&cfg, trace.iter().copied())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn model_and_checker_agree_without_refresh() {
    let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    let trace = random_trace(99, 6000, &cfg, true);
    TimingChecker::check_trace(&cfg, trace).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seed yields a checker-clean accepted schedule.
    #[test]
    fn prop_accepted_schedules_are_legal(seed in any::<u64>()) {
        let cfg = DramConfig::tiny();
        let trace = random_trace(seed, 1500, &cfg, true);
        prop_assert!(TimingChecker::check_trace(&cfg, trace).is_ok());
    }

    /// `can_issue == false` must hold right before the earliest legal cycle
    /// computed by `ready_at` and true at it (for structurally legal
    /// commands).
    #[test]
    fn prop_ready_at_is_tight(seed in any::<u64>()) {
        let cfg = DramConfig::tiny();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ch = Channel::new(&cfg);
        ch.issue(&Command::act(0, 0, 0, 1), Issuer::Host, 0).unwrap();
        let mut now = 1u64;
        for _ in 0..50 {
            let rank = rng.gen_range(0..cfg.ranks_per_channel);
            let bg = rng.gen_range(0..cfg.bankgroups);
            let bank = rng.gen_range(0..cfg.banks_per_group);
            let issuer = if rng.gen_bool(0.5) { Issuer::Host } else { Issuer::Nda };
            let open = ch.bank(rank, bg, bank).open_row();
            let cmd = match (open, rng.gen_bool(0.5)) {
                (Some(row), true) => Command::rd(rank, bg, bank, row, 0),
                (Some(_), false) => Command::pre(rank, bg, bank),
                (None, _) => Command::act(rank, bg, bank, rng.gen_range(0..4)),
            };
            if let Some(ready) = ch.ready_at(&cmd, issuer) {
                let ready = ready.max(now);
                if ready > now {
                    prop_assert!(!ch.can_issue(&cmd, issuer, ready - 1));
                }
                prop_assert!(ch.can_issue(&cmd, issuer, ready));
                ch.issue(&cmd, issuer, ready).unwrap();
                now = ready + 1;
            }
        }
    }
}
