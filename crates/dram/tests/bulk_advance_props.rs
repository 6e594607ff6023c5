//! Bulk-advance equivalence properties for the DRAM layer.
//!
//! The event-horizon fast-forward never ticks DRAM state: timing is kept
//! in absolute-cycle registers, so "advancing by n cycles" is the
//! identity on device state and legality questions are answered by
//! `ready_at`. These properties pin down that equivalence — jumping
//! straight to a computed cycle must be indistinguishable from probing
//! every intermediate cycle — for bank-state timers, refresh counters,
//! and the idle-gap histogram.

use chopim_dram::{Channel, Command, CommandKind, Cycle, DramConfig, Issuer, RankStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first cycle at or after `from` at which `cmd` may issue, found the
/// naive way: probing one cycle at a time.
fn first_legal_by_scan(
    ch: &Channel,
    cmd: &Command,
    issuer: Issuer,
    from: Cycle,
    limit: Cycle,
) -> Option<Cycle> {
    (from..from + limit).find(|&t| ch.can_issue(cmd, issuer, t))
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
    let cmd = match (open, rng.gen_range(0..4u32)) {
        // Refresh requires every bank in the rank closed.
        (_, 0) if ch.all_banks_closed(rank) => Command::ref_ab(rank),
        (Some(row), 1) => Command::rd(rank, bg, bank, row, rng.gen_range(0..4)),
        (Some(row), 2) => Command::wr(rank, bg, bank, row, rng.gen_range(0..4)),
        (Some(_), _) => Command::pre(rank, bg, bank),
        (None, _) => Command::act(rank, bg, bank, rng.gen_range(0..4)),
    };
    // Refresh is host-managed.
    let issuer = if cmd.kind == CommandKind::RefAb {
        Issuer::Host
    } else {
        issuer
    };
    (cmd, issuer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Jumping to `ready_at` equals probing every cycle one at a time —
    /// for ACT/PRE/RD/WR (bank-state timers, tFAW) and REF (refresh
    /// counters: tRFC blackout, post-refresh ACT gating). This is the
    /// soundness core of event-horizon skipping: there is never a legal
    /// issue cycle strictly before the computed horizon.
    #[test]
    fn prop_ready_at_equals_per_cycle_scan(seed in any::<u64>()) {
        let cfg = DramConfig::tiny();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ch = Channel::new(&cfg);
        let mut now: Cycle = 0;
        for _ in 0..60 {
            let (cmd, issuer) = gen_cmd(&mut rng, &ch, &cfg);
            let Some(ready) = ch.ready_at(&cmd, issuer) else {
                continue; // structurally illegal right now
            };
            let ready = ready.max(now);
            let scanned = first_legal_by_scan(&ch, &cmd, issuer, now, 3000);
            prop_assert_eq!(
                scanned, Some(ready),
                "scan vs ready_at for {:?} ({:?}) from {}", cmd, issuer, now
            );
            ch.issue(&cmd, issuer, ready).unwrap();
            // Advance past the issue cycle (the command/mux bus blocks
            // same-cycle re-probes by design; `ready_at` is timing-only).
            now = ready + rng.gen_range(1..4u64);
        }
    }

    /// The idle-gap histogram is chunking-invariant: marking host
    /// activity one cycle at a time produces exactly the same histogram
    /// as marking whole busy spans, for any random span schedule. This is
    /// what lets the fast-forward account activity at event granularity
    /// rather than per cycle.
    #[test]
    fn prop_idle_histogram_bulk_equals_single_cycles(
        seed in any::<u64>(),
        spans in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bulk = RankStats::default();
        let mut stepped = RankStats::default();
        let mut t: Cycle = 0;
        for _ in 0..spans {
            t += rng.gen_range(0..1500u64); // idle gap (possibly zero)
            let len = rng.gen_range(1..20u64); // busy span
            bulk.mark_host_activity(t, t + len);
            for c in t..t + len {
                stepped.mark_host_activity(c, c + 1);
            }
            t += len;
        }
        let end = t + rng.gen_range(0..2000u64);
        bulk.finalize(end);
        stepped.finalize(end);
        prop_assert_eq!(&bulk.idle, &stepped.idle);
    }

    /// Refresh counters under time jumps: after a REF, the rank is blocked
    /// for exactly tRFC regardless of whether the clock is probed cycle by
    /// cycle or jumped straight to the horizon.
    #[test]
    fn prop_refresh_blackout_is_jump_invariant(jump in 1u64..600) {
        let cfg = DramConfig::table_ii();
        let mut ch = Channel::new(&cfg);
        ch.issue(&Command::ref_ab(0), Issuer::Host, 10).unwrap();
        let done = 10 + u64::from(cfg.timing.rfc);
        let act = Command::act(0, 0, 0, 1);
        // Probe at an arbitrary jumped-to cycle: legality depends only on
        // the absolute clock, never on intermediate probes.
        let probe = 10 + jump;
        prop_assert_eq!(ch.can_issue(&act, Issuer::Host, probe), probe >= done);
        prop_assert_eq!(ch.ready_at(&act, Issuer::Host), Some(done));
    }
}
