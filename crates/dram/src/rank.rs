//! Per-rank state: rank-scope timing registers, the four-activate window,
//! refresh bookkeeping, and the NDA epoch that keys the NDA controllers'
//! plan memos.
//!
//! Bank and bank-group state lives in contiguous per-channel arrays on
//! [`crate::Channel`] (better cache locality for the schedulers' hot
//! loops); a `Rank` holds only the registers that are scoped to the whole
//! rank.

use std::collections::VecDeque;

use crate::Cycle;

/// Timing registers scoped to one bank group (the `_L` constraints).
#[derive(Debug, Clone, Default)]
pub struct BankGroupTiming {
    /// Earliest RD in this bank group (tCCD_L, tWTR_L).
    pub next_rd: Cycle,
    /// Earliest WR in this bank group (tCCD_L).
    pub next_wr: Cycle,
    /// Earliest ACT in this bank group (tRRD_L).
    pub next_act: Cycle,
}

crate::codec! { BankGroupTiming { next_rd, next_wr, next_act } }

/// One physical rank: the registers shared by every bank in the rank
/// (`_S` constraints, tFAW, refresh), plus the NDA memoization epoch.
#[derive(Debug, Clone, Default)]
pub struct Rank {
    /// Earliest RD at rank scope — *internal* DRAM-die constraints
    /// (tCCD_S, tWTR_S, read/write turnaround on the die I/O). Shared by
    /// host and NDA accesses: the rank cannot serve both at once.
    pub next_rd: Cycle,
    /// Earliest WR at rank scope (internal).
    pub next_wr: Cycle,
    /// Earliest ACT at rank scope (tRRD_S, tRFC after refresh).
    pub next_act: Cycle,
    /// Earliest *host* RD: external channel-bus constraints (tRTRS after
    /// other ranks' bursts). NDA accesses never touch the channel bus and
    /// ignore this.
    pub ext_next_rd: Cycle,
    /// Earliest host WR (external bus constraints).
    pub ext_next_wr: Cycle,
    /// Cycle of the last host command addressed to this rank (the die's
    /// command mux can take one command per cycle).
    pub last_host_cmd_at: Option<Cycle>,
    /// Cycle of the last NDA-controller command to this rank.
    pub last_nda_cmd_at: Option<Cycle>,
    /// Issue times of the most recent ACTs, for the tFAW window.
    pub(crate) faw_window: VecDeque<Cycle>,
    /// Cycle at which an in-progress refresh completes (0 if none).
    pub refresh_done_at: Cycle,
    /// Number of all-bank refreshes performed.
    pub refreshes: u64,
    /// State epoch for *NDA* accesses: bumped by every command addressed
    /// to this rank, the only commands that can change the outcome of
    /// `ready_at`/`plan_access` for an NDA access to it. NDA reads/writes
    /// never touch the external bus, so commands to other ranks (whose
    /// only reach is `ext_next_rd`/`ext_next_wr`) leave it alone. While it
    /// is unchanged, a memoized `(plan_access, ready_at)` for an NDA
    /// access to this rank remains exact.
    pub(crate) nda_epoch: u64,
}

impl Rank {
    /// A fresh rank with no timing debt.
    pub fn new() -> Self {
        Self {
            faw_window: VecDeque::with_capacity(4),
            ..Self::default()
        }
    }

    /// The NDA-access memoization epoch (see the field docs).
    #[inline]
    pub fn nda_epoch(&self) -> u64 {
        self.nda_epoch
    }

    /// Earliest cycle at which a new ACT satisfies the four-activate window.
    pub fn faw_ready_at(&self, faw: u32) -> Cycle {
        if self.faw_window.len() < 4 {
            0
        } else {
            self.faw_window.front().copied().unwrap_or(0) + Cycle::from(faw)
        }
    }

    /// Record an ACT at `now` in the tFAW window.
    pub(crate) fn record_act(&mut self, now: Cycle) {
        if self.faw_window.len() == 4 {
            self.faw_window.pop_front();
        }
        self.faw_window.push_back(now);
    }

    /// True while an all-bank refresh is in progress at `now`.
    #[inline]
    pub fn refreshing(&self, now: Cycle) -> bool {
        now < self.refresh_done_at
    }

    /// True if the die's command mux already carried a command this cycle
    /// (one command per cycle, host or NDA).
    #[inline]
    pub fn cmd_mux_busy(&self, now: Cycle) -> bool {
        self.last_host_cmd_at == Some(now) || self.last_nda_cmd_at == Some(now)
    }
}

// The NDA epoch round-trips verbatim: the NDA controllers' plan memos,
// which a snapshot also carries, are keyed on it.
crate::codec! {
    Rank {
        next_rd,
        next_wr,
        next_act,
        ext_next_rd,
        ext_next_wr,
        last_host_cmd_at: opt_cycle,
        last_nda_cmd_at: opt_cycle,
        faw_window,
        refresh_done_at,
        refreshes,
        nda_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faw_window_tracks_last_four() {
        let mut r = Rank::new();
        let faw = 26;
        assert_eq!(r.faw_ready_at(faw), 0);
        for t in [10, 20, 30] {
            r.record_act(t);
            assert_eq!(r.faw_ready_at(faw), 0, "fewer than 4 ACTs never blocks");
        }
        r.record_act(40);
        assert_eq!(r.faw_ready_at(faw), 10 + 26);
        r.record_act(50);
        // Window slides: oldest is now 20.
        assert_eq!(r.faw_ready_at(faw), 20 + 26);
    }
}
