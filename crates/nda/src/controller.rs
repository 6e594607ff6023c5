//! The rank-local NDA memory controller.
//!
//! Sits between the FSM's desired access stream and the DRAM device:
//! opens/closes rows as needed (ACT/PRE), issues the column command when
//! timing allows, and defers writes when the issue policy says so (the
//! throttling hook of paper §III-B). It shares the channel's bank/timing
//! state with the host controller — in hardware via the replicated FSMs,
//! in the simulator via the common [`Channel`]. The controller only ever
//! touches its own channel, so the channel-sharded engine hands it a
//! `&mut Channel` owned by the shard rather than a system-wide object.
//!
//! The FSM holds its next access between inputs
//! ([`NdaFsm::next_access`]), so one memo keeps the per-cycle cost at
//! "two integer compares" while nothing changes: the planned command and
//! its ready time, keyed on the rank's
//! [NDA epoch](chopim_dram::Rank::nda_epoch) and recomputed only after a
//! command actually touched this rank (or a launch moved the access).
//!
//! The plan memo is also the controller's wake-up: while it is current,
//! [`planned_ready`](NdaRankController::planned_ready) is the exact cycle
//! before which an offered tick does nothing, so the shard skips those
//! cycles. Every command to the rank — host or NDA, row or column — bumps
//! the epoch and so retires the wake-up with the plan.

use chopim_dram::perfcount::{self, Counter};
use chopim_dram::{Channel, Command, CommandKind, Cycle, Issuer};

use crate::fsm::{NdaAccess, NdaFsm};
use crate::isa::NdaInstr;

/// Epoch sentinel marking the plan memo as stale.
const MEMO_INVALID: u64 = u64::MAX;

/// What the controller did in a cycle it was offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdaTickResult {
    /// Nothing to do (FSM idle).
    Idle,
    /// Wanted to issue but was blocked (timing, or writes throttled).
    Blocked,
    /// Issued this command.
    Issued(Command),
}

/// One rank's NDA memory controller.
#[derive(Debug, Clone)]
pub struct NdaRankController {
    rank: usize,
    fsm: NdaFsm,
    /// The rank's NDA epoch under which `plan_cmd`/`plan_ready` are exact.
    plan_epoch: u64,
    /// Planned DRAM command for the FSM's next access.
    plan_cmd: Command,
    /// Earliest cycle `plan_cmd` satisfies timing.
    plan_ready: Cycle,
    /// Row commands issued (ACT + PRE), for stats.
    pub row_cmds: u64,
    /// Cycles the controller was offered the bus but throttled on a write.
    pub write_throttle_stalls: u64,
}

impl NdaRankController {
    /// A controller for `rank` (within its channel) with an instruction
    /// queue of `queue_cap`.
    pub fn new(rank: usize, queue_cap: usize) -> Self {
        Self {
            rank,
            fsm: NdaFsm::new(queue_cap),
            plan_epoch: MEMO_INVALID,
            plan_cmd: Command::pre(0, 0, 0),
            plan_ready: 0,
            row_cmds: 0,
            write_throttle_stalls: 0,
        }
    }

    /// The rank within the channel.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The sequencer FSM (read access, e.g. for fingerprint checks).
    pub fn fsm(&self) -> &NdaFsm {
        &self.fsm
    }

    /// The next instruction the FSM completed, FIFO. Besides
    /// [`launch`](Self::launch), [`tick`](Self::tick) and
    /// [`abort_all`](Self::abort_all), the one way to change the FSM.
    pub fn pop_completed(&mut self) -> Option<u64> {
        self.fsm.pop_completed()
    }

    /// Launch an instruction on this rank.
    ///
    /// # Errors
    ///
    /// Returns the instruction back when the queue is full.
    pub fn launch(&mut self, instr: NdaInstr) -> Result<(), NdaInstr> {
        // A launch can change the next access (e.g. ending a
        // force-drain); the cached plan must be re-derived.
        self.plan_epoch = MEMO_INVALID;
        self.fsm.launch(instr)
    }

    /// Permanently abandon all queued, running, and buffered work
    /// (rank-death support): aborts the FSM and drops the plan, so the
    /// controller reads as idle immediately — the FSM's next access is
    /// `None` and `next_event_cycle` returns [`Cycle::MAX`].
    pub fn abort_all(&mut self) {
        self.fsm.abort_all();
        self.plan_epoch = MEMO_INVALID;
    }

    /// The exact cycle the next command becomes ready, while the plan
    /// memo is current (no command touched the rank and no launch
    /// arrived since it was made). An offered tick before that cycle
    /// does nothing, policy evaluation included. `None` while idle or
    /// once the memo is stale.
    pub fn planned_ready(&self, ch: &Channel) -> Option<Cycle> {
        let current =
            self.fsm.next_access().is_some() && self.plan_epoch == ch.rank_nda_epoch(self.rank);
        current.then_some(self.plan_ready)
    }

    /// Refresh the epoch-keyed `(plan_cmd, plan_ready)` memo for `acc`.
    /// Keyed on the *NDA* epoch: host traffic to other ranks (or this
    /// rank's external-bus registers) can never move an NDA access.
    #[inline]
    fn ensure_plan(&mut self, ch: &Channel, acc: NdaAccess) {
        let epoch = ch.rank_nda_epoch(self.rank);
        if self.plan_epoch == epoch {
            perfcount::bump(Counter::NdaMemoHit);
            return;
        }
        perfcount::bump(Counter::NdaMemoMiss);
        let (cmd, ready) = ch.plan_and_ready(
            self.rank,
            usize::from(acc.bank),
            acc.row,
            acc.col,
            acc.write,
            Issuer::Nda,
        );
        self.plan_cmd = cmd;
        self.plan_ready = ready;
        self.plan_epoch = epoch;
    }

    /// Offer the controller a chance to issue one command at `now`.
    ///
    /// The caller (the system arbiter) must only offer cycles where the
    /// host controller left the channel's command bus free — host commands
    /// always take priority (paper §III-B). `allow_write` carries the
    /// write-throttling decision for this rank; it is only consulted when
    /// the FSM actually wants a write, so stochastic policies draw exactly
    /// one coin per attempted write rather than one per cycle.
    pub fn tick(
        &mut self,
        ch: &mut Channel,
        now: Cycle,
        allow_write: impl FnOnce() -> bool,
    ) -> NdaTickResult {
        let Some(acc) = self.fsm.next_access() else {
            return NdaTickResult::Idle;
        };
        // Timing and command-mux checks come BEFORE the throttle decision:
        // a policy coin is only flipped when the write could otherwise
        // issue this cycle. This keeps stochastic policies aligned between
        // the naive loop and fast-forwarding (cycles inside a timing
        // window are provably draw-free and may be skipped).
        self.ensure_plan(ch, acc);
        if self.plan_ready > now {
            return NdaTickResult::Blocked;
        }
        if ch.rank(self.rank).cmd_mux_busy(now) {
            return NdaTickResult::Blocked;
        }
        if acc.write && !allow_write() {
            self.write_throttle_stalls += 1;
            return NdaTickResult::Blocked;
        }
        let cmd = self.plan_cmd;
        ch.issue_prechecked(&cmd, Issuer::Nda, now);
        match cmd.kind {
            CommandKind::Rd | CommandKind::Wr => self.fsm.commit(acc),
            _ => self.row_cmds += 1,
        }
        // Warm the plan memo for the next access against the post-issue
        // epoch, so `planned_ready` can skip the blocked window.
        if let Some(next) = self.fsm.next_access() {
            self.ensure_plan(ch, next);
        }
        NdaTickResult::Issued(cmd)
    }

    /// Conservative earliest cycle at or after `now` (the first cycle not
    /// yet executed) at which this controller could issue a command,
    /// assuming no other agent touches the memory system first (any such
    /// event re-computes horizons). Returns [`Cycle::MAX`] while idle; the
    /// caller handles write throttling.
    pub fn next_event_cycle(&self, ch: &Channel, now: Cycle) -> Cycle {
        let Some(acc) = self.fsm.next_access() else {
            return Cycle::MAX;
        };
        if self.plan_epoch == ch.rank_nda_epoch(self.rank) {
            return self.plan_ready.max(now);
        }
        let (_, ready) = ch.plan_and_ready(
            self.rank,
            usize::from(acc.bank),
            acc.row,
            acc.col,
            acc.write,
            Issuer::Nda,
        );
        ready.max(now)
    }
}

// The plan memo is an engine cache and is not stored: a restored
// controller starts it cold, so its first offered tick re-plans the FSM's
// next access from the channel, which yields the plan the memo held (the
// plan is a function of the rank's state, and the memo is exact while the
// epoch holds). That costs the resumed shard at most one no-op tick. The
// rank cross-checks the restoring shard.
chopim_dram::codec! {
    in_place NdaRankController {
        rank: expect,
        fsm,
        row_cmds,
        write_throttle_stalls,
        plan_epoch: skip,
        plan_cmd: skip,
        plan_ready: skip,
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;
    use crate::isa::Opcode;
    use crate::operand::OperandLayout;
    use chopim_dram::codec::{ByteReader, ByteWriter, Restore};
    use chopim_dram::{DramConfig, DramStats, TimingParams};
    use proptest::prelude::*;

    fn setup() -> (Channel, NdaRankController) {
        let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
        let ch = Channel::new(&cfg);
        let ctl = NdaRankController::new(1, 8);
        (ch, ctl)
    }

    fn stats(ch: &Channel) -> DramStats {
        let mut s = DramStats::default();
        s.add_channel(&ch.stats);
        s
    }

    fn copy_instr(lines: u64, id: u64) -> NdaInstr {
        let x = OperandLayout::rotating(16, 0, 64, 128);
        let y = OperandLayout::rotating(16, 100, 64, 128);
        NdaInstr::elementwise(Opcode::Copy, lines, vec![(x, 0)], vec![(y, 0)], id)
    }

    #[test]
    fn idle_controller_reports_idle() {
        let (mut ch, mut ctl) = setup();
        assert_eq!(ctl.tick(&mut ch, 0, || true), NdaTickResult::Idle);
    }

    #[test]
    fn runs_instruction_to_completion_on_idle_memory() {
        let (mut ch, mut ctl) = setup();
        ctl.launch(copy_instr(256, 42)).unwrap();
        let mut issued = 0u64;
        for now in 0..200_000u64 {
            if let NdaTickResult::Issued(_) = ctl.tick(&mut ch, now, || true) {
                issued += 1;
            }
            if ctl.fsm().completed_count() > 0 {
                break;
            }
        }
        assert_eq!(ctl.pop_completed(), Some(42));
        // 256 reads + 256 writes + row commands.
        assert!(issued >= 512, "issued only {issued}");
        let s = stats(&ch);
        assert_eq!(s.reads_nda, 256);
        assert_eq!(s.writes_nda, 256);
        assert!(s.acts_nda > 0);
    }

    #[test]
    fn write_throttling_blocks_drain() {
        let (mut ch, mut ctl) = setup();
        ctl.launch(copy_instr(128, 0)).unwrap();
        // Never allow writes: the read phase completes, then it blocks.
        let mut blocked = false;
        for now in 0..50_000u64 {
            match ctl.tick(&mut ch, now, || false) {
                NdaTickResult::Blocked if ctl.write_throttle_stalls > 0 => {
                    blocked = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(blocked);
        assert_eq!(stats(&ch).writes_nda, 0);
        // Re-allow writes: finishes.
        for now in 50_000..200_000u64 {
            ctl.tick(&mut ch, now, || true);
        }
        assert_eq!(stats(&ch).writes_nda, 128);
    }

    #[test]
    fn opens_rows_with_act_and_switches_with_pre() {
        let (mut ch, mut ctl) = setup();
        // Two chunks in the same bank, different rows: forces ACT..PRE..ACT.
        let x = OperandLayout::single_bank(0, 10, 2, 128);
        let i = NdaInstr::elementwise(Opcode::Nrm2, 256, vec![(x, 0)], vec![], 0);
        ctl.launch(i).unwrap();
        let mut kinds = Vec::new();
        for now in 0..100_000u64 {
            if let NdaTickResult::Issued(c) = ctl.tick(&mut ch, now, || true) {
                if c.kind.is_row() {
                    kinds.push((c.kind, c.row));
                }
            }
            if ctl.fsm().completed_count() > 0 {
                break;
            }
        }
        assert_eq!(kinds.len(), 3, "{kinds:?}");
        assert_eq!(kinds[0].0, CommandKind::Act);
        assert_eq!(kinds[1].0, CommandKind::Pre);
        assert_eq!(kinds[2].0, CommandKind::Act);
    }

    #[test]
    fn plan_memo_tracks_host_interference() {
        let (mut ch, mut ctl) = setup();
        ctl.launch(copy_instr(64, 7)).unwrap();
        // First offered cycle plans and issues an ACT, then plans the
        // next access: the memo is current and serves as the wake-up.
        let r = ctl.tick(&mut ch, 0, || true);
        assert!(matches!(r, NdaTickResult::Issued(c) if c.kind == CommandKind::Act));
        assert!(ctl.planned_ready(&ch).is_some());
        // Host command to the same rank moves its timing; the memoized
        // plan must be re-derived (epoch moved), not trusted.
        let epoch_before = ch.rank_nda_epoch(1);
        ch.issue(&Command::act(1, 3, 3, 9), Issuer::Host, 10)
            .unwrap();
        assert_ne!(ch.rank_nda_epoch(1), epoch_before);
        assert_eq!(ctl.planned_ready(&ch), None);
        // The next offered tick re-plans.
        ctl.tick(&mut ch, 11, || true);
        assert!(ctl.planned_ready(&ch).is_some());
        // The controller still makes progress and never issues illegally.
        let mut issued = 0;
        for now in 12..50_000u64 {
            if let NdaTickResult::Issued(_) = ctl.tick(&mut ch, now, || true) {
                issued += 1;
            }
            if ctl.fsm().completed_count() > 0 {
                break;
            }
        }
        assert!(issued > 0);
        assert_eq!(ctl.pop_completed(), Some(7));
    }

    /// Offer `ctl` the cycles in `cycles` the way the fast-forward shard
    /// does (none before its planned-ready cycle), keeping its queue full
    /// of AXPY instructions numbered from `next_id` and throttling writes
    /// on every fifth cycle; returns the issued commands with their
    /// cycles.
    fn axpy_stream(
        ch: &mut Channel,
        ctl: &mut NdaRankController,
        cycles: Range<Cycle>,
        next_id: &mut u64,
    ) -> Vec<(Cycle, Command)> {
        let x = OperandLayout::rotating(16, 0, 8, 128);
        let y = OperandLayout::rotating(16, 100, 8, 128);
        let mut issued = Vec::new();
        for now in cycles {
            while ctl.fsm().queue_space() > 0 {
                let reads = vec![(x.clone(), 0), (y.clone(), 0)];
                let writes = vec![(y.clone(), 0)];
                let i = NdaInstr::elementwise(Opcode::Axpy, 200, reads, writes, *next_id);
                ctl.launch(i).unwrap();
                *next_id += 1;
            }
            if ctl.planned_ready(ch).is_some_and(|ready| now < ready) {
                continue;
            }
            if let NdaTickResult::Issued(cmd) = ctl.tick(ch, now, || now % 5 != 0) {
                issued.push((now, cmd));
            }
            while ctl.pop_completed().is_some() {}
        }
        issued
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A controller encoded and decoded at any point of an AXPY
        /// stream starts its plan memo cold, and still issues the same
        /// commands on the same cycles as the original, with the same
        /// throttle stalls.
        #[test]
        fn prop_restored_controller_issues_same_commands(split in 0u64..12_000) {
            let (mut ch, mut ctl) = setup();
            let mut next_id = 0;
            axpy_stream(&mut ch, &mut ctl, 0..split, &mut next_id);
            let mut w = ByteWriter::new();
            ctl.encode_state(&mut w);
            let image = w.finish();
            let mut back = NdaRankController::new(1, 8);
            back.decode_state(&mut ByteReader::new(&image)).unwrap();
            prop_assert_eq!(back.fsm().validate(), Ok(()));
            prop_assert_eq!(back.planned_ready(&ch), None, "memo starts cold");
            let (mut ch2, mut next_id2) = (ch.clone(), next_id);
            let rest = split..split + 8_000;
            let a = axpy_stream(&mut ch, &mut ctl, rest.clone(), &mut next_id);
            let b = axpy_stream(&mut ch2, &mut back, rest, &mut next_id2);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(a, b);
            prop_assert_eq!(ctl.write_throttle_stalls, back.write_throttle_stalls);
            prop_assert_eq!(ctl.fsm().fingerprint(), back.fsm().fingerprint());
        }
    }
}
