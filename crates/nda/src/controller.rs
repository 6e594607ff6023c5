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
//! Two memos keep the per-cycle cost at "two integer compares" while
//! nothing changes:
//!
//! * the desired access is cached between grants
//!   ([`NdaFsm::next_access`] is idempotent until a launch or commit, so
//!   re-deriving it every cycle is pure waste);
//! * the planned command and its ready time are keyed on the rank's
//!   [NDA epoch](chopim_dram::Rank::nda_epoch) — they are recomputed only
//!   after a command actually touched this rank.
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
    channel: usize,
    rank: usize,
    /// Banks per bank group: only the snapshot's geometry cross-check
    /// reads it (the channel splits flat banks for planning).
    banks_per_group: usize,
    fsm: NdaFsm,
    /// The access the FSM wants (`None` = idle). Kept current so the
    /// event-horizon loop can predict this controller's next action
    /// without mutating the FSM.
    want: Option<NdaAccess>,
    /// True while `want` reflects the FSM (cleared by a launch, the only
    /// external event that can change the desired access; grants update
    /// `want` in place).
    want_valid: bool,
    /// The rank's NDA epoch under which `plan_cmd`/`plan_ready` are exact.
    plan_epoch: u64,
    /// Planned DRAM command for `want`.
    plan_cmd: Command,
    /// Earliest cycle `plan_cmd` satisfies timing.
    plan_ready: Cycle,
    /// Row commands issued (ACT + PRE), for stats.
    pub row_cmds: u64,
    /// Cycles the controller was offered the bus but throttled on a write.
    pub write_throttle_stalls: u64,
}

impl NdaRankController {
    /// A controller for `(channel, rank)` with an instruction queue of
    /// `queue_cap`.
    pub fn new(channel: usize, rank: usize, banks_per_group: usize, queue_cap: usize) -> Self {
        Self {
            channel,
            rank,
            banks_per_group,
            fsm: NdaFsm::new(queue_cap),
            want: None,
            want_valid: false,
            plan_epoch: MEMO_INVALID,
            plan_cmd: Command::pre(0, 0, 0),
            plan_ready: 0,
            row_cmds: 0,
            write_throttle_stalls: 0,
        }
    }

    /// The channel this controller's rank is on.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The rank within the channel.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The sequencer FSM (read access, e.g. for fingerprint checks).
    pub fn fsm(&self) -> &NdaFsm {
        &self.fsm
    }

    /// Mutable FSM access (completion draining).
    pub fn fsm_mut(&mut self) -> &mut NdaFsm {
        &mut self.fsm
    }

    /// Launch an instruction on this rank.
    ///
    /// # Errors
    ///
    /// Returns the instruction back when the queue is full.
    pub fn launch(&mut self, instr: NdaInstr) -> Result<(), NdaInstr> {
        // A launch can change the desired access (e.g. ending a
        // force-drain); the cached plan must be re-derived.
        self.want_valid = false;
        self.plan_epoch = MEMO_INVALID;
        self.fsm.launch(instr)
    }

    /// Permanently abandon all queued, running, and buffered work
    /// (rank-death support): aborts the FSM and clears the cached
    /// desired access and plan so the controller reads as idle
    /// immediately — `desired_access` returns `None` and
    /// `next_event_cycle` returns [`Cycle::MAX`].
    pub fn abort_all(&mut self) {
        self.fsm.abort_all();
        self.want = None;
        self.want_valid = true;
        self.plan_epoch = MEMO_INVALID;
    }

    /// True from a launch until the next offered tick re-derives the
    /// desired access from the FSM. That tick must run: it is where a
    /// launch takes effect.
    pub fn launch_pending(&self) -> bool {
        !self.want_valid
    }

    /// The exact cycle the desired command becomes ready, while the plan
    /// memo is current (no command touched the rank since it was made).
    /// An offered tick before that cycle does nothing, policy evaluation
    /// included. `None` while idle, with a launch pending, or once the
    /// memo is stale.
    pub fn planned_ready(&self, ch: &Channel) -> Option<Cycle> {
        let current = self.want_valid
            && self.want.is_some()
            && self.plan_epoch == ch.rank_nda_epoch(self.rank);
        current.then_some(self.plan_ready)
    }

    /// The cached desired access, refreshing it from the FSM if a launch
    /// invalidated it.
    #[inline]
    fn current_want(&mut self) -> Option<NdaAccess> {
        if !self.want_valid {
            self.want = self.fsm.next_access();
            self.want_valid = true;
        }
        self.want
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
        let Some(acc) = self.current_want() else {
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
            CommandKind::Rd | CommandKind::Wr => {
                self.fsm.commit(acc);
                // Re-normalize so `desired_access` reflects the post-grant
                // state (pops the next instruction, absorbs produced
                // writes). The host-side shadow performs the same call.
                self.want = self.fsm.next_access();
                self.want_valid = true;
            }
            _ => self.row_cmds += 1,
        }
        // Warm the plan memo for the next desired access against the
        // post-issue epoch, so `planned_ready` can skip the blocked window.
        if let Some(next) = self.want {
            self.ensure_plan(ch, next);
        }
        NdaTickResult::Issued(cmd)
    }

    /// The access the FSM wants (pure; `None` while idle). Valid until
    /// the next launch delivery.
    pub fn desired_access(&self) -> Option<NdaAccess> {
        self.want
    }

    /// Conservative earliest cycle at or after `now` (the first cycle not
    /// yet executed) at which this controller could issue a command,
    /// assuming no other agent touches the memory system first (any such
    /// event re-computes horizons). Returns [`Cycle::MAX`] while idle; the
    /// caller handles write throttling.
    pub fn next_event_cycle(&self, ch: &Channel, now: Cycle) -> Cycle {
        if !self.want_valid {
            // A launch just arrived; the next executed cycle re-derives
            // the desired access.
            return now;
        }
        let Some(acc) = self.want else {
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

// The memo fields (`want`, plan) are captured verbatim rather than
// re-derived: re-deriving on restore would change which cycles get
// offered to the FSM and shift `write_throttle_stalls`, breaking resume
// bit-identity, and the plan doubles as the controller's wake-up, so a
// resumed shard skips exactly the cycles an uninterrupted one does. The
// identity fields cross-check the restoring shard.
chopim_dram::codec! {
    in_place NdaRankController {
        channel: expect,
        rank: expect,
        banks_per_group: expect,
        fsm,
        want,
        want_valid,
        plan_epoch,
        plan_cmd,
        plan_ready,
        row_cmds,
        write_throttle_stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Opcode;
    use crate::operand::OperandLayout;
    use chopim_dram::{DramConfig, DramStats, TimingParams};

    fn setup() -> (Channel, NdaRankController) {
        let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
        let ch = Channel::new(&cfg);
        let ctl = NdaRankController::new(0, 1, 4, 8);
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
        assert_eq!(ctl.fsm_mut().pop_completed(), Some(42));
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
        assert!(ctl.launch_pending());
        // First offered cycle plans and issues an ACT, then plans the
        // next access: the memo is current and serves as the wake-up.
        let r = ctl.tick(&mut ch, 0, || true);
        assert!(matches!(r, NdaTickResult::Issued(c) if c.kind == CommandKind::Act));
        assert!(!ctl.launch_pending());
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
        assert_eq!(ctl.fsm_mut().pop_completed(), Some(7));
    }
}
