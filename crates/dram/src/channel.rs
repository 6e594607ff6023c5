//! One memory channel: the shared external command/data buses, the ranks
//! behind them, and the full DDR4 timing-constraint checker.
//!
//! The model is *issuer aware*, which is the architectural heart of the
//! Chopim paper: host accesses arrive over the external channel, while NDA
//! accesses are generated by per-rank controllers behind the channel and
//! move data only on the rank's internal I/O. Consequently:
//!
//! * **bank- and rank-internal constraints** (tRCD, tRAS, tRC, tRP, tRTP,
//!   write recovery, tCCD_S/L, tRRD_S/L, tWTR_S/L, tFAW, tRFC, and the
//!   read↔write turnaround of the die I/O) bind host and NDA accesses to
//!   the *same rank* against each other — a rank serving the host cannot
//!   serve its NDA;
//! * **external bus constraints** (rank-to-rank switch tRTRS, channel-wide
//!   read→write turnaround, one command per cycle on the C/A bus) bind
//!   only host accesses — NDAs in *other* ranks run completely in parallel
//!   with host traffic.
//!
//! This is exactly why NDA writes hurt host reads in the same rank
//! (paper §III-B) while idle-rank bandwidth is free for the taking.
//!
//! ## Hot-path layout and the NDA epoch
//!
//! Bank state and bank-group timing live in contiguous per-channel arrays
//! (`banks`, `bg_timing`) rather than per-rank `Vec`s: the schedulers walk
//! these every cycle, and one flat slab keeps the whole channel's device
//! state in a couple of cache lines. Bank registers are further split
//! structure-of-arrays ([`Banks`]): the open-row sweeps
//! ([`open_rows_of`](Channel::open_rows_of)) and the per-rank timing
//! scans (PREA/REF readiness) run over one dense array each, which the
//! compiler autovectorizes. Every rank carries an *NDA epoch*
//! ([`Rank::nda_epoch`]) that `Channel::apply` bumps on every command
//! addressed to the rank — the only commands that can change an NDA
//! access's `plan_access`/`ready_at` answers there. Each NDA rank
//! controller memoizes `(epoch, plan, ready_at)` for its next access
//! (see `chopim_nda::controller`); the host scheduler keeps no memo.

use crate::bank::{BankRef, BankState, Banks, CLOSED_ROW};
use crate::codec::CodecError;
use crate::command::{Command, CommandKind, Issuer};
use crate::config::DramConfig;
use crate::perfcount;
use crate::rank::{BankGroupTiming, Rank};
use crate::stats::ChannelStats;
use crate::Cycle;

/// Result of a column command: the interval the data burst occupies on the
/// bus. For a read, `end` is also the fill-completion time at the
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataReady {
    /// First cycle of the burst (tCL/tCWL after the command).
    pub start: Option<Cycle>,
    /// One past the last cycle of the burst.
    pub end: Option<Cycle>,
}

impl DataReady {
    /// No data movement (row commands).
    pub fn none() -> Self {
        Self::default()
    }

    /// A burst over `[start, end)`.
    pub fn burst(start: Cycle, end: Cycle) -> Self {
        Self {
            start: Some(start),
            end: Some(end),
        }
    }
}

/// Why a command could not issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// Channel/rank/bank indices out of range.
    BadAddress,
    /// ACT to an already-open bank, or REF with open banks.
    BankOpen,
    /// Column command to a closed bank.
    BankClosed,
    /// Column command row differs from the open row.
    RowMismatch,
    /// A timing constraint is not yet satisfied.
    TooEarly,
    /// The command/address bus already carried a command this cycle.
    CmdBusBusy,
}

impl std::fmt::Display for IssueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IssueError::BadAddress => "address out of range",
            IssueError::BankOpen => "bank already open",
            IssueError::BankClosed => "bank is closed",
            IssueError::RowMismatch => "different row is open",
            IssueError::TooEarly => "timing constraint not satisfied",
            IssueError::CmdBusBusy => "command bus already used this cycle",
        };
        f.write_str(s)
    }
}

impl std::error::Error for IssueError {}

/// A single memory channel with its ranks and bus state.
#[derive(Debug, Clone)]
pub struct Channel {
    config: DramConfig,
    ranks: Vec<Rank>,
    /// All banks of the channel, structure-of-arrays, flat-indexed
    /// `rank * banks_per_rank + bankgroup * banks_per_group + bank`.
    banks: Banks,
    /// All bank-group timing registers, flat: `rank * bankgroups +
    /// bankgroup`.
    bg_timing: Vec<BankGroupTiming>,
    banks_per_rank: usize,
    banks_per_group: usize,
    bankgroups: usize,
    /// `(bankgroup, bank)` of each rank-local flat bank, so
    /// [`plan_and_ready`](Self::plan_and_ready) splits one without a
    /// division.
    bank_split: Vec<(usize, usize)>,
    /// Earliest *host* WR command on this channel (read→write turnaround
    /// is a channel-wide external-bus constraint).
    next_wr: Cycle,
    /// Cycle of the last host command on the C/A bus.
    last_cmd_at: Option<Cycle>,
    /// Statistics for this channel (per-rank activity, bus usage).
    pub stats: ChannelStats,
    /// Per-channel command trace (offline validation); `None` = disabled.
    trace: Option<Vec<(Cycle, Command, Issuer)>>,
}

impl Channel {
    /// Build a channel for `config`'s geometry.
    pub fn new(config: &DramConfig) -> Self {
        let nranks = config.ranks_per_channel;
        Self {
            ranks: (0..nranks).map(|_| Rank::new()).collect(),
            banks: Banks::new(nranks * config.banks_per_rank()),
            bg_timing: vec![BankGroupTiming::default(); nranks * config.bankgroups],
            banks_per_rank: config.banks_per_rank(),
            banks_per_group: config.banks_per_group,
            bankgroups: config.bankgroups,
            bank_split: (0..config.banks_per_rank())
                .map(|b| (b / config.banks_per_group, b % config.banks_per_group))
                .collect(),
            config: config.clone(),
            next_wr: 0,
            last_cmd_at: None,
            stats: ChannelStats::new(nranks),
            trace: None,
        }
    }

    /// The configuration this channel was built for. Channels are
    /// self-contained — controllers that own one (the channel-sharded
    /// engine) read geometry and timing from here instead of a
    /// system-level object.
    #[inline]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Record every applied command (for offline validation with
    /// [`crate::TimingChecker`]). Costs memory; meant for tests.
    #[cold]
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded per-channel trace (`(cycle, command, issuer)`,
    /// in application order).
    #[cold]
    pub fn take_trace(&mut self) -> Vec<(Cycle, Command, Issuer)> {
        self.trace.take().unwrap_or_default()
    }

    /// The ranks behind this channel.
    #[inline]
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// One rank.
    #[inline]
    pub fn rank(&self, rank: usize) -> &Rank {
        &self.ranks[rank]
    }

    /// The NDA-access memoization epoch of `rank` (see
    /// [`Rank::nda_epoch`]).
    #[inline]
    pub fn rank_nda_epoch(&self, rank: usize) -> u64 {
        self.ranks[rank].nda_epoch()
    }

    #[inline]
    fn bank_idx(&self, rank: usize, bankgroup: usize, bank: usize) -> usize {
        rank * self.banks_per_rank + bankgroup * self.banks_per_group + bank
    }

    /// One bank's state.
    #[inline]
    pub fn bank(&self, rank: usize, bankgroup: usize, bank: usize) -> BankRef<'_> {
        self.banks.get(self.bank_idx(rank, bankgroup, bank))
    }

    /// The open rows of `rank`'s banks, flat-indexed (`bankgroup *
    /// banks_per_group + bank`), [`CLOSED_ROW`] where precharged. The
    /// scan surface for the closed-page and eager-close sweeps: one
    /// dense `u32` compare per bank.
    #[inline]
    pub fn open_rows_of(&self, rank: usize) -> &[u32] {
        self.banks
            .open_rows(rank * self.banks_per_rank..(rank + 1) * self.banks_per_rank)
    }

    /// One bank-group's timing registers.
    #[inline]
    pub fn bg_timing(&self, rank: usize, bankgroup: usize) -> &BankGroupTiming {
        &self.bg_timing[rank * self.bankgroups + bankgroup]
    }

    /// True when every bank in `rank` is precharged (refresh
    /// precondition).
    pub fn all_banks_closed(&self, rank: usize) -> bool {
        self.open_rows_of(rank).iter().all(|&r| r == CLOSED_ROW)
    }

    /// True if the external C/A bus already carried a host command this
    /// cycle.
    #[inline]
    pub fn cmd_bus_busy(&self, now: Cycle) -> bool {
        self.last_cmd_at == Some(now)
    }

    /// Check structural legality of `cmd` (bank-state preconditions),
    /// independent of timing.
    fn state_ok(&self, cmd: &Command) -> Result<(), IssueError> {
        if cmd.rank >= self.ranks.len()
            || cmd.bankgroup >= self.bankgroups
            || cmd.bank >= self.banks_per_group
        {
            return Err(IssueError::BadAddress);
        }
        let bank = self.bank(cmd.rank, cmd.bankgroup, cmd.bank);
        match cmd.kind {
            CommandKind::Act => match bank.state() {
                BankState::Closed => Ok(()),
                BankState::Opened { .. } => Err(IssueError::BankOpen),
            },
            CommandKind::Pre | CommandKind::PreAll => Ok(()),
            CommandKind::Rd | CommandKind::Wr => match bank.state() {
                BankState::Opened { row } if row == cmd.row => Ok(()),
                BankState::Opened { .. } => Err(IssueError::RowMismatch),
                BankState::Closed => Err(IssueError::BankClosed),
            },
            CommandKind::RefAb => {
                if self.all_banks_closed(cmd.rank) {
                    Ok(())
                } else {
                    Err(IssueError::BankOpen)
                }
            }
        }
    }

    /// The command a controller must issue next to perform a column access
    /// to `(rank, bankgroup, bank, row)`: the column command itself on a
    /// row hit, PRE on a conflict, ACT on a closed bank. This is the
    /// reference definition: the controllers plan with the fused
    /// [`plan_and_ready`](Self::plan_and_ready) and
    /// [`plan_kind_and_ready`](Self::plan_kind_and_ready) kernels, and the
    /// tests check those against `plan_access` plus
    /// [`ready_at`](Self::ready_at).
    pub fn plan_access(
        &self,
        rank: usize,
        bankgroup: usize,
        bank: usize,
        row: u32,
        col: u32,
        write: bool,
    ) -> Command {
        perfcount::bump(perfcount::Counter::PlanAccess);
        match self.bank(rank, bankgroup, bank).open_row() {
            Some(r) if r == row => {
                if write {
                    Command::wr(rank, bankgroup, bank, row, col)
                } else {
                    Command::rd(rank, bankgroup, bank, row, col)
                }
            }
            Some(_) => Command::pre(rank, bankgroup, bank),
            None => Command::act(rank, bankgroup, bank, row),
        }
    }

    /// Fused [`plan_access`](Self::plan_access) +
    /// [`ready_at`](Self::ready_at): plan the next command for a column
    /// access to `flat_bank` of `rank` (`bankgroup * banks_per_group +
    /// bank`, the rank-local numbering the NDA microcode walks) and
    /// compute its earliest issue cycle in one bank-state lookup. The
    /// planned command is structurally legal by construction, so the
    /// ready time is always defined. The NDA rank controllers plan with
    /// it and memoize the result, which stays exact while `rank`'s
    /// [NDA epoch](Rank::nda_epoch) is unchanged.
    pub fn plan_and_ready(
        &self,
        rank: usize,
        flat_bank: usize,
        row: u32,
        col: u32,
        write: bool,
        issuer: Issuer,
    ) -> (Command, Cycle) {
        let (bankgroup, bank) = self.bank_split[flat_bank];
        let (kind, ready) = self.plan_kind_and_ready(rank, bankgroup, bank, row, write, issuer);
        let cmd = match kind {
            CommandKind::Rd => Command::rd(rank, bankgroup, bank, row, col),
            CommandKind::Wr => Command::wr(rank, bankgroup, bank, row, col),
            CommandKind::Pre => Command::pre(rank, bankgroup, bank),
            _ => Command::act(rank, bankgroup, bank, row),
        };
        (cmd, ready)
    }

    /// The kind-only core of [`plan_and_ready`](Self::plan_and_ready):
    /// plan the next command for a column access and compute its earliest
    /// issue cycle in a *single* pass over the bank/bank-group/rank
    /// registers (timing never depends on the column, so the full
    /// [`Command`] is not materialized). The host scheduler plans every
    /// queued transaction it scans with it.
    pub fn plan_kind_and_ready(
        &self,
        rank: usize,
        bankgroup: usize,
        bank: usize,
        row: u32,
        write: bool,
        issuer: Issuer,
    ) -> (CommandKind, Cycle) {
        perfcount::bump(perfcount::Counter::PlanAccess);
        perfcount::bump(perfcount::Counter::ReadyAt);
        let t = &self.config.timing;
        let r = &self.ranks[rank];
        let bg = &self.bg_timing[rank * self.bankgroups + bankgroup];
        let bi = rank * self.banks_per_rank + bankgroup * self.banks_per_group + bank;
        let host = issuer == Issuer::Host;
        let open = self.banks.open_row[bi];
        if open == row {
            if write {
                let mut ready = self.banks.next_wr[bi].max(bg.next_wr).max(r.next_wr);
                if host {
                    ready = ready.max(r.ext_next_wr).max(self.next_wr);
                }
                (CommandKind::Wr, ready.max(r.refresh_done_at))
            } else {
                let mut ready = self.banks.next_rd[bi].max(bg.next_rd).max(r.next_rd);
                if host {
                    ready = ready.max(r.ext_next_rd);
                }
                (CommandKind::Rd, ready.max(r.refresh_done_at))
            }
        } else if open != CLOSED_ROW {
            (
                CommandKind::Pre,
                self.banks.next_pre[bi].max(r.refresh_done_at),
            )
        } else {
            (
                CommandKind::Act,
                self.banks.next_act[bi]
                    .max(bg.next_act)
                    .max(r.next_act)
                    .max(r.faw_ready_at(t.faw))
                    .max(r.refresh_done_at),
            )
        }
    }

    /// Earliest cycle at which `cmd` from `issuer` satisfies every timing
    /// constraint. Returns `None` when structurally illegal right now.
    pub fn ready_at(&self, cmd: &Command, issuer: Issuer) -> Option<Cycle> {
        if self.state_ok(cmd).is_err() {
            return None;
        }
        Some(self.ready_at_legal(cmd, issuer))
    }

    /// [`ready_at`](Self::ready_at) for a command already known to be
    /// structurally legal (e.g. planned by
    /// [`plan_access`](Self::plan_access) against current bank state).
    fn ready_at_legal(&self, cmd: &Command, issuer: Issuer) -> Cycle {
        perfcount::bump(perfcount::Counter::ReadyAt);
        let t = &self.config.timing;
        let rank = &self.ranks[cmd.rank];
        let bg = self.bg_timing(cmd.rank, cmd.bankgroup);
        let bi = self.bank_idx(cmd.rank, cmd.bankgroup, cmd.bank);
        let bank_range = cmd.rank * self.banks_per_rank..(cmd.rank + 1) * self.banks_per_rank;
        let host = issuer == Issuer::Host;
        match cmd.kind {
            CommandKind::Act => self.banks.next_act[bi]
                .max(bg.next_act)
                .max(rank.next_act)
                .max(rank.faw_ready_at(t.faw))
                .max(rank.refresh_done_at),
            CommandKind::Pre => self.banks.next_pre[bi].max(rank.refresh_done_at),
            CommandKind::PreAll => {
                // Dense paired scan over the rank's open-row / next-pre
                // arrays (vectorizes: one compare + select per bank).
                let rows = &self.banks.open_row[bank_range.clone()];
                let pres = &self.banks.next_pre[bank_range];
                let mut ready = rank.refresh_done_at;
                for (&row, &pre) in rows.iter().zip(pres) {
                    if row != CLOSED_ROW {
                        ready = ready.max(pre);
                    }
                }
                ready
            }
            CommandKind::Rd => {
                let mut r = self.banks.next_rd[bi].max(bg.next_rd).max(rank.next_rd);
                if host {
                    r = r.max(rank.ext_next_rd);
                }
                r.max(rank.refresh_done_at)
            }
            CommandKind::Wr => {
                let mut r = self.banks.next_wr[bi].max(bg.next_wr).max(rank.next_wr);
                if host {
                    r = r.max(rank.ext_next_wr).max(self.next_wr);
                }
                r.max(rank.refresh_done_at)
            }
            CommandKind::RefAb => {
                let base = rank.next_act.max(rank.refresh_done_at);
                self.banks.next_act[bank_range]
                    .iter()
                    .fold(base, |acc, &na| acc.max(na))
            }
        }
    }

    /// True if `cmd` may legally issue at `now` (state, timing, and
    /// command-path availability).
    pub fn can_issue(&self, cmd: &Command, issuer: Issuer, now: Cycle) -> bool {
        match issuer {
            Issuer::Host => {
                if self.cmd_bus_busy(now) {
                    return false;
                }
            }
            Issuer::Nda => {
                // One command per cycle into the die's command mux: the
                // NDA controller yields to a host command already
                // addressed to its rank this cycle, and issues at most one
                // command per cycle itself.
                if self.ranks[cmd.rank].cmd_mux_busy(now) {
                    return false;
                }
            }
        }
        matches!(self.ready_at(cmd, issuer), Some(ready) if ready <= now)
    }

    /// Issue `cmd` at `now`, updating all device state, timing registers
    /// and statistics.
    ///
    /// # Errors
    ///
    /// [`IssueError::CmdBusBusy`] if the command path is taken this cycle,
    /// [`IssueError::TooEarly`] on a timing violation, or a structural
    /// error (wrong bank state / row).
    pub fn issue(
        &mut self,
        cmd: &Command,
        issuer: Issuer,
        now: Cycle,
    ) -> Result<DataReady, IssueError> {
        let bus_taken = match issuer {
            Issuer::Host => self.cmd_bus_busy(now),
            Issuer::Nda => self.ranks[cmd.rank].cmd_mux_busy(now),
        };
        if bus_taken {
            return Err(IssueError::CmdBusBusy);
        }
        self.state_ok(cmd)?;
        match self.ready_at(cmd, issuer) {
            Some(ready) if ready <= now => {}
            _ => return Err(IssueError::TooEarly),
        }
        Ok(self.apply(cmd, issuer, now))
    }

    /// Issue `cmd` when the caller has already established legality this
    /// cycle (via [`can_issue`](Self::can_issue) or an equivalent
    /// [`ready_at`](Self::ready_at) + mux check). Skips the re-validation
    /// on the hot path; debug builds still assert it.
    pub fn issue_prechecked(&mut self, cmd: &Command, issuer: Issuer, now: Cycle) -> DataReady {
        debug_assert!(
            self.can_issue(cmd, issuer, now),
            "issue_prechecked without a passing can_issue: {cmd:?} at {now}"
        );
        self.apply(cmd, issuer, now)
    }

    /// Unconditionally apply `cmd`'s state, timing, and statistics
    /// updates. Callers must have validated legality.
    fn apply(&mut self, cmd: &Command, issuer: Issuer, now: Cycle) -> DataReady {
        if let Some(t) = &mut self.trace {
            t.push((now, *cmd, issuer));
        }
        match issuer {
            Issuer::Host => {
                self.last_cmd_at = Some(now);
                self.ranks[cmd.rank].last_host_cmd_at = Some(now);
            }
            Issuer::Nda => self.ranks[cmd.rank].last_nda_cmd_at = Some(now),
        }
        // Epoch discipline: every command changes its own rank's timing or
        // bank state, so it bumps that rank's NDA epoch. Host column
        // commands also move other ranks' external-bus registers (and the
        // channel-wide `next_wr`), but an NDA access never reads those, so
        // other ranks' NDA epochs stay. Anything a memoized NDA
        // `(plan, ready_at)` could observe is covered by this bump — the
        // property tests in `tests/epoch_memo_props.rs` pin this down.
        self.ranks[cmd.rank].nda_epoch += 1;

        let t = self.config.timing;
        let host = issuer == Issuer::Host;
        let nranks = self.ranks.len();
        let mut data = DataReady::none();

        match cmd.kind {
            CommandKind::Act => {
                let rank = &mut self.ranks[cmd.rank];
                rank.record_act(now);
                rank.next_act = rank.next_act.max(now + Cycle::from(t.rrds));
                let bg = &mut self.bg_timing[cmd.rank * self.bankgroups + cmd.bankgroup];
                bg.next_act = bg.next_act.max(now + Cycle::from(t.rrdl));
                let idx = self.bank_idx(cmd.rank, cmd.bankgroup, cmd.bank);
                let b = &mut self.banks;
                b.do_activate(idx, cmd.row);
                b.next_rd[idx] = b.next_rd[idx].max(now + Cycle::from(t.rcd));
                b.next_wr[idx] = b.next_wr[idx].max(now + Cycle::from(t.rcd));
                b.next_pre[idx] = b.next_pre[idx].max(now + Cycle::from(t.ras));
                b.next_act[idx] = b.next_act[idx].max(now + Cycle::from(t.rc));
                self.stats.record_act(cmd.rank, issuer, now);
            }
            CommandKind::Pre => {
                let idx = self.bank_idx(cmd.rank, cmd.bankgroup, cmd.bank);
                let b = &mut self.banks;
                b.do_precharge(idx);
                b.next_act[idx] = b.next_act[idx].max(now + Cycle::from(t.rp));
                self.stats.record_row_cmd(cmd.rank, issuer, now);
            }
            CommandKind::PreAll => {
                let base = cmd.rank * self.banks_per_rank;
                let rp = now + Cycle::from(t.rp);
                for row in &mut self.banks.open_row[base..base + self.banks_per_rank] {
                    *row = CLOSED_ROW;
                }
                for na in &mut self.banks.next_act[base..base + self.banks_per_rank] {
                    *na = (*na).max(rp);
                }
                self.stats.record_row_cmd(cmd.rank, issuer, now);
            }
            CommandKind::Rd => {
                let start = now + Cycle::from(t.cl);
                let end = start + Cycle::from(t.bl);
                data = DataReady::burst(start, end);
                // Internal (die) constraints: shared by host and NDA.
                let rank = &mut self.ranks[cmd.rank];
                rank.next_rd = rank.next_rd.max(now + Cycle::from(t.ccds));
                // Read→write turnaround on the rank's I/O applies to any
                // later write to this rank, internal or external.
                rank.next_wr = rank.next_wr.max(now + Cycle::from(t.read_to_write()));
                let bg = &mut self.bg_timing[cmd.rank * self.bankgroups + cmd.bankgroup];
                bg.next_rd = bg.next_rd.max(now + Cycle::from(t.ccdl));
                let idx = self.bank_idx(cmd.rank, cmd.bankgroup, cmd.bank);
                let np = &mut self.banks.next_pre[idx];
                *np = (*np).max(now + Cycle::from(t.rtp));
                if host {
                    // External bus: channel-wide RD→WR and cross-rank
                    // hand-off for *host* column commands only.
                    self.next_wr = self.next_wr.max(now + Cycle::from(t.read_to_write()));
                    for r in 0..nranks {
                        if r != cmd.rank {
                            let other = &mut self.ranks[r];
                            other.ext_next_rd = other
                                .ext_next_rd
                                .max(now + Cycle::from(t.col_to_col_diff_rank()));
                        }
                    }
                }
                self.stats
                    .record_col(cmd.rank, issuer, false, start, end, now);
            }
            CommandKind::Wr => {
                let start = now + Cycle::from(t.cwl);
                let end = start + Cycle::from(t.bl);
                data = DataReady::burst(start, end);
                let rank = &mut self.ranks[cmd.rank];
                rank.next_wr = rank.next_wr.max(now + Cycle::from(t.ccds));
                // Write→read inside the rank pays tWTR regardless of who
                // reads next — this is the NDA-write interference the
                // paper's throttling mechanisms attack.
                rank.next_rd = rank
                    .next_rd
                    .max(now + Cycle::from(t.write_to_read_same_rank(false)));
                let bg = &mut self.bg_timing[cmd.rank * self.bankgroups + cmd.bankgroup];
                bg.next_wr = bg.next_wr.max(now + Cycle::from(t.ccdl));
                bg.next_rd = bg
                    .next_rd
                    .max(now + Cycle::from(t.write_to_read_same_rank(true)));
                let idx = self.bank_idx(cmd.rank, cmd.bankgroup, cmd.bank);
                let np = &mut self.banks.next_pre[idx];
                *np = (*np).max(now + Cycle::from(t.write_to_pre()));
                if host {
                    for r in 0..nranks {
                        if r != cmd.rank {
                            let other = &mut self.ranks[r];
                            other.ext_next_wr = other
                                .ext_next_wr
                                .max(now + Cycle::from(t.col_to_col_diff_rank()));
                            other.ext_next_rd = other
                                .ext_next_rd
                                .max(now + Cycle::from(t.write_to_read_diff_rank()));
                        }
                    }
                }
                self.stats
                    .record_col(cmd.rank, issuer, true, start, end, now);
            }
            CommandKind::RefAb => {
                let rank = &mut self.ranks[cmd.rank];
                let done = now + Cycle::from(t.rfc);
                rank.refresh_done_at = done;
                rank.next_act = rank.next_act.max(done);
                let base = cmd.rank * self.banks_per_rank;
                for na in &mut self.banks.next_act[base..base + self.banks_per_rank] {
                    *na = (*na).max(done);
                }
                rank.refreshes += 1;
                self.stats.record_refresh(cmd.rank, now, done);
            }
        }
        data
    }

    /// Check a restored channel against the geometry it was built for:
    /// rank, bank and bank-group counts, and tFAW windows no deeper than
    /// the hardware's four.
    ///
    /// # Errors
    ///
    /// [`CodecError::ConfigMismatch`] on a count mismatch,
    /// [`CodecError::Corrupt`] on an over-deep tFAW window.
    #[cold]
    pub fn validate(&self) -> Result<(), CodecError> {
        let nranks = self.config.ranks_per_channel;
        let nbanks = nranks * self.banks_per_rank;
        let b = &self.banks;
        let bank_regs = [&b.next_act, &b.next_pre, &b.next_rd, &b.next_wr];
        if self.ranks.len() != nranks
            || self.stats.ranks.len() != nranks
            || self.bg_timing.len() != nranks * self.bankgroups
            || b.open_row.len() != nbanks
            || bank_regs.iter().any(|v| v.len() != nbanks)
        {
            return Err(CodecError::ConfigMismatch);
        }
        let faw_ok = self.ranks.iter().all(|r| r.faw_window.len() <= 4);
        crate::codec::check(faw_ok, "tFAW window deeper than 4")
    }
}

// A snapshot restores into a channel freshly built for the same
// configuration: the config, geometry, and trace buffer are kept.
crate::codec! {
    in_place Channel {
        ranks,
        banks,
        bg_timing,
        next_wr,
        last_cmd_at: opt_cycle,
        stats,
        config: skip,
        banks_per_rank: skip,
        banks_per_group: skip,
        bankgroups: skip,
        bank_split: skip,
        trace: skip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn ch() -> Channel {
        Channel::new(&DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()))
    }

    fn t() -> TimingParams {
        TimingParams::ddr4_2400_no_refresh()
    }

    const H: Issuer = Issuer::Host;
    const N: Issuer = Issuer::Nda;

    #[test]
    fn act_to_rd_waits_trcd() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        let rd = Command::rd(0, 0, 0, 5, 0);
        assert!(!c.can_issue(&rd, H, Cycle::from(t().rcd) - 1));
        assert!(c.can_issue(&rd, H, Cycle::from(t().rcd)));
    }

    #[test]
    fn rd_needs_matching_open_row() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        let wrong = Command::rd(0, 0, 0, 6, 0);
        assert!(!c.can_issue(&wrong, H, 100));
        assert_eq!(c.issue(&wrong, H, 100), Err(IssueError::RowMismatch));
        let closed = Command::rd(0, 1, 0, 5, 0);
        assert_eq!(c.issue(&closed, H, 101), Err(IssueError::BankClosed));
    }

    #[test]
    fn bank_addressing_is_group_major() {
        let mut c = ch();
        c.issue(&Command::act(0, 3, 1, 5), H, 0).unwrap();
        assert_eq!(c.open_rows_of(0)[3 * 4 + 1], 5);
        assert_eq!(c.bank(0, 3, 1).open_row(), Some(5));
        assert!(!c.all_banks_closed(0));
        assert!(c.all_banks_closed(1));
    }

    #[test]
    fn geometry() {
        let c = Channel::new(&DramConfig::table_ii());
        assert_eq!(c.open_rows_of(0).len(), 16);
        assert!(c.open_rows_of(0).iter().all(|&r| r == CLOSED_ROW));
        assert!(c.all_banks_closed(0));
    }

    #[test]
    fn ccd_long_vs_short() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(0, 0, 1, 5), H, Cycle::from(t().rrdl))
            .unwrap();
        c.issue(&Command::act(0, 1, 0, 5), H, Cycle::from(t().rrdl) + 6)
            .unwrap();
        let start = 60;
        c.issue(&Command::rd(0, 0, 0, 5, 0), H, start).unwrap();
        let same_bg = Command::rd(0, 0, 1, 5, 0);
        assert!(!c.can_issue(&same_bg, H, start + Cycle::from(t().ccdl) - 1));
        assert!(c.can_issue(&same_bg, H, start + Cycle::from(t().ccdl)));
        let diff_bg = Command::rd(0, 1, 0, 5, 0);
        assert!(!c.can_issue(&diff_bg, H, start + Cycle::from(t().ccds) - 1));
        assert!(c.can_issue(&diff_bg, H, start + Cycle::from(t().ccds)));
    }

    #[test]
    fn write_to_read_turnaround_same_rank_binds_nda_too() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(0, 1, 0, 7), H, 4).unwrap();
        let wr_at = 60;
        // NDA write to rank 0...
        c.issue(&Command::wr(0, 0, 0, 5, 0), N, wr_at).unwrap();
        // ...delays a *host* read to the same rank by full tWTR_S.
        let rd = Command::rd(0, 1, 0, 7, 0);
        let earliest = wr_at + Cycle::from(t().write_to_read_same_rank(false));
        assert!(!c.can_issue(&rd, H, earliest - 1));
        assert!(c.can_issue(&rd, H, earliest));
    }

    #[test]
    fn nda_in_other_rank_ignores_host_bus_traffic() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(1, 0, 0, 7), H, 1).unwrap();
        let rd_at = 60;
        c.issue(&Command::rd(0, 0, 0, 5, 0), H, rd_at).unwrap();
        // A host read in the *other* rank pays tRTRS...
        let host_rd = Command::rd(1, 0, 0, 7, 0);
        assert!(!c.can_issue(&host_rd, H, rd_at + 1));
        // ...but the rank-1 NDA can read immediately: its data never
        // touches the channel bus. This is Chopim's parallelism.
        let nda_rd = Command::rd(1, 0, 0, 7, 0);
        assert!(c.can_issue(&nda_rd, N, rd_at + 1));
    }

    #[test]
    fn host_read_to_write_channel_turnaround_spares_nda() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(1, 0, 0, 7), H, 1).unwrap();
        let rd_at = 60;
        c.issue(&Command::rd(0, 0, 0, 5, 0), H, rd_at).unwrap();
        // Host write to the other rank pays the channel turnaround.
        let wr = Command::wr(1, 0, 0, 7, 0);
        let earliest = rd_at + Cycle::from(t().read_to_write());
        assert!(!c.can_issue(&wr, H, earliest - 1));
        assert!(c.can_issue(&wr, H, earliest));
        // The rank-1 NDA write is *not* bound by the channel turnaround.
        assert!(c.can_issue(&wr, N, rd_at + 1));
    }

    #[test]
    fn nda_write_then_host_read_other_rank_unaffected() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(1, 0, 0, 7), H, 1).unwrap();
        let wr_at = 60;
        c.issue(&Command::wr(0, 0, 0, 5, 0), N, wr_at).unwrap();
        // Host read to the *other* rank sees no penalty at all from the
        // NDA write (paper: only the written rank is blocked).
        assert!(c.can_issue(&Command::rd(1, 0, 0, 7, 0), H, wr_at + 1));
    }

    #[test]
    fn faw_blocks_fifth_activate() {
        let mut c = ch();
        let mut now = 0;
        for i in 0..4 {
            c.issue(&Command::act(0, i % 4, i / 4, 1), H, now).unwrap();
            now += Cycle::from(t().rrds);
        }
        let fifth = Command::act(0, 0, 1, 1);
        assert!(!c.can_issue(&fifth, H, now));
        assert!(c.can_issue(&fifth, H, Cycle::from(t().faw)));
    }

    #[test]
    fn one_host_command_per_cycle_but_nda_ranks_independent() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 1), H, 0).unwrap();
        let other = Command::act(1, 0, 0, 1);
        assert!(!c.can_issue(&other, H, 0));
        assert_eq!(c.issue(&other, H, 0), Err(IssueError::CmdBusBusy));
        // The rank-1 NDA controller may still command its own rank.
        assert!(c.can_issue(&other, N, 0));
        c.issue(&other, N, 0).unwrap();
        // But not twice in a cycle.
        assert!(!c.can_issue(&Command::pre(1, 0, 0), N, 0));
    }

    #[test]
    fn nda_yields_to_host_command_on_same_rank_same_cycle() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 1), H, 5).unwrap();
        assert!(!c.can_issue(&Command::act(0, 1, 0, 1), N, 5));
        // Next cycle the mux is free again (tRRD_S still applies).
        assert!(c.can_issue(&Command::act(0, 1, 0, 1), N, 5 + Cycle::from(t().rrds)));
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut c = Channel::new(&DramConfig::table_ii());
        c.issue(&Command::ref_ab(0), H, 0).unwrap();
        assert!(c.rank(0).refreshing(10));
        let act = Command::act(0, 0, 0, 1);
        assert!(!c.can_issue(&act, H, Cycle::from(t().rfc) - 1));
        assert!(c.can_issue(&act, H, Cycle::from(t().rfc)));
        let mut c2 = Channel::new(&DramConfig::table_ii());
        c2.issue(&Command::act(0, 0, 0, 1), H, 0).unwrap();
        assert_eq!(
            c2.issue(&Command::ref_ab(0), H, 1000),
            Err(IssueError::BankOpen)
        );
    }

    #[test]
    fn precharge_then_activate_waits_trp() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 1), H, 0).unwrap();
        let pre_at = Cycle::from(t().ras);
        c.issue(&Command::pre(0, 0, 0), H, pre_at).unwrap();
        let act2 = Command::act(0, 0, 0, 2);
        assert!(!c.can_issue(&act2, H, pre_at + Cycle::from(t().rp) - 1));
        assert!(c.can_issue(&act2, H, pre_at + Cycle::from(t().rp)));
    }

    #[test]
    fn read_data_timing() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 1), H, 0).unwrap();
        let d = c.issue(&Command::rd(0, 0, 0, 1, 0), H, 20).unwrap();
        assert_eq!(d.start, Some(20 + Cycle::from(t().cl)));
        assert_eq!(d.end, Some(20 + Cycle::from(t().cl) + Cycle::from(t().bl)));
    }

    #[test]
    fn nda_read_then_host_write_same_rank_pays_turnaround() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        c.issue(&Command::act(0, 1, 0, 7), H, 4).unwrap();
        let rd_at = 60;
        c.issue(&Command::rd(0, 0, 0, 5, 0), N, rd_at).unwrap();
        let wr = Command::wr(0, 1, 0, 7, 0);
        let earliest = rd_at + Cycle::from(t().read_to_write());
        assert!(!c.can_issue(&wr, H, earliest - 1));
        assert!(c.can_issue(&wr, H, earliest));
    }

    #[test]
    fn plan_and_ready_matches_plan_plus_ready_at() {
        let mut c = ch();
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        for (row, write) in [(5, false), (5, true), (9, false)] {
            let (cmd, ready) = c.plan_and_ready(0, 0, row, 3, write, H);
            assert_eq!(cmd, c.plan_access(0, 0, 0, row, 3, write));
            assert_eq!(Some(ready), c.ready_at(&cmd, H));
        }
        // Closed banks plan an ACT, at the flat bank's (group, bank).
        let per_group = c.config().banks_per_group;
        for flat in 0..c.config().banks_per_rank() {
            let (cmd, _) = c.plan_and_ready(1, flat, 7, 0, false, N);
            assert_eq!(cmd, Command::act(1, flat / per_group, flat % per_group, 7));
        }
    }

    #[test]
    fn nda_epochs_bump_own_rank_only() {
        let mut c = ch();
        let e0 = c.rank_nda_epoch(0);
        let e1 = c.rank_nda_epoch(1);
        // Row command: own rank only.
        c.issue(&Command::act(0, 0, 0, 5), H, 0).unwrap();
        assert_eq!(c.rank_nda_epoch(0), e0 + 1);
        assert_eq!(c.rank_nda_epoch(1), e1);
        // NDA column: own rank only (no external-bus side effects).
        c.issue(&Command::act(1, 0, 0, 7), N, 1).unwrap();
        let (e0, e1) = (c.rank_nda_epoch(0), c.rank_nda_epoch(1));
        c.issue(&Command::rd(1, 0, 0, 7, 0), N, 40).unwrap();
        assert_eq!(c.rank_nda_epoch(0), e0);
        assert_eq!(c.rank_nda_epoch(1), e1 + 1);
        // Host column: own rank only — the external-bus registers it
        // moves on other ranks never reach an NDA access.
        let (e0, e1) = (c.rank_nda_epoch(0), c.rank_nda_epoch(1));
        c.issue(&Command::rd(0, 0, 0, 5, 0), H, 60).unwrap();
        assert_eq!(c.rank_nda_epoch(0), e0 + 1);
        assert_eq!(c.rank_nda_epoch(1), e1);
    }
}
