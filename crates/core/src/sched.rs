//! The host-side per-channel memory controller: FR-FCFS scheduling \[70\]
//! with 32-entry read/write queues, open-page policy, write-drain
//! watermarks, and refresh management (Table II).
//!
//! ## Planning on the busy path
//!
//! The controller is evaluated every DRAM cycle that the wake-up hint
//! below does not let the caller skip. Each scan plans every entry it
//! looks at fresh, from one fused
//! [`plan_kind_and_ready`](Channel::plan_kind_and_ready) call (the next
//! command kind and its ready cycle in one bank-state lookup), and answers
//! the FR-FCFS keep-open guard ("does anything in the served queue still
//! want this open row?") by scanning that queue: both queues hold at most
//! 32 entries. The one cache kept is the oldest-read rank, which every
//! NDA offer reads and which would otherwise scan past every queued
//! launch write. The property tests in `tests/sched_equiv_props.rs` pin
//! the fused one-pass scan and the wake-up hint against a two-pass naive
//! oracle.
//!
//! ## The wake-up hint
//!
//! A tick that issues nothing has just looked at every command that could
//! issue, so it caches the earliest cycle any of them becomes ready (see
//! [`tick`](HostMc::tick)). Until then every tick is a no-op, and the
//! fast-forward loop skips it; the channel shard's event horizon reads
//! the same hint. The hint is dropped by the controller's own issue and
//! by an NDA row command on the channel, and every push
//! ([`try_push`](HostMc::try_push), the only way in) lowers it to the
//! new transaction's ready time (or drops it when the push will latch
//! the write drain). No other scan derives wake-ups, and nothing
//! throttles how often a tick refreshes the hint.

use std::cell::Cell;
use std::collections::VecDeque;

use chopim_dram::codec::{check, CodecError};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::{
    Channel, Command, CommandKind, Cycle, DataReady, DramAddress, Issuer, CLOSED_ROW,
};

/// Transaction scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served \[70\] (the paper's scheduler).
    #[default]
    FrFcfs,
    /// Strict in-order FCFS (ablation baseline).
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open until a conflict (the paper's policy).
    #[default]
    Open,
    /// Eagerly close rows with no pending hits (ablation baseline).
    Closed,
}

/// Who a transaction belongs to (for completion routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxMeta {
    /// An LLC miss read; the fill goes back to `core` request `req`.
    CoreRead {
        /// Core index.
        core: usize,
        /// Core-local request id.
        req: u64,
    },
    /// A dirty writeback (posted; no completion routing).
    CoreWrite,
    /// An NDA launch-packet write to a rank's control registers.
    Launch {
        /// Launch id assigned by the system.
        launch: u64,
    },
}

/// One memory transaction queued at the controller.
#[derive(Debug, Clone, Copy)]
pub struct HostTransaction {
    /// Pre-mapped DRAM coordinate.
    pub addr: DramAddress,
    /// True for writes (including launch packets).
    pub is_write: bool,
    /// Completion routing.
    pub meta: TxMeta,
    /// Arrival cycle (for FCFS age and latency stats).
    pub arrival: Cycle,
}

/// The outcome of one scheduler tick.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// The command placed on the channel.
    pub cmd: Command,
    /// Data-burst interval for column commands.
    pub data: DataReady,
    /// The transaction completed by this command (column commands only).
    pub completed: Option<HostTransaction>,
}

impl HostTransaction {
    /// The command this transaction needs next (RD/WR on a row hit, PRE
    /// on a conflict, ACT on a closed bank) and the earliest cycle it
    /// satisfies every timing constraint.
    #[inline]
    fn plan(&self, ch: &Channel) -> (CommandKind, Cycle) {
        let a = &self.addr;
        ch.plan_kind_and_ready(
            a.rank,
            a.bankgroup,
            a.bank,
            a.row,
            self.is_write,
            Issuer::Host,
        )
    }

    /// The full command of a planned `kind`.
    #[inline]
    fn cmd(&self, kind: CommandKind) -> Command {
        let a = &self.addr;
        match kind {
            CommandKind::Rd => Command::rd(a.rank, a.bankgroup, a.bank, a.row, a.col),
            CommandKind::Wr => Command::wr(a.rank, a.bankgroup, a.bank, a.row, a.col),
            CommandKind::Pre => Command::pre(a.rank, a.bankgroup, a.bank),
            _ => Command::act(a.rank, a.bankgroup, a.bank, a.row),
        }
    }

    /// `(core, request id)` when this is a core read.
    pub(crate) fn core_read(&self) -> Option<(usize, u64)> {
        match self.meta {
            TxMeta::CoreRead { core, req } => Some((core, req)),
            _ => None,
        }
    }
}

chopim_dram::codec! {
    enum TxMeta {
        0 => CoreRead { core, req },
        1 => CoreWrite,
        2 => Launch { launch },
    }
}

chopim_dram::codec! { HostTransaction { addr, is_write, meta, arrival } }

/// True when some transaction in `q` targets exactly `(rank, bankgroup,
/// bank, row)`.
fn wants(
    q: &VecDeque<HostTransaction>,
    rank: usize,
    bankgroup: usize,
    bank: usize,
    row: u32,
) -> bool {
    q.iter().any(|t| {
        let a = &t.addr;
        a.rank == rank && a.bankgroup == bankgroup && a.bank == bank && a.row == row
    })
}

/// Per-channel FR-FCFS host memory controller.
#[derive(Debug, Clone)]
pub struct HostMc {
    read_q: VecDeque<HostTransaction>,
    write_q: VecDeque<HostTransaction>,
    read_cap: usize,
    write_cap: usize,
    drain: bool,
    drain_hi: usize,
    drain_lo: usize,
    refresh_due: Vec<Cycle>,
    refresh_pending: Vec<bool>,
    bankgroups: usize,
    banks_per_group: usize,
    scheduler: SchedulerKind,
    page_policy: PagePolicy,
    /// Cached "rank of the oldest queued read" (`None` = recompute); the
    /// inner value is the predictor answer itself. Invalidated on every
    /// read-queue mutation.
    oldest_read: Cell<Option<Option<usize>>>,
    /// Wake-up cached by the last tick that issued nothing: no command
    /// can issue before this cycle. Dropped when the inputs change — any
    /// command issues, (by the caller) an NDA row command lands on this
    /// channel, or a push latches the write drain — and lowered by other
    /// pushes.
    wake_hint: Option<Cycle>,
    /// Column commands issued.
    pub cols_issued: u64,
    /// ACTs issued on behalf of transactions (row misses).
    pub row_misses: u64,
    /// Sum of read latencies (arrival → data end), for averages.
    pub read_latency_sum: u64,
    /// Reads completed.
    pub reads_completed: u64,
}

impl HostMc {
    /// A controller with Table II queue sizes (32/32). The controller is
    /// channel-agnostic: it drives whatever [`Channel`] the caller hands
    /// to [`tick`](Self::tick) (in the sharded engine, the one its shard
    /// owns).
    pub fn new(ranks: usize, bankgroups: usize, banks_per_group: usize, refi: u32) -> Self {
        // Stagger refresh across ranks to avoid synchronized blackouts.
        let refresh_due = (0..ranks)
            .map(|r| {
                if refi == 0 {
                    Cycle::MAX
                } else {
                    Cycle::from(refi) * (r as u64 + 1) / ranks as u64
                }
            })
            .collect();
        Self {
            read_q: VecDeque::with_capacity(32),
            write_q: VecDeque::with_capacity(32),
            read_cap: 32,
            write_cap: 32,
            drain: false,
            drain_hi: 28,
            drain_lo: 8,
            refresh_due,
            refresh_pending: vec![false; ranks],
            bankgroups,
            banks_per_group,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicy::Open,
            oldest_read: Cell::new(None),
            wake_hint: None,
            cols_issued: 0,
            row_misses: 0,
            read_latency_sum: 0,
            reads_completed: 0,
        }
    }

    /// Select the scheduling discipline (ablation studies).
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.scheduler = kind;
    }

    /// Select the row-buffer policy (ablation studies).
    pub fn set_page_policy(&mut self, policy: PagePolicy) {
        self.page_policy = policy;
    }

    /// Queue a transaction arriving at `now`.
    ///
    /// Launch packets and reads share the read queue (control writes are
    /// latency sensitive); core writebacks use the write queue. Returns
    /// `false` when the target queue is full.
    ///
    /// A live wake-up hint is lowered to the new transaction's own ready
    /// time on `ch` — the only way one arrival can make the controller
    /// actionable earlier. The exception is a write that fills the write
    /// queue to the drain watermark: the next tick latches the drain and
    /// serves writes, which the hint may not have covered, so the hint is
    /// dropped.
    pub fn try_push(&mut self, tx: HostTransaction, ch: &Channel, now: Cycle) -> bool {
        let use_write_q = matches!(tx.meta, TxMeta::CoreWrite);
        let (q, cap) = if use_write_q {
            (&mut self.write_q, self.write_cap)
        } else {
            (&mut self.read_q, self.read_cap)
        };
        if q.len() >= cap {
            return false;
        }
        q.push_back(tx);
        if !use_write_q {
            self.oldest_read.set(None);
        }
        if use_write_q && !self.drain && self.write_q.len() >= self.drain_hi {
            self.wake_hint = None;
        } else if let Some(h) = self.wake_hint {
            if h > now {
                self.wake_hint = Some(h.min(tx.plan(ch).1.max(now)));
            }
        }
        true
    }

    /// Drop the cached wake-up because an NDA commanded this channel (its
    /// rank timing registers or bank state changed under us).
    pub fn invalidate_wake_hint(&mut self) {
        self.wake_hint = None;
    }

    /// The cached wake-up, if any. While `now < wake_hint` a whole
    /// [`tick`](Self::tick) is provably a no-op (nothing can issue, no
    /// refresh timer fires, no latched flag transitions), so the caller
    /// may skip it. `None` means the next tick must run.
    pub fn wake_hint(&self) -> Option<Cycle> {
        self.wake_hint
    }

    /// Occupancy of the read queue.
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Occupancy of the write queue.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// True when both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// The rank targeted by the oldest queued host *read* — the next-rank
    /// predictor's input (paper §III-B). Cached; recomputed only after a
    /// read-queue mutation.
    pub fn oldest_read_rank(&self) -> Option<usize> {
        if let Some(ans) = self.oldest_read.get() {
            return ans;
        }
        let ans = self
            .read_q
            .iter()
            .find(|tx| !tx.is_write)
            .map(|tx| tx.addr.rank);
        self.oldest_read.set(Some(ans));
        ans
    }

    /// Column commands that hit an already-open row (columns minus ACTs).
    pub fn row_hits(&self) -> u64 {
        self.cols_issued.saturating_sub(self.row_misses)
    }

    /// Dump queue entries with bank state and readiness (debugging aid):
    /// each entry prints the command it needs next and that command's
    /// ready cycle, as the scheduler's scan plans them.
    pub fn explain(&self, ch: &Channel, now: Cycle) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drain={} refpend={:?} refdue={:?} now={now}",
            self.drain, self.refresh_pending, self.refresh_due
        );
        for (name, q) in [("R", &self.read_q), ("W", &self.write_q)] {
            for tx in q {
                let a = &tx.addr;
                let (kind, ready) = tx.plan(ch);
                let _ = writeln!(
                    out,
                    "{name} {} arrival={} open={:?} ready={ready}",
                    tx.cmd(kind),
                    tx.arrival,
                    ch.bank(a.rank, a.bankgroup, a.bank).open_row(),
                );
            }
        }
        out
    }

    /// One scheduler tick: issue at most one command on the channel.
    ///
    /// A tick that issues nothing caches as [`wake_hint`](Self::wake_hint)
    /// the earliest cycle any command could issue, taken from the scan it
    /// just made: pending refreshes' REF/PREA ready times, armed refresh
    /// timers, closed-page precharge candidates, and the planned ready
    /// time of every transaction the FR-FCFS passes looked at. Entries on
    /// ranks awaiting refresh, and ready precharges the keep-open guard
    /// vetoes, are left out: only an issue, an NDA row command or a push
    /// can change them, and each of those drops or lowers the hint.
    pub fn tick(&mut self, ch: &mut Channel, now: Cycle) -> Option<Issued> {
        let mut wake = Cycle::MAX;
        let issued = self.tick_inner(ch, now, &mut wake);
        self.wake_hint = match issued {
            Some(_) => None,
            None => {
                perfcount::bump(Counter::HorizonScans);
                if ch.cmd_bus_busy(now) {
                    // Another host command took the bus this cycle.
                    Some(now + 1)
                } else {
                    debug_assert!(wake > now, "a ready command did not issue");
                    Some(wake)
                }
            }
        };
        issued
    }

    fn tick_inner(&mut self, ch: &mut Channel, now: Cycle, wake: &mut Cycle) -> Option<Issued> {
        // 1. Refresh management: an armed timer fires at its due cycle; a
        // pending refresh issues REF (or precharges toward it) when timing
        // allows.
        for rank in 0..self.refresh_due.len() {
            if now >= self.refresh_due[rank] {
                self.refresh_pending[rank] = true;
            }
        }
        for rank in 0..self.refresh_pending.len() {
            if !self.refresh_pending[rank] {
                *wake = (*wake).min(self.refresh_due[rank]);
                continue;
            }
            let all_closed = ch.all_banks_closed(rank);
            let cmd = if all_closed {
                Command::ref_ab(rank)
            } else {
                Command::pre_all(rank)
            };
            match ch.ready_at(&cmd, Issuer::Host) {
                Some(ready) if ready <= now && !ch.cmd_bus_busy(now) => {
                    let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
                    if all_closed {
                        self.refresh_pending[rank] = false;
                        self.refresh_due[rank] += Cycle::from(ch.config().timing.refi);
                    }
                    return Some(Issued {
                        cmd,
                        data,
                        completed: None,
                    });
                }
                Some(ready) => *wake = (*wake).min(ready),
                None => {}
            }
            // Rank is blocked preparing refresh; don't schedule new work
            // to it below (handled by the skip in candidate passes).
        }

        // 1b. Closed-page policy: eagerly precharge host-opened rows with
        // no pending hit in either queue.
        if self.page_policy == PagePolicy::Closed {
            if let Some(iss) = self.eager_close(ch, now, wake) {
                return Some(iss);
            }
        }

        // 2. Write-drain hysteresis.
        if self.write_q.len() >= self.drain_hi {
            self.drain = true;
        } else if self.write_q.len() <= self.drain_lo {
            self.drain = false;
        }
        let serve_writes = self.drain || self.read_q.is_empty();

        // 3. FR-FCFS over the selected queue.
        let result = if serve_writes && !self.write_q.is_empty() {
            self.schedule(ch, now, true, wake)
        } else {
            self.schedule(ch, now, false, wake)
        };
        // Opportunistic fallback: if the chosen queue couldn't issue and
        // the other has work, let it try (keeps the channel busy).
        match result {
            Some(r) => Some(r),
            None if serve_writes && !self.read_q.is_empty() => self.schedule(ch, now, false, wake),
            None => None,
        }
    }

    /// Precharge one bank whose open row no queued transaction wants.
    /// Folds the ready time of every candidate that cannot issue yet into
    /// `wake`.
    fn eager_close(&mut self, ch: &mut Channel, now: Cycle, wake: &mut Cycle) -> Option<Issued> {
        let ranks = ch.config().ranks_per_channel;
        for rank in 0..ranks {
            let mut found: Option<Command> = None;
            for (flat, &open) in ch.open_rows_of(rank).iter().enumerate() {
                if open == CLOSED_ROW {
                    continue;
                }
                let (bg, bank) = (flat / self.banks_per_group, flat % self.banks_per_group);
                if wants(&self.read_q, rank, bg, bank, open)
                    || wants(&self.write_q, rank, bg, bank, open)
                {
                    continue;
                }
                let cmd = Command::pre(rank, bg, bank);
                match ch.ready_at(&cmd, Issuer::Host) {
                    Some(ready) if ready <= now && !ch.cmd_bus_busy(now) => {
                        found = Some(cmd);
                        break;
                    }
                    Some(ready) => *wake = (*wake).min(ready),
                    None => {}
                }
            }
            if let Some(cmd) = found {
                let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
                return Some(Issued {
                    cmd,
                    data,
                    completed: None,
                });
            }
        }
        None
    }

    /// One FR-FCFS pass over the read or write queue. Folds the ready
    /// time of every scanned transaction that cannot issue yet into
    /// `wake`.
    fn schedule(
        &mut self,
        ch: &mut Channel,
        now: Cycle,
        writes: bool,
        wake: &mut Cycle,
    ) -> Option<Issued> {
        let q = if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        if q.is_empty() {
            return None;
        }
        // Host commands share the external C/A bus: when it already
        // carried one this cycle nothing below can issue (identical to
        // the per-candidate `can_issue` answers, checked once).
        if ch.cmd_bus_busy(now) {
            return None;
        }
        perfcount::bump(Counter::SchedPasses);
        // One fused scan implements both FR-FCFS passes: a row *hit*
        // anywhere in the horizon beats a row command (ACT/PRE) earlier in
        // it, so the scan runs in age order remembering the first ready
        // row command and stops at the first ready hit. A transaction
        // whose plan is a column command *is* a row hit, so each entry
        // costs one plan. Strict FCFS only ever looks at the queue head.
        let horizon = match self.scheduler {
            SchedulerKind::FrFcfs => q.len(),
            SchedulerKind::Fcfs => 1,
        };
        let any_refresh = self.refresh_pending.iter().any(|&p| p);
        let mut hit: Option<(usize, CommandKind)> = None;
        // First age-ordered ready row command (`is_act` distinguishes ACT
        // from PRE for the miss statistics). A conflicting row is only
        // precharged when no other transaction *in the served queue*
        // still hits it (considering the other queue here can deadlock:
        // reads would defer to a write hit that is never served while
        // reads are pending). Strict FCFS sees only the queue head, which
        // — being the conflicting transaction itself — never holds its
        // own row open.
        let mut row_pick: Option<(Command, bool)> = None;
        for (i, tx) in q.iter().take(horizon).enumerate() {
            perfcount::bump(Counter::SchedEntriesScanned);
            let a = &tx.addr;
            if any_refresh && self.refresh_pending[a.rank] {
                continue;
            }
            let (kind, ready) = tx.plan(ch);
            if ready > now {
                *wake = (*wake).min(ready);
                continue;
            }
            match kind {
                CommandKind::Rd | CommandKind::Wr => {
                    hit = Some((i, kind));
                    break;
                }
                CommandKind::Act => {
                    if row_pick.is_none() {
                        row_pick = Some((tx.cmd(kind), true));
                    }
                }
                CommandKind::Pre => {
                    if row_pick.is_none() {
                        let open = ch
                            .bank(a.rank, a.bankgroup, a.bank)
                            .open_row()
                            .expect("conflict implies open row");
                        if !(self.scheduler == SchedulerKind::FrFcfs
                            && wants(q, a.rank, a.bankgroup, a.bank, open))
                        {
                            row_pick = Some((tx.cmd(kind), false));
                        }
                    }
                }
                _ => unreachable!("plan is always ACT/PRE/RD/WR"),
            }
        }
        if let Some((i, kind)) = hit {
            let tx = q.remove(i).expect("index valid");
            if !writes {
                self.oldest_read.set(None);
            }
            let cmd = tx.cmd(kind);
            let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
            self.cols_issued += 1;
            if !tx.is_write {
                self.reads_completed += 1;
                self.read_latency_sum += data.end.expect("read burst") - tx.arrival;
            }
            return Some(Issued {
                cmd,
                data,
                completed: Some(tx),
            });
        }
        if let Some((cmd, is_act)) = row_pick {
            let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
            if is_act {
                self.row_misses += 1;
            }
            return Some(Issued {
                cmd,
                data,
                completed: None,
            });
        }
        None
    }

    // ---- snapshot support -----------------------------------------------

    /// Check restored state against this controller's geometry and queue
    /// capacities.
    #[cold]
    pub(crate) fn validate(&self) -> Result<(), CodecError> {
        let ranks = self.refresh_pending.len();
        for (q, cap, writes) in [
            (&self.read_q, self.read_cap, false),
            (&self.write_q, self.write_cap, true),
        ] {
            check(q.len() <= cap, "MC queue over capacity")?;
            for tx in q {
                let a = &tx.addr;
                let in_geometry = a.rank < ranks
                    && a.bankgroup < self.bankgroups
                    && a.bank < self.banks_per_group;
                check(in_geometry, "MC transaction address out of range")?;
                let is_write = matches!(tx.meta, TxMeta::CoreWrite);
                check(is_write == writes, "transaction in wrong MC queue")?;
            }
        }
        if self.refresh_due.len() != ranks {
            return Err(CodecError::ConfigMismatch);
        }
        Ok(())
    }

    /// Launch ids of the control-register writes still queued (resume
    /// validation counts them against their launch records).
    #[cold]
    pub(crate) fn queued_launch_writes(&self) -> impl Iterator<Item = u64> + '_ {
        self.read_q
            .iter()
            .chain(&self.write_q)
            .filter_map(|tx| match tx.meta {
                TxMeta::Launch { launch } => Some(launch),
                _ => None,
            })
    }

    /// The `(core, request id)` of every queued core read (resume
    /// validation pairs them with the cores' unfilled misses).
    #[cold]
    pub(crate) fn queued_core_reads(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.read_q
            .iter()
            .chain(&self.write_q)
            .filter_map(HostTransaction::core_read)
    }
}

// Construction-time configuration is not stored; `validate` checks the
// restored queues against it. Neither are the two caches: a restored
// controller recomputes the oldest read on first use, and with no wake-up
// its first tick runs and caches a fresh one.
chopim_dram::codec! {
    in_place(pub(crate)) HostMc {
        read_q,
        write_q,
        drain,
        refresh_due,
        refresh_pending: each,
        cols_issued,
        row_misses,
        read_latency_sum,
        reads_completed,
        read_cap: skip,
        write_cap: skip,
        drain_hi: skip,
        drain_lo: skip,
        bankgroups: skip,
        banks_per_group: skip,
        scheduler: skip,
        page_policy: skip,
        oldest_read: skip,
        wake_hint: skip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopim_dram::{DramConfig, TimingParams};

    fn setup() -> (Channel, HostMc) {
        let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
        let mc = HostMc::new(
            cfg.ranks_per_channel,
            cfg.bankgroups,
            cfg.banks_per_group,
            cfg.timing.refi,
        );
        (Channel::new(&cfg), mc)
    }

    fn read_tx(
        rank: usize,
        bg: usize,
        bank: usize,
        row: u32,
        col: u32,
        at: Cycle,
    ) -> HostTransaction {
        HostTransaction {
            addr: DramAddress {
                channel: 0,
                rank,
                bankgroup: bg,
                bank,
                row,
                col,
            },
            is_write: false,
            meta: TxMeta::CoreRead { core: 0, req: 0 },
            arrival: at,
        }
    }

    fn write_tx(rank: usize, row: u32, col: u32, at: Cycle) -> HostTransaction {
        HostTransaction {
            addr: DramAddress {
                channel: 0,
                rank,
                bankgroup: 0,
                bank: 0,
                row,
                col,
            },
            is_write: true,
            meta: TxMeta::CoreWrite,
            arrival: at,
        }
    }

    /// Drive until `n` transactions complete or `max` cycles pass.
    fn run(ch: &mut Channel, mc: &mut HostMc, n: usize, max: Cycle) -> Vec<(Cycle, Command)> {
        let mut done = 0;
        let mut cmds = Vec::new();
        for now in 0..max {
            if let Some(iss) = mc.tick(ch, now) {
                cmds.push((now, iss.cmd));
                if iss.completed.is_some() {
                    done += 1;
                    if done == n {
                        break;
                    }
                }
            }
        }
        assert_eq!(done, n, "only {done}/{n} completed; cmds={}", cmds.len());
        cmds
    }

    #[test]
    fn row_hits_are_preferred() {
        let (mut ch, mut mc) = setup();
        // Two txs to row 5, one to row 9, same bank. FR-FCFS serves both
        // row-5 txs before touching row 9 even though row 9's arrived
        // between them.
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 0, 0), &ch, 0));
        assert!(mc.try_push(read_tx(0, 0, 0, 9, 0, 1), &ch, 0));
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 1, 2), &ch, 0));
        let cmds = run(&mut ch, &mut mc, 3, 1000);
        let cols: Vec<u32> = cmds
            .iter()
            .filter(|(_, c)| c.kind == CommandKind::Rd)
            .map(|(_, c)| c.row)
            .collect();
        assert_eq!(cols, vec![5, 5, 9]);
        assert_eq!(mc.row_hits(), 1, "second row-5 access is the hit");
        assert_eq!(mc.row_misses, 2);
    }

    #[test]
    fn write_drain_kicks_in_at_watermark() {
        let (mut ch, mut mc) = setup();
        // Fill write queue past the high watermark plus one read.
        for i in 0..30u32 {
            assert!(mc.try_push(write_tx(0, i / 16, i % 16, 0), &ch, 0));
        }
        assert!(mc.try_push(read_tx(1, 0, 0, 1, 0, 0), &ch, 0));
        let mut writes_done = 0;
        for now in 0..5000 {
            if let Some(iss) = mc.tick(&mut ch, now) {
                if let Some(tx) = iss.completed {
                    if tx.is_write {
                        writes_done += 1;
                    }
                }
            }
            if mc.write_queue_len() <= 8 {
                break;
            }
        }
        assert!(writes_done >= 30 - 8, "drained {writes_done}");
    }

    #[test]
    fn queue_capacity_enforced() {
        let (ch, mut mc) = setup();
        for i in 0..32 {
            assert!(mc.try_push(read_tx(0, 0, 0, i, 0, 0), &ch, 0));
        }
        assert!(!mc.try_push(read_tx(0, 0, 0, 99, 0, 0), &ch, 0));
        // Write queue is separate.
        assert!(mc.try_push(write_tx(0, 0, 0, 0), &ch, 0));
    }

    #[test]
    fn oldest_read_rank_skips_launches_and_writes() {
        let (ch, mut mc) = setup();
        let launch = HostTransaction {
            addr: DramAddress {
                channel: 0,
                rank: 0,
                ..Default::default()
            },
            is_write: true,
            meta: TxMeta::Launch { launch: 0 },
            arrival: 0,
        };
        assert!(mc.try_push(launch, &ch, 0));
        assert_eq!(mc.oldest_read_rank(), None);
        assert!(mc.try_push(read_tx(1, 0, 0, 5, 0, 1), &ch, 0));
        assert_eq!(mc.oldest_read_rank(), Some(1));
    }

    #[test]
    fn explain_shows_the_command_each_entry_needs_next() {
        let (mut ch, mut mc) = setup();
        ch.issue(&Command::act(0, 0, 0, 5), Issuer::Host, 0)
            .expect("ACT to a closed bank");
        assert!(mc.try_push(read_tx(0, 1, 0, 7, 2, 0), &ch, 0));
        assert!(mc.try_push(read_tx(0, 0, 0, 9, 3, 1), &ch, 0));
        let dump = mc.explain(&ch, 1);
        let entries: Vec<&str> = dump.lines().skip(1).collect();
        assert_eq!(entries.len(), 2, "{dump}");
        let ready_of = |line: &str| -> Option<Cycle> {
            let (_, ready) = line.split_once("ready=")?;
            ready.parse().ok()
        };
        // A closed bank: the read needs an ACT first.
        assert!(entries[0].starts_with("R ACT  r0 bg1 b0 row7 "), "{dump}");
        assert!(entries[0].contains("open=None"), "{dump}");
        let act = Command::act(0, 1, 0, 7);
        assert_eq!(ready_of(entries[0]), ch.ready_at(&act, Issuer::Host));
        // Row 5 is open in the target bank: the read needs a PRE.
        assert!(entries[1].starts_with("R PRE  r0 bg0 b0 "), "{dump}");
        assert!(entries[1].contains("open=Some(5)"), "{dump}");
        let pre = Command::pre(0, 0, 0);
        assert_eq!(ready_of(entries[1]), ch.ready_at(&pre, Issuer::Host));
    }

    #[test]
    fn refresh_is_scheduled_periodically() {
        let cfg = DramConfig::table_ii(); // refresh on
        let mut ch = Channel::new(&cfg);
        let mut mc = HostMc::new(
            cfg.ranks_per_channel,
            cfg.bankgroups,
            cfg.banks_per_group,
            cfg.timing.refi,
        );
        // Keep a stream of reads flowing while refreshes must interleave.
        let mut refreshes = 0;
        for now in 0..40_000u64 {
            if mc.read_queue_len() < 4 {
                let row = (now / 100) as u32 % 8;
                mc.try_push(read_tx(0, (now % 4) as usize, 0, row, 0, now), &ch, now);
            }
            if let Some(iss) = mc.tick(&mut ch, now) {
                if iss.cmd.kind == CommandKind::RefAb {
                    refreshes += 1;
                }
            }
        }
        // 40k cycles / tREFI 9360 ≈ 4 refreshes per rank x 2 ranks.
        assert!(refreshes >= 6, "only {refreshes} refreshes");
        assert!(ch.stats.ranks.iter().map(|r| r.refreshes).sum::<u64>() >= 6);
    }

    #[test]
    fn read_latency_accounting() {
        let (mut ch, mut mc) = setup();
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0), &ch, 0);
        run(&mut ch, &mut mc, 1, 200);
        assert_eq!(mc.reads_completed, 1);
        // ACT at 0, RD at tRCD=16, data end at 16+16+4=36.
        assert_eq!(mc.read_latency_sum, 36);
    }

    #[test]
    fn fcfs_serves_strictly_in_order() {
        let (mut ch, mut mc) = setup();
        mc.set_scheduler(SchedulerKind::Fcfs);
        // Row-hit reordering would serve the second row-5 access early;
        // FCFS must not.
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 0, 0), &ch, 0));
        assert!(mc.try_push(read_tx(0, 0, 0, 9, 0, 1), &ch, 0));
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 1, 2), &ch, 0));
        let cmds = run(&mut ch, &mut mc, 3, 2000);
        let rows: Vec<u32> = cmds
            .iter()
            .filter(|(_, c)| c.kind == CommandKind::Rd)
            .map(|(_, c)| c.row)
            .collect();
        assert_eq!(rows, vec![5, 9, 5], "FCFS must preserve arrival order");
    }

    #[test]
    fn closed_page_policy_precharges_idle_rows() {
        let (mut ch, mut mc) = setup();
        mc.set_page_policy(PagePolicy::Closed);
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0), &ch, 0);
        run(&mut ch, &mut mc, 1, 500);
        // With no pending work, the opened row gets closed eagerly.
        let mut closed = false;
        for now in 500..2000 {
            if let Some(iss) = mc.tick(&mut ch, now) {
                if iss.cmd.kind == CommandKind::Pre {
                    closed = true;
                    break;
                }
            }
        }
        assert!(closed, "closed-page policy must precharge the idle row");
        assert!(ch.all_banks_closed(0));
    }

    #[test]
    fn does_not_precharge_rows_with_pending_hits() {
        let (mut ch, mut mc) = setup();
        // Oldest wants row 9 (conflict with open row 5), but a younger tx
        // still wants row 5: the controller must not close row 5 first.
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0), &ch, 0);
        let cmds = run(&mut ch, &mut mc, 1, 200);
        assert_eq!(cmds.last().unwrap().1.kind, CommandKind::Rd);
        mc.try_push(read_tx(0, 0, 0, 9, 0, 10), &ch, 0);
        mc.try_push(read_tx(0, 0, 0, 5, 3, 11), &ch, 0);
        let cmds = run(&mut ch, &mut mc, 2, 1000);
        // The row-5 hit completes before any precharge of row 5.
        let first_pre = cmds.iter().position(|(_, c)| c.kind == CommandKind::Pre);
        let row5_rd = cmds
            .iter()
            .position(|(_, c)| c.kind == CommandKind::Rd && c.row == 5)
            .expect("row-5 read");
        if let Some(p) = first_pre {
            assert!(row5_rd < p, "hit should complete before precharge");
        }
    }
}
