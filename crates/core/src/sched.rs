//! The host-side per-channel memory controller: FR-FCFS scheduling \[70\]
//! with 32-entry read/write queues, open-page policy, write-drain
//! watermarks, and refresh management (Table II).
//!
//! ## Busy-path indexes and memos
//!
//! The controller is evaluated every DRAM cycle while the machine is
//! busy, so its per-cycle cost must scale with *state changes*, not with
//! `queue length x bank count`. Two structures make that true, both
//! updated incrementally and both invisible in behavior (the property
//! tests in `tests/sched_equiv_props.rs` assert the indexed decisions
//! equal a naive full-scan oracle):
//!
//! * **Queue indexes** (`QueueIndex`, one per queue): per-(rank,bank)
//!   occupancy counters and an open-row *demand map* counting queued
//!   transactions per `(bank, row)`. Updated on every push and pop.
//!   Invariants (checked by [`HostMc::assert_index_invariants`]):
//!   `occ[slot]` equals the number of queued transactions targeting flat
//!   bank `slot`; `demand[(slot, row)]` equals the number of queued
//!   transactions targeting exactly `(slot, row)`, with absent keys
//!   meaning zero. Together they answer "does anything still want this
//!   open row?" in O(1) (occupancy zero-test first, then one map probe)
//!   — the FR-FCFS precharge guard and `eager_close` used to rescan
//!   both queues per bank for this. The oldest-read predictor keeps a
//!   cache invalidated by the same push/pop hooks.
//!
//! * **Epoch memos** (per queued transaction): the planned next command
//!   and its `ready_at`, keyed on the target rank's
//!   [`state epoch`](chopim_dram::Rank::epoch). The device model bumps a
//!   rank's epoch exactly when its `plan_access`/`ready_at` answers may
//!   change, so a transaction on an untouched rank is judged from two
//!   integer compares instead of a full timing recomputation. The memo is
//!   also what makes [`next_event_cycle`](HostMc::next_event_cycle) cheap
//!   enough to call after every idle tick.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Epoch sentinel marking a memo as never computed / stale.
const MEMO_INVALID: u64 = u64::MAX;

/// A queued transaction plus its epoch-keyed timing memo. The memo keeps
/// only the planned command *kind* — the full command is reconstructed
/// from the transaction on the rare issue path, keeping the entry small
/// for the per-cycle scans.
#[derive(Debug, Clone, Copy)]
struct QTx {
    tx: HostTransaction,
    /// Flat bank slot: `rank * banks_per_rank + bankgroup *
    /// banks_per_group + bank`.
    slot: u32,
    /// Rank epoch under which `memo_kind`/`memo_ready` are exact
    /// ([`MEMO_INVALID`] = must recompute).
    memo_epoch: u64,
    /// Planned next command kind (hit → RD/WR, conflict → PRE, closed →
    /// ACT).
    memo_kind: CommandKind,
    /// Earliest cycle the planned command satisfies every timing
    /// constraint.
    memo_ready: Cycle,
}

impl QTx {
    fn new(tx: HostTransaction, slot: u32) -> Self {
        Self {
            tx,
            slot,
            memo_epoch: MEMO_INVALID,
            memo_kind: CommandKind::Pre,
            memo_ready: 0,
        }
    }

    /// Refresh the memo if the target rank moved since it was computed
    /// (`epoch` is the rank's current epoch, hoisted by the caller).
    #[inline]
    fn ensure_memo_at(&mut self, ch: &Channel, epoch: u64) {
        if self.memo_epoch == epoch {
            perfcount::bump(Counter::SchedMemoHit);
            return;
        }
        perfcount::bump(Counter::SchedMemoMiss);
        let (kind, ready) = ch.plan_kind_and_ready(
            self.tx.addr.rank,
            self.tx.addr.bankgroup,
            self.tx.addr.bank,
            self.tx.addr.row,
            self.tx.is_write,
            Issuer::Host,
        );
        self.memo_kind = kind;
        self.memo_ready = ready;
        self.memo_epoch = epoch;
    }

    /// Refresh the memo, reading the rank epoch itself.
    #[inline]
    fn ensure_memo(&mut self, ch: &Channel) {
        self.ensure_memo_at(ch, ch.rank_epoch(self.tx.addr.rank));
    }

    /// Materialize the memoized plan as a full command.
    #[inline]
    fn memo_cmd(&self) -> Command {
        let a = &self.tx.addr;
        match self.memo_kind {
            CommandKind::Rd => Command::rd(a.rank, a.bankgroup, a.bank, a.row, a.col),
            CommandKind::Wr => Command::wr(a.rank, a.bankgroup, a.bank, a.row, a.col),
            CommandKind::Pre => Command::pre(a.rank, a.bankgroup, a.bank),
            _ => Command::act(a.rank, a.bankgroup, a.bank, a.row),
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

// Queue entries carry their epoch memos verbatim: memos are a pure cache,
// but re-deriving them on resume would perturb the memo hit/miss perf
// counters, and keeping them costs a few bytes. `slot` is derived from
// the address and rebuilt with the queue indexes.
chopim_dram::codec! {
    QTx {
        tx,
        memo_epoch: fixed,
        memo_kind,
        memo_ready,
        slot: skip,
    }
}

/// Multiply-xor hasher for the demand map's already-mixed `u64` keys
/// (avoids SipHash on the per-push/pop hot path).
#[derive(Default)]
struct SlotRowHasher(u64);

impl Hasher for SlotRowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

// chopim-lint: allow(determinism) -- keyed probes and len() only, never iterated; the custom hasher keeps lookups O(1) on the command-issue path
type DemandMap = HashMap<u64, u32, BuildHasherDefault<SlotRowHasher>>;

/// Incrementally maintained per-(rank,bank) aggregates for one queue.
#[derive(Debug, Clone, Default)]
struct QueueIndex {
    /// `(slot << 32) | row` → number of queued transactions to that row.
    demand: DemandMap,
    /// Queued transactions per flat bank slot — the zero test
    /// short-circuits the demand-map probe for banks nothing targets.
    occ: Vec<u32>,
}

impl QueueIndex {
    fn new(ranks: usize, banks_per_rank: usize, queue_cap: usize) -> Self {
        // Live entries never exceed the queue capacity (one key per
        // queued transaction), but push/pop churn leaves tombstones that
        // hashbrown periodically cleans up. Reserving 4x the live bound
        // keeps every such cleanup an in-place rehash — the map never
        // touches the allocator after construction.
        Self {
            demand: DemandMap::with_capacity_and_hasher(4 * queue_cap, Default::default()),
            occ: vec![0; ranks * banks_per_rank],
        }
    }

    #[inline]
    fn key(slot: u32, row: u32) -> u64 {
        (u64::from(slot) << 32) | u64::from(row)
    }

    #[inline]
    fn on_push(&mut self, slot: u32, row: u32) {
        *self.demand.entry(Self::key(slot, row)).or_insert(0) += 1;
        self.occ[slot as usize] += 1;
    }

    #[inline]
    fn on_pop(&mut self, slot: u32, row: u32) {
        match self.demand.entry(Self::key(slot, row)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => {
                unreachable!("pop of unindexed transaction")
            }
        }
        self.occ[slot as usize] -= 1;
    }

    /// True when some queued transaction targets exactly `(slot, row)`.
    /// The occupancy counter answers the common all-clear case without
    /// touching the map.
    #[inline]
    fn wants(&self, slot: u32, row: u32) -> bool {
        self.occ[slot as usize] > 0 && self.demand.contains_key(&Self::key(slot, row))
    }
}

/// Per-channel FR-FCFS host memory controller.
#[derive(Debug, Clone)]
pub struct HostMc {
    read_q: VecDeque<QTx>,
    write_q: VecDeque<QTx>,
    read_idx: QueueIndex,
    write_idx: QueueIndex,
    read_cap: usize,
    write_cap: usize,
    drain: bool,
    drain_hi: usize,
    drain_lo: usize,
    refresh_due: Vec<Cycle>,
    refresh_pending: Vec<bool>,
    banks_per_group: usize,
    banks_per_rank: usize,
    scheduler: SchedulerKind,
    page_policy: PagePolicy,
    /// Cached "rank of the oldest queued read" (`None` = recompute); the
    /// inner value is the predictor answer itself. Invalidated on every
    /// read-queue mutation.
    oldest_read: Cell<Option<Option<usize>>>,
    /// Cached wake-up from [`next_event_cycle`](Self::next_event_cycle):
    /// no command can issue before this cycle. Invalidated whenever the
    /// inputs change — a transaction arrives, any command issues, a
    /// refresh timer fires, or (by the caller) an NDA commands this
    /// channel.
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
        let banks_per_rank = bankgroups * banks_per_group;
        Self {
            read_q: VecDeque::with_capacity(32),
            write_q: VecDeque::with_capacity(32),
            read_idx: QueueIndex::new(ranks, banks_per_rank, 32),
            write_idx: QueueIndex::new(ranks, banks_per_rank, 32),
            read_cap: 32,
            write_cap: 32,
            drain: false,
            drain_hi: 28,
            drain_lo: 8,
            refresh_due,
            refresh_pending: vec![false; ranks],
            banks_per_group,
            banks_per_rank,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicy::Open,
            oldest_read: Cell::new(Some(None)),
            wake_hint: None,
            cols_issued: 0,
            row_misses: 0,
            read_latency_sum: 0,
            reads_completed: 0,
        }
    }

    /// Override the write-drain watermarks (ablation studies).
    pub fn set_drain_watermarks(&mut self, hi: usize, lo: usize) {
        assert!(lo < hi && hi <= self.write_cap, "lo < hi <= capacity");
        self.drain_hi = hi;
        self.drain_lo = lo;
    }

    /// Select the scheduling discipline (ablation studies).
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.scheduler = kind;
    }

    /// Select the row-buffer policy (ablation studies).
    pub fn set_page_policy(&mut self, policy: PagePolicy) {
        self.page_policy = policy;
    }

    #[inline]
    fn slot_of(&self, a: &DramAddress) -> u32 {
        (a.rank * self.banks_per_rank + a.bankgroup * self.banks_per_group + a.bank) as u32
    }

    /// Queue a transaction.
    ///
    /// Launch packets and reads share the read queue (control writes are
    /// latency sensitive); core writebacks use the write queue. Returns
    /// `false` when the target queue is full.
    pub fn try_push(&mut self, tx: HostTransaction) -> bool {
        if !self.push_inner(tx) {
            return false;
        }
        self.wake_hint = None;
        true
    }

    /// [`try_push`](Self::try_push), but instead of dropping the cached
    /// wake-up it lowers it to the new transaction's own ready time — the
    /// only way one arrival can make the controller actionable earlier.
    /// (Deferred drain-flag latching stays exact: the flag can only
    /// matter on a cycle that issues, and the hint proves none can.)
    pub fn try_push_hinted(&mut self, tx: HostTransaction, ch: &Channel, now: Cycle) -> bool {
        if !self.push_inner(tx) {
            return false;
        }
        // Pre-fill the freshly pushed entry's memo: the push already
        // tells us the scheduler will need its plan, and the hint (when
        // live) needs its ready time anyway.
        let use_write_q = matches!(tx.meta, TxMeta::CoreWrite);
        let entry = if use_write_q {
            self.write_q.back_mut()
        } else {
            self.read_q.back_mut()
        }
        .expect("just pushed");
        entry.ensure_memo(ch);
        if let Some(h) = self.wake_hint {
            if h > now {
                let ready = entry.memo_ready.max(now);
                self.wake_hint = Some(h.min(ready));
            }
        }
        true
    }

    /// The shared admission rule: queue selection + capacity + enqueue +
    /// index maintenance.
    fn push_inner(&mut self, tx: HostTransaction) -> bool {
        let use_write_q = matches!(tx.meta, TxMeta::CoreWrite);
        let (q, idx, cap) = if use_write_q {
            (&mut self.write_q, &mut self.write_idx, self.write_cap)
        } else {
            (&mut self.read_q, &mut self.read_idx, self.read_cap)
        };
        if q.len() >= cap {
            return false;
        }
        let slot = (tx.addr.rank * self.banks_per_rank
            + tx.addr.bankgroup * self.banks_per_group
            + tx.addr.bank) as u32;
        idx.on_push(slot, tx.addr.row);
        q.push_back(QTx::new(tx, slot));
        if !use_write_q {
            self.oldest_read.set(None);
        }
        true
    }

    /// Remove entry `i` from a queue, maintaining the indexes.
    fn remove_at(&mut self, writes: bool, i: usize) -> HostTransaction {
        let (q, idx) = if writes {
            (&mut self.write_q, &mut self.write_idx)
        } else {
            (&mut self.read_q, &mut self.read_idx)
        };
        let e = q.remove(i).expect("index valid");
        idx.on_pop(e.slot, e.tx.addr.row);
        if !writes {
            self.oldest_read.set(None);
        }
        e.tx
    }

    /// Drop the cached wake-up because an NDA commanded this channel (its
    /// rank timing registers or bank state changed under us).
    pub fn invalidate_wake_hint(&mut self) {
        self.wake_hint = None;
    }

    /// The cached wake-up, if any. While `now < wake_hint` a whole
    /// [`tick`](Self::tick) is provably a no-op (nothing can issue, no
    /// refresh timer fires, no latched flag transitions — all of those
    /// invalidate the hint), so the caller may skip it.
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
            .find(|e| !e.tx.is_write)
            .map(|e| e.tx.addr.rank);
        self.oldest_read.set(Some(ans));
        ans
    }

    /// Column commands that hit an already-open row (columns minus ACTs).
    pub fn row_hits(&self) -> u64 {
        self.cols_issued.saturating_sub(self.row_misses)
    }

    /// Validate every index invariant against a full queue recount
    /// (test/debug aid; O(queue x banks)).
    #[doc(hidden)]
    pub fn assert_index_invariants(&self) {
        for (q, idx) in [
            (&self.read_q, &self.read_idx),
            (&self.write_q, &self.write_idx),
        ] {
            let mut demand: BTreeMap<u64, u32> = BTreeMap::new();
            let mut occ = vec![0u32; idx.occ.len()];
            for e in q {
                let slot = self.slot_of(&e.tx.addr);
                assert_eq!(slot, e.slot, "stale slot");
                *demand
                    .entry(QueueIndex::key(slot, e.tx.addr.row))
                    .or_insert(0) += 1;
                occ[slot as usize] += 1;
            }
            assert_eq!(occ, idx.occ, "occupancy counters diverged");
            assert_eq!(demand.len(), idx.demand.len(), "demand key sets diverged");
            for (k, v) in &demand {
                assert_eq!(idx.demand.get(k), Some(v), "demand count diverged");
            }
        }
        if let Some(cached) = self.oldest_read.get() {
            let fresh = self
                .read_q
                .iter()
                .find(|e| !e.tx.is_write)
                .map(|e| e.tx.addr.rank);
            assert_eq!(cached, fresh, "oldest-read cache diverged");
        }
    }

    /// Dump queue entries with bank state and readiness (debugging aid).
    pub fn explain(&self, ch: &Channel, now: Cycle) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drain={} refpend={:?} refdue={:?} now={now}",
            self.drain, self.refresh_pending, self.refresh_due
        );
        for (name, q) in [("R", &self.read_q), ("W", &self.write_q)] {
            for e in q.iter() {
                let tx = &e.tx;
                let (bg, bk) = (tx.addr.bankgroup, tx.addr.bank);
                let bank = ch.bank(tx.addr.rank, bg, bk);
                let cmd = if tx.is_write {
                    Command::wr(tx.addr.rank, bg, bk, tx.addr.row, tx.addr.col)
                } else {
                    Command::rd(tx.addr.rank, bg, bk, tx.addr.row, tx.addr.col)
                };
                let _ = writeln!(
                    out,
                    "{name} {} arrival={} open={:?} ready={:?}",
                    cmd,
                    tx.arrival,
                    bank.open_row(),
                    ch.ready_at(&cmd, Issuer::Host),
                );
            }
        }
        out
    }

    /// Conservative earliest cycle at or after `now` at which this
    /// controller could issue any command, assuming no new transactions
    /// arrive and no other agent touches the memory system first (either
    /// would be an event that re-computes horizons). Used by the
    /// event-horizon fast-forward; a too-early answer only costs a wasted
    /// wake-up, never correctness.
    pub fn next_event_cycle(&mut self, ch: &Channel, now: Cycle) -> Cycle {
        // The write-drain hysteresis flag latches once per executed tick;
        // if the queue length already crossed a watermark, the flag flips
        // on the very next tick and that transition must not be skipped.
        if (self.drain && self.write_q.len() <= self.drain_lo)
            || (!self.drain && self.write_q.len() >= self.drain_hi)
        {
            return now;
        }
        if let Some(h) = self.wake_hint {
            if h > now {
                return h;
            }
        }
        perfcount::bump(Counter::HorizonScans);
        let mut h = Cycle::MAX;
        // Refresh: an armed timer fires at its due cycle; a pending
        // refresh issues REF (or precharges toward it) when timing allows.
        if ch.config().timing.refresh_enabled() {
            for rank in 0..self.refresh_due.len() {
                if self.refresh_pending[rank] {
                    let cmd = if ch.all_banks_closed(rank) {
                        Command::ref_ab(rank)
                    } else {
                        Command::pre_all(rank)
                    };
                    if let Some(r) = ch.ready_at(&cmd, Issuer::Host) {
                        h = h.min(r);
                    }
                } else {
                    h = h.min(self.refresh_due[rank]);
                }
            }
        }
        // Closed-page policy: an open row with no queued hit is eagerly
        // precharged; any open bank is a conservative wake-up candidate.
        if self.page_policy == PagePolicy::Closed {
            for rank in 0..ch.config().ranks_per_channel {
                for (flat, &row) in ch.open_rows_of(rank).iter().enumerate() {
                    if row != CLOSED_ROW {
                        let cmd = Command::pre(
                            rank,
                            flat / self.banks_per_group,
                            flat % self.banks_per_group,
                        );
                        if let Some(r) = ch.ready_at(&cmd, Issuer::Host) {
                            h = h.min(r);
                        }
                    }
                }
            }
        }
        // Queued transactions: earliest cycle the next command of any
        // transaction satisfies timing (ranks preparing a refresh are
        // skipped by the scheduler until the refresh issues, which is an
        // event of its own).
        for e in self.read_q.iter_mut().chain(self.write_q.iter_mut()) {
            if self.refresh_pending[e.tx.addr.rank] {
                continue;
            }
            e.ensure_memo(ch);
            h = h.min(e.memo_ready);
            if h <= now {
                return now;
            }
        }
        let h = h.max(now);
        self.wake_hint = Some(h);
        h
    }

    /// One scheduler tick: issue at most one command on the channel.
    pub fn tick(&mut self, ch: &mut Channel, now: Cycle) -> Option<Issued> {
        let issued = self.tick_inner(ch, now);
        if issued.is_some() {
            // Any issued command changes timing/bank state.
            self.wake_hint = None;
        }
        issued
    }

    fn tick_inner(&mut self, ch: &mut Channel, now: Cycle) -> Option<Issued> {
        // 1. Refresh management.
        for rank in 0..self.refresh_due.len() {
            if now >= self.refresh_due[rank] && !self.refresh_pending[rank] {
                self.refresh_pending[rank] = true;
                // Pending refresh changes what the scheduler may do.
                self.wake_hint = None;
            }
        }
        for rank in 0..self.refresh_pending.len() {
            if !self.refresh_pending[rank] {
                continue;
            }
            let refi = Cycle::from(ch.config().timing.refi);
            if ch.all_banks_closed(rank) {
                let cmd = Command::ref_ab(rank);
                if ch.can_issue(&cmd, Issuer::Host, now) {
                    let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
                    self.refresh_pending[rank] = false;
                    self.refresh_due[rank] += refi;
                    return Some(Issued {
                        cmd,
                        data,
                        completed: None,
                    });
                }
            } else {
                let cmd = Command::pre_all(rank);
                if ch.can_issue(&cmd, Issuer::Host, now) {
                    let data = ch.issue_prechecked(&cmd, Issuer::Host, now);
                    return Some(Issued {
                        cmd,
                        data,
                        completed: None,
                    });
                }
            }
            // Rank is blocked preparing refresh; don't schedule new work
            // to it below (handled by the skip in candidate passes).
        }

        // 1b. Closed-page policy: eagerly precharge host-opened rows with
        // no pending hit in either queue.
        if self.page_policy == PagePolicy::Closed {
            if let Some(iss) = self.eager_close(ch, now) {
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
            self.schedule(ch, now, true)
        } else {
            self.schedule(ch, now, false)
        };
        // Opportunistic fallback: if the chosen queue couldn't issue and
        // the other has work, let it try (keeps the channel busy).
        match result {
            Some(r) => Some(r),
            None if serve_writes && !self.read_q.is_empty() => self.schedule(ch, now, false),
            None => None,
        }
    }

    /// Precharge one bank whose open row no queued transaction wants.
    /// The demand maps answer "is this row still wanted?" in O(1).
    fn eager_close(&mut self, ch: &mut Channel, now: Cycle) -> Option<Issued> {
        let ranks = ch.config().ranks_per_channel;
        for rank in 0..ranks {
            let mut found: Option<Command> = None;
            for (flat, &open) in ch.open_rows_of(rank).iter().enumerate() {
                if open == CLOSED_ROW {
                    continue;
                }
                let slot = (rank * self.banks_per_rank + flat) as u32;
                if self.read_idx.wants(slot, open) || self.write_idx.wants(slot, open) {
                    continue;
                }
                let cmd = Command::pre(
                    rank,
                    flat / self.banks_per_group,
                    flat % self.banks_per_group,
                );
                if ch.can_issue(&cmd, Issuer::Host, now) {
                    found = Some(cmd);
                    break;
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

    fn schedule(&mut self, ch: &mut Channel, now: Cycle, writes: bool) -> Option<Issued> {
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
        // whose memoized plan is a column command *is* a row hit, so each
        // entry costs two integer compares while its target rank is
        // unchanged. Strict FCFS only ever looks at the queue head.
        let horizon = match self.scheduler {
            SchedulerKind::FrFcfs => q.len(),
            SchedulerKind::Fcfs => 1,
        };
        let idx = if writes {
            &self.write_idx
        } else {
            &self.read_idx
        };
        let any_refresh = self.refresh_pending.iter().any(|&p| p);
        let mut hit_idx: Option<usize> = None;
        // First age-ordered ready row command (`is_act` distinguishes ACT
        // from PRE for the miss statistics). A conflicting row is only
        // precharged when no other transaction *in the served queue*
        // still hits it (the demand map answers that in O(1); considering
        // the other queue here can deadlock: reads would defer to a write
        // hit that is never served while reads are pending). Strict FCFS
        // sees only the queue head, which — being the conflicting
        // transaction itself — never holds its own row open.
        let mut row_pick: Option<(Command, bool)> = None;
        for (i, e) in q.iter_mut().take(horizon).enumerate() {
            perfcount::bump(Counter::SchedEntriesScanned);
            if any_refresh && self.refresh_pending[e.tx.addr.rank] {
                continue;
            }
            e.ensure_memo_at(ch, ch.rank_epoch(e.tx.addr.rank));
            match e.memo_kind {
                CommandKind::Rd | CommandKind::Wr => {
                    if e.memo_ready <= now {
                        hit_idx = Some(i);
                        break;
                    }
                }
                CommandKind::Act => {
                    if row_pick.is_none() && e.memo_ready <= now {
                        row_pick = Some((e.memo_cmd(), true));
                    }
                }
                CommandKind::Pre => {
                    if row_pick.is_none() && e.memo_ready <= now {
                        let open = ch
                            .bank(e.tx.addr.rank, e.tx.addr.bankgroup, e.tx.addr.bank)
                            .open_row()
                            .expect("conflict implies open row");
                        if !(self.scheduler == SchedulerKind::FrFcfs && idx.wants(e.slot, open)) {
                            row_pick = Some((e.memo_cmd(), false));
                        }
                    }
                }
                _ => unreachable!("plan is always ACT/PRE/RD/WR"),
            }
        }
        if let Some(i) = hit_idx {
            let cmd = q[i].memo_cmd();
            let tx = self.remove_at(writes, i);
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
    /// capacities, and every queued read's core index against `n_cores`.
    #[cold]
    pub(crate) fn validate(&self, n_cores: usize) -> Result<(), CodecError> {
        let ranks = self.refresh_pending.len();
        let bankgroups = self.banks_per_rank / self.banks_per_group;
        for (q, cap, writes) in [
            (&self.read_q, self.read_cap, false),
            (&self.write_q, self.write_cap, true),
        ] {
            check(q.len() <= cap, "MC queue over capacity")?;
            for e in q {
                let a = &e.tx.addr;
                let in_geometry =
                    a.rank < ranks && a.bankgroup < bankgroups && a.bank < self.banks_per_group;
                check(in_geometry, "MC transaction address out of range")?;
                let is_write = matches!(e.tx.meta, TxMeta::CoreWrite);
                check(is_write == writes, "transaction in wrong MC queue")?;
                check(tx_core_ok(&e.tx, n_cores), "read core out of range")?;
            }
        }
        if self.refresh_due.len() != ranks {
            return Err(CodecError::ConfigMismatch);
        }
        let oldest_ok = !matches!(self.oldest_read.get(), Some(Some(rank)) if rank >= ranks);
        check(oldest_ok, "oldest-read rank out of range")
    }

    /// Launch ids of the control-register writes still queued (resume
    /// validation counts them against their launch records).
    #[cold]
    pub(crate) fn queued_launch_writes(&self) -> impl Iterator<Item = u64> + '_ {
        self.read_q
            .iter()
            .chain(&self.write_q)
            .filter_map(|e| match e.tx.meta {
                TxMeta::Launch { launch } => Some(launch),
                _ => None,
            })
    }

    /// Rebuild the derived state a snapshot does not carry — each queued
    /// entry's bank slot and both queue indexes — after [`validate`](Self::validate).
    #[cold]
    pub(crate) fn rebuild_indexes(&mut self) {
        let (bpr, bpg) = (self.banks_per_rank, self.banks_per_group);
        for (q, idx) in [
            (&mut self.read_q, &mut self.read_idx),
            (&mut self.write_q, &mut self.write_idx),
        ] {
            idx.demand.clear();
            idx.occ.fill(0);
            for e in q.iter_mut() {
                let a = &e.tx.addr;
                e.slot = (a.rank * bpr + a.bankgroup * bpg + a.bank) as u32;
                idx.on_push(e.slot, a.row);
            }
        }
    }
}

/// True when a transaction's fill target (if any) is a real core.
#[cold]
pub(crate) fn tx_core_ok(tx: &HostTransaction, n_cores: usize) -> bool {
    !matches!(tx.meta, TxMeta::CoreRead { core, .. } if core >= n_cores)
}

// The derived queue indexes and construction-time configuration are not
// stored; `validate` and `rebuild_indexes` finish the restore.
chopim_dram::codec! {
    in_place(pub(crate)) HostMc {
        read_q,
        write_q,
        drain,
        refresh_due,
        refresh_pending: each,
        oldest_read: tri,
        wake_hint: opt_cycle,
        cols_issued,
        row_misses,
        read_latency_sum,
        reads_completed,
        read_idx: skip,
        write_idx: skip,
        read_cap: skip,
        write_cap: skip,
        drain_hi: skip,
        drain_lo: skip,
        banks_per_group: skip,
        banks_per_rank: skip,
        scheduler: skip,
        page_policy: skip,
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
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 0, 0)));
        assert!(mc.try_push(read_tx(0, 0, 0, 9, 0, 1)));
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 1, 2)));
        let cmds = run(&mut ch, &mut mc, 3, 1000);
        let cols: Vec<u32> = cmds
            .iter()
            .filter(|(_, c)| c.kind == CommandKind::Rd)
            .map(|(_, c)| c.row)
            .collect();
        assert_eq!(cols, vec![5, 5, 9]);
        assert_eq!(mc.row_hits(), 1, "second row-5 access is the hit");
        assert_eq!(mc.row_misses, 2);
        mc.assert_index_invariants();
    }

    #[test]
    fn write_drain_kicks_in_at_watermark() {
        let (mut ch, mut mc) = setup();
        // Fill write queue past the high watermark plus one read.
        for i in 0..30u32 {
            assert!(mc.try_push(write_tx(0, i / 16, i % 16, 0)));
        }
        assert!(mc.try_push(read_tx(1, 0, 0, 1, 0, 0)));
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
        mc.assert_index_invariants();
    }

    #[test]
    fn queue_capacity_enforced() {
        let (_, mut mc) = setup();
        for i in 0..32 {
            assert!(mc.try_push(read_tx(0, 0, 0, i, 0, 0)));
        }
        assert!(!mc.try_push(read_tx(0, 0, 0, 99, 0, 0)));
        // Write queue is separate.
        assert!(mc.try_push(write_tx(0, 0, 0, 0)));
        mc.assert_index_invariants();
    }

    #[test]
    fn oldest_read_rank_skips_launches_and_writes() {
        let (_, mut mc) = setup();
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
        assert!(mc.try_push(launch));
        assert_eq!(mc.oldest_read_rank(), None);
        assert!(mc.try_push(read_tx(1, 0, 0, 5, 0, 1)));
        assert_eq!(mc.oldest_read_rank(), Some(1));
        mc.assert_index_invariants();
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
                mc.try_push(read_tx(0, (now % 4) as usize, 0, row, 0, now));
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
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0));
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
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 0, 0)));
        assert!(mc.try_push(read_tx(0, 0, 0, 9, 0, 1)));
        assert!(mc.try_push(read_tx(0, 0, 0, 5, 1, 2)));
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
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0));
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
        mc.try_push(read_tx(0, 0, 0, 5, 0, 0));
        let cmds = run(&mut ch, &mut mc, 1, 200);
        assert_eq!(cmds.last().unwrap().1.kind, CommandKind::Rd);
        mc.try_push(read_tx(0, 0, 0, 9, 0, 10));
        mc.try_push(read_tx(0, 0, 0, 5, 3, 11));
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
