//! One channel's simulation shard: the unit of parallelism of the
//! channel-sharded engine.
//!
//! A [`ChannelShard`] owns everything that lives behind one memory
//! channel — the [`Channel`] device state, the host-side [`HostMc`], the
//! per-rank [`NdaRankController`]s with their host-side shadow FSMs, the
//! in-flight launch records, and the shard's half of every cross-boundary
//! queue. Nothing inside a shard ever references another shard or the
//! front-end: all traffic in and out is typed, cycle-stamped messages
//! ([`ShardInbound`] arriving, fill/completion messages leaving), which is
//! what makes the conservative-lookahead parallel executor deterministic —
//! a shard ticking cycles `[T, T+W)` can only observe messages stamped
//! before `T+W`, all of which were produced before the window began.
//!
//! The shard also owns its slice of the event-horizon fast-forward state:
//! within a window it skips provably idle stretches exactly as the
//! monolithic engine did globally (same horizon rules, same bulk stall
//! accounting, same periodic replicated-FSM checks), so
//! `fast_forward = false` remains the naive cycle-by-cycle reference and
//! the lockstep suites keep their bit-identity contract.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use chopim_dram::codec::{check, CodecError};
use chopim_dram::fault::{stream, FaultPlan};
use chopim_dram::stats::ChannelStats;
use chopim_dram::{Channel, CommandKind, Cycle, DramConfig};
use chopim_nda::controller::{NdaRankController, NdaTickResult};
use chopim_nda::fsm::NdaFsm;
use chopim_nda::isa::NdaInstr;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exchange::{
    CompletionMsg, FillMsg, FlatFifo, ShardInbound, COMPLETION_FAILED, COMPLETION_OK,
    COMPLETION_RANK_DEAD,
};
use crate::policy::WriteIssuePolicy;
use crate::sched::{HostMc, Issued, PagePolicy, SchedulerKind, TxMeta};

/// The configuration slice a shard needs (copied at construction so the
/// shard is self-contained and `Send`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardParams {
    /// NDA write-issue policy.
    pub policy: WriteIssuePolicy,
    /// Event-horizon fast-forwarding within windows (off = naive loop).
    pub fast_forward: bool,
    /// Periodic replicated-FSM equality assertions.
    pub verify_fsm: bool,
    /// Packetized return-path serialization added to fill delivery.
    pub packetized_latency: Cycle,
    /// NDA completion → host-visible delivery latency (the status-poll
    /// pipeline depth; also the shard→front-end lookahead floor).
    pub completion_latency: Cycle,
    /// Record launch deliveries and completions into the shard's event
    /// logs (trace capture; the DRAM command stream is recorded by the
    /// channel's own trace buffer).
    pub record_events: bool,
    /// Deterministic fault-injection plan (empty = zero overhead).
    pub faults: FaultPlan,
}

/// Per-shard fault-injection state: the event counters the counter-based
/// fault streams draw on, per-NDA poison/death flags, and the injected
/// fault counters surfaced through `FaultReport`. Every mutation sits
/// behind the single `active` test, so an empty plan costs one branch
/// per event and nothing else.
#[derive(Debug)]
struct FaultState {
    /// `!plan.is_empty()` — the one branch the zero-overhead path pays.
    active: bool,
    /// Shard-local index of the rank the plan kills, when it lives here.
    death_local: Option<usize>,
    death_processed: bool,
    /// Column reads performed on this channel (bit-flip stream key).
    col_reads: u64,
    /// NDA instructions retired (transient/hang stream key).
    instrs_retired: u64,
    /// Completion messages sent (drop/delay stream key).
    completions_sent: u64,
    /// Per-NDA: an uncorrectable read poisons the next retirement.
    poisoned: Vec<bool>,
    /// Per-NDA: permanently dead (launches fail immediately).
    dead: Vec<bool>,
    transient_faults: u64,
    fsm_hangs: u64,
    completions_dropped: u64,
    completions_delayed: u64,
    rank_deaths: u64,
}

impl FaultState {
    /// Draw the bit-flip/ECC streams for one column read. An
    /// uncorrectable flip on an NDA read poisons `poison`'s next
    /// retirement; host reads are counted only.
    #[cold]
    fn col_read(
        &mut self,
        plan: &FaultPlan,
        channel_idx: usize,
        stats: &mut ChannelStats,
        poison: Option<usize>,
    ) {
        let ch = channel_idx as u64;
        let n = self.col_reads;
        self.col_reads += 1;
        if plan.fires(plan.dram_bit_flip_period, ch, stream::BIT_FLIP, n) {
            if plan.uncorrectable(ch, n) {
                stats.ecc_uncorrectable += 1;
                if let Some(i) = poison {
                    self.poisoned[i] = true;
                }
            } else {
                stats.ecc_corrected += 1;
            }
        }
    }

    /// Draw the transient/hang/drop/delay streams for one retirement.
    /// Returns `false` when the completion message is dropped in
    /// transit; otherwise `deliver`/`status` carry any injected delay
    /// and failure.
    #[cold]
    fn retire(
        &mut self,
        plan: &FaultPlan,
        channel_idx: usize,
        nda: usize,
        deliver: &mut Cycle,
        status: &mut u8,
    ) -> bool {
        let ch = channel_idx as u64;
        let n = self.instrs_retired;
        self.instrs_retired += 1;
        if self.poisoned[nda] {
            self.poisoned[nda] = false;
            *status = COMPLETION_FAILED;
        } else if plan.fires(plan.nda_transient_period, ch, stream::TRANSIENT, n) {
            self.transient_faults += 1;
            *status = COMPLETION_FAILED;
        }
        if plan.fires(plan.nda_hang_period, ch, stream::HANG, n) {
            self.fsm_hangs += 1;
            *deliver += plan.nda_hang_cycles;
        }
        let m = self.completions_sent;
        self.completions_sent += 1;
        if plan.fires(plan.completion_drop_period, ch, stream::DROP, m) {
            self.completions_dropped += 1;
            return false;
        }
        if plan.fires(plan.completion_delay_period, ch, stream::DELAY, m) {
            self.completions_delayed += 1;
            *deliver += plan.completion_delay_cycles;
        }
        true
    }
}

#[derive(Debug)]
struct LaunchInFlight {
    instr: NdaInstr,
    nda_local: usize,
    writes_remaining: u32,
}

/// Dense sliding map over in-flight launch records.
///
/// Launch ids are assigned by the front-end from one global counter and
/// delivered per shard in FIFO order, so the ids a shard sees are
/// **strictly increasing** — a ring of `Option` slots indexed by
/// `id - base` replaces the old `HashMap` with O(1) array accesses. Ids
/// belonging to other channels leave `None` gaps; the base slides past
/// the consumed-and-gap prefix on every removal, so the live span is
/// bounded by the launch-in-flight window, not the id space.
#[derive(Debug, Default)]
struct LaunchSlab {
    base: u64,
    slots: VecDeque<Option<LaunchInFlight>>,
}

impl LaunchSlab {
    fn insert(&mut self, id: u64, lf: LaunchInFlight) {
        if self.slots.is_empty() {
            // Re-anchor so cross-channel id gaps cost nothing while the
            // shard has no launches in flight.
            self.base = id;
        }
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "launch ids must arrive strictly increasing"
        );
        while (self.slots.len() as u64) < id - self.base {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(lf));
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut LaunchInFlight> {
        let idx = id.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Every record [`get_mut`](Self::get_mut) can reach, with its
    /// launch id, in id order.
    fn records(&self) -> impl Iterator<Item = (u64, &LaunchInFlight)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, lf)| Some((self.base.checked_add(i as u64)?, lf.as_ref()?)))
    }

    fn remove(&mut self, id: u64) -> Option<LaunchInFlight> {
        let idx = id.checked_sub(self.base)? as usize;
        let lf = self.slots.get_mut(idx)?.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        lf
    }
}

/// Access to launch bookkeeping for crafting corrupt images.
#[cfg(test)]
impl ChannelShard {
    /// `(launch id, writes remaining)` of every launch record in flight.
    pub(crate) fn launch_writes_remaining_mut(&mut self) -> Vec<(u64, &mut u32)> {
        let base = self.launches.base;
        let slots = self.launches.slots.iter_mut().enumerate();
        slots
            .filter_map(|(i, lf)| Some((base + i as u64, &mut lf.as_mut()?.writes_remaining)))
            .collect()
    }

    pub(crate) fn launch_events_mut(&mut self) -> &mut BinaryHeap<Reverse<(Cycle, u64)>> {
        &mut self.launch_events
    }
}

chopim_dram::codec! { LaunchInFlight { instr, nda_local, writes_remaining } }
chopim_dram::codec! { LaunchSlab { base, slots } }

// The event counters are fault-stream keys: restoring them verbatim is
// what keeps resume-under-faults bit-identical. `active` and
// `death_local` derive from the plan at construction.
chopim_dram::codec! {
    in_place FaultState {
        col_reads,
        instrs_retired,
        completions_sent,
        transient_faults,
        fsm_hangs,
        completions_dropped,
        completions_delayed,
        rank_deaths,
        poisoned: each,
        dead: each,
        death_processed,
        active: skip,
        death_local: skip,
    }
}

/// Ids of every instruction `nda` holds, each once: a running or
/// draining instruction also keys its buffered writes.
fn held_once(nda: &NdaRankController) -> Vec<u64> {
    let mut ids: Vec<u64> = nda.fsm().held_ids().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// One channel's shard. See the module docs.
pub(crate) struct ChannelShard {
    channel_idx: usize,
    pub(crate) channel: Channel,
    pub(crate) mc: HostMc,
    pub(crate) ndas: Vec<NdaRankController>,
    pub(crate) shadows: Vec<NdaFsm>,
    /// Shard-local NDA index per rank (`None` = rank has no NDA, e.g.
    /// host-only ranks never occur but rank-partitioning asymmetries do).
    local_of_rank: Vec<Option<usize>>,
    launches: LaunchSlab,
    /// `(cycle, launch id)` of every launch control write that completed
    /// and has not yet been counted against its launch record.
    launch_events: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Cross-boundary ingress FIFO: a flat arena the front-end's egress
    /// buffer is swapped into at barriers (see [`crate::exchange`]).
    pub(crate) inbox: FlatFifo<(Cycle, ShardInbound)>,
    /// Outbound fill completions produced this window.
    pub(crate) fills_out: Vec<FillMsg>,
    /// Outbound instruction completions produced this window.
    pub(crate) completions_out: Vec<CompletionMsg>,
    /// Captured launch deliveries `(cycle, shard-local NDA, instr id)`
    /// when `params.record_events` (trace capture; not snapshot state).
    pub(crate) launch_log: Vec<(Cycle, u32, u64)>,
    /// Captured instruction retirements `(cycle, instr id)` when
    /// `params.record_events` (trace capture; not snapshot state).
    pub(crate) completion_log: Vec<(Cycle, u64)>,
    /// Per-shard policy RNG: seeded from `(seed, channel)` so the draw
    /// stream is independent of every other shard — the precondition for
    /// ticking shards on a worker pool without perturbing stochastic
    /// write throttling.
    policy_rng: StdRng,
    /// Fault-injection counters and flags (see [`FaultState`]).
    fault: FaultState,
    params: ShardParams,
    pub(crate) now: Cycle,
    ticks_executed: u64,
    cycles_skipped: u64,
}

impl ChannelShard {
    /// Start (or stop) recording launch deliveries and completions into
    /// the shard's trace logs (see [`ShardParams::record_events`]).
    pub(crate) fn set_record_events(&mut self, on: bool) {
        self.params.record_events = on;
    }

    /// Build the shard for channel `channel_idx` from configuration
    /// alone: the channel device, its host MC (scheduler and page
    /// policy applied), and the rank controllers for every NDA rank
    /// living on this channel. Constructing the shard-internal parts
    /// here keeps `HostMc`/`NdaRankController` out of the front-end's
    /// vocabulary — the front-end hands over config, not machinery.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        channel_idx: usize,
        dram: &DramConfig,
        scheduler: SchedulerKind,
        page_policy: PagePolicy,
        nda_ranks: &[(usize, usize)],
        nda_queue_cap: usize,
        seed: u64,
        params: ShardParams,
    ) -> Self {
        let mut mc = HostMc::new(
            dram.ranks_per_channel,
            dram.bankgroups,
            dram.banks_per_group,
            dram.timing.refi,
        );
        mc.set_scheduler(scheduler);
        mc.set_page_policy(page_policy);
        let ndas: Vec<(usize, NdaRankController)> = nda_ranks
            .iter()
            .enumerate()
            .filter(|&(_, &(ch, _))| ch == channel_idx)
            .map(|(g, &(_, r))| (g, NdaRankController::new(r, nda_queue_cap)))
            .collect();
        Self::new(
            channel_idx,
            Channel::new(dram),
            mc,
            ndas,
            nda_queue_cap,
            seed,
            params,
        )
    }

    fn new(
        channel_idx: usize,
        channel: Channel,
        mc: HostMc,
        ndas: Vec<(usize, NdaRankController)>,
        queue_cap: usize,
        seed: u64,
        params: ShardParams,
    ) -> Self {
        let ranks = channel.config().ranks_per_channel;
        let plan = params.faults;
        let mut local_of_rank = vec![None; ranks];
        let mut death_local = None;
        let mut ctls = Vec::with_capacity(ndas.len());
        for (local, (gidx, ctl)) in ndas.into_iter().enumerate() {
            local_of_rank[ctl.rank()] = Some(local);
            if plan.rank_death_cycle > 0 && gidx == plan.rank_death_nda as usize {
                death_local = Some(local);
            }
            ctls.push(ctl);
        }
        let n = ctls.len();
        let fault = FaultState {
            active: !plan.is_empty(),
            death_local,
            death_processed: false,
            col_reads: 0,
            instrs_retired: 0,
            completions_sent: 0,
            poisoned: vec![false; n],
            dead: vec![false; n],
            transient_faults: 0,
            fsm_hangs: 0,
            completions_dropped: 0,
            completions_delayed: 0,
            rank_deaths: 0,
        };
        Self {
            channel_idx,
            channel,
            mc,
            shadows: (0..n).map(|_| NdaFsm::new(queue_cap)).collect(),
            ndas: ctls,
            local_of_rank,
            launches: LaunchSlab::default(),
            launch_events: BinaryHeap::new(),
            inbox: FlatFifo::default(),
            fills_out: Vec::new(),
            completions_out: Vec::new(),
            launch_log: Vec::new(),
            completion_log: Vec::new(),
            policy_rng: StdRng::seed_from_u64(
                (seed ^ 0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((channel_idx as u64).wrapping_mul(0xa24b_aed4_963e_e407)),
            ),
            fault,
            params,
            now: 0,
            ticks_executed: 0,
            cycles_skipped: 0,
        }
    }

    /// The channel index this shard simulates.
    pub(crate) fn channel_idx(&self) -> usize {
        self.channel_idx
    }

    /// Shard-local NDA index of `rank`.
    ///
    /// # Panics
    ///
    /// Panics when the rank has no NDA (launches only target NDA ranks).
    pub(crate) fn local_of(&self, rank: usize) -> usize {
        self.local_of_rank[rank].expect("rank has an NDA")
    }

    /// `(ticks executed, cycles skipped)` diagnostics for this shard.
    pub(crate) fn tick_stats(&self) -> (u64, u64) {
        (self.ticks_executed, self.cycles_skipped)
    }

    /// True while every host-side shadow FSM matches its rank's FSM.
    pub(crate) fn fsm_in_sync(&self) -> bool {
        self.ndas
            .iter()
            .zip(&self.shadows)
            .all(|(n, s)| n.fsm().fingerprint() == s.fingerprint())
    }

    /// Ingress-arena high-water mark (sizing telemetry).
    pub(crate) fn inbox_high_water(&self) -> usize {
        self.inbox.high_water()
    }

    /// Run the shard up to (exclusive) `target`, fast-forwarding idle
    /// stretches when enabled. Messages produced land in the outboxes;
    /// the caller exchanges them at the window barrier.
    pub(crate) fn run_to(&mut self, target: Cycle) {
        while self.now < target {
            self.tick_cycle();
            self.now += 1;
            self.maybe_skip(target);
        }
    }

    /// One shard cycle at `self.now`: launch deliveries, ingress pops,
    /// the host MC, then the rank NDA controllers — the same intra-cycle
    /// order the monolithic engine used for one channel.
    fn tick_cycle(&mut self) {
        let now = self.now;
        self.ticks_executed += 1;

        // 0. Permanent rank death fires at its planned cycle. The
        // horizon folds the death cycle in, so every engine variant
        // (naive, fast-forwarding, any thread count) executes this tick
        // at exactly the same cycle.
        if self.fault.active && !self.fault.death_processed {
            if let Some(local) = self.fault.death_local {
                if now >= self.params.faults.rank_death_cycle {
                    self.process_rank_death(local, now);
                }
            }
        }

        // 1. Launch deliveries whose control writes completed.
        while let Some(&Reverse((t, id))) = self.launch_events.peek() {
            if t > now {
                break;
            }
            self.launch_events.pop();
            let lf = self.launches.get_mut(id).expect("launch record");
            lf.writes_remaining -= 1;
            if lf.writes_remaining == 0 {
                let lf = self.launches.remove(id).expect("present");
                if self.fault.active && self.fault.dead[lf.nda_local] {
                    // Delivery to a dead rank: fail the instruction
                    // immediately so the front-end can re-shard it.
                    let at = now + self.params.completion_latency;
                    self.completions_out
                        .push((at, lf.instr.id, COMPLETION_RANK_DEAD));
                    continue;
                }
                if self.params.record_events {
                    self.launch_log
                        .push((now, lf.nda_local as u32, lf.instr.id));
                }
                match self.ndas[lf.nda_local].launch(lf.instr.clone()) {
                    Ok(()) => {
                        self.shadows[lf.nda_local]
                            .launch(lf.instr)
                            .unwrap_or_else(|_| panic!("shadow queue overflow"));
                    }
                    // Under fault recovery, optimistic credit return on
                    // timeout makes queue overflow reachable: fail the
                    // launch gracefully (the runtime retries it) instead
                    // of bringing the machine down.
                    Err(_) if self.fault.active => {
                        let at = now + self.params.completion_latency;
                        self.completions_out
                            .push((at, lf.instr.id, COMPLETION_FAILED));
                    }
                    Err(_) => panic!("NDA queue overflow"),
                }
            }
        }

        // 2. Ingress: deliver due messages into the MC, head-of-line.
        while let Some((t, item)) = self.inbox.front_mut() {
            if *t > now {
                break;
            }
            match item {
                ShardInbound::Launch {
                    id,
                    nda_local,
                    instr,
                    writes,
                } => {
                    self.launches.insert(
                        *id,
                        LaunchInFlight {
                            instr: instr.clone(),
                            nda_local: *nda_local,
                            writes_remaining: *writes,
                        },
                    );
                    self.inbox.pop_front();
                }
                ShardInbound::Tx(tx) => {
                    if self.mc.try_push(*tx, &self.channel, now) {
                        self.inbox.pop_front();
                    } else {
                        // MC full: retry next cycle (keeps order).
                        *t = now + 1;
                        break;
                    }
                }
            }
        }

        // 3. Host memory controller (priority on the channel).
        self.mc_cycle(now);

        // 4. NDA controllers (one per rank, independent command paths).
        self.nda_cycle(now);

        // 5. Replicated-FSM equality check.
        if self.params.verify_fsm && now.is_multiple_of(1024) {
            assert!(
                self.fsm_in_sync(),
                "replicated FSMs diverged at cycle {now} (channel {})",
                self.channel_idx
            );
        }
    }

    /// Kill shard-local NDA `local` at `now`: every instruction it holds
    /// (queued, running, or awaiting write-drain) fails with
    /// [`COMPLETION_RANK_DEAD`] so the front-end quarantines the rank
    /// and re-shards the work; the FSM and its shadow are aborted
    /// identically so the replicated-FSM fingerprints stay equal.
    #[cold]
    fn process_rank_death(&mut self, local: usize, now: Cycle) {
        self.fault.death_processed = true;
        self.fault.dead[local] = true;
        self.fault.rank_deaths += 1;
        let at = now + self.params.completion_latency;
        let held = held_once(&self.ndas[local]).into_iter();
        (self.completions_out).extend(held.map(|id| (at, id, COMPLETION_RANK_DEAD)));
        self.ndas[local].abort_all();
        self.shadows[local].abort_all();
    }

    fn mc_cycle(&mut self, now: Cycle) {
        // In fast-forward mode a valid wake-up hint (cached by the last
        // tick that issued nothing) proves the whole controller tick is a
        // no-op; the naive loop evaluates every cycle (reference
        // behavior).
        if self.params.fast_forward {
            if let Some(h) = self.mc.wake_hint() {
                if now < h {
                    return;
                }
            }
        }
        if let Some(iss) = self.mc.tick(&mut self.channel, now) {
            if self.fault.active && iss.cmd.kind == CommandKind::Rd {
                // Host column read: draw the bit-flip/ECC streams
                // (host-side uncorrectable errors are counted only).
                self.fault.col_read(
                    &self.params.faults,
                    self.channel_idx,
                    &mut self.channel.stats,
                    None,
                );
            }
            if let Issued {
                data,
                completed: Some(tx),
                ..
            } = iss
            {
                match tx.meta {
                    TxMeta::CoreRead { core, req } => {
                        // Packetized responses pay the return-path
                        // serialization latency too.
                        let ready = data.end.expect("read") + self.params.packetized_latency;
                        self.fills_out.push((ready, core, req));
                    }
                    TxMeta::Launch { launch } => {
                        self.launch_events
                            .push(Reverse((data.end.expect("write"), launch)));
                    }
                    TxMeta::CoreWrite => {}
                }
            }
        }
    }

    fn nda_cycle(&mut self, now: Cycle) {
        // The write-throttle decision is passed lazily so policy coins
        // are drawn only for actual write attempts — which also makes
        // idle and timing-blocked cycles RNG-free, a precondition for
        // skipping them in fast-forward mode.
        let Self {
            channel_idx,
            ndas,
            shadows,
            mc,
            channel,
            policy_rng,
            fault,
            params,
            completions_out,
            completion_log,
            ..
        } = self;
        for i in 0..ndas.len() {
            // In fast-forward mode, offer the controller a cycle only
            // when it could act: skip idle FSMs and timing-blocked ones
            // before their planned ready cycle (a launch drops the plan,
            // so the cycle it lands in is offered). Both skips are exact
            // — the controller would evaluate to the same state without
            // side effects. The naive loop evaluates every controller
            // every cycle, preserving the reference behavior the lockstep
            // tests compare against.
            if params.fast_forward {
                if ndas[i].fsm().next_access().is_none() {
                    continue;
                }
                if ndas[i].planned_ready(channel).is_some_and(|r| now < r) {
                    continue;
                }
            }
            let rank = ndas[i].rank();
            let oldest = mc.oldest_read_rank();
            let policy = params.policy;
            let rng = &mut *policy_rng;
            let result = ndas[i].tick(channel, now, || policy.allow_write(oldest, rank, rng));
            if fault.active {
                if let NdaTickResult::Issued(cmd) = result {
                    if cmd.kind == CommandKind::Rd {
                        // NDA column read: an uncorrectable bit-flip
                        // poisons this NDA's next retirement.
                        fault.col_read(&params.faults, *channel_idx, &mut channel.stats, Some(i));
                    }
                }
            }
            if let NdaTickResult::Issued(cmd) = result {
                // An NDA *row* command changed bank state under the host
                // scheduler: a queued transaction's plan may now be
                // ready earlier than the cached wake-up assumed. NDA
                // column commands only move timing registers forward
                // (pure delay), so the host hint stays sound.
                if !matches!(cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                    mc.invalidate_wake_hint();
                }
            }
            // Mirror the column grant onto the host-side shadow FSM. It
            // sees the launches and grants its NDA sees, and nothing
            // else, so it settles exactly as the NDA's FSM does.
            if let NdaTickResult::Issued(cmd) = result {
                if matches!(cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                    let acc = shadows[i]
                        .next_access()
                        .expect("shadow must want an access too");
                    debug_assert_eq!(
                        (acc.write, acc.row, acc.col),
                        (cmd.kind == CommandKind::Wr, cmd.row, cmd.col),
                        "shadow diverged from NDA controller"
                    );
                    shadows[i].commit(acc);
                }
            }
            // Completions (both sides pop identically). The host learns
            // of each one `completion_latency` cycles later — the
            // status-poll pipeline that also bounds the parallel
            // executor's lookahead window.
            while let Some(id) = ndas[i].pop_completed() {
                let sid = shadows[i].pop_completed();
                debug_assert_eq!(sid, Some(id));
                if params.record_events {
                    completion_log.push((now, id));
                }
                let mut deliver = now + params.completion_latency;
                let mut status = COMPLETION_OK;
                if fault.active
                    && !fault.retire(&params.faults, *channel_idx, i, &mut deliver, &mut status)
                {
                    continue; // completion message dropped in transit
                }
                completions_out.push((deliver, id, status));
            }
        }
    }

    /// Earliest cycle at or after `self.now` (the first unexecuted
    /// cycle) at which any component of this shard could act, assuming
    /// no other agent touches it first. Conservative answers only waste
    /// a wake-up; no component may act strictly before its horizon.
    pub(crate) fn horizon(&self) -> Cycle {
        let now = self.now;
        let mut h = Cycle::MAX;
        // A pending rank death is a shard event: folding its cycle here
        // (and never skipping past it) is what guarantees every engine
        // variant executes the death tick at exactly the planned cycle.
        if self.fault.active && !self.fault.death_processed && self.fault.death_local.is_some() {
            let d = self.params.faults.rank_death_cycle;
            if d <= now {
                return now;
            }
            h = d;
        }
        if let Some(&Reverse((t, _))) = self.launch_events.peek() {
            h = h.min(t);
        }
        if let Some(&(t, _)) = self.inbox.front() {
            h = h.min(t);
        }
        if h <= now {
            return now;
        }
        // No cached MC wake-up means the next tick must run.
        h = h.min(self.mc.wake_hint().unwrap_or(now));
        if h <= now {
            return now;
        }
        for nda in &self.ndas {
            let Some(acc) = nda.fsm().next_access() else {
                continue;
            };
            // A current plan covers writes too: the controller
            // short-circuits before any policy evaluation until then.
            if let Some(ready) = nda.planned_ready(&self.channel) {
                if ready > now {
                    h = h.min(ready);
                    continue;
                }
            }
            if acc.write {
                let oldest = self.mc.oldest_read_rank();
                match self
                    .params
                    .policy
                    .deterministic_decision(oldest, nda.rank())
                {
                    // Stochastic policies flip a coin per attempt: every
                    // cycle with a pending write must execute.
                    None => return now,
                    // Deterministically throttled: the decision can only
                    // change when the read queue does, which is an event.
                    Some(false) => continue,
                    Some(true) => {}
                }
            }
            h = h.min(nda.next_event_cycle(&self.channel, now));
            if h <= now {
                return now;
            }
        }
        h.max(now)
    }

    /// Leap from `self.now` to `target`, applying exactly the state
    /// changes the naive loop would have made over the provably idle
    /// stretch: deterministically throttled NDA writes accumulate their
    /// per-cycle stall counts, and the periodic FSM spot-check keeps its
    /// coverage. DRAM timing registers and the idle histograms are
    /// absolute-time state and need no per-cycle work.
    pub(crate) fn skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now);
        self.cycles_skipped += target - self.now;
        for i in 0..self.ndas.len() {
            let Some(acc) = self.ndas[i].fsm().next_access() else {
                continue;
            };
            if acc.write {
                let oldest = self.mc.oldest_read_rank();
                let decision = self
                    .params
                    .policy
                    .deterministic_decision(oldest, self.ndas[i].rank());
                if decision == Some(false) {
                    // The naive loop evaluates (and counts) the
                    // throttled attempt each cycle timing allows the
                    // write, from the exact ready time on.
                    let from = self.ndas[i].next_event_cycle(&self.channel, self.now);
                    self.ndas[i].write_throttle_stalls += target.saturating_sub(from);
                }
            }
        }
        if self.params.verify_fsm && self.now.next_multiple_of(1024) < target {
            assert!(
                self.fsm_in_sync(),
                "replicated FSMs diverged in [{}, {}) (channel {})",
                self.now,
                target,
                self.channel_idx
            );
        }
        self.now = target;
    }

    /// In fast-forward mode, leap to the shard's next event horizon
    /// (never past `limit`). Run after every executed cycle: on a busy
    /// shard the horizon answers `now` from cached wake-ups (the MC's
    /// `wake_hint`, the NDAs' plan memos) after a few compares.
    fn maybe_skip(&mut self, limit: Cycle) {
        if !self.params.fast_forward || self.now >= limit {
            return;
        }
        let h = self.horizon().min(limit);
        if h > self.now {
            self.skip_to(h);
        }
    }

    // ---- snapshot support -----------------------------------------------

    /// Check a restored shard, and the front-end `egress` queued behind
    /// its inbox, against the machine it was rebuilt into: every
    /// component's own bounds, shard-local NDA indexes, completion
    /// statuses, launch ids against the front-end's `next_launch` and
    /// the launch-write accounting, and every shadow FSM equal to its
    /// NDA's. Core reads and instructions are paired with the cores'
    /// unfilled misses and the in-flight launch records by the
    /// front-end ([`core_reads`](Self::core_reads),
    /// [`instrs`](Self::instrs)).
    #[cold]
    pub(crate) fn validate(
        &self,
        egress: &[(Cycle, ShardInbound)],
        next_launch: u64,
    ) -> Result<(), CodecError> {
        self.channel.validate()?;
        self.mc.validate()?;
        let fsms = self.ndas.iter().map(NdaRankController::fsm);
        fsms.chain(&self.shadows).try_for_each(NdaFsm::validate)?;
        // The shard replays each shadow's steps on its NDA's schedule and
        // asserts they agree; a pair that differs at resume would panic.
        check(self.fsm_in_sync(), "shadow FSM differs from its NDA")?;
        let local = self.ndas.len();
        for lf in self.launches.slots.iter().flatten() {
            check(lf.nda_local < local, "launch NDA index out of range")?;
        }
        // The inbox, then the egress: the order the shard will see them.
        let queued = || self.inbox.live().iter().chain(egress);
        queued().try_for_each(|(_, item)| item.validate(local))?;
        self.validate_launches(queued(), next_launch)?;
        for &(_, _, status) in &self.completions_out {
            check(status <= COMPLETION_RANK_DEAD, "completion status")?;
        }
        Ok(())
    }

    /// The core reads this shard holds, with the front-end `egress`
    /// queued behind its inbox, as `(core, request id)`: queued in the
    /// inbox or at the MC, or answered by a fill on its way out (resume
    /// validation pairs them with the cores' unfilled misses).
    #[cold]
    pub(crate) fn core_reads<'a>(
        &'a self,
        egress: &'a [(Cycle, ShardInbound)],
    ) -> impl Iterator<Item = (usize, u64)> + 'a {
        let queued = self.inbox.live().iter().chain(egress);
        let fills = self.fills_out.iter().map(|&(_, core, req)| (core, req));
        (queued.filter_map(|(_, item)| item.core_read()))
            .chain(self.mc.queued_core_reads())
            .chain(fills)
    }

    /// The NDA instructions this shard holds, with the front-end
    /// `egress` queued behind its inbox, as `(shard-local NDA, instr
    /// id)`: a launch queued or awaiting its control writes, or an
    /// instruction an NDA FSM holds, each once; a completion on its way
    /// out sits on no NDA (`None`). Resume validation pairs them with
    /// the front-end's in-flight launch records.
    #[cold]
    pub(crate) fn instrs(&self, egress: &[(Cycle, ShardInbound)]) -> Vec<(Option<usize>, u64)> {
        let queued = self.inbox.live().iter().chain(egress);
        let slab = self.launches.records();
        let mut held: Vec<(Option<usize>, u64)> = (queued.filter_map(|(_, item)| item.launch()))
            .chain(slab.map(|(_, lf)| (lf.nda_local, lf.instr.id)))
            .map(|(nda, id)| (Some(nda), id))
            .collect();
        for (i, nda) in self.ndas.iter().enumerate() {
            held.extend(held_once(nda).into_iter().map(|id| (Some(i), id)));
        }
        held.extend(self.completions_out.iter().map(|&(_, id, _)| (None, id)));
        held
    }

    /// Launch ids reach the slab strictly increasing, from the front-end's
    /// counter: every slot and every `queued` launch message must be below
    /// `next_launch`, and queued launches must rise above the slab's last
    /// slot. Every launch-write completion event, and every launch write
    /// still queued (MC, then `queued` messages in delivery order), must
    /// count against a launch record — delivered, or queued ahead of the
    /// write — that still expects it. A resumed shard looks the record up
    /// on each completion and decrements its count.
    #[cold]
    fn validate_launches<'a>(
        &self,
        queued: impl Iterator<Item = &'a (Cycle, ShardInbound)>,
        next_launch: u64,
    ) -> Result<(), CodecError> {
        let slab = &self.launches;
        let end = slab.base.checked_add(slab.slots.len() as u64);
        let mut floor = (end.filter(|&end| end <= next_launch))
            .ok_or(CodecError::Corrupt("launch id at or above the next id"))?;
        let mut expected: BTreeMap<u64, u32> = (slab.records())
            .map(|(id, lf)| (id, lf.writes_remaining))
            .collect();
        fn count(expected: &mut BTreeMap<u64, u32>, id: u64) -> Result<(), CodecError> {
            let left = expected.get_mut(&id);
            let left = left.ok_or(CodecError::Corrupt("launch write without launch record"))?;
            *left = (left.checked_sub(1)).ok_or(CodecError::Corrupt(
                "more launch writes than the record expects",
            ))?;
            Ok(())
        }
        for &Reverse((_, id)) in &self.launch_events {
            count(&mut expected, id)?;
        }
        for id in self.mc.queued_launch_writes() {
            count(&mut expected, id)?;
        }
        for (_, item) in queued {
            match item {
                ShardInbound::Launch { id, writes, .. } => {
                    check(floor <= *id && *id < next_launch, "launch ids out of order")?;
                    floor = id + 1;
                    expected.insert(*id, *writes);
                }
                ShardInbound::Tx(tx) => {
                    if let TxMeta::Launch { launch } = tx.meta {
                        count(&mut expected, launch)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold this shard's injected-fault counters into `fr` (report
    /// support; ECC counts flow through the channel's `DramStats`).
    #[cold]
    pub(crate) fn add_fault_counts(&self, fr: &mut crate::report::FaultReport) {
        fr.transient_faults += self.fault.transient_faults;
        fr.fsm_hangs += self.fault.fsm_hangs;
        fr.completions_dropped += self.fault.completions_dropped;
        fr.completions_delayed += self.fault.completions_delayed;
        fr.rank_deaths += self.fault.rank_deaths;
    }
}

// The engine's caches are not stored: a resumed shard starts the MC's
// wake-up and oldest-read answer and the NDAs' plan memos cold. A cold
// cache only makes the shard run a component tick the warm one would have
// skipped; that tick changes nothing but the cache (the naive loop runs
// one every cycle), so every report bit stays the same. The launch slab's
// `base` anchor is stored verbatim. Kept from construction: the static
// topology (`local_of_rank`, computed by `build` from the NDA-rank
// configuration), the `ShardParams` configuration copy, and the
// trace-capture event logs (capture sessions never span a snapshot).
chopim_dram::codec! {
    in_place(pub(crate)) ChannelShard {
        channel_idx: expect,
        channel,
        mc,
        ndas: counted,
        shadows: each,
        launches,
        launch_events: ascending,
        inbox,
        fills_out,
        completions_out,
        policy_rng: rng_state,
        now,
        ticks_executed,
        cycles_skipped,
        fault,
        local_of_rank: skip,
        launch_log: skip,
        completion_log: skip,
        params: skip,
    }
}

/// The rank controllers: their count (checked against the
/// configuration), then each restored in place.
mod counted {
    use chopim_dram::codec::{expect, ByteReader, ByteWriter, CodecError, Restore};
    use chopim_nda::controller::NdaRankController;

    #[cold]
    pub fn encode(ndas: &[NdaRankController], w: &mut ByteWriter) {
        w.put(&ndas.len());
        ndas.iter().for_each(|nda| nda.encode_state(w));
    }

    #[cold]
    pub fn restore(
        ndas: &mut [NdaRankController],
        r: &mut ByteReader<'_>,
    ) -> Result<(), CodecError> {
        expect(&ndas.len(), r)?;
        ndas.iter_mut().try_for_each(|nda| nda.decode_state(r))
    }
}

/// The launch-event heap as its `(cycle, id)` entries in ascending order.
mod ascending {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
    use chopim_dram::Cycle;

    type Events = BinaryHeap<Reverse<(Cycle, u64)>>;

    #[cold]
    pub fn encode(heap: &Events, w: &mut ByteWriter) {
        let mut events: Vec<(Cycle, u64)> = heap.iter().map(|&Reverse(e)| e).collect();
        events.sort_unstable();
        w.put(&events);
    }

    #[cold]
    pub fn restore(heap: &mut Events, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        *heap = r
            .get::<Vec<(Cycle, u64)>>()?
            .into_iter()
            .map(Reverse)
            .collect();
        Ok(())
    }
}

/// The policy RNG as its four raw state words.
mod rng_state {
    use chopim_dram::codec::{fixed, ByteReader, ByteWriter, CodecError};
    use rand::rngs::StdRng;

    #[cold]
    pub fn encode(rng: &StdRng, w: &mut ByteWriter) {
        fixed::encode(&rng.state(), w);
    }

    #[cold]
    pub fn restore(rng: &mut StdRng, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        *rng = StdRng::from_state(fixed::decode(r)?);
        Ok(())
    }
}
