//! The integrated Chopim system: multi-core host + FR-FCFS controllers on
//! one side of the channels, per-rank NDA controllers with host-side
//! shadow FSMs on the other, sharing the same DRAM devices cycle by cycle.
//!
//! Arbitration follows the paper (§III-B, §III-D):
//!
//! * host commands always take priority — NDA controllers only use cycles
//!   (and ranks) the host leaves free, enforced by the device model;
//! * NDA writes are gated by the configured [`WriteIssuePolicy`];
//! * every NDA launch travels over the channel as control-register write
//!   transactions issued by the host controller (the Fig.-10 launch cost);
//! * a shadow copy of every rank's NDA FSM lives host-side and is stepped
//!   from observable events only; [`ChopimSystem::fsm_in_sync`] asserts
//!   bit-equality, demonstrating the replicated-FSM mechanism.
//!
//! ## Channel-sharded engine
//!
//! The machine is split along its natural hardware boundary into a
//! **front-end** (the OoO cores, the runtime, launch staging, the
//! CPU-clock divider, and shared-LLC accounting) and one
//! `ChannelShard` per memory channel (the channel's device state, host
//! MC, per-rank NDA controllers + shadow FSMs, launch records, and
//! fast-forward state). All cross-boundary traffic is typed,
//! cycle-stamped messages over bounded queues:
//!
//! * **ingress** (front-end → shard): core memory transactions and
//!   launch control-writes, delivered `ingress_latency` (+
//!   `packetized_latency`) cycles after they are produced;
//! * **fills** (shard → front-end): read completions, delivered when the
//!   data burst ends (≥ tCL + burst cycles after issue);
//! * **completions** (shard → front-end): NDA instruction completions,
//!   delivered `completion_latency` cycles after the FSM retires them
//!   (the host's status-poll pipeline).
//!
//! Because every shard→front-end path has a minimum delivery latency,
//! the exchange happens on a fixed **barrier grid** of
//! `W = min(tCL + burst, completion_latency)` cycles: the front-end runs
//! a window first (its outbound messages can even be consumed the same
//! cycle, since shards run after it), then every shard runs the same
//! window independently — serially or on a worker pool
//! ([`ChopimConfig::sim_threads`]) — and the queues are exchanged at the
//! barrier. With [`ChopimConfig::fast_forward`], each shard computes a
//! **lookahead horizon** from its actual state (the MC's cached wake-up,
//! the NDAs' planned ready cycles, refresh timers, pending launch
//! deliveries, undelivered inbox messages) after every cycle it
//! executes, and leaps to it within the window: a quiet channel
//! executes the first cycle of a window and skips the rest. Shards never observe each other mid-window and each carries
//! its own policy RNG, so the schedule is **deterministic by
//! construction**: any thread count produces bit-identical
//! [`SimReport`]s (enforced by `crates/exp/tests/shard_lockstep.rs`;
//! `crates/core/tests/horizon_props.rs` property-checks horizon
//! conservatism against the messages shards actually emit).
//! When every component is idle at a barrier, the engine additionally
//! leaps the whole machine to the global event horizon, preserving the
//! fast-forward throughput on idle-heavy scenarios.
//!
//! The exchange itself is allocation-free in steady state (pinned by
//! `crates/core/tests/alloc_steady_state.rs`): ingress rides
//! double-buffered flat arenas that swap instead of copying, and
//! shard→front-end fills/completions arrive as per-shard runs merged in
//! one sort pass (`MergeQueue` in the `exchange` module).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use chopim_dram::codec::{
    check, fnv1a, read_framed, write_framed, ByteReader, ByteWriter, CodecError,
};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::trace::{encode_trace, TraceEvent};
use chopim_dram::{Channel, Cycle, DramConfig, DramStats, FaultPlan};
use chopim_host::{CoreConfig, MixId, OooCore, OooCoreState};
use chopim_mapping::color::{ColoredAllocator, Region};
use chopim_mapping::{presets, AddressMapper, PartitionedMapping};

use crate::energy::{self, EnergyParams};
use crate::exchange::{
    CompletionMsg, MergeQueue, ShardInbound, COMPLETION_OK, COMPLETION_RANK_DEAD,
};
use crate::par::ShardPool;
use crate::policy::WriteIssuePolicy;
use crate::report::{FaultReport, SimReport};
use crate::runtime::{OpHandle, PendingLaunch, Runtime, Session};
use crate::sched::{HostTransaction, PagePolicy, SchedulerKind, TxMeta};
use crate::shard::{ChannelShard, ShardParams};

/// What [`ChopimSystem::drive`] waits for.
///
/// Four shapes: one handle, an all-of set, one session draining, or the
/// whole machine draining.
#[derive(Debug, Clone)]
pub enum Waitable {
    /// One op has retired.
    Op(OpHandle),
    /// Every op in the set has retired.
    AllOf(Vec<OpHandle>),
    /// Every op submitted to the session has retired
    /// (session-quiescent).
    SessionIdle(Session),
    /// Every op of every session has retired (machine-quiescent). Note
    /// that active [streams](ChopimSystem::spawn_stream) relaunch on
    /// completion, so a machine with a live stream never quiesces.
    Quiescent,
}

impl Waitable {
    /// Wait for every handle in `ops`.
    pub fn all_of(ops: impl IntoIterator<Item = OpHandle>) -> Self {
        Waitable::AllOf(ops.into_iter().collect())
    }

    fn satisfied(&self, rt: &Runtime) -> bool {
        match self {
            Waitable::Op(h) => rt.op_done(*h),
            Waitable::AllOf(hs) => hs.iter().all(|&h| rt.op_done(h)),
            Waitable::SessionIdle(s) => rt.session_idle(*s),
            Waitable::Quiescent => rt.quiescent(),
        }
    }
}

impl From<OpHandle> for Waitable {
    fn from(h: OpHandle) -> Self {
        Waitable::Op(h)
    }
}

impl From<Vec<OpHandle>> for Waitable {
    fn from(hs: Vec<OpHandle>) -> Self {
        Waitable::AllOf(hs)
    }
}

impl From<Session> for Waitable {
    fn from(s: Session) -> Self {
        Waitable::SessionIdle(s)
    }
}

/// Handle to a resident op stream (see [`ChopimSystem::spawn_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// A stream's op generator: submits the next op of a resident workload.
type StreamGen = Box<dyn FnMut(&mut Runtime, Session) -> OpHandle + Send>;

/// A resident relaunching workload: whenever its current op retires, the
/// generator submits the next one — the paper's §VI methodology of
/// keeping the NDA side busy for a whole measurement window, now
/// per-session so independent tenants can stream concurrently.
struct StreamState {
    sess: Session,
    cur: OpHandle,
    make: StreamGen,
    completions: u64,
    active: bool,
}

/// CPU cycles per DRAM cycle, as a rational (4 GHz / 1.2 GHz = 10/3).
const CPU_CLOCK_NUM: u32 = 10;
const CPU_CLOCK_DEN: u32 = 3;

/// Shared LLC miss-status registers (Table II: 48).
const LLC_MSHRS: usize = 48;

/// Per-channel ingress queue capacity (transactions in flight between
/// the front-end and a shard's MC).
const INGRESS_CAP: usize = 64;

/// Advance a sleeping core's counters from CPU cycle `since` to `now`.
fn catch_up(core: &mut OooCore, since: u64, now: u64) {
    core.advance_inert(now - since);
    perfcount::add(Counter::CoreCyclesSlept, now - since);
}

/// `CHOPIM_SIM_THREADS`, defaulting to 1 (serial shard execution).
fn sim_threads_from_env() -> usize {
    std::env::var("CHOPIM_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// `CHOPIM_TRACE=<path>` enables event-trace capture and names the file
/// [`ChopimSystem::write_trace`] emits (see `docs/TRACE_FORMAT.md`).
#[cold]
fn trace_path_from_env() -> Option<PathBuf> {
    std::env::var_os("CHOPIM_TRACE")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Top-level configuration.
#[derive(Debug, Clone)]
pub struct ChopimConfig {
    /// Memory geometry/timing (Table II defaults).
    pub dram: DramConfig,
    /// Banks per rank reserved for the shared/NDA region (paper: 1;
    /// 0 = fully shared banks).
    pub reserved_banks: usize,
    /// NDA write-issue policy.
    pub policy: WriteIssuePolicy,
    /// Host application mix (None = no host traffic).
    pub mix: Option<MixId>,
    /// Explicit per-core profiles, overriding `mix` (used by the ML time
    /// model to run an SVRG-shaped host alongside the NDAs).
    pub custom_profiles: Option<Vec<chopim_host::WorkloadProfile>>,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// RNG seed (cores, policy coins).
    pub seed: u64,
    /// Control-register write transactions per NDA instruction launch.
    /// At most 63: a launch leaves only once its writes plus its payload
    /// side-band fit the 64-entry per-channel ingress queue, so a larger
    /// value could never launch and [`ChopimSystem::new`] rejects it.
    pub launch_writes_per_instr: u32,
    /// Per-rank NDA instruction queue depth.
    pub nda_queue_cap: usize,
    /// Rank-partitioning baseline (Fig. 14): dedicate the upper half of
    /// each channel's ranks to NDAs and hide them from the host mapping.
    pub rank_partition: bool,
    /// Assert shadow-FSM equality while running (cheap; on by default).
    pub verify_fsm: bool,
    /// Ablation: NDA operands walked in physical-address order instead of
    /// Chopim's contiguous-column layout (see `Runtime::pa_order_walk`).
    pub nda_pa_order_walk: bool,
    /// Host transaction scheduling discipline (ablation).
    pub scheduler: SchedulerKind,
    /// Host row-buffer policy (ablation).
    pub page_policy: PagePolicy,
    /// Packetized memory interface (HMC-like): host requests pay an extra
    /// per-direction serialization latency of this many DRAM cycles, but
    /// the memory-side controller owns all scheduling so no replicated
    /// FSMs or host-side signaling are needed (paper §III intro, §VIII:
    /// packetized DRAM suffers 2-4x idle latency). `0` = traditional DDR.
    pub packetized_latency: u32,
    /// Event-horizon fast-forwarding: when a component is provably idle,
    /// leap its clock to the earliest cycle anything can happen instead
    /// of ticking through the gap — per shard within lookahead windows,
    /// and machine-wide at window barriers. Produces bit-identical
    /// [`SimReport`]s to the naive cycle-by-cycle loop (enforced by the
    /// `ff_lockstep` equivalence tests); disable to run the naive loop.
    pub fast_forward: bool,
    /// Front-end → memory-controller ingress pipeline depth in DRAM
    /// cycles (the on-chip interconnect between the LLC and the MCs).
    /// `0` = same-cycle delivery, the pre-sharding behavior.
    pub ingress_latency: u32,
    /// NDA completion → host-visible delivery latency in DRAM cycles
    /// (the host polls rank status registers; completion is not
    /// observable instantaneously). Also the shard → front-end lookahead
    /// floor: together with the read-fill latency it bounds the parallel
    /// executor's window. Must be ≥ 1.
    pub completion_latency: u32,
    /// Worker threads for shard execution. `1` (the default) runs every
    /// shard inline on the calling thread; `N > 1` ticks shards on a
    /// pool of `min(N, channels)` workers. Any value produces
    /// bit-identical [`SimReport`]s — the engine's schedule does not
    /// depend on the thread count. Defaults to `CHOPIM_SIM_THREADS`.
    pub sim_threads: usize,
    /// Has no effect: every shard runs every lookahead window (under
    /// `fast_forward`, a quiet one leaps the rest of the window from its
    /// first executed cycle). The field is kept only because the
    /// repository benchmark (`chopim-benchmark`) sets and asserts it.
    /// Defaults to `false`.
    pub fixed_window: bool,
    /// When set, the machine records its event trace (DRAM commands,
    /// NDA launches, completions) from construction and encodes it to
    /// this file in the `docs/TRACE_FORMAT.md` binary format on the
    /// first [`ChopimSystem::report`] (or an explicit
    /// [`ChopimSystem::write_trace`]). Defaults to
    /// `CHOPIM_TRACE=<path>` (unset = no capture). Like the engine-mode
    /// knobs, this never affects simulated behavior.
    pub trace_path: Option<PathBuf>,
    /// Deterministic fault-injection plan (`docs/FAULTS.md`). The
    /// default, [`FaultPlan::NONE`], injects nothing: every launch
    /// still resolves through its in-flight record, but no record ever
    /// times out, so no retry or quarantine runs. A non-empty plan also
    /// arms the in-flight timeout (see `instr_timeout`). Defaults to
    /// `CHOPIM_FAULTS=<spec>` (unset = empty).
    pub faults: FaultPlan,
    /// Instruction retries per op before it concludes `Failed` (or
    /// falls back to the host). Only read while `faults` is non-empty.
    pub retry_limit: u32,
    /// Base retry backoff in DRAM cycles; doubles per retry of the op.
    pub retry_backoff: u64,
    /// Upper bound on the exponential retry backoff, in DRAM cycles.
    pub retry_backoff_cap: u64,
    /// In-flight launch timeout in DRAM cycles: a launch whose
    /// completion has not arrived this long after egress is treated as
    /// lost (credit reclaimed, retry scheduled). `0` picks an
    /// automatic value comfortably above the longest injected delay.
    /// Only read while `faults` is non-empty.
    pub instr_timeout: u64,
}

impl Default for ChopimConfig {
    fn default() -> Self {
        Self {
            dram: DramConfig::table_ii(),
            reserved_banks: 1,
            policy: WriteIssuePolicy::NextRankPredict,
            mix: None,
            custom_profiles: None,
            core: CoreConfig::default(),
            seed: 1,
            launch_writes_per_instr: 2,
            nda_queue_cap: 16,
            rank_partition: false,
            verify_fsm: true,
            nda_pa_order_walk: false,
            scheduler: SchedulerKind::default(),
            page_policy: PagePolicy::default(),
            packetized_latency: 0,
            fast_forward: true,
            ingress_latency: 0,
            // Matches the read-fill floor (tCL + burst = 20 for Table
            // II timing), so it costs no lookahead.
            completion_latency: 20,
            sim_threads: sim_threads_from_env(),
            fixed_window: false,
            trace_path: trace_path_from_env(),
            faults: FaultPlan::from_env(),
            retry_limit: 3,
            retry_backoff: 64,
            retry_backoff_cap: 4096,
            instr_timeout: 0,
        }
    }
}

impl ChopimConfig {
    /// The conservative-lookahead window: shards and the front-end may
    /// run this many cycles independently because no shard→front-end
    /// message can be delivered sooner after it is produced (read fills
    /// take ≥ tCL + burst cycles; completions take `completion_latency`).
    fn lookahead(&self) -> Cycle {
        let fill = Cycle::from(self.dram.timing.cl) + Cycle::from(self.dram.timing.bl);
        fill.min(Cycle::from(self.completion_latency.max(1))).max(1)
    }

    /// The in-flight launch timeout actually applied: the configured
    /// value, or (when 0) an automatic bound comfortably above the
    /// longest injected completion delay plus the delivery latency.
    fn effective_instr_timeout(&self) -> Cycle {
        if self.instr_timeout > 0 {
            return self.instr_timeout;
        }
        50_000
            .max(self.faults.completion_delay_cycles.saturating_mul(4))
            .max(self.faults.nda_hang_cycles.saturating_mul(4))
    }
}

/// One launch the front-end egressed and has not yet seen conclude: its
/// completion, keyed by `launch.instr.id`, resolves through this record,
/// which names the op, the chunk and the NDA; if no completion arrives
/// by `deadline` (never, without a fault plan) the launch is declared
/// lost and retried.
struct InflightRec {
    deadline: Cycle,
    launch: PendingLaunch,
}

chopim_dram::codec! { InflightRec { deadline, launch } }

/// The snapshot image of one host core. The host crate has no codec
/// dependency, so its exported state is encoded through this newtype.
struct CoreState(OooCoreState);

chopim_dram::codec! {
    CoreState(OooCoreState) {
        rng: fixed,
        rob,
        filled,
        outstanding,
        next_id,
        until_next_miss,
        stream_pos,
        stream_left,
        pending_wb_line,
        retired,
        cycles,
        reads_sent,
        writes_sent,
        dispatch_stall_cycles,
    }
}

/// The complete simulated machine.
pub struct ChopimSystem {
    /// The configuration the system was built with.
    pub cfg: ChopimConfig,
    mapper: Arc<PartitionedMapping>,
    cores: Vec<OooCore>,
    /// Per core, in fast-forward mode: `Some(c)` while the core sleeps
    /// (inert, so [`cpu_step`](Self::cpu_step) skips it), its counters
    /// current to CPU cycle `c`; `None` while it is awake. Derived, not
    /// encoded: every core starts awake, and the first CPU step puts an
    /// inert one back to sleep.
    sleeping: Vec<Option<u64>>,
    core_regions: Vec<Region>,
    /// One shard per channel; always synced to `self.now` between public
    /// calls.
    #[allow(clippy::vec_box, reason = "the pool moves each shard as a pointer")]
    shards: Vec<Box<ChannelShard>>,
    pool: Option<ShardPool>,
    /// The lookahead window length (cycles between shard barriers).
    window: Cycle,
    /// `(channel, rank)` per global NDA index (mirrors
    /// `runtime.nda_ranks()`).
    nda_local: Vec<(usize, usize)>,
    /// The runtime/API (allocate arrays, launch ops).
    pub runtime: Runtime,
    now: Cycle,
    cpu_accum: u32,
    cpu_cycles: u64,
    llc_outstanding: usize,
    /// Read fills on their way back to the cores: `(at, core, req)`.
    /// Shard runs are absorbed at barriers and sealed into pop order
    /// with one sort (see [`crate::exchange`]).
    fills: MergeQueue<(Cycle, usize, u64)>,
    /// NDA completions on their way to the runtime:
    /// `(at, instr id, status)`.
    completions: MergeQueue<CompletionMsg>,
    /// Resident relaunching workloads, pumped by the drive loop.
    streams: Vec<StreamState>,
    /// In-flight op → stream index: completion routing for stream
    /// resubmission. The drive loop drains the runtime's finished-op
    /// feed through this map instead of polling every stream every
    /// cycle, so the pump is O(completions), not O(streams).
    stream_of: BTreeMap<OpHandle, u32>,
    /// Per-channel outboxes: flat buffers of messages produced this
    /// window, swapped into the shard inboxes at the barrier (the
    /// double-buffered arena — see [`crate::exchange`]).
    egress: Vec<Vec<(Cycle, ShardInbound)>>,
    /// Per-channel ingress occupancy, the front-end's admission view:
    /// the shard's inbox length as of the last *grid-aligned* barrier,
    /// plus every message pushed since. Shards publish their drain
    /// progress only on the window grid, which keeps admission
    /// independent of how `run` calls are sliced.
    ingress_used: Vec<usize>,
    /// The launch the runtime released, waiting for ingress room.
    launch_stage: Option<PendingLaunch>,
    /// In-flight launch timeout (cycles): `Cycle::MAX` without a fault
    /// plan, so no launch ever times out.
    instr_timeout: Cycle,
    /// In-flight launch records, deadline-ordered (egress order).
    inflight: VecDeque<InflightRec>,
    /// Per-NDA launch credits: queue capacity minus instructions sent
    /// and not yet known complete. A conservative (delayed) view of the
    /// rank FSM's queue space — the shard-side queue can never overflow.
    nda_credit: Vec<usize>,
    next_launch: u64,
    nda_instrs_completed: u64,
    /// Front-end cycles actually executed (diagnostics).
    ticks_executed: u64,
    /// Front-end cycles leapt over (diagnostics).
    cycles_skipped: u64,
    finalized: bool,
    /// Whether [`write_trace`](Self::write_trace) already ran (capture
    /// drains on encode, so [`report`](Self::report) must not flush an
    /// empty second file over an explicit write).
    trace_flushed: bool,
}

impl ChopimSystem {
    /// Build the machine.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (these are programmer inputs).
    pub fn new(cfg: ChopimConfig) -> Self {
        cfg.dram.validate().expect("invalid DRAM config");
        assert!(
            !(cfg.rank_partition && cfg.reserved_banks > 0),
            "rank partitioning and bank partitioning are alternative modes"
        );
        assert!(
            cfg.completion_latency >= 1,
            "completion_latency must be >= 1"
        );
        assert!(
            (cfg.launch_writes_per_instr as usize) < INGRESS_CAP,
            "launch_writes_per_instr must be below the ingress capacity ({INGRESS_CAP})"
        );

        // Host mapping: full geometry in Chopim mode; the lower half of
        // each channel's ranks in rank-partitioning mode.
        let (host_geom, nda_ranks): (DramConfig, Vec<(usize, usize)>) = if cfg.rank_partition {
            let half = (cfg.dram.ranks_per_channel / 2).max(1);
            let geom = cfg.dram.clone().with_ranks(half);
            let ndas = (0..cfg.dram.channels)
                .flat_map(|c| (half..cfg.dram.ranks_per_channel).map(move |r| (c, r)))
                .collect();
            (geom, ndas)
        } else {
            let ndas = (0..cfg.dram.channels)
                .flat_map(|c| (0..cfg.dram.ranks_per_channel).map(move |r| (c, r)))
                .collect();
            (cfg.dram.clone(), ndas)
        };
        let inner = presets::skylake_like(&host_geom);
        let reserved = if cfg.rank_partition {
            0
        } else {
            cfg.reserved_banks
        };
        let mapper = Arc::new(PartitionedMapping::new(&host_geom, inner, reserved));

        // OS allocator: host rows below the shared boundary.
        let host_rows = (host_geom.rows as u64 * (host_geom.banks_per_rank() - reserved) as u64
            / host_geom.banks_per_rank() as u64) as u32;
        let allocator = ColoredAllocator::new(&host_geom, mapper.inner(), host_rows);

        let mut runtime = Runtime::new(
            cfg.dram.clone(),
            mapper.clone(),
            allocator,
            nda_ranks.clone(),
            cfg.rank_partition,
        );
        runtime.pa_order_walk = cfg.nda_pa_order_walk;

        // Host cores and their footprints.
        let mut cores = Vec::new();
        let mut core_regions = Vec::new();
        let profiles = cfg
            .custom_profiles
            .clone()
            .or_else(|| cfg.mix.map(|m| m.profiles()));
        if let Some(profiles) = profiles {
            for (i, profile) in profiles.into_iter().enumerate() {
                let rows = (profile.footprint_bytes / host_geom.system_row_bytes()).max(1);
                let region = runtime.alloc_host_region(rows as usize);
                cores.push(OooCore::new(cfg.core, profile, cfg.seed ^ (i as u64) << 8));
                core_regions.push(region);
            }
        }

        runtime.configure_recovery(cfg.retry_limit, cfg.retry_backoff, cfg.retry_backoff_cap);

        let params = ShardParams {
            policy: cfg.policy,
            fast_forward: cfg.fast_forward,
            verify_fsm: cfg.verify_fsm,
            packetized_latency: Cycle::from(cfg.packetized_latency),
            completion_latency: Cycle::from(cfg.completion_latency.max(1)),
            record_events: false,
            faults: cfg.faults,
        };
        let shards: Vec<Box<ChannelShard>> = (0..cfg.dram.channels)
            .map(|c| {
                Box::new(ChannelShard::build(
                    c,
                    &cfg.dram,
                    cfg.scheduler,
                    cfg.page_policy,
                    &nda_ranks,
                    cfg.nda_queue_cap,
                    cfg.seed,
                    params,
                ))
            })
            .collect();

        let n = nda_ranks.len();
        let nchannels = cfg.dram.channels;
        let pool = if cfg.sim_threads > 1 && nchannels > 1 {
            Some(ShardPool::new(cfg.sim_threads.min(nchannels), nchannels))
        } else {
            None
        };
        let window = cfg.lookahead();
        let cfg_queue_cap = cfg.nda_queue_cap;
        let instr_timeout = if cfg.faults.is_empty() {
            Cycle::MAX
        } else {
            cfg.effective_instr_timeout()
        };
        let mut sys = Self {
            cfg,
            mapper,
            sleeping: vec![None; cores.len()],
            cores,
            core_regions,
            shards,
            pool,
            window,
            nda_local: nda_ranks,
            runtime,
            now: 0,
            cpu_accum: 0,
            cpu_cycles: 0,
            llc_outstanding: 0,
            fills: MergeQueue::default(),
            completions: MergeQueue::default(),
            streams: Vec::new(),
            stream_of: BTreeMap::new(),
            egress: (0..nchannels).map(|_| Vec::new()).collect(),
            ingress_used: vec![0; nchannels],
            launch_stage: None,
            instr_timeout,
            inflight: VecDeque::new(),
            nda_credit: vec![cfg_queue_cap; n],
            next_launch: 0,
            nda_instrs_completed: 0,
            ticks_executed: 0,
            cycles_skipped: 0,
            finalized: false,
            trace_flushed: false,
        };
        if sys.cfg.trace_path.is_some() {
            sys.enable_trace_capture();
        }
        sys
    }

    /// Cycles executed one-by-one vs. leapt over, summed over the
    /// front-end and every shard (fast-forward telemetry).
    pub fn tick_stats(&self) -> (u64, u64) {
        let (mut t, mut s) = (self.ticks_executed, self.cycles_skipped);
        for shard in &self.shards {
            let (st, ss) = shard.tick_stats();
            t += st;
            s += ss;
        }
        (t, s)
    }

    /// Current DRAM cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// One channel's device state (stats inspection).
    pub fn channel(&self, ch: usize) -> &Channel {
        &self.shards[ch].channel
    }

    /// Aggregate device statistics across every channel.
    pub fn mem_stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for shard in &self.shards {
            s.add_channel(&shard.channel.stats);
        }
        s
    }

    /// The host address mapper.
    pub fn mapper(&self) -> &PartitionedMapping {
        &self.mapper
    }

    /// Aggregate host IPC so far.
    pub fn host_ipc(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc()).sum()
    }

    /// Scheduler queue dump for one channel (debugging aid).
    pub fn explain_mc(&self, ch: usize) -> String {
        self.shards[ch]
            .mc
            .explain(&self.shards[ch].channel, self.now)
    }

    /// Test support for the horizon property suite
    /// (`tests/horizon_props.rs`): for every shard, the uncapped event
    /// horizon it currently claims, paired with the earliest outbound
    /// message stamp it actually produces when run `span` cycles forward
    /// in isolation (no further front-end traffic; messages already in
    /// its inbox still deliver). Conservatism demands `claim <= stamp`
    /// for every produced message. Running the shards ahead desyncs
    /// them from the front-end, so callers must discard the system
    /// afterwards.
    #[doc(hidden)]
    pub fn probe_shard_horizon_conservatism(&mut self, span: Cycle) -> Vec<(Cycle, Option<Cycle>)> {
        self.shards
            .iter_mut()
            .map(|sh| {
                let claim = sh.horizon();
                let fills_before = sh.fills_out.len();
                let comps_before = sh.completions_out.len();
                let target = sh.now + span;
                sh.run_to(target);
                let first = sh.fills_out[fills_before..]
                    .iter()
                    .map(|&(t, _, _)| t)
                    .chain(
                        sh.completions_out[comps_before..]
                            .iter()
                            .map(|&(t, _, _)| t),
                    )
                    .min();
                (claim, first)
            })
            .collect()
    }

    /// One-line internal state summary (debugging aid).
    pub fn debug_state(&self) -> String {
        format!(
            "llc={} fills={} completions={} core_out={:?} rq={:?} wq={:?} stage={} credits={:?}",
            self.llc_outstanding,
            self.fills.len(),
            self.completions.len(),
            self.cores
                .iter()
                .map(|c| c.outstanding_misses())
                .collect::<Vec<_>>(),
            self.shards
                .iter()
                .map(|s| s.mc.read_queue_len())
                .collect::<Vec<_>>(),
            self.shards
                .iter()
                .map(|s| s.mc.write_queue_len())
                .collect::<Vec<_>>(),
            usize::from(self.launch_stage.is_some()),
            self.nda_credit,
        )
    }

    /// Free slots in channel `ch`'s ingress queue, as admissible by the
    /// front-end this window (see `ingress_used`).
    fn ingress_free(&self, ch: usize) -> usize {
        INGRESS_CAP.saturating_sub(self.ingress_used[ch])
    }

    /// One front-end cycle at `self.now`: deliver due shard messages,
    /// step the cores, stage launches. The caller advances `self.now`.
    fn fe_tick(&mut self) {
        let now = self.now;
        self.ticks_executed += 1;
        self.runtime.clock = now;

        // 1. NDA completions that became host-visible.
        while let Some(&(t, id, status)) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            self.resolve_completion(id, status, now);
        }

        // 1b. In-flight launch timeouts (fault recovery): a launch whose
        // completion is overdue is declared lost — its credit comes back
        // and the runtime schedules a retry. Deadlines are egress-ordered,
        // so only the queue front needs checking; without a fault plan
        // every deadline is `Cycle::MAX`.
        while self.inflight.front().is_some_and(|rec| rec.deadline <= now) {
            let rec = self.inflight.pop_front().expect("checked");
            self.nda_credit[rec.launch.nda_idx] += 1;
            self.runtime.credit_returned(rec.launch.nda_idx);
            self.runtime.counters.instr_timeouts += 1;
            self.runtime.instr_failed(rec.launch, now, false);
        }
        // Per-op deadlines (free while none are armed; independent of
        // fault injection — `OpBuilder::deadline` works on any machine).
        self.runtime.check_deadlines(now);

        // 2. Read fills due at the cores. A sleeping core first catches
        // up to the CPU clock, and wakes only if the fill unblocks it (a
        // fill for a miss behind the ROB head leaves it inert).
        while let Some(&(t, i, req)) = self.fills.peek() {
            if t > now {
                break;
            }
            self.fills.pop();
            let core = &mut self.cores[i];
            if let Some(since) = self.sleeping[i] {
                catch_up(core, since, self.cpu_cycles);
                core.fill(req);
                self.sleeping[i] = core.is_inert().then_some(self.cpu_cycles);
            } else {
                core.fill(req);
            }
            self.llc_outstanding -= 1;
        }

        // 3. CPU cycles (4 GHz vs 1.2 GHz bus).
        self.cpu_accum += CPU_CLOCK_NUM;
        while self.cpu_accum >= CPU_CLOCK_DEN {
            self.cpu_accum -= CPU_CLOCK_DEN;
            self.cpu_cycles += 1;
            self.cpu_step(now);
        }

        // 4. Stage at most one NDA instruction launch per cycle. The
        // pre-stage pass first expires retry wake-ups, so a hold that
        // ends this very cycle is stageable in the same arbitration pass.
        self.runtime.pre_stage(now);
        if self.launch_stage.is_none() {
            self.launch_stage = self.runtime.next_launch(|i| self.nda_credit[i], now);
        }
        // The staged launch can go stale: its op may have concluded
        // (deadline, failure), or its target NDA may have been
        // quarantined since staging. A dropped launch never spends the
        // credit it was staged against, so that credit wakes the NDA's
        // next waiter as a returned one would.
        let runtime = &mut self.runtime;
        if let Some(stale) = self.launch_stage.take_if(|l| runtime.op_done(l.op)) {
            runtime.credit_returned(stale.nda_idx);
        }
        if let Some(l) = &mut self.launch_stage {
            l.nda_idx = runtime.redirect_live(l.nda_idx);
        }
        if let Some(head) = &self.launch_stage {
            let (ch, rank) = self.nda_local[head.nda_idx];
            let k = self.cfg.launch_writes_per_instr.max(1);
            // The launch occupies k write slots plus its payload
            // side-band in the ingress queue. A quarantine can redirect
            // it to a survivor with no credit left: it then waits here
            // for one.
            if self.ingress_free(ch) > k as usize && self.nda_credit[head.nda_idx] > 0 {
                let head = self.launch_stage.take().expect("checked");
                let id = self.next_launch;
                self.next_launch += 1;
                let delay = Cycle::from(self.cfg.ingress_latency)
                    + Cycle::from(self.cfg.packetized_latency);
                let local = self.shards[ch].local_of(rank);
                self.egress[ch].push((
                    now + delay,
                    ShardInbound::Launch {
                        id,
                        nda_local: local,
                        instr: head.instr.clone(),
                        writes: k,
                    },
                ));
                // Control-register writes: a fixed row in the top bank.
                let ctrl_row = (self.cfg.dram.rows - 1) as u32;
                let flat = self.cfg.dram.banks_per_rank() - 1;
                for w in 0..k {
                    let addr = chopim_dram::DramAddress {
                        channel: ch,
                        rank,
                        bankgroup: flat / self.cfg.dram.banks_per_group,
                        bank: flat % self.cfg.dram.banks_per_group,
                        row: ctrl_row,
                        col: (id as u32 * k + w) % self.cfg.dram.lines_per_row() as u32,
                    };
                    self.egress[ch].push((
                        now + delay,
                        ShardInbound::Tx(HostTransaction {
                            addr,
                            is_write: true,
                            meta: TxMeta::Launch { launch: id },
                            arrival: now,
                        }),
                    ));
                }
                self.ingress_used[ch] += k as usize + 1;
                self.nda_credit[head.nda_idx] -= 1;
                self.inflight.push_back(InflightRec {
                    deadline: now.saturating_add(self.instr_timeout),
                    launch: head,
                });
            }
        }
    }

    /// Resolve a delivered completion against the in-flight records:
    /// the record names the op, the chunk and the NDA whose credit comes
    /// back. A completion with no record (its launch already timed out
    /// and was resolved) is an orphan and is dropped; its credit came
    /// back at timeout time.
    fn resolve_completion(&mut self, id: u64, status: u8, now: Cycle) {
        let pos = (self.inflight.iter()).position(|rec| rec.launch.instr.id == id);
        let Some(rec) = pos.and_then(|pos| self.inflight.remove(pos)) else {
            return;
        };
        let launch = rec.launch;
        self.nda_credit[launch.nda_idx] += 1;
        self.runtime.credit_returned(launch.nda_idx);
        if status == COMPLETION_OK {
            self.nda_instrs_completed += 1;
            self.runtime.instr_completed(launch.op, launch.chunk, now);
        } else {
            if status == COMPLETION_RANK_DEAD {
                self.runtime.quarantine(launch.nda_idx);
            }
            self.runtime
                .instr_failed(launch, now, status == COMPLETION_RANK_DEAD);
        }
    }

    /// One CPU cycle of every awake core, in core order. In fast-forward
    /// mode a core this step leaves inert goes to sleep, current to this
    /// CPU cycle: until a fill wakes it, the step is a pure counter
    /// increment, which the catch-up on wake (or at the end of a drive
    /// call) applies in one [`OooCore::advance_inert`]. An inert core
    /// sends no request, so skipping it keeps the (CPU cycle, core)
    /// order of requests into the LLC MSHRs and the ingress queues.
    fn cpu_step(&mut self, now: Cycle) {
        let Self {
            cores,
            sleeping,
            core_regions,
            mapper,
            llc_outstanding,
            egress,
            ingress_used,
            cfg,
            cpu_cycles,
            ..
        } = self;
        let delay = Cycle::from(cfg.ingress_latency) + Cycle::from(cfg.packetized_latency);
        let mut stepped = 0;
        for (i, (core, sleep)) in cores.iter_mut().zip(sleeping.iter_mut()).enumerate() {
            if sleep.is_some() {
                continue;
            }
            let region = &core_regions[i];
            let mut sink = |req: chopim_host::MemRequest| -> bool {
                let offset = (req.line * 64) % region.len_bytes();
                let d = mapper.map_pa(region.pa_of(offset));
                let tx = if req.is_write {
                    HostTransaction {
                        addr: d,
                        is_write: true,
                        meta: TxMeta::CoreWrite,
                        arrival: now,
                    }
                } else {
                    if *llc_outstanding >= LLC_MSHRS {
                        return false;
                    }
                    HostTransaction {
                        addr: d,
                        is_write: false,
                        meta: TxMeta::CoreRead {
                            core: i,
                            req: req.id,
                        },
                        arrival: now,
                    }
                };
                // Bounded ingress: the front-end's occupancy view is its
                // own pushes plus the shard's drain progress as of the
                // last grid-aligned barrier.
                if ingress_used[d.channel] >= INGRESS_CAP {
                    return false;
                }
                ingress_used[d.channel] += 1;
                egress[d.channel].push((now + delay, ShardInbound::Tx(tx)));
                if !tx.is_write {
                    *llc_outstanding += 1;
                }
                true
            };
            core.cpu_cycle(&mut sink);
            stepped += 1;
            if cfg.fast_forward && core.is_inert() {
                *sleep = Some(*cpu_cycles);
            }
        }
        perfcount::add(Counter::CoreCyclesStepped, stepped);
    }

    /// Bring every sleeping core's counters up to the CPU clock (it
    /// stays asleep), so accessors and snapshots between drive calls
    /// read exact values.
    fn catch_up_sleepers(&mut self) {
        for (core, sleep) in self.cores.iter_mut().zip(&mut self.sleeping) {
            if let Some(since) = sleep {
                catch_up(core, *since, self.cpu_cycles);
                *since = self.cpu_cycles;
            }
        }
    }

    /// Earliest cycle at or after `self.now` at which the front-end
    /// could act, assuming no new shard messages (those are exchanged at
    /// barriers, which re-compute horizons). Sleeping cores are inert by
    /// construction, so only awake ones are asked: the front-end leaps
    /// exactly when every core is inert.
    fn fe_horizon(&self) -> Cycle {
        let now = self.now;
        let mut cores = self.cores.iter().zip(&self.sleeping);
        if cores.any(|(c, sleep)| sleep.is_none() && !c.is_inert()) {
            return now;
        }
        if self.launch_stage.is_some() {
            return now;
        }
        if self.runtime.launch_ready() {
            return now;
        }
        let mut h = Cycle::MAX;
        if let Some(&(t, _, _)) = self.completions.peek() {
            h = h.min(t);
        }
        if let Some(&(t, _, _)) = self.fills.peek() {
            h = h.min(t);
        }
        // Recovery wake sources must be cycle-exact on every engine:
        // in-flight timeouts, retry-hold expiries, and armed deadlines.
        if let Some(rec) = self.inflight.front() {
            h = h.min(rec.deadline);
        }
        if let Some(w) = self.runtime.next_recovery_wake(now) {
            h = h.min(w);
        }
        h.max(now)
    }

    /// Leap the front-end to `target`: the CPU clock divider advances in
    /// closed form. The cores are all asleep (the leap needs every core
    /// inert, and a step puts an inert core to sleep), so they catch up
    /// when a fill wakes them or the drive call ends.
    fn fe_skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now);
        debug_assert!(
            self.sleeping.iter().all(Option::is_some),
            "leap past an awake core"
        );
        let n = target - self.now;
        self.cycles_skipped += n;
        let total = u64::from(self.cpu_accum) + u64::from(CPU_CLOCK_NUM) * n;
        let steps = total / u64::from(CPU_CLOCK_DEN);
        self.cpu_accum = (total % u64::from(CPU_CLOCK_DEN)) as u32;
        self.cpu_cycles += steps;
        self.now = target;
        self.runtime.clock = target;
    }

    /// In fast-forward mode, leap the front-end to its horizon within
    /// the current window (never past `limit`).
    fn fe_maybe_skip(&mut self, limit: Cycle) {
        if !self.cfg.fast_forward || self.now >= limit {
            return;
        }
        let h = self.fe_horizon().min(limit);
        if h > self.now {
            self.fe_skip_to(h);
        }
    }

    /// The end of the current lookahead window, clamped to `limit`.
    /// Windows lie on an absolute grid so the schedule (and therefore
    /// the report) is independent of how `run` calls are sliced.
    fn window_end(&self, limit: Cycle) -> Cycle {
        ((self.now / self.window + 1) * self.window).min(limit)
    }

    /// Barrier: hand this window's outbound messages to the shards, run
    /// every shard up to `target` (on the pool when configured), then
    /// collect their outboxes. The ingress occupancy view is refreshed
    /// only at *grid-aligned* barriers: an early-exit barrier (a stop
    /// predicate firing mid-window) must not let the front-end observe
    /// shard drain progress sooner than an unsliced run would, or the
    /// schedule — and the report — would depend on how `run` calls are
    /// sliced.
    fn advance_shards(&mut self, target: Cycle) {
        let on_grid = target.is_multiple_of(self.window);
        perfcount::bump(Counter::Barriers);
        let mut exchanged = 0u64;
        for (ch, q) in self.egress.iter_mut().enumerate() {
            exchanged += q.len() as u64;
            // Double-buffer handoff: the shard gets the full buffer, the
            // front-end keeps the shard's drained one for next window.
            self.shards[ch].inbox.absorb(q);
        }
        perfcount::add(Counter::WindowsExecuted, self.shards.len() as u64);
        match &mut self.pool {
            Some(pool) => pool.run(&mut self.shards, target),
            None => {
                for shard in &mut self.shards {
                    let prev = perfcount::set_scope(1 + shard.channel_idx());
                    shard.run_to(target);
                    perfcount::set_scope(prev);
                }
            }
        }
        for shard in &mut self.shards {
            exchanged += (shard.fills_out.len() + shard.completions_out.len()) as u64;
            self.fills.absorb_run(&mut shard.fills_out);
            self.completions.absorb_run(&mut shard.completions_out);
            if perfcount::ENABLED {
                let prev = perfcount::set_scope(1 + shard.channel_idx());
                perfcount::hi(Counter::ArenaHighWater, shard.inbox_high_water() as u64);
                perfcount::set_scope(prev);
            }
            if on_grid {
                self.ingress_used[shard.channel_idx()] = shard.inbox.len();
            }
        }
        self.fills.seal();
        self.completions.seal();
        perfcount::add(Counter::MessagesExchanged, exchanged);
    }

    /// At a barrier (shards synced to `self.now`), leap the whole
    /// machine to the global event horizon when everything is provably
    /// idle — the cross-window fast-forward that keeps idle-heavy
    /// scenarios nearly free.
    fn maybe_global_skip(&mut self, limit: Cycle) {
        if !self.cfg.fast_forward || self.now >= limit {
            return;
        }
        let mut h = self.fe_horizon();
        if h <= self.now {
            return;
        }
        for shard in &self.shards {
            h = h.min(shard.horizon());
            if h <= self.now {
                return;
            }
        }
        let h = h.min(limit);
        if h > self.now {
            for shard in &mut self.shards {
                shard.skip_to(h);
            }
            self.fe_skip_to(h);
        }
    }

    /// Pump streams off the runtime's finished-op feed: a stream whose
    /// current op has retired submits its next op immediately, so
    /// staging resumes on the very next front-end cycle — the same
    /// cadence the old poll-every-stream loop enforced, but costed per
    /// completion event instead of per stream per cycle (the pump is
    /// what keeps thousand-stream scenarios O(active)). An op that
    /// concludes instantly inside its own resubmission re-enters the
    /// feed, so chains drain in one call.
    fn pump_streams(
        streams: &mut [StreamState],
        stream_of: &mut BTreeMap<OpHandle, u32>,
        rt: &mut Runtime,
    ) {
        while let Some(h) = rt.pop_finished() {
            let Some(si) = stream_of.remove(&h) else {
                continue;
            };
            let st = &mut streams[si as usize];
            if !st.active {
                continue;
            }
            st.completions += 1;
            st.cur = (st.make)(rt, st.sess);
            stream_of.insert(st.cur, si);
        }
    }

    /// The engine driver behind every public drive entry point: advance
    /// in lookahead windows until `end`, stopping as soon as `ctrl`
    /// returns `true`. `ctrl` gets the runtime mutably (stream pumping
    /// rides on the same loop) and is re-evaluated
    /// around every front-end cycle — a stop-triggering cycle is never
    /// skipped past, so the consumed-cycle count matches the naive loop
    /// — and shards always end synced to `self.now`, sleeping cores
    /// caught up to the CPU clock.
    fn drive_loop(&mut self, end: Cycle, ctrl: &mut dyn FnMut(&mut Runtime) -> bool) {
        'outer: while self.now < end {
            Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
            if ctrl(&mut self.runtime) {
                break;
            }
            let target = self.window_end(end);
            while self.now < target {
                self.fe_tick();
                self.now += 1;
                Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
                if ctrl(&mut self.runtime) {
                    self.advance_shards(self.now);
                    break 'outer;
                }
                self.fe_maybe_skip(target);
            }
            self.advance_shards(self.now);
            Self::pump_streams(&mut self.streams, &mut self.stream_of, &mut self.runtime);
            if ctrl(&mut self.runtime) {
                break;
            }
            self.maybe_global_skip(end);
        }
        self.catch_up_sleepers();
    }

    /// Run for `cycles` DRAM cycles (pumping any active streams).
    pub fn run(&mut self, cycles: Cycle) {
        self.drive_loop(self.now + cycles, &mut |_| false);
    }

    /// Drive the machine until `until` is satisfied (or `max` cycles
    /// elapse). Returns the cycles consumed.
    ///
    /// This is the single drive entry point the old bespoke loops
    /// collapsed into: pass an [`OpHandle`] to wait for one op, a
    /// `Vec<OpHandle>` / [`Waitable::all_of`] for a set, a [`Session`]
    /// for session-quiescence, or [`Waitable::Quiescent`] for the whole
    /// machine.
    pub fn drive(&mut self, until: impl Into<Waitable>, max: Cycle) -> Cycle {
        let until = until.into();
        let start = self.now;
        self.drive_loop(start.saturating_add(max), &mut |rt| until.satisfied(rt));
        debug_assert!(
            !(matches!(until, Waitable::Quiescent) && self.runtime.quiescent())
                || self.launch_stage.is_none(),
            "quiescent runtime implies an empty launch stage"
        );
        self.now - start
    }

    /// Spawn a resident relaunching workload on `sess`: `make` submits
    /// one op; whenever it retires, `make` is called again — keeping the
    /// tenant's traffic live for a whole measurement window (the §VI
    /// methodology). Streams are pumped by [`run`](Self::run) and
    /// [`drive`](Self::drive); concurrent streams on different sessions
    /// share the machine under the runtime's fair-share arbitration.
    pub fn spawn_stream(
        &mut self,
        sess: Session,
        mut make: impl FnMut(&mut Runtime, Session) -> OpHandle + Send + 'static,
    ) -> StreamId {
        let cur = make(&mut self.runtime, sess);
        self.streams.push(StreamState {
            sess,
            cur,
            make: Box::new(make),
            completions: 0,
            active: true,
        });
        let id = self.streams.len() - 1;
        self.stream_of.insert(cur, id as u32);
        StreamId(id)
    }

    /// Ops the stream has completed so far (the in-flight op counts only
    /// once it retires).
    pub fn stream_completions(&self, id: StreamId) -> u64 {
        self.streams[id.0].completions
    }

    /// Stop relaunching: the stream's in-flight op still runs to
    /// completion, but nothing new is submitted. Returns the completion
    /// count.
    pub fn stop_stream(&mut self, id: StreamId) -> u64 {
        self.streams[id.0].active = false;
        self.stream_of.remove(&self.streams[id.0].cur);
        self.streams[id.0].completions
    }

    /// True while every host-side shadow FSM matches its rank's FSM.
    pub fn fsm_in_sync(&self) -> bool {
        self.shards.iter().all(|s| s.fsm_in_sync())
    }

    /// NDA instructions completed so far (as observed by the host: a
    /// completion counts when its delivery message arrives).
    pub fn nda_instrs_completed(&self) -> u64 {
        self.nda_instrs_completed
    }

    /// Build the metrics report for the window `[0, now)`.
    ///
    /// The first call also flushes the captured event trace to
    /// [`ChopimConfig::trace_path`] if one is configured; a write
    /// failure warns on stderr rather than aborting the run.
    pub fn report(&mut self) -> SimReport {
        if !self.finalized {
            for shard in &mut self.shards {
                shard.channel.stats.finalize(self.now);
            }
            self.finalized = true;
            if let Err(e) = self.flush_trace_once() {
                eprintln!(
                    "[trace] failed to write {:?}: {e}",
                    self.cfg
                        .trace_path
                        .as_deref()
                        .unwrap_or(std::path::Path::new("?"))
                );
            }
        }
        let dram = self.mem_stats();
        let per_core_ipc: Vec<f64> = self.cores.iter().map(|c| c.ipc()).collect();
        let host_ipc = per_core_ipc.iter().sum();
        let seconds = self.now as f64 / 1.2e9;
        let nda_bytes = (dram.reads_nda + dram.writes_nda) * 64;
        let host_bytes = (dram.reads_host + dram.writes_host) * 64;
        let core_bytes: u64 = self
            .cores
            .iter()
            .map(|c| (c.reads_sent() + c.writes_sent()) * 64)
            .sum();

        // Idealized NDA bandwidth: all rank cycles the host leaves idle.
        let mut ideal_cycles = 0u64;
        let mut idle_histograms = Vec::new();
        for &(c, r) in self.runtime.nda_ranks() {
            let rs = &self.shards[c].channel.stats.ranks[r];
            ideal_cycles += self.now.saturating_sub(rs.host_data_cycles);
            idle_histograms.push(rs.idle.clone());
        }
        // Each busy data cycle moves `line_bytes / bl` bytes; utilization
        // is the cycle ratio.
        let nda_bw_utilization = if ideal_cycles == 0 {
            0.0
        } else {
            dram.nda_data_cycles as f64 / ideal_cycles as f64
        };

        let n_pes = self.cfg.dram.chips_per_rank * self.runtime.nda_ranks().len();
        let energy = energy::compute(
            &EnergyParams::default(),
            &dram,
            &self.runtime.pe_activity,
            self.now,
            self.cfg.dram.line_bytes(),
            n_pes,
        );
        let (hits, misses) = self.shards.iter().fold((0, 0), |(h, m), s| {
            (h + s.mc.row_hits(), m + s.mc.row_misses)
        });
        let (lat, nreads) = self.shards.iter().fold((0, 0), |(l, n), s| {
            (l + s.mc.read_latency_sum, n + s.mc.reads_completed)
        });
        SimReport {
            cycles: self.now,
            cpu_cycles: self.cpu_cycles,
            host_ipc,
            per_core_ipc,
            nda_bytes,
            nda_bw_gbs: if seconds > 0.0 {
                nda_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            host_bw_gbs: if seconds > 0.0 {
                host_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            core_bw_gbs: if seconds > 0.0 {
                core_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            nda_bw_utilization,
            idle_histograms,
            host_row_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            avg_read_latency: if nreads > 0 {
                lat as f64 / nreads as f64
            } else {
                0.0
            },
            dram,
            energy,
            nda_instrs_completed: self.nda_instrs_completed,
            nda_write_throttle_stalls: self
                .shards
                .iter()
                .flat_map(|s| s.ndas.iter())
                .map(|n| n.write_throttle_stalls)
                .sum(),
            faults: self.fault_report(),
            tenants: self.runtime.tenant_reports(),
        }
    }

    /// Injection counters summed over shards plus the runtime's
    /// recovery-side accounting.
    #[cold]
    fn fault_report(&self) -> FaultReport {
        let mut fr = FaultReport::default();
        for shard in &self.shards {
            shard.add_fault_counts(&mut fr);
        }
        let rc = self.runtime.recovery_counters();
        fr.instr_retries = rc.instr_retries;
        fr.instr_timeouts = rc.instr_timeouts;
        fr.ops_failed = rc.ops_failed;
        fr.ops_timed_out = rc.ops_timed_out;
        fr.ops_dep_failed = rc.ops_dep_failed;
        fr.host_fallbacks = rc.host_fallbacks;
        fr.ranks_quarantined = rc.ranks_quarantined;
        fr.max_retry_backoff = rc.max_retry_backoff;
        fr
    }

    // --- Snapshot / restore -------------------------------------------

    /// Stable fingerprint of the *semantic* configuration: every knob
    /// that shapes machine structure or simulated behavior, and none of
    /// the engine-mode knobs (`sim_threads`, `fast_forward`,
    /// `verify_fsm`, `trace_path`, and the inert `fixed_window`) — a
    /// snapshot captured under one engine mode may legitimately resume
    /// under another, since all modes produce bit-identical schedules.
    #[cold]
    fn snapshot_fingerprint(cfg: &ChopimConfig) -> u64 {
        let desc = format!(
            "dram={:016x} reserved={} policy={:?} mix={:?} profiles={:?} core={:?} seed={} \
             launch_writes={} queue_cap={} rank_partition={} pa_order={} sched={:?} page={:?} \
             packetized={} ingress={} completion={} faults={:?} retry={}/{}/{} timeout={}",
            cfg.dram.state_fingerprint(),
            cfg.reserved_banks,
            cfg.policy,
            cfg.mix,
            cfg.custom_profiles,
            cfg.core,
            cfg.seed,
            cfg.launch_writes_per_instr,
            cfg.nda_queue_cap,
            cfg.rank_partition,
            cfg.nda_pa_order_walk,
            cfg.scheduler,
            cfg.page_policy,
            cfg.packetized_latency,
            cfg.ingress_latency,
            cfg.completion_latency,
            cfg.faults,
            cfg.retry_limit,
            cfg.retry_backoff,
            cfg.retry_backoff_cap,
            cfg.effective_instr_timeout(),
        );
        fnv1a(desc.as_bytes())
    }

    /// Capture the complete deterministic machine state as a versioned,
    /// checksummed binary image (`docs/SNAPSHOT_FORMAT.md`). Resuming
    /// the image with [`resume`](Self::resume) — under *any* engine mode
    /// — continues bit-identically to a run that never snapshotted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ActiveStreams`] if any op stream was spawned
    /// (stream generators are opaque closures and cannot be captured);
    /// [`SnapshotError::Finalized`] after [`report`](Self::report) has
    /// finalized the statistics.
    #[cold]
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        if !self.streams.is_empty() {
            return Err(SnapshotError::ActiveStreams);
        }
        if self.finalized {
            return Err(SnapshotError::Finalized);
        }
        let mut w = ByteWriter::new();
        w.u64(Self::snapshot_fingerprint(&self.cfg));
        self.encode_state(&mut w);
        Ok(write_framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, w.finish()))
    }

    /// Rebuild a machine from a [`snapshot`](Self::snapshot) image.
    ///
    /// `cfg` must agree with the capture's configuration on every
    /// semantic knob (checked via the embedded fingerprint); the
    /// engine-mode knobs (`sim_threads`, `fast_forward`, `verify_fsm`,
    /// `trace_path`, and the inert `fixed_window`) are free — resuming
    /// one image serially, on the pool, or under the naive loop produces
    /// bit-identical [`SimReport`]s.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]: framing damage ([`CodecError::BadMagic`],
    /// [`CodecError::BadVersion`], [`CodecError::BadChecksum`],
    /// [`CodecError::Truncated`]), a configuration that does not match
    /// the capture ([`CodecError::ConfigMismatch`]), or a payload whose
    /// fields fail validation ([`CodecError::Corrupt`]).
    #[cold]
    pub fn resume(cfg: ChopimConfig, bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = read_framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        let mut sys = Self::new(cfg);
        let mut r = ByteReader::new(payload);
        if r.u64()? != Self::snapshot_fingerprint(&sys.cfg) {
            return Err(CodecError::ConfigMismatch);
        }
        sys.decode_state(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        sys.validate()?;
        sys.runtime.rebuild_derived();
        Ok(sys)
    }

    /// The resume validation step: every index a restored message or
    /// record carries must address this machine (NDAs, shards, the
    /// runtime's op table), each core's miss accounting must be
    /// consistent, every core read in flight must answer an unfilled
    /// miss of its core, each NDA's launch credits plus the in-flight
    /// records targeting it must equal its queue capacity, in-flight
    /// deadlines must be in egress order (the O(1) front-scan timeout
    /// depends on it), and, without a fault plan, every in-flight
    /// record must pair with its instruction.
    #[cold]
    fn validate(&self) -> Result<(), CodecError> {
        let n_ndas = self.nda_local.len();
        let handle_ok = |h: OpHandle| self.runtime.handle_in_range(h);
        self.runtime.validate()?;
        for core in &self.cores {
            core.validate().map_err(CodecError::Corrupt)?;
        }
        // Reads in flight (egress, inbox, MC queue, outbound and
        // delivered-pending fills) and unfilled misses pair one to one:
        // a fill for anything else would underflow the core's count.
        let mut reads: Vec<(usize, u64)> = (self.fills.live().iter())
            .map(|&(_, core, req)| (core, req))
            .collect();
        for (s, egress) in self.shards.iter().zip(&self.egress) {
            reads.extend(s.core_reads(egress));
        }
        reads.sort_unstable();
        let mut misses: Vec<(usize, u64)> = (self.cores.iter().enumerate())
            .flat_map(|(i, core)| core.unfilled_misses().map(move |id| (i, id)))
            .collect();
        misses.sort_unstable();
        check(reads == misses, "core read in flight for no unfilled miss")?;
        check(
            self.llc_outstanding == reads.len(),
            "LLC miss count differs from the reads in flight",
        )?;
        for &(_, _, status) in self.completions.live() {
            check(status <= COMPLETION_RANK_DEAD, "completion status")?;
        }
        let inflight = self.inflight.iter().map(|rec| &rec.launch);
        for pl in self.launch_stage.iter().chain(inflight) {
            check(pl.nda_idx < n_ndas, "launch NDA index out of range")?;
            check(handle_ok(pl.op), "op handle out of range")?;
        }
        let deadlines = self.inflight.iter().map(|rec| rec.deadline);
        check(deadlines.is_sorted(), "inflight deadlines out of order")?;
        // Every egress spends a credit and pushes a record; every resolved
        // completion or timeout pops one and returns its credit.
        let mut held = self.nda_credit.clone();
        for rec in &self.inflight {
            held[rec.launch.nda_idx] = held[rec.launch.nda_idx].saturating_add(1);
        }
        check(
            held.iter().all(|&n| n == self.cfg.nda_queue_cap),
            "launch credits disagree with the launches in flight",
        )?;
        let mut shards = self.shards.iter().zip(&self.egress);
        let next_launch = self.next_launch;
        shards.try_for_each(|(s, egress)| s.validate(egress, next_launch))?;
        // Under faults a timed-out record leaves its instruction behind,
        // and a dropped completion leaves its record behind.
        if self.cfg.faults.is_empty() {
            self.validate_instrs()?;
        }
        Ok(())
    }

    /// Without a fault plan, each in-flight record's instruction is in
    /// exactly one place: a launch message or launch record bound for the
    /// record's NDA, that NDA's FSM, or a completion on its way back.
    #[cold]
    fn validate_instrs(&self) -> Result<(), CodecError> {
        let completions = self.completions.live().iter();
        let mut held: Vec<(u64, Option<(usize, usize)>)> =
            completions.map(|&(_, id, _)| (id, None)).collect();
        for (ch, (s, egress)) in self.shards.iter().zip(&self.egress).enumerate() {
            let instrs = s.instrs(egress).into_iter();
            held.extend(instrs.map(|(nda, id)| (id, nda.map(|local| (ch, local)))));
        }
        held.sort_unstable();
        let mut recs: Vec<(u64, (usize, usize))> = (self.inflight.iter())
            .map(|rec| {
                let (ch, rank) = self.nda_local[rec.launch.nda_idx];
                (rec.launch.instr.id, (ch, self.shards[ch].local_of(rank)))
            })
            .collect();
        recs.sort_unstable();
        let pairs = || held.iter().zip(&recs);
        check(
            held.len() == recs.len() && pairs().all(|(h, r)| h.0 == r.0),
            "in-flight records and instructions do not pair",
        )?;
        check(
            pairs().all(|(h, r)| h.1.is_none_or(|nda| nda == r.1)),
            "instruction held off its record's NDA",
        )
    }

    // --- Event-trace capture ------------------------------------------

    /// Start recording the event trace: every DRAM command on every
    /// channel, every NDA launch delivery, and every instruction
    /// completion. Implied at construction when
    /// [`ChopimConfig::trace_path`] is set. Capture only appends to
    /// side logs — it never changes simulated behavior.
    #[cold]
    pub fn enable_trace_capture(&mut self) {
        for shard in &mut self.shards {
            shard.set_record_events(true);
            shard.channel.enable_trace();
        }
    }

    /// Drain the captured events, merged over channels into
    /// non-decreasing cycle order (ties keep channel order, commands
    /// before launches before completions — per-channel command order is
    /// application order, which replay re-validates).
    #[cold]
    pub fn trace_events(&mut self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::new();
        for (c, shard) in self.shards.iter_mut().enumerate() {
            let channel = c as u32;
            events.extend(
                shard
                    .channel
                    .take_trace()
                    .into_iter()
                    .map(|(cycle, cmd, issuer)| TraceEvent::Cmd {
                        cycle,
                        channel,
                        cmd,
                        issuer,
                    }),
            );
            events.extend(std::mem::take(&mut shard.launch_log).into_iter().map(
                |(cycle, nda_local, instr_id)| TraceEvent::Launch {
                    cycle,
                    channel,
                    nda_local,
                    instr_id,
                },
            ));
            events.extend(
                std::mem::take(&mut shard.completion_log)
                    .into_iter()
                    .map(|(cycle, instr_id)| TraceEvent::Completion { cycle, instr_id }),
            );
        }
        events.sort_by_key(|e| e.cycle());
        events
    }

    /// Drain the captured events and encode them in the
    /// `docs/TRACE_FORMAT.md` binary format (replayable with
    /// [`chopim_dram::trace::replay_bytes`]).
    #[cold]
    pub fn trace_bytes(&mut self) -> Vec<u8> {
        let events = self.trace_events();
        encode_trace(self.cfg.dram.state_fingerprint(), self.now, &events)
    }

    /// Write the captured trace to [`ChopimConfig::trace_path`].
    /// Returns the path written, or `None` when no path is configured.
    /// Called automatically by the first [`report`](Self::report), so
    /// explicit calls are only needed to flush mid-run. Encoding drains
    /// the capture, so each call writes only events since the last one.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    #[cold]
    pub fn write_trace(&mut self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.cfg.trace_path.clone() else {
            return Ok(None);
        };
        let bytes = self.trace_bytes();
        std::fs::write(&path, bytes)?;
        self.trace_flushed = true;
        Ok(Some(path))
    }

    /// [`report`](Self::report)'s auto-flush: a no-op once
    /// [`write_trace`](Self::write_trace) has run, since the drained
    /// capture would otherwise overwrite the file with an empty trace.
    #[cold]
    fn flush_trace_once(&mut self) -> std::io::Result<Option<PathBuf>> {
        if self.trace_flushed {
            return Ok(None);
        }
        self.write_trace()
    }
}

// The machine image, in byte order, after the configuration fingerprint
// `snapshot`/`resume` frame it with. Not stored: the resident streams
// and their routing map (opaque closures — `snapshot` refuses while any
// exist), the finalized and trace-flush flags (a resumed machine starts
// with neither), and everything the constructor derives from the
// configuration.
chopim_dram::codec! {
    in_place(pub(crate)) ChopimSystem {
        now,
        cpu_accum: fixed,
        cpu_cycles,
        llc_outstanding,
        fills,
        completions,
        egress: each,
        ingress_used: each,
        launch_stage,
        inflight,
        nda_credit: each,
        next_launch,
        nda_instrs_completed,
        ticks_executed,
        cycles_skipped,
        cores: core_images,
        runtime,
        shards: each,
        cfg: skip,
        mapper: skip,
        sleeping: skip,
        core_regions: skip,
        pool: skip,
        window: skip,
        nda_local: skip,
        streams: skip,
        stream_of: skip,
        instr_timeout: skip,
        finalized: skip,
        trace_flushed: skip,
    }
}

/// Host cores: their count (checked against the configuration), then one
/// exported state image each.
mod core_images {
    use chopim_dram::codec::{check, expect, ByteReader, ByteWriter, CodecError};
    use chopim_host::OooCore;

    use super::CoreState;

    #[cold]
    pub fn encode(cores: &[OooCore], w: &mut ByteWriter) {
        w.put(&cores.len());
        for core in cores {
            w.put(&CoreState(core.export_state()));
        }
    }

    /// The core stores a ROB instruction batch as a `u32`, so a larger
    /// count is refused here, before the import would truncate it.
    #[cold]
    pub fn restore(cores: &mut [OooCore], r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        expect(&cores.len(), r)?;
        for core in cores {
            let image = r.get::<CoreState>()?.0;
            let fits = |&(is_miss, n): &(bool, u64)| is_miss || u32::try_from(n).is_ok();
            check(image.rob.iter().all(fits), "ROB instruction count over u32")?;
            core.import_state(&image);
        }
        Ok(())
    }
}

/// Snapshot container framing magic (`docs/SNAPSHOT_FORMAT.md`).
const SNAPSHOT_MAGIC: [u8; 4] = *b"CHSS";
/// Snapshot container format version. v2 added the fault plane:
/// completion status bytes, in-flight launch records, per-op recovery
/// state, and per-shard fault counters. v3 added the thousand-tenant
/// runtime: per-op submission stamps, per-session QoS class /
/// virtual-time / admission limits / job table / metering, the per-band
/// virtual clocks, pending admissions, and the finished-op feed (the
/// ready index itself is derived and rebuilt on resume). v4 dropped the
/// shard's MC hint-backoff fields; the cached MC wake-up hints it carries
/// now come from the controller's own tick. v5 dropped the shard's
/// busy-streak backoff fields (`maybe_skip` computes the horizon after
/// every executed cycle). v6 dropped the host memoization epoch from each
/// rank and the plan memo from each MC queue entry (the controller plans
/// every scanned entry fresh). v7 dropped the shard's launch-poke flags
/// and cached horizon and each NDA controller's ready hint (the plan
/// memo is the controller's wake-up). v8 dropped the job-graph executor:
/// each session's admission limits, job table and job queue, two meter
/// counters, and the runtime's pending admissions; each `AxpyRows` op
/// record gained its samples-per-instruction count. v9 resolves every
/// completion through its in-flight record: completion messages lost
/// their NDA index and op handle, launch messages and launch records
/// their op handle, in-flight records their copied instruction id, op
/// records their first instruction id, and each shard its completion
/// tags; the two ingress counters became one.
const SNAPSHOT_VERSION: u32 = 9;

/// Why [`ChopimSystem::snapshot`] refused to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// An op [stream](ChopimSystem::spawn_stream) was spawned. Stream
    /// generators are opaque closures and cannot be serialized; capture
    /// the snapshot before spawning streams.
    ActiveStreams,
    /// [`ChopimSystem::report`] already finalized the statistics; a
    /// finalized machine cannot resume.
    Finalized,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ActiveStreams => {
                write!(f, "cannot snapshot a machine with spawned op streams")
            }
            SnapshotError::Finalized => {
                write!(f, "cannot snapshot after report() finalized statistics")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use chopim_dram::DramAddress;
    use chopim_nda::isa::{NdaInstr, Opcode};
    use chopim_nda::OperandLayout;

    use super::*;
    use crate::runtime::Sharing;

    /// A plan whose one fault (a rank death) lies beyond every test: a
    /// faulted machine on which nothing fails.
    const DORMANT: FaultPlan = FaultPlan {
        rank_death_cycle: u64::MAX,
        ..FaultPlan::NONE
    };

    /// A machine with host cores and an NDA op in flight, captured off
    /// the lookahead-window grid.
    fn machine() -> (ChopimSystem, OpHandle) {
        machine_at(1_003, FaultPlan::NONE)
    }

    /// The [`machine`] set-up under `faults`, run for `cycles` cycles.
    fn machine_at(cycles: Cycle, faults: FaultPlan) -> (ChopimSystem, OpHandle) {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: MixId::new(2),
            sim_threads: 1,
            trace_path: None,
            faults,
            ..ChopimConfig::default()
        });
        let x = sys.runtime.vector(1 << 12, Sharing::Shared);
        let y = sys.runtime.vector(1 << 12, Sharing::Shared);
        let sess = sys.runtime.default_session();
        let op = sess
            .elementwise(
                &mut sys.runtime,
                chopim_nda::isa::Opcode::Copy,
                vec![],
                vec![x],
                Some(y),
            )
            .submit();
        sys.run(cycles);
        (sys, op)
    }

    /// A host read whose fill would go to core `core`.
    fn read_for(core: usize, at: Cycle) -> HostTransaction {
        HostTransaction {
            addr: DramAddress::default(),
            is_write: false,
            meta: TxMeta::CoreRead { core, req: 0 },
            arrival: at,
        }
    }

    /// A checksum-valid image of `sys` must be refused as corrupt.
    fn assert_rejected(sys: &ChopimSystem, what: &str) {
        let image = sys.snapshot().expect("capture");
        match ChopimSystem::resume(sys.cfg.clone(), &image) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn corrupt_index_fill_core_is_rejected() {
        let (mut sys, _) = machine();
        let at = sys.now + 5;
        sys.shards[0].fills_out.push((at, 99, 0));
        assert_rejected(&sys, "shard fill to core 99");
    }

    /// On a faulted machine a completion with no in-flight record is a
    /// legitimate orphan (its launch timed out), so only its status is
    /// checked.
    #[test]
    fn corrupt_index_completion_status_is_rejected() {
        let (mut sys, _) = machine_at(1_003, DORMANT);
        let at = sys.now + 5;
        let out = &mut sys.shards[0].completions_out;
        out.push((at, 1 << 40, COMPLETION_OK));
        let image = sys.snapshot().expect("capture");
        ChopimSystem::resume(sys.cfg.clone(), &image).expect("an orphan completion resumes");
        let ours = sys.shards[0].completions_out.last_mut().expect("pushed");
        ours.2 = COMPLETION_RANK_DEAD + 1;
        assert_rejected(&sys, "shard completion with an unknown status");
    }

    /// A control-register write for launch `launch`.
    fn launch_write(launch: u64, at: Cycle) -> HostTransaction {
        HostTransaction {
            addr: DramAddress::default(),
            is_write: true,
            meta: TxMeta::Launch { launch },
            arrival: at,
        }
    }

    /// [`machine`] run on until a shard holds a launch record whose
    /// control writes are still outstanding; returns the shard index.
    fn machine_with_launch_in_flight() -> (ChopimSystem, usize) {
        let (mut sys, _) = machine_at(0, FaultPlan::NONE);
        for _ in 0..5_000 {
            let busy = sys.shards.iter_mut().position(|s| {
                let remaining = s.launch_writes_remaining_mut();
                remaining.into_iter().any(|(_, left)| *left > 0)
            });
            if let Some(ch) = busy {
                return (sys, ch);
            }
            sys.run(1);
        }
        panic!("no launch in flight within 5k cycles");
    }

    #[test]
    fn corrupt_index_launch_write_without_record_is_rejected() {
        let (mut sys, _) = machine();
        let at = sys.now + 5;
        sys.shards[0]
            .launch_events_mut()
            .push(Reverse((at, 1 << 40)));
        assert_rejected(&sys, "launch event for an unknown launch");

        let (mut sys, _) = machine();
        let tx = launch_write(1 << 40, sys.now);
        let shard = &mut sys.shards[0];
        assert!(shard.mc.try_push(tx, &shard.channel, sys.now));
        assert_rejected(&sys, "MC-queued write for an unknown launch");

        let (mut sys, _) = machine();
        let at = sys.now + 1;
        sys.egress[0].push((at, ShardInbound::Tx(launch_write(1 << 40, at))));
        assert_rejected(&sys, "egress write for an unknown launch");
    }

    #[test]
    fn corrupt_index_launch_writes_beyond_record_are_rejected() {
        let (mut sys, ch) = machine_with_launch_in_flight();
        let (id, _) = sys.shards[ch].launch_writes_remaining_mut()[0];
        let at = sys.now + 1;
        let extra = ShardInbound::Tx(launch_write(id, at));
        sys.shards[ch].inbox.absorb(&mut vec![(at, extra)]);
        assert_rejected(&sys, "one more write than the launch expects");

        let (mut sys, ch) = machine_with_launch_in_flight();
        for (_, left) in sys.shards[ch].launch_writes_remaining_mut() {
            *left = 0;
        }
        assert_rejected(&sys, "launch record expecting no more writes");
    }

    #[test]
    fn corrupt_index_launch_id_rewind_is_rejected() {
        let (mut sys, ch) = machine_with_launch_in_flight();
        let (id, _) = sys.shards[ch].launch_writes_remaining_mut()[0];
        sys.next_launch = id;
        assert_rejected(&sys, "next launch id at a live launch's id");

        let launch = |id| {
            let x = OperandLayout::single_bank(0, 0, 1, 128);
            let instr = NdaInstr::elementwise(Opcode::Copy, 1, vec![(x, 0)], vec![], 0);
            let (nda_local, writes) = (0, 1);
            ShardInbound::Launch {
                id,
                nda_local,
                instr,
                writes,
            }
        };
        let (mut sys, ch) = machine_with_launch_in_flight();
        let (id, _) = sys.shards[ch].launch_writes_remaining_mut()[0];
        let at = sys.now + 1;
        sys.egress[ch].push((at, launch(id)));
        assert_rejected(&sys, "queued launch at the slab's last id");

        let (mut sys, ch) = machine_with_launch_in_flight();
        let (at, next) = (sys.now + 1, sys.next_launch);
        sys.next_launch = next + 4;
        sys.egress[ch].push((at, launch(next + 2)));
        sys.egress[ch].push((at, launch(next + 1)));
        assert_rejected(&sys, "queued launches out of order");
    }

    /// A machine without host cores under `faults`.
    fn idle_machine(faults: FaultPlan) -> ChopimSystem {
        ChopimSystem::new(ChopimConfig {
            mix: None,
            sim_threads: 1,
            trace_path: None,
            faults,
            ..ChopimConfig::default()
        })
    }

    /// A `len`-element COPY on `sess`, ready to submit.
    fn copy(rt: &mut Runtime, sess: Session, len: usize) -> crate::runtime::OpBuilder<'_> {
        let x = rt.vector(len, Sharing::Shared);
        let y = rt.vector(len, Sharing::Shared);
        sess.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
    }

    /// A staged launch whose op concludes before it egresses is dropped
    /// with its credit unspent, on a faulted and on a fault-free machine.
    /// That credit must wake the NDA's next waiter: without the wake,
    /// the full-scan oracle in `next_launch` fires at the next staging
    /// pass.
    #[test]
    fn arbitration_dropped_staged_launch_passes_its_credit_on() {
        for faults in [DORMANT, FaultPlan::NONE] {
            let mut sys = idle_machine(faults);
            let rt = &mut sys.runtime;
            let (a, b) = (rt.create_session(), rt.create_session());
            let op_a = copy(rt, a, 1 << 12).deadline(10).submit();
            let op_b = copy(rt, b, 1 << 12).submit();
            let staged = |sys: &ChopimSystem| sys.launch_stage.as_ref().map(|l| (l.op, l.nda_idx));

            // No credits: both sessions park on NDA 0, A first.
            sys.nda_credit.fill(0);
            sys.fe_tick();
            assert_eq!(staged(&sys), None);
            // NDA 0's credit returns and wakes A, whose launch then waits
            // in the stage behind a full ingress queue.
            sys.nda_credit[0] = 1;
            sys.runtime.credit_returned(0);
            let (ch, _) = sys.nda_local[0];
            sys.ingress_used[ch] = INGRESS_CAP;
            sys.now = 1;
            sys.fe_tick();
            assert_eq!(staged(&sys), Some((op_a, 0)));
            // A's op times out: the stage drops its launch, and B takes
            // the credit at the next pass.
            sys.now = 10;
            sys.fe_tick();
            assert_eq!(staged(&sys), None, "{faults:?}");
            sys.now = 11;
            sys.fe_tick();
            assert_eq!(staged(&sys), Some((op_b, 0)));
        }
    }

    /// A quarantine that redirects a staged launch to a survivor with no
    /// credit left must not spend a credit the survivor lacks: the
    /// launch waits in the stage until one returns.
    #[test]
    fn arbitration_redirected_launch_waits_for_a_credit() {
        let mut sys = idle_machine(DORMANT);
        let sess = sys.runtime.default_session();
        copy(&mut sys.runtime, sess, 1 << 12).submit();
        let staged = |sys: &ChopimSystem| sys.launch_stage.as_ref().map(|l| l.nda_idx);
        // Only NDA 0 has a credit; its launch stages behind a full
        // ingress queue.
        sys.nda_credit.fill(0);
        sys.nda_credit[0] = 1;
        let (ch, _) = sys.nda_local[0];
        sys.ingress_used[ch] = INGRESS_CAP;
        sys.fe_tick();
        assert_eq!(staged(&sys), Some(0));
        // NDA 0 dies: the launch moves to NDA 1, which has no credit.
        sys.runtime.quarantine(0);
        sys.ingress_used[ch] = 0;
        sys.now = 1;
        sys.fe_tick();
        assert_eq!(staged(&sys), Some(1));
        assert_eq!(sys.nda_credit[1], 0);
        // NDA 1's credit returns and the launch leaves.
        sys.nda_credit[1] = 1;
        sys.runtime.credit_returned(1);
        sys.now = 2;
        sys.fe_tick();
        assert_eq!(sys.nda_credit[1], 0);
        assert_eq!(sys.inflight.back().map(|rec| rec.launch.nda_idx), Some(1));
    }

    /// A fault-free machine whose long unbarriered COPY has spent every
    /// launch credit: each NDA has `nda_queue_cap` launches in flight.
    fn machine_out_of_credits() -> ChopimSystem {
        let mut sys = idle_machine(FaultPlan::NONE);
        let sess = sys.runtime.default_session();
        let op = copy(&mut sys.runtime, sess, 1 << 16);
        op.granularity_lines(4).no_barrier().submit();
        sys.run(3_000);
        assert!(sys.nda_credit.iter().all(|&c| c == 0), "every credit spent");
        let image = sys.snapshot().expect("capture");
        ChopimSystem::resume(sys.cfg.clone(), &image).expect("the untouched image resumes");
        sys
    }

    /// Credits handed back with every launch still in flight would let
    /// the front-end overfill the NDA queues ("NDA queue overflow").
    #[test]
    fn corrupt_index_launch_credits_reset_is_rejected() {
        let mut sys = machine_out_of_credits();
        let cap = sys.cfg.nda_queue_cap;
        sys.nda_credit.fill(cap);
        assert_rejected(&sys, "full credits with every queue slot in flight");
    }

    /// The credit counts balance, but an instruction in flight has lost
    /// the record its completion resolves through, or sits on another
    /// NDA than its record names.
    #[test]
    fn corrupt_index_unpaired_record_is_rejected() {
        let mut sys = machine_out_of_credits();
        let rec = sys.inflight.pop_back().expect("a launch in flight");
        sys.nda_credit[rec.launch.nda_idx] += 1;
        assert_rejected(&sys, "record dropped and its credit handed back");

        let mut sys = machine_out_of_credits();
        let first = sys.inflight[0].launch.nda_idx;
        let j = (sys.inflight.iter())
            .position(|rec| rec.launch.nda_idx != first)
            .expect("launches in flight on two NDAs");
        sys.inflight[0].launch.nda_idx = sys.inflight[j].launch.nda_idx;
        sys.inflight[j].launch.nda_idx = first;
        assert_rejected(&sys, "two records trade NDAs");
    }

    /// The shard-local index of an NDA holding an instruction.
    fn busy_nda(s: &ChannelShard) -> Option<usize> {
        s.ndas.iter().position(|n| !n.fsm().is_idle())
    }

    #[test]
    fn corrupt_index_shadow_fsm_mismatch_is_rejected() {
        let (mut sys, _) = machine();
        let (shard, i) = (sys.shards.iter_mut())
            .find_map(|s| busy_nda(s).map(|i| (s, i)))
            .expect("an NDA must hold an instruction");
        shard.shadows[i].abort_all();
        assert_rejected(&sys, "shadow FSM that differs from its NDA");
    }

    /// A panic inside a shard the pool runs is re-raised from `run`
    /// rather than leaving the barrier waiting: every window dispatches
    /// both shards to the pool.
    #[test]
    #[should_panic(expected = "launch record")]
    fn pooled_shard_panic_surfaces_from_run() {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: MixId::new(2),
            sim_threads: 2,
            trace_path: None,
            faults: FaultPlan::NONE,
            ..ChopimConfig::default()
        });
        sys.run(1_000);
        let at = sys.now + 5;
        sys.shards[1]
            .launch_events_mut()
            .push(Reverse((at, 1 << 40)));
        sys.run(1_000);
    }

    /// A core whose in-flight count disagrees with its ROB would
    /// underflow that count on a later fill.
    #[test]
    fn corrupt_index_core_outstanding_mismatch_is_rejected() {
        let (mut sys, _) = machine();
        let core = (sys.cores.iter_mut())
            .find(|c| c.outstanding_misses() > 0)
            .expect("a core must have a miss in flight");
        let mut image = core.export_state();
        image.outstanding = 0;
        core.import_state(&image);
        assert_rejected(&sys, "core with misses in flight but none counted");
    }

    #[test]
    fn corrupt_index_foreign_read_id_is_rejected() {
        let foreign = |at| HostTransaction {
            meta: TxMeta::CoreRead {
                core: 0,
                req: 1 << 40,
            },
            ..read_for(0, at)
        };
        let (mut sys, _) = machine();
        let at = sys.now + 5;
        sys.shards[0].fills_out.push((at, 0, 1 << 40));
        assert_rejected(&sys, "fill for a read core 0 never sent");

        let (mut sys, _) = machine();
        let at = sys.now + 1;
        sys.egress[0].push((at, ShardInbound::Tx(foreign(at))));
        assert_rejected(&sys, "egress read core 0 never sent");

        let (mut sys, _) = machine();
        let tx = foreign(sys.now);
        let shard = &mut sys.shards[0];
        assert!(shard.mc.try_push(tx, &shard.channel, sys.now));
        assert_rejected(&sys, "MC-queued read core 0 never sent");
    }

    /// With 64 launch writes a launch never fits the 64-entry ingress
    /// queue, so every NDA op would wait forever.
    #[test]
    #[should_panic(expected = "launch_writes_per_instr")]
    fn launch_writes_that_never_fit_ingress_are_rejected() {
        ChopimSystem::new(ChopimConfig {
            launch_writes_per_instr: INGRESS_CAP as u32,
            trace_path: None,
            ..ChopimConfig::default()
        });
    }

    #[test]
    fn corrupt_index_read_core_is_rejected_in_every_queue() {
        let (mut sys, _) = machine();
        let at = sys.now + 1;
        sys.egress[0].push((at, ShardInbound::Tx(read_for(99, at))));
        assert_rejected(&sys, "egress read for core 99");

        let (mut sys, _) = machine();
        let at = sys.now + 1;
        sys.shards[0]
            .inbox
            .absorb(&mut vec![(at, ShardInbound::Tx(read_for(99, at)))]);
        assert_rejected(&sys, "inbox read for core 99");

        let (mut sys, _) = machine();
        let tx = read_for(99, sys.now);
        let shard = &mut sys.shards[0];
        assert!(shard.mc.try_push(tx, &shard.channel, sys.now));
        assert_rejected(&sys, "MC-queued read for core 99");
    }
}
