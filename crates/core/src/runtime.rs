//! The Chopim runtime and API (paper §V, Fig. 8).
//!
//! The runtime owns array allocation (colored, system-row-granular, via
//! the OS model), splits API calls into per-rank coarse-grain NDA
//! instructions, tracks completion, and executes the numerics functionally
//! on the `f32` backing store when an operation completes (the
//! function/timing split documented in `DESIGN.md`).
//!
//! ## Sessions, handles, and the op graph
//!
//! Submission is organized around [`Session`]s — per-tenant submission
//! contexts with their own in-order op streams — and typed [`OpHandle`]s
//! returned by builder-style launch calls:
//!
//! ```ignore
//! let sess = sys.runtime.create_session();
//! let a = sess.elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
//!     .submit();
//! let b = sess.elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![y, y], None)
//!     .after(a)          // explicit DAG edge (redundant here: same session)
//!     .submit();
//! sys.drive(b, 10_000_000);
//! ```
//!
//! Within a session, ops execute in submission order by default — the
//! paper's blocking semantics (§V): instruction *issue* is FIFO per rank
//! but completion is not, so overlapping dependent ops would break
//! read-after-write across launches. [`OpBuilder::unordered`] opts an op
//! out of program order so it is gated only by its explicit
//! [`OpBuilder::after`] edges, which may reference handles from *any*
//! session. Dependent ops stage only when every parent has retired.
//!
//! Across sessions, [`Runtime::next_launch`] arbitrates by QoS class
//! ([`QosClass`]): latency-sensitive sessions take strict priority, and
//! batch sessions share the remainder by weighted virtual time — integer
//! arithmetic only, so schedules stay bit-identical across engines and
//! snapshot/resume. Arbitration cost is O(active), not O(sessions):
//! sessions live in a ready index (per-band heaps plus per-NDA credit
//! waitlists and a retry wake heap) and are touched only when an event —
//! submit, dependency retirement, credit return, retry expiry, fault
//! quarantine — can actually change what they may stage.
//!
//! ## Credit waitlists
//!
//! A session whose candidate op is blocked on a full NDA queue parks on
//! that NDA's waitlist: a min-heap keyed `(band, vtime, session, stamp)`,
//! the order the band heaps pop in. An entry is live while its session
//! is parked and the entry carries the session's whole current key;
//! wakes drop the stale entries they pop past. The index keeps one
//! invariant: whenever NDA `k` has a free credit at a staging pass and
//! sessions are parked on it, a session that `k` woke, and that sorts
//! before all of them, sits in its band heap. Four rules keep it, so a
//! returned credit costs one wake, not one per waiter:
//!
//! 1. A credit returned to `k` (`Runtime::credit_returned`), or left
//!    unspent by a staged launch the front-end drops (its op concluded
//!    first), wakes `k`'s smallest live waiter and records `k` as the
//!    session's waker.
//! 2. A popped session woken by `k` that does not take `k`'s credit (it
//!    is served on another NDA through an unordered op, or it re-parks)
//!    hands the credit on: if `k` still has one after the pass's
//!    launch, `k`'s next waiter wakes.
//! 3. [`set_qos`](Runtime::set_qos) re-notifies a parked session, whose
//!    waitlist keys went stale, and makes a woken one hand its credit on.
//! 4. Fault quarantine wakes every waiter of every NDA (the cold path).
//!
//! Per-tenant metering surfaces in `SimReport::tenants`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use chopim_dram::codec::{check, CodecError};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::DramConfig;
use chopim_mapping::color::{Color, ColoredAllocator, Region};
use chopim_mapping::{AddressMapper, PartitionedMapping};
use chopim_nda::isa::{NdaInstr, Opcode};
use chopim_nda::operand::OperandLayout;
use chopim_nda::pe;

use crate::energy::PeActivity;
use crate::report::TenantReport;

/// Handle to a runtime-managed vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecId(pub(crate) usize);

/// Handle to a runtime-managed row-major matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatId(pub(crate) usize);

/// A per-tenant submission context.
///
/// Each session owns an ordered stream of operations; independent
/// sessions share the machine under fair-share arbitration (see the
/// module docs). Sessions are cheap `Copy` handles — create them with
/// [`Runtime::create_session`], or use [`Runtime::default_session`] for
/// single-tenant code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Session {
    id: u32,
}

/// Typed handle to a launched (possibly multi-instruction, multi-rank)
/// operation: a `(session, op)` pair. Only the front-end holds op
/// handles; shards see instruction ids, which the front-end resolves
/// through its in-flight launch records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpHandle {
    pub(crate) sess: u32,
    pub(crate) idx: u32,
}

impl OpHandle {
    /// The session this op was submitted to.
    pub fn session(self) -> Session {
        Session { id: self.sess }
    }
}

/// Terminal status of an operation. Every submitted op reaches exactly
/// one of these (the recovery property suite's no-lost-ops contract);
/// [`Runtime::op_status`] returns `None` while the op is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpStatus {
    /// The op finished and its results are visible (includes ops
    /// re-executed on the host via [`OpBuilder::fallback_host`]).
    Completed,
    /// The op exhausted its retry budget on a faulted machine and has
    /// no host fallback; results are undefined.
    Failed,
    /// The op's [`OpBuilder::deadline`] expired before it finished.
    TimedOut,
    /// A dependency (explicit [`OpBuilder::after`] edge) concluded
    /// unsuccessfully, so this op was aborted instead of waiting
    /// forever.
    DepFailed,
}

impl OpStatus {
    /// True for every terminal state except [`OpStatus::Completed`].
    pub fn is_failure(self) -> bool {
        self != OpStatus::Completed
    }
}

/// Runtime-side recovery accounting (folded into the report's
/// `FaultReport`).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveryCounters {
    pub instr_retries: u64,
    pub instr_timeouts: u64,
    pub ops_failed: u64,
    pub ops_timed_out: u64,
    pub ops_dep_failed: u64,
    pub host_fallbacks: u64,
    pub ranks_quarantined: u64,
    pub max_retry_backoff: u64,
}

chopim_dram::codec! { OpHandle { sess, idx } }
chopim_dram::codec! { VecId(i) }
chopim_dram::codec! { MatId(i) }
chopim_dram::codec! { LaunchOpts { granularity_lines, barrier_per_chunk } }
chopim_dram::codec! { enum QosClass { 0 => LatencySensitive, 1 => Batch { weight } } }

chopim_dram::codec! {
    RecoveryCounters {
        instr_retries,
        instr_timeouts,
        ops_failed,
        ops_timed_out,
        ops_dep_failed,
        host_fallbacks,
        ranks_quarantined,
        max_retry_backoff,
    }
}

/// `Option<OpStatus>` as one tag byte: `0` while live, then the terminal
/// states in declaration order.
mod op_status {
    use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};

    use super::OpStatus;

    const TAGS: [Option<OpStatus>; 5] = [
        None,
        Some(OpStatus::Completed),
        Some(OpStatus::Failed),
        Some(OpStatus::TimedOut),
        Some(OpStatus::DepFailed),
    ];

    #[cold]
    pub fn encode(v: &Option<OpStatus>, w: &mut ByteWriter) {
        w.u8(TAGS
            .iter()
            .position(|t| t == v)
            .expect("every status has a tag") as u8);
    }

    #[cold]
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Option<OpStatus>, CodecError> {
        TAGS.get(usize::from(r.u8()?))
            .copied()
            .ok_or(CodecError::Corrupt("op status tag"))
    }
}

/// How an array is distributed (paper Fig. 8: `nda::SHARED` vs
/// `nda::PRIVATE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Striped across all NDAs, colored for rank alignment.
    Shared,
    /// One full copy per NDA (e.g. the `a_pvt` accumulators of Fig. 8).
    Private,
}

/// Options controlling how an API call splits into NDA instructions.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOpts {
    /// Cache blocks per NDA instruction per rank (`None` = one
    /// instruction covering the whole per-rank share). This is the
    /// coarse-grain knob of Fig. 10.
    pub granularity_lines: Option<u64>,
    /// Blocking semantics: wait for every rank to finish a chunk before
    /// launching the next (paper's default). `false` = asynchronous macro
    /// op launch.
    pub barrier_per_chunk: bool,
}

impl Default for LaunchOpts {
    fn default() -> Self {
        Self {
            granularity_lines: None,
            barrier_per_chunk: true,
        }
    }
}

/// QoS scheduling class of a session — the arbitration key of
/// [`Runtime::next_launch`] (see [`Runtime::set_qos`]).
///
/// Classes form two strict bands: every stageable `LatencySensitive`
/// session is served before any `Batch` session. Within a band sessions
/// are ordered by an integer virtual-time deficit scheduler — each
/// released launch charges the session `QUANTUM / weight`, so a weight-2
/// tenant is served twice as often as a weight-1 tenant under
/// contention. No floats, no wall-clock: schedules are bit-identical
/// across engines, thread counts, and snapshot/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Strict-priority band, round-robin among latency-sensitive peers.
    /// A saturating latency-sensitive tenant can starve batch traffic by
    /// design — cap its submission rate if that matters.
    LatencySensitive,
    /// Weighted fair share of whatever the latency-sensitive band
    /// leaves. The default class (weight 1) is plain fair round-robin.
    Batch {
        /// Relative share, clamped to `1..=1024`.
        weight: u32,
    },
}

impl Default for QosClass {
    fn default() -> Self {
        QosClass::Batch { weight: 1 }
    }
}

impl QosClass {
    /// Scheduler band: 0 = latency-sensitive, 1 = batch.
    fn band(self) -> usize {
        match self {
            QosClass::LatencySensitive => 0,
            QosClass::Batch { .. } => 1,
        }
    }

    fn weight(self) -> u64 {
        match self {
            QosClass::LatencySensitive => 1,
            QosClass::Batch { weight } => u64::from(weight.clamp(1, 1024)),
        }
    }
}

/// Virtual-time charge per released launch at weight 1. Weights divide
/// this, so even the maximum weight (1024) still charges 1024 per launch
/// — virtual time strictly advances and no batch tenant can be starved
/// by a heavier batch peer.
const QUANTUM: u64 = 1 << 20;

/// Where a session currently lives in the ready index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SchedState {
    /// Not indexed: nothing to stage, or every candidate is gated on an
    /// event (dep retirement, completion) that re-notifies the session.
    #[default]
    Untracked,
    /// In its band heap, exactly one live entry (keyed by `heap_stamp`;
    /// older entries are stale and dropped on pop).
    Ready,
    /// Waiting on a credit return (on a per-NDA waitlist) and/or a retry
    /// expiry (on the wake heap).
    Parked,
}

#[derive(Debug)]
struct ArrayData {
    backing: Vec<f32>,
    /// Per-NDA copies for `Sharing::Private`.
    private: Option<Vec<Vec<f32>>>,
    /// Rank-local traversal per NDA index.
    layouts: Vec<Arc<OperandLayout>>,
    /// Lines of payload per NDA rank.
    lines_per_rank: u64,
    /// Region backing the array (kept for ownership queries).
    region: Option<Region>,
    len: usize,
    shape: Option<(usize, usize)>,
    color: Color,
}

/// A queued instruction launch (becomes control-register writes on the
/// channel).
#[derive(Debug, Clone)]
pub struct PendingLaunch {
    /// Index into the system's NDA-rank list.
    pub nda_idx: usize,
    /// The instruction to deliver.
    pub instr: NdaInstr,
    /// Owning operation: a completion resolves through the front-end's
    /// in-flight record of this launch, which names it.
    pub op: OpHandle,
    /// Chunk index within the operation (for barriers).
    pub chunk: usize,
}

/// What one op computes: built by an [`OpBuilder`], split into launches
/// at submission, and kept in the op record for functional execution.
#[derive(Debug)]
enum OpKind {
    Elementwise {
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
    },
    Gemv {
        y: VecId,
        a: MatId,
        x: VecId,
    },
    /// `parallel_for` macro op: per-sample `a_pvt += alpha_i * X[i]`,
    /// `samples_per_instr` samples batched per NDA instruction.
    AxpyRows {
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    },
}

#[derive(Debug)]
struct OpState {
    kind: OpKind,
    pending: VecDeque<PendingLaunch>,
    total_instrs: u64,
    completed_instrs: u64,
    chunk_sizes: Vec<u32>,
    chunk_completed: Vec<u32>,
    released_chunks: usize,
    barrier: bool,
    result: Option<f32>,
    done: bool,
    /// Explicit DAG edges: launches are held until every parent op has
    /// retired (runtime-inserted realignment copies, paper §V, and
    /// user-declared [`OpBuilder::after`] edges — possibly cross-session).
    deps: Vec<OpHandle>,
    /// Default program-order semantics: also wait for every earlier op in
    /// the same session. `false` = gated by `deps` alone.
    ordered: bool,
    /// Cycle at which the op's first launch was staged (DAG observability
    /// for the scheduling property tests).
    first_staged_at: Option<u64>,
    /// Cycle at which the op finished (set on the completing instruction).
    finished_at: Option<u64>,
    /// Terminal status (`None` while live, `Some` once `done`).
    status: Option<OpStatus>,
    /// Instruction retries charged against this op's retry budget.
    retries: u32,
    /// Backoff hold: no launch of this op stages before this cycle
    /// (`0` = no hold). The system folds the earliest hold into its
    /// front-end horizon so expiry is cycle-exact on every engine.
    retry_after: u64,
    /// Absolute deadline armed by [`OpBuilder::deadline`].
    deadline_at: Option<u64>,
    /// Re-execute on the host instead of concluding `Failed` when the
    /// retry budget runs out ([`OpBuilder::fallback_host`]).
    fallback_host: bool,
    /// Cycle at which the op was submitted (tenant metering).
    submitted_at: u64,
    /// Reverse DAG edges: ops that listed this op in their `deps` while
    /// it was live. Drives targeted dep-retirement notification of the
    /// ready index and the failure cascade. Derived state — rebuilt on
    /// snapshot resume, never serialized.
    dependents: Vec<OpHandle>,
}

impl OpState {
    /// A live op record: `pending` holds its launches in chunk order,
    /// `chunk_sizes[c]` of them in chunk `c`. Stamped and indexed by
    /// `Runtime::push_op`.
    fn new(
        kind: OpKind,
        pending: VecDeque<PendingLaunch>,
        chunk_sizes: Vec<u32>,
        opts: LaunchOpts,
        deps: Vec<OpHandle>,
        ordered: bool,
    ) -> Self {
        Self {
            kind,
            total_instrs: pending.len() as u64,
            pending,
            completed_instrs: 0,
            chunk_completed: vec![0; chunk_sizes.len()],
            chunk_sizes,
            released_chunks: 0,
            barrier: opts.barrier_per_chunk,
            result: None,
            done: false,
            deps,
            ordered,
            first_staged_at: None,
            finished_at: None,
            status: None,
            retries: 0,
            retry_after: 0,
            deadline_at: None,
            fallback_host: false,
            submitted_at: 0,
            dependents: Vec::new(),
        }
    }
}

/// One session's submission state.
#[derive(Debug, Default)]
struct SessionState {
    ops: Vec<OpState>,
    /// Index of the first op that is not yet done. Launch gating and
    /// quiescence checks start here instead of rescanning the
    /// ever-growing op list every cycle.
    first_live: usize,
    /// Live (submitted, not finished) unordered ops. When zero, the
    /// staging scan can stop at the first blocked ordered op — the
    /// classic strict-order fast path.
    unordered_live: usize,
    /// QoS class (arbitration band and weight).
    qos: QosClass,
    /// Virtual-time tag of the deficit scheduler (monotone per band).
    vtime: u64,
    /// Ready-index membership.
    sched: SchedState,
    /// Validates this session's live band-heap entry; entries carrying
    /// an older stamp are stale and dropped on pop.
    heap_stamp: u32,
    /// The NDA whose returned credit woke this session, until its band
    /// heap entry is popped (rule 2 of the module docs).
    woken_by: Option<u32>,
    /// Live (submitted, not terminal) ops: an idle session's next
    /// submission floors its virtual time (see `push_op`).
    live_ops: u32,
    /// Per-tenant metering, surfaced as `SimReport::tenants`.
    meter: TenantReport,
}

chopim_dram::codec! {
    ArrayData {
        backing,
        private,
        layouts,
        lines_per_rank,
        region,
        len,
        shape,
        color,
    }
}

chopim_dram::codec! { PendingLaunch { nda_idx, instr, op, chunk } }

chopim_dram::codec! {
    enum OpKind {
        0 => Elementwise { op, scalars, inputs, output },
        1 => Gemv { y, a, x },
        2 => AxpyRows { a_pvt, alphas, x, samples_per_instr },
    }
}

// `dependents` (reverse DAG edges) is derived: rebuilt on resume.
chopim_dram::codec! {
    OpState {
        kind,
        pending,
        total_instrs,
        completed_instrs,
        chunk_sizes,
        chunk_completed,
        released_chunks,
        barrier,
        result,
        done,
        deps,
        ordered,
        first_staged_at: opt_cycle,
        finished_at: opt_cycle,
        status: op_status,
        retries,
        retry_after,
        deadline_at: opt_cycle,
        fallback_host,
        submitted_at,
        dependents: skip,
    }
}

// The ready-index membership (`sched`, `heap_stamp`, `woken_by`) and the
// live-op gauge are derived: rebuilt on resume.
chopim_dram::codec! {
    SessionState {
        ops,
        first_live,
        unordered_live,
        qos,
        vtime,
        meter,
        sched: skip,
        heap_stamp: skip,
        woken_by: skip,
        live_ops: skip,
    }
}

/// A credit-waitlist entry: `(band, vtime, session, heap stamp)`.
type WaitKey = Reverse<(usize, u64, u32, u32)>;

/// The Chopim runtime: arrays, colored allocation, sessions, op-graph
/// splitting/staging, and functional execution.
#[derive(Debug)]
pub struct Runtime {
    arrays: Vec<ArrayData>,
    sessions: Vec<SessionState>,
    /// Ready-session index: one min-heap per QoS band over
    /// `(vtime, session, stamp)`, lazily validated (see `SchedState`).
    ready: [BinaryHeap<Reverse<(u64, u32, u32)>>; 2],
    /// Per-band virtual clock: the floor for sessions (re)entering the
    /// band, so a long-idle tenant cannot monopolize on ancient credit.
    vnow: [u64; 2],
    /// Per-NDA min-heaps of sessions parked on a credit return (see the
    /// module docs' credit waitlists).
    waitlists: Vec<BinaryHeap<WaitKey>>,
    /// Retry-hold wake-ups: `(cycle, session)` min-heap (stale entries
    /// tolerated — only still-parked sessions get woken).
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// Ops that reached a terminal state since the last drain — the
    /// completion-event feed stream resubmission pops instead of polling
    /// every stream every cycle.
    finished_ops: VecDeque<OpHandle>,
    next_instr: u64,
    /// Number of NDA ranks (one NDA per rank).
    n_ndas: usize,
    allocator: ColoredAllocator,
    mapper: Arc<PartitionedMapping>,
    cfg: DramConfig,
    /// NDA-rank list as `(channel, rank)` — all ranks in Chopim mode, the
    /// upper half in rank-partitioning mode.
    nda_ranks: Vec<(usize, usize)>,
    /// Rank-partition mode: layouts synthesized on dedicated ranks.
    rank_partition: bool,
    /// Ablation: walk operands in physical-address order (lines rotating
    /// across banks) instead of Chopim's contiguous-column layout walk.
    /// Collapses row locality exactly as Fig. 3's naive layout argument
    /// predicts.
    pub pa_order_walk: bool,
    rp_next_row: Vec<u32>,
    /// Accumulated PE activity (energy accounting).
    pub pe_activity: PeActivity,
    /// Analytic cycle cost of host-mediated steps (reduce/broadcast).
    pub host_comm_cycles: u64,
    /// Realignment copies the runtime inserted for color mismatches.
    pub realignment_copies: u64,
    default_color: Color,
    /// Retry budget per op before concluding `Failed` / falling back.
    retry_limit: u32,
    /// Base retry backoff in cycles (doubles per retry).
    retry_backoff: u64,
    /// Upper bound on the exponential backoff.
    retry_backoff_cap: u64,
    /// Per-NDA liveness; quarantined NDAs receive no further launches.
    alive: Vec<bool>,
    /// Count of live ops with an armed deadline (gates the per-cycle
    /// deadline scan; zero keeps it free).
    armed_deadlines: u32,
    /// Front-end clock mirror (stamped by the system each cycle) so
    /// submission-time deadline arming sees the current cycle.
    pub(crate) clock: u64,
    pub(crate) counters: RecoveryCounters,
}

// A snapshot restores into a runtime rebuilt from the same
// `ChopimConfig`: the mapper, DRAM config, NDA-rank placement, partition
// mode and recovery policy come from construction. The ready index (band
// heaps, credit waitlists, retry wake-ups) and `armed_deadlines` are
// derived; `rebuild_derived` recomputes them after `validate`.
chopim_dram::codec! {
    in_place(pub(crate)) Runtime {
        arrays,
        sessions,
        vnow,
        finished_ops,
        next_instr,
        allocator,
        rp_next_row,
        pa_order_walk,
        pe_activity,
        host_comm_cycles,
        realignment_copies,
        default_color,
        alive: each,
        counters,
        clock,
        ready: skip,
        waitlists: skip,
        wake: skip,
        n_ndas: skip,
        mapper: skip,
        cfg: skip,
        nda_ranks: skip,
        rank_partition: skip,
        retry_limit: skip,
        retry_backoff: skip,
        retry_backoff_cap: skip,
        armed_deadlines: skip,
    }
}

impl Runtime {
    /// Build a runtime over the shared mapper and OS allocator.
    pub fn new(
        cfg: DramConfig,
        mapper: Arc<PartitionedMapping>,
        allocator: ColoredAllocator,
        nda_ranks: Vec<(usize, usize)>,
        rank_partition: bool,
    ) -> Self {
        let n = nda_ranks.len();
        Self {
            arrays: Vec::new(),
            sessions: vec![SessionState::default()],
            ready: [BinaryHeap::new(), BinaryHeap::new()],
            vnow: [0; 2],
            waitlists: vec![BinaryHeap::new(); n],
            wake: BinaryHeap::new(),
            finished_ops: VecDeque::new(),
            next_instr: 0,
            n_ndas: n,
            allocator,
            mapper,
            cfg,
            nda_ranks,
            rank_partition,
            pa_order_walk: false,
            rp_next_row: vec![0; n],
            pe_activity: PeActivity::default(),
            host_comm_cycles: 0,
            realignment_copies: 0,
            default_color: Color(0),
            retry_limit: 3,
            retry_backoff: 64,
            retry_backoff_cap: 4096,
            alive: vec![true; n],
            armed_deadlines: 0,
            clock: 0,
            counters: RecoveryCounters::default(),
        }
    }

    /// Configure the retry policy (called once by the system from its
    /// `ChopimConfig`). Retries only run once a launch fails or times
    /// out, which needs a fault plan.
    pub(crate) fn configure_recovery(
        &mut self,
        retry_limit: u32,
        retry_backoff: u64,
        retry_backoff_cap: u64,
    ) {
        self.retry_limit = retry_limit;
        self.retry_backoff = retry_backoff.max(1);
        self.retry_backoff_cap = retry_backoff_cap.max(self.retry_backoff);
    }

    /// Runtime-side recovery counters (report support).
    pub(crate) fn recovery_counters(&self) -> &RecoveryCounters {
        &self.counters
    }

    /// True while NDA `nda` has not been quarantined by a rank-death
    /// completion (see [`OpBuilder::fallback_host`] and `docs/FAULTS.md`).
    pub fn nda_alive(&self, nda: usize) -> bool {
        self.alive[nda]
    }

    /// Quarantine NDA `nda` permanently (rank-death completion):
    /// subsequent launches re-shard across surviving ranks. Idempotent.
    #[cold]
    pub(crate) fn quarantine(&mut self, nda: usize) {
        if self.alive[nda] {
            self.alive[nda] = false;
            self.counters.ranks_quarantined += 1;
            // Redirect targets changed: every credit-parked session must
            // re-classify against the survivor set.
            for n in 0..self.waitlists.len() {
                while self.credit_returned(n) {}
            }
        }
    }

    /// The NDA `nda` launches should target: `nda` itself while alive,
    /// else the next surviving NDA (wrapping). With every NDA dead the
    /// original index is returned and the launch fails its retries out.
    fn redirect(alive: &[bool], nda: usize) -> usize {
        if alive[nda] {
            return nda;
        }
        Self::redirect_cold(alive, nda)
    }

    /// [`redirect`](Self::redirect) against the current quarantine set
    /// (system-side staging support).
    pub(crate) fn redirect_live(&self, nda: usize) -> usize {
        Self::redirect(&self.alive, nda)
    }

    #[cold]
    fn redirect_cold(alive: &[bool], nda: usize) -> usize {
        let n = alive.len();
        for k in 1..n {
            let c = (nda + k) % n;
            if alive[c] {
                return c;
            }
        }
        nda
    }

    /// The default (always-present) session, for single-tenant code.
    pub fn default_session(&self) -> Session {
        Session { id: 0 }
    }

    /// Create a fresh submission session (a tenant).
    pub fn create_session(&mut self) -> Session {
        self.sessions.push(SessionState::default());
        Session {
            id: (self.sessions.len() - 1) as u32,
        }
    }

    /// The NDA ranks as `(channel, rank)` pairs.
    pub fn nda_ranks(&self) -> &[(usize, usize)] {
        &self.nda_ranks
    }

    fn op(&self, h: OpHandle) -> &OpState {
        &self.sessions[h.sess as usize].ops[h.idx as usize]
    }

    fn op_mut(&mut self, h: OpHandle) -> &mut OpState {
        &mut self.sessions[h.sess as usize].ops[h.idx as usize]
    }

    /// Build per-NDA layouts for `lines` payload lines in a colored
    /// region.
    fn build_layouts(
        &mut self,
        lines: u64,
        color: Color,
    ) -> (Vec<Arc<OperandLayout>>, u64, Option<Region>) {
        let lpc = self.cfg.lines_per_row() as u64; // lines per chunk (128)
        let ranks = self.n_ndas as u64;
        let lines_per_rank = lines.div_ceil(ranks).div_ceil(lpc) * lpc;
        if self.rank_partition {
            // Dedicated ranks: synthesize bank-rotating layouts directly.
            let chunks = (lines_per_rank / lpc) as usize;
            let banks = self.cfg.banks_per_rank() as u16;
            let rows_needed = chunks.div_ceil(banks as usize) as u32;
            let mut layouts = Vec::with_capacity(self.n_ndas);
            for i in 0..self.n_ndas {
                let base = self.rp_next_row[i];
                self.rp_next_row[i] += rows_needed;
                layouts.push(OperandLayout::rotating(banks, base, chunks, lpc as u32));
            }
            return (layouts, lines_per_rank, None);
        }
        // Shared mode: allocate colored system rows and derive each rank's
        // chunk walk from the real mapping.
        let row_lines = self.cfg.system_row_bytes() / 64;
        let rows_needed = (lines_per_rank * ranks).div_ceil(row_lines) as usize;
        // With bank partitioning the shared pool is the reserved address
        // space; without it (reserved_banks = 0) NDA arrays live in
        // ordinary colored memory.
        let region = self
            .allocator
            .alloc_shared(color, rows_needed)
            .or_else(|| self.allocator.alloc_host_colored(color, rows_needed))
            .expect("memory exhausted for NDA operands");
        let mut chunk_lists: Vec<Vec<(u16, u32)>> = vec![Vec::new(); self.n_ndas];
        let bpg = self.cfg.banks_per_group;
        let rpc = self.cfg.ranks_per_channel;
        for sysrow in &region.rows {
            // Collect each rank's (bank, row) chunks for this system row.
            let mut seen: BTreeSet<(usize, u16, u32)> = BTreeSet::new();
            let base_pa = u64::from(sysrow.index) * self.cfg.system_row_bytes();
            for l in 0..row_lines {
                let d = self.mapper.map_pa(base_pa + l * 64);
                let g = d.channel * rpc + d.rank;
                let idx = self
                    .nda_ranks
                    .iter()
                    .position(|&(c, r)| (c, r) == (d.channel, d.rank));
                let Some(idx) = idx else { continue };
                let key = (g, d.flat_bank(bpg) as u16, d.row);
                if seen.insert(key) {
                    chunk_lists[idx].push((d.flat_bank(bpg) as u16, d.row));
                }
            }
        }
        // Chopim's layout lets the microcode stream contiguous columns of
        // one bank row per 1 KB-per-chip batch (Fig. 3/Fig. 9). The
        // `pa_order_walk` ablation instead rotates lines across all banks
        // of the rank (the walk a naive layout would force), destroying
        // row locality under host interference.
        let group = (row_lines / ranks / lpc).max(1) as u32;
        let layouts = chunk_lists
            .into_iter()
            .map(|c| {
                if self.pa_order_walk && (c.len() as u32).is_multiple_of(group) {
                    OperandLayout::with_interleave(c, lpc as u32, group)
                } else {
                    OperandLayout::new(c, lpc as u32)
                }
            })
            .collect();
        (layouts, lines_per_rank, Some(region))
    }

    /// Allocate a host-only footprint region of `rows` system rows,
    /// halving on exhaustion (small test pools).
    ///
    /// # Panics
    ///
    /// Panics when host memory is completely exhausted.
    pub fn alloc_host_region(&mut self, rows: usize) -> Region {
        let mut rows = rows.max(1);
        loop {
            if let Some(r) = self.allocator.alloc_host(rows) {
                return r;
            }
            rows /= 2;
            assert!(rows > 0, "host memory exhausted");
        }
    }

    /// Allocate a vector of `len` f32 elements in the default color.
    pub fn vector(&mut self, len: usize, sharing: Sharing) -> VecId {
        self.vector_colored(len, sharing, self.default_color)
    }

    /// Allocate a vector in an explicit shared-region color (paper §III-A:
    /// operands of one instruction must share a color; the runtime inserts
    /// realignment copies otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the color is out of range.
    pub fn vector_colored(&mut self, len: usize, sharing: Sharing, color: Color) -> VecId {
        assert!(len > 0, "empty vector");
        assert!(
            (color.0 as usize) < self.allocator.num_colors(),
            "color out of range"
        );
        let (layouts, lines_per_rank, region, private);
        match sharing {
            Sharing::Shared => {
                let total_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(total_lines, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = None;
            }
            Sharing::Private => {
                // A full copy per NDA, each within its own rank share.
                let per_copy_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(per_copy_lines * self.n_ndas as u64, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = Some(vec![vec![0.0; len]; self.n_ndas]);
            }
        }
        self.arrays.push(ArrayData {
            backing: vec![0.0; len],
            private,
            layouts,
            lines_per_rank,
            region,
            len,
            shape: None,
            color,
        });
        VecId(self.arrays.len() - 1)
    }

    /// The shared-region color of an array.
    pub fn color_of(&self, v: VecId) -> Color {
        self.arrays[v.0].color
    }

    /// Number of available colors (8 for Table II, paper §III-A).
    pub fn num_colors(&self) -> usize {
        self.allocator.num_colors()
    }

    /// Allocate a row-major `rows x cols` shared matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of 16 (rows must be cache-line
    /// aligned so each line belongs to one sample).
    pub fn matrix(&mut self, rows: usize, cols: usize) -> MatId {
        assert!(
            cols.is_multiple_of(16),
            "cols must be a multiple of 16 (line-aligned rows)"
        );
        let total_lines = ((rows * cols * 4) as u64).div_ceil(64);
        let color = self.default_color;
        let (layouts, lines_per_rank, region) = self.build_layouts(total_lines, color);
        self.arrays.push(ArrayData {
            backing: vec![0.0; rows * cols],
            private: None,
            layouts,
            lines_per_rank,
            region,
            len: rows * cols,
            shape: Some((rows, cols)),
            color,
        });
        MatId(self.arrays.len() - 1)
    }

    /// Overwrite a vector's contents.
    pub fn write_vector(&mut self, v: VecId, data: &[f32]) {
        let a = &mut self.arrays[v.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    /// Read a vector's contents.
    pub fn read_vector(&self, v: VecId) -> &[f32] {
        &self.arrays[v.0].backing
    }

    /// Read one NDA's private copy.
    pub fn read_private(&self, v: VecId, nda: usize) -> &[f32] {
        &self.arrays[v.0].private.as_ref().expect("private array")[nda]
    }

    /// Overwrite a matrix's contents (row-major).
    pub fn write_matrix(&mut self, m: MatId, data: &[f32]) {
        let a = &mut self.arrays[m.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    fn vec_lines(&self, v: VecId) -> u64 {
        ((self.arrays[v.0].len * 4) as u64).div_ceil(64)
    }

    /// Per-rank payload lines of a shared vector.
    fn vec_lines_per_rank(&self, v: VecId) -> u64 {
        self.vec_lines(v).div_ceil(self.n_ndas as u64)
    }

    fn take_instr_ids(&mut self, count: u64) -> u64 {
        let base = self.next_instr;
        self.next_instr += count;
        base
    }

    /// Handle the next op submitted to `sess` will get.
    fn next_handle(&self, sess: Session) -> OpHandle {
        OpHandle {
            sess: sess.id,
            idx: self.sessions[sess.id as usize].ops.len() as u32,
        }
    }

    fn push_op(&mut self, sess: Session, mut op: OpState) -> OpHandle {
        // Submitting behind an already-failed dependency (a deadline can
        // time a parent out on any machine): abort now rather than
        // waiting on a parent that will never succeed.
        let failed_dep = op
            .deps
            .iter()
            .any(|&d| self.op(d).status.is_some_and(OpStatus::is_failure));
        let h = self.next_handle(sess);
        op.submitted_at = self.clock;
        // Reverse edges: live parents notify this op's session when they
        // retire (and the failure cascade walks straight to it).
        for k in 0..op.deps.len() {
            let d = op.deps[k];
            if !self.op(d).done {
                self.op_mut(d).dependents.push(h);
            }
        }
        let ss = &mut self.sessions[sess.id as usize];
        if !op.ordered {
            ss.unordered_live += 1;
        }
        if ss.live_ops == 0 {
            // Idle → busy arrival: catch the session's virtual time up
            // to the band clock so a long-idle tenant cannot cash in
            // service it never contended for. (Wakes from credit parks
            // keep their earned lead — see `ready_notify`.)
            ss.vtime = ss.vtime.max(self.vnow[ss.qos.band()]);
        }
        ss.live_ops += 1;
        ss.meter.ops_submitted += 1;
        ss.ops.push(op);
        self.ready_notify(sess.id as usize);
        if failed_dep {
            let now = self.clock;
            self.conclude_and_cascade(h, OpStatus::DepFailed, now);
        }
        h
    }

    /// Split an elementwise op into per-rank instructions and queue it on
    /// `sess`, inserting realignment copies for color mismatches.
    ///
    /// `inputs` are read operands; `output` (if any) is the written
    /// operand (in-place ops pass the same id in both). All operands must
    /// be shared vectors of one length.
    #[allow(clippy::too_many_arguments)]
    fn submit_elementwise(
        &mut self,
        sess: Session,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
        opts: LaunchOpts,
        mut deps: Vec<OpHandle>,
        ordered: bool,
    ) -> OpHandle {
        // Color check: all operands of one instruction must share a color
        // (paper §III-A). When inputs disagree with the base color, the
        // runtime inserts realignment copies into same-colored temporaries
        // and gates the main op on them via DAG edges (paper §V).
        let base_color = output
            .or_else(|| inputs.first().copied())
            .map(|v| self.arrays[v.0].color)
            .expect("needs operands");
        // The copies inherit the builder's own DAG edges: a copy reads
        // the mismatched input, so it must wait for the same parents the
        // main op was gated on (one of them may be the op producing that
        // input — in another session, or skipped-over by `unordered`).
        let inherited = deps.clone();
        let mut inputs = inputs;
        for v in inputs.iter_mut() {
            if self.arrays[v.0].color != base_color && self.arrays[v.0].private.is_none() {
                let len = self.arrays[v.0].len;
                let tmp = self.vector_colored(len, Sharing::Shared, base_color);
                self.realignment_copies += 1;
                let cp = self.submit_elementwise_inner(
                    sess,
                    Opcode::Copy,
                    vec![],
                    vec![*v],
                    Some(tmp),
                    LaunchOpts::default(),
                    inherited.clone(),
                    ordered,
                );
                deps.push(cp);
                *v = tmp;
            }
        }
        self.submit_elementwise_inner(sess, op, scalars, inputs, output, opts, deps, ordered)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_elementwise_inner(
        &mut self,
        sess: Session,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
        opts: LaunchOpts,
        deps: Vec<OpHandle>,
        ordered: bool,
    ) -> OpHandle {
        let probe = *inputs.first().or(output.as_ref()).expect("needs operands");
        let len = self.arrays[probe.0].len;
        for v in inputs.iter().chain(output.iter()) {
            assert_eq!(self.arrays[v.0].len, len, "operand length mismatch");
        }
        let per_rank = self.vec_lines_per_rank(probe);
        let g = opts.granularity_lines.unwrap_or(per_rank).max(1);
        let chunks = per_rank.div_ceil(g) as usize;
        let handle = self.next_handle(sess);
        let mut id = self.take_instr_ids(chunks as u64 * self.n_ndas as u64);
        let mut pending = VecDeque::new();
        let mut chunk_sizes = vec![0u32; chunks];
        // In-place read-modify-write ops stream their output operand in
        // as well (Table I: AXPY and SCAL update y/x in place).
        let rmw = matches!(op, Opcode::Axpy | Opcode::Scal);
        #[allow(clippy::needless_range_loop)]
        for chunk in 0..chunks {
            let start = chunk as u64 * g;
            let lines = g.min(per_rank - start);
            for nda in 0..self.n_ndas {
                let mut reads: Vec<_> = inputs
                    .iter()
                    .map(|v| (self.arrays[v.0].layouts[nda].clone(), start))
                    .collect();
                if rmw {
                    reads.extend(
                        output
                            .iter()
                            .map(|v| (self.arrays[v.0].layouts[nda].clone(), start)),
                    );
                }
                let writes: Vec<_> = output
                    .iter()
                    .map(|v| (self.arrays[v.0].layouts[nda].clone(), start))
                    .collect();
                let instr = NdaInstr::elementwise(op, lines, reads, writes, id);
                id += 1;
                pending.push_back(PendingLaunch {
                    nda_idx: nda,
                    instr,
                    op: handle,
                    chunk,
                });
                chunk_sizes[chunk] += 1;
            }
        }
        let kind = OpKind::Elementwise {
            op,
            scalars,
            inputs,
            output,
        };
        let record = OpState::new(kind, pending, chunk_sizes, opts, deps, ordered);
        self.push_op(sess, record)
    }

    /// Split `y = A x` into one instruction per rank and queue it on
    /// `sess` (A streams, x/y live in the scratchpad).
    #[allow(clippy::too_many_arguments)]
    fn submit_gemv(
        &mut self,
        sess: Session,
        y: VecId,
        a: MatId,
        x: VecId,
        opts: LaunchOpts,
        deps: Vec<OpHandle>,
        ordered: bool,
    ) -> OpHandle {
        let (rows, cols) = self.arrays[a.0].shape.expect("matrix");
        assert_eq!(self.arrays[x.0].len, cols, "x length != cols");
        assert_eq!(self.arrays[y.0].len, rows, "y length != rows");
        let a_per_rank = self.arrays[a.0].lines_per_rank.min(
            ((rows * cols * 4) as u64)
                .div_ceil(64)
                .div_ceil(self.n_ndas as u64),
        );
        let x_per_rank = self.vec_lines_per_rank(x).max(1);
        let y_per_rank = self.vec_lines_per_rank(y).max(1);
        let handle = self.next_handle(sess);
        let first_id = self.take_instr_ids(self.n_ndas as u64);
        let mut pending = VecDeque::new();
        for nda in 0..self.n_ndas {
            let instr = NdaInstr::gemv(
                (self.arrays[a.0].layouts[nda].clone(), 0, a_per_rank),
                (self.arrays[x.0].layouts[nda].clone(), 0, x_per_rank),
                (self.arrays[y.0].layouts[nda].clone(), 0, y_per_rank),
                first_id + nda as u64,
            );
            pending.push_back(PendingLaunch {
                nda_idx: nda,
                instr,
                op: handle,
                chunk: 0,
            });
        }
        let chunk_sizes = vec![pending.len() as u32];
        let kind = OpKind::Gemv { y, a, x };
        let record = OpState::new(kind, pending, chunk_sizes, opts, deps, ordered);
        self.push_op(sess, record)
    }

    /// The `parallel_for` macro operation of Fig. 8: for each sample `i`,
    /// every NDA accumulates its local share of row `i` into its private
    /// copy of `a_pvt` (`a_pvt += alphas[i] * X[i]`).
    ///
    /// `samples_per_instr` batches consecutive samples into one NDA
    /// instruction — the paper's *macro NDA operation*, which amortizes
    /// launch packets over loop iterations (§V, load-imbalance
    /// optimization).
    #[allow(clippy::too_many_arguments)]
    fn submit_axpy_rows(
        &mut self,
        sess: Session,
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
        opts: LaunchOpts,
        deps: Vec<OpHandle>,
        ordered: bool,
    ) -> OpHandle {
        let (rows, cols) = self.arrays[x.0].shape.expect("matrix");
        assert!(alphas.len() <= rows, "more alphas than rows");
        assert!(
            self.arrays[a_pvt.0].private.is_some(),
            "a_pvt must be PRIVATE"
        );
        assert_eq!(self.arrays[a_pvt.0].len, cols, "a_pvt length != cols");
        assert!(
            samples_per_instr > 0,
            "need at least one sample per instruction"
        );
        let row_lines = ((cols * 4) as u64).div_ceil(64);
        let row_lines_per_rank = row_lines.div_ceil(self.n_ndas as u64).max(1);
        let n = alphas.len();
        let k = samples_per_instr;
        let n_batches = n.div_ceil(k);
        let handle = self.next_handle(sess);
        let mut id = self.take_instr_ids(n_batches as u64 * self.n_ndas as u64);
        let mut pending = VecDeque::new();
        let mut chunk_sizes = vec![0u32; n_batches];
        #[allow(clippy::needless_range_loop)]
        for batch in 0..n_batches {
            let first = batch * k;
            let count = k.min(n - first) as u64;
            let start = first as u64 * row_lines_per_rank;
            let span = count * row_lines_per_rank;
            for nda in 0..self.n_ndas {
                let x_l = self.arrays[x.0].layouts[nda].clone();
                let a_l = self.arrays[a_pvt.0].layouts[nda].clone();
                // Timing walk: the rank-share span of rows
                // [first, first+count) in X, plus the private accumulator
                // (read-modify-write, wrapped within its padded layout).
                let x_start = start.min(x_layout_guard(&self.arrays[x.0], span));
                let a_span = span.min(a_l.lines());
                let instr = NdaInstr::elementwise(
                    Opcode::Axpy,
                    a_span.min(span).max(1),
                    vec![(x_l, x_start), (a_l.clone(), 0)],
                    vec![(a_l, 0)],
                    id,
                );
                id += 1;
                pending.push_back(PendingLaunch {
                    nda_idx: nda,
                    instr,
                    op: handle,
                    chunk: batch,
                });
                chunk_sizes[batch] += 1;
            }
        }
        let kind = OpKind::AxpyRows {
            a_pvt,
            alphas,
            x,
            samples_per_instr,
        };
        let record = OpState::new(kind, pending, chunk_sizes, opts, deps, ordered);
        self.push_op(sess, record)
    }

    /// Oracle-only (the release launch loop uses the borrow-splitting
    /// [`deps_done_in`] instead).
    #[cfg(debug_assertions)]
    fn deps_done(&self, deps: &[OpHandle]) -> bool {
        deps.iter().all(|&d| self.op(d).done)
    }

    /// Enter session `s` into its band heap unless it is already there.
    /// Cheap and idempotent — called from every event that can make a
    /// session stageable. Premature entries are harmless: the next
    /// `next_launch` pop re-classifies (and re-parks) them without
    /// staging anything.
    ///
    /// Deliberately does **not** floor the session's virtual time to the
    /// band clock: a backlogged session woken from a credit park keeps
    /// the service lead its weight earned it (flooring here would reset
    /// weighted shares to round-robin every time credits run dry). The
    /// idle→busy floor lives at op arrival instead — see `push_op`.
    fn ready_notify(&mut self, s: usize) {
        let ss = &mut self.sessions[s];
        if ss.sched == SchedState::Ready {
            return;
        }
        let band = ss.qos.band();
        ss.sched = SchedState::Ready;
        ss.heap_stamp = ss.heap_stamp.wrapping_add(1);
        self.ready[band].push(Reverse((ss.vtime, s as u32, ss.heap_stamp)));
        perfcount::bump(Counter::ReadyIndexOps);
    }

    /// A credit for NDA `nda` returned to the front-end, or handed on
    /// unused: wake the smallest-key session parked on its waitlist
    /// (rule 1 of the module docs), dropping the stale entries popped on
    /// the way. One wake per credit, whatever the waitlist's length.
    /// Returns `false` once the waitlist is empty.
    pub(crate) fn credit_returned(&mut self, nda: usize) -> bool {
        while let Some(Reverse((band, vtime, s, stamp))) = self.waitlists[nda].pop() {
            perfcount::bump(Counter::ReadyIndexOps);
            let ss = &self.sessions[s as usize];
            // Live only under the session's whole current key: a classify
            // that parks ops and then finds one to serve leaves entries
            // at the pre-service virtual time under an unchanged stamp.
            let key = (ss.qos.band(), ss.vtime, ss.heap_stamp);
            if ss.sched == SchedState::Parked && key == (band, vtime, stamp) {
                self.ready_notify(s as usize);
                self.sessions[s as usize].woken_by = Some(nda as u32);
                return true;
            }
        }
        false
    }

    /// Per-executed-cycle index maintenance, run by the front-end just
    /// before staging: expire retry wake-ups. The wake heap is empty on
    /// the steady-state path, so this costs one branch test.
    pub(crate) fn pre_stage(&mut self, now: u64) {
        while let Some(&Reverse((t, s))) = self.wake.peek() {
            if t > now {
                break;
            }
            self.wake.pop();
            perfcount::bump(Counter::ReadyIndexOps);
            if self.sessions[s as usize].sched == SchedState::Parked {
                self.ready_notify(s as usize);
            }
        }
    }

    /// Classify session `s` against real queue `space`: return its
    /// stageable candidate op if one exists; otherwise park the session
    /// on every blocking credit waitlist and/or the retry wake heap
    /// (the two gates whose opening is a timer or a credit return, not a
    /// notifying op event), or leave it untracked when every remaining
    /// gate (dep retirement, barrier advance, completion) re-notifies it
    /// anyway. Mirrors the `stage_candidate` scan exactly.
    fn classify_and_park(
        &mut self,
        s: usize,
        space: &impl Fn(usize) -> usize,
        now: u64,
    ) -> Option<usize> {
        let mut wake_at = u64::MAX;
        let mut parked = false;
        let found = {
            let sessions = &self.sessions;
            let alive = &self.alive;
            let waitlists = &mut self.waitlists;
            let ss = &sessions[s];
            let key = (ss.qos.band(), ss.vtime, s as u32, ss.heap_stamp);
            let mut prior_all_done = true;
            let mut found = None;
            for i in ss.first_live..ss.ops.len() {
                let op = &ss.ops[i];
                if op.done {
                    continue;
                }
                let order_ok = !op.ordered || prior_all_done;
                if order_ok && !op.pending.is_empty() && deps_done_in(sessions, &op.deps) {
                    let head = op.pending.front().expect("nonempty");
                    let barrier_ok = !op.barrier || head.chunk <= op.released_chunks;
                    if barrier_ok {
                        if op.retry_after > now {
                            // Expiry is a timer, not a notifying event:
                            // arm an explicit wake-up.
                            wake_at = wake_at.min(op.retry_after);
                            parked = true;
                        } else {
                            let target = Self::redirect(alive, head.nda_idx);
                            if space(target) > 0 {
                                found = Some(i);
                                break;
                            }
                            // Credit-blocked: only a return on this NDA
                            // (or a quarantine flush) opens it.
                            waitlists[target].push(Reverse(key));
                            perfcount::bump(Counter::ReadyIndexOps);
                            parked = true;
                        }
                    }
                }
                prior_all_done = false;
                if ss.unordered_live == 0 {
                    // Everything later is ordered behind this op: stop.
                    break;
                }
            }
            found
        };
        if found.is_some() {
            return found;
        }
        if parked {
            self.sessions[s].sched = SchedState::Parked;
            if wake_at != u64::MAX {
                self.wake.push(Reverse((wake_at, s as u32)));
                perfcount::bump(Counter::ReadyIndexOps);
            }
        } else {
            self.sessions[s].sched = SchedState::Untracked;
        }
        None
    }

    /// Debug oracle: the session `next_launch` must serve — the
    /// stageable session with the minimum `(band, vtime, id)` key, found
    /// by scanning *every* session the way the pre-index scheduler did.
    /// Continuously validates ready-index notification coverage in debug
    /// builds (gated to small machines; `qos_sched_props` leans on it).
    #[cfg(debug_assertions)]
    fn oracle_pick(&self, space: &impl Fn(usize) -> usize, now: u64) -> Option<usize> {
        let mut best: Option<((usize, u64, usize), usize)> = None;
        for s in 0..self.sessions.len() {
            if self.stage_candidate(s, space, now).is_none() {
                continue;
            }
            let ss = &self.sessions[s];
            let key = (ss.qos.band(), ss.vtime, s);
            if best.as_ref().is_none_or(|&(bk, _)| key < bk) {
                best = Some((key, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// The op in session `s` whose head launch is releasable right now
    /// (deps retired, program order satisfied, chunk barrier open, FSM
    /// queue space available), if any.
    ///
    /// The scan starts at the session's live watermark and — when the
    /// session has no live unordered ops — stops at the first blocked
    /// ordered op, which is the strict-order fast path: at most one op is
    /// examined per call for classic submission streams.
    ///
    /// Oracle-only: the release-build launch loop inlines this scan
    /// (borrow-split over the session table) in `next_launch`.
    #[cfg(debug_assertions)]
    fn stage_candidate(
        &self,
        s: usize,
        space: &impl Fn(usize) -> usize,
        now: u64,
    ) -> Option<usize> {
        let ss = &self.sessions[s];
        let mut prior_all_done = true;
        for i in ss.first_live..ss.ops.len() {
            let op = &ss.ops[i];
            if op.done {
                continue;
            }
            let order_ok = !op.ordered || prior_all_done;
            // `retry_after` is 0 (always open) outside fault recovery.
            if order_ok
                && op.retry_after <= now
                && !op.pending.is_empty()
                && self.deps_done(&op.deps)
            {
                let head = op.pending.front().expect("nonempty");
                let barrier_ok = !op.barrier || head.chunk <= op.released_chunks;
                let target = Self::redirect(&self.alive, head.nda_idx);
                if barrier_ok && space(target) > 0 {
                    return Some(i);
                }
            }
            prior_all_done = false;
            if ss.unordered_live == 0 {
                // Everything later is ordered behind this op: stop.
                break;
            }
        }
        None
    }

    /// Release the next launch to go to the channel, arbitrating across
    /// sessions by QoS band and virtual time (see [`QosClass`]) and
    /// respecting DAG edges, program order, and chunk barriers. The
    /// system calls this each cycle its launch stage is empty, with the
    /// free FSM queue space per NDA; `now` stamps first-launch staging
    /// for DAG observability. The launch is the head of the served
    /// session's candidate op, and the session is charged
    /// `QUANTUM / weight` of virtual time for it.
    ///
    /// Cost is O(active): the pick pops the ready index instead of
    /// scanning sessions. Each pop either stages (and re-indexes the
    /// session), drops a stale entry, or re-parks a session that was
    /// woken optimistically — every pop is paid for by the event that
    /// inserted the entry, so the amortized per-window cost tracks event
    /// traffic, not tenant count. In debug builds a full-scan oracle
    /// cross-checks every pick on machines up to 64 sessions.
    pub fn next_launch(
        &mut self,
        space: impl Fn(usize) -> usize,
        now: u64,
    ) -> Option<PendingLaunch> {
        #[cfg(debug_assertions)]
        let oracle = (self.sessions.len() <= 64).then(|| self.oracle_pick(&space, now));
        let mut staged: Option<PendingLaunch> = None;
        'bands: for band in 0..2 {
            while let Some(&Reverse((_, sess, stamp))) = self.ready[band].peek() {
                perfcount::bump(Counter::SchedSessionsScanned);
                perfcount::bump(Counter::ReadyIndexOps);
                self.ready[band].pop();
                let s = sess as usize;
                if self.sessions[s].sched != SchedState::Ready
                    || self.sessions[s].heap_stamp != stamp
                {
                    continue; // stale entry
                }
                self.sessions[s].sched = SchedState::Untracked; // entry consumed
                let woken_by = self.sessions[s].woken_by.take().map(|k| k as usize);
                if let Some(i) = self.classify_and_park(s, &space, now) {
                    // Serve this session: advance the band's virtual clock
                    // to its tag, release the candidate op's head launch,
                    // charge for it, and re-index the session.
                    self.vnow[band] = self.vnow[band].max(self.sessions[s].vtime);
                    let ss = &mut self.sessions[s];
                    let op = &mut ss.ops[i];
                    if op.first_staged_at.is_none() {
                        op.first_staged_at = Some(now);
                    }
                    let mut launch = op.pending.pop_front().expect("candidate has a head");
                    launch.nda_idx = Self::redirect(&self.alive, launch.nda_idx);
                    ss.vtime = ss.vtime.saturating_add(QUANTUM / ss.qos.weight());
                    if self.classify_and_park(s, &space, now).is_some() {
                        self.ready_notify(s);
                    }
                    staged = Some(launch);
                }
                // Re-parked, or served on another NDA than the one whose
                // credit woke it: that credit passes to the NDA's next
                // waiter (rule 2).
                if let Some(k) = woken_by {
                    let took_k = staged.as_ref().is_some_and(|l| l.nda_idx == k);
                    if space(k) > 0 && !took_k {
                        self.credit_returned(k);
                    }
                }
                if staged.is_some() {
                    break 'bands; // one launch per call
                }
            }
        }
        #[cfg(debug_assertions)]
        if let Some(oracle) = oracle {
            debug_assert_eq!(
                staged.as_ref().map(|l| l.op.sess as usize),
                oracle,
                "ready-index pick diverged from the full-scan oracle"
            );
        }
        staged
    }

    /// True when a session sits in the ready index — the O(1)
    /// conservative gate the event-horizon fast-forward consults. It may
    /// answer `true` for a session that turns out to be blocked (the
    /// next executed tick's [`next_launch`](Self::next_launch) pop
    /// re-parks it, after which the answer is `false` again), but never
    /// `false` when a launch could stage: every event that creates
    /// stageability notifies the index. Extra executed cycles never
    /// change staging decisions — the lockstep suites pin this.
    pub fn launch_ready(&self) -> bool {
        !self.ready[0].is_empty() || !self.ready[1].is_empty()
    }

    /// Record the completion of one instruction of chunk `chunk` of op
    /// `h` (the front-end's in-flight record names both), finalizing the
    /// op when it is the last one. A completion for an op already
    /// concluded (timed out, failed) is ignored.
    pub(crate) fn instr_completed(&mut self, h: OpHandle, chunk: usize, now: u64) {
        let finished = {
            let op = self.op_mut(h);
            if op.done {
                return; // late completion of a concluded op
            }
            op.completed_instrs += 1;
            op.chunk_completed[chunk] += 1;
            if op.chunk_completed[chunk] == op.chunk_sizes[chunk] && chunk == op.released_chunks {
                // Advance the barrier over all fully-completed chunks.
                while op.released_chunks < op.chunk_sizes.len()
                    && op.chunk_completed[op.released_chunks] == op.chunk_sizes[op.released_chunks]
                {
                    op.released_chunks += 1;
                }
            }
            op.completed_instrs == op.total_instrs
        };
        if finished {
            self.finalize(h);
            let ss = &mut self.sessions[h.sess as usize];
            let op = &mut ss.ops[h.idx as usize];
            op.finished_at = Some(now);
            op.status = Some(OpStatus::Completed);
            if op.deadline_at.is_some() {
                self.armed_deadlines -= 1;
            }
            let ss = &mut self.sessions[h.sess as usize];
            let op = &mut ss.ops[h.idx as usize];
            if !op.ordered {
                ss.unordered_live -= 1;
            }
            while ss.first_live < ss.ops.len() && ss.ops[ss.first_live].done {
                ss.first_live += 1;
            }
            self.on_op_terminal(h, now);
        } else {
            // A barrier may have advanced (or program order may still be
            // waiting on more completions): re-enter the session so the
            // next tick can stage its newly-open work.
            self.ready_notify(h.sess as usize);
        }
    }

    /// Terminal bookkeeping shared by the completion and conclusion
    /// paths: tenant metering, the live-op gauge, the finished-op event
    /// feed, and ready-index notification of the session and every
    /// registered dependent.
    fn on_op_terminal(&mut self, h: OpHandle, now: u64) {
        let s = h.sess as usize;
        {
            let ss = &mut self.sessions[s];
            let op = &ss.ops[h.idx as usize];
            let completed = op.status == Some(OpStatus::Completed);
            let submitted = op.submitted_at;
            let first_staged = op.first_staged_at;
            let m = &mut ss.meter;
            if completed {
                m.ops_completed += 1;
            } else {
                m.ops_failed += 1;
            }
            m.cycles_resident += now.saturating_sub(submitted);
            match first_staged {
                Some(fs) => {
                    m.launch_wait_cycles += fs.saturating_sub(submitted);
                    m.service_cycles += now.saturating_sub(fs);
                }
                None => m.launch_wait_cycles += now.saturating_sub(submitted),
            }
            ss.live_ops -= 1;
        }
        self.finished_ops.push_back(h);
        self.ready_notify(s);
        let n_dep = self.op(h).dependents.len();
        for k in 0..n_dep {
            let d = self.op(h).dependents[k];
            self.ready_notify(d.sess as usize);
        }
    }

    /// Pop the next op that reached a terminal state since the last
    /// drain (the completion-event feed behind stream resubmission).
    /// Pops in deterministic conclusion order.
    pub(crate) fn pop_finished(&mut self) -> Option<OpHandle> {
        self.finished_ops.pop_front()
    }

    /// Conclude op `h` with `status` outside the normal last-instruction
    /// path (fault recovery): abandon un-issued work, mark the op done
    /// (finalizing results first when `status` is `Completed`, i.e. a
    /// host fallback), and unblock program order. Idempotent on done ops.
    #[cold]
    fn conclude(&mut self, h: OpHandle, status: OpStatus, now: u64) {
        if self.op(h).done {
            return;
        }
        match status {
            OpStatus::Completed => self.finalize(h), // sets done
            OpStatus::Failed => self.counters.ops_failed += 1,
            OpStatus::TimedOut => self.counters.ops_timed_out += 1,
            OpStatus::DepFailed => self.counters.ops_dep_failed += 1,
        }
        if self.op(h).deadline_at.is_some() {
            self.armed_deadlines -= 1;
        }
        let ss = &mut self.sessions[h.sess as usize];
        let op = &mut ss.ops[h.idx as usize];
        op.done = true;
        op.status = Some(status);
        op.finished_at = Some(now);
        op.pending.clear();
        op.retry_after = 0;
        if !op.ordered {
            ss.unordered_live -= 1;
        }
        while ss.first_live < ss.ops.len() && ss.ops[ss.first_live].done {
            ss.first_live += 1;
        }
        self.on_op_terminal(h, now);
    }

    /// [`conclude`](Self::conclude), then propagate a failure along
    /// explicit DAG edges: every live op depending (transitively) on a
    /// failed op is aborted `DepFailed` rather than left waiting forever.
    /// Plain program order does NOT propagate — a terminal op, failed or
    /// not, unblocks its successors. The walk follows the reverse edges
    /// registered at submission, so its cost is the victim set, not the
    /// global op table.
    #[cold]
    pub(crate) fn conclude_and_cascade(&mut self, h: OpHandle, status: OpStatus, now: u64) {
        self.conclude(h, status, now);
        if status == OpStatus::Completed {
            return;
        }
        let mut work = vec![h];
        let mut victims = Vec::new();
        while let Some(f) = work.pop() {
            victims.clear();
            for &d in &self.op(f).dependents {
                if !self.op(d).done {
                    victims.push(d);
                }
            }
            for &v in &victims {
                self.conclude(v, OpStatus::DepFailed, now);
                work.push(v);
            }
        }
    }

    /// Handle a failed or timed-out in-flight launch: retry with
    /// bounded-exponential backoff while budget remains (the retried
    /// launch gets a FRESH instruction id and goes back to the head of
    /// the op's queue), otherwise conclude the op — re-executing on the
    /// host first when [`OpBuilder::fallback_host`] opted in.
    ///
    /// `rank_death` marks a launch rejected because its target rank died
    /// permanently. While a survivor exists the requeue is a *re-shard*,
    /// not a retry against a flaky machine: staging redirects it to a
    /// live rank, progress is certain, so it neither consumes the retry
    /// budget nor backs off (a death can reject a whole queue of
    /// launches at once, which would otherwise drain the budget of every
    /// op with work on that rank). With no survivors the normal budget
    /// applies, bounding the rejection loop.
    #[cold]
    pub(crate) fn instr_failed(&mut self, mut launch: PendingLaunch, now: u64, rank_death: bool) {
        let h = launch.op;
        if self.op(h).done {
            return; // op already concluded; drop the straggler
        }
        if rank_death && self.alive.iter().any(|&a| a) {
            self.counters.instr_retries += 1;
            let fresh = self.take_instr_ids(1);
            launch.instr.id = fresh;
            self.op_mut(h).pending.push_front(launch);
            self.ready_notify(h.sess as usize);
            return;
        }
        let retries = self.op(h).retries;
        if retries < self.retry_limit {
            let backoff = self
                .retry_backoff
                .checked_shl(retries)
                .unwrap_or(u64::MAX)
                .min(self.retry_backoff_cap);
            self.counters.max_retry_backoff = self.counters.max_retry_backoff.max(backoff);
            self.counters.instr_retries += 1;
            let fresh = self.take_instr_ids(1);
            launch.instr.id = fresh;
            let op = self.op_mut(h);
            op.retries += 1;
            op.retry_after = now + backoff;
            op.pending.push_front(launch);
            // The session re-parks itself onto the wake heap at the next
            // pop, which keeps the hold's expiry in the horizon.
            self.ready_notify(h.sess as usize);
        } else if self.op(h).fallback_host {
            self.counters.host_fallbacks += 1;
            self.conclude_and_cascade(h, OpStatus::Completed, now);
        } else {
            self.conclude_and_cascade(h, OpStatus::Failed, now);
        }
    }

    /// Expire per-op deadlines: every live op whose
    /// [`OpBuilder::deadline`] has passed concludes `TimedOut` (failure
    /// cascades along DAG edges). Free while no deadline is armed.
    pub(crate) fn check_deadlines(&mut self, now: u64) {
        if self.armed_deadlines == 0 {
            return;
        }
        self.check_deadlines_cold(now);
    }

    #[cold]
    fn check_deadlines_cold(&mut self, now: u64) {
        let mut expired = Vec::new();
        for (si, ss) in self.sessions.iter().enumerate() {
            for (oi, op) in ss.ops.iter().enumerate().skip(ss.first_live) {
                if !op.done && op.deadline_at.is_some_and(|d| d <= now) {
                    expired.push(OpHandle {
                        sess: si as u32,
                        idx: oi as u32,
                    });
                }
            }
        }
        for h in expired {
            self.conclude_and_cascade(h, OpStatus::TimedOut, now);
        }
    }

    /// Attach builder-level recovery options to a freshly submitted op.
    fn apply_recovery_opts(&mut self, h: OpHandle, deadline: Option<u64>, fallback_host: bool) {
        if deadline.is_none() && !fallback_host {
            return;
        }
        let now = self.clock;
        let op = self.op_mut(h);
        op.fallback_host = fallback_host;
        if let Some(cycles) = deadline {
            if !op.done {
                op.deadline_at = Some(now.saturating_add(cycles));
                self.armed_deadlines += 1;
            }
        }
    }

    /// Earliest future cycle at which recovery state changes on its own:
    /// a retry hold expiring or an armed deadline firing. The system
    /// folds this into its front-end horizon so fast-forwarding engines
    /// execute those cycles exactly. `None` when nothing is pending.
    pub(crate) fn next_recovery_wake(&self, now: u64) -> Option<u64> {
        let mut wake = u64::MAX;
        if self.armed_deadlines > 0 {
            for ss in &self.sessions {
                for op in &ss.ops[ss.first_live..] {
                    if !op.done {
                        if let Some(d) = op.deadline_at {
                            wake = wake.min(d);
                        }
                    }
                }
            }
        }
        // Retry holds live on the wake heap (a session whose hold is not
        // yet parked there is still Ready, which already pins the
        // horizon to `now` via `launch_ready`). Stale entries only make
        // the horizon conservative — they are drained by `pre_stage`.
        if let Some(&Reverse((t, _))) = self.wake.peek() {
            wake = wake.min(t);
        }
        (wake != u64::MAX).then(|| wake.max(now))
    }

    /// Functionally execute the finished op on the backing store.
    fn finalize(&mut self, h: OpHandle) {
        let kind = std::mem::replace(
            &mut self.op_mut(h).kind,
            OpKind::Elementwise {
                op: Opcode::Copy,
                scalars: vec![],
                inputs: vec![],
                output: None,
            },
        );
        match &kind {
            OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            } => {
                let input_data: Vec<Vec<f32>> = inputs
                    .iter()
                    .map(|v| self.arrays[v.0].backing.clone())
                    .collect();
                let input_refs: Vec<&[f32]> = input_data.iter().map(|v| v.as_slice()).collect();
                let stats = match output {
                    Some(o) => pe::execute(
                        *op,
                        scalars,
                        &input_refs,
                        Some(&mut self.arrays[o.0].backing),
                    ),
                    None => pe::execute(*op, scalars, &input_refs, None),
                };
                self.op_mut(h).result = stats.reduction;
                self.add_activity(stats);
            }
            OpKind::Gemv { y, a, x } => {
                let (rows, cols) = self.arrays[a.0].shape.expect("matrix");
                let a_data = self.arrays[a.0].backing.clone();
                let x_data = self.arrays[x.0].backing.clone();
                let stats =
                    pe::execute_gemv(&a_data, &x_data, &mut self.arrays[y.0].backing, rows, cols);
                self.add_activity(stats);
            }
            OpKind::AxpyRows {
                a_pvt, alphas, x, ..
            } => {
                let (_, cols) = self.arrays[x.0].shape.expect("matrix");
                let x_data = self.arrays[x.0].backing.clone();
                let owners = self.line_owners(*x);
                let lines_per_row = cols / 16;
                let privates = self.arrays[a_pvt.0]
                    .private
                    .as_mut()
                    .expect("private array");
                let mut fmas = 0u64;
                for (i, &alpha) in alphas.iter().enumerate() {
                    let row = &x_data[i * cols..(i + 1) * cols];
                    for l in 0..lines_per_row {
                        let owner = owners[(i * lines_per_row + l) % owners.len()];
                        let dst = &mut privates[owner];
                        for e in 0..16 {
                            let j = l * 16 + e;
                            dst[j] += alpha * row[j];
                            fmas += 1;
                        }
                    }
                }
                self.pe_activity.fmas += fmas;
                self.pe_activity.buffer_accesses += fmas / 2;
            }
        }
        let op = self.op_mut(h);
        op.kind = kind;
        op.done = true;
    }

    /// Which NDA owns each cache line of a shared array (exact, via the
    /// mapping), cycled for timing-padded tails.
    fn line_owners(&self, m: MatId) -> Vec<usize> {
        let a = &self.arrays[m.0];
        match &a.region {
            Some(region) => {
                let lines = ((a.len * 4) as u64).div_ceil(64);
                let rpc = self.cfg.ranks_per_channel;
                (0..lines)
                    .map(|l| {
                        let d = self.mapper.map_pa(region.pa_of(l * 64));
                        self.nda_ranks
                            .iter()
                            .position(|&(c, r)| (c, r) == (d.channel, d.rank))
                            .unwrap_or((d.channel * rpc + d.rank) % self.n_ndas)
                    })
                    .collect()
            }
            // Rank-partition mode: round-robin striping.
            None => (0..self.n_ndas).collect(),
        }
    }

    fn add_activity(&mut self, s: pe::ExecStats) {
        self.pe_activity.fmas += s.fmas;
        self.pe_activity.buffer_accesses += s.buffer_accesses;
        self.pe_activity.scratch_accesses += s.scratch_accesses;
    }

    /// True when the op reached a terminal state (results visible only
    /// when [`op_status`](Self::op_status) is `Completed`).
    pub fn op_done(&self, h: OpHandle) -> bool {
        self.op(h).done
    }

    /// Terminal status of op `h`, `None` while it is still live. An op
    /// reads `Some(Completed)` unless it failed on a faulted machine,
    /// its [`OpBuilder::deadline`] expired (on any machine), or a
    /// dependency did not complete.
    pub fn op_status(&self, h: OpHandle) -> Option<OpStatus> {
        self.op(h).status
    }

    /// True when `h` names an existing session/op pair. Snapshot decode
    /// validates handles held outside the runtime (staged launches,
    /// in-flight completions, shard-side tags) through this.
    pub(crate) fn handle_in_range(&self, h: OpHandle) -> bool {
        self.sessions
            .get(h.sess as usize)
            .is_some_and(|s| (h.idx as usize) < s.ops.len())
    }

    /// Reduction result of a completed DOT/NRM2.
    pub fn op_result(&self, h: OpHandle) -> Option<f32> {
        self.op(h).result
    }

    /// Cycle at which the op completed.
    pub fn op_finished_at(&self, h: OpHandle) -> Option<u64> {
        self.op(h).finished_at
    }

    /// Cycle at which the op's first launch was staged toward the
    /// channel (`None` while it is still held by DAG edges, program
    /// order, or queue backpressure).
    pub fn op_first_staged_at(&self, h: OpHandle) -> Option<u64> {
        self.op(h).first_staged_at
    }

    /// Host-side reduction of a private array into a shared vector
    /// (`host::reduce` of Fig. 8): functional sum over NDA copies plus an
    /// analytic host-traffic cycle charge.
    pub fn host_reduce(&mut self, dst: VecId, src: VecId) {
        let len = self.arrays[dst.0].len;
        assert_eq!(self.arrays[src.0].len, len);
        let privates = self.arrays[src.0]
            .private
            .as_ref()
            .expect("private source")
            .clone();
        let out = &mut self.arrays[dst.0].backing;
        out.iter_mut().for_each(|v| *v = 0.0);
        for copy in &privates {
            for (o, v) in out.iter_mut().zip(copy) {
                *o += *v;
            }
        }
        // Host reads n_ndas copies and writes one: bytes / peak BW.
        let bytes = (len * 4 * (self.n_ndas + 1)) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }

    /// Zero every private copy of a private vector.
    pub fn clear_private(&mut self, v: VecId) {
        for copy in self.arrays[v.0].private.as_mut().expect("private array") {
            copy.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Host-side elementwise sigmoid (`host::sigmoid` of Fig. 8).
    pub fn host_sigmoid(&mut self, v: VecId) {
        for x in &mut self.arrays[v.0].backing {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        let bytes = (self.arrays[v.0].len * 8) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }

    /// Every op of `sess` completed and nothing pending (the
    /// session-quiescent [`Waitable`](crate::system::Waitable)).
    pub fn session_idle(&self, sess: Session) -> bool {
        let ss = &self.sessions[sess.id as usize];
        ss.ops[ss.first_live..].iter().all(|o| o.done)
    }

    /// All ops of every session completed and nothing pending.
    pub fn quiescent(&self) -> bool {
        self.sessions
            .iter()
            .all(|ss| ss.ops[ss.first_live..].iter().all(|o| o.done))
    }

    // ---- QoS classes and tenant metering --------------------------------

    /// Set `sess`'s QoS class. Takes effect at the next arbitration
    /// decision; the session keeps its virtual-time position, floored to
    /// the new band's clock so it cannot cash in credit accumulated in
    /// the other band.
    pub fn set_qos(&mut self, sess: Session, class: QosClass) {
        let s = sess.id as usize;
        let band = class.band();
        let vt = self.sessions[s].vtime.max(self.vnow[band]);
        let ss = &mut self.sessions[s];
        ss.qos = class;
        ss.vtime = vt;
        match ss.sched {
            SchedState::Ready => {
                // Re-home the live heap entry into the new band; the old
                // entry's stamp goes stale and is dropped on pop.
                ss.heap_stamp = ss.heap_stamp.wrapping_add(1);
                let stamp = ss.heap_stamp;
                let woken_by = ss.woken_by.take();
                self.ready[band].push(Reverse((vt, s as u32, stamp)));
                perfcount::bump(Counter::ReadyIndexOps);
                // Its new key may sort after waiters it was woken ahead
                // of: hand the credit that woke it on (rule 3).
                if let Some(k) = woken_by {
                    self.credit_returned(k as usize);
                }
            }
            // Its waitlist keys went stale: the next pass re-parks it
            // under the new key (rule 3).
            SchedState::Parked => self.ready_notify(s),
            SchedState::Untracked => {}
        }
    }

    /// The QoS class of `sess`.
    pub fn qos(&self, sess: Session) -> QosClass {
        self.sessions[sess.id as usize].qos
    }

    /// Per-tenant metering rows for `SimReport::tenants`, session order.
    pub(crate) fn tenant_reports(&self) -> Vec<TenantReport> {
        self.sessions
            .iter()
            .enumerate()
            .map(|(i, ss)| {
                let mut t = ss.meter.clone();
                t.session = i as u32;
                t
            })
            .collect()
    }

    // ---- snapshot support -----------------------------------------------

    /// Check a restored runtime against its configuration and its own
    /// tables: per-NDA counts, array ids, NDA indexes, chunk tables,
    /// session watermarks, and every op handle (handles may
    /// forward-reference sessions, so this runs only once the whole
    /// table exists).
    #[cold]
    pub(crate) fn validate(&self) -> Result<(), CodecError> {
        let n = self.n_ndas;
        let ids = |ids: &[usize]| ids.iter().all(|&i| i < self.arrays.len());
        let handles = |hs: &[OpHandle]| hs.iter().all(|&h| self.handle_in_range(h));
        if self.rp_next_row.len() != n {
            return Err(CodecError::ConfigMismatch);
        }
        for a in &self.arrays {
            let copies_ok = a.private.as_ref().is_none_or(|p| p.len() == n);
            check(copies_ok && a.layouts.len() == n, "per-NDA array copies")?;
        }
        check(!self.sessions.is_empty(), "no sessions")?;
        for ss in &self.sessions {
            let n_ops = ss.ops.len();
            check(
                ss.first_live <= n_ops && ss.unordered_live <= n_ops,
                "session watermarks",
            )?;
            for op in &ss.ops {
                check(
                    match &op.kind {
                        OpKind::Elementwise { inputs, output, .. } => {
                            ids(&inputs.iter().chain(output).map(|v| v.0).collect::<Vec<_>>())
                        }
                        OpKind::Gemv { y, a, x } => ids(&[y.0, a.0, x.0]),
                        OpKind::AxpyRows { a_pvt, x, .. } => ids(&[a_pvt.0, x.0]),
                    },
                    "array id out of range",
                )?;
                let chunks = op.chunk_sizes.len();
                check(
                    op.pending.iter().all(|p| p.nda_idx < n),
                    "pending NDA index",
                )?;
                check(
                    op.chunk_completed.len() == chunks && op.released_chunks <= chunks,
                    "chunk table",
                )?;
                let pending: Vec<OpHandle> = op.pending.iter().map(|p| p.op).collect();
                check(
                    handles(&op.deps) && handles(&pending),
                    "op handle out of range",
                )?;
            }
        }
        let finished: Vec<OpHandle> = self.finished_ops.iter().copied().collect();
        check(handles(&finished), "finished-op handle")
    }

    /// Rebuild the derived state a snapshot does not carry, after
    /// [`validate`](Self::validate): the armed-deadline count, reverse
    /// dependency edges, live-op gauges, and the ready index.
    #[cold]
    pub(crate) fn rebuild_derived(&mut self) {
        // `armed_deadlines` is derived state: recount live armed ops.
        self.armed_deadlines = 0;
        for ss in &self.sessions {
            for op in &ss.ops {
                if !op.done && op.deadline_at.is_some() {
                    self.armed_deadlines += 1;
                }
            }
        }
        // The ready index, reverse-dependency edges, and live-op gauges
        // are likewise derived — rebuild rather than serialize them.
        let mut dep_edges: Vec<(OpHandle, OpHandle)> = Vec::new();
        for (s, ss) in self.sessions.iter_mut().enumerate() {
            ss.live_ops = ss.ops.iter().filter(|o| !o.done).count() as u32;
            for (i, op) in ss.ops.iter().enumerate() {
                if op.done {
                    continue;
                }
                let h = OpHandle {
                    sess: s as u32,
                    idx: i as u32,
                };
                for &d in &op.deps {
                    dep_edges.push((d, h));
                }
            }
        }
        for (d, h) in dep_edges {
            if !self.op(d).done {
                self.op_mut(d).dependents.push(h);
            }
        }
        self.ready[0].clear();
        self.ready[1].clear();
        self.wake.clear();
        for wl in &mut self.waitlists {
            wl.clear();
        }
        // Classify every session against infinite queue space: sessions
        // whose candidate is retry-held get exact wake-ups; the rest of
        // the stageable ones enter Ready. A Ready entry that proves
        // credit-blocked at the next real staging pass re-parks itself —
        // premature entries cost executed cycles, never events, so the
        // resumed report stays bit-identical.
        for s in 0..self.sessions.len() {
            if self
                .classify_and_park(s, &|_| usize::MAX, self.clock)
                .is_some()
            {
                self.ready_notify(s);
            }
        }
    }
}

/// `deps_done` over a borrowed session table (borrow-splitting helper
/// for [`Runtime::classify_and_park`]).
fn deps_done_in(sessions: &[SessionState], deps: &[OpHandle]) -> bool {
    deps.iter()
        .all(|&d| sessions[d.sess as usize].ops[d.idx as usize].done)
}

/// Builder for one op submission: launch options, DAG edges, and ordering
/// mode, finished by [`submit`](OpBuilder::submit).
#[must_use = "an OpBuilder does nothing until .submit()"]
pub struct OpBuilder<'rt> {
    rt: &'rt mut Runtime,
    sess: Session,
    kind: OpKind,
    opts: LaunchOpts,
    deps: Vec<OpHandle>,
    ordered: bool,
    deadline: Option<u64>,
    fallback_host: bool,
}

impl<'rt> OpBuilder<'rt> {
    fn new(rt: &'rt mut Runtime, sess: Session, kind: OpKind) -> Self {
        Self {
            rt,
            sess,
            kind,
            opts: LaunchOpts::default(),
            deps: Vec::new(),
            ordered: true,
            deadline: None,
            fallback_host: false,
        }
    }

    /// Replace the launch options wholesale.
    pub fn opts(mut self, opts: LaunchOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Cache blocks per NDA instruction per rank (the Fig.-10 knob).
    pub fn granularity_lines(mut self, lines: u64) -> Self {
        self.opts.granularity_lines = Some(lines);
        self
    }

    /// Asynchronous macro launch: do not barrier between chunks.
    pub fn no_barrier(mut self) -> Self {
        self.opts.barrier_per_chunk = false;
        self
    }

    /// Add a DAG edge: this op's launches are held until `parent` has
    /// retired. `parent` may belong to any session.
    pub fn after(mut self, parent: OpHandle) -> Self {
        self.deps.push(parent);
        self
    }

    /// Opt out of session program order: gate this op on its
    /// [`after`](Self::after) edges alone, letting it overlap other ops
    /// of the same session.
    pub fn unordered(mut self) -> Self {
        self.ordered = false;
        self
    }

    /// Arm a per-op deadline: if the op has not finished `cycles` DRAM
    /// cycles after submission it concludes
    /// [`TimedOut`](OpStatus::TimedOut) (and the failure cascades along
    /// explicit DAG edges).
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.deadline = Some(cycles);
        self
    }

    /// Graceful degradation opt-in: when the op exhausts its retry
    /// budget on a faulted machine, re-execute it on the host cores
    /// (concluding [`Completed`](OpStatus::Completed) with results
    /// visible) instead of concluding [`Failed`](OpStatus::Failed).
    pub fn fallback_host(mut self) -> Self {
        self.fallback_host = true;
        self
    }

    /// Queue the op and return its handle.
    pub fn submit(self) -> OpHandle {
        let OpBuilder {
            rt,
            sess,
            kind,
            opts,
            deps,
            ordered,
            deadline,
            fallback_host,
        } = self;
        let h = match kind {
            OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            } => rt.submit_elementwise(sess, op, scalars, inputs, output, opts, deps, ordered),
            OpKind::Gemv { y, a, x } => rt.submit_gemv(sess, y, a, x, opts, deps, ordered),
            OpKind::AxpyRows {
                a_pvt,
                alphas,
                x,
                samples_per_instr,
            } => rt.submit_axpy_rows(
                sess,
                a_pvt,
                alphas,
                x,
                samples_per_instr,
                opts,
                deps,
                ordered,
            ),
        };
        rt.apply_recovery_opts(h, deadline, fallback_host);
        h
    }
}

impl Session {
    /// Build an elementwise Table-I operation. `inputs` are read
    /// operands; `output` (if any) is the written operand (in-place ops
    /// pass the same id in both).
    pub fn elementwise<'rt>(
        self,
        rt: &'rt mut Runtime,
        op: Opcode,
        scalars: Vec<f32>,
        inputs: Vec<VecId>,
        output: Option<VecId>,
    ) -> OpBuilder<'rt> {
        OpBuilder::new(
            rt,
            self,
            OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            },
        )
    }

    /// Build `y = A x` (one instruction per rank; A streams, x/y live in
    /// the scratchpad).
    pub fn gemv<'rt>(self, rt: &'rt mut Runtime, y: VecId, a: MatId, x: VecId) -> OpBuilder<'rt> {
        OpBuilder::new(rt, self, OpKind::Gemv { y, a, x })
    }

    /// Build the `parallel_for` macro op of Fig. 8: per-sample
    /// `a_pvt += alphas[i] * X[i]`, `samples_per_instr` samples batched
    /// per NDA instruction.
    pub fn axpy_rows<'rt>(
        self,
        rt: &'rt mut Runtime,
        a_pvt: VecId,
        alphas: Vec<f32>,
        x: MatId,
        samples_per_instr: usize,
    ) -> OpBuilder<'rt> {
        OpBuilder::new(
            rt,
            self,
            OpKind::AxpyRows {
                a_pvt,
                alphas,
                x,
                samples_per_instr,
            },
        )
    }
}

/// Clamp a start line so timing walks never run past a layout (padding
/// tails reuse the final span; functional results are exact regardless).
fn x_layout_guard(a: &ArrayData, span: u64) -> u64 {
    a.layouts[0].lines().saturating_sub(span)
}

#[cfg(test)]
mod tests {
    //! The credit-waitlist wake rules, driven through `next_launch` with
    //! credits modelled as the system keeps them: one spent per staged
    //! launch, one back per `credit_returned`. In debug builds (and under
    //! `release-checked`) the full-scan oracle in `next_launch` checks
    //! every pick, so a missing wake fails the pass that should have
    //! served the parked session.

    use super::*;
    use chopim_mapping::presets;

    /// A Table II runtime: 2 channels x 2 ranks, so four NDAs.
    fn runtime() -> Runtime {
        let cfg = DramConfig::table_ii();
        let mapper = Arc::new(PartitionedMapping::new(
            &cfg,
            presets::skylake_like(&cfg),
            0,
        ));
        let allocator = ColoredAllocator::new(&cfg, mapper.inner(), cfg.rows as u32);
        let ndas = (0..cfg.channels)
            .flat_map(|c| (0..cfg.ranks_per_channel).map(move |r| (c, r)))
            .collect();
        Runtime::new(cfg, mapper, allocator, ndas, false)
    }

    /// One staging pass against `credits`: the launch it stages, if any,
    /// spends its NDA's credit.
    fn pass(rt: &mut Runtime, credits: &mut [usize]) -> Option<(u32, usize)> {
        let now = rt.clock;
        let launch = rt.next_launch(|k| credits[k], now)?;
        credits[launch.nda_idx] -= 1;
        Some((launch.op.sess, launch.nda_idx))
    }

    fn return_credit(rt: &mut Runtime, credits: &mut [usize], nda: usize) {
        credits[nda] += 1;
        rt.credit_returned(nda);
    }

    /// A one-chunk copy for `sess`: four launches, NDAs 0 to 3.
    fn copy(rt: &mut Runtime, sess: Session) -> OpBuilder<'_> {
        let x = rt.vector(1 << 12, Sharing::Shared);
        let y = rt.vector(1 << 12, Sharing::Shared);
        sess.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
    }

    /// A session woken by NDA 0's credit that does not take it passes it
    /// to NDA 0's next waiter: served on NDA 1 through its other
    /// unordered op, or left with nothing to stage. A credit wakes only a
    /// waiter whose entry carries its current key.
    #[test]
    fn arbitration_unused_credit_wakes_the_next_waiter() {
        // Served elsewhere.
        let mut rt = runtime();
        let a = rt.create_session();
        let b = rt.create_session();
        rt.set_qos(b, QosClass::Batch { weight: 4 });
        for sess in [a, a, b, b] {
            copy(&mut rt, sess).unordered().submit();
        }
        let mut credits = vec![2, 1, 1, 1];
        // A releases one launch and B four, so both reach vtime QUANTUM;
        // A wins the tie on its session id.
        let served: Vec<_> = (0..5).map(|_| pass(&mut rt, &mut credits)).collect();
        let (sa, sb) = (a.id, b.id);
        let want = [(sa, 0), (sb, 0), (sb, 1), (sb, 2), (sb, 3)];
        assert_eq!(served, want.map(Some));
        // A parks on NDA 1 (its first op's head) and NDA 0 (its second
        // op's head), ahead of B on NDA 0.
        assert_eq!(pass(&mut rt, &mut credits), None);
        return_credit(&mut rt, &mut credits, 0);
        return_credit(&mut rt, &mut credits, 1);
        assert_eq!(pass(&mut rt, &mut credits), Some((sa, 1)));
        assert_eq!(pass(&mut rt, &mut credits), Some((sb, 0)));

        // Re-parked: A's only op times out between its wake and the pass.
        let mut rt = runtime();
        let a = rt.create_session();
        let b = rt.create_session();
        copy(&mut rt, a).deadline(10).submit();
        copy(&mut rt, b).submit();
        let mut credits = vec![0; 4];
        assert_eq!(pass(&mut rt, &mut credits), None);
        return_credit(&mut rt, &mut credits, 0);
        rt.clock = 10;
        rt.check_deadlines(10);
        assert_eq!(pass(&mut rt, &mut credits), Some((b.id, 0)));

        // Served after parking an earlier op: that op's entry stays on
        // NDA 1 at the pre-service virtual time, under the same stamp.
        let mut rt = runtime();
        let s = rt.create_session();
        let t = rt.create_session();
        for _ in 0..2 {
            copy(&mut rt, s).unordered().submit();
        }
        copy(&mut rt, t).submit();
        let mut credits = vec![2, 0, 0, 0];
        assert_eq!(pass(&mut rt, &mut credits), Some((s.id, 0)));
        assert_eq!(pass(&mut rt, &mut credits), Some((t.id, 0)));
        assert_eq!(pass(&mut rt, &mut credits), None);
        // S wakes on NDA 0 at vtime QUANTUM: its first op parks on NDA 1
        // at that key, its second is served. S then parks at 2 QUANTUM.
        return_credit(&mut rt, &mut credits, 0);
        assert_eq!(pass(&mut rt, &mut credits), Some((s.id, 0)));
        // T (vtime QUANTUM) sorts before S on NDA 1.
        return_credit(&mut rt, &mut credits, 1);
        assert_eq!(pass(&mut rt, &mut credits), Some((t.id, 1)));
    }

    /// A re-classed session must be arbitrated under its new key, whether
    /// it was parked or already woken when its class changed.
    #[test]
    fn arbitration_set_qos_rekeys_waiting_sessions() {
        // Parked: the later of two batch waiters turns latency-sensitive.
        let mut rt = runtime();
        let c = rt.create_session();
        let d = rt.create_session();
        copy(&mut rt, c).submit();
        copy(&mut rt, d).submit();
        let mut credits = vec![0; 4];
        assert_eq!(pass(&mut rt, &mut credits), None);
        rt.set_qos(d, QosClass::LatencySensitive);
        return_credit(&mut rt, &mut credits, 0);
        assert_eq!(pass(&mut rt, &mut credits), Some((d.id, 0)));

        // Woken: the credit's latency-sensitive waiter turns batch and
        // now sorts after the batch waiter it was woken ahead of.
        let mut rt = runtime();
        let u = rt.create_session();
        let t = rt.create_session();
        rt.set_qos(t, QosClass::LatencySensitive);
        copy(&mut rt, u).submit();
        copy(&mut rt, t).submit();
        let mut credits = vec![0; 4];
        assert_eq!(pass(&mut rt, &mut credits), None);
        return_credit(&mut rt, &mut credits, 0);
        rt.set_qos(t, QosClass::Batch { weight: 1 });
        assert_eq!(pass(&mut rt, &mut credits), Some((u.id, 0)));
    }
}
