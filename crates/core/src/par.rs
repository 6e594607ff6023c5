//! A small persistent worker pool that ticks [`ChannelShard`]s in
//! parallel.
//!
//! The sharded engine dispatches one *job* per lookahead window: "run
//! every shard to cycle `T`". The dispatching thread **works too** — a
//! pool of `sim_threads` uses `sim_threads - 1` spawned workers plus the
//! calling thread — so a window never waits on a wake-up to make
//! progress. Determinism needs no care here: shards share no mutable
//! state and each carries its own RNG, so the only job of this module is
//! cheap dispatch. A window is short — a 16-channel window is tens of
//! microseconds of work in all, front-end included — so the protocol
//! avoids everything that costs a noticeable share of one:
//!
//! * **No copies.** The engine holds its shards boxed; a job moves each
//!   box into its own slot and back, a pointer per shard, never the
//!   kilobyte-sized shard itself.
//! * **No shared lock.** A thread claims a shard by advancing one atomic
//!   cursor, `(job << 32) | (back << 16) | front`, with a
//!   compare-and-swap that only succeeds for the job the thread is
//!   working on: a worker that is late from the previous window cannot
//!   claim a shard of the next one. It then runs the shard inside that
//!   shard's own slot mutex, which no other thread touches until the job
//!   is over, so the lock is never contended. An atomic `remaining`
//!   count tells the dispatcher when every slot has been run.
//! * **Shards stay put.** The dispatcher claims from the front of the
//!   slot range and the workers from the back, so on a 2-thread pool a
//!   shard is run by the same thread window after window (only the ones
//!   near where the two meet change hands) and its state stays in that
//!   thread's core cache instead of crossing cores every window.
//! * **No sleep in steady state.** Both waits — a worker for the next
//!   job, the dispatcher for a straggler's last shard — spin first,
//!   calling `yield_now` every few dozen spins, and park on a condvar
//!   only after a budget that covers a front-end window. On a machine
//!   with a core per thread the next job therefore arrives while the
//!   worker spins, and windows almost never pay a futex wake. The yield
//!   keeps an oversubscribed pool (more pool threads than cores, or test
//!   threads running in parallel) from starving the thread it waits for;
//!   the park keeps an idle machine from burning a core.
//!
//! A panic inside a shard (an FSM-divergence assertion, a queue
//! overflow) is caught on the thread that ran it and re-raised from
//! [`ShardPool::run`], so it surfaces instead of deadlocking the barrier.
//! Steady state is allocation-free: slots and cursor are built with the
//! pool, and the engine's shard vector keeps its capacity.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use chopim_dram::{perfcount, Cycle};

use crate::shard::ChannelShard;

/// Spins a waiting thread makes between `yield_now` calls.
const SPINS_PER_YIELD: u32 = 32;

/// Spins (a `yield_now` every [`SPINS_PER_YIELD`] included) before a
/// waiting thread parks: longer than a front-end window, so a worker
/// between two jobs of a running machine is still spinning when the
/// next one arrives (a 16-channel, 150k-cycle run on a 2-vCPU x86 VM
/// parked 19 times in 7,500 windows).
const SPIN_BUDGET: u32 = 4096;

/// One shard's hand-off slot, on its own cache line so threads working
/// neighbouring slots do not contend for it.
#[repr(align(64))]
struct Slot(Mutex<Option<Box<ChannelShard>>>);

struct Shared {
    /// `(job << 32) | (back << 16) | front`: the current job's generation
    /// (mod 2^32) and its unclaimed slots, `front..back`.
    cursor: AtomicU64,
    /// Target cycle of the current job.
    target: AtomicU64,
    /// Slots of the current job not yet run.
    remaining: AtomicUsize,
    slots: Box<[Slot]>,
    /// First panic a shard raised this job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
    /// Threads parked on `bell`, or about to park.
    sleepers: AtomicUsize,
    bed: Mutex<()>,
    bell: Condvar,
}

impl Shared {
    /// Claim the first unclaimed slot of `job` (the last one if
    /// `from_back`); `None` once every slot is claimed or a later job has
    /// replaced it.
    fn claim(&self, job: u32, from_back: bool) -> Option<usize> {
        let mut c = self.cursor.load(SeqCst);
        loop {
            let (front, back) = (c & 0xffff, c >> 16 & 0xffff);
            if c >> 32 != u64::from(job) || front >= back {
                return None;
            }
            let (next, slot) = if from_back {
                (c - (1 << 16), back - 1)
            } else {
                (c + 1, front)
            };
            match self.cursor.compare_exchange_weak(c, next, SeqCst, SeqCst) {
                Ok(_) => return Some(slot as usize),
                Err(now) => c = now,
            }
        }
    }

    /// Claim and run slots of `job` until none is left.
    fn work(&self, job: u32, from_back: bool) {
        while let Some(i) = self.claim(job, from_back) {
            // A successful claim proves the job is still current, so this
            // is its target.
            let target = self.target.load(SeqCst);
            {
                let mut slot = self.slots[i].0.lock().expect("pool slot lock");
                let shard = slot.as_mut().expect("a dispatched shard in every slot");
                if let Err(p) = run_shard(shard, target) {
                    let mut first = self.panic.lock().expect("pool panic lock");
                    first.get_or_insert(p);
                }
            }
            if self.remaining.fetch_sub(1, SeqCst) == 1 {
                self.ring();
            }
        }
    }

    /// Block until `ready` holds: spin, yielding every
    /// [`SPINS_PER_YIELD`] spins, then park on the bell. Every state
    /// change a waiter can wait for is a `SeqCst` write followed by
    /// [`ring`](Self::ring), so a waiter that registered in `sleepers`
    /// before its last check cannot miss it.
    fn wait(&self, ready: impl Fn() -> bool) {
        for spin in 1..=SPIN_BUDGET {
            if ready() {
                return;
            }
            if spin % SPINS_PER_YIELD == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut bed = self.bed.lock().expect("pool bed lock");
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            bed = self.bell.wait(bed).expect("pool bed lock");
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wake every parked thread, if any is parked.
    fn ring(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            let _bed = self.bed.lock().expect("pool bed lock");
            self.bell.notify_all();
        }
    }

    /// The generation of the current job.
    fn job(&self) -> u32 {
        (self.cursor.load(SeqCst) >> 32) as u32
    }
}

/// The worker pool. Created once per [`crate::ChopimSystem`] when
/// `sim_threads > 1`; dropped (and joined) with it.
pub(crate) struct ShardPool {
    shared: Arc<Shared>,
    /// Generation of the last dispatched job; job 0 is never dispatched.
    job: u32,
    handles: Vec<JoinHandle<()>>,
}

/// Run one shard to `target` with its perf-counter scope set. A panic
/// inside the shard is captured and handed back so the dispatcher can
/// re-raise it — letting it unwind a worker thread would leave the
/// barrier waiting forever.
fn run_shard(shard: &mut ChannelShard, target: Cycle) -> Result<(), Box<dyn Any + Send>> {
    let prev = perfcount::set_scope(1 + shard.channel_idx());
    let r = catch_unwind(AssertUnwindSafe(|| shard.run_to(target)));
    perfcount::set_scope(prev);
    r
}

impl ShardPool {
    /// A pool of `threads` total executors — `threads - 1` spawned
    /// workers plus the dispatching thread itself — for an engine of
    /// `shards` shards.
    pub(crate) fn new(threads: usize, shards: usize) -> Self {
        assert!(shards < 1 << 16, "the claim cursor counts slots in 16 bits");
        let shared = Arc::new(Shared {
            cursor: AtomicU64::new(0),
            target: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            slots: (0..shards).map(|_| Slot(Mutex::new(None))).collect(),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            bed: Mutex::new(()),
            bell: Condvar::new(),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker(&shared))
            })
            .collect();
        Self {
            shared,
            job: 0,
            handles,
        }
    }

    /// Run every shard to `target` on the pool; returns once all are back
    /// in `shards`, in their original order.
    #[allow(clippy::vec_box, reason = "dispatch moves each shard as a pointer")]
    pub(crate) fn run(&mut self, shards: &mut Vec<Box<ChannelShard>>, target: Cycle) {
        let shared = &*self.shared;
        assert_eq!(shards.len(), shared.slots.len(), "one pool slot per shard");
        for (slot, shard) in shared.slots.iter().zip(shards.drain(..)) {
            *slot.0.lock().expect("pool slot lock") = Some(shard);
        }
        self.job = self.job.wrapping_add(1).max(1);
        shared.target.store(target, SeqCst);
        shared.remaining.store(shared.slots.len(), SeqCst);
        let all = (shared.slots.len() as u64) << 16;
        shared.cursor.store(u64::from(self.job) << 32 | all, SeqCst);
        shared.ring();
        shared.work(self.job, false);
        shared.wait(|| shared.remaining.load(SeqCst) == 0);
        shards.extend(shared.slots.iter().map(|slot| {
            let mut slot = slot.0.lock().expect("pool slot lock");
            slot.take().expect("every shard back in its slot")
        }));
        let panic = shared.panic.lock().expect("pool panic lock").take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        {
            let _bed = self.shared.bed.lock();
            self.shared.bell.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker(shared: &Shared) {
    let mut seen = 0u32;
    loop {
        shared.wait(|| shared.shutdown.load(SeqCst) || shared.job() != seen);
        if shared.shutdown.load(SeqCst) {
            return;
        }
        seen = shared.job();
        shared.work(seen, true);
    }
}
