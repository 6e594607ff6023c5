//! Lightweight simulator-cost counters, compiled in only under the
//! `perf-counters` cargo feature.
//!
//! These count *simulator work* (scheduler scans, timing recomputations,
//! memo hits), not simulated-machine events — they exist so a throughput
//! regression on the perf harness can be attributed to a specific hot
//! path. `chopim-perf --verbose` prints them per scenario when built with
//! `--features perf-counters`; without the feature every call compiles to
//! nothing.
//!
//! ## Scopes
//!
//! Counters are bucketed by a thread-local *scope* so the channel-sharded
//! engine can attribute work per shard even when shards tick on a worker
//! pool: scope `0` is the front-end (and anything that never sets a
//! scope), scope `1 + ch` is channel `ch`'s shard. The engine sets the
//! scope around each shard's window ([`set_scope`]/[`scope`]); snapshots
//! are available flat ([`snapshot`], summed over scopes — the pre-shard
//! view) or per scope ([`snapshot_scoped`], what `chopim-perf --verbose`
//! prints as one table row per channel plus a total).
//!
//! The counters are process-global relaxed atomics: the perf harness runs
//! scenarios serially, so a reset/snapshot pair brackets one run; within
//! a run, each shard bumps its own scope's bucket.

/// True when the crate was built with the `perf-counters` feature.
pub const ENABLED: bool = cfg!(feature = "perf-counters");

/// Number of counter scopes: `0` = front-end/unattributed, `1..` =
/// per-channel shards. Channels beyond the last slot fold into it.
pub const SCOPES: usize = 17;

/// One attributable unit of simulator work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Fresh `ready_at` timing computations (memo misses land here too).
    ReadyAt,
    /// `plan_access` bank-state lookups.
    PlanAccess,
    /// Host-scheduler candidate passes (`HostMc::schedule` invocations).
    SchedPasses,
    /// Queue entries examined across all host-scheduler passes.
    SchedEntriesScanned,
    /// Always 0: the host scheduler keeps no plan memo and plans every
    /// scanned entry fresh. Kept because the repository benchmark still
    /// names it.
    SchedMemoHit,
    /// Always 0, like [`SchedMemoHit`](Self::SchedMemoHit).
    SchedMemoMiss,
    /// Host-MC wake-up derivations: ticks that issued nothing and cached
    /// the earliest cycle their own scan found (`HostMc::tick`).
    HorizonScans,
    /// NDA-controller memo hits.
    NdaMemoHit,
    /// NDA-controller memo misses.
    NdaMemoMiss,
    /// Window barriers executed by the sharded engine (front-end scope).
    Barriers,
    /// Shard-windows run: every shard runs every window, so a barrier
    /// over `N` shards counts `N`.
    WindowsExecuted,
    /// Cross-shard messages exchanged at barriers (ingress + fills +
    /// completions), front-end scope.
    MessagesExchanged,
    /// High-water mark of the flat exchange arenas (a [`hi`] counter:
    /// the per-scope value is a maximum; the flat snapshot sums scopes,
    /// so read this one from the per-scope table).
    ArenaHighWater,
    /// Always 0: no shard skips a window barrier (a quiet shard leaps
    /// within the window instead). Kept because the repository
    /// benchmark still names it.
    HorizonLeapCycles,
    /// Sessions examined by runtime launch arbitration
    /// (`next_launches` heap pops). The O(active) proof: this stays ≪
    /// sessions × launch windows on thousand-tenant scenarios, where the
    /// pre-index rotating scan was exactly sessions × windows.
    SchedSessionsScanned,
    /// Ready-index maintenance operations (heap pushes/pops, waitlist
    /// parks, wake-heap arms, credit-return wakes).
    ReadyIndexOps,
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = 16;

/// Counter labels, index-aligned with [`Counter`].
pub const LABELS: [&str; NUM_COUNTERS] = [
    "ready_at_calls",
    "plan_access_calls",
    "sched_passes",
    "sched_entries_scanned",
    "sched_memo_hits",
    "sched_memo_misses",
    "horizon_scans",
    "nda_memo_hits",
    "nda_memo_misses",
    "barriers",
    "windows_executed",
    "messages_exchanged",
    "arena_high_water",
    "horizon_leap_cycles",
    "sched_sessions_scanned",
    "ready_index_ops",
];

#[cfg(feature = "perf-counters")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::{NUM_COUNTERS, SCOPES};

    pub static COUNTERS: [[AtomicU64; NUM_COUNTERS]; SCOPES] =
        [const { [const { AtomicU64::new(0) }; NUM_COUNTERS] }; SCOPES];

    thread_local! {
        pub static SCOPE: Cell<usize> = const { Cell::new(0) };
    }

    #[inline(always)]
    pub fn bump(c: super::Counter) {
        let s = SCOPE.with(|s| s.get());
        COUNTERS[s][c as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline(always)]
    pub fn add(c: super::Counter, n: u64) {
        let s = SCOPE.with(|s| s.get());
        COUNTERS[s][c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline(always)]
    pub fn hi(c: super::Counter, n: u64) {
        let s = SCOPE.with(|s| s.get());
        COUNTERS[s][c as usize].fetch_max(n, Ordering::Relaxed);
    }
}

/// Set the calling thread's counter scope (`0` = front-end, `1 + ch` =
/// channel `ch`'s shard; clamped to the last slot). No-op without the
/// feature. Returns the previous scope so callers can restore it.
pub fn set_scope(scope: usize) -> usize {
    #[cfg(feature = "perf-counters")]
    {
        let s = scope.min(SCOPES - 1);
        imp::SCOPE.with(|c| c.replace(s))
    }
    #[cfg(not(feature = "perf-counters"))]
    {
        let _ = scope;
        0
    }
}

/// The calling thread's current counter scope.
pub fn scope() -> usize {
    #[cfg(feature = "perf-counters")]
    {
        imp::SCOPE.with(|c| c.get())
    }
    #[cfg(not(feature = "perf-counters"))]
    0
}

/// Count one unit of `c` in the current scope. No-op without the feature.
#[inline(always)]
pub fn bump(c: Counter) {
    #[cfg(feature = "perf-counters")]
    imp::bump(c);
    #[cfg(not(feature = "perf-counters"))]
    let _ = c;
}

/// Count `n` units of `c` in the current scope. No-op without the
/// feature.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "perf-counters")]
    imp::add(c, n);
    #[cfg(not(feature = "perf-counters"))]
    let _ = (c, n);
}

/// Raise `c` in the current scope to at least `n` (a high-water mark).
/// No-op without the feature.
#[inline(always)]
pub fn hi(c: Counter, n: u64) {
    #[cfg(feature = "perf-counters")]
    imp::hi(c, n);
    #[cfg(not(feature = "perf-counters"))]
    let _ = (c, n);
}

/// Zero every counter in every scope.
pub fn reset() {
    #[cfg(feature = "perf-counters")]
    for scope in &imp::COUNTERS {
        for c in scope {
            c.store(0, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Snapshot `(label, value)` for every counter, summed over all scopes
/// (the flat, pre-shard view); empty without the feature.
#[cold]
pub fn snapshot() -> Vec<(&'static str, u64)> {
    #[cfg(feature = "perf-counters")]
    {
        LABELS
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let total: u64 = imp::COUNTERS
                    .iter()
                    .map(|s| s[i].load(std::sync::atomic::Ordering::Relaxed))
                    .sum();
                (l, total)
            })
            .collect()
    }
    #[cfg(not(feature = "perf-counters"))]
    Vec::new()
}

/// Per-scope snapshot: `(scope, [value per counter])` for every scope
/// with at least one nonzero counter; empty without the feature. Scope 0
/// is the front-end, scope `1 + ch` is channel `ch`'s shard.
pub fn snapshot_scoped() -> Vec<(usize, [u64; NUM_COUNTERS])> {
    #[cfg(feature = "perf-counters")]
    {
        imp::COUNTERS
            .iter()
            .enumerate()
            .filter_map(|(scope, s)| {
                let mut row = [0u64; NUM_COUNTERS];
                for (i, c) in s.iter().enumerate() {
                    row[i] = c.load(std::sync::atomic::Ordering::Relaxed);
                }
                (row.iter().any(|&v| v > 0)).then_some((scope, row))
            })
            .collect()
    }
    #[cfg(not(feature = "perf-counters"))]
    Vec::new()
}

#[cfg(all(test, feature = "perf-counters"))]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot_roundtrip() {
        reset();
        bump(Counter::ReadyAt);
        add(Counter::SchedEntriesScanned, 3);
        let snap = snapshot();
        assert_eq!(snap[Counter::ReadyAt as usize], ("ready_at_calls", 1));
        assert_eq!(
            snap[Counter::SchedEntriesScanned as usize],
            ("sched_entries_scanned", 3)
        );
        reset();
    }

    #[test]
    fn hi_keeps_the_maximum() {
        reset();
        hi(Counter::ArenaHighWater, 5);
        hi(Counter::ArenaHighWater, 3);
        hi(Counter::ArenaHighWater, 9);
        assert_eq!(snapshot()[Counter::ArenaHighWater as usize].1, 9);
        reset();
    }

    #[test]
    fn scoped_counters_attribute_to_the_set_scope() {
        reset();
        let prev = set_scope(2);
        bump(Counter::SchedPasses);
        set_scope(prev);
        bump(Counter::SchedPasses);
        let scoped = snapshot_scoped();
        assert!(scoped
            .iter()
            .any(|(s, row)| *s == 2 && row[Counter::SchedPasses as usize] == 1));
        // The flat snapshot sums every scope.
        assert_eq!(snapshot()[Counter::SchedPasses as usize].1, 2);
        reset();
    }
}
