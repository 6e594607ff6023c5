//! Steady-state allocation audit of the sharded engine's message path.
//!
//! The flat-exchange overhaul (double-buffered ingress arenas, batch
//! merge queues, the dense launch slab, persistent pool slots) exists so
//! that a warmed-up engine moves cross-shard messages without touching
//! the allocator: every window swaps and refills buffers whose capacity
//! was established during warm-up. This test pins that property with a
//! counting `#[global_allocator]`: drive a host-traffic machine past
//! warm-up, then assert that further windows perform **zero**
//! allocations — any per-window `Vec` growth, heap sift, or hash-map
//! insert on the message path shows up as a nonzero delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chopim_core::prelude::*;

/// The allocation counter is process-global, so the audited windows of
/// the two tests below must not overlap.
static AUDIT: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts alloc/realloc calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A memory-intensive host mix on the serial engine: every window moves
/// core transactions out and fills back across the shard boundary, and
/// after warm-up none of it may allocate.
#[test]
fn steady_state_message_path_is_allocation_free() {
    assert_host_traffic_allocation_free(ChopimConfig {
        mix: Some(MixId::new(2).unwrap()),
        sim_threads: 1,
        ..ChopimConfig::default()
    });
}

/// The same audit on the 2-thread worker pool over four channels: the
/// counter sees every thread, so per-window dispatch (slot hand-off,
/// claims, waits) must not allocate either.
#[test]
fn pooled_message_path_is_allocation_free() {
    assert_host_traffic_allocation_free(ChopimConfig {
        dram: DramConfig::table_ii().with_channels(4),
        mix: Some(MixId::new(2).unwrap()),
        sim_threads: 2,
        ..ChopimConfig::default()
    });
}

fn assert_host_traffic_allocation_free(cfg: ChopimConfig) {
    let _audit = AUDIT.lock().unwrap();
    let mut sys = ChopimSystem::new(cfg);
    // Warm-up: reach steady state — queue capacities, arena sizes and
    // stats all stop growing well before this (the ingress
    // arena high-water keeps creeping past 60k cycles, so the warm-up
    // must cover the full periodic schedule once).
    sys.run(120_000);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    sys.run(120_000);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "warmed-up engine allocated {delta} times in 120k cycles; \
         the message path must be allocation-free in steady state"
    );
}

/// A thousand resident tenants with mixed QoS classes, all mid-op: the
/// launch arbiter's hot loop — ready-heap pops and re-inserts, credit
/// waitlist parks and flushes, virtual-time charges, chunk-barrier
/// advances, instruction launches and completions — must run without
/// touching the allocator once the index structures reached their
/// high-water capacity during warm-up. Every op is long enough that
/// none retires inside the audited window (retirement finalizes
/// statistics, which legitimately allocates).
#[test]
fn thousand_tenant_scheduler_is_allocation_free() {
    let _audit = AUDIT.lock().unwrap();
    let mut sys = ChopimSystem::new(ChopimConfig {
        sim_threads: 1,
        ..ChopimConfig::default()
    });
    let n = 1 << 13;
    let vecs: Vec<VecId> = (0..16)
        .map(|_| sys.runtime.vector(n, Sharing::Shared))
        .collect();
    let data: Vec<f32> = (0..n).map(|i| (i % 31) as f32).collect();
    for &v in &vecs {
        sys.runtime.write_vector(v, &data);
    }
    for t in 0..1000usize {
        let s = if t == 0 {
            sys.runtime.default_session()
        } else {
            sys.runtime.create_session()
        };
        let class = match t % 32 {
            0 => QosClass::LatencySensitive,
            k => QosClass::Batch {
                weight: [1, 2, 4][k % 3],
            },
        };
        sys.runtime.set_qos(s, class);
        let x = vecs[t % vecs.len()];
        s.elementwise(&mut sys.runtime, Opcode::Scal, vec![0.99], vec![], Some(x))
            .granularity_lines(16)
            .submit();
    }
    // Warm-up: park/flush every waitlist, cycle every session through
    // the ready heaps, and reach the index high-water marks.
    sys.run(120_000);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    sys.run(120_000);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        !sys.runtime.quiescent(),
        "ops retired inside the audit window; grow them so the \
         steady-state claim stays about the scheduler hot loop"
    );
    assert_eq!(
        delta, 0,
        "warmed-up 1000-tenant scheduler allocated {delta} times in \
         120k cycles; arbitration must be allocation-free in steady state"
    );
}
