//! Property tests of the out-of-order core model: structural invariants
//! that must hold for any profile, latency, and admission behavior.

use chopim_host::{CoreConfig, MemRequest, MixId, OooCore, WorkloadProfile};
use proptest::prelude::*;
use std::collections::VecDeque;

fn profiles() -> Vec<WorkloadProfile> {
    MixId::new(0).unwrap().profiles()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// IPC never exceeds the issue width, retired count is monotone, and
    /// outstanding misses never exceed the MSHR count — for any profile,
    /// memory latency, and random admission stalls.
    #[test]
    fn prop_core_invariants(
        profile_idx in 0usize..8,
        latency in 10u64..500,
        accept_mod in 1u64..5,
        cycles in 500u64..4000,
    ) {
        let profile = profiles()[profile_idx];
        let cfg = CoreConfig::default();
        let mut core = OooCore::new(cfg, profile, 42);
        let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
        let mut last_retired = 0;
        for now in 0..cycles {
            while let Some(&(ready, id)) = in_flight.front() {
                if ready <= now {
                    in_flight.pop_front();
                    core.fill(id);
                } else {
                    break;
                }
            }
            let mut sink = |r: MemRequest| {
                if now % accept_mod == 0 {
                    return false; // queue-full stall
                }
                if !r.is_write {
                    in_flight.push_back((now + latency, r.id));
                }
                true
            };
            core.cpu_cycle(&mut sink);
            prop_assert!(core.outstanding_misses() <= cfg.mshrs);
            prop_assert!(core.retired_instructions() >= last_retired);
            last_retired = core.retired_instructions();
        }
        let ipc = core.ipc();
        prop_assert!(ipc <= cfg.issue_width as f64 + 1e-9, "ipc {}", ipc);
        // Reads the memory saw are exactly the fills owed plus delivered.
        prop_assert!(core.reads_sent() as usize >= in_flight.len());
    }

    /// Line addresses always stay within the profile's footprint.
    #[test]
    fn prop_addresses_within_footprint(profile_idx in 0usize..8, seed in any::<u64>()) {
        let profile = profiles()[profile_idx];
        let mut core = OooCore::new(CoreConfig::default(), profile, seed);
        let footprint = profile.footprint_lines();
        let mut ids = Vec::new();
        let mut worst: Option<u64> = None;
        for _ in 0..2000 {
            let mut sink = |r: MemRequest| {
                if r.line >= footprint {
                    worst = Some(r.line);
                }
                if !r.is_write {
                    ids.push(r.id);
                }
                true
            };
            core.cpu_cycle(&mut sink);
            for id in ids.drain(..) {
                core.fill(id);
            }
        }
        prop_assert_eq!(worst, None, "line escaped footprint {}", footprint);
    }

    /// Whenever a core reports `is_inert`, bulk-advancing it must be
    /// indistinguishable from stepping it cycle by cycle: no memory
    /// request may escape (the sink panics), the whole exported image
    /// must match (counters, stall cycles and RNG state included), and
    /// post-wake behavior must be identical.
    #[test]
    fn prop_inert_advance_matches_single_cycles(
        profile_idx in 0usize..8,
        n in 1u64..5000,
        seed in any::<u64>(),
    ) {
        let profile = profiles()[profile_idx];
        let mut core = OooCore::new(CoreConfig::default(), profile, seed);
        // Drive against a never-filling memory until the core freezes.
        let mut pending: Vec<u64> = Vec::new();
        for _ in 0..3000 {
            let mut sink = |r: MemRequest| {
                if !r.is_write {
                    pending.push(r.id);
                }
                true
            };
            core.cpu_cycle(&mut sink);
            if core.is_inert() {
                break;
            }
        }
        prop_assume!(core.is_inert());
        let mut stepped = core.clone();
        let mut bulk = core.clone();
        for _ in 0..n {
            stepped.cpu_cycle(&mut |_| panic!("inert core sent a request"));
        }
        bulk.advance_inert(n);
        prop_assert_eq!(stepped.export_state(), bulk.export_state());
        prop_assert!(bulk.is_inert(), "inertness is stable without fills");
        // Wake both with the same fills and drive identically: behavior
        // must stay in lockstep.
        for id in &pending {
            stepped.fill(*id);
            bulk.fill(*id);
        }
        for now in 0..200u64 {
            let mut sent_a = Vec::new();
            let mut sent_b = Vec::new();
            let mut sink_a = |r: MemRequest| {
                sent_a.push((r.line, r.is_write, r.id));
                now % 3 != 0
            };
            stepped.cpu_cycle(&mut sink_a);
            let mut sink_b = |r: MemRequest| {
                sent_b.push((r.line, r.is_write, r.id));
                now % 3 != 0
            };
            bulk.cpu_cycle(&mut sink_b);
            prop_assert_eq!(&sent_a, &sent_b, "diverged at wake cycle {}", now);
        }
        prop_assert_eq!(stepped.export_state(), bulk.export_state());
    }

    /// Request ids of reads are unique.
    #[test]
    fn prop_read_ids_unique(seed in any::<u64>()) {
        let mut core = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), seed);
        let mut seen = std::collections::HashSet::new();
        let mut pending = Vec::new();
        let mut dup = None;
        for _ in 0..3000 {
            let mut sink = |r: MemRequest| {
                if !r.is_write {
                    if !seen.insert(r.id) {
                        dup = Some(r.id);
                    }
                    pending.push(r.id);
                }
                true
            };
            core.cpu_cycle(&mut sink);
            for id in pending.drain(..) {
                core.fill(id);
            }
        }
        prop_assert_eq!(dup, None, "duplicate read id");
    }
}

/// Per-mix aggregate sanity: under a fixed-latency memory, the mixes
/// order by intensity (lighter mixes retire more instructions).
#[test]
fn mixes_order_by_intensity_under_equal_memory() {
    let mut totals = Vec::new();
    for mix in [MixId::new(1).unwrap(), MixId::new(8).unwrap()] {
        let mut cores: Vec<OooCore> = mix
            .profiles()
            .into_iter()
            .enumerate()
            .map(|(i, p)| OooCore::new(CoreConfig::default(), p, i as u64))
            .collect();
        let mut in_flight: VecDeque<(u64, usize, u64)> = VecDeque::new();
        for now in 0..30_000u64 {
            while let Some(&(ready, c, id)) = in_flight.front() {
                if ready <= now {
                    in_flight.pop_front();
                    cores[c].fill(id);
                } else {
                    break;
                }
            }
            for (c, core) in cores.iter_mut().enumerate() {
                let mut sink = |r: MemRequest| {
                    if !r.is_write {
                        in_flight.push_back((now + 120, c, r.id));
                    }
                    true
                };
                core.cpu_cycle(&mut sink);
            }
            in_flight.make_contiguous().sort_unstable();
        }
        totals.push(cores.iter().map(|c| c.retired_instructions()).sum::<u64>());
    }
    assert!(
        totals[1] > totals[0],
        "mix8 must out-retire mix1: {totals:?}"
    );
}
