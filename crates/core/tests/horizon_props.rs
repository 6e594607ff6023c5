//! Property tests of the per-shard computed horizons that drive the
//! sharded engine's fast-forwarding.
//!
//! A shard leaps to its horizon within a window (after every cycle it
//! executes), and the whole machine leaps to the minimum over the
//! front-end and every shard at a barrier — so both skips are sound
//! only if a horizon claim is *conservative*: a shard claiming "no
//! activity before cycle `h`" must never produce a cross-shard message
//! stamped earlier than `h` when simply run forward. This suite drives
//! real machines (random host mixes, NDA streams, both host
//! schedulers, random seeds) to a random mid-stream point, asks every
//! shard for its horizon, then runs the shards ahead in isolation and
//! checks every message they emit against the claim.
//!
//! The fast-forward and thread-count lockstep suites
//! (`chopim-exp/tests/{ff,shard}_lockstep.rs`) prove the *end-to-end*
//! schedule is unchanged by skipping; this suite pins the local
//! invariant that makes those hold, in a form that fails with the
//! offending shard and cycle when a future horizon term goes stale.

use chopim_core::prelude::*;
use proptest::prelude::*;

/// Check every shard's horizon claim against the messages it actually
/// emits over the next `span` cycles with no new front-end input.
fn assert_conservative(sys: &mut ChopimSystem, span: u64) {
    for (ch, (claim, first_msg)) in sys
        .probe_shard_horizon_conservatism(span)
        .into_iter()
        .enumerate()
    {
        if let Some(t) = first_msg {
            assert!(
                claim <= t,
                "shard {ch} claimed quiet until {claim} but emitted a message stamped {t}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Host-only traffic: random SPEC mixes on both schedulers. The MC
    /// is the only horizon term; fills are the observable messages.
    #[test]
    fn prop_horizon_conservative_host_traffic(
        mix in 0usize..9,
        fr_fcfs in any::<bool>(),
        seed in 1u64..200,
        warm in 2_000u64..20_000,
        span in 500u64..4_000,
    ) {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(mix).unwrap()),
            scheduler: if fr_fcfs { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs },
            seed,
            ..ChopimConfig::default()
        });
        sys.run(warm);
        assert_conservative(&mut sys, span);
    }

    /// Co-located traffic: a host mix against an NDA elementwise stream,
    /// so launch deliveries, FSM retirement and completion messages all
    /// feed the horizon terms.
    #[test]
    fn prop_horizon_conservative_colocated(
        mix in 0usize..9,
        fr_fcfs in any::<bool>(),
        seed in 1u64..200,
        len_pow in 12u32..16,
        warm in 2_000u64..20_000,
        span in 500u64..4_000,
    ) {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(mix).unwrap()),
            scheduler: if fr_fcfs { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs },
            seed,
            ..ChopimConfig::default()
        });
        let len = 1usize << len_pow;
        let x = sys.runtime.vector(len, Sharing::Shared);
        let y = sys.runtime.vector(len, Sharing::Shared);
        sys.runtime.write_vector(x, &vec![1.5; len]);
        let sess = sys.runtime.default_session();
        let _op = sess
            .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
            .submit();
        sys.run(warm);
        assert_conservative(&mut sys, span);
    }

    /// Refresh-only machine (no cores, no NDA work): the horizon is
    /// driven purely by refresh timers — the farthest-leaping case.
    #[test]
    fn prop_horizon_conservative_idle(
        seed in 1u64..50,
        warm in 1_000u64..30_000,
        span in 1_000u64..10_000,
    ) {
        let mut sys = ChopimSystem::new(ChopimConfig {
            seed,
            ..ChopimConfig::default()
        });
        sys.run(warm);
        assert_conservative(&mut sys, span);
    }
}
