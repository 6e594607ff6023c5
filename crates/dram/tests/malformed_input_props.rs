//! Malformed-input hardening of the binary readers: truncated,
//! bit-flipped, and outright random byte streams fed to the codec
//! primitives and the CHTR trace parser must return `Err`, never panic,
//! never allocate absurdly, and never loop. (The snapshot reader gets
//! the same treatment in `chopim-core`'s `malformed_snapshot_props`.)

use chopim_dram::codec::{opt_cycle, read_framed, ByteReader};
use chopim_dram::trace::{decode_trace, encode_trace, replay_bytes, TraceEvent};
use chopim_dram::DramConfig;
use proptest::prelude::*;

/// A deterministic little PRNG so corruption sites don't depend on
/// proptest internals.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small well-formed trace to corrupt.
fn good_trace() -> Vec<u8> {
    let events = [
        TraceEvent::Launch {
            cycle: 100,
            channel: 0,
            nda_local: 0,
            instr_id: 1,
        },
        TraceEvent::Completion {
            cycle: 900,
            instr_id: 1,
        },
    ];
    encode_trace(DramConfig::table_ii().state_fingerprint(), 1_000, &events)
}

/// Drain a reader through every typed accessor until it errors; the
/// point is that the *only* way out is `Err`, never a panic.
fn drain_reader(bytes: &[u8]) {
    let mut r = ByteReader::new(bytes);
    let mut i = 0usize;
    loop {
        let step = i % 8;
        let failed = match step {
            0 => r.varint().is_err(),
            1 => r.u8().is_err(),
            2 => r.u32().is_err(),
            3 => r.varint_usize().is_err(),
            4 => r.bool().is_err(),
            5 => opt_cycle::decode(&mut r).is_err(),
            6 => r.get::<Vec<u64>>().is_err(),
            _ => r.get::<Vec<u32>>().is_err(),
        };
        if failed || r.is_empty() {
            break;
        }
        i += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure random bytes through every reader primitive: error or clean
    /// exhaustion, never a panic or unbounded allocation.
    #[test]
    fn prop_reader_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        drain_reader(&bytes);
        // The framed-container reader too (wrong magic/version/CRC all
        // land in Err).
        let _ = read_framed(*b"CHSS", 2, &bytes);
        let _ = read_framed(*b"CHTR", 1, &bytes);
    }

    /// Random bytes are not a valid trace (or decode to one that merely
    /// fails/succeeds replay) — no panic either way.
    #[test]
    fn prop_trace_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(t) = decode_trace(&bytes) {
            // A CRC collision is astronomically unlikely; if decode
            // somehow accepts, replay must still not panic.
            let _ = chopim_dram::trace::replay(&DramConfig::table_ii(), &t);
        }
        let _ = replay_bytes(&DramConfig::table_ii(), &bytes);
    }

    /// Truncating a well-formed trace at any point must error.
    #[test]
    fn prop_trace_truncation_errors(cut in 0usize..usize::MAX) {
        let good = good_trace();
        let cut = cut % good.len();
        prop_assert!(decode_trace(&good[..cut]).is_err(), "truncation at {cut} accepted");
    }

    /// Flipping any single bit of a well-formed trace must error (the
    /// container CRC covers every payload byte) — and never panic.
    #[test]
    fn prop_trace_bitflip_errors(site in any::<u64>()) {
        let mut bad = good_trace();
        let byte = (mix(site) as usize) % bad.len();
        let bit = (mix(site ^ 0xdead_beef) % 8) as u32;
        bad[byte] ^= 1 << bit;
        prop_assert!(
            decode_trace(&bad).is_err(),
            "bit {bit} of byte {byte} flipped and still accepted"
        );
    }
}

/// The round trip itself stays good (guards the corruption tests above
/// against a vacuously-failing encoder).
#[test]
fn well_formed_trace_still_decodes() {
    let good = good_trace();
    let t = decode_trace(&good).expect("well-formed trace");
    assert_eq!(t.end_cycle, 1_000);
    assert_eq!(t.events.len(), 2);
}
