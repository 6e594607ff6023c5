//! Property tests of the replicated-FSM mechanism (paper §III-D): a
//! host-side shadow fed only launches and grants must stay bit-identical
//! to the rank's FSM under *any* instruction mix and grant pattern, and
//! settled (it passes resume validation) after every input.

use std::sync::Arc;

use chopim_nda::fsm::NdaFsm;
use chopim_nda::isa::{NdaInstr, Opcode};
use chopim_nda::operand::OperandLayout;
use proptest::prelude::*;

fn layout(seed: u64) -> Arc<OperandLayout> {
    OperandLayout::rotating(16, (seed % 1000) as u32, 64, 128)
}

fn instr(kind: u8, lines: u64, id: u64) -> NdaInstr {
    let lines = lines.clamp(1, 4096);
    match kind % 4 {
        0 => NdaInstr::elementwise(Opcode::Nrm2, lines, vec![(layout(id), 0)], vec![], id),
        1 => NdaInstr::elementwise(
            Opcode::Copy,
            lines,
            vec![(layout(id), 0)],
            vec![(layout(id + 7), 0)],
            id,
        ),
        2 => NdaInstr::elementwise(
            Opcode::Axpby,
            lines,
            vec![(layout(id), 0), (layout(id + 3), 0)],
            vec![(layout(id + 9), 0)],
            id,
        ),
        _ => NdaInstr::gemv(
            (layout(id), 0, lines),
            (layout(id + 1), 0, 4),
            (layout(id + 2), 0, 2),
            id,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any launch schedule and grant pattern, the shadow FSM fed
    /// only the launches and the grants of the FSM's own accesses stays
    /// fingerprint-identical and settled, and both complete the same
    /// instructions in the same order.
    #[test]
    fn prop_shadow_never_diverges(
        ops in prop::collection::vec((any::<u8>(), 1u64..2048), 1..6),
        grants in prop::collection::vec(any::<bool>(), 64),
        launch_gaps in prop::collection::vec(0usize..50, 1..6),
    ) {
        let mut fsm = NdaFsm::new(8);
        let mut shadow = NdaFsm::new(8);
        let mut queued: Vec<NdaInstr> =
            ops.iter().enumerate().map(|(i, &(k, l))| instr(k, l, i as u64)).collect();
        queued.reverse();
        let mut step = 0usize;
        let mut next_launch_at = launch_gaps[0];
        let mut gap_idx = 0;
        let mut guard = 0u64;
        loop {
            guard += 1;
            prop_assert!(guard < 2_000_000, "runaway");
            // Launch at scheduled steps (both sides identically).
            let mut input = false;
            if step >= next_launch_at {
                if let Some(i) = queued.pop() {
                    input = true;
                    let a = fsm.launch(i.clone());
                    let b = shadow.launch(i);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    gap_idx += 1;
                    next_launch_at =
                        step + launch_gaps.get(gap_idx).copied().unwrap_or(10);
                }
            }
            match fsm.next_access() {
                Some(acc) if grants[step % grants.len()] => {
                    fsm.commit(acc);
                    shadow.commit(acc);
                    input = true;
                }
                Some(_) => {}
                None if queued.is_empty() => break,
                None => {}
            }
            prop_assert_eq!(fsm.fingerprint(), shadow.fingerprint(), "step {}", step);
            prop_assert_eq!(fsm.next_access(), shadow.next_access(), "step {}", step);
            // Only an input moves the state; each state it leaves must be
            // settled and resumable.
            if input {
                prop_assert_eq!(shadow.validate(), Ok(()), "step {}", step);
            }
            // Completion streams must match.
            loop {
                let ca = fsm.pop_completed();
                let cb = shadow.pop_completed();
                prop_assert_eq!(ca, cb);
                if ca.is_none() {
                    break;
                }
            }
            step += 1;
        }
        prop_assert_eq!(fsm.completed_count() as usize, ops.len());
        prop_assert!(fsm.is_idle());
        prop_assert!(shadow.is_idle());
    }

    /// Total grants equal the instruction's exact read+write line counts,
    /// independent of grant pattern.
    #[test]
    fn prop_grant_counts_match_instruction(
        kind in any::<u8>(),
        lines in 1u64..3000,
        stall_mod in 2usize..7,
    ) {
        let i = instr(kind, lines, 0);
        let reads = i.read_lines();
        let writes = i.write_lines();
        let mut fsm = NdaFsm::new(2);
        fsm.launch(i).unwrap();
        let mut tick = 0usize;
        let mut guard = 0u64;
        while let Some(acc) = fsm.next_access() {
            guard += 1;
            prop_assert!(guard < 5_000_000);
            if !tick.is_multiple_of(stall_mod) {
                fsm.commit(acc);
            }
            tick += 1;
        }
        prop_assert_eq!(fsm.reads_granted, reads);
        prop_assert_eq!(fsm.writes_granted, writes);
        prop_assert_eq!(fsm.completed_count(), 1);
    }
}
