//! Snapshot codecs for the ISA-level types (`docs/SNAPSHOT_FORMAT.md`).
//!
//! Operand layouts and instructions are plain data behind `Arc`s; the
//! engine's determinism never depends on pointer identity (FSM
//! fingerprints hash ids and positions, not addresses), so decoding
//! rebuilds fresh `Arc`s. `OperandLayout` and the state-carrying structs
//! (`Program`, `WriteBuffer`, `NdaFsm`, `NdaRankController`) declare
//! their codecs next to their private fields; this module holds the
//! instruction codecs they build on.

use chopim_dram::codec;

use crate::isa::{NdaInstr, Opcode, Phase, Stream};

// Opcodes travel as their index in `Opcode::ALL` (Table I order).
codec! {
    enum Opcode {
        0 => Axpby,
        1 => Axpbypcz,
        2 => Axpy,
        3 => Copy,
        4 => Xmy,
        5 => Dot,
        6 => Nrm2,
        7 => Scal,
        8 => Gemv,
    }
}

codec! { Stream { layout, start_line, write } }
codec! { Phase { lines, streams } }
codec! { NdaInstr { op, phases, id } }

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use chopim_dram::codec::{ByteReader, ByteWriter, Codec, CodecError};

    use super::*;
    use crate::operand::OperandLayout;

    fn round_trip<T: Codec>(v: &T) -> Result<T, CodecError> {
        let mut w = ByteWriter::new();
        w.put(v);
        let buf = w.finish();
        ByteReader::new(&buf).get()
    }

    #[test]
    fn layout_round_trip() {
        for l in [
            OperandLayout::rotating(16, 100, 32, 128),
            OperandLayout::single_bank(3, 9, 4, 128),
            OperandLayout::with_interleave(vec![(0, 1), (1, 2), (2, 3), (3, 4)], 128, 4),
        ] {
            let back: Arc<OperandLayout> = round_trip(&l).unwrap();
            assert_eq!(*back, *l);
        }
    }

    #[test]
    fn instr_round_trip_preserves_access_stream() {
        let a = OperandLayout::rotating(16, 0, 64, 128);
        let x = OperandLayout::single_bank(0, 500, 1, 128);
        let y = OperandLayout::single_bank(1, 501, 1, 128);
        let i = NdaInstr::gemv((a, 0, 1024), (x, 0, 4), (y, 0, 2), 77);
        let back = round_trip(&i).unwrap();
        assert_eq!(back.id, 77);
        assert_eq!(back.op, i.op);
        // The decoded instruction expands to the identical micro-op
        // stream — the property the snapshot actually needs.
        let mut p1 = crate::microcode::Program::new(i);
        let mut p2 = crate::microcode::Program::new(back);
        while let (Some(m1), Some(m2)) = (p1.peek(), p2.peek()) {
            assert_eq!(m1, m2);
            p1.advance();
            p2.advance();
        }
        assert!(p1.done() && p2.done());
    }

    #[test]
    fn corrupt_layout_rejected() {
        let mut w = ByteWriter::new();
        // 3 chunks with interleave group 2: violates the divisibility
        // invariant and must decode to an error, not a panic.
        w.varint(3);
        for _ in 0..3 {
            w.varint(0);
            w.varint(0);
        }
        w.varint(128);
        w.varint(2);
        let buf = w.finish();
        assert!(ByteReader::new(&buf).get::<OperandLayout>().is_err());
    }
}
