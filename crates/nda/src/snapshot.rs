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
use chopim_dram::codec::{ByteReader, ByteWriter, Codec, CodecError};

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

/// Op, phases and id. Decode enforces the constructor invariants (at
/// least one phase, every phase with at least one stream and a non-zero
/// length, every stream inside its layout): an instruction violating
/// them is rejected as [`CodecError::Corrupt`] instead of panicking
/// later in the walk, wherever the image held it.
impl Codec for NdaInstr {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        let Self { op, phases, id } = self;
        w.put(op);
        w.put(phases);
        w.put(id);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let i = Self {
            op: r.get()?,
            phases: r.get()?,
            id: r.get()?,
        };
        let fits = |p: &Phase| {
            p.lines > 0
                && !p.streams.is_empty()
                && p.streams.iter().all(|s| {
                    s.start_line
                        .checked_add(p.lines)
                        .is_some_and(|end| end <= s.layout.lines())
                })
        };
        if i.phases.is_empty() || !i.phases.iter().all(fits) {
            return Err(CodecError::Corrupt("instruction invariants"));
        }
        Ok(i)
    }
}

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

    /// Encode a hand-built instruction (bypassing the constructors'
    /// asserts) and decode it back.
    fn decode_instr(phases: Vec<Phase>) -> Result<NdaInstr, CodecError> {
        let op = Opcode::Copy;
        round_trip(&NdaInstr {
            op,
            phases: phases.into(),
            id: 3,
        })
    }

    fn phase(lines: u64, streams: Vec<Stream>) -> Phase {
        Phase { streams, lines }
    }

    /// A read stream at `start_line` of a one-chunk, 128-line layout.
    fn stream(start_line: u64) -> Stream {
        let layout = OperandLayout::single_bank(0, 0, 1, 128);
        let write = false;
        Stream {
            layout,
            start_line,
            write,
        }
    }

    #[test]
    fn corrupt_instr_without_phases_rejected() {
        assert!(decode_instr(vec![phase(1, vec![stream(0)])]).is_ok());
        assert!(decode_instr(vec![]).is_err());
    }

    #[test]
    fn corrupt_instr_phase_without_streams_rejected() {
        let phases = vec![phase(1, vec![stream(0)]), phase(1, vec![])];
        assert!(decode_instr(phases).is_err());
    }

    #[test]
    fn corrupt_instr_empty_phase_rejected() {
        assert!(decode_instr(vec![phase(0, vec![stream(0)])]).is_err());
    }

    #[test]
    fn corrupt_instr_stream_past_layout_rejected() {
        assert!(decode_instr(vec![phase(28, vec![stream(100)])]).is_ok());
        for start in [100, 1000, u64::MAX] {
            let phases = vec![phase(29, vec![stream(0), stream(start)])];
            assert!(decode_instr(phases).is_err(), "stream at line {start}");
        }
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
