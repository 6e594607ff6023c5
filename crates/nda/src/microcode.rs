//! Microcode expansion: turning one NDA instruction into its deterministic
//! DRAM access stream.
//!
//! The expansion mirrors the PE execution flow of Fig. 9: each phase
//! advances its streams together in 1 KB-per-chip *batches* (128 cache
//! lines for Table II geometry), reads before writes within a batch.
//! Determinism is load-bearing: the host-side shadow FSM replays exactly
//! this stream, which is what lets Chopim avoid NDA→host signaling.

use chopim_dram::codec::{ByteReader, ByteWriter, Codec, CodecError};

use crate::isa::NdaInstr;

/// Lines per batch: one DRAM row per chip (1 KB per chip, Table II).
pub const BATCH_LINES: u64 = 128;

/// One expanded micro-operation: a single cache-line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// True for a result write (absorbed by the write buffer).
    pub write: bool,
    /// Flat bank within the rank.
    pub bank: u16,
    /// Row.
    pub row: u32,
    /// Column in line units.
    pub col: u32,
    /// True for the final micro-op of the instruction.
    pub last: bool,
}

/// The sequencer state walking one instruction's access stream.
///
/// The walk position (`phase`, `batch_start`, `stream`, `line`) is the
/// state. The current micro-op and the layout cursor under it are
/// derived from it: inside a batch [`advance`](Self::advance) steps the
/// cursor with adds and compares, and at each batch, stream or phase
/// boundary one [`OperandLayout::locate`](crate::OperandLayout::locate)
/// lookup reseats it.
#[derive(Debug, Clone)]
pub struct Program {
    instr: NdaInstr,
    phase: usize,
    batch_start: u64,
    stream: usize,
    line: u64,
    /// The current micro-op, `None` once done.
    op: Option<MicroOp>,
    /// Lines in the current batch.
    batch_len: u64,
    /// The `line` of the program's last micro-op while the current batch
    /// holds it, `u64::MAX` otherwise.
    last_line: u64,
    /// First chunk of the current micro-op's interleave group.
    chunk_base: usize,
    /// The current micro-op's line within its interleave group.
    lane: u32,
}

impl Program {
    /// Start expanding `instr`.
    pub fn new(instr: NdaInstr) -> Self {
        let mut p = Self {
            instr,
            phase: 0,
            batch_start: 0,
            stream: 0,
            line: 0,
            op: None,
            batch_len: 0,
            last_line: u64::MAX,
            chunk_base: 0,
            lane: 0,
        };
        p.seat();
        p
    }

    /// The instruction being expanded.
    pub fn instr(&self) -> &NdaInstr {
        &self.instr
    }

    /// True when every micro-op has been consumed.
    pub fn done(&self) -> bool {
        self.op.is_none()
    }

    /// The current micro-op, or `None` when done.
    #[inline]
    pub fn peek(&self) -> Option<MicroOp> {
        self.op
    }

    /// Rebuild the derived micro-op and cursor from the walk position.
    fn seat(&mut self) {
        let phases = &self.instr.phases;
        let Some(p) = phases.get(self.phase) else {
            self.op = None;
            return;
        };
        let s = &p.streams[self.stream];
        self.batch_len = BATCH_LINES.min(p.lines - self.batch_start);
        let final_batch = self.phase + 1 == phases.len()
            && self.stream + 1 == p.streams.len()
            && self.batch_start + self.batch_len == p.lines;
        self.last_line = if final_batch {
            self.batch_len - 1
        } else {
            u64::MAX
        };
        let (base, lane, col) = s
            .layout
            .position(s.start_line + self.batch_start + self.line);
        let (bank, row) = s.layout.chunks()[base + lane as usize];
        (self.chunk_base, self.lane) = (base, lane);
        self.op = Some(MicroOp {
            write: s.write,
            bank,
            row,
            col,
            last: self.line == self.last_line,
        });
    }

    /// Advance past the current micro-op.
    ///
    /// # Panics
    ///
    /// Panics if already done.
    pub fn advance(&mut self) {
        let op = self.op.as_mut().expect("advance past end of program");
        self.line += 1;
        if self.line < self.batch_len {
            // The next line of the same stream: step the cursor.
            let layout = &self.instr.phases[self.phase].streams[self.stream].layout;
            let group = layout.interleave_group();
            self.lane += 1;
            if self.lane == group {
                self.lane = 0;
                op.col += 1;
                if op.col == layout.lines_per_chunk() {
                    op.col = 0;
                    self.chunk_base += group as usize;
                }
            }
            (op.bank, op.row) = layout.chunks()[self.chunk_base + self.lane as usize];
            op.last = self.line == self.last_line;
            return;
        }
        self.line = 0;
        self.stream += 1;
        let p = &self.instr.phases[self.phase];
        if self.stream == p.streams.len() {
            self.stream = 0;
            self.batch_start += self.batch_len;
            if self.batch_start == p.lines {
                self.batch_start = 0;
                self.phase += 1;
            }
        }
        self.seat();
    }

    /// The walk position `(phase, batch_start, stream, line)`; the
    /// micro-op and cursor derive from it.
    pub(crate) fn position(&self) -> (usize, u64, usize, u64) {
        (self.phase, self.batch_start, self.stream, self.line)
    }

    /// A compact encoding of progress, for FSM fingerprints.
    pub fn position_key(&self) -> u64 {
        (self.phase as u64) << 48 | self.batch_start << 16 | (self.stream as u64) << 8 | self.line
    }

    /// Check a decoded walk position against the instruction's access
    /// stream (seating an out-of-range position would panic).
    #[cold]
    fn check_position(&self) -> Result<(), CodecError> {
        let phases = &self.instr.phases;
        if self.phase > phases.len() {
            return Err(CodecError::Corrupt("program phase out of range"));
        }
        if self.phase == phases.len() {
            if self.batch_start != 0 || self.stream != 0 || self.line != 0 {
                return Err(CodecError::Corrupt("finished program with position"));
            }
            return Ok(());
        }
        let p = &phases[self.phase];
        if self.stream >= p.streams.len() || self.batch_start >= p.lines {
            return Err(CodecError::Corrupt("program position out of range"));
        }
        if self.line >= BATCH_LINES.min(p.lines - self.batch_start) {
            return Err(CodecError::Corrupt("program line out of batch"));
        }
        Ok(())
    }
}

/// The instruction and the walk position. The micro-op and cursor are
/// derived, not encoded: decode checks the position against the
/// instruction's access stream, rejecting one out of range as
/// [`CodecError::Corrupt`], and reseats the cursor from it.
impl Codec for Program {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            instr,
            phase,
            batch_start,
            stream,
            line,
            op: _,
            batch_len: _,
            last_line: _,
            chunk_base: _,
            lane: _,
        } = self;
        w.put(instr);
        w.put(phase);
        w.put(batch_start);
        w.put(stream);
        w.put(line);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut p = Self::new(r.get()?);
        (p.phase, p.batch_start) = (r.get()?, r.get()?);
        (p.stream, p.line) = (r.get()?, r.get()?);
        p.check_position()?;
        p.seat();
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::isa::Opcode;
    use crate::operand::OperandLayout;

    fn copy_instr(lines: u64) -> NdaInstr {
        let x = OperandLayout::rotating(16, 0, 64, 128);
        let y = OperandLayout::rotating(16, 100, 64, 128);
        NdaInstr::elementwise(Opcode::Copy, lines, vec![(x, 0)], vec![(y, 0)], 7)
    }

    fn drain(mut p: Program) -> Vec<MicroOp> {
        let mut v = Vec::new();
        while let Some(m) = p.peek() {
            v.push(m);
            p.advance();
        }
        v
    }

    #[test]
    fn copy_interleaves_read_and_write_batches() {
        let ops = drain(Program::new(copy_instr(256)));
        assert_eq!(ops.len(), 512);
        // First 128: reads from the X layout (rows at 0..).
        assert!(ops[..128].iter().all(|m| !m.write && m.row < 100));
        // Next 128: writes to the Y layout.
        assert!(ops[128..256].iter().all(|m| m.write && m.row >= 100));
        // Columns stream 0..127 within each batch.
        assert_eq!(ops[0].col, 0);
        assert_eq!(ops[127].col, 127);
        // Exactly one `last`.
        assert_eq!(ops.iter().filter(|m| m.last).count(), 1);
        assert!(ops.last().unwrap().last && ops.last().unwrap().write);
    }

    #[test]
    fn partial_final_batch() {
        let ops = drain(Program::new(copy_instr(300)));
        assert_eq!(ops.len(), 600);
        // Final batch has 44 lines per stream.
        let tail = &ops[512..];
        assert_eq!(tail.len(), 88);
        assert!(tail[..44].iter().all(|m| !m.write));
        assert!(tail[44..].iter().all(|m| m.write));
    }

    #[test]
    fn tiny_instruction_single_line() {
        let x = OperandLayout::single_bank(3, 9, 1, 128);
        let i = NdaInstr::elementwise(Opcode::Nrm2, 1, vec![(x, 5)], vec![], 0);
        let ops = drain(Program::new(i));
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ops[0],
            MicroOp {
                write: false,
                bank: 3,
                row: 9,
                col: 5,
                last: true
            }
        );
    }

    #[test]
    fn gemv_phases_run_in_order() {
        let a = OperandLayout::rotating(16, 0, 8, 128);
        let x = OperandLayout::single_bank(0, 500, 1, 128);
        let y = OperandLayout::single_bank(1, 501, 1, 128);
        let i = NdaInstr::gemv((a, 0, 1024), (x, 0, 4), (y, 0, 2), 0);
        let ops = drain(Program::new(i));
        assert_eq!(ops.len(), 1024 + 4 + 2);
        assert!(ops[..4].iter().all(|m| m.row == 500));
        assert!(ops[4..1028].iter().all(|m| !m.write));
        assert!(ops[1028..].iter().all(|m| m.write && m.row == 501));
    }

    /// A random chunk-major or interleaved layout (group 1, 2 or 4)
    /// holding at least `lines` lines.
    fn random_layout(rng: &mut StdRng, lines: u64) -> Arc<OperandLayout> {
        let group = [1, 2, 4][rng.gen_range(0..3usize)];
        let per_chunk = if rng.gen_bool(0.5) {
            128
        } else {
            rng.gen_range(1..=200)
        };
        let groups = lines.div_ceil(u64::from(group * per_chunk)) + rng.gen_range(0..2u64);
        let chunks = (0..groups * u64::from(group))
            .map(|_| (rng.gen_range(0..16), rng.gen_range(0..1 << 16)))
            .collect();
        OperandLayout::with_interleave(chunks, per_chunk, group)
    }

    /// `lines` lines at a random start inside a random layout.
    fn random_operand(rng: &mut StdRng, lines: u64) -> (Arc<OperandLayout>, u64) {
        let layout = random_layout(rng, lines);
        let start = rng.gen_range(0..=layout.lines() - lines);
        (layout, start)
    }

    /// A length that is not a multiple of the batch.
    fn ragged(rng: &mut StdRng) -> u64 {
        rng.gen_range(0..4u64) * BATCH_LINES + rng.gen_range(1..BATCH_LINES)
    }

    /// A GEMV (three phases) or an elementwise instruction with 1-3
    /// streams, on random layouts.
    fn random_instr(rng: &mut StdRng) -> NdaInstr {
        if rng.gen_bool(0.25) {
            let operand = |rng: &mut StdRng| {
                let lines = ragged(rng);
                let (layout, start) = random_operand(rng, lines);
                (layout, start, lines)
            };
            let (a, x, y) = (operand(rng), operand(rng), operand(rng));
            return NdaInstr::gemv(a, x, y, 1);
        }
        let lines = ragged(rng);
        let streams = rng.gen_range(1..=3);
        let reads = rng.gen_range(0..=streams);
        let mut operands = |n| {
            (0..n)
                .map(|_| random_operand(rng, lines))
                .collect::<Vec<_>>()
        };
        let (r, w) = (operands(reads), operands(streams - reads));
        NdaInstr::elementwise(Opcode::Axpby, lines, r, w, 1)
    }

    /// The reference expansion: each position's micro-op built from
    /// [`OperandLayout::locate`], in walk order.
    fn reference(instr: &NdaInstr) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        for p in instr.phases.iter() {
            for batch in (0..p.lines).step_by(BATCH_LINES as usize) {
                let len = BATCH_LINES.min(p.lines - batch);
                for s in &p.streams {
                    for line in 0..len {
                        let (bank, row, col) = s.layout.locate(s.start_line + batch + line);
                        let (write, last) = (s.write, false);
                        ops.push(MicroOp {
                            write,
                            bank,
                            row,
                            col,
                            last,
                        });
                    }
                }
            }
        }
        ops.last_mut().expect("an instruction has micro-ops").last = true;
        ops
    }

    proptest! {
        /// The cursor walks exactly the stream `locate` defines, `last`
        /// on the final op only, and a program encoded and decoded at any
        /// point reseats to the same remaining stream.
        #[test]
        fn prop_cursor_matches_locate(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let instr = random_instr(&mut rng);
            let want = reference(&instr);
            let program = Program::new(instr);
            prop_assert_eq!(drain(program.clone()), want.clone());

            let mut p = program;
            let at = rng.gen_range(0..=want.len());
            for _ in 0..at {
                p.advance();
            }
            let mut w = ByteWriter::new();
            w.put(&p);
            let buf = w.finish();
            let back: Program = ByteReader::new(&buf).get().expect("a live program decodes");
            prop_assert_eq!(back.position_key(), p.position_key());
            prop_assert_eq!(drain(back), want[at..].to_vec());
        }
    }

    #[test]
    fn position_key_is_monotonic_within_phase() {
        let mut p = Program::new(copy_instr(256));
        let mut prev = p.position_key();
        for _ in 0..511 {
            p.advance();
            let k = p.position_key();
            assert!(k > prev);
            prev = k;
        }
    }
}
