//! Microcode expansion: turning one NDA instruction into its deterministic
//! DRAM access stream.
//!
//! The expansion mirrors the PE execution flow of Fig. 9: each phase
//! advances its streams together in 1 KB-per-chip *batches* (128 cache
//! lines for Table II geometry), reads before writes within a batch.
//! Determinism is load-bearing: the host-side shadow FSM replays exactly
//! this stream, which is what lets Chopim avoid NDA→host signaling.

use chopim_dram::codec::CodecError;

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
#[derive(Debug, Clone)]
pub struct Program {
    instr: NdaInstr,
    phase: usize,
    batch_start: u64,
    stream: usize,
    line: u64,
}

impl Program {
    /// Start expanding `instr`.
    pub fn new(instr: NdaInstr) -> Self {
        Self {
            instr,
            phase: 0,
            batch_start: 0,
            stream: 0,
            line: 0,
        }
    }

    /// The instruction being expanded.
    pub fn instr(&self) -> &NdaInstr {
        &self.instr
    }

    /// True when every micro-op has been consumed.
    pub fn done(&self) -> bool {
        self.phase >= self.instr.phases.len()
    }

    fn batch_len(&self) -> u64 {
        let p = &self.instr.phases[self.phase];
        BATCH_LINES.min(p.lines - self.batch_start)
    }

    /// The current micro-op, or `None` when done.
    pub fn peek(&self) -> Option<MicroOp> {
        if self.done() {
            return None;
        }
        let p = &self.instr.phases[self.phase];
        let s = &p.streams[self.stream];
        let k = s.start_line + self.batch_start + self.line;
        let (bank, row, col) = s.layout.locate(k);
        let last = self.is_last_position();
        Some(MicroOp {
            write: s.write,
            bank,
            row,
            col,
            last,
        })
    }

    fn is_last_position(&self) -> bool {
        let p = &self.instr.phases[self.phase];
        self.phase == self.instr.phases.len() - 1
            && self.stream == p.streams.len() - 1
            && self.batch_start + self.batch_len() == p.lines
            && self.line == self.batch_len() - 1
    }

    /// Advance past the current micro-op.
    ///
    /// # Panics
    ///
    /// Panics if already done.
    pub fn advance(&mut self) {
        assert!(!self.done(), "advance past end of program");
        let blen = self.batch_len();
        self.line += 1;
        if self.line < blen {
            return;
        }
        self.line = 0;
        self.stream += 1;
        let p = &self.instr.phases[self.phase];
        if self.stream < p.streams.len() {
            return;
        }
        self.stream = 0;
        self.batch_start += blen;
        if self.batch_start < p.lines {
            return;
        }
        self.batch_start = 0;
        self.phase += 1;
    }

    /// Total micro-ops in the whole program.
    pub fn total_ops(&self) -> u64 {
        self.instr
            .phases
            .iter()
            .map(|p| p.lines * p.streams.len() as u64)
            .sum()
    }

    /// A compact encoding of progress, for FSM fingerprints.
    pub fn position_key(&self) -> u64 {
        (self.phase as u64) << 48 | self.batch_start << 16 | (self.stream as u64) << 8 | self.line
    }

    /// Check a restored walk position against the instruction's access
    /// stream (an out-of-range position would make [`peek`](Self::peek)
    /// and [`advance`](Self::advance) panic).
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] naming the violated bound.
    #[cold]
    pub fn validate(&self) -> Result<(), CodecError> {
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

chopim_dram::codec! { Program { instr, phase, batch_start, stream, line } }

#[cfg(test)]
mod tests {
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

    #[test]
    fn total_ops_matches_drained_count() {
        for lines in [1, 127, 128, 129, 1000] {
            let p = Program::new(copy_instr(lines));
            assert_eq!(
                p.total_ops(),
                drain(p.clone()).len() as u64,
                "lines={lines}"
            );
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
