//! The coarse-grain NDA vector ISA (paper Table I).
//!
//! Each instruction carries a vector width `N` in cache blocks; one
//! instruction processes up to `N` blocks per operand without occupying
//! the host channel again — the property Fig. 10 sweeps.

use std::sync::Arc;

use crate::operand::OperandLayout;

/// Table I operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `z = alpha*x + beta*y`
    Axpby,
    /// `w = alpha*x + beta*y + gamma*z`
    Axpbypcz,
    /// `y = y + alpha*x` (BLAS axpy; used by the SVRG kernels of Fig. 8)
    Axpy,
    /// `y = x`
    Copy,
    /// `z = x ⊙ y` (elementwise multiply)
    Xmy,
    /// `c = x · y` (reduction to scratchpad, no DRAM writes)
    Dot,
    /// `c = sqrt(x · x)` (reduction; the Fig. 10 granularity probe)
    Nrm2,
    /// `x = alpha*x`
    Scal,
    /// `y = A x` (matrix streamed, x/y scratchpad resident)
    Gemv,
}

impl Opcode {
    /// All opcodes in Table I order.
    pub const ALL: [Opcode; 9] = [
        Opcode::Axpby,
        Opcode::Axpbypcz,
        Opcode::Axpy,
        Opcode::Copy,
        Opcode::Xmy,
        Opcode::Dot,
        Opcode::Nrm2,
        Opcode::Scal,
        Opcode::Gemv,
    ];

    /// Lower-case mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Axpby => "axpby",
            Opcode::Axpbypcz => "axpbypcz",
            Opcode::Axpy => "axpy",
            Opcode::Copy => "copy",
            Opcode::Xmy => "xmy",
            Opcode::Dot => "dot",
            Opcode::Nrm2 => "nrm2",
            Opcode::Scal => "scal",
            Opcode::Gemv => "gemv",
        }
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One operand stream inside an instruction phase.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Rank-local placement walked by the microcode.
    pub layout: Arc<OperandLayout>,
    /// Starting line within the layout.
    pub start_line: u64,
    /// True when the stream is written (results drain via the write
    /// buffer).
    pub write: bool,
}

impl Stream {
    /// A stream of `lines` lines from `start_line` of `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or runs past the end of `layout`.
    fn fitted(layout: Arc<OperandLayout>, start_line: u64, lines: u64, write: bool) -> Self {
        assert!(lines > 0, "zero-length instruction");
        assert!(
            start_line + lines <= layout.lines(),
            "operand too short: {} + {} > {}",
            start_line,
            lines,
            layout.lines()
        );
        Self {
            layout,
            start_line,
            write,
        }
    }
}

/// A microcode phase: its streams advance together in 1 KB-per-chip
/// batches (paper Fig. 9).
#[derive(Debug, Clone)]
pub struct Phase {
    /// Streams interleaved within a batch (reads first, then writes).
    pub streams: Vec<Stream>,
    /// Lines processed per stream in this phase.
    pub lines: u64,
}

/// One launched NDA instruction for one rank.
///
/// Phases are behind an `Arc`: an instruction is cloned on every launch
/// (the shard hands one copy to the rank FSM and may keep another in
/// its in-flight records), and a refcount bump keeps that hot-path
/// clone allocation-free. The microcode is immutable once built.
#[derive(Debug, Clone)]
pub struct NdaInstr {
    /// Operation (for reporting and functional execution).
    pub op: Opcode,
    /// Microcode phases.
    pub phases: Arc<[Phase]>,
    /// Runtime-assigned id for completion tracking.
    pub id: u64,
}

impl NdaInstr {
    /// Build an elementwise instruction (everything except GEMV):
    /// `reads` then `writes` advance together over `lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if any operand is too short for `lines` or no stream given.
    pub fn elementwise(
        op: Opcode,
        lines: u64,
        reads: Vec<(Arc<OperandLayout>, u64)>,
        writes: Vec<(Arc<OperandLayout>, u64)>,
        id: u64,
    ) -> Self {
        assert!(
            !reads.is_empty() || !writes.is_empty(),
            "instruction needs operands"
        );
        let streams: Vec<Stream> = (reads.into_iter().map(|r| (r, false)))
            .chain(writes.into_iter().map(|w| (w, true)))
            .map(|((layout, start_line), write)| Stream::fitted(layout, start_line, lines, write))
            .collect();
        Self {
            op,
            phases: vec![Phase { streams, lines }].into(),
            id,
        }
    }

    /// Build a GEMV instruction: read `x` fully, stream `a` fully, then
    /// write `y` (paper §V execution flow). Each operand is `(layout,
    /// start line, lines)`.
    ///
    /// # Panics
    ///
    /// Panics if any operand is empty or too short for its lines.
    pub fn gemv(
        a: (Arc<OperandLayout>, u64, u64),
        x: (Arc<OperandLayout>, u64, u64),
        y: (Arc<OperandLayout>, u64, u64),
        id: u64,
    ) -> Self {
        let phase = |(layout, start_line, lines): (Arc<OperandLayout>, u64, u64), write| Phase {
            streams: vec![Stream::fitted(layout, start_line, lines, write)],
            lines,
        };
        Self {
            op: Opcode::Gemv,
            phases: vec![phase(x, false), phase(a, false), phase(y, true)].into(),
            id,
        }
    }

    /// Total DRAM lines read by this instruction.
    pub fn read_lines(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.lines * p.streams.iter().filter(|s| !s.write).count() as u64)
            .sum()
    }

    /// Total DRAM lines written (via the write buffer).
    pub fn write_lines(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.lines * p.streams.iter().filter(|s| s.write).count() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(chunks: usize) -> Arc<OperandLayout> {
        OperandLayout::rotating(16, 0, chunks, 128)
    }

    #[test]
    fn copy_reads_and_writes_equally() {
        let i = NdaInstr::elementwise(
            Opcode::Copy,
            256,
            vec![(layout(2), 0)],
            vec![(layout(2), 0)],
            0,
        );
        assert_eq!(i.read_lines(), 256);
        assert_eq!(i.write_lines(), 256);
    }

    #[test]
    fn dot_never_writes() {
        let i = NdaInstr::elementwise(
            Opcode::Dot,
            128,
            vec![(layout(1), 0), (layout(1), 0)],
            vec![],
            0,
        );
        assert_eq!(i.read_lines(), 256);
        assert_eq!(i.write_lines(), 0);
    }

    #[test]
    fn gemv_phases_are_sequential() {
        let i = NdaInstr::gemv(
            (layout(64), 0, 64 * 128),
            (layout(1), 0, 8),
            (layout(1), 0, 8),
            0,
        );
        assert_eq!(i.phases.len(), 3);
        assert_eq!(i.read_lines(), 64 * 128 + 8);
        assert_eq!(i.write_lines(), 8);
    }

    #[test]
    #[should_panic(expected = "operand too short")]
    fn oversized_instruction_rejected() {
        let _ = NdaInstr::elementwise(Opcode::Copy, 1 << 20, vec![(layout(1), 0)], vec![], 0);
    }

    #[test]
    #[should_panic(expected = "operand too short")]
    fn oversized_gemv_rejected() {
        let _ = NdaInstr::gemv(
            (layout(1), 0, 128),
            (layout(1), 100, 29),
            (layout(1), 0, 8),
            0,
        );
    }

    #[test]
    fn names_are_table_i() {
        let names: Vec<&str> = Opcode::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            ["axpby", "axpbypcz", "axpy", "copy", "xmy", "dot", "nrm2", "scal", "gemv"]
        );
    }
}
