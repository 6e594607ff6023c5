//! Rank-local operand layouts.
//!
//! An NDA instruction's operands must be fully contained in one rank
//! (paper §III-A). The runtime computes, per rank, the deterministic
//! traversal of an operand: a sequence of 128-line *chunks*, each filling
//! one DRAM row of one bank (the PE's 1 KB-per-chip batch). In shared
//! (unpartitioned) mode the chunks rotate across all banks of the rank;
//! with bank partitioning they stay within the reserved bank(s), walking
//! the remapped rows.

use std::sync::Arc;

use chopim_dram::codec::{ByteReader, ByteWriter, Codec, CodecError};

/// The deterministic rank-local placement of one operand.
///
/// `interleave_group > 1` models the physical-address-order walk of a
/// hash-interleaved operand: consecutive lines rotate across the group's
/// banks (all their rows stay open simultaneously), which is what exposes
/// shared-mode operands to host row conflicts (paper §III-C). Group 1 is
/// the bank-partitioned / contiguous-column walk of Fig. 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandLayout {
    /// `(flat_bank, row)` of each consecutive 128-line chunk.
    chunks: Vec<(u16, u32)>,
    /// Cache lines per chunk (one DRAM row per rank: 128 for Table II).
    lines_per_chunk: u32,
    /// Number of consecutive chunks whose lines interleave round-robin.
    interleave_group: u32,
}

impl OperandLayout {
    /// Build a layout from explicit chunk placements (chunk-major walk).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty or `lines_per_chunk` is zero.
    pub fn new(chunks: Vec<(u16, u32)>, lines_per_chunk: u32) -> Arc<Self> {
        assert!(!chunks.is_empty(), "operand needs at least one chunk");
        assert!(lines_per_chunk > 0);
        Arc::new(Self {
            chunks,
            lines_per_chunk,
            interleave_group: 1,
        })
    }

    /// Build a layout whose lines rotate round-robin over groups of
    /// `group` consecutive chunks (hash-interleaved walk).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty, not a multiple of `group`, or
    /// `lines_per_chunk`/`group` is zero.
    pub fn with_interleave(chunks: Vec<(u16, u32)>, lines_per_chunk: u32, group: u32) -> Arc<Self> {
        assert!(!chunks.is_empty(), "operand needs at least one chunk");
        assert!(lines_per_chunk > 0 && group > 0);
        assert!(
            chunks.len().is_multiple_of(group as usize),
            "chunk count {} must be a multiple of the interleave group {group}",
            chunks.len()
        );
        Arc::new(Self {
            chunks,
            lines_per_chunk,
            interleave_group: group,
        })
    }

    /// A synthetic layout for tests and microbenchmarks: `n_chunks` chunks
    /// rotating over `banks` banks starting at `base_row`, one row per
    /// visit.
    pub fn rotating(banks: u16, base_row: u32, n_chunks: usize, lines_per_chunk: u32) -> Arc<Self> {
        let chunks = (0..n_chunks)
            .map(|i| ((i as u16) % banks, base_row + (i / banks as usize) as u32))
            .collect();
        Self::new(chunks, lines_per_chunk)
    }

    /// A single-bank layout (bank-partitioned mode): chunks walk
    /// consecutive rows of `bank`.
    pub fn single_bank(
        bank: u16,
        base_row: u32,
        n_chunks: usize,
        lines_per_chunk: u32,
    ) -> Arc<Self> {
        let chunks = (0..n_chunks).map(|i| (bank, base_row + i as u32)).collect();
        Self::new(chunks, lines_per_chunk)
    }

    /// Total cache lines addressable through this layout.
    pub fn lines(&self) -> u64 {
        self.chunks.len() as u64 * u64::from(self.lines_per_chunk)
    }

    /// Lines per chunk.
    pub fn lines_per_chunk(&self) -> u32 {
        self.lines_per_chunk
    }

    /// Chunk placements, in traversal order.
    pub fn chunks(&self) -> &[(u16, u32)] {
        &self.chunks
    }

    /// Location of rank-local line `k`: `(flat_bank, row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.lines()`.
    pub fn locate(&self, k: u64) -> (u16, u32, u32) {
        let g = u64::from(self.interleave_group);
        let span = g * u64::from(self.lines_per_chunk);
        let group = k / span;
        let within = k % span;
        let chunk = (group * g + within % g) as usize;
        let (bank, row) = self.chunks[chunk];
        (bank, row, (within / g) as u32)
    }

    /// The interleave group size (1 = chunk-major).
    pub fn interleave_group(&self) -> u32 {
        self.interleave_group
    }

    /// Distinct banks touched by this layout.
    pub fn bank_count(&self) -> usize {
        let mut banks: Vec<u16> = self.chunks.iter().map(|c| c.0).collect();
        banks.sort_unstable();
        banks.dedup();
        banks.len()
    }
}

/// Chunk list and walk parameters. Decode enforces the constructor
/// invariants (non-empty chunk list, non-zero strides, group dividing the
/// chunk count): a layout violating them is rejected as
/// [`CodecError::Corrupt`] instead of panicking later in the walk.
impl Codec for OperandLayout {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            chunks,
            lines_per_chunk,
            interleave_group,
        } = self;
        w.put(chunks);
        w.put(lines_per_chunk);
        w.put(interleave_group);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let l = Self {
            chunks: r.get()?,
            lines_per_chunk: r.get()?,
            interleave_group: r.get()?,
        };
        if l.chunks.is_empty()
            || l.lines_per_chunk == 0
            || l.interleave_group == 0
            || !l.chunks.len().is_multiple_of(l.interleave_group as usize)
        {
            return Err(CodecError::Corrupt("layout invariants"));
        }
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_layout_cycles_banks() {
        let l = OperandLayout::rotating(16, 100, 32, 128);
        assert_eq!(l.lines(), 32 * 128);
        assert_eq!(l.bank_count(), 16);
        assert_eq!(l.locate(0), (0, 100, 0));
        assert_eq!(l.locate(127), (0, 100, 127));
        assert_eq!(l.locate(128), (1, 100, 0));
        // Second sweep moves to the next row.
        assert_eq!(l.locate(16 * 128), (0, 101, 0));
    }

    #[test]
    fn single_bank_layout_walks_rows() {
        let l = OperandLayout::single_bank(15, 0, 4, 128);
        assert_eq!(l.bank_count(), 1);
        assert_eq!(l.locate(0), (15, 0, 0));
        assert_eq!(l.locate(129), (15, 1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn empty_layout_rejected() {
        let _ = OperandLayout::new(vec![], 128);
    }

    #[test]
    #[should_panic]
    fn locate_out_of_range_panics() {
        let l = OperandLayout::single_bank(0, 0, 1, 128);
        let _ = l.locate(128);
    }

    #[test]
    fn interleaved_layout_rotates_banks_per_line() {
        // 4 banks x 2 sweeps, group 4: lines rotate banks; columns stream
        // per bank at stride `group`.
        let chunks = vec![
            (0, 10),
            (1, 11),
            (2, 12),
            (3, 13),
            (0, 20),
            (1, 21),
            (2, 22),
            (3, 23),
        ];
        let l = OperandLayout::with_interleave(chunks, 128, 4);
        assert_eq!(l.locate(0), (0, 10, 0));
        assert_eq!(l.locate(1), (1, 11, 0));
        assert_eq!(l.locate(2), (2, 12, 0));
        assert_eq!(l.locate(3), (3, 13, 0));
        assert_eq!(l.locate(4), (0, 10, 1));
        assert_eq!(l.locate(5), (1, 11, 1));
        // Second group starts after 4*128 lines.
        assert_eq!(l.locate(4 * 128), (0, 20, 0));
        assert_eq!(l.locate(4 * 128 + 6), (2, 22, 1));
        // Coverage: every (bank,row,col) visited exactly once.
        let mut seen = std::collections::HashSet::new();
        for k in 0..l.lines() {
            assert!(seen.insert(l.locate(k)), "dup at {k}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the interleave group")]
    fn interleave_group_must_divide_chunks() {
        let _ = OperandLayout::with_interleave(vec![(0, 0), (1, 0), (2, 0)], 128, 2);
    }
}
