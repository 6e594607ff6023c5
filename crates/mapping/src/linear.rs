//! Invertible GF(2) linear (XOR-hash) address mappings.
//!
//! Every DRAM-coordinate bit is the XOR of a subset of the cache-line
//! physical-address bits. This captures the hashed interleavings of real
//! memory controllers (Intel Skylake and others reverse engineered in the
//! DRAMA work the paper cites) while staying analyzable: the mapping is a
//! square bit matrix over GF(2) whose invertibility we verify at
//! construction.
//!
//! # Evaluation by byte-sliced tables
//!
//! The list of [`OutBit`]s is the mapping's definition and stays its
//! source of truth: [`LinearMapping::unmap_line`], the page-coloring mask
//! and every construction check read it. [`LinearMapping::map_line`],
//! which the host front-end calls for every request, instead evaluates
//! a form derived from it once, in [`LinearMapping::new`]:
//!
//! * A coordinate is *packed* into one `u64`, each field at a fixed bit
//!   offset (column lowest, then channel, bank group, bank, rank, row;
//!   the widths sum to `line_bits`).
//! * Because the map is linear over GF(2), the packed coordinate of a
//!   line is the XOR of the packed coordinates of its set bits, so it
//!   splits by byte: table `k` holds, for each of the 256 values of line
//!   byte `k`, the XOR of the packed columns of that byte's set bits.
//!   `map_line` is one load per line byte, XORs, and a shift and mask
//!   per field.
//! * Entry `e` of a table is entry `e & (e - 1)` (its lowest set bit
//!   cleared) XOR the column of that lowest bit, so each table costs 255
//!   XORs to build rather than a parity per output bit per entry.

use chopim_dram::{DramAddress, DramConfig};

use crate::{AddressMapper, Pa};

/// Which DRAM coordinate a mapping output bit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutField {
    /// Column (cache-line units).
    Col,
    /// Channel.
    Channel,
    /// Bank group.
    BankGroup,
    /// Bank within group.
    Bank,
    /// Rank within channel.
    Rank,
    /// Row.
    Row,
}

/// One output bit: its field, bit position within the field, and the XOR
/// mask over line-address bits that computes it.
#[derive(Debug, Clone, Copy)]
pub struct OutBit {
    /// Target coordinate field.
    pub field: OutField,
    /// Bit position within the field.
    pub bit: u32,
    /// XOR mask over cache-line address bits.
    pub mask: u64,
}

/// An invertible XOR-hash mapping between cache-line physical addresses
/// and DRAM coordinates.
///
/// Construct via [`LinearMapping::new`] (validates bijectivity) or one of
/// the [`crate::presets`].
#[derive(Debug, Clone)]
pub struct LinearMapping {
    bits: Vec<OutBit>,
    inverse: Vec<u64>,
    /// `tables[k][b]`: the packed coordinate of the line whose byte `k`
    /// is `b` and whose other bits are zero.
    tables: Vec<[u64; 256]>,
    /// Bit offset of each field in a packed coordinate, indexed by
    /// `OutField as usize`.
    shifts: [u32; 6],
    /// Each field's width as a mask, indexed like `shifts`.
    field_masks: [u64; 6],
    line_bits: u32,
    banks_per_group: usize,
    /// Number of row bits (exposed for the partition remap).
    pub row_bits: u32,
    /// Number of flat bank bits, `log2(banks_per_rank)`.
    pub bank_bits: u32,
}

fn parity(x: u64) -> u64 {
    u64::from(x.count_ones() & 1)
}

impl LinearMapping {
    /// Build a mapping from explicit output-bit specifications.
    ///
    /// `bits` must contain exactly `line_bits` entries whose masks form an
    /// invertible matrix over GF(2) and whose fields cover the geometry of
    /// `config`, each bit of each field exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description if the matrix is singular or the field bits
    /// do not match `config`.
    pub fn new(config: &DramConfig, bits: Vec<OutBit>) -> Result<Self, String> {
        let line_bits = (config.capacity_bytes() / config.line_bytes() as u64).trailing_zeros();
        if bits.len() != line_bits as usize {
            return Err(format!(
                "need exactly {line_bits} output bits, got {}",
                bits.len()
            ));
        }
        let width = |f: OutField| bits.iter().filter(|b| b.field == f).count() as u32;
        // In `OutField` declaration order, which is also the packing order.
        let expect = [
            (OutField::Col, config.lines_per_row().trailing_zeros()),
            (OutField::Channel, config.channels.trailing_zeros()),
            (OutField::BankGroup, config.bankgroups.trailing_zeros()),
            (OutField::Bank, config.banks_per_group.trailing_zeros()),
            (OutField::Rank, config.ranks_per_channel.trailing_zeros()),
            (OutField::Row, config.rows.trailing_zeros()),
        ];
        let mut shifts = [0; 6];
        let mut field_masks = [0; 6];
        let mut offset = 0;
        for (f, w) in expect {
            if width(f) != w {
                return Err(format!("field {f:?} needs {w} bits, got {}", width(f)));
            }
            let all = (1u64 << w) - 1;
            let covered = (bits.iter().filter(|b| b.field == f))
                .fold(0, |acc, b| acc | if b.bit < w { 1 << b.bit } else { !all });
            if covered != all {
                return Err(format!("field {f:?} needs each bit 0..{w} exactly once"));
            }
            shifts[f as usize] = offset;
            field_masks[f as usize] = all;
            offset += w;
        }
        let inverse = invert_gf2(&bits.iter().map(|b| b.mask).collect::<Vec<_>>(), line_bits)
            .ok_or("mapping matrix is singular (not a bijection)")?;
        // The packed coordinate of each single-bit line, then the tables
        // by linearity (module docs).
        let column = |j: u32| {
            bits.iter()
                .filter(|b| b.mask >> j & 1 == 1)
                .fold(0u64, |acc, b| acc | 1 << (shifts[b.field as usize] + b.bit))
        };
        let tables = (0..line_bits.div_ceil(8))
            .map(|k| {
                let columns: [u64; 8] = std::array::from_fn(|j| column(8 * k + j as u32));
                let mut t = [0u64; 256];
                for e in 1..256usize {
                    t[e] = t[e & (e - 1)] ^ columns[e.trailing_zeros() as usize];
                }
                t
            })
            .collect();
        Ok(Self {
            bits,
            inverse,
            tables,
            shifts,
            field_masks,
            line_bits,
            banks_per_group: config.banks_per_group,
            row_bits: config.rows.trailing_zeros(),
            bank_bits: config.banks_per_rank().trailing_zeros(),
        })
    }

    /// Map a cache-line index to a DRAM coordinate.
    pub fn map_line(&self, line: u64) -> DramAddress {
        debug_assert!(line < 1u64 << self.line_bits, "line index out of range");
        let packed = (self.tables.iter())
            .zip(line.to_le_bytes())
            .fold(0, |acc, (t, byte)| acc ^ t[usize::from(byte)]);
        let field =
            |f: OutField| (packed >> self.shifts[f as usize]) & self.field_masks[f as usize];
        DramAddress {
            channel: field(OutField::Channel) as usize,
            rank: field(OutField::Rank) as usize,
            bankgroup: field(OutField::BankGroup) as usize,
            bank: field(OutField::Bank) as usize,
            row: field(OutField::Row) as u32,
            col: field(OutField::Col) as u32,
        }
    }

    /// The bit-serial definition the tables are derived from: one parity
    /// per output bit. The oracle [`map_line`](Self::map_line) is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn map_line_reference(&self, line: u64) -> DramAddress {
        let mut d = DramAddress::default();
        for b in &self.bits {
            let v = parity(line & b.mask);
            match b.field {
                OutField::Col => d.col |= (v as u32) << b.bit,
                OutField::Channel => d.channel |= (v as usize) << b.bit,
                OutField::BankGroup => d.bankgroup |= (v as usize) << b.bit,
                OutField::Bank => d.bank |= (v as usize) << b.bit,
                OutField::Rank => d.rank |= (v as usize) << b.bit,
                OutField::Row => d.row |= (v as u32) << b.bit,
            }
        }
        d
    }

    /// Inverse of [`map_line`](Self::map_line).
    pub fn unmap_line(&self, d: &DramAddress) -> u64 {
        let mut out_vec = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            let v = match b.field {
                OutField::Col => u64::from(d.col >> b.bit) & 1,
                OutField::Channel => (d.channel >> b.bit) as u64 & 1,
                OutField::BankGroup => (d.bankgroup >> b.bit) as u64 & 1,
                OutField::Bank => (d.bank >> b.bit) as u64 & 1,
                OutField::Rank => (d.rank >> b.bit) as u64 & 1,
                OutField::Row => u64::from(d.row >> b.bit) & 1,
            };
            out_vec |= v << i;
        }
        let mut line = 0u64;
        for (i, row) in self.inverse.iter().enumerate() {
            line |= parity(out_vec & row) << i;
        }
        line
    }

    /// The XOR masks (over *row-region line bits*) feeding channel and rank
    /// outputs — these define the OS page-coloring bits (paper §III-A).
    pub fn rank_channel_row_mask(&self) -> u64 {
        // Row-region bits are those used as the primary (identity) inputs of
        // row outputs.
        let row_region: u64 = self
            .bits
            .iter()
            .filter(|b| b.field == OutField::Row)
            .fold(0, |acc, b| acc | b.mask);
        self.bits
            .iter()
            .filter(|b| matches!(b.field, OutField::Channel | OutField::Rank))
            .fold(0, |acc, b| acc | (b.mask & row_region))
    }

    /// Banks per group (needed to flatten bank ids).
    pub fn banks_per_group(&self) -> usize {
        self.banks_per_group
    }
}

impl AddressMapper for LinearMapping {
    fn map_pa(&self, pa: Pa) -> DramAddress {
        self.map_line((pa >> 6) & ((1u64 << self.line_bits) - 1))
    }

    fn unmap(&self, d: &DramAddress) -> Pa {
        self.unmap_line(d) << 6
    }

    fn line_bits(&self) -> u32 {
        self.line_bits
    }
}

/// Invert an `n x n` bit matrix given as row masks. Returns `None` if
/// singular.
fn invert_gf2(rows: &[u64], n: u32) -> Option<Vec<u64>> {
    let n = n as usize;
    let mut a: Vec<u64> = rows.to_vec();
    let mut inv: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r] >> col & 1 == 1)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        for r in 0..n {
            if r != col && a[r] >> col & 1 == 1 {
                a[r] ^= a[col];
                inv[r] ^= inv[col];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    #[test]
    fn gf2_inversion_round_trip() {
        // Small known-invertible matrix: rows = {b01, b11}.
        let inv = invert_gf2(&[0b01, 0b11], 2).unwrap();
        // M = [[1,0],[1,1]] (row i = mask): M^-1 = [[1,0],[1,1]].
        assert_eq!(inv, vec![0b01, 0b11]);
        // Singular matrix rejected.
        assert!(invert_gf2(&[0b01, 0b01], 2).is_none());
    }

    #[test]
    fn wrong_bit_count_rejected() {
        let cfg = chopim_dram::DramConfig::table_ii();
        assert!(LinearMapping::new(&cfg, vec![]).is_err());
    }

    #[test]
    fn repeated_or_out_of_range_field_bit_rejected() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let bits = presets::naive(&cfg).bits;
        let row0 = (bits.iter()).position(|b| b.field == OutField::Row && b.bit == 0);
        let row0 = row0.expect("naive preset has row bit 0");
        for bit in [1, 16] {
            let mut bad = bits.clone();
            bad[row0].bit = bit;
            let err = LinearMapping::new(&cfg, bad).expect_err("bad row bit accepted");
            assert!(err.contains("exactly once"), "{err}");
        }
    }

    /// Every geometry the table oracle covers: channels {1..16} x ranks
    /// {1..8}, each under both presets.
    fn oracle_mappings() -> impl Iterator<Item = LinearMapping> {
        let geometries = [1, 2, 4, 8, 16].into_iter().flat_map(|channels| {
            [1, 2, 4, 8].into_iter().map(move |ranks| {
                chopim_dram::DramConfig::table_ii()
                    .with_channels(channels)
                    .with_ranks(ranks)
            })
        });
        geometries.flat_map(|cfg| [presets::skylake_like(&cfg), presets::naive(&cfg)])
    }

    #[test]
    fn tables_match_reference_on_zero_and_every_single_bit_line() {
        for m in oracle_mappings() {
            let lines = std::iter::once(0).chain((0..m.line_bits).map(|j| 1u64 << j));
            for line in lines {
                assert_eq!(
                    m.map_line(line),
                    m.map_line_reference(line),
                    "line {line:#x}"
                );
            }
        }
    }

    #[test]
    fn skylake_preset_is_bijective_on_samples() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        for line in (0..1u64 << 20).step_by(7919) {
            let d = m.map_line(line);
            assert_eq!(m.unmap_line(&d), line, "line {line} -> {d}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // Fine-grain channel interleaving: among any 16 consecutive lines,
        // both channels must appear (paper §II, address mapping policy).
        for base in [0u64, 1 << 12, 1 << 20] {
            let chans: std::collections::HashSet<_> =
                (base..base + 16).map(|l| m.map_line(l).channel).collect();
            assert_eq!(chans.len(), cfg.channels);
        }
    }

    #[test]
    fn msbs_only_feed_row() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // Flipping any of the top `bank_bits` line bits must change only
        // the row (the partitioning prerequisite, paper Fig. 4b).
        let line = 0x0123_4567u64 & ((1 << m.line_bits()) - 1);
        let top = m.line_bits() - m.bank_bits;
        for b in top..m.line_bits() {
            let d0 = m.map_line(line);
            let d1 = m.map_line(line ^ (1 << b));
            assert_eq!(d0.channel, d1.channel);
            assert_eq!(d0.rank, d1.rank);
            assert_eq!(d0.bankgroup, d1.bankgroup);
            assert_eq!(d0.bank, d1.bank);
            assert_eq!(d0.col, d1.col);
            assert_ne!(d0.row, d1.row);
        }
    }

    #[test]
    fn color_mask_has_eight_colors_for_table_ii() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // 3 color bits -> 8 colors -> 4 GiB regions in a 32 GiB system,
        // matching the paper's "8 colors ... 4GiB" baseline.
        assert_eq!(m.rank_channel_row_mask().count_ones(), 3);
    }

    proptest! {
        #[test]
        fn prop_bijective(line in 0u64..(1 << 29)) {
            let cfg = chopim_dram::DramConfig::table_ii();
            let m = presets::skylake_like(&cfg);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }

        #[test]
        fn prop_naive_bijective(line in 0u64..(1 << 29)) {
            let cfg = chopim_dram::DramConfig::table_ii();
            let m = presets::naive(&cfg);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }

        /// The byte tables agree with the bit-serial definition on random
        /// lines of every oracle geometry.
        #[test]
        fn prop_tables_match_reference(line in any::<u64>()) {
            for m in oracle_mappings() {
                let line = line & ((1 << m.line_bits) - 1);
                prop_assert_eq!(m.map_line(line), m.map_line_reference(line));
            }
        }

        #[test]
        fn prop_scaled_geometries_bijective(line in 0u64..(1 << 20), ranks in prop::sample::select(vec![2usize, 4, 8])) {
            let cfg = chopim_dram::DramConfig::table_ii().with_ranks(ranks);
            let m = presets::skylake_like(&cfg);
            let line = line & ((1 << m.line_bits()) - 1);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }
    }
}
