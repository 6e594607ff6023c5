//! Decoded DRAM coordinates.

/// A fully decoded DRAM location: the output of the host address mapping
/// and the coordinate space in which NDA microcode operates.
///
/// Columns are in cache-line-burst units (64 B per rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DramAddress {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bankgroup: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: u32,
    /// Column (cache-line burst) within the row.
    pub col: u32,
}

crate::codec! { DramAddress { channel, rank, bankgroup, bank, row, col } }

impl DramAddress {
    /// Flat bank index within the rank.
    #[inline]
    pub fn flat_bank(&self, banks_per_group: usize) -> usize {
        self.bankgroup * banks_per_group + self.bank
    }

    /// Rebuild bankgroup/bank fields from a flat bank index.
    #[inline]
    pub fn with_flat_bank(mut self, flat: usize, banks_per_group: usize) -> Self {
        self.bankgroup = flat / banks_per_group;
        self.bank = flat % banks_per_group;
        self
    }

    /// Global rank index across channels (`channel * ranks_per_channel + rank`).
    #[inline]
    pub fn global_rank(&self, ranks_per_channel: usize) -> usize {
        self.channel * ranks_per_channel + self.rank
    }
}

impl std::fmt::Display for DramAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{}/rk{}/bg{}/bk{}/row{}/col{}",
            self.channel, self.rank, self.bankgroup, self.bank, self.row, self.col
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_bank_round_trip() {
        for bg in 0..4 {
            for bk in 0..4 {
                let a = DramAddress {
                    bankgroup: bg,
                    bank: bk,
                    ..Default::default()
                };
                let flat = a.flat_bank(4);
                let b = DramAddress::default().with_flat_bank(flat, 4);
                assert_eq!((b.bankgroup, b.bank), (bg, bk));
            }
        }
    }

    #[test]
    fn global_rank_indexing() {
        let a = DramAddress {
            channel: 1,
            rank: 1,
            ..Default::default()
        };
        assert_eq!(a.global_rank(2), 3);
    }
}
