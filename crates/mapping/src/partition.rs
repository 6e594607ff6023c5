//! Bank partitioning compatible with huge pages and hashed interleaving
//! (paper §III-C, Fig. 4b).
//!
//! The OS reserves the top `reserved` banks of every rank for data shared
//! with the NDAs and withholds the top `reserved/banks` fraction of the
//! physical address space from host-only use. The memory controller then
//! applies *any* hash mapping and fixes up collisions with a single swap:
//!
//! > if the initially mapped bank is reserved, swap the row MSB-nibble with
//! > the bank bits.
//!
//! We generalize the paper's rule to a total involution on the DRAM
//! coordinate space (swap whenever *either* the mapped bank *or* the row
//! MSB nibble is reserved), which simultaneously:
//!
//! * redirects host-only addresses out of reserved banks (never aliasing,
//!   because host MSBs are never a reserved-bank pattern), and
//! * lands every shared-region address (MSB nibble reserved) *in* a
//!   reserved bank.
//!
//! Because the fix-up is an involution over (bank-id, row-MSB-nibble), it
//! is trivially bijective — property-tested below.

use chopim_dram::{DramAddress, DramConfig};

use crate::linear::LinearMapping;
use crate::{AddressMapper, Pa};

/// A hash mapping wrapped with the Fig.-4b bank-partition remap.
#[derive(Debug, Clone)]
pub struct PartitionedMapping {
    inner: LinearMapping,
    /// Banks per rank reserved for the shared/NDA region (taken from the
    /// top of the flat bank-id space). Zero disables partitioning.
    reserved: usize,
    banks_per_rank: usize,
    banks_per_group: usize,
    bank_bits: u32,
    row_bits: u32,
    line_bits: u32,
}

impl PartitionedMapping {
    /// Wrap `inner`, reserving `reserved` banks per rank (the paper's
    /// evaluation reserves one).
    ///
    /// # Panics
    ///
    /// Panics if `reserved >= banks_per_rank` — at least one host bank must
    /// remain.
    pub fn new(config: &DramConfig, inner: LinearMapping, reserved: usize) -> Self {
        let banks_per_rank = config.banks_per_rank();
        assert!(reserved < banks_per_rank, "must leave host banks");
        Self {
            reserved,
            banks_per_rank,
            banks_per_group: config.banks_per_group,
            bank_bits: inner.bank_bits,
            row_bits: inner.row_bits,
            line_bits: {
                use crate::AddressMapper as _;
                inner.line_bits()
            },
            inner,
        }
    }

    /// First reserved flat bank id (== number of host banks per rank).
    #[inline]
    pub fn first_reserved(&self) -> usize {
        self.banks_per_rank - self.reserved
    }

    /// Banks per rank reserved for the shared region.
    #[inline]
    pub fn reserved_banks(&self) -> usize {
        self.reserved
    }

    /// Bytes of physical address space usable by host-only allocations.
    pub fn host_capacity_bytes(&self) -> u64 {
        let total = 1u64 << (self.line_bits + 6);
        total / self.banks_per_rank as u64 * self.first_reserved() as u64
    }

    /// First physical address of the shared (NDA-visible) region.
    pub fn shared_base(&self) -> Pa {
        self.host_capacity_bytes()
    }

    /// The involutive fix-up on a mapped coordinate.
    fn fixup(&self, mut d: DramAddress) -> DramAddress {
        if self.reserved == 0 {
            return d;
        }
        let first = self.first_reserved() as u32;
        let shift = self.row_bits - self.bank_bits;
        let nibble = d.row >> shift;
        let bank = d.flat_bank(self.banks_per_group) as u32;
        if bank >= first || nibble >= first {
            let low_row = d.row & ((1 << shift) - 1);
            d.row = (bank << shift) | low_row;
            d = d.with_flat_bank(nibble as usize, self.banks_per_group);
        }
        d
    }

    /// The underlying hash mapping (pre-fix-up), for tests and analysis.
    pub fn inner(&self) -> &LinearMapping {
        &self.inner
    }
}

impl AddressMapper for PartitionedMapping {
    fn map_pa(&self, pa: Pa) -> DramAddress {
        self.fixup(self.inner.map_pa(pa))
    }

    fn unmap(&self, d: &DramAddress) -> Pa {
        // The fix-up is an involution: applying it again undoes it.
        self.inner.unmap(&self.fixup(*d))
    }

    fn line_bits(&self) -> u32 {
        self.line_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    fn mk(reserved: usize) -> (DramConfig, PartitionedMapping) {
        let cfg = DramConfig::table_ii();
        let m = PartitionedMapping::new(&cfg, presets::skylake_like(&cfg), reserved);
        (cfg, m)
    }

    #[test]
    fn host_region_never_touches_reserved_banks() {
        let (cfg, m) = mk(1);
        let host_lines = m.host_capacity_bytes() >> 6;
        let first = m.first_reserved();
        let mut rng_lines = (0..host_lines).step_by(104729);
        assert!(rng_lines.by_ref().take(1).next().is_some());
        for line in (0..host_lines).step_by(104729) {
            let d = m.map_pa(line << 6);
            assert!(
                d.flat_bank(cfg.banks_per_group) < first,
                "host pa mapped into reserved bank: {d}"
            );
        }
    }

    #[test]
    fn shared_region_maps_only_to_reserved_banks() {
        let (cfg, m) = mk(2);
        let first = m.first_reserved();
        let total = 1u64 << (m.line_bits() + 6);
        for pa in (m.shared_base()..total).step_by(1 << 17) {
            let d = m.map_pa(pa);
            assert!(
                d.flat_bank(cfg.banks_per_group) >= first,
                "shared pa {pa:#x} landed in host bank: {d}"
            );
        }
    }

    #[test]
    fn one_reserved_bank_matches_paper_methodology() {
        let (_, m) = mk(1);
        assert_eq!(m.first_reserved(), 15);
        // 15/16 of 32 GiB for the host.
        assert_eq!(m.host_capacity_bytes(), 30 * (1u64 << 30));
    }

    #[test]
    fn zero_reserved_is_identity() {
        let (_, m) = mk(0);
        for pa in (0..(1u64 << 30)).step_by(999331) {
            assert_eq!(m.map_pa(pa), m.inner().map_pa(pa));
        }
    }

    #[test]
    #[should_panic(expected = "host banks")]
    fn reserving_all_banks_panics() {
        let _ = mk(16);
    }

    proptest! {
        /// The partitioned mapping stays a bijection: unmap(map(pa)) == pa.
        #[test]
        fn prop_round_trip(pa in 0u64..(1u64 << 35), reserved in 0usize..4) {
            let cfg = DramConfig::table_ii();
            let m = PartitionedMapping::new(&cfg, presets::skylake_like(&cfg), reserved);
            let pa = pa & !63;
            let d = m.map_pa(pa);
            prop_assert_eq!(m.unmap(&d), pa);
        }

        /// Over the table oracle's geometries and 0-3 reserved banks, the
        /// partitioned map is the fix-up of the bit-serial reference map
        /// and stays a bijection.
        #[test]
        fn prop_matches_reference_and_round_trips(
            pa in any::<u64>(),
            channels in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
            ranks in prop::sample::select(vec![1usize, 2, 4, 8]),
            skylake in any::<bool>(),
        ) {
            let cfg = DramConfig::table_ii().with_channels(channels).with_ranks(ranks);
            let inner = if skylake { presets::skylake_like(&cfg) } else { presets::naive(&cfg) };
            for reserved in 0..=3 {
                let m = PartitionedMapping::new(&cfg, inner.clone(), reserved);
                let line = (pa >> 6) & ((1 << m.line_bits()) - 1);
                let d = m.map_pa(line << 6);
                prop_assert_eq!(d, m.fixup(m.inner().map_line_reference(line)));
                prop_assert_eq!(m.unmap(&d), line << 6);
            }
        }

        /// No two distinct lines collide (spot check via random pairs).
        #[test]
        fn prop_no_alias(a in 0u64..(1u64 << 29), b in 0u64..(1u64 << 29)) {
            prop_assume!(a != b);
            let cfg = DramConfig::table_ii();
            let m = PartitionedMapping::new(&cfg, presets::skylake_like(&cfg), 1);
            prop_assert_ne!(m.map_pa(a << 6), m.map_pa(b << 6));
        }

        /// The fix-up is an involution on coordinates.
        #[test]
        fn prop_fixup_involution(line in 0u64..(1u64 << 29)) {
            let cfg = DramConfig::table_ii();
            let m = PartitionedMapping::new(&cfg, presets::skylake_like(&cfg), 2);
            let d = m.inner().map_line(line);
            let once = m.fixup(d);
            let twice = m.fixup(once);
            prop_assert_eq!(d, twice);
        }
    }
}
