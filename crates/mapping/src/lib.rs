//! # chopim-mapping
//!
//! Everything between an OS physical address and a DRAM coordinate:
//!
//! * [`linear`] — invertible GF(2) (XOR-hash) address interleaving, the
//!   class of mapping used by modern server processors (paper Fig. 4a);
//! * [`presets`] — a Skylake-like hashed preset and a naive
//!   row:rank:bank:channel:column baseline;
//! * [`partition`] — the paper's bank-partitioning remap (Fig. 4b): an
//!   MSB-nibble ↔ bank-bit swap that is compatible with huge pages *and*
//!   arbitrary hash interleaving, proven alias-free by construction
//!   (it is an involution on the DRAM coordinate space);
//! * [`color`] — the OS model: coarse *system-row* allocation with page
//!   coloring so that all operands of an NDA instruction interleave across
//!   ranks identically (paper §III-A).
//!
//! ```
//! use chopim_dram::DramConfig;
//! use chopim_mapping::{presets, AddressMapper};
//!
//! let cfg = DramConfig::table_ii();
//! let map = presets::skylake_like(&cfg);
//! let d = map.map_pa(0x4000_0040);
//! assert_eq!(map.unmap(&d), 0x4000_0040 >> 6 << 6);
//! ```

#![forbid(unsafe_code)]

pub mod color;
pub mod linear;
pub mod partition;
pub mod presets;

pub use color::{Color, ColoredAllocator, Region, SystemRow};
pub use linear::LinearMapping;
pub use partition::PartitionedMapping;

/// A byte physical address.
pub type Pa = u64;

/// The interface every host-side address mapping implements: a bijection
/// between cache-line physical addresses and DRAM coordinates.
pub trait AddressMapper {
    /// Map a cache-line-aligned physical address (low 6 bits ignored).
    fn map_pa(&self, pa: Pa) -> chopim_dram::DramAddress;

    /// Inverse mapping back to the (line-aligned) physical address.
    fn unmap(&self, d: &chopim_dram::DramAddress) -> Pa;

    /// Number of cache-line address bits covered by the mapping.
    fn line_bits(&self) -> u32;
}
