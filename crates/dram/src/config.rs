//! Memory-system geometry configuration.

use crate::timing::TimingParams;

/// Geometry and speed of the simulated memory system.
///
/// Defaults reproduce Table II of the Chopim paper: DDR4-2400, 8 Gb x8
/// devices, 2 channels x 2 ranks, 4 bank groups x 4 banks, 64 B cache
/// lines striped across 8 chips per rank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel (each rank hosts one NDA partition).
    pub ranks_per_channel: usize,
    /// Bank groups per rank.
    pub bankgroups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Device columns per row (x8 device => one byte per column per chip).
    pub columns: usize,
    /// DRAM chips ganged in a rank.
    pub chips_per_rank: usize,
    /// Data pins per chip.
    pub device_width_bits: usize,
    /// Burst length in beats (BL8).
    pub burst_length: usize,
    /// Timing parameter set.
    pub timing: TimingParams,
}

impl DramConfig {
    /// The paper's Table II configuration: 2 channels x 2 ranks of 8 Gb x8
    /// DDR4-2400 (16 banks/rank, 64 K rows, 1 KB row buffer per chip).
    pub fn table_ii() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 2,
            bankgroups: 4,
            banks_per_group: 4,
            rows: 65536,
            columns: 1024,
            chips_per_rank: 8,
            device_width_bits: 8,
            burst_length: 8,
            timing: TimingParams::ddr4_2400(),
        }
    }

    /// Table II geometry scaled to `ranks` ranks per channel (the paper's
    /// scalability studies use 2x2, 2x4 and 2x8).
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        self.ranks_per_channel = ranks;
        self
    }

    /// Table II geometry scaled to `channels` memory channels (the
    /// wide-machine scenarios run 8; each channel gets its own host MC
    /// and, in the sharded engine, its own simulation shard).
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        self.channels = channels;
        self
    }

    /// Replace the timing parameter set.
    pub fn with_timing(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }

    /// A tiny geometry for fast unit tests (1 channel, 2 ranks, 8 rows).
    pub fn tiny() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 2,
            bankgroups: 2,
            banks_per_group: 2,
            rows: 64,
            columns: 256,
            chips_per_rank: 8,
            device_width_bits: 8,
            burst_length: 8,
            timing: TimingParams::ddr4_2400_no_refresh(),
        }
    }

    /// Banks per rank (bank groups x banks per group).
    #[inline]
    pub fn banks_per_rank(&self) -> usize {
        self.bankgroups * self.banks_per_group
    }

    /// Total ranks in the system.
    #[inline]
    pub fn total_ranks(&self) -> usize {
        self.channels * self.ranks_per_channel
    }

    /// Bytes transferred by one column (cache-line) burst across the rank.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        self.chips_per_rank * self.device_width_bits * self.burst_length / 8
    }

    /// Bytes of one DRAM row across all chips of a rank (the paper's 8 KB).
    #[inline]
    pub fn row_bytes_per_rank(&self) -> usize {
        self.columns * self.chips_per_rank * self.device_width_bits / 8
    }

    /// Cache-line bursts per row per rank (128 for Table II).
    #[inline]
    pub fn lines_per_row(&self) -> usize {
        self.row_bytes_per_rank() / self.line_bytes()
    }

    /// Bytes of one *system row*: one row in every bank of every rank and
    /// channel — the paper's coarse allocation granularity (§III-A).
    #[inline]
    pub fn system_row_bytes(&self) -> u64 {
        self.row_bytes_per_rank() as u64 * self.banks_per_rank() as u64 * self.total_ranks() as u64
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.system_row_bytes() * self.rows as u64
    }

    /// Peak channel data bandwidth in bytes per DRAM cycle (DDR: 2 beats
    /// per cycle x bus width).
    #[inline]
    pub fn channel_bytes_per_cycle(&self) -> f64 {
        (self.chips_per_rank * self.device_width_bits) as f64 * 2.0 / 8.0
    }

    /// A fingerprint of the full configuration (geometry + timing),
    /// embedded in snapshot and trace headers so a capture is never
    /// restored or replayed against a different machine. Computed as
    /// FNV-1a over the `Debug` rendering — stable across runs of the
    /// same build, which is the compatibility level the binary formats
    /// promise (see `docs/SNAPSHOT_FORMAT.md`).
    pub fn state_fingerprint(&self) -> u64 {
        crate::codec::fnv1a(format!("{self:?}").as_bytes())
    }

    /// Validate geometry invariants (powers of two where the address
    /// mapping requires them).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("bankgroups", self.bankgroups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
            ("columns", self.columns),
        ] {
            if !v.is_power_of_two() {
                return Err(format!("{name} ({v}) must be a power of two"));
            }
        }
        if self.line_bytes() != 64 {
            return Err(format!(
                "line size must be 64 B (got {}) — the host cache model assumes it",
                self.line_bytes()
            ));
        }
        self.timing.validate()
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_geometry_matches_paper() {
        let c = DramConfig::table_ii();
        c.validate().unwrap();
        assert_eq!(c.banks_per_rank(), 16);
        assert_eq!(c.line_bytes(), 64);
        // 1 KB row buffer per chip => 8 KB per rank (paper §V: "1KB batch
        // ... same size as DRAM page size per chip").
        assert_eq!(c.row_bytes_per_rank(), 8 * 1024);
        assert_eq!(c.lines_per_row(), 128);
        // 8 Gb x8 chip => 1 GiB/chip, 8 GiB/rank, 32 GiB system.
        assert_eq!(c.capacity_bytes(), 32 * (1 << 30));
        // System row: 8 KB x 16 banks x 4 ranks = 512 KiB.
        assert_eq!(c.system_row_bytes(), 512 * 1024);
    }

    #[test]
    fn scaled_configs_keep_invariants() {
        for ranks in [2, 4, 8] {
            let c = DramConfig::table_ii().with_ranks(ranks);
            c.validate().unwrap();
            assert_eq!(c.total_ranks(), 2 * ranks);
        }
    }

    #[test]
    fn tiny_config_is_valid() {
        DramConfig::tiny().validate().unwrap();
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut c = DramConfig::table_ii();
        c.rows = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn peak_bandwidth_is_ddr() {
        let c = DramConfig::table_ii();
        // 64-bit bus, DDR: 16 B per bus cycle.
        assert_eq!(c.channel_bytes_per_cycle(), 16.0);
    }
}
