//! DDR4 timing parameters (all in DRAM bus-clock cycles).
//!
//! The defaults reproduce Table II of the Chopim paper exactly; refresh
//! parameters (not listed in the table) use standard JEDEC values for an
//! 8 Gb DDR4-2400 device and are documented in `DESIGN.md`.

/// DDR4 timing parameters, in bus-clock cycles.
///
/// Field names follow JEDEC/Ramulator conventions with the leading `t`
/// dropped (`rcd` is tRCD). The Chopim values come from Table II of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Burst length on the data bus, in cycles (BL8 on a DDR bus = 4).
    pub bl: u32,
    /// Column-to-column delay, different bank group (tCCD_S).
    pub ccds: u32,
    /// Column-to-column delay, same bank group (tCCD_L).
    pub ccdl: u32,
    /// Rank-to-rank data-bus switch penalty (tRTRS).
    pub rtrs: u32,
    /// CAS (read) latency (tCL).
    pub cl: u32,
    /// RAS-to-CAS delay (tRCD).
    pub rcd: u32,
    /// Row precharge time (tRP).
    pub rp: u32,
    /// CAS write latency (tCWL).
    pub cwl: u32,
    /// Row active time (tRAS).
    pub ras: u32,
    /// Row cycle time (tRC).
    pub rc: u32,
    /// Read-to-precharge delay (tRTP).
    pub rtp: u32,
    /// Write-to-read turnaround, different bank group (tWTR_S).
    pub wtrs: u32,
    /// Write-to-read turnaround, same bank group (tWTR_L).
    pub wtrl: u32,
    /// Write recovery time (tWR).
    pub wr: u32,
    /// Activate-to-activate, different bank group (tRRD_S).
    pub rrds: u32,
    /// Activate-to-activate, same bank group (tRRD_L).
    pub rrdl: u32,
    /// Four-activate window (tFAW).
    pub faw: u32,
    /// Average refresh interval (tREFI). `0` disables refresh.
    pub refi: u32,
    /// Refresh cycle time (tRFC).
    pub rfc: u32,
}

impl TimingParams {
    /// The exact DDR4 timing set of the Chopim paper, Table II
    /// (DDR4-2400, 1.2 GHz bus clock), plus standard 8 Gb refresh timing.
    pub fn ddr4_2400() -> Self {
        Self {
            bl: 4,
            ccds: 4,
            ccdl: 6,
            rtrs: 2,
            cl: 16,
            rcd: 16,
            rp: 16,
            cwl: 12,
            ras: 39,
            rc: 55,
            rtp: 9,
            wtrs: 3,
            wtrl: 9,
            wr: 18,
            rrds: 4,
            rrdl: 6,
            faw: 26,
            // Not in Table II: tREFI = 7.8 us, tRFC(8 Gb) = 350 ns.
            refi: 9360,
            rfc: 420,
        }
    }

    /// Same timing with refresh disabled — useful for microbenchmarks that
    /// want deterministic idle-gap structure.
    pub fn ddr4_2400_no_refresh() -> Self {
        Self {
            refi: 0,
            ..Self::ddr4_2400()
        }
    }

    /// Delay from a read command to the earliest write command on the same
    /// channel (bus turnaround; covers all ranks).
    #[inline]
    pub fn read_to_write(&self) -> u32 {
        self.cl + self.bl + self.rtrs - self.cwl
    }

    /// Delay from a write command to the earliest read command in the same
    /// rank. `same_bankgroup` selects tWTR_L over tWTR_S.
    #[inline]
    pub fn write_to_read_same_rank(&self, same_bankgroup: bool) -> u32 {
        self.cwl + self.bl + if same_bankgroup { self.wtrl } else { self.wtrs }
    }

    /// Delay from a write command to the earliest read command in a
    /// *different* rank (bus hand-off only; no internal WTR needed).
    #[inline]
    pub fn write_to_read_diff_rank(&self) -> u32 {
        (self.cwl + self.bl + self.rtrs).saturating_sub(self.cl)
    }

    /// Delay from a column command to the earliest same-type column command
    /// in a *different* rank (data-bus occupancy plus tRTRS).
    #[inline]
    pub fn col_to_col_diff_rank(&self) -> u32 {
        self.bl + self.rtrs
    }

    /// Earliest precharge after a write command (same bank).
    #[inline]
    pub fn write_to_pre(&self) -> u32 {
        self.cwl + self.bl + self.wr
    }

    /// Sanity-check internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// relationship (e.g. `tRC < tRAS + tRP`).
    pub fn validate(&self) -> Result<(), String> {
        if self.rc < self.ras + self.rp {
            return Err(format!(
                "tRC ({}) must cover tRAS ({}) + tRP ({})",
                self.rc, self.ras, self.rp
            ));
        }
        if self.ccdl < self.ccds {
            return Err("tCCD_L must be >= tCCD_S".to_string());
        }
        if self.rrdl < self.rrds {
            return Err("tRRD_L must be >= tRRD_S".to_string());
        }
        if self.wtrl < self.wtrs {
            return Err("tWTR_L must be >= tWTR_S".to_string());
        }
        if self.bl == 0 || self.cl == 0 || self.cwl == 0 {
            return Err("bl/cl/cwl must be nonzero".to_string());
        }
        if self.faw < self.rrds {
            return Err("tFAW must be >= tRRD_S".to_string());
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values_are_consistent() {
        TimingParams::ddr4_2400().validate().unwrap();
    }

    #[test]
    fn turnaround_formulas_match_paper_intuition() {
        let t = TimingParams::ddr4_2400();
        // Write-to-read is the expensive direction (paper §II): the write
        // happens at the end of the transaction, so WR->RD in the same rank
        // must exceed RD->WR on the bus.
        assert!(t.write_to_read_same_rank(true) > t.read_to_write());
        assert!(t.write_to_read_same_rank(false) > t.read_to_write());
        // Cross-rank write-to-read only pays bus hand-off.
        assert!(t.write_to_read_diff_rank() < t.write_to_read_same_rank(false));
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut t = TimingParams::ddr4_2400();
        t.rc = 10;
        assert!(t.validate().is_err());
        let mut t = TimingParams::ddr4_2400();
        t.ccdl = 1;
        assert!(t.validate().is_err());
        let mut t = TimingParams::ddr4_2400();
        t.wtrl = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn no_refresh_preset_disables_refi_only() {
        let a = TimingParams::ddr4_2400();
        let b = TimingParams::ddr4_2400_no_refresh();
        assert_eq!(b.refi, 0);
        assert_eq!(a.cl, b.cl);
        assert_eq!(a.rfc, b.rfc);
    }
}
