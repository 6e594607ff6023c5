//! The Table-II energy/power model.
//!
//! The paper consumes CACTI-6.5/3DD/IO outputs as per-event constants; we
//! use those published constants directly (see `DESIGN.md` substitutions):
//! activate 1.0 nJ, PE read/write 11.3 pJ/b, host read/write 25.7 pJ/b,
//! PE FMA 20 pJ, PE buffer 20 pJ/access dynamic + 11 mW leakage (scratchpad
//! identical).

use chopim_dram::{Cycle, DramStats};

/// Per-event energy constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per row activation (J).
    pub act_j: f64,
    /// NDA-side DRAM access energy per bit (J).
    pub pe_bit_j: f64,
    /// Host-side DRAM access energy per bit (J).
    pub host_bit_j: f64,
    /// Energy per FMA (J).
    pub fma_j: f64,
    /// PE buffer/scratchpad dynamic energy per 8-byte access (J).
    pub buffer_access_j: f64,
    /// PE buffer leakage power (W) — scratchpad assumed identical.
    pub buffer_leak_w: f64,
    /// DRAM bus clock (Hz), to convert cycles to seconds.
    pub clock_hz: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            act_j: 1.0e-9,
            pe_bit_j: 11.3e-12,
            host_bit_j: 25.7e-12,
            fma_j: 20.0e-12,
            buffer_access_j: 20.0e-12,
            buffer_leak_w: 11.0e-3,
            clock_hz: 1.2e9,
        }
    }
}

/// Aggregated PE compute activity (summed over all PEs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeActivity {
    /// Total FMAs executed.
    pub fmas: u64,
    /// Total 8-byte buffer accesses.
    pub buffer_accesses: u64,
    /// Total 8-byte scratchpad accesses.
    pub scratch_accesses: u64,
}

chopim_dram::codec! { PeActivity { fmas, buffer_accesses, scratch_accesses } }

/// An energy/power breakdown for one simulation window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Row-activation energy (J).
    pub act_j: f64,
    /// Host data-transfer energy (J).
    pub host_access_j: f64,
    /// NDA data-transfer energy (J).
    pub nda_access_j: f64,
    /// PE compute (FMA) energy (J).
    pub pe_compute_j: f64,
    /// PE buffer + scratchpad dynamic energy (J).
    pub buffer_j: f64,
    /// PE buffer + scratchpad leakage energy (J).
    pub leakage_j: f64,
    /// Wall-clock seconds of the window.
    pub seconds: f64,
}

impl EnergyReport {
    /// Total energy (J).
    pub fn total_j(&self) -> f64 {
        self.act_j
            + self.host_access_j
            + self.nda_access_j
            + self.pe_compute_j
            + self.buffer_j
            + self.leakage_j
    }

    /// Average power over the window (W).
    pub fn avg_power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.total_j() / self.seconds
        }
    }

    /// Average power of the NDA-attributed components only (W).
    pub fn nda_power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            (self.nda_access_j + self.pe_compute_j + self.buffer_j + self.leakage_j) / self.seconds
        }
    }
}

/// Compute the energy report for a window of `cycles` DRAM cycles.
///
/// `line_bytes` is the burst size (64 B); `n_pes` the number of PEs in the
/// system (chips × total ranks) for leakage.
pub fn compute(
    params: &EnergyParams,
    dram: &DramStats,
    pe: &PeActivity,
    cycles: Cycle,
    line_bytes: usize,
    n_pes: usize,
) -> EnergyReport {
    let bits_per_burst = (line_bytes * 8) as f64;
    let seconds = cycles as f64 / params.clock_hz;
    EnergyReport {
        act_j: dram.acts as f64 * params.act_j,
        host_access_j: (dram.reads_host + dram.writes_host) as f64
            * bits_per_burst
            * params.host_bit_j,
        nda_access_j: (dram.reads_nda + dram.writes_nda) as f64 * bits_per_burst * params.pe_bit_j,
        pe_compute_j: pe.fmas as f64 * params.fma_j,
        buffer_j: (pe.buffer_accesses + pe.scratch_accesses) as f64 * params.buffer_access_j,
        // Buffer + scratchpad leakage, per PE.
        leakage_j: 2.0 * params.buffer_leak_w * n_pes as f64 * seconds,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_bits_cost_more_than_nda_bits() {
        let p = EnergyParams::default();
        assert!(
            p.host_bit_j > p.pe_bit_j,
            "NDA proximity must save transfer energy"
        );
    }

    #[test]
    fn report_adds_up() {
        let p = EnergyParams::default();
        let dram = DramStats {
            acts: 1000,
            reads_host: 5000,
            writes_host: 1000,
            reads_nda: 8000,
            writes_nda: 2000,
            ..Default::default()
        };
        let pe = PeActivity {
            fmas: 100_000,
            buffer_accesses: 50_000,
            scratch_accesses: 100,
        };
        let r = compute(&p, &dram, &pe, 1_200_000, 64, 32);
        assert!((r.seconds - 1e-3).abs() < 1e-12);
        let explicit =
            r.act_j + r.host_access_j + r.nda_access_j + r.pe_compute_j + r.buffer_j + r.leakage_j;
        assert!((r.total_j() - explicit).abs() < 1e-18);
        assert!(r.avg_power_w() > 0.0);
        assert!(r.nda_power_w() < r.avg_power_w());
    }

    #[test]
    fn host_only_window_has_zero_nda_dynamic_energy() {
        let p = EnergyParams::default();
        let dram = DramStats {
            acts: 10,
            reads_host: 100,
            ..Default::default()
        };
        let r = compute(&p, &dram, &PeActivity::default(), 1_200, 64, 32);
        assert_eq!(r.nda_access_j, 0.0);
        assert_eq!(r.pe_compute_j, 0.0);
        assert!(r.leakage_j > 0.0, "leakage accrues regardless");
    }

    #[test]
    fn idle_memory_max_power_sanity() {
        // Fully-busy host channel: 2 channels x 16 B/cycle at 25.7 pJ/b
        // plus activations lands in the paper's single-digit-watt range.
        let p = EnergyParams::default();
        let cycles: u64 = 1_200_000; // 1 ms
        let bursts = cycles / 4 * 2; // both channels saturated
        let dram = DramStats {
            acts: (bursts / 64).max(1),
            reads_host: bursts,
            ..Default::default()
        };
        let r = compute(&p, &dram, &PeActivity::default(), cycles, 64, 32);
        let w = r.avg_power_w();
        assert!(
            (1.0..20.0).contains(&w),
            "host-max power {w} W out of plausible range"
        );
    }
}
