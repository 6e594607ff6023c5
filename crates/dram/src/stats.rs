//! Activity statistics: per-rank command/energy event counts, data-bus
//! occupancy split by issuer, bus-turnaround counts, and the rank idle-gap
//! histogram that reproduces Fig. 2 of the paper.

use crate::command::Issuer;
use crate::Cycle;

/// Idle-gap length buckets, matching Fig. 2 of the paper
/// ("Rank idle-time breakdown vs. idleness granularity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IdleBucket {
    /// Rank busy with host activity.
    Busy,
    /// Idle gaps of 1–10 cycles.
    G1to10,
    /// Idle gaps of 10–100 cycles.
    G10to100,
    /// Idle gaps of 100–250 cycles.
    G100to250,
    /// Idle gaps of 250–500 cycles.
    G250to500,
    /// Idle gaps of 500–1000 cycles.
    G500to1000,
    /// Idle gaps longer than 1000 cycles.
    G1000plus,
}

impl IdleBucket {
    /// All buckets in display order (busy first, like the paper's legend).
    pub const ALL: [IdleBucket; 7] = [
        IdleBucket::Busy,
        IdleBucket::G1to10,
        IdleBucket::G10to100,
        IdleBucket::G100to250,
        IdleBucket::G250to500,
        IdleBucket::G500to1000,
        IdleBucket::G1000plus,
    ];

    /// Bucket for an idle gap of `gap` cycles.
    pub fn of_gap(gap: Cycle) -> Self {
        match gap {
            0 => IdleBucket::Busy,
            1..=10 => IdleBucket::G1to10,
            11..=100 => IdleBucket::G10to100,
            101..=250 => IdleBucket::G100to250,
            251..=500 => IdleBucket::G250to500,
            501..=1000 => IdleBucket::G500to1000,
            _ => IdleBucket::G1000plus,
        }
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            IdleBucket::Busy => "Busy",
            IdleBucket::G1to10 => "1-10",
            IdleBucket::G10to100 => "10-100",
            IdleBucket::G100to250 => "100-250",
            IdleBucket::G250to500 => "250-500",
            IdleBucket::G500to1000 => "500-1000",
            IdleBucket::G1000plus => "1000-",
        }
    }
}

/// Histogram of rank idle time, bucketed by the length of the idle gap the
/// cycles belong to (Fig. 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdleHistogram {
    cycles: [u64; 7],
}

impl IdleHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account an idle gap of `gap` cycles (all cycles land in the gap's
    /// length bucket, as in the paper).
    pub fn record_gap(&mut self, gap: Cycle) {
        if gap == 0 {
            return;
        }
        let idx = Self::index(IdleBucket::of_gap(gap));
        self.cycles[idx] += gap;
    }

    /// Account `n` busy cycles.
    pub fn record_busy(&mut self, n: Cycle) {
        self.cycles[Self::index(IdleBucket::Busy)] += n;
    }

    fn index(b: IdleBucket) -> usize {
        IdleBucket::ALL
            .iter()
            .position(|x| *x == b)
            .expect("bucket in ALL")
    }

    /// Raw cycle count in `bucket`.
    pub fn cycles_in(&self, bucket: IdleBucket) -> u64 {
        self.cycles[Self::index(bucket)]
    }

    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of cycles per bucket, in [`IdleBucket::ALL`] order.
    /// Returns zeros when nothing was recorded.
    pub fn fractions(&self) -> [f64; 7] {
        let total = self.total();
        let mut out = [0.0; 7];
        if total == 0 {
            return out;
        }
        for (i, c) in self.cycles.iter().enumerate() {
            out[i] = *c as f64 / total as f64;
        }
        out
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &IdleHistogram) {
        for i in 0..7 {
            self.cycles[i] += other.cycles[i];
        }
    }
}

crate::codec! { IdleHistogram { cycles } }

/// Per-rank counters: command/event counts by issuer and data-bus
/// occupancy, plus host-activity tracking for the idle histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// ACT commands issued by the host.
    pub acts_host: u64,
    /// ACT commands issued by the NDA controller.
    pub acts_nda: u64,
    /// Read bursts by the host.
    pub reads_host: u64,
    /// Read bursts by the NDA.
    pub reads_nda: u64,
    /// Write bursts by the host.
    pub writes_host: u64,
    /// Write bursts by the NDA.
    pub writes_nda: u64,
    /// All-bank refreshes.
    pub refreshes: u64,
    /// Data-bus cycles carrying host data for this rank.
    pub host_data_cycles: u64,
    /// Data-bus cycles carrying NDA-local data for this rank.
    pub nda_data_cycles: u64,
    /// Idle-gap histogram over *host* activity (Fig. 2 definition).
    pub idle: IdleHistogram,
    /// Read<->write direction changes on this rank's I/O.
    pub turnarounds: u64,
    host_busy_until: Cycle,
    any_activity: bool,
    last_col_was_write: Option<bool>,
}

impl RankStats {
    /// Mark host activity on this rank over `[from, to)`, folding the
    /// preceding idle gap into the histogram.
    pub fn mark_host_activity(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(to >= from);
        if !self.any_activity {
            // Ignore the cold-start gap before the first access.
            self.any_activity = true;
            self.host_busy_until = from;
        }
        if from > self.host_busy_until {
            self.idle.record_gap(from - self.host_busy_until);
            self.idle.record_busy(to - from);
            self.host_busy_until = to;
        } else if to > self.host_busy_until {
            self.idle.record_busy(to - self.host_busy_until);
            self.host_busy_until = to;
        }
    }

    /// Close the histogram at simulation end `end`, accounting the final
    /// trailing gap.
    pub fn finalize(&mut self, end: Cycle) {
        if self.any_activity && end > self.host_busy_until {
            self.idle.record_gap(end - self.host_busy_until);
            self.host_busy_until = end;
        }
    }
}

// Includes the private activity tracking behind the idle histogram.
crate::codec! {
    RankStats {
        acts_host,
        acts_nda,
        reads_host,
        reads_nda,
        writes_host,
        writes_nda,
        refreshes,
        host_data_cycles,
        nda_data_cycles,
        idle,
        turnarounds,
        host_busy_until,
        any_activity,
        last_col_was_write: tri,
    }
}

/// Per-channel statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// One entry per rank in the channel.
    pub ranks: Vec<RankStats>,
    /// Host column commands total (reads + writes).
    pub host_cols: u64,
    /// NDA column commands total.
    pub nda_cols: u64,
    /// Injected bit-flips the ECC model corrected on this channel.
    pub ecc_corrected: u64,
    /// Injected bit-flips the ECC model detected but could not correct.
    pub ecc_uncorrectable: u64,
}

impl ChannelStats {
    /// Stats for a channel with `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks: (0..ranks).map(|_| RankStats::default()).collect(),
            host_cols: 0,
            nda_cols: 0,
            ecc_corrected: 0,
            ecc_uncorrectable: 0,
        }
    }

    pub(crate) fn record_act(&mut self, rank: usize, issuer: Issuer, now: Cycle) {
        match issuer {
            Issuer::Host => {
                self.ranks[rank].acts_host += 1;
                self.ranks[rank].mark_host_activity(now, now + 1);
            }
            Issuer::Nda => self.ranks[rank].acts_nda += 1,
        }
    }

    pub(crate) fn record_row_cmd(&mut self, rank: usize, issuer: Issuer, now: Cycle) {
        if issuer == Issuer::Host {
            self.ranks[rank].mark_host_activity(now, now + 1);
        }
    }

    pub(crate) fn record_col(
        &mut self,
        rank: usize,
        issuer: Issuer,
        is_write: bool,
        data_start: Cycle,
        data_end: Cycle,
        now: Cycle,
    ) {
        let burst = data_end - data_start;
        let r = &mut self.ranks[rank];
        match (issuer, is_write) {
            (Issuer::Host, false) => {
                r.reads_host += 1;
                r.host_data_cycles += burst;
                self.host_cols += 1;
            }
            (Issuer::Host, true) => {
                r.writes_host += 1;
                r.host_data_cycles += burst;
                self.host_cols += 1;
            }
            (Issuer::Nda, false) => {
                r.reads_nda += 1;
                r.nda_data_cycles += burst;
                self.nda_cols += 1;
            }
            (Issuer::Nda, true) => {
                r.writes_nda += 1;
                r.nda_data_cycles += burst;
                self.nda_cols += 1;
            }
        }
        if issuer == Issuer::Host {
            r.mark_host_activity(now, now + 1);
            r.mark_host_activity(data_start, data_end);
        }
        let r = &mut self.ranks[rank];
        if let Some(last) = r.last_col_was_write {
            if last != is_write {
                r.turnarounds += 1;
            }
        }
        r.last_col_was_write = Some(is_write);
    }

    pub(crate) fn record_refresh(&mut self, rank: usize, now: Cycle, done: Cycle) {
        self.ranks[rank].refreshes += 1;
        // Refresh counts as host activity (host MC schedules it).
        self.ranks[rank].mark_host_activity(now, done);
    }

    /// Rank-I/O turnarounds summed over this channel's ranks.
    pub fn turnarounds(&self) -> u64 {
        self.ranks.iter().map(|r| r.turnarounds).sum()
    }

    /// Close all rank histograms at `end`.
    pub fn finalize(&mut self, end: Cycle) {
        for r in &mut self.ranks {
            r.finalize(end);
        }
    }
}

crate::codec! {
    ChannelStats {
        ranks,
        host_cols,
        nda_cols,
        ecc_corrected,
        ecc_uncorrectable,
    }
}

/// System-wide statistics view, aggregated over channels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Total host read bursts.
    pub reads_host: u64,
    /// Total host write bursts.
    pub writes_host: u64,
    /// Total NDA read bursts.
    pub reads_nda: u64,
    /// Total NDA write bursts.
    pub writes_nda: u64,
    /// Total ACTs (host + NDA).
    pub acts: u64,
    /// Total ACTs issued by NDA controllers.
    pub acts_nda: u64,
    /// Total refreshes.
    pub refreshes: u64,
    /// Data-bus cycles carrying host data, summed over ranks.
    pub host_data_cycles: u64,
    /// Data-bus cycles carrying NDA data, summed over ranks.
    pub nda_data_cycles: u64,
    /// Rank I/O direction turnarounds, summed over ranks.
    pub turnarounds: u64,
    /// Injected bit-flips the ECC model corrected, summed over channels.
    pub ecc_corrected: u64,
    /// Injected bit-flips detected as uncorrectable, summed over channels.
    pub ecc_uncorrectable: u64,
}

impl DramStats {
    /// Fold one channel's statistics into this aggregate. The engine's
    /// system view and trace replay both build their totals through this,
    /// so the two always aggregate identically.
    pub fn add_channel(&mut self, ch: &ChannelStats) {
        self.turnarounds += ch.turnarounds();
        self.ecc_corrected += ch.ecc_corrected;
        self.ecc_uncorrectable += ch.ecc_uncorrectable;
        for r in &ch.ranks {
            self.reads_host += r.reads_host;
            self.writes_host += r.writes_host;
            self.reads_nda += r.reads_nda;
            self.writes_nda += r.writes_nda;
            self.acts += r.acts_host + r.acts_nda;
            self.acts_nda += r.acts_nda;
            self.refreshes += r.refreshes;
            self.host_data_cycles += r.host_data_cycles;
            self.nda_data_cycles += r.nda_data_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_match_figure_legend() {
        assert_eq!(IdleBucket::of_gap(1), IdleBucket::G1to10);
        assert_eq!(IdleBucket::of_gap(10), IdleBucket::G1to10);
        assert_eq!(IdleBucket::of_gap(11), IdleBucket::G10to100);
        assert_eq!(IdleBucket::of_gap(100), IdleBucket::G10to100);
        assert_eq!(IdleBucket::of_gap(250), IdleBucket::G100to250);
        assert_eq!(IdleBucket::of_gap(500), IdleBucket::G250to500);
        assert_eq!(IdleBucket::of_gap(1000), IdleBucket::G500to1000);
        assert_eq!(IdleBucket::of_gap(1001), IdleBucket::G1000plus);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let mut h = IdleHistogram::new();
        h.record_busy(50);
        h.record_gap(30);
        h.record_gap(200);
        let f = h.fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.total(), 280);
        assert_eq!(h.cycles_in(IdleBucket::G10to100), 30);
        assert_eq!(h.cycles_in(IdleBucket::G100to250), 200);
    }

    #[test]
    fn rank_activity_gap_tracking() {
        let mut r = RankStats::default();
        r.mark_host_activity(100, 101); // first access: no cold-start gap
        r.mark_host_activity(101, 105); // contiguous: busy
        r.mark_host_activity(205, 206); // 100-cycle gap
        r.finalize(1000);
        assert_eq!(r.idle.cycles_in(IdleBucket::Busy), 6);
        assert_eq!(r.idle.cycles_in(IdleBucket::G10to100), 100);
        assert_eq!(r.idle.cycles_in(IdleBucket::G500to1000), 794);
    }

    #[test]
    fn overlapping_activity_does_not_double_count() {
        let mut r = RankStats::default();
        r.mark_host_activity(10, 20);
        r.mark_host_activity(15, 25); // overlaps 5
        assert_eq!(r.idle.cycles_in(IdleBucket::Busy), 15);
    }

    #[test]
    fn turnaround_counting_is_per_rank() {
        let mut s = ChannelStats::new(2);
        s.record_col(0, Issuer::Host, false, 10, 14, 0);
        s.record_col(0, Issuer::Host, false, 14, 18, 4);
        assert_eq!(s.turnarounds(), 0);
        // A write in the *other* rank is not a turnaround on rank 0's I/O.
        s.record_col(1, Issuer::Nda, true, 20, 24, 8);
        assert_eq!(s.turnarounds(), 0);
        // But an NDA write on rank 0 after host reads is.
        s.record_col(0, Issuer::Nda, true, 30, 34, 14);
        assert_eq!(s.turnarounds(), 1);
        s.record_col(0, Issuer::Host, false, 40, 44, 20);
        assert_eq!(s.turnarounds(), 2);
    }

    #[test]
    fn stats_aggregate_over_channels() {
        use crate::{Channel, Command, DramConfig};
        let cfg = DramConfig::table_ii();
        let (mut c0, mut c1) = (Channel::new(&cfg), Channel::new(&cfg));
        c0.issue(&Command::act(0, 0, 0, 1), Issuer::Host, 0)
            .unwrap();
        c1.issue(&Command::act(0, 0, 0, 1), Issuer::Nda, 0).unwrap();
        let rcd = u64::from(cfg.timing.rcd);
        c0.issue(&Command::rd(0, 0, 0, 1, 0), Issuer::Host, rcd)
            .unwrap();
        c1.issue(&Command::wr(0, 0, 0, 1, 0), Issuer::Nda, rcd)
            .unwrap();
        let mut s = DramStats::default();
        s.add_channel(&c0.stats);
        s.add_channel(&c1.stats);
        assert_eq!(s.acts, 2);
        assert_eq!(s.acts_nda, 1);
        assert_eq!(s.reads_host, 1);
        assert_eq!(s.writes_nda, 1);
        assert_eq!(s.host_data_cycles, 4);
        assert_eq!(s.nda_data_cycles, 4);
    }
}
