//! The out-of-order core model.
//!
//! A classic ROB-window abstraction: instructions dispatch in order into a
//! reorder buffer at `issue_width` per cycle, LLC misses occupy an entry
//! (and an MSHR) until their fill returns, and retirement is in-order at
//! `retire_width`. Memory-level parallelism, bandwidth/latency sensitivity,
//! and the bursty rank-idle structure of Fig. 2 all emerge from the window
//! mechanics — which is what the Chopim mechanisms interact with.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::WorkloadProfile;

/// Core microarchitecture parameters (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Dispatch width (instructions per CPU cycle).
    pub issue_width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Outstanding LLC misses per core (L1/L2 MSHRs).
    pub mshrs: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        // 4 GHz OoO x86: Fetch/Issue 8, ROB 224, 12 MSHRs (Table II).
        Self {
            rob_entries: 224,
            issue_width: 8,
            retire_width: 8,
            mshrs: 12,
        }
    }
}

/// A memory request leaving the core: a cache-line index *within the
/// core's footprint* (the system maps it to a physical address), plus a
/// unique id for read fills. Writes are posted writebacks and receive no
/// fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Line index within the core's working set.
    pub line: u64,
    /// True for a dirty writeback.
    pub is_write: bool,
    /// Core-unique request id (reads only need it).
    pub id: u64,
}

#[derive(Debug, Clone, Copy)]
enum RobSlot {
    /// A batch of non-memory instructions.
    Insts(u32),
    /// An LLC miss waiting for its fill.
    Miss { id: u64 },
}

/// One out-of-order core running a synthetic workload profile.
#[derive(Debug, Clone)]
pub struct OooCore {
    cfg: CoreConfig,
    profile: WorkloadProfile,
    rng: StdRng,
    rob: VecDeque<RobSlot>,
    rob_occupancy: usize,
    /// Returned fills not yet retired. Bounded by the MSHR count (~12),
    /// so a flat vector beats hashing on the per-cycle retire path.
    filled: Vec<u64>,
    outstanding: usize,
    next_id: u64,
    until_next_miss: u64,
    stream_pos: u64,
    stream_left: u64,
    pending_wb: Option<MemRequest>,
    retired: u64,
    cycles: u64,
    reads_sent: u64,
    writes_sent: u64,
    dispatch_stall_cycles: u64,
}

impl OooCore {
    /// A core running `profile`, with deterministic behavior per `seed`.
    pub fn new(cfg: CoreConfig, profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
        let first_gap = Self::sample_exp(&mut rng, profile.instructions_per_miss());
        Self {
            cfg,
            profile,
            rng,
            rob: VecDeque::with_capacity(64),
            rob_occupancy: 0,
            filled: Vec::new(),
            outstanding: 0,
            next_id: 0,
            until_next_miss: first_gap,
            stream_pos: 0,
            stream_left: 0,
            pending_wb: None,
            retired: 0,
            cycles: 0,
            reads_sent: 0,
            writes_sent: 0,
            dispatch_stall_cycles: 0,
        }
    }

    fn sample_exp(rng: &mut StdRng, mean: f64) -> u64 {
        let u: f64 = rng.gen_range(1e-12..1.0);
        (-u.ln() * mean) as u64
    }

    fn next_line(&mut self) -> u64 {
        let footprint = self.profile.footprint_lines().max(1);
        if self.stream_left == 0 {
            self.stream_pos = self.rng.gen_range(0..footprint);
            let run = Self::sample_exp(&mut self.rng, self.profile.run_length).max(1);
            self.stream_left = run;
        }
        let line = self.stream_pos % footprint;
        self.stream_pos += 1;
        self.stream_left -= 1;
        line
    }

    /// Advance the core by one CPU cycle. `try_send` is the memory
    /// subsystem's admission function: it returns `false` when queues are
    /// full, stalling dispatch.
    pub fn cpu_cycle(&mut self, try_send: &mut dyn FnMut(MemRequest) -> bool) {
        self.cycles += 1;

        // Retry a deferred writeback before anything else.
        if let Some(wb) = self.pending_wb.take() {
            if !try_send(wb) {
                self.pending_wb = Some(wb);
            } else {
                self.writes_sent += 1;
            }
        }

        // In-order retire.
        let mut budget = self.cfg.retire_width as u32;
        while budget > 0 {
            match self.rob.front_mut() {
                Some(RobSlot::Insts(n)) => {
                    let k = (*n).min(budget);
                    *n -= k;
                    budget -= k;
                    self.retired += u64::from(k);
                    self.rob_occupancy -= k as usize;
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(RobSlot::Miss { id }) => {
                    let id = *id;
                    if let Some(pos) = self.filled.iter().position(|&f| f == id) {
                        self.filled.swap_remove(pos);
                        self.rob.pop_front();
                        self.rob_occupancy -= 1;
                        self.retired += 1;
                        budget -= 1;
                    } else {
                        break; // head-of-ROB miss stalls retirement
                    }
                }
                None => break,
            }
        }

        // In-order dispatch.
        let mut budget = self.cfg.issue_width as u32;
        let mut stalled = false;
        while budget > 0 && self.rob_occupancy < self.cfg.rob_entries {
            if self.until_next_miss == 0 {
                if self.outstanding >= self.cfg.mshrs {
                    stalled = true;
                    break;
                }
                let line = self.next_line();
                let id = self.next_id;
                if !try_send(MemRequest {
                    line,
                    is_write: false,
                    id,
                }) {
                    stalled = true;
                    break;
                }
                self.next_id += 1;
                self.reads_sent += 1;
                self.outstanding += 1;
                self.rob.push_back(RobSlot::Miss { id });
                self.rob_occupancy += 1;
                budget -= 1;
                self.until_next_miss =
                    Self::sample_exp(&mut self.rng, self.profile.instructions_per_miss());
                // Dirty eviction trails the read stream.
                if self.pending_wb.is_none() && self.rng.gen_bool(self.profile.writeback_ratio) {
                    let footprint = self.profile.footprint_lines().max(1);
                    let wb_line = line.wrapping_sub(128) % footprint;
                    let wb = MemRequest {
                        line: wb_line,
                        is_write: true,
                        id: u64::MAX,
                    };
                    if try_send(wb) {
                        self.writes_sent += 1;
                    } else {
                        self.pending_wb = Some(wb);
                    }
                }
            } else {
                let space = (self.cfg.rob_entries - self.rob_occupancy) as u64;
                let k = u64::from(budget).min(self.until_next_miss).min(space) as u32;
                if let Some(RobSlot::Insts(n)) = self.rob.back_mut() {
                    *n += k;
                } else {
                    self.rob.push_back(RobSlot::Insts(k));
                }
                self.rob_occupancy += k as usize;
                self.until_next_miss -= u64::from(k);
                budget -= k;
            }
        }
        if stalled && self.rob_occupancy >= self.cfg.rob_entries / 2 {
            self.dispatch_stall_cycles += 1;
        }
    }

    /// True when the next `cpu_cycle` call is provably a pure
    /// counter-increment: retirement is blocked on an unfilled
    /// head-of-ROB miss, no deferred writeback is waiting, and dispatch
    /// cannot proceed without drawing randomness (ROB full, or the next
    /// miss is due but every MSHR is occupied). An inert core stays inert
    /// until a [`fill`](Self::fill) arrives, so the event-horizon loop may
    /// bulk-advance it with [`advance_inert`](Self::advance_inert).
    pub fn is_inert(&self) -> bool {
        self.pending_wb.is_none()
            && matches!(self.rob.front(), Some(RobSlot::Miss { id }) if !self.filled.contains(id))
            && (self.rob_occupancy >= self.cfg.rob_entries
                || (self.until_next_miss == 0 && self.outstanding >= self.cfg.mshrs))
    }

    /// Advance an inert core by `n` CPU cycles in one step: exactly the
    /// counter updates `n` calls to [`cpu_cycle`](Self::cpu_cycle) would
    /// make (asserted by `prop_inert_advance_matches_single_cycles`).
    ///
    /// # Panics
    ///
    /// Debug-asserts [`is_inert`](Self::is_inert).
    pub fn advance_inert(&mut self, n: u64) {
        debug_assert!(self.is_inert(), "bulk-advance of a non-inert core");
        self.cycles += n;
        // `cpu_cycle` only reaches the `stalled` path when the ROB still
        // has room; a completely full ROB skips the dispatch loop without
        // recording a stall.
        if self.rob_occupancy < self.cfg.rob_entries
            && self.rob_occupancy >= self.cfg.rob_entries / 2
        {
            self.dispatch_stall_cycles += n;
        }
    }

    /// Deliver the fill for read request `id`.
    pub fn fill(&mut self, id: u64) {
        debug_assert!(!self.filled.contains(&id), "duplicate fill for id {id}");
        self.filled.push(id);
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
    }

    /// Instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.retired
    }

    /// CPU cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Misses currently in flight.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding
    }

    /// Reads sent to memory.
    pub fn reads_sent(&self) -> u64 {
        self.reads_sent
    }

    /// Writebacks sent to memory.
    pub fn writes_sent(&self) -> u64 {
        self.writes_sent
    }

    /// The profile this core runs.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Ids of the reads this core still waits on: its ROB's miss slots
    /// whose fill has not arrived. Each names exactly one read in flight
    /// in the memory system.
    pub fn unfilled_misses(&self) -> impl Iterator<Item = u64> + '_ {
        self.rob.iter().filter_map(|slot| match *slot {
            RobSlot::Miss { id } if !self.filled.contains(&id) => Some(id),
            _ => None,
        })
    }

    /// Check restored state (snapshot support): the ROB fits its
    /// capacity, miss ids are distinct and below `next_id`, every
    /// returned fill names a distinct miss slot, and the in-flight count
    /// is the unfilled miss slots, within the MSHRs. A core that passes
    /// never underflows its miss accounting on a later fill.
    ///
    /// # Errors
    ///
    /// A description of the first violated rule.
    #[cold]
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.rob_occupancy > self.cfg.rob_entries {
            return Err("ROB occupancy over capacity");
        }
        let mut misses: Vec<u64> = (self.rob.iter())
            .filter_map(|slot| match *slot {
                RobSlot::Miss { id } => Some(id),
                RobSlot::Insts(_) => None,
            })
            .collect();
        misses.sort_unstable();
        if misses.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate miss id in the ROB");
        }
        if misses.last().is_some_and(|&id| id >= self.next_id) {
            return Err("miss id at or above the next id");
        }
        let mut filled = self.filled.clone();
        filled.sort_unstable();
        let distinct = filled.windows(2).all(|w| w[0] != w[1]);
        if !distinct || !filled.iter().all(|id| misses.binary_search(id).is_ok()) {
            return Err("fill for no miss slot in the ROB");
        }
        if self.outstanding > self.cfg.mshrs || self.outstanding != misses.len() - filled.len() {
            return Err("outstanding misses do not match the ROB");
        }
        Ok(())
    }

    /// Capture every mutable field as a plain-data image (snapshot
    /// support). The configuration and workload profile are not part of
    /// the image — a restore target is constructed from the same
    /// `ChopimConfig`-derived parameters and only its dynamic state is
    /// overwritten.
    #[cold]
    pub fn export_state(&self) -> OooCoreState {
        OooCoreState {
            rng: self.rng.state(),
            rob: self
                .rob
                .iter()
                .map(|s| match *s {
                    RobSlot::Insts(n) => (false, u64::from(n)),
                    RobSlot::Miss { id } => (true, id),
                })
                .collect(),
            filled: self.filled.clone(),
            outstanding: self.outstanding as u64,
            next_id: self.next_id,
            until_next_miss: self.until_next_miss,
            stream_pos: self.stream_pos,
            stream_left: self.stream_left,
            pending_wb_line: self.pending_wb.map(|wb| wb.line),
            retired: self.retired,
            cycles: self.cycles,
            reads_sent: self.reads_sent,
            writes_sent: self.writes_sent,
            dispatch_stall_cycles: self.dispatch_stall_cycles,
        }
    }

    /// Overwrite this core's mutable state from an image captured by
    /// [`export_state`](Self::export_state). ROB occupancy is recomputed
    /// from the slot list, so an image can never desynchronize the two.
    /// Instruction counts are stored as `u32`: callers restoring an
    /// untrusted image check that they fit first, and run
    /// [`validate`](Self::validate) after.
    #[cold]
    pub fn import_state(&mut self, s: &OooCoreState) {
        self.rng = StdRng::from_state(s.rng);
        self.rob = s
            .rob
            .iter()
            .map(|&(is_miss, v)| {
                if is_miss {
                    RobSlot::Miss { id: v }
                } else {
                    RobSlot::Insts(v as u32)
                }
            })
            .collect();
        self.rob_occupancy = self
            .rob
            .iter()
            .map(|slot| match slot {
                RobSlot::Insts(n) => *n as usize,
                RobSlot::Miss { .. } => 1,
            })
            .sum();
        self.filled = s.filled.clone();
        self.outstanding = s.outstanding as usize;
        self.next_id = s.next_id;
        self.until_next_miss = s.until_next_miss;
        self.stream_pos = s.stream_pos;
        self.stream_left = s.stream_left;
        self.pending_wb = s.pending_wb_line.map(|line| MemRequest {
            line,
            is_write: true,
            id: u64::MAX,
        });
        self.retired = s.retired;
        self.cycles = s.cycles;
        self.reads_sent = s.reads_sent;
        self.writes_sent = s.writes_sent;
        self.dispatch_stall_cycles = s.dispatch_stall_cycles;
    }
}

/// A plain-data image of an [`OooCore`]'s mutable state.
///
/// The host crate deliberately has no dependency on the binary codec;
/// higher layers serialize this struct field by field (see
/// `docs/SNAPSHOT_FORMAT.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OooCoreState {
    /// xoshiro256++ state words of the address-generator RNG.
    pub rng: [u64; 4],
    /// ROB slots front-to-back: `(true, id)` for an outstanding miss,
    /// `(false, n)` for a batch of `n` plain instructions.
    pub rob: Vec<(bool, u64)>,
    /// Returned fills not yet retired.
    pub filled: Vec<u64>,
    /// Misses currently in flight.
    pub outstanding: u64,
    /// Next read-request id.
    pub next_id: u64,
    /// Instructions left before the next synthetic miss.
    pub until_next_miss: u64,
    /// Current position of the synthetic address stream.
    pub stream_pos: u64,
    /// Lines left in the current sequential run.
    pub stream_left: u64,
    /// Line of a deferred dirty writeback, if one is waiting to retry.
    pub pending_wb_line: Option<u64>,
    /// Instructions retired.
    pub retired: u64,
    /// CPU cycles simulated.
    pub cycles: u64,
    /// Reads sent to memory.
    pub reads_sent: u64,
    /// Writebacks sent to memory.
    pub writes_sent: u64,
    /// Cycles dispatch stalled with a half-full window.
    pub dispatch_stall_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `core` against a fixed-latency memory for `cycles` cycles.
    fn run_fixed_latency(profile: WorkloadProfile, latency: u64, cycles: u64) -> OooCore {
        let mut core = OooCore::new(CoreConfig::default(), profile, 7);
        let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
        for now in 0..cycles {
            while let Some(&(ready, id)) = in_flight.front() {
                if ready <= now {
                    in_flight.pop_front();
                    core.fill(id);
                } else {
                    break;
                }
            }
            let mut sink = |r: MemRequest| {
                if !r.is_write {
                    in_flight.push_back((now + latency, r.id));
                }
                true
            };
            core.cpu_cycle(&mut sink);
        }
        core
    }

    #[test]
    fn low_mpki_core_approaches_issue_width() {
        let core = run_fixed_latency(WorkloadProfile::exchange2_r(), 200, 20_000);
        assert!(core.ipc() > 4.0, "ipc = {}", core.ipc());
    }

    #[test]
    fn high_mpki_core_is_memory_bound() {
        let fast = run_fixed_latency(WorkloadProfile::mcf_r(), 50, 20_000);
        let slow = run_fixed_latency(WorkloadProfile::mcf_r(), 400, 20_000);
        assert!(
            fast.ipc() > 1.5 * slow.ipc(),
            "{} vs {}",
            fast.ipc(),
            slow.ipc()
        );
        assert!(slow.ipc() < 1.0);
    }

    #[test]
    fn mpki_ordering_preserved_in_ipc() {
        let heavy = run_fixed_latency(WorkloadProfile::mcf_r(), 150, 20_000);
        let light = run_fixed_latency(WorkloadProfile::leela_r(), 150, 20_000);
        assert!(light.ipc() > heavy.ipc());
    }

    #[test]
    fn mlp_bounded_by_mshrs() {
        let mut core = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), 3);
        // Memory that never fills: outstanding must saturate at mshrs.
        for _ in 0..5_000 {
            core.cpu_cycle(&mut |_| true);
            assert!(core.outstanding_misses() <= CoreConfig::default().mshrs);
        }
        assert_eq!(core.outstanding_misses(), CoreConfig::default().mshrs);
    }

    #[test]
    fn writeback_fraction_tracks_profile() {
        let core = run_fixed_latency(WorkloadProfile::lbm_r(), 100, 100_000);
        let ratio = core.writes_sent() as f64 / core.reads_sent() as f64;
        let expect = WorkloadProfile::lbm_r().writeback_ratio;
        assert!(
            (ratio - expect).abs() < 0.1,
            "measured {ratio}, profile {expect}"
        );
    }

    #[test]
    fn rejected_requests_stall_but_do_not_lose_work() {
        let mut core = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), 11);
        // Memory rejects everything: no requests recorded, no panic.
        for _ in 0..1_000 {
            core.cpu_cycle(&mut |_| false);
        }
        assert_eq!(core.reads_sent(), 0);
        assert_eq!(core.outstanding_misses(), 0);
        // IPC limited: eventually the pending miss blocks the window.
        assert!(core.ipc() < 8.0);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = run_fixed_latency(WorkloadProfile::milc(), 100, 10_000);
        let b = run_fixed_latency(WorkloadProfile::milc(), 100, 10_000);
        assert_eq!(a.retired_instructions(), b.retired_instructions());
        assert_eq!(a.reads_sent(), b.reads_sent());
    }

    #[test]
    fn export_import_resumes_bit_identically() {
        // Drive a core half-way, image its state into a freshly
        // constructed twin, then run both against identical memories and
        // require identical request streams and counters.
        let run = |core: &mut OooCore, cycles: u64| -> Vec<MemRequest> {
            let mut sent = Vec::new();
            for _ in 0..cycles {
                let mut sink = |r: MemRequest| {
                    sent.push(r);
                    true
                };
                core.cpu_cycle(&mut sink);
                while core.outstanding_misses() > 0 {
                    let id = core.next_id - core.outstanding as u64;
                    core.fill(id);
                }
            }
            sent
        };
        let mut a = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), 13);
        run(&mut a, 5_000);
        let img = a.export_state();
        let mut b = OooCore::new(CoreConfig::default(), WorkloadProfile::mcf_r(), 13);
        b.import_state(&img);
        assert_eq!(b.export_state(), img, "image must survive a round trip");
        let sa = run(&mut a, 5_000);
        let sb = run(&mut b, 5_000);
        assert_eq!(sa, sb);
        assert_eq!(a.retired_instructions(), b.retired_instructions());
        assert_eq!(a.ipc(), b.ipc());
    }

    #[test]
    fn streaming_profile_produces_sequential_lines() {
        let mut core = OooCore::new(CoreConfig::default(), WorkloadProfile::bwaves_r(), 5);
        let mut lines = Vec::new();
        for _ in 0..4_000 {
            let mut sink = |r: MemRequest| {
                if !r.is_write {
                    lines.push(r.line);
                }
                true
            };
            core.cpu_cycle(&mut sink);
            // Fill instantly to keep the stream going.
            while core.outstanding_misses() > 0 {
                let id = core.next_id - core.outstanding_misses() as u64;
                core.fill(id);
            }
        }
        assert!(lines.len() > 50);
        let sequential = lines.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            sequential as f64 / lines.len() as f64 > 0.7,
            "streaming workload should be mostly sequential ({sequential}/{})",
            lines.len()
        );
    }
}
