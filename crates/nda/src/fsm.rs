//! The per-rank NDA sequencer FSM — the unit Chopim replicates on the
//! host side (paper §III-D, Fig. 5).
//!
//! The FSM's state evolves through exactly three deterministic inputs:
//!
//! 1. [`launch`](NdaFsm::launch) — a new instruction arrives (the host-side
//!    controller knows every launch because it performed it);
//! 2. [`next_access`](NdaFsm::next_access) — the FSM exposes the next DRAM
//!    access it wants (absorbing any produced writes into the write buffer
//!    along the way — a state change that depends only on the microcode);
//! 3. [`commit`](NdaFsm::commit) — a memory controller granted that access.
//!
//! Because grants are visible on the shared channel and the microcode is
//! deterministic, a host-side *shadow* copy fed the same launches and
//! grants stays bit-identical — asserted via [`NdaFsm::fingerprint`] in
//! the integration tests. No NDA→host signaling is required, which is the
//! paper's key enabler for DDR4 (non-packetized) NDAs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

use chopim_dram::codec::CodecError;

use crate::isa::NdaInstr;
use crate::microcode::Program;
use crate::wbuf::{BufferedWrite, WriteBuffer};

/// A DRAM access the FSM wants to perform next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdaAccess {
    /// True for a write-buffer drain write.
    pub write: bool,
    /// Flat bank within the rank.
    pub bank: u16,
    /// Row.
    pub row: u32,
    /// Column (line units).
    pub col: u32,
}

/// The per-rank NDA sequencer.
#[derive(Debug, Clone)]
pub struct NdaFsm {
    queue: VecDeque<NdaInstr>,
    queue_cap: usize,
    program: Option<Program>,
    wbuf: WriteBuffer,
    /// Writes still buffered per instruction id.
    wr_outstanding: BTreeMap<u64, u64>,
    /// Instructions whose program finished but writes are still draining.
    program_done: BTreeSet<u64>,
    completed: VecDeque<u64>,
    /// Total reads granted.
    pub reads_granted: u64,
    /// Total writes granted.
    pub writes_granted: u64,
    completed_count: u64,
}

impl NdaFsm {
    /// An idle FSM accepting up to `queue_cap` queued instructions, with
    /// the Table II write buffer.
    pub fn new(queue_cap: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            queue_cap,
            program: None,
            wbuf: WriteBuffer::table_ii(),
            wr_outstanding: BTreeMap::new(),
            program_done: BTreeSet::new(),
            completed: VecDeque::new(),
            reads_granted: 0,
            writes_granted: 0,
            completed_count: 0,
        }
    }

    /// Queue slots still free.
    pub fn queue_space(&self) -> usize {
        self.queue_cap - self.queue.len()
    }

    /// Enqueue a launched instruction.
    ///
    /// # Errors
    ///
    /// Returns the instruction back when the queue is full (the host-side
    /// controller must back off — it knows the occupancy from its shadow).
    pub fn launch(&mut self, instr: NdaInstr) -> Result<(), NdaInstr> {
        if self.queue.len() >= self.queue_cap {
            return Err(instr);
        }
        self.queue.push_back(instr);
        Ok(())
    }

    /// True when nothing is queued, running, or buffered.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.program.is_none() && self.wbuf.is_empty()
    }

    /// True while a high-watermark write-drain phase is active — the
    /// window the write-throttling policies act on.
    pub fn in_drain_phase(&self) -> bool {
        self.wbuf.in_drain_phase()
    }

    /// Instructions fully completed (results in DRAM), FIFO.
    pub fn pop_completed(&mut self) -> Option<u64> {
        self.completed.pop_front()
    }

    /// Abandon all queued, running, and buffered work (permanent rank
    /// death): the queue, active program, write buffer, and completion
    /// bookkeeping are discarded, leaving the FSM idle forever. Applied
    /// identically to an FSM and its shadow so fingerprints stay equal.
    pub fn abort_all(&mut self) {
        self.queue.clear();
        self.program = None;
        self.wbuf.clear();
        self.wr_outstanding.clear();
        self.program_done.clear();
        self.completed.clear();
    }

    /// Count of instructions completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    fn finish_program_bookkeeping(&mut self, id: u64) {
        if self.wr_outstanding.get(&id).copied().unwrap_or(0) == 0 {
            self.wr_outstanding.remove(&id);
            self.completed.push_back(id);
            self.completed_count += 1;
        } else {
            self.program_done.insert(id);
        }
    }

    /// Compute the next desired DRAM access, absorbing produced writes
    /// into the write buffer. Idempotent between grants: calling twice
    /// without a [`commit`](Self::commit) returns the same access.
    pub fn next_access(&mut self) -> Option<NdaAccess> {
        loop {
            // Start the next instruction when idle.
            if self.program.is_none() {
                match self.queue.pop_front() {
                    Some(instr) => self.program = Some(Program::new(instr)),
                    None => break,
                }
            }
            // High-watermark drains preempt the read stream.
            if self.wbuf.wants_drain(false) {
                let w = self.wbuf.peek().expect("draining implies nonempty");
                return Some(NdaAccess {
                    write: true,
                    bank: w.bank,
                    row: w.row,
                    col: w.col,
                });
            }
            let program = self.program.as_mut().expect("set above");
            match program.peek() {
                Some(m) if m.write => {
                    // PE result: absorb into the buffer (no DRAM access yet).
                    if self.wbuf.is_full() {
                        let w = self.wbuf.peek().expect("full implies nonempty");
                        return Some(NdaAccess {
                            write: true,
                            bank: w.bank,
                            row: w.row,
                            col: w.col,
                        });
                    }
                    let id = program.instr().id;
                    self.wbuf
                        .push(BufferedWrite {
                            instr: id,
                            bank: m.bank,
                            row: m.row,
                            col: m.col,
                        })
                        .expect("checked not full");
                    *self.wr_outstanding.entry(id).or_insert(0) += 1;
                    program.advance();
                    if m.last {
                        let done = self.program.take().expect("program running");
                        self.finish_program_bookkeeping(done.instr().id);
                    }
                    continue;
                }
                Some(m) => {
                    return Some(NdaAccess {
                        write: false,
                        bank: m.bank,
                        row: m.row,
                        col: m.col,
                    })
                }
                None => {
                    let done = self.program.take().expect("program running");
                    self.finish_program_bookkeeping(done.instr().id);
                    continue;
                }
            }
        }
        // No program and nothing queued: force-drain leftovers.
        if self.wbuf.wants_drain(true) {
            let w = self.wbuf.peek().expect("drain implies nonempty");
            return Some(NdaAccess {
                write: true,
                bank: w.bank,
                row: w.row,
                col: w.col,
            });
        }
        None
    }

    /// Record that `access` (the value last returned by
    /// [`next_access`](Self::next_access)) was granted a DRAM command.
    ///
    /// # Panics
    ///
    /// Panics if `access` does not match the FSM's current expectation —
    /// that would mean host and NDA controllers diverged.
    pub fn commit(&mut self, access: NdaAccess) {
        if access.write {
            let w = self.wbuf.pop();
            assert_eq!(
                (w.bank, w.row, w.col),
                (access.bank, access.row, access.col),
                "granted write does not match buffer head"
            );
            self.writes_granted += 1;
            let left = self
                .wr_outstanding
                .get_mut(&w.instr)
                .expect("buffered write has outstanding count");
            *left -= 1;
            if *left == 0 && self.program_done.remove(&w.instr) {
                self.wr_outstanding.remove(&w.instr);
                self.completed.push_back(w.instr);
                self.completed_count += 1;
            }
        } else {
            let program = self.program.as_mut().expect("read grant without program");
            let m = program.peek().expect("read grant past end");
            assert!(
                !m.write && (m.bank, m.row, m.col) == (access.bank, access.row, access.col),
                "granted read does not match program position"
            );
            self.reads_granted += 1;
            program.advance();
            if m.last {
                let done = self.program.take().expect("program running");
                self.finish_program_bookkeeping(done.instr().id);
            }
        }
    }

    /// A digest of all replication-relevant state. Host-side shadow and
    /// NDA-side FSM must agree on this after every cycle.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.queue.len().hash(&mut h);
        for i in &self.queue {
            i.id.hash(&mut h);
        }
        match &self.program {
            Some(p) => {
                p.instr().id.hash(&mut h);
                p.position_key().hash(&mut h);
            }
            None => u64::MAX.hash(&mut h),
        }
        self.wbuf.len().hash(&mut h);
        self.wbuf.drained.hash(&mut h);
        self.wbuf.in_drain_phase().hash(&mut h);
        self.reads_granted.hash(&mut h);
        self.writes_granted.hash(&mut h);
        self.completed_count.hash(&mut h);
        h.finish()
    }

    /// Check restored state against the configured capacities: queue
    /// and write-buffer occupancy, and the running program's position.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] naming the violated bound.
    #[cold]
    pub fn validate(&self) -> Result<(), CodecError> {
        if self.queue.len() > self.queue_cap {
            return Err(CodecError::Corrupt("instruction queue overfull"));
        }
        if self.wbuf.len() > self.wbuf.capacity() {
            return Err(CodecError::Corrupt("write buffer overfull"));
        }
        self.program.as_ref().map_or(Ok(()), Program::validate)
    }
}

chopim_dram::codec! { NdaAccess { write, bank, row, col } }

chopim_dram::codec! {
    in_place NdaFsm {
        queue_cap: expect,
        queue,
        program,
        wbuf,
        wr_outstanding,
        program_done,
        completed,
        reads_granted,
        writes_granted,
        completed_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Opcode;
    use crate::operand::OperandLayout;

    fn copy_instr(lines: u64, id: u64) -> NdaInstr {
        let x = OperandLayout::rotating(16, 0, 64, 128);
        let y = OperandLayout::rotating(16, 100, 64, 128);
        NdaInstr::elementwise(Opcode::Copy, lines, vec![(x, 0)], vec![(y, 0)], id)
    }

    fn nrm2_instr(lines: u64, id: u64) -> NdaInstr {
        let x = OperandLayout::rotating(16, 0, 64, 128);
        NdaInstr::elementwise(Opcode::Nrm2, lines, vec![(x, 0)], vec![], id)
    }

    /// Grant every access immediately until idle; return (reads, writes).
    fn run_to_idle(fsm: &mut NdaFsm) -> (u64, u64) {
        let mut guard = 0;
        while let Some(a) = fsm.next_access() {
            fsm.commit(a);
            guard += 1;
            assert!(guard < 1_000_000, "runaway FSM");
        }
        (fsm.reads_granted, fsm.writes_granted)
    }

    #[test]
    fn read_only_instruction_completes_without_writes() {
        let mut fsm = NdaFsm::new(4);
        fsm.launch(nrm2_instr(256, 9)).unwrap();
        let (r, w) = run_to_idle(&mut fsm);
        assert_eq!((r, w), (256, 0));
        assert_eq!(fsm.pop_completed(), Some(9));
        assert!(fsm.is_idle());
    }

    #[test]
    fn copy_drains_all_writes() {
        let mut fsm = NdaFsm::new(4);
        fsm.launch(copy_instr(300, 1)).unwrap();
        let (r, w) = run_to_idle(&mut fsm);
        assert_eq!((r, w), (300, 300));
        assert_eq!(fsm.pop_completed(), Some(1));
        assert!(fsm.is_idle());
    }

    #[test]
    fn completion_waits_for_write_drain() {
        let mut fsm = NdaFsm::new(4);
        fsm.launch(copy_instr(64, 5)).unwrap();
        // Consume all reads; leave writes buffered.
        loop {
            let a = fsm.next_access().unwrap();
            if a.write {
                break;
            }
            fsm.commit(a);
        }
        assert_eq!(fsm.pop_completed(), None, "writes still buffered");
        run_to_idle(&mut fsm);
        assert_eq!(fsm.pop_completed(), Some(5));
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut fsm = NdaFsm::new(2);
        fsm.launch(nrm2_instr(1, 0)).unwrap();
        fsm.launch(nrm2_instr(1, 1)).unwrap();
        assert!(fsm.launch(nrm2_instr(1, 2)).is_err());
        assert_eq!(fsm.queue_space(), 0);
    }

    #[test]
    fn instructions_complete_in_launch_order() {
        let mut fsm = NdaFsm::new(8);
        for id in 0..5 {
            fsm.launch(copy_instr(128, id)).unwrap();
        }
        run_to_idle(&mut fsm);
        for id in 0..5 {
            assert_eq!(fsm.pop_completed(), Some(id));
        }
        assert_eq!(fsm.completed_count(), 5);
    }

    #[test]
    fn next_access_is_idempotent() {
        let mut fsm = NdaFsm::new(4);
        fsm.launch(copy_instr(256, 0)).unwrap();
        let a = fsm.next_access().unwrap();
        let b = fsm.next_access().unwrap();
        assert_eq!(a, b);
        let fp1 = fsm.fingerprint();
        let _ = fsm.next_access();
        assert_eq!(
            fp1,
            fsm.fingerprint(),
            "peeking must not change state further"
        );
    }

    #[test]
    fn shadow_stays_in_sync() {
        let mut fsm = NdaFsm::new(8);
        let mut shadow = NdaFsm::new(8);
        for id in 0..3 {
            let i = copy_instr(200, id);
            fsm.launch(i.clone()).unwrap();
            shadow.launch(i).unwrap();
        }
        // Interleave grants with idle cycles; both sides see the same
        // grant stream.
        let mut step = 0u64;
        loop {
            let a = fsm.next_access();
            let b = shadow.next_access();
            assert_eq!(a, b, "divergent desired access at step {step}");
            match a {
                Some(acc) => {
                    // Grant only every third attempt (simulated contention).
                    if step.is_multiple_of(3) {
                        fsm.commit(acc);
                        shadow.commit(acc);
                    }
                }
                None => break,
            }
            assert_eq!(fsm.fingerprint(), shadow.fingerprint(), "step {step}");
            step += 1;
        }
        assert_eq!(fsm.completed_count(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_commit_panics() {
        let mut fsm = NdaFsm::new(4);
        fsm.launch(copy_instr(128, 0)).unwrap();
        let a = fsm.next_access().unwrap();
        fsm.commit(NdaAccess {
            col: a.col + 1,
            ..a
        });
    }

    #[test]
    fn high_watermark_preempts_reads() {
        // An instruction with more writes than buffer capacity must start
        // draining mid-stream.
        let mut fsm = NdaFsm::new(4);
        let x = OperandLayout::rotating(16, 0, 200, 128);
        let y = OperandLayout::rotating(16, 100, 200, 128);
        fsm.launch(NdaInstr::elementwise(
            Opcode::Copy,
            20_000,
            vec![(x, 0)],
            vec![(y, 0)],
            3,
        ))
        .unwrap();
        let mut saw_drain_mid_stream = false;
        let mut reads_before = 0u64;
        for _ in 0..10_000 {
            let Some(a) = fsm.next_access() else { break };
            if a.write && fsm.in_drain_phase() {
                saw_drain_mid_stream = true;
                break;
            }
            reads_before += 1;
            fsm.commit(a);
        }
        assert!(saw_drain_mid_stream, "after {reads_before} reads");
    }
}
