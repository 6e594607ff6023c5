//! The per-rank NDA sequencer FSM — the unit Chopim replicates on the
//! host side (paper §III-D, Fig. 5).
//!
//! The FSM's state evolves through exactly two deterministic inputs:
//!
//! 1. [`launch`](NdaFsm::launch) — a new instruction arrives (the host-side
//!    controller knows every launch because it performed it);
//! 2. [`commit`](NdaFsm::commit) — a memory controller granted the access
//!    the FSM exposes as [`next_access`](NdaFsm::next_access).
//!
//! Each input ends by *settling* the FSM: it starts the next queued
//! instruction when none runs, absorbs produced writes into the write
//! buffer and retires finished programs, stopping at the next DRAM
//! access. That walk depends only on the microcode, so between inputs
//! the FSM is always settled and [`next_access`](NdaFsm::next_access) is
//! a read.
//!
//! Because grants are visible on the shared channel and the microcode is
//! deterministic, a host-side *shadow* copy fed the same launches and
//! grants stays bit-identical — asserted via [`NdaFsm::fingerprint`] in
//! the integration tests. No NDA→host signaling is required, which is the
//! paper's key enabler for DDR4 (non-packetized) NDAs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

use chopim_dram::codec::{check, ByteWriter, CodecError, Restore};

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

impl NdaAccess {
    /// The drain of buffered write `w`.
    fn drain(w: BufferedWrite) -> Self {
        Self {
            write: true,
            bank: w.bank,
            row: w.row,
            col: w.col,
        }
    }
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
    /// The access the settled FSM stopped at (`None` = idle).
    next: Option<NdaAccess>,
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
            next: None,
            reads_granted: 0,
            writes_granted: 0,
            completed_count: 0,
        }
    }

    /// Queue slots still free.
    pub fn queue_space(&self) -> usize {
        self.queue_cap - self.queue.len()
    }

    /// Enqueue a launched instruction and settle: on an FSM with no
    /// running program it starts at once, so the queue holds only
    /// instructions waiting behind the running one.
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
        self.settle();
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
        self.next = None;
    }

    /// Ids of every instruction the FSM still holds: queued, running,
    /// draining buffered writes, or completed and not yet popped. Each
    /// is eventually reported by [`pop_completed`](Self::pop_completed)
    /// unless the FSM is aborted.
    pub fn held_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let queued = self.queue.iter().map(|i| i.id);
        let running = self.program.iter().map(|p| p.instr().id);
        queued
            .chain(running)
            .chain(self.wr_outstanding.keys().copied())
            .chain(self.program_done.iter().copied())
            .chain(self.completed.iter().copied())
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

    /// The DRAM access the FSM wants next (`None` while idle). It
    /// changes only through [`launch`](Self::launch) and
    /// [`commit`](Self::commit).
    pub fn next_access(&self) -> Option<NdaAccess> {
        self.next
    }

    /// Run the microcode forward to the next DRAM access and store it in
    /// `next`: start the next queued instruction when none runs, absorb
    /// produced writes while the buffer has room, and retire finished
    /// programs. Settling a settled FSM changes nothing.
    fn settle(&mut self) {
        self.next = self.run_to_access();
    }

    fn run_to_access(&mut self) -> Option<NdaAccess> {
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
                return self.wbuf.peek().map(NdaAccess::drain);
            }
            let program = self.program.as_mut().expect("set above");
            match program.peek() {
                Some(m) if m.write => {
                    // PE result: absorb into the buffer (no DRAM access yet).
                    if self.wbuf.is_full() {
                        return self.wbuf.peek().map(NdaAccess::drain);
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
                }
            }
        }
        // No program and nothing queued: force-drain leftovers.
        if self.wbuf.wants_drain(true) {
            return self.wbuf.peek().map(NdaAccess::drain);
        }
        None
    }

    /// Record that `access` (the value [`next_access`](Self::next_access)
    /// returns) was granted a DRAM command, then settle.
    ///
    /// # Panics
    ///
    /// Panics if `access` is not the FSM's next access — that would mean
    /// host and NDA controllers diverged.
    pub fn commit(&mut self, access: NdaAccess) {
        assert_eq!(
            self.next,
            Some(access),
            "granted access does not match the FSM's next access"
        );
        if access.write {
            let w = self.wbuf.pop();
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
            let last = program.peek().expect("read grant past end").last;
            self.reads_granted += 1;
            program.advance();
            if last {
                let done = self.program.take().expect("program running");
                self.finish_program_bookkeeping(done.instr().id);
            }
        }
        self.settle();
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

    /// Check restored state against the configured capacities (queue
    /// and write-buffer occupancy) and the write accounting: each
    /// outstanding count equals its instruction's buffered writes, every
    /// buffered write is counted, a program-done instruction still has
    /// writes buffered and is not the running program, and any other
    /// counted instruction is the running program. (Decoding a
    /// [`Program`] already checks its position.) Last, the FSM must be
    /// settled: settling a copy must leave its image unchanged, which
    /// also pins `next` to the state.
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
        let mut buffered = BTreeMap::new();
        for w in self.wbuf.iter() {
            *buffered.entry(w.instr).or_insert(0) += 1;
        }
        let running = self.program.as_ref().map(|p| p.instr().id);
        let counted = |id| self.wr_outstanding.get(&id).copied();
        if buffered.keys().any(|&id| counted(id).is_none()) {
            return Err(CodecError::Corrupt("buffered write without a count"));
        }
        for (&id, &count) in &self.wr_outstanding {
            if buffered.get(&id).copied().unwrap_or(0) != count {
                return Err(CodecError::Corrupt("write count differs from the buffer"));
            }
            if !self.program_done.contains(&id) && Some(id) != running {
                return Err(CodecError::Corrupt("write count for no live instruction"));
            }
        }
        let draining = |&id: &u64| counted(id).is_some_and(|c| c > 0) && Some(id) != running;
        if !self.program_done.iter().all(draining) {
            return Err(CodecError::Corrupt("program-done instruction not draining"));
        }
        let image = |fsm: &Self| {
            let mut w = ByteWriter::new();
            fsm.encode_state(&mut w);
            w.finish()
        };
        let mut settled = self.clone();
        settled.settle();
        check(image(&settled) == image(self), "FSM not settled")
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
        next,
        reads_granted,
        writes_granted,
        completed_count,
    }
}

#[cfg(test)]
mod tests {
    use chopim_dram::codec::{ByteReader, ByteWriter, Restore};

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
        // The first launch starts running at once; the next two queue
        // behind it.
        let mut fsm = NdaFsm::new(2);
        fsm.launch(nrm2_instr(1, 0)).unwrap();
        assert_eq!(fsm.queue_space(), 2);
        fsm.launch(nrm2_instr(1, 1)).unwrap();
        fsm.launch(nrm2_instr(1, 2)).unwrap();
        assert!(fsm.launch(nrm2_instr(1, 3)).is_err());
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

    /// Restore `fsm`'s image into a fresh FSM and validate it, as resume
    /// does.
    fn resume(fsm: &NdaFsm) -> Result<(), CodecError> {
        let mut w = ByteWriter::new();
        fsm.encode_state(&mut w);
        let buf = w.finish();
        let mut back = NdaFsm::new(fsm.queue_cap);
        back.decode_state(&mut ByteReader::new(&buf))?;
        back.validate()
    }

    fn assert_rejected(fsm: &NdaFsm, what: &str) {
        match resume(fsm) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    /// Grant reads until the next access is a write drain.
    fn run_to_first_drain(fsm: &mut NdaFsm) {
        while let Some(a) = fsm.next_access().filter(|a| !a.write) {
            fsm.commit(a);
        }
    }

    #[test]
    fn corrupt_write_accounting_is_rejected() {
        // Mid-COPY: the high watermark stopped the first batch's writes
        // at 96 buffered, all counted against the running instruction.
        let mut mid = NdaFsm::new(4);
        mid.launch(copy_instr(300, 7)).unwrap();
        run_to_first_drain(&mut mid);
        assert_eq!(mid.wr_outstanding, BTreeMap::from([(7, 96)]));
        resume(&mid).expect("a live FSM resumes");
        // Program done, its 64 writes still draining.
        let mut done = NdaFsm::new(4);
        done.launch(copy_instr(64, 5)).unwrap();
        run_to_first_drain(&mut done);
        assert!(done.program.is_none() && done.program_done.contains(&5));
        resume(&done).expect("a draining FSM resumes");

        let mut f = mid.clone();
        f.wr_outstanding.clear();
        assert_rejected(&f, "buffered writes without a count");
        let mut f = mid.clone();
        f.wr_outstanding.insert(7, 95);
        assert_rejected(&f, "count below the buffered writes");
        let mut f = mid.clone();
        f.wr_outstanding.insert(8, 0);
        assert_rejected(&f, "count for an instruction the FSM does not hold");
        let mut f = mid.clone();
        f.program_done.insert(7);
        assert_rejected(&f, "running program marked done");
        let mut f = done.clone();
        f.program_done.clear();
        assert_rejected(&f, "draining writes for no live instruction");
        let mut f = done.clone();
        f.program_done.insert(6);
        assert_rejected(&f, "program done without a count");
    }

    #[test]
    fn corrupt_unsettled_fsm_is_rejected() {
        // A queued instruction with no running program: settling starts it.
        let mut f = NdaFsm::new(4);
        f.queue.push_back(copy_instr(64, 1));
        assert_rejected(&f, "queued instruction with no running program");

        // A running program stopped at a write the empty buffer could
        // absorb: settling absorbs it.
        let mut f = NdaFsm::new(4);
        f.launch(copy_instr(64, 2)).unwrap();
        resume(&f).expect("a freshly launched FSM resumes");
        let program = f.program.as_mut().expect("launch starts the program");
        while !program.peek().expect("COPY writes").write {
            program.advance();
        }
        assert_rejected(&f, "running program at an absorbable write");

        // A `next` that differs from the state it was settled from.
        let mut mid = NdaFsm::new(4);
        mid.launch(copy_instr(300, 7)).unwrap();
        run_to_first_drain(&mut mid);
        resume(&mid).expect("a draining FSM resumes");
        let a = mid.next_access().expect("drain write");
        let past = NdaAccess {
            col: a.col + 1,
            ..a
        };
        for next in [None, Some(past)] {
            let mut f = mid.clone();
            f.next = next;
            assert_rejected(&f, "next access differs from the state");
        }
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
