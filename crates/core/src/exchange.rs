//! Flat, allocation-free cross-shard message containers.
//!
//! The sharded engine exchanges three message streams at every window
//! barrier: front-end → shard ingress (transactions and launches), and
//! shard → front-end fills and completions. The original engine used a
//! `VecDeque` inbox extended from per-channel outbox queues plus two
//! `BinaryHeap`s fed one message at a time — every window allocated, and
//! every fill/completion paid a heap sift.
//!
//! This module replaces both with steady-state-allocation-free
//! structures built on two observations:
//!
//! * **Exchange only happens at barriers.** Between barriers the
//!   front-end only *pops* fills/completions and the shard only *pops*
//!   ingress. A container that absorbs a batch at the barrier and then
//!   serves ordered pops needs one sort per barrier, not one sift per
//!   message.
//! * **Producers refill the same buffers every window.** Handing a full
//!   buffer over and handing an empty one back is a swap, not a copy —
//!   the classic double-buffer. Capacity sticks to whichever side is
//!   currently filling, so after warm-up nothing reallocates.
//!
//! [`FlatFifo`] is the ingress side: a contiguous buffer with a consumed
//! head, absorbed from the producer's flat outbox by swap when empty.
//! [`MergeQueue`] is the fill/completion side: per-shard runs are
//! appended raw and one `sort_unstable` at [`seal`](MergeQueue::seal)
//! reproduces exactly the `BinaryHeap` min-pop order (ascending on the
//! full tuple), because no pushes happen between barriers.

use chopim_dram::codec::{check, encode_seq, ByteReader, ByteWriter, Codec, CodecError};
use chopim_dram::perfcount::{self, Counter};
use chopim_dram::Cycle;
use chopim_nda::isa::NdaInstr;

use crate::sched::HostTransaction;

/// A message from the front-end to a shard, delivered at its stamp.
#[derive(Debug)]
pub(crate) enum ShardInbound {
    /// A memory transaction bound for the host MC queues. Waits for MC
    /// queue space at the head of the FIFO (head-of-line, preserving
    /// order).
    Tx(HostTransaction),
    /// The payload side-band of a launch: registers the in-flight record
    /// before the launch's control-register writes (which follow in the
    /// same FIFO) start completing. Never waits for MC space.
    Launch {
        /// Launch id shared with the write transactions' `TxMeta`.
        id: u64,
        /// Target NDA, shard-local index.
        nda_local: usize,
        /// The instruction delivered when every write completes.
        instr: NdaInstr,
        /// Control-register writes carrying this launch.
        writes: u32,
    },
}

/// Outbound fill completion: `(deliver_at, core, request id)`.
pub(crate) type FillMsg = (Cycle, usize, u64);
/// Outbound instruction completion: `(deliver_at, instr id, status)`.
/// The front-end resolves the instruction id through its in-flight
/// launch record, which names the op, the chunk and the NDA.
pub(crate) type CompletionMsg = (Cycle, u64, u8);

/// [`CompletionMsg`] status: the instruction retired successfully.
pub(crate) const COMPLETION_OK: u8 = 0;
/// [`CompletionMsg`] status: the instruction failed (transient compute
/// fault, poisoned operand, or queue overflow under a fault plan).
pub(crate) const COMPLETION_FAILED: u8 = 1;
/// [`CompletionMsg`] status: the target rank died permanently; the
/// front-end quarantines it and re-shards onto survivors.
pub(crate) const COMPLETION_RANK_DEAD: u8 = 2;

chopim_dram::codec! {
    enum ShardInbound {
        0 => Tx(tx),
        1 => Launch { id, nda_local, instr, writes },
    }
}

impl ShardInbound {
    /// Check a restored message against the shard it is bound for:
    /// launches must target one of its `n_local` NDAs.
    #[cold]
    pub(crate) fn validate(&self, n_local: usize) -> Result<(), CodecError> {
        match self {
            ShardInbound::Launch { nda_local, .. } => {
                check(*nda_local < n_local, "launch NDA index out of range")
            }
            ShardInbound::Tx(_) => Ok(()),
        }
    }

    /// `(core, request id)` when this message carries a core read.
    pub(crate) fn core_read(&self) -> Option<(usize, u64)> {
        match self {
            ShardInbound::Tx(tx) => tx.core_read(),
            ShardInbound::Launch { .. } => None,
        }
    }

    /// `(shard-local NDA, instr id)` when this message carries a launch.
    pub(crate) fn launch(&self) -> Option<(usize, u64)> {
        match self {
            ShardInbound::Launch {
                nda_local, instr, ..
            } => Some((*nda_local, instr.id)),
            ShardInbound::Tx(_) => None,
        }
    }
}

/// A contiguous FIFO: a flat buffer plus a consumed-prefix index.
///
/// Pops advance `head` instead of shifting elements; the consumed prefix
/// is reclaimed for free whenever the queue drains (the common case — a
/// shard normally drains its ingress within the window it arrives).
#[derive(Debug)]
pub struct FlatFifo<T> {
    buf: Vec<T>,
    head: usize,
    /// Largest live length ever held (arena sizing telemetry).
    high_water: usize,
}

impl<T> Default for FlatFifo<T> {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            high_water: 0,
        }
    }
}

impl<T> FlatFifo<T> {
    /// Unconsumed elements.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The next element to pop, if any.
    pub fn front(&self) -> Option<&T> {
        self.buf.get(self.head)
    }

    /// Mutable access to the next element to pop, if any.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.buf.get_mut(self.head)
    }

    /// The unconsumed elements in pop order (snapshot support: the
    /// consumed prefix is dead state, so only this region is captured).
    pub fn live(&self) -> &[T] {
        &self.buf[self.head..]
    }

    /// Consume the front element, returning a reference to it (the
    /// element stays in the buffer until the next drain-compaction).
    pub fn pop_front(&mut self) -> Option<&T> {
        let item = self.buf.get(self.head)?;
        self.head += 1;
        Some(item)
    }

    /// Take the producer's batch: swap buffers when this side is empty
    /// (the zero-copy double-buffer handoff — the producer keeps our
    /// drained buffer, capacity and all, for the next window), append
    /// otherwise. The producer's vector is empty afterwards either way.
    pub fn absorb(&mut self, from: &mut Vec<T>) {
        if from.is_empty() {
            return;
        }
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
            std::mem::swap(&mut self.buf, from);
        } else {
            self.buf.append(from);
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Largest live length ever held.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A merge queue: absorbs unsorted runs at barriers, serves ascending
/// pops between them.
///
/// With pushes confined to barriers, sorting the unconsumed region once
/// per [`seal`](Self::seal) yields exactly the pop sequence a
/// `BinaryHeap` of `Reverse<T>` would produce — ascending on `T`'s full
/// `Ord` — without per-push sifting or per-pop `Reverse` wrapping.
/// `sort_unstable` is safe here because the engine's message tuples are
/// unique (request/instruction ids disambiguate equal cycles).
#[derive(Debug)]
pub struct MergeQueue<T> {
    buf: Vec<T>,
    head: usize,
    /// Unsorted elements appended since the last seal.
    dirty: bool,
}

impl<T: Ord> Default for MergeQueue<T> {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            dirty: false,
        }
    }
}

impl<T: Ord> MergeQueue<T> {
    /// Unconsumed elements.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unconsumed elements in buffer order (snapshot validation).
    pub fn live(&self) -> &[T] {
        &self.buf[self.head..]
    }

    /// Append a producer's run, leaving it empty (capacity retained).
    /// The queue is unordered until the next [`seal`](Self::seal).
    pub fn absorb_run(&mut self, run: &mut Vec<T>) {
        if run.is_empty() {
            return;
        }
        self.dirty = true;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            std::mem::swap(&mut self.buf, run);
        } else {
            self.buf.append(run);
        }
    }

    /// Restore pop order after a batch of absorbs: compact the consumed
    /// prefix and sort the live region in place.
    pub fn seal(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.sort_unstable();
        perfcount::hi(Counter::ArenaHighWater, self.buf.len() as u64);
    }

    /// Smallest unconsumed element. Must be sealed.
    pub fn peek(&self) -> Option<&T> {
        debug_assert!(!self.dirty, "peek on an unsealed MergeQueue");
        self.buf.get(self.head)
    }

    /// Pop the smallest unconsumed element. Must be sealed.
    pub fn pop(&mut self) -> Option<&T> {
        debug_assert!(!self.dirty, "pop on an unsealed MergeQueue");
        let item = self.buf.get(self.head)?;
        self.head += 1;
        Some(item)
    }
}

/// The high-water mark, then the live region (the consumed prefix is
/// dead state and is not captured).
impl<T: Codec> Codec for FlatFifo<T> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            buf,
            head,
            high_water,
        } = self;
        w.put(high_water);
        encode_seq(buf[*head..].iter(), w);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let high_water: usize = r.get()?;
        let buf: Vec<T> = r.get()?;
        Ok(Self {
            high_water: high_water.max(buf.len()),
            buf,
            head: 0,
        })
    }
}

/// The unsorted flag, then the live region in buffer order (a sealed
/// queue's live region is already in pop order; restoring reproduces the
/// exact pop sequence either way).
impl<T: Codec> Codec for MergeQueue<T> {
    #[cold]
    fn encode(&self, w: &mut ByteWriter) {
        let Self { buf, head, dirty } = self;
        w.put(dirty);
        encode_seq(buf[*head..].iter(), w);
    }

    #[cold]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let dirty = r.get()?;
        Ok(Self {
            buf: r.get()?,
            head: 0,
            dirty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_fifo_fifo_order_and_swap() {
        let mut q: FlatFifo<u32> = FlatFifo::default();
        let mut out = vec![1, 2, 3];
        q.absorb(&mut out);
        assert!(out.is_empty());
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.pop_front(), Some(&1));
        // Non-empty absorb appends in order.
        out.extend([4, 5]);
        q.absorb(&mut out);
        assert_eq!(q.len(), 4);
        for want in 2..=5 {
            assert_eq!(q.pop_front(), Some(&want));
        }
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 4);
        // Empty-side absorb swaps: the producer gets a buffer back.
        out.extend([7]);
        q.absorb(&mut out);
        assert!(out.capacity() >= 1);
        assert_eq!(q.pop_front(), Some(&7));
    }

    #[test]
    fn flat_fifo_steady_state_does_not_allocate() {
        let mut q: FlatFifo<u64> = FlatFifo::default();
        let mut out: Vec<u64> = Vec::new();
        // Warm up until both sides hold a buffer, then check the buffer
        // pointers only ever swap between the two sides.
        for round in 0..2u64 {
            out.extend(round..round + 8);
            q.absorb(&mut out);
            while q.pop_front().is_some() {}
        }
        let mut ptrs = [q.buf.as_ptr(), out.as_ptr()];
        ptrs.sort();
        for round in 0..100u64 {
            out.extend(round..round + 8);
            q.absorb(&mut out);
            while q.pop_front().is_some() {}
            let mut now = [q.buf.as_ptr(), out.as_ptr()];
            now.sort();
            assert_eq!(now, ptrs, "double-buffer swap reallocated");
        }
    }

    #[test]
    fn merge_queue_matches_heap_pop_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let runs: Vec<Vec<(u64, u32)>> = vec![
            vec![(5, 1), (5, 0), (9, 2)],
            vec![(3, 7), (12, 1)],
            vec![],
            vec![(5, 3), (4, 4)],
        ];
        let mut heap = BinaryHeap::new();
        let mut mq: MergeQueue<(u64, u32)> = MergeQueue::default();
        for run in &runs {
            for &m in run {
                heap.push(Reverse(m));
            }
            let mut run = run.clone();
            mq.absorb_run(&mut run);
        }
        mq.seal();
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(mq.pop(), Some(&want));
        }
        assert_eq!(mq.pop(), None);
    }

    #[test]
    fn merge_queue_interleaved_barriers() {
        let mut mq: MergeQueue<u64> = MergeQueue::default();
        let mut run = vec![4, 2];
        mq.absorb_run(&mut run);
        mq.seal();
        assert_eq!(mq.pop(), Some(&2));
        // A later barrier merges behind the consumed prefix.
        run.extend([1, 3]);
        mq.absorb_run(&mut run);
        mq.seal();
        for want in [1u64, 3, 4] {
            assert_eq!(mq.pop(), Some(&want));
        }
        assert_eq!(mq.len(), 0);
    }
}
