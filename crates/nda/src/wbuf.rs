//! The NDA write buffer (Table II: 128 entries).
//!
//! PE results accumulate here; the NDA memory controller drains entries to
//! DRAM in bursts ("write phases"). The replicated FSMs track occupancy so
//! both sides agree when a drain — the window Chopim's write throttling
//! targets — starts and ends (paper §III-D).

use std::collections::VecDeque;

/// One buffered write: the rank-local DRAM location of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferedWrite {
    /// Launched-instruction id the write belongs to (completion tracking).
    pub instr: u64,
    /// Flat bank index.
    pub bank: u16,
    /// Row.
    pub row: u32,
    /// Column (line units).
    pub col: u32,
}

/// Fixed-capacity write buffer with drain hysteresis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBuffer {
    entries: VecDeque<BufferedWrite>,
    capacity: usize,
    high: usize,
    low: usize,
    draining: bool,
    /// Total writes ever drained (for stats/fingerprints).
    pub drained: u64,
}

impl WriteBuffer {
    /// A buffer of `capacity` entries that starts draining at `high`
    /// occupancy and stops at `low`.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high <= capacity`.
    pub fn new(capacity: usize, high: usize, low: usize) -> Self {
        assert!(
            low < high && high <= capacity,
            "watermarks must satisfy low < high <= cap"
        );
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            high,
            low,
            draining: false,
            drained: 0,
        }
    }

    /// The paper's configuration: 128 entries, drain at 96 down to 16.
    pub fn table_ii() -> Self {
        Self::new(128, 96, 16)
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further writes can be absorbed.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Absorb a PE result write.
    ///
    /// # Errors
    ///
    /// Returns the write back when the buffer is full (the PE must stall).
    pub fn push(&mut self, w: BufferedWrite) -> Result<(), BufferedWrite> {
        if self.is_full() {
            return Err(w);
        }
        self.entries.push_back(w);
        if self.entries.len() >= self.high {
            self.draining = true;
        }
        Ok(())
    }

    /// True while the buffer wants to emit writes (hysteresis between the
    /// watermarks, or `force` — e.g. end of instruction — with anything
    /// left).
    pub fn wants_drain(&self, force: bool) -> bool {
        if self.entries.is_empty() {
            false
        } else if self.draining {
            true
        } else {
            force
        }
    }

    /// The next write to drain, if any.
    pub fn peek(&self) -> Option<BufferedWrite> {
        self.entries.front().copied()
    }

    /// Commit the drain of the front entry (after its WR command issued).
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn pop(&mut self) -> BufferedWrite {
        let w = self
            .entries
            .pop_front()
            .expect("pop from empty write buffer");
        self.drained += 1;
        if self.entries.len() <= self.low {
            self.draining = false;
        }
        w
    }

    /// True while a high-watermark drain phase is active (the throttling
    /// window).
    pub fn in_drain_phase(&self) -> bool {
        self.draining
    }

    /// Discard all buffered writes and leave any drain phase (rank-death
    /// abort support). The cumulative `drained` counter is preserved.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.draining = false;
    }
}

chopim_dram::codec! { BufferedWrite { instr, bank, row, col } }

// The watermark configuration rides along so a restore against a
// differently configured buffer is rejected rather than silently
// accepted. Occupancy against capacity is checked by `NdaFsm::validate`.
chopim_dram::codec! {
    in_place WriteBuffer {
        capacity: expect,
        high: expect,
        low: expect,
        entries,
        draining,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(col: u32) -> BufferedWrite {
        BufferedWrite {
            instr: 0,
            bank: 0,
            row: 0,
            col,
        }
    }

    #[test]
    fn hysteresis_between_watermarks() {
        let mut b = WriteBuffer::new(8, 6, 2);
        for i in 0..5 {
            b.push(w(i)).unwrap();
        }
        assert!(!b.wants_drain(false), "below high watermark");
        b.push(w(5)).unwrap();
        assert!(b.wants_drain(false), "reached high watermark");
        // Drain down to low.
        while b.len() > 2 {
            b.pop();
        }
        assert!(!b.wants_drain(false), "stops at low watermark");
        assert!(!b.is_empty());
    }

    #[test]
    fn force_drains_leftovers() {
        let mut b = WriteBuffer::new(8, 6, 2);
        b.push(w(0)).unwrap();
        assert!(!b.wants_drain(false));
        assert!(b.wants_drain(true));
        assert_eq!(b.pop(), w(0));
        assert!(!b.wants_drain(true), "empty buffer never drains");
    }

    #[test]
    fn full_buffer_rejects() {
        let mut b = WriteBuffer::new(2, 2, 0);
        b.push(w(0)).unwrap();
        b.push(w(1)).unwrap();
        assert_eq!(b.push(w(2)), Err(w(2)));
        assert!(b.is_full());
    }

    #[test]
    fn fifo_order_and_drain_count() {
        let mut b = WriteBuffer::table_ii();
        for i in 0..10 {
            b.push(w(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(b.peek(), Some(w(i)));
            assert_eq!(b.pop(), w(i));
        }
        assert_eq!(b.drained, 10);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn bad_watermarks_rejected() {
        let _ = WriteBuffer::new(8, 2, 6);
    }
}
