//! Per-bank state machines and timing registers, structure-of-arrays.
//!
//! The FR-FCFS scan, the eager-close sweep, the refresh precondition and
//! the event-horizon computation all walk *every bank of a rank* asking
//! one narrow question ("which row is open?", "when may the next ACT
//! issue?"). An array-of-structs layout makes those sweeps strided
//! gather loops; keeping each register class in its own contiguous array
//! turns them into dense slice scans the compiler autovectorizes (see
//! `benches/timing_kernels.rs`).
//!
//! Row-buffer state is a single `u32` per bank — [`CLOSED_ROW`]
//! (`u32::MAX`, never a legal row number) means precharged, anything
//! else is the open row. [`BankRef`] wraps one index and re-exposes the
//! old per-bank accessors (`state`, `open_row`, `is_row_hit`) so point
//! queries read the same as before the layout change.

use crate::Cycle;

/// Row-buffer sentinel: no row open (bank precharged). `u32::MAX` is
/// never a legal row number (row counts are far below 2^32).
pub const CLOSED_ROW: u32 = u32::MAX;

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankState {
    /// All rows precharged.
    #[default]
    Closed,
    /// `row` is latched in the row buffer.
    Opened {
        /// The currently open row.
        row: u32,
    },
}

/// The banks of one channel, flat-indexed, structure-of-arrays: one
/// contiguous register file per command class plus the open-row array.
#[derive(Debug, Clone, Default)]
pub struct Banks {
    /// Open row per bank, [`CLOSED_ROW`] when precharged.
    pub(crate) open_row: Vec<u32>,
    /// Earliest cycle an ACT may issue (tRP after PRE, tRC after prior
    /// ACT).
    pub(crate) next_act: Vec<Cycle>,
    /// Earliest cycle a PRE may issue (tRAS after ACT, tRTP after RD,
    /// write recovery after WR).
    pub(crate) next_pre: Vec<Cycle>,
    /// Earliest cycle a RD may issue (tRCD after ACT).
    pub(crate) next_rd: Vec<Cycle>,
    /// Earliest cycle a WR may issue (tRCD after ACT).
    pub(crate) next_wr: Vec<Cycle>,
}

impl Banks {
    /// `n` freshly precharged banks with no timing debt.
    pub fn new(n: usize) -> Self {
        Self {
            open_row: vec![CLOSED_ROW; n],
            next_act: vec![0; n],
            next_pre: vec![0; n],
            next_rd: vec![0; n],
            next_wr: vec![0; n],
        }
    }

    /// Number of banks.
    #[inline]
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// True when there are no banks (degenerate geometry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// A view of one bank by flat index.
    #[inline]
    pub fn get(&self, idx: usize) -> BankRef<'_> {
        BankRef { banks: self, idx }
    }

    /// The open-row array for a flat index range (the vectorizable scan
    /// surface — compare against [`CLOSED_ROW`]).
    #[inline]
    pub fn open_rows(&self, range: std::ops::Range<usize>) -> &[u32] {
        &self.open_row[range]
    }

    /// Latch `row` (ACT). Caller must have validated state and timing.
    pub(crate) fn do_activate(&mut self, idx: usize, row: u32) {
        debug_assert!(self.open_row[idx] == CLOSED_ROW, "ACT to open bank");
        self.open_row[idx] = row;
    }

    /// Precharge (PRE / PREA / REF prep).
    pub(crate) fn do_precharge(&mut self, idx: usize) {
        self.open_row[idx] = CLOSED_ROW;
    }
}

crate::codec! { Banks { open_row, next_act, next_pre, next_rd, next_wr } }

/// A read view of one bank inside a [`Banks`] slab. Re-exposes the
/// per-bank accessors so point queries (`channel.bank(r, bg, b)
/// .open_row()`) are unchanged by the structure-of-arrays layout.
#[derive(Debug, Clone, Copy)]
pub struct BankRef<'a> {
    banks: &'a Banks,
    idx: usize,
}

impl BankRef<'_> {
    /// Current row-buffer state.
    #[inline]
    pub fn state(&self) -> BankState {
        match self.banks.open_row[self.idx] {
            CLOSED_ROW => BankState::Closed,
            row => BankState::Opened { row },
        }
    }

    /// The open row, if any.
    #[inline]
    pub fn open_row(&self) -> Option<u32> {
        match self.banks.open_row[self.idx] {
            CLOSED_ROW => None,
            row => Some(row),
        }
    }

    /// True if `row` is currently latched (a row hit for column
    /// commands).
    #[inline]
    pub fn is_row_hit(&self, row: u32) -> bool {
        self.banks.open_row[self.idx] == row
    }

    /// Earliest cycle an ACT may issue.
    #[inline]
    pub fn next_act(&self) -> Cycle {
        self.banks.next_act[self.idx]
    }

    /// Earliest cycle a PRE may issue.
    #[inline]
    pub fn next_pre(&self) -> Cycle {
        self.banks.next_pre[self.idx]
    }

    /// Earliest cycle a RD may issue.
    #[inline]
    pub fn next_rd(&self) -> Cycle {
        self.banks.next_rd[self.idx]
    }

    /// Earliest cycle a WR may issue.
    #[inline]
    pub fn next_wr(&self) -> Cycle {
        self.banks.next_wr[self.idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_closed() {
        let b = Banks::new(4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.get(0).state(), BankState::Closed);
        assert_eq!(b.get(0).open_row(), None);
        assert!(!b.get(0).is_row_hit(0));
        assert!(b.open_rows(0..4).iter().all(|&r| r == CLOSED_ROW));
    }

    #[test]
    fn activate_then_precharge() {
        let mut b = Banks::new(2);
        b.do_activate(1, 17);
        assert_eq!(b.get(1).open_row(), Some(17));
        assert_eq!(b.get(1).state(), BankState::Opened { row: 17 });
        assert!(b.get(1).is_row_hit(17));
        assert!(!b.get(1).is_row_hit(18));
        // The neighbour is untouched.
        assert_eq!(b.get(0).open_row(), None);
        b.do_precharge(1);
        assert_eq!(b.get(1).state(), BankState::Closed);
    }

    #[test]
    #[should_panic(expected = "ACT to open bank")]
    #[cfg(debug_assertions)]
    fn double_activate_panics_in_debug() {
        let mut b = Banks::new(1);
        b.do_activate(0, 1);
        b.do_activate(0, 2);
    }
}
