//! DRAM commands and their issuers.

/// The DRAM command types modeled by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate (open) a row.
    Act,
    /// Precharge (close) one bank.
    Pre,
    /// Precharge all banks in a rank.
    PreAll,
    /// Column read (one cache-line burst).
    Rd,
    /// Column write (one cache-line burst).
    Wr,
    /// All-bank refresh.
    RefAb,
}

impl CommandKind {
    /// True for column commands that move data on the bus.
    #[inline]
    pub fn is_column(self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::Wr)
    }

    /// True for row commands (activate / precharge family).
    #[inline]
    pub fn is_row(self) -> bool {
        matches!(
            self,
            CommandKind::Act | CommandKind::Pre | CommandKind::PreAll
        )
    }
}

/// Which side of the channel issued a command — the host memory controller
/// or a near-data-accelerator controller. Used for statistics, energy
/// accounting, and the idle-gap histogram of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Issuer {
    /// The host (CPU-side) memory controller.
    Host,
    /// A rank-local NDA memory controller.
    Nda,
}

/// A fully-addressed DRAM command within one channel.
///
/// `row`/`col` are ignored for commands that do not need them (`Pre`,
/// `PreAll`, `RefAb`). Columns are in cache-line-burst units
/// (0..`lines_per_row`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Command {
    /// Command type.
    pub kind: CommandKind,
    /// Target rank within the channel.
    pub rank: usize,
    /// Target bank group.
    pub bankgroup: usize,
    /// Target bank within the bank group.
    pub bank: usize,
    /// Target row (Act only).
    pub row: u32,
    /// Target column in cache-line units (Rd/Wr only).
    pub col: u32,
}

impl Command {
    /// Activate `row` in the addressed bank.
    pub fn act(rank: usize, bankgroup: usize, bank: usize, row: u32) -> Self {
        Self {
            kind: CommandKind::Act,
            rank,
            bankgroup,
            bank,
            row,
            col: 0,
        }
    }

    /// Precharge the addressed bank.
    pub fn pre(rank: usize, bankgroup: usize, bank: usize) -> Self {
        Self {
            kind: CommandKind::Pre,
            rank,
            bankgroup,
            bank,
            row: 0,
            col: 0,
        }
    }

    /// Precharge every bank in `rank`.
    pub fn pre_all(rank: usize) -> Self {
        Self {
            kind: CommandKind::PreAll,
            rank,
            bankgroup: 0,
            bank: 0,
            row: 0,
            col: 0,
        }
    }

    /// Read one cache-line burst from the open row.
    ///
    /// `row` is carried for trace readability and checker cross-validation;
    /// the device uses the currently open row.
    pub fn rd(rank: usize, bankgroup: usize, bank: usize, row: u32, col: u32) -> Self {
        Self {
            kind: CommandKind::Rd,
            rank,
            bankgroup,
            bank,
            row,
            col,
        }
    }

    /// Write one cache-line burst to the open row.
    pub fn wr(rank: usize, bankgroup: usize, bank: usize, row: u32, col: u32) -> Self {
        Self {
            kind: CommandKind::Wr,
            rank,
            bankgroup,
            bank,
            row,
            col,
        }
    }

    /// All-bank refresh of `rank`.
    pub fn ref_ab(rank: usize) -> Self {
        Self {
            kind: CommandKind::RefAb,
            rank,
            bankgroup: 0,
            bank: 0,
            row: 0,
            col: 0,
        }
    }

    /// Flat bank index within the rank (`bankgroup * banks_per_group + bank`).
    #[inline]
    pub fn flat_bank(&self, banks_per_group: usize) -> usize {
        self.bankgroup * banks_per_group + self.bank
    }
}

crate::codec! {
    enum CommandKind {
        0 => Act,
        1 => Pre,
        2 => PreAll,
        3 => Rd,
        4 => Wr,
        5 => RefAb,
    }
}

crate::codec! { Command { kind, rank, bankgroup, bank, row, col } }

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CommandKind::Act => {
                write!(
                    f,
                    "ACT  r{} bg{} b{} row{}",
                    self.rank, self.bankgroup, self.bank, self.row
                )
            }
            CommandKind::Pre => {
                write!(f, "PRE  r{} bg{} b{}", self.rank, self.bankgroup, self.bank)
            }
            CommandKind::PreAll => write!(f, "PREA r{}", self.rank),
            CommandKind::Rd => write!(
                f,
                "RD   r{} bg{} b{} row{} col{}",
                self.rank, self.bankgroup, self.bank, self.row, self.col
            ),
            CommandKind::Wr => write!(
                f,
                "WR   r{} bg{} b{} row{} col{}",
                self.rank, self.bankgroup, self.bank, self.row, self.col
            ),
            CommandKind::RefAb => write!(f, "REF  r{}", self.rank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(CommandKind::Rd.is_column());
        assert!(CommandKind::Wr.is_column());
        assert!(!CommandKind::Act.is_column());
        assert!(CommandKind::Act.is_row());
        assert!(CommandKind::PreAll.is_row());
        assert!(!CommandKind::RefAb.is_row());
        assert!(!CommandKind::RefAb.is_column());
    }

    #[test]
    fn flat_bank_indexing() {
        let c = Command::rd(1, 3, 2, 7, 5);
        assert_eq!(c.flat_bank(4), 14);
    }

    #[test]
    fn display_is_nonempty() {
        for c in [
            Command::act(0, 0, 0, 1),
            Command::pre(0, 0, 0),
            Command::pre_all(0),
            Command::rd(0, 0, 0, 1, 2),
            Command::wr(0, 0, 0, 1, 2),
            Command::ref_ab(0),
        ] {
            assert!(!format!("{c}").is_empty());
        }
    }
}
