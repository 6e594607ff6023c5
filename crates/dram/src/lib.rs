//! # chopim-dram
//!
//! A cycle-level DDR4 main-memory model: channels, ranks, bank groups and
//! banks with the full JEDEC timing-constraint set used by the Chopim paper
//! (Table II of "Near Data Acceleration with Concurrent Host Access",
//! ISCA 2020), including read/write bus-turnaround and rank-to-rank switch
//! penalties — the effects the paper's mechanisms target.
//!
//! The crate is deliberately *policy free*: it validates and applies DRAM
//! commands and tracks state/statistics, while schedulers (host FR-FCFS and
//! the per-rank NDA controllers) live in higher-level crates.
//!
//! ## Quick example
//!
//! ```
//! use chopim_dram::{Channel, Command, DramConfig, Issuer};
//!
//! let cfg = DramConfig::table_ii();
//! let mut ch = Channel::new(&cfg);
//! let act = Command::act(0, 0, 0, 42);
//! assert!(ch.can_issue(&act, Issuer::Host, 0));
//! ch.issue(&act, Issuer::Host, 0).unwrap();
//! // The bank needs tRCD before a column read can issue.
//! let rd = Command::rd(0, 0, 0, 42, 3);
//! assert!(!ch.can_issue(&rd, Issuer::Host, 1));
//! let t = ch.config().timing.rcd as u64;
//! assert!(ch.can_issue(&rd, Issuer::Host, t));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bank;
pub mod channel;
pub mod checker;
pub mod codec;
pub mod command;
pub mod config;
pub mod fault;
pub mod perfcount;
pub mod rank;
pub mod stats;
pub mod timing;
pub mod trace;

pub use addr::DramAddress;
pub use bank::{BankRef, BankState, Banks, CLOSED_ROW};
pub use channel::{Channel, DataReady, IssueError};
pub use checker::{CheckError, TimingChecker};
pub use command::{Command, CommandKind, Issuer};
pub use config::DramConfig;
pub use fault::FaultPlan;
pub use rank::{BankGroupTiming, Rank};
pub use stats::{DramStats, IdleBucket, IdleHistogram, RankStats};
pub use timing::TimingParams;

/// Simulation time measured in DRAM bus-clock cycles (1.2 GHz for the
/// paper's DDR4-2400 configuration).
pub type Cycle = u64;
