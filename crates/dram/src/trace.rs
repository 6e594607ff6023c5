//! Compact binary event traces: capture and replay.
//!
//! A trace records everything needed to re-drive the channel model
//! without the engine that produced it: the full DRAM command stream
//! (with issuers), NDA launches, and completions, in global cycle
//! order. The encoding (normative spec: `docs/TRACE_FORMAT.md`) keeps
//! files small with two techniques:
//!
//! * **delta-encoded cycles** — each record stores the varint distance
//!   to the previous record's cycle instead of an absolute `u64`;
//! * **run-length encoding** — streaming accesses issue long runs of
//!   column commands to the same bank/row with constant cycle and
//!   column strides; a run collapses into one `CmdRun` record.
//!
//! Replay ([`replay`]) rebuilds fresh channels for the same
//! configuration and re-issues every command through the *validating*
//! [`Channel::issue`] path. Because the device model is deterministic,
//! a legal capture replays legally and reproduces the original
//! [`DramStats`] exactly — so replay doubles as an end-to-end check of
//! both the trace and the encoder.

#![warn(clippy::cast_possible_truncation)]

use crate::channel::IssueError;
use crate::codec::{read_framed, write_framed, ByteReader, ByteWriter, CodecError};
use crate::command::{Command, CommandKind, Issuer};
use crate::config::DramConfig;
use crate::stats::DramStats;
use crate::{Channel, Cycle};

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"CHTR";
/// Trace format version this build reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Record tag: one DRAM command.
const TAG_CMD: u8 = 0x01;
/// Record tag: an RLE run of column commands.
const TAG_CMD_RUN: u8 = 0x02;
/// Record tag: an NDA instruction launch.
const TAG_LAUNCH: u8 = 0x03;
/// Record tag: an NDA instruction completion.
const TAG_COMPLETION: u8 = 0x04;

/// One captured event, with its absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A DRAM command applied on `channel` at `cycle`.
    Cmd {
        /// Absolute cycle the command issued.
        cycle: Cycle,
        /// Channel index.
        channel: u32,
        /// The command.
        cmd: Command,
        /// Host or NDA origin.
        issuer: Issuer,
    },
    /// An NDA instruction entered a rank controller's queue.
    Launch {
        /// Absolute launch-delivery cycle.
        cycle: Cycle,
        /// Channel index of the receiving rank.
        channel: u32,
        /// Channel-local NDA index.
        nda_local: u32,
        /// The launched instruction's id.
        instr_id: u64,
    },
    /// An NDA instruction finished (all writes drained).
    Completion {
        /// Absolute completion cycle.
        cycle: Cycle,
        /// The completed instruction's id.
        instr_id: u64,
    },
}

impl TraceEvent {
    /// The event's absolute cycle.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Cmd { cycle, .. }
            | TraceEvent::Launch { cycle, .. }
            | TraceEvent::Completion { cycle, .. } => cycle,
        }
    }
}

/// A decoded trace: header fields plus the event stream in cycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Fingerprint of the [`DramConfig`] the capture ran under.
    pub config_fingerprint: u64,
    /// The simulation end cycle (used to finalize idle histograms).
    pub end_cycle: Cycle,
    /// All events, non-decreasing in cycle.
    pub events: Vec<TraceEvent>,
}

fn pack_kind_issuer(kind: CommandKind, issuer: Issuer) -> u8 {
    let k = match kind {
        CommandKind::Act => 0,
        CommandKind::Pre => 1,
        CommandKind::PreAll => 2,
        CommandKind::Rd => 3,
        CommandKind::Wr => 4,
        CommandKind::RefAb => 5,
    };
    k | (u8::from(issuer == Issuer::Nda) << 3)
}

fn unpack_kind_issuer(byte: u8) -> Result<(CommandKind, Issuer), CodecError> {
    let kind = match byte & 0x07 {
        0 => CommandKind::Act,
        1 => CommandKind::Pre,
        2 => CommandKind::PreAll,
        3 => CommandKind::Rd,
        4 => CommandKind::Wr,
        5 => CommandKind::RefAb,
        _ => return Err(CodecError::Corrupt("command kind")),
    };
    let issuer = if byte & 0x08 != 0 {
        Issuer::Nda
    } else {
        Issuer::Host
    };
    if byte & 0xf0 != 0 {
        return Err(CodecError::Corrupt("kind/issuer reserved bits"));
    }
    Ok((kind, issuer))
}

fn write_cmd_site(w: &mut ByteWriter, channel: u32, cmd: &Command, issuer: Issuer) {
    w.varint(u64::from(channel));
    w.u8(pack_kind_issuer(cmd.kind, issuer));
    w.varint(cmd.rank as u64);
    w.varint(cmd.bankgroup as u64);
    w.varint(cmd.bank as u64);
    w.varint(u64::from(cmd.row));
    w.varint(u64::from(cmd.col));
}

fn read_cmd_site(r: &mut ByteReader<'_>) -> Result<(u32, Command, Issuer), CodecError> {
    let channel = r.varint_u32()?;
    let (kind, issuer) = unpack_kind_issuer(r.u8()?)?;
    let rank = r.varint_usize()?;
    let bankgroup = r.varint_usize()?;
    let bank = r.varint_usize()?;
    let row = r.varint_u32()?;
    let col = r.varint_u32()?;
    let cmd = Command {
        kind,
        rank,
        bankgroup,
        bank,
        row,
        col,
    };
    Ok((channel, cmd, issuer))
}

/// Length of the column-command run starting at `events[i]`: maximal
/// prefix with identical channel/kind/issuer/rank/bankgroup/bank/row
/// and constant cycle and column strides.
fn run_len(events: &[TraceEvent], i: usize) -> usize {
    let TraceEvent::Cmd {
        cycle,
        channel,
        cmd,
        issuer,
    } = events[i]
    else {
        return 1;
    };
    if !cmd.kind.is_column() {
        return 1;
    }
    let mut len = 1;
    let mut cycle_stride = None;
    let mut col_stride = None;
    let (mut prev_cycle, mut prev_col) = (cycle, cmd.col);
    for e in &events[i + 1..] {
        let TraceEvent::Cmd {
            cycle: c2,
            channel: ch2,
            cmd: cmd2,
            issuer: is2,
        } = *e
        else {
            break;
        };
        if ch2 != channel
            || is2 != issuer
            || cmd2.kind != cmd.kind
            || cmd2.rank != cmd.rank
            || cmd2.bankgroup != cmd.bankgroup
            || cmd2.bank != cmd.bank
            || cmd2.row != cmd.row
        {
            break;
        }
        let dc = c2 - prev_cycle;
        let dcol = i64::from(cmd2.col) - i64::from(prev_col);
        match (cycle_stride, col_stride) {
            (None, None) => {
                cycle_stride = Some(dc);
                col_stride = Some(dcol);
            }
            (Some(cs), Some(ks)) if cs == dc && ks == dcol => {}
            _ => break,
        }
        prev_cycle = c2;
        prev_col = cmd2.col;
        len += 1;
    }
    len
}

/// Encode `events` (already sorted by cycle) into a framed trace file.
///
/// # Panics
///
/// Panics in debug builds when `events` is not sorted by cycle.
#[cold]
pub fn encode_trace(config_fingerprint: u64, end_cycle: Cycle, events: &[TraceEvent]) -> Vec<u8> {
    debug_assert!(
        events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()),
        "trace events must be sorted by cycle"
    );
    let mut w = ByteWriter::new();
    w.u64(config_fingerprint);
    w.varint(end_cycle);
    let mut last_cycle: Cycle = 0;
    let mut i = 0;
    while i < events.len() {
        let len = run_len(events, i);
        match events[i] {
            TraceEvent::Cmd {
                cycle,
                channel,
                cmd,
                issuer,
            } if len >= 3 => {
                // A run only pays off once the per-command fields it
                // elides outweigh its two stride fields — at 3+ commands.
                let TraceEvent::Cmd {
                    cycle: c1, cmd: m1, ..
                } = events[i + 1]
                else {
                    unreachable!("run_len > 1 implies Cmd follows");
                };
                w.u8(TAG_CMD_RUN);
                w.varint(cycle - last_cycle);
                w.varint(len as u64);
                w.varint(c1 - cycle);
                w.varint_signed(i64::from(m1.col) - i64::from(cmd.col));
                write_cmd_site(&mut w, channel, &cmd, issuer);
                last_cycle = events[i + len - 1].cycle();
                i += len;
            }
            TraceEvent::Cmd {
                cycle,
                channel,
                cmd,
                issuer,
            } => {
                w.u8(TAG_CMD);
                w.varint(cycle - last_cycle);
                write_cmd_site(&mut w, channel, &cmd, issuer);
                last_cycle = cycle;
                i += 1;
            }
            TraceEvent::Launch {
                cycle,
                channel,
                nda_local,
                instr_id,
            } => {
                w.u8(TAG_LAUNCH);
                w.varint(cycle - last_cycle);
                w.varint(u64::from(channel));
                w.varint(u64::from(nda_local));
                w.varint(instr_id);
                last_cycle = cycle;
                i += 1;
            }
            TraceEvent::Completion { cycle, instr_id } => {
                w.u8(TAG_COMPLETION);
                w.varint(cycle - last_cycle);
                w.varint(instr_id);
                last_cycle = cycle;
                i += 1;
            }
        }
    }
    write_framed(TRACE_MAGIC, TRACE_VERSION, w.finish())
}

/// Decode a framed trace file back into its event stream.
///
/// # Errors
///
/// All [`CodecError`] variants: wrong magic/version, truncation, a
/// checksum mismatch, or structurally impossible record fields.
#[cold]
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, CodecError> {
    let payload = read_framed(TRACE_MAGIC, TRACE_VERSION, bytes)?;
    let mut r = ByteReader::new(payload);
    let config_fingerprint = r.u64()?;
    let end_cycle = r.varint()?;
    let mut events = Vec::new();
    let mut cycle: Cycle = 0;
    while !r.is_empty() {
        let tag = r.u8()?;
        let delta = r.varint()?;
        cycle = cycle
            .checked_add(delta)
            .ok_or(CodecError::Corrupt("cycle overflow"))?;
        match tag {
            TAG_CMD => {
                let (channel, cmd, issuer) = read_cmd_site(&mut r)?;
                events.push(TraceEvent::Cmd {
                    cycle,
                    channel,
                    cmd,
                    issuer,
                });
            }
            TAG_CMD_RUN => {
                let count = r.varint_usize()?;
                if count < 2 {
                    return Err(CodecError::Corrupt("run shorter than 2"));
                }
                let cycle_stride = r.varint()?;
                let col_stride = r.varint_signed()?;
                let (channel, cmd, issuer) = read_cmd_site(&mut r)?;
                let mut c = cycle;
                let mut col = i64::from(cmd.col);
                for k in 0..count {
                    if k > 0 {
                        c = c
                            .checked_add(cycle_stride)
                            .ok_or(CodecError::Corrupt("run cycle overflow"))?;
                        col += col_stride;
                    }
                    let col = u32::try_from(col).map_err(|_| CodecError::Corrupt("run column"))?;
                    events.push(TraceEvent::Cmd {
                        cycle: c,
                        channel,
                        cmd: Command { col, ..cmd },
                        issuer,
                    });
                }
                cycle = c;
            }
            TAG_LAUNCH => {
                let channel = r.varint_u32()?;
                let nda_local = r.varint_u32()?;
                let instr_id = r.varint()?;
                events.push(TraceEvent::Launch {
                    cycle,
                    channel,
                    nda_local,
                    instr_id,
                });
            }
            TAG_COMPLETION => {
                let instr_id = r.varint()?;
                events.push(TraceEvent::Completion { cycle, instr_id });
            }
            _ => return Err(CodecError::Corrupt("unknown record tag")),
        }
    }
    Ok(Trace {
        config_fingerprint,
        end_cycle,
        events,
    })
}

/// Why a replay stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace file itself failed to decode.
    Codec(CodecError),
    /// The trace was captured under a different configuration.
    ConfigMismatch {
        /// Fingerprint in the trace header.
        trace: u64,
        /// Fingerprint of the replay configuration.
        config: u64,
    },
    /// A channel index in the trace exceeds the configuration.
    BadChannel(u32),
    /// A command was illegal against the replayed device state — the
    /// trace does not describe a valid execution.
    Illegal {
        /// Cycle of the failing command.
        cycle: Cycle,
        /// Channel the command targeted.
        channel: u32,
        /// The rejected command.
        cmd: Command,
        /// The device model's rejection reason.
        err: IssueError,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Codec(e) => write!(f, "trace decode failed: {e}"),
            ReplayError::ConfigMismatch { trace, config } => write!(
                f,
                "trace captured under config {trace:#018x}, replaying under {config:#018x}"
            ),
            ReplayError::BadChannel(ch) => write!(f, "trace channel {ch} out of range"),
            ReplayError::Illegal {
                cycle,
                channel,
                cmd,
                err,
            } => write!(
                f,
                "illegal command at cycle {cycle} channel {channel}: {cmd} ({err:?})"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<CodecError> for ReplayError {
    fn from(e: CodecError) -> Self {
        ReplayError::Codec(e)
    }
}

/// The result of re-driving the channel model from a trace.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The channels after the full command stream, stats finalized.
    pub channels: Vec<Channel>,
    /// Aggregated DRAM statistics (identical to the capture's).
    pub stats: DramStats,
    /// The trace's end cycle.
    pub end_cycle: Cycle,
    /// Commands re-issued.
    pub commands: u64,
    /// Launch records seen (informational; replay does not model NDAs).
    pub launches: u64,
    /// Completion records seen.
    pub completions: u64,
}

/// Replay a decoded trace against fresh channels built for `cfg`,
/// validating every command against the device model.
///
/// # Errors
///
/// [`ReplayError::ConfigMismatch`] when the fingerprints disagree, and
/// [`ReplayError::Illegal`] when the device model rejects a command —
/// either means the trace does not describe an execution of `cfg`.
pub fn replay(cfg: &DramConfig, trace: &Trace) -> Result<ReplayOutcome, ReplayError> {
    let fingerprint = cfg.state_fingerprint();
    if trace.config_fingerprint != fingerprint {
        return Err(ReplayError::ConfigMismatch {
            trace: trace.config_fingerprint,
            config: fingerprint,
        });
    }
    let mut channels: Vec<Channel> = (0..cfg.channels).map(|_| Channel::new(cfg)).collect();
    let (mut commands, mut launches, mut completions) = (0u64, 0u64, 0u64);
    for e in &trace.events {
        match *e {
            TraceEvent::Cmd {
                cycle,
                channel,
                cmd,
                issuer,
            } => {
                let ch = channels
                    .get_mut(channel as usize)
                    .ok_or(ReplayError::BadChannel(channel))?;
                ch.issue(&cmd, issuer, cycle)
                    .map_err(|err| ReplayError::Illegal {
                        cycle,
                        channel,
                        cmd,
                        err,
                    })?;
                commands += 1;
            }
            TraceEvent::Launch { .. } => launches += 1,
            TraceEvent::Completion { .. } => completions += 1,
        }
    }
    let mut stats = DramStats::default();
    for ch in &mut channels {
        ch.stats.finalize(trace.end_cycle);
        stats.add_channel(&ch.stats);
    }
    Ok(ReplayOutcome {
        channels,
        stats,
        end_cycle: trace.end_cycle,
        commands,
        launches,
        completions,
    })
}

/// Replay a trace from its raw file bytes (decode + [`replay`]).
///
/// # Errors
///
/// Decode errors plus everything [`replay`] can return.
pub fn replay_bytes(cfg: &DramConfig, bytes: &[u8]) -> Result<ReplayOutcome, ReplayError> {
    let trace = decode_trace(bytes)?;
    replay(cfg, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn cmd_event(cycle: Cycle, cmd: Command, issuer: Issuer) -> TraceEvent {
        TraceEvent::Cmd {
            cycle,
            channel: 0,
            cmd,
            issuer,
        }
    }

    #[test]
    fn round_trip_mixed_events() {
        let events = vec![
            cmd_event(0, Command::act(0, 0, 0, 5), Issuer::Host),
            TraceEvent::Launch {
                cycle: 3,
                channel: 0,
                nda_local: 1,
                instr_id: 42,
            },
            cmd_event(20, Command::rd(0, 0, 0, 5, 0), Issuer::Host),
            cmd_event(24, Command::rd(0, 0, 0, 5, 1), Issuer::Host),
            cmd_event(28, Command::rd(0, 0, 0, 5, 2), Issuer::Host),
            cmd_event(32, Command::rd(0, 0, 0, 5, 3), Issuer::Host),
            TraceEvent::Completion {
                cycle: 40,
                instr_id: 42,
            },
        ];
        let bytes = encode_trace(0xabcd, 100, &events);
        let t = decode_trace(&bytes).unwrap();
        assert_eq!(t.config_fingerprint, 0xabcd);
        assert_eq!(t.end_cycle, 100);
        assert_eq!(t.events, events);
    }

    #[test]
    fn rle_compresses_streaming_runs() {
        // 128 reads with constant strides: one run record.
        let events: Vec<TraceEvent> = (0..128)
            .map(|i| {
                cmd_event(
                    100 + 4 * i as Cycle,
                    Command::rd(1, 2, 3, 7, i as u32),
                    Issuer::Nda,
                )
            })
            .collect();
        let bytes = encode_trace(1, 1000, &events);
        // Frame (24) + header (~10) + one run record (~15).
        assert!(
            bytes.len() < 64,
            "run not compressed: {} bytes",
            bytes.len()
        );
        assert_eq!(decode_trace(&bytes).unwrap().events, events);
    }

    #[test]
    fn truncated_and_corrupt_traces_rejected() {
        let events = vec![cmd_event(0, Command::act(0, 0, 0, 1), Issuer::Host)];
        let bytes = encode_trace(1, 10, &events);
        assert_eq!(
            decode_trace(&bytes[..bytes.len() - 3]),
            Err(CodecError::Truncated)
        );
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x55;
        assert!(decode_trace(&bad).is_err());
    }

    #[test]
    fn replay_reproduces_capture_stats() {
        let cfg = DramConfig::tiny().with_timing(TimingParams::ddr4_2400_no_refresh());
        let mut ch = Channel::new(&cfg);
        ch.enable_trace();
        // A small host/NDA mixture with row opens and column streams.
        ch.issue(&Command::act(0, 0, 0, 5), Issuer::Host, 0)
            .unwrap();
        ch.issue(&Command::act(1, 0, 0, 9), Issuer::Nda, 1).unwrap();
        let mut now = 40;
        for col in 0..16u32 {
            ch.issue(&Command::rd(0, 0, 0, 5, col), Issuer::Host, now)
                .unwrap();
            ch.issue(&Command::rd(1, 0, 0, 9, col), Issuer::Nda, now + 1)
                .unwrap();
            now += 8;
        }
        let end = now + 100;
        let events: Vec<TraceEvent> = ch
            .take_trace()
            .into_iter()
            .map(|(cycle, cmd, issuer)| TraceEvent::Cmd {
                cycle,
                channel: 0,
                cmd,
                issuer,
            })
            .collect();
        ch.stats.finalize(end);
        let mut want = DramStats::default();
        want.add_channel(&ch.stats);

        let bytes = encode_trace(cfg.state_fingerprint(), end, &events);
        let out = replay_bytes(&cfg, &bytes).unwrap();
        assert_eq!(out.stats, want);
        assert_eq!(out.commands, events.len() as u64);
        assert_eq!(out.channels[0].stats, ch.stats);
    }

    #[test]
    fn replay_rejects_wrong_config() {
        let cfg = DramConfig::tiny();
        let bytes = encode_trace(12345, 10, &[]);
        assert!(matches!(
            replay_bytes(&cfg, &bytes),
            Err(ReplayError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn replay_rejects_illegal_stream() {
        let cfg = DramConfig::tiny();
        // A read into a closed bank is illegal from reset.
        let events = vec![cmd_event(0, Command::rd(0, 0, 0, 5, 0), Issuer::Host)];
        let bytes = encode_trace(cfg.state_fingerprint(), 10, &events);
        assert!(matches!(
            replay_bytes(&cfg, &bytes),
            Err(ReplayError::Illegal { .. })
        ));
    }
}
