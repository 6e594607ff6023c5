//! Micro-benchmark of the NDA-FSM layer: one rank controller and its
//! host-side shadow FSM on a Table II channel, streaming AXPY
//! instructions through the shard's offer-and-mirror loop (offer the
//! controller its planned-ready cycle, mirror every launch and column
//! grant onto the shadow, pop completions on both sides). Reports ns per
//! granted column command (`make perf-micro`, or
//! `cargo bench -p chopim-nda`).
//!
//! The median is noisy: eight runs of one build, pinned to one CPU of a
//! 2-vCPU VM, read 86.5–120.4 ns per command. Compare two builds with
//! alternating runs, never with one run each.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use chopim_dram::{Channel, CommandKind, Cycle, DramConfig};
use chopim_nda::controller::NdaTickResult;
use chopim_nda::{NdaFsm, NdaInstr, NdaRankController, Opcode, OperandLayout};

/// Column grants per timed iteration.
const GRANTS: u64 = 4096;

/// Lines per AXPY instruction: 32 rows of a 16-bank rotating layout.
const LINES: u64 = 32 * 128;

struct Rank {
    ch: Channel,
    ctl: NdaRankController,
    shadow: NdaFsm,
    x: Arc<OperandLayout>,
    y: Arc<OperandLayout>,
    next_id: u64,
    now: Cycle,
}

impl Rank {
    fn new() -> Self {
        let cfg = DramConfig::table_ii();
        let queue_cap = 2;
        Self {
            ch: Channel::new(&cfg),
            ctl: NdaRankController::new(0, queue_cap),
            shadow: NdaFsm::new(queue_cap),
            x: OperandLayout::rotating(16, 0, 32, 128),
            y: OperandLayout::rotating(16, 1000, 32, 128),
            next_id: 0,
            now: 0,
        }
    }

    /// Run offered cycles until `grants` more column commands issued.
    fn run(&mut self, grants: u64) {
        let mut granted = 0;
        while granted < grants {
            while self.ctl.fsm().queue_space() > 0 {
                let (x, y) = (self.x.clone(), self.y.clone());
                let reads = vec![(x, 0), (y.clone(), 0)];
                let instr =
                    NdaInstr::elementwise(Opcode::Axpy, LINES, reads, vec![(y, 0)], self.next_id);
                self.next_id += 1;
                self.shadow.launch(instr.clone()).expect("shadow has room");
                self.ctl.launch(instr).expect("queue has room");
            }
            // Offer the controller its planned-ready cycle, as the
            // fast-forward shard does.
            if let Some(ready) = self.ctl.planned_ready(&self.ch) {
                self.now = self.now.max(ready);
            }
            let result = self.ctl.tick(&mut self.ch, self.now, || true);
            if let NdaTickResult::Issued(cmd) = result {
                if matches!(cmd.kind, CommandKind::Rd | CommandKind::Wr) {
                    let acc = self.shadow.next_access().expect("shadow wants it too");
                    self.shadow.commit(acc);
                    granted += 1;
                }
            }
            while let Some(id) = self.ctl.pop_completed() {
                assert_eq!(self.shadow.pop_completed(), Some(id));
            }
            self.now += 1;
        }
        assert_eq!(self.ctl.fsm().fingerprint(), self.shadow.fingerprint());
    }
}

fn bench_sequencer(c: &mut Criterion) {
    let mut g = c.benchmark_group("nda_sequencer");
    g.throughput(Throughput::Elements(GRANTS));
    g.bench_function(
        "controller+shadow, AXPY stream (per granted command)",
        |b| {
            let mut rank = Rank::new();
            b.iter(|| {
                rank.run(GRANTS);
                black_box(rank.now)
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_sequencer);
criterion_main!(benches);
