//! The five workloads: the inputs each builds from the seed, what one
//! set-up and one rep do, and the checks on their outputs.
//!
//! Every workload is a closed loop — a fixed amount of work run back to
//! back — so its throughput is work per second at the sizes below. A
//! `div` argument divides those sizes: 1 is the timed size, 10 the
//! warm-up, 20 the correctness-check windows, and the tests use more.

use chopim_core::prelude::*;
use chopim_exp::{
    run_scenario, run_scenario_prefixed, spawn_spec_workload, ScenarioSpec, Workload,
};
use chopim_ml::svrg::{self, SvrgMode, SvrgTrace};
use chopim_ml::{Dataset, SvrgConfig, SvrgTimeModel};

use crate::spans::Tracer;
use crate::stats::{digest_debug, mean, FNV_BASIS};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The paper's core concurrent-access case: the SVRG host inner loop
    /// next to the NDA macro-AXPY stream on the bank-partitioned 2-channel
    /// machine. Host cores, the host MC, the device model and the NDA
    /// FSMs all work every cycle.
    SvrgColocated,
    /// One host-only prefix, snapshotted and forked into DOT, AXPY, AXPBY
    /// and COPY on shared banks: reads against writes on the same layers,
    /// and the only workload on the snapshot codec and warm-start path.
    OpSweep,
    /// 16 channels on a 2-thread shard pool: the only workload where the
    /// barrier exchange, per-shard horizons and the worker pool work.
    Wide16ch,
    /// 1000 streaming tenants with mixed QoS on an idle host: runtime
    /// arbitration, launch staging and fast-forward dominate.
    TenantFleet1k,
    /// The Fig. 15a pipeline: time model, optimum, seven SVRG traces.
    /// Almost all `ml` math, so it bypasses every engine optimisation.
    SvrgTrain,
}

pub const ALL: [Bench; 5] = [
    Bench::SvrgColocated,
    Bench::OpSweep,
    Bench::Wide16ch,
    Bench::TenantFleet1k,
    Bench::SvrgTrain,
];

// Timed sizes, chosen so one rep takes 0.3-1.3 s on a 2-vCPU x86-64
// virtual machine and a 20 s run holds at least ten reps.
const COLOCATED_WINDOW: u64 = 1_500_000;
const OP_PREFIX: u64 = 250_000;
const OP_POINT_WINDOW: u64 = 150_000;
const OP_ELEMS: usize = 1 << 15;
const OP_POINTS: [(&str, Opcode); 4] = [
    ("DOT", Opcode::Dot),
    ("AXPY", Opcode::Axpy),
    ("AXPBY", Opcode::Axpby),
    ("COPY", Opcode::Copy),
];
const WIDE_WINDOW: u64 = 150_000;
const WIDE_THREADS: usize = 2;
const FLEET_WINDOW: u64 = 500_000;
const SVRG_N: usize = 512;
const SVRG_D: usize = 128;
const SVRG_CLASSES: usize = 10;
const SVRG_RANKS: usize = 4;
const SVRG_LAMBDA: f32 = 1e-3;
const SVRG_OPT_ITERS: usize = 250;
const SVRG_MAX_OUTER: usize = 24;
/// The loss gap both HO and ACC must close (the Fig. 15a column).
pub const SVRG_GAP: f64 = 2e-2;
/// The Fig. 15a legend: HO and ACC at epochs N, N/2, N/4, plus
/// delayed update at N/4.
const SVRG_SERIES: [(SvrgMode, usize); 7] = [
    (SvrgMode::HostOnly, 1),
    (SvrgMode::HostOnly, 2),
    (SvrgMode::HostOnly, 4),
    (SvrgMode::Accelerated, 1),
    (SvrgMode::Accelerated, 2),
    (SvrgMode::Accelerated, 4),
    (SvrgMode::DelayedUpdate, 4),
];

/// `run()` calls are split into this many laps, and into as many spans
/// in the traced run, so ten chunk samples lie beyond the p95.
pub const CHUNKS: u64 = 200;

impl Bench {
    pub fn name(self) -> &'static str {
        match self {
            Bench::SvrgColocated => "svrg_colocated",
            Bench::OpSweep => "op_sweep",
            Bench::Wide16ch => "wide_16ch",
            Bench::TenantFleet1k => "tenant_fleet_1k",
            Bench::SvrgTrain => "svrg_train",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        ALL.into_iter().find(|b| b.name() == name)
    }
}

/// A spec with every environment-derived engine knob pinned, so the
/// benchmark measures the same engine whatever `CHOPIM_*` says.
fn pinned(seed: u64, window: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::with_window(window);
    s.seed = seed;
    s.cfg.seed = seed;
    s.cfg.sim_threads = 1;
    s.cfg.fixed_window = false;
    s.cfg.fast_forward = true;
    s.cfg.trace_path = None;
    s.cfg.faults = FaultPlan::NONE;
    s.cfg.verify_fsm = true;
    s
}

fn scaled(cycles: u64, div: u64) -> u64 {
    (cycles / div).max(1)
}

/// One workload's inputs at one seed and size.
pub struct Plan {
    pub bench: Bench,
    pub seed: u64,
    /// The machines one rep simulates, in order. `op_sweep`: the prefix
    /// machine (its window is the prefix) and then the four forked
    /// points; `svrg_train`: none.
    pub specs: Vec<ScenarioSpec>,
    /// `svrg_train` dataset size.
    pub svrg_n: usize,
}

/// What a set-up leaves for the rep: a built machine with its workload
/// spawned, or the SVRG dataset.
pub enum Prepared {
    Machine(Box<ChopimSystem>),
    Dataset(Dataset),
}

/// The SVRG pipeline's outputs.
#[derive(Debug)]
pub struct SvrgOut {
    pub model: SvrgTimeModel,
    pub traces: Vec<SvrgTrace>,
    /// Reference optimum loss the gaps are measured against.
    pub optimum: f64,
    pub dataset_bytes: u64,
}

impl SvrgOut {
    /// Best time to close [`SVRG_GAP`] over the traces of `mode`
    /// (infinite if none does).
    pub fn time_to_gap(&self, mode: SvrgMode) -> f64 {
        self.traces
            .iter()
            .filter(|t| t.mode == mode)
            .filter_map(|t| t.time_to_converge(self.optimum, SVRG_GAP))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Everything one rep produced.
#[derive(Debug, Default)]
pub struct RepOut {
    /// One report per simulated measurement (op_sweep: per point).
    pub reports: Vec<SimReport>,
    /// `(ticks executed, cycles leapt)` over every machine in the rep.
    pub ticks: (u64, u64),
    /// DRAM cycles simulated.
    pub sim_cycles: u64,
    /// op_sweep: size of the prefix snapshot.
    pub snapshot_bytes: usize,
    pub svrg: Option<SvrgOut>,
}

impl RepOut {
    /// FNV-1a over the `{:?}` of every output. A change that only speeds
    /// up the simulator must leave it unchanged.
    pub fn digest(&self) -> u64 {
        let h = self.reports.iter().fold(FNV_BASIS, digest_debug);
        match &self.svrg {
            Some(s) => digest_debug(h, &(s.model, &s.traces)),
            None => h,
        }
    }

    /// Modelled NDA bandwidth (GB/s): the mean over the rep's reports,
    /// or for the SVRG pipeline the dataset bytes over the modelled NDA
    /// summarisation time.
    pub fn nda_bw_gbs(&self) -> f64 {
        match &self.svrg {
            Some(s) => s.dataset_bytes as f64 / s.model.nda_summarize_s / 1e9,
            None => mean(self.reports.iter().map(|r| r.nda_bw_gbs)),
        }
    }

    /// Mean modelled host IPC over the rep's reports.
    pub fn host_ipc(&self) -> f64 {
        mean(self.reports.iter().map(|r| r.host_ipc))
    }

    /// The per-rep output checks: a fault-free run fails no tenant op
    /// and completes NDA work; the SVRG pipeline's HO and ACC both close
    /// the gap.
    pub fn check(&self) -> Result<(), String> {
        for (i, r) in self.reports.iter().enumerate() {
            if let Some(t) = r.tenants.iter().find(|t| t.ops_failed > 0) {
                return Err(format!(
                    "report {i}: session {} failed {} ops",
                    t.session, t.ops_failed
                ));
            }
            if r.nda_instrs_completed == 0 {
                return Err(format!("report {i}: no NDA instruction completed"));
            }
        }
        if let Some(s) = &self.svrg {
            for mode in [SvrgMode::HostOnly, SvrgMode::Accelerated] {
                if !s.time_to_gap(mode).is_finite() {
                    return Err(format!("{} never closed the {SVRG_GAP} gap", mode.label()));
                }
            }
        }
        Ok(())
    }
}

impl Plan {
    pub fn new(bench: Bench, seed: u64, div: u64) -> Plan {
        let mut specs = Vec::new();
        let mut svrg_n = 0;
        match bench {
            Bench::SvrgColocated => {
                let mut s = pinned(seed, scaled(COLOCATED_WINDOW, div));
                s.cfg.custom_profiles = Some(vec![SvrgTimeModel::svrg_host_profile()]);
                s.cfg.reserved_banks = 1;
                s.workload = Workload::MacroAxpyRows {
                    rows: 64,
                    d: 4096,
                    rows_per_instr: 8,
                    opts: LaunchOpts::default(),
                };
                specs.push(s);
            }
            Bench::OpSweep => {
                let mut base = pinned(seed, scaled(OP_PREFIX, div));
                base.cfg.reserved_banks = 0;
                base.cfg.mix = MixId::new(2);
                specs.push(base.clone());
                for (label, op) in OP_POINTS {
                    let mut p = base.clone();
                    p.label = label.to_string();
                    p.window = scaled(OP_POINT_WINDOW, div);
                    p.workload = Workload::elementwise(op, OP_ELEMS);
                    specs.push(p);
                }
            }
            Bench::Wide16ch => {
                let mut s = pinned(seed, scaled(WIDE_WINDOW, div));
                s.cfg.dram = DramConfig::table_ii().with_channels(16);
                s.cfg.mix = MixId::new(0);
                s.cfg.sim_threads = WIDE_THREADS;
                s.workload = Workload::MacroAxpyRows {
                    rows: 64,
                    d: 16384,
                    rows_per_instr: 8,
                    opts: LaunchOpts::default(),
                };
                specs.push(s);
            }
            Bench::TenantFleet1k => {
                let mut s = pinned(seed, scaled(FLEET_WINDOW, div));
                s.cfg.dram = DramConfig::table_ii().with_channels(8);
                s.workload = Workload::TenantFleet {
                    tenants: 1000,
                    shared_vectors: 16,
                    elems: 1 << 12,
                };
                specs.push(s);
            }
            Bench::SvrgTrain => svrg_n = (SVRG_N / div as usize).max(32),
        }
        Plan {
            bench,
            seed,
            specs,
            svrg_n,
        }
    }

    /// The set-up a user pays before simulating: build the machine and
    /// spawn its workload (`svrg_train`: generate the dataset).
    pub fn setup(&self, tr: &mut Tracer) -> Prepared {
        if self.bench == Bench::SvrgTrain {
            let (n, seed) = (self.svrg_n, self.seed);
            return Prepared::Dataset(tr.span("ml.dataset", |_| {
                Dataset::synthetic(n, SVRG_D, SVRG_CLASSES, seed)
            }));
        }
        let spec = &self.specs[0];
        let mut sys = tr.span("core.system.new", |_| ChopimSystem::new(spec.cfg.clone()));
        tr.span("exp.spawn", |_| {
            spawn_spec_workload(&mut sys, spec.workload.clone())
        });
        Prepared::Machine(Box::new(sys))
    }

    /// One rep on a prepared set-up. The machine is left in `prepared`
    /// so the caller drops it outside the timed region.
    pub fn rep(&self, prepared: &mut Prepared, tr: &mut Tracer) -> RepOut {
        match prepared {
            Prepared::Dataset(ds) => RepOut {
                svrg: Some(self.svrg_pipeline(ds, tr)),
                ..RepOut::default()
            },
            Prepared::Machine(sys) if self.bench == Bench::OpSweep => self.warm_sweep(sys, tr),
            Prepared::Machine(sys) => {
                let window = self.specs[0].window;
                run_chunked(tr, sys, window);
                let report = tr.span("core.system.report", |_| sys.report());
                RepOut {
                    reports: vec![report],
                    ticks: sys.tick_stats(),
                    sim_cycles: window,
                    ..RepOut::default()
                }
            }
        }
    }

    /// The warm-start sweep: simulate the prefix once, snapshot, and fork
    /// every point from the image — `capture_prefix` followed by
    /// `run_scenario_from`, spelled out so each call gets its own span.
    fn warm_sweep(&self, sys: &mut ChopimSystem, tr: &mut Tracer) -> RepOut {
        let prefix = self.specs[0].window;
        let image = tr.span("exp.capture_prefix", |tr| {
            run_chunked(tr, sys, prefix);
            tr.span("core.system.snapshot", |_| sys.snapshot())
        });
        let image = image.expect("a machine without spawned streams must snapshot");
        let mut out = RepOut {
            ticks: sys.tick_stats(),
            sim_cycles: prefix,
            snapshot_bytes: image.len(),
            ..RepOut::default()
        };
        for point in &self.specs[1..] {
            tr.span("exp.point", |tr| {
                let mut p = tr.span("core.system.resume", |_| {
                    ChopimSystem::resume(point.cfg.clone(), &image)
                });
                let p = p
                    .as_mut()
                    .expect("the image matches every point's configuration");
                let before = p.tick_stats();
                tr.span("exp.spawn", |_| {
                    spawn_spec_workload(p, point.workload.clone())
                });
                run_chunked(tr, p, point.window);
                out.reports
                    .push(tr.span("core.system.report", |_| p.report()));
                let after = p.tick_stats();
                out.ticks.0 += after.0 - before.0;
                out.ticks.1 += after.1 - before.1;
                out.sim_cycles += point.window;
            });
        }
        out
    }

    /// The Fig. 15a pipeline on `ds`.
    fn svrg_pipeline(&self, ds: &Dataset, tr: &mut Tracer) -> SvrgOut {
        let n = self.svrg_n;
        let model = tr.span("ml.timemodel", |_| {
            SvrgTimeModel::measure(n, SVRG_D, SVRG_CLASSES, SVRG_RANKS)
        });
        tr.lap();
        let gd_optimum = tr.span("ml.optimum", |_| {
            svrg::optimum_loss(ds, SVRG_LAMBDA, SVRG_OPT_ITERS)
        });
        tr.lap();
        let traces: Vec<SvrgTrace> = SVRG_SERIES
            .iter()
            .map(|&(mode, div)| {
                let epoch = (n / div).max(1);
                let cfg = SvrgConfig {
                    epoch,
                    lr: 0.04,
                    momentum: 0.9,
                    lambda: SVRG_LAMBDA,
                    max_outer: SVRG_MAX_OUTER * n / epoch,
                    seed: self.seed,
                };
                let trace = tr.span("ml.svrg_run", |_| svrg::run(mode, ds, cfg, &model));
                tr.lap();
                trace
            })
            .collect();
        // As in Fig. 15a, tighten the reference with the best loss any
        // trace reached, so every plotted gap is non-negative.
        let optimum = traces
            .iter()
            .map(SvrgTrace::best_loss)
            .fold(gd_optimum, f64::min)
            - 1e-9;
        SvrgOut {
            model,
            traces,
            optimum,
            dataset_bytes: ds.bytes(),
        }
    }

    /// The untimed correctness checks that compare engine modes on this
    /// plan's machines (build the plan at a reduced size): the fast loop
    /// against the naive loop, the worker pool against serial, and the
    /// warm-start fork against a cold prefixed run.
    pub fn engine_checks(&self) -> Vec<(&'static str, Result<(), String>)> {
        let same = |a: &SimReport, b: &SimReport, what: &str| {
            if a == b {
                Ok(())
            } else {
                Err(format!("{what}: reports differ"))
            }
        };
        let with = |spec: &ScenarioSpec, ff: bool, threads: usize| {
            let mut s = spec.clone();
            s.cfg.fast_forward = ff;
            s.cfg.sim_threads = threads;
            s
        };
        let mut checks = Vec::new();
        match self.bench {
            Bench::SvrgTrain => {}
            Bench::OpSweep => {
                let prefix = self.specs[0].window;
                let copy = self.specs.last().expect("op_sweep has points");
                let cold = run_scenario_prefixed(copy, prefix);
                let naive = run_scenario_prefixed(&with(copy, false, 1), prefix);
                checks.push(("fast_equals_naive", same(&cold, &naive, "naive loop")));
                let mut off = Tracer::new(false);
                let mut prepared = self.setup(&mut off);
                let warm = self.rep(&mut prepared, &mut off);
                let last = warm.reports.last().expect("one report per point");
                checks.push(("warm_equals_prefixed", same(last, &cold, "warm start")));
            }
            _ => {
                let spec = &self.specs[0];
                let threads = spec.cfg.sim_threads;
                let fast = run_scenario(spec);
                let naive = run_scenario(&with(spec, false, threads));
                checks.push(("fast_equals_naive", same(&fast, &naive, "naive loop")));
                if threads > 1 {
                    let serial = run_scenario(&with(spec, true, 1));
                    checks.push((
                        "threads_equal_serial",
                        same(&fast, &serial, "serial engine"),
                    ));
                }
            }
        }
        checks
    }
}

/// `sys.run(cycles)` split into [`CHUNKS`] calls, each closing a lap
/// (and, when tracing, a span). Slicing a run does not change the
/// simulation (the engine's admission view only refreshes on its window
/// grid), which the traced run checks against an unsliced capture pass.
pub fn run_chunked(tr: &mut Tracer, sys: &mut ChopimSystem, cycles: u64) {
    tr.span("core.system.run", |tr| {
        let mut done = 0;
        for i in 1..=CHUNKS {
            let upto = cycles * i / CHUNKS;
            tr.span("core.system.run_chunk", |_| sys.run(upto - done));
            tr.lap();
            done = upto;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_pins_the_environment_knobs() {
        for bench in ALL {
            for div in [1, 10, 20] {
                let plan = Plan::new(bench, 7, div);
                assert_eq!(plan.specs.is_empty(), bench == Bench::SvrgTrain);
                for s in &plan.specs {
                    let want_threads = if bench == Bench::Wide16ch { 2 } else { 1 };
                    assert_eq!(s.cfg.sim_threads, want_threads, "{}", bench.name());
                    assert!(!s.cfg.fixed_window, "{}", bench.name());
                    assert!(s.cfg.fast_forward, "{}", bench.name());
                    assert!(s.cfg.trace_path.is_none(), "{}", bench.name());
                    assert!(s.cfg.faults.is_empty(), "{}", bench.name());
                    assert!(s.cfg.verify_fsm, "{}", bench.name());
                    assert_eq!((s.seed, s.cfg.seed), (7, 7), "{}", bench.name());
                    assert!(s.window >= 1);
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for bench in ALL {
            assert_eq!(Bench::parse(bench.name()), Some(bench));
        }
        assert_eq!(Bench::parse("nope"), None);
    }
}
