//! Per-layer measurements for the traced run, each taken by calling one
//! layer's public functions from here: the device model isolated by
//! trace capture and replay, the host core model driven standalone, and
//! the shard worker pool against the serial engine.

use std::collections::VecDeque;
use std::time::Instant;

use chopim_core::prelude::*;
use chopim_dram::trace::replay_bytes;
use chopim_exp::spawn_spec_workload;
use chopim_host::OooCore;
use chopim_ml::SvrgTimeModel;

use crate::spans::Tracer;
use crate::stats::fastest;
use crate::workloads::{Bench, Plan};

/// The capture pass: every measurement re-run cold with trace capture
/// on, its trace encoded and replayed through the device model.
#[derive(Debug, Default)]
pub struct Capture {
    pub commands: u64,
    pub trace_bytes: u64,
    /// Reports of the captured runs, in the plan's point order.
    pub reports: Vec<SimReport>,
    /// Replays whose `DramStats` differ from the captured report's.
    pub mismatches: Vec<String>,
}

/// Capture and replay every measurement of `plan` (none for
/// `svrg_train`). Encode and replay are timed as `dram.trace_encode`
/// and `dram.replay` spans. Capture holds every event in memory, so it
/// stays out of the timed reps.
pub fn capture_replay(plan: &Plan, tr: &mut Tracer) -> Capture {
    let (prefix, points) = match plan.bench {
        Bench::SvrgTrain => return Capture::default(),
        Bench::OpSweep => (plan.specs[0].window, &plan.specs[1..]),
        _ => (0, &plan.specs[..]),
    };
    let mut cap = Capture::default();
    tr.span("bench.capture", |tr| {
        for spec in points {
            let mut sys = ChopimSystem::new(spec.cfg.clone());
            sys.enable_trace_capture();
            if prefix > 0 {
                sys.run(prefix);
            }
            spawn_spec_workload(&mut sys, spec.workload.clone());
            sys.run(spec.window);
            let report = sys.report();
            let bytes = tr.span("dram.trace_encode", |_| sys.trace_bytes());
            drop(sys);
            match tr.span("dram.replay", |_| replay_bytes(&spec.cfg.dram, &bytes)) {
                Ok(replayed) if replayed.stats == report.dram => cap.commands += replayed.commands,
                Ok(_) => cap
                    .mismatches
                    .push(format!("{}: replayed DramStats differ", spec.label)),
                Err(e) => cap
                    .mismatches
                    .push(format!("{}: replay failed: {e}", spec.label)),
            }
            cap.trace_bytes += bytes.len() as u64;
            cap.reports.push(report);
        }
    });
    cap
}

/// Host CPU cycles each standalone core runs per measurement.
const HOST_CYCLES: u64 = 100_000;
/// Fill latency of the ideal memory, in CPU cycles.
const HOST_FILL_LATENCY: u64 = 200;

/// Nanoseconds of host time per simulated core cycle: the workload's
/// core profiles driven through `OooCore::cpu_cycle` against an ideal
/// memory that accepts every request and fills each read after a fixed
/// latency. Fastest of five measurements; 0 when the workload runs no
/// host cores.
pub fn host_ns_per_core_cycle(plan: &Plan) -> f64 {
    let profiles = match plan.bench {
        Bench::SvrgTrain => vec![SvrgTimeModel::svrg_host_profile()],
        _ => {
            let cfg = &plan.specs[0].cfg;
            cfg.custom_profiles
                .clone()
                .or_else(|| cfg.mix.map(|m| m.profiles()))
                .unwrap_or_default()
        }
    };
    if profiles.is_empty() {
        return 0.0;
    }
    let one = || {
        let t = Instant::now();
        for (i, p) in profiles.iter().enumerate() {
            let mut core = OooCore::new(CoreConfig::default(), *p, plan.seed ^ (i as u64) << 8);
            let mut fills: VecDeque<(u64, u64)> = VecDeque::new();
            for now in 0..HOST_CYCLES {
                while let Some(&(_, id)) = fills.front().filter(|(due, _)| *due <= now) {
                    fills.pop_front();
                    core.fill(id);
                }
                core.cpu_cycle(&mut |req| {
                    if !req.is_write {
                        fills.push_back((now + HOST_FILL_LATENCY, req.id));
                    }
                    true
                });
            }
            std::hint::black_box(core.retired_instructions());
        }
        t.elapsed().as_nanos() as f64 / (HOST_CYCLES * profiles.len() as u64) as f64
    };
    fastest(&(0..5).map(|_| one()).collect::<Vec<_>>())
}

/// Serial `run` time over pooled `run` time on a workload that uses the
/// shard worker pool (fastest of three alternating runs each); 0 when
/// the workload runs serially.
pub fn par_speedup(plan: &Plan) -> f64 {
    let Some(spec) = plan.specs.first().filter(|s| s.cfg.sim_threads > 1) else {
        return 0.0;
    };
    let time = |threads: usize| {
        let mut cfg = spec.cfg.clone();
        cfg.sim_threads = threads;
        let mut sys = ChopimSystem::new(cfg);
        spawn_spec_workload(&mut sys, spec.workload.clone());
        let t = Instant::now();
        sys.run(spec.window);
        t.elapsed().as_secs_f64()
    };
    let (mut serial, mut pooled) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        serial.push(time(1));
        pooled.push(time(spec.cfg.sim_threads));
    }
    fastest(&serial) / fastest(&pooled)
}
