//! One benchmark run: an untimed warm-up, timed reps until the requested
//! seconds are spent, untimed correctness checks, and the metrics —
//! end-to-end from the untraced run, per layer from the traced run.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use chopim_dram::perfcount::{self, Counter, NUM_COUNTERS};
use chopim_ml::SvrgMode;

use crate::layers::{self, Capture};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{fastest, lap_floor, mean, median, peak_rss_mb, quantile, ratio};
use crate::workloads::{Bench, Plan, RepOut};

/// Timed reps run even if the seconds are already spent.
const MIN_REPS: usize = 3;
/// Set-ups timed per run; reps that run short are topped up with
/// set-up-only samples.
const MIN_SETUPS: usize = 9;
/// Dependent 64-bit multiplies in one clock probe: about 4 ms.
const PROBE_MULS: u64 = 4_000_000;
/// Core cycles one dependent 64-bit multiply takes: its latency on
/// current x86-64 cores (Intel since Nehalem, AMD since Zen).
const CYCLES_PER_MUL: f64 = 3.0;

/// Seconds a chain of [`PROBE_MULS`] dependent multiplies takes. Its
/// cycle count is fixed by the core, so its time measures the core
/// clock, which on a shared host changes from minute to minute.
fn clock_probe_s() -> f64 {
    let n = black_box(PROBE_MULS);
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..n {
        // Squaring makes each multiply wait for the one before; a
        // constant factor would let the compiler fold the chain.
        x = x.wrapping_mul(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// The core clock in GHz from a run's probes: the fastest probe, as the
/// lap floor is built from the fastest laps.
fn clock_ghz(probe_s: &[f64]) -> f64 {
    ratio(PROBE_MULS as f64 * CYCLES_PER_MUL, fastest(probe_s) * 1e9)
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Values,
    /// Sample count behind each timing that aggregates samples.
    pub samples: Vec<(&'static str, usize)>,
    /// Every timed rep's wall and set-up time, in run order.
    pub wall_samples: Vec<f64>,
    pub setup_samples: Vec<f64>,
    /// The first rep's report digest.
    pub digest: u64,
    /// Outputs printed alongside the metrics (not metrics themselves).
    pub notes: Vec<(&'static str, String)>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked".to_string())
    })
}

/// Judge one rep: its own output checks, and the digest against the
/// first rep's — every rep of a run simulates the same inputs.
pub fn judge(out: &RepOut, first_digest: Option<u64>) -> Result<(), String> {
    out.check()?;
    match first_digest {
        Some(d) if d != out.digest() => Err(format!(
            "report digest {:016x} differs from the first rep's {d:016x}",
            out.digest()
        )),
        _ => Ok(()),
    }
}

/// The timed reps and what they left.
#[derive(Default)]
struct Reps {
    first: Option<RepOut>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Each rep's laps, in the order the rep closed them.
    laps: Vec<Vec<f64>>,
    /// One clock probe before each rep.
    probe_s: Vec<f64>,
    /// Simulator-cost counters of the last rep, summed over scopes, and
    /// the arena high-water mark (a maximum, so taken over scopes).
    counters: [u64; NUM_COUNTERS],
    arena_high_water: u64,
    /// Peak RSS once the first timed rep is done: one workload instance
    /// built and run, before later reps can fragment the heap.
    peak_rss_mb: f64,
}

fn timed_reps(plan: &Plan, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Reps {
    let mut reps = Reps::default();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        tr.set_rep(i);
        i += 1;
        reps.probe_s.push(clock_probe_s());
        perfcount::reset();
        let result = guarded(|| {
            let t0 = Instant::now();
            let mut prepared = tr.span("bench.setup", |tr| plan.setup(tr));
            let t1 = Instant::now();
            tr.start_laps();
            let out = tr.span("bench.rep", |tr| plan.rep(&mut prepared, tr));
            tr.lap();
            let t2 = Instant::now();
            ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), out)
        });
        let laps = tr.take_laps();
        let (setup, wall, out) = match result {
            Ok(r) => r,
            Err(e) => {
                tr.close_open();
                tally.record(&format!("rep {i}"), Err(e));
                continue;
            }
        };
        for (c, (_, v)) in reps.counters.iter_mut().zip(perfcount::snapshot()) {
            *c = v;
        }
        reps.arena_high_water = perfcount::snapshot_scoped()
            .iter()
            .map(|(_, row)| row[Counter::ArenaHighWater as usize])
            .max()
            .unwrap_or(0);
        tally.record(
            &format!("rep {i}"),
            judge(&out, reps.first.as_ref().map(RepOut::digest)),
        );
        reps.setup_s.push(setup);
        reps.wall_s.push(wall);
        reps.laps.push(laps);
        if reps.first.is_none() {
            reps.first = Some(out);
            reps.peak_rss_mb = peak_rss_mb();
        }
    }
    reps
}

/// Run `bench` at `seed` for `seconds` of timed reps, traced or not.
/// `div` divides every workload size (1 for the benchmark; the tests
/// pass more).
pub fn run(bench: Bench, seed: u64, seconds: f64, traced: bool, div: u64) -> Outcome {
    let plan = Plan::new(bench, seed, div);
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);

    // The warm-up's outputs are not judged: the SVRG gap, for one, only
    // closes at the timed size. It fails only by panicking.
    let warm = Plan::new(bench, seed, div * 10);
    let warm_up = guarded(|| {
        let mut prepared = warm.setup(&mut off);
        warm.rep(&mut prepared, &mut off);
    });
    tally.record("warm-up", warm_up);

    let mut tr = Tracer::new(traced);
    let mut reps = timed_reps(&plan, seconds, &mut tr, &mut tally);
    let first = reps.first.take().unwrap_or_default();
    let digest = first.digest();
    let mut notes = vec![("report_digest", format!("{digest:016x}"))];
    let wall = lap_floor(&reps.laps);
    let ghz = clock_ghz(&reps.probe_s);
    notes.push(("wall_s", format!("{wall}")));
    notes.push(("host_ghz", format!("{ghz}")));
    notes.push(("wall_median_s", format!("{}", median(&reps.wall_s))));
    if first.sim_cycles > 0 {
        notes.push((
            "sim_mcps",
            format!("{}", first.sim_cycles as f64 / wall / 1e6),
        ));
        notes.push(("host_ipc", format!("{}", first.host_ipc())));
    }
    if let Some(s) = &first.svrg {
        let speedup = s.time_to_gap(SvrgMode::HostOnly) / s.time_to_gap(SvrgMode::Accelerated);
        notes.push(("svrg_speedup", format!("{speedup}")));
    }

    let mut metrics = Values::default();
    let samples;
    if traced {
        let cap = capture_pass(&plan, &first, &mut tr, &mut tally);
        metrics = layer_values(&plan, &tr, &first, &reps, &cap);
        let chunks = tr.durations_s("core.system.run_chunk").len();
        samples = vec![
            ("core.system.chunk_ms_p50", chunks),
            ("core.system.chunk_ms_p95", chunks),
            ("bench.traced_wall_gcycles", reps.laps.len()),
        ];
    } else {
        while reps.setup_s.len() < MIN_SETUPS {
            let t = Instant::now();
            let prepared = plan.setup(&mut off);
            reps.setup_s.push(t.elapsed().as_secs_f64());
            drop(prepared);
        }
        let check_plan = Plan::new(bench, seed, div * 20);
        match guarded(|| check_plan.engine_checks()) {
            Ok(checks) => checks.into_iter().for_each(|(w, r)| tally.record(w, r)),
            Err(e) => tally.record("engine checks", Err(e)),
        }
        metrics.set(END_TO_END, "wall_gcycles", wall * ghz);
        metrics.set(END_TO_END, "setup_s", fastest(&reps.setup_s));
        metrics.set(END_TO_END, "peak_rss_mb", reps.peak_rss_mb);
        metrics.set(END_TO_END, "nda_bw_gbs", first.nda_bw_gbs());
        samples = vec![
            ("wall_gcycles", reps.laps.len()),
            ("setup_s", reps.setup_s.len()),
        ];
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        samples,
        wall_samples: reps.wall_s,
        setup_samples: reps.setup_s,
        digest,
        notes,
        tracer: traced.then_some(tr),
    }
}

/// The capture pass and its checks: the replayed `DramStats` equal the
/// report's, and the unsliced captured runs equal the sliced traced reps.
fn capture_pass(plan: &Plan, first: &RepOut, tr: &mut Tracer, tally: &mut Tally) -> Capture {
    let cap = match guarded(|| layers::capture_replay(plan, tr)) {
        Ok(cap) => cap,
        Err(e) => {
            tr.close_open();
            tally.record("capture pass", Err(e));
            return Capture::default();
        }
    };
    let replay = if cap.mismatches.is_empty() {
        Ok(())
    } else {
        Err(cap.mismatches.join("; "))
    };
    tally.record("replay_equals_report", replay);
    let sliced = if cap.reports == first.reports || plan.bench == Bench::SvrgTrain {
        Ok(())
    } else {
        Err("the sliced traced run differs from the unsliced capture pass".into())
    };
    tally.record("sliced_equals_unsliced", sliced);
    cap
}

fn layer_values(plan: &Plan, tr: &Tracer, first: &RepOut, reps: &Reps, cap: &Capture) -> Values {
    let mut v = Values::default();
    let mut set = |name: &str, value: f64| v.set(PER_LAYER, name, value);
    // Times are each rep's total in a layer's spans, fastest rep, as for
    // the end-to-end metrics; per-point times divide by the point count.
    let rep_s = |name: &str| fastest(&tr.per_rep_s(name));
    let per_point_s = |name: &str| rep_s(name) / first.reports.len().max(1) as f64;
    let c = |counter: Counter| reps.counters[counter as usize] as f64;
    let reports = &first.reports;
    let sum =
        |f: &dyn Fn(&chopim_core::SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;

    set("exp.spawn_s", rep_s("exp.spawn"));
    set("exp.capture_prefix_s", rep_s("exp.capture_prefix"));
    set("exp.point_s", per_point_s("exp.point"));

    let run_s = rep_s("core.system.run");
    let (ticks, leapt) = (first.ticks.0 as f64, first.ticks.1 as f64);
    let chunk_ms: Vec<f64> = tr
        .durations_s("core.system.run_chunk")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    set("core.system.new_s", rep_s("core.system.new"));
    set("core.system.run_s", run_s);
    set("core.system.report_s", rep_s("core.system.report"));
    set("core.system.chunk_ms_p50", quantile(&chunk_ms, 0.5));
    set("core.system.chunk_ms_p95", quantile(&chunk_ms, 0.95));
    set("core.system.ticks_executed", ticks);
    set("core.system.cycles_leapt", leapt);
    set("core.system.leap_frac", ratio(leapt, ticks + leapt));
    set("core.system.ns_per_tick", ratio(run_s * 1e9, ticks));
    set(
        "core.system.sim_mcps",
        ratio(first.sim_cycles as f64, run_s * 1e6),
    );
    set("core.system.snapshot_bytes", first.snapshot_bytes as f64);
    set("core.system.resume_s", per_point_s("core.system.resume"));

    set("core.sched.passes", c(Counter::SchedPasses));
    set(
        "core.sched.entries_per_pass",
        ratio(c(Counter::SchedEntriesScanned), c(Counter::SchedPasses)),
    );
    set(
        "core.sched.memo_hit_frac",
        ratio(
            c(Counter::SchedMemoHit),
            c(Counter::SchedMemoHit) + c(Counter::SchedMemoMiss),
        ),
    );

    let tenants = || reports.iter().flat_map(|r| r.tenants.iter());
    let terminal: u64 = tenants().map(|t| t.ops_completed + t.ops_failed).sum();
    let waited: u64 = tenants().map(|t| t.launch_wait_cycles).sum();
    let fairness = reports
        .iter()
        .filter_map(|r| {
            let done = r
                .tenants
                .iter()
                .filter(|t| t.ops_submitted > 0)
                .map(|t| t.ops_completed);
            let (lo, hi) = done.fold((u64::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
            (hi > 0).then(|| lo as f64 / hi as f64)
        })
        .fold(f64::INFINITY, f64::min);
    set(
        "core.runtime.sessions_scanned",
        c(Counter::SchedSessionsScanned),
    );
    set("core.runtime.ready_index_ops", c(Counter::ReadyIndexOps));
    set(
        "core.runtime.launch_wait_cyc_mean",
        ratio(waited as f64, terminal as f64),
    );
    set("core.runtime.tenant_ops_min_over_max", fairness);

    set("core.shard.horizon_scans", c(Counter::HorizonScans));
    set("core.shard.leap_cycles", c(Counter::HorizonLeapCycles));
    set("core.exchange.barriers", c(Counter::Barriers));
    set(
        "core.exchange.windows_per_barrier",
        ratio(c(Counter::WindowsExecuted), c(Counter::Barriers)),
    );
    set("core.exchange.messages", c(Counter::MessagesExchanged));
    set(
        "core.exchange.arena_high_water",
        reps.arena_high_water as f64,
    );
    set("core.par.speedup", layers::par_speedup(plan));

    let commands = cap.commands as f64;
    let replay_s = tr.durations_s("dram.replay").iter().sum::<f64>();
    set("dram.replay_s", replay_s);
    set("dram.commands", commands);
    set("dram.ns_per_cmd", ratio(replay_s * 1e9, commands));
    set("dram.trace_bytes", cap.trace_bytes as f64);
    set(
        "dram.trace_encode_s",
        tr.durations_s("dram.trace_encode").iter().sum(),
    );
    set("dram.ready_at_calls", c(Counter::ReadyAt));
    set("dram.plan_access_calls", c(Counter::PlanAccess));
    set(
        "dram.row_hit_rate",
        mean(reports.iter().map(|r| r.host_row_hit_rate)),
    );
    set("dram.turnarounds", sum(&|r| r.dram.turnarounds));
    set(
        "dram.read_latency_cyc",
        mean(reports.iter().map(|r| r.avg_read_latency)),
    );

    set(
        "nda.memo_hit_frac",
        ratio(
            c(Counter::NdaMemoHit),
            c(Counter::NdaMemoHit) + c(Counter::NdaMemoMiss),
        ),
    );
    set("nda.instrs_completed", sum(&|r| r.nda_instrs_completed));
    set(
        "nda.bw_utilization",
        mean(reports.iter().map(|r| r.nda_bw_utilization)),
    );
    set(
        "nda.write_throttle_stalls",
        sum(&|r| r.nda_write_throttle_stalls),
    );

    set(
        "host.ns_per_core_cycle",
        layers::host_ns_per_core_cycle(plan),
    );
    let ipc_min = reports
        .iter()
        .flat_map(|r| r.per_core_ipc.iter().copied())
        .fold(f64::INFINITY, f64::min);
    set("host.ipc_min_core", ipc_min);

    set("ml.dataset_s", rep_s("ml.dataset"));
    set("ml.timemodel_s", rep_s("ml.timemodel"));
    set("ml.optimum_s", rep_s("ml.optimum"));
    set("ml.svrg_run_s", rep_s("ml.svrg_run"));
    let ttt = |mode| first.svrg.as_ref().map_or(0.0, |s| s.time_to_gap(mode));
    set("ml.ttt_ho_s", ttt(SvrgMode::HostOnly));
    set("ml.ttt_acc_s", ttt(SvrgMode::Accelerated));
    set("ml.ttt_du_s", ttt(SvrgMode::DelayedUpdate));
    set(
        "ml.svrg_speedup",
        ratio(ttt(SvrgMode::HostOnly), ttt(SvrgMode::Accelerated)),
    );

    set(
        "bench.traced_wall_gcycles",
        lap_floor(&reps.laps) * clock_ghz(&reps.probe_s),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricDef;
    use crate::workloads::ALL;

    /// Sizes divided far enough that a test build runs every workload's
    /// code path in seconds.
    const TEST_DIV: u64 = 5;

    /// The SVRG gap check only holds at the full dataset size, which is
    /// cheap enough to test as is.
    fn test_div(bench: Bench) -> u64 {
        if bench == Bench::SvrgTrain {
            1
        } else {
            TEST_DIV
        }
    }

    fn names(defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).collect()
    }

    fn emitted(o: &Outcome) -> Vec<&'static str> {
        o.metrics.0.iter().map(|(d, _)| d.name).collect()
    }

    #[test]
    fn every_workload_runs_untraced_at_a_reduced_size() {
        for bench in ALL {
            let o = run(bench, 1, 0.0, false, test_div(bench));
            assert_eq!(o.failed, 0, "{}: {:?}", bench.name(), o.failures);
            assert!(o.attempted > MIN_REPS as u64, "{}", bench.name());
            assert_eq!(emitted(&o), names(END_TO_END), "{}", bench.name());
            for (d, v) in &o.metrics.0 {
                assert!(*v > 0.0, "{}: {} = {v}", bench.name(), d.name);
            }
        }
    }

    #[test]
    fn every_workload_runs_traced_at_a_reduced_size() {
        for bench in ALL {
            let o = run(bench, 2, 0.0, true, test_div(bench));
            assert_eq!(o.failed, 0, "{}: {:?}", bench.name(), o.failures);
            assert_eq!(emitted(&o), names(PER_LAYER), "{}", bench.name());
            let tr = o.tracer.expect("a traced run keeps its spans");
            assert!(!tr.spans().is_empty());
            crate::spans::assert_well_formed(&tr);
            crate::manifest::parse(&tr.to_chrome_json()).expect("valid span file");
        }
    }

    #[test]
    fn the_clock_comes_from_the_fastest_probe() {
        assert!((clock_ghz(&[0.006, 0.004, 0.005]) - 3.0).abs() < 1e-9);
        assert_eq!(clock_ghz(&[]), 0.0);
        assert!(clock_probe_s() > 0.0);
    }

    #[test]
    fn a_perturbed_report_is_counted_as_failed() {
        let plan = Plan::new(Bench::SvrgColocated, 1, TEST_DIV);
        let mut off = Tracer::new(false);
        let mut prepared = plan.setup(&mut off);
        let out = plan.rep(&mut prepared, &mut off);
        let digest = out.digest();
        let mut tally = Tally::default();
        tally.record("clean", judge(&out, Some(digest)));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut perturbed = RepOut {
            reports: out.reports.clone(),
            ..RepOut::default()
        };
        perturbed.reports[0].nda_bw_gbs *= 1.0 + 1e-9;
        tally.record("perturbed", judge(&perturbed, Some(digest)));
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let mut failed_op = RepOut {
            reports: out.reports.clone(),
            ..RepOut::default()
        };
        failed_op.reports[0].tenants[0].ops_failed = 1;
        tally.record("failed op", judge(&failed_op, None));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
