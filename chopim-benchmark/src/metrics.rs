//! Every metric the benchmark reports, with its unit and direction.
//! `BENCHMARK.json` at the repository root must list exactly these (the
//! `manifest` tests hold the two together); the regression bounds live
//! only in that file.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the simulator sees, reported by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_gcycles", "Gcycles", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("nda_bw_gbs", "GB/s", "higher"),
];

/// Single-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // exp: scenario plumbing and the warm-start sweep path.
    m("exp.spawn_s", "s", "lower"),
    m("exp.capture_prefix_s", "s", "lower"),
    m("exp.point_s", "s", "lower"),
    // core.system: construction, the drive loop, and reporting.
    m("core.system.new_s", "s", "lower"),
    m("core.system.run_s", "s", "lower"),
    m("core.system.report_s", "s", "lower"),
    m("core.system.chunk_ms_p50", "ms", "lower"),
    m("core.system.chunk_ms_p95", "ms", "lower"),
    m("core.system.ticks_executed", "count", "lower"),
    m("core.system.cycles_leapt", "count", "higher"),
    m("core.system.leap_frac", "fraction", "higher"),
    m("core.system.ns_per_tick", "ns", "lower"),
    m("core.system.sim_mcps", "Mcycles/s", "higher"),
    m("core.system.snapshot_bytes", "bytes", "lower"),
    m("core.system.resume_s", "s", "lower"),
    // core.sched: the host memory controller's scheduler.
    m("core.sched.passes", "count", "lower"),
    m("core.sched.entries_per_pass", "count", "lower"),
    m("core.sched.memo_hit_frac", "fraction", "higher"),
    // core.runtime: session arbitration and launch staging.
    m("core.runtime.sessions_scanned", "count", "lower"),
    m("core.runtime.ready_index_ops", "count", "lower"),
    m("core.runtime.launch_wait_cyc_mean", "cycles", "lower"),
    m("core.runtime.tenant_ops_min_over_max", "fraction", "higher"),
    // core.shard / core.exchange / core.par: the sharded engine.
    m("core.shard.horizon_scans", "count", "lower"),
    m("core.shard.leap_cycles", "count", "higher"),
    m("core.exchange.barriers", "count", "lower"),
    m("core.exchange.windows_per_barrier", "count", "lower"),
    m("core.exchange.messages", "count", "lower"),
    m("core.exchange.arena_high_water", "count", "lower"),
    m("core.par.speedup", "x", "higher"),
    // dram: the device model, isolated by trace replay.
    m("dram.replay_s", "s", "lower"),
    m("dram.commands", "count", "higher"),
    m("dram.ns_per_cmd", "ns", "lower"),
    m("dram.trace_bytes", "bytes", "lower"),
    m("dram.trace_encode_s", "s", "lower"),
    m("dram.ready_at_calls", "count", "lower"),
    m("dram.plan_access_calls", "count", "lower"),
    m("dram.row_hit_rate", "fraction", "higher"),
    m("dram.turnarounds", "count", "lower"),
    m("dram.read_latency_cyc", "cycles", "lower"),
    // nda: the accelerator controllers and FSMs.
    m("nda.memo_hit_frac", "fraction", "higher"),
    m("nda.instrs_completed", "count", "higher"),
    m("nda.bw_utilization", "fraction", "higher"),
    m("nda.write_throttle_stalls", "count", "lower"),
    // host: the out-of-order core model.
    m("host.ns_per_core_cycle", "ns", "lower"),
    m("host.ipc_min_core", "instr/cycle", "higher"),
    // ml: the SVRG application pipeline.
    m("ml.dataset_s", "s", "lower"),
    m("ml.timemodel_s", "s", "lower"),
    m("ml.optimum_s", "s", "lower"),
    m("ml.svrg_run_s", "s", "lower"),
    m("ml.ttt_ho_s", "s", "lower"),
    m("ml.ttt_acc_s", "s", "lower"),
    m("ml.ttt_du_s", "s", "lower"),
    m("ml.svrg_speedup", "x", "higher"),
    // bench: the traced run itself.
    m("bench.traced_wall_gcycles", "Gcycles", "lower"),
];

/// Measured values in definition order, rendered as the `metrics`
/// object of the result line.
#[derive(Debug, Clone, Default)]
pub struct Values(pub Vec<(&'static MetricDef, f64)>);

impl Values {
    /// Record `value` for the metric named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from `defs`: a typo here is a bug.
    pub fn set(&mut self, defs: &'static [MetricDef], name: &str, value: f64) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not defined"));
        // A non-finite value (a trace that never converged) is not JSON;
        // adding 0.0 turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        match self.0.iter_mut().find(|(d, _)| d.name == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((def, value)),
        }
    }

    /// The `metrics` JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
