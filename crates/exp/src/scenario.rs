//! One simulation point, described declaratively.

use std::any::Any;
use std::sync::Arc;

use chopim_core::prelude::*;

/// A declarative, cloneable description of one simulation point.
///
/// A spec is everything needed to reproduce a single figure data point:
/// the machine configuration, the NDA workload running against the host
/// mix, the measurement window, and the seed. Specs are usually produced
/// by [`SweepBuilder`](crate::SweepBuilder), which also assigns `tags`
/// (axis-name → value-label), the typed axis `values`, and a
/// deterministic per-point `seed`.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Human-readable point label (the joined tag values).
    pub label: String,
    /// `(axis name, value label)` pairs in axis-declaration order.
    pub tags: Vec<(String, String)>,
    /// The typed axis values behind `tags`, for executors and `finish`
    /// hooks that need more than the label — see [`ScenarioSpec::value`].
    pub values: Vec<(String, Arc<dyn Any + Send + Sync>)>,
    /// Machine configuration. `cfg.seed` is overwritten by `seed` at
    /// execution time.
    pub cfg: ChopimConfig,
    /// NDA workload to keep resident for the whole window.
    pub workload: Workload,
    /// Measurement window in DRAM cycles.
    pub window: u64,
    /// Per-point RNG seed (cores, policy coins).
    pub seed: u64,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("label", &self.label)
            .field("tags", &self.tags)
            .field("cfg", &self.cfg)
            .field("workload", &self.workload)
            .field("window", &self.window)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl ScenarioSpec {
    /// A bare spec: default machine, host-only workload, `window` cycles.
    pub fn with_window(window: u64) -> Self {
        ScenarioSpec {
            label: String::new(),
            tags: Vec::new(),
            values: Vec::new(),
            cfg: ChopimConfig::default(),
            workload: Workload::HostOnly,
            window,
            seed: ChopimConfig::default().seed,
        }
    }

    /// The value label of axis `name`, if this spec carries it.
    pub fn tag(&self, name: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The typed value of axis `name`. `T` must be the value type the
    /// axis was declared with; a mismatched `T` returns `None`, so
    /// callers `expect` rather than silently proceeding.
    pub fn value<T: Any>(&self, name: &str) -> Option<&T> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.downcast_ref::<T>())
    }
}

/// The NDA-side workload resident during the measurement window.
///
/// Covers the paper's evaluation kernels. Every variant runs as a
/// resident relaunching stream ([`ChopimSystem::spawn_stream`]) on its
/// own [`Session`], matching the §VI methodology;
/// [`Workload::HostOnly`] runs the host mix alone, and
/// [`Workload::MultiTenant`] gives each tenant its own session so
/// independent streams share the machine under fair-share arbitration.
#[derive(Debug, Clone)]
pub enum Workload {
    /// No NDA traffic; the host mix runs alone (Fig. 2).
    HostOnly,
    /// One elementwise vector op, relaunched over a resident operand set
    /// of `elems` f32 per vector (Figs. 10-14). Coefficients and operand
    /// arity are derived from the opcode (the paper's shapes).
    Elementwise {
        op: Opcode,
        elems: usize,
        opts: LaunchOpts,
    },
    /// Dense GEMV, `rows x cols` (part of Fig. 13).
    Gemv { rows: usize, cols: usize },
    /// The SVRG average-gradient macro stream: per-sample AXPY rows into
    /// per-NDA private accumulators (Fig. 8 / Fig. 14 "SVRG").
    MacroAxpyRows {
        rows: usize,
        d: usize,
        rows_per_instr: usize,
        opts: LaunchOpts,
    },
    /// GEMV + DOT + AXPY + AXPBY iteration stream (Fig. 14 "CG").
    CgStream {
        rows: usize,
        n: usize,
        opts: LaunchOpts,
    },
    /// GEMV + XMY + NRM2 distance-evaluation stream (Fig. 14 "SC").
    ScStream {
        n: usize,
        d: usize,
        opts: LaunchOpts,
    },
    /// Several tenants sharing one machine, each as its own [`Session`]
    /// with a resident stream — the concurrent-submission axis the
    /// session API exists for. Nested [`Workload::MultiTenant`]s are not
    /// allowed; a [`Workload::HostOnly`] tenant contributes nothing.
    MultiTenant {
        /// One inner workload per tenant.
        tenants: Vec<Workload>,
    },
    /// A fleet of identical streaming tenants under mixed QoS classes —
    /// the thousand-tenant scaling axis. Each tenant is its own
    /// [`Session`] streaming an in-place `SCAL` over one of
    /// `shared_vectors` shared resident vectors (vector `t %
    /// shared_vectors`), with a deterministic class rotation: every
    /// 32nd tenant is `LatencySensitive`, the rest are `Batch` with
    /// weights rotating through {1, 2, 4}.
    TenantFleet {
        /// Number of sessions (each with one resident stream).
        tenants: usize,
        /// Shared resident vectors the fleet's streams rotate over.
        shared_vectors: usize,
        /// Elements per shared vector.
        elems: usize,
    },
}

impl Workload {
    /// Elementwise op with default launch options.
    pub fn elementwise(op: Opcode, elems: usize) -> Self {
        Workload::Elementwise {
            op,
            elems,
            opts: LaunchOpts::default(),
        }
    }

    /// Elementwise op with explicit launch options.
    pub fn elementwise_opts(op: Opcode, elems: usize, opts: LaunchOpts) -> Self {
        Workload::Elementwise { op, elems, opts }
    }
}

/// Allocate and initialize a deterministic f32 vector of `len`.
fn init_data(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i % 101) as f32 * 0.5 - 25.0).collect()
}

/// Allocate a workload's resident operands and spawn its relaunching
/// stream on `sess`. [`Workload::HostOnly`] spawns nothing.
///
/// # Panics
///
/// Panics on a nested [`Workload::MultiTenant`] (tenants must be leaf
/// workloads) and on `Workload::Elementwise` with [`Opcode::Gemv`].
pub fn spawn_workload(sys: &mut ChopimSystem, sess: Session, workload: Workload) {
    match workload {
        Workload::HostOnly => {}
        Workload::Elementwise { op, elems, opts } => {
            // Allocate only the operands this opcode touches: sweeps run
            // many points concurrently, and the big-operand figures
            // (fig13: 8 MB/rank) would otherwise hold three full vectors
            // per in-flight point regardless of arity.
            let needs_y = !matches!(op, Opcode::Nrm2 | Opcode::Scal);
            let needs_z = matches!(op, Opcode::Axpby | Opcode::Axpbypcz | Opcode::Xmy);
            let x = sys.runtime.vector(elems, Sharing::Shared);
            let y = if needs_y {
                sys.runtime.vector(elems, Sharing::Shared)
            } else {
                x
            };
            let z = if needs_z {
                sys.runtime.vector(elems, Sharing::Shared)
            } else {
                x
            };
            {
                let data = init_data(elems);
                sys.runtime.write_vector(x, &data);
                if needs_y {
                    sys.runtime.write_vector(y, &data);
                }
            }
            sys.spawn_stream(sess, move |rt, s| {
                // The paper's per-opcode operand shapes.
                let (scalars, inputs, output) = match op {
                    Opcode::Axpby => (vec![2.0, -1.0], vec![x, y], Some(z)),
                    Opcode::Axpbypcz => (vec![2.0, -1.0, 0.5], vec![x, y, z], Some(z)),
                    Opcode::Axpy => (vec![0.5], vec![x], Some(y)),
                    Opcode::Copy => (vec![], vec![x], Some(y)),
                    Opcode::Xmy => (vec![], vec![x, y], Some(z)),
                    Opcode::Dot => (vec![], vec![x, y], None),
                    Opcode::Nrm2 => (vec![], vec![x], None),
                    Opcode::Scal => (vec![0.99], vec![], Some(x)),
                    Opcode::Gemv => panic!("use Workload::Gemv for GEMV points"),
                };
                s.elementwise(rt, op, scalars, inputs, output)
                    .opts(opts)
                    .submit()
            });
        }
        Workload::Gemv { rows, cols } => {
            let a = sys.runtime.matrix(rows, cols);
            let x = sys.runtime.vector(cols, Sharing::Shared);
            let y = sys.runtime.vector(rows, Sharing::Shared);
            sys.runtime.write_vector(x, &vec![1.0; cols]);
            sys.spawn_stream(sess, move |rt, s| s.gemv(rt, y, a, x).submit());
        }
        Workload::MacroAxpyRows {
            rows,
            d,
            rows_per_instr,
            opts,
        } => {
            let xs = sys.runtime.matrix(rows, d);
            let a_pvt = sys.runtime.vector(d, Sharing::Private);
            let alphas = vec![0.01f32; rows];
            sys.spawn_stream(sess, move |rt, s| {
                s.axpy_rows(rt, a_pvt, alphas.clone(), xs, rows_per_instr)
                    .opts(opts)
                    .submit()
            });
        }
        Workload::CgStream { rows, n, opts } => {
            let a = sys.runtime.matrix(rows, n);
            let p = sys.runtime.vector(n, Sharing::Shared);
            let ap = sys.runtime.vector(rows, Sharing::Shared);
            let r = sys.runtime.vector(n, Sharing::Shared);
            sys.runtime.write_vector(p, &vec![1.0; n]);
            sys.runtime.write_vector(r, &vec![1.0; n]);
            let mut phase = 0usize;
            sys.spawn_stream(sess, move |rt, s| {
                phase = (phase + 1) % 4;
                match phase {
                    0 => s.gemv(rt, ap, a, p).submit(),
                    1 => s
                        .elementwise(rt, Opcode::Dot, vec![], vec![ap, ap], None)
                        .opts(opts)
                        .submit(),
                    2 => s
                        .elementwise(rt, Opcode::Axpy, vec![0.5], vec![p], Some(r))
                        .opts(opts)
                        .submit(),
                    _ => s
                        .elementwise(rt, Opcode::Axpby, vec![1.0, 0.5], vec![r, p], Some(p))
                        .opts(opts)
                        .submit(),
                }
            });
        }
        Workload::ScStream { n, d, opts } => {
            let pts = sys.runtime.matrix(n, d);
            let c = sys.runtime.vector(d, Sharing::Shared);
            let dots = sys.runtime.vector(n, Sharing::Shared);
            let acc = sys.runtime.vector(n, Sharing::Shared);
            sys.runtime.write_vector(c, &vec![1.0; d]);
            let mut phase = 0usize;
            sys.spawn_stream(sess, move |rt, s| {
                phase = (phase + 1) % 3;
                match phase {
                    0 => s.gemv(rt, dots, pts, c).submit(),
                    1 => s
                        .elementwise(rt, Opcode::Xmy, vec![], vec![dots, dots], Some(acc))
                        .opts(opts)
                        .submit(),
                    _ => s
                        .elementwise(rt, Opcode::Nrm2, vec![], vec![dots], None)
                        .opts(opts)
                        .submit(),
                }
            });
        }
        Workload::MultiTenant { .. } => panic!("MultiTenant tenants must be leaf workloads"),
        Workload::TenantFleet { .. } => {
            panic!("TenantFleet spawns its own sessions; use spawn_spec_workload")
        }
    }
}

/// The deterministic QoS class of fleet tenant `t` (see
/// [`Workload::TenantFleet`]).
pub fn fleet_qos(t: usize) -> QosClass {
    if t.is_multiple_of(32) {
        QosClass::LatencySensitive
    } else {
        QosClass::Batch {
            weight: [1, 2, 4][t % 3],
        }
    }
}

/// Execute one spec: build the machine, keep the workload resident for
/// the window (one session and stream per tenant), and return the
/// [`SimReport`].
///
/// This is the standard executor the benches share; sweeps whose points
/// are not plain `ChopimSystem` windows (e.g. the SVRG convergence
/// figures) pass their own closure to
/// [`SweepRunner::run`](crate::SweepRunner::run) instead.
pub fn run_scenario(spec: &ScenarioSpec) -> SimReport {
    let mut cfg = spec.cfg.clone();
    cfg.seed = spec.seed;
    let mut sys = ChopimSystem::new(cfg);
    spawn_spec_workload(&mut sys, spec.workload.clone());
    sys.run(spec.window);
    sys.report()
}

/// Spawn a spec's workload: one session and stream per tenant for
/// [`Workload::MultiTenant`], the default session otherwise.
pub fn spawn_spec_workload(sys: &mut ChopimSystem, workload: Workload) {
    match workload {
        Workload::MultiTenant { tenants } => {
            for t in tenants {
                let sess = sys.runtime.create_session();
                spawn_workload(sys, sess, t);
            }
        }
        Workload::TenantFleet {
            tenants,
            shared_vectors,
            elems,
        } => {
            let vecs: Vec<VecId> = (0..shared_vectors.max(1))
                .map(|_| sys.runtime.vector(elems, Sharing::Shared))
                .collect();
            let data = init_data(elems);
            for &v in &vecs {
                sys.runtime.write_vector(v, &data);
            }
            for t in 0..tenants {
                let sess = sys.runtime.create_session();
                sys.runtime.set_qos(sess, fleet_qos(t));
                let x = vecs[t % vecs.len()];
                sys.spawn_stream(sess, move |rt, s| {
                    s.elementwise(rt, Opcode::Scal, vec![0.99], vec![], Some(x))
                        .submit()
                });
            }
        }
        w => {
            let sess = sys.runtime.default_session();
            spawn_workload(sys, sess, w);
        }
    }
}

/// Capture a warm-start image for `spec`: build its machine, run
/// `prefix` cycles with the workload **not yet spawned** (the host mix
/// and refresh machinery run and populate MC queues, core state, bank
/// timing, and clock dividers), and snapshot. Op streams cannot be
/// serialized, so the warm-up prefix is exactly the part of a scenario
/// that precedes stream spawning; fork the image into full points with
/// [`run_scenario_from`].
pub fn capture_prefix(spec: &ScenarioSpec, prefix: u64) -> Vec<u8> {
    let mut cfg = spec.cfg.clone();
    cfg.seed = spec.seed;
    let mut sys = ChopimSystem::new(cfg);
    sys.run(prefix);
    sys.snapshot()
        .expect("a machine without spawned streams must snapshot")
}

/// Execute one spec from a warm-start image instead of a cold machine:
/// resume the snapshot, spawn the workload, run the window. The image
/// must come from a [`capture_prefix`] whose spec agrees with this one
/// on the semantic configuration and seed — only the engine-mode knobs
/// (`sim_threads`, `fast_forward`, `verify_fsm`, `trace_path`, and the
/// inert `fixed_window`) may differ. Bit-identical to
/// [`run_scenario_prefixed`] with the same prefix (enforced by
/// `tests/snapshot_lockstep.rs`).
pub fn run_scenario_from(spec: &ScenarioSpec, image: &[u8]) -> SimReport {
    let mut cfg = spec.cfg.clone();
    cfg.seed = spec.seed;
    let mut sys = ChopimSystem::resume(cfg, image)
        .expect("warm-start image must match the spec's semantic configuration");
    spawn_spec_workload(&mut sys, spec.workload.clone());
    sys.run(spec.window);
    sys.report()
}

/// The cold-path oracle for [`run_scenario_from`]: build the machine,
/// run `prefix` cycles before spawning the workload, then run the
/// window.
pub fn run_scenario_prefixed(spec: &ScenarioSpec, prefix: u64) -> SimReport {
    let mut cfg = spec.cfg.clone();
    cfg.seed = spec.seed;
    let mut sys = ChopimSystem::new(cfg);
    sys.run(prefix);
    spawn_spec_workload(&mut sys, spec.workload.clone());
    sys.run(spec.window);
    sys.report()
}

/// A two-session op-graph scenario for the lockstep equivalence suites:
/// session A runs an ordered chain, session B runs ops gated on A's
/// handles across the session boundary (explicit DAG edges, one of them
/// `unordered`), then both sessions turn into resident streams for the
/// remainder of `window`. Exercises cross-session completion routing,
/// DAG staging, and fair-share arbitration under every engine mode.
pub fn run_two_session_dag(mut cfg: ChopimConfig, window: u64, seed: u64) -> SimReport {
    cfg.seed = seed;
    let mut sys = ChopimSystem::new(cfg);
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    let n = 1 << 13;
    let x = sys.runtime.vector(n, Sharing::Shared);
    let y = sys.runtime.vector(n, Sharing::Shared);
    let u = sys.runtime.vector(n, Sharing::Shared);
    let v = sys.runtime.vector(n, Sharing::Shared);
    let data = init_data(n);
    sys.runtime.write_vector(x, &data);
    sys.runtime.write_vector(v, &data);

    // Session A: y = x, then y *= 2 (implicit program order).
    let _a1 = sa
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let a2 = sa
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![2.0], vec![], Some(y))
        .submit();
    // Session B: u = x independently; then v += y gated on A's chain via
    // an explicit cross-session edge, free of B's program order.
    let b1 = sb
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(u))
        .submit();
    let b2 = sb
        .elementwise(&mut sys.runtime, Opcode::Axpy, vec![1.0], vec![y], Some(v))
        .after(a2)
        .after(b1)
        .unordered()
        .submit();
    sys.drive(Waitable::all_of([a2, b2]), window);

    // Both tenants stream for the rest of the window under fair share.
    sys.spawn_stream(sa, move |rt, s| {
        s.elementwise(rt, Opcode::Axpy, vec![0.5], vec![x], Some(y))
            .submit()
    });
    sys.spawn_stream(sb, move |rt, s| {
        s.elementwise(rt, Opcode::Dot, vec![], vec![u, v], None)
            .submit()
    });
    sys.run(window);
    sys.report()
}
