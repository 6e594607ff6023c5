//! Stochastic variance-reduced gradient descent \[37\] in the paper's three
//! execution modes (§IV):
//!
//! * **host-only** — the host alternates summarization (full gradient of
//!   the snapshot) and the stochastic inner loop;
//! * **accelerated** — NDAs compute the summarization, serialized with the
//!   host inner loop (host waits);
//! * **delayed-update** — host inner loop and NDA summarization run
//!   *concurrently*; the correction term used in an epoch is one epoch
//!   stale, trading per-iteration convergence for wall-clock overlap.
//!
//! Wall-clock time per step comes from the simulator-calibrated
//! [`crate::timemodel::SvrgTimeModel`]; the optimization math runs exactly
//! (f32) so convergence behavior is real, not modeled.
//!
//! # Bit-exact inner step
//!
//! The inner step computes, for every weight `j`,
//! `v = (gi + λ·w) − (gs + λ·s) + g`, `mom = μ·mom + v`, `w −= lr·mom`,
//! where `gi = 0.0 + ci·x` and `gs = 0.0 + cs·x` are the sample gradients
//! at the current weights and at the snapshot. Every f32 operation of
//! that formula stays, in its order; only the scheduling differs (see
//! [`crate::logreg`] for the kernels' contract):
//!
//! * the snapshot's scores come from a lane block, and `λ·s` from a
//!   buffer, both built once per outer iteration; the current weights'
//!   scores come from the row kernel;
//! * one fused pass per class row then computes `gi`, `gs`, `v`, `mom`
//!   and `w`, with no gradient buffers and no copy of the weights.
//!
//! That pass runs along features, one class row at a time, never across
//! classes: a softmax probability below `f32::MIN_POSITIVE` makes the
//! products in its row subnormal, and each subnormal f32 multiply takes a
//! slow microcode assist. Such rows form their products exactly through
//! f64 instead (`logreg::mul_tiny`). Subnormals are kept, never flushed:
//! flushing would change the results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::logreg::{is_tiny, mul_tiny, score_rows, softmax_in_place, LogReg, Scorer};
use crate::timemodel::SvrgTimeModel;

/// Which execution mode to simulate (paper Fig. 15 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvrgMode {
    /// Host computes everything (HO).
    HostOnly,
    /// NDAs summarize, serialized with the host inner loop (ACC).
    Accelerated,
    /// NDAs summarize concurrently with the host inner loop
    /// (DelayedUpdate).
    DelayedUpdate,
}

impl SvrgMode {
    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            SvrgMode::HostOnly => "HO",
            SvrgMode::Accelerated => "ACC",
            SvrgMode::DelayedUpdate => "DelayedUpdate",
        }
    }
}

/// SVRG hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvrgConfig {
    /// Inner iterations per outer iteration (the paper's epoch knob:
    /// N, N/2, N/4 where N = dataset size).
    pub epoch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum (paper: 0.9).
    pub momentum: f32,
    /// ℓ2 regularization λ (paper: 1e-3).
    pub lambda: f32,
    /// Outer iterations to run.
    pub max_outer: usize,
    /// RNG seed for sample selection.
    pub seed: u64,
}

/// A convergence trajectory: `(seconds, loss)` after each outer iteration.
#[derive(Debug, Clone)]
pub struct SvrgTrace {
    /// Mode that produced the trace.
    pub mode: SvrgMode,
    /// Epoch size used.
    pub epoch: usize,
    /// Learning rate used.
    pub lr: f32,
    /// `(wall-clock seconds, training loss)` samples.
    pub points: Vec<(f64, f64)>,
}

impl SvrgTrace {
    /// First time at which `loss - optimum <= tol`, if reached.
    pub fn time_to_converge(&self, optimum: f64, tol: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(_, l)| l - optimum <= tol)
            .map(|(t, _)| *t)
    }

    /// Best (lowest) loss reached.
    pub fn best_loss(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Run SVRG in `mode` and return its convergence trajectory.
pub fn run(mode: SvrgMode, ds: &Dataset, cfg: SvrgConfig, time: &SvrgTimeModel) -> SvrgTrace {
    let mut model = LogReg::new(ds.classes, ds.d, cfg.lambda);
    let dim = ds.classes * ds.d;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut mom = vec![0.0f32; dim];
    let mut t = 0.0f64;
    let mut points = Vec::with_capacity(cfg.max_outer);
    let mut step_probs = vec![0.0f32; 2 * ds.classes];
    // Every sample's probabilities at the current `model.w`. The loss
    // after an outer iteration and the next snapshot's full gradient see
    // the same weights, so they share this one scoring pass.
    let mut probs = model.sample_probs(&model.w, ds);

    // Delayed-update state: the (stale) snapshot/correction pair in use.
    let mut s_used = model.w.clone();
    let mut g_used = model.grad_from_probs(&s_used, ds, &probs);
    if mode == SvrgMode::DelayedUpdate {
        // Initial correction must be computed serially once.
        t += time.nda_summarize_s + time.exchange_s;
    }

    for _outer in 0..cfg.max_outer {
        let pending = match mode {
            SvrgMode::HostOnly => {
                let s = model.w.clone();
                let g = model.grad_from_probs(&s, ds, &probs);
                t += time.host_summarize_s;
                (s_used, g_used) = (s, g);
                None
            }
            SvrgMode::Accelerated => {
                let s = model.w.clone();
                let g = model.grad_from_probs(&s, ds, &probs);
                t += time.nda_summarize_s + time.exchange_s;
                (s_used, g_used) = (s, g);
                None
            }
            SvrgMode::DelayedUpdate => {
                // NDAs summarize the snapshot taken *now*, while the host
                // inner loop below still runs with the previous epoch's
                // (s_used, g_used).
                let s = model.w.clone();
                let g = model.grad_from_probs(&s, ds, &probs);
                Some((s, g))
            }
        };

        // Stochastic inner loop (the host's tight loop).
        let anchor = Anchor::new(&s_used, &g_used, (ds.classes, ds.d), cfg.lambda);
        for _ in 0..cfg.epoch {
            let i = rng.gen_range(0..ds.n);
            inner_step(
                &mut model,
                &mut mom,
                &anchor,
                (ds.row(i), ds.y[i]),
                &cfg,
                &mut step_probs,
            );
        }

        match mode {
            SvrgMode::HostOnly | SvrgMode::Accelerated => {
                t += cfg.epoch as f64 * time.host_iter_s;
            }
            SvrgMode::DelayedUpdate => {
                // Overlapped execution: epoch time is the max of the two
                // concurrent activities, plus the small exchange.
                let host = cfg.epoch as f64 * time.host_iter_concurrent_s;
                t += host.max(time.nda_summarize_concurrent_s) + time.exchange_s;
                (s_used, g_used) = pending.expect("delayed mode computed a snapshot");
            }
        }
        probs = model.sample_probs(&model.w, ds);
        points.push((t, model.loss_from_probs(ds, &probs)));
    }
    SvrgTrace {
        mode,
        epoch: cfg.epoch,
        lr: cfg.lr,
        points,
    }
}

/// What an outer iteration's inner steps correct against: the snapshot
/// weights `s` laid out for scoring, `λ·s` (the same product every step
/// would form, formed once), and the snapshot's full gradient `g`.
pub(crate) struct Anchor<'a> {
    scorer: Scorer,
    lambda_s: Vec<f32>,
    g: &'a [f32],
}

impl<'a> Anchor<'a> {
    pub(crate) fn new(s: &[f32], g: &'a [f32], (classes, d): (usize, usize), lambda: f32) -> Self {
        Self {
            scorer: Scorer::new(s, classes, d),
            lambda_s: s.iter().map(|&sv| lambda * sv).collect(),
            g,
        }
    }
}

/// One SVRG inner step on sample `(x, y)`: the variance-reduced
/// direction at `model.w` against `anchor`, folded into the momentum
/// `mom` and applied to `model.w`. `probs` is scratch of `2 * classes`.
pub(crate) fn inner_step(
    model: &mut LogReg,
    mom: &mut [f32],
    anchor: &Anchor<'_>,
    (x, y): (&[f32], usize),
    cfg: &SvrgConfig,
    probs: &mut [f32],
) {
    let d = model.d;
    let (pi, ps) = probs.split_at_mut(model.classes);
    score_rows(&model.w, x, pi);
    softmax_in_place(pi);
    anchor.scorer.scores_into(x, ps);
    softmax_in_place(ps);
    for (c, (&pic, &psc)) in pi.iter().zip(ps.iter()).enumerate() {
        let target = if c == y { 1.0 } else { 0.0 };
        // The sample gradients' scale is 1, which multiplies exactly.
        let ci = pic - target;
        let cs = psc - target;
        let row = c * d..(c + 1) * d;
        let rows = (
            &mut model.w[row.clone()],
            &mut mom[row.clone()],
            &anchor.lambda_s[row.clone()],
            &anchor.g[row],
        );
        let exact = |c: f32| {
            let c = f64::from(c);
            move |xj| mul_tiny(c, xj)
        };
        match (is_tiny(ci), is_tiny(cs)) {
            (false, false) => update_row(rows, x, cfg, |xj| ci * xj, |xj| cs * xj),
            (true, false) => update_row(rows, x, cfg, exact(ci), |xj| cs * xj),
            (false, true) => update_row(rows, x, cfg, |xj| ci * xj, exact(cs)),
            (true, true) => update_row(rows, x, cfg, exact(ci), exact(cs)),
        }
    }
}

/// The fused pass over one class row: `gi = 0.0 + ci·x` and
/// `gs = 0.0 + cs·x` (as `grad_i` and `grad_s` compute the products),
/// then `v`, the momentum and the weight, element by element along the
/// features.
#[inline(always)]
fn update_row(
    (w, mom, lambda_s, g): (&mut [f32], &mut [f32], &[f32], &[f32]),
    x: &[f32],
    cfg: &SvrgConfig,
    grad_i: impl Fn(f32) -> f32,
    grad_s: impl Fn(f32) -> f32,
) {
    let anchor = lambda_s.iter().zip(g);
    for (((w, m), (&ls, &g)), &xj) in w.iter_mut().zip(mom).zip(anchor).zip(x) {
        let gi = 0.0 + grad_i(xj);
        let gs = 0.0 + grad_s(xj);
        let v = (gi + cfg.lambda * *w) - (gs + ls) + g;
        *m = cfg.momentum * *m + v;
        *w -= cfg.lr * *m;
    }
}

/// A near-optimal reference loss via full-batch gradient descent with
/// momentum (used to plot `loss - optimum` like Fig. 15a).
pub fn optimum_loss(ds: &Dataset, lambda: f32, iters: usize) -> f64 {
    let mut model = LogReg::new(ds.classes, ds.d, lambda);
    let dim = ds.classes * ds.d;
    let mut mom = vec![0.0f32; dim];
    let mut best = f64::INFINITY;
    // As in `run`: each iteration's loss and the next gradient share the
    // probabilities at the same weights.
    let mut probs = model.sample_probs(&model.w, ds);
    for _ in 0..iters {
        let g = model.grad_from_probs(&model.w, ds, &probs);
        for j in 0..dim {
            mom[j] = 0.9 * mom[j] + g[j];
            model.w[j] -= 1.0 * mom[j];
        }
        probs = model.sample_probs(&model.w, ds);
        best = best.min(model.loss_from_probs(ds, &probs));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dataset, SvrgTimeModel) {
        let ds = Dataset::synthetic(256, 32, 4, 9);
        (ds, SvrgTimeModel::analytic_default())
    }

    fn cfg(ds: &Dataset) -> SvrgConfig {
        SvrgConfig {
            epoch: ds.n / 2,
            lr: 0.05,
            momentum: 0.9,
            lambda: 1e-3,
            max_outer: 12,
            seed: 3,
        }
    }

    #[test]
    fn all_modes_reduce_loss() {
        let (ds, tm) = setup();
        let l0 = (ds.classes as f64).ln();
        for mode in [
            SvrgMode::HostOnly,
            SvrgMode::Accelerated,
            SvrgMode::DelayedUpdate,
        ] {
            let trace = run(mode, &ds, cfg(&ds), &tm);
            assert!(
                trace.best_loss() < 0.5 * l0,
                "{}: {} -> {}",
                mode.label(),
                l0,
                trace.best_loss()
            );
            // Time must be strictly increasing.
            assert!(trace.points.windows(2).all(|w| w[1].0 > w[0].0));
        }
    }

    #[test]
    fn accelerated_is_faster_than_host_only_per_outer() {
        let (ds, tm) = setup();
        let ho = run(SvrgMode::HostOnly, &ds, cfg(&ds), &tm);
        let acc = run(SvrgMode::Accelerated, &ds, cfg(&ds), &tm);
        // Same per-iteration math (same seed): identical losses,
        // different clocks.
        for (a, b) in ho.points.iter().zip(&acc.points) {
            assert_eq!(a.1, b.1);
        }
        assert!(
            acc.points.last().unwrap().0 < ho.points.last().unwrap().0,
            "NDA summarization must beat host summarization"
        );
    }

    #[test]
    fn delayed_update_overlaps_but_is_staler() {
        let (ds, tm) = setup();
        // Size the epoch so inner-loop time ~ summarization time — the
        // regime where overlap pays (paper §IV).
        let mut c = cfg(&ds);
        c.epoch = (tm.nda_summarize_s / tm.host_iter_s) as usize;
        let acc = run(SvrgMode::Accelerated, &ds, c, &tm);
        let del = run(SvrgMode::DelayedUpdate, &ds, c, &tm);
        // Less wall-clock per outer iteration...
        assert!(del.points.last().unwrap().0 < acc.points.last().unwrap().0);
        // ...but staleness costs some per-iteration progress (losses are
        // no better at equal iteration counts).
        let acc_best = acc.best_loss();
        let del_best = del.best_loss();
        assert!(
            del_best >= acc_best * 0.85,
            "staleness shouldn't help: {del_best} vs {acc_best}"
        );
    }

    #[test]
    fn optimal_epoch_shrinks_when_summarization_gets_cheap() {
        // The paper's core SVRG trade-off (§IV): cheap summarization
        // favors smaller epochs (fresher correction terms).
        let ds = Dataset::synthetic(256, 32, 4, 9);
        let opt = optimum_loss(&ds, 1e-3, 200);
        let mut tm_cheap = SvrgTimeModel::analytic_default();
        tm_cheap.nda_summarize_s = 1.0e-5; // nearly free
        let mut tm_dear = SvrgTimeModel::analytic_default();
        tm_dear.nda_summarize_s = 2.0e-2; // very expensive
        let best_epoch = |tm: &SvrgTimeModel| {
            let mut best = (usize::MAX, f64::INFINITY);
            for e in [ds.n / 4, ds.n / 2, ds.n, 2 * ds.n] {
                let c = SvrgConfig {
                    epoch: e,
                    lr: 0.05,
                    momentum: 0.9,
                    lambda: 1e-3,
                    max_outer: 8 * (2 * ds.n) / e,
                    seed: 3,
                };
                let t = run(SvrgMode::Accelerated, &ds, c, tm);
                if let Some(tt) = t.time_to_converge(opt, 5e-2) {
                    if tt < best.1 {
                        best = (e, tt);
                    }
                }
            }
            best.0
        };
        let cheap = best_epoch(&tm_cheap);
        let dear = best_epoch(&tm_dear);
        assert!(
            cheap < dear,
            "cheap summarization must favor smaller epochs: {cheap} vs {dear}"
        );
    }

    #[test]
    fn optimum_is_below_all_traces() {
        let (ds, tm) = setup();
        let opt = optimum_loss(&ds, 1e-3, 150);
        let trace = run(SvrgMode::Accelerated, &ds, cfg(&ds), &tm);
        assert!(opt <= trace.best_loss() + 1e-9);
        assert!(trace.time_to_converge(opt, 0.5).is_some());
        assert!(trace.time_to_converge(opt, -1.0).is_none());
    }
}
