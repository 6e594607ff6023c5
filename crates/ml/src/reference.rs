//! The straightforward logistic-regression and SVRG math, kept as the
//! oracle the scheduled kernels in [`crate::logreg`] and [`crate::svrg`]
//! must match bit for bit: each class score a row-by-row `.sum()`, an
//! allocating softmax, separate sample-gradient buffers at the current
//! weights and at the snapshot, then one update loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::logreg::LogReg;
use crate::svrg::{SvrgConfig, SvrgMode, SvrgTrace};
use crate::timemodel::SvrgTimeModel;

/// Class scores `W x`, one row at a time.
pub(crate) fn scores(w: &[f32], classes: usize, x: &[f32]) -> Vec<f32> {
    let d = x.len();
    (0..classes)
        .map(|c| {
            let row = &w[c * d..(c + 1) * d];
            row.iter().zip(x).map(|(w, v)| w * v).sum()
        })
        .collect()
}

/// Numerically stable softmax.
pub(crate) fn softmax(scores: &[f32]) -> Vec<f32> {
    let m = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|s| (s - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Sample `i`'s unregularized gradient at `w_at`, scaled by `scale`,
/// accumulated into `out`.
pub(crate) fn sample_grad_into(
    model: &LogReg,
    w_at: &[f32],
    ds: &Dataset,
    i: usize,
    scale: f32,
    out: &mut [f32],
) {
    let x = ds.row(i);
    let p = softmax(&scores(w_at, model.classes, x));
    for c in 0..model.classes {
        let coeff = scale * (p[c] - if c == ds.y[i] { 1.0 } else { 0.0 });
        let row = &mut out[c * model.d..(c + 1) * model.d];
        for (o, v) in row.iter_mut().zip(x) {
            *o += coeff * v;
        }
    }
}

/// Full-batch gradient at `w_at`, including regularization.
pub(crate) fn full_grad(model: &LogReg, w_at: &[f32], ds: &Dataset) -> Vec<f32> {
    let mut g = vec![0.0f32; model.classes * model.d];
    let inv_n = 1.0 / ds.n as f32;
    for i in 0..ds.n {
        sample_grad_into(model, w_at, ds, i, inv_n, &mut g);
    }
    for (gv, wv) in g.iter_mut().zip(w_at) {
        *gv += model.lambda * wv;
    }
    g
}

/// Regularized negative log-likelihood over the dataset.
pub(crate) fn loss(model: &LogReg, ds: &Dataset) -> f64 {
    let mut total = 0.0f64;
    for i in 0..ds.n {
        let p = softmax(&scores(&model.w, model.classes, ds.row(i)));
        total -= f64::from(p[ds.y[i]].max(1e-30).ln());
    }
    let reg: f64 = model
        .w
        .iter()
        .map(|&w| f64::from(w) * f64::from(w))
        .sum::<f64>()
        * 0.5
        * f64::from(model.lambda);
    total / ds.n as f64 + reg
}

/// One SVRG inner step on sample `i` against the snapshot `s_used` and
/// its full gradient `g_used`.
pub(crate) fn svrg_step(
    model: &mut LogReg,
    mom: &mut [f32],
    (s_used, g_used): (&[f32], &[f32]),
    ds: &Dataset,
    i: usize,
    cfg: &SvrgConfig,
) {
    let dim = model.w.len();
    let mut gi = vec![0.0f32; dim];
    let mut gs = vec![0.0f32; dim];
    sample_grad_into(model, &model.w.clone(), ds, i, 1.0, &mut gi);
    sample_grad_into(model, s_used, ds, i, 1.0, &mut gs);
    for j in 0..dim {
        let v = (gi[j] + cfg.lambda * model.w[j]) - (gs[j] + cfg.lambda * s_used[j]) + g_used[j];
        mom[j] = cfg.momentum * mom[j] + v;
        model.w[j] -= cfg.lr * mom[j];
    }
}

/// SVRG in `mode`, one full gradient and one loss per outer iteration
/// computed from scratch.
pub(crate) fn run(
    mode: SvrgMode,
    ds: &Dataset,
    cfg: SvrgConfig,
    time: &SvrgTimeModel,
) -> SvrgTrace {
    let mut model = LogReg::new(ds.classes, ds.d, cfg.lambda);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut mom = vec![0.0f32; ds.classes * ds.d];
    let mut t = 0.0f64;
    let mut points = Vec::with_capacity(cfg.max_outer);
    let mut s_used = model.w.clone();
    let mut g_used = full_grad(&model, &s_used, ds);
    if mode == SvrgMode::DelayedUpdate {
        t += time.nda_summarize_s + time.exchange_s;
    }
    for _outer in 0..cfg.max_outer {
        let s = model.w.clone();
        let g = full_grad(&model, &s, ds);
        let pending = match mode {
            SvrgMode::HostOnly => {
                t += time.host_summarize_s;
                (s_used, g_used) = (s, g);
                None
            }
            SvrgMode::Accelerated => {
                t += time.nda_summarize_s + time.exchange_s;
                (s_used, g_used) = (s, g);
                None
            }
            SvrgMode::DelayedUpdate => Some((s, g)),
        };
        for _ in 0..cfg.epoch {
            let i = rng.gen_range(0..ds.n);
            svrg_step(&mut model, &mut mom, (&s_used, &g_used), ds, i, &cfg);
        }
        match pending {
            None => t += cfg.epoch as f64 * time.host_iter_s,
            Some(next) => {
                let host = cfg.epoch as f64 * time.host_iter_concurrent_s;
                t += host.max(time.nda_summarize_concurrent_s) + time.exchange_s;
                (s_used, g_used) = next;
            }
        }
        points.push((t, loss(&model, ds)));
    }
    SvrgTrace {
        mode,
        epoch: cfg.epoch,
        lr: cfg.lr,
        points,
    }
}

/// Full-batch gradient descent with momentum; the best loss seen.
pub(crate) fn optimum_loss(ds: &Dataset, lambda: f32, iters: usize) -> f64 {
    let mut model = LogReg::new(ds.classes, ds.d, lambda);
    let mut mom = vec![0.0f32; ds.classes * ds.d];
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let g = full_grad(&model, &model.w.clone(), ds);
        for j in 0..mom.len() {
            mom[j] = 0.9 * mom[j] + g[j];
            model.w[j] -= 1.0 * mom[j];
        }
        best = best.min(loss(&model, ds));
    }
    best
}

mod tests {
    use super::*;
    use crate::logreg::{is_tiny, score_rows, Scorer, MAX_LANES};
    use crate::svrg::{self, inner_step, Anchor};

    /// Samples per generated dataset.
    const N: usize = 12;
    /// Feature counts: below, at, and well past a lane group's span.
    const DS: [usize; 4] = [16, 48, 128, 256];
    /// Weight magnitudes: near zero, moderate, and large enough that
    /// softmax probabilities go subnormal or underflow to zero.
    const SCALES: [f32; 3] = [0.05, 3.0, 30.0];

    /// A weight matrix with about one entry in five an exact `+0.0` or
    /// `-0.0` and the rest uniform in `±scale`.
    fn weights(rng: &mut StdRng, len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0) * scale,
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// What the generated cases reached, so the test can prove its inputs
    /// cover the ranges it claims.
    #[derive(Default)]
    struct Reach {
        subnormal_probs: usize,
        zero_probs: usize,
        tiny_step_coeffs: usize,
        lane_widths: [bool; MAX_LANES / 4 + 1],
    }

    /// Scores, softmax, `full_grad`, `loss`, `sample_grad_into` and three
    /// consecutive SVRG inner steps against the oracle, bit for bit, for
    /// one generated model and dataset.
    fn check_case(classes: usize, d: usize, scale: f32, rng: &mut StdRng, reach: &mut Reach) {
        let ds = Dataset::synthetic(N, d, classes, rng.gen_range(0..u64::MAX));
        let mut model = LogReg::new(classes, d, 1e-3);
        model.w = weights(rng, classes * d, scale);
        let s_used = weights(rng, classes * d, scale);
        let ctx = format!("classes {classes}, d {d}, scale {scale}");
        let lanes = classes.div_ceil(4);
        reach.lane_widths[if lanes * 4 > MAX_LANES { 0 } else { lanes }] = true;

        let scorer = Scorer::new(&model.w, classes, d);
        let mut lane_out = vec![0.0f32; classes];
        for i in 0..N {
            let x = ds.row(i);
            let want = scores(&model.w, classes, x);
            scorer.scores_into(x, &mut lane_out);
            assert_eq!(bits(&lane_out), bits(&want), "lane scores, {ctx}");
            assert_eq!(bits(&model.scores(x)), bits(&want), "row scores, {ctx}");
            let p = softmax(&want);
            assert_eq!(bits(&model.probs(x)), bits(&p), "probs, {ctx}");
            reach.subnormal_probs += p.iter().filter(|v| v.is_subnormal()).count();
            reach.zero_probs += p.iter().filter(|&&v| v == 0.0).count();

            let mut got = vec![0.5f32; classes * d];
            let mut want = got.clone();
            model.sample_grad_into(&s_used, &ds, i, 0.25, &mut got);
            sample_grad_into(&model, &s_used, &ds, i, 0.25, &mut want);
            assert_eq!(bits(&got), bits(&want), "sample_grad_into, {ctx}");
        }
        let g_used = full_grad(&model, &s_used, &ds);
        assert_eq!(
            bits(&model.full_grad(&s_used, &ds)),
            bits(&g_used),
            "full_grad, {ctx}"
        );
        assert_eq!(
            model.loss(&ds).to_bits(),
            loss(&model, &ds).to_bits(),
            "loss, {ctx}"
        );

        let cfg = SvrgConfig {
            epoch: N,
            lr: 0.04,
            momentum: 0.9,
            lambda: model.lambda,
            max_outer: 1,
            seed: 0,
        };
        let mut want_model = model.clone();
        let mut want_mom = weights(rng, classes * d, 0.1);
        let mut mom = want_mom.clone();
        let anchor = Anchor::new(&s_used, &g_used, (classes, d), cfg.lambda);
        let mut probs = vec![0.0f32; 2 * classes];
        for step in 0..3 {
            let i = rng.gen_range(0..N);
            let p = softmax(&scores(&want_model.w, classes, ds.row(i)));
            reach.tiny_step_coeffs += p.iter().filter(|&&v| is_tiny(v)).count();
            svrg_step(
                &mut want_model,
                &mut want_mom,
                (&s_used, &g_used),
                &ds,
                i,
                &cfg,
            );
            inner_step(
                &mut model,
                &mut mom,
                &anchor,
                (ds.row(i), ds.y[i]),
                &cfg,
                &mut probs,
            );
            assert_eq!(bits(&model.w), bits(&want_model.w), "step {step} w, {ctx}");
            assert_eq!(bits(&mom), bits(&want_mom), "step {step} mom, {ctx}");
        }
    }

    /// A score whose products are all `-0.0` is `-0.0`: the sums start
    /// from `-0.0`, as `Iterator::sum` does, in every lane width and the
    /// fallback.
    #[test]
    fn all_negative_zero_products_sum_to_negative_zero() {
        let x = [-1.0f32; 16];
        for classes in [3, 7, 11, 15, 19] {
            let w = vec![0.0f32; classes * x.len()];
            let want = scores(&w, classes, &x);
            assert!(want.iter().all(|s| *s == 0.0 && s.is_sign_negative()));
            let mut got = vec![1.0f32; classes];
            Scorer::new(&w, classes, x.len()).scores_into(&x, &mut got);
            assert_eq!(bits(&got), bits(&want), "lanes, {classes} classes");
            let mut got = vec![1.0f32; classes];
            score_rows(&w, &x, &mut got);
            assert_eq!(bits(&got), bits(&want), "rows, {classes} classes");
        }
    }

    /// A row whose probability underflows to exactly zero at both the
    /// weights and the snapshot, with `-0.0` weights, momentum and
    /// gradient: only the `0.0 +` in `gi = 0.0 + ci·x` keeps the signs of
    /// the zeros the update produces.
    #[test]
    fn signed_zeros_survive_the_fused_update() {
        let d = 16;
        let x: Vec<f32> = (0..d)
            .map(|j| if j % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        let ds = Dataset {
            x: x.clone(),
            y: vec![0],
            n: 1,
            d,
            classes: 2,
        };
        // Class 0 scores 20·16 = 320 above class 1, whose probability is 0.
        let big: Vec<f32> = x.iter().map(|v| 20.0 * v).collect();
        let mut model = LogReg::new(2, d, 1e-3);
        model.w = [big.clone(), vec![-0.0; d]].concat();
        let s_used = [big, vec![0.0; d]].concat();
        let g_used = vec![-0.0f32; 2 * d];
        let cfg = SvrgConfig {
            epoch: 1,
            lr: 0.04,
            momentum: 0.9,
            lambda: 1e-3,
            max_outer: 1,
            seed: 0,
        };
        let mut want_model = model.clone();
        let mut want_mom = vec![-0.0f32; 2 * d];
        let mut mom = want_mom.clone();
        svrg_step(
            &mut want_model,
            &mut want_mom,
            (&s_used, &g_used),
            &ds,
            0,
            &cfg,
        );
        let anchor = Anchor::new(&s_used, &g_used, (2, d), cfg.lambda);
        let mut probs = vec![0.0f32; 4];
        inner_step(&mut model, &mut mom, &anchor, (&x, 0), &cfg, &mut probs);
        assert_eq!(probs[1], 0.0, "class 1 probability underflows");
        assert_eq!(bits(&model.w), bits(&want_model.w));
        assert_eq!(bits(&mom), bits(&want_mom));
    }

    /// Every class count in 2..=20 (each lane width and the row-major
    /// fallback) crossed with every feature count and weight scale, on
    /// random weights and data drawn per cell from the proptest shim's
    /// deterministic case stream.
    #[test]
    fn kernels_match_reference_bit_for_bit() {
        let mut reach = Reach::default();
        let mut case = 0;
        for classes in 2..=20 {
            for d in DS {
                for scale in SCALES {
                    let mut rng = proptest::case_rng("kernels_match_reference_bit_for_bit", case);
                    check_case(classes, d, scale, &mut rng, &mut reach);
                    case += 1;
                }
            }
        }
        assert!(reach.lane_widths.iter().all(|&hit| hit), "lane widths");
        assert!(reach.subnormal_probs > 0, "no subnormal probability");
        assert!(reach.zero_probs > 0, "no probability underflowed");
        assert!(reach.tiny_step_coeffs > 0, "no tiny inner-step coefficient");
    }

    /// Whole SVRG runs in every mode, and the optimum search, against
    /// the from-scratch reference loops: the shared probability pass and
    /// the per-outer-iteration anchor must not change a bit. A large
    /// learning rate drives the model confident fast, so late steps see
    /// subnormal probabilities.
    #[test]
    fn svrg_run_and_optimum_match_reference() {
        let tm = SvrgTimeModel::analytic_default();
        for (classes, d) in [(3, 16), (10, 48), (17, 16)] {
            let ds = Dataset::synthetic(48, d, classes, classes as u64);
            for mode in [
                SvrgMode::HostOnly,
                SvrgMode::Accelerated,
                SvrgMode::DelayedUpdate,
            ] {
                let cfg = SvrgConfig {
                    epoch: 24,
                    lr: 0.5,
                    momentum: 0.9,
                    lambda: 1e-3,
                    max_outer: 6,
                    seed: 9,
                };
                let got = svrg::run(mode, &ds, cfg, &tm).points;
                let want = run(mode, &ds, cfg, &tm).points;
                let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
                    p.iter().map(|(t, l)| (t.to_bits(), l.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{classes}x{d} {}", mode.label());
            }
            let got = svrg::optimum_loss(&ds, 1e-3, 30);
            let want = optimum_loss(&ds, 1e-3, 30);
            assert_eq!(got.to_bits(), want.to_bits(), "optimum {classes}x{d}");
        }
    }
}
