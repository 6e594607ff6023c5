//! Multinomial logistic regression with ℓ2 regularization — the paper's
//! case-study objective (10-class classification, λ = 1e-3).
//!
//! # Bit-exact kernels
//!
//! The hot paths are scheduled for speed, but every value is computed by
//! the same f32 operations, in the same order, as the straightforward
//! formulation (kept as the test oracle in `reference.rs`), so the
//! model's outputs do not move by one bit:
//!
//! * A class score is `w·x` summed in feature order from `-0.0`, exactly
//!   as `Iterator::sum` folds the products `w[j] * x[j]`. When the
//!   weights stay fixed over a pass over the dataset, a `Scorer`
//!   transposes them once into a feature-major block of lanes (classes
//!   padded to a multiple of the 4-wide vector) and scores every class of
//!   a sample in one pass: one vector multiply and add per feature, each
//!   lane its own ordered sum. With more than 16 classes, or for weights
//!   that change every step, `score_rows` walks several rows at once,
//!   each with its own accumulator.
//! * Softmax runs in place with the same max, exp, sum and divide steps
//!   as [`softmax`].
//! * [`LogReg::loss`] and [`LogReg::full_grad`] at the same weights start
//!   from the same per-sample probabilities, so SVRG and the optimum
//!   search score the dataset once per iteration, not twice.
//! * Nothing is fused (`mul_add`), reassociated or flushed to zero
//!   (FTZ/DAZ): each would change f32 results. The oracle tests in
//!   `reference.rs` and the digests in `tests/numerics_pinned.rs` hold
//!   the kernels to this.
//!
//! # Subnormals
//!
//! Softmax probabilities below `f32::MIN_POSITIVE` are common once the
//! model is confident, and an f32 multiply with a subnormal operand or
//! result takes a microcode assist (about 100 cycles per vector
//! instruction on an Intel Xeon). Two rules contain that cost without
//! changing a bit:
//!
//! * Gradient and update loops run along features, one class row at a
//!   time, never across classes, so a subnormal coefficient slows only
//!   its own row instead of every vector of the loop.
//! * A row whose coefficient is below 2^-120 forms its products with
//!   `mul_tiny`: the exact product in f64, rounded once to f32 by integer
//!   steps. That is the same correctly rounded result the f32 multiply
//!   gives, with no subnormal operand anywhere.

use crate::dataset::Dataset;

/// Widest lane block a [`Scorer`] builds; more classes fall back to
/// [`score_rows`].
pub(crate) const MAX_LANES: usize = 16;

/// The model: a `classes x d` weight matrix (row-major) and the
/// regularization strength.
#[derive(Debug, Clone)]
pub struct LogReg {
    /// Weights, `classes x d` row-major.
    pub w: Vec<f32>,
    /// Classes.
    pub classes: usize,
    /// Features.
    pub d: usize,
    /// ℓ2 regularization λ.
    pub lambda: f32,
}

impl LogReg {
    /// Zero-initialized model.
    pub fn new(classes: usize, d: usize, lambda: f32) -> Self {
        Self {
            w: vec![0.0; classes * d],
            classes,
            d,
            lambda,
        }
    }

    /// Class scores `W x` for one sample.
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.classes];
        score_rows(&self.w, x, &mut out);
        out
    }

    /// Softmax probabilities for one sample.
    pub fn probs(&self, x: &[f32]) -> Vec<f32> {
        softmax(&self.scores(x))
    }

    /// Regularized negative log-likelihood over the dataset.
    pub fn loss(&self, ds: &Dataset) -> f64 {
        self.loss_from_probs(ds, &self.sample_probs(&self.w, ds))
    }

    /// [`loss`](Self::loss) from [`sample_probs`](Self::sample_probs) at
    /// `self.w`.
    pub(crate) fn loss_from_probs(&self, ds: &Dataset, probs: &[f32]) -> f64 {
        let mut total = 0.0f64;
        for i in 0..ds.n {
            total -= f64::from(probs[i * self.classes + ds.y[i]].max(1e-30).ln());
        }
        let reg: f64 = self
            .w
            .iter()
            .map(|&w| f64::from(w) * f64::from(w))
            .sum::<f64>()
            * 0.5
            * f64::from(self.lambda);
        total / ds.n as f64 + reg
    }

    /// Softmax probabilities of every sample at weights `w_at`, `n x
    /// classes` row-major: the one scoring pass that the loss and the
    /// full gradient at the same weights both start from.
    pub(crate) fn sample_probs(&self, w_at: &[f32], ds: &Dataset) -> Vec<f32> {
        let scorer = Scorer::new(w_at, self.classes, self.d);
        let mut probs = vec![0.0f32; ds.n * self.classes];
        for i in 0..ds.n {
            let p = &mut probs[i * self.classes..(i + 1) * self.classes];
            scorer.scores_into(ds.row(i), p);
            softmax_in_place(p);
        }
        probs
    }

    /// Gradient contribution of sample `i` at weights `w_at` (same shape
    /// as `self.w`), *excluding* regularization, accumulated into `out`
    /// scaled by `scale`.
    pub fn sample_grad_into(
        &self,
        w_at: &[f32],
        ds: &Dataset,
        i: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        let x = ds.row(i);
        let mut p = vec![0.0f32; self.classes];
        score_rows(w_at, x, &mut p);
        softmax_in_place(&mut p);
        add_sample_grad(out, &p, ds.y[i], scale, x);
    }

    /// Full-batch gradient at `w_at`, including regularization.
    pub fn full_grad(&self, w_at: &[f32], ds: &Dataset) -> Vec<f32> {
        self.grad_from_probs(w_at, ds, &self.sample_probs(w_at, ds))
    }

    /// [`full_grad`](Self::full_grad) from
    /// [`sample_probs`](Self::sample_probs) at `w_at`.
    pub(crate) fn grad_from_probs(&self, w_at: &[f32], ds: &Dataset, probs: &[f32]) -> Vec<f32> {
        let mut g = vec![0.0f32; self.classes * self.d];
        let inv_n = 1.0 / ds.n as f32;
        for i in 0..ds.n {
            let p = &probs[i * self.classes..(i + 1) * self.classes];
            add_sample_grad(&mut g, p, ds.y[i], inv_n, ds.row(i));
        }
        for (gv, wv) in g.iter_mut().zip(w_at) {
            *gv += self.lambda * wv;
        }
        g
    }

    /// Classification accuracy.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        let mut correct = 0;
        for i in 0..ds.n {
            let p = self.scores(ds.row(i));
            let best = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(c, _)| c);
            if best == ds.y[i] {
                correct += 1;
            }
        }
        correct as f64 / ds.n as f64
    }
}

/// Numerically stable softmax.
pub fn softmax(scores: &[f32]) -> Vec<f32> {
    let mut p = scores.to_vec();
    softmax_in_place(&mut p);
    p
}

/// [`softmax`] in place: the same max, exp, sum (from `-0.0`, in class
/// order) and divide steps.
pub(crate) fn softmax_in_place(v: &mut [f32]) {
    let m = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for s in v.iter_mut() {
        *s = (*s - m).exp();
    }
    let sum: f32 = v.iter().sum();
    for e in v.iter_mut() {
        *e /= sum;
    }
}

/// Accumulate one sample's unregularized gradient into `g`: class row
/// `c` gains `scale * (p[c] - [c == y]) * x`, one row at a time along
/// features (see the module's subnormal rule).
fn add_sample_grad(g: &mut [f32], p: &[f32], y: usize, scale: f32, x: &[f32]) {
    let d = x.len();
    for (c, &pc) in p.iter().enumerate() {
        let coeff = scale * (pc - if c == y { 1.0 } else { 0.0 });
        let row = &mut g[c * d..(c + 1) * d];
        if is_tiny(coeff) {
            let coeff = f64::from(coeff);
            for (o, &v) in row.iter_mut().zip(x) {
                *o += mul_tiny(coeff, v);
            }
        } else {
            for (o, v) in row.iter_mut().zip(x) {
                *o += coeff * v;
            }
        }
    }
}

/// Whether a row coefficient is nonzero and below 2^-120. Such a
/// coefficient is subnormal, or its products with data below 2^-6 to 1
/// in magnitude are, so enough of the row's f32 multiplies would take a
/// microcode assist that [`mul_tiny`] is the cheaper path. The threshold
/// only picks the faster path: both give the same bits.
pub(crate) fn is_tiny(c: f32) -> bool {
    c != 0.0 && c.abs() < f32::from_bits((127 - 120) << 23)
}

/// `c * v` for an f32 coefficient `c` (passed widened to f64), bit for
/// bit, with no subnormal f32 operand or result along the way.
///
/// The f64 product of two f32 values is exact (24 + 24 significant bits
/// fit in 53) and lies in f64's normal range, so rounding it once to
/// f32, to nearest with ties to even, is exactly the f32 product. A
/// normal result is rounded by the f64 to f32 conversion. A subnormal
/// one (where the conversion would itself assist) is `k * 2^-149` with
/// `k <= 2^23`: scaling the magnitude by 2^149 and adding 2^52 rounds it
/// to the integer `k`, ties to even, in the low mantissa bits, and `k`
/// with the product's sign is the f32 bit pattern (`k = 2^23` encodes
/// `f32::MIN_POSITIVE`). Both are computed and one selected, so the
/// loop stays branch-free.
#[inline(always)]
pub(crate) fn mul_tiny(c: f64, v: f32) -> f32 {
    const TWO_149: f64 = f64::from_bits((1023 + 149) << 52);
    const TWO_52: f64 = f64::from_bits((1023 + 52) << 52);
    let p = c * f64::from(v);
    let magnitude = p.abs();
    let subnormal = magnitude < f64::from(f32::MIN_POSITIVE);
    let normal = (if subnormal { 1.0 } else { p }) as f32;
    let k = (if subnormal { magnitude } else { 0.0 }) * TWO_149 + TWO_52;
    let sign = (p.to_bits() >> 32) as u32 & 0x8000_0000;
    if subnormal {
        f32::from_bits(sign | k.to_bits() as u32)
    } else {
        normal
    }
}

/// Class scores of a row-major `classes x d` weight matrix `w` for
/// sample `x` (`d` features) into `out` (`classes` entries).
///
/// Rows are walked eight at a time, then two, then one, with one
/// accumulator per row: independent ordered sums the core overlaps,
/// where one row after another would wait on each add. Each sum is
/// still `-0.0 + w[0]*x[0] + w[1]*x[1] + ...` in feature order.
pub(crate) fn score_rows(w: &[f32], x: &[f32], out: &mut [f32]) {
    let d = x.len();
    let mut c = 0;
    while out.len() - c >= 8 {
        score_row_group::<8>(&w[c * d..(c + 8) * d], x, &mut out[c..c + 8]);
        c += 8;
    }
    while out.len() - c >= 2 {
        score_row_group::<2>(&w[c * d..(c + 2) * d], x, &mut out[c..c + 2]);
        c += 2;
    }
    if c < out.len() {
        score_row_group::<1>(&w[c * d..(c + 1) * d], x, &mut out[c..c + 1]);
    }
}

/// Scores of `R` consecutive weight rows, one accumulator each.
fn score_row_group<const R: usize>(w: &[f32], x: &[f32], out: &mut [f32]) {
    let d = x.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &w[r * d..(r + 1) * d]);
    let mut acc = [-0.0f32; R];
    for (j, &xj) in x.iter().enumerate() {
        for r in 0..R {
            acc[r] += rows[r][j] * xj;
        }
    }
    out.copy_from_slice(&acc);
}

/// Class scores for a weight matrix held fixed over many samples.
///
/// With at most [`MAX_LANES`] classes, the weights are stored
/// feature-major: `d` groups of `lanes` floats, lane `c` of group `j`
/// holding `w[c][j]` and the padding lanes zero. Otherwise they are kept
/// row-major for [`score_rows`].
#[derive(Debug, Clone)]
pub(crate) struct Scorer {
    /// Lanes per feature group: `classes` rounded up to a multiple of 4,
    /// or 0 for the row-major fallback.
    lanes: usize,
    classes: usize,
    block: Vec<f32>,
}

impl Scorer {
    /// Lay out `w` (`classes x d`, row-major) for scoring.
    pub(crate) fn new(w: &[f32], classes: usize, d: usize) -> Self {
        let lanes = classes.div_ceil(4) * 4;
        if lanes > MAX_LANES {
            return Self {
                lanes: 0,
                classes,
                block: w[..classes * d].to_vec(),
            };
        }
        let mut block = vec![0.0f32; d * lanes];
        for c in 0..classes {
            for (j, &wv) in w[c * d..(c + 1) * d].iter().enumerate() {
                block[j * lanes + c] = wv;
            }
        }
        Self {
            lanes,
            classes,
            block,
        }
    }

    /// Every class score of sample `x` into `out` (`classes` entries).
    pub(crate) fn scores_into(&self, x: &[f32], out: &mut [f32]) {
        match self.lanes {
            4 => self.lane_scores::<4>(x, out),
            8 => self.lane_scores::<8>(x, out),
            12 => self.lane_scores::<12>(x, out),
            16 => self.lane_scores::<16>(x, out),
            _ => score_rows(&self.block, x, out),
        }
    }

    /// One pass over the features, all `L` lanes per step: lane `c`
    /// sums `w[c][j] * x[j]` in feature order from `-0.0`.
    fn lane_scores<const L: usize>(&self, x: &[f32], out: &mut [f32]) {
        let (groups, _) = self.block.as_chunks::<L>();
        let mut acc = [-0.0f32; L];
        for (wj, &xj) in groups.iter().zip(x) {
            for c in 0..L {
                acc[c] += wj[c] * xj;
            }
        }
        out.copy_from_slice(&acc[..self.classes]);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn mul_tiny_matches_the_hardware_product() {
        let check = |c: f32, v: f32| {
            let want = c * v;
            let got = mul_tiny(f64::from(c), v);
            assert_eq!(got.to_bits(), want.to_bits(), "{c:e} * {v:e}");
        };
        // Exact ties between neighbouring subnormals, and the step up to
        // f32::MIN_POSITIVE.
        for k in (0..64).chain((1 << 23) - 64..(1 << 23) + 64) {
            for v in [0.5f32, -0.5, 1.5, 0.25, -0.75, 3.0, 1.0] {
                check(f32::from_bits(k), v);
                check(-f32::from_bits(k), v);
            }
        }
        // Coefficients from subnormal up to 2^-60 against data from 2^-30
        // to 2^8, both signs.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200_000 {
            let sign = |rng: &mut StdRng| if rng.gen_bool(0.5) { 1 << 31 } else { 0 };
            let c = f32::from_bits(rng.gen_range(0..68u32 << 23) | sign(&mut rng));
            let v = f32::from_bits(rng.gen_range(97u32 << 23..136 << 23) | sign(&mut rng));
            check(c, v);
        }
    }

    fn small() -> (Dataset, LogReg) {
        let ds = Dataset::synthetic(200, 16, 3, 5);
        (ds, LogReg::new(3, 16, 1e-3))
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stable under large scores.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_weights_give_uniform_loss() {
        let (ds, model) = small();
        let expect = (3.0f64).ln();
        assert!((model.loss(&ds) - expect).abs() < 1e-6);
    }

    #[test]
    fn full_gradient_matches_finite_difference() {
        let (ds, mut model) = small();
        // Random-ish nonzero weights.
        for (i, w) in model.w.iter_mut().enumerate() {
            *w = ((i * 37 % 19) as f32 - 9.0) * 0.01;
        }
        let g = model.full_grad(&model.w, &ds);
        let eps = 1e-3f32;
        for &idx in &[0usize, 7, 16 + 3, 2 * 16 + 11] {
            let mut wp = model.w.clone();
            wp[idx] += eps;
            let lp = LogReg {
                w: wp,
                ..model.clone()
            }
            .loss(&ds);
            let mut wm = model.w.clone();
            wm[idx] -= eps;
            let lm = LogReg {
                w: wm,
                ..model.clone()
            }
            .loss(&ds);
            let fd = ((lp - lm) / (2.0 * f64::from(eps))) as f32;
            assert!(
                (fd - g[idx]).abs() < 2e-3,
                "idx {idx}: finite-diff {fd} vs analytic {}",
                g[idx]
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss_and_improves_accuracy() {
        let (ds, mut model) = small();
        let l0 = model.loss(&ds);
        for _ in 0..50 {
            let g = model.full_grad(&model.w, &ds);
            for (w, gv) in model.w.iter_mut().zip(&g) {
                *w -= 0.5 * gv;
            }
        }
        let l1 = model.loss(&ds);
        assert!(l1 < 0.7 * l0, "loss {l0} -> {l1}");
        assert!(model.accuracy(&ds) > 0.6);
    }
}
