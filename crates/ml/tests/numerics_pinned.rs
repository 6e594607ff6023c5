//! Pins the exact f32/f64 output bits of the logistic-regression and
//! SVRG math. The kernels may be rescheduled for speed, but every
//! floating-point operation must stay the same and run in the same
//! order, so these digests must never move. A change that alters them
//! changes the model's numbers, not just its speed.
//!
//! Each digest is 64-bit FNV-1a over the little-endian `to_bits` of the
//! values, in order.

use chopim_ml::svrg::{self, SvrgMode};
use chopim_ml::{Dataset, LogReg, SvrgConfig, SvrgTimeModel};

const N: usize = 128;
const D: usize = 32;
const CLASSES: usize = 10;
const LAMBDA: f32 = 1e-3;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f32s(self, v: &[f32]) -> Self {
        v.iter()
            .fold(self, |h, x| h.bytes(&x.to_bits().to_le_bytes()))
    }

    fn f64(self, v: f64) -> Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }
}

fn dataset() -> Dataset {
    Dataset::synthetic(N, D, CLASSES, 5)
}

/// Weight scale at which 26 of the 1280 softmax probabilities are
/// subnormal and 14 are zero.
const SUBNORMAL_SCALE: f32 = 60.0;

/// A model with a fixed, sign-mixed weight pattern times `scale`.
fn model(scale: f32) -> LogReg {
    let mut m = LogReg::new(CLASSES, D, LAMBDA);
    for (i, w) in m.w.iter_mut().enumerate() {
        *w = ((i * 37 % 19) as f32 - 9.0) * 0.01 * scale;
    }
    m
}

/// Digest of `full_grad` and `loss` at the model's own weights.
fn grad_and_loss(m: &LogReg, ds: &Dataset) -> (u64, u64) {
    let g = m.full_grad(&m.w, ds);
    (Fnv::new().f32s(&g).0, Fnv::new().f64(m.loss(ds)).0)
}

#[test]
fn optimum_loss_bits() {
    let ds = dataset();
    let opt = svrg::optimum_loss(&ds, LAMBDA, 40);
    assert_eq!(
        Fnv::new().f64(opt).0,
        0x03ba_fee0_1aae_77f0,
        "optimum_loss {opt}"
    );
}

#[test]
fn full_grad_and_loss_bits_at_zero_weights() {
    let ds = dataset();
    let (g, l) = grad_and_loss(&LogReg::new(CLASSES, D, LAMBDA), &ds);
    let want = (0xb37c_b86e_053e_b9e8, 0x9af2_8924_b953_361f);
    assert_eq!((g, l), want, "full_grad {g:#x}, loss {l:#x}");
}

#[test]
fn full_grad_and_loss_bits_at_mixed_weights() {
    let ds = dataset();
    let (g, l) = grad_and_loss(&model(1.0), &ds);
    let want = (0x93eb_3841_f47d_a7d4, 0x99f5_eac8_3d81_5975);
    assert_eq!((g, l), want, "full_grad {g:#x}, loss {l:#x}");
}

/// Weights scaled until some softmax probabilities are subnormal and
/// some underflow to zero: the range where a reordered or flushed
/// operation would show first.
#[test]
fn full_grad_and_loss_bits_with_subnormal_probabilities() {
    let ds = dataset();
    let m = model(SUBNORMAL_SCALE);
    let probs: Vec<f32> = (0..ds.n).flat_map(|i| m.probs(ds.row(i))).collect();
    assert!(
        probs.iter().any(|p| p.is_subnormal()),
        "no subnormal probability"
    );
    assert!(probs.contains(&0.0), "no probability underflows to zero");
    let (g, l) = grad_and_loss(&m, &ds);
    let want = (0xaea2_2b28_02e2_be2d, 0x7721_97cc_156e_1dc4);
    assert_eq!((g, l), want, "full_grad {g:#x}, loss {l:#x}");
}

/// The seven Fig. 15a series: HO and ACC at N, N/2, N/4, and delayed
/// update at N/4. Every `(seconds, loss)` point of each trace.
#[test]
fn svrg_trace_bits() {
    let ds = dataset();
    let tm = SvrgTimeModel::analytic_default();
    let series = [
        (SvrgMode::HostOnly, 1),
        (SvrgMode::HostOnly, 2),
        (SvrgMode::HostOnly, 4),
        (SvrgMode::Accelerated, 1),
        (SvrgMode::Accelerated, 2),
        (SvrgMode::Accelerated, 4),
        (SvrgMode::DelayedUpdate, 4),
    ];
    let got: Vec<u64> = series
        .iter()
        .map(|&(mode, div)| {
            let epoch = N / div;
            let cfg = SvrgConfig {
                epoch,
                lr: 0.04,
                momentum: 0.9,
                lambda: LAMBDA,
                max_outer: 6 * N / epoch,
                seed: 42,
            };
            let trace = svrg::run(mode, &ds, cfg, &tm);
            trace
                .points
                .iter()
                .fold(Fnv::new(), |h, &(t, l)| h.f64(t).f64(l))
                .0
        })
        .collect();
    let want: [u64; 7] = [
        0xe6d1_024d_14e2_d1c6,
        0xaa92_4de4_68ec_e6eb,
        0x9228_1e9a_b27a_c314,
        0x90dc_5017_5094_0ebc,
        0x5c60_4a99_2bac_5dcb,
        0x4fe3_3933_c903_f126,
        0x33d2_d870_fbbc_9344,
    ];
    let hex: Vec<String> = got.iter().map(|g| format!("{g:#018x}")).collect();
    assert_eq!(got, want, "series digests [{}]", hex.join(", "));
}
