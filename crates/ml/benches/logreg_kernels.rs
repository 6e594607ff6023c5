//! Micro-benchmarks for the logistic-regression kernels at the
//! `svrg_train` shape (n 512, d 128, 10 classes): `full_grad` and `loss`
//! per sample, and the SVRG inner step. Run them when touching
//! `logreg.rs` or `svrg.rs` to see the kernel cost directly
//! (`make perf-micro`, or `cargo bench -p chopim-ml`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use chopim_ml::svrg::{self, SvrgMode};
use chopim_ml::{Dataset, LogReg, SvrgConfig, SvrgTimeModel};

const N: usize = 512;
const D: usize = 128;
const CLASSES: usize = 10;
/// Inner steps per timed `svrg::run`: enough that the outer iteration's
/// two full passes (snapshot gradient and loss) are about 2% of it.
const STEPS: usize = 32 * N;

/// A model part-way to the optimum, so the softmax sees the spread of
/// probabilities (subnormal ones included) a training run does.
fn trained(ds: &Dataset) -> LogReg {
    let mut model = LogReg::new(CLASSES, D, 1e-3);
    for _ in 0..30 {
        let g = model.full_grad(&model.w, ds);
        for (w, gv) in model.w.iter_mut().zip(&g) {
            *w -= gv;
        }
    }
    model
}

fn bench_passes(c: &mut Criterion) {
    let ds = Dataset::synthetic(N, D, CLASSES, 1);
    let model = trained(&ds);
    let mut group = c.benchmark_group("logreg n 512 d 128 x10");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("full_grad", |b| {
        b.iter(|| model.full_grad(black_box(&model.w), &ds))
    });
    group.bench_function("loss", |b| b.iter(|| model.loss(black_box(&ds))));
    group.finish();
}

fn bench_svrg_step(c: &mut Criterion) {
    let ds = Dataset::synthetic(N, D, CLASSES, 1);
    let tm = SvrgTimeModel::analytic_default();
    let cfg = SvrgConfig {
        epoch: STEPS,
        lr: 0.04,
        momentum: 0.9,
        lambda: 1e-3,
        max_outer: 1,
        seed: 1,
    };
    let mut group = c.benchmark_group("svrg d 128 x10");
    group.throughput(Throughput::Elements(STEPS as u64));
    group.bench_function("inner step (1 outer x 16384)", |b| {
        b.iter(|| svrg::run(SvrgMode::Accelerated, black_box(&ds), cfg, &tm))
    });
    group.finish();
}

criterion_group!(benches, bench_passes, bench_svrg_step);
criterion_main!(benches);
