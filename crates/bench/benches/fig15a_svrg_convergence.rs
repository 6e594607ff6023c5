//! **Fig. 15a** — SVRG convergence over wall-clock time, with and without
//! NDAs (8 NDAs = 2ch x 4rk).
//!
//! Seven traces, as in the paper's legend: host-only (HO) and accelerated
//! (ACC) at epochs {N, N/2, N/4}, plus delayed-update. Step times come
//! from the simulator-measured [`chopim_ml::SvrgTimeModel`]; the
//! optimization math is exact.
//!
//! Measured shape: every accelerated series reaches the target gap ahead
//! of its host-only counterpart, and the fastest series is ACC at N/2
//! (2.6 ms), ahead of delayed update (4.6 ms) and HO at N/2 (5.7 ms). The
//! paper finds delayed update fastest; at this scale its stale correction
//! costs more than the overlap saves (a known deviation, see README).

use chopim_bench::{dump_rows_csv, header, paper_spec, run_sweep_with};
use chopim_exp::prelude::*;
use chopim_ml::svrg::{self, SvrgMode};
use chopim_ml::{Dataset, SvrgConfig, SvrgTimeModel};

fn main() {
    // cifar10 stand-in, scaled for harness runtime (see DESIGN.md).
    let (n, d, classes) = (2048usize, 256usize, 10usize);
    let ds = Dataset::synthetic(n, d, classes, 17);
    println!("measuring step times on the simulator (2ch x 4rk = 8 NDAs)...");
    let tm = SvrgTimeModel::measure(n, d, classes, 4);
    println!(
        "  host_iter={:.2}us host_summarize={:.2}ms nda_summarize={:.2}ms \
         (concurrent {:.2}ms) exchange={:.2}us",
        tm.host_iter_s * 1e6,
        tm.host_summarize_s * 1e3,
        tm.nda_summarize_s * 1e3,
        tm.nda_summarize_concurrent_s * 1e3,
        tm.exchange_s * 1e6,
    );
    let opt_gd = svrg::optimum_loss(&ds, 1e-3, 250);

    let base_cfg = SvrgConfig {
        epoch: n,
        lr: 0.04,
        momentum: 0.9,
        lambda: 1e-3,
        max_outer: 24,
        seed: 42,
    };
    let modes = [
        ("HO", SvrgMode::HostOnly),
        ("ACC", SvrgMode::Accelerated),
        ("DelayedUpdate", SvrgMode::DelayedUpdate),
    ];
    // The optimizer runs below fix their own RNG seed (the paper's 42),
    // so the sweep's per-point seeds are unused here — the grid supplies
    // the (mode x epoch) product, parallelism, and tagging. Delayed
    // update is only plotted at its best epoch (N/4), as in the legend.
    let specs: Vec<ScenarioSpec> = SweepBuilder::new(paper_spec())
        .axis("mode", modes, |_, _| {})
        .axis("epoch_div", labeled([1usize, 2, 4]), |_, _| {})
        .build()
        .into_iter()
        .filter(|s| s.tag("mode") != Some("DelayedUpdate") || s.tag("epoch_div") == Some("4"))
        .collect();
    assert_eq!(specs.len(), 7);

    let result = run_sweep_with(&specs, |spec| {
        let mode = *spec.value::<SvrgMode>("mode").expect("mode axis");
        let div = *spec.value::<usize>("epoch_div").expect("epoch_div axis");
        let e = n / div;
        let cfg = SvrgConfig {
            epoch: e,
            max_outer: base_cfg.max_outer * n / e,
            ..base_cfg
        };
        let name = match mode {
            SvrgMode::DelayedUpdate => "DelayedUpdate".to_string(),
            m => format!("{}, Epoch(N/{})", m.label(), div),
        };
        (name, svrg::run(mode, &ds, cfg, &tm))
    });

    // Tighten the reference with the best loss any trace reached (the
    // plotted quantity is loss *gap*, which must be nonnegative).
    let opt = result
        .iter()
        .map(|p| p.result.1.best_loss())
        .fold(opt_gd, f64::min)
        - 1e-9;
    println!("reference optimum loss: {opt:.6}");

    header(
        "Fig. 15a: training loss - optimum vs time (seconds)",
        &[
            "series",
            "t25%",
            "loss",
            "t50%",
            "loss",
            "t100%",
            "loss",
            "time to gap<2e-2",
        ],
    );
    let mut csv_rows = Vec::new();
    for p in result.iter() {
        let (name, trace) = &p.result;
        let pts = &trace.points;
        let pick = |f: f64| {
            let i = ((pts.len() as f64 * f) as usize).min(pts.len() - 1);
            pts[i]
        };
        let (t1, l1) = pick(0.25);
        let (t2, l2) = pick(0.5);
        let (t3, l3) = pick(1.0);
        let conv = trace
            .time_to_converge(opt, 2e-2)
            .map(|t| format!("{t:.4}s"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "| {name} | {t1:.4} | {:.4} | {t2:.4} | {:.4} | {t3:.4} | {:.4} | {conv} |",
            l1 - opt,
            l2 - opt,
            l3 - opt
        );
        csv_rows.push(vec![
            name.clone(),
            format!("{t1}"),
            format!("{}", l1 - opt),
            format!("{t2}"),
            format!("{}", l2 - opt),
            format!("{t3}"),
            format!("{}", l3 - opt),
            conv,
        ]);
    }
    dump_rows_csv(
        "fig15a_svrg_convergence",
        &[
            "series",
            "t25",
            "gap25",
            "t50",
            "gap50",
            "t100",
            "gap100",
            "time_to_gap_2e-2",
        ],
        &csv_rows,
    );
    println!(
        "\nTakeaway 6: collaborative host-NDA processing speeds up SVRG: NDA \
         summarization reaches the target gap ahead of host-only. Here the \
         accelerated (serialized) series is fastest; the paper finds delayed \
         update fastest (a known deviation, see README)."
    );
}
