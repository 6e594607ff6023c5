//! End-to-end behavioral tests of the integrated Chopim machine: the
//! qualitative claims of the paper's takeaways, checked on small windows.

use chopim_core::prelude::*;
use chopim_dram::TimingChecker;

fn base_cfg() -> ChopimConfig {
    ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        ..ChopimConfig::default()
    }
}

fn vec_pair(sys: &mut ChopimSystem, len: usize) -> (VecId, VecId) {
    let x = sys.runtime.vector(len, Sharing::Shared);
    let y = sys.runtime.vector(len, Sharing::Shared);
    let data: Vec<f32> = (0..len).map(|i| (i % 97) as f32 * 0.25).collect();
    sys.runtime.write_vector(x, &data);
    (x, y)
}

#[test]
fn host_only_ipc_tracks_mix_intensity() {
    let mut ipc = Vec::new();
    for mix in [1usize, 8] {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(mix).unwrap()),
            ..base_cfg()
        });
        sys.run(120_000);
        ipc.push(sys.report().host_ipc);
    }
    assert!(
        ipc[1] > 2.0 * ipc[0],
        "light mix8 should far outrun heavy mix1: {ipc:?}"
    );
    assert!(ipc[0] > 0.3, "heavy mix must still make progress: {ipc:?}");
}

#[test]
fn nda_captures_idle_bandwidth_without_host() {
    let mut sys = ChopimSystem::new(base_cfg());
    let (x, y) = vec_pair(&mut sys, 1 << 16);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let cycles = sys.drive(op, 3_000_000);
    assert!(
        sys.runtime.op_done(op),
        "copy must finish (ran {cycles} cycles)"
    );
    let r = sys.report();
    assert!(
        r.nda_bw_utilization > 0.5,
        "idle machine: NDAs should capture most idle bandwidth, got {}",
        r.nda_bw_utilization
    );
    assert_eq!(sys.runtime.read_vector(y), sys.runtime.read_vector(x));
}

#[test]
fn dot_reduction_result_is_exact() {
    let mut sys = ChopimSystem::new(base_cfg());
    let (x, y) = vec_pair(&mut sys, 4096);
    let data_y: Vec<f32> = (0..4096).map(|i| ((i % 13) as f32) - 6.0).collect();
    sys.runtime.write_vector(y, &data_y);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![x, y], None)
        .submit();
    sys.drive(op, 2_000_000);
    let expect: f32 = sys
        .runtime
        .read_vector(x)
        .iter()
        .zip(sys.runtime.read_vector(y))
        .map(|(a, b)| a * b)
        .sum();
    assert_eq!(sys.runtime.op_result(op), Some(expect));
}

#[test]
fn concurrent_copy_with_host_keeps_fsm_in_sync_and_timing_legal() {
    let mut sys = ChopimSystem::new(ChopimConfig {
        mix: Some(MixId::new(1).unwrap()),
        ..base_cfg()
    });
    sys.enable_mem_trace();
    let (x, y) = vec_pair(&mut sys, 1 << 15);
    let sess = sys.runtime.default_session();
    sys.spawn_stream(sess, move |rt, s| {
        s.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
            .submit()
    });
    sys.run(150_000);
    assert!(
        sys.fsm_in_sync(),
        "host-side shadow FSMs must track the NDAs"
    );
    let r = sys.report();
    assert!(r.host_ipc > 0.0);
    assert!(r.dram.reads_nda > 0, "NDA made progress under host load");
    // Every command in the trace satisfies the independent JEDEC checker.
    let trace = sys.take_mem_trace();
    assert!(trace.len() > 10_000, "trace too small: {}", trace.len());
    let cfg = DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh());
    for ch in 0..cfg.channels {
        let mut checker = TimingChecker::new(&cfg);
        for (c, at, cmd, issuer) in trace.iter().filter(|e| e.0 == ch) {
            assert_eq!(*c, ch);
            checker
                .step(*at, cmd, *issuer)
                .unwrap_or_else(|e| panic!("channel {ch}: {e}"));
        }
        assert!(checker.commands_checked() > 0);
    }
}

#[test]
fn bank_partitioning_shields_nda_from_host_row_conflicts() {
    // Takeaway 2: partitioning boosts NDA throughput for read-intensive
    // ops under a memory-intensive host mix.
    let mut util = Vec::new();
    for reserved in [0usize, 1] {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(1).unwrap()),
            reserved_banks: reserved,
            ..base_cfg()
        });
        let (x, y) = vec_pair(&mut sys, 1 << 16);
        let sess = sys.runtime.default_session();
        let stream = sys.spawn_stream(sess, move |rt, s| {
            s.elementwise(rt, Opcode::Dot, vec![], vec![x, y], None)
                .submit()
        });
        sys.run(250_000);
        assert!(
            sys.stream_completions(stream) > 0,
            "DOT must complete at least once"
        );
        util.push(sys.report().nda_bw_utilization);
    }
    assert!(
        util[1] > 1.1 * util[0],
        "partitioned DOT should beat shared banks: shared={} partitioned={}",
        util[0],
        util[1]
    );
}

#[test]
fn write_throttling_protects_host_reads() {
    // Takeaway 3: with the write-intensive COPY, next-rank prediction
    // recovers host IPC relative to unthrottled issue.
    let mut ipc = Vec::new();
    for policy in [
        WriteIssuePolicy::IssueIfIdle,
        WriteIssuePolicy::NextRankPredict,
    ] {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(1).unwrap()),
            policy,
            ..base_cfg()
        });
        let (x, y) = vec_pair(&mut sys, 1 << 16);
        let sess = sys.runtime.default_session();
        sys.spawn_stream(sess, move |rt, s| {
            s.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
                .submit()
        });
        sys.run(250_000);
        ipc.push(sys.report().host_ipc);
    }
    assert!(
        ipc[1] > ipc[0],
        "next-rank prediction should protect host reads: issue_if_idle={} predict={}",
        ipc[0],
        ipc[1]
    );
}

#[test]
fn coarse_grain_operations_beat_fine_grain() {
    // Takeaway 1 (Fig. 10): tiny per-instruction vector widths choke on
    // launch traffic; coarse widths recover bandwidth.
    let mut util = Vec::new();
    for granularity in [Some(8u64), Some(2048)] {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(1).unwrap()),
            ..base_cfg()
        });
        let (x, _) = vec_pair(&mut sys, 1 << 16);
        let sess = sys.runtime.default_session();
        sys.spawn_stream(sess, move |rt, s| {
            s.elementwise(rt, Opcode::Nrm2, vec![], vec![x], None)
                .opts(LaunchOpts {
                    granularity_lines: granularity,
                    barrier_per_chunk: false,
                })
                .submit()
        });
        sys.run(200_000);
        util.push(sys.report().nda_bw_utilization);
    }
    assert!(
        util[1] > 1.5 * util[0],
        "coarse ops should deliver much more NDA bandwidth: fine={} coarse={}",
        util[0],
        util[1]
    );
}

#[test]
fn rank_partition_mode_runs_and_reports() {
    let mut sys = ChopimSystem::new(ChopimConfig {
        mix: Some(MixId::new(1).unwrap()),
        reserved_banks: 0,
        rank_partition: true,
        ..base_cfg()
    });
    let (x, y) = vec_pair(&mut sys, 1 << 14);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    sys.drive(op, 3_000_000);
    assert!(sys.runtime.op_done(op));
    let r = sys.report();
    // Hosts map onto the lower ranks only; NDAs own the upper ranks.
    assert!(r.host_ipc > 0.0);
    assert!(r.dram.reads_nda > 0);
    assert_eq!(sys.runtime.read_vector(y), sys.runtime.read_vector(x));
}

#[test]
fn gemv_runs_and_matches_reference() {
    let mut sys = ChopimSystem::new(base_cfg());
    let (rows, cols) = (64, 256);
    let a = sys.runtime.matrix(rows, cols);
    let x = sys.runtime.vector(cols, Sharing::Shared);
    let y = sys.runtime.vector(rows, Sharing::Shared);
    let a_data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) - 3.0).collect();
    let x_data: Vec<f32> = (0..cols).map(|i| ((i % 5) as f32) * 0.5).collect();
    sys.runtime.write_matrix(a, &a_data);
    sys.runtime.write_vector(x, &x_data);
    let sess = sys.runtime.default_session();
    let op = sess.gemv(&mut sys.runtime, y, a, x).submit();
    sys.drive(op, 3_000_000);
    assert!(sys.runtime.op_done(op));
    for r in 0..rows {
        let expect: f32 = (0..cols).map(|c| a_data[r * cols + c] * x_data[c]).sum();
        assert_eq!(sys.runtime.read_vector(y)[r], expect, "row {r}");
    }
}

#[test]
fn macro_axpy_rows_matches_reference_and_reduce() {
    let mut sys = ChopimSystem::new(base_cfg());
    let (n, d) = (24, 128);
    let x = sys.runtime.matrix(n, d);
    let a_pvt = sys.runtime.vector(d, Sharing::Private);
    let a = sys.runtime.vector(d, Sharing::Shared);
    let x_data: Vec<f32> = (0..n * d).map(|i| ((i % 11) as f32) - 5.0).collect();
    sys.runtime.write_matrix(x, &x_data);
    let alphas: Vec<f32> = (0..n).map(|i| (i as f32) * 0.1 - 1.0).collect();
    let sess = sys.runtime.default_session();
    let op = sess
        .axpy_rows(&mut sys.runtime, a_pvt, alphas.clone(), x, 4)
        .no_barrier()
        .submit();
    sys.drive(op, 6_000_000);
    assert!(sys.runtime.op_done(op));
    sys.runtime.host_reduce(a, a_pvt);
    for j in 0..d {
        let expect: f32 = (0..n).map(|i| alphas[i] * x_data[i * d + j]).sum();
        let got = sys.runtime.read_vector(a)[j];
        assert!((got - expect).abs() < 1e-3, "elem {j}: {got} vs {expect}");
    }
}

/// Runs up to `iters` conjugate-gradient iterations for `A x = b` on the
/// NDAs, with `A` a synthetic SPD matrix, and returns the final residual
/// norm. Each iteration chains GEMV → DOT → an unordered AXPY pair → DOT
/// → AXPBY, so the residual shrinks only if every op reads the values its
/// producers wrote.
fn cg_residual(sys: &mut ChopimSystem, b_data: &[f32], iters: usize) -> f32 {
    let n = b_data.len();
    let a = sys.runtime.matrix(n, n);
    let mut a_data = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            a_data[i * n + j] = 1.0 / (1.0 + (i as f32 - j as f32).abs());
        }
        a_data[i * n + i] += n as f32 * 0.05;
    }
    sys.runtime.write_matrix(a, &a_data);
    let [b, x, r, p, ap] = [(); 5].map(|_| sys.runtime.vector(n, Sharing::Shared));
    sys.runtime.write_vector(b, b_data);
    // x = 0, r = b, p = b.
    sys.runtime.write_vector(r, b_data);
    sys.runtime.write_vector(p, b_data);

    let budget = 500_000_000;
    let sess = sys.runtime.create_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![r, r], None)
        .submit();
    sys.drive(op, budget);
    let mut rsold = sys.runtime.op_result(op).expect("dot result");
    for _ in 0..iters {
        let g = sess.gemv(&mut sys.runtime, ap, a, p).submit();
        let d = sess
            .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![p, ap], None)
            .after(g)
            .submit();
        sys.drive(d, budget);
        let alpha = rsold / sys.runtime.op_result(d).expect("dot");
        // x += alpha p and r -= alpha Ap touch disjoint operands, so they
        // overlap on the NDAs and are awaited together with the residual
        // DOT that depends on the second.
        let updates: Vec<_> = [(x, p, alpha), (r, ap, -alpha)]
            .into_iter()
            .map(|(dst, src, coef)| {
                sess.elementwise(
                    &mut sys.runtime,
                    Opcode::Axpy,
                    vec![coef],
                    vec![src],
                    Some(dst),
                )
                .unordered()
                .submit()
            })
            .collect();
        let d2 = sess
            .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![r, r], None)
            .after(updates[1])
            .submit();
        sys.drive(Waitable::all_of(updates.into_iter().chain([d2])), budget);
        let rsnew = sys.runtime.op_result(d2).expect("dot");
        if rsnew.sqrt() < 1e-4 {
            return rsnew.sqrt();
        }
        // p = r + (rsnew / rsold) p.
        let opp = sess
            .elementwise(
                &mut sys.runtime,
                Opcode::Axpby,
                vec![1.0, rsnew / rsold],
                vec![r, p],
                Some(p),
            )
            .submit();
        sys.drive(opp, budget);
        rsold = rsnew;
    }
    rsold.sqrt()
}

#[test]
fn cg_converges_on_the_simulator() {
    let mut sys = ChopimSystem::new(base_cfg());
    let b: Vec<f32> = (0..64).map(|i| ((i % 17) as f32) - 8.0).collect();
    let b_norm = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    let residual = cg_residual(&mut sys, &b, 12);
    assert!(sys.now() > 0);
    assert!(
        residual < 0.05 * b_norm,
        "CG must reduce the residual: {residual} vs ||b||={b_norm}"
    );
}

#[test]
fn refresh_on_configuration_also_runs_cleanly() {
    let mut sys = ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii(), // refresh enabled
        mix: Some(MixId::new(4).unwrap()),
        ..ChopimConfig::default()
    });
    let (x, y) = vec_pair(&mut sys, 1 << 14);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    sys.drive(op, 3_000_000);
    assert!(sys.runtime.op_done(op));
    let r = sys.report();
    assert!(r.dram.refreshes > 0, "refresh must have happened");
    assert!(sys.fsm_in_sync());
}

#[test]
fn packetized_interface_costs_host_latency_but_works() {
    // Paper §VIII: packetized DRAM suffers 2-4x longer latency than a
    // DDR-based protocol; Chopim's mechanisms work under both interfaces.
    let mut lat = Vec::new();
    let mut ipc = Vec::new();
    for pkt in [0u32, 40] {
        let mut sys = ChopimSystem::new(ChopimConfig {
            mix: Some(MixId::new(4).unwrap()),
            packetized_latency: pkt,
            ..base_cfg()
        });
        let (x, y) = vec_pair(&mut sys, 1 << 14);
        let sess = sys.runtime.default_session();
        sys.spawn_stream(sess, move |rt, s| {
            s.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
                .submit()
        });
        sys.run(150_000);
        let r = sys.report();
        assert!(r.host_ipc > 0.0);
        assert!(r.dram.reads_nda > 0, "NDAs still run under pkt={pkt}");
        assert!(sys.fsm_in_sync());
        lat.push(r.avg_read_latency);
        ipc.push(r.host_ipc);
        if pkt > 0 {
            assert_eq!(sys.runtime.read_vector(y), sys.runtime.read_vector(x));
        }
    }
    // The controller-side latency grows by the ingress delay (the return
    // path is paid at fill delivery), and the memory-bound host slows.
    assert!(
        lat[1] > lat[0] + 10.0,
        "packetization must add visible queueing latency: {lat:?}"
    );
    assert!(
        ipc[1] < ipc[0],
        "a memory-bound mix must lose IPC to packetization: {ipc:?}"
    );
}
