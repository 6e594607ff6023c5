//! Edge-case integration tests: backpressure, refresh interplay,
//! quiescence, and report stability.

use chopim_core::prelude::*;
use chopim_dram::trace::TraceEvent;
use chopim_dram::TimingChecker;

fn cfg() -> ChopimConfig {
    ChopimConfig {
        dram: DramConfig::table_ii().with_timing(TimingParams::ddr4_2400_no_refresh()),
        ..ChopimConfig::default()
    }
}

#[test]
fn tiny_nda_queue_applies_backpressure_without_deadlock() {
    // Queue depth 1 forces the launch pipeline to stall-and-go; every
    // instruction must still complete, in order.
    let mut sys = ChopimSystem::new(ChopimConfig {
        nda_queue_cap: 1,
        ..cfg()
    });
    let x = sys.runtime.vector(1 << 14, Sharing::Shared);
    let y = sys.runtime.vector(1 << 14, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![3.0; 1 << 14]);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .granularity_lines(64)
        .no_barrier()
        .submit();
    let cycles = sys.drive(op, 30_000_000);
    assert!(sys.runtime.op_done(op), "stalled after {cycles} cycles");
    assert_eq!(sys.runtime.read_vector(y)[77], 3.0);
    assert!(sys.fsm_in_sync());
}

#[test]
fn refresh_and_nda_traffic_interleave_legally() {
    // Refresh enabled + concurrent NDA COPY + host mix: the trace must
    // still pass the independent checker, including tRFC blackouts.
    let mut sys = ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii(), // refresh on
        mix: Some(MixId::new(5).unwrap()),
        ..ChopimConfig::default()
    });
    sys.enable_trace_capture();
    let x = sys.runtime.vector(1 << 14, Sharing::Shared);
    let y = sys.runtime.vector(1 << 14, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; 1 << 14]);
    let sess = sys.runtime.default_session();
    sys.spawn_stream(sess, move |rt, s| {
        s.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
            .submit()
    });
    sys.run(60_000);
    let r = sys.report();
    assert!(
        r.dram.refreshes > 10,
        "expected periodic refresh, got {}",
        r.dram.refreshes
    );
    assert!(r.dram.reads_nda > 0);
    let trace = sys.trace_events();
    let dcfg = DramConfig::table_ii();
    for ch in 0..dcfg.channels {
        let mut checker = TimingChecker::new(&dcfg);
        for e in &trace {
            if let TraceEvent::Cmd {
                cycle,
                channel,
                cmd,
                issuer,
            } = e
            {
                if *channel as usize == ch {
                    checker
                        .step(*cycle, cmd, *issuer)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }
}

#[test]
fn run_until_quiescent_drains_everything() {
    let mut sys = ChopimSystem::new(cfg());
    let x = sys.runtime.vector(1 << 13, Sharing::Shared);
    let y = sys.runtime.vector(1 << 13, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![2.5; 1 << 13]);
    // Three ops queued back to back (implicit program order).
    let sess = sys.runtime.default_session();
    let _ = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let _ = sess
        .elementwise(&mut sys.runtime, Opcode::Scal, vec![2.0], vec![], Some(y))
        .submit();
    let d = sess
        .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![y, y], None)
        .submit();
    let used = sys.drive(Waitable::Quiescent, 50_000_000);
    assert!(used < 50_000_000, "did not quiesce");
    assert!(sys.runtime.quiescent());
    let expect = 25.0f32 * (1 << 13) as f32;
    assert_eq!(sys.runtime.op_result(d), Some(expect));
}

#[test]
fn reports_are_monotone_across_windows() {
    let mut sys = ChopimSystem::new(ChopimConfig {
        mix: Some(MixId::new(6).unwrap()),
        ..cfg()
    });
    sys.run(40_000);
    let r1 = sys.report();
    sys.run(40_000);
    let r2 = sys.report();
    assert!(r2.cycles == 2 * r1.cycles);
    assert!(r2.dram.reads_host > r1.dram.reads_host);
    assert!(r2.cpu_cycles > r1.cpu_cycles);
    // IPC is a rate: must stay within sane bounds across windows.
    assert!(r2.host_ipc > 0.0 && r2.host_ipc < 8.0 * 4.0);
}

#[test]
fn zero_host_zero_nda_machine_is_stable() {
    let mut sys = ChopimSystem::new(cfg());
    sys.run(10_000);
    let r = sys.report();
    assert_eq!(r.dram.reads_host + r.dram.reads_nda, 0);
    assert_eq!(r.host_ipc, 0.0);
    assert_eq!(r.nda_bw_utilization, 0.0);
    assert!(sys.fsm_in_sync());
}

#[test]
fn eight_rank_geometry_full_stack() {
    let mut sys = ChopimSystem::new(ChopimConfig {
        dram: DramConfig::table_ii()
            .with_ranks(8)
            .with_timing(TimingParams::ddr4_2400_no_refresh()),
        mix: Some(MixId::new(7).unwrap()),
        nda_queue_cap: 32,
        ..ChopimConfig::default()
    });
    assert_eq!(sys.runtime.nda_ranks().len(), 16, "2 ch x 8 rk = 16 NDAs");
    let x = sys.runtime.vector(1 << 15, Sharing::Shared);
    let y = sys.runtime.vector(1 << 15, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.0; 1 << 15]);
    let sess = sys.runtime.default_session();
    let op = sess
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    sys.drive(op, 30_000_000);
    assert!(sys.runtime.op_done(op));
    assert_eq!(sys.runtime.read_vector(y)[1 << 14], 1.0);
    assert!(sys.fsm_in_sync());
}

#[test]
fn cross_session_dependency_orders_execution() {
    // Session B's op is gated on session A's via an explicit DAG edge:
    // it must not stage until A's op has retired, and the functional
    // result must reflect the order.
    let mut sys = ChopimSystem::new(cfg());
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    let x = sys.runtime.vector(1 << 12, Sharing::Shared);
    let y = sys.runtime.vector(1 << 12, Sharing::Shared);
    sys.runtime.write_vector(x, &vec![1.5; 1 << 12]);
    let a = sa
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![x], Some(y))
        .submit();
    let b = sb
        .elementwise(&mut sys.runtime, Opcode::Dot, vec![], vec![y, y], None)
        .after(a)
        .submit();
    sys.drive(Waitable::all_of([a, b]), 20_000_000);
    assert!(sys.runtime.op_done(a) && sys.runtime.op_done(b));
    assert!(
        sys.runtime.op_first_staged_at(b).expect("b staged")
            >= sys.runtime.op_finished_at(a).expect("a finished"),
        "dependent op staged before its parent retired"
    );
    let expect = 1.5f32 * 1.5 * (1 << 12) as f32;
    assert_eq!(sys.runtime.op_result(b), Some(expect));
}

#[test]
fn two_streams_share_the_machine_fairly() {
    // Two identical tenants streaming concurrently must both make
    // progress (no starvation) and end up with similar completion
    // counts under round-robin arbitration.
    let mut sys = ChopimSystem::new(cfg());
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    let xa = sys.runtime.vector(1 << 13, Sharing::Shared);
    let ya = sys.runtime.vector(1 << 13, Sharing::Shared);
    let xb = sys.runtime.vector(1 << 13, Sharing::Shared);
    let yb = sys.runtime.vector(1 << 13, Sharing::Shared);
    let st_a = sys.spawn_stream(sa, move |rt, s| {
        s.elementwise(rt, Opcode::Axpy, vec![0.5], vec![xa], Some(ya))
            .submit()
    });
    let st_b = sys.spawn_stream(sb, move |rt, s| {
        s.elementwise(rt, Opcode::Axpy, vec![0.5], vec![xb], Some(yb))
            .submit()
    });
    sys.run(200_000);
    let (a, b) = (sys.stream_completions(st_a), sys.stream_completions(st_b));
    assert!(a > 0 && b > 0, "both tenants must progress: {a} vs {b}");
    assert!(
        a.max(b) <= 3 * a.min(b),
        "identical tenants should complete similar work: {a} vs {b}"
    );
    assert!(sys.fsm_in_sync());
}

#[test]
fn stopped_stream_lets_machine_quiesce() {
    let mut sys = ChopimSystem::new(cfg());
    let sess = sys.runtime.default_session();
    let x = sys.runtime.vector(1 << 12, Sharing::Shared);
    let y = sys.runtime.vector(1 << 12, Sharing::Shared);
    let id = sys.spawn_stream(sess, move |rt, s| {
        s.elementwise(rt, Opcode::Copy, vec![], vec![x], Some(y))
            .submit()
    });
    sys.run(50_000);
    let n = sys.stop_stream(id);
    assert!(n > 0, "stream must have completed ops");
    let used = sys.drive(Waitable::Quiescent, 10_000_000);
    assert!(used < 10_000_000, "in-flight op must drain after stop");
    assert!(sys.runtime.quiescent());
    assert_eq!(sys.stream_completions(id), n, "no relaunches after stop");
}

#[test]
fn realignment_copy_inherits_dag_edges() {
    // An unordered op with a cross-session parent and a color-mismatched
    // input: the runtime-inserted realignment copy must inherit the
    // `.after()` edge, or it would read the input before the parent
    // writes it. The functional result proves the order.
    use chopim_mapping::color::Color;
    let mut sys = ChopimSystem::new(cfg());
    let sa = sys.runtime.default_session();
    let sb = sys.runtime.create_session();
    let n = 1 << 12;
    let src = sys.runtime.vector_colored(n, Sharing::Shared, Color(1));
    let y = sys.runtime.vector_colored(n, Sharing::Shared, Color(1));
    let out = sys.runtime.vector_colored(n, Sharing::Shared, Color(5));
    let big_x = sys.runtime.vector(1 << 17, Sharing::Shared);
    let big_y = sys.runtime.vector(1 << 17, Sharing::Shared);
    sys.runtime.write_vector(src, &vec![4.0; n]);
    // Parent (session A) writes y — late, behind a long predecessor, so
    // a prematurely-staged copy in session B would finish long before
    // it. Child (session B) reads y into a different-colored output,
    // gated only by the explicit edge.
    let _slow = sa
        .elementwise(
            &mut sys.runtime,
            Opcode::Copy,
            vec![],
            vec![big_x],
            Some(big_y),
        )
        .submit();
    let parent = sa
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![src], Some(y))
        .submit();
    let child = sb
        .elementwise(&mut sys.runtime, Opcode::Copy, vec![], vec![y], Some(out))
        .after(parent)
        .unordered()
        .submit();
    sys.drive(Waitable::all_of([parent, child]), 50_000_000);
    assert!(sys.runtime.op_done(child));
    assert_eq!(sys.runtime.realignment_copies, 1, "copy was inserted");
    assert_eq!(
        sys.runtime.read_vector(out)[123],
        4.0,
        "realignment copy must run after the cross-session parent"
    );
}
