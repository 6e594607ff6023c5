//! Lockstep equivalence of the event-horizon fast-forward: every case
//! run with `fast_forward` enabled must produce a `SimReport`
//! bit-identical to the naive cycle-by-cycle loop.
//!
//! Skipping is legal only across cycles in which *every* component is
//! provably idle, so a missed refresh, a misplaced launch packet or an
//! off-by-one stall count shows up as a mismatch. The cases, engines and
//! the comparison are the lockstep harness's (`lockstep/mod.rs`); this
//! file is its `FF` dimension.

#[macro_use]
mod lockstep;

use chopim_core::prelude::SimReport;

matrix!(FF);
cases!(FF:
    lockstep_dag_two_sessions = dag_two_sessions
    lockstep_stochastic_policy = stochastic_policy
    lockstep_packetized = packetized
    lockstep_boundary_latencies = boundary_latencies
    lockstep_closed_page_fcfs = closed_page_fcfs
);

/// A mismatch names the first differing line, not two whole reports.
#[test]
fn first_difference_names_the_line() {
    let want = SimReport::default();
    assert_eq!(lockstep::first_difference(&want, &want.clone()), None);
    let mut got = want.clone();
    got.faults.rank_deaths = 1;
    let diff = lockstep::first_difference(&want, &got).expect("reports differ");
    assert!(
        diff.contains("`rank_deaths: 0,` became `rank_deaths: 1,`"),
        "{diff}"
    );
}
