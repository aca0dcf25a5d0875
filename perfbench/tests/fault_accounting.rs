//! A call that fails lands in `fail_frac`, and the run goes on.

use gblas_perfbench::runner::{run_timed, Budget};
use gblas_perfbench::workload::{Bench, Sizes, Workload};

#[test]
fn injected_comm_fault_counts_as_a_failed_call() {
    for w in [Workload::Bfs, Workload::Mcl] {
        let bench = Bench::setup(w, Sizes::small(w), 7).expect("set-up");
        // The next transfer fails: the first distributed call returns Err.
        bench.dctx.comm.fail_after(0);
        let budget = Budget { seconds: 0.0, min_calls: 3, max_seconds: 60.0 };
        let t = run_timed(&bench, budget);
        assert_eq!(t.tally.attempted, 6, "{w:?}");
        assert_eq!(t.tally.failed, 1, "{w:?}: only the faulted call fails");
        assert_eq!(t.tally.fail_frac(), 1.0 / 6.0);
        assert_eq!(t.dist_ms.len(), 3, "{w:?}: the run continued past the failure");
    }
}

#[test]
fn a_clean_run_has_no_failures() {
    let w = Workload::Msbfs;
    let bench = Bench::setup(w, Sizes::small(w), 7).expect("set-up");
    let t = run_timed(&bench, Budget { seconds: 0.0, min_calls: 2, max_seconds: 60.0 });
    assert_eq!((t.tally.attempted, t.tally.failed), (4, 0));
}
