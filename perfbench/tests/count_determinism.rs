//! Two traced runs with one seed give identical counts; another seed
//! gives other inputs.

use gblas_perfbench::runner::{is_count_metric, run_traced, Budget, Layers};
use gblas_perfbench::workload::{Bench, Sizes, Workload};

fn traced(w: Workload, seed: u64) -> (Bench, Layers) {
    let bench = Bench::setup(w, Sizes::small(w), seed).expect("set-up");
    let layers = run_traced(&bench, Budget { seconds: 0.0, min_calls: 2, max_seconds: 60.0 });
    assert_eq!(layers.tally.failed, 0, "{w:?}");
    (bench, layers)
}

#[test]
fn count_metrics_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let (_, a) = traced(w, 11);
        let (_, b) = traced(w, 11);
        let counts = |l: &Layers| -> Vec<(String, f64)> {
            l.metrics().into_iter().filter(|m| is_count_metric(&m.0)).map(|m| (m.0, m.1)).collect()
        };
        let (ca, cb) = (counts(&a), counts(&b));
        assert!(ca.len() > 20, "{w:?}: {} count metrics", ca.len());
        assert_eq!(ca, cb, "{w:?}");
        assert_eq!(a.sim_per_call(), b.sim_per_call(), "{w:?}: dist.sim_s");
        assert!(a.sim_per_call() > 0.0);
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for w in Workload::ALL {
        let a = Bench::setup(w, Sizes::small(w), 11).expect("set-up");
        let b = Bench::setup(w, Sizes::small(w), 12).expect("set-up");
        let same_graphs = a.graphs.iter().zip(&b.graphs).all(|(x, y)| x == y);
        let same_queries = (0..8).all(|i| a.query(i) == b.query(i));
        assert!(!(same_graphs && same_queries), "{w:?}: seeds 11 and 12 gave one input");
        assert!(!same_graphs, "{w:?}: the graphs come from the seed");
    }
}
