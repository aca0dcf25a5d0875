//! Golden-file coverage for real distributed SpMSpV and SpGEMM traces.
//!
//! One small fixed workload each, exported through the byte-deterministic
//! Chrome sink. The SpMSpV runs (once per merge strategy) pin the span
//! structure the observability stack promises: the `bucket` phase (and
//! the absence of any sort work) under the bucketed merge, and the
//! aggregated one-message-per-row-peer `gather` superstep under
//! `CommStrategy::Bulk`. The SpGEMM run pins the multi-stage SUMMA's
//! `mxm` op span (algo/stages/grid attributes) and its `select` span
//! carrying the per-stage density-adaptive kernel census
//! (heap/hash/spa). The serial executor makes each run — and therefore
//! each file — exactly reproducible.
//!
//! Regenerate after an intentional format or pricing change with
//! `GBLAS_REGEN_GOLDEN=1 cargo test -p gblas-dist --test trace_golden_dist`.

use gblas_core::algebra::semirings;
use gblas_core::gen;
use gblas_core::ops::spmspv::{MergeStrategy, SpMSpVOpts};
use gblas_core::trace::sink::chrome_trace;
use gblas_core::trace::SpanKind;
use gblas_dist::ops::mxm::mxm_dist;
use gblas_dist::ops::spmspv::{spmspv_dist_batch, CommStrategy, PHASE_GATHER};
use gblas_dist::{DistCsrMatrix, DistCtx, DistSparseVec, LocaleExecutor, ProcGrid};
use gblas_sim::MachineConfig;

fn traced_run(merge: MergeStrategy) -> gblas_core::trace::Trace {
    let grid = ProcGrid::new(2, 2);
    let a = gen::erdos_renyi(60, 4, 5);
    let x = gen::random_sparse_vec(60, 12, 6);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, grid.locales());
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(LocaleExecutor::Serial);
    dctx.enable_tracing();
    let ring = semirings::plus_times_f64();
    spmspv_dist_batch(
        &da,
        std::slice::from_ref(&dx),
        None,
        &ring,
        CommStrategy::Bulk,
        SpMSpVOpts::with_merge(merge),
        &dctx,
    )
    .expect("spmspv");
    dctx.recorder().snapshot()
}

fn check_against_golden(merge: MergeStrategy) {
    let got = chrome_trace(&traced_run(merge));
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/spmspv_bulk_{}.json", merge.name()));
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert_eq!(got, want, "{} merge trace drifted from the golden file", merge.name());
}

#[test]
fn sort_merge_trace_matches_golden() {
    check_against_golden(MergeStrategy::SortBased);
}

#[test]
fn bucket_merge_trace_matches_golden() {
    check_against_golden(MergeStrategy::Bucketed);
}

/// Structural claims the golden bytes encode, asserted directly so a
/// regeneration cannot silently drop them.
#[test]
fn traces_carry_the_promised_spans() {
    let sorted = traced_run(MergeStrategy::SortBased);
    let bucketed = traced_run(MergeStrategy::Bucketed);

    // The dist trace folds the core merge phases into each locale's
    // `local` compute span (the standalone `bucket`/`sort` spans are
    // pinned by the core golden test), but their counters survive: the
    // sorted run records sort comparisons and no bucket scatter, the
    // bucketed run the exact opposite.
    let totals = |t: &gblas_core::trace::Trace| {
        t.spans.iter().fold((0u64, 0u64), |(se, ra), s| {
            (se + s.counters.sort_elems, ra + s.counters.rand_access)
        })
    };
    let (sorted_se, sorted_ra) = totals(&sorted);
    let (bucketed_se, bucketed_ra) = totals(&bucketed);
    assert!(sorted_se > 0, "sorted run recorded no sort comparisons");
    assert_eq!(sorted_ra, 0, "sorted run recorded bucket scatters");
    assert_eq!(bucketed_se, 0, "bucketed run recorded sort comparisons");
    assert!(bucketed_ra > 0, "bucketed run recorded no bucket scatters");
    for t in [&sorted, &bucketed] {
        // the aggregated gather prices whole coalesced messages only
        let gather_comm: Vec<_> = t
            .spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::LocaleComm
                    && s.name == PHASE_GATHER
                    && s.comm.as_ref().is_some_and(|c| !c.is_empty())
            })
            .collect();
        assert!(!gather_comm.is_empty(), "no gather comm spans recorded");
        for s in &gather_comm {
            let c = s.comm.as_ref().unwrap();
            assert_eq!(c.fine_msgs, 0, "aggregated gather sent fine messages");
            assert_eq!(c.fine_dependent_msgs, 0, "aggregated gather sent dependent messages");
            assert!(c.bulk_msgs > 0);
        }
    }
    // the op span records which merge strategy produced it
    let merge_attr = |t: &gblas_core::trace::Trace| {
        t.spans
            .iter()
            .find(|s| s.kind == SpanKind::Op)
            .and_then(|s| s.attrs.iter().find(|(k, _)| k == "merge").map(|(_, v)| v.clone()))
    };
    assert_eq!(merge_attr(&sorted).as_deref(), Some("sort"));
    assert_eq!(merge_attr(&bucketed).as_deref(), Some("bucket"));
}

/// The SpGEMM golden: multi-stage DCSC SUMMA on the rectangular 2x3
/// grid — the shape the square-grid guard used to reject outright.
fn traced_mxm_run() -> gblas_core::trace::Trace {
    let a = gen::erdos_renyi(60, 4, 7);
    let b = gen::erdos_renyi(60, 3, 8);
    traced_mxm_on(&a, &b, LocaleExecutor::Serial)
}

fn traced_mxm_on(
    a: &gblas_core::container::CsrMatrix<f64>,
    b: &gblas_core::container::CsrMatrix<f64>,
    executor: LocaleExecutor,
) -> gblas_core::trace::Trace {
    let grid = ProcGrid::new(2, 3);
    let da = DistCsrMatrix::from_global(a, grid);
    let db = DistCsrMatrix::from_global(b, grid);
    let mut dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    dctx.set_executor(executor);
    dctx.enable_tracing();
    let ring = semirings::plus_times_f64();
    mxm_dist(&da, &db, &ring, &dctx).expect("mxm");
    dctx.recorder().snapshot()
}

#[test]
fn mxm_summa_trace_matches_golden() {
    let got = chrome_trace(&traced_mxm_run());
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mxm_summa_2x3.json");
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert_eq!(got, want, "mxm SUMMA trace drifted from the golden file");
}

/// Structural claims the mxm golden bytes encode, asserted directly so a
/// regeneration cannot silently drop them: the op span names the
/// algorithm, stage count and grid shape; the `select` span carries the
/// density-adaptive kernel census; and every broadcast is a whole
/// coalesced (bulk) message — the DCSC pipeline never sends fine-grained
/// traffic.
#[test]
fn mxm_trace_carries_stage_and_select_attrs() {
    let trace = traced_mxm_run();
    let attr = |s: &gblas_core::trace::Span, k: &str| {
        s.attrs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let op = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Op && s.name == "mxm_dist")
        .expect("mxm op span present");
    assert_eq!(attr(op, "algo").as_deref(), Some("summa2d"));
    assert_eq!(attr(op, "grid").as_deref(), Some("2x3"));
    let stages: usize = attr(op, "stages").expect("stages attr").parse().expect("numeric stages");
    assert!(stages > 1, "multi-stage plan expected on a 2x3 grid, got {stages}");
    let select = trace
        .spans
        .iter()
        .find(|s| {
            s.kind == SpanKind::Op && s.name == "select" && {
                attr(s, "algo").as_deref() == Some("mxm")
            }
        })
        .expect("select span for the kernel decisions present");
    let census: usize = ["heap", "hash", "spa"]
        .iter()
        .map(|k| attr(select, k).expect("kernel census attr").parse::<usize>().unwrap())
        .sum();
    assert_eq!(census, stages * 6, "one kernel decision per (stage, locale) pair on the 2x3 grid");
    for s in trace.spans.iter().filter(|s| s.kind == SpanKind::LocaleComm) {
        if let Some(c) = s.comm.as_ref().filter(|c| !c.is_empty()) {
            assert_eq!(c.fine_msgs, 0, "{}: SUMMA sent fine messages", s.name);
            assert_eq!(c.fine_dependent_msgs, 0, "{}: SUMMA sent dependent messages", s.name);
        }
    }
}

/// Every SUMMA buffer comes from the pool of the locale that uses it, so
/// the op span's workspace attrs are the same under both executors — on
/// CSR blocks and on hypersparse (DCSC) blocks, whose stage slices are
/// regrouped through pooled scratch.
#[test]
fn mxm_workspace_attrs_match_across_executors() {
    let ws_attrs = |trace: &gblas_core::trace::Trace| {
        let op = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Op && s.name == "mxm_dist")
            .expect("mxm op span present");
        op.attrs.iter().filter(|(k, _)| k.starts_with("ws_")).cloned().collect::<Vec<_>>()
    };
    let inputs = [
        (gen::erdos_renyi(60, 4, 7), gen::erdos_renyi(60, 3, 8)),
        (gen::rmat(12, 1, 11), gen::rmat(12, 1, 12)),
    ];
    for (a, b) in &inputs {
        let serial = ws_attrs(&traced_mxm_on(a, b, LocaleExecutor::Serial));
        assert_eq!(serial.len(), 4, "ws attrs present");
        for _ in 0..8 {
            let threaded = ws_attrs(&traced_mxm_on(a, b, LocaleExecutor::Threaded));
            assert_eq!(threaded, serial, "pool accounting depends on the executor");
        }
    }
}
