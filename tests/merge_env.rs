//! The `GBLAS_MERGE` environment override, tested in its own binary.
//!
//! [`MergeStrategy::resolve`] is the single resolution point for the
//! shared and distributed SpMSpV paths, and a concrete `GBLAS_MERGE`
//! value beats whatever the caller picked. These tests mutate process
//! environment, so they live alone in this file (one test binary = one
//! process) and serialize on a local mutex; every other test binary sees
//! a clean environment.

use std::sync::Mutex;

use gblas_core::algebra::semirings;
use gblas_core::container::SparseVec;
use gblas_core::gen;
use gblas_core::ops::spmspv::{
    spmspv_semiring_masked, MergeStrategy, SpMSpVOpts, AUTO_BUCKET_MIN_NNZ, PHASE_BUCKET,
    PHASE_SORT,
};
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::{spmspv_dist_batch, CommStrategy};
use gblas_dist::{DistCsrMatrix, DistCtx, DistSparseVec, ProcGrid};
use gblas_sim::MachineConfig;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run one closure with `GBLAS_MERGE` set (or unset for `None`), then
/// restore the previous state even on panic-free exit.
fn with_merge_env<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var_os("GBLAS_MERGE");
    match value {
        Some(v) => std::env::set_var("GBLAS_MERGE", v),
        None => std::env::remove_var("GBLAS_MERGE"),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var("GBLAS_MERGE", v),
        None => std::env::remove_var("GBLAS_MERGE"),
    }
    out
}

#[test]
fn resolve_honors_concrete_env_over_caller_choice() {
    for (env, caller, nnz, expect) in [
        // a concrete env value beats every caller strategy
        (Some("bucket"), MergeStrategy::SortBased, 1, MergeStrategy::Bucketed),
        (Some("sort"), MergeStrategy::Bucketed, usize::MAX, MergeStrategy::SortBased),
        (Some("bucket"), MergeStrategy::Auto, 1, MergeStrategy::Bucketed),
        // env "auto" re-decides from nnz, whatever the caller picked
        (Some("auto"), MergeStrategy::SortBased, AUTO_BUCKET_MIN_NNZ, MergeStrategy::Bucketed),
        (Some("auto"), MergeStrategy::Bucketed, AUTO_BUCKET_MIN_NNZ - 1, MergeStrategy::SortBased),
        // garbage is ignored, the caller's choice stands
        (Some("quicksort"), MergeStrategy::Bucketed, 1, MergeStrategy::Bucketed),
        (Some(""), MergeStrategy::SortBased, usize::MAX, MergeStrategy::SortBased),
        // no env: caller's Auto falls to the nnz threshold
        (None, MergeStrategy::Auto, AUTO_BUCKET_MIN_NNZ, MergeStrategy::Bucketed),
        (None, MergeStrategy::Auto, AUTO_BUCKET_MIN_NNZ - 1, MergeStrategy::SortBased),
        (None, MergeStrategy::SortBased, usize::MAX, MergeStrategy::SortBased),
    ] {
        let got = with_merge_env(env, || caller.resolve(nnz));
        assert_eq!(got, expect, "env={env:?} caller={caller:?} nnz={nnz}");
        let opts = with_merge_env(env, || SpMSpVOpts::with_merge(caller).resolved(nnz));
        assert_eq!(opts.merge, expect, "opts path: env={env:?} caller={caller:?} nnz={nnz}");
    }
}

/// The override steers the kernel that actually executes: under
/// `GBLAS_MERGE=bucket` the sort phase never runs even though the caller
/// asked for the sort-based merge, and vice versa.
#[test]
fn env_override_steers_shared_kernel_phases() {
    let a = gen::erdos_renyi(60, 5, 11);
    let indices: Vec<usize> = (0..60).step_by(3).collect();
    let values = vec![1.0f64; indices.len()];
    let x = SparseVec::from_sorted(60, indices, values).unwrap();
    let ring = semirings::plus_times_f64();

    let bucketed = with_merge_env(Some("bucket"), || {
        let ctx = ExecCtx::serial();
        spmspv_semiring_masked(&a, &x, &ring, None, SpMSpVOpts::default(), &ctx).unwrap();
        ctx.take_profile()
    });
    assert!(bucketed.phase(PHASE_SORT).is_empty(), "GBLAS_MERGE=bucket must not sort");
    assert_eq!(bucketed.total().sort_elems, 0);

    let sorted = with_merge_env(Some("sort"), || {
        let ctx = ExecCtx::serial();
        spmspv_semiring_masked(
            &a,
            &x,
            &ring,
            None,
            SpMSpVOpts::with_merge(MergeStrategy::Bucketed),
            &ctx,
        )
        .unwrap();
        ctx.take_profile()
    });
    assert!(sorted.phase(PHASE_BUCKET).is_empty(), "GBLAS_MERGE=sort must not bucket");
}

/// Shared and distributed paths resolve the override identically: the
/// same env produces the same output vector on both, and the dist run
/// resolves once from the global nnz (every locale, same strategy).
#[test]
fn env_override_applies_identically_on_both_backends() {
    let a = gen::erdos_renyi(80, 4, 23);
    let indices: Vec<usize> = (0..80).step_by(2).collect();
    let values: Vec<f64> = indices.iter().map(|&i| i as f64 + 0.5).collect();
    let x = SparseVec::from_sorted(80, indices, values).unwrap();
    let ring = semirings::plus_times_f64();
    let grid = ProcGrid::new(2, 2);
    let da = DistCsrMatrix::from_global(&a, grid);
    let dx = DistSparseVec::from_global(&x, grid.locales());

    for env in [Some("bucket"), Some("sort"), None] {
        let (shared, dist) = with_merge_env(env, || {
            let ctx = ExecCtx::serial();
            let shared = spmspv_semiring_masked(&a, &x, &ring, None, SpMSpVOpts::default(), &ctx)
                .unwrap()
                .vector;
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dy, _) = spmspv_dist_batch(
                &da,
                std::slice::from_ref(&dx),
                None,
                &ring,
                CommStrategy::Bulk,
                SpMSpVOpts::default(),
                &dctx,
            )
            .unwrap();
            (shared, dy[0].to_global())
        });
        assert_eq!(shared.indices(), dist.indices(), "env={env:?}");
        for (p, q) in shared.values().iter().zip(dist.values()) {
            assert!((p - q).abs() < 1e-9, "env={env:?}");
        }
    }
}
