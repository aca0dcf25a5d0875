//! Batched-vs-single-source equivalence: the serving contract.
//!
//! The batched multi-source kernels exist so a query server can answer k
//! requests per masked-SpGEMM sweep instead of one — but only if the
//! batched answers are the *same* answers. These tests pin that down as
//! bit-identity: slot `s` of every batched run (BFS, SSSP, personalized
//! PageRank) equals the single-source run from `sources[s]`, on the
//! shared backend and on every distributed grid shape, under both locale
//! executors, duplicate sources included.

use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_graph::{
    bfs, bfs_dist_with, bfs_multi, bfs_multi_dist, bfs_multi_on, ppr_multi, ppr_multi_dist, sssp,
    sssp_dist_with, sssp_multi, sssp_multi_dist, PprOptions,
};
use gblas_sim::MachineConfig;

const EXECUTORS: [LocaleExecutor; 2] = [LocaleExecutor::Serial, LocaleExecutor::Threaded];
const GRIDS: [(usize, usize); 3] = [(1, 1), (2, 2), (2, 3)];
// duplicate source 7 on purpose: duplicate queries are independent slots
const SOURCES: [usize; 4] = [0, 7, 7, 190];

fn dctx(grid: ProcGrid, executor: LocaleExecutor) -> DistCtx {
    let mut d = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
    d.set_executor(executor);
    d
}

fn graph() -> CsrMatrix<f64> {
    gen::rmat(8, 8, 20170529)
}

/// Assert two f64 slices are bit-for-bit identical.
fn assert_bits(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "{what}: index {i} ({g} vs {e})");
    }
}

#[test]
fn batched_bfs_is_bit_identical_to_the_k_loop() {
    let a = graph();
    let ctx = ExecCtx::with_threads(2);
    let batch = bfs_multi(&a, &SOURCES, &ctx).unwrap();
    let singles: Vec<_> = SOURCES.iter().map(|&s| bfs(&a, s, &ctx).unwrap()).collect();
    for (s, (b, single)) in batch.iter().zip(&singles).enumerate() {
        assert_eq!(b, single, "shared slot {s}");
        b.validate(&a, SOURCES[s]).unwrap();
    }
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (dist_batch, report) =
                bfs_multi_dist(&da, &SOURCES, &dctx(grid, executor)).unwrap();
            assert!(report.total() > 0.0);
            for (s, (b, single)) in dist_batch.iter().zip(&singles).enumerate() {
                assert_eq!(b, single, "grid {pr}x{pc} {executor:?} slot {s}");
            }
            // ... and against the distributed single-source kernel too
            let (solo, _) = bfs_dist_with(
                &da,
                SOURCES[1],
                CommStrategy::Bulk,
                Default::default(),
                &dctx(grid, executor),
            )
            .unwrap();
            assert_eq!(dist_batch[1], solo, "grid {pr}x{pc} {executor:?} vs dist single-source");
        }
    }
}

/// A batch honours its backend's comm strategy: under a Fine
/// `DistBackend` every slot equals its Fine single-source run, and the
/// element-wise gather shows in the ledger as more gather messages than
/// the Bulk batch (`bfs_multi_dist`) pays for the same queries.
#[test]
fn fine_batched_bfs_matches_fine_singles_and_outsends_bulk() {
    let a = graph();
    let gather_msgs = |d: &DistCtx| -> u64 {
        d.comm.history().iter().filter(|e| e.phase == "gather").map(|e| e.msgs).sum()
    };
    for (pr, pc) in [(2, 2), (2, 3)] {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let d_fine = dctx(grid, executor);
            d_fine.comm.record_history();
            let fine = bfs_multi_on(&DistBackend::new(&d_fine), &da, &SOURCES, Default::default())
                .unwrap();
            for (s, &src) in SOURCES.iter().enumerate() {
                let d = dctx(grid, executor);
                let (solo, _) =
                    bfs_dist_with(&da, src, CommStrategy::Fine, Default::default(), &d).unwrap();
                assert_eq!(fine[s], solo, "grid {pr}x{pc} {executor:?} slot {s}");
            }
            let d_bulk = dctx(grid, executor);
            d_bulk.comm.record_history();
            let (bulk, _) = bfs_multi_dist(&da, &SOURCES, &d_bulk).unwrap();
            assert_eq!(fine, bulk, "grid {pr}x{pc} {executor:?}: strategies disagree");
            let (f, b) = (gather_msgs(&d_fine), gather_msgs(&d_bulk));
            assert!(f > b, "grid {pr}x{pc} {executor:?}: fine {f} vs bulk {b} gather msgs");
        }
    }
}

#[test]
fn batched_sssp_is_bit_identical_to_the_k_loop() {
    let a = graph();
    let ctx = ExecCtx::with_threads(2);
    let batch = sssp_multi(&a, &SOURCES, &ctx).unwrap();
    let singles: Vec<_> = SOURCES.iter().map(|&s| sssp(&a, s, &ctx).unwrap()).collect();
    for (s, (b, single)) in batch.iter().zip(&singles).enumerate() {
        assert_bits(b.as_slice(), single.as_slice(), &format!("shared slot {s}"));
    }
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (dist_batch, _) = sssp_multi_dist(&da, &SOURCES, &dctx(grid, executor)).unwrap();
            for (s, (b, single)) in dist_batch.iter().zip(&singles).enumerate() {
                assert_bits(
                    b.as_slice(),
                    single.as_slice(),
                    &format!("grid {pr}x{pc} {executor:?} slot {s}"),
                );
            }
            let (solo, _) = sssp_dist_with(
                &da,
                SOURCES[3],
                CommStrategy::Bulk,
                Default::default(),
                &dctx(grid, executor),
            )
            .unwrap();
            assert_bits(
                dist_batch[3].as_slice(),
                solo.as_slice(),
                &format!("grid {pr}x{pc} {executor:?} vs dist single-source"),
            );
        }
    }
}

#[test]
fn batched_ppr_slot_equals_its_solo_run() {
    let a = graph();
    let ctx = ExecCtx::serial();
    let opts = PprOptions { tolerance: 1e-10, ..PprOptions::default() };
    let seeds = [3usize, 77, 3, 150];
    let batch = ppr_multi(&a, &seeds, opts, &ctx).unwrap();
    for (s, &seed) in seeds.iter().enumerate() {
        let solo = ppr_multi(&a, &[seed], opts, &ctx).unwrap();
        assert_bits(
            batch.scores[s].as_slice(),
            solo.scores[0].as_slice(),
            &format!("shared seed slot {s}"),
        );
        assert_eq!(batch.iterations[s], solo.iterations[0], "slot {s} iteration count");
    }
    // The serving contract is *within-backend* bit-identity: a batched
    // slot answers exactly what the same backend's solo run would. Across
    // backends the per-iteration SpMM reduces thread/block partial sums
    // in a different order (the same pagerank caveat the backend
    // equivalence suite documents), so shared and distributed scores
    // agree to 1e-9 rather than bit-for-bit.
    for (pr, pc) in GRIDS {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        for executor in EXECUTORS {
            let (dist_batch, _) = ppr_multi_dist(&da, &seeds, opts, &dctx(grid, executor)).unwrap();
            for (s, &seed) in seeds.iter().enumerate() {
                let what = format!("grid {pr}x{pc} {executor:?} seed slot {s}");
                for (g, e) in dist_batch.scores[s].as_slice().iter().zip(batch.scores[s].as_slice())
                {
                    assert!((g - e).abs() < 1e-9, "{what}: {g} vs {e}");
                }
                let (solo, _) = ppr_multi_dist(&da, &[seed], opts, &dctx(grid, executor)).unwrap();
                assert_bits(
                    dist_batch.scores[s].as_slice(),
                    solo.scores[0].as_slice(),
                    &format!("{what} vs dist solo"),
                );
                assert_eq!(dist_batch.iterations[s], solo.iterations[0], "{what} vs dist solo");
            }
        }
    }
}

#[test]
fn serving_harness_verifier_agrees() {
    // The `gblas-cli serve-bench --verify` path, exercised as a library
    // call: batched == k-loop on both backends.
    let a = graph();
    gblas_bench::serve::verify_batched_equivalence(&a, &SOURCES, 6).unwrap();
}
