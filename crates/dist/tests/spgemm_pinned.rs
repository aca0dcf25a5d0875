//! Byte-level pin of the floating-point SpGEMM: for every configuration
//! the golden file stores a hash of the result's `rowptr`, `colidx` and
//! value *bits*, every `SimReport` phase's seconds as `to_bits`, and the
//! comm ledger totals. The other SpGEMM suites hold f64 results to a
//! tolerance against the shared-memory product, which a change in the
//! stage association order would slip through; this one does not.
//!
//! Inputs: RMAT scale 9 (non-uniform f64 weights). Configurations:
//! multi-stage SUMMA on 1×1, 2×2, 2×3, 3×3 and 4×3 grids, the 3-D variant
//! with two layers on 2×2, and the single-stage baseline on 2×2 — each
//! masked and unmasked, under both locale executors.
//!
//! Regenerate with
//! `GBLAS_REGEN_GOLDEN=1 cargo test -p gblas-dist --test spgemm_pinned`.

use gblas_core::algebra::semirings;
use gblas_core::container::CsrMatrix;
use gblas_core::gen;
use gblas_dist::ops::mxm::{mxm_dist_masked_with, MxmAlgo};
use gblas_dist::{DistCsrMatrix, DistCtx, LocaleExecutor, ProcGrid};
use gblas_sim::MachineConfig;
use std::fmt::Write;

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn result_hash(c: &CsrMatrix<f64>) -> u64 {
    let ptr = c.rowptr().iter().map(|&x| x as u64);
    let idx = c.colidx().iter().map(|&x| x as u64);
    let vals = c.values().iter().map(|v| v.to_bits());
    fnv1a(ptr.chain(idx).chain(vals))
}

/// One line per configuration: name, result hash, nnz, per-phase
/// simulated seconds as bits, comm totals `(fine, bulk, bytes)`.
fn pinned_lines() -> String {
    let a = gen::rmat(9, 8, 29);
    let b = gen::rmat(9, 8, 31);
    let mask = gen::rmat(9, 16, 37);
    let ring = semirings::plus_times_f64();
    let configs: [(&str, (usize, usize), MxmAlgo, usize); 7] = [
        ("summa2d-1x1", (1, 1), MxmAlgo::Summa2d, 1),
        ("summa2d-2x2", (2, 2), MxmAlgo::Summa2d, 4),
        ("summa2d-2x3", (2, 3), MxmAlgo::Summa2d, 6),
        ("summa2d-3x3", (3, 3), MxmAlgo::Summa2d, 9),
        ("summa2d-4x3", (4, 3), MxmAlgo::Summa2d, 12),
        ("summa3d-2x2-l2", (2, 2), MxmAlgo::Summa3d { layers: 2 }, 8),
        ("single-2x2", (2, 2), MxmAlgo::Single, 4),
    ];
    let mut out = String::new();
    for (name, (pr, pc), algo, machine) in configs {
        let grid = ProcGrid::new(pr, pc);
        let da = DistCsrMatrix::from_global(&a, grid);
        let db = DistCsrMatrix::from_global(&b, grid);
        let dm = DistCsrMatrix::from_global(&mask, grid);
        for masked in [false, true] {
            for exec in [LocaleExecutor::Serial, LocaleExecutor::Threaded] {
                let mut dctx = DistCtx::new(MachineConfig::edison_cluster(machine, 24));
                dctx.set_executor(exec);
                let m = masked.then_some(&dm);
                let (c, report) =
                    mxm_dist_masked_with::<_, _, f64, _, _, f64>(&da, &db, &ring, m, algo, &dctx)
                        .expect("mxm");
                let g = c.to_global().expect("gather");
                let _ = write!(
                    out,
                    "{name} masked={masked} exec={exec:?} hash={:016x} nnz={}",
                    result_hash(&g),
                    g.nnz()
                );
                for ph in report.iter() {
                    let _ = write!(out, " {}={:016x}", ph.name, ph.seconds.to_bits());
                }
                let (fine, bulk, bytes) = dctx.comm.totals();
                let _ = writeln!(out, " comm={fine}/{bulk}/{bytes}");
            }
        }
    }
    out
}

#[test]
fn f64_spgemm_results_and_reports_match_golden() {
    let got = pinned_lines();
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/spgemm_pinned.txt");
    if std::env::var_os("GBLAS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "f64 SpGEMM drifted from the pinned golden");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "configuration count changed");
}
