//! `MxM`: sparse matrix × sparse matrix (SpGEMM) over a semiring.
//!
//! Row-wise Gustavson's algorithm: row `i` of `C = A ⊗ B` merges the rows
//! `B[k, :]` for every stored `A[i, k]`. An optional *structural mask*
//! matrix restricts which output positions may be produced (GraphBLAS
//! masked `mxm` — the triangle-counting pattern `C⟨L⟩ = L · L`).
//!
//! [`RowAccum::multiply_row`] is the one row kernel of every SpGEMM in the
//! library: shared-memory [`mxm`] runs its dense-SPA rung over whole
//! rows, and distributed SUMMA runs the density-adaptive rung each stage
//! selects (heap / hash / dense SPA) over its stage slices. Rows land in
//! a caller-owned [`CsrBuf`], so a multiply allocates nothing per row.

use crate::algebra::{BinaryOp, Monoid, Semiring};
use crate::container::{CsrBuf, CsrMatrix};
use crate::error::{check_dims, GblasError, Result};
use crate::ops::selection::MxmKernel;
use crate::par::{Counters, ExecCtx};
use crate::spa::{DenseSpa, HashSpa};
use crate::workspace::WsGuard;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Phase name for SpGEMM.
pub const PHASE: &str = "mxm";

/// `C = A ⊗ B` over `ring`; with `mask = Some(M)`, only positions stored
/// in `M` are kept (`C⟨M⟩ = A ⊗ B`).
pub fn mxm<A, B, C, AddM, MulOp, M>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&CsrMatrix<M>>,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    check_dims("inner dimension", a.ncols(), b.nrows())?;
    if let Some(m) = mask {
        if m.nrows() != a.nrows() || m.ncols() != b.ncols() {
            return Err(GblasError::DimensionMismatch {
                expected: format!("mask {}x{}", a.nrows(), b.ncols()),
                actual: format!("mask {}x{}", m.nrows(), m.ncols()),
            });
        }
    }
    // Each task computes a contiguous block of C's rows with a pooled SPA
    // into a pooled row buffer.
    let mut blocks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut acc = RowAccum::checkout(MxmKernel::Spa, b.ncols(), ring.zero(), ctx);
        let mut out = ctx.ws_scratch::<CsrBuf<C>>();
        out.reset(0);
        for i in r {
            let (acols, avals) = a.row(i);
            let mrow = mask.map(|m| m.row(i).0);
            acc.multiply_row(acols, avals, 0, b, ring, mrow, &mut out, c);
            out.end_row();
        }
        out
    });
    CsrBuf::concat(a.nrows(), b.ncols(), blocks.iter_mut().map(|b| &mut **b))
}

/// Modeled (not measured) comparison-sort work for `n` row-local indices:
/// pdqsort's moves are not instrumentable, so charge the canonical
/// `n·(⌊log₂ n⌋ + 1)` — row-local index lists are small and randomly
/// ordered, where the adaptive discount of `crate::sort` would not apply.
pub fn sort_charge(n: usize) -> u64 {
    (n.max(1).ilog2() as u64 + 1) * n as u64
}

/// One rung of the SpGEMM accumulator ladder, checked out of a workspace
/// pool for a run of rows.
pub enum RowAccum<C: Send + 'static> {
    /// Dense SPA over the output width.
    Spa(WsGuard<DenseSpa<C>>),
    /// Open-addressing table sized per row.
    Hash(WsGuard<HashSpa<C>>),
    /// `t`-way merge of the selected `B` rows, keyed
    /// `(column, A-entry index, position)`.
    Heap(WsGuard<BinaryHeap<Reverse<(usize, usize, usize)>>>),
}

impl<C: Copy + Send + 'static> RowAccum<C> {
    /// Check out `kernel`'s accumulator for outputs `0..ncols`.
    pub fn checkout(kernel: MxmKernel, ncols: usize, zero: C, ctx: &ExecCtx) -> Self {
        match kernel {
            MxmKernel::Spa => RowAccum::Spa(ctx.ws_dense_spa(ncols, zero)),
            MxmKernel::Hash => RowAccum::Hash(ctx.ws_scratch()),
            MxmKernel::Heap => RowAccum::Heap(ctx.ws_scratch()),
        }
    }

    /// Append the entries of `Σₜ avals[t] ⊗ B[acols[t] + shift, :]` to
    /// `out`'s open row, columns ascending, keeping only columns stored in
    /// `mask` when one is given (`shift` is wrapping, so a stage slice can
    /// address `B` rows below its own column ids). Every rung visits each
    /// output position's contributions in ascending `t`, so all three are
    /// bit-interchangeable; each charges its own work:
    ///
    /// * SPA: a flop per product, a touch per accumulate and per value
    ///   read, the modeled index sort;
    /// * hash: a flop and a random access per product, the modeled sort;
    /// * heap: a flop per pop, `⌊log₂ t⌋ + 1` sort moves per push.
    ///
    /// The mask costs one streamed element per candidate.
    #[allow(clippy::too_many_arguments)]
    pub fn multiply_row<A, B, AddM, MulOp>(
        &mut self,
        acols: &[usize],
        avals: &[A],
        shift: usize,
        b: &CsrMatrix<B>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<&[usize]>,
        out: &mut CsrBuf<C>,
        c: &mut Counters,
    ) where
        A: Copy,
        B: Copy,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, B, C>,
    {
        let start = out.colidx.len();
        let brow = |k: usize| b.row(k.wrapping_add(shift));
        match self {
            RowAccum::Spa(spa) => {
                for (&k, &av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = brow(k);
                    c.flops += bcols.len() as u64;
                    for (&j, &bv) in bcols.iter().zip(bvals) {
                        spa.accumulate(j, ring.multiply(av, bv), &ring.add, c);
                    }
                }
                c.sort_elems += sort_charge(spa.nnz());
                spa.drain_sorted_into(&mut out.colidx, &mut out.values, c);
            }
            RowAccum::Hash(tbl) => {
                tbl.start_row(acols.iter().map(|&k| brow(k).0.len()).sum());
                for (&k, &av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = brow(k);
                    c.flops += bcols.len() as u64;
                    for (&j, &bv) in bcols.iter().zip(bvals) {
                        tbl.accumulate(j, ring.multiply(av, bv), &ring.add, c);
                    }
                }
                c.sort_elems += sort_charge(tbl.nnz());
                tbl.drain_sorted_into(&mut out.colidx, &mut out.values);
            }
            RowAccum::Heap(heap) => {
                heap.clear();
                let push_charge = acols.len().max(1).ilog2() as u64 + 1;
                for (t, &k) in acols.iter().enumerate() {
                    if let Some(&j) = brow(k).0.first() {
                        heap.push(Reverse((j, t, 0)));
                        c.sort_elems += push_charge;
                    }
                }
                while let Some(Reverse((j, t, pos))) = heap.pop() {
                    let (bcols, bvals) = brow(acols[t]);
                    let prod = ring.multiply(avals[t], bvals[pos]);
                    c.flops += 1;
                    if out.colidx.len() > start && out.colidx.last() == Some(&j) {
                        let v = out.values.last_mut().expect("values track colidx");
                        *v = ring.add.combine(*v, prod);
                    } else {
                        out.colidx.push(j);
                        out.values.push(prod);
                    }
                    if pos + 1 < bcols.len() {
                        heap.push(Reverse((bcols[pos + 1], t, pos + 1)));
                        c.sort_elems += push_charge;
                    }
                }
            }
        }
        if let Some(mcols) = mask {
            // Structural mask by sorted intersection, compacting in place.
            let (mut kept, mut p) = (start, 0usize);
            for e in start..out.colidx.len() {
                let j = out.colidx[e];
                while p < mcols.len() && mcols[p] < j {
                    p += 1;
                }
                c.elems += 1;
                if p < mcols.len() && mcols[p] == j {
                    out.colidx[kept] = j;
                    out.values[kept] = out.values[e];
                    kept += 1;
                }
            }
            out.colidx.truncate(kept);
            out.values.truncate(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semirings;
    use crate::gen;

    fn dense_mm(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> Vec<Vec<f64>> {
        let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
        for (i, k, &av) in a.iter() {
            let (bcols, bvals) = b.row(k);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                c[i][j] += av * bv;
            }
        }
        c
    }

    #[test]
    fn matches_dense_reference() {
        let a = gen::erdos_renyi(60, 4, 5);
        let b = gen::erdos_renyi(60, 4, 6);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let c = mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx)
                .unwrap();
            let reference = dense_mm(&a, &b);
            for (i, j, &v) in c.iter() {
                assert!((v - reference[i][j]).abs() < 1e-9, "({i},{j})");
            }
            // every nonzero of the reference is present
            let nnz_ref: usize = reference.iter().flatten().filter(|v| v.abs() > 1e-12).count();
            assert_eq!(c.nnz(), nnz_ref);
        }
    }

    #[test]
    fn masked_mxm_restricts_structure() {
        let a = gen::erdos_renyi(40, 5, 7);
        let b = gen::erdos_renyi(40, 5, 8);
        let mask = gen::erdos_renyi_bool(40, 10, 9);
        let ctx = ExecCtx::serial();
        let c =
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), Some(&mask), &ctx)
                .unwrap();
        for (i, j, _) in c.iter() {
            assert!(mask.get(i, j).is_some(), "({i},{j}) escaped the mask");
        }
        // and the values agree with the unmasked product
        let full =
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx).unwrap();
        for (i, j, &v) in c.iter() {
            assert_eq!(full.get(i, j), Some(&v));
        }
    }

    #[test]
    fn dimension_mismatch() {
        let a = gen::erdos_renyi(10, 2, 1);
        let b = gen::erdos_renyi(11, 2, 2);
        let ctx = ExecCtx::serial();
        assert!(
            mxm::<_, _, f64, _, _, bool>(&a, &b, &semirings::plus_times_f64(), None, &ctx).is_err()
        );
    }

    #[test]
    fn identity_times_a_is_a() {
        let n = 30;
        let a = gen::erdos_renyi(n, 3, 13);
        let eye = CsrMatrix::from_triplets(n, n, &(0..n).map(|i| (i, i, 1.0)).collect::<Vec<_>>())
            .unwrap();
        let ctx = ExecCtx::serial();
        let c = mxm::<_, _, f64, _, _, bool>(&eye, &a, &semirings::plus_times_f64(), None, &ctx)
            .unwrap();
        assert_eq!(c.rowptr(), a.rowptr());
        assert_eq!(c.colidx(), a.colidx());
        for (x, y) in c.values().iter().zip(a.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// All three accumulator rungs emit bit-identical rows (same
    /// ascending-k accumulation, sorted columns), masked or not, and each
    /// charges its documented work.
    #[test]
    fn accumulator_rungs_are_bit_interchangeable() {
        let a = gen::rmat(7, 6, 3);
        let mask = gen::erdos_renyi_bool(128, 20, 4);
        let ctx = ExecCtx::serial();
        let ring = semirings::plus_times_f64();
        for masked in [false, true] {
            let mut rows: Vec<CsrBuf<f64>> = Vec::new();
            let mut charges = Vec::new();
            for kernel in [MxmKernel::Spa, MxmKernel::Hash, MxmKernel::Heap] {
                let mut acc = RowAccum::checkout(kernel, a.ncols(), 0.0, &ctx);
                let (mut out, mut c) = (CsrBuf::default(), Counters::default());
                for i in 0..a.nrows() {
                    let (cols, vals) = a.row(i);
                    let mrow = masked.then(|| mask.row(i).0);
                    acc.multiply_row(cols, vals, 0, &a, &ring, mrow, &mut out, &mut c);
                    out.end_row();
                }
                rows.push(out);
                charges.push(c);
            }
            for r in &rows[1..] {
                assert_eq!(r.rowptr, rows[0].rowptr);
                assert_eq!(r.colidx, rows[0].colidx);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&r.values), bits(&rows[0].values));
            }
            let products = charges[0].flops;
            assert!(products > 0);
            assert_eq!(charges[1].flops, products);
            assert_eq!(charges[1].rand_access, products);
            assert_eq!(charges[2].flops, products);
            assert_eq!(charges[1].sort_elems, charges[0].sort_elems);
            assert_eq!((charges[2].rand_access, charges[2].spa_touches), (0, 0));
            if !masked {
                // a touch per accumulate plus one per value read
                assert_eq!(charges[0].spa_touches, products + rows[0].colidx.len() as u64);
            }
        }
    }
}
