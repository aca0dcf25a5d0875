//! Element-wise matrix operations: `eWiseMult` / `eWiseAdd` on CSR.
//!
//! The GraphBLAS spec defines `eWiseMult`/`eWiseAdd` uniformly over
//! vectors and matrices (§III: "the API does not differentiate matrices as
//! sparse or dense"); the vector forms live in [`super::ewise`], these are
//! the matrix forms. Row-parallel: each task merges a contiguous block of
//! row pairs, so no synchronization is needed and per-row outputs stay
//! sorted.

use crate::algebra::BinaryOp;
use crate::container::{CsrBuf, CsrMatrix};
use crate::error::{GblasError, Result};
use crate::par::{Counters, ExecCtx};

/// Phase name for matrix element-wise ops.
pub const PHASE: &str = "ewise-mat";

fn check_same_shape<A, B>(a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> Result<()> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("{}x{}", a.nrows(), a.ncols()),
            actual: format!("{}x{}", b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

/// `C = A .* B`: intersection of structures, values combined with `op`.
pub fn ewise_mult_mat<A, B, C, Op>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    op: &Op,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<C>>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync,
    Op: BinaryOp<A, B, C>,
{
    check_same_shape(a, b)?;
    let mut blocks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut out = CsrBuf::default();
        for i in r {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                c.elems += 1;
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        out.colidx.push(ac[p]);
                        out.values.push(op.eval(av[p], bv[q]));
                        c.flops += 1;
                        p += 1;
                        q += 1;
                    }
                }
            }
            out.end_row();
        }
        out
    });
    CsrBuf::concat(a.nrows(), a.ncols(), &mut blocks)
}

/// `C = A .+ B`: union of structures, values combined with `op` where both
/// are present.
pub fn ewise_add_mat<T, Op>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: &Op,
    ctx: &ExecCtx,
) -> Result<CsrMatrix<T>>
where
    T: Copy + Send + Sync,
    Op: BinaryOp<T, T, T>,
{
    check_same_shape(a, b)?;
    let mut blocks = ctx.parallel_for(PHASE, a.nrows(), |r, c| {
        let mut out = CsrBuf::default();
        for i in r {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            add_row(ac, av, bc, bv, op, &mut out, c);
        }
        out
    });
    CsrBuf::concat(a.nrows(), a.ncols(), &mut blocks)
}

/// The row merge of [`ewise_add_mat`]: append the union of two sorted
/// rows to `out` as one finished row, combining shared columns with `op`.
/// Charges one streamed element per output entry and one flop per
/// combine.
pub fn add_row<T: Copy, Op: BinaryOp<T, T, T>>(
    ac: &[usize],
    av: &[T],
    bc: &[usize],
    bv: &[T],
    op: &Op,
    out: &mut CsrBuf<T>,
    c: &mut Counters,
) {
    let start = out.colidx.len();
    let (mut p, mut q) = (0usize, 0usize);
    while p < ac.len() && q < bc.len() {
        match ac[p].cmp(&bc[q]) {
            std::cmp::Ordering::Less => {
                out.colidx.push(ac[p]);
                out.values.push(av[p]);
                p += 1;
            }
            std::cmp::Ordering::Greater => {
                out.colidx.push(bc[q]);
                out.values.push(bv[q]);
                q += 1;
            }
            std::cmp::Ordering::Equal => {
                out.colidx.push(ac[p]);
                out.values.push(op.eval(av[p], bv[q]));
                c.flops += 1;
                p += 1;
                q += 1;
            }
        }
    }
    // at most one side has a tail left
    for (cols, vals) in [(&ac[p..], &av[p..]), (&bc[q..], &bv[q..])] {
        out.colidx.extend_from_slice(cols);
        out.values.extend_from_slice(vals);
    }
    c.elems += (out.colidx.len() - start) as u64;
    out.end_row();
}

/// `acc = acc .+ part` on flat buffers of `nrows` rows, merging through
/// `scratch` and swapping it in: the SpGEMM stage accumulate and layer
/// merge. Charged exactly as an [`ewise_add_mat`] under `threads` logical
/// threads — [`add_row`]'s work plus one region of
/// `split_ranges(nrows, threads)` tasks. An `acc` with no entries takes
/// `part` by swap: the union is `part` itself, charged by its entry count.
pub fn add_into<T: Copy, Op: BinaryOp<T, T, T>>(
    nrows: usize,
    threads: usize,
    acc: &mut CsrBuf<T>,
    part: &mut CsrBuf<T>,
    scratch: &mut CsrBuf<T>,
    op: &Op,
    c: &mut Counters,
) {
    if acc.colidx.is_empty() {
        c.elems += part.colidx.len() as u64;
        std::mem::swap(acc, part);
        std::mem::swap(part, scratch); // the empty buffer is the next target
    } else {
        scratch.reset(acc.colidx.len() + part.colidx.len());
        for i in 0..nrows {
            let ((ac, av), (bc, bv)) = (acc.row(i), part.row(i));
            add_row(ac, av, bc, bv, op, scratch, c);
        }
        std::mem::swap(acc, scratch);
    }
    c.regions += 1;
    c.tasks += nrows.clamp(1, threads.max(1)) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{Plus, Times};
    use crate::gen;

    #[test]
    fn mult_is_structural_intersection() {
        let a = gen::erdos_renyi(80, 6, 1);
        let b = gen::erdos_renyi(80, 6, 2);
        for threads in [1, 4] {
            let ctx = ExecCtx::new(threads, 2);
            let c: CsrMatrix<f64> = ewise_mult_mat(&a, &b, &Times, &ctx).unwrap();
            for (i, j, &v) in c.iter() {
                let (x, y) = (a.get(i, j).unwrap(), b.get(i, j).unwrap());
                assert!((v - x * y).abs() < 1e-12);
            }
            let expect = a.iter().filter(|&(i, j, _)| b.get(i, j).is_some()).count();
            assert_eq!(c.nnz(), expect);
        }
    }

    #[test]
    fn add_is_structural_union() {
        let a = gen::erdos_renyi(60, 4, 3);
        let b = gen::erdos_renyi(60, 4, 4);
        let ctx = ExecCtx::with_threads(2);
        let c = ewise_add_mat(&a, &b, &Plus, &ctx).unwrap();
        for (i, j, &v) in c.iter() {
            let expect = a.get(i, j).copied().unwrap_or(0.0) + b.get(i, j).copied().unwrap_or(0.0);
            assert!((v - expect).abs() < 1e-12);
        }
        let mut union = 0usize;
        for (i, j, _) in a.iter() {
            let _ = (i, j);
            union += 1;
        }
        union += b.iter().filter(|&(i, j, _)| a.get(i, j).is_none()).count();
        assert_eq!(c.nnz(), union);
    }

    #[test]
    fn add_with_self_doubles() {
        let a = gen::erdos_renyi(30, 3, 5);
        let ctx = ExecCtx::serial();
        let c = ewise_add_mat(&a, &a, &Plus, &ctx).unwrap();
        assert_eq!(c.rowptr(), a.rowptr());
        for (x, y) in c.values().iter().zip(a.values()) {
            assert!((x - 2.0 * y).abs() < 1e-12);
        }
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = CsrMatrix::<f64>::empty(3, 3);
        let b = CsrMatrix::<f64>::empty(3, 4);
        let ctx = ExecCtx::serial();
        assert!(ewise_mult_mat::<_, _, f64, _>(&a, &b, &Times, &ctx).is_err());
        assert!(ewise_add_mat(&a, &b, &Plus, &ctx).is_err());
    }

    #[test]
    fn empty_matrices() {
        let a = CsrMatrix::<f64>::empty(5, 5);
        let ctx = ExecCtx::serial();
        let c: CsrMatrix<f64> = ewise_mult_mat(&a, &a, &Times, &ctx).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    /// The flat-buffer accumulate must produce `ewise_add_mat`'s result
    /// and charge its exact counters, from an empty or a populated block.
    #[test]
    fn add_into_matches_ewise_add_mat_result_and_charges() {
        let buf = |m: &CsrMatrix<f64>| {
            let mut b = CsrBuf::default();
            b.reset(0);
            for i in 0..m.nrows() {
                let (cols, vals) = m.row(i);
                b.colidx.extend_from_slice(cols);
                b.values.extend_from_slice(vals);
                b.end_row();
            }
            b
        };
        let a = gen::erdos_renyi(70, 4, 11);
        let b = gen::erdos_renyi(70, 3, 12);
        for acc0 in [CsrMatrix::empty(70, 70), a] {
            let ctx = ExecCtx::simulated(24);
            let expect = ewise_add_mat(&acc0, &b, &Plus, &ctx).unwrap();
            let (mut acc, mut part, mut scratch) = (buf(&acc0), buf(&b), CsrBuf::default());
            let mut c = Counters::default();
            add_into(70, 24, &mut acc, &mut part, &mut scratch, &Plus, &mut c);
            assert_eq!(CsrBuf::concat(70, 70, [&mut acc]).unwrap(), expect);
            assert_eq!(c, ctx.profile().phase(PHASE));
        }
    }
}
