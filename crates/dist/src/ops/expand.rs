//! Distributed batched (multi-source) containers and the dense batched
//! SpMM.
//!
//! The CombBLAS 2.0 observation: a level of k concurrent traversals
//! gathers, multiplies and scatters k sparse vectors over the *same*
//! 2-D matrix distribution, so the per-superstep communication fuses —
//! every locale pair exchanges **one** bulk message carrying all k
//! sources' payloads, paying the per-message latency α once instead of
//! k times.
//!
//! [`DistFrontier`] is the distributed `n×k` frontier. Its sparse
//! expansion is not a separate kernel: [`DistFrontier::rows`] is the
//! frontier slice [`crate::ops::spmspv::spmspv_dist_batch`] takes, the
//! same engine a single source runs as its `k = 1` batch.
//! [`spmm_dense_dist`] is the dense counterpart: k dense columns through
//! the [`crate::ops::spmv::spmv_dist`] superstep structure with fused
//! messages.

use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use crate::ops::spmspv::{PHASE_GATHER, PHASE_LOCAL};
use crate::vec::{DistDenseVec, DistSparseVec};
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::SparseVec;
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::par::Profile;
use gblas_sim::SimReport;

/// Phase: combine partial dense products down processor columns (the
/// batched dense SpMM reuses the SpMV phase names).
pub const PHASE_COMBINE: &str = "combine";

/// A batch of `k` block-distributed sparse frontiers over one capacity —
/// the distributed layout of the conceptual `n×k` frontier matrix. Every
/// per-source vector shares the same block distribution, so a batched
/// kernel's communication pattern is the single-source pattern with k×
/// the payload and 1× the messages.
#[derive(Debug, Clone)]
pub struct DistFrontier<T> {
    capacity: usize,
    locales: usize,
    rows: Vec<DistSparseVec<T>>,
}

impl<T: Copy + Send + Sync + 'static> DistFrontier<T> {
    /// Build from per-source entry lists (unsorted; duplicate indices
    /// within one source are an error), block-distributed over `locales`.
    pub fn from_entries(
        capacity: usize,
        entries: Vec<Vec<(usize, T)>>,
        locales: usize,
    ) -> Result<Self> {
        let rows = entries
            .into_iter()
            .map(|pairs| {
                let global = SparseVec::from_pairs(capacity, pairs)?;
                Ok(DistSparseVec::from_global(&global, locales))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DistFrontier { capacity, locales, rows })
    }

    /// Wrap `k` distributed sparse vectors sharing `capacity`/`locales`.
    pub fn new(capacity: usize, locales: usize, rows: Vec<DistSparseVec<T>>) -> Result<Self> {
        for r in &rows {
            check_dims("frontier row capacity", capacity, r.capacity())?;
            check_dims("frontier row locales", locales, r.locales())?;
        }
        Ok(DistFrontier { capacity, locales, rows })
    }

    /// A batch of `k` empty frontiers.
    pub fn empty(capacity: usize, k: usize, locales: usize) -> Self {
        DistFrontier {
            capacity,
            locales,
            rows: (0..k).map(|_| DistSparseVec::empty(capacity, locales)).collect(),
        }
    }

    /// Shared index-space size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locale count of the block distribution.
    pub fn locales(&self) -> usize {
        self.locales
    }

    /// Number of sources in the batch.
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Total stored entries across all sources.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.nnz()).sum()
    }

    /// Source `s`'s frontier.
    pub fn row(&self, s: usize) -> &DistSparseVec<T> {
        &self.rows[s]
    }

    /// All per-source frontiers, batch order.
    pub fn rows(&self) -> &[DistSparseVec<T>] {
        &self.rows
    }

    /// Export every source's entries in ascending global index order.
    pub fn to_entries(&self) -> Vec<Vec<(usize, T)>> {
        self.rows
            .iter()
            .map(|r| {
                let g = r.to_global();
                g.iter().map(|(i, &v)| (i, v)).collect()
            })
            .collect()
    }
}

/// Batched distributed dense SpMM: `ys[s] = xs[s] · A` for the whole
/// batch with the [`crate::ops::spmv::spmv_dist`] superstep structure,
/// but every gather / combine / placement message carries all k columns —
/// 1× the messages, k× the payload. Each column's values are accumulated
/// in the single-column kernel's exact order, so `ys[s]` matches a solo
/// `spmv_dist` run bit for bit.
pub fn spmm_dense_dist<A, B, C, AddM, MulOp>(
    a: &DistCsrMatrix<B>,
    xs: &[DistDenseVec<A>],
    ring: &Semiring<AddM, MulOp>,
    dctx: &DistCtx,
) -> Result<(Vec<DistDenseVec<C>>, SimReport)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let p = grid.locales();
    let k = xs.len();
    for x in xs {
        check_dims("x length vs matrix rows", a.nrows(), x.len())?;
        if x.locales() != p {
            return Err(GblasError::DimensionMismatch {
                expected: format!("{p} locales"),
                actual: format!("{} locales", x.locales()),
            });
        }
    }
    if dctx.locales() != p {
        return Err(GblasError::DimensionMismatch {
            expected: format!("machine with {p} locales"),
            actual: format!("machine with {} locales", dctx.locales()),
        });
    }
    let n = a.ncols();
    let a_bytes = std::mem::size_of::<A>() as u64;
    let c_bytes = std::mem::size_of::<C>() as u64;

    // ---- Superstep 1: fused gather + per-column local multiply.
    struct GatherLocal<C> {
        gather: Profile,
        local: Profile,
        partials: Vec<Vec<C>>,
    }
    let gl: Vec<GatherLocal<C>> = dctx.for_each_locale(|l| {
        let (r, _) = grid.coords(l);
        let row_range = a.row_range(l);
        let gctx = dctx.locale_ctx_for(l);
        let mut lx: Vec<Vec<A>> = (0..k).map(|_| Vec::with_capacity(row_range.len())).collect();
        for src in grid.row_locales(r) {
            if src != l && k > 0 {
                let seg_len = xs[0].segment(src).len() as u64;
                if seg_len > 0 {
                    dctx.comm.bulk(PHASE_GATHER, l, src, 1, k as u64 * seg_len * a_bytes)?;
                }
            }
            for (s, x) in xs.iter().enumerate() {
                lx[s].extend_from_slice(x.segment(src));
            }
        }
        let moved: u64 = lx.iter().map(|v| v.len() as u64).sum();
        gctx.record(PHASE_GATHER, |c| {
            c.elems += moved;
            c.bytes_moved += moved * a_bytes;
        });
        let lctx = dctx.locale_ctx_for(l);
        let block = a.block(l);
        let width = a.col_range(l).len();
        let mut partials: Vec<Vec<C>> = Vec::with_capacity(k);
        for v in lx {
            let partial = {
                let lx_dense = gblas_core::container::DenseVec::from_vec(v);
                if row_range.is_empty() || width == 0 {
                    vec![ring.zero::<C>(); width]
                } else {
                    gblas_core::ops::spmv::spmv_col(block, &lx_dense, ring, &lctx)?.into_vec()
                }
            };
            partials.push(partial);
        }
        let mut folded = Profile::default();
        let cc = folded.counters_mut(PHASE_LOCAL);
        for (_, counters) in lctx.take_profile().iter() {
            cc.merge(counters);
        }
        Ok(GatherLocal { gather: gctx.take_profile(), local: folded, partials })
    })?;
    let gather_profiles: Vec<Profile> = gl.iter().map(|g| g.gather.clone()).collect();
    let local_profiles: Vec<Profile> = gl.iter().map(|g| g.local.clone()).collect();
    let partials: Vec<Vec<Vec<C>>> = gl.into_iter().map(|g| g.partials).collect();

    // ---- Superstep 2: combine down each processor column, all k columns
    // in one message per non-leader.
    #[allow(clippy::type_complexity)] // (per-locale profiles, leader-only k accumulators)
    let (combine_profiles, accs): (Vec<Profile>, Vec<Option<Vec<Vec<C>>>>) = dctx
        .for_each_locale(|l| {
            let (_, c) = grid.coords(l);
            let leader = grid.locale(0, c);
            let col_range = a.col_range(leader);
            if l != leader {
                let payload = k as u64 * col_range.len() as u64 * c_bytes;
                if payload > 0 {
                    dctx.comm.bulk(PHASE_COMBINE, l, leader, 1, payload)?;
                }
                return Ok((Profile::default(), None));
            }
            let mut acc_k: Vec<Vec<C>> = Vec::with_capacity(k);
            // `s` selects source slot `partials[src][s]` across every
            // sender `src`, so it is not a single-slice index.
            #[allow(clippy::needless_range_loop)]
            for s in 0..k {
                let mut acc: Vec<C> = vec![ring.zero::<C>(); col_range.len()];
                for src in grid.col_locales(c) {
                    for (slot, &v) in acc.iter_mut().zip(&partials[src][s]) {
                        *slot = ring.accumulate(*slot, v);
                    }
                }
                acc_k.push(acc);
            }
            let mut profile = Profile::default();
            let elems = (col_range.len() * grid.pr() * k) as u64;
            profile.counters_mut(PHASE_COMBINE).elems += elems;
            profile.counters_mut(PHASE_COMBINE).flops += elems;
            Ok((profile, Some(acc_k)))
        })?
        .into_iter()
        .unzip();

    // ---- Placement: leaders hand output blocks to owners, one fused
    // message per (leader, owner) pair for the whole batch.
    let out_dist = crate::grid::BlockDist::new(n, p);
    let mut segments: Vec<Vec<Vec<C>>> = (0..k)
        .map(|_| (0..p).map(|b| vec![ring.zero::<C>(); out_dist.size(b)]).collect())
        .collect();
    for c in 0..grid.pc() {
        let leader = grid.locale(0, c);
        let col_range = a.col_range(leader);
        let acc_k = match accs[leader].as_ref() {
            Some(a) => a,
            None => continue,
        };
        for (s, acc) in acc_k.iter().enumerate() {
            for (off, &v) in acc.iter().enumerate() {
                let j = col_range.start + off;
                let owner = out_dist.owner(j);
                segments[s][owner][j - out_dist.range(owner).start] = v;
            }
        }
        let first_owner = if col_range.is_empty() { 0 } else { out_dist.owner(col_range.start) };
        let last_owner = if col_range.is_empty() { 0 } else { out_dist.owner(col_range.end - 1) };
        for owner in first_owner..=last_owner {
            if !col_range.is_empty() && owner != leader {
                let overlap = out_dist.range(owner);
                let lo = overlap.start.max(col_range.start);
                let hi = overlap.end.min(col_range.end);
                if lo < hi && k > 0 {
                    dctx.comm.bulk(
                        PHASE_COMBINE,
                        leader,
                        owner,
                        1,
                        k as u64 * (hi - lo) as u64 * c_bytes,
                    )?;
                }
            }
        }
    }

    let ys = segments
        .into_iter()
        .map(|segs| DistDenseVec::from_segments(n, segs))
        .collect::<Result<Vec<_>>>()?;
    let mut trace = dctx.op("spmm_dense_dist");
    trace.attr("k", k).attr("nrows", a.nrows()).attr("ncols", n).nnz(a.nnz() as u64);
    trace.spawn(PHASE_GATHER, 1);
    trace.compute(PHASE_GATHER, &gather_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    trace.compute(PHASE_COMBINE, &combine_profiles);
    Ok((ys, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::algebra::semirings;
    use gblas_core::container::DenseVec;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    fn machine_for(grid: ProcGrid) -> MachineConfig {
        MachineConfig::edison_cluster(grid.locales(), 24)
    }

    #[test]
    fn spmm_columns_match_single_spmv_dist_runs() {
        let n = 250;
        let a = gen::erdos_renyi(n, 5, 241);
        let ring = semirings::plus_times_f64();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let xs: Vec<DistDenseVec<f64>> = (0..3)
                .map(|s| {
                    DistDenseVec::from_global(&DenseVec::from_fn(n, |i| ((i + s) % 7) as f64), p)
                })
                .collect();
            let dctx = DistCtx::new(machine_for(grid));
            let (ys, report) = spmm_dense_dist(&da, &xs, &ring, &dctx).unwrap();
            assert!(report.total() > 0.0);
            for (s, x) in xs.iter().enumerate() {
                let sctx = DistCtx::new(machine_for(grid));
                let (y, _) = crate::ops::spmv::spmv_dist(&da, x, &ring, &sctx).unwrap();
                let got = ys[s].to_global();
                let want = y.to_global();
                for j in 0..n {
                    assert_eq!(got[j], want[j], "grid {pr}x{pc} col {s} entry {j}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gen::erdos_renyi(100, 4, 251);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        let (ys, _) =
            spmm_dense_dist::<f64, f64, f64, _, _>(&da, &[], &semirings::plus_times_f64(), &dctx)
                .unwrap();
        assert!(ys.is_empty());
    }
}
