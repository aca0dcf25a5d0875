//! Distributed SpGEMM: `C = A ⊗ B` by multi-stage sparse SUMMA.
//!
//! The paper cites the 2-D sparse SUMMA algorithm for matrix-matrix
//! multiply and general indexing \[8\] (Buluç & Gilbert) as the natural
//! companion to its block distribution. Stationary-C formulation: in
//! stage `s` covering the inner-dimension interval `[lo, hi)`, the owners
//! of `A`'s covering column-block broadcast that interval's *column
//! slice* along their grid row, the owners of `B`'s covering row-block
//! broadcast the interval's *row slice* down their grid column, every
//! locale multiplies the received pair locally and accumulates into its
//! stationary `C` block with an element-wise add.
//!
//! Three algorithm variants ([`MxmAlgo`]):
//!
//! * **`Single`** — the legacy single-stage-per-block SUMMA: whole CSR
//!   blocks are broadcast (row pointers included), one stage per grid
//!   column. Requires a square grid; kept as the measured baseline.
//! * **`Summa2d`** — multi-stage DCSC SUMMA on arbitrary rectangular
//!   `pr×pc` grids. The stage bounds are the sorted union of `A`'s column
//!   split and `B`'s row split ([`SummaPlan`]), so no `lcm`-sized
//!   re-blocking is needed; broadcasts carry doubly compressed slices
//!   ([`crate::dcsc`]) whose wire bytes scale with the slice's nonzeros,
//!   not the block side — the hypersparsity win. Each block pair's local
//!   multiply picks a density-adaptive kernel (heap merge / hash
//!   accumulator / pooled dense SPA) via
//!   [`gblas_core::ops::selection::decide_mxm_kernel`].
//! * **`Summa3d`** — the communication-avoiding 3-D variant: the machine
//!   is split into `c` replication layers of `p` locales each, stages are
//!   dealt round-robin to layers, operand blocks are replicated to the
//!   layer that consumes them (priced point-to-point), and the layers'
//!   partial `C` blocks are merged by a binomial-tree allreduce. Fewer,
//!   larger blocks per layer mean smaller broadcast fan-out; the price is
//!   the `log₂ c` merge rounds over the (sparse) partial products.
//!
//! All variants produce identical results: every local kernel
//! accumulates each output position in ascending inner-dimension order,
//! so integer-semiring products are bit-identical across variants, grid
//! shapes, and executors (floating-point products agree to rounding, as
//! the stage grouping associates the sums differently).

use crate::dcsc::{self, choose_format, BlockFormat, DcscBlock, StageSlice};
use crate::exec::DistCtx;
use crate::mat::DistCsrMatrix;
use crate::sched::{fingerprint_indices, FrontierClass, PlanData, SummaPlan};
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::{CsrBuf, CsrMatrix};
use gblas_core::error::{GblasError, Result};
use gblas_core::ops::ewise_mat::add_into;
use gblas_core::ops::mxm::{sort_charge, RowAccum};
use gblas_core::ops::selection::{decide_mxm_kernel, MxmKernel};
use gblas_core::par::{Counters, ExecCtx, Profile};
use gblas_sim::SimReport;
use std::collections::BTreeSet;

/// Phase: slice/block broadcasts.
pub const PHASE_BCAST: &str = "broadcast";
/// Phase: local multiplies + accumulation.
pub const PHASE_LOCAL: &str = "local";
/// Phase: DCSC conversion and stage-slice extraction on the owners.
pub const PHASE_EXTRACT: &str = "extract";
/// Phase: operand block replication to 3-D layers.
pub const PHASE_REPLICATE: &str = "replicate";
/// Phase: binomial allreduce merging the layers' partial `C` blocks.
pub const PHASE_MERGE: &str = "allreduce";

/// Which SUMMA variant a distributed multiply runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmAlgo {
    /// Legacy single-stage-per-block broadcast SUMMA (square grids only),
    /// full CSR blocks on the wire. The measured baseline.
    Single,
    /// Multi-stage DCSC SUMMA on rectangular grids (the default).
    #[default]
    Summa2d,
    /// Communication-avoiding 3-D SUMMA with `layers` replication layers
    /// (`layers = 0` derives the layer count from the machine:
    /// `dctx.locales() / grid.locales()`).
    Summa3d {
        /// Replication layer count; 0 = derive from the machine size.
        layers: usize,
    },
}

impl MxmAlgo {
    /// Stable lowercase name (trace attributes, figure series).
    pub fn name(self) -> &'static str {
        match self {
            MxmAlgo::Single => "single",
            MxmAlgo::Summa2d => "summa2d",
            MxmAlgo::Summa3d { .. } => "summa3d",
        }
    }

    /// Parse the CLI spelling (`single` | `2d` | `3d`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "single" => Some(MxmAlgo::Single),
            "2d" => Some(MxmAlgo::Summa2d),
            "3d" => Some(MxmAlgo::Summa3d { layers: 0 }),
            _ => None,
        }
    }
}

/// Replication layer count for a machine of `total` locales: the largest
/// power of two `c` with `c³ ≤ total` that divides `total` — the classic
/// `c ≤ ∛p` bound that keeps the allreduce from dominating.
pub fn auto_layers(total: usize) -> usize {
    let mut best = 1;
    let mut cand = 2usize;
    while cand.saturating_mul(cand).saturating_mul(cand) <= total {
        if total.is_multiple_of(cand) {
            best = cand;
        }
        cand *= 2;
    }
    best
}

/// `C = A ⊗ B` over `ring` with both operands on the same grid
/// (multi-stage DCSC SUMMA, the default variant).
pub fn mxm_dist<T, AddM, MulOp>(
    a: &DistCsrMatrix<T>,
    b: &DistCsrMatrix<T>,
    ring: &Semiring<AddM, MulOp>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<T>, SimReport)>
where
    T: Copy + Send + Sync + PartialEq + 'static,
    AddM: Monoid<T>,
    MulOp: BinaryOp<T, T, T>,
{
    mxm_dist_masked::<T, T, T, AddM, MulOp, bool>(a, b, ring, None, dctx)
}

/// Masked, mixed-type multi-stage SUMMA: `C⟨M⟩ = A ⊗ B` (default
/// variant). See [`mxm_dist_masked_with`] for the variant-selecting form.
pub fn mxm_dist_masked<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    mxm_dist_masked_with(a, b, ring, mask, MxmAlgo::default(), dctx)
}

/// Masked, mixed-type sparse SUMMA with an explicit algorithm variant.
///
/// The mask is structural and distributed on the *same grid* as the
/// stationary `C` blocks, so each stage applies its locale's mask block to
/// the local multiply — masking commutes with the stage-wise element-wise
/// accumulation (`(Σ Pₖ) ∩ M = Σ (Pₖ ∩ M)`), and suppressed entries never
/// enter a stationary block. This is what masked distributed triangle
/// counting (`C⟨L⟩ = L · Lᵀ`) needs.
pub fn mxm_dist_masked_with<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    algo: MxmAlgo,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    if b.grid() != grid {
        return Err(GblasError::DimensionMismatch {
            expected: format!("B on the same {}x{} grid", grid.pr(), grid.pc()),
            actual: format!("B on {}x{}", b.grid().pr(), b.grid().pc()),
        });
    }
    if a.ncols() != b.nrows() {
        return Err(GblasError::DimensionMismatch {
            expected: format!("inner dimension {}", a.ncols()),
            actual: format!("inner dimension {}", b.nrows()),
        });
    }
    if let Some(m) = mask {
        if m.grid() != grid {
            return Err(GblasError::DimensionMismatch {
                expected: format!("mask on the same {}x{} grid", grid.pr(), grid.pc()),
                actual: format!("mask on {}x{}", m.grid().pr(), m.grid().pc()),
            });
        }
        if m.nrows() != a.nrows() || m.ncols() != b.ncols() {
            return Err(GblasError::DimensionMismatch {
                expected: format!("{}x{} mask", a.nrows(), b.ncols()),
                actual: format!("{}x{} mask", m.nrows(), m.ncols()),
            });
        }
    }
    let p = grid.locales();
    match algo {
        MxmAlgo::Single => {
            if grid.pr() != grid.pc() {
                return Err(GblasError::InvalidArgument(
                    "single-stage SUMMA needs a square process grid".into(),
                ));
            }
            if dctx.locales() != p {
                return Err(GblasError::DimensionMismatch {
                    expected: format!("machine with {p} locales"),
                    actual: format!("machine with {} locales", dctx.locales()),
                });
            }
            single_stage(a, b, ring, mask, dctx)
        }
        MxmAlgo::Summa2d => {
            if dctx.locales() != p {
                return Err(GblasError::DimensionMismatch {
                    expected: format!("machine with {p} locales"),
                    actual: format!("machine with {} locales", dctx.locales()),
                });
            }
            summa_engine(a, b, ring, mask, 1, dctx)
        }
        MxmAlgo::Summa3d { layers } => {
            let total = dctx.locales();
            let derived = if layers == 0 {
                if !total.is_multiple_of(p) {
                    return Err(GblasError::DimensionMismatch {
                        expected: format!("machine locales divisible by grid size {p}"),
                        actual: format!("{total} locales"),
                    });
                }
                total / p
            } else {
                layers
            };
            if p * derived != total {
                return Err(GblasError::DimensionMismatch {
                    expected: format!(
                        "machine with {} locales ({p} grid x {derived} layers)",
                        p * derived
                    ),
                    actual: format!("machine with {total} locales"),
                });
            }
            summa_engine(a, b, ring, mask, derived, dctx)
        }
    }
}

/// The multi-stage engine shared by the 2-D (`layers == 1`) and 3-D
/// (`layers > 1`) variants. See the module docs for the structure.
fn summa_engine<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    layers: usize,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let p = grid.locales();
    let total = p * layers;
    let a_elem = std::mem::size_of::<A>();
    let b_elem = std::mem::size_of::<B>();

    // The stage plan is purely shape-derived (dimensions + grid), so
    // iterative callers replay it across fresh matrices of the same shape
    // — the generation stamp is unused (0) and the shapes fingerprint
    // gates reuse instead.
    let (plan_arc, sched_outcome) = dctx.schedule(
        "mxm_summa",
        FrontierClass::Mat,
        (grid.pr(), grid.pc()),
        0,
        fingerprint_indices(&[a.nrows(), a.ncols(), b.ncols()]),
        || PlanData::Summa(SummaPlan::build(a.ncols(), &a.col_dist(), &b.row_dist())),
    );
    let plan = plan_arc.summa();
    let stages = plan.stages();

    // B's stage slice is the contiguous local row range of its covering
    // block: `(nnz, nonempty rows)` per (stage, grid column) sizes both
    // the kernel estimate and the broadcast payload.
    let pc = grid.pc();
    let b_sizes: Vec<(usize, usize)> = (0..stages * pc)
        .map(|sc| {
            let (s, c) = (sc / pc, sc % pc);
            let (lo, hi) = plan.bounds[s];
            let start = b.row_dist().range(plan.kb[s]).start;
            let ptr = &b.block(grid.locale(plan.kb[s], c)).rowptr()[lo - start..=hi - start];
            (ptr[ptr.len() - 1] - ptr[0], ptr.windows(2).filter(|w| w[0] < w[1]).count())
        })
        .collect();
    // Driver-side kernel decisions, per (stage, grid position): pure
    // integer estimates from block structure, so every locale — and both
    // executors — agree without additional communication (the estimates
    // ride on the slice headers the broadcasts already carry).
    let mut decisions: Vec<Vec<MxmKernel>> = Vec::with_capacity(stages);
    let mut kernel_counts = [0u64; 3];
    let mut est_total: u64 = 0;
    let mut stage_cost: Vec<u64> = vec![0; stages];
    for (s, cost) in stage_cost.iter_mut().enumerate() {
        let (lo, hi) = plan.bounds[s];
        let w = hi - lo;
        let mut per_locale = Vec::with_capacity(p);
        for l in 0..p {
            let (r, c) = grid.coords(l);
            let a_blk = a.block(grid.locale(r, plan.ka[s]));
            let b_nnz = b_sizes[s * pc + c].0;
            let a_est = a_blk.nnz() * w / a_blk.ncols().max(1);
            let est_flops = a_est * b_nnz / w.max(1);
            let q_l = b.col_range(l).len();
            let k = decide_mxm_kernel(est_flops, q_l);
            kernel_counts[match k {
                MxmKernel::Heap => 0,
                MxmKernel::Hash => 1,
                MxmKernel::Spa => 2,
            }] += 1;
            est_total += est_flops as u64;
            *cost = (*cost).max(est_flops as u64);
            per_locale.push(k);
        }
        decisions.push(per_locale);
    }

    // Stage -> layer assignment (3-D only): LPT greedy on the driver-side
    // critical-path estimates, heaviest stage to the least-loaded layer.
    // Round-robin dealing loses badly on skewed (RMAT) inputs, where hub
    // block-columns concentrate the flops in a few stages; balancing on
    // the same integer estimates the kernel selection already computes
    // keeps the layers' critical paths even — and stays deterministic
    // across executors and grid shapes.
    let stage_layer: Vec<usize> = {
        let mut order: Vec<usize> = (0..stages).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(stage_cost[s]), s));
        let mut load = vec![0u64; layers];
        let mut assign = vec![0usize; stages];
        for s in order {
            let target = (0..layers).min_by_key(|&j| (load[j], j)).unwrap_or(0);
            assign[s] = target;
            load[target] += stage_cost[s].max(1);
        }
        assign
    };
    let mut select_trace = dctx.op("select");
    select_trace
        .attr("algo", "mxm")
        .attr("stages", stages)
        .attr("heap", kernel_counts[0])
        .attr("hash", kernel_counts[1])
        .attr("spa", kernel_counts[2])
        .nnz(est_total);
    let select_report = select_trace.finish();

    // Prepare superstep: every locale picks its A block's representation
    // (DCSC when hypersparse), converts once, and extracts the column
    // slice of every stage whose A block it owns, in its own pool. The
    // conversion is charged to the extract phase here; each slice keeps
    // its own extraction counters, charged at its stage below. B blocks
    // stay CSR — row slices are contiguous.
    let pr = grid.pr();
    type Prep<'a, T> = (Option<DcscBlock<T>>, Profile, Vec<(StageSlice<'a, T>, Counters)>);
    let mut prep: Vec<Prep<'_, A>> =
        (0..p).map(|_| (None, Profile::default(), Vec::new())).collect();
    dctx.for_each_locale_state(&mut prep, |l, (slot, prof, slices)| {
        let blk = a.block(l);
        if choose_format(blk.nnz(), blk.nrows().max(blk.ncols())) == BlockFormat::Dcsc {
            let c = prof.counters_mut(PHASE_EXTRACT);
            c.elems += blk.nnz() as u64;
            c.sort_elems += sort_charge(blk.nnz());
            *slot = Some(DcscBlock::from_csr(blk));
        }
        let lctx = dctx.locale_ctx_for(l);
        let (ka, start) = (grid.coords(l).1, a.col_range(l).start);
        for s in (0..stages).filter(|&s| plan.ka[s] == ka) {
            let (lo, hi) = (plan.bounds[s].0 - start, plan.bounds[s].1 - start);
            let mut cnt = Counters::default();
            let slice = match slot {
                Some(d) => d.col_slice(lo, hi, &lctx, &mut cnt),
                None => dcsc::csr_col_slice(blk, lo, hi, &lctx, &mut cnt),
            };
            slices.push((slice, cnt));
        }
        Ok(())
    })?;
    // A's stage slices indexed by (stage, grid row), in each owner's
    // stage order.
    let mut a_slices: Vec<Option<(StageSlice<'_, A>, Counters)>> =
        (0..stages * pr).map(|_| None).collect();
    let mut a_dcsc = Vec::with_capacity(p);
    let mut extract_profiles = vec![Profile::default(); total];
    for (l, (slot, prof, slices)) in prep.into_iter().enumerate() {
        let (r, ka) = grid.coords(l);
        let owned = (0..stages).filter(|&s| plan.ka[s] == ka);
        for (s, slice) in owned.zip(slices) {
            a_slices[s * pr + r] = Some(slice);
        }
        a_dcsc.push(slot);
        extract_profiles[l] = prof;
    }

    // 3-D replication: each operand block moves once to every layer > 0
    // that consumes one of its stages, point-to-point from its resident
    // locale to the layer counterpart. DCSC-converted blocks ship doubly
    // compressed.
    if layers > 1 {
        let mut moves: BTreeSet<(usize, usize, bool)> = BTreeSet::new(); // (base locale, layer, is_b)
        for (s, &layer) in stage_layer.iter().enumerate() {
            if layer == 0 {
                continue;
            }
            for r in 0..grid.pr() {
                moves.insert((grid.locale(r, plan.ka[s]), layer, false));
            }
            for c in 0..grid.pc() {
                moves.insert((grid.locale(plan.kb[s], c), layer, true));
            }
        }
        for &(base, layer, is_b) in &moves {
            let bytes = if is_b {
                let blk = b.block(base);
                dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), b_elem)
            } else {
                match &a_dcsc[base] {
                    Some(d) => dcsc::dcsc_wire_bytes(d.nzc(), d.nnz(), a_elem),
                    None => {
                        let blk = a.block(base);
                        dcsc::csr_wire_bytes(blk.nrows(), blk.nnz(), a_elem)
                    }
                }
            };
            dctx.comm.bulk(PHASE_REPLICATE, base, layer * p + base, 1, bytes)?;
        }
    }

    // Stationary C blocks (one per layer-locale), accumulated stage by
    // stage. Layer j's locale l holds the partial sum of its stage subset.
    let mut state: Vec<(CsrMatrix<C>, Profile, Profile)> = (0..total)
        .map(|_| (CsrMatrix::empty(0, 0), Profile::default(), Profile::default()))
        .collect();

    // The whole stage pipeline runs inside ONE SPMD superstep: every
    // locale task loops its stages locally, with the per-stage exchange
    // expressed as owner-logged point-to-point sends. This is the
    // multi-stage engine's structural advantage over the legacy
    // single-stage baseline, which re-spawns a machine-wide superstep per
    // stage and pays the `locales × c_remote_task` coforall fan-out every
    // time — at 256 nodes that fan-out, not the wire, dominates its
    // broadcast phase.
    dctx.for_each_locale_state(&mut state, |g, (c_block, local_profile, bcast_profile)| {
        let l = g % p;
        let (r, c) = grid.coords(l);
        let (m_l, q_l) = (a.row_range(l).len(), b.col_range(l).len());
        let lctx = dctx.locale_ctx_for(l);
        // The stationary block and the stage partial live in pooled flat
        // buffers; each stage's accumulate writes `next` and swaps.
        let buf = || lctx.ws_scratch::<CsrBuf<C>>();
        let (mut cur, mut next, mut partial) = (buf(), buf(), buf());
        cur.reset(0);
        cur.pad_rows(m_l);
        for s in 0..stages {
            let layer = stage_layer[s];
            if g / p != layer {
                continue; // another layer's stage
            }
            let (lo, hi) = plan.bounds[s];
            let (ka, kb) = (plan.ka[s], plan.kb[s]);
            let a_owner = grid.locale(r, ka);
            let b_owner = grid.locale(kb, c);
            let alo = lo - a.col_dist().range(ka).start;
            let blo = lo - b.row_dist().range(kb).start;
            let (slice, extract) = a_slices[s * pr + r].as_ref().expect("owner built the slice");
            if l == a_owner {
                local_profile.counters_mut(PHASE_EXTRACT).merge(extract);
            }
            // The B owner charges the nonempty-row scan that sizes its
            // payload.
            let (b_nnz, b_nzr) = b_sizes[s * pc + c];
            if l == b_owner {
                local_profile.counters_mut(PHASE_EXTRACT).elems += (hi - lo) as u64;
            }
            // Broadcasts: sends are logged by the *owner*'s task — one
            // writer per source keeps the comm log's per-src order
            // deterministic under the threaded executor. Empty slices
            // never hit the wire: DCSC's `jc` array answers "is this
            // k-range empty?" without touching a rowptr, so hypersparse
            // stages cost zero messages — the payoff the legacy full-CSR
            // baseline (which always ships `(rows+1)` pointer words)
            // cannot see.
            let a_bytes = if slice.nnz() == 0 {
                0
            } else {
                dcsc::slice_wire_bytes(slice.nzr(), slice.nnz(), a_elem)
            };
            let b_bytes = if b_nnz == 0 { 0 } else { dcsc::slice_wire_bytes(b_nzr, b_nnz, b_elem) };
            if l == a_owner && a_bytes > 0 {
                for peer in grid.row_locales(r) {
                    if peer != l {
                        dctx.comm.bulk(PHASE_BCAST, g, layer * p + peer, 1, a_bytes)?;
                    }
                }
            }
            if l == b_owner && b_bytes > 0 {
                for peer in grid.col_locales(c) {
                    if peer != l {
                        dctx.comm.bulk(PHASE_BCAST, g, layer * p + peer, 1, b_bytes)?;
                    }
                }
            }
            bcast_profile.counters_mut(PHASE_BCAST).bytes_moved += a_bytes + b_bytes;
            if slice.nnz() == 0 || b_nnz == 0 {
                continue;
            }
            // Local multiply with the stage's density-adaptive kernel
            // (slice column `k` is B's local row `k - alo + blo`), masked
            // by the locale's mask block, which covers exactly its
            // stationary C block; then add the partial into the block.
            let cnt = local_profile.counters_mut(PHASE_LOCAL);
            let mut acc = RowAccum::checkout(decisions[s][l], q_l, ring.zero(), &lctx);
            let shift = blo.wrapping_sub(alo);
            let (b_blk, m_blk) = (b.block(b_owner), mask.map(|m| m.block(l)));
            let (cols, vals) = slice.entries();
            partial.reset(0);
            for &(i, start, end) in slice.rows() {
                partial.pad_rows(i);
                let mrow = m_blk.map(|m| m.row(i).0);
                let (kc, kv) = (&cols[start..end], &vals[start..end]);
                acc.multiply_row(kc, kv, shift, b_blk, ring, mrow, &mut partial, cnt);
                partial.end_row();
            }
            partial.pad_rows(m_l);
            add_into(m_l, lctx.threads(), &mut cur, &mut partial, &mut next, &ring.add, cnt);
        }
        *c_block = CsrBuf::concat(m_l, q_l, [&mut *cur])?;
        Ok(())
    })?;

    // 3-D merge: binomial-tree allreduce of the layers' partial C blocks
    // into layer 0. Driver-side (the rounds are inherently sequential);
    // compute is charged to the receiving locale, sends are logged from
    // the sending layer's locale.
    let mut merge_profiles: Vec<Profile> = vec![Profile::default(); total];
    if layers > 1 {
        let mut half = 1usize;
        while half < layers {
            for j in (0..layers).step_by(2 * half) {
                let src_layer = j + half;
                if src_layer >= layers {
                    continue;
                }
                for l in 0..p {
                    let src = src_layer * p + l;
                    let dst = j * p + l;
                    let (rows, cols) = (state[src].0.nrows(), state[src].0.ncols());
                    let partial =
                        std::mem::replace(&mut state[src].0, CsrMatrix::empty(rows, cols));
                    let nzr = (0..partial.nrows()).filter(|&i| partial.row_nnz(i) > 0).count();
                    let bytes =
                        dcsc::slice_wire_bytes(nzr, partial.nnz(), std::mem::size_of::<C>());
                    dctx.comm.bulk(PHASE_MERGE, src, dst, 1, bytes)?;
                    let mc = merge_profiles[dst].counters_mut(PHASE_MERGE);
                    mc.elems += partial.nrows() as u64; // payload sizing scan
                    mc.bytes_moved += bytes;
                    let lctx = dctx.locale_ctx_for(l);
                    let cur = std::mem::replace(&mut state[dst].0, CsrMatrix::empty(0, 0));
                    state[dst].0 = add_blocks(cur, partial, &ring.add, &lctx, mc)?;
                }
            }
            half *= 2;
        }
    }

    let (mut c_blocks, (local_profiles, bcast_profiles)): (Vec<_>, (Vec<_>, Vec<_>)) =
        state.into_iter().map(|(blk, local, bcast)| (blk, (local, bcast))).unzip();
    c_blocks.truncate(p); // layer 0 holds the merged product

    let c = DistCsrMatrix::from_blocks(a.nrows(), b.ncols(), grid, c_blocks)?;
    let mut trace = dctx.op("mxm_dist");
    trace
        .attr("algo", if layers > 1 { "summa3d" } else { "summa2d" })
        .attr("stages", stages)
        .attr("grid", format_args!("{}x{}", grid.pr(), grid.pc()))
        .nnz((a.nnz() + b.nnz()) as u64)
        .sched(sched_outcome);
    if layers > 1 {
        trace.attr("layers", layers);
    }
    if mask.is_some() {
        trace.attr("masked", true);
    }
    // Two coforalls for the whole multiply — format preparation and the
    // fused stage pipeline (whose trailing barrier also covers the 3-D
    // merge rounds, which are point-to-point between already-live
    // tasks). The legacy single-stage path spawns per stage instead.
    trace.spawn(PHASE_EXTRACT, 1);
    trace.spawn(PHASE_BCAST, 1);
    trace.compute(PHASE_EXTRACT, &extract_profiles);
    trace.compute(PHASE_BCAST, &bcast_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    if layers > 1 {
        trace.compute(PHASE_MERGE, &merge_profiles);
    }
    let mut report = trace.finish();
    report.merge(&select_report);
    Ok((c, report))
}

/// `dst .+ src` for one locale's blocks through the shared row merge
/// ([`add_into`], charged to `c` under `lctx`'s thread count).
fn add_blocks<C, AddM>(
    dst: CsrMatrix<C>,
    src: CsrMatrix<C>,
    add: &AddM,
    lctx: &ExecCtx,
    c: &mut Counters,
) -> Result<CsrMatrix<C>>
where
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
{
    let (rows, cols) = (dst.nrows(), dst.ncols());
    let buf = |m: CsrMatrix<C>| {
        let (_, _, rowptr, colidx, values) = m.into_raw_parts();
        CsrBuf { rowptr, colidx, values }
    };
    let (mut acc, mut part) = (buf(dst), buf(src));
    add_into(rows, lctx.threads(), &mut acc, &mut part, &mut lctx.ws_scratch(), add, c);
    CsrBuf::concat(rows, cols, [&mut acc])
}

/// The legacy single-stage-per-block sparse SUMMA (square grids): whole
/// CSR blocks on the wire, shared-memory Gustavson per stage. Kept as the
/// measured baseline for the `--fig spgemm` sweep; its broadcast bytes
/// now honestly include the `(rows+1)`-word row-pointer array that
/// dominates in the hypersparse regime.
fn single_stage<A, B, C, AddM, MulOp, M>(
    a: &DistCsrMatrix<A>,
    b: &DistCsrMatrix<B>,
    ring: &Semiring<AddM, MulOp>,
    mask: Option<&DistCsrMatrix<M>>,
    dctx: &DistCtx,
) -> Result<(DistCsrMatrix<C>, SimReport)>
where
    A: Copy + Send + Sync + 'static,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    M: Copy + Send + Sync,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    let grid = a.grid();
    let p = grid.locales();
    let stages = grid.pc();
    let a_elem = std::mem::size_of::<A>();
    let b_elem = std::mem::size_of::<B>();

    let mut state: Vec<(CsrMatrix<C>, Profile, Profile)> = (0..p)
        .map(|l| {
            let rows = a.row_range(l).len();
            let cols = b.col_range(l).len();
            (CsrMatrix::empty(rows, cols), Profile::default(), Profile::default())
        })
        .collect();

    for k in 0..stages {
        dctx.for_each_locale_state(&mut state, |l, (c_block, local_profile, bcast_profile)| {
            let (r, c) = grid.coords(l);
            let a_owner = grid.locale(r, k);
            let a_blk = a.block(a_owner);
            let b_owner = grid.locale(k, c);
            let b_blk = b.block(b_owner);
            let a_bytes = dcsc::csr_wire_bytes(a_blk.nrows(), a_blk.nnz(), a_elem);
            let b_bytes = dcsc::csr_wire_bytes(b_blk.nrows(), b_blk.nnz(), b_elem);
            if l == a_owner {
                for peer in grid.row_locales(r) {
                    if peer != l {
                        dctx.comm.bulk(PHASE_BCAST, l, peer, 1, a_bytes)?;
                    }
                }
            }
            if l == b_owner {
                for peer in grid.col_locales(c) {
                    if peer != l {
                        dctx.comm.bulk(PHASE_BCAST, l, peer, 1, b_bytes)?;
                    }
                }
            }
            bcast_profile.counters_mut(PHASE_BCAST).bytes_moved += a_bytes + b_bytes;
            let lctx = dctx.locale_ctx_for(l);
            let partial: CsrMatrix<C> = gblas_core::ops::mxm::mxm::<_, _, C, _, _, M>(
                a_blk,
                b_blk,
                ring,
                mask.map(|m| m.block(l)),
                &lctx,
            )?;
            let folded = local_profile.counters_mut(PHASE_LOCAL);
            folded.merge(&lctx.take_profile().total());
            let cur = std::mem::replace(c_block, CsrMatrix::empty(0, 0));
            *c_block = add_blocks(cur, partial, &ring.add, &lctx, folded)?;
            Ok(())
        })?;
    }

    let (c_blocks, (local_profiles, bcast_profiles)): (Vec<_>, (Vec<_>, Vec<_>)) =
        state.into_iter().map(|(blk, local, bcast)| (blk, (local, bcast))).unzip();

    let c = DistCsrMatrix::from_blocks(a.nrows(), b.ncols(), grid, c_blocks)?;
    let mut trace = dctx.op("mxm_dist");
    trace
        .attr("algo", "single")
        .attr("stages", stages)
        .attr("grid", format_args!("{}x{}", grid.pr(), grid.pc()))
        .nnz((a.nnz() + b.nnz()) as u64);
    if mask.is_some() {
        trace.attr("masked", true);
    }
    trace.spawn(PHASE_BCAST, stages);
    trace.compute(PHASE_BCAST, &bcast_profiles);
    trace.compute(PHASE_LOCAL, &local_profiles);
    Ok((c, trace.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use gblas_core::algebra::semirings;
    use gblas_core::gen;
    use gblas_sim::MachineConfig;

    #[test]
    fn matches_shared_memory_spgemm_at_every_square_grid() {
        let a = gen::erdos_renyi(90, 4, 221);
        let b = gen::erdos_renyi(90, 4, 222);
        let ctx = gblas_core::par::ExecCtx::serial();
        let expect = gblas_core::ops::mxm::mxm::<_, _, f64, _, _, bool>(
            &a,
            &b,
            &semirings::plus_times_f64(),
            None,
            &ctx,
        )
        .unwrap();
        for s in [1usize, 2, 3] {
            let grid = ProcGrid::new(s, s);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let db = DistCsrMatrix::from_global(&b, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(p, 24));
            let (dc, report) = mxm_dist(&da, &db, &semirings::plus_times_f64(), &dctx).unwrap();
            let got = dc.to_global().unwrap();
            assert_eq!(got.rowptr(), expect.rowptr(), "grid {s}x{s}");
            assert_eq!(got.colidx(), expect.colidx(), "grid {s}x{s}");
            for (x, y) in got.values().iter().zip(expect.values()) {
                assert!((x - y).abs() < 1e-9, "grid {s}x{s}");
            }
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn rectangular_grids_match_shared_exactly_on_integer_rings() {
        // u64 plus-times: addition is associative, so every grid shape and
        // stage blocking must produce bit-identical results
        let af = gen::erdos_renyi(77, 4, 231);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 3u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let expect: CsrMatrix<u64> =
            gblas_core::ops::mxm::mxm::<_, _, u64, _, _, bool>(&a, &a, &ring, None, &ctx).unwrap();
        for (pr, pc) in [(1usize, 2usize), (2, 1), (2, 3), (3, 2), (1, 4), (4, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dc, report) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
            assert_eq!(dc.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn masked_mixed_type_summa_matches_shared() {
        // the triangle-counting shape: C⟨L⟩ = L · Lᵀ over plus-pair,
        // f64 operands producing u64 counts — exact, so rectangular grids
        // are held to bit-identity too
        let a = gen::erdos_renyi_symmetric(80, 5, 225);
        let ctx = gblas_core::par::ExecCtx::serial();
        let l = gblas_core::ops::select::tril(&a, &ctx);
        let u = gblas_core::ops::transpose::transpose(&l, &ctx).unwrap();
        let ring = semirings::plus_pair();
        let expect: gblas_core::container::CsrMatrix<u64> =
            gblas_core::ops::mxm::mxm(&l, &u, &ring, Some(&l), &ctx).unwrap();
        for (pr, pc) in [(1usize, 1usize), (2, 2), (3, 3), (2, 3), (3, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let dl = DistCsrMatrix::from_global(&l, grid);
            let du = DistCsrMatrix::from_global(&u, grid);
            let dctx = DistCtx::new(MachineConfig::edison_cluster(grid.locales(), 24));
            let (dc, report) =
                mxm_dist_masked::<_, _, u64, _, _, f64>(&dl, &du, &ring, Some(&dl), &dctx).unwrap();
            assert_eq!(dc.to_global().unwrap(), expect, "grid {pr}x{pc}");
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn single_stage_baseline_matches_summa2d() {
        let af = gen::erdos_renyi(64, 4, 233);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 2u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (c_single, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Single,
            &dctx,
        )
        .unwrap();
        let (c_multi, _) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
        assert_eq!(c_single.to_global().unwrap(), c_multi.to_global().unwrap());
        // single still refuses rectangular grids
        let dr = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 4));
        assert!(mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &dr,
            &dr,
            &ring,
            None,
            MxmAlgo::Single,
            &dctx
        )
        .is_err());
    }

    #[test]
    fn summa3d_matches_2d_and_prices_merge() {
        let af = gen::erdos_renyi(60, 4, 235);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 1u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx2 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let (c2, _) = mxm_dist(&da, &da, &ring, &dctx2).unwrap();
        // 2x2 grid x 2 layers = 8 machine locales
        let dctx3 = DistCtx::new(MachineConfig::edison_cluster(8, 24));
        let (c3, r3) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 2 },
            &dctx3,
        )
        .unwrap();
        assert_eq!(c3.to_global().unwrap(), c2.to_global().unwrap());
        assert!(r3.phase(PHASE_MERGE) > 0.0, "allreduce merge must be priced");
        assert!(r3.phase(PHASE_REPLICATE) > 0.0, "replication must be priced");
        // derived layer count (layers: 0) resolves from the machine size
        let (c3b, _) = mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 0 },
            &dctx3,
        )
        .unwrap();
        assert_eq!(c3b.to_global().unwrap(), c2.to_global().unwrap());
        // mismatched machine/layer product is an error
        assert!(mxm_dist_masked_with::<_, _, u64, _, _, bool>(
            &da,
            &da,
            &ring,
            None,
            MxmAlgo::Summa3d { layers: 3 },
            &dctx3
        )
        .is_err());
    }

    #[test]
    fn masked_summa_validates_mask_shape() {
        let a = gen::erdos_renyi(40, 3, 226);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        // mask on a different grid
        let m1 = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 1));
        assert!(mxm_dist_masked::<_, _, f64, _, _, f64>(
            &da,
            &da,
            &semirings::plus_times_f64(),
            Some(&m1),
            &dctx
        )
        .is_err());
        // mask with the wrong shape
        let small = gen::erdos_renyi(39, 3, 227);
        let m2 = DistCsrMatrix::from_global(&small, grid);
        assert!(mxm_dist_masked::<_, _, f64, _, _, f64>(
            &da,
            &da,
            &semirings::plus_times_f64(),
            Some(&m2),
            &dctx
        )
        .is_err());
    }

    #[test]
    fn accepts_rectangular_grids_and_rejects_mismatches() {
        let a = gen::erdos_renyi(40, 3, 223);
        let dctx4 = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        // rectangular grids are first-class now
        let g_rect = ProcGrid::new(1, 4);
        let da = DistCsrMatrix::from_global(&a, g_rect);
        assert!(mxm_dist(&da, &da, &semirings::plus_times_f64(), &dctx4).is_ok());
        // grid mismatch between the operands is still rejected
        let g2 = ProcGrid::new(2, 2);
        let da2 = DistCsrMatrix::from_global(&a, g2);
        let da1 = DistCsrMatrix::from_global(&a, ProcGrid::new(1, 1));
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        assert!(mxm_dist(&da2, &da1, &semirings::plus_times_f64(), &dctx).is_err());
        // and so is a machine/grid size mismatch
        let dctx6 = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        assert!(mxm_dist(&da2, &da2, &semirings::plus_times_f64(), &dctx6).is_err());
    }

    #[test]
    fn broadcast_volume_is_bounded_by_stages() {
        let a = gen::erdos_renyi(60, 4, 224);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let db = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(4, 24));
        let _ = mxm_dist(&da, &db, &semirings::plus_times_f64(), &dctx).unwrap();
        let (fine, bulk, _) = dctx.comm.totals();
        assert_eq!(fine, 0, "SUMMA is all-bulk");
        // per stage: each locale receives at most 2 remote slices;
        // 2 stages x 4 locales x 2 = 16 upper bound (diagonal owners skip)
        assert!((4..=16).contains(&bulk), "bulk = {bulk}");
    }

    #[test]
    fn iterative_callers_replay_the_stage_plan() {
        let af = gen::erdos_renyi(50, 4, 237);
        let ctx = gblas_core::par::ExecCtx::serial();
        let a = gblas_core::ops::apply::map_mat(&af, &|_, _, _: f64| 1u64, &ctx);
        let ring = semirings::plus_times::<u64>();
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(MachineConfig::edison_cluster(6, 24));
        let (c1, _) = mxm_dist(&da, &da, &ring, &dctx).unwrap();
        let before = dctx.metrics().snapshot();
        // a *fresh* matrix of the same shape (new generation) still
        // replays: the plan is shape-keyed, not content-keyed
        let (_, _) = mxm_dist(&c1, &c1, &ring, &dctx).unwrap();
        let after = dctx.metrics().snapshot();
        assert_eq!(after.sched_replays, before.sched_replays + 1, "expected a plan replay");
        assert_eq!(after.sched_builds, before.sched_builds);
    }

    #[test]
    fn auto_layer_count_follows_cbrt_rule() {
        assert_eq!(auto_layers(1), 1);
        assert_eq!(auto_layers(4), 1);
        assert_eq!(auto_layers(8), 2);
        assert_eq!(auto_layers(16), 2);
        assert_eq!(auto_layers(64), 4);
        assert_eq!(auto_layers(256), 4);
        assert_eq!(MxmAlgo::parse("2d"), Some(MxmAlgo::Summa2d));
        assert_eq!(MxmAlgo::parse("3d"), Some(MxmAlgo::Summa3d { layers: 0 }));
        assert_eq!(MxmAlgo::parse("single"), Some(MxmAlgo::Single));
        assert_eq!(MxmAlgo::parse("4d"), None);
    }
}
