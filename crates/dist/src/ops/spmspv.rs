//! Distributed `SpMSpV` (§III-D, Listing 8, Figs 8–9) — one engine for
//! one source and for a batch of `k`.
//!
//! `y_s ← x_s A` for `k` frontiers `x_s` on a 2-D block-distributed
//! matrix, in the paper's three steps, each a separately-timed component:
//!
//! 1. **`gather`** — every locale `(r, c)` collects the pieces of every
//!    `x_s` owned by the locales of its processor *row* `r` (those blocks
//!    cover exactly its row range). Listing 8 copies the remote indices
//!    element-at-a-time (`lxDom._value.indices[di] = si` over a remote
//!    iterator), which [`CommStrategy::Fine`] reproduces as fine-grained
//!    traffic; [`CommStrategy::Bulk`] fuses each remote row peer's slices
//!    of all `k` frontiers into one message — the §IV
//!    "bulk-synchronous communication" remedy.
//! 2. **`local`** — each locale runs the shared-memory SpMSpV
//!    ([`gblas_core::ops::spmspv`]) on its block, once per source. This is
//!    the part the paper observes scaling well ("up to 43×"), and running
//!    the single-source kernel per source is what makes slot `s` of a
//!    batch bit-identical to a solo run from `x_s`.
//! 3. **`scatter`** — local results are written into a *global SPA*: a
//!    dense Block-distributed `isthere`/value pair. Listing 8 writes one
//!    remote atomic per output element (fine-grained again); the bulk
//!    variant aggregates per destination locale. Under the SPMD executor
//!    this runs as two supersteps: every source locale builds one outbox
//!    per owning locale, claims grouped by ascending slot (and logs its
//!    own traffic), then every owner drains its inboxes — in source-locale
//!    order, so first-writer-wins and floating-point accumulation resolve
//!    exactly as a serial sweep would — into its *own* dense segment and
//!    builds its output shards from it (`denseToSparse`).
//!
//! [`spmspv_dist_batch`] is the engine; single-source SpMSpV is its
//! `k = 1` batch (`std::slice::from_ref(x)`). An [`Accumulate`] picks
//! what lands in an output entry: [`FirstVisitor`] stores the **global
//! row id** of the first visitor (the BFS parent vector), a
//! [`Semiring`] folds products with its add monoid.

use crate::exec::{DistCtx, PooledOutboxes};
use crate::grid::BlockDist;
use crate::mat::DistCsrMatrix;
use crate::sched::{FrontierClass, GatherPlan, PlanData};
use crate::vec::DistSparseVec;
use gblas_core::algebra::{BinaryOp, Monoid, Semiring};
use gblas_core::container::{CsrMatrix, SparseVec};
use gblas_core::error::{check_dims, GblasError, Result};
use gblas_core::ops::spmspv::{spmspv_first_visitor, spmspv_semiring_masked, SpMSpVOpts};
use gblas_core::par::{Counters, ExecCtx, Profile};
use gblas_sim::SimReport;

/// Phase: gather `x` along the processor row.
pub const PHASE_GATHER: &str = "gather";
/// Phase: local multiply.
pub const PHASE_LOCAL: &str = "local";
/// Phase: scatter the output across processor columns.
pub const PHASE_SCATTER: &str = "scatter";

/// Communication aggregation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommStrategy {
    /// Element-at-a-time remote access — Listing 8 as written.
    #[default]
    Fine,
    /// Aggregated communication (§IV's recommendation): the gather sends
    /// one fused message per (locale, remote row peer) carrying every
    /// source's slice, priced by actual payload width, and the scatter
    /// sends one block per pair.
    Bulk,
}

/// A mask over the *output* columns of the distributed SpMSpV — the
/// paper's §V future work ("efficient implementations of novel concepts
/// in GraphBLAS, such as masks, have not been attempted in distributed
/// memory before"), implemented here.
///
/// The mask is a dense boolean vector distributed with the same block
/// layout as the output, so each mask bit lives on the locale that owns
/// the corresponding output entry: masking is enforced *scatter-side*, at
/// the owner, with a local lookup. Suppressed entries still pay their
/// scatter message — the claim has to reach the owner to be rejected —
/// which is exactly the cost structure a real distributed mask has.
#[derive(Debug, Clone, Copy)]
pub struct DistMask<'a> {
    /// The mask bits, block-distributed like the output.
    pub bits: &'a crate::vec::DistDenseVec<bool>,
    /// GraphBLAS `GrB_COMP`: allow where the bit is *false*.
    pub complement: bool,
}

impl<'a> DistMask<'a> {
    /// Allow output entries where the bit is `true`.
    pub fn new(bits: &'a crate::vec::DistDenseVec<bool>) -> Self {
        DistMask { bits, complement: false }
    }

    /// Allow output entries where the bit is `false` (e.g. BFS's
    /// "not yet visited").
    pub fn complement(bits: &'a crate::vec::DistDenseVec<bool>) -> Self {
        DistMask { bits, complement: true }
    }
}

/// How the products landing on one output entry combine — the `accum`
/// of a GraphBLAS `vxm`. `T` is the matrix type, `V` the frontier type,
/// `C` the output type.
pub trait Accumulate<T, V, C>: Sync {
    /// Op span name of a single-source call.
    const OP: &'static str;
    /// Op span name of a batch (`k ≠ 1`).
    const BATCH_OP: &'static str;

    /// Multiply one locale's block by one gathered frontier slice (local
    /// row coordinates); returns `(global column, value)` claims.
    fn local(
        &self,
        block: &CsrMatrix<T>,
        lx: &SparseVec<V>,
        origin: (usize, usize),
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<Vec<(usize, C)>>;

    /// The fill of an empty output entry.
    fn zero(&self) -> C;

    /// Fold a later claim `v` into an occupied entry.
    fn merge(&self, acc: &mut C, v: C, c: &mut Counters);
}

/// First-visitor accumulation: an output entry keeps the global row id of
/// the first claim that reaches it (Listing 8's parent vector); frontier
/// values are never read.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstVisitor;

impl<T: Copy + Send + Sync, V: Copy + Send + Sync> Accumulate<T, V, usize> for FirstVisitor {
    const OP: &'static str = "spmspv_dist";
    const BATCH_OP: &'static str = "expand_dist_first_visitor";

    fn local(
        &self,
        block: &CsrMatrix<T>,
        lx: &SparseVec<V>,
        (row0, col0): (usize, usize),
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<Vec<(usize, usize)>> {
        let ly = spmspv_first_visitor(block, lx, None, opts, ctx)?;
        Ok(ly.iter().map(|(lj, &lrid)| (lj + col0, lrid + row0)).collect())
    }

    fn zero(&self) -> usize {
        0
    }

    fn merge(&self, _acc: &mut usize, _v: usize, _c: &mut Counters) {}
}

/// Semiring accumulation: `y[j] = ⊕_i x[i] ⊗ A[i,j]`, contributions from
/// different grid rows combined with the add monoid *at the owning
/// locale*. This is what distributed SSSP needs (min-plus).
impl<A, B, C, AddM, MulOp> Accumulate<B, A, C> for Semiring<AddM, MulOp>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    C: Copy + Send + Sync + 'static,
    AddM: Monoid<C>,
    MulOp: BinaryOp<A, B, C>,
{
    const OP: &'static str = "spmspv_dist_semiring";
    const BATCH_OP: &'static str = "expand_dist_semiring";

    fn local(
        &self,
        block: &CsrMatrix<B>,
        lx: &SparseVec<A>,
        (_, col0): (usize, usize),
        opts: SpMSpVOpts,
        ctx: &ExecCtx,
    ) -> Result<Vec<(usize, C)>> {
        let ly = spmspv_semiring_masked(block, lx, self, None, opts, ctx)?.vector;
        Ok(ly.iter().map(|(lj, &v)| (lj + col0, v)).collect())
    }

    fn zero(&self) -> C {
        self.add.identity()
    }

    fn merge(&self, acc: &mut C, v: C, c: &mut Counters) {
        *acc = self.accumulate(*acc, v);
        c.flops += 1;
    }
}

/// Gather every locale's row-block slices of all `k` frontiers from its
/// processor row, executing from a compiled [`GatherPlan`] (the
/// *executor* half of the inspector–executor split — the plan may be
/// freshly built or replayed from the [`crate::ScheduleCache`]; either way
/// this runs the same code, so replay is bit-invisible). One superstep
/// under either strategy; returns per-locale gather [`Profile`]s and, per
/// locale, the `k` assembled local vectors (local row coordinates,
/// capacity `row_range.len().max(1)`).
///
/// * [`CommStrategy::Fine`] — Listing 8 as written: each locale walks its
///   row peers' shards element-at-a-time, two dependent remote accesses
///   per nonzero, summed over the `k` sources. This is the differential
///   oracle the figures plot blowing up (Figs 8–9).
/// * [`CommStrategy::Bulk`] — one fused message per (locale, remote row
///   peer) carrying that peer's slices of all `k` frontiers, priced from
///   the actual payload width. The pattern is static — every row peer
///   always needs the whole slice — so no request round is needed, and an
///   empty payload sends nothing. Latency α is paid at most once per
///   locale pair.
///
/// Either way ascending peer order concatenates sorted, by the block
/// alignment property.
#[allow(clippy::type_complexity)] // (per-locale profiles, per-locale k gathered slices)
fn gather_row_blocks<V>(
    plan: &GatherPlan,
    xs: &[DistSparseVec<V>],
    strategy: CommStrategy,
    elem_bytes: u64,
    dctx: &DistCtx,
) -> Result<(Vec<Profile>, Vec<Vec<SparseVec<V>>>)>
where
    V: Copy + Send + Sync + 'static,
{
    Ok(dctx
        .for_each_locale(|l| {
            let (rs, re) = plan.row_ranges[l];
            let gctx = dctx.locale_ctx_for(l);
            let mut inds: Vec<Vec<usize>> = xs.iter().map(|_| Vec::new()).collect();
            let mut vals: Vec<Vec<V>> = xs.iter().map(|_| Vec::new()).collect();
            for &src in &plan.row_peers[l] {
                if src != l {
                    let nnz: u64 = xs.iter().map(|x| x.shard(src).nnz() as u64).sum();
                    match strategy {
                        CommStrategy::Fine => dctx.comm.fine_dependent(
                            PHASE_GATHER,
                            l,
                            src,
                            2 * nnz,
                            nnz * elem_bytes,
                        )?,
                        CommStrategy::Bulk if nnz > 0 => {
                            dctx.comm.bulk(PHASE_GATHER, l, src, 1, nnz * elem_bytes)?
                        }
                        CommStrategy::Bulk => {}
                    }
                }
                for (s, x) in xs.iter().enumerate() {
                    let shard = x.shard(src);
                    inds[s].extend(shard.indices().iter().map(|&i| i - rs));
                    vals[s].extend_from_slice(shard.values());
                }
            }
            let total: u64 = inds.iter().map(|i| i.len() as u64).sum();
            gctx.record(PHASE_GATHER, |c| {
                c.elems += total;
                c.bytes_moved += total * elem_bytes;
            });
            let lxs = inds
                .into_iter()
                .zip(vals)
                .map(|(i, v)| {
                    SparseVec::from_sorted((re - rs).max(1), i, v)
                        .expect("row-ordered shards concatenate sorted")
                })
                .collect();
            Ok((gctx.take_profile(), lxs))
        })?
        .into_iter()
        .unzip())
}

/// Validate the operands of [`spmspv_dist_batch`].
fn check_operands<T, V>(
    a: &DistCsrMatrix<T>,
    xs: &[DistSparseVec<V>],
    masks: Option<&[DistMask<'_>]>,
    dctx: &DistCtx,
) -> Result<()>
where
    T: Copy + Send + Sync,
    V: Copy + Send + Sync + 'static,
{
    let p = a.grid().locales();
    for x in xs {
        check_dims("x capacity vs matrix rows", a.nrows(), x.capacity())?;
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
    if let Some(ms) = masks {
        check_dims("masks vs batch width", xs.len(), ms.len())?;
        for m in ms {
            check_dims("mask length vs matrix cols", a.ncols(), m.bits.len())?;
            if m.bits.locales() != p {
                return Err(GblasError::DimensionMismatch {
                    expected: format!("mask over {p} locales"),
                    actual: format!("mask over {} locales", m.bits.locales()),
                });
            }
        }
    }
    Ok(())
}

/// Listing 8 as written: fine-grained gather and scatter, first visitor.
pub fn spmspv_dist<T: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    single_first_visitor(a, x, CommStrategy::Fine, dctx)
}

/// The bulk-synchronous variant (ablation; §IV).
pub fn spmspv_dist_bulk<T: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<T>,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    single_first_visitor(a, x, CommStrategy::Bulk, dctx)
}

fn single_first_visitor<T: Copy + Send + Sync + 'static>(
    a: &DistCsrMatrix<T>,
    x: &DistSparseVec<T>,
    strategy: CommStrategy,
    dctx: &DistCtx,
) -> Result<(DistSparseVec<usize>, SimReport)> {
    let xs = std::slice::from_ref(x);
    let (mut ys, report) =
        spmspv_dist_batch(a, xs, None, &FirstVisitor, strategy, SpMSpVOpts::default(), dctx)?;
    Ok((ys.pop().expect("one frontier in, one vector out"), report))
}

/// The distributed SpMSpV engine: `y_s ← x_s A` for every frontier `x_s`
/// in `xs`, in one gather → local multiply → scatter sweep. Pass
/// `std::slice::from_ref(x)` for one source or
/// [`crate::DistFrontier::rows`] for a batch; every `k` runs the same
/// code, and slot `s` of the result is bit-identical to a `k = 1` call
/// on `x_s` alone.
///
/// * `masks` — optional per-source output masks (one per frontier),
///   enforced owner-side: a suppressed claim still pays its scatter
///   message, then the owning locale's bit rejects it.
/// * `accum` — [`FirstVisitor`] (BFS parents; the frontier's value type
///   is independent of the matrix type) or a [`Semiring`].
/// * `opts` — the local kernel's options. A `MergeStrategy::Auto` is
///   resolved once per call from the batch's *global* nnz, so every
///   locale and every slot runs the same merge and the span records it.
///
/// Under [`CommStrategy::Bulk`] the gather and the scatter each send at
/// most one message per locale pair for the whole batch — the
/// CombBLAS 2.0 multi-source sweep. A claim carries a slot tag (and pays
/// its bytes) only when `k > 1`.
pub fn spmspv_dist_batch<T, V, C, K>(
    a: &DistCsrMatrix<T>,
    xs: &[DistSparseVec<V>],
    masks: Option<&[DistMask<'_>]>,
    accum: &K,
    strategy: CommStrategy,
    opts: SpMSpVOpts,
    dctx: &DistCtx,
) -> Result<(Vec<DistSparseVec<C>>, SimReport)>
where
    T: Copy + Send + Sync,
    V: Copy + Send + Sync + 'static,
    C: Copy + Send + Sync + 'static,
    K: Accumulate<T, V, C>,
{
    check_operands(a, xs, masks, dctx)?;
    let k = xs.len();
    let nnz: usize = xs.iter().map(|x| x.nnz()).sum();
    let opts = opts.resolved(nnz);
    let grid = a.grid();
    let p = grid.locales();
    let n = a.ncols();
    let word = std::mem::size_of::<usize>();
    let elem_bytes = (word + std::mem::size_of::<V>()) as u64;
    // A claim carries the destination offset and the output value, plus
    // the source slot when there is more than one.
    let claim_bytes = (word + std::mem::size_of::<C>() + if k > 1 { word } else { 0 }) as u64;

    // ---- Inspect or replay the gather schedule (driver thread, before
    // any superstep). Keyed on the matrix generation — a rebuilt or
    // mutated matrix invalidates and re-inspects — and not on `k` or the
    // accumulation, so every SpMSpV over one matrix replays one plan.
    let (plan, sched) = dctx.schedule(
        "gather_rows",
        FrontierClass::Sparse,
        (grid.pr(), grid.pc()),
        a.generation(),
        0,
        || PlanData::Gather(GatherPlan::build(grid, |l| a.row_range(l))),
    );

    // ---- Gather superstep. All comm is logged by the task whose id is
    // the event's source locale, so the log's per-source order is
    // deterministic under the threaded executor.
    let (gather_profiles, lxs) = gather_row_blocks(plan.gather(), xs, strategy, elem_bytes, dctx)?;

    // ---- Local multiply superstep: the shared kernel once per source,
    // on locale `l`'s block, attached to its long-lived pool so the SPA is
    // reused across BFS levels instead of reallocated per call.
    let (local_profiles, local_results): (Vec<Profile>, Vec<_>) = dctx
        .for_each_locale(|l| {
            let row_range = a.row_range(l);
            let col_range = a.col_range(l);
            let lctx = dctx.locale_ctx_for(l);
            let per_source = lxs[l]
                .iter()
                .map(|lx| {
                    if row_range.is_empty() || col_range.is_empty() {
                        Ok(Vec::new())
                    } else {
                        let origin = (row_range.start, col_range.start);
                        accum.local(a.block(l), lx, origin, opts, &lctx)
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            Ok((lctx.take_profile(), per_source))
        })?
        .into_iter()
        .unzip();

    // ---- Scatter, send side: each source locale partitions its claims
    // into one outbox per owning locale — slot by slot, so each outbox
    // holds ascending-slot runs — and logs its own scatter traffic. Both
    // the per-destination buffers and the fan-out histogram come from the
    // locale pool and are reused superstep after superstep.
    let out_dist = BlockDist::new(n, p);
    let mut send_profiles: Vec<Profile> = Vec::with_capacity(p);
    let mut outboxes: PooledOutboxes<(usize, C)> = Vec::with_capacity(p);
    // run_ends[l][s * p + o]: where slot s's claims end in l's outbox[o].
    let mut run_ends: Vec<Vec<usize>> = Vec::with_capacity(p);
    for (profile, outbox, ends) in dctx.for_each_locale(|l| {
        let sctx = dctx.locale_ctx_for(l);
        let mut c = Counters::default();
        let mut outbox = sctx.ws_nested_vec::<(usize, C)>(p);
        let mut per_dst = sctx.ws_filled_vec::<u64>(p, 0);
        let mut ends = Vec::with_capacity(k * p);
        for claims in &local_results[l] {
            for &(col, v) in claims {
                let owner = out_dist.owner(col);
                if owner != l {
                    per_dst[owner] += 1;
                }
                c.atomics += 1; // the remote/local atomic test-and-set
                outbox[owner].push((col - out_dist.range(owner).start, v));
            }
            ends.extend(outbox.iter().map(Vec::len));
        }
        for (dst, &msgs) in per_dst.iter().enumerate() {
            if msgs > 0 {
                match strategy {
                    CommStrategy::Fine => {
                        dctx.comm.fine(PHASE_SCATTER, l, dst, msgs, msgs * claim_bytes)?
                    }
                    CommStrategy::Bulk => {
                        dctx.comm.bulk(PHASE_SCATTER, l, dst, 1, msgs * claim_bytes)?
                    }
                }
            }
        }
        sctx.record(PHASE_SCATTER, |pc| pc.merge(&c));
        Ok((sctx.take_profile(), outbox, ends))
    })? {
        send_profiles.push(profile);
        outboxes.push(outbox);
        run_ends.push(ends);
    }

    // ---- Scatter, owner side: per slot, each owner drains its inboxes'
    // slot runs into its *own* dense SPA segment — no cross-locale writes
    // — in ascending sender order, so first-writer-wins and the
    // floating-point accumulation order resolve exactly as the serial
    // schedule does. The mask bit lives with the output entry (§V future
    // work), so the check happens here, at the owner. Each slot finishes
    // with the owner's denseToSparse scan.
    let (apply_profiles, owner_shards): (Vec<Profile>, Vec<Vec<SparseVec<C>>>) = dctx
        .for_each_locale(|o| {
            let octx = dctx.locale_ctx_for(o);
            let range = out_dist.range(o);
            let mut c = Counters::default();
            let mut shards = Vec::with_capacity(k);
            for s in 0..k {
                let mut occupied = octx.ws_filled_vec::<bool>(range.len(), false);
                let mut value = octx.ws_filled_vec::<C>(range.len(), accum.zero());
                let mask = masks.map(|m| (m[s].bits.segment(o), m[s].complement));
                for (outbox, ends) in outboxes.iter().zip(&run_ends) {
                    let start = if s == 0 { 0 } else { ends[(s - 1) * p + o] };
                    for &(off, v) in &outbox[o][start..ends[s * p + o]] {
                        if let Some((bits, complement)) = mask {
                            c.rand_access += 1;
                            if bits[off] == complement {
                                continue;
                            }
                        }
                        if occupied[off] {
                            accum.merge(&mut value[off], v, &mut c);
                        } else {
                            occupied[off] = true;
                            value[off] = v;
                        }
                    }
                }
                let mut inds = Vec::new();
                let mut vals = Vec::new();
                for (off, &set) in occupied.iter().enumerate() {
                    if set {
                        inds.push(range.start + off);
                        vals.push(value[off]);
                    }
                }
                c.elems += range.len() as u64;
                shards.push(SparseVec::from_sorted(n, inds, vals)?);
            }
            octx.record(PHASE_SCATTER, |pc| pc.merge(&c));
            Ok((octx.take_profile(), shards))
        })?
        .into_iter()
        .unzip();
    // Each locale's scatter profile is its send-side work plus its
    // owner-side work (merged in that order).
    let mut scatter_profiles = send_profiles;
    for (l, apply) in apply_profiles.iter().enumerate() {
        for (name, cs) in apply.iter() {
            scatter_profiles[l].counters_mut(name).merge(cs);
        }
    }
    let mut per_slot: Vec<Vec<SparseVec<C>>> = (0..k).map(|_| Vec::with_capacity(p)).collect();
    for shards in owner_shards {
        for (slot, shard) in per_slot.iter_mut().zip(shards) {
            slot.push(shard);
        }
    }
    let ys = per_slot
        .into_iter()
        .map(|shards| DistSparseVec::from_shards(n, shards))
        .collect::<Result<Vec<_>>>()?;

    // ---- Assemble the report (and, when tracing, the span tree).
    let mut op = dctx.op(if k == 1 { K::OP } else { K::BATCH_OP });
    op.attr("strategy", strategy_name(strategy)).attr("merge", opts.merge.name());
    if k != 1 {
        op.attr("k", k);
    }
    op.attr("nrows", a.nrows()).attr("ncols", n);
    if masks.is_some() {
        op.attr("masked", true);
    }
    op.sched(sched).nnz(nnz as u64);
    op.spawn(PHASE_GATHER, 1);
    op.compute(PHASE_GATHER, &gather_profiles);
    op.compute_folded(PHASE_LOCAL, &local_profiles);
    op.compute(PHASE_SCATTER, &scatter_profiles);
    Ok((ys, op.finish()))
}

fn strategy_name(strategy: CommStrategy) -> &'static str {
    match strategy {
        CommStrategy::Fine => "fine",
        CommStrategy::Bulk => "bulk",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use crate::ops::expand::DistFrontier;
    use crate::vec::DistDenseVec;
    use gblas_core::algebra::semirings;
    use gblas_core::container::DenseVec;
    use gblas_core::gen;
    use gblas_core::ops::spmspv::{MergeStrategy, AUTO_BUCKET_MIN_NNZ};
    use gblas_sim::MachineConfig;

    fn machine_for(grid: ProcGrid) -> MachineConfig {
        MachineConfig::edison_cluster(grid.locales(), 24)
    }

    /// Shared-memory reference (serial first-visitor).
    fn reference(
        a: &gblas_core::container::CsrMatrix<f64>,
        x: &SparseVec<f64>,
    ) -> SparseVec<usize> {
        let ctx = gblas_core::par::ExecCtx::serial();
        spmspv_first_visitor(a, x, None, SpMSpVOpts::default(), &ctx).unwrap()
    }

    /// The engine's `k = 1` batch with default local options.
    fn one<T, V, C, K>(
        a: &DistCsrMatrix<T>,
        x: &DistSparseVec<V>,
        mask: Option<DistMask<'_>>,
        accum: &K,
        strategy: CommStrategy,
        dctx: &DistCtx,
    ) -> Result<(DistSparseVec<C>, SimReport)>
    where
        T: Copy + Send + Sync,
        V: Copy + Send + Sync + 'static,
        C: Copy + Send + Sync + 'static,
        K: Accumulate<T, V, C>,
    {
        let masks = mask.as_ref().map(std::slice::from_ref);
        let xs = std::slice::from_ref(x);
        let (mut ys, r) =
            spmspv_dist_batch(a, xs, masks, accum, strategy, SpMSpVOpts::default(), dctx)?;
        Ok((ys.pop().unwrap(), r))
    }

    fn gather_msgs(dctx: &DistCtx) -> u64 {
        dctx.comm.history().iter().filter(|e| e.phase == PHASE_GATHER).map(|e| e.msgs).sum()
    }

    #[test]
    fn reached_set_matches_reference_at_every_grid() {
        let n = 600;
        let a = gen::erdos_renyi(n, 6, 55);
        let x = gen::random_sparse_vec(n, 40, 56);
        let expect = reference(&a, &x);
        for (pr, pc) in [(1, 1), (1, 4), (2, 2), (4, 2), (3, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, grid.locales());
            let dctx = DistCtx::new(machine_for(grid));
            let (y, _) = spmspv_dist(&da, &dx, &dctx).unwrap();
            let yg = y.to_global();
            assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc}");
            // parents must be legitimate: x[parent] stored, A[parent, col] stored
            for (col, &rid) in yg.iter() {
                assert!(x.get(rid).is_some(), "grid {pr}x{pc}: parent {rid} not in frontier");
                assert!(a.get(rid, col).is_some(), "grid {pr}x{pc}: A[{rid},{col}] missing");
            }
        }
    }

    #[test]
    fn bulk_variant_same_result_fewer_messages() {
        let n = 500;
        let a = gen::erdos_renyi(n, 8, 65);
        let x = gen::random_sparse_vec(n, 50, 66);
        let grid = ProcGrid::new(2, 4);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 8);

        let d_fine = DistCtx::new(machine_for(grid));
        let (y_fine, r_fine) = spmspv_dist(&da, &dx, &d_fine).unwrap();
        let d_bulk = DistCtx::new(machine_for(grid));
        d_bulk.comm.record_history();
        let (y_bulk, r_bulk) = spmspv_dist_bulk(&da, &dx, &d_bulk).unwrap();

        assert_eq!(y_fine.to_global().indices(), y_bulk.to_global().indices());
        let (fine_msgs, _, _) = d_fine.comm.totals();
        let (_, bulk_msgs, _) = d_bulk.comm.totals();
        assert!(fine_msgs > 5 * bulk_msgs, "{fine_msgs} fine vs {bulk_msgs} bulk");
        // Aggregation guarantee: each locale sends at most one gather
        // message per remote row peer, in one superstep.
        let p = grid.locales();
        let peers = grid.pc() - 1;
        let gather = gather_msgs(&d_bulk);
        assert!(gather <= (p * peers) as u64, "{gather} gather msgs > {p} locales x {peers} peers");
        // and the simulated comm time reflects it
        let fine_comm = r_fine.phase(PHASE_GATHER) + r_fine.phase(PHASE_SCATTER);
        let bulk_comm = r_bulk.phase(PHASE_GATHER) + r_bulk.phase(PHASE_SCATTER);
        assert!(fine_comm > bulk_comm, "{fine_comm} vs {bulk_comm}");
    }

    #[test]
    fn report_has_three_components() {
        let a = gen::erdos_renyi(300, 5, 75);
        let x = gen::random_sparse_vec(300, 30, 76);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        let (_, r) = spmspv_dist(
            &DistCsrMatrix::from_global(&a, grid),
            &DistSparseVec::from_global(&x, 4),
            &dctx,
        )
        .unwrap();
        for phase in [PHASE_GATHER, PHASE_LOCAL, PHASE_SCATTER] {
            assert!(r.phase(phase) > 0.0, "phase {phase} missing");
        }
    }

    #[test]
    fn fig9_shape_gather_dominates_at_scale_local_multiply_scales() {
        // n scaled down from the paper's 10M, same relative structure.
        let n = 20_000;
        let a = gen::erdos_renyi(n, 16, 85);
        let x = gen::random_sparse_vec(n, n / 50, 86); // f = 2%
        let run = |p: usize| {
            let grid = ProcGrid::square_for(p);
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dctx = DistCtx::new(machine_for(grid));
            let (_, r) = spmspv_dist(&da, &dx, &dctx).unwrap();
            r
        };
        let r1 = run(1);
        let r16 = run(16);
        // local multiply speeds up with nodes
        assert!(
            r16.phase(PHASE_LOCAL) < r1.phase(PHASE_LOCAL) / 2.0,
            "local: {} -> {}",
            r1.phase(PHASE_LOCAL),
            r16.phase(PHASE_LOCAL)
        );
        // gather grows enormously once data is remote
        assert!(
            r16.phase(PHASE_GATHER) > 10.0 * r1.phase(PHASE_GATHER),
            "gather: {} -> {}",
            r1.phase(PHASE_GATHER),
            r16.phase(PHASE_GATHER)
        );
        // and dominates the total
        assert!(r16.phase(PHASE_GATHER) > r16.phase(PHASE_LOCAL));
    }

    #[test]
    fn semiring_dist_matches_shared_semiring_at_every_grid() {
        let n = 500;
        let a = gen::erdos_renyi(n, 6, 145);
        let x = gen::random_sparse_vec(n, 35, 146);
        let ring = semirings::plus_times_f64();
        let expect = gblas_core::ops::spmspv::spmspv_semiring(
            &a,
            &x,
            &ring,
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap()
        .vector;
        for (pr, pc) in [(1, 1), (2, 2), (2, 3), (3, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let (y, report): (DistSparseVec<f64>, _) =
                    one(&da, &dx, None, &ring, strategy, &dctx).unwrap();
                let yg = y.to_global();
                assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc} {strategy:?}");
                for (got, want) in yg.values().iter().zip(expect.values()) {
                    assert!((got - want).abs() < 1e-9, "grid {pr}x{pc}");
                }
                assert!(report.total() > 0.0);
            }
        }
    }

    #[test]
    fn semiring_dist_min_plus_relaxation() {
        // one min-plus step on a weighted path graph, distributed
        let a = gblas_core::container::CsrMatrix::from_triplets(
            6,
            6,
            &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0)],
        )
        .unwrap();
        let x = SparseVec::from_sorted(6, vec![0, 1], vec![0.0, 2.0]).unwrap();
        let ring = semirings::min_plus();
        let grid = ProcGrid::new(2, 3);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 6);
        let dctx = DistCtx::new(machine_for(grid));
        let (y, _): (DistSparseVec<f64>, _) =
            one(&da, &dx, None, &ring, CommStrategy::Bulk, &dctx).unwrap();
        let yg = y.to_global();
        // y[1] = 0+2 = 2; y[2] = min(0+10, 2+3) = 5
        assert_eq!(yg.indices(), &[1, 2]);
        assert_eq!(yg.values(), &[2.0, 5.0]);
    }

    #[test]
    fn masked_spmspv_excludes_and_matches_shared_mask() {
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 125);
        let x = gen::random_sparse_vec(n, 30, 126);
        // mask: allow only columns not divisible by 3
        let bits = DenseVec::from_fn(n, |i| i % 3 == 0);
        // shared-memory reference with the complemented mask
        let shared_mask = gblas_core::mask::VecMask::dense(&bits).complement();
        let expect = spmspv_first_visitor(
            &a,
            &x,
            Some(&shared_mask),
            SpMSpVOpts::default(),
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap();
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dbits = DistDenseVec::from_global(&bits, p);
            let dctx = DistCtx::new(machine_for(grid));
            let mask = Some(DistMask::complement(&dbits));
            let (y, report) =
                one(&da, &dx, mask, &FirstVisitor, CommStrategy::Fine, &dctx).unwrap();
            let yg = y.to_global();
            assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc}");
            assert!(yg.indices().iter().all(|&j| j % 3 != 0));
            assert!(report.total() > 0.0);
        }
    }

    #[test]
    fn masked_semiring_matches_shared_masked_semiring() {
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 155);
        let x = gen::random_sparse_vec(n, 30, 156);
        let ring = semirings::plus_times_f64();
        let bits = DenseVec::from_fn(n, |i| i % 3 == 0);
        let shared_mask = gblas_core::mask::VecMask::dense(&bits).complement();
        let expect = gblas_core::ops::spmspv::spmspv_semiring_masked(
            &a,
            &x,
            &ring,
            Some(&shared_mask),
            SpMSpVOpts::default(),
            &gblas_core::par::ExecCtx::serial(),
        )
        .unwrap()
        .vector;
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let dx = DistSparseVec::from_global(&x, p);
            let dbits = DistDenseVec::from_global(&bits, p);
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let mask = Some(DistMask::complement(&dbits));
                let (y, report): (DistSparseVec<f64>, _) =
                    one(&da, &dx, mask, &ring, strategy, &dctx).unwrap();
                let yg = y.to_global();
                assert_eq!(yg.indices(), expect.indices(), "grid {pr}x{pc} {strategy:?}");
                assert!(yg.indices().iter().all(|&j| j % 3 != 0));
                for (got, want) in yg.values().iter().zip(expect.values()) {
                    assert!((got - want).abs() < 1e-9, "grid {pr}x{pc}");
                }
                assert!(report.total() > 0.0);
            }
        }
    }

    #[test]
    fn masked_spmspv_validates_mask_shape() {
        let a = gen::erdos_renyi(100, 4, 135);
        let x = gen::random_sparse_vec(100, 10, 136);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dx = DistSparseVec::from_global(&x, 4);
        let dctx = DistCtx::new(machine_for(grid));
        let run = |bits: &DistDenseVec<bool>| {
            one(&da, &dx, Some(DistMask::new(bits)), &FirstVisitor, CommStrategy::Fine, &dctx)
        };
        // wrong length
        assert!(run(&DistDenseVec::filled(99, true, 4)).is_err());
        // wrong locale count
        assert!(run(&DistDenseVec::filled(100, true, 2)).is_err());
    }

    #[test]
    fn dimension_and_locale_mismatches() {
        let a = gen::erdos_renyi(100, 4, 95);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let x_bad_cap = gen::random_sparse_vec(99, 5, 96);
        let dctx = DistCtx::new(machine_for(grid));
        assert!(spmspv_dist(&da, &DistSparseVec::from_global(&x_bad_cap, 4), &dctx).is_err());
        let x_bad_p = gen::random_sparse_vec(100, 5, 97);
        assert!(spmspv_dist(&da, &DistSparseVec::from_global(&x_bad_p, 2), &dctx).is_err());
    }

    #[test]
    fn comm_fault_propagates() {
        let a = gen::erdos_renyi(200, 5, 105);
        let x = gen::random_sparse_vec(200, 20, 106);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        dctx.comm.fail_after(0);
        let r = spmspv_dist(
            &DistCsrMatrix::from_global(&a, grid),
            &DistSparseVec::from_global(&x, 4),
            &dctx,
        );
        assert!(matches!(r, Err(GblasError::CommFailure(_))));
    }

    #[test]
    fn empty_frontier() {
        let a = gen::erdos_renyi(100, 4, 115);
        let grid = ProcGrid::new(2, 2);
        let dctx = DistCtx::new(machine_for(grid));
        let x = DistSparseVec::<f64>::empty(100, 4);
        let (y, _) = spmspv_dist(&DistCsrMatrix::from_global(&a, grid), &x, &dctx).unwrap();
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn batched_rows_match_single_source_dist_runs() {
        let n = 400;
        let a = gen::erdos_renyi(n, 6, 211);
        let sources = [0usize, 7, 7, 390];
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let f =
                DistFrontier::from_entries(n, sources.iter().map(|&s| vec![(s, s)]).collect(), p)
                    .unwrap();
            let visited: Vec<DistDenseVec<bool>> = sources
                .iter()
                .map(|&s| DistDenseVec::from_global(&DenseVec::from_fn(n, |i| i == s), p))
                .collect();
            let masks: Vec<DistMask> = visited.iter().map(DistMask::complement).collect();
            for strategy in [CommStrategy::Fine, CommStrategy::Bulk] {
                let dctx = DistCtx::new(machine_for(grid));
                let opts = SpMSpVOpts::default();
                let (batched, report) = spmspv_dist_batch(
                    &da,
                    f.rows(),
                    Some(&masks),
                    &FirstVisitor,
                    strategy,
                    opts,
                    &dctx,
                )
                .unwrap();
                assert!(report.total() > 0.0);
                for (s, x) in f.rows().iter().enumerate() {
                    let sctx = DistCtx::new(machine_for(grid));
                    let (single, _) =
                        one(&da, x, Some(masks[s]), &FirstVisitor, strategy, &sctx).unwrap();
                    assert_eq!(
                        batched[s].to_global(),
                        single.to_global(),
                        "grid {pr}x{pc} {strategy:?} slot {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_gather_pays_one_message_per_pair() {
        let n = 600;
        let a = gen::erdos_renyi(n, 6, 221);
        let grid = ProcGrid::new(2, 4);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&a, grid);
        let k = 8;
        let f = DistFrontier::from_entries(n, (0..k).map(|s| vec![(s * 50, s * 50)]).collect(), p)
            .unwrap();
        let dctx = DistCtx::new(machine_for(grid));
        dctx.comm.record_history();
        let opts = SpMSpVOpts::default();
        spmspv_dist_batch(&da, f.rows(), None, &FirstVisitor, CommStrategy::Bulk, opts, &dctx)
            .unwrap();
        // one fused message per (locale, remote row peer) pair, at most
        let peers = grid.pc() - 1;
        let gather = gather_msgs(&dctx);
        assert!(
            gather <= (p * peers) as u64,
            "{gather} gather msgs for {p} locales x {peers} peers"
        );
    }

    #[test]
    fn batched_semiring_rows_match_single_source_dist_runs() {
        let n = 300;
        let a = gen::erdos_renyi(n, 5, 231);
        let ring = semirings::min_plus();
        for (pr, pc) in [(1, 1), (2, 2)] {
            let grid = ProcGrid::new(pr, pc);
            let p = grid.locales();
            let da = DistCsrMatrix::from_global(&a, grid);
            let f =
                DistFrontier::from_entries(n, vec![vec![(0, 0.0)], vec![(100, 0.0)]], p).unwrap();
            let dctx = DistCtx::new(machine_for(grid));
            let opts = SpMSpVOpts::default();
            let (batched, _): (Vec<DistSparseVec<f64>>, _) =
                spmspv_dist_batch(&da, f.rows(), None, &ring, CommStrategy::Bulk, opts, &dctx)
                    .unwrap();
            for (s, x) in f.rows().iter().enumerate() {
                let sctx = DistCtx::new(machine_for(grid));
                let (single, _): (DistSparseVec<f64>, _) =
                    one(&da, x, None, &ring, CommStrategy::Bulk, &sctx).unwrap();
                assert_eq!(batched[s].to_global(), single.to_global(), "grid {pr}x{pc} slot {s}");
            }
        }
    }

    /// `MergeStrategy::Auto` resolves once per call from the batch's
    /// global nnz: one source above the threshold switches the whole
    /// batch to the bucketed merge — one `merge` attr, no sort work on any
    /// locale or slot — and every slot still equals its solo run.
    #[test]
    fn batched_auto_merge_resolves_once_from_the_batch_nnz() {
        let n = 2 * AUTO_BUCKET_MIN_NNZ;
        let a = gen::erdos_renyi(n, 3, 271);
        let grid = ProcGrid::new(2, 2);
        let p = grid.locales();
        let da = DistCsrMatrix::from_global(&a, grid);
        let big = gen::random_sparse_vec(n, AUTO_BUCKET_MIN_NNZ + 100, 272);
        let rows = vec![
            DistSparseVec::from_global(&big, p),
            DistSparseVec::from_global(&SparseVec::from_sorted(n, vec![5], vec![1.0]).unwrap(), p),
        ];
        let auto = SpMSpVOpts::with_merge(MergeStrategy::Auto);
        let mut dctx = DistCtx::new(machine_for(grid));
        let recorder = dctx.enable_tracing();
        let (batched, _) =
            spmspv_dist_batch(&da, &rows, None, &FirstVisitor, CommStrategy::Bulk, auto, &dctx)
                .unwrap();
        let trace = recorder.snapshot();
        let span = trace
            .spans
            .iter()
            .find(|s| {
                s.kind == gblas_core::trace::SpanKind::Op && s.name == "expand_dist_first_visitor"
            })
            .expect("batch op span");
        let merges: Vec<&str> =
            span.attrs.iter().filter(|(k, _)| k == "merge").map(|(_, v)| v.as_str()).collect();
        assert_eq!(merges, ["bucket"]);
        assert_eq!(span.counters.sort_elems, 0, "a slot or locale ran the sort merge");
        for (s, x) in rows.iter().enumerate() {
            let sctx = DistCtx::new(machine_for(grid));
            let xs = std::slice::from_ref(x);
            let (solo, _) =
                spmspv_dist_batch(&da, xs, None, &FirstVisitor, CommStrategy::Bulk, auto, &sctx)
                    .unwrap();
            assert_eq!(batched[s].to_global(), solo[0].to_global(), "slot {s}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gen::erdos_renyi(100, 4, 251);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        let xs: [DistSparseVec<usize>; 0] = [];
        let opts = SpMSpVOpts::default();
        let (ys, _) =
            spmspv_dist_batch(&da, &xs, Some(&[]), &FirstVisitor, CommStrategy::Bulk, opts, &dctx)
                .unwrap();
        assert!(ys.is_empty());
    }

    #[test]
    fn batch_shape_validation() {
        let a = gen::erdos_renyi(100, 4, 261);
        let grid = ProcGrid::new(2, 2);
        let da = DistCsrMatrix::from_global(&a, grid);
        let dctx = DistCtx::new(machine_for(grid));
        let bits = DistDenseVec::filled(100, false, 4);
        let m = [DistMask::complement(&bits)];
        let run = |f: &DistFrontier<usize>, masks: &[DistMask]| {
            let opts = SpMSpVOpts::default();
            spmspv_dist_batch(
                &da,
                f.rows(),
                Some(masks),
                &FirstVisitor,
                CommStrategy::Bulk,
                opts,
                &dctx,
            )
        };
        // wrong capacity
        let f = DistFrontier::from_entries(99, vec![vec![(0, 0usize)]], 4).unwrap();
        assert!(run(&f, &m).is_err());
        // mask count mismatch
        let f = DistFrontier::from_entries(100, vec![vec![(0, 0usize)]], 4).unwrap();
        assert!(run(&f, &[]).is_err());
        // wrong locale count
        let f2 = DistFrontier::from_entries(100, vec![vec![(0, 0usize)]], 2).unwrap();
        assert!(run(&f2, &m).is_err());
    }
}
