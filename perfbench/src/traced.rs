//! Tracing from outside the program: a [`GblasBackend`] wrapper that
//! times every op call into the backend it wraps.
//!
//! The graph drivers call the wrapper; the wrapper forwards each call to
//! the real backend and charges its host time (and, on the distributed
//! backend, its simulated time) to one op family. The drivers themselves
//! are unchanged, so what a traced call spends outside the wrapped ops is
//! the driver's own self time.

use gblas_core::algebra::{BinaryOp, ComMonoid, Monoid, Scalar, Semiring};
use gblas_core::backend::{GblasBackend, MaskSpec, SharedBackend};
use gblas_core::error::Result;
use gblas_core::ops::selection::{Decision, SelectionThresholds};
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::trace::MetricsSnapshot;
use gblas_core::workspace::WorkspaceStats;
use gblas_dist::DistBackend;
use gblas_sim::SimReport;
use std::cell::RefCell;
use std::time::Instant;

/// The op families the per-layer metrics are split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `spmspv_*`, `spmv`, `pull_first_visitor`.
    Spmspv,
    /// `expand_*`.
    Expand,
    /// `mxm_masked`, `spmm_dense`.
    Mxm,
    /// `mat_map`, `mat_select`.
    Ewise,
    /// `mat_transpose`.
    Transpose,
    /// `reduce_*`, `allreduce_scalar`, `record_decision`.
    Reduce,
    /// Dense, sparse, frontier and bitmap conversions and queries.
    Container,
}

impl Family {
    /// Every family, in metric order.
    pub const ALL: [Family; 7] = [
        Family::Spmspv,
        Family::Expand,
        Family::Mxm,
        Family::Ewise,
        Family::Transpose,
        Family::Reduce,
        Family::Container,
    ];

    /// The family's name in metric names (`{b}.op.{name}.ms`).
    pub fn name(self) -> &'static str {
        match self {
            Family::Spmspv => "spmspv",
            Family::Expand => "expand",
            Family::Mxm => "mxm",
            Family::Ewise => "ewise",
            Family::Transpose => "transpose",
            Family::Reduce => "reduce",
            Family::Container => "container",
        }
    }
}

/// Counters a backend keeps about itself, read before and after a call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Workspace-pool accounting (`gblas_core::workspace`).
    pub pool: WorkspaceStats,
    /// The distributed context's metrics registry (comm and schedule
    /// counters); `None` on the shared backend.
    pub dist: Option<MetricsSnapshot>,
}

/// What the benchmark reads from a backend besides its results.
pub trait Probe: GblasBackend {
    /// Simulated-time ledger accumulated since the last drain (empty on
    /// backends that keep none).
    fn drain_sim(&self) -> SimReport;
    /// The backend's own cumulative counters.
    fn counters(&self) -> Counters;
}

impl Probe for SharedBackend<'_> {
    fn drain_sim(&self) -> SimReport {
        SimReport::default()
    }

    fn counters(&self) -> Counters {
        Counters { pool: self.workspace_stats(), dist: None }
    }
}

impl Probe for DistBackend<'_> {
    fn drain_sim(&self) -> SimReport {
        self.take_report()
    }

    fn counters(&self) -> Counters {
        Counters { pool: self.workspace_stats(), dist: Some(self.dctx.metrics().snapshot()) }
    }
}

/// Calls, host time and simulated time charged to one family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FamilyStat {
    /// Op calls.
    pub calls: u64,
    /// Host nanoseconds inside those calls.
    pub ns: u64,
    /// Simulated seconds those calls priced.
    pub sim_s: f64,
}

/// Everything the wrapper charged since the last [`Traced::take`].
#[derive(Debug, Clone, Default)]
pub struct OpLedger {
    /// Per family, indexed like [`Family::ALL`].
    pub families: [FamilyStat; 7],
    /// The merged simulated-time ledger of every op.
    pub sim: SimReport,
}

/// A backend wrapper charging each op call to its [`Family`].
pub struct Traced<'b, B> {
    inner: &'b B,
    ledger: RefCell<OpLedger>,
}

impl<'b, B: Probe> Traced<'b, B> {
    /// Wrap `inner`.
    pub fn new(inner: &'b B) -> Self {
        Traced { inner, ledger: RefCell::new(OpLedger::default()) }
    }

    /// Drain the ledger.
    pub fn take(&self) -> OpLedger {
        std::mem::take(&mut self.ledger.borrow_mut())
    }

    /// Run one op on the wrapped backend and charge it to `family`. The
    /// simulated-ledger hand-off is part of the op's time.
    fn timed<R>(&self, family: Family, op: impl FnOnce(&B) -> R) -> R {
        let start = Instant::now();
        let out = op(self.inner);
        let sim = self.inner.drain_sim();
        let ns = start.elapsed().as_nanos() as u64;
        let mut ledger = self.ledger.borrow_mut();
        let stat = &mut ledger.families[family as usize];
        stat.calls += 1;
        stat.ns += ns;
        if sim.iter().next().is_some() {
            stat.sim_s += sim.total();
            ledger.sim.merge(&sim);
        }
        out
    }
}

impl<B: Probe> GblasBackend for Traced<'_, B> {
    type Matrix<T: Scalar> = B::Matrix<T>;
    type SparseVec<T: Scalar> = B::SparseVec<T>;
    type DenseVec<T: Scalar> = B::DenseVec<T>;
    type Frontier<T: Scalar> = B::Frontier<T>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mat_nrows<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize {
        self.timed(Family::Container, |b| b.mat_nrows(a))
    }

    fn mat_ncols<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize {
        self.timed(Family::Container, |b| b.mat_ncols(a))
    }

    fn mat_nnz<T: Scalar>(&self, a: &Self::Matrix<T>) -> usize {
        self.timed(Family::Container, |b| b.mat_nnz(a))
    }

    fn mat_map<T: Scalar, U: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        f: &(impl Fn(usize, usize, T) -> U + Sync),
    ) -> Result<Self::Matrix<U>> {
        self.timed(Family::Ewise, |b| b.mat_map(a, f))
    }

    fn mat_select<T: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        pred: &(impl Fn(usize, usize, T) -> bool + Sync),
    ) -> Result<Self::Matrix<T>> {
        self.timed(Family::Ewise, |b| b.mat_select(a, pred))
    }

    fn mat_transpose<T: Scalar>(&self, a: &Self::Matrix<T>) -> Result<Self::Matrix<T>> {
        self.timed(Family::Transpose, |b| b.mat_transpose(a))
    }

    fn mxm_masked<A, Bv, C, AddM, MulOp, M>(
        &self,
        a: &Self::Matrix<A>,
        bm: &Self::Matrix<Bv>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<&Self::Matrix<M>>,
    ) -> Result<Self::Matrix<C>>
    where
        A: Scalar,
        Bv: Scalar,
        C: Scalar,
        M: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, Bv, C>,
    {
        self.timed(Family::Mxm, |b| b.mxm_masked(a, bm, ring, mask))
    }

    fn reduce_rows<T: Scalar, M>(&self, a: &Self::Matrix<T>, monoid: &M) -> Result<Vec<T>>
    where
        M: Monoid<T>,
    {
        self.timed(Family::Reduce, |b| b.reduce_rows(a, monoid))
    }

    fn reduce_mat<T: Scalar, M>(&self, a: &Self::Matrix<T>, monoid: &M) -> Result<T>
    where
        M: ComMonoid<T>,
    {
        self.timed(Family::Reduce, |b| b.reduce_mat(a, monoid))
    }

    fn spmspv_first_visitor<T: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        x: &Self::SparseVec<usize>,
        mask: Option<MaskSpec<'_, Self::DenseVec<bool>>>,
        opts: SpMSpVOpts,
    ) -> Result<Self::SparseVec<usize>> {
        self.timed(Family::Spmspv, |b| b.spmspv_first_visitor(a, x, mask, opts))
    }

    fn spmspv_semiring<A, Bv, C, AddM, MulOp>(
        &self,
        a: &Self::Matrix<Bv>,
        x: &Self::SparseVec<A>,
        ring: &Semiring<AddM, MulOp>,
        mask: Option<MaskSpec<'_, Self::DenseVec<bool>>>,
        opts: SpMSpVOpts,
    ) -> Result<Self::SparseVec<C>>
    where
        A: Scalar,
        Bv: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, Bv, C>,
    {
        self.timed(Family::Spmspv, |b| b.spmspv_semiring(a, x, ring, mask, opts))
    }

    fn spmv<A, Bv, C, AddM, MulOp>(
        &self,
        a: &Self::Matrix<Bv>,
        x: &Self::DenseVec<A>,
        ring: &Semiring<AddM, MulOp>,
    ) -> Result<Self::DenseVec<C>>
    where
        A: Scalar,
        Bv: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, Bv, C>,
    {
        self.timed(Family::Spmspv, |b| b.spmv(a, x, ring))
    }

    fn frontier_from_entries<T: Scalar>(
        &self,
        capacity: usize,
        entries: Vec<Vec<(usize, T)>>,
    ) -> Result<Self::Frontier<T>> {
        self.timed(Family::Container, |b| b.frontier_from_entries(capacity, entries))
    }

    fn frontier_entries<T: Scalar>(&self, f: &Self::Frontier<T>) -> Vec<Vec<(usize, T)>> {
        self.timed(Family::Container, |b| b.frontier_entries(f))
    }

    fn frontier_nnz<T: Scalar>(&self, f: &Self::Frontier<T>) -> usize {
        self.timed(Family::Container, |b| b.frontier_nnz(f))
    }

    fn expand_first_visitor<T: Scalar>(
        &self,
        a: &Self::Matrix<T>,
        f: &Self::Frontier<usize>,
        visited: &[Self::DenseVec<bool>],
        opts: SpMSpVOpts,
    ) -> Result<Self::Frontier<usize>> {
        self.timed(Family::Expand, |b| b.expand_first_visitor(a, f, visited, opts))
    }

    fn expand_semiring<A, Bv, C, AddM, MulOp>(
        &self,
        a: &Self::Matrix<Bv>,
        f: &Self::Frontier<A>,
        ring: &Semiring<AddM, MulOp>,
        opts: SpMSpVOpts,
    ) -> Result<Self::Frontier<C>>
    where
        A: Scalar,
        Bv: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, Bv, C>,
    {
        self.timed(Family::Expand, |b| b.expand_semiring(a, f, ring, opts))
    }

    fn spmm_dense<A, Bv, C, AddM, MulOp>(
        &self,
        a: &Self::Matrix<Bv>,
        xs: &[Self::DenseVec<A>],
        ring: &Semiring<AddM, MulOp>,
    ) -> Result<Vec<Self::DenseVec<C>>>
    where
        A: Scalar,
        Bv: Scalar,
        C: Scalar,
        AddM: Monoid<C>,
        MulOp: BinaryOp<A, Bv, C>,
    {
        self.timed(Family::Mxm, |b| b.spmm_dense(a, xs, ring))
    }

    fn pull_first_visitor<T: Scalar>(
        &self,
        at: &Self::Matrix<T>,
        frontier: &Self::DenseVec<bool>,
        visited: &Self::DenseVec<bool>,
    ) -> Result<Self::SparseVec<usize>> {
        self.timed(Family::Spmspv, |b| b.pull_first_visitor(at, frontier, visited))
    }

    fn sparse_to_bitmap<T: Scalar>(&self, x: &Self::SparseVec<T>) -> Result<Self::DenseVec<bool>> {
        self.timed(Family::Container, |b| b.sparse_to_bitmap(x))
    }

    fn bitmap_to_sparse(&self, bits: &Self::DenseVec<bool>) -> Result<Self::SparseVec<usize>> {
        self.timed(Family::Container, |b| b.bitmap_to_sparse(bits))
    }

    fn selection_thresholds(&self) -> SelectionThresholds {
        self.inner.selection_thresholds()
    }

    fn record_decision(
        &self,
        algo: &'static str,
        iter: usize,
        d: Decision,
        nnz_f: usize,
        unexplored: usize,
    ) -> Result<()> {
        self.timed(Family::Reduce, |b| b.record_decision(algo, iter, d, nnz_f, unexplored))
    }

    fn dense_filled<T: Scalar>(&self, len: usize, fill: T) -> Self::DenseVec<T> {
        self.timed(Family::Container, |b| b.dense_filled(len, fill))
    }

    fn dense_from_vec<T: Scalar>(&self, v: Vec<T>) -> Self::DenseVec<T> {
        self.timed(Family::Container, |b| b.dense_from_vec(v))
    }

    fn dense_to_vec<T: Scalar>(&self, v: &Self::DenseVec<T>) -> Vec<T> {
        self.timed(Family::Container, |b| b.dense_to_vec(v))
    }

    fn dense_set<T: Scalar>(&self, v: &mut Self::DenseVec<T>, i: usize, value: T) {
        self.timed(Family::Container, |b| b.dense_set(v, i, value))
    }

    fn sparse_from_sorted<T: Scalar>(
        &self,
        capacity: usize,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self::SparseVec<T>> {
        self.timed(Family::Container, |b| b.sparse_from_sorted(capacity, indices, values))
    }

    fn sparse_entries<T: Scalar>(&self, x: &Self::SparseVec<T>) -> Vec<(usize, T)> {
        self.timed(Family::Container, |b| b.sparse_entries(x))
    }

    fn sparse_nnz<T: Scalar>(&self, x: &Self::SparseVec<T>) -> usize {
        self.timed(Family::Container, |b| b.sparse_nnz(x))
    }

    fn allreduce_scalar(&self, phase: &'static str) -> Result<()> {
        self.timed(Family::Reduce, |b| b.allreduce_scalar(phase))
    }

    fn workspace_stats(&self) -> WorkspaceStats {
        self.inner.workspace_stats()
    }
}
