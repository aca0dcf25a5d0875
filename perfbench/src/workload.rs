//! The three workloads: their inputs, their calls and the checks on
//! every result.
//!
//! Each workload runs the same seed-fixed call sequence on two backends:
//! `SharedBackend` over a 2-thread [`ExecCtx`], and `DistBackend` with
//! bulk communication on a 2×2 [`ProcGrid`] of a simulated Edison
//! cluster. Every call goes through a public generic driver of
//! `gblas-graph`; the program sees only the generated inputs.

use gblas_core::backend::{GblasBackend, SharedBackend};
use gblas_core::container::{CooMatrix, CsrMatrix, DupPolicy};
use gblas_core::error::Result as GResult;
use gblas_core::gen;
use gblas_core::ops::spmspv::SpMSpVOpts;
use gblas_core::par::ExecCtx;
use gblas_dist::ops::spmspv::CommStrategy;
use gblas_dist::{DistBackend, DistCsrMatrix, DistCtx, ProcGrid};
use gblas_graph::mcl::add_self_loops;
use gblas_graph::{bfs_multi_on, bfs_on, markov_cluster_on, BfsResult, MclOptions};
use gblas_sim::MachineConfig;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Logical (and, up to `nproc`, real) threads of the shared backend.
const SHARED_THREADS: usize = 2;
/// Distributed grid shape: 2×2 locales.
const GRID: (usize, usize) = (2, 2);
/// Candidate BFS sources drawn per seed; calls cycle through them.
const SOURCE_POOL: usize = 1024;

/// The simulated machine of the distributed backend: four Edison nodes,
/// one locale of 24 threads each.
fn machine() -> MachineConfig {
    MachineConfig::edison_cluster(GRID.0 * GRID.1, 24)
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-source BFS per call (`bfs_on`).
    Bfs,
    /// Batched BFS, several sources per call (`bfs_multi_on`).
    Msbfs,
    /// Markov clustering per call (`markov_cluster_on`).
    Mcl,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Bfs, Workload::Msbfs, Workload::Mcl];

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bfs => "bfs",
            Workload::Msbfs => "msbfs",
            Workload::Mcl => "mcl",
        }
    }
}

/// Input sizes and call counts of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// R-MAT scale (`2^scale` vertices).
    pub scale: u32,
    /// R-MAT edge factor.
    pub edge_factor: usize,
    /// Sources per call (1 for `bfs`, `k` for `msbfs`).
    pub batch: usize,
    /// Distinct input graphs the calls cycle through.
    pub graphs: usize,
    /// Untimed warm-up calls per backend at set-up.
    pub warmup_calls: usize,
    /// Traced calls per backend whose counts the per-layer metrics report.
    pub traced_calls: usize,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub fn standard(w: Workload) -> Sizes {
        match w {
            Workload::Bfs => Sizes {
                scale: 15,
                edge_factor: 16,
                batch: 1,
                graphs: 1,
                warmup_calls: 4,
                traced_calls: 64,
            },
            Workload::Msbfs => Sizes {
                scale: 15,
                edge_factor: 16,
                batch: 8,
                graphs: 1,
                warmup_calls: 2,
                traced_calls: 16,
            },
            Workload::Mcl => Sizes {
                scale: 11,
                edge_factor: 8,
                batch: 1,
                graphs: 16,
                warmup_calls: 2,
                traced_calls: 16,
            },
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn small(w: Workload) -> Sizes {
        let s = Sizes::standard(w);
        match w {
            Workload::Bfs | Workload::Msbfs => {
                Sizes { scale: 10, edge_factor: 8, warmup_calls: 1, traced_calls: 4, ..s }
            }
            Workload::Mcl => {
                Sizes { scale: 7, edge_factor: 4, graphs: 2, warmup_calls: 2, traced_calls: 2, ..s }
            }
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The input of one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// BFS sources (one for `bfs`, `k` for `msbfs`).
    Sources(Vec<usize>),
    /// Index of the MCL input graph.
    Graph(usize),
}

/// The result of one call.
#[derive(Debug, Clone)]
pub enum Answer {
    /// One BFS result per source.
    Bfs(Vec<BfsResult>),
    /// MCL attractor labels and iteration count.
    Mcl {
        /// `labels[v]` is the attractor row of `v`'s cluster.
        labels: Vec<usize>,
        /// MCL iterations run.
        iterations: usize,
    },
}

/// The verdict on one call pair (same query, both backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// The shared call returned `Ok` and passed validation.
    pub shared_ok: bool,
    /// The distributed call returned `Ok` and passed validation.
    pub dist_ok: bool,
    /// Both BFS calls were valid but chose different parents somewhere.
    pub parent_mismatch: bool,
    /// Driver loop iterations of this query (BFS levels incl. the final
    /// empty one, or MCL iterations).
    pub iterations: usize,
}

impl Check {
    /// Calls of the pair that failed (0, 1 or 2).
    pub fn failures(&self) -> u64 {
        u64::from(!self.shared_ok) + u64::from(!self.dist_ok)
    }
}

/// An MCL answer: labels and iterations.
type Clustering = (Vec<usize>, usize);

/// A workload's inputs, both backends' contexts and what results are
/// checked against.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// Input graphs in the shared layout.
    pub graphs: Vec<CsrMatrix<f64>>,
    /// The same graphs block-distributed on the 2×2 grid.
    pub dist_graphs: Vec<DistCsrMatrix<f64>>,
    /// The shared backend's execution context.
    pub ctx: ExecCtx,
    /// The distributed backend's context.
    pub dctx: DistCtx,
    sources: Vec<usize>,
    /// Per MCL graph, the first clustering both backends agreed on:
    /// every later call must reproduce it.
    mcl_seen: RefCell<Vec<Option<Clustering>>>,
}

/// Symmetrize with unit weights and no self-loops.
fn symmetrized(a: &CsrMatrix<f64>) -> GResult<CsrMatrix<f64>> {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, j, _) in a.iter() {
        if i != j {
            coo.push(i, j, 1.0)?;
            coo.push(j, i, 1.0)?;
        }
    }
    coo.to_csr_with(DupPolicy::KeepLast, |x, _| x)
}

/// Plain queue BFS levels: the reference BFS results are checked against.
fn reference_levels(a: &CsrMatrix<f64>, source: usize) -> Vec<i64> {
    let mut levels = vec![-1i64; a.nrows()];
    levels[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &v in a.row(u).0 {
            if levels[v] < 0 {
                levels[v] = levels[u] + 1;
                queue.push_back(v);
            }
        }
    }
    levels
}

impl Bench {
    /// Generate the inputs for `seed`, distribute them, and run the
    /// validated warm-up calls that fill the pools and schedule caches.
    pub fn setup(workload: Workload, sizes: Sizes, seed: u64) -> Result<Bench, String> {
        let mut rng = SplitMix64(seed);
        let base = rng.next();
        let mut graphs = Vec::with_capacity(sizes.graphs);
        for g in 0..sizes.graphs as u64 {
            let a = gen::rmat(sizes.scale, sizes.edge_factor, base.wrapping_add(g));
            let a = match workload {
                Workload::Bfs | Workload::Msbfs => a,
                Workload::Mcl => symmetrized(&a)
                    .and_then(|s| add_self_loops(&s))
                    .map_err(|e| format!("building MCL input: {e}"))?,
            };
            graphs.push(a);
        }
        let grid = ProcGrid::new(GRID.0, GRID.1);
        let dist_graphs = graphs.iter().map(|a| DistCsrMatrix::from_global(a, grid)).collect();
        let mut sources = Vec::new();
        if workload != Workload::Mcl {
            let a = &graphs[0];
            let candidates: Vec<usize> = (0..a.nrows()).filter(|&v| a.row_nnz(v) > 0).collect();
            if candidates.is_empty() {
                return Err("generated graph has no edges".into());
            }
            sources = (0..SOURCE_POOL).map(|_| candidates[rng.below(candidates.len())]).collect();
        }
        let bench = Bench {
            workload,
            sizes,
            mcl_seen: RefCell::new(vec![None; graphs.len()]),
            graphs,
            dist_graphs,
            ctx: ExecCtx::with_threads(SHARED_THREADS),
            dctx: DistCtx::new(machine()),
            sources,
        };
        for i in 0..sizes.warmup_calls {
            let q = bench.query(i);
            let shared = bench.call(&bench.shared(), &bench.graphs, &q);
            let dist = bench.dist();
            let dres = bench.call(&dist, &bench.dist_graphs, &q);
            dist.take_report();
            let c = bench.check(&q, &shared, &dres);
            if c.failures() > 0 {
                return Err(format!("warm-up call {i} failed validation: {c:?}"));
            }
        }
        Ok(bench)
    }

    /// The shared backend.
    pub fn shared(&self) -> SharedBackend<'_> {
        SharedBackend::new(&self.ctx)
    }

    /// The distributed backend (bulk communication).
    pub fn dist(&self) -> DistBackend<'_> {
        DistBackend::with_strategy(&self.dctx, CommStrategy::Bulk)
    }

    /// Queries answered per call: BFS sources, or one clustering.
    pub fn queries_per_call(&self) -> usize {
        self.sizes.batch
    }

    /// The `i`-th query of the seed-fixed call sequence.
    pub fn query(&self, i: usize) -> Query {
        match self.workload {
            Workload::Mcl => Query::Graph(i % self.graphs.len()),
            Workload::Bfs | Workload::Msbfs => {
                let k = self.sizes.batch;
                let n = self.sources.len();
                Query::Sources((0..k).map(|j| self.sources[(i * k + j) % n]).collect())
            }
        }
    }

    /// One driver call on `backend` over its layout of the inputs.
    pub fn call<B: GblasBackend>(
        &self,
        backend: &B,
        graphs: &[B::Matrix<f64>],
        q: &Query,
    ) -> GResult<Answer> {
        let opts = SpMSpVOpts::default();
        match (self.workload, q) {
            (Workload::Bfs, Query::Sources(s)) => {
                bfs_on(backend, &graphs[0], s[0], opts).map(|r| Answer::Bfs(vec![r]))
            }
            (Workload::Msbfs, Query::Sources(s)) => {
                bfs_multi_on(backend, &graphs[0], s, opts).map(Answer::Bfs)
            }
            (Workload::Mcl, &Query::Graph(g)) => {
                markov_cluster_on(backend, &graphs[g], MclOptions::default())
                    .map(|(labels, iterations)| Answer::Mcl { labels, iterations })
            }
            _ => unreachable!("query {q:?} does not belong to workload {:?}", self.workload),
        }
    }

    /// Check both backends' answers to `q`.
    ///
    /// BFS: every result passes [`BfsResult::validate`] and has the levels
    /// of a plain queue BFS, so shared and distributed levels agree.
    /// Parents may differ between two valid trees; that only sets
    /// `parent_mismatch`.
    ///
    /// MCL: both clusterings are equal, and equal to the first clustering
    /// both backends agreed on for that graph. A pair that disagrees
    /// before any agreement fails on both sides.
    pub fn check(&self, q: &Query, shared: &GResult<Answer>, dist: &GResult<Answer>) -> Check {
        match q {
            Query::Sources(sources) => {
                let a = &self.graphs[0];
                let refs: Vec<Vec<i64>> = sources.iter().map(|&s| reference_levels(a, s)).collect();
                let valid = |r: &GResult<Answer>| match r {
                    Ok(Answer::Bfs(rs)) => {
                        rs.len() == sources.len()
                            && rs.iter().zip(sources).zip(&refs).all(|((r, &s), want)| {
                                r.validate(a, s).is_ok() && r.levels.as_slice() == want.as_slice()
                            })
                    }
                    _ => false,
                };
                let (shared_ok, dist_ok) = (valid(shared), valid(dist));
                let parent_mismatch = match (shared, dist) {
                    (Ok(Answer::Bfs(s)), Ok(Answer::Bfs(d))) if shared_ok && dist_ok => {
                        s.iter().zip(d).any(|(s, d)| s.parents != d.parents)
                    }
                    _ => false,
                };
                let depth = refs.iter().flatten().copied().max().unwrap_or(0);
                Check { shared_ok, dist_ok, parent_mismatch, iterations: depth as usize + 1 }
            }
            &Query::Graph(g) => {
                let clustering = |r: &GResult<Answer>| match r {
                    Ok(Answer::Mcl { labels, iterations }) => Some((labels.clone(), *iterations)),
                    _ => None,
                };
                let (s, d) = (clustering(shared), clustering(dist));
                let mut seen = self.mcl_seen.borrow_mut();
                if seen[g].is_none() && s.is_some() && s == d {
                    seen[g] = s.clone();
                }
                let want = &seen[g];
                let ok = |got: &Option<Clustering>| want.is_some() && got == want;
                Check {
                    shared_ok: ok(&s),
                    dist_ok: ok(&d),
                    parent_mismatch: false,
                    iterations: want.as_ref().map_or(0, |w| w.1),
                }
            }
        }
    }
}
