//! The closed loops: the timed run behind the end-to-end metrics and the
//! traced run behind the per-layer metrics.
//!
//! One driver thread issues call `i` on the shared backend, then on the
//! distributed backend, checks both answers outside the timed region,
//! and moves on to call `i + 1`: a closed loop with no think time.

use crate::stats::{median, percentile, ratio};
use crate::traced::{Family, FamilyStat, Probe, Traced};
use crate::workload::{Answer, Bench, Check, Query};
use crate::{cpu, heap};
use gblas_core::error::Result as GResult;
use gblas_core::trace::MetricsSnapshot;
use gblas_core::workspace::WorkspaceStats;
use gblas_sim::SimReport;
use std::time::Instant;

/// Distributed calls whose simulated time `dist.sim_s` averages: the
/// first calls of the seed-fixed sequence, so the mean is deterministic.
pub const SIM_CALLS: usize = 100;

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measure at least this long.
    pub seconds: f64,
    /// ...and at least this many call pairs (a tail percentile needs
    /// samples beyond it)...
    pub min_calls: usize,
    /// ...but stop here regardless; the caller refuses a short run.
    pub max_seconds: f64,
}

impl Budget {
    /// The timed run: `seconds`, extended to 100 call pairs so p90 has
    /// ten samples beyond it.
    pub fn timed(seconds: f64) -> Budget {
        Budget { seconds, min_calls: 100, max_seconds: 150.0 }
    }

    /// The overhead pass of the traced run: `seconds` in all, extended
    /// to 20 call pairs so each p50 has ten samples beyond it.
    pub fn traced(seconds: f64) -> Budget {
        Budget { seconds, min_calls: 20, max_seconds: 150.0 }
    }

    fn done(&self, start: Instant, calls: usize) -> bool {
        let el = start.elapsed().as_secs_f64();
        (el >= self.seconds && calls >= self.min_calls) || el >= self.max_seconds
    }
}

/// Failure accounting over both backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned `Err` or failed validation.
    pub failed: u64,
    /// Call pairs whose BFS parents differed between valid results.
    pub parent_mismatch: u64,
    /// Call pairs checked.
    pub pairs: u64,
}

impl Tally {
    fn add(&mut self, c: &Check) {
        self.attempted += 2;
        self.failed += c.failures();
        self.parent_mismatch += u64::from(c.parent_mismatch);
        self.pairs += 1;
    }

    /// Failed calls over attempted calls.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What the timed run measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Host milliseconds per shared call.
    pub shared_ms: Vec<f64>,
    /// Host milliseconds per distributed call.
    pub dist_ms: Vec<f64>,
    /// Process CPU milliseconds per shared call.
    pub shared_cpu_ms: Vec<f64>,
    /// Process CPU milliseconds per distributed call.
    pub dist_cpu_ms: Vec<f64>,
    /// Simulated seconds per distributed call, in call order.
    pub sim_s: Vec<f64>,
    /// Failures over both backends.
    pub tally: Tally,
}

impl Timed {
    /// Mean simulated seconds over the first [`SIM_CALLS`] calls, or
    /// `None` when the run made fewer.
    pub fn sim_mean(&self) -> Option<f64> {
        let head = self.sim_s.get(..SIM_CALLS)?;
        Some(head.iter().sum::<f64>() / SIM_CALLS as f64)
    }

    /// Every end-to-end metric. `setups` are the set-up times of the run,
    /// `queries` the queries one call answers, `peak_rss_mb` the
    /// process's peak resident set. Refuses a run too short to report
    /// p90 or `dist.sim_s`.
    pub fn end_to_end(
        &self,
        setups: &[f64],
        queries: usize,
        peak_rss_mb: f64,
    ) -> Result<Vec<Row>, String> {
        let pct = |samples: &[f64], p: usize, b: &str| {
            percentile(samples, p).map(|v| (v, Some(samples.len()))).ok_or_else(|| {
                format!("{b}: {} samples leave fewer than ten beyond p{p}", samples.len())
            })
        };
        let qps = |samples: &[f64]| {
            let host_s = samples.iter().sum::<f64>() / 1e3;
            (ratio((samples.len() * queries) as f64, host_s), Some(samples.len()))
        };
        let setup = median(setups).ok_or("no set-up ran")?;
        let sim = self.sim_mean().ok_or("too few calls for dist.sim_s")?;
        let rows = [
            ("setup_s", (setup, Some(setups.len())), "s", true),
            ("shared.p50_ms", pct(&self.shared_ms, 50, "shared")?, "ms", false),
            ("shared.p90_ms", pct(&self.shared_ms, 90, "shared")?, "ms", false),
            ("dist.p50_ms", pct(&self.dist_ms, 50, "dist")?, "ms", false),
            ("dist.p90_ms", pct(&self.dist_ms, 90, "dist")?, "ms", false),
            ("shared.qps", qps(&self.shared_ms), "1/s", false),
            ("dist.qps", qps(&self.dist_ms), "1/s", false),
            ("shared.cpu_p50_ms", pct(&self.shared_cpu_ms, 50, "shared")?, "ms", true),
            ("dist.cpu_p50_ms", pct(&self.dist_cpu_ms, 50, "dist")?, "ms", true),
            ("dist.sim_s", (sim, Some(SIM_CALLS)), "s", true),
            ("peak_rss_mb", (peak_rss_mb, None), "MB", true),
        ];
        Ok(rows
            .into_iter()
            .map(|(name, (value, samples), unit, gated)| Row {
                metric: (name.to_string(), value, unit),
                samples,
                gated,
            })
            .collect())
    }
}

/// One end-to-end metric as printed.
#[derive(Debug, Clone)]
pub struct Row {
    /// Name, value, unit.
    pub metric: Metric,
    /// Samples behind the value (`None` for a single reading).
    pub samples: Option<usize>,
    /// Declared with a bound in `BENCHMARK.json` and carried in the
    /// result JSON. The host-wall rows are printed only: on a 2-core host
    /// shared with other tenants their run-to-run spread reaches the
    /// largest bound allowed, while process CPU time stays within a third
    /// of it (README.md, "Steadiness").
    pub gated: bool,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The timed closed loop, tracing off.
pub fn run_timed(bench: &Bench, budget: Budget) -> Timed {
    let (shared, dist) = (bench.shared(), bench.dist());
    let mut t = Timed::default();
    let start = Instant::now();
    let mut i = 0;
    while !budget.done(start, i) {
        let q = bench.query(i);
        let (c0, t0) = (cpu::process_ns(), Instant::now());
        let rs = bench.call(&shared, &bench.graphs, &q);
        t.shared_ms.push(ms(t0));
        let (c1, t0) = (cpu::process_ns(), Instant::now());
        let rd = bench.call(&dist, &bench.dist_graphs, &q);
        t.dist_ms.push(ms(t0));
        let c2 = cpu::process_ns();
        t.shared_cpu_ms.push((c1 - c0) as f64 / 1e6);
        t.dist_cpu_ms.push((c2 - c1) as f64 / 1e6);
        t.sim_s.push(dist.take_report().total());
        t.tally.add(&bench.check(&q, &rs, &rd));
        i += 1;
    }
    t
}

/// Per-backend sums over traced calls.
#[derive(Debug, Clone, Default)]
pub struct BackendLayers {
    /// Traced calls.
    pub calls: u64,
    /// Host nanoseconds of those calls.
    pub wall_ns: u64,
    /// Per op family, indexed like [`Family::ALL`].
    pub families: [FamilyStat; 7],
    /// Heap allocations and bytes counted during the calls.
    pub heap: (u64, u64),
    /// Workspace-pool deltas.
    pub pool: WorkspaceStats,
    /// Distributed metrics-registry deltas (all zero on shared).
    pub dist: MetricsSnapshot,
    /// Merged simulated-time ledger.
    pub sim: SimReport,
}

/// Add the distributed registry's movement from `a` to `b` to `acc`.
fn add_registry_delta(acc: &mut MetricsSnapshot, a: &MetricsSnapshot, b: &MetricsSnapshot) {
    acc.fine_msgs += b.fine_msgs - a.fine_msgs;
    acc.bulk_msgs += b.bulk_msgs - a.bulk_msgs;
    acc.bytes_sent += b.bytes_sent - a.bytes_sent;
    acc.faults_injected += b.faults_injected - a.faults_injected;
    acc.retries += b.retries - a.retries;
    acc.sched_builds += b.sched_builds - a.sched_builds;
    acc.sched_replays += b.sched_replays - a.sched_replays;
    acc.sched_invalidations += b.sched_invalidations - a.sched_invalidations;
}

/// One traced call on `backend`: the wrapper times every op, the heap
/// counter runs, and the backend's own counters are read around it.
/// Returns the answer and the call's host milliseconds.
fn traced_call<B: Probe>(
    bench: &Bench,
    backend: &B,
    graphs: &[B::Matrix<f64>],
    q: &Query,
    acc: &mut BackendLayers,
) -> (GResult<Answer>, f64) {
    let tb = Traced::new(backend);
    let before = backend.counters();
    heap::set_counting(true);
    let h0 = heap::totals();
    let t0 = Instant::now();
    let out = bench.call(&tb, graphs, q);
    let wall = t0.elapsed();
    let h1 = heap::totals();
    heap::set_counting(false);
    let after = backend.counters();
    let ledger = tb.take();
    acc.calls += 1;
    acc.wall_ns += wall.as_nanos() as u64;
    for (sum, f) in acc.families.iter_mut().zip(&ledger.families) {
        sum.calls += f.calls;
        sum.ns += f.ns;
        sum.sim_s += f.sim_s;
    }
    acc.heap.0 += h1.0 - h0.0;
    acc.heap.1 += h1.1 - h0.1;
    acc.pool.merge(&after.pool.saturating_sub(&before.pool));
    if let (Some(a), Some(b)) = (before.dist, after.dist) {
        add_registry_delta(&mut acc.dist, &a, &b);
    }
    acc.sim.merge(&ledger.sim);
    (out, wall.as_secs_f64() * 1e3)
}

/// The simulated phases the three workloads price, reported one by one
/// as `dist.sim.{phase}_s`; any other phase lands in `dist.sim.other_s`.
pub const SIM_PHASES: [&str; 12] = [
    "gather",
    "local",
    "scatter",
    "broadcast",
    "extract",
    "apply",
    "select",
    "transpose-local",
    "transpose-exchange",
    "reduce-local",
    "reduce-combine",
    "chaos-allreduce",
];

/// What the traced run measured.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Shared-backend sums over the traced calls of the count pass.
    pub shared: BackendLayers,
    /// Distributed-backend sums over the same calls.
    pub dist: BackendLayers,
    /// Driver iterations summed over the count pass.
    pub iterations: u64,
    /// Failures and parent mismatches of the count pass.
    pub count_tally: Tally,
    /// Failures over the whole traced run.
    pub tally: Tally,
    /// Traced p50 over untraced p50, minus 1, per backend (shared, dist).
    pub overhead: (f64, f64),
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

impl Layers {
    /// Mean simulated seconds per traced distributed call.
    pub fn sim_per_call(&self) -> f64 {
        ratio(self.dist.sim.total(), self.dist.calls as f64)
    }

    /// Every per-layer metric, per call, in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        let pairs = self.count_tally.pairs as f64;
        let mut m: Vec<Metric> = vec![
            ("graph.iterations".into(), ratio(self.iterations as f64, pairs), "count"),
            (
                "graph.parent_mismatch".into(),
                ratio(self.count_tally.parent_mismatch as f64, pairs),
                "ratio",
            ),
        ];
        for (b, l, overhead) in
            [("shared", &self.shared, self.overhead.0), ("dist", &self.dist, self.overhead.1)]
        {
            let n = l.calls as f64;
            let per = |v: f64| ratio(v, n);
            let op_ns: u64 = l.families.iter().map(|f| f.ns).sum();
            m.push((format!("{b}.graph.call_ms"), per(l.wall_ns as f64 / 1e6), "ms"));
            m.push((
                format!("{b}.graph.self_ms"),
                per(l.wall_ns.saturating_sub(op_ns) as f64 / 1e6),
                "ms",
            ));
            for (f, s) in Family::ALL.iter().zip(&l.families) {
                m.push((format!("{b}.op.{}.calls", f.name()), per(s.calls as f64), "count"));
                m.push((format!("{b}.op.{}.ms", f.name()), per(s.ns as f64 / 1e6), "ms"));
            }
            let p = &l.pool;
            m.push((format!("{b}.pool.hits"), per(p.pool_hits as f64), "count"));
            m.push((format!("{b}.pool.misses"), per(p.pool_misses as f64), "count"));
            m.push((
                format!("{b}.pool.hit_ratio"),
                ratio(p.pool_hits as f64, (p.pool_hits + p.pool_misses) as f64),
                "ratio",
            ));
            m.push((format!("{b}.pool.alloc_bytes"), per(p.alloc_bytes as f64), "bytes"));
            m.push((format!("{b}.heap.allocs"), per(l.heap.0 as f64), "count"));
            m.push((format!("{b}.heap.bytes"), per(l.heap.1 as f64), "bytes"));
            m.push((format!("{b}.trace.overhead"), overhead, "ratio"));
        }
        let d = &self.dist;
        let per = |v: f64| ratio(v, d.calls as f64);
        for (f, s) in Family::ALL.iter().zip(&d.families) {
            m.push((format!("dist.op.{}.sim_s", f.name()), per(s.sim_s), "s"));
        }
        let r = &d.dist;
        m.push(("dist.comm.msgs".into(), per((r.fine_msgs + r.bulk_msgs) as f64), "count"));
        m.push(("dist.comm.bytes".into(), per(r.bytes_sent as f64), "bytes"));
        m.push(("dist.comm.retries".into(), per(r.retries as f64), "count"));
        m.push(("dist.comm.faults".into(), per(r.faults_injected as f64), "count"));
        m.push(("dist.sched.builds".into(), per(r.sched_builds as f64), "count"));
        m.push(("dist.sched.replays".into(), per(r.sched_replays as f64), "count"));
        m.push(("dist.sched.invalidations".into(), per(r.sched_invalidations as f64), "count"));
        m.push((
            "dist.sched.replay_ratio".into(),
            ratio(r.sched_replays as f64, (r.sched_builds + r.sched_replays) as f64),
            "ratio",
        ));
        let mut other = 0.0;
        for p in d.sim.iter() {
            if !SIM_PHASES.contains(&p.name.as_str()) {
                other += p.seconds;
            }
        }
        for phase in SIM_PHASES {
            m.push((format!("dist.sim.{phase}_s"), per(d.sim.phase(phase)), "s"));
        }
        m.push(("dist.sim.other_s".into(), per(other), "s"));
        m
    }
}

/// True for the per-layer metrics that must repeat exactly for a seed:
/// iterations, op call counts, and the comm, schedule and simulated-time
/// ledgers.
pub fn is_count_metric(name: &str) -> bool {
    name == "graph.iterations"
        || (name.contains(".op.") && name.ends_with(".calls"))
        || name.starts_with("dist.comm.")
        || name.starts_with("dist.sched.")
        || name.starts_with("dist.sim.")
}

/// The traced run. First a count pass: the first
/// `sizes.traced_calls` queries of the sequence, traced on both
/// backends, feed every per-layer metric. Then, until `budget` is spent,
/// an overhead pass alternates untraced and traced calls of each backend
/// to price the tracing itself.
pub fn run_traced(bench: &Bench, budget: Budget) -> Layers {
    let (shared, dist) = (bench.shared(), bench.dist());
    let mut layers = Layers::default();
    let start = Instant::now();
    for i in 0..bench.sizes.traced_calls {
        let q = bench.query(i);
        let (rs, _) = traced_call(bench, &shared, &bench.graphs, &q, &mut layers.shared);
        let (rd, _) = traced_call(bench, &dist, &bench.dist_graphs, &q, &mut layers.dist);
        let c = bench.check(&q, &rs, &rd);
        layers.iterations += c.iterations as u64;
        layers.count_tally.add(&c);
    }
    layers.tally = layers.count_tally;
    let mut plain = (Vec::new(), Vec::new());
    let mut traced = (Vec::new(), Vec::new());
    let mut overhead_layers = BackendLayers::default();
    let mut i = 0;
    while !budget.done(start, i) {
        let q = bench.query(bench.sizes.traced_calls + i);
        // Alternate which variant runs first so neither always finds the
        // caches warmed by the other.
        let order = if i % 2 == 0 { [false, true] } else { [true, false] };
        let mut answers = Vec::with_capacity(4);
        for with_trace in order {
            let (rs, ts) = if with_trace {
                traced_call(bench, &shared, &bench.graphs, &q, &mut overhead_layers)
            } else {
                let t0 = Instant::now();
                (bench.call(&shared, &bench.graphs, &q), ms(t0))
            };
            let (rd, td) = if with_trace {
                traced_call(bench, &dist, &bench.dist_graphs, &q, &mut overhead_layers)
            } else {
                let t0 = Instant::now();
                let r = bench.call(&dist, &bench.dist_graphs, &q);
                (r, ms(t0))
            };
            dist.take_report();
            let (s, d) = if with_trace {
                (&mut traced.0, &mut traced.1)
            } else {
                (&mut plain.0, &mut plain.1)
            };
            s.push(ts);
            d.push(td);
            answers.push((rs, rd));
        }
        for (rs, rd) in &answers {
            layers.tally.add(&bench.check(&q, rs, rd));
        }
        i += 1;
    }
    let overhead = |t: &[f64], p: &[f64]| match (percentile(t, 50), percentile(p, 50)) {
        (Some(t), Some(p)) => t / p - 1.0,
        _ => 0.0,
    };
    layers.overhead = (overhead(&traced.0, &plain.0), overhead(&traced.1, &plain.1));
    layers
}
