//! Deterministic parallel query execution: a pool of per-worker
//! [`DijkstraEngine`] workspaces fanned over a frozen [`CsrGraph`] snapshot.
//!
//! The greedy spanner's hot loop is `O(m)` bounded Dijkstra queries against
//! the growing spanner. Within a batch of similar-weight candidate edges the
//! queries are independent *against a frozen snapshot* of the spanner, so
//! they can run concurrently — the batched filter-then-commit loop in the
//! `greedy-spanner` crate freezes the spanner, fans the batch's queries
//! across this pool, and then commits survivors sequentially (metric
//! inputs only: greedy on a graph runs a plain sequential loop). Serving
//! and the sharded build's stitch fan their batches over this pool too.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Work is dealt round-robin: item `i` of a batch
//!    always runs on worker `i mod w` (`w` the workers the batch engages),
//!    and every result is written to slot `i` of the output slice. Which OS
//!    thread executes a worker's items never influences any result, so a
//!    construction built on the pool produces bit-identical output at every
//!    thread count. Dealing rather than cutting the batch into contiguous
//!    chunks spreads a run of expensive neighbouring items (the path
//!    queries a query generator places side by side, say) over every
//!    worker instead of piling it onto one.
//! 2. **No runtime dependency.** The executor is scoped `std::thread` —
//!    no rayon, no global thread pool, no registry access. Threads live only
//!    for the duration of one [`EnginePool::map_batch`] call; for the short
//!    batches typical of spanner construction this costs a few microseconds
//!    per batch, which the batch sizing upstream amortizes.
//! 3. **Zero per-query allocation.** Each worker owns one pre-sized
//!    [`DijkstraEngine`]; the pool aggregates their counters so the
//!    zero-allocation contract ([`EngineStats::reuse_hits`] `==`
//!    [`EngineStats::queries`]) remains checkable per construction.
//!
//! ```
//! use spanner_graph::parallel::EnginePool;
//! use spanner_graph::{CsrGraph, VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
//! let csr = CsrGraph::from(&g);
//! let mut pool = EnginePool::with_capacity_for(4, g.num_vertices(), g.num_edges());
//! let queries = [(0usize, 3usize), (1, 3), (0, 2)];
//! let mut covered = [false; 3];
//! pool.map_batch(csr.snapshot(), &queries, &mut covered, |engine, graph, &(s, t)| {
//!     engine
//!         .bounded_distance(graph, VertexId(s), VertexId(t), 2.5)
//!         .is_some()
//! });
//! assert_eq!(covered, [false, true, true]);
//! assert_eq!(pool.stats().queries, 3);
//! ```

use std::time::{Duration, Instant};

use crate::csr::{CsrGraph, CsrSnapshot};
use crate::engine::{DijkstraEngine, EngineStats};
use crate::error::GraphError;

/// Below this many items per worker the pool shrinks the worker count so no
/// thread is spawned for a handful of queries (spawn latency would dominate).
const MIN_ITEMS_PER_WORKER: usize = 8;

/// A pool of per-worker [`DijkstraEngine`] workspaces plus the scoped-thread
/// executor that fans query batches across them.
///
/// Engine 0 doubles as the *commit engine* ([`EnginePool::commit_engine`]):
/// the sequential phase of a filter-then-commit loop re-checks survivors on
/// it, so one pool carries all counters of a construction.
#[derive(Debug)]
pub struct EnginePool {
    engines: Vec<DijkstraEngine>,
    /// Cumulative busy time per worker across all `map_batch` calls, the
    /// basis of [`EnginePool::utilization`].
    busy: Vec<Duration>,
    /// Most workers any single `map_batch` call engaged — the denominator
    /// of [`EnginePool::utilization`], so batches too small to fan out
    /// (which run inline on worker 0 by design) do not read as imbalance.
    peak_workers: usize,
}

impl EnginePool {
    /// Creates a pool of `workers` engines with empty workspaces (each sizes
    /// itself on first use; the growth queries count as reuse misses).
    ///
    /// `workers` is clamped to at least 1.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        EnginePool {
            engines: (0..workers).map(|_| DijkstraEngine::new()).collect(),
            busy: vec![Duration::ZERO; workers],
            peak_workers: 0,
        }
    }

    /// Creates a pool of `workers` engines, each pre-sized via
    /// [`DijkstraEngine::with_capacity_for`] so every query on every worker
    /// is allocation-free.
    ///
    /// `workers` is clamped to at least 1.
    pub fn with_capacity_for(workers: usize, num_vertices: usize, num_edges: usize) -> Self {
        let workers = workers.max(1);
        EnginePool {
            engines: (0..workers)
                .map(|_| DijkstraEngine::with_capacity_for(num_vertices, num_edges))
                .collect(),
            busy: vec![Duration::ZERO; workers],
            peak_workers: 0,
        }
    }

    /// Number of workers (engines) in the pool.
    pub fn workers(&self) -> usize {
        self.engines.len()
    }

    /// The engine the sequential commit phase should query (worker 0), so
    /// its counters aggregate with the parallel filter counters in
    /// [`EnginePool::stats`]. Commit queries do not count toward
    /// [`EnginePool::utilization`] — that measures the parallel phases only.
    pub fn commit_engine(&mut self) -> &mut DijkstraEngine {
        &mut self.engines[0]
    }

    /// Aggregate counters over every engine in the pool, folded with
    /// [`EngineStats::merge`]: every counter summed, the peak frontier
    /// maximized.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for e in &self.engines {
            total.merge(&e.stats());
        }
        total
    }

    /// Resets every engine's counters, the per-worker busy times and the
    /// peak participating-worker count.
    pub fn reset_stats(&mut self) {
        for e in &mut self.engines {
            e.reset_stats();
        }
        self.busy.iter_mut().for_each(|b| *b = Duration::ZERO);
        self.peak_workers = 0;
    }

    /// Mean busy fraction of the participating workers across all
    /// `map_batch` calls so far: `sum(busy) / (peak_workers × max(busy))`,
    /// where `peak_workers` is the most workers any single batch engaged.
    /// `1.0` means every participating worker was busy whenever the busiest
    /// one was (perfect balance). Batches too small to fan out run inline
    /// on worker 0 by design and therefore never depress the metric; a pool
    /// that has executed nothing reports `1.0`.
    pub fn utilization(&self) -> f64 {
        let max = self.busy.iter().max().copied().unwrap_or(Duration::ZERO);
        if max.is_zero() || self.peak_workers == 0 {
            return 1.0;
        }
        let sum: Duration = self.busy.iter().sum();
        sum.as_secs_f64() / (self.peak_workers as f64 * max.as_secs_f64())
    }

    /// Evaluates `f(engine, graph, item)` for every item of a batch against
    /// a frozen snapshot, writing result `i` into `out[i]`.
    ///
    /// Item `i` runs on worker `i mod w`, where `w` is the number of
    /// workers the batch engages, so the partitioning — and therefore every
    /// per-engine counter trajectory — is a function of the batch length
    /// and worker count alone. Batches smaller than
    /// 8 items per worker use fewer workers, down to an
    /// inline, spawn-free run on worker 0.
    ///
    /// # Panics
    ///
    /// Panics if `items` and `out` have different lengths.
    pub fn map_batch<T, U, F>(
        &mut self,
        snapshot: CsrSnapshot<'_>,
        items: &[T],
        out: &mut [U],
        f: F,
    ) where
        T: Sync,
        U: Send,
        F: Fn(&mut DijkstraEngine, &CsrGraph, &T) -> U + Sync,
    {
        assert_eq!(
            items.len(),
            out.len(),
            "batch items and output slice must have equal length"
        );
        if items.is_empty() {
            return;
        }
        let graph = snapshot.graph();
        let workers = self
            .engines
            .len()
            .min(items.len().div_ceil(MIN_ITEMS_PER_WORKER))
            .max(1);
        self.peak_workers = self.peak_workers.max(workers);
        if workers == 1 {
            self.busy[0] += run_lane(&mut self.engines[0], graph, &f, out.iter_mut().zip(items));
            return;
        }
        // Deal the output slots into one lane per worker: lane `w` holds
        // slots `w, w + workers, w + 2·workers, …`.
        let mut lanes: Vec<Vec<&mut U>> = (0..workers)
            .map(|_| Vec::with_capacity(items.len().div_ceil(workers)))
            .collect();
        for (i, slot) in out.iter_mut().enumerate() {
            lanes[i % workers].push(slot);
        }
        std::thread::scope(|scope| {
            for (w, ((engine, busy), lane)) in self
                .engines
                .iter_mut()
                .zip(self.busy.iter_mut())
                .zip(lanes)
                .enumerate()
            {
                let f = &f;
                scope.spawn(move || {
                    let lane = lane.into_iter().zip(items.iter().skip(w).step_by(workers));
                    *busy += run_lane(engine, graph, f, lane);
                });
            }
        });
    }

    /// Epoch-checked [`EnginePool::map_batch`]: the caller passes the epoch
    /// its view of the graph was stamped at, and the pool **refuses a stale
    /// snapshot with a typed error** instead of silently fanning queries
    /// over data the caller has not seen ([`CsrSnapshot::epoch`] vs. the
    /// stamp). On success the batch ran exactly as `map_batch` would have.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::StaleEpoch`] when the snapshot's epoch differs
    /// from `stamped`; no query ran and no counter changed.
    ///
    /// # Panics
    ///
    /// Panics if `items` and `out` have different lengths.
    pub fn try_map_batch<T, U, F>(
        &mut self,
        snapshot: CsrSnapshot<'_>,
        stamped: u64,
        items: &[T],
        out: &mut [U],
        f: F,
    ) -> Result<(), GraphError>
    where
        T: Sync,
        U: Send,
        F: Fn(&mut DijkstraEngine, &CsrGraph, &T) -> U + Sync,
    {
        if snapshot.epoch() != stamped {
            return Err(GraphError::StaleEpoch {
                stamped,
                current: snapshot.epoch(),
            });
        }
        self.map_batch(snapshot, items, out, f);
        Ok(())
    }
}

/// Runs one worker's share of a [`EnginePool::map_batch`] call on its
/// engine, writing each item's result into its output slot; returns the
/// time it took.
fn run_lane<'a, T: 'a, U: 'a, F>(
    engine: &mut DijkstraEngine,
    graph: &CsrGraph,
    f: &F,
    lane: impl Iterator<Item = (&'a mut U, &'a T)>,
) -> Duration
where
    F: Fn(&mut DijkstraEngine, &CsrGraph, &T) -> U,
{
    let start = Instant::now();
    for (slot, item) in lane {
        *slot = f(engine, graph, item);
    }
    start.elapsed()
}

/// Fills `out[i] = f(i)` for every index, split into one contiguous chunk
/// per worker on scoped threads — the generic deterministic fan-out used by
/// batch drivers (e.g. the spanner matrix runner) whose jobs are not engine
/// queries.
///
/// Partitioning is by chunk index (index `i` runs in chunk
/// `i / ⌈len / workers⌉`), so the output is identical at every worker
/// count; `workers <= 1` (or a single item) runs inline without spawning.
pub fn fill_chunked<U, F>(workers: usize, out: &mut [U], f: F)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let len = out.len();
    let workers = workers.max(1).min(len.max(1));
    if workers == 1 || len <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|scope| {
        for (c, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = f(c * chunk + i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{VertexId, WeightedGraph};

    fn path_graph(n: usize) -> WeightedGraph {
        WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, 1.0))).unwrap()
    }

    #[test]
    fn map_batch_results_are_identical_across_worker_counts() {
        let g = path_graph(40);
        let csr = CsrGraph::from(&g);
        let queries: Vec<(usize, usize, f64)> = (0..100)
            .map(|i| ((i * 7) % 40, (i * 13 + 5) % 40, 3.0 + (i % 9) as f64))
            .collect();
        let mut reference: Vec<Option<f64>> = vec![None; queries.len()];
        let mut pool1 = EnginePool::with_capacity_for(1, 40, g.num_edges());
        pool1.map_batch(
            csr.snapshot(),
            &queries,
            &mut reference,
            |e, graph, &(s, t, b)| e.bounded_distance(graph, VertexId(s), VertexId(t), b),
        );
        for workers in 2..=8 {
            let mut pool = EnginePool::with_capacity_for(workers, 40, g.num_edges());
            let mut out: Vec<Option<f64>> = vec![None; queries.len()];
            pool.map_batch(
                csr.snapshot(),
                &queries,
                &mut out,
                |e, graph, &(s, t, b)| e.bounded_distance(graph, VertexId(s), VertexId(t), b),
            );
            assert_eq!(out, reference, "workers = {workers}");
            let stats = pool.stats();
            assert_eq!(stats.queries, queries.len() as u64);
            assert_eq!(
                stats.reuse_hits, stats.queries,
                "pre-sized pool engines must never allocate"
            );
        }
    }

    #[test]
    fn item_i_runs_on_worker_i_mod_w() {
        let g = path_graph(40);
        let csr = CsrGraph::from(&g);
        // Item i searches from 0 to i mod 40, so its settle count depends
        // on i and each engine's total shows which items it ran.
        let queries: Vec<(usize, usize)> = (0..100).map(|i| (0, i % 40)).collect();
        let query = |e: &mut DijkstraEngine, graph: &CsrGraph, &(s, t): &(usize, usize)| {
            e.bounded_distance(graph, VertexId(s), VertexId(t), f64::INFINITY)
        };
        let mut lone = DijkstraEngine::with_capacity_for(40, g.num_edges());
        let settled: Vec<u64> = queries
            .iter()
            .map(|q| {
                let before = lone.stats().settled_vertices;
                query(&mut lone, &csr, q);
                lone.stats().settled_vertices - before
            })
            .collect();
        for workers in [2, 3] {
            let mut pool = EnginePool::with_capacity_for(workers, 40, g.num_edges());
            let mut out: Vec<Option<f64>> = vec![None; queries.len()];
            pool.map_batch(csr.snapshot(), &queries, &mut out, query);
            for (w, engine) in pool.engines.iter().enumerate() {
                let mine = (w..queries.len()).step_by(workers);
                let stats = engine.stats();
                let at = format!("workers = {workers}, w = {w}");
                assert_eq!(stats.queries, mine.len() as u64, "{at}");
                let expected: u64 = mine.map(|i| settled[i]).sum();
                assert_eq!(stats.settled_vertices, expected, "{at}");
            }
        }
    }

    #[test]
    fn small_batches_run_inline_on_one_worker() {
        let g = path_graph(10);
        let csr = CsrGraph::from(&g);
        let mut pool = EnginePool::with_capacity_for(8, 10, g.num_edges());
        let queries = [(0usize, 9usize)];
        let mut out = [None];
        pool.map_batch(csr.snapshot(), &queries, &mut out, |e, graph, &(s, t)| {
            e.bounded_distance(graph, VertexId(s), VertexId(t), 100.0)
        });
        assert_eq!(out, [Some(9.0)]);
        // Only worker 0 ran, and since only one worker *participated*, the
        // inline batch reads as perfectly balanced — not as 1/8 imbalance.
        assert_eq!(pool.stats().queries, 1);
        assert!((pool.utilization() - 1.0).abs() < 1e-12);
        pool.reset_stats();
        assert_eq!(pool.stats(), EngineStats::default());
        assert!((pool.utilization() - 1.0).abs() < 1e-12, "idle pool is 1.0");
    }

    #[test]
    fn empty_batch_is_a_no_op_and_lengths_must_match() {
        let csr = CsrGraph::new(3);
        let mut pool = EnginePool::new(2);
        let queries: [(usize, usize); 0] = [];
        let mut out: [bool; 0] = [];
        pool.map_batch(csr.snapshot(), &queries, &mut out, |_, _, _| true);
        assert_eq!(pool.stats().queries, 0);
        assert_eq!(pool.workers(), 2);
        // A zero-item batch leaves every busy timer at zero — utilization
        // must report the idle value, not divide by it.
        assert!((pool.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(EnginePool::new(0).workers(), 1, "workers clamp to 1");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_output_slice_is_rejected() {
        let csr = CsrGraph::new(2);
        let mut pool = EnginePool::new(1);
        let queries = [(0usize, 1usize)];
        let mut out: [bool; 2] = [false; 2];
        pool.map_batch(csr.snapshot(), &queries, &mut out, |_, _, _| true);
    }

    #[test]
    fn commit_engine_counters_aggregate_with_the_pool() {
        let g = path_graph(6);
        let csr = CsrGraph::from(&g);
        let mut pool = EnginePool::with_capacity_for(2, 6, g.num_edges());
        pool.commit_engine()
            .bounded_distance(&csr, VertexId(0), VertexId(5), 100.0);
        assert_eq!(pool.stats().queries, 1);
    }

    #[test]
    fn try_map_batch_refuses_stale_epochs_and_runs_current_ones() {
        let mut g = path_graph(8);
        let mut csr = CsrGraph::from(&g);
        let mut pool = EnginePool::with_capacity_for(2, 8, g.num_edges());
        let queries = [(0usize, 7usize)];
        let stamp = csr.epoch();
        let mut out = [None];
        pool.try_map_batch(
            csr.snapshot(),
            stamp,
            &queries,
            &mut out,
            |e, graph, &(s, t)| e.bounded_distance(graph, VertexId(s), VertexId(t), 100.0),
        )
        .unwrap();
        assert_eq!(out, [Some(7.0)]);
        // Mutate the graph: the old stamp must be refused, queries unrun.
        csr.append_edge(VertexId(0), VertexId(7), 1.0);
        g.add_edge(VertexId(0), VertexId(7), 1.0);
        let queries_before = pool.stats().queries;
        let mut out = [None];
        let err = pool
            .try_map_batch(
                csr.snapshot(),
                stamp,
                &queries,
                &mut out,
                |e, graph, &(s, t)| e.bounded_distance(graph, VertexId(s), VertexId(t), 100.0),
            )
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::GraphError::StaleEpoch {
                stamped: stamp,
                current: stamp + 1
            }
        );
        assert_eq!(out, [None], "a refused batch writes nothing");
        assert_eq!(pool.stats().queries, queries_before);
        // A refreshed stamp answers against the mutated graph.
        pool.try_map_batch(
            csr.snapshot(),
            csr.epoch(),
            &queries,
            &mut out,
            |e, graph, &(s, t)| e.bounded_distance(graph, VertexId(s), VertexId(t), 100.0),
        )
        .unwrap();
        assert_eq!(out, [Some(1.0)]);
    }

    #[test]
    fn fill_chunked_matches_sequential_at_every_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 4, 8, 64] {
            let mut out = vec![0usize; 37];
            fill_chunked(workers, &mut out, |i| i * i + 1);
            assert_eq!(out, expected, "workers = {workers}");
        }
        let mut empty: Vec<usize> = vec![];
        fill_chunked(4, &mut empty, |i| i);
        assert!(empty.is_empty());
    }
}
