//! The greedy spanner of a finite metric space.
//!
//! In metric spaces (Sections 4–5 of the paper) the greedy algorithm examines
//! all `n·(n−1)/2` interpoint distances in non-decreasing order. This module
//! materializes the metric as a complete weighted graph and reuses the graph
//! greedy construction (at `threads > 1` its filter-then-commit loop, which
//! only metric inputs run), which is exactly the classical
//! `O(n² · (n log n))`-style implementation the paper refers to (the
//! [BCF+10] near-quadratic refinements change the constant factors, not the
//! output).
//!
//! Reach it through the unified pipeline —
//! `Spanner::greedy().stretch(t).threads(n).build(&metric)` — which skips the
//! `metric_graph` copy this module's result carries for analysis callers.

use spanner_graph::WeightedGraph;
use spanner_metric::MetricSpace;

use crate::error::SpannerError;
use crate::greedy::{run_greedy, GreedySpanner};

/// The result of running the greedy algorithm on a metric space: the spanner
/// (a graph over point indices) plus the complete metric graph it was built
/// from, which downstream analysis (stretch, lightness) needs as a reference.
#[derive(Debug, Clone)]
pub struct MetricGreedySpanner {
    /// The greedy spanner over the metric's point indices.
    pub spanner: WeightedGraph,
    /// The complete graph of interpoint distances the greedy examined.
    pub metric_graph: WeightedGraph,
    /// Construction bookkeeping from the underlying graph greedy run.
    pub stats: GreedyStats,
}

/// Construction statistics of a greedy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyStats {
    /// Candidate edges examined.
    pub edges_examined: usize,
    /// Edges kept in the spanner.
    pub edges_added: usize,
    /// Peak Dijkstra frontier over all distance queries (both queues
    /// combined for the bidirectional admission query).
    pub peak_frontier: usize,
    /// Bounded distance queries issued against the growing spanner.
    pub distance_queries: usize,
    /// Queries answered without growing the engine workspace (zero heap
    /// allocations).
    pub workspace_reuse_hits: usize,
    /// Weight-class batches of the parallel filter-then-commit loop (zero
    /// on the sequential path).
    pub batches: usize,
    /// Survivors rejected by the exact commit re-check.
    pub batch_recheck_hits: usize,
    /// Worker threads the construction ran with.
    pub threads_used: usize,
    /// Mean busy fraction of the worker pool (1.0 when sequential).
    pub worker_utilization: f64,
}

impl From<&GreedySpanner> for GreedyStats {
    fn from(g: &GreedySpanner) -> Self {
        GreedyStats {
            edges_examined: g.edges_examined(),
            edges_added: g.edges_added(),
            peak_frontier: g.peak_frontier(),
            distance_queries: g.distance_queries(),
            workspace_reuse_hits: g.workspace_reuse_hits(),
            batches: g.batches(),
            batch_recheck_hits: g.batch_recheck_hits(),
            threads_used: g.threads_used(),
            worker_utilization: g.worker_utilization(),
        }
    }
}

/// Runs the greedy `t`-spanner algorithm on a finite metric space with
/// `threads` workers, returning the spanner **and** the materialized
/// complete distance graph.
///
/// This is the analysis-oriented entry: downstream stretch/lightness checks
/// need the complete graph as reference, and the unified pipeline
/// (`Spanner::greedy().stretch(t).threads(n).build(&metric)`) deliberately
/// drops it after construction. Prefer the pipeline unless you need
/// [`MetricGreedySpanner::metric_graph`].
///
/// # Errors
///
/// Returns [`SpannerError::EmptyInput`] for a metric with no points or
/// [`SpannerError::InvalidStretch`] for `t < 1`.
///
/// # Example
///
/// ```
/// use greedy_spanner::greedy_metric::greedy_spanner_of_metric_with_reference;
/// use spanner_metric::EuclideanSpace;
///
/// let space = EuclideanSpace::from_coords([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]);
/// let result = greedy_spanner_of_metric_with_reference(&space, 1.1, 1)?;
/// // Collinear points: the long edge is covered by the two short ones.
/// assert_eq!(result.spanner.num_edges(), 2);
/// assert_eq!(result.metric_graph.num_edges(), 3);
/// # Ok::<(), greedy_spanner::SpannerError>(())
/// ```
pub fn greedy_spanner_of_metric_with_reference<M: MetricSpace + ?Sized>(
    metric: &M,
    t: f64,
    threads: usize,
) -> Result<MetricGreedySpanner, SpannerError> {
    if metric.is_empty() {
        return Err(SpannerError::EmptyInput);
    }
    let metric_graph = metric.to_complete_graph();
    let result = run_greedy(&metric_graph, t, threads)?;
    let stats = GreedyStats::from(&result);
    Ok(MetricGreedySpanner {
        spanner: result.into_spanner(),
        metric_graph,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_t_spanner, max_stretch_over_edges};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_metric::generators::{star_metric, uniform_points};
    use spanner_metric::EuclideanSpace;

    #[test]
    fn empty_metric_is_rejected() {
        let s = EuclideanSpace::<2>::new(vec![]);
        assert_eq!(
            greedy_spanner_of_metric_with_reference(&s, 2.0, 1).unwrap_err(),
            SpannerError::EmptyInput
        );
    }

    #[test]
    fn collinear_points_produce_a_path() {
        let s = EuclideanSpace::from_coords([[0.0], [1.0], [2.0], [3.0]]);
        let r = greedy_spanner_of_metric_with_reference(&s, 1.01, 1).unwrap();
        assert_eq!(r.spanner.num_edges(), 3);
        assert_eq!(r.stats.edges_examined, 6);
        assert_eq!(r.stats.edges_added, 3);
    }

    #[test]
    fn greedy_metric_spanner_has_required_stretch() {
        let mut rng = SmallRng::seed_from_u64(11);
        let s = uniform_points::<2, _>(40, &mut rng);
        for eps in [0.1, 0.5, 1.0] {
            let t = 1.0 + eps;
            let r = greedy_spanner_of_metric_with_reference(&s, t, 1).unwrap();
            assert!(is_t_spanner(&r.metric_graph, &r.spanner, t), "eps = {eps}");
            assert!(max_stretch_over_edges(&r.metric_graph, &r.spanner) <= t + 1e-9);
        }
    }

    #[test]
    fn parallel_metric_greedy_matches_sequential() {
        let mut rng = SmallRng::seed_from_u64(13);
        let s = uniform_points::<2, _>(50, &mut rng);
        let sequential = greedy_spanner_of_metric_with_reference(&s, 1.5, 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel = greedy_spanner_of_metric_with_reference(&s, 1.5, threads).unwrap();
            assert_eq!(
                parallel.spanner, sequential.spanner,
                "threads = {threads}: metric greedy must be thread-count invariant"
            );
            assert_eq!(parallel.stats.threads_used, threads);
        }
    }

    #[test]
    fn smaller_epsilon_gives_more_edges() {
        let mut rng = SmallRng::seed_from_u64(12);
        let s = uniform_points::<2, _>(60, &mut rng);
        let tight = greedy_spanner_of_metric_with_reference(&s, 1.05, 1)
            .unwrap()
            .spanner
            .num_edges();
        let loose = greedy_spanner_of_metric_with_reference(&s, 2.0, 1)
            .unwrap()
            .spanner
            .num_edges();
        assert!(tight >= loose);
    }

    #[test]
    fn star_metric_forces_maximum_degree() {
        // The [HM06, Smi09] degree blow-up: every hub–leaf edge is mandatory.
        let m = star_metric(20);
        let r = greedy_spanner_of_metric_with_reference(&m, 1.5, 1).unwrap();
        assert_eq!(r.spanner.degree(0.into()), 19);
        assert_eq!(r.spanner.num_edges(), 19);
    }

    #[test]
    fn single_point_metric_yields_empty_spanner() {
        let s = EuclideanSpace::from_coords([[1.0, 2.0]]);
        let r = greedy_spanner_of_metric_with_reference(&s, 2.0, 1).unwrap();
        assert_eq!(r.spanner.num_vertices(), 1);
        assert_eq!(r.spanner.num_edges(), 0);
    }
}
