//! The approximate-greedy `(1 + ε)`-spanner for doubling metrics
//! (Section 5 of the paper, after [DN97, GLN02]).
//!
//! The algorithm follows the sketch of Section 5.1:
//!
//! 1. Build a bounded-degree base spanner `G′` of the metric with stretch
//!    `√(t/t′)` (here: a net-tree spanner with stretch `1 + ε/3`), so only
//!    `O(n)` candidate edges are ever examined.
//! 2. Take all *light* edges of `G′` (weight at most `D/n`, where `D` is the
//!    heaviest `G′` edge) directly into the output — their total weight is
//!    `O(w(MST))`.
//! 3. Simulate the greedy algorithm with stretch `√(t·t′)` on the remaining
//!    edges, bucketed by weight. Distance queries are answered either by a
//!    distance-bounded Dijkstra on the growing spanner (default — exact, so
//!    the output is as light as a greedy run over the same candidates) or on
//!    a [`ClusterGraph`] whose cluster radius is proportional to the
//!    current bucket's scale (the \[GLN02\] trade: cheaper queries,
//!    slightly more edges). Both certificates are
//!    sound **upper bounds** on the true spanner distance, so the output is
//!    always a valid `(1 + ε)`-spanner of the metric.
//!
//! In the exact-certificate mode the per-bucket simulation runs the same
//! batched **filter-then-commit** loop as the graph greedy
//! (see [`crate::greedy`]): each bucket's candidates are filtered in
//! parallel against a frozen snapshot of the growing spanner and survivors
//! are committed sequentially with an exact re-check, so the output is
//! bit-identical at every thread count ([`ApproxGreedyParams::threads`]).
//! The cluster-graph mode stays sequential — its certificates mutate shared
//! cluster state per commit.
//!
//! The lightness of the result is what Theorem 6 (via Lemma 13) bounds; the
//! experiments compare it against the exact greedy spanner's.

use spanner_graph::parallel::EnginePool;
use spanner_graph::{VertexId, WeightedGraph};
use spanner_metric::MetricSpace;

use crate::bounded_degree::bounded_degree_spanner;
use crate::cluster_graph::ClusterGraph;
use crate::error::{validate_epsilon, SpannerError};
use crate::greedy::{greedy_into, spanner_for_candidates};

/// Tuning parameters of the approximate-greedy construction.
///
/// The defaults implement the split used throughout Section 5: one third of
/// the ε budget goes to the base spanner, the rest to the greedy simulation,
/// and cluster radii are a `1/16` fraction of the current weight scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxGreedyParams {
    /// Target overall stretch is `1 + epsilon`.
    pub epsilon: f64,
    /// Fraction of ε spent on the base spanner (`0 < base_fraction < 1`).
    pub base_fraction: f64,
    /// Ratio between consecutive weight buckets (`> 1`).
    pub bucket_ratio: f64,
    /// Cluster radius as a fraction of the current bucket's lower weight
    /// bound.
    pub cluster_radius_fraction: f64,
    /// When `true`, distance queries during the greedy simulation are
    /// answered on the cluster graph (the \[GLN02\] speed/quality trade);
    /// when `false` (default), a distance-bounded Dijkstra on the growing
    /// spanner answers them exactly, which keeps the output as light as the
    /// greedy run over the same candidates.
    pub use_cluster_graph: bool,
    /// Worker threads for the exact-mode greedy simulation (1 = sequential;
    /// the output is identical at every value). Ignored in cluster-graph
    /// mode.
    pub threads: usize,
}

impl ApproxGreedyParams {
    /// Default parameters for a target stretch of `1 + epsilon`.
    pub fn new(epsilon: f64) -> Self {
        ApproxGreedyParams {
            epsilon,
            base_fraction: 1.0 / 3.0,
            bucket_ratio: 4.0,
            cluster_radius_fraction: 1.0 / 16.0,
            use_cluster_graph: false,
            threads: 1,
        }
    }

    /// Stretch of the base spanner (`1 + ε·base_fraction`).
    pub fn base_stretch(&self) -> f64 {
        1.0 + self.epsilon * self.base_fraction
    }

    /// Stretch used by the greedy simulation over base edges, chosen so that
    /// the composition with the base stretch stays within `1 + ε`.
    pub fn simulation_stretch(&self) -> f64 {
        (1.0 + self.epsilon) / self.base_stretch()
    }
}

/// The result of the approximate-greedy construction.
#[derive(Debug, Clone)]
pub struct ApproxGreedySpanner {
    /// The output spanner over the metric's point indices.
    pub spanner: WeightedGraph,
    /// The bounded-degree base spanner the candidates were drawn from.
    pub base: WeightedGraph,
    /// Number of candidate edges taken unconditionally as light edges.
    pub light_edges: usize,
    /// Number of candidate edges examined by the greedy simulation.
    pub simulated_edges: usize,
    /// Number of simulated edges that were added.
    pub simulated_added: usize,
    /// Number of cluster-graph rebuilds (one per weight bucket).
    pub bucket_count: usize,
    /// Distance queries issued during the greedy simulation (exact bounded
    /// Dijkstra or cluster-graph certificates, depending on the mode).
    pub distance_queries: usize,
    /// Queries the engine answered without growing its workspace (zero heap
    /// allocations).
    pub workspace_reuse_hits: usize,
    /// Peak Dijkstra frontier over all simulation queries (both queues
    /// combined for the bidirectional admission query).
    pub peak_frontier: usize,
    /// Weight-class batches the parallel filter-then-commit simulation
    /// processed (zero in sequential and cluster-graph modes).
    pub batches: usize,
    /// Filter survivors the exact commit re-check rejected.
    pub batch_recheck_hits: usize,
    /// Worker threads the simulation ran with.
    pub threads_used: usize,
    /// Mean busy fraction of the worker pool (1.0 when sequential).
    pub worker_utilization: f64,
}

/// The approximate-greedy engine behind the `ApproxGreedy` implementation of
/// [`crate::algorithm::SpannerAlgorithm`] (reach it through
/// `Spanner::approx_greedy().epsilon(eps).threads(n).build(&metric)`).
pub(crate) fn run_approx_greedy<M: MetricSpace + ?Sized>(
    metric: &M,
    params: ApproxGreedyParams,
) -> Result<ApproxGreedySpanner, SpannerError> {
    validate_epsilon(params.epsilon)?;
    let params_valid = params.base_fraction > 0.0
        && params.base_fraction < 1.0
        && params.bucket_ratio > 1.0
        && params.cluster_radius_fraction > 0.0;
    if !params_valid {
        return Err(SpannerError::InvalidEpsilon {
            epsilon: params.epsilon,
        });
    }
    let n = metric.len();
    if n == 0 {
        return Err(SpannerError::EmptyInput);
    }
    let threads = params.threads.max(1);
    // Cluster-graph certificates mutate shared cluster state per commit, so
    // that mode runs sequentially regardless of the requested budget — and
    // must report so, or stats consumers would compare phantom scaling.
    let reported_threads = if params.use_cluster_graph { 1 } else { threads };

    // Step 1: bounded-degree base spanner.
    let base_eps = params.epsilon * params.base_fraction;
    let base = bounded_degree_spanner(metric, base_eps)?;
    // The growing output lives in appendable CSR form, its rows reserved at
    // the base's degrees, and a pool of engines — worker 0 doubles as the
    // sequential-path engine — is pre-sized for the worst case (the output
    // is a subgraph of the base), so the spanner never re-packs and every
    // exact simulation query is allocation-free.
    let mut spanner = spanner_for_candidates(
        n,
        base.edges()
            .iter()
            .map(|e| (e.u.index() as u32, e.v.index() as u32)),
    );
    let mut pool = EnginePool::with_capacity_for(threads, n, base.num_edges());
    if base.num_edges() == 0 {
        return Ok(ApproxGreedySpanner {
            spanner: spanner.to_weighted_graph(),
            base,
            light_edges: 0,
            simulated_edges: 0,
            simulated_added: 0,
            bucket_count: 0,
            distance_queries: 0,
            workspace_reuse_hits: 0,
            peak_frontier: 0,
            batches: 0,
            batch_recheck_hits: 0,
            threads_used: reported_threads,
            worker_utilization: 1.0,
        });
    }

    // Step 2: light edges go straight to the output.
    let heaviest = base.edges().iter().map(|e| e.weight).fold(0.0f64, f64::max);
    let light_threshold = heaviest / n as f64;
    let mut heavy: Vec<(usize, usize, f64)> = Vec::new();
    let mut light_edges = 0;
    for e in base.edges() {
        if e.weight <= light_threshold {
            spanner.append_edge(e.u, e.v, e.weight);
            light_edges += 1;
        } else {
            heavy.push((e.u.index(), e.v.index(), e.weight));
        }
    }
    heavy.sort_by(|a, b| {
        a.2.total_cmp(&b.2)
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });

    // Step 3: bucketed greedy simulation. Distance queries are either exact
    // bounded-Dijkstra searches on the growing spanner (default; batched
    // filter-then-commit when threads > 1) or the cluster-graph
    // over-estimates of Section 5.1; both are sound, so the output always
    // meets the stretch target.
    let t_sim = params.simulation_stretch();
    let mut simulated_added = 0;
    let mut bucket_count = 0;
    let mut batches = 0;
    let mut batch_recheck_hits = 0;
    let mut index = 0;
    // Counters of every engine the simulation drives: each bucket's
    // cluster-graph engine as the bucket finishes, the pool's at the end.
    let mut engine_stats = spanner_graph::EngineStats::default();
    while index < heavy.len() {
        let bucket_floor = heavy[index].2;
        let bucket_ceiling = bucket_floor * params.bucket_ratio;
        let mut bucket_end = index;
        while bucket_end < heavy.len() && heavy[bucket_end].2 < bucket_ceiling {
            bucket_end += 1;
        }
        bucket_count += 1;
        if params.use_cluster_graph {
            let radius = params.epsilon * params.cluster_radius_fraction * bucket_floor;
            let mut clusters = ClusterGraph::build_csr(&spanner, radius);
            for &(u, v, w) in &heavy[index..bucket_end] {
                let bound = t_sim * w;
                if !clusters.certifies_within(VertexId(u), VertexId(v), bound) {
                    spanner.append_edge(VertexId(u), VertexId(v), w);
                    clusters.add_spanner_edge(VertexId(u), VertexId(v), w);
                    simulated_added += 1;
                }
            }
            engine_stats.merge(&clusters.engine_stats());
        } else {
            let candidates: Vec<(u32, u32, f64)> = heavy[index..bucket_end]
                .iter()
                .map(|&(u, v, w)| (u as u32, v as u32, w))
                .collect();
            let outcome = greedy_into(&mut spanner, &mut pool, &candidates, t_sim);
            simulated_added += outcome.added.len();
            batches += outcome.batches;
            batch_recheck_hits += outcome.recheck_hits;
        }
        index = bucket_end;
    }

    engine_stats.merge(&pool.stats());
    Ok(ApproxGreedySpanner {
        spanner: spanner.to_weighted_graph(),
        base,
        light_edges,
        simulated_edges: heavy.len(),
        simulated_added,
        bucket_count,
        distance_queries: engine_stats.queries as usize,
        workspace_reuse_hits: engine_stats.reuse_hits as usize,
        peak_frontier: engine_stats.peak_frontier,
        batches,
        batch_recheck_hits,
        threads_used: reported_threads,
        worker_utilization: pool.utilization(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{lightness, max_stretch_all_pairs};
    use crate::greedy_metric::greedy_spanner_of_metric_with_reference;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_metric::generators::{clustered_points, exponential_line, uniform_points};
    use spanner_metric::{EuclideanSpace, MetricSpace};

    fn run(metric: &impl MetricSpace, epsilon: f64) -> Result<ApproxGreedySpanner, SpannerError> {
        run_approx_greedy(metric, ApproxGreedyParams::new(epsilon))
    }

    #[test]
    fn rejects_invalid_parameters() {
        let s = EuclideanSpace::from_coords([[0.0], [1.0]]);
        assert!(run(&s, 0.0).is_err());
        assert!(run(&s, 1.0).is_err());
        let mut params = ApproxGreedyParams::new(0.5);
        params.bucket_ratio = 1.0;
        assert!(run_approx_greedy(&s, params).is_err());
        let empty = EuclideanSpace::<1>::new(vec![]);
        assert!(matches!(run(&empty, 0.5), Err(SpannerError::EmptyInput)));
    }

    #[test]
    fn parameter_split_composes_to_target_stretch() {
        let p = ApproxGreedyParams::new(0.3);
        let composed = p.base_stretch() * p.simulation_stretch();
        assert!((composed - 1.3).abs() < 1e-12);
        assert!(p.simulation_stretch() > 1.0);
    }

    #[test]
    fn single_point_metric() {
        let s = EuclideanSpace::from_coords([[1.0, 1.0]]);
        let r = run(&s, 0.5).unwrap();
        assert_eq!(r.spanner.num_edges(), 0);
        assert_eq!(r.bucket_count, 0);
    }

    #[test]
    fn output_is_a_one_plus_eps_spanner() {
        let mut rng = SmallRng::seed_from_u64(81);
        let s = uniform_points::<2, _>(60, &mut rng);
        let complete = s.to_complete_graph();
        for eps in [0.25, 0.5, 0.75] {
            let r = run(&s, eps).unwrap();
            let stretch = max_stretch_all_pairs(&complete, &r.spanner);
            assert!(
                stretch <= 1.0 + eps + 1e-9,
                "eps = {eps}: stretch {stretch} exceeds target"
            );
            assert!(r.spanner.is_edge_subgraph_of(&r.base));
        }
    }

    #[test]
    fn parallel_simulation_matches_sequential_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(85);
        let s = clustered_points::<2, _>(90, 5, 0.04, &mut rng);
        let sequential = run(&s, 0.5).unwrap();
        for threads in [2, 4, 8] {
            let mut params = ApproxGreedyParams::new(0.5);
            params.threads = threads;
            let parallel = run_approx_greedy(&s, params).unwrap();
            assert_eq!(
                parallel.spanner, sequential.spanner,
                "threads = {threads}: exact-mode simulation must be thread-count invariant"
            );
            assert_eq!(parallel.simulated_added, sequential.simulated_added);
            assert_eq!(parallel.bucket_count, sequential.bucket_count);
            assert_eq!(parallel.threads_used, threads);
            assert!(parallel.batches >= parallel.bucket_count);
            assert_eq!(
                parallel.workspace_reuse_hits, parallel.distance_queries,
                "pool engines must stay allocation-free"
            );
        }
    }

    #[test]
    fn output_is_sparser_than_base_and_bounded_by_base_degree() {
        let mut rng = SmallRng::seed_from_u64(82);
        let s = uniform_points::<2, _>(120, &mut rng);
        let r = run(&s, 0.5).unwrap();
        assert!(r.spanner.num_edges() <= r.base.num_edges());
        assert!(r.spanner.max_degree() <= r.base.max_degree());
        assert_eq!(r.light_edges + r.simulated_edges, r.base.num_edges());
        assert!(r.simulated_added <= r.simulated_edges);
        assert!(r.bucket_count >= 1);
    }

    #[test]
    fn lightness_is_comparable_to_exact_greedy() {
        let mut rng = SmallRng::seed_from_u64(83);
        let s = clustered_points::<2, _>(80, 4, 0.05, &mut rng);
        let complete = s.to_complete_graph();
        let eps = 0.5;
        let approx = run(&s, eps).unwrap();
        let exact = greedy_spanner_of_metric_with_reference(&s, 1.0 + eps, 1).unwrap();
        let l_approx = lightness(&complete, &approx.spanner);
        let l_exact = lightness(&complete, &exact.spanner);
        // Theorem 6 / Lemma 13: the approximate-greedy spanner's lightness is
        // within a constant factor of the greedy's. The constant here is
        // generous; the experiments report the measured ratio.
        assert!(
            l_approx <= 8.0 * l_exact + 1e-9,
            "approx lightness {l_approx} too far above exact {l_exact}"
        );
    }

    #[test]
    fn cluster_graph_mode_is_also_a_valid_spanner() {
        let mut rng = SmallRng::seed_from_u64(84);
        let s = uniform_points::<2, _>(70, &mut rng);
        let complete = s.to_complete_graph();
        let mut params = ApproxGreedyParams::new(0.5);
        params.use_cluster_graph = true;
        let clustered_mode = run_approx_greedy(&s, params).unwrap();
        let exact_mode = run(&s, 0.5).unwrap();
        assert!(max_stretch_all_pairs(&complete, &clustered_mode.spanner) <= 1.5 + 1e-9);
        // The cluster-graph certificates are looser, so that mode never keeps
        // fewer edges than the exact-certificate mode.
        assert!(clustered_mode.spanner.num_edges() >= exact_mode.spanner.num_edges());
    }

    #[test]
    fn works_on_high_spread_metrics() {
        let s = exponential_line(20, 1.8);
        let complete = s.to_complete_graph();
        let r = run(&s, 0.3).unwrap();
        assert!(max_stretch_all_pairs(&complete, &r.spanner) <= 1.3 + 1e-9);
        assert!(
            r.bucket_count >= 2,
            "high-spread input should span several buckets"
        );
    }
}
