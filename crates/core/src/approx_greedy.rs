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
//!    edges in `(w, u, v)` order: one [`crate::greedy`] pass over them,
//!    starting from the light edges. Every distance query is the exact
//!    admission query of the graph greedy, so the output is exactly the
//!    greedy spanner of the heavy candidates on top of the light ones, and
//!    a valid `(1 + ε)`-spanner of the metric. With
//!    [`ApproxGreedyParams::threads`] `> 1` the pass runs the batched
//!    filter-then-commit loop; the output is bit-identical at every thread
//!    count.
//!
//! **What is not implemented.** The paper's `O(n log n)` running time
//! replaces the exact queries of step 3 by cluster-graph certificates,
//! whose cluster radius must satisfy Lemma 13 for the output to stay
//! `O(1)`-light. This crate does not implement them: the simulation costs
//! one exact search per heavy candidate whose endpoints the spanner already
//! connects. The lightness of the result is what Theorem 6 (via Lemma 13)
//! bounds; the experiments compare it against the exact greedy spanner's.

use spanner_graph::parallel::EnginePool;
use spanner_graph::WeightedGraph;
use spanner_metric::MetricSpace;

use crate::bounded_degree::bounded_degree_spanner;
use crate::error::{validate_epsilon, SpannerError};
use crate::greedy::{greedy_pass, spanner_for_candidates};

/// Fraction of the ε budget spent on the base spanner (the split used
/// throughout Section 5); the greedy simulation gets the rest.
const BASE_FRACTION: f64 = 1.0 / 3.0;

/// Parameters of the approximate-greedy construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxGreedyParams {
    /// Target overall stretch is `1 + epsilon`.
    pub epsilon: f64,
    /// Worker threads for the greedy simulation (1 = sequential; the output
    /// is identical at every value).
    pub threads: usize,
}

impl ApproxGreedyParams {
    /// Default parameters for a target stretch of `1 + epsilon`.
    pub fn new(epsilon: f64) -> Self {
        ApproxGreedyParams {
            epsilon,
            threads: 1,
        }
    }

    /// The ε of the base spanner: one third of the budget.
    pub fn base_epsilon(&self) -> f64 {
        self.epsilon * BASE_FRACTION
    }

    /// Stretch of the base spanner (`1 + ε/3`).
    pub fn base_stretch(&self) -> f64 {
        1.0 + self.base_epsilon()
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
    /// Distance queries issued during the greedy simulation (candidates
    /// across the spanner's components are admitted without one).
    pub distance_queries: usize,
    /// Queries the engine answered without growing its workspace (zero heap
    /// allocations).
    pub workspace_reuse_hits: usize,
    /// Peak Dijkstra frontier over all simulation queries (both queues
    /// combined for the bidirectional admission query).
    pub peak_frontier: usize,
    /// Weight-class batches the parallel filter-then-commit simulation
    /// processed (zero when sequential).
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
    let n = metric.len();
    if n == 0 {
        return Err(SpannerError::EmptyInput);
    }
    // Step 1: bounded-degree base spanner.
    let base = bounded_degree_spanner(metric, params.base_epsilon())?;
    // The growing output lives in appendable CSR form, its rows reserved at
    // the base's degrees, and a pool of engines — worker 0 doubles as the
    // sequential-path engine — is pre-sized for the worst case (the output
    // is a subgraph of the base), so no spanner row ever moves and every
    // simulation query is allocation-free.
    let mut spanner = spanner_for_candidates(
        n,
        base.edges()
            .iter()
            .map(|e| (e.u.index() as u32, e.v.index() as u32)),
    );
    let mut pool = EnginePool::with_capacity_for(params.threads, n, base.num_edges());

    // Step 2: light edges go straight to the output.
    let heaviest = base.edges().iter().map(|e| e.weight).fold(0.0f64, f64::max);
    let light_threshold = heaviest / n as f64;
    let mut heavy: Vec<(u32, u32, f64)> = Vec::new();
    let mut light_edges = 0;
    for e in base.edges() {
        if e.weight <= light_threshold {
            spanner.append_edge(e.u, e.v, e.weight);
            light_edges += 1;
        } else {
            heavy.push((e.u.index() as u32, e.v.index() as u32, e.weight));
        }
    }
    heavy.sort_by(|a, b| {
        a.2.total_cmp(&b.2)
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });

    // Step 3: one greedy pass over the heavy edges, on top of the light
    // ones, with exact admission queries.
    let pass = greedy_pass(&mut spanner, &mut pool, &heavy, params.simulation_stretch());
    let engine_stats = pool.stats();
    Ok(ApproxGreedySpanner {
        spanner: spanner.to_weighted_graph(),
        base,
        light_edges,
        simulated_edges: heavy.len(),
        simulated_added: pass.added.len(),
        distance_queries: engine_stats.queries as usize,
        workspace_reuse_hits: engine_stats.reuse_hits as usize,
        peak_frontier: engine_stats.peak_frontier,
        batches: pass.batches,
        batch_recheck_hits: pass.recheck_hits,
        threads_used: pool.workers(),
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
    use spanner_graph::dijkstra::bounded_distance;
    use spanner_metric::generators::{
        clustered_points, exponential_line, grid_points_2d, uniform_points,
    };
    use spanner_metric::{EuclideanSpace, MetricSpace};

    fn run(metric: &impl MetricSpace, epsilon: f64) -> Result<ApproxGreedySpanner, SpannerError> {
        run_approx_greedy(metric, ApproxGreedyParams::new(epsilon))
    }

    /// Steps 1–3 written out on a `WeightedGraph` with the one-shot
    /// `dijkstra` search: the same base, the light edges (`w ≤ D/n`) in base
    /// order, then every heavy edge in `(w, u, v)` order, kept when the
    /// spanner has no path within the simulation stretch.
    fn reference_loop(metric: &impl MetricSpace, params: ApproxGreedyParams) -> WeightedGraph {
        let base = bounded_degree_spanner(metric, params.base_epsilon()).unwrap();
        let n = metric.len();
        let heaviest = base.edges().iter().map(|e| e.weight).fold(0.0f64, f64::max);
        let mut spanner = WeightedGraph::new(n);
        let mut heavy = Vec::new();
        for e in base.edges() {
            if e.weight <= heaviest / n as f64 {
                spanner.add_edge(e.u, e.v, e.weight);
            } else {
                heavy.push(*e);
            }
        }
        heavy.sort_by(|a, b| a.weight.total_cmp(&b.weight).then(a.key().cmp(&b.key())));
        let t = params.simulation_stretch();
        for e in heavy {
            if bounded_distance(&spanner, e.u, e.v, t * e.weight).is_none() {
                spanner.add_edge(e.u, e.v, e.weight);
            }
        }
        spanner
    }

    /// Pins the output of `metric` to [`reference_loop`] at several ε and
    /// thread counts.
    fn assert_matches_reference(metric: &impl MetricSpace, name: &str) {
        for eps in [0.25, 0.5, 0.9] {
            let reference = reference_loop(metric, ApproxGreedyParams::new(eps));
            for threads in [1, 2, 8] {
                let params = ApproxGreedyParams {
                    epsilon: eps,
                    threads,
                };
                let r = run_approx_greedy(metric, params).unwrap();
                assert_eq!(
                    r.spanner, reference,
                    "{name}, eps = {eps}, threads = {threads}"
                );
                assert!(r.simulated_added > 0, "{name}: the simulation kept nothing");
            }
        }
    }

    #[test]
    fn exact_simulation_matches_a_reference_loop() {
        let mut rng = SmallRng::seed_from_u64(86);
        assert_matches_reference(&uniform_points::<2, _>(120, &mut rng), "uniform");
        assert_matches_reference(
            &clustered_points::<2, _>(120, 6, 0.03, &mut rng),
            "clustered",
        );
        // High spread: the weights span seven orders of magnitude.
        assert_matches_reference(&exponential_line(30, 1.8), "exponential line");
        // Integer coordinates: many equal weights, so ties decide.
        assert_matches_reference(&grid_points_2d(9, 11, 0.0, &mut rng), "integer grid");
    }

    #[test]
    fn a_base_edge_of_weight_exactly_d_over_n_is_light() {
        // Points 0, 4.5, 10, 18 on a line: the base of four points keeps
        // every pair, so D = 18, n = 4 and the first gap weighs exactly
        // D/n = 4.5.
        let s = EuclideanSpace::from_coords([[0.0], [4.5], [10.0], [18.0]]);
        let r = run(&s, 0.5).unwrap();
        let heaviest = r
            .base
            .edges()
            .iter()
            .map(|e| e.weight)
            .fold(0.0f64, f64::max);
        let threshold = heaviest / s.len() as f64;
        let at_threshold = r.base.edges().iter().filter(|e| e.weight == threshold);
        assert_eq!(
            at_threshold.count(),
            1,
            "the metric must put a base edge on D/n"
        );
        let light = r.base.edges().iter().filter(|e| e.weight <= threshold);
        assert_eq!(r.light_edges, light.count(), "w = D/n must count as light");
    }

    #[test]
    fn rejects_invalid_parameters() {
        let s = EuclideanSpace::from_coords([[0.0], [1.0]]);
        assert!(run(&s, 0.0).is_err());
        assert!(run(&s, 1.0).is_err());
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
                "threads = {threads}: the simulation must be thread-count invariant"
            );
            assert_eq!(parallel.simulated_added, sequential.simulated_added);
            assert_eq!(parallel.threads_used, threads);
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
    fn works_on_high_spread_metrics() {
        let s = exponential_line(20, 1.8);
        let complete = s.to_complete_graph();
        let r = run(&s, 0.3).unwrap();
        assert!(max_stretch_all_pairs(&complete, &r.spanner) <= 1.3 + 1e-9);
    }
}
