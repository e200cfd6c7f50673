//! Property suite for the determinism guarantee of the batched
//! filter-then-commit parallel greedy: across random graphs, stretch
//! values, weight families (uniform, dense near-uniform, high-spread,
//! tie-heavy integers, 0.1-step decimals) and thread counts {1, 2, 4, 8},
//! the pipeline's output must be **byte-identical** to the sequential
//! reference loop (`greedy_spanner_reference`) — same edges, same
//! insertion order, same exact weights.

use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::Spanner;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::{complete_graph_with_weights, erdos_renyi_connected};
use spanner_graph::WeightedGraph;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts the pipeline output equals the reference bit for bit at every
/// thread count.
fn assert_thread_count_invariant(g: &WeightedGraph, stretch: f64) {
    let reference = greedy_spanner_reference(g, stretch).expect("valid stretch");
    for threads in THREAD_COUNTS {
        let out = Spanner::greedy()
            .stretch(stretch)
            .threads(threads)
            .build(g)
            .expect("valid stretch");
        // `WeightedGraph` equality is structural and exact: same vertex
        // count, same edge list in the same insertion order, same f64
        // weights — byte-identical output, not just set-equal.
        assert_eq!(
            out.spanner,
            *reference.spanner(),
            "threads = {threads}, t = {stretch}, n = {}, m = {}",
            g.num_vertices(),
            g.num_edges()
        );
        assert_eq!(out.stats.edges_added, reference.edges_added());
        assert_eq!(out.stats.threads_used, threads);
        assert_eq!(
            out.stats.workspace_reuse_hits, out.stats.distance_queries,
            "threads = {threads}: a pool engine allocated mid-construction"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse-to-medium random graphs across the stretch range.
    #[test]
    fn parallel_greedy_matches_reference_on_er_graphs(
        seed in 0u64..10_000,
        n in 8usize..60,
        stretch in 1.0f64..6.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, 1.0..10.0, &mut rng);
        assert_thread_count_invariant(&g, stretch);
    }

    /// Dense graphs with near-uniform weights: many candidates share one
    /// weight-class batch, which maximizes snapshot staleness and exercises
    /// the commit re-check path hard.
    #[test]
    fn parallel_greedy_matches_reference_on_dense_uniform_weights(
        seed in 0u64..10_000,
        n in 6usize..30,
        stretch in 1.0f64..3.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = complete_graph_with_weights(n, 1.0..1.05, &mut rng);
        assert_thread_count_invariant(&g, stretch);
    }

    /// High-spread weights: many tiny weight-class batches, exercising the
    /// batch-boundary logic and the inline small-batch path.
    #[test]
    fn parallel_greedy_matches_reference_on_high_spread_weights(
        seed in 0u64..10_000,
        n in 8usize..40,
        stretch in 1.0f64..4.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.4, 1.0..10_000.0, &mut rng);
        assert_thread_count_invariant(&g, stretch);
    }

    /// Integer weights in {1, 2, 3} at integer stretch: detours tie the
    /// admission bound `t·w` exactly all the time, so every admission is
    /// decided at the edge of the bidirectional query's rounding band.
    #[test]
    fn parallel_greedy_matches_reference_on_integer_tie_weights(
        seed in 0u64..10_000,
        n in 8usize..50,
        stretch in 1u32..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = with_weights(&erdos_renyi_connected(n, 0.35, 1.0..2.0, &mut rng), |_| {
            rng.gen_range(1..4) as f64
        });
        assert_thread_count_invariant(&g, stretch as f64);
    }

    /// 0.1-step decimal weights: detour sums round differently depending on
    /// the order they are added in, so a detour that ties `t·w` in real
    /// arithmetic lands one ulp either side of it in floating point.
    #[test]
    fn parallel_greedy_matches_reference_on_decimal_weights(
        seed in 0u64..10_000,
        n in 8usize..50,
        stretch in 1u32..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = with_weights(&erdos_renyi_connected(n, 0.35, 1.0..2.0, &mut rng), |_| {
            rng.gen_range(1..31) as f64 * 0.1
        });
        assert_thread_count_invariant(&g, stretch as f64);
    }
}

/// `g`'s topology with every weight replaced by `weight(old weight)`.
fn with_weights(g: &WeightedGraph, mut weight: impl FnMut(f64) -> f64) -> WeightedGraph {
    let mut out = WeightedGraph::new(g.num_vertices());
    for e in g.edges() {
        out.add_edge(e.u, e.v, weight(e.weight));
    }
    out
}
