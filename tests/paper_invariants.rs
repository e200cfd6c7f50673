//! Property-based tests of the paper's structural claims, driven by proptest:
//! random graphs and point sets are generated and the invariants the proofs
//! rely on are checked exhaustively on each instance.

use proptest::prelude::*;

use greedy_spanner::analysis::{is_t_spanner, max_stretch_all_pairs, max_stretch_over_edges};
use greedy_spanner::approx_greedy::ApproxGreedyParams;
use greedy_spanner::bounded_degree::bounded_degree_spanner;
use greedy_spanner::optimality::{contains_mst, is_own_unique_spanner, star_overlay_instance};
use greedy_spanner::Spanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::{erdos_renyi_connected, high_girth_graph};
use spanner_graph::metric_closure::metric_closure;
use spanner_graph::mst::mst_weight;
use spanner_graph::WeightedGraph;
use spanner_metric::generators::uniform_points;
use spanner_metric::{EuclideanSpace, MetricSpace, Point};

/// Strategy: a connected random weighted graph described by (n, density seed).
fn arb_connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (5usize..40, 0u64..1000, 1usize..4).prop_map(|(n, seed, density)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = density as f64 * 0.1;
        erdos_renyi_connected(n, p, 1.0..10.0, &mut rng)
    })
}

/// Strategy: a small planar point set with distinct points.
fn arb_point_set() -> impl Strategy<Value = EuclideanSpace<2>> {
    (4usize..30, 0u64..1000).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        uniform_points::<2, _>(n, &mut rng)
    })
}

/// Strategy: a stretch parameter in [1, 5].
fn arb_stretch() -> impl Strategy<Value = f64> {
    (10u32..50).prop_map(|t| t as f64 / 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The greedy output is always a t-spanner of its input (Algorithm 1's
    /// defining property).
    #[test]
    fn greedy_output_is_a_t_spanner(g in arb_connected_graph(), t in arb_stretch()) {
        let spanner = Spanner::greedy().stretch(t).build(&g).unwrap();
        prop_assert!(is_t_spanner(&g, &spanner.spanner, t));
        prop_assert!(spanner.spanner.is_edge_subgraph_of(&g));
    }

    /// Observation 2: the greedy spanner contains an MST of the input.
    #[test]
    fn greedy_contains_an_mst(g in arb_connected_graph(), t in arb_stretch()) {
        let spanner = Spanner::greedy().stretch(t).build(&g).unwrap();
        prop_assert!(contains_mst(&g, &spanner.spanner));
    }

    /// Lemma 3: the only t-spanner of the greedy t-spanner is itself.
    #[test]
    fn greedy_is_its_own_unique_spanner(g in arb_connected_graph(), t in arb_stretch()) {
        let spanner = Spanner::greedy().stretch(t).build(&g).unwrap();
        prop_assert!(is_own_unique_spanner(&spanner.spanner, t).unwrap());
    }

    /// The greedy spanner's weight is sandwiched between the MST weight
    /// (Observation 2: it contains an MST) and the input weight (it is a
    /// subgraph), and it spans the graph.
    #[test]
    fn greedy_weight_between_mst_and_input(g in arb_connected_graph(), t in arb_stretch()) {
        let spanner = Spanner::greedy().stretch(t).build(&g).unwrap();
        let w = spanner.spanner.total_weight();
        prop_assert!(w + 1e-9 >= mst_weight(&g));
        prop_assert!(w <= g.total_weight() + 1e-9);
        prop_assert!(spanner.spanner.num_edges() + 1 >= g.num_vertices());
    }

    /// Observation 6: the metric closure preserves the MST weight.
    #[test]
    fn metric_closure_preserves_mst_weight(g in arb_connected_graph()) {
        let closure = metric_closure(&g).unwrap();
        prop_assert!((mst_weight(&g) - mst_weight(&closure)).abs() <= 1e-6 * mst_weight(&g).max(1.0));
    }

    /// The greedy spanner of a metric space meets its stretch target and is
    /// never heavier than the full metric graph.
    #[test]
    fn metric_greedy_meets_stretch(points in arb_point_set(), t in arb_stretch()) {
        let complete = points.to_complete_graph();
        let result = Spanner::greedy().stretch(t).build(&points).unwrap();
        prop_assert!(max_stretch_over_edges(&complete, &result.spanner) <= t * (1.0 + 1e-9));
        prop_assert!(result.spanner.total_weight() <= complete.total_weight() + 1e-9);
    }

    /// The approximate-greedy spanner always meets the (1 + ε) stretch target
    /// and stays inside its base spanner.
    #[test]
    fn approximate_greedy_is_sound(points in arb_point_set(), eps_pct in 20u32..80) {
        let eps = eps_pct as f64 / 100.0;
        let complete = points.to_complete_graph();
        let approx = Spanner::approx_greedy().epsilon(eps).build(&points).unwrap();
        prop_assert!(max_stretch_all_pairs(&complete, &approx.spanner) <= (1.0 + eps) * (1.0 + 1e-9));
        // Theorem 6's structural guarantee: the output draws its edges from
        // the (deterministic) bounded-degree base spanner.
        let params = ApproxGreedyParams::new(eps);
        let base = bounded_degree_spanner(&points, params.base_epsilon()).unwrap();
        prop_assert!(approx.spanner.is_edge_subgraph_of(&base));
    }

    /// Baswana–Sen always meets its (2k − 1) stretch guarantee.
    #[test]
    fn baswana_sen_meets_stretch(g in arb_connected_graph(), k in 1usize..4, seed in 0u64..100) {
        let spanner = Spanner::baswana_sen().k(k).seed(seed).build(&g).unwrap();
        prop_assert!(is_t_spanner(&g, &spanner.spanner, (2 * k - 1) as f64));
    }

    /// The Figure 1 phenomenon generalizes: for any unit-weight high-girth
    /// graph H with girth g, the greedy (g − 2)-spanner of the star overlay
    /// keeps every edge of H.
    #[test]
    fn star_overlay_greedy_keeps_high_girth_edges(n in 8usize..25, seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = high_girth_graph(n, 5, 1.0, &mut rng);
        let inst = star_overlay_instance(&h, 0, 0.25).unwrap();
        let greedy = Spanner::greedy().stretch(3.0).build(&inst.graph).unwrap();
        prop_assert_eq!(inst.count_h_edges_in(&greedy.spanner), h.num_edges());
    }

    /// Distinct points always yield a connected greedy spanner whose degree is
    /// at most n − 1 and whose size is at most the number of candidate pairs.
    #[test]
    fn metric_greedy_structural_sanity(points in arb_point_set()) {
        let n = points.len();
        let result = Spanner::greedy().stretch(2.0).build(&points).unwrap();
        prop_assert!(spanner_graph::connectivity::is_connected(&result.spanner));
        prop_assert!(result.spanner.max_degree() <= n.saturating_sub(1));
        prop_assert!(result.spanner.num_edges() <= n * (n - 1) / 2);
    }
}

#[test]
fn collinear_points_regression() {
    // A hand-picked degenerate instance: equally spaced collinear points.
    let points: EuclideanSpace<1> = (0..10).map(|i| Point::new([i as f64])).collect();
    let result = Spanner::greedy().stretch(1.0).build(&points).unwrap();
    assert_eq!(result.spanner.num_edges(), 9);
}
