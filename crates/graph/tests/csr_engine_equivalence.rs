//! Property tests pinning the CSR query substrate to the legacy free
//! functions: on random seeded graphs, [`DijkstraEngine`] over a [`CsrGraph`]
//! must return exactly the same distances, paths and ball memberships as the
//! allocation-per-query reference implementations in `spanner_graph::dijkstra`
//! — including mid-growth, while appends move full rows to the end of the
//! slot arrays.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::{ball, bounded_distance, shortest_path_distance, shortest_path_tree};
use spanner_graph::{CsrGraph, DijkstraEngine, VertexId, WeightedGraph};

/// Strategy: a random weighted graph (possibly disconnected, with parallel
/// edges) described by (n, seed, density).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..30, 0u64..1000, 1usize..7).prop_map(|(n, seed, density)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = density as f64 * 0.1;
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.1..8.0));
                    // Occasional parallel edge — the substrate must not
                    // assume simple graphs.
                    if rng.gen_bool(0.05) {
                        g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.1..8.0));
                    }
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bounded distances agree with the legacy free function for arbitrary
    /// (source, target, bound) triples.
    #[test]
    fn bounded_distance_matches_legacy(g in arb_graph(), queries in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(queries);
        for _ in 0..25 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let via_engine = engine.bounded_distance(&csr, s, t, bound);
            let via_legacy = bounded_distance(&g, s, t, bound);
            prop_assert_eq!(via_engine, via_legacy, "s={} t={} bound={}", s, t, bound);
        }
        // Pre-sized engine: every query must have reused the workspace.
        prop_assert_eq!(engine.stats().reuse_hits, engine.stats().queries);
    }

    /// Full shortest-path trees agree: same distances everywhere, and paths
    /// with identical endpoints and total weight.
    #[test]
    fn tree_distances_and_paths_match_legacy(g in arb_graph()) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        for s in 0..n {
            let legacy = shortest_path_tree(&g, VertexId(s));
            let tree = engine.shortest_path_tree(&csr, VertexId(s));
            for v in 0..n {
                prop_assert_eq!(tree.distance(VertexId(v)), legacy.distance(VertexId(v)));
                let (p_engine, p_legacy) =
                    (tree.path_to(VertexId(v)), legacy.path_to(VertexId(v)));
                prop_assert_eq!(p_engine.is_some(), p_legacy.is_some());
                if let Some(p) = p_engine {
                    // Ties can be broken differently mid-path; endpoints and
                    // realized distance must agree.
                    prop_assert_eq!(p.first(), Some(&VertexId(s)));
                    prop_assert_eq!(p.last(), Some(&VertexId(v)));
                    let d = shortest_path_distance(&g, VertexId(s), VertexId(v)).unwrap();
                    prop_assert!((tree.distance(VertexId(v)).unwrap() - d).abs() < 1e-9);
                }
            }
        }
    }

    /// Ball membership (and its (distance, vertex) ordering) agrees with the
    /// legacy free function.
    #[test]
    fn ball_membership_matches_legacy(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..10 {
            let s = VertexId(rng.gen_range(0..n));
            let radius = rng.gen_range(0.0..15.0);
            let legacy = ball(&g, s, radius);
            let via_engine = engine.ball(&csr, s, radius);
            prop_assert_eq!(via_engine, &legacy[..], "s={} radius={}", s, radius);
        }
    }

    /// Queries against an incrementally grown CSR (rows moving as they fill)
    /// match queries against the equivalently grown WeightedGraph at every
    /// growth step.
    #[test]
    fn incremental_appends_match_legacy(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut grown = WeightedGraph::new(n);
        let mut csr = CsrGraph::new(n);
        let mut engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        for e in g.edges() {
            grown.add_edge(e.u, e.v, e.weight);
            csr.append_edge(e.u, e.v, e.weight);
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            prop_assert_eq!(
                engine.bounded_distance(&csr, s, t, bound),
                bounded_distance(&grown, s, t, bound)
            );
        }
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        // Growth never allocated per query either: the engine was sized for
        // the final edge count up front.
        prop_assert_eq!(engine.stats().reuse_hits, engine.stats().queries);
    }

    /// Queries against a CSR with interleaved appends *and* deletions match
    /// queries against a fresh build of the surviving edge set, while rows
    /// lose deleted edges and move under appends.
    #[test]
    fn interleaved_deletions_match_a_fresh_build(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::new();
        let mut surviving: Vec<(VertexId, VertexId, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut ids: Vec<usize> = (0..g.num_edges()).collect();
        let mut next_weight = 0.11f64;
        for step in 0..20 {
            // Alternate deletions of random live edges with fresh appends.
            if step % 2 == 0 && !ids.is_empty() {
                let pick = rng.gen_range(0..ids.len());
                let id = ids.swap_remove(pick);
                // `surviving` is kept parallel to `ids` by construction.
                surviving.swap_remove(pick);
                csr.remove_edge(spanner_graph::EdgeId(id)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n.max(2) - 1);
                if v >= u { v += 1; }
                next_weight += 0.37;
                let id = csr.append_edge(VertexId(u), VertexId(v), next_weight);
                ids.push(id.index());
                surviving.push((VertexId(u), VertexId(v), next_weight));
            }
            let reference = {
                let mut fresh = WeightedGraph::new(n);
                for &(u, v, w) in &surviving {
                    fresh.add_edge(u, v, w);
                }
                fresh
            };
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..25.0);
            prop_assert_eq!(
                engine.bounded_distance(&csr, s, t, bound),
                bounded_distance(&reference, s, t, bound),
                "step {}: s={} t={} bound={}", step, s, t, bound
            );
            prop_assert_eq!(csr.num_edges(), surviving.len());
        }
    }
}
