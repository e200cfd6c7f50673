//! Property tests pinning the engine's relax loop — its one relaxation
//! path — to the reference free functions in [`spanner_graph::dijkstra`]
//! across a small grid of engines: one sized on the fly
//! ([`DijkstraEngine::new`]) and one pre-sized
//! ([`DijkstraEngine::with_capacity_for`]). Distances, paths, balls and
//! k-nearest prefixes must equal the reference **bit for bit** in every
//! cell, with and without landmarks, and on graphs with tombstoned edges
//! and overlay overflow chains; the two engines must agree on every
//! search counter.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::{ball, bounded_distance, shortest_path, shortest_path_tree};
use spanner_graph::{
    CsrGraph, DijkstraEngine, EdgeId, EngineStats, Landmarks, TreeNeed, VertexId, WeightedGraph,
};

/// Sparse ER, dense narrow-weight (long rows), high weight spread, and
/// integer weights in {1, 2, 3}, where most distances tie and every
/// tie-break is exercised.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..28, 0u64..1000, 0usize..4).prop_map(|(n, seed, family)| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (family as u64) << 32);
        let (p, lo, hi) = match family {
            0 => (0.15, 0.5, 6.0),   // ER
            1 => (0.6, 1.0, 2.0),    // dense, narrow weights
            2 => (0.25, 0.01, 10.0), // high weight spread
            _ => (0.3, 1.0, 4.0),    // integer weights, tie-heavy
        };
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    let w = rng.gen_range(lo..hi);
                    let w = if family == 3 { w.floor() } else { w };
                    g.add_edge(VertexId(u), VertexId(v), w);
                }
            }
        }
        g
    })
}

/// The engine grid: sized on the fly first, then pre-sized for `n`
/// vertices and `m` edges.
fn grid_engines(n: usize, m: usize) -> [DijkstraEngine; 2] {
    [
        DijkstraEngine::new(),
        DijkstraEngine::with_capacity_for(n, m),
    ]
}

/// Only the allocation counter may differ between the two engines.
fn comparable(stats: EngineStats) -> EngineStats {
    EngineStats {
        reuse_hits: 0,
        ..stats
    }
}

/// `ball(g, s, ∞)` cut after the `k`-th member and its distance ties: the
/// reference answer of `k_nearest_with_ties`.
fn reference_k_nearest(g: &WeightedGraph, s: VertexId, k: usize) -> Vec<(VertexId, f64)> {
    let all = ball(g, s, f64::INFINITY);
    match k {
        0 => Vec::new(),
        k if k >= all.len() => all,
        k => {
            let kth = all[k - 1].1;
            all.into_iter().take_while(|&(_, d)| d <= kth).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Bounded distances, balls, k-nearest prefixes and target-terminated
    /// paths equal the reference in every grid cell; the search counters
    /// agree between the cells, and the pre-sized engine never allocates.
    #[test]
    fn kernel_grid_agrees_on_distances_and_balls(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engines = grid_engines(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..16 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let radius = rng.gen_range(0.0..12.0);
            let k = rng.gen_range(0..n + 2);
            let want_distance = bounded_distance(&g, s, t, bound);
            let want_ball = ball(&g, s, radius);
            let want_nearest = reference_k_nearest(&g, s, k);
            let want_path = shortest_path(&g, s, t).ok().map(|path| {
                let tree = shortest_path_tree(&g, s);
                (tree.distance(t).unwrap(), path)
            });
            for (cell, e) in engines.iter_mut().enumerate() {
                prop_assert_eq!(
                    e.bounded_distance(&csr, s, t, bound), want_distance,
                    "case {}: cell {} distance diverged", case, cell
                );
                prop_assert_eq!(
                    e.ball(&csr, s, radius), &want_ball[..],
                    "case {}: cell {} ball diverged", case, cell
                );
                prop_assert_eq!(
                    e.k_nearest_with_ties(&csr, s, k), &want_nearest[..],
                    "case {}: cell {} k-nearest diverged", case, cell
                );
                prop_assert_eq!(
                    &e.shortest_path(&csr, s, t), &want_path,
                    "case {}: cell {} path diverged", case, cell
                );
            }
        }
        let [cold, warm] = engines.map(|e| e.stats());
        prop_assert_eq!(warm.reuse_hits, warm.queries, "a pre-sized engine must never allocate");
        prop_assert_eq!(comparable(cold), comparable(warm), "cells must agree on every search counter");
    }

    /// Shortest-path trees: distances and full parent chains equal the
    /// reference tree's in every grid cell.
    #[test]
    fn kernel_grid_agrees_on_paths(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engines = grid_engines(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let s = VertexId(rng.gen_range(0..n));
            let reference = shortest_path_tree(&g, s);
            for (cell, e) in engines.iter_mut().enumerate() {
                let tree = e.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
                for v in (0..n).map(VertexId) {
                    let want = reference.distance(v).map(|d| (d, reference.path_to(v).unwrap()));
                    prop_assert_eq!(
                        tree.shortest_path(v), Some(want),
                        "cell {}: SPT distance or parent chain diverged at {:?}", cell, v
                    );
                }
            }
        }
    }

    /// The goal-directed (landmark) search returns the reference's bounded
    /// distances in every grid cell, infinite bounds included.
    #[test]
    fn kernel_grid_agrees_under_landmarks(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let lm = Landmarks::farthest_point(&csr, 3.min(n));
        let mut engines = grid_engines(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..12 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = if rng.gen_bool(0.15) {
                f64::INFINITY
            } else {
                rng.gen_range(0.0..20.0)
            };
            let want = bounded_distance(&g, s, t, bound);
            for (cell, e) in engines.iter_mut().enumerate() {
                prop_assert_eq!(
                    e.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                    want,
                    "case {}: cell {}+ALT diverged", case, cell
                );
            }
        }
    }

    /// Tombstoned packed rows and overlay overflow chains: under
    /// delete/append churn the relax loop's per-edge liveness check must
    /// answer as the reference does on the compacted graph
    /// ([`CsrGraph::to_weighted_graph`]), which itself equals a fresh
    /// build of the surviving edge set.
    #[test]
    fn kernel_grid_agrees_under_tombstones_and_overflow(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut csr = CsrGraph::from(&g);
        let mut engines = grid_engines(n, g.num_edges() + 24);
        let mut surviving: Vec<(VertexId, VertexId, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut ids: Vec<usize> = (0..g.num_edges()).collect();
        let mut next_weight = 0.13f64;
        for step in 0..12 {
            if step % 2 == 0 && !ids.is_empty() {
                let pick = rng.gen_range(0..ids.len());
                let id = ids.swap_remove(pick);
                surviving.swap_remove(pick);
                csr.remove_edge(EdgeId(id)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n.max(2) - 1);
                if v >= u { v += 1; }
                next_weight += 0.41;
                let id = csr.append_edge(VertexId(u), VertexId(v), next_weight);
                ids.push(id.index());
                surviving.push((VertexId(u), VertexId(v), next_weight));
            }
            let compacted = csr.to_weighted_graph();
            let mut fresh = WeightedGraph::new(n);
            for &(u, v, w) in &surviving {
                fresh.add_edge(u, v, w);
            }
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..25.0);
            let radius = rng.gen_range(0.0..12.0);
            let want = bounded_distance(&compacted, s, t, bound);
            let want_ball = ball(&compacted, s, radius);
            prop_assert_eq!(want, bounded_distance(&fresh, s, t, bound));
            prop_assert_eq!(&want_ball, &ball(&fresh, s, radius));
            for (cell, e) in engines.iter_mut().enumerate() {
                prop_assert_eq!(
                    e.bounded_distance(&csr, s, t, bound),
                    want,
                    "step {}: cell {} diverged under churn", step, cell
                );
                prop_assert_eq!(
                    e.ball(&csr, s, radius), &want_ball[..],
                    "step {}: cell {} ball diverged under churn", step, cell
                );
            }
        }
        let [cold, warm] = engines.map(|e| e.stats());
        prop_assert_eq!(warm.reuse_hits, warm.queries, "a pre-sized engine must never allocate");
        prop_assert_eq!(comparable(cold), comparable(warm));
    }
}
