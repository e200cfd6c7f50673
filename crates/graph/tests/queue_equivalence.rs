//! Property tests pinning the engine's priority queue to the reference free
//! functions in [`spanner_graph::dijkstra`]: the engine must produce
//! **bit-identical** distances, paths, balls, and tie-breaks, on
//! Erdős–Rényi, dense, high-weight-spread and tie-heavy integer-weight
//! graphs, including graphs whose rows lost deleted edges or moved under
//! appends. The goal-directed (landmark) searches are held to the same
//! answers, adversarial weight families included.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::{ball, bounded_distance, shortest_path_tree};
use spanner_graph::{
    CsrGraph, DijkstraEngine, EdgeId, Landmarks, TreeNeed, VertexId, WeightedGraph,
};

/// Graph families whose weight distributions stress the queue
/// differently: sparse ER, dense narrow weights (many keys close
/// together), high spread (weights across three orders of magnitude), and
/// integers in {1, 2, 3}, where most distances tie and every tie-break is
/// exercised.
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

/// The adversarial families: 0 — weights `1e300`, `1e-300` and `~1` (sums
/// absorb light edges; sums of heavy ones overflow to `∞`); 1 — `1e17`
/// mixed with 1 and 3 (equal distances reached through absorbed edges);
/// 2 — integers in {1, 2, 3} (exact distance ties everywhere); 3 — two
/// random components and an isolated vertex; 4 — one or two vertices.
fn arb_adversarial_graph() -> impl Strategy<Value = WeightedGraph> {
    (3usize..16, 0u64..10_000, 0usize..5).prop_map(|(n, seed, family)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = if family == 4 {
            1 + seed as usize % 2
        } else {
            n
        };
        let mut g = WeightedGraph::new(n);
        let split = if family == 3 { n / 2 } else { n };
        let end = if family == 3 { n - 1 } else { n };
        for u in 0..end {
            for v in (u + 1)..end {
                if (u < split) == (v < split) && rng.gen_bool(if family == 4 { 0.5 } else { 0.35 })
                {
                    let w = match family {
                        0 => [1e300, 1e-300, rng.gen_range(1.0..2.0)][rng.gen_range(0..3usize)],
                        1 => [1e17, 1.0, 3.0][rng.gen_range(0..3usize)],
                        _ => rng.gen_range(1.0..4.0f64).floor(),
                    };
                    g.add_edge(VertexId(u), VertexId(v), w);
                }
            }
        }
        g
    })
}

/// Checks the goal-directed search against the one-sided one on `queries`
/// random pairs of `g` (every pair first, when the graph is small enough):
/// the unbounded distance, the exact-distance bound, a random bound, and
/// the path, for landmark counts {0, 1, 4, 16}, each on a warm engine
/// (reused across every query, including the one-sided ones) and a cold
/// one (fresh per query).
fn assert_goal_directed_matches_one_sided(g: &WeightedGraph, queries: usize, rng: &mut SmallRng) {
    let n = g.num_vertices();
    let m = g.num_edges();
    let csr = CsrGraph::from(g);
    let tables: Vec<Landmarks> = [0, 1, 4, 16]
        .iter()
        .map(|&k| Landmarks::farthest_point(&csr, k))
        .collect();
    let mut one_sided = DijkstraEngine::with_capacity_for(n, m);
    let mut warm = DijkstraEngine::with_capacity_for(n, m);
    for q in 0..queries {
        let (s, t) = if q < n * n {
            (VertexId(q / n), VertexId(q % n))
        } else {
            (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)))
        };
        let path = one_sided.shortest_path(&csr, s, t);
        let exact = path.as_ref().map(|p| p.0);
        let random = rng.gen_range(0.0..20.0);
        let bounds = [f64::INFINITY, exact.unwrap_or(f64::INFINITY), random];
        let plain: Vec<Option<f64>> = bounds
            .iter()
            .map(|&b| one_sided.bounded_distance(&csr, s, t, b))
            .collect();
        prop_assert_eq!(plain[0], exact);
        for lm in &tables {
            let k = lm.len();
            let mut cold = DijkstraEngine::new();
            for (engine, state) in [(&mut warm, "warm"), (&mut cold, "cold")] {
                for (&bound, &want) in bounds.iter().zip(&plain) {
                    let got = engine.bounded_distance_landmarked(&csr, lm, s, t, bound);
                    prop_assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{} landmarks, {}: distance {:?}->{:?} at bound {:e}",
                        k,
                        state,
                        s,
                        t,
                        bound
                    );
                }
                prop_assert_eq!(
                    &engine.shortest_path_with(&csr, Some(lm), s, t),
                    &path,
                    "{} landmarks, {}: path {:?}->{:?}",
                    k,
                    state,
                    s,
                    t
                );
            }
        }
    }
    let stats = warm.stats();
    prop_assert_eq!(
        stats.reuse_hits,
        stats.queries,
        "a pre-sized engine allocated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bounded distances: the engine and the reference free function agree
    /// exactly for arbitrary (source, target, bound) triples, and a
    /// pre-sized engine never allocates.
    #[test]
    fn bounded_distances_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            prop_assert_eq!(
                e.bounded_distance(&csr, s, t, bound),
                bounded_distance(&g, s, t, bound),
                "s={} t={} bound={}", s, t, bound
            );
        }
        prop_assert_eq!(e.stats().reuse_hits, e.stats().queries);
    }

    /// Balls: membership AND order (including every equal-distance
    /// tie-break) match the reference: equal distances settle in ascending
    /// vertex-id order.
    #[test]
    fn balls_and_ties_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let s = VertexId(rng.gen_range(0..n));
            let radius = rng.gen_range(0.0..15.0);
            let via_engine = e.ball(&csr, s, radius).to_vec();
            prop_assert_eq!(
                &via_engine[..],
                &ball(&g, s, radius)[..],
                "s={} radius={}", s, radius
            );
            for w in via_engine.windows(2) {
                prop_assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "ties must be in ascending vertex-id order"
                );
            }
        }
    }

    /// Unit-weight graphs maximize exact distance ties (every vertex at hop
    /// distance d ties); ball order and k-nearest truncation must still
    /// match the reference.
    #[test]
    fn unit_weight_tie_storms_are_deterministic(n in 3usize..24, seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.4) {
                    g.add_edge(VertexId(u), VertexId(v), 1.0);
                }
            }
        }
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let s = VertexId(rng.gen_range(0..n));
        let engine_ball = e.ball(&csr, s, n as f64).to_vec();
        prop_assert_eq!(&engine_ball[..], &ball(&g, s, n as f64)[..]);
        // k_nearest truncation at a tie boundary picks the same vertices.
        let tree = e.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        for k in 0..=engine_ball.len() {
            prop_assert_eq!(&tree.k_nearest_with_ties(k).unwrap()[..k], &engine_ball[..k]);
        }
        prop_assert_eq!(tree.members_within(f64::INFINITY), Some(&engine_ball[..]));
    }

    /// A shortest-path tree built after the engine has been through
    /// bounded queries equals a fresh engine's and the reference's,
    /// distances and parent chains (all three follow one canonical parent
    /// rule) — i.e. switching query shapes mid-stream never corrupts the
    /// workspace.
    #[test]
    fn trees_agree_after_mixed_policy_streams(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut warm = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        // Warm the engine with bounded queries first.
        for _ in 0..5 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.1..10.0);
            prop_assert_eq!(
                warm.bounded_distance(&csr, s, t, bound),
                bounded_distance(&g, s, t, bound)
            );
        }
        let s = VertexId(rng.gen_range(0..n));
        let warm_tree = warm.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        let cold_tree =
            DijkstraEngine::new().owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        let reference = shortest_path_tree(&g, s);
        for v in (0..n).map(VertexId) {
            prop_assert_eq!(warm_tree.shortest_path(v), cold_tree.shortest_path(v));
            let want = reference.distance(v).map(|d| (d, reference.path_to(v).unwrap()));
            prop_assert_eq!(warm_tree.shortest_path(v), Some(want));
        }
    }

    /// Goal-directed answers equal one-sided ones for every (source,
    /// target): bounded, exact-bound and unbounded distances bit for bit,
    /// and paths vertex for vertex — with landmarks {0, 1, 4, 16}, on the
    /// same engines after one-sided queries (warm) and on fresh ones
    /// (cold).
    #[test]
    fn landmark_pruning_is_answer_invariant(g in arb_graph(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_goal_directed_matches_one_sided(&g, 20, &mut rng);
    }

    /// The same contract on the adversarial families: `1e±300` weights,
    /// `1e17` rounding ties, tie-heavy integer weights, disconnected
    /// graphs, and one or two vertices.
    #[test]
    fn goal_directed_matches_one_sided_on_adversarial_graphs(
        g in arb_adversarial_graph(),
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = g.num_vertices();
        assert_goal_directed_matches_one_sided(&g, n * n + 8, &mut rng);
    }

    /// The engine agrees with the reference while the CSR's rows lose
    /// deleted edges and move under appends: delete/append churn between
    /// query rounds, checking distances and balls against a fresh build of
    /// the surviving edge set each round. The pre-sized engine never
    /// allocates.
    #[test]
    fn queues_agree_under_tombstones_and_overlays(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::with_capacity_for(n, g.num_edges() + 24);
        let mut surviving: Vec<(VertexId, VertexId, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut ids: Vec<usize> = (0..g.num_edges()).collect();
        let mut next_weight = 0.13f64;
        for step in 0..16 {
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
                e.bounded_distance(&csr, s, t, bound),
                bounded_distance(&reference, s, t, bound),
                "step {}: engine diverged from fresh rebuild", step
            );
            let radius = rng.gen_range(0.0..12.0);
            prop_assert_eq!(
                e.ball(&csr, s, radius).to_vec(),
                ball(&reference, s, radius),
                "step {}: ball diverged from fresh rebuild", step
            );
        }
        prop_assert_eq!(e.stats().reuse_hits, e.stats().queries);
    }

    /// Renumbering the vertices relabels answers but never changes them: a
    /// query answered on a randomly renumbered graph (the way a shard's
    /// local ids renumber its piece) equals the query on the original.
    #[test]
    fn reorder_is_answer_preserving_across_queues(g in arb_graph(), seed in 0u64..500) {
        use spanner_graph::VertexPerm;
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<VertexId> = (0..n).map(VertexId).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let perm = VertexPerm::from_order(&order);
        let mut renumbered = WeightedGraph::new(n);
        for e in g.edges() {
            renumbered.add_edge(perm.to_internal(e.u), perm.to_internal(e.v), e.weight);
        }
        let reordered = CsrGraph::from(&renumbered);
        let mut original_engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        let mut reordered_engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        for _ in 0..12 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let original = original_engine.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(original, bounded_distance(&g, s, t, bound));
            let translated = reordered_engine.bounded_distance(
                &reordered,
                perm.to_internal(s),
                perm.to_internal(t),
                bound,
            );
            prop_assert_eq!(original, translated, "reorder changed an answer");
        }
    }
}
