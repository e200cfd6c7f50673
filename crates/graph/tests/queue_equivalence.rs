//! Property tests pinning the engine's priority queue to the reference free
//! functions under both of its pop disciplines — the scalar loop's one pop
//! per settle and the batched kernel's cohort drain (`pop_if_below`): both
//! must produce **bit-identical** distances, paths, balls, and tie-breaks,
//! on Erdős–Rényi, dense, and high-weight-spread graphs, including graphs
//! with tombstoned edges and live overlay insertions. The goal-directed
//! (landmark) searches are held to the same answers, adversarial weight
//! families included.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::{ball, bounded_distance};
use spanner_graph::{
    CsrGraph, DijkstraEngine, EdgeId, Landmarks, RelaxKernel, TreeNeed, VertexId, WeightedGraph,
};

/// Graph families whose weight distributions stress the cohort drain
/// differently: sparse ER (mixed cohort sizes), dense narrow weights (many
/// keys within one min-weight window), and high spread (weights across
/// three orders of magnitude, so the min-weight slack is tiny).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..28, 0u64..1000, 0usize..3).prop_map(|(n, seed, family)| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (family as u64) << 32);
        let (p, lo, hi) = match family {
            0 => (0.15, 0.5, 6.0),   // ER
            1 => (0.6, 1.0, 2.0),    // dense, narrow weights
            _ => (0.25, 0.01, 10.0), // high weight spread
        };
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(lo..hi));
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
    let (mut scalar, mut drain) = engine_pair(n, m);
    let mut warm = DijkstraEngine::with_capacity_for(n, m);
    for q in 0..queries {
        let (s, t) = if q < n * n {
            (VertexId(q / n), VertexId(q % n))
        } else {
            (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)))
        };
        let path = scalar.shortest_path(&csr, s, t);
        prop_assert_eq!(&path, &drain.shortest_path(&csr, s, t));
        let exact = path.as_ref().map(|p| p.0);
        let random = rng.gen_range(0.0..20.0);
        let bounds = [f64::INFINITY, exact.unwrap_or(f64::INFINITY), random];
        let plain: Vec<Option<f64>> = bounds
            .iter()
            .map(|&b| scalar.bounded_distance(&csr, s, t, b))
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

/// One engine per pop discipline — the scalar loop and the batched
/// kernel's cohort drain — both pre-sized so the zero-allocation contract
/// is co-tested for free.
fn engine_pair(n: usize, m: usize) -> (DijkstraEngine, DijkstraEngine) {
    let mut scalar = DijkstraEngine::with_capacity_for(n, m);
    scalar.set_relax_kernel(RelaxKernel::Scalar);
    let mut drain = DijkstraEngine::with_capacity_for(n, m);
    drain.set_relax_kernel(RelaxKernel::Batched);
    (scalar, drain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bounded distances: both pop disciplines and the reference free
    /// function agree exactly for arbitrary (source, target, bound) triples.
    #[test]
    fn bounded_distances_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let via_scalar = scalar.bounded_distance(&csr, s, t, bound);
            let via_drain = drain.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(via_scalar, via_drain, "s={} t={} bound={}", s, t, bound);
            prop_assert_eq!(via_scalar, bounded_distance(&g, s, t, bound));
        }
        prop_assert_eq!(scalar.stats().reuse_hits, scalar.stats().queries);
        prop_assert_eq!(drain.stats().reuse_hits, drain.stats().queries);
    }

    /// Balls: membership AND order (including every equal-distance
    /// tie-break) are identical across pop disciplines and match the
    /// reference: equal distances settle in ascending vertex-id order no
    /// matter how the queue was drained.
    #[test]
    fn balls_and_ties_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let s = VertexId(rng.gen_range(0..n));
            let radius = rng.gen_range(0.0..15.0);
            let via_scalar = scalar.ball(&csr, s, radius).to_vec();
            let via_drain = drain.ball(&csr, s, radius).to_vec();
            prop_assert_eq!(&via_scalar, &via_drain, "s={} radius={}", s, radius);
            prop_assert_eq!(&via_scalar[..], &ball(&g, s, radius)[..]);
            for w in via_scalar.windows(2) {
                prop_assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "ties must be in ascending vertex-id order"
                );
            }
        }
    }

    /// Unit-weight graphs maximize exact distance ties (every vertex at hop
    /// distance d ties); ball order and k-nearest truncation must still be
    /// identical across pop disciplines.
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
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges());
        let s = VertexId(rng.gen_range(0..n));
        let scalar_ball = scalar.ball(&csr, s, n as f64).to_vec();
        let drain_ball = drain.ball(&csr, s, n as f64).to_vec();
        prop_assert_eq!(&scalar_ball, &drain_ball);
        // k_nearest truncation at a tie boundary picks the same vertices.
        let tree = scalar.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        for k in 0..=scalar_ball.len() {
            prop_assert_eq!(&tree.k_nearest_with_ties(k).unwrap()[..k], &scalar_ball[..k]);
        }
        prop_assert_eq!(tree.members_within(f64::INFINITY), Some(&scalar_ball[..]));
    }

    /// Shortest-path trees agree across pop disciplines after the engines
    /// have been through bounded queries — i.e. switching query shapes
    /// mid-stream never corrupts the workspace.
    #[test]
    fn trees_agree_after_mixed_policy_streams(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        // Warm both engines with bounded queries first.
        for _ in 0..5 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.1..10.0);
            prop_assert_eq!(
                scalar.bounded_distance(&csr, s, t, bound),
                drain.bounded_distance(&csr, s, t, bound)
            );
        }
        let s = VertexId(rng.gen_range(0..n));
        let scalar_tree = scalar.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        let drain_tree = drain.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
        for v in 0..n {
            prop_assert_eq!(
                scalar_tree.shortest_path(VertexId(v)),
                drain_tree.shortest_path(VertexId(v))
            );
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

    /// Queues agree while the CSR carries tombstoned edges and overlay
    /// insertions: delete/append churn between query rounds, checking
    /// against a fresh build of the surviving edge set each round.
    #[test]
    fn queues_agree_under_tombstones_and_overlays(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut csr = CsrGraph::from(&g);
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges() + 24);
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
            let via_scalar = scalar.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(via_scalar, drain.bounded_distance(&csr, s, t, bound),
                "step {}: pop-discipline divergence under churn", step);
            prop_assert_eq!(via_scalar, bounded_distance(&reference, s, t, bound),
                "step {}: engine diverged from fresh rebuild", step);
            let radius = rng.gen_range(0.0..12.0);
            prop_assert_eq!(
                scalar.ball(&csr, s, radius).to_vec(),
                drain.ball(&csr, s, radius).to_vec(),
                "step {}: ball divergence under churn", step
            );
        }
    }

    /// Renumbering the vertices relabels answers but never changes them: a
    /// query answered on a randomly renumbered graph (the way a shard's
    /// local ids renumber its piece) equals the query on the original,
    /// under both pop disciplines.
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
        let (mut scalar, mut drain) = engine_pair(n, g.num_edges());
        let mut reordered_engine = DijkstraEngine::with_capacity_for(n, g.num_edges());
        for _ in 0..12 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let original = scalar.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(original, drain.bounded_distance(&csr, s, t, bound));
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
