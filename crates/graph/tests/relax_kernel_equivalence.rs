//! Property tests pinning the batched gather → relax kernel to the scalar
//! reference across the full configuration grid the engine can run:
//! `RelaxKernel` × CSR layout (original vs degree-sorted relayout) ×
//! landmarks (none vs goal-directed search) — distances, paths, balls,
//! settle order, and the search counters must be **bit-identical** in every
//! cell, including graphs with tombstoned edges and live overlay
//! insertions.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::bounded_distance;
use spanner_graph::{
    CsrGraph, DijkstraEngine, EdgeId, EngineStats, KernelStats, Landmarks, RelaxKernel, TreeNeed,
    VertexId, WeightedGraph,
};

/// The queue-equivalence suite's graph families — sparse ER, dense
/// narrow-weight (long rows — the batched kernel's sweet spot), and high
/// weight spread (a tiny cohort slack) — plus integer weights in {1, 2, 3},
/// where most distances tie and every tie-break is exercised.
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

/// One pre-sized engine per kernel, scalar first (the reference).
/// Pre-sizing co-tests the zero-allocation contract of the gather scratch
/// for free.
fn grid_engines(n: usize, m: usize) -> Vec<(RelaxKernel, DijkstraEngine)> {
    [RelaxKernel::Scalar, RelaxKernel::Batched, RelaxKernel::Auto]
        .into_iter()
        .map(|kernel| {
            let mut e = DijkstraEngine::with_capacity_for(n, m);
            e.set_relax_kernel(kernel);
            (kernel, e)
        })
        .collect()
}

/// The kernel block is the only counter allowed to differ across kernels.
fn comparable(stats: EngineStats) -> EngineStats {
    EngineStats {
        kernel: KernelStats::default(),
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Bounded distances, balls, k-nearest prefixes and target-terminated
    /// paths agree across every grid cell (distances also match the
    /// reference free function); search
    /// counters are bit-identical between kernels, and pre-sized engines
    /// never allocate under either kernel.
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
            let want = bounded_distance(&g, s, t, bound);
            let radius = rng.gen_range(0.0..12.0);
            let k = rng.gen_range(0..n + 2);
            let mut want_ball = None;
            for (kernel, e) in engines.iter_mut() {
                prop_assert_eq!(
                    e.bounded_distance(&csr, s, t, bound),
                    want,
                    "case {}: {:?} distance diverged", case, kernel
                );
                // The early-stopping searches (k-nearest, target-terminated
                // path) ride along: same answers, same counters.
                let got_ball = (
                    e.ball(&csr, s, radius).to_vec(),
                    e.k_nearest_with_ties(&csr, s, k).to_vec(),
                    e.shortest_path(&csr, s, t),
                );
                match &want_ball {
                    None => want_ball = Some(got_ball),
                    Some(w) => prop_assert_eq!(
                        w, &got_ball,
                        "case {}: {:?} ball / k-nearest / path diverged", case, kernel
                    ),
                }
            }
        }
        let stats: Vec<EngineStats> = engines.iter().map(|(_, e)| e.stats()).collect();
        for s in &stats {
            prop_assert_eq!(s.reuse_hits, s.queries, "a pre-sized engine must never allocate");
            prop_assert!(s.kernel.candidates_committed <= s.kernel.edges_gathered);
        }
        for s in &stats[1..] {
            prop_assert_eq!(
                comparable(stats[0]), comparable(*s),
                "kernels must agree on every search counter"
            );
        }
    }

    /// Shortest-path trees: distances and full parent chains agree across
    /// the kernel grid (the `TRACK_PARENTS` commit path).
    #[test]
    fn kernel_grid_agrees_on_paths(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut engines = grid_engines(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            let s = VertexId(rng.gen_range(0..n));
            let reference = {
                let (_, e) = &mut engines[0];
                e.owned_shortest_path_tree(&csr, s, &TreeNeed::everything())
            };
            for (kernel, e) in engines.iter_mut().skip(1) {
                let tree = e.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
                for v in 0..n {
                    prop_assert_eq!(
                        reference.shortest_path(VertexId(v)),
                        tree.shortest_path(VertexId(v)),
                        "{:?}: SPT distance or parent chain diverged", kernel
                    );
                }
            }
        }
    }

    /// The goal-directed (landmark) search — always the scalar loop —
    /// returns the same distances under every kernel setting.
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
            for (kernel, e) in engines.iter_mut() {
                prop_assert_eq!(
                    e.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                    want,
                    "case {}: {:?}+ALT diverged", case, kernel
                );
            }
        }
    }

    /// Tombstoned packed rows and overlay overflow chains: the batched
    /// kernel's bitmap gather must agree with the scalar per-edge liveness
    /// path and with a fresh rebuild of the surviving edge set, under
    /// delete/append churn.
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
            let want = bounded_distance(&reference, s, t, bound);
            let radius = rng.gen_range(0.0..12.0);
            let mut want_ball: Option<Vec<(VertexId, f64)>> = None;
            for (kernel, e) in engines.iter_mut() {
                prop_assert_eq!(
                    e.bounded_distance(&csr, s, t, bound),
                    want,
                    "step {}: {:?} diverged under churn", step, kernel
                );
                let got_ball = e.ball(&csr, s, radius).to_vec();
                match &want_ball {
                    None => want_ball = Some(got_ball),
                    Some(w) => prop_assert_eq!(
                        w, &got_ball,
                        "step {}: {:?} ball diverged under churn", step, kernel
                    ),
                }
            }
        }
        // With deletions pending, Auto must have routed through the batched
        // kernel (the bitmap gather).
        let auto_kernel: u64 = engines
            .iter()
            .filter(|(k, _)| *k == RelaxKernel::Auto)
            .map(|(_, e)| e.stats().kernel.rows_batched)
            .sum();
        prop_assert!(auto_kernel > 0, "Auto never took the batched path under churn");
    }
}
