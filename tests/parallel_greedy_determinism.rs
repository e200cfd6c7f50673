//! Property suite for the determinism guarantee of the greedy pipeline at
//! every thread count {1, 2, 4, 8}: the output must be **byte-identical**
//! to the sequential reference loop (`greedy_spanner_reference`) — same
//! edges, same insertion order, same exact weights.
//!
//! Graph inputs run the one sequential loop at every thread count. Across
//! random graphs, stretch values and weight families (uniform, dense
//! near-uniform, high-spread, tie-heavy integers, 0.1-step decimals), each
//! build also trips a wire if the filter-then-commit loop ever runs on a
//! graph: it must report no batches and exactly `m − (n − c)` distance
//! queries, `c` the number of connected components.
//!
//! Metric inputs run the batched filter-then-commit loop at more than one
//! thread. Over uniform points and integer-grid points (whose distances tie
//! exactly), the output must equal the reference loop over the complete
//! distance graph, with batches at every thread count above one.
//!
//! The component-skip property targets candidates whose endpoints lie in
//! different components of the growing spanner, admitted without a query.
//! It draws disconnected inputs (random trees, tie-heavy components,
//! isolated vertices, parallel bridges) and also drives a live spanner over
//! them, whose insertions start the skip from a non-empty spanner.

use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::{LiveSpanner, Spanner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::connectivity::connected_components;
use spanner_graph::generators::{complete_graph_with_weights, erdos_renyi_connected};
use spanner_graph::{VertexId, WeightedGraph};
use spanner_metric::generators::uniform_points;
use spanner_metric::{EuclideanSpace, MetricSpace, Point};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts the pipeline output equals the reference bit for bit at every
/// thread count, and that every build ran the sequential loop: no batches,
/// one thread, and one query per candidate that joins no two components.
fn assert_thread_count_invariant(g: &WeightedGraph, stretch: f64) {
    let reference = greedy_spanner_reference(g, stretch).expect("valid stretch");
    let tree = g.num_vertices() - connected_components(g).1;
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
        assert!(
            out.stats.batches == 0 && out.stats.distance_queries == g.num_edges() - tree,
            "threads = {threads}: a graph build left the sequential loop \
             ({} batches, {} queries)",
            out.stats.batches,
            out.stats.distance_queries
        );
        assert_eq!(out.stats.threads_used, 1, "threads = {threads}");
        assert_eq!(
            out.stats.workspace_reuse_hits, out.stats.distance_queries,
            "threads = {threads}: the engine allocated mid-construction"
        );
    }
}

/// Asserts exact metric greedy over `points` equals the reference loop over
/// their complete distance graph at every thread count, and that every
/// count above one ran the filter-then-commit loop.
fn assert_metric_thread_count_invariant(points: &EuclideanSpace<2>, stretch: f64) {
    let reference =
        greedy_spanner_reference(&points.to_complete_graph(), stretch).expect("valid stretch");
    for threads in THREAD_COUNTS {
        let out = Spanner::greedy()
            .stretch(stretch)
            .threads(threads)
            .build(points)
            .expect("valid stretch");
        assert_eq!(
            out.spanner,
            *reference.spanner(),
            "threads = {threads}, t = {stretch}, n = {}",
            points.len()
        );
        assert_eq!(out.stats.threads_used, threads);
        if threads > 1 {
            assert!(out.stats.batches > 0, "threads = {threads}: no batch ran");
        } else {
            assert_eq!(out.stats.batches, 0);
        }
        assert_eq!(
            out.stats.workspace_reuse_hits, out.stats.distance_queries,
            "threads = {threads}: a pool engine allocated mid-construction"
        );
    }
}

/// `n` distinct points of the `side × side` integer grid: many pairwise
/// distances tie exactly (1, √2, 2, …), and so do many detours.
fn integer_grid_points(rng: &mut SmallRng, n: usize, side: usize) -> EuclideanSpace<2> {
    let mut cells: Vec<usize> = (0..side * side).collect();
    let mut points = Vec::with_capacity(n);
    for _ in 0..n.min(cells.len()) {
        let cell = cells.swap_remove(rng.gen_range(0..cells.len()));
        points.push(Point::new([(cell % side) as f64, (cell / side) as f64]));
    }
    EuclideanSpace::new(points)
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

    /// Dense graphs with near-uniform weights: almost every candidate has a
    /// detour near its admission bound.
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

    /// High-spread weights: a light detour covers almost every heavy
    /// candidate.
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

    /// Metric inputs: uniform points and integer-grid points with exact
    /// distance ties, at `t ∈ {1.5, 2}`.
    #[test]
    fn parallel_metric_greedy_matches_reference_on_uniform_and_grid_points(
        seed in 0u64..10_000,
        n in 3usize..40,
        stretch in 0usize..2,
    ) {
        let t = [1.5, 2.0][stretch];
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_metric_thread_count_invariant(&uniform_points::<2, _>(n, &mut rng), t);
        assert_metric_thread_count_invariant(&integer_grid_points(&mut rng, n, 7), t);
    }

    /// Disconnected inputs, where many candidates join two components of
    /// the spanner and are admitted without a query: the output still
    /// equals the reference at every thread count, the loop queries exactly
    /// the other candidates, and a live spanner over the input stays the
    /// greedy spanner of its original through heavier insertions and
    /// through deletions.
    #[test]
    fn component_skip_matches_reference_on_disconnected_graphs(
        seed in 0u64..10_000,
        parts in 1usize..6,
        size in 1usize..12,
        stretch in 1u32..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = disconnected_graph(&mut rng, parts, size);
        let t = stretch as f64;
        assert_thread_count_invariant(&g, t);
        assert_live_stays_greedy(&g, t, seed);
    }
}

/// `parts` vertex-disjoint components of `size` vertices each, plus two
/// isolated vertices: each component is a random tree, a tie-heavy
/// integer-weight graph or a near-uniform clique. A few bridges (some as
/// parallel copies) join components, and integer weights tie across them.
fn disconnected_graph(rng: &mut SmallRng, parts: usize, size: usize) -> WeightedGraph {
    let n = parts * size + 2;
    let mut g = WeightedGraph::new(n);
    for p in 0..parts {
        let base = p * size;
        let kind = rng.gen_range(0..3);
        for v in 1..size {
            if kind == 0 {
                let u = rng.gen_range(0..v);
                g.add_edge(
                    VertexId(base + u),
                    VertexId(base + v),
                    rng.gen_range(1..4) as f64,
                );
                continue;
            }
            for u in 0..v {
                let w = if kind == 1 {
                    if !rng.gen_bool(0.5) {
                        continue;
                    }
                    rng.gen_range(1..3) as f64
                } else {
                    rng.gen_range(1.0..1.05)
                };
                g.add_edge(VertexId(base + u), VertexId(base + v), w);
            }
        }
    }
    if parts > 1 {
        for _ in 0..rng.gen_range(0..4) {
            let (a, b) = (rng.gen_range(0..parts), rng.gen_range(0..parts));
            if a == b {
                continue;
            }
            let u = VertexId(a * size + rng.gen_range(0..size));
            let v = VertexId(b * size + rng.gen_range(0..size));
            let w = rng.gen_range(1..3) as f64;
            for _ in 0..rng.gen_range(1..3) {
                g.add_edge(u, v, w);
            }
        }
    }
    g
}

/// Opens a live spanner over `g` and checks it is the greedy spanner of
/// its original after an insert-only batch and after a deletion batch.
/// The insertions are heavier than every original edge, so the greedy
/// spanner of the grown original decides them last.
fn assert_live_stays_greedy(g: &WeightedGraph, t: f64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut live = Spanner::greedy()
        .stretch(t)
        .build(g)
        .unwrap()
        .live(g)
        .unwrap();
    let n = g.num_vertices();
    if n < 2 {
        return;
    }
    let heaviest = g.edges().iter().map(|e| e.weight).fold(0.0, f64::max);
    let mut inserts = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..8) {
        let u = rng.gen_range(0..n - 1);
        let v = rng.gen_range(u + 1..n);
        let w = heaviest + rng.gen_range(1..3) as f64;
        for _ in 0..rng.gen_range(1..3) {
            inserts = inserts.insert(VertexId(u), VertexId(v), w);
        }
    }
    live.apply(&inserts).unwrap();
    assert_is_greedy_of_original(&live);
    let spanner_edges: Vec<(VertexId, VertexId)> = live
        .spanner()
        .live_edges()
        .map(|(_, u, v, _)| (u, v))
        .collect();
    let mut deletes = UpdateBatch::new();
    for &(u, v) in spanner_edges.iter().step_by(3) {
        deletes = deletes.delete(u, v);
    }
    live.apply(&deletes).unwrap();
    assert_is_greedy_of_original(&live);
}

/// The live spanner equals `Spanner::greedy()` of the live original, edge
/// for edge and in order.
fn assert_is_greedy_of_original(live: &LiveSpanner) {
    let original = live.original().to_weighted_graph();
    let greedy = Spanner::greedy()
        .stretch(live.stretch())
        .build(&original)
        .unwrap();
    assert_eq!(live.spanner().to_weighted_graph(), greedy.spanner);
}

/// `g`'s topology with every weight replaced by `weight(old weight)`.
fn with_weights(g: &WeightedGraph, mut weight: impl FnMut(f64) -> f64) -> WeightedGraph {
    let mut out = WeightedGraph::new(g.num_vertices());
    for e in g.edges() {
        out.add_edge(e.u, e.v, weight(e.weight));
    }
    out
}
