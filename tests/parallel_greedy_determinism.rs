//! Property suite for the determinism guarantee of the batched
//! filter-then-commit parallel greedy: across random graphs, stretch
//! values, weight families (uniform, dense near-uniform, high-spread,
//! tie-heavy integers, 0.1-step decimals) and thread counts {1, 2, 4, 8},
//! the pipeline's output must be **byte-identical** to the sequential
//! reference loop (`greedy_spanner_reference`) — same edges, same
//! insertion order, same exact weights.
//!
//! The last property targets the component skip: candidates whose
//! endpoints lie in different components of the growing spanner are
//! admitted without a query. It draws disconnected inputs (random trees,
//! tie-heavy components, isolated vertices, parallel bridges) and also
//! drives a live spanner over them, whose insertions start the skip from a
//! non-empty spanner.

use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::{LiveSpanner, Spanner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::connectivity::connected_components;
use spanner_graph::generators::{complete_graph_with_weights, erdos_renyi_connected};
use spanner_graph::{VertexId, WeightedGraph};

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

    /// Disconnected inputs, where many candidates join two components of
    /// the spanner and are admitted without a query: the output still
    /// equals the reference at every thread count, the sequential path
    /// queries exactly the other candidates, and a live spanner over the
    /// input stays the greedy spanner of its original through heavier
    /// insertions and through deletions.
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
        let sequential = Spanner::greedy().stretch(t).threads(1).build(&g).unwrap();
        let tree = g.num_vertices() - connected_components(&g).1;
        prop_assert_eq!(sequential.stats.distance_queries, g.num_edges() - tree);
        for threads in [1, 2, 8] {
            assert_live_stays_greedy(&g, t, threads, seed);
        }
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
/// spanner of the grown original decides them last, against exactly the
/// spanner the admission path starts from.
fn assert_live_stays_greedy(g: &WeightedGraph, t: f64, threads: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut live = Spanner::greedy()
        .stretch(t)
        .build(g)
        .unwrap()
        .live(g)
        .unwrap()
        .with_threads(threads);
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
    let outcome = live.apply(&inserts).unwrap();
    assert!(!outcome.full_certification);
    assert_is_greedy_of_original(&live, threads);
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
    assert_is_greedy_of_original(&live, threads);
}

/// The live spanner equals `Spanner::greedy()` of the live original, edge
/// for edge and in order.
fn assert_is_greedy_of_original(live: &LiveSpanner, threads: usize) {
    let original = live.original().to_weighted_graph();
    let greedy = Spanner::greedy()
        .stretch(live.stretch())
        .threads(1)
        .build(&original)
        .unwrap();
    assert_eq!(
        live.spanner().to_weighted_graph(),
        greedy.spanner,
        "threads = {threads}"
    );
}

/// `g`'s topology with every weight replaced by `weight(old weight)`.
fn with_weights(g: &WeightedGraph, mut weight: impl FnMut(f64) -> f64) -> WeightedGraph {
    let mut out = WeightedGraph::new(g.num_vertices());
    for e in g.edges() {
        out.add_edge(e.u, e.v, weight(e.weight));
    }
    out
}
