//! Property tests pinning the adjacency arena's layout: the same edge stream
//! built five ways — incrementally with `add_vertex` interleaved (rows that
//! outgrow their window move to the arena's end), in one pass with
//! `from_edges`, through `filter_edges` keeping everything, by `clone`, and
//! by a round trip through `CsrGraph::to_weighted_graph` — must be the same
//! graph to every reader: identical neighbour slices in identical order,
//! degrees, maximum degree, membership, minimum parallel weights and `==`.
//! Streams cover 0, 1 and 2 vertices, isolated vertices and parallel edges.
//!
//! The `CsrGraph` leg drives graphs opened with `CsrGraph::new` and with
//! `CsrGraph::with_row_capacity` through random append / delete /
//! `compact` / `rebuild_compacted` streams: after every step each row must
//! read like `WeightedGraph::from_edges` of the live edges, and the
//! engine's distances and balls must equal the `dijkstra` reference's.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra;
use spanner_graph::{CsrGraph, DijkstraEngine, EdgeId, VertexId, WeightedGraph};

/// An edge stream over `n` vertices: endpoints are drawn from a prefix of
/// the vertex set (so the tail stays isolated), weights from {1, 2, 3} or
/// a continuous range, and a repeated pair is likely, so parallel edges
/// and equal weights are common.
fn arb_stream() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (0usize..14, 0usize..60, 0u64..10_000).prop_map(|(n, m, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let active = if n < 2 { n } else { rng.gen_range(2..n + 1) };
        let integer = rng.gen_bool(0.5);
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        if active >= 2 {
            for _ in 0..m {
                let (u, v) = match edges.last() {
                    Some(&(u, v, _)) if rng.gen_bool(0.2) => (v, u),
                    _ => {
                        let u = rng.gen_range(0..active);
                        let v = (u + rng.gen_range(1..active)) % active;
                        (u, v)
                    }
                };
                let w = if integer {
                    rng.gen_range(1..4) as f64
                } else {
                    rng.gen_range(0.1..5.0)
                };
                edges.push((u, v, w));
            }
        }
        (n, edges)
    })
}

/// Grows the graph one call at a time, adding vertices lazily (and at random
/// points) instead of up front.
fn incremental(n: usize, edges: &[(usize, usize, f64)], seed: u64) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = WeightedGraph::new(0);
    for &(u, v, w) in edges {
        while g.num_vertices() <= u.max(v) || (g.num_vertices() < n && rng.gen_bool(0.1)) {
            g.add_vertex();
        }
        g.add_edge(VertexId(u), VertexId(v), w);
    }
    while g.num_vertices() < n {
        g.add_vertex();
    }
    g
}

/// Every read a search or an analysis makes of the adjacency.
fn assert_same_graph(a: &WeightedGraph, b: &WeightedGraph, how: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{how}: vertex count");
    assert_eq!(a.edges(), b.edges(), "{how}: edge list");
    assert_eq!(a.max_degree(), b.max_degree(), "{how}: max degree");
    assert!(a == b, "{how}: ==");
    let n = a.num_vertices();
    for v in a.vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v), "{how}: neighbours of {v}");
        assert_eq!(a.degree(v), b.degree(v), "{how}: degree of {v}");
    }
    // One past the end probes the out-of-range answers too.
    for u in 0..=n {
        for v in 0..=n {
            let (u, v) = (VertexId(u), VertexId(v));
            assert_eq!(
                a.has_edge(u, v),
                b.has_edge(u, v),
                "{how}: has_edge({u}, {v})"
            );
            if u.index() < n {
                assert_eq!(
                    a.edge_weight(u, v),
                    b.edge_weight(u, v),
                    "{how}: edge_weight({u}, {v})"
                );
            }
        }
    }
}

/// One mutation of a `CsrGraph` stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Append(usize, usize, f64),
    RemoveBetween(usize, usize),
    Compact,
    Rebuild,
}

/// A mutation stream over `n` vertices with per-row reservations (all zero
/// half the time, the `CsrGraph::new` case). Appends dominate; pairs repeat
/// often, so parallel edges are common, and integer weights make ties
/// common. Deletions name a pair that was appended before (it may have
/// been deleted since, which is a typed error), or any pair.
fn arb_csr_stream() -> impl Strategy<Value = (Vec<u32>, Vec<Op>)> {
    (0usize..14, 0usize..70, 0u64..10_000).prop_map(|(n, m, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let capacity: Vec<u32> = if rng.gen_bool(0.5) {
            vec![0; n]
        } else {
            (0..n).map(|_| rng.gen_range(0..5)).collect()
        };
        let integer = rng.gen_bool(0.5);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut ops = Vec::new();
        if n >= 2 {
            for _ in 0..m {
                let roll = rng.gen_range(0..100);
                let op = if roll < 60 {
                    let (u, v) = match pairs.last() {
                        Some(&(u, v)) if rng.gen_bool(0.3) => (v, u),
                        _ => {
                            let u = rng.gen_range(0..n);
                            (u, (u + rng.gen_range(1..n)) % n)
                        }
                    };
                    pairs.push((u, v));
                    let w = if integer {
                        rng.gen_range(1..4) as f64
                    } else {
                        rng.gen_range(0.1..5.0)
                    };
                    Op::Append(u, v, w)
                } else if roll < 90 {
                    if !pairs.is_empty() && rng.gen_bool(0.8) {
                        let (u, v) = pairs[rng.gen_range(0..pairs.len())];
                        Op::RemoveBetween(u, v)
                    } else {
                        let u = rng.gen_range(0..n);
                        Op::RemoveBetween(u, (u + rng.gen_range(1..n)) % n)
                    }
                } else if roll < 95 {
                    Op::Compact
                } else {
                    Op::Rebuild
                };
                ops.push(op);
            }
        }
        (capacity, ops)
    })
}

/// Asserts `csr` reads exactly like `WeightedGraph::from_edges` of its live
/// edges: neighbours in id order (the reference's dense ids mapped back to
/// `csr`'s), degrees, edge count, `find_edge` on every pair, and the
/// engine's distances and balls against the `dijkstra` reference.
fn assert_csr_matches_its_live_edges(csr: &CsrGraph, engine: &mut DijkstraEngine, how: &str) {
    let n = csr.num_vertices();
    let live: Vec<EdgeId> = csr.live_edges().map(|(id, _, _, _)| id).collect();
    let reference = WeightedGraph::from_edges(
        n,
        csr.live_edges()
            .map(|(_, u, v, w)| (u.index(), v.index(), w)),
    )
    .unwrap();
    assert_eq!(csr.num_edges(), reference.num_edges(), "{how}: edge count");
    for u in reference.vertices() {
        let row: Vec<(VertexId, u64, EdgeId)> = csr
            .neighbors(u)
            .map(|nb| (nb.to, nb.weight.to_bits(), nb.edge))
            .collect();
        let expected: Vec<(VertexId, u64, EdgeId)> = reference
            .neighbors(u)
            .iter()
            .map(|&(v, e)| (v, reference.edge(e).weight.to_bits(), live[e.index()]))
            .collect();
        assert_eq!(row, expected, "{how}: row of {u}");
        assert_eq!(csr.degree(u), reference.degree(u), "{how}: degree of {u}");
        for v in reference.vertices() {
            let lowest = reference
                .neighbors(u)
                .iter()
                .find(|&&(x, _)| x == v)
                .map(|&(_, e)| live[e.index()]);
            assert_eq!(csr.find_edge(u, v), lowest, "{how}: find_edge({u}, {v})");
        }
    }
    for s in reference.vertices() {
        let tree = engine.shortest_path_tree(csr, s);
        let want = dijkstra::shortest_path_tree(&reference, s);
        for t in reference.vertices() {
            assert_eq!(tree.distance(t), want.distance(t), "{how}: {s} -> {t}");
        }
        for radius in [0.0, 1.0, 2.5, 6.0] {
            assert_eq!(
                engine.ball(csr, s, radius),
                &dijkstra::ball(&reference, s, radius)[..],
                "{how}: ball({s}, {radius})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every step of a mutation stream leaves a `CsrGraph` — opened empty
    /// or with reserved rows — reading like a fresh build of its live
    /// edges, with the epoch advancing once per logical mutation.
    #[test]
    fn csr_rows_match_a_fresh_build_of_the_live_edges(stream in arb_csr_stream()) {
        let (capacity, ops) = stream;
        let mut csr = CsrGraph::with_row_capacity(&capacity);
        let mut engine = DijkstraEngine::new();
        assert_csr_matches_its_live_edges(&csr, &mut engine, "empty");
        for (step, &op) in ops.iter().enumerate() {
            let epoch = csr.epoch();
            let mutated = match op {
                Op::Append(u, v, w) => {
                    csr.append_edge(VertexId(u), VertexId(v), w);
                    true
                }
                Op::RemoveBetween(u, v) => {
                    csr.remove_edge_between(VertexId(u), VertexId(v)).is_ok()
                }
                Op::Compact => {
                    csr.compact();
                    prop_assert!(csr.is_compact());
                    false
                }
                Op::Rebuild => {
                    csr = csr.rebuild_compacted().graph;
                    prop_assert_eq!(csr.dead_edges(), 0);
                    true
                }
            };
            prop_assert_eq!(csr.epoch(), epoch + u64::from(mutated), "step {}: {:?}", step, op);
            assert_csr_matches_its_live_edges(&csr, &mut engine, &format!("step {step}: {op:?}"));
        }
    }

    /// The five construction paths agree on every read, and the cached
    /// maximum degree matches a scan of the rows.
    #[test]
    fn every_construction_path_lays_out_the_same_graph(stream in arb_stream(), seed in 0u64..1000) {
        let (n, edges) = stream;
        let grown = incremental(n, &edges, seed);
        let bulk = WeightedGraph::from_edges(n, edges.iter().copied()).unwrap();
        prop_assert_eq!(bulk.num_edges(), edges.len());
        let scanned = bulk.vertices().map(|v| bulk.degree(v)).max().unwrap_or(0);
        prop_assert_eq!(bulk.max_degree(), scanned);

        assert_same_graph(&grown, &bulk, "incremental vs from_edges");
        assert_same_graph(&grown.filter_edges(|_, _| true), &bulk, "filter_edges(all)");
        assert_same_graph(&grown.clone(), &bulk, "clone");
        assert_same_graph(
            &CsrGraph::from(&grown).to_weighted_graph(),
            &bulk,
            "CSR round trip",
        );
    }

    /// Edges added to a bulk-built graph (whose rows have no slack) land
    /// exactly where an incremental build puts them.
    #[test]
    fn growing_a_bulk_built_graph_matches_incremental_growth(stream in arb_stream(), seed in 0u64..1000) {
        let (n, edges) = stream;
        let split = edges.len() / 2;
        let mut grown = WeightedGraph::from_edges(n, edges[..split].iter().copied()).unwrap();
        for &(u, v, w) in &edges[split..] {
            grown.add_edge(VertexId(u), VertexId(v), w);
        }
        assert_same_graph(&grown, &incremental(n, &edges, seed), "bulk prefix + add_edge");
    }
}
