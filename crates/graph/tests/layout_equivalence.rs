//! Property tests pinning the adjacency arena's layout: the same edge stream
//! built five ways — incrementally with `add_vertex` interleaved (rows that
//! outgrow their window move to the arena's end), in one pass with
//! `from_edges`, through `filter_edges` keeping everything, by `clone`, and
//! by a round trip through `CsrGraph::to_weighted_graph` — must be the same
//! graph to every reader: identical neighbour slices in identical order,
//! degrees, maximum degree, membership, minimum parallel weights and `==`.
//! Streams cover 0, 1 and 2 vertices, isolated vertices and parallel edges.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::{CsrGraph, VertexId, WeightedGraph};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
