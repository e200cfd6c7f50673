//! Workload generators: random, geometric, structured and high-girth graphs.
//!
//! Every generator is deterministic given the caller-supplied RNG, so
//! experiments are reproducible from a seed.

use std::collections::HashSet;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::connectivity::hop_distances;
use crate::graph::{VertexId, WeightedGraph};
use crate::union_find::UnionFind;

/// `(u, v, weight)` triples in edge-id order.
type EdgeList = Vec<(usize, usize, f64)>;

/// Lays out a generator's edge list in one pass. Generated endpoints are in
/// range and distinct, so only a caller-supplied weight can be rejected.
fn build(n: usize, edges: EdgeList) -> WeightedGraph {
    WeightedGraph::from_edges(n, edges).expect("generator produced an invalid edge weight")
}

fn sample_weight<R: Rng + ?Sized>(rng: &mut R, range: &Range<f64>) -> f64 {
    if range.start >= range.end {
        range.start
    } else {
        rng.gen_range(range.clone())
    }
}

/// Erdős–Rényi `G(n, p)` graph with i.i.d. weights drawn from `weight_range`.
///
/// The result may be disconnected; use [`erdos_renyi_connected`] when a
/// connected instance is required.
pub fn erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    weight_range: Range<f64>,
    rng: &mut R,
) -> WeightedGraph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v, sample_weight(rng, &weight_range)));
            }
        }
    }
    build(n, edges)
}

/// Erdős–Rényi graph forced to be connected by first threading a random
/// spanning tree through a shuffled vertex order.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    weight_range: Range<f64>,
    rng: &mut R,
) -> WeightedGraph {
    if n == 0 {
        return WeightedGraph::new(0);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut edges = Vec::new();
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        edges.push((order[i], parent, sample_weight(rng, &weight_range)));
    }
    // Each pair is visited once, so only a tree edge can already join it;
    // tree pairs draw no coin flip (the `&&` keeps the random stream fixed).
    let tree: HashSet<(usize, usize)> = edges
        .iter()
        .map(|&(a, b, _)| (a.min(b), a.max(b)))
        .collect();
    for u in 0..n {
        for v in (u + 1)..n {
            if !tree.contains(&(u, v)) && rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v, sample_weight(rng, &weight_range)));
            }
        }
    }
    build(n, edges)
}

/// Complete graph on `n` vertices with i.i.d. weights from `weight_range`.
pub fn complete_graph_with_weights<R: Rng + ?Sized>(
    n: usize,
    weight_range: Range<f64>,
    rng: &mut R,
) -> WeightedGraph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v, sample_weight(rng, &weight_range)));
        }
    }
    build(n, edges)
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between every pair at Euclidean distance at most `radius`, weighted by that
/// distance. Returns the graph and the generated points.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> (WeightedGraph, Vec<[f64; 2]>) {
    let (edges, points) = geometric_edges(n, radius, rng);
    (build(n, edges), points)
}

/// The edge list and points of [`random_geometric`].
fn geometric_edges<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> (EdgeList, Vec<[f64; 2]>) {
    let points: Vec<[f64; 2]> = (0..n)
        .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = points[u][0] - points[v][0];
            let dy = points[u][1] - points[v][1];
            let d = (dx * dx + dy * dy).sqrt();
            if d <= radius && d > 0.0 {
                edges.push((u, v, d));
            }
        }
    }
    (edges, points)
}

/// Random geometric graph made connected by adding, for every pair of
/// components, the shortest bridging edge (weighted by Euclidean distance).
pub fn random_geometric_connected<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> (WeightedGraph, Vec<[f64; 2]>) {
    let (mut edges, points) = geometric_edges(n, radius, rng);
    // Kruskal-style stitching over all pairs ordered by distance.
    let mut uf = UnionFind::new(n);
    for &(u, v, _) in &edges {
        uf.union(u, v);
    }
    if uf.num_sets() > 1 {
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let dx = points[u][0] - points[v][0];
                let dy = points[u][1] - points[v][1];
                let d = (dx * dx + dy * dy).sqrt();
                pairs.push((d.max(f64::MIN_POSITIVE), u, v));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (d, u, v) in pairs {
            if uf.union(u, v) {
                edges.push((u, v, d));
                if uf.num_sets() == 1 {
                    break;
                }
            }
        }
    }
    (build(n, edges), points)
}

/// `rows × cols` grid graph with unit weights perturbed by up to `jitter`
/// (relative), modelling road-network-like instances.
pub fn grid_graph<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    jitter: f64,
    rng: &mut R,
) -> WeightedGraph {
    let n = rows * cols;
    let mut edges = Vec::with_capacity(2 * n);
    let idx = |r: usize, c: usize| r * cols + c;
    let w = |rng: &mut R| 1.0 + jitter * rng.gen::<f64>();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1), w(rng)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c), w(rng)));
            }
        }
    }
    build(n, edges)
}

/// Path graph `0 - 1 - … - (n-1)` with uniform weight `weight`.
pub fn path_graph(n: usize, weight: f64) -> WeightedGraph {
    build(n, (1..n).map(|i| (i - 1, i, weight)).collect())
}

/// Cycle graph on `n >= 3` vertices with uniform weight `weight`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle_graph(n: usize, weight: f64) -> WeightedGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let edges = (1..n).map(|i| (i - 1, i, weight));
    build(n, edges.chain([(n - 1, 0, weight)]).collect())
}

/// Star graph rooted at vertex `0` with uniform weight `weight` on all spokes.
pub fn star_graph(n: usize, weight: f64) -> WeightedGraph {
    build(n, (1..n).map(|i| (0, i, weight)).collect())
}

/// The Petersen graph (10 vertices, 15 edges, girth 5) with uniform weight
/// `weight` — the graph `H` of the paper's Figure 1.
pub fn petersen_graph(weight: f64) -> WeightedGraph {
    // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
    let mut edges = Vec::with_capacity(15);
    for i in 0..5usize {
        edges.push((i, (i + 1) % 5, weight));
        edges.push((5 + i, 5 + (i + 2) % 5, weight));
        edges.push((i, 5 + i, weight));
    }
    build(10, edges)
}

/// The Heawood graph (14 vertices, 21 edges, girth 6) with uniform weight
/// `weight` — the (3,6)-cage, used to generalize Figure 1.
pub fn heawood_graph(weight: f64) -> WeightedGraph {
    // Outer 14-cycle plus chords i -> i+5 for even i (standard LCF [5,-5]^7).
    let cycle = (0..14usize).map(|i| (i, (i + 1) % 14, weight));
    let chords = (0..14usize).step_by(2).map(|i| (i, (i + 5) % 14, weight));
    build(14, cycle.chain(chords).collect())
}

/// The McGee graph (24 vertices, 36 edges, girth 7) with uniform weight
/// `weight` — the (3,7)-cage.
pub fn mcgee_graph(weight: f64) -> WeightedGraph {
    // LCF notation [12, 7, -7]^8.
    let shifts = [12i64, 7, -7];
    let n = 24i64;
    let mut edges: EdgeList = (0..24usize).map(|i| (i, (i + 1) % 24, weight)).collect();
    for i in 0..24i64 {
        let s = shifts[(i % 3) as usize];
        let j = (i + s).rem_euclid(n);
        let (a, b) = (i as usize, j as usize);
        if !edges
            .iter()
            .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
        {
            edges.push((a, b, weight));
        }
    }
    build(24, edges)
}

/// Random graph on `n` vertices with unit weights and girth at least
/// `min_girth`, built incrementally: candidate edges are examined in random
/// order and an edge is added only if the hop distance between its endpoints
/// is at least `min_girth - 1` in the current graph.
///
/// This yields the kind of dense-as-possible high-girth instance used by the
/// paper's lower-bound discussion (Section 1.3) without requiring explicit
/// Ramanujan-style constructions.
pub fn high_girth_graph<R: Rng + ?Sized>(
    n: usize,
    min_girth: usize,
    weight: f64,
    rng: &mut R,
) -> WeightedGraph {
    assert!(min_girth >= 3, "girth bounds below 3 are vacuous");
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    pairs.shuffle(rng);
    let mut g = WeightedGraph::new(n);
    for (u, v) in pairs {
        let d = hop_distances(&g, VertexId(u))[v];
        if d >= min_girth - 1 {
            g.add_edge(VertexId(u), VertexId(v), weight);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::girth::girth;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn erdos_renyi_edge_count_is_plausible() {
        let g = erdos_renyi(50, 0.2, 1.0..2.0, &mut rng());
        let max_edges = 50 * 49 / 2;
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() < max_edges);
        assert!(g.edges().iter().all(|e| e.weight >= 1.0 && e.weight < 2.0));
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let g0 = erdos_renyi(10, 0.0, 1.0..2.0, &mut rng());
        assert_eq!(g0.num_edges(), 0);
        let g1 = erdos_renyi(10, 1.0, 1.0..2.0, &mut rng());
        assert_eq!(g1.num_edges(), 45);
    }

    #[test]
    fn erdos_renyi_connected_is_connected() {
        for n in [1usize, 2, 10, 60] {
            let g = erdos_renyi_connected(n, 0.05, 1.0..5.0, &mut rng());
            assert!(is_connected(&g), "n = {n}");
        }
    }

    #[test]
    fn complete_graph_has_all_pairs() {
        let g = complete_graph_with_weights(7, 2.0..3.0, &mut rng());
        assert_eq!(g.num_edges(), 21);
    }

    #[test]
    fn degenerate_weight_range_is_constant() {
        let g = complete_graph_with_weights(4, 1.0..1.0, &mut rng());
        assert!(g.edges().iter().all(|e| e.weight == 1.0));
    }

    #[test]
    fn geometric_graph_weights_are_distances() {
        let (g, pts) = random_geometric(40, 0.3, &mut rng());
        for e in g.edges() {
            let dx = pts[e.u.index()][0] - pts[e.v.index()][0];
            let dy = pts[e.u.index()][1] - pts[e.v.index()][1];
            let d = (dx * dx + dy * dy).sqrt();
            assert!((d - e.weight).abs() < 1e-12);
            assert!(e.weight <= 0.3);
        }
    }

    #[test]
    fn geometric_connected_is_connected() {
        let (g, _) = random_geometric_connected(60, 0.05, &mut rng());
        assert!(is_connected(&g));
    }

    #[test]
    fn grid_graph_shape() {
        let g = grid_graph(3, 4, 0.0, &mut rng());
        assert_eq!(g.num_vertices(), 12);
        // 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8 = 17.
        assert_eq!(g.num_edges(), 17);
        assert!(is_connected(&g));
        assert!(g.edges().iter().all(|e| e.weight == 1.0));
    }

    #[test]
    fn path_cycle_star_shapes() {
        assert_eq!(path_graph(5, 1.0).num_edges(), 4);
        assert_eq!(cycle_graph(5, 1.0).num_edges(), 5);
        let s = star_graph(6, 2.0);
        assert_eq!(s.num_edges(), 5);
        assert_eq!(s.degree(VertexId(0)), 5);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_too_small_panics() {
        let _ = cycle_graph(2, 1.0);
    }

    #[test]
    fn petersen_is_3_regular_girth_5() {
        let g = petersen_graph(1.0);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
        assert_eq!(girth(&g), Some(5));
    }

    #[test]
    fn heawood_is_3_regular_girth_6() {
        let g = heawood_graph(1.0);
        assert_eq!(g.num_vertices(), 14);
        assert_eq!(g.num_edges(), 21);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
        assert_eq!(girth(&g), Some(6));
    }

    #[test]
    fn mcgee_is_3_regular_girth_7() {
        let g = mcgee_graph(1.0);
        assert_eq!(g.num_vertices(), 24);
        assert_eq!(g.num_edges(), 36);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
        assert_eq!(girth(&g), Some(7));
    }

    #[test]
    fn high_girth_generator_respects_bound() {
        let mut r = rng();
        for min_girth in [4usize, 5, 6] {
            let g = high_girth_graph(40, min_girth, 1.0, &mut r);
            assert!(girth(&g).is_none_or(|gi| gi >= min_girth));
            assert!(
                g.num_edges() >= 39,
                "should at least contain a spanning structure"
            );
        }
    }
}
