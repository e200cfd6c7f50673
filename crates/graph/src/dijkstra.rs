//! Dijkstra shortest paths: full single-source, single-pair, and
//! distance-bounded variants.
//!
//! The greedy spanner algorithm issues a *bounded* distance query for every
//! candidate edge (`δ_H(u, v) > t·w(u,v)`?), so the bounded variant
//! [`bounded_distance`] terminates as soon as the frontier exceeds the bound
//! and never explores further — this is what makes the accelerated greedy
//! construction practical.
//!
//! These free functions allocate their workspace per call; they are the
//! one-shot conveniences and the reference implementation. Anything issuing
//! queries in a loop should hold a [`crate::engine::DijkstraEngine`] over a
//! [`crate::csr::CsrGraph`] instead, which answers the same queries with zero
//! per-query allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::GraphError;
use crate::graph::{VertexId, WeightedGraph};

/// A heap entry ordered by minimal distance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the minimum distance first.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: VertexId,
    dist: Vec<f64>,
    parent: Vec<Option<VertexId>>,
}

impl ShortestPathTree {
    /// The source vertex of this tree.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Distance from the source to `v`, or `None` if `v` is unreachable.
    pub fn distance(&self, v: VertexId) -> Option<f64> {
        let d = self.dist[v.index()];
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// All distances, `f64::INFINITY` for unreachable vertices.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Reconstructs the shortest path from the source to `target` as a vertex
    /// sequence (source first), or `None` if unreachable.
    pub fn path_to(&self, target: VertexId) -> Option<Vec<VertexId>> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs Dijkstra from `source` over the whole graph.
///
/// A vertex's parent is, among its neighbours that achieve its distance
/// and settle before it, the one with the smallest `(distance, id)` — the
/// canonical rule every parent-tracking search of this crate follows (see
/// [`crate::engine::DijkstraEngine::shortest_path_tree`]).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn shortest_path_tree(graph: &WeightedGraph, source: VertexId) -> ShortestPathTree {
    run_dijkstra(graph, source, None, f64::INFINITY)
}

/// Distance between `source` and `target`, or an error if no path exists.
///
/// Terminates early once `target` is settled.
///
/// # Errors
///
/// Returns [`GraphError::NoPath`] if `target` is unreachable from `source`.
///
/// # Panics
///
/// Panics if either vertex is out of range.
pub fn shortest_path_distance(
    graph: &WeightedGraph,
    source: VertexId,
    target: VertexId,
) -> Result<f64, GraphError> {
    let tree = run_dijkstra(graph, source, Some(target), f64::INFINITY);
    tree.distance(target).ok_or(GraphError::NoPath {
        source: source.index(),
        target: target.index(),
    })
}

/// Shortest path (vertex sequence) between `source` and `target`.
///
/// # Errors
///
/// Returns [`GraphError::NoPath`] if `target` is unreachable from `source`.
pub fn shortest_path(
    graph: &WeightedGraph,
    source: VertexId,
    target: VertexId,
) -> Result<Vec<VertexId>, GraphError> {
    let tree = run_dijkstra(graph, source, Some(target), f64::INFINITY);
    tree.path_to(target).ok_or(GraphError::NoPath {
        source: source.index(),
        target: target.index(),
    })
}

/// Distance between `source` and `target` if it is at most `bound`,
/// otherwise `None`.
///
/// The search never settles vertices farther than `bound` from the source,
/// so the running time is proportional to the size of the ball of radius
/// `bound` around `source` — the key primitive of the accelerated greedy
/// spanner construction.
///
/// # Panics
///
/// Panics if either vertex is out of range.
pub fn bounded_distance(
    graph: &WeightedGraph,
    source: VertexId,
    target: VertexId,
    bound: f64,
) -> Option<f64> {
    bounded_distance_with_frontier(graph, source, target, bound).0
}

/// Like [`bounded_distance`], but also reports the peak size of the Dijkstra
/// frontier (priority-queue length) reached during the search.
///
/// The peak frontier is the memory high-water mark of the query; the unified
/// spanner pipeline reports it per construction so the experiments can compare
/// the working-set sizes of the distance oracles.
///
/// # Panics
///
/// Panics if either vertex is out of range.
pub fn bounded_distance_with_frontier(
    graph: &WeightedGraph,
    source: VertexId,
    target: VertexId,
    bound: f64,
) -> (Option<f64>, usize) {
    let (tree, peak, _) = run_dijkstra_tracked(graph, source, Some(target), bound);
    let d = match tree.distance(target) {
        Some(d) if d <= bound => Some(d),
        _ => None,
    };
    (d, peak)
}

/// Returns every vertex within graph distance `radius` of `source`, together
/// with its distance, in non-decreasing distance order (the source itself is
/// included with distance 0).
///
/// The search is bounded: vertices farther than `radius` are never settled,
/// so the cost is proportional to the size of the ball — the primitive the
/// approximate-greedy cluster construction relies on.
///
/// # Panics
///
/// Panics if `source` is out of range or `radius` is negative.
pub fn ball(graph: &WeightedGraph, source: VertexId, radius: f64) -> Vec<(VertexId, f64)> {
    assert!(radius >= 0.0, "ball radius must be non-negative");
    let tree = run_dijkstra(graph, source, None, radius);
    // Only settled vertices: an unreached vertex keeps distance `∞`, which
    // `∞ ≤ radius` would let through at an infinite radius. Without a
    // target the search drains its heap, so every vertex it reached within
    // the radius — exactly those with a finite distance — has settled.
    let mut members: Vec<(VertexId, f64)> = tree
        .distances()
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d.is_finite() && d <= radius)
        .map(|(i, &d)| (VertexId(i), d))
        .collect();
    members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    members
}

fn run_dijkstra(
    graph: &WeightedGraph,
    source: VertexId,
    target: Option<VertexId>,
    bound: f64,
) -> ShortestPathTree {
    run_dijkstra_tracked(graph, source, target, bound).0
}

/// Returns the tree plus the peak frontier and the number of heap pops the
/// search performed (the pop count is exposed so regression tests can pin the
/// search's work, not just its answer).
fn run_dijkstra_tracked(
    graph: &WeightedGraph,
    source: VertexId,
    target: Option<VertexId>,
    bound: f64,
) -> (ShortestPathTree, usize, usize) {
    let n = graph.num_vertices();
    assert!(source.index() < n, "source vertex out of range");
    if let Some(t) = target {
        assert!(t.index() < n, "target vertex out of range");
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        vertex: source,
    });
    let mut peak_frontier = 1usize;
    let mut heap_pops = 0usize;

    while let Some(HeapEntry { dist: d, vertex: u }) = heap.pop() {
        heap_pops += 1;
        if settled[u.index()] {
            // Stale entry: a lighter copy of `u` was already settled.
            continue;
        }
        settled[u.index()] = true;
        if Some(u) == target {
            break;
        }
        if d > bound {
            break;
        }
        for &(v, e) in graph.neighbors(u) {
            if settled[v.index()] {
                continue;
            }
            let nd = d + graph.edge(e).weight;
            // Entries beyond the bound can never contribute to a bounded
            // answer; pushing them only bloats the heap and forces extra
            // stale pops before the `d > bound` cutoff fires.
            if nd > bound {
                continue;
            }
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                parent[v.index()] = Some(u);
                heap.push(HeapEntry {
                    dist: nd,
                    vertex: v,
                });
                peak_frontier = peak_frontier.max(heap.len());
            } else if nd == dist[v.index()] {
                // The canonical parent: among the neighbours that achieve
                // `v`'s distance, the smallest `(distance, id)`. Settle
                // order is non-decreasing in distance, so the current
                // parent's distance is at most `d`.
                if let Some(p) = parent[v.index()] {
                    if dist[p.index()] == d && u < p {
                        parent[v.index()] = Some(u);
                    }
                }
            }
        }
    }

    (
        ShortestPathTree {
            source,
            dist,
            parent,
        },
        peak_frontier,
        heap_pops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    /// A small weighted graph with a known shortest-path structure:
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 2
    ///   |               |
    ///   +------5--------+      3 isolated from {0,1,2} unless connected
    /// ```
    fn diamond() -> WeightedGraph {
        WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 2.0)]).unwrap()
    }

    #[test]
    fn shortest_distance_prefers_two_hop_path() {
        let g = diamond();
        let d = shortest_path_distance(&g, VertexId(0), VertexId(2)).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shortest_path_vertices_in_order() {
        let g = diamond();
        let p = shortest_path(&g, VertexId(0), VertexId(3)).unwrap();
        assert_eq!(p, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn unreachable_vertex_is_error() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        let err = shortest_path_distance(&g, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NoPath {
                source: 0,
                target: 2
            }
        );
        assert!(shortest_path(&g, VertexId(0), VertexId(2)).is_err());
    }

    #[test]
    fn tree_distances_and_paths() {
        let g = diamond();
        let t = shortest_path_tree(&g, VertexId(0));
        assert_eq!(t.source(), VertexId(0));
        assert_eq!(t.distance(VertexId(0)), Some(0.0));
        assert_eq!(t.distance(VertexId(3)), Some(4.0));
        assert_eq!(t.distances().len(), 4);
        assert_eq!(t.path_to(VertexId(0)).unwrap(), vec![VertexId(0)]);
    }

    #[test]
    fn bounded_distance_respects_bound() {
        let g = diamond();
        assert_eq!(bounded_distance(&g, VertexId(0), VertexId(2), 1.0), None);
        let d = bounded_distance(&g, VertexId(0), VertexId(2), 2.0).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        assert_eq!(bounded_distance(&g, VertexId(0), VertexId(3), 3.9), None);
        assert!(bounded_distance(&g, VertexId(0), VertexId(3), 4.0).is_some());
    }

    #[test]
    fn ball_contains_exactly_the_close_vertices() {
        let g = diamond();
        let b = ball(&g, VertexId(0), 2.0);
        let members: Vec<usize> = b.iter().map(|&(v, _)| v.index()).collect();
        assert_eq!(members, vec![0, 1, 2]);
        assert_eq!(b[0], (VertexId(0), 0.0));
        assert!((b[2].1 - 2.0).abs() < 1e-12);
        // Radius 0 contains only the source.
        assert_eq!(ball(&g, VertexId(3), 0.0), vec![(VertexId(3), 0.0)]);
    }

    #[test]
    fn infinite_ball_on_a_disconnected_graph_matches_the_engine() {
        use crate::csr::CsrGraph;
        use crate::engine::DijkstraEngine;
        // Components {0, 1, 2}, {3, 4} and the isolated vertex 5.
        let g = WeightedGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)]).unwrap();
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::new();
        for s in 0..6 {
            for radius in [0.0, 1.5, 1e300, f64::INFINITY] {
                let free = ball(&g, VertexId(s), radius);
                assert!(free.iter().all(|&(_, d)| d.is_finite()));
                assert_eq!(
                    free,
                    engine.ball(&csr, VertexId(s), radius),
                    "s={s} r={radius}"
                );
            }
        }
        assert_eq!(
            ball(&g, VertexId(3), f64::INFINITY),
            vec![(VertexId(3), 0.0), (VertexId(4), 1.0)]
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ball_rejects_negative_radius() {
        let g = diamond();
        let _ = ball(&g, VertexId(0), -1.0);
    }

    #[test]
    fn bounded_distance_on_disconnected_pair_is_none() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        assert_eq!(bounded_distance(&g, VertexId(0), VertexId(2), 100.0), None);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let g = diamond();
        assert_eq!(
            shortest_path_distance(&g, VertexId(1), VertexId(1)).unwrap(),
            0.0
        );
    }

    #[test]
    fn bounded_search_never_pops_beyond_bound_entries() {
        // Path 0 -1- 1 -1- 2 -1- 3 with bound 1.5: only vertices 0 and 1 are
        // within the bound. Before the beyond-bound relaxation skip, vertex 2
        // (tentative distance 2) was pushed and popped just to trigger the
        // `d > bound` cutoff — a third, wasted pop.
        let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let (tree, _, pops) = run_dijkstra_tracked(&g, VertexId(0), Some(VertexId(3)), 1.5);
        assert_eq!(pops, 2, "exactly the in-bound ball {{0, 1}} is popped");
        assert_eq!(tree.distance(VertexId(1)), Some(1.0));
        assert_eq!(bounded_distance(&g, VertexId(0), VertexId(3), 1.5), None);

        // A star of heavy spokes: the source is popped, every spoke is
        // skipped at relaxation time, so the heap drains after one pop.
        let star =
            WeightedGraph::from_edges(5, [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 10.0), (0, 4, 10.0)])
                .unwrap();
        let (_, peak, pops) = run_dijkstra_tracked(&star, VertexId(0), Some(VertexId(4)), 5.0);
        assert_eq!(pops, 1);
        assert_eq!(peak, 1, "no beyond-bound entry ever enters the heap");
    }

    #[test]
    fn bounded_answers_are_unchanged_by_the_relaxation_skip() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..10 {
            let n = 14;
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.35) {
                        g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.2..4.0));
                    }
                }
            }
            for _ in 0..20 {
                let s = VertexId(rng.gen_range(0..n));
                let t = VertexId(rng.gen_range(0..n));
                let bound = rng.gen_range(0.1..10.0);
                let bounded = bounded_distance(&g, s, t, bound);
                let exact = shortest_path_tree(&g, s).distance(t);
                match exact {
                    Some(d) if d <= bound => assert_eq!(bounded, Some(d)),
                    _ => assert_eq!(bounded, None),
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = 12;
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.4) {
                        g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.1..5.0));
                    }
                }
            }
            // Brute-force Floyd–Warshall.
            let mut d = vec![vec![f64::INFINITY; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0.0;
            }
            for e in g.edges() {
                let (a, b) = (e.u.index(), e.v.index());
                if e.weight < d[a][b] {
                    d[a][b] = e.weight;
                    d[b][a] = e.weight;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if d[i][k] + d[k][j] < d[i][j] {
                            d[i][j] = d[i][k] + d[k][j];
                        }
                    }
                }
            }
            for (s, row) in d.iter().enumerate() {
                let t = shortest_path_tree(&g, VertexId(s));
                for (v, &expected) in row.iter().enumerate() {
                    match t.distance(VertexId(v)) {
                        Some(got) => assert!((got - expected).abs() < 1e-9),
                        None => assert!(expected.is_infinite()),
                    }
                }
            }
        }
    }
}
