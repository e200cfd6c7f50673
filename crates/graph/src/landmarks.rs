//! Landmark (ALT) lower bounds for goal-directed point-to-point queries.
//!
//! The ALT technique (Goldberg & Harrelson, "Computing the shortest path:
//! A* search meets graph theory", SODA 2005) precomputes shortest-path trees
//! from a small set of *landmark* vertices. For any landmark `l`, the
//! triangle inequality gives a lower bound on the remaining distance from a
//! vertex `v` to a target `t`:
//!
//! ```text
//!   d(v, t) ≥ |d(l, v) − d(l, t)|
//! ```
//!
//! and the max over landmarks is still a lower bound. The engine uses it as
//! the heuristic of an **A* search**: queue keys are `distance + bound`, so
//! the search settles a corridor toward the target instead of a ball around
//! the source. The table holds *computed* distances, so the engine reduces
//! each term by a rounding margin and the
//! search drains its queue slightly past the target's distance and re-opens
//! vertices the rounded bound misordered; with those two measures the
//! answers — distances bit for bit, and paths vertex for vertex — are those
//! of the one-sided search for every landmark set (see
//! [`DijkstraEngine::shortest_path_with`]). The landmarks decide only how
//! narrow the corridor is.
//!
//! Landmarks are chosen by **farthest-point traversal**
//! ([`Landmarks::farthest_point`]): spread out, as ALT recommends, so that
//! for most targets some landmark lies "behind" them and its bound is
//! tight. A landmark in every connected component also proves every
//! cross-component pair disconnected before its search starts.
//!
//! A [`Landmarks`] table is stamped with the [`CsrGraph::epoch`] it was
//! built at and must be rebuilt after any mutation (the serving layer does
//! this lazily on epoch bumps); the engine refuses tables whose stamp does
//! not match the queried graph.

use std::cmp::Ordering;

use crate::csr::CsrGraph;
use crate::engine::{path_rounding_margin, relaxed_bound, search_bound, DijkstraEngine};
use crate::graph::VertexId;

/// Per-landmark shortest-path distances, stored vertex-major so one query's
/// target column and one relaxation's vertex row are each a single
/// contiguous read.
#[derive(Debug, Clone, PartialEq)]
pub struct Landmarks {
    /// The landmark vertices, deduplicated, in selection order.
    sources: Vec<VertexId>,
    /// Vertex count of the graph the table was built over.
    num_vertices: usize,
    /// `dist[v * k + l]` = distance from landmark `l` to vertex `v`
    /// (`f64::INFINITY` when unreachable), with `k = sources.len()`.
    dist: Vec<f64>,
    /// The [`CsrGraph::epoch`] the table was built at.
    epoch: u64,
}

impl Landmarks {
    /// Builds the distance table for `sources` over `graph`. Out-of-range
    /// and duplicate sources are dropped (first occurrence wins). Building
    /// runs one full shortest-path tree per landmark on an internal
    /// pre-sized engine — this is freeze-time work, not query-path work.
    pub fn build(graph: &CsrGraph, sources: &[VertexId]) -> Landmarks {
        let n = graph.num_vertices();
        let mut seen = vec![false; n];
        let mut kept: Vec<VertexId> = Vec::new();
        for &s in sources {
            if s.index() < n && !seen[s.index()] {
                seen[s.index()] = true;
                kept.push(s);
            }
        }
        let mut engine = DijkstraEngine::with_capacity_for(n, graph.num_edges());
        let columns = kept
            .iter()
            .map(|&s| distances_from(&mut engine, graph, s))
            .collect();
        Landmarks::from_columns(graph, kept, columns)
    }

    /// Picks `count` landmarks by farthest-point (max–min) traversal and
    /// builds their table. The first landmark is the highest-degree vertex;
    /// each next one is a vertex no landmark reaches, if any (again the
    /// highest-degree one), and otherwise the vertex farthest from its
    /// nearest landmark. So every connected component gets a landmark
    /// before any gets a second, and within a component the landmarks
    /// spread out to its periphery. `count` is capped at the vertex count.
    ///
    /// Remaining ties break by the smaller vertex id. Each landmark's tree
    /// serves both its table column and the next pick, so selection costs
    /// the same `count` shortest-path trees as [`Landmarks::build`].
    pub fn farthest_point(graph: &CsrGraph, count: usize) -> Landmarks {
        let n = graph.num_vertices();
        let mut degree = vec![0usize; n];
        for (_, u, v, _) in graph.live_edges() {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        // Distance from each vertex to its nearest landmark so far: `∞`
        // while none reaches it, `0` once it is a landmark (weights are
        // positive, so no other vertex sits at distance 0).
        let mut nearest = vec![f64::INFINITY; n];
        // Whether `a` is a better next landmark than `b`.
        let rank = |nearest: &[f64], a: usize, b: usize| -> Ordering {
            let (ua, ub) = (nearest[a] == f64::INFINITY, nearest[b] == f64::INFINITY);
            ua.cmp(&ub)
                .then_with(|| {
                    if ua {
                        degree[a].cmp(&degree[b])
                    } else {
                        nearest[a].total_cmp(&nearest[b])
                    }
                })
                .then_with(|| b.cmp(&a))
        };
        let mut engine = DijkstraEngine::with_capacity_for(n, graph.num_edges());
        let mut sources = Vec::new();
        let mut columns = Vec::new();
        while sources.len() < count {
            let Some(pick) = (0..n)
                .filter(|&v| nearest[v] > 0.0)
                .max_by(|&a, &b| rank(&nearest, a, b))
            else {
                break;
            };
            let column = distances_from(&mut engine, graph, VertexId(pick));
            for (near, &d) in nearest.iter_mut().zip(&column) {
                *near = near.min(d);
            }
            sources.push(VertexId(pick));
            columns.push(column);
        }
        Landmarks::from_columns(graph, sources, columns)
    }

    /// Transposes one distance column per landmark into the vertex-major
    /// table.
    fn from_columns(graph: &CsrGraph, sources: Vec<VertexId>, columns: Vec<Vec<f64>>) -> Landmarks {
        let n = graph.num_vertices();
        let k = sources.len();
        let mut dist = vec![f64::INFINITY; n * k];
        for (l, column) in columns.iter().enumerate() {
            for (row, &d) in dist.chunks_exact_mut(k).zip(column) {
                row[l] = d;
            }
        }
        Landmarks {
            sources,
            num_vertices: n,
            dist,
            epoch: graph.epoch(),
        }
    }

    /// Number of landmarks in the table.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the table holds no landmarks.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Vertex count of the graph the table was built over.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The [`CsrGraph::epoch`] the table was built at. A table is only
    /// valid against a graph whose epoch still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The landmark vertices, in selection order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Approximate heap footprint of the table, for capacity planning.
    pub fn memory_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<f64>()
            + self.sources.len() * std::mem::size_of::<VertexId>()
    }

    /// Copies the distances from every landmark to `t` into `out` (one slot
    /// per landmark). The engine keeps this column in a scratch buffer for
    /// the duration of one query.
    pub(crate) fn copy_target_column(&self, t: usize, out: &mut Vec<f64>) {
        out.clear();
        let k = self.sources.len();
        out.extend_from_slice(&self.dist[t * k..(t + 1) * k]);
    }

    /// The triangle bound on the exact distance `δ(v, t)` from `v` to the
    /// target whose column ([`Landmarks::copy_target_column`]) is
    /// `target_column`, reduced so that rounding cannot lift it above
    /// `δ(v, t)`: the max over landmarks of
    /// `|D(l,v) − D(l,t)| − margin·(D(l,v) + D(l,t))`, at least 0, and
    /// `f64::INFINITY` when some landmark reaches exactly one of the two
    /// (the pair is disconnected; finiteness is exact, no margin applies).
    ///
    /// Argument, with `margin = 2ρ`, `ρ = path_rounding_margin(n)` on an
    /// `n`-vertex graph: each table entry `D` is within `ρ·δ` of its exact
    /// value (every table path is simple, so it has fewer than `n` edges),
    /// so `|D(l,v) − D(l,t)| ≤ |δ(l,v) − δ(l,t)| + ρ·(δ(l,v) + δ(l,t))`,
    /// and the triangle inequality bounds the first term by `δ(v, t)`. The
    /// excess `ρ·(δ(l,v) + δ(l,t)) ≤ ρ(1 + ρ)·(D(l,v) + D(l,t))` and the
    /// four roundings of the expression itself, each at most
    /// `2⁻⁵³·(D(l,v) + D(l,t))`, together stay below `2ρ·(D(l,v) + D(l,t))`
    /// since `ρ ≥ 2⁻⁵²`. The margin is `O(n · 2⁻⁵²)` relative, so the bound
    /// loses no practical tightness.
    #[inline(always)]
    pub(crate) fn certified_bound(&self, v: usize, target_column: &[f64], margin: f64) -> f64 {
        let k = target_column.len();
        let row = &self.dist[v * k..(v + 1) * k];
        let mut h = 0.0f64;
        for (&dv, &dt) in row.iter().zip(target_column) {
            if dv.is_finite() && dt.is_finite() {
                let diff = (dv - dt).abs() - margin * (dv + dt);
                if diff > h {
                    h = diff;
                }
            } else if dv.is_finite() != dt.is_finite() {
                return f64::INFINITY;
            }
        }
        h
    }

    /// The relative safety margin of [`Landmarks::certified_bound`] on this
    /// table's graph: `2ρ`, `ρ = path_rounding_margin(n)`.
    pub(crate) fn margin(&self) -> f64 {
        2.0 * path_rounding_margin(self.num_vertices)
    }

    /// The certified bound `h(source)` (see [`Landmarks::certified_bound`])
    /// on the distance to the target whose column is `target_column`, or
    /// `None` when it rules the query out ([`Landmarks::rules_out`]). The
    /// goal-directed search keys its first queue entry with it and runs
    /// only when it is `Some`.
    pub(crate) fn source_bound(
        &self,
        source: usize,
        target_column: &[f64],
        bound: f64,
    ) -> Option<f64> {
        let h = self.certified_bound(source, target_column, self.margin());
        if h == f64::INFINITY || h > relaxed_bound(search_bound(bound), self.num_vertices) {
            None
        } else {
            Some(h)
        }
    }

    /// Whether the table alone proves that `source` and `target` are more
    /// than `bound` apart (or disconnected): the certified bound
    /// `h(source)` is `∞` or exceeds the goal-directed search's stop key
    /// `relaxed_bound(bound)`. Such a query settles nothing
    /// ([`DijkstraEngine::bounded_distance_landmarked`] returns before its
    /// first pop) and its answer is `None`: `h ≤ δ(source, target)`, and
    /// the computed distance is at least `δ·(1 − ρ)`, which exceeds
    /// `bound` once `h` exceeds `bound·(1 + 4ρ)`. A serving cache uses this
    /// to keep such targets out of the trees it grows.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn rules_out(&self, source: VertexId, target: VertexId, bound: f64) -> bool {
        assert!(
            source.index() < self.num_vertices,
            "source vertex out of range"
        );
        assert!(
            target.index() < self.num_vertices,
            "target vertex out of range"
        );
        let k = self.sources.len();
        let column = &self.dist[target.index() * k..(target.index() + 1) * k];
        self.source_bound(source.index(), column, bound).is_none()
    }

    /// The max-over-landmarks triangle lower bound on `d(v, t)`:
    /// `f64::INFINITY` when some landmark proves the pair disconnected
    /// (exactly one side unreachable), `0.0` when no landmark sees either
    /// side.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn lower_bound(&self, v: VertexId, t: VertexId) -> f64 {
        let k = self.sources.len();
        let row_t = &self.dist[t.index() * k..(t.index() + 1) * k];
        self.certified_bound(v.index(), row_t, 0.0)
    }
}

/// The distance from `source` to every vertex of `graph` (`∞` when
/// unreachable).
fn distances_from(engine: &mut DijkstraEngine, graph: &CsrGraph, source: VertexId) -> Vec<f64> {
    let mut column = vec![f64::INFINITY; graph.num_vertices()];
    engine
        .shortest_path_tree(graph, source)
        .copy_distances_into(&mut column);
    column
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    fn two_components() -> CsrGraph {
        // 0-1-2 chained, 3-4 chained, 5 isolated.
        let g = WeightedGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)]).unwrap();
        CsrGraph::from(&g)
    }

    #[test]
    fn lower_bounds_are_admissible_and_detect_disconnection() {
        let csr = two_components();
        let lm = Landmarks::build(&csr, &[VertexId(0), VertexId(3)]);
        assert_eq!(lm.len(), 2);
        assert_eq!(lm.epoch(), csr.epoch());
        let mut engine = DijkstraEngine::new();
        for v in 0..6 {
            for t in 0..6 {
                let bound = lm.lower_bound(VertexId(v), VertexId(t));
                match engine.bounded_distance(&csr, VertexId(v), VertexId(t), f64::INFINITY) {
                    Some(d) => assert!(
                        bound <= d + 1e-12,
                        "bound {bound} exceeds true distance {d} for {v}->{t}"
                    ),
                    None => {
                        if v != t {
                            assert_eq!(
                                bound,
                                f64::INFINITY,
                                "a landmark in each component proves {v}->{t} disconnected"
                            );
                        }
                    }
                }
            }
        }
        // Exactness at a landmark: |d(l,v) − 0| = d(l,v).
        assert_eq!(lm.lower_bound(VertexId(2), VertexId(0)), 3.0);
    }

    #[test]
    fn duplicate_and_out_of_range_sources_are_dropped() {
        let csr = two_components();
        let lm = Landmarks::build(&csr, &[VertexId(1), VertexId(1), VertexId(99), VertexId(4)]);
        assert_eq!(lm.sources(), &[VertexId(1), VertexId(4)]);
        assert!(lm.memory_bytes() >= 6 * 2 * 8);
    }

    /// A 3×3 grid (0..9, hub 4) beside a triangle (9, 10, 11), a pair
    /// (12, 13) and an isolated vertex 14.
    fn four_components() -> CsrGraph {
        let mut edges = vec![(9, 10, 1.0), (10, 11, 1.0), (9, 11, 1.5), (12, 13, 2.0)];
        for r in 0..3 {
            for c in 0..3 {
                let v = 3 * r + c;
                if c < 2 {
                    edges.push((v, v + 1, 1.0));
                }
                if r < 2 {
                    edges.push((v, v + 3, 1.0));
                }
            }
        }
        CsrGraph::from(&WeightedGraph::from_edges(15, edges).unwrap())
    }

    /// The component of every vertex (by the landmark-free engine).
    fn component_of(csr: &CsrGraph) -> Vec<usize> {
        let n = csr.num_vertices();
        let mut engine = DijkstraEngine::new();
        (0..n)
            .map(|v| {
                (0..n)
                    .find(|&u| {
                        engine
                            .bounded_distance(csr, VertexId(u), VertexId(v), f64::INFINITY)
                            .is_some()
                    })
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn farthest_point_selection_is_deterministic_and_spread() {
        let csr = four_components();
        let lm = Landmarks::farthest_point(&csr, 4);
        // The grid hub (degree 4) first; then the three other components,
        // each at its highest-degree vertex (ties by id).
        assert_eq!(
            lm.sources(),
            &[VertexId(4), VertexId(9), VertexId(12), VertexId(14)]
        );
        assert_eq!(lm, Landmarks::farthest_point(&csr, 4));
        // A fifth goes to the vertex farthest from its nearest landmark:
        // the grid corners at distance 2 and the triangle's vertex 11 at
        // 1.5 — the corner with the smallest id.
        let five = Landmarks::farthest_point(&csr, 5);
        assert_eq!(five.sources()[4], VertexId(0));
        assert_eq!(&five.sources()[..4], lm.sources());
    }

    #[test]
    fn every_component_gets_a_landmark_before_any_gets_a_second() {
        let csr = four_components();
        let comp = component_of(&csr);
        let components = {
            let mut c = comp.clone();
            c.sort_unstable();
            c.dedup();
            c.len()
        };
        assert_eq!(components, 4);
        for count in 0..=20 {
            let lm = Landmarks::farthest_point(&csr, count);
            assert_eq!(lm.len(), count.min(15), "count {count}");
            let mut seen = Vec::new();
            for (i, s) in lm.sources().iter().enumerate() {
                let c = comp[s.index()];
                if i < components {
                    assert!(!seen.contains(&c), "count {count}: component {c} twice");
                }
                seen.push(c);
            }
            // Once every vertex is a landmark, every bound is exact.
            if count >= 15 {
                let mut engine = DijkstraEngine::new();
                for v in 0..15 {
                    for t in 0..15 {
                        let d =
                            engine.bounded_distance(&csr, VertexId(v), VertexId(t), f64::INFINITY);
                        assert_eq!(
                            lm.lower_bound(VertexId(v), VertexId(t)),
                            d.unwrap_or(f64::INFINITY)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn farthest_point_handles_tiny_graphs() {
        for n in 0..=2 {
            for joined in [false, true] {
                let edges: Vec<(usize, usize, f64)> = if joined && n == 2 {
                    vec![(0, 1, 1.0)]
                } else {
                    vec![]
                };
                let csr = CsrGraph::from(&WeightedGraph::from_edges(n, edges).unwrap());
                for count in 0..4 {
                    let lm = Landmarks::farthest_point(&csr, count);
                    assert_eq!(lm.len(), count.min(n), "n={n} count={count}");
                    assert_eq!(lm.memory_bytes(), lm.len() * (n * 8 + 8));
                    if count > 0 && n > 0 {
                        assert_eq!(lm.sources()[0], VertexId(0));
                    }
                }
            }
        }
    }
}
