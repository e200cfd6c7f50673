//! The core undirected weighted-graph type.

use std::fmt;

use crate::error::GraphError;

/// Identifier of a vertex inside a [`WeightedGraph`].
///
/// Vertices are dense indices `0..n`; the newtype prevents accidental mixing
/// with edge identifiers or raw counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub usize);

impl VertexId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for VertexId {
    fn from(value: usize) -> Self {
        VertexId(value)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge inside a [`WeightedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge `{u, v}` with a positive weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Positive, finite weight.
    pub weight: f64,
}

impl Edge {
    /// Creates a new edge; endpoints are stored as given.
    pub fn new(u: VertexId, v: VertexId, weight: f64) -> Self {
        Edge { u, v, weight }
    }

    /// Returns the endpoint opposite to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "vertex {x} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// Returns `true` if `x` is one of the endpoints.
    pub fn is_incident_to(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }

    /// Returns the endpoints as an ordered pair `(min, max)` of indices,
    /// useful as a canonical key for undirected edges.
    pub fn key(&self) -> (usize, usize) {
        let (a, b) = (self.u.index(), self.v.index());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// An undirected, positively-weighted graph with dense vertex indices.
///
/// The structure is an edge list plus one flat adjacency arena: every vertex
/// owns a row — a `(start, len, cap)` window into a single shared
/// `Vec<(neighbor, edge id)>` — rather than a heap-allocated list of its own.
/// A row holds its vertex's incident edges in insertion (edge-id) order, which
/// every search's tie-breaking depends on. Parallel edges are permitted (some
/// generators produce them transiently) but self-loops are rejected at
/// construction time.
///
/// Cost model: bulk producers ([`WeightedGraph::from_edges`],
/// [`WeightedGraph::filter_edges`], [`crate::GraphBuilder::build`], the
/// generators, …) know their edges up front and lay every row out exactly
/// once, with no slack; [`WeightedGraph::add_edge`] stays amortized `O(1)` by
/// moving a full row to the arena's end at double its capacity (the old
/// window is left as dead slots). Clone and drop are a few `memcpy`s and
/// `free`s regardless of the vertex count.
///
/// Use [`crate::GraphBuilder`] or [`WeightedGraph::from_edges`] to construct
/// graphs, and [`WeightedGraph::add_edge`] to grow them (spanner algorithms add
/// edges incrementally).
#[derive(Debug, Clone, Default)]
pub struct WeightedGraph {
    num_vertices: usize,
    edges: Vec<Edge>,
    /// The adjacency arena; `rows[v]` names the live window of vertex `v`.
    slots: Vec<(VertexId, EdgeId)>,
    rows: Vec<Row>,
    /// Cached maximum degree, maintained on every insert (edges are never
    /// removed — subgraphs are built fresh — so the maximum only grows).
    max_degree: usize,
}

/// One vertex's window `slots[start..start + len]` of the adjacency arena,
/// with room for `cap` entries before the row must move.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: usize,
    len: u32,
    cap: u32,
}

impl Row {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// Smallest capacity a row takes when it first outgrows its window.
pub(crate) const MIN_ROW_CAPACITY: usize = 4;

/// Rows are a pure function of the vertex count and the edge sequence, so
/// two graphs are equal exactly when those agree — dead arena slots and row
/// capacities are construction history, not content.
impl PartialEq for WeightedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices && self.edges == other.edges
    }
}

/// Validates one edge against a graph of `num_vertices` vertices, reporting
/// the first failing check in the order endpoint `u`, endpoint `v`,
/// self-loop, weight.
fn check_edge(
    num_vertices: usize,
    u: VertexId,
    v: VertexId,
    weight: f64,
) -> Result<(), GraphError> {
    for x in [u, v] {
        if x.index() >= num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: x.index(),
                num_vertices,
            });
        }
    }
    if u == v {
        return Err(GraphError::SelfLoop { vertex: u.index() });
    }
    if !(weight.is_finite() && weight > 0.0) {
        return Err(GraphError::InvalidWeight { weight });
    }
    Ok(())
}

impl WeightedGraph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        WeightedGraph {
            num_vertices,
            edges: Vec::new(),
            slots: Vec::new(),
            rows: vec![Row::default(); num_vertices],
            max_degree: 0,
        }
    }

    /// Creates a graph with the same vertex set as `other` and no edges.
    ///
    /// This is the canonical way a spanner construction starts: `H = (V, ∅)`.
    pub fn empty_like(other: &WeightedGraph) -> Self {
        WeightedGraph::new(other.num_vertices())
    }

    /// Builds a graph from `(u, v, weight)` triples, laying every adjacency
    /// row out once at its exact degree. Edge ids and neighbour order are
    /// those of adding the triples one by one with
    /// [`WeightedGraph::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if any endpoint is out of range, any weight is
    /// non-positive or non-finite, or an edge is a self-loop — the error of
    /// the first invalid triple, exactly as [`WeightedGraph::try_add_edge`]
    /// would report it.
    pub fn from_edges(
        num_vertices: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, GraphError> {
        let edges = edges.into_iter();
        let mut valid = Vec::with_capacity(edges.size_hint().0);
        for (u, v, w) in edges {
            let (u, v) = (VertexId(u), VertexId(v));
            check_edge(num_vertices, u, v, w)?;
            valid.push(Edge::new(u, v, w));
        }
        Ok(WeightedGraph::from_valid_edges(num_vertices, valid))
    }

    /// Lays out a graph over edges the caller has already validated (in
    /// range, no self-loops, positive finite weights): count degrees, place
    /// each row at its prefix sum, then fill rows in edge-id order.
    pub(crate) fn from_valid_edges(num_vertices: usize, edges: Vec<Edge>) -> Self {
        // A degree never exceeds the edge count, so this bounds every `len`.
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "edge count exceeds u32::MAX"
        );
        let mut rows = vec![Row::default(); num_vertices];
        for e in &edges {
            rows[e.u.index()].len += 1;
            rows[e.v.index()].len += 1;
        }
        let mut start = 0;
        let mut max_degree = 0;
        for row in &mut rows {
            row.start = start;
            row.cap = row.len;
            start += row.len as usize;
            max_degree = max_degree.max(row.len as usize);
            row.len = 0;
        }
        let mut slots = vec![(VertexId(0), EdgeId(0)); start];
        for (i, e) in edges.iter().enumerate() {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                let row = &mut rows[x.index()];
                slots[row.start + row.len as usize] = (y, EdgeId(i));
                row.len += 1;
            }
        }
        WeightedGraph {
            num_vertices,
            edges,
            slots,
            rows,
            max_degree,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_edgeless(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterator over all vertex identifiers `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices).map(VertexId)
    }

    /// Slice of all edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.slots[self.rows[v.index()].range()]
    }

    /// Degree (number of incident edges) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.rows[v.index()].len as usize
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the weight is not positive and
    /// finite, or the edge is a self-loop. Use [`WeightedGraph::try_add_edge`]
    /// for a fallible variant.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, weight: f64) -> EdgeId {
        self.try_add_edge(u, v, weight)
            .expect("invalid edge passed to add_edge")
    }

    /// Adds an undirected edge, validating the input.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`], [`GraphError::InvalidWeight`]
    /// or [`GraphError::SelfLoop`] on invalid input.
    pub fn try_add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
    ) -> Result<EdgeId, GraphError> {
        check_edge(self.num_vertices, u, v, weight)?;
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge::new(u, v, weight));
        let du = self.push_slot(u, (v, id));
        let dv = self.push_slot(v, (u, id));
        self.max_degree = self.max_degree.max(du).max(dv);
        Ok(id)
    }

    /// Appends `entry` to `x`'s row and returns the new degree.
    #[inline]
    fn push_slot(&mut self, x: VertexId, entry: (VertexId, EdgeId)) -> usize {
        let mut row = self.rows[x.index()];
        if row.len == row.cap {
            row = self.grow_row(row);
        }
        self.slots[row.start + row.len as usize] = entry;
        row.len += 1;
        self.rows[x.index()] = row;
        row.len as usize
    }

    /// Doubles a full row's capacity (to at least [`MIN_ROW_CAPACITY`]):
    /// the row moves to the arena's end, leaving its old window dead, or
    /// grows in place when it already ends the arena.
    #[cold]
    fn grow_row(&mut self, mut row: Row) -> Row {
        let cap = (2 * row.cap as usize).max(MIN_ROW_CAPACITY);
        let end = self.slots.len();
        if row.start + row.cap as usize != end {
            self.slots.extend_from_within(row.range());
            row.start = end;
        }
        self.slots.resize(row.start + cap, (VertexId(0), EdgeId(0)));
        row.cap = u32::try_from(cap).expect("vertex degree exceeds u32::MAX");
        row
    }

    /// Adds a fresh isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId(self.num_vertices);
        self.num_vertices += 1;
        self.rows.push(Row::default());
        id
    }

    /// Returns `true` if an edge `{u, v}` exists (any parallel copy counts).
    ///
    /// Cost: a linear scan of the *smaller* of the two adjacency rows —
    /// `O(min(deg(u), deg(v)))`, not `O(1)`. Callers doing many membership
    /// tests on a static graph should build their own set keyed by
    /// [`Edge::key`] instead.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u.index() >= self.num_vertices || v.index() >= self.num_vertices {
            return false;
        }
        let (scan, probe) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(scan).iter().any(|&(n, _)| n == probe)
    }

    /// Returns the minimum weight among edges `{u, v}`, if any exists.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        if u.index() >= self.num_vertices {
            return None;
        }
        self.neighbors(u)
            .iter()
            .filter(|&&(n, _)| n == v)
            .map(|&(_, e)| self.edges[e.index()].weight)
            .min_by(f64::total_cmp)
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Maximum vertex degree; zero for an empty graph.
    ///
    /// O(1): the value is cached and updated on every insert (this used to be
    /// a linear scan over all vertices, which experiment loops called per
    /// evaluation).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Returns a new graph containing the same vertices and only the edges
    /// whose ids satisfy `keep`.
    pub fn filter_edges(&self, mut keep: impl FnMut(EdgeId, &Edge) -> bool) -> WeightedGraph {
        let edges = self
            .edges
            .iter()
            .enumerate()
            .filter(|&(i, e)| keep(EdgeId(i), e))
            .map(|(_, e)| *e)
            .collect();
        WeightedGraph::from_valid_edges(self.num_vertices, edges)
    }

    /// Returns the edge ids sorted by non-decreasing weight (ties broken by
    /// canonical endpoint order, then by edge id, for determinism).
    pub fn edges_by_weight(&self) -> Vec<EdgeId> {
        // Weights are validated positive and finite, so their bit patterns
        // order exactly like the weights; the unique id makes the unstable
        // sort of packed keys deterministic.
        let mut keys: Vec<(u64, usize, usize, usize)> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let (a, b) = e.key();
                (e.weight.to_bits(), a, b, i)
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(.., i)| EdgeId(i)).collect()
    }

    /// Returns `true` if every edge of `self` has a corresponding edge (same
    /// canonical endpoints, same weight up to `1e-12`) in `other`.
    pub fn is_edge_subgraph_of(&self, other: &WeightedGraph) -> bool {
        if self.num_vertices != other.num_vertices {
            return false;
        }
        self.edges.iter().all(|e| {
            other
                .edge_weight(e.u, e.v)
                .map(|w| (w - e.weight).abs() <= 1e-12 * w.max(1.0))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.5)]).unwrap()
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = WeightedGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_edgeless());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let g = triangle();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.degree(VertexId(2)), 2);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
    }

    #[test]
    fn edge_weight_returns_minimum_parallel_weight() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(VertexId(0), VertexId(1), 3.0);
        g.add_edge(VertexId(0), VertexId(1), 1.5);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(1.5));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = WeightedGraph::new(2);
        let err = g.try_add_edge(VertexId(1), VertexId(1), 1.0).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let mut g = WeightedGraph::new(2);
        let err = g.try_add_edge(VertexId(0), VertexId(5), 1.0).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut g = WeightedGraph::new(2);
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(g.try_add_edge(VertexId(0), VertexId(1), w).is_err());
        }
    }

    #[test]
    fn total_weight_sums_all_edges() {
        let g = triangle();
        assert!((g.total_weight() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn edges_by_weight_is_sorted_and_deterministic() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0), (0, 3, 0.5)])
            .unwrap();
        let order = g.edges_by_weight();
        let weights: Vec<f64> = order.iter().map(|&e| g.edge(e).weight).collect();
        assert_eq!(weights, vec![0.5, 1.0, 2.0, 2.0]);
        // Ties broken by endpoint key: (0,1) before (2,3).
        assert_eq!(g.edge(order[2]).key(), (0, 1));
        assert_eq!(g.edge(order[3]).key(), (2, 3));
    }

    #[test]
    fn edges_by_weight_matches_the_stable_comparator_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for n in [2usize, 3, 5, 9] {
            // Integer weights in {1, 2, 3} over few vertices: many equal
            // weights, many parallel edges, both endpoint orders.
            let edges: Vec<(usize, usize, f64)> = (0..120)
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let v = (u + rng.gen_range(1..n)) % n;
                    (u, v, rng.gen_range(1..4) as f64)
                })
                .collect();
            let g = WeightedGraph::from_edges(n, edges).unwrap();
            let mut stable: Vec<EdgeId> = (0..g.num_edges()).map(EdgeId).collect();
            stable.sort_by(|&a, &b| {
                let (ea, eb) = (g.edge(a), g.edge(b));
                ea.weight
                    .total_cmp(&eb.weight)
                    .then_with(|| ea.key().cmp(&eb.key()))
            });
            assert_eq!(g.edges_by_weight(), stable, "n = {n}");
        }
    }

    #[test]
    fn from_edges_reports_the_first_error_of_the_incremental_path() {
        let bad = f64::NAN;
        let streams: [&[(usize, usize, f64)]; 6] = [
            &[(0, 1, 1.0), (1, 1, 2.0), (0, 9, 1.0)],
            &[(0, 9, 1.0), (1, 1, 2.0)],
            &[(9, 1, -1.0)],
            &[(0, 1, 1.0), (2, 7, bad)],
            &[(0, 1, 0.0), (0, 5, 1.0)],
            &[(3, 3, bad)],
        ];
        for edges in streams {
            let mut g = WeightedGraph::new(4);
            let incremental = edges
                .iter()
                .map(|&(u, v, w)| g.try_add_edge(VertexId(u), VertexId(v), w))
                .find_map(Result::err)
                .expect("every stream holds an invalid edge");
            let bulk = WeightedGraph::from_edges(4, edges.iter().copied()).unwrap_err();
            // `NaN != NaN`, so compare the reports.
            assert_eq!(format!("{bulk:?}"), format!("{incremental:?}"), "{edges:?}");
        }
    }

    #[test]
    fn empty_like_copies_vertex_count_only() {
        let g = triangle();
        let h = WeightedGraph::empty_like(&g);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn filter_edges_keeps_selected() {
        let g = triangle();
        let h = g.filter_edges(|_, e| e.weight < 2.4);
        assert_eq!(h.num_edges(), 2);
        assert!(h.is_edge_subgraph_of(&g));
        assert!(!g.is_edge_subgraph_of(&h));
    }

    #[test]
    fn edge_other_and_incidence() {
        let e = Edge::new(VertexId(3), VertexId(7), 1.0);
        assert_eq!(e.other(VertexId(3)), VertexId(7));
        assert_eq!(e.other(VertexId(7)), VertexId(3));
        assert!(e.is_incident_to(VertexId(3)));
        assert!(!e.is_incident_to(VertexId(4)));
        assert_eq!(e.key(), (3, 7));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let e = Edge::new(VertexId(0), VertexId(1), 1.0);
        let _ = e.other(VertexId(2));
    }

    #[test]
    fn add_vertex_grows_graph() {
        let mut g = triangle();
        let v = g.add_vertex();
        assert_eq!(v, VertexId(3));
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.degree(v), 0);
    }

    #[test]
    fn max_degree_cache_tracks_every_insert_path() {
        let mut g = WeightedGraph::new(5);
        assert_eq!(g.max_degree(), 0);
        g.add_edge(VertexId(0), VertexId(1), 1.0);
        assert_eq!(g.max_degree(), 1);
        g.add_edge(VertexId(0), VertexId(2), 1.0);
        assert_eq!(g.max_degree(), 2);
        g.add_edge(VertexId(3), VertexId(4), 1.0);
        assert_eq!(g.max_degree(), 2, "a new far-away edge must not regress it");
        // Parallel edges count toward the degree.
        g.add_edge(VertexId(0), VertexId(1), 2.0);
        assert_eq!(g.max_degree(), 3);
        // Adding a vertex never changes the maximum.
        g.add_vertex();
        assert_eq!(g.max_degree(), 3);
        // The cache always agrees with a full scan, on every construction path.
        let star = star_like(7);
        let scanned = star.vertices().map(|v| star.degree(v)).max().unwrap();
        assert_eq!(star.max_degree(), scanned);
        let filtered = star.filter_edges(|id, _| id.index() % 2 == 0);
        let scanned = filtered
            .vertices()
            .map(|v| filtered.degree(v))
            .max()
            .unwrap();
        assert_eq!(filtered.max_degree(), scanned);
    }

    fn star_like(n: usize) -> WeightedGraph {
        WeightedGraph::from_edges(n, (1..n).map(|v| (0, v, v as f64))).unwrap()
    }

    #[test]
    fn has_edge_scans_the_smaller_list_and_is_symmetric() {
        let g = star_like(6);
        // Hub side (degree 5) and leaf side (degree 1) must agree.
        for v in 1..6 {
            assert!(g.has_edge(VertexId(0), VertexId(v)));
            assert!(g.has_edge(VertexId(v), VertexId(0)));
        }
        assert!(!g.has_edge(VertexId(1), VertexId(2)));
        assert!(!g.has_edge(VertexId(2), VertexId(1)));
        // Out-of-range endpoints (either side) are simply absent.
        assert!(!g.has_edge(VertexId(0), VertexId(99)));
        assert!(!g.has_edge(VertexId(99), VertexId(0)));
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(VertexId(4).to_string(), "v4");
        assert_eq!(EdgeId(2).to_string(), "e2");
    }
}
