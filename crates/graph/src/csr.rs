//! Compressed-sparse-row view of a weighted graph.
//!
//! [`WeightedGraph`] serves construction and analysis; [`CsrGraph`] is the
//! query substrate: all half-edges live in flat arrays (`targets` /
//! `weights`, plus the originating edge id) indexed by one `(start, end)`
//! row per vertex, so a neighbor scan is one contiguous read.
//!
//! Unlike a classical CSR, this one is *mutable*: spanner constructions grow
//! their output one edge at a time while querying it, and the live-update
//! subsystem additionally deletes edges from a long-running graph. Every row
//! holds exactly its vertex's live half-edges, in ascending edge-id order —
//! the order a [`CsrGraph::from`] of the same edges lays out — so a search
//! reads one slice per vertex and never tests liveness.
//!
//! * **Appends** ([`CsrGraph::append_edge`]) write both half-edges at the
//!   ends of their rows. Each row has a capacity: a construction whose
//!   output is a subgraph of known candidates reserves it up front with
//!   [`CsrGraph::with_row_capacity`] and never moves a row. A full row moves
//!   to the end of the slot arrays at double its capacity (or grows in
//!   place when it already ends them), leaving its old window dead — the
//!   amortized-`O(1)` growth of [`WeightedGraph::add_edge`].
//! * **Deletions** ([`CsrGraph::remove_edge`]) splice both half-edges out of
//!   their rows, shifting the rest of each row down one slot, so the freed
//!   slot takes the row's next append. The id is marked in a dead-id bitmap
//!   and never reused.
//! * [`CsrGraph::compact`] re-lays every row out tight, in vertex order,
//!   dropping unused capacity and the windows moved rows left behind.
//!
//! Growing from empty costs little more than growing into reserved rows:
//! appending the 127,629 edges of the greedy 3-spanner of a 300 × 300
//! jittered grid one by one takes ≈ 9–11 ms through [`CsrGraph::new`]
//! against ≈ 6–8 ms into rows reserved at the grid's degrees (best of 5,
//! release build, 2-core Xeon VM).
//!
//! # Epochs
//!
//! Every *logical* mutation — an append or a removal, never a re-layout —
//! bumps a monotonically increasing [`CsrGraph::epoch`] counter. Long-lived
//! readers (shortest-path-tree caches, serving handles) stamp the epoch they
//! were built at and detect staleness by comparing stamps: [`CsrSnapshot`]
//! carries the epoch it froze at so batch executors can refuse stale views
//! with [`GraphError::StaleEpoch`] instead of silently answering against
//! old data.
//!
//! The companion query type is [`crate::engine::DijkstraEngine`], which owns
//! the per-query workspace so repeated shortest-path queries against a
//! `CsrGraph` perform no per-query heap allocation.

use crate::error::GraphError;
use crate::graph::{Edge, EdgeId, VertexId, WeightedGraph, MIN_ROW_CAPACITY};

/// Panics unless `num_vertices` fits the graph's `u32` vertex ids; checked
/// before any `O(n)` allocation.
fn assert_vertex_count(num_vertices: usize) {
    assert!(
        num_vertices < u32::MAX as usize,
        "CsrGraph vertex count must fit in u32"
    );
}

/// A slot offset as stored in the rows.
fn slot_offset(slot: usize) -> u32 {
    u32::try_from(slot).expect("CsrGraph slot arrays must fit u32 offsets")
}

/// A neighbor record produced by [`CsrGraph::neighbors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrNeighbor {
    /// The neighboring vertex.
    pub to: VertexId,
    /// Weight of the connecting edge.
    pub weight: f64,
    /// Index of the connecting edge (dense, in append order).
    pub edge: EdgeId,
}

/// An undirected weighted graph in compressed-sparse-row form, incrementally
/// appendable and deletable.
///
/// Vertex ids are dense `0..n` and must fit in `u32`; every undirected edge
/// is stored as two half-edges. Build one with [`CsrGraph::from`] a
/// [`WeightedGraph`] (tight rows) or grow one from empty with
/// [`CsrGraph::append_edge`] (the greedy-spanner pattern: the spanner under
/// construction is queried after every append). Long-running processes
/// additionally delete edges with [`CsrGraph::remove_edge`]; see the
/// [module docs](crate::csr) for the row and epoch model.
///
/// **Id-stability trade-off:** deleted edges keep their `edge_list` slot and
/// dead-id bit forever so ids never shift, which means the *ground-truth*
/// arrays grow with the total number of edges ever appended, not with the
/// live count (the slot arrays, with the windows moved rows leave behind,
/// grow by at most a constant times the same). Under unbounded
/// insert/delete churn, periodically start a fresh **generation** with
/// [`CsrGraph::rebuild_compacted`] — a dense rebuild from
/// [`CsrGraph::live_edges`] that re-densifies ids (returning the old-id →
/// new-id remap) and reclaims the dead slots behind a bumped epoch. The
/// dead-slot pressure is observable in `O(1)` via [`CsrGraph::dead_edges`] /
/// [`CsrGraph::tombstoned_fraction`], so long-running owners can trigger the
/// rebuild on a threshold instead of a scan.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    num_vertices: usize,
    /// Ground truth: `(u, v, weight)` per edge, in append order — including
    /// deleted edges, so ids stay stable. Used for re-layouts and for
    /// materializing a [`WeightedGraph`].
    edge_list: Vec<(u32, u32, f64)>,
    /// Dead-id bitmap over `edge_list`; a set bit marks a deleted edge. Never
    /// cleared: a deleted id stays dead until the next generation.
    dead: Vec<u64>,
    /// Number of set bits in `dead`.
    dead_edges: usize,
    /// Row `u` holds `u`'s live half-edges at `rows[u].0..rows[u].1` of the
    /// slot arrays, in ascending edge-id order.
    rows: Vec<(u32, u32)>,
    /// Row `u` owns `caps[u]` slots from `rows[u].0`. Only appends read it,
    /// so the rows the searches read stay 8 bytes.
    caps: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    edge_ids: Vec<u32>,
    /// Monotonically increasing mutation counter; see [`CsrGraph::epoch`].
    epoch: u64,
}

impl CsrGraph {
    /// Creates an edgeless CSR graph on `num_vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` does not fit in `u32`.
    pub fn new(num_vertices: usize) -> Self {
        assert_vertex_count(num_vertices);
        Self::with_row_capacity(&vec![0; num_vertices])
    }

    /// Creates an edgeless CSR graph on `capacity.len()` vertices whose row
    /// for vertex `u` is reserved for `capacity[u]` half-edges.
    ///
    /// [`CsrGraph::append_edge`] fills the reserved slots in `O(1)`, so a
    /// graph grown within its reservations never moves a row. A construction
    /// whose output is a subgraph of known candidates reserves each row at
    /// the vertex's candidate degree. An append past a full row moves it
    /// (see the [module docs](crate::csr)); [`CsrGraph::compact`] drops any
    /// unused reservation.
    ///
    /// # Panics
    ///
    /// Panics if the vertex count or the total reservation does not fit in
    /// `u32`.
    pub fn with_row_capacity(capacity: &[u32]) -> Self {
        let num_vertices = capacity.len();
        assert_vertex_count(num_vertices);
        let mut rows = Vec::with_capacity(num_vertices);
        let mut start = 0u32;
        for &c in capacity {
            rows.push((start, start));
            start = start
                .checked_add(c)
                .expect("CsrGraph row reservations must fit in u32");
        }
        let slots = start as usize;
        CsrGraph {
            num_vertices,
            rows,
            caps: capacity.to_vec(),
            targets: vec![0; slots],
            weights: vec![0.0; slots],
            edge_ids: vec![0; slots],
            ..CsrGraph::default()
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of live (undirected) edges — deleted edges are not counted.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_list.len() - self.dead_edges
    }

    /// Upper bound (exclusive) on edge ids ever allocated, including deleted
    /// ones. `EdgeId(i)` with `i < edge_id_bound()` names a stored record;
    /// check [`CsrGraph::is_edge_live`] before treating it as present.
    #[inline]
    pub fn edge_id_bound(&self) -> usize {
        self.edge_list.len()
    }

    /// Returns `true` if the graph has no live edges.
    pub fn is_edgeless(&self) -> bool {
        self.num_edges() == 0
    }

    /// Number of dead (deleted) edge slots in the ground-truth arrays — the
    /// difference between [`CsrGraph::edge_id_bound`] and
    /// [`CsrGraph::num_edges`]. `O(1)`: the counter is maintained by
    /// [`CsrGraph::remove_edge`], never recomputed by scanning.
    #[inline]
    pub fn dead_edges(&self) -> usize {
        self.dead_edges
    }

    /// Fraction of allocated edge slots that are dead
    /// (`dead_edges / edge_id_bound`; `0.0` for an edgeless graph). `O(1)`,
    /// from the same maintained counters as [`CsrGraph::dead_edges`] — the
    /// threshold long-running owners watch to decide when a
    /// [`CsrGraph::rebuild_compacted`] generation swap pays off.
    #[inline]
    pub fn tombstoned_fraction(&self) -> f64 {
        if self.edge_list.is_empty() {
            0.0
        } else {
            self.dead_edges as f64 / self.edge_list.len() as f64
        }
    }

    /// The graph's epoch: a monotonically increasing counter bumped by every
    /// logical mutation ([`CsrGraph::append_edge`] /
    /// [`CsrGraph::remove_edge`]; [`CsrGraph::compact`] is a representation
    /// change and does **not** bump it). Long-lived readers stamp the epoch
    /// they were built at and compare it with this one.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    fn is_dead(&self, id: usize) -> bool {
        self.dead
            .get(id >> 6)
            .is_some_and(|word| (word >> (id & 63)) & 1 == 1)
    }

    fn mark_dead(&mut self, id: usize) {
        let word = id >> 6;
        if word >= self.dead.len() {
            self.dead.resize(word + 1, 0);
        }
        self.dead[word] |= 1 << (id & 63);
        self.dead_edges += 1;
    }

    /// Returns `true` if the id names a live (never-deleted, in-range) edge.
    #[inline]
    pub fn is_edge_live(&self, id: EdgeId) -> bool {
        id.index() < self.edge_list.len() && !self.is_dead(id.index())
    }

    /// Endpoints and weight of the edge with the given id. The record is
    /// returned even for deleted ids (the ground-truth slot is kept so ids
    /// stay stable); check [`CsrGraph::is_edge_live`] for liveness.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> (VertexId, VertexId, f64) {
        let (u, v, w) = self.edge_list[id.index()];
        (VertexId(u as usize), VertexId(v as usize), w)
    }

    /// Iterates over the live edges as `(id, u, v, weight)` in append order.
    ///
    /// **Cost:** a full ground-truth scan — `O(edge_id_bound())`, which
    /// includes every dead slot ever deleted, not `O(num_edges())`. Keep
    /// it out of per-mutation hot paths; batch owners needing only the
    /// *counts* should read the `O(1)` [`CsrGraph::num_edges`] /
    /// [`CsrGraph::dead_edges`] counters instead, and owners facing
    /// unbounded churn should bound the scan itself via
    /// [`CsrGraph::rebuild_compacted`].
    pub fn live_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, f64)> + '_ {
        self.edge_list
            .iter()
            .enumerate()
            .filter(|&(id, _)| !self.is_dead(id))
            .map(|(id, &(u, v, w))| (EdgeId(id), VertexId(u as usize), VertexId(v as usize), w))
    }

    /// Total weight of all live edges.
    ///
    /// **Cost:** a [`CsrGraph::live_edges`] scan — `O(edge_id_bound())`
    /// including dead slots. Analysis-time only; nothing on the update hot
    /// path calls it.
    pub fn total_weight(&self) -> f64 {
        self.live_edges().map(|(_, _, _, w)| w).sum()
    }

    /// Returns `true` if every slot of the arrays holds a live half-edge:
    /// no unused capacity, no slot freed by a deletion and no window left
    /// behind by a moved row (see [`CsrGraph::compact`]).
    pub fn is_compact(&self) -> bool {
        self.targets.len() == 2 * self.num_edges()
    }

    /// Appends an undirected edge and returns its id.
    ///
    /// Both half-edges go at the ends of their rows; a full row first moves
    /// to the end of the slot arrays at double its capacity (see the
    /// [module docs](crate::csr)). Bumps the epoch.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the edge is a self-loop, or the
    /// weight is not positive and finite — the same contract as
    /// [`WeightedGraph::add_edge`]. Use [`CsrGraph::try_append_edge`] for a
    /// fallible variant (the path long-running processes should take, so a
    /// poisoned weight surfaces as an error instead of aborting).
    pub fn append_edge(&mut self, u: VertexId, v: VertexId, weight: f64) -> EdgeId {
        self.try_append_edge(u, v, weight)
            .expect("invalid edge passed to append_edge")
    }

    /// Appends an undirected edge, validating the input — the same contract
    /// as [`WeightedGraph::try_add_edge`]. In particular, non-finite weights
    /// (`NaN` / `±inf`) are rejected with [`GraphError::InvalidWeight`]
    /// *before* they can enter the structure: a single `NaN` weight breaks
    /// the greedy construction's sort order and every Dijkstra invariant
    /// downstream, so it must never be representable. Bumps the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`], [`GraphError::SelfLoop`] or
    /// [`GraphError::InvalidWeight`] on invalid input; the graph is
    /// unchanged in that case.
    pub fn try_append_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
    ) -> Result<EdgeId, GraphError> {
        let (ui, vi) = (u.index(), v.index());
        for endpoint in [ui, vi] {
            if endpoint >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: endpoint,
                    num_vertices: self.num_vertices,
                });
            }
        }
        if ui == vi {
            return Err(GraphError::SelfLoop { vertex: ui });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::InvalidWeight { weight });
        }
        let id = self.edge_list.len();
        assert!(
            2 * id + 2 <= u32::MAX as usize,
            "too many edges for u32 ids"
        );
        self.edge_list.push((ui as u32, vi as u32, weight));
        self.epoch += 1;
        // The new id exceeds every stored one, so the rows stay in id order.
        self.push_half_edge(ui, vi as u32, weight, id as u32);
        self.push_half_edge(vi, ui as u32, weight, id as u32);
        Ok(EdgeId(id))
    }

    /// Writes a half-edge at the end of row `a`, moving the row first if it
    /// is full.
    #[inline]
    fn push_half_edge(&mut self, a: usize, to: u32, weight: f64, id: u32) {
        let (start, end) = self.rows[a];
        if end - start == self.caps[a] {
            self.grow_row(a);
        }
        let slot = self.rows[a].1 as usize;
        self.targets[slot] = to;
        self.weights[slot] = weight;
        self.edge_ids[slot] = id;
        self.rows[a].1 += 1;
    }

    /// Doubles a full row's capacity (to at least [`MIN_ROW_CAPACITY`]):
    /// the row moves to the end of the slot arrays, leaving its old window
    /// dead, or grows in place when it already ends them.
    #[cold]
    fn grow_row(&mut self, a: usize) {
        let (start, end) = (self.rows[a].0 as usize, self.rows[a].1 as usize);
        let cap = (2 * self.caps[a] as usize).max(MIN_ROW_CAPACITY);
        let mut new_start = start;
        if start + self.caps[a] as usize != self.targets.len() {
            new_start = self.targets.len();
            self.targets.extend_from_within(start..end);
            self.weights.extend_from_within(start..end);
            self.edge_ids.extend_from_within(start..end);
        }
        self.rows[a] = (slot_offset(new_start), slot_offset(new_start + end - start));
        self.caps[a] = slot_offset(cap);
        self.targets.resize(new_start + cap, 0);
        self.weights.resize(new_start + cap, 0.0);
        self.edge_ids.resize(new_start + cap, 0);
    }

    /// Deletes the edge with the given id: both half-edges are spliced out
    /// of their rows, so no scan sees them again. The id stays allocated
    /// (never reused) so other ids remain stable. Bumps the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if the id is out of range or the
    /// edge was already deleted; the graph is unchanged in that case.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<(), GraphError> {
        if !self.is_edge_live(id) {
            return Err(GraphError::UnknownEdge { edge: id.index() });
        }
        let (u, v, _) = self.edge_list[id.index()];
        self.splice_out(u as usize, id.index() as u32);
        self.splice_out(v as usize, id.index() as u32);
        self.mark_dead(id.index());
        self.epoch += 1;
        Ok(())
    }

    /// Removes the half-edge of edge `id` from row `a`, shifting the rest of
    /// the row down one slot so it stays contiguous and in id order.
    fn splice_out(&mut self, a: usize, id: u32) {
        let (start, end) = (self.rows[a].0 as usize, self.rows[a].1 as usize);
        let at = start
            + self.edge_ids[start..end]
                .binary_search(&id)
                .expect("a live edge sits in both of its endpoints' rows");
        self.targets.copy_within(at + 1..end, at);
        self.weights.copy_within(at + 1..end, at);
        self.edge_ids.copy_within(at + 1..end, at);
        self.rows[a].1 -= 1;
    }

    /// The lowest live edge id connecting `u` and `v`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.neighbors(u).find(|nb| nb.to == v).map(|nb| nb.edge)
    }

    /// Deletes the lowest live edge id connecting `u` and `v` and returns
    /// it. Bumps the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] for a bad endpoint and
    /// [`GraphError::NoEdgeBetween`] when no live edge connects the pair.
    pub fn remove_edge_between(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        for endpoint in [u.index(), v.index()] {
            if endpoint >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: endpoint,
                    num_vertices: self.num_vertices,
                });
            }
        }
        let id = self.find_edge(u, v).ok_or(GraphError::NoEdgeBetween {
            u: u.index(),
            v: v.index(),
        })?;
        self.remove_edge(id)?;
        Ok(id)
    }

    /// Re-lays every row out tight, in vertex order (`O(n + m)`, `m` the
    /// edge-id bound), releasing unused capacity and the windows moved rows
    /// left behind; a no-op when the graph [is compact](Self::is_compact).
    /// Exposed for callers that want a tight layout before a query burst.
    /// Does **not** bump the epoch (a re-layout changes the representation,
    /// never an answer).
    pub fn compact(&mut self) {
        if self.is_compact() {
            return;
        }
        let n = self.num_vertices;
        // Counting sort of live half-edges by source vertex; filling in id
        // order keeps every row in id order.
        let mut counts = vec![0u32; n + 1];
        for (id, &(u, v, _)) in self.edge_list.iter().enumerate() {
            if !self.is_dead(id) {
                counts[u as usize + 1] += 1;
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let half = counts[n] as usize;
        let mut cursor = counts.clone();
        let mut targets = vec![0u32; half];
        let mut weights = vec![0.0f64; half];
        let mut edge_ids = vec![0u32; half];
        for (id, &(u, v, w)) in self.edge_list.iter().enumerate() {
            if self.is_dead(id) {
                continue;
            }
            for (a, b) in [(u, v), (v, u)] {
                let slot = cursor[a as usize] as usize;
                cursor[a as usize] += 1;
                targets[slot] = b;
                weights[slot] = w;
                edge_ids[slot] = id as u32;
            }
        }
        self.rows.clear();
        self.rows
            .extend(counts.windows(2).map(|pair| (pair[0], pair[1])));
        self.caps.clear();
        self.caps
            .extend(counts.windows(2).map(|pair| pair[1] - pair[0]));
        self.targets = targets;
        self.weights = weights;
        self.edge_ids = edge_ids;
    }

    /// Iterates over the live neighbors of `u` as [`CsrNeighbor`] records,
    /// in ascending edge-id order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> Neighbors<'_> {
        let (start, end) = self.rows[u.index()];
        Neighbors {
            graph: self,
            slots: start as usize..end as usize,
        }
    }

    /// Degree of `u` (number of live incident half-edges).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: VertexId) -> usize {
        let (start, end) = self.rows[u.index()];
        (end - start) as usize
    }

    /// `u`'s row as parallel `(targets, weights)` slices, in ascending
    /// edge-id order: exactly the live half-edges, the view every search
    /// loop scans.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn packed_neighbors(&self, u: VertexId) -> (&[u32], &[f64]) {
        let (a, b) = self.rows[u.index()];
        let (a, b) = (a as usize, b as usize);
        (&self.targets[a..b], &self.weights[a..b])
    }

    /// [`CsrGraph::packed_neighbors`] with the slot index of the row's first
    /// half-edge, for searches that record slots (see
    /// [`CsrGraph::slot_edge`]).
    #[inline]
    pub(crate) fn packed_row(&self, u: VertexId) -> (usize, &[u32], &[f64]) {
        let (a, b) = self.rows[u.index()];
        let (a, b) = (a as usize, b as usize);
        (a, &self.targets[a..b], &self.weights[a..b])
    }

    /// The id of the edge whose half-edge sits at `slot` (valid until the
    /// next mutation).
    #[inline]
    pub(crate) fn slot_edge(&self, slot: usize) -> EdgeId {
        EdgeId(self.edge_ids[slot] as usize)
    }

    /// A read-only snapshot view of this graph, frozen for a parallel query
    /// phase (see [`crate::parallel::EnginePool::map_batch`]) and stamped
    /// with the epoch it froze at ([`CsrSnapshot::epoch`]).
    ///
    /// The snapshot is just a shared borrow — `CsrGraph` has no interior
    /// mutability, so the view is `Sync` and workers on other threads can
    /// query it concurrently. The borrow also *prevents* mutations for the
    /// snapshot's lifetime, which is exactly the freeze the deterministic
    /// filter-then-commit loop relies on.
    pub fn snapshot(&self) -> CsrSnapshot<'_> {
        CsrSnapshot {
            graph: self,
            epoch: self.epoch,
        }
    }

    /// Materializes the live edges of this CSR graph as a [`WeightedGraph`].
    /// When no edge was ever deleted, edge ids coincide (append order is
    /// preserved); after deletions the ids re-densify, skipping dead slots.
    pub fn to_weighted_graph(&self) -> WeightedGraph {
        let edges = self
            .live_edges()
            .map(|(_, u, v, w)| Edge::new(u, v, w))
            .collect();
        WeightedGraph::from_valid_edges(self.num_vertices, edges)
    }

    /// Starts a fresh **generation**: a tight graph rebuilt from the live
    /// edges only, with ids re-densified in append order, plus the
    /// old-id → new-id remap. This is the bounded-memory escape hatch for
    /// the id-stability trade-off documented on the struct: the rebuilt
    /// graph's ground-truth arrays hold exactly [`CsrGraph::num_edges`]
    /// slots, with every dead slot (and its dead-id bit) reclaimed.
    ///
    /// Unlike [`CsrGraph::compact`] — a pure representation change — a
    /// generation rebuild is *logically observable* (edge ids shift), so the
    /// new graph carries **epoch `self.epoch() + 1`**: epoch-stamped readers
    /// (shortest-path-tree caches, serving handles) see the swap as one
    /// mutation and lazily refresh, exactly like any other staleness.
    ///
    /// Because the remap preserves append order, every row keeps its order
    /// over the live edges — and therefore every answer is unchanged; only
    /// the ids and the epoch move.
    pub fn rebuild_compacted(&self) -> CompactedRebuild {
        let mut graph = CsrGraph::new(self.num_vertices);
        graph.edge_list.reserve(self.num_edges());
        let mut remap = vec![None; self.edge_list.len()];
        for (id, &(u, v, w)) in self.edge_list.iter().enumerate() {
            if self.is_dead(id) {
                continue;
            }
            remap[id] = Some(EdgeId(graph.edge_list.len()));
            graph.edge_list.push((u, v, w));
        }
        graph.compact();
        graph.epoch = self.epoch + 1;
        CompactedRebuild { graph, remap }
    }

    /// Reconstructs a graph from externally stored parts — the
    /// deserialization counterpart of [`CsrGraph::live_edges`] plus the
    /// dead-id bitmap, used by the persistence layer to reproduce a graph
    /// **bit-identically**: same edge ids (dead slots included, so ids stay
    /// stable across a save/load cycle), same weights, same epoch.
    ///
    /// `edges` yields `(u, v, weight, live)` records in edge-id order; a
    /// `live = false` record re-creates a dead slot. Every record is
    /// validated like [`CsrGraph::try_append_edge`] (dead ones too — they
    /// passed validation when first appended, so a failure here means the
    /// stored data is corrupt). The result's rows are tight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`], [`GraphError::SelfLoop`] or
    /// [`GraphError::InvalidWeight`] for a record no append could have
    /// produced.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` or twice the edge count does not fit in
    /// `u32` — the same capacity contract as [`CsrGraph::new`] /
    /// [`CsrGraph::append_edge`] (persistence callers bounds-check stored
    /// counts before calling).
    pub fn from_parts(
        num_vertices: usize,
        epoch: u64,
        edges: impl IntoIterator<Item = (VertexId, VertexId, f64, bool)>,
    ) -> Result<CsrGraph, GraphError> {
        let mut graph = CsrGraph::new(num_vertices);
        for (u, v, weight, live) in edges {
            let (ui, vi) = (u.index(), v.index());
            for endpoint in [ui, vi] {
                if endpoint >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: endpoint,
                        num_vertices,
                    });
                }
            }
            if ui == vi {
                return Err(GraphError::SelfLoop { vertex: ui });
            }
            if !(weight.is_finite() && weight > 0.0) {
                return Err(GraphError::InvalidWeight { weight });
            }
            let id = graph.edge_list.len();
            assert!(
                2 * id + 2 <= u32::MAX as usize,
                "too many edges for u32 ids"
            );
            graph.edge_list.push((ui as u32, vi as u32, weight));
            if !live {
                graph.mark_dead(id);
            }
        }
        graph.compact();
        graph.epoch = epoch;
        Ok(graph)
    }
}

/// A bijective vertex renumbering: `to_internal` maps an original
/// ("external") id to its new ("internal") position and `to_external`
/// inverts it. The sharded partition uses one to lay shards out
/// contiguously (see [`crate::partition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPerm {
    to_internal: Vec<u32>,
    to_external: Vec<u32>,
}

impl VertexPerm {
    /// Number of vertices the permutation covers.
    pub fn len(&self) -> usize {
        self.to_internal.len()
    }

    /// Whether the permutation covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.to_internal.is_empty()
    }

    /// Returns `true` if the permutation maps every vertex to itself.
    pub fn is_identity(&self) -> bool {
        self.to_external
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i)
    }

    /// Maps an original (external) id to its renumbered (internal) id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn to_internal(&self, v: VertexId) -> VertexId {
        VertexId(self.to_internal[v.index()] as usize)
    }

    /// Maps a renumbered (internal) id back to the original (external) id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn to_external(&self, v: VertexId) -> VertexId {
        VertexId(self.to_external[v.index()] as usize)
    }

    /// The identity permutation over `n` vertices.
    pub fn identity(n: usize) -> VertexPerm {
        let to_external: Vec<u32> = (0..n as u32).collect();
        VertexPerm {
            to_internal: to_external.clone(),
            to_external,
        }
    }

    /// Builds a permutation from an explicit internal order:
    /// `order[internal]` is the external id placed at that internal
    /// position. This is how the sharded partition expresses
    /// "concatenate the shards' vertex lists".
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a bijection over `0..order.len()`.
    pub fn from_order(order: &[VertexId]) -> VertexPerm {
        let n = order.len();
        let mut to_internal = vec![u32::MAX; n];
        for (internal, &external) in order.iter().enumerate() {
            assert!(external.index() < n, "order entry out of range");
            assert!(
                to_internal[external.index()] == u32::MAX,
                "order repeats vertex {external:?}"
            );
            to_internal[external.index()] = internal as u32;
        }
        VertexPerm {
            to_internal,
            to_external: order.iter().map(|v| v.index() as u32).collect(),
        }
    }

    /// The inverse permutation: swaps the internal and external roles, so
    /// `p.compose(&p.inverse())` is the identity.
    pub fn inverse(&self) -> VertexPerm {
        VertexPerm {
            to_internal: self.to_external.clone(),
            to_external: self.to_internal.clone(),
        }
    }

    /// Composes two renumberings into one translation table: the result
    /// maps external id `v` to `then.to_internal(self.to_internal(v))`.
    /// This is how chained mappings — a shard-local mapping, a
    /// compaction remap — collapse into a single lookup instead of a
    /// pipeline of translations.
    ///
    /// # Panics
    ///
    /// Panics if the permutations cover different vertex counts.
    pub fn compose(&self, then: &VertexPerm) -> VertexPerm {
        assert_eq!(
            self.len(),
            then.len(),
            "composed permutations must cover the same vertex count"
        );
        let to_internal: Vec<u32> = self
            .to_internal
            .iter()
            .map(|&mid| then.to_internal[mid as usize])
            .collect();
        let to_external: Vec<u32> = then
            .to_external
            .iter()
            .map(|&mid| self.to_external[mid as usize])
            .collect();
        VertexPerm {
            to_internal,
            to_external,
        }
    }
}

/// A fresh generation produced by [`CsrGraph::rebuild_compacted`]: the dense
/// rebuilt graph plus the edge-id remap.
#[derive(Debug, Clone)]
pub struct CompactedRebuild {
    /// The rebuilt graph: live edges only, ids densified in append order,
    /// tight rows, at epoch `old + 1`.
    pub graph: CsrGraph,
    /// Old edge id → new edge id; `None` for slots that were dead (their
    /// ids have no successor in the new generation).
    pub remap: Vec<Option<EdgeId>>,
}

impl From<&WeightedGraph> for CsrGraph {
    /// Builds a tight CSR view of `graph` at epoch 0. Edge ids
    /// coincide with the source graph's [`EdgeId`]s.
    fn from(graph: &WeightedGraph) -> Self {
        let mut csr = CsrGraph::new(graph.num_vertices());
        csr.edge_list.reserve(graph.num_edges());
        for e in graph.edges() {
            csr.edge_list
                .push((e.u.index() as u32, e.v.index() as u32, e.weight));
        }
        assert!(
            2 * csr.edge_list.len() <= u32::MAX as usize,
            "too many edges for u32 ids"
        );
        csr.compact();
        csr
    }
}

/// A read-only, `Sync` view of a [`CsrGraph`] frozen for a parallel query
/// phase; produced by [`CsrGraph::snapshot`] and stamped with the epoch it
/// froze at.
///
/// Dereferences to the underlying graph, so every query API works on it
/// unchanged. Holding a snapshot borrows the graph shared, which statically
/// rules out concurrent mutation — the compiler enforces the filter-phase
/// freeze. The epoch stamp lets batch executors cross-check a caller's
/// expected epoch ([`crate::parallel::EnginePool::try_map_batch`]) and
/// refuse stale views with [`GraphError::StaleEpoch`].
#[derive(Debug, Clone, Copy)]
pub struct CsrSnapshot<'a> {
    graph: &'a CsrGraph,
    epoch: u64,
}

impl<'a> CsrSnapshot<'a> {
    /// The frozen graph.
    pub fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// The epoch the graph was at when this snapshot froze it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::ops::Deref for CsrSnapshot<'_> {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        self.graph
    }
}

// The whole point of the snapshot: it can be shared across worker threads.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<CsrSnapshot<'static>>();
};

/// Iterator over the live neighbors of one vertex; see
/// [`CsrGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    graph: &'a CsrGraph,
    slots: std::ops::Range<usize>,
}

impl Iterator for Neighbors<'_> {
    type Item = CsrNeighbor;

    #[inline]
    fn next(&mut self) -> Option<CsrNeighbor> {
        self.slots.next().map(|i| CsrNeighbor {
            to: VertexId(self.graph.targets[i] as usize),
            weight: self.graph.weights[i],
            edge: EdgeId(self.graph.edge_ids[i] as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;

    fn diamond() -> WeightedGraph {
        WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 2.0)]).unwrap()
    }

    /// Neighbor sets (target, weight, edge id) of `u`, sorted for comparison.
    fn sorted_neighbors(csr: &CsrGraph, u: usize) -> Vec<(usize, u64, usize)> {
        let mut v: Vec<_> = csr
            .neighbors(VertexId(u))
            .map(|nb| (nb.to.index(), nb.weight.to_bits(), nb.edge.index()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Asserts every row of `csr` reads exactly like a fresh
    /// [`CsrGraph::from`] of its live edges: the same records in the same
    /// (edge-id) order, with the fresh build's dense ids mapped back to
    /// `csr`'s, and the same `(targets, weights)` slices and degrees.
    fn assert_rows_match_a_fresh_build(csr: &CsrGraph) {
        let live: Vec<EdgeId> = csr.live_edges().map(|(id, _, _, _)| id).collect();
        let fresh = CsrGraph::from(&csr.to_weighted_graph());
        for u in (0..csr.num_vertices()).map(VertexId) {
            let expected: Vec<CsrNeighbor> = fresh
                .neighbors(u)
                .map(|nb| CsrNeighbor {
                    edge: live[nb.edge.index()],
                    ..nb
                })
                .collect();
            assert_eq!(
                csr.neighbors(u).collect::<Vec<_>>(),
                expected,
                "vertex {u:?}"
            );
            assert_eq!(
                csr.packed_neighbors(u),
                fresh.packed_neighbors(u),
                "vertex {u:?}"
            );
            assert_eq!(csr.degree(u), fresh.degree(u), "vertex {u:?}");
        }
        assert_eq!(csr.num_edges(), fresh.num_edges());
    }

    /// Where `u`'s row starts in memory: it changes exactly when the row
    /// (or, as it grows, the whole slot array) moves.
    fn row_address(csr: &CsrGraph, u: usize) -> *const u32 {
        csr.packed_neighbors(VertexId(u)).0.as_ptr()
    }

    /// The growth bound of the slot arrays: reservations, plus at most
    /// `2 · MIN_ROW_CAPACITY` slots per vertex and four per half-edge ever
    /// appended — every window a row outgrew was at most half its next one,
    /// and a row outgrows capacity `c` only while holding `c` half-edges.
    fn assert_slots_bounded(csr: &CsrGraph, reserved: usize) {
        let bound =
            reserved + 2 * MIN_ROW_CAPACITY * csr.num_vertices() + 4 * 2 * csr.edge_id_bound();
        assert!(
            csr.targets.len() <= bound,
            "{} slots exceed the growth bound {bound}",
            csr.targets.len()
        );
    }

    #[test]
    fn from_weighted_graph_matches_adjacency() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        assert!(csr.is_compact());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.epoch(), 0, "a freshly built view starts at epoch 0");
        for u in 0..4 {
            let mut expected: Vec<_> = g
                .neighbors(VertexId(u))
                .iter()
                .map(|&(v, e)| (v.index(), g.edge(e).weight.to_bits(), e.index()))
                .collect();
            expected.sort_unstable();
            assert_eq!(sorted_neighbors(&csr, u), expected, "vertex {u}");
        }
        assert!((csr.total_weight() - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn append_edge_then_compact_round_trips() {
        let g = diamond();
        let mut csr = CsrGraph::new(4);
        for (i, e) in g.edges().iter().enumerate() {
            let id = csr.append_edge(e.u, e.v, e.weight);
            assert_eq!(id.index(), i);
        }
        // Rows grown from empty must already answer correctly…
        assert!(!csr.is_compact(), "grown rows keep spare capacity");
        assert_rows_match_a_fresh_build(&csr);
        let before: Vec<_> = (0..4).map(|u| sorted_neighbors(&csr, u)).collect();
        let epoch_before = csr.epoch();
        csr.compact();
        assert!(csr.is_compact());
        assert_eq!(csr.epoch(), epoch_before, "re-layouts never bump epochs");
        // …and compaction must not change anything.
        for (u, b) in before.iter().enumerate() {
            assert_eq!(&sorted_neighbors(&csr, u), b);
        }
        let back = csr.to_weighted_graph();
        assert_eq!(back, g);
    }

    #[test]
    fn many_appends_from_empty_keep_rows_in_id_order() {
        // Enough appends that every row moves several times.
        let n = 50usize;
        let mut csr = CsrGraph::new(n);
        let mut reference = WeightedGraph::new(n);
        let mut k = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + 2 * v) % 3 == 0 {
                    let w = 1.0 + (k % 7) as f64;
                    csr.append_edge(VertexId(u), VertexId(v), w);
                    reference.add_edge(VertexId(u), VertexId(v), w);
                    k += 1;
                }
            }
        }
        assert_eq!(csr.num_edges(), reference.num_edges());
        assert_eq!(csr.epoch(), reference.num_edges() as u64);
        let packed = CsrGraph::from(&reference);
        for u in (0..n).map(VertexId) {
            assert_eq!(
                csr.neighbors(u).collect::<Vec<_>>(),
                packed.neighbors(u).collect::<Vec<_>>(),
                "vertex {u:?}"
            );
        }
        assert_slots_bounded(&csr, 0);
    }

    /// Append/delete churn with a re-layout every few dozen rounds: after
    /// every mutation each row holds exactly the live half-edges in id
    /// order, and the slot arrays stay within their growth bound.
    #[test]
    fn repeated_repack_cycles_keep_rows_consistent_with_the_live_edges() {
        let n = 24usize;
        let mut csr = CsrGraph::new(n);
        let mut live: Vec<(usize, usize, f64, usize)> = Vec::new(); // (u, v, w, id)
        let mut next = 0usize;
        for round in 0..400 {
            if round % 5 == 4 && !live.is_empty() {
                // Delete a pseudo-random live edge.
                let pick = (round * 7) % live.len();
                let (_, _, _, id) = live.swap_remove(pick);
                csr.remove_edge(EdgeId(id)).unwrap();
            } else {
                let u = next % n;
                let v = (next / n + u + 1) % n;
                next += 1;
                if u == v {
                    continue;
                }
                let w = 1.0 + (round % 9) as f64;
                let id = csr.append_edge(VertexId(u), VertexId(v), w);
                live.push((u, v, w, id.index()));
            }
            if round % 50 == 49 {
                csr.compact();
                assert!(csr.is_compact(), "round {round}");
            }
            assert_slots_bounded(&csr, 0);
            assert_eq!(csr.num_edges(), live.len());
            for u in 0..n {
                let mut expected: Vec<(usize, u64, usize)> = live
                    .iter()
                    .flat_map(|&(a, b, w, id)| {
                        [(a, b), (b, a)]
                            .into_iter()
                            .filter(move |&(from, _)| from == u)
                            .map(move |(_, to)| (to, w.to_bits(), id))
                    })
                    .collect();
                expected.sort_unstable_by_key(|&(_, _, id)| id);
                let row: Vec<(usize, u64, usize)> = csr
                    .neighbors(VertexId(u))
                    .map(|nb| (nb.to.index(), nb.weight.to_bits(), nb.edge.index()))
                    .collect();
                assert_eq!(row, expected, "round {round} vertex {u}");
            }
        }
    }

    /// Edges on 9 vertices with parallel copies, weight ties and isolated
    /// vertices 7 and 8.
    fn reserved_fixture() -> WeightedGraph {
        WeightedGraph::from_edges(
            9,
            [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 2.0),
                (2, 3, 0.5),
                (0, 1, 3.0),
                (3, 4, 1.5),
                (4, 5, 1.5),
                (5, 6, 4.0),
                (3, 6, 0.25),
                (1, 6, 2.0),
            ],
        )
        .unwrap()
    }

    /// Per-vertex degrees of `g`, the reservation a greedy construction
    /// makes for a spanner of `g`.
    fn degrees(g: &WeightedGraph) -> Vec<u32> {
        (0..g.num_vertices())
            .map(|u| g.neighbors(VertexId(u)).len() as u32)
            .collect()
    }

    #[test]
    fn reserved_rows_read_like_a_packed_build_in_id_order() {
        let g = reserved_fixture();
        let mut csr = CsrGraph::with_row_capacity(&degrees(&g));
        assert_eq!(csr.num_vertices(), 9);
        let addresses: Vec<_> = (0..9).map(|u| row_address(&csr, u)).collect();
        for (i, e) in g.edges().iter().enumerate() {
            let id = csr.append_edge(e.u, e.v, e.weight);
            assert_eq!(id.index(), i);
            assert_eq!(csr.epoch(), i as u64 + 1, "every append bumps the epoch");
        }
        let moved: Vec<_> = (0..9)
            .filter(|&u| row_address(&csr, u) != addresses[u])
            .collect();
        assert_eq!(
            moved,
            Vec::<usize>::new(),
            "a reserved append never moves a row"
        );
        // Reserved exactly at the degrees, the rows end up tight.
        assert!(csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
        assert_eq!(csr.to_weighted_graph(), g);
        let epoch = csr.epoch();
        csr.compact();
        assert_eq!(csr.epoch(), epoch);
        assert_rows_match_a_fresh_build(&csr);
        assert!(CsrGraph::with_row_capacity(&[]).is_edgeless());
    }

    #[test]
    fn unused_reservations_are_invisible_and_compact_releases_them() {
        let g = reserved_fixture();
        let slack: Vec<u32> = degrees(&g).iter().map(|d| 2 * d + 1).collect();
        let mut csr = CsrGraph::with_row_capacity(&slack);
        for e in g.edges() {
            csr.append_edge(e.u, e.v, e.weight);
        }
        assert!(!csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
        csr.compact();
        assert!(csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
        // Tight rows have no room: the next append moves both rows.
        csr.append_edge(VertexId(7), VertexId(8), 1.0);
        assert!(!csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
    }

    #[test]
    fn appends_past_a_full_row_relocate_it_and_keep_id_order() {
        let g = reserved_fixture();
        // Vertex 1 is reserved one slot short, so its last edge (1, 6),
        // id 9, moves its row; the rows of 7 and 8 have room to spare.
        let mut capacity = degrees(&g);
        capacity[1] -= 1;
        capacity[7] = 4;
        capacity[8] = 4;
        let mut csr = CsrGraph::with_row_capacity(&capacity);
        let edges = g.edges();
        for e in &edges[..9] {
            csr.append_edge(e.u, e.v, e.weight);
        }
        let addresses: Vec<_> = (0..9).map(|u| row_address(&csr, u)).collect();
        let e = &edges[9];
        csr.append_edge(e.u, e.v, e.weight);
        assert_ne!(row_address(&csr, 1), addresses[1], "the full row moves");
        let mut grown = g.clone();
        for (u, v, w) in [(7, 8, 1.0), (0, 7, 2.0), (1, 7, 0.5)] {
            csr.append_edge(VertexId(u), VertexId(v), w);
            grown.add_edge(VertexId(u), VertexId(v), w);
        }
        // The moved row took the next append at its new home, in id order.
        let row_1: Vec<usize> = csr
            .neighbors(VertexId(1))
            .map(|nb| nb.edge.index())
            .collect();
        assert_eq!(row_1, vec![0, 1, 4, 9, 12]);
        assert!(!csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
        assert_eq!(csr.to_weighted_graph(), grown);
        csr.compact();
        assert!(csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
    }

    #[test]
    fn deletions_on_a_reserved_graph_are_skipped_and_consolidated() {
        let g = reserved_fixture();
        let mut csr = CsrGraph::with_row_capacity(&degrees(&g));
        let edges = g.edges();
        for e in &edges[..6] {
            csr.append_edge(e.u, e.v, e.weight);
        }
        // Delete one edge with a parallel copy and one ordinary edge, then
        // keep appending into the reserved slots.
        csr.remove_edge(EdgeId(0)).unwrap();
        csr.remove_edge(EdgeId(3)).unwrap();
        assert_eq!(csr.epoch(), 8);
        assert_eq!(csr.dead_edges(), 2);
        assert_rows_match_a_fresh_build(&csr);
        let addresses: Vec<_> = (0..9).map(|u| row_address(&csr, u)).collect();
        for e in &edges[6..] {
            csr.append_edge(e.u, e.v, e.weight);
        }
        assert_eq!(csr.epoch(), 12);
        assert!(
            (0..9).all(|u| row_address(&csr, u) == addresses[u]),
            "the reservations hold every append: no row moves"
        );
        assert!(!csr.is_compact(), "the deleted edges' slots stay free");
        assert_rows_match_a_fresh_build(&csr);
        assert_eq!(csr.find_edge(VertexId(0), VertexId(1)), Some(EdgeId(4)));
        assert_eq!(csr.num_edges(), 8);
        csr.compact();
        assert!(csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
        assert!(csr
            .live_edges()
            .all(|(id, _, _, _)| id != EdgeId(0) && id != EdgeId(3)));
        let survivors = csr.to_weighted_graph();
        assert_eq!(survivors.num_edges(), 8);
        assert!(!survivors.has_edge(VertexId(2), VertexId(3)));
    }

    /// A deletion from a full reserved row frees a slot that the row's next
    /// append takes: the row neither moves nor grows the slot arrays.
    #[test]
    fn a_deletion_frees_a_slot_that_the_next_append_reuses() {
        let g = reserved_fixture();
        let mut csr = CsrGraph::with_row_capacity(&degrees(&g));
        for e in g.edges() {
            csr.append_edge(e.u, e.v, e.weight);
        }
        assert!(csr.is_compact(), "every reserved row is full");
        let slots = csr.targets.len();
        let address = row_address(&csr, 0);
        // Vertex 0's row holds ids 0, 2, 4; delete the middle one.
        csr.remove_edge(EdgeId(2)).unwrap();
        assert_rows_match_a_fresh_build(&csr);
        let id = csr.append_edge(VertexId(0), VertexId(2), 0.75);
        assert_eq!(id, EdgeId(10), "ids are never reused");
        assert_eq!(row_address(&csr, 0), address, "the row stays in place");
        assert_eq!(csr.targets.len(), slots, "the freed slot is reused");
        let row_0: Vec<usize> = csr
            .neighbors(VertexId(0))
            .map(|nb| nb.edge.index())
            .collect();
        assert_eq!(row_0, vec![0, 4, 10]);
        assert!(csr.is_compact());
        assert_rows_match_a_fresh_build(&csr);
    }

    #[test]
    fn edge_accessor_returns_append_order() {
        let mut csr = CsrGraph::new(3);
        csr.append_edge(VertexId(2), VertexId(0), 1.5);
        csr.append_edge(VertexId(0), VertexId(1), 2.5);
        assert_eq!(csr.edge(EdgeId(0)), (VertexId(2), VertexId(0), 1.5));
        assert_eq!(csr.edge(EdgeId(1)), (VertexId(0), VertexId(1), 2.5));
        assert_eq!(csr.degree(VertexId(0)), 2);
        assert_eq!(csr.degree(VertexId(1)), 1);
        assert!(!csr.is_edgeless());
        assert!(CsrGraph::new(2).is_edgeless());
    }

    #[test]
    fn remove_edge_tombstones_and_consolidates() {
        let g = diamond();
        let mut csr = CsrGraph::from(&g);
        assert_eq!(csr.epoch(), 0);
        // Delete the heavy (0, 2) edge: id 2 in from_edges order.
        csr.remove_edge(EdgeId(2)).unwrap();
        assert_eq!(csr.epoch(), 1);
        assert_eq!(csr.num_edges(), 3);
        assert!(!csr.is_edge_live(EdgeId(2)));
        assert!(csr.is_edge_live(EdgeId(0)));
        assert_eq!(csr.edge_id_bound(), 4, "dead ids stay allocated");
        assert_eq!(csr.dead_edges(), 1);
        assert!(!csr.is_compact(), "the spliced-out slots stay free");
        assert!(sorted_neighbors(&csr, 0).iter().all(|&(to, _, _)| to != 2));
        assert_eq!(csr.degree(VertexId(0)), 1);
        assert!((csr.total_weight() - 4.0).abs() < 1e-12);
        assert_rows_match_a_fresh_build(&csr);
        // Double delete and out-of-range ids are typed errors.
        assert_eq!(
            csr.remove_edge(EdgeId(2)),
            Err(GraphError::UnknownEdge { edge: 2 })
        );
        assert_eq!(
            csr.remove_edge(EdgeId(99)),
            Err(GraphError::UnknownEdge { edge: 99 })
        );
        // Compaction releases the free slots; answers are unchanged and the
        // live edges survive a round trip.
        let before: Vec<_> = (0..4).map(|u| sorted_neighbors(&csr, u)).collect();
        csr.compact();
        assert!(csr.is_compact());
        assert_eq!(csr.dead_edges(), 1, "compaction keeps ids and dead slots");
        for (u, b) in before.iter().enumerate() {
            assert_eq!(&sorted_neighbors(&csr, u), b);
        }
        let back = csr.to_weighted_graph();
        assert_eq!(back.num_edges(), 3);
        assert!(!back.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn remove_edge_between_picks_the_lowest_live_id() {
        let mut csr = CsrGraph::new(3);
        csr.append_edge(VertexId(0), VertexId(1), 1.0); // id 0
        csr.append_edge(VertexId(0), VertexId(1), 2.0); // id 1 (parallel)
        assert_eq!(csr.find_edge(VertexId(0), VertexId(1)), Some(EdgeId(0)));
        assert_eq!(
            csr.remove_edge_between(VertexId(0), VertexId(1)).unwrap(),
            EdgeId(0)
        );
        assert_eq!(csr.find_edge(VertexId(0), VertexId(1)), Some(EdgeId(1)));
        assert_eq!(
            csr.remove_edge_between(VertexId(0), VertexId(1)).unwrap(),
            EdgeId(1)
        );
        assert!(matches!(
            csr.remove_edge_between(VertexId(0), VertexId(1)),
            Err(GraphError::NoEdgeBetween { u: 0, v: 1 })
        ));
        assert!(matches!(
            csr.remove_edge_between(VertexId(0), VertexId(9)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert_eq!(csr.find_edge(VertexId(0), VertexId(2)), None);
    }

    #[test]
    fn epochs_advance_per_logical_mutation() {
        let mut csr = CsrGraph::new(3);
        let snap_epoch = csr.snapshot().epoch();
        assert_eq!(snap_epoch, 0);
        csr.append_edge(VertexId(0), VertexId(1), 1.0);
        csr.append_edge(VertexId(1), VertexId(2), 1.0);
        assert_eq!(csr.epoch(), 2);
        csr.remove_edge(EdgeId(0)).unwrap();
        assert_eq!(csr.epoch(), 3);
        assert_eq!(csr.snapshot().epoch(), 3);
        // Rejected mutations leave the epoch untouched.
        assert!(csr.try_append_edge(VertexId(0), VertexId(0), 1.0).is_err());
        assert!(csr.remove_edge(EdgeId(0)).is_err());
        assert_eq!(csr.epoch(), 3);
    }

    #[test]
    fn live_edges_skips_dead_slots() {
        let g = diamond();
        let mut csr = CsrGraph::from(&g);
        csr.remove_edge(EdgeId(1)).unwrap();
        let ids: Vec<usize> = csr.live_edges().map(|(id, _, _, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert_eq!(csr.live_edges().count(), csr.num_edges());
    }

    /// The `O(1)` dead-slot counters must agree with a full ground-truth
    /// scan at every point of a mixed append/delete history — the cached
    /// resolution for the `live_edges()` cost audit: hot paths read these
    /// counters, never the scan.
    #[test]
    fn dead_edge_counters_match_a_full_scan() {
        let mut csr = CsrGraph::new(10);
        assert!(csr.is_edgeless());
        assert_eq!(csr.dead_edges(), 0);
        assert_eq!(csr.tombstoned_fraction(), 0.0, "edgeless graph");
        let mut ids = Vec::new();
        for i in 0..30usize {
            let (u, v) = (i % 10, (i + 1 + i / 10) % 10);
            if u == v {
                continue;
            }
            ids.push(csr.append_edge(VertexId(u), VertexId(v), 1.0 + i as f64));
        }
        let check = |csr: &CsrGraph| {
            let scanned_live = csr.live_edges().count();
            assert_eq!(csr.num_edges(), scanned_live);
            assert_eq!(csr.dead_edges(), csr.edge_id_bound() - scanned_live);
            let expected = csr.dead_edges() as f64 / csr.edge_id_bound() as f64;
            assert_eq!(csr.tombstoned_fraction().to_bits(), expected.to_bits());
        };
        for (k, id) in ids.iter().enumerate() {
            if k % 3 == 0 {
                csr.remove_edge(*id).unwrap();
            }
            check(&csr);
        }
        assert!(csr.dead_edges() > 0, "the loop must delete something");
        // Deleting every remaining edge empties the graph again.
        for (k, id) in ids.iter().enumerate() {
            if k % 3 != 0 {
                csr.remove_edge(*id).unwrap();
            }
        }
        check(&csr);
        assert!(csr.is_edgeless());
        assert_eq!(csr.tombstoned_fraction(), 1.0);
        assert!((0..10).all(|u| csr.degree(VertexId(u)) == 0));
    }

    #[test]
    fn rebuild_compacted_densifies_ids_preserves_answers_and_bumps_epoch() {
        let mut csr = CsrGraph::new(6);
        let mut live = Vec::new(); // (old id, u, v, w)
        for (k, &(u, v, w)) in [
            (0usize, 1usize, 1.5f64),
            (1, 2, 2.5),
            (2, 3, 3.5),
            (3, 4, 4.5),
            (4, 5, 5.5),
            (0, 5, 6.5),
            (1, 4, 7.5),
        ]
        .iter()
        .enumerate()
        {
            let id = csr.append_edge(VertexId(u), VertexId(v), w);
            if k % 2 == 1 {
                csr.remove_edge(id).unwrap();
            } else {
                live.push((id, u, v, w));
            }
        }
        let epoch_before = csr.epoch();
        let rebuild = csr.rebuild_compacted();
        let fresh = &rebuild.graph;
        // Dense: every slot live, dead bookkeeping reclaimed.
        assert_eq!(fresh.num_edges(), csr.num_edges());
        assert_eq!(fresh.edge_id_bound(), fresh.num_edges());
        assert_eq!(fresh.dead_edges(), 0);
        assert_eq!(fresh.tombstoned_fraction(), 0.0);
        assert!(fresh.is_compact());
        // One logical mutation: the id shift is observable, so epoch-stamped
        // readers must see the swap.
        assert_eq!(fresh.epoch(), epoch_before + 1);
        // The remap sends live ids to densified ids in append order and dead
        // ids nowhere.
        assert_eq!(rebuild.remap.len(), csr.edge_id_bound());
        let mut expected_new = 0usize;
        for (id, entry) in rebuild.remap.iter().enumerate() {
            if csr.is_edge_live(EdgeId(id)) {
                assert_eq!(*entry, Some(EdgeId(expected_new)), "old id {id}");
                expected_new += 1;
            } else {
                assert_eq!(*entry, None, "dead id {id}");
            }
        }
        // Records survive bit-identically under the remap.
        for &(old_id, u, v, w) in &live {
            let new_id = rebuild.remap[old_id.index()].unwrap();
            let (nu, nv, nw) = fresh.edge(new_id);
            assert_eq!((nu.index(), nv.index()), (u, v));
            assert_eq!(nw.to_bits(), w.to_bits());
        }
        // Rows (and thus every answer) are unchanged modulo ids.
        for u in (0..6).map(VertexId) {
            assert_eq!(
                csr.packed_neighbors(u),
                fresh.packed_neighbors(u),
                "vertex {u:?}"
            );
        }
        // A rebuild of an already dense graph is an identity remap.
        let again = fresh.rebuild_compacted();
        assert!(again
            .remap
            .iter()
            .enumerate()
            .all(|(i, r)| *r == Some(EdgeId(i))));
    }

    #[test]
    fn from_parts_round_trips_bit_identically() {
        let mut csr = CsrGraph::new(5);
        for (u, v, w) in [(0, 1, 0.125), (1, 2, 2.0), (2, 3, 3.75), (3, 4, 1.0e-3)] {
            csr.append_edge(VertexId(u), VertexId(v), w);
        }
        csr.remove_edge(EdgeId(1)).unwrap();
        csr.remove_edge(EdgeId(3)).unwrap();
        let parts: Vec<(VertexId, VertexId, f64, bool)> = (0..csr.edge_id_bound())
            .map(|id| {
                let (u, v, w) = csr.edge(EdgeId(id));
                (u, v, w, csr.is_edge_live(EdgeId(id)))
            })
            .collect();
        let restored = CsrGraph::from_parts(csr.num_vertices(), csr.epoch(), parts).unwrap();
        assert_eq!(restored.epoch(), csr.epoch());
        assert_eq!(restored.num_vertices(), csr.num_vertices());
        assert_eq!(restored.edge_id_bound(), csr.edge_id_bound());
        assert_eq!(restored.num_edges(), csr.num_edges());
        assert_eq!(restored.dead_edges(), csr.dead_edges());
        assert!(restored.is_compact(), "from_parts lays out tight rows");
        for id in 0..csr.edge_id_bound() {
            let id = EdgeId(id);
            assert_eq!(restored.is_edge_live(id), csr.is_edge_live(id));
            let (u, v, w) = csr.edge(id);
            let (ru, rv, rw) = restored.edge(id);
            assert_eq!((ru, rv), (u, v));
            assert_eq!(rw.to_bits(), w.to_bits());
        }
        for u in (0..5).map(VertexId) {
            assert_eq!(
                restored.neighbors(u).collect::<Vec<_>>(),
                csr.neighbors(u).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn from_parts_rejects_records_no_append_could_have_produced() {
        let bad_vertex = CsrGraph::from_parts(3, 0, [(VertexId(0), VertexId(7), 1.0, true)]);
        assert!(matches!(
            bad_vertex,
            Err(GraphError::VertexOutOfRange { vertex: 7, .. })
        ));
        let self_loop = CsrGraph::from_parts(3, 0, [(VertexId(1), VertexId(1), 1.0, true)]);
        assert!(matches!(self_loop, Err(GraphError::SelfLoop { vertex: 1 })));
        // Dead records are validated too: they were valid when first
        // appended, so an invalid one means corrupt storage.
        let bad_weight = CsrGraph::from_parts(3, 0, [(VertexId(0), VertexId(1), f64::NAN, false)]);
        assert!(matches!(bad_weight, Err(GraphError::InvalidWeight { .. })));
        // And the empty graph round-trips.
        let empty = CsrGraph::from_parts(4, 9, std::iter::empty()).unwrap();
        assert_eq!(empty.num_vertices(), 4);
        assert_eq!(empty.epoch(), 9);
        assert!(empty.is_edgeless());
    }

    #[test]
    #[should_panic(expected = "SelfLoop")]
    fn append_rejects_self_loop() {
        CsrGraph::new(2).append_edge(VertexId(1), VertexId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "VertexOutOfRange")]
    fn append_rejects_bad_endpoint() {
        CsrGraph::new(2).append_edge(VertexId(0), VertexId(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn append_rejects_bad_weight() {
        CsrGraph::new(2).append_edge(VertexId(0), VertexId(1), f64::NAN);
    }

    #[test]
    fn try_append_rejects_invalid_edges_without_mutating() {
        let mut csr = CsrGraph::new(3);
        csr.append_edge(VertexId(0), VertexId(1), 1.0);
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert!(
                matches!(
                    csr.try_append_edge(VertexId(0), VertexId(2), w),
                    Err(GraphError::InvalidWeight { .. })
                ),
                "weight {w}"
            );
        }
        assert!(matches!(
            csr.try_append_edge(VertexId(0), VertexId(9), 1.0),
            Err(GraphError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 3
            })
        ));
        assert!(matches!(
            csr.try_append_edge(VertexId(2), VertexId(2), 1.0),
            Err(GraphError::SelfLoop { vertex: 2 })
        ));
        // Nothing was appended by any of the rejected calls.
        assert_eq!(csr.num_edges(), 1);
        assert_eq!(csr.degree(VertexId(2)), 0);
        let ok = csr.try_append_edge(VertexId(1), VertexId(2), 2.0).unwrap();
        assert_eq!(ok, EdgeId(1));
    }
}
