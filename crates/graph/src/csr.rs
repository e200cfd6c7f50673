//! Compressed-sparse-row view of a weighted graph.
//!
//! [`WeightedGraph`] stores adjacency as one `Vec` per vertex — ideal for
//! construction and mutation, but every Dijkstra relaxation chases a pointer
//! per vertex and a second one into the edge list. [`CsrGraph`] is the
//! cache-friendly counterpart: all half-edges live in flat arrays (`targets`
//! / `weights`, plus the originating edge index) indexed by one
//! `(start, end)` row per vertex, so a neighbor scan is a contiguous read.
//!
//! Unlike a classical CSR, this one is *mutable*: spanner constructions grow
//! their output one edge at a time while querying it, and the live-update
//! subsystem additionally deletes edges from a long-running spanner.
//!
//! * **Reserved rows.** A construction that knows its output is a subgraph
//!   of a candidate set opens the graph with
//!   [`CsrGraph::with_row_capacity`], reserving each vertex's packed row at
//!   its candidate degree. Each row keeps its own fill end, so
//!   [`CsrGraph::append_edge`] writes both half-edges straight into their
//!   reserved slots in `O(1)`: no overflow chain, no re-pack, and every
//!   scan stays fully packed. Rows list their half-edges in edge-id order,
//!   exactly as a [`CsrGraph::from`] of the same edges does.
//! * **Insertions** that do not fit (a full row, or a graph without
//!   reservations such as [`CsrGraph::new`]) land in the [`DeltaOverlay`]'s
//!   small per-vertex overflow chains. Once one append has gone there, later
//!   ones follow it until the next re-pack, so the packed rows always cover
//!   a prefix of the edge ids.
//! * **Deletions** ([`CsrGraph::remove_edge`]) set a bit in the overlay's
//!   tombstone bitmap — the half-edges stay physically present until the
//!   next re-pack but every scan skips them.
//! * Once the overlay grows past a constant fraction of the packed region
//!   (see [`REPACK_OVERFLOW_DIVISOR`] / [`REPACK_OVERFLOW_SLACK`]) the whole
//!   structure is re-packed in `O(n + m)` into tight rows: chains fold into
//!   the packed arrays and tombstoned half-edges are dropped.
//!
//! Re-packing is not free when a graph grows from empty through the
//! overlay: each re-pack grows the packed region by only about 1/8, so a
//! spanner of `m` edges re-packs `Θ(log_{9/8} m)` times, and every re-pack
//! pays `O(n)` for the row index on top of the edges it moves. The
//! 127,629-edge greedy spanner of a 300 × 300 grid re-packs 58 times that
//! way, each pass touching all 90,000 rows: appending its edges one by one
//! takes ≈ 60 ms, against ≈ 11 ms into rows reserved at the grid's degrees
//! (best of 5, release build, 2-core Xeon VM). Reserved rows avoid the
//! re-packs, which is why the greedy constructions open their output that
//! way.
//!
//! # Epochs
//!
//! Every *logical* mutation — an append or a removal, never a re-pack —
//! bumps a monotonically increasing [`CsrGraph::epoch`] counter. Long-lived
//! readers (shortest-path-tree caches, serving handles) stamp the epoch they
//! were built at and detect staleness by comparing stamps:
//! [`CsrGraph::verify_epoch`] returns [`GraphError::StaleEpoch`] on
//! mismatch, and [`CsrSnapshot`] carries the epoch it froze at so batch
//! executors can refuse stale views with a typed error instead of silently
//! answering against old data.
//!
//! The companion query type is [`crate::engine::DijkstraEngine`], which owns
//! the per-query workspace so repeated shortest-path queries against a
//! `CsrGraph` perform no per-query heap allocation.

use crate::error::GraphError;
use crate::graph::{Edge, EdgeId, VertexId, WeightedGraph};

/// Sentinel for "no entry" in the overflow chains.
const NONE: u32 = u32::MAX;

/// Denominator of the re-pack trigger: the overlay may hold up to
/// `packed_half_edges / REPACK_OVERFLOW_DIVISOR + REPACK_OVERFLOW_SLACK`
/// pending half-edges (insertions, or deletions still lingering in the
/// packed arrays) before [`CsrGraph::compact`] runs automatically.
///
/// The fraction keeps neighbor scans almost entirely packed: chain-walking
/// and tombstone-skipping cost every later query, a re-pack costs once. The
/// price falls on graphs grown from empty through the overlay: the packed
/// region grows by about 1/8 per re-pack, so reaching `m` edges takes
/// `Θ(log_{9/8} m)` re-packs of `O(n + m)` each (58 for a 127,629-edge
/// spanner over 90,000 vertices). Constructions that know their candidate
/// set skip the overlay altogether with [`CsrGraph::with_row_capacity`].
pub const REPACK_OVERFLOW_DIVISOR: usize = 8;

/// Additive slack of the re-pack trigger (see [`REPACK_OVERFLOW_DIVISOR`]):
/// small graphs get a constant grace budget so the first few appends do not
/// each trigger an `O(n)` re-pack.
pub const REPACK_OVERFLOW_SLACK: usize = 32;

/// Panics unless `num_vertices` fits the graph's `u32` vertex ids; checked
/// before any `O(n)` allocation.
fn assert_vertex_count(num_vertices: usize) {
    assert!(
        num_vertices < u32::MAX as usize,
        "CsrGraph vertex count must fit in u32"
    );
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

/// The pending mutations layered over the packed CSR arrays: overflow chains
/// of appended half-edges plus a tombstone bitmap of deleted edges.
///
/// Readers never consult the overlay directly — [`CsrGraph::neighbors`] and
/// the Dijkstra engine fold it in transparently — but its occupancy is
/// observable ([`DeltaOverlay::pending_insertions`] /
/// [`DeltaOverlay::pending_deletions`]) so long-running processes can reason
/// about when the next consolidation ([`CsrGraph::compact`]) will happen.
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    /// Per-source chain head into the slot arrays (most recent first).
    head: Vec<u32>,
    next: Vec<u32>,
    target: Vec<u32>,
    weight: Vec<f64>,
    edge: Vec<u32>,
    /// Tombstone bitmap over edge ids; a set bit marks a deleted edge. The
    /// bitmap is never cleared — a deleted id stays dead forever — but the
    /// *pending* counter below resets when a re-pack drops the dead
    /// half-edges from the packed arrays.
    tombstone: Vec<u64>,
    /// Dead edges whose half-edges still linger in the packed arrays or in
    /// the insertion chains; consolidated (reset to 0) by re-packing.
    pending_deletions: usize,
    /// Total edges ever deleted (the difference between allocated ids and
    /// live edges).
    dead_edges: usize,
}

impl DeltaOverlay {
    fn new(num_vertices: usize) -> Self {
        DeltaOverlay {
            head: vec![NONE; num_vertices],
            ..DeltaOverlay::default()
        }
    }

    #[inline]
    fn is_dead(&self, id: usize) -> bool {
        self.tombstone
            .get(id >> 6)
            .is_some_and(|word| (word >> (id & 63)) & 1 == 1)
    }

    fn mark_dead(&mut self, id: usize) {
        let word = id >> 6;
        if word >= self.tombstone.len() {
            self.tombstone.resize(word + 1, 0);
        }
        self.tombstone[word] |= 1 << (id & 63);
        self.pending_deletions += 1;
        self.dead_edges += 1;
    }

    /// Half-edges appended since the last re-pack, as whole edges.
    pub fn pending_insertions(&self) -> usize {
        self.target.len() / 2
    }

    /// Deleted edges whose half-edges still linger in the packed arrays or
    /// the insertion chains (reset by the next re-pack).
    pub fn pending_deletions(&self) -> usize {
        self.pending_deletions
    }
}

/// An undirected weighted graph in compressed-sparse-row form, incrementally
/// appendable and deletable.
///
/// Vertex ids are dense `0..n` and must fit in `u32`; every undirected edge
/// is stored as two half-edges. Build one with [`CsrGraph::from`] a
/// [`WeightedGraph`] (fully packed) or grow one from empty with
/// [`CsrGraph::append_edge`] (the greedy-spanner pattern: the spanner under
/// construction is queried after every append). Long-running processes
/// additionally delete edges with [`CsrGraph::remove_edge`]; see the
/// [module docs](crate::csr) for the overlay/epoch model.
///
/// **Id-stability trade-off:** deleted edges keep their `edge_list` slot and
/// tombstone bit forever so ids never shift, which means the *ground-truth*
/// arrays (not the packed scan arrays — those drop dead half-edges at every
/// re-pack) grow with the total number of edges ever appended, not with the
/// live count. Under unbounded insert/delete churn, periodically start a
/// fresh **generation** with [`CsrGraph::rebuild_compacted`] — a dense
/// rebuild from [`CsrGraph::live_edges`] that re-densifies ids (returning
/// the old-id → new-id remap) and reclaims the dead slots behind a bumped
/// epoch. The dead-slot pressure is observable in `O(1)` via
/// [`CsrGraph::dead_edges`] / [`CsrGraph::tombstoned_fraction`], so
/// long-running owners can trigger the rebuild on a threshold instead of a
/// scan.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    num_vertices: usize,
    /// Ground truth: `(u, v, weight)` per edge, in append order — including
    /// deleted edges, so ids stay stable. Used for re-packing and for
    /// materializing a [`WeightedGraph`].
    edge_list: Vec<(u32, u32, f64)>,
    /// Number of edges covered by the packed arrays (prefix of `edge_list`;
    /// deleted edges of the prefix are *omitted* from the arrays once a
    /// re-pack has consolidated them).
    packed_edges: usize,
    /// Packed CSR: live half-edges of `edge_list[..packed_edges]` (plus any
    /// half-edges deleted since the last re-pack, skipped via the overlay's
    /// tombstone bitmap). Row `u` is filled at `rows[u].0..rows[u].1`; its
    /// reservation runs to the next row's start (to the array end for the
    /// last row), and rows are tight — no reservation left — after a
    /// re-pack.
    rows: Vec<(u32, u32)>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    edge_ids: Vec<u32>,
    /// Pending insertions and deletions since the last re-pack.
    overlay: DeltaOverlay,
    /// Monotonically increasing mutation counter; see [`CsrGraph::epoch`].
    epoch: u64,
    /// Running lower bound on the minimum live edge weight
    /// (`f64::INFINITY` when edgeless); exact after every re-pack. Backs
    /// the `O(1)` [`CsrGraph::min_live_weight`].
    min_live_weight: f64,
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

    /// Creates an edgeless CSR graph on `capacity.len()` vertices whose
    /// packed row for vertex `u` is reserved for `capacity[u]` half-edges.
    ///
    /// [`CsrGraph::append_edge`] fills the reserved slots in `O(1)` without
    /// touching the overlay, so a graph grown to within its reservations is
    /// never re-packed and every scan stays packed. A construction whose
    /// output is a subgraph of known candidates reserves each row at the
    /// vertex's candidate degree. An append past a full row falls back to
    /// the overlay (see the [module docs](crate::csr)); [`CsrGraph::compact`]
    /// drops any unused reservation.
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
            edge_list: Vec::new(),
            packed_edges: 0,
            rows,
            targets: vec![0; slots],
            weights: vec![0.0; slots],
            edge_ids: vec![0; slots],
            overlay: DeltaOverlay::new(num_vertices),
            epoch: 0,
            min_live_weight: f64::INFINITY,
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
        self.edge_list.len() - self.overlay.dead_edges
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

    /// Number of dead (tombstoned) edge slots in the ground-truth arrays —
    /// the difference between [`CsrGraph::edge_id_bound`] and
    /// [`CsrGraph::num_edges`]. `O(1)`: the counter is maintained by
    /// [`CsrGraph::remove_edge`], never recomputed by scanning.
    #[inline]
    pub fn dead_edges(&self) -> usize {
        self.overlay.dead_edges
    }

    /// Fraction of allocated edge slots that are tombstoned
    /// (`dead_edges / edge_id_bound`; `0.0` for an edgeless graph). `O(1)`,
    /// from the same maintained counters as [`CsrGraph::dead_edges`] — the
    /// threshold long-running owners watch to decide when a
    /// [`CsrGraph::rebuild_compacted`] generation swap pays off.
    #[inline]
    pub fn tombstoned_fraction(&self) -> f64 {
        if self.edge_list.is_empty() {
            0.0
        } else {
            self.overlay.dead_edges as f64 / self.edge_list.len() as f64
        }
    }

    /// The graph's epoch: a monotonically increasing counter bumped by every
    /// logical mutation ([`CsrGraph::append_edge`] /
    /// [`CsrGraph::remove_edge`]; re-packing is a representation change and
    /// does **not** bump it). Long-lived readers stamp the epoch they were
    /// built at and compare with [`CsrGraph::verify_epoch`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Checks a caller's epoch stamp against the current epoch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::StaleEpoch`] if the stamps differ — the
    /// caller's view predates (or, for a corrupted stamp, postdates) some
    /// mutation and must be refreshed before querying.
    pub fn verify_epoch(&self, stamped: u64) -> Result<(), GraphError> {
        if stamped == self.epoch {
            Ok(())
        } else {
            Err(GraphError::StaleEpoch {
                stamped,
                current: self.epoch,
            })
        }
    }

    /// The pending-mutation overlay (observability only; scans fold it in
    /// transparently).
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// Returns `true` if deleted half-edges still linger in the packed
    /// arrays or chains (i.e. scans must consult the tombstone bitmap).
    #[inline]
    pub fn has_pending_deletions(&self) -> bool {
        self.overlay.pending_deletions > 0
    }

    /// Returns `true` if the id names a live (never-deleted, in-range) edge.
    #[inline]
    pub fn is_edge_live(&self, id: EdgeId) -> bool {
        id.index() < self.edge_list.len() && !self.overlay.is_dead(id.index())
    }

    /// Raw liveness check by packed edge-id word — the Dijkstra engine's
    /// inner-loop form of [`CsrGraph::is_edge_live`].
    #[inline]
    pub fn is_edge_id_live(&self, id: u32) -> bool {
        !self.overlay.is_dead(id as usize)
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
    /// includes every dead slot ever tombstoned, not `O(num_edges())`. Keep
    /// it out of per-mutation hot paths; batch owners needing only the
    /// *counts* should read the `O(1)` [`CsrGraph::num_edges`] /
    /// [`CsrGraph::dead_edges`] counters instead, and owners facing
    /// unbounded churn should bound the scan itself via
    /// [`CsrGraph::rebuild_compacted`].
    pub fn live_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, f64)> + '_ {
        self.edge_list
            .iter()
            .enumerate()
            .filter(|&(id, _)| !self.overlay.is_dead(id))
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

    /// Smallest live edge weight, or `None` for an edgeless graph. `O(1)`
    /// from a maintained counter.
    ///
    /// Between re-packs the value is a **lower bound**: deleting the
    /// current minimum does not trigger a rescan, so a stale smaller weight
    /// may be reported until the next [`CsrGraph::compact`] makes it exact
    /// again.
    pub fn min_live_weight(&self) -> Option<f64> {
        (!self.is_edgeless()).then_some(self.min_live_weight)
    }

    /// Returns `true` if the overlay is empty: every live half-edge lives in
    /// the packed arrays (no overflow chains, no lingering tombstoned
    /// half-edges). Rows may still hold unused reservations (see
    /// [`CsrGraph::with_row_capacity`]).
    pub fn is_compact(&self) -> bool {
        self.packed_edges == self.edge_list.len() && self.overlay.pending_deletions == 0
    }

    /// Appends an undirected edge and returns its id.
    ///
    /// When both endpoints' rows have reserved room (see
    /// [`CsrGraph::with_row_capacity`]) and no earlier append went to the
    /// overlay, the half-edges are written straight into the packed rows.
    /// Otherwise they land in the overlay's overflow chains; once the
    /// overlay grows past a constant fraction of the packed region (see
    /// [`REPACK_OVERFLOW_DIVISOR`]) the graph re-packs itself, so a growing
    /// spanner stays cache-friendly without the caller ever re-building.
    /// Bumps the epoch.
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
        if weight < self.min_live_weight {
            self.min_live_weight = weight;
        }
        self.epoch += 1;
        // The packed rows must keep covering a prefix of the ids, so the
        // reserved slots are used only while no append sits in the overlay.
        if self.packed_edges == id && self.has_room(ui) && self.has_room(vi) {
            for (a, b) in [(ui, vi), (vi, ui)] {
                let slot = self.rows[a].1 as usize;
                self.rows[a].1 += 1;
                self.targets[slot] = b as u32;
                self.weights[slot] = weight;
                self.edge_ids[slot] = id as u32;
            }
            self.packed_edges += 1;
            return Ok(EdgeId(id));
        }
        for (a, b) in [(ui, vi), (vi, ui)] {
            let slot = self.overlay.target.len() as u32;
            self.overlay.target.push(b as u32);
            self.overlay.weight.push(weight);
            self.overlay.edge.push(id as u32);
            self.overlay.next.push(self.overlay.head[a]);
            self.overlay.head[a] = slot;
        }
        self.maybe_compact();
        Ok(EdgeId(id))
    }

    /// Whether row `u` has an unused reserved slot.
    #[inline]
    fn has_room(&self, u: usize) -> bool {
        let reserved_end = self
            .rows
            .get(u + 1)
            .map_or(self.targets.len(), |&(next, _)| next as usize);
        (self.rows[u].1 as usize) < reserved_end
    }

    /// Deletes the edge with the given id: its tombstone bit is set, every
    /// scan skips it from now on, and the next re-pack drops its half-edges
    /// physically. The id stays allocated (never reused) so other ids remain
    /// stable. Bumps the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if the id is out of range or the
    /// edge was already deleted; the graph is unchanged in that case.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<(), GraphError> {
        if !self.is_edge_live(id) {
            return Err(GraphError::UnknownEdge { edge: id.index() });
        }
        // The minimum is left possibly stale-low until the next re-pack
        // (see `min_live_weight`).
        self.overlay.mark_dead(id.index());
        self.epoch += 1;
        self.maybe_compact();
        Ok(())
    }

    /// The lowest live edge id connecting `u` and `v`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.neighbors(u)
            .filter(|nb| nb.to == v)
            .map(|nb| nb.edge)
            .min()
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

    /// Runs the re-pack trigger shared by appends and removals: the overlay
    /// (overflow half-edges plus lingering dead half-edges) is bounded by a
    /// constant fraction of the packed region plus a constant — see
    /// [`REPACK_OVERFLOW_DIVISOR`] / [`REPACK_OVERFLOW_SLACK`].
    fn maybe_compact(&mut self) {
        let pending = self.overlay.target.len() + 2 * self.overlay.pending_deletions;
        if pending >= self.targets.len() / REPACK_OVERFLOW_DIVISOR + REPACK_OVERFLOW_SLACK {
            self.compact();
        }
    }

    /// Re-packs every live half-edge into tight flat CSR rows
    /// (`O(n + m)`), consolidating the overlay: overflow chains fold into the
    /// packed arrays, tombstoned half-edges are dropped and unused row
    /// reservations are released. Called automatically by
    /// [`CsrGraph::append_edge`] / [`CsrGraph::remove_edge`]; exposed for
    /// callers that want a fully packed view before a query burst. Does
    /// **not** bump the epoch (a re-pack changes the representation, never
    /// an answer).
    pub fn compact(&mut self) {
        if self.is_compact() && self.targets.len() == 2 * self.num_edges() {
            return;
        }
        let n = self.num_vertices;
        let m = self.edge_list.len();
        let half = 2 * (m - self.overlay.dead_edges);
        // Counting sort of live half-edges by source vertex.
        let mut counts = vec![0u32; n + 1];
        // The live scan doubles as the exact resync of the incremental
        // minimum weight (every constructor that fills `edge_list` directly
        // funnels through here).
        let mut min_weight = f64::INFINITY;
        for (id, &(u, v, w)) in self.edge_list.iter().enumerate() {
            if self.overlay.is_dead(id) {
                continue;
            }
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
            if w < min_weight {
                min_weight = w;
            }
        }
        self.min_live_weight = min_weight;
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut targets = vec![0u32; half];
        let mut weights = vec![0.0f64; half];
        let mut edge_ids = vec![0u32; half];
        for (id, &(u, v, w)) in self.edge_list.iter().enumerate() {
            if self.overlay.is_dead(id) {
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
        self.targets = targets;
        self.weights = weights;
        self.edge_ids = edge_ids;
        self.packed_edges = m;
        self.overlay.head.clear();
        self.overlay.head.resize(n, NONE);
        self.overlay.next.clear();
        self.overlay.target.clear();
        self.overlay.weight.clear();
        self.overlay.edge.clear();
        self.overlay.pending_deletions = 0;
    }

    /// Iterates over the live neighbors of `u` as [`CsrNeighbor`] records:
    /// first the packed half-edges (contiguous), then any overflow appends.
    /// Half-edges of deleted edges are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> Neighbors<'_> {
        let ui = u.index();
        assert!(ui < self.num_vertices, "vertex out of range");
        let (pos, end) = self.rows[ui];
        Neighbors {
            graph: self,
            pos: pos as usize,
            end: end as usize,
            chain: self.overlay.head[ui],
        }
    }

    /// Degree of `u` (number of live incident half-edges).
    pub fn degree(&self, u: VertexId) -> usize {
        self.neighbors(u).count()
    }

    /// The packed portion of `u`'s neighbors as parallel `(targets, weights)`
    /// slices — the zero-overhead view the Dijkstra engine's inner loop
    /// iterates. Half-edges appended since the last re-pack are *not*
    /// included (follow up with [`CsrGraph::overflow_neighbors`]), and
    /// half-edges *deleted* since the last re-pack **are** still included —
    /// when [`CsrGraph::has_pending_deletions`] reports `true`, filter with
    /// [`CsrGraph::packed_neighbor_ids`] + [`CsrGraph::is_edge_id_live`].
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

    /// The edge ids parallel to [`CsrGraph::packed_neighbors`], for
    /// tombstone filtering when deletions are pending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn packed_neighbor_ids(&self, u: VertexId) -> &[u32] {
        let (a, b) = self.rows[u.index()];
        &self.edge_ids[a as usize..b as usize]
    }

    /// The overflow portion of `u`'s live neighbors (half-edges appended
    /// since the last re-pack, minus any deleted since) as
    /// `(target, weight)` pairs. Usually empty or very short — see
    /// [`CsrGraph::append_edge`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn overflow_neighbors(&self, u: VertexId) -> OverflowNeighbors<'_> {
        OverflowNeighbors {
            graph: self,
            chain: self.overlay.head[u.index()],
        }
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

    /// Starts a fresh **generation**: a fully packed graph rebuilt from the
    /// live edges only, with ids re-densified in append order, plus the
    /// old-id → new-id remap. This is the bounded-memory escape hatch for
    /// the id-stability trade-off documented on the struct: the rebuilt
    /// graph's ground-truth arrays hold exactly [`CsrGraph::num_edges`]
    /// slots, with every dead slot (and its tombstone bit) reclaimed.
    ///
    /// Unlike [`CsrGraph::compact`] — a pure representation change — a
    /// generation rebuild is *logically observable* (edge ids shift), so the
    /// new graph carries **epoch `self.epoch() + 1`**: epoch-stamped readers
    /// (shortest-path-tree caches, serving handles) see the swap as one
    /// mutation and lazily refresh, exactly like any other staleness.
    ///
    /// Because the remap preserves append order, packed scan order over live
    /// edges — and therefore every answer — is unchanged; only the ids and
    /// the epoch move.
    pub fn rebuild_compacted(&self) -> CompactedRebuild {
        let mut graph = CsrGraph::new(self.num_vertices);
        graph.edge_list.reserve(self.num_edges());
        let mut remap = vec![None; self.edge_list.len()];
        for (id, &(u, v, w)) in self.edge_list.iter().enumerate() {
            if self.overlay.is_dead(id) {
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
    /// tombstone bitmap, used by the persistence layer to reproduce a graph
    /// **bit-identically**: same edge ids (dead slots included, so ids stay
    /// stable across a save/load cycle), same weights, same epoch.
    ///
    /// `edges` yields `(u, v, weight, live)` records in edge-id order; a
    /// `live = false` record re-creates a tombstoned slot. Every record is
    /// validated like [`CsrGraph::try_append_edge`] (dead ones too — they
    /// passed validation when first appended, so a failure here means the
    /// stored data is corrupt). The result is fully packed.
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
                graph.overlay.mark_dead(id);
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
    /// fully packed, at epoch `old + 1`.
    pub graph: CsrGraph,
    /// Old edge id → new edge id; `None` for slots that were dead (their
    /// ids have no successor in the new generation).
    pub remap: Vec<Option<EdgeId>>,
}

impl From<&WeightedGraph> for CsrGraph {
    /// Builds a fully packed CSR view of `graph` at epoch 0. Edge ids
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

/// Iterator over the live overflow half-edges of one vertex; see
/// [`CsrGraph::overflow_neighbors`].
#[derive(Debug, Clone)]
pub struct OverflowNeighbors<'a> {
    graph: &'a CsrGraph,
    chain: u32,
}

impl Iterator for OverflowNeighbors<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        while self.chain != NONE {
            let i = self.chain as usize;
            self.chain = self.graph.overlay.next[i];
            if self
                .graph
                .overlay
                .is_dead(self.graph.overlay.edge[i] as usize)
            {
                continue;
            }
            return Some((self.graph.overlay.target[i], self.graph.overlay.weight[i]));
        }
        None
    }
}

/// Iterator over the live neighbors of one vertex; see
/// [`CsrGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    graph: &'a CsrGraph,
    pos: usize,
    end: usize,
    chain: u32,
}

impl Iterator for Neighbors<'_> {
    type Item = CsrNeighbor;

    #[inline]
    fn next(&mut self) -> Option<CsrNeighbor> {
        while self.pos < self.end {
            let i = self.pos;
            self.pos += 1;
            let id = self.graph.edge_ids[i] as usize;
            if self.graph.overlay.is_dead(id) {
                continue;
            }
            return Some(CsrNeighbor {
                to: VertexId(self.graph.targets[i] as usize),
                weight: self.graph.weights[i],
                edge: EdgeId(id),
            });
        }
        while self.chain != NONE {
            let i = self.chain as usize;
            self.chain = self.graph.overlay.next[i];
            let id = self.graph.overlay.edge[i] as usize;
            if self.graph.overlay.is_dead(id) {
                continue;
            }
            return Some(CsrNeighbor {
                to: VertexId(self.graph.overlay.target[i] as usize),
                weight: self.graph.overlay.weight[i],
                edge: EdgeId(id),
            });
        }
        None
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
        // Overflow path must already answer correctly…
        let before: Vec<_> = (0..4).map(|u| sorted_neighbors(&csr, u)).collect();
        let epoch_before = csr.epoch();
        csr.compact();
        assert!(csr.is_compact());
        assert_eq!(csr.epoch(), epoch_before, "re-packing never bumps epochs");
        // …and compaction must not change anything.
        for (u, b) in before.iter().enumerate() {
            assert_eq!(&sorted_neighbors(&csr, u), b);
        }
        let back = csr.to_weighted_graph();
        assert_eq!(back, g);
    }

    #[test]
    fn auto_compaction_keeps_many_appends_correct() {
        // Enough appends to cross the overflow threshold repeatedly.
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
        for u in 0..n {
            let mut expected: Vec<_> = reference
                .neighbors(VertexId(u))
                .iter()
                .map(|&(v, e)| (v.index(), reference.edge(e).weight.to_bits(), e.index()))
                .collect();
            expected.sort_unstable();
            assert_eq!(sorted_neighbors(&csr, u), expected, "vertex {u}");
        }
    }

    /// The documented re-pack trigger in action: force repeated
    /// append/delete/re-pack cycles and assert the packed arrays, the
    /// overlay, and the reference adjacency stay consistent throughout.
    #[test]
    fn repeated_repack_cycles_keep_packed_arrays_consistent_with_overlay() {
        let n = 24usize;
        let mut csr = CsrGraph::new(n);
        let mut live: Vec<(usize, usize, f64, usize)> = Vec::new(); // (u, v, w, id)
        let mut compactions_observed = 0usize;
        let mut was_compact = csr.is_compact();
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
            // Observe re-packs via the is_compact transition.
            let compact_now = csr.is_compact();
            if compact_now && !was_compact {
                compactions_observed += 1;
            }
            was_compact = compact_now;
            // The trigger bound must hold after every mutation: the overlay
            // stays below the documented fraction of the packed region
            // (packed half-edges = 2 · (live − pending inserts + pending
            // deletes), since the packed arrays reflect the last re-pack).
            let (pi, pd) = (
                csr.overlay().pending_insertions(),
                csr.overlay().pending_deletions(),
            );
            let packed_half = 2 * (csr.num_edges() + pd - pi);
            assert!(
                2 * pi + 2 * pd < packed_half / REPACK_OVERFLOW_DIVISOR + REPACK_OVERFLOW_SLACK + 2,
                "round {round}: overlay {} outgrew the documented trigger",
                2 * pi + 2 * pd
            );
            // Full adjacency equivalence every few rounds (packed + overlay
            // vs. the live reference list).
            if round % 7 == 0 {
                assert_eq!(csr.num_edges(), live.len());
                for u in 0..n {
                    let mut expected: Vec<(usize, u64, usize)> = live
                        .iter()
                        .flat_map(|&(a, b, w, id)| {
                            let mut h = Vec::new();
                            if a == u {
                                h.push((b, w.to_bits(), id));
                            }
                            if b == u {
                                h.push((a, w.to_bits(), id));
                            }
                            h
                        })
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(
                        sorted_neighbors(&csr, u),
                        expected,
                        "round {round} vertex {u}"
                    );
                }
            }
        }
        assert!(
            compactions_observed >= 3,
            "the cycle must cross the re-pack threshold repeatedly \
             (observed {compactions_observed})"
        );
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

    /// Whether `u` has any overflow chain at all (it may be all-tombstoned).
    fn has_overflow(csr: &CsrGraph, u: VertexId) -> bool {
        csr.overlay.head[u.index()] != NONE
    }

    /// Asserts every row of `csr` reads exactly like the packed build of
    /// `g`: same records in the same (edge-id) order, all of them packed.
    fn assert_rows_match_packed_build(csr: &CsrGraph, g: &WeightedGraph) {
        let packed = CsrGraph::from(g);
        for u in (0..g.num_vertices()).map(VertexId) {
            assert!(!has_overflow(csr, u), "vertex {u:?}");
            assert_eq!(
                csr.neighbors(u).collect::<Vec<_>>(),
                packed.neighbors(u).collect::<Vec<_>>(),
                "vertex {u:?}"
            );
            assert_eq!(csr.packed_neighbors(u), packed.packed_neighbors(u));
            assert_eq!(csr.packed_neighbor_ids(u), packed.packed_neighbor_ids(u));
        }
    }

    #[test]
    fn reserved_rows_read_like_a_packed_build_in_id_order() {
        let g = reserved_fixture();
        let mut csr = CsrGraph::with_row_capacity(&degrees(&g));
        assert_eq!(csr.num_vertices(), 9);
        for (i, e) in g.edges().iter().enumerate() {
            let id = csr.append_edge(e.u, e.v, e.weight);
            assert_eq!(id.index(), i);
            assert_eq!(csr.epoch(), i as u64 + 1, "every append bumps the epoch");
            assert!(csr.is_compact(), "a reserved append never uses the overlay");
        }
        assert_eq!(csr.overlay().pending_insertions(), 0);
        assert_eq!(csr.min_live_weight(), Some(0.25));
        assert_rows_match_packed_build(&csr, &g);
        assert_eq!(csr.to_weighted_graph(), g);
        // Reserved exactly at the degrees, the rows are already tight.
        let epoch = csr.epoch();
        csr.compact();
        assert_eq!(csr.epoch(), epoch);
        assert_rows_match_packed_build(&csr, &g);
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
        assert!(csr.is_compact());
        assert_rows_match_packed_build(&csr, &g);
        csr.compact();
        assert_rows_match_packed_build(&csr, &g);
        // Tight rows have no room: the next append goes to the overlay.
        csr.append_edge(VertexId(7), VertexId(8), 1.0);
        assert!(has_overflow(&csr, VertexId(7)) && has_overflow(&csr, VertexId(8)));
        assert!(!csr.is_compact());
    }

    #[test]
    fn appends_past_a_full_row_fall_back_to_the_overlay() {
        let g = reserved_fixture();
        // Vertex 1 is reserved one slot short, so its last edge (1, 6),
        // id 9, overflows; so does everything appended after it, even into
        // rows with room, which keeps the packed rows an id prefix.
        let mut capacity = degrees(&g);
        capacity[1] -= 1;
        capacity[7] = 4;
        capacity[8] = 4;
        let mut csr = CsrGraph::with_row_capacity(&capacity);
        for e in g.edges() {
            csr.append_edge(e.u, e.v, e.weight);
        }
        let mut grown = g.clone();
        for (u, v, w) in [(7, 8, 1.0), (0, 7, 2.0)] {
            csr.append_edge(VertexId(u), VertexId(v), w);
            grown.add_edge(VertexId(u), VertexId(v), w);
        }
        assert!(!csr.is_compact());
        assert_eq!(csr.overlay().pending_insertions(), 3);
        assert!(has_overflow(&csr, VertexId(1)) && has_overflow(&csr, VertexId(6)));
        assert!(has_overflow(&csr, VertexId(7)) && has_overflow(&csr, VertexId(8)));
        assert!(!has_overflow(&csr, VertexId(2)));
        let packed = CsrGraph::from(&grown);
        for u in 0..9 {
            assert_eq!(sorted_neighbors(&csr, u), sorted_neighbors(&packed, u));
        }
        assert_eq!(csr.to_weighted_graph(), grown);
        csr.compact();
        assert!(csr.is_compact());
        assert_rows_match_packed_build(&csr, &grown);
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
        assert!(csr.has_pending_deletions());
        for e in &edges[6..] {
            csr.append_edge(e.u, e.v, e.weight);
        }
        assert_eq!(csr.epoch(), 12);
        assert_eq!(csr.overlay().pending_insertions(), 0);
        assert!((0..9).all(|u| !has_overflow(&csr, VertexId(u))));
        let live: Vec<(usize, usize, f64, usize)> = edges
            .iter()
            .enumerate()
            .filter(|&(id, _)| id != 0 && id != 3)
            .map(|(id, e)| (e.u.index(), e.v.index(), e.weight, id))
            .collect();
        let expected = |u: usize| {
            let mut h: Vec<(usize, u64, usize)> = live
                .iter()
                .flat_map(|&(a, b, w, id)| {
                    [(a, b), (b, a)]
                        .into_iter()
                        .filter(move |&(from, _)| from == u)
                        .map(move |(_, to)| (to, w.to_bits(), id))
                })
                .collect();
            h.sort_unstable();
            h
        };
        for u in 0..9 {
            assert_eq!(sorted_neighbors(&csr, u), expected(u), "vertex {u}");
        }
        assert_eq!(csr.find_edge(VertexId(0), VertexId(1)), Some(EdgeId(4)));
        assert_eq!(csr.num_edges(), 8);
        csr.compact();
        assert!(csr.is_compact() && !csr.has_pending_deletions());
        for u in 0..9 {
            assert_eq!(sorted_neighbors(&csr, u), expected(u), "vertex {u}");
            assert!(csr
                .packed_neighbor_ids(VertexId(u))
                .iter()
                .all(|&id| id != 0 && id != 3));
        }
        let survivors = csr.to_weighted_graph();
        assert_eq!(survivors.num_edges(), 8);
        assert!(!survivors.has_edge(VertexId(2), VertexId(3)));
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
        assert!(csr.has_pending_deletions());
        assert!(sorted_neighbors(&csr, 0).iter().all(|&(to, _, _)| to != 2));
        assert_eq!(csr.degree(VertexId(0)), 1);
        assert!((csr.total_weight() - 4.0).abs() < 1e-12);
        // Double delete and out-of-range ids are typed errors.
        assert_eq!(
            csr.remove_edge(EdgeId(2)),
            Err(GraphError::UnknownEdge { edge: 2 })
        );
        assert_eq!(
            csr.remove_edge(EdgeId(99)),
            Err(GraphError::UnknownEdge { edge: 99 })
        );
        // Consolidation drops the dead half-edges physically; answers are
        // unchanged and the live edges survive a round trip.
        let before: Vec<_> = (0..4).map(|u| sorted_neighbors(&csr, u)).collect();
        csr.compact();
        assert!(!csr.has_pending_deletions());
        assert!(csr.is_compact());
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
    fn epochs_advance_per_mutation_and_stale_stamps_are_typed_errors() {
        let mut csr = CsrGraph::new(3);
        let stamp = csr.epoch();
        assert!(csr.verify_epoch(stamp).is_ok());
        let snap_epoch = csr.snapshot().epoch();
        assert_eq!(snap_epoch, 0);
        csr.append_edge(VertexId(0), VertexId(1), 1.0);
        csr.append_edge(VertexId(1), VertexId(2), 1.0);
        assert_eq!(csr.epoch(), 2);
        assert_eq!(
            csr.verify_epoch(stamp),
            Err(GraphError::StaleEpoch {
                stamped: 0,
                current: 2
            })
        );
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
        for (k, id) in ids.iter().enumerate() {
            if k % 3 == 0 {
                csr.remove_edge(*id).unwrap();
            }
            let scanned_live = csr.live_edges().count();
            assert_eq!(csr.num_edges(), scanned_live);
            assert_eq!(csr.dead_edges(), csr.edge_id_bound() - scanned_live);
            let expected = csr.dead_edges() as f64 / csr.edge_id_bound() as f64;
            assert_eq!(csr.tombstoned_fraction().to_bits(), expected.to_bits());
        }
        assert!(csr.dead_edges() > 0, "the loop must delete something");
    }

    /// The `O(1)` live-weight statistic declines (`None`) instead of
    /// reporting a ghost weight — on a fresh edgeless graph and on one
    /// re-emptied by tombstoning every edge.
    #[test]
    fn live_weight_stats_decline_on_edgeless_graphs() {
        let mut csr = CsrGraph::new(4);
        assert!(csr.is_edgeless());
        assert_eq!(csr.min_live_weight(), None);
        assert_eq!(csr.tombstoned_fraction(), 0.0);
        let a = csr.append_edge(VertexId(0), VertexId(1), 2.0);
        let b = csr.append_edge(VertexId(1), VertexId(2), 4.0);
        assert_eq!(csr.min_live_weight(), Some(2.0));
        csr.remove_edge(a).unwrap();
        csr.remove_edge(b).unwrap();
        // Zero live edges again: the maintained minimum is stale — the stat
        // must refuse, not report a ghost weight.
        assert_eq!(csr.num_edges(), 0);
        assert!(csr.is_edgeless());
        assert_eq!(csr.min_live_weight(), None);
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
        // Adjacency (and thus every answer) is unchanged modulo ids.
        for u in 0..6 {
            let before: Vec<(usize, u64)> = {
                let mut v: Vec<_> = csr
                    .neighbors(VertexId(u))
                    .map(|nb| (nb.to.index(), nb.weight.to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            let after: Vec<(usize, u64)> = {
                let mut v: Vec<_> = fresh
                    .neighbors(VertexId(u))
                    .map(|nb| (nb.to.index(), nb.weight.to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(before, after, "vertex {u}");
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
        assert!(restored.is_compact(), "from_parts packs fully");
        for id in 0..csr.edge_id_bound() {
            let id = EdgeId(id);
            assert_eq!(restored.is_edge_live(id), csr.is_edge_live(id));
            let (u, v, w) = csr.edge(id);
            let (ru, rv, rw) = restored.edge(id);
            assert_eq!((ru, rv), (u, v));
            assert_eq!(rw.to_bits(), w.to_bits());
        }
        for u in 0..5 {
            assert_eq!(sorted_neighbors(&restored, u), sorted_neighbors(&csr, u));
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

    #[test]
    fn weight_statistics_track_mutations_and_resync_at_compaction() {
        let mut csr = CsrGraph::new(4);
        assert_eq!(csr.min_live_weight(), None, "edgeless: no statistics");
        csr.append_edge(VertexId(0), VertexId(1), 2.0);
        csr.append_edge(VertexId(1), VertexId(2), 0.5);
        csr.append_edge(VertexId(2), VertexId(3), 3.5);
        assert_eq!(csr.min_live_weight(), Some(0.5));
        // Deleting the minimum leaves the reported minimum as a (stale)
        // lower bound until the next re-pack.
        csr.remove_edge(EdgeId(1)).unwrap();
        assert!(csr.min_live_weight().unwrap() <= 2.0);
        csr.compact();
        assert_eq!(csr.min_live_weight(), Some(2.0), "exact after re-pack");
        // All constructors that bypass append_edge resync via compact().
        let from_parts = CsrGraph::from_parts(
            4,
            7,
            [
                (VertexId(0), VertexId(1), 2.0, true),
                (VertexId(1), VertexId(2), 9.0, false),
                (VertexId(2), VertexId(3), 3.5, true),
            ],
        )
        .unwrap();
        assert_eq!(from_parts.min_live_weight(), Some(2.0));
        let rebuilt = csr.rebuild_compacted().graph;
        assert_eq!(rebuilt.min_live_weight(), Some(2.0));
        let from_weighted = CsrGraph::from(&diamond());
        assert_eq!(from_weighted.min_live_weight(), Some(1.0));
    }
}
