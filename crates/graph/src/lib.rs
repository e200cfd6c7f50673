//! Weighted-graph substrate for the greedy-spanner reproduction.
//!
//! This crate provides everything the spanner constructions in
//! [`greedy-spanner`](https://example.org/greedy-spanner) need from a graph library:
//!
//! * [`WeightedGraph`] — an undirected, positively-weighted multigraph stored as an
//!   edge list plus one flat adjacency arena (a `(start, len, cap)` row per
//!   vertex into a single slot array), with O(1) edge access by [`EdgeId`].
//!   Bulk producers ([`WeightedGraph::from_edges`], the generators, …) lay
//!   every row out once at its exact degree; [`WeightedGraph::add_edge`]
//!   moves a full row to the arena's end at double its capacity.
//! * [`CsrGraph`] — the compressed-sparse-row *query substrate*: one
//!   `(start, end)` row per vertex into flat `targets`/`weights` arrays,
//!   built `From<&WeightedGraph>`, incrementally appendable
//!   ([`csr::CsrGraph::append_edge`]: a full row moves to the arrays' end at
//!   double its capacity) **and deletable** ([`csr::CsrGraph::remove_edge`]:
//!   both half-edges are spliced out of their rows), so a spanner can grow
//!   while being queried and a long-running one can take live updates.
//!   Every row holds exactly its live half-edges in edge-id order, so a
//!   search reads one slice per vertex. Every mutation bumps a monotone
//!   [`csr::CsrGraph::epoch`]; stale views are refused with a typed
//!   [`error::GraphError::StaleEpoch`]. Under unbounded insert/delete
//!   churn, [`csr::CsrGraph::rebuild_compacted`] starts a fresh dense *generation*
//!   (ids re-densified behind a bumped epoch, with an id-remap table) so the
//!   ground-truth arrays stay proportional to the live edge count, and
//!   [`csr::CsrGraph::from_parts`] reconstructs a graph bit-identically from
//!   persisted parts.
//! * [`DijkstraEngine`] — a reusable query engine over [`CsrGraph`] with an
//!   owned, generation-stamped workspace: `bounded_distance`,
//!   `shortest_path_tree` and `ball` queries perform **zero heap allocation
//!   per query** after warm-up (see [`engine`]). This is the hot path of every
//!   spanner construction; the [`dijkstra`] free functions remain as one-shot
//!   conveniences.
//! * [`EnginePool`] — the parallel execution substrate: per-worker
//!   [`DijkstraEngine`] workspaces plus a scoped `std::thread` executor that
//!   fans query batches across them against a frozen
//!   [`CsrSnapshot`]. Item `i` of a batch runs on worker
//!   `i mod w`, so results are bit-identical at every worker count (see
//!   [`parallel`]).
//! * [`partition`] — deterministic seeded k-way partitioning for the
//!   sharded pipeline: [`Partition::build`](partition::Partition::build)
//!   grows `k` size-balanced regions by synchronized BFS from seed-ranked
//!   roots (`k = 1` is the identity), producing per-shard induced
//!   subgraphs ([`ShardPiece`]) with stable global↔local [`VertexPerm`]
//!   mappings plus the [`CutEdge`] list between shards — the input to
//!   `greedy-spanner`'s boundary-skeleton stitch.
//! * Shortest paths — [`dijkstra`] (full, single-pair, and distance-bounded
//!   variants; allocation-per-call, kept for one-off queries and as the
//!   reference implementation the engine is property-tested against).
//! * Minimum spanning trees — [`mst`] (Kruskal and Prim) built on [`UnionFind`].
//! * Structural queries — [`connectivity`], [`girth`], [`apsp`], [`metric_closure`].
//! * Workload generation — [`generators`] (random, geometric, grid, cage graphs, the
//!   paper's Figure 1 construction, …).
//! * Aggregate measurements — [`properties`] (weight, degree, lightness).
//!
//! # Example
//!
//! ```
//! use spanner_graph::{GraphBuilder, mst::kruskal, dijkstra::shortest_path_distance};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 2.0);
//! b.add_edge(2, 3, 1.0);
//! b.add_edge(0, 3, 5.0);
//! let g = b.build().expect("valid graph");
//!
//! let tree = kruskal(&g);
//! assert_eq!(tree.edges.len(), 3);
//! let d = shortest_path_distance(&g, 0.into(), 3.into()).unwrap();
//! assert!((d - 4.0).abs() < 1e-9);
//! ```
//!
//! For repeated queries (every spanner construction), hold a [`CsrGraph`]
//! and one [`DijkstraEngine`] instead of calling the free functions in a
//! loop:
//!
//! ```
//! use spanner_graph::{CsrGraph, DijkstraEngine, VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]).unwrap();
//! let csr = CsrGraph::from(&g);
//! let mut engine = DijkstraEngine::new();
//! for v in 1..4 {
//!     let _ = engine.bounded_distance(&csr, VertexId(0), VertexId(v), 10.0);
//! }
//! // Everything after the first query reused the workspace: zero allocations.
//! assert_eq!(engine.stats().reuse_hits, engine.stats().queries - 1);
//! ```
//!
//! # Query engine internals
//!
//! Every search runs on one lazy-deletion binary heap that pops in exact
//! `(distance, vertex)` order, so distances, paths, balls and every
//! tie-break are deterministic, and every search relaxes a settled
//! vertex's row in one loop. One acceleration keeps the point-query hot
//! path fast while preserving bit-identical answers:
//!
//! * **Goal-directed point-to-point search** ([`Landmarks`]): an A* search
//!   keyed by distance plus a max-over-landmarks triangle lower bound
//!   settles a corridor toward the target instead of a ball around the
//!   source. The bound is reduced by a rounding margin
//!   ([`path_rounding_margin`]), the search drains slightly past the
//!   target's distance and re-opens misordered vertices, and parents follow
//!   one canonical tie rule, so distances and paths are identical for
//!   *every* landmark set — including none, and including bounds equal to
//!   the exact distance ([`DijkstraEngine::shortest_path_with`]). Tables are
//!   epoch-stamped ([`csr::CsrGraph::epoch`]) and must be rebuilt after any
//!   mutation; the engine refuses stale tables. A query whose source bound
//!   already exceeds the query bound ([`Landmarks::rules_out`]) settles
//!   nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod dijkstra;
pub mod engine;
pub mod error;
pub mod generators;
pub mod girth;
pub mod graph;
pub mod landmarks;
pub mod metric_closure;
pub mod mst;
pub mod parallel;
pub mod partition;
pub mod properties;
pub mod union_find;

pub use builder::GraphBuilder;
pub use csr::{CompactedRebuild, CsrGraph, CsrSnapshot, VertexPerm};
pub use engine::{
    path_rounding_margin, DijkstraEngine, EngineStats, EngineTree, KernelStats, SptTree, TreeNeed,
};
pub use error::GraphError;
pub use graph::{Edge, EdgeId, VertexId, WeightedGraph};
pub use landmarks::Landmarks;
pub use parallel::EnginePool;
pub use partition::{CutEdge, Partition, PartitionConfig, ShardPiece};
pub use union_find::UnionFind;
