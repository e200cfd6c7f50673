//! Root façade of the greedy-spanner reproduction suite.
//!
//! This crate re-exports the three member crates under stable names and
//! provides a [`prelude`] so examples and downstream users can pull in the
//! common types with a single `use`:
//!
//! * [`graph`] — the weighted-graph substrate (`spanner-graph`).
//! * [`metric`] — the metric-space substrate (`spanner-metric`).
//! * [`spanners`] — the constructions, baselines and analysis
//!   (`greedy-spanner`), all dispatched through the unified
//!   [`SpannerAlgorithm`](greedy_spanner::SpannerAlgorithm) pipeline.
//!
//! # Quick start
//!
//! Every construction is reached through the fluent
//! [`Spanner`](greedy_spanner::Spanner) builder (or
//! uniformly through `algorithms::registry()`):
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = spanner_graph::generators::erdos_renyi_connected(40, 0.3, 1.0..4.0, &mut rng);
//! let output = Spanner::greedy().stretch(2.0).build(&g)?;
//! let report = evaluate(&g, &output.spanner, 2.0);
//! assert!(report.meets_stretch_target());
//! assert_eq!(output.provenance.algorithm, "greedy");
//! # Ok::<(), greedy_spanner::SpannerError>(())
//! ```
//!
//! # The CSR query substrate
//!
//! Every construction now runs its shortest-path queries on a shared
//! substrate in [`graph`]: [`CsrGraph`](spanner_graph::CsrGraph) (a flat,
//! incrementally appendable compressed-sparse-row view) queried through a
//! [`DijkstraEngine`](spanner_graph::DijkstraEngine) whose owned,
//! generation-stamped workspace makes every query allocation-free once
//! pre-sized. The pipeline surfaces this in
//! [`RunStats`](greedy_spanner::RunStats): `distance_queries` counts the
//! bounded searches a construction issued and `workspace_reuse_hits` counts
//! how many ran without growing the workspace (the two are equal on the
//! engine-backed paths).
//!
//! ```
//! use greedy_spanner_suite::graph::{CsrGraph, DijkstraEngine, VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
//! let csr = CsrGraph::from(&g);
//! let mut engine = DijkstraEngine::with_capacity_for(g.num_vertices(), g.num_edges());
//! assert_eq!(engine.bounded_distance(&csr, VertexId(0), VertexId(2), 5.0), Some(2.0));
//! assert_eq!(engine.stats().reuse_hits, engine.stats().queries);
//! ```
//!
//! # The threading model
//!
//! The greedy constructions and the batch runner parallelize over
//! [`EnginePool`](spanner_graph::EnginePool) — per-worker Dijkstra
//! workspaces fanned across scoped `std::thread`s against a frozen
//! [`CsrSnapshot`](spanner_graph::CsrSnapshot) of the growing spanner, in a
//! batched *filter-then-commit* loop. The output is **bit-identical at
//! every thread count** (survivors are committed in candidate order with an
//! exact re-check), so `threads` is purely a throughput knob: set it with
//! `Spanner::greedy().threads(8)`, the
//! [`SpannerConfig::threads`](greedy_spanner::SpannerConfig) field, or the
//! `SPANNER_THREADS` environment variable. [`RunStats`](greedy_spanner::RunStats)
//! surfaces `batches`, `batch_recheck_hits`, `threads_used` and
//! `worker_utilization` per run.
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(9);
//! let g = spanner_graph::generators::erdos_renyi_connected(60, 0.3, 1.0..4.0, &mut rng);
//! let one = Spanner::greedy().stretch(2.0).threads(1).build(&g)?;
//! let four = Spanner::greedy().stretch(2.0).threads(4).build(&g)?;
//! assert_eq!(one.spanner, four.spanner); // determinism guarantee
//! assert_eq!(four.stats.threads_used, 4);
//! # Ok::<(), greedy_spanner::SpannerError>(())
//! ```
//!
//! # The serving model
//!
//! Any build result is `serve()`-able: the spanner is frozen into a
//! compacted CSR graph and queried through a
//! [`SpannerServer`](greedy_spanner::serve::SpannerServer) — **freeze →
//! serve → stats**. Batches of
//! [`Query`](greedy_spanner::serve::Query) values (bounded distance,
//! shortest path, k-nearest, ball, stretch-audit) fan out across the same
//! engine pool the constructions use, behind a deterministic LRU cache of
//! shortest-path trees so hot sources answer in `O(1)` per target.
//! Serving inherits the construction determinism guarantee: **answers are
//! bit-identical at every thread count and cache state.**
//! [`QueryWorkload`](greedy_spanner::workload::QueryWorkload) generates
//! realistic traffic (uniform pairs, Zipf hotspots, ball sweeps, mixed
//! profiles) for benches and tests, and
//! [`ServeStats`](greedy_spanner::serve::ServeStats) reports qps, cache hit
//! rate and p50/p99 latency buckets.
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(11);
//! let g = spanner_graph::generators::erdos_renyi_connected(50, 0.3, 1.0..4.0, &mut rng);
//! let mut server = Spanner::greedy()
//!     .stretch(2.0)
//!     .build(&g)?
//!     .serve()
//!     .threads(4)
//!     .audit_against(&g)
//!     .finish();
//! let batch = QueryWorkload::mixed(50, true)?.queries(100).seed(3).generate();
//! let answers = server.answer_batch(&batch).expect("valid batch");
//! assert_eq!(answers.len(), 100);
//! assert!(server.stats().qps().is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # The live-update model
//!
//! The stack is four layers — **substrate → construction → serving →
//! updates** — and nothing freezes forever. Every
//! [`CsrGraph`](spanner_graph::CsrGraph) mutation (append or tombstone
//! delete, staged in a [`DeltaOverlay`](spanner_graph::csr::DeltaOverlay)
//! and consolidated on re-pack) bumps a monotone epoch; stale views are
//! refused with typed errors, never answered silently. A built spanner
//! opens for updates with
//! [`SpannerOutput::live`](greedy_spanner::SpannerOutput::live): insertions
//! run the greedy admission rule against the current spanner, and a batch
//! that deletes or reweights a spanner edge rebuilds it with greedy over
//! the live original, so the stretch-`t` invariant holds after every batch
//! ([`UpdateStats`](greedy_spanner::UpdateStats)). A live
//! [`SpannerServer`](greedy_spanner::SpannerServer) interleaves query and
//! update batches, lazily invalidating epoch-stamped cached trees — and
//! answers bit-identically to a server rebuilt from scratch after every
//! batch.
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//!
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let mut server = Spanner::greedy()
//!     .stretch(2.0)
//!     .build(&g)?
//!     .live(&g)?
//!     .serve()
//!     .finish();
//! server.apply_updates(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))?;
//! let a = server.answer_batch(&[Query::distance(VertexId(0), VertexId(3), 10.0)])?;
//! assert_eq!(a[0].distance(), Some(0.5)); // the shortcut was admitted
//! assert_eq!(server.epoch(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # The persistence model
//!
//! The fifth layer makes the live stack **durable**. A
//! [`LiveSpanner`](greedy_spanner::LiveSpanner) attached to a store
//! directory with
//! [`persist_to`](greedy_spanner::LiveSpanner::persist_to) appends every
//! update batch to a checksummed write-ahead log *before* applying it, and
//! writes an epoch-stamped snapshot of both graphs at every generation
//! compaction (tombstoned slots re-packed once the dead fraction crosses a
//! threshold, bounding memory under unbounded churn) and on demand via
//! [`checkpoint`](greedy_spanner::LiveSpanner::checkpoint). After a crash,
//! [`LiveSpanner::recover`](greedy_spanner::LiveSpanner::recover) loads the
//! newest valid snapshot — falling back past corrupt ones — and replays the
//! WAL suffix through the same deterministic apply path, so the restarted
//! server answers **bit-identically** to the killed one. Damage surfaces as
//! typed [`PersistError`](greedy_spanner::PersistError)s, never panics; the
//! on-disk format is specified in the `spanner-store` crate docs and the
//! README.
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//!
//! let dir = std::env::temp_dir().join("greedy-spanner-suite-doc-persist");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let mut live = Spanner::greedy().stretch(2.0).build(&g)?.live(&g)?;
//! live.persist_to(&dir)?; // initial snapshot + write-ahead log
//! live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))?;
//! drop(live); // crash: nothing flushed beyond the WAL — and that is enough
//!
//! let recovered = LiveSpanner::recover(&dir)?;
//! assert_eq!(recovered.report.batches_replayed, 1);
//! assert_eq!(recovered.live.epoch(), 1);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # The sharded model
//!
//! Past single-pipeline scale, the same stack runs **partitioned**:
//! [`ShardedSpanner`](greedy_spanner::ShardedSpanner) cuts the graph into
//! `k` BFS-grown shards (`spanner_graph::partition`), builds each shard's
//! spanner through the ordinary pipeline, and stitches the boundaries with
//! a contracted skeleton of exact boundary-pair distances so the **global**
//! stretch-`t` still certifies
//! ([`ShardedOutput::certified_stretch`](greedy_spanner::ShardedOutput::certified_stretch));
//! `out.serve()` serves the stitched spanner from one plain
//! [`SpannerServer`](greedy_spanner::SpannerServer) holding one graph copy.
//! The artifact is bit-identical across thread counts.
//!
//! ```
//! use greedy_spanner_suite::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(13);
//! let g = spanner_graph::generators::grid_graph(12, 12, 0.3, &mut rng);
//! let out = ShardedSpanner::greedy().stretch(3.0).shards(4).build(&g)?;
//! assert_eq!(out.certified_stretch(), Some(3.0)); // cut edges re-audited
//! let mut server = out.serve().finish();
//! let batch = QueryWorkload::mixed(144, false)?.queries(64).seed(2).generate();
//! assert_eq!(server.answer_batch(&batch)?.len(), 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Migrating from the pre-0.2 free functions
//!
//! `greedy_spanner(&g, t)`, `greedy_spanner_of_metric(&m, t)`,
//! `approximate_greedy_spanner(&m, eps)` and the `baselines::*` constructors
//! were deprecated shims for one release and are now **removed**; see the
//! migration table in the [`greedy_spanner`](spanners) crate docs. In short:
//! `Spanner::<algorithm>()` + config setters + `.build(&input)` replaces each
//! free function, and [`SpannerOutput`](greedy_spanner::SpannerOutput)
//! replaces the per-construction result structs. The Dijkstra free functions
//! (`dijkstra::bounded_distance`, `dijkstra::shortest_path_tree`,
//! `dijkstra::ball`) remain supported as one-shot conveniences and as the
//! reference implementation the substrate is property-tested against; any
//! code issuing them in a loop should hold a `CsrGraph` + `DijkstraEngine`
//! instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use greedy_spanner as spanners;
pub use spanner_graph as graph;
pub use spanner_metric as metric;

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use greedy_spanner::algorithms::registry;
    pub use greedy_spanner::analysis::{evaluate, is_t_spanner, lightness, SpannerReport};
    pub use greedy_spanner::{
        aggregate_stats, run_matrix, Answer, BatchOutcome, LiveSpanner, LiveWorkload, MatrixCell,
        MatrixStats, Provenance, Query, QueryWorkload, RunStats, ServeBuilder, ServeError,
        ServeStats, Spanner, SpannerAlgorithm, SpannerBuilder, SpannerConfig, SpannerError,
        SpannerHandle, SpannerInput, SpannerOutput, SpannerServer, StreamEvent, Update,
        UpdateBatch, UpdateError, UpdateStats, WorkloadError,
    };
    pub use greedy_spanner::{
        BoundarySkeleton, LatencyHistogram, ShardedOutput, ShardedSpanner, StitchStats,
    };
    pub use greedy_spanner::{PersistError, Recovered, RecoveryReport};
    pub use spanner_graph::{
        CsrGraph, CsrSnapshot, DeltaOverlay, DijkstraEngine, EnginePool, EngineStats, GraphBuilder,
        SptTree, TreeNeed, VertexId, WeightedGraph,
    };
    pub use spanner_metric::{EuclideanSpace, MetricSpace, Point};
}
