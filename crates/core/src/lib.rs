//! Greedy and approximate-greedy spanner constructions, baselines and
//! analysis — the core of the reproduction of *"The Greedy Spanner is
//! Existentially Optimal"* (Filtser & Solomon, PODC 2016).
//!
//! # The unified pipeline
//!
//! Every construction in this crate — greedy (graphs and metrics),
//! approximate-greedy, Baswana–Sen, Θ-/Yao-graphs, WSPD and the trivial
//! baselines — implements one trait, [`SpannerAlgorithm`], over a shared
//! input/config/output vocabulary:
//!
//! * [`SpannerInput`] — a borrowed weighted graph or finite metric;
//! * [`SpannerConfig`] — one parameter block all algorithms read;
//! * [`SpannerOutput`] — the spanner plus uniform [`RunStats`] (edges
//!   examined/added, wall time, peak Dijkstra frontier, distance queries
//!   issued and workspace reuse hits of the CSR query engine) and
//!   [`Provenance`];
//! * [`algorithms::registry`] — every construction, boxed, for uniform
//!   iteration;
//! * [`matrix::run_matrix`] — batch evaluation of an
//!   `inputs × algorithms × stretches` grid.
//!
//! # Quick start
//!
//! The fluent [`Spanner`] builder is the front door:
//!
//! ```
//! use greedy_spanner::analysis::evaluate;
//! use greedy_spanner::Spanner;
//! use spanner_graph::generators::erdos_renyi_connected;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let g = erdos_renyi_connected(50, 0.3, 1.0..10.0, &mut rng);
//! let output = Spanner::greedy().stretch(3.0).build(&g)?;
//! let report = evaluate(&g, &output.spanner, 3.0);
//! assert!(report.max_stretch <= 3.0 + 1e-9);
//! assert!(output.spanner.num_edges() <= g.num_edges());
//! assert_eq!(output.provenance.algorithm, "greedy");
//! # Ok::<(), greedy_spanner::SpannerError>(())
//! ```
//!
//! Running *every* construction over one workload is a loop over the
//! registry:
//!
//! ```
//! use greedy_spanner::{algorithms, SpannerConfig, SpannerInput};
//! use spanner_metric::generators::uniform_points;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(2);
//! let points = uniform_points::<2, _>(30, &mut rng);
//! let input = SpannerInput::from(&points);
//! let config = SpannerConfig::for_stretch(1.5);
//! for algorithm in algorithms::registry() {
//!     if algorithm.supports(&input) {
//!         let out = algorithm.build(&input, &config)?;
//!         println!("{}: {} edges", out.provenance.algorithm, out.spanner.num_edges());
//!     }
//! }
//! # Ok::<(), greedy_spanner::SpannerError>(())
//! ```
//!
//! # Migrating from the free functions
//!
//! The pre-0.2 free functions (`greedy::greedy_spanner`,
//! `greedy_metric::greedy_spanner_of_metric`,
//! `approx_greedy::approximate_greedy_spanner`, and the `baselines::*`
//! constructors) were deprecated for one release and are now **removed**.
//! Each mapped one-to-one onto the builder, which is the only entry point:
//!
//! | removed (pre-0.2)                            | replacement                                        |
//! |----------------------------------------------|----------------------------------------------------|
//! | `greedy_spanner(&g, t)`                      | `Spanner::greedy().stretch(t).build(&g)`           |
//! | `greedy_spanner_of_metric(&m, t)`            | `Spanner::greedy().stretch(t).build(&m)`           |
//! | `approximate_greedy_spanner(&m, eps)`        | `Spanner::approx_greedy().epsilon(eps).build(&m)`  |
//! | `baswana_sen_spanner(&g, k, &mut rng)`       | `Spanner::baswana_sen().k(k).seed(s).build(&g)`    |
//! | `theta_graph_spanner(&pts, cones)`           | `Spanner::theta_graph().cones(cones).build(&pts)`  |
//! | `yao_graph_spanner(&pts, cones)`             | `Spanner::yao_graph().cones(cones).build(&pts)`    |
//! | `wspd_spanner(&pts, eps)`                    | `Spanner::wspd().epsilon(eps).build(&pts)`         |
//! | `mst_spanner(&g)`                            | `Spanner::mst().build(&g)`                         |
//! | `star_spanner(&m, hub)`                      | `Spanner::star().hub(hub).build(&m)`               |
//!
//! The builder returns a [`SpannerOutput`] whose `spanner` field replaces
//! the bespoke result structs, and whose `stats`/`provenance` replace the
//! per-construction bookkeeping fields. The only surviving free function is
//! [`greedy::greedy_spanner_reference`] — the pre-CSR reference loop the
//! engine-backed paths are benchmarked and property-tested against.
//!
//! **Migration note (0.10):** approximate greedy has one mode. The
//! cluster-graph certificates measured lightness 97.35 against the exact
//! mode's 4.39 on 600 uniform points (ε = 0.5), breaking the `O(1)`
//! lightness of Theorem 6, and nothing enabled them. Removed: the
//! `cluster_graph` module with `ClusterGraph`;
//! `SpannerConfig::use_cluster_graph` (and its `cluster-graph` part of
//! [`SpannerConfig::describe`]); `SpannerBuilder::use_cluster_graph`;
//! `ApproxGreedyParams::{use_cluster_graph, cluster_radius_fraction,
//! bucket_ratio, base_fraction}` (the base's ε is
//! [`approx_greedy::ApproxGreedyParams::base_epsilon`]);
//! `ApproxGreedySpanner::bucket_count`; and
//! `ServeBuilder::cache_admit_threshold` with
//! `serve::DEFAULT_CACHE_ADMIT_THRESHOLD` (a source still needs two
//! queries in one batch before its tree is cached). Delete those calls
//! and fields; `Spanner::approx_greedy()` output and every served answer
//! are unchanged.
//!
//! # The CSR query substrate
//!
//! Every construction that issues shortest-path queries — greedy (the `O(m)`
//! bounded queries of Algorithm 1), approximate-greedy and
//! stretch verification — runs them on `spanner_graph`'s CSR substrate: an
//! appendable [`spanner_graph::CsrGraph`] holding the growing spanner (its
//! rows reserved at the candidate degrees, so no row ever moves), and one
//! pre-sized [`spanner_graph::DijkstraEngine`] per build whose
//! generation-stamped workspace answers every query with zero heap
//! allocation. Greedy queries only the candidates whose endpoints the
//! spanner already connects: on the sequential path that is
//! `m − (n − c)` queries for an input with `c` connected components, since
//! the `n − c` candidates that join two components are admitted without a
//! search. [`RunStats::distance_queries`] /
//! [`RunStats::workspace_reuse_hits`] surface that contract per run. The
//! pre-CSR greedy loop survives as
//! [`greedy::greedy_spanner_reference`] — the benchmark and property-test
//! baseline, not a dispatch target.
//!
//! # The threading model
//!
//! Greedy on a graph (plain, sharded or live) runs the sequential loop at
//! every thread count. Greedy and approximate greedy on a *metric* input,
//! whose queries cost far more, parallelize with a **batched
//! filter-then-commit** loop over [`spanner_graph::EnginePool`] —
//! per-worker Dijkstra workspaces fanned over a frozen snapshot of the
//! growing spanner on scoped `std::thread`s:
//!
//! * **Determinism.** Work is dealt to workers by item index and survivors are
//!   committed sequentially with an exact re-check, so the output is
//!   **bit-identical at every thread count** — `threads` is purely a
//!   throughput knob, asserted by the property suite against
//!   [`greedy::greedy_spanner_reference`].
//! * **Configuration.** `Spanner::greedy().threads(8)`, the
//!   [`SpannerConfig::threads`] field, or the `SPANNER_THREADS` environment
//!   variable (read when the config leaves `threads` at 0 — see
//!   [`SpannerConfig::resolve_threads`]). `threads = 1` dispatches to the
//!   plain sequential loop with zero batching overhead.
//! * **Observability.** [`RunStats`] reports `batches`,
//!   `batch_recheck_hits`, `threads_used` and `worker_utilization`;
//!   [`matrix::aggregate_stats`] rolls them up per grid.
//! * **Batch runs.** [`run_matrix`] spends the same thread budget on
//!   cell-level parallelism (whole constructions run concurrently), which
//!   saturates workers without nested parallelism.
//!
//! # The serving model
//!
//! Construction produces the artifact; [`serve`] answers queries from it.
//! Calling [`SpannerOutput::serve`] turns any build result into a
//! [`serve::SpannerServer`] — **freeze → serve → stats**:
//!
//! 1. **Freeze.** `finish()` compacts the spanner into a read-only
//!    [`spanner_graph::CsrGraph`] and pre-sizes an
//!    [`spanner_graph::EnginePool`], so every subsequent query is
//!    allocation-free.
//! 2. **Serve.** [`serve::SpannerServer::answer_batch`] answers batches of
//!    [`serve::Query`] values — bounded distance, shortest path, k-nearest,
//!    ball, stretch-audit — fanned across the pool, with a deterministic
//!    LRU cache of answer-sized shortest-path-tree prefixes
//!    ([`spanner_graph::SptTree`]) in front so hot sources answer in
//!    `O(log m)` per target, `m` the cached prefix's size.
//! 3. **Stats.** [`serve::ServeStats`] reports qps, cache hit rate and
//!    p50/p99 latency buckets; the pool adds per-worker utilization and the
//!    zero-allocation counters.
//!
//! ```
//! use greedy_spanner::serve::Query;
//! use greedy_spanner::workload::QueryWorkload;
//! use greedy_spanner::Spanner;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(5);
//! let g = spanner_graph::generators::erdos_renyi_connected(60, 0.3, 1.0..4.0, &mut rng);
//! let mut server = Spanner::greedy().stretch(2.0).build(&g)?.serve().threads(8).finish();
//! let batch = QueryWorkload::zipf(60, 1.1)?.queries(128).seed(9).generate();
//! let answers = server.answer_batch(&batch).expect("valid batch");
//! assert_eq!(answers.len(), 128);
//! assert_eq!(server.stats().queries, 128);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Serving extends the construction pipeline's determinism guarantee:
//! answers are **bit-identical at every thread count and cache state**
//! (asserted by the root `serving_determinism` property suite against the
//! one-shot `dijkstra` free functions). [`workload`] generates realistic
//! traffic shapes — uniform pairs, Zipf hotspots, ball sweeps, mixed read
//! profiles — for benches and tests.
//!
//! **Migration note (0.13):** greedy on a graph input runs the sequential
//! loop at every thread count, so a graph build reports `threads_used = 1`
//! and no batches, shards build on the sequential loop, and live rebuilds
//! reuse witnesses at every thread count; `threads` still selects the
//! filter-then-commit loop for metric inputs. The outputs are unchanged.
//! Removed: `LiveSpanner::threads`. Deprecated: `LiveSpanner::with_threads`,
//! now a no-op; delete the call.
//!
//! **Migration note (0.12):** `CsrGraph` has no mutation overlay: an
//! append into a full row moves the row to the end of the slot arrays at
//! double its capacity, a deletion splices both half-edges out of their
//! rows, and every row holds exactly its live half-edges in edge-id order,
//! so answers are unchanged. Removed: `spanner_graph::DeltaOverlay` (with
//! its `pending_insertions` and `pending_deletions`);
//! `spanner_graph::csr::OverflowNeighbors`;
//! `spanner_graph::csr::{REPACK_OVERFLOW_DIVISOR, REPACK_OVERFLOW_SLACK}`;
//! and `CsrGraph::{overlay, overflow_neighbors, has_pending_deletions,
//! is_edge_id_live, packed_neighbor_ids, min_live_weight}`. Delete those
//! calls: [`spanner_graph::CsrGraph::packed_neighbors`] is the whole row
//! now, and [`spanner_graph::CsrGraph::is_edge_live`] and
//! [`spanner_graph::CsrGraph::dead_edges`] answer liveness.
//! [`spanner_graph::CsrGraph::is_compact`] now reports a tight layout:
//! every slot holds a live half-edge.
//!
//! **Migration note (0.11):** the batched relax kernel is gone; every
//! engine search runs the one scalar relaxation loop, with unchanged
//! answers. Removed: `spanner_graph::RelaxKernel` and
//! `spanner_graph::engine::AUTO_KERNEL_WORKING_SET_BYTES`;
//! `DijkstraEngine::{set_relax_kernel, relax_kernel}`;
//! `EnginePool::set_relax_kernel`; `ServeBuilder::relax_kernel`;
//! `CsrGraph::{edge_liveness_words, has_overflow}`; `ServeStats::kernel`;
//! `MatrixStats::kernel`; `GreedySpanner::kernel_stats`; and
//! `KernelStats::{merge, prefetch_distance}`. Delete those calls.
//! [`spanner_graph::KernelStats`] keeps three always-zero counters in
//! [`spanner_graph::EngineStats::kernel`] and [`RunStats::kernel`].
//!
//! **Migration note (0.8):** `ServeBuilder::reorder`,
//! `SpannerHandle::reordered` and `SpannerHandle::perm` are gone: a served
//! spanner keeps the build's vertex numbering (the degree-sorted relayout
//! slowed goal-directed serving on a 90k-vertex grid and was flat
//! elsewhere). Drop `.reorder(..)` calls; answers are unchanged.
//!
//! **Migration note (0.9):** the serving runtime is gone. It was an
//! admission-control front door timed on a modelled clock, and no
//! experiment or pipeline workload used it. Removed: the `runtime` module
//! with `Router`, `RouterBuilder`, the router's stats, `Ticket`, the QoS
//! class enum, the `Backend` trait, `Limiter`, its AIMD limit, the virtual
//! clock, `ServeClock`, `QueryCosts` and the windowed histogram; the shed
//! variant of [`serve::ServeError`]; the open-loop generator of
//! [`workload::QueryWorkload`] with its schedule type, `Arrival`, the
//! `burst` profile and `WorkloadError::{InvalidRate, InvalidBurst}`;
//! `ServeStats::lifetime` with its idle-inclusive rate; and
//! `LatencyHistogram::merge`. Call [`serve::SpannerServer::answer_batch`]
//! directly: it was the path the router dispatched into, so answers are
//! unchanged.
//!
//! **Migration note (0.7):** the unlimited direct-dispatch method →
//! `answer_batch` (it is the direct path again).
//!
//! **Migration note (0.3):** `SpannerServer` no longer owns a bare frozen
//! graph — it serves through an epoch-stamped handle, and
//! [`serve::SpannerServer::new`] takes a [`serve::SpannerHandle`]. The
//! builder entry points ([`SpannerOutput::serve`], and 0.2 code generally)
//! keep working unchanged; [`workload::QueryWorkload`] constructors now
//! validate their parameters and return `Result` (append `?` or
//! `.expect(...)`).
//!
//! # The live-update model
//!
//! The stack is four layers, and as of 0.3 none of them freezes forever:
//!
//! 1. **Substrate** (`spanner-graph`): [`spanner_graph::CsrGraph`] is
//!    appendable *and deletable* — an append moves a full row to the end
//!    of the slot arrays at double its capacity, a deletion splices the
//!    edge out of both rows, so every row holds exactly its live
//!    half-edges — and every mutation bumps a monotone
//!    [`spanner_graph::CsrGraph::epoch`]. Stale views are refused with
//!    typed [`spanner_graph::GraphError::StaleEpoch`] errors.
//! 2. **Construction** builds the spanner (unchanged).
//! 3. **Serving** ([`serve`]): [`serve::SpannerServer`] holds an
//!    epoch-stamped [`serve::SpannerHandle`]; cached shortest-path trees
//!    record their build epoch and are **lazily invalidated** on the first
//!    post-update touch ([`serve::ServeStats::stale_evictions`]).
//! 4. **Updates** ([`update`]): [`update::LiveSpanner`] applies
//!    [`update::UpdateBatch`]es — a batch that inserts or reweights an
//!    edge or deletes a spanner edge reruns greedy over the live original
//!    and swaps the result in — so after every batch the live spanner is
//!    the greedy spanner of the live original ([`update::UpdateStats`]).
//!
//! A live server ([`update::LiveSpanner::serve`]) interleaves
//! query batches and update batches and stays **bit-identical to a server
//! rebuilt from scratch after every batch**, at every thread count and
//! cache size (root suite `tests/live_update_determinism.rs`).
//! [`workload::LiveWorkload`] generates the mixed query/update streams with
//! a configurable update fraction.
//!
//! # The persistence model
//!
//! As of 0.4 a live spanner survives its process ([`persist`], backed by
//! the `spanner-store` crate):
//!
//! * **Bounded memory under churn.** When tombstoned slots dominate a
//!   graph's ground-truth array ([`update::LiveSpanner::with_compaction_threshold`];
//!   at least [`update::COMPACTION_MIN_DEAD`] dead slots), the batch that
//!   crossed the threshold re-packs it into a dense new **generation** —
//!   edge ids densified order-preservingly, answers unchanged — behind a
//!   bumped epoch, so serving caches notice through the ordinary lazy
//!   stale-eviction path.
//! * **Write-ahead logging.** [`update::LiveSpanner::persist_to`] attaches
//!   a store directory; every applied batch is fsynced to the WAL *before*
//!   anything mutates, and every compaction writes a checksummed,
//!   epoch-stamped snapshot. [`update::LiveSpanner::checkpoint`] writes one
//!   on demand.
//! * **Bit-identical recovery.** [`update::LiveSpanner::recover`] loads the
//!   newest verifying snapshot (falling back past corrupt candidates),
//!   replays the WAL suffix through the same deterministic apply path, and
//!   truncates any torn tail — the recovered server answers queries
//!   bit-identically to the killed one (root suite
//!   `tests/persistence_recovery.rs`). Corruption surfaces as typed
//!   [`persist::PersistError`]s, never panics.
//!
//! # The sharded architecture
//!
//! For graphs past single-pipeline scale, [`shard`] partitions the build
//! while keeping the global stretch certificate:
//!
//! 1. **Partition** (`spanner_graph::partition`): `k` BFS-grown,
//!    size-balanced regions from seed-ranked roots — deterministic, and
//!    `k = 1` is the identity. Each shard is an induced subgraph with a
//!    stable global↔local [`spanner_graph::VertexPerm`] mapping; edges
//!    between shards form the cut list.
//! 2. **Per-shard builds** ([`ShardedSpanner`] → [`ShardedBuilder`]): each
//!    shard runs the ordinary [`SpannerAlgorithm`] pipeline, and the
//!    thread budget builds up to that many shards concurrently.
//! 3. **Stitch**: cut endpoints
//!    become a contracted **boundary skeleton** ([`BoundarySkeleton`])
//!    holding exact per-shard spanner distances between boundary pairs
//!    (bounded ball searches — stitch cost scales with the cut, not `n`);
//!    cut edges are re-admitted by the greedy rule against the skeleton,
//!    and every cut edge is then re-audited, so
//!    [`ShardedOutput::certified_stretch`] is a **global** certificate
//!    ([`StitchStats::max_cut_stretch`] records the audited maximum).
//! 4. **Serve** ([`ShardedOutput::serve`] = `output.serve()`): one plain
//!    [`serve::SpannerServer`] over the stitched spanner. Shards are a
//!    construction-time decomposition; serving holds one graph copy.
//!
//! The build artifact is a function of (graph, shards, seed) alone —
//! bit-identical across thread counts — and `k = 1` (or an empty graph at
//! any `k`) reproduces the unsharded build exactly (root suites
//! `tests/sharded_determinism.rs`, `tests/sharded_matrix.rs`).
//!
//! **Migration note (0.7):** the k-replica sharded server, its builder and
//! the skeleton clamp are gone. [`ShardedOutput::serve`] returns the plain
//! [`serve::ServeBuilder`]; drop the serve-shard-count setter. Measured on a
//! 90k-vertex grid, k replica caches hit no more often than one shared
//! cache, and the clamp slowed bounded cross-shard queries.
//!
//! # Module map
//!
//! * [`algorithm`], [`algorithms`], [`builder`], [`matrix`] — the unified
//!   pipeline described above.
//! * [`serve`] + [`workload`] — the serving layer described above.
//! * [`update`] — the live-update subsystem ([`update::LiveSpanner`])
//!   described above.
//! * [`persist`] — snapshots, write-ahead logging and crash recovery for
//!   live spanners, described above.
//! * [`shard`] — the sharded pipeline described above: partitioned builds,
//!   the boundary skeleton and the global stretch re-audit.
//! * [`greedy`] / [`greedy_metric`] — Algorithm 1 engines (graph / metric).
//! * [`bounded_degree`] — the net-tree `(1+ε)`-spanner substrate
//!   (Theorem 2).
//! * [`approx_greedy`] — the approximate-greedy algorithm of Section 5.1
//!   (Theorem 6), with exact distance queries.
//! * [`baselines`] — Baswana–Sen, Θ-/Yao-graphs, WSPD, MST and star engines.
//! * [`analysis`] — stretch verification, lightness, degree and
//!   [`analysis::SpannerReport`].
//! * [`optimality`] — the Figure 1 instance, Lemma 3's self-spanner property
//!   and Observation 2's MST containment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod algorithms;
pub mod analysis;
pub mod approx_greedy;
pub mod baselines;
pub mod bounded_degree;
pub mod builder;
pub mod error;
pub mod greedy;
pub mod greedy_metric;
pub mod matrix;
pub mod optimality;
pub mod persist;
pub mod serve;
pub mod shard;
pub mod update;
pub mod workload;

pub use algorithm::{
    Provenance, RunStats, SpannerAlgorithm, SpannerConfig, SpannerInput, SpannerOutput, MAX_THREADS,
};
pub use builder::{Spanner, SpannerBuilder};
pub use error::{GraphError, SpannerError};
pub use greedy::GreedySpanner;
pub use matrix::{aggregate_stats, run_matrix, MatrixCell, MatrixStats};
pub use persist::{PersistError, Recovered, RecoveryReport};
pub use serve::LatencyHistogram;
pub use serve::SpannerHandle;
pub use serve::{Answer, Query, ServeBuilder, ServeError, ServeStats, SpannerServer};
pub use shard::{
    BoundarySkeleton, ShardBuildStats, Sharded, ShardedBuilder, ShardedOutput, ShardedSpanner,
    StitchStats,
};
pub use update::{BatchOutcome, LiveSpanner, Update, UpdateBatch, UpdateError, UpdateStats};
pub use workload::{LiveWorkload, QueryWorkload, StreamEvent, WorkloadError};
