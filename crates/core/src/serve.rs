//! The serving layer: batched distance-oracle queries over a spanner —
//! frozen, or live under updates.
//!
//! The paper's point is that the greedy spanner is the *right artifact to
//! serve queries from* — near-minimal memory, bounded stretch. The
//! construction side of this crate builds that artifact; [`SpannerServer`]
//! is the read side. It holds an **epoch-stamped handle** to a compacted
//! [`CsrGraph`] and answers **query batches** — point-to-point bounded
//! distance, shortest path, k-nearest, ball, and stretch-audit (spanner vs.
//! original graph) — fanned across an [`EnginePool`] of per-worker Dijkstra
//! workspaces, with a cache of shortest-path-tree prefixes in front so hot
//! sources answer in `O(1)` per target.
//!
//! # Epochs and live serving
//!
//! Every mutation of a [`CsrGraph`] bumps its [`CsrGraph::epoch`]. The
//! server records the epoch its view was built at and every cached
//! shortest-path tree records the epoch it was computed at:
//!
//! * A **frozen** server ([`SpannerHandle`] + [`SpannerServer::new`], or
//!   the classic [`SpannerOutput::serve`] builder) refuses to answer when
//!   its handle's stamp no longer matches the graph — a typed
//!   [`ServeError::StaleEpoch`], never a silent answer over data the
//!   stamp-holder has not seen.
//! * A **live** server (built from a [`LiveSpanner`] via
//!   [`LiveSpanner::serve`]) interleaves query batches with update batches
//!   ([`SpannerServer::apply_updates`]). Updates advance the spanner's
//!   epoch; cache entries from earlier epochs are invalidated *lazily* — on
//!   the first post-update query of their source they are discarded
//!   (counted in [`ServeStats::stale_evictions`]) and the source is
//!   re-answered by a fresh engine search. A live server interleaving
//!   queries and updates therefore answers **bit-identically to a server
//!   rebuilt from scratch after every update batch**, at every thread count
//!   and cache size — asserted by the root `live_update_determinism` suite.
//!
//! # The determinism guarantee
//!
//! Serving inherits the construction pipeline's contract: **answers are
//! bit-identical at every thread count and at every cache state.**
//!
//! * Query `i` of a batch runs on pool worker `i mod w`
//!   ([`EnginePool::map_batch`]), so which OS thread answers a query never
//!   influences its result slot. Dealing queries round-robin rather than in
//!   contiguous chunks spreads neighbouring expensive queries (a
//!   generator's run of `Path` queries, say) over every worker.
//! * Cache hits never change results: a cached [`SptTree`] stores the
//!   engine's own distances and parents verbatim and answers only what its
//!   prefix covers (see below), and a goal-directed miss returns the
//!   one-sided search's distance and path exactly, so a tree lookup and a
//!   fresh engine search return the same bits. Stale (old-epoch) trees are
//!   never consulted.
//! * Paths are canonical: among equal-length shortest paths every search
//!   and every cached tree picks parents by one rule (the smallest
//!   `(distance, id)` among a vertex's achieving neighbours; see
//!   [`DijkstraEngine::shortest_path_tree`]).
//! * Cache *admission* is a pure function of the batch (per-source demand
//!   and need in first-appearance order) and eviction is by
//!   least-recent-use with a deterministic tie-break — the cache's content
//!   after any batch sequence is reproducible.
//!
//! The root test suite `tests/serving_determinism.rs` asserts all of this
//! against the one-shot `dijkstra` free functions across thread counts
//! {1, 2, 8}.
//!
//! # Answer-sized searches
//!
//! A cache miss searches only until its answer is fixed:
//!
//! * [`Query::Distance`], [`Query::Path`] and the spanner side of
//!   [`Query::StretchAudit`] run the goal-directed search toward the
//!   target while the server has a current landmark table (see the
//!   acceleration stack below), and otherwise stop once the target
//!   settles ([`DijkstraEngine::shortest_path_with`]); bounded distances
//!   never queue a vertex past the bound.
//! * [`Query::KNearest`] stops after the `k`-th settle plus the ties at its
//!   distance ([`DijkstraEngine::k_nearest_with_ties`]).
//! * [`Query::Ball`] never settles a vertex past the radius.
//!
//! This is exact, not approximate. Popped keys never decrease
//! (`fl(d + w) ≥ d`), and a settled vertex's distance and parent never
//! change. So a stopped search's settled vertices are a prefix of the full
//! search's settle order, with the same distances and parents bit for bit,
//! and every vertex the answer needs is in that prefix: the path's
//! vertices settle before its target, and every vertex at or below the
//! `k`-th distance settles before the first pop past it. Member lists come
//! back in `(distance, vertex)` order, re-sorted where a rounding tie
//! (`fl(d + w) = d`) settled a smaller id after a larger one at one
//! distance.
//!
//! # Prefix trees in the cache
//!
//! Cache admission is answer-sized too. A source's **need** holds only
//! what a miss would have to search for: the bounded-distance targets the
//! landmark table does not already rule out, the largest `k` and the
//! largest radius. An admitted source's search runs only until that need
//! is met — each target settled or its bound reached, the largest `k`
//! settled, the largest radius reached — then through the ties at that
//! distance `D`, exactly like a `KNearest` miss
//! ([`DijkstraEngine::owned_shortest_path_tree`] with a [`TreeNeed`]).
//! Two kinds of target stay out of the need, because a goal-directed miss
//! answers them for far less than the tree would cost:
//!
//! * `Path` and `StretchAudit` targets: the miss settles a narrow
//!   corridor, while growing a tree until a far target settles costs the
//!   whole ball around the source;
//! * `Distance(t, bound)` targets that [`Landmarks::rules_out`]: the
//!   landmarks alone prove `t` farther than `bound`, so the miss settles no
//!   vertex, while growing the tree to `bound` costs the ball of that
//!   radius.
//!
//! A source whose need is empty — only paths, audits and ruled-out
//! distances, say — is not admitted at all.
//! The cache stores that **prefix tree**, stamped with `D`
//! ([`SptTree::complete_through`]; `∞` when the search ran out of
//! vertices). By the argument above, every vertex at distance `≤ D` is in
//! the prefix with its full-tree distance and parent, bit for bit, and no
//! other vertex is. The tree stores only those members — each with its
//! distance, its parent and an entry in a vertex-sorted index, 28 bytes a
//! member — so a cached prefix costs memory and build time in proportion
//! to its size, not to the graph's, and a lookup is a binary search of
//! the index. A later query is answered from the prefix exactly when the
//! prefix decides it:
//!
//! * `Distance(t, bound)`: `t` is in the prefix, or `D ≥ bound` (then `t`
//!   lies past the bound);
//! * `Path(t)` and `StretchAudit(t)`: `t` is in the prefix, or `D = ∞`
//!   (then `t` is unreachable);
//! * `KNearest(k)`: `k = 0`, or the prefix holds at least `k` vertices
//!   (the `k`-th one's ties lie at or below `D`), or `D = ∞`;
//! * `Ball(r)`: `r ≤ D`.
//!
//! So a `Path` or `StretchAudit` target a tree happens to cover is still a
//! hit. Any other query is a plain miss and runs its own answer-sized
//! search; only covered queries count as cache hits. A source whose
//! current tree already covers its batch is not re-admitted; one that is
//! re-admitted also needs the old `D` as a radius, so an entry only ever
//! grows.
//!
//! # The point-query acceleration stack
//!
//! Two answer-invariant accelerations sit in the serving hot path; both
//! are pure speed knobs — `tests/engine_variant_determinism.rs` asserts
//! bit-identical answers across every combination, and
//! `tests/alt_exact_bounds.rs` does so for paths, unbounded distances and
//! bounds equal to the exact distance:
//!
//! * **Goal-directed point-to-point search** ([`ServeBuilder::landmarks`]):
//!   frozen servers carry a landmark table on their handle, built at
//!   freeze time; live servers rebuild theirs on the first batch of each
//!   epoch. Both pick landmarks by farthest-point traversal
//!   ([`Landmarks::farthest_point`]). Every `Distance`, `Path` and
//!   `StretchAudit` miss runs an A* search keyed by distance plus the
//!   landmarks' triangle bound (ALT), which settles a corridor toward the
//!   target instead of a ball around the source. The bound carries a
//!   rounding margin ([`spanner_graph::path_rounding_margin`]) and the
//!   search drains slightly past the target's distance and re-opens
//!   misordered vertices, so distances stay bit-identical and paths
//!   vertex-identical to the one-sided search
//!   ([`DijkstraEngine::shortest_path_with`]);
//!   [`spanner_graph::EngineStats::settled_vertices`],
//!   [`spanner_graph::EngineStats::pruned_by_bound`] and
//!   [`spanner_graph::EngineStats::reopened`] make the corridor
//!   observable. A pair whose source bound already exceeds the query
//!   bound ([`Landmarks::rules_out`]) settles nothing, and its target
//!   stays out of the cache's need (see above).
//!
//! # Quick start
//!
//! ```
//! use greedy_spanner::serve::Query;
//! use greedy_spanner::Spanner;
//! use spanner_graph::{VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)])?;
//! let mut server = Spanner::greedy().stretch(2.0).build(&g)?.serve().threads(2).finish();
//! let answers = server.answer_batch(&[
//!     Query::distance(VertexId(0), VertexId(3), 100.0),
//!     Query::ball(VertexId(1), 1.0),
//! ])?;
//! assert_eq!(answers[0].distance(), Some(3.0));
//! assert_eq!(server.stats().queries, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use spanner_graph::{
    CsrGraph, DijkstraEngine, EnginePool, EngineStats, Landmarks, SptTree, TreeNeed, VertexId,
    WeightedGraph,
};

use crate::algorithm::{Provenance, SpannerConfig, SpannerOutput};
use crate::shard::ShardedOutput;
use crate::update::{BatchOutcome, LiveSpanner, UpdateBatch, UpdateError, UpdateStats};

/// One read query against a served spanner.
///
/// All variants are answered against the *spanner*; [`Query::StretchAudit`]
/// additionally consults the original graph: the one given via
/// [`ServeBuilder::audit_against`] for frozen servers, the live original
/// for live ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Distance between two vertices if it is at most `bound` (use
    /// `f64::INFINITY` for an unbounded query).
    Distance {
        /// Query source.
        source: VertexId,
        /// Query target.
        target: VertexId,
        /// Largest distance of interest; larger answers report `None`.
        bound: f64,
    },
    /// The shortest path between two vertices.
    Path {
        /// Query source.
        source: VertexId,
        /// Query target.
        target: VertexId,
    },
    /// The `k` vertices nearest to `source` (the source itself first).
    KNearest {
        /// Query source.
        source: VertexId,
        /// How many nearest vertices to return.
        k: usize,
    },
    /// Every vertex within `radius` of `source`, with distances.
    Ball {
        /// Query source.
        source: VertexId,
        /// Ball radius (non-negative).
        radius: f64,
    },
    /// The spanner's detour for a pair: spanner distance, original-graph
    /// distance, and their ratio (the realized stretch).
    StretchAudit {
        /// Query source.
        source: VertexId,
        /// Query target.
        target: VertexId,
    },
}

impl Query {
    /// A bounded point-to-point distance query.
    pub fn distance(source: VertexId, target: VertexId, bound: f64) -> Self {
        Query::Distance {
            source,
            target,
            bound,
        }
    }

    /// A shortest-path query.
    pub fn path(source: VertexId, target: VertexId) -> Self {
        Query::Path { source, target }
    }

    /// A k-nearest query.
    pub fn k_nearest(source: VertexId, k: usize) -> Self {
        Query::KNearest { source, k }
    }

    /// A ball query.
    pub fn ball(source: VertexId, radius: f64) -> Self {
        Query::Ball { source, radius }
    }

    /// A stretch-audit query.
    pub fn stretch_audit(source: VertexId, target: VertexId) -> Self {
        Query::StretchAudit { source, target }
    }

    /// The source vertex this query fans out from — the key the SPT cache
    /// and the admission policy work with.
    pub fn source(&self) -> VertexId {
        match *self {
            Query::Distance { source, .. }
            | Query::Path { source, .. }
            | Query::KNearest { source, .. }
            | Query::Ball { source, .. }
            | Query::StretchAudit { source, .. } => source,
        }
    }
}

/// A resolved shortest path: its total weight and its vertex sequence
/// (source first).
#[derive(Debug, Clone, PartialEq)]
pub struct PathAnswer {
    /// Total weight of the path.
    pub distance: f64,
    /// Vertex sequence, source first, target last.
    pub vertices: Vec<VertexId>,
}

/// A resolved stretch audit: how far the spanner detours for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchSample {
    /// Distance through the spanner.
    pub spanner_distance: f64,
    /// Distance through the audited original graph.
    pub graph_distance: f64,
    /// `spanner_distance / graph_distance` (`1.0` for coincident vertices).
    pub stretch: f64,
}

/// The answer to one [`Query`], in the same position of the batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Distance within the bound, or `None` (unreachable or beyond bound).
    Distance(Option<f64>),
    /// The shortest path, or `None` if the target is unreachable.
    Path(Option<PathAnswer>),
    /// Nearest vertices in non-decreasing `(distance, vertex)` order.
    KNearest(Vec<(VertexId, f64)>),
    /// Ball members in non-decreasing `(distance, vertex)` order.
    Ball(Vec<(VertexId, f64)>),
    /// The realized stretch, or `None` if the pair is disconnected in
    /// either graph.
    StretchAudit(Option<StretchSample>),
}

impl Answer {
    /// The distance payload of a [`Answer::Distance`], `None` otherwise.
    pub fn distance(&self) -> Option<f64> {
        match self {
            Answer::Distance(d) => *d,
            _ => None,
        }
    }
}

/// Errors a batch can be rejected with — all detected up front, before any
/// query runs, so a batch either runs whole or not at all.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A query referenced a vertex outside the served spanner.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Vertices in the served spanner.
        num_vertices: usize,
    },
    /// A distance bound was `NaN` or negative.
    InvalidBound {
        /// The offending bound.
        bound: f64,
    },
    /// A ball radius was `NaN` or negative.
    InvalidRadius {
        /// The offending radius.
        radius: f64,
    },
    /// A [`Query::StretchAudit`] was submitted to a frozen server built
    /// without [`ServeBuilder::audit_against`].
    MissingAuditBaseline,
    /// The server's epoch-stamped handle no longer matches its graph: the
    /// spanner was mutated out-of-band (through
    /// [`SpannerHandle::graph_mut`] without a
    /// [`SpannerHandle::refresh`]), and the server refuses to answer
    /// against data its stamp-holder has not acknowledged.
    StaleEpoch {
        /// The epoch the handle was stamped with.
        stamped: u64,
        /// The graph's current epoch.
        current: u64,
    },
    /// [`SpannerServer::apply_updates`] was called on a frozen server.
    UpdatesNotSupported,
    /// An update batch was rejected by the live-update subsystem.
    Update(UpdateError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "query vertex {vertex} out of range for a spanner with {num_vertices} vertices"
            ),
            ServeError::InvalidBound { bound } => {
                write!(f, "distance bound {bound} must be non-negative")
            }
            ServeError::InvalidRadius { radius } => {
                write!(f, "ball radius {radius} must be non-negative")
            }
            ServeError::MissingAuditBaseline => write!(
                f,
                "stretch-audit queries need a baseline graph; build the server with audit_against"
            ),
            ServeError::StaleEpoch { stamped, current } => write!(
                f,
                "stale serving handle: stamped epoch {stamped}, graph at {current}; refresh the \
                 handle before serving"
            ),
            ServeError::UpdatesNotSupported => write!(
                f,
                "this server serves a frozen spanner; build it from a LiveSpanner to apply updates"
            ),
            ServeError::Update(e) => write!(f, "update batch rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UpdateError> for ServeError {
    fn from(e: UpdateError) -> Self {
        ServeError::Update(e)
    }
}

/// Log2 of the linear sub-buckets per power of two (see [`LatencyHistogram`]).
const SUB_BUCKET_BITS: u32 = 4;

/// Linear sub-buckets per power of two: 16, for a relative quantile error
/// of at most `1/16 = 6.25%`.
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// One bucket per nanosecond below [`SUB_BUCKETS`], then [`SUB_BUCKETS`]
/// per power of two up to `2⁶⁴`.
const LATENCY_BUCKETS: usize = SUB_BUCKETS * (65 - SUB_BUCKET_BITS as usize);

/// The bucket a latency of `nanos` lands in: its top `SUB_BUCKET_BITS + 1`
/// significant bits.
fn latency_bucket(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let shift = 63 - nanos.leading_zeros() - SUB_BUCKET_BITS;
    let sub = (nanos >> shift) as usize & (SUB_BUCKETS - 1);
    SUB_BUCKETS * (shift as usize + 1) + sub
}

/// The largest latency, in nanoseconds, that lands in `bucket`.
fn latency_bucket_upper(bucket: usize) -> u64 {
    if bucket < SUB_BUCKETS {
        return bucket as u64;
    }
    let shift = bucket / SUB_BUCKETS - 1;
    let lower = ((SUB_BUCKETS + bucket % SUB_BUCKETS) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

/// Log-linear latency buckets, HdrHistogram-style (G. Tene,
/// <http://hdrhistogram.org>): exact below 16 ns, then 16 linear
/// sub-buckets per power of two, so a bucket spans less than 1/16 of the
/// values in it. Allocation-free and cheap enough to record per query;
/// quantiles report the matching bucket's upper bound, at most 6.25% above
/// the exact quantile. Merging adds bucket counts, so it is exact. The
/// exact observed maximum is tracked alongside ([`LatencyHistogram::max`])
/// — p99 alone hides tail outliers in long runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one answer latency.
    pub fn record(&mut self, latency: Duration) {
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.counts[latency_bucket(nanos)] += 1;
        self.total += 1;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Recorded answers.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The latency below which a `q` fraction of answers fell (upper bound
    /// of the matching bucket, clamped to the observed maximum), or `None`
    /// if nothing was recorded. `q` is clamped to `[0, 1]`. The result is
    /// at least the exact quantile and less than `1 + 1/16` times it.
    ///
    /// The clamp matters at the tail: a single-sample histogram reports
    /// that sample — not its bucket's upper bound — for every quantile, and
    /// no quantile ever exceeds [`LatencyHistogram::max`].
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper = latency_bucket_upper(bucket);
                return Some(Duration::from_nanos(upper.min(self.max_nanos)));
            }
        }
        None
    }

    /// Median answer latency (bucket upper bound).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// 99th-percentile answer latency (bucket upper bound).
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// The exact observed maximum latency, or `None` if nothing was
    /// recorded. Unlike the quantiles this is not bucket-rounded, so the
    /// single worst answer of a long run is visible even when p99 looks
    /// flat.
    pub fn max(&self) -> Option<Duration> {
        (self.total > 0).then(|| Duration::from_nanos(self.max_nanos))
    }
}

/// Aggregate serving statistics, accumulated across batches; see
/// [`SpannerServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Queries answered.
    pub queries: u64,
    /// Batches processed.
    pub batches: u64,
    /// Queries answered from a cached shortest-path tree.
    pub cache_hits: u64,
    /// Queries answered by a fresh engine search.
    pub cache_misses: u64,
    /// Trees admitted into the cache.
    pub cache_insertions: u64,
    /// Trees evicted to make room.
    pub cache_evictions: u64,
    /// Trees discarded because their build epoch predated an update — the
    /// lazy invalidation a live server performs on the first post-update
    /// touch of a stale source.
    pub stale_evictions: u64,
    /// The spanner epoch observed by the most recent batch (0 before any
    /// batch ran). On a frozen server this never changes; on a live server
    /// it advances as update batches interleave.
    pub epoch: u64,
    /// Total wall time spent inside [`SpannerServer::answer_batch`].
    pub elapsed: Duration,
    /// Per-query answer latencies.
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// Answered queries per second of **busy** serving time: the denominator
    /// is `elapsed`, which accumulates only time spent inside
    /// [`SpannerServer::answer_batch`] — idle gaps between batches do not
    /// dilute it. `None` before anything was served (explicit, not a `0/0`).
    pub fn qps(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0 && self.queries > 0).then(|| self.queries as f64 / secs)
    }

    /// Fraction of queries answered from the tree cache, or `None` before
    /// anything was served.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// What [`SptCache::lookup`] found for a source at the current epoch.
enum CacheLookup<'a> {
    /// A current-epoch tree: answer from it.
    Hit(&'a SptTree),
    /// A tree from an earlier epoch: must not be consulted; evict lazily.
    Stale,
    /// Nothing cached.
    Miss,
}

/// A deterministic LRU cache of shortest-path trees, keyed by source vertex
/// and stamped with the epoch each tree was computed at.
///
/// Recency is a logical clock ticked in batch order, and eviction breaks
/// recency ties by smaller source index, so the cache content after any
/// sequence of batches is a pure function of the query/update stream —
/// never of thread scheduling. Entries whose epoch predates the spanner's
/// current epoch are never consulted and are discarded on first touch.
#[derive(Debug)]
struct SptCache {
    capacity: usize,
    clock: u64,
    /// `source → (tree, last_used, build_epoch)`.
    entries: HashMap<usize, (SptTree, u64, u64)>,
}

impl SptCache {
    fn new(capacity: usize) -> Self {
        SptCache {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Read-only lookup — does not touch recency, so it is safe to call
    /// from parallel workers against a frozen `&self`.
    fn lookup(&self, source: VertexId, epoch: u64) -> CacheLookup<'_> {
        match self.entries.get(&source.index()) {
            Some((tree, _, e)) if *e == epoch => CacheLookup::Hit(tree),
            Some(_) => CacheLookup::Stale,
            None => CacheLookup::Miss,
        }
    }

    /// Marks a source as just-used (no-op for uncached sources).
    fn touch(&mut self, source: VertexId) {
        self.clock += 1;
        let clock = self.clock;
        if let Some((_, last_used, _)) = self.entries.get_mut(&source.index()) {
            *last_used = clock;
        }
    }

    /// Discards a stale entry (first post-update touch). Returns `true` if
    /// an entry was actually removed.
    fn evict_stale(&mut self, source: VertexId, epoch: u64) -> bool {
        match self.entries.get(&source.index()) {
            Some(&(_, _, e)) if e != epoch => {
                self.entries.remove(&source.index());
                true
            }
            _ => false,
        }
    }

    /// Inserts a tree stamped with its build epoch, evicting the
    /// least-recently-used entry (ties by smaller source index) when full.
    /// Returns `(lru_evicted, stale_replaced)`.
    fn insert(&mut self, tree: SptTree, epoch: u64) -> (bool, bool) {
        if self.capacity == 0 {
            return (false, false);
        }
        let key = tree.source().index();
        let stale_replaced = self.entries.get(&key).is_some_and(|&(_, _, e)| e != epoch);
        let mut evicted = false;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some((&victim, _)) = self
                .entries
                .iter()
                .min_by_key(|(&source, &(_, last_used, _))| (last_used, source))
            {
                self.entries.remove(&victim);
                evicted = true;
            }
        }
        self.clock += 1;
        self.entries.insert(key, (tree, self.clock, epoch));
        (evicted, stale_replaced)
    }
}

/// An epoch-stamped, owned handle to a compacted spanner — what a
/// [`SpannerServer`] serves from ([`SpannerServer::new`]).
///
/// The handle records the [`CsrGraph::epoch`] of the graph at stamping
/// time. Serving verifies the stamp before every batch, so out-of-band
/// mutations (through [`SpannerHandle::graph_mut`]) surface as
/// [`ServeError::StaleEpoch`] until the holder acknowledges them with
/// [`SpannerHandle::refresh`].
#[derive(Debug, Clone)]
pub struct SpannerHandle {
    spanner: CsrGraph,
    epoch: u64,
    provenance: Provenance,
    /// Landmark distance table for goal-directed queries. Consulted only
    /// while its epoch stamp matches.
    landmarks: Option<Landmarks>,
}

impl SpannerHandle {
    /// Stamps a handle over a CSR spanner at its current epoch, without
    /// landmarks.
    pub fn new(spanner: CsrGraph, provenance: Provenance) -> Self {
        let epoch = spanner.epoch();
        SpannerHandle {
            spanner,
            epoch,
            provenance,
            landmarks: None,
        }
    }

    /// Freezes a build result into a handle (compacts the spanner so every
    /// subsequent scan is packed).
    pub fn from_output(output: SpannerOutput) -> Self {
        SpannerHandle::new(CsrGraph::from(&output.spanner), output.provenance)
    }

    /// Attaches a table of `count` landmarks, picked by farthest-point
    /// traversal ([`Landmarks::farthest_point`]), for goal-directed
    /// point-to-point queries. `count = 0` strips any existing table.
    /// Landmarks only make queries cheaper, never different.
    pub fn with_landmarks(mut self, count: usize) -> Self {
        self.landmarks = (count > 0).then(|| Landmarks::farthest_point(&self.spanner, count));
        self
    }

    /// The stamped epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The spanner graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.spanner
    }

    /// The attached landmark table, if any.
    pub fn landmarks(&self) -> Option<&Landmarks> {
        self.landmarks.as_ref()
    }

    /// Mutable access to the spanner graph, for out-of-band maintenance.
    /// Any mutation advances the graph's epoch past this handle's stamp;
    /// call [`SpannerHandle::refresh`] afterwards or serving will refuse
    /// with [`ServeError::StaleEpoch`].
    pub fn graph_mut(&mut self) -> &mut CsrGraph {
        &mut self.spanner
    }

    /// Returns `true` while the stamp matches the graph's epoch.
    pub fn is_current(&self) -> bool {
        self.epoch == self.spanner.epoch()
    }

    /// Re-stamps the handle at the graph's current epoch, acknowledging any
    /// out-of-band mutations.
    pub fn refresh(&mut self) {
        self.epoch = self.spanner.epoch();
    }

    /// Which construction produced the spanner.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }
}

/// What a server serves: a frozen epoch-stamped handle, or a live spanner
/// taking updates.
#[derive(Debug)]
enum Served {
    Frozen(Box<SpannerHandle>),
    Live(Box<LiveSpanner>),
}

impl Served {
    fn spanner(&self) -> &CsrGraph {
        match self {
            Served::Frozen(handle) => handle.graph(),
            Served::Live(live) => live.spanner(),
        }
    }

    fn provenance(&self) -> &Provenance {
        match self {
            Served::Frozen(handle) => handle.provenance(),
            Served::Live(live) => live.provenance(),
        }
    }

    /// Verifies the stamp and returns the epoch to serve this batch at.
    fn verify(&self) -> Result<u64, ServeError> {
        match self {
            Served::Frozen(handle) => {
                if handle.is_current() {
                    Ok(handle.epoch())
                } else {
                    Err(ServeError::StaleEpoch {
                        stamped: handle.epoch(),
                        current: handle.graph().epoch(),
                    })
                }
            }
            // A live spanner only mutates through apply(), which keeps its
            // view internally consistent — its current epoch is the stamp.
            Served::Live(live) => Ok(live.epoch()),
        }
    }
}

/// A distance-oracle server over a spanner; construct one with
/// [`SpannerOutput::serve`] (frozen), [`LiveSpanner::serve`] (live, takes
/// update batches), or [`SpannerServer::new`] over an epoch-stamped
/// [`SpannerHandle`]. See the [module docs](crate::serve) for the serving
/// model, the epoch/invalidation model and the determinism guarantee.
#[derive(Debug)]
pub struct SpannerServer {
    served: Served,
    /// Frozen audit baseline; live servers audit against the live original
    /// instead.
    baseline: Option<CsrGraph>,
    pool: EnginePool,
    threads: usize,
    cache: SptCache,
    /// How many landmarks a live server picks per epoch (frozen servers
    /// carry their table on the handle). `0` disables goal-directed search.
    landmark_count: usize,
    /// A live server's landmark table, rebuilt lazily on the first batch
    /// after an update batch bumps the epoch.
    live_landmarks: Option<Landmarks>,
    stats: ServeStats,
}

impl SpannerServer {
    /// A server with default options (see [`DEFAULT_CACHE_CAPACITY`]) over
    /// an epoch-stamped handle.
    ///
    /// **Migration note (0.3):** `SpannerServer` no longer owns a bare
    /// frozen graph — it holds an epoch-stamped handle, and
    /// `SpannerServer::new` takes that [`SpannerHandle`]. Code that built
    /// servers through [`SpannerOutput::serve`] keeps working unchanged;
    /// code that wants the handle explicitly writes
    /// `SpannerServer::new(SpannerHandle::from_output(output))`.
    pub fn new(handle: SpannerHandle) -> Self {
        ServeBuilder::from_handle(handle).finish()
    }

    /// Vertices of the served spanner.
    pub fn num_vertices(&self) -> usize {
        self.served.spanner().num_vertices()
    }

    /// Live edges of the served spanner.
    pub fn num_edges(&self) -> usize {
        self.served.spanner().num_edges()
    }

    /// Worker threads answering each batch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which construction produced the served spanner.
    pub fn provenance(&self) -> &Provenance {
        self.served.provenance()
    }

    /// The served spanner's current epoch.
    pub fn epoch(&self) -> u64 {
        self.served.spanner().epoch()
    }

    /// The live-update state, when this server serves a [`LiveSpanner`].
    pub fn live(&self) -> Option<&LiveSpanner> {
        match &self.served {
            Served::Live(live) => Some(live.as_ref()),
            Served::Frozen(_) => None,
        }
    }

    /// Cumulative update statistics, when this server serves a
    /// [`LiveSpanner`].
    pub fn update_stats(&self) -> Option<&UpdateStats> {
        self.live().map(LiveSpanner::stats)
    }

    /// Shortest-path trees currently cached (stale entries included until
    /// their lazy eviction).
    pub fn cached_trees(&self) -> usize {
        self.cache.len()
    }

    /// Aggregate serving statistics since construction (or the last
    /// [`SpannerServer::reset_stats`]).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Mean busy fraction of the participating workers across all batches
    /// (`1.0` = perfectly balanced; see [`EnginePool::utilization`]).
    pub fn worker_utilization(&self) -> f64 {
        self.pool.utilization()
    }

    /// Aggregate Dijkstra-engine counters across the worker pool.
    pub fn engine_stats(&self) -> EngineStats {
        self.pool.stats()
    }

    /// Resets the serving statistics (the cache and workspaces are kept).
    pub fn reset_stats(&mut self) {
        self.stats = ServeStats::default();
        self.pool.reset_stats();
    }

    /// Clones the current spanner state into a fresh, compacted,
    /// epoch-stamped [`SpannerHandle`] — the "rebuild from scratch" handle
    /// the live-update equivalence suite compares against. A frozen
    /// server's handle keeps its landmark table; a live server's has none.
    pub fn freeze_current(&self) -> SpannerHandle {
        match &self.served {
            Served::Frozen(handle) => {
                let mut h = (**handle).clone();
                h.spanner.compact();
                h.epoch = h.spanner.epoch();
                h
            }
            Served::Live(live) => {
                let mut spanner = live.spanner().clone();
                spanner.compact();
                SpannerHandle::new(spanner, live.provenance().clone())
            }
        }
    }

    /// Applies an update batch to the served [`LiveSpanner`]: deletions,
    /// then admission-filtered insertions or, when a spanner edge was
    /// deleted, a greedy rebuild (see [`crate::update`]). Cached
    /// shortest-path trees from earlier epochs are invalidated lazily by
    /// subsequent query batches.
    ///
    /// # Errors
    ///
    /// [`ServeError::UpdatesNotSupported`] on a frozen server;
    /// [`ServeError::Update`] when the batch itself is invalid (nothing is
    /// applied in either case).
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> Result<BatchOutcome, ServeError> {
        match &mut self.served {
            Served::Live(live) => Ok(live.apply(batch)?),
            Served::Frozen(_) => Err(ServeError::UpdatesNotSupported),
        }
    }

    /// Rebuilds a live server's landmark table when its epoch stamp no
    /// longer matches `epoch` (i.e. after update batches), by the frozen
    /// servers' farthest-point rule. No-op on frozen servers and when
    /// landmarks are disabled.
    fn refresh_live_landmarks(&mut self, epoch: u64) {
        if self.landmark_count == 0 {
            return;
        }
        let Served::Live(live) = &self.served else {
            return;
        };
        if self
            .live_landmarks
            .as_ref()
            .is_some_and(|lm| lm.epoch() == epoch)
        {
            return;
        }
        let table = Landmarks::farthest_point(live.spanner(), self.landmark_count);
        self.live_landmarks = Some(table);
    }

    /// Answers a batch of queries, returning one [`Answer`] per query in
    /// batch order. Queries fan out across the worker pool; answers are
    /// bit-identical at every thread count and cache state, and — for live
    /// servers — identical to a server rebuilt from scratch at the current
    /// epoch.
    ///
    /// This is the only serving path: no admission control, no queueing.
    ///
    /// **Migration note (0.7):** the separate unlimited direct-dispatch
    /// method is gone — this method is that direct path again.
    ///
    /// # Errors
    ///
    /// The whole batch is validated up front (including the epoch stamp;
    /// see [`ServeError`]). On error nothing was executed and no statistic
    /// changed.
    pub fn answer_batch(&mut self, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
        let epoch = self.served.verify()?;
        self.validate(queries)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let start = Instant::now();

        // Live servers refresh their landmark table on epoch bumps. A table
        // is consulted only while its stamp matches the serving epoch —
        // stale tables are as good as absent.
        self.refresh_live_landmarks(epoch);
        let landmarks = match &self.served {
            Served::Frozen(handle) => handle.landmarks(),
            Served::Live(_) => self.live_landmarks.as_ref(),
        }
        .filter(|lm| {
            lm.epoch() == epoch && lm.num_vertices() == self.served.spanner().num_vertices()
        });

        // Phase 1 — deterministic cache admission. Count per-source demand
        // and collect what the batch needs from each source's tree (targets
        // the landmarks rule out need nothing; see `add_tree_need`); sources
        // meeting the threshold (in first-appearance order, capped at
        // capacity) get the prefix tree that need asks for computed across
        // the pool and admitted stamped with the current epoch — unless
        // the need is empty or their current tree already covers it. A
        // replacement also needs the old tree's reach, so an entry only ever
        // grows. A stale entry does not block re-admission — replacing it is
        // the other face of lazy invalidation.
        if self.cache.capacity > 0 {
            let mut demand: HashMap<usize, (usize, TreeNeed)> = HashMap::new();
            let mut first_appearance: Vec<usize> = Vec::new();
            for query in queries {
                let s = query.source().index();
                let (count, need) = demand.entry(s).or_insert_with(|| {
                    first_appearance.push(s);
                    (0, TreeNeed::new())
                });
                *count += 1;
                add_tree_need(need, query, landmarks);
            }
            let admit: Vec<(usize, TreeNeed)> = first_appearance
                .into_iter()
                .filter_map(|s| {
                    let (count, mut need) = demand.remove(&s)?;
                    if count < CACHE_ADMIT_THRESHOLD || need.is_empty() {
                        return None;
                    }
                    if let CacheLookup::Hit(tree) = self.cache.lookup(VertexId(s), epoch) {
                        if tree.covers(&need) {
                            return None;
                        }
                        need.add_radius(tree.complete_through());
                    }
                    Some((s, need))
                })
                .take(self.cache.capacity)
                .collect();
            if !admit.is_empty() {
                let mut trees: Vec<Option<SptTree>> = vec![None; admit.len()];
                let spanner = self.served.spanner();
                self.pool
                    .try_map_batch(
                        spanner.snapshot(),
                        epoch,
                        &admit,
                        &mut trees,
                        |engine, graph, (source, need)| {
                            Some(engine.owned_shortest_path_tree(graph, VertexId(*source), need))
                        },
                    )
                    .map_err(|e| match e {
                        spanner_graph::GraphError::StaleEpoch { stamped, current } => {
                            ServeError::StaleEpoch { stamped, current }
                        }
                        other => unreachable!("try_map_batch only fails on staleness: {other}"),
                    })?;
                for tree in trees.into_iter().flatten() {
                    self.stats.cache_insertions += 1;
                    let (evicted, stale_replaced) = self.cache.insert(tree, epoch);
                    if evicted {
                        self.stats.cache_evictions += 1;
                    }
                    if stale_replaced {
                        self.stats.stale_evictions += 1;
                    }
                }
            }
        }

        // Phase 2 — answer the batch against the frozen spanner and the
        // frozen cache. Per-query latency, hit and staleness flags ride
        // along in the result slots; stale trees are never consulted.
        let mut slots: Vec<Option<(Answer, u64, bool, bool)>> = vec![None; queries.len()];
        {
            let cache = &self.cache;
            let spanner = self.served.spanner();
            let baseline = match &self.served {
                Served::Frozen(_) => self.baseline.as_ref(),
                Served::Live(live) => Some(live.original()),
            };
            self.pool.map_batch(
                spanner.snapshot(),
                queries,
                &mut slots,
                |engine, spanner, query| {
                    // Two clock reads per query buy the per-query latency
                    // histogram (p50/p99 including the O(1) cached
                    // lookups); at tens of ns per read this stays well
                    // under 1% of observed per-query cost.
                    let t0 = Instant::now();
                    let (cached, stale) = match cache.lookup(query.source(), epoch) {
                        CacheLookup::Hit(tree) => (Some(tree), false),
                        CacheLookup::Stale => (None, true),
                        CacheLookup::Miss => (None, false),
                    };
                    let (answer, hit) =
                        answer_one(engine, spanner, baseline, landmarks, cached, query);
                    Some((
                        answer,
                        t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                        hit,
                        stale,
                    ))
                },
            );
        }

        // Phase 3 — sequential bookkeeping in batch order (recency, lazy
        // stale eviction, stats).
        let mut answers = Vec::with_capacity(queries.len());
        for (slot, query) in slots.into_iter().zip(queries) {
            let (answer, nanos, hit, stale) = slot.expect("every query produces an answer");
            if hit {
                self.stats.cache_hits += 1;
                self.cache.touch(query.source());
            } else {
                self.stats.cache_misses += 1;
                if stale && self.cache.evict_stale(query.source(), epoch) {
                    // First post-update touch of a stale source: discard.
                    self.stats.stale_evictions += 1;
                }
            }
            self.stats.latency.record(Duration::from_nanos(nanos));
            answers.push(answer);
        }
        self.stats.queries += queries.len() as u64;
        self.stats.batches += 1;
        self.stats.epoch = epoch;
        self.stats.elapsed += start.elapsed();
        Ok(answers)
    }

    fn validate(&self, queries: &[Query]) -> Result<(), ServeError> {
        let n = self.served.spanner().num_vertices();
        let has_baseline = match &self.served {
            Served::Frozen(_) => self.baseline.is_some(),
            Served::Live(_) => true,
        };
        let check_vertex = |v: VertexId| -> Result<(), ServeError> {
            if v.index() >= n {
                Err(ServeError::VertexOutOfRange {
                    vertex: v.index(),
                    num_vertices: n,
                })
            } else {
                Ok(())
            }
        };
        for query in queries {
            match *query {
                Query::Distance {
                    source,
                    target,
                    bound,
                } => {
                    check_vertex(source)?;
                    check_vertex(target)?;
                    if bound.is_nan() || bound < 0.0 {
                        return Err(ServeError::InvalidBound { bound });
                    }
                }
                Query::Path { source, target } => {
                    check_vertex(source)?;
                    check_vertex(target)?;
                }
                Query::KNearest { source, .. } => check_vertex(source)?,
                Query::Ball { source, radius } => {
                    check_vertex(source)?;
                    if radius.is_nan() || radius < 0.0 {
                        return Err(ServeError::InvalidRadius { radius });
                    }
                }
                Query::StretchAudit { source, target } => {
                    check_vertex(source)?;
                    check_vertex(target)?;
                    if !has_baseline {
                        return Err(ServeError::MissingAuditBaseline);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Adds what a cached tree needs to answer `query` to its source's need —
/// only what a miss would have to search for. Path and audit targets add
/// nothing: their misses search goal-directed, and a tree grown until a
/// far target settles would cost the whole ball (see the module docs). A
/// distance target that the current `landmarks` rule out
/// ([`Landmarks::rules_out`]) adds nothing either: its miss settles no
/// vertex, while growing a tree to its bound costs the ball of that
/// radius. Answers do not depend on it — a covered query's tree answer
/// equals the miss's.
fn add_tree_need(need: &mut TreeNeed, query: &Query, landmarks: Option<&Landmarks>) {
    match *query {
        Query::Distance {
            source,
            target,
            bound,
        } => {
            if !landmarks.is_some_and(|lm| lm.rules_out(source, target, bound)) {
                need.add_target(target, bound);
            }
        }
        Query::KNearest { k, .. } => need.add_k_nearest(k),
        Query::Ball { radius, .. } => need.add_radius(radius),
        Query::Path { .. } | Query::StretchAudit { .. } => {}
    }
}

/// Answers one query on one worker, returning the answer and whether the
/// cached tree answered it. `cached` is the frozen current-epoch tree for
/// the query's source,
/// if the cache holds one; it answers only what its prefix covers, and
/// every such answer is bit-identical to the corresponding engine answer
/// (see the module docs) — anything else is a miss and searches.
/// `landmarks` (when present and current) makes every point-to-point miss
/// goal-directed without changing any answer.
fn answer_one(
    engine: &mut DijkstraEngine,
    spanner: &CsrGraph,
    baseline: Option<&CsrGraph>,
    landmarks: Option<&Landmarks>,
    cached: Option<&SptTree>,
    query: &Query,
) -> (Answer, bool) {
    match *query {
        Query::Distance {
            source,
            target,
            bound,
        } => {
            let covered = cached.and_then(|tree| tree.distance_within(target, bound));
            let d = match (covered, landmarks) {
                (Some(d), _) => d,
                (None, Some(lm)) => {
                    engine.bounded_distance_landmarked(spanner, lm, source, target, bound)
                }
                (None, None) => engine.bounded_distance(spanner, source, target, bound),
            };
            (Answer::Distance(d), covered.is_some())
        }
        Query::Path { source, target } => {
            let (path, hit) = match cached.and_then(|tree| tree.shortest_path(target)) {
                Some(path) => (path, true),
                None => (
                    engine.shortest_path_with(spanner, landmarks, source, target),
                    false,
                ),
            };
            let path = path.map(|(distance, vertices)| PathAnswer { distance, vertices });
            (Answer::Path(path), hit)
        }
        Query::KNearest { source, k } => {
            // Both paths yield the k nearest plus the ties at the k-th
            // distance, in (distance, vertex) order, bit for bit.
            let (nearest, hit) = match cached.and_then(|tree| tree.k_nearest_with_ties(k)) {
                Some(nearest) => (nearest, true),
                None => (engine.k_nearest_with_ties(spanner, source, k), false),
            };
            (
                Answer::KNearest(nearest[..k.min(nearest.len())].to_vec()),
                hit,
            )
        }
        Query::Ball { source, radius } => {
            let (members, hit) = match cached.and_then(|tree| tree.members_within(radius)) {
                Some(members) => (members, true),
                None => (engine.ball(spanner, source, radius), false),
            };
            (Answer::Ball(members.to_vec()), hit)
        }
        Query::StretchAudit { source, target } => {
            let covered = cached.and_then(|tree| tree.distance(target));
            let spanner_distance = match (covered, landmarks) {
                (Some(d), _) => d,
                (None, Some(lm)) => {
                    engine.bounded_distance_landmarked(spanner, lm, source, target, f64::INFINITY)
                }
                (None, None) => engine.bounded_distance(spanner, source, target, f64::INFINITY),
            };
            // The landmark table bounds *spanner* distances; the baseline is
            // a different graph, so its search is always one-sided.
            let baseline = baseline.expect("validated: audit queries need a baseline");
            let sample = spanner_distance.and_then(|spanner_distance| {
                let graph_distance =
                    engine.bounded_distance(baseline, source, target, f64::INFINITY)?;
                let stretch = if graph_distance > 0.0 {
                    spanner_distance / graph_distance
                } else {
                    1.0
                };
                Some(StretchSample {
                    spanner_distance,
                    graph_distance,
                    stretch,
                })
            });
            (Answer::StretchAudit(sample), covered.is_some())
        }
    }
}

/// What a [`ServeBuilder`] assembles a server from.
#[derive(Debug)]
enum ServeSource {
    Output(Box<SpannerOutput>),
    Handle(Box<SpannerHandle>),
    Live(Box<LiveSpanner>),
}

/// Assembles a [`SpannerServer`]; created by [`SpannerOutput::serve`]
/// (frozen), [`LiveSpanner::serve`] (live), or
/// [`SpannerServer::new`]/[`ServeBuilder::from_handle`] (explicit handle).
///
/// ```
/// use greedy_spanner::Spanner;
/// use spanner_graph::WeightedGraph;
///
/// let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])?;
/// let server = Spanner::greedy()
///     .stretch(2.0)
///     .build(&g)?
///     .serve()
///     .threads(8)
///     .cache_capacity(64)
///     .audit_against(&g)
///     .finish();
/// assert_eq!(server.threads(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServeBuilder {
    source: ServeSource,
    threads: usize,
    cache_capacity: usize,
    baseline: Option<WeightedGraph>,
    /// `None` = default ([`DEFAULT_LANDMARK_COUNT`] for fresh outputs and
    /// live servers, keep a handle's table).
    landmark_count: Option<usize>,
}

/// Default number of shortest-path trees the cache holds.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Queries a source needs within one batch before its tree is admitted to
/// the cache: a source asked once is answered by a search alone.
const CACHE_ADMIT_THRESHOLD: usize = 2;

/// Default number of landmarks a served spanner carries for goal-directed
/// point-to-point search. Each costs one shortest-path tree at freeze time
/// and `8 × num_vertices` bytes; answers never depend on the count, so it
/// is purely a speed/memory knob. The count also steers the cache: a
/// bounded-distance target the table rules out ([`Landmarks::rules_out`])
/// grows no cached tree, so more (or fewer) landmarks change which trees
/// are admitted, never an answer.
pub const DEFAULT_LANDMARK_COUNT: usize = 4;

impl ServeBuilder {
    fn with_source(source: ServeSource) -> Self {
        ServeBuilder {
            source,
            threads: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            baseline: None,
            landmark_count: None,
        }
    }

    /// Starts a builder over an explicit epoch-stamped handle.
    pub fn from_handle(handle: SpannerHandle) -> Self {
        ServeBuilder::with_source(ServeSource::Handle(Box::new(handle)))
    }

    /// Worker threads per batch; `0` (the default) resolves like
    /// construction threads do (`SPANNER_THREADS` env, else 1). Purely a
    /// throughput knob — answers are identical at every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// How many shortest-path trees the LRU cache holds; `0` disables
    /// caching entirely. A tree costs 28 bytes per member of its cached
    /// prefix and nothing per graph vertex — the prefix is usually far
    /// smaller than the graph (see [`SptTree::memory_bytes`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// How many landmarks the served spanner carries for goal-directed
    /// `Distance`, `Path` and `StretchAudit` misses
    /// ([`DEFAULT_LANDMARK_COUNT`] when unset; `0` means plain one-sided
    /// Dijkstra). Landmarks are picked by farthest-point traversal
    /// ([`Landmarks::farthest_point`]): at freeze time for frozen servers,
    /// on the first batch of every epoch for live ones. Answers never
    /// depend on the count.
    pub fn landmarks(mut self, count: usize) -> Self {
        self.landmark_count = Some(count);
        self
    }

    /// Supplies the original graph so [`Query::StretchAudit`] queries can
    /// compare spanner distances against it. The graph is frozen into its
    /// own CSR form; it should be the graph the spanner was built from.
    ///
    /// Only meaningful for frozen servers — a live server audits against
    /// its live original automatically, and [`ServeBuilder::finish`] panics
    /// if both are supplied.
    pub fn audit_against(mut self, graph: &WeightedGraph) -> Self {
        self.baseline = Some(graph.clone());
        self
    }

    /// Builds the server: the spanner is compacted into CSR form behind an
    /// epoch-stamped handle and a pre-sized engine pool is allocated, so
    /// every subsequent query is allocation-free (a live server's engines
    /// may re-grow once if updates outgrow the initial sizing).
    ///
    /// # Panics
    ///
    /// Panics when [`ServeBuilder::audit_against`] was combined with a live
    /// source (live servers audit against the live original).
    pub fn finish(self) -> SpannerServer {
        let threads = SpannerConfig {
            threads: self.threads,
            ..SpannerConfig::default()
        }
        .resolve_threads();
        let served = match self.source {
            ServeSource::Output(output) => {
                // Fresh outputs get a farthest-point landmark table by
                // default; it is answer-invariant.
                let handle = SpannerHandle::from_output(*output)
                    .with_landmarks(self.landmark_count.unwrap_or(DEFAULT_LANDMARK_COUNT));
                Served::Frozen(Box::new(handle))
            }
            ServeSource::Handle(handle) => {
                // Explicit handles keep whatever landmarks their holder
                // chose; the knob overrides when set.
                let mut handle = *handle;
                if let Some(count) = self.landmark_count {
                    handle = handle.with_landmarks(count);
                }
                Served::Frozen(Box::new(handle))
            }
            ServeSource::Live(live) => {
                assert!(
                    self.baseline.is_none(),
                    "live servers audit against the live original; drop audit_against"
                );
                Served::Live(live)
            }
        };
        let baseline = self.baseline.as_ref().map(CsrGraph::from);
        let n = served.spanner().num_vertices();
        // Audit queries also search the baseline (frozen) or the live
        // original, which can be much denser than the spanner — size the
        // engines for the largest of the three.
        let m = served
            .spanner()
            .num_edges()
            .max(baseline.as_ref().map_or(0, CsrGraph::num_edges))
            .max(match &served {
                Served::Live(live) => live.original().num_edges(),
                Served::Frozen(_) => 0,
            });
        let pool = EnginePool::with_capacity_for(threads, n, m);
        SpannerServer {
            served,
            baseline,
            pool,
            threads,
            cache: SptCache::new(self.cache_capacity),
            landmark_count: self.landmark_count.unwrap_or(DEFAULT_LANDMARK_COUNT),
            live_landmarks: None,
            stats: ServeStats::default(),
        }
    }
}

impl SpannerOutput {
    /// Turns this construction result into a serving pipeline:
    /// `Spanner::greedy().stretch(2.0).build(&g)?.serve().threads(8).finish()`.
    ///
    /// The output is consumed — the spanner is frozen into compacted CSR
    /// form behind an epoch-stamped handle on [`ServeBuilder::finish`] and
    /// served read-only from then on. For a server that takes live update
    /// batches, go through [`SpannerOutput::live`] +
    /// [`LiveSpanner::serve`] instead.
    pub fn serve(self) -> ServeBuilder {
        ServeBuilder::with_source(ServeSource::Output(Box::new(self)))
    }
}

impl LiveSpanner {
    /// Turns this live spanner into a serving pipeline whose server
    /// interleaves query batches ([`SpannerServer::answer_batch`]) with
    /// update batches ([`SpannerServer::apply_updates`]):
    /// `output.live(&g)?.serve().threads(8).finish()`.
    pub fn serve(self) -> ServeBuilder {
        ServeBuilder::with_source(ServeSource::Live(Box::new(self)))
    }
}

impl ShardedOutput {
    /// Turns this sharded build into a serving pipeline over the stitched
    /// spanner — exactly `self.output.serve()`:
    /// `ShardedSpanner::greedy().shards(4).build(&g)?.serve().finish()`.
    ///
    /// The server holds one copy of the stitched graph. Shards are a
    /// construction-time decomposition only; answers are those of a plain
    /// [`SpannerServer`] over the same output, bit for bit.
    ///
    /// ```
    /// use greedy_spanner::ShardedSpanner;
    /// use spanner_graph::WeightedGraph;
    ///
    /// let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])?;
    /// let sharded = ShardedSpanner::greedy().stretch(2.0).shards(2).build(&g)?;
    /// let server = sharded.serve().threads(4).finish();
    /// assert_eq!(server.num_vertices(), 3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// **Migration note (0.7):** the k-replica sharded server and its
    /// builder are gone, and this returns the plain [`ServeBuilder`] —
    /// drop the serve-shard-count setter; every other knob is unchanged.
    pub fn serve(self) -> ServeBuilder {
        self.output.serve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Spanner;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spanner_graph::generators::erdos_renyi_connected;

    fn diamond() -> WeightedGraph {
        WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 2.0)]).unwrap()
    }

    fn server_for(g: &WeightedGraph, cache: usize, threads: usize) -> SpannerServer {
        Spanner::greedy()
            .stretch(2.0)
            .build(g)
            .unwrap()
            .serve()
            .threads(threads)
            .cache_capacity(cache)
            .audit_against(g)
            .finish()
    }

    fn live_server_for(g: &WeightedGraph, cache: usize, threads: usize) -> SpannerServer {
        Spanner::greedy()
            .stretch(2.0)
            .build(g)
            .unwrap()
            .live(g)
            .unwrap()
            .serve()
            .threads(threads)
            .cache_capacity(cache)
            .finish()
    }

    #[test]
    fn basic_answers_match_expectations() {
        let g = diamond();
        let mut server = server_for(&g, 8, 1);
        let answers = server
            .answer_batch(&[
                Query::distance(VertexId(0), VertexId(3), 100.0),
                Query::distance(VertexId(0), VertexId(3), 3.9),
                Query::path(VertexId(0), VertexId(3)),
                Query::ball(VertexId(0), 2.0),
                Query::k_nearest(VertexId(0), 2),
                Query::stretch_audit(VertexId(0), VertexId(2)),
            ])
            .unwrap();
        assert_eq!(answers[0], Answer::Distance(Some(4.0)));
        assert_eq!(answers[1], Answer::Distance(None));
        let Answer::Path(Some(path)) = &answers[2] else {
            panic!("expected a path, got {:?}", answers[2]);
        };
        assert_eq!(path.distance, 4.0);
        assert_eq!(
            path.vertices,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
        assert_eq!(
            answers[3],
            Answer::Ball(vec![
                (VertexId(0), 0.0),
                (VertexId(1), 1.0),
                (VertexId(2), 2.0)
            ])
        );
        assert_eq!(
            answers[4],
            Answer::KNearest(vec![(VertexId(0), 0.0), (VertexId(1), 1.0)])
        );
        let Answer::StretchAudit(Some(sample)) = &answers[5] else {
            panic!("expected an audit sample, got {:?}", answers[5]);
        };
        // The greedy 2-spanner of the diamond drops the weight-5 edge, so
        // the pair (0, 2) detours 0→1→2.
        assert_eq!(sample.spanner_distance, 2.0);
        assert_eq!(sample.graph_distance, 2.0);
        assert_eq!(sample.stretch, 1.0);
        let stats = server.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.epoch, 0, "a frozen spanner stays at its epoch");
        assert!(stats.qps().unwrap() > 0.0);
        assert_eq!(stats.latency.total(), 6);
        assert!(stats.latency.p50().unwrap() <= stats.latency.p99().unwrap());
        assert!(stats.latency.max().unwrap() >= Duration::from_nanos(1));
    }

    #[test]
    fn qps_is_busy_window_and_ignores_idle_gaps() {
        // Constructed stats make the rate exact: 1000 queries over 100ms of
        // busy serving.
        let stats = ServeStats {
            queries: 1000,
            elapsed: Duration::from_millis(100),
            ..ServeStats::default()
        };
        assert_eq!(stats.qps(), Some(10_000.0), "busy-window rate");
        assert_eq!(ServeStats::default().qps(), None);

        // And on a real server: inject an idle gap between two batches. The
        // busy-window qps must not be diluted by the gap, so it ends up
        // strictly above the wall-clock rate.
        let g = diamond();
        let mut server = server_for(&g, 8, 1);
        let batch = [Query::distance(VertexId(0), VertexId(3), 100.0)];
        let wall = Instant::now();
        server.answer_batch(&batch).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        server.answer_batch(&batch).unwrap();
        let wall_qps = 2.0 / wall.elapsed().as_secs_f64();
        let stats = server.stats();
        assert!(
            stats.qps().unwrap() > wall_qps,
            "idle gap dilutes the wall-clock rate ({wall_qps}) but not qps ({:?})",
            stats.qps()
        );
    }

    #[test]
    fn validation_rejects_the_whole_batch_before_running_anything() {
        let g = diamond();
        let mut server = server_for(&g, 8, 1);
        for (queries, expected) in [
            (
                vec![Query::distance(VertexId(0), VertexId(9), 1.0)],
                ServeError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 4,
                },
            ),
            (
                vec![
                    Query::ball(VertexId(0), 1.0),
                    Query::distance(VertexId(0), VertexId(1), f64::NAN),
                ],
                ServeError::InvalidBound { bound: f64::NAN },
            ),
            (
                vec![Query::ball(VertexId(0), -1.0)],
                ServeError::InvalidRadius { radius: -1.0 },
            ),
        ] {
            let err = server.answer_batch(&queries).unwrap_err();
            // NaN payloads break PartialEq; compare the rendering instead.
            assert_eq!(format!("{err}"), format!("{expected}"));
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(server.stats().queries, 0, "failed batches execute nothing");

        let mut no_baseline = Spanner::greedy()
            .stretch(2.0)
            .build(&g)
            .unwrap()
            .serve()
            .finish();
        assert_eq!(
            no_baseline
                .answer_batch(&[Query::stretch_audit(VertexId(0), VertexId(1))])
                .unwrap_err(),
            ServeError::MissingAuditBaseline
        );
        assert!(server.answer_batch(&[]).unwrap().is_empty());
        assert_eq!(
            server.apply_updates(&UpdateBatch::new()).unwrap_err(),
            ServeError::UpdatesNotSupported
        );
    }

    #[test]
    fn cache_admission_hits_and_eviction_are_deterministic() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = erdos_renyi_connected(30, 0.3, 1.0..5.0, &mut rng);
        let mut server = server_for(&g, 2, 1);
        // One query per source: below the admit threshold, nothing caches.
        let cold: Vec<Query> = (0..4)
            .map(|s| Query::distance(VertexId(s), VertexId(29 - s), 100.0))
            .collect();
        server.answer_batch(&cold).unwrap();
        assert_eq!(server.cached_trees(), 0);
        assert_eq!(server.stats().cache_hits, 0);
        // Hot sources (two queries each in one batch) get admitted and every
        // query of the batch already hits the freshly admitted tree — the
        // path too, since the distance query's target is its target.
        let hot = vec![
            Query::distance(VertexId(0), VertexId(10), 100.0),
            Query::path(VertexId(0), VertexId(10)),
            Query::ball(VertexId(1), 2.0),
            Query::k_nearest(VertexId(1), 3),
        ];
        server.answer_batch(&hot).unwrap();
        assert_eq!(server.cached_trees(), 2);
        assert_eq!(server.stats().cache_insertions, 2);
        assert_eq!(server.stats().cache_hits, 4);
        // A third hot source evicts the least-recently-used of the two.
        server
            .answer_batch(&[
                Query::distance(VertexId(1), VertexId(5), 100.0), // refresh source 1
                Query::distance(VertexId(2), VertexId(6), 100.0),
                Query::distance(VertexId(2), VertexId(7), 100.0),
            ])
            .unwrap();
        assert_eq!(server.cached_trees(), 2);
        assert_eq!(server.stats().cache_evictions, 1);
        let cached = |server: &SpannerServer, v: usize| {
            matches!(server.cache.lookup(VertexId(v), 0), CacheLookup::Hit(_))
        };
        assert!(cached(&server, 1), "recently used survives");
        assert!(cached(&server, 2), "new hotspot admitted");
        assert!(!cached(&server, 0), "LRU entry evicted");
        assert!(server.stats().cache_hit_rate().unwrap() > 0.0);
        assert_eq!(server.stats().stale_evictions, 0);
    }

    #[test]
    fn cached_prefixes_answer_what_they_cover_and_grow_on_readmission() {
        // A unit path 0-1-…-9 is its own greedy spanner.
        let g = WeightedGraph::from_edges(10, (1..10).map(|v| (v - 1, v, 1.0))).unwrap();
        let output = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        let mut server = output.clone().serve().finish();
        let mut uncached = output.serve().cache_capacity(0).finish();
        let reach = |server: &SpannerServer| match server.cache.lookup(VertexId(0), 0) {
            CacheLookup::Hit(tree) => tree.complete_through(),
            _ => panic!("source 0 must be cached"),
        };
        let mut run = |server: &mut SpannerServer, batch: &[Query]| {
            let answers = server.answer_batch(batch).unwrap();
            assert_eq!(answers, uncached.answer_batch(batch).unwrap(), "{batch:?}");
            (server.stats().cache_hits, server.stats().cache_misses)
        };
        // Two narrow queries admit the prefix through distance 1.
        let narrow = [
            Query::k_nearest(VertexId(0), 1),
            Query::ball(VertexId(0), 1.0),
        ];
        assert_eq!(run(&mut server, &narrow), (2, 0));
        assert_eq!(reach(&server), 1.0);
        // A covered query is a hit.
        let covered = [Query::distance(VertexId(0), VertexId(1), 5.0)];
        assert_eq!(run(&mut server, &covered), (3, 0));
        // An uncovered query below the admission threshold is a miss with
        // the engine's answer, and leaves the entry as it was.
        let far = Query::distance(VertexId(0), VertexId(5), 100.0);
        assert_eq!(run(&mut server, &[far]), (3, 1));
        assert_eq!(reach(&server), 1.0);
        assert_eq!(server.stats().cache_insertions, 1);
        // At the threshold the source is re-admitted with a prefix that
        // reaches at least as far, and the whole batch hits: a path whose
        // target the prefix covers is answered from it.
        let wide = [far, Query::path(VertexId(0), VertexId(5))];
        assert_eq!(run(&mut server, &wide), (5, 1));
        assert_eq!(server.stats().cache_insertions, 2);
        assert_eq!(reach(&server), 5.0);
        assert_eq!(run(&mut server, &narrow), (7, 1));
        // Path targets never grow the prefix: past it they are misses, and
        // a batch of only paths leaves the entry as it was.
        let paths = [
            Query::path(VertexId(0), VertexId(8)),
            Query::path(VertexId(0), VertexId(3)),
        ];
        assert_eq!(run(&mut server, &paths), (8, 2));
        assert_eq!(server.stats().cache_insertions, 2);
        assert_eq!(reach(&server), 5.0);
    }

    #[test]
    fn ruled_out_distance_targets_grow_no_tree() {
        // A unit path 0-1-…-19 is its own greedy spanner, and a landmark
        // at an end of it bounds every pair exactly.
        let g = WeightedGraph::from_edges(20, (1..20).map(|v| (v - 1, v, 1.0))).unwrap();
        let output = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        let mut server = output.clone().serve().cache_capacity(8).finish();
        let mut uncached = output.serve().cache_capacity(0).finish();
        let Served::Frozen(handle) = &server.served else {
            unreachable!("a built output serves frozen")
        };
        let lm = handle.landmarks().unwrap().clone();
        // A hot source whose every target lies past its bound: the table
        // rules each one out, so the source needs no tree.
        let far: Vec<Query> = [(10, 3.0), (12, 3.0), (15, 2.0)]
            .into_iter()
            .map(|(t, bound)| {
                assert!(lm.rules_out(VertexId(0), VertexId(t), bound), "{t}");
                Query::distance(VertexId(0), VertexId(t), bound)
            })
            .collect();
        let answers = server.answer_batch(&far).unwrap();
        assert_eq!(answers, uncached.answer_batch(&far).unwrap());
        assert!(answers.iter().all(|a| a.distance().is_none()));
        assert_eq!(server.cached_trees(), 0);
        assert_eq!(server.stats().cache_insertions, 0);
        assert_eq!(server.stats().cache_misses, far.len() as u64);
        // One in-range target alongside admits exactly one tree, which
        // covers that target and stops there, at distance 2: of the
        // ruled-out targets only the one whose bound it reaches is a hit.
        let near = Query::distance(VertexId(0), VertexId(2), 3.0);
        assert!(!lm.rules_out(VertexId(0), VertexId(2), 3.0));
        let mut mixed = far.clone();
        mixed.push(near);
        let answers = server.answer_batch(&mixed).unwrap();
        assert_eq!(answers, uncached.answer_batch(&mixed).unwrap());
        assert_eq!(answers[3].distance(), Some(2.0));
        assert_eq!(server.cached_trees(), 1);
        assert_eq!(server.stats().cache_insertions, 1);
        assert_eq!(server.stats().cache_hits, 2);
        match server.cache.lookup(VertexId(0), server.epoch()) {
            CacheLookup::Hit(tree) => {
                assert_eq!(tree.distance(VertexId(2)), Some(Some(2.0)));
                assert_eq!(tree.complete_through(), 2.0);
            }
            _ => panic!("source 0 must be cached"),
        }
    }

    #[test]
    fn path_only_sources_are_not_admitted() {
        let mut rng = SmallRng::seed_from_u64(43);
        let g = erdos_renyi_connected(30, 0.3, 1.0..5.0, &mut rng);
        let mut server = server_for(&g, 8, 1);
        let mut uncached = server_for(&g, 0, 1);
        // Paths and audits need no tree: however hot, their source gets
        // no entry, and every answer is the engine's.
        let batch: Vec<Query> = (1..6)
            .flat_map(|t| {
                [
                    Query::path(VertexId(0), VertexId(t)),
                    Query::path(VertexId(0), VertexId(29 - t)),
                ]
            })
            .collect();
        let answers = server.answer_batch(&batch).unwrap();
        assert_eq!(answers, uncached.answer_batch(&batch).unwrap());
        assert_eq!(server.cached_trees(), 0);
        assert_eq!(server.stats().cache_insertions, 0);
        assert_eq!(server.stats().cache_misses, batch.len() as u64);
        // One in-range bounded-distance query alongside makes the need
        // non-empty.
        let mut mixed = batch.clone();
        mixed.push(Query::distance(VertexId(0), VertexId(7), 100.0));
        let answers = server.answer_batch(&mixed).unwrap();
        assert_eq!(answers, uncached.answer_batch(&mixed).unwrap());
        assert!(answers.last().unwrap().distance().is_some());
        assert_eq!(server.cached_trees(), 1);
        assert_eq!(server.stats().cache_insertions, 1);
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let g = diamond();
        let mut server = server_for(&g, 0, 1);
        let queries = vec![Query::distance(VertexId(0), VertexId(3), 100.0); 8];
        server.answer_batch(&queries).unwrap();
        server.answer_batch(&queries).unwrap();
        assert_eq!(server.cached_trees(), 0);
        assert_eq!(server.stats().cache_hits, 0);
        assert_eq!(server.stats().cache_misses, 16);
    }

    #[test]
    fn answers_are_identical_across_threads_and_cache_states() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = erdos_renyi_connected(40, 0.3, 1.0..8.0, &mut rng);
        let mut queries = Vec::new();
        for i in 0..60usize {
            let s = VertexId((i * 7) % 40);
            let t = VertexId((i * 13 + 3) % 40);
            queries.push(match i % 5 {
                0 => Query::distance(s, t, 4.0 + i as f64),
                1 => Query::path(s, t),
                2 => Query::k_nearest(s, i % 9),
                3 => Query::ball(s, (i % 6) as f64),
                _ => Query::stretch_audit(s, t),
            });
        }
        let mut reference_server = server_for(&g, 0, 1);
        let reference = reference_server.answer_batch(&queries).unwrap();
        for threads in [1, 2, 8] {
            for cache in [0, 4, 64] {
                let mut server = server_for(&g, cache, threads);
                // Two rounds: the second answers hot sources from the cache.
                let first = server.answer_batch(&queries).unwrap();
                let second = server.answer_batch(&queries).unwrap();
                assert_eq!(first, reference, "threads={threads} cache={cache}");
                assert_eq!(second, reference, "warm, threads={threads} cache={cache}");
                if cache > 0 {
                    assert!(server.stats().cache_hits > 0, "cache={cache} never hit");
                }
            }
        }
    }

    #[test]
    fn engine_pool_contract_holds_while_serving() {
        let mut rng = SmallRng::seed_from_u64(43);
        let g = erdos_renyi_connected(50, 0.25, 1.0..5.0, &mut rng);
        let mut server = server_for(&g, 16, 2);
        let queries: Vec<Query> = (0..64)
            .map(|i| Query::distance(VertexId(i % 50), VertexId((i * 3 + 1) % 50), 50.0))
            .collect();
        server.answer_batch(&queries).unwrap();
        let engine = server.engine_stats();
        // For audit-free batches (this one is all Distance queries) cache
        // hits answer without touching an engine, so the engine sees the
        // misses plus one SPT computation per admitted hot source. A
        // cache-hit StretchAudit would still issue its baseline engine
        // query, so the equality below does not hold with audits present.
        assert!(engine.queries > 0);
        assert_eq!(
            engine.queries,
            server.stats().cache_misses + server.stats().cache_insertions
        );
        assert_eq!(
            engine.reuse_hits, engine.queries,
            "pre-sized serving engines must never allocate"
        );
        let util = server.worker_utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9);
        assert_eq!(server.provenance().algorithm, "greedy");
        assert_eq!(server.num_vertices(), 50);
        assert!(server.num_edges() > 0);
        assert!(server.live().is_none());
        assert!(server.update_stats().is_none());
        server.reset_stats();
        assert_eq!(server.stats().queries, 0);
        assert_eq!(server.engine_stats().queries, 0);
    }

    #[test]
    fn stale_handles_are_refused_until_refreshed() {
        let g = diamond();
        let output = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        let mut handle = SpannerHandle::from_output(output);
        assert!(handle.is_current());
        assert_eq!(handle.provenance().algorithm, "greedy");
        // Out-of-band mutation: the stamp goes stale, serving refuses.
        handle
            .graph_mut()
            .append_edge(VertexId(0), VertexId(3), 0.25);
        assert!(!handle.is_current());
        let mut server = SpannerServer::new(handle);
        let err = server
            .answer_batch(&[Query::distance(VertexId(0), VertexId(3), 100.0)])
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::StaleEpoch {
                stamped: 0,
                current: 1
            }
        );
        assert_eq!(server.stats().queries, 0, "refused batches run nothing");
        // Rebuilding the handle with a fresh stamp serves the mutated graph.
        let mut handle = server.freeze_current();
        handle.refresh();
        let mut server = SpannerServer::new(handle);
        let answers = server
            .answer_batch(&[Query::distance(VertexId(0), VertexId(3), 100.0)])
            .unwrap();
        assert_eq!(answers[0], Answer::Distance(Some(0.25)));
    }

    #[test]
    fn live_server_interleaves_queries_and_updates_with_lazy_invalidation() {
        let g = diamond();
        let mut server = live_server_for(&g, 8, 1);
        // Warm the cache on source 0 (two queries meet the threshold).
        let warm = vec![
            Query::distance(VertexId(0), VertexId(3), 100.0),
            Query::path(VertexId(0), VertexId(3)),
        ];
        let before = server.answer_batch(&warm).unwrap();
        assert_eq!(before[0], Answer::Distance(Some(4.0)));
        assert_eq!(server.cached_trees(), 1);
        assert_eq!(server.stats().epoch, 0);
        // An update batch shortcuts 0 -> 3; the cached tree is now stale.
        let outcome = server
            .apply_updates(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))
            .unwrap();
        assert_eq!(outcome.admitted, 1);
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.cached_trees(), 1, "invalidation is lazy");
        // The next batch must answer against the new epoch — and discard or
        // replace the stale tree, counting it.
        let after = server.answer_batch(&warm).unwrap();
        assert_eq!(after[0], Answer::Distance(Some(0.5)));
        assert_eq!(server.stats().epoch, 1);
        assert!(server.stats().stale_evictions >= 1);
        // The replacement tree is current and serves hits again.
        let again = server.answer_batch(&warm).unwrap();
        assert_eq!(again, after);
        assert!(server.stats().cache_hits > 0);
        assert!(server.live().is_some());
        assert_eq!(server.update_stats().unwrap().batches, 1);
    }

    #[test]
    fn live_server_audits_against_the_live_original() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)]).unwrap();
        let mut server = live_server_for(&g, 0, 1);
        let audit = |server: &mut SpannerServer| {
            let a = server
                .answer_batch(&[Query::stretch_audit(VertexId(0), VertexId(2))])
                .unwrap();
            match &a[0] {
                Answer::StretchAudit(Some(s)) => *s,
                other => panic!("expected an audit sample, got {other:?}"),
            }
        };
        let before = audit(&mut server);
        assert_eq!(before.graph_distance, 1.5, "audited against the original");
        // Deleting the chord from the original changes the audit baseline.
        server
            .apply_updates(&UpdateBatch::new().delete(VertexId(0), VertexId(2)))
            .unwrap();
        let after = audit(&mut server);
        assert_eq!(after.graph_distance, 2.0, "the live original moved");
        assert_eq!(after.stretch, 1.0);
    }

    #[test]
    #[should_panic(expected = "live servers audit against the live original")]
    fn audit_against_on_a_live_builder_panics() {
        let g = diamond();
        let _ = Spanner::greedy()
            .stretch(2.0)
            .build(&g)
            .unwrap()
            .live(&g)
            .unwrap()
            .serve()
            .audit_against(&g)
            .finish();
    }

    #[test]
    fn latency_histogram_quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max(), None);
        for nanos in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(Duration::from_nanos(nanos));
        }
        assert_eq!(h.total(), 5);
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p99);
        assert!(p50 >= Duration::from_nanos(1_000));
        assert!(p99 >= Duration::from_nanos(100_000));
        // The maximum is exact, not bucket-rounded — and at least p99's
        // bucket floor.
        assert_eq!(h.max(), Some(Duration::from_nanos(100_000)));
        // A later outlier moves the max past the old p99.
        h.record(Duration::from_nanos(7_777_777));
        assert_eq!(h.max(), Some(Duration::from_nanos(7_777_777)));
    }

    #[test]
    fn histogram_buckets_tile_the_u64_range() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket_upper(LATENCY_BUCKETS - 1), u64::MAX);
        for bucket in 0..LATENCY_BUCKETS - 1 {
            let upper = latency_bucket_upper(bucket);
            assert_eq!(latency_bucket(upper), bucket);
            assert_eq!(latency_bucket(upper + 1), bucket + 1);
        }
    }

    #[test]
    fn histogram_quantiles_stay_within_a_sixteenth_of_exact() {
        // Log-uniform latencies from 1 ns to 10 s against the exact
        // quantiles of the sorted samples (same rank rule: the
        // ceil(q·N)-th smallest).
        let mut rng = SmallRng::seed_from_u64(2016);
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| 10f64.powf(rng.gen_range(0.0..10.0)).round() as u64)
            .collect();
        let mut h = LatencyHistogram::default();
        for &nanos in &samples {
            h.record(Duration::from_nanos(nanos));
        }
        samples.sort_unstable();
        for q in [
            0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0,
        ] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1] as f64;
            let got = h.quantile(q).unwrap().as_nanos() as f64;
            assert!(
                got >= exact && got - exact <= exact / 16.0,
                "q={q}: histogram {got} ns vs exact {exact} ns"
            );
        }
    }

    #[test]
    fn single_sample_histogram_returns_that_sample_for_every_quantile() {
        // A lone 1500ns sample lands in the [1472, 1535] bucket; the naive
        // bucket upper bound (1535) would overstate every quantile of a
        // distribution whose only member is known exactly.
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1_500));
        for q in [0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                Some(Duration::from_nanos(1_500)),
                "q={q}: a single-sample histogram must report that sample"
            );
        }
        assert_eq!(h.max(), h.p50());
        // More generally no quantile ever exceeds the observed maximum.
        h.record(Duration::from_nanos(300));
        assert!(h.p99().unwrap() <= h.max().unwrap());
    }

    #[test]
    fn engine_variants_serve_identical_answers() {
        let mut rng = SmallRng::seed_from_u64(77);
        let g = erdos_renyi_connected(40, 0.3, 1.0..8.0, &mut rng);
        let output = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        let queries: Vec<Query> = (0..80)
            .map(|i| {
                let s = VertexId((i * 7) % 40);
                let t = VertexId((i * 11 + 5) % 40);
                match i % 4 {
                    0 => Query::distance(s, t, 3.0 + (i % 6) as f64),
                    1 => Query::ball(s, (i % 5) as f64),
                    2 => Query::k_nearest(s, i % 9),
                    _ => Query::stretch_audit(s, t),
                }
            })
            .collect();
        // Reference: no landmarks.
        let mut reference_server = output
            .clone()
            .serve()
            .landmarks(0)
            .audit_against(&g)
            .finish();
        let reference = reference_server.answer_batch(&queries).unwrap();
        // Every landmark count must reproduce it bit for bit, cold and
        // warm.
        for landmarks in [0, 4, 16] {
            let mut server = output
                .clone()
                .serve()
                .landmarks(landmarks)
                .audit_against(&g)
                .finish();
            let cold = server.answer_batch(&queries).unwrap();
            let warm = server.answer_batch(&queries).unwrap();
            assert_eq!(cold, reference, "landmarks={landmarks}");
            assert_eq!(warm, reference, "warm, landmarks={landmarks}");
            let engine = server.engine_stats();
            assert_eq!(
                engine.reuse_hits, engine.queries,
                "landmarks={landmarks}: engine allocated"
            );
        }
    }

    #[test]
    fn untouched_server_rates_decline_instead_of_dividing_by_zero() {
        let g = diamond();
        let server = server_for(&g, 4, 1);
        assert_eq!(server.stats().qps(), None);
        assert_eq!(server.stats().cache_hit_rate(), None);
        assert_eq!(server.stats().latency.quantile(0.5), None);
    }

    /// A mixed batch whose sources spread across shards, with repeats for
    /// cache admission and cross-shard distance queries (bounded and not).
    fn sharded_query_mix(n: usize) -> Vec<Query> {
        (0..120)
            .map(|i| {
                let s = VertexId((i * 13) % n);
                let t = VertexId((i * 29 + 3) % n);
                match i % 5 {
                    0 => Query::distance(s, t, f64::INFINITY),
                    1 => Query::distance(s, t, 4.0 + (i % 7) as f64),
                    2 => Query::path(s, t),
                    3 => Query::ball(s, (i % 4) as f64 + 0.5),
                    _ => Query::k_nearest(s, i % 8),
                }
            })
            .collect()
    }

    #[test]
    fn sharded_server_matches_plain_server_over_same_output() {
        use crate::shard::ShardedSpanner;
        let mut rng = SmallRng::seed_from_u64(41);
        let g = erdos_renyi_connected(60, 0.15, 1.0..9.0, &mut rng);
        let sharded = ShardedSpanner::greedy()
            .stretch(2.0)
            .shards(3)
            .build(&g)
            .unwrap();
        let mut queries = sharded_query_mix(60);
        // Unbounded distance queries between boundary vertices of
        // different shards — the pairs the stitched skeleton connects.
        let skeleton = &sharded.skeleton;
        let boundary: Vec<VertexId> = (0..skeleton.num_vertices())
            .map(|b| skeleton.global_of(VertexId(b)))
            .collect();
        let shard_of = |v: VertexId| sharded.partition.assignment()[v.index()];
        for (a, &u) in boundary.iter().enumerate() {
            for &v in &boundary[a + 1..] {
                if shard_of(u) != shard_of(v) && queries.len() < 180 {
                    queries.push(Query::distance(u, v, f64::INFINITY));
                }
            }
        }
        assert!(queries.len() > 120, "partition produced no boundary pairs");
        // Reference: a plain server over the identical stitched output.
        let mut plain = sharded.output.clone().serve().finish();
        let reference_cold = plain.answer_batch(&queries).unwrap();
        let reference_warm = plain.answer_batch(&queries).unwrap();
        assert_eq!(reference_cold, reference_warm);
        let mut server = sharded.clone().serve().finish();
        assert_eq!(server.num_vertices(), plain.num_vertices());
        assert_eq!(server.num_edges(), plain.num_edges());
        assert_eq!(server.provenance(), plain.provenance());
        let cold = server.answer_batch(&queries).unwrap();
        let warm = server.answer_batch(&queries).unwrap();
        assert_eq!(cold, reference_cold, "cold");
        assert_eq!(warm, reference_cold, "warm");
        assert_eq!(server.stats().queries, plain.stats().queries);
        assert_eq!(server.cached_trees(), plain.cached_trees());
    }
}
