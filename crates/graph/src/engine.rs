//! A reusable, zero-allocation-per-query Dijkstra engine over [`CsrGraph`].
//!
//! The greedy spanner issues one bounded distance query per candidate edge
//! whose endpoints its spanner already connects — `O(m)` queries against
//! the growing spanner. The free functions in
//! [`crate::dijkstra`] allocate three `O(n)` vectors *per query*, so that hot
//! loop is allocation- and cache-bound. [`DijkstraEngine`] owns the workspace
//! instead:
//!
//! * `dist` / `parent` arrays are *generation-stamped*: a query bumps one
//!   counter instead of clearing `O(n)` state, so per-query cost is
//!   proportional to the explored ball, not to the graph;
//! * the priority queue is one lazy-deletion binary heap for every query
//!   shape, popping in exact `(distance, vertex)` order (so every tie-break
//!   is deterministic); its buffer is retained across queries and its
//!   pushes are bounded by the number of half-edge improvements
//!   (`≤ 2m + 1`), so an engine created with
//!   [`DijkstraEngine::with_capacity_for`] performs **zero heap allocation
//!   per query**, ever (an engine sized on the fly stops allocating once its
//!   buffers reach the workload's high-water mark);
//! * the engine counts queries, workspace-reuse hits (queries that ran
//!   without growing any buffer), heap pops and the peak frontier, which the
//!   spanner pipeline surfaces in its run statistics;
//! * point-to-point queries can run **goal-directed** over a [`Landmarks`]
//!   table ([`DijkstraEngine::bounded_distance_landmarked`],
//!   [`DijkstraEngine::shortest_path_with`]): an A* search keyed by
//!   distance plus the landmarks' triangle bound, which settles a narrow
//!   corridor toward the target instead of a ball around the source and
//!   still returns the one-sided search's distance bits and path (see
//!   [`DijkstraEngine::shortest_path_with`] for the argument);
//! * every parent-tracking search picks parents by one **canonical tie
//!   rule**: among the neighbours that achieve a vertex's distance (and
//!   settled before it), the one with the smallest `(distance, id)`.
//!
//! ```
//! use spanner_graph::csr::CsrGraph;
//! use spanner_graph::engine::DijkstraEngine;
//! use spanner_graph::{VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]).unwrap();
//! let csr = CsrGraph::from(&g);
//! let mut engine = DijkstraEngine::new();
//! assert_eq!(engine.bounded_distance(&csr, VertexId(0), VertexId(2), 2.0), Some(2.0));
//! assert_eq!(engine.bounded_distance(&csr, VertexId(0), VertexId(2), 1.5), None);
//! assert_eq!(engine.stats().queries, 2);
//! assert_eq!(engine.stats().reuse_hits, 1); // only the first query allocated
//! ```

use std::collections::{BTreeMap, BinaryHeap};

use crate::csr::CsrGraph;
use crate::graph::{EdgeId, VertexId};
use crate::landmarks::Landmarks;

const NO_VERTEX: u32 = u32::MAX;

/// Landmark columns the scratch buffer is pre-sized for by
/// [`DijkstraEngine::with_capacity_for`]; tables with more landmarks grow
/// the buffer once (one reuse miss) and stay.
const LANDMARK_SCRATCH_RESERVE: usize = 32;

/// A relative bound on the floating-point error of any shortest-path
/// distance computed over a path of at most `hops` edges: a computed
/// distance `D` and the exact real distance `δ` satisfy
/// `|D − δ| ≤ path_rounding_margin(hops) · δ`.
///
/// Argument. Every distance this crate computes — engine searches,
/// landmark tables, the legacy free functions — is a left-to-right sum
/// `((w₁ + w₂) + w₃) + …` along some simple path, taking the minimum over
/// paths. A recursive sum of `k ≤ hops` non-negative terms carries a
/// relative error of at most `γ_k = k·u / (1 − k·u)`, `u = 2⁻⁵³`
/// (Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2), and
/// rounding is monotone, so the minimum over paths inherits the bound from
/// both sides: `D ≤ fl(sum along the exact shortest path) ≤ (1 + γ)·δ` and
/// `D ≥ (1 − γ)·(exact sum of D's own path) ≥ (1 − γ)·δ`. The returned
/// `(hops + 1) · 2⁻⁵²` exceeds `γ_hops + u` (one further rounding of a
/// derived quantity) for every `hops < 2⁵¹`.
///
/// Callers size `hops` by the vertex count: a simple path has fewer edges
/// than the graph has vertices.
pub const fn path_rounding_margin(hops: usize) -> f64 {
    (hops as f64 + 1.0) * f64::EPSILON
}

/// How many [`path_rounding_margin`]s the rejection threshold of
/// [`DijkstraEngine::within_bound`] sits above the bound (`c` below).
const BIDIRECTIONAL_BAND_MARGINS: f64 = 4.0;

/// The rejection threshold `B' = bound·(1 + c·ρ)` of
/// [`DijkstraEngine::within_bound`] on an `n`-vertex graph, with
/// `ρ = path_rounding_margin(n − 1)` and `c = 4`.
///
/// `within_bound` must agree exactly with the one-sided search, which
/// accepts iff its computed distance `D ≤ bound`. `D` is the minimum over
/// `s`–`t` paths of the left-to-right sum from `s`; let `P` be a path
/// attaining it (simple, so `k ≤ n − 1` edges) and `γ = γ_{n−1}` the
/// recursive-summation bound of [`path_rounding_margin`].
///
/// * **Accept is exact.** A meeting path's certificate is its
///   left-to-right sum from `s`: the forward distance at the join (itself
///   such a sum), then the joining edge, then the backward chain's stored
///   weights in path order. `D` is the minimum of exactly such sums, so a
///   certificate `≤ bound` implies `D ≤ bound`.
/// * **Reject needs `B'`.** Suppose `D ≤ bound`. Every vertex `v` of `P`
///   has forward distance `D_f(v) ≤ (1 + γ)·ℓ(P[s..v])` and backward
///   distance `D_b(v) ≤ (1 + γ)·ℓ(P[v..t])` (each is a minimum over paths
///   that includes `P`'s own prefix or suffix), and `ℓ(P) ≤ D / (1 − γ)`,
///   so `D_f(v) + D_b(v) ≤ bound·(1 + γ)/(1 − γ)`. The search stops only
///   once the queue tops satisfy `fl(k_f + k_b) > B'`, hence the exact
///   `k_f + k_b > B'` (rounding is monotone and `B'` is a float). A half
///   prunes only sums above `B'`, and a vertex it has not settled has
///   distance at least its queue top (`∞` once the queue is empty), so if
///   `B' ≥ bound·(1 + γ)/(1 − γ)` no vertex of `P` can be unsettled on
///   both sides. Then some edge `(x, y)` of `P` joins a forward-settled
///   `x` to a backward-settled `y` (`s` and `t` seed the two halves), and
///   whichever of the two settled second scanned that edge and computed
///   the meeting estimate `fl(fl(D_f(x) + w) + D_b(y))` (or its mirror).
///   That estimate is at most `(1 + u)²·(1 + γ)/(1 − γ)·bound`,
///   `u = 2⁻⁵³`; with `B' ≥` that, it is `≤ B'`, so the search either
///   certifies the meeting path or records a band hit and falls back —
///   it never rejects. Contrapositive: a rejection without a band hit
///   implies `D > bound`. (A forward settle of `t` ends the search before
///   any of this with `D` itself: the forward half is the one-sided
///   search, pruned at `B' ≥ bound` instead of `bound`.)
/// * **Choice of `c`.** To first order the requirement is
///   `B' ≥ bound·(1 + 2γ + 2u)` with `γ ≈ (n − 1)·u`, i.e. about
///   `bound·(1 + ρ)` since `ρ = 2n·u`; computing `B'` costs two more
///   roundings. `c = 4` covers that four times over, which absorbs every
///   second-order term for `n < 2²⁵` and still keeps the band — the
///   relative window `(bound, B']` where a meeting path forces the
///   one-sided fallback — about `4n · 2⁻⁵²` wide, far narrower than the
///   spread of any real weight distribution.
///
/// Overflow needs no separate case: sums along `P` are bounded by
/// `D ≤ bound`, and a queue-top sum or estimate that overflows to `∞`
/// exceeds every finite `B'` in exact arithmetic too. A `B'` that overflows
/// to `∞` only disables pruning: the halves may then queue sums that
/// overflowed to `∞`, but a meeting path is accepted only against `bound`,
/// which [`search_bound`] keeps finite, so an overflowed path lands in the
/// band and the one-sided search decides.
///
/// **The goal-directed stop.** The goal-directed search
/// ([`DijkstraEngine::shortest_path_with`]) pops keys `fl(dist(v) + h(v))`,
/// `h` the landmark lower bound, and stops at the first pop above
/// `relaxed_bound(limit, n)`, `limit = min(bound, tentative distance of
/// the target)`.
///
/// Let `D` be the one-sided search's computed distances and `W` a simple
/// `s`–`t` walk whose left-to-right prefix sums are the `D` of its
/// vertices, so its total is `D(t)` — the one-sided search's path, or (for
/// the parent argument) the one-sided path to a neighbour `u` that achieves
/// a path vertex `v`'s distance, the edge `u–v`, and the path on from `v`.
/// (That walk is simple when none of its edges is rounding-absorbed: its
/// prefix sums then strictly increase. The parent argument needs no other
/// case — see [`DijkstraEngine::shortest_path_with`].) Claim: if
/// `D(t) ≤ bound`, every vertex `x` of `W` settles at `D(x)` before the
/// search stops.
///
/// * **Keys on `W` stay below the stop key.** The landmark bound is
///   certified, `h(x) ≤ δ(x, t) ≤ ℓ(W[x..t])` (see [`Landmarks`]), and
///   `D(x) ≤ (1 + γ)·ℓ(W[s..x])`, `ℓ(W) ≤ D(t)/(1 − γ)`, so the exact
///   `D(x) + h(x) ≤ D(t)·(1 + γ)/(1 − γ)` and the rounded key is at most
///   `(1 + u)·(1 + γ)/(1 − γ)·D(t)` — one rounding less than the meeting
///   estimate shown above to stay within `B'`. Every tentative distance
///   is the left-to-right sum of some walk and `D` is the minimum of those,
///   so the target's tentative distance is at least `D(t)`; rounding is
///   monotone, so the stop key is never below `relaxed_bound(D(t), n)`.
/// * **Induction along `W`.** Take the first vertex `x` of `W` that never
///   settles at `D(x)`. Its predecessor `y` did and relaxed the edge to
///   `fl(D(y) + w) = D(x)`, queueing `x` at a key `≤` the stop key (the
///   `> bound` prune never fires: prefix sums are `≤ D(t) ≤ bound`). No
///   tentative distance drops below `D(x)`, so that entry stays live until
///   popped, and the search pops every key at or below the stop key before
///   it stops: `x` settles at `D(x)`, a contradiction.
/// * **Re-opening.** The rounded bound is consistent only up to rounding,
///   so a vertex can settle at a tentative distance above `D(x)` before a
///   shorter walk reaches it. The search then queues it again
///   ([`EngineStats::reopened`]); the induction needs only that it
///   eventually settles at `D(x)`.
///
/// So the target settles at `D(t)`, bit for bit. Overflow needs no separate
/// case: a stop key that overflows to `∞` only disables stopping early.
pub(crate) fn relaxed_bound(bound: f64, n: usize) -> f64 {
    let rho = path_rounding_margin(n.saturating_sub(1));
    bound + (BIDIRECTIONAL_BAND_MARGINS * rho) * bound
}

/// The bound every search prunes at: `bound` itself, except that `+∞`
/// becomes `f64::MAX`. A sum that overflows to `+∞` then always exceeds it,
/// so no search relaxes a vertex to `+∞` and no overflowed path counts as
/// covered — as in the reference Dijkstra of [`crate::dijkstra`], whose
/// `nd < dist[v]` test is false for `nd = dist[v] = ∞`. Without the clamp
/// an infinite bound (`t·w` overflowing) accepts `∞ ≤ ∞`. Finite, negative
/// and NaN bounds pass through unchanged.
pub(crate) fn search_bound(bound: f64) -> f64 {
    if bound > f64::MAX {
        f64::MAX
    } else {
        bound
    }
}

/// Aggregate counters of a [`DijkstraEngine`]; see [`DijkstraEngine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered since construction (or the last
    /// [`DijkstraEngine::reset_stats`]).
    pub queries: u64,
    /// Queries that ran entirely inside the existing workspace — no buffer
    /// grew, hence zero heap allocation. Always equal to `queries` for an
    /// engine created with [`DijkstraEngine::with_capacity_for`]; an engine
    /// sized on the fly reports the (few) growth queries as misses.
    pub reuse_hits: u64,
    /// Total heap pops across all queries, including stale lazy-deletion
    /// entries (the same accounting as the legacy free functions).
    pub heap_pops: u64,
    /// Vertices settled (popped fresh and expanded) across all queries —
    /// always at most `heap_pops`. This is the work metric landmark (ALT)
    /// pruning shrinks: fewer settled vertices means a smaller explored
    /// ball for the same answer.
    pub settled_vertices: u64,
    /// Relaxations (and whole queries, when the source itself is pruned)
    /// discarded because the tentative distance — plus the landmark lower
    /// bound, when a [`Landmarks`] table is in play — exceeded the query
    /// bound. The visible counterpart of the bounded search's pruning
    /// power.
    pub pruned_by_bound: u64,
    /// Largest priority-queue length reached by any query (stale entries
    /// included — this is the memory high-water mark of the searches). A
    /// [`DijkstraEngine::within_bound`] query has two queues; its frontier
    /// is their combined length.
    pub peak_frontier: usize,
    /// Times the generation counter wrapped and the stamp workspace was
    /// explicitly reset (see [`DijkstraEngine::force_generation_wrap`]). The
    /// counter advances by 2 per query, so a wrap occurs roughly every 2³¹
    /// queries — routine for a long-running server, and harmless: the reset
    /// invalidates every stamp in `O(n)` and reuse stays sound.
    pub generation_wraps: u64,
    /// [`DijkstraEngine::within_bound`] queries whose bidirectional search
    /// ended in the rounding band (a meeting path within the relaxed bound
    /// but none certified within the bound itself) and were settled by the
    /// one-sided search instead. The fallback runs inside the same query:
    /// it adds to the search counters but not to `queries`.
    pub bidirectional_fallbacks: u64,
    /// Vertices the goal-directed search re-opened: settled, then reached
    /// at a smaller distance and queued to settle again. The landmark bound
    /// is consistent in exact arithmetic, so only rounding (of the table,
    /// of the bound's safety margin, of the keys) causes one.
    pub reopened: u64,
    /// Goal-directed path searches that relaxed a rounding-absorbed edge
    /// (`fl(d + w) = d`) and were answered by the one-sided search inside
    /// the same query: there the settle order, not the distances alone,
    /// decides a parent (see [`DijkstraEngine::shortest_path_with`]). The
    /// fallback adds to the search counters but not to `queries`.
    pub path_fallbacks: u64,
    /// Always zero; see [`KernelStats`].
    pub kernel: KernelStats,
}

impl EngineStats {
    /// Folds `other` into `self`: counters add, the peak frontier takes the
    /// maximum (the always-zero kernel block stays zero).
    /// Used by pool and serving layers aggregating per-worker engines.
    pub fn merge(&mut self, other: &EngineStats) {
        self.queries += other.queries;
        self.reuse_hits += other.reuse_hits;
        self.heap_pops += other.heap_pops;
        self.settled_vertices += other.settled_vertices;
        self.pruned_by_bound += other.pruned_by_bound;
        self.peak_frontier = self.peak_frontier.max(other.peak_frontier);
        self.generation_wraps += other.generation_wraps;
        self.bidirectional_fallbacks += other.bidirectional_fallbacks;
        self.reopened += other.reopened;
        self.path_fallbacks += other.path_fallbacks;
    }
}

/// Three counters that are always zero. They named the work of a batched
/// relaxation kernel the engine no longer has; one search loop relaxes
/// every row now. They stay only because the pipeline benchmark
/// (`perfbench/`) still reads them through [`EngineStats::kernel`] and
/// `RunStats::kernel`, and leave with the benchmark's next change
/// (ROADMAP item 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Always 0.
    pub rows_batched: u64,
    /// Always 0.
    pub edges_gathered: u64,
    /// Always 0.
    pub candidates_committed: u64,
}

/// One priority-queue entry: the key is stored alongside the vertex so
/// comparisons stay inside the heap array instead of chasing `dist`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapSlot {
    dist: f64,
    vertex: u32,
}

impl Eq for HeapSlot {}

impl Ord for HeapSlot {
    /// Reversed, so the max-heap pops the smallest key first, ties by the
    /// smaller vertex id (matching the legacy free functions, so settle
    /// order is identical).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a shortest-path-tree prefix must answer: the questions a batch
/// asks about one source, reduced to the three requirements that decide
/// how far its search has to run (see
/// [`DijkstraEngine::owned_shortest_path_tree`] and
/// [`SptTree::covers`]):
///
/// * **targets** — a `Distance(t, bound)` question needs `t` settled or
///   every vertex within `bound` settled; an unbounded-distance question
///   uses `bound = ∞`;
/// * **k nearest** — at least `k` settled vertices (the largest `k` asked);
/// * **radius** — every vertex within the radius settled (the largest
///   radius asked).
///
/// [`TreeNeed::new`] needs nothing; [`TreeNeed::everything`] needs the
/// whole tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNeed {
    /// Target → the largest bound asked about it.
    targets: BTreeMap<VertexId, f64>,
    k: usize,
    /// `-∞` when no radius was asked for.
    radius: f64,
}

impl Default for TreeNeed {
    fn default() -> Self {
        TreeNeed {
            targets: BTreeMap::new(),
            k: 0,
            radius: f64::NEG_INFINITY,
        }
    }
}

impl TreeNeed {
    /// A need with no requirement: its tree is empty.
    pub fn new() -> Self {
        TreeNeed::default()
    }

    /// The need whose tree is the whole shortest-path tree.
    pub fn everything() -> Self {
        TreeNeed {
            radius: f64::INFINITY,
            ..TreeNeed::default()
        }
    }

    /// Requires the distance from the source to `target` whenever it is at
    /// most `bound` (`f64::INFINITY` for a path or an unbounded distance).
    pub fn add_target(&mut self, target: VertexId, bound: f64) {
        let slot = self.targets.entry(target).or_insert(bound);
        *slot = slot.max(bound);
    }

    /// Whether the need asks for nothing: its tree would be empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty() && self.k == 0 && self.radius == f64::NEG_INFINITY
    }

    /// Requires the `k` nearest vertices, with their distance ties.
    pub fn add_k_nearest(&mut self, k: usize) {
        self.k = self.k.max(k);
    }

    /// Requires every vertex within `radius`.
    pub fn add_radius(&mut self, radius: f64) {
        self.radius = self.radius.max(radius);
    }
}

/// The stop rule of a need-driven search, one instance per query (see
/// [`DijkstraEngine::search`]). The need's targets live in the engine's
/// `need_mark` / `need_bounds` buffers.
#[derive(Debug, Clone, Copy)]
struct StopRule {
    /// Requirements not yet met: pending targets, the `k`-th settle and
    /// the radius. Settles are counted against the rule only while it is
    /// non-zero; from then on `stop_key` alone decides.
    pending: usize,
    /// The stop key the search starts with: `-∞` when the need is empty
    /// (the first pop ends the search), `+∞` otherwise.
    stop_key: f64,
    settled: usize,
    k: usize,
    /// The radius still to reach, or `None` once reached (or not asked).
    radius: Option<f64>,
    /// The first entry of `need_bounds` whose bound no settle has reached.
    next_bound: usize,
}

impl StopRule {
    /// A rule that never stops the search.
    const NEVER: StopRule = StopRule {
        pending: 0,
        stop_key: f64::INFINITY,
        settled: 0,
        k: 0,
        radius: None,
        next_bound: 0,
    };
}

/// Restores `(distance, vertex)` order on a settle-order member list, in
/// place and without allocating.
///
/// Popped keys never decrease (`fl(d + w) ≥ d` for `w > 0`), so settle
/// order is sorted by distance. It is *not* always sorted by vertex within
/// a distance: an edge too light to change a sum (`fl(d + w) = d`, e.g.
/// `1e17 + 1`) queues a vertex at the key just popped, after higher-id
/// vertices at that key have already settled. The check is `O(n)`; only
/// such a rounding tie pays for the sort.
fn sort_settle_order(members: &mut [(VertexId, f64)]) {
    let order =
        |a: &(VertexId, f64), b: &(VertexId, f64)| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0));
    if !members.is_sorted_by(|a, b| order(a, b).is_le()) {
        members.sort_unstable_by(order);
    }
}

/// Pops the heap's entries for vertices `state` already marks settled in
/// generation `gen` (lazy-deletion leftovers) until the top is live;
/// returns how many it popped. A live top is fresh: an unsettled vertex's
/// smallest queued key is its current distance.
#[inline(always)]
fn drop_settled_tops(heap: &mut BinaryHeap<HeapSlot>, state: &[u32], gen: u32) -> u64 {
    let mut popped = 0;
    while heap
        .peek()
        .is_some_and(|top| state[top.vertex as usize] == gen + 1)
    {
        heap.pop();
        popped += 1;
    }
    popped
}

/// One goal-directed query's fixed inputs and running state (see
/// [`DijkstraEngine::shortest_path_with`]).
struct Goal<'a> {
    landmarks: &'a Landmarks,
    /// Distances from every landmark to the target.
    column: &'a [f64],
    /// Relative safety margin of the landmark bound
    /// ([`Landmarks::certified_bound`]).
    margin: f64,
    target: u32,
    /// The query bound ([`search_bound`]-clamped).
    bound: f64,
    /// Vertex count, for [`relaxed_bound`].
    n: usize,
    /// [`relaxed_bound`] of the smaller of the bound and the target's
    /// tentative distance.
    stop: f64,
    /// Whether a parent-tracking search relaxed an edge with
    /// `fl(d + w) = d`.
    absorbed: bool,
}

/// A reusable Dijkstra workspace over [`CsrGraph`]s.
///
/// One engine serves any number of graphs (buffers are sized to the largest
/// vertex count seen). All query methods take `&mut self` because they reuse
/// the workspace; results referencing the workspace ([`EngineTree`],
/// [`DijkstraEngine::ball`]) borrow the engine until the next query.
#[derive(Debug, Clone, Default)]
pub struct DijkstraEngine {
    dist: Vec<f64>,
    parent: Vec<u32>,
    /// Per-vertex query state, generation-encoded (generations advance by 2):
    /// `state[v] < generation` — untouched this query; `== generation` —
    /// touched (in the heap); `== generation + 1` — settled. One load answers
    /// both the "already settled?" and "already touched?" questions.
    state: Vec<u32>,
    /// Per-vertex target mark of a need-driven tree search: `== generation`
    /// while the vertex is a target the search still waits for, so a settle
    /// checks it in `O(1)`.
    need_mark: Vec<u32>,
    /// The tree search's targets as `(bound, vertex)`, sorted by bound: a
    /// settle at distance `d` resolves the prefix with bound `≤ d`.
    /// Reserved for `n` entries (targets are distinct vertices).
    need_bounds: Vec<(f64, u32)>,
    /// Lazy-deletion heap: improvements push a fresh entry, superseded
    /// entries are skipped at pop time via `state`. The buffer is retained
    /// across queries.
    heap: BinaryHeap<HeapSlot>,
    /// Per-query landmark target column (see [`Landmarks`]); retained
    /// across queries like every other buffer.
    h_scratch: Vec<f64>,
    /// Settle order of the last collecting query, re-sorted into
    /// `(distance, vertex)` order by the entry points that return it (see
    /// [`DijkstraEngine::ball`]).
    ball_buf: Vec<(VertexId, f64)>,
    /// Backward half of [`DijkstraEngine::within_bound`]: distances from
    /// the target, generation-encoded state (same encoding as `state`), and
    /// per vertex the chain step toward the target — the settled vertex
    /// that last improved it and the weight of that edge — which the
    /// meeting certificate sums along. Retained across queries, and sized
    /// only by the first admission query (see
    /// [`DijkstraEngine::size_bidirectional`]), so engines that never run
    /// one never touch them.
    dist_b: Vec<f64>,
    state_b: Vec<u32>,
    chain_vertex: Vec<u32>,
    chain_weight: Vec<f64>,
    /// Witness recording of [`DijkstraEngine::within_bound_witness`]: per
    /// vertex, the slot of the half-edge that last improved its forward
    /// distance, and the slot of its backward chain step. Sized only by the
    /// first witness query.
    parent_slot: Vec<u32>,
    chain_slot: Vec<u32>,
    /// The vertices whose rows the last witness query scanned, in scan
    /// order (a vertex settled by both halves appears twice). Reserved for
    /// the `2n` scans a query can make.
    read_rows: Vec<u32>,
    /// Where the last accepted witness query's meeting path joined its two
    /// halves: the forward end `x`, the slot of the joining half-edge
    /// ([`NO_VERTEX`] when the forward half reached the target itself) and
    /// the backward end `y`.
    meet: Option<(u32, u32, u32)>,
    /// The backward half's lazy-deletion heap.
    heap_b: BinaryHeap<HeapSlot>,
    generation: u32,
    stats: EngineStats,
    last_frontier: usize,
}

impl DijkstraEngine {
    /// Creates an engine with an empty workspace; queries size it on demand
    /// (the growth queries are reported as reuse misses).
    pub fn new() -> Self {
        DijkstraEngine::default()
    }

    /// Creates an engine pre-sized for graphs of `num_vertices` vertices
    /// when the edge count is not known, assuming a sparse, spanner-like
    /// graph with `m ≈ n` — it routes through
    /// [`DijkstraEngine::with_capacity_for`] with `num_edges =
    /// num_vertices`, reserving the `2m + 2` heap-push bound for that `m`.
    ///
    /// The earlier heuristic reserved for `m = n/2`, which underestimates
    /// every connected graph (even a spanning tree has `m = n − 1`), so the
    /// first query on tree-like graphs could reallocate mid-search. Queries
    /// on graphs with more than `num_vertices` edges may still grow the
    /// heap once; callers that know `m` should use
    /// [`DijkstraEngine::with_capacity_for`] directly for the hard
    /// zero-allocation guarantee.
    pub fn with_capacity(num_vertices: usize) -> Self {
        DijkstraEngine::with_capacity_for(num_vertices, num_vertices)
    }

    /// Creates an engine pre-sized for graphs of up to `num_vertices`
    /// vertices and `num_edges` edges: the heap buffer is reserved for
    /// `2·num_edges + 2` entries, an upper bound on the pushes of any single
    /// query (each settled vertex relaxes each incident half-edge at most
    /// once). Such an engine performs **zero heap allocations on every
    /// query** — including the first — which is the contract the greedy
    /// construction asserts through its workspace-reuse counter.
    ///
    /// The arrays of the bidirectional admission query and of its witness
    /// recording are reserved here but written only by the first such query,
    /// so an engine that never runs one (a serving or landmark engine)
    /// touches 20 bytes per vertex, not the 52 of an admission engine (plus
    /// up to 8 for the rows a witness query records reading).
    pub fn with_capacity_for(num_vertices: usize, num_edges: usize) -> Self {
        let mut e = DijkstraEngine::new();
        e.grow(num_vertices);
        let n = num_vertices;
        e.dist_b.reserve_exact(n);
        e.state_b.reserve_exact(n);
        e.chain_vertex.reserve_exact(n);
        e.chain_weight.reserve_exact(n);
        e.parent_slot.reserve_exact(n);
        e.chain_slot.reserve_exact(n);
        e.read_rows.reserve_exact(2 * n);
        e.reserve_heap(2 * num_edges + 2);
        // Each half of a bidirectional query pushes at most as often as a
        // one-sided query does.
        if e.heap_b.capacity() < 2 * num_edges + 2 {
            e.heap_b.reserve(2 * num_edges + 2);
        }
        if e.h_scratch.capacity() < LANDMARK_SCRATCH_RESERVE {
            e.h_scratch.reserve_exact(LANDMARK_SCRATCH_RESERVE);
        }
        e
    }

    /// Ensures the heap buffer can hold `entries` entries without
    /// reallocating.
    pub fn reserve_heap(&mut self, entries: usize) {
        if self.heap.capacity() < entries {
            self.heap.reserve(entries - self.heap.len());
        }
    }

    /// The engine's aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Resets the aggregate counters (the workspace is kept).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    fn grow(&mut self, n: usize) {
        self.dist.resize(n, f64::INFINITY);
        self.parent.resize(n, NO_VERTEX);
        self.state.resize(n, 0);
        self.need_mark.resize(n, 0);
        if self.ball_buf.capacity() < n {
            // `reserve_exact` takes *additional* elements beyond the current
            // length, so subtract the length, not the capacity.
            self.ball_buf.reserve_exact(n - self.ball_buf.len());
        }
        if self.need_bounds.capacity() < n {
            self.need_bounds.reserve_exact(n - self.need_bounds.len());
        }
    }

    /// Sizes the bidirectional arrays (and, with `witness`, the witness
    /// slots) for an `n`-vertex graph on an admission query's first use.
    /// Returns `true` if that allocated, i.e. outgrew the reservation of
    /// [`DijkstraEngine::with_capacity_for`]. New stamps read as untouched.
    fn size_bidirectional(&mut self, n: usize, witness: bool) -> bool {
        fn size<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) -> bool {
            let allocated = v.capacity() < n;
            v.resize(n, fill);
            allocated
        }
        let mut allocated = false;
        if self.dist_b.len() < n {
            allocated |= size(&mut self.dist_b, n, f64::INFINITY);
            allocated |= size(&mut self.state_b, n, 0);
            allocated |= size(&mut self.chain_vertex, n, NO_VERTEX);
            allocated |= size(&mut self.chain_weight, n, 0.0);
        }
        if witness && self.parent_slot.len() < n {
            allocated |= size(&mut self.parent_slot, n, NO_VERTEX);
            allocated |= size(&mut self.chain_slot, n, NO_VERTEX);
            if self.read_rows.capacity() < 2 * n {
                self.read_rows.reserve_exact(2 * n - self.read_rows.len());
                allocated = true;
            }
        }
        allocated
    }

    /// Generation values at or above this threshold trigger a stamp reset on
    /// the next query. Generations advance by 2, so the last generation a
    /// query may use before the reset is `WRAP_THRESHOLD + 1 = u32::MAX - 2`
    /// (its settled stamp), leaving `u32::MAX` itself unused.
    const WRAP_THRESHOLD: u32 = u32::MAX - 3;

    /// Explicit wrap-time workspace reset: invalidates every generation
    /// stamp (`O(n)`) and restarts the counter at zero, so the stamps of all
    /// previous queries read as "untouched". Called automatically by
    /// [`DijkstraEngine::begin_query`] when the counter approaches
    /// `u32::MAX`; a server answering billions of queries crosses that
    /// boundary routinely, and reuse must stay sound across it
    /// ([`EngineStats::generation_wraps`] counts the crossings).
    fn reset_generation_stamps(&mut self) {
        self.state.iter_mut().for_each(|s| *s = 0);
        self.need_mark.iter_mut().for_each(|s| *s = 0);
        self.state_b.iter_mut().for_each(|s| *s = 0);
        self.generation = 0;
        self.stats.generation_wraps += 1;
    }

    /// Forces the next query to run the generation-wrap reset path, as if
    /// ~2³¹ queries had already been answered. The workspace stays valid —
    /// this only fast-forwards the stamp counter.
    ///
    /// Exposed so long-running-process tests can exercise the wrap without
    /// issuing billions of queries; harmless (but pointless) in production.
    #[doc(hidden)]
    pub fn force_generation_wrap(&mut self) {
        self.generation = Self::WRAP_THRESHOLD;
    }

    /// Returns `true` if the query had to grow the vertex-indexed buffers.
    fn begin_query(&mut self, n: usize) -> bool {
        self.stats.queries += 1;
        let grew = n > self.dist.len();
        if grew {
            self.grow(n);
        }
        self.advance_generation();
        self.ball_buf.clear();
        self.last_frontier = 0;
        grew
    }

    /// Starts a fresh search generation: every stamp of earlier searches
    /// reads as untouched, and the forward heap is empty.
    fn advance_generation(&mut self) {
        // Generations advance by 2: `generation` marks touched, `generation
        // + 1` marks settled (see the `state` field).
        if self.generation >= Self::WRAP_THRESHOLD {
            self.reset_generation_stamps();
        }
        self.generation += 2;
        self.heap.clear();
    }

    /// The canonical parent rule's tie-break: whether `u`, settled at `d`,
    /// should replace `v`'s current parent when both give `v` the same
    /// distance — true iff `(d, u)` is the smaller pair. The source has no
    /// parent to replace.
    #[inline(always)]
    fn better_parent(&self, d: f64, u: u32, v: usize) -> bool {
        let p = self.parent[v];
        if p == NO_VERTEX {
            return false;
        }
        let dp = self.dist[p as usize];
        d < dp || (d == dp && u < p)
    }

    /// Relaxes the half-edge `u → v` with weight `w`, given `u`'s settled
    /// distance `d`. The single `state` load decides settled / untouched /
    /// in-queue; improvements push a fresh queue entry (lazy deletion).
    /// `TRACK_PARENTS` is off for bounded-distance and ball queries (nothing
    /// reads parents there), which removes a random store per improvement
    /// from the greedy hot loop. With it on, an equal distance applies the
    /// canonical tie rule ([`DijkstraEngine::better_parent`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn relax<const TRACK_PARENTS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        u: u32,
        v: usize,
        w: f64,
        d: f64,
        gen: u32,
        bound: f64,
    ) {
        let s = self.state[v];
        if s == gen + 1 {
            return; // settled
        }
        let nd = d + w;
        // Entries beyond the bound can never contribute to a bounded answer.
        if nd > bound {
            self.stats.pruned_by_bound += 1;
            return;
        }
        if s < gen || nd < self.dist[v] {
            self.state[v] = gen;
            self.dist[v] = nd;
            if TRACK_PARENTS {
                self.parent[v] = u;
            }
            queue.push(HeapSlot {
                dist: nd,
                vertex: v as u32,
            });
            self.last_frontier = self.last_frontier.max(queue.len());
        } else if TRACK_PARENTS && nd == self.dist[v] && self.better_parent(d, u, v) {
            self.parent[v] = u;
        }
    }

    /// Relaxes every half-edge of the settled vertex `u`: its row, two
    /// parallel slices holding exactly the live half-edges.
    #[inline(always)]
    fn relax_row<const TRACK_PARENTS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        graph: &CsrGraph,
        u: u32,
        d: f64,
        gen: u32,
        bound: f64,
    ) {
        let (targets, weights) = graph.packed_neighbors(VertexId(u as usize));
        for (&v, &w) in targets.iter().zip(weights) {
            self.relax::<TRACK_PARENTS>(queue, u, v as usize, w, d, gen, bound);
        }
    }

    /// Records one settle at distance `d` against the stop rule and returns
    /// whether it met the rule's last requirement. Amortized `O(1)`: one
    /// mark check for the settled vertex, and each target's bound entry is
    /// passed once.
    #[inline]
    fn settle_against(&mut self, rule: &mut StopRule, u: u32, d: f64, gen: u32) -> bool {
        rule.settled += 1;
        if rule.settled == rule.k {
            rule.pending -= 1;
        }
        if rule.radius.is_some_and(|r| d >= r) {
            rule.radius = None;
            rule.pending -= 1;
        }
        if self.need_mark[u as usize] == gen {
            self.need_mark[u as usize] = 0;
            rule.pending -= 1;
        }
        while let Some(&(b, t)) = self.need_bounds.get(rule.next_bound) {
            if b > d || b.is_nan() {
                break;
            }
            rule.next_bound += 1;
            if self.need_mark[t as usize] == gen {
                self.need_mark[t as usize] = 0;
                rule.pending -= 1;
            }
        }
        rule.pending == 0
    }

    /// The search loop. Settles vertices in non-decreasing distance
    /// order (heap ties by vertex id; see [`sort_settle_order`] for the
    /// rounding ties it misses); never pushes a vertex whose tentative
    /// distance exceeds `bound`; stops early once `target` settles. When
    /// `collect` is set, the settle order is recorded in `ball_buf`.
    ///
    /// `rule` stops the search once its need is met: after the settle at
    /// distance `D` that meets the last requirement (a target settled or
    /// its bound reached, the `k`-th settle, the radius reached), the
    /// search keeps going through the ties at `D` and stops at the first
    /// pop whose key exceeds `D`. Popped keys never decrease, so every
    /// vertex at distance `≤ D` has settled by then, and settled distances
    /// and parents never change — the settled set is a prefix of the full
    /// search's settle order, bit for bit. The pop that stops the search is
    /// counted in `heap_pops`, before its staleness is checked.
    ///
    /// Returns the distance through which the settled set is complete for
    /// a target-free search: `D` when the rule stopped it, `+∞` when the
    /// queue ran dry (with an infinite `bound`, everything reachable).
    #[allow(clippy::too_many_arguments)]
    fn search<const TRACK_PARENTS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        graph: &CsrGraph,
        source: usize,
        target: Option<u32>,
        bound: f64,
        collect: bool,
        mut rule: StopRule,
    ) -> f64 {
        let gen = self.generation;
        self.dist[source] = 0.0;
        if TRACK_PARENTS {
            self.parent[source] = NO_VERTEX;
        }
        self.state[source] = gen;
        queue.push(HeapSlot {
            dist: 0.0,
            vertex: source as u32,
        });
        self.last_frontier = self.last_frontier.max(queue.len());
        let mut stop_key = rule.stop_key;
        while let Some(HeapSlot {
            dist: d, vertex: u, ..
        }) = queue.pop()
        {
            self.stats.heap_pops += 1;
            if d > stop_key {
                return stop_key; // past the ties at the need's distance
            }
            if self.state[u as usize] == gen + 1 {
                continue; // stale lazy-deletion entry
            }
            self.state[u as usize] = gen + 1;
            self.stats.settled_vertices += 1;
            if collect {
                self.ball_buf.push((VertexId(u as usize), d));
            }
            if rule.pending != 0 && self.settle_against(&mut rule, u, d, gen) {
                stop_key = d;
            }
            if Some(u) == target {
                break;
            }
            self.relax_row::<TRACK_PARENTS>(queue, graph, u, d, gen, bound);
        }
        f64::INFINITY
    }

    /// Turns a need into the stop rule of the query that just began:
    /// stamps its targets in `need_mark` and sorts their bounds into
    /// `need_bounds`. No need, or an infinite radius, never stops.
    fn stop_rule(&mut self, need: Option<&TreeNeed>) -> StopRule {
        let Some(need) = need.filter(|need| need.radius < f64::INFINITY) else {
            return StopRule::NEVER;
        };
        let gen = self.generation;
        self.need_bounds.clear();
        for (&t, &bound) in &need.targets {
            self.need_mark[t.index()] = gen;
            self.need_bounds.push((bound, t.index() as u32));
        }
        self.need_bounds
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let radius = (need.radius > f64::NEG_INFINITY).then_some(need.radius);
        let pending = need.targets.len() + usize::from(need.k > 0) + usize::from(radius.is_some());
        StopRule {
            pending,
            stop_key: if pending == 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
            settled: 0,
            k: need.k,
            radius,
            next_bound: 0,
        }
    }

    /// Query entry point: validates, advances the generation, resolves the
    /// need's stop rule, runs the monomorphized search, and keeps the
    /// workspace-reuse accounting (a query is a reuse hit only if **no**
    /// buffer — the vertex arrays or the heap — grew). Returns the search's
    /// complete-through distance (see [`DijkstraEngine::search`]).
    fn run_query<const TRACK_PARENTS: bool>(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: Option<VertexId>,
        bound: f64,
        collect: bool,
        need: Option<&TreeNeed>,
    ) -> f64 {
        let n = graph.num_vertices();
        assert!(source.index() < n, "source vertex out of range");
        if let Some(t) = target {
            assert!(t.index() < n, "target vertex out of range");
        }
        if let Some(need) = need {
            assert!(
                need.targets.keys().all(|t| t.index() < n),
                "need target out of range"
            );
        }
        let target = target.map(|t| t.index() as u32);
        let bound = search_bound(bound);
        let grew = self.begin_query(n);
        let rule = self.stop_rule(need);
        let mut heap = std::mem::take(&mut self.heap);
        let heap_cap = heap.capacity();
        let complete_through = self.search::<TRACK_PARENTS>(
            &mut heap,
            graph,
            source.index(),
            target,
            bound,
            collect,
            rule,
        );
        let reused = heap.capacity() == heap_cap;
        self.heap = heap;
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.last_frontier);
        if !grew && reused {
            self.stats.reuse_hits += 1;
        }
        complete_through
    }

    /// Relaxes the half-edge `u → v` of weight `w` in the goal-directed
    /// search, `u` settled at `d`. An improvement — also into a settled
    /// vertex, which re-opens it ([`EngineStats::reopened`]) — is queued at
    /// key `nd + h(v)` unless that key passes the stop key (or `h` proves
    /// `v` cut off from the target); an equal distance applies the
    /// canonical tie rule, settled or not. Improving the target lowers the
    /// stop key.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn relax_goal_directed<const TRACK_PARENTS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        goal: &mut Goal<'_>,
        u: u32,
        v: usize,
        w: f64,
        d: f64,
        gen: u32,
    ) {
        let nd = d + w;
        if TRACK_PARENTS && nd == d {
            goal.absorbed = true;
        }
        if nd > goal.bound {
            self.stats.pruned_by_bound += 1;
            return;
        }
        let s = self.state[v];
        if s >= gen && nd >= self.dist[v] {
            if TRACK_PARENTS && nd == self.dist[v] && self.better_parent(d, u, v) {
                self.parent[v] = u;
            }
            return;
        }
        let h = goal.landmarks.certified_bound(v, goal.column, goal.margin);
        let key = nd + h;
        if h == f64::INFINITY || key > goal.stop {
            self.stats.pruned_by_bound += 1;
            return;
        }
        if s == gen + 1 {
            self.stats.reopened += 1;
        }
        self.state[v] = gen;
        self.dist[v] = nd;
        if TRACK_PARENTS {
            self.parent[v] = u;
        }
        queue.push(HeapSlot {
            dist: key,
            vertex: v as u32,
        });
        self.last_frontier = self.last_frontier.max(queue.len());
        if v as u32 == goal.target {
            goal.stop = goal.stop.min(relaxed_bound(nd, goal.n));
        }
    }

    /// The goal-directed (A*) search loop from `source` toward
    /// `goal.target`: pops the smallest key `dist + h`, settles its vertex
    /// at its current distance, and stops at the first pop above the stop
    /// key (see [`relaxed_bound`]). The target's own row is never relaxed: no
    /// path to the target runs through it.
    fn search_goal_directed<const TRACK_PARENTS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        graph: &CsrGraph,
        source: usize,
        goal: &mut Goal<'_>,
    ) {
        let gen = self.generation;
        let Some(h) = goal.landmarks.source_bound(source, goal.column, goal.bound) else {
            // The table rules the query out (`Landmarks::rules_out`).
            self.stats.pruned_by_bound += 1;
            return;
        };
        self.dist[source] = 0.0;
        if TRACK_PARENTS {
            self.parent[source] = NO_VERTEX;
        }
        self.state[source] = gen;
        queue.push(HeapSlot {
            dist: h,
            vertex: source as u32,
        });
        self.last_frontier = self.last_frontier.max(queue.len());
        while let Some(HeapSlot {
            dist: key,
            vertex: u,
            ..
        }) = queue.pop()
        {
            self.stats.heap_pops += 1;
            if key > goal.stop {
                break;
            }
            if self.state[u as usize] == gen + 1 {
                continue; // stale lazy-deletion entry
            }
            self.state[u as usize] = gen + 1;
            self.stats.settled_vertices += 1;
            if u == goal.target {
                continue;
            }
            let d = self.dist[u as usize];
            let (targets, weights) = graph.packed_neighbors(VertexId(u as usize));
            for (&v, &w) in targets.iter().zip(weights) {
                self.relax_goal_directed::<TRACK_PARENTS>(queue, goal, u, v as usize, w, d, gen);
            }
        }
    }

    /// Entry point of the goal-directed queries: validates the table and
    /// the vertices, copies the target's landmark column into the scratch
    /// buffer (a growth counts as a reuse miss), runs the search, and — for
    /// a parent-tracking search that relaxed a rounding-absorbed edge —
    /// answers with the one-sided search inside the same query.
    fn run_goal_directed<const TRACK_PARENTS: bool>(
        &mut self,
        graph: &CsrGraph,
        landmarks: &Landmarks,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) {
        assert_eq!(
            landmarks.num_vertices(),
            graph.num_vertices(),
            "landmark table was built over a different vertex count"
        );
        assert_eq!(
            landmarks.epoch(),
            graph.epoch(),
            "landmark table is stale; rebuild it after graph mutations"
        );
        let n = graph.num_vertices();
        assert!(source.index() < n, "source vertex out of range");
        assert!(target.index() < n, "target vertex out of range");
        let bound = search_bound(bound);
        let mut column = std::mem::take(&mut self.h_scratch);
        let mut grew = column.capacity() < landmarks.len();
        landmarks.copy_target_column(target.index(), &mut column);
        grew |= self.begin_query(n);
        let mut heap = std::mem::take(&mut self.heap);
        let heap_cap = heap.capacity();
        let mut goal = Goal {
            landmarks,
            column: &column,
            margin: landmarks.margin(),
            target: target.index() as u32,
            bound,
            n,
            stop: relaxed_bound(bound, n),
            absorbed: false,
        };
        self.search_goal_directed::<TRACK_PARENTS>(&mut heap, graph, source.index(), &mut goal);
        if goal.absorbed {
            self.stats.path_fallbacks += 1;
            self.advance_generation();
            heap.clear();
            self.search::<true>(
                &mut heap,
                graph,
                source.index(),
                Some(target.index() as u32),
                bound,
                false,
                StopRule::NEVER,
            );
        }
        let reused = heap.capacity() == heap_cap;
        self.heap = heap;
        self.h_scratch = column;
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.last_frontier);
        if !grew && reused {
            self.stats.reuse_hits += 1;
        }
    }

    /// Distance between `source` and `target` if it is at most `bound`,
    /// otherwise `None` — the greedy spanner's per-candidate query, with
    /// search cost proportional to the ball of radius `bound`.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn bounded_distance(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) -> Option<f64> {
        self.bounded_distance_with_frontier(graph, source, target, bound)
            .0
    }

    /// Like [`DijkstraEngine::bounded_distance`], additionally reporting the
    /// peak priority-queue length of this query.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn bounded_distance_with_frontier(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) -> (Option<f64>, usize) {
        self.run_query::<false>(graph, source, Some(target), bound, false, None);
        (self.extract_target(target, bound), self.last_frontier)
    }

    /// Like [`DijkstraEngine::bounded_distance`], answered by the
    /// goal-directed search over a [`Landmarks`] table (see
    /// [`DijkstraEngine::shortest_path_with`]): the result is bit-identical
    /// to [`DijkstraEngine::bounded_distance`] for every landmark set,
    /// including bounds equal to the distance; only the settled corridor
    /// differs. A pair some landmark proves disconnected settles nothing.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range, if the table's vertex count
    /// differs from the graph's, or if the table's epoch stamp does not
    /// match the graph (stale landmark tables must be rebuilt, never
    /// consulted).
    pub fn bounded_distance_landmarked(
        &mut self,
        graph: &CsrGraph,
        landmarks: &Landmarks,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) -> Option<f64> {
        self.run_goal_directed::<false>(graph, landmarks, source, target, bound);
        self.extract_target(target, bound)
    }

    /// Whether `bounded_distance(graph, source, target, bound).is_some()` —
    /// the greedy admission question "is `δ(source, target) ≤ bound`?" —
    /// answered by a decision-only bidirectional search (Pohl, 1971) whose
    /// two balls of radius about `bound / 2` are much smaller than the
    /// one-sided ball of radius `bound` on expander-like graphs.
    ///
    /// The answer is **identical** to the one-sided search, ties and
    /// rounding included (the error argument is on the private
    /// `relaxed_bound`, next to [`path_rounding_margin`]):
    ///
    /// * **accept** the moment a meeting path's left-to-right sum from
    ///   `source` — the forward distance at the join, plus the joining
    ///   edge, plus the backward chain's stored weights in order — is
    ///   `≤ bound`;
    /// * **reject** once the two queue tops sum past the relaxed bound
    ///   `B' = bound·(1 + 4ρ)`, `ρ = path_rounding_margin(n − 1)`, with no
    ///   meeting estimate `≤ B'` seen (or once the forward half settles
    ///   `target` above `bound`, which is the one-sided answer itself);
    /// * otherwise — a meeting path inside the rounding band
    ///   `(bound, B']` — **fall back** to the one-sided search inside the
    ///   same query, counted in [`EngineStats::bidirectional_fallbacks`].
    ///
    /// Both halves scan the same rows as the one-sided search and count
    /// into the same search counters; `peak_frontier` is the combined
    /// length of the two queues. An engine from
    /// [`DijkstraEngine::with_capacity_for`] answers without allocating.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn within_bound(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) -> bool {
        self.decide::<false>(graph, source, target, bound)
    }

    /// [`DijkstraEngine::within_bound`], also recording the certificate
    /// behind the verdict: the same verdict, bit for bit, from the same
    /// search, which additionally writes the slot of every forward
    /// improvement and backward chain step and the vertex of every scanned
    /// row (a separate monomorphization, so `within_bound` itself stores
    /// nothing extra).
    ///
    /// When the bidirectional search certifies a meeting path, `witness`
    /// receives its edge ids in order from `source` to `target`: a walk in
    /// `graph` whose left-to-right weight sum from `source` is exactly the
    /// certificate, `≤ bound`. Any other answer leaves `witness` empty — a
    /// rejection, `source == target`, and an accept that fell back to the
    /// one-sided search (which records no path).
    ///
    /// When the bidirectional search rejects without falling back, `reads`
    /// receives the vertices whose rows it scanned, in scan order (a vertex
    /// both halves settled appears twice). The search reads nothing else of
    /// `graph` but its vertex count, so on any graph with the same vertex
    /// count and identical rows (same neighbours, weights and order) at
    /// those vertices it takes the same steps and rejects too. Any other
    /// answer leaves `reads` empty — an accept, and a rejection that fell
    /// back to the one-sided search.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn within_bound_witness(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
        bound: f64,
        witness: &mut Vec<EdgeId>,
        reads: &mut Vec<VertexId>,
    ) -> bool {
        witness.clear();
        reads.clear();
        self.meet = None;
        self.read_rows.clear();
        let within = self.decide::<true>(graph, source, target, bound);
        if let Some((x, join, y)) = self.meet.filter(|_| within) {
            self.write_witness(graph, source.index() as u32, x, join, y, witness);
        }
        if !within {
            reads.extend(self.read_rows.iter().map(|&v| VertexId(v as usize)));
        }
        within
    }

    /// The admission query behind [`DijkstraEngine::within_bound`] and
    /// [`DijkstraEngine::within_bound_witness`].
    fn decide<const WITNESS: bool>(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
        bound: f64,
    ) -> bool {
        let n = graph.num_vertices();
        assert!(source.index() < n, "source vertex out of range");
        assert!(target.index() < n, "target vertex out of range");
        let bound = search_bound(bound);
        let grew = self.begin_query(n) | self.size_bidirectional(n, WITNESS);
        let mut fwd = std::mem::take(&mut self.heap);
        let mut bwd = std::mem::take(&mut self.heap_b);
        bwd.clear();
        let caps = (fwd.capacity(), bwd.capacity());
        let (s, t) = (source.index() as u32, target.index() as u32);
        let verdict = if s == t || bound.is_nan() || bound < 0.0 {
            // The one-sided search settles the source at 0 and prunes every
            // sum above a negative (or NaN) bound.
            Some(s == t && 0.0 <= bound)
        } else {
            self.bidirectional::<WITNESS>(&mut fwd, &mut bwd, graph, s, t, bound)
        };
        let within = verdict.unwrap_or_else(|| {
            self.stats.bidirectional_fallbacks += 1;
            if WITNESS {
                // The one-sided search decides: the halves' rows certify
                // nothing.
                self.read_rows.clear();
            }
            self.advance_generation();
            fwd.clear();
            self.search::<false>(
                &mut fwd,
                graph,
                s as usize,
                Some(t),
                bound,
                false,
                StopRule::NEVER,
            );
            self.extract_target(target, bound).is_some()
        });
        let reused = (fwd.capacity(), bwd.capacity()) == caps;
        self.heap = fwd;
        self.heap_b = bwd;
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.last_frontier);
        if !grew && reused {
            self.stats.reuse_hits += 1;
        }
        within
    }

    /// The bidirectional decision search of
    /// [`DijkstraEngine::within_bound`] for `s ≠ t` and `bound ≥ 0`:
    /// `Some(verdict)` when decided, `None` when a meeting path fell in the
    /// rounding band and only the one-sided search can decide. The side
    /// with the shorter queue expands next (Pohl's cardinality rule), ties
    /// to the smaller queue top, then to the forward side. With `WITNESS`,
    /// an accept leaves its meeting point in `meet`, and every row scanned
    /// is pushed onto `read_rows` first.
    fn bidirectional<const WITNESS: bool>(
        &mut self,
        fwd: &mut BinaryHeap<HeapSlot>,
        bwd: &mut BinaryHeap<HeapSlot>,
        graph: &CsrGraph,
        s: u32,
        t: u32,
        bound: f64,
    ) -> Option<bool> {
        let relaxed = relaxed_bound(bound, graph.num_vertices());
        let gen = self.generation;
        self.dist[s as usize] = 0.0;
        self.state[s as usize] = gen;
        fwd.push(HeapSlot {
            dist: 0.0,
            vertex: s,
        });
        self.dist_b[t as usize] = 0.0;
        self.state_b[t as usize] = gen;
        self.chain_vertex[t as usize] = NO_VERTEX;
        bwd.push(HeapSlot {
            dist: 0.0,
            vertex: t,
        });
        self.last_frontier = 2;
        let mut band = false;
        loop {
            self.stats.heap_pops += drop_settled_tops(fwd, &self.state, gen);
            self.stats.heap_pops += drop_settled_tops(bwd, &self.state_b, gen);
            let (Some(f), Some(b)) = (fwd.peek(), bwd.peek()) else {
                break;
            };
            if f.dist + b.dist > relaxed {
                break;
            }
            let backward = (bwd.len(), b.dist) < (fwd.len(), f.dist);
            let (queue, other_len) = if backward {
                (&mut *bwd, fwd.len())
            } else {
                (&mut *fwd, bwd.len())
            };
            let HeapSlot {
                dist: d, vertex: u, ..
            } = queue.pop().expect("peeked above");
            self.stats.heap_pops += 1;
            self.stats.settled_vertices += 1;
            let accepted = if backward {
                self.state_b[u as usize] = gen + 1;
                if WITNESS {
                    self.read_rows.push(u);
                }
                self.meet_row::<true, WITNESS>(
                    queue, other_len, graph, u, d, gen, bound, relaxed, &mut band,
                )
            } else {
                self.state[u as usize] = gen + 1;
                if u == t {
                    // The forward half is the one-sided search pruned at
                    // `B' ≥ bound`: its distance at the target is `D`.
                    if WITNESS {
                        self.meet = Some((t, NO_VERTEX, t));
                    }
                    return Some(d <= bound);
                }
                if WITNESS {
                    self.read_rows.push(u);
                }
                self.meet_row::<false, WITNESS>(
                    queue, other_len, graph, u, d, gen, bound, relaxed, &mut band,
                )
            };
            if accepted {
                return Some(true);
            }
        }
        (!band).then_some(false)
    }

    /// Scans the row of `u`, just settled by one half at distance `d`, as
    /// [`DijkstraEngine::relax_row`] does, through
    /// [`DijkstraEngine::meet_or_relax`]. Returns whether a meeting path was
    /// certified within `bound`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn meet_row<const BACKWARD: bool, const WITNESS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        other_len: usize,
        graph: &CsrGraph,
        u: u32,
        d: f64,
        gen: u32,
        bound: f64,
        relaxed: f64,
        band: &mut bool,
    ) -> bool {
        let (start, targets, weights) = graph.packed_row(VertexId(u as usize));
        for (i, (&v, &w)) in targets.iter().zip(weights).enumerate() {
            if self.meet_or_relax::<BACKWARD, WITNESS>(
                queue,
                other_len,
                u,
                v as usize,
                w,
                (start + i) as u32,
                d,
                gen,
                bound,
                relaxed,
                band,
            ) {
                return true;
            }
        }
        false
    }

    /// One bidirectional relaxation of the half-edge `u → v` of weight `w`
    /// at `slot`, `u` settled by the forward (or, with `BACKWARD`, the
    /// backward) half at distance `d`. Sums above the relaxed bound are
    /// pruned. If the other half has reached `v`, the meeting estimate is
    /// checked against the relaxed bound and, within it, the meeting path's
    /// exact certificate against `bound` (returning `true` on success; a
    /// failed certificate marks the band). Then `v` is relaxed as in
    /// [`DijkstraEngine::relax`]; the backward half also records `v`'s
    /// chain step. With `WITNESS`, an improvement also records its slot and
    /// an accept its meeting point.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn meet_or_relax<const BACKWARD: bool, const WITNESS: bool>(
        &mut self,
        queue: &mut BinaryHeap<HeapSlot>,
        other_len: usize,
        u: u32,
        v: usize,
        w: f64,
        slot: u32,
        d: f64,
        gen: u32,
        bound: f64,
        relaxed: f64,
        band: &mut bool,
    ) -> bool {
        let nd = d + w;
        if nd > relaxed {
            self.stats.pruned_by_bound += 1;
            return false;
        }
        let (other_state, other_dist) = if BACKWARD {
            (&self.state, &self.dist)
        } else {
            (&self.state_b, &self.dist_b)
        };
        if other_state[v] >= gen && nd + other_dist[v] <= relaxed {
            // The meeting path `s ⇝ x — y ⇝ t`: forward distance at `x`,
            // the edge, then `y`'s chain to the target.
            let (head, x, y) = if BACKWARD {
                (self.dist[v] + w, v as u32, u)
            } else {
                (nd, u, v as u32)
            };
            if self.chain_sum(head, y) <= bound {
                if WITNESS {
                    self.meet = Some((x, slot, y));
                }
                return true;
            }
            *band = true;
        }
        let (state, dist) = if BACKWARD {
            (&mut self.state_b, &mut self.dist_b)
        } else {
            (&mut self.state, &mut self.dist)
        };
        let s = state[v];
        if s == gen + 1 {
            return false;
        }
        if s < gen || nd < dist[v] {
            state[v] = gen;
            dist[v] = nd;
            if BACKWARD {
                self.chain_vertex[v] = u;
                self.chain_weight[v] = w;
            }
            if WITNESS {
                if BACKWARD {
                    self.chain_slot[v] = slot;
                } else {
                    self.parent_slot[v] = slot;
                }
            }
            queue.push(HeapSlot {
                dist: nd,
                vertex: v as u32,
            });
            self.last_frontier = self.last_frontier.max(queue.len() + other_len);
        }
        false
    }

    /// Writes the meeting path `s ⇝ x — y ⇝ t` of the last accepted witness
    /// query into `witness` as edge ids from `s`: the forward parents of
    /// `x` (each slot's edge leads back to the other endpoint, a vertex
    /// settled earlier, so the walk ends at `s`), the joining half-edge,
    /// then `y`'s chain. Every recorded step is the one that set its
    /// vertex's current distance, so the walk's left-to-right sum is the
    /// certificate the query accepted.
    fn write_witness(
        &self,
        graph: &CsrGraph,
        s: u32,
        x: u32,
        join: u32,
        y: u32,
        witness: &mut Vec<EdgeId>,
    ) {
        let mut v = x;
        while v != s {
            let id = graph.slot_edge(self.parent_slot[v as usize] as usize);
            witness.push(id);
            let (a, b, _) = graph.edge(id);
            v = if a.index() as u32 == v { b } else { a }.index() as u32;
        }
        witness.reverse();
        if join != NO_VERTEX {
            witness.push(graph.slot_edge(join as usize));
        }
        let mut y = y;
        while self.chain_vertex[y as usize] != NO_VERTEX {
            witness.push(graph.slot_edge(self.chain_slot[y as usize] as usize));
            y = self.chain_vertex[y as usize];
        }
    }

    /// Continues the left-to-right sum `head` from `y` along the backward
    /// chain to the target, adding each stored chain weight in order.
    #[inline]
    fn chain_sum(&self, mut head: f64, mut y: u32) -> f64 {
        while self.chain_vertex[y as usize] != NO_VERTEX {
            head += self.chain_weight[y as usize];
            y = self.chain_vertex[y as usize];
        }
        head
    }

    /// Reads the bounded-distance answer for `target` out of the workspace
    /// after a query: settled this generation and within the bound.
    #[inline]
    fn extract_target(&self, target: VertexId, bound: f64) -> Option<f64> {
        let t = target.index();
        if self.state[t] == self.generation + 1 && self.dist[t] <= bound {
            Some(self.dist[t])
        } else {
            None
        }
    }

    /// Runs a full single-source search and returns a view of the resulting
    /// shortest-path tree. The view borrows the workspace — it is valid until
    /// the next query — and allocates only in
    /// [`EngineTree::path_to`] (which builds the returned path).
    ///
    /// **Canonical parents.** A vertex's parent is, among its neighbours
    /// that achieve its distance and settle before it, the one with the
    /// smallest `(distance, vertex id)`: the first to reach the distance
    /// sets it, and a later one replaces it on an equal distance only with
    /// a smaller pair. Settle order is non-decreasing in distance, so every
    /// neighbour at a strictly smaller distance settles first; only a
    /// rounding-absorbed edge (`fl(d + w) = d`) makes an equal-distance
    /// neighbour, and then settle order — `(distance, id)` heap order,
    /// extended by the vertices such edges queue — decides whether it
    /// competes. The free functions of [`crate::dijkstra`] and every other
    /// parent-tracking search here follow the same rule.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn shortest_path_tree<'a>(
        &'a mut self,
        graph: &CsrGraph,
        source: VertexId,
    ) -> EngineTree<'a> {
        self.run_query::<true>(graph, source, None, f64::INFINITY, false, None);
        EngineTree {
            num_vertices: graph.num_vertices(),
            engine: self,
            source,
        }
    }

    /// Runs a single-source search until `need` is met and returns the
    /// settled prefix of the shortest-path tree as an owned [`SptTree`]
    /// that outlives the engine — the form a shortest-path-tree cache
    /// stores. [`TreeNeed::everything`] gives the whole tree.
    ///
    /// The search stops after the settle that meets the need's last
    /// requirement, at distance `D`, once the ties at `D` have settled (see
    /// [`DijkstraEngine::ball`] for why that is exact): the tree holds
    /// every vertex at distance `≤ D` with its full-tree distance and
    /// parent, bit for bit, and [`SptTree::complete_through`] reports `D`
    /// (`+∞` when the search ran out of vertices first). Such a tree
    /// [`SptTree::covers`] `need`. Its accessors answer exactly what the
    /// prefix covers and report everything else as not covered, so every
    /// covered answer is bit-identical to the corresponding
    /// [`EngineTree`] accessor of [`DijkstraEngine::shortest_path_tree`].
    ///
    /// Parents follow the canonical rule of
    /// [`DijkstraEngine::shortest_path_tree`].
    ///
    /// The member list is the search's settle order, re-sorted into
    /// `(distance, vertex)` order only where it is not already. Building
    /// the tree costs `O(m log m)` for its `m` members and allocates and
    /// writes nothing proportional to the graph's vertex count.
    ///
    /// # Panics
    ///
    /// Panics if `source` or a target of `need` is out of range.
    pub fn owned_shortest_path_tree(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        need: &TreeNeed,
    ) -> SptTree {
        let complete_through =
            self.run_query::<true>(graph, source, None, f64::INFINITY, true, Some(need));
        let mut members = self.ball_buf.clone();
        sort_settle_order(&mut members);
        let mut index: Vec<u64> = members
            .iter()
            .enumerate()
            .map(|(slot, &(v, _))| index_entry(v.index(), slot))
            .collect();
        sort_index(&mut index, graph.num_vertices());
        let parents = members
            .iter()
            .map(|&(v, _)| self.parent[v.index()])
            .collect();
        SptTree {
            source,
            num_vertices: graph.num_vertices(),
            members,
            parents,
            index,
            complete_through,
        }
    }

    /// The shortest path from `source` to `target` with its distance, or
    /// `None` if `target` is unreachable: [`DijkstraEngine::shortest_path_with`]
    /// without landmarks.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range.
    pub fn shortest_path(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        target: VertexId,
    ) -> Option<(f64, Vec<VertexId>)> {
        self.shortest_path_with(graph, None, source, target)
    }

    /// The shortest path from `source` to `target` with its distance, or
    /// `None` if `target` is unreachable — equal, bit for bit and vertex for
    /// vertex, to [`DijkstraEngine::shortest_path_tree`]'s `distance` and
    /// `path_to` for `target`.
    ///
    /// **Without landmarks** (or with an empty table) this is the one-sided
    /// search, stopped once `target` settles: a settled vertex's distance
    /// and parent never change and every path vertex settles before the
    /// target.
    ///
    /// **With landmarks** it is goal-directed: an A* search (Hart, Nilsson
    /// & Raphael 1968) keyed by `dist(v) + h(v)`, `h` the certified
    /// landmark lower bound on the remaining distance (ALT; Goldberg &
    /// Harrelson, SODA 2005). It settles a corridor toward the target
    /// instead of the ball of radius `δ(source, target)`, and returns the
    /// same answer:
    ///
    /// * **Distance.** The search drains every key up to
    ///   `relaxed_bound(dist(target))` and re-opens a settled vertex whose
    ///   distance still improves; the argument on the private
    ///   `relaxed_bound` (next to [`path_rounding_margin`]) shows that every
    ///   vertex of the one-sided path then settles at its one-sided
    ///   distance, the target included.
    /// * **Parents.** Every equal-distance relaxation applies the canonical
    ///   tie rule, into settled vertices too. If no relaxed edge is
    ///   rounding-absorbed (`fl(d + w) > d`), every neighbour achieving a
    ///   path vertex's distance lies at a strictly smaller distance — so in
    ///   the one-sided search it competes for the parent — and on a walk of
    ///   the `relaxed_bound` argument, so here it settles at its final
    ///   distance and competes too: both searches take the same minimum
    ///   `(distance, id)`, and the parent chain stays strictly
    ///   distance-decreasing. An absorbed edge into a path vertex would be
    ///   relaxed here, since its tail is on the path; when one is relaxed,
    ///   settle order decides parents, and the query is answered by the
    ///   one-sided search instead ([`EngineStats::path_fallbacks`]).
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of range, or if the landmark table
    /// does not match the graph's vertex count and epoch.
    pub fn shortest_path_with(
        &mut self,
        graph: &CsrGraph,
        landmarks: Option<&Landmarks>,
        source: VertexId,
        target: VertexId,
    ) -> Option<(f64, Vec<VertexId>)> {
        match landmarks.filter(|lm| !lm.is_empty()) {
            Some(lm) => self.run_goal_directed::<true>(graph, lm, source, target, f64::INFINITY),
            None => {
                self.run_query::<true>(graph, source, Some(target), f64::INFINITY, false, None);
            }
        }
        let distance = self.extract_target(target, f64::INFINITY)?;
        Some((distance, self.path_from_parents(target)))
    }

    /// Walks the parent pointers of the last tracking search back from
    /// `target` (which must have been reached) and returns the path source
    /// first.
    fn path_from_parents(&self, target: VertexId) -> Vec<VertexId> {
        let mut path = vec![target];
        let mut cur = target.index() as u32;
        while self.parent[cur as usize] != NO_VERTEX {
            cur = self.parent[cur as usize];
            path.push(VertexId(cur as usize));
        }
        path.reverse();
        path
    }

    /// Returns every vertex within graph distance `radius` of `source` with
    /// its distance, in non-decreasing `(distance, vertex)` order (the source
    /// itself first, at distance 0). The slice borrows the engine's settle
    /// buffer and is valid until the next query.
    ///
    /// **Tie handling.** Vertices at equal distance appear in ascending
    /// vertex-id order, as in [`SptTree::members_within`]. The heap pops
    /// ties in vertex-id order, but a rounding tie (an edge with
    /// `fl(d + w) = d`) can settle a smaller id after a larger one at the
    /// same distance; the settle buffer is re-sorted in place in that case
    /// only (an `O(n)` check otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `radius` is negative.
    pub fn ball(&mut self, graph: &CsrGraph, source: VertexId, radius: f64) -> &[(VertexId, f64)] {
        assert!(radius >= 0.0, "ball radius must be non-negative");
        self.run_query::<false>(graph, source, None, radius, true, None);
        sort_settle_order(&mut self.ball_buf);
        &self.ball_buf
    }

    /// The `k` vertices nearest to `source` **plus every further vertex tied
    /// with the `k`-th at its distance**, in `(distance, vertex)` order —
    /// exactly the members of `ball(graph, source, D)` for the `k`-th
    /// smallest distance `D` (all reachable vertices when fewer than `k`
    /// are; none for `k = 0`). Its first `min(k, len)` entries equal
    /// `ball(graph, source, ∞)[..k]`; with the ties the result is a ball,
    /// the form a cached prefix answers too
    /// ([`SptTree::k_nearest_with_ties`]).
    ///
    /// The search stops once the answer is fixed: after the `k`-th settle
    /// it runs only through the ties at that distance, so it settles about
    /// `k` vertices, not the whole component. The slice borrows the
    /// engine's settle buffer and is valid until the next query.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn k_nearest_with_ties(
        &mut self,
        graph: &CsrGraph,
        source: VertexId,
        k: usize,
    ) -> &[(VertexId, f64)] {
        let need = TreeNeed {
            k,
            ..TreeNeed::new()
        };
        self.run_query::<false>(graph, source, None, f64::INFINITY, true, Some(&need));
        sort_settle_order(&mut self.ball_buf);
        &self.ball_buf
    }
}

/// A borrowed view of the last [`DijkstraEngine::shortest_path_tree`] result.
#[derive(Debug)]
pub struct EngineTree<'a> {
    engine: &'a DijkstraEngine,
    source: VertexId,
    /// Vertex count of the queried graph (the workspace may be larger).
    num_vertices: usize,
}

impl EngineTree<'_> {
    /// The source vertex of this tree.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Vertex count of the graph this tree was computed over.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Distance from the source to `v`, or `None` if `v` is unreachable.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<f64> {
        let i = v.index();
        (self.engine.state[i] >= self.engine.generation).then(|| self.engine.dist[i])
    }

    /// Writes the distance of every vertex of the queried graph into the
    /// first [`EngineTree::num_vertices`] slots of `out` (`f64::INFINITY`
    /// for unreachable vertices); any extra slots are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the queried graph's vertex count.
    pub fn copy_distances_into(&self, out: &mut [f64]) {
        assert!(
            out.len() >= self.num_vertices,
            "output slice shorter than the graph's vertex count"
        );
        for (v, slot) in out[..self.num_vertices].iter_mut().enumerate() {
            *slot = self.distance(VertexId(v)).unwrap_or(f64::INFINITY);
        }
    }

    /// Reconstructs the shortest path from the source to `target` as a vertex
    /// sequence (source first), or `None` if unreachable. This is the only
    /// allocating accessor (it builds the returned `Vec`).
    pub fn path_to(&self, target: VertexId) -> Option<Vec<VertexId>> {
        self.distance(target)?;
        Some(self.engine.path_from_parents(target))
    }
}

/// An [`SptTree`] index entry: `vertex` in the high 32 bits and its
/// member slot in the low 32, so entries sort by vertex.
#[inline]
fn index_entry(vertex: usize, slot: usize) -> u64 {
    (vertex as u64) << 32 | slot as u64
}

/// Sorts [`SptTree`] index entries by vertex with an LSD radix sort: one
/// counting pass per byte of the largest vertex id below `num_vertices`,
/// `O(m)` each for `m` entries. Vertex ids are distinct, so the slot bits
/// need no pass. On a whole tree of an 800-vertex graph this takes about
/// half the time of `sort_unstable` on the same entries, which shows
/// where a serving cache admits whole trees at a high rate (perfbench's
/// live-churn workload).
fn sort_index(index: &mut Vec<u64>, num_vertices: usize) {
    let bits = usize::BITS - num_vertices.saturating_sub(1).leading_zeros();
    let mut scratch = vec![0; index.len()];
    for shift in (32..32 + bits).step_by(8) {
        let digit = |e: u64| (e >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        for &e in index.iter() {
            next[digit(e)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for &e in index.iter() {
            scratch[next[digit(e)]] = e;
            next[digit(e)] += 1;
        }
        std::mem::swap(index, &mut scratch);
    }
}

/// An owned shortest-path tree, or a prefix of one: the cacheable
/// counterpart of the borrowed [`EngineTree`] view, produced by
/// [`DijkstraEngine::owned_shortest_path_tree`].
///
/// A serving layer computes a source's tree once and then answers queries
/// about that source from it — distance lookups are `O(log m)` in the
/// tree's `m` members, path reconstruction is one such lookup per path
/// vertex, and ball / k-nearest answers are prefix reads of the sorted
/// member list.
///
/// **Sparse storage.** The tree stores its members only, never an array
/// over the whole graph: a prefix of `m` members costs `O(m)` memory and
/// building it costs `O(m log m)`, however many vertices the graph has.
///
/// **Prefix trees.** A tree built for a [`TreeNeed`] holds only the
/// vertices at distance `≤` [`SptTree::complete_through`] (`D`); a vertex
/// past `D` is absent, not unreachable. Every accessor therefore returns
/// `None` for a question the prefix does not cover — the caller must
/// search instead — and `Some(answer)` otherwise, where the answer is
/// bit-identical to a fresh engine query from the same source (the
/// determinism contract a query cache relies on). A tree with `D = ∞` is
/// the whole tree and covers every question.
#[derive(Debug, Clone, PartialEq)]
pub struct SptTree {
    source: VertexId,
    /// Vertex count of the graph the tree was computed over: the range
    /// every accessor checks its vertex against.
    num_vertices: usize,
    /// Every member with its distance, sorted by `(distance, vertex)` —
    /// the engine's settle order, pre-computed so ball and k-nearest
    /// answers are prefix reads. A member's position here is its *slot*.
    members: Vec<(VertexId, f64)>,
    /// Per slot, the member's predecessor on its shortest path;
    /// `NO_VERTEX` for the source. A member's parent settles before it, so
    /// it is always a member.
    parents: Vec<u32>,
    /// [`index_entry`]`(vertex, slot)` for every member, sorted by vertex:
    /// the binary-searched vertex-to-member index.
    index: Vec<u64>,
    /// Every vertex at distance `≤ complete_through` is a member; `+∞` for
    /// a whole tree, `-∞` for an empty one.
    complete_through: f64,
}

impl SptTree {
    /// The source vertex of this tree.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Vertex count of the graph this tree was computed over.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The distance through which this prefix is complete: every vertex at
    /// distance `≤` it is a member, with its full-tree distance and parent.
    /// `+∞` for a whole tree.
    pub fn complete_through(&self) -> f64 {
        self.complete_through
    }

    /// Heap footprint of this tree, for cache sizing: 28 bytes per member
    /// (16 for the `(vertex, distance)` entry, 4 for its parent, 8 for its
    /// index entry) and nothing per graph vertex, so a prefix costs the
    /// same on any graph that holds it.
    pub fn memory_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<(VertexId, f64)>()
            + self.parents.len() * std::mem::size_of::<u32>()
            + self.index.len() * std::mem::size_of::<u64>()
    }

    /// The slot of `v` if it is a member: a binary search of the index.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        assert!(
            v.index() < self.num_vertices,
            "vertex {} out of range for a tree over {} vertices",
            v.index(),
            self.num_vertices
        );
        let at = self
            .index
            .partition_point(|&e| e < index_entry(v.index(), 0));
        let &entry = self.index.get(at)?;
        (entry >> 32 == v.index() as u64).then_some(entry as u32 as usize)
    }

    /// The distance from the source to `v` if it is at most `bound`:
    /// `Some(Some(d))` within the bound, `Some(None)` beyond it or
    /// unreachable, and `None` when the prefix cannot tell (`v` is not a
    /// member and `complete_through < bound`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn distance_within(&self, v: VertexId, bound: f64) -> Option<Option<f64>> {
        match self.slot(v) {
            Some(slot) => {
                let d = self.members[slot].1;
                Some((d <= bound).then_some(d))
            }
            // A non-member lies past `complete_through`: beyond any bound
            // the prefix has reached.
            None => (self.complete_through >= bound).then_some(None),
        }
    }

    /// The distance from the source to `v` (`Some(None)` if unreachable),
    /// or `None` if `v` lies past the prefix — [`SptTree::distance_within`]
    /// at an infinite bound.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<Option<f64>> {
        self.distance_within(v, f64::INFINITY)
    }

    /// The shortest path from the source to `target` (source first) with
    /// its distance — `Some(None)` if unreachable, `None` if `target` lies
    /// past the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn shortest_path(&self, target: VertexId) -> Option<Option<(f64, Vec<VertexId>)>> {
        let Some(slot) = self.slot(target) else {
            // Unreachable if the prefix is the whole tree, else past it.
            return (self.complete_through >= f64::INFINITY).then_some(None);
        };
        let mut path = vec![target];
        let mut cur = slot;
        while self.parents[cur] != NO_VERTEX {
            let parent = VertexId(self.parents[cur] as usize);
            path.push(parent);
            cur = self.slot(parent).expect("a member's parent is a member");
        }
        path.reverse();
        Some(Some((self.members[slot].1, path)))
    }

    /// Every vertex within distance `radius` of the source, with its
    /// distance, in non-decreasing `(distance, vertex)` order — the same
    /// list, bit for bit, as [`DijkstraEngine::ball`] from this source — or
    /// `None` if `radius` exceeds [`SptTree::complete_through`]. Located
    /// by a binary search on the sorted member list.
    pub fn members_within(&self, radius: f64) -> Option<&[(VertexId, f64)]> {
        // Distance is the primary sort key, so the within-radius members
        // are exactly a prefix of the stored list.
        (radius <= self.complete_through)
            .then(|| &self.members[..self.members.partition_point(|&(_, d)| d <= radius)])
    }

    /// The `k` nearest vertices plus every further vertex tied with the
    /// `k`-th at its distance — the same list, bit for bit, as
    /// [`DijkstraEngine::k_nearest_with_ties`] from this source — or `None`
    /// if the prefix holds fewer than `k` members and is not the whole
    /// tree. The `k`-th member's ties are members: they lie at or below
    /// `complete_through`.
    pub fn k_nearest_with_ties(&self, k: usize) -> Option<&[(VertexId, f64)]> {
        let end = match k {
            0 => 0,
            k if k > self.members.len() => {
                if self.complete_through < f64::INFINITY {
                    return None;
                }
                self.members.len()
            }
            k => {
                let kth = self.members[k - 1].1;
                self.members.partition_point(|&(_, d)| d <= kth)
            }
        };
        Some(&self.members[..end])
    }

    /// Whether this tree answers every question `need` describes — what a
    /// tree built for `need` always does.
    pub fn covers(&self, need: &TreeNeed) -> bool {
        need.targets
            .iter()
            .all(|(&t, &bound)| self.distance_within(t, bound).is_some())
            && self.k_nearest_with_ties(need.k).is_some()
            && need.radius <= self.complete_through
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::WeightedGraph;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Appends an edge and reports whether one of its endpoints' rows moved
    /// (its slice now starts elsewhere), i.e. a full row outgrew its window.
    fn append_moves_a_row(csr: &mut CsrGraph, u: usize, v: usize, w: f64) -> bool {
        let starts = |csr: &CsrGraph| [u, v].map(|x| csr.packed_neighbors(VertexId(x)).0.as_ptr());
        let before = starts(csr);
        csr.append_edge(VertexId(u), VertexId(v), w);
        starts(csr) != before
    }

    fn diamond() -> WeightedGraph {
        WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 2.0)]).unwrap()
    }

    #[test]
    fn bounded_distance_matches_legacy() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.bounded_distance(&csr, VertexId(0), VertexId(2), 1.0),
            None
        );
        assert_eq!(
            e.bounded_distance(&csr, VertexId(0), VertexId(2), 2.0),
            Some(2.0)
        );
        assert_eq!(
            e.bounded_distance(&csr, VertexId(0), VertexId(3), 3.9),
            None
        );
        assert!(e
            .bounded_distance(&csr, VertexId(0), VertexId(3), 4.0)
            .is_some());
    }

    #[test]
    fn tree_view_distances_and_paths() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let tree = e.shortest_path_tree(&csr, VertexId(0));
        assert_eq!(tree.source(), VertexId(0));
        assert_eq!(tree.distance(VertexId(3)), Some(4.0));
        assert_eq!(
            tree.path_to(VertexId(3)).unwrap(),
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
        assert_eq!(tree.path_to(VertexId(0)).unwrap(), vec![VertexId(0)]);
        let mut out = [0.0; 4];
        tree.copy_distances_into(&mut out);
        assert_eq!(out, [0.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn unreachable_vertices_are_none() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.bounded_distance(&csr, VertexId(0), VertexId(2), 100.0),
            None
        );
        let tree = e.shortest_path_tree(&csr, VertexId(0));
        assert_eq!(tree.distance(VertexId(2)), None);
        assert_eq!(tree.path_to(VertexId(2)), None);
    }

    #[test]
    fn ball_matches_legacy_order() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let legacy = dijkstra::ball(&g, VertexId(0), 2.0);
        assert_eq!(e.ball(&csr, VertexId(0), 2.0), &legacy[..]);
        assert_eq!(
            e.ball(&csr, VertexId(3), 0.0),
            &[(VertexId(3), 0.0)],
            "radius 0 is the source alone"
        );
    }

    #[test]
    fn ball_buffer_grows_correctly_across_graph_sizes() {
        // Warm the engine with a ball that settles fewer vertices than the
        // workspace holds (len < capacity), then grow to a larger graph and
        // ball-query the whole thing. Regression: grow() used to reserve
        // `n - capacity` *additional* slots past the leftover length,
        // leaving ball_buf short and forcing a mid-query reallocation.
        let small =
            WeightedGraph::from_edges(10, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
                .unwrap();
        let mut e = DijkstraEngine::new();
        assert_eq!(e.ball(&CsrGraph::from(&small), VertexId(0), 100.0).len(), 5);
        let n = 16;
        let big = WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, 1.0))).unwrap();
        let csr = CsrGraph::from(&big);
        let members = e.ball(&csr, VertexId(0), n as f64);
        assert_eq!(
            members.len(),
            n,
            "the whole path graph is within the radius"
        );
        for (v, &(m, d)) in members.iter().enumerate() {
            assert_eq!(m, VertexId(v));
            assert!((d - v as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn copy_distances_fills_exactly_the_graph_prefix() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let tree = e.shortest_path_tree(&csr, VertexId(0));
        assert_eq!(tree.num_vertices(), 4);
        let mut out = [f64::NAN; 6];
        tree.copy_distances_into(&mut out);
        assert_eq!(&out[..4], &[0.0, 1.0, 2.0, 4.0]);
        assert!(out[4].is_nan() && out[5].is_nan(), "extra slots untouched");
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn copy_distances_rejects_short_slices() {
        let csr = CsrGraph::from(&diamond());
        let mut e = DijkstraEngine::new();
        let tree = e.shortest_path_tree(&csr, VertexId(0));
        let mut out = [0.0; 2];
        tree.copy_distances_into(&mut out);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ball_rejects_negative_radius() {
        let csr = CsrGraph::from(&diamond());
        DijkstraEngine::new().ball(&csr, VertexId(0), -1.0);
    }

    #[test]
    fn workspace_is_reused_after_the_first_query() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        for _ in 0..10 {
            e.bounded_distance(&csr, VertexId(0), VertexId(3), 10.0);
        }
        let s = e.stats();
        assert_eq!(s.queries, 10);
        assert_eq!(s.reuse_hits, 9, "only the first query may size the buffers");
        assert!(s.peak_frontier >= 1);
        assert!(s.heap_pops >= 10);
        // An engine pre-sized for the graph never allocates at all.
        let mut warm = DijkstraEngine::with_capacity_for(g.num_vertices(), g.num_edges());
        for _ in 0..5 {
            warm.bounded_distance(&csr, VertexId(0), VertexId(3), 10.0);
        }
        assert_eq!(
            warm.stats().reuse_hits,
            5,
            "every query must be a reuse hit"
        );
        warm.reset_stats();
        assert_eq!(warm.stats(), EngineStats::default());
    }

    #[test]
    fn frontier_is_reported_per_query_and_bounded_by_pushes() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let (d, frontier) = e.bounded_distance_with_frontier(&csr, VertexId(0), VertexId(3), 10.0);
        assert_eq!(d, Some(4.0));
        // Lazy deletion: at most one push per half-edge improvement plus the
        // source.
        assert!(frontier >= 1 && frontier <= 2 * g.num_edges() + 1);
    }

    #[test]
    fn generation_wrap_resets_stamps_and_preserves_results() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut warm = DijkstraEngine::with_capacity_for(g.num_vertices(), g.num_edges());
        // Take reference answers with a fresh engine far from the wrap.
        let mut fresh = DijkstraEngine::new();
        let reference: Vec<Option<f64>> = (0..4)
            .map(|t| fresh.bounded_distance(&csr, VertexId(0), VertexId(t), 10.0))
            .collect();
        // Seed the workspace with stale stamps, then fast-forward the
        // generation counter to the wrap threshold: the next query must run
        // the explicit stamp reset and still answer correctly from the
        // polluted workspace.
        warm.bounded_distance(&csr, VertexId(2), VertexId(3), 10.0);
        warm.force_generation_wrap();
        assert_eq!(warm.stats().generation_wraps, 0);
        for (t, want) in reference.iter().enumerate() {
            assert_eq!(
                warm.bounded_distance(&csr, VertexId(0), VertexId(t), 10.0),
                *want,
                "target {t} across the wrap boundary"
            );
        }
        let stats = warm.stats();
        assert_eq!(stats.generation_wraps, 1, "exactly one reset at the wrap");
        assert_eq!(
            stats.reuse_hits, stats.queries,
            "the wrap reset must not allocate"
        );
        // Trees and balls stay sound across a second forced wrap too.
        warm.force_generation_wrap();
        let legacy_ball = dijkstra::ball(&g, VertexId(0), 2.0);
        assert_eq!(warm.ball(&csr, VertexId(0), 2.0), &legacy_ball[..]);
        let tree = warm.shortest_path_tree(&csr, VertexId(0));
        assert_eq!(tree.distance(VertexId(3)), Some(4.0));
        assert_eq!(warm.stats().generation_wraps, 2);
    }

    #[test]
    fn generation_wrap_survives_a_sustained_query_stream() {
        // Cross the wrap mid-stream and keep going: every answer before,
        // at, and after the boundary must match a fresh engine.
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::new();
        engine.force_generation_wrap();
        let mut fresh = DijkstraEngine::new();
        for round in 0..64 {
            let s = VertexId(round % 4);
            let t = VertexId((round + 3) % 4);
            assert_eq!(
                engine.bounded_distance(&csr, s, t, 10.0),
                fresh.bounded_distance(&csr, s, t, 10.0),
                "round {round}"
            );
        }
        assert_eq!(engine.stats().generation_wraps, 1);
        assert_eq!(fresh.stats().generation_wraps, 0);
    }

    #[test]
    fn owned_tree_matches_the_borrowed_view_exactly() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let owned = e.owned_shortest_path_tree(&csr, VertexId(0), &TreeNeed::everything());
        let tree = e.shortest_path_tree(&csr, VertexId(0));
        assert_eq!(owned.source(), VertexId(0));
        assert_eq!(owned.num_vertices(), 4);
        assert_eq!(owned.complete_through(), f64::INFINITY);
        for v in (0..4).map(VertexId) {
            assert_eq!(owned.distance(v), Some(tree.distance(v)));
            let path = tree.path_to(v).map(|p| (tree.distance(v).unwrap(), p));
            assert_eq!(owned.shortest_path(v), Some(path));
        }
        assert_eq!(owned.memory_bytes(), 4 * 28);
        // The owned tree outlives further engine queries.
        e.bounded_distance(&csr, VertexId(1), VertexId(3), 10.0);
        assert_eq!(owned.distance(VertexId(3)), Some(Some(4.0)));
    }

    fn path_csr(n: usize) -> CsrGraph {
        CsrGraph::from(&WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, 1.0))).unwrap())
    }

    #[test]
    fn a_prefix_costs_the_same_on_any_graph_size() {
        let mut need = TreeNeed::new();
        need.add_k_nearest(3);
        let mut e = DijkstraEngine::new();
        let [small, large] = [10, 100_000].map(|n| {
            let tree = e.owned_shortest_path_tree(&path_csr(n), VertexId(0), &need);
            assert_eq!(tree.num_vertices(), n);
            assert_eq!(tree.members_within(f64::INFINITY), None);
            assert_eq!(tree.k_nearest_with_ties(3).map(<[_]>::len), Some(3));
            assert_eq!(
                tree.shortest_path(VertexId(2)),
                Some(Some((2.0, vec![VertexId(0), VertexId(1), VertexId(2)])))
            );
            tree.memory_bytes()
        });
        assert_eq!(small, 3 * 28);
        assert_eq!(small, large, "a prefix's footprint must not grow with n");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tree_distance_panics_on_an_out_of_range_vertex() {
        let tree = DijkstraEngine::new().owned_shortest_path_tree(
            &path_csr(4),
            VertexId(0),
            &TreeNeed::everything(),
        );
        let _ = tree.distance_within(VertexId(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tree_path_panics_on_an_out_of_range_vertex() {
        // A one-vertex prefix of a 4-vertex graph: vertex 4 is past the
        // graph, not past the prefix.
        let tree = DijkstraEngine::new().owned_shortest_path_tree(&path_csr(4), VertexId(0), &{
            let mut need = TreeNeed::new();
            need.add_k_nearest(1);
            need
        });
        let _ = tree.shortest_path(VertexId(4));
    }

    #[test]
    fn owned_tree_ball_and_k_nearest_match_engine_queries() {
        let g = WeightedGraph::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 3, 2.0),
                (3, 4, 0.5),
                // vertex 5 is isolated
            ],
        )
        .unwrap();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let owned = e.owned_shortest_path_tree(&csr, VertexId(0), &TreeNeed::everything());
        for radius in [0.0, 1.0, 2.0, 2.5, 100.0, f64::INFINITY] {
            let expected = e.ball(&csr, VertexId(0), radius).to_vec();
            assert_eq!(
                owned.members_within(radius),
                Some(&expected[..]),
                "radius {radius}"
            );
        }
        // Unreachable vertices never appear, even at radius infinity.
        let all = owned.members_within(f64::INFINITY).unwrap();
        assert!(all.iter().all(|&(v, _)| v != VertexId(5)));
        assert_eq!(owned.distance(VertexId(5)), Some(None));
        assert_eq!(owned.shortest_path(VertexId(5)), Some(None));
        // k-nearest is the sorted prefix; oversized k returns the component.
        let nearest = |k: usize| owned.k_nearest_with_ties(k).unwrap();
        assert_eq!(&nearest(3)[..3], &all[..3]);
        assert_eq!(nearest(0), &[]);
        assert_eq!(nearest(100), all);
        assert_eq!(nearest(1), &[(VertexId(0), 0.0)]);
    }

    #[test]
    fn deletions_are_invisible_to_queries_before_and_after_repack() {
        // Append an edge to a CSR graph (moving its endpoints' full rows),
        // delete edges, and compare every query against a fresh build of
        // the surviving edges — with the freed slots and moved rows in
        // place, and again after compaction.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 18;
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.35) {
                    edges.push((u, v, rng.gen_range(0.5..4.0)));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, edges.iter().copied()).unwrap();
        let mut csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::new();
        assert!(append_moves_a_row(&mut csr, 0, n - 1, 1.25));
        // Delete every third edge.
        let mut survivors = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            if i % 3 == 0 {
                csr.remove_edge(crate::graph::EdgeId(i)).unwrap();
            } else {
                survivors.push(e);
            }
        }
        survivors.push((0, n - 1, 1.25));
        let reference_graph = WeightedGraph::from_edges(n, survivors).unwrap();
        let reference_csr = CsrGraph::from(&reference_graph);
        let mut reference_engine = DijkstraEngine::new();
        for phase in 0..2 {
            if phase == 1 {
                csr.compact();
                assert!(csr.is_compact());
            } else {
                assert!(csr.dead_edges() > 0 && !csr.is_compact());
            }
            for s in 0..n {
                for t in 0..n {
                    assert_eq!(
                        engine.bounded_distance(&csr, VertexId(s), VertexId(t), 10.0),
                        reference_engine.bounded_distance(
                            &reference_csr,
                            VertexId(s),
                            VertexId(t),
                            10.0
                        ),
                        "phase {phase}: {s} -> {t}"
                    );
                }
                let ball: Vec<_> = engine.ball(&csr, VertexId(s), 5.0).to_vec();
                assert_eq!(
                    ball,
                    reference_engine.ball(&reference_csr, VertexId(s), 5.0),
                    "phase {phase}: ball from {s}"
                );
                // Distances and parent chains of the whole tree.
                let tree =
                    engine.owned_shortest_path_tree(&csr, VertexId(s), &TreeNeed::everything());
                let reference = reference_engine.owned_shortest_path_tree(
                    &reference_csr,
                    VertexId(s),
                    &TreeNeed::everything(),
                );
                for v in (0..n).map(VertexId) {
                    assert_eq!(
                        tree.shortest_path(v),
                        reference.shortest_path(v),
                        "phase {phase}: path {s} -> {v:?}"
                    );
                }
            }
        }
    }

    /// The crate's two relax loops — the engine's and the reference
    /// [`dijkstra`] module's — build the same shortest-path trees (every
    /// distance and parent chain) when the engine reads a CSR with a moved
    /// row and deleted edges and the reference reads its compacted
    /// [`WeightedGraph`].
    #[test]
    fn relax_kernels_agree_on_trees_paths_and_deletions() {
        let mut rng = SmallRng::seed_from_u64(91_203);
        let n = 24;
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    edges.push((u, v, rng.gen_range(0.5..4.0)));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, edges.iter().copied()).unwrap();
        let mut csr = CsrGraph::from(&g);
        assert!(append_moves_a_row(&mut csr, 0, n - 1, 1.25));
        for i in (0..edges.len()).step_by(4) {
            csr.remove_edge(crate::graph::EdgeId(i)).unwrap();
        }
        assert!(csr.dead_edges() > 0);
        let compacted = csr.to_weighted_graph();
        assert_eq!(compacted.num_edges(), csr.num_edges());
        let mut engine = DijkstraEngine::new();
        for s in (0..n).map(VertexId) {
            let tree = engine.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
            let reference = dijkstra::shortest_path_tree(&compacted, s);
            for v in (0..n).map(VertexId) {
                let want = reference
                    .distance(v)
                    .map(|d| (d, reference.path_to(v).unwrap()));
                assert_eq!(
                    tree.shortest_path(v),
                    Some(want),
                    "distances and parent chains must agree from {s:?} to {v:?}"
                );
            }
        }
    }

    #[test]
    fn matches_legacy_on_random_graphs_including_appends() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..15 {
            let n = 20;
            let mut g = WeightedGraph::new(n);
            let mut csr = CsrGraph::new(n);
            let mut engine = DijkstraEngine::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.3) {
                        let w = rng.gen_range(0.5..4.0);
                        g.add_edge(VertexId(u), VertexId(v), w);
                        csr.append_edge(VertexId(u), VertexId(v), w);
                    }
                }
                // Interleave queries with appends so rows are queried
                // between their moves, mid-growth.
                let s = VertexId(rng.gen_range(0..n));
                let t = VertexId(rng.gen_range(0..n));
                let bound = rng.gen_range(0.1..12.0);
                assert_eq!(
                    engine.bounded_distance(&csr, s, t, bound),
                    dijkstra::bounded_distance(&g, s, t, bound)
                );
            }
            for s in 0..n {
                let legacy = dijkstra::shortest_path_tree(&g, VertexId(s));
                let tree = engine.shortest_path_tree(&csr, VertexId(s));
                for v in 0..n {
                    assert_eq!(tree.distance(VertexId(v)), legacy.distance(VertexId(v)));
                }
            }
        }
    }

    #[test]
    fn settled_and_pruned_counters_are_monotone_sane() {
        let g = diamond();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        let stats0 = e.stats();
        assert_eq!(stats0.settled_vertices, 0);
        assert_eq!(stats0.pruned_by_bound, 0);
        // Tight bound: the 0-2 edge (weight 5) and anything through vertex
        // 3 are pruned.
        e.bounded_distance(&csr, VertexId(0), VertexId(2), 2.0);
        let s1 = e.stats();
        assert!(s1.settled_vertices >= 1, "source must settle");
        assert!(
            s1.settled_vertices <= s1.heap_pops,
            "every settle consumes a pop"
        );
        assert!(
            s1.pruned_by_bound >= 1,
            "the weight-5 edge must be pruned at bound 2"
        );
        // An unbounded SPT settles the whole component, prunes nothing new.
        e.shortest_path_tree(&csr, VertexId(0));
        let s2 = e.stats();
        assert_eq!(s2.settled_vertices, s1.settled_vertices + 4);
        assert_eq!(s2.pruned_by_bound, s1.pruned_by_bound);
    }

    #[test]
    fn landmarked_distances_match_plain_distances() {
        use crate::landmarks::Landmarks;
        let mut rng = SmallRng::seed_from_u64(1607);
        let n = 32;
        let mut g = WeightedGraph::new(n);
        // Two components: vertices 0..24 and 24..32 are never joined.
        for u in 0..n {
            for v in (u + 1)..n {
                let same_side = (u < 24) == (v < 24);
                if same_side && rng.gen_bool(0.2) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.5..5.0));
                }
            }
        }
        let csr = CsrGraph::from(&g);
        let lm = Landmarks::farthest_point(&csr, 4);
        let mut plain = DijkstraEngine::new();
        let mut pruned = DijkstraEngine::new();
        for case in 0..120 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = if case % 7 == 0 {
                f64::INFINITY
            } else {
                rng.gen_range(0.1..15.0)
            };
            assert_eq!(
                plain.bounded_distance(&csr, s, t, bound),
                pruned.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                "case {case}: ALT pruning changed the answer for {s:?}->{t:?} at bound {bound}"
            );
        }
        // Source == target is answered without ever consulting the graph's
        // edges (h(s, s) = 0 for identical table rows).
        assert_eq!(
            pruned.bounded_distance_landmarked(&csr, &lm, VertexId(5), VertexId(5), 0.0),
            Some(0.0)
        );
        // Cross-component pairs are pruned at the source: the disconnection
        // proof means the search never starts.
        let before = pruned.stats();
        assert_eq!(
            pruned.bounded_distance_landmarked(&csr, &lm, VertexId(0), VertexId(30), f64::INFINITY),
            None
        );
        let after = pruned.stats();
        assert_eq!(
            after.settled_vertices, before.settled_vertices,
            "a provably disconnected pair must not settle anything"
        );
        assert_eq!(after.pruned_by_bound, before.pruned_by_bound + 1);
    }

    #[test]
    fn stale_or_mismatched_landmarks_are_refused() {
        use crate::landmarks::Landmarks;
        let g = diamond();
        let mut csr = CsrGraph::from(&g);
        let lm = Landmarks::farthest_point(&csr, 2);
        csr.append_edge(VertexId(0), VertexId(3), 1.0);
        let mut e = DijkstraEngine::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.bounded_distance_landmarked(&csr, &lm, VertexId(0), VertexId(3), 10.0)
        }));
        assert!(err.is_err(), "stale landmark table must be refused");
    }

    #[test]
    fn warm_engine_stays_allocation_free_under_landmarks() {
        use crate::landmarks::Landmarks;
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 64;
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.1) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.5..4.0));
                }
            }
        }
        let csr = CsrGraph::from(&g);
        let lm = Landmarks::farthest_point(&csr, 8);
        let mut e = DijkstraEngine::with_capacity_for(n, csr.num_edges());
        let mut plain = DijkstraEngine::new();
        for i in 0..80 {
            let s = VertexId((i * 13) % n);
            let t = VertexId((i * 29 + 7) % n);
            let bound = 2.0 + (i % 5) as f64;
            // Rotate plain, goal-directed distance and goal-directed path
            // queries (both directions) on one engine.
            match i % 4 {
                0 => {
                    e.bounded_distance(&csr, s, t, bound);
                }
                1 => assert_eq!(
                    e.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                    plain.bounded_distance(&csr, s, t, bound)
                ),
                2 => assert_eq!(
                    e.shortest_path_with(&csr, Some(&lm), s, t),
                    plain.shortest_path(&csr, s, t)
                ),
                _ => assert_eq!(
                    e.shortest_path_with(&csr, Some(&lm), t, s),
                    plain.shortest_path(&csr, t, s)
                ),
            }
        }
        let stats = e.stats();
        assert!(stats.settled_vertices < plain.stats().settled_vertices);
        assert_eq!(
            stats.reuse_hits, stats.queries,
            "a pre-sized engine must never allocate, goal-directed queries included"
        );
    }

    /// The query mix of the greedy's batched filter-then-commit loop —
    /// a bidirectional `within_bound` filter pass over a batch, then
    /// one-sided re-checks of the survivors — on a CSR whose rows move and
    /// lose deleted edges: a pre-sized engine answers as a fresh one does
    /// and never allocates.
    #[test]
    fn warm_engine_stays_allocation_free_under_the_batched_kernel() {
        let mut rng = SmallRng::seed_from_u64(4_242);
        let n = 64;
        let appends = 16;
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.12) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.5..4.0));
                }
            }
        }
        let mut csr = CsrGraph::from(&g);
        let mut warm = DijkstraEngine::with_capacity_for(n, csr.num_edges() + appends);
        let mut moved = false;
        for batch in 0..appends {
            let id = rng.gen_range(0..csr.edge_id_bound());
            let _ = csr.remove_edge(crate::graph::EdgeId(id));
            let u = rng.gen_range(0..n);
            let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
            moved |= append_moves_a_row(&mut csr, u, v, rng.gen_range(0.5..4.0));
            assert!(csr.dead_edges() > 0);
            let queries: Vec<(VertexId, VertexId, f64)> = (0..8)
                .map(|_| {
                    let s = VertexId(rng.gen_range(0..n));
                    let t = VertexId(rng.gen_range(0..n));
                    (s, t, rng.gen_range(1.0..6.0))
                })
                .collect();
            let mut fresh = DijkstraEngine::new();
            for &(s, t, bound) in &queries {
                let kept = warm.within_bound(&csr, s, t, bound);
                assert_eq!(
                    kept,
                    fresh.bounded_distance(&csr, s, t, bound).is_some(),
                    "batch {batch}: filter {s:?} -> {t:?} within {bound}"
                );
                if !kept {
                    assert_eq!(
                        warm.bounded_distance(&csr, s, t, bound),
                        fresh.bounded_distance(&csr, s, t, bound)
                    );
                }
            }
        }
        assert!(moved, "some append must move a full row");
        let stats = warm.stats();
        assert_eq!(
            stats.reuse_hits, stats.queries,
            "a pre-sized engine must never allocate, bidirectional queries included"
        );
    }

    /// Decimal weights (0.1 steps) sum to values an ulp apart along
    /// different paths, so the rounded landmark bound misorders vertices
    /// and the goal-directed search re-opens them; every answer must still
    /// be the one-sided search's.
    #[test]
    fn goal_directed_search_reopens_and_stays_exact_on_decimal_weights() {
        use crate::landmarks::Landmarks;
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 40;
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.15) {
                        let w = [0.1, 0.2, 0.3, 0.7][rng.gen_range(0..4usize)];
                        g.add_edge(VertexId(u), VertexId(v), w);
                    }
                }
            }
            let csr = CsrGraph::from(&g);
            let lm = Landmarks::farthest_point(&csr, 4);
            let mut e = DijkstraEngine::with_capacity_for(n, csr.num_edges());
            let mut plain = DijkstraEngine::new();
            for s in 0..n {
                for t in 0..n {
                    let (s, t) = (VertexId(s), VertexId(t));
                    let want = plain.shortest_path(&csr, s, t);
                    assert_eq!(e.shortest_path_with(&csr, Some(&lm), s, t), want);
                }
            }
            let stats = e.stats();
            assert!(stats.reopened > 0, "seed {seed}: nothing re-opened");
            assert_eq!(stats.path_fallbacks, 0);
            assert_eq!(stats.reuse_hits, stats.queries);
        }
    }

    #[test]
    fn goal_directed_paths_fall_back_on_rounding_absorbed_edges() {
        use crate::landmarks::Landmarks;
        // 0 -1e17- 5 -1- 3 -1e17- 1 -1e17- 2 -1e17- 4: `fl(1e17 + 1) = 1e17`.
        let csr = CsrGraph::from(&rounding_tie_graph());
        let lm = Landmarks::farthest_point(&csr, 2);
        let mut plain = DijkstraEngine::new();
        let mut e = DijkstraEngine::new();
        for s in 0..6 {
            for t in 0..6 {
                let (s, t) = (VertexId(s), VertexId(t));
                let want = plain.shortest_path(&csr, s, t);
                assert_eq!(e.shortest_path_with(&csr, Some(&lm), s, t), want);
                assert_eq!(
                    e.bounded_distance_landmarked(&csr, &lm, s, t, f64::INFINITY),
                    want.map(|p| p.0)
                );
            }
        }
        // Only path searches that relaxed the absorbed edge fell back; the
        // distance searches never do.
        let fallbacks = e.stats().path_fallbacks;
        assert!(fallbacks > 0 && fallbacks < 36, "{fallbacks}");
        assert_eq!(e.stats().queries, 72);
    }

    /// The rounding-tie chain: `fl(1e17 + 1) = 1e17`, so vertex 3 settles
    /// after vertex 5 at the same distance from 0.
    fn rounding_tie_graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            6,
            [
                (0, 5, 1e17),
                (5, 3, 1.0),
                (3, 1, 1e17),
                (1, 2, 1e17),
                (2, 4, 1e17),
            ],
        )
        .unwrap()
    }

    /// Graphs for the stop-rule tests: the rounding-tie chain, then random
    /// graphs with tie-heavy integer weights (k-th-distance ties are
    /// common), a second component and an isolated vertex (unreachable
    /// targets, k beyond the component size).
    fn stop_rule_graphs() -> Vec<WeightedGraph> {
        let mut rng = SmallRng::seed_from_u64(16_016);
        let mut graphs = vec![rounding_tie_graph()];
        for _ in 0..5 {
            let n = 26;
            let mut g = WeightedGraph::new(n);
            for u in 0..20 {
                for v in (u + 1)..20 {
                    if rng.gen_bool(0.2) {
                        g.add_edge(VertexId(u), VertexId(v), rng.gen_range(1.0..4.0f64).floor());
                    }
                }
            }
            for u in 20..24 {
                g.add_edge(VertexId(u), VertexId(u + 1), 1.0);
            }
            graphs.push(g);
        }
        graphs
    }

    #[test]
    fn ball_orders_rounding_ties_by_vertex_id() {
        let csr = CsrGraph::from(&rounding_tie_graph());
        let expected = [
            (0, 0.0),
            (3, 1e17),
            (5, 1e17),
            (1, 2e17),
            (2, 3e17),
            (4, 4e17),
        ]
        .map(|(v, d)| (VertexId(v), d));
        let mut e = DijkstraEngine::new();
        assert_eq!(e.ball(&csr, VertexId(0), f64::INFINITY), &expected[..]);
        assert_eq!(e.ball(&csr, VertexId(0), 1e17), &expected[..3]);
        assert_eq!(e.k_nearest_with_ties(&csr, VertexId(0), 2), &expected[..3]);
        let tree = e.owned_shortest_path_tree(&csr, VertexId(0), &TreeNeed::everything());
        assert_eq!(tree.members_within(f64::INFINITY), Some(&expected[..]));
    }

    #[test]
    fn k_nearest_with_ties_is_the_ball_prefix_through_the_kth_distance() {
        for (i, g) in stop_rule_graphs().iter().enumerate() {
            let csr = CsrGraph::from(g);
            let n = g.num_vertices();
            let mut e = DijkstraEngine::new();
            for s in (0..n).map(VertexId) {
                for k in 0..=n + 1 {
                    let full = e.ball(&csr, s, f64::INFINITY).to_vec();
                    let prefix = e.k_nearest_with_ties(&csr, s, k).to_vec();
                    let head = k.min(full.len());
                    assert_eq!(&prefix[..head.min(prefix.len())], &full[..head]);
                    // Exactly the vertices at or below the k-th distance:
                    // every tie at that distance, and nothing further.
                    let through_kth: Vec<_> = match head {
                        0 => Vec::new(),
                        h => full
                            .iter()
                            .copied()
                            .filter(|p| p.1 <= full[h - 1].1)
                            .collect(),
                    };
                    assert_eq!(prefix, through_kth, "graph {i} s={s:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_stops_at_the_first_pop_past_the_kth_distance() {
        // A unit path 0-1-…-9: k = 3 from 0 settles {0, 1, 2}, then pops
        // vertex 3 at key 3 > 2 and stops. k = 0 stops at the first pop.
        let g = WeightedGraph::from_edges(10, (1..10).map(|v| (v - 1, v, 1.0))).unwrap();
        let csr = CsrGraph::from(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(e.k_nearest_with_ties(&csr, VertexId(0), 3).len(), 3);
        assert_eq!(e.stats().settled_vertices, 3);
        assert_eq!(e.stats().heap_pops, 4);
        let before = e.stats();
        assert!(e.k_nearest_with_ties(&csr, VertexId(0), 0).is_empty());
        assert_eq!(e.stats().settled_vertices, before.settled_vertices);
        assert_eq!(e.stats().heap_pops - before.heap_pops, 1);
    }

    #[test]
    fn target_terminated_path_equals_the_tree_path() {
        for (i, g) in stop_rule_graphs().iter().enumerate() {
            let csr = CsrGraph::from(g);
            let n = g.num_vertices();
            let mut e = DijkstraEngine::new();
            for s in (0..n).map(VertexId) {
                for t in (0..n).map(VertexId) {
                    let tree = e.shortest_path_tree(&csr, s);
                    let expected = tree
                        .distance(t)
                        .map(|d| (d, tree.path_to(t).expect("reachable")));
                    assert_eq!(
                        e.shortest_path(&csr, s, t),
                        expected,
                        "graph {i} {s:?}->{t:?}"
                    );
                }
            }
            if i > 0 {
                // The random graphs' isolated last vertex is unreachable.
                assert_eq!(e.shortest_path(&csr, VertexId(0), VertexId(n - 1)), None);
            }
        }
    }

    /// The tree the cache once built by scanning every vertex stamp and
    /// sorting, in the sparse layout: the reference for the settle-order
    /// construction. The index comes out of a dense vertex-to-slot map
    /// scanned in vertex order instead of a sort.
    fn scan_and_sort(tree: &EngineTree<'_>) -> SptTree {
        let n = tree.num_vertices();
        let mut members = Vec::new();
        for v in 0..n {
            if let Some(d) = tree.distance(VertexId(v)) {
                members.push((VertexId(v), d));
            }
        }
        members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut slot_of = vec![NO_VERTEX; n];
        for (slot, &(v, _)) in members.iter().enumerate() {
            slot_of[v.index()] = slot as u32;
        }
        let parents = members
            .iter()
            .map(|&(v, _)| tree.engine.parent[v.index()])
            .collect();
        let index = (0..n)
            .filter(|&v| slot_of[v] != NO_VERTEX)
            .map(|v| index_entry(v, slot_of[v] as usize))
            .collect();
        SptTree {
            source: tree.source(),
            num_vertices: n,
            members,
            parents,
            index,
            complete_through: f64::INFINITY,
        }
    }

    #[test]
    fn owned_tree_from_the_settle_order_equals_the_scan_and_sort_tree() {
        for (i, g) in stop_rule_graphs().iter().enumerate() {
            let csr = CsrGraph::from(g);
            let mut e = DijkstraEngine::new();
            for s in (0..g.num_vertices()).map(VertexId) {
                let owned = e.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
                assert_eq!(
                    owned,
                    scan_and_sort(&e.shortest_path_tree(&csr, s)),
                    "graph {i} s={s:?}"
                );
            }
        }
    }

    /// Needs that probe every stop trigger from `s`, built from its full
    /// tree: nothing; each k; each radius at and between reached
    /// distances; each target unbounded, at its exact distance and just
    /// below it; and mixes of the three.
    fn probe_needs(full: &SptTree, n: usize) -> Vec<TreeNeed> {
        let all = full.members_within(f64::INFINITY).unwrap();
        let mut needs = vec![TreeNeed::new()];
        for k in [1, 2, n / 2, n + 1] {
            let mut need = TreeNeed::new();
            need.add_k_nearest(k);
            needs.push(need);
        }
        for &(_, d) in all.iter().step_by(3) {
            for radius in [d, d * 1.5 + 0.5] {
                let mut need = TreeNeed::new();
                need.add_radius(radius);
                needs.push(need);
            }
        }
        for t in (0..n).map(VertexId) {
            let exact = full.distance(t).unwrap();
            for bound in [Some(f64::INFINITY), exact, exact.map(|d| d * 0.5)] {
                let mut need = TreeNeed::new();
                need.add_target(t, bound.unwrap_or(1.0));
                if t.index() % 3 == 0 {
                    need.add_k_nearest(t.index() % 5);
                    need.add_radius(exact.unwrap_or(2.0) * 0.5);
                    need.add_target(VertexId((t.index() + 7) % n), 2.0);
                }
                needs.push(need);
            }
        }
        needs
    }

    #[test]
    fn prefix_trees_are_the_full_tree_through_complete_through() {
        for (i, g) in stop_rule_graphs().iter().enumerate() {
            let csr = CsrGraph::from(g);
            let n = g.num_vertices();
            let mut e = DijkstraEngine::new();
            let mut reference = DijkstraEngine::new();
            for s in (0..n).map(VertexId) {
                let full = reference.owned_shortest_path_tree(&csr, s, &TreeNeed::everything());
                let all = full.members_within(f64::INFINITY).unwrap();
                for need in probe_needs(&full, n) {
                    let a = e.owned_shortest_path_tree(&csr, s, &need);
                    let at = format!("graph {i} s={s:?} {need:?}");
                    let d = a.complete_through();
                    assert!(a.covers(&need), "{at}: a tree must cover its own need");
                    // Exactly the full tree's members at distance <= D.
                    let through: Vec<_> = all.iter().copied().filter(|m| m.1 <= d).collect();
                    assert_eq!(a.members, through, "{at}");
                    assert_eq!(a.members_within(d), Some(&through[..]), "{at}");
                    // Every covered answer is the full tree's, bit for bit.
                    for v in (0..n).map(VertexId) {
                        if let Some(path) = a.shortest_path(v) {
                            assert_eq!(Some(path), full.shortest_path(v), "{at} v={v:?}");
                        }
                        for bound in [0.0, 1.0, 2.5, d, f64::INFINITY] {
                            if let Some(got) = a.distance_within(v, bound) {
                                assert_eq!(Some(got), full.distance_within(v, bound), "{at}");
                            }
                        }
                    }
                    for k in 0..=n + 1 {
                        if let Some(got) = a.k_nearest_with_ties(k) {
                            assert_eq!(Some(got), full.k_nearest_with_ties(k), "{at} k={k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_coverage_holds_exactly_at_each_boundary() {
        // A unit path 0-1-…-5, a star 6-{7, 8, 9} with 9-10 hanging off
        // it, and an isolated vertex 11.
        let mut edges: Vec<(usize, usize, f64)> = (1..6).map(|v| (v - 1, v, 1.0)).collect();
        edges.extend([(6, 7, 1.0), (6, 8, 1.0), (6, 9, 1.0), (9, 10, 1.0)]);
        let csr = CsrGraph::from(&WeightedGraph::from_edges(12, edges).unwrap());
        let need = |targets: &[(usize, f64)], k: usize, radius: f64| {
            let mut need = TreeNeed::new();
            for &(t, bound) in targets {
                need.add_target(VertexId(t), bound);
            }
            need.add_k_nearest(k);
            need.add_radius(radius);
            need
        };
        let none = f64::NEG_INFINITY;
        let mut e = DijkstraEngine::new();
        // bound = D: target 5 lies past the bound, resolved at the
        // settle of 3 (d = 3); the prefix stops at the pop of 4.
        let before = e.stats();
        let tree = e.owned_shortest_path_tree(&csr, VertexId(0), &need(&[(5, 3.0)], 0, none));
        assert_eq!(e.stats().settled_vertices - before.settled_vertices, 4);
        assert_eq!(e.stats().heap_pops - before.heap_pops, 5);
        assert_eq!(tree.complete_through(), 3.0);
        assert_eq!(tree.distance_within(VertexId(5), 3.0), Some(None));
        assert_eq!(tree.distance_within(VertexId(3), 3.0), Some(Some(3.0)));
        assert_eq!(tree.distance_within(VertexId(5), 3.5), None);
        assert_eq!(tree.distance(VertexId(5)), None);
        assert_eq!(tree.shortest_path(VertexId(4)), None);
        // radius = D.
        let tree = e.owned_shortest_path_tree(&csr, VertexId(0), &need(&[], 0, 2.0));
        assert_eq!(tree.complete_through(), 2.0);
        assert_eq!(tree.members_within(2.0).map(<[_]>::len), Some(3));
        assert_eq!(tree.members_within(2.0 + 1e-9), None);
        assert_eq!(tree.k_nearest_with_ties(3).map(<[_]>::len), Some(3));
        assert_eq!(tree.k_nearest_with_ties(4), None);
        // The k-th vertex ties at D: k = 2 from the star's centre
        // settles 7 at d = 1, then drains the ties 8 and 9.
        let tree = e.owned_shortest_path_tree(&csr, VertexId(6), &need(&[], 2, none));
        assert_eq!(tree.complete_through(), 1.0);
        let star = [(6, 0.0), (7, 1.0), (8, 1.0), (9, 1.0)].map(|(v, d)| (VertexId(v), d));
        for k in 2..=4 {
            assert_eq!(tree.k_nearest_with_ties(k), Some(&star[..]), "k={k}");
        }
        assert_eq!(tree.k_nearest_with_ties(5), None);
        assert_eq!(tree.distance(VertexId(10)), None);
        // An unreachable target: the search runs dry, D = ∞, and the
        // prefix is the whole component.
        let tree =
            e.owned_shortest_path_tree(&csr, VertexId(6), &need(&[(11, f64::INFINITY)], 0, none));
        assert_eq!(tree.complete_through(), f64::INFINITY);
        assert_eq!(tree.distance(VertexId(11)), Some(None));
        assert_eq!(tree.shortest_path(VertexId(11)), Some(None));
        assert_eq!(tree.k_nearest_with_ties(100).map(<[_]>::len), Some(5));
        assert!(tree.covers(&TreeNeed::everything()));
        // Nothing needed: nothing settles, nothing is covered but k = 0.
        let tree = e.owned_shortest_path_tree(&csr, VertexId(0), &TreeNeed::new());
        assert_eq!(tree.complete_through(), f64::NEG_INFINITY);
        assert_eq!(tree.distance(VertexId(0)), None);
        assert_eq!(tree.members_within(0.0), None);
        assert_eq!(tree.k_nearest_with_ties(0), Some(&[][..]));
        assert!(!tree.covers(&need(&[], 1, none)));
    }

    #[test]
    fn engine_stats_merge_aggregates_every_field() {
        // Struct literals without `..`: a new counter fails to compile here
        // until the merge (and this test) account for it. The kernel block
        // is always zero.
        let mut a = EngineStats {
            queries: 1,
            reuse_hits: 2,
            heap_pops: 3,
            settled_vertices: 4,
            pruned_by_bound: 5,
            peak_frontier: 60,
            generation_wraps: 7,
            bidirectional_fallbacks: 8,
            reopened: 12,
            path_fallbacks: 13,
            kernel: KernelStats::default(),
        };
        let b = EngineStats {
            queries: 100,
            reuse_hits: 200,
            heap_pops: 300,
            settled_vertices: 400,
            pruned_by_bound: 500,
            peak_frontier: 6,
            generation_wraps: 700,
            bidirectional_fallbacks: 800,
            reopened: 1200,
            path_fallbacks: 1300,
            kernel: KernelStats::default(),
        };
        a.merge(&b);
        assert_eq!(
            a,
            EngineStats {
                queries: 101,
                reuse_hits: 202,
                heap_pops: 303,
                settled_vertices: 404,
                pruned_by_bound: 505,
                peak_frontier: 60,
                generation_wraps: 707,
                bidirectional_fallbacks: 808,
                reopened: 1212,
                path_fallbacks: 1313,
                kernel: KernelStats::default(),
            }
        );
    }

    /// A path of decimal weights: the one-sided distance from one end to
    /// the other, and a fresh engine's counters after asking `within_bound`
    /// at `bound`.
    fn decimal_path_query(bound_of: impl Fn(f64) -> f64) -> (f64, bool, EngineStats) {
        let weights = [0.1, 0.7, 0.3, 0.1, 0.2, 0.9, 0.1, 0.3];
        let g = WeightedGraph::from_edges(
            weights.len() + 1,
            weights.iter().enumerate().map(|(i, &w)| (i, i + 1, w)),
        )
        .unwrap();
        let csr = CsrGraph::from(&g);
        let (s, t) = (VertexId(0), VertexId(weights.len()));
        let mut e = DijkstraEngine::with_capacity_for(g.num_vertices(), g.num_edges());
        let d = e.bounded_distance(&csr, s, t, f64::INFINITY).unwrap();
        e.reset_stats();
        let within = e.within_bound(&csr, s, t, bound_of(d));
        (d, within, e.stats())
    }

    #[test]
    fn only_admission_queries_size_the_bidirectional_arrays() {
        let mut rng = SmallRng::seed_from_u64(14);
        let g = crate::generators::erdos_renyi_connected(60, 0.1, 1.0..10.0, &mut rng);
        let csr = CsrGraph::from(&g);
        let mut engine = DijkstraEngine::with_capacity_for(60, g.num_edges());
        // A serving engine: trees, balls and point queries touch only the
        // 20 bytes per vertex of the one-sided search.
        engine.shortest_path_tree(&csr, VertexId(3));
        engine.ball(&csr, VertexId(5), 4.0);
        engine.bounded_distance(&csr, VertexId(1), VertexId(40), 9.0);
        assert_eq!(engine.dist_b.len(), 0);
        assert_eq!(engine.parent_slot.len(), 0);
        // An admission query sizes the bidirectional arrays, a witness
        // query the witness slots too, all inside the reservation.
        engine.within_bound(&csr, VertexId(1), VertexId(40), 9.0);
        assert_eq!(engine.state_b.len(), 60);
        assert_eq!(engine.chain_slot.len(), 0);
        let (mut walk, mut reads) = (Vec::new(), Vec::new());
        engine.within_bound_witness(&csr, VertexId(1), VertexId(40), 9.0, &mut walk, &mut reads);
        assert_eq!(engine.chain_slot.len(), 60);
        let stats = engine.stats();
        assert_eq!(
            stats.reuse_hits, stats.queries,
            "a pre-sized engine allocated"
        );
        // The wrap reset clears exactly the sized stamps, and answers hold.
        engine.force_generation_wrap();
        let want = engine.bounded_distance(&csr, VertexId(7), VertexId(50), 12.0);
        engine.force_generation_wrap();
        let got = engine.within_bound_witness(
            &csr,
            VertexId(7),
            VertexId(50),
            12.0,
            &mut walk,
            &mut reads,
        );
        assert_eq!(got, want.is_some());
        assert_eq!(engine.stats().generation_wraps, 2);
    }

    #[test]
    fn within_bound_falls_back_inside_the_rounding_band() {
        // Just below the exact distance, the halves meet on a path whose
        // certificate is `d > bound` yet whose estimate is within the
        // relaxed bound: only the one-sided search can decide.
        let (_, within, stats) = decimal_path_query(f64::next_down);
        assert!(!within);
        assert_eq!(stats.bidirectional_fallbacks, 1);
        assert_eq!(stats.queries, 1, "the fallback is part of the same query");
        assert_eq!(stats.reuse_hits, 1, "the fallback must not allocate");
        // At the exact distance the meeting certificate accepts outright.
        let (_, within, stats) = decimal_path_query(|d| d);
        assert!(within);
        assert_eq!(stats.bidirectional_fallbacks, 0);
        // Far below it the queue tops pass the relaxed bound first.
        let (_, within, stats) = decimal_path_query(|d| d * 0.5);
        assert!(!within);
        assert_eq!(stats.bidirectional_fallbacks, 0);
    }

    #[test]
    fn within_bound_matches_bounded_distance_across_a_wrap_and_reuses_the_workspace() {
        let mut rng = SmallRng::seed_from_u64(14);
        let g = crate::generators::erdos_renyi_connected(60, 0.15, 1.0..4.0, &mut rng);
        let csr = CsrGraph::from(&g);
        let mut plain = DijkstraEngine::new();
        let mut bidi = DijkstraEngine::with_capacity_for(g.num_vertices(), g.num_edges());
        for round in 0..2 {
            if round == 1 {
                bidi.force_generation_wrap();
            }
            for _ in 0..300 {
                let s = VertexId(rng.gen_range(0..60));
                let t = VertexId(rng.gen_range(0..60));
                let bound = rng.gen_range(0.0..8.0);
                assert_eq!(
                    bidi.within_bound(&csr, s, t, bound),
                    plain.bounded_distance(&csr, s, t, bound).is_some(),
                    "{s:?} -> {t:?} within {bound}"
                );
            }
        }
        let stats = bidi.stats();
        assert_eq!(stats.generation_wraps, 1);
        assert_eq!(stats.queries, 600);
        assert_eq!(stats.reuse_hits, stats.queries);
        assert!(stats.settled_vertices < plain.stats().settled_vertices);
    }
}
