//! The greedy spanner — Algorithm 1 of the paper.
//!
//! ```text
//! Greedy(G = (V, E, w), t):
//!   H = (V, ∅, w)
//!   for each edge (u, v) ∈ E, in non-decreasing order of weight:
//!     if δ_H(u, v) > t · w(u, v):  add (u, v) to E(H)
//!   return H
//! ```
//!
//! The test `δ_H(u, v) ≤ t · w(u, v)` is one decision query,
//! [`DijkstraEngine::within_bound`]: a bidirectional Dijkstra search that
//! grows balls of radius about `t·w / 2` from both endpoints instead of one
//! ball of radius `t·w` from `u`, and answers exactly what the one-sided
//! bounded search `bounded_distance(u, v, t·w).is_some()` would — it accepts
//! only on a meeting path whose left-to-right sum from `u` is `≤ t·w`,
//! rejects only once the queue tops pass `t·w·(1 + 4ρ)`,
//! `ρ = path_rounding_margin(n − 1)`, with no meeting path below that, and
//! falls back to the one-sided search in the rounding band between. On the
//! er2000 2-spanner stream that settles ~36× fewer vertices; on a planar
//! grid about 2× fewer. With ties broken deterministically the output is
//! the canonical greedy spanner studied by the paper.
//!
//! # Cross-component candidates skip the query
//!
//! Every loop here keeps a [`UnionFind`] over the spanner's components,
//! seeded from the edges the spanner already holds (the live spanner's
//! insertions and approximate greedy's simulation start from a non-empty
//! one). A candidate whose endpoints lie in different components is
//! admitted with no query: these are exactly Kruskal's edges, which is why
//! the greedy spanner contains a minimum spanning tree, and on a sparse
//! input they are a large share of all candidates (89,999 of 179,400 on a
//! 300 × 300 grid at `t = 3`).
//!
//! The skip is exact, not a heuristic. With no `u`–`v` path in the spanner,
//! the minimum over paths of the left-to-right sums that the admission
//! query decides on is `+∞`, and `+∞ > fl(t·w)` for every bound; that is
//! the verdict [`DijkstraEngine::within_bound`] returns for `u ≠ v` (a NaN
//! or negative bound also answers "not within"). So the skip admits exactly
//! the edges the query would, and the output stays bit-identical to
//! [`greedy_spanner_reference`], which still queries every candidate. On
//! the sequential path the construction therefore issues `m − (n − c)`
//! queries, `c` being the number of connected components of the input.
//!
//! # Stored witnesses skip the query too
//!
//! A live rebuild (see [`crate::update`]) runs greedy again over an input
//! that differs from the last one by a few edges. Its loop gets
//! a `WitnessReuse`: for each candidate the last rebuild rejected, the
//! covering walk [`DijkstraEngine::within_bound_witness`] certified, as
//! edge ids of the live original. A candidate whose stored walk uses only
//! candidates already admitted in this run, and whose left-to-right weight
//! sum `W` from the candidate's first endpoint is `≤ fl(t·w)`, is rejected
//! with no query. This is the second query-free rule, and as exact as the
//! first: the walk lies in the spanner, and the query's `D` is the minimum
//! over walks of exactly such sums (the accept-certificate argument of
//! `greedy_into`), so `D ≤ W ≤ fl(t·w)` and the query would reject too.
//! Fresh builds pass no witnesses and run the plain query.
//!
//! The spanner is a subgraph of its candidates, so the constructions open
//! it with each row reserved at the vertex's candidate degree
//! ([`CsrGraph::with_row_capacity`]): every append writes into its reserved
//! slots and no row of the growing spanner ever moves.
//!
//! # The batched filter-then-commit loop, for metric inputs
//!
//! Graph inputs (plain, sharded and live) run the sequential loop at every
//! thread count: their queries cost microseconds, and the parallel loop
//! lost to it on every graph measured. Metric inputs (exact metric greedy,
//! approximate greedy's simulation) ask far costlier queries, and with more
//! than one worker run `filter_commit_greedy`. It exploits that commits
//! are *rare* (most candidates are rejected) and rejections are monotone:
//! adding edges only shrinks distances, so a candidate covered by a
//! *frozen* snapshot of the spanner is certainly covered by every later
//! state.
//!
//! 1. **Batch.** Cut the sorted candidates into weight-class batches
//!    (weights within a constant ratio, capped in size — boundaries depend
//!    only on the weights, never on the thread count).
//! 2. **Filter.** Freeze the spanner ([`CsrGraph::snapshot`]) and fan the
//!    batch's bounded queries across an [`EnginePool`] of per-worker
//!    engines. A candidate the frozen spanner covers is rejected for good.
//!    Candidates whose endpoints the snapshot leaves in different
//!    components are not queried: the snapshot cannot cover them.
//! 3. **Commit.** Walk the survivors *in candidate order*: a survivor whose
//!    endpoints are still in different components of the live spanner is
//!    committed outright, and so is the first survivor (the snapshot was
//!    exact for it); each other survivor is re-checked with one exact query
//!    against the live spanner, which differs from the snapshot only by
//!    edges committed earlier in the same batch. A re-check that finds
//!    coverage counts as a *batch recheck hit*.
//!
//! Every kept edge therefore passes the very test the sequential loop would
//! have applied, in the same order — the output is **bit-identical to the
//! sequential greedy at every thread count**, which the property suite
//! asserts against [`greedy_spanner_reference`].

use spanner_graph::dijkstra::bounded_distance_with_frontier;
use spanner_graph::parallel::EnginePool;
use spanner_graph::{CsrGraph, DijkstraEngine, EdgeId, UnionFind, VertexId, WeightedGraph};

use crate::error::{validate_stretch, SpannerError};

/// Candidates within this factor of a batch's lightest weight share the
/// batch: they are unlikely to cover each other, so the frozen-snapshot
/// filter is rarely stale for them.
const BATCH_WEIGHT_RATIO: f64 = 1.25;

/// Hard cap on batch size, bounding how stale the frozen snapshot can get
/// (and with it the re-check work) on graphs with many near-equal weights.
const MAX_BATCH_EDGES: usize = 512;

/// The outcome of a greedy spanner construction: the spanner itself plus
/// bookkeeping that the experiments report (how many edges were examined,
/// kept, and how many distance queries ran).
#[derive(Debug, Clone)]
pub struct GreedySpanner {
    spanner: WeightedGraph,
    stretch: f64,
    edges_examined: usize,
    edges_added: usize,
    peak_frontier: usize,
    distance_queries: usize,
    workspace_reuse_hits: usize,
    batches: usize,
    batch_recheck_hits: usize,
    threads_used: usize,
    worker_utilization: f64,
    added_edge_ids: Vec<EdgeId>,
}

impl GreedySpanner {
    /// The spanner subgraph `H ⊆ G` (same vertex set as the input).
    pub fn spanner(&self) -> &WeightedGraph {
        &self.spanner
    }

    /// Consumes the result and returns the spanner graph.
    pub fn into_spanner(self) -> WeightedGraph {
        self.spanner
    }

    /// The stretch parameter `t` the construction ran with.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// Number of candidate edges examined (all edges of the input graph).
    pub fn edges_examined(&self) -> usize {
        self.edges_examined
    }

    /// Number of edges added to the spanner.
    pub fn edges_added(&self) -> usize {
        self.edges_added
    }

    /// Peak Dijkstra frontier over all distance queries the construction
    /// issued: the priority-queue length, with the forward and backward
    /// queues of a [`DijkstraEngine::within_bound`] admission query counted
    /// together (the reference loop's one-sided queries have one queue).
    pub fn peak_frontier(&self) -> usize {
        self.peak_frontier
    }

    /// Number of bounded distance queries issued against the (frozen or
    /// live) spanner: one per candidate edge whose endpoints the spanner
    /// already connects (cross-component candidates are admitted without
    /// one, see the module docs), plus one exact re-check per batch survivor
    /// that followed a commit in the same batch. On the sequential path
    /// that is exactly `edges_examined − (n − c)`, `c` being the number of
    /// connected components of the input; the reference loop queries every
    /// candidate.
    pub fn distance_queries(&self) -> usize {
        self.distance_queries
    }

    /// Number of distance queries the engine answered without growing its
    /// workspace — i.e. with zero heap allocations. On the engine-backed
    /// path this equals [`GreedySpanner::distance_queries`]; the
    /// allocation-per-query reference path reports zero.
    pub fn workspace_reuse_hits(&self) -> usize {
        self.workspace_reuse_hits
    }

    /// Weight-class batches the filter-then-commit loop processed (zero on
    /// the sequential loop, which every graph input runs).
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Filter survivors rejected by the exact commit re-check — i.e.
    /// covered only by edges committed earlier in their own batch.
    pub fn batch_recheck_hits(&self) -> usize {
        self.batch_recheck_hits
    }

    /// Worker threads the construction ran with (1 = sequential path).
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Mean busy fraction of the engine pool's workers across the parallel
    /// filter phases (1.0 on the sequential path).
    pub fn worker_utilization(&self) -> f64 {
        self.worker_utilization
    }

    /// Ids (into the *input* graph) of the edges that were kept, in the order
    /// the greedy algorithm added them.
    pub fn added_edge_ids(&self) -> &[EdgeId] {
        &self.added_edge_ids
    }
}

/// What one greedy pass ([`greedy_pass`]) added and counted.
pub(crate) struct GreedyPass {
    /// Indices (into the candidate slice) of the kept edges, in commit
    /// order.
    pub added: Vec<usize>,
    /// Weight-class batches processed (0 on the sequential loop).
    pub batches: usize,
    /// Survivors rejected by the exact commit re-check.
    pub recheck_hits: usize,
}

/// The greedy pass of a construction over `candidates` (the contract of
/// [`greedy_into`]), appending the kept edges to `spanner`: the sequential
/// loop on the commit engine of a one-worker `pool`, [`filter_commit_greedy`]
/// otherwise — the same edges either way. Only metric inputs open a pool of
/// more than one worker (see the module docs).
pub(crate) fn greedy_pass(
    spanner: &mut CsrGraph,
    pool: &mut EnginePool,
    candidates: &[(u32, u32, f64)],
    t: f64,
) -> GreedyPass {
    if pool.workers() > 1 {
        return filter_commit_greedy(spanner, pool, candidates, t);
    }
    GreedyPass {
        added: greedy_into(spanner, pool.commit_engine(), candidates, t, None),
        batches: 0,
        recheck_hits: 0,
    }
}

/// A union-find over `spanner`'s components, seeded from its live edges.
fn components_of(spanner: &CsrGraph) -> UnionFind {
    let mut components = UnionFind::new(spanner.num_vertices());
    for (_, u, v, _) in spanner.live_edges() {
        components.union(u.index(), v.index());
    }
    components
}

/// The batched filter-then-commit greedy loop (see the module docs) on
/// `pool`, over `candidates` in greedy order (the contract of
/// [`greedy_into`]). Kept edges are appended to `spanner` in candidate
/// order, exactly as the sequential greedy would, and a candidate across
/// the spanner's components is admitted without a query.
fn filter_commit_greedy(
    spanner: &mut CsrGraph,
    pool: &mut EnginePool,
    candidates: &[(u32, u32, f64)],
    t: f64,
) -> GreedyPass {
    let mut components = components_of(spanner);
    let mut added = Vec::new();
    let mut covered: Vec<bool> = Vec::new();
    let mut connected: Vec<usize> = Vec::new();
    let mut verdicts: Vec<bool> = Vec::new();
    let mut batches = 0usize;
    let mut recheck_hits = 0usize;
    let mut start = 0usize;
    while start < candidates.len() {
        // Weight-class cut: thread-count-independent by construction.
        let ceiling = candidates[start].2 * BATCH_WEIGHT_RATIO;
        let mut end = start + 1;
        while end < candidates.len()
            && end - start < MAX_BATCH_EDGES
            && candidates[end].2 <= ceiling
        {
            end += 1;
        }
        let batch = &candidates[start..end];

        // Filter: independent bounded queries against the frozen snapshot,
        // for the candidates whose endpoints it already connects (it cannot
        // cover the others). Coverage here is final — distances only shrink
        // as edges commit. That holds bit-exactly in floating point: the
        // admission query decides on the minimum over paths of the
        // left-to-right sum along each path, and adding edges only adds
        // paths to that minimum. The admission comparison itself is exact;
        // see `greedy_into` for its error argument.
        connected.clear();
        connected.extend((0..batch.len()).filter(|&i| {
            let (u, v, _) = batch[i];
            components.find(u as usize) == components.find(v as usize)
        }));
        verdicts.clear();
        verdicts.resize(connected.len(), false);
        pool.map_batch(
            spanner.snapshot(),
            &connected,
            &mut verdicts,
            |engine, frozen, &i| {
                let (u, v, w) = batch[i];
                engine.within_bound(frozen, VertexId(u as usize), VertexId(v as usize), t * w)
            },
        );
        covered.clear();
        covered.resize(batch.len(), false);
        for (&i, &verdict) in connected.iter().zip(&verdicts) {
            covered[i] = verdict;
        }

        // Commit: survivors in candidate order. The live spanner differs
        // from the snapshot only by edges committed earlier in this batch,
        // so a survivor still across components and the first survivor need
        // no re-check, and each other one needs exactly one exact query.
        let mut committed_in_batch = false;
        for (i, &(u, v, w)) in batch.iter().enumerate() {
            if covered[i] {
                continue;
            }
            let across = components.union(u as usize, v as usize);
            if !across
                && committed_in_batch
                && pool.commit_engine().within_bound(
                    spanner,
                    VertexId(u as usize),
                    VertexId(v as usize),
                    t * w,
                )
            {
                recheck_hits += 1;
                continue;
            }
            spanner.append_edge(VertexId(u as usize), VertexId(v as usize), w);
            added.push(start + i);
            committed_in_batch = true;
        }
        batches += 1;
        start = end;
    }
    GreedyPass {
        added,
        batches,
        recheck_hits,
    }
}

/// Longest witness a [`WitnessStore`] keeps, in edges. Covering paths of a
/// `t`-spanner's rejected candidates are short (2–8 edges, none longer, on
/// the `live-churn` benchmark's ER 2-spanner); a longer one is simply not
/// stored, and its candidate is queried at the next rebuild.
const MAX_WITNESS_EDGES: usize = 8;

/// Covering paths ("witnesses") of rejected greedy candidates, keyed by
/// the candidate's edge id in a live original: each is a walk of edge ids
/// from the candidate's first endpoint to its second, as
/// [`DijkstraEngine::within_bound_witness`] certified it (see the module
/// docs). The live spanner keeps one across rebuilds and remaps its ids at
/// every generation compaction.
#[derive(Debug, Clone, Default)]
pub(crate) struct WitnessStore {
    /// `spans[id]` is the range of `path` holding edge `id`'s witness
    /// (empty: none stored).
    spans: Vec<(u32, u32)>,
    path: Vec<u32>,
}

impl WitnessStore {
    /// An empty store for edge ids below `id_bound`.
    fn with_ids(id_bound: usize) -> Self {
        WitnessStore {
            spans: vec![(0, 0); id_bound],
            path: Vec::new(),
        }
    }

    /// Edge `id`'s witness; empty when none is stored.
    fn get(&self, id: u32) -> &[u32] {
        self.spans
            .get(id as usize)
            .map_or(&[], |&(a, b)| &self.path[a as usize..b as usize])
    }

    /// Stores `walk` as edge `id`'s witness.
    fn push(&mut self, id: u32, walk: impl IntoIterator<Item = u32>) {
        let start = self.path.len() as u32;
        self.path.extend(walk);
        self.spans[id as usize] = (start, self.path.len() as u32);
    }

    /// The store under a generation compaction's old-id → new-id `remap`
    /// (see [`CsrGraph::rebuild_compacted`]): every witness keyed and
    /// spelled in the new ids. A witness through an edge the compaction
    /// dropped could never be reused, so it is dropped too.
    pub(crate) fn remap(&self, remap: &[Option<EdgeId>]) -> WitnessStore {
        let new_id = |old: u32| Some(remap.get(old as usize).copied()??.index() as u32);
        let mut next = WitnessStore::with_ids(remap.iter().flatten().count());
        for (old, new) in remap.iter().enumerate() {
            let walk = self.get(old as u32);
            let renamed: Option<Vec<u32>> = walk.iter().map(|&e| new_id(e)).collect();
            if let (Some(new), Some(renamed)) = (new, renamed) {
                if !renamed.is_empty() {
                    next.push(new.index() as u32, renamed);
                }
            }
        }
        next
    }
}

/// One live rebuild's witness reuse: the previous store, read by the
/// sequential loop of [`greedy_into`] to reject candidates without a
/// search, and the store the rebuild leaves behind.
pub(crate) struct WitnessReuse<'a> {
    /// Edge id (in the live original) of each candidate.
    ids: &'a [u32],
    /// Candidate index of each edge id; `u32::MAX` for an id that is no
    /// candidate (a deleted edge).
    rank: Vec<u32>,
    /// Whether each candidate was admitted so far.
    kept: Vec<bool>,
    previous: WitnessStore,
    /// The witnesses of this rebuild's rejections, reused or fresh.
    pub(crate) next: WitnessStore,
    /// Candidates rejected through `previous`, without a search.
    pub(crate) skips: usize,
}

impl<'a> WitnessReuse<'a> {
    /// Reuse for candidates whose edge ids are `ids` (all below
    /// `id_bound`), reading the `previous` store.
    pub(crate) fn new(ids: &'a [u32], id_bound: usize, previous: WitnessStore) -> Self {
        let mut rank = vec![u32::MAX; id_bound];
        for (i, &id) in ids.iter().enumerate() {
            rank[id as usize] = i as u32;
        }
        WitnessReuse {
            ids,
            rank,
            kept: vec![false; ids.len()],
            previous,
            next: WitnessStore::with_ids(id_bound),
            skips: 0,
        }
    }

    /// Whether candidate `i`'s stored witness still covers it: every edge
    /// already admitted (earlier in this run) and the left-to-right weight
    /// sum `W` within `bound = fl(t·w)`. Then `D ≤ W ≤ bound` (see the
    /// module docs), exactly the rejection the query would return; the
    /// witness carries over to the next store.
    fn covers(&mut self, i: usize, candidates: &[(u32, u32, f64)], bound: f64) -> bool {
        let walk = self.previous.get(self.ids[i]);
        if walk.is_empty() {
            return false;
        }
        let mut sum = 0.0;
        for &e in walk {
            match self.rank.get(e as usize) {
                Some(&r) if r != u32::MAX && self.kept[r as usize] => {
                    sum += candidates[r as usize].2;
                }
                _ => return false,
            }
        }
        // The query's `search_bound`: a sum that overflowed is no path.
        // Neither side is NaN: weights are positive, `t·w` is positive.
        if sum > bound.min(f64::MAX) {
            return false;
        }
        debug_assert!(
            {
                let (u, v, _) = candidates[i];
                let end = walk.iter().try_fold(u, |at, &e| {
                    let (a, b, _) = candidates[self.rank[e as usize] as usize];
                    (at == a).then_some(b).or((at == b).then_some(a))
                });
                end == Some(v)
            },
            "a stored witness is not a walk between its candidate's endpoints"
        );
        self.next.push(self.ids[i], walk.iter().copied());
        self.skips += 1;
        true
    }

    /// Stores the covering walk a query certified for candidate `i`, given
    /// as ids of a spanner grown from empty (spanner edge `k` is candidate
    /// `added[k]`).
    fn record(&mut self, i: usize, walk: &[EdgeId], added: &[usize]) {
        if !walk.is_empty() && walk.len() <= MAX_WITNESS_EDGES {
            let ids = self.ids;
            self.next
                .push(ids[i], walk.iter().map(|e| ids[added[e.index()]]));
        }
    }
}

/// The sequential greedy loop — Algorithm 1 — on `engine`, appending the
/// kept edges to `spanner` and returning their indices into `candidates`.
///
/// `candidates` are `(u, v, weight)` triples sorted by non-decreasing
/// weight with deterministic tie-breaks; every endpoint must be in range
/// for `spanner` and every weight positive and finite (the callers
/// guarantee both). A candidate across the spanner's components is admitted
/// without a query (see the module docs), tracking components in a
/// union-find seeded from the spanner's live edges.
///
/// With `witnesses` (a live rebuild into an empty `spanner`), the loop
/// rejects a candidate whose stored witness still covers it without a
/// query, and asks every other connected candidate through
/// [`DijkstraEngine::within_bound_witness`], storing the walk behind each
/// rejection.
///
/// # The admission comparison `d ≤ t·w`
///
/// An edge is rejected when the spanner distance computed by a one-sided
/// search satisfies `D ≤ fl(t·w)`; the comparison is exact, with no
/// tolerance. Every greedy path (both loops here and
/// [`greedy_spanner_reference`]) evaluates the same `t * w`. The reference
/// computes `D` directly; the engine loops ask
/// [`DijkstraEngine::within_bound`], which returns exactly `D ≤ fl(t·w)`
/// for that same `D` (the minimum over paths of the left-to-right sums;
/// a sum that overflows to `+∞` is no path, even when `t·w` overflows
/// too), or know `D = +∞` from the union-find. So all three make the same
/// decision on every edge, ties included — which is what makes their
/// outputs bit-identical.
///
/// What the exact comparison guarantees in real arithmetic: with
/// `ρ = path_rounding_margin(n − 1)` (a simple path has fewer than `n`
/// edges; see [`spanner_graph::path_rounding_margin`]), a rejected edge's
/// true spanner distance `δ` satisfies `δ ≤ D / (1 − ρ)` and
/// `fl(t·w) ≤ t·w·(1 + 2⁻⁵³)`, so `δ ≤ t·w·(1 + 2ρ)`. The spanner is a
/// `t`-spanner up to that relative error, which is why
/// [`crate::analysis::is_t_spanner`] verifies with a `1e-9` relative
/// tolerance (`≥ 2ρ` for `n ≤ 2²¹`). An admitted edge only means
/// `D > fl(t·w)`; on an exact real tie rounding may admit an edge that
/// exact arithmetic would drop. Admitting an extra edge never breaks the
/// stretch guarantee.
pub(crate) fn greedy_into(
    spanner: &mut CsrGraph,
    engine: &mut DijkstraEngine,
    candidates: &[(u32, u32, f64)],
    t: f64,
    mut witnesses: Option<&mut WitnessReuse<'_>>,
) -> Vec<usize> {
    assert!(
        witnesses.is_none() || spanner.edge_id_bound() == 0,
        "witnesses map spanner edges to candidates, so the spanner must start empty"
    );
    let mut components = components_of(spanner);
    let mut added = Vec::new();
    let mut walk = Vec::new();
    for (i, &(u, v, w)) in candidates.iter().enumerate() {
        let across = components.union(u as usize, v as usize);
        let (u, v) = (VertexId(u as usize), VertexId(v as usize));
        let covered = !across
            && match witnesses.as_deref_mut() {
                None => engine.within_bound(spanner, u, v, t * w),
                Some(witnesses) => {
                    witnesses.covers(i, candidates, t * w) || {
                        let covered = engine.within_bound_witness(spanner, u, v, t * w, &mut walk);
                        witnesses.record(i, &walk, &added);
                        covered
                    }
                }
            };
        if !covered {
            spanner.append_edge(u, v, w);
            added.push(i);
            if let Some(witnesses) = witnesses.as_deref_mut() {
                witnesses.kept[i] = true;
            }
        }
    }
    added
}

/// An edgeless spanner on `num_vertices` vertices whose rows are reserved
/// for the given candidate edges (see [`CsrGraph::with_row_capacity`]): a
/// greedy output is a subgraph of its candidates, so it grows without ever
/// moving a row. The reservation costs 32 bytes per candidate up front,
/// twice the candidate list's own footprint, however few edges the spanner
/// keeps.
pub(crate) fn spanner_for_candidates(
    num_vertices: usize,
    candidates: impl IntoIterator<Item = (u32, u32)>,
) -> CsrGraph {
    let mut degree = vec![0u32; num_vertices];
    for (u, v) in candidates {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    CsrGraph::with_row_capacity(&degree)
}

/// The greedy construction engine behind the `Greedy` implementation of
/// [`crate::algorithm::SpannerAlgorithm`] (reach it through
/// `Spanner::greedy().stretch(t).build(&graph)`).
///
/// The growing spanner is held as an appendable [`CsrGraph`] and every
/// admission query runs through a pre-sized [`EnginePool`], so the hot loop
/// performs zero per-query heap allocations. With `threads <= 1` this is the
/// sequential loop; with `threads > 1` — which only metric inputs ask for —
/// the batched filter-then-commit loop (see the module docs), with the
/// same output, bit for bit.
pub(crate) fn run_greedy(
    graph: &WeightedGraph,
    t: f64,
    threads: usize,
) -> Result<GreedySpanner, SpannerError> {
    validate_stretch(t)?;
    let order = graph.edges_by_weight();
    let candidates: Vec<(u32, u32, f64)> = order
        .iter()
        .map(|&id| {
            let e = graph.edge(id);
            (e.u.index() as u32, e.v.index() as u32, e.weight)
        })
        .collect();
    let mut spanner = spanner_for_candidates(
        graph.num_vertices(),
        candidates.iter().map(|&(u, v, _)| (u, v)),
    );
    let mut pool = EnginePool::with_capacity_for(threads, graph.num_vertices(), graph.num_edges());
    let pass = greedy_pass(&mut spanner, &mut pool, &candidates, t);
    let stats = pool.stats();
    Ok(GreedySpanner {
        spanner: spanner.to_weighted_graph(),
        stretch: t,
        edges_examined: order.len(),
        edges_added: pass.added.len(),
        peak_frontier: stats.peak_frontier,
        distance_queries: stats.queries as usize,
        workspace_reuse_hits: stats.reuse_hits as usize,
        batches: pass.batches,
        batch_recheck_hits: pass.recheck_hits,
        threads_used: pool.workers(),
        worker_utilization: pool.utilization(),
        added_edge_ids: pass.added.iter().map(|&i| order[i]).collect(),
    })
}

/// The pre-CSR greedy loop: identical output, but every distance query runs
/// through the allocating [`bounded_distance_with_frontier`] free function on
/// a [`WeightedGraph`].
///
/// Kept as the reference implementation the engine-backed sequential *and*
/// parallel paths are benchmarked (`substrate_micro`, `greedy_vs_baselines`)
/// and property-tested against. Not deprecated, but not the path the
/// pipeline dispatches to — use [`crate::Spanner::greedy`] for real work.
pub fn greedy_spanner_reference(
    graph: &WeightedGraph,
    t: f64,
) -> Result<GreedySpanner, SpannerError> {
    validate_stretch(t)?;
    let mut spanner = WeightedGraph::empty_like(graph);
    let order = graph.edges_by_weight();
    let mut added_edge_ids = Vec::new();
    let mut peak_frontier = 0usize;
    for id in &order {
        let e = graph.edge(*id);
        let bound = t * e.weight;
        let (distance, frontier) = bounded_distance_with_frontier(&spanner, e.u, e.v, bound);
        peak_frontier = peak_frontier.max(frontier);
        if distance.is_none() {
            spanner.add_edge(e.u, e.v, e.weight);
            added_edge_ids.push(*id);
        }
    }
    Ok(GreedySpanner {
        spanner,
        stretch: t,
        edges_examined: order.len(),
        edges_added: added_edge_ids.len(),
        peak_frontier,
        distance_queries: order.len(),
        workspace_reuse_hits: 0,
        batches: 0,
        batch_recheck_hits: 0,
        threads_used: 1,
        worker_utilization: 1.0,
        added_edge_ids,
    })
}

/// Runs the greedy algorithm restricted to a caller-supplied candidate edge
/// order: the shared sequential greedy loop, after validating the input.
///
/// `candidates` are `(u, v, weight)` triples that must already be sorted by
/// non-decreasing weight; `num_vertices` fixes the vertex set. Edges for which
/// the current spanner distance is at most `t · weight` are skipped, and so
/// are self-loops (always covered, at distance 0).
///
/// # Errors
///
/// Returns [`SpannerError::InvalidStretch`] for an invalid `t`, or a graph
/// error if a candidate edge is invalid.
pub fn greedy_over_candidates(
    num_vertices: usize,
    candidates: &[(usize, usize, f64)],
    t: f64,
) -> Result<WeightedGraph, SpannerError> {
    validate_stretch(t)?;
    let mut kept = Vec::with_capacity(candidates.len());
    for &(u, v, w) in candidates {
        if u >= num_vertices || v >= num_vertices {
            return Err(spanner_graph::GraphError::VertexOutOfRange {
                vertex: u.max(v),
                num_vertices,
            }
            .into());
        }
        if u == v {
            continue;
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(spanner_graph::GraphError::InvalidWeight { weight: w }.into());
        }
        kept.push((u as u32, v as u32, w));
    }
    let mut spanner = spanner_for_candidates(num_vertices, kept.iter().map(|&(u, v, _)| (u, v)));
    let mut engine = DijkstraEngine::with_capacity_for(num_vertices, kept.len());
    greedy_into(&mut spanner, &mut engine, &kept, t, None);
    Ok(spanner.to_weighted_graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_t_spanner, max_stretch_over_edges};
    use crate::optimality::contains_mst;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spanner_graph::connectivity::connected_components;
    use spanner_graph::generators::{
        complete_graph_with_weights, erdos_renyi_connected, petersen_graph,
    };
    use spanner_graph::mst::mst_weight;

    #[test]
    fn rejects_invalid_stretch() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        for threads in [1, 4] {
            assert!(matches!(
                run_greedy(&g, 0.5, threads),
                Err(SpannerError::InvalidStretch { .. })
            ));
            assert!(matches!(
                run_greedy(&g, f64::NAN, threads),
                Err(SpannerError::InvalidStretch { .. })
            ));
        }
    }

    #[test]
    fn triangle_drops_covered_edge() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)]).unwrap();
        let r = run_greedy(&g, 2.0, 1).unwrap();
        assert_eq!(r.edges_added(), 2);
        assert_eq!(r.edges_examined(), 3);
        assert!(!r.spanner().has_edge(0.into(), 2.into()));
    }

    #[test]
    fn stretch_one_keeps_only_non_redundant_edges() {
        // With t = 1 an edge is dropped only if an equally light path exists.
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)]).unwrap();
        let r = run_greedy(&g, 1.0, 1).unwrap();
        assert_eq!(r.spanner().num_edges(), 2);
    }

    #[test]
    fn infinite_effective_stretch_keeps_spanning_tree_only() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = complete_graph_with_weights(12, 1.0..2.0, &mut rng);
        // t larger than any possible detour ratio: only MST edges survive.
        let r = run_greedy(&g, 1e6, 1).unwrap();
        assert_eq!(r.spanner().num_edges(), 11);
        assert!((r.spanner().total_weight() - mst_weight(&g)).abs() < 1e-9);
    }

    #[test]
    fn output_is_a_t_spanner_and_contains_mst() {
        let mut rng = SmallRng::seed_from_u64(3);
        for t in [1.5, 2.0, 3.0, 5.0] {
            let g = erdos_renyi_connected(40, 0.25, 1.0..10.0, &mut rng);
            let r = run_greedy(&g, t, 1).unwrap();
            assert!(is_t_spanner(&g, r.spanner(), t), "t = {t}");
            assert!(contains_mst(&g, r.spanner()), "t = {t}");
            assert!(r.spanner().is_edge_subgraph_of(&g));
        }
    }

    #[test]
    fn petersen_greedy_3_spanner_keeps_every_edge() {
        // Girth 5 means no edge has a 3-spanner detour among lighter edges.
        let g = petersen_graph(1.0);
        let r = run_greedy(&g, 3.0, 1).unwrap();
        assert_eq!(r.spanner().num_edges(), 15);
    }

    #[test]
    fn larger_stretch_never_adds_more_edges() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = erdos_renyi_connected(50, 0.3, 1.0..10.0, &mut rng);
        let mut previous = usize::MAX;
        for t in [1.0, 1.5, 2.0, 3.0, 5.0, 9.0] {
            let m = run_greedy(&g, t, 1).unwrap().spanner().num_edges();
            assert!(m <= previous, "size must be monotone non-increasing in t");
            previous = m;
        }
    }

    #[test]
    fn added_edge_ids_are_sorted_by_weight() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
        let r = run_greedy(&g, 2.0, 1).unwrap();
        let weights: Vec<f64> = r
            .added_edge_ids()
            .iter()
            .map(|&id| g.edge(id).weight)
            .collect();
        assert!(weights.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.added_edge_ids().len(), r.edges_added());
        assert!((r.stretch() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn greedy_over_candidates_matches_full_greedy_on_same_edges() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = erdos_renyi_connected(25, 0.4, 1.0..5.0, &mut rng);
        let mut candidates: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u.index(), e.v.index(), e.weight))
            .collect();
        candidates.sort_by(|a, b| {
            a.2.total_cmp(&b.2)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let h1 = run_greedy(&g, 2.5, 1).unwrap();
        let h2 = greedy_over_candidates(g.num_vertices(), &candidates, 2.5).unwrap();
        assert_eq!(h1.spanner().num_edges(), h2.num_edges());
        assert!((h1.spanner().total_weight() - h2.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn greedy_over_candidates_validates_input() {
        assert!(greedy_over_candidates(2, &[(0, 1, 1.0)], 0.0).is_err());
        assert!(greedy_over_candidates(2, &[(0, 5, 1.0)], 2.0).is_err());
        assert!(greedy_over_candidates(2, &[(0, 1, f64::NAN)], 2.0).is_err());
        // Self-loops are covered by definition and silently skipped (the
        // pre-CSR behavior), never an error.
        let h = greedy_over_candidates(3, &[(1, 1, 1.0), (0, 2, 1.0)], 2.0).unwrap();
        assert_eq!(h.num_edges(), 1);
        assert!(h.has_edge(0.into(), 2.into()));
    }

    #[test]
    fn empty_and_singleton_graphs_at_every_thread_count() {
        for threads in [1, 2, 8] {
            let empty = WeightedGraph::new(0);
            let r = run_greedy(&empty, 2.0, threads).unwrap();
            assert_eq!(r.spanner().num_edges(), 0);
            let single = WeightedGraph::new(1);
            assert_eq!(
                run_greedy(&single, 2.0, threads)
                    .unwrap()
                    .spanner()
                    .num_vertices(),
                1
            );
        }
    }

    #[test]
    fn engine_path_matches_the_reference_implementation() {
        let mut rng = SmallRng::seed_from_u64(8);
        for t in [1.0, 1.5, 2.0, 4.0] {
            let g = erdos_renyi_connected(35, 0.3, 1.0..10.0, &mut rng);
            let engine_path = run_greedy(&g, t, 1).unwrap();
            let reference = greedy_spanner_reference(&g, t).unwrap();
            assert_eq!(
                engine_path.added_edge_ids(),
                reference.added_edge_ids(),
                "t = {t}: both paths must keep exactly the same edges"
            );
            assert_eq!(
                engine_path.spanner().num_edges(),
                reference.spanner().num_edges()
            );
            assert!(
                (engine_path.spanner().total_weight() - reference.spanner().total_weight()).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn parallel_path_is_bit_identical_to_the_reference() {
        let mut rng = SmallRng::seed_from_u64(77);
        for t in [1.0, 1.5, 2.0, 4.0] {
            let g = erdos_renyi_connected(60, 0.25, 1.0..10.0, &mut rng);
            let reference = greedy_spanner_reference(&g, t).unwrap();
            for threads in [2, 3, 4, 8] {
                let parallel = run_greedy(&g, t, threads).unwrap();
                assert_eq!(
                    parallel.added_edge_ids(),
                    reference.added_edge_ids(),
                    "t = {t}, threads = {threads}"
                );
                assert_eq!(
                    parallel.spanner(),
                    reference.spanner(),
                    "t = {t}, threads = {threads}: spanners must be identical"
                );
                assert_eq!(parallel.threads_used(), threads);
                assert!(parallel.batches() >= 1);
            }
        }
    }

    #[test]
    fn a_path_that_overflows_to_infinity_does_not_cover_an_edge() {
        // Every detour sums to +∞ while t·w overflows to +∞ too: the
        // reference keeps the whole triangle, and so must the engine loops
        // (accepting `∞ ≤ ∞` would drop an edge the spanner cannot cover).
        for (w, t) in [(f64::MAX, 1.5), (1e308, 2.0)] {
            let g = WeightedGraph::from_edges(3, [(0, 1, w), (1, 2, w), (0, 2, w)]).unwrap();
            let reference = greedy_spanner_reference(&g, t).unwrap();
            assert_eq!(reference.edges_added(), 3, "w = {w}, t = {t}");
            for threads in [1, 2] {
                let r = run_greedy(&g, t, threads).unwrap();
                assert_eq!(
                    r.added_edge_ids(),
                    reference.added_edge_ids(),
                    "w = {w}, t = {t}, threads = {threads}"
                );
                assert!(is_t_spanner(&g, r.spanner(), t));
                assert_eq!(max_stretch_over_edges(&g, r.spanner()), 1.0);
            }
        }
    }

    #[test]
    fn parallel_stats_do_not_depend_on_the_thread_count() {
        // Batch boundaries, filter verdicts and re-checks are functions of
        // the candidate weights alone, so every counter (not just the
        // output) must agree across thread counts > 1.
        let mut rng = SmallRng::seed_from_u64(78);
        let g = erdos_renyi_connected(50, 0.3, 1.0..10.0, &mut rng);
        let two = run_greedy(&g, 2.0, 2).unwrap();
        for threads in [3, 4, 8] {
            let more = run_greedy(&g, 2.0, threads).unwrap();
            assert_eq!(more.batches(), two.batches());
            assert_eq!(more.batch_recheck_hits(), two.batch_recheck_hits());
            assert_eq!(more.distance_queries(), two.distance_queries());
            assert_eq!(more.peak_frontier(), two.peak_frontier());
        }
        // The filter queries every candidate its snapshot already connects.
        // Of the others, the `n − c` that join two components commit with
        // no query, and the rest were connected by an earlier commit of
        // their own batch and get a re-check. Every re-check either hits or
        // admits an edge that joins no components.
        let tree = g.num_vertices() - connected_components(&g).1;
        assert!(two.distance_queries() >= g.num_edges() - tree);
        assert!(
            two.distance_queries()
                <= g.num_edges() - tree + two.batch_recheck_hits() + two.edges_added() - tree
        );
    }

    #[test]
    fn every_distance_query_reuses_the_workspace() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = erdos_renyi_connected(60, 0.3, 1.0..10.0, &mut rng);
        let r = run_greedy(&g, 2.0, 1).unwrap();
        // One query per candidate, except the `n − c` that join two
        // components of the spanner.
        let tree = g.num_vertices() - connected_components(&g).1;
        assert_eq!(r.distance_queries(), g.num_edges() - tree);
        assert_eq!(
            r.workspace_reuse_hits(),
            r.distance_queries(),
            "the pre-sized engine must never allocate per query"
        );
        // The parallel pool is pre-sized too: zero allocations per query on
        // every worker, including the commit engine's re-checks.
        let p = run_greedy(&g, 2.0, 4).unwrap();
        assert_eq!(
            p.workspace_reuse_hits(),
            p.distance_queries(),
            "a pool engine allocated mid-construction"
        );
        let reference = greedy_spanner_reference(&g, 2.0).unwrap();
        assert_eq!(reference.workspace_reuse_hits(), 0);
        assert_eq!(reference.distance_queries(), g.num_edges());
    }

    /// Asserts every thread count keeps exactly the reference's edges, in
    /// its order, and that the sequential path queries only the candidates
    /// that do not join two components.
    fn assert_matches_reference(g: &WeightedGraph, t: f64) {
        let reference = greedy_spanner_reference(g, t).unwrap();
        for threads in [1, 2, 8] {
            let r = run_greedy(g, t, threads).unwrap();
            assert_eq!(
                r.added_edge_ids(),
                reference.added_edge_ids(),
                "t = {t}, threads = {threads}, n = {}",
                g.num_vertices()
            );
            assert_eq!(r.spanner(), reference.spanner(), "threads = {threads}");
            assert_eq!(r.workspace_reuse_hits(), r.distance_queries());
        }
        let tree = g.num_vertices() - connected_components(g).1;
        let sequential = run_greedy(g, t, 1).unwrap();
        assert_eq!(sequential.distance_queries(), g.num_edges() - tree);
    }

    /// `parts` disjoint copies of a graph on `size` vertices, the copy's
    /// edges drawn by `edges` (endpoints local to the copy).
    fn disjoint_union(
        parts: usize,
        size: usize,
        mut edges: impl FnMut(usize) -> Vec<(usize, usize, f64)>,
    ) -> WeightedGraph {
        let mut g = WeightedGraph::new(parts * size);
        for p in 0..parts {
            for (u, v, w) in edges(p) {
                g.add_edge((p * size + u).into(), (p * size + v).into(), w);
            }
        }
        g
    }

    #[test]
    fn forests_admit_every_candidate_without_a_query() {
        let mut rng = SmallRng::seed_from_u64(21);
        // Random recursive trees; integer weights tie across trees.
        let g = disjoint_union(5, 12, |_| {
            (1..12)
                .map(|v| (rng.gen_range(0..v), v, rng.gen_range(1..4) as f64))
                .collect()
        });
        for t in [1.0, 2.0, 1e6] {
            assert_matches_reference(&g, t);
            for threads in [1, 2, 8] {
                let r = run_greedy(&g, t, threads).unwrap();
                assert_eq!(r.edges_added(), g.num_edges());
                assert_eq!(r.distance_queries(), 0, "threads = {threads}");
            }
        }
    }

    #[test]
    fn disjoint_cliques_match_the_reference() {
        let mut rng = SmallRng::seed_from_u64(22);
        let clique = |rng: &mut SmallRng| {
            let mut edges = Vec::new();
            for u in 0..7 {
                for v in (u + 1)..7 {
                    edges.push((u, v, rng.gen_range(1.0..1.1)));
                }
            }
            edges
        };
        let mut g = disjoint_union(4, 7, |_| clique(&mut rng));
        for t in [1.0, 1.5, 3.0] {
            assert_matches_reference(&g, t);
        }
        // Bridges between the cliques, some lighter than every clique edge
        // and some heavier, after which the graph is connected.
        for (u, v, w) in [(0, 7, 0.5), (8, 15, 2.0), (16, 27, 1.05), (3, 25, 9.0)] {
            g.add_edge(VertexId(u), VertexId(v), w);
        }
        for t in [1.0, 1.5, 3.0] {
            assert_matches_reference(&g, t);
        }
    }

    #[test]
    fn isolated_vertices_and_tiny_graphs_match_the_reference() {
        let tiny = [
            WeightedGraph::new(0),
            WeightedGraph::new(1),
            WeightedGraph::new(2),
            WeightedGraph::from_edges(2, [(0, 1, 1.0)]).unwrap(),
            WeightedGraph::from_edges(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 0.5)]).unwrap(),
            // A triangle among isolated vertices.
            WeightedGraph::from_edges(7, [(2, 5, 1.0), (5, 6, 1.0), (2, 6, 1.5)]).unwrap(),
        ];
        for g in &tiny {
            for t in [1.0, 2.0] {
                assert_matches_reference(g, t);
            }
        }
    }

    #[test]
    fn tie_heavy_integer_weights_across_components_match_the_reference() {
        let mut rng = SmallRng::seed_from_u64(23);
        for round in 0..6 {
            let mut g = disjoint_union(3, 9, |_| {
                let mut edges = Vec::new();
                for u in 0..9 {
                    for v in (u + 1)..9 {
                        if rng.gen_bool(0.4) {
                            edges.push((u, v, rng.gen_range(1..3) as f64));
                        }
                    }
                }
                edges
            });
            // Cross-component edges at the same integer weights.
            for _ in 0..round {
                let u = rng.gen_range(0..9);
                let v: usize = 9 * rng.gen_range(1..3usize) + rng.gen_range(0..9usize);
                g.add_edge(VertexId(u), VertexId(v), rng.gen_range(1..3) as f64);
            }
            for t in [1.0, 2.0, 3.0] {
                assert_matches_reference(&g, t);
            }
        }
    }

    #[test]
    fn parallel_edges_between_two_components_match_the_reference() {
        // Two triangles joined by parallel copies of one bridge: the first
        // copy joins the components without a query, the others are
        // covered by it (or kept, when lighter than 1/t of it).
        let mut g = WeightedGraph::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
            ],
        )
        .unwrap();
        for w in [2.0, 2.0, 3.0, 2.0, 0.5] {
            g.add_edge(VertexId(2), VertexId(3), w);
        }
        g.add_edge(VertexId(0), VertexId(5), 2.0);
        for t in [1.0, 1.5, 2.0, 4.0] {
            assert_matches_reference(&g, t);
        }
    }

    #[test]
    fn a_remapped_store_renames_witnesses_and_drops_dead_ones() {
        let mut store = WitnessStore::with_ids(6);
        store.push(1, [0, 2]);
        store.push(3, [2, 4, 5]);
        store.push(4, [0, 5]);
        // Ids 1 and 5 die; the survivors densify in order.
        let remap: Vec<Option<EdgeId>> = [Some(0), None, Some(1), Some(2), Some(3), None]
            .into_iter()
            .map(|id| id.map(EdgeId))
            .collect();
        let next = store.remap(&remap);
        assert_eq!(next.spans.len(), 4);
        assert_eq!(next.get(0), &[] as &[u32]);
        assert_eq!(next.get(1), &[] as &[u32], "id 2 had no witness");
        assert_eq!(next.get(2), &[] as &[u32], "its walk used dead id 5");
        assert_eq!(next.get(3), &[] as &[u32], "its walk used dead id 5");
        assert_eq!(next.get(9), &[] as &[u32], "out of range reads empty");
        let mut store = WitnessStore::with_ids(4);
        store.push(3, [0, 2]);
        let next = store.remap(&remap[..4]);
        assert_eq!(next.get(2), &[0, 1]);
    }

    #[test]
    fn max_stretch_is_tightly_bounded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = erdos_renyi_connected(35, 0.3, 1.0..10.0, &mut rng);
        let r = run_greedy(&g, 2.0, 1).unwrap();
        let s = max_stretch_over_edges(&g, r.spanner());
        assert!(s <= 2.0 + 1e-9);
    }
}
