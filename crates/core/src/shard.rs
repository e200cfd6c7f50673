//! Sharded spanner construction: partition → per-shard builds → boundary
//! stitching, with the global stretch-`t` guarantee certified end to end.
//!
//! # Pipeline
//!
//! 1. **Partition.** The input graph is cut into `k` BFS-grown regions by
//!    [`spanner_graph::partition::Partition`] — deterministic, seeded, with
//!    a size-balance cap — yielding per-shard induced subgraphs in local id
//!    space plus the cut-edge list.
//! 2. **Per-shard builds.** Each shard's spanner is built through the
//!    ordinary [`SpannerAlgorithm`] pipeline, exactly as an unsharded build
//!    of that shard (a shard is a graph input, so greedy runs its
//!    sequential loop). With `T` resolved threads and `k` shards, up to
//!    `min(T, k)` shards build concurrently. Thread counts never change
//!    any output.
//! 3. **Stitching.** The boundary vertices (endpoints of cut edges) become
//!    a *contracted boundary skeleton*: for every shard, the exact
//!    shard-spanner distances between its boundary vertices are added as
//!    contracted edges; then the cut edges are replayed through the greedy
//!    admission rule against the skeleton (ascending weight, ties by
//!    endpoint ids) — an edge whose skeleton detour already satisfies
//!    `d ≤ t·w` is dropped, everything else joins both the skeleton and
//!    the global spanner.
//!
//! # Why stretch-`t` still certifies
//!
//! Every edge of the input falls in one of two classes:
//!
//! * **Intra-shard.** The shard algorithm guarantees a detour `≤ t·w`
//!   inside the shard spanner, which is a subgraph of the global spanner.
//! * **Cut.** A kept cut edge is itself in the global spanner (stretch 1).
//!   A dropped cut edge had a skeleton detour `≤ t·w`, and every skeleton
//!   path is realizable in the global spanner: contracted edges are exact
//!   shard-spanner distances and kept cut edges are real edges.
//!
//! Hence the global spanner is a `t`-spanner of the input whenever the
//! per-shard algorithm guarantees stretch `t`. The stitch re-runs the
//! stretch audit over every cut edge through the finished skeleton
//! ([`StitchStats::max_cut_stretch`]) and the certified global stretch is
//! surfaced in [`Provenance::guaranteed_stretch`].
//!
//! The single-shard pipeline is the identity: `shards(1)` produces the
//! same spanner, bit for bit, as the unsharded builder (asserted by the
//! root `sharded_determinism` suite).

use std::time::{Duration, Instant};

use spanner_graph::parallel::fill_chunked;
use spanner_graph::partition::{CutEdge, Partition, PartitionConfig, DEFAULT_BALANCE};
use spanner_graph::{
    path_rounding_margin, CsrGraph, DijkstraEngine, EnginePool, VertexId, WeightedGraph,
};

use crate::algorithm::{
    Provenance, RunStats, SpannerAlgorithm, SpannerConfig, SpannerInput, SpannerOutput,
};
use crate::algorithms;
use crate::error::SpannerError;

/// Relative slack applied when a skeleton distance is used as an upper
/// bound on a global-spanner distance (serving-side pruning): absorbs f64
/// association differences between summing a path shard-by-shard and
/// summing it edge-by-edge, so the bound can never exclude the true
/// distance.
///
/// Both sums are computed path distances, each within
/// [`path_rounding_margin`]`(hops)` of the exact value, so the slack must
/// cover twice that margin; `1e-9` does for paths of up to 2²¹ edges
/// (checked at compile time).
pub const SKELETON_SLACK: f64 = 1.0 + 1e-9;

const _: () = assert!(SKELETON_SLACK - 1.0 >= 2.0 * path_rounding_margin(1 << 21));

/// Fluent entry point for sharded construction, mirroring
/// [`Spanner`](crate::Spanner): `ShardedSpanner::greedy().shards(4).build(&g)`.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSpanner;

impl ShardedSpanner {
    /// Sharded greedy construction.
    pub fn greedy() -> ShardedBuilder {
        ShardedBuilder::new(Box::new(algorithms::Greedy))
    }

    /// Sharded Baswana–Sen construction (fast on huge shards).
    pub fn baswana_sen() -> ShardedBuilder {
        ShardedBuilder::new(Box::new(algorithms::BaswanaSen))
    }

    /// Wraps a registry algorithm looked up by name.
    pub fn named(name: &str) -> Option<ShardedBuilder> {
        algorithms::by_name(name).map(ShardedBuilder::new)
    }
}

/// Builder for a sharded construction: one inner [`SpannerAlgorithm`], the
/// shared [`SpannerConfig`], and the partitioning knobs.
pub struct ShardedBuilder {
    algorithm: Box<dyn SpannerAlgorithm>,
    config: SpannerConfig,
    shards: usize,
    balance: f64,
}

impl ShardedBuilder {
    /// Wraps an algorithm with default configuration and a single shard.
    pub fn new(algorithm: Box<dyn SpannerAlgorithm>) -> Self {
        ShardedBuilder {
            algorithm,
            config: SpannerConfig::default(),
            shards: 1,
            balance: DEFAULT_BALANCE,
        }
    }

    /// Sets the shard count (clamped to the vertex count at build time).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the partition's size-balance cap multiplier (`>= 1.0`).
    pub fn balance(mut self, balance: f64) -> Self {
        self.balance = balance;
        self
    }

    /// Sets the stretch target `t`.
    pub fn stretch(mut self, t: f64) -> Self {
        self.config.stretch = t;
        self
    }

    /// Sets `k` for `(2k − 1)` constructions and aligns the stretch target.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = Some(k);
        self.config.stretch = (2 * k.max(1)) as f64 - 1.0;
        self
    }

    /// Sets the seed shared by the partition and randomized constructions.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread budget: up to that many shards build
    /// concurrently, and the stitch fans its searches over as many workers.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Replaces the whole config (partition knobs are kept).
    pub fn config(mut self, config: SpannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the sharded pipeline over `graph`.
    ///
    /// # Errors
    ///
    /// Whatever any per-shard build reports (unsupported algorithm, invalid
    /// parameters). An empty graph is not an error: it yields the inner
    /// algorithm's empty spanner, as an unsharded build does.
    pub fn build(&self, graph: &WeightedGraph) -> Result<ShardedOutput, SpannerError> {
        build_sharded(
            self.algorithm.as_ref(),
            graph,
            &self.config,
            self.shards,
            self.balance,
        )
    }
}

/// Per-shard construction bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardBuildStats {
    /// Vertices in the shard's induced subgraph.
    pub vertices: usize,
    /// Edges in the shard's induced subgraph.
    pub edges: usize,
    /// Boundary vertices (endpoints of cut edges) in this shard.
    pub boundary_vertices: usize,
    /// Edges the shard's spanner kept.
    pub spanner_edges: usize,
    /// Wall-clock time of this shard's build.
    pub wall_time: Duration,
    /// Deterministic estimate of the peak working-set bytes of this
    /// shard's build: induced subgraph (edge list, two 16-byte adjacency
    /// arena slots per edge, and one 16-byte arena row per vertex), Dijkstra
    /// workspace, and the grown spanner's CSR arrays. An arithmetic
    /// estimate, not allocator introspection — its value is that it is a
    /// pure function of the shard's size, so scaling benches can assert
    /// per-shard memory stays bounded as `n` grows at fixed `n/k`.
    pub peak_memory_bytes: usize,
}

/// Deterministic working-set estimate backing
/// [`ShardBuildStats::peak_memory_bytes`]; see that field for the intent.
fn estimate_peak_memory(vertices: usize, edges: usize, spanner_edges: usize) -> usize {
    // Edge list (u, v, w) + two adjacency arena slots per edge; the induced
    // subgraph is laid out exactly, so a vertex costs only its 16-byte
    // arena row (no per-vertex allocation).
    let subgraph = edges * (24 + 32) + vertices * 16;
    // dist / parent / state / generation lanes plus heap headroom.
    let workspace = vertices * 40;
    // The grown spanner: CSR rows reserved at the candidate degrees (two
    // 16-byte half-edge slots per candidate), its edge list and row index.
    let spanner = edges * 32 + spanner_edges * 16 + vertices * 16;
    subgraph + workspace + spanner
}

/// Boundary-stitching bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StitchStats {
    /// Cut edges the partition produced.
    pub cut_edges: usize,
    /// Cut edges the greedy admission kept (these join the global spanner).
    pub kept_cut_edges: usize,
    /// Boundary vertices in the skeleton.
    pub skeleton_vertices: usize,
    /// Contracted (shard-spanner distance) edges in the skeleton.
    pub contracted_edges: usize,
    /// Maximum realized stretch of any cut edge through the finished
    /// skeleton — the re-run stretch audit. Always `≤ t` by construction;
    /// `1.0` when there are no cut edges.
    pub max_cut_stretch: f64,
    /// Wall-clock time of the stitch (contract + admit + audit).
    pub wall_time: Duration,
}

/// The contracted boundary graph stitched between shards: boundary
/// vertices in a compact local id space, contracted shard-spanner
/// distances, and the kept cut edges.
///
/// A skeleton distance between two boundary vertices upper-bounds their
/// global-spanner distance (every skeleton path is realizable in the
/// spanner); [`BoundarySkeleton::distance_upper_bound`] exposes that bound.
#[derive(Debug, Clone)]
pub struct BoundarySkeleton {
    graph: CsrGraph,
    to_global: Vec<VertexId>,
}

impl BoundarySkeleton {
    /// The skeleton graph, in skeleton-local ids.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of boundary vertices.
    pub fn num_vertices(&self) -> usize {
        self.to_global.len()
    }

    /// Number of skeleton edges (contracted + kept cut).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Skeleton-local id of a global vertex, when it is a boundary vertex.
    pub fn local_of(&self, global: VertexId) -> Option<VertexId> {
        self.to_global.binary_search(&global).ok().map(VertexId)
    }

    /// Global id of a skeleton-local vertex.
    pub fn global_of(&self, local: VertexId) -> VertexId {
        self.to_global[local.index()]
    }

    /// An upper bound on the *global spanner* distance between two boundary
    /// vertices: the skeleton distance, inflated by [`SKELETON_SLACK`] to
    /// absorb f64 association error. Returns `None` when either endpoint is
    /// not a boundary vertex or the skeleton does not connect them.
    pub fn distance_upper_bound(
        &self,
        engine: &mut DijkstraEngine,
        u: VertexId,
        v: VertexId,
    ) -> Option<f64> {
        let (lu, lv) = (self.local_of(u)?, self.local_of(v)?);
        engine
            .bounded_distance(&self.graph, lu, lv, f64::INFINITY)
            .map(|d| d * SKELETON_SLACK)
    }
}

/// The result of a sharded build: the stitched global spanner (as an
/// ordinary [`SpannerOutput`]) plus the partition, the boundary skeleton
/// and per-stage statistics.
#[derive(Debug, Clone)]
pub struct ShardedOutput {
    /// The stitched global spanner, with aggregated [`RunStats`] and
    /// provenance naming the inner algorithm and shard count; the certified
    /// global stretch is in [`Provenance::guaranteed_stretch`].
    pub output: SpannerOutput,
    /// The partition the build ran over.
    pub partition: Partition,
    /// The contracted boundary skeleton.
    pub skeleton: BoundarySkeleton,
    /// Per-shard build statistics, in shard order.
    pub shard_stats: Vec<ShardBuildStats>,
    /// Boundary-stitching statistics.
    pub stitch: StitchStats,
}

impl ShardedOutput {
    /// The certified global stretch, when the inner algorithm guarantees
    /// one (equals the inner guarantee; the stitch audit verifies the cut
    /// edges stay within it — see [`StitchStats::max_cut_stretch`]).
    pub fn certified_stretch(&self) -> Option<f64> {
        self.output.provenance.guaranteed_stretch
    }

    /// The stitched global spanner.
    pub fn spanner(&self) -> &WeightedGraph {
        &self.output.spanner
    }

    /// Maximum per-shard peak-memory estimate — the number a scaling bench
    /// bounds as `n` grows at fixed `n/k`.
    pub fn max_shard_peak_memory(&self) -> usize {
        self.shard_stats
            .iter()
            .map(|s| s.peak_memory_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// A [`SpannerAlgorithm`] adapter so sharded builds slot into
/// [`run_matrix`](crate::matrix::run_matrix) grids next to the unsharded
/// constructions. Deliberately *not* part of
/// [`algorithms::registry`] — the registry enumerates primitive
/// constructions; sharding is an orchestration of one.
pub struct Sharded {
    inner: Box<dyn SpannerAlgorithm>,
    shards: usize,
    balance: f64,
}

impl Sharded {
    /// Wraps `inner` to build through `shards` shards.
    pub fn new(inner: Box<dyn SpannerAlgorithm>, shards: usize) -> Self {
        Sharded {
            inner,
            shards: shards.max(1),
            balance: DEFAULT_BALANCE,
        }
    }

    /// Sharded greedy, the common case.
    pub fn greedy(shards: usize) -> Self {
        Sharded::new(Box::new(algorithms::Greedy), shards)
    }
}

impl SpannerAlgorithm for Sharded {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        matches!(input, SpannerInput::Graph(_)) && self.inner.supports(input)
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        self.inner.guaranteed_stretch(config)
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        let SpannerInput::Graph(graph) = input else {
            return Err(crate::algorithm::unsupported(self, input));
        };
        build_sharded(
            self.inner.as_ref(),
            graph,
            config,
            self.shards,
            self.balance,
        )
        .map(|out| out.output)
    }
}

/// The sharded pipeline: partition, per-shard builds, stitch, audit.
fn build_sharded(
    algorithm: &dyn SpannerAlgorithm,
    graph: &WeightedGraph,
    config: &SpannerConfig,
    shards: usize,
    balance: f64,
) -> Result<ShardedOutput, SpannerError> {
    let total_start = Instant::now();
    let n = graph.num_vertices();
    // An empty input runs the pipeline over the one-shard empty partition:
    // the inner algorithm's empty spanner, nothing to stitch.
    let partition = if n == 0 {
        Partition::empty(config.seed)
    } else {
        Partition::build(
            graph,
            &PartitionConfig {
                shards,
                seed: config.seed,
                balance,
            },
        )?
    };
    let k = partition.num_shards();
    let threads_total = config.resolve_threads();

    // Per-shard builds through the ordinary pipeline. The fan-out is
    // chunk-partitioned by shard index, so results land in shard order
    // regardless of scheduling.
    let mut slots: Vec<Option<Result<SpannerOutput, SpannerError>>> = vec![None; k];
    fill_chunked(threads_total.min(k), &mut slots, |s| {
        let piece = partition.shard(s);
        Some(algorithm.build(&SpannerInput::Graph(piece.graph()), config))
    });
    let mut shard_outputs = Vec::with_capacity(k);
    for slot in slots {
        shard_outputs.push(slot.expect("fill_chunked fills every slot")?);
    }

    let shard_stats: Vec<ShardBuildStats> = shard_outputs
        .iter()
        .enumerate()
        .map(|(s, out)| {
            let piece = partition.shard(s);
            ShardBuildStats {
                vertices: piece.num_vertices(),
                edges: piece.graph().num_edges(),
                boundary_vertices: piece.boundary().len(),
                spanner_edges: out.spanner.num_edges(),
                wall_time: out.stats.wall_time,
                peak_memory_bytes: estimate_peak_memory(
                    piece.num_vertices(),
                    piece.graph().num_edges(),
                    out.spanner.num_edges(),
                ),
            }
        })
        .collect();

    // The stretch the admission rule certifies against: the inner
    // algorithm's guarantee when it has one, the configured target
    // otherwise (baselines without a guarantee still stitch; the output
    // then carries no guarantee either).
    let inner_guarantee = algorithm.guaranteed_stretch(config);
    let target = inner_guarantee.unwrap_or(config.stretch).max(1.0);

    let stitch_start = Instant::now();
    let (skeleton, kept_cut, stitch_partial) =
        stitch_boundaries(&partition, &shard_outputs, target, threads_total);
    let stitch = StitchStats {
        wall_time: stitch_start.elapsed(),
        ..stitch_partial
    };

    // Assemble the global spanner: shard spanners translated to global
    // ids in shard order, then the kept cut edges in admission order. With
    // one shard this reproduces the unsharded build bit for bit.
    let mut edges = Vec::with_capacity(
        shard_outputs
            .iter()
            .map(|out| out.spanner.num_edges())
            .sum::<usize>()
            + kept_cut.len(),
    );
    for (s, out) in shard_outputs.iter().enumerate() {
        let global = partition.shard(s).vertices();
        for e in out.spanner.edges() {
            edges.push((
                global[e.u.index()].index(),
                global[e.v.index()].index(),
                e.weight,
            ));
        }
    }
    edges.extend(
        kept_cut
            .iter()
            .map(|c| (c.u.index(), c.v.index(), c.weight)),
    );
    let spanner = WeightedGraph::from_edges(n, edges)
        .expect("shard spanner and cut edges are valid edges of the input");

    // Aggregate stats across shards + stitch.
    let mut stats = RunStats {
        edges_examined: partition.cut_edges().len(),
        edges_added: spanner.num_edges(),
        threads_used: threads_total,
        ..RunStats::default()
    };
    for out in &shard_outputs {
        stats.edges_examined += out.stats.edges_examined;
        stats.peak_frontier = stats.peak_frontier.max(out.stats.peak_frontier);
        stats.distance_queries += out.stats.distance_queries;
        stats.workspace_reuse_hits += out.stats.workspace_reuse_hits;
    }
    stats.distance_queries += stitch.skeleton_vertices + 2 * stitch.cut_edges;
    stats.wall_time = total_start.elapsed();

    let output = SpannerOutput {
        spanner,
        stats,
        provenance: Provenance {
            algorithm: "sharded".to_owned(),
            parameters: format!(
                "{} shards={} inner={}",
                config.describe(),
                k,
                algorithm.name()
            ),
            input: SpannerInput::Graph(graph).describe(),
            guaranteed_stretch: inner_guarantee,
        },
    };

    Ok(ShardedOutput {
        output,
        partition,
        skeleton,
        shard_stats,
        stitch,
    })
}

/// Builds the contracted boundary skeleton, replays the cut edges through
/// the greedy admission rule, and re-runs the stretch audit. Returns the
/// skeleton, the kept cut edges in admission order, and the stitch stats
/// (wall time filled in by the caller).
fn stitch_boundaries(
    partition: &Partition,
    shard_outputs: &[SpannerOutput],
    target: f64,
    threads: usize,
) -> (BoundarySkeleton, Vec<CutEdge>, StitchStats) {
    let cut_edges = partition.cut_edges();

    // Skeleton vertex set: every boundary vertex, ascending global id.
    let mut to_global: Vec<VertexId> = cut_edges.iter().flat_map(|c| [c.u, c.v]).collect();
    to_global.sort_unstable();
    to_global.dedup();
    let local_of = |global: VertexId| -> VertexId {
        VertexId(to_global.binary_search(&global).expect("boundary vertex"))
    };

    let mut skeleton = CsrGraph::new(to_global.len());
    let mut contracted_edges = 0usize;

    if !to_global.is_empty() {
        // Contracted-edge weights longer than this can never lie on a path
        // that certifies a cut edge (any single edge above t·w_max already
        // exceeds every bound the admission rule will test), and as serving
        // upper bounds their absence only loosens, never breaks, the bound.
        // Pruning them keeps the skeleton near-linear instead of quadratic
        // in the boundary size.
        let max_cut_weight = cut_edges.iter().map(|c| c.weight).fold(0.0f64, f64::max);
        let contraction_cap = target * max_cut_weight * SKELETON_SLACK;

        // Per shard: exact shard-spanner distances between its boundary
        // vertices, fanned over the pool. Results are collected per source
        // in boundary order, so the skeleton's edge order is deterministic.
        for (s, out) in shard_outputs.iter().enumerate() {
            let piece = partition.shard(s);
            let boundary = piece.boundary();
            if boundary.len() < 2 {
                continue;
            }
            let csr = CsrGraph::from(&out.spanner);
            let mut is_boundary = vec![false; csr.num_vertices()];
            for &b in boundary {
                is_boundary[b.index()] = true;
            }
            let mut pool =
                EnginePool::with_capacity_for(threads, csr.num_vertices(), csr.num_edges());
            let mut results: Vec<Vec<(u32, f64)>> = vec![Vec::new(); boundary.len()];
            // A bounded ball instead of a full tree: only distances within
            // the contraction cap survive the filter anyway, so the search
            // can stop at the cap — the kept (vertex, distance) pairs are
            // identical, at a fraction of the settled vertices.
            pool.map_batch(
                csr.snapshot(),
                boundary,
                &mut results,
                |engine, graph, &b| {
                    let mut members: Vec<(u32, f64)> = engine
                        .ball(graph, b, contraction_cap)
                        .iter()
                        .filter(|&&(b2, d)| b2 > b && d > 0.0 && is_boundary[b2.index()])
                        .map(|&(b2, d)| (b2.index() as u32, d))
                        .collect();
                    members.sort_unstable_by_key(|&(b2, _)| b2);
                    members
                },
            );
            for (&b, dists) in boundary.iter().zip(&results) {
                let gb = local_of(piece.vertices()[b.index()]);
                for &(b2, d) in dists {
                    let gb2 = local_of(piece.vertices()[b2 as usize]);
                    skeleton.append_edge(gb, gb2, d);
                    contracted_edges += 1;
                }
            }
        }
    }

    // Greedy admission of cut edges against the growing skeleton:
    // ascending weight, ties by endpoint ids — the same ordering rule as
    // the greedy construction itself.
    let mut ordered: Vec<&CutEdge> = cut_edges.iter().collect();
    ordered.sort_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| a.u.cmp(&b.u))
            .then_with(|| a.v.cmp(&b.v))
    });
    let mut engine =
        DijkstraEngine::with_capacity_for(to_global.len(), skeleton.num_edges() + ordered.len());
    let mut kept = Vec::new();
    for c in &ordered {
        let (lu, lv) = (local_of(c.u), local_of(c.v));
        let admitted = !engine.within_bound(&skeleton, lu, lv, target * c.weight);
        if admitted {
            skeleton.append_edge(lu, lv, c.weight);
            kept.push(**c);
        }
    }

    // Re-run the stretch audit over every cut edge through the finished
    // skeleton. Kept edges are in the skeleton (stretch ≤ 1), dropped
    // edges were admitted against a subset of it, so this always succeeds
    // within the target — the audit turns that argument into a measured
    // number.
    let mut max_cut_stretch: f64 = 1.0;
    for c in cut_edges {
        let (lu, lv) = (local_of(c.u), local_of(c.v));
        // A within-target path is guaranteed (kept edges are in the
        // skeleton; dropped edges were admitted against a subset of it and
        // distances only shrink as edges join), so the audit search can be
        // bounded by the certificate it verifies.
        let d = engine
            .bounded_distance(&skeleton, lu, lv, target * c.weight * SKELETON_SLACK)
            .expect("every cut edge certifies within the target through the skeleton");
        max_cut_stretch = max_cut_stretch.max(d / c.weight);
    }

    let stats = StitchStats {
        cut_edges: cut_edges.len(),
        kept_cut_edges: kept.len(),
        skeleton_vertices: to_global.len(),
        contracted_edges,
        max_cut_stretch,
        wall_time: Duration::ZERO,
    };
    (
        BoundarySkeleton {
            graph: skeleton,
            to_global,
        },
        kept,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::evaluate;
    use crate::Spanner;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::grid_graph;

    fn sample_graph() -> WeightedGraph {
        let mut rng = SmallRng::seed_from_u64(42);
        grid_graph(9, 8, 0.6, &mut rng)
    }

    #[test]
    fn single_shard_matches_unsharded_build() {
        let g = sample_graph();
        let direct = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        let sharded = ShardedSpanner::greedy()
            .stretch(2.0)
            .shards(1)
            .build(&g)
            .unwrap();
        assert_eq!(sharded.spanner().edges(), direct.spanner.edges());
        assert_eq!(sharded.stitch.cut_edges, 0);
        assert_eq!(sharded.skeleton.num_vertices(), 0);
        assert_eq!(sharded.certified_stretch(), Some(2.0));
        // Tiny inputs, including the empty graph, match the unsharded
        // build at every shard count.
        for n in 0..=2usize {
            let g = WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, 1.5))).unwrap();
            let direct = Spanner::greedy().stretch(2.0).build(&g).unwrap();
            for k in [1usize, 2, 4] {
                let sharded = ShardedSpanner::greedy()
                    .stretch(2.0)
                    .shards(k)
                    .build(&g)
                    .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                assert_eq!(sharded.spanner().num_vertices(), n, "n={n} k={k}");
                assert_eq!(
                    sharded.spanner().edges(),
                    direct.spanner.edges(),
                    "n={n} k={k}"
                );
                assert!(sharded.stitch.max_cut_stretch <= 2.0 * SKELETON_SLACK);
                assert_eq!(sharded.certified_stretch(), Some(2.0));
            }
        }
        let empty = ShardedSpanner::greedy()
            .shards(4)
            .build(&WeightedGraph::new(0))
            .unwrap();
        assert_eq!(empty.partition.num_shards(), 1);
        assert_eq!(empty.stitch.cut_edges, 0);
        assert_eq!(empty.stitch.kept_cut_edges, 0);
        assert_eq!(empty.skeleton.num_vertices(), 0);
    }

    #[test]
    fn sharded_build_certifies_global_stretch() {
        let g = sample_graph();
        for k in [2usize, 3, 4] {
            let out = ShardedSpanner::greedy()
                .stretch(2.0)
                .shards(k)
                .build(&g)
                .unwrap();
            assert_eq!(out.partition.num_shards(), k);
            // The audit stays within the target…
            assert!(out.stitch.max_cut_stretch <= 2.0 * SKELETON_SLACK);
            // …and the spanner really is a global 2-spanner of the input.
            let report = evaluate(&g, out.spanner(), 2.0);
            assert!(
                report.max_stretch <= 2.0 + 1e-9,
                "k={k}: max stretch {}",
                report.max_stretch
            );
            assert_eq!(out.certified_stretch(), Some(2.0));
            assert!(out
                .output
                .provenance
                .parameters
                .contains(&format!("shards={k}")));
        }
    }

    #[test]
    fn thread_budget_never_changes_the_artifact() {
        let g = sample_graph();
        let reference = ShardedSpanner::greedy()
            .stretch(2.0)
            .shards(3)
            .threads(1)
            .build(&g)
            .unwrap();
        for threads in [2usize, 8] {
            let out = ShardedSpanner::greedy()
                .stretch(2.0)
                .shards(3)
                .threads(threads)
                .build(&g)
                .unwrap();
            assert_eq!(out.spanner().edges(), reference.spanner().edges());
            assert_eq!(
                out.stitch,
                StitchStats {
                    wall_time: out.stitch.wall_time,
                    ..reference.stitch
                }
            );
        }
    }

    #[test]
    fn skeleton_upper_bound_is_sound() {
        let g = sample_graph();
        let out = ShardedSpanner::greedy()
            .stretch(2.0)
            .shards(4)
            .build(&g)
            .unwrap();
        let spanner_csr = CsrGraph::from(out.spanner());
        let mut engine = DijkstraEngine::new();
        let mut skel_engine = DijkstraEngine::new();
        let boundary: Vec<VertexId> = (0..out.skeleton.num_vertices())
            .map(|l| out.skeleton.global_of(VertexId(l)))
            .collect();
        let mut checked = 0;
        for (i, &u) in boundary.iter().enumerate() {
            for &v in boundary.iter().skip(i + 1).take(8) {
                let Some(ub) = out.skeleton.distance_upper_bound(&mut skel_engine, u, v) else {
                    continue;
                };
                let d = engine
                    .bounded_distance(&spanner_csr, u, v, f64::INFINITY)
                    .expect("spanner is connected");
                assert!(d <= ub, "skeleton bound {ub} below true distance {d}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no boundary pairs exercised");
    }

    #[test]
    fn memory_estimate_shrinks_with_shard_count() {
        let g = sample_graph();
        let mut previous = usize::MAX;
        for k in [1usize, 2, 4] {
            let out = ShardedSpanner::greedy()
                .stretch(2.0)
                .shards(k)
                .build(&g)
                .unwrap();
            let peak = out.max_shard_peak_memory();
            assert!(peak <= previous, "k={k}: peak {peak} grew past {previous}");
            previous = peak;
        }
    }

    #[test]
    fn matrix_adapter_matches_direct_pipeline() {
        let g = sample_graph();
        let adapter = Sharded::greedy(3);
        let config = SpannerConfig::for_stretch(2.0);
        let via_adapter = adapter.build(&SpannerInput::Graph(&g), &config).unwrap();
        let direct = ShardedSpanner::greedy()
            .stretch(2.0)
            .shards(3)
            .build(&g)
            .unwrap();
        assert_eq!(via_adapter.spanner.edges(), direct.spanner().edges());
        let metric = spanner_metric::ExplicitMetric::from_fn_unchecked(2, |_, _| 1.0);
        assert!(!adapter.supports(&SpannerInput::Metric(&metric)));
    }
}
