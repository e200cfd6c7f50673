//! The unified algorithm abstraction: every spanner construction in this
//! crate — greedy, approximate-greedy, and all baselines — implements
//! [`SpannerAlgorithm`] over a shared [`SpannerInput`] / [`SpannerConfig`] /
//! [`SpannerOutput`] vocabulary.
//!
//! The paper's central claim is *comparative* (the greedy spanner is
//! existentially optimal **relative to every other construction**), so the
//! experiments' value hinges on running many algorithms under one uniform
//! harness. This module is that harness's contract: the experiments binary,
//! the Criterion benches and the batch runner
//! ([`run_matrix`](crate::matrix::run_matrix)) all dispatch through the trait
//! and never name a concrete construction.

use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

use spanner_graph::{KernelStats, WeightedGraph};
use spanner_metric::{EuclideanSpace, ExplicitMetric, GraphMetric, MetricSpace};

use crate::error::SpannerError;

/// The input a spanner construction consumes: a weighted graph or a finite
/// metric.
///
/// The enum borrows, so building from the same input with many algorithms and
/// stretches (the batch-runner pattern) never clones the substrate. Planar
/// Euclidean point sets get their own variant because the geometric baselines
/// (Θ-/Yao-graphs, WSPD) need coordinates, not just distances; every
/// [`Euclidean2`](SpannerInput::Euclidean2) input is also usable as a plain
/// metric via [`SpannerInput::as_metric`].
#[derive(Clone, Copy)]
pub enum SpannerInput<'a> {
    /// A weighted graph; the spanner is a subgraph.
    Graph(&'a WeightedGraph),
    /// A finite metric space; the spanner is a graph over point indices.
    Metric(&'a dyn MetricSpace),
    /// A planar Euclidean point set (a metric with coordinates).
    Euclidean2(&'a EuclideanSpace<2>),
    /// A metric paired with its pre-materialized complete distance graph,
    /// so repeated builds (batch runs, benches) skip the `O(n²)`
    /// re-materialization that [`SpannerInput::to_graph`] would otherwise
    /// perform per build. Construct with [`SpannerInput::prepared`] /
    /// [`SpannerInput::prepared_euclidean2`]; behaves exactly like the
    /// underlying metric everywhere else (kind, description, supports).
    Prepared {
        /// The metric the spanner is built over.
        space: &'a dyn MetricSpace,
        /// `space.to_complete_graph()`, computed once by the caller.
        complete: &'a WeightedGraph,
        /// Present when the metric is a planar point set with coordinates.
        euclidean2: Option<&'a EuclideanSpace<2>>,
    },
}

impl<'a> SpannerInput<'a> {
    /// Wraps any metric space (use the `From` impls for the common types;
    /// concrete types unsize-coerce at the call site).
    pub fn metric(metric: &'a dyn MetricSpace) -> Self {
        SpannerInput::Metric(metric)
    }

    /// Pairs a metric with its pre-materialized complete distance graph
    /// (`complete` must be `space.to_complete_graph()`); repeated builds
    /// then borrow the graph instead of re-deriving it.
    pub fn prepared(space: &'a dyn MetricSpace, complete: &'a WeightedGraph) -> Self {
        SpannerInput::Prepared {
            space,
            complete,
            euclidean2: None,
        }
    }

    /// Like [`SpannerInput::prepared`], for planar point sets (keeps the
    /// coordinates available to the geometric constructions).
    pub fn prepared_euclidean2(space: &'a EuclideanSpace<2>, complete: &'a WeightedGraph) -> Self {
        SpannerInput::Prepared {
            space,
            complete,
            euclidean2: Some(space),
        }
    }

    /// Number of vertices / points.
    pub fn len(&self) -> usize {
        match self {
            SpannerInput::Graph(g) => g.num_vertices(),
            SpannerInput::Metric(m) => m.len(),
            SpannerInput::Euclidean2(s) => s.len(),
            SpannerInput::Prepared { space, .. } => space.len(),
        }
    }

    /// Returns `true` for an empty input.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short label of the input kind, used in errors and provenance.
    pub fn kind(&self) -> &'static str {
        match self {
            SpannerInput::Graph(_) => "graph",
            SpannerInput::Metric(_) => "metric",
            SpannerInput::Euclidean2(_) => "euclidean-2d",
            // The cached graph is an optimization detail; the kind is the
            // underlying metric's.
            SpannerInput::Prepared {
                euclidean2: Some(_),
                ..
            } => "euclidean-2d",
            SpannerInput::Prepared {
                euclidean2: None, ..
            } => "metric",
        }
    }

    /// The input as a metric space, when it is one.
    pub fn as_metric(&self) -> Option<&'a dyn MetricSpace> {
        match self {
            SpannerInput::Graph(_) => None,
            SpannerInput::Metric(m) => Some(*m),
            SpannerInput::Euclidean2(s) => Some(*s),
            SpannerInput::Prepared { space, .. } => Some(*space),
        }
    }

    /// The input as a planar point set, when coordinates are available.
    pub fn as_euclidean2(&self) -> Option<&'a EuclideanSpace<2>> {
        match self {
            SpannerInput::Euclidean2(s) => Some(*s),
            SpannerInput::Prepared { euclidean2, .. } => *euclidean2,
            _ => None,
        }
    }

    /// The input as a weighted graph: graphs are borrowed, metrics are
    /// materialized as their complete distance graph (the form the greedy
    /// algorithm consumes in metric spaces).
    ///
    /// # Panics
    ///
    /// Panics if a metric input produces a `NaN`, infinite or negative
    /// pairwise distance. The pipeline itself uses
    /// [`SpannerInput::try_to_graph`], which surfaces that case as an error.
    pub fn to_graph(&self) -> Cow<'a, WeightedGraph> {
        self.try_to_graph()
            .expect("metric input with non-finite or negative distances")
    }

    /// Like [`SpannerInput::to_graph`], but a poisoned metric distance
    /// (`NaN` / `±inf` / negative) is reported as
    /// [`GraphError::InvalidWeight`](spanner_graph::GraphError) instead of
    /// panicking — every construction materializes through this, so bad
    /// distance data fails a build cleanly.
    ///
    /// # Errors
    ///
    /// Returns the first invalid pairwise distance of a metric input. Graph
    /// and prepared inputs cannot fail (their edges were validated at
    /// insertion).
    pub fn try_to_graph(&self) -> Result<Cow<'a, WeightedGraph>, spanner_graph::GraphError> {
        Ok(match self {
            SpannerInput::Graph(g) => Cow::Borrowed(*g),
            SpannerInput::Metric(m) => Cow::Owned(m.try_to_complete_graph()?),
            SpannerInput::Euclidean2(s) => Cow::Owned(s.try_to_complete_graph()?),
            SpannerInput::Prepared { complete, .. } => Cow::Borrowed(*complete),
        })
    }

    /// The reference graph spanner quality is measured against: the graph
    /// itself, or the complete distance graph of a metric. Identical to
    /// [`SpannerInput::to_graph`] (including its panic on poisoned metric
    /// distances); the name documents intent at call sites. The batch runner
    /// uses the fallible [`SpannerInput::try_to_graph`] instead.
    pub fn reference_graph(&self) -> Cow<'a, WeightedGraph> {
        self.to_graph()
    }

    /// One-line description (`"graph(n=50, m=200)"`) used in provenance.
    pub fn describe(&self) -> String {
        match self {
            SpannerInput::Graph(g) => {
                format!("graph(n={}, m={})", g.num_vertices(), g.num_edges())
            }
            SpannerInput::Metric(m) => format!("metric(n={})", m.len()),
            SpannerInput::Euclidean2(s) => format!("euclidean-2d(n={})", s.len()),
            // Described as the underlying metric so provenance does not
            // depend on whether the caller pre-materialized the graph.
            SpannerInput::Prepared { .. } => format!("{}(n={})", self.kind(), self.len()),
        }
    }
}

impl fmt::Debug for SpannerInput<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

impl<'a> From<&'a WeightedGraph> for SpannerInput<'a> {
    fn from(g: &'a WeightedGraph) -> Self {
        SpannerInput::Graph(g)
    }
}

impl<'a> From<&'a EuclideanSpace<2>> for SpannerInput<'a> {
    fn from(s: &'a EuclideanSpace<2>) -> Self {
        SpannerInput::Euclidean2(s)
    }
}

impl<'a> From<&'a ExplicitMetric> for SpannerInput<'a> {
    fn from(m: &'a ExplicitMetric) -> Self {
        SpannerInput::Metric(m)
    }
}

impl<'a> From<&'a GraphMetric> for SpannerInput<'a> {
    fn from(m: &'a GraphMetric) -> Self {
        SpannerInput::Metric(m)
    }
}

impl<'a> From<&'a EuclideanSpace<1>> for SpannerInput<'a> {
    fn from(s: &'a EuclideanSpace<1>) -> Self {
        SpannerInput::Metric(s)
    }
}

impl<'a> From<&'a EuclideanSpace<3>> for SpannerInput<'a> {
    fn from(s: &'a EuclideanSpace<3>) -> Self {
        SpannerInput::Metric(s)
    }
}

impl<'a> From<&'a EuclideanSpace<4>> for SpannerInput<'a> {
    fn from(s: &'a EuclideanSpace<4>) -> Self {
        SpannerInput::Metric(s)
    }
}

/// Shared configuration every construction reads its parameters from.
///
/// One config drives all algorithms: each reads the fields it understands
/// and derives missing algorithm-specific parameters from the common
/// `stretch` target (see [`SpannerConfig::effective_epsilon`] and
/// [`SpannerConfig::effective_k`]), so a single `(input, config)` pair is
/// meaningful across the whole registry — the property the batch runner and
/// the comparison tables rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerConfig {
    /// Target stretch `t` (defaults to 2).
    pub stretch: f64,
    /// Accuracy parameter for `(1 + ε)` constructions; derived from
    /// `stretch` when `None`.
    pub epsilon: Option<f64>,
    /// Sparseness parameter for `(2k − 1)` constructions; derived from
    /// `stretch` when `None`.
    pub k: Option<usize>,
    /// Cone count for Θ-/Yao-graphs.
    pub cones: usize,
    /// RNG seed for randomized constructions.
    pub seed: u64,
    /// Hub vertex for the star baseline.
    pub hub: usize,
    /// Worker threads for the filter-then-commit loop of metric inputs
    /// (greedy on a graph runs the sequential loop at every count), the
    /// batch runner and sharded builds. `0` (the default) means *auto*:
    /// `SPANNER_THREADS` if set, otherwise one. Outputs are bit-identical
    /// at every count; see [`SpannerConfig::resolve_threads`].
    pub threads: usize,
}

impl Default for SpannerConfig {
    fn default() -> Self {
        SpannerConfig {
            stretch: 2.0,
            epsilon: None,
            k: None,
            cones: 12,
            seed: 0,
            hub: 0,
            threads: 0,
        }
    }
}

/// Upper bound on the worker count [`SpannerConfig::resolve_threads`]
/// returns — a safety valve against absurd `SPANNER_THREADS` values, far
/// above any sensible spanner-construction parallelism.
pub const MAX_THREADS: usize = 64;

impl SpannerConfig {
    /// A config with the given stretch target and defaults elsewhere.
    pub fn for_stretch(stretch: f64) -> Self {
        SpannerConfig {
            stretch,
            ..SpannerConfig::default()
        }
    }

    /// The ε a `(1 + ε)` construction should use: the explicit `epsilon` if
    /// set, otherwise `stretch − 1` capped at the largest supported ε (the
    /// constructions require `ε ∈ (0, 1)`, and any ε with `1 + ε ≤ stretch`
    /// satisfies the stretch target). A stretch below 1 derives a
    /// non-positive ε, which the constructions reject.
    pub fn effective_epsilon(&self) -> f64 {
        self.epsilon.unwrap_or((self.stretch - 1.0).min(0.95))
    }

    /// The `k` a `(2k − 1)` construction should use: the explicit `k` if
    /// set, otherwise the largest `k` with `2k − 1 ≤ stretch` (at least 1).
    pub fn effective_k(&self) -> usize {
        self.k.unwrap_or_else(|| {
            if self.stretch.is_finite() && self.stretch >= 1.0 {
                (((self.stretch + 1.0) / 2.0).floor() as usize).max(1)
            } else {
                1
            }
        })
    }

    /// The worker count a parallel construction should actually use: the
    /// explicit [`SpannerConfig::threads`] if non-zero, otherwise the
    /// `SPANNER_THREADS` environment variable, otherwise 1 — clamped to
    /// `1..=`[`MAX_THREADS`].
    ///
    /// Thread count never changes any output (the filter-then-commit loop
    /// is deterministic by construction), so the env override is safe to
    /// set globally — CI runs the whole test suite under several values.
    pub fn resolve_threads(&self) -> usize {
        let requested = if self.threads > 0 {
            self.threads
        } else {
            std::env::var("SPANNER_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or(1)
        };
        requested.clamp(1, MAX_THREADS)
    }

    /// Compact `key=value` rendering for provenance and tables.
    ///
    /// `threads` appears only when set explicitly in the config: the env
    /// override is deliberately excluded so provenance is a pure function
    /// of the config — thread count cannot change any output.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("t={}", self.stretch)];
        if let Some(eps) = self.epsilon {
            parts.push(format!("eps={eps}"));
        }
        if let Some(k) = self.k {
            parts.push(format!("k={k}"));
        }
        parts.push(format!("cones={}", self.cones));
        parts.push(format!("seed={}", self.seed));
        parts.push(format!("hub={}", self.hub));
        if self.threads > 0 {
            parts.push(format!("threads={}", self.threads));
        }
        parts.join(" ")
    }
}

/// Per-run construction statistics, uniform across algorithms.
///
/// Not every construction produces every number; counters an algorithm does
/// not track are zero and [`RunStats::wall_time`] is always measured by the
/// pipeline itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Candidate edges the construction examined.
    pub edges_examined: usize,
    /// Edges kept in the output spanner.
    pub edges_added: usize,
    /// Wall-clock construction time.
    pub wall_time: Duration,
    /// Peak Dijkstra frontier (priority-queue length; both queues combined
    /// for the bidirectional greedy admission query) over all distance
    /// queries, for constructions that issue them; zero otherwise.
    pub peak_frontier: usize,
    /// Distance queries issued against the CSR query engine; zero for
    /// constructions that issue none. Greedy issues one per candidate whose
    /// endpoints its spanner already connects, plus the parallel loop's
    /// commit re-checks: `edges_examined − (n − c)` on the sequential path,
    /// `c` being the input's number of connected components.
    pub distance_queries: usize,
    /// Queries the engine answered without growing its workspace — i.e. with
    /// zero heap allocations. Engine-backed constructions pre-size the
    /// workspace, so this equals [`RunStats::distance_queries`] for them; a
    /// shortfall means the substrate allocated mid-construction.
    pub workspace_reuse_hits: usize,
    /// Weight-class batches the filter-then-commit loop processed; zero on
    /// the sequential path (every graph input, and `threads = 1`) and for
    /// constructions without a batched loop. Batch boundaries depend only
    /// on the candidate weights, never on the thread count.
    pub batches: usize,
    /// Filter survivors the sequential commit phase re-checked and rejected
    /// because an edge committed *earlier in the same batch* already covered
    /// them — the price of filtering against a frozen snapshot, and the
    /// reason the parallel output still equals the sequential one exactly.
    pub batch_recheck_hits: usize,
    /// Worker threads the construction ran with (1 = sequential path, which
    /// greedy on a graph input always runs; 0 for constructions that do not
    /// report a thread count).
    pub threads_used: usize,
    /// Mean busy fraction of the worker pool across the parallel filter
    /// phases (`1.0` = perfectly balanced or sequential; `0.0` when the
    /// construction reports no utilization).
    pub worker_utilization: f64,
    /// Always zero; see [`KernelStats`].
    pub kernel: KernelStats,
}

/// Where an output came from: which algorithm, which parameters, over what.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Algorithm name, as reported by [`SpannerAlgorithm::name`].
    pub algorithm: String,
    /// Compact parameter rendering (from [`SpannerConfig::describe`]).
    pub parameters: String,
    /// Input description (from [`SpannerInput::describe`]).
    pub input: String,
    /// The stretch this construction guarantees for the run's parameters,
    /// when it guarantees one (the trivial baselines do not).
    pub guaranteed_stretch: Option<f64>,
}

/// The uniform result of every construction: the spanner plus bookkeeping.
#[derive(Debug, Clone)]
pub struct SpannerOutput {
    /// The constructed spanner, over the input's vertex/point indices.
    pub spanner: WeightedGraph,
    /// Construction statistics.
    pub stats: RunStats,
    /// Which algorithm produced this, with which parameters, over what.
    pub provenance: Provenance,
}

impl SpannerOutput {
    /// The spanner graph.
    pub fn spanner(&self) -> &WeightedGraph {
        &self.spanner
    }

    /// Consumes the output and returns the spanner graph.
    pub fn into_spanner(self) -> WeightedGraph {
        self.spanner
    }
}

/// A spanner construction, uniformly invocable over graphs and metrics.
///
/// Implementations are stateless: all parameters arrive in the
/// [`SpannerConfig`] (randomized algorithms derive their RNG from
/// `config.seed`, so equal `(input, config)` pairs give equal outputs).
/// Statelessness is also why the trait requires `Send + Sync`: the batch
/// runner ([`crate::matrix::run_matrix`]) shares one boxed algorithm across
/// its worker threads.
pub trait SpannerAlgorithm: Send + Sync {
    /// Stable, kebab-case name (`"greedy"`, `"baswana-sen"`, …).
    fn name(&self) -> &'static str;

    /// Returns `true` if this construction can consume `input`.
    ///
    /// `build` on an unsupported input returns
    /// [`SpannerError::Unsupported`]; the batch runner uses this predicate to
    /// skip such pairs without treating them as failures.
    fn supports(&self, input: &SpannerInput<'_>) -> bool;

    /// The stretch this construction guarantees under `config`, or `None`
    /// for the baselines that guarantee none (MST, star).
    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64>;

    /// Runs the construction.
    ///
    /// # Errors
    ///
    /// [`SpannerError::Unsupported`] for an input kind the algorithm cannot
    /// consume, otherwise whatever the underlying construction reports
    /// (invalid parameters, empty input, substrate failures).
    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError>;
}

/// Helper for implementations: the standard `Unsupported` error for this
/// algorithm/input pair.
pub(crate) fn unsupported(
    algorithm: &dyn SpannerAlgorithm,
    input: &SpannerInput<'_>,
) -> SpannerError {
    SpannerError::Unsupported {
        algorithm: algorithm.name().to_owned(),
        input: input.kind().to_owned(),
    }
}

/// Helper for implementations: assemble a [`SpannerOutput`], timing the
/// construction closure and filling provenance uniformly.
pub(crate) fn timed_build(
    algorithm: &dyn SpannerAlgorithm,
    input: &SpannerInput<'_>,
    config: &SpannerConfig,
    construct: impl FnOnce() -> Result<(WeightedGraph, RunStats), SpannerError>,
) -> Result<SpannerOutput, SpannerError> {
    let start = Instant::now();
    let (spanner, mut stats) = construct()?;
    stats.wall_time = start.elapsed();
    if stats.edges_added == 0 {
        stats.edges_added = spanner.num_edges();
    }
    Ok(SpannerOutput {
        spanner,
        stats,
        provenance: Provenance {
            algorithm: algorithm.name().to_owned(),
            parameters: config.describe(),
            input: input.describe(),
            guaranteed_stretch: algorithm.guaranteed_stretch(config),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_metric::Point;

    #[test]
    fn input_conversions_and_descriptions() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let input: SpannerInput = (&g).into();
        assert_eq!(input.kind(), "graph");
        assert_eq!(input.len(), 3);
        assert!(!input.is_empty());
        assert!(input.as_metric().is_none());
        assert_eq!(input.describe(), "graph(n=3, m=2)");
        assert_eq!(input.to_graph().num_edges(), 2);

        let pts = EuclideanSpace::new(vec![Point::new([0.0, 0.0]), Point::new([1.0, 0.0])]);
        let input: SpannerInput = (&pts).into();
        assert_eq!(input.kind(), "euclidean-2d");
        assert!(input.as_metric().is_some());
        assert!(input.as_euclidean2().is_some());
        assert_eq!(input.to_graph().num_edges(), 1);

        let line = EuclideanSpace::from_coords([[0.0], [1.0]]);
        let input: SpannerInput = (&line).into();
        assert_eq!(input.kind(), "metric");
        assert!(input.as_euclidean2().is_none());
        assert_eq!(input.describe(), "metric(n=2)");
    }

    #[test]
    fn config_derives_missing_parameters_from_stretch() {
        let c = SpannerConfig::for_stretch(1.5);
        assert!((c.effective_epsilon() - 0.5).abs() < 1e-12);
        assert_eq!(c.effective_k(), 1);

        let c = SpannerConfig::for_stretch(3.0);
        assert!(
            (c.effective_epsilon() - 0.95).abs() < 1e-12,
            "derived eps is capped"
        );
        assert_eq!(c.effective_k(), 2);

        let c = SpannerConfig::for_stretch(5.0);
        assert_eq!(c.effective_k(), 3);

        let c = SpannerConfig {
            epsilon: Some(0.25),
            k: Some(7),
            ..SpannerConfig::for_stretch(9.0)
        };
        assert!((c.effective_epsilon() - 0.25).abs() < 1e-12);
        assert_eq!(c.effective_k(), 7);
    }

    #[test]
    fn config_description_mentions_every_set_parameter() {
        let c = SpannerConfig {
            epsilon: Some(0.5),
            k: Some(2),
            hub: 5,
            ..SpannerConfig::for_stretch(3.0)
        };
        let s = c.describe();
        assert!(s.contains("t=3"));
        assert!(s.contains("hub=5"));
        assert!(s.contains("eps=0.5"));
        assert!(s.contains("k=2"));
    }
}
