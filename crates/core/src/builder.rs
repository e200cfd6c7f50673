//! Fluent entry point to the unified pipeline:
//! `Spanner::greedy().stretch(3.0).seed(7).build(&g)`.
//!
//! A [`SpannerBuilder`] pairs one [`SpannerAlgorithm`] with a
//! [`SpannerConfig`] under construction. `build` borrows the input, so one
//! builder can be reused across many inputs (the benches construct the
//! builder once and call `build` inside the timing loop).

use crate::algorithm::{SpannerAlgorithm, SpannerConfig, SpannerInput, SpannerOutput};
use crate::algorithms;
use crate::error::SpannerError;

/// Entry point for the fluent pipeline; each constructor names one
/// construction from [`algorithms::registry`].
///
/// # Example
///
/// ```
/// use greedy_spanner::builder::Spanner;
/// use spanner_graph::WeightedGraph;
///
/// let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])?;
/// let output = Spanner::greedy().stretch(2.0).build(&g)?;
/// assert_eq!(output.spanner.num_edges(), 2);
/// assert_eq!(output.provenance.algorithm, "greedy");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Spanner;

impl Spanner {
    /// The greedy spanner (graphs and metrics).
    pub fn greedy() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::Greedy))
    }

    /// The approximate-greedy `(1 + ε)`-spanner (metrics).
    pub fn approx_greedy() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::ApproxGreedy))
    }

    /// The Baswana–Sen `(2k − 1)`-spanner (graphs and metrics).
    pub fn baswana_sen() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::BaswanaSen))
    }

    /// The Θ-graph spanner (planar point sets).
    pub fn theta_graph() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::ThetaGraph))
    }

    /// The Yao-graph spanner (planar point sets).
    pub fn yao_graph() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::YaoGraph))
    }

    /// The WSPD `(1 + ε)`-spanner (planar point sets).
    pub fn wspd() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::Wspd))
    }

    /// The MST baseline (graphs and metrics).
    pub fn mst() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::Mst))
    }

    /// The star baseline (metrics).
    pub fn star() -> SpannerBuilder {
        SpannerBuilder::new(Box::new(algorithms::Star))
    }

    /// A builder for a registry algorithm looked up by name.
    pub fn named(name: &str) -> Option<SpannerBuilder> {
        algorithms::by_name(name).map(SpannerBuilder::new)
    }
}

/// A [`SpannerAlgorithm`] paired with the [`SpannerConfig`] being assembled.
pub struct SpannerBuilder {
    algorithm: Box<dyn SpannerAlgorithm>,
    config: SpannerConfig,
}

impl SpannerBuilder {
    /// Wraps an algorithm with the default configuration.
    pub fn new(algorithm: Box<dyn SpannerAlgorithm>) -> Self {
        SpannerBuilder {
            algorithm,
            config: SpannerConfig::default(),
        }
    }

    /// Sets the stretch target `t`.
    pub fn stretch(mut self, t: f64) -> Self {
        self.config.stretch = t;
        self
    }

    /// Sets ε for `(1 + ε)` constructions and aligns the stretch target.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = Some(epsilon);
        self.config.stretch = 1.0 + epsilon;
        self
    }

    /// Sets `k` for `(2k − 1)` constructions and aligns the stretch target.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = Some(k);
        self.config.stretch = (2 * k.max(1)) as f64 - 1.0;
        self
    }

    /// Sets the cone count for Θ-/Yao-graphs.
    pub fn cones(mut self, cones: usize) -> Self {
        self.config.cones = cones;
        self
    }

    /// Sets the RNG seed for randomized constructions.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread count for the filter-then-commit loop that
    /// metric inputs run (`Spanner::greedy().threads(8)`; graph inputs run
    /// the sequential loop at every count); `0` restores the default auto
    /// behavior (`SPANNER_THREADS` env var, else 1). The output is
    /// bit-identical at every thread count: a pure throughput knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the hub vertex for the star baseline.
    pub fn hub(mut self, hub: usize) -> Self {
        self.config.hub = hub;
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: SpannerConfig) -> Self {
        self.config = config;
        self
    }

    /// The algorithm this builder dispatches to.
    pub fn algorithm(&self) -> &dyn SpannerAlgorithm {
        self.algorithm.as_ref()
    }

    /// The configuration assembled so far.
    pub fn current_config(&self) -> &SpannerConfig {
        &self.config
    }

    /// Runs the construction over `input` (a `&WeightedGraph`, a Euclidean
    /// point set, any [`SpannerInput`], …). The builder is borrowed, so it
    /// can be reused for further builds.
    ///
    /// # Errors
    ///
    /// Whatever [`SpannerAlgorithm::build`] reports for this algorithm,
    /// input and configuration.
    pub fn build<'a>(
        &self,
        input: impl Into<SpannerInput<'a>>,
    ) -> Result<SpannerOutput, SpannerError> {
        self.algorithm.build(&input.into(), &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_t_spanner, max_stretch_all_pairs};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::erdos_renyi_connected;
    use spanner_metric::generators::uniform_points;
    use spanner_metric::MetricSpace;

    #[test]
    fn fluent_chain_matches_the_issue_shape() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
        let output = Spanner::greedy().stretch(3.0).seed(7).build(&g).unwrap();
        assert!(is_t_spanner(&g, &output.spanner, 3.0));
        assert_eq!(output.provenance.algorithm, "greedy");
        assert_eq!(output.provenance.guaranteed_stretch, Some(3.0));
    }

    #[test]
    fn epsilon_and_k_setters_align_the_stretch_target() {
        let b = Spanner::approx_greedy().epsilon(0.5);
        assert!((b.current_config().stretch - 1.5).abs() < 1e-12);
        let b = Spanner::baswana_sen().k(3);
        assert!((b.current_config().stretch - 5.0).abs() < 1e-12);
        assert_eq!(b.current_config().k, Some(3));
    }

    #[test]
    fn threads_setter_reaches_the_config_and_keeps_output_stable() {
        let mut rng = SmallRng::seed_from_u64(24);
        let points = uniform_points::<2, _>(40, &mut rng);
        let builder = Spanner::greedy().stretch(1.5).threads(8);
        assert_eq!(builder.current_config().threads, 8);
        let parallel = builder.build(&points).unwrap();
        let sequential = Spanner::greedy()
            .stretch(1.5)
            .threads(1)
            .build(&points)
            .unwrap();
        assert_eq!(parallel.spanner, sequential.spanner);
        assert_eq!(parallel.stats.threads_used, 8);
        assert_eq!(sequential.stats.threads_used, 1);
        // A graph input runs the sequential loop at every thread count.
        let g = erdos_renyi_connected(40, 0.3, 1.0..10.0, &mut rng);
        let graph_build = builder.build(&g).unwrap();
        assert_eq!(graph_build.stats.threads_used, 1);
    }

    #[test]
    fn builder_is_reusable_across_inputs() {
        let mut rng = SmallRng::seed_from_u64(22);
        let builder = Spanner::greedy().stretch(2.0);
        for _ in 0..3 {
            let g = erdos_renyi_connected(20, 0.3, 1.0..5.0, &mut rng);
            let out = builder.build(&g).unwrap();
            assert!(is_t_spanner(&g, &out.spanner, 2.0));
        }
    }

    #[test]
    fn named_lookup_round_trips_the_registry() {
        for algorithm in crate::algorithms::registry() {
            let builder =
                Spanner::named(algorithm.name()).unwrap_or_else(|| panic!("{}", algorithm.name()));
            assert_eq!(builder.algorithm().name(), algorithm.name());
        }
        assert!(Spanner::named("nope").is_none());
    }

    #[test]
    fn metric_builds_work_end_to_end() {
        let mut rng = SmallRng::seed_from_u64(23);
        let points = uniform_points::<2, _>(40, &mut rng);
        let complete = points.to_complete_graph();
        let out = Spanner::approx_greedy()
            .epsilon(0.5)
            .build(&points)
            .unwrap();
        assert!(max_stretch_all_pairs(&complete, &out.spanner) <= 1.5 + 1e-9);
        let out = Spanner::star().hub(3).build(&points).unwrap();
        assert_eq!(out.spanner.degree(3.into()), 39);
    }
}
