//! [`SpannerAlgorithm`] implementations for every construction in this
//! crate, plus the [`registry`] the experiments, benches and batch runner
//! iterate over.
//!
//! | name             | graph | metric | euclidean-2d | guarantee                |
//! |------------------|:-----:|:------:|:------------:|--------------------------|
//! | `greedy`         |  ✓    |  ✓     |  ✓           | `t`                      |
//! | `approx-greedy`  |       |  ✓     |  ✓           | `1 + ε`                  |
//! | `baswana-sen`    |  ✓    |  ✓     |  ✓           | `2k − 1`                 |
//! | `theta-graph`    |       |        |  ✓           | `1/(1 − 2 sin(π/cones))` |
//! | `yao-graph`      |       |        |  ✓           | `1/(1 − 2 sin(π/cones))` |
//! | `wspd`           |       |        |  ✓           | `1 + ε`                  |
//! | `mst`            |  ✓    |  ✓     |  ✓           | none (lightness anchor)  |
//! | `star`           |       |  ✓     |  ✓           | none (size anchor)       |

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::algorithm::{
    timed_build, unsupported, RunStats, SpannerAlgorithm, SpannerConfig, SpannerInput,
    SpannerOutput,
};
use crate::approx_greedy::{run_approx_greedy, ApproxGreedyParams};
use crate::baselines::baswana_sen::run_baswana_sen;
use crate::baselines::theta_graph::{build_cone_graph, cone_stretch_bound};
use crate::baselines::trivial::{run_mst, run_star};
use crate::baselines::wspd_spanner::run_wspd;
use crate::error::SpannerError;
use crate::greedy::run_greedy;

/// The greedy spanner (Algorithm 1 of the paper), on graphs and metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl SpannerAlgorithm for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn supports(&self, _input: &SpannerInput<'_>) -> bool {
        true
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        Some(config.stretch)
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        timed_build(self, input, config, || {
            if input.as_metric().is_some() && input.is_empty() {
                return Err(SpannerError::EmptyInput);
            }
            // Graph inputs run the sequential loop (see `greedy`'s docs).
            let threads = input.as_metric().map_or(1, |_| config.resolve_threads());
            let graph = input.try_to_graph()?;
            let result = run_greedy(&graph, config.stretch, threads)?;
            let stats = RunStats {
                edges_examined: result.edges_examined(),
                edges_added: result.edges_added(),
                peak_frontier: result.peak_frontier(),
                distance_queries: result.distance_queries(),
                workspace_reuse_hits: result.workspace_reuse_hits(),
                batches: result.batches(),
                batch_recheck_hits: result.batch_recheck_hits(),
                threads_used: result.threads_used(),
                worker_utilization: result.worker_utilization(),
                ..RunStats::default()
            };
            Ok((result.into_spanner(), stats))
        })
    }
}

/// The approximate-greedy `(1 + ε)`-spanner for metrics (Section 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxGreedy;

impl SpannerAlgorithm for ApproxGreedy {
    fn name(&self) -> &'static str {
        "approx-greedy"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        input.as_metric().is_some()
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        Some(1.0 + config.effective_epsilon())
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        let metric = input.as_metric().ok_or_else(|| unsupported(self, input))?;
        timed_build(self, input, config, || {
            // The net hierarchy consumes raw metric distances, so a poisoned
            // (NaN / inf / negative) distance must be caught up front to
            // surface as an error instead of corrupting the construction.
            // The scan is O(n²) — the same order as the construction itself.
            validate_metric_distances(metric)?;
            let mut params = ApproxGreedyParams::new(config.effective_epsilon());
            params.threads = config.resolve_threads();
            let result = run_approx_greedy(metric, params)?;
            let stats = RunStats {
                edges_examined: result.light_edges + result.simulated_edges,
                edges_added: result.spanner.num_edges(),
                peak_frontier: result.peak_frontier,
                distance_queries: result.distance_queries,
                workspace_reuse_hits: result.workspace_reuse_hits,
                batches: result.batches,
                batch_recheck_hits: result.batch_recheck_hits,
                threads_used: result.threads_used,
                worker_utilization: result.worker_utilization,
                ..RunStats::default()
            };
            Ok((result.spanner, stats))
        })
    }
}

/// The Baswana–Sen randomized `(2k − 1)`-spanner, on graphs and metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaswanaSen;

impl SpannerAlgorithm for BaswanaSen {
    fn name(&self) -> &'static str {
        "baswana-sen"
    }

    fn supports(&self, _input: &SpannerInput<'_>) -> bool {
        true
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        Some((2 * config.effective_k()) as f64 - 1.0)
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        timed_build(self, input, config, || {
            let graph = input.try_to_graph()?;
            let mut rng = SmallRng::seed_from_u64(config.seed);
            let spanner = run_baswana_sen(&graph, config.effective_k(), &mut rng)?;
            let stats = RunStats {
                edges_examined: graph.num_edges(),
                ..RunStats::default()
            };
            Ok((spanner, stats))
        })
    }
}

/// The Θ-graph spanner for planar point sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThetaGraph;

/// The Yao-graph spanner for planar point sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct YaoGraph;

fn cone_guarantee(config: &SpannerConfig) -> Option<f64> {
    // The 1/(1 − 2 sin(π/k)) bound only holds (and is only positive) for
    // more than eight cones.
    (config.cones > 8).then(|| cone_stretch_bound(config.cones))
}

fn build_cone_algorithm(
    algorithm: &dyn SpannerAlgorithm,
    input: &SpannerInput<'_>,
    config: &SpannerConfig,
    theta_projection: bool,
) -> Result<SpannerOutput, SpannerError> {
    let space = input
        .as_euclidean2()
        .ok_or_else(|| unsupported(algorithm, input))?;
    timed_build(algorithm, input, config, || {
        let spanner = build_cone_graph(space, config.cones, theta_projection)?;
        let n = spanner.num_vertices();
        let stats = RunStats {
            edges_examined: n.saturating_sub(1) * n / 2,
            ..RunStats::default()
        };
        Ok((spanner, stats))
    })
}

impl SpannerAlgorithm for ThetaGraph {
    fn name(&self) -> &'static str {
        "theta-graph"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        input.as_euclidean2().is_some()
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        cone_guarantee(config)
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        build_cone_algorithm(self, input, config, true)
    }
}

impl SpannerAlgorithm for YaoGraph {
    fn name(&self) -> &'static str {
        "yao-graph"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        input.as_euclidean2().is_some()
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        cone_guarantee(config)
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        build_cone_algorithm(self, input, config, false)
    }
}

/// The WSPD-based `(1 + ε)`-spanner for planar point sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wspd;

impl SpannerAlgorithm for Wspd {
    fn name(&self) -> &'static str {
        "wspd"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        input.as_euclidean2().is_some()
    }

    fn guaranteed_stretch(&self, config: &SpannerConfig) -> Option<f64> {
        Some(1.0 + config.effective_epsilon())
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        let space = input
            .as_euclidean2()
            .ok_or_else(|| unsupported(self, input))?;
        timed_build(self, input, config, || {
            let spanner = run_wspd(space, config.effective_epsilon())?;
            Ok((spanner, RunStats::default()))
        })
    }
}

/// The MST baseline (lightness 1, unbounded stretch), on graphs and metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mst;

impl SpannerAlgorithm for Mst {
    fn name(&self) -> &'static str {
        "mst"
    }

    fn supports(&self, _input: &SpannerInput<'_>) -> bool {
        true
    }

    fn guaranteed_stretch(&self, _config: &SpannerConfig) -> Option<f64> {
        None
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        timed_build(self, input, config, || {
            let graph = input.try_to_graph()?;
            let spanner = run_mst(&graph);
            let stats = RunStats {
                edges_examined: graph.num_edges(),
                ..RunStats::default()
            };
            Ok((spanner, stats))
        })
    }
}

/// The star baseline (hop-diameter 2, unbounded stretch), on metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Star;

impl SpannerAlgorithm for Star {
    fn name(&self) -> &'static str {
        "star"
    }

    fn supports(&self, input: &SpannerInput<'_>) -> bool {
        input.as_metric().is_some()
    }

    fn guaranteed_stretch(&self, _config: &SpannerConfig) -> Option<f64> {
        None
    }

    fn build(
        &self,
        input: &SpannerInput<'_>,
        config: &SpannerConfig,
    ) -> Result<SpannerOutput, SpannerError> {
        let metric = input.as_metric().ok_or_else(|| unsupported(self, input))?;
        timed_build(self, input, config, || {
            let spanner = run_star(metric, config.hub)?;
            let stats = RunStats {
                edges_examined: metric.len().saturating_sub(1),
                ..RunStats::default()
            };
            Ok((spanner, stats))
        })
    }
}

/// Checks every pairwise distance of a metric for `NaN` / infinite /
/// negative values, reporting the first offender as
/// [`spanner_graph::GraphError::InvalidWeight`] — the upfront guard for
/// constructions that consume raw distances instead of materializing the
/// complete graph (which performs the same validation as it builds).
fn validate_metric_distances(metric: &dyn spanner_metric::MetricSpace) -> Result<(), SpannerError> {
    let n = metric.len();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.distance(i, j);
            if !(d.is_finite() && d >= 0.0) {
                return Err(spanner_graph::GraphError::InvalidWeight { weight: d }.into());
            }
        }
    }
    Ok(())
}

/// All spanner constructions this crate provides, boxed for uniform
/// iteration — the discovery point for the experiments binary, the benches
/// and [`crate::matrix::run_matrix`].
pub fn registry() -> Vec<Box<dyn SpannerAlgorithm>> {
    vec![
        Box::new(Greedy),
        Box::new(ApproxGreedy),
        Box::new(BaswanaSen),
        Box::new(ThetaGraph),
        Box::new(YaoGraph),
        Box::new(Wspd),
        Box::new(Mst),
        Box::new(Star),
    ]
}

/// Looks an algorithm up by its [`SpannerAlgorithm::name`].
pub fn by_name(name: &str) -> Option<Box<dyn SpannerAlgorithm>> {
    registry().into_iter().find(|a| a.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{evaluate, max_stretch_all_pairs};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::erdos_renyi_connected;
    use spanner_metric::generators::uniform_points;
    use spanner_metric::MetricSpace;

    #[test]
    fn registry_is_complete_and_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|a| a.name()).collect();
        assert!(names.len() >= 7, "at least 7 constructions: {names:?}");
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate names in {names:?}");
        for expected in [
            "greedy",
            "approx-greedy",
            "baswana-sen",
            "theta-graph",
            "yao-graph",
            "wspd",
            "mst",
            "star",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
            assert!(by_name(expected).is_some());
        }
        assert!(by_name("no-such-algorithm").is_none());
    }

    #[test]
    fn every_algorithm_builds_on_a_planar_point_set() {
        let mut rng = SmallRng::seed_from_u64(7);
        let points = uniform_points::<2, _>(40, &mut rng);
        let input = SpannerInput::from(&points);
        let complete = points.to_complete_graph();
        let config = SpannerConfig::for_stretch(3.0);
        for algorithm in registry() {
            assert!(algorithm.supports(&input), "{}", algorithm.name());
            let out = algorithm
                .build(&input, &config)
                .unwrap_or_else(|_| panic!("{}", algorithm.name()));
            assert_eq!(out.spanner.num_vertices(), 40);
            assert!(
                out.spanner.num_edges() >= 39,
                "{} must connect",
                algorithm.name()
            );
            assert_eq!(out.provenance.algorithm, algorithm.name());
            if let Some(bound) = algorithm.guaranteed_stretch(&config) {
                let measured = max_stretch_all_pairs(&complete, &out.spanner);
                assert!(
                    measured <= bound * (1.0 + 1e-9) + 1e-12,
                    "{}: measured {measured} exceeds guarantee {bound}",
                    algorithm.name()
                );
            }
        }
    }

    #[test]
    fn poisoned_metric_distances_surface_as_errors_from_every_construction() {
        // A metric with one NaN pairwise distance used to either panic
        // (star, approx-greedy) or silently drop the pair during complete-
        // graph materialization (greedy, baswana-sen, mst) — producing a
        // wrong spanner with no signal. Every construction must now fail the
        // build cleanly with the InvalidWeight graph error.
        use spanner_metric::ExplicitMetric;
        for bad in [f64::NAN, f64::INFINITY, -2.0] {
            // The poisoned pair is incident to vertex 0 so even the star
            // baseline (which only reads hub distances) must see it.
            let metric = ExplicitMetric::from_fn_unchecked(5, |i, j| {
                if (i.min(j), i.max(j)) == (0, 3) {
                    bad
                } else {
                    1.0 + (i + j) as f64
                }
            });
            let input = SpannerInput::from(&metric);
            let config = SpannerConfig::for_stretch(2.0);
            for algorithm in registry() {
                if !algorithm.supports(&input) {
                    continue; // geometric constructions never see the metric
                }
                let result = algorithm.build(&input, &config);
                assert!(
                    matches!(
                        result,
                        Err(SpannerError::Graph(
                            spanner_graph::GraphError::InvalidWeight { .. }
                        ))
                    ),
                    "{} with distance {bad}: expected InvalidWeight, got {result:?}",
                    algorithm.name()
                );
            }
        }
    }

    #[test]
    fn graph_only_inputs_are_rejected_by_geometric_algorithms() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = erdos_renyi_connected(20, 0.3, 1.0..4.0, &mut rng);
        let input = SpannerInput::from(&g);
        let config = SpannerConfig::for_stretch(2.0);
        for name in ["theta-graph", "yao-graph", "wspd", "star", "approx-greedy"] {
            let algorithm = by_name(name).unwrap();
            assert!(!algorithm.supports(&input), "{name}");
            assert!(matches!(
                algorithm.build(&input, &config),
                Err(SpannerError::Unsupported { .. })
            ));
        }
        for name in ["greedy", "baswana-sen", "mst"] {
            let algorithm = by_name(name).unwrap();
            assert!(algorithm.supports(&input), "{name}");
            let out = algorithm.build(&input, &config).expect(name);
            assert!(out.spanner.is_edge_subgraph_of(&g), "{name}");
        }
    }

    #[test]
    fn greedy_output_matches_the_reference_loop() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
        // threads pinned to 1: the suite must pass under any SPANNER_THREADS,
        // and this test asserts the sequential path's bookkeeping.
        let config = SpannerConfig {
            threads: 1,
            ..SpannerConfig::for_stretch(2.5)
        };
        let via_trait = Greedy.build(&SpannerInput::from(&g), &config).unwrap();
        let reference = crate::greedy::greedy_spanner_reference(&g, 2.5).unwrap();
        assert_eq!(via_trait.spanner, *reference.spanner());
        assert_eq!(via_trait.stats.edges_examined, reference.edges_examined());
        assert!(via_trait.stats.peak_frontier > 0);
        assert!(via_trait.stats.wall_time.as_nanos() > 0);
        assert_eq!(via_trait.stats.threads_used, 1);
        assert!((via_trait.stats.worker_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threads_config_changes_no_output_and_surfaces_parallel_stats() {
        let mut rng = SmallRng::seed_from_u64(19);
        let points = uniform_points::<2, _>(50, &mut rng);
        let input = SpannerInput::from(&points);
        let one_thread = |t| SpannerConfig {
            threads: 1,
            ..SpannerConfig::for_stretch(t)
        };
        let sequential = Greedy.build(&input, &one_thread(1.5)).unwrap();
        for threads in [2, 4, 8] {
            let config = SpannerConfig {
                threads,
                ..SpannerConfig::for_stretch(1.5)
            };
            let parallel = Greedy.build(&input, &config).unwrap();
            assert_eq!(parallel.spanner, sequential.spanner, "threads = {threads}");
            assert_eq!(parallel.stats.threads_used, threads);
            assert!(parallel.stats.batches >= 1);
            assert_eq!(
                parallel.stats.workspace_reuse_hits, parallel.stats.distance_queries,
                "pool engines must stay allocation-free"
            );
            assert!(config.describe().contains(&format!("threads={threads}")));
        }
        assert_eq!(sequential.stats.batches, 0, "sequential path never batches");

        // A graph input runs the sequential loop at every thread count.
        let g = erdos_renyi_connected(50, 0.3, 1.0..10.0, &mut rng);
        let graph_input = SpannerInput::from(&g);
        let reference = Greedy.build(&graph_input, &one_thread(2.0)).unwrap();
        for threads in [2, 8] {
            let config = SpannerConfig {
                threads,
                ..SpannerConfig::for_stretch(2.0)
            };
            let out = Greedy.build(&graph_input, &config).unwrap();
            assert_eq!(out.spanner, reference.spanner, "threads = {threads}");
            assert_eq!(out.stats.threads_used, 1);
            assert_eq!(out.stats.batches, 0);
            assert_eq!(out.stats.distance_queries, reference.stats.distance_queries);
        }
    }

    #[test]
    fn baswana_sen_is_deterministic_per_seed() {
        let mut rng = SmallRng::seed_from_u64(10);
        let g = erdos_renyi_connected(40, 0.3, 1.0..10.0, &mut rng);
        let input = SpannerInput::from(&g);
        let config = SpannerConfig {
            k: Some(2),
            seed: 42,
            ..SpannerConfig::default()
        };
        let a = BaswanaSen.build(&input, &config).unwrap();
        let b = BaswanaSen.build(&input, &config).unwrap();
        assert_eq!(a.spanner.num_edges(), b.spanner.num_edges());
        assert!((a.spanner.total_weight() - b.spanner.total_weight()).abs() < 1e-12);
        // The seed must actually steer the sampling: across a handful of
        // seeds, at least two runs must differ. (Any single pair of seeds
        // may coincide by chance; all of them coinciding means the seed is
        // ignored. The seeds are fixed, so this is deterministic in
        // practice.)
        let weights: Vec<f64> = (43..47)
            .map(|seed| {
                BaswanaSen
                    .build(
                        &input,
                        &SpannerConfig {
                            seed,
                            ..config.clone()
                        },
                    )
                    .unwrap()
                    .spanner
                    .total_weight()
            })
            .collect();
        let seed42 = a.spanner.total_weight();
        assert!(
            weights.iter().any(|w| (w - seed42).abs() > 1e-12),
            "every seed produced an identical spanner — config.seed is being ignored"
        );
    }

    #[test]
    fn stretch_guarantees_follow_the_config() {
        let config = SpannerConfig {
            k: Some(3),
            epsilon: Some(0.5),
            ..SpannerConfig::for_stretch(9.0)
        };
        assert_eq!(Greedy.guaranteed_stretch(&config), Some(9.0));
        assert_eq!(BaswanaSen.guaranteed_stretch(&config), Some(5.0));
        assert_eq!(ApproxGreedy.guaranteed_stretch(&config), Some(1.5));
        assert_eq!(Wspd.guaranteed_stretch(&config), Some(1.5));
        assert_eq!(Mst.guaranteed_stretch(&config), None);
        assert_eq!(Star.guaranteed_stretch(&config), None);
        assert!(ThetaGraph.guaranteed_stretch(&config).unwrap() > 1.0);
        let few_cones = SpannerConfig {
            cones: 6,
            ..SpannerConfig::default()
        };
        assert_eq!(ThetaGraph.guaranteed_stretch(&few_cones), None);
    }

    #[test]
    fn evaluate_composes_with_outputs() {
        let mut rng = SmallRng::seed_from_u64(11);
        let points = uniform_points::<2, _>(30, &mut rng);
        let input = SpannerInput::from(&points);
        let config = SpannerConfig::for_stretch(1.5);
        let out = Greedy.build(&input, &config).unwrap();
        let report = evaluate(&input.reference_graph(), &out.spanner, config.stretch);
        assert!(report.meets_stretch_target());
    }
}
