//! End-to-end integration tests spanning all three member crates:
//! generators → unified spanner pipeline → analysis.

use greedy_spanner::algorithms::registry;
use greedy_spanner::analysis::{evaluate, is_t_spanner, lightness, max_stretch_all_pairs};
use greedy_spanner::optimality::contains_mst;
use greedy_spanner::{Spanner, SpannerConfig, SpannerInput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::connectivity::connected_components;
use spanner_graph::generators::{erdos_renyi_connected, grid_graph, random_geometric_connected};
use spanner_graph::mst::mst_weight;
use spanner_metric::generators::{clustered_points, uniform_points};
use spanner_metric::{GraphMetric, MetricSpace};

#[test]
fn graph_pipeline_generate_spanner_analyze() {
    let mut rng = SmallRng::seed_from_u64(1);
    let g = erdos_renyi_connected(120, 0.15, 1.0..10.0, &mut rng);
    for t in [1.5, 2.0, 4.0] {
        // threads pinned to 1: the exact query count asserted below is
        // specific to the sequential path (the parallel loop adds commit
        // re-checks), and the suite runs under any SPANNER_THREADS.
        let result = Spanner::greedy()
            .stretch(t)
            .threads(1)
            .build(&g)
            .expect("valid stretch");
        let report = evaluate(&g, &result.spanner, t);
        assert!(report.meets_stretch_target(), "t = {t}");
        assert!(contains_mst(&g, &result.spanner));
        assert!(report.summary.num_edges <= g.num_edges());
        assert!(report.summary.lightness >= 1.0 - 1e-9);
        // The pipeline's uniform stats agree with the graph.
        assert_eq!(result.stats.edges_examined, g.num_edges());
        assert_eq!(result.stats.edges_added, result.spanner.num_edges());
        assert!(result.stats.peak_frontier > 0);
        // The CSR substrate contract: one bounded query per candidate edge
        // except the `n − c` that join two components of the spanner (those
        // are admitted without a search), and every query answered from the
        // pre-sized engine workspace with zero per-query heap allocation.
        let components = connected_components(&g).1;
        assert_eq!(
            result.stats.distance_queries,
            g.num_edges() - (g.num_vertices() - components)
        );
        assert_eq!(
            result.stats.workspace_reuse_hits, result.stats.distance_queries,
            "t = {t}: a greedy query allocated mid-construction"
        );
    }
}

#[test]
fn geometric_graph_pipeline() {
    let mut rng = SmallRng::seed_from_u64(2);
    let (g, _) = random_geometric_connected(150, 0.15, &mut rng);
    let spanner = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    assert!(is_t_spanner(&g, &spanner.spanner, 2.0));
    // The spanner of a geometric graph is itself a plausible communication
    // backbone: light and low degree.
    assert!(lightness(&g, &spanner.spanner) < lightness(&g, &g) + 1e-9);
}

#[test]
fn grid_pipeline_with_all_baselines_on_induced_metric() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = grid_graph(6, 7, 0.2, &mut rng);
    let metric = GraphMetric::new(&g).expect("grid is connected");
    let complete = metric.to_complete_graph();

    let greedy = Spanner::greedy()
        .stretch(1.5)
        .build(&metric)
        .expect("non-empty");
    assert!(is_t_spanner(&complete, &greedy.spanner, 1.5));

    let bs = Spanner::baswana_sen()
        .k(2)
        .seed(3)
        .build(&complete)
        .expect("valid k");
    assert!(is_t_spanner(&complete, &bs.spanner, 3.0));
    assert_eq!(bs.provenance.guaranteed_stretch, Some(3.0));

    let star = Spanner::star().build(&metric).expect("non-empty");
    assert_eq!(star.spanner.num_edges(), metric.len() - 1);

    let mst = Spanner::mst().build(&complete).expect("non-empty");
    assert!((mst.spanner.total_weight() - mst_weight(&complete)).abs() < 1e-9);
}

#[test]
fn euclidean_pipeline_greedy_vs_baselines_shape() {
    // The qualitative shape of the paper's Section 1.2 claim: the greedy
    // spanner is sparser and lighter than Θ-graph and WSPD baselines built
    // for a comparable stretch.
    let mut rng = SmallRng::seed_from_u64(4);
    let points = uniform_points::<2, _>(150, &mut rng);
    let complete = points.to_complete_graph();

    let greedy = Spanner::greedy()
        .stretch(1.5)
        .build(&points)
        .expect("non-empty")
        .into_spanner();
    let theta = Spanner::theta_graph()
        .cones(12)
        .build(&points)
        .expect("valid cones")
        .into_spanner();
    let wspd = Spanner::wspd()
        .epsilon(0.5)
        .build(&points)
        .expect("valid epsilon")
        .into_spanner();

    assert!(greedy.num_edges() <= theta.num_edges());
    assert!(greedy.num_edges() <= wspd.num_edges());
    assert!(lightness(&complete, &greedy) <= lightness(&complete, &wspd) + 1e-9);
    // All of them satisfy their stretch targets.
    assert!(max_stretch_all_pairs(&complete, &greedy) <= 1.5 + 1e-9);
    assert!(max_stretch_all_pairs(&complete, &wspd) <= 1.5 + 1e-9);
}

#[test]
fn approximate_greedy_pipeline_on_clustered_points() {
    let mut rng = SmallRng::seed_from_u64(5);
    let points = clustered_points::<2, _>(140, 6, 0.03, &mut rng);
    let complete = points.to_complete_graph();
    let approx = Spanner::approx_greedy()
        .epsilon(0.5)
        .build(&points)
        .expect("non-empty");
    assert!(max_stretch_all_pairs(&complete, &approx.spanner) <= 1.5 + 1e-9);
    // Lightness is finite and not absurd relative to the exact greedy.
    let exact = Spanner::greedy()
        .stretch(1.5)
        .build(&points)
        .expect("non-empty");
    let ratio = lightness(&complete, &approx.spanner) / lightness(&complete, &exact.spanner);
    assert!(
        ratio < 10.0,
        "approximate-greedy lightness ratio {ratio} too large"
    );
}

#[test]
fn whole_registry_runs_on_one_workload() {
    // The point of the unified pipeline: one loop, every construction.
    let mut rng = SmallRng::seed_from_u64(6);
    let points = uniform_points::<2, _>(60, &mut rng);
    let input = SpannerInput::from(&points);
    let reference = input.reference_graph();
    let config = SpannerConfig {
        stretch: 2.0,
        seed: 7,
        ..SpannerConfig::default()
    };
    let mut ran = 0;
    for algorithm in registry() {
        assert!(algorithm.supports(&input), "{}", algorithm.name());
        let out = algorithm
            .build(&input, &config)
            .unwrap_or_else(|_| panic!("{}", algorithm.name()));
        assert_eq!(out.spanner.num_vertices(), 60, "{}", algorithm.name());
        assert!(
            spanner_graph::connectivity::is_connected(&out.spanner),
            "{}",
            algorithm.name()
        );
        if let Some(bound) = out.provenance.guaranteed_stretch {
            assert!(
                max_stretch_all_pairs(&reference, &out.spanner) <= bound * (1.0 + 1e-9) + 1e-12,
                "{}",
                algorithm.name()
            );
        }
        ran += 1;
    }
    assert!(ran >= 7, "expected the full registry to run, got {ran}");
}

#[test]
fn facade_prelude_is_usable() {
    use greedy_spanner_suite::prelude::*;
    let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.5)]).unwrap();
    let spanner = Spanner::greedy().stretch(2.0).build(&g).unwrap();
    let report = evaluate(&g, &spanner.spanner, 2.0);
    assert!(report.meets_stretch_target());
    assert_eq!(spanner.spanner.num_edges(), 2);
}

#[test]
fn parallel_pipeline_is_thread_count_invariant_end_to_end() {
    // The determinism guarantee across all three crates: graph inputs run
    // the sequential loop and metric inputs the filter-then-commit loop at
    // every thread count, with bit-identical spanners — and the reference
    // loop agrees too.
    let mut rng = SmallRng::seed_from_u64(8);
    let g = erdos_renyi_connected(60, 0.2, 1.0..10.0, &mut rng);
    let reference = greedy_spanner::greedy::greedy_spanner_reference(&g, 2.0).unwrap();
    for threads in [1, 2, 4, 8] {
        let out = Spanner::greedy()
            .stretch(2.0)
            .threads(threads)
            .build(&g)
            .unwrap();
        assert_eq!(
            out.spanner,
            *reference.spanner(),
            "threads = {threads}: graph greedy must match the reference"
        );
        assert_eq!(out.stats.threads_used, 1, "graph inputs run one loop");
        assert_eq!(out.stats.batches, 0);
        assert_eq!(
            out.stats.workspace_reuse_hits, out.stats.distance_queries,
            "threads = {threads}: every query must be allocation-free"
        );
    }

    let points = uniform_points::<2, _>(40, &mut rng);
    let sequential = Spanner::greedy().stretch(1.5).build(&points).unwrap();
    let parallel = Spanner::greedy()
        .stretch(1.5)
        .threads(8)
        .build(&points)
        .unwrap();
    assert_eq!(sequential.spanner, parallel.spanner);
    assert_eq!(
        sequential.stats.edges_examined,
        parallel.stats.edges_examined
    );
    assert!(parallel.stats.batches >= 1);
    assert_eq!(parallel.stats.threads_used, 8);
}

#[test]
fn matrix_cells_parallelize_with_identical_results() {
    let mut rng = SmallRng::seed_from_u64(9);
    let g = erdos_renyi_connected(30, 0.3, 1.0..5.0, &mut rng);
    let points = uniform_points::<2, _>(30, &mut rng);
    let inputs = [
        ("er", SpannerInput::from(&g)),
        ("pts", SpannerInput::from(&points)),
    ];
    let algorithms = registry();
    let stretches = [1.5, 3.0];
    let sequential =
        greedy_spanner::run_matrix(&inputs, &algorithms, &stretches, &SpannerConfig::default());
    let parallel = greedy_spanner::run_matrix(
        &inputs,
        &algorithms,
        &stretches,
        &SpannerConfig {
            threads: 4,
            ..SpannerConfig::default()
        },
    );
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            (s.input.as_str(), s.algorithm.as_str()),
            (p.input.as_str(), p.algorithm.as_str())
        );
        assert_eq!(
            s.output.as_ref().unwrap().spanner,
            p.output.as_ref().unwrap().spanner
        );
    }
    let agg = greedy_spanner::aggregate_stats(&parallel);
    assert_eq!(agg.cells, parallel.len());
    assert_eq!(agg.failures, 0);
}
