//! Quickstart: build spanners through the unified pipeline — the fluent
//! builder for single constructions, the registry for running every
//! construction under the same harness — and print size / lightness /
//! stretch reports.
//!
//! Run with `cargo run --release --example quickstart`.

use greedy_spanner_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_metric::generators::uniform_points;

fn main() -> Result<(), SpannerError> {
    let mut rng = SmallRng::seed_from_u64(42);

    // 1. A weighted graph: greedy 3-spanner via the fluent builder.
    let graph = erdos_renyi_connected(300, 0.08, 1.0..10.0, &mut rng);
    let greedy = Spanner::greedy().stretch(3.0).build(&graph)?;
    let report = evaluate(&graph, &greedy.spanner, 3.0);
    println!(
        "greedy 3-spanner of a random graph ({} vertices):",
        graph.num_vertices()
    );
    println!("  input edges    : {}", graph.num_edges());
    println!("  spanner edges  : {}", report.summary.num_edges);
    println!("  lightness      : {:.3}", report.summary.lightness);
    println!("  max degree     : {}", report.summary.max_degree);
    println!(
        "  built in       : {:.1} ms",
        greedy.stats.wall_time.as_secs_f64() * 1e3
    );
    println!(
        "  measured stretch {:.3} (target {:.1})",
        report.max_stretch, 3.0
    );
    // The construction ran on the CSR query substrate: one bounded Dijkstra
    // per candidate edge whose endpoints the spanner already connects (the
    // others join two components and are admitted without one), every one
    // answered from the engine's pre-sized workspace with zero per-query
    // heap allocation.
    println!(
        "  {} distance queries, {} workspace reuse hits",
        greedy.stats.distance_queries, greedy.stats.workspace_reuse_hits
    );
    assert_eq!(
        greedy.stats.workspace_reuse_hits,
        greedy.stats.distance_queries
    );
    assert!(report.meets_stretch_target());

    // 2. A planar point set: greedy (1 + ε)-spanner of the induced metric.
    //    Same builder, different input kind — the pipeline is uniform.
    let points = uniform_points::<2, _>(250, &mut rng);
    let complete = points.to_complete_graph();
    // `prepared` pairs the metric with its distance graph so the registry
    // loop below does not re-materialize it per construction.
    let input = SpannerInput::prepared_euclidean2(&points, &complete);
    let metric_result = Spanner::greedy().stretch(1.5).build(input)?;
    let metric_report = evaluate(&complete, &metric_result.spanner, 1.5);
    println!("\ngreedy 1.5-spanner of {} uniform points:", points.len());
    println!("  candidate pairs: {}", metric_result.stats.edges_examined);
    println!("  spanner edges  : {}", metric_report.summary.num_edges);
    println!("  lightness      : {:.3}", metric_report.summary.lightness);
    println!("  measured stretch {:.3}", metric_report.max_stretch);
    assert!(metric_report.meets_stretch_target());

    // 3. The approximate-greedy construction (Section 5): greedy over the
    //    O(n) edges of a bounded-degree base spanner.
    let approx = Spanner::approx_greedy().epsilon(0.5).build(&points)?;
    let approx_report = evaluate(&complete, &approx.spanner, 1.5);
    println!("\napproximate-greedy (1 + 0.5)-spanner of the same points:");
    println!("  spanner edges  : {}", approx_report.summary.num_edges);
    println!("  lightness      : {:.3}", approx_report.summary.lightness);
    println!("  measured stretch {:.3}", approx_report.max_stretch);
    assert!(approx_report.meets_stretch_target());

    // 4. Every construction in the registry over the same input — the
    //    uniform dispatch the paper's comparative claim needs.
    println!("\nall registry constructions on the same 250 points:");
    let config = SpannerConfig::for_stretch(1.5);
    for algorithm in registry() {
        if !algorithm.supports(&input) {
            continue;
        }
        let out = algorithm.build(&input, &config)?;
        println!(
            "  {:<14} {:>6} edges   lightness {:>7.3}   {:>7.1} ms",
            out.provenance.algorithm,
            out.spanner.num_edges(),
            lightness(&complete, &out.spanner),
            out.stats.wall_time.as_secs_f64() * 1e3,
        );
    }

    // 5. Parallel construction: on a metric input, `threads(k)` runs the
    //    batched filter-then-commit loop over a pool of per-worker engines.
    //    The output is bit-identical at every thread count (the
    //    determinism guarantee), so this is purely a throughput knob — also
    //    settable globally via the SPANNER_THREADS environment variable.
    //    Graph inputs, whose queries are cheap, run the sequential loop at
    //    every thread count.
    let parallel = Spanner::greedy().stretch(1.5).threads(4).build(input)?;
    assert_eq!(parallel.spanner, metric_result.spanner);
    assert!(parallel.stats.batches > 0);
    println!(
        "\nsame metric spanner rebuilt with 4 threads in {:.1} ms: {} batches, \
         {} recheck hits, utilization {:.2}",
        parallel.stats.wall_time.as_secs_f64() * 1e3,
        parallel.stats.batches,
        parallel.stats.batch_recheck_hits,
        parallel.stats.worker_utilization,
    );

    // 6. The substrate is usable directly: hold a CsrGraph and one
    //    DijkstraEngine for any query loop of your own instead of calling
    //    the allocating free functions per query.
    let csr = spanner_graph::CsrGraph::from(&greedy.spanner);
    let mut engine = spanner_graph::DijkstraEngine::with_capacity_for(
        greedy.spanner.num_vertices(),
        greedy.spanner.num_edges(),
    );
    let sample: Vec<f64> = (1..6)
        .filter_map(|v| engine.bounded_distance(&csr, VertexId(0), VertexId(v), 50.0))
        .collect();
    println!(
        "\n{} direct engine queries on the spanner, {} reuse hits (zero allocations)",
        engine.stats().queries,
        engine.stats().reuse_hits
    );
    assert_eq!(engine.stats().queries, 5);
    assert!(sample.len() <= 5);

    // Migration note: the pre-0.2 free functions (`greedy_spanner`,
    // `greedy_spanner_of_metric`, `approximate_greedy_spanner`, baselines)
    // have been removed after their deprecation release; each maps onto one
    // builder chain — see the `greedy_spanner` crate docs for the full
    // table. The Dijkstra free functions (`bounded_distance`,
    // `shortest_path_tree`, `ball`) remain for one-off queries; loops
    // should migrate to `CsrGraph` + `DijkstraEngine` as above.
    Ok(())
}
