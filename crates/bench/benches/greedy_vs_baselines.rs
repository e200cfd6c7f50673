//! E7 — the Section 1.2 comparison: construction cost of every registry
//! algorithm that consumes planar point sets, via the unified pipeline, plus
//! the CSR-substrate headline: greedy construction wall time on an
//! Erdős–Rényi n = 2000 workload, engine-backed vs the legacy
//! allocation-per-query path, in the same run's report, and the
//! parallel-scaling rows of exact metric greedy.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use greedy_spanner::algorithms::registry;
use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::{Spanner, SpannerConfig, SpannerInput};
use spanner_bench::workloads::{random_graph, uniform_square, DEFAULT_SEED};
use spanner_metric::MetricSpace;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_greedy_vs_baselines");
    group.sample_size(10);
    let n = 250usize;
    let points = uniform_square(n, DEFAULT_SEED);
    // Materialized once, outside the timed region, so graph-consuming
    // algorithms are timed on construction alone.
    let complete = points.to_complete_graph();
    let input = SpannerInput::prepared_euclidean2(&points, &complete);
    // `k = 2` pins Baswana–Sen to its classical (2k − 1) = 3 row; the
    // (1 + ε) constructions read the stretch target instead.
    let config = SpannerConfig {
        stretch: 1.5,
        k: Some(2),
        seed: DEFAULT_SEED,
        ..SpannerConfig::default()
    };

    for algorithm in registry() {
        if !algorithm.supports(&input) {
            continue;
        }
        group.bench_function(algorithm.name(), |b| {
            b.iter(|| {
                algorithm
                    .build(&input, &config)
                    .expect("construction succeeds")
                    .spanner
                    .num_edges()
            })
        });
    }
    group.finish();
}

/// The Erdős–Rényi n = 2000 greedy comparison: the engine-backed pipeline
/// path against the legacy allocation-per-query reference, same graph, same
/// stretch. Both rows appear in one report, and a direct one-shot timing of
/// each path is printed so the speedup is visible even at tiny sample counts.
fn bench_er2000_legacy_vs_csr(c: &mut Criterion) {
    let n = 2000usize;
    let g = random_graph(n, DEFAULT_SEED);
    let stretch = 2.0;

    let mut group = c.benchmark_group("er2000_greedy_legacy_vs_csr");
    group.sample_size(5);
    group.bench_function("greedy_csr_engine", |b| {
        b.iter(|| {
            Spanner::greedy()
                .stretch(stretch)
                .build(&g)
                .expect("valid stretch")
                .spanner
                .num_edges()
        })
    });
    group.bench_function("greedy_legacy", |b| {
        b.iter(|| {
            greedy_spanner_reference(&g, stretch)
                .expect("valid stretch")
                .spanner()
                .num_edges()
        })
    });
    group.finish();

    let start = Instant::now();
    let engine_out = Spanner::greedy().stretch(stretch).build(&g).unwrap();
    let engine_time = start.elapsed();
    let start = Instant::now();
    let legacy_out = greedy_spanner_reference(&g, stretch).unwrap();
    let legacy_time = start.elapsed();
    assert_eq!(
        engine_out.spanner.num_edges(),
        legacy_out.spanner().num_edges(),
        "both paths must build the same spanner"
    );
    println!(
        "er2000 greedy (n={n}, m={}, t={stretch}): csr-engine {engine_time:?} vs legacy \
         {legacy_time:?} ({:.2}x), {} queries, {} workspace reuse hits",
        g.num_edges(),
        legacy_time.as_secs_f64() / engine_time.as_secs_f64().max(1e-12),
        engine_out.stats.distance_queries,
        engine_out.stats.workspace_reuse_hits,
    );
}

/// The parallel-scaling headline: exact metric greedy on 400 uniform
/// points at `t = 1.5` through the batched filter-then-commit loop at
/// 1/2/4/8 threads — the one input kind that runs it (graph inputs run the
/// sequential loop at every thread count). The BENCH_JSON rows
/// (`parallel_scaling/metric400_greedy_threads/k`) are the artifact CI
/// archives as `bench-parallel-scaling.jsonl`; the speedup is
/// mean(threads=1) / mean(threads=k). The outputs are asserted identical
/// across thread counts — the determinism guarantee is part of what this
/// bench certifies.
fn bench_parallel_scaling(c: &mut Criterion) {
    let n = 400usize;
    let points = uniform_square(n, DEFAULT_SEED);
    // Materialized once, outside the timed region.
    let complete = points.to_complete_graph();
    let input = SpannerInput::prepared_euclidean2(&points, &complete);
    let stretch = 1.5;
    let thread_counts = [1usize, 2, 4, 8];

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(5);
    for &threads in &thread_counts {
        group.bench_function(BenchmarkId::new("metric400_greedy_threads", threads), |b| {
            b.iter(|| {
                Spanner::greedy()
                    .stretch(stretch)
                    .threads(threads)
                    .build(input)
                    .expect("valid stretch")
                    .spanner
                    .num_edges()
            })
        });
    }
    group.finish();

    // One-shot wall-clock summary plus the output-identity check, printed
    // so the speedup and the recheck overhead are visible at any sample
    // count.
    let mut baseline = None;
    let mut one_thread_time = None;
    for &threads in &thread_counts {
        let start = Instant::now();
        let out = Spanner::greedy()
            .stretch(stretch)
            .threads(threads)
            .build(input)
            .unwrap();
        let elapsed = start.elapsed();
        let baseline_spanner = baseline.get_or_insert_with(|| out.spanner.clone());
        assert_eq!(
            &out.spanner, baseline_spanner,
            "thread count changed the greedy output"
        );
        let speedup =
            one_thread_time.get_or_insert(elapsed).as_secs_f64() / elapsed.as_secs_f64().max(1e-12);
        println!(
            "parallel_scaling metric greedy (n={n} uniform points, t={stretch}) threads={threads}: \
             {elapsed:?} ({speedup:.2}x vs 1 thread), {} batches, {} recheck hits, {} queries, \
             utilization {:.2}",
            out.stats.batches,
            out.stats.batch_recheck_hits,
            out.stats.distance_queries,
            out.stats.worker_utilization,
        );
    }
}

criterion_group!(
    benches,
    bench_baselines,
    bench_er2000_legacy_vs_csr,
    bench_parallel_scaling
);
criterion_main!(benches);
