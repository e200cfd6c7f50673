//! Serving-layer throughput: batched [`SpannerServer`] queries over a
//! frozen greedy spanner, uniform vs. Zipf-hotspot workloads, cached vs.
//! uncached, at several worker-thread counts.
//!
//! The load-bearing comparison is `zipf_uncached` vs. `zipf_cached`: on
//! skewed traffic the shortest-path-tree cache answers hot sources in
//! `O(1)` per target, so the cached rows must beat the uncached ones — the
//! `cache_speedup_zipf` line printed by this bench records the measured
//! ratio, and CI archives the JSON summary (`BENCH_JSON`) as the read-path
//! perf trajectory. Before timing anything the bench asserts the serving
//! determinism contract: answers bit-identical across thread counts
//! {1, 2, 8} and across cache states.
//!
//! Run with `cargo bench --bench serving_throughput`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use greedy_spanner::serve::{Answer, Query, SpannerServer};
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{Spanner, SpannerOutput};
use spanner_bench::workloads::{random_graph, DEFAULT_SEED};

const N: usize = 2000;
const BATCH: usize = 2048;

/// The point-query engine configurations the `point_query_engines` group
/// compares: (name, landmark count).
const ENGINE_CONFIGS: [(&str, usize); 2] = [("heap", 0), ("heap_alt", 4)];

/// Freezes a fresh server off one shared construction result — the ~1s
/// n=2000 greedy build runs once per bench invocation, not once per server.
/// Uses the builder defaults (landmarks included).
fn build_server(output: &SpannerOutput, threads: usize, cache: usize) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(threads)
        .cache_capacity(cache)
        .finish()
}

/// Like [`build_server`] but pinning one explicit engine configuration.
fn build_engine_server(
    output: &SpannerOutput,
    threads: usize,
    cache: usize,
    landmarks: usize,
) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(threads)
        .cache_capacity(cache)
        .landmarks(landmarks)
        .finish()
}

/// Answers `batch` once on a fresh server per configuration and asserts the
/// results are identical everywhere — across thread counts, cache states
/// and every point-query engine configuration — the determinism contract
/// this bench publishes numbers under.
fn assert_identical_answers(output: &SpannerOutput, batch: &[Query]) -> Vec<Answer> {
    let mut reference_server = build_engine_server(output, 1, 0, 0);
    let reference = reference_server.answer_batch(batch).expect("valid batch");
    for threads in [1, 2, 8] {
        for cache in [0, 64] {
            let mut server = build_server(output, threads, cache);
            let cold = server.answer_batch(batch).expect("valid batch");
            let warm = server.answer_batch(batch).expect("valid batch");
            assert_eq!(cold, reference, "threads={threads} cache={cache}");
            assert_eq!(warm, reference, "warm, threads={threads} cache={cache}");
        }
    }
    for (name, landmarks) in ENGINE_CONFIGS {
        let mut server = build_engine_server(output, 2, 64, landmarks);
        let cold = server.answer_batch(batch).expect("valid batch");
        let warm = server.answer_batch(batch).expect("valid batch");
        assert_eq!(cold, reference, "engine config {name}");
        assert_eq!(warm, reference, "warm, engine config {name}");
    }
    reference
}

fn bench_serving(c: &mut Criterion) {
    let g = random_graph(N, DEFAULT_SEED);
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    let uniform = QueryWorkload::uniform(N)
        .expect("valid workload")
        .queries(BATCH)
        .seed(11)
        .bound(40.0)
        .generate();
    let zipf = QueryWorkload::zipf(N, 1.1)
        .expect("valid workload")
        .queries(BATCH)
        .seed(12)
        .bound(40.0)
        .generate();
    let mixed = QueryWorkload::mixed(N, false)
        .expect("valid workload")
        .queries(BATCH)
        .seed(13)
        .generate();

    // Determinism gate first: the numbers below describe one result set.
    assert_identical_answers(&output, &zipf);

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);

    for threads in [1, 2] {
        // Uniform traffic: the cache-hostile baseline (hit rate ~0).
        let mut server = build_server(&output, threads, 0);
        group.bench_with_input(
            BenchmarkId::new("uniform_uncached", threads),
            &threads,
            |b, _| b.iter(|| server.answer_batch(&uniform).expect("valid batch").len()),
        );

        // Zipf hotspots, no cache vs. warm cache: the headline pair.
        let mut uncached = build_server(&output, threads, 0);
        group.bench_with_input(
            BenchmarkId::new("zipf_uncached", threads),
            &threads,
            |b, _| b.iter(|| uncached.answer_batch(&zipf).expect("valid batch").len()),
        );
        let mut cached = build_server(&output, threads, 128);
        cached.answer_batch(&zipf).expect("warms the tree cache");
        group.bench_with_input(
            BenchmarkId::new("zipf_cached", threads),
            &threads,
            |b, _| b.iter(|| cached.answer_batch(&zipf).expect("valid batch").len()),
        );

        // Mixed read profile with a live cache — the realistic shape.
        let mut mixed_server = build_server(&output, threads, 128);
        group.bench_with_input(
            BenchmarkId::new("mixed_cached", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    mixed_server
                        .answer_batch(&mixed)
                        .expect("valid batch")
                        .len()
                })
            },
        );
    }
    group.finish();

    // The point-query acceleration stack through the serving layer:
    // tight-bound uniform distance traffic with the engine pinned to each
    // configuration.
    // Answers were asserted identical above; these rows record what the
    // stack buys end-to-end, serving overhead included.
    let bounded = QueryWorkload::uniform(N)
        .expect("valid workload")
        .queries(BATCH)
        .seed(14)
        .bound(6.0)
        .generate();
    assert_identical_answers(&output, &bounded);
    let mut engines = c.benchmark_group("point_query_engines");
    engines.sample_size(10);
    for (name, landmarks) in ENGINE_CONFIGS {
        let mut server = build_engine_server(&output, 1, 0, landmarks);
        engines.bench_function(BenchmarkId::new("bounded_uniform", name), |b| {
            b.iter(|| server.answer_batch(&bounded).expect("valid batch").len())
        });
    }
    engines.finish();

    // The acceptance ratio, measured directly so the artifact carries it
    // even when per-bench samples are noisy: cached vs. uncached wall time
    // on the Zipf workload (single-threaded, multiple rounds).
    let mut uncached = build_server(&output, 1, 0);
    let mut cached = build_server(&output, 1, 128);
    cached.answer_batch(&zipf).expect("warms the tree cache");
    let rounds = 5;
    let t0 = Instant::now();
    for _ in 0..rounds {
        uncached.answer_batch(&zipf).expect("valid batch");
    }
    let uncached_time = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..rounds {
        cached.answer_batch(&zipf).expect("valid batch");
    }
    let cached_time = t1.elapsed();
    let speedup = uncached_time.as_secs_f64() / cached_time.as_secs_f64().max(1e-12);
    println!(
        "cache_speedup_zipf: uncached {uncached_time:?} / cached {cached_time:?} = {speedup:.2}x \
         (hit rate {:.1}%)",
        100.0 * cached.stats().cache_hit_rate().unwrap_or(0.0)
    );
    assert!(
        speedup > 1.0,
        "the SPT cache must beat uncached point-to-point queries on Zipf \
         traffic (measured {speedup:.2}x)"
    );
}

criterion_group!(serving, bench_serving);
criterion_main!(serving);
