//! Sharded-pipeline scaling: the n × shards construction grid, serving a
//! sharded build's boundary-targeted traffic, the shards=4 vs shards=1
//! wall-time gate at n ≥ 10⁵, and the per-shard peak-memory bound at fixed
//! n/k.
//!
//! The instances are jittered grids: generation is `O(n)`, partitions have
//! `O(√n)` cuts, and at stretch 3 the greedy construction does real pruning
//! work — the regime where splitting the build into shards pays even on a
//! single core (smaller per-shard spanners keep the per-edge bounded
//! searches and their working sets small). Before timing anything the bench
//! asserts the sharded determinism contract: the build artifact is
//! bit-identical across thread counts, and serving it answers exactly like
//! a plain server over the stitched output.
//!
//! CI smokes this bench at `SPANNER_THREADS` 1, 2 and 8 and archives the
//! JSON summary (`BENCH_JSON`) as `bench-sharding.jsonl`; the
//! `sharded_speedup` line printed below records the measured shards=4 /
//! shards=1 ratio directly, so the artifact carries it even when per-bench
//! samples are noisy.
//!
//! Run with `cargo bench --bench sharded_scaling`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use greedy_spanner::shard::{ShardedOutput, SKELETON_SLACK};
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::ShardedSpanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_bench::workloads::DEFAULT_SEED;
use spanner_graph::generators::grid_graph;
use spanner_graph::{VertexId, WeightedGraph};

const STRETCH: f64 = 3.0;
const JITTER: f64 = 0.3;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn grid(rows: usize, cols: usize) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(DEFAULT_SEED);
    grid_graph(rows, cols, JITTER, &mut rng)
}

fn build(g: &WeightedGraph, shards: usize) -> ShardedOutput {
    ShardedSpanner::greedy()
        .stretch(STRETCH)
        .shards(shards)
        .build(g)
        .expect("sharded build")
}

/// The determinism contract the numbers below are published under: the
/// build artifact is a function of (graph, shards, seed) alone, and serving
/// it answers bit-identically to a plain server over the stitched output.
fn assert_sharded_determinism() {
    let g = grid(50, 50);
    let reference = ShardedSpanner::greedy()
        .stretch(STRETCH)
        .shards(2)
        .threads(1)
        .build(&g)
        .expect("build");
    for threads in [2usize, 8] {
        let other = ShardedSpanner::greedy()
            .stretch(STRETCH)
            .shards(2)
            .threads(threads)
            .build(&g)
            .expect("build");
        assert_eq!(
            other.spanner().edges(),
            reference.spanner().edges(),
            "threads={threads} changed the artifact"
        );
    }
    let queries = QueryWorkload::mixed(g.num_vertices(), false)
        .expect("valid workload")
        .queries(200)
        .seed(9)
        .bound(4.0 * STRETCH)
        .generate();
    let mut plain = reference.output.clone().serve().finish();
    let expected = plain.answer_batch(&queries).expect("valid batch");
    let mut server = reference.serve().finish();
    let cold = server.answer_batch(&queries).expect("valid batch");
    let warm = server.answer_batch(&queries).expect("valid batch");
    assert_eq!(cold, expected, "cold");
    assert_eq!(warm, expected, "warm");
}

fn bench_sharded(c: &mut Criterion) {
    assert_sharded_determinism();

    // Construction: the n × shards grid.
    let mut group = c.benchmark_group("sharded_scaling");
    group.sample_size(10);
    for (rows, cols) in [(100usize, 100usize), (142, 141)] {
        let g = grid(rows, cols);
        let n = g.num_vertices();
        for shards in SHARD_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(format!("construct_n{n}"), shards),
                &g,
                |b, g| b.iter(|| build(g, shards).spanner().num_edges()),
            );
        }
    }
    group.finish();

    // Serving: boundary-targeted distance traffic (every query crosses
    // shards) from one plain server over the stitched spanner.
    let g = grid(100, 100);
    let out = build(&g, 4);
    let boundary: Vec<VertexId> = (0..out.skeleton.num_vertices())
        .map(|v| out.skeleton.global_of(VertexId(v)))
        .collect();
    let queries = QueryWorkload::uniform_over(boundary)
        .expect("boundary workload")
        .queries(512)
        .seed(17)
        .bound(6.0 * STRETCH)
        .generate();
    let mut serve_group = c.benchmark_group("sharded_serving");
    serve_group.sample_size(10);
    let mut server = out.clone().serve().finish();
    server.answer_batch(&queries).expect("warms the cache");
    serve_group.bench_function("boundary_batch", |b| {
        b.iter(|| server.answer_batch(&queries).expect("valid batch").len())
    });
    serve_group.finish();

    // The acceptance gate at n ≥ 10⁵: a sharded build must complete with a
    // certified global stretch, and shards=4 must beat shards=1 on wall
    // time. Benched for the archive, then measured directly for the ratio.
    let large = grid(317, 316);
    let n = large.num_vertices();
    assert!(
        n >= 100_000,
        "gate instance must have at least 1e5 vertices"
    );
    let mut gate = c.benchmark_group("sharded_gate");
    gate.sample_size(10);
    for shards in [1usize, 4] {
        gate.bench_with_input(
            BenchmarkId::new(format!("construct_n{n}"), shards),
            &large,
            |b, g| b.iter(|| build(g, shards).spanner().num_edges()),
        );
    }
    gate.finish();

    let rounds = 3;
    let t0 = Instant::now();
    for _ in 0..rounds {
        build(&large, 1);
    }
    let single = t0.elapsed();
    let t1 = Instant::now();
    let mut certified = None;
    for _ in 0..rounds {
        certified = Some(build(&large, 4));
    }
    let sharded = t1.elapsed();
    let certified = certified.expect("at least one round");
    let stretch = certified
        .certified_stretch()
        .expect("greedy certifies a stretch");
    assert!(
        certified.stitch.max_cut_stretch <= stretch * SKELETON_SLACK,
        "cut-edge audit {} exceeded the certificate {stretch}",
        certified.stitch.max_cut_stretch
    );
    let speedup = single.as_secs_f64() / sharded.as_secs_f64().max(1e-12);
    println!(
        "sharded_speedup: n={n} shards1 {single:?} / shards4 {sharded:?} = {speedup:.2}x \
         (certified stretch {stretch}, {} cut edges, {} kept)",
        certified.stitch.cut_edges, certified.stitch.kept_cut_edges
    );
    assert!(
        speedup > 1.0,
        "a 4-shard build must beat the single-shard build at n={n} \
         (measured {speedup:.2}x)"
    );

    // Per-shard peak memory stays bounded as n grows at fixed n/k ≈ 12.5k.
    let mut first = None;
    for (rows, cols, shards) in [(158usize, 158usize, 2usize), (224, 223, 4), (317, 316, 8)] {
        let g = grid(rows, cols);
        let out = build(&g, shards);
        let peak = out.max_shard_peak_memory();
        println!(
            "per_shard_peak_memory: n={} k={shards} peak {} KiB",
            g.num_vertices(),
            peak / 1024
        );
        let baseline = *first.get_or_insert(peak);
        assert!(
            peak <= baseline + baseline / 2,
            "per-shard peak memory {peak} grew past 1.5x the n/k baseline {baseline}"
        );
    }
}

criterion_group!(sharded, bench_sharded);
criterion_main!(sharded);
