//! Property suite for the sharded pipeline's determinism and certification
//! contract:
//!
//! * The sharded **build** artifact (stitched spanner + stitch statistics)
//!   is bit-identical at every thread count, and one build shard reproduces
//!   the direct pipeline exactly.
//! * The certified global stretch is real: `evaluate` confirms the stitched
//!   spanner meets the guarantee carried in its provenance, and the stitch
//!   audit's `max_cut_stretch` stays within it.
//! * **Serving** a sharded build (`ShardedOutput::serve`) answers
//!   bit-identically to a plain `SpannerServer` over the same stitched
//!   output, across thread counts {1, 2, 8} × cache states (disabled and
//!   default, cold and warm).

use greedy_spanner::analysis::evaluate;
use greedy_spanner::serve::Answer;
use greedy_spanner::shard::SKELETON_SLACK;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{ShardedSpanner, Spanner};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::WeightedGraph;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 2] = [0, 32];
const STRETCH: f64 = 2.0;

fn assert_sharded_contract(g: &WeightedGraph, build_shards: usize, workload_seed: u64) {
    let n = g.num_vertices();
    let build = |threads: usize| {
        ShardedSpanner::greedy()
            .stretch(STRETCH)
            .shards(build_shards)
            .threads(threads)
            .build(g)
            .expect("sharded build")
    };

    // The build artifact is a function of (graph, shards, seed) alone —
    // never of the thread budget.
    let sharded = build(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let other = build(threads);
        assert_eq!(
            other.spanner().edges(),
            sharded.spanner().edges(),
            "build artifact changed: k={build_shards} threads={threads} n={n}"
        );
        assert_eq!(other.stitch.cut_edges, sharded.stitch.cut_edges);
        assert_eq!(other.stitch.kept_cut_edges, sharded.stitch.kept_cut_edges);
        assert_eq!(
            other.stitch.skeleton_vertices,
            sharded.stitch.skeleton_vertices
        );
        assert_eq!(
            other.stitch.contracted_edges,
            sharded.stitch.contracted_edges
        );
        assert_eq!(
            other.stitch.max_cut_stretch.to_bits(),
            sharded.stitch.max_cut_stretch.to_bits()
        );
    }

    // One build shard is the direct pipeline, bit for bit.
    if build_shards == 1 {
        let direct = Spanner::greedy()
            .stretch(STRETCH)
            .build(g)
            .expect("direct build");
        assert_eq!(
            sharded.spanner().edges(),
            direct.spanner.edges(),
            "k=1 != direct, n={n}"
        );
    }

    // The certified stretch in the provenance is real, and the stitch audit
    // stayed within it.
    let target = sharded
        .certified_stretch()
        .expect("greedy certifies a stretch");
    let report = evaluate(g, sharded.spanner(), target);
    assert!(
        report.meets_stretch_target(),
        "k={build_shards} n={n}: measured {} > certified {target}",
        report.max_stretch
    );
    assert!(
        sharded.stitch.max_cut_stretch <= target * SKELETON_SLACK,
        "cut-edge audit exceeded the certificate: {} > {target}",
        sharded.stitch.max_cut_stretch
    );

    // Serving: every thread count and cache state answers exactly like the
    // plain server over the same stitched output.
    let queries = QueryWorkload::mixed(n, true)
        .expect("valid workload")
        .queries(90)
        .seed(workload_seed)
        .bound(3.0 * STRETCH)
        .generate();
    let mut plain = sharded.output.clone().serve().audit_against(g).finish();
    let reference: Vec<Answer> = plain.answer_batch(&queries).expect("valid batch");
    let warm_reference = plain.answer_batch(&queries).expect("valid batch");
    assert_eq!(warm_reference, reference, "plain server warm != cold");
    for threads in THREAD_COUNTS {
        for cache in CACHE_CAPACITIES {
            let mut server = sharded
                .clone()
                .serve()
                .threads(threads)
                .cache_capacity(cache)
                .audit_against(g)
                .finish();
            let cold = server.answer_batch(&queries).expect("valid batch");
            let warm = server.answer_batch(&queries).expect("valid batch");
            let label = format!("build_k={build_shards} threads={threads} cache={cache} n={n}");
            assert_eq!(cold, reference, "cold, {label}");
            assert_eq!(warm, reference, "warm, {label}");
            let stats = server.stats();
            assert_eq!(stats.queries, 2 * queries.len() as u64, "{label}");
            assert_eq!(stats.latency.total(), stats.queries, "{label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random ER graphs × build-shard counts {1, 2, 4}: the full sharded
    /// contract (build determinism, certification, serving bit-identity).
    #[test]
    fn sharded_pipeline_is_deterministic_and_certified(
        seed in 0u64..10_000,
        n in 24usize..56,
        shards_index in 0usize..3,
    ) {
        let build_shards = [1usize, 2, 4][shards_index];
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.2, 1.0..8.0, &mut rng);
        assert_sharded_contract(&g, build_shards, seed ^ 0x5A4D);
    }
}

/// A fixed mid-size instance exercising all three build-shard counts, so
/// the contract is pinned even if the proptest sampler drifts.
#[test]
fn fixed_instance_covers_every_build_shard_count() {
    let mut rng = SmallRng::seed_from_u64(20160722);
    let g = erdos_renyi_connected(64, 0.15, 1.0..10.0, &mut rng);
    for build_shards in [1usize, 2, 4] {
        assert_sharded_contract(&g, build_shards, 0xF00D);
    }
}
