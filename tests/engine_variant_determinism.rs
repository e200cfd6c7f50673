//! Acceptance matrix for the point-query acceleration stack: every engine
//! variant — goal-directed (landmark) search on or off, under the scalar,
//! batched, and auto-selected relaxation kernels — must serve answers **bit-identical** to the plain
//! reference configuration, across thread counts {1, 2, 8} and cache
//! capacities {0, 64}, cold and warm.
//!
//! The live half of the matrix drives servers through update batches that
//! force generation compaction (an epoch bump), so stale landmark tables
//! must be dropped and re-derived before they can influence an answer;
//! every post-update batch is audited against a from-scratch
//! [`SpannerServer::freeze_current`] rebuild that carries no accelerator
//! state at all.

use greedy_spanner::serve::{Answer, Query, ServeBuilder, SpannerServer};
use greedy_spanner::workload::{LiveWorkload, QueryWorkload, StreamEvent};
use greedy_spanner::Spanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::{RelaxKernel, WeightedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 2] = [0, 64];

/// One engine configuration under test: how many landmarks to derive
/// (0 = none) and which relaxation kernel the engines run.
struct Variant {
    name: &'static str,
    landmarks: usize,
    kernel: RelaxKernel,
}

/// The frozen-handle matrix. `plain/scalar` is the reference: the exact
/// pre-acceleration serving configuration. The landmark count also decides
/// which distance targets the table rules out of the cache's trees, so
/// `alt16/auto` admits different trees than `alt/auto`.
const FROZEN_VARIANTS: [Variant; 7] = [
    Variant {
        name: "plain/scalar",
        landmarks: 0,
        kernel: RelaxKernel::Scalar,
    },
    Variant {
        name: "plain/batched",
        landmarks: 0,
        kernel: RelaxKernel::Batched,
    },
    Variant {
        name: "plain/auto",
        landmarks: 0,
        kernel: RelaxKernel::Auto,
    },
    Variant {
        name: "alt/scalar",
        landmarks: 4,
        kernel: RelaxKernel::Scalar,
    },
    Variant {
        name: "alt/batched",
        landmarks: 4,
        kernel: RelaxKernel::Batched,
    },
    Variant {
        name: "alt/auto",
        landmarks: 4,
        kernel: RelaxKernel::Auto,
    },
    Variant {
        name: "alt16/auto",
        landmarks: 16,
        kernel: RelaxKernel::Auto,
    },
];

fn test_graph(n: usize, seed: u64) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi_connected(n, 0.12, 0.05..8.0, &mut rng)
}

#[test]
fn frozen_engine_variants_answer_bit_identically() {
    let g = test_graph(90, 0x0720_2611);
    let stretch = 3.0;
    let output = Spanner::greedy().stretch(stretch).build(&g).expect("valid");
    let queries = QueryWorkload::mixed(g.num_vertices(), true)
        .expect("valid workload")
        .queries(140)
        .seed(0xA17)
        .bound(3.0 * stretch)
        .generate();
    // The reference: scalar kernel, no landmarks — the
    // serving configuration that predates the acceleration stack.
    let reference: Vec<Answer> = {
        let mut server = output
            .clone()
            .serve()
            .threads(1)
            .cache_capacity(0)
            .relax_kernel(RelaxKernel::Scalar)
            .landmarks(0)
            .audit_against(&g)
            .finish();
        server.answer_batch(&queries).expect("valid batch")
    };
    for variant in &FROZEN_VARIANTS {
        for threads in THREAD_COUNTS {
            for cache in CACHE_CAPACITIES {
                let mut server = output
                    .clone()
                    .serve()
                    .threads(threads)
                    .cache_capacity(cache)
                    .relax_kernel(variant.kernel)
                    .landmarks(variant.landmarks)
                    .audit_against(&g)
                    .finish();
                let cold = server.answer_batch(&queries).expect("valid batch");
                let warm = server.answer_batch(&queries).expect("valid batch");
                assert_eq!(
                    cold, reference,
                    "cold {} threads={threads} cache={cache}",
                    variant.name
                );
                assert_eq!(
                    warm, reference,
                    "warm {} threads={threads} cache={cache}",
                    variant.name
                );
                let engine = server.engine_stats();
                assert_eq!(
                    engine.reuse_hits, engine.queries,
                    "{} threads={threads} cache={cache}: a serving engine allocated",
                    variant.name
                );
            }
        }
    }
}

/// The from-scratch oracle for a live server: freeze its current spanner
/// into a fresh frozen handle served with **no** accelerator state — scalar
/// kernel, inherited (identity) layout, whatever landmark state the handle
/// carries (none, for a live-born handle) — and a cold cache.
fn rebuilt_reference(server: &SpannerServer, queries: &[Query]) -> Vec<Answer> {
    let original = server
        .live()
        .expect("live matrix runs on live servers")
        .original()
        .to_weighted_graph();
    let mut reference = ServeBuilder::from_handle(server.freeze_current())
        .threads(1)
        .cache_capacity(0)
        .relax_kernel(RelaxKernel::Scalar)
        .audit_against(&original)
        .finish();
    reference.answer_batch(queries).expect("valid batch")
}

#[test]
fn live_engine_variants_survive_compacting_update_batches() {
    let g = test_graph(70, 0x0720_2622);
    let stretch = 3.0;
    let stream = LiveWorkload::new(g.num_vertices())
        .expect("valid universe")
        .update_fraction(0.5)
        .expect("valid fraction")
        .rounds(10)
        .queries_per_batch(30)
        // Heavy churn: compaction requires `COMPACTION_MIN_DEAD` tombstoned
        // slots, so the stream needs enough deletes/reweights to cross it.
        .updates_per_batch(30)
        .weights(0.05, 20.0)
        .expect("valid range")
        .bound(1e6)
        .seed(0xBEE5)
        .generate(&g);
    // The live matrix varies the
    // demand-derived landmark table (0 disables it) and the relax kernel.
    // Tombstoning update batches are exactly what flips `Auto` onto the
    // batched path mid-stream, so the kernel dimension matters most here.
    let live_variants: [(&str, usize, RelaxKernel); 6] = [
        ("plain/scalar", 0, RelaxKernel::Scalar),
        ("plain/batched", 0, RelaxKernel::Batched),
        ("plain/auto", 0, RelaxKernel::Auto),
        ("alt/scalar", 4, RelaxKernel::Scalar),
        ("alt/batched", 4, RelaxKernel::Batched),
        ("alt/auto", 4, RelaxKernel::Auto),
    ];
    for (name, landmark_count, kernel) in live_variants {
        for threads in THREAD_COUNTS {
            for cache in CACHE_CAPACITIES {
                // A near-zero threshold makes every tombstoning batch
                // compact, so epoch bumps (which invalidate any live
                // landmark table) happen throughout the stream.
                let mut server = Spanner::greedy()
                    .stretch(stretch)
                    .build(&g)
                    .expect("valid stretch")
                    .live(&g)
                    .expect("greedy guarantees a stretch")
                    .with_compaction_threshold(1e-6)
                    .serve()
                    .threads(threads)
                    .cache_capacity(cache)
                    .relax_kernel(kernel)
                    .landmarks(landmark_count)
                    .finish();
                let mut compactions = 0usize;
                for (round, event) in stream.iter().enumerate() {
                    match event {
                        StreamEvent::Updates(batch) => {
                            let outcome = server.apply_updates(batch).expect("valid batch");
                            compactions += outcome.compactions;
                        }
                        StreamEvent::Queries(queries) => {
                            let answers = server.answer_batch(queries).expect("valid batch");
                            let reference = rebuilt_reference(&server, queries);
                            assert_eq!(
                                answers, reference,
                                "round {round}: {name} threads={threads} cache={cache}"
                            );
                        }
                    }
                }
                assert!(
                    compactions > 0,
                    "{name}: the stream must trigger at least one compaction \
                     for the epoch-invalidation path to be exercised"
                );
            }
        }
    }
}
