//! Acceptance matrix for the point-query acceleration stack: every engine
//! variant — goal-directed (landmark) search off, or on with 4 or 16
//! landmarks — must serve answers **bit-identical** to the plain reference
//! configuration, across thread counts {1, 2, 8} and cache capacities
//! {0, 64}, cold and warm.
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
use spanner_graph::WeightedGraph;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 2] = [0, 64];

/// The frozen-handle matrix: a name and how many landmarks to derive
/// (0 = none). `plain` is also the reference configuration. The landmark
/// count decides which distance targets the table rules out of the
/// cache's trees, so `alt16` admits different trees than `alt`.
const FROZEN_VARIANTS: [(&str, usize); 3] = [("plain", 0), ("alt", 4), ("alt16", 16)];

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
    // The reference: no landmarks, one thread, no cache — the serving
    // configuration that predates the acceleration stack.
    let reference: Vec<Answer> = {
        let mut server = output
            .clone()
            .serve()
            .threads(1)
            .cache_capacity(0)
            .landmarks(0)
            .audit_against(&g)
            .finish();
        server.answer_batch(&queries).expect("valid batch")
    };
    for (name, landmarks) in FROZEN_VARIANTS {
        for threads in THREAD_COUNTS {
            for cache in CACHE_CAPACITIES {
                let mut server = output
                    .clone()
                    .serve()
                    .threads(threads)
                    .cache_capacity(cache)
                    .landmarks(landmarks)
                    .audit_against(&g)
                    .finish();
                let cold = server.answer_batch(&queries).expect("valid batch");
                let warm = server.answer_batch(&queries).expect("valid batch");
                assert_eq!(
                    cold, reference,
                    "cold {name} threads={threads} cache={cache}"
                );
                assert_eq!(
                    warm, reference,
                    "warm {name} threads={threads} cache={cache}"
                );
                let engine = server.engine_stats();
                assert_eq!(
                    engine.reuse_hits, engine.queries,
                    "{name} threads={threads} cache={cache}: a serving engine allocated"
                );
            }
        }
    }
}

/// The from-scratch oracle for a live server: freeze its current spanner
/// into a fresh frozen handle served with **no** accelerator state —
/// whatever landmark state the handle carries (none, for a live-born
/// handle) — and a cold cache.
fn rebuilt_reference(server: &SpannerServer, queries: &[Query]) -> Vec<Answer> {
    let original = server
        .live()
        .expect("live matrix runs on live servers")
        .original()
        .to_weighted_graph();
    let mut reference = ServeBuilder::from_handle(server.freeze_current())
        .threads(1)
        .cache_capacity(0)
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
    // The live matrix varies the demand-derived landmark table (0
    // disables it).
    let live_variants: [(&str, usize); 2] = [("plain", 0), ("alt", 4)];
    for (name, landmark_count) in live_variants {
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
