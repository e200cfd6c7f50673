//! Generation compaction must be **behaviourally invisible**: a live
//! server whose graphs get compacted under churn answers bit-identically
//! to a twin that never compacts, while actually re-packing its edge
//! arrays.
//!
//! Two servers are driven through the same forced append/delete/compact
//! cycles at every serving thread count {1, 2, 8} × cache capacity
//! {0, 64}. After every batch the suite asserts the live edge content
//! (endpoints and exact `f64` weight bits), the served answers to a fixed
//! query batch, and the rebuild decisions are bit-identical across the
//! generation swap — and at the end, that compaction really fired and
//! really shrank the original's ground-truth arrays. (Only the original compacts: the
//! spanner is never tombstoned, since rebuilds replace it whole.)

use greedy_spanner::serve::SpannerServer;
use greedy_spanner::update::COMPACTION_MIN_DEAD;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{Query, Spanner, UpdateBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::{CsrGraph, VertexId, WeightedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 2] = [0, 64];

/// Live edge *content* — ids are allowed to change across a compaction
/// swap, endpoints and exact weight bits are not.
fn live_content(graph: &CsrGraph) -> Vec<(usize, usize, u64)> {
    let mut edges: Vec<(usize, usize, u64)> = graph
        .live_edges()
        .map(|(_, u, v, w)| (u.index(), v.index(), w.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

fn server_for(g: &WeightedGraph, threshold: f64, threads: usize, cache: usize) -> SpannerServer {
    Spanner::greedy()
        .stretch(2.0)
        .build(g)
        .expect("valid stretch")
        .live(g)
        .expect("greedy guarantees a stretch")
        .with_compaction_threshold(threshold)
        .serve()
        .threads(threads)
        .cache_capacity(cache)
        .finish()
}

/// Forced append/delete cycles: every round inserts a block of edges and
/// deletes the previous round's block, marching the dead-slot fraction
/// over the compaction threshold again and again.
fn churn_rounds(n: usize, rounds: usize, block: usize, seed: u64) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut previous: Vec<(usize, usize)> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..rounds {
        let mut batch = UpdateBatch::new();
        for (u, v) in previous.drain(..) {
            batch = batch.delete(VertexId(u), VertexId(v));
        }
        for _ in 0..block {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n - 1);
            if v >= u {
                v += 1;
            }
            let w = rng.gen_range(0.2..3.0);
            batch = batch.insert(VertexId(u), VertexId(v), w);
            previous.push((u, v));
        }
        batches.push(batch);
    }
    batches
}

fn queries(n: usize) -> Vec<Query> {
    QueryWorkload::zipf(n, 1.1)
        .expect("valid skew")
        .queries(48)
        .seed(4242)
        .generate()
}

#[test]
fn compaction_swap_is_invisible_to_serving_at_every_thread_and_cache_config() {
    let n = 14;
    let g = WeightedGraph::from_edges(n, (1..n).map(|v| (v - 1, v, 1.0))).unwrap();
    let batches = churn_rounds(n, 12, 10, 99);
    let held_out = queries(n);

    for threads in THREAD_COUNTS {
        for cache in CACHE_CAPACITIES {
            // Threshold 1.0 can never be reached while live edges remain,
            // so the twin keeps every tombstone forever.
            let mut compacting = server_for(&g, 0.5, threads, cache);
            let mut hoarding = server_for(&g, 1.0, threads, cache);

            for (round, batch) in batches.iter().enumerate() {
                let a = compacting.apply_updates(batch).expect("valid batch");
                let b = hoarding.apply_updates(batch).expect("valid batch");
                assert_eq!(
                    (a.admitted, a.rejected, a.repaired),
                    (b.admitted, b.rejected, b.repaired),
                    "t{threads} c{cache} round {round}: admission diverged"
                );

                let (cl, hl) = (
                    compacting.live().expect("live server"),
                    hoarding.live().expect("live server"),
                );
                assert_eq!(
                    live_content(cl.spanner()),
                    live_content(hl.spanner()),
                    "t{threads} c{cache} round {round}: spanner content diverged"
                );
                assert_eq!(
                    live_content(cl.original()),
                    live_content(hl.original()),
                    "t{threads} c{cache} round {round}: original content diverged"
                );
                assert_eq!(
                    (a.full_certification, cl.stats().recertifications),
                    (b.full_certification, hl.stats().recertifications),
                    "t{threads} c{cache} round {round}: rebuild decisions diverged"
                );

                let got = compacting.answer_batch(&held_out).expect("valid batch");
                let expected = hoarding.answer_batch(&held_out).expect("valid batch");
                assert_eq!(
                    got, expected,
                    "t{threads} c{cache} round {round}: answers diverged across the swap"
                );
            }

            let (cl, hl) = (
                compacting.live().expect("live server"),
                hoarding.live().expect("live server"),
            );
            assert!(
                cl.stats().compactions > 0,
                "t{threads} c{cache}: the churn never forced a compaction"
            );
            assert_eq!(
                hl.stats().compactions,
                0,
                "t{threads} c{cache}: the hoarding twin must never compact"
            );
            assert!(
                cl.original().edge_id_bound() < hl.original().edge_id_bound(),
                "t{threads} c{cache}: compaction failed to shrink the edge array \
                 ({} vs {})",
                cl.original().edge_id_bound(),
                hl.original().edge_id_bound()
            );
            // Compaction starts a new generation of the original behind a
            // bumped epoch rather than swapping it in silently.
            assert!(cl.original().epoch() > hl.original().epoch());
        }
    }
}

/// The threshold knob itself: out-of-range and non-finite inputs are
/// clamped or ignored, and the trigger respects `COMPACTION_MIN_DEAD`.
#[test]
fn compaction_threshold_knob_is_clamped_and_min_dead_is_respected() {
    let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
    let live = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch")
        .live(&g)
        .expect("greedy guarantees a stretch");
    assert!((live.compaction_threshold() - 0.5).abs() < 1e-12);
    let live = live.with_compaction_threshold(f64::NAN);
    assert!(
        (live.compaction_threshold() - 0.5).abs() < 1e-12,
        "NaN ignored"
    );
    let live = live.with_compaction_threshold(40.0);
    assert!(
        (live.compaction_threshold() - 1.0).abs() < 1e-12,
        "clamped high"
    );
    let mut live = live.with_compaction_threshold(-3.0);
    assert!(live.compaction_threshold() <= 1e-6, "clamped low");

    // Even at the lowest possible threshold, fewer than
    // `COMPACTION_MIN_DEAD` tombstones never trigger a rebuild.
    for i in 0..COMPACTION_MIN_DEAD / 2 {
        let u = i % 4;
        let v = (i + 1) % 4;
        let batch = UpdateBatch::new().insert(VertexId(u), VertexId(v), 1.0);
        live.apply(&batch).expect("valid insert");
        let batch = UpdateBatch::new().delete(VertexId(u), VertexId(v));
        live.apply(&batch).expect("valid delete");
    }
    assert_eq!(
        live.stats().compactions,
        0,
        "below COMPACTION_MIN_DEAD nothing may compact"
    );
    assert!(live.original().dead_edges() > 0);
}
