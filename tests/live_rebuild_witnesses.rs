//! Property suite for witness reuse in live rebuilds.
//!
//! A live spanner keeps, for every candidate its last rebuild rejected, the
//! covering walk the admission query certified; the next rebuild rejects a
//! candidate without a search when every edge of that walk was already
//! re-admitted and its weight sum is still within `t·w`. Such a skip must
//! never change a decision, so:
//!
//! 1. **Rebuilds stay greedy.** Over long churn streams — insertions
//!    (parallel edges included), deletions, reweights, tie-heavy integer
//!    weights, generation compactions, and a kill followed by recovery —
//!    the live spanner equals `Spanner::greedy()` of the live original,
//!    edge for edge, after every batch.
//! 2. **Skips happen.** The streams' rebuilds skip searches
//!    ([`BatchOutcome::witness_skips`]) whatever `SPANNER_THREADS` says:
//!    every rebuild runs the one sequential loop that reads witnesses.
//! 3. **Compaction keeps witnesses.** A generation compaction re-densifies
//!    the original's edge ids; the store follows them, so the rebuild after
//!    a compaction reuses as much as the one before it.

use std::path::PathBuf;

use greedy_spanner::{BatchOutcome, LiveSpanner, Spanner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::{VertexId, WeightedGraph};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("greedy-spanner-witness-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn live_for(g: &WeightedGraph, t: f64) -> LiveSpanner {
    Spanner::greedy()
        .stretch(t)
        .build(g)
        .expect("valid stretch")
        .live(g)
        .expect("greedy guarantees a stretch")
        .with_compaction_threshold(0.1)
}

/// After every batch the live spanner is the greedy spanner of the live
/// original, edge for edge.
fn assert_live_is_greedy(live: &LiveSpanner, context: &str) {
    let original = live.original().to_weighted_graph();
    let greedy = Spanner::greedy()
        .stretch(live.stretch())
        .build(&original)
        .expect("valid stretch");
    assert_eq!(
        live.spanner().to_weighted_graph(),
        greedy.spanner,
        "{context}: the live spanner is not the greedy spanner"
    );
}

/// A weight: a small integer (many ties) or a real in `[1, 10)`.
fn weight(integer: bool, rng: &mut SmallRng) -> f64 {
    if integer {
        rng.gen_range(1..4) as f64
    } else {
        rng.gen_range(1.0..10.0)
    }
}

/// One batch of `size` updates against the original as it stands: a third
/// insertions (half of them parallel to a live edge), a third deletions and
/// a third reweights, the latter two of distinct live edges.
fn churn_batch(live: &LiveSpanner, size: usize, integer: bool, rng: &mut SmallRng) -> UpdateBatch {
    let n = live.original().num_vertices();
    let mut live_pairs: Vec<(VertexId, VertexId)> = live
        .original()
        .live_edges()
        .map(|(_, u, v, _)| (u, v))
        .collect();
    let mut batch = UpdateBatch::new();
    for _ in 0..size {
        let kind = rng.gen_range(0..3);
        if kind == 0 || live_pairs.is_empty() {
            let (u, v) = if rng.gen_bool(0.5) && !live_pairs.is_empty() {
                live_pairs[rng.gen_range(0..live_pairs.len())]
            } else {
                let u = rng.gen_range(0..n);
                (VertexId(u), VertexId((u + rng.gen_range(1..n)) % n))
            };
            batch = batch.insert(u, v, weight(integer, rng));
        } else {
            let (u, v) = live_pairs.swap_remove(rng.gen_range(0..live_pairs.len()));
            batch = if kind == 1 {
                batch.delete(u, v)
            } else {
                batch.reweight(u, v, weight(integer, rng))
            };
        }
    }
    batch
}

/// Drives `rounds` churn batches through a persisted live spanner, killing
/// it after `kill_after` batches and recovering it from its store, and
/// checks every rebuild against greedy. Returns the summed witness skips
/// and the compactions.
fn churn_with_recovery(
    g: &WeightedGraph,
    t: f64,
    integer: bool,
    seed: u64,
    kill_after: usize,
) -> (usize, u64) {
    let rounds = 24;
    let dir = fresh_dir(&format!("churn-{seed}"));
    let mut live = live_for(g, t);
    live.persist_to(&dir).expect("fresh store");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut skips = 0;
    for round in 0..rounds {
        if round == kill_after {
            let before = live.spanner().to_weighted_graph();
            drop(live);
            live = LiveSpanner::recover(&dir).expect("store recovers").live;
            assert_eq!(live.spanner().to_weighted_graph(), before, "recovery");
        }
        let batch = churn_batch(&live, 6, integer, &mut rng);
        let outcome = live.apply(&batch).expect("valid batch");
        let context = format!("seed {seed}, t {t}, round {round}");
        assert_live_is_greedy(&live, &context);
        assert!(
            outcome.full_certification || outcome.witness_skips == 0,
            "{context}: only rebuilds skip"
        );
        skips += outcome.witness_skips;
    }
    let compactions = live.stats().compactions;
    drop(live);
    std::fs::remove_dir_all(&dir).unwrap();
    (skips, compactions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ER graphs under long churn, real or tie-heavy integer weights.
    #[test]
    fn churned_rebuilds_equal_greedy_and_reuse_witnesses(
        seed in 0u64..10_000,
        n in 16usize..32,
        stretch in 0usize..3,
        integer in 0usize..2,
        kill_after in 4usize..20,
    ) {
        let t = [1.5, 2.0, 3.0][stretch];
        let integer = integer == 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, 1.0..10.0, &mut rng);
        let (skips, compactions) = churn_with_recovery(&g, t, integer, seed, kill_after);
        prop_assert!(skips > 0, "no rebuild reused a witness");
        prop_assert!(compactions > 0, "the stream never compacted");
    }
}

/// Deleting one spanner edge of `live` (the first in id order) rebuilds.
fn delete_a_spanner_edge(live: &mut LiveSpanner) -> BatchOutcome {
    let (_, u, v, _) = live.spanner().live_edges().next().expect("a spanner edge");
    let outcome = live
        .apply(&UpdateBatch::new().delete(u, v))
        .expect("valid batch");
    assert!(outcome.full_certification);
    assert_live_is_greedy(live, "spanner-edge deletion");
    outcome
}

#[test]
fn a_compaction_keeps_the_witnesses_reusable() {
    let mut rng = SmallRng::seed_from_u64(2016);
    let g = erdos_renyi_connected(80, 0.15, 1.0..10.0, &mut rng);
    let mut live = live_for(&g, 2.0);
    // The first rebuild has no witnesses yet; the second reuses the first's.
    assert_eq!(delete_a_spanner_edge(&mut live).witness_skips, 0);
    let before = delete_a_spanner_edge(&mut live);
    assert!(before.witness_skips > 0);

    // Delete edges the spanner does not carry until the original compacts:
    // no rebuild, but every later id shifts down.
    let spanner = live.spanner().to_weighted_graph();
    let mut batch = UpdateBatch::new();
    for (_, u, v, w) in live.original().live_edges().take(120) {
        if spanner.edge_weight(u, v) != Some(w) {
            batch = batch.delete(u, v);
        }
    }
    let outcome = live.apply(&batch).expect("valid batch");
    assert!(!outcome.full_certification);
    assert_eq!(outcome.compactions, 1, "the deletions must compact");
    assert_live_is_greedy(&live, "non-spanner deletions and a compaction");

    let after = delete_a_spanner_edge(&mut live);
    assert!(
        2 * after.witness_skips >= before.witness_skips,
        "the rebuild after a compaction reused {} witnesses, the one before {}",
        after.witness_skips,
        before.witness_skips
    );
}
