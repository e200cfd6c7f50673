//! End-to-end crash-recovery contract of the persistence subsystem:
//!
//! 1. **Kill/restart bit-identity.** A live spanner that persists to a
//!    store, applies part of an update stream, is killed (dropped without
//!    ceremony) and recovered, then applies the rest of the stream, must
//!    answer a held-out query batch **bit-identically** to an uninterrupted
//!    twin that never touched disk — served at thread counts {1, 2, 8}.
//! 2. **Bounded memory under churn.** Unbounded insert/delete churn must
//!    trigger generation compaction, keeping the ground-truth edge array
//!    within a constant factor of the live edge count — and the
//!    compaction-triggered snapshots must themselves recover bit-identically.

use std::path::PathBuf;

use greedy_spanner::update::COMPACTION_MIN_DEAD;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{LiveSpanner, Spanner, UpdateBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::{VertexId, WeightedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("greedy-spanner-recovery-tests")
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
}

/// A deterministic mixed insert/delete stream, valid for sequential
/// application: the generator mirrors the live edge multiset so deletions
/// always name a live pair.
fn update_stream(
    g: &WeightedGraph,
    rounds: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<UpdateBatch> {
    let n = g.num_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|e| (e.u.index(), e.v.index()))
        .collect();
    let mut batches = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut batch = UpdateBatch::new();
        for _ in 0..per_batch {
            if rng.gen_bool(0.5) || edges.is_empty() {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n - 1);
                if v >= u {
                    v += 1;
                }
                let w = rng.gen_range(0.5..12.0);
                batch = batch.insert(VertexId(u), VertexId(v), w);
                edges.push((u, v));
            } else {
                let i = rng.gen_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                batch = batch.delete(VertexId(u), VertexId(v));
            }
        }
        batches.push(batch);
    }
    batches
}

/// The held-out read-only workload both runs answer at the end.
fn held_out_queries(n: usize) -> Vec<greedy_spanner::Query> {
    QueryWorkload::zipf(n, 1.1)
        .expect("valid skew")
        .queries(96)
        .seed(777)
        .generate()
}

#[test]
fn killed_and_recovered_run_answers_bit_identically_to_uninterrupted() {
    let mut rng = SmallRng::seed_from_u64(31);
    let g = erdos_renyi_connected(24, 0.35, 1.0..10.0, &mut rng);
    let batches = update_stream(&g, 12, 6, 0xFEED);
    let kill_after = 5;
    let queries = held_out_queries(24);

    for threads in THREAD_COUNTS {
        // The uninterrupted twin: never touches disk.
        let mut uninterrupted = live_for(&g, 2.0);
        for batch in &batches {
            uninterrupted.apply(batch).expect("valid batch");
        }

        // The victim: persists, applies a prefix, is killed (dropped).
        let dir = fresh_dir(&format!("kill-restart-{threads}"));
        {
            let mut victim = live_for(&g, 2.0);
            victim.persist_to(&dir).expect("fresh store");
            for batch in &batches[..kill_after] {
                victim.apply(batch).expect("valid batch");
            }
            // Killed here: no checkpoint, no detach — the WAL is the only
            // record of the applied prefix.
        }

        // Restart: recover and apply the remainder of the stream.
        let recovered = LiveSpanner::recover(&dir).expect("store recovers");
        assert_eq!(
            recovered.report.batches_replayed + recovered.report.snapshot_seq,
            kill_after as u64,
            "snapshot + replay must cover exactly the applied prefix"
        );
        let mut revived = recovered.live;
        for batch in &batches[kill_after..] {
            revived.apply(batch).expect("valid batch");
        }

        // Bit-identical state and statistics...
        assert_eq!(
            revived.spanner().to_weighted_graph(),
            uninterrupted.spanner().to_weighted_graph(),
            "threads {threads}: spanner diverged"
        );
        assert_eq!(
            revived.original().to_weighted_graph(),
            uninterrupted.original().to_weighted_graph(),
            "threads {threads}: original diverged"
        );
        assert_eq!(revived.epoch(), uninterrupted.epoch());
        let (r, u) = (revived.stats(), uninterrupted.stats());
        assert_eq!(
            (r.batches, r.admitted, r.rejected, r.repaired, r.compactions),
            (u.batches, u.admitted, u.rejected, u.repaired, u.compactions),
            "threads {threads}: history counters diverged"
        );
        assert_eq!(
            (r.recertifications, r.epochs_advanced),
            (u.recertifications, u.epochs_advanced),
            "threads {threads}: rebuild history diverged"
        );

        // ... and bit-identical served answers on the held-out batch.
        let mut revived_server = revived.serve().threads(threads).finish();
        let mut reference_server = uninterrupted.serve().threads(threads).finish();
        let got = revived_server.answer_batch(&queries).expect("valid batch");
        let expected = reference_server
            .answer_batch(&queries)
            .expect("valid batch");
        assert_eq!(got, expected, "threads {threads}: served answers diverged");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Churn far past the original size: compaction must keep the ground-truth
/// arrays within a constant factor of the live count, snapshots must be
/// written at compactions, and recovery from that churned store must be
/// exact.
#[test]
fn churn_is_bounded_by_compaction_and_recovers_exactly() {
    let g = WeightedGraph::from_edges(16, (1..16).map(|v| (v - 1, v, 1.0))).unwrap();
    let dir = fresh_dir("bounded-churn");
    let mut live = live_for(&g, 2.0);
    live.persist_to(&dir).expect("fresh store");

    // 30 rounds of insert-8 / delete-8: ~240 slots of churn over a graph
    // that keeps only ~15 live edges.
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..30 {
        let mut pairs = Vec::new();
        let mut insert = UpdateBatch::new();
        for _ in 0..8 {
            let u = rng.gen_range(0..16);
            let mut v = rng.gen_range(0..15);
            if v >= u {
                v += 1;
            }
            let w = rng.gen_range(0.2..4.0);
            insert = insert.insert(VertexId(u), VertexId(v), w);
            pairs.push((u, v));
        }
        live.apply(&insert).expect("valid batch");
        let mut delete = UpdateBatch::new();
        for (u, v) in pairs {
            delete = delete.delete(VertexId(u), VertexId(v));
        }
        live.apply(&delete).expect("valid batch");
    }

    let stats = live.stats();
    assert!(
        stats.compactions > 0,
        "the churn never crossed the compaction threshold"
    );
    assert!(
        stats.snapshots_written > 1,
        "compactions must write snapshots (got {})",
        stats.snapshots_written
    );
    assert_eq!(stats.snapshot_failures, 0);
    for (graph, label) in [(live.original(), "original"), (live.spanner(), "spanner")] {
        let live_count = graph.live_edges().count();
        let bound = 3 * live_count + 3 * COMPACTION_MIN_DEAD;
        assert!(
            graph.edge_id_bound() <= bound,
            "{label}: {} slots for {live_count} live edges (bound {bound})",
            graph.edge_id_bound()
        );
    }

    // The store holds several generations; recovery must still be exact
    // (and must start from a compaction snapshot, not the initial one).
    let recovered = LiveSpanner::recover(&dir).expect("store recovers");
    assert!(
        recovered.report.snapshot_seq > 0,
        "recovery should start from a compaction-written snapshot"
    );
    assert_eq!(
        recovered.live.spanner().to_weighted_graph(),
        live.spanner().to_weighted_graph()
    );
    assert_eq!(
        recovered.live.original().to_weighted_graph(),
        live.original().to_weighted_graph()
    );
    assert_eq!(recovered.live.epoch(), live.epoch());
    assert_eq!(recovered.live.stats().batches, live.stats().batches);
    assert_eq!(recovered.live.stats().compactions, live.stats().compactions);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An explicit checkpoint into the store directory shortens replay: only
/// records past its cursor are reapplied.
#[test]
fn checkpoints_shorten_replay() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = erdos_renyi_connected(18, 0.35, 1.0..8.0, &mut rng);
    let batches = update_stream(&g, 8, 5, 0xC0FFEE);
    let dir = fresh_dir("checkpointed");

    let mut live = live_for(&g, 2.0);
    live.persist_to(&dir).expect("fresh store");
    for batch in &batches[..6] {
        live.apply(batch).expect("valid batch");
    }
    let name = spanner_store::snapshot_file_name(live.stats().batches, live.epoch());
    live.checkpoint(&dir.join(name)).expect("checkpoint");
    for batch in &batches[6..] {
        live.apply(batch).expect("valid batch");
    }

    let recovered = LiveSpanner::recover(&dir).expect("store recovers");
    assert_eq!(recovered.report.snapshot_seq, 6, "starts at the checkpoint");
    assert_eq!(recovered.report.batches_replayed, 2);
    assert_eq!(
        recovered.live.spanner().to_weighted_graph(),
        live.spanner().to_weighted_graph()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file of a store, by name, with its bytes.
fn store_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("readable store file"))
        })
        .collect();
    files.sort();
    files
}

/// Snapshots carry no wall-clock values: one stream applied to two fresh
/// stores (rebuilds, compaction-triggered snapshots and a checkpoint
/// included) writes the same files, byte for byte.
#[test]
fn one_stream_writes_byte_identical_stores() {
    let mut rng = SmallRng::seed_from_u64(13);
    let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
    let batches = update_stream(&g, 24, 8, 0xB17E);
    let run = |name: &str| {
        let dir = fresh_dir(name);
        let mut live = live_for(&g, 2.0).with_compaction_threshold(0.1);
        live.persist_to(&dir).expect("fresh store");
        for (i, batch) in batches.iter().enumerate() {
            live.apply(batch).expect("valid batch");
            if i == batches.len() / 2 {
                let name = spanner_store::snapshot_file_name(live.stats().batches, live.epoch());
                live.checkpoint(&dir.join(name)).expect("checkpoint");
            }
        }
        assert!(live.stats().recertifications > 0, "no batch rebuilt");
        assert!(live.stats().compactions > 0, "no batch compacted");
        drop(live);
        let files = store_files(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        files
    };
    let (first, second) = (run("bytes-a"), run("bytes-b"));
    let names: Vec<&str> = first.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        names.len() >= 4,
        "expected a WAL and several snapshots: {names:?}"
    );
    assert!(names.contains(&spanner_store::WAL_FILE_NAME), "{names:?}");
    for ((name_a, bytes_a), (name_b, bytes_b)) in first.iter().zip(&second) {
        assert_eq!(name_a, name_b);
        assert!(bytes_a == bytes_b, "{name_a} differs between the two runs");
    }
    assert_eq!(first.len(), second.len());
}
