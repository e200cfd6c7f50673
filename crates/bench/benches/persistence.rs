//! Persistence-path costs: snapshot write/load, kill/restart recovery
//! (snapshot + WAL replay) vs. rebuilding the greedy spanner from scratch.
//!
//! The reported comparison is `recover_replay` vs. `full_rebuild`: a
//! restarted server loads the newest snapshot and replays the WAL suffix
//! through the deterministic apply path, against re-running the greedy
//! construction on the final graph. The `replay_vs_rebuild` line records
//! the measured ratio, and CI archives the JSON summary (`BENCH_JSON`,
//! `bench-persistence.jsonl`) as the persistence perf trajectory. The ratio
//! is not gated: a replayed batch that deleted a spanner edge rebuilds the
//! spanner with that same greedy construction, so replay cannot be
//! expected to beat one rebuild.
//!
//! Before timing anything the bench asserts the recovery contract: the
//! recovered spanner is bit-identical to the killed one.
//!
//! Run with `cargo bench --bench persistence`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use greedy_spanner::update::{LiveSpanner, UpdateBatch};
use greedy_spanner::workload::{LiveWorkload, StreamEvent};
use greedy_spanner::Spanner;
use spanner_bench::workloads::{random_graph, DEFAULT_SEED};
use spanner_store::{list_snapshots, Snapshot};

const N: usize = 500;
const STRETCH: f64 = 2.0;
const BATCHES: usize = 8;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("greedy-spanner-persistence-bench")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_persistence(c: &mut Criterion) {
    let g = random_graph(N, DEFAULT_SEED);
    let output = Spanner::greedy()
        .stretch(STRETCH)
        .build(&g)
        .expect("valid stretch");
    let batches: Vec<UpdateBatch> = LiveWorkload::new(N)
        .expect("valid universe")
        .update_fraction(1.0)
        .expect("valid fraction")
        .insert_fraction(0.6)
        .expect("valid fraction")
        .rounds(BATCHES)
        .updates_per_batch(12)
        .weights(1.0, 10.0)
        .expect("valid range")
        .seed(DEFAULT_SEED)
        .generate(&g)
        .into_iter()
        .map(|event| match event {
            StreamEvent::Updates(batch) => batch,
            StreamEvent::Queries(_) => unreachable!("update fraction is 1.0"),
        })
        .collect();

    // The "killed" store every recovery below starts from. A service that
    // checkpoints periodically loses only the WAL suffix past the newest
    // snapshot on a crash; model that by checkpointing into the store one
    // batch before the kill, leaving `REPLAY_SUFFIX` batches to replay.
    const REPLAY_SUFFIX: usize = 1;
    let checkpoint_after = BATCHES - REPLAY_SUFFIX;
    let store = bench_dir("store");
    let mut victim = LiveSpanner::new(output.clone(), &g).expect("greedy has a stretch");
    victim.persist_to(&store).expect("fresh store");
    for batch in &batches[..checkpoint_after] {
        victim.apply(batch).expect("valid stream");
    }
    let name = spanner_store::snapshot_file_name(victim.stats().batches, victim.epoch());
    victim.checkpoint(&store.join(name)).expect("checkpoint");
    for batch in &batches[checkpoint_after..] {
        victim.apply(batch).expect("valid stream");
    }
    let final_state = victim.original().to_weighted_graph();
    let final_spanner = victim.spanner().to_weighted_graph();

    // Contract gate before any timing: recovery is bit-identical.
    {
        let recovered = LiveSpanner::recover(&store).expect("store recovers");
        assert_eq!(
            recovered.live.spanner().to_weighted_graph(),
            final_spanner,
            "recovery must restore the killed spanner bit-identically"
        );
    }

    let snapshot_path = {
        let dir = bench_dir("checkpoints");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bench.snap");
        victim.checkpoint(&path).expect("checkpoint");
        path
    };

    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);

    // Serialize + checksum + fsync + rename of a full snapshot.
    group.bench_function("snapshot_write", |b| {
        let target = snapshot_path.with_file_name("rewrite.snap");
        b.iter(|| {
            victim.checkpoint(&target).expect("checkpoint");
            std::fs::metadata(&target).expect("written").len()
        })
    });

    // Verified read of the same snapshot (checksums + graph restore).
    group.bench_function("snapshot_load", |b| {
        b.iter(|| {
            let snapshot = Snapshot::read(&snapshot_path).expect("valid snapshot");
            snapshot
                .spanner
                .restore(&snapshot_path)
                .expect("valid image")
                .num_edges()
        })
    });

    // Kill/restart: newest snapshot + deterministic WAL replay.
    group.bench_function("recover_replay", |b| {
        b.iter(|| {
            LiveSpanner::recover(&store)
                .expect("store recovers")
                .live
                .spanner()
                .num_edges()
        })
    });

    // The alternative a snapshotless service faces: greedy from scratch.
    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            Spanner::greedy()
                .stretch(STRETCH)
                .build(&final_state)
                .expect("valid stretch")
                .spanner
                .num_edges()
        })
    });
    group.finish();

    // The acceptance ratio, measured directly so the artifact carries it
    // even when per-bench samples are noisy.
    let rounds = 3;
    let mut replay = Duration::ZERO;
    let mut rebuild = Duration::ZERO;
    for _ in 0..rounds {
        let t0 = Instant::now();
        LiveSpanner::recover(&store).expect("store recovers");
        replay += t0.elapsed();
        let t1 = Instant::now();
        Spanner::greedy()
            .stretch(STRETCH)
            .build(&final_state)
            .expect("valid stretch");
        rebuild += t1.elapsed();
    }
    let speedup = rebuild.as_secs_f64() / replay.as_secs_f64().max(1e-12);
    let snapshots = list_snapshots(&store).expect("listable").len();
    println!(
        "replay_vs_rebuild: rebuild {rebuild:?} / recover {replay:?} = {speedup:.2}x \
         ({snapshots} snapshot(s), {REPLAY_SUFFIX}-batch WAL suffix of {BATCHES}, n = {N})"
    );
    let _ = std::fs::remove_dir_all(std::env::temp_dir().join("greedy-spanner-persistence-bench"));
}

criterion_group!(persistence, bench_persistence);
criterion_main!(persistence);
