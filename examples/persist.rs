//! Persistence quickstart: open a live spanner on a durable store, feed it
//! update batches (each one write-ahead logged before it is applied, with
//! compaction-triggered snapshots bounding both memory and replay), kill
//! it without ceremony, recover, and verify the restarted server answers
//! a held-out query batch bit-identically to the run that never died.
//!
//! Run with `cargo run --release --example persist`.

use greedy_spanner_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(42);
    let n = 400;
    let graph = erdos_renyi_connected(n, 0.02, 1.0..10.0, &mut rng);
    let store = std::env::temp_dir().join("greedy-spanner-example-store");
    let _ = std::fs::remove_dir_all(&store);

    // 1. Build, open live, and attach a store: an initial snapshot is
    //    written and every following batch is fsynced to the write-ahead
    //    log *before* it mutates anything.
    let output = Spanner::greedy().stretch(2.0).build(&graph)?;
    println!(
        "greedy 2-spanner: {} -> {} edges",
        graph.num_edges(),
        output.spanner.num_edges()
    );
    let mut live = output.live(&graph)?;
    live.persist_to(&store)?;
    println!("store opened at {}", store.display());

    // 2. A pure-update stream. Reference twin runs the same batches in
    //    memory only, so we can check the recovery against ground truth.
    let batches: Vec<UpdateBatch> = LiveWorkload::new(n)?
        .update_fraction(1.0)?
        .rounds(10)
        .updates_per_batch(16)
        .weights(1.0, 10.0)?
        .seed(5)
        .generate(&graph)
        .into_iter()
        .filter_map(|event| match event {
            StreamEvent::Updates(batch) => Some(batch),
            StreamEvent::Queries(_) => None,
        })
        .collect();
    let mut twin = Spanner::greedy().stretch(2.0).build(&graph)?.live(&graph)?;

    let kill_after = 7;
    for (round, batch) in batches.iter().enumerate() {
        twin.apply(batch)?;
        if round < kill_after {
            let outcome = live.apply(batch)?;
            if outcome.compactions > 0 {
                println!(
                    "round {round}: compacted {} generation(s), snapshot written",
                    outcome.compactions
                );
            }
        }
    }
    let stats = live.stats();
    println!(
        "killed after batch {kill_after}: {} batches logged, {} snapshot(s) written",
        stats.batches, stats.snapshots_written
    );
    drop(live); // the "crash" — no checkpoint, no shutdown hook

    // 3. Recover: newest valid snapshot + deterministic WAL replay.
    let recovered = LiveSpanner::recover(&store)?;
    println!(
        "recovered from {} (seq {}, epoch {}): replayed {} batch(es){}",
        recovered.report.snapshot_path.display(),
        recovered.report.snapshot_seq,
        recovered.report.snapshot_epoch,
        recovered.report.batches_replayed,
        match &recovered.report.torn_tail {
            Some(tear) => format!(", torn tail: {tear}"),
            None => String::new(),
        }
    );
    let mut revived = recovered.live;

    // 4. Finish the stream and compare against the twin that never died.
    for batch in &batches[kill_after..] {
        revived.apply(batch)?;
    }
    assert_eq!(
        revived.spanner().to_weighted_graph(),
        twin.spanner().to_weighted_graph(),
        "recovery must be bit-identical"
    );
    let queries = QueryWorkload::zipf(n, 1.1)?.queries(500).seed(9).generate();
    let mut served = revived.serve().threads(2).cache_capacity(64).finish();
    let mut reference = twin.serve().threads(2).cache_capacity(64).finish();
    let answers = served.answer_batch(&queries)?;
    assert_eq!(answers, reference.answer_batch(&queries)?);
    println!(
        "{} held-out queries answered bit-identically to the uninterrupted run",
        answers.len()
    );

    std::fs::remove_dir_all(&store)?;
    Ok(())
}
