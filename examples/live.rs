//! Live-spanner quickstart: build a greedy spanner, open it for updates,
//! and serve query batches interleaved with update batches — every batch
//! that inserts an edge or deletes a spanner edge runs a greedy rebuild,
//! and stale cached shortest-path trees are invalidated lazily by their
//! epoch stamps.
//!
//! The example asserts its invariants and exits non-zero on a violation:
//! after every update batch the live spanner equals a from-scratch greedy
//! build of the live original, the rebuilds after the first admit some
//! candidates through a stored read set without a search, and at the end
//! the spanner is a 2-spanner of the live original.
//!
//! Run with `cargo run --release --example live`.

use greedy_spanner_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(7);
    let n = 1500;
    let t = 2.0;
    let graph = erdos_renyi_connected(n, 0.008, 1.0..10.0, &mut rng);

    // 1. Construct, then open for updates. A batch that inserts an edge or
    //    deletes a spanner edge runs greedy again over the live graph.
    let output = Spanner::greedy().stretch(t).build(&graph)?;
    println!(
        "greedy 2-spanner: {} -> {} edges ({:.1} ms to build)",
        graph.num_edges(),
        output.spanner.num_edges(),
        output.stats.wall_time.as_secs_f64() * 1e3
    );
    let live = output.live(&graph)?;
    println!("opened live at epoch {}", live.epoch());

    // 2. Serve it. A live server answers query batches and applies update
    //    batches; audits always run against the live original.
    let mut server = live.serve().threads(2).cache_capacity(64).finish();

    // 3. A mixed stream: ~35% of rounds are update batches.
    let stream = LiveWorkload::new(n)?
        .update_fraction(0.35)?
        .rounds(12)
        .queries_per_batch(2000)
        .updates_per_batch(24)
        .seed(3)
        .generate(&graph);
    let mut admit_skips = 0;
    for (round, event) in stream.iter().enumerate() {
        match event {
            StreamEvent::Updates(batch) => {
                let outcome = server.apply_updates(batch)?;
                admit_skips += outcome.admit_skips;
                println!(
                    "round {round}: applied {} updates — {} admitted, {} rejected, \
                     epoch -> {}{}",
                    batch.len(),
                    outcome.admitted,
                    outcome.rejected,
                    server.epoch(),
                    if outcome.full_certification {
                        format!(
                            " (rebuilt in {:?}, {} new edges; searches skipped: \
                             {} by witness, {} by read set)",
                            outcome.repair_time,
                            outcome.repaired,
                            outcome.witness_skips,
                            outcome.admit_skips
                        )
                    } else {
                        String::new()
                    }
                );
                let live = server.live().expect("live server");
                let original = live.original().to_weighted_graph();
                let greedy = Spanner::greedy().stretch(t).build(&original)?;
                assert_eq!(
                    live.spanner().to_weighted_graph(),
                    greedy.spanner,
                    "round {round}: the live spanner is not the greedy spanner"
                );
            }
            StreamEvent::Queries(queries) => {
                let answers = server.answer_batch(queries)?;
                println!(
                    "round {round}: answered {} queries at epoch {} \
                     (hit rate {:.1}%, stale trees evicted so far: {})",
                    answers.len(),
                    server.stats().epoch,
                    100.0 * server.stats().cache_hit_rate().unwrap_or(0.0),
                    server.stats().stale_evictions
                );
            }
        }
    }

    // Every rebuild after the first reuses the previous one's read sets.
    assert!(
        admit_skips > 0,
        "no rebuild admitted a candidate through a stored read set"
    );

    // 4. The scoreboard: serving and update statistics side by side.
    let stats = *server.stats();
    let updates = *server.update_stats().expect("live server");
    println!(
        "\nserved {} queries at {:.0} qps — latency p50 {:?}, p99 {:?}, max {:?}",
        stats.queries,
        stats.qps().unwrap_or(0.0),
        stats.latency.p50().unwrap(),
        stats.latency.p99().unwrap(),
        stats.latency.max().unwrap()
    );
    println!(
        "applied {} update batches ({} insertions: {} admitted / {} rejected; \
         {} deletions; {} rebuilds in {:?}) advancing {} epochs",
        updates.batches,
        updates.insertions,
        updates.admitted,
        updates.rejected,
        updates.deletions,
        updates.recertifications,
        updates.repair_time,
        updates.epochs_advanced
    );
    let live = server.live().expect("live server");
    assert!(
        is_t_spanner(
            &live.original().to_weighted_graph(),
            &live.spanner().to_weighted_graph(),
            t
        ),
        "the live spanner lost the stretch-{t} invariant"
    );
    println!("final spanner is a {t}-spanner of the live graph");

    // 5. The same spanner, frozen: clone the current state into an
    //    epoch-stamped handle and serve it read-only elsewhere.
    let mut frozen = SpannerServer::new(server.freeze_current());
    let check = frozen.answer_batch(&[Query::distance(VertexId(0), VertexId(n / 2), 1e9)])?;
    println!(
        "frozen replica at epoch {} agrees: {:?}",
        frozen.epoch(),
        check[0].distance()
    );
    Ok(())
}
