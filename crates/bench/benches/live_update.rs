//! Live-update throughput: witness-reusing live rebuilds vs. cold rebuilds
//! on small-update workloads.
//!
//! The load-bearing comparison is `live_stream` vs. `full_rebuild_stream`.
//! Both leave the greedy spanner of the updated graph after every batch;
//! a [`LiveSpanner`] gets there by rebuilding with the covering walks of
//! its previous rebuild, a cold rebuild runs `Spanner::greedy()` from
//! scratch. The `live_vs_rebuild` line printed by this bench records the
//! measured ratio (the live stream must beat the cold rebuilds — the gate
//! asserts speedup > 1x), and CI archives the JSON summary (`BENCH_JSON`)
//! as the live-update perf trajectory.
//!
//! Before timing anything the bench asserts the maintenance contract: after
//! every batch the live spanner is a stretch-t spanner of the live original
//! (`is_t_spanner`) and equals `Spanner::greedy()` over the live original,
//! edge for edge.
//!
//! Run with `cargo bench --bench live_update`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use greedy_spanner::analysis::is_t_spanner;
use greedy_spanner::update::{LiveSpanner, Update, UpdateBatch};
use greedy_spanner::workload::{LiveWorkload, StreamEvent};
use greedy_spanner::Spanner;
use spanner_bench::workloads::{random_graph, DEFAULT_SEED};
use spanner_graph::{CsrGraph, WeightedGraph};

const N: usize = 800;
const STRETCH: f64 = 2.0;
const BATCHES: usize = 6;

/// The cumulative graph states a rebuild-per-batch strategy would build
/// from: `states[k]` is the original graph after batches `0..=k`.
fn cumulative_states(g: &WeightedGraph, batches: &[UpdateBatch]) -> Vec<WeightedGraph> {
    let mut mirror = CsrGraph::from(g);
    batches
        .iter()
        .map(|batch| {
            for update in batch.updates() {
                match *update {
                    Update::Delete { u, v } => {
                        mirror.remove_edge_between(u, v).expect("valid stream");
                    }
                    Update::Reweight { u, v, weight } => {
                        mirror.remove_edge_between(u, v).expect("valid stream");
                        mirror.append_edge(u, v, weight);
                    }
                    Update::Insert { u, v, weight } => {
                        mirror.append_edge(u, v, weight);
                    }
                }
            }
            mirror.to_weighted_graph()
        })
        .collect()
}

fn bench_live_update(c: &mut Criterion) {
    let g = random_graph(N, DEFAULT_SEED);
    let output = Spanner::greedy()
        .stretch(STRETCH)
        .build(&g)
        .expect("valid stretch");

    // A small-update workload: update batches only, insert-leaning — the
    // regime a live service actually sees (a trickle of mutations against
    // a large standing graph).
    let batches: Vec<UpdateBatch> = LiveWorkload::new(N)
        .expect("valid universe")
        .update_fraction(1.0)
        .expect("valid fraction")
        .insert_fraction(0.7)
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
    let states = cumulative_states(&g, &batches);

    // Contract gate before any timing: every batch keeps the stretch
    // invariant and leaves exactly the greedy spanner of the updated graph
    // (`states[k]` is that graph).
    {
        let mut live = LiveSpanner::new(output.clone(), &g).expect("greedy has a stretch");
        for (batch, state) in batches.iter().zip(&states) {
            live.apply(batch).expect("valid stream");
            let spanner = live.spanner().to_weighted_graph();
            assert!(
                is_t_spanner(state, &spanner, STRETCH),
                "a live batch lost the stretch invariant"
            );
            let greedy = Spanner::greedy()
                .stretch(STRETCH)
                .build(state)
                .expect("valid stretch");
            assert_eq!(
                spanner, greedy.spanner,
                "a live batch left a spanner other than the greedy one"
            );
        }
    }

    let mut group = c.benchmark_group("live_update");
    group.sample_size(10);

    // Live: wrap the prebuilt output and apply the whole stream.
    group.bench_function("live_stream", |b| {
        b.iter(|| {
            let mut live = LiveSpanner::new(output.clone(), &g).expect("valid");
            for batch in &batches {
                live.apply(batch).expect("valid stream");
            }
            live.spanner().num_edges()
        })
    });

    // Cold rebuild: run the full greedy construction on every post-batch
    // state.
    group.bench_function("full_rebuild_stream", |b| {
        b.iter(|| {
            let mut edges = 0;
            for state in &states {
                edges = Spanner::greedy()
                    .stretch(STRETCH)
                    .build(state)
                    .expect("valid stretch")
                    .spanner
                    .num_edges();
            }
            edges
        })
    });
    group.finish();

    // The acceptance ratio, measured directly so the artifact carries it
    // even when per-bench samples are noisy. The live side includes
    // LiveSpanner construction to keep the comparison honest about total
    // cost.
    let rounds = 3;
    let mut live_time = Duration::ZERO;
    let mut rebuild = Duration::ZERO;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut live = LiveSpanner::new(output.clone(), &g).expect("valid");
        for batch in &batches {
            live.apply(batch).expect("valid stream");
        }
        live_time += t0.elapsed();
        let t1 = Instant::now();
        for state in &states {
            Spanner::greedy()
                .stretch(STRETCH)
                .build(state)
                .expect("valid stretch");
        }
        rebuild += t1.elapsed();
    }
    let speedup = rebuild.as_secs_f64() / live_time.as_secs_f64().max(1e-12);
    println!(
        "live_vs_rebuild: rebuild {rebuild:?} / live {live_time:?} = \
         {speedup:.2}x over {BATCHES} batches (n = {N})"
    );
    assert!(
        speedup > 1.0,
        "live update batches must beat cold rebuilds on small-update \
         workloads (measured {speedup:.2}x)"
    );
}

criterion_group!(live_update, bench_live_update);
criterion_main!(live_update);
