//! Property suite for the live-update subsystem's contracts:
//!
//! 1. **Invariant preservation.** For random update streams, a
//!    [`LiveSpanner`] keeps the stretch-`t` invariant after every batch —
//!    measured independently with [`greedy_spanner::analysis::is_t_spanner`]
//!    against the live original — and after every batch the live spanner
//!    *is* `Spanner::greedy().stretch(t).build(&original)`, edge for edge. This
//!    also runs on 0-, 1- and 2-vertex graphs and on weights near `1e±300`
//!    and `1e308`, where a two-edge detour overflows to `+∞`.
//! 2. **Interleaved-vs-rebuilt serving equivalence.** A [`SpannerServer`]
//!    interleaving query batches and update batches answers
//!    **bit-identically** to a server rebuilt from scratch (a fresh frozen
//!    handle over the current spanner, empty cache) after each batch — at
//!    thread counts {1, 2, 8} and cache capacities {0, 64}, over ER,
//!    dense-uniform and high-spread weight distributions. Lazy
//!    invalidation of stale shortest-path trees must therefore be airtight.

use greedy_spanner::analysis::is_t_spanner;
use greedy_spanner::serve::{ServeBuilder, SpannerServer};
use greedy_spanner::workload::{LiveWorkload, StreamEvent};
use greedy_spanner::{LiveSpanner, Spanner, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::{complete_graph_with_weights, erdos_renyi_connected};
use spanner_graph::{VertexId, WeightedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 2] = [0, 64];

fn live_for(g: &WeightedGraph, t: f64) -> LiveSpanner {
    Spanner::greedy()
        .stretch(t)
        .build(g)
        .expect("valid stretch")
        .live(g)
        .expect("greedy guarantees a stretch")
}

/// The per-batch contract: the stretch-`t` invariant, and equality with a
/// from-scratch greedy build of the live original.
fn assert_batch_contract(live: &LiveSpanner, context: &str) {
    let original = live.original().to_weighted_graph();
    let spanner = live.spanner().to_weighted_graph();
    assert!(
        is_t_spanner(&original, &spanner, live.stretch()),
        "{context}: invariant lost"
    );
    let greedy = Spanner::greedy()
        .stretch(live.stretch())
        .build(&original)
        .expect("valid stretch");
    assert_eq!(
        spanner, greedy.spanner,
        "{context}: the live spanner is not the greedy spanner"
    );
}

/// The "rebuilt from scratch" oracle: freeze the driven server's current
/// spanner into a fresh handle (cold cache, one thread) and audit against
/// the driven server's live original.
fn rebuilt_reference(server: &SpannerServer) -> SpannerServer {
    let original = server
        .live()
        .expect("equivalence runs on live servers")
        .original()
        .to_weighted_graph();
    ServeBuilder::from_handle(server.freeze_current())
        .threads(1)
        .cache_capacity(0)
        .audit_against(&original)
        .finish()
}

/// A 6-round query/update stream over `g` with at least one update round:
/// the generator draws each round's kind at random (about 1 stream in 64
/// has no update), so seeds after `workload_seed` are tried in turn until
/// one has.
fn stream_with_updates(g: &WeightedGraph, workload_seed: u64) -> Vec<StreamEvent> {
    (0..64)
        .map(|i| {
            LiveWorkload::new(g.num_vertices())
                .expect("valid universe")
                .update_fraction(0.5)
                .expect("valid fraction")
                .rounds(6)
                .queries_per_batch(40)
                .updates_per_batch(5)
                .weights(0.05, 20.0)
                .expect("valid range")
                .bound(1e6)
                .seed(workload_seed.wrapping_add(i))
                .generate(g)
        })
        .find(|stream| {
            stream
                .iter()
                .any(|event| matches!(event, StreamEvent::Updates(_)))
        })
        .expect("64 consecutive seeds without an update round")
}

fn assert_stream_equivalence(g: &WeightedGraph, t: f64, workload_seed: u64) {
    let stream = stream_with_updates(g, workload_seed);
    for threads in THREAD_COUNTS {
        for cache in CACHE_CAPACITIES {
            let mut server = live_for(g, t)
                .serve()
                .threads(threads)
                .cache_capacity(cache)
                .finish();
            for (round, event) in stream.iter().enumerate() {
                match event {
                    StreamEvent::Updates(batch) => {
                        server.apply_updates(batch).expect("valid batch");
                        assert_batch_contract(
                            server.live().unwrap(),
                            &format!("round {round}, threads {threads}, cache {cache}"),
                        );
                    }
                    StreamEvent::Queries(queries) => {
                        // The interleaved (possibly stale-cached) server vs.
                        // a from-scratch rebuild at the current epoch.
                        let mut rebuilt = rebuilt_reference(&server);
                        let expected = rebuilt.answer_batch(queries).expect("valid batch");
                        let got = server.answer_batch(queries).expect("valid batch");
                        assert_eq!(
                            got, expected,
                            "round {round}, threads {threads}, cache {cache}: interleaved \
                             server diverged from the from-scratch rebuild"
                        );
                    }
                }
            }
            // The stream exercised the update path.
            let stats = server.update_stats().expect("live server");
            assert!(stats.batches > 0, "stream contained no update batch");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Erdős–Rényi graphs with moderate weight spread.
    #[test]
    fn er_streams_stay_invariant_and_serve_identically(
        seed in 0u64..10_000,
        n in 10usize..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.35, 1.0..10.0, &mut rng);
        assert_stream_equivalence(&g, 2.0, seed ^ 0x11FE);
    }

    /// Dense uniform graphs (every pair an edge, tight weight band).
    #[test]
    fn dense_uniform_streams_stay_invariant_and_serve_identically(
        seed in 0u64..10_000,
        n in 8usize..16,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = complete_graph_with_weights(n, 1.0..2.0, &mut rng);
        assert_stream_equivalence(&g, 1.5, seed ^ 0xD3_5E);
    }

    /// High-spread weights (four orders of magnitude) — the regime where a
    /// single deletion can strand many light-edge witnesses.
    #[test]
    fn high_spread_streams_stay_invariant_and_serve_identically(
        seed in 0u64..10_000,
        n in 10usize..20,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.4, 0.01..100.0, &mut rng);
        assert_stream_equivalence(&g, 3.0, seed ^ 0x5B_EAD);
    }
}

/// Weight families of the extreme-input property: near `1e-300`, near
/// `1e300`, near `1e308` (any two-edge sum overflows to `+∞`, and `t·w`
/// does too), and a per-edge mix of the three.
fn extreme_weight(family: usize, rng: &mut SmallRng) -> f64 {
    match family {
        0 => rng.gen_range(1.0..10.0) * 1e-300,
        1 => rng.gen_range(0.5..8.0) * 1e300,
        2 => rng.gen_range(0.9..1.0) * 1e308,
        _ => {
            let pick = rng.gen_range(0..3);
            extreme_weight(pick, rng)
        }
    }
}

/// A random update stream driven straight into a [`LiveSpanner`], checking
/// the per-batch contract. Insertions may create parallel edges; deletions
/// and reweights pick live edges of the original at batch start. Returns
/// the number of rebuild batches.
fn assert_extreme_stream(n: usize, family: usize, t: f64, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(0.5) {
                let w = extreme_weight(family, &mut rng);
                g.add_edge(VertexId(u), VertexId(v), w);
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C);
    let mut live = live_for(&g, t);
    assert_batch_contract(&live, "wrapped");
    for round in 0..6 {
        let mut deletable: Vec<(VertexId, VertexId)> = live
            .original()
            .live_edges()
            .map(|(_, u, v, _)| (u, v))
            .collect();
        let mut batch = UpdateBatch::new();
        for _ in 0..4 {
            if n < 2 {
                break;
            }
            let kind = rng.gen_range(0..3);
            if kind == 0 || deletable.is_empty() {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                let w = extreme_weight(family, &mut rng);
                batch = batch.insert(VertexId(u), VertexId(v), w);
            } else {
                let (u, v) = deletable.swap_remove(rng.gen_range(0..deletable.len()));
                if kind == 1 {
                    batch = batch.delete(u, v);
                } else {
                    batch = batch.reweight(u, v, extreme_weight(family, &mut rng));
                }
            }
        }
        live.apply(&batch).expect("valid batch");
        assert_batch_contract(
            &live,
            &format!("n {n}, family {family}, t {t}, round {round}"),
        );
    }
    live.stats().recertifications
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 0-, 1- and 2-vertex graphs plus one larger graph per case, under
    /// every extreme weight family.
    #[test]
    fn tiny_graphs_and_extreme_weights_stay_invariant_and_rebuild_to_greedy(
        seed in 0u64..10_000,
        n in 3usize..12,
        family in 0usize..4,
    ) {
        let mut rebuilds = 0;
        for (i, n) in [0, 1, 2, n].into_iter().enumerate() {
            for t in [1.5, 2.0] {
                rebuilds += assert_extreme_stream(n, family, t, seed ^ ((i as u64) << 32));
            }
        }
        prop_assert!(rebuilds > 0, "the streams never rebuilt");
    }
}

/// Deterministic (non-proptest) end-to-end check that the stream actually
/// exercises staleness: a hot cached source must be invalidated by an
/// update and the lazily-refreshed answer must match a rebuild.
#[test]
fn stale_cache_entries_are_lazily_evicted_and_answers_track_the_rebuild() {
    let mut rng = SmallRng::seed_from_u64(99);
    let g = erdos_renyi_connected(30, 0.3, 1.0..6.0, &mut rng);
    let mut server = live_for(&g, 2.0)
        .serve()
        .threads(2)
        .cache_capacity(16)
        .finish();
    let stream = LiveWorkload::new(30)
        .expect("valid")
        .update_fraction(0.4)
        .expect("valid")
        .rounds(12)
        .queries_per_batch(64)
        .updates_per_batch(6)
        .seed(17)
        .generate(&g);
    let mut saw_updates = false;
    for event in &stream {
        match event {
            StreamEvent::Updates(batch) => {
                server.apply_updates(batch).expect("valid batch");
                saw_updates = true;
            }
            StreamEvent::Queries(queries) => {
                let mut rebuilt = rebuilt_reference(&server);
                let expected = rebuilt.answer_batch(queries).expect("valid batch");
                assert_eq!(server.answer_batch(queries).expect("valid"), expected);
            }
        }
    }
    assert!(saw_updates);
    let stats = server.stats();
    assert!(
        stats.stale_evictions > 0,
        "the stream never exercised lazy invalidation (hits {}, misses {})",
        stats.cache_hits,
        stats.cache_misses
    );
    assert_eq!(stats.epoch, server.epoch());
    // Consistency of the cumulative counters.
    let updates = server.update_stats().unwrap();
    assert_eq!(
        updates.admitted + updates.rejected,
        updates.insertions,
        "every insertion is either admitted or rejected"
    );
}

/// Answers must stay well-defined when updates disconnect parts of the
/// graph: deletions can legitimately cut off vertices, and both the
/// interleaved and rebuilt servers must agree on the `None`s.
#[test]
fn disconnecting_deletions_keep_equivalence() {
    // A path is maximally fragile: every deletion disconnects it.
    let g = WeightedGraph::from_edges(12, (1..12).map(|v| (v - 1, v, 1.0))).unwrap();
    assert_stream_equivalence(&g, 2.0, 4242);
}
