//! Landmark (ALT) pruning must stay answer-invariant when the query bound
//! *equals* the exact distance — the one place where the triangle lower
//! bound is tight and a single floating-point rounding used to prune the
//! answer path. Random bounds almost never hit a distance, so this suite
//! constructs the hard case on purpose: every query's bound is the distance
//! the plain (landmark-free) engine computes for it.
//!
//! The matrix is landmarks {0, 1, 4, 16} × cache {cold, warm} × {frozen,
//! live}; every cell must agree with the plain engine on every query. A
//! warm cache answers from shortest-path-tree prefixes (no pruning at
//! all), so the cold/warm pair also pins that answers never depend on
//! cache state. Both checks run on ER graphs and on the adversarial
//! families of `tests/common` (extreme magnitudes, rounding ties,
//! disconnected graphs, two vertices); an unreachable pair keeps an
//! infinite bound.

mod common;

use common::{adversarial_graph, ADVERSARIAL_FAMILIES};
use greedy_spanner::serve::{Answer, Query, SpannerServer};
use greedy_spanner::update::UpdateBatch;
use greedy_spanner::{Spanner, SpannerOutput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::{CsrGraph, DijkstraEngine, Landmarks, VertexId, WeightedGraph};

const LANDMARK_COUNTS: [usize; 4] = [0, 1, 4, 16];

/// An ER graph with n = 400 and mean degree ≈ 12, weights in [1, 10).
fn er_graph(seed: u64) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    erdos_renyi_connected(400, 0.03, 1.0..10.0, &mut rng)
}

/// Every `(s, t)` pair with `s` from a spread of sources and `t` over all
/// vertices.
fn probe_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    (0..n)
        .step_by(13)
        .flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t))))
        .collect()
}

/// The pairs as distance queries under `bound(i)`.
fn distance_queries(pairs: &[(VertexId, VertexId)], bound: impl Fn(usize) -> f64) -> Vec<Query> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Query::distance(s, t, bound(i)))
        .collect()
}

/// Counts the queries on which `server` disagrees with `reference`.
fn disagreements(server: &mut SpannerServer, queries: &[Query], reference: &[Answer]) -> usize {
    let answers = server.answer_batch(queries).expect("valid batch");
    answers
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count()
}

/// A frozen server over `output` with `landmarks` landmarks; `warm` caches
/// every source's tree before answering (admission threshold 1).
fn frozen(output: &SpannerOutput, landmarks: usize, warm: bool) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(1)
        .landmarks(landmarks)
        .cache_capacity(if warm { 1024 } else { 0 })
        .cache_admit_threshold(1)
        .finish()
}

/// A live server over `output`, after one update batch whose deletions stay
/// pending in the spanner (the batched kernel's tombstone path).
fn live(output: &SpannerOutput, g: &WeightedGraph, landmarks: usize, warm: bool) -> SpannerServer {
    let mut server = output
        .clone()
        .live(g)
        .expect("greedy guarantees the stretch")
        .serve()
        .threads(1)
        .landmarks(landmarks)
        .cache_capacity(if warm { 1024 } else { 0 })
        .cache_admit_threshold(1)
        .finish();
    let mut batch = UpdateBatch::new();
    for e in g.edges().iter().step_by(97).take(8) {
        batch = batch.delete(e.u, e.v);
    }
    server.apply_updates(&batch).expect("valid batch");
    server
}

/// Adversarial graphs: every family at several sizes and seeds.
fn adversarial_graphs() -> Vec<(String, WeightedGraph)> {
    (0..ADVERSARIAL_FAMILIES)
        .flat_map(|family| {
            (0..6u64).map(move |seed| {
                let n = 4 + 2 * seed as usize;
                let mut rng = SmallRng::seed_from_u64(0x0A17_0000 + seed);
                let g = adversarial_graph(family, n, &mut rng);
                (
                    format!("family {family} n={} seed {seed}", g.num_vertices()),
                    g,
                )
            })
        })
        .collect()
}

/// Re-issues every pair of `probes` with its bound set to the distance the
/// plain (landmark-free, cold) server computes for it, and checks that
/// every landmark count × cache state of frozen and live servers agrees.
fn assert_servers_agree_at_exact_bounds(
    g: &WeightedGraph,
    pairs: &[(VertexId, VertexId)],
    context: &str,
) {
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(g)
        .expect("valid stretch");
    let probes = distance_queries(pairs, |_| f64::INFINITY);
    for kind in ["frozen", "live"] {
        let make = |landmarks: usize, warm: bool| match kind {
            "frozen" => frozen(&output, landmarks, warm),
            _ => live(&output, g, landmarks, warm),
        };
        // The tight case: every pair re-issued with its bound set to the
        // distance the plain server computed for it.
        let plain = make(0, false).answer_batch(&probes).expect("valid batch");
        let exact: Vec<Option<f64>> = plain.iter().map(Answer::distance).collect();
        let queries = distance_queries(pairs, |i| exact[i].unwrap_or(f64::INFINITY));
        let reference = make(0, false).answer_batch(&queries).expect("valid batch");
        assert!(
            reference
                .iter()
                .zip(&exact)
                .all(|(a, d)| a.distance() == *d),
            "{context} {kind}: the plain engine must answer its own distance as within bound"
        );
        for landmarks in LANDMARK_COUNTS {
            for warm in [false, true] {
                let cache = if warm { "warm" } else { "cold" };
                let mut server = make(landmarks, warm);
                let wrong = disagreements(&mut server, &queries, &reference);
                assert_eq!(
                    wrong,
                    0,
                    "{context}: {kind} server, {landmarks} landmarks, {cache} cache: {wrong} of \
                     {} exact-bound queries disagree with the plain engine",
                    queries.len()
                );
            }
        }
    }
}

#[test]
fn servers_agree_with_the_plain_engine_at_exact_bounds() {
    let g = er_graph(0x0A17_0400);
    assert_servers_agree_at_exact_bounds(&g, &probe_pairs(g.num_vertices()), "er n=400");
}

#[test]
fn servers_agree_at_exact_bounds_on_adversarial_graphs() {
    for (context, g) in adversarial_graphs() {
        let n = g.num_vertices();
        let pairs: Vec<_> = (0..n)
            .flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t))))
            .collect();
        assert_servers_agree_at_exact_bounds(&g, &pairs, &context);
    }
}

/// Issues `queries` random `(s, t)` pairs of `g` at the plain engine's
/// exact distance through landmarked engines with 1, 4 and 16 landmarks;
/// returns how many of them answered differently and how many ran.
fn landmarked_disagreements(
    g: &WeightedGraph,
    queries: usize,
    rng: &mut SmallRng,
) -> (usize, usize) {
    let n = g.num_vertices();
    let csr = CsrGraph::from(g);
    let tables: Vec<Landmarks> = [1, 4, 16]
        .iter()
        .map(|&k| Landmarks::build_degree_ranked(&csr, k))
        .collect();
    let mut plain = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let mut pruned = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let (mut wrong, mut total) = (0, 0);
    for _ in 0..queries {
        let s = VertexId(rng.gen_range(0..n));
        let t = VertexId(rng.gen_range(0..n));
        let Some(d) = plain.bounded_distance(&csr, s, t, f64::INFINITY) else {
            continue;
        };
        for lm in &tables {
            total += 1;
            if pruned.bounded_distance_landmarked(&csr, lm, s, t, d) != Some(d) {
                wrong += 1;
            }
        }
    }
    (wrong, total)
}

#[test]
fn landmarked_engine_agrees_with_the_plain_engine_at_exact_bounds() {
    let mut rng = SmallRng::seed_from_u64(0x0A17_0300);
    let (mut wrong, mut total) = (0, 0);
    for _ in 0..6 {
        let g = erdos_renyi_connected(300, 0.02, 0.05..20.0, &mut rng);
        let (w, t) = landmarked_disagreements(&g, 400, &mut rng);
        wrong += w;
        total += t;
    }
    assert!(total > 5000);
    assert_eq!(
        wrong, 0,
        "{wrong} of {total} exact-bound ALT queries were pruned"
    );
}

#[test]
fn landmarked_engine_agrees_at_exact_bounds_on_adversarial_graphs() {
    let mut rng = SmallRng::seed_from_u64(0x0A17_0301);
    for (context, g) in adversarial_graphs() {
        let (wrong, total) = landmarked_disagreements(&g, 200, &mut rng);
        assert_eq!(
            wrong, 0,
            "{context}: {wrong} of {total} exact-bound ALT queries were pruned"
        );
    }
}
