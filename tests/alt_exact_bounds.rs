//! The goal-directed (landmark, ALT) search must return the plain engine's
//! answers exactly: distances bit for bit — also when the query bound
//! *equals* the exact distance, where the triangle lower bound is tight
//! and a single floating-point rounding could cut the answer path — and
//! paths vertex for vertex. Random bounds almost never hit a distance, so
//! this suite constructs the hard case on purpose: every pair is asked at
//! the distance the plain (landmark-free) engine computes for it, and
//! again unbounded and as a path query.
//!
//! The matrix is landmarks {0, 1, 4, 16} × cache {cold, warm} × {frozen,
//! live}; every cell must agree with the plain engine on every query. A
//! warm cache answers from shortest-path-tree prefixes (no landmarks at
//! all), so the cold/warm pair also pins that answers never depend on
//! cache state. Both checks run on ER graphs and on the adversarial
//! families of `tests/common` (extreme magnitudes, rounding ties,
//! disconnected graphs, one or two vertices, tie-heavy integer weights);
//! an unreachable pair keeps an infinite bound. The same graphs check
//! `Landmarks::rules_out`: a query the table rules out answers `None` and
//! settles nothing.

mod common;

use common::{adversarial_graph, ADVERSARIAL_FAMILIES};
use greedy_spanner::serve::{Answer, PathAnswer, Query, SpannerServer};
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
/// every source's tree before answering (each batch asks every source at
/// least three times, past the admission threshold of two).
fn frozen(output: &SpannerOutput, landmarks: usize, warm: bool) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(1)
        .landmarks(landmarks)
        .cache_capacity(if warm { 1024 } else { 0 })
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

/// Re-issues every pair with its bound set to the distance the plain
/// (landmark-free, cold) server computes for it, unbounded, and as a path
/// query, and checks that every landmark count × cache state of frozen and
/// live servers agrees — and that the plain server's paths are the plain
/// engine's over the served spanner.
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
        let mut queries = distance_queries(pairs, |i| exact[i].unwrap_or(f64::INFINITY));
        queries.extend_from_slice(&probes);
        queries.extend(pairs.iter().map(|&(s, t)| Query::path(s, t)));
        let mut plain_server = make(0, false);
        let reference = plain_server.answer_batch(&queries).expect("valid batch");
        assert!(
            reference
                .iter()
                .zip(&exact)
                .all(|(a, d)| a.distance() == *d),
            "{context} {kind}: the plain engine must answer its own distance as within bound"
        );
        // The served spanner: the output's for a frozen server, the live
        // one's for a live server.
        let spanner = match plain_server.live() {
            Some(live) => live.spanner().clone(),
            None => CsrGraph::from(&output.spanner),
        };
        let mut engine = DijkstraEngine::new();
        for (&(s, t), answer) in pairs.iter().zip(&reference[2 * pairs.len()..]) {
            let want = engine
                .shortest_path(&spanner, s, t)
                .map(|(distance, vertices)| PathAnswer { distance, vertices });
            assert_eq!(
                answer,
                &Answer::Path(want),
                "{context} {kind}: plain path {s:?} -> {t:?}"
            );
        }
        for landmarks in LANDMARK_COUNTS {
            for warm in [false, true] {
                let cache = if warm { "warm" } else { "cold" };
                let mut server = make(landmarks, warm);
                let wrong = disagreements(&mut server, &queries, &reference);
                assert_eq!(
                    wrong,
                    0,
                    "{context}: {kind} server, {landmarks} landmarks, {cache} cache: {wrong} of \
                     {} queries disagree with the plain engine",
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

/// Issues `queries` random `(s, t)` pairs of `g` through landmarked
/// engines with 0, 1, 4 and 16 landmarks — unbounded, at the plain
/// engine's exact distance, and as a path query — on a warm engine (reused
/// for every query) and a cold one (fresh per pair); returns how many
/// answers differed from the plain engine's, bit for bit and vertex for
/// vertex, and how many ran.
fn landmarked_disagreements(
    g: &WeightedGraph,
    queries: usize,
    rng: &mut SmallRng,
) -> (usize, usize) {
    let n = g.num_vertices();
    let csr = CsrGraph::from(g);
    let tables: Vec<Landmarks> = LANDMARK_COUNTS
        .iter()
        .map(|&k| Landmarks::farthest_point(&csr, k))
        .collect();
    let mut plain = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let mut warm = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let (mut wrong, mut total) = (0, 0);
    for _ in 0..queries {
        let s = VertexId(rng.gen_range(0..n));
        let t = VertexId(rng.gen_range(0..n));
        let path = plain.shortest_path(&csr, s, t);
        let d = path.as_ref().map(|p| p.0);
        let mut cold = DijkstraEngine::new();
        for lm in &tables {
            for engine in [&mut warm, &mut cold] {
                let mut answers = vec![
                    engine.bounded_distance_landmarked(&csr, lm, s, t, f64::INFINITY) == d,
                    engine.shortest_path_with(&csr, Some(lm), s, t) == path,
                ];
                if let Some(d) = d {
                    let at_exact = engine.bounded_distance_landmarked(&csr, lm, s, t, d);
                    answers.push(at_exact.map(f64::to_bits) == Some(d.to_bits()));
                }
                total += answers.len();
                wrong += answers.iter().filter(|&&agrees| !agrees).count();
            }
        }
    }
    let stats = warm.stats();
    assert_eq!(
        stats.reuse_hits, stats.queries,
        "a pre-sized engine allocated"
    );
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
        "{wrong} of {total} goal-directed answers differ from the plain engine's"
    );
}

#[test]
fn landmarked_engine_agrees_at_exact_bounds_on_adversarial_graphs() {
    let mut rng = SmallRng::seed_from_u64(0x0A17_0301);
    for (context, g) in adversarial_graphs() {
        let (wrong, total) = landmarked_disagreements(&g, 200, &mut rng);
        assert_eq!(
            wrong, 0,
            "{context}: {wrong} of {total} goal-directed answers differ from the plain engine's"
        );
    }
}

/// Checks `Landmarks::rules_out` on every pair of `g` at landmark counts
/// {0, 1, 4, 16} and at bounds around the plain engine's distance `d` —
/// `d` itself, the float just below it, `d / 2`, 0 and `∞`: whenever the
/// table rules a query out, the plain engine answers `None` and the
/// goal-directed search settles no vertex. Returns how many queries the
/// tables ruled out.
fn assert_rules_out_is_sound(g: &WeightedGraph, context: &str) -> usize {
    let n = g.num_vertices();
    let csr = CsrGraph::from(g);
    let mut plain = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let mut goal = DijkstraEngine::with_capacity_for(n, g.num_edges());
    let mut ruled_out = 0;
    for lm in LANDMARK_COUNTS.map(|k| Landmarks::farthest_point(&csr, k)) {
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t)))) {
            let mut bounds = vec![0.0, f64::INFINITY];
            if let Some(d) = plain.bounded_distance(&csr, s, t, f64::INFINITY) {
                bounds.extend([d, d / 2.0]);
                if d > 0.0 {
                    bounds.push(f64::from_bits(d.to_bits() - 1));
                }
            }
            for bound in bounds {
                if !lm.rules_out(s, t, bound) {
                    continue;
                }
                ruled_out += 1;
                let at = format!(
                    "{context}, {} landmarks: {s:?} -> {t:?} at {bound}",
                    lm.len()
                );
                assert_eq!(plain.bounded_distance(&csr, s, t, bound), None, "{at}");
                let settled = goal.stats().settled_vertices;
                assert_eq!(
                    goal.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                    None,
                    "{at}"
                );
                assert_eq!(goal.stats().settled_vertices, settled, "{at}: settled");
            }
        }
    }
    ruled_out
}

#[test]
fn ruled_out_queries_answer_none_without_settling() {
    let mut ruled_out = 0;
    for (context, g) in adversarial_graphs() {
        ruled_out += assert_rules_out_is_sound(&g, &context);
    }
    let mut rng = SmallRng::seed_from_u64(0x0A17_0302);
    let g = erdos_renyi_connected(120, 0.05, 0.05..20.0, &mut rng);
    let er = assert_rules_out_is_sound(&g, "er n=120");
    assert!(er > 0 && ruled_out > 0, "the tables ruled nothing out");
}
