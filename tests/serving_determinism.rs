//! Property suite for the serving layer's determinism guarantee: batched
//! [`SpannerServer`] answers must be **bit-identical** to the one-shot
//! `dijkstra` free functions on the same spanner, across thread counts
//! {1, 2, 8} and across cache states (disabled / small / large, cold and
//! warm) — a cache hit may never change a result. Adversarial graphs
//! (extreme magnitudes, rounding ties, disconnected, two vertices) run the
//! same contract on frozen servers with and without landmarks and on live
//! servers, after a narrow batch has cached small prefix trees.

mod common;

use std::collections::HashMap;

use common::{adversarial_graph, ADVERSARIAL_FAMILIES};
use greedy_spanner::serve::{
    Answer, PathAnswer, Query, SpannerServer, StretchSample, DEFAULT_LANDMARK_COUNT,
};
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::Spanner;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::dijkstra;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::{CsrGraph, Landmarks, VertexId, WeightedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CACHE_CAPACITIES: [usize; 3] = [0, 2, 64];

/// Answers one query with the allocation-per-call `dijkstra` free functions
/// — the reference implementation the engine substrate is property-tested
/// against, and therefore the ground truth for the server.
fn free_function_answer(
    spanner: &WeightedGraph,
    original: &WeightedGraph,
    query: &Query,
) -> Answer {
    match *query {
        Query::Distance {
            source,
            target,
            bound,
        } => Answer::Distance(dijkstra::bounded_distance(spanner, source, target, bound)),
        Query::Path { source, target } => {
            let tree = dijkstra::shortest_path_tree(spanner, source);
            Answer::Path(tree.distance(target).map(|distance| PathAnswer {
                distance,
                vertices: tree.path_to(target).expect("reachable"),
            }))
        }
        Query::KNearest { source, k } => {
            let tree = dijkstra::shortest_path_tree(spanner, source);
            let mut members: Vec<(VertexId, f64)> = (0..spanner.num_vertices())
                .filter_map(|v| tree.distance(VertexId(v)).map(|d| (VertexId(v), d)))
                .collect();
            members.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            members.truncate(k);
            Answer::KNearest(members)
        }
        Query::Ball { source, radius } => Answer::Ball(dijkstra::ball(spanner, source, radius)),
        Query::StretchAudit { source, target } => {
            let sample = dijkstra::bounded_distance(spanner, source, target, f64::INFINITY)
                .and_then(|spanner_distance| {
                    let graph_distance =
                        dijkstra::bounded_distance(original, source, target, f64::INFINITY)?;
                    Some(StretchSample {
                        spanner_distance,
                        graph_distance,
                        stretch: if graph_distance > 0.0 {
                            spanner_distance / graph_distance
                        } else {
                            1.0
                        },
                    })
                });
            Answer::StretchAudit(sample)
        }
    }
}

fn assert_server_matches_reference(g: &WeightedGraph, stretch: f64, workload_seed: u64) {
    let n = g.num_vertices();
    let output = Spanner::greedy().stretch(stretch).build(g).expect("valid");
    let spanner = output.spanner.clone();
    let queries = QueryWorkload::mixed(n, true)
        .expect("valid workload")
        .queries(120)
        .seed(workload_seed)
        .bound(3.0 * stretch)
        .generate();
    let reference: Vec<Answer> = queries
        .iter()
        .map(|q| free_function_answer(&spanner, g, q))
        .collect();
    for threads in THREAD_COUNTS {
        for cache in CACHE_CAPACITIES {
            let mut server = output
                .clone()
                .serve()
                .threads(threads)
                .cache_capacity(cache)
                .audit_against(g)
                .finish();
            // Cold batch, then a warm repeat: the second round answers the
            // hot sources from cached trees and must change nothing.
            let cold = server.answer_batch(&queries).expect("valid batch");
            let warm = server.answer_batch(&queries).expect("valid batch");
            assert_eq!(
                cold, reference,
                "cold, threads={threads} cache={cache} n={n} t={stretch}"
            );
            assert_eq!(
                warm, reference,
                "warm, threads={threads} cache={cache} n={n} t={stretch}"
            );
            if cache > 0 {
                assert!(
                    server.stats().cache_hits > 0,
                    "threads={threads} cache={cache}: the warm round must hit"
                );
            } else {
                assert_eq!(server.stats().cache_hits, 0);
            }
            let engine = server.engine_stats();
            assert_eq!(
                engine.reuse_hits, engine.queries,
                "threads={threads} cache={cache}: a serving engine allocated"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random ER graphs, random stretch, mixed workloads: the server is a
    /// bit-exact distance oracle at every thread count and cache state.
    #[test]
    fn server_answers_match_free_functions(
        seed in 0u64..10_000,
        n in 8usize..45,
        stretch in 1.0f64..5.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.35, 1.0..10.0, &mut rng);
        assert_server_matches_reference(&g, stretch, seed ^ 0xD15C0);
    }

    /// Uniform and Zipf point-to-point workloads (the bench shapes) under
    /// the same contract.
    #[test]
    fn point_to_point_workloads_match_across_cache_states(
        seed in 0u64..10_000,
        n in 10usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, 1.0..6.0, &mut rng);
        let output = Spanner::greedy().stretch(2.0).build(&g).expect("valid");
        let spanner = output.spanner.clone();
        for workload in [
            QueryWorkload::uniform(n).expect("valid").queries(80).seed(seed).bound(12.0),
            QueryWorkload::zipf(n, 1.2).expect("valid").queries(80).seed(seed).bound(12.0),
        ] {
            let queries = workload.generate();
            let reference: Vec<Answer> = queries
                .iter()
                .map(|q| free_function_answer(&spanner, &g, q))
                .collect();
            for cache in CACHE_CAPACITIES {
                let mut server = output
                    .clone()
                    .serve()
                    .threads(2)
                    .cache_capacity(cache)
                    .finish();
                prop_assert_eq!(&server.answer_batch(&queries).expect("valid"), &reference);
                prop_assert_eq!(&server.answer_batch(&queries).expect("valid"), &reference);
            }
        }
    }

    /// Tie-breaking determinism of `k_nearest`: on unit-weight graphs many
    /// vertices share a distance, and the contract is that equal distances
    /// order by vertex id — identically on the engine path (cold, a ball
    /// settle order) and the cached-tree path (warm, a sorted prefix), at
    /// every thread count.
    #[test]
    fn k_nearest_breaks_distance_ties_by_vertex_id_everywhere(
        seed in 0u64..10_000,
        n in 8usize..30,
        k in 1usize..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Unit weights force distance ties at every hop count.
        let g = erdos_renyi_connected(n, 0.35, 1.0..1.0000001, &mut rng);
        let output = Spanner::greedy().stretch(2.0).build(&g).expect("valid");
        // Two k-nearest queries per source so the cache admits the tree:
        // the warm round answers from the sorted prefix, the cold round
        // from the engine's settle order. Both must produce the same
        // (distance, vertex)-ordered list.
        let queries: Vec<Query> = (0..n)
            .flat_map(|s| [Query::k_nearest(VertexId(s), k); 2])
            .collect();
        let mut reference: Option<Vec<Answer>> = None;
        for threads in THREAD_COUNTS {
            for cache in CACHE_CAPACITIES {
                let mut server = output
                    .clone()
                    .serve()
                    .threads(threads)
                    .cache_capacity(cache)
                    .finish();
                let cold = server.answer_batch(&queries).expect("valid");
                let warm = server.answer_batch(&queries).expect("valid");
                prop_assert_eq!(&cold, &warm, "threads {} cache {}", threads, cache);
                for answer in &cold {
                    let Answer::KNearest(members) = answer else {
                        panic!("k-nearest batch");
                    };
                    // Sorted by (distance, vertex): ties strictly increase
                    // by vertex id.
                    for w in members.windows(2) {
                        let ((v0, d0), (v1, d1)) = (w[0], w[1]);
                        prop_assert!(
                            d0 < d1 || (d0 == d1 && v0 < v1),
                            "tie broken wrong: ({v0:?}, {d0}) before ({v1:?}, {d1}) \
                             [threads {}, cache {}]",
                            threads,
                            cache
                        );
                    }
                }
                match &reference {
                    None => reference = Some(cold),
                    Some(r) => prop_assert_eq!(&cold, r, "threads {} cache {}", threads, cache),
                }
            }
        }
    }
}

/// The rounding-tie chain 0 -1e17- 5 -1- 3 -1e17- 1 -1e17- 2 -1e17- 4: as
/// `fl(1e17 + 1) = 1e17`, vertex 3 settles after vertex 5 at the same
/// distance from 0. A cold answer (an engine search) and a warm one (the
/// cached tree) must both order that tie by vertex id — on a frozen server
/// with and without landmarks and on a live one.
#[test]
fn rounding_ties_answer_alike_cold_and_warm() {
    let g = WeightedGraph::from_edges(
        6,
        [
            (0, 5, 1e17),
            (5, 3, 1.0),
            (3, 1, 1e17),
            (1, 2, 1e17),
            (2, 4, 1e17),
        ],
    )
    .expect("valid graph");
    let output = Spanner::greedy().stretch(2.0).build(&g).expect("valid");
    let k_nearest = Query::k_nearest(VertexId(0), 2);
    let ball = Query::ball(VertexId(0), 1e17);
    let nearest = vec![(VertexId(0), 0.0), (VertexId(3), 1e17)];
    let within = vec![(VertexId(0), 0.0), (VertexId(3), 1e17), (VertexId(5), 1e17)];
    let servers = [
        ("frozen", output.clone().serve().finish()),
        ("plain", output.clone().serve().landmarks(0).finish()),
        (
            "live",
            output
                .live(&g)
                .expect("greedy is a spanner")
                .serve()
                .finish(),
        ),
    ];
    for (layout, mut server) in servers {
        // One query per batch stays below the admission threshold: cold.
        let cold_k = server.answer_batch(&[k_nearest]).expect("valid");
        let cold_ball = server.answer_batch(&[ball]).expect("valid");
        assert_eq!(server.stats().cache_hits, 0, "{layout}");
        // Two queries for source 0 admit its tree: warm.
        let warm = server.answer_batch(&[k_nearest, ball]).expect("valid");
        assert_eq!(server.stats().cache_hits, 2, "{layout}");
        assert_eq!(
            cold_k,
            vec![Answer::KNearest(nearest.clone())],
            "{layout} cold"
        );
        assert_eq!(
            cold_ball,
            vec![Answer::Ball(within.clone())],
            "{layout} cold"
        );
        assert_eq!(
            warm,
            vec![
                Answer::KNearest(nearest.clone()),
                Answer::Ball(within.clone())
            ],
            "{layout} warm"
        );
    }
}

/// A query mix that probes every answer boundary of every source: k of 0,
/// 1, 2, half the graph and beyond the graph; balls of radius 0, `∞` and
/// exactly a reached distance; bounded distances at exactly the distance;
/// paths and audits to reachable and unreachable targets.
fn boundary_queries(spanner: &WeightedGraph) -> Vec<Query> {
    let n = spanner.num_vertices();
    let mut queries = Vec::new();
    for s in (0..n).map(VertexId) {
        let tree = dijkstra::shortest_path_tree(spanner, s);
        let targets = [VertexId((s.index() + 1) % n), VertexId(n - 1 - s.index())];
        for k in [0, 1, 2, n / 2, n + 1] {
            queries.push(Query::k_nearest(s, k));
        }
        queries.push(Query::ball(s, 0.0));
        queries.push(Query::ball(s, f64::INFINITY));
        for t in targets {
            if let Some(d) = tree.distance(t) {
                queries.push(Query::ball(s, d));
                queries.push(Query::distance(s, t, d));
            }
            queries.push(Query::distance(s, t, f64::INFINITY));
            queries.push(Query::path(s, t));
            queries.push(Query::stretch_audit(s, t));
        }
    }
    queries
}

/// A narrow batch that admits small prefixes: per source its nearest
/// vertex, its zero-radius ball and a distance bounded at half the
/// target's distance — three queries, past the admission threshold.
fn narrow_queries(spanner: &WeightedGraph) -> Vec<Query> {
    let n = spanner.num_vertices();
    (0..n)
        .map(VertexId)
        .flat_map(|s| {
            let t = VertexId(n - 1 - s.index());
            let half =
                dijkstra::bounded_distance(spanner, s, t, f64::INFINITY).map_or(1.0, |d| d / 2.0);
            [
                Query::k_nearest(s, 1),
                Query::ball(s, 0.0),
                Query::distance(s, t, half),
            ]
        })
        .collect()
}

/// `path` runs from its first to its last vertex along spanner edges, and
/// its left-to-right weight sum — the order every search adds in — is
/// exactly its reported distance.
fn assert_is_shortest_path(spanner: &WeightedGraph, path: &PathAnswer, context: &str) {
    let mut sum = 0.0;
    for hop in path.vertices.windows(2) {
        let w = spanner
            .neighbors(hop[0])
            .iter()
            .filter(|&&(v, _)| v == hop[1])
            .map(|&(_, e)| spanner.edge(e).weight)
            .min_by(f64::total_cmp)
            .unwrap_or_else(|| panic!("{context}: {hop:?} is not a spanner edge"));
        sum += w;
    }
    assert_eq!(sum, path.distance, "{context}: {path:?}");
}

/// `queries` with their expected answers, dealt into batches that hold at
/// most one query per source: below the admission threshold, so every
/// query is answered from what its source's cached prefix covers, or
/// searched.
fn one_query_per_source(queries: &[Query], reference: &[Answer]) -> Vec<(Vec<Query>, Vec<Answer>)> {
    let mut rounds: Vec<(Vec<Query>, Vec<Answer>)> = Vec::new();
    let mut dealt: HashMap<VertexId, usize> = HashMap::new();
    for (query, answer) in queries.iter().zip(reference) {
        let round = dealt.entry(query.source()).or_insert(0);
        if *round == rounds.len() {
            rounds.push((Vec::new(), Vec::new()));
        }
        rounds[*round].0.push(*query);
        rounds[*round].1.push(answer.clone());
        *round += 1;
    }
    rounds
}

/// Every answer equals the reference's — paths vertex for vertex — and
/// every returned path is a spanner path whose left-to-right sum is its
/// distance.
fn assert_answers_match(
    spanner: &WeightedGraph,
    queries: &[Query],
    answers: &[Answer],
    reference: &[Answer],
    at: &str,
) {
    for ((query, answer), expected) in queries.iter().zip(answers).zip(reference) {
        assert_eq!(answer, expected, "{at}: {query:?}");
        if let Answer::Path(Some(path)) = answer {
            assert_is_shortest_path(spanner, path, at);
        }
    }
}

/// Every server kind × cache capacity × thread count answers the
/// boundary queries like the free functions. A narrow batch first caches
/// small prefix trees, which must answer exactly what they cover: every
/// narrow query whose target its source's need keeps from that source's
/// prefix, then the boundary queries
/// one per source per batch (no re-admission) — a covered one from the
/// prefix, an uncovered one by a search, never from the prefix (that
/// answer would differ from the reference). Then the whole boundary batch
/// runs cold and warm.
fn assert_layouts_match_reference(g: &WeightedGraph, context: &str) {
    let output = Spanner::greedy().stretch(2.0).build(g).expect("valid");
    let spanner = &output.spanner;
    let n = g.num_vertices();
    let reference_of = |queries: &[Query]| -> Vec<Answer> {
        queries
            .iter()
            .map(|q| free_function_answer(spanner, g, q))
            .collect()
    };
    let narrow = narrow_queries(spanner);
    let narrow_reference = reference_of(&narrow);
    // The narrow distance queries a landmark table rules out: their targets
    // stay out of the need, so the prefix (through distance 0, its k = 1 and
    // radius-0 need) misses them unless the source is isolated (then the
    // search runs dry and the prefix covers everything). Every server with
    // landmarks picks the same table: farthest-point selection reads only
    // degrees, distances and ids.
    let landmarks = Landmarks::farthest_point(&CsrGraph::from(spanner), DEFAULT_LANDMARK_COUNT);
    let ruled_out_misses = narrow
        .iter()
        .filter(|query| match **query {
            Query::Distance {
                source,
                target,
                bound,
            } => {
                landmarks.rules_out(source, target, bound) && !spanner.neighbors(source).is_empty()
            }
            _ => false,
        })
        .count() as u64;
    let queries = boundary_queries(spanner);
    let reference = reference_of(&queries);
    let rounds = one_query_per_source(&queries, &reference);
    for threads in THREAD_COUNTS {
        for cache in CACHE_CAPACITIES {
            let configure = |builder: greedy_spanner::serve::ServeBuilder| {
                builder.threads(threads).cache_capacity(cache)
            };
            // Each server with the misses its landmarks cause.
            let servers: [(&str, SpannerServer, u64); 3] = [
                (
                    "frozen",
                    configure(output.clone().serve().audit_against(g)).finish(),
                    ruled_out_misses,
                ),
                (
                    "plain",
                    configure(output.clone().serve().landmarks(0).audit_against(g)).finish(),
                    0,
                ),
                (
                    "live",
                    configure(output.clone().live(g).expect("greedy is a spanner").serve())
                        .finish(),
                    ruled_out_misses,
                ),
            ];
            for (layout, mut server, ruled_out) in servers {
                let at = format!("{context} {layout}, threads={threads} cache={cache}");
                let narrowed = server.answer_batch(&narrow).expect("valid batch");
                assert_eq!(narrowed, narrow_reference, "{at}: narrow batch");
                let hits = server.stats().cache_hits;
                for (round, expected) in &rounds {
                    let answers = server.answer_batch(round).expect("valid batch");
                    assert_answers_match(spanner, round, &answers, expected, &at);
                }
                if cache >= n {
                    assert_eq!(
                        hits,
                        narrow.len() as u64 - ruled_out,
                        "{at}: a prefix must cover its batch"
                    );
                    // Each source's k = 0, k = 1 and radius-0 boundary
                    // queries lie inside its narrow prefix.
                    assert!(
                        server.stats().cache_hits - hits >= 3 * n as u64,
                        "{at}: covered queries must hit"
                    );
                }
                let cold = server.answer_batch(&queries).expect("valid batch");
                let warm = server.answer_batch(&queries).expect("valid batch");
                assert_eq!(cold, warm, "{at}: a cache hit changed an answer");
                assert_answers_match(spanner, &queries, &cold, &reference, &at);
                assert_eq!(server.stats().cache_hits > 0, cache > 0, "{at}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Extreme magnitudes, rounding ties, disconnected graphs and n = 2:
    /// frozen (with and without landmarks) and live servers stay bit-exact distance
    /// oracles at every cache state and thread count.
    #[test]
    fn adversarial_graphs_match_free_functions_on_every_layout(
        seed in 0u64..10_000,
        family in 0..ADVERSARIAL_FAMILIES,
        n in 3usize..16,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = adversarial_graph(family, n, &mut rng);
        assert_layouts_match_reference(&g, &format!("family={family} n={} seed={seed}", g.num_vertices()));
    }
}
