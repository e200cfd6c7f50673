//! Micro-benchmarks of the substrates every experiment leans on: Dijkstra
//! (legacy free functions vs the CSR-backed [`DijkstraEngine`]), Kruskal,
//! net-hierarchy construction and WSPD construction.
//!
//! The `bounded_query_*` pair is the load-bearing comparison: the greedy
//! spanner issues one bounded distance query per candidate edge whose
//! endpoints its spanner already connects, so the
//! legacy-vs-CSR gap here is the construction-time gap of every
//! engine-backed algorithm. The `greedy_admission` group compares the
//! one-sided bounded query with the bidirectional `within_bound` the greedy
//! constructions use, over whole greedy candidate streams. CI runs this
//! bench with a tiny sample count (`BENCH_SAMPLE_SIZE`) and archives the
//! JSON summary (`BENCH_JSON`) as the perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use greedy_spanner::Spanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_bench::workloads::{random_graph, uniform_square, DEFAULT_SEED};
use spanner_graph::dijkstra::{bounded_distance, shortest_path_tree};
use spanner_graph::generators::grid_graph;
use spanner_graph::mst::kruskal;
use spanner_graph::parallel::EnginePool;
use spanner_graph::{CsrGraph, DijkstraEngine, Landmarks, VertexId, WeightedGraph};
use spanner_metric::net::NetHierarchy;
use spanner_metric::wspd::{well_separated_pairs, SplitTree};

/// A deterministic batch of bounded queries spread over the graph.
fn query_batch(n: usize, count: usize) -> Vec<(VertexId, VertexId, f64)> {
    (0..count)
        .map(|i| {
            let s = (i * 7919) % n;
            let t = (i * 104729 + n / 2) % n;
            (VertexId(s), VertexId(t), 4.0 + (i % 5) as f64)
        })
        .collect()
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_micro");
    group.sample_size(20);

    let g = random_graph(500, DEFAULT_SEED);
    group.bench_function("dijkstra_sssp_n500", |b| {
        b.iter(|| shortest_path_tree(&g, VertexId(0)).distances().len())
    });
    group.bench_function("kruskal_mst_n500", |b| b.iter(|| kruskal(&g).total_weight));

    // Legacy vs CSR: the same bounded-query batch through the allocating
    // free function and through one reused engine.
    let big = random_graph(2000, DEFAULT_SEED);
    let csr = CsrGraph::from(&big);
    let queries = query_batch(big.num_vertices(), 64);
    group.bench_function("bounded_query_legacy_n2000", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|&&(s, t, bound)| bounded_distance(&big, s, t, bound).is_some())
                .count()
        })
    });
    let mut engine = DijkstraEngine::with_capacity(big.num_vertices());
    group.bench_function("bounded_query_csr_engine_n2000", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|&&(s, t, bound)| engine.bounded_distance(&csr, s, t, bound).is_some())
                .count()
        })
    });

    let points = uniform_square(300, DEFAULT_SEED);
    group.bench_function("net_hierarchy_n300", |b| {
        b.iter(|| NetHierarchy::build(&points).height())
    });
    group.bench_function("split_tree_wspd_n300", |b| {
        b.iter(|| {
            let tree = SplitTree::build(&points);
            well_separated_pairs(&tree, 4.0).len()
        })
    });
    group.finish();
}

/// The acceleration the serving layer leans on: the same bounded
/// point-query batch over the **er2000 greedy spanner** through two engine
/// configurations — the plain heap search and the goal-directed (A* over
/// ALT landmarks) search. Before timing anything, the settled-vertex
/// counts of the two are measured from engine stats (outside the timed
/// region) and the heap/ALT ratio is asserted `> 1.0` — the acceptance
/// gate for the goal-directed search. The `BENCH_JSON`
/// artifact carries the timed rows; the printed `point_query_settled` line
/// carries the ratio.
fn bench_point_query_engines(c: &mut Criterion) {
    let g = random_graph(2000, DEFAULT_SEED);
    let spanner = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch")
        .spanner;
    let csr = CsrGraph::from(&spanner);
    let landmarks = Landmarks::farthest_point(&csr, 4);
    let queries = query_batch(csr.num_vertices(), 256);
    let n = csr.num_vertices();

    let mut heap_engine = DijkstraEngine::with_capacity(n);
    let mut alt_engine = DijkstraEngine::with_capacity(n);

    let run_heap = |engine: &mut DijkstraEngine| {
        queries
            .iter()
            .filter(|&&(s, t, bound)| engine.bounded_distance(&csr, s, t, bound).is_some())
            .count()
    };
    let run_alt = |engine: &mut DijkstraEngine| {
        queries
            .iter()
            .filter(|&&(s, t, bound)| {
                engine
                    .bounded_distance_landmarked(&csr, &landmarks, s, t, bound)
                    .is_some()
            })
            .count()
    };

    // The acceptance gate, measured outside the timed region: the
    // configurations agree on every answer, and the goal-directed search
    // settles strictly fewer vertices than the plain heap on the same batch.
    let heap_hits = run_heap(&mut heap_engine);
    let alt_hits = run_alt(&mut alt_engine);
    assert_eq!(
        heap_hits, alt_hits,
        "the goal-directed search changed an answer"
    );
    let settled_heap = heap_engine.stats().settled_vertices;
    let settled_alt = alt_engine.stats().settled_vertices;
    let reduction = settled_heap as f64 / (settled_alt as f64).max(1.0);
    println!(
        "point_query_settled: heap {settled_heap} alt {settled_alt} \
         ({reduction:.2}x settled-vertex reduction, pruned {} by bound/landmarks)",
        alt_engine.stats().pruned_by_bound,
    );
    assert!(
        reduction > 1.0,
        "the goal-directed search must settle fewer vertices than the plain heap on the \
         er2000 bounded batch (measured {reduction:.2}x)"
    );

    let mut group = c.benchmark_group("point_query_engines");
    group.sample_size(20);
    group.bench_function("heap_n2000", |b| b.iter(|| run_heap(&mut heap_engine)));
    group.bench_function("alt_n2000", |b| b.iter(|| run_alt(&mut alt_engine)));
    group.finish();
}

/// One greedy construction replayed through one admission query: the input
/// edges in greedy order, each asked against the spanner grown so far and
/// appended when not covered within `t·w`. Returns the decision digest
/// (one bit per candidate, folded in order) and the engine that answered.
fn replay_admissions(graph: &WeightedGraph, t: f64, bidirectional: bool) -> (u64, DijkstraEngine) {
    let mut spanner = CsrGraph::new(graph.num_vertices());
    let mut engine = DijkstraEngine::with_capacity_for(graph.num_vertices(), graph.num_edges());
    let mut digest = 0x9E37_79B9_7F4A_7C15u64;
    for id in graph.edges_by_weight() {
        let e = graph.edge(id);
        let covered = if bidirectional {
            engine.within_bound(&spanner, e.u, e.v, t * e.weight)
        } else {
            engine
                .bounded_distance(&spanner, e.u, e.v, t * e.weight)
                .is_some()
        };
        digest = digest.rotate_left(1) ^ covered as u64;
        if !covered {
            spanner.append_edge(e.u, e.v, e.weight);
        }
    }
    (digest, engine)
}

/// The greedy admission query, one-sided vs bidirectional, over two whole
/// candidate streams: the er2000 greedy 2-spanner (expander-like — the
/// two half-radius balls are far smaller than one full-radius ball, the
/// scenario where the bidirectional query pays) and a 150×150 jittered grid
/// at `t = 3` (planar — a ball's size grows only quadratically in its
/// radius, the scenario where it does not). Before timing, both queries
/// must produce the same decision digest on each stream; the printed
/// `greedy_admission_settled` lines carry the settled-vertex ratio.
fn bench_greedy_admission(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(DEFAULT_SEED);
    let streams = [
        ("er2000_t2", random_graph(2000, DEFAULT_SEED), 2.0),
        ("grid150_t3", grid_graph(150, 150, 0.3, &mut rng), 3.0),
    ];
    let mut group = c.benchmark_group("greedy_admission");
    group.sample_size(10);
    for (name, graph, t) in &streams {
        let (one_sided, plain) = replay_admissions(graph, *t, false);
        let (bidirectional, bidi) = replay_admissions(graph, *t, true);
        assert_eq!(
            one_sided, bidirectional,
            "{name}: within_bound changed a greedy admission decision"
        );
        let (settled_plain, settled_bidi) = (
            plain.stats().settled_vertices,
            bidi.stats().settled_vertices,
        );
        println!(
            "greedy_admission_settled/{name}: one-sided {settled_plain} bidirectional \
             {settled_bidi} ({:.2}x fewer settled, {} fallbacks)",
            settled_plain as f64 / (settled_bidi as f64).max(1.0),
            bidi.stats().bidirectional_fallbacks,
        );
        group.bench_function(format!("{name}_one_sided"), |b| {
            b.iter(|| replay_admissions(graph, *t, false).0)
        });
        group.bench_function(format!("{name}_bidirectional"), |b| {
            b.iter(|| replay_admissions(graph, *t, true).0)
        });
    }
    group.finish();
}

/// The pool fan-out in isolation: one fixed batch of bounded queries mapped
/// across an [`EnginePool`] snapshot at 1/2/4/8 workers. This is the pure
/// substrate half of the `parallel_scaling` story — no greedy commit phase,
/// so it measures the ceiling the construction-level bench can reach.
fn bench_parallel_scaling(c: &mut Criterion) {
    let big = random_graph(2000, DEFAULT_SEED);
    let csr = CsrGraph::from(&big);
    let queries = query_batch(big.num_vertices(), 512);
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(20);
    for threads in [1usize, 2, 4, 8] {
        let mut pool = EnginePool::with_capacity_for(threads, big.num_vertices(), big.num_edges());
        let mut out = vec![false; queries.len()];
        group.bench_function(BenchmarkId::new("pool_filter_batch_n2000", threads), |b| {
            b.iter(|| {
                pool.map_batch(
                    csr.snapshot(),
                    &queries,
                    &mut out,
                    |engine, graph, &(s, t, bound)| {
                        engine.bounded_distance(graph, s, t, bound).is_some()
                    },
                );
                out.iter().filter(|&&covered| covered).count()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_point_query_engines,
    bench_greedy_admission,
    bench_parallel_scaling
);
criterion_main!(benches);
