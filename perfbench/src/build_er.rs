//! `build-er2000`: the paper's canonical instance. Seeded Erdős–Rényi graphs
//! (n = 2000, mean degree ≈ 12, weights in [1, 10)) built as greedy
//! 2-spanners on one thread, each frozen and served a short in-cache query
//! stream. Construction does almost all the work.

use greedy_spanner::analysis::lightness;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{RunStats, Spanner};
use spanner_bench::workloads::random_graph;
use spanner_graph::WeightedGraph;

use crate::{batch_seed, check, check_answers, ratio, serve_batch, Budget, Ctx, Measured, BATCH};

const N: usize = 2000;
const STRETCH: f64 = 2.0;
/// Set-up builds and freezes a smaller graph of the same family this many
/// times (code and allocator warm-up); the median is `setup_s`.
const WARMUP_N: usize = 500;
const SETUP_REPS: u64 = 9;
/// Graphs per run, with seeds `seed`, `seed + 1`, …; builds cycle through
/// them, so each graph is checked against the reference once and rebuilt
/// while the time budget lasts.
const GRAPHS: usize = 3;
const MIN_BUILDS: usize = 6;
/// Query batches served from each frozen spanner.
const BATCHES_PER_BUILD: u64 = 16;
/// Distance bound of the bounded-distance queries.
const BOUND: f64 = 6.0;

pub fn run(ctx: &mut Ctx) -> Measured {
    let mut m = Measured::default();
    let builder = Spanner::greedy().stretch(STRETCH).threads(1);

    for rep in 0..SETUP_REPS {
        let warm = random_graph(WARMUP_N, ctx.seed ^ (0xA11CE + rep));
        let open = ctx.tracer.begin("bench", "setup", rep);
        let (out, _) = ctx
            .tracer
            .span("greedy", "warmup_build", rep, || builder.build(&warm));
        ctx.report.attempted += 1;
        match out {
            Ok(out) => {
                let (server, _) = ctx.tracer.span("serve", "warmup_freeze", rep, || {
                    out.serve().threads(1).finish()
                });
                drop(server);
            }
            Err(e) => ctx.report.fail(format!("warm-up build: {e}")),
        }
        m.setup_s.push(ctx.tracer.end(open).as_secs_f64());
    }

    // Inputs, generated before anything is timed.
    let graphs: Vec<WeightedGraph> = (0..GRAPHS)
        .map(|k| random_graph(N, ctx.seed.wrapping_add(k as u64)))
        .collect();
    // Per graph, once checked: the reference spanner and the build's
    // counters, which every later build of that graph must repeat exactly.
    let mut checked: Vec<Option<(WeightedGraph, Vec<u64>)>> = vec![None; GRAPHS];

    let mut freeze_ms = Vec::new();
    let (mut examined, mut added, mut queries_issued) = (0usize, 0usize, 0usize);
    let mut settled = 0u64;
    let mut budget = Budget::new(ctx.seconds, MIN_BUILDS);
    let mut i = 0usize;
    while budget.another() {
        let k = i % GRAPHS;
        let g = &graphs[k];
        let root = ctx.tracer.begin("bench", "graph", i as u64);
        let (out, took) = ctx
            .tracer
            .span("greedy", "build", i as u64, || builder.build(g));
        ctx.report.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                ctx.report.fail(format!("build {i} (graph {k}): {e}"));
                ctx.tracer.end(root);
                i += 1;
                continue;
            }
        };
        m.build_s.push(took.as_secs_f64());
        m.op_ms.push(took.as_secs_f64() * 1e3);
        m.op_units += out.stats.edges_examined as f64;
        examined += out.stats.edges_examined;
        added += out.stats.edges_added;
        queries_issued += out.stats.distance_queries;
        if i == 0 {
            m.spanner_edges = out.spanner.num_edges();
            m.lightness = lightness(g, &out.spanner);
            let s = &out.stats;
            let r = &mut ctx.report;
            r.count("greedy.edges_examined", s.edges_examined as u64);
            r.count("greedy.edges_added", s.edges_added as u64);
            r.count("greedy.distance_queries", s.distance_queries as u64);
            r.count("greedy.workspace_reuse_hits", s.workspace_reuse_hits as u64);
            r.count("greedy.peak_frontier", s.peak_frontier as u64);
            r.count("greedy.kernel_rows_batched", s.kernel.rows_batched);
            r.count("greedy.kernel_edges_gathered", s.kernel.edges_gathered);
            r.count(
                "greedy.kernel_candidates_committed",
                s.kernel.candidates_committed,
            );
            m.layers.greedy_distance_queries = s.distance_queries as f64;
            m.layers.engine_kernel_rows_batched = s.kernel.rows_batched as f64;
            m.layers.engine_edges_gathered = s.kernel.edges_gathered as f64;
        }
        let counts = run_counts(&out.stats);
        let verdict = match &checked[k] {
            // First build of this graph: the reference loop and the stretch
            // certificate.
            None => {
                let (verdict, _) = ctx.tracer.span("check", "greedy_reference", i as u64, || {
                    check::greedy_build(g, &out, STRETCH)
                });
                if verdict.is_ok() {
                    checked[k] = Some((out.spanner.clone(), counts));
                }
                verdict
            }
            // Rebuilds: the same spanner as the checked build, and the same
            // counters.
            Some((reference, _)) if out.spanner != *reference => {
                Err("rebuild differs from the checked build".to_owned())
            }
            Some((_, first)) if *first != counts => Err(format!(
                "rebuild counters {counts:?} drifted from the first build's {first:?}"
            )),
            Some(_) => Ok(()),
        };
        ctx.report
            .check(verdict.map_err(|e| format!("build {i} (graph {k}): {e}")));
        let spanner = out.spanner.clone();

        let (mut server, took) = ctx.tracer.span("serve", "freeze", i as u64, || {
            out.serve().threads(1).finish()
        });
        freeze_ms.push(took.as_secs_f64() * 1e3);
        for b in 0..BATCHES_PER_BUILD {
            let id = i as u64 * BATCHES_PER_BUILD + b;
            let queries = QueryWorkload::mixed(N, false)
                .expect("n >= 2")
                .queries(BATCH)
                .bound(BOUND)
                .seed(batch_seed(ctx.seed, id))
                .generate();
            let Some(answers) = serve_batch(ctx, &mut server, &queries, id, &mut m) else {
                continue;
            };
            if b == 0 {
                check_answers(ctx, &spanner, &queries, &answers, id);
            }
        }
        let stats = server.stats();
        let engine = server.engine_stats();
        settled += engine.settled_vertices;
        if i == 0 {
            let r = &mut ctx.report;
            r.count("serve.queries", stats.queries);
            r.count("serve.cache_hits", stats.cache_hits);
            r.count("serve.cache_misses", stats.cache_misses);
            r.count("serve.cache_insertions", stats.cache_insertions);
            r.count("serve.cache_evictions", stats.cache_evictions);
            r.count("engine.settled", engine.settled_vertices);
            r.count("engine.pruned_by_bound", engine.pruned_by_bound);
            r.count("engine.heap_pops", engine.heap_pops);
            r.count("engine.kernel_rows_batched", engine.kernel.rows_batched);
            r.count("engine.kernel_edges_gathered", engine.kernel.edges_gathered);
            let l = &mut m.layers;
            l.serve_cache_hit_rate = stats.cache_hit_rate().unwrap_or(0.0);
            l.serve_cache_evictions = stats.cache_evictions as f64;
            l.serve_stale_evictions = stats.stale_evictions as f64;
            l.serve_settled_per_query = ratio(engine.settled_vertices as f64, stats.queries as f64);
            l.engine_settled = engine.settled_vertices as f64;
            l.engine_pruned_by_bound = engine.pruned_by_bound as f64;
            l.serve_worker_utilization = server.worker_utilization();
            l.engine_kernel_rows_batched += engine.kernel.rows_batched as f64;
            l.engine_edges_gathered += engine.kernel.edges_gathered as f64;
        }
        ctx.tracer.end(root);
        i += 1;
    }

    let l = &mut m.layers;
    l.greedy_ns_per_query = ratio(m.build_s.iter().sum::<f64>() * 1e9, queries_issued as f64);
    l.greedy_admit_ratio = ratio(added as f64, examined as f64);
    l.engine_ns_per_settled = ratio(m.serve_ms.iter().sum::<f64>() * 1e6, settled as f64);
    l.serve_freeze_ms = crate::median(&freeze_ms);
    let each: Vec<String> = m.build_s.iter().map(|s| format!("{s:.3}")).collect();
    m.notes.push(format!(
        "builds {} [{}] s, {} input edges examined per build",
        m.build_s.len(),
        each.join(" "),
        examined / m.build_s.len().max(1)
    ));
    m
}

/// The counters of one build (wall time and utilization left out).
fn run_counts(s: &RunStats) -> Vec<u64> {
    vec![
        s.edges_examined as u64,
        s.edges_added as u64,
        s.peak_frontier as u64,
        s.distance_queries as u64,
        s.workspace_reuse_hits as u64,
        s.batches as u64,
        s.batch_recheck_hits as u64,
        s.kernel.rows_batched,
        s.kernel.edges_gathered,
        s.kernel.candidates_committed,
    ]
}
