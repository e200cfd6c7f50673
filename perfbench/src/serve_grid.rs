//! `serve-grid`: a 300×300 jittered grid (n = 90,000), built sharded as a
//! greedy 3-spanner and served from one plain server with two workers and a
//! 256-tree cache. One closed-loop caller sends batches of 64 mixed queries
//! (Zipf sources). The serving layer does almost all the work, on a working
//! set larger than L2.
//!
//! The run is a series of epochs: set up (build + freeze, twice, keeping the
//! second server), then serve the same seeded batch sequence from a cold
//! cache. Set-ups are thereby sampled across the whole run, and every
//! deterministic counter must repeat exactly from epoch to epoch.

use std::time::Instant;

use greedy_spanner::analysis::lightness;
use greedy_spanner::shard::SKELETON_SLACK;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{Answer, Query, ShardedSpanner, SpannerServer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::grid_graph;
use spanner_graph::WeightedGraph;

use crate::{batch_seed, check_answers, median, ratio, serve_batch, Budget, Ctx, Measured, BATCH};

const ROWS: usize = 300;
const COLS: usize = 300;
const JITTER: f64 = 0.3;
const STRETCH: f64 = 3.0;
const SHARDS: usize = 4;
const SERVE_THREADS: usize = 2;
const CACHE: usize = 256;
/// Distance bound of the bounded-distance queries.
const BOUND: f64 = 30.0;
/// Set-ups per epoch; the last one's server is served.
const SETUP_REPS: u64 = 2;
/// Batches per epoch, and epochs per run at least.
const EPOCH_BATCHES: usize = 48;
const MIN_EPOCHS: usize = 2;

pub fn run(ctx: &mut Ctx) -> Measured {
    let mut m = Measured::default();
    let grid = grid_graph(ROWS, COLS, JITTER, &mut SmallRng::seed_from_u64(ctx.seed));
    let n = grid.num_vertices();
    let batches: Vec<Vec<Query>> = (0..EPOCH_BATCHES as u64)
        .map(|b| {
            QueryWorkload::mixed(n, false)
                .expect("n >= 2")
                .queries(BATCH)
                .bound(BOUND)
                .seed(batch_seed(ctx.seed, b))
                .generate()
        })
        .collect();

    let mut samples = Samples::default();
    let mut first_epoch: Option<(Vec<u64>, Vec<Answer>)> = None;
    let mut spanner: Option<WeightedGraph> = None;
    let mut cached_trees = 0;
    let mut budget = Budget::new(ctx.seconds, MIN_EPOCHS);
    let mut epoch = 0usize;
    while budget.another() {
        let e = epoch as u64;
        let root = ctx.tracer.begin("bench", "epoch", e);
        let mut served = None;
        for rep in 0..SETUP_REPS {
            drop(served.take());
            match set_up_once(ctx, &mut m, &mut samples, &grid, e * SETUP_REPS + rep) {
                Ok((server, built)) => {
                    served = Some(server);
                    if built.is_some() {
                        spanner = built;
                    }
                }
                Err(err) => ctx.report.fail(format!("epoch {epoch} set-up: {err}")),
            }
        }
        let Some(mut server) = served else {
            ctx.tracer.end(root);
            epoch += 1;
            continue;
        };

        let mut first_answers = None;
        for (b, queries) in batches.iter().enumerate() {
            let id = e * EPOCH_BATCHES as u64 + b as u64;
            let Some(answers) = serve_batch(ctx, &mut server, queries, id, &mut m) else {
                continue;
            };
            m.op_ms.push(m.serve_ms.last().copied().unwrap_or(0.0));
            m.op_units += queries.len() as f64;
            if b == 0 {
                first_answers = Some(answers);
            }
        }
        let stats = server.stats();
        let engine = server.engine_stats();
        let counts = vec![
            stats.queries,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_insertions,
            stats.cache_evictions,
            engine.settled_vertices,
            engine.pruned_by_bound,
            engine.heap_pops,
            engine.kernel.rows_batched,
            engine.kernel.edges_gathered,
        ];
        samples.settled += engine.settled_vertices;
        cached_trees = server.cached_trees();
        let first_answers = first_answers.unwrap_or_default();
        match &first_epoch {
            None => {
                let names = [
                    "serve.queries",
                    "serve.cache_hits",
                    "serve.cache_misses",
                    "serve.cache_insertions",
                    "serve.cache_evictions",
                    "engine.settled",
                    "engine.pruned_by_bound",
                    "engine.heap_pops",
                    "engine.kernel_rows_batched",
                    "engine.kernel_edges_gathered",
                ];
                for (name, &value) in names.iter().zip(&counts) {
                    ctx.report.count(name, value);
                }
                let l = &mut m.layers;
                l.serve_cache_hit_rate = stats.cache_hit_rate().unwrap_or(0.0);
                l.serve_cache_evictions = stats.cache_evictions as f64;
                l.serve_stale_evictions = stats.stale_evictions as f64;
                l.serve_settled_per_query =
                    ratio(engine.settled_vertices as f64, stats.queries as f64);
                l.serve_worker_utilization = server.worker_utilization();
                l.engine_settled = engine.settled_vertices as f64;
                l.engine_pruned_by_bound = engine.pruned_by_bound as f64;
                l.engine_kernel_rows_batched += engine.kernel.rows_batched as f64;
                l.engine_edges_gathered += engine.kernel.edges_gathered as f64;
                if let Some(spanner) = &spanner {
                    check_answers(ctx, spanner, &batches[0], &first_answers, e);
                }
                first_epoch = Some((counts, first_answers));
            }
            Some((first_counts, first)) => {
                if *first_counts != counts {
                    ctx.report.fail(format!(
                        "epoch {epoch} serve counters {counts:?} drifted from epoch 0's {first_counts:?}"
                    ));
                }
                if *first != first_answers {
                    ctx.report.fail(format!(
                        "epoch {epoch} answered the first batch differently"
                    ));
                }
            }
        }
        ctx.tracer.end(root);
        epoch += 1;
    }

    let l = &mut m.layers;
    let serve_ns = m.serve_ms.iter().sum::<f64>() * 1e6;
    l.engine_ns_per_settled = ratio(serve_ns, samples.settled as f64);
    l.shard_build_s = median(&m.build_s);
    l.shard_stitch_ms = median(&samples.stitch_ms);
    l.serve_freeze_ms = median(&samples.freeze_ms);
    let each: Vec<String> = m.build_s.iter().map(|s| format!("{s:.3}")).collect();
    m.notes
        .push(format!("sharded builds [{}] s", each.join(" ")));
    m.notes.push(format!(
        "grid n={n}, spanner {} edges, {epoch} epochs of {EPOCH_BATCHES} batches, {cached_trees} cached trees at the end",
        m.spanner_edges
    ));
    m
}

/// Wall-clock samples collected across epochs.
#[derive(Default)]
struct Samples {
    freeze_ms: Vec<f64>,
    stitch_ms: Vec<f64>,
    settled: u64,
}

/// One set-up: the sharded build (with its certificate checked) and the
/// freeze. Returns the server and, from the first set-up, the spanner in
/// external ids for the answer check.
fn set_up_once(
    ctx: &mut Ctx,
    m: &mut Measured,
    samples: &mut Samples,
    grid: &WeightedGraph,
    rep: u64,
) -> Result<(SpannerServer, Option<WeightedGraph>), String> {
    let open = ctx.tracer.begin("bench", "setup", rep);
    let (sharded, took) = ctx.tracer.span("shard", "build", rep, || {
        ShardedSpanner::greedy()
            .stretch(STRETCH)
            .shards(SHARDS)
            .threads(1)
            .build(grid)
    });
    ctx.report.attempted += 1;
    let sharded = match sharded {
        Ok(sharded) => sharded,
        Err(e) => {
            ctx.tracer.end(open);
            return Err(format!("sharded build: {e}"));
        }
    };
    m.build_s.push(took.as_secs_f64());
    samples
        .stitch_ms
        .push(sharded.stitch.wall_time.as_secs_f64() * 1e3);
    let certified = sharded.certified_stretch();
    let verdict = match certified {
        Some(t) if sharded.stitch.max_cut_stretch <= t * SKELETON_SLACK => Ok(()),
        _ => Err(format!(
            "sharded build certifies {certified:?} but its cut edges reach stretch {}",
            sharded.stitch.max_cut_stretch
        )),
    };
    ctx.report.check(verdict);
    let s = &sharded.output.stats;
    let st = &sharded.stitch;
    let counts = [
        ("greedy.edges_examined", s.edges_examined as u64),
        ("greedy.edges_added", s.edges_added as u64),
        ("greedy.distance_queries", s.distance_queries as u64),
        ("greedy.kernel_rows_batched", s.kernel.rows_batched),
        ("greedy.kernel_edges_gathered", s.kernel.edges_gathered),
        ("shard.cut_edges", st.cut_edges as u64),
        ("shard.kept_cut_edges", st.kept_cut_edges as u64),
        ("shard.skeleton_vertices", st.skeleton_vertices as u64),
        ("shard.contracted_edges", st.contracted_edges as u64),
    ];
    if rep == 0 {
        for (name, value) in counts {
            ctx.report.count(name, value);
        }
        m.spanner_edges = sharded.output.spanner.num_edges();
        m.lightness = lightness(grid, &sharded.output.spanner);
        let l = &mut m.layers;
        l.greedy_distance_queries = s.distance_queries as f64;
        l.greedy_ns_per_query = ratio(took.as_secs_f64() * 1e9, s.distance_queries as f64);
        l.greedy_admit_ratio = ratio(s.edges_added as f64, s.edges_examined as f64);
        l.engine_kernel_rows_batched = s.kernel.rows_batched as f64;
        l.engine_edges_gathered = s.kernel.edges_gathered as f64;
        l.shard_cut_edges = st.cut_edges as f64;
        l.shard_kept_cut_edges = st.kept_cut_edges as f64;
    } else if counts
        .iter()
        .any(|&(name, value)| ctx.report.counters.get(name) != Some(&value))
    {
        ctx.report.fail(format!(
            "set-up {rep}: sharded build counters drifted from the first build's"
        ));
    }
    // The clone for the checker is not part of set-up.
    let pause = Instant::now();
    let spanner = (rep == 0).then(|| sharded.output.spanner.clone());
    let paused = pause.elapsed();
    let (server, took) = ctx.tracer.span("serve", "freeze", rep, || {
        sharded
            .output
            .serve()
            .threads(SERVE_THREADS)
            .cache_capacity(CACHE)
            .finish()
    });
    samples.freeze_ms.push(took.as_secs_f64() * 1e3);
    m.setup_s
        .push((ctx.tracer.end(open) - paused).as_secs_f64());
    Ok((server, spanner))
}
