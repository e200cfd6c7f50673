//! `live-churn`: the write path. A greedy 2-spanner of an Erdős–Rényi graph
//! (n = 800) is opened live with a store attached, served on one worker,
//! and driven by a mixed stream (half the rounds are batches of 32 updates)
//! with one explicit checkpoint mid-stream. The server is then dropped
//! without ceremony (the "kill") and the spanner recovered from its store.
//! Updates, WAL, compaction and recovery do the work.
//!
//! Each cycle repeats the same seeded stream from a fresh store, so every
//! deterministic counter must repeat exactly from cycle to cycle.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use greedy_spanner::analysis::lightness;
use greedy_spanner::workload::{LiveWorkload, QueryWorkload, StreamEvent};
use greedy_spanner::{LiveSpanner, RunStats, Spanner, SpannerServer, UpdateStats};
use spanner_bench::workloads::random_graph;
use spanner_store::{list_snapshots, snapshot_file_name, GraphImage, Snapshot, WAL_FILE_NAME};

use crate::{batch_seed, median, ratio, serve_batch, Budget, Ctx, Measured, BATCH};

const N: usize = 800;
const STRETCH: f64 = 2.0;
/// Low enough that every cycle compacts (and snapshots) at least twice.
const COMPACTION_THRESHOLD: f64 = 0.1;
const CACHE: usize = 64;
const ROUNDS: usize = 96;
const UPDATE_FRACTION: f64 = 0.5;
const UPDATES_PER_BATCH: usize = 32;
const INSERT_FRACTION: f64 = 0.4;
/// Cycles per run at least; more while the time budget lasts.
const MIN_CYCLES: usize = 2;
/// Set-ups per cycle; the median over all of them is `setup_s`.
const SETUP_REPS: usize = 3;

pub fn run(ctx: &mut Ctx) -> Measured {
    let mut m = Measured::default();
    let g = random_graph(N, ctx.seed);
    let stream = LiveWorkload::new(N)
        .and_then(|w| w.update_fraction(UPDATE_FRACTION))
        .and_then(|w| w.insert_fraction(INSERT_FRACTION))
        .expect("valid live workload")
        .rounds(ROUNDS)
        .updates_per_batch(UPDATES_PER_BATCH)
        .audits(false)
        .seed(ctx.seed)
        .generate(&g);
    let held_out = QueryWorkload::mixed(N, false)
        .expect("n >= 2")
        .queries(4 * BATCH)
        .seed(batch_seed(ctx.seed, u64::MAX))
        .generate();
    let builder = Spanner::greedy().stretch(STRETCH).threads(1);

    let mut first_cycle: Option<BTreeMap<String, u64>> = None;
    let mut series = Series::default();
    let mut budget = Budget::new(ctx.seconds, MIN_CYCLES);
    let mut cycle = 0usize;
    while budget.another() {
        let dir = ctx.out_dir.join(format!("live-store-{}-{cycle}", ctx.seed));
        let _ = fs::remove_dir_all(&dir);
        let root = ctx.tracer.begin("bench", "cycle", cycle as u64);
        let counts = run_cycle(
            ctx,
            &mut m,
            &mut series,
            &g,
            &stream,
            &held_out,
            &builder,
            &dir,
            cycle,
        );
        ctx.tracer.end(root);
        let _ = fs::remove_dir_all(&dir);
        match (&first_cycle, counts) {
            (_, None) => {}
            (None, Some(counts)) => first_cycle = Some(counts),
            (Some(first), Some(counts)) if *first != counts => ctx.report.fail(format!(
                "cycle {cycle} counters drifted from cycle 0: {counts:?} vs {first:?}"
            )),
            _ => {}
        }
        cycle += 1;
    }
    if let Some(counts) = first_cycle {
        for (k, v) in counts {
            ctx.report.count(&k, v);
        }
    }
    let l = &mut m.layers;
    l.persist_attach_ms = median(&series.attach_ms);
    l.persist_checkpoint_ms = median(&series.checkpoint_ms);
    l.serve_freeze_ms = median(&series.freeze_ms);
    l.recover_s = median(&series.recover_s);
    l.recover_snapshot_load_ms = median(&series.snapshot_load_ms);
    l.update_repair_ms = median(&series.repair_ms);
    l.greedy_ns_per_query = ratio(median(&m.build_s) * 1e9, l.greedy_distance_queries);
    l.engine_ns_per_settled = ratio(m.serve_ms.iter().sum::<f64>() * 1e6, series.settled as f64);
    m.notes.push(format!(
        "cycles {}; update_p50_ms {:.3}, updates_per_s {:.1}, recover_s {:.4}",
        series.recover_s.len(),
        median(&m.op_ms),
        ratio(m.op_units, m.op_ms.iter().sum::<f64>() / 1e3),
        median(&series.recover_s)
    ));
    m
}

/// Wall-clock samples collected across cycles.
#[derive(Default)]
struct Series {
    attach_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    freeze_ms: Vec<f64>,
    recover_s: Vec<f64>,
    snapshot_load_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    settled: u64,
}

/// One build → attach → serve/update stream → checkpoint → kill → recover
/// cycle. Returns the cycle's deterministic counters, or `None` when set-up
/// failed.
#[allow(clippy::too_many_arguments)]
fn run_cycle(
    ctx: &mut Ctx,
    m: &mut Measured,
    series: &mut Series,
    g: &spanner_graph::WeightedGraph,
    stream: &[StreamEvent],
    held_out: &[greedy_spanner::Query],
    builder: &greedy_spanner::SpannerBuilder,
    dir: &Path,
    cycle: usize,
) -> Option<BTreeMap<String, u64>> {
    let c = cycle as u64;
    let mut counts = BTreeMap::new();

    // Set-up, several times; the last server (and its store) runs the
    // stream.
    let mut set_up = None;
    for rep in 0..SETUP_REPS {
        drop(set_up.take());
        let store = dir.join(format!("setup-{rep}"));
        let _ = fs::remove_dir_all(&store);
        match set_up_once(ctx, m, series, g, builder, &store, c) {
            Ok((server, stats)) => set_up = Some((server, store, stats)),
            Err(e) => ctx.report.fail(format!("cycle {cycle} set-up: {e}")),
        }
    }
    let (mut server, store, s) = set_up?;
    let dir = store.as_path();
    counts.insert("greedy.edges_examined".into(), s.edges_examined as u64);
    counts.insert("greedy.edges_added".into(), s.edges_added as u64);
    counts.insert("greedy.distance_queries".into(), s.distance_queries as u64);

    // The stream, with one explicit checkpoint halfway.
    let mut updates_applied = 0u64;
    for (round, event) in stream.iter().enumerate() {
        let batch_id = c * ROUNDS as u64 + round as u64;
        match event {
            StreamEvent::Queries(queries) => {
                serve_batch(ctx, &mut server, queries, batch_id, m);
            }
            StreamEvent::Updates(batch) => {
                let (outcome, took) = ctx
                    .tracer
                    .span("update", "apply", batch_id, || server.apply_updates(batch));
                ctx.report.attempted += 1;
                match outcome {
                    Ok(outcome) => {
                        m.op_ms.push(took.as_secs_f64() * 1e3);
                        m.op_units += batch.len() as f64;
                        updates_applied += batch.len() as u64;
                        if outcome.full_certification {
                            series
                                .repair_ms
                                .push(outcome.repair_time.as_secs_f64() * 1e3);
                        }
                    }
                    Err(e) => ctx.report.fail(format!("update batch {round}: {e:?}")),
                }
            }
        }
        if round == ROUNDS / 2 {
            let live = server.live().expect("live server");
            let path = dir.join(snapshot_file_name(live.stats().batches, live.epoch()));
            let (written, took) = ctx
                .tracer
                .span("persist", "checkpoint", c, || live.checkpoint(&path));
            series.checkpoint_ms.push(took.as_secs_f64() * 1e3);
            if let Err(e) = written {
                ctx.report.fail(format!("checkpoint: {e}"));
            }
        }
    }

    // Kill: remember what the dropped server knew, then drop it.
    let expected = server.answer_batch(held_out);
    let live = server.live().expect("live server");
    let killed = (
        GraphImage::capture(live.spanner()),
        GraphImage::capture(live.original()),
        live.epoch(),
        replayed(live.stats()),
    );
    let stats = *live.stats();
    let serve_stats = *server.stats();
    let engine = server.engine_stats();
    let utilization = server.worker_utilization();
    series.settled += engine.settled_vertices;
    drop(server);

    let wal_bytes = file_len(&dir.join(WAL_FILE_NAME));
    let newest = list_snapshots(dir).ok().and_then(|s| s.into_iter().next());
    let snapshot_bytes = newest.as_ref().map_or(0, |s| file_len(&s.path));
    if let Some(newest) = &newest {
        // The snapshot-load share of recovery, measured on its own.
        let (loaded, took) = ctx.tracer.span("recover", "snapshot_load", c, || {
            Snapshot::read(&newest.path).and_then(|snap| {
                snap.spanner.restore(&newest.path)?;
                snap.original.restore(&newest.path)
            })
        });
        series.snapshot_load_ms.push(took.as_secs_f64() * 1e3);
        if let Err(e) = loaded {
            ctx.report.fail(format!("snapshot load: {e}"));
        }
    }

    let (recovered, took) = ctx
        .tracer
        .span("recover", "recover", c, || LiveSpanner::recover(dir));
    ctx.report.attempted += 1;
    series.recover_s.push(took.as_secs_f64());
    let recovered = match recovered {
        Ok(recovered) => recovered,
        Err(e) => {
            ctx.report.fail(format!("recover: {e}"));
            return None;
        }
    };
    let live = &recovered.live;
    let restored = (
        GraphImage::capture(live.spanner()),
        GraphImage::capture(live.original()),
        live.epoch(),
        replayed(live.stats()),
    );
    for (part, same) in [
        ("spanner image", restored.0 == killed.0),
        ("original image", restored.1 == killed.1),
        ("epoch", restored.2 == killed.2),
        ("update counters", restored.3 == killed.3),
    ] {
        if !same {
            ctx.report.fail(format!(
                "cycle {cycle}: recovered {part} differs from the killed spanner's"
            ));
        }
    }
    let batches_replayed = recovered.report.batches_replayed;
    let mut server = recovered
        .live
        .with_threads(1)
        .serve()
        .threads(1)
        .cache_capacity(CACHE)
        .finish();
    let (answers, _) = ctx
        .tracer
        .span("check", "held_out", c, || server.answer_batch(held_out));
    ctx.report.attempted += held_out.len() as u64;
    match (expected, answers) {
        (Ok(want), Ok(got)) if want == got => {}
        _ => {
            ctx.report.failed += held_out.len() as u64;
            ctx.report.failures.push(format!(
                "cycle {cycle}: recovered server answers the held-out batch differently"
            ));
        }
    }

    for (k, v) in deterministic(&stats) {
        counts.insert(format!("update.{k}"), v);
    }
    counts.insert("update.applied".into(), updates_applied);
    counts.insert("serve.queries".into(), serve_stats.queries);
    counts.insert("serve.cache_hits".into(), serve_stats.cache_hits);
    counts.insert("serve.cache_misses".into(), serve_stats.cache_misses);
    counts.insert("serve.cache_evictions".into(), serve_stats.cache_evictions);
    counts.insert("serve.stale_evictions".into(), serve_stats.stale_evictions);
    counts.insert("engine.settled".into(), engine.settled_vertices);
    counts.insert("engine.pruned_by_bound".into(), engine.pruned_by_bound);
    counts.insert(
        "engine.kernel_rows_batched".into(),
        engine.kernel.rows_batched,
    );
    counts.insert("persist.wal_bytes".into(), wal_bytes);
    counts.insert("persist.snapshot_bytes".into(), snapshot_bytes);
    counts.insert("recover.batches_replayed".into(), batches_replayed);
    counts.insert("recover.snapshot_seq".into(), recovered.report.snapshot_seq);

    if cycle == 0 {
        let l = &mut m.layers;
        l.engine_settled = engine.settled_vertices as f64;
        l.engine_pruned_by_bound = engine.pruned_by_bound as f64;
        l.engine_kernel_rows_batched += engine.kernel.rows_batched as f64;
        l.engine_edges_gathered += engine.kernel.edges_gathered as f64;
        l.serve_cache_hit_rate = serve_stats.cache_hit_rate().unwrap_or(0.0);
        l.serve_cache_evictions = serve_stats.cache_evictions as f64;
        l.serve_stale_evictions = serve_stats.stale_evictions as f64;
        l.serve_settled_per_query =
            ratio(engine.settled_vertices as f64, serve_stats.queries as f64);
        l.serve_worker_utilization = utilization;
        l.update_recertifications = stats.recertifications as f64;
        l.update_repaired = stats.repaired as f64;
        l.update_admit_ratio = ratio(stats.admitted as f64, stats.insertions as f64);
        l.update_compactions = stats.compactions as f64;
        l.persist_wal_bytes_per_update = ratio(wal_bytes as f64, updates_applied as f64);
        l.persist_snapshot_bytes = snapshot_bytes as f64;
        l.persist_snapshots_written = stats.snapshots_written as f64;
        l.recover_batches_replayed = batches_replayed as f64;
    }
    Some(counts)
}

/// One set-up: build, open live, attach a fresh store at `store`, serve.
/// Records the build, attach and freeze times and the set-up time; returns
/// the server and the build's counters.
fn set_up_once(
    ctx: &mut Ctx,
    m: &mut Measured,
    series: &mut Series,
    g: &spanner_graph::WeightedGraph,
    builder: &greedy_spanner::SpannerBuilder,
    store: &Path,
    c: u64,
) -> Result<(SpannerServer, RunStats), String> {
    let setup = ctx.tracer.begin("bench", "setup", c);
    let (out, took) = ctx.tracer.span("greedy", "build", c, || builder.build(g));
    ctx.report.attempted += 1;
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            ctx.tracer.end(setup);
            return Err(format!("build: {e}"));
        }
    };
    m.build_s.push(took.as_secs_f64());
    if m.build_s.len() == 1 {
        m.spanner_edges = out.spanner.num_edges();
        m.lightness = lightness(g, &out.spanner);
        let s = &out.stats;
        let l = &mut m.layers;
        l.greedy_distance_queries = s.distance_queries as f64;
        l.greedy_admit_ratio = ratio(s.edges_added as f64, s.edges_examined as f64);
        l.engine_kernel_rows_batched = s.kernel.rows_batched as f64;
        l.engine_edges_gathered = s.kernel.edges_gathered as f64;
    }
    let stats = out.stats;
    let (live, _) = ctx.tracer.span("update", "open_live", c, || {
        LiveSpanner::new(out, g).map(|live| {
            live.with_threads(1)
                .with_compaction_threshold(COMPACTION_THRESHOLD)
        })
    });
    let mut live = match live {
        Ok(live) => live,
        Err(e) => {
            ctx.tracer.end(setup);
            return Err(format!("open live: {e}"));
        }
    };
    let (attached, took) = ctx
        .tracer
        .span("persist", "attach", c, || live.persist_to(store));
    series.attach_ms.push(took.as_secs_f64() * 1e3);
    if let Err(e) = attached {
        ctx.tracer.end(setup);
        return Err(format!("attach store: {e}"));
    }
    let (server, took) = ctx.tracer.span("serve", "freeze", c, || {
        live.serve().threads(1).cache_capacity(CACHE).finish()
    });
    series.freeze_ms.push(took.as_secs_f64() * 1e3);
    m.setup_s.push(ctx.tracer.end(setup).as_secs_f64());
    Ok((server, stats))
}

/// The counters recovery must reproduce: all but the snapshot-write counts,
/// which record this process's own writes (a snapshot's metadata is taken
/// before its write is counted).
fn replayed(s: &UpdateStats) -> Vec<(&'static str, u64)> {
    let mut counts = deterministic(s);
    counts.retain(|(name, _)| !name.starts_with("snapshot"));
    counts
}

/// The counters of `UpdateStats` (its durations and the certified stretch
/// are left out: they are wall-clock values or derived from them).
fn deterministic(s: &UpdateStats) -> Vec<(&'static str, u64)> {
    vec![
        ("batches", s.batches),
        ("insertions", s.insertions),
        ("admitted", s.admitted),
        ("rejected", s.rejected),
        ("deletions", s.deletions),
        ("reweights", s.reweights),
        ("repaired", s.repaired),
        ("epochs_advanced", s.epochs_advanced),
        ("recertifications", s.recertifications),
        ("compactions", s.compactions),
        ("snapshots_written", s.snapshots_written),
        ("snapshot_failures", s.snapshot_failures),
    ]
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |meta| meta.len())
}
