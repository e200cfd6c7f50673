//! Pipeline benchmark for the greedy-spanner suite.
//!
//! One workload per process:
//!
//! ```text
//! perfbench --workload <build-er2000|serve-grid|live-churn> --seed <n>
//!           --seconds <s> --trace <0|1> --out-dir <dir>
//! ```
//!
//! Each workload runs the paper's pipeline (build → freeze → serve, plus
//! update → checkpoint → recover on `live-churn`) through public APIs with
//! library defaults, checks the outputs, and prints a report followed by one
//! JSON result line: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. See `README.md` for the metric definitions.

mod build_er;
mod check;
mod live_churn;
mod report;
mod serve_grid;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use greedy_spanner::{Answer, Query, SpannerServer};
use report::{median, quantile, ratio, Report};
use trace::Tracer;

/// Queries per served batch on every workload.
pub const BATCH: usize = 64;

/// Everything a workload needs: its seed and time budget, the tracer, the
/// directory it may write to, and the report it fills.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
    pub report: Report,
    started: Instant,
}

/// The time budget of a workload's loop: at least `min` iterations, then
/// more while one more of the longest iteration so far still ends within
/// the budget.
pub struct Budget {
    seconds: f64,
    min: usize,
    start: Instant,
    last: Instant,
    started: usize,
    longest: f64,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Self {
        let now = Instant::now();
        Budget {
            seconds,
            min,
            start: now,
            last: now,
            started: 0,
            longest: 0.0,
        }
    }

    /// Whether to start another iteration (call once before each iteration).
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        if self.started > 0 {
            self.longest = self.longest.max((now - self.last).as_secs_f64());
        }
        self.last = now;
        let elapsed = (now - self.start).as_secs_f64();
        let go = self.started < self.min || elapsed + self.longest <= self.seconds;
        if go {
            self.started += 1;
        }
        go
    }
}

/// Wall-clock samples and quality figures a workload measured; turned into
/// the end-to-end metrics uniformly.
#[derive(Default)]
pub struct Measured {
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Greedy builds of the workload's input graph, seconds each.
    pub build_s: Vec<f64>,
    /// Size and lightness of the seed's first spanner.
    pub spanner_edges: usize,
    pub lightness: f64,
    /// `answer_batch` calls, milliseconds each, and the queries they held.
    pub serve_ms: Vec<f64>,
    pub queries: u64,
    /// The workload's focus operation: milliseconds per call, and work
    /// units (edges examined, queries, updates) done inside those calls.
    pub op_ms: Vec<f64>,
    pub op_units: f64,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    pub layers: Layers,
}

/// Per-layer values; layers a workload does not exercise stay 0.
#[derive(Default)]
pub struct Layers {
    pub greedy_distance_queries: f64,
    pub greedy_ns_per_query: f64,
    pub greedy_admit_ratio: f64,
    pub engine_kernel_rows_batched: f64,
    pub engine_edges_gathered: f64,
    pub engine_settled: f64,
    pub engine_pruned_by_bound: f64,
    pub engine_ns_per_settled: f64,
    pub shard_build_s: f64,
    pub shard_stitch_ms: f64,
    pub shard_cut_edges: f64,
    pub shard_kept_cut_edges: f64,
    pub serve_freeze_ms: f64,
    pub serve_cache_hit_rate: f64,
    pub serve_cache_evictions: f64,
    pub serve_settled_per_query: f64,
    pub serve_worker_utilization: f64,
    pub serve_stale_evictions: f64,
    pub update_repair_ms: f64,
    pub update_recertifications: f64,
    pub update_repaired: f64,
    pub update_admit_ratio: f64,
    pub update_compactions: f64,
    pub persist_attach_ms: f64,
    pub persist_checkpoint_ms: f64,
    pub persist_wal_bytes_per_update: f64,
    pub persist_snapshot_bytes: f64,
    pub persist_snapshots_written: f64,
    pub recover_s: f64,
    pub recover_snapshot_load_ms: f64,
    pub recover_batches_replayed: f64,
}

/// Answers one batch as a timed `serve` span, counting the queries as
/// attempted and a rejected batch as failed.
pub fn serve_batch(
    ctx: &mut Ctx,
    server: &mut SpannerServer,
    queries: &[Query],
    batch: u64,
    m: &mut Measured,
) -> Option<Vec<Answer>> {
    let (answers, took) = ctx.tracer.span("serve", "answer_batch", batch, || {
        server.answer_batch(queries)
    });
    ctx.report.attempted += queries.len() as u64;
    match answers {
        Ok(answers) => {
            m.serve_ms.push(took.as_secs_f64() * 1e3);
            m.queries += queries.len() as u64;
            Some(answers)
        }
        Err(e) => {
            ctx.report.failed += queries.len() as u64;
            ctx.report
                .failures
                .push(format!("batch {batch} rejected: {e:?}"));
            None
        }
    }
}

/// Checks served answers against the free Dijkstra functions (untimed, as a
/// `check` span); each wrong answer counts as a failed operation.
pub fn check_answers(
    ctx: &mut Ctx,
    spanner: &spanner_graph::WeightedGraph,
    queries: &[Query],
    answers: &[Answer],
    batch: u64,
) {
    let ((wrong, first), _) = ctx.tracer.span("check", "answers", batch, || {
        check::answers(spanner, queries, answers)
    });
    if wrong > 0 {
        ctx.report.failed += wrong;
        ctx.report.failures.push(format!(
            "{wrong} wrong answers; first: {}",
            first.unwrap_or_default()
        ));
    }
}

/// A per-batch query seed: the workload seed mixed with the batch index
/// (splitmix64), so batches differ and each is reproducible.
pub fn batch_seed(seed: u64, batch: u64) -> u64 {
    let mut z = seed ^ batch.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spanner_bench::workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&mut Ctx) -> Measured = match args.workload.as_str() {
        "build-er2000" => build_er::run,
        "serve-grid" => serve_grid::run,
        "live-churn" => live_churn::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        out_dir: args.out_dir,
        report: Report::default(),
        started: Instant::now(),
    };
    let measured = run(&mut ctx);
    finish(ctx, measured, &args.workload)
}

fn finish(mut ctx: Ctx, m: Measured, workload: &str) -> ExitCode {
    let wall_s = ctx.started.elapsed().as_secs_f64();
    let rss = report::peak_rss_mib();
    let serve_s: f64 = m.serve_ms.iter().sum::<f64>() / 1e3;
    let op_s: f64 = m.op_ms.iter().sum::<f64>() / 1e3;
    let r = &mut ctx.report;
    r.e2e("setup_s", median(&m.setup_s), "s");
    r.e2e("peak_rss_mib", rss, "MiB");
    r.e2e("build_s", median(&m.build_s), "s");
    r.e2e("spanner_edges", m.spanner_edges as f64, "edges");
    r.e2e("lightness", m.lightness, "ratio");
    r.e2e("serve_qps", ratio(m.queries as f64, serve_s), "q/s");
    r.e2e("serve_p50_ms", median(&m.serve_ms), "ms");
    r.e2e("op_p50_ms", median(&m.op_ms), "ms");
    r.e2e("op_rate", ratio(m.op_units, op_s), "1/s");

    let l = &m.layers;
    for (name, value, unit) in [
        (
            "greedy.distance_queries",
            l.greedy_distance_queries,
            "count",
        ),
        ("greedy.ns_per_query", l.greedy_ns_per_query, "ns"),
        ("greedy.admit_ratio", l.greedy_admit_ratio, "ratio"),
        (
            "engine.kernel_rows_batched",
            l.engine_kernel_rows_batched,
            "count",
        ),
        ("engine.edges_gathered", l.engine_edges_gathered, "count"),
        ("engine.settled", l.engine_settled, "count"),
        ("engine.pruned_by_bound", l.engine_pruned_by_bound, "count"),
        ("engine.ns_per_settled", l.engine_ns_per_settled, "ns"),
        ("shard.build_s", l.shard_build_s, "s"),
        ("shard.stitch_ms", l.shard_stitch_ms, "ms"),
        ("shard.cut_edges", l.shard_cut_edges, "count"),
        ("shard.kept_cut_edges", l.shard_kept_cut_edges, "count"),
        ("serve.freeze_ms", l.serve_freeze_ms, "ms"),
        ("serve.cache_hit_rate", l.serve_cache_hit_rate, "ratio"),
        ("serve.cache_evictions", l.serve_cache_evictions, "count"),
        (
            "serve.settled_per_query",
            l.serve_settled_per_query,
            "count",
        ),
        (
            "serve.worker_utilization",
            l.serve_worker_utilization,
            "ratio",
        ),
        ("serve.stale_evictions", l.serve_stale_evictions, "count"),
        ("update.repair_ms", l.update_repair_ms, "ms"),
        (
            "update.recertifications",
            l.update_recertifications,
            "count",
        ),
        ("update.repaired", l.update_repaired, "count"),
        ("update.admit_ratio", l.update_admit_ratio, "ratio"),
        ("update.compactions", l.update_compactions, "count"),
        ("persist.attach_ms", l.persist_attach_ms, "ms"),
        ("persist.checkpoint_ms", l.persist_checkpoint_ms, "ms"),
        (
            "persist.wal_bytes_per_update",
            l.persist_wal_bytes_per_update,
            "B",
        ),
        ("persist.snapshot_bytes", l.persist_snapshot_bytes, "B"),
        (
            "persist.snapshots_written",
            l.persist_snapshots_written,
            "count",
        ),
        ("recover.total_s", l.recover_s, "s"),
        ("recover.snapshot_load_ms", l.recover_snapshot_load_ms, "ms"),
        (
            "recover.batches_replayed",
            l.recover_batches_replayed,
            "count",
        ),
    ] {
        r.layer(name, value, unit);
    }
    // Self time of every layer the benchmark spans, and what the spans cost.
    let self_ms = ctx.tracer.self_ms_by_layer();
    for layer in [
        "bench", "check", "greedy", "persist", "recover", "serve", "shard", "update",
    ] {
        let ms = self_ms
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, ms)| ms);
        r.layer(&format!("{layer}.self_ms"), ms, "ms");
    }
    let spans = ctx.tracer.span_count() as f64;
    let overhead_ms = if ctx.tracer.enabled() {
        spans * Tracer::cost_per_span_ns() / 1e6
    } else {
        0.0
    };
    r.layer("trace.spans", spans, "count");
    r.layer("trace.overhead_ms", overhead_ms, "ms");
    r.layer(
        "trace.overhead_pct",
        100.0 * ratio(overhead_ms, wall_s * 1e3),
        "%",
    );
    r.layer("trace.op_p50_ms", median(&m.op_ms), "ms");

    // The human-readable report.
    println!(
        "perfbench workload={workload} seed={} seconds={}",
        ctx.seed, ctx.seconds
    );
    for metric in r.end_to_end.iter().chain(&r.per_layer) {
        println!(
            "  {:<32} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    if !m.serve_ms.is_empty() {
        println!(
            "  serve batches {} (p95 {:.3} ms; {} beyond p95)",
            m.serve_ms.len(),
            quantile(&m.serve_ms, 0.95),
            m.serve_ms.len() / 20
        );
    }
    for note in &m.notes {
        println!("  {note}");
    }
    for failure in &r.failures {
        println!("FAILED: {failure}");
    }
    if ctx.tracer.enabled() {
        let path = ctx
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", ctx.seed));
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_json_lines()) {
            println!("FAILED: cannot write {}: {e}", path.display());
            r.failed += 1;
        }
    }
    println!("counters {}", r.counters_json());
    let metrics = if ctx.tracer.enabled() {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    println!("{}", r.result_json(metrics));
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
