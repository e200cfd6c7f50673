//! Serving-layer throughput: batched [`SpannerServer`] queries over a
//! frozen greedy spanner, uniform vs. Zipf-hotspot workloads, cached vs.
//! uncached, at several worker-thread counts.
//!
//! The load-bearing comparison is `zipf_uncached` vs. `zipf_cached`: on
//! skewed traffic the shortest-path-tree cache answers hot sources in
//! `O(1)` per target, so the cached rows must beat the uncached ones — the
//! `cache_speedup_zipf` line printed by this bench records the measured
//! ratio, and CI archives the JSON summary (`BENCH_JSON`) as the read-path
//! perf trajectory. Before timing anything the bench asserts the serving
//! determinism contract: answers bit-identical across thread counts
//! {1, 2, 8} and across cache states.
//!
//! Run with `cargo bench --bench serving_throughput`.
//!
//! Setting `BENCH_OVERLOAD=1` switches the binary to the **overload**
//! group instead (the regular groups are skipped so the artifact stays
//! clean): a deterministic 10×-saturation open-loop simulation through the
//! serving runtime ([`greedy_spanner::runtime::Router`]) on a seeded
//! virtual clock. Before timing, the group asserts the admission contract —
//! the run is reproducible, every admitted batch answers, bulk is shed
//! without failing anything, and interactive p99 with the limiter on stays
//! within 3× of its unloaded p99 — then records the limiter-off ratio in
//! the `BENCH_JSON` artifact (`bench-overload.jsonl` in CI).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use greedy_spanner::runtime::{AimdLimit, Limiter, QosClass, Router, VirtualClock};
use greedy_spanner::serve::{Answer, Query, ServeError, SpannerServer};
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{Spanner, SpannerOutput};
use spanner_bench::workloads::{random_graph, DEFAULT_SEED};

const N: usize = 2000;
const BATCH: usize = 2048;

/// The point-query engine configurations the `point_query_engines` group
/// compares: (name, landmark count).
const ENGINE_CONFIGS: [(&str, usize); 2] = [("heap", 0), ("heap_alt", 4)];

/// Freezes a fresh server off one shared construction result — the ~1s
/// n=2000 greedy build runs once per bench invocation, not once per server.
/// Uses the builder defaults: landmarks, `Auto` relax kernel.
fn build_server(output: &SpannerOutput, threads: usize, cache: usize) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(threads)
        .cache_capacity(cache)
        .finish()
}

/// Like [`build_server`] but pinning one explicit engine configuration.
fn build_engine_server(
    output: &SpannerOutput,
    threads: usize,
    cache: usize,
    landmarks: usize,
) -> SpannerServer {
    output
        .clone()
        .serve()
        .threads(threads)
        .cache_capacity(cache)
        .landmarks(landmarks)
        .finish()
}

/// Answers `batch` once on a fresh server per configuration and asserts the
/// results are identical everywhere — across thread counts, cache states
/// and every point-query engine configuration — the determinism contract
/// this bench publishes numbers under.
fn assert_identical_answers(output: &SpannerOutput, batch: &[Query]) -> Vec<Answer> {
    let mut reference_server = build_engine_server(output, 1, 0, 0);
    let reference = reference_server.answer_batch(batch).expect("valid batch");
    for threads in [1, 2, 8] {
        for cache in [0, 64] {
            let mut server = build_server(output, threads, cache);
            let cold = server.answer_batch(batch).expect("valid batch");
            let warm = server.answer_batch(batch).expect("valid batch");
            assert_eq!(cold, reference, "threads={threads} cache={cache}");
            assert_eq!(warm, reference, "warm, threads={threads} cache={cache}");
        }
    }
    for (name, landmarks) in ENGINE_CONFIGS {
        let mut server = build_engine_server(output, 2, 64, landmarks);
        let cold = server.answer_batch(batch).expect("valid batch");
        let warm = server.answer_batch(batch).expect("valid batch");
        assert_eq!(cold, reference, "engine config {name}");
        assert_eq!(warm, reference, "warm, engine config {name}");
    }
    reference
}

fn bench_serving(c: &mut Criterion) {
    if std::env::var("BENCH_OVERLOAD").is_ok_and(|v| !v.is_empty() && v != "0") {
        bench_overload(c);
        return;
    }
    let g = random_graph(N, DEFAULT_SEED);
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    let uniform = QueryWorkload::uniform(N)
        .expect("valid workload")
        .queries(BATCH)
        .seed(11)
        .bound(40.0)
        .generate();
    let zipf = QueryWorkload::zipf(N, 1.1)
        .expect("valid workload")
        .queries(BATCH)
        .seed(12)
        .bound(40.0)
        .generate();
    let mixed = QueryWorkload::mixed(N, false)
        .expect("valid workload")
        .queries(BATCH)
        .seed(13)
        .generate();

    // Determinism gate first: the numbers below describe one result set.
    assert_identical_answers(&output, &zipf);

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);

    for threads in [1, 2] {
        // Uniform traffic: the cache-hostile baseline (hit rate ~0).
        let mut server = build_server(&output, threads, 0);
        group.bench_with_input(
            BenchmarkId::new("uniform_uncached", threads),
            &threads,
            |b, _| b.iter(|| server.answer_batch(&uniform).expect("valid batch").len()),
        );

        // Zipf hotspots, no cache vs. warm cache: the headline pair.
        let mut uncached = build_server(&output, threads, 0);
        group.bench_with_input(
            BenchmarkId::new("zipf_uncached", threads),
            &threads,
            |b, _| b.iter(|| uncached.answer_batch(&zipf).expect("valid batch").len()),
        );
        let mut cached = build_server(&output, threads, 128);
        cached.answer_batch(&zipf).expect("warms the tree cache");
        group.bench_with_input(
            BenchmarkId::new("zipf_cached", threads),
            &threads,
            |b, _| b.iter(|| cached.answer_batch(&zipf).expect("valid batch").len()),
        );

        // Mixed read profile with a live cache — the realistic shape.
        let mut mixed_server = build_server(&output, threads, 128);
        group.bench_with_input(
            BenchmarkId::new("mixed_cached", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    mixed_server
                        .answer_batch(&mixed)
                        .expect("valid batch")
                        .len()
                })
            },
        );
    }
    group.finish();

    // The point-query acceleration stack through the serving layer:
    // tight-bound uniform distance traffic with the engine pinned to each
    // configuration.
    // Answers were asserted identical above; these rows record what the
    // stack buys end-to-end, serving overhead included.
    let bounded = QueryWorkload::uniform(N)
        .expect("valid workload")
        .queries(BATCH)
        .seed(14)
        .bound(6.0)
        .generate();
    assert_identical_answers(&output, &bounded);
    let mut engines = c.benchmark_group("point_query_engines");
    engines.sample_size(10);
    for (name, landmarks) in ENGINE_CONFIGS {
        let mut server = build_engine_server(&output, 1, 0, landmarks);
        engines.bench_function(BenchmarkId::new("bounded_uniform", name), |b| {
            b.iter(|| server.answer_batch(&bounded).expect("valid batch").len())
        });
    }
    engines.finish();

    // The acceptance ratio, measured directly so the artifact carries it
    // even when per-bench samples are noisy: cached vs. uncached wall time
    // on the Zipf workload (single-threaded, multiple rounds).
    let mut uncached = build_server(&output, 1, 0);
    let mut cached = build_server(&output, 1, 128);
    cached.answer_batch(&zipf).expect("warms the tree cache");
    let rounds = 5;
    let t0 = Instant::now();
    for _ in 0..rounds {
        uncached.answer_batch(&zipf).expect("valid batch");
    }
    let uncached_time = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..rounds {
        cached.answer_batch(&zipf).expect("valid batch");
    }
    let cached_time = t1.elapsed();
    let speedup = uncached_time.as_secs_f64() / cached_time.as_secs_f64().max(1e-12);
    println!(
        "cache_speedup_zipf: uncached {uncached_time:?} / cached {cached_time:?} = {speedup:.2}x \
         (hit rate {:.1}%)",
        100.0 * cached.stats().cache_hit_rate().unwrap_or(0.0)
    );
    assert!(
        speedup > 1.0,
        "the SPT cache must beat uncached point-to-point queries on Zipf \
         traffic (measured {speedup:.2}x)"
    );
}

// ---------------------------------------------------------------------------
// Overload group (gated by BENCH_OVERLOAD).
// ---------------------------------------------------------------------------

/// Universe for the overload simulation — smaller than the throughput
/// groups so the greedy build stays cheap at SPANNER_THREADS=1.
const OVERLOAD_N: usize = 800;
/// Interactive queries per submitted batch.
const INTERACTIVE_BATCH: usize = 8;
/// Bulk (ball) queries per submitted batch.
const BULK_BATCH: usize = 16;
/// Modeled virtual cost of one point query (the [`VirtualClock`] default),
/// used to translate "× capacity" load factors into arrival rates.
const POINT_COST: f64 = 20e-6;
/// Modeled virtual cost of one ball query.
const BALL_COST: f64 = 400e-6;

/// Builds a sorted open-loop batch schedule offering `load` × the virtual
/// service capacity, split 4% interactive point lookups / 96% bulk radius
/// sweeps in service-time units. Per-query arrivals come from the seeded
/// [`QueryWorkload::open_loop`] Poisson schedule; consecutive queries group
/// into batches stamped with their last member's arrival.
fn overload_schedule(
    load: f64,
    interactive_count: usize,
    bulk_count: usize,
    seed: u64,
) -> Vec<(Duration, Vec<Query>)> {
    let interactive_rate = 0.04 * load / POINT_COST;
    let bulk_rate = 0.96 * load / BALL_COST;
    let batched = |arrivals: Vec<greedy_spanner::workload::Arrival>, size: usize| {
        arrivals
            .chunks(size)
            .map(|chunk| {
                (
                    chunk.last().expect("non-empty chunk").at,
                    chunk.iter().map(|a| a.query).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let interactive = batched(
        QueryWorkload::uniform(OVERLOAD_N)
            .expect("valid workload")
            .queries(interactive_count)
            .seed(seed)
            .bound(40.0)
            .open_loop(interactive_rate)
            .expect("valid rate")
            .generate(),
        INTERACTIVE_BATCH,
    );
    let bulk = batched(
        QueryWorkload::ball_sweep(OVERLOAD_N, vec![2.0, 4.0])
            .expect("valid sweep")
            .queries(bulk_count)
            .seed(seed ^ 0xB01D)
            .open_loop(bulk_rate)
            .expect("valid rate")
            .generate(),
        BULK_BATCH,
    );
    let mut events: Vec<(Duration, Vec<Query>)> = interactive.into_iter().chain(bulk).collect();
    events.sort_by_key(|(at, _)| *at);
    events
}

/// What one simulated run produced; everything needed for the gates and
/// the artifact rows.
struct OverloadRun {
    /// Per-event outcome in schedule order: `None` = shed at the door.
    outcomes: Vec<Option<Vec<Answer>>>,
    admitted: u64,
    shed: u64,
    queued: u64,
    interactive_p99: Duration,
    bulk_p99: Option<Duration>,
}

/// Drives the schedule open-loop through a router over a fresh server:
/// `limited` = adaptive AIMD admission with QoS preemption, otherwise a
/// limiter-off baseline (same chunk size, strict FIFO, never sheds). All
/// timing is virtual and seeded, so runs are bit-reproducible; the backend
/// answers every admitted query for real.
fn drive_overload(
    server: SpannerServer,
    events: &[(Duration, Vec<Query>)],
    limited: bool,
) -> OverloadRun {
    let router = Router::over(server).virtual_clock(VirtualClock::seeded(7));
    let mut router = if limited {
        router
            .limiter(Limiter::aimd(AimdLimit::new(16)))
            .shed_factor(2.0)
            .finish()
    } else {
        router
            .limiter(Limiter::fixed(16))
            .shed_factor(f64::INFINITY)
            .fifo(true)
            .finish()
    };
    let mut tickets = Vec::with_capacity(events.len());
    for (at, batch) in events {
        router.poll_until(*at);
        router.advance_to(*at);
        match router.offer(QosClass::of_batch(batch), batch) {
            Ok(ticket) => tickets.push(Some(ticket)),
            Err(ServeError::Overloaded { retry_after_hint }) => {
                assert!(retry_after_hint > Duration::ZERO, "usable retry hint");
                tickets.push(None);
            }
            Err(other) => panic!("the schedule contains no invalid batch: {other}"),
        }
    }
    router.drain();
    let outcomes = tickets
        .into_iter()
        .map(|ticket| {
            ticket.map(|t| {
                router
                    .collect(t)
                    .expect("drained")
                    .expect("admitted batches always answer")
            })
        })
        .collect();
    let stats = router.stats();
    OverloadRun {
        admitted: stats.admitted,
        shed: stats.shed,
        queued: stats.queued,
        interactive_p99: stats
            .class_latency(QosClass::Interactive)
            .p99()
            .expect("the schedule carries interactive traffic"),
        bulk_p99: stats.class_latency(QosClass::Bulk).p99(),
        outcomes,
    }
}

/// Appends one custom record to the `BENCH_JSON` artifact (same JSON-lines
/// file the criterion shim writes its rows to).
fn append_bench_record(record: &str) {
    use std::io::Write;
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = written {
        eprintln!("BENCH_JSON: could not append to {path}: {e}");
    }
}

fn bench_overload(c: &mut Criterion) {
    let g = random_graph(OVERLOAD_N, DEFAULT_SEED);
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    // 10× the virtual service capacity for ~100ms of offered traffic, and
    // an unloaded (0.5×) reference of the same shape.
    let saturated = overload_schedule(10.0, 2000, 2400, 51);
    let unloaded = overload_schedule(0.5, 400, 48, 52);
    let server = || build_server(&output, 0, 64);

    // Gates before timing. (1) The simulation is deterministic end to end.
    let on = drive_overload(server(), &saturated, true);
    let twin = drive_overload(server(), &saturated, true);
    assert_eq!(on.outcomes, twin.outcomes, "overload run must reproduce");
    assert_eq!((on.admitted, on.shed), (twin.admitted, twin.shed));
    // (2) Overload is real and survivable: bulk sheds and queues, yet every
    // admitted batch answers (collect() above would have panicked).
    assert!(on.shed > 0, "10× saturation must shed");
    assert!(
        on.admitted > 0,
        "admission must keep serving under overload"
    );
    assert!(on.queued > 0, "admitted work must queue under overload");
    // (3) The QoS knee holds: interactive p99 under 10× saturation stays
    // within 3× of the unloaded p99 while the limiter is on.
    let base = drive_overload(server(), &unloaded, true);
    let loaded_ratio =
        on.interactive_p99.as_secs_f64() / base.interactive_p99.as_secs_f64().max(1e-12);
    assert!(
        loaded_ratio <= 3.0,
        "interactive p99 degraded {loaded_ratio:.2}x under 10x saturation \
         (loaded {:?} vs unloaded {:?})",
        on.interactive_p99,
        base.interactive_p99
    );
    // (4) The limiter-off baseline shows what admission control buys:
    // identical schedule, no shedding, strict FIFO.
    let off = drive_overload(server(), &saturated, false);
    assert_eq!(off.shed, 0, "the limiter-off baseline never sheds");
    let off_ratio = off.interactive_p99.as_secs_f64() / on.interactive_p99.as_secs_f64().max(1e-12);
    assert!(
        off_ratio > 1.0,
        "limiter off must be worse for interactive p99 (measured {off_ratio:.2}x)"
    );
    println!(
        "overload_limited: admitted {} shed {} queued {} interactive_p99 {:?} \
         ({loaded_ratio:.2}x unloaded {:?}) bulk_p99 {:?}",
        on.admitted, on.shed, on.queued, on.interactive_p99, base.interactive_p99, on.bulk_p99
    );
    println!(
        "overload_limiter_off: interactive_p99 {:?} = {off_ratio:.2}x the limited p99",
        off.interactive_p99
    );
    append_bench_record(&format!(
        "{{\"bench\":\"overload/limited_10x\",\"admitted\":{},\"shed\":{},\"queued\":{},\
         \"interactive_p99_ns\":{},\"unloaded_interactive_p99_ns\":{},\
         \"ratio_vs_unloaded\":{loaded_ratio:.4}}}",
        on.admitted,
        on.shed,
        on.queued,
        on.interactive_p99.as_nanos(),
        base.interactive_p99.as_nanos(),
    ));
    append_bench_record(&format!(
        "{{\"bench\":\"overload/limiter_off_10x\",\"interactive_p99_ns\":{},\
         \"ratio_vs_limited\":{off_ratio:.4}}}",
        off.interactive_p99.as_nanos(),
    ));

    // Timed rows: real wall time of driving the full simulation (virtual
    // clock, real answers) — the runtime's scheduling overhead trajectory.
    let mut group = c.benchmark_group("overload");
    group.sample_size(10);
    group.bench_function("driven_10x_limited", |b| {
        b.iter(|| drive_overload(server(), &saturated, true).admitted)
    });
    group.bench_function("driven_10x_limiter_off", |b| {
        b.iter(|| drive_overload(server(), &saturated, false).admitted)
    });
    group.finish();
}

criterion_group!(serving, bench_serving);
criterion_main!(serving);
