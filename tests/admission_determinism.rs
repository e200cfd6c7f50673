//! Property suite for the serving runtime's admission contract:
//!
//! * Under a fixed open-loop schedule (batches offered one after another,
//!   one `poll` between offers, so a backlog builds), a seeded virtual
//!   clock and a fixed limiter configuration, the **admitted/shed
//!   partition is identical** at every thread count {1, 2, 8} and across
//!   backend kinds (frozen and live [`SpannerServer`]) — shed decisions
//!   are a pure function of the schedule and the seed, never of backend
//!   answers, machine load or thread scheduling.
//! * **Admitted answers are bit-identical** to the direct path
//!   (`answer_batch` on an identically built twin), even though the router
//!   dispatches them in limit-sized chunks — chunked dispatch rides the
//!   standing batch-boundary-invariance guarantee.
//! * An unlimited router answers bit-identically to the direct path and
//!   never sheds.

use std::time::Duration;

use greedy_spanner::runtime::{AimdLimit, Limiter, QosClass, Router, VirtualClock};
use greedy_spanner::serve::{Answer, ServeError, SpannerServer};
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::{Query, Spanner};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_graph::WeightedGraph;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const STRETCH: f64 = 2.0;
const N: usize = 60;
const CLOCK_SEED: u64 = 42;

fn graph() -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(17);
    erdos_renyi_connected(N, 0.12, 1.0..6.0, &mut rng)
}

/// A fixed mixed-class schedule: interactive point batches interleaved with
/// bulk radius sweeps, sizes straddling the limiter's initial limit so the
/// run exercises admit, chunk, queue and shed.
fn schedule() -> Vec<Vec<Query>> {
    let sizes = [16usize, 40, 8, 96, 24, 48, 12, 80, 20, 32, 56, 16];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            if i % 3 == 2 {
                QueryWorkload::ball_sweep(N, vec![1.5, 3.0])
                    .expect("valid sweep")
                    .queries(size)
                    .seed(100 + i as u64)
                    .generate()
            } else {
                QueryWorkload::uniform(N)
                    .expect("valid shape")
                    .queries(size)
                    .seed(i as u64)
                    .generate()
            }
        })
        .collect()
}

fn frozen_server(g: &WeightedGraph, threads: usize) -> SpannerServer {
    Spanner::greedy()
        .stretch(STRETCH)
        .build(g)
        .expect("build")
        .serve()
        .threads(threads)
        .finish()
}

fn live_server(g: &WeightedGraph, threads: usize) -> SpannerServer {
    Spanner::greedy()
        .stretch(STRETCH)
        .build(g)
        .expect("build")
        .live(g)
        .expect("live")
        .serve()
        .threads(threads)
        .finish()
}

/// `None` = shed, `Some(answers)` = admitted and answered.
type Outcome = Vec<Option<Vec<Answer>>>;

/// Drives the fixed schedule open-loop through a freshly configured router
/// over `backend` — offer a batch, dispatch one limit's worth, offer the
/// next — and records per-batch outcomes once the backlog drains. Limiter,
/// knee and clock seed are part of the contract under test — identical
/// everywhere.
fn run_schedule<B: greedy_spanner::runtime::Backend>(backend: B) -> Outcome {
    let mut router = Router::over(backend)
        .limiter(Limiter::aimd(AimdLimit::new(16)))
        .virtual_clock(VirtualClock::seeded(CLOCK_SEED))
        .shed_factor(1.0)
        .finish();
    let tickets: Vec<_> = schedule()
        .iter()
        .map(|batch| {
            let ticket = match router.offer(QosClass::of_batch(batch), batch) {
                Ok(ticket) => Some(ticket),
                Err(ServeError::Overloaded { retry_after_hint }) => {
                    assert!(
                        retry_after_hint > Duration::ZERO,
                        "shed batches carry a usable retry hint"
                    );
                    None
                }
                Err(other) => panic!("schedule contains no invalid batch: {other}"),
            };
            router.poll();
            ticket
        })
        .collect();
    router.drain();
    tickets
        .into_iter()
        .map(|ticket| {
            ticket.map(|t| {
                router
                    .collect(t)
                    .expect("drained")
                    .expect("admitted batches answer")
            })
        })
        .collect()
}

fn shed_pattern(outcome: &Outcome) -> Vec<bool> {
    outcome.iter().map(Option::is_none).collect()
}

#[test]
fn admission_partition_and_answers_are_identical_across_thread_counts() {
    let g = graph();
    for (kind, build) in [
        (
            "frozen",
            &(|t| run_schedule(frozen_server(&g, t))) as &dyn Fn(usize) -> Outcome,
        ),
        ("live", &|t| run_schedule(live_server(&g, t))),
    ] {
        let reference = build(THREAD_COUNTS[0]);
        assert!(
            reference.iter().any(Option::is_some) && reference.iter().any(Option::is_none),
            "{kind}: the schedule must exercise both admission and shedding"
        );
        for &threads in &THREAD_COUNTS[1..] {
            let outcome = build(threads);
            assert_eq!(
                outcome, reference,
                "{kind}: outcome diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn shed_partition_is_identical_across_backend_kinds() {
    let g = graph();
    let frozen = run_schedule(frozen_server(&g, 2));
    let live = run_schedule(live_server(&g, 2));
    // The shed decision never consults the backend (only batch shape, the
    // limiter and the virtual clock), so the partition is one and the same.
    assert_eq!(shed_pattern(&frozen), shed_pattern(&live));
}

#[test]
fn admitted_answers_match_the_unlimited_path_bit_for_bit() {
    let g = graph();
    let batches = schedule();
    for &threads in &THREAD_COUNTS {
        let outcome = run_schedule(frozen_server(&g, threads));
        // An identically built twin answers every batch on the direct path
        // — whole batches, no admission, no chunking.
        let mut twin = frozen_server(&g, threads);
        for (batch, result) in batches.iter().zip(&outcome) {
            let unlimited = twin.answer_batch(batch).expect("valid batch");
            if let Some(admitted) = result {
                assert_eq!(
                    admitted, &unlimited,
                    "chunked dispatch changed an answer at threads={threads}"
                );
            }
        }
    }
}

#[test]
fn unlimited_shim_never_sheds_and_matches_direct_dispatch() {
    let g = graph();
    let mut unlimited = Router::over(frozen_server(&g, 2))
        .limiter(Limiter::unlimited())
        .finish();
    let mut direct = frozen_server(&g, 2);
    for batch in schedule() {
        let routed = unlimited
            .submit(QosClass::of_batch(&batch), &batch)
            .expect("unlimited never sheds");
        let answers = direct.answer_batch(&batch).expect("valid batch");
        assert_eq!(routed, answers);
    }
    let stats = unlimited.stats();
    let total: u64 = schedule().iter().map(|b| b.len() as u64).sum();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queued, 0);
}
