//! The serving runtime: one QoS-classed scheduler with adaptive admission
//! control in front of a server.
//!
//! [`SpannerServer::answer_batch`](crate::serve::SpannerServer::answer_batch)
//! answers any batch thrown at it — no backpressure, no prioritization, no
//! overload behavior. The runtime adds those in three pieces:
//!
//! * [`Backend`] — the trait a server implements: validate a batch and
//!   dispatch it (the direct path, bit-identical at every thread count).
//! * [`Router`] — the front door. [`Router::submit`] classifies work into
//!   per-[`QosClass`] FIFO queues (interactive point queries preempt bulk
//!   sweeps), splits batches into limit-sized chunks at dispatch, and sheds
//!   backlog past the knee with [`ServeError::Overloaded`] carrying a
//!   `retry_after_hint`.
//! * [`Limiter`] ([`limit`]) — unlimited, fixed, or an adaptive
//!   [`AimdLimit`] fed windowed latency quantiles ([`WindowedHistogram`]),
//!   deterministic under the seeded [`VirtualClock`] ([`clock`]).
//!
//! **Answer invariance.** Chunked dispatch relies on the serving stack's
//! standing guarantee that answers are a pure function of the query and the
//! served spanner — never of batch boundaries, cache state, or thread
//! count. Admitted answers through any router configuration are therefore
//! bit-identical to the direct path; admission only decides *whether and
//! when* a batch runs, not what it answers. Shed decisions depend only on
//! the workload, the limiter parameters, and the clock — under a virtual
//! clock they are bit-reproducible across machines and thread counts
//! (`tests/admission_determinism.rs`).
//!
//! ```
//! use greedy_spanner::runtime::{QosClass, Router};
//! use greedy_spanner::serve::Query;
//! use greedy_spanner::Spanner;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use spanner_graph::VertexId;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let g = spanner_graph::generators::erdos_renyi_connected(40, 0.3, 1.0..4.0, &mut rng);
//! let server = Spanner::greedy().stretch(2.0).build(&g)?.serve().finish();
//! let mut router = Router::over(server).finish();
//! let answers = router
//!     .submit(
//!         QosClass::Interactive,
//!         &[Query::Distance {
//!             source: VertexId(0),
//!             target: VertexId(7),
//!             bound: f64::INFINITY,
//!         }],
//!     )
//!     .unwrap();
//! assert_eq!(answers.len(), 1);
//! # Ok::<(), greedy_spanner::SpannerError>(())
//! ```

pub mod clock;
pub mod limit;
pub mod window;

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::serve::{Answer, LatencyHistogram, Query, ServeError};

pub use clock::{QueryCosts, ServeClock, VirtualClock};
pub use limit::{AimdLimit, Limiter};
pub use window::WindowedHistogram;

/// Quality-of-service class of a batch: which runtime queue it waits in.
///
/// Interactive work preempts bulk work — whenever both queues are
/// non-empty, the scheduler dispatches the interactive head first (unless
/// the router was built [`RouterBuilder::fifo`], the strict-arrival-order
/// baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive point lookups: distance, path, k-nearest.
    Interactive,
    /// Throughput work: ball sweeps and stretch audits.
    Bulk,
}

impl QosClass {
    /// The class a single query belongs to.
    pub fn of(query: &Query) -> QosClass {
        match query {
            Query::Distance { .. } | Query::Path { .. } | Query::KNearest { .. } => {
                QosClass::Interactive
            }
            Query::Ball { .. } | Query::StretchAudit { .. } => QosClass::Bulk,
        }
    }

    /// The class of a whole batch: [`QosClass::Bulk`] if *any* query in it
    /// is bulk (one sweep makes the batch throughput work), interactive
    /// otherwise — including the empty batch.
    pub fn of_batch(queries: &[Query]) -> QosClass {
        if queries.iter().any(|q| QosClass::of(q) == QosClass::Bulk) {
            QosClass::Bulk
        } else {
            QosClass::Interactive
        }
    }

    fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Bulk => 1,
        }
    }
}

/// A query-serving backend the [`Router`] can front. Every server —
/// frozen or live [`SpannerServer`](crate::serve::SpannerServer), including
/// one built from a sharded build — implements it.
///
/// `dispatch` is the direct path — the semantics of
/// [`SpannerServer::answer_batch`](crate::serve::SpannerServer::answer_batch),
/// whole-batch, bit-identical at every thread count. The router builds
/// every admission behavior on top of it.
pub trait Backend {
    /// Checks a batch without running anything: a batch either passes whole
    /// or is rejected whole, exactly like the direct path's up-front
    /// validation.
    fn validate_batch(&self, queries: &[Query]) -> Result<(), ServeError>;

    /// Answers a batch unconditionally (no admission control). Must be
    /// insensitive to batch boundaries: dispatching a batch in chunks
    /// yields the same answers as dispatching it whole.
    fn dispatch(&mut self, queries: &[Query]) -> Result<Vec<Answer>, ServeError>;
}

/// Handle to a batch accepted by [`Router::offer`]; redeem it with
/// [`Router::collect`] once the batch has been dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Counters and per-class latency views accumulated by a router.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// Queries accepted (admitted = offered − shed).
    pub admitted: u64,
    /// Queries refused with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Admitted queries that had to wait behind a non-empty queue.
    pub queued: u64,
    /// Summed per-query time between arrival and dispatch.
    pub queue_wait: Duration,
    /// Chunks handed to the backend.
    pub dispatched_chunks: u64,
    /// Most work units ever waiting at once.
    pub peak_queue_units: usize,
    /// Total (wait + service) latency of interactive queries.
    pub interactive_latency: LatencyHistogram,
    /// Total (wait + service) latency of bulk queries.
    pub bulk_latency: LatencyHistogram,
}

impl RouterStats {
    /// The latency histogram of one class.
    pub fn class_latency(&self, class: QosClass) -> &LatencyHistogram {
        match class {
            QosClass::Interactive => &self.interactive_latency,
            QosClass::Bulk => &self.bulk_latency,
        }
    }
}

/// A batch sitting in a runtime queue, partially dispatched.
#[derive(Debug)]
struct Pending {
    ticket: u64,
    class: QosClass,
    queries: Vec<Query>,
    cursor: usize,
    answers: Vec<Answer>,
    arrived: Duration,
}

/// Fallback per-query drain estimate for the retry hint before any latency
/// was observed.
const DEFAULT_RETRY_PER_QUERY: Duration = Duration::from_micros(100);

/// Default overload knee, as a multiple of the current limit: a batch is
/// shed when accepting it would leave more than `shed_factor × limit` units
/// queued.
const DEFAULT_SHED_FACTOR: f64 = 2.0;

/// The serving front door: a [`Backend`] behind per-class scheduling
/// queues and an admission [`Limiter`], built with [`Router::over`].
///
/// Two interaction styles:
///
/// * **Blocking** — [`Router::submit`] runs a batch to completion (waiting
///   its turn behind queued work of equal or higher priority) or sheds it.
/// * **Open-loop** — [`Router::offer`] enqueues, [`Router::poll`] /
///   [`Router::poll_until`] dispatch, [`Router::collect`] redeems tickets;
///   this is how overload simulations and the bench drive it.
#[derive(Debug)]
pub struct Router<B: Backend> {
    backend: B,
    limiter: Limiter,
    clock: ServeClock,
    /// One FIFO per [`QosClass`], indexed by [`QosClass::index`].
    queues: [VecDeque<Pending>; 2],
    completed: BTreeMap<u64, Result<Vec<Answer>, ServeError>>,
    next_ticket: u64,
    shed_factor: f64,
    /// Strict arrival-order dispatch (no class preemption) — the
    /// "no QoS" baseline.
    fifo: bool,
    queued_units: usize,
    stats: RouterStats,
}

impl<B: Backend> Router<B> {
    /// Starts building a router over `backend`; the default configuration
    /// is an AIMD limiter, a real clock, and the standard shed knee.
    pub fn over(backend: B) -> RouterBuilder<B> {
        RouterBuilder {
            backend,
            limiter: Limiter::aimd(AimdLimit::new(64)),
            clock: ServeClock::real(),
            shed_factor: DEFAULT_SHED_FACTOR,
            fifo: false,
        }
    }

    fn retry_hint(&self, units: usize) -> Duration {
        let per = self
            .limiter
            .window()
            .p50()
            .unwrap_or(DEFAULT_RETRY_PER_QUERY);
        let backlog = (self.queued_units + units) as u32;
        per.saturating_mul(backlog)
    }

    /// Enqueues a batch without dispatching it, returning a [`Ticket`].
    ///
    /// The overload knee applies to *backlog*: a batch is shed only when
    /// work is already queued and accepting it would leave more than
    /// `shed_factor × limit` units waiting. An idle router admits any
    /// batch — dispatch chunks it to the limit anyway.
    ///
    /// # Errors
    ///
    /// Same contract as [`Router::submit`], decided at offer time.
    pub fn offer(&mut self, class: QosClass, queries: &[Query]) -> Result<Ticket, ServeError> {
        self.backend.validate_batch(queries)?;
        let units = queries.len();
        let ticket = self.next_ticket;
        if units == 0 {
            // An empty batch completes immediately (and occupies no queue).
            self.next_ticket += 1;
            self.completed.insert(ticket, Ok(Vec::new()));
            return Ok(Ticket(ticket));
        }
        if self.queued_units > 0 && !self.limiter.is_unlimited() {
            let knee = (self.limiter.limit() as f64 * self.shed_factor) as usize;
            if self.queued_units + units > knee.max(1) {
                self.stats.shed += units as u64;
                self.limiter.observe_shed(units, self.queued_units);
                return Err(ServeError::Overloaded {
                    retry_after_hint: self.retry_hint(units),
                });
            }
        }
        self.next_ticket += 1;
        self.stats.admitted += units as u64;
        if self.queued_units > 0 {
            self.stats.queued += units as u64;
        }
        self.queued_units += units;
        self.stats.peak_queue_units = self.stats.peak_queue_units.max(self.queued_units);
        self.queues[class.index()].push_back(Pending {
            ticket,
            class,
            queries: queries.to_vec(),
            cursor: 0,
            answers: Vec::with_capacity(units),
            arrived: self.clock.now(),
        });
        Ok(Ticket(ticket))
    }

    /// Which queue the next chunk comes from: interactive preempts bulk,
    /// unless `fifo` (strict arrival order by ticket).
    fn next_queue(&self) -> Option<usize> {
        match (self.queues[0].front(), self.queues[1].front()) {
            (None, None) => None,
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (Some(interactive), Some(bulk)) => {
                if self.fifo && bulk.ticket < interactive.ticket {
                    Some(1)
                } else {
                    Some(0)
                }
            }
        }
    }

    /// Dispatches one limit-sized chunk from the head of the scheduled
    /// queue; returns the work units it consumed (0 when idle).
    fn step(&mut self) -> usize {
        let Some(qi) = self.next_queue() else {
            return 0;
        };
        let mut head = self.queues[qi].pop_front().expect("scheduled queue");
        let remaining = head.queries.len() - head.cursor;
        let take = remaining.min(self.limiter.limit().max(1));
        let chunk = &head.queries[head.cursor..head.cursor + take];
        let wait = self.clock.now().saturating_sub(head.arrived);
        let real_start = Instant::now();
        let result = self.backend.dispatch(chunk);
        let service = self
            .clock
            .charge(chunk)
            .unwrap_or_else(|| real_start.elapsed());
        self.stats.dispatched_chunks += 1;
        match result {
            Ok(answers) => {
                self.queued_units -= take;
                let per_query = service / take as u32;
                self.limiter.observe(per_query, take, self.queued_units);
                let total = wait + service;
                let class_latency = match head.class {
                    QosClass::Interactive => &mut self.stats.interactive_latency,
                    QosClass::Bulk => &mut self.stats.bulk_latency,
                };
                for _ in 0..take {
                    class_latency.record(total);
                }
                self.stats.queue_wait += wait * take as u32;
                head.answers.extend(answers);
                head.cursor += take;
                if head.cursor == head.queries.len() {
                    self.completed.insert(head.ticket, Ok(head.answers));
                } else {
                    self.queues[qi].push_front(head);
                }
                take
            }
            Err(e) => {
                // The whole ticket aborts: release every unit it still held.
                self.queued_units -= remaining;
                self.completed.insert(head.ticket, Err(e));
                remaining
            }
        }
    }

    /// Submits a batch and blocks until it is answered or shed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when admission sheds the batch; any
    /// backend validation/dispatch error otherwise. Shed batches run no
    /// query.
    pub fn submit(
        &mut self,
        class: QosClass,
        queries: &[Query],
    ) -> Result<Vec<Answer>, ServeError> {
        let ticket = self.offer(class, queries)?;
        loop {
            if let Some(result) = self.collect(ticket) {
                return result;
            }
            // The ticket is still queued, so the queues are non-empty and
            // `step` always consumes at least one unit — progress is
            // guaranteed.
            self.step();
        }
    }

    /// Redeems a completed ticket: `None` while still queued, the batch's
    /// result once dispatched (each ticket redeems once).
    pub fn collect(&mut self, ticket: Ticket) -> Option<Result<Vec<Answer>, ServeError>> {
        self.completed.remove(&ticket.0)
    }

    /// Dispatches up to one limit's worth of queued work; returns the units
    /// consumed.
    pub fn poll(&mut self) -> usize {
        let budget = self.limiter.limit().max(1);
        let mut done = 0;
        while done < budget && self.queued_units > 0 {
            done += self.step();
        }
        done
    }

    /// Dispatches queued work until the clock reaches `deadline` (measured
    /// from the clock origin) or the queues empty — the driver loop of
    /// open-loop simulations, where work must not run ahead of the next
    /// arrival.
    pub fn poll_until(&mut self, deadline: Duration) -> usize {
        let mut done = 0;
        while self.queued_units > 0 && self.clock.now() < deadline {
            done += self.step();
        }
        done
    }

    /// Dispatches everything currently queued.
    pub fn drain(&mut self) -> usize {
        let mut done = 0;
        while self.queued_units > 0 {
            done += self.step();
        }
        done
    }

    /// Declares an arrival instant to a virtual clock (no-op on a real
    /// clock).
    pub fn advance_to(&mut self, at: Duration) {
        self.clock.advance_to(at);
    }

    /// Current clock reading, relative to the clock origin.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// The limiter's current limit, in work units.
    pub fn limit(&self) -> usize {
        self.limiter.limit()
    }

    /// Work units currently queued.
    pub fn queued_units(&self) -> usize {
        self.queued_units
    }

    /// Admission counters and per-class latency views.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The windowed latency view feeding the limiter.
    pub fn window(&self) -> &WindowedHistogram {
        self.limiter.window()
    }

    /// The fronted backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the fronted backend (e.g. to apply live updates
    /// between batches).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Unwraps the router, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }
}

/// Configures a [`Router`]; made by [`Router::over`].
#[derive(Debug)]
pub struct RouterBuilder<B: Backend> {
    backend: B,
    limiter: Limiter,
    clock: ServeClock,
    shed_factor: f64,
    fifo: bool,
}

impl<B: Backend> RouterBuilder<B> {
    /// Replaces the limiter (see [`Limiter::aimd`], [`Limiter::fixed`],
    /// [`Limiter::unlimited`]).
    pub fn limiter(mut self, limiter: Limiter) -> Self {
        self.limiter = limiter;
        self
    }

    /// Runs the router on a seeded [`VirtualClock`] — deterministic
    /// admission for tests and simulations.
    pub fn virtual_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = ServeClock::Virtual(clock);
        self
    }

    /// Sets the overload knee as a multiple of the current limit (clamped
    /// ≥ 1; non-finite disables shedding). A batch is shed when work is
    /// already queued and accepting it would leave more than
    /// `shed_factor × limit` units queued.
    pub fn shed_factor(mut self, shed_factor: f64) -> Self {
        self.shed_factor = shed_factor;
        self
    }

    /// Strict arrival-order dispatch, disabling class preemption — the
    /// "no QoS" baseline the overload bench compares against.
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Builds the router.
    pub fn finish(self) -> Router<B> {
        let shed_factor = if self.shed_factor.is_finite() {
            self.shed_factor.max(1.0)
        } else {
            f64::INFINITY
        };
        Router {
            backend: self.backend,
            limiter: self.limiter,
            clock: self.clock,
            queues: [VecDeque::new(), VecDeque::new()],
            completed: BTreeMap::new(),
            next_ticket: 0,
            shed_factor,
            fifo: self.fifo,
            queued_units: 0,
            stats: RouterStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::VertexId;

    /// A backend that answers every query with its index-independent stub
    /// and records the chunk sizes it was handed.
    #[derive(Debug, Default)]
    struct EchoBackend {
        chunks: Vec<usize>,
    }

    impl Backend for EchoBackend {
        fn validate_batch(&self, queries: &[Query]) -> Result<(), ServeError> {
            for q in queries {
                if let Query::Distance { bound, .. } = q {
                    if bound.is_nan() || *bound < 0.0 {
                        return Err(ServeError::InvalidBound { bound: *bound });
                    }
                }
            }
            Ok(())
        }

        fn dispatch(&mut self, queries: &[Query]) -> Result<Vec<Answer>, ServeError> {
            self.chunks.push(queries.len());
            Ok(queries
                .iter()
                .map(|_| Answer::Distance(Some(1.0)))
                .collect())
        }
    }

    fn point(i: usize) -> Query {
        Query::Distance {
            source: VertexId(i),
            target: VertexId(i + 1),
            bound: f64::INFINITY,
        }
    }

    fn ball(i: usize) -> Query {
        Query::Ball {
            source: VertexId(i),
            radius: 1.0,
        }
    }

    #[test]
    fn qos_classification() {
        assert_eq!(QosClass::of(&point(0)), QosClass::Interactive);
        assert_eq!(
            QosClass::of(&Query::KNearest {
                source: VertexId(0),
                k: 3
            }),
            QosClass::Interactive
        );
        assert_eq!(QosClass::of(&ball(0)), QosClass::Bulk);
        assert_eq!(
            QosClass::of(&Query::StretchAudit {
                source: VertexId(0),
                target: VertexId(1)
            }),
            QosClass::Bulk
        );
        assert_eq!(
            QosClass::of_batch(&[point(0), point(1)]),
            QosClass::Interactive
        );
        assert_eq!(QosClass::of_batch(&[point(0), ball(1)]), QosClass::Bulk);
        assert_eq!(QosClass::of_batch(&[]), QosClass::Interactive);
    }

    #[test]
    fn unlimited_router_passes_batches_through_whole() {
        let mut router = Router::over(EchoBackend::default())
            .limiter(Limiter::unlimited())
            .fifo(true)
            .finish();
        let queries: Vec<Query> = (0..100).map(point).collect();
        let answers = router.submit(QosClass::Interactive, &queries).unwrap();
        assert_eq!(answers.len(), 100);
        assert_eq!(router.backend().chunks, vec![100], "one whole chunk");
        assert_eq!(router.stats().admitted, 100);
        assert_eq!(router.stats().shed, 0);
        assert_eq!(router.stats().queued, 0, "nothing waited");
        // Empty batches answer empty without queueing.
        assert!(router.submit(QosClass::Bulk, &[]).unwrap().is_empty());
    }

    #[test]
    fn limited_router_chunks_batches_and_interactive_preempts_bulk() {
        let mut router = Router::over(EchoBackend::default())
            .limiter(Limiter::fixed(8))
            .shed_factor(f64::INFINITY)
            .virtual_clock(VirtualClock::seeded(1))
            .finish();
        let bulk: Vec<Query> = (0..32).map(ball).collect();
        let bulk_ticket = router.offer(QosClass::Bulk, &bulk).unwrap();
        let interactive: Vec<Query> = (0..4).map(point).collect();
        let interactive_ticket = router.offer(QosClass::Interactive, &interactive).unwrap();
        router.drain();
        // The interactive batch arrived second but dispatched first.
        assert_eq!(router.backend().chunks[0], 4, "interactive preempts");
        assert!(router.backend().chunks[1..].iter().all(|&c| c <= 8));
        let a = router.collect(interactive_ticket).unwrap().unwrap();
        assert_eq!(a.len(), 4);
        let b = router.collect(bulk_ticket).unwrap().unwrap();
        assert_eq!(b.len(), 32, "chunked ticket reassembles in order");
        assert!(router.collect(bulk_ticket).is_none(), "redeems once");
        assert_eq!(router.stats().queued, 4, "interactive waited behind bulk");
        assert!(router.stats().interactive_latency.total() == 4);
        assert!(router.stats().bulk_latency.total() == 32);
    }

    #[test]
    fn fifo_mode_respects_arrival_order() {
        let mut router = Router::over(EchoBackend::default())
            .limiter(Limiter::fixed(8))
            .shed_factor(f64::INFINITY)
            .virtual_clock(VirtualClock::seeded(1))
            .fifo(true)
            .finish();
        let bulk: Vec<Query> = (0..16).map(ball).collect();
        router.offer(QosClass::Bulk, &bulk).unwrap();
        router.offer(QosClass::Interactive, &[point(0)]).unwrap();
        router.drain();
        // Strict arrival order: the bulk batch (first in) fully dispatches
        // before the interactive query.
        assert_eq!(router.backend().chunks, vec![8, 8, 1]);
    }

    #[test]
    fn overload_sheds_with_a_retry_hint_and_stays_typed() {
        let mut router = Router::over(EchoBackend::default())
            .limiter(Limiter::fixed(4))
            .shed_factor(2.0)
            .virtual_clock(VirtualClock::seeded(7))
            .finish();
        // Knee = 2 × 4 = 8 units: a 6-unit batch fits…
        router
            .offer(QosClass::Bulk, &(0..6).map(ball).collect::<Vec<_>>())
            .unwrap();
        // …but another 6 units would leave 12 > 8 queued: shed.
        let err = router
            .offer(QosClass::Bulk, &(0..6).map(ball).collect::<Vec<_>>())
            .unwrap_err();
        let ServeError::Overloaded { retry_after_hint } = err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert!(retry_after_hint > Duration::ZERO);
        assert_eq!(router.stats().shed, 6);
        assert_eq!(router.stats().admitted, 6);
        // Shed batches ran nothing.
        assert!(router.backend().chunks.is_empty());
        router.drain();
        assert_eq!(router.stats().admitted, 6);
        assert_eq!(router.queued_units(), 0);
        // With the backlog drained, a new batch is admitted again.
        router
            .offer(QosClass::Bulk, &(0..6).map(ball).collect::<Vec<_>>())
            .unwrap();
    }

    #[test]
    fn idle_router_admits_batches_larger_than_the_knee() {
        // Default router: AIMD limit 64, knee 2 × 64 = 128 units. An idle
        // router must admit a 200-query batch — every time — and chunk it
        // at dispatch instead of shedding it and shrinking the limit.
        let mut router = Router::over(EchoBackend::default()).finish();
        let big: Vec<Query> = (0..200).map(point).collect();
        for _ in 0..5 {
            let answers = router.submit(QosClass::Interactive, &big).unwrap();
            assert_eq!(answers.len(), 200);
        }
        assert_eq!(router.stats().shed, 0);
        assert_eq!(router.stats().admitted, 1000);
        assert!(
            router.backend().chunks.len() >= 10,
            "dispatch chunks each batch to the limit"
        );
        let medium: Vec<Query> = (0..100).map(point).collect();
        router.submit(QosClass::Interactive, &medium).unwrap();
        // The knee still bounds backlog: with 200 units queued, another
        // 200 would leave 400 > 128 waiting.
        router.offer(QosClass::Interactive, &big).unwrap();
        assert!(matches!(
            router.offer(QosClass::Interactive, &big),
            Err(ServeError::Overloaded { .. })
        ));
        assert_eq!(router.stats().shed, 200);
    }

    #[test]
    fn invalid_batches_fail_validation_not_admission() {
        let mut router = Router::over(EchoBackend::default()).finish();
        let err = router
            .submit(
                QosClass::Interactive,
                &[Query::Distance {
                    source: VertexId(0),
                    target: VertexId(1),
                    bound: -1.0,
                }],
            )
            .unwrap_err();
        assert_eq!(err, ServeError::InvalidBound { bound: -1.0 });
        assert_eq!(router.stats().admitted, 0);
        assert_eq!(router.stats().shed, 0);
    }

    #[test]
    fn queue_wait_accrues_under_the_virtual_clock() {
        let mut router = Router::over(EchoBackend::default())
            .limiter(Limiter::fixed(2))
            .shed_factor(f64::INFINITY)
            .virtual_clock(VirtualClock::seeded(3).with_jitter(0.0))
            .finish();
        router
            .offer(QosClass::Bulk, &(0..4).map(ball).collect::<Vec<_>>())
            .unwrap();
        router.offer(QosClass::Interactive, &[point(0)]).unwrap();
        router.drain();
        // Preemption dispatched the interactive query first, so it never
        // waited — but the bulk chunks queued behind it (and each other)
        // accrued wait, visible in both the counter and the class latency.
        assert_eq!(router.backend().chunks[0], 1, "interactive first");
        assert!(router.stats().queue_wait > Duration::ZERO);
        let interactive = router.stats().interactive_latency.max().unwrap();
        let bulk = router.stats().bulk_latency.max().unwrap();
        assert!(
            bulk > interactive,
            "queued bulk work carries the wait: {bulk:?} vs {interactive:?}"
        );
    }

    #[test]
    fn identical_configurations_make_identical_decisions() {
        let run = || {
            let mut router = Router::over(EchoBackend::default())
                .limiter(Limiter::aimd(AimdLimit::new(8).with_range(1, 64)))
                .shed_factor(1.5)
                .virtual_clock(VirtualClock::seeded(11))
                .finish();
            let mut outcomes = Vec::new();
            for round in 0..40 {
                let batch: Vec<Query> = if round % 3 == 0 {
                    (0..12).map(ball).collect()
                } else {
                    (0..6).map(point).collect()
                };
                let class = QosClass::of_batch(&batch);
                match router.offer(class, &batch) {
                    Ok(_) => outcomes.push(true),
                    Err(ServeError::Overloaded { .. }) => outcomes.push(false),
                    Err(e) => panic!("unexpected {e:?}"),
                }
                if round % 4 == 3 {
                    router.poll();
                }
            }
            router.drain();
            (outcomes, router.stats().clone(), router.limit())
        };
        let (a_out, a_stats, a_limit) = run();
        let (b_out, b_stats, b_limit) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_limit, b_limit);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.shed > 0, "the scenario must actually shed");
    }
}
