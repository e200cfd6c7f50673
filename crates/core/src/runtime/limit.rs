//! Adaptive concurrency limits, in the style of the Netflix/Sui
//! concurrency limiters.
//!
//! A limit is a number of *work units* (queries) the runtime will dispatch
//! per scheduling round. [`AimdLimit`] searches for the knee of the
//! latency/throughput curve from observed samples, TCP-style: grow by a
//! constant while latency is under target and the limit is actually being
//! used, back off multiplicatively the moment a sample breaches the target
//! (or a shed happens).
//!
//! It is fed *windowed* p50 signals ([`WindowedHistogram`]) rather than
//! lifetime aggregates, and is a plain deterministic state machine:
//! identical sample sequences produce identical limit trajectories, which
//! is what makes shed decisions reproducible under the virtual clock.

use std::time::Duration;

use super::window::WindowedHistogram;

/// One observation fed to an [`AimdLimit`] after a dispatch (or a shed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct LimitSample {
    /// Mean per-query service latency of the dispatched chunk.
    per_query: Duration,
    /// Work units (queries) in the chunk.
    units: usize,
    /// Work units still queued behind it when the sample was taken.
    queued: usize,
    /// `true` when this sample reports a shed batch instead of a dispatch.
    shed: bool,
}

/// Fallback latency target when neither an explicit target nor a windowed
/// median is available yet.
const DEFAULT_TARGET: Duration = Duration::from_millis(1);

/// Additive-increase / multiplicative-decrease limit.
///
/// A sample breaches when its per-query latency exceeds the target — an
/// explicit [`AimdLimit::with_target`], or `tolerance ×` the windowed
/// median when none is set — or when it reports a shed. Breach ⇒ the limit
/// shrinks by the backoff ratio; a clean sample that actually saturated the
/// limit ⇒ it grows by the additive step. All parameters are clamped into
/// valid ranges at construction, never at sample time.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdLimit {
    limit: f64,
    min: usize,
    max: usize,
    increase: f64,
    backoff: f64,
    target: Option<Duration>,
    tolerance: f64,
}

impl AimdLimit {
    /// An AIMD limit starting at `initial` units (clamped ≥ 1), with range
    /// `[1, 1024]`, step `+1`, backoff `×0.9`, and a `2× windowed median`
    /// adaptive target.
    pub fn new(initial: usize) -> Self {
        AimdLimit {
            limit: initial.max(1) as f64,
            min: 1,
            max: 1024,
            increase: 1.0,
            backoff: 0.9,
            target: None,
            tolerance: 2.0,
        }
    }

    /// Sets the `[min, max]` unit range (min clamped ≥ 1, max ≥ min); the
    /// current limit is clamped into it.
    pub fn with_range(mut self, min: usize, max: usize) -> Self {
        self.min = min.max(1);
        self.max = max.max(self.min);
        self.limit = self.limit.clamp(self.min as f64, self.max as f64);
        self
    }

    /// Fixes an explicit per-query latency target instead of the adaptive
    /// windowed-median target.
    pub fn with_target(mut self, target: Duration) -> Self {
        self.target = Some(target.max(Duration::from_nanos(1)));
        self
    }

    /// Sets the adaptive-target tolerance (target = `tolerance × windowed
    /// p50`; clamped ≥ 1).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = if tolerance.is_finite() {
            tolerance.max(1.0)
        } else {
            2.0
        };
        self
    }

    /// Sets the additive step (clamped > 0).
    pub fn with_increase(mut self, increase: f64) -> Self {
        self.increase = if increase.is_finite() && increase > 0.0 {
            increase
        } else {
            1.0
        };
        self
    }

    /// Sets the multiplicative backoff ratio (clamped into `(0, 1)`).
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        self.backoff = if backoff.is_finite() {
            backoff.clamp(0.1, 0.999)
        } else {
            0.9
        };
        self
    }

    fn effective_target(&self, window: &WindowedHistogram) -> Duration {
        if let Some(t) = self.target {
            return t;
        }
        match window.p50() {
            Some(p50) => p50.mul_f64(self.tolerance),
            None => DEFAULT_TARGET,
        }
    }

    fn on_sample(&mut self, sample: LimitSample, window: &WindowedHistogram) {
        let breach = sample.shed || sample.per_query > self.effective_target(window);
        if breach {
            self.limit = (self.limit * self.backoff).max(self.min as f64);
        } else if sample.units + sample.queued >= self.limit as usize {
            // Only probe upward when the limit is actually the bottleneck.
            self.limit = (self.limit + self.increase).min(self.max as f64);
        }
    }

    /// The current limit, in work units (always at least 1).
    pub fn limit(&self) -> usize {
        (self.limit as usize).max(self.min)
    }
}

/// Which limit a [`Limiter`] enforces.
#[derive(Debug)]
enum Policy {
    /// No limit: infinite knee, whole-batch dispatch.
    Unlimited,
    /// A constant limit (at least 1 unit).
    Fixed(usize),
    /// An adaptive AIMD limit.
    Aimd(AimdLimit),
}

/// The runtime's admission limiter: unlimited, a fixed limit, or an
/// [`AimdLimit`] fed from a [`WindowedHistogram`] of recent per-query
/// latencies.
///
/// The `unlimited` construction never sheds, never splits, and skips
/// latency bookkeeping entirely.
#[derive(Debug)]
pub struct Limiter {
    policy: Policy,
    window: WindowedHistogram,
}

impl Limiter {
    fn with_policy(policy: Policy) -> Self {
        Limiter {
            policy,
            window: WindowedHistogram::default(),
        }
    }

    /// A limiter driven by [`AimdLimit`].
    pub fn aimd(algorithm: AimdLimit) -> Self {
        Limiter::with_policy(Policy::Aimd(algorithm))
    }

    /// A limiter pinned to a constant limit of `limit` units (clamped ≥ 1)
    /// — no adaptation. Useful to pin behavior in tests and as a baseline
    /// in benches.
    pub fn fixed(limit: usize) -> Self {
        Limiter::with_policy(Policy::Fixed(limit.max(1)))
    }

    /// No limit at all: infinite knee, whole-batch dispatch, no latency
    /// bookkeeping.
    pub fn unlimited() -> Self {
        Limiter::with_policy(Policy::Unlimited)
    }

    /// Is this the unlimited construction?
    pub fn is_unlimited(&self) -> bool {
        matches!(self.policy, Policy::Unlimited)
    }

    /// The current limit in work units (`usize::MAX` when unlimited).
    pub fn limit(&self) -> usize {
        match &self.policy {
            Policy::Unlimited => usize::MAX,
            Policy::Fixed(limit) => *limit,
            Policy::Aimd(aimd) => aimd.limit(),
        }
    }

    /// Records a dispatched chunk: `units` queries at `per_query` mean
    /// service latency with `queued` units still waiting. Updates the
    /// window, then the algorithm.
    pub fn observe(&mut self, per_query: Duration, units: usize, queued: usize) {
        if self.is_unlimited() {
            return;
        }
        for _ in 0..units {
            self.window.record(per_query);
        }
        self.on_sample(LimitSample {
            per_query,
            units,
            queued,
            shed: false,
        });
    }

    /// Records a shed batch (no latency — the work never ran).
    pub fn observe_shed(&mut self, units: usize, queued: usize) {
        self.on_sample(LimitSample {
            per_query: Duration::ZERO,
            units,
            queued,
            shed: true,
        });
    }

    fn on_sample(&mut self, sample: LimitSample) {
        if let Policy::Aimd(aimd) = &mut self.policy {
            aimd.on_sample(sample, &self.window);
        }
    }

    /// The windowed latency view feeding the algorithm.
    pub fn window(&self) -> &WindowedHistogram {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(per_query_us: u64, units: usize, queued: usize) -> LimitSample {
        LimitSample {
            per_query: Duration::from_micros(per_query_us),
            units,
            queued,
            shed: false,
        }
    }

    #[test]
    fn aimd_grows_when_saturated_and_backs_off_on_breach() {
        let window = WindowedHistogram::default();
        let mut aimd = AimdLimit::new(10)
            .with_range(2, 64)
            .with_target(Duration::from_micros(500));
        // Fast + saturated: additive growth.
        aimd.on_sample(sample(100, 10, 5), &window);
        assert_eq!(aimd.limit(), 11);
        // Fast but underutilized: no growth.
        aimd.on_sample(sample(100, 1, 0), &window);
        assert_eq!(aimd.limit(), 11);
        // Slow: multiplicative decrease.
        aimd.on_sample(sample(5000, 10, 5), &window);
        assert_eq!(aimd.limit(), 9);
        // Repeated breaches floor at min.
        for _ in 0..100 {
            aimd.on_sample(sample(5000, 10, 5), &window);
        }
        assert_eq!(aimd.limit(), 2);
        // Repeated clean saturation ceilings at max.
        for _ in 0..1000 {
            aimd.on_sample(sample(100, 64, 64), &window);
        }
        assert_eq!(aimd.limit(), 64);
    }

    #[test]
    fn aimd_adaptive_target_follows_the_window() {
        let mut window = WindowedHistogram::new(2, 8);
        for _ in 0..16 {
            window.record(Duration::from_micros(100));
        }
        let mut aimd = AimdLimit::new(10).with_tolerance(2.0);
        // 150µs against a 100µs windowed median is within 2× tolerance.
        aimd.on_sample(sample(150, 10, 10), &window);
        assert_eq!(aimd.limit(), 11);
        // 10× the median breaches the adaptive target.
        aimd.on_sample(sample(1000, 10, 10), &window);
        assert!(aimd.limit() < 11);
    }

    #[test]
    fn shed_samples_back_both_algorithms_off() {
        // AIMD backs off on a shed; a fixed limit has nothing to adapt.
        let mut aimd = Limiter::aimd(AimdLimit::new(32));
        aimd.observe_shed(8, 100);
        assert!(aimd.limit() < 32);
        let mut fixed = Limiter::fixed(32);
        for _ in 0..20 {
            fixed.observe_shed(8, 100);
        }
        assert_eq!(fixed.limit(), 32);
    }

    #[test]
    fn limiter_facade_and_gauge() {
        let mut limiter = Limiter::aimd(AimdLimit::new(4));
        assert!(!limiter.is_unlimited());
        assert_eq!(limiter.limit(), 4);
        limiter.observe(Duration::from_micros(50), 4, 0);
        assert_eq!(limiter.window().total(), 4);

        let mut unlimited = Limiter::unlimited();
        assert!(unlimited.is_unlimited());
        assert_eq!(unlimited.limit(), usize::MAX);
        unlimited.observe(Duration::from_micros(50), 4, 0);
        assert_eq!(
            unlimited.window().total(),
            0,
            "unlimited skips latency bookkeeping"
        );
        let mut fixed = Limiter::fixed(7);
        assert_eq!(fixed.limit(), 7);
        fixed.observe(Duration::from_micros(50), 7, 0);
        assert_eq!(fixed.limit(), 7, "a fixed limit never adapts");
        assert_eq!(Limiter::fixed(0).limit(), 1, "fixed clamps to 1");
    }
}
