//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a deterministic property-testing harness behind the subset of the
//! proptest 1.x API the test suite uses: the [`Strategy`] trait with
//! `prop_map`, range strategies, tuple strategies, [`ProptestConfig`], and
//! the `proptest!` / `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from real proptest: cases are generated from a seed derived
//! from the test name (fully deterministic across runs), and failing cases
//! panic immediately without shrinking. A failing case prints the property
//! name, the case index and the case seed to stderr as the panic unwinds.
//!
//! The `PROPTEST_CASES` environment variable overrides every property's
//! configured case count, so a soak run is
//! `PROPTEST_CASES=512 cargo test --test <suite>`. Case `i` of a property
//! is the same at every case count, so a soak only adds cases.

#![forbid(unsafe_code)]

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration (subset: case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count to run: `PROPTEST_CASES` when set, the configured
    /// `cases` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `PROPTEST_CASES` is set but not a non-negative integer, so
    /// a mistyped soak fails loudly instead of running the default count.
    pub fn resolved_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_CASES={v:?} is not a case count")),
            Err(_) => self.cases,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic value source handed to strategies.
pub struct TestRunner {
    rng: SmallRng,
}

impl TestRunner {
    /// Creates the runner for one case of a named property.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        TestRunner {
            rng: SmallRng::seed_from_u64(case_seed(test_name, case)),
        }
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// The RNG seed of one case of a named property: FNV-1a over the name,
/// mixed with the case index, so every property gets its own reproducible
/// stream.
pub fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Reports a failing case: held across one case's body, it prints the
/// property name, case index and seed to stderr if the body panics — while
/// the panic unwinds, before it reaches the test harness.
pub struct CaseGuard {
    name: &'static str,
    case: u32,
    cases: u32,
}

impl CaseGuard {
    /// Arms the report for case `case` of `cases` of property `name`.
    pub fn new(name: &'static str, case: u32, cases: u32) -> Self {
        CaseGuard { name, case, cases }
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: property `{}` failed at case {} of {} (seed {:#018x})",
                self.name,
                self.case,
                self.cases,
                case_seed(self.name, self.case)
            );
        }
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, runner: &mut TestRunner) -> f64 {
        runner.rng().gen_range(self.clone())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, runner: &mut TestRunner) -> Self::Value {
        (self.0.generate(runner), self.1.generate(runner))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, runner: &mut TestRunner) -> Self::Value {
        (
            self.0.generate(runner),
            self.1.generate(runner),
            self.2.generate(runner),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn generate(&self, runner: &mut TestRunner) -> Self::Value {
        (
            self.0.generate(runner),
            self.1.generate(runner),
            self.2.generate(runner),
            self.3.generate(runner),
        )
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRunner};
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property violated: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
}

/// Declares deterministic property tests (subset of proptest's macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (
        config = $config:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = config.resolved_cases();
                for case in 0..cases {
                    let _report = $crate::CaseGuard::new(stringify!($name), case, cases);
                    let mut runner = $crate::TestRunner::for_case(stringify!($name), case);
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut runner); )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut runner = TestRunner::for_case("ranges", 0);
        let strat = (3usize..9, 0u64..5).prop_map(|(a, b)| a as u64 + b);
        for _ in 0..100 {
            let v = strat.generate(&mut runner);
            assert!((3..14).contains(&v));
        }
    }

    #[test]
    fn runners_are_deterministic_per_name_and_case() {
        let a = (0u64..1_000_000).generate(&mut TestRunner::for_case("x", 3));
        let b = (0u64..1_000_000).generate(&mut TestRunner::for_case("x", 3));
        let c = (0u64..1_000_000).generate(&mut TestRunner::for_case("x", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn case_seeds_match_the_runner_streams() {
        let mut a = TestRunner::for_case("y", 7);
        let mut b = TestRunner {
            rng: rand::SeedableRng::seed_from_u64(crate::case_seed("y", 7)),
        };
        assert_eq!(
            (0u64..u64::MAX).generate(&mut a),
            (0u64..u64::MAX).generate(&mut b)
        );
    }

    #[test]
    fn a_failing_case_reports_and_still_panics() {
        let outcome = std::panic::catch_unwind(|| {
            let _report = crate::CaseGuard::new("always_fails", 3, 8);
            panic!("property violated");
        });
        assert!(outcome.is_err(), "the guard must not swallow the panic");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro parses config, doc comments, and multiple arguments.
        #[test]
        fn macro_generates_cases(n in 1usize..10, scale in 1u32..4) {
            prop_assert!(n < 10);
            prop_assert_eq!(n * scale as usize / scale as usize, n);
        }
    }
}
