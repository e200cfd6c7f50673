//! The `SPANNER_THREADS` environment override, in a binary of its own.
//!
//! This is deliberately the only test in this file: `std::env::set_var`
//! races against concurrent `getenv` calls under the default multi-threaded
//! test harness, so the override is exercised in a process where nothing
//! else runs. The env var is set before any construction, never changed
//! afterwards, and the assertions cover both halves of the precedence rule
//! in [`greedy_spanner::SpannerConfig::resolve_threads`]. The override
//! reaches metric inputs, the only ones that run more than one worker;
//! graph inputs run the sequential loop whatever it says.

use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::Spanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::erdos_renyi_connected;
use spanner_metric::generators::uniform_points;
use spanner_metric::MetricSpace;

#[test]
fn spanner_threads_env_is_an_equivalent_override() {
    std::env::set_var("SPANNER_THREADS", "4");

    let mut rng = SmallRng::seed_from_u64(4242);
    let points = uniform_points::<2, _>(40, &mut rng);
    let reference = greedy_spanner_reference(&points.to_complete_graph(), 1.5).unwrap();

    // Config leaves `threads` at 0 → the env value applies.
    let via_env = Spanner::greedy().stretch(1.5).build(&points).unwrap();
    assert_eq!(via_env.stats.threads_used, 4, "env override must apply");

    // An explicit builder value beats the env override.
    let via_explicit = Spanner::greedy()
        .stretch(1.5)
        .threads(2)
        .build(&points)
        .unwrap();
    assert_eq!(
        via_explicit.stats.threads_used, 2,
        "explicit config must beat the env override"
    );

    // And neither changes the output — the determinism guarantee.
    assert_eq!(via_env.spanner, *reference.spanner());
    assert_eq!(via_explicit.spanner, *reference.spanner());

    // A graph input runs the sequential loop under the override too.
    let g = erdos_renyi_connected(40, 0.3, 1.0..10.0, &mut rng);
    let graph_build = Spanner::greedy().stretch(2.0).build(&g).unwrap();
    assert_eq!(graph_build.stats.threads_used, 1);
    assert_eq!(graph_build.stats.batches, 0);
    assert_eq!(
        graph_build.spanner,
        *greedy_spanner_reference(&g, 2.0).unwrap().spanner()
    );
}
