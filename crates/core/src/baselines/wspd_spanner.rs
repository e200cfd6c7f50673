//! The WSPD-based `(1 + ε)`-spanner for Euclidean point sets.
//!
//! For a well-separated pair decomposition with separation `s = 4 + 8/ε`,
//! connecting one representative pair per WSPD pair yields a `(1+ε)`-spanner
//! with `O((1/ε)^d · n)` edges (Callahan–Kosaraju). This is the classical
//! Euclidean baseline with near-optimal size but weight far above the greedy
//! spanner's — exactly the gap the experiments of Section 1.2 report.

use spanner_graph::WeightedGraph;
use spanner_metric::wspd::{well_separated_pairs, SplitTree};
use spanner_metric::{EuclideanSpace, MetricSpace};

use crate::error::{validate_epsilon, SpannerError};

/// The separation factor used for a target stretch of `1 + ε`.
pub fn separation_for_epsilon(epsilon: f64) -> f64 {
    4.0 + 8.0 / epsilon
}

/// The WSPD engine behind the `Wspd` implementation of
/// [`crate::algorithm::SpannerAlgorithm`]; reach it through
/// `Spanner::wspd().epsilon(eps).build(&points)`.
pub(crate) fn run_wspd<const D: usize>(
    space: &EuclideanSpace<D>,
    epsilon: f64,
) -> Result<WeightedGraph, SpannerError> {
    validate_epsilon(epsilon)?;
    let n = space.len();
    if n <= 1 {
        return Ok(WeightedGraph::new(n));
    }
    let tree = SplitTree::build(space);
    let pairs = well_separated_pairs(&tree, separation_for_epsilon(epsilon));
    let mut keys: Vec<(usize, usize)> = pairs
        .iter()
        .map(|p| {
            let (a, b) = (p.rep_a, p.rep_b);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .filter(|&(a, b)| a != b)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let edges = keys
        .into_iter()
        .map(|(a, b)| (a, b, space.distance(a, b)))
        .filter(|&(_, _, d)| d > 0.0);
    Ok(WeightedGraph::from_edges(n, edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::max_stretch_all_pairs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_metric::generators::{clustered_points, uniform_points};

    #[test]
    fn rejects_invalid_epsilon() {
        let s = EuclideanSpace::from_coords([[0.0, 0.0], [1.0, 1.0]]);
        assert!(matches!(
            run_wspd(&s, 0.0),
            Err(SpannerError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            run_wspd(&s, 1.5),
            Err(SpannerError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn tiny_point_sets() {
        let empty = EuclideanSpace::<2>::new(vec![]);
        assert_eq!(run_wspd(&empty, 0.5).unwrap().num_edges(), 0);
        let single = EuclideanSpace::from_coords([[0.0, 0.0]]);
        assert_eq!(run_wspd(&single, 0.5).unwrap().num_edges(), 0);
        let pair = EuclideanSpace::from_coords([[0.0, 0.0], [1.0, 0.0]]);
        assert_eq!(run_wspd(&pair, 0.5).unwrap().num_edges(), 1);
    }

    #[test]
    fn wspd_spanner_meets_stretch_target() {
        let mut rng = SmallRng::seed_from_u64(51);
        let s = uniform_points::<2, _>(50, &mut rng);
        let complete = s.to_complete_graph();
        for eps in [0.25, 0.5, 0.9] {
            let h = run_wspd(&s, eps).unwrap();
            let stretch = max_stretch_all_pairs(&complete, &h);
            assert!(
                stretch <= 1.0 + eps + 1e-9,
                "eps = {eps}: stretch {stretch} too large"
            );
        }
    }

    #[test]
    fn wspd_spanner_is_subquadratic_in_size() {
        // The WSPD has O((1/ε)^d · n) pairs; with ε = 0.5 that constant is in
        // the hundreds, so sparsity shows up as sub-quadratic *growth* rather
        // than as a small absolute count at these sizes.
        let mut rng = SmallRng::seed_from_u64(52);
        let small_n = 100;
        let large_n = 400;
        let small = run_wspd(&uniform_points::<2, _>(small_n, &mut rng), 0.5)
            .unwrap()
            .num_edges();
        let large = run_wspd(&uniform_points::<2, _>(large_n, &mut rng), 0.5)
            .unwrap()
            .num_edges();
        assert!(small >= small_n - 1, "must connect the point set");
        assert!(large >= large_n - 1, "must connect the point set");
        let growth = large as f64 / small as f64;
        // Quadratic growth would be ~16×; the WSPD is still partly in its
        // saturated (all-pairs) regime at n = 100, so the observed factor sits
        // between linear (4×) and quadratic.
        assert!(growth < 13.0, "growth factor {growth} looks quadratic");
    }

    #[test]
    fn smaller_epsilon_means_more_edges() {
        let mut rng = SmallRng::seed_from_u64(53);
        let s = clustered_points::<2, _>(80, 4, 0.05, &mut rng);
        let coarse = run_wspd(&s, 0.9).unwrap().num_edges();
        let fine = run_wspd(&s, 0.2).unwrap().num_edges();
        assert!(fine >= coarse);
    }

    #[test]
    fn separation_factor_grows_as_epsilon_shrinks() {
        assert!(separation_for_epsilon(0.1) > separation_for_epsilon(0.5));
        assert!(separation_for_epsilon(0.5) > 4.0);
    }
}
