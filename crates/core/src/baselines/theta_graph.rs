//! Θ-graph and Yao-graph spanners for planar Euclidean point sets.
//!
//! Both constructions partition the plane around every point into `k` equal
//! cones and keep one edge per non-empty cone: the Yao graph keeps the
//! Euclidean-nearest neighbour in the cone, the Θ-graph keeps the neighbour
//! whose projection onto the cone bisector is nearest. For `k > 8` cones both
//! are `t`-spanners with `t = 1 / (1 − 2·sin(π/k))`; they are the classical
//! "cheap" geometric spanners the greedy construction is compared against in
//! the experiments of Section 1.2.

use spanner_graph::WeightedGraph;
use spanner_metric::EuclideanSpace;

use crate::error::SpannerError;

/// The stretch factor guaranteed by a Θ- or Yao-graph with `k > 8` cones:
/// `1 / (1 − 2·sin(π/k))`.
pub fn cone_stretch_bound(num_cones: usize) -> f64 {
    let s = (std::f64::consts::PI / num_cones as f64).sin();
    1.0 / (1.0 - 2.0 * s)
}

pub(crate) fn build_cone_graph(
    space: &EuclideanSpace<2>,
    num_cones: usize,
    theta_projection: bool,
) -> Result<WeightedGraph, SpannerError> {
    if num_cones < 2 {
        return Err(SpannerError::InvalidK);
    }
    let n = space.points().len();
    if n == 0 {
        return Ok(WeightedGraph::new(0));
    }
    let cone_angle = 2.0 * std::f64::consts::PI / num_cones as f64;
    let mut chosen: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        let pu = space.point(u);
        // Best candidate per cone: (measure, vertex).
        let mut best: Vec<Option<(f64, usize)>> = vec![None; num_cones];
        for v in 0..n {
            if v == u {
                continue;
            }
            let pv = space.point(v);
            let dx = pv[0] - pu[0];
            let dy = pv[1] - pu[1];
            let dist = (dx * dx + dy * dy).sqrt();
            if dist == 0.0 {
                continue; // coincident point; skip (no useful edge)
            }
            let mut angle = dy.atan2(dx);
            if angle < 0.0 {
                angle += 2.0 * std::f64::consts::PI;
            }
            let cone = ((angle / cone_angle) as usize).min(num_cones - 1);
            let measure = if theta_projection {
                // Distance of v's projection onto the cone bisector.
                let bisector = (cone as f64 + 0.5) * cone_angle;
                dx * bisector.cos() + dy * bisector.sin()
            } else {
                dist
            };
            if best[cone].is_none_or(|(m, _)| measure < m) {
                best[cone] = Some((measure, v));
            }
        }
        for candidate in best.into_iter().flatten() {
            let (_, v) = candidate;
            let key = if u < v { (u, v) } else { (v, u) };
            chosen.push(key);
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    let edges = chosen
        .into_iter()
        .map(|(u, v)| (u, v, space.point(u).distance(space.point(v))));
    Ok(WeightedGraph::from_edges(n, edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::max_stretch_all_pairs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_metric::generators::{circle_points, uniform_points};
    use spanner_metric::MetricSpace;

    /// Θ-graph via the engine (`Spanner::theta_graph()` in real code).
    fn theta(space: &EuclideanSpace<2>, cones: usize) -> Result<WeightedGraph, SpannerError> {
        build_cone_graph(space, cones, true)
    }

    /// Yao graph via the engine (`Spanner::yao_graph()` in real code).
    fn yao(space: &EuclideanSpace<2>, cones: usize) -> Result<WeightedGraph, SpannerError> {
        build_cone_graph(space, cones, false)
    }

    #[test]
    fn rejects_too_few_cones() {
        let s = EuclideanSpace::from_coords([[0.0, 0.0], [1.0, 1.0]]);
        assert!(matches!(theta(&s, 1), Err(SpannerError::InvalidK)));
        assert!(matches!(yao(&s, 0), Err(SpannerError::InvalidK)));
    }

    #[test]
    fn empty_and_singleton_point_sets() {
        let empty = EuclideanSpace::<2>::new(vec![]);
        assert_eq!(theta(&empty, 8).unwrap().num_edges(), 0);
        let single = EuclideanSpace::from_coords([[0.5, 0.5]]);
        assert_eq!(theta(&single, 8).unwrap().num_edges(), 0);
    }

    #[test]
    fn cone_graphs_have_linear_size() {
        let mut rng = SmallRng::seed_from_u64(41);
        let s = uniform_points::<2, _>(120, &mut rng);
        for k in [6usize, 10, 16] {
            let theta = theta(&s, k).unwrap();
            let yao = yao(&s, k).unwrap();
            assert!(theta.num_edges() <= 120 * k);
            assert!(yao.num_edges() <= 120 * k);
            assert!(theta.num_edges() >= 119, "must at least connect the points");
            assert!(yao.num_edges() >= 119);
        }
    }

    #[test]
    fn theta_graph_meets_its_stretch_bound() {
        let mut rng = SmallRng::seed_from_u64(42);
        let s = uniform_points::<2, _>(60, &mut rng);
        let complete = s.to_complete_graph();
        for k in [10usize, 14] {
            let bound = cone_stretch_bound(k);
            let theta = theta(&s, k).unwrap();
            let stretch = max_stretch_all_pairs(&complete, &theta);
            assert!(
                stretch <= bound + 1e-9,
                "k = {k}: stretch {stretch} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn yao_graph_meets_its_stretch_bound() {
        let mut rng = SmallRng::seed_from_u64(43);
        let s = circle_points(50, 0.2, &mut rng);
        let complete = s.to_complete_graph();
        let k = 12;
        let yao = yao(&s, k).unwrap();
        let stretch = max_stretch_all_pairs(&complete, &yao);
        assert!(stretch <= cone_stretch_bound(k) + 1e-9);
    }

    #[test]
    fn duplicate_points_do_not_break_construction() {
        let s = EuclideanSpace::from_coords([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]);
        let g = theta(&s, 8).unwrap();
        // The two coincident points cannot be connected (zero-length edge),
        // but the distinct pair is.
        assert!(g.has_edge(0.into(), 2.into()) || g.has_edge(1.into(), 2.into()));
    }

    #[test]
    fn stretch_bound_decreases_with_more_cones() {
        assert!(cone_stretch_bound(20) < cone_stretch_bound(10));
        assert!(cone_stretch_bound(10) > 1.0);
    }
}
