//! Point-set and metric workload generators.
//!
//! All generators are deterministic given the supplied RNG so experiments can
//! be reproduced from a seed.

use rand::Rng;

use crate::euclidean::EuclideanSpace;
use crate::explicit::ExplicitMetric;
use crate::point::Point;

/// `n` points uniform in the unit cube `[0, 1]^D`.
pub fn uniform_points<const D: usize, R: Rng + ?Sized>(n: usize, rng: &mut R) -> EuclideanSpace<D> {
    uniform_points_in_cube(n, 1.0, rng)
}

/// `n` points uniform in the cube `[0, side]^D`.
pub fn uniform_points_in_cube<const D: usize, R: Rng + ?Sized>(
    n: usize,
    side: f64,
    rng: &mut R,
) -> EuclideanSpace<D> {
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = [0.0; D];
        for c in coords.iter_mut() {
            *c = rng.gen::<f64>() * side;
        }
        points.push(Point::new(coords));
    }
    EuclideanSpace::new(points)
}

/// `n` points grouped into `num_clusters` Gaussian-ish clusters: cluster
/// centers are uniform in the unit cube and members are uniform within
/// `spread` of their center. Models the clustered workloads of the geometric
/// spanner experiments.
pub fn clustered_points<const D: usize, R: Rng + ?Sized>(
    n: usize,
    num_clusters: usize,
    spread: f64,
    rng: &mut R,
) -> EuclideanSpace<D> {
    assert!(num_clusters > 0, "need at least one cluster");
    let centers: Vec<Point<D>> = (0..num_clusters)
        .map(|_| {
            let mut coords = [0.0; D];
            for c in coords.iter_mut() {
                *c = rng.gen::<f64>();
            }
            Point::new(coords)
        })
        .collect();
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let center = centers[i % num_clusters];
        let mut coords = *center.coords();
        for c in coords.iter_mut() {
            *c += (rng.gen::<f64>() - 0.5) * 2.0 * spread;
        }
        points.push(Point::new(coords));
    }
    EuclideanSpace::new(points)
}

/// `n` points on (or near) the unit circle, perturbed radially by at most
/// `noise`. A classical hard case for geometric spanners.
pub fn circle_points<R: Rng + ?Sized>(n: usize, noise: f64, rng: &mut R) -> EuclideanSpace<2> {
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let angle = 2.0 * std::f64::consts::PI * (i as f64) / (n.max(1) as f64);
        let radius = 1.0 + noise * (rng.gen::<f64>() - 0.5);
        points.push(Point::new([radius * angle.cos(), radius * angle.sin()]));
    }
    EuclideanSpace::new(points)
}

/// A `rows × cols` grid of points with spacing 1, each jittered by up to
/// `jitter` in every coordinate.
pub fn grid_points_2d<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    jitter: f64,
    rng: &mut R,
) -> EuclideanSpace<2> {
    let mut points = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let dx = jitter * (rng.gen::<f64>() - 0.5);
            let dy = jitter * (rng.gen::<f64>() - 0.5);
            points.push(Point::new([c as f64 + dx, r as f64 + dy]));
        }
    }
    EuclideanSpace::new(points)
}

/// `n` points on a line at exponentially growing coordinates `ratio^i`.
///
/// This produces a metric with large spread but doubling dimension 1, useful
/// for stressing net hierarchies and the approximate-greedy simulation.
pub fn exponential_line(n: usize, ratio: f64) -> EuclideanSpace<1> {
    assert!(ratio > 1.0, "ratio must exceed 1");
    EuclideanSpace::from_coords((0..n).map(|i| [ratio.powi(i as i32)]))
}

/// The star metric on `n` points: a hub at distance 1 from every leaf, leaves
/// at distance 2 from each other.
///
/// On this metric the greedy `(1 + ε)`-spanner (for `ε < 1`) must keep every
/// hub–leaf edge, so its maximum degree is `n - 1` — the degree blow-up
/// phenomenon of [HM06, Smi09] discussed in Section 5 of the paper.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star_metric(n: usize) -> ExplicitMetric {
    assert!(n >= 2, "star metric needs at least a hub and one leaf");
    ExplicitMetric::from_fn(n, |i, j| if i == 0 || j == 0 { 1.0 } else { 2.0 })
        .expect("the star metric satisfies the metric axioms")
}

/// `n` points uniform on a `k`-dimensional affine subspace embedded in `R^D`
/// (`k <= D`), modelling data whose intrinsic (doubling) dimension is lower
/// than its ambient dimension.
pub fn low_dimensional_manifold<const D: usize, R: Rng + ?Sized>(
    n: usize,
    intrinsic_dim: usize,
    rng: &mut R,
) -> EuclideanSpace<D> {
    let k = intrinsic_dim.min(D).max(1);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = [0.0; D];
        for c in coords.iter_mut().take(k) {
            *c = rng.gen::<f64>();
        }
        points.push(Point::new(coords));
    }
    EuclideanSpace::new(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{validate_metric_axioms, MetricSpace};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn uniform_points_stay_in_cube() {
        let s = uniform_points_in_cube::<3, _>(100, 2.0, &mut rng());
        assert_eq!(s.len(), 100);
        for p in s.points() {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] <= 2.0);
            }
        }
    }

    #[test]
    fn clustered_points_form_tight_groups() {
        let s = clustered_points::<2, _>(90, 3, 0.01, &mut rng());
        assert_eq!(s.len(), 90);
        // Points in the same cluster (same index mod 3) are close.
        assert!(s.distance(0, 3) < 0.1);
        assert!(s.distance(1, 4) < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn clustered_points_need_clusters() {
        let _ = clustered_points::<2, _>(10, 0, 0.1, &mut rng());
    }

    #[test]
    fn circle_points_lie_near_unit_circle() {
        let s = circle_points(64, 0.0, &mut rng());
        for p in s.points() {
            assert!((p.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_points_count_and_spacing() {
        let s = grid_points_2d(4, 5, 0.0, &mut rng());
        assert_eq!(s.len(), 20);
        assert_eq!(s.distance(0, 1), 1.0);
    }

    #[test]
    fn exponential_line_grows_geometrically() {
        let s = exponential_line(5, 2.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.distance(0, 1), 1.0);
        assert_eq!(s.distance(3, 4), 8.0);
        assert!(s.spread() > 10.0);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn exponential_line_requires_growth() {
        let _ = exponential_line(4, 1.0);
    }

    #[test]
    fn star_metric_is_a_metric_with_hub_structure() {
        let m = star_metric(8);
        assert!(validate_metric_axioms(&m, 1e-9).is_ok());
        assert_eq!(m.distance(0, 5), 1.0);
        assert_eq!(m.distance(3, 5), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least a hub")]
    fn star_metric_too_small() {
        let _ = star_metric(1);
    }

    #[test]
    fn manifold_points_have_zero_trailing_coordinates() {
        let s = low_dimensional_manifold::<4, _>(30, 2, &mut rng());
        for p in s.points() {
            assert_eq!(p[2], 0.0);
            assert_eq!(p[3], 0.0);
        }
    }
}
