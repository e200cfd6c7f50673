//! The finite-metric-space abstraction consumed by the spanner algorithms.

use spanner_graph::WeightedGraph;

/// A finite metric space over points indexed `0..len()`.
///
/// Implementations must return symmetric, non-negative distances that are zero
/// exactly on the diagonal and satisfy the triangle inequality (the helper
/// [`validate_metric_axioms`] checks this exhaustively for tests).
///
/// The `Send + Sync` supertraits let the spanner pipeline share a metric (or
/// a `&dyn MetricSpace` input) across the worker threads of its parallel
/// batch runners; distance evaluation must therefore be free of interior
/// mutability, which every honest distance function is.
pub trait MetricSpace: Send + Sync {
    /// Number of points.
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if an index is out of range.
    fn distance(&self, i: usize, j: usize) -> f64;

    /// Returns `true` if the space has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest pairwise distance (`0.0` for fewer than two points).
    fn diameter(&self) -> f64 {
        let n = self.len();
        let mut d = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                d = d.max(self.distance(i, j));
            }
        }
        d
    }

    /// Smallest non-zero pairwise distance (`0.0` for fewer than two points).
    fn min_interpoint_distance(&self) -> f64 {
        let n = self.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                best = best.min(self.distance(i, j));
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// The aspect ratio (spread) `diameter / min_interpoint_distance`, or
    /// `1.0` for degenerate spaces.
    fn spread(&self) -> f64 {
        let min = self.min_interpoint_distance();
        if min > 0.0 {
            self.diameter() / min
        } else {
            1.0
        }
    }

    /// Materializes the metric as a complete weighted graph (the form the
    /// greedy algorithm consumes in metric spaces).
    ///
    /// Zero distances between *distinct* points (duplicate points) are
    /// skipped — a positively-weighted graph cannot carry them, and the
    /// points are metrically indistinguishable anyway.
    ///
    /// # Panics
    ///
    /// Panics if any pairwise distance is `NaN`, infinite or negative. Such
    /// a value is not a metric and, if admitted as an edge weight, would
    /// break the greedy sort order and every Dijkstra invariant downstream;
    /// this used to be *silently dropped*, producing a wrong (incomplete)
    /// graph instead of an error. Fallible callers — the whole spanner
    /// pipeline — should use [`MetricSpace::try_to_complete_graph`].
    fn to_complete_graph(&self) -> WeightedGraph {
        self.try_to_complete_graph()
            .expect("metric with non-finite or negative distances")
    }

    /// Like [`MetricSpace::to_complete_graph`], but surfaces a poisoned
    /// distance as an error instead of panicking — the entry point the
    /// spanner constructions use, so a `NaN` in user-supplied distance data
    /// fails a build cleanly rather than aborting a long-running process.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`](spanner_graph::GraphError) for
    /// the first `NaN`, infinite or negative pairwise distance.
    fn try_to_complete_graph(&self) -> Result<WeightedGraph, spanner_graph::GraphError> {
        let n = self.len();
        let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
        // Duplicate points (distance 0) carry no edge; `from_edges` stops at
        // the first remaining pair whose distance is not positive and finite.
        let edges = pairs
            .map(|(i, j)| (i, j, self.distance(i, j)))
            .filter(|&(_, _, d)| d != 0.0);
        WeightedGraph::from_edges(n, edges)
    }
}

/// A view of a metric space restricted to a subset of its points.
///
/// Point `k` of the sub-metric corresponds to point `indices[k]` of the base
/// space. Used by net hierarchies and doubling-dimension estimation.
#[derive(Debug, Clone)]
pub struct SubMetric<'a, M: MetricSpace + ?Sized> {
    base: &'a M,
    indices: Vec<usize>,
}

impl<'a, M: MetricSpace + ?Sized> SubMetric<'a, M> {
    /// Creates a sub-metric over the given base-space indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for `base`.
    pub fn new(base: &'a M, indices: Vec<usize>) -> Self {
        assert!(
            indices.iter().all(|&i| i < base.len()),
            "sub-metric index out of range"
        );
        SubMetric { base, indices }
    }

    /// The base-space index of sub-metric point `k`.
    pub fn base_index(&self, k: usize) -> usize {
        self.indices[k]
    }

    /// The base-space indices, in sub-metric order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

impl<'a, M: MetricSpace + ?Sized> MetricSpace for SubMetric<'a, M> {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.base.distance(self.indices[i], self.indices[j])
    }
}

/// Exhaustively checks the metric axioms (symmetry, identity of
/// indiscernibles, triangle inequality) up to tolerance `tol`.
///
/// Intended for tests and debug assertions; `O(n^3)`.
pub fn validate_metric_axioms<M: MetricSpace + ?Sized>(metric: &M, tol: f64) -> Result<(), String> {
    let n = metric.len();
    for i in 0..n {
        let dii = metric.distance(i, i);
        if dii.abs() > tol {
            return Err(format!("d({i},{i}) = {dii} is not zero"));
        }
        for j in 0..n {
            let dij = metric.distance(i, j);
            let dji = metric.distance(j, i);
            if (dij - dji).abs() > tol {
                return Err(format!("asymmetry: d({i},{j}) = {dij}, d({j},{i}) = {dji}"));
            }
            if i != j && dij <= 0.0 {
                return Err(format!("d({i},{j}) = {dij} is not positive"));
            }
            if !dij.is_finite() {
                return Err(format!("d({i},{j}) is not finite"));
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let lhs = metric.distance(i, j);
                let rhs = metric.distance(i, k) + metric.distance(k, j);
                if lhs > rhs + tol {
                    return Err(format!(
                        "triangle inequality violated: d({i},{j}) = {lhs} > {rhs}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::EuclideanSpace;
    use crate::point::Point;

    fn unit_square() -> EuclideanSpace<2> {
        EuclideanSpace::new(vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([1.0, 1.0]),
            Point::new([0.0, 1.0]),
        ])
    }

    #[test]
    fn diameter_and_min_distance() {
        let s = unit_square();
        assert!((s.diameter() - 2.0f64.sqrt()).abs() < 1e-12);
        assert!((s.min_interpoint_distance() - 1.0).abs() < 1e-12);
        assert!((s.spread() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_spaces() {
        let empty = EuclideanSpace::<2>::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.diameter(), 0.0);
        assert_eq!(empty.min_interpoint_distance(), 0.0);
        assert_eq!(empty.spread(), 1.0);
        let single = EuclideanSpace::new(vec![Point::new([1.0, 1.0])]);
        assert_eq!(single.diameter(), 0.0);
    }

    #[test]
    fn to_complete_graph_has_all_pairs() {
        let s = unit_square();
        let g = s.to_complete_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.edge_weight(0.into(), 2.into()), Some(2.0f64.sqrt()));
        assert_eq!(s.try_to_complete_graph().unwrap(), g);
    }

    struct Poisoned(f64);
    impl MetricSpace for Poisoned {
        fn len(&self) -> usize {
            3
        }
        fn distance(&self, i: usize, j: usize) -> f64 {
            if i == j {
                0.0
            } else if (i.min(j), i.max(j)) == (0, 2) {
                self.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn poisoned_distances_surface_as_errors_not_silent_drops() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let m = Poisoned(bad);
            assert!(
                matches!(
                    m.try_to_complete_graph(),
                    Err(spanner_graph::GraphError::InvalidWeight { .. })
                ),
                "distance {bad} must be rejected"
            );
        }
        // Duplicate points (zero distance between distinct indices) are
        // legal: the pair simply carries no edge.
        let dup = Poisoned(0.0);
        let g = dup.try_to_complete_graph().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn to_complete_graph_panics_on_poisoned_distances() {
        let _ = Poisoned(f64::NAN).to_complete_graph();
    }

    #[test]
    fn sub_metric_restricts_distances() {
        let s = unit_square();
        let sub = SubMetric::new(&s, vec![0, 2]);
        assert_eq!(sub.len(), 2);
        assert!((sub.distance(0, 1) - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(sub.base_index(1), 2);
        assert_eq!(sub.indices(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_metric_rejects_bad_index() {
        let s = unit_square();
        let _ = SubMetric::new(&s, vec![0, 9]);
    }

    #[test]
    fn axioms_hold_for_euclidean_space() {
        assert!(validate_metric_axioms(&unit_square(), 1e-9).is_ok());
    }

    #[test]
    fn axioms_detect_violations() {
        struct Broken;
        impl MetricSpace for Broken {
            fn len(&self) -> usize {
                3
            }
            fn distance(&self, i: usize, j: usize) -> f64 {
                if i == j {
                    0.0
                } else if (i, j) == (0, 2) || (j, i) == (0, 2) {
                    10.0 // violates triangle via 1
                } else {
                    1.0
                }
            }
        }
        assert!(validate_metric_axioms(&Broken, 1e-9).is_err());
    }
}
