//! Trivial baseline spanners: the MST (lightest possible connected subgraph,
//! unbounded stretch) and the star (smallest possible hop diameter, stretch 2
//! in metric spaces).

use spanner_graph::mst::kruskal;
use spanner_graph::WeightedGraph;
use spanner_metric::MetricSpace;

use crate::error::SpannerError;

/// The MST-baseline engine behind the `Mst` implementation of
/// [`crate::algorithm::SpannerAlgorithm`]: the minimum spanning forest of
/// `graph` (minimum possible weight — lightness 1 — and `n − 1` edges, but
/// unbounded stretch; the anchor row in the lightness tables). Reach it
/// through `Spanner::mst().build(&graph)`.
pub(crate) fn run_mst(graph: &WeightedGraph) -> WeightedGraph {
    kruskal(graph).to_graph(graph)
}

/// The star-baseline engine behind the `Star` implementation of
/// [`crate::algorithm::SpannerAlgorithm`]: every point connected to `hub`
/// (`n − 1` edges and hop-diameter 2, but stretch and lightness can both be
/// `Θ(n)` — it anchors the "small size is not enough" side of the
/// comparison tables, and is the optimal spanner of the paper's Figure 1
/// instance). Reach it through `Spanner::star().hub(h).build(&metric)`.
///
/// # Errors
///
/// Returns [`SpannerError::EmptyInput`] for an empty metric, or a
/// [`SpannerError::Graph`]-wrapped out-of-range error for a bad `hub` (the
/// unified pipeline requires every invalid parameter to surface as an `Err`
/// so batch runs never abort).
pub(crate) fn run_star<M: MetricSpace + ?Sized>(
    metric: &M,
    hub: usize,
) -> Result<WeightedGraph, SpannerError> {
    if metric.is_empty() {
        return Err(SpannerError::EmptyInput);
    }
    if hub >= metric.len() {
        return Err(spanner_graph::GraphError::VertexOutOfRange {
            vertex: hub,
            num_vertices: metric.len(),
        }
        .into());
    }
    // Same convention as `try_to_complete_graph`: a duplicate point (zero
    // distance to the hub) carries no edge, while a poisoned distance (NaN /
    // infinite / negative) surfaces as a clean error instead of aborting the
    // process.
    let spokes = (0..metric.len())
        .filter(|&v| v != hub)
        .map(|v| (hub, v, metric.distance(hub, v)))
        .filter(|&(_, _, d)| d != 0.0);
    Ok(WeightedGraph::from_edges(metric.len(), spokes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{lightness, max_stretch_all_pairs};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::erdos_renyi_connected;
    use spanner_metric::generators::uniform_points;
    use spanner_metric::MetricSpace;

    #[test]
    fn mst_spanner_has_lightness_one() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
        let t = run_mst(&g);
        assert_eq!(t.num_edges(), 29);
        assert!((lightness(&g, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_spanner_shape_and_detour_structure() {
        let mut rng = SmallRng::seed_from_u64(32);
        let s = uniform_points::<2, _>(25, &mut rng);
        let star = run_star(&s, 0).unwrap();
        assert_eq!(star.num_edges(), 24);
        assert_eq!(star.degree(0.into()), 24);
        // Every pair is connected through the hub, so the stretch is finite
        // (though possibly large).
        let complete = s.to_complete_graph();
        let stretch = max_stretch_all_pairs(&complete, &star);
        assert!(stretch.is_finite());
        assert!(stretch >= 1.0);
    }

    #[test]
    fn star_spanner_rejects_empty_metric() {
        let s = spanner_metric::EuclideanSpace::<2>::new(vec![]);
        assert!(matches!(run_star(&s, 0), Err(SpannerError::EmptyInput)));
    }

    #[test]
    fn star_spanner_skips_duplicates_and_rejects_poisoned_distances() {
        use spanner_metric::ExplicitMetric;
        // Point 1 coincides with the hub: like try_to_complete_graph, the
        // zero-distance pair simply carries no edge.
        let dup = ExplicitMetric::from_fn_unchecked(4, |i, j| {
            if (i.min(j), i.max(j)) == (0, 1) {
                0.0
            } else {
                1.0
            }
        });
        let star = run_star(&dup, 0).unwrap();
        assert_eq!(star.num_edges(), 2);
        assert_eq!(star.degree(1.into()), 0);
        // A poisoned hub distance still fails the build cleanly.
        let bad = ExplicitMetric::from_fn_unchecked(3, |i, j| {
            if (i.min(j), i.max(j)) == (0, 2) {
                f64::NAN
            } else {
                1.0
            }
        });
        assert!(matches!(
            run_star(&bad, 0),
            Err(SpannerError::Graph(
                spanner_graph::GraphError::InvalidWeight { .. }
            ))
        ));
    }

    #[test]
    fn star_spanner_rejects_bad_hub_with_an_error() {
        let s = spanner_metric::EuclideanSpace::from_coords([[0.0], [1.0]]);
        assert!(matches!(
            run_star(&s, 7),
            Err(SpannerError::Graph(
                spanner_graph::GraphError::VertexOutOfRange {
                    vertex: 7,
                    num_vertices: 2
                }
            ))
        ));
    }
}
