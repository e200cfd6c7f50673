//! The metric closure `M_G` of a graph: the complete graph whose edge weights
//! are shortest-path distances.
//!
//! Section 4 of the paper works with the metric space `M_H` induced by the
//! greedy spanner `H`; Observation 6 shows `M_G` and `G` share an MST. The
//! closure produced here is the executable counterpart of that object.

use crate::apsp::all_pairs_shortest_paths;
use crate::error::GraphError;
use crate::graph::WeightedGraph;

/// Builds the metric closure of `graph`: a complete graph on the same vertex
/// set where the weight of `{u, v}` is `δ_G(u, v)`.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if some pair of vertices has no path
/// (the closure would need an infinite weight), or [`GraphError::EmptyGraph`]
/// if the graph has no vertices.
pub fn metric_closure(graph: &WeightedGraph) -> Result<WeightedGraph, GraphError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let m = all_pairs_shortest_paths(graph);
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for (u, v, d) in m.pairs() {
        if !d.is_finite() {
            return Err(GraphError::Disconnected);
        }
        edges.push((u.index(), v.index(), d));
    }
    WeightedGraph::from_edges(n, edges)
}

/// Builds a complete graph on `n` vertices from an explicit distance oracle.
///
/// The oracle is called once per unordered pair `(i, j)` with `i < j`; it must
/// return positive, finite distances.
///
/// # Errors
///
/// Returns [`GraphError::InvalidWeight`] if the oracle produces a non-positive
/// or non-finite value, or [`GraphError::EmptyGraph`] for `n == 0`.
pub fn complete_graph_from_distances(
    n: usize,
    mut distance: impl FnMut(usize, usize) -> f64,
) -> Result<WeightedGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
    WeightedGraph::from_edges(n, pairs.map(|(i, j)| (i, j, distance(i, j))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexId;
    use crate::mst::mst_weight;

    fn path3() -> WeightedGraph {
        WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap()
    }

    #[test]
    fn closure_is_complete_with_shortest_path_weights() {
        let c = metric_closure(&path3()).unwrap();
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.edge_weight(VertexId(0), VertexId(2)), Some(3.0));
        assert_eq!(c.edge_weight(VertexId(0), VertexId(1)), Some(1.0));
    }

    #[test]
    fn closure_of_disconnected_graph_fails() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        assert_eq!(metric_closure(&g), Err(GraphError::Disconnected));
    }

    #[test]
    fn closure_of_empty_graph_fails() {
        assert_eq!(
            metric_closure(&WeightedGraph::new(0)),
            Err(GraphError::EmptyGraph)
        );
    }

    #[test]
    fn observation6_mst_weight_is_preserved_by_closure() {
        // Observation 6: the MST of the metric closure has the same weight as
        // the MST of the original graph.
        let g = WeightedGraph::from_edges(
            5,
            [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.5),
                (3, 4, 1.0),
                (0, 4, 9.0),
            ],
        )
        .unwrap();
        let c = metric_closure(&g).unwrap();
        assert!((mst_weight(&g) - mst_weight(&c)).abs() < 1e-9);
    }

    #[test]
    fn complete_graph_from_oracle() {
        let g = complete_graph_from_distances(4, |i, j| (i + j) as f64).unwrap();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.edge_weight(VertexId(1), VertexId(3)), Some(4.0));
    }

    #[test]
    fn oracle_with_invalid_distance_fails() {
        let r = complete_graph_from_distances(3, |_, _| -1.0);
        assert!(matches!(r, Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(
            complete_graph_from_distances(0, |_, _| 1.0),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn singleton_closure_has_no_edges() {
        let g = WeightedGraph::new(1);
        let c = metric_closure(&g).unwrap();
        assert_eq!(c.num_edges(), 0);
    }
}
