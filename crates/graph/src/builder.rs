//! Incremental, validating construction of [`WeightedGraph`]s.

use crate::error::GraphError;
use crate::graph::WeightedGraph;

/// A builder that accumulates edges and validates them on
/// [`GraphBuilder::build`].
///
/// Unlike [`WeightedGraph::add_edge`], the builder accepts raw `usize`
/// endpoints for convenience in tests and generators, deduplicates parallel
/// edges (keeping the lightest copy) when [`GraphBuilder::dedup_parallel`] is
/// enabled, and reports the first invalid edge with a precise error.
///
/// # Example
///
/// ```
/// use spanner_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 2, 2.0);
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), spanner_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(usize, usize, f64)>,
    dedup_parallel: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            dedup_parallel: false,
        }
    }

    /// Queues an edge `{u, v}` with the given weight. Validation is deferred
    /// to [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> &mut Self {
        self.edges.push((u, v, weight));
        self
    }

    /// Queues several edges at once.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> &mut Self {
        self.edges.extend(edges);
        self
    }

    /// When enabled, parallel edges between the same endpoints collapse into
    /// the single lightest copy at build time.
    pub fn dedup_parallel(&mut self, enabled: bool) -> &mut Self {
        self.dedup_parallel = enabled;
        self
    }

    /// Number of edges queued so far.
    pub fn queued_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates every queued edge and produces the graph.
    ///
    /// # Errors
    ///
    /// Returns the error for the first invalid edge (out-of-range endpoint,
    /// non-positive or non-finite weight, or self-loop).
    pub fn build(&self) -> Result<WeightedGraph, GraphError> {
        let mut edges = self.edges.clone();
        if self.dedup_parallel {
            use std::collections::HashMap;
            let mut best: HashMap<(usize, usize), f64> = HashMap::new();
            for &(u, v, w) in &edges {
                let key = if u <= v { (u, v) } else { (v, u) };
                best.entry(key)
                    .and_modify(|cur| {
                        if w < *cur {
                            *cur = w;
                        }
                    })
                    .or_insert(w);
            }
            edges = best.into_iter().map(|((u, v), w)| (u, v, w)).collect();
            edges.sort_by_key(|a| (a.0, a.1));
        }
        WeightedGraph::from_edges(self.num_vertices, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(b.queued_edges(), 2);
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert_eq!(b.build().unwrap().num_edges(), 3);
    }

    #[test]
    fn dedup_keeps_lightest_parallel_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 3.0)
            .add_edge(1, 0, 1.0)
            .add_edge(0, 1, 2.0);
        b.dedup_parallel(true);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0.into(), 1.into()), Some(1.0));
    }

    #[test]
    fn without_dedup_parallel_edges_survive() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 3.0).add_edge(1, 0, 1.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn build_reports_invalid_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 9, 1.0);
        assert!(matches!(
            b.build(),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn build_reports_bad_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
        assert!(matches!(b.build(), Err(GraphError::InvalidWeight { .. })));
    }
}
