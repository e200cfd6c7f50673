//! The cluster graph used by the approximate-greedy algorithm.
//!
//! Section 5.1 of the paper sketches how \[GLN02\] avoids exact shortest-path
//! queries: vertices of the growing spanner are grouped into clusters of small
//! (graph-distance) radius, and distance queries are answered on the much
//! smaller quotient graph of clusters. This module implements that machinery
//! with a *sound over-estimate*: the quotient distance reported for a pair is
//! always an upper bound on the true spanner distance, so skipping an edge
//! never violates the stretch guarantee (the algorithm may keep a few more
//! edges than the exact greedy would — that is exactly the "approximate"
//! in approximate-greedy).
//!
//! Both the clustering pass (balls around the centers) and the quotient
//! queries run on the CSR substrate through one owned
//! [`DijkstraEngine`], so a cluster graph answers any number of certificates
//! without per-query allocation; query methods therefore take `&mut self`.

use std::collections::HashMap;

use spanner_graph::{CsrGraph, DijkstraEngine, EngineStats, VertexId, WeightedGraph};

/// A clustering of the vertices of a spanner-in-progress, together with the
/// quotient graph used to answer approximate distance queries.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    /// Cluster id of every vertex.
    membership: Vec<usize>,
    /// Cluster radius used when the clustering was built (graph distance).
    radius: f64,
    /// Quotient graph: one vertex per cluster, one edge per inter-cluster
    /// spanner edge (lightest copy), with the radius slack already folded into
    /// the edge weights so that quotient distances + `2 · radius` over-estimate
    /// true distances. Appendable CSR, so recording new spanner edges is O(1).
    quotient: CsrGraph,
    /// Reused workspace for all quotient queries.
    engine: DijkstraEngine,
}

impl ClusterGraph {
    /// Builds a clustering of `spanner` with cluster radius `radius`.
    ///
    /// Convenience wrapper over [`ClusterGraph::build_csr`] for callers that
    /// hold a [`WeightedGraph`].
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn build(spanner: &WeightedGraph, radius: f64) -> Self {
        ClusterGraph::build_csr(&CsrGraph::from(spanner), radius)
    }

    /// Builds a clustering of a CSR-form `spanner` with cluster radius
    /// `radius`.
    ///
    /// Clusters are grown greedily: the first unclustered vertex becomes a
    /// center and absorbs every unclustered vertex within graph distance
    /// `radius` of it in `spanner`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn build_csr(spanner: &CsrGraph, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "cluster radius must be non-negative"
        );
        let n = spanner.num_vertices();
        let mut engine = DijkstraEngine::with_capacity_for(n, spanner.num_edges());
        let mut membership = vec![usize::MAX; n];
        let mut num_clusters = 0;
        for v in 0..n {
            if membership[v] != usize::MAX {
                continue;
            }
            let cluster_id = num_clusters;
            num_clusters += 1;
            membership[v] = cluster_id;
            // Absorb unclustered vertices within `radius` of the center; the
            // bounded search keeps the total clustering cost proportional to
            // the ball sizes rather than the whole graph.
            for &(u, _) in engine.ball(spanner, VertexId(v), radius) {
                if membership[u.index()] == usize::MAX {
                    membership[u.index()] = cluster_id;
                }
            }
        }
        let quotient = build_quotient(spanner, &membership, num_clusters, radius);
        ClusterGraph {
            membership,
            radius,
            quotient,
            engine,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.quotient.num_vertices()
    }

    /// The cluster containing vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cluster_of(&self, v: VertexId) -> usize {
        self.membership[v.index()]
    }

    /// The cluster radius used by this clustering.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Counters of the owned query engine (clustering balls plus every
    /// quotient query so far).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Records a newly added spanner edge `(u, v, weight)` so subsequent
    /// queries see it.
    pub fn add_spanner_edge(&mut self, u: VertexId, v: VertexId, weight: f64) {
        let (cu, cv) = (self.cluster_of(u), self.cluster_of(v));
        if cu != cv {
            self.quotient
                .append_edge(VertexId(cu), VertexId(cv), weight + 2.0 * self.radius);
        }
    }

    /// Returns `true` if the cluster-graph *upper bound* on the spanner
    /// distance between `u` and `v` is at most `bound`.
    ///
    /// Because the estimate is an upper bound, a `true` answer certifies that
    /// the true spanner distance is within `bound`; a `false` answer makes no
    /// promise (the true distance might still be within the bound). The query
    /// uses a distance-bounded search on the quotient graph, so its cost is
    /// proportional to the quotient ball of radius `bound`, not to the whole
    /// graph. Takes `&mut self` because it reuses the owned engine workspace.
    pub fn certifies_within(&mut self, u: VertexId, v: VertexId, bound: f64) -> bool {
        let (cu, cv) = (self.cluster_of(u), self.cluster_of(v));
        let slack = 2.0 * self.radius;
        if cu == cv {
            return slack <= bound;
        }
        if bound < slack {
            return false;
        }
        self.engine
            .within_bound(&self.quotient, VertexId(cu), VertexId(cv), bound - slack)
    }

    /// An upper bound on the spanner distance between `u` and `v`.
    ///
    /// The bound is `dist_Q(C(u), C(v)) + 2·radius`, where each quotient edge
    /// already carries a `+2·radius` slack for the detours inside the clusters
    /// it connects. Returns `f64::INFINITY` if the clusters are disconnected
    /// in the quotient graph.
    pub fn distance_upper_bound(&mut self, u: VertexId, v: VertexId) -> f64 {
        let (cu, cv) = (self.cluster_of(u), self.cluster_of(v));
        if cu == cv {
            return 2.0 * self.radius;
        }
        let tree = self.engine.shortest_path_tree(&self.quotient, VertexId(cu));
        match tree.distance(VertexId(cv)) {
            Some(d) => d + 2.0 * self.radius,
            None => f64::INFINITY,
        }
    }
}

fn build_quotient(
    spanner: &CsrGraph,
    membership: &[usize],
    num_clusters: usize,
    radius: f64,
) -> CsrGraph {
    let mut best: HashMap<(usize, usize), f64> = HashMap::new();
    for id in 0..spanner.num_edges() {
        let (u, v, w) = spanner.edge(spanner_graph::EdgeId(id));
        let (cu, cv) = (membership[u.index()], membership[v.index()]);
        if cu == cv {
            continue;
        }
        let key = if cu < cv { (cu, cv) } else { (cv, cu) };
        let entry = best.entry(key).or_insert(f64::INFINITY);
        if w < *entry {
            *entry = w;
        }
    }
    let mut quotient = CsrGraph::new(num_clusters);
    let mut keys: Vec<_> = best.into_iter().collect();
    keys.sort_by_key(|a| a.0);
    for ((a, b), w) in keys {
        quotient.append_edge(VertexId(a), VertexId(b), w + 2.0 * radius);
    }
    quotient
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::dijkstra::shortest_path_distance;
    use spanner_graph::generators::{erdos_renyi_connected, path_graph};

    #[test]
    fn zero_radius_clustering_is_singletons() {
        let g = path_graph(5, 1.0);
        let mut c = ClusterGraph::build(&g, 0.0);
        assert_eq!(c.num_clusters(), 5);
        assert_eq!(c.radius(), 0.0);
        // With singleton clusters the upper bound equals the true distance.
        let bound = c.distance_upper_bound(VertexId(0), VertexId(4));
        assert!((bound - 4.0).abs() < 1e-12);
    }

    #[test]
    fn large_radius_clustering_is_one_cluster() {
        let g = path_graph(6, 1.0);
        let mut c = ClusterGraph::build(&g, 100.0);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.cluster_of(VertexId(0)), c.cluster_of(VertexId(5)));
        assert!(c.distance_upper_bound(VertexId(0), VertexId(5)) <= 200.0);
    }

    #[test]
    fn upper_bound_dominates_true_distance() {
        let mut rng = SmallRng::seed_from_u64(71);
        for radius in [0.0, 0.5, 2.0, 5.0] {
            let g = erdos_renyi_connected(30, 0.2, 1.0..5.0, &mut rng);
            let mut c = ClusterGraph::build(&g, radius);
            for u in 0..30 {
                for v in (u + 1)..30 {
                    let true_d = shortest_path_distance(&g, VertexId(u), VertexId(v)).unwrap();
                    let bound = c.distance_upper_bound(VertexId(u), VertexId(v));
                    assert!(
                        bound + 1e-9 >= true_d,
                        "radius {radius}: bound {bound} < true {true_d}"
                    );
                }
            }
        }
    }

    #[test]
    fn certifies_within_is_sound_and_matches_upper_bound() {
        let mut rng = SmallRng::seed_from_u64(72);
        let g = erdos_renyi_connected(25, 0.25, 1.0..5.0, &mut rng);
        let mut c = ClusterGraph::build(&g, 1.0);
        for u in 0..25 {
            for v in (u + 1)..25 {
                let (u, v) = (VertexId(u), VertexId(v));
                let bound = c.distance_upper_bound(u, v);
                let true_d = shortest_path_distance(&g, u, v).unwrap();
                // Certifying at the upper bound must succeed.
                assert!(c.certifies_within(u, v, bound + 1e-9));
                // Soundness: whenever a bound is certified, the true distance
                // respects it.
                for candidate in [0.5 * true_d, true_d, 2.0 * true_d, bound] {
                    if c.certifies_within(u, v, candidate) {
                        assert!(
                            true_d <= candidate + 1e-9,
                            "certified {candidate} but true distance is {true_d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotient_queries_reuse_the_engine_workspace() {
        let mut rng = SmallRng::seed_from_u64(73);
        let g = erdos_renyi_connected(40, 0.2, 1.0..5.0, &mut rng);
        let mut c = ClusterGraph::build(&g, 1.0);
        let after_build = c.engine_stats();
        for u in 0..40 {
            for v in (u + 1)..40 {
                let _ = c.certifies_within(VertexId(u), VertexId(v), 5.0);
            }
        }
        let s = c.engine_stats();
        let issued = s.queries - after_build.queries;
        assert_eq!(
            s.reuse_hits - after_build.reuse_hits,
            issued,
            "every certificate query must hit the reused workspace"
        );
    }

    #[test]
    fn disconnected_clusters_report_infinity() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let mut c = ClusterGraph::build(&g, 0.5);
        assert!(c
            .distance_upper_bound(VertexId(0), VertexId(3))
            .is_infinite());
    }

    #[test]
    fn adding_spanner_edges_updates_queries() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let mut c = ClusterGraph::build(&g, 0.25);
        assert!(c
            .distance_upper_bound(VertexId(1), VertexId(2))
            .is_infinite());
        c.add_spanner_edge(VertexId(1), VertexId(2), 3.0);
        let bound = c.distance_upper_bound(VertexId(1), VertexId(2));
        assert!(bound.is_finite());
        // 3.0 plus the per-edge and per-query slack.
        assert!(bound <= 3.0 + 4.0 * 0.25 + 1e-12);
    }

    #[test]
    fn intra_cluster_edge_addition_is_a_no_op() {
        let g = path_graph(3, 1.0);
        let mut c = ClusterGraph::build(&g, 10.0);
        let before = c.num_clusters();
        c.add_spanner_edge(VertexId(0), VertexId(2), 2.0);
        assert_eq!(c.num_clusters(), before);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_is_rejected() {
        let g = path_graph(3, 1.0);
        let _ = ClusterGraph::build(&g, -1.0);
    }
}
