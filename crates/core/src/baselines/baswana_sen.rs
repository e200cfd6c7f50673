//! The Baswana–Sen randomized `(2k − 1)`-spanner for weighted graphs.
//!
//! This is the standard clustering-based construction (Baswana & Sen,
//! *Random Structures & Algorithms* 2007): `k − 1` rounds of cluster sampling
//! followed by a vertex–cluster joining phase. It is the classical baseline
//! against which the greedy `(2k − 1)`-spanner's size and lightness are
//! compared (the greedy spanner is existentially optimal; Baswana–Sen is what
//! a practitioner would otherwise reach for, e.g. it is the construction
//! shipped by networkx).

use std::collections::HashMap;

use rand::Rng;

use spanner_graph::{CsrGraph, EdgeId, VertexId, WeightedGraph};

use crate::error::SpannerError;

/// The Baswana–Sen engine behind the `BaswanaSen` implementation of
/// [`crate::algorithm::SpannerAlgorithm`]: builds a `(2k − 1)`-spanner with
/// an expected `O(k · n^{1 + 1/k})` edges. The construction is randomized —
/// the pipeline derives the RNG from `config.seed` for reproducibility.
/// Reach it through `Spanner::baswana_sen().k(k).seed(seed).build(&graph)`.
///
/// # Errors
///
/// Returns [`SpannerError::InvalidK`] if `k == 0`.
pub(crate) fn run_baswana_sen<R: Rng + ?Sized>(
    graph: &WeightedGraph,
    k: usize,
    rng: &mut R,
) -> Result<WeightedGraph, SpannerError> {
    if k == 0 {
        return Err(SpannerError::InvalidK);
    }
    let n = graph.num_vertices();
    let mut spanner = WeightedGraph::empty_like(graph);
    if n == 0 {
        return Ok(spanner);
    }
    // All neighbor scans below run on the packed CSR view — the phases sweep
    // every vertex's adjacency repeatedly, which is exactly the access
    // pattern CSR makes contiguous. Half-edge order matches the adjacency
    // lists, so the construction is unchanged for a fixed seed.
    let csr = CsrGraph::from(graph);
    let sample_prob = (n as f64).powf(-1.0 / k as f64);

    // cluster[v] = Some(center) if v currently belongs to the cluster
    // centered at `center`, None if v has been discarded from the clustering.
    let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();
    // Edges still under consideration (not yet added or permanently removed).
    let mut alive: Vec<bool> = vec![true; graph.num_edges()];

    let add_edge = |spanner: &mut WeightedGraph, id: EdgeId| {
        let e = graph.edge(id);
        spanner.add_edge(e.u, e.v, e.weight);
    };

    for _phase in 0..k.saturating_sub(1) {
        // 1. Sample cluster centers.
        let centers: Vec<usize> = cluster
            .iter()
            .flatten()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let sampled: HashMap<usize, bool> = centers
            .iter()
            .map(|&c| (c, rng.gen_bool(sample_prob.clamp(0.0, 1.0))))
            .collect();

        let mut next_cluster: Vec<Option<usize>> = vec![None; n];
        // Vertices already inside a sampled cluster stay there.
        for v in 0..n {
            if let Some(c) = cluster[v] {
                if sampled.get(&c).copied().unwrap_or(false) {
                    next_cluster[v] = Some(c);
                }
            }
        }

        // 2. Every clustered vertex not in a sampled cluster looks at its
        //    neighboring clusters.
        for v in 0..n {
            let Some(own) = cluster[v] else { continue };
            if sampled.get(&own).copied().unwrap_or(false) {
                continue;
            }
            // Lightest alive edge from v to each neighboring cluster.
            let mut best_per_cluster: HashMap<usize, (EdgeId, f64)> = HashMap::new();
            let mut best_sampled: Option<(EdgeId, f64, usize)> = None;
            for nb in csr.neighbors(VertexId(v)) {
                if !alive[nb.edge.index()] {
                    continue;
                }
                let Some(cu) = cluster[nb.to.index()] else {
                    continue;
                };
                if cu == own {
                    continue;
                }
                let entry = best_per_cluster.entry(cu).or_insert((nb.edge, nb.weight));
                if entry.1 > nb.weight {
                    *entry = (nb.edge, nb.weight);
                }
                if sampled.get(&cu).copied().unwrap_or(false)
                    && best_sampled.is_none_or(|(_, bw, _)| nb.weight < bw)
                {
                    best_sampled = Some((nb.edge, nb.weight, cu));
                }
            }

            match best_sampled {
                None => {
                    // v joins no cluster: add the lightest edge to every
                    // neighboring cluster and retire v's other edges.
                    for (_, &(id, _)) in best_per_cluster.iter() {
                        add_edge(&mut spanner, id);
                    }
                    for nb in csr.neighbors(VertexId(v)) {
                        alive[nb.edge.index()] = false;
                    }
                    next_cluster[v] = None;
                }
                Some((join_id, join_w, join_center)) => {
                    // v joins the nearest sampled cluster.
                    add_edge(&mut spanner, join_id);
                    next_cluster[v] = Some(join_center);
                    // Also keep the lighter edges to the other clusters and
                    // retire edges into clusters that are now dominated.
                    for (&c, &(id, w)) in best_per_cluster.iter() {
                        if c == join_center {
                            continue;
                        }
                        if w < join_w {
                            add_edge(&mut spanner, id);
                        }
                    }
                    // Remove edges from v into the joined cluster and into
                    // clusters with a lighter-or-kept connection.
                    for nb in csr.neighbors(VertexId(v)) {
                        if let Some(cu) = cluster[nb.to.index()] {
                            if cu == join_center || nb.weight < join_w {
                                alive[nb.edge.index()] = false;
                            }
                        }
                    }
                }
            }
        }

        // 3. Remove intra-cluster edges for the next phase.
        for (i, e) in graph.edges().iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let (cu, cv) = (next_cluster[e.u.index()], next_cluster[e.v.index()]);
            if let (Some(a), Some(b)) = (cu, cv) {
                if a == b {
                    alive[i] = false;
                }
            }
        }
        cluster = next_cluster;
    }

    // Phase 2: vertex–cluster joining. Every vertex adds its lightest alive
    // edge into every remaining cluster.
    for v in 0..n {
        let mut best_per_cluster: HashMap<usize, (EdgeId, f64)> = HashMap::new();
        for nb in csr.neighbors(VertexId(v)) {
            if !alive[nb.edge.index()] {
                continue;
            }
            let Some(cu) = cluster[nb.to.index()] else {
                continue;
            };
            if cluster[v] == Some(cu) {
                continue;
            }
            let entry = best_per_cluster.entry(cu).or_insert((nb.edge, nb.weight));
            if entry.1 > nb.weight {
                *entry = (nb.edge, nb.weight);
            }
        }
        for (_, (id, _)) in best_per_cluster {
            add_edge(&mut spanner, id);
        }
    }

    // The construction may add the same underlying edge twice (once from each
    // endpoint); deduplicate to the lightest copy per endpoint pair.
    let mut dedup: HashMap<(usize, usize), f64> = HashMap::new();
    for e in spanner.edges() {
        let key = e.key();
        let w = dedup.entry(key).or_insert(e.weight);
        if e.weight < *w {
            *w = e.weight;
        }
    }
    let mut keys: Vec<_> = dedup.into_iter().collect();
    keys.sort_by_key(|a| a.0);
    let edges = keys.into_iter().map(|((u, v), w)| (u, v, w));
    Ok(WeightedGraph::from_edges(graph.num_vertices(), edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::max_stretch_over_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete_graph_with_weights, erdos_renyi_connected};

    #[test]
    fn k_zero_is_rejected() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            run_baswana_sen(&g, 0, &mut rng),
            Err(SpannerError::InvalidK)
        ));
    }

    #[test]
    fn k_one_keeps_every_edge() {
        // A (2·1 − 1) = 1-spanner must preserve all distances exactly; the
        // algorithm degenerates to keeping the lightest edge per pair.
        let mut rng = SmallRng::seed_from_u64(2);
        let g = erdos_renyi_connected(15, 0.4, 1.0..5.0, &mut rng);
        let h = run_baswana_sen(&g, 1, &mut rng).unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        assert!((max_stretch_over_edges(&g, &h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_is_at_most_2k_minus_1() {
        let mut rng = SmallRng::seed_from_u64(3);
        for k in [2usize, 3, 4] {
            for trial in 0..5 {
                let g = erdos_renyi_connected(40, 0.3, 1.0..10.0, &mut rng);
                let h = run_baswana_sen(&g, k, &mut rng).unwrap();
                let stretch = max_stretch_over_edges(&g, &h);
                let bound = (2 * k - 1) as f64;
                assert!(
                    stretch <= bound + 1e-9,
                    "k = {k}, trial = {trial}: stretch {stretch} exceeds {bound}"
                );
            }
        }
    }

    #[test]
    fn spanner_is_sparser_than_dense_input() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = complete_graph_with_weights(80, 1.0..10.0, &mut rng);
        let h = run_baswana_sen(&g, 3, &mut rng).unwrap();
        assert!(h.num_edges() > 0);
        assert!(
            h.num_edges() < g.num_edges() / 2,
            "expected significant sparsification, got {} of {}",
            h.num_edges(),
            g.num_edges()
        );
        assert!(h.is_edge_subgraph_of(&g));
    }

    #[test]
    fn empty_graph_yields_empty_spanner() {
        let g = WeightedGraph::new(0);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(run_baswana_sen(&g, 2, &mut rng).unwrap().num_edges(), 0);
    }
}
