//! Executable forms of the paper's constructions and structural lemmas.
//!
//! * [`star_overlay_instance`] / [`figure_one_instance`] — the Figure 1
//!   construction: a high-girth graph `H` overlaid with a slightly heavier
//!   star `S`, on which the greedy `t`-spanner keeps every edge of `H` while
//!   the optimal `t`-spanner is the star.
//! * [`is_own_unique_spanner`] — Lemma 3: the only `t`-spanner of the greedy
//!   `t`-spanner is itself.
//! * [`contains_mst`] — Observation 2: the greedy spanner contains an MST of
//!   the input graph.

use spanner_graph::connectivity::is_connected;
use spanner_graph::generators::{heawood_graph, mcgee_graph, petersen_graph};
use spanner_graph::mst::mst_weight;
use spanner_graph::{CsrGraph, DijkstraEngine, VertexId, WeightedGraph};

use crate::error::{validate_stretch, SpannerError};

/// The Figure 1 style instance: the combined graph `G = H ∪ S`, plus the
/// canonical edge keys of `H` and of the star `S` so experiments can report
/// which side the greedy spanner kept.
#[derive(Debug, Clone)]
pub struct StarOverlayInstance {
    /// The combined graph `G`.
    pub graph: WeightedGraph,
    /// Canonical `(min, max)` endpoint keys of the edges of `H`.
    pub h_edge_keys: Vec<(usize, usize)>,
    /// Canonical `(min, max)` endpoint keys of the edges of the star `S`
    /// (all of them, including those that coincide with edges of `H`).
    pub star_edge_keys: Vec<(usize, usize)>,
    /// The root of the star.
    pub root: usize,
    /// The weight assigned to star edges that are not edges of `H`.
    pub heavy_weight: f64,
}

impl StarOverlayInstance {
    /// Number of edges of the combined graph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Counts how many edges of `spanner` are edges of `H` (by canonical key).
    pub fn count_h_edges_in(&self, spanner: &WeightedGraph) -> usize {
        spanner
            .edges()
            .iter()
            .filter(|e| self.h_edge_keys.contains(&e.key()))
            .count()
    }

    /// Weight of the star spanner `S` (the optimal `t`-spanner of `G` for
    /// `t ≥ 2 + 2ε`): `deg_H(root)` unit edges plus `n − 1 − deg_H(root)`
    /// heavy edges.
    pub fn star_weight(&self) -> f64 {
        self.star_edge_keys
            .iter()
            .map(|&(a, b)| {
                if self.h_edge_keys.contains(&(a, b)) {
                    1.0
                } else {
                    self.heavy_weight
                }
            })
            .sum()
    }
}

/// Builds the star-overlay instance of the paper's Figure 1 discussion from an
/// arbitrary unit-weight graph `h` (intended: a high-girth graph).
///
/// All edges of `h` keep weight 1; star edges from `root` to every
/// non-neighbor get weight `1 + epsilon`.
///
/// # Errors
///
/// Returns [`SpannerError::EmptyInput`] if `h` has no vertices or
/// [`SpannerError::InvalidEpsilon`]-like validation failures via `epsilon`
/// checks (`epsilon` must be positive and finite).
pub fn star_overlay_instance(
    h: &WeightedGraph,
    root: usize,
    epsilon: f64,
) -> Result<StarOverlayInstance, SpannerError> {
    if h.num_vertices() == 0 {
        return Err(SpannerError::EmptyInput);
    }
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(SpannerError::InvalidEpsilon { epsilon });
    }
    let n = h.num_vertices();
    let heavy = 1.0 + epsilon;
    let mut edges: Vec<(usize, usize, f64)> = h
        .edges()
        .iter()
        .map(|e| (e.u.index(), e.v.index(), e.weight))
        .collect();
    let h_edge_keys = h.edges().iter().map(|e| e.key()).collect();
    let mut star_edge_keys = Vec::with_capacity(n - 1);
    for v in 0..n {
        if v == root {
            continue;
        }
        let key = if root <= v { (root, v) } else { (v, root) };
        star_edge_keys.push(key);
        if !h.has_edge(VertexId(root), VertexId(v)) {
            edges.push((root, v, heavy));
        }
    }
    let graph = WeightedGraph::from_edges(n, edges)?;
    Ok(StarOverlayInstance {
        graph,
        h_edge_keys,
        star_edge_keys,
        root,
        heavy_weight: heavy,
    })
}

/// The exact instance of the paper's Figure 1: the Petersen graph (girth 5,
/// 15 unit edges) overlaid with a star of weight `1 + epsilon` rooted at
/// vertex 0.
pub fn figure_one_instance(epsilon: f64) -> Result<StarOverlayInstance, SpannerError> {
    star_overlay_instance(&petersen_graph(1.0), 0, epsilon)
}

/// Star overlays over the (3, g)-cages for g = 5, 6, 7 (Petersen, Heawood,
/// McGee), used to generalize the Figure 1 experiment.
pub fn cage_overlay_instances(
    epsilon: f64,
) -> Result<Vec<(String, StarOverlayInstance)>, SpannerError> {
    Ok(vec![
        (
            "petersen (girth 5)".to_owned(),
            star_overlay_instance(&petersen_graph(1.0), 0, epsilon)?,
        ),
        (
            "heawood (girth 6)".to_owned(),
            star_overlay_instance(&heawood_graph(1.0), 0, epsilon)?,
        ),
        (
            "mcgee (girth 7)".to_owned(),
            star_overlay_instance(&mcgee_graph(1.0), 0, epsilon)?,
        ),
    ])
}

/// Lemma 3 check: returns `true` if the only `t`-spanner of `spanner` is
/// `spanner` itself, i.e. removing any single edge `e = (u, v)` leaves
/// `δ_{H∖e}(u, v) > t · w(e)`.
///
/// Removing one edge is sufficient: any proper sub-spanner misses some edge
/// `e`, and its distance between `e`'s endpoints is at least the distance in
/// `H ∖ e`.
///
/// # Errors
///
/// Returns [`SpannerError::InvalidStretch`] for an invalid `t`.
pub fn is_own_unique_spanner(spanner: &WeightedGraph, t: f64) -> Result<bool, SpannerError> {
    validate_stretch(t)?;
    // One engine answers the m leave-one-out queries; each candidate graph is
    // assembled directly in CSR form (no intermediate WeightedGraph clone).
    let n = spanner.num_vertices();
    let mut engine = DijkstraEngine::with_capacity_for(n, spanner.num_edges());
    for (i, e) in spanner.edges().iter().enumerate() {
        let mut without = CsrGraph::new(n);
        for (j, f) in spanner.edges().iter().enumerate() {
            if j != i {
                without.append_edge(f.u, f.v, f.weight);
            }
        }
        let bound = t * e.weight;
        if engine.within_bound(&without, e.u, e.v, bound) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Observation 2 check: returns `true` if `spanner` spans `graph` and its MST
/// weight equals the MST weight of `graph`, i.e. the spanner contains a
/// minimum spanning tree of the input.
pub fn contains_mst(graph: &WeightedGraph, spanner: &WeightedGraph) -> bool {
    if graph.num_vertices() != spanner.num_vertices() {
        return false;
    }
    if graph.num_vertices() <= 1 {
        return true;
    }
    if is_connected(graph) && !is_connected(spanner) {
        return false;
    }
    (mst_weight(spanner) - mst_weight(graph)).abs() <= 1e-9 * mst_weight(graph).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::run_greedy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{cycle_graph, erdos_renyi_connected};

    #[test]
    fn figure_one_greedy_keeps_all_petersen_edges() {
        let inst = figure_one_instance(0.1).unwrap();
        // 15 Petersen edges + 6 heavy star edges (root 0 has 3 neighbors in H).
        assert_eq!(inst.num_edges(), 21);
        let greedy = run_greedy(&inst.graph, 3.0, 1).unwrap();
        assert_eq!(inst.count_h_edges_in(greedy.spanner()), 15);
        assert_eq!(greedy.spanner().num_edges(), 15);
        // The star spanner is much lighter: 3 unit + 6 heavy edges.
        assert!((inst.star_weight() - (3.0 + 6.0 * 1.1)).abs() < 1e-12);
        assert!(inst.star_weight() < greedy.spanner().total_weight());
    }

    #[test]
    fn cage_overlays_follow_the_same_pattern() {
        for (name, inst) in cage_overlay_instances(0.05).unwrap() {
            // For a (3, g)-cage, stretch g - 2 keeps every cage edge.
            let girth = spanner_graph::girth::girth(
                &inst
                    .graph
                    .filter_edges(|_, e| inst.h_edge_keys.contains(&e.key())),
            )
            .unwrap();
            let t = (girth - 2) as f64;
            let greedy = run_greedy(&inst.graph, t, 1).unwrap();
            assert_eq!(
                inst.count_h_edges_in(greedy.spanner()),
                inst.h_edge_keys.len(),
                "{name}"
            );
        }
    }

    #[test]
    fn star_overlay_validates_input() {
        let empty = WeightedGraph::new(0);
        assert!(matches!(
            star_overlay_instance(&empty, 0, 0.1),
            Err(SpannerError::EmptyInput)
        ));
        let g = cycle_graph(4, 1.0);
        assert!(matches!(
            star_overlay_instance(&g, 0, -1.0),
            Err(SpannerError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn lemma3_greedy_spanner_is_its_own_unique_spanner() {
        let mut rng = SmallRng::seed_from_u64(21);
        for t in [1.5, 2.0, 3.0] {
            let g = erdos_renyi_connected(30, 0.3, 1.0..10.0, &mut rng);
            let h = run_greedy(&g, t, 1).unwrap();
            assert!(is_own_unique_spanner(h.spanner(), t).unwrap(), "t = {t}");
        }
    }

    #[test]
    fn lemma3_fails_for_non_greedy_graphs() {
        // A triangle with a redundant heavy edge is not its own unique
        // 2-spanner: the heavy edge can be dropped.
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.8)]).unwrap();
        assert!(!is_own_unique_spanner(&g, 2.0).unwrap());
        assert!(is_own_unique_spanner(&g, 1.0).unwrap());
        assert!(is_own_unique_spanner(&g, f64::NAN).is_err());
    }

    #[test]
    fn observation2_holds_for_greedy_and_fails_for_disconnected_subgraphs() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = erdos_renyi_connected(25, 0.3, 1.0..5.0, &mut rng);
        let h = run_greedy(&g, 2.0, 1).unwrap();
        assert!(contains_mst(&g, h.spanner()));
        // An empty subgraph does not contain an MST.
        let empty = WeightedGraph::empty_like(&g);
        assert!(!contains_mst(&g, &empty));
        // Mismatched vertex sets are rejected.
        assert!(!contains_mst(&g, &WeightedGraph::new(3)));
        assert!(contains_mst(&WeightedGraph::new(1), &WeightedGraph::new(1)));
    }
}
