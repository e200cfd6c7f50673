//! Property tests for [`VertexPerm`] composition: chained renumberings
//! (shard-local mapping ∘ compaction remap) must collapse into a single
//! translation table that agrees with applying the stages one by one, and
//! inverses must round-trip to the identity.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::{VertexId, VertexPerm, WeightedGraph};

/// `g` with every vertex renamed through `perm` (new id =
/// `perm.to_internal(old id)`), edges in the same order.
fn relabel(g: &WeightedGraph, perm: &VertexPerm) -> WeightedGraph {
    let mut out = WeightedGraph::new(g.num_vertices());
    for e in g.edges() {
        out.add_edge(perm.to_internal(e.u), perm.to_internal(e.v), e.weight);
    }
    out
}

/// A uniformly random permutation over `n` vertices (seeded Fisher–Yates).
fn random_perm(n: usize, seed: u64) -> VertexPerm {
    let mut order: Vec<VertexId> = (0..n).map(VertexId).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    VertexPerm::from_order(&order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compose` agrees with applying the two stages in sequence, in both
    /// directions, for every vertex.
    #[test]
    fn compose_matches_staged_translation(n in 1usize..40, s1 in 0u64..500, s2 in 0u64..500) {
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        let ab = a.compose(&b);
        for v in (0..n).map(VertexId) {
            prop_assert_eq!(ab.to_internal(v), b.to_internal(a.to_internal(v)));
            prop_assert_eq!(ab.to_external(v), a.to_external(b.to_external(v)));
        }
    }

    /// A permutation composed with its inverse is the identity, both ways.
    #[test]
    fn inverse_round_trips(n in 1usize..40, seed in 0u64..500) {
        let p = random_perm(n, seed);
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
        for v in (0..n).map(VertexId) {
            prop_assert_eq!(p.inverse().to_internal(v), p.to_external(v));
        }
    }

    /// Identity is a two-sided unit for `compose`.
    #[test]
    fn identity_is_a_unit(n in 1usize..40, seed in 0u64..500) {
        let p = random_perm(n, seed);
        let id = VertexPerm::identity(n);
        prop_assert_eq!(p.compose(&id), p.clone());
        prop_assert_eq!(id.compose(&p), p);
    }

    /// Relabelling a graph through `a.compose(&b)` equals relabelling
    /// through `a` then `b` — the collapsed table is a drop-in for the
    /// pipeline.
    #[test]
    fn composed_reorder_matches_staged_reorder(n in 2usize..24, gs in 0u64..300, s1 in 0u64..300, s2 in 0u64..300) {
        let mut rng = SmallRng::seed_from_u64(gs);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(0.5..5.0));
                }
            }
        }
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        let staged = relabel(&relabel(&g, &a), &b);
        let collapsed = relabel(&g, &a.compose(&b));
        prop_assert_eq!(staged.num_edges(), collapsed.num_edges());
        for v in (0..n).map(VertexId) {
            prop_assert_eq!(staged.neighbors(v), collapsed.neighbors(v));
        }
    }
}
