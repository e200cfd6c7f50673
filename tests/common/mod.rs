//! Inputs shared by the root integration suites.

use rand::rngs::SmallRng;
use rand::Rng;
use spanner_graph::{VertexId, WeightedGraph};

/// How many adversarial families [`adversarial_graph`] draws from.
pub const ADVERSARIAL_FAMILIES: usize = 5;

/// Adversarial graph families for the serving and ALT contracts:
///
/// 0. weights of `1e300`, `1e-300` and `~1` mixed (sums that absorb the
///    light edges, and distances spanning 600 orders of magnitude);
/// 1. rounding ties: `1e17` edges mixed with edges of 1 and 3, which
///    vanish when added to `1e17` — equal distances reached in a settle
///    order that is not vertex-id order;
/// 2. disconnected: two random components and an isolated vertex, so
///    targets are unreachable and `k` exceeds the component size;
/// 3. one or two vertices, joined by an edge or not;
/// 4. tie-heavy integer weights in {1, 2, 3}: many equal-length shortest
///    paths, so path answers depend on the tie rule.
pub fn adversarial_graph(family: usize, n: usize, rng: &mut SmallRng) -> WeightedGraph {
    let weight = |rng: &mut SmallRng| match family {
        0 => [1e300, 1e-300, rng.gen_range(1.0..2.0)][rng.gen_range(0..3usize)],
        1 => [1e17, 1.0, 3.0][rng.gen_range(0..3usize)],
        _ => rng.gen_range(1.0..4.0f64).floor(),
    };
    let n = if family == 3 {
        rng.gen_range(1..3usize)
    } else {
        n
    };
    let mut g = WeightedGraph::new(n);
    // Disconnected graphs split the vertices at `n / 2` and leave the last
    // one isolated; the others form one random graph over all vertices.
    let split = if family == 2 { n / 2 } else { n };
    let end = if family == 2 { n - 1 } else { n };
    for u in 0..end {
        for v in (u + 1)..end {
            if (u < split) == (v < split) && rng.gen_bool(0.3) {
                let w = weight(rng);
                g.add_edge(VertexId(u), VertexId(v), w);
            }
        }
    }
    g
}
