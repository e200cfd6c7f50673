//! Adversarial equivalence suite for the bidirectional admission query:
//! `DijkstraEngine::within_bound` must return exactly
//! `bounded_distance(..).is_some()` — zero disagreements — on the inputs
//! where floating-point rounding and tie-breaking are most likely to split
//! the two searches:
//!
//! * bounds equal to the computed distance `D`, one ulp below and above it,
//!   and random bounds;
//! * tie-heavy integer weights, unit grids, and decimal (0.1-step) weights
//!   whose sums round differently in different association orders;
//! * weights near `1e±300`, including paths whose `d + w` overflows to `∞`;
//! * 1- and 2-vertex graphs and `source == target`;
//! * rows moved by appends and rows that lost deleted edges (live-update
//!   graphs);
//! * the generation-wrap reset.
//!
//! The decimal-weight path at `next_down(D)` drives the rounding-band
//! fallback, which the suite asserts actually runs.
//!
//! Every question is also put to `within_bound_witness` on a third engine:
//! its verdict must equal `within_bound`'s, and the walk it records behind
//! an accept must be a `source`–`target` walk of live edges whose
//! left-to-right weight sum is within the bound (no walk only for
//! `source == target` and for an accept the fallback decided). The rows it
//! reports behind a rejection the bidirectional search decided must
//! certify it: chaining every unread vertex with edges of the least
//! positive weight leaves the same search reading the same rows and
//! rejecting again.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::generators::{erdos_renyi, grid_graph};
use spanner_graph::{CsrGraph, DijkstraEngine, EdgeId, VertexId, WeightedGraph};

/// The one-sided reference and the bidirectional engine under test. The
/// reference is sized on demand; the tested engine is pre-sized so the
/// suite co-tests its zero-allocation contract.
struct Pair {
    reference: DijkstraEngine,
    tested: DijkstraEngine,
    /// Answers the same questions through `within_bound_witness`.
    witness: DijkstraEngine,
    walk: Vec<EdgeId>,
    reads: Vec<VertexId>,
    /// Re-asks rejections on graphs changed outside their read rows.
    recheck: DijkstraEngine,
    /// Accepts that recorded a walk.
    walks: usize,
    /// Rejections whose read rows were re-checked on a changed graph.
    certified: usize,
    disagreements: Vec<String>,
}

impl Pair {
    fn new(n: usize, m: usize) -> Self {
        Pair {
            reference: DijkstraEngine::new(),
            tested: DijkstraEngine::with_capacity_for(n, m),
            witness: DijkstraEngine::with_capacity_for(n, m),
            walk: Vec::new(),
            reads: Vec::new(),
            recheck: DijkstraEngine::new(),
            walks: 0,
            certified: 0,
            disagreements: Vec::new(),
        }
    }

    /// Asks both engines one question and records a disagreement.
    fn ask(&mut self, csr: &CsrGraph, s: usize, t: usize, bound: f64) {
        let (s, t) = (VertexId(s), VertexId(t));
        let want = self.reference.bounded_distance(csr, s, t, bound).is_some();
        let got = self.tested.within_bound(csr, s, t, bound);
        if want != got {
            self.disagreements.push(format!(
                "{s:?} -> {t:?} at bound {bound:e}: within_bound {got}, bounded_distance {want}"
            ));
        }
        let fallbacks = self.witness.stats().bidirectional_fallbacks;
        let witnessed =
            self.witness
                .within_bound_witness(csr, s, t, bound, &mut self.walk, &mut self.reads);
        let fell_back = self.witness.stats().bidirectional_fallbacks > fallbacks;
        self.walks += usize::from(!self.walk.is_empty());
        if let Some(fault) = walk_fault(csr, s, t, bound, witnessed, fell_back, &self.walk) {
            self.disagreements.push(format!(
                "{s:?} -> {t:?} at bound {bound:e}: within_bound_witness {witnessed} \
                 (within_bound {got}), walk {:?}: {fault}",
                self.walk
            ));
        }
        if let Some(fault) = self.reads_fault(csr, s, t, bound, witnessed, fell_back) {
            self.disagreements.push(format!(
                "{s:?} -> {t:?} at bound {bound:e}: within_bound_witness {witnessed}, \
                 reads {:?}: {fault}",
                self.reads
            ));
        }
        if witnessed != got {
            self.disagreements.push(format!(
                "{s:?} -> {t:?} at bound {bound:e}: within_bound_witness {witnessed}, \
                 within_bound {got}"
            ));
        }
    }

    /// What is wrong with the rows the witness engine reported reading, if
    /// anything. A rejection the bidirectional search decided (`s ≠ t`, a
    /// non-negative bound, no fallback) reads at least one row, and the
    /// same search on a graph whose other rows gained a chain of
    /// least-weight edges through every unread vertex reads the same rows
    /// and rejects too. Every other answer reports no rows.
    fn reads_fault(
        &mut self,
        csr: &CsrGraph,
        s: VertexId,
        t: VertexId,
        bound: f64,
        within: bool,
        fell_back: bool,
    ) -> Option<String> {
        if within || fell_back || s == t || bound.is_nan() || bound < 0.0 {
            return (!self.reads.is_empty()).then(|| "rows without a bidirectional reject".into());
        }
        if self.reads.is_empty() {
            return Some("a rejection read no row".into());
        }
        let mut read = vec![false; csr.num_vertices()];
        for v in &self.reads {
            read[v.index()] = true;
        }
        let unread: Vec<usize> = (0..csr.num_vertices()).filter(|&v| !read[v]).collect();
        let mut changed = csr.clone();
        for pair in unread.windows(2) {
            changed.append_edge(VertexId(pair[0]), VertexId(pair[1]), f64::MIN_POSITIVE);
        }
        let mut walk = Vec::new();
        let mut reads = Vec::new();
        let again = self
            .recheck
            .within_bound_witness(&changed, s, t, bound, &mut walk, &mut reads);
        self.certified += 1;
        if again {
            return Some(format!("a chain through {unread:?} makes it accept"));
        }
        (reads != self.reads).then(|| format!("the changed graph reads {reads:?}"))
    }

    /// The tight bounds around the computed distance — `D`, one ulp either
    /// side — plus `0`, `∞` and `extra` random bounds.
    fn ask_tight(&mut self, csr: &CsrGraph, s: usize, t: usize, rng: &mut SmallRng, extra: usize) {
        let exact = self
            .reference
            .bounded_distance(csr, VertexId(s), VertexId(t), f64::INFINITY);
        let mut bounds = vec![0.0, f64::INFINITY];
        if let Some(d) = exact {
            bounds.extend([d, d.next_down(), d.next_up()]);
            for _ in 0..extra {
                bounds.push(d * rng.gen_range(0.0..2.0));
            }
        }
        for bound in bounds {
            self.ask(csr, s, t, bound);
        }
    }

    /// Every pair `(s, t)` of a small graph at its tight bounds.
    fn ask_all_pairs(&mut self, csr: &CsrGraph, rng: &mut SmallRng, extra: usize) {
        let n = csr.num_vertices();
        for s in 0..n {
            for t in 0..n {
                self.ask_tight(csr, s, t, rng, extra);
            }
        }
    }

    /// Asserts zero disagreements and that every query of the pre-sized
    /// engine ran without allocating.
    fn finish(self, what: &str) -> DijkstraEngine {
        assert!(
            self.disagreements.is_empty(),
            "{what}: {} disagreements, first: {}",
            self.disagreements.len(),
            self.disagreements[0]
        );
        let stats = self.tested.stats();
        assert_eq!(stats.reuse_hits, stats.queries, "{what}: allocated");
        let stats = self.witness.stats();
        assert_eq!(
            stats.reuse_hits, stats.queries,
            "{what}: witness engine allocated"
        );
        self.tested
    }
}

/// What is wrong with the walk `within_bound_witness` recorded, if
/// anything: an accept decided by the bidirectional search (`s ≠ t`, no
/// fallback) must record a walk of live edges from `s` to `t` whose
/// left-to-right weight sum from `s` is within the bound (an overflowed
/// sum is no path); every other answer records none.
fn walk_fault(
    csr: &CsrGraph,
    s: VertexId,
    t: VertexId,
    bound: f64,
    within: bool,
    fell_back: bool,
    walk: &[EdgeId],
) -> Option<String> {
    if !within || s == t || fell_back {
        return (!walk.is_empty()).then(|| "a walk without a bidirectional accept".into());
    }
    if walk.is_empty() {
        return Some("an accept recorded no walk".into());
    }
    let (mut at, mut sum) = (s, 0.0);
    for &id in walk {
        if !csr.is_edge_live(id) {
            return Some(format!("edge {id:?} is not live"));
        }
        let (a, b, w) = csr.edge(id);
        at = if at == a {
            b
        } else if at == b {
            a
        } else {
            return Some(format!("edge {id:?} does not continue the walk at {at:?}"));
        };
        sum += w;
    }
    if at != t {
        return Some(format!("the walk ends at {at:?}"));
    }
    (sum > bound.min(f64::MAX)).then(|| format!("the walk sums to {sum:e}"))
}

/// An `n`-vertex graph with edge probability `p` and weights from `weight`.
fn random_graph(
    n: usize,
    p: f64,
    rng: &mut SmallRng,
    weight: impl Fn(&mut SmallRng) -> f64,
) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                let w = weight(rng);
                g.add_edge(VertexId(u), VertexId(v), w);
            }
        }
    }
    g
}

/// The weight families: uniform reals, integers in {1, 2, 3} (tie-heavy),
/// 0.1-step decimals (association-sensitive sums), and weights near
/// `1e300` (sums overflow) and `1e-300`.
fn family_weight(family: usize, rng: &mut SmallRng) -> f64 {
    match family {
        0 => rng.gen_range(1.0..10.0),
        1 => rng.gen_range(1..4) as f64,
        2 => rng.gen_range(1..31) as f64 * 0.1,
        3 => rng.gen_range(0.5..8.0) * 1e300,
        _ => rng.gen_range(1.0..10.0) * 1e-300,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs of every weight family, every ordered pair, at tight
    /// and random bounds.
    #[test]
    fn within_bound_matches_bounded_distance_on_weight_families(
        seed in 0u64..100_000,
        n in 1usize..24,
        family in 0usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = rng.gen_range(0.1..0.5);
        let g = random_graph(n, p, &mut rng, |r| family_weight(family, r));
        let csr = CsrGraph::from(&g);
        let mut pair = Pair::new(n, g.num_edges());
        pair.ask_all_pairs(&csr, &mut rng, 2);
        pair.finish(&format!("family {family}, n {n}, seed {seed}"));
    }

    /// Live-update graphs: rows that lose deleted edges and rows moved by
    /// appends past their capacity, queried after every mutation.
    #[test]
    fn within_bound_matches_under_deletions_and_overflow_chains(
        seed in 0u64..100_000,
        n in 2usize..20,
        family in 0usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(n, 0.35, &mut rng, |r| family_weight(family, r));
        let mut csr = CsrGraph::from(&g);
        // Deletions take edges of the initial build first, then appended
        // ones. The first step appends into the tight rows of the build,
        // which moves a row.
        let mut built: Vec<usize> = (0..g.num_edges()).collect();
        let mut appended: Vec<usize> = Vec::new();
        let mut moved = false;
        let mut pair = Pair::new(n, g.num_edges() + 16);
        for step in 0..16 {
            let pool = if built.is_empty() { &mut appended } else { &mut built };
            if step % 2 == 1 && !pool.is_empty() {
                let id = pool.swap_remove(rng.gen_range(0..pool.len()));
                csr.remove_edge(EdgeId(id)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                let w = family_weight(family, &mut rng);
                let starts = |csr: &CsrGraph| {
                    [u, v].map(|x| csr.packed_neighbors(VertexId(x)).0.as_ptr())
                };
                let before = starts(&csr);
                appended.push(csr.append_edge(VertexId(u), VertexId(v), w).index());
                moved |= starts(&csr) != before;
            }
            for _ in 0..4 {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                pair.ask_tight(&csr, s, t, &mut rng, 2);
            }
        }
        prop_assert!(csr.dead_edges() > 0);
        prop_assert!(moved);
        pair.finish(&format!("churn, family {family}, n {n}, seed {seed}"));
    }

    /// Connected ER graphs at the greedy's own query shape: random pairs,
    /// tight bounds around their distance.
    #[test]
    fn within_bound_matches_on_er_graphs(seed in 0u64..100_000, n in 30usize..120) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi(n, 8.0 / n as f64, 1.0..10.0, &mut rng);
        let csr = CsrGraph::from(&g);
        let mut pair = Pair::new(n, g.num_edges());
        for _ in 0..60 {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            pair.ask_tight(&csr, s, t, &mut rng, 3);
        }
        prop_assert!(pair.walks > 0, "no accept recorded a walk");
        prop_assert!(pair.certified > 0, "no rejection's rows were re-checked");
        pair.finish(&format!("er, n {n}, seed {seed}"));
    }
}

#[test]
fn within_bound_matches_on_unit_and_jittered_grids() {
    let mut rng = SmallRng::seed_from_u64(31);
    for jitter in [0.0, 0.3] {
        let g = grid_graph(9, 11, jitter, &mut rng);
        let csr = CsrGraph::from(&g);
        let mut pair = Pair::new(g.num_vertices(), g.num_edges());
        for _ in 0..400 {
            let n = g.num_vertices();
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            pair.ask_tight(&csr, s, t, &mut rng, 2);
        }
        pair.finish(&format!("grid, jitter {jitter}"));
    }
}

#[test]
fn within_bound_matches_on_tiny_graphs_and_self_pairs() {
    let mut rng = SmallRng::seed_from_u64(5);
    let graphs = [
        WeightedGraph::new(1),
        WeightedGraph::new(2),
        WeightedGraph::from_edges(2, [(0, 1, 0.1)]).unwrap(),
        WeightedGraph::from_edges(2, [(0, 1, 0.3), (0, 1, 0.1)]).unwrap(),
        WeightedGraph::from_edges(2, [(0, 1, 1.5e308)]).unwrap(),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let csr = CsrGraph::from(g);
        let mut pair = Pair::new(g.num_vertices(), g.num_edges());
        pair.ask_all_pairs(&csr, &mut rng, 4);
        for s in 0..g.num_vertices() {
            for bound in [-1.0, -0.0, f64::NAN, f64::MIN_POSITIVE] {
                pair.ask(&csr, s, s, bound);
                pair.ask(&csr, s, g.num_vertices() - 1 - s, bound);
            }
        }
        pair.finish(&format!("tiny graph {i}"));
    }
}

#[test]
fn within_bound_matches_when_path_sums_overflow_to_infinity() {
    // Two 1e308 hops sum to ∞ in f64. An overflowed sum is no path — as in
    // the reference Dijkstra of `spanner_graph::dijkstra` — so the far pair
    // is out of every bound, `∞` included.
    let g = WeightedGraph::from_edges(
        5,
        [
            (0, 1, 1e308),
            (1, 2, 1e308),
            (2, 3, 1.7e308),
            (0, 4, 1e-300),
            (4, 3, 1.6e308),
        ],
    )
    .unwrap();
    let csr = CsrGraph::from(&g);
    let mut rng = SmallRng::seed_from_u64(6);
    let mut pair = Pair::new(g.num_vertices(), g.num_edges());
    pair.ask_all_pairs(&csr, &mut rng, 4);
    for bound in [f64::INFINITY, f64::MAX, 1.7e308, 1.6e308, 1e308] {
        pair.ask(&csr, 0, 2, bound);
        pair.ask(&csr, 2, 0, bound);
        assert_eq!(
            spanner_graph::dijkstra::bounded_distance(&g, VertexId(0), VertexId(2), bound),
            None
        );
    }
    assert_eq!(
        pair.reference
            .bounded_distance(&csr, VertexId(0), VertexId(2), f64::INFINITY),
        None
    );
    let tree = pair.reference.shortest_path_tree(&csr, VertexId(0));
    assert_eq!(tree.distance(VertexId(2)), None);
    assert_eq!(tree.distance(VertexId(1)), Some(1e308));
    pair.finish("overflowing sums");
}

#[test]
fn within_bound_matches_after_a_generation_wrap() {
    let mut rng = SmallRng::seed_from_u64(8);
    let g = random_graph(16, 0.3, &mut rng, |r| family_weight(2, r));
    let csr = CsrGraph::from(&g);
    let mut pair = Pair::new(g.num_vertices(), g.num_edges());
    // Pollute both lanes' stamps, then force the wrap reset mid-stream.
    pair.ask_all_pairs(&csr, &mut rng, 1);
    pair.tested.force_generation_wrap();
    pair.witness.force_generation_wrap();
    pair.ask_all_pairs(&csr, &mut rng, 1);
    pair.tested.force_generation_wrap();
    pair.witness.force_generation_wrap();
    pair.ask_all_pairs(&csr, &mut rng, 1);
    let tested = pair.finish("generation wrap");
    assert_eq!(tested.stats().generation_wraps, 2);
}

#[test]
fn decimal_path_at_next_down_drives_the_fallback() {
    // A path of 0.1-step weights: its only meeting path sums to exactly
    // `D`, so one ulp below `D` the halves meet inside the rounding band
    // and only the one-sided search can reject.
    let mut rng = SmallRng::seed_from_u64(9);
    let weights: Vec<f64> = (0..40).map(|_| rng.gen_range(1..10) as f64 * 0.1).collect();
    let g = WeightedGraph::from_edges(
        weights.len() + 1,
        weights.iter().enumerate().map(|(i, &w)| (i, i + 1, w)),
    )
    .unwrap();
    let csr = CsrGraph::from(&g);
    let mut pair = Pair::new(g.num_vertices(), g.num_edges());
    let n = g.num_vertices();
    for (s, t) in [(0, n - 1), (n - 1, 0), (3, n - 5), (n / 2, 1)] {
        let d = pair
            .reference
            .bounded_distance(&csr, VertexId(s), VertexId(t), f64::INFINITY)
            .unwrap();
        pair.ask(&csr, s, t, d.next_down());
        pair.ask(&csr, s, t, d);
    }
    pair.ask_all_pairs(&csr, &mut rng, 1);
    let tested = pair.finish("decimal path");
    assert!(
        tested.stats().bidirectional_fallbacks > 0,
        "the rounding-band fallback never ran"
    );
}
