//! The correctness gate. Every check runs outside the timed regions and
//! compares the pipeline against independent code paths: the reference
//! greedy loop, the stretch certificate, and the `spanner_graph::dijkstra`
//! free functions.

use greedy_spanner::analysis::max_stretch_over_edges;
use greedy_spanner::greedy::greedy_spanner_reference;
use greedy_spanner::{Answer, Query, SpannerOutput};
use spanner_graph::dijkstra;
use spanner_graph::{VertexId, WeightedGraph};

/// A greedy build must equal the reference loop edge for edge (same edges,
/// same order, same weight bits) and must certify its stretch target.
pub fn greedy_build(graph: &WeightedGraph, output: &SpannerOutput, t: f64) -> Result<(), String> {
    let reference = greedy_spanner_reference(graph, t).map_err(|e| format!("reference: {e}"))?;
    if output.spanner != *reference.spanner() {
        return Err(format!(
            "greedy build differs from the reference loop ({} vs {} edges)",
            output.spanner.num_edges(),
            reference.spanner().num_edges()
        ));
    }
    stretch_certificate(graph, &output.spanner, t)
}

/// The spanner's measured stretch over the edges of `graph` is within `t`.
pub fn stretch_certificate(
    graph: &WeightedGraph,
    spanner: &WeightedGraph,
    t: f64,
) -> Result<(), String> {
    let stretch = max_stretch_over_edges(graph, spanner);
    if stretch <= t * (1.0 + 1e-9) + 1e-12 {
        Ok(())
    } else {
        Err(format!("measured stretch {stretch} exceeds the target {t}"))
    }
}

/// Served answers must equal what the free Dijkstra functions compute on the
/// spanner (in external vertex ids). Returns how many answers disagree, with
/// the first disagreement.
pub fn answers(
    spanner: &WeightedGraph,
    queries: &[Query],
    answers: &[Answer],
) -> (u64, Option<String>) {
    let mut wrong = 0u64;
    let mut first = None;
    if queries.len() != answers.len() {
        return (
            queries.len() as u64,
            Some(format!(
                "{} answers for {} queries",
                answers.len(),
                queries.len()
            )),
        );
    }
    for (i, (query, answer)) in queries.iter().zip(answers).enumerate() {
        if let Err(message) = answer_matches(spanner, query, answer) {
            wrong += 1;
            first.get_or_insert_with(|| format!("query {i} {query:?}: {message}"));
        }
    }
    (wrong, first)
}

fn answer_matches(g: &WeightedGraph, query: &Query, answer: &Answer) -> Result<(), String> {
    match (*query, answer) {
        (
            Query::Distance {
                source,
                target,
                bound,
            },
            Answer::Distance(got),
        ) => {
            let want = dijkstra::bounded_distance(g, source, target, bound);
            same_bits(want, *got)
        }
        (Query::Path { source, target }, Answer::Path(got)) => {
            let want = dijkstra::shortest_path_distance(g, source, target).ok();
            match got {
                None => same_bits(want, None),
                Some(path) => {
                    same_bits(want, Some(path.distance))?;
                    valid_path(g, source, target, &path.vertices, path.distance)
                }
            }
        }
        (Query::KNearest { source, k }, Answer::KNearest(got)) => {
            let mut want = dijkstra::ball(g, source, f64::INFINITY);
            want.truncate(k);
            same_members(&want, got)
        }
        (Query::Ball { source, radius }, Answer::Ball(got)) => {
            same_members(&dijkstra::ball(g, source, radius), got)
        }
        (q, a) => Err(format!("unexpected answer kind {a:?} for {q:?}")),
    }
}

fn same_bits(want: Option<f64>, got: Option<f64>) -> Result<(), String> {
    if want.map(f64::to_bits) == got.map(f64::to_bits) {
        Ok(())
    } else {
        Err(format!("expected {want:?}, served {got:?}"))
    }
}

fn same_members(want: &[(VertexId, f64)], got: &[(VertexId, f64)]) -> Result<(), String> {
    let key = |m: &[(VertexId, f64)]| -> Vec<(usize, u64)> {
        m.iter().map(|&(v, d)| (v.index(), d.to_bits())).collect()
    };
    if key(want) == key(got) {
        Ok(())
    } else {
        Err(format!(
            "expected {} members, served {} that differ",
            want.len(),
            got.len()
        ))
    }
}

/// The path starts at `source`, ends at `target`, walks spanner edges, and
/// its prefix sums reproduce `distance` exactly.
fn valid_path(
    g: &WeightedGraph,
    source: VertexId,
    target: VertexId,
    vertices: &[VertexId],
    distance: f64,
) -> Result<(), String> {
    if vertices.first() != Some(&source) || vertices.last() != Some(&target) {
        return Err("path endpoints do not match the query".to_owned());
    }
    let mut sum = 0.0f64;
    for pair in vertices.windows(2) {
        let step = g
            .neighbors(pair[0])
            .iter()
            .filter(|&&(to, _)| to == pair[1])
            .map(|&(_, id)| g.edge(id).weight)
            .min_by(f64::total_cmp)
            .ok_or_else(|| format!("path uses a non-edge {:?}-{:?}", pair[0], pair[1]))?;
        sum += step;
    }
    if sum.to_bits() == distance.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "path weight {sum} differs from its distance {distance}"
        ))
    }
}
