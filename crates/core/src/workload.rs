//! Query- and update-workload generation for the serving layer:
//! deterministic, seed-driven batches that model realistic traffic.
//!
//! Benches, tests and the experiment tables all need the same traffic
//! shapes: uniformly random point-to-point pairs (the cache-hostile
//! baseline), Zipf-skewed hotspots (real traffic — a few sources dominate,
//! which is what a shortest-path-tree cache exploits), ball-radius sweeps
//! (range queries at several scales) and mixed read profiles. One
//! [`QueryWorkload`] value describes a shape; [`QueryWorkload::generate`]
//! materializes it as a `Vec<Query>`, identically for the same seed.
//! Degenerate parameters (zero-vertex universes, non-finite or non-positive
//! Zipf exponents, bad radii) are rejected at *construction* with a typed
//! [`WorkloadError`] — a workload value that exists always generates a
//! meaningful stream.
//!
//! For live serving, [`LiveWorkload`] generates **mixed query/update
//! streams**: a deterministic sequence of [`StreamEvent`]s in which each
//! round is either a query batch or an [`UpdateBatch`], with a configurable
//! update fraction. Deletions always reference edges that are live at that
//! point of the stream (the generator tracks its own edge view and avoids
//! parallel edges, so delete-by-endpoints is unambiguous).
//!
//! ```
//! use greedy_spanner::workload::QueryWorkload;
//!
//! let batch = QueryWorkload::zipf(1000, 1.1)?.queries(256).seed(7).generate();
//! assert_eq!(batch.len(), 256);
//! assert_eq!(batch, QueryWorkload::zipf(1000, 1.1)?.queries(256).seed(7).generate());
//! # Ok::<(), greedy_spanner::workload::WorkloadError>(())
//! ```

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::{VertexId, WeightedGraph};

use crate::serve::Query;
use crate::update::UpdateBatch;

/// Errors a workload description can be rejected with at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Pair queries need at least two vertices.
    UniverseTooSmall {
        /// The offending vertex count.
        num_vertices: usize,
    },
    /// A Zipf exponent must be positive and finite.
    InvalidZipfExponent {
        /// The offending exponent.
        exponent: f64,
    },
    /// A ball sweep needs at least one radius.
    EmptyRadiusSchedule,
    /// Ball radii must be non-negative and finite.
    InvalidRadius {
        /// The offending radius.
        radius: f64,
    },
    /// A fraction parameter must lie in `[0, 1]`.
    InvalidFraction {
        /// The offending fraction.
        fraction: f64,
    },
    /// An update-weight range must be positive, finite and non-empty.
    InvalidWeightRange {
        /// Lower bound of the offending range.
        lo: f64,
        /// Upper bound of the offending range.
        hi: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UniverseTooSmall { num_vertices } => write!(
                f,
                "workloads need at least two vertices, got {num_vertices}"
            ),
            WorkloadError::InvalidZipfExponent { exponent } => {
                write!(f, "Zipf exponent {exponent} must be positive and finite")
            }
            WorkloadError::EmptyRadiusSchedule => {
                write!(f, "ball sweeps need at least one radius")
            }
            WorkloadError::InvalidRadius { radius } => {
                write!(f, "ball radius {radius} must be non-negative and finite")
            }
            WorkloadError::InvalidFraction { fraction } => {
                write!(f, "fraction {fraction} must lie in [0, 1]")
            }
            WorkloadError::InvalidWeightRange { lo, hi } => write!(
                f,
                "weight range {lo}..{hi} must be positive, finite and non-empty"
            ),
        }
    }
}

impl Error for WorkloadError {}

/// The traffic shape a [`QueryWorkload`] generates.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// Uniformly random `(source, target)` distance queries.
    Uniform,
    /// Sources drawn from a Zipf distribution over a shuffled vertex
    /// ranking (hotspots), targets uniform.
    Zipf {
        /// Zipf exponent (`s > 0`; larger = more skew).
        exponent: f64,
    },
    /// Ball queries cycling through a fixed radius schedule, sources
    /// uniform.
    BallSweep {
        /// The radii to sweep over.
        radii: Vec<f64>,
    },
    /// A mixed read profile: bounded distances (Zipf-skewed sources),
    /// paths, k-nearest, balls and optionally stretch audits.
    Mixed {
        /// Include stretch-audit queries (requires a server with an audit
        /// baseline).
        audits: bool,
    },
    /// Uniformly random distance queries whose endpoints are drawn from an
    /// explicit vertex set (sorted, deduplicated) — boundary-targeted
    /// cross-shard traffic.
    OverSet {
        /// The vertex universe, sorted and deduplicated.
        vertices: Vec<VertexId>,
    },
}

/// A deterministic query-workload description; see the
/// [module docs](crate::workload). Parameters are validated at
/// construction — every constructor returns `Result`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkload {
    num_vertices: usize,
    count: usize,
    seed: u64,
    bound: f64,
    shape: Shape,
}

fn check_universe(num_vertices: usize) -> Result<(), WorkloadError> {
    if num_vertices < 2 {
        Err(WorkloadError::UniverseTooSmall { num_vertices })
    } else {
        Ok(())
    }
}

impl QueryWorkload {
    fn new(num_vertices: usize, shape: Shape) -> Result<Self, WorkloadError> {
        check_universe(num_vertices)?;
        Ok(QueryWorkload {
            num_vertices,
            count: 1024,
            seed: 0,
            bound: f64::INFINITY,
            shape,
        })
    }

    /// Uniformly random point-to-point distance queries over `num_vertices`
    /// vertices — the cache-hostile baseline shape.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`] for fewer than two vertices.
    pub fn uniform(num_vertices: usize) -> Result<Self, WorkloadError> {
        QueryWorkload::new(num_vertices, Shape::Uniform)
    }

    /// Zipf-skewed hotspot traffic: sources follow a Zipf law with the
    /// given `exponent` over a seed-shuffled vertex ranking, targets are
    /// uniform. Larger exponents concentrate more of the batch on fewer
    /// sources (≈1.0 is web-like traffic).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`] for fewer than two vertices, and
    /// [`WorkloadError::InvalidZipfExponent`] for a `NaN`, infinite, zero
    /// or negative exponent — a degenerate exponent would silently produce
    /// a uniform or single-source stream.
    pub fn zipf(num_vertices: usize, exponent: f64) -> Result<Self, WorkloadError> {
        if !(exponent.is_finite() && exponent > 0.0) {
            return Err(WorkloadError::InvalidZipfExponent { exponent });
        }
        QueryWorkload::new(num_vertices, Shape::Zipf { exponent })
    }

    /// Ball queries cycling through `radii` (each radius gets every
    /// `radii.len()`-th query), sources uniform.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`],
    /// [`WorkloadError::EmptyRadiusSchedule`], or
    /// [`WorkloadError::InvalidRadius`] for a negative/`NaN`/infinite
    /// radius.
    pub fn ball_sweep(num_vertices: usize, radii: Vec<f64>) -> Result<Self, WorkloadError> {
        if radii.is_empty() {
            return Err(WorkloadError::EmptyRadiusSchedule);
        }
        if let Some(&radius) = radii.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
            return Err(WorkloadError::InvalidRadius { radius });
        }
        QueryWorkload::new(num_vertices, Shape::BallSweep { radii })
    }

    /// A mixed read profile over Zipf-skewed sources. Query `i` of a
    /// generated batch takes its kind from `i mod 100`: slots 0–59 are
    /// bounded distances, 60–74 paths, 75–84 k-nearest, 85–94 balls and
    /// 95–99 stretch audits (distances when `audits` is `false`).
    ///
    /// So the 60/15/10/10/5 % split holds only for batches whose length is
    /// a multiple of 100. A shorter batch gets the front of the slot table:
    /// a 64-query batch holds 60 distances and 4 paths (indices 60–63) and
    /// no k-nearest, ball or audit query at all; a 256-query batch holds
    /// 186 distances, 30 paths, 20 k-nearest and 20 balls with audits off.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`] for fewer than two vertices.
    pub fn mixed(num_vertices: usize, audits: bool) -> Result<Self, WorkloadError> {
        QueryWorkload::new(num_vertices, Shape::Mixed { audits })
    }

    /// Uniformly random point-to-point distance queries whose endpoints are
    /// drawn from an explicit vertex set instead of the whole id space —
    /// the shape the sharded serving bench uses to aim traffic at a
    /// partition's *boundary* vertices, where every query crosses shards.
    /// The set is sorted and deduplicated, so any ordering of the same
    /// vertices describes the same workload.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`] for fewer than two *distinct*
    /// vertices.
    pub fn uniform_over(vertices: Vec<VertexId>) -> Result<Self, WorkloadError> {
        let mut vertices = vertices;
        vertices.sort();
        vertices.dedup();
        check_universe(vertices.len())?;
        let num_vertices = vertices.last().expect("non-empty").index() + 1;
        Ok(QueryWorkload {
            num_vertices,
            count: 1024,
            seed: 0,
            bound: f64::INFINITY,
            shape: Shape::OverSet { vertices },
        })
    }

    /// Sets the number of queries to generate (default 1024).
    pub fn queries(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the RNG seed (default 0). Equal descriptions with equal seeds
    /// generate equal batches.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the distance bound attached to generated distance queries
    /// (default unbounded).
    pub fn bound(mut self, bound: f64) -> Self {
        self.bound = bound;
        self
    }

    /// Materializes the workload as a query batch. Deterministic: a pure
    /// function of the description (shape, count, seed, bound). Never
    /// panics — every parameter was validated at construction.
    pub fn generate(&self) -> Vec<Query> {
        let n = self.num_vertices;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut queries = Vec::with_capacity(self.count);
        match &self.shape {
            Shape::Uniform => {
                for _ in 0..self.count {
                    let (s, t) = distinct_pair(&mut rng, n);
                    queries.push(Query::distance(s, t, self.bound));
                }
            }
            Shape::Zipf { exponent } => {
                let sampler = ZipfSampler::new(n, *exponent, &mut rng);
                for _ in 0..self.count {
                    let s = sampler.sample(&mut rng);
                    let t = uniform_other(&mut rng, n, s);
                    queries.push(Query::distance(s, t, self.bound));
                }
            }
            Shape::BallSweep { radii } => {
                for i in 0..self.count {
                    let s = VertexId(rng.gen_range(0..n));
                    queries.push(Query::ball(s, radii[i % radii.len()]));
                }
            }
            Shape::Mixed { audits } => {
                let sampler = ZipfSampler::new(n, 1.1, &mut rng);
                for i in 0..self.count {
                    let s = sampler.sample(&mut rng);
                    let t = uniform_other(&mut rng, n, s);
                    // Percent slots out of 100, fixed so the profile (and
                    // the cache behavior it drives) is stable per index.
                    queries.push(match i % 100 {
                        0..=59 => Query::distance(s, t, self.bound),
                        60..=74 => Query::path(s, t),
                        75..=84 => Query::k_nearest(s, 1 + i % 16),
                        85..=94 => Query::ball(s, (i % 8) as f64),
                        _ if *audits => Query::stretch_audit(s, t),
                        _ => Query::distance(s, t, self.bound),
                    });
                }
            }
            Shape::OverSet { vertices } => {
                for _ in 0..self.count {
                    let i = rng.gen_range(0..vertices.len());
                    let mut j = rng.gen_range(0..vertices.len() - 1);
                    if j >= i {
                        j += 1;
                    }
                    queries.push(Query::distance(vertices[i], vertices[j], self.bound));
                }
            }
        }
        queries
    }
}

/// One round of a [`LiveWorkload`] stream: a query batch to answer, or an
/// update batch to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Answer these queries ([`crate::serve::SpannerServer::answer_batch`]).
    Queries(Vec<Query>),
    /// Apply these updates
    /// ([`crate::serve::SpannerServer::apply_updates`]).
    Updates(UpdateBatch),
}

/// A deterministic mixed query/update stream over a live spanner; see the
/// [module docs](crate::workload).
///
/// ```
/// use greedy_spanner::workload::{LiveWorkload, StreamEvent};
/// use spanner_graph::WeightedGraph;
///
/// let g = WeightedGraph::from_edges(50, (1..50).map(|v| (v - 1, v, 1.0)))?;
/// let stream = LiveWorkload::new(50)?
///     .update_fraction(0.5)?
///     .rounds(8)
///     .seed(3)
///     .generate(&g);
/// assert_eq!(stream.len(), 8);
/// assert!(stream.iter().any(|e| matches!(e, StreamEvent::Updates(_))));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LiveWorkload {
    num_vertices: usize,
    rounds: usize,
    queries_per_batch: usize,
    updates_per_batch: usize,
    update_fraction: f64,
    insert_fraction: f64,
    weight_lo: f64,
    weight_hi: f64,
    bound: f64,
    audits: bool,
    seed: u64,
}

impl LiveWorkload {
    /// A stream description with defaults: 16 rounds, 256 queries or 16
    /// updates per batch, update fraction 0.25, insert fraction 0.6 (the
    /// rest split evenly between deletions and reweights), insert weights
    /// drawn from `1.0..10.0`, audits on.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UniverseTooSmall`] for fewer than two vertices.
    pub fn new(num_vertices: usize) -> Result<Self, WorkloadError> {
        check_universe(num_vertices)?;
        Ok(LiveWorkload {
            num_vertices,
            rounds: 16,
            queries_per_batch: 256,
            updates_per_batch: 16,
            update_fraction: 0.25,
            insert_fraction: 0.6,
            weight_lo: 1.0,
            weight_hi: 10.0,
            bound: f64::INFINITY,
            audits: true,
            seed: 0,
        })
    }

    /// Sets the number of stream rounds (default 16).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets queries per query batch (default 256).
    pub fn queries_per_batch(mut self, count: usize) -> Self {
        self.queries_per_batch = count;
        self
    }

    /// Sets updates per update batch (default 16).
    pub fn updates_per_batch(mut self, count: usize) -> Self {
        self.updates_per_batch = count;
        self
    }

    /// Sets the fraction of rounds that are update batches (default 0.25).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidFraction`] outside `[0, 1]` (or `NaN`).
    pub fn update_fraction(mut self, fraction: f64) -> Result<Self, WorkloadError> {
        if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
            return Err(WorkloadError::InvalidFraction { fraction });
        }
        self.update_fraction = fraction;
        Ok(self)
    }

    /// Sets the fraction of updates that are insertions (default 0.6); the
    /// remainder splits evenly between deletions and reweights.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidFraction`] outside `[0, 1]` (or `NaN`).
    pub fn insert_fraction(mut self, fraction: f64) -> Result<Self, WorkloadError> {
        if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
            return Err(WorkloadError::InvalidFraction { fraction });
        }
        self.insert_fraction = fraction;
        Ok(self)
    }

    /// Sets the weight range insertions and reweights draw from (default
    /// `1.0..10.0`).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidWeightRange`] unless `0 < lo < hi < ∞`.
    pub fn weights(mut self, lo: f64, hi: f64) -> Result<Self, WorkloadError> {
        if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi) {
            return Err(WorkloadError::InvalidWeightRange { lo, hi });
        }
        self.weight_lo = lo;
        self.weight_hi = hi;
        Ok(self)
    }

    /// Sets the distance bound attached to generated distance queries
    /// (default unbounded).
    pub fn bound(mut self, bound: f64) -> Self {
        self.bound = bound;
        self
    }

    /// Include stretch-audit queries (default `true`; live servers always
    /// have an audit baseline).
    pub fn audits(mut self, audits: bool) -> Self {
        self.audits = audits;
        self
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materializes the stream against the initial graph. Deterministic: a
    /// pure function of the description and `initial`'s edge set. The
    /// generator tracks its own view of the live edges, so every deletion
    /// and reweight references a pair that is live at that point, and
    /// insertions never create parallel edges (delete-by-endpoints stays
    /// unambiguous).
    pub fn generate(&self, initial: &WeightedGraph) -> Vec<StreamEvent> {
        let n = self.num_vertices;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut live: Vec<(usize, usize)> = Vec::new();
        let mut present: HashSet<(usize, usize)> = HashSet::new();
        for e in initial.edges() {
            let key = e.key();
            if present.insert(key) {
                live.push(key);
            }
        }
        let mut events = Vec::with_capacity(self.rounds);
        for round in 0..self.rounds {
            if rng.gen_bool(self.update_fraction) {
                let mut batch = UpdateBatch::new();
                // Edges removed by this batch: a later update of the same
                // batch must not touch them (deletions apply before
                // insertions — see `UpdateBatch`). Pairs inserted by this
                // batch likewise only become deletable in later rounds.
                let mut removed_this_batch: HashSet<(usize, usize)> = HashSet::new();
                let mut inserted_this_batch: Vec<(usize, usize)> = Vec::new();
                for _ in 0..self.updates_per_batch {
                    let deletable = !live.is_empty();
                    if rng.gen_bool(self.insert_fraction) || !deletable {
                        // Rejection-sample a fresh pair; on a near-complete
                        // graph fall back to a delete (or skip).
                        let mut found = None;
                        for _ in 0..64 {
                            let u = rng.gen_range(0..n);
                            let mut v = rng.gen_range(0..n - 1);
                            if v >= u {
                                v += 1;
                            }
                            let key = if u < v { (u, v) } else { (v, u) };
                            if !present.contains(&key) {
                                found = Some(key);
                                break;
                            }
                        }
                        if let Some((u, v)) = found {
                            let w = rng.gen_range(self.weight_lo..self.weight_hi);
                            batch = batch.insert(VertexId(u), VertexId(v), w);
                            present.insert((u, v));
                            inserted_this_batch.push((u, v));
                            continue;
                        }
                    }
                    if deletable {
                        let i = rng.gen_range(0..live.len());
                        let (u, v) = live[i];
                        if removed_this_batch.contains(&(u, v)) {
                            continue;
                        }
                        if rng.gen_bool(0.5) {
                            batch = batch.delete(VertexId(u), VertexId(v));
                            live.swap_remove(i);
                            present.remove(&(u, v));
                            removed_this_batch.insert((u, v));
                        } else {
                            let w = rng.gen_range(self.weight_lo..self.weight_hi);
                            batch = batch.reweight(VertexId(u), VertexId(v), w);
                            removed_this_batch.insert((u, v));
                        }
                    }
                }
                live.extend(inserted_this_batch);
                events.push(StreamEvent::Updates(batch));
            } else {
                let queries = QueryWorkload::mixed(n, self.audits)
                    .expect("validated at construction")
                    .queries(self.queries_per_batch)
                    .seed(self.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .bound(self.bound)
                    .generate();
                events.push(StreamEvent::Queries(queries));
            }
        }
        events
    }
}

/// Draws an ordered pair of two distinct vertices.
fn distinct_pair(rng: &mut SmallRng, n: usize) -> (VertexId, VertexId) {
    let s = VertexId(rng.gen_range(0..n));
    (s, uniform_other(rng, n, s))
}

/// Draws a vertex uniformly from all vertices except `s`.
fn uniform_other(rng: &mut SmallRng, n: usize, s: VertexId) -> VertexId {
    let t = rng.gen_range(0..n - 1);
    VertexId(if t >= s.index() { t + 1 } else { t })
}

/// Inverse-CDF Zipf sampling over a shuffled vertex ranking: rank `r`
/// (0-based) carries weight `(r + 1)^-s`; which vertex holds which rank is a
/// seed-dependent permutation so hotspots are not always the low indices.
struct ZipfSampler {
    /// Prefix sums of the rank weights.
    cdf: Vec<f64>,
    /// `rank → vertex` assignment.
    ranked: Vec<u32>,
}

impl ZipfSampler {
    /// `exponent` was validated by [`QueryWorkload::zipf`] (or is the fixed
    /// mixed-profile constant).
    fn new(n: usize, exponent: f64, rng: &mut SmallRng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += ((rank + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        let mut ranked: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates off the workload RNG, so the hotspot identity is part
        // of the deterministic stream.
        for i in (1..ranked.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            ranked.swap(i, j);
        }
        ZipfSampler { cdf, ranked }
    }

    fn sample(&self, rng: &mut SmallRng) -> VertexId {
        let total = *self.cdf.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        let rank = self.cdf.partition_point(|&c| c <= x);
        VertexId(self.ranked[rank.min(self.ranked.len() - 1)] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;
    use std::collections::HashMap;

    fn source_counts(queries: &[Query]) -> HashMap<usize, usize> {
        let mut counts = HashMap::new();
        for q in queries {
            *counts.entry(q.source().index()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn uniform_over_draws_distinct_pairs_from_the_given_set() {
        let set: Vec<VertexId> = [9usize, 3, 17, 3, 40, 9].map(VertexId).to_vec();
        let workload = QueryWorkload::uniform_over(set.clone()).unwrap();
        let queries = workload.clone().queries(300).seed(5).bound(8.0).generate();
        assert_eq!(queries.len(), 300);
        let allowed: HashSet<usize> = [3usize, 9, 17, 40].into_iter().collect();
        for q in &queries {
            let Query::Distance {
                source,
                target,
                bound,
            } = q
            else {
                panic!("uniform_over generates distance queries only");
            };
            assert!(allowed.contains(&source.index()));
            assert!(allowed.contains(&target.index()));
            assert_ne!(source, target);
            assert_eq!(*bound, 8.0);
        }
        // Every member of the set appears as a source eventually.
        let sources = source_counts(&queries);
        assert_eq!(sources.len(), allowed.len());
        // Same description, same batch; ordering of the input set is
        // irrelevant.
        let reordered: Vec<VertexId> = [40usize, 17, 9, 3].map(VertexId).to_vec();
        assert_eq!(
            queries,
            QueryWorkload::uniform_over(reordered)
                .unwrap()
                .queries(300)
                .seed(5)
                .bound(8.0)
                .generate()
        );
        // Fewer than two distinct vertices is rejected up front.
        assert_eq!(
            QueryWorkload::uniform_over(vec![VertexId(7), VertexId(7)]),
            Err(WorkloadError::UniverseTooSmall { num_vertices: 1 })
        );
    }

    #[test]
    fn workloads_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = QueryWorkload::uniform(50)
            .unwrap()
            .queries(200)
            .seed(3)
            .generate();
        let b = QueryWorkload::uniform(50)
            .unwrap()
            .queries(200)
            .seed(3)
            .generate();
        let c = QueryWorkload::uniform(50)
            .unwrap()
            .queries(200)
            .seed(4)
            .generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn uniform_pairs_are_valid_and_spread_out() {
        let queries = QueryWorkload::uniform(20)
            .unwrap()
            .queries(500)
            .bound(7.5)
            .generate();
        for q in &queries {
            let Query::Distance {
                source,
                target,
                bound,
            } = *q
            else {
                panic!("uniform workload generates distance queries only");
            };
            assert!(source.index() < 20 && target.index() < 20);
            assert_ne!(source, target);
            assert_eq!(bound, 7.5);
        }
        // Every vertex should appear as a source in 500 draws over 20.
        assert_eq!(source_counts(&queries).len(), 20);
    }

    #[test]
    fn zipf_concentrates_traffic_on_hotspots() {
        let n = 200;
        let queries = QueryWorkload::zipf(n, 1.2)
            .unwrap()
            .queries(2000)
            .generate();
        let counts = source_counts(&queries);
        let max = *counts.values().max().unwrap();
        // A uniform workload would put ~10 queries on each source; the top
        // Zipf hotspot must be far above that.
        assert!(max > 100, "hottest source only got {max} of 2000");
        let uniform_counts =
            source_counts(&QueryWorkload::uniform(n).unwrap().queries(2000).generate());
        let uniform_max = *uniform_counts.values().max().unwrap();
        assert!(max > 3 * uniform_max, "zipf {max} vs uniform {uniform_max}");
    }

    #[test]
    fn ball_sweep_cycles_the_radius_schedule() {
        let radii = vec![0.5, 1.0, 2.0];
        let queries = QueryWorkload::ball_sweep(30, radii.clone())
            .unwrap()
            .queries(9)
            .generate();
        for (i, q) in queries.iter().enumerate() {
            let Query::Ball { radius, source } = *q else {
                panic!("ball sweep generates ball queries only");
            };
            assert_eq!(radius, radii[i % 3]);
            assert!(source.index() < 30);
        }
    }

    /// `(distance, path, k-nearest, ball, audit)` counts of a batch.
    fn composition(queries: &[Query]) -> [usize; 5] {
        let mut counts = [0; 5];
        for q in queries {
            counts[match q {
                Query::Distance { .. } => 0,
                Query::Path { .. } => 1,
                Query::KNearest { .. } => 2,
                Query::Ball { .. } => 3,
                Query::StretchAudit { .. } => 4,
            }] += 1;
        }
        counts
    }

    #[test]
    fn mixed_profile_covers_every_query_kind() {
        let queries = QueryWorkload::mixed(40, true)
            .unwrap()
            .queries(400)
            .generate();
        assert_eq!(composition(&queries), [240, 60, 40, 40, 20]);
        // Without audits, the audit slots fall back to distance queries.
        let no_audits = QueryWorkload::mixed(40, false)
            .unwrap()
            .queries(400)
            .generate();
        assert!(no_audits
            .iter()
            .all(|q| !matches!(q, Query::StretchAudit { .. })));
    }

    #[test]
    fn short_mixed_batches_take_the_front_of_the_slot_table() {
        for seed in 0..4 {
            for audits in [false, true] {
                let batch = |count| {
                    QueryWorkload::mixed(90_000, audits)
                        .unwrap()
                        .queries(count)
                        .seed(seed)
                        .generate()
                };
                // A 64-query batch: slots 0–59 distances, 60–63 paths.
                let short = batch(64);
                assert_eq!(composition(&short), [60, 4, 0, 0, 0]);
                assert!(short[60..].iter().all(|q| matches!(q, Query::Path { .. })));
                let audit_slots = if audits { 10 } else { 0 };
                assert_eq!(
                    composition(&batch(256)),
                    [186 - audit_slots, 30, 20, 20, audit_slots]
                );
            }
        }
    }

    #[test]
    fn degenerate_parameters_are_typed_errors_at_construction() {
        for n in [0usize, 1] {
            assert_eq!(
                QueryWorkload::uniform(n).unwrap_err(),
                WorkloadError::UniverseTooSmall { num_vertices: n }
            );
            assert!(QueryWorkload::mixed(n, true).is_err());
            assert!(LiveWorkload::new(n).is_err());
        }
        for exponent in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = QueryWorkload::zipf(100, exponent).unwrap_err();
            assert_eq!(
                format!("{err}"),
                format!("{}", WorkloadError::InvalidZipfExponent { exponent })
            );
        }
        // A too-small universe is reported even with a valid exponent, and
        // a bad exponent wins over a bad universe (checked first).
        assert!(QueryWorkload::zipf(1, 1.1).is_err());
        assert_eq!(
            QueryWorkload::ball_sweep(10, vec![]).unwrap_err(),
            WorkloadError::EmptyRadiusSchedule
        );
        for radius in [-0.5, f64::NAN, f64::INFINITY] {
            let err = QueryWorkload::ball_sweep(10, vec![1.0, radius]).unwrap_err();
            assert!(matches!(err, WorkloadError::InvalidRadius { .. }));
        }
        for fraction in [-0.1, 1.5, f64::NAN] {
            assert!(LiveWorkload::new(10)
                .unwrap()
                .update_fraction(fraction)
                .is_err());
            assert!(LiveWorkload::new(10)
                .unwrap()
                .insert_fraction(fraction)
                .is_err());
        }
        for (lo, hi) in [(0.0, 1.0), (2.0, 1.0), (1.0, f64::INFINITY), (-1.0, 1.0)] {
            assert_eq!(
                LiveWorkload::new(10).unwrap().weights(lo, hi).unwrap_err(),
                WorkloadError::InvalidWeightRange { lo, hi }
            );
        }
        // Errors display something useful.
        assert!(!WorkloadError::EmptyRadiusSchedule.to_string().is_empty());
    }

    #[test]
    fn live_streams_are_deterministic_and_respect_the_update_fraction() {
        let g = WeightedGraph::from_edges(30, (1..30).map(|v| (v - 1, v, 1.0))).unwrap();
        let make = || {
            LiveWorkload::new(30)
                .unwrap()
                .update_fraction(0.5)
                .unwrap()
                .rounds(40)
                .queries_per_batch(8)
                .updates_per_batch(4)
                .seed(11)
                .generate(&g)
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "equal seeds generate equal streams");
        assert_eq!(a.len(), 40);
        let updates = a
            .iter()
            .filter(|e| matches!(e, StreamEvent::Updates(_)))
            .count();
        // ~50% of 40 rounds; generous tolerance for the small sample.
        assert!((8..=32).contains(&updates), "update rounds: {updates}");
        // Fraction 0 yields queries only; fraction 1 yields updates only.
        let none = LiveWorkload::new(30)
            .unwrap()
            .update_fraction(0.0)
            .unwrap()
            .rounds(10)
            .generate(&g);
        assert!(none.iter().all(|e| matches!(e, StreamEvent::Queries(_))));
        let all = LiveWorkload::new(30)
            .unwrap()
            .update_fraction(1.0)
            .unwrap()
            .rounds(10)
            .generate(&g);
        assert!(all.iter().all(|e| matches!(e, StreamEvent::Updates(_))));
    }

    #[test]
    fn live_stream_updates_are_always_applicable() {
        // Replay the generator's own bookkeeping: every delete/reweight
        // must reference a live pair (pre-batch), every insert a fresh one.
        let g = WeightedGraph::from_edges(20, (1..20).map(|v| (v - 1, v, 1.0))).unwrap();
        let stream = LiveWorkload::new(20)
            .unwrap()
            .update_fraction(1.0)
            .unwrap()
            .rounds(30)
            .updates_per_batch(6)
            .weights(0.5, 2.0)
            .unwrap()
            .seed(5)
            .generate(&g);
        let mut present: HashSet<(usize, usize)> = g.edges().iter().map(|e| e.key()).collect();
        for event in &stream {
            let StreamEvent::Updates(batch) = event else {
                panic!("fraction 1.0 generates update batches only");
            };
            let mut removed: HashSet<(usize, usize)> = HashSet::new();
            let mut inserted: Vec<(usize, usize)> = Vec::new();
            for update in batch.updates() {
                match *update {
                    Update::Insert { u, v, weight } => {
                        let key = (u.index().min(v.index()), u.index().max(v.index()));
                        assert!(!present.contains(&key), "parallel edge generated");
                        assert!(weight > 0.0 && weight.is_finite());
                        inserted.push(key);
                        present.insert(key);
                    }
                    Update::Delete { u, v } => {
                        let key = (u.index().min(v.index()), u.index().max(v.index()));
                        assert!(present.contains(&key), "delete of a dead pair");
                        assert!(!removed.contains(&key), "double delete in one batch");
                        assert!(
                            !inserted.contains(&key),
                            "a batch cannot delete its own insert"
                        );
                        present.remove(&key);
                        removed.insert(key);
                    }
                    Update::Reweight { u, v, weight } => {
                        let key = (u.index().min(v.index()), u.index().max(v.index()));
                        assert!(present.contains(&key), "reweight of a dead pair");
                        assert!(!removed.contains(&key), "update of a removed pair");
                        assert!(weight > 0.0 && weight.is_finite());
                        removed.insert(key);
                    }
                }
            }
        }
    }
}
