//! The live-update subsystem: a built spanner kept current under edge
//! insertions, deletions and reweights.
//!
//! The paper's greedy spanner is existentially optimal, and a from-scratch
//! greedy run is cheap, so the live spanner does not patch itself after an
//! update: it runs greedy again. A batch *rebuilds* when it inserts any edge
//! (reweights included) or removes an edge the spanner carries. Its removals
//! and insertions are applied to the original graph, then the greedy loop
//! runs over the live original in the order [`crate::Spanner::greedy`]
//! uses, and the result replaces the spanner one epoch past the old one.
//!
//! A batch that only removes edges the spanner does not carry leaves the
//! spanner as it is, and that is exact too. Greedy's decision on an edge
//! depends only on the lighter edges (in greedy order) it kept. A removed
//! edge the spanner does not carry was never kept, so no decision depended
//! on it, and removing it leaves the relative order of the rest unchanged
//! (generation compaction preserves that order as well). So after every
//! batch the live spanner *is* `Spanner::greedy().stretch(t).build(&original)`,
//! edge for edge and in order.
//!
//! Reweights are a deletion followed by an insertion of the new weight, in
//! that order, within the same batch.
//!
//! # What a rebuild costs, and the witnesses that cut it
//!
//! A rebuild is a full greedy pass over the live original: a sort of its
//! `m` live edges, then one admission query per candidate whose endpoints
//! the growing spanner already connects. The queries dominate. Yet one
//! batch changes little: on the perfbench `live-churn` stream (ER
//! `n = 800`, `t = 2`, batches of 32 updates) a rebuild changes about 6 of
//! 2,461 spanner edges, and most rejected candidates are covered by the
//! same short path as last time.
//!
//! So the live spanner keeps a *witness store*: for every candidate the
//! last rebuild rejected, the covering walk the query certified
//! ([`spanner_graph::DijkstraEngine::within_bound_witness`]), as original
//! edge ids from the candidate's first endpoint to its second (walks of
//! more than a few edges are not stored). The next rebuild rejects a
//! candidate `(u, v)` of weight `w` without a search when every edge of its
//! witness was already re-admitted earlier in this rebuild and the
//! witness's left-to-right weight sum `W` satisfies `W ≤ fl(t·w)`.
//!
//! That is exact. The re-admitted edges are in the growing spanner, so the
//! witness is a `u`–`v` walk in it. The query decides on `D`, the minimum
//! over walks of such left-to-right sums (the one-sided search's distance;
//! see `greedy_into`), so `D ≤ W ≤ fl(t·w)`: the query would have rejected
//! the candidate too. Every other connected candidate is queried as before
//! and, when covered, records a fresh witness. The rebuilt spanner is
//! therefore still `Spanner::greedy()` of the live original, bit for bit;
//! only the work changes. On `live-churn` about two thirds of the rebuild
//! queries are skipped.
//!
//! The store's ids are original edge ids, so it follows the original
//! through every generation compaction (remapped with
//! [`spanner_graph::CompactedRebuild::remap`]; a witness through a dropped
//! edge is dropped). It starts empty after [`LiveSpanner::new`] and after
//! recovery: skipping is a pure speed-up whose decisions equal the query's,
//! so a replayed history reproduces every decision with or without it.
//! [`BatchOutcome::witness_skips`] counts the skipped queries.
//!
//! A wrapped output from a construction other than greedy is kept as it is
//! until the first batch that rebuilds; from then on the live spanner is the
//! greedy spanner.
//!
//! [`UpdateStats`] and [`BatchOutcome`] count admissions, rejections,
//! rebuilds and the spanner epochs each batch advanced. Some counters keep
//! older names: `recertifications` counts rebuilds, `repair_time` is
//! rebuild time, `full_certification` marks a rebuild batch and `repaired`
//! counts rebuilt-spanner edges the pre-batch spanner lacked.
//!
//! Epoch bumps also invalidate the serving layer's *accelerator state*: a
//! live [`crate::serve::SpannerServer`] consults its ALT landmark table
//! only while the table's epoch stamp matches the spanner's, so every
//! update batch forces a lazy landmark rebuild at the next query batch —
//! exactly like the shortest-path-tree cache's lazy invalidation.
//!
//! ```
//! use greedy_spanner::update::{LiveSpanner, UpdateBatch};
//! use greedy_spanner::Spanner;
//! use spanner_graph::{VertexId, WeightedGraph};
//!
//! let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)])?;
//! let output = Spanner::greedy().stretch(2.0).build(&g)?;
//! let mut live = LiveSpanner::new(output, &g)?;
//! let outcome = live.apply(
//!     &UpdateBatch::new()
//!         .insert(VertexId(0), VertexId(2), 5.0) // covered: 0-1-2 has length 2 <= 2*5
//!         .insert(VertexId(1), VertexId(3), 0.4), // kept: the lightest edge
//! )?;
//! assert_eq!(outcome.admitted, 1);
//! assert_eq!(outcome.rejected, 1);
//! assert!(outcome.full_certification, "every insertion rebuilds");
//! // The shortcut makes (2, 3) redundant (2-1-3 has length 1.4 <= 2*1), so
//! // the rebuild drops it.
//! assert_eq!(live.spanner().num_edges(), 3);
//! assert!(!live.spanner().neighbors(VertexId(2)).any(|nb| nb.to == VertexId(3)));
//!
//! // Deleting a spanner edge rebuilds: the result is the greedy spanner of
//! // the updated graph.
//! let outcome = live.apply(&UpdateBatch::new().delete(VertexId(0), VertexId(1)))?;
//! assert!(outcome.full_certification);
//! let original = live.original().to_weighted_graph();
//! let rebuilt = Spanner::greedy().stretch(2.0).build(&original)?;
//! assert_eq!(live.spanner().to_weighted_graph(), rebuilt.spanner);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use spanner_graph::{CsrGraph, DijkstraEngine, EdgeId, VertexId, WeightedGraph};

use crate::algorithm::{Provenance, SpannerOutput};
use crate::greedy::{greedy_into, spanner_for_candidates, WitnessReuse, WitnessStore};

/// One mutation of the original graph, applied through [`LiveSpanner::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert a new edge; the batch's greedy rebuild decides whether the
    /// spanner keeps it.
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Positive, finite weight.
        weight: f64,
    },
    /// Delete the lowest-id live edge between the endpoints.
    Delete {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Change the weight of the lowest-id live edge between the endpoints:
    /// a deletion followed by an insertion.
    Reweight {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// The new positive, finite weight.
        weight: f64,
    },
}

/// An ordered batch of [`Update`]s; the unit [`LiveSpanner::apply`] consumes.
///
/// Within a batch, deletions (and the removal half of reweights) apply
/// first in batch order, then all insertions join the original in batch
/// order. A consequence: deletions reference edges that were live *before*
/// the batch (minus earlier same-batch removals); an edge inserted by the
/// same batch cannot be deleted by it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Adds an insertion (fluent).
    pub fn insert(mut self, u: VertexId, v: VertexId, weight: f64) -> Self {
        self.updates.push(Update::Insert { u, v, weight });
        self
    }

    /// Adds a deletion (fluent).
    pub fn delete(mut self, u: VertexId, v: VertexId) -> Self {
        self.updates.push(Update::Delete { u, v });
        self
    }

    /// Adds a reweight (fluent).
    pub fn reweight(mut self, u: VertexId, v: VertexId, weight: f64) -> Self {
        self.updates.push(Update::Reweight { u, v, weight });
        self
    }

    /// Appends one update.
    pub fn push(&mut self, update: Update) {
        self.updates.push(update);
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The updates, in batch order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }
}

impl From<Vec<Update>> for UpdateBatch {
    fn from(updates: Vec<Update>) -> Self {
        UpdateBatch { updates }
    }
}

impl FromIterator<Update> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = Update>>(iter: I) -> Self {
        UpdateBatch {
            updates: iter.into_iter().collect(),
        }
    }
}

/// Errors an update batch can be rejected with — all detected up front
/// (against a simulation of the batch's own effects), so a batch either
/// applies whole or not at all.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// An update referenced a vertex outside the graph.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Vertices in the graph.
        num_vertices: usize,
    },
    /// An insertion or reweight proposed a self-loop.
    SelfLoop {
        /// The vertex with the loop.
        vertex: usize,
    },
    /// An insertion or reweight carried a non-positive or non-finite weight.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// A deletion or reweight named a pair with no live edge between it (at
    /// that point of the batch).
    UnknownEdge {
        /// One endpoint index.
        u: usize,
        /// The other endpoint index.
        v: usize,
    },
    /// The wrapped construction guarantees no stretch, so there is no
    /// invariant to maintain (MST / star baselines).
    MissingStretch {
        /// The algorithm of the wrapped output.
        algorithm: String,
    },
    /// The output's spanner and the supplied original graph disagree on the
    /// vertex count.
    VertexCountMismatch {
        /// Vertices in the output's spanner.
        spanner: usize,
        /// Vertices in the supplied original graph.
        original: usize,
    },
    /// The write-ahead log refused the batch (I/O failure before anything
    /// mutated): the batch was **not** applied — retry it or detach
    /// persistence. The rendered [`spanner_store::PersistError`] is carried
    /// as text so this error stays `Clone + PartialEq`.
    Persistence {
        /// The rendered persistence error.
        detail: String,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "update vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
            UpdateError::SelfLoop { vertex } => {
                write!(f, "update proposes a self-loop on vertex {vertex}")
            }
            UpdateError::InvalidWeight { weight } => {
                write!(f, "update weight {weight} is not positive and finite")
            }
            UpdateError::UnknownEdge { u, v } => {
                write!(f, "no live edge between vertices {u} and {v} to update")
            }
            UpdateError::MissingStretch { algorithm } => write!(
                f,
                "construction {algorithm} guarantees no stretch; live updates need a stretch-t \
                 invariant to maintain"
            ),
            UpdateError::VertexCountMismatch { spanner, original } => write!(
                f,
                "spanner has {spanner} vertices but the original graph has {original}"
            ),
            UpdateError::Persistence { detail } => {
                write!(
                    f,
                    "write-ahead log refused the batch (nothing applied): {detail}"
                )
            }
        }
    }
}

impl Error for UpdateError {}

/// Compaction never triggers on fewer dead slots than this, whatever the
/// fraction — re-packing a tiny graph on every batch would be churn for no
/// memory win.
pub const COMPACTION_MIN_DEAD: usize = 32;

/// The default tombstoned-slot fraction that triggers generation
/// compaction; override per spanner with
/// [`LiveSpanner::with_compaction_threshold`].
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.5;

/// Cumulative statistics of a [`LiveSpanner`], across all applied batches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UpdateStats {
    /// Update batches applied.
    pub batches: u64,
    /// Insertions processed (including the insertion half of reweights).
    pub insertions: u64,
    /// Insertions the batch's rebuild kept in the spanner.
    pub admitted: u64,
    /// Insertions left out of the spanner (covered within `t · w`).
    pub rejected: u64,
    /// Deletions processed (including the deletion half of reweights).
    pub deletions: u64,
    /// Reweight updates processed.
    pub reweights: u64,
    /// Edges of rebuilt spanners that the spanner before the rebuild lacked,
    /// not counting the rebuilding batch's own insertions.
    pub repaired: u64,
    /// Wall time spent in greedy rebuilds by this process: snapshots store
    /// it as zero, so after a recovery it counts only the replayed and later
    /// rebuilds.
    pub repair_time: Duration,
    /// Spanner epochs advanced by updates: one per rebuild. A batch that
    /// only removes edges the spanner does not carry advances none.
    pub epochs_advanced: u64,
    /// Greedy rebuilds run: one per batch that inserted or reweighted an
    /// edge or deleted a spanner edge.
    pub recertifications: u64,
    /// Total wall time spent inside [`LiveSpanner::apply`] (and WAL replay)
    /// by this process; like `repair_time`, snapshots store it as zero.
    pub elapsed: Duration,
    /// Generation compactions of the original graph: a tombstone-dominated
    /// original re-packed so memory stays bounded under unbounded churn.
    /// The spanner is never tombstoned (rebuilds replace it whole), so it
    /// never compacts.
    pub compactions: u64,
    /// Snapshots written to the attached store (compaction-triggered plus
    /// the one [`LiveSpanner::persist_to`] writes on attach).
    pub snapshots_written: u64,
    /// Compaction-triggered snapshot writes that failed. The batch itself
    /// still succeeded — the write-ahead log holds everything a snapshot
    /// would — so the failure is counted, not raised.
    pub snapshot_failures: u64,
}

/// What one [`LiveSpanner::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// Insertions the rebuild kept in the spanner.
    pub admitted: usize,
    /// Insertions left out of the spanner.
    pub rejected: usize,
    /// Deletions applied.
    pub deletions: usize,
    /// Reweights applied.
    pub reweights: usize,
    /// Rebuilt-spanner edges the pre-batch spanner lacked, not counting
    /// this batch's insertions (0 unless the batch rebuilt).
    pub repaired: usize,
    /// Spanner epochs this batch advanced.
    pub epochs_advanced: u64,
    /// Wall time of the greedy rebuild (zero unless the batch rebuilt).
    pub repair_time: Duration,
    /// `true` when this batch rebuilt the spanner: it inserted or reweighted
    /// an edge, or deleted a spanner edge. Either way the spanner is the
    /// greedy spanner of the updated original.
    pub full_certification: bool,
    /// Generation compactions of the original graph this batch triggered
    /// (0 or 1).
    pub compactions: usize,
    /// Rebuild candidates rejected through the witness of the previous
    /// rebuild, without a search (0 unless the batch rebuilt; see the
    /// [module docs](crate::update)). A pure function of the
    /// store's history, so it is not persisted: the first rebuild after
    /// [`LiveSpanner::new`] or a recovery skips nothing.
    pub witness_skips: usize,
}

/// A built spanner held open for live updates; see the
/// [module docs](crate::update) for the maintenance model.
///
/// Construct one with [`LiveSpanner::new`] (or
/// [`SpannerOutput::live`]), feed it [`UpdateBatch`]es through
/// [`LiveSpanner::apply`], and serve it — interleaving query and update
/// batches — by handing it to the serving layer via
/// [`LiveSpanner::serve`](crate::serve::ServeBuilder).
#[derive(Debug)]
pub struct LiveSpanner {
    /// The live original graph (the spanner's reference), mirrored in CSR
    /// form. A deletion splices the edge out of its rows but keeps its id
    /// dead, so ids stay stable for the WAL, snapshots and
    /// `LiveSpanner::rebuild`'s `first_insert`, until a generation
    /// compaction re-densifies them.
    original: CsrGraph,
    /// The live spanner.
    spanner: CsrGraph,
    stretch: f64,
    /// The engine every admission query of a rebuild runs on, pre-sized
    /// for the original at construction.
    engine: DijkstraEngine,
    stats: UpdateStats,
    provenance: Provenance,
    /// Tombstoned-slot fraction that triggers generation compaction.
    compaction_threshold: f64,
    /// The attached store (WAL + snapshot directory), when persisting.
    durability: Option<crate::persist::Durability>,
    /// The covering paths of the last rebuild's rejected candidates, keyed
    /// by `original` edge id: written by every rebuild, remapped at every
    /// generation compaction, and empty after construction and recovery.
    witnesses: WitnessStore,
}

impl LiveSpanner {
    /// Wraps a built output and its original graph for live maintenance.
    ///
    /// The output is trusted to be a stretch-`t` spanner of `original` for
    /// its construction's guaranteed `t`; nothing is re-checked here (use
    /// [`crate::analysis::is_t_spanner`] to check). Any construction with a
    /// guaranteed stretch can be wrapped; the first batch that rebuilds
    /// replaces it with the greedy spanner.
    ///
    /// # Errors
    ///
    /// [`UpdateError::MissingStretch`] when the output's construction
    /// guarantees no stretch (there is no invariant to maintain), and
    /// [`UpdateError::VertexCountMismatch`] when `original` and the spanner
    /// disagree on the vertex count.
    pub fn new(output: SpannerOutput, original: &WeightedGraph) -> Result<Self, UpdateError> {
        let stretch =
            output
                .provenance
                .guaranteed_stretch
                .ok_or_else(|| UpdateError::MissingStretch {
                    algorithm: output.provenance.algorithm.clone(),
                })?;
        if output.spanner.num_vertices() != original.num_vertices() {
            return Err(UpdateError::VertexCountMismatch {
                spanner: output.spanner.num_vertices(),
                original: original.num_vertices(),
            });
        }
        Ok(LiveSpanner::from_parts(
            CsrGraph::from(original),
            CsrGraph::from(&output.spanner),
            stretch,
            UpdateStats::default(),
            output.provenance,
            DEFAULT_COMPACTION_THRESHOLD,
        ))
    }

    /// Assembles a live spanner with no store attached. Recovery passes the
    /// restored parts and statistics verbatim, so the recovered instance is
    /// bit-identical to the one that was killed.
    pub(crate) fn from_parts(
        original: CsrGraph,
        spanner: CsrGraph,
        stretch: f64,
        stats: UpdateStats,
        provenance: Provenance,
        compaction_threshold: f64,
    ) -> Self {
        let engine =
            DijkstraEngine::with_capacity_for(original.num_vertices(), original.num_edges());
        LiveSpanner {
            original,
            spanner,
            stretch,
            engine,
            stats,
            provenance,
            compaction_threshold,
            durability: None,
            witnesses: WitnessStore::default(),
        }
    }

    /// The attached store, for the persistence module.
    pub(crate) fn durability_mut(&mut self) -> &mut Option<crate::persist::Durability> {
        &mut self.durability
    }

    /// Read-only view of the attached store, for the persistence module.
    pub(crate) fn durability_ref(&self) -> Option<&crate::persist::Durability> {
        self.durability.as_ref()
    }

    /// Mutable statistics, for the persistence module's counters.
    pub(crate) fn stats_mut(&mut self) -> &mut UpdateStats {
        &mut self.stats
    }

    /// Does nothing: rebuilds run the sequential greedy loop at every thread
    /// count.
    #[deprecated(
        since = "0.13.0",
        note = "live updates run one sequential loop; delete the call"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the tombstoned-slot fraction at which a graph is compacted into
    /// a fresh generation (default [`DEFAULT_COMPACTION_THRESHOLD`]). The
    /// trigger also requires at least [`COMPACTION_MIN_DEAD`] dead slots.
    /// Non-finite values are ignored; finite ones clamp to `(0, 1]`.
    pub fn with_compaction_threshold(mut self, fraction: f64) -> Self {
        if fraction.is_finite() {
            self.compaction_threshold = fraction.clamp(1e-6, 1.0);
        }
        self
    }

    /// The tombstoned-slot fraction that triggers generation compaction.
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    /// The live spanner.
    pub fn spanner(&self) -> &CsrGraph {
        &self.spanner
    }

    /// The live original graph the stretch invariant is measured against.
    pub fn original(&self) -> &CsrGraph {
        &self.original
    }

    /// The stretch target `t` the invariant maintains.
    pub fn stretch(&self) -> f64 {
        self.stretch
    }

    /// The spanner's current epoch (see [`CsrGraph::epoch`]) — what serving
    /// handles and caches stamp themselves with.
    pub fn epoch(&self) -> u64 {
        self.spanner.epoch()
    }

    /// Which construction produced the wrapped spanner.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Cumulative update statistics.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Applies one update batch: deletions first (batch order), then the
    /// insertions, then — when the batch inserted anything or deleted a
    /// spanner edge — a greedy rebuild of the whole spanner, then generation
    /// compaction of the original when tombstones dominate. See the
    /// [module docs](crate::update).
    ///
    /// With a store attached ([`LiveSpanner::persist_to`]), the batch is
    /// appended to the write-ahead log and fsynced **before** anything
    /// mutates; a batch that compacts a generation also writes a fresh
    /// snapshot afterwards (best-effort — the WAL already holds the batch).
    ///
    /// # Errors
    ///
    /// The whole batch is validated up front (against a simulation of its
    /// own effects); on error — including [`UpdateError::Persistence`] when
    /// the WAL refuses the record — nothing was applied and no statistic
    /// changed.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<BatchOutcome, UpdateError> {
        self.validate(batch)?;
        let seq = self.stats.batches;
        let epoch = self.spanner.epoch();
        if let Some(durability) = self.durability.as_mut() {
            let payload = crate::persist::encode_batch(batch);
            durability
                .log_batch(seq, epoch, &payload)
                .map_err(|e| UpdateError::Persistence {
                    detail: e.to_string(),
                })?;
        }
        let outcome = self.apply_validated(batch);
        if outcome.compactions > 0 && self.durability.is_some() {
            match self.write_snapshot_now() {
                Ok(()) => self.stats.snapshots_written += 1,
                Err(_) => self.stats.snapshot_failures += 1,
            }
        }
        Ok(outcome)
    }

    /// The validated apply path — shared verbatim by live batches and WAL
    /// replay, so a replayed history reproduces every decision (admissions,
    /// rebuilds, epochs, compactions) bit-identically.
    pub(crate) fn apply_validated(&mut self, batch: &UpdateBatch) -> BatchOutcome {
        let start = Instant::now();
        let spanner_epoch_before = self.spanner.epoch();

        // Phase 1 — deletions and the removal half of reweights, in batch
        // order, on the original; queue every insertion. The batch rebuilds
        // when it inserts anything or removes an edge the spanner carries
        // (the module docs say why skipping every other batch is exact).
        let mut rebuild = false;
        let mut deletions = 0usize;
        let mut reweights = 0usize;
        let mut inserts: Vec<(u32, u32, f64)> = Vec::new();
        for update in batch.updates() {
            match *update {
                Update::Insert { u, v, weight } => {
                    inserts.push((u.index() as u32, v.index() as u32, weight));
                }
                Update::Delete { u, v } | Update::Reweight { u, v, .. } => {
                    let id = self
                        .original
                        .remove_edge_between(u, v)
                        .expect("validated: the edge is live");
                    let (_, _, w) = self.original.edge(id);
                    rebuild |= carries_edge(&self.spanner, u, v, w);
                    if let Update::Reweight { weight, .. } = *update {
                        inserts.push((u.index() as u32, v.index() as u32, weight));
                        reweights += 1;
                    } else {
                        deletions += 1;
                    }
                }
            }
        }
        rebuild |= !inserts.is_empty();

        // Phase 2 — insertions join the original, and a rebuilding batch
        // runs greedy over the whole live original.
        let first_insert = self.original.edge_id_bound();
        for &(u, v, w) in &inserts {
            self.original
                .append_edge(VertexId(u as usize), VertexId(v as usize), w);
        }
        let mut repair_time = Duration::ZERO;
        let (admitted, repaired, witness_skips) = if rebuild {
            let t0 = Instant::now();
            let counts = self.rebuild(first_insert);
            repair_time = t0.elapsed();
            self.stats.recertifications += 1;
            self.stats.repair_time += repair_time;
            counts
        } else {
            (0, 0, 0)
        };
        let rejected = inserts.len() - admitted;

        // Phase 3 — generation compaction. When dead slots dominate the
        // original's ground-truth array, re-pack it into a dense new
        // generation (order-preserving id densification, so the greedy
        // order of a later rebuild is unchanged). The trigger is a pure
        // function of graph state, so every WAL replay compacts at exactly
        // the same batches. The witness store
        // follows the ids into the new generation.
        let mut compactions = 0usize;
        if should_compact(&self.original, self.compaction_threshold) {
            let rebuilt = self.original.rebuild_compacted();
            self.witnesses = self.witnesses.remap(&rebuilt.remap);
            self.original = rebuilt.graph;
            compactions += 1;
        }

        let epochs_advanced = self.spanner.epoch() - spanner_epoch_before;
        self.stats.batches += 1;
        self.stats.insertions += inserts.len() as u64;
        self.stats.admitted += admitted as u64;
        self.stats.rejected += rejected as u64;
        self.stats.deletions += (deletions + reweights) as u64;
        self.stats.reweights += reweights as u64;
        self.stats.repaired += repaired as u64;
        self.stats.epochs_advanced += epochs_advanced;
        self.stats.compactions += compactions as u64;
        self.stats.elapsed += start.elapsed();
        BatchOutcome {
            admitted,
            rejected,
            deletions,
            reweights,
            repaired,
            epochs_advanced,
            repair_time,
            full_certification: rebuild,
            compactions,
            witness_skips,
        }
    }

    /// Replaces the spanner with the greedy spanner of the live original,
    /// stamped one epoch past the spanner it replaces, and the witness
    /// store with the rebuild's. Returns how many rebuilt edges are this
    /// batch's insertions (original ids at or past `first_insert`), how
    /// many others the replaced spanner lacked, and how many candidates a
    /// stored witness rejected.
    fn rebuild(&mut self, first_insert: usize) -> (usize, usize, usize) {
        let ids = greedy_order(&self.original);
        let candidates: Vec<(u32, u32, f64)> = ids
            .iter()
            .map(|&id| {
                let (u, v, w) = self.original.edge(EdgeId(id as usize));
                (u.index() as u32, v.index() as u32, w)
            })
            .collect();
        let mut spanner = spanner_for_candidates(
            self.original.num_vertices(),
            candidates.iter().map(|&(u, v, _)| (u, v)),
        );
        let mut witnesses = WitnessReuse::new(
            &ids,
            self.original.edge_id_bound(),
            std::mem::take(&mut self.witnesses),
        );
        let added = greedy_into(
            &mut spanner,
            &mut self.engine,
            &candidates,
            self.stretch,
            Some(&mut witnesses),
        );
        let skips = witnesses.skips;
        self.witnesses = witnesses.next;

        let mut before: HashMap<(u32, u32, u64), usize> = HashMap::new();
        for (_, u, v, w) in self.spanner.live_edges() {
            let (a, b) = canonical(u.index() as u32, v.index() as u32);
            *before.entry((a, b, w.to_bits())).or_default() += 1;
        }
        let (mut admitted, mut repaired) = (0usize, 0usize);
        for &i in &added {
            let (u, v, w) = candidates[i];
            if ids[i] as usize >= first_insert {
                admitted += 1;
                continue;
            }
            let (a, b) = canonical(u, v);
            match before.get_mut(&(a, b, w.to_bits())) {
                Some(count) if *count > 0 => *count -= 1,
                _ => repaired += 1,
            }
        }

        let epoch = self.spanner.epoch() + 1;
        self.spanner = CsrGraph::from_parts(
            spanner.num_vertices(),
            epoch,
            spanner.live_edges().map(|(_, u, v, w)| (u, v, w, true)),
        )
        .expect("greedy keeps valid original edges");
        (admitted, repaired, skips)
    }

    /// Pre-validates a batch against a simulation of its own effects, so
    /// [`LiveSpanner::apply`] either applies the whole batch or nothing.
    /// `pub(crate)` so WAL replay can re-validate decoded batches instead
    /// of trusting disk bytes.
    pub(crate) fn validate(&self, batch: &UpdateBatch) -> Result<(), UpdateError> {
        let n = self.original.num_vertices();
        // Removals consumed per (min, max) pair so far. Deletions happen in
        // phase 1, before any insertion, so batch-internal inserts never
        // increase a pair's availability.
        let mut removed: HashMap<(u32, u32), usize> = HashMap::new();
        let check_pair = |u: VertexId, v: VertexId| -> Result<(), UpdateError> {
            for endpoint in [u.index(), v.index()] {
                if endpoint >= n {
                    return Err(UpdateError::VertexOutOfRange {
                        vertex: endpoint,
                        num_vertices: n,
                    });
                }
            }
            if u == v {
                return Err(UpdateError::SelfLoop { vertex: u.index() });
            }
            Ok(())
        };
        for update in batch.updates() {
            match *update {
                Update::Insert { u, v, weight } => {
                    check_pair(u, v)?;
                    if !(weight.is_finite() && weight > 0.0) {
                        return Err(UpdateError::InvalidWeight { weight });
                    }
                }
                Update::Delete { u, v } | Update::Reweight { u, v, .. } => {
                    check_pair(u, v)?;
                    if let Update::Reweight { weight, .. } = *update {
                        if !(weight.is_finite() && weight > 0.0) {
                            return Err(UpdateError::InvalidWeight { weight });
                        }
                    }
                    let live = self.original.neighbors(u).filter(|nb| nb.to == v).count();
                    let taken = removed
                        .entry(canonical(u.index() as u32, v.index() as u32))
                        .or_insert(0);
                    if live <= *taken {
                        return Err(UpdateError::UnknownEdge {
                            u: u.index(),
                            v: v.index(),
                        });
                    }
                    *taken += 1;
                }
            }
        }
        Ok(())
    }
}

/// The generation-compaction trigger: enough dead slots to matter
/// ([`COMPACTION_MIN_DEAD`]) *and* a tombstoned fraction at or above the
/// threshold. A pure function of graph state — deterministic across WAL
/// replays.
fn should_compact(graph: &CsrGraph, threshold: f64) -> bool {
    graph.dead_edges() >= COMPACTION_MIN_DEAD && graph.tombstoned_fraction() >= threshold
}

/// The live edge ids of `original` in the order `Spanner::greedy()` gives
/// `original.to_weighted_graph()`: non-decreasing weight, ties by canonical
/// endpoints, then by edge id (that sort is stable, and `to_weighted_graph`
/// keeps id order). Weights are positive and finite, so their bit patterns
/// order like the weights, and ids are unique, so an unstable sort of
/// packed keys gives exactly that order.
fn greedy_order(original: &CsrGraph) -> Vec<u32> {
    let mut keys: Vec<(u64, u32, u32, u32)> = original
        .live_edges()
        .map(|(id, u, v, w)| {
            let (a, b) = canonical(u.index() as u32, v.index() as u32);
            (w.to_bits(), a, b, id.index() as u32)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(.., id)| id).collect()
}

/// Canonical unordered key of a vertex pair.
fn canonical(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// Whether the spanner has a live `(u, v)` edge of exactly this weight
/// (bit-exact — spanner edges are verbatim copies of original edges).
fn carries_edge(spanner: &CsrGraph, u: VertexId, v: VertexId, weight: f64) -> bool {
    spanner
        .neighbors(u)
        .any(|nb| nb.to == v && nb.weight.to_bits() == weight.to_bits())
}

impl SpannerOutput {
    /// Opens this build result for live updates:
    /// `Spanner::greedy().stretch(t).build(&g)?.live(&g)?`. See
    /// [`LiveSpanner::new`].
    ///
    /// # Errors
    ///
    /// See [`LiveSpanner::new`].
    pub fn live(self, original: &WeightedGraph) -> Result<LiveSpanner, UpdateError> {
        LiveSpanner::new(self, original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_t_spanner;
    use crate::builder::Spanner;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use spanner_graph::generators::erdos_renyi_connected;

    fn live_for(g: &WeightedGraph, t: f64) -> LiveSpanner {
        Spanner::greedy()
            .stretch(t)
            .build(g)
            .unwrap()
            .live(g)
            .unwrap()
    }

    fn assert_invariant(live: &LiveSpanner) {
        let original = live.original().to_weighted_graph();
        let spanner = live.spanner().to_weighted_graph();
        assert!(
            is_t_spanner(&original, &spanner, live.stretch()),
            "live spanner lost the stretch-{} invariant",
            live.stretch()
        );
    }

    /// The spanner every batch must leave: greedy over the live original.
    fn assert_is_greedy_of_original(live: &LiveSpanner) {
        let original = live.original().to_weighted_graph();
        let greedy = Spanner::greedy()
            .stretch(live.stretch())
            .build(&original)
            .unwrap();
        assert_eq!(live.spanner().to_weighted_graph(), greedy.spanner);
    }

    #[test]
    fn construction_certifies_the_wrapped_output() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = erdos_renyi_connected(30, 0.3, 1.0..8.0, &mut rng);
        let live = live_for(&g, 2.0);
        assert_invariant(&live);
        assert_eq!(live.stats().recertifications, 0, "wrapping runs no rebuild");
        assert_eq!(live.stats().batches, 0);
        assert_eq!(live.epoch(), 0, "no update has run yet");
        assert_eq!(live.provenance().algorithm, "greedy");
    }

    #[test]
    fn missing_stretch_and_mismatched_vertex_counts_are_typed_errors() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mst = Spanner::mst().build(&g).unwrap();
        assert!(matches!(
            mst.live(&g),
            Err(UpdateError::MissingStretch { .. })
        ));
        let bigger = WeightedGraph::new(5);
        let out = Spanner::greedy().stretch(2.0).build(&g).unwrap();
        assert!(matches!(
            out.live(&bigger),
            Err(UpdateError::VertexCountMismatch {
                spanner: 3,
                original: 5
            })
        ));
    }

    #[test]
    fn insertions_run_the_admission_rule() {
        let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let mut live = live_for(&g, 2.0);
        let outcome = live
            .apply(
                &UpdateBatch::new()
                    .insert(VertexId(0), VertexId(2), 2.0) // covered: d = 2 <= 4
                    .insert(VertexId(0), VertexId(3), 0.5), // admitted: d = 3 > 1
            )
            .unwrap();
        assert_eq!(outcome.admitted, 1);
        assert_eq!(outcome.rejected, 1);
        assert!(outcome.full_certification, "an insertion rebuilds");
        assert_eq!(outcome.epochs_advanced, 1, "a rebuild is one epoch");
        assert_eq!(live.original().num_edges(), 5);
        assert_eq!(live.spanner().num_edges(), 4);
        assert_invariant(&live);
        assert_is_greedy_of_original(&live);
    }

    #[test]
    fn insertions_see_the_components_the_spanner_already_has() {
        // Two paths, 0-1-2 and 3-4-5. The skip must know 0 and 2 are
        // connected (so (0, 2) is queried and covered), while (2, 3) joins
        // the paths and is admitted without a query.
        let g = WeightedGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
            .unwrap();
        let mut live = live_for(&g, 2.0);
        let outcome = live
            .apply(
                &UpdateBatch::new()
                    .insert(VertexId(0), VertexId(2), 1.5)
                    .insert(VertexId(2), VertexId(3), 5.0)
                    .insert(VertexId(5), VertexId(0), 6.0),
            )
            .unwrap();
        assert_eq!(outcome.admitted, 1);
        assert_eq!(outcome.rejected, 2);
        assert_is_greedy_of_original(&live);
    }

    #[test]
    fn deleting_a_spanner_edge_triggers_repair() {
        // Path 0-1-2-3 plus a heavy chord the greedy 2-spanner drops.
        let g = WeightedGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 2.0)])
            .unwrap();
        let mut live = live_for(&g, 2.0);
        assert_eq!(live.spanner().num_edges(), 3, "chord rejected at build");
        // Deleting the path edge (1, 2) breaks coverage of the chord (0, 2):
        // the rebuild must keep it.
        let outcome = live
            .apply(&UpdateBatch::new().delete(VertexId(1), VertexId(2)))
            .unwrap();
        assert_eq!(outcome.deletions, 1);
        assert!(outcome.full_certification);
        assert_eq!(outcome.repaired, 1, "the chord is the one new edge");
        assert_eq!(outcome.epochs_advanced, 1, "a rebuild is one epoch");
        assert_eq!(live.stats().recertifications, 1);
        assert_invariant(&live);
        assert_is_greedy_of_original(&live);
        // Deleting an edge the spanner never carried needs no rebuild.
        let mut live2 = live_for(
            &WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)]).unwrap(),
            2.0,
        );
        let outcome2 = live2
            .apply(&UpdateBatch::new().delete(VertexId(0), VertexId(2)))
            .unwrap();
        assert!(!outcome2.full_certification);
        assert_eq!(outcome2.repaired, 0);
        assert_eq!(outcome2.epochs_advanced, 0, "the spanner never changed");
        assert_invariant(&live2);
        assert_is_greedy_of_original(&live2);
    }

    #[test]
    fn reweights_are_delete_then_admit() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)]).unwrap();
        let mut live = live_for(&g, 2.0);
        // The chord (0, 2) was rejected at build (d = 2 <= 3). Reweighting
        // it to 0.5 makes it essential: 2 > 2 * 0.5.
        let outcome = live
            .apply(&UpdateBatch::new().reweight(VertexId(0), VertexId(2), 0.5))
            .unwrap();
        assert_eq!(outcome.reweights, 1);
        assert_eq!(outcome.admitted, 1);
        assert!(live
            .spanner()
            .live_edges()
            .any(|(_, u, v, w)| (u.index(), v.index()) == (0, 2) && w == 0.5));
        assert_invariant(&live);
        let stats = live.stats();
        assert_eq!(stats.reweights, 1);
        assert_eq!(stats.deletions, 1, "the removal half is counted");
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn invalid_batches_are_rejected_whole_with_nothing_applied() {
        let g = WeightedGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut live = live_for(&g, 2.0);
        let before = (live.original().num_edges(), live.spanner().num_edges());
        for (batch, expected) in [
            (
                UpdateBatch::new()
                    .insert(VertexId(0), VertexId(2), 1.0)
                    .insert(VertexId(0), VertexId(9), 1.0),
                UpdateError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 3,
                },
            ),
            (
                UpdateBatch::new().insert(VertexId(1), VertexId(1), 1.0),
                UpdateError::SelfLoop { vertex: 1 },
            ),
            (
                UpdateBatch::new().insert(VertexId(0), VertexId(2), f64::NAN),
                UpdateError::InvalidWeight { weight: f64::NAN },
            ),
            (
                UpdateBatch::new().delete(VertexId(0), VertexId(2)),
                UpdateError::UnknownEdge { u: 0, v: 2 },
            ),
            (
                // The second delete of the same pair exceeds the live count
                // — the simulation must catch it.
                UpdateBatch::new()
                    .delete(VertexId(0), VertexId(1))
                    .delete(VertexId(0), VertexId(1)),
                UpdateError::UnknownEdge { u: 0, v: 1 },
            ),
            (
                UpdateBatch::new().reweight(VertexId(0), VertexId(1), -2.0),
                UpdateError::InvalidWeight { weight: -2.0 },
            ),
        ] {
            let err = live.apply(&batch).unwrap_err();
            assert_eq!(format!("{err}"), format!("{expected}"));
        }
        assert_eq!(
            (live.original().num_edges(), live.spanner().num_edges()),
            before,
            "failed batches apply nothing"
        );
        assert_eq!(live.stats().batches, 0);
        // Deletions apply in phase 1, before insertions — so a batch cannot
        // delete an edge it inserts itself.
        let insert_then_delete = UpdateBatch::new()
            .insert(VertexId(0), VertexId(2), 1.0)
            .delete(VertexId(0), VertexId(2));
        assert_eq!(
            live.apply(&insert_then_delete).unwrap_err(),
            UpdateError::UnknownEdge { u: 0, v: 2 }
        );
        // Split across batches the same pair of updates is fine.
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(2), 1.0))
            .unwrap();
        live.apply(&UpdateBatch::new().delete(VertexId(0), VertexId(2)))
            .unwrap();
        assert_invariant(&live);
    }

    #[test]
    fn random_update_streams_preserve_the_invariant() {
        let mut rng = SmallRng::seed_from_u64(42);
        for t in [1.5, 2.0, 3.0] {
            let g = erdos_renyi_connected(25, 0.3, 1.0..10.0, &mut rng);
            let mut live = live_for(&g, t);
            let mut edges: Vec<(usize, usize)> = g
                .edges()
                .iter()
                .map(|e| (e.u.index(), e.v.index()))
                .collect();
            for round in 0..8 {
                let mut batch = UpdateBatch::new();
                for _ in 0..4 {
                    if rng.gen_bool(0.5) || edges.is_empty() {
                        // Insert a fresh pair (parallel edges allowed).
                        let u = rng.gen_range(0..25);
                        let mut v = rng.gen_range(0..24);
                        if v >= u {
                            v += 1;
                        }
                        let w = rng.gen_range(0.5..12.0);
                        batch = batch.insert(VertexId(u), VertexId(v), w);
                        edges.push((u, v));
                    } else {
                        let i = rng.gen_range(0..edges.len());
                        let (u, v) = edges.swap_remove(i);
                        batch = batch.delete(VertexId(u), VertexId(v));
                    }
                }
                let outcome = live.apply(&batch).unwrap();
                assert_invariant(&live);
                assert_is_greedy_of_original(&live);
                assert!(
                    outcome.full_certification || outcome.repaired == 0,
                    "round {round}, t = {t}: only rebuilds count repaired edges"
                );
            }
            assert_eq!(live.stats().batches, 8);
            assert!(live.stats().recertifications > 0, "t = {t}: no rebuild ran");
        }
    }

    #[test]
    fn a_detour_that_overflows_to_infinity_does_not_cover_an_insertion() {
        // t·w and the only detour 0-1-2 both overflow to +∞: the insertion
        // is not covered, neither in its own batch's rebuild nor in a later
        // one.
        for (w, t) in [(f64::MAX, 1.5), (1e308, 2.0)] {
            let g = WeightedGraph::from_edges(3, [(0, 1, w), (1, 2, w)]).unwrap();
            let mut live = live_for(&g, t);
            let outcome = live
                .apply(&UpdateBatch::new().insert(VertexId(0), VertexId(2), w))
                .unwrap();
            assert_eq!(outcome.admitted, 1, "w = {w}, t = {t}");
            assert_invariant(&live);
            let outcome = live
                .apply(&UpdateBatch::new().reweight(VertexId(0), VertexId(1), w))
                .unwrap();
            assert!(outcome.full_certification);
            assert_eq!(live.spanner().num_edges(), 3);
            assert_invariant(&live);
            assert_is_greedy_of_original(&live);
        }
    }

    #[test]
    fn packed_key_order_equals_the_stable_comparator_order() {
        let mut rng = SmallRng::seed_from_u64(12);
        for n in [2usize, 3, 5, 9] {
            // Integer weights in {1, 2, 3} over few vertices: many ties,
            // many parallel edges, both endpoint orders; deletions leave
            // dead ids between the live ones.
            let mut original = CsrGraph::new(n);
            for _ in 0..150 {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                original.append_edge(VertexId(u), VertexId(v), rng.gen_range(1..4) as f64);
            }
            for id in 0..150 {
                if rng.gen_bool(0.3) {
                    original.remove_edge(EdgeId(id)).unwrap();
                }
            }
            let mut stable: Vec<(u32, (u32, u32, f64))> = original
                .live_edges()
                .map(|(id, u, v, w)| (id.index() as u32, (u.index() as u32, v.index() as u32, w)))
                .collect();
            stable.sort_by(|(_, a), (_, b)| {
                a.2.total_cmp(&b.2)
                    .then_with(|| canonical(a.0, a.1).cmp(&canonical(b.0, b.1)))
            });
            let stable: Vec<u32> = stable.into_iter().map(|(id, _)| id).collect();
            assert_eq!(greedy_order(&original), stable, "n = {n}");
        }
    }
}
