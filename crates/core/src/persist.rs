//! Durable persistence for [`LiveSpanner`]: compacted-generation snapshots
//! plus an update-batch write-ahead log, with **bit-identical** crash
//! recovery.
//!
//! The storage engine itself (file formats, checksums, atomic writes) lives
//! in the [`spanner_store`] crate; this module owns the *semantics* — how a
//! live spanner's state maps onto those bytes and how a killed process is
//! brought back:
//!
//! * [`LiveSpanner::persist_to`] attaches a store directory: it writes an
//!   initial snapshot and opens a write-ahead log. From then on every
//!   [`LiveSpanner::apply`] fsyncs the batch to the WAL *before* anything
//!   mutates, and every generation compaction writes a fresh snapshot.
//! * [`LiveSpanner::checkpoint`] writes a snapshot of the current state to
//!   any path on demand, attached or not.
//! * [`LiveSpanner::recover`] loads the newest snapshot this build can use
//!   (falling back past corrupt or unreadable candidates), replays the WAL
//!   suffix through the *same* deterministic apply path live batches use,
//!   truncates any torn tail, and reattaches the log. Because greedy
//!   rebuilds and compaction are pure functions of state and batch,
//!   the recovered spanner answers every query **bit-identically** to the
//!   instance that was killed. Replaying a batch that rebuilt the spanner
//!   rebuilds it again. A recovered spanner starts with an empty witness
//!   store (see the [update module](crate::update)), so the first replayed
//!   rebuild queries every connected candidate and later ones reuse the
//!   witnesses it records — the same decisions, since a witness only ever
//!   rejects what the query would reject.
//!
//! What a snapshot's opaque `meta` section holds (this module's codec,
//! version 3): stretch and compaction threshold (as raw `f64` bits), the
//! cumulative [`UpdateStats`] counters, and the construction [`Provenance`]
//! — so a recovered spanner reports the same history it had before the
//! crash. The two wall-clock fields, [`UpdateStats::repair_time`] and
//! [`UpdateStats::elapsed`], are written as zero, so one update stream
//! applied twice writes the same snapshot bytes (and the same WAL): a
//! recovered spanner's durations count only the work of its own process.
//! A snapshot with any other meta version is unreadable, and recovery skips
//! it like any other unusable candidate. Version 1 had an extra stats
//! field. Version 2 has version 3's layout but was written when insert-only
//! batches admitted edges into the spanner without a rebuild: its spanner
//! may carry edges the greedy spanner drops, and its WAL tail replays
//! differently under today's rule (version 2 advanced one epoch per
//! admitted insertion, so a replay ends at another epoch or spanner).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use spanner_graph::VertexId;
use spanner_store::{
    list_snapshots, read_wal, snapshot_file_name, ByteReader, ByteWriter, GraphImage, Snapshot,
    WalWriter, WAL_FILE_NAME,
};

pub use spanner_store::PersistError;

use crate::algorithm::Provenance;
use crate::update::{LiveSpanner, Update, UpdateBatch, UpdateStats};

/// Version of the owner-defined `meta` payload inside snapshots.
const META_VERSION: u32 = 3;

/// Update tags in WAL batch payloads.
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_REWEIGHT: u8 = 2;

/// An attached store: the directory snapshots go to, plus the open WAL.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) wal: WalWriter,
}

impl Durability {
    /// Appends one batch record to the WAL and fsyncs it (the write-ahead
    /// half of the durability contract).
    pub(crate) fn log_batch(
        &mut self,
        seq: u64,
        epoch: u64,
        payload: &[u8],
    ) -> Result<(), PersistError> {
        self.wal.append(seq, epoch, payload)
    }
}

/// What [`LiveSpanner::recover`] did to bring the spanner back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot file recovery started from.
    pub snapshot_path: PathBuf,
    /// That snapshot's WAL cursor (batches applied when it was taken).
    pub snapshot_seq: u64,
    /// That snapshot's spanner epoch.
    pub snapshot_epoch: u64,
    /// Newer snapshot candidates that failed verification and were skipped.
    pub snapshots_skipped: usize,
    /// WAL records replayed on top of the snapshot.
    pub batches_replayed: u64,
    /// The torn-tail description when the WAL ended mid-record (the tail
    /// was truncated on reattach), `None` for a clean log.
    pub torn_tail: Option<String>,
}

/// A recovered spanner plus the report of how it was rebuilt.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered spanner, with the store reattached (appends resume).
    pub live: LiveSpanner,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// Encodes a batch for its WAL record: `count u64`, then per update a tag
/// byte, both endpoints as `u32`, and the weight as raw `f64` bits (zero
/// for deletions, which carry none).
pub(crate) fn encode_batch(batch: &UpdateBatch) -> Vec<u8> {
    let mut out = ByteWriter::with_capacity(8 + 17 * batch.len());
    out.put_u64(batch.len() as u64);
    for update in batch.updates() {
        let (tag, u, v, weight) = match *update {
            Update::Insert { u, v, weight } => (TAG_INSERT, u, v, weight),
            Update::Delete { u, v } => (TAG_DELETE, u, v, 0.0),
            Update::Reweight { u, v, weight } => (TAG_REWEIGHT, u, v, weight),
        };
        out.put_bytes(&[tag]);
        out.put_u32(u.index() as u32);
        out.put_u32(v.index() as u32);
        out.put_f64_bits(weight);
    }
    out.into_inner()
}

/// Decodes a WAL batch payload. Inverse of [`encode_batch`].
pub(crate) fn decode_batch(payload: &[u8], path: &Path) -> Result<UpdateBatch, PersistError> {
    let truncated = || PersistError::Truncated {
        path: path.to_path_buf(),
        context: "wal batch payload",
    };
    let mut r = ByteReader::new(payload);
    let count = r.u64().ok_or_else(truncated)?;
    let count = usize::try_from(count)
        .ok()
        .filter(|&c| c <= r.remaining() / 17)
        .ok_or_else(truncated)?;
    let mut batch = UpdateBatch::new();
    for _ in 0..count {
        let tag = r.take(1).ok_or_else(truncated)?[0];
        let u = VertexId(r.u32().ok_or_else(truncated)? as usize);
        let v = VertexId(r.u32().ok_or_else(truncated)? as usize);
        let weight = r.f64_bits().ok_or_else(truncated)?;
        let update = match tag {
            TAG_INSERT => Update::Insert { u, v, weight },
            TAG_DELETE => Update::Delete { u, v },
            TAG_REWEIGHT => Update::Reweight { u, v, weight },
            other => {
                return Err(PersistError::Corrupt {
                    path: path.to_path_buf(),
                    context: "wal batch payload",
                    detail: format!("unknown update tag {other}"),
                })
            }
        };
        batch.push(update);
    }
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            path: path.to_path_buf(),
            context: "wal batch payload",
            detail: format!("{} trailing bytes after {count} updates", r.remaining()),
        });
    }
    Ok(batch)
}

/// The decoded `meta` section of a snapshot.
struct MetaParts {
    stretch: f64,
    compaction_threshold: f64,
    stats: UpdateStats,
    provenance: Provenance,
}

fn put_string(out: &mut ByteWriter, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_bytes(s.as_bytes());
}

/// Encodes the owner metadata a snapshot carries for a live spanner, with
/// its wall-clock durations zeroed (see the module docs).
fn encode_meta(live: &LiveSpanner) -> Vec<u8> {
    let stats = live.stats();
    let provenance = live.provenance();
    let mut out = ByteWriter::new();
    out.put_u32(META_VERSION);
    out.put_f64_bits(live.stretch());
    out.put_f64_bits(live.compaction_threshold());
    out.put_u64(stats.batches);
    out.put_u64(stats.insertions);
    out.put_u64(stats.admitted);
    out.put_u64(stats.rejected);
    out.put_u64(stats.deletions);
    out.put_u64(stats.reweights);
    out.put_u64(stats.repaired);
    out.put_u64(0); // repair_time, in nanoseconds
    out.put_u64(stats.epochs_advanced);
    out.put_u64(stats.recertifications);
    out.put_u64(0); // elapsed, in nanoseconds
    out.put_u64(stats.compactions);
    out.put_u64(stats.snapshots_written);
    out.put_u64(stats.snapshot_failures);
    put_string(&mut out, &provenance.algorithm);
    put_string(&mut out, &provenance.parameters);
    put_string(&mut out, &provenance.input);
    match provenance.guaranteed_stretch {
        Some(t) => {
            out.put_bytes(&[1]);
            out.put_f64_bits(t);
        }
        None => out.put_bytes(&[0]),
    }
    out.into_inner()
}

/// Decodes the owner metadata. Inverse of [`encode_meta`].
fn decode_meta(payload: &[u8], path: &Path) -> Result<MetaParts, PersistError> {
    let truncated = || PersistError::Truncated {
        path: path.to_path_buf(),
        context: "snapshot meta",
    };
    let corrupt = |detail: String| PersistError::Corrupt {
        path: path.to_path_buf(),
        context: "snapshot meta",
        detail,
    };
    let mut r = ByteReader::new(payload);
    let version = r.u32().ok_or_else(truncated)?;
    if version != META_VERSION {
        return Err(corrupt(format!(
            "meta version {version} (this build reads {META_VERSION})"
        )));
    }
    let stretch = r.f64_bits().ok_or_else(truncated)?;
    let compaction_threshold = r.f64_bits().ok_or_else(truncated)?;
    let u64_field = |r: &mut ByteReader<'_>| r.u64().ok_or_else(truncated);
    let stats = UpdateStats {
        batches: u64_field(&mut r)?,
        insertions: u64_field(&mut r)?,
        admitted: u64_field(&mut r)?,
        rejected: u64_field(&mut r)?,
        deletions: u64_field(&mut r)?,
        reweights: u64_field(&mut r)?,
        repaired: u64_field(&mut r)?,
        repair_time: Duration::from_nanos(u64_field(&mut r)?),
        epochs_advanced: u64_field(&mut r)?,
        recertifications: u64_field(&mut r)?,
        elapsed: Duration::from_nanos(u64_field(&mut r)?),
        compactions: u64_field(&mut r)?,
        snapshots_written: u64_field(&mut r)?,
        snapshot_failures: u64_field(&mut r)?,
    };
    let string_field = |r: &mut ByteReader<'_>| -> Result<String, PersistError> {
        let len = r.u32().ok_or_else(truncated)? as usize;
        let bytes = r.take(len).ok_or_else(truncated)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt("provenance string is not utf-8".into()))
    };
    let algorithm = string_field(&mut r)?;
    let parameters = string_field(&mut r)?;
    let input = string_field(&mut r)?;
    let guaranteed_stretch = match r.take(1).ok_or_else(truncated)?[0] {
        0 => None,
        1 => Some(r.f64_bits().ok_or_else(truncated)?),
        other => return Err(corrupt(format!("bad guaranteed-stretch flag {other}"))),
    };
    if !r.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    if !(stretch.is_finite() && stretch >= 1.0) {
        return Err(corrupt(format!("stretch {stretch} is not a valid target")));
    }
    Ok(MetaParts {
        stretch,
        compaction_threshold,
        stats,
        provenance: Provenance {
            algorithm,
            parameters,
            input,
            guaranteed_stretch,
        },
    })
}

impl LiveSpanner {
    /// Captures the current state as a [`Snapshot`] value.
    fn build_snapshot(&self) -> Snapshot {
        Snapshot {
            epoch: self.epoch(),
            wal_seq: self.stats().batches,
            meta: encode_meta(self),
            spanner: GraphImage::capture(self.spanner()),
            original: GraphImage::capture(self.original()),
        }
    }

    /// Writes a snapshot of the current state to `path`, atomically, on
    /// demand — works with or without an attached store. The snapshot is
    /// self-contained: [`LiveSpanner::recover`] can start from it (name it
    /// with [`spanner_store::snapshot_file_name`] inside a store directory
    /// for that).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] for any failing filesystem operation.
    pub fn checkpoint(&self, path: &Path) -> Result<(), PersistError> {
        self.build_snapshot().write_atomic(path)
    }

    /// Writes a compaction-triggered snapshot into the attached store
    /// directory. No-op without a store.
    pub(crate) fn write_snapshot_now(&mut self) -> Result<(), PersistError> {
        let Some(durability) = self.durability_mut().as_ref() else {
            return Ok(());
        };
        let dir = durability.dir.clone();
        let name = snapshot_file_name(self.stats().batches, self.epoch());
        self.build_snapshot().write_atomic(&dir.join(name))
    }

    /// Attaches a store directory: writes an initial snapshot of the
    /// current state and opens a fresh write-ahead log. From then on every
    /// applied batch is fsynced to the log before it mutates anything, and
    /// every generation compaction writes a new snapshot.
    ///
    /// # Errors
    ///
    /// [`PersistError::StoreExists`] when `dir` already holds a WAL or
    /// snapshots (recover from it, or point at a fresh directory), and
    /// [`PersistError::Io`] for filesystem failures.
    pub fn persist_to(&mut self, dir: &Path) -> Result<(), PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
        let occupied = dir.join(WAL_FILE_NAME).exists() || !list_snapshots(dir)?.is_empty();
        if occupied {
            return Err(PersistError::StoreExists {
                dir: dir.to_path_buf(),
            });
        }
        let name = snapshot_file_name(self.stats().batches, self.epoch());
        self.build_snapshot().write_atomic(&dir.join(name))?;
        let wal = WalWriter::create(&dir.join(WAL_FILE_NAME))?;
        *self.durability_mut() = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
        });
        self.stats_mut().snapshots_written += 1;
        Ok(())
    }

    /// Detaches the store, if one is attached; subsequent batches are no
    /// longer logged. Returns whether a store was attached. The directory
    /// keeps everything written so far — [`LiveSpanner::recover`] restores
    /// the state as of the last applied batch.
    pub fn detach_store(&mut self) -> bool {
        self.durability_mut().take().is_some()
    }

    /// The attached store directory, when persisting.
    pub fn store_dir(&self) -> Option<&Path> {
        self.durability_ref().map(|d| d.dir.as_path())
    }

    /// Recovers a live spanner from a store directory: newest verifying
    /// snapshot (corrupt candidates are skipped with fallback to older
    /// ones), then WAL replay of every record at or past the snapshot's
    /// cursor through the deterministic apply path, then reattachment of
    /// the log (truncating a torn tail). The result answers queries
    /// **bit-identically** to the instance that wrote the store.
    ///
    /// # Errors
    ///
    /// [`PersistError::NoValidSnapshot`] when every candidate fails
    /// verification, [`PersistError::WalSequenceGap`] /
    /// [`PersistError::MixedEpoch`] when the log cannot be reconciled with
    /// the snapshot, [`PersistError::Corrupt`] for undecodable replay
    /// payloads, and [`PersistError::Io`] for filesystem failures. Never
    /// panics on hostile bytes.
    pub fn recover(dir: &Path) -> Result<Recovered, PersistError> {
        let candidates = list_snapshots(dir)?;
        let total = candidates.len();
        let mut snapshots_skipped = 0usize;
        let mut chosen = None;
        for candidate in candidates {
            match load_snapshot(&candidate.path) {
                Ok(loaded) => {
                    chosen = Some((candidate, loaded));
                    break;
                }
                Err(_) => snapshots_skipped += 1,
            }
        }
        let Some((candidate, (wal_seq, mut live))) = chosen else {
            return Err(PersistError::NoValidSnapshot {
                dir: dir.to_path_buf(),
                candidates: total,
            });
        };

        let wal_path = dir.join(WAL_FILE_NAME);
        let contents = read_wal(&wal_path)?;
        let mut batches_replayed = 0u64;
        let mut expected = wal_seq;
        for record in &contents.records {
            if record.seq < wal_seq {
                continue;
            }
            if record.seq != expected {
                return Err(PersistError::WalSequenceGap {
                    expected,
                    found: record.seq,
                });
            }
            if record.epoch != live.epoch() {
                return Err(PersistError::MixedEpoch {
                    seq: record.seq,
                    wal_epoch: record.epoch,
                    expected_epoch: live.epoch(),
                });
            }
            let batch = decode_batch(&record.payload, &wal_path)?;
            // Disk bytes are not trusted: re-validate exactly like a live
            // batch, so a crafted payload is a typed error, not a panic.
            live.validate(&batch).map_err(|e| PersistError::Corrupt {
                path: wal_path.clone(),
                context: "wal batch replay",
                detail: e.to_string(),
            })?;
            live.apply_validated(&batch);
            expected += 1;
            batches_replayed += 1;
        }

        let wal = WalWriter::open_for_append(&wal_path, contents.valid_len)?;
        *live.durability_mut() = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
        });
        Ok(Recovered {
            live,
            report: RecoveryReport {
                snapshot_path: candidate.path,
                snapshot_seq: candidate.seq,
                snapshot_epoch: candidate.epoch,
                snapshots_skipped,
                batches_replayed,
                torn_tail: contents.torn_tail,
            },
        })
    }
}

/// Reads one snapshot file into a live spanner (no store attached) and
/// returns it with the snapshot's WAL cursor. Every check that can reject
/// the file runs here — checksums, the meta version and payload, the graph
/// images and their mutual consistency — so [`LiveSpanner::recover`] can
/// skip a candidate this build cannot use and fall back to an older one.
fn load_snapshot(path: &Path) -> Result<(u64, LiveSpanner), PersistError> {
    let snapshot = Snapshot::read(path)?;
    let corrupt = |detail: String| PersistError::Corrupt {
        path: path.to_path_buf(),
        context: "snapshot consistency",
        detail,
    };
    let meta = decode_meta(&snapshot.meta, path)?;
    let spanner = snapshot.spanner.restore(path)?;
    let original = snapshot.original.restore(path)?;
    if spanner.epoch() != snapshot.epoch {
        return Err(corrupt(format!(
            "root says epoch {} but the spanner image is at {}",
            snapshot.epoch,
            spanner.epoch()
        )));
    }
    if meta.stats.batches != snapshot.wal_seq {
        return Err(corrupt(format!(
            "root says {} batches applied but the stats say {}",
            snapshot.wal_seq, meta.stats.batches
        )));
    }
    if spanner.num_vertices() != original.num_vertices() {
        return Err(corrupt(format!(
            "spanner has {} vertices, original {}",
            spanner.num_vertices(),
            original.num_vertices()
        )));
    }
    let live = LiveSpanner::from_parts(
        original,
        spanner,
        meta.stretch,
        meta.stats,
        meta.provenance,
        meta.compaction_threshold,
    );
    Ok((snapshot.wal_seq, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Spanner;
    use spanner_graph::WeightedGraph;

    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("greedy-spanner-persist-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_live() -> LiveSpanner {
        let g = WeightedGraph::from_edges(
            5,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (0, 4, 6.0),
            ],
        )
        .unwrap();
        Spanner::greedy()
            .stretch(2.0)
            .build(&g)
            .unwrap()
            .live(&g)
            .unwrap()
    }

    #[test]
    fn batch_codec_round_trips_every_update_kind() {
        let batch = UpdateBatch::new()
            .insert(VertexId(0), VertexId(1), 1.0e-9)
            .delete(VertexId(2), VertexId(3))
            .reweight(VertexId(1), VertexId(4), f64::MAX);
        let payload = encode_batch(&batch);
        let back = decode_batch(&payload, Path::new("/test")).unwrap();
        assert_eq!(back, batch);
        // Weight bits are exact, not approximate.
        match back.updates()[0] {
            Update::Insert { weight, .. } => assert_eq!(weight.to_bits(), 1.0e-9f64.to_bits()),
            _ => panic!("wrong kind"),
        }
        // Empty batches survive too.
        let empty = UpdateBatch::new();
        assert_eq!(
            decode_batch(&encode_batch(&empty), Path::new("/t")).unwrap(),
            empty
        );
    }

    #[test]
    fn batch_codec_rejects_damage_with_typed_errors() {
        let batch = UpdateBatch::new().insert(VertexId(0), VertexId(1), 2.5);
        let payload = encode_batch(&batch);
        let path = Path::new("/test");
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    decode_batch(&payload[..cut], path),
                    Err(PersistError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        // Unknown tag.
        let mut copy = payload.clone();
        copy[8] = 77;
        assert!(matches!(
            decode_batch(&copy, path),
            Err(PersistError::Corrupt { .. })
        ));
        // Trailing garbage.
        let mut copy = payload.clone();
        copy.push(0);
        assert!(matches!(
            decode_batch(&copy, path),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn meta_codec_round_trips_stats_and_provenance_exactly() {
        let mut live = small_live();
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(2), 0.25))
            .unwrap();
        let meta = encode_meta(&live);
        let parts = decode_meta(&meta, Path::new("/test")).unwrap();
        assert_eq!(parts.stretch.to_bits(), live.stretch().to_bits());
        assert_eq!(
            parts.compaction_threshold.to_bits(),
            live.compaction_threshold().to_bits()
        );
        // Every counter round-trips; the wall-clock durations read zero.
        assert_eq!(
            parts.stats,
            UpdateStats {
                repair_time: Duration::ZERO,
                elapsed: Duration::ZERO,
                ..*live.stats()
            }
        );
        assert!(live.stats().elapsed > Duration::ZERO);
        assert_eq!(parts.provenance.algorithm, live.provenance().algorithm);
        assert_eq!(parts.provenance.parameters, live.provenance().parameters);
        assert_eq!(parts.provenance.input, live.provenance().input);
        assert_eq!(
            parts.provenance.guaranteed_stretch,
            live.provenance().guaranteed_stretch
        );
        // Every truncation of the meta payload is a typed error.
        for cut in 0..meta.len() {
            assert!(
                decode_meta(&meta[..cut], Path::new("/t")).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn persist_apply_recover_restores_state_and_stats() {
        let dir = store_dir("basic-cycle");
        let mut live = small_live();
        live.persist_to(&dir).unwrap();
        assert_eq!(live.store_dir(), Some(dir.as_path()));
        assert!(matches!(
            small_live().persist_to(&dir),
            Err(PersistError::StoreExists { .. })
        ));
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))
            .unwrap();
        live.apply(&UpdateBatch::new().delete(VertexId(1), VertexId(2)))
            .unwrap();

        let recovered = LiveSpanner::recover(&dir).unwrap();
        assert_eq!(recovered.report.batches_replayed, 2);
        assert_eq!(recovered.report.snapshot_seq, 0);
        assert!(recovered.report.torn_tail.is_none());
        let r = &recovered.live;
        assert_eq!(r.epoch(), live.epoch());
        assert_eq!(r.stats().batches, live.stats().batches);
        assert_eq!(r.stats().admitted, live.stats().admitted);
        assert_eq!(r.stats().repaired, live.stats().repaired);
        assert_eq!(r.stats().recertifications, live.stats().recertifications);
        assert_eq!(
            r.spanner().to_weighted_graph(),
            live.spanner().to_weighted_graph()
        );
        assert_eq!(
            r.original().to_weighted_graph(),
            live.original().to_weighted_graph()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_store_keeps_logging_new_batches() {
        let dir = store_dir("reattach");
        let mut live = small_live();
        live.persist_to(&dir).unwrap();
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))
            .unwrap();
        let mut recovered = LiveSpanner::recover(&dir).unwrap().live;
        recovered
            .apply(&UpdateBatch::new().insert(VertexId(1), VertexId(4), 0.5))
            .unwrap();
        let second = LiveSpanner::recover(&dir).unwrap();
        assert_eq!(second.report.batches_replayed, 2);
        assert_eq!(second.live.stats().batches, 2);
        assert_eq!(
            second.live.spanner().to_weighted_graph(),
            recovered.spanner().to_weighted_graph()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detach_stops_logging_and_empty_dirs_fail_recovery() {
        let dir = store_dir("detach");
        let mut live = small_live();
        live.persist_to(&dir).unwrap();
        assert!(live.detach_store());
        assert!(!live.detach_store());
        assert_eq!(live.store_dir(), None);
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(2), 0.25))
            .unwrap();
        // The unlogged batch is invisible to recovery.
        let recovered = LiveSpanner::recover(&dir).unwrap();
        assert_eq!(recovered.live.stats().batches, 0);
        fs::remove_dir_all(&dir).unwrap();
        let empty = store_dir("never-a-store");
        fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            LiveSpanner::recover(&empty),
            Err(PersistError::NoValidSnapshot { candidates: 0, .. })
        ));
        fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn mixed_epoch_wal_is_refused() {
        use spanner_store::read_wal as rw;
        let dir = store_dir("mixed-epoch");
        let mut live = small_live();
        live.persist_to(&dir).unwrap();
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))
            .unwrap();
        // Rewrite the WAL with a wrong epoch stamp on the record.
        let wal_path = dir.join(WAL_FILE_NAME);
        let contents = rw(&wal_path).unwrap();
        fs::remove_file(&wal_path).unwrap();
        let mut w = WalWriter::create(&wal_path).unwrap();
        let rec = &contents.records[0];
        w.append(rec.seq, rec.epoch + 7, &rec.payload).unwrap();
        drop(w);
        assert!(matches!(
            LiveSpanner::recover(&dir),
            Err(PersistError::MixedEpoch { .. })
        ));
        // And a sequence gap is refused too.
        fs::remove_file(&wal_path).unwrap();
        let mut w = WalWriter::create(&wal_path).unwrap();
        w.append(rec.seq + 3, rec.epoch, &rec.payload).unwrap();
        drop(w);
        assert!(matches!(
            LiveSpanner::recover(&dir),
            Err(PersistError::WalSequenceGap { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_with_an_unread_meta_version_is_skipped_for_an_older_one() {
        let dir = store_dir("meta-version");
        let mut live = small_live();
        live.persist_to(&dir).unwrap();
        live.apply(&UpdateBatch::new().insert(VertexId(0), VertexId(3), 0.5))
            .unwrap();
        live.apply(&UpdateBatch::new().delete(VertexId(1), VertexId(2)))
            .unwrap();
        // A newer snapshot of the same state, stamped with the previous
        // meta version (one this build does not read).
        let mut snapshot = live.build_snapshot();
        snapshot.meta[..4].copy_from_slice(&(META_VERSION - 1).to_le_bytes());
        let newer = dir.join(snapshot_file_name(live.stats().batches, live.epoch()));
        snapshot.write_atomic(&newer).unwrap();
        match load_snapshot(&newer) {
            Err(PersistError::Corrupt {
                context, detail, ..
            }) => {
                assert_eq!(context, "snapshot meta");
                assert!(
                    detail.contains(&format!("meta version {}", META_VERSION - 1)),
                    "{detail}"
                );
            }
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }

        let recovered = LiveSpanner::recover(&dir).unwrap();
        assert_eq!(recovered.report.snapshots_skipped, 1);
        assert_eq!(
            recovered.report.snapshot_seq, 0,
            "fell back to the attach snapshot"
        );
        assert_eq!(recovered.report.batches_replayed, 2);
        assert_eq!(recovered.live.epoch(), live.epoch());
        assert_eq!(
            recovered.live.spanner().to_weighted_graph(),
            live.spanner().to_weighted_graph()
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
