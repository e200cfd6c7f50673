//! # spanner-store — durable persistence for live spanners
//!
//! This crate is the storage engine beneath the live-update subsystem: it
//! knows how to turn a [`spanner_graph::CsrGraph`] pair (spanner + original
//! mirror) into an **epoch-stamped, checksummed snapshot file** and how to
//! keep a **write-ahead log** of update batches, so a killed-and-restarted
//! server can be rebuilt bit-identically from disk. It deliberately knows
//! nothing about greedy admission, rebuilds, or serving — the core crate owns
//! the semantics of a batch; this crate owns the bytes.
//!
//! ## The durability contract
//!
//! * **Write-ahead**: a batch's WAL record is fsynced *before* the
//!   in-memory state mutates ([`WalWriter::append`]). A crash at any moment
//!   loses at most work that was never acknowledged.
//! * **Atomic snapshots**: [`Snapshot::write_atomic`] stages into a
//!   temporary sibling, fsyncs, then renames — a snapshot file either
//!   exists completely or not at all.
//! * **Verified reads**: every section and record carries a CRC-32;
//!   truncation, bit flips and structural nonsense surface as typed
//!   [`PersistError`]s, never panics. Recovery policy can branch on the
//!   variant: a corrupt snapshot sends the reader to the next-newest
//!   candidate ([`list_snapshots`] orders them), while a
//!   [`PersistError::MixedEpoch`] is unrecoverable by fallback because the
//!   snapshot and log describe different histories.
//! * **Bit-identical restore**: weights travel as raw `f64` bit patterns
//!   and edge slots keep their exact ids (dead slots included), so the
//!   recovered graphs are indistinguishable from the originals —
//!   [`GraphImage::capture`] / [`GraphImage::restore`] round-trip to
//!   equality, not approximation.
//!
//! ## File formats
//!
//! See [`snapshot`] for the snapshot layout (magic `SPANSNP1`, framed
//! sections) and [`wal`] for the log layout (magic `SPNWAL01`,
//! length-prefixed records). Both are little-endian, flat and fixed-width —
//! mmap-friendly by construction, though this crate reads via plain I/O to
//! stay `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod format;
pub mod snapshot;
pub mod wal;

pub use checksum::{crc32, Crc32};
pub use error::PersistError;
pub use format::{expect_section, read_section, write_section, ByteReader, ByteWriter, Section};
pub use snapshot::{
    list_snapshots, parse_snapshot_file_name, snapshot_file_name, GraphImage, Snapshot,
    SnapshotCandidate, SNAPSHOT_EXTENSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{read_wal, WalContents, WalRecord, WalWriter, WAL_FILE_NAME, WAL_MAGIC, WAL_VERSION};
