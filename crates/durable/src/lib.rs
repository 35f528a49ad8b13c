//! Crash-safe persistence for numbered XML catalogs.
//!
//! The paper's scheme makes updates *local* — an insert or delete
//! relabels one area, not the document. This crate makes that locality
//! pay off across process deaths: the state worth that much to maintain
//! is the state worth persisting. Three pieces:
//!
//! * [`snapshot`] — a versioned, per-section-checksummed freeze of a
//!   whole catalog (DOM, rUID labels, table K, κ, name metadata per
//!   document), installed atomically (write-temp → fsync → rename →
//!   fsync dir). The quarantine unit is the document: one corrupt body
//!   is skipped and reported, the rest of the catalog loads.
//! * [`wal`] — a write-ahead log of catalog mutations (load/unload and
//!   the structural ops of `core::update`) as length-prefixed, CRC'd,
//!   sequence-numbered records with a configurable [`FsyncPolicy`].
//! * [`recovery`] — newest readable snapshot + contiguous WAL replay,
//!   truncating at the first torn/invalid record, reporting every
//!   decision in a [`RecoveryReport`].
//!
//! [`fault`] extends the PR-2 deterministic-fault discipline to the disk
//! (torn write at byte N, short read, failed fsync), and
//! [`fingerprint`] gives the crash tests their oracle: any interrupted
//! run must recover to a fingerprint of a legal pre-op or post-op state.
//!
//! The dependency arrow points here *from* the service layer, never
//! back: this crate works on `(Document, Ruid2Scheme)` pairs
//! ([`DocState`]); derived serving structures (name index, order keys,
//! node store) are deterministic functions of that pair and are rebuilt
//! by the caller after recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod fault;
pub mod fingerprint;
pub mod recovery;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use codec::{CodecError, NodeContent};
pub use crc::{crc32, Crc32};
pub use fault::{IoFault, IoFaultPlan};
pub use fingerprint::{catalog_fingerprint, doc_fingerprint};
pub use recovery::{recover, recover_with, Recovered, RecoveryReport};
pub use snapshot::{
    read_snapshot, read_snapshot_bytes, snapshot_file_name, snapshot_generation, wal_generation,
    write_snapshot, write_snapshot_with, DocView, SnapshotLoad,
};
pub use state::{Applied, DocState};
pub use wal::{
    encode_record, read_segment, read_wal, wal_file_name, FsyncPolicy, RecordStream, StreamStatus,
    WalOp, WalReadResult, WalWriter,
};

/// A scratch directory for this crate's tests, unique per test name and
/// process, wiped on entry.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("durable-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
