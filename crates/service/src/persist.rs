//! The service's durability manager: one write-ahead log for catalog
//! mutations plus snapshot rotation, layered on the `durable` crate.
//!
//! Invariant: the WAL and the catalog agree because every durable
//! mutation runs under the manager's mutex — the record is appended
//! *before* the catalog changes, and a snapshot freezes the catalog and
//! rotates to a fresh segment inside the same critical section. Readers
//! (queries) never touch the mutex.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use durable::{
    recover, snapshot_file_name, wal_file_name, write_snapshot, write_snapshot_bodies, DocState,
    DocView, FsyncPolicy, WalOp, WalWriter,
};

use crate::catalog::{Catalog, DocId, LoadedDoc};

/// What startup recovery found, frozen for metrics reporting.
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// Generation of the snapshot the catalog was restored from.
    pub snapshot_generation: Option<u64>,
    /// Snapshot files skipped for header/directory damage.
    pub snapshots_skipped: u64,
    /// Documents restored from the snapshot.
    pub snapshot_docs: u64,
    /// WAL records replayed.
    pub replayed: u64,
    /// Torn-tail bytes truncated from WAL segments.
    pub truncated_bytes: u64,
    /// WAL segments skipped because the generation chain below them broke.
    pub orphaned_segments: u64,
    /// Documents dropped during recovery (checksum or replay failure).
    pub quarantined: Vec<(u64, String)>,
}

struct Inner {
    wal: WalWriter,
    generation: u64,
}

/// The per-server durability manager (absent when `--data-dir` is not
/// given): owns the live WAL segment and installs snapshots.
pub struct Durability {
    dir: PathBuf,
    policy: FsyncPolicy,
    inner: Mutex<Inner>,
    snapshots: AtomicU64,
    snapshot_ns: AtomicU64,
    recovery: RecoverySummary,
}

/// A consistent point-in-time view of the durability counters, for
/// Prometheus exposition.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityStats {
    /// Current snapshot/WAL generation.
    pub generation: u64,
    /// Records appended to the live WAL segment.
    pub wal_records: u64,
    /// Bytes appended to the live WAL segment.
    pub wal_bytes: u64,
    /// fsyncs issued on the live WAL segment.
    pub wal_fsyncs: u64,
    /// Records appended since the last fsync (lost if the process dies).
    pub wal_unsynced_records: u64,
    /// Nanoseconds spent in WAL appends.
    pub wal_append_ns: u64,
    /// Nanoseconds spent in WAL fsyncs.
    pub wal_fsync_ns: u64,
    /// Snapshots installed by this process.
    pub snapshots: u64,
    /// Nanoseconds spent writing + installing snapshots.
    pub snapshot_ns: u64,
}

impl Durability {
    /// Recovers the catalog persisted in `dir` (created if missing),
    /// resumes the WAL at its valid tail, and returns the manager plus
    /// the recovered documents for the caller to install.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Durability, Vec<DocState>, u64)> {
        let recovered = recover(dir)?;
        let wal = WalWriter::resume(
            dir,
            recovered.generation,
            recovered.wal_valid_bytes,
            recovered.wal_next_seq,
            policy,
        )?;
        let r = &recovered.report;
        let durability = Durability {
            dir: dir.to_path_buf(),
            policy,
            inner: Mutex::new(Inner { wal, generation: recovered.generation }),
            snapshots: AtomicU64::new(0),
            snapshot_ns: AtomicU64::new(0),
            recovery: RecoverySummary {
                snapshot_generation: r.snapshot_generation,
                snapshots_skipped: r.snapshots_skipped,
                snapshot_docs: r.snapshot_docs,
                replayed: r.replayed,
                truncated_bytes: r.truncated_bytes,
                orphaned_segments: r.orphaned_segments,
                quarantined: r.quarantined.clone(),
            },
        };
        Ok((durability, recovered.docs, recovered.next_doc_id))
    }

    /// Appends `op` to the WAL and, only if the append succeeds, runs
    /// `apply` (the catalog mutation) inside the same critical section —
    /// so a snapshot can never observe a catalog state whose WAL record
    /// landed in an already-rotated segment.
    pub fn log_with<R>(&self, op: &WalOp, apply: impl FnOnce() -> R) -> Result<R, String> {
        let mut inner = self.inner.lock().unwrap();
        inner.wal.append(op).map_err(|e| format!("wal append failed: {e}"))?;
        Ok(apply())
    }

    /// Arms a deterministic I/O fault plan on the live WAL writer (test
    /// hook for the crash-mid-commit sweep; fault indices count appends
    /// from this call on). A writer that took a torn write must not be
    /// reused — kill the server and recover, exactly like a real crash.
    #[doc(hidden)]
    pub fn arm_wal_faults(&self, plan: durable::IoFaultPlan) {
        self.inner.lock().unwrap().wal.set_fault_plan(plan);
    }

    /// Forces the WAL to stable storage (the `PERSIST` verb). Returns the
    /// records and bytes now durable.
    pub fn persist(&self) -> Result<(u64, u64), String> {
        let mut inner = self.inner.lock().unwrap();
        inner.wal.sync().map_err(|e| format!("wal fsync failed: {e}"))?;
        Ok((inner.wal.records(), inner.wal.bytes()))
    }

    /// Writes a snapshot of the whole catalog as generation `g+1`,
    /// atomically installs it, starts the paired fresh WAL segment, and
    /// removes files older than the previous generation (one older
    /// snapshot is kept as a fallback base). Returns `(generation, docs)`.
    pub fn snapshot(&self, catalog: &Catalog) -> Result<(u64, usize), String> {
        self.install_snapshot(|dir, generation| {
            let entries: Vec<(DocId, Arc<LoadedDoc>)> = catalog.snapshot_docs();
            let views: Vec<DocView<'_>> = entries
                .iter()
                .map(|(id, d)| DocView {
                    id: *id,
                    path: &d.path,
                    config: *d.scheme.config(),
                    with_store: d.store.is_some(),
                    doc: &d.doc,
                    scheme: &d.scheme,
                })
                .collect();
            write_snapshot(dir, generation, &views).map(|_| views.len())
        })
    }

    /// [`Durability::snapshot`] of a catalog that was just installed from
    /// `bodies` — verified document bodies of a shipped image, in id
    /// order ([`durable::SnapshotLoad::verified_bodies`]). They are
    /// re-framed under this node's next generation instead of encoded
    /// again from the catalog, which is byte for byte what that encode
    /// would write. Returns `(generation, docs)`.
    pub fn snapshot_bodies(&self, bodies: &[(u64, &[u8])]) -> Result<(u64, usize), String> {
        self.install_snapshot(|dir, generation| {
            write_snapshot_bodies(dir, generation, bodies).map(|_| bodies.len())
        })
    }

    /// The snapshot rotation both kinds share: under the manager's mutex,
    /// `write` installs the image of generation `g+1` and returns its
    /// document count; then the WAL rotates to the paired fresh segment
    /// and files below the fallback generation go.
    fn install_snapshot(
        &self,
        write: impl FnOnce(&Path, u64) -> std::io::Result<usize>,
    ) -> Result<(u64, usize), String> {
        let started = std::time::Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let new_gen = inner.generation + 1;
        let docs =
            write(&self.dir, new_gen).map_err(|e| format!("snapshot write failed: {e}"))?;
        inner.wal = WalWriter::create(&self.dir, new_gen, self.policy)
            .map_err(|e| format!("wal rotation failed: {e}"))?;
        let old_gen = inner.generation;
        inner.generation = new_gen;
        drop(inner);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Best-effort cleanup below the fallback generation; leftover
        // files only cost disk, never correctness (recovery ignores
        // segments with a broken chain and prefers newer snapshots).
        for g in (0..old_gen).rev().take(8) {
            let _ = std::fs::remove_file(self.dir.join(snapshot_file_name(g)));
            let _ = std::fs::remove_file(self.dir.join(wal_file_name(g)));
        }
        Ok((new_gen, docs))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().generation
    }

    /// The leader's WAL coordinates for replication, read atomically
    /// under the manager's mutex: the live segment generation, the next
    /// sequence number, and the committed byte watermark. A `REPL TAIL`
    /// answer must never ship bytes past this watermark — appends that
    /// race the read are simply not committed yet from the follower's
    /// point of view.
    pub fn wal_position(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.generation, inner.wal.next_seq(), inner.wal.bytes())
    }

    /// Newest installed snapshot generation on disk, if any — what a
    /// bootstrapping follower should start from.
    pub fn newest_snapshot(&self) -> Option<u64> {
        let mut newest = None;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if let Some(g) = durable::snapshot_generation(name) {
                        newest = newest.max(Some(g));
                    }
                }
            }
        }
        newest
    }

    /// Snapshots installed by this process.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// What startup recovery found.
    pub fn recovery(&self) -> &RecoverySummary {
        &self.recovery
    }

    /// A consistent snapshot of the durability counters (one lock).
    pub fn stats(&self) -> DurabilityStats {
        let inner = self.inner.lock().unwrap();
        DurabilityStats {
            generation: inner.generation,
            wal_records: inner.wal.records(),
            wal_bytes: inner.wal.bytes(),
            wal_fsyncs: inner.wal.fsyncs(),
            wal_unsynced_records: u64::from(inner.wal.unsynced_records()),
            wal_append_ns: inner.wal.append_ns(),
            wal_fsync_ns: inner.wal.fsync_ns(),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_ns: self.snapshot_ns.load(Ordering::Relaxed),
        }
    }

    /// The durability segment of the `METRICS` line:
    /// `durability=on generation=.. wal_records=.. ... quarantined=..`.
    pub fn render_line(&self) -> String {
        let inner = self.inner.lock().unwrap();
        format!(
            "durability=on fsync={} generation={} wal_records={} wal_bytes={} wal_fsyncs={} \
             wal_unsynced={} snapshots={} recovered_docs={} replayed={} truncated_bytes={} \
             orphaned_segments={} snapshots_skipped={} quarantined={}",
            self.policy,
            inner.generation,
            inner.wal.records(),
            inner.wal.bytes(),
            inner.wal.fsyncs(),
            inner.wal.unsynced_records(),
            self.snapshots.load(Ordering::Relaxed),
            self.recovery.snapshot_docs,
            self.recovery.replayed,
            self.recovery.truncated_bytes,
            self.recovery.orphaned_segments,
            self.recovery.snapshots_skipped,
            self.recovery.quarantined.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruid_core::PartitionConfig;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn load_op(id: u64, xml: &str) -> WalOp {
        WalOp::Load {
            doc_id: id,
            path: format!("doc{id}.xml"),
            config: PartitionConfig::by_depth(2),
            with_store: true,
            xml: xml.into(),
        }
    }

    #[test]
    fn log_snapshot_reopen_round_trip() {
        let dir = test_dir("round_trip");
        let catalog = Catalog::new(4);
        {
            let (d, docs, next) = Durability::open(&dir, FsyncPolicy::Always).unwrap();
            assert!(docs.is_empty());
            assert_eq!(next, 1);
            let id = catalog.reserve_id();
            let loaded =
                LoadedDoc::build("doc1.xml", "<a><b/><c>t</c></a>", 2, true).unwrap();
            d.log_with(&load_op(id, "<a><b/><c>t</c></a>"), || {
                catalog.insert_with_id(id, loaded)
            })
            .unwrap();
            let (generation, count) = d.snapshot(&catalog).unwrap();
            assert_eq!((generation, count), (1, 1));
            assert_eq!(d.generation(), 1);
            assert_eq!(d.snapshots(), 1);
            let line = d.render_line();
            assert!(line.contains("durability=on"), "{line}");
            assert!(line.contains("generation=1"), "{line}");
        }
        // Reopen: the snapshot alone restores the document.
        let (d, docs, next) = Durability::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, 1);
        assert!(docs[0].with_store);
        assert_eq!(next, 2);
        assert_eq!(d.recovery().snapshot_generation, Some(1));
        assert_eq!(d.generation(), 1);
    }

    #[test]
    fn wal_tail_survives_without_snapshot() {
        let dir = test_dir("wal_tail");
        {
            let (d, _, _) = Durability::open(&dir, FsyncPolicy::Always).unwrap();
            d.log_with(&load_op(1, "<x><y/></x>"), || ()).unwrap();
            d.log_with(&WalOp::Unload { doc_id: 1 }, || ()).unwrap();
            d.log_with(&load_op(2, "<z/>"), || ()).unwrap();
        }
        let (d, docs, next) = Durability::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].id, 2);
        assert_eq!(next, 3);
        assert_eq!(d.recovery().replayed, 3);
        assert_eq!(d.recovery().snapshot_generation, None);
    }
}
