//! Startup recovery: newest valid snapshot + WAL replay + torn-tail
//! truncation + per-document quarantine.
//!
//! Generations tie the two file kinds together: installing
//! `snapshot-<g>.snap` starts a fresh `wal-<g>.log`, so the durable state
//! is always *snapshot g + the contiguous chain of segments g, g+1, …*
//! (later segments exist when a newer snapshot was installed but is now
//! unreadable — its WAL still applies, because snapshot g replayed through
//! segment g reproduces exactly the state that newer snapshot froze).
//!
//! Recovery therefore:
//! 1. tries snapshots newest-first until one reads (per-doc damage
//!    quarantines just that document; header damage skips the file);
//! 2. replays WAL segments from the chosen generation upward, stopping at
//!    the first gap in the chain (orphaned later segments are counted,
//!    never applied — applying a WAL to the wrong base would fabricate
//!    state);
//! 3. truncates each segment's torn tail and reports every decision in a
//!    [`RecoveryReport`] so the serving layer can expose it via metrics.

use std::io;
use std::path::Path;

use crate::fault::IoFaultPlan;
use crate::state::DocState;
use crate::wal::{read_wal, wal_file_name, WalOp};

/// Everything recovery decided, for metrics and logs.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot the catalog was restored from.
    pub snapshot_generation: Option<u64>,
    /// Snapshot files that existed but were unreadable (header/directory
    /// damage) and had to be skipped.
    pub snapshots_skipped: u64,
    /// Documents restored from the snapshot.
    pub snapshot_docs: u64,
    /// WAL records successfully replayed.
    pub replayed: u64,
    /// Torn-tail bytes dropped across all replayed segments.
    pub truncated_bytes: u64,
    /// WAL segments that could not be applied because the generation
    /// chain below them was broken.
    pub orphaned_segments: u64,
    /// `(doc_id, reason)` for documents dropped during recovery — either
    /// a snapshot section failed its checksum or a replayed op failed.
    pub quarantined: Vec<(u64, String)>,
}

/// A recovered catalog plus the coordinates the writer resumes from.
#[derive(Debug)]
pub struct Recovered {
    /// The surviving documents, ordered by catalog id.
    pub docs: Vec<DocState>,
    /// Smallest id the catalog may assign next.
    pub next_doc_id: u64,
    /// The generation whose WAL segment the writer must resume.
    pub generation: u64,
    /// Valid bytes in that segment (resume/truncate point).
    pub wal_valid_bytes: u64,
    /// Sequence number for the next record in that segment.
    pub wal_next_seq: u64,
    /// What happened.
    pub report: RecoveryReport,
}

/// Recovers the catalog persisted in `dir` (created if missing).
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    recover_with(dir, &IoFaultPlan::new())
}

/// [`recover`] with an I/O fault plan applied to every segment read
/// (test hook; index 0 of the plan is each segment's whole-file read).
pub fn recover_with(dir: &Path, faults: &IoFaultPlan) -> io::Result<Recovered> {
    std::fs::create_dir_all(dir)?;
    let mut snapshot_gens = Vec::new();
    let mut wal_gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = crate::snapshot::snapshot_generation(name) {
            snapshot_gens.push(g);
        } else if let Some(g) = crate::snapshot::wal_generation(name) {
            wal_gens.push(g);
        }
    }
    snapshot_gens.sort_unstable();
    wal_gens.sort_unstable();

    let mut report = RecoveryReport::default();
    let mut docs: Vec<DocState> = Vec::new();

    // 1. Newest readable snapshot wins.
    let mut base_gen = None;
    for &g in snapshot_gens.iter().rev() {
        match crate::snapshot::read_snapshot(&dir.join(crate::snapshot::snapshot_file_name(g))) {
            Ok(load) => {
                report.snapshot_generation = Some(g);
                report.snapshot_docs = load.docs.len() as u64;
                report.quarantined.extend(load.quarantined);
                docs = load.docs;
                base_gen = Some(g);
                break;
            }
            Err(_) => report.snapshots_skipped += 1,
        }
    }

    // 2. Replay the contiguous chain of segments from the base upward.
    // With no snapshot the chain must start at generation 0 (the empty
    // catalog is only a valid base for the very first segment).
    let start = base_gen.unwrap_or(0);
    let mut expected = start;
    let mut tail = (start, 0u64, 0u64); // (generation, valid_bytes, next_seq)
    // Ids are never reused, even across an UNLOAD or a quarantine: track
    // the highest id *mentioned*, not just the survivors'.
    let mut max_id = docs
        .iter()
        .map(|d| d.id)
        .chain(report.quarantined.iter().map(|(id, _)| *id))
        .max()
        .unwrap_or(0);
    for &g in wal_gens.iter().filter(|&&g| g >= start) {
        if g != expected {
            // A gap below this segment: its base state is unreachable, so
            // applying it (and anything above) would fabricate state.
            report.orphaned_segments += 1;
            continue;
        }
        let read = read_wal(&dir.join(wal_file_name(g)), faults)?;
        report.truncated_bytes += read.torn_bytes;
        for (_, op) in &read.ops {
            max_id = max_id.max(op.doc_id());
            apply_catalog_op(&mut docs, op, &mut report);
            report.replayed += 1;
        }
        tail = (g, read.valid_bytes, read.next_seq);
        expected = g + 1;
    }

    docs.sort_by_key(|d| d.id);
    let next_doc_id = (max_id + 1).max(1);
    Ok(Recovered {
        docs,
        next_doc_id,
        generation: tail.0.max(start),
        wal_valid_bytes: tail.1,
        wal_next_seq: tail.2,
        report,
    })
}

/// Applies one replayed record to the recovering catalog. Failures
/// quarantine the document they touch instead of aborting recovery.
fn apply_catalog_op(docs: &mut Vec<DocState>, op: &WalOp, report: &mut RecoveryReport) {
    match op {
        WalOp::Load { doc_id, path, config, with_store, xml } => {
            match DocState::build(*doc_id, path.clone(), xml, *config, *with_store) {
                Ok(state) => {
                    docs.retain(|d| d.id != *doc_id);
                    docs.push(state);
                }
                Err(reason) => report.quarantined.push((*doc_id, reason)),
            }
        }
        WalOp::LoadStream { doc_id, path, config, with_store, events } => {
            match DocState::build_stream(*doc_id, path.clone(), events, *config, *with_store) {
                Ok(state) => {
                    docs.retain(|d| d.id != *doc_id);
                    docs.push(state);
                }
                Err(reason) => report.quarantined.push((*doc_id, reason)),
            }
        }
        WalOp::Unload { doc_id } => {
            docs.retain(|d| d.id != *doc_id);
        }
        WalOp::Insert { doc_id, .. } | WalOp::Delete { doc_id, .. }
        | WalOp::Repartition { doc_id } => {
            let Some(pos) = docs.iter().position(|d| d.id == *doc_id) else {
                // The doc this op mutates was quarantined (or never
                // loaded): the op has nothing sound to apply to.
                report
                    .quarantined
                    .push((*doc_id, "mutation replayed against a missing document".into()));
                return;
            };
            if let Err(reason) = docs[pos].apply(op) {
                docs.remove(pos);
                report.quarantined.push((*doc_id, reason));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::NodeContent;
    use crate::fingerprint::catalog_fingerprint;
    use crate::snapshot::{write_snapshot, DocView};
    use crate::wal::{FsyncPolicy, WalWriter};
    use ruid_core::PartitionConfig;

    fn load_op(doc_id: u64, xml: &str) -> WalOp {
        WalOp::Load {
            doc_id,
            path: format!("doc{doc_id}.xml"),
            config: PartitionConfig::by_depth(2),
            with_store: false,
            xml: xml.into(),
        }
    }

    fn fp(docs: &[DocState]) -> u64 {
        catalog_fingerprint(docs.iter().map(|d| (d.id, &d.doc, &d.scheme)))
    }

    #[test]
    fn empty_dir_recovers_empty_catalog() {
        let dir = crate::Scratch::new("rec_empty");
        let r = recover(&dir).unwrap();
        assert!(r.docs.is_empty());
        assert_eq!(r.next_doc_id, 1);
        assert_eq!(r.generation, 0);
        assert_eq!(r.report.replayed, 0);
        assert!(r.report.quarantined.is_empty());
    }

    #[test]
    fn wal_only_recovery_replays_everything() {
        let dir = crate::Scratch::new("rec_wal_only");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        w.append(&load_op(1, "<a><b/><c>t</c></a>")).unwrap();
        w.append(&load_op(2, "<x><y/></x>")).unwrap();
        w.append(&WalOp::Insert {
            doc_id: 1,
            parent: ruid_core::Ruid2::TREE_ROOT,
            position: 0,
            content: NodeContent::Element { name: "n".into(), attributes: vec![] },
        })
        .unwrap();
        w.append(&WalOp::Unload { doc_id: 2 }).unwrap();
        let r = recover(&dir).unwrap();
        assert_eq!(r.docs.len(), 1);
        assert_eq!(r.docs[0].id, 1);
        // Unloaded ids are not reused.
        assert_eq!(r.next_doc_id, 3);
        assert_eq!(r.report.replayed, 4);
        assert_eq!(r.wal_next_seq, 4);
        // The inserted <n> is the first child of the root element.
        let root = r.docs[0].doc.root_element().unwrap();
        let first = r.docs[0].doc.children(root).next().unwrap();
        assert_eq!(
            NodeContent::from_node(&r.docs[0].doc, first),
            NodeContent::Element { name: "n".into(), attributes: vec![] }
        );
    }

    #[test]
    fn snapshot_plus_tail_wal_recovery() {
        let dir = crate::Scratch::new("rec_snap_tail");
        // Generation 0: two loads.
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        w.append(&load_op(1, "<a><b/></a>")).unwrap();
        w.append(&load_op(2, "<x><y/></x>")).unwrap();
        let r0 = recover(&dir).unwrap();
        // Install snapshot generation 1, start wal-1 with one more op.
        let views: Vec<DocView<'_>> = r0.docs.iter().map(DocState::view).collect();
        write_snapshot(&dir, 1, &views).unwrap();
        let mut w1 = WalWriter::create(&dir, 1, FsyncPolicy::Always).unwrap();
        w1.append(&WalOp::Delete { doc_id: 1, label: ruid_core::Ruid2::new(1, 2, false) })
            .unwrap();

        let r = recover(&dir).unwrap();
        assert_eq!(r.report.snapshot_generation, Some(1));
        assert_eq!(r.report.snapshot_docs, 2);
        assert_eq!(r.report.replayed, 1);
        assert_eq!(r.generation, 1);
        assert_eq!(r.docs.len(), 2);
        // Doc 1 lost its <b> child.
        let root = r.docs[0].doc.root_element().unwrap();
        assert_eq!(r.docs[0].doc.children(root).count(), 0);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_across_generations() {
        let dir = crate::Scratch::new("rec_fallback");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        w.append(&load_op(1, "<a><b/><c/></a>")).unwrap();
        let r0 = recover(&dir).unwrap();
        write_snapshot(&dir, 1, &r0.docs.iter().map(DocState::view).collect::<Vec<_>>())
            .unwrap();
        let mut w1 = WalWriter::create(&dir, 1, FsyncPolicy::Always).unwrap();
        w1.append(&load_op(2, "<z/>")).unwrap();
        let want = fp(&recover(&dir).unwrap().docs);

        // Smash the newest snapshot's header.
        let snap = dir.join(crate::snapshot::snapshot_file_name(1));
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[3] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        // Fallback path: no older snapshot, but the chain wal-0 + wal-1
        // reproduces the exact same catalog.
        let r = recover(&dir).unwrap();
        assert_eq!(r.report.snapshot_generation, None);
        assert_eq!(r.report.snapshots_skipped, 1);
        assert_eq!(r.report.replayed, 2);
        assert_eq!(fp(&r.docs), want);
    }

    #[test]
    fn orphaned_segment_is_never_applied() {
        let dir = crate::Scratch::new("rec_orphan");
        // wal-3 exists with no snapshot-3 and no chain below it.
        let mut w = WalWriter::create(&dir, 3, FsyncPolicy::Always).unwrap();
        w.append(&load_op(9, "<a/>")).unwrap();
        let r = recover(&dir).unwrap();
        assert!(r.docs.is_empty(), "an orphaned WAL must not fabricate documents");
        assert_eq!(r.report.orphaned_segments, 1);
        assert_eq!(r.report.replayed, 0);
    }

    #[test]
    fn quarantined_doc_mutations_do_not_resurrect_it() {
        let dir = crate::Scratch::new("rec_quarantine_mut");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        // An unparseable load (simulates a doc quarantined at replay).
        w.append(&load_op(5, "<broken")).unwrap();
        w.append(&WalOp::Repartition { doc_id: 5 }).unwrap();
        w.append(&load_op(6, "<ok/>")).unwrap();
        let r = recover(&dir).unwrap();
        assert_eq!(r.docs.len(), 1);
        assert_eq!(r.docs[0].id, 6);
        assert_eq!(r.report.quarantined.len(), 2, "load failure + orphaned mutation");
        assert!(r.report.quarantined.iter().all(|(id, _)| *id == 5));
        assert_eq!(r.next_doc_id, 7);
    }

    /// A record an older binary journaled — an insert whose parent label
    /// resolves to a text node — is refused by the shared apply path:
    /// replay quarantines that document with the same error the live
    /// commit and a follower's apply give, and recovery carries on.
    #[test]
    fn insert_under_a_text_node_quarantines_on_replay() {
        use schemes::NumberingScheme;
        let dir = crate::Scratch::new("rec_insert_under_text");
        let xml = "<a>t<b/></a>";
        let mut state =
            DocState::build(1, "doc1.xml".into(), xml, PartitionConfig::by_depth(2), false)
                .unwrap();
        let root = state.doc.root_element().unwrap();
        let text = state.doc.first_child(root).unwrap();
        assert!(state.doc.text(text).is_some());
        let op = WalOp::Insert {
            doc_id: 1,
            parent: state.scheme.label_of(text),
            position: 0,
            content: NodeContent::Element { name: "n".into(), attributes: vec![] },
        };
        let arena = state.doc.arena_len();
        let live = state.apply(&op).unwrap_err();
        assert!(live.contains("non-element"), "{live}");
        assert_eq!(state.doc.arena_len(), arena, "refused before the arena is touched");

        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        w.append(&load_op(1, xml)).unwrap();
        w.append(&op).unwrap();
        w.append(&load_op(2, "<ok/>")).unwrap();
        let r = recover(&dir).unwrap();
        assert_eq!(r.report.replayed, 3, "the bad record does not end the replay");
        assert_eq!(r.report.quarantined, vec![(1, live)]);
        assert_eq!(r.docs.iter().map(|d| d.id).collect::<Vec<_>>(), vec![2]);
    }
}
