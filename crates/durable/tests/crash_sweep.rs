//! The crash-point sweep: kill the write-ahead log at every byte offset,
//! inject every deterministic I/O fault, and assert that recovery always
//! lands on a *legal* catalog state — the state just before some logged
//! op or just after it, byte-identical by fingerprint, never a hybrid.

use durable::{
    catalog_fingerprint, recover, recover_with, snapshot_file_name, wal_file_name,
    write_snapshot_with, DocState, FsyncPolicy, IoFault, IoFaultPlan, NodeContent, WalOp,
    WalWriter,
};
use ruid_core::{PartitionConfig, Ruid2};
use testkit::Scratch;

fn load_op(doc_id: u64, xml: &str) -> WalOp {
    WalOp::Load {
        doc_id,
        path: format!("doc{doc_id}.xml"),
        config: PartitionConfig::by_depth(2),
        with_store: false,
        xml: xml.into(),
    }
}

/// The scripted mutation history the sweeps replay: loads, structural
/// edits, an unload, a repartition — every `WalOp` variant.
fn script() -> Vec<WalOp> {
    vec![
        load_op(1, "<a><b/><c>text</c><d><e/></d></a>"),
        load_op(2, "<x><y><z/></y></x>"),
        WalOp::Insert {
            doc_id: 1,
            parent: Ruid2::TREE_ROOT,
            position: 1,
            content: NodeContent::Element {
                name: "n".into(),
                attributes: vec![("k".into(), "v".into())],
            },
        },
        WalOp::Delete { doc_id: 2, label: Ruid2::new(1, 2, false) },
        WalOp::Repartition { doc_id: 1 },
        WalOp::Unload { doc_id: 2 },
        load_op(3, "<solo/>"),
    ]
}

fn fp(docs: &[DocState]) -> u64 {
    catalog_fingerprint(docs.iter().map(|d| (d.id, &d.doc, &d.scheme)))
}

/// Applies one op to an in-memory catalog the same way recovery does.
fn apply(docs: &mut Vec<DocState>, op: &WalOp) {
    match op {
        WalOp::Load { doc_id, path, config, with_store, xml } => {
            let state =
                DocState::build(*doc_id, path.clone(), xml, *config, *with_store).unwrap();
            docs.retain(|d| d.id != *doc_id);
            docs.push(state);
        }
        WalOp::Unload { doc_id } => docs.retain(|d| d.id != *doc_id),
        other => {
            let doc = docs.iter_mut().find(|d| d.id == other.doc_id()).unwrap();
            doc.apply(other).unwrap();
        }
    }
    docs.sort_by_key(|d| d.id);
}

/// `states[k]` = fingerprint of the catalog after the first `k` ops.
fn legal_states(ops: &[WalOp]) -> Vec<u64> {
    let mut docs = Vec::new();
    let mut states = vec![fp(&docs)];
    for op in ops {
        apply(&mut docs, op);
        states.push(fp(&docs));
    }
    states
}

/// Record byte boundaries of `ops` written as one segment (`boundaries[k]`
/// = bytes after `k` records).
fn write_segment(dir: &std::path::Path, ops: &[WalOp]) -> Vec<u64> {
    let mut w = WalWriter::create(dir, 0, FsyncPolicy::Never).unwrap();
    let mut boundaries = vec![0u64];
    for op in ops {
        w.append(op).unwrap();
        boundaries.push(w.bytes());
    }
    w.sync().unwrap();
    boundaries
}

#[test]
fn every_wal_truncation_recovers_a_legal_state() {
    let ops = script();
    let states = legal_states(&ops);
    let full_dir = Scratch::new("trunc_src");
    let boundaries = write_segment(&full_dir, &ops);
    let full = std::fs::read(full_dir.join(wal_file_name(0))).unwrap();

    let dir = Scratch::new("trunc");
    for cut in 0..=full.len() {
        std::fs::write(dir.join(wal_file_name(0)), &full[..cut]).unwrap();
        let r = recover(&dir).unwrap();
        let got = fp(&r.docs);
        // The exact prefix: every whole record at or below the cut
        // replays, nothing after it does.
        let k = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
        assert_eq!(got, states[k], "cut at byte {cut}: not the state after {k} ops");
        assert!(states.contains(&got), "cut at byte {cut}: not a legal state at all");
        // The torn tail is truncated on report.
        assert_eq!(r.report.truncated_bytes, cut as u64 - boundaries[k], "cut {cut}");
    }
}

#[test]
fn torn_append_at_every_offset_recovers_the_pre_op_state() {
    let ops = script();
    let states = legal_states(&ops);
    for i in 0..ops.len() {
        // This op's full record length, measured on a scratch segment.
        let scratch = Scratch::new(format!("torn_len_{i}"));
        let mut w = WalWriter::create(&scratch, 0, FsyncPolicy::Never).unwrap();
        w.append(&ops[i]).unwrap();
        let record_len = w.bytes() as usize;

        // Sweep the tear across the record (every offset for small
        // records, a stride for big ones to keep the test quick).
        let stride = (record_len / 37).max(1);
        for at in (0..record_len).step_by(stride) {
            let dir = Scratch::new(format!("torn_{i}_{at}"));
            let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
            for op in &ops[..i] {
                w.append(op).unwrap();
            }
            w.set_fault_plan(IoFaultPlan::new().inject(i as u64, IoFault::TornWrite { at }));
            w.append(&ops[i]).unwrap_err();
            drop(w);
            let r = recover(&dir).unwrap();
            assert_eq!(
                fp(&r.docs),
                states[i],
                "op {i} torn at {at}: a partial record must replay as if never written"
            );
        }
        // A "tear" at the full record length persisted everything: the
        // post-op state is the legal outcome then.
        let dir = Scratch::new(format!("torn_full_{i}"));
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
        for op in &ops[..i] {
            w.append(op).unwrap();
        }
        w.set_fault_plan(
            IoFaultPlan::new().inject(i as u64, IoFault::TornWrite { at: record_len }),
        );
        w.append(&ops[i]).unwrap_err();
        drop(w);
        assert_eq!(fp(&recover(&dir).unwrap().docs), states[i + 1], "op {i} full-length tear");
    }
}

#[test]
fn failed_fsync_leaves_the_post_op_state_recoverable() {
    let ops = script();
    let states = legal_states(&ops);
    for i in 0..ops.len() {
        let dir = Scratch::new(format!("fsync_{i}"));
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        for op in &ops[..i] {
            w.append(op).unwrap();
        }
        w.set_fault_plan(IoFaultPlan::new().inject(i as u64, IoFault::FailFsync));
        w.append(&ops[i]).unwrap_err();
        drop(w);
        // The record bytes reached the file even though the fsync failed;
        // whichever way the platter landed, both outcomes are legal —
        // here the file holds the record, so the post-op state recovers.
        assert_eq!(fp(&recover(&dir).unwrap().docs), states[i + 1], "op {i}");
    }
}

#[test]
fn short_read_at_recovery_yields_a_legal_prefix_state() {
    let ops = script();
    let states = legal_states(&ops);
    let dir = Scratch::new("short_read");
    let boundaries = write_segment(&dir, &ops);
    let total = *boundaries.last().unwrap() as usize;
    for len in (0..=total).step_by(13) {
        let r =
            recover_with(&dir, &IoFaultPlan::new().inject(0, IoFault::ShortRead { len }))
                .unwrap();
        let k = boundaries.iter().filter(|&&b| b <= len as u64).count() - 1;
        assert_eq!(fp(&r.docs), states[k], "short read of {len} bytes");
    }
}

#[test]
fn snapshot_crash_points_never_lose_the_prior_state() {
    let ops = script();
    let states = legal_states(&ops);
    let dir = Scratch::new("snap_crash");
    write_segment(&dir, &ops[..4]);
    let before = recover(&dir).unwrap();
    assert_eq!(fp(&before.docs), states[4]);
    let views: Vec<_> = before.docs.iter().map(DocState::view).collect();

    // Torn temp-file write: no snapshot installed, nothing changed.
    let err = write_snapshot_with(
        &dir,
        1,
        &views,
        &IoFaultPlan::new().inject(0, IoFault::TornWrite { at: 64 }),
    )
    .unwrap_err();
    assert!(err.to_string().contains("torn"), "{err}");
    assert!(!dir.join(snapshot_file_name(1)).exists());
    assert_eq!(fp(&recover(&dir).unwrap().docs), states[4]);

    // Failed temp-file fsync: same story.
    write_snapshot_with(&dir, 1, &views, &IoFaultPlan::new().inject(1, IoFault::FailFsync))
        .unwrap_err();
    assert!(!dir.join(snapshot_file_name(1)).exists());
    assert_eq!(fp(&recover(&dir).unwrap().docs), states[4]);

    // A clean install + tail segment: truncating the *new* segment at
    // every offset still recovers states[4 + k].
    write_snapshot_with(&dir, 1, &views, &IoFaultPlan::new()).unwrap();
    let tail_dir = Scratch::new("snap_crash_tail");
    let tail_boundaries = write_segment(&tail_dir, &ops[4..]);
    let tail = std::fs::read(tail_dir.join(wal_file_name(0))).unwrap();
    for cut in 0..=tail.len() {
        std::fs::write(dir.join(wal_file_name(1)), &tail[..cut]).unwrap();
        let r = recover(&dir).unwrap();
        assert_eq!(r.report.snapshot_generation, Some(1), "cut {cut}");
        let k = tail_boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
        assert_eq!(fp(&r.docs), states[4 + k], "tail cut at byte {cut}");
    }
}
