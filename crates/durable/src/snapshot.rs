//! The snapshot format: a whole catalog frozen into one checksummed,
//! atomically installed file.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! magic "RUIDSNAP" (8) ‖ version u32 ‖ generation u64 ‖ doc_count u32
//! directory: doc_count × (doc_id u64 ‖ offset u64 ‖ len u64)
//! header_crc u32                      — CRC32 of every byte above
//! doc bodies at the directory offsets
//! ```
//!
//! Each document body is five tagged sections, every one independently
//! checksummed (`tag u8 ‖ len u32 ‖ crc32 u32 ‖ payload`):
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | 1 | Meta   | path, partition config, with_store, κ |
//! | 2 | Tree   | the DOM in preorder with child counts |
//! | 3 | Labels | (preorder index, rUID) pairs |
//! | 4 | KTable | the rows of table K |
//! | 5 | Names  | interned names in first-use order (validation) |
//!
//! The **quarantine unit is the document**: a body whose section checksum
//! or cross-validation fails is skipped and reported, the rest of the
//! catalog loads. A corrupt header/directory condemns the whole file (the
//! offsets can no longer be trusted) and recovery falls back to the next
//! older snapshot.
//!
//! Installation is crash-atomic: write `<name>.tmp`, fsync, rename over
//! the final name, fsync the directory. A crash anywhere leaves either
//! the old complete file set or the new one, never a half-written
//! `.snap`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use ruid_core::{AreaEntry, KTable, Ruid2, Ruid2Scheme};
use xmldom::{Document, NodeId};

use crate::codec::{
    self, decode_tree, encode_tree, put_str, put_u32, put_u64, put_u8, CodecError, Reader,
};
use crate::crc::crc32;
use crate::fault::{IoFault, IoFaultPlan};
use crate::state::DocState;

/// File magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RUIDSNAP";
/// Current format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const SEC_META: u8 = 1;
const SEC_TREE: u8 = 2;
const SEC_LABELS: u8 = 3;
const SEC_KTABLE: u8 = 4;
const SEC_NAMES: u8 = 5;

/// The snapshot file name for generation `generation`.
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snapshot-{generation:08}.snap")
}

/// Extracts the generation from a snapshot file name.
pub fn snapshot_generation(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.strip_suffix(".snap")?.parse().ok()
}

/// Extracts the generation from a WAL segment file name.
pub fn wal_generation(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// A borrowed view of one document for snapshotting (the owning side may
/// be a [`DocState`] or the service's catalog entry).
#[derive(Debug, Clone, Copy)]
pub struct DocView<'a> {
    /// Catalog id.
    pub id: u64,
    /// Origin path.
    pub path: &'a str,
    /// Partition policy.
    pub config: ruid_core::PartitionConfig,
    /// Whether a node store accompanies the document.
    pub with_store: bool,
    /// The document tree.
    pub doc: &'a Document,
    /// The numbering over it.
    pub scheme: &'a Ruid2Scheme,
}

impl DocState {
    /// This state as a snapshot view.
    pub fn view(&self) -> DocView<'_> {
        DocView {
            id: self.id,
            path: &self.path,
            config: self.config,
            with_store: self.with_store,
            doc: &self.doc,
            scheme: &self.scheme,
        }
    }
}

/// Bytes of one label entry: preorder index `u32` ‖ rUID.
const LABEL_ENTRY: usize = 4 + Ruid2::ENCODED_LEN;
/// Bytes of one table-K row: global ‖ local ‖ fanout, each `u64`.
const KTABLE_ROW: usize = 24;

/// Appends one section whose payload `write` appends in place: the tag,
/// then the length and CRC, patched in once the payload is there.
fn section<R>(out: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    put_u8(out, tag);
    let header = out.len();
    out.extend_from_slice(&[0; 8]);
    let result = write(out);
    let payload = &out[header + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
    result
}

fn encode_body(doc: &DocView<'_>) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::new();

    section(&mut body, SEC_META, |meta| {
        put_str(meta, doc.path);
        codec::put_config(meta, &doc.config);
        put_u8(meta, u8::from(doc.with_store));
        put_u64(meta, doc.scheme.kappa());
    });

    let names = section(&mut body, SEC_TREE, |tree| encode_tree(doc.doc, tree))?;

    section(&mut body, SEC_LABELS, |labels| {
        // Nodes outside the numbering subtree (e.g. top-level comments)
        // carry no label; the count is patched in after the walk.
        let count_at = labels.len();
        put_u32(labels, 0);
        let mut count = 0u32;
        for (i, node) in doc.doc.descendants(doc.doc.root()).skip(1).enumerate() {
            if let Some(label) = doc.scheme.try_label_of(node) {
                put_u32(labels, i as u32);
                labels.extend_from_slice(&label.to_bytes());
                count += 1;
            }
        }
        labels[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    });

    section(&mut body, SEC_KTABLE, |ktable| {
        let rows = doc.scheme.ktable().rows();
        put_u32(ktable, rows.len() as u32);
        for row in rows {
            put_u64(ktable, row.global);
            put_u64(ktable, row.local);
            put_u64(ktable, row.fanout);
        }
    });

    section(&mut body, SEC_NAMES, |section| {
        put_u32(section, names.len() as u32);
        for &name in &names {
            put_str(section, doc.doc.name_text(name));
        }
    });

    Ok(body)
}

// The unit tests below frame document bodies by hand through these two.
#[cfg(test)]
fn encode_doc_body(doc: &DocView<'_>) -> Vec<u8> {
    encode_body(doc).expect("test documents encode")
}

#[cfg(test)]
fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    section(out, tag, |out| out.extend_from_slice(payload));
}

/// Serializes a whole snapshot file into memory.
fn encode_snapshot(generation: u64, docs: &[DocView<'_>]) -> io::Result<Vec<u8>> {
    let bodies = docs
        .iter()
        .map(|v| encode_body(v).map(|body| (v.id, body)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    Ok(lay_out(generation, &bodies))
}

/// Header, directory and `(doc_id, body)` bodies, as one file image.
fn lay_out<B: AsRef<[u8]>>(generation: u64, bodies: &[(u64, B)]) -> Vec<u8> {
    // Directory offsets are from the file start; the header region is
    // header + directory + trailing CRC.
    let header_region = 8 + 4 + 8 + 4 + bodies.len() * 24 + 4;
    let total = header_region + bodies.iter().map(|(_, b)| b.as_ref().len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, generation);
    put_u32(&mut out, bodies.len() as u32);
    let mut offset = header_region as u64;
    for (id, body) in bodies {
        let len = body.as_ref().len() as u64;
        put_u64(&mut out, *id);
        put_u64(&mut out, offset);
        put_u64(&mut out, len);
        offset += len;
    }
    let header_crc = crc32(&out);
    put_u32(&mut out, header_crc);
    for (_, body) in bodies {
        out.extend_from_slice(body.as_ref());
    }
    out
}

/// Writes and atomically installs the snapshot for `generation` in `dir`.
pub fn write_snapshot(dir: &Path, generation: u64, docs: &[DocView<'_>]) -> io::Result<PathBuf> {
    write_snapshot_with(dir, generation, docs, &IoFaultPlan::new())
}

/// [`write_snapshot`] with an I/O fault plan (test hook). Operation
/// indices: 0 = the temp-file write, 1 = the temp-file fsync.
pub fn write_snapshot_with(
    dir: &Path,
    generation: u64,
    docs: &[DocView<'_>],
    faults: &IoFaultPlan,
) -> io::Result<PathBuf> {
    install_image(dir, generation, &encode_snapshot(generation, docs)?, faults)
}

/// Writes and atomically installs, as generation `generation`, a snapshot
/// of document bodies taken verified from another image
/// ([`SnapshotLoad::verified_bodies`]) — how a follower persists what it
/// was shipped without encoding the catalog it just decoded from them.
/// The bodies are framed exactly as [`write_snapshot`] frames the
/// documents they encode, so the file is the one it would have written.
pub fn write_snapshot_bodies(
    dir: &Path,
    generation: u64,
    bodies: &[(u64, &[u8])],
) -> io::Result<PathBuf> {
    install_image(dir, generation, &lay_out(generation, bodies), &IoFaultPlan::new())
}

/// The crash-atomic install of a whole image: temp file, fsync, rename
/// over the final name, fsync the directory.
fn install_image(
    dir: &Path,
    generation: u64,
    bytes: &[u8],
    faults: &IoFaultPlan,
) -> io::Result<PathBuf> {
    let final_path = dir.join(snapshot_file_name(generation));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(generation)));
    {
        let mut tmp = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp_path)?;
        match faults.fault_at(0) {
            Some(IoFault::TornWrite { at }) => {
                let cut = (*at).min(bytes.len());
                tmp.write_all(&bytes[..cut])?;
                tmp.flush()?;
                let _ = tmp.sync_data();
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected torn snapshot write after {cut} bytes"),
                ));
            }
            _ => tmp.write_all(bytes)?,
        }
        tmp.flush()?;
        if matches!(faults.fault_at(1), Some(IoFault::FailFsync)) {
            return Err(io::Error::other("injected snapshot fsync failure"));
        }
        tmp.sync_data()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// fsyncs a directory so a rename within it is durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_data()
}

/// A successfully read snapshot: the surviving documents plus what had to
/// be quarantined.
#[derive(Debug, Default)]
pub struct SnapshotLoad {
    /// Generation stamped in the header.
    pub generation: u64,
    /// Documents whose every section verified and cross-checked.
    pub docs: Vec<DocState>,
    /// `(doc_id, reason)` for documents that failed verification.
    pub quarantined: Vec<(u64, String)>,
    /// Where in the image each of [`SnapshotLoad::docs`] was decoded
    /// from: its verified body, index for index.
    pub bodies: Vec<Range<usize>>,
}

impl SnapshotLoad {
    /// The verified bodies of `image` (the bytes this load was read
    /// from) in id order, one per id — the last, when the directory
    /// repeats one, as installing [`SnapshotLoad::docs`] in order keeps
    /// the last — ready for [`write_snapshot_bodies`].
    pub fn verified_bodies<'a>(&self, image: &'a [u8]) -> Vec<(u64, &'a [u8])> {
        let by_id: BTreeMap<u64, &[u8]> =
            self.docs.iter().zip(&self.bodies).map(|(d, r)| (d.id, &image[r.clone()])).collect();
        by_id.into_iter().collect()
    }
}

/// Reads a snapshot file. `Err` means the file as a whole is unusable
/// (missing, bad magic/version, corrupt header/directory) and an older
/// generation should be tried; per-document damage is *not* an error —
/// those documents land in [`SnapshotLoad::quarantined`].
pub fn read_snapshot(path: &Path) -> Result<SnapshotLoad, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    read_snapshot_bytes(&data)
}

/// [`read_snapshot`] over an in-memory image — the follower side of a
/// replication snapshot bootstrap, where the file bytes arrived over the
/// wire instead of from local disk. Identical verification: header CRC
/// condemns the whole image, per-document section damage quarantines just
/// that document.
pub fn read_snapshot_bytes(data: &[u8]) -> Result<SnapshotLoad, String> {
    let mut r = Reader::new(data);
    let magic = r.take(8, "magic").map_err(|e| e.to_string())?;
    if magic != SNAPSHOT_MAGIC {
        return Err("bad magic: not a snapshot file".into());
    }
    let version = r.u32("version").map_err(|e| e.to_string())?;
    if version != SNAPSHOT_VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let generation = r.u64("generation").map_err(|e| e.to_string())?;
    let doc_count = r.u32("doc count").map_err(|e| e.to_string())? as usize;
    if doc_count > data.len() / 24 {
        // More directory entries than could possibly fit: corrupt count.
        return Err(format!("implausible doc count {doc_count}"));
    }
    let mut directory = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        let id = r.u64("directory id").map_err(|e| e.to_string())?;
        let offset = r.u64("directory offset").map_err(|e| e.to_string())?;
        let len = r.u64("directory len").map_err(|e| e.to_string())?;
        directory.push((id, offset, len));
    }
    let header_len = 8 + 4 + 8 + 4 + doc_count * 24;
    let stored_crc = r.u32("header crc").map_err(|e| e.to_string())?;
    if crc32(&data[..header_len]) != stored_crc {
        return Err("header checksum mismatch".into());
    }

    let mut docs = Vec::new();
    let mut quarantined = Vec::new();
    let mut bodies = Vec::new();
    for (id, offset, len) in directory {
        let range = match usize::try_from(offset)
            .ok()
            .zip(usize::try_from(len).ok())
            .and_then(|(o, l)| Some(o..o.checked_add(l)?))
            .filter(|r| r.end <= data.len())
        {
            Some(r) => r,
            None => {
                quarantined.push((id, "directory entry points outside the file".into()));
                continue;
            }
        };
        match decode_doc_body(id, &data[range.clone()]) {
            Ok(doc) => {
                docs.push(doc);
                bodies.push(range);
            }
            Err(reason) => quarantined.push((id, reason)),
        }
    }
    Ok(SnapshotLoad { generation, docs, quarantined, bodies })
}

fn read_section<'a>(r: &mut Reader<'a>, want: u8, name: &str) -> Result<&'a [u8], String> {
    let tag = r.u8("section tag").map_err(|e| e.to_string())?;
    if tag != want {
        return Err(format!("expected {name} section (tag {want}), found tag {tag}"));
    }
    let len = r.u32("section len").map_err(|e| e.to_string())? as usize;
    let stored_crc = r.u32("section crc").map_err(|e| e.to_string())?;
    let payload = r.take(len, name).map_err(|e| e.to_string())?;
    if crc32(payload) != stored_crc {
        return Err(format!("{name} section checksum mismatch"));
    }
    Ok(payload)
}

fn decode_doc_body(id: u64, body: &[u8]) -> Result<DocState, String> {
    let mut r = Reader::new(body);
    let meta = read_section(&mut r, SEC_META, "meta")?;
    let tree = read_section(&mut r, SEC_TREE, "tree")?;
    let labels = read_section(&mut r, SEC_LABELS, "labels")?;
    let ktable = read_section(&mut r, SEC_KTABLE, "ktable")?;
    let names = read_section(&mut r, SEC_NAMES, "names")?;
    r.expect_end("document body").map_err(|e| e.to_string())?;
    decode_sections(id, meta, tree, labels, ktable, names).map_err(|e| e.to_string())
}

/// `count` records of `width` bytes that make up the rest of `r`.
fn records<'a>(
    r: &mut Reader<'a>,
    count: usize,
    width: usize,
    what: &str,
) -> Result<std::slice::ChunksExact<'a, u8>, CodecError> {
    let len = count
        .checked_mul(width)
        .ok_or_else(|| CodecError(format!("{what}: record count {count} overflows")))?;
    let bytes = r.take(len, what)?;
    r.expect_end(what)?;
    Ok(bytes.chunks_exact(width))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One document from its five checksum-verified section payloads.
fn decode_sections(
    id: u64,
    meta: &[u8],
    tree: &[u8],
    labels: &[u8],
    ktable: &[u8],
    names: &[u8],
) -> Result<DocState, CodecError> {
    let mut mr = Reader::new(meta);
    let path = mr.str("path")?;
    let config = codec::read_config(&mut mr)?;
    let with_store = mr.u8("with_store")? != 0;
    let kappa = mr.u64("kappa")?;
    mr.expect_end("meta section")?;

    // Every node but a few prolog or epilog ones carries a label, so the
    // label count (bounded by the section's length) sizes the arena.
    let mut lr = Reader::new(labels);
    let n_labels = lr.u32("label count")? as usize;
    let entries = records(&mut lr, n_labels, LABEL_ENTRY, "labels section")?;

    let doc = decode_tree(tree, n_labels + 16)?;
    // The decode created the nodes in preorder: index i is arena node i + 1.
    let nodes = doc.arena_len() - 1;

    let index = |entry: &[u8]| u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
    if let Some(idx) = entries.clone().map(index).find(|&idx| idx as usize >= nodes) {
        return Err(CodecError(format!(
            "label references preorder index {idx} beyond the tree ({nodes})"
        )));
    }
    let labels = entries.map(|entry| {
        let raw = entry[4..].try_into().expect("exact length");
        (NodeId::from_index(index(entry) as usize + 1), Ruid2::from_bytes(raw))
    });

    let mut kr = Reader::new(ktable);
    let n_rows = kr.u32("ktable row count")? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(1 + n_labels));
    for row in records(&mut kr, n_rows, KTABLE_ROW, "ktable section")? {
        rows.push(AreaEntry {
            global: u64_at(row, 0),
            local: u64_at(row, 8),
            fanout: u64_at(row, 16),
        });
    }
    // Written in global order; rows in any other order are sorted first,
    // so a repeated area shows as two neighbours.
    if !rows.windows(2).all(|w| w[0].global < w[1].global) {
        rows.sort_by_key(|row| row.global);
        if let Some(w) = rows.windows(2).find(|w| w[0].global == w[1].global) {
            return Err(CodecError(format!(
                "table K has duplicate rows for area {}",
                w[0].global
            )));
        }
    }

    // Cross-validate: the rebuilt interner must match the recorded
    // name-index metadata exactly (order and content).
    let mut nr = Reader::new(names);
    let n_names = nr.u32("name count")? as usize;
    let same = {
        let mut rebuilt = doc.names().iter().map(|(_, name)| name);
        let mut same = true;
        for _ in 0..n_names {
            same &= rebuilt.next() == Some(nr.str_ref("name")?);
        }
        same && rebuilt.next().is_none()
    };
    nr.expect_end("names section")?;
    if !same {
        return Err(CodecError("name index metadata does not match the rebuilt tree".into()));
    }

    let root = doc.root_element().unwrap_or_else(|| doc.root());
    let scheme = Ruid2Scheme::from_parts(&doc, root, kappa, KTable::from_rows(rows), config, labels)
        .map_err(|e| CodecError(format!("scheme restore: {e}")))?;
    Ok(DocState { id, path, config, with_store, doc, scheme })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(id: u64) -> DocState {
        let xml = "<?pi here?><site><regions><africa><item id=\"i1\"><name>x</name>\
                   </item></africa><asia/></regions><people><person id=\"p1\">\
                   <name>Ann</name></person>text</people></site>";
        DocState::build(
            id,
            format!("doc{id}.xml"),
            xml,
            ruid_core::PartitionConfig::by_depth(2),
            id % 2 == 0,
        )
        .unwrap()
    }

    #[test]
    fn snapshot_round_trips_whole_catalog() {
        let dir = crate::test_dir("snap_round_trip");
        let states = [sample_state(1), sample_state(2), sample_state(7)];
        let views: Vec<DocView<'_>> = states.iter().map(DocState::view).collect();
        let path = write_snapshot(&dir, 3, &views).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "snapshot-00000003.snap");

        let load = read_snapshot(&path).unwrap();
        assert_eq!(load.generation, 3);
        assert!(load.quarantined.is_empty());
        assert_eq!(load.docs.len(), 3);
        for (orig, restored) in states.iter().zip(&load.docs) {
            assert_eq!(restored.id, orig.id);
            assert_eq!(restored.path, orig.path);
            assert_eq!(restored.config, orig.config);
            assert_eq!(restored.with_store, orig.with_store);
            assert_eq!(
                crate::fingerprint::doc_fingerprint(&restored.doc, &restored.scheme),
                crate::fingerprint::doc_fingerprint(&orig.doc, &orig.scheme),
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        let dir = crate::test_dir("snap_flip");
        let states = [sample_state(1), sample_state(2)];
        let views: Vec<DocView<'_>> = states.iter().map(DocState::view).collect();
        let path = write_snapshot(&dir, 0, &views).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let clean_fps: Vec<u64> = read_snapshot(&path)
            .unwrap()
            .docs
            .iter()
            .map(|d| crate::fingerprint::doc_fingerprint(&d.doc, &d.scheme))
            .collect();

        let bad_path = dir.join("flipped.snap");
        // One flip per byte of the file: the result must be a whole-file
        // reject, a quarantine, or a doc that still verifies identical —
        // never a silently different catalog.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&bad_path, &bytes).unwrap();
            match read_snapshot(&bad_path) {
                Err(_) => {}
                Ok(load) => {
                    assert!(
                        load.docs.len() < states.len()
                            || load.docs.iter().zip(&clean_fps).all(|(d, fp)| {
                                crate::fingerprint::doc_fingerprint(&d.doc, &d.scheme) == *fp
                            }),
                        "flip at byte {i} produced a silently different catalog"
                    );
                    assert_eq!(load.docs.len() + load.quarantined.len(), states.len(),
                        "flip at byte {i}: docs neither loaded nor quarantined");
                }
            }
        }
    }

    #[test]
    fn quarantine_is_per_document() {
        let dir = crate::test_dir("snap_quarantine");
        let states = [sample_state(1), sample_state(2), sample_state(3)];
        let views: Vec<DocView<'_>> = states.iter().map(DocState::view).collect();
        let path = write_snapshot(&dir, 0, &views).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt one byte in the middle document's body: locate it via a
        // fresh encode of doc 1's body.
        let body0 = super::encode_doc_body(&views[0]);
        let body1 = super::encode_doc_body(&views[1]);
        let header_len = 8 + 4 + 8 + 4 + views.len() * 24 + 4;
        let target = header_len + body0.len() + body1.len() / 2;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let load = read_snapshot(&path).unwrap();
        assert_eq!(load.docs.iter().map(|d| d.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(load.quarantined.len(), 1);
        assert_eq!(load.quarantined[0].0, 2);
    }

    /// `body` with its Labels section's `(preorder index, label)` entries
    /// passed through `edit` and the section re-checksummed, so only the
    /// scheme restore can tell.
    fn with_labels_rewritten(body: &[u8], edit: impl Fn(&mut Vec<(u32, Ruid2)>)) -> Vec<u8> {
        let mut out = Vec::new();
        let mut r = Reader::new(body);
        while !r.is_empty() {
            let tag = r.u8("tag").unwrap();
            let len = r.u32("len").unwrap() as usize;
            r.u32("crc").unwrap();
            let payload = r.take(len, "payload").unwrap();
            if tag != SEC_LABELS {
                push_section(&mut out, tag, payload);
                continue;
            }
            let mut lr = Reader::new(payload);
            let count = lr.u32("count").unwrap();
            let mut entries: Vec<(u32, Ruid2)> = (0..count)
                .map(|_| {
                    let idx = lr.u32("idx").unwrap();
                    let raw = lr.take(Ruid2::ENCODED_LEN, "label").unwrap();
                    (idx, Ruid2::from_bytes(raw.try_into().unwrap()))
                })
                .collect();
            edit(&mut entries);
            let mut labels = Vec::new();
            put_u32(&mut labels, entries.len() as u32);
            for (idx, label) in &entries {
                put_u32(&mut labels, *idx);
                labels.extend_from_slice(&label.to_bytes());
            }
            push_section(&mut out, SEC_LABELS, &labels);
        }
        out
    }

    /// A checksummed snapshot whose labels no numbering could have issued
    /// — a node listed twice, or an attached node left unlabelled — is
    /// quarantined at recovery instead of served; its neighbour loads.
    #[test]
    fn inconsistent_labels_are_quarantined_at_recovery() {
        type Edit<'a> = &'a dyn Fn(&mut Vec<(u32, Ruid2)>);
        let states = [sample_state(1), sample_state(2)];
        let unchanged: Edit<'_> = &|_| {};
        let listed_twice: Edit<'_> = &|entries| {
            let &(idx, l) = entries.iter().find(|(_, l)| !l.is_root).unwrap();
            entries.push((idx, Ruid2::new(l.global, l.local + 1000, false)));
        };
        let unlabelled: Edit<'_> = &|entries| {
            let at = entries.iter().rposition(|(_, l)| !l.is_root).unwrap();
            entries.remove(at);
        };
        for (name, edit, reason) in [
            ("unchanged", unchanged, None),
            ("listed_twice", listed_twice, Some("listed twice")),
            ("unlabelled", unlabelled, Some("has no label")),
        ] {
            let dir = crate::test_dir(&format!("snap_labels_{name}"));
            let bodies = [
                (1, encode_doc_body(&states[0].view())),
                (2, with_labels_rewritten(&encode_doc_body(&states[1].view()), edit)),
            ];
            std::fs::write(dir.join(snapshot_file_name(1)), lay_out(1, &bodies)).unwrap();
            let r = crate::recovery::recover(&dir).unwrap();
            assert_eq!(r.report.snapshot_generation, Some(1), "{name}");
            let served: Vec<u64> = r.docs.iter().map(|d| d.id).collect();
            match reason {
                None => {
                    assert_eq!(served, vec![1, 2], "{name}");
                    assert!(r.report.quarantined.is_empty(), "{name}");
                }
                Some(reason) => {
                    assert_eq!(served, vec![1], "{name}: the bad document is not served");
                    let [(id, why)] = &r.report.quarantined[..] else {
                        panic!("{name}: {:?}", r.report.quarantined)
                    };
                    assert_eq!(*id, 2);
                    assert!(why.contains(reason), "{name}: {why}");
                }
            }
        }
    }

    #[test]
    fn torn_snapshot_write_leaves_no_snap_file() {
        let dir = crate::test_dir("snap_torn");
        let state = sample_state(1);
        let err = write_snapshot_with(
            &dir,
            0,
            &[state.view()],
            &IoFaultPlan::new().inject(0, IoFault::TornWrite { at: 40 }),
        );
        assert!(err.is_err());
        // The torn temp file must not shadow the final name: nothing to
        // recover from, which reads as an empty catalog, not a corrupt one.
        assert!(!dir.join(snapshot_file_name(0)).exists());
        let err = write_snapshot_with(
            &dir,
            0,
            &[state.view()],
            &IoFaultPlan::new().inject(1, IoFault::FailFsync),
        );
        assert!(err.is_err());
        assert!(!dir.join(snapshot_file_name(0)).exists());
    }

    #[test]
    fn file_name_parsing() {
        assert_eq!(snapshot_generation("snapshot-00000012.snap"), Some(12));
        assert_eq!(snapshot_generation("snapshot-00000012.snap.tmp"), None);
        assert_eq!(snapshot_generation("wal-00000012.log"), None);
        assert_eq!(wal_generation("wal-00000003.log"), Some(3));
        assert_eq!(wal_generation("snapshot-00000003.snap"), None);
    }
}
