//! The write-ahead log: length-prefixed, CRC'd, sequence-numbered records
//! of catalog mutations.
//!
//! Record layout (little-endian):
//!
//! ```text
//! [payload_len u32][seq u64][crc32 u32][payload ...]
//! ```
//!
//! The CRC covers `seq ‖ payload`, so neither a torn payload nor a record
//! spliced from another position can pass. Sequence numbers are contiguous
//! within a segment; a gap, a bad CRC, or a short record stops replay —
//! everything after the first invalid byte is a torn tail and is
//! truncated, which is exactly the crash-consistency contract: a mutation
//! either replays whole or never happened.
//!
//! The fsync policy trades durability for throughput the usual way:
//! [`FsyncPolicy::Always`] syncs every record, [`FsyncPolicy::EveryN`]
//! amortizes, [`FsyncPolicy::Never`] leaves it to the OS.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ruid_core::Ruid2;

use crate::codec::{put_str, put_u32, put_u64, put_u8, CodecError, NodeContent, Reader};
use crate::crc::Crc32;
use crate::fault::{IoFault, IoFaultPlan};

/// Fixed bytes before each record's payload.
pub const RECORD_HEADER_LEN: usize = 4 + 8 + 4;

/// Cap on a single record's payload — anything larger in a length prefix
/// is corruption, not data, and must not drive an allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// When the log file is forced to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record (full durability, slowest).
    Always,
    /// fsync after every `n` records (bounded loss window).
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or `every=<n>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every=").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!("bad fsync policy {other:?}: want always|never|every=<n>")),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// One logged catalog mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A document entered the catalog. Carries the full XML text so replay
    /// does not depend on the original file still existing (or still
    /// having the same content) at recovery time.
    Load {
        /// Catalog id assigned to the document.
        doc_id: u64,
        /// Origin path (reporting only; never re-read).
        path: String,
        /// Partition policy the numbering was built with.
        config: ruid_core::PartitionConfig,
        /// Whether a node store accompanies the document.
        with_store: bool,
        /// The document text.
        xml: String,
    },
    /// A document left the catalog.
    Unload {
        /// Catalog id of the unloaded document.
        doc_id: u64,
    },
    /// A structural insert (`core::update::on_insert`): a new node under
    /// `parent` at child index `position`.
    Insert {
        /// Catalog id of the mutated document.
        doc_id: u64,
        /// rUID of the parent node.
        parent: Ruid2,
        /// 0-based child slot the node was inserted at.
        position: u32,
        /// The inserted node.
        content: NodeContent,
    },
    /// A structural delete (`core::update::on_delete`) of the subtree at
    /// `label`.
    Delete {
        /// Catalog id of the mutated document.
        doc_id: u64,
        /// rUID of the removed subtree's root.
        label: Ruid2,
    },
    /// A full relabel with the stored policy (`Ruid2Scheme::repartition`).
    Repartition {
        /// Catalog id of the relabelled document.
        doc_id: u64,
    },
    /// A document entered the catalog from an interval-encoded flat event
    /// stream (`LOADSTREAM`). Carries the event text so replay rebuilds
    /// the identical tree without any XML materialization.
    LoadStream {
        /// Catalog id assigned to the document.
        doc_id: u64,
        /// Display name (reporting only).
        path: String,
        /// Partition policy the numbering was built with.
        config: ruid_core::PartitionConfig,
        /// Whether a node store accompanies the document.
        with_store: bool,
        /// The whitespace-separated `start:end:content` event tokens.
        events: String,
    },
}

impl WalOp {
    /// The catalog id this op concerns.
    pub fn doc_id(&self) -> u64 {
        match self {
            WalOp::Load { doc_id, .. }
            | WalOp::Unload { doc_id }
            | WalOp::Insert { doc_id, .. }
            | WalOp::Delete { doc_id, .. }
            | WalOp::Repartition { doc_id }
            | WalOp::LoadStream { doc_id, .. } => *doc_id,
        }
    }

    /// Serializes this op into a record payload (the bytes the CRC and
    /// length prefix cover). Public so the replication layer can frame
    /// records for shipping tests; real segments are written by
    /// [`WalWriter::append`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalOp::Load { doc_id, path, config, with_store, xml } => {
                put_u8(&mut out, 0);
                put_u64(&mut out, *doc_id);
                put_str(&mut out, path);
                crate::codec::put_config(&mut out, config);
                put_u8(&mut out, u8::from(*with_store));
                put_str(&mut out, xml);
            }
            WalOp::Unload { doc_id } => {
                put_u8(&mut out, 1);
                put_u64(&mut out, *doc_id);
            }
            WalOp::Insert { doc_id, parent, position, content } => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *doc_id);
                out.extend_from_slice(&parent.to_bytes());
                put_u32(&mut out, *position);
                content.encode(&mut out);
            }
            WalOp::Delete { doc_id, label } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *doc_id);
                out.extend_from_slice(&label.to_bytes());
            }
            WalOp::Repartition { doc_id } => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *doc_id);
            }
            WalOp::LoadStream { doc_id, path, config, with_store, events } => {
                put_u8(&mut out, 5);
                put_u64(&mut out, *doc_id);
                put_str(&mut out, path);
                crate::codec::put_config(&mut out, config);
                put_u8(&mut out, u8::from(*with_store));
                put_str(&mut out, events);
            }
        }
        out
    }

    /// Decodes one record payload (inverse of [`WalOp::encode`]).
    pub fn decode(payload: &[u8]) -> Result<WalOp, CodecError> {
        let mut r = Reader::new(payload);
        let op = match r.u8("wal op tag")? {
            0 => WalOp::Load {
                doc_id: r.u64("doc id")?,
                path: r.str("path")?,
                config: crate::codec::read_config(&mut r)?,
                with_store: r.u8("with_store")? != 0,
                xml: r.str("xml text")?,
            },
            1 => WalOp::Unload { doc_id: r.u64("doc id")? },
            2 => WalOp::Insert {
                doc_id: r.u64("doc id")?,
                parent: read_label(&mut r)?,
                position: r.u32("position")?,
                content: NodeContent::decode(&mut r)?,
            },
            3 => WalOp::Delete { doc_id: r.u64("doc id")?, label: read_label(&mut r)? },
            4 => WalOp::Repartition { doc_id: r.u64("doc id")? },
            5 => WalOp::LoadStream {
                doc_id: r.u64("doc id")?,
                path: r.str("path")?,
                config: crate::codec::read_config(&mut r)?,
                with_store: r.u8("with_store")? != 0,
                events: r.str("event stream")?,
            },
            other => return Err(CodecError(format!("unknown wal op tag {other}"))),
        };
        r.expect_end("wal record payload")?;
        Ok(op)
    }
}

fn read_label(r: &mut Reader<'_>) -> Result<Ruid2, CodecError> {
    let bytes: [u8; Ruid2::ENCODED_LEN] =
        r.take(Ruid2::ENCODED_LEN, "ruid label")?.try_into().expect("exact length");
    Ok(Ruid2::from_bytes(&bytes))
}

/// The WAL segment file name for generation `generation`.
pub fn wal_file_name(generation: u64) -> String {
    format!("wal-{generation:08}.log")
}

/// Frames one record exactly as [`WalWriter::append`] writes it:
/// `[payload_len u32][seq u64][crc32(seq ‖ payload) u32][payload]`.
pub fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let payload = op.encode();
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    put_u32(&mut record, payload.len() as u32);
    put_u64(&mut record, seq);
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(&payload);
    put_u32(&mut record, crc.finish());
    record.extend_from_slice(&payload);
    record
}

/// What one [`RecordStream::next_record`] call found.
#[derive(Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// A whole valid record, in sequence.
    Record(u64, WalOp),
    /// Not enough buffered bytes for the next record yet.
    NeedMore,
    /// The buffered bytes cannot be a continuation of this segment — a
    /// sequence gap, an implausible length, a checksum mismatch, or an
    /// undecodable payload. Nothing at or past this point may be applied;
    /// the reason says which check tripped.
    Refused(String),
}

/// The one WAL record decoder: incremental over a segment arriving in
/// arbitrary chunks (replication shipping), and run by [`read_wal`] over
/// a whole file. Records must carry contiguous sequence numbers from the
/// segment's start, every CRC must verify, and the first invalid byte
/// poisons everything after it. A refusal is surfaced as
/// [`StreamStatus::Refused`] so a follower can drop the stream instead of
/// silently truncating bytes a leader claims are committed; `read_wal`
/// takes it as the start of a torn tail.
#[derive(Debug, Default)]
pub struct RecordStream {
    buf: Vec<u8>,
    /// Offset in `buf` of the first undecoded byte. Decoding a record
    /// only moves it; `feed` compacts once per chunk, so a chunk of many
    /// small records costs one pass, not one memmove per record.
    pos: usize,
    consumed: u64,
    expected_seq: u64,
    refused: Option<String>,
}

impl RecordStream {
    /// An empty stream positioned at a segment's first record. The first
    /// record must carry `first_seq` (0 for a fresh segment; a resumed
    /// mid-segment tail passes the next expected sequence number).
    pub fn new(first_seq: u64) -> RecordStream {
        RecordStream { expected_seq: first_seq, ..RecordStream::default() }
    }

    /// Appends shipped bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fully decoded and drained so far — the offset of the next
    /// undecoded byte from where this stream started.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes buffered but not yet decodable into a whole record.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Sequence number the next record must carry.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }

    /// Attempts to decode the next record off the buffer. Once this
    /// returns [`StreamStatus::Refused`] it refuses forever; feeding more
    /// bytes cannot un-poison a stream.
    pub fn next_record(&mut self) -> StreamStatus {
        if let Some(reason) = &self.refused {
            return StreamStatus::Refused(reason.clone());
        }
        match decode_record(&self.buf[self.pos..], self.expected_seq) {
            Ok(None) => StreamStatus::NeedMore,
            Ok(Some((len, seq, op))) => {
                self.pos += len;
                self.consumed += len as u64;
                self.expected_seq += 1;
                StreamStatus::Record(seq, op)
            }
            Err(reason) => {
                self.refused = Some(reason.clone());
                StreamStatus::Refused(reason)
            }
        }
    }
}

/// Decodes the record at the start of `bytes`, which must carry
/// `expected_seq`: `Ok(None)` while `bytes` holds only part of it,
/// `Ok(Some((record_len, seq, op)))` once it is whole, and `Err` naming
/// the check that tripped when it cannot be a valid record at all.
fn decode_record(bytes: &[u8], expected_seq: u64) -> Result<Option<(usize, u64, WalOp)>, String> {
    let Some(header) = bytes.get(..RECORD_HEADER_LEN) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(format!("implausible record length {len}"));
    }
    if seq != expected_seq {
        return Err(format!("sequence gap: expected {expected_seq}, record carries {seq}"));
    }
    let end = RECORD_HEADER_LEN + len as usize;
    let Some(payload) = bytes.get(RECORD_HEADER_LEN..end) else {
        return Ok(None);
    };
    let mut check = Crc32::new();
    check.update(&seq.to_le_bytes());
    check.update(payload);
    if check.finish() != crc {
        return Err(format!("checksum mismatch on record {seq}"));
    }
    let op = WalOp::decode(payload).map_err(|e| format!("record {seq} payload: {e}"))?;
    Ok(Some((end, seq, op)))
}

/// Reads `[offset, offset + max_len)` of a segment file, clamped to the
/// file's current length — the leader-side chunk read behind `REPL TAIL`.
/// The caller bounds the read to *committed* bytes; this function only
/// bounds it to existing ones. A missing file is an error here (unlike
/// [`read_wal`]): a follower asking for a segment the leader no longer
/// has must find out, not receive an empty chunk it would mistake for
/// "caught up".
pub fn read_segment(path: &Path, offset: u64, max_len: usize) -> io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    if offset >= len {
        return Ok(Vec::new());
    }
    f.seek(SeekFrom::Start(offset))?;
    let want = usize::try_from(len - offset).unwrap_or(usize::MAX).min(max_len);
    let mut out = vec![0u8; want];
    f.read_exact(&mut out)?;
    Ok(out)
}

/// An appender over one WAL segment.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    records: u64,
    bytes: u64,
    fsyncs: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    append_ns: u64,
    fsync_ns: u64,
    faults: IoFaultPlan,
    io_ops: u64,
}

impl WalWriter {
    /// Creates (or truncates) the segment for `generation` inside `dir`.
    pub fn create(dir: &Path, generation: u64, policy: FsyncPolicy) -> io::Result<WalWriter> {
        let path = dir.join(wal_file_name(generation));
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Ok(WalWriter {
            file,
            path,
            next_seq: 0,
            records: 0,
            bytes: 0,
            fsyncs: 0,
            policy,
            unsynced: 0,
            append_ns: 0,
            fsync_ns: 0,
            faults: IoFaultPlan::new(),
            io_ops: 0,
        })
    }

    /// Reopens an existing segment for appending after recovery: the file
    /// is truncated to `valid_bytes` (dropping any torn tail) and the next
    /// record gets sequence number `next_seq`.
    pub fn resume(
        dir: &Path,
        generation: u64,
        valid_bytes: u64,
        next_seq: u64,
        policy: FsyncPolicy,
    ) -> io::Result<WalWriter> {
        let path = dir.join(wal_file_name(generation));
        // Not `truncate(true)`: the tail past `valid_bytes` is dropped by
        // the explicit `set_len` below, everything before it is kept.
        let file = OpenOptions::new().create(true).truncate(false).write(true).open(&path)?;
        file.set_len(valid_bytes)?;
        let mut w = WalWriter {
            file,
            path,
            next_seq,
            records: next_seq,
            bytes: valid_bytes,
            fsyncs: 0,
            policy,
            unsynced: 0,
            append_ns: 0,
            fsync_ns: 0,
            faults: IoFaultPlan::new(),
            io_ops: 0,
        };
        w.file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(w)
    }

    /// Arms a deterministic I/O fault plan (test hook). Indices count
    /// record appends on this writer.
    pub fn set_fault_plan(&mut self, plan: IoFaultPlan) {
        self.faults = plan;
    }

    /// Appends one op. Returns the record's sequence number. On an
    /// injected torn write the torn prefix *is* persisted (that is the
    /// point) and the call errors; the writer must not be reused after an
    /// error without re-running recovery.
    pub fn append(&mut self, op: &WalOp) -> io::Result<u64> {
        let seq = self.next_seq;
        let record = encode_record(seq, op);

        let fault = self.faults.fault_at(self.io_ops).cloned();
        self.io_ops += 1;
        match fault {
            Some(IoFault::TornWrite { at }) => {
                let cut = at.min(record.len());
                self.file.write_all(&record[..cut])?;
                self.file.flush()?;
                // Make the torn prefix durable so the test's recovery pass
                // observes exactly this prefix.
                let _ = self.file.sync_data();
                self.bytes += cut as u64;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected torn write after {cut} bytes"),
                ));
            }
            Some(IoFault::FailFsync) => {
                self.file.write_all(&record)?;
                self.file.flush()?;
                self.bytes += record.len() as u64;
                self.next_seq += 1;
                self.records += 1;
                return Err(io::Error::other("injected fsync failure"));
            }
            Some(IoFault::ShortRead { .. }) | None => {}
        }

        let started = std::time::Instant::now();
        self.file.write_all(&record)?;
        self.append_ns += started.elapsed().as_nanos() as u64;
        self.bytes += record.len() as u64;
        self.next_seq += 1;
        self.records += 1;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Forces everything written so far to disk (the `PERSIST` verb).
    pub fn sync(&mut self) -> io::Result<()> {
        let started = std::time::Instant::now();
        self.file.flush()?;
        self.file.sync_data()?;
        self.fsync_ns += started.elapsed().as_nanos() as u64;
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended so far (including resumed ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes in the segment.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// fsyncs issued by this writer.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Records appended since the last fsync (the at-risk window under
    /// `EveryN`/`Never` policies).
    pub fn unsynced_records(&self) -> u32 {
        self.unsynced
    }

    /// Total nanoseconds spent in record writes (excluding fsync).
    pub fn append_ns(&self) -> u64 {
        self.append_ns
    }

    /// Total nanoseconds spent in fsync (flush + sync_data).
    pub fn fsync_ns(&self) -> u64 {
        self.fsync_ns
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What replaying one segment found.
#[derive(Debug)]
pub struct WalReadResult {
    /// The valid records, in order.
    pub ops: Vec<(u64, WalOp)>,
    /// Bytes of the file occupied by valid records — the resume point.
    pub valid_bytes: u64,
    /// Bytes past the last valid record (a torn tail), 0 when clean.
    pub torn_bytes: u64,
    /// Sequence number the next appended record should get.
    pub next_seq: u64,
}

/// Reads a WAL segment, stopping at the first torn or invalid record.
///
/// A missing file reads as an empty segment (a crash can land between
/// creating the directory and the first append). `faults` lets tests
/// inject a short read; index 0 is the single whole-file read.
pub fn read_wal(path: &Path, faults: &IoFaultPlan) -> io::Result<WalReadResult> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    if let Some(IoFault::ShortRead { len }) = faults.fault_at(0) {
        data.truncate(*len);
    }

    let mut stream = RecordStream { buf: data, ..RecordStream::new(0) };
    let mut ops = Vec::new();
    while let StreamStatus::Record(seq, op) = stream.next_record() {
        ops.push((seq, op));
    }
    // Whatever did not decode is a torn or invalid tail: reported, never
    // applied.
    Ok(WalReadResult {
        ops,
        valid_bytes: stream.consumed(),
        torn_bytes: stream.pending() as u64,
        next_seq: stream.expected_seq(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruid_core::PartitionConfig;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Load {
                doc_id: 1,
                path: "a.xml".into(),
                config: PartitionConfig::by_depth(3),
                with_store: true,
                xml: "<a><b/></a>".into(),
            },
            WalOp::Insert {
                doc_id: 1,
                parent: Ruid2::TREE_ROOT,
                position: 1,
                content: NodeContent::Element {
                    name: "c".into(),
                    attributes: vec![("k".into(), "v".into())],
                },
            },
            WalOp::Delete { doc_id: 1, label: Ruid2::new(1, 2, false) },
            WalOp::Repartition { doc_id: 1 },
            WalOp::Unload { doc_id: 1 },
        ]
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = crate::test_dir("wal_round_trip");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        assert_eq!(w.records(), 5);
        assert!(w.fsyncs() >= 5);
        let r = read_wal(w.path(), &IoFaultPlan::new()).unwrap();
        assert_eq!(r.ops.iter().map(|(_, op)| op.clone()).collect::<Vec<_>>(), sample_ops());
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.next_seq, 5);
        assert_eq!(r.valid_bytes, w.bytes());
    }

    #[test]
    fn missing_segment_reads_empty() {
        let dir = crate::test_dir("wal_missing");
        let r = read_wal(&dir.join(wal_file_name(0)), &IoFaultPlan::new()).unwrap();
        assert!(r.ops.is_empty());
        assert_eq!((r.valid_bytes, r.torn_bytes, r.next_seq), (0, 0, 0));
    }

    #[test]
    fn every_truncation_yields_a_record_prefix() {
        let dir = crate::test_dir("wal_truncate");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
        let ops = sample_ops();
        let mut boundaries = vec![0u64];
        for op in &ops {
            w.append(op).unwrap();
            boundaries.push(w.bytes());
        }
        w.sync().unwrap();
        let full = std::fs::read(w.path()).unwrap();
        for cut in 0..=full.len() {
            let path = dir.join("cut.log");
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = read_wal(&path, &IoFaultPlan::new()).unwrap();
            // The number of surviving records is the number of whole
            // record boundaries at or below the cut.
            let want = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(r.ops.len(), want, "cut at {cut}");
            assert_eq!(r.valid_bytes, boundaries[want], "cut at {cut}");
            assert_eq!(r.torn_bytes, cut as u64 - boundaries[want]);
            for (i, (seq, op)) in r.ops.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(op, &ops[i]);
            }
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_that_record() {
        let dir = crate::test_dir("wal_corrupt");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
        let ops = sample_ops();
        let mut boundaries = vec![0u64];
        for op in &ops {
            w.append(op).unwrap();
            boundaries.push(w.bytes());
        }
        w.sync().unwrap();
        let full = std::fs::read(w.path()).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            let path = dir.join("bad.log");
            std::fs::write(&path, &bad).unwrap();
            let r = read_wal(&path, &IoFaultPlan::new()).unwrap();
            // Replay must stop no later than the record holding byte i.
            let record_of_byte = boundaries.iter().filter(|&&b| b <= i as u64).count() - 1;
            assert!(r.ops.len() <= record_of_byte, "byte {i}");
            for (j, (_, op)) in r.ops.iter().enumerate() {
                assert_eq!(op, &ops[j], "byte {i}: surviving prefix must be untouched");
            }
        }
    }

    #[test]
    fn resume_truncates_torn_tail_and_continues() {
        let dir = crate::test_dir("wal_resume");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        let ops = sample_ops();
        w.append(&ops[0]).unwrap();
        w.append(&ops[1]).unwrap();
        let keep = w.bytes();
        // Simulate a torn third record.
        w.append(&ops[2]).unwrap();
        let path = w.path().to_path_buf();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..keep as usize + 7]).unwrap();

        let r = read_wal(&path, &IoFaultPlan::new()).unwrap();
        assert_eq!(r.ops.len(), 2);
        assert_eq!(r.torn_bytes, 7);
        let mut w =
            WalWriter::resume(&dir, 0, r.valid_bytes, r.next_seq, FsyncPolicy::Always).unwrap();
        w.append(&ops[3]).unwrap();
        let r2 = read_wal(&path, &IoFaultPlan::new()).unwrap();
        assert_eq!(
            r2.ops.iter().map(|(_, op)| op.clone()).collect::<Vec<_>>(),
            vec![ops[0].clone(), ops[1].clone(), ops[3].clone()]
        );
        assert_eq!(r2.next_seq, 3);
        assert_eq!(r2.torn_bytes, 0);
    }

    #[test]
    fn injected_faults_behave_as_documented() {
        let dir = crate::test_dir("wal_faults");
        // Torn write: prefix persisted, call errors, reader sees old state.
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        let ops = sample_ops();
        w.append(&ops[0]).unwrap();
        w.set_fault_plan(IoFaultPlan::new().inject(1, IoFault::TornWrite { at: 9 }));
        assert!(w.append(&ops[1]).is_err());
        let r = read_wal(w.path(), &IoFaultPlan::new()).unwrap();
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.torn_bytes, 9);

        // Failed fsync: record is written (may survive) but error surfaces.
        let mut w = WalWriter::create(&dir, 1, FsyncPolicy::Always).unwrap();
        w.set_fault_plan(IoFaultPlan::new().inject(0, IoFault::FailFsync));
        assert!(w.append(&ops[0]).is_err());

        // Short read: reader sees only a prefix, still parses cleanly.
        let mut w = WalWriter::create(&dir, 2, FsyncPolicy::Always).unwrap();
        w.append(&ops[0]).unwrap();
        w.append(&ops[1]).unwrap();
        let r = read_wal(
            w.path(),
            &IoFaultPlan::new().inject(0, IoFault::ShortRead { len: 5 }),
        )
        .unwrap();
        assert!(r.ops.is_empty());
        assert_eq!(r.torn_bytes, 5);
    }

    #[test]
    fn record_stream_decodes_byte_at_a_time() {
        let ops = sample_ops();
        let mut wire = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            wire.extend_from_slice(&encode_record(seq as u64, op));
        }
        let mut stream = RecordStream::new(0);
        let mut got = Vec::new();
        for &b in &wire {
            stream.feed(&[b]);
            loop {
                match stream.next_record() {
                    StreamStatus::Record(seq, op) => got.push((seq, op)),
                    StreamStatus::NeedMore => break,
                    StreamStatus::Refused(r) => panic!("clean stream refused: {r}"),
                }
            }
        }
        assert_eq!(got.len(), ops.len());
        for (i, (seq, op)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(op, &ops[i]);
        }
        assert_eq!(stream.consumed(), wire.len() as u64);
        assert_eq!(stream.pending(), 0);
        assert_eq!(stream.expected_seq(), ops.len() as u64);
    }

    #[test]
    fn record_stream_refusals_are_sticky() {
        let ops = sample_ops();
        // Sequence gap: second record skips a number.
        let mut s = RecordStream::new(0);
        s.feed(&encode_record(0, &ops[0]));
        s.feed(&encode_record(2, &ops[1]));
        assert!(matches!(s.next_record(), StreamStatus::Record(0, _)));
        assert!(matches!(s.next_record(), StreamStatus::Refused(ref r) if r.contains("gap")));
        // Poisoned forever, even after feeding a valid continuation.
        s.feed(&encode_record(1, &ops[1]));
        assert!(matches!(s.next_record(), StreamStatus::Refused(_)));

        // A flipped payload byte trips the checksum.
        let mut corrupt = encode_record(0, &ops[0]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let mut s = RecordStream::new(0);
        s.feed(&corrupt);
        assert!(matches!(s.next_record(), StreamStatus::Refused(ref r) if r.contains("checksum")));

        // An implausible length prefix is refused before any allocation.
        let mut s = RecordStream::new(0);
        let mut junk = Vec::new();
        put_u32(&mut junk, MAX_PAYLOAD + 1);
        put_u64(&mut junk, 0);
        put_u32(&mut junk, 0);
        s.feed(&junk);
        assert!(matches!(s.next_record(), StreamStatus::Refused(ref r) if r.contains("length")));
    }

    /// `read_wal` and the shipping decoder are one decoder: every prefix
    /// and every single-byte corruption of a segment, fed whole, a byte at
    /// a time or in seeded random splits, decodes to the records,
    /// `consumed`, torn tail and next sequence number `read_wal` reports,
    /// and ends in the same status.
    #[test]
    fn stream_and_file_decoding_agree_on_every_cut_and_corruption() {
        let dir = crate::test_dir("wal_one_decoder");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        let full = std::fs::read(w.path()).unwrap();
        let mut segments: Vec<Vec<u8>> = (0..=full.len()).map(|cut| full[..cut].to_vec()).collect();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            segments.push(bad);
        }
        // SplitMix64 draws the random chunk lengths.
        let mut state = 0x5EED_0029_u64;
        let mut draw = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let path = dir.join("variant.log");
        for bytes in &segments {
            std::fs::write(&path, bytes).unwrap();
            let want = read_wal(&path, &IoFaultPlan::new()).unwrap();
            let mut random = Vec::new();
            let mut left = bytes.len();
            while left > 0 {
                let n = (draw() % 40 + 1).min(left as u64) as usize;
                random.push(n);
                left -= n;
            }
            let mut endings = Vec::new();
            for chunks in [vec![bytes.len()], vec![1; bytes.len()], random] {
                let mut stream = RecordStream::new(0);
                let mut got = Vec::new();
                let mut at = 0;
                for n in chunks {
                    stream.feed(&bytes[at..at + n]);
                    at += n;
                    while let StreamStatus::Record(seq, op) = stream.next_record() {
                        got.push((seq, op));
                    }
                }
                assert_eq!(got, want.ops);
                assert_eq!(stream.consumed(), want.valid_bytes);
                assert_eq!(stream.pending() as u64, want.torn_bytes);
                assert_eq!(stream.expected_seq(), want.next_seq);
                endings.push(stream.next_record());
            }
            assert!(endings.windows(2).all(|w| w[0] == w[1]), "{endings:?}");
        }
    }

    #[test]
    fn read_segment_clamps_and_errors_on_missing() {
        let dir = crate::test_dir("wal_read_segment");
        let mut w = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        for op in &sample_ops() {
            w.append(op).unwrap();
        }
        let full = std::fs::read(w.path()).unwrap();
        assert_eq!(read_segment(w.path(), 0, usize::MAX).unwrap(), full);
        assert_eq!(read_segment(w.path(), 3, 10).unwrap(), full[3..13]);
        assert_eq!(
            read_segment(w.path(), full.len() as u64 - 2, 100).unwrap(),
            full[full.len() - 2..]
        );
        assert!(read_segment(w.path(), full.len() as u64 + 5, 10).unwrap().is_empty());
        assert!(read_segment(&dir.join(wal_file_name(9)), 0, 10).is_err());
    }

    #[test]
    fn fsync_policy_counts() {
        let dir = crate::test_dir("wal_policy");
        let ops = sample_ops();
        let mut always = WalWriter::create(&dir, 0, FsyncPolicy::Always).unwrap();
        let mut every2 = WalWriter::create(&dir, 1, FsyncPolicy::EveryN(2)).unwrap();
        let mut never = WalWriter::create(&dir, 2, FsyncPolicy::Never).unwrap();
        for op in &ops {
            always.append(op).unwrap();
            every2.append(op).unwrap();
            never.append(op).unwrap();
        }
        assert_eq!(always.fsyncs(), 5);
        assert_eq!(every2.fsyncs(), 2);
        assert_eq!(never.fsyncs(), 0);
        assert_eq!(always.unsynced_records(), 0);
        assert_eq!(every2.unsynced_records(), 1); // 5 appends, synced at 2 and 4
        assert_eq!(never.unsynced_records(), 5);
        every2.sync().unwrap();
        assert_eq!(every2.unsynced_records(), 0);
        assert!(always.fsync_ns() > 0);
        assert!(always.append_ns() > 0);
    }
}
