//! WAL-shipping replication core.
//!
//! The paper's numbering makes replication almost free of coordination:
//! rUID labels and table K are deterministic functions of the mutation
//! history, so a follower that applies the same WAL records in the same
//! order serves byte-identical answers — the path summary, name index,
//! and order keys are all *derived* state, rebuilt locally, never
//! shipped. What this crate owns is the part that must be exactly right
//! on both ends of the wire and is independent of any transport:
//!
//! * [`HelloInfo`] / [`TailChunk`] — the payloads carried by the binary
//!   `REPL HELLO` and `REPL TAIL` verbs (little-endian, length-prefixed,
//!   versioned by the surrounding wire protocol).
//! * [`SegmentTailer`] — the follower's shipped-WAL state machine. It
//!   enforces the same contract as local recovery: contiguous sequence
//!   numbers from each segment's start, every CRC verified, segments
//!   consumed in chain order, and the first invalid byte poisons
//!   everything after it. A violation is a *refusal* (drop the stream,
//!   re-bootstrap), never a partial apply — a replica is either a prefix
//!   of the leader or it is rebuilding; there is no hybrid state.
//! * [`Backoff`] — bounded exponential reconnect backoff with
//!   deterministic SplitMix64 jitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use durable::{RecordStream, StreamStatus, WalOp};
use xmlgen::SplitMix64;

/// Cap on one shipped chunk's data, mirroring the wire layer's refusal
/// to decode absurd length prefixes. A `TailChunk` claiming more is
/// corruption, not data.
pub const MAX_CHUNK_BYTES: u32 = 1 << 26;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(format!("truncated {what}")),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn expect_end(&self, what: &str) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{what}: trailing bytes"))
        }
    }
}

/// The leader's answer to `REPL HELLO`: where its log currently stands
/// and which snapshot (if any) a bootstrap should start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// The live WAL segment's generation.
    pub generation: u64,
    /// Sequence number the leader's next record will get (records 0..seq
    /// of the live segment are committed).
    pub next_seq: u64,
    /// Newest installed snapshot generation, if one exists. Snapshot `g`
    /// pairs with segment `wal-g`: bootstrap = load snapshot `g`, then
    /// tail segments `g`, `g+1`, … in chain order.
    pub snapshot: Option<u64>,
}

impl HelloInfo {
    /// Serializes for the wire (snapshot encoded as present-flag + value).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        put_u64(&mut out, self.generation);
        put_u64(&mut out, self.next_seq);
        out.push(u8::from(self.snapshot.is_some()));
        put_u64(&mut out, self.snapshot.unwrap_or(0));
        out
    }

    /// Decodes a wire payload.
    pub fn decode(bytes: &[u8]) -> Result<HelloInfo, String> {
        let mut c = Cursor::new(bytes);
        let generation = c.u64("hello generation")?;
        let next_seq = c.u64("hello next_seq")?;
        let has_snapshot = c.u8("hello snapshot flag")? != 0;
        let snapshot_gen = c.u64("hello snapshot generation")?;
        c.expect_end("hello payload")?;
        Ok(HelloInfo {
            generation,
            next_seq,
            snapshot: has_snapshot.then_some(snapshot_gen),
        })
    }
}

/// One `REPL TAIL` answer: raw committed segment bytes plus the
/// coordinates a follower needs to validate continuity and compute lag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailChunk {
    /// Which segment the data belongs to.
    pub segment: u64,
    /// Byte offset within the segment where `data` starts.
    pub start_offset: u64,
    /// Committed length of the segment: the file length for a sealed
    /// segment, the committed-bytes watermark for the live one.
    pub segment_len: u64,
    /// True when the segment is sealed (a newer segment exists); its
    /// `segment_len` is final and the follower advances to `segment + 1`
    /// after consuming it.
    pub sealed: bool,
    /// The leader's live segment generation at answer time.
    pub leader_generation: u64,
    /// The leader's live segment next-sequence at answer time.
    pub leader_seq: u64,
    /// Raw record bytes (possibly empty when the follower is caught up).
    pub data: Vec<u8>,
}

impl TailChunk {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(45 + self.data.len());
        put_u64(&mut out, self.segment);
        put_u64(&mut out, self.start_offset);
        put_u64(&mut out, self.segment_len);
        out.push(u8::from(self.sealed));
        put_u64(&mut out, self.leader_generation);
        put_u64(&mut out, self.leader_seq);
        put_u32(&mut out, u32::try_from(self.data.len()).expect("chunk exceeds u32"));
        out.extend_from_slice(&self.data);
        out
    }

    /// Decodes a wire payload, refusing implausible data lengths before
    /// any allocation.
    pub fn decode(bytes: &[u8]) -> Result<TailChunk, String> {
        let mut c = Cursor::new(bytes);
        let segment = c.u64("tail segment")?;
        let start_offset = c.u64("tail start offset")?;
        let segment_len = c.u64("tail segment len")?;
        let sealed = c.u8("tail sealed flag")? != 0;
        let leader_generation = c.u64("tail leader generation")?;
        let leader_seq = c.u64("tail leader seq")?;
        let data_len = c.u32("tail data len")?;
        if data_len > MAX_CHUNK_BYTES {
            return Err(format!("implausible tail chunk length {data_len}"));
        }
        let data = c.take(data_len as usize, "tail data")?.to_vec();
        c.expect_end("tail payload")?;
        Ok(TailChunk {
            segment,
            start_offset,
            segment_len,
            sealed,
            leader_generation,
            leader_seq,
            data,
        })
    }
}

/// Why a [`SegmentTailer`] dropped the stream. Every variant means the
/// same thing operationally: discard all buffered bytes and re-bootstrap
/// from the leader's newest snapshot. Nothing refused is ever applied.
#[derive(Debug, PartialEq, Eq)]
pub enum TailError {
    /// The shipped bytes failed record validation (sequence gap, bad
    /// checksum, implausible length, undecodable payload) — the wire
    /// equivalent of a torn or forged WAL tail.
    Refused(String),
    /// The chunk does not continue this tailer's position (wrong segment
    /// or wrong offset) — a protocol violation or a leader that lost the
    /// segment the follower was reading.
    Discontinuity(String),
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::Refused(r) => write!(f, "refused: {r}"),
            TailError::Discontinuity(r) => write!(f, "discontinuity: {r}"),
        }
    }
}

/// What one accepted chunk yielded.
#[derive(Debug, Default)]
pub struct TailBatch {
    /// Validated records, in order, ready to apply.
    pub records: Vec<(u64, WalOp)>,
    /// True when the tailer finished a sealed segment and moved to the
    /// next one in the chain.
    pub advanced_segment: bool,
    /// True when the follower has consumed every committed byte the
    /// leader reported — replication lag is zero as of this chunk.
    pub caught_up: bool,
}

/// The follower's shipped-segment state machine: one live segment at a
/// time, consumed strictly in chain order, records validated with
/// [`RecordStream`] (the same checks local recovery applies). The
/// follower asks the leader for bytes at [`SegmentTailer::segment`] /
/// [`SegmentTailer::offset`] and feeds each answer to
/// [`SegmentTailer::offer`].
#[derive(Debug)]
pub struct SegmentTailer {
    segment: u64,
    stream: RecordStream,
}

impl SegmentTailer {
    /// A tailer positioned at the start of `segment`.
    pub fn new(segment: u64) -> SegmentTailer {
        SegmentTailer { segment, stream: RecordStream::new(0) }
    }

    /// The segment currently being consumed.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// The offset within the current segment the next request should ask
    /// for: every shipped byte so far, whether decoded or still buffered
    /// as a partial record.
    pub fn offset(&self) -> u64 {
        self.stream.consumed() + self.stream.pending() as u64
    }

    /// Sequence number the next record of the current segment must carry.
    pub fn expected_seq(&self) -> u64 {
        self.stream.expected_seq()
    }

    /// Consumes one shipped chunk, returning the validated records it
    /// completed. On `Err` the stream is dead: the caller discards state
    /// and re-bootstraps.
    pub fn offer(&mut self, chunk: &TailChunk) -> Result<TailBatch, TailError> {
        if chunk.segment != self.segment {
            return Err(TailError::Discontinuity(format!(
                "chunk for segment {}, tailing segment {}",
                chunk.segment, self.segment
            )));
        }
        if chunk.start_offset != self.offset() {
            return Err(TailError::Discontinuity(format!(
                "chunk starts at offset {}, expected {}",
                chunk.start_offset,
                self.offset()
            )));
        }
        if chunk.leader_generation < chunk.segment {
            return Err(TailError::Discontinuity(format!(
                "leader claims generation {} while serving segment {}",
                chunk.leader_generation, chunk.segment
            )));
        }
        self.stream.feed(&chunk.data);
        let mut batch = TailBatch::default();
        loop {
            match self.stream.next_record() {
                StreamStatus::Record(seq, op) => batch.records.push((seq, op)),
                StreamStatus::NeedMore => break,
                StreamStatus::Refused(reason) => return Err(TailError::Refused(reason)),
            }
        }
        if self.offset() > chunk.segment_len {
            // More bytes than the leader claims are committed: a forged
            // or stale length. Never apply past the committed watermark.
            return Err(TailError::Refused(format!(
                "shipped {} bytes of segment {} but only {} are committed",
                self.offset(),
                self.segment,
                chunk.segment_len
            )));
        }
        if chunk.sealed && self.offset() == chunk.segment_len {
            if self.stream.pending() > 0 {
                // A sealed segment that ends mid-record can never
                // complete; local recovery would truncate this tail, and
                // truncating a *sealed* segment means the chain is damaged.
                return Err(TailError::Refused(format!(
                    "sealed segment {} ends mid-record ({} dangling bytes)",
                    self.segment,
                    self.stream.pending()
                )));
            }
            self.segment += 1;
            self.stream = RecordStream::new(0);
            batch.advanced_segment = true;
        }
        batch.caught_up = !batch.advanced_segment
            && self.segment == chunk.leader_generation
            && self.offset() >= chunk.segment_len;
        Ok(batch)
    }
}

/// Bounded exponential backoff with deterministic jitter: delay `n` is
/// uniform in `[half, full]` where `full = min(base << n, max)` — the
/// jitter decorrelates a herd of reconnecting followers while a seed
/// keeps every test run identical.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    max_ms: u64,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A backoff starting at `base_ms` and capped at `max_ms`.
    pub fn new(base_ms: u64, max_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            max_ms: max_ms.max(base_ms.max(1)),
            attempt: 0,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// The next delay; each call escalates until the cap.
    pub fn next_delay(&mut self) -> Duration {
        let full = self
            .base_ms
            .checked_shl(self.attempt)
            .map_or(self.max_ms, |v| v.min(self.max_ms));
        self.attempt = self.attempt.saturating_add(1);
        let half = (full / 2).max(1);
        let jitter = self.rng.gen_range(0..=full - half);
        Duration::from_millis(half + jitter)
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Resets to the base delay after a successful connection.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_and_chunk_round_trip() {
        for info in [
            HelloInfo { generation: 0, next_seq: 0, snapshot: None },
            HelloInfo { generation: 7, next_seq: 123, snapshot: Some(6) },
        ] {
            assert_eq!(HelloInfo::decode(&info.encode()).unwrap(), info);
        }
        let chunk = TailChunk {
            segment: 3,
            start_offset: 128,
            segment_len: 4096,
            sealed: true,
            leader_generation: 5,
            leader_seq: 42,
            data: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(TailChunk::decode(&chunk.encode()).unwrap(), chunk);
        assert!(HelloInfo::decode(&[1, 2]).is_err());
        assert!(TailChunk::decode(&chunk.encode()[..10]).is_err());
        let mut forged = chunk.encode();
        let len_at = 8 + 8 + 8 + 1 + 8 + 8;
        forged[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = TailChunk::decode(&forged).unwrap_err();
        assert!(err.contains("implausible"), "{err}");
    }

    #[test]
    fn backoff_escalates_within_bounds_and_resets() {
        let mut b = Backoff::new(10, 1000, 42);
        let mut last_full = 0u64;
        for i in 0..12 {
            let full = (10u64.checked_shl(i).unwrap_or(u64::MAX)).min(1000);
            let d = b.next_delay().as_millis() as u64;
            assert!(d >= (full / 2).max(1) && d <= full, "attempt {i}: {d} vs full {full}");
            assert!(full >= last_full);
            last_full = full;
        }
        assert_eq!(b.attempt(), 12);
        b.reset();
        assert!(b.next_delay().as_millis() <= 10);
        // Determinism: same seed, same schedule.
        let delays = |seed| {
            let mut b = Backoff::new(10, 1000, seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(delays(7), delays(7));
        assert_ne!(delays(7), delays(8));
    }
}
