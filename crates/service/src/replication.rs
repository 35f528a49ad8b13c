//! WAL-shipping replication: the leader-side `REPL` verb handlers and
//! the follower's tailing thread, glued to the transport-independent
//! [`repl`] crate.
//!
//! The model is poll-based: the follower drives everything over ordinary
//! binary-protocol request/response frames, so replication traffic rides
//! the same multiplexer, deadlines, metrics, and fault plan as client
//! traffic. A follower bootstraps from the leader's newest snapshot,
//! then tails the WAL chain segment by segment, validating every shipped
//! byte with the same [`durable::RecordStream`] checks local recovery
//! applies. Anything invalid — a sequence gap, a bad checksum, a forged
//! watermark — is a *refusal*: the follower discards its catalog and
//! re-bootstraps. A replica is either a prefix of the leader or it is
//! rebuilding; there is no hybrid state.
//!
//! Consistency argument (DESIGN.md §16): rUID labels and table K are
//! deterministic functions of the mutation history, so a follower that
//! applies the same WAL records in the same order answers every
//! label-rendering query byte-identically to the leader. The path
//! summary, name index, order keys and store are pure derivations of the
//! (document, scheme) pair and are rebuilt locally, never shipped.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use durable::{SnapshotLoad, WalOp};
use repl::{Backoff, HelloInfo, SegmentTailer, TailChunk};

use crate::client::BinaryClient;
use crate::persist::Durability;
use crate::proto::Request;
use crate::server::{commit, install_recovered, Shared};
use crate::wire::WireResponse;

/// Upper bound the follower asks for per `REPL TAIL` answer.
const TAIL_MAX_BYTES: u32 = 1 << 20;

/// Read/write deadline on the follower's replication connection — a
/// stalled leader must park the follower, not hang it forever.
const REPL_IO_TIMEOUT: Duration = Duration::from_secs(5);

const ROLE_LEADER: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

/// One follower's last reported position, kept by the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerAck {
    /// Segment generation the follower has applied through.
    pub generation: u64,
    /// Next sequence number the follower expects in that segment.
    pub seq: u64,
}

/// Shared replication state: the server's current role, the leader's
/// per-follower bookkeeping, the follower's lag gauges, and the counters
/// both `METRICS` and the Prometheus exposition render.
#[derive(Debug)]
pub struct ReplState {
    role: AtomicU8,
    leader_addr: Mutex<Option<String>>,
    promote_requested: AtomicBool,
    /// Armed by the mux when the fault plan schedules `Fault::ForgeSeq`;
    /// consumed by the next `REPL TAIL` answer, which corrupts the
    /// sequence field of the first shipped record.
    forge_next_tail: AtomicBool,
    // Leader side.
    chunks_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    snapshots_shipped: AtomicU64,
    acks_received: AtomicU64,
    followers: Mutex<BTreeMap<String, FollowerAck>>,
    // Follower side.
    records_applied: AtomicU64,
    bootstraps: AtomicU64,
    reconnects: AtomicU64,
    backoff_waits: AtomicU64,
    refusals: AtomicU64,
    quarantined: AtomicU64,
    promotions: AtomicU64,
    lag_records: AtomicU64,
    /// `Some(t)` while the follower is behind (lag became nonzero at
    /// `t`); `None` while caught up. Drives `ruid_repl_lag_seconds`.
    behind_since: Mutex<Option<Instant>>,
    last_bootstrap: Mutex<BootstrapPhases>,
}

/// Where the follower's last snapshot bootstrap spent its time, phase by
/// phase, in seconds (all zero before the first one; fetch and decode stay
/// zero when the leader had no snapshot to ship).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BootstrapPhases {
    /// Fetching the leader's snapshot image.
    pub fetch_s: f64,
    /// Verifying its checksums and decoding its documents.
    pub decode_s: f64,
    /// Installing them in the catalog, derived indexes included.
    pub install_s: f64,
    /// Persisting the shipped bodies as this node's own snapshot.
    pub persist_s: f64,
}

impl BootstrapPhases {
    /// `(phase, seconds)` in bootstrap order — the `phase` label values
    /// of `ruid_repl_bootstrap_seconds`.
    pub fn phases(&self) -> [(&'static str, f64); 4] {
        [
            ("fetch", self.fetch_s),
            ("decode", self.decode_s),
            ("install", self.install_s),
            ("persist", self.persist_s),
        ]
    }
}

/// A point-in-time copy of every replication counter and gauge, for the
/// Prometheus renderer.
#[derive(Debug, Clone)]
pub struct ReplSample {
    /// True when this process currently accepts writes.
    pub is_leader: bool,
    /// Chunks shipped by `REPL TAIL`.
    pub chunks_shipped: u64,
    /// Data bytes shipped by `REPL TAIL`.
    pub bytes_shipped: u64,
    /// Snapshot images shipped by `REPL SNAPSHOT`.
    pub snapshots_shipped: u64,
    /// `REPL ACK` frames received.
    pub acks_received: u64,
    /// Followers currently known to this leader.
    pub followers: u64,
    /// WAL records applied by the follower thread.
    pub records_applied: u64,
    /// Snapshot bootstraps the follower performed.
    pub bootstraps: u64,
    /// Reconnect attempts after a lost leader connection.
    pub reconnects: u64,
    /// Backoff sleeps taken between reconnect attempts.
    pub backoff_waits: u64,
    /// Shipped streams refused (gap / checksum / forged watermark).
    pub refusals: u64,
    /// Documents quarantined by the follower's apply path.
    pub quarantined: u64,
    /// Completed promotions (follower → leader).
    pub promotions: u64,
    /// Records the follower still trails the leader by, as of its last
    /// successful poll.
    pub lag_records: u64,
    /// Seconds the follower has continuously been behind (0 when caught
    /// up).
    pub lag_seconds: f64,
    /// Phase times of the follower's last snapshot bootstrap.
    pub last_bootstrap: BootstrapPhases,
}

impl ReplState {
    /// State for a process born as the leader.
    pub fn new_leader() -> ReplState {
        ReplState::new(ROLE_LEADER, None)
    }

    /// State for a process born following `leader`. The follower starts
    /// "behind": it has replicated nothing yet.
    pub fn new_follower(leader: String) -> ReplState {
        let state = ReplState::new(ROLE_FOLLOWER, Some(leader));
        *state.behind_since.lock().unwrap() = Some(Instant::now());
        state
    }

    fn new(role: u8, leader: Option<String>) -> ReplState {
        ReplState {
            role: AtomicU8::new(role),
            leader_addr: Mutex::new(leader),
            promote_requested: AtomicBool::new(false),
            forge_next_tail: AtomicBool::new(false),
            chunks_shipped: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            snapshots_shipped: AtomicU64::new(0),
            acks_received: AtomicU64::new(0),
            followers: Mutex::new(BTreeMap::new()),
            records_applied: AtomicU64::new(0),
            bootstraps: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            backoff_waits: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            lag_records: AtomicU64::new(0),
            behind_since: Mutex::new(None),
            last_bootstrap: Mutex::new(BootstrapPhases::default()),
        }
    }

    /// True while this process refuses writes and tails a leader.
    pub fn is_follower(&self) -> bool {
        self.role.load(Ordering::SeqCst) == ROLE_FOLLOWER
    }

    /// The leader address writes should be redirected to, while following.
    pub fn leader_addr(&self) -> Option<String> {
        if self.is_follower() {
            self.leader_addr.lock().unwrap().clone()
        } else {
            None
        }
    }

    /// Asks the follower thread to stop cleanly; the role flips to
    /// leader only once it has (see [`ReplState::complete_promotion`]).
    pub fn request_promotion(&self) {
        self.promote_requested.store(true, Ordering::SeqCst);
    }

    /// True once a promotion was requested (the follower thread's stop
    /// signal).
    pub fn promotion_requested(&self) -> bool {
        self.promote_requested.load(Ordering::SeqCst)
    }

    /// Flips the role to leader — called by the follower thread after it
    /// has stopped applying, so no shipped record can interleave with a
    /// post-promotion write.
    pub fn complete_promotion(&self) {
        self.role.store(ROLE_LEADER, Ordering::SeqCst);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.lag_records.store(0, Ordering::Relaxed);
        *self.behind_since.lock().unwrap() = None;
    }

    /// Arms the `ForgeSeq` fault for the next `REPL TAIL` answer.
    pub fn arm_forge(&self) {
        self.forge_next_tail.store(true, Ordering::SeqCst);
    }

    fn take_forge(&self) -> bool {
        self.forge_next_tail.swap(false, Ordering::SeqCst)
    }

    fn note_chunk(&self, bytes: usize) {
        self.chunks_shipped.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_snapshot_shipped(&self) {
        self.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ack(&self, follower: &str, generation: u64, seq: u64, bye: bool) {
        self.acks_received.fetch_add(1, Ordering::Relaxed);
        let mut followers = self.followers.lock().unwrap();
        if bye {
            followers.remove(follower);
        } else {
            followers.insert(follower.to_owned(), FollowerAck { generation, seq });
        }
    }

    pub(crate) fn note_applied(&self) {
        self.records_applied.fetch_add(1, Ordering::Relaxed);
    }

    fn note_bootstrap(&self) {
        self.bootstraps.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_bootstrap_phases(&self, phases: BootstrapPhases) {
        *self.last_bootstrap.lock().unwrap() = phases;
    }

    pub(crate) fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn note_backoff(&self) {
        self.backoff_waits.fetch_add(1, Ordering::Relaxed);
    }

    fn note_refusal(&self) {
        self.refusals.fetch_add(1, Ordering::Relaxed);
    }

    fn note_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_lag(&self, records: u64) {
        self.lag_records.store(records, Ordering::Relaxed);
        let mut behind = self.behind_since.lock().unwrap();
        if records == 0 {
            *behind = None;
        } else if behind.is_none() {
            *behind = Some(Instant::now());
        }
    }

    /// Seconds the follower has continuously been behind; 0 when caught
    /// up (or when leading).
    pub fn lag_seconds(&self) -> f64 {
        self.behind_since
            .lock()
            .unwrap()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Every counter and gauge at once, for the Prometheus renderer.
    pub fn sample(&self) -> ReplSample {
        ReplSample {
            is_leader: !self.is_follower(),
            chunks_shipped: self.chunks_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            snapshots_shipped: self.snapshots_shipped.load(Ordering::Relaxed),
            acks_received: self.acks_received.load(Ordering::Relaxed),
            followers: self.followers.lock().unwrap().len() as u64,
            records_applied: self.records_applied.load(Ordering::Relaxed),
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            backoff_waits: self.backoff_waits.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            lag_records: self.lag_records.load(Ordering::Relaxed),
            lag_seconds: self.lag_seconds(),
            last_bootstrap: *self.last_bootstrap.lock().unwrap(),
        }
    }

    /// The `key=value` block `METRICS` appends for replication.
    pub fn render_line(&self) -> String {
        let s = self.sample();
        format!(
            "repl_role={} repl_lag_records={} repl_lag_seconds={:.3} repl_applied={} \
             repl_bootstraps={} repl_reconnects={} repl_backoff_waits={} repl_refusals={} \
             repl_quarantined={} repl_promotions={} repl_chunks_shipped={} \
             repl_bytes_shipped={} repl_snapshots_shipped={} repl_acks={} repl_followers={} \
             repl_bootstrap_fetch_ms={:.1} repl_bootstrap_decode_ms={:.1} \
             repl_bootstrap_install_ms={:.1} repl_bootstrap_persist_ms={:.1}",
            if s.is_leader { "leader" } else { "follower" },
            s.lag_records,
            s.lag_seconds,
            s.records_applied,
            s.bootstraps,
            s.reconnects,
            s.backoff_waits,
            s.refusals,
            s.quarantined,
            s.promotions,
            s.chunks_shipped,
            s.bytes_shipped,
            s.snapshots_shipped,
            s.acks_received,
            s.followers,
            s.last_bootstrap.fetch_s * 1e3,
            s.last_bootstrap.decode_s * 1e3,
            s.last_bootstrap.install_s * 1e3,
            s.last_bootstrap.persist_s * 1e3,
        )
    }
}

fn durability(shared: &Shared) -> Result<&Durability, String> {
    shared
        .durability
        .as_deref()
        .ok_or_else(|| "replication requires durability (start the leader with --data-dir)".into())
}

/// `REPL HELLO`: where the leader's log stands and which snapshot a
/// bootstrap should start from.
pub(crate) fn handle_hello(shared: &Shared) -> Result<WireResponse, String> {
    let d = durability(shared)?;
    let (generation, next_seq, _committed) = d.wal_position();
    let info = HelloInfo { generation, next_seq, snapshot: d.newest_snapshot() };
    Ok(WireResponse::Blob(info.encode()))
}

/// `REPL SNAPSHOT`: the raw bytes of one snapshot file. The follower
/// validates them with the same checksummed reader local recovery uses.
pub(crate) fn handle_snapshot(shared: &Shared, generation: u64) -> Result<WireResponse, String> {
    let d = durability(shared)?;
    let path = d.dir().join(durable::snapshot_file_name(generation));
    let bytes = std::fs::read(&path)
        .map_err(|e| format!("snapshot {generation} unavailable: {e}"))?;
    shared.repl.note_snapshot_shipped();
    Ok(WireResponse::Blob(bytes))
}

/// `REPL TAIL`: committed bytes of one WAL segment, starting at the
/// follower's offset.
///
/// The leader's coordinates (live generation, next sequence, committed
/// watermark) are frozen in one mutex acquisition; the file read happens
/// outside it. That is safe because a sealed segment is immutable and
/// the live segment is only ever *appended* to — clamping the read to
/// the frozen watermark can never ship an uncommitted byte.
pub(crate) fn handle_tail(
    shared: &Shared,
    generation: u64,
    offset: u64,
    max_bytes: u32,
) -> Result<WireResponse, String> {
    let d = durability(shared)?;
    let (live_gen, next_seq, committed) = d.wal_position();
    if generation > live_gen {
        return Err(format!("segment {generation} not yet written (live segment is {live_gen})"));
    }
    let unavailable = |e: std::io::Error| format!("segment {generation} unavailable: {e}");
    let sealed = generation < live_gen;
    let path = d.dir().join(durable::wal_file_name(generation));
    let segment_len = if sealed {
        // A missing sealed segment means the chain was pruned past the
        // follower's position; it must re-bootstrap from the newest
        // snapshot.
        std::fs::metadata(&path).map_err(unavailable)?.len()
    } else {
        committed
    };
    let budget = max_bytes.min(repl::MAX_CHUNK_BYTES) as u64;
    let want = segment_len.saturating_sub(offset).min(budget);
    let mut data = if want == 0 {
        Vec::new()
    } else {
        durable::read_segment(&path, offset, want as usize).map_err(unavailable)?
    };
    if shared.repl.take_forge() && data.len() >= durable::wal::RECORD_HEADER_LEN {
        // Record layout: [len u32][seq u64][crc u32][payload] — flip the
        // sequence field of the first shipped record. The CRC covers
        // seq‖payload, so the follower sees it as corruption either way.
        for b in &mut data[4..12] {
            *b ^= 0xFF;
        }
    }
    shared.repl.note_chunk(data.len());
    let chunk = TailChunk {
        segment: generation,
        start_offset: offset,
        segment_len,
        sealed,
        leader_generation: live_gen,
        leader_seq: next_seq,
        data,
    };
    Ok(WireResponse::Blob(chunk.encode()))
}

/// Spawns the follower thread: connect → hello → snapshot bootstrap →
/// tail loop, with backoff reconnects, until shutdown or promotion. It
/// holds the same [`Shared`] as the front ends and writes the catalog
/// through the same [`commit`].
pub(crate) fn spawn_follower(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("ruid-follower".into())
        .spawn(move || run_follower(&shared))
        .expect("spawn follower thread")
}

/// Why one poll of the leader failed.
enum PollFail {
    /// The shipped stream is invalid (or the leader lost our segment):
    /// discard everything and re-bootstrap. Nothing refused was applied.
    Refused(String),
    /// The connection died or timed out: reconnect with backoff and
    /// re-bootstrap.
    Io(String),
}

fn stop_requested(shared: &Shared) -> bool {
    shared.shutdown.load(Ordering::SeqCst) || shared.repl.promotion_requested()
}

/// Sleeps up to `total`, waking early when shutdown or promotion is
/// requested — backoff must never outwait a `PROMOTE`.
fn interruptible_sleep(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop_requested(shared) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

fn wait_backoff(shared: &Shared, backoff: &mut Backoff) {
    shared.repl.note_backoff();
    interruptible_sleep(shared, backoff.next_delay());
}

fn io_fail(e: std::io::Error) -> PollFail {
    PollFail::Io(e.to_string())
}

/// One synchronous replication request expecting a `Blob` answer. An
/// `ERR` line is a refusal (the leader cannot serve our position); any
/// transport failure is an I/O failure.
fn request_blob(client: &mut BinaryClient, request: &Request) -> Result<Vec<u8>, PollFail> {
    let id = client.send(request).map_err(io_fail)?;
    client.flush().map_err(io_fail)?;
    let frame = client.recv().map_err(io_fail)?;
    if frame.id != id {
        return Err(PollFail::Io(format!("response id {} does not answer {id}", frame.id)));
    }
    match frame.response {
        WireResponse::Blob(bytes) => Ok(bytes),
        WireResponse::Line(line) => Err(PollFail::Refused(line)),
        WireResponse::Batch(_) => Err(PollFail::Refused("unexpected batch response".into())),
    }
}

/// Reports the follower's position to the leader (best-effort; `bye`
/// marks a clean detach so the leader drops us instead of timing out).
fn send_ack(
    client: &mut BinaryClient,
    tailer: &SegmentTailer,
    follower: &str,
    bye: bool,
) -> Result<(), PollFail> {
    let request = Request::ReplAck {
        generation: tailer.segment(),
        seq: tailer.expected_seq(),
        bye,
        follower: follower.to_owned(),
    };
    let id = client.send(&request).map_err(io_fail)?;
    client.flush().map_err(io_fail)?;
    let frame = client.recv().map_err(io_fail)?;
    if frame.id != id {
        return Err(PollFail::Io(format!("response id {} does not answer {id}", frame.id)));
    }
    Ok(())
}

/// Applies one shipped record through [`commit`], the path every local
/// write takes, keeping the leader's document id; with a data directory
/// the follower's own WAL records it, so a promoted follower recovers
/// like any leader. A per-document failure quarantines that document
/// (remove + purge its cached responses) without poisoning the stream —
/// exactly what local recovery does with a document whose replay fails.
fn apply_record(shared: &Shared, op: WalOp) {
    let doc_id = op.doc_id();
    if let Err(reason) = commit(shared, &mut None, op, true) {
        shared.catalog.remove(doc_id);
        shared.plan_cache.purge_doc(doc_id);
        shared.repl.note_quarantined();
        eprintln!("[ruid-follower] quarantined document {doc_id}: {reason}");
    }
    shared.repl.note_applied();
}

/// Bootstraps the catalog from the leader's newest snapshot: fetch the
/// raw image, validate it with the checksummed snapshot reader, swap the
/// whole catalog in through the install a restart uses, and (with local
/// durability) persist the verified bodies as our own snapshot. Each
/// phase is timed into [`ReplSample::last_bootstrap`]. Returns the WAL
/// segment to tail from, or `Ok(None)` when a stop/promotion arrived
/// mid-bootstrap — in that case the local catalog is left exactly as it
/// was, because a node that is about to become the leader must not have
/// its state clobbered by a half-installed snapshot of the *old* leader.
fn bootstrap(
    shared: &Shared,
    client: &mut BinaryClient,
    hello: &HelloInfo,
) -> Result<Option<u64>, PollFail> {
    shared.repl.note_bootstrap();
    if stop_requested(shared) {
        return Ok(None);
    }
    let mut phases = BootstrapPhases::default();
    let (image, load) = match hello.snapshot {
        Some(generation) => {
            let started = Instant::now();
            let image = request_blob(client, &Request::ReplSnapshot { generation })?;
            phases.fetch_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let load = durable::read_snapshot_bytes(&image)
                .map_err(|e| PollFail::Refused(format!("shipped snapshot invalid: {e}")))?;
            phases.decode_s = started.elapsed().as_secs_f64();
            (image, load)
        }
        // A leader that has never snapshotted: the chain starts at
        // segment 0 with an empty catalog.
        None => (Vec::new(), SnapshotLoad::default()),
    };
    // The snapshot fetch can stall for a long time (slow leader, big
    // image). A PROMOTE that landed meanwhile must win: installing the
    // fetched image now would throw away the promoted node's serving
    // state *after* the operator decided it is the new source of truth.
    if stop_requested(shared) {
        return Ok(None);
    }
    // As in recovery, a quarantined document's id counts toward the id
    // counter: a promoted follower must never hand it out again.
    let mut next_id = 1;
    for (id, reason) in &load.quarantined {
        eprintln!("[ruid-follower] leader snapshot quarantined document {id}: {reason}");
        shared.repl.note_quarantined();
        next_id = next_id.max(id + 1);
    }
    let bodies = load.verified_bodies(&image);
    let started = Instant::now();
    install_recovered(shared, load.docs, next_id);
    phases.install_s = started.elapsed().as_secs_f64();
    if let Some(d) = &shared.durability {
        // Our own snapshot pins the bootstrapped state so a promoted (or
        // restarted) follower recovers without the leader. The catalog
        // was just installed from exactly these verified bodies, minus the
        // quarantined ones, and a follower takes no writes, so re-framing
        // them writes the file encoding the catalog would (DESIGN.md §16).
        let started = Instant::now();
        if let Err(e) = d.snapshot_bodies(&bodies) {
            eprintln!("[ruid-follower] local snapshot failed: {e}");
        }
        phases.persist_s = started.elapsed().as_secs_f64();
    }
    shared.repl.note_bootstrap_phases(phases);
    Ok(Some(load.generation))
}

/// One tail poll: request bytes at the tailer's position, validate,
/// apply, update the lag gauges. Returns whether the follower is caught
/// up with the leader's committed watermark.
fn poll_once(
    shared: &Shared,
    client: &mut BinaryClient,
    tailer: &mut SegmentTailer,
) -> Result<bool, PollFail> {
    let blob = request_blob(
        client,
        &Request::ReplTail {
            generation: tailer.segment(),
            offset: tailer.offset(),
            max_bytes: TAIL_MAX_BYTES,
        },
    )?;
    let chunk = TailChunk::decode(&blob).map_err(PollFail::Refused)?;
    let batch = tailer.offer(&chunk).map_err(|e| PollFail::Refused(e.to_string()))?;
    for (_seq, op) in batch.records {
        if stop_requested(shared) {
            // Stop mid-batch: what was already applied is a valid prefix;
            // the rest stays unapplied so a promotion can never interleave
            // shipped records with fresh writes.
            break;
        }
        apply_record(shared, op);
    }
    let lag = if tailer.segment() == chunk.leader_generation {
        chunk.leader_seq.saturating_sub(tailer.expected_seq())
    } else {
        // Mid-chain: intermediate sealed segments hide the exact count,
        // but the leader's whole live segment is certainly still ahead.
        chunk.leader_seq.saturating_add(1)
    };
    shared.repl.set_lag(lag);
    Ok(batch.caught_up)
}

/// Deterministic backoff seed from the follower's name, so multi-replica
/// tests get decorrelated jitter without shared randomness.
fn seed_from(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn run_follower(shared: &Shared) {
    let Some(leader) = &shared.config.follow else { return };
    let name = format!("follower@{}", shared.listen_addr);
    let poll = Duration::from_millis(shared.config.repl_poll_ms.max(1));
    let mut backoff = Backoff::new(25, 2_000, seed_from(&name));
    'session: loop {
        if stop_requested(shared) {
            break;
        }
        let mut client = match BinaryClient::connect(leader) {
            Ok(client) => {
                backoff.reset();
                client
            }
            Err(_) => {
                shared.repl.note_reconnect();
                wait_backoff(shared, &mut backoff);
                continue;
            }
        };
        let _ = client.set_timeout(Some(REPL_IO_TIMEOUT));
        let hello = match request_blob(
            &mut client,
            &Request::ReplHello { follower: name.clone() },
        )
        .and_then(|bytes| HelloInfo::decode(&bytes).map_err(PollFail::Refused))
        {
            Ok(hello) => hello,
            Err(PollFail::Refused(reason)) => {
                eprintln!("[ruid-follower] leader refused hello: {reason}");
                shared.repl.note_refusal();
                wait_backoff(shared, &mut backoff);
                continue;
            }
            Err(PollFail::Io(reason)) => {
                eprintln!("[ruid-follower] hello failed: {reason}");
                shared.repl.note_reconnect();
                wait_backoff(shared, &mut backoff);
                continue;
            }
        };
        let start_segment = match bootstrap(shared, &mut client, &hello) {
            Ok(Some(segment)) => segment,
            // Stop/promotion raced the bootstrap: nothing was installed,
            // exit the session loop so the promotion completes on an
            // unclobbered catalog.
            Ok(None) => break 'session,
            Err(PollFail::Refused(reason)) => {
                eprintln!("[ruid-follower] bootstrap refused: {reason}");
                shared.repl.note_refusal();
                wait_backoff(shared, &mut backoff);
                continue;
            }
            Err(PollFail::Io(reason)) => {
                eprintln!("[ruid-follower] bootstrap failed: {reason}");
                shared.repl.note_reconnect();
                wait_backoff(shared, &mut backoff);
                continue;
            }
        };
        let mut tailer = SegmentTailer::new(start_segment);
        loop {
            if stop_requested(shared) {
                // Clean detach: tell the leader goodbye so it forgets us
                // instead of hitting a write deadline on a dead socket.
                let _ = send_ack(&mut client, &tailer, &name, true);
                break 'session;
            }
            match poll_once(shared, &mut client, &mut tailer) {
                Ok(caught_up) => {
                    let _ = send_ack(&mut client, &tailer, &name, false);
                    if caught_up {
                        interruptible_sleep(shared, poll);
                    }
                }
                Err(PollFail::Refused(reason)) => {
                    eprintln!(
                        "[ruid-follower] refused shipped stream (segment {} offset {}): \
                         {reason}; re-bootstrapping",
                        tailer.segment(),
                        tailer.offset()
                    );
                    shared.repl.note_refusal();
                    continue 'session;
                }
                Err(PollFail::Io(reason)) => {
                    eprintln!("[ruid-follower] tail failed: {reason}");
                    shared.repl.note_reconnect();
                    wait_backoff(shared, &mut backoff);
                    continue 'session;
                }
            }
        }
    }
    if shared.repl.promotion_requested() {
        shared.repl.complete_promotion();
        eprintln!(
            "[ruid-follower] promoted to leader (applied {} records)",
            shared.repl.sample().records_applied
        );
    }
}
