//! The connection state machine, for both protocols, and the multiplexer
//! that drives every connection.
//!
//! One [`Conn`] pass reads what the socket has, decodes every complete
//! request in its buffer, applies the fault plan, runs each request
//! through the [`serve`] core, enforces the read and write deadlines,
//! counts, and writes every reply of the pass with one buffered write.
//! The byte format — the codec — is fixed once per connection from the
//! first byte it reads: [`wire::REQ_MAGIC`], which can never start a
//! UTF-8 text line, means binary frames, anything else text lines (both
//! live in [`wire`]). The codec decides only the bytes: how an oversized
//! request is refused, how a reply is framed, what a deadline error says,
//! and whether replies may overtake each other. Everything else — torn
//! EOF, the fault plan, the read and write deadlines, the byte and
//! per-protocol request counters, the `ruid_pipeline_depth` histogram
//! (requests served per pass) — is one code path.
//!
//! A small fixed set of mux workers drains every connection, each pumping
//! many nonblocking sockets; a connection that has sent nothing holds no
//! thread. After a pass that moved anything a worker keeps passing,
//! yielding the CPU between passes, for [`SPIN_MAX`]; then it parks on its
//! wake channel until an adoption, an offload completion or [`IDLE_WAIT`].
//! Anything that can block — every request whose [`Request::blocks`] is
//! true (LOAD does file I/O, SHUTDOWN fsyncs the WAL, REPL TAIL reads
//! segment files) or a fault-stalled request — is offloaded to the
//! server's thread pool, whatever its codec; its reply lands in the
//! connection's outbox when done and wakes the worker. A binary
//! connection keeps being served meanwhile, so later frames overtake the
//! offloaded one (request ids are how clients re-associate them). A text
//! connection decodes nothing more until the reply has landed, so its
//! answers stay in request order. A request served inline holds its
//! worker's other connections for as long as it runs.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use par::{SubmitError, ThreadPool};

use crate::fault::Fault;
use crate::lock;
use crate::metrics::{Command, Protocol};
use crate::proto::{self, Request};
use crate::server::{serve, Shared};
use crate::wire::{self, Decoded, WireResponse};

/// Poll-loop threads; each drains many sockets of either codec. The
/// server's thread pool (`threads`) runs their offloaded requests.
const MUX_WORKERS: usize = 2;

/// How long an idle worker parks on its wake channel before re-polling
/// its sockets: the most that bytes arriving after a spin can wait.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// How long a worker keeps yielding and passing again after a pass that
/// moved something before it parks.
const SPIN_MAX: Duration = Duration::from_micros(200);

/// Read scratch size per worker (one `recv` worth of pipelined requests).
const SCRATCH_BYTES: usize = 64 * 1024;

/// Unwritten reply bytes at which a pass stops decoding: the requests
/// still buffered wait for the output to drain, so a client that
/// pipelines many requests with large replies cannot make one pass hold
/// all of them.
const OUTPUT_LIMIT: usize = 64 * 1024;

/// How long one blocked reply write may wait before the connection is
/// dropped (and `deadline_write` ticks).
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// The offload pool, boxed separately from [`Mux`] so worker threads can
/// hold it without a cycle. `ThreadPool::shutdown` consumes the pool,
/// hence the `Option` dance at join time.
struct Offload {
    pool: Mutex<Option<ThreadPool>>,
}

/// A connection's claim on one of the server's `threads + queue_cap`
/// connection slots, given back when it drops.
struct Held(Arc<AtomicUsize>);

impl Drop for Held {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What a worker's channel carries: the two events, besides bytes on a
/// socket, that can give it work.
enum Wake {
    /// A freshly accepted connection to adopt.
    Adopt(TcpStream, Held),
    /// An offloaded reply landed in the outbox of one of its connections.
    Outbox,
}

/// Where a pass sends a request that can block: the shared pool, and the
/// wake channel of the worker that owns the connection. The worker holds
/// that channel only weakly, so it sees it disconnect once the [`Mux`]
/// and every job in flight are gone.
#[derive(Clone, Copy)]
struct OffloadTo<'a> {
    pool: &'a Offload,
    wake: &'a Weak<Sender<Wake>>,
}

/// The running multiplexer: wake channels to the workers plus the join
/// handles the acceptor reaps at shutdown.
pub(crate) struct Mux {
    /// Each worker's wake channel; emptied by [`Mux::join`].
    wakes: Mutex<Vec<Arc<Sender<Wake>>>>,
    next: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    offload: Arc<Offload>,
    /// Connections adopted and not yet dropped.
    held: Arc<AtomicUsize>,
    /// How many connections the server holds before it sheds.
    capacity: usize,
}

impl Mux {
    /// Spawns [`MUX_WORKERS`] poll-loop threads that offload blocking
    /// requests to `pool`.
    pub(crate) fn start(shared: Arc<Shared>, pool: ThreadPool) -> Mux {
        let offload = Arc::new(Offload { pool: Mutex::new(Some(pool)) });
        let mut wakes = Vec::with_capacity(MUX_WORKERS);
        let mut handles = Vec::with_capacity(MUX_WORKERS);
        for i in 0..MUX_WORKERS {
            let (tx, rx) = mpsc::channel();
            let tx = Arc::new(tx);
            let wake = Arc::downgrade(&tx);
            let shared = Arc::clone(&shared);
            let offload = Arc::clone(&offload);
            let handle = std::thread::Builder::new()
                .name(format!("ruid-mux-{i}"))
                .spawn(move || worker(&rx, &wake, &shared, &offload))
                .expect("spawn mux worker");
            wakes.push(tx);
            handles.push(handle);
        }
        Mux {
            wakes: Mutex::new(wakes),
            next: AtomicUsize::new(0),
            workers: Mutex::new(handles),
            offload,
            held: Arc::new(AtomicUsize::new(0)),
            capacity: shared.config.threads + shared.config.queue_cap,
        }
    }

    /// Hands a connection to a worker (round-robin); the stream must
    /// already be in nonblocking mode. A server that already holds
    /// `threads + queue_cap` connections gives the stream back instead,
    /// for the caller to shed. Only the acceptor adopts.
    pub(crate) fn adopt(&self, stream: TcpStream) -> Result<(), TcpStream> {
        if self.held.load(Ordering::Acquire) >= self.capacity {
            return Err(stream);
        }
        self.held.fetch_add(1, Ordering::AcqRel);
        let held = Held(Arc::clone(&self.held));
        let i = self.next.fetch_add(1, Ordering::Relaxed) % MUX_WORKERS;
        // No channel, or a failed send, only after shutdown — dropping the
        // stream is exactly what a closing server should do.
        if let Some(wake) = lock(&self.wakes).get(i) {
            let _ = wake.send(Wake::Adopt(stream, held));
        }
        Ok(())
    }

    /// Joins the workers (the shutdown flag must already be set), then
    /// shuts down the offload pool, joining any in-flight jobs. Dropping
    /// the wake channels first is what ends a worker parked with no
    /// connections: its channel disconnects once the jobs in flight are
    /// done.
    pub(crate) fn join(&self) {
        lock(&self.wakes).clear();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
        if let Some(pool) = lock(&self.offload.pool).take() {
            pool.shutdown();
        }
    }
}

/// Appends one reply in a connection's byte format: a text line drops
/// `id`, a binary frame carries it (0 for a connection-level error).
fn encode(codec: Protocol, id: u64, response: &WireResponse, out: &mut Vec<u8>) {
    match codec {
        Protocol::Text => wire::encode_line(response, out),
        Protocol::Binary => wire::encode_response(id, response, out),
    }
}

/// What one `Conn::pump` pass concluded.
enum Pump {
    /// Requests, bytes, or responses moved — poll again soon.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// Connection is finished (cleanly or not) — drop it.
    Close,
}

/// What dispatching one decoded request asks of the pass.
enum Dispatch {
    Continue,
    /// Write what earlier requests are owed, then sever (EarlyEof, a
    /// binary stream that lost frame sync).
    CloseNow,
    /// Stop reading; close once buffered output is flushed.
    FlushClose,
}

/// One connection and its buffered state.
struct Conn {
    stream: TcpStream,
    /// The byte format (see [`encode`]), fixed by the first byte read.
    codec: Protocol,
    /// Whether that first byte has been read.
    sniffed: bool,
    /// Bytes read but not yet decoded (partial trailing request).
    rbuf: Vec<u8>,
    /// Encoded responses that could not be written without blocking.
    wbuf: Vec<u8>,
    /// Text only: an oversized line is being drained to its newline.
    skipping: bool,
    /// The last pass stopped at [`OUTPUT_LIMIT`] with complete requests
    /// still buffered: serve those before reading more.
    backlog: bool,
    /// When the current partial request started arriving (read deadline).
    partial_since: Option<Instant>,
    /// When the current blocked write started (write deadline).
    blocked_since: Option<Instant>,
    /// Completed offloaded responses, pushed by pool jobs.
    outbox: Arc<Mutex<Vec<Vec<u8>>>>,
    /// Offloaded jobs submitted but not yet landed in the outbox —
    /// what keeps a draining connection open until every response it is
    /// owed has been delivered.
    pending: Arc<AtomicU64>,
    /// Stop reading; close as soon as all output is flushed.
    close_after_flush: bool,
    /// Peer closed its write side (EOF seen).
    read_eof: bool,
    /// The server's connection slot, given back when the connection drops.
    _held: Held,
}

impl Conn {
    fn new(stream: TcpStream, held: Held) -> Conn {
        Conn {
            stream,
            codec: Protocol::Text,
            sniffed: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            skipping: false,
            backlog: false,
            partial_since: None,
            blocked_since: None,
            outbox: Arc::new(Mutex::new(Vec::new())),
            pending: Arc::new(AtomicU64::new(0)),
            close_after_flush: false,
            read_eof: false,
            _held: held,
        }
    }

    /// One full service pass: collect offloaded responses, read, decode
    /// and dispatch every complete request, enforce deadlines, write.
    fn pump(
        &mut self,
        shared: &Arc<Shared>,
        offload: OffloadTo<'_>,
        scratch: &mut [u8],
        reply: &mut Vec<u8>,
    ) -> Pump {
        reply.clear();
        let mut progressed = self.collect_outbox();

        if !self.close_after_flush && !self.read_eof && !self.backlog {
            match self.stream.read(scratch) {
                Ok(0) => self.read_eof = true,
                Ok(n) => {
                    if !self.sniffed {
                        self.sniffed = true;
                        if scratch[0] == wire::REQ_MAGIC {
                            self.codec = Protocol::Binary;
                        }
                    }
                    shared.metrics.add_net_read(n as u64);
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    progressed = true;
                }
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => return Pump::Close,
            }
        }

        if !self.close_after_flush {
            let buffered = self.rbuf.len();
            match self.decode_all(shared, offload, reply) {
                Dispatch::Continue => {}
                Dispatch::CloseNow => {
                    let _ = self.write_out(shared, reply);
                    return Pump::Close;
                }
                Dispatch::FlushClose => self.close_after_flush = true,
            }
            progressed |= self.rbuf.len() < buffered;
            if !self.close_after_flush {
                self.check_read_end(shared, reply);
            }
        }

        // Write: previously blocked bytes first, then this pass's
        // replies straight out of the pooled buffer.
        match self.write_out(shared, reply) {
            Ok(wrote) => progressed |= wrote,
            Err(()) => return Pump::Close,
        }
        if let Some(since) = self.blocked_since {
            if since.elapsed() >= WRITE_DEADLINE {
                shared.metrics.record_deadline_write();
                return Pump::Close;
            }
        }
        if self.close_after_flush && self.wbuf.is_empty() {
            // A client that sent its burst and shut down its write side
            // is still owed every offloaded response in flight — close
            // only once nothing more can land in the outbox.
            if self.pending.load(Ordering::Acquire) == 0
                && lock(&self.outbox).is_empty()
            {
                return Pump::Close;
            }
        }
        if progressed {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// Decodes and dispatches every complete request in the buffer, or
    /// as many as fit under [`OUTPUT_LIMIT`]. The number served in one
    /// pass is the realized pipeline depth.
    fn decode_all(
        &mut self,
        shared: &Arc<Shared>,
        offload: OffloadTo<'_>,
        reply: &mut Vec<u8>,
    ) -> Dispatch {
        let cap = shared.config.max_line_bytes;
        let rbuf = std::mem::take(&mut self.rbuf);
        let mut off = 0;
        let mut served = 0u64;
        let mut outcome = Dispatch::Continue;
        self.backlog = false;
        while let Dispatch::Continue = outcome {
            if reply.len() + self.wbuf.len() >= OUTPUT_LIMIT || self.owes_text_reply() {
                self.backlog = true;
                break;
            }
            if self.skipping {
                let Some(newline) = rbuf[off..].iter().position(|&b| b == b'\n') else {
                    off = rbuf.len();
                    break;
                };
                off += newline + 1;
                self.skipping = false;
                self.partial_since = None;
                self.line_too_long(shared, reply);
            }
            // One relaxed load decides whether the request is traced
            // (`parse_ns` is `Some` exactly then); a text line is parsed
            // here, so that is where its parse is timed.
            let traced = shared.tracer.enabled();
            let decoded = match self.codec {
                Protocol::Text => wire::decode_line(&rbuf[off..], cap).map(|line| {
                    let started = traced.then(Instant::now);
                    let request = proto::parse(line);
                    (0, request, started.map(|t| t.elapsed().as_nanos() as u64))
                }),
                Protocol::Binary => wire::decode_request(&rbuf[off..], cap)
                    .map(|frame| (frame.id, Ok(frame.request), traced.then_some(0))),
            };
            // A TEXT frame that does not parse is still a request: it is
            // counted and faulted like one and answers its `ERR`.
            let (id, request, parse_ns, consumed) = match decoded {
                Decoded::Frame { frame: (id, request, parse_ns), consumed } => {
                    (id, request, parse_ns, consumed)
                }
                Decoded::Unparsed { id, reason, consumed } => {
                    (id, Err(reason), traced.then_some(0), consumed)
                }
                Decoded::Incomplete => break,
                Decoded::Malformed { id, reason, consumed } => {
                    off += consumed;
                    served += 1;
                    shared.metrics.record(Command::Invalid, true, Duration::ZERO);
                    encode(self.codec, id, &WireResponse::Line(format!("ERR {reason}")), reply);
                    continue;
                }
                // A line is drained to its newline and the connection
                // resynchronizes; a frame's length is untrusted, so the
                // connection cannot.
                Decoded::Oversized { declared } => match self.codec {
                    Protocol::Text => {
                        self.skipping = true;
                        continue;
                    }
                    Protocol::Binary => {
                        shared.metrics.record_oversized();
                        shared.metrics.record(Command::Invalid, true, Duration::ZERO);
                        let message =
                            format!("ERR frame too large ({declared} bytes declared, limit {cap})");
                        encode(self.codec, 0, &WireResponse::Line(message), reply);
                        outcome = Dispatch::FlushClose;
                        break;
                    }
                },
                Decoded::Corrupt { .. } => {
                    shared.metrics.record(Command::Invalid, true, Duration::ZERO);
                    outcome = Dispatch::CloseNow;
                    break;
                }
            };
            off += consumed;
            served += 1;
            shared.metrics.record_protocol_request(self.codec);
            outcome = self.dispatch(id, request, parse_ns, shared, offload, reply);
        }
        if served > 0 {
            shared.metrics.record_pipeline_depth(served);
            self.partial_since = None;
        }
        self.rbuf = rbuf;
        self.rbuf.drain(..off);
        outcome
    }

    /// After a pass's requests: a leftover partial request starts (or
    /// continues) the read deadline; EOF after one is a torn request.
    /// Neither applies while complete requests wait in a backlog.
    fn check_read_end(&mut self, shared: &Shared, reply: &mut Vec<u8>) {
        if self.backlog {
            return;
        }
        let partial = self.skipping || !self.rbuf.is_empty();
        if self.read_eof {
            if self.skipping {
                self.line_too_long(shared, reply);
            } else if partial {
                shared.metrics.record_torn();
            }
            self.rbuf.clear();
            self.close_after_flush = true;
        } else if !partial {
            self.partial_since = None;
        } else if self.partial_since.get_or_insert_with(Instant::now).elapsed()
            >= shared.config.read_deadline()
        {
            shared.metrics.record_deadline_read();
            shared.metrics.record(Command::Invalid, true, shared.config.read_deadline());
            let unit = if let Protocol::Text = self.codec { "request line" } else { "frame" };
            let message = format!(
                "ERR read deadline exceeded ({} ms to complete a {unit})",
                shared.config.read_timeout_ms
            );
            encode(self.codec, 0, &WireResponse::Line(message), reply);
            self.close_after_flush = true;
        }
    }

    /// Refuses the text line just drained (or cut by EOF) for its length.
    fn line_too_long(&self, shared: &Shared, reply: &mut Vec<u8>) {
        shared.metrics.record_oversized();
        shared.metrics.record(Command::Invalid, true, Duration::ZERO);
        let cap = shared.config.max_line_bytes;
        let message = format!("ERR line too long (limit {cap} bytes)");
        encode(self.codec, 0, &WireResponse::Line(message), reply);
    }

    /// Whether a text reply is still owed by the offload pool or waits
    /// uncollected in the outbox: either holds every later request of the
    /// connection, so text answers stay in request order. `pending` is
    /// read first; a job fills the outbox before it decrements it, so a
    /// reply that has landed is seen in one or the other.
    fn owes_text_reply(&self) -> bool {
        self.codec == Protocol::Text
            && (self.pending.load(Ordering::Acquire) > 0 || !lock(&self.outbox).is_empty())
    }

    /// Moves completed offloaded responses into the write buffer.
    fn collect_outbox(&mut self) -> bool {
        let mut outbox = lock(&self.outbox);
        if outbox.is_empty() {
            return false;
        }
        for frame in outbox.drain(..) {
            self.wbuf.extend_from_slice(&frame);
        }
        true
    }

    /// Serves one decoded request: apply the fault plan, then offload it
    /// if it can block, or run it inline, encoding straight into the
    /// pooled `reply` buffer.
    fn dispatch(
        &mut self,
        id: u64,
        request: Result<Request, String>,
        parse_ns: Option<u64>,
        shared: &Arc<Shared>,
        offload: OffloadTo<'_>,
        reply: &mut Vec<u8>,
    ) -> Dispatch {
        let codec = self.codec;
        let (mut stall_ms, mut delay_ms) = (None, None);
        match shared.next_fault() {
            Some(Fault::ForceBusy) => {
                shared.metrics.record_shed();
                encode(codec, id, &WireResponse::Line("BUSY".into()), reply);
                return Dispatch::Continue;
            }
            Some(Fault::EarlyEof) => return Dispatch::CloseNow,
            Some(Fault::TornWrite { bytes }) => {
                // Serve, then truncate the encoded response and sever:
                // the client sees a torn reply.
                serve(shared, request, parse_ns, None, |response| {
                    let before = reply.len();
                    encode(codec, id, &response, reply);
                    reply.truncate(before + bytes.min(reply.len() - before));
                });
                return Dispatch::FlushClose;
            }
            // A stalled or delayed request goes off the poll loop.
            Some(Fault::StallHandler { ms }) => stall_ms = Some(ms),
            Some(Fault::DelayMs { ms }) => delay_ms = Some(ms),
            // Replication-channel fault: arm the flag; the next
            // `REPL TAIL` answer corrupts its first record's sequence
            // field. The request itself executes normally.
            Some(Fault::ForgeSeq) => shared.repl.arm_forge(),
            Some(Fault::OversizedFrame { .. }) | None => {}
        }
        if request.as_ref().is_ok_and(Request::blocks) || stall_ms.or(delay_ms).is_some() {
            self.offload(id, request, parse_ns, stall_ms, delay_ms, shared, offload, reply);
            return Dispatch::Continue;
        }
        serve(shared, request, parse_ns, None, |response| encode(codec, id, &response, reply));
        if shared.shutdown.load(Ordering::SeqCst) {
            Dispatch::FlushClose
        } else {
            Dispatch::Continue
        }
    }

    /// Serves a request on the offload pool; its reply arrives via the
    /// outbox. Queue-full sheds with `BUSY` (same policy as the
    /// acceptor), pool-closed means shutdown is racing us — also `BUSY`,
    /// the client is about to lose the connection anyway.
    #[allow(clippy::too_many_arguments)]
    fn offload(
        &mut self,
        id: u64,
        request: Result<Request, String>,
        parse_ns: Option<u64>,
        stall_ms: Option<u64>,
        delay_ms: Option<u64>,
        shared: &Arc<Shared>,
        offload: OffloadTo<'_>,
        reply: &mut Vec<u8>,
    ) {
        let codec = self.codec;
        let outbox = Arc::clone(&self.outbox);
        let pending = Arc::clone(&self.pending);
        let job_shared = Arc::clone(shared);
        let wake = offload.wake.upgrade().map(|tx| Sender::clone(&tx));
        pending.fetch_add(1, Ordering::AcqRel);
        let job = move || {
            serve(&job_shared, request, parse_ns, stall_ms, |response| {
                if let Some(ms) = delay_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                let mut buf = Vec::new();
                encode(codec, id, &response, &mut buf);
                // In the outbox before `serve` can flag a shutdown, so the
                // final flush still finds a `SHUTDOWN`'s own answer.
                lock(&outbox).push(buf);
                pending.fetch_sub(1, Ordering::AcqRel);
                // `None` once the `Mux` is gone: no worker is left to wake.
                if let Some(wake) = &wake {
                    let _ = wake.send(Wake::Outbox);
                }
            });
        };
        let submitted = match lock(&offload.pool.pool).as_ref() {
            Some(pool) => pool.try_execute(job),
            None => Err(SubmitError::Closed),
        };
        if submitted.is_err() {
            // Full queue or racing shutdown: the job closure (and the
            // pending increment it would have resolved) was dropped by
            // the rejected submit — shed with BUSY, same as the acceptor.
            self.pending.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.record_shed();
            encode(codec, id, &WireResponse::Line("BUSY".into()), reply);
        }
    }

    /// Writes the backlog, then this pass's replies; whatever would
    /// block is stashed in `wbuf` for the next pass. The write deadline
    /// runs from the first write that did not take everything (counted
    /// from the start of this call, so a blocking socket's own timeout
    /// expires it at once) until all output has drained.
    fn write_out(&mut self, shared: &Shared, reply: &mut Vec<u8>) -> Result<bool, ()> {
        if self.wbuf.is_empty() && reply.is_empty() {
            return Ok(false);
        }
        let started = Instant::now();
        let mut progressed = false;
        for pending in [true, false] {
            let mut off = 0;
            let bytes: &[u8] = if pending { &self.wbuf } else { reply };
            while off < bytes.len() {
                let blocked = match self.stream.write(&bytes[off..]) {
                    Ok(0) => return Err(()),
                    Ok(n) => {
                        shared.metrics.add_net_written(n as u64);
                        off += n;
                        progressed = true;
                        // A short write: the peer is not keeping up. A
                        // blocking socket still takes a trickle per call,
                        // so the deadline is checked here too.
                        off < bytes.len()
                            && self.blocked_since.get_or_insert(started).elapsed()
                                >= WRITE_DEADLINE
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        self.blocked_since.get_or_insert(started);
                        true
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => false,
                    Err(_) => return Err(()),
                };
                if blocked {
                    if pending {
                        self.wbuf.drain(..off);
                        self.wbuf.extend_from_slice(reply);
                    } else {
                        self.wbuf.extend_from_slice(&reply[off..]);
                    }
                    reply.clear();
                    return Ok(progressed);
                }
            }
            if pending {
                self.wbuf.clear();
            }
        }
        reply.clear();
        self.blocked_since = None;
        Ok(progressed)
    }

    /// Final best-effort flush at server shutdown: switch back to
    /// blocking writes with the write deadline as timeout so a
    /// `SHUTDOWN`'s own `OK bye` still reaches its client.
    fn final_flush(&mut self, shared: &Shared) {
        self.collect_outbox();
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(WRITE_DEADLINE));
        let _ = self.write_out(shared, &mut Vec::new());
    }
}

/// One mux worker: adopt connections and take offload wakes from `rx`,
/// pump every connection, then spin or park. After a pass that moved
/// anything the worker passes again at once; after a pass that moved
/// nothing it yields the CPU and passes again until [`SPIN_MAX`] after
/// the last productive pass, and parks only then. A park ends the spin,
/// so a worker whose park timed out with nothing to do parks again
/// without spinning: an idle connection costs one pass per
/// [`IDLE_WAIT`], no more. The spin yields rather than busy-waits as a
/// precaution for hosts that do not preempt on wake-up, where a client
/// runnable on the worker's own CPU would otherwise wait out the spin;
/// where the kernel does preempt, a `spin_loop()` spin measured the same.
///
/// It returns at shutdown, or once its channel disconnects — nothing can
/// adopt or wake it any more — after a final flush of its connections.
fn worker(rx: &Receiver<Wake>, wake: &Weak<Sender<Wake>>, shared: &Arc<Shared>, pool: &Offload) {
    let offload = OffloadTo { pool, wake };
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    // The worker's pooled reply buffer: every inline response of a pass
    // is encoded into it and written from it, so steady-state serving
    // allocates nothing per request.
    let mut reply: Vec<u8> = Vec::with_capacity(SCRATCH_BYTES);
    // Spin until then: set by a productive pass, cleared by a park.
    let mut spin_until: Option<Instant> = None;
    // The last pass moved nothing and the worker yielded, not parked.
    let mut spun = false;
    let take = |wake: Wake, conns: &mut Vec<Conn>| match wake {
        Wake::Adopt(stream, held) => conns.push(Conn::new(stream, held)),
        Wake::Outbox => shared.metrics.record_mux_outbox_wake(),
    };
    'serve: while !shared.shutdown.load(Ordering::SeqCst) {
        loop {
            match rx.try_recv() {
                Ok(wake) => take(wake, &mut conns),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'serve,
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match conns[i].pump(shared, offload, &mut scratch, &mut reply) {
                Pump::Progress => {
                    progressed = true;
                    i += 1;
                }
                Pump::Idle => i += 1,
                Pump::Close => {
                    conns.swap_remove(i);
                }
            }
        }
        let now = Instant::now();
        if progressed {
            if spun {
                shared.metrics.record_mux_spin_catch();
            }
            spun = false;
            spin_until = Some(now + SPIN_MAX);
            continue;
        }
        spun = spin_until.is_some_and(|until| now < until);
        if spun {
            std::thread::yield_now();
            continue;
        }
        // With no connection only a wake can bring work.
        let woke = if conns.is_empty() {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            shared.metrics.record_mux_park();
            rx.recv_timeout(IDLE_WAIT)
        };
        spin_until = None;
        match woke {
            Ok(wake) => take(wake, &mut conns),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for conn in &mut conns {
        conn.final_flush(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use crate::ServerConfig;

    #[test]
    fn a_worker_whose_channel_disconnects_flushes_and_returns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ThreadPool::new(1, 1);
        let config = ServerConfig::default();
        let shared = Arc::new(Shared::new(config, listener.local_addr().unwrap(), None, pool.stats()));
        let offload = Offload { pool: Mutex::new(Some(pool)) };
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();

        let (tx, rx) = mpsc::channel();
        let held = Arc::new(AtomicUsize::new(1));
        tx.send(Wake::Adopt(stream, Held(Arc::clone(&held)))).unwrap();
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            worker(&rx, &Weak::new(), &shared, &offload);
            let _ = done_tx.send(());
        });

        // The adopted connection is served.
        let mut frame = Vec::new();
        wire::encode_request(7, &Request::Ping, &mut frame);
        client.write_all(&frame).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        let reply = loop {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed before the reply");
            buf.extend_from_slice(&chunk[..n]);
            if let Decoded::Frame { frame, .. } = wire::decode_response(&buf) {
                break frame;
            }
        };
        assert_eq!(reply.id, 7);

        // Every sender is gone: nothing can adopt or wake the worker.
        drop(tx);
        done.recv_timeout(Duration::from_secs(10)).expect("the worker returns");
        assert_eq!(client.read(&mut chunk).unwrap(), 0, "its connection closed with it");
        assert_eq!(held.load(Ordering::Acquire), 0, "and gave its slot back");
    }
}
