//! Connection multiplexer for the binary protocol.
//!
//! The text front end parks one pool worker per connection — fine for a
//! handful of interactive clients, fatal for throughput: at 100k req/s
//! the per-request syscall pair plus a thread handoff per connection
//! dominates everything the rUID scheme made cheap. The binary front end
//! inverts the model: a small fixed set of mux workers each *drains many
//! sockets* from a single nonblocking poll loop, decoding every complete
//! frame buffered on a socket in one pass (that burst size is what the
//! `ruid_pipeline_depth` histogram measures), executing cheap verbs
//! inline, and answering a whole burst with one buffered write.
//!
//! Out-of-order responses: anything that can block — every request whose
//! [`Request::blocks`] is true (LOAD does file I/O, SHUTDOWN fsyncs the
//! WAL, REPL TAIL reads segment files) or a fault-stalled request — is
//! offloaded to a private thread pool and its response frame lands in the
//! connection's outbox when done, while the poll loop keeps serving later
//! frames from the same socket. Request ids are how clients re-associate
//! them. Either way the request runs through the same [`serve`] core as
//! the text front end.
//!
//! Robustness mirrors the text path byte for byte: the same
//! `max_line_bytes` cap bounds a frame's payload (an oversized header is
//! rejected before any body is buffered), the same read deadline bounds
//! a partial frame (slow-loris), the same write deadline bounds a
//! blocked response, and every trip bumps the same metrics counter the
//! text path uses.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use par::{SubmitError, ThreadPool};

use crate::fault::Fault;
use crate::metrics::{Command, Protocol};
use crate::proto::Request;
use crate::server::{serve, Shared};
use crate::wire::{self, Decoded, WireResponse};

/// How long an idle worker parks waiting for adopted connections before
/// re-polling its sockets.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// Park length when the worker has no connections at all — nothing to
/// poll, so only adoption and shutdown can need it.
const EMPTY_WAIT: Duration = Duration::from_millis(25);

/// Read scratch size per worker (one `recv` worth of pipelined frames).
const SCRATCH_BYTES: usize = 64 * 1024;

/// The offload pool, boxed separately from [`Mux`] so worker threads can
/// hold it without a cycle. `ThreadPool::shutdown` consumes the pool,
/// hence the `Option` dance at join time.
struct Offload {
    pool: Mutex<Option<ThreadPool>>,
}

/// The running multiplexer: adoption channels to the workers plus the
/// join handles the acceptor reaps at shutdown.
pub(crate) struct Mux {
    senders: Vec<Sender<TcpStream>>,
    next: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    offload: Arc<Offload>,
}

impl Mux {
    /// Spawns `config.mux_workers` poll-loop threads plus the offload
    /// pool for blocking verbs.
    pub(crate) fn start(shared: Arc<Shared>) -> Mux {
        let workers = shared.config.mux_workers.max(1);
        let offload = Arc::new(Offload {
            pool: Mutex::new(Some(ThreadPool::new(
                shared.config.threads,
                shared.config.queue_cap,
            ))),
        });
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel();
            let shared = Arc::clone(&shared);
            let offload = Arc::clone(&offload);
            let handle = std::thread::Builder::new()
                .name(format!("ruid-mux-{i}"))
                .spawn(move || worker(&rx, &shared, &offload))
                .expect("spawn mux worker");
            senders.push(tx);
            handles.push(handle);
        }
        Mux { senders, next: AtomicUsize::new(0), workers: Mutex::new(handles), offload }
    }

    /// Hands a sniffed-as-binary connection to a worker (round-robin).
    /// The stream must already be in nonblocking mode.
    pub(crate) fn adopt(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.senders.len();
        // A send can only fail after shutdown, when the worker is gone —
        // dropping the stream is exactly what a closing server should do.
        let _ = self.senders[i].send(stream);
    }

    /// Joins the workers (the shutdown flag must already be set), then
    /// shuts down the offload pool, joining any in-flight jobs.
    pub(crate) fn join(&self) {
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        if let Some(pool) = self.offload.pool.lock().unwrap().take() {
            pool.shutdown();
        }
    }
}

/// What one `Conn::pump` pass concluded.
enum Pump {
    /// Frames, bytes, or responses moved — poll again soon.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// Connection is finished (cleanly or not) — drop it.
    Close,
}

/// What dispatching one decoded frame asks of the poll loop.
enum Dispatch {
    Continue,
    /// Sever immediately, dropping any buffered output (EarlyEof).
    CloseNow,
    /// Stop reading; close once buffered output is flushed.
    FlushClose,
}

/// One multiplexed binary connection and its buffered state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet decoded (partial trailing frame).
    rbuf: Vec<u8>,
    /// Encoded responses that could not be written without blocking.
    wbuf: Vec<u8>,
    /// When the current partial frame started arriving (read deadline).
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
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            partial_since: None,
            blocked_since: None,
            outbox: Arc::new(Mutex::new(Vec::new())),
            pending: Arc::new(AtomicU64::new(0)),
            close_after_flush: false,
            read_eof: false,
        }
    }

    /// One full service pass: collect offloaded responses, read, decode
    /// and dispatch every complete frame, enforce deadlines, write.
    fn pump(
        &mut self,
        shared: &Arc<Shared>,
        offload: &Offload,
        scratch: &mut [u8],
        reply: &mut Vec<u8>,
    ) -> Pump {
        reply.clear();
        let mut progressed = self.collect_outbox();

        // Read everything available without blocking.
        if !self.close_after_flush && !self.read_eof {
            loop {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.read_eof = true;
                        break;
                    }
                    Ok(n) => {
                        shared.metrics.add_net_read(n as u64);
                        self.rbuf.extend_from_slice(&scratch[..n]);
                        progressed = true;
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Pump::Close,
                }
            }
        }

        // Decode and dispatch every complete frame in the buffer. The
        // number of frames served per pass is the realized pipeline
        // depth of this burst.
        if !self.close_after_flush {
            let cap = shared.config.max_line_bytes;
            let mut off = 0;
            let mut frames = 0u64;
            loop {
                // A TEXT line that does not parse is still a request: it
                // is counted and faulted like one and answers its `ERR`.
                let (id, request, consumed) = match wire::decode_request(&self.rbuf[off..], cap) {
                    Decoded::Frame { frame, consumed } => (frame.id, Ok(frame.request), consumed),
                    Decoded::Unparsed { id, reason, consumed } => (id, Err(reason), consumed),
                    Decoded::Incomplete => break,
                    Decoded::Malformed { id, reason, consumed } => {
                        off += consumed;
                        frames += 1;
                        shared.metrics.record(Command::Invalid, true, Duration::ZERO);
                        wire::encode_response(
                            id,
                            &WireResponse::Line(format!("ERR {reason}")),
                            reply,
                        );
                        continue;
                    }
                    Decoded::Oversized { declared } => {
                        shared.metrics.record_oversized();
                        shared.metrics.record(Command::Invalid, true, Duration::ZERO);
                        wire::encode_response(
                            0,
                            &WireResponse::Line(format!(
                                "ERR frame too large ({declared} bytes declared, \
                                 limit {cap})"
                            )),
                            reply,
                        );
                        self.close_after_flush = true;
                        break;
                    }
                    Decoded::Corrupt { .. } => return Pump::Close,
                };
                off += consumed;
                frames += 1;
                shared.metrics.record_protocol_request(Protocol::Binary);
                match self.dispatch(id, request, shared, offload, reply) {
                    Dispatch::Continue => {}
                    Dispatch::CloseNow => return Pump::Close,
                    Dispatch::FlushClose => {
                        self.close_after_flush = true;
                        break;
                    }
                }
            }
            if off > 0 {
                self.rbuf.drain(..off);
                progressed = true;
            }
            if frames > 0 {
                shared.metrics.record_pipeline_depth(frames);
            }
            // A leftover partial frame starts (or continues) the read
            // deadline; a fully drained buffer clears it.
            if self.rbuf.is_empty() {
                self.partial_since = None;
            } else if !self.read_eof && !self.close_after_flush {
                let since = *self.partial_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= shared.config.read_deadline() {
                    shared.metrics.record_deadline_read();
                    shared.metrics.record(
                        Command::Invalid,
                        true,
                        shared.config.read_deadline(),
                    );
                    wire::encode_response(
                        0,
                        &WireResponse::Line(format!(
                            "ERR read deadline exceeded ({} ms to complete a frame)",
                            shared.config.read_timeout_ms
                        )),
                        reply,
                    );
                    self.close_after_flush = true;
                }
            }
            if self.read_eof && !self.close_after_flush {
                if !self.rbuf.is_empty() {
                    // Torn frame: the peer died mid-frame.
                    shared.metrics.record_torn();
                    self.rbuf.clear();
                }
                self.close_after_flush = true;
            }
        }

        // Write: previously blocked bytes first, then this pass's
        // replies straight out of the pooled buffer.
        match self.write_out(shared, reply) {
            Ok(wrote) => progressed |= wrote,
            Err(()) => return Pump::Close,
        }
        if let Some(since) = self.blocked_since {
            if since.elapsed() >= shared.config.write_deadline() {
                shared.metrics.record_deadline_write();
                return Pump::Close;
            }
        }
        if self.close_after_flush && self.wbuf.is_empty() {
            // A client that sent its burst and shut down its write side
            // is still owed every offloaded response in flight — close
            // only once nothing more can land in the outbox.
            if self.pending.load(Ordering::Acquire) == 0
                && self.outbox.lock().unwrap().is_empty()
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

    /// Moves completed offloaded responses into the write buffer.
    fn collect_outbox(&mut self) -> bool {
        let mut outbox = self.outbox.lock().unwrap();
        if outbox.is_empty() {
            return false;
        }
        for frame in outbox.drain(..) {
            self.wbuf.extend_from_slice(&frame);
        }
        true
    }

    /// Serves one decoded request: apply the fault plan, run it inline
    /// (encoding straight into the pooled `reply` buffer) unless it can
    /// block, and offload it if it can.
    fn dispatch(
        &mut self,
        id: u64,
        request: Result<Request, String>,
        shared: &Arc<Shared>,
        offload: &Offload,
        reply: &mut Vec<u8>,
    ) -> Dispatch {
        let fault = shared.next_fault();
        match fault {
            Some(Fault::ForceBusy) => {
                shared.metrics.record_shed();
                wire::encode_response(id, &WireResponse::Line("BUSY".into()), reply);
                return Dispatch::Continue;
            }
            Some(Fault::EarlyEof) => return Dispatch::CloseNow,
            Some(Fault::TornWrite { bytes }) => {
                // Serve, then truncate the encoded response and sever:
                // the client sees a torn frame.
                serve(shared, || request, None, |response| {
                    let before = reply.len();
                    wire::encode_response(id, &response, reply);
                    reply.truncate(before + bytes.min(reply.len() - before));
                });
                return Dispatch::FlushClose;
            }
            Some(Fault::StallHandler { ms }) => {
                // Stall off the poll loop: later pipelined frames on this
                // very connection overtake the stalled one — the
                // out-of-order case the protocol exists for.
                return self.offload_request(id, request, Some(ms), None, shared, offload, reply);
            }
            Some(Fault::DelayMs { ms }) => {
                return self.offload_request(id, request, None, Some(ms), shared, offload, reply);
            }
            Some(Fault::ForgeSeq) => {
                // Replication-channel fault: arm the flag; the next
                // `REPL TAIL` answer corrupts its first record's
                // sequence field. The frame itself executes normally.
                shared.repl.arm_forge();
            }
            Some(Fault::OversizedFrame { .. }) | None => {}
        }
        if request.as_ref().is_ok_and(Request::blocks) {
            return self.offload_request(id, request, None, None, shared, offload, reply);
        }
        serve(shared, || request, None, |response| wire::encode_response(id, &response, reply));
        if shared.shutdown.load(Ordering::SeqCst) {
            Dispatch::FlushClose
        } else {
            Dispatch::Continue
        }
    }

    /// Serves a request on the offload pool; its response frame arrives
    /// via the outbox. Queue-full sheds with `BUSY` (same policy as the
    /// acceptor), pool-closed means shutdown is racing us — also `BUSY`,
    /// the client is about to lose the connection anyway.
    #[allow(clippy::too_many_arguments)]
    fn offload_request(
        &mut self,
        id: u64,
        request: Result<Request, String>,
        stall_ms: Option<u64>,
        delay_ms: Option<u64>,
        shared: &Arc<Shared>,
        offload: &Offload,
        reply: &mut Vec<u8>,
    ) -> Dispatch {
        let outbox = Arc::clone(&self.outbox);
        let pending = Arc::clone(&self.pending);
        let job_shared = Arc::clone(shared);
        pending.fetch_add(1, Ordering::AcqRel);
        let job = move || {
            serve(&job_shared, || request, stall_ms, |response| {
                if let Some(ms) = delay_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                let mut buf = Vec::new();
                wire::encode_response(id, &response, &mut buf);
                // In the outbox before `serve` can flag a shutdown, so the
                // final flush still finds a `SHUTDOWN`'s own answer.
                outbox.lock().unwrap().push(buf);
                pending.fetch_sub(1, Ordering::AcqRel);
            });
        };
        let submitted = match offload.pool.lock().unwrap().as_ref() {
            Some(pool) => pool.try_execute(job),
            None => Err(SubmitError::Closed),
        };
        if submitted.is_err() {
            // Full queue or racing shutdown: the job closure (and the
            // pending increment it would have resolved) was dropped by
            // the rejected submit — shed with BUSY, same as the acceptor.
            self.pending.fetch_sub(1, Ordering::AcqRel);
            shared.metrics.record_shed();
            wire::encode_response(id, &WireResponse::Line("BUSY".into()), reply);
        }
        Dispatch::Continue
    }

    /// Writes the backlog, then this pass's replies; whatever would
    /// block is stashed in `wbuf` for the next pass.
    fn write_out(
        &mut self,
        shared: &Shared,
        reply: &mut Vec<u8>,
    ) -> Result<bool, ()> {
        let mut progressed = false;
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    shared.metrics.add_net_written(n as u64);
                    self.wbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.wbuf.extend_from_slice(reply);
                    reply.clear();
                    self.blocked_since.get_or_insert_with(Instant::now);
                    return Ok(progressed);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        let mut off = 0;
        while off < reply.len() {
            match self.stream.write(&reply[off..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    shared.metrics.add_net_written(n as u64);
                    off += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.wbuf.extend_from_slice(&reply[off..]);
                    reply.clear();
                    self.blocked_since.get_or_insert_with(Instant::now);
                    return Ok(progressed);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        reply.clear();
        self.blocked_since = None;
        Ok(progressed)
    }

    /// Final best-effort flush at server shutdown: switch back to
    /// blocking writes with the write deadline as timeout so a binary
    /// `SHUTDOWN`'s own `OK bye` still reaches its client.
    fn final_flush(&mut self, shared: &Shared) {
        self.collect_outbox();
        if self.wbuf.is_empty() {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(shared.config.write_deadline()));
        let len = self.wbuf.len() as u64;
        if self.stream.write_all(&self.wbuf).is_ok() {
            shared.metrics.add_net_written(len);
            let _ = self.stream.flush();
        }
        self.wbuf.clear();
    }
}

/// One mux worker: adopt connections from `rx`, pump them all, park
/// briefly when nothing moved.
fn worker(rx: &Receiver<TcpStream>, shared: &Arc<Shared>, offload: &Offload) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    // The worker's pooled reply buffer: every inline response of a pass
    // is encoded into it and written from it, so steady-state serving
    // allocates nothing per request.
    let mut reply: Vec<u8> = Vec::with_capacity(SCRATCH_BYTES);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            for conn in &mut conns {
                conn.final_flush(shared);
            }
            return;
        }
        while let Ok(stream) = rx.try_recv() {
            conns.push(Conn::new(stream));
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
        if !progressed {
            let wait = if conns.is_empty() { EMPTY_WAIT } else { IDLE_WAIT };
            match rx.recv_timeout(wait) {
                Ok(stream) => conns.push(Conn::new(stream)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Acceptor gone without the flag — treat as shutdown.
                    std::thread::sleep(EMPTY_WAIT);
                }
            }
        }
    }
}
