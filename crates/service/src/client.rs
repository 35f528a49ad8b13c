//! Blocking clients for both wire protocols, used by the CLI's `client`
//! subcommand and by the test suite: [`Client`] speaks the line protocol,
//! [`BinaryClient`] the length-prefixed binary frames (with pipelining —
//! issue K requests, then match the replies by id as they arrive, in
//! whatever order the server finished them).
//!
//! Either client can carry a [`FaultPlan`]: faults fire at the request
//! indices the plan names, simulating a hostile or broken peer — a torn
//! request (a partial line or frame, then the socket severed), a
//! slow-loris pause mid-transfer, a forged oversized frame header, or an
//! abrupt EOF. That is how the chaos tests drive the server's deadlines
//! and framing limits from the outside.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use repl::Backoff;

use crate::fault::{Fault, FaultPlan};
use crate::proto::{Engine, Request};
use crate::wire::{self, Decoded, ResponseFrame, WireResponse};

/// Process-wide retry counter across every in-process [`Client`]:
/// reconnects after a refused connect plus `BUSY` resends. Surfaced as
/// `ruid_client_retries_total` in the Prometheus exposition.
static CLIENT_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Total retries in-process clients have performed (see
/// [`RetryPolicy`]).
pub fn client_retries_total() -> u64 {
    CLIENT_RETRIES.load(Ordering::Relaxed)
}

/// Bounded exponential backoff with jitter for the client retry
/// helpers. `BUSY` and a refused connect are the *retryable* outcomes:
/// both mean "nothing was executed, try again later".
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included); at least 1.
    pub max_attempts: u32,
    /// First delay, in milliseconds.
    pub base_ms: u64,
    /// Delay cap, in milliseconds.
    pub max_ms: u64,
    /// Jitter seed — fix it for reproducible test schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 5, base_ms: 20, max_ms: 500, seed: 0x5eed }
    }
}

/// One connection to a running service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Peer address, kept so the retry helper can reconnect after the
    /// server shed this connection.
    addr: Option<SocketAddr>,
    plan: Option<Arc<FaultPlan>>,
    sent: u64,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7070"` or a `SocketAddr`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr().ok();
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, addr, plan: None, sent: 0 })
    }

    /// Connects with bounded exponential backoff + jitter on a refused
    /// connection (the server not up yet, or restarting). Every retry
    /// bumps the process-wide [`client_retries_total`] counter; any
    /// other error is returned immediately.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut backoff = Backoff::new(policy.base_ms, policy.max_ms, policy.seed);
        let mut attempt = 0u32;
        loop {
            match Client::connect(&addrs[..]) {
                Ok(client) => return Ok(client),
                Err(e)
                    if e.kind() == ErrorKind::ConnectionRefused
                        && attempt + 1 < policy.max_attempts.max(1) =>
                {
                    attempt += 1;
                    CLIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connects with a fault plan: each [`Client::request`] consumes one
    /// request index, and the plan's fault (if any) fires on it.
    pub fn connect_with_faults<A: ToSocketAddrs>(
        addr: A,
        plan: Arc<FaultPlan>,
    ) -> std::io::Result<Client> {
        let mut client = Client::connect(addr)?;
        client.plan = Some(plan);
        Ok(client)
    }

    /// Caps how long [`Client::request`] waits for a response line.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Requests sent (or faulted) so far — the next request's fault index.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    /// Sends one request line and reads the one response line.
    ///
    /// Returns `UnexpectedEof` if the server closed the connection, and
    /// `ConnectionAborted` when an injected client-side fault severed it.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let index = self.sent;
        self.sent += 1;
        let fault = self.plan.as_ref().and_then(|p| p.fault_at(index)).cloned();
        let mut message = line.trim_end().to_owned();
        message.push('\n');
        match fault {
            Some(Fault::EarlyEof) => {
                // Sever without sending anything.
                let _ = self.writer.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected fault: early EOF",
                ));
            }
            Some(Fault::TornWrite { bytes }) => {
                // Never let the terminator out: the server must see a
                // partial line followed by EOF.
                let n = bytes.min(message.len().saturating_sub(1));
                self.writer.write_all(&message.as_bytes()[..n])?;
                self.writer.flush()?;
                let _ = self.writer.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected fault: torn write",
                ));
            }
            Some(Fault::DelayMs { ms }) => {
                // Slow-loris: half the line, a pause, then the rest. With
                // a pause beyond the server's read deadline the response
                // is an ERR (or the connection dies) — the caller decides
                // what to assert.
                let half = message.len() / 2;
                self.writer.write_all(&message.as_bytes()[..half])?;
                self.writer.flush()?;
                std::thread::sleep(Duration::from_millis(ms));
                self.writer.write_all(&message.as_bytes()[half..])?;
                self.writer.flush()?;
            }
            // Server-side-only faults (and the binary-only oversized
            // frame) are a no-op on the text client.
            Some(
                Fault::ForceBusy
                | Fault::StallHandler { .. }
                | Fault::OversizedFrame { .. }
                | Fault::ForgeSeq,
            )
            | None => {
                self.writer.write_all(message.as_bytes())?;
                self.writer.flush()?;
            }
        }
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches(['\r', '\n']).to_owned())
    }

    /// [`Client::request`] with bounded retries on `BUSY` (load-shed or
    /// forced — nothing was executed) and on a dead connection, with
    /// exponential backoff + jitter between attempts. A shed `BUSY`
    /// closes the connection, so a failed resend reconnects to the
    /// original peer address first. Retries are counted in
    /// [`client_retries_total`]; the last outcome is returned when the
    /// attempt budget runs out.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        policy: RetryPolicy,
    ) -> std::io::Result<String> {
        let mut backoff = Backoff::new(policy.base_ms, policy.max_ms, policy.seed);
        let mut attempt = 0u32;
        loop {
            let result = self.request(line);
            let (retryable, reconnect) = match &result {
                Ok(response) => (response == "BUSY", false),
                Err(e) => (
                    matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionRefused
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::BrokenPipe
                    ) && self.plan.is_none(),
                    true,
                ),
            };
            if !retryable || attempt + 1 >= policy.max_attempts.max(1) {
                return result;
            }
            attempt += 1;
            CLIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff.next_delay());
            if reconnect {
                let Some(addr) = self.addr else { return result };
                match Client::connect(addr) {
                    Ok(fresh) => {
                        self.reader = fresh.reader;
                        self.writer = fresh.writer;
                    }
                    Err(_) => continue, // next attempt retries the connect
                }
            }
        }
    }
}

/// One binary-protocol connection: buffered sends with client-chosen
/// request ids, explicit [`BinaryClient::flush`], and
/// [`BinaryClient::recv`] returning response frames in whatever order
/// the server produced them.
///
/// The pipelined pattern is `send`×K → `flush` → `recv`×K (or the
/// [`BinaryClient::pipeline`] convenience, which restores request
/// order). The very first byte this client writes is
/// [`wire::REQ_MAGIC`], which is what flips the server's front-end
/// sniff to binary.
pub struct BinaryClient {
    stream: TcpStream,
    /// Received-but-undecoded bytes (partial trailing frame).
    rbuf: Vec<u8>,
    /// Decode offset into `rbuf` (drained lazily between recvs).
    roff: usize,
    /// Encoded-but-unflushed request frames.
    wbuf: Vec<u8>,
    next_id: u64,
    plan: Option<Arc<FaultPlan>>,
    sent: u64,
}

impl BinaryClient {
    /// Connects to `addr` speaking the binary protocol.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<BinaryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(BinaryClient {
            stream,
            rbuf: Vec::new(),
            roff: 0,
            wbuf: Vec::new(),
            next_id: 1,
            plan: None,
            sent: 0,
        })
    }

    /// Connects with a fault plan; each [`BinaryClient::send`] consumes
    /// one request index.
    pub fn connect_with_faults<A: ToSocketAddrs>(
        addr: A,
        plan: Arc<FaultPlan>,
    ) -> std::io::Result<BinaryClient> {
        let mut client = BinaryClient::connect(addr)?;
        client.plan = Some(plan);
        Ok(client)
    }

    /// Caps how long [`BinaryClient::recv`] waits for response bytes.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn severed(reason: &str) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::ConnectionAborted, format!("injected fault: {reason}"))
    }

    /// Encodes one request into the send buffer (applying any client
    /// fault scheduled for this index) and returns its request id.
    /// Nothing hits the wire until [`BinaryClient::flush`].
    pub fn send(&mut self, request: &Request) -> std::io::Result<u64> {
        self.send_with(|id, out| wire::encode_request(id, request, out))
    }

    /// [`BinaryClient::send`] over any frame encoder.
    fn send_with(&mut self, encode: impl Fn(u64, &mut Vec<u8>)) -> std::io::Result<u64> {
        let index = self.sent;
        self.sent += 1;
        let id = self.next_id;
        self.next_id += 1;
        let fault = self.plan.as_ref().and_then(|p| p.fault_at(index)).cloned();
        match fault {
            Some(Fault::EarlyEof) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(Self::severed("early EOF"));
            }
            Some(Fault::TornWrite { bytes }) => {
                // Flush what honest requests are already owed, then send
                // a strictly incomplete frame and sever.
                let mut frame = Vec::new();
                encode(id, &mut frame);
                let n = bytes.min(frame.len().saturating_sub(1));
                self.flush()?;
                self.stream.write_all(&frame[..n])?;
                self.stream.flush()?;
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(Self::severed("torn frame"));
            }
            Some(Fault::OversizedFrame { declared }) => {
                // A forged header claiming a `declared`-byte body, then a
                // few junk bytes: the server must reject from the header
                // alone and close. The frame is never completed.
                self.flush()?;
                let mut forged = vec![wire::REQ_MAGIC];
                forged.extend_from_slice(&declared.to_le_bytes());
                forged.extend_from_slice(&[0xEE; 4]);
                self.stream.write_all(&forged)?;
                self.stream.flush()?;
                return Ok(id);
            }
            Some(Fault::DelayMs { ms }) => {
                // Slow-loris a frame: half now, a pause, the rest.
                let mut frame = Vec::new();
                encode(id, &mut frame);
                let half = frame.len() / 2;
                self.flush()?;
                self.stream.write_all(&frame[..half])?;
                self.stream.flush()?;
                std::thread::sleep(Duration::from_millis(ms));
                self.stream.write_all(&frame[half..])?;
                self.stream.flush()?;
                return Ok(id);
            }
            Some(Fault::ForceBusy | Fault::StallHandler { .. } | Fault::ForgeSeq) | None => {}
        }
        encode(id, &mut self.wbuf);
        Ok(id)
    }

    /// Writes every buffered request frame to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.stream.flush()?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Receives the next response frame, in server completion order —
    /// under pipelining this is *not* necessarily send order; match on
    /// [`ResponseFrame::id`].
    pub fn recv(&mut self) -> std::io::Result<ResponseFrame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match wire::decode_response(&self.rbuf[self.roff..]) {
                Decoded::Frame { frame, consumed } => {
                    self.roff += consumed;
                    if self.roff == self.rbuf.len() {
                        self.rbuf.clear();
                        self.roff = 0;
                    }
                    return Ok(frame);
                }
                Decoded::Incomplete => {}
                Decoded::Oversized { declared } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("response frame declares {declared} bytes"),
                    ));
                }
                Decoded::Malformed { reason, .. } | Decoded::Unparsed { reason, .. } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad response frame: {reason}"),
                    ));
                }
                Decoded::Corrupt { reason } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad response frame: {reason}"),
                    ));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            // Compact the consumed prefix before growing the buffer.
            if self.roff > 0 {
                self.rbuf.drain(..self.roff);
                self.roff = 0;
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// One synchronous request/response with the text-protocol `line`
    /// carried verbatim in a `TEXT` frame; the text-protocol response line
    /// comes back.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let id = self.send_with(|id, out| wire::encode_text(id, line.trim_end(), out))?;
        self.answer_line(id)
    }

    /// One synchronous single-line request, sent under its own verb code
    /// (or as its canonical line in a `TEXT` frame when it has none).
    pub fn call(&mut self, request: &Request) -> std::io::Result<String> {
        let id = self.send(request)?;
        self.answer_line(id)
    }

    /// One synchronous planned `QUERY` (the hot cached path).
    pub fn query(&mut self, doc: u64, xpath: &str) -> std::io::Result<String> {
        self.call(&Request::Query { doc, xpath: xpath.to_owned(), engine: Engine::Planned })
    }

    fn answer_line(&mut self, id: u64) -> std::io::Result<String> {
        self.flush()?;
        match self.expect(id)?.response {
            WireResponse::Line(line) => Ok(line),
            WireResponse::Batch(_) | WireResponse::Blob(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "non-line response to a single request",
            )),
        }
    }

    /// One `MQUERY` batch: one frame out, one response line per xpath
    /// back, in xpath order.
    pub fn mquery(&mut self, doc: u64, xpaths: &[&str]) -> std::io::Result<Vec<String>> {
        self.batch(doc, xpaths, false)
    }

    /// One `MLABEL` batch (same shape as [`BinaryClient::mquery`]).
    pub fn mlabel(&mut self, doc: u64, xpaths: &[&str]) -> std::io::Result<Vec<String>> {
        self.batch(doc, xpaths, true)
    }

    fn batch(
        &mut self,
        doc: u64,
        xpaths: &[&str],
        labels: bool,
    ) -> std::io::Result<Vec<String>> {
        let xpaths: Vec<String> = xpaths.iter().map(|x| (*x).to_owned()).collect();
        let request = if labels {
            Request::MLabel { doc, xpaths }
        } else {
            Request::MQuery { doc, xpaths }
        };
        let id = self.send(&request)?;
        self.flush()?;
        match self.expect(id)?.response {
            WireResponse::Batch(lines) => Ok(lines),
            WireResponse::Line(line) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a batch response, got: {line}"),
            )),
            WireResponse::Blob(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected a batch response, got a blob",
            )),
        }
    }

    /// Pipelines `requests` — all sent before any response is read —
    /// and returns the responses **in request order**, re-associated by
    /// id however the server interleaved them.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
    ) -> std::io::Result<Vec<WireResponse>> {
        let mut ids = Vec::with_capacity(requests.len());
        for request in requests {
            ids.push(self.send(request)?);
        }
        self.flush()?;
        let mut by_id: Vec<Option<WireResponse>> = vec![None; requests.len()];
        for _ in 0..requests.len() {
            let frame = self.recv()?;
            match ids.iter().position(|&id| id == frame.id) {
                Some(slot) if by_id[slot].is_none() => by_id[slot] = Some(frame.response),
                _ => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected response id {}", frame.id),
                    ));
                }
            }
        }
        Ok(by_id.into_iter().map(|r| r.expect("all slots filled")).collect())
    }

    /// Receives until the frame answering `id` arrives; any other frame
    /// arriving first is a protocol error for the synchronous helpers.
    fn expect(&mut self, id: u64) -> std::io::Result<ResponseFrame> {
        let frame = self.recv()?;
        if frame.id != id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response id {} does not answer request {id}", frame.id),
            ));
        }
        Ok(frame)
    }
}
