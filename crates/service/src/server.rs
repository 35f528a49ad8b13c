//! The TCP front end: accept loop and the command dispatcher tying
//! catalog, evaluators and metrics together.
//!
//! Concurrency model: a dedicated acceptor thread counts each accepted
//! connection and hands it to the multiplexer ([`crate::mux`]), whose
//! few workers drain every connection of either protocol. The server
//! holds at most `threads + queue_cap` connections; beyond that the
//! acceptor *sheds* a new one with a single `BUSY` line instead of
//! holding it, so hostile connection floods cannot pile up. The mux's
//! connection state machine fixes the codec from the first byte, frames
//! requests, enforces the read and write deadlines, applies the
//! [`FaultPlan`], counts, and hands each request to [`serve`] — inline,
//! or on the fixed [`ThreadPool`] when it can block. Text requests are
//! answered strictly in order — one response line per request line,
//! which is what lets clients pipeline naively.
//!
//! [`serve`] holds each request to an overall per-request deadline.
//! Every limit trips a dedicated metrics counter.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plan::ResultCache;
use schemes::NumberingScheme;
use xmldom::{NodeKind, TreeStats};
use xpath::{AxisProvider, Evaluator, NameIndexed, RuidAxes, SpanAxes, StepStats, TreeAxes};

use durable::{Applied, DocState, FsyncPolicy, WalOp};
use ruid_core::PartitionConfig;

use crate::catalog::{Catalog, DocId, LoadedDoc};
use crate::fault::{Fault, FaultPlan};
use crate::metrics::{Command, Metrics};
use crate::mux::Mux;
use crate::persist::Durability;
use crate::prom::{self, Sources};
use crate::proto::{self, Engine, Request, TraceCmd};
use crate::replication::{self, ReplState};
use crate::trace::{RequestTrace, Span, Tracer, SLOWLOG_CAPACITY};
use crate::wire::WireResponse;
use par::{PoolStats, ThreadPool};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Size of the thread pool that runs the requests that block (LOAD,
    /// SNAPSHOT, the commits, …) off the multiplexer's poll loops, and,
    /// capped at the host's cores, the fan-out of one document build; 1
    /// forces the sequential build.
    pub threads: usize,
    /// Catalog shard count.
    pub shards: usize,
    /// Bounds the thread pool's job queue: a blocking request beyond it
    /// is answered `BUSY`. With `threads` it also bounds the connections
    /// held: once `threads + queue_cap` connections of either protocol
    /// are open, a new one is answered `BUSY` and closed.
    pub queue_cap: usize,
    /// `LOAD` partition depth default (`PartitionConfig::by_depth`).
    pub depth: usize,
    /// Whether documents are loaded with `SCAN` allowed. (No store is
    /// built: the rows are derived from the tree and labels on request.)
    pub with_store: bool,
    /// Frame-size limit: longest accepted request line, in bytes
    /// (excluding the terminator). Longer lines get `ERR line too long`.
    pub max_line_bytes: usize,
    /// Read deadline: a request line must complete within this many
    /// milliseconds of its first byte (slow-loris guard). Idle
    /// connections with no partial line pending are not affected.
    pub read_timeout_ms: u64,
    /// Overall per-request deadline: handling that overruns it answers
    /// `ERR request deadline exceeded` instead of the result.
    pub request_timeout_ms: u64,
    /// Deterministic fault injection for chaos tests; `None` in
    /// production.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Durability directory: when set, startup recovers the catalog from
    /// it (snapshot + WAL replay) and every catalog change is logged to
    /// the write-ahead log before it takes effect. `None` keeps the
    /// catalog purely in memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// When the WAL is forced to disk (ignored without `data_dir`).
    pub fsync: FsyncPolicy,
    /// Optional plain-HTTP Prometheus endpoint: when set, a listener on
    /// this address answers every request with the text exposition
    /// (`serve --metrics-addr`). `None` keeps metrics wire-protocol only.
    pub metrics_addr: Option<String>,
    /// Capacity of the planned-query result cache (entries).
    pub plan_cache_cap: usize,
    /// Follow a leader at this address (`serve --follow`): bootstrap
    /// from its newest snapshot, tail its WAL, serve reads, and reject
    /// writes with a redirect until `PROMOTE`.
    pub follow: Option<String>,
    /// How long a caught-up follower sleeps between tail polls, in
    /// milliseconds.
    pub repl_poll_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 8,
            shards: 16,
            queue_cap: 64,
            depth: 3,
            with_store: true,
            max_line_bytes: 64 * 1024,
            read_timeout_ms: 2_000,
            request_timeout_ms: 30_000,
            fault_plan: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            metrics_addr: None,
            plan_cache_cap: 1024,
            follow: None,
            repl_poll_ms: 40,
        }
    }
}

impl ServerConfig {
    pub(crate) fn read_deadline(&self) -> Duration {
        Duration::from_millis(self.read_timeout_ms.max(1))
    }

    pub(crate) fn request_deadline(&self) -> Duration {
        Duration::from_millis(self.request_timeout_ms.max(1))
    }
}

/// The service (constructed via [`Server::start`]).
pub struct Server;

/// A running server: its bound address and the shutdown/join controls.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    follower: Option<JoinHandle<()>>,
    metrics_http_addr: Option<SocketAddr>,
    metrics_http: Option<JoinHandle<()>>,
}

/// Everything serving a request reads, owned once per server and shared
/// by the mux workers, the offload pool and the follower thread.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) durability: Option<Arc<Durability>>,
    pub(crate) tracer: Arc<Tracer>,
    pool_stats: Arc<PoolStats>,
    pub(crate) plan_cache: Arc<ResultCache>,
    pub(crate) repl: Arc<ReplState>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Monotone request index driving the fault plan, shared by every
    /// connection — text and binary alike.
    request_counter: AtomicU64,
    /// Bound address, for the self-connect that wakes the acceptor once
    /// a `SHUTDOWN` sets the flag (and the follower's name).
    pub(crate) listen_addr: SocketAddr,
}

impl Shared {
    /// Fresh state for a server bound at `listen_addr`: an empty catalog,
    /// zeroed counters, no shutdown requested.
    pub(crate) fn new(
        config: ServerConfig,
        listen_addr: SocketAddr,
        durability: Option<Arc<Durability>>,
        pool_stats: Arc<PoolStats>,
    ) -> Shared {
        Shared {
            catalog: Arc::new(Catalog::new(config.shards)),
            metrics: Arc::new(Metrics::new()),
            tracer: Arc::new(Tracer::new(SLOWLOG_CAPACITY)),
            plan_cache: Arc::new(ResultCache::new(config.plan_cache_cap)),
            pool_stats,
            repl: Arc::new(match &config.follow {
                Some(leader) => ReplState::new_follower(leader.clone()),
                None => ReplState::new_leader(),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            request_counter: AtomicU64::new(0),
            listen_addr,
            config,
            durability,
        }
    }

    /// Takes the next fault-plan index and returns the fault scheduled
    /// there, if any.
    pub(crate) fn next_fault(&self) -> Option<Fault> {
        let index = self.request_counter.fetch_add(1, Ordering::Relaxed);
        self.config.fault_plan.as_ref().and_then(|plan| plan.fault_at(index)).cloned()
    }

    fn sources(&self) -> Sources<'_> {
        Sources {
            metrics: &self.metrics,
            catalog: Some(&self.catalog),
            durability: self.durability.as_deref(),
            tracer: Some(&self.tracer),
            pool: Some(&self.pool_stats),
            plan_cache: Some(&self.plan_cache),
            repl: Some(&self.repl),
        }
    }
}

impl Server {
    /// Binds `config.addr`, spawns the multiplexer, its thread pool and
    /// the acceptor thread, and returns immediately.
    ///
    /// With `config.data_dir` set, the catalog is first recovered from
    /// the newest valid snapshot plus the WAL chain; documents whose
    /// persisted sections fail their checksums are quarantined (reported
    /// via `METRICS` and stderr), never served, and never abort startup.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (durability, docs, next_id) = match &config.data_dir {
            Some(dir) => {
                let (durability, docs, next_doc_id) = Durability::open(dir, config.fsync)?;
                let report = durability.recovery();
                if report.replayed > 0 || report.snapshot_docs > 0 {
                    eprintln!(
                        "[ruid-service] recovered {} document(s) from {} \
                         (snapshot {:?}, {} wal records replayed, {} torn bytes dropped)",
                        docs.len(),
                        dir.display(),
                        report.snapshot_generation,
                        report.replayed,
                        report.truncated_bytes,
                    );
                }
                for (id, reason) in &report.quarantined {
                    eprintln!("[ruid-service] quarantined document {id}: {reason}");
                }
                (Some(Arc::new(durability)), docs, next_doc_id)
            }
            None => (None, Vec::new(), 1),
        };
        let pool = ThreadPool::new(config.threads, config.queue_cap);
        let shared = Arc::new(Shared::new(config, addr, durability, pool.stats()));
        install_recovered(&shared, docs, next_id);

        // Optional plain-HTTP Prometheus endpoint: a dedicated listener
        // so scrapers never compete with protocol clients for workers.
        let (metrics_http_addr, metrics_http) = match &shared.config.metrics_addr {
            Some(bind) => {
                let http_listener = TcpListener::bind(bind)?;
                let http_addr = http_listener.local_addr()?;
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("ruid-metrics".into())
                    .spawn(move || serve_metrics_http(&http_listener, &shared))
                    .expect("spawn metrics thread");
                (Some(http_addr), Some(handle))
            }
            None => (None, None),
        };

        let mux = Mux::start(Arc::clone(&shared), pool);

        // Follower mode: one dedicated thread bootstraps from the leader
        // and tails its WAL; the serving path above answers reads from
        // whatever committed prefix it has applied.
        let follower = shared
            .config
            .follow
            .is_some()
            .then(|| replication::spawn_follower(Arc::clone(&shared)));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ruid-acceptor".into())
                .spawn(move || {
                    accept_loop(&listener, &shared, &mux);
                    mux.join();
                    // Best-effort: whatever reached the WAL is on disk
                    // before the process can exit.
                    if let Some(d) = &shared.durability {
                        let _ = d.persist();
                    }
                    // Wake the metrics listener so it observes shutdown.
                    if let Some(http_addr) = metrics_http_addr {
                        let _ = TcpStream::connect(http_addr);
                    }
                    eprintln!("[ruid-service] final metrics\n{}", prom::render_line(&shared.sources()));
                })
                .expect("spawn acceptor thread")
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            follower,
            metrics_http_addr,
            metrics_http,
        })
    }
}

/// Answers every HTTP request on `listener` with the Prometheus text
/// exposition: read the request head (discarded — every path scrapes),
/// write one `HTTP/1.0 200` response, close. One connection at a time is
/// plenty for a scraper, and it keeps the endpoint allocation-bounded.
fn serve_metrics_http(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1_000)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
        // Drain the request head up to the blank line (bounded).
        let mut head = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    head.extend_from_slice(&buf[..n]);
                    if head.windows(4).any(|w| w == b"\r\n\r\n")
                        || head.windows(2).any(|w| w == b"\n\n")
                        || head.len() > 16 * 1024
                    {
                        break;
                    }
                }
            }
        }
        let body = prom::render_exposition(&shared.sources());
        let response = format!(
            "HTTP/1.0 200 OK\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len(),
        );
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// The shared catalog, for reading; an embedding process loads
    /// documents through [`ServerHandle::load`].
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// Loads the XML file at `path` as a `LOAD <path>` request would, at
    /// the configured depth — built, logged and installed by the one
    /// commit path — and returns the new document's id. The CLI preloads
    /// its file arguments through this.
    pub fn load(&self, path: &str) -> Result<DocId, String> {
        let config = &self.shared.config;
        let op = load_op(path, config.depth, config.with_store)?;
        commit(&self.shared, &mut None, op, false).map(|(id, _)| id)
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The durability manager, when the server was started with a data
    /// directory.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.shared.durability.as_ref()
    }

    /// The request tracer behind `TRACE` / `SLOWLOG`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.tracer
    }

    /// The queue statistics of the thread pool that runs the requests
    /// that can block.
    pub fn pool_stats(&self) -> &Arc<PoolStats> {
        &self.shared.pool_stats
    }

    /// The planned-query result cache.
    pub fn plan_cache(&self) -> &Arc<ResultCache> {
        &self.shared.plan_cache
    }

    /// The replication state: role, lag gauges, shipping counters.
    pub fn repl(&self) -> &Arc<ReplState> {
        &self.shared.repl
    }

    /// The bound address of the Prometheus HTTP endpoint, when enabled.
    pub fn metrics_http_addr(&self) -> Option<SocketAddr> {
        self.metrics_http_addr
    }

    /// True once `SHUTDOWN` was received or [`ServerHandle::stop`] ran.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and waits for the acceptor + workers to finish.
    pub fn stop(mut self) {
        self.begin_stop();
        self.join_inner();
    }

    /// Waits for the server to finish (e.g. after a client `SHUTDOWN`).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn begin_stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor (and metrics listener) if blocked in accept().
        let _ = TcpStream::connect(self.shared.listen_addr);
        if let Some(http_addr) = self.metrics_http_addr {
            let _ = TcpStream::connect(http_addr);
        }
    }

    fn join_inner(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.follower.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_http.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_stop();
            self.join_inner();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, mux: &Mux) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.record_connection();
        let adopted = match stream.set_nodelay(true).and_then(|()| stream.set_nonblocking(true)) {
            Ok(()) => mux.adopt(stream),
            Err(_) => continue,
        };
        if let Err(mut stream) = adopted {
            // Load shedding: one BUSY line, then close — never hold a
            // connection beyond the bound.
            shared.metrics.record_shed();
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = stream.write_all(b"BUSY\n");
        }
    }
}

/// Runs `f`, charging its wall time to `span` when the request is traced.
fn timed<R>(
    trace: &mut Option<&mut RequestTrace>,
    span: Span,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        None => f(),
        Some(t) => {
            let started = Instant::now();
            let r = f();
            t.record(span, started.elapsed().as_nanos() as u64);
            r
        }
    }
}

/// `ERR <message>` with the message escaped onto one line.
fn err_line(message: &str) -> String {
    format!("ERR {}", proto::escape_line(message))
}

/// Serves one request for either protocol: the trace, the fault stall,
/// the per-request deadline, metrics, the hand-off to `deliver` (timed as
/// the `Write` span; the connection encodes the reply there), the slowlog
/// entry, and the acceptor wake-up after a successful `SHUTDOWN`.
/// `request` is what the codec decoded; `parse_ns` is `Some` exactly when
/// the request is traced, holding how long its text line took to parse
/// (0 for a binary frame). Returns whatever `deliver` returned.
pub(crate) fn serve<R>(
    shared: &Shared,
    request: Result<Request, String>,
    parse_ns: Option<u64>,
    stall_ms: Option<u64>,
    deliver: impl FnOnce(WireResponse) -> R,
) -> R {
    let started = Instant::now();
    let mut trace = parse_ns.map(|ns| {
        let mut trace = shared.tracer.begin();
        trace.record(Span::Parse, ns);
        trace
    });
    if let Some(ms) = stall_ms {
        // The stall happens "inside" handling, so it counts against the
        // per-request deadline.
        std::thread::sleep(Duration::from_millis(ms));
    }
    let mut batch_failed = false;
    let (command, slowlog_line, result) = match request {
        Ok(request) => {
            let slowlog_line = trace.as_ref().map(|_| request.to_string());
            let command = request.command();
            let result = execute(request, shared, &mut trace.as_mut(), &mut batch_failed);
            (command, slowlog_line, result.map_err(|e| err_line(&e)))
        }
        // A line that does not parse answers its reason verbatim.
        Err(e) => (Command::Invalid, trace.as_ref().map(|_| e.clone()), Err(format!("ERR {e}"))),
    };
    let elapsed = started.elapsed();
    let mut is_error = result.is_err() || batch_failed;
    let mut response = result.unwrap_or_else(WireResponse::Line);
    if elapsed > shared.config.request_deadline() {
        shared.metrics.record_deadline_request();
        response = WireResponse::Line(format!(
            "ERR request deadline exceeded ({} ms limit)",
            shared.config.request_timeout_ms
        ));
        is_error = true;
    }
    shared.metrics.record(command, is_error, elapsed);
    let delivered = timed(&mut trace.as_mut(), Span::Write, || deliver(response));
    if let Some(t) = &trace {
        let line = slowlog_line.as_deref().unwrap_or("");
        let total_ns = started.elapsed().as_nanos() as u64 + parse_ns.unwrap_or(0);
        shared.tracer.observe(command, line, total_ns, t);
    }
    if command == Command::Shutdown && !is_error {
        shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(shared.listen_addr);
    }
    delivered
}

/// The batch body shared by `MQUERY`/`MLABEL`: pin the document's
/// snapshot `Arc` once, answer every sub-query from the planned engine
/// (and its result cache) against that one pinned generation. A missing
/// document still answers one line per sub-query, so the batch reply
/// always has the arity the client sent. Also returns whether any
/// sub-query failed.
fn run_batch(
    shared: &Shared,
    trace: &mut Option<&mut RequestTrace>,
    doc: u64,
    xpaths: &[String],
) -> (Vec<String>, bool) {
    shared.metrics.record_batch_size(xpaths.len() as u64);
    let results: Vec<Result<String, String>> =
        match timed(trace, Span::Lookup, || fetch(&shared.catalog, doc)) {
            Ok(loaded) => timed(trace, Span::Eval, || {
                xpaths
                    .iter()
                    .map(|xpath| {
                        planned_cached(&loaded, doc, xpath, &shared.plan_cache, &shared.metrics)
                    })
                    .collect()
            }),
            Err(e) => vec![Err(e); xpaths.len()],
        };
    let failed = results.iter().any(Result::is_err);
    let lines = results.into_iter().map(|r| r.unwrap_or_else(|e| err_line(&e))).collect();
    (lines, failed)
}

fn fetch(catalog: &Catalog, id: u64) -> Result<Arc<LoadedDoc>, String> {
    catalog.get(id).ok_or_else(|| format!("no document {id} (use LOAD / LIST)"))
}

/// Parses the `INSERT` fragment into the single node it denotes: bare
/// text when it doesn't start with `<`, otherwise one childless piece of
/// markup (empty element, comment, or processing instruction). Structural
/// updates are node-at-a-time — the WAL logs exactly one node per record,
/// so replay granularity matches the paper's per-area relabel costs.
fn parse_fragment(fragment: &str) -> Result<durable::NodeContent, String> {
    if fragment.is_empty() {
        return Err("empty fragment".into());
    }
    if !fragment.starts_with('<') {
        return Ok(durable::NodeContent::Text(fragment.to_owned()));
    }
    // Wrapping makes comments/PIs/attributes parseable by the ordinary
    // document parser without a separate fragment grammar.
    let doc = xmldom::Document::parse(&format!("<w>{fragment}</w>"))
        .map_err(|e| format!("bad fragment: {e}"))?;
    let root = doc.root_element().ok_or("bad fragment")?;
    let mut nodes = doc.children(root);
    let node = nodes.next().ok_or("bad fragment: no node")?;
    if nodes.next().is_some() {
        return Err("fragment must be a single node".into());
    }
    if doc.children(node).next().is_some() {
        return Err("fragment must be childless (insert one node per request)".into());
    }
    durable::check_attribute_limit(&doc).map_err(|e| format!("bad fragment: {e}"))?;
    Ok(durable::NodeContent::from_node(&doc, node))
}

/// The `Load` record for the file at `path`, its id still to be drawn.
/// The text is read once: the build parses it and the WAL logs the same
/// bytes, so replay never depends on the file surviving unchanged.
fn load_op(path: &str, depth: usize, with_store: bool) -> Result<WalOp, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(WalOp::Load {
        doc_id: 0,
        path: path.to_owned(),
        config: PartitionConfig::by_depth(depth),
        with_store,
        xml,
    })
}

/// The one write path. The six write verbs, the follower's apply of a
/// shipped record and the CLI preload ([`ServerHandle::load`]) all change
/// the catalog here, in three steps:
///
/// 1. *Stage.* A load is built outside the writer lock: parsing and
///    labelling are the expensive part and touch nothing shared. An
///    update takes the lock, pins the latest committed base and stages
///    its copy-on-write successor with [`LoadedDoc::apply_update`] (over
///    the `DocState::apply` WAL replay runs). An unload checks that the
///    document exists. A rejected op reaches neither the log nor the
///    catalog.
/// 2. *Stamp.* A load draws its id only once its build has succeeded —
///    unless it was `shipped`, when the record carries the leader's id.
///    Every installed bundle draws a generation.
/// 3. *Log and install.* The install runs inside `log_with`, after the
///    WAL append, so WAL order is commit order and a failed append
///    changes nothing.
///
/// The writer lock is held through the install for every kind of op, so
/// each copy-on-write starts from the latest committed state and no
/// record for a document can follow its `Unload`; readers never take it.
/// The result cache is purged only when a document leaves the catalog:
/// an updated document's new generation already retires its entries.
///
/// Returns the document's id and the verb's `OK` reply.
pub(crate) fn commit(
    shared: &Shared,
    trace: &mut Option<&mut RequestTrace>,
    mut op: WalOp,
    shipped: bool,
) -> Result<(DocId, String), String> {
    /// What the install does to the catalog.
    enum Install {
        Insert(LoadedDoc),
        Replace(LoadedDoc),
        Remove,
    }
    let Shared { config, catalog, metrics, durability, plan_cache, .. } = shared;
    let built = match op {
        WalOp::Load { .. } | WalOp::LoadStream { .. } => {
            let exec = par::Executor::new(config.threads.min(par::available_threads()));
            Some(timed(trace, Span::Eval, || LoadedDoc::build_op(&op, &exec))?)
        }
        _ => None,
    };
    // Declared before the writer guard so it outlives it: once readers
    // move on, this is the last reference to the displaced generation,
    // and freeing a bundle must not hold up the next writer.
    let base;
    let _writers = catalog.begin_write();
    let (install, reply, update) = if let Some(mut loaded) = built {
        if !shipped {
            let id = catalog.reserve_id();
            if let WalOp::Load { doc_id, .. } | WalOp::LoadStream { doc_id, .. } = &mut op {
                *doc_id = id;
            }
        }
        loaded.generation = catalog.next_generation();
        let (nodes, areas) = (loaded.doc.node_count(), loaded.scheme.area_count());
        let reply = format!("OK id={} nodes={nodes} areas={areas}", op.doc_id());
        (Install::Insert(loaded), reply, None)
    } else if let WalOp::Unload { doc_id } = op {
        if catalog.get(doc_id).is_none() {
            return Err(format!("no document {doc_id}"));
        }
        (Install::Remove, format!("OK unloaded {doc_id}"), None)
    } else {
        base = timed(trace, Span::Lookup, || fetch(catalog, op.doc_id()))?;
        let generation = catalog.next_generation();
        let (next, applied) = timed(trace, Span::Eval, || base.apply_update(&op, generation))?;
        let (detail, command) = match &applied {
            Applied::Inserted { node, .. } => {
                let label = proto::fmt_label(&next.scheme.label_of(*node));
                (format!("label={label}"), Command::Insert)
            }
            Applied::Deleted { nodes, .. } => (format!("removed={nodes}"), Command::Delete),
            Applied::Repartitioned { .. } => {
                (format!("areas={}", next.scheme.area_count()), Command::Relabel)
            }
        };
        let stats = applied.stats();
        let reply = format!(
            "OK {detail} generation={generation} relabeled={} dropped={} full_rebuild={}",
            stats.relabeled, stats.dropped, stats.full_rebuild,
        );
        (Install::Replace(next), reply, Some(command))
    };
    let doc_id = op.doc_id();
    let install = || match install {
        Install::Insert(loaded) => {
            catalog.insert_with_id(doc_id, loaded);
            true
        }
        Install::Replace(next) => catalog.replace(doc_id, next),
        Install::Remove => catalog.remove(doc_id),
    };
    let installed = match durability {
        Some(d) => timed(trace, Span::Wal, || d.log_with(&op, install))?,
        None => install(),
    };
    if !installed {
        // Unreachable while every writer holds the lock, but never report
        // a commit the catalog did not make.
        return Err(format!("no document {doc_id}"));
    }
    if matches!(op, WalOp::Unload { .. }) {
        plan_cache.purge_doc(doc_id);
    }
    if let (Some(command), false) = (update, shipped) {
        metrics.record_update(command);
    }
    Ok((doc_id, reply))
}

/// The one install of recovered documents, shared by a restart (its
/// snapshot plus WAL replay) and a follower's bootstrap (the leader's
/// snapshot). Under the writer lock it drops whatever the catalog held,
/// purging those documents' cached responses, and installs each document
/// stamped with a generation from the counter live commits draw from, so
/// no response cached before can alias one after. The id counter is
/// raised to at least `next_id`, which the caller computes over the
/// quarantined documents too, so a dropped document's id is never handed
/// out again.
pub(crate) fn install_recovered(shared: &Shared, docs: Vec<DocState>, next_id: DocId) {
    let Shared { catalog, plan_cache, .. } = shared;
    let _writers = catalog.begin_write();
    for id in catalog.ids() {
        catalog.remove(id);
        plan_cache.purge_doc(id);
    }
    catalog.ensure_next_id(next_id);
    for state in docs {
        let mut loaded =
            LoadedDoc::from_recovered(state.path, state.doc, state.scheme, state.with_store);
        loaded.generation = catalog.next_generation();
        catalog.insert_with_id(state.id, loaded);
    }
}

/// Executes one request. A batch answers `Ok` even when sub-queries
/// fail — each failure is its own `ERR` line — and sets `batch_failed`.
fn execute(
    request: Request,
    shared: &Shared,
    trace: &mut Option<&mut RequestTrace>,
    batch_failed: &mut bool,
) -> Result<WireResponse, String> {
    let Shared { config, catalog, metrics, tracer, plan_cache, repl, .. } = shared;
    let durability = shared.durability.as_deref();
    // A follower's catalog is the leader's replayed history — local
    // writes would fork it. Reject them with a redirect; reads (and the
    // replication verbs themselves) flow normally.
    if matches!(
        request,
        Request::Load { .. }
            | Request::LoadStream { .. }
            | Request::Unload(_)
            | Request::Insert { .. }
            | Request::Delete { .. }
            | Request::Relabel(_)
    ) {
        if let Some(leader) = repl.leader_addr() {
            return Err(format!(
                "read-only replica: writes go to the leader at {leader} \
                 (PROMOTE to accept writes here)"
            ));
        }
    }
    let line = match request {
        Request::Ping => Ok("OK pong".into()),
        // The write verbs build the op; `commit` does the rest.
        Request::Load { path, depth } => {
            let op = load_op(&path, depth, config.with_store)?;
            commit(shared, trace, op, false).map(|(_, reply)| reply)
        }
        Request::LoadStream { name, events } => {
            let op = WalOp::LoadStream {
                doc_id: 0,
                path: name,
                config: PartitionConfig::by_depth(config.depth),
                with_store: config.with_store,
                events,
            };
            commit(shared, trace, op, false).map(|(_, reply)| reply)
        }
        Request::Unload(id) => {
            commit(shared, trace, WalOp::Unload { doc_id: id }, false).map(|(_, reply)| reply)
        }
        Request::List => {
            let entries = catalog.entries();
            let mut out = format!("OK {}", entries.len());
            for (id, path) in entries {
                out.push_str(&format!(" {id}={}", proto::escape_line(&path)));
            }
            Ok(out)
        }
        Request::Label { doc, xpath } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            timed(trace, Span::Eval, || {
                planned_cached(&loaded, doc, &xpath, plan_cache, metrics)
            })
        }
        Request::Parent { doc, label } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            // Pure arithmetic (Fig. 6) — no node lookup, no I/O. The
            // checked form turns fabricated labels into ERR lines instead
            // of panicking the worker.
            match timed(trace, Span::Eval, || loaded.scheme.rparent_checked(&label))? {
                Some(parent) => Ok(format!("OK {}", proto::fmt_label(&parent))),
                None => Ok("OK none".into()),
            }
        }
        Request::Query { doc, xpath, engine } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            if engine == Engine::Planned {
                timed(trace, Span::Eval, || {
                    planned_cached(&loaded, doc, &xpath, plan_cache, metrics)
                })
            } else {
                let (hits, steps) =
                    timed(trace, Span::Eval, || run_query(&loaded, &xpath, engine))?;
                metrics.record_axis_steps(&steps);
                Ok(format_hits(&loaded, &hits))
            }
        }
        Request::Explain { doc, xpath } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            // Peek before running: whether a planned QUERY/LABEL for this
            // exact expression would currently be served from cache.
            let cached = plan_cache.peek(doc, &xpath, loaded.generation);
            let (hits, compiled, stats) =
                timed(trace, Span::Eval, || run_planned(&loaded, &xpath, metrics))?;
            let mut lines = vec![format!(
                "cache={} generation={}",
                if cached { "hit" } else { "miss" },
                loaded.generation,
            )];
            lines.extend(plan::render_explain(
                &xpath,
                &compiled,
                &stats,
                &loaded.summary,
                &loaded.doc,
                hits.len(),
            ));
            Ok(format!("OK {}", proto::escape_line(&lines.join("\n"))))
        }
        Request::Scan { doc, global } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            if loaded.store.is_none() {
                return Err("document loaded without a store (SCAN unavailable)".into());
            }
            let rows = timed(trace, Span::Eval, || loaded.scan_area(global));
            let mut out = format!("OK {}", rows.len());
            for (label, node) in rows {
                let (kind, name) = match loaded.doc.kind(node) {
                    NodeKind::Element { name, .. } => ("elem", loaded.doc.name_text(*name)),
                    NodeKind::Text(_) => ("text", ""),
                    NodeKind::Comment(_) => ("comment", ""),
                    NodeKind::ProcessingInstruction { target, .. } => ("pi", target.as_ref()),
                    NodeKind::Document => unreachable!("the document node carries no label"),
                };
                out.push(' ');
                out.push_str(&proto::fmt_label(&label));
                out.push('#');
                out.push_str(kind);
                out.push('#');
                out.push_str(&proto::escape_line(&name.replace(' ', "_")));
            }
            Ok(out)
        }
        Request::Get { doc, label } => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, doc))?;
            timed(trace, Span::Eval, || {
                let node = loaded
                    .scheme
                    .node_of(&label)
                    .ok_or_else(|| format!("no node carries {}", proto::fmt_label(&label)))?;
                Ok(format!(
                    "OK {}",
                    proto::escape_line(&loaded.doc.subtree_to_xml_string(node))
                ))
            })
        }
        Request::Stats(id) => {
            let loaded = timed(trace, Span::Lookup, || fetch(catalog, id))?;
            let root = loaded.doc.root_element().ok_or("document has no root element")?;
            let tree = TreeStats::collect(&loaded.doc, root);
            Ok(format!(
                "OK nodes={} elements={} maxdepth={} maxfanout={} areas={} kappa={} \
                 kbytes={} labelbits={} names={}",
                tree.node_count,
                tree.element_count,
                tree.max_depth,
                tree.max_fanout,
                loaded.scheme.area_count(),
                loaded.scheme.kappa(),
                loaded.scheme.ktable().memory_bytes(),
                loaded.scheme.label_width_bits(),
                loaded.doc.names().len(),
            ))
        }
        Request::Metrics { prom: true } => {
            let body = prom::render_exposition(&shared.sources());
            Ok(format!("OK {}", proto::escape_line(&body)))
        }
        Request::Metrics { prom: false } => Ok(format!("OK {}", prom::render_line(&shared.sources()))),
        Request::Snapshot => {
            let d = durability.ok_or("durability disabled (start with --data-dir)")?;
            let (generation, docs) = d.snapshot(catalog)?;
            Ok(format!("OK generation={generation} docs={docs}"))
        }
        Request::Persist => {
            let d = durability.ok_or("durability disabled (start with --data-dir)")?;
            let (records, bytes) = d.persist()?;
            Ok(format!("OK records={records} bytes={bytes}"))
        }
        Request::Insert { doc, parent, position, fragment } => {
            let content = parse_fragment(&fragment)?;
            let op = WalOp::Insert { doc_id: doc, parent, position, content };
            commit(shared, trace, op, false).map(|(_, reply)| reply)
        }
        Request::Delete { doc, label } => {
            let op = WalOp::Delete { doc_id: doc, label };
            commit(shared, trace, op, false).map(|(_, reply)| reply)
        }
        Request::Relabel(doc) => {
            let op = WalOp::Repartition { doc_id: doc };
            commit(shared, trace, op, false).map(|(_, reply)| reply)
        }
        Request::Trace(cmd) => {
            match cmd {
                TraceCmd::Status => {}
                TraceCmd::On => tracer.enable(),
                TraceCmd::Off => tracer.disable(),
                TraceCmd::ThresholdMs(ms) => tracer.set_threshold_ms(ms),
            }
            Ok(format!("OK {}", tracer.render_status()))
        }
        Request::Slowlog(n) => Ok(format!("OK {}", tracer.render_slowlog(n))),
        Request::Promote if !repl.is_follower() => Ok("OK role=leader promoted=false".into()),
        Request::Promote => {
            // The role flips only after the follower thread has stopped
            // applying, so no shipped record can land after a write this
            // newly-promoted leader accepts.
            repl.request_promotion();
            let deadline = Instant::now() + Duration::from_secs(10);
            while repl.is_follower() {
                if Instant::now() >= deadline {
                    return Err("promotion pending: follower thread did not stop in time"
                        .into());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok("OK role=leader promoted=true".into())
        }
        Request::Shutdown => {
            // The OK-ack is a durability promise: everything the WAL
            // acknowledged must survive a kill right after it. Force the
            // log down before replying (a failed fsync fails the verb).
            if let Some(d) = durability {
                timed(trace, Span::Wal, || d.persist())?;
            }
            Ok("OK bye".into())
        }
        // The batch and replication verbs answer more than one line.
        Request::MQuery { doc, xpaths } | Request::MLabel { doc, xpaths } => {
            let (lines, failed) = run_batch(shared, trace, doc, &xpaths);
            *batch_failed = failed;
            return Ok(WireResponse::Batch(lines));
        }
        Request::ReplHello { .. } => return replication::handle_hello(shared),
        Request::ReplSnapshot { generation } => {
            return replication::handle_snapshot(shared, generation)
        }
        Request::ReplTail { generation, offset, max_bytes } => {
            return replication::handle_tail(shared, generation, offset, max_bytes)
        }
        Request::ReplAck { generation, seq, bye, follower } => {
            repl.note_ack(&follower, generation, seq, bye);
            Ok("OK".into())
        }
    };
    line.map(WireResponse::Line)
}

/// The `OK <count> <label>...` rendering shared by `QUERY` and `LABEL`
/// (and the planned-query result cache).
fn format_hits(loaded: &LoadedDoc, hits: &[xmldom::NodeId]) -> String {
    let mut out = format!("OK {}", hits.len());
    for &node in hits {
        out.push(' ');
        out.push_str(&proto::fmt_label(&loaded.scheme.label_of(node)));
    }
    out
}

/// Plans and executes one query with the planner metrics recorded:
/// planner-time histogram, per-operator counters, and the fallback
/// evaluator's axis steps.
fn run_planned(
    loaded: &LoadedDoc,
    xpath: &str,
    metrics: &Metrics,
) -> Result<(Vec<xmldom::NodeId>, plan::Plan, plan::ExecStats), String> {
    let path = xpath::parse(xpath).map_err(|e| e.to_string())?;
    let planner_started = Instant::now();
    let compiled = plan::plan(&path, &loaded.summary, &loaded.doc);
    metrics.record_planner_time(planner_started.elapsed());
    let ev = Evaluator::new(
        &loaded.doc,
        NameIndexed::new(
            TreeAxes::with_order(&loaded.doc, &loaded.order),
            &loaded.doc,
            &loaded.index,
        ),
    );
    let (hits, stats) =
        plan::execute(&compiled, &loaded.doc, &loaded.summary, &loaded.order, &ev)
            .map_err(|e| e.to_string())?;
    metrics.record_plan_ops([
        stats.scans,
        stats.child_joins,
        stats.containment_joins,
        stats.value_probes,
        stats.fallback_steps,
    ]);
    metrics.record_axis_steps(&ev.step_stats());
    Ok((hits, compiled, stats))
}

/// The planned engine behind `QUERY`/`LABEL`: serve the cached response
/// when the document's generation still matches, otherwise plan, execute,
/// and cache the fresh rendering.
fn planned_cached(
    loaded: &LoadedDoc,
    doc_id: u64,
    xpath: &str,
    plan_cache: &ResultCache,
    metrics: &Metrics,
) -> Result<String, String> {
    if let Some(hit) = plan_cache.lookup(doc_id, xpath, loaded.generation) {
        return Ok((*hit).clone());
    }
    let (hits, _, _) = run_planned(loaded, xpath, metrics)?;
    let out = format_hits(loaded, &hits);
    plan_cache.insert(doc_id, xpath, loaded.generation, out.clone());
    Ok(out)
}

/// Runs `xpath` against a loaded document with the chosen axis provider;
/// returns the matches and the per-axis step counts of the evaluation.
///
/// Reads only — the scheme, index and document are all borrowed shared,
/// which is why any number of these can run at once.
pub fn run_query(
    loaded: &LoadedDoc,
    xpath: &str,
    engine: Engine,
) -> Result<(Vec<xmldom::NodeId>, StepStats), String> {
    let LoadedDoc { doc, scheme, order, index, .. } = loaded;
    let (interval, ancestry) = (loaded.interval.span_index(), loaded.ancestry.span_index());
    match engine {
        Engine::Tree => eval(doc, TreeAxes::with_order(doc, order), |ev| ev.query(xpath)),
        Engine::Ruid => eval(doc, RuidAxes::with_order(scheme, order), |ev| ev.query(xpath)),
        Engine::Indexed => {
            let axes = NameIndexed::new(RuidAxes::with_order(scheme, order), doc, index);
            eval(doc, axes, |ev| ev.query(xpath))
        }
        Engine::Interval => {
            eval(doc, SpanAxes::with_order(interval, "interval", order), |ev| ev.query(xpath))
        }
        Engine::Ancestry => {
            eval(doc, SpanAxes::with_order(ancestry, "ancestry", order), |ev| ev.query(xpath))
        }
        Engine::Planned => {
            let axes = NameIndexed::new(TreeAxes::with_order(doc, order), doc, index);
            eval(doc, axes, |ev| {
                plan::planned_query(xpath, doc, &loaded.summary, order, ev).map(|(hits, ..)| hits)
            })
        }
    }
}

/// Runs `run` on an evaluator over `axes`; returns its matches and the
/// evaluator's per-axis step counts.
fn eval<'a, A: AxisProvider>(
    doc: &'a xmldom::Document,
    axes: A,
    run: impl FnOnce(&Evaluator<'a, A>) -> Result<Vec<xmldom::NodeId>, String>,
) -> Result<(Vec<xmldom::NodeId>, StepStats), String> {
    let ev = Evaluator::new(doc, axes);
    let hits = run(&ev)?;
    Ok((hits, ev.step_stats()))
}
