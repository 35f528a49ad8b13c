//! # ruid-service — a concurrent XML labeling and query service
//!
//! The paper's central property (Lemma 1 / Fig. 6) is that rUID turns
//! parent and ancestor computation into pure in-memory arithmetic over a
//! label plus the small shared table *K*. Nothing about answering a
//! structural query mutates the numbering, so once a document is labeled,
//! any number of clients can resolve `rparent`, axes, and XPath queries
//! **concurrently** — reads never contend with each other.
//!
//! This crate is the serving layer that exploits that:
//!
//! * [`Catalog`] — a sharded document catalog. Each shard is an
//!   `RwLock<HashMap<DocId, Arc<LoadedDoc>>>`; a [`LoadedDoc`] bundles the
//!   parsed [`Document`](xmldom::Document), its
//!   [`Ruid2Scheme`](ruid_core::Ruid2Scheme), a
//!   [`NameIndex`](xpath::NameIndex) and one pre-order span table
//!   ([`DocOrder`](xmldom::DocOrder)). Hot-path commands (`PARENT`,
//!   `QUERY`, `SCAN`, `GET`) take a shard's *shared* lock just long enough
//!   to clone the `Arc`; `LOAD`/`UNLOAD` take one shard's exclusive lock.
//! * [`ThreadPool`] — a fixed pool of OS worker threads fed by a *bounded*
//!   MPSC job queue (backpressure on accept), shut down gracefully with
//!   poison pills and `join`.
//! * [`Metrics`] — lock-free per-command atomic counters, error counts and
//!   fixed-bucket latency histograms; `METRICS` reports p50/p95/p99
//!   computed on demand, and the server dumps the table on shutdown.
//! * [`Server`] / [`Client`] — a line-delimited text protocol over
//!   `std::net::TcpListener` (no external runtime), plus the in-process
//!   client used by the CLI and the test suite.
//! * [`FaultPlan`] — deterministic fault injection (torn writes, delayed
//!   reads, early EOFs, forced `BUSY`, handler stalls) keyed by request
//!   index, for chaos-testing both sides of the wire.
//!
//! ## Robustness
//!
//! The serving path is hardened for hostile traffic:
//!
//! * **Frame-size limit** (`max_line_bytes`): request lines are framed by
//!   a bounded reader; an oversized line gets `ERR line too long` and the
//!   connection resynchronizes at the next newline — no unbounded
//!   allocation.
//! * **Read deadline** (`read_timeout_ms`): a request line must complete
//!   within the deadline of its first byte (slow-loris guard); idle
//!   connections are unaffected.
//! * **Write deadline** (`write_timeout_ms`) and an **overall per-request
//!   deadline** (`request_timeout_ms`): overruns answer
//!   `ERR request deadline exceeded`.
//! * **Load shedding**: when the bounded job queue is full, new
//!   connections get a single `BUSY` line and are closed — the accept
//!   thread never blocks. `BUSY` is retryable: nothing was executed.
//! * Every limit trips a dedicated [`Metrics`] counter (`shed`,
//!   `oversized`, `torn`, `deadline_read`, `deadline_write`,
//!   `deadline_request`), reported by `METRICS`.
//!
//! ## Durability
//!
//! Started with a `data_dir`, the server persists the catalog:
//!
//! * Every catalog change (`LOAD`, `LOADSTREAM`, `UNLOAD`, `INSERT`,
//!   `DELETE`, `RELABEL`) is appended to a checksummed **write-ahead
//!   log** (fsync policy: `always` / `every=<n>` / `never`) *before* the
//!   catalog changes.
//! * `SNAPSHOT` writes a checksummed snapshot of every loaded document,
//!   installs it atomically (write-temp → fsync → rename), and rotates to
//!   a fresh WAL segment; `PERSIST` forces the WAL to disk on demand.
//! * On startup the newest valid snapshot is loaded and the WAL chain
//!   replayed; torn record tails are truncated, and a document whose
//!   persisted sections fail their checksums is **quarantined** (dropped
//!   with a reason, reported via `METRICS` and stderr) instead of
//!   aborting the server. See [`Durability`] and the `durable` crate.
//!
//! ## Protocol
//!
//! Two front ends share one port, negotiated from the first byte of the
//! connection (`0xB1` opens a binary frame and can never start a UTF-8
//! text line):
//!
//! * **Text** — one request per line, one response line per request
//!   (`OK ...` or `ERR <message>`), served thread-per-connection.
//! * **Binary** — length-prefixed frames with client-chosen request ids
//!   (see [`wire`]), N-deep pipelining with out-of-order responses, and
//!   the batch verbs `MQUERY`/`MLABEL` that answer many sub-queries
//!   under one catalog snapshot pin. Binary connections are drained by
//!   a small poll-loop multiplexer instead of parking one thread each;
//!   [`BinaryClient`] is the pipelining client side. Responses carry the
//!   exact bytes the text protocol would have written.
//!
//! The text grammar (see [`proto`]):
//!
//! ```text
//! PING                                  liveness probe
//! LOAD <path> [depth]                   parse + label a file, returns id=<n>
//! UNLOAD <doc>                          drop a document
//! LIST                                  loaded documents
//! LABEL <doc> <xpath>                   labels of every match
//! PARENT <doc> <g> <l> <true|false>     rparent() arithmetic (Fig. 6)
//! QUERY <doc> <xpath> [engine]          XPath; engine: tree|ruid|indexed
//! INSERT <doc> <g> <l> <r> <pos> <xml>  insert one node under the labelled parent (MVCC commit)
//! DELETE <doc> <g> <l> <r>              detach the labelled subtree (root rejected)
//! RELABEL <doc>                         repartition/renumber the whole document
//! SCAN <doc> <global>                   storage-order rows of one rUID area
//! GET <doc> <g> <l> <true|false>        subtree XML of one identifier
//! STATS <doc>                           tree + numbering statistics
//! METRICS [prom]                        per-command counters + latency (or Prometheus text)
//! SNAPSHOT                              install a catalog snapshot, rotate the WAL
//! PERSIST                               fsync the write-ahead log now
//! TRACE [on|off|<threshold-ms>]         per-request tracing state / slow threshold
//! SLOWLOG [n]                           newest n captured slow requests with span timings
//! PROMOTE                               promote a follower replica to leader
//! SHUTDOWN                              graceful stop
//! ```
//!
//! ## Replication
//!
//! Started with `--follow <leader-addr>`, the server runs as a
//! **follower replica**: it bootstraps from the leader's newest snapshot,
//! tails the leader's WAL over the binary protocol (`REPL HELLO` /
//! `REPL SNAPSHOT` / `REPL TAIL` / `REPL ACK`), applies each shipped
//! record through the same commit path as a local write, serves reads,
//! and rejects writes with a redirect to the leader. Sequence
//! discontinuities or torn records force a clean re-bootstrap — the
//! follower never serves a hybrid state. `PROMOTE` detaches the follower
//! and flips it to leader. See the `replication` module and DESIGN.md §16.
//!
//! ## Observability
//!
//! * [`Tracer`] — per-request trace ids and span timings
//!   (parse → lookup → eval → wal → write) with a ring-buffer slow-query
//!   log (`TRACE` / `SLOWLOG`). Off by default; one relaxed atomic load
//!   per request while off.
//! * `METRICS prom` and the optional `serve --metrics-addr` plain-HTTP
//!   endpoint expose every counter, gauge and histogram in the Prometheus
//!   text format (cumulative `_bucket{le=...}` plus `_sum`/`_count`),
//!   including thread-pool queue depth, work-stealing counts, WAL
//!   append/fsync/snapshot timings and per-axis XPath step counters.
//!
//! ## Example
//!
//! ```no_run
//! use ruid_service::{Client, Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let resp = client.request("LOAD data/auction.xml").unwrap();
//! assert!(resp.starts_with("OK id="));
//! client.request("QUERY 1 //item/name").unwrap();
//! client.request("SHUTDOWN").unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]

mod catalog;
mod client;
mod fault;
mod framing;
mod metrics;
mod mux;
mod persist;
mod prom;
pub mod proto;
mod replication;
mod server;
mod trace;
pub mod wire;

pub use catalog::{Catalog, DocId, LoadedDoc};
pub use client::{client_retries_total, BinaryClient, Client, RetryPolicy};
// Durability building blocks, re-exported so embedders configure the
// server without naming the `durable` crate directly.
pub use durable::{FsyncPolicy, WalOp};
pub use fault::{Fault, FaultPlan};
pub use metrics::{Command, CommandSummary, Histogram, Metrics, Protocol, ValueHistogram};
pub use persist::{Durability, DurabilityStats, RecoverySummary};
pub use replication::{BootstrapPhases, FollowerAck, ReplSample, ReplState};
pub use trace::{RequestTrace, SlowEntry, Span, Tracer, SPANS, SPAN_COUNT};
// The pool moved to the reusable `par` crate so the build pipeline and the
// server share one threading layer; re-exported here for compatibility.
pub use par::{PoolClosed, SubmitError, ThreadPool};
pub use server::{run_query, Server, ServerConfig, ServerHandle};
