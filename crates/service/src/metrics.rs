//! Lock-free service observability: per-command request and error
//! counters plus fixed-bucket latency histograms.
//!
//! Everything is an `AtomicU64`, so recording on the hot path is a handful
//! of relaxed atomic adds — no locks, no allocation. Percentiles are
//! computed on demand from the buckets (each bucket spans a power of two
//! of nanoseconds), which is exact enough for p50/p95/p99 reporting and
//! costs nothing when nobody asks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bucket `i` holds samples with `ns < 2^(i+1)` (the last
/// bucket is open-ended). 2^40 ns ≈ 18 minutes, far beyond any request.
const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram with power-of-two nanosecond buckets.
///
/// Alongside the buckets it tracks the exact sum and the observed min/max,
/// so quantile estimates can be clamped to the real sample range (a
/// constant-latency workload reports its exact latency, not a bucket
/// bound).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Number of buckets (fixed).
    pub const BUCKET_COUNT: usize = BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // 0 and 1 ns land in bucket 0; doubling thereafter.
        (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// The exclusive upper bound of bucket `i` in nanoseconds, or `None`
    /// for an open-ended final bucket. `checked_shl` keeps this correct
    /// even if `BUCKETS` ever grows past 63.
    pub fn bucket_upper_ns(i: usize) -> Option<u64> {
        if i + 1 >= BUCKETS {
            return None; // final bucket is open-ended by definition
        }
        1u64.checked_shl(i as u32 + 1)
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX { 0 } else { v }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A snapshot of the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// An estimate (in ns) of the `q`-quantile (`q` in `[0, 1]`), or 0
    /// when empty.
    ///
    /// The estimate is the geometric midpoint of the bucket holding the
    /// quantile rank — the unbiased guess for exponentially-sized buckets
    /// — clamped into the observed `[min, max]` range, so it never
    /// overstates past the largest real sample (the old implementation
    /// returned the bucket's upper bound, up to 2× too high). The
    /// open-ended final bucket reports the observed maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen < rank {
                continue;
            }
            let est = match Self::bucket_upper_ns(i) {
                // `i <= 62` here, so the low bound cannot overflow.
                Some(high) => {
                    let low = (1u64 << i).max(1);
                    (((low as f64) * (high as f64)).sqrt()).round() as u64
                }
                // Open-ended (or shift-overflowing) bucket: the observed
                // maximum is the only honest estimate.
                None => self.max_ns(),
            };
            return est.clamp(self.min_ns(), self.max_ns());
        }
        self.max_ns()
    }
}

/// Bucket count of a [`ValueHistogram`]: upper bounds 1, 2, 4, …, 2^15
/// plus the open-ended tail — wide enough for any pipeline depth or
/// batch size the frame caps allow.
const VALUE_BUCKETS: usize = 16;

/// A fixed-bucket histogram over small dimensionless counts (pipeline
/// depths, batch sizes) with power-of-two value buckets: bucket `i`
/// counts samples `v <= 2^i`, the final bucket is open-ended. Same
/// lock-free recording discipline as the latency [`Histogram`].
pub struct ValueHistogram {
    buckets: [AtomicU64; VALUE_BUCKETS],
    sum: AtomicU64,
}

impl Default for ValueHistogram {
    fn default() -> ValueHistogram {
        ValueHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl ValueHistogram {
    /// Number of buckets (fixed).
    pub const BUCKET_COUNT: usize = VALUE_BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> ValueHistogram {
        ValueHistogram::default()
    }

    /// The inclusive upper bound of bucket `i`, or `None` for the
    /// open-ended final bucket.
    pub fn bucket_upper(i: usize) -> Option<u64> {
        (i + 1 < VALUE_BUCKETS).then(|| 1u64 << i)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // v <= 2^i  ⇔  i >= bits(v - 1); 0 and 1 land in bucket 0.
        let bucket = (64 - value.saturating_sub(1).leading_zeros() as usize)
            .min(VALUE_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded sample values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A snapshot of the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; VALUE_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The protocol front ends the service meters, in counter order (the
/// `ruid_protocol_requests_total` Prometheus family).
pub const PROTOCOLS: [&str; 2] = ["text", "binary"];

/// Selects a per-protocol counter slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The line-delimited text front end.
    Text = 0,
    /// The length-prefixed binary front end.
    Binary = 1,
}

/// The protocol commands the service meters, in wire order.
///
/// `Invalid` accounts for lines that fail to parse at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Command {
    /// `PING`
    Ping = 0,
    /// `LOAD <path> [depth]`
    Load,
    /// `UNLOAD <doc>`
    Unload,
    /// `LIST`
    List,
    /// `LABEL <doc> <xpath>`
    Label,
    /// `PARENT <doc> <g> <l> <r>`
    Parent,
    /// `QUERY <doc> <xpath> [engine]`
    Query,
    /// `SCAN <doc> <global>`
    Scan,
    /// `GET <doc> <g> <l> <r>`
    Get,
    /// `STATS <doc>`
    Stats,
    /// `METRICS`
    Metrics,
    /// `SNAPSHOT`
    Snapshot,
    /// `PERSIST`
    Persist,
    /// `TRACE [on|off|<threshold-ms>]`
    Trace,
    /// `SLOWLOG [n]`
    Slowlog,
    /// `SHUTDOWN`
    Shutdown,
    /// `EXPLAIN <doc> <xpath>`
    Explain,
    /// `INSERT <doc> <g> <l> <r> <position> <fragment>`
    Insert,
    /// `DELETE <doc> <g> <l> <r>`
    Delete,
    /// `RELABEL <doc>`
    Relabel,
    /// Binary batch verb: one frame of planned queries.
    MQuery,
    /// Binary batch verb: one frame of planned label lookups.
    MLabel,
    /// `PROMOTE` — a follower becomes the leader.
    Promote,
    /// `REPL HELLO` — a follower introduces itself.
    ReplHello,
    /// `REPL SNAPSHOT` — a follower pulls a snapshot image.
    ReplSnapshot,
    /// `REPL TAIL` — a follower polls for committed WAL bytes.
    ReplTail,
    /// `REPL ACK` — a follower reports its applied position.
    ReplAck,
    /// Unparseable input.
    Invalid,
}

/// Every command, aligned with the `repr(usize)` discriminants.
pub const COMMANDS: [Command; 28] = [
    Command::Ping,
    Command::Load,
    Command::Unload,
    Command::List,
    Command::Label,
    Command::Parent,
    Command::Query,
    Command::Scan,
    Command::Get,
    Command::Stats,
    Command::Metrics,
    Command::Snapshot,
    Command::Persist,
    Command::Trace,
    Command::Slowlog,
    Command::Shutdown,
    Command::Explain,
    Command::Insert,
    Command::Delete,
    Command::Relabel,
    Command::MQuery,
    Command::MLabel,
    Command::Promote,
    Command::ReplHello,
    Command::ReplSnapshot,
    Command::ReplTail,
    Command::ReplAck,
    Command::Invalid,
];

impl Command {
    /// The wire keyword (uppercase).
    pub fn name(self) -> &'static str {
        match self {
            Command::Ping => "PING",
            Command::Load => "LOAD",
            Command::Unload => "UNLOAD",
            Command::List => "LIST",
            Command::Label => "LABEL",
            Command::Parent => "PARENT",
            Command::Query => "QUERY",
            Command::Scan => "SCAN",
            Command::Get => "GET",
            Command::Stats => "STATS",
            Command::Metrics => "METRICS",
            Command::Snapshot => "SNAPSHOT",
            Command::Persist => "PERSIST",
            Command::Trace => "TRACE",
            Command::Slowlog => "SLOWLOG",
            Command::Shutdown => "SHUTDOWN",
            Command::Explain => "EXPLAIN",
            Command::Insert => "INSERT",
            Command::Delete => "DELETE",
            Command::Relabel => "RELABEL",
            Command::MQuery => "MQUERY",
            Command::MLabel => "MLABEL",
            Command::Promote => "PROMOTE",
            Command::ReplHello => "REPL-HELLO",
            Command::ReplSnapshot => "REPL-SNAPSHOT",
            Command::ReplTail => "REPL-TAIL",
            Command::ReplAck => "REPL-ACK",
            Command::Invalid => "INVALID",
        }
    }
}

#[derive(Default)]
struct CommandMetrics {
    count: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// Per-command counters and histograms for the whole service.
#[derive(Default)]
pub struct Metrics {
    per_command: [CommandMetrics; COMMANDS.len()],
    connections: AtomicU64,
    /// Connections/requests answered `BUSY` (queue full or injected).
    shed: AtomicU64,
    /// Request lines rejected for exceeding the frame-size limit.
    oversized: AtomicU64,
    /// Connections killed because a request line missed the read deadline.
    deadline_read: AtomicU64,
    /// Connections killed because a response write missed its deadline.
    deadline_write: AtomicU64,
    /// Requests whose handling overran the per-request deadline.
    deadline_request: AtomicU64,
    /// Connections that hit EOF mid-line (a torn request from the peer).
    torn: AtomicU64,
    /// XPath location steps evaluated, per axis (`Axis::index` order).
    axis_steps: [AtomicU64; xpath::Axis::COUNT],
    /// Physical plan operators executed, in [`PLAN_OPERATORS`] order.
    plan_ops: [AtomicU64; PLAN_OPERATORS.len()],
    /// Time spent in plan construction (parse excluded, execution
    /// excluded) — the planner must stay negligible next to evaluation.
    planner_time: Histogram,
    /// Committed structural updates, in [`UPDATE_OPS`] order.
    updates: [AtomicU64; UPDATE_OPS.len()],
    /// Request bytes consumed off the wire (both protocols).
    net_read: AtomicU64,
    /// Response bytes written to the wire (both protocols).
    net_written: AtomicU64,
    /// Requests per front end, in [`PROTOCOLS`] order.
    protocol_requests: [AtomicU64; PROTOCOLS.len()],
    /// Frames decoded per multiplexer drain of one connection — the
    /// realized pipelining depth.
    pipeline_depth: ValueHistogram,
    /// Sub-queries per `MQUERY`/`MLABEL` frame.
    batch_size: ValueHistogram,
}

/// The structural update kinds the service counts (the
/// `ruid_updates_total` Prometheus family), in counter order.
pub const UPDATE_OPS: [&str; 3] = ["insert", "delete", "relabel"];

/// The plan-operator kinds the planner metrics distinguish, in counter
/// order: the three physical operators, the value-probes that supplied
/// their candidates, and the per-step fallback walks delegated to the
/// step-by-step evaluator.
pub const PLAN_OPERATORS: [&str; 5] =
    ["scan", "child-join", "containment-join", "value-probe", "fallback-step"];

/// One command's row of the per-command metrics, the single source both
/// wire renderings and the Prometheus exposition format from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSummary {
    /// Which command.
    pub command: Command,
    /// Requests handled.
    pub count: u64,
    /// Requests that answered `ERR`.
    pub errors: u64,
    /// Estimated p50 latency in ns.
    pub p50_ns: u64,
    /// Estimated p95 latency in ns.
    pub p95_ns: u64,
    /// Estimated p99 latency in ns.
    pub p99_ns: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one handled request: which command, whether it failed, and
    /// how long handling took.
    pub fn record(&self, command: Command, is_error: bool, elapsed: Duration) {
        let m = &self.per_command[command as usize];
        m.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(elapsed);
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `BUSY` answer (load shedding or an injected fault).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one oversized request line.
    pub fn record_oversized(&self) {
        self.oversized.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one read-deadline expiry.
    pub fn record_deadline_read(&self) {
        self.deadline_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one write-deadline expiry.
    pub fn record_deadline_write(&self) {
        self.deadline_write.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one per-request deadline overrun.
    pub fn record_deadline_request(&self) {
        self.deadline_request.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one torn request (EOF mid-line).
    pub fn record_torn(&self) {
        self.torn.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates request bytes consumed off the wire.
    pub fn add_net_read(&self, bytes: u64) {
        self.net_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accumulates response bytes written to the wire.
    pub fn add_net_written(&self, bytes: u64) {
        self.net_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Request bytes consumed so far.
    pub fn net_bytes_read(&self) -> u64 {
        self.net_read.load(Ordering::Relaxed)
    }

    /// Response bytes written so far.
    pub fn net_bytes_written(&self) -> u64 {
        self.net_written.load(Ordering::Relaxed)
    }

    /// The wire-read byte counter itself, for the framing layer to feed
    /// as it consumes.
    pub(crate) fn net_read_counter(&self) -> &AtomicU64 {
        &self.net_read
    }

    /// Counts one request arriving on the given front end.
    pub fn record_protocol_request(&self, protocol: Protocol) {
        self.protocol_requests[protocol as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests per front end so far ([`PROTOCOLS`] order).
    pub fn protocol_requests(&self) -> [u64; PROTOCOLS.len()] {
        std::array::from_fn(|i| self.protocol_requests[i].load(Ordering::Relaxed))
    }

    /// Records the number of frames one multiplexer drain decoded on one
    /// connection (only called when at least one frame arrived).
    pub fn record_pipeline_depth(&self, frames: u64) {
        self.pipeline_depth.record(frames);
    }

    /// The realized pipelining-depth histogram.
    pub fn pipeline_depth(&self) -> &ValueHistogram {
        &self.pipeline_depth
    }

    /// Records the sub-query count of one `MQUERY`/`MLABEL` frame.
    pub fn record_batch_size(&self, entries: u64) {
        self.batch_size.record(entries);
    }

    /// The batch-size histogram.
    pub fn batch_size(&self) -> &ValueHistogram {
        &self.batch_size
    }

    /// Accumulates per-axis XPath step counts from one evaluation.
    pub fn record_axis_steps(&self, stats: &xpath::StepStats) {
        for (counter, &steps) in self.axis_steps.iter().zip(stats.steps.iter()) {
            if steps > 0 {
                counter.fetch_add(steps, Ordering::Relaxed);
            }
        }
    }

    /// XPath steps evaluated so far, per axis (`Axis::index` order).
    pub fn axis_steps(&self) -> [u64; xpath::Axis::COUNT] {
        std::array::from_fn(|i| self.axis_steps[i].load(Ordering::Relaxed))
    }

    /// Accumulates the operator counts of one executed plan
    /// (scans, child joins, containment joins, value-probes, evaluator
    /// fallback steps — [`PLAN_OPERATORS`] order).
    pub fn record_plan_ops(&self, counts: [u64; PLAN_OPERATORS.len()]) {
        for (counter, count) in self.plan_ops.iter().zip(counts) {
            if count > 0 {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Records one plan-construction duration.
    pub fn record_planner_time(&self, elapsed: Duration) {
        self.planner_time.record(elapsed);
    }

    /// Plan operators executed so far ([`PLAN_OPERATORS`] order).
    pub fn plan_ops(&self) -> [u64; PLAN_OPERATORS.len()] {
        std::array::from_fn(|i| self.plan_ops[i].load(Ordering::Relaxed))
    }

    /// Counts one *committed* structural update. `op` is the update's
    /// command (`Insert`, `Delete`, or `Relabel`); anything else is a
    /// caller bug and ignored.
    pub fn record_update(&self, op: Command) {
        let slot = match op {
            Command::Insert => 0,
            Command::Delete => 1,
            Command::Relabel => 2,
            _ => return,
        };
        self.updates[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Committed structural updates so far ([`UPDATE_OPS`] order).
    pub fn updates(&self) -> [u64; UPDATE_OPS.len()] {
        std::array::from_fn(|i| self.updates[i].load(Ordering::Relaxed))
    }

    /// The plan-construction latency histogram.
    pub fn planner_time(&self) -> &Histogram {
        &self.planner_time
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// `BUSY` answers so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Oversized request lines so far.
    pub fn oversized(&self) -> u64 {
        self.oversized.load(Ordering::Relaxed)
    }

    /// Read-deadline expiries so far.
    pub fn deadline_read(&self) -> u64 {
        self.deadline_read.load(Ordering::Relaxed)
    }

    /// Write-deadline expiries so far.
    pub fn deadline_write(&self) -> u64 {
        self.deadline_write.load(Ordering::Relaxed)
    }

    /// Per-request deadline overruns so far.
    pub fn deadline_request(&self) -> u64 {
        self.deadline_request.load(Ordering::Relaxed)
    }

    /// Torn requests so far.
    pub fn torn(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }

    /// Total requests across all commands.
    pub fn total_requests(&self) -> u64 {
        self.per_command.iter().map(|m| m.count.load(Ordering::Relaxed)).sum()
    }

    /// Total errors across all commands.
    pub fn total_errors(&self) -> u64 {
        self.per_command.iter().map(|m| m.errors.load(Ordering::Relaxed)).sum()
    }

    /// Requests recorded for one command.
    pub fn count_of(&self, command: Command) -> u64 {
        self.per_command[command as usize].count.load(Ordering::Relaxed)
    }

    /// The latency histogram of one command.
    pub fn latency_of(&self, command: Command) -> &Histogram {
        &self.per_command[command as usize].latency
    }

    /// One summary row per command with traffic, in wire order — the
    /// single formatter behind [`Metrics::render_line`],
    /// [`Metrics::render_table`], and the Prometheus exposition, so the
    /// three can never drift apart.
    pub fn command_summaries(&self) -> Vec<CommandSummary> {
        COMMANDS
            .iter()
            .filter_map(|&command| {
                let m = &self.per_command[command as usize];
                let count = m.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(CommandSummary {
                    command,
                    count,
                    errors: m.errors.load(Ordering::Relaxed),
                    p50_ns: m.latency.quantile_ns(0.50),
                    p95_ns: m.latency.quantile_ns(0.95),
                    p99_ns: m.latency.quantile_ns(0.99),
                })
            })
            .collect()
    }

    /// The six robustness counters as `(name, value)` pairs, in the wire
    /// rendering order.
    pub fn robustness_counters(&self) -> [(&'static str, u64); 6] {
        [
            ("shed", self.shed()),
            ("oversized", self.oversized()),
            ("torn", self.torn()),
            ("deadline_read", self.deadline_read()),
            ("deadline_write", self.deadline_write()),
            ("deadline_request", self.deadline_request()),
        ]
    }

    /// The single-line wire rendering served by `METRICS`:
    ///
    /// ```text
    /// OK connections=3 total=17 errors=1 PING=1/0/512/512/512 LOAD=... ...
    /// ```
    ///
    /// Each command segment is `NAME=count/errors/p50ns/p95ns/p99ns`;
    /// commands with no traffic are omitted.
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "connections={} total={} errors={}",
            self.connections(),
            self.total_requests(),
            self.total_errors(),
        );
        for (name, value) in self.robustness_counters() {
            out.push_str(&format!(" {name}={value}"));
        }
        for s in self.command_summaries() {
            out.push_str(&format!(
                " {}={}/{}/{}/{}/{}",
                s.command.name(),
                s.count,
                s.errors,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns,
            ));
        }
        out
    }

    /// A human-readable multi-line table (dumped on server shutdown).
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<10} {:>9} {:>7} {:>12} {:>12} {:>12}\n",
            "command", "count", "errors", "p50", "p95", "p99"
        );
        for s in self.command_summaries() {
            out.push_str(&format!(
                "{:<10} {:>9} {:>7} {:>12} {:>12} {:>12}\n",
                s.command.name(),
                s.count,
                s.errors,
                fmt_ns(s.p50_ns),
                fmt_ns(s.p95_ns),
                fmt_ns(s.p99_ns),
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>9} {:>7}   ({} connections)\n",
            "total",
            self.total_requests(),
            self.total_errors(),
            self.connections(),
        ));
        out.push_str("robustness");
        for (name, value) in self.robustness_counters() {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("~{ns} ns")
    } else if ns < 1_000_000 {
        format!("~{:.1} µs", ns as f64 / 1_000.0)
    } else {
        format!("~{:.1} ms", ns as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_double() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0, "empty histogram");
        // 90 fast samples (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        assert_eq!(h.total(), 100);
        // p50 falls in the [512, 1024) bucket; its midpoint (~724) clamps
        // up to the observed minimum of exactly 1 µs.
        assert_eq!(h.quantile_ns(0.50), 1_000, "p50 clamps to the 1 µs samples");
        // p99/p100 fall in the ms bucket [2^19, 2^20); the estimate must
        // stay within that bucket's bounds and the observed range.
        for q in [0.99, 1.0] {
            let est = h.quantile_ns(q);
            assert!((524_288..=1_000_000).contains(&est), "q={q}: {est} out of bounds");
        }
        assert_eq!(h.quantile_ns(0.0), 1_000);
    }

    #[test]
    fn quantile_estimates_never_overstate_past_the_max() {
        // The old implementation returned the bucket upper bound: a
        // constant 600 µs workload reported p50 = 1'048'576 ns (+75%).
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_micros(600));
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 600_000, "constant samples are exact at q={q}");
        }
        assert_eq!(h.min_ns(), 600_000);
        assert_eq!(h.max_ns(), 600_000);
        assert_eq!(h.sum_ns(), 600_000_000);
    }

    #[test]
    fn quantile_single_sample_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        h.record(Duration::from_nanos(12_345));
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_ns(q), 12_345, "single sample is exact at q={q}");
        }
    }

    #[test]
    fn quantile_geometric_midpoint_bounds_error() {
        // Samples spread across one bucket [65536, 131072): the estimate
        // must land inside the bucket, within sqrt(2)x of any sample.
        let h = Histogram::new();
        for ns in [70_000u64, 90_000, 110_000, 130_000] {
            h.record(Duration::from_nanos(ns));
        }
        let p50 = h.quantile_ns(0.5);
        assert!((70_000..=130_000).contains(&p50), "p50={p50} clamped into observed range");
        let expected_mid = ((65_536f64 * 131_072f64).sqrt()).round() as u64;
        assert_eq!(p50, expected_mid, "midpoint of the containing bucket");
    }

    #[test]
    fn quantile_max_bucket_is_overflow_safe() {
        let h = Histogram::new();
        // u64::MAX ns saturates into the open-ended final bucket; the
        // old `1u64 << BUCKETS`-style return would be fine at 40 buckets
        // but silently wrong past 63 — the estimate now reports the
        // observed max instead of a shifted constant.
        h.record(Duration::from_secs(10_000));
        let ns = 10_000u64 * 1_000_000_000;
        assert_eq!(Histogram::bucket_of(ns), Histogram::BUCKET_COUNT - 1);
        assert_eq!(h.quantile_ns(0.99), ns);
        assert_eq!(Histogram::bucket_upper_ns(Histogram::BUCKET_COUNT - 1), None);
        assert_eq!(Histogram::bucket_upper_ns(0), Some(2));
        assert_eq!(Histogram::bucket_upper_ns(10), Some(2_048));
    }

    #[test]
    fn summaries_drive_both_renderings() {
        let m = Metrics::new();
        m.record(Command::Query, false, Duration::from_micros(100));
        m.record(Command::Ping, true, Duration::from_nanos(500));
        let summaries = m.command_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].command, Command::Ping, "wire order");
        assert_eq!(summaries[1].command, Command::Query);
        let line = m.render_line();
        let table = m.render_table();
        for s in &summaries {
            assert!(
                line.contains(&format!(
                    "{}={}/{}/{}/{}/{}",
                    s.command.name(), s.count, s.errors, s.p50_ns, s.p95_ns, s.p99_ns
                )),
                "{line}"
            );
            assert!(table.contains(s.command.name()), "{table}");
        }
    }

    #[test]
    fn axis_step_accounting() {
        let m = Metrics::new();
        let mut stats = xpath::StepStats::default();
        stats.steps[xpath::Axis::Child.index()] = 3;
        stats.steps[xpath::Axis::Descendant.index()] = 2;
        m.record_axis_steps(&stats);
        m.record_axis_steps(&stats);
        let totals = m.axis_steps();
        assert_eq!(totals[xpath::Axis::Child.index()], 6);
        assert_eq!(totals[xpath::Axis::Descendant.index()], 4);
        assert_eq!(totals[xpath::Axis::Following.index()], 0);
    }

    #[test]
    fn per_command_accounting() {
        let m = Metrics::new();
        m.record(Command::Query, false, Duration::from_micros(3));
        m.record(Command::Query, true, Duration::from_micros(5));
        m.record(Command::Parent, false, Duration::from_nanos(200));
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_errors(), 1);
        assert_eq!(m.count_of(Command::Query), 2);
        assert_eq!(m.count_of(Command::Scan), 0);
        assert_eq!(m.latency_of(Command::Parent).total(), 1);
        let line = m.render_line();
        assert!(line.contains("total=3"), "{line}");
        assert!(line.contains("QUERY=2/1/"), "{line}");
        assert!(line.contains("PARENT=1/0/"), "{line}");
        assert!(!line.contains("SCAN="), "{line}");
        let table = m.render_table();
        assert!(table.contains("QUERY") && table.contains("p99"), "{table}");
    }

    #[test]
    fn robustness_counters_render() {
        let m = Metrics::new();
        m.record_shed();
        m.record_shed();
        m.record_oversized();
        m.record_deadline_read();
        m.record_deadline_write();
        m.record_deadline_request();
        m.record_torn();
        assert_eq!(m.shed(), 2);
        assert_eq!(m.oversized(), 1);
        assert_eq!(m.deadline_read(), 1);
        assert_eq!(m.deadline_write(), 1);
        assert_eq!(m.deadline_request(), 1);
        assert_eq!(m.torn(), 1);
        let line = m.render_line();
        for token in [
            "shed=2",
            "oversized=1",
            "torn=1",
            "deadline_read=1",
            "deadline_write=1",
            "deadline_request=1",
        ] {
            assert!(line.contains(token), "{token} missing in {line}");
        }
        assert!(m.render_table().contains("shed=2"), "{}", m.render_table());
    }

    #[test]
    fn plan_op_accounting() {
        let m = Metrics::new();
        m.record_plan_ops([2, 0, 1, 4, 3]);
        m.record_plan_ops([1, 1, 0, 1, 0]);
        assert_eq!(m.plan_ops(), [3, 1, 1, 5, 3]);
        m.record_planner_time(Duration::from_micros(5));
        assert_eq!(m.planner_time().total(), 1);
    }

    #[test]
    fn value_histogram_buckets_and_sums() {
        let h = ValueHistogram::new();
        assert_eq!(h.total(), 0);
        for v in [0u64, 1, 2, 3, 4, 32, 33, 1 << 20] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2, "0 and 1 land in le=1");
        assert_eq!(counts[1], 1, "2 lands in le=2");
        assert_eq!(counts[2], 2, "3 and 4 land in le=4");
        assert_eq!(counts[5], 1, "32 lands in le=32");
        assert_eq!(counts[6], 1, "33 lands in le=64");
        assert_eq!(counts[VALUE_BUCKETS - 1], 1, "huge values land in the tail");
        assert_eq!(h.total(), 8);
        assert_eq!(h.sum(), 75 + (1 << 20));
        assert_eq!(ValueHistogram::bucket_upper(0), Some(1));
        assert_eq!(ValueHistogram::bucket_upper(5), Some(32));
        assert_eq!(ValueHistogram::bucket_upper(VALUE_BUCKETS - 1), None);
    }

    #[test]
    fn wire_layer_counters() {
        let m = Metrics::new();
        m.add_net_read(100);
        m.add_net_read(28);
        m.add_net_written(512);
        m.record_protocol_request(Protocol::Text);
        m.record_protocol_request(Protocol::Binary);
        m.record_protocol_request(Protocol::Binary);
        m.record_pipeline_depth(16);
        m.record_batch_size(64);
        assert_eq!(m.net_bytes_read(), 128);
        assert_eq!(m.net_bytes_written(), 512);
        assert_eq!(m.protocol_requests(), [1, 2]);
        assert_eq!(m.pipeline_depth().total(), 1);
        assert_eq!(m.pipeline_depth().sum(), 16);
        assert_eq!(m.batch_size().sum(), 64);
        m.record(Command::MQuery, false, Duration::from_micros(9));
        assert_eq!(m.count_of(Command::MQuery), 1);
        assert!(m.render_line().contains("MQUERY=1/0/"));
    }

    #[test]
    fn command_names_align_with_discriminants() {
        for (i, &c) in COMMANDS.iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
    }
}
