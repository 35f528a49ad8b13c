//! Per-request tracing and the slow-query log.
//!
//! Every traced request gets a process-unique trace id and a fixed set of
//! span timers covering the request pipeline: parse → catalog lookup →
//! eval → WAL append → reply write. When a request's total latency
//! crosses the tracer's threshold, its breakdown is pushed into a
//! fixed-capacity ring buffer served by the `SLOWLOG [n]` verb; the
//! `TRACE <on|off|threshold-ms>` verb flips tracing and tunes the
//! threshold at runtime, with zero cost on the hot path while off (one
//! relaxed atomic load per request).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Command;
use crate::proto::escape_line;

/// The instrumented pipeline stages of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// Request-line parsing (`proto::parse`).
    Parse = 0,
    /// Catalog shard lock + document fetch.
    Lookup,
    /// XPath evaluation / label arithmetic / store scans.
    Eval,
    /// WAL append (+ policy fsync) for mutating verbs.
    Wal,
    /// Writing the response line back to the socket.
    Write,
}

/// Number of spans (the size of per-span arrays).
pub const SPAN_COUNT: usize = 5;

/// Every span, aligned with the `repr(usize)` discriminants.
pub const SPANS: [Span; SPAN_COUNT] =
    [Span::Parse, Span::Lookup, Span::Eval, Span::Wal, Span::Write];

impl Span {
    /// The span's name as rendered in slowlog entries (`<name>_ns=`).
    pub fn name(self) -> &'static str {
        match self {
            Span::Parse => "parse",
            Span::Lookup => "lookup",
            Span::Eval => "eval",
            Span::Wal => "wal",
            Span::Write => "write",
        }
    }
}

/// Span timings of one in-flight request. Plain `u64`s — the trace lives
/// on one connection thread and is published only via [`Tracer::observe`].
#[derive(Debug, Clone)]
pub struct RequestTrace {
    id: u64,
    spans: [u64; SPAN_COUNT],
}

impl RequestTrace {
    /// A fresh trace with the given id and zeroed spans.
    pub fn new(id: u64) -> RequestTrace {
        RequestTrace { id, spans: [0; SPAN_COUNT] }
    }

    /// The request's trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds `ns` to one span (spans can accrue across retries).
    pub fn record(&mut self, span: Span, ns: u64) {
        self.spans[span as usize] += ns;
    }

    /// Nanoseconds accrued in one span.
    pub fn span_ns(&self, span: Span) -> u64 {
        self.spans[span as usize]
    }
}

/// One captured slow request.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotonic capture sequence number (total order of captures).
    pub seq: u64,
    /// The request's trace id.
    pub trace_id: u64,
    /// Which command ran.
    pub command: Command,
    /// End-to-end request nanoseconds.
    pub total_ns: u64,
    /// Per-span nanoseconds ([`SPANS`] order).
    pub spans: [u64; SPAN_COUNT],
    /// The request line, truncated to [`LINE_CAP`] bytes.
    pub line: String,
}

/// Captured request lines are truncated to this many bytes — the slowlog
/// is a diagnostic ring, not a request archive.
pub const LINE_CAP: usize = 128;

/// Slots in the server's slow-query ring served by `SLOWLOG`.
pub(crate) const SLOWLOG_CAPACITY: usize = 128;

/// Default slow threshold when tracing is first enabled: 100 ms.
pub const DEFAULT_THRESHOLD_NS: u64 = 100_000_000;

/// The shared tracing state: an on/off switch, a slow threshold, and the
/// ring buffer of captured slow requests.
pub struct Tracer {
    enabled: AtomicBool,
    threshold_ns: AtomicU64,
    next_id: AtomicU64,
    captured: AtomicU64,
    log: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
}

impl Tracer {
    /// A disabled tracer with the default threshold and `capacity` slots
    /// (min 1) in the slow-query ring.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            threshold_ns: AtomicU64::new(DEFAULT_THRESHOLD_NS),
            next_id: AtomicU64::new(1),
            captured: AtomicU64::new(0),
            log: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Whether per-request tracing is on (one relaxed load).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns tracing on (keeping the current threshold).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns tracing off. Captured slowlog entries are kept.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// The current slow threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the slow threshold (ms) and enables tracing — `TRACE 0`
    /// captures everything, which is how tests and sessions inspect span
    /// breakdowns without a genuinely slow query.
    pub fn set_threshold_ms(&self, ms: u64) {
        self.threshold_ns.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
        self.enable();
    }

    /// A fresh trace with a process-unique id.
    pub fn begin(&self) -> RequestTrace {
        RequestTrace::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Total slow captures since start (monotonic; unaffected by the ring
    /// evicting old entries).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Entries currently held in the ring.
    pub fn entries(&self) -> usize {
        self.log.lock().map(|l| l.len()).unwrap_or(0)
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publishes a finished request: captured into the slowlog when
    /// `total_ns` meets the threshold.
    pub fn observe(&self, command: Command, line: &str, total_ns: u64, trace: &RequestTrace) {
        if total_ns < self.threshold_ns() {
            return;
        }
        let seq = self.captured.fetch_add(1, Ordering::Relaxed);
        let mut truncated: String = line.chars().take(LINE_CAP).collect();
        if truncated.len() < line.len() {
            truncated.push('…');
        }
        let entry = SlowEntry {
            seq,
            trace_id: trace.id,
            command,
            total_ns,
            spans: trace.spans,
            line: truncated,
        };
        if let Ok(mut log) = self.log.lock() {
            if log.len() == self.capacity {
                log.pop_front();
            }
            log.push_back(entry);
        }
    }

    /// The `TRACE` status line (without the `OK ` prefix).
    pub fn render_status(&self) -> String {
        format!(
            "trace={} threshold_ms={} entries={} captured={} capacity={}",
            if self.enabled() { "on" } else { "off" },
            self.threshold_ns() / 1_000_000,
            self.entries(),
            self.captured(),
            self.capacity,
        )
    }

    /// The `SLOWLOG [n]` response body (without the `OK ` prefix): a
    /// header followed by ` | `-separated entries, newest last, at most
    /// `n` of them.
    pub fn render_slowlog(&self, n: usize) -> String {
        let entries: Vec<SlowEntry> = self
            .log
            .lock()
            .map(|log| {
                let skip = log.len().saturating_sub(n);
                log.iter().skip(skip).cloned().collect()
            })
            .unwrap_or_default();
        let mut out = format!(
            "n={} captured={} threshold_ms={}",
            entries.len(),
            self.captured(),
            self.threshold_ns() / 1_000_000,
        );
        for e in &entries {
            out.push_str(&format!(
                " | seq={} id={} cmd={} total_ns={}",
                e.seq,
                e.trace_id,
                e.command.name(),
                e.total_ns,
            ));
            for span in SPANS {
                out.push_str(&format!(" {}_ns={}", span.name(), e.spans[span as usize]));
            }
            out.push_str(&format!(" line={}", escape_line(&e.line)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(tracer: &Tracer, total_ns: u64, line: &str) -> RequestTrace {
        let mut t = tracer.begin();
        t.record(Span::Parse, total_ns / 10);
        t.record(Span::Eval, total_ns / 2);
        tracer.observe(Command::Query, line, total_ns, &t);
        t
    }

    #[test]
    fn threshold_gates_capture() {
        let tracer = Tracer::new(4);
        assert!(!tracer.enabled());
        tracer.set_threshold_ms(1); // 1 ms, also enables
        assert!(tracer.enabled());
        traced(&tracer, 500_000, "QUERY 1 /fast"); // below threshold
        assert_eq!(tracer.captured(), 0);
        traced(&tracer, 2_000_000, "QUERY 1 /slow");
        assert_eq!(tracer.captured(), 1);
        assert_eq!(tracer.entries(), 1);
        let log = tracer.render_slowlog(10);
        assert!(log.contains("cmd=QUERY"), "{log}");
        assert!(log.contains("total_ns=2000000"), "{log}");
        assert!(log.contains("eval_ns=1000000"), "{log}");
        assert!(log.contains("line=QUERY 1 /slow"), "{log}");
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_monotonic_seq() {
        let tracer = Tracer::new(2);
        tracer.set_threshold_ms(0);
        for i in 0..5 {
            traced(&tracer, 1_000 + i, &format!("QUERY 1 /q{i}"));
        }
        assert_eq!(tracer.captured(), 5);
        assert_eq!(tracer.entries(), 2);
        let log = tracer.render_slowlog(10);
        assert!(log.starts_with("n=2 captured=5"), "{log}");
        assert!(log.contains("seq=3") && log.contains("seq=4"), "{log}");
        assert!(!log.contains("/q0"), "{log}");
        // n=1 returns only the newest.
        let one = tracer.render_slowlog(1);
        assert!(one.contains("/q4") && !one.contains("/q3"), "{one}");
    }

    #[test]
    fn long_lines_truncate() {
        let tracer = Tracer::new(2);
        tracer.set_threshold_ms(0);
        let line = format!("QUERY 1 /{}", "x".repeat(500));
        traced(&tracer, 10, &line);
        let log = tracer.render_slowlog(1);
        assert!(log.len() < 400, "entry must truncate: {} bytes", log.len());
        assert!(log.contains('…'), "{log}");
    }

    #[test]
    fn status_line_reports_state() {
        let tracer = Tracer::new(8);
        let s = tracer.render_status();
        assert!(s.contains("trace=off") && s.contains("threshold_ms=100"), "{s}");
        tracer.set_threshold_ms(250);
        tracer.disable();
        let s = tracer.render_status();
        assert!(s.contains("trace=off") && s.contains("threshold_ms=250"), "{s}");
        tracer.enable();
        assert!(tracer.render_status().contains("trace=on"));
    }

    #[test]
    fn trace_ids_are_unique() {
        let tracer = Tracer::new(2);
        let a = tracer.begin();
        let b = tracer.begin();
        assert_ne!(a.id(), b.id());
    }
}
