//! Bench-side tracing: spans around the calls into each layer's public
//! functions, kept in memory and written out when the run ends, plus the
//! counting allocator behind the bytes-held metrics.
//!
//! Spans inside the program are a later change; until then these spans
//! sit at the layer boundaries the bench can reach from outside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-vocabulary name, e.g. `plan.execute`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier (0 = not a request).
    pub request: u64,
}

/// An in-memory span recorder. Switched off it records nothing and
/// [`Tracer::span`] is a plain call, so the same replay code runs traced
/// and untraced — the ratio of the two is the tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts the next request: later spans carry a fresh identifier.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`, child of the enclosing span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover, in nanoseconds, parallel to [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let child = span.end_ns - span.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(child);
            }
        }
        own
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).render())
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator with a live-byte counter that only runs while
/// [`set_counting`] is on — the binary installs it as its global
/// allocator and switches it on under `--trace 1` only, so untraced runs
/// pay one relaxed load per allocation.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches the live-byte counter on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes allocated and not yet freed since counting was switched on.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Runs `build` and returns its result with the bytes it left allocated
/// (0 while counting is off or the allocator is not installed).
pub fn bytes_held<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = live_bytes();
    let value = build();
    (value, (live_bytes() - before).max(0) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let request = t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == request));
        let own = t.self_times();
        let total = spans[0].end_ns - spans[0].start_ns;
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], total - children);
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
