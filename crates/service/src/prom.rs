//! Every series the service exports, each declared once in one table
//! ([`SERIES`]), and the two renderings that walk it: the `METRICS` line
//! (also the shutdown dump) and the Prometheus text exposition, version
//! 0.0.4 (`METRICS prom` and the `serve --metrics-addr` endpoint).
//!
//! A row says once what the series is called in `METRICS`, if it shows
//! there; what its Prometheus family is called, its type and its help, if
//! it is exported; and how to read its value. A render samples each
//! source once — one `Durability::stats` lock, one `ReplState::sample`,
//! one `ResultCache::stats` — then walks the table in order: `METRICS`
//! prints the rows with a key, the exposition the rows with a family.
//! Recording never reaches this module: every counter stays a relaxed
//! atomic at a fixed slot, read here with relaxed loads, so a scrape is a
//! statistical snapshot, not a transaction.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

use par::{ExecutorStats, PoolStats};
use plan::{CacheStats, ResultCache};

use crate::catalog::Catalog;
use crate::metrics::{CommandSummary, Histogram, Metrics, ValueHistogram, PLAN_OPERATORS, PROTOCOLS, UPDATE_OPS};
use crate::persist::{Durability, DurabilityStats};
use crate::replication::{ReplSample, ReplState};
use crate::trace::Tracer;

/// Everything a render can read. `metrics` is always there; the server
/// may run without durability, and unit tests render partial sources.
pub(crate) struct Sources<'a> {
    /// The per-command counters and histograms.
    pub(crate) metrics: &'a Metrics,
    /// The document catalog (MVCC generation gauge).
    pub(crate) catalog: Option<&'a Catalog>,
    /// The durability manager, when the server has a data dir.
    pub(crate) durability: Option<&'a Durability>,
    /// The request tracer.
    pub(crate) tracer: Option<&'a Tracer>,
    /// The worker pool's queue statistics.
    pub(crate) pool: Option<&'a PoolStats>,
    /// The planned-query result cache.
    pub(crate) plan_cache: Option<&'a ResultCache>,
    /// Replication role/lag gauges and shipping counters.
    pub(crate) repl: Option<&'a ReplState>,
}

/// The sources of one render, each read once.
struct Sample<'a> {
    metrics: &'a Metrics,
    commands: Vec<CommandSummary>,
    generation: Option<u64>,
    durability: Option<&'a Durability>,
    wal: Option<DurabilityStats>,
    repl: Option<ReplSample>,
    cache: Option<CacheStats>,
    pool: Option<&'a PoolStats>,
    exec: ExecutorStats,
    tracer: Option<&'a Tracer>,
}

impl<'a> Sample<'a> {
    fn take(src: &Sources<'a>) -> Sample<'a> {
        Sample {
            metrics: src.metrics,
            commands: src.metrics.command_summaries(),
            generation: src.catalog.map(Catalog::generation),
            durability: src.durability,
            wal: src.durability.map(Durability::stats),
            repl: src.repl.map(ReplState::sample),
            cache: src.plan_cache.map(ResultCache::stats),
            pool: src.pool,
            exec: par::executor_stats(),
            tracer: src.tracer,
        }
    }
}

/// One value of a row.
enum V<'a> {
    /// A count or a gauge.
    N(u64),
    /// Seconds; `METRICS` prints three decimals.
    Secs(f64),
    /// Seconds; `METRICS` prints milliseconds with one decimal.
    Ms(f64),
    /// One of a row's alternatives: 1 or 0 in the exposition, while
    /// `METRICS` prints the label of the one that holds as the value.
    Is(bool),
    /// `METRICS` only, printed as it is.
    Text(String),
    /// Exposition only: a latency histogram, in seconds.
    Latency(&'a Histogram),
    /// Exposition only: a histogram of small counts.
    Counts(&'a ValueHistogram),
}

/// A row's values, each with its label value (`""` when the row has one
/// unlabeled value); `None` when the row's source is absent.
type Members<'a> = Option<Vec<(Cow<'static, str>, V<'a>)>>;

/// A Prometheus family: its name, type, help, and the label that tells
/// its members apart (`""` for none).
#[derive(Clone, Copy)]
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    label: &'static str,
}

const fn counter(name: &'static str, help: &'static str) -> Family {
    Family { name, kind: "counter", help, label: "" }
}

const fn gauge(name: &'static str, help: &'static str) -> Family {
    Family { name, kind: "gauge", help, label: "" }
}

const fn histogram(name: &'static str, help: &'static str) -> Family {
    Family { name, kind: "histogram", help, label: "" }
}

impl Family {
    /// The family with its members told apart by `label`.
    const fn by(self, label: &'static str) -> Family {
        Family { label, ..self }
    }
}

/// One row of [`SERIES`].
struct Row {
    /// The `METRICS` key; `{}` in it stands for each member's label value.
    key: Option<&'static str>,
    /// The Prometheus family; `None` for a `METRICS`-only field.
    family: Option<Family>,
    read: Read,
}

type Read = for<'a> fn(&'a Sample<'a>) -> Members<'a>;

/// A `METRICS` field and a Prometheus family over the same values.
const fn both(key: &'static str, family: Family, read: Read) -> Row {
    Row { key: Some(key), family: Some(family), read }
}

/// A `METRICS` field that is not exported.
const fn field(key: &'static str, read: Read) -> Row {
    Row { key: Some(key), family: None, read }
}

/// A Prometheus family that `METRICS` does not show.
const fn exported(family: Family, read: Read) -> Row {
    Row { key: None, family: Some(family), read }
}

/// The one unlabeled value `read` takes from `src`, if present.
fn one<'a, T>(src: Option<T>, read: impl FnOnce(T) -> V<'a>) -> Members<'a> {
    src.map(|t| vec![(Cow::Borrowed(""), read(t))])
}

/// [`one`] for a count or a gauge.
fn n<T>(src: Option<T>, read: impl FnOnce(T) -> u64) -> Members<'static> {
    one(src, |t| V::N(read(t)))
}

/// Labeled values.
fn each<'a, L: Into<Cow<'static, str>>>(members: impl IntoIterator<Item = (L, V<'a>)>) -> Members<'a> {
    Some(members.into_iter().map(|(label, v)| (label.into(), v)).collect())
}

/// One value per command with traffic, labeled with its lowercase name.
fn per_command<'a>(s: &'a Sample<'a>, read: impl Fn(&CommandSummary) -> V<'a>) -> Members<'a> {
    each(s.commands.iter().map(|c| (c.command.name().to_ascii_lowercase(), read(c))))
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Every exported series, in `METRICS` order. Families with no members
/// yet (a command nobody called) still print their HELP and TYPE;
/// structural families (axes, robustness kinds) list every member, so
/// dashboards see explicit zeros. Adding a series is adding a row.
static SERIES: &[Row] = &[
    both("connections", counter("ruid_connections_total", "Connections accepted."),
        |s| n(Some(s.metrics), Metrics::connections)),
    field("total", |s| n(Some(s.metrics), Metrics::total_requests)),
    field("errors", |s| n(Some(s.metrics), Metrics::total_errors)),
    both("{}", counter("ruid_robustness_events_total", "Defensive-limit trips (shed, oversized, torn, deadlines).")
        .by("kind"), |s| {
        let m = s.metrics;
        each([
            ("shed", V::N(m.shed())),
            ("oversized", V::N(m.oversized())),
            ("torn", V::N(m.torn())),
            ("deadline_read", V::N(m.deadline_read())),
            ("deadline_write", V::N(m.deadline_write())),
            ("deadline_request", V::N(m.deadline_request())),
        ])
    }),
    // `NAME=count/errors/p50ns/p95ns/p99ns` per command with traffic.
    field("{}", |s| {
        each(s.commands.iter().map(|c| {
            let text = format!("{}/{}/{}/{}/{}", c.count, c.errors, c.p50_ns, c.p95_ns, c.p99_ns);
            (c.command.name(), V::Text(text))
        }))
    }),
    exported(counter("ruid_requests_total", "Requests handled, per command.").by("command"),
        |s| per_command(s, |c| V::N(c.count))),
    exported(counter("ruid_request_errors_total", "Requests answered ERR, per command.").by("command"),
        |s| per_command(s, |c| V::N(c.errors))),
    exported(histogram("ruid_request_duration_seconds", "Request handling latency, per command.").by("command"),
        |s| per_command(s, |c| V::Latency(s.metrics.latency_of(c.command)))),
    exported(counter("ruid_net_bytes_read_total", "Request bytes consumed off served connections (both protocols)."),
        |s| n(Some(s.metrics), Metrics::net_bytes_read)),
    exported(counter("ruid_net_bytes_written_total", "Response bytes written to served connections (both protocols)."),
        |s| n(Some(s.metrics), Metrics::net_bytes_written)),
    exported(counter("ruid_protocol_requests_total", "Requests received, per wire protocol front end.").by("protocol"),
        |s| each(PROTOCOLS.into_iter().zip(s.metrics.protocol_requests()).map(|(p, c)| (p, V::N(c))))),
    exported(histogram("ruid_pipeline_depth",
        "Complete requests (text lines or binary frames) served per connection service pass."),
        |s| one(Some(s.metrics.pipeline_depth()), V::Counts)),
    exported(counter("ruid_mux_parks_total", "Timed parks taken by mux workers holding connections."),
        |s| n(Some(s.metrics), Metrics::mux_parks)),
    exported(counter("ruid_mux_spin_catches_total",
        "Mux passes that found work while their worker yield-spun instead of parking."),
        |s| n(Some(s.metrics), Metrics::mux_spin_catches)),
    exported(counter("ruid_mux_outbox_wakes_total", "Offloaded replies announced on their mux worker's wake channel."),
        |s| n(Some(s.metrics), Metrics::mux_outbox_wakes)),
    exported(histogram("ruid_batch_size", "Sub-queries per MQUERY/MLABEL batch frame."),
        |s| one(Some(s.metrics.batch_size()), V::Counts)),
    exported(counter("ruid_xpath_steps_total", "XPath location steps evaluated, per axis.").by("axis"), |s| {
        let steps = s.metrics.axis_steps();
        each(xpath::Axis::ALL.map(|axis| (axis.name(), V::N(steps[axis.index()]))))
    }),
    exported(counter("ruid_plan_operators_total", "Physical plan operators executed by the planned engine, per kind.")
        .by("op"), |s| each(PLAN_OPERATORS.into_iter().zip(s.metrics.plan_ops()).map(|(op, c)| (op, V::N(c))))),
    exported(counter("ruid_updates_total", "Committed structural updates, per operation.").by("op"),
        |s| each(UPDATE_OPS.into_iter().zip(s.metrics.updates()).map(|(op, c)| (op, V::N(c))))),
    exported(gauge("ruid_generation", "Newest committed MVCC catalog generation."), |s| n(s.generation, |g| g)),
    exported(histogram("ruid_planner_duration_seconds", "Plan-construction latency (excludes parsing and execution).")
        .by("engine"), |s| each([("planned", V::Latency(s.metrics.planner_time()))])),
    exported(counter("ruid_plan_cache_hits_total", "Planned-query cache hits."), |s| n(s.cache, |c| c.hits)),
    exported(counter("ruid_plan_cache_misses_total", "Planned-query cache misses."), |s| n(s.cache, |c| c.misses)),
    exported(counter("ruid_plan_cache_invalidations_total",
        "Cached responses dropped by a WAL-generation mismatch or purge."), |s| n(s.cache, |c| c.invalidations)),
    exported(counter("ruid_plan_cache_evictions_total", "Cached responses evicted by capacity."),
        |s| n(s.cache, |c| c.evictions)),
    exported(gauge("ruid_plan_cache_entries", "Responses currently cached."), |s| n(s.cache, |c| c.entries)),
    exported(counter("ruid_pool_jobs_submitted_total", "Jobs accepted by the worker pool."),
        |s| n(s.pool, PoolStats::submitted)),
    exported(counter("ruid_pool_jobs_completed_total", "Jobs finished by the worker pool."),
        |s| n(s.pool, PoolStats::completed)),
    exported(counter("ruid_pool_jobs_rejected_total", "Jobs refused by the bounded queue."),
        |s| n(s.pool, PoolStats::rejected)),
    exported(gauge("ruid_pool_queue_depth", "Jobs submitted but not yet finished."),
        |s| n(s.pool, PoolStats::queue_depth)),
    exported(gauge("ruid_pool_queue_depth_max", "High-water mark of the queue depth."),
        |s| n(s.pool, PoolStats::max_queue_depth)),
    exported(counter("ruid_par_maps_total", "Parallel map invocations."),
        |s| n(Some(&s.exec), |e| e.par_maps)),
    exported(counter("ruid_par_items_total", "Items processed by parallel maps."),
        |s| n(Some(&s.exec), |e| e.par_items)),
    exported(counter("ruid_par_steals_total", "Items claimed from another worker's range."),
        |s| n(Some(&s.exec), |e| e.par_steals)),
    field("durability", |s| each([("on", V::Is(s.wal.is_some())), ("off", V::Is(s.wal.is_none()))])),
    field("fsync", |s| one(s.durability, |d| V::Text(d.policy().to_string()))),
    both("generation", gauge("ruid_wal_generation", "Current snapshot/WAL generation."),
        |s| n(s.wal, |w| w.generation)),
    both("wal_records", counter("ruid_wal_records_total", "Records appended to the live WAL segment."),
        |s| n(s.wal, |w| w.wal_records)),
    both("wal_bytes", counter("ruid_wal_bytes_total", "Bytes appended to the live WAL segment."),
        |s| n(s.wal, |w| w.wal_bytes)),
    both("wal_fsyncs", counter("ruid_wal_fsyncs_total", "fsyncs issued on the live WAL segment."),
        |s| n(s.wal, |w| w.wal_fsyncs)),
    both("wal_unsynced", gauge("ruid_wal_unsynced_records", "Appended records not yet fsynced."),
        |s| n(s.wal, |w| w.wal_unsynced_records)),
    exported(counter("ruid_wal_append_seconds_total", "Time spent appending WAL records."),
        |s| one(s.wal, |w| V::Secs(secs(w.wal_append_ns)))),
    exported(counter("ruid_wal_fsync_seconds_total", "Time spent in WAL fsyncs."),
        |s| one(s.wal, |w| V::Secs(secs(w.wal_fsync_ns)))),
    both("snapshots", counter("ruid_snapshots_total", "Snapshots installed by this process."),
        |s| n(s.wal, |w| w.snapshots)),
    exported(counter("ruid_snapshot_seconds_total", "Time spent writing and installing snapshots."),
        |s| one(s.wal, |w| V::Secs(secs(w.snapshot_ns)))),
    field("recovered_docs", |s| n(s.durability, |d| d.recovery().snapshot_docs)),
    field("replayed", |s| n(s.durability, |d| d.recovery().replayed)),
    field("truncated_bytes", |s| n(s.durability, |d| d.recovery().truncated_bytes)),
    field("orphaned_segments", |s| n(s.durability, |d| d.recovery().orphaned_segments)),
    field("snapshots_skipped", |s| n(s.durability, |d| d.recovery().snapshots_skipped)),
    field("quarantined", |s| n(s.durability, |d| d.recovery().quarantined.len() as u64)),
    both("repl_role", gauge("ruid_repl_role", "Replication role of this process (1 on the active label).").by("role"),
        |s| {
            let leader = s.repl.as_ref()?.is_leader;
            each([("leader", V::Is(leader)), ("follower", V::Is(!leader))])
        }),
    both("repl_lag_records", gauge("ruid_repl_lag_records",
        "WAL records the leader has committed beyond this follower's applied position."),
        |s| n(s.repl.as_ref(), |r| r.lag_records)),
    both("repl_lag_seconds", gauge("ruid_repl_lag_seconds",
        "Seconds this follower has continuously been behind the leader (0 when caught up or leading)."),
        |s| one(s.repl.as_ref(), |r| V::Secs(r.lag_seconds))),
    both("repl_applied", counter("ruid_repl_records_applied_total", "Shipped WAL records applied by this follower."),
        |s| n(s.repl.as_ref(), |r| r.records_applied)),
    both("repl_bootstraps", counter("ruid_repl_bootstraps_total", "Snapshot bootstraps this follower performed."),
        |s| n(s.repl.as_ref(), |r| r.bootstraps)),
    both("repl_reconnects", counter("ruid_repl_reconnects_total",
        "Leader connections re-established after a transport error."), |s| n(s.repl.as_ref(), |r| r.reconnects)),
    both("repl_backoff_waits", counter("ruid_repl_backoff_waits_total",
        "Backoff sleeps taken between reconnect attempts."), |s| n(s.repl.as_ref(), |r| r.backoff_waits)),
    both("repl_refusals", counter("ruid_repl_refusals_total",
        "Leader refusals (stream discontinuity or rotation) forcing a re-bootstrap."),
        |s| n(s.repl.as_ref(), |r| r.refusals)),
    both("repl_quarantined", counter("ruid_repl_quarantined_total",
        "Documents quarantined after a shipped record failed to apply."), |s| n(s.repl.as_ref(), |r| r.quarantined)),
    both("repl_promotions", counter("ruid_repl_promotions_total",
        "Follower-to-leader promotions completed by this process."), |s| n(s.repl.as_ref(), |r| r.promotions)),
    both("repl_chunks_shipped", counter("ruid_repl_chunks_shipped_total", "WAL tail chunks shipped to followers."),
        |s| n(s.repl.as_ref(), |r| r.chunks_shipped)),
    both("repl_bytes_shipped", counter("ruid_repl_bytes_shipped_total", "WAL bytes shipped to followers."),
        |s| n(s.repl.as_ref(), |r| r.bytes_shipped)),
    both("repl_snapshots_shipped", counter("ruid_repl_snapshots_shipped_total",
        "Snapshot bootstraps served to followers."), |s| n(s.repl.as_ref(), |r| r.snapshots_shipped)),
    both("repl_acks", counter("ruid_repl_acks_total", "Acknowledgements received from followers."),
        |s| n(s.repl.as_ref(), |r| r.acks_received)),
    both("repl_followers", gauge("ruid_repl_followers", "Followers currently attached to this leader."),
        |s| n(s.repl.as_ref(), |r| r.followers)),
    both("repl_bootstrap_{}_ms", gauge("ruid_repl_bootstrap_seconds",
        "Time each phase of this follower's last snapshot bootstrap took.").by("phase"), |s| {
        let b = s.repl.as_ref()?.last_bootstrap;
        each([
            ("fetch", V::Ms(b.fetch_s)),
            ("decode", V::Ms(b.decode_s)),
            ("install", V::Ms(b.install_s)),
            ("persist", V::Ms(b.persist_s)),
        ])
    }),
    exported(gauge("ruid_trace_enabled", "Whether per-request tracing is on."),
        |s| n(s.tracer, |t| u64::from(t.enabled()))),
    exported(gauge("ruid_slowlog_entries", "Entries currently in the slow-query ring."),
        |s| n(s.tracer, |t| t.entries() as u64)),
    exported(counter("ruid_slowlog_captured_total", "Slow requests captured since start."),
        |s| n(s.tracer, Tracer::captured)),
];

/// The `METRICS` reply without its `OK `: every row with a key, in table
/// order, as space-separated `key=value` tokens. The server's shutdown
/// dump prints the same line.
pub(crate) fn render_line(src: &Sources<'_>) -> String {
    let sample = Sample::take(src);
    let mut out = String::new();
    for row in SERIES {
        let Some(key) = row.key else { continue };
        for (label, value) in (row.read)(&sample).into_iter().flatten() {
            let value = match value {
                V::N(n) => n.to_string(),
                V::Secs(s) => format!("{s:.3}"),
                V::Ms(s) => format!("{:.1}", s * 1e3),
                V::Is(true) => label.to_string(),
                V::Text(text) => text,
                V::Is(false) | V::Latency(_) | V::Counts(_) => continue,
            };
            let sep = if out.is_empty() { "" } else { " " };
            let _ = write!(out, "{sep}{}={value}", key.replace("{}", &label));
        }
    }
    out
}

/// The Prometheus text exposition: every row with a family whose source
/// is present, in table order. Latency histograms come out as cumulative
/// `_bucket{le="..."}` series in seconds plus `_sum`/`_count`, as scrapers
/// expect.
pub(crate) fn render_exposition(src: &Sources<'_>) -> String {
    let sample = Sample::take(src);
    let mut out = String::new();
    for row in SERIES {
        let Some(Family { name, kind, help, label }) = row.family else { continue };
        let Some(members) = (row.read)(&sample) else { continue };
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
        for (value_label, value) in members {
            let labels = if label.is_empty() { String::new() } else { format!("{label}=\"{value_label}\"") };
            match value {
                V::N(n) => sample_line(&mut out, name, &labels, n),
                V::Secs(s) | V::Ms(s) => sample_line(&mut out, name, &labels, s),
                V::Is(holds) => sample_line(&mut out, name, &labels, u8::from(holds)),
                V::Text(_) => {}
                V::Latency(h) => {
                    let bounds = (0..Histogram::BUCKET_COUNT)
                        .map_while(|i| Histogram::bucket_upper_ns(i).map(|ns| secs(ns).to_string()));
                    let counts = bounds.zip(h.bucket_counts());
                    buckets(&mut out, name, &labels, counts, h.total(), secs(h.sum_ns()));
                }
                V::Counts(h) => {
                    let bounds = (0..ValueHistogram::BUCKET_COUNT)
                        .map_while(|i| ValueHistogram::bucket_upper(i).map(|v| v.to_string()));
                    buckets(&mut out, name, &labels, bounds.zip(h.bucket_counts()), h.total(), h.sum());
                }
            }
        }
    }
    out
}

/// `name{labels} value`, or `name value` when there are no labels.
fn sample_line(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// A histogram's cumulative buckets, one per finite upper bound, then the
/// `+Inf` bucket (the open-ended last one), `_sum` and `_count`.
fn buckets(
    out: &mut String,
    name: &str,
    labels: &str,
    bounds: impl Iterator<Item = (String, u64)>,
    total: u64,
    sum: impl Display,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (le, count) in bounds {
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}");
    sample_line(out, &format!("{name}_sum"), labels, sum);
    sample_line(out, &format!("{name}_count"), labels, total);
}

#[cfg(test)]
impl<'a> Sources<'a> {
    /// Sources holding `metrics` alone.
    pub(crate) fn of(metrics: &'a Metrics) -> Sources<'a> {
        Sources {
            metrics,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: None,
            repl: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Command;
    use std::time::Duration;

    fn ctx_metrics_only(m: &Metrics) -> String {
        render_exposition(&Sources::of(m))
    }

    #[test]
    fn exposition_has_cumulative_monotone_buckets() {
        let m = Metrics::new();
        m.record(Command::Query, false, Duration::from_micros(3));
        m.record(Command::Query, false, Duration::from_micros(700));
        m.record(Command::Query, true, Duration::from_millis(12));
        let body = ctx_metrics_only(&m);
        assert!(body.contains("ruid_requests_total{command=\"query\"} 3"), "{body}");
        assert!(body.contains("ruid_request_errors_total{command=\"query\"} 1"), "{body}");
        // Cumulative buckets never decrease and end at the count.
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("ruid_request_duration_seconds_bucket{command=\"query\",le=\"") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "bucket shrank: {line}");
                last = v;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, Histogram::BUCKET_COUNT, "one line per bound plus +Inf");
        assert_eq!(last, 3, "+Inf bucket equals the sample count");
        assert!(
            body.contains("ruid_request_duration_seconds_count{command=\"query\"} 3"),
            "{body}"
        );
    }

    #[test]
    fn exposition_lists_every_axis_and_robustness_kind() {
        let m = Metrics::new();
        let body = ctx_metrics_only(&m);
        for axis in xpath::Axis::ALL {
            assert!(
                body.contains(&format!("ruid_xpath_steps_total{{axis=\"{}\"}} 0", axis.name())),
                "missing axis {} in {body}",
                axis.name()
            );
        }
        for kind in ["shed", "oversized", "torn", "deadline_read", "deadline_write", "deadline_request"] {
            assert!(
                body.contains(&format!("ruid_robustness_events_total{{kind=\"{kind}\"}} 0")),
                "missing kind {kind}"
            );
        }
        // Executor counters are process-wide and always present.
        assert!(body.contains("ruid_par_maps_total"), "{body}");
    }

    #[test]
    fn le_bounds_are_plain_decimals() {
        let m = Metrics::new();
        m.record(Command::Ping, false, Duration::from_nanos(1));
        let body = ctx_metrics_only(&m);
        assert!(body.contains("le=\"0.000000002\""), "{body}");
        assert!(!body.contains('e') || !body.contains("le=\"2e"), "no scientific notation");
        // Every HELP line is paired with a TYPE line.
        let helps = body.lines().filter(|l| l.starts_with("# HELP")).count();
        let types = body.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(helps, types);
    }

    #[test]
    fn tracer_section_renders_when_present() {
        let m = Metrics::new();
        let t = Tracer::new(8);
        t.set_threshold_ms(0);
        let body = render_exposition(&Sources { tracer: Some(&t), ..Sources::of(&m) });
        assert!(body.contains("ruid_trace_enabled 1"), "{body}");
        assert!(body.contains("ruid_slowlog_captured_total 0"), "{body}");
    }

    #[test]
    fn replication_families_render_for_both_roles() {
        let m = Metrics::new();
        let leader = ReplState::new_leader();
        let body = render_exposition(&Sources { repl: Some(&leader), ..Sources::of(&m) });
        assert!(body.contains("ruid_repl_role{role=\"leader\"} 1"), "{body}");
        assert!(body.contains("ruid_repl_role{role=\"follower\"} 0"), "{body}");
        assert!(body.contains("ruid_repl_lag_seconds 0"), "{body}");
        assert!(body.contains("ruid_repl_lag_records 0"), "{body}");
        assert!(body.contains("ruid_repl_chunks_shipped_total 0"), "{body}");
        assert!(body.contains("ruid_repl_records_applied_total 0"), "{body}");
        assert!(body.contains("ruid_repl_reconnects_total 0"), "{body}");
        assert!(body.contains("ruid_repl_backoff_waits_total 0"), "{body}");
        for phase in ["fetch", "decode", "install", "persist"] {
            let line = format!("ruid_repl_bootstrap_seconds{{phase=\"{phase}\"}} 0\n");
            assert!(body.contains(&line), "{body}");
        }

        let follower = ReplState::new_follower("127.0.0.1:1".into());
        follower.note_applied();
        follower.note_applied();
        follower.note_reconnect();
        follower.set_lag(7);
        follower.note_bootstrap_phases(crate::replication::BootstrapPhases {
            fetch_s: 0.25,
            decode_s: 0.5,
            install_s: 0.125,
            persist_s: 0.0625,
        });
        let body = render_exposition(&Sources { repl: Some(&follower), ..Sources::of(&m) });
        assert!(body.contains("ruid_repl_role{role=\"leader\"} 0"), "{body}");
        assert!(body.contains("ruid_repl_role{role=\"follower\"} 1"), "{body}");
        assert!(body.contains("ruid_repl_lag_records 7"), "{body}");
        assert!(body.contains("ruid_repl_records_applied_total 2"), "{body}");
        assert!(body.contains("ruid_repl_reconnects_total 1"), "{body}");
        assert!(body.contains("# TYPE ruid_repl_bootstrap_seconds gauge"), "{body}");
        for (phase, seconds) in [("fetch", 0.25), ("decode", 0.5), ("install", 0.125), ("persist", 0.0625)] {
            let line = format!("ruid_repl_bootstrap_seconds{{phase=\"{phase}\"}} {seconds}\n");
            assert!(body.contains(&line), "{body}");
        }
        let line = render_line(&Sources { repl: Some(&follower), ..Sources::of(&m) });
        assert!(
            line.ends_with(
                "repl_bootstrap_fetch_ms=250.0 repl_bootstrap_decode_ms=500.0 \
                 repl_bootstrap_install_ms=125.0 repl_bootstrap_persist_ms=62.5"
            ),
            "{line}"
        );
        // Once caught up the continuous-behind clock resets to zero.
        follower.set_lag(0);
        let body = render_exposition(&Sources { repl: Some(&follower), ..Sources::of(&m) });
        assert!(body.contains("ruid_repl_lag_seconds 0\n"), "{body}");
    }

    #[test]
    fn wire_layer_families_render() {
        use crate::metrics::Protocol;
        let m = Metrics::new();
        m.add_net_read(120);
        m.add_net_written(456);
        m.record_protocol_request(Protocol::Text);
        m.record_protocol_request(Protocol::Binary);
        m.record_protocol_request(Protocol::Binary);
        m.record_pipeline_depth(1);
        m.record_pipeline_depth(32);
        m.record_batch_size(64);
        let body = ctx_metrics_only(&m);
        assert!(body.contains("ruid_net_bytes_read_total 120"), "{body}");
        assert!(body.contains("ruid_net_bytes_written_total 456"), "{body}");
        assert!(body.contains("ruid_protocol_requests_total{protocol=\"text\"} 1"), "{body}");
        assert!(body.contains("ruid_protocol_requests_total{protocol=\"binary\"} 2"), "{body}");
        // Value histograms: integer le bounds, cumulative counts.
        assert!(body.contains("ruid_pipeline_depth_bucket{le=\"1\"} 1"), "{body}");
        assert!(body.contains("ruid_pipeline_depth_bucket{le=\"32\"} 2"), "{body}");
        assert!(body.contains("ruid_pipeline_depth_bucket{le=\"+Inf\"} 2"), "{body}");
        assert!(body.contains("ruid_pipeline_depth_sum 33"), "{body}");
        assert!(body.contains("ruid_pipeline_depth_count 2"), "{body}");
        assert!(body.contains("ruid_batch_size_bucket{le=\"64\"} 1"), "{body}");
        assert!(body.contains("ruid_batch_size_sum 64"), "{body}");
    }

    #[test]
    fn plan_families_render() {
        let m = Metrics::new();
        m.record_plan_ops([5, 1, 2, 4, 3]);
        m.record_planner_time(Duration::from_micros(7));
        let cache = plan::ResultCache::new(4);
        cache.insert(1, "//a", 1, "OK 0".into());
        assert!(cache.lookup(1, "//a", 1).is_some());
        assert!(cache.lookup(1, "//a", 2).is_none(), "stale generation");
        let body = render_exposition(&Sources { plan_cache: Some(&cache), ..Sources::of(&m) });
        // Every operator kind is listed, even untouched ones.
        assert!(body.contains("ruid_plan_operators_total{op=\"scan\"} 5"), "{body}");
        assert!(body.contains("ruid_plan_operators_total{op=\"child-join\"} 1"), "{body}");
        assert!(body.contains("ruid_plan_operators_total{op=\"containment-join\"} 2"), "{body}");
        assert!(body.contains("ruid_plan_operators_total{op=\"value-probe\"} 4"), "{body}");
        assert!(body.contains("ruid_plan_operators_total{op=\"fallback-step\"} 3"), "{body}");
        assert!(body.contains("ruid_planner_duration_seconds_count{engine=\"planned\"} 1"), "{body}");
        assert!(body.contains("ruid_plan_cache_hits_total 1"), "{body}");
        assert!(body.contains("ruid_plan_cache_misses_total 1"), "{body}");
        assert!(body.contains("ruid_plan_cache_invalidations_total 1"), "{body}");
        assert!(body.contains("ruid_plan_cache_entries 0"), "{body}");
    }

    /// Every source in a fixed, fully populated state: what the pins below
    /// render. Nothing in it depends on the clock except the WAL and
    /// snapshot time totals, which the exposition pin checks for presence
    /// only.
    struct Pinned {
        metrics: Metrics,
        catalog: crate::catalog::Catalog,
        durability: Durability,
        tracer: Tracer,
        pool: std::sync::Arc<PoolStats>,
        cache: ResultCache,
        leader: ReplState,
        follower: ReplState,
        _dir: crate::Scratch,
    }

    impl Pinned {
        fn sources<'a>(&'a self, durable: bool, repl: &'a ReplState) -> Sources<'a> {
            Sources {
                metrics: &self.metrics,
                catalog: Some(&self.catalog),
                durability: durable.then_some(&self.durability),
                tracer: Some(&self.tracer),
                pool: Some(&self.pool),
                plan_cache: Some(&self.cache),
                repl: Some(repl),
            }
        }
    }

    fn pinned() -> Pinned {
        use crate::catalog::{Catalog, LoadedDoc};
        use crate::metrics::Protocol;
        use durable::{FsyncPolicy, WalOp};

        let m = Metrics::new();
        for (command, error, micros) in [
            (Command::Ping, false, 1),
            (Command::Query, false, 3),
            (Command::Query, true, 700),
            (Command::Load, false, 2_000),
        ] {
            m.record(command, error, Duration::from_micros(micros));
        }
        for _ in 0..3 {
            m.record_connection();
        }
        m.record_shed();
        m.record_oversized();
        m.record_torn();
        m.record_torn();
        m.record_deadline_read();
        m.record_deadline_write();
        m.record_deadline_request();
        m.add_net_read(128);
        m.add_net_written(512);
        m.record_protocol_request(Protocol::Text);
        m.record_protocol_request(Protocol::Binary);
        m.record_protocol_request(Protocol::Binary);
        m.record_pipeline_depth(1);
        m.record_pipeline_depth(32);
        m.record_batch_size(64);
        for _ in 0..3 {
            m.record_mux_park();
        }
        m.record_mux_spin_catch();
        m.record_mux_outbox_wake();
        m.record_mux_outbox_wake();
        let mut steps = xpath::StepStats::default();
        steps.steps[xpath::Axis::Child.index()] = 3;
        steps.steps[xpath::Axis::Descendant.index()] = 2;
        m.record_axis_steps(&steps);
        m.record_plan_ops([5, 1, 2, 4, 3]);
        m.record_planner_time(Duration::from_micros(7));
        m.record_update(Command::Insert);
        m.record_update(Command::Insert);
        m.record_update(Command::Delete);

        // The op script: two loads and an unload, a snapshot, one more
        // load and a torn tail; then a reopen, a second snapshot, an
        // unload and a PERSIST.
        let dir = crate::Scratch::new("pinned");
        let catalog = Catalog::new(4);
        let xml = "<a><b/><c>t</c></a>";
        let load = |doc_id: u64| WalOp::Load {
            doc_id,
            path: format!("doc{doc_id}.xml"),
            config: ruid_core::PartitionConfig::by_depth(2),
            with_store: true,
            xml: xml.into(),
        };
        {
            let (d, _, _) = Durability::open(&dir, FsyncPolicy::Always).unwrap();
            let mut loaded = LoadedDoc::build("doc1.xml", xml, 2, true).unwrap();
            loaded.generation = catalog.next_generation();
            d.log_with(&load(1), || catalog.insert_with_id(1, loaded)).unwrap();
            d.log_with(&load(2), || ()).unwrap();
            d.log_with(&WalOp::Unload { doc_id: 2 }, || ()).unwrap();
            d.snapshot(&catalog).unwrap();
            d.log_with(&load(3), || ()).unwrap();
        }
        let wal = dir.join(durable::wal_file_name(1));
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&wal, bytes).unwrap();
        let (durability, _, _) = Durability::open(&dir, FsyncPolicy::Always).unwrap();
        durability.snapshot(&catalog).unwrap();
        durability.log_with(&WalOp::Unload { doc_id: 3 }, || ()).unwrap();
        durability.persist().unwrap();

        let tracer = Tracer::new(8);
        tracer.set_threshold_ms(0);
        tracer.observe(Command::Query, "QUERY 1 //a", 1_000, &tracer.begin());

        let pool = par::ThreadPool::new(1, 4);
        let stats = pool.stats();
        pool.execute(|| {}).unwrap();
        while stats.completed() < 1 {
            std::thread::yield_now();
        }
        pool.execute(|| {}).unwrap();
        pool.shutdown();

        let cache = ResultCache::new(4);
        for q in ["//a", "//b", "//c", "//d", "//e"] {
            cache.insert(1, q, 1, "OK 0".into());
        }
        assert!(cache.lookup(1, "//e", 1).is_some());
        assert!(cache.lookup(1, "//d", 2).is_none());

        let leader = ReplState::new_leader();
        leader.note_chunk(4_096);
        leader.note_chunk(100);
        leader.note_snapshot_shipped();
        leader.note_ack("f1", 1, 7, false);
        leader.note_ack("f2", 1, 3, false);
        leader.note_ack("f2", 1, 3, true);
        leader.set_lag(0);

        let follower = ReplState::new_follower("127.0.0.1:1".into());
        follower.note_bootstrap();
        follower.note_bootstrap_phases(crate::replication::BootstrapPhases {
            fetch_s: 0.25,
            decode_s: 0.5,
            install_s: 0.125,
            persist_s: 0.0625,
        });
        follower.note_applied();
        follower.note_applied();
        follower.note_reconnect();
        follower.note_backoff();
        follower.note_backoff();
        follower.note_refusal();
        follower.note_quarantined();
        follower.set_lag(0);

        Pinned {
            metrics: m,
            catalog,
            durability,
            tracer,
            pool: stats,
            cache,
            leader,
            follower,
            _dir: dir,
        }
    }

    /// The `METRICS` reply for `src`.
    fn metrics_reply(src: &Sources<'_>) -> String {
        format!("OK {}", render_line(src))
    }

    /// The whole `METRICS` reply of a fixed state, durability on and off,
    /// for a leader and a follower, byte for byte.
    #[test]
    fn metrics_reply_is_pinned() {
        const HEAD: &str = "OK connections=3 total=4 errors=1 shed=1 oversized=1 torn=2 \
            deadline_read=1 deadline_write=1 deadline_request=1 PING=1/0/1000/1000/1000 \
            LOAD=1/0/2000000/2000000/2000000 QUERY=2/1/3000/700000/700000";
        const DURABLE: &str = "durability=on fsync=always generation=2 wal_records=1 \
            wal_bytes=25 wal_fsyncs=2 wal_unsynced=0 snapshots=1 recovered_docs=1 replayed=1 \
            truncated_bytes=5 orphaned_segments=0 snapshots_skipped=0 quarantined=0";
        const LEADER: &str = "repl_role=leader repl_lag_records=0 repl_lag_seconds=0.000 \
            repl_applied=0 repl_bootstraps=0 repl_reconnects=0 repl_backoff_waits=0 \
            repl_refusals=0 repl_quarantined=0 repl_promotions=0 repl_chunks_shipped=2 \
            repl_bytes_shipped=4196 repl_snapshots_shipped=1 repl_acks=3 repl_followers=1 \
            repl_bootstrap_fetch_ms=0.0 repl_bootstrap_decode_ms=0.0 \
            repl_bootstrap_install_ms=0.0 repl_bootstrap_persist_ms=0.0";
        const FOLLOWER: &str = "repl_role=follower repl_lag_records=0 repl_lag_seconds=0.000 \
            repl_applied=2 repl_bootstraps=1 repl_reconnects=1 repl_backoff_waits=2 \
            repl_refusals=1 repl_quarantined=1 repl_promotions=0 repl_chunks_shipped=0 \
            repl_bytes_shipped=0 repl_snapshots_shipped=0 repl_acks=0 repl_followers=0 \
            repl_bootstrap_fetch_ms=250.0 repl_bootstrap_decode_ms=500.0 \
            repl_bootstrap_install_ms=125.0 repl_bootstrap_persist_ms=62.5";
        let p = pinned();
        for (durable, repl, middle, tail) in [
            (true, &p.leader, DURABLE, LEADER),
            (true, &p.follower, DURABLE, FOLLOWER),
            (false, &p.leader, "durability=off", LEADER),
            (false, &p.follower, "durability=off", FOLLOWER),
        ] {
            let reply = metrics_reply(&p.sources(durable, repl));
            assert_eq!(reply, format!("{HEAD} {middle} {tail}"));
        }
    }

    /// One declaration per series: no family name or `METRICS` key twice,
    /// every counter named `…_total`, and no row that neither rendering
    /// shows.
    #[test]
    fn every_series_is_declared_once() {
        let mut families = std::collections::BTreeSet::new();
        for row in SERIES {
            assert!(row.key.is_some() || row.family.is_some(), "a row nothing renders");
            if let Some(f) = row.family {
                assert!(families.insert(f.name), "family {} declared twice", f.name);
                let total = f.name.ends_with("_total");
                assert!(f.kind != "counter" || total, "counter {} must end in _total", f.name);
            }
        }
        // Every value a row reads is one its renderings print: no text
        // in the exposition, no histogram in `METRICS`.
        let p = pinned();
        let sample = Sample::take(&p.sources(true, &p.follower));
        for row in SERIES {
            for (_, value) in (row.read)(&sample).expect("every source is present") {
                let text = matches!(value, V::Text(_));
                let histogram = matches!(value, V::Latency(_) | V::Counts(_));
                assert!(!text || row.family.is_none(), "text in family {:?}", row.family.map(|f| f.name));
                assert!(!histogram || row.key.is_none(), "histogram under key {:?}", row.key);
            }
        }
        // A `{}` key expands once per member, so the keys are checked in
        // the lines of the fully populated state, where every row shows.
        for (durable, repl) in [(true, &p.leader), (true, &p.follower), (false, &p.leader)] {
            let line = render_line(&p.sources(durable, repl));
            let mut keys = std::collections::BTreeSet::new();
            for token in line.split(' ') {
                let (key, _) = token.split_once('=').unwrap();
                assert!(keys.insert(key), "key {key} twice in {line}");
            }
        }
    }

    /// Families whose samples read the clock, or process-wide counters
    /// other tests bump concurrently: their sample lines are compared
    /// without their values.
    const UNPINNED_VALUES: [&str; 6] = [
        "ruid_wal_append_seconds_total",
        "ruid_wal_fsync_seconds_total",
        "ruid_snapshot_seconds_total",
        "ruid_par_maps_total",
        "ruid_par_items_total",
        "ruid_par_steals_total",
    ];

    /// Splits an exposition into its families, keyed by name: the HELP and
    /// TYPE lines plus every sample line, with the values of
    /// [`UNPINNED_VALUES`] cut off. Panics when a family is not contiguous
    /// or a sample belongs to no family.
    fn families(body: &str) -> std::collections::BTreeMap<String, Vec<String>> {
        let mut out: std::collections::BTreeMap<String, Vec<String>> = Default::default();
        let mut current = String::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                current = rest.split(' ').next().unwrap().to_owned();
                assert!(!out.contains_key(&current), "family {current} is not contiguous");
                out.insert(current.clone(), vec![line.to_owned()]);
                continue;
            }
            let family = out.get_mut(&current).unwrap_or_else(|| panic!("orphan line {line}"));
            if !line.starts_with("# TYPE ") {
                let name = line.split(['{', ' ']).next().unwrap();
                let member = name == current
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|s| name.strip_suffix(s) == Some(current.as_str()));
                assert!(member, "sample {line} outside its family {current}");
            }
            let line = if UNPINNED_VALUES.contains(&current.as_str()) && !line.starts_with('#') {
                line.rsplit_once(' ').unwrap().0
            } else {
                line
            };
            family.push(line.to_owned());
        }
        out
    }

    /// The whole exposition of the same state (durability on, a follower),
    /// family by family: each family's HELP, TYPE and sample lines, in any
    /// family order.
    #[test]
    fn exposition_is_pinned() {
        let p = pinned();
        let body = render_exposition(&p.sources(true, &p.follower));
        let expected = families(include_str!("../tests/pins/exposition.prom"));
        let actual = families(&body);
        let names = |f: &std::collections::BTreeMap<String, Vec<String>>| {
            f.keys().cloned().collect::<Vec<_>>()
        };
        assert_eq!(names(&actual), names(&expected));
        for (name, lines) in &expected {
            assert_eq!(&actual[name], lines, "family {name}");
        }
    }
}
