//! Prometheus text-format exposition (version 0.0.4) of every service
//! counter, gauge and histogram.
//!
//! One renderer serves both transports: the `METRICS prom` verb (body
//! escaped onto the wire line) and the optional `serve --metrics-addr`
//! plain-HTTP endpoint. The per-command latency histograms come out as
//! cumulative `_bucket{le="..."}` series plus `_sum`/`_count`, exactly as
//! scrapers expect; everything else is flat counters/gauges with a
//! `command=`, `kind=` or `axis=` label where a family has members. All
//! values are read with relaxed loads — a scrape is a statistical
//! snapshot, not a transaction.

use par::PoolStats;
use plan::ResultCache;

use crate::catalog::Catalog;
use crate::metrics::{Histogram, Metrics, ValueHistogram, PLAN_OPERATORS, PROTOCOLS, UPDATE_OPS};
use crate::persist::Durability;
use crate::replication::ReplState;
use crate::trace::Tracer;

/// Everything a scrape can see. `metrics` is always present; the other
/// layers are optional because the server may run without durability, and
/// unit tests render partial contexts.
pub struct PromCtx<'a> {
    /// The per-command counters and histograms.
    pub metrics: &'a Metrics,
    /// The document catalog (MVCC generation gauge).
    pub catalog: Option<&'a Catalog>,
    /// The durability manager, when the server has a data dir.
    pub durability: Option<&'a Durability>,
    /// The request tracer.
    pub tracer: Option<&'a Tracer>,
    /// The worker pool's queue statistics.
    pub pool: Option<&'a PoolStats>,
    /// The planned-query result cache.
    pub plan_cache: Option<&'a ResultCache>,
    /// Replication role/lag gauges and shipping counters.
    pub repl: Option<&'a ReplState>,
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Nanoseconds as a seconds literal Prometheus accepts (Rust's `Display`
/// for `f64` never uses scientific notation).
fn secs(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

fn histogram(out: &mut String, name: &str, label: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, count) in counts.iter().enumerate() {
        let Some(upper) = Histogram::bucket_upper_ns(i) else {
            // The open-ended final bucket is the `+Inf` line below.
            break;
        };
        cumulative += count;
        out.push_str(&format!(
            "{name}_bucket{{{label},le=\"{}\"}} {cumulative}\n",
            secs(upper)
        ));
    }
    let total = h.total();
    out.push_str(&format!("{name}_bucket{{{label},le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum{{{label}}} {}\n", secs(h.sum_ns())));
    out.push_str(&format!("{name}_count{{{label}}} {total}\n"));
}

/// Renders an unlabeled dimensionless [`ValueHistogram`] (pipeline
/// depths, batch sizes): power-of-two `le` bounds as plain integers.
fn value_histogram(out: &mut String, name: &str, h: &ValueHistogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, count) in counts.iter().enumerate() {
        let Some(upper) = ValueHistogram::bucket_upper(i) else {
            break; // the open-ended final bucket is the `+Inf` line
        };
        cumulative += count;
        out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
    }
    let total = h.total();
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {total}\n"));
}

/// Renders the full exposition. Families with no possible members yet
/// (e.g. a command nobody called) are omitted, matching the wire
/// renderings; structural families (axes, robustness kinds) always list
/// every member so dashboards see explicit zeros.
pub fn render(ctx: &PromCtx<'_>) -> String {
    let m = ctx.metrics;
    let mut out = String::new();

    family(&mut out, "ruid_connections_total", "counter", "Connections accepted.");
    out.push_str(&format!("ruid_connections_total {}\n", m.connections()));

    let summaries = m.command_summaries();
    family(&mut out, "ruid_requests_total", "counter", "Requests handled, per command.");
    for s in &summaries {
        out.push_str(&format!(
            "ruid_requests_total{{command=\"{}\"}} {}\n",
            s.command.name().to_ascii_lowercase(),
            s.count
        ));
    }
    family(
        &mut out,
        "ruid_request_errors_total",
        "counter",
        "Requests answered ERR, per command.",
    );
    for s in &summaries {
        out.push_str(&format!(
            "ruid_request_errors_total{{command=\"{}\"}} {}\n",
            s.command.name().to_ascii_lowercase(),
            s.errors
        ));
    }
    family(
        &mut out,
        "ruid_request_duration_seconds",
        "histogram",
        "Request handling latency, per command.",
    );
    for s in &summaries {
        let label = format!("command=\"{}\"", s.command.name().to_ascii_lowercase());
        histogram(&mut out, "ruid_request_duration_seconds", &label, m.latency_of(s.command));
    }

    family(
        &mut out,
        "ruid_robustness_events_total",
        "counter",
        "Defensive-limit trips (shed, oversized, torn, deadlines).",
    );
    for (kind, value) in m.robustness_counters() {
        out.push_str(&format!("ruid_robustness_events_total{{kind=\"{kind}\"}} {value}\n"));
    }

    family(
        &mut out,
        "ruid_net_bytes_read_total",
        "counter",
        "Request bytes consumed off served connections (both protocols).",
    );
    out.push_str(&format!("ruid_net_bytes_read_total {}\n", m.net_bytes_read()));
    family(
        &mut out,
        "ruid_net_bytes_written_total",
        "counter",
        "Response bytes written to served connections (both protocols).",
    );
    out.push_str(&format!("ruid_net_bytes_written_total {}\n", m.net_bytes_written()));
    family(
        &mut out,
        "ruid_protocol_requests_total",
        "counter",
        "Requests received, per wire protocol front end.",
    );
    for (protocol, count) in PROTOCOLS.iter().zip(m.protocol_requests()) {
        out.push_str(&format!(
            "ruid_protocol_requests_total{{protocol=\"{protocol}\"}} {count}\n"
        ));
    }
    family(
        &mut out,
        "ruid_pipeline_depth",
        "histogram",
        "Complete binary frames served per connection service pass.",
    );
    value_histogram(&mut out, "ruid_pipeline_depth", m.pipeline_depth());
    family(
        &mut out,
        "ruid_batch_size",
        "histogram",
        "Sub-queries per MQUERY/MLABEL batch frame.",
    );
    value_histogram(&mut out, "ruid_batch_size", m.batch_size());

    family(
        &mut out,
        "ruid_xpath_steps_total",
        "counter",
        "XPath location steps evaluated, per axis.",
    );
    let steps = m.axis_steps();
    for axis in xpath::Axis::ALL {
        out.push_str(&format!(
            "ruid_xpath_steps_total{{axis=\"{}\"}} {}\n",
            axis.name(),
            steps[axis.index()]
        ));
    }

    family(
        &mut out,
        "ruid_plan_operators_total",
        "counter",
        "Physical plan operators executed by the planned engine, per kind.",
    );
    let plan_ops = m.plan_ops();
    for (op, count) in PLAN_OPERATORS.iter().zip(plan_ops) {
        out.push_str(&format!("ruid_plan_operators_total{{op=\"{op}\"}} {count}\n"));
    }

    family(
        &mut out,
        "ruid_updates_total",
        "counter",
        "Committed structural updates, per operation.",
    );
    let updates = m.updates();
    for (op, count) in UPDATE_OPS.iter().zip(updates) {
        out.push_str(&format!("ruid_updates_total{{op=\"{op}\"}} {count}\n"));
    }

    if let Some(catalog) = ctx.catalog {
        family(
            &mut out,
            "ruid_generation",
            "gauge",
            "Newest committed MVCC catalog generation.",
        );
        out.push_str(&format!("ruid_generation {}\n", catalog.generation()));
    }

    family(
        &mut out,
        "ruid_planner_duration_seconds",
        "histogram",
        "Plan-construction latency (excludes parsing and execution).",
    );
    histogram(
        &mut out,
        "ruid_planner_duration_seconds",
        "engine=\"planned\"",
        m.planner_time(),
    );

    if let Some(cache) = ctx.plan_cache {
        let s = cache.stats();
        family(&mut out, "ruid_plan_cache_hits_total", "counter", "Planned-query cache hits.");
        out.push_str(&format!("ruid_plan_cache_hits_total {}\n", s.hits));
        family(&mut out, "ruid_plan_cache_misses_total", "counter", "Planned-query cache misses.");
        out.push_str(&format!("ruid_plan_cache_misses_total {}\n", s.misses));
        family(
            &mut out,
            "ruid_plan_cache_invalidations_total",
            "counter",
            "Cached responses dropped by a WAL-generation mismatch or purge.",
        );
        out.push_str(&format!("ruid_plan_cache_invalidations_total {}\n", s.invalidations));
        family(&mut out, "ruid_plan_cache_evictions_total", "counter", "Cached responses evicted by capacity.");
        out.push_str(&format!("ruid_plan_cache_evictions_total {}\n", s.evictions));
        family(&mut out, "ruid_plan_cache_entries", "gauge", "Responses currently cached.");
        out.push_str(&format!("ruid_plan_cache_entries {}\n", s.entries));
    }

    if let Some(pool) = ctx.pool {
        family(&mut out, "ruid_pool_jobs_submitted_total", "counter", "Jobs accepted by the worker pool.");
        out.push_str(&format!("ruid_pool_jobs_submitted_total {}\n", pool.submitted()));
        family(&mut out, "ruid_pool_jobs_completed_total", "counter", "Jobs finished by the worker pool.");
        out.push_str(&format!("ruid_pool_jobs_completed_total {}\n", pool.completed()));
        family(&mut out, "ruid_pool_jobs_rejected_total", "counter", "Jobs refused by the bounded queue.");
        out.push_str(&format!("ruid_pool_jobs_rejected_total {}\n", pool.rejected()));
        family(&mut out, "ruid_pool_queue_depth", "gauge", "Jobs submitted but not yet finished.");
        out.push_str(&format!("ruid_pool_queue_depth {}\n", pool.queue_depth()));
        family(&mut out, "ruid_pool_queue_depth_max", "gauge", "High-water mark of the queue depth.");
        out.push_str(&format!("ruid_pool_queue_depth_max {}\n", pool.max_queue_depth()));
    }

    let exec = par::executor_stats();
    family(&mut out, "ruid_par_maps_total", "counter", "Parallel map invocations.");
    out.push_str(&format!("ruid_par_maps_total {}\n", exec.par_maps));
    family(&mut out, "ruid_par_items_total", "counter", "Items processed by parallel maps.");
    out.push_str(&format!("ruid_par_items_total {}\n", exec.par_items));
    family(&mut out, "ruid_par_steals_total", "counter", "Items claimed from another worker's range.");
    out.push_str(&format!("ruid_par_steals_total {}\n", exec.par_steals));

    if let Some(d) = ctx.durability {
        let s = d.stats();
        family(&mut out, "ruid_wal_generation", "gauge", "Current snapshot/WAL generation.");
        out.push_str(&format!("ruid_wal_generation {}\n", s.generation));
        family(&mut out, "ruid_wal_records_total", "counter", "Records appended to the live WAL segment.");
        out.push_str(&format!("ruid_wal_records_total {}\n", s.wal_records));
        family(&mut out, "ruid_wal_bytes_total", "counter", "Bytes appended to the live WAL segment.");
        out.push_str(&format!("ruid_wal_bytes_total {}\n", s.wal_bytes));
        family(&mut out, "ruid_wal_fsyncs_total", "counter", "fsyncs issued on the live WAL segment.");
        out.push_str(&format!("ruid_wal_fsyncs_total {}\n", s.wal_fsyncs));
        family(&mut out, "ruid_wal_unsynced_records", "gauge", "Appended records not yet fsynced.");
        out.push_str(&format!("ruid_wal_unsynced_records {}\n", s.wal_unsynced_records));
        family(&mut out, "ruid_wal_append_seconds_total", "counter", "Time spent appending WAL records.");
        out.push_str(&format!("ruid_wal_append_seconds_total {}\n", secs(s.wal_append_ns)));
        family(&mut out, "ruid_wal_fsync_seconds_total", "counter", "Time spent in WAL fsyncs.");
        out.push_str(&format!("ruid_wal_fsync_seconds_total {}\n", secs(s.wal_fsync_ns)));
        family(&mut out, "ruid_snapshots_total", "counter", "Snapshots installed by this process.");
        out.push_str(&format!("ruid_snapshots_total {}\n", s.snapshots));
        family(&mut out, "ruid_snapshot_seconds_total", "counter", "Time spent writing and installing snapshots.");
        out.push_str(&format!("ruid_snapshot_seconds_total {}\n", secs(s.snapshot_ns)));
    }

    if let Some(repl) = ctx.repl {
        let s = repl.sample();
        family(
            &mut out,
            "ruid_repl_role",
            "gauge",
            "Replication role of this process (1 on the active label).",
        );
        out.push_str(&format!(
            "ruid_repl_role{{role=\"leader\"}} {}\n",
            u8::from(s.is_leader)
        ));
        out.push_str(&format!(
            "ruid_repl_role{{role=\"follower\"}} {}\n",
            u8::from(!s.is_leader)
        ));
        family(
            &mut out,
            "ruid_repl_lag_seconds",
            "gauge",
            "Seconds this follower has continuously been behind the leader (0 when caught up or leading).",
        );
        out.push_str(&format!("ruid_repl_lag_seconds {}\n", s.lag_seconds));
        family(
            &mut out,
            "ruid_repl_lag_records",
            "gauge",
            "WAL records the leader has committed beyond this follower's applied position.",
        );
        out.push_str(&format!("ruid_repl_lag_records {}\n", s.lag_records));
        family(&mut out, "ruid_repl_chunks_shipped_total", "counter", "WAL tail chunks shipped to followers.");
        out.push_str(&format!("ruid_repl_chunks_shipped_total {}\n", s.chunks_shipped));
        family(&mut out, "ruid_repl_bytes_shipped_total", "counter", "WAL bytes shipped to followers.");
        out.push_str(&format!("ruid_repl_bytes_shipped_total {}\n", s.bytes_shipped));
        family(&mut out, "ruid_repl_snapshots_shipped_total", "counter", "Snapshot bootstraps served to followers.");
        out.push_str(&format!("ruid_repl_snapshots_shipped_total {}\n", s.snapshots_shipped));
        family(&mut out, "ruid_repl_acks_total", "counter", "Acknowledgements received from followers.");
        out.push_str(&format!("ruid_repl_acks_total {}\n", s.acks_received));
        family(&mut out, "ruid_repl_followers", "gauge", "Followers currently attached to this leader.");
        out.push_str(&format!("ruid_repl_followers {}\n", s.followers));
        family(&mut out, "ruid_repl_records_applied_total", "counter", "Shipped WAL records applied by this follower.");
        out.push_str(&format!("ruid_repl_records_applied_total {}\n", s.records_applied));
        family(&mut out, "ruid_repl_bootstraps_total", "counter", "Snapshot bootstraps this follower performed.");
        out.push_str(&format!("ruid_repl_bootstraps_total {}\n", s.bootstraps));
        family(&mut out, "ruid_repl_reconnects_total", "counter", "Leader connections re-established after a transport error.");
        out.push_str(&format!("ruid_repl_reconnects_total {}\n", s.reconnects));
        family(&mut out, "ruid_repl_backoff_waits_total", "counter", "Backoff sleeps taken between reconnect attempts.");
        out.push_str(&format!("ruid_repl_backoff_waits_total {}\n", s.backoff_waits));
        family(&mut out, "ruid_repl_refusals_total", "counter", "Leader refusals (stream discontinuity or rotation) forcing a re-bootstrap.");
        out.push_str(&format!("ruid_repl_refusals_total {}\n", s.refusals));
        family(&mut out, "ruid_repl_quarantined_total", "counter", "Documents quarantined after a shipped record failed to apply.");
        out.push_str(&format!("ruid_repl_quarantined_total {}\n", s.quarantined));
        family(&mut out, "ruid_repl_promotions_total", "counter", "Follower-to-leader promotions completed by this process.");
        out.push_str(&format!("ruid_repl_promotions_total {}\n", s.promotions));
        family(&mut out, "ruid_repl_bootstrap_seconds", "gauge", "Time each phase of this follower's last snapshot bootstrap took.");
        for (phase, seconds) in s.last_bootstrap.phases() {
            out.push_str(&format!("ruid_repl_bootstrap_seconds{{phase=\"{phase}\"}} {seconds}\n"));
        }
    }

    family(
        &mut out,
        "ruid_client_retries_total",
        "counter",
        "Client-side retries after BUSY or a refused/dropped connection (process-wide).",
    );
    out.push_str(&format!(
        "ruid_client_retries_total {}\n",
        crate::client::client_retries_total()
    ));

    if let Some(t) = ctx.tracer {
        family(&mut out, "ruid_trace_enabled", "gauge", "Whether per-request tracing is on.");
        out.push_str(&format!("ruid_trace_enabled {}\n", u8::from(t.enabled())));
        family(&mut out, "ruid_slowlog_entries", "gauge", "Entries currently in the slow-query ring.");
        out.push_str(&format!("ruid_slowlog_entries {}\n", t.entries()));
        family(&mut out, "ruid_slowlog_captured_total", "counter", "Slow requests captured since start.");
        out.push_str(&format!("ruid_slowlog_captured_total {}\n", t.captured()));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Command;
    use std::time::Duration;

    fn ctx_metrics_only(m: &Metrics) -> String {
        render(&PromCtx {
            metrics: m,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: None,
            repl: None,
        })
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
        let body = render(&PromCtx {
            metrics: &m,
            catalog: None,
            durability: None,
            tracer: Some(&t),
            pool: None,
            plan_cache: None,
            repl: None,
        });
        assert!(body.contains("ruid_trace_enabled 1"), "{body}");
        assert!(body.contains("ruid_slowlog_captured_total 0"), "{body}");
    }

    #[test]
    fn replication_families_render_for_both_roles() {
        let m = Metrics::new();
        let leader = ReplState::new_leader();
        let body = render(&PromCtx {
            metrics: &m,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: None,
            repl: Some(&leader),
        });
        assert!(body.contains("ruid_repl_role{role=\"leader\"} 1"), "{body}");
        assert!(body.contains("ruid_repl_role{role=\"follower\"} 0"), "{body}");
        assert!(body.contains("ruid_repl_lag_seconds 0"), "{body}");
        assert!(body.contains("ruid_repl_lag_records 0"), "{body}");
        assert!(body.contains("ruid_repl_chunks_shipped_total 0"), "{body}");
        assert!(body.contains("ruid_repl_records_applied_total 0"), "{body}");
        assert!(body.contains("ruid_repl_reconnects_total 0"), "{body}");
        assert!(body.contains("ruid_repl_backoff_waits_total 0"), "{body}");
        assert!(body.contains("ruid_client_retries_total"), "{body}");
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
        let body = render(&PromCtx {
            metrics: &m,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: None,
            repl: Some(&follower),
        });
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
        let line = follower.render_line();
        assert!(
            line.ends_with(
                "repl_bootstrap_fetch_ms=250.0 repl_bootstrap_decode_ms=500.0 \
                 repl_bootstrap_install_ms=125.0 repl_bootstrap_persist_ms=62.5"
            ),
            "{line}"
        );
        // Once caught up the continuous-behind clock resets to zero.
        follower.set_lag(0);
        let body = render(&PromCtx {
            metrics: &m,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: None,
            repl: Some(&follower),
        });
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
        let body = render(&PromCtx {
            metrics: &m,
            catalog: None,
            durability: None,
            tracer: None,
            pool: None,
            plan_cache: Some(&cache),
            repl: None,
        });
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
}
