//! Observability end-to-end: tracing + slowlog through the wire protocol,
//! the Prometheus exposition over both transports, and the graceful-
//! shutdown durability promise.

use ruid_service::{FsyncPolicy, ServerConfig};
use testkit::{durable, load_xml, metrics_field, scrape, start, start_durable, Scratch};

#[test]
fn trace_and_slowlog_capture_span_breakdowns() {
    let (handle, mut client) = start(ServerConfig::default());
    let id = load_xml(&mut client, "<r><a><b>x</b></a><a><b>y</b></a></r>");

    // Tracing is off by default and free to query.
    let status = client.request("TRACE").unwrap();
    assert!(status.contains("trace=off"), "{status}");
    let log = client.request("SLOWLOG").unwrap();
    assert!(log.starts_with("OK n=0"), "{log}");

    // Threshold 0 = capture everything (the test's queries are fast).
    let status = client.request("TRACE 0").unwrap();
    assert!(status.contains("trace=on") && status.contains("threshold_ms=0"), "{status}");
    let q = format!("QUERY {id} //a/b");
    assert!(client.request(&q).unwrap().starts_with("OK 2 "));

    let log = client.request("SLOWLOG 5").unwrap();
    assert!(log.contains("cmd=QUERY"), "{log}");
    for span in ["parse_ns=", "lookup_ns=", "eval_ns=", "wal_ns=", "write_ns="] {
        assert!(log.contains(span), "missing {span} in {log}");
    }
    assert!(log.contains(&format!("line=QUERY {id} //a/b")), "{log}");
    // The traced spans hold real time: parse and eval both ran.
    let eval_ns: u64 = metrics_field(&log, "eval_ns").unwrap().parse().unwrap();
    assert!(eval_ns > 0, "eval span empty in {log}");

    // TRACE off stops new captures but keeps the ring. (The TRACE off
    // request itself still counts — it began while tracing was on.)
    assert!(client.request("TRACE off").unwrap().contains("trace=off"));
    let captured = |status: &str| -> u64 {
        metrics_field(status, "captured").unwrap().parse().unwrap()
    };
    let before = captured(&client.request("TRACE").unwrap());
    assert!(client.request(&q).unwrap().starts_with("OK 2 "));
    let status = client.request("TRACE").unwrap();
    assert_eq!(captured(&status), before, "{status}");
    handle.stop();
}

#[test]
fn prometheus_exposition_over_wire_and_http() {
    let dir = Scratch::new("prom");
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..durable(&dir.join("data"))
    };
    let (handle, mut client) = start(config);
    let id = load_xml(&mut client, "<r><x><y/></x><x><y/><y/></x></r>");
    // Two planned (default engine; second one a cache hit) plus one
    // explicitly indexed, so both the plan-operator and the axis-step
    // families see traffic.
    for engine in ["", "", " indexed"] {
        assert!(
            client.request(&format!("QUERY {id} //x/y{engine}")).unwrap().starts_with("OK 3"),
        );
    }

    // Wire transport: METRICS prom answers one escaped line.
    let wire = client.request("METRICS prom").unwrap();
    assert!(wire.starts_with("OK # HELP"), "{wire}");
    assert!(wire.contains("ruid_requests_total{command=\"query\"} 3"), "{wire}");

    // HTTP transport: a real scrape with headers and the same families.
    let addr = handle.metrics_http_addr().expect("metrics endpoint configured");
    let (head, body) = scrape(addr);
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len(), "Content-Length mismatch");

    assert!(body.contains("ruid_connections_total"), "{body}");
    assert!(body.contains("ruid_requests_total{command=\"load\"} 1"), "{body}");
    assert!(body.contains("ruid_wal_records_total 1"), "{body}");
    assert!(body.contains("ruid_wal_unsynced_records 0"), "{body}");
    assert!(body.contains("ruid_pool_jobs_submitted_total"), "{body}");
    assert!(body.contains("ruid_trace_enabled 0"), "{body}");
    // The //x/y queries walked the descendant and child axes.
    let steps_of = |axis: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("ruid_xpath_steps_total{{axis=\"{axis}\"}} ")))
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(steps_of("descendant") + steps_of("descendant-or-self") > 0, "{body}");
    assert!(steps_of("child") > 0, "{body}");
    // The planned queries compiled //x/y to two summary scans; the repeat
    // was served from the generation-keyed cache.
    let metric_of = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("missing {name} in {body}"))
            .parse()
            .unwrap()
    };
    assert!(
        body.contains("ruid_plan_operators_total{op=\"scan\"}"),
        "plan operator family missing in {body}"
    );
    let scans = body
        .lines()
        .find_map(|l| l.strip_prefix("ruid_plan_operators_total{op=\"scan\"} "))
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert!(scans >= 2, "expected //x/y scans, got {scans}");
    assert_eq!(metric_of("ruid_plan_cache_hits_total"), 1, "repeat query served from cache");
    assert_eq!(metric_of("ruid_plan_cache_misses_total"), 1);
    assert_eq!(metric_of("ruid_plan_cache_entries"), 1);
    assert!(
        metric_of("ruid_planner_duration_seconds_count{engine=\"planned\"}") >= 1,
        "{body}"
    );

    // The query histogram's cumulative buckets are monotone and end at
    // the sample count.
    let mut last = 0u64;
    let mut bucket_lines = 0u32;
    let mut inf = None;
    for line in body.lines() {
        if let Some(rest) =
            line.strip_prefix("ruid_request_duration_seconds_bucket{command=\"query\",le=\"")
        {
            let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative bucket shrank: {line}");
            last = v;
            bucket_lines += 1;
            if rest.starts_with("+Inf") {
                inf = Some(v);
            }
        }
    }
    assert!(bucket_lines > 10, "expected a full bucket ladder, got {bucket_lines}");
    assert_eq!(inf, Some(3), "+Inf bucket must equal the QUERY count");
    assert!(
        body.contains("ruid_request_duration_seconds_count{command=\"query\"} 3"),
        "{body}"
    );

    // A scrape is read-only: it must not disturb the wire metrics.
    let after = client.request("METRICS").unwrap();
    assert!(after.contains("QUERY=3/0/"), "{after}");
    handle.stop();
}

#[test]
fn shutdown_ack_makes_the_wal_durable_under_lazy_fsync() {
    let dir = Scratch::new("shutdown-fsync");
    let data_dir = dir.join("data");
    // A huge fsync interval: nothing is synced unless shutdown forces it.
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        fsync: FsyncPolicy::EveryN(1_000_000),
        ..ServerConfig::default()
    };
    let (handle, mut client) = start(config);
    let id = load_xml(&mut client, "<r><k/></r>");
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("wal_unsynced=1"), "lazy policy must defer: {metrics}");

    // The SHUTDOWN ack is the durability promise: once `OK bye` is on the
    // wire, a kill -9 loses nothing.
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK bye");
    handle.join();

    let (handle, mut client) = start_durable(&data_dir);
    let resp = client.request(&format!("QUERY {id} //k")).unwrap();
    assert!(resp.starts_with("OK 1 "), "record lost across shutdown: {resp}");
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("replayed=1"), "{metrics}");
    handle.stop();
}
