//! `restart_catchup` — recovery and replica replay; the read path does
//! nothing the other workloads do not already time.
//!
//! The fixture is written through `durable`'s public API, as
//! `report_e12` does: a snapshot of the 150k-node XMark plus a seeded
//! `INSERT`/`DELETE` WAL tail. The measured section alternates cold
//! starts (`Server::start` on a pristine copy of the fixture until the
//! first `QUERY` answers) with follower catch-ups (a fresh
//! `follow = leader` server with an empty data directory, timed until
//! `ReplSample.records_applied` reaches the tail length); a burst of
//! reads follows each. Replicas and recovery replay through
//! `from_recovered` / `apply_update`, so commit-path work shows here as
//! catch-up rate and snapshot or derived-index work as start-up time.
//! The tail is four records and a cycle about two seconds, so a run holds
//! about ten cycles and every timing ten slices: a sixteen-record tail
//! made each catch-up a better sample of replay and the run, at four
//! cycles, a sample of nothing that repeated.
//! E12 (durability cost) and E17 (replication) map here; E17's
//! PROMOTE/kill failover is left out, because its time is the 40 ms poll
//! timer, not the program.

use std::path::Path;
use std::time::{Duration, Instant};

use ruid::service::proto::Engine;
use ruid::service::wire::{WireRequest, WireResponse};
use ruid::{BinaryClient, LoadedDoc, Server, ServerHandle};

use crate::harness::{self, Kind, Recorder, Scratch, Unit};
use crate::inputs::{self, Fixture, Query};
use crate::layers::Layers;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{evenly_spaced, query_with, repeat_setups, setup_seconds, Outcome, Scale};

/// The fixture's one document.
const DOC: u64 = 1;

/// How long a catch-up may take before it counts as failed.
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A fixture on disk plus what is needed to copy and check it.
struct Prepared {
    scratch: Scratch,
    fixture: Fixture,
    xml_bytes: usize,
    next_copy: usize,
}

impl Prepared {
    fn fixture_dir(&self) -> std::path::PathBuf {
        self.scratch.path().join("fixture")
    }

    /// A pristine copy of the fixture for one server to recover from.
    fn pristine_copy(&mut self) -> Result<std::path::PathBuf, String> {
        self.next_copy += 1;
        let dir = self.scratch.path().join(format!("copy-{}", self.next_copy));
        harness::copy_dir(&self.fixture_dir(), &dir).map_err(|e| format!("copy fixture: {e}"))?;
        Ok(dir)
    }

    fn empty_dir(&mut self) -> std::path::PathBuf {
        self.next_copy += 1;
        self.scratch
            .path()
            .join(format!("follower-{}", self.next_copy))
    }
}

/// A server that answered its first query `recovery` after `start`.
struct Started {
    handle: ServerHandle,
    client: BinaryClient,
    recovery: Duration,
}

/// `Server::start` on `data_dir` until the first `QUERY` answers.
fn cold_start(data_dir: &Path, first: &Query) -> Result<Started, String> {
    let started = Instant::now();
    let handle = Server::start(harness::server_config(Some(data_dir), None))
        .map_err(|e| format!("start: {e}"))?;
    let mut client = BinaryClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .query(DOC, &first.xpath)
        .map_err(|e| format!("first query: {e}"))?;
    let recovery = started.elapsed();
    if !reply.starts_with("OK") {
        return Err(format!("first query after recovery: {reply}"));
    }
    Ok(Started {
        handle,
        client,
        recovery,
    })
}

fn prepare(scale: &Scale, seed: u64, first: &Query) -> Result<Prepared, String> {
    let scratch = Scratch::new("restart_catchup").map_err(|e| e.to_string())?;
    let xml = inputs::xmark_xml(scale.nodes, seed);
    let fixture = inputs::write_fixture(&scratch.path().join("fixture"), &xml, seed, scale.tail)?;
    let mut prepared = Prepared {
        scratch,
        fixture,
        xml_bytes: xml.len(),
        next_copy: 0,
    };
    // Warm-up: one recovery, so the fixture's pages and the recovery
    // code are resident before anything is timed.
    let dir = prepared.pristine_copy()?;
    cold_start(&dir, first)?.handle.stop();
    Ok(prepared)
}

/// What the bursts are compared against: the first recovered server's
/// replies, themselves sampled against the DOM-walk oracle.
#[derive(Default)]
struct Reference {
    replies: Vec<String>,
}

/// `burst` timed reads, each compared with the reference replies.
fn burst(
    client: &mut BinaryClient,
    queries: &[Query],
    reference: &mut Reference,
    recorder: &mut Recorder,
    out: &mut Outcome,
) {
    let learn = reference.replies.is_empty();
    for (i, query) in queries.iter().enumerate() {
        let reply = recorder.time(Kind::Read, || client.query(DOC, &query.xpath));
        match out.check.expect_ok(&query.xpath, reply) {
            Some(reply) if learn => reference.replies.push(reply),
            Some(reply) => {
                out.check.expect_eq(
                    &format!("reply of {} vs the leader's", query.xpath),
                    &reply,
                    &reference.replies[i],
                );
            }
            None if learn => reference.replies.push(String::new()),
            None => {}
        }
    }
}

/// The served document must fingerprint equal to snapshot + tail
/// replayed serially.
fn check_fingerprint(out: &mut Outcome, handle: &ServerHandle, fixture: &Fixture, who: &str) {
    match handle.catalog().get(DOC) {
        Some(loaded) => out.check.expect_eq(
            &format!("fingerprint of the {who} vs serial replay"),
            &durable::doc_fingerprint(&loaded.doc, &loaded.scheme),
            &fixture.fingerprint,
        ),
        None => out
            .check
            .fail(|| format!("the {who} serves no document {DOC}")),
    }
}

/// Timings of the measured section besides the recorder's.
#[derive(Default)]
struct Timings {
    recovery_ms: Vec<f64>,
    catchup_records_per_s: Vec<f64>,
    bootstrap_ms: Vec<f64>,
}

/// One cycle, the unit of this workload's script: a cold start and a
/// burst, then a follower catch-up from that server and a burst.
/// Everything the client waits for — start-up, catch-up, bursts — runs
/// on the recorder's clock, so recovery and replay time move
/// `req_per_s`; copies, checks and shutdowns run off it.
fn cycle(
    prepared: &mut Prepared,
    scale: &Scale,
    queries: &[Query],
    reference: &mut Reference,
    recorder: &mut Recorder,
    timings: &mut Timings,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = recorder.untimed(|| prepared.pristine_copy())?;
    let mut leader = cold_start(&dir, &queries[0])?;
    timings.recovery_ms.push(ms(leader.recovery));
    let oracle_due = reference.replies.is_empty();
    burst(&mut leader.client, queries, reference, recorder, out);
    recorder.untimed(|| {
        check_fingerprint(out, &leader.handle, &prepared.fixture, "recovered server");
        if oracle_due {
            for index in evenly_spaced(queries.len(), scale.oracle_sample.min(32)) {
                let xpath = &queries[index].xpath;
                let tree = query_with(&mut leader.client, DOC, Engine::Tree, xpath)
                    .unwrap_or_else(|e| format!("ERR {e}"));
                out.check.expect_eq(
                    &format!("planned vs tree on {xpath}"),
                    &reference.replies[index],
                    &tree,
                );
            }
        }
    });

    let follower_dir = prepared.empty_dir();
    let waited = Instant::now();
    let follower = Server::start(harness::server_config(
        Some(&follower_dir),
        Some(leader.handle.addr().to_string()),
    ))
    .map_err(|e| format!("start follower: {e}"))?;
    let bootstrapped =
        harness::wait_until(CATCHUP_TIMEOUT, || follower.catalog().get(DOC).is_some());
    let bootstrap = waited.elapsed();
    let tail = prepared.fixture.tail as u64;
    let caught_up = bootstrapped
        && harness::wait_until(CATCHUP_TIMEOUT, || {
            follower.repl().sample().records_applied >= tail
        });
    let catchup = waited.elapsed();
    if caught_up {
        timings.bootstrap_ms.push(ms(bootstrap));
        timings
            .catchup_records_per_s
            .push(tail as f64 / catchup.as_secs_f64());
        let mut client =
            BinaryClient::connect(follower.addr()).map_err(|e| format!("connect: {e}"))?;
        burst(&mut client, queries, reference, recorder, out);
        recorder
            .untimed(|| check_fingerprint(out, &follower, &prepared.fixture, "caught-up follower"));
    } else {
        out.check.fail(|| {
            format!(
                "follower applied {} of {tail} records",
                follower.repl().sample().records_applied
            )
        });
    }
    recorder.untimed(|| {
        follower.stop();
        leader.handle.stop();
    });
    Ok(())
}

/// Two bursts per cycle.
fn unit(queries: &[Query]) -> Unit {
    Unit {
        reads: 2 * queries.len(),
        commits: 0,
    }
}

/// The end-to-end run.
pub fn run(scale: &Scale, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("restart_catchup");
    let queries = inputs::query_pool(scale.nodes, seed, scale.burst);

    let set_up = || -> Result<(Prepared, f64), String> {
        let started = Instant::now();
        let prepared = prepare(scale, seed, &queries[0])?;
        Ok((prepared, started.elapsed().as_secs_f64()))
    };
    let (mut prepared, first_setup) = set_up()?;
    let mut setups = vec![first_setup];

    let mut timings = Timings::default();
    let mut reference = Reference::default();
    let mut recorder = Recorder::start(unit(&queries));
    let limit = Duration::from_secs_f64(scale.seconds);
    let mut cycles = 0usize;
    // Peak resident size of the first cycle: every cycle starts two
    // servers' worth of threads, each free to land on another allocator
    // arena, so over several cycles `VmHWM` measures the allocator's luck.
    let mut peak_rss_mb = 0.0;
    while !recorder.expired(limit) {
        cycle(
            &mut prepared,
            scale,
            &queries,
            &mut reference,
            &mut recorder,
            &mut timings,
            &mut out,
        )?;
        cycles += 1;
        if cycles == 1 {
            peak_rss_mb = recorder.peak_rss_mb();
        }
    }
    let tail_records = prepared.fixture.tail;
    drop(prepared);
    repeat_setups(scale.setup_repeats, &mut setups, set_up, drop)?;

    out.set("setup_s", setup_seconds(&setups));
    out.set("req_per_s", recorder.req_per_s());
    out.set("read_p50_us", recorder.latency_us(Kind::Read, 0.50));
    out.set("read_p95_us", recorder.latency_us(Kind::Read, 0.95));
    out.set_plain("peak_rss_mb", peak_rss_mb);
    let median_or_zero = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            stats::median(samples)
        }
    };
    out.op_counts = vec![
        ("cycles", cycles as f64),
        ("reads", recorder.reads() as f64),
        ("tail_records", tail_records as f64),
        ("recovery_p50_ms", median_or_zero(&timings.recovery_ms)),
        (
            "catchup_records_per_s",
            median_or_zero(&timings.catchup_records_per_s),
        ),
    ];
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: the restart path taken apart through `durable`'s and
/// the catalog's public functions, then one cycle on the wire for the
/// recovery and catch-up times and the leader's shipping counters.
pub fn trace(scale: &Scale, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new("restart_catchup");
    let mut layers = Layers::default();
    let queries = inputs::query_pool(scale.nodes, seed, scale.burst);
    let mut prepared = prepare(scale, seed, &queries[0])?;
    let fixture_dir = prepared.fixture_dir();
    layers.set(
        "durable.snapshot.write_ms",
        prepared.fixture.snapshot_write_ms,
    );
    layers.set(
        "wire.snapshot_bytes_per_xml_byte",
        prepared.fixture.snapshot_bytes as f64 / prepared.xml_bytes.max(1) as f64,
    );

    // Restart, layer by layer.
    let snapshot_path = fixture_dir.join(durable::snapshot_file_name(1));
    let started = Instant::now();
    let snapshot = tracer.span("durable.snapshot.read", |_| {
        durable::read_snapshot(&snapshot_path)
    })?;
    layers.set("durable.snapshot.read_ms", ms(started.elapsed()));
    let started = Instant::now();
    let replay: Result<usize, String> = tracer.span("durable.wal.replay", |_| {
        let wal = durable::read_wal(
            &fixture_dir.join(durable::wal_file_name(1)),
            &durable::IoFaultPlan::new(),
        )
        .map_err(|e| format!("read wal: {e}"))?;
        let mut state = snapshot
            .docs
            .into_iter()
            .next()
            .ok_or("snapshot holds no document")?;
        for (_seq, op) in &wal.ops {
            state.apply(op)?;
        }
        Ok(wal.ops.len())
    });
    let replayed = replay?;
    layers.set(
        "durable.wal.replay_us_per_record",
        ms(started.elapsed()) * 1e3 / replayed.max(1) as f64,
    );
    let started = Instant::now();
    let recovered = tracer
        .span("durable.recover", |_| durable::recover(&fixture_dir))
        .map_err(|e| format!("recover: {e}"))?;
    layers.set("durable.recover_ms", ms(started.elapsed()));
    out.check.expect_eq(
        "records replayed by recovery",
        &(recovered.report.replayed as usize),
        &prepared.fixture.tail,
    );
    let state = recovered
        .docs
        .into_iter()
        .next()
        .ok_or("recovery found no document")?;
    let started = Instant::now();
    let loaded = tracer.span("service.catalog.from_recovered", |_| {
        LoadedDoc::from_recovered(state.path, state.doc, state.scheme, state.with_store)
    });
    layers.set("service.catalog.from_recovered_ms", ms(started.elapsed()));
    out.check.expect_eq(
        "fingerprint of the recovered bundle vs serial replay",
        &durable::doc_fingerprint(&loaded.doc, &loaded.scheme),
        &prepared.fixture.fingerprint,
    );
    drop(loaded);

    // One cycle on the wire.
    let mut timings = Timings::default();
    let mut reference = Reference::default();
    let mut recorder = Recorder::start(unit(&queries));
    // The leader of the cycle is stopped inside `cycle`; its shipping
    // counters are read through a second, explicit catch-up below.
    cycle(
        &mut prepared,
        scale,
        &queries,
        &mut reference,
        &mut recorder,
        &mut timings,
        &mut out,
    )?;
    layers.set("wire.recovery_p50_ms", stats::median(&timings.recovery_ms));
    layers.set(
        "wire.read_p50_us",
        recorder.latency_us(Kind::Read, 0.50).value,
    );
    if let (Some(&rate), Some(&bootstrap)) = (
        timings.catchup_records_per_s.first(),
        timings.bootstrap_ms.first(),
    ) {
        layers.set("wire.catchup_records_per_s", rate);
        layers.set("repl.bootstrap_ms", bootstrap);
        let tail = prepared.fixture.tail as f64;
        layers.set(
            "repl.apply_ms_per_record",
            (tail / rate * 1e3 - bootstrap) / tail.max(1.0),
        );
    }

    // Shipping counters and the tail round trip, from a leader of our own.
    let dir = prepared.pristine_copy()?;
    let mut leader = cold_start(&dir, &queries[0])?;
    let follower_dir = prepared.empty_dir();
    let follower = Server::start(harness::server_config(
        Some(&follower_dir),
        Some(leader.handle.addr().to_string()),
    ))
    .map_err(|e| format!("start follower: {e}"))?;
    let tail = prepared.fixture.tail as u64;
    if !harness::wait_until(CATCHUP_TIMEOUT, || {
        follower.repl().sample().records_applied >= tail
    }) {
        out.check.fail(|| "second follower never caught up".into());
    }
    follower.stop();
    let shipped = leader.handle.repl().sample();
    layers.set(
        "repl.bytes_shipped_per_record",
        shipped.bytes_shipped as f64 / tail.max(1) as f64,
    );
    layers.set("repl.chunks_shipped", shipped.chunks_shipped as f64);
    let mut round_trips = Vec::new();
    for _ in 0..64 {
        let request = WireRequest::ReplTail {
            generation: 1,
            offset: 0,
            max_bytes: 1 << 20,
        };
        let started = Instant::now();
        let id = leader.client.send(&request).map_err(|e| e.to_string())?;
        leader.client.flush().map_err(|e| e.to_string())?;
        let frame = leader.client.recv().map_err(|e| e.to_string())?;
        round_trips.push(started.elapsed().as_nanos() as f64);
        if frame.id != id || !matches!(frame.response, WireResponse::Blob(_)) {
            out.check
                .fail(|| format!("REPL TAIL answered {:?}", frame.response));
        }
    }
    layers.set_median("repl.tail_roundtrip_us", &round_trips, 1e3);
    leader.handle.stop();
    layers.set("bench.spans", tracer.spans().len() as f64);

    out.metrics = layers.into_metrics();
    out.op_counts = vec![
        ("tail_records", prepared.fixture.tail as f64),
        ("wire_reads", recorder.reads() as f64),
    ];
    Ok(out)
}
