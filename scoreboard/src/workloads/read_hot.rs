//! `read_hot` — the working set fits the cache.
//!
//! E16's corpus (122 nodes, 23 queries) with the result cache warm,
//! binary `QUERY` frames pipelined 32 deep over one connection: socket
//! read, frame decode, catalog pin, cache probe and write do all the
//! work, plan and execute none. It is E16's headline re-measured in the
//! one E16 configuration that repeats within a tenth; the text and
//! `MQUERY` front ends are kept as informational per-layer rows.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ruid::service::proto::Engine;
use ruid::service::wire::{WireRequest, WireResponse};
use ruid::{BinaryClient, Client, LoadedDoc, ServerHandle};

use crate::harness::{self, Kind, Recorder, Scratch, Unit};
use crate::inputs::{self, CORPUS};
use crate::layers::{self, Layers, ServerCounters};
use crate::trace::Tracer;
use crate::workloads::{query_with, repeat_setups, setup_seconds, Outcome, Scale};

/// Frames in flight per round.
const DEPTH: usize = 32;

struct Served {
    handle: ServerHandle,
    text: Client,
    binary: BinaryClient,
    doc: u64,
    /// The planned reply of each corpus query; fetching them is also
    /// what warms the result cache.
    expected: Vec<String>,
}

/// The pipelined block every round sends: the corpus in order, wrapped.
fn block(doc: u64) -> Vec<WireRequest> {
    (0..DEPTH)
        .map(|i| WireRequest::Query {
            doc,
            engine: Engine::Planned,
            xpath: CORPUS[i % CORPUS.len()].to_owned(),
        })
        .collect()
}

/// One pipelined round: `DEPTH` sends, one flush, `DEPTH` receives. A
/// request's latency runs from the flush to its own reply. Replies are
/// checked against `expected` when `out` is given.
fn round(
    served: &mut Served,
    requests: &[WireRequest],
    recorder: &mut Recorder,
    mut out: Option<&mut Outcome>,
) -> Result<(), String> {
    let mut first_id = 0;
    for (i, request) in requests.iter().enumerate() {
        let id = served
            .binary
            .send(request)
            .map_err(|e| format!("send: {e}"))?;
        if i == 0 {
            first_id = id;
        }
    }
    let start_ns = recorder.now_ns();
    served.binary.flush().map_err(|e| format!("flush: {e}"))?;
    for _ in 0..requests.len() {
        let frame = served.binary.recv().map_err(|e| format!("recv: {e}"))?;
        recorder.record(Kind::Read, start_ns);
        let Some(out) = out.as_deref_mut() else {
            continue;
        };
        let slot = frame.id.wrapping_sub(first_id) as usize;
        match frame.response {
            WireResponse::Line(reply) if slot < requests.len() => out.check.expect_eq(
                CORPUS[slot % CORPUS.len()],
                &reply.as_str(),
                &served.expected[slot % CORPUS.len()].as_str(),
            ),
            other => out
                .check
                .fail(|| format!("frame {} answered {other:?}", frame.id)),
        }
    }
    recorder.mark();
    Ok(())
}

fn serve_corpus(scratch: &Scratch, scale: &Scale) -> Result<Served, String> {
    let file = scratch.path().join("corpus.xml");
    std::fs::write(&file, inputs::corpus_xml()).map_err(|e| format!("write corpus: {e}"))?;
    let (handle, text, doc) = harness::start_and_load(None, &file)?;
    let mut binary = BinaryClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let expected = CORPUS
        .iter()
        .map(|xpath| {
            binary
                .query(doc, xpath)
                .map_err(|e| format!("warm {xpath}: {e}"))
        })
        .collect::<Result<Vec<String>, String>>()?;
    let mut served = Served {
        handle,
        text,
        binary,
        doc,
        expected,
    };
    let requests = block(doc);
    let mut discarded = Recorder::start(Unit {
        reads: DEPTH,
        commits: 0,
    });
    for _ in 0..scale.warm_batches {
        round(&mut served, &requests, &mut discarded, None)?;
    }
    Ok(served)
}

/// Every corpus query: planned reply byte-equal to engine `tree`.
fn check_against_tree(out: &mut Outcome, served: &mut Served) {
    for (xpath, planned) in CORPUS.iter().zip(&served.expected) {
        let tree = query_with(&mut served.binary, served.doc, Engine::Tree, xpath)
            .unwrap_or_else(|e| format!("ERR {e}"));
        out.check
            .expect_eq(&format!("planned vs tree on {xpath}"), planned, &tree);
    }
}

/// The end-to-end run.
pub fn run(scale: &Scale, _seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("read_hot");
    let set_up = || -> Result<((Served, Scratch), f64), String> {
        let scratch = Scratch::new("read_hot").map_err(|e| e.to_string())?;
        let started = Instant::now();
        let served = serve_corpus(&scratch, scale)?;
        Ok(((served, scratch), started.elapsed().as_secs_f64()))
    };
    let ((mut served, scratch), first_setup) = set_up()?;
    let mut setups = vec![first_setup];

    let requests = block(served.doc);
    let mut recorder = Recorder::start(Unit {
        reads: DEPTH,
        commits: 0,
    });
    let limit = Duration::from_secs_f64(scale.seconds);
    while !recorder.expired(limit) {
        round(&mut served, &requests, &mut recorder, Some(&mut out))?;
    }

    check_against_tree(&mut out, &mut served);
    let cache = served.handle.plan_cache().stats();
    let peak_rss_mb = recorder.peak_rss_mb();
    served.handle.stop();
    drop(scratch);
    repeat_setups(
        scale.setup_repeats,
        &mut setups,
        set_up,
        |(served, _scratch)| served.handle.stop(),
    )?;

    out.set("setup_s", setup_seconds(&setups));
    out.set("req_per_s", recorder.req_per_s());
    out.set("read_p50_us", recorder.latency_us(Kind::Read, 0.50));
    out.set("read_p95_us", recorder.latency_us(Kind::Read, 0.95));
    out.set_plain("peak_rss_mb", peak_rss_mb);
    out.op_counts = vec![
        ("reads", recorder.reads() as f64),
        ("pipeline_depth", DEPTH as f64),
        ("cache_misses", cache.misses as f64),
    ];
    Ok(out)
}

/// Requests per second of `body` repeated for `seconds`; `body` returns
/// how many requests it completed.
fn rate(seconds: f64, mut body: impl FnMut() -> Result<usize, String>) -> Result<f64, String> {
    let started = Instant::now();
    let mut requests = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        requests += body()?;
    }
    Ok(requests as f64 / started.elapsed().as_secs_f64())
}

/// E16's other rows: one-at-a-time text, text pipelined 32 deep over a
/// raw socket, and `MQUERY` batches of 64 four deep.
fn front_ends(served: &mut Served, seconds: f64, layers: &mut Layers) -> Result<(), String> {
    let doc = served.doc;
    let text = &mut served.text;
    let seq = rate(seconds, || {
        for xpath in CORPUS {
            let reply = text
                .request(&format!("QUERY {doc} {xpath}"))
                .map_err(|e| e.to_string())?;
            if !reply.starts_with("OK") {
                return Err(format!("{xpath}: {reply}"));
            }
        }
        Ok(CORPUS.len())
    })?;
    layers.set("service.text_seq_req_per_s", seq);

    let stream = TcpStream::connect(served.handle.addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let lines: String = (0..DEPTH)
        .map(|i| format!("QUERY {doc} {}\n", CORPUS[i % CORPUS.len()]))
        .collect();
    let mut line = String::new();
    let piped = rate(seconds, || {
        writer
            .write_all(lines.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| e.to_string())?;
        for _ in 0..DEPTH {
            line.clear();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if !line.starts_with("OK") {
                return Err(format!("pipelined text: {line}"));
            }
        }
        Ok(DEPTH)
    })?;
    layers.set("service.text_pipe_req_per_s", piped);

    let xpaths: Vec<String> = (0..64)
        .map(|i| CORPUS[i % CORPUS.len()].to_owned())
        .collect();
    let frames: Vec<WireRequest> = (0..4)
        .map(|_| WireRequest::MQuery {
            doc,
            xpaths: xpaths.clone(),
        })
        .collect();
    let binary = &mut served.binary;
    let batched = rate(seconds, || {
        let mut answered = 0;
        for response in binary.pipeline(&frames).map_err(|e| e.to_string())? {
            match response {
                WireResponse::Batch(lines) => answered += lines.len(),
                other => return Err(format!("MQUERY answered {other:?}")),
            }
        }
        Ok(answered)
    })?;
    layers.set("service.mquery_req_per_s", batched);
    Ok(())
}

/// Mean time per corpus query of each engine through `run_query`, the
/// median of five passes, in microseconds.
fn engine_rows(loaded: &LoadedDoc, layers: &mut Layers) -> Result<(), String> {
    const ENGINES: [(Engine, &str); 6] = [
        (Engine::Tree, "service.run_query.tree_us"),
        (Engine::Ruid, "service.run_query.ruid_us"),
        (Engine::Indexed, "service.run_query.indexed_us"),
        (Engine::Interval, "service.run_query.interval_us"),
        (Engine::Ancestry, "service.run_query.ancestry_us"),
        (Engine::Planned, "service.run_query.planned_us"),
    ];
    for (engine, metric) in ENGINES {
        let mut passes = Vec::new();
        for _ in 0..5 {
            let started = Instant::now();
            for xpath in CORPUS {
                let (hits, _) = ruid::service::run_query(loaded, xpath, engine)?;
                std::hint::black_box(hits.len());
            }
            passes.push(started.elapsed().as_nanos() as f64 / CORPUS.len() as f64);
        }
        layers.set_median(metric, &passes, 1e3);
    }
    Ok(())
}

/// The traced run: a pipelined wire pass for the production counters,
/// the front-end comparison, the engine rows, then `replay_hot` requests
/// replayed in-process against a warm cache, untraced and traced.
pub fn trace(scale: &Scale, _seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new("read_hot");
    let mut layers = Layers::default();

    let scratch = Scratch::new("read_hot-trace").map_err(|e| e.to_string())?;
    let mut served = serve_corpus(&scratch, scale)?;
    let requests = block(served.doc);
    let counters = ServerCounters::read(&served.handle);
    let mut recorder = Recorder::start(Unit {
        reads: DEPTH,
        commits: 0,
    });
    while !recorder.expired(Duration::from_secs_f64(scale.wire_seconds)) {
        round(&mut served, &requests, &mut recorder, Some(&mut out))?;
    }
    counters.report_since(&served.handle, recorder.requests(), &mut layers);
    let wire_p50 = recorder.latency_us(Kind::Read, 0.50);
    layers.set("wire.read_p50_us", wire_p50.value);
    front_ends(&mut served, scale.wire_seconds, &mut layers)?;
    served.handle.stop();

    let loaded = layers::build_layers(tracer, &inputs::corpus_xml(), &mut layers)?;
    engine_rows(&loaded, &mut layers)?;

    // The same block of requests in-process, both caches warm as the
    // wire workload's set-up leaves them.
    let xpaths: Vec<&str> = (0..scale.replay_hot)
        .map(|i| CORPUS[i % DEPTH % CORPUS.len()])
        .collect();
    let replies = layers::trace_reads(
        tracer,
        loaded,
        &xpaths,
        &[],
        &CORPUS,
        wire_p50.value,
        &mut layers,
    )?;
    for (i, reply) in replies.iter().enumerate() {
        out.check.expect_eq(
            "in-process vs wire reply",
            &reply.as_str(),
            &served.expected[i % DEPTH % CORPUS.len()].as_str(),
        );
    }

    out.metrics = layers.into_metrics();
    out.op_counts = vec![
        ("wire_reads", recorder.reads() as f64),
        ("replayed_reads", replies.len() as f64),
    ];
    Ok(out)
}
