//! `read_cold` — the working set is larger than the program's own cache.
//!
//! XMark at about 150k nodes, binary protocol at depth 1, planned
//! engine, a pool of 4096 distinct query strings replayed as a fixed
//! permutation: the 1024-entry FIFO result cache can never hit, so every
//! request parses, plans, executes, formats and writes a reply of one
//! hit to ~130 KB. This is E14's question (is the planner worth it) asked
//! end to end, next to `read_hot` as the ROADMAP defect list demands.

use std::time::{Duration, Instant};

use ruid::service::proto::Engine;
use ruid::{BinaryClient, Client, ServerHandle};

use crate::harness::{self, Kind, Recorder, Scratch, Unit};
use crate::inputs::{self, Query};
use crate::layers::{self, Layers, ServerCounters};
use crate::trace::Tracer;
use crate::workloads::{
    evenly_spaced, query_with, repeat_setups, reply_hash, setup_seconds, Outcome, Scale,
};

/// A loaded server with both clients connected.
pub(crate) struct Served {
    pub(crate) handle: ServerHandle,
    pub(crate) text: Client,
    pub(crate) binary: BinaryClient,
    pub(crate) doc: u64,
}

/// Set-up of the two in-memory-or-durable 150k workloads: generate the
/// document, write it, start a default server (durable when `data_dir`
/// is given), `LOAD` over the wire, connect.
pub(crate) fn serve_xmark(
    scratch: &Scratch,
    scale: &Scale,
    seed: u64,
    durable: bool,
) -> Result<(Served, String), String> {
    let xml = inputs::xmark_xml(scale.nodes, seed);
    let file = scratch.path().join("xmark.xml");
    std::fs::write(&file, &xml).map_err(|e| format!("write {}: {e}", file.display()))?;
    let data_dir = scratch.path().join("data");
    let (handle, text, doc) =
        harness::start_and_load(durable.then_some(data_dir.as_path()), &file)?;
    let binary = BinaryClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((
        Served {
            handle,
            text,
            binary,
            doc,
        },
        xml,
    ))
}

/// Warm-up reads drawn from a pool of their own seed, minus any string
/// the measured pool also holds (the few large-result templates recur):
/// code paths, page tables and allocator arenas warm up, the measured
/// queries stay out of the result cache.
fn warm_up(served: &mut Served, scale: &Scale, seed: u64, pool: &[Query]) -> Result<(), String> {
    let measured: std::collections::BTreeSet<&str> =
        pool.iter().map(|q| q.xpath.as_str()).collect();
    let warm = inputs::query_pool(scale.nodes, seed ^ 0x77a2_3000_0000_0003, scale.warm_reads);
    for query in warm.iter().filter(|q| !measured.contains(q.xpath.as_str())) {
        let reply = served
            .binary
            .query(served.doc, &query.xpath)
            .map_err(|e| format!("warm-up: {e}"))?;
        if !reply.starts_with("OK") {
            return Err(format!("warm-up {}: {reply}", query.xpath));
        }
    }
    Ok(())
}

/// The oracle: the reply the measured section got for a query must be
/// byte-equal to the same query answered by engine `tree`, the DOM walk.
/// `sample` queries spread evenly over the pool are checked, so every
/// template class in proportion to its share; the DOM walk costs about
/// 5 ms a query here, so the whole pool would take longer than the
/// measured section. Every other reply is held to its own first
/// occurrence, cycle after cycle.
fn check_against_tree(
    out: &mut Outcome,
    served: &mut Served,
    pool: &[Query],
    first_reply: &[Option<u64>],
    sample: usize,
) {
    for index in evenly_spaced(pool.len(), sample) {
        let xpath = &pool[index].xpath;
        let Some(planned) = first_reply[index] else {
            // A short run did not get this far into the pool.
            continue;
        };
        match query_with(&mut served.binary, served.doc, Engine::Tree, xpath) {
            Ok(tree) if tree.starts_with("OK") => out.check.expect_eq(
                &format!("planned vs tree on {xpath}"),
                &planned,
                &reply_hash(&tree),
            ),
            Ok(tree) => out
                .check
                .fail(|| format!("oracle failed on {xpath}: {tree}")),
            Err(e) => out.check.fail(|| format!("oracle failed on {xpath}: {e}")),
        }
    }
}

/// The end-to-end run.
pub fn run(scale: &Scale, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new("read_cold");
    let pool = inputs::query_pool(scale.nodes, seed, scale.pool);

    let set_up = || -> Result<((Served, Scratch), f64), String> {
        let scratch = Scratch::new("read_cold").map_err(|e| e.to_string())?;
        let started = Instant::now();
        let (mut served, _xml) = serve_xmark(&scratch, scale, seed, false)?;
        warm_up(&mut served, scale, seed, &pool)?;
        Ok(((served, scratch), started.elapsed().as_secs_f64()))
    };
    let ((mut served, scratch), first_setup) = set_up()?;
    let mut setups = vec![first_setup];

    // Measured section: one connection, one request in flight.
    let mut first_reply: Vec<Option<u64>> = vec![None; pool.len()];
    // One unit = one block of the pool: every slice is the same class mix.
    let mut recorder = Recorder::start(Unit {
        reads: inputs::BLOCK.min(pool.len()),
        commits: 0,
    });
    let limit = Duration::from_secs_f64(scale.seconds);
    while !recorder.expired(limit) {
        let index = recorder.requests() % pool.len();
        let xpath = &pool[index].xpath;
        let reply = recorder.time(Kind::Read, || served.binary.query(served.doc, xpath));
        if let Some(reply) = out.check.expect_ok(xpath, reply) {
            // Nothing writes, so every later cycle must repeat the first.
            let hash = reply_hash(&reply);
            match first_reply[index] {
                None => first_reply[index] = Some(hash),
                Some(first) => out
                    .check
                    .expect_eq(&format!("repeat of {xpath}"), &hash, &first),
            }
        }
    }

    check_against_tree(
        &mut out,
        &mut served,
        &pool,
        &first_reply,
        scale.oracle_sample,
    );
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
        ("distinct_queries", pool.len() as f64),
        ("cache_hits", cache.hits as f64),
    ];
    Ok(out)
}

/// E18's axis mix (descendants, ancestors, following) over a node
/// sample, as calls per second.
fn axis_calls_per_s<P: ruid::AxisProvider>(provider: &P, sample: &[ruid::NodeId]) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    let mut reached = 0usize;
    for (i, &node) in sample.iter().enumerate() {
        reached += provider.ancestors(node).len();
        calls += 1;
        if i % 7 == 0 {
            reached += provider.descendants(node).len();
            calls += 1;
        }
        if i % 9 == 0 {
            reached += provider.following(node).len();
            calls += 1;
        }
    }
    std::hint::black_box(reached);
    calls as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// The four axis providers over a document of E18's size (20k nodes at
/// full scale: `RuidAxes::following` on 150k nodes takes most of a
/// second per call), each structure built directly.
fn axis_rows(scale: &Scale, seed: u64, layers: &mut Layers) -> Result<(), String> {
    let doc = ruid::xmark::generate(&ruid::xmark::XmarkConfig::scaled_to(
        scale.nodes.min(20_000),
        seed,
    ));
    let root = doc.root_element().ok_or("document has no root element")?;
    let order = ruid::DocOrder::build(&doc);
    let scheme = ruid::Ruid2Scheme::build(&doc, &ruid::PartitionConfig::by_depth(3));
    let interval = ruid::IntervalScheme::build(&doc);
    let ancestry = ruid::AncestryScheme::build(&doc);
    let all: Vec<ruid::NodeId> = doc.descendants(root).collect();
    let sample: Vec<ruid::NodeId> = all
        .iter()
        .copied()
        .step_by((all.len() / 400).max(1))
        .collect();
    layers.set(
        "xpath.axes.tree_calls_per_s",
        axis_calls_per_s(&ruid::TreeAxes::with_order(&doc, &order), &sample),
    );
    layers.set(
        "xpath.axes.ruid_calls_per_s",
        axis_calls_per_s(&ruid::RuidAxes::with_order(&scheme, &order), &sample),
    );
    layers.set(
        "xpath.axes.interval_calls_per_s",
        axis_calls_per_s(
            &ruid::SpanAxes::with_order(interval.span_index(), "interval", &order),
            &sample,
        ),
    );
    layers.set(
        "xpath.axes.ancestry_calls_per_s",
        axis_calls_per_s(
            &ruid::SpanAxes::with_order(ancestry.span_index(), "ancestry", &order),
            &sample,
        ),
    );
    Ok(())
}

/// The traced run: a wire pass for the production counters, the build
/// taken apart, the axis providers, then the same `replay_reads` requests
/// replayed in-process, untraced and traced.
pub fn trace(scale: &Scale, seed: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new("read_cold");
    let mut layers = Layers::default();
    let pool = inputs::query_pool(scale.nodes, seed, scale.pool);
    let replay: Vec<&Query> = evenly_spaced(pool.len(), scale.replay_reads)
        .map(|i| &pool[i])
        .collect();

    // Wire pass: round trips and the server's own counters.
    let scratch = Scratch::new("read_cold-trace").map_err(|e| e.to_string())?;
    let (mut served, xml) = serve_xmark(&scratch, scale, seed, false)?;
    warm_up(&mut served, scale, seed, &pool)?;
    let counters = ServerCounters::read(&served.handle);
    let mut recorder = Recorder::start(Unit {
        reads: replay.len(),
        commits: 0,
    });
    let mut wire_replies = Vec::with_capacity(replay.len());
    for query in &replay {
        let reply = recorder.time(Kind::Read, || served.binary.query(served.doc, &query.xpath));
        wire_replies.push(out.check.expect_ok(&query.xpath, reply).unwrap_or_default());
    }
    counters.report_since(&served.handle, recorder.requests(), &mut layers);
    let wire_p50 = recorder.latency_us(Kind::Read, 0.50);
    layers.set("wire.read_p50_us", wire_p50.value);
    served.handle.stop();

    // The build, part by part, then the real bundle.
    let loaded = layers::build_layers(tracer, &xml, &mut layers)?;

    axis_rows(scale, seed, &mut layers)?;

    // In-process replay of the same requests, untraced and traced, each
    // against a fresh default-capacity cache of its own.
    let xpaths: Vec<&str> = replay.iter().map(|query| query.xpath.as_str()).collect();
    let classes: Vec<inputs::QueryClass> = replay.iter().map(|query| query.class).collect();
    let replies = layers::trace_reads(
        tracer,
        loaded,
        &xpaths,
        &classes,
        &[],
        wire_p50.value,
        &mut layers,
    )?;
    // The in-process path must say what the server said on the wire.
    for ((reply, wire_reply), xpath) in replies.iter().zip(&wire_replies).zip(&xpaths) {
        out.check.expect_eq(
            &format!("in-process vs wire reply of {xpath}"),
            reply,
            wire_reply,
        );
    }

    out.metrics = layers.into_metrics();
    out.op_counts = vec![
        ("wire_reads", recorder.reads() as f64),
        ("replayed_reads", replies.len() as f64),
    ];
    Ok(out)
}
