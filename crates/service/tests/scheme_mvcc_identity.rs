//! Byte-identity of the interval and ancestry numberings through the
//! MVCC commit path, plus LOADSTREAM durability and shipping.
//!
//! The catalog maintains both span-backed numberings *incrementally*
//! inside `LoadedDoc::apply_update` (the copy-on-write commit every
//! structural write runs). The property under test: after any seeded
//! chain of INSERT / DELETE / RELABEL commits, the incrementally
//! maintained labels — and their encoded sizes — must be byte-identical
//! to schemes rebuilt from scratch against the committed tree. Drift
//! here would mean the interval/ancestry query engines silently answer
//! from a stale numbering while tree and rUID move on.
//!
//! The second half covers the LOADSTREAM ingestion path end to end:
//! a document born from an interval-encoded event stream (never XML
//! text) must survive a WAL restart and ship to a follower replica,
//! answering identically on every engine in all three lives.

use std::time::{Duration, Instant};

use durable::{NodeContent, WalOp};
use ruid_service::{Client, FsyncPolicy, LoadedDoc, Server, ServerConfig, ServerHandle};
use schemes::ancestry::AncestryScheme;
use schemes::interval::IntervalScheme;
use schemes::NumberingScheme;
use xmlgen::SplitMix64;

const SEED_XML: &str =
    "<r><a><b><c/></b><c/></a><b><a/><c/><c/></b><a><c/></a><c/></r>";

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ruid-scheme-identity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts the snapshot's incrementally maintained interval/ancestry
/// numberings are byte-identical to from-scratch rebuilds: same label for
/// every node, same encoded size in aggregate.
fn assert_byte_identical(loaded: &LoadedDoc, ctx: &str) {
    let fresh_interval = IntervalScheme::build(&loaded.doc);
    let fresh_ancestry = AncestryScheme::build(&loaded.doc);
    let root = loaded.doc.root_element().unwrap();
    let (mut live_bytes, mut fresh_bytes) = (0usize, 0usize);
    for node in loaded.doc.descendants(root) {
        let (live, fresh) = (loaded.interval.label_of(node), fresh_interval.label_of(node));
        assert_eq!(live, fresh, "interval label drifted from rebuild {ctx}");
        live_bytes += loaded.interval.encoded_bytes(&live);
        fresh_bytes += fresh_interval.encoded_bytes(&fresh);
        let (live, fresh) = (loaded.ancestry.label_of(node), fresh_ancestry.label_of(node));
        assert_eq!(live, fresh, "ancestry label drifted from rebuild {ctx}");
        live_bytes += loaded.ancestry.encoded_bytes(&live);
        fresh_bytes += fresh_ancestry.encoded_bytes(&fresh);
    }
    assert_eq!(live_bytes, fresh_bytes, "encoded sizes diverged from rebuild {ctx}");
}

/// Runs a seeded chain of structural commits through `apply_update` —
/// the exact code path LOAD-then-mutate traffic takes — checking
/// byte-identity after every commit.
fn run_chain(mut loaded: LoadedDoc, seed: u64, steps: usize, ctx: &str) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    assert_byte_identical(&loaded, &format!("{ctx} before any update"));
    for step in 0..steps {
        let root = loaded.doc.root_element().unwrap();
        let elems: Vec<_> = loaded
            .doc
            .descendants(root)
            .filter(|&n| loaded.doc.element_name(n).is_some())
            .collect();
        let kind = rng.gen_range(0..100);
        let op = if kind < 55 || elems.len() < 2 {
            let parent = loaded.scheme.label_of(elems[rng.gen_range(0..elems.len())]);
            let position = rng.gen_range(0..4) as u32;
            let content = match rng.gen_range(0..3) {
                0 => NodeContent::Element { name: "x".into(), attributes: vec![] },
                1 => NodeContent::Element {
                    name: "y".into(),
                    attributes: vec![("k".into(), "1".into())],
                },
                _ => NodeContent::Text("t0".into()),
            };
            WalOp::Insert { doc_id: 1, parent, position, content }
        } else if kind < 85 {
            let victim = elems[1 + rng.gen_range(0..elems.len() - 1)];
            WalOp::Delete { doc_id: 1, label: loaded.scheme.label_of(victim) }
        } else {
            WalOp::Repartition { doc_id: 1 }
        };
        let (next, _applied) = loaded
            .apply_update(&op, (step + 1) as u64)
            .unwrap_or_else(|e| panic!("{ctx} step {step}: {op:?} failed: {e}"));
        loaded = next;
        assert_byte_identical(&loaded, &format!("{ctx} after step {step} ({op:?})"));
    }
}

#[test]
fn update_chain_keeps_span_schemes_byte_identical() {
    let dir = scratch("chain");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, SEED_XML).unwrap();
    let loaded = LoadedDoc::from_file(&xml.display().to_string(), 3, false).unwrap();
    run_chain(loaded, 0x5EED_2026, 60, "seeded chain");
}

#[test]
fn xmark_update_chain_keeps_span_schemes_byte_identical() {
    let dir = scratch("xmark-chain");
    let xml = dir.join("xmark.xml");
    let doc = xmlgen::xmark::generate(&xmlgen::xmark::XmarkConfig::scaled_to(600, 42));
    std::fs::write(&xml, doc.to_xml_string()).unwrap();
    let loaded = LoadedDoc::from_file(&xml.display().to_string(), 3, false).unwrap();
    run_chain(loaded, 0x5EED_2027, 30, "xmark chain");
}

// ---------------------------------------------------------------------
// LOADSTREAM durability + replication
// ---------------------------------------------------------------------

/// Interval-encoded event stream for `<a><b><c/></b><b><c/>t</b></a>`:
/// five elements plus one text leaf, nested by interval containment.
const STREAM_EVENTS: &str = "1:20:a 2:7:b 3:4:c 8:17:b 9:10:c 11:12:=t0";

fn start_durable(data_dir: &std::path::Path) -> (ServerHandle, Client) {
    let config = ServerConfig {
        data_dir: Some(data_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

/// Every engine's answers over the streamed document — the vector two
/// servers must agree on byte for byte.
fn stream_answers(client: &mut Client) -> Vec<String> {
    let mut answers = Vec::new();
    for engine in ["tree", "ruid", "indexed", "interval", "ancestry", "planned"] {
        for xpath in ["//b", "//c", "//b/c", "/a/b", "//*"] {
            answers.push(client.request(&format!("QUERY 1 {xpath} {engine}")).unwrap());
        }
    }
    answers
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn loadstream_survives_restart_and_ships_to_a_follower() {
    let dir = scratch("loadstream");
    let data = dir.join("data");

    // First life: ingest the stream, record every engine's answers.
    let (handle, mut client) = start_durable(&data);
    let resp = client.request(&format!("LOADSTREAM feed {STREAM_EVENTS}")).unwrap();
    assert!(resp.starts_with("OK id=1"), "{resp}");
    let baseline = stream_answers(&mut client);
    let sample = &baseline[3 * 5]; // interval engine, //b
    assert!(sample.starts_with("OK 2"), "interval //b on the streamed doc: {sample}");
    handle.stop();

    // Second life: WAL recovery must rebuild the streamed document with
    // no XML file anywhere on disk.
    let (handle, mut client) = start_durable(&data);
    assert_eq!(stream_answers(&mut client), baseline, "answers changed across restart");
    assert_byte_identical(
        &handle.catalog().get(1).unwrap(),
        "for the recovered streamed document",
    );

    // Third life: a follower bootstrapping from the recovered leader
    // must serve the streamed document identically.
    let follower_config = ServerConfig {
        follow: Some(handle.addr().to_string()),
        repl_poll_ms: 20,
        ..ServerConfig::default()
    };
    let follower = Server::start(follower_config).unwrap();
    let mut fc = Client::connect(follower.addr()).unwrap();
    wait_until("follower to serve the streamed doc", Duration::from_secs(10), || {
        fc.request("QUERY 1 //b interval").unwrap().starts_with("OK")
    });
    assert_eq!(stream_answers(&mut fc), baseline, "follower answers diverged");
    follower.stop();
    handle.stop();
}
