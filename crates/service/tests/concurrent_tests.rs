//! Concurrency correctness: many clients hammer one server with mixed
//! structural requests, and every response must be byte-identical to an
//! oracle computed single-threaded from the scheme and evaluator directly.
//!
//! This is the test the sharded-catalog design has to pass: reads take
//! shared locks only to clone an `Arc`, and `rparent`/axis evaluation is
//! pure arithmetic over the label and table K, so any interleaving of
//! readers must produce exactly the sequential answers.

use std::sync::Arc;
use std::thread;

use ruid_core::{PartitionConfig, Ruid2, Ruid2Scheme};
use ruid_service::proto::{escape_line, fmt_label};
use ruid_service::{Client, Server, ServerConfig};
use schemes::NumberingScheme;
use testkit::{load_xml, metrics_field};
use xmldom::Document;
use xmlgen::{xmark, SplitMix64};
use xmlstore::record::StoredKind;
use xmlstore::{MemPager, XmlStore};
use xpath::{Evaluator, NameIndex, NameIndexed, RuidAxes, TreeAxes};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 80; // 640 total, comfortably over 500

const XPATHS: [&str; 6] = [
    "//item",
    "//person/name",
    "//item/incategory",
    "//open_auction/bidder",
    "//category/name",
    "//regions//quantity",
];
const ENGINES: [&str; 3] = ["tree", "ruid", "indexed"];

/// The single-threaded oracle: the same bundle the server builds, driven
/// directly (no sockets, no pool, no catalog).
struct Oracle {
    doc: Document,
    scheme: Ruid2Scheme,
    index: NameIndex,
    store: XmlStore<MemPager>,
}

impl Oracle {
    fn build(text: &str, depth: usize) -> Oracle {
        let doc = Document::parse(text).unwrap();
        let scheme = Ruid2Scheme::try_build(&doc, &PartitionConfig::by_depth(depth)).unwrap();
        let index = NameIndex::build(&doc);
        let mut store = XmlStore::in_memory();
        store.load_document(&doc, &scheme);
        Oracle { doc, scheme, index, store }
    }

    fn parent(&self, label: &Ruid2) -> String {
        match self.scheme.rparent(label) {
            Some(parent) => format!("OK {}", fmt_label(&parent)),
            None => "OK none".into(),
        }
    }

    fn query(&self, xpath: &str, engine: &str) -> String {
        let hits = match engine {
            "tree" => Evaluator::new(&self.doc, TreeAxes::new(&self.doc)).query(xpath),
            "ruid" => Evaluator::new(&self.doc, RuidAxes::new(&self.scheme)).query(xpath),
            "indexed" => Evaluator::new(
                &self.doc,
                NameIndexed::new(RuidAxes::new(&self.scheme), &self.doc, &self.index),
            )
            .query(xpath),
            other => panic!("unknown engine {other}"),
        }
        .unwrap();
        let mut out = format!("OK {}", hits.len());
        for node in hits {
            out.push(' ');
            out.push_str(&fmt_label(&self.scheme.label_of(node)));
        }
        out
    }

    fn scan(&self, global: u64) -> String {
        let rows = self.store.scan_area(global);
        let mut out = format!("OK {}", rows.len());
        for row in rows {
            let kind = match row.kind {
                StoredKind::Element => "elem",
                StoredKind::Text => "text",
                StoredKind::Comment => "comment",
                StoredKind::ProcessingInstruction => "pi",
            };
            out.push(' ');
            out.push_str(&fmt_label(&row.label));
            out.push('#');
            out.push_str(kind);
            out.push('#');
            out.push_str(&escape_line(&row.name.replace(' ', "_")));
        }
        out
    }
}

/// Pulls `NAME=count/errors/p50/p95/p99` out of a METRICS response line.
fn metric(resp: &str, name: &str) -> (u64, u64, u64) {
    let token = metrics_field(resp, name).unwrap_or_else(|| panic!("no {name} in {resp}"));
    let fields: Vec<u64> = token.split('/').map(|f| f.parse().unwrap()).collect();
    (fields[0], fields[1], fields[2]) // count, errors, p50 ns
}

#[test]
fn concurrent_clients_match_the_sequential_oracle() {
    // An XMark-style document of a few thousand nodes.
    let generated = xmark::generate(&xmark::XmarkConfig::scaled_to(3000, 7));
    let text = generated.to_xml_string();

    let depth = ServerConfig::default().depth;
    let oracle = Oracle::build(&text, depth);
    let root = oracle.doc.root_element().unwrap();
    let labels: Vec<Ruid2> =
        oracle.doc.descendants(root).map(|n| oracle.scheme.label_of(n)).collect();
    let areas: Vec<u64> = oracle.scheme.ktable().rows().iter().map(|r| r.global).collect();
    assert!(labels.len() >= 1000, "document too small: {} nodes", labels.len());
    assert!(areas.len() >= 2, "want multiple areas, got {}", areas.len());

    let handle = Server::start(ServerConfig::default()).unwrap();

    // Load through a short-lived connection, before the eight query
    // connections open.
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), &text);

    // Precompute (request, expected) pairs single-threaded.
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    let mut pairs: Vec<(String, String)> = Vec::new();
    let (mut n_parent, mut n_query, mut n_scan) = (0u64, 0u64, 0u64);
    for _ in 0..THREADS * REQUESTS_PER_THREAD {
        match rng.gen_range(0..3u32) {
            0 => {
                let label = labels[rng.gen_range(0..labels.len())];
                let request = format!(
                    "PARENT {id} {} {} {}",
                    label.global, label.local, label.is_root
                );
                pairs.push((request, oracle.parent(&label)));
                n_parent += 1;
            }
            1 => {
                let xpath = XPATHS[rng.gen_range(0..XPATHS.len())];
                let engine = ENGINES[rng.gen_range(0..ENGINES.len())];
                let request = format!("QUERY {id} {xpath} {engine}");
                pairs.push((request, oracle.query(xpath, engine)));
                n_query += 1;
            }
            _ => {
                let global = areas[rng.gen_range(0..areas.len())];
                let request = format!("SCAN {id} {global}");
                pairs.push((request, oracle.scan(global)));
                n_scan += 1;
            }
        }
    }

    // Hammer the server from eight connections at once; every response must
    // be byte-identical to the oracle's answer.
    let pairs = Arc::new(pairs);
    let addr = handle.addr();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let pairs = Arc::clone(&pairs);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let slice = &pairs[t * REQUESTS_PER_THREAD..(t + 1) * REQUESTS_PER_THREAD];
                for (request, expected) in slice {
                    let response = client.request(request).unwrap();
                    assert_eq!(&response, expected, "request {request:?} diverged");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // The metrics must account for exactly the traffic issued: one LOAD plus
    // the mixed requests, all error-free, with live latency histograms.
    let mut prober = Client::connect(addr).unwrap();
    let resp = prober.request("METRICS").unwrap();
    assert!(resp.contains("errors=0"), "{resp}");
    let (load_count, load_errors, load_p50) = metric(&resp, "LOAD");
    assert_eq!((load_count, load_errors), (1, 0), "{resp}");
    assert!(load_p50 > 0, "{resp}");
    let mut issued = 0u64;
    for (name, expected_count) in
        [("PARENT", n_parent), ("QUERY", n_query), ("SCAN", n_scan)]
    {
        let (count, errors, p50) = metric(&resp, name);
        assert_eq!(count, expected_count, "{name}: {resp}");
        assert_eq!(errors, 0, "{name}: {resp}");
        assert!(p50 > 0, "{name}: histogram empty in {resp}");
        issued += count;
    }
    assert_eq!(issued, (THREADS * REQUESTS_PER_THREAD) as u64, "{resp}");

    handle.stop();
}
