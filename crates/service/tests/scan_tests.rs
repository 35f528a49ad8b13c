//! `SCAN` rows are a derivation, and must read as the stored table did.
//!
//! The service used to keep an identifier-sorted `XmlStore` per document
//! generation and reload it on every commit just so `SCAN <doc> <global>`
//! could range-scan it. The rows are now read off the tree and the rUID
//! labels when asked for. The property under test: for every UID-local
//! area (and one that does not exist), the reply is byte-equal to the rows
//! of a store freshly loaded from the same tree and numbering — after
//! `LOAD`, after every commit of a seeded `INSERT` / `DELETE` / `RELABEL`
//! chain, after an abrupt stop and WAL recovery, and on a follower that
//! replayed the shipped log.

use std::fmt::Write as _;
use std::time::Duration;

use ruid_service::proto::{escape_line, fmt_label};
use ruid_service::{Client, LoadedDoc, ServerConfig, ServerHandle};
use schemes::NumberingScheme;
use testkit::{corpus_xml, durable, elements, start, start_follower, wait_until, Scratch};
use xmldom::NodeId;
use xmlgen::{xmark, SplitMix64};
use xmlstore::record::StoredKind;
use xmlstore::XmlStore;

/// Every area of the document's table K, plus one global no area has.
fn globals(loaded: &LoadedDoc) -> Vec<u64> {
    let mut globals: Vec<u64> = loaded.scheme.ktable().rows().iter().map(|r| r.global).collect();
    globals.push(globals.iter().max().unwrap() + 1);
    globals
}

fn scan_replies(client: &mut Client, id: u64, globals: &[u64]) -> Vec<String> {
    globals.iter().map(|g| client.request(&format!("SCAN {id} {g}")).unwrap()).collect()
}

/// What `SCAN` answered when it range-scanned a store: the rows of a
/// fresh `XmlStore` loaded from this generation's tree and numbering.
fn store_replies(loaded: &LoadedDoc, globals: &[u64]) -> Vec<String> {
    let mut store = XmlStore::in_memory();
    store.load_document(&loaded.doc, &loaded.scheme);
    globals
        .iter()
        .map(|&global| {
            let rows = store.scan_area(global);
            let mut out = format!("OK {}", rows.len());
            for row in rows {
                let kind = match row.kind {
                    StoredKind::Element => "elem",
                    StoredKind::Text => "text",
                    StoredKind::Comment => "comment",
                    StoredKind::ProcessingInstruction => "pi",
                };
                let _ = write!(
                    out,
                    " {}#{kind}#{}",
                    fmt_label(&row.label),
                    escape_line(&row.name.replace(' ', "_"))
                );
            }
            out
        })
        .collect()
}

fn assert_scan_reads_as_the_store(handle: &ServerHandle, client: &mut Client, id: u64, ctx: &str) {
    let loaded = handle.catalog().get(id).unwrap();
    let globals = globals(&loaded);
    let (got, want) = (scan_replies(client, id, &globals), store_replies(&loaded, &globals));
    for ((global, got), want) in globals.iter().zip(&got).zip(&want) {
        assert_eq!(got, want, "SCAN {id} {global} {ctx}");
    }
    assert!(got[0].len() > "OK 1 ".len(), "area {} has rows: {}", globals[0], got[0]);
    assert_eq!(got.last().unwrap(), "OK 0", "an unknown area is empty {ctx}");
}

/// One seeded structural commit over the wire.
fn commit(handle: &ServerHandle, client: &mut Client, id: u64, rng: &mut SplitMix64) -> String {
    let loaded = handle.catalog().get(id).unwrap();
    let elems = elements(&loaded);
    let arg = |node: NodeId| {
        let l = loaded.scheme.label_of(node);
        format!("{} {} {}", l.global, l.local, l.is_root)
    };
    let request = match rng.gen_range(0..10) {
        0..=4 => {
            let parent = elems[rng.gen_range(0..elems.len())];
            let fragment =
                ["<x/>", "<y k=\"1\"/>", "t0", "<!--note-->", "<?app do it?>"][rng.gen_range(0..5usize)];
            format!("INSERT {id} {} {} {fragment}", arg(parent), rng.gen_range(0..3))
        }
        5..=7 if elems.len() > 1 => {
            format!("DELETE {id} {}", arg(elems[1 + rng.gen_range(0..elems.len() - 1)]))
        }
        _ => format!("RELABEL {id}"),
    };
    let reply = client.request(&request).unwrap();
    assert!(reply.starts_with("OK"), "{request}: {reply}");
    request
}

fn scan_reads_as_the_store_through_every_life(name: &str, xml: &str, seed: u64, commits: usize) {
    let dir = Scratch::new(name);
    let path = dir.file("doc.xml", xml);
    let data = dir.join("data");

    let (leader, mut client) = start(durable(&data));
    let reply = client.request(&format!("LOAD {}", path.display())).unwrap();
    assert!(reply.starts_with("OK id=1 "), "{reply}");
    assert_scan_reads_as_the_store(&leader, &mut client, 1, "after LOAD");
    let mut rng = SplitMix64::seed_from_u64(seed);
    for step in 0..commits {
        let request = commit(&leader, &mut client, 1, &mut rng);
        let ctx = format!("after step {step} ({request}), failing seed: {seed:#x}");
        assert_scan_reads_as_the_store(&leader, &mut client, 1, &ctx);
    }
    let live = scan_replies(&mut client, 1, &globals(&leader.catalog().get(1).unwrap()));
    // Abrupt stop: no SHUTDOWN, no SNAPSHOT — the WAL alone carries it.
    leader.stop();

    let (leader, mut client) = start(durable(&data));
    assert_scan_reads_as_the_store(&leader, &mut client, 1, "after restart");
    let all = globals(&leader.catalog().get(1).unwrap());
    assert_eq!(scan_replies(&mut client, 1, &all), live, "rows changed across restart");

    let (follower, mut fc) = start_follower(leader.addr(), None, 20);
    wait_until("follower catch-up", Duration::from_secs(20), || {
        follower.catalog().get(1).is_some() && scan_replies(&mut fc, 1, &all) == live
    });
    assert_scan_reads_as_the_store(&follower, &mut fc, 1, "on the follower");
    follower.stop();
    leader.stop();
}

#[test]
fn corpus_scan_reads_as_the_store_through_every_life() {
    scan_reads_as_the_store_through_every_life("corpus", &corpus_xml(), 0x5CA4_0001, 24);
}

#[test]
fn xmark_scan_reads_as_the_store_through_every_life() {
    let xml = xmark::generate(&xmark::XmarkConfig::scaled_to(5_000, 42)).to_xml_string();
    scan_reads_as_the_store_through_every_life("xmark", &xml, 0x5CA4_0002, 16);
}

#[test]
fn scan_without_a_store_is_still_refused() {
    let dir = Scratch::new("no-store");
    let path = dir.file("doc.xml", corpus_xml());
    let (handle, mut client) = start(ServerConfig { with_store: false, ..ServerConfig::default() });
    assert!(client.request(&format!("LOAD {}", path.display())).unwrap().starts_with("OK id=1 "));
    assert_eq!(
        client.request("SCAN 1 1").unwrap(),
        "ERR document loaded without a store (SCAN unavailable)"
    );
    // Commits carry the flag to the next generation.
    assert!(client.request("INSERT 1 1 1 true 0 <x/>").unwrap().starts_with("OK"));
    assert!(client.request("SCAN 1 1").unwrap().starts_with("ERR document loaded without"));
    handle.stop();
}
