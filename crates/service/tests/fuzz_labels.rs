//! Malformed-input sweep over both protocol front ends: fabricated
//! label triples, truncated verbs, corrupt binary frames, and mangled
//! LOADSTREAM events must all come back as `ERR` (or a closed
//! connection for unparseable frames) — never a worker panic. Every
//! probe is followed by a `PING` so a wedged or crashed server is
//! caught immediately, not at the end of the sweep.
//!
//! The label probes are the regression teeth for the `PARENT` fix: the
//! Fig. 6 parent arithmetic used to `panic!` on labels the numbering
//! never issued (zero indices, unknown areas, impossible root flags),
//! and every one of those bytes is client-controlled.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ruid_service::wire::{self, WireRequest};
use ruid_service::{Client, Server, ServerConfig, ServerHandle};

fn start() -> (ServerHandle, Client) {
    let dir = std::env::temp_dir().join(format!(
        "ruid-fuzz-labels-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").replace("::", "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, "<a><b><c/><c/></b><b/></a>").unwrap();
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(&format!("LOAD {}", xml.display())).unwrap();
    assert!(resp.starts_with("OK id=1"), "{resp}");
    (handle, client)
}

/// Every engine token the QUERY verb accepts.
const ENGINES: &[&str] = &["tree", "ruid", "indexed", "interval", "ancestry", "planned"];

/// Label triples no numbering ever issues: zero indices, unknown areas,
/// impossible root flags, saturated values.
const BAD_LABELS: &[&str] = &[
    "0 0 false",
    "0 1 true",
    "1 0 false",
    "1 5 true",
    "2 1 false",
    "999 2 false",
    "999 1 false",
    "18446744073709551615 18446744073709551615 true",
    "18446744073709551615 2 false",
];

#[test]
fn fabricated_labels_answer_err_on_every_verb() {
    let (handle, mut client) = start();
    let mut probes = Vec::new();
    for label in BAD_LABELS {
        probes.push(format!("PARENT 1 {label}"));
        probes.push(format!("GET 1 {label}"));
        probes.push(format!("DELETE 1 {label}"));
        probes.push(format!("INSERT 1 {label} 0 <x/>"));
    }
    for line in &probes {
        let resp = client.request(line).unwrap();
        assert!(resp.starts_with("ERR"), "{line} -> {resp}");
        assert_eq!(client.request("PING").unwrap(), "OK pong", "server wedged after {line}");
    }
    handle.stop();
}

/// Labels the numbering *did* issue, but to nodes that cannot take a
/// child: `INSERT` under a text, comment or PI node must answer `ERR` and
/// change nothing — the serializer never writes such a child, so the live
/// tree and a reload of it would disagree.
#[test]
fn insert_under_a_non_element_answers_err() {
    let (handle, mut client) = start();
    let resp = client.request("INSERT 1 1 1 true 0 t").unwrap();
    assert!(resp.starts_with("OK"), "{resp}");
    let resp = client.request("INSERT 1 1 1 true 0 <!--c-->").unwrap();
    assert!(resp.starts_with("OK"), "{resp}");
    let resp = client.request("INSERT 1 1 1 true 0 <?p d?>").unwrap();
    assert!(resp.starts_with("OK"), "{resp}");
    let before = client.request("GET 1 1 1 true").unwrap();
    let mut refused = 0;
    for test in ["text()", "comment()", "processing-instruction()"] {
        let found = client.request(&format!("QUERY 1 /{test} tree")).unwrap();
        let label = found.strip_prefix("OK 1 (").and_then(|l| l.strip_suffix(')')).unwrap_or_else(
            || panic!("/{test} must find the inserted node: {found}"),
        );
        let label = label.replace(',', " ");
        for fragment in ["<x/>", "t", "<!--c-->"] {
            let line = format!("INSERT 1 {label} 0 {fragment}");
            let resp = client.request(&line).unwrap();
            assert!(resp.starts_with("ERR") && resp.contains("non-element"), "{line} -> {resp}");
            assert_eq!(client.request("PING").unwrap(), "OK pong", "server wedged after {line}");
            refused += 1;
        }
    }
    assert_eq!(refused, 9);
    let after = client.request("GET 1 1 1 true").unwrap();
    assert_eq!(after, before, "a refused INSERT changed the tree");
    for engine in ENGINES {
        let resp = client.request(&format!("QUERY 1 //x {engine}")).unwrap();
        assert!(resp.starts_with("OK 0"), "{engine}: {resp}");
    }
    handle.stop();
}

#[test]
fn truncated_and_mangled_text_verbs_answer_err() {
    let (handle, mut client) = start();
    let probes: &[&str] = &[
        // Truncated label triples and arities.
        "PARENT",
        "PARENT 1",
        "PARENT 1 2",
        "PARENT 1 2 3",
        "GET 1 1",
        "GET 1 1 2",
        "DELETE 1 1",
        "INSERT 1 1 1 true",
        "INSERT 1 1 1 true 0",
        // Non-numeric and overlong label fields.
        "PARENT 1 x y z",
        "PARENT 1 1 1 maybe",
        "PARENT 1 184467440737095516150 1 false",
        "GET 1 -1 2 false",
        "INSERT 1 1 1 yes 0 <x/>",
        // Engine tokens that do not exist.
        "QUERY 1 //b dewey",
        "QUERY 1 //b INTERVALS",
        // LOADSTREAM: arity, then events the stream parser must refuse.
        "LOADSTREAM",
        "LOADSTREAM feed",
        "LOADSTREAM feed garbage",
        "LOADSTREAM feed 1:2",
        "LOADSTREAM feed a:b:c",
        "LOADSTREAM feed 4:1:a",
        "LOADSTREAM feed 1:6:a 2:5:b 3:7:c",
        "LOADSTREAM feed 1:4:a 5:8:b",
        "LOADSTREAM feed 1:4:=onlytext",
        "LOADSTREAM feed 1:4:a 2:3:9bad",
    ];
    for line in probes {
        let resp = client.request(line).unwrap();
        assert!(resp.starts_with("ERR"), "{line} -> {resp}");
        assert_eq!(client.request("PING").unwrap(), "OK pong", "server wedged after {line}");
    }
    // The document is still intact and queryable on every engine.
    for engine in ENGINES {
        let resp = client.request(&format!("QUERY 1 //c {engine}")).unwrap();
        assert!(resp.starts_with("OK 2"), "{engine}: {resp}");
    }
    handle.stop();
}

/// Sends raw bytes on a fresh connection (first byte 0xB1 routes it to
/// the binary mux), drains whatever comes back until the server closes
/// or stops answering, and returns. The caller then proves the server
/// survived via a text PING.
fn fire_raw(handle: &ServerHandle, bytes: &[u8]) {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    // A torn send is fine — the point is the server must not crash.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let mut sink = [0u8; 4096];
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

#[test]
fn corrupt_binary_frames_never_kill_the_server() {
    let (handle, mut client) = start();

    // Valid frames to mutate: every label-carrying verb plus LOADSTREAM,
    // with both new engine codes exercised through Query.
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let requests = vec![
        WireRequest::Parent { doc: 1, label: ruid_core::Ruid2::new(1, 2, false) },
        WireRequest::Get { doc: 1, label: ruid_core::Ruid2::new(1, 2, false) },
        WireRequest::Query {
            doc: 1,
            engine: ruid_service::proto::Engine::Interval,
            xpath: "//b".into(),
        },
        WireRequest::Query {
            doc: 1,
            engine: ruid_service::proto::Engine::Ancestry,
            xpath: "//b".into(),
        },
        WireRequest::LoadStream { name: "feed".into(), events: "1:4:a 2:3:b".into() },
    ];
    for request in &requests {
        let mut buf = Vec::new();
        wire::encode_request(7, request, &mut buf);
        seeds.push(buf);
    }

    for seed in &seeds {
        // Truncations at the interesting boundaries: mid-header, the
        // exact header edge, mid-id, the verb byte, mid-payload, and one
        // byte short of complete.
        for cut in [1, 3, 5, 9, 13, 14, seed.len() / 2, seed.len() - 1] {
            if cut < seed.len() {
                fire_raw(&handle, &seed[..cut]);
            }
        }
        // Declared length larger than the sent body (the reader must
        // wait, time out, and close — not index out of bounds).
        let mut long = seed.clone();
        long[1..5].copy_from_slice(&(u32::MAX - 7).to_le_bytes());
        fire_raw(&handle, &long);
        // Declared length smaller than the body: the decoder sees a
        // short frame followed by garbage "next frames".
        let mut short = seed.clone();
        short[1..5].copy_from_slice(&9u32.to_le_bytes());
        fire_raw(&handle, &short);
        // Flip the verb byte to an unassigned code.
        let mut bad_verb = seed.clone();
        bad_verb[HEADER_ID_END] = 0x7F;
        fire_raw(&handle, &bad_verb);
        // Saturate every payload byte (oversized engine codes, broken
        // UTF-8 lengths, absurd counts).
        let mut junk = seed.clone();
        for b in junk.iter_mut().skip(HEADER_ID_END + 1) {
            *b = 0xFF;
        }
        fire_raw(&handle, &junk);
        assert_eq!(client.request("PING").unwrap(), "OK pong", "server died mid-sweep");
    }

    // Targeted: LOADSTREAM frame whose name length field claims
    // u32::MAX with almost no bytes behind it.
    let mut frame = Vec::new();
    wire::encode_request(
        9,
        &WireRequest::LoadStream { name: "n".into(), events: "1:2:a".into() },
        &mut frame,
    );
    frame[HEADER_ID_END + 1..HEADER_ID_END + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    fire_raw(&handle, &frame);
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    // The catalog survived the whole sweep intact.
    let resp = client.request("QUERY 1 //c interval").unwrap();
    assert!(resp.starts_with("OK 2"), "{resp}");
    handle.stop();
}

/// Byte offset of the verb byte: magic (1) + length (4) + request id (8).
const HEADER_ID_END: usize = 13;
