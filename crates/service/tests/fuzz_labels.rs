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

use ruid_service::proto::Request;
use ruid_service::wire::{self, WireResponse};
use ruid_service::{BinaryClient, ServerConfig, ServerHandle};
use testkit::{event_stream, load, load_xml, metrics_field, shapes, start, Scratch, Tags};
use xmlgen::SplitMix64;

/// The document every probe runs against, loaded as id 1.
const DOC: &str = "<a><b><c/><c/></b><b/></a>";

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
    let (handle, mut client) = start(ServerConfig::default());
    assert_eq!(load_xml(&mut client, DOC), 1);
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
    let (handle, mut client) = start(ServerConfig::default());
    assert_eq!(load_xml(&mut client, DOC), 1);
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
    let (handle, mut client) = start(ServerConfig::default());
    assert_eq!(load_xml(&mut client, DOC), 1);
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

/// One seeded defect in an event stream: a swapped bound, a dropped `:`,
/// a cut span (one event gone) or a stray `=text` leaf.
fn mutate(events: &str, rng: &mut SplitMix64) -> String {
    let mut tokens: Vec<String> = events.split(' ').map(str::to_owned).collect();
    let at = rng.gen_range(0..tokens.len());
    match rng.gen_range(0..4u64) {
        0 => {
            let mut parts: Vec<&str> = tokens[at].splitn(3, ':').collect();
            parts.swap(0, 1);
            tokens[at] = parts.join(":");
        }
        1 => {
            let colons: Vec<usize> = tokens[at].match_indices(':').map(|(i, _)| i).collect();
            let colon = colons[rng.gen_range(0..colons.len())];
            tokens[at].remove(colon);
        }
        2 => {
            tokens.remove(at);
        }
        _ => {
            let start = rng.gen_range(1..=2 * tokens.len() as u64 + 1);
            tokens.insert(at, format!("{start}:{start}:=stray"));
        }
    }
    tokens.join(" ")
}

/// A fixed-seed LOADSTREAM sweep over the event streams of all 197 kit
/// shapes, each sent as written and once mutated. Every line gets exactly
/// one `OK id=` or `ERR` (the `PING` after it answers next), and each
/// unmutated stream answers `//*` exactly as a `LOAD` of its XML does.
#[test]
fn seeded_loadstream_sweep_answers_in_kind() {
    let mut rng = SplitMix64::seed_from_u64(0x10AD_57EA);
    let (handle, mut client) = start(ServerConfig::default());
    let dir = Scratch::new("loadstream");
    let (mut accepted, mut refused) = (0, 0);
    for (i, xml) in shapes(Tags::ByDepth).enumerate() {
        let events = event_stream(&xml);
        let reply = client.request(&format!("LOADSTREAM s{i} {events}")).unwrap();
        let streamed = metrics_field(&reply, "id").unwrap_or_else(|| panic!("{events}: {reply}"));
        let loaded = load(&mut client, dir.file("shape.xml", &xml));
        assert_eq!(
            client.request(&format!("QUERY {streamed} //*")).unwrap(),
            client.request(&format!("QUERY {loaded} //*")).unwrap(),
            "{events} vs {xml}"
        );

        let mutant = mutate(&events, &mut rng);
        let reply = client.request(&format!("LOADSTREAM m{i} {mutant}")).unwrap();
        if reply.starts_with("OK id=") {
            accepted += 1;
        } else {
            assert!(reply.starts_with("ERR "), "{mutant} -> {reply}");
            refused += 1;
        }
        assert_eq!(client.request("PING").unwrap(), "OK pong", "after {mutant}");
    }
    assert!(accepted > 0 && refused > 0, "accepted {accepted}, refused {refused}");
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
    let (handle, mut client) = start(ServerConfig::default());
    assert_eq!(load_xml(&mut client, DOC), 1);

    // Valid frames to mutate: every label-carrying verb plus LOADSTREAM,
    // with both new engine codes exercised through Query.
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let requests = vec![
        Request::Parent { doc: 1, label: ruid_core::Ruid2::new(1, 2, false) },
        Request::Get { doc: 1, label: ruid_core::Ruid2::new(1, 2, false) },
        Request::Query {
            doc: 1,
            engine: ruid_service::proto::Engine::Interval,
            xpath: "//b".into(),
        },
        Request::Query {
            doc: 1,
            engine: ruid_service::proto::Engine::Ancestry,
            xpath: "//b".into(),
        },
        Request::LoadStream { name: "feed".into(), events: "1:4:a 2:3:b".into() },
        Request::MQuery { doc: 1, xpaths: vec!["//b".into(), "//c".into()] },
        Request::MLabel { doc: 1, xpaths: vec!["//c".into()] },
        Request::ReplHello { follower: "fuzz".into() },
        Request::ReplSnapshot { generation: 1 },
        Request::ReplTail { generation: 1, offset: 0, max_bytes: 4096 },
        Request::ReplAck { generation: 1, seq: 0, bye: false, follower: "fuzz".into() },
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
        &Request::LoadStream { name: "n".into(), events: "1:2:a".into() },
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

/// The replication and batch verbs with hostile arguments, on a server
/// without a data directory and on a leader with one: every probe gets
/// its answer (an `ERR`, a tail chunk, or a batch of the arity sent) and
/// the server keeps serving the catalog as before.
#[test]
fn hostile_repl_and_batch_arguments_answer_in_kind() {
    for durable in [false, true] {
        let dir = Scratch::new("hostile");
        let (handle, mut client) = start(ServerConfig {
            data_dir: durable.then(|| dir.join("data")),
            ..ServerConfig::default()
        });
        assert_eq!(load_xml(&mut client, DOC), 1);
        let before = client.request("QUERY 1 //c interval").unwrap();
        let tail = |generation, offset, max_bytes| Request::ReplTail {
            generation,
            offset,
            max_bytes,
        };
        let probes = vec![
            tail(u64::MAX, 0, 4096), // past the live generation
            tail(1, u64::MAX, 4096), // past the segment end
            tail(1, 0, 0),
            tail(1, 0, u32::MAX),
            Request::ReplSnapshot { generation: 999_999 },
            Request::MQuery { doc: 1, xpaths: Vec::new() },
            Request::MQuery { doc: 999, xpaths: vec!["//c".into(); wire::MAX_BATCH] },
        ];
        let mut binary = BinaryClient::connect(handle.addr()).unwrap();
        binary.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let responses = binary.pipeline(&probes).unwrap();
        for (probe, response) in probes.iter().zip(&responses) {
            match (probe, response) {
                (Request::MQuery { xpaths, .. }, WireResponse::Batch(lines)) => {
                    assert_eq!(lines.len(), xpaths.len(), "durable={durable}");
                    assert!(lines.iter().all(|l| l.starts_with("ERR no document")), "{lines:?}");
                }
                // Only a leader with a log ships chunks.
                (Request::ReplTail { .. }, WireResponse::Blob(_)) => assert!(durable),
                (_, WireResponse::Line(line)) => {
                    assert!(line.starts_with("ERR"), "durable={durable} {probe:?} -> {line}");
                }
                _ => panic!("durable={durable} {probe:?} -> {response:?}"),
            }
        }
        assert_eq!(client.request("PING").unwrap(), "OK pong");
        assert_eq!(client.request("QUERY 1 //c interval").unwrap(), before);
        handle.stop();
    }
}

/// Sends `bytes` as one text connection, half-closes it, and returns
/// everything the server answered before closing.
fn fire_text(handle: &ServerHandle, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    String::from_utf8(answer).unwrap()
}

/// A seeded sweep of raw text lines — embedded `\r`, `\0` and `0xFF`,
/// lengths around `max_line_bytes` — each batch on one connection: every
/// line gets exactly the one answer the line codec owes it, and `PING`
/// and the catalog answer as before after every batch.
#[test]
fn raw_text_bytes_answer_one_line_each() {
    const CAP: usize = 256;
    let (handle, mut client) =
        start(ServerConfig { max_line_bytes: CAP, ..ServerConfig::default() });
    assert_eq!(load_xml(&mut client, DOC), 1);
    let before = client.request("QUERY 1 //c interval").unwrap();
    let mut rng = SplitMix64::seed_from_u64(0x7E57_11E5);
    let palette = [b'\r', 0, 0xFF, b' ', b'P', b'1', 0xC3, 0xA9];
    for batch in 0..24 {
        // The first byte is ASCII so the connection is sniffed as text.
        let mut bytes = vec![b'x', b'\n'];
        let mut lines: Vec<Vec<u8>> = vec![b"x".to_vec()];
        for _ in 0..8 {
            let len = match rng.gen_range(0..4u64) {
                0 => CAP - 1 + rng.gen_range(0..3u64) as usize,
                1 => rng.gen_range(0..8u64) as usize,
                _ => rng.gen_range(0..(3 * CAP) as u64) as usize,
            };
            let line: Vec<u8> = (0..len)
                .map(|_| match rng.gen_range(0..3u64) {
                    0 => palette[rng.gen_range(0..palette.len() as u64) as usize],
                    _ => loop {
                        let b = rng.next_u64() as u8;
                        if b != b'\n' {
                            break b;
                        }
                    },
                })
                .collect();
            bytes.extend_from_slice(&line);
            bytes.push(b'\n');
            lines.push(line);
        }
        let answer = fire_text(&handle, &bytes);
        let answers: Vec<&str> = answer.lines().collect();
        assert_eq!(answers.len(), lines.len(), "batch {batch}: {answer:?}");
        for (line, got) in lines.iter().zip(&answers) {
            let stripped = line.strip_suffix(b"\r").unwrap_or(line);
            if line.len() > CAP {
                assert_eq!(*got, "ERR line too long (limit 256 bytes)", "batch {batch}");
            } else if std::str::from_utf8(stripped).is_err() {
                assert_eq!(*got, "ERR invalid utf-8", "batch {batch}");
            } else {
                assert!(got.starts_with("ERR") || got.starts_with("OK"), "{got}");
            }
        }
        assert_eq!(client.request("PING").unwrap(), "OK pong", "batch {batch}");
    }
    assert_eq!(client.request("QUERY 1 //c interval").unwrap(), before);
    handle.stop();
}
