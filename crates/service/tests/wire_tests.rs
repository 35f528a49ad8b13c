//! Binary wire-protocol suite: property-style codec round-trips over a
//! seeded corpus, out-of-order pipelining under forced handler stalls,
//! text/binary byte-identity on one shared port, and the batch verbs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ruid_core::Ruid2;
use ruid_service::proto::Engine;
use ruid_service::wire::{
    self, Decoded, RequestFrame, ResponseFrame, WireRequest, WireResponse,
};
use ruid_service::{
    BinaryClient, Client, Command, Fault, FaultPlan, Server, ServerConfig, ServerHandle,
};
use xmlgen::SplitMix64;

/// The differential-test query corpus (mirrors `tests/planner_differential.rs`):
/// every axis/predicate family the planner distinguishes, over a/b/c trees.
const CORPUS: &[&str] = &[
    "/a",
    "/a/b",
    "/a/b/c",
    "//b",
    "//c",
    "//b/c",
    "//b//a",
    "/a//c",
    "//*",
    "/a/*",
    "//b/*",
    "/a/b[c]",
    "//b[c]/c",
    "//b[c]//a",
    "//b[not(c)]",
    "//b[c][a]",
    "//b[1]",
    "//b[last()]",
    "//b[c][1]",
    "//b/c/..",
    "//c/parent::b",
    "//b[count(c) >= 1]",
    "//a[b or c]",
];

/// A small a/b/c document exercising every corpus query shape: `b` nodes
/// with and without `c` children, nested `a` descendants, positional mixes.
const CORPUS_XML: &str = "<a><b><c/><c/><a/></b><b><c><a/></c></b><b/><c/><b><a/><c/></b></a>";

fn write_corpus() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ruid-wire-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.xml");
    std::fs::write(&path, CORPUS_XML).unwrap();
    path
}

fn start() -> ServerHandle {
    Server::start(ServerConfig::default()).unwrap()
}

fn load_corpus(handle: &ServerHandle) -> u64 {
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(&format!("LOAD {}", write_corpus().display())).unwrap();
    assert!(resp.starts_with("OK id="), "{resp}");
    resp.split_whitespace().find_map(|t| t.strip_prefix("id=")).unwrap().parse().unwrap()
}

fn wait_for(mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

// ---------------------------------------------------------------- codec --

fn random_xpath(rng: &mut SplitMix64) -> String {
    let menu = ["/a", "//b", "//b[c]/c", "/a/*", "//c/parent::b", "//b[count(c) >= 1]"];
    let mut xpath = String::new();
    for _ in 0..rng.gen_range(1..4usize) {
        xpath.push_str(menu[rng.gen_range(0..menu.len())]);
    }
    xpath
}

fn random_label(rng: &mut SplitMix64) -> Ruid2 {
    Ruid2::new(rng.gen_range(1..1_000u64), rng.gen_range(1..1_000u64), rng.gen_bool(0.1))
}

/// Every verb, random field content, seeded: the `i % 8` cycle guarantees
/// full verb coverage regardless of what the generator draws.
fn random_request(i: usize, rng: &mut SplitMix64) -> WireRequest {
    let doc = rng.gen_range(0..u64::MAX);
    match i % 8 {
        0 => WireRequest::Ping,
        1 => {
            let engine = match rng.gen_range(0..4u32) {
                0 => Engine::Planned,
                1 => Engine::Tree,
                2 => Engine::Ruid,
                _ => Engine::Indexed,
            };
            WireRequest::Query { doc, engine, xpath: random_xpath(rng) }
        }
        2 => WireRequest::Label { doc, xpath: random_xpath(rng) },
        3 => WireRequest::Parent { doc, label: random_label(rng) },
        4 => WireRequest::Get { doc, label: random_label(rng) },
        5 => {
            let n = rng.gen_range(0..9usize);
            WireRequest::MQuery { doc, xpaths: (0..n).map(|_| random_xpath(rng)).collect() }
        }
        6 => {
            let n = rng.gen_range(0..9usize);
            WireRequest::MLabel { doc, xpaths: (0..n).map(|_| random_xpath(rng)).collect() }
        }
        _ => WireRequest::Stats(rng.gen_range(0..100u64)),
    }
}

fn random_response(rng: &mut SplitMix64) -> WireResponse {
    if rng.gen_bool(0.5) {
        WireResponse::Line(format!("OK {} matches", rng.gen_range(0..10_000u64)))
    } else {
        let n = rng.gen_range(0..9usize);
        WireResponse::Batch((0..n).map(|k| format!("OK {k} matches")).collect())
    }
}

/// Property: for a seeded corpus covering every verb, `decode(encode(x))`
/// is the identity with exact `consumed` accounting, and *every* strict
/// prefix decodes to `Incomplete` — the codec never panics and never
/// misreads a truncated frame as anything else.
#[test]
fn codec_roundtrips_and_rejects_every_truncation() {
    let mut rng = SplitMix64::seed_from_u64(0xE16_C0DEC);
    for i in 0..256 {
        let id = rng.gen_range(0..u64::MAX);
        let request = random_request(i, &mut rng);
        let mut bytes = Vec::new();
        wire::encode_request(id, &request, &mut bytes);

        // Full buffer (plus trailing garbage) decodes to the same frame.
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"tail bytes of the next frame");
        match wire::decode_request(&padded, 1 << 20) {
            Decoded::Frame { frame, consumed } => {
                assert_eq!(consumed, bytes.len(), "consumed must not eat the tail");
                assert_eq!(frame, RequestFrame { id, request: request.clone() });
            }
            other => panic!("frame {i} failed to decode: {other:?}"),
        }
        // Truncation at every byte boundary is Incomplete, never a panic,
        // never a bogus frame.
        for cut in 0..bytes.len() {
            assert_eq!(
                wire::decode_request(&bytes[..cut], 1 << 20),
                Decoded::Incomplete,
                "frame {i} truncated at {cut}/{} must be Incomplete",
                bytes.len()
            );
        }
    }

    // Same property for the response direction.
    for _ in 0..128 {
        let id = rng.gen_range(0..u64::MAX);
        let response = random_response(&mut rng);
        let mut bytes = Vec::new();
        wire::encode_response(id, &response, &mut bytes);
        match wire::decode_response(&bytes) {
            Decoded::Frame { frame, consumed } => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(frame, ResponseFrame { id, response: response.clone() });
            }
            other => panic!("response failed to decode: {other:?}"),
        }
        for cut in 0..bytes.len() {
            assert_eq!(wire::decode_response(&bytes[..cut]), Decoded::Incomplete);
        }
    }
}

/// Seeded junk (wrong magic, corrupt bodies) must never panic the decoder:
/// every outcome is one of the typed `Decoded` variants.
#[test]
fn decoder_survives_seeded_junk() {
    let mut rng = SplitMix64::seed_from_u64(0xBAD_F00D);
    for _ in 0..512 {
        let len = rng.gen_range(0..64usize);
        let mut junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let _ = wire::decode_request(&junk, 4096);
        let _ = wire::decode_response(&junk);
        // Force the request magic so the header path runs too.
        if !junk.is_empty() {
            junk[0] = wire::REQ_MAGIC;
            let _ = wire::decode_request(&junk, 4096);
        }
    }
}

// ----------------------------------------------------------- pipelining --

/// The heart of the tentpole: with request 0 stalled in its handler, a
/// later cheap request on the same connection must overtake it — replies
/// arrive out of order, each carrying the id of the request it answers.
#[test]
fn pipelined_replies_interleave_out_of_order() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::StallHandler { ms: 400 }));
    let config = ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();

    let mut client = BinaryClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let stalled = client.send(&WireRequest::Ping).unwrap();
    let quick = client.send(&WireRequest::Ping).unwrap();
    assert_ne!(stalled, quick);
    client.flush().unwrap();

    let first = client.recv().unwrap();
    let second = client.recv().unwrap();
    assert_eq!(first.id, quick, "the unstalled request must answer first");
    assert_eq!(second.id, stalled, "the stalled request answers later, same id");
    for frame in [first, second] {
        assert_eq!(frame.response, WireResponse::Line("OK pong".to_owned()));
    }

    // `pipeline()` re-associates by id, so request order comes back even
    // though the wire order was inverted.
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::StallHandler { ms: 300 }));
    let config = ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() };
    let handle2 = Server::start(config).unwrap();
    let mut client2 = BinaryClient::connect(handle2.addr()).unwrap();
    client2.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let responses = client2
        .pipeline(&[
            WireRequest::Ping,
            WireRequest::List,
            WireRequest::Ping,
        ])
        .unwrap();
    assert_eq!(responses[0], WireResponse::Line("OK pong".to_owned()));
    assert_eq!(responses[1], WireResponse::Line("OK 0".to_owned()));
    assert_eq!(responses[2], WireResponse::Line("OK pong".to_owned()));

    handle.stop();
    handle2.stop();
}

/// Pipeline-depth accounting: frames decoded per reader pass land in the
/// `ruid_pipeline_depth` histogram.
#[test]
fn pipeline_depth_is_recorded() {
    let handle = start();
    let mut client = BinaryClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let requests: Vec<WireRequest> = (0..16).map(|_| WireRequest::Ping).collect();
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), 16);
    let metrics = Arc::clone(handle.metrics());
    assert!(
        wait_for(|| metrics.pipeline_depth().total() >= 1
            && metrics.pipeline_depth().sum() >= 16),
        "pipeline depth histogram never accounted the burst"
    );
    handle.stop();
}

// -------------------------------------------------- protocol coexistence --

/// One port, both protocols, byte-identical answers: for every corpus
/// query the text line, the binary `Text` verb, the native binary `QUERY`
/// and the `MQUERY` batch must return the exact same response string.
#[test]
fn text_and_binary_clients_share_a_port_byte_identically() {
    let handle = start();
    let doc = load_corpus(&handle);

    let mut text = Client::connect(handle.addr()).unwrap();
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    binary.set_timeout(Some(Duration::from_secs(5))).unwrap();

    let batch = binary.mquery(doc, CORPUS).unwrap();
    assert_eq!(batch.len(), CORPUS.len());
    for (i, xpath) in CORPUS.iter().enumerate() {
        let via_text = text.request(&format!("QUERY {doc} {xpath}")).unwrap();
        let via_compat = binary.request(&format!("QUERY {doc} {xpath}")).unwrap();
        let via_native = binary.query(doc, xpath).unwrap();
        assert!(via_text.starts_with("OK "), "{xpath}: {via_text}");
        assert_eq!(via_compat, via_text, "Text verb differs for {xpath}");
        assert_eq!(via_native, via_text, "binary QUERY differs for {xpath}");
        assert_eq!(batch[i], via_text, "MQUERY line differs for {xpath}");
    }

    // Both protocols were accounted on their own counters.
    let metrics = Arc::clone(handle.metrics());
    let [text_n, binary_n] = metrics.protocol_requests();
    assert!(text_n >= CORPUS.len() as u64, "text counter: {text_n}");
    assert!(binary_n > 2 * CORPUS.len() as u64, "binary counter: {binary_n}");
    handle.stop();
}

/// `MLABEL` equals N single `LABEL`s, and `MQUERY` on a missing document
/// answers one well-formed error line per sub-query instead of tearing
/// down the batch.
#[test]
fn batch_verbs_match_single_requests() {
    let handle = start();
    let doc = load_corpus(&handle);

    let mut text = Client::connect(handle.addr()).unwrap();
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    binary.set_timeout(Some(Duration::from_secs(5))).unwrap();

    let labels = binary.mlabel(doc, CORPUS).unwrap();
    for (i, xpath) in CORPUS.iter().enumerate() {
        let single = text.request(&format!("LABEL {doc} {xpath}")).unwrap();
        assert_eq!(labels[i], single, "MLABEL line differs for {xpath}");
    }

    let missing = binary.mquery(doc + 999, &["/a", "//b"]).unwrap();
    assert_eq!(missing.len(), 2);
    for line in &missing {
        assert!(line.starts_with("ERR "), "missing doc must ERR per line: {line}");
    }

    // Batch sizes landed in the histogram (23-query batch ⇒ sum ≥ 23).
    let metrics = Arc::clone(handle.metrics());
    assert!(metrics.batch_size().total() >= 2);
    assert!(metrics.batch_size().sum() >= CORPUS.len() as u64 + 2);

    // Oversized batches are rejected as malformed, connection intact.
    let too_many: Vec<String> = (0..=wire::MAX_BATCH).map(|i| format!("/a{i}")).collect();
    let id = binary.send(&WireRequest::MQuery { doc, xpaths: too_many }).unwrap();
    binary.flush().unwrap();
    let frame = binary.recv().unwrap();
    assert_eq!(frame.id, id);
    match frame.response {
        WireResponse::Line(line) => assert!(line.starts_with("ERR "), "{line}"),
        other => panic!("expected an error line, got {other:?}"),
    }
    assert_eq!(binary.request("PING").unwrap(), "OK pong", "connection survives");
    handle.stop();
}

/// A binary `SHUTDOWN` (via the compatibility verb) must answer before the
/// listener dies — the mux flushes its outbox on the way down.
#[test]
fn binary_shutdown_answers_then_stops() {
    let handle = start();
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    binary.set_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(binary.request("SHUTDOWN").unwrap(), "OK bye");
    handle.join();
}

// ------------------------------------------------------------ accounting --

/// One failing request raises its command's `ruid_request_errors_total`
/// by exactly one whichever way it arrives — a text line, its dedicated
/// binary verb, a line inside a TEXT frame — and so does a batch whose
/// sub-queries fail and a replication verb the server cannot serve.
#[test]
fn every_front_end_counts_one_error_per_failing_request() {
    let handle = start();
    let metrics = Arc::clone(handle.metrics());
    let errors = |command: Command| {
        metrics
            .command_summaries()
            .into_iter()
            .find(|s| s.command == command)
            .map_or(0, |s| s.errors)
    };
    let mut text = Client::connect(handle.addr()).unwrap();
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    binary.set_timeout(Some(Duration::from_secs(5))).unwrap();

    let missing = "QUERY 999 //a";
    let before = errors(Command::Query);
    assert!(text.request(missing).unwrap().starts_with("ERR "));
    assert_eq!(errors(Command::Query), before + 1, "text line");
    assert!(binary.query(999, "//a").unwrap().starts_with("ERR "));
    assert_eq!(errors(Command::Query), before + 2, "binary QUERY verb");
    assert!(binary.request(missing).unwrap().starts_with("ERR "));
    assert_eq!(errors(Command::Query), before + 3, "TEXT frame");

    let before = errors(Command::MQuery);
    let lines = binary.mquery(999, &["//a", "//b"]).unwrap();
    assert!(lines.iter().all(|line| line.starts_with("ERR ")), "{lines:?}");
    assert_eq!(errors(Command::MQuery), before + 1, "MQUERY on a missing document");

    let before = errors(Command::ReplTail);
    let tail = WireRequest::ReplTail { generation: 1, offset: 0, max_bytes: 4096 };
    match &binary.pipeline(&[tail]).unwrap()[0] {
        WireResponse::Line(line) => assert!(line.starts_with("ERR "), "{line}"),
        other => panic!("REPL TAIL without durability answered {other:?}"),
    }
    assert_eq!(errors(Command::ReplTail), before + 1, "REPL TAIL without --data-dir");
    handle.stop();
}

/// A binary request's slowlog line is its canonical text line, so it can
/// be replayed as a request: the engine shows as its `QUERY` keyword.
#[test]
fn binary_slowlog_line_replays_as_a_request() {
    let handle = start();
    let doc = load_corpus(&handle);
    assert_eq!(doc, 1);
    let mut text = Client::connect(handle.addr()).unwrap();
    assert!(text.request("TRACE 0").unwrap().contains("trace=on"));
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    binary.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let query = WireRequest::Query { doc, engine: Engine::Tree, xpath: "//b".into() };
    match &binary.pipeline(&[query]).unwrap()[0] {
        WireResponse::Line(line) => assert!(line.starts_with("OK "), "{line}"),
        other => panic!("QUERY answered {other:?}"),
    }
    let log = text.request("SLOWLOG 1").unwrap();
    assert!(log.contains("cmd=QUERY"), "{log}");
    assert!(log.ends_with(" line=QUERY 1 //b tree"), "{log}");
    handle.stop();
}
