//! Chaos suite: every injected fault against a live server, asserting a
//! well-formed protocol error (or `BUSY`), unchanged catalog state, and
//! matching metrics counters.
//!
//! Faults come from [`FaultPlan`] — a deterministic request-index → fault
//! schedule that either side of the wire can carry — plus raw-socket
//! abuse for the cases a well-behaved client type cannot produce.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ruid_service::proto::Request;
use ruid_service::wire::{Decoded, WireResponse};
use ruid_service::{
    BinaryClient, Client, Fault, FaultPlan, Metrics, Server, ServerConfig, ServerHandle,
};
use testkit::{load_xml, wait_until, SAMPLE_XML};

fn metrics_of(handle: &ServerHandle) -> Arc<Metrics> {
    Arc::clone(handle.metrics())
}

#[test]
fn oversized_frame_is_rejected_and_connection_survives() {
    let config = ServerConfig { max_line_bytes: 256, ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), SAMPLE_XML);
    let mut client = Client::connect(handle.addr()).unwrap();

    let giant = format!("LOAD {}", "A".repeat(10_000));
    let resp = client.request(&giant).unwrap();
    assert_eq!(resp, "ERR line too long (limit 256 bytes)");

    // Same connection keeps serving: the framing layer resynchronized.
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    let resp = client.request(&format!("STATS {id}")).unwrap();
    assert!(resp.contains("nodes=11"), "catalog state disturbed: {resp}");

    let metrics = metrics_of(&handle);
    assert_eq!(metrics.oversized(), 1);
    assert_eq!(handle.catalog().len(), 1, "no phantom documents");

    // The cap is exact: a line of `max_line_bytes` is served, one byte
    // more is refused, and the connection survives both.
    let at_cap = format!("{}PING", " ".repeat(252));
    assert_eq!(at_cap.len(), 256);
    assert_eq!(client.request(&at_cap).unwrap(), "OK pong");
    let over_cap = format!(" {at_cap}");
    assert_eq!(client.request(&over_cap).unwrap(), "ERR line too long (limit 256 bytes)");
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    // An oversized line cut by EOF still gets its `ERR`, then the close.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[b'A'; 300]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert_eq!(reply, "ERR line too long (limit 256 bytes)\n");
    wait_until("oversized to tick at EOF", Duration::from_secs(5), || metrics.oversized() == 3);
    assert_eq!(metrics.torn(), 0, "an oversized line cut by EOF is not torn");
    handle.stop();
}

#[test]
fn empty_and_whitespace_lines_get_err_replies() {
    // Regression: empty/whitespace-only lines used to be silently
    // swallowed, desynchronizing pipelined clients. They must answer
    // `ERR` without closing the connection.
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"\n   \nPING\n").unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        lines.push(line.trim_end().to_owned());
    }
    assert_eq!(lines[0], "ERR empty request");
    assert_eq!(lines[1], "ERR empty request");
    assert_eq!(lines[2], "OK pong");

    // A trailing CR is stripped; invalid UTF-8 answers `ERR` and the next
    // line resynchronizes; a line dripped over many writes is answered
    // once its newline lands.
    stream.write_all(b"PING\r\n\xff\xfe\nPING\n").unwrap();
    for byte in b"PING\n" {
        std::thread::sleep(Duration::from_millis(5));
        stream.write_all(&[*byte]).unwrap();
    }
    for want in ["OK pong", "ERR invalid utf-8", "OK pong", "OK pong"] {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert_eq!(line, format!("{want}\n"));
    }
    handle.stop();
}

#[test]
fn idle_text_connection_closes_on_shutdown_from_another() {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    idle.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    idle.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");

    let mut other = Client::connect(handle.addr()).unwrap();
    assert_eq!(other.request("SHUTDOWN").unwrap(), "OK bye");
    // The idle connection sees a clean close, not a timeout.
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected bytes: {rest:?}");
    handle.join();
}

#[test]
fn a_client_that_never_reads_trips_the_write_deadline() {
    // Both protocols pipeline requests with large replies and never read
    // them: once the socket buffers fill, each connection's blocked write
    // must hit the write deadline and close, with its counter ticked.
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut text = TcpStream::connect(handle.addr()).unwrap();
    let mut binary = TcpStream::connect(handle.addr()).unwrap();
    let (mut lines, mut frames) = (Vec::new(), Vec::new());
    // ~13 KB per reply, 13 MB in all, outgrows the socket buffers of a
    // peer that never reads; the requests themselves stay small enough
    // to be accepted whole.
    for id in 0..1_000 {
        lines.extend_from_slice(b"METRICS prom\n");
        ruid_service::wire::encode_text(id, "METRICS prom", &mut frames);
    }
    text.write_all(&lines).unwrap();
    binary.write_all(&frames).unwrap();
    let metrics = metrics_of(&handle);
    wait_until("deadline_write to reach 2", Duration::from_secs(5), || {
        metrics.deadline_write() == 2
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn binary_stream_losing_frame_sync_counts_invalid() {
    // A bad magic byte mid-stream means frame sync is lost: the
    // connection closes, and the close is counted as an INVALID request
    // error like any other limit trip.
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut bytes = Vec::new();
    ruid_service::wire::encode_request(1, &Request::Ping, &mut bytes);
    bytes.push(0x00);
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&bytes).unwrap();
    // The PING before the bad byte is still answered, then the close.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    match ruid_service::wire::decode_response(&reply) {
        Decoded::Frame { frame, consumed } => {
            assert_eq!((frame.id, consumed), (1, reply.len()));
            assert_eq!(frame.response, WireResponse::Line("OK pong".into()));
        }
        other => panic!("expected the PING's answer, got {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).unwrap();
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains(" INVALID=1/1/"), "{metrics}");
    handle.stop();
}

#[test]
fn torn_client_write_leaves_state_consistent() {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), SAMPLE_XML);
    assert_eq!(handle.catalog().len(), 1);

    let plan = Arc::new(FaultPlan::new().inject(0, Fault::TornWrite { bytes: 5 }));
    let mut faulty = Client::connect_with_faults(handle.addr(), plan).unwrap();
    let err = faulty.request(&format!("UNLOAD {id}")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);

    let metrics = metrics_of(&handle);
    wait_until("the torn counter to tick", Duration::from_secs(5), || metrics.torn() == 1);
    // The half-written UNLOAD must not have executed.
    assert_eq!(handle.catalog().len(), 1, "torn request mutated the catalog");
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("LIST").unwrap();
    assert!(resp.starts_with("OK 1 "), "{resp}");
    handle.stop();
}

#[test]
fn slow_loris_write_trips_read_deadline() {
    let config = ServerConfig { read_timeout_ms: 200, ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::DelayMs { ms: 1_200 }));
    let mut faulty = Client::connect_with_faults(handle.addr(), plan).unwrap();
    faulty.set_timeout(Some(Duration::from_secs(5))).unwrap();

    // The server gives up mid-line; depending on timing the client either
    // reads the deadline error or finds the connection already severed.
    match faulty.request("PING") {
        Ok(resp) => assert!(
            resp.starts_with("ERR read deadline exceeded"),
            "unexpected response: {resp}"
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error: {e}"
        ),
    }
    let metrics = metrics_of(&handle);
    wait_until("deadline_read to tick", Duration::from_secs(5), || metrics.deadline_read() == 1);
    // Fresh connections are unaffected.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn early_eof_mid_session_is_harmless() {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), SAMPLE_XML);
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::EarlyEof));
    let mut faulty = Client::connect_with_faults(handle.addr(), plan).unwrap();
    assert_eq!(faulty.request("PING").unwrap(), "OK pong");
    let err = faulty.request(&format!("UNLOAD {id}")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);

    // A clean EOF between requests is not a torn request.
    let metrics = metrics_of(&handle);
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(metrics.torn(), 0);
    assert_eq!(handle.catalog().len(), 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.request("LIST").unwrap().starts_with("OK 1 "));
    handle.stop();
}

#[test]
fn queue_full_sheds_with_busy() {
    // One worker, one queue slot: the third simultaneous connection must
    // be answered BUSY by the acceptor, not parked.
    let config = ServerConfig { threads: 1, queue_cap: 1, ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();

    // Connection A occupies the single worker (round-trip proves it).
    let mut a = Client::connect(handle.addr()).unwrap();
    assert_eq!(a.request("PING").unwrap(), "OK pong");
    // Connection B fills the one queue slot.
    let b = TcpStream::connect(handle.addr()).unwrap();
    let metrics = metrics_of(&handle);
    // Wait until the acceptor actually queued B (connections counter).
    wait_until("B to be queued", Duration::from_secs(5), || metrics.shed() > 0 || {
        // Probe with one more connection; it is shed once B is queued.
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut response = String::new();
        c.read_to_string(&mut response).is_ok() && response.starts_with("BUSY")
    });
    assert!(metrics.shed() >= 1, "shed counter must account the refusal");

    // A still works; B gets served once A's connection closes.
    assert_eq!(a.request("PING").unwrap(), "OK pong");
    drop(a);
    let mut b_reader = std::io::BufReader::new(b.try_clone().unwrap());
    let mut bw = b;
    bw.write_all(b"PING\n").unwrap();
    bw.flush().unwrap();
    let mut line = String::new();
    std::io::BufRead::read_line(&mut b_reader, &mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong", "queued connection must be served");
    handle.stop();
}

#[test]
fn forced_busy_at_chosen_request_index() {
    let plan = Arc::new(FaultPlan::new().inject(2, Fault::ForceBusy));
    let config = ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    assert_eq!(client.request("PING").unwrap(), "BUSY", "request index 2 is shed");
    assert_eq!(client.request("PING").unwrap(), "OK pong", "BUSY is not sticky");

    let metrics = metrics_of(&handle);
    assert_eq!(metrics.shed(), 1);
    // The shed request was never executed, so only 3 PINGs are metered.
    assert_eq!(metrics.count_of(ruid_service::Command::Ping), 3);
    handle.stop();
}

#[test]
fn server_torn_write_truncates_response() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::TornWrite { bytes: 3 }));
    let config = ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"PING\n").unwrap();
    stream.flush().unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    assert_eq!(bytes, b"OK ", "exactly 3 bytes, then EOF");

    // The server itself is healthy; only that one response was torn.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn stall_trips_request_deadline() {
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::StallHandler { ms: 400 }));
    let config = ServerConfig {
        request_timeout_ms: 50,
        fault_plan: Some(plan),
        ..ServerConfig::default()
    };
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    assert_eq!(
        client.request("PING").unwrap(),
        "ERR request deadline exceeded (50 ms limit)"
    );
    assert_eq!(client.request("PING").unwrap(), "OK pong", "connection survives");

    let metrics = metrics_of(&handle);
    assert_eq!(metrics.deadline_request(), 1);
    handle.stop();
}

#[test]
fn delayed_server_response_hits_client_timeout() {
    let plan = Arc::new(FaultPlan::new().inject(0, Fault::DelayMs { ms: 600 }));
    let config = ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_millis(100))).unwrap();
    let err = client.request("PING").unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a read timeout, got {err}"
    );
    // The fault index was consumed; the next request is served normally.
    let mut fresh = Client::connect(handle.addr()).unwrap();
    assert_eq!(fresh.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn torn_binary_frame_ticks_torn_counter() {
    // The binary front end must account a half-written frame followed by
    // EOF exactly like the text framer accounts a newline-less line.
    let handle = Server::start(ServerConfig::default()).unwrap();
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), SAMPLE_XML);

    let plan = Arc::new(FaultPlan::new().inject(0, Fault::TornWrite { bytes: 8 }));
    let mut faulty = BinaryClient::connect_with_faults(handle.addr(), plan).unwrap();
    let err = faulty.send(&Request::Ping).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);

    let metrics = metrics_of(&handle);
    wait_until("the torn counter to tick", Duration::from_secs(5), || metrics.torn() == 1);
    assert_eq!(handle.catalog().len(), 1, "torn frame mutated the catalog");
    // Both front ends keep serving.
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    assert_eq!(binary.request("PING").unwrap(), "OK pong");
    let mut text = Client::connect(handle.addr()).unwrap();
    assert!(text.request(&format!("STATS {id}")).unwrap().contains("nodes=11"));
    handle.stop();
}

#[test]
fn oversized_binary_frame_is_rejected_from_the_header() {
    // `max_line_bytes` caps binary frame bodies too. The length field is
    // untrusted, so the server must reject from the header alone (no
    // allocation), answer an id-0 error frame, and close.
    let config = ServerConfig { max_line_bytes: 256, ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();

    let plan =
        Arc::new(FaultPlan::new().inject(0, Fault::OversizedFrame { declared: 10_000_000 }));
    let mut faulty = BinaryClient::connect_with_faults(handle.addr(), plan).unwrap();
    faulty.set_timeout(Some(Duration::from_secs(5))).unwrap();
    faulty.send(&Request::Ping).unwrap();

    let frame = faulty.recv().unwrap();
    assert_eq!(frame.id, 0, "connection-level errors carry id 0");
    assert_eq!(
        frame.response,
        WireResponse::Line(
            "ERR frame too large (10000000 bytes declared, limit 256)".to_owned()
        )
    );
    let err = faulty.recv().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "connection must close");

    let metrics = metrics_of(&handle);
    wait_until("the oversized counter to tick", Duration::from_secs(5), || {
        metrics.oversized() == 1
    });
    // Fresh connections are unaffected.
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    assert_eq!(binary.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn slow_binary_frame_trips_read_deadline() {
    // A frame, like a line, must complete within `read_timeout_ms` of its
    // first byte.
    let config = ServerConfig { read_timeout_ms: 200, ..ServerConfig::default() };
    let handle = Server::start(config).unwrap();

    let plan = Arc::new(FaultPlan::new().inject(0, Fault::DelayMs { ms: 1_200 }));
    let mut faulty = BinaryClient::connect_with_faults(handle.addr(), plan).unwrap();
    faulty.set_timeout(Some(Duration::from_secs(5))).unwrap();

    // The second half of the frame lands after the server gave up; the
    // client either reads the deadline error frame or finds the
    // connection severed, depending on timing.
    let outcome = faulty.send(&Request::Ping).and_then(|_| faulty.recv());
    match outcome {
        Ok(frame) => {
            assert_eq!(frame.id, 0);
            assert_eq!(
                frame.response,
                WireResponse::Line(
                    "ERR read deadline exceeded (200 ms to complete a frame)".to_owned()
                )
            );
        }
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected error: {e}"
        ),
    }
    let metrics = metrics_of(&handle);
    wait_until("deadline_read to tick", Duration::from_secs(5), || metrics.deadline_read() == 1);
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    assert_eq!(binary.request("PING").unwrap(), "OK pong");
    handle.stop();
}

/// A seeded storm of client-side faults: whatever the plan throws at the
/// server, the catalog must end exactly where it started and the torn
/// counter must equal the number of torn writes injected.
#[test]
fn randomized_fault_storm_keeps_catalog_consistent() {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let id = load_xml(&mut Client::connect(handle.addr()).unwrap(), SAMPLE_XML);
    let baseline = {
        let mut client = Client::connect(handle.addr()).unwrap();
        (client.request("LIST").unwrap(), client.request(&format!("STATS {id}")).unwrap())
    };

    const REQUESTS: u64 = 120;
    let menu = [
        Fault::TornWrite { bytes: 4 },
        Fault::EarlyEof,
        Fault::DelayMs { ms: 5 }, // well under the read deadline: must succeed
    ];
    let plan = FaultPlan::randomized(0xFA_17, REQUESTS, 0.35, &menu);
    assert!(!plan.is_empty());
    let torn_injected =
        plan.iter().filter(|(_, f)| matches!(f, Fault::TornWrite { .. })).count() as u64;

    let mut healthy = Client::connect(handle.addr()).unwrap();
    for index in 0..REQUESTS {
        // Read-only traffic: every request either succeeds or is killed
        // by its fault; none may mutate the catalog. (The STATS/LIST mix
        // keeps several command paths hot.)
        let request = match index % 3 {
            0 => "PING".to_owned(),
            1 => "LIST".to_owned(),
            _ => format!("STATS {id}"),
        };
        match plan.fault_at(index).cloned() {
            None => {
                let resp = healthy.request(&request).unwrap();
                assert!(resp.starts_with("OK"), "{request}: {resp}");
            }
            Some(fault) => {
                let one_shot = Arc::new(FaultPlan::new().inject(0, fault.clone()));
                let mut faulty =
                    Client::connect_with_faults(handle.addr(), one_shot).unwrap();
                match (fault, faulty.request(&request)) {
                    (Fault::DelayMs { .. }, outcome) => {
                        let resp = outcome.unwrap();
                        assert!(resp.starts_with("OK"), "{request}: {resp}");
                    }
                    (Fault::TornWrite { .. } | Fault::EarlyEof, outcome) => {
                        assert!(outcome.is_err(), "{request} should have been severed");
                    }
                    (fault, _) => panic!("unexpected fault in menu: {fault:?}"),
                }
            }
        }
    }

    let metrics = metrics_of(&handle);
    wait_until("the torn counter to match the injected torn writes", Duration::from_secs(5), || {
        metrics.torn() == torn_injected
    });
    assert_eq!(metrics.shed(), 0);
    assert_eq!(metrics.deadline_read(), 0);
    assert_eq!(metrics.deadline_request(), 0);
    assert_eq!(metrics.oversized(), 0);

    // The catalog is byte-for-byte where it started.
    assert_eq!(handle.catalog().len(), 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.request("LIST").unwrap(), baseline.0);
    assert_eq!(client.request(&format!("STATS {id}")).unwrap(), baseline.1);
    handle.stop();
}
