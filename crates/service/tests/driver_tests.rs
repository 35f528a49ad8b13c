//! One driver for both protocols: a text connection is drained by the
//! mux workers like a binary one, so it holds no thread of its own, and
//! its requests that block run on the offload pool while its answers
//! stay in request order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ruid_service::{Client, Fault, FaultPlan, ServerConfig};
use testkit::{start, Scratch, SAMPLE_XML};

#[test]
fn open_text_connections_do_not_hold_pool_threads() {
    // One pool thread: a driver that gave each text connection a thread
    // would leave the second client waiting for the first to close.
    let config = ServerConfig { threads: 1, queue_cap: 1, ..ServerConfig::default() };
    let (handle, mut first) = start(config);
    assert_eq!(first.request("PING").unwrap(), "OK pong");
    let mut second = Client::connect(handle.addr()).unwrap();
    second.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(second.request("PING").unwrap(), "OK pong");
    assert_eq!(first.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn a_text_burst_answers_in_request_order() {
    // Request 1, the QUERY, stalls in its handler, so it is offloaded
    // like the LOAD before it; the PING after both runs inline.
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::StallHandler { ms: 50 }));
    let (handle, _) = start(ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() });
    let dir = Scratch::new("text-burst");
    let path = dir.file("books.xml", SAMPLE_XML);

    // One write: the QUERY names the id the LOAD is about to draw, so it
    // answers only if it is decoded after the LOAD has committed.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let burst = format!("LOAD {}\nQUERY 1 //book/title\nPING\n", path.display());
    stream.write_all(burst.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        answers.push(line.trim_end().to_owned());
    }
    assert!(answers[0].starts_with("OK id=1 "), "{answers:?}");
    assert!(answers[1].starts_with("OK 2 "), "{answers:?}");
    assert_eq!(answers[2], "OK pong", "{answers:?}");
    handle.stop();
}
