//! How a mux worker waits, observed through its counters: after serving
//! it spins for a bounded time, then parks and stops spinning; and an
//! offloaded reply announces itself on the worker's wake channel instead
//! of waiting for the next re-check. No assertion here reads a clock.

use std::sync::Arc;
use std::time::Duration;

use ruid_service::{BinaryClient, Fault, FaultPlan, Server, ServerConfig, ServerHandle};
use testkit::{metrics_field, scrape, wait_until, Scratch, SAMPLE_XML};

const PARKS: &str = "ruid_mux_parks_total";
const CATCHES: &str = "ruid_mux_spin_catches_total";
const OUTBOX_WAKES: &str = "ruid_mux_outbox_wakes_total";

/// A server with its Prometheus endpoint on.
fn start(config: ServerConfig) -> ServerHandle {
    Server::start(ServerConfig { metrics_addr: Some("127.0.0.1:0".into()), ..config }).unwrap()
}

/// One unlabeled series of the exposition, scraped over the HTTP
/// endpoint (its own thread, off the mux, so reading moves no mux
/// counter).
fn prom_value(handle: &ServerHandle, name: &str) -> u64 {
    let (_, body) = scrape(handle.metrics_http_addr().unwrap());
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} in {body}"))
        .parse()
        .unwrap()
}

#[test]
fn an_idle_binary_connection_stops_spinning() {
    let handle = start(ServerConfig::default());
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();
    assert_eq!(binary.request("PING").unwrap(), "OK pong");

    // The connection is idle from here: its worker spins out `SPIN_MAX`
    // and parks, and once a park has timed out it parks without spinning.
    let parks = prom_value(&handle, PARKS);
    wait_until("three parks", Duration::from_secs(10), || {
        prom_value(&handle, PARKS) >= parks + 3
    });
    let catches = prom_value(&handle, CATCHES);
    let parks = prom_value(&handle, PARKS);
    wait_until("two more parks", Duration::from_secs(10), || {
        prom_value(&handle, PARKS) >= parks + 2
    });
    assert_eq!(prom_value(&handle, CATCHES), catches);

    // The parked connection still answers.
    assert_eq!(binary.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn offloaded_replies_wake_their_worker() {
    // Request 1, the binary QUERY below, stalls in its handler, so it is
    // offloaded like the LOAD before it.
    let plan = Arc::new(FaultPlan::new().inject(1, Fault::StallHandler { ms: 50 }));
    let handle = start(ServerConfig { fault_plan: Some(plan), ..ServerConfig::default() });
    let mut binary = BinaryClient::connect(handle.addr()).unwrap();

    let dir = Scratch::new("offload-wake");
    let loaded = binary.request(&format!("LOAD {}", dir.file("books.xml", SAMPLE_XML).display())).unwrap();
    assert!(loaded.starts_with("OK id="), "{loaded}");
    let id: u64 = metrics_field(&loaded, "id").unwrap().parse().unwrap();
    let answer = binary.query(id, "//book/title").unwrap();
    assert!(answer.starts_with("OK 2"), "{answer}");

    // Each offloaded reply announced itself on its worker's wake channel.
    wait_until("two outbox wakes", Duration::from_secs(10), || {
        prom_value(&handle, OUTBOX_WAKES) >= 2
    });
    assert_eq!(prom_value(&handle, OUTBOX_WAKES), 2);
    handle.stop();
}
