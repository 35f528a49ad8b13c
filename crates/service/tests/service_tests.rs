//! End-to-end protocol tests: a real server on a loopback port, a real
//! client, every command exercised over the wire.

use ruid_service::{Client, ServerConfig};
use testkit::{load_xml, start, SAMPLE_XML};

#[test]
fn ping_and_unknown() {
    let (handle, mut client) = start(ServerConfig::default());
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    assert!(client.request("FROB 1").unwrap().starts_with("ERR unknown command"));
    assert!(client.request("LOAD").unwrap().starts_with("ERR usage:"));
    handle.stop();
}

#[test]
fn full_session_load_query_scan_stats() {
    let (handle, mut client) = start(ServerConfig::default());

    let id = load_xml(&mut client, SAMPLE_XML);

    // LIST shows it.
    let resp = client.request("LIST").unwrap();
    assert!(resp.starts_with("OK 1 "), "{resp}");
    assert!(resp.contains(&format!("{id}=")), "{resp}");

    // QUERY on every engine returns the same two books.
    let mut answers = Vec::new();
    for engine in ["tree", "ruid", "indexed"] {
        let resp = client.request(&format!("QUERY {id} //book {engine}")).unwrap();
        assert!(resp.starts_with("OK 2 "), "engine {engine}: {resp}");
        answers.push(resp);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "engines disagree: {answers:?}");

    // Predicate query with spaces in the XPath.
    let resp = client.request(&format!("QUERY {id} //book[price > 25]/title")).unwrap();
    assert!(resp.starts_with("OK 1 "), "{resp}");

    // LABEL matches QUERY's labels.
    let labels = client.request(&format!("LABEL {id} //book")).unwrap();
    assert_eq!(labels, answers[0]);

    // PARENT of the tree root is none; of anything else, resolvable.
    assert_eq!(client.request(&format!("PARENT {id} 1 1 true")).unwrap(), "OK none");
    let first_book = answers[0].split_whitespace().nth(2).unwrap().to_owned();
    let inner = first_book.trim_start_matches('(').trim_end_matches(')');
    let parts: Vec<&str> = inner.split(',').collect();
    let resp = client
        .request(&format!("PARENT {id} {} {} {}", parts[0], parts[1], parts[2]))
        .unwrap();
    assert!(resp.starts_with("OK ("), "{resp}");

    // GET the root subtree.
    let resp = client.request(&format!("GET {id} 1 1 true")).unwrap();
    assert!(resp.contains("<catalog>") && resp.contains("</catalog>"), "{resp}");

    // SCAN area 1 returns rows.
    let resp = client.request(&format!("SCAN {id} 1")).unwrap();
    assert!(resp.starts_with("OK "), "{resp}");
    let count: usize = resp.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(count > 0, "{resp}");
    assert!(resp.contains("#elem#catalog"), "{resp}");

    // STATS reports the tree shape.
    let resp = client.request(&format!("STATS {id}")).unwrap();
    assert!(resp.contains("nodes=11"), "{resp}");
    assert!(resp.contains("elements=7"), "{resp}");

    // METRICS accounts for everything issued so far on this connection.
    let resp = client.request("METRICS").unwrap();
    assert!(resp.contains("connections="), "{resp}");
    assert!(resp.contains("QUERY=4/0/"), "{resp}");
    assert!(resp.contains("LOAD=1/0/"), "{resp}");

    // UNLOAD, then the document is gone.
    assert_eq!(client.request(&format!("UNLOAD {id}")).unwrap(), format!("OK unloaded {id}"));
    assert!(client.request(&format!("STATS {id}")).unwrap().starts_with("ERR no document"));

    handle.stop();
}

#[test]
fn errors_do_not_kill_the_connection() {
    let (handle, mut client) = start(ServerConfig::default());
    assert!(client.request("STATS 999").unwrap().starts_with("ERR"));
    assert!(client.request("LOAD /nonexistent/never.xml").unwrap().starts_with("ERR"));
    assert!(client.request("QUERY 1 //a warp").unwrap().starts_with("ERR"));
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    handle.stop();
}

#[test]
fn shutdown_command_stops_the_server() {
    let (handle, mut client) = start(ServerConfig::default());
    load_xml(&mut client, SAMPLE_XML);
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK bye");
    handle.join();
    // New connections are refused or dropped without a response.
    match Client::connect(handle_addr_after_join()) {
        Ok(_) | Err(_) => {} // nothing to assert: the listener is gone
    }
}

// After join() consumed the handle we cannot ask it for the address; bind
// a throwaway listener just to have a dead port to poke.
fn handle_addr_after_join() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

#[test]
fn several_documents_across_shards() {
    let (handle, mut client) = start(ServerConfig::default());
    let mut ids = Vec::new();
    for i in 0..5 {
        ids.push(load_xml(&mut client, &format!("<root><x n=\"{i}\"/><y/></root>")));
    }
    for &id in &ids {
        let resp = client.request(&format!("QUERY {id} //x")).unwrap();
        assert!(resp.starts_with("OK 1 "), "doc {id}: {resp}");
    }
    let resp = client.request("LIST").unwrap();
    assert!(resp.starts_with("OK 5 "), "{resp}");
    handle.stop();
}
