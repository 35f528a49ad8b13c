//! Durability end-to-end: a server with a `--data-dir`, killed and
//! restarted, must answer the same queries from its recovered catalog.

use ruid_service::{Client, Server, ServerConfig};
use testkit::{load, start_durable, Scratch, SAMPLE_XML};

#[test]
fn restart_answers_the_same_queries() {
    let dir = Scratch::new("restart");
    let books = dir.file("books.xml", SAMPLE_XML);
    let site = dir.file("site.xml", "<site><open/><closed><a/></closed></site>");
    let data_dir = dir.join("data");

    let (handle, mut client) = start_durable(&data_dir);
    let books_id = load(&mut client, &books);
    let site_id = load(&mut client, &site);
    let dropped = load(&mut client, &site);
    assert!(client.request(&format!("UNLOAD {dropped}")).unwrap().starts_with("OK"));
    let query = format!("QUERY {books_id} //book[price > 25]/title");
    let before = client.request(&query).unwrap();
    assert!(before.starts_with("OK 1 "), "{before}");
    let site_query = format!("QUERY {site_id} //closed/a");
    let site_before = client.request(&site_query).unwrap();
    // Abrupt stop: no SHUTDOWN, no SNAPSHOT — the WAL alone carries it.
    handle.stop();

    let (handle, mut client) = start_durable(&data_dir);
    assert_eq!(client.request(&query).unwrap(), before);
    assert_eq!(client.request(&site_query).unwrap(), site_before);
    // The unloaded id stayed unloaded, and fresh ids don't reuse it.
    assert!(client
        .request(&format!("QUERY {dropped} //a"))
        .unwrap()
        .starts_with("ERR no document"));
    let next = load(&mut client, &site);
    assert!(next > dropped, "recovered id counter went backwards: {next}");
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("durability=on"), "{metrics}");
    assert!(metrics.contains("replayed="), "{metrics}");
    handle.stop();
}

/// Crash recovery rebuilds the path summary: planned queries (the QUERY
/// default) and EXPLAIN must answer byte-identically after an abrupt stop
/// and WAL replay, with the result cache starting cold.
#[test]
fn recovery_rebuilds_path_summary_for_planned_queries() {
    let dir = Scratch::new("planner-recovery");
    let books = dir.file("books.xml", SAMPLE_XML);
    let data_dir = dir.join("data");

    let (handle, mut client) = start_durable(&data_dir);
    let id = load(&mut client, &books);
    // The pre-crash oracle: planned answers for structural, containment
    // and predicate queries, and the plan EXPLAIN renders for them.
    let queries = [
        format!("QUERY {id} //book/title"),
        format!("QUERY {id} //catalog//title"),
        format!("QUERY {id} //book[price > 25]/title"),
        format!("LABEL {id} //book"),
    ];
    let oracle: Vec<String> =
        queries.iter().map(|q| client.request(q).unwrap()).collect();
    for answer in &oracle {
        assert!(answer.starts_with("OK "), "{answer}");
    }
    let explain_before = client.request(&format!("EXPLAIN {id} //book/title")).unwrap();
    assert!(explain_before.contains("scan"), "{explain_before}");
    // Abrupt stop: no SHUTDOWN, no SNAPSHOT — recovery replays the WAL and
    // must rebuild the in-memory path summary from the recovered DOM.
    handle.stop();

    let (handle, mut client) = start_durable(&data_dir);
    // The cache is in-memory only: before any query, the first
    // post-restart EXPLAIN sees a miss, but the plan itself
    // (summary-derived) is unchanged.
    let explain_after = client.request(&format!("EXPLAIN {id} //book/title")).unwrap();
    assert!(explain_after.contains("cache=miss"), "{explain_after}");
    for (query, before) in queries.iter().zip(&oracle) {
        assert_eq!(&client.request(query).unwrap(), before, "post-recovery {query}");
    }
    // Everything below the cache-status line (the rendered plan and its
    // cardinalities) must be byte-identical to the pre-crash rendering.
    let plan_of = |explain: &str| explain.split_once("\\n").unwrap().1.to_owned();
    assert_eq!(plan_of(&explain_after), plan_of(&explain_before), "recovered plan drifted");
    handle.stop();
}

#[test]
fn snapshot_then_restart_recovers_from_snapshot_plus_tail() {
    let dir = Scratch::new("snapshot");
    let sample = dir.file("s.xml", "<r><a/><b>t</b></r>");
    let other = dir.file("t.xml", "<q><w/></q>");
    let data_dir = dir.join("data");

    let (handle, mut client) = start_durable(&data_dir);
    let first = load(&mut client, &sample);
    let resp = client.request("SNAPSHOT").unwrap();
    assert!(resp.starts_with("OK generation=1 docs=1"), "{resp}");
    // Ops after the snapshot land in the rotated WAL segment.
    let second = load(&mut client, &other);
    assert!(client.request("PERSIST").unwrap().starts_with("OK records="), "{resp}");
    handle.stop();

    let (handle, mut client) = start_durable(&data_dir);
    assert!(client.request(&format!("QUERY {first} //a")).unwrap().starts_with("OK 1 "));
    assert!(client.request(&format!("QUERY {second} //w")).unwrap().starts_with("OK 1 "));
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("generation=1"), "{metrics}");
    // A second snapshot bumps the generation.
    assert!(client.request("SNAPSHOT").unwrap().starts_with("OK generation=2 docs=2"));
    handle.stop();
}

#[test]
fn snapshot_and_persist_require_a_data_dir() {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.request("SNAPSHOT").unwrap().starts_with("ERR durability disabled"));
    assert!(client.request("PERSIST").unwrap().starts_with("ERR durability disabled"));
    assert!(client.request("METRICS").unwrap().contains("durability=off"));
    handle.stop();
}

#[test]
fn corrupt_wal_tail_is_truncated_not_fatal() {
    let dir = Scratch::new("torn");
    let sample = dir.file("s.xml", "<r><a/></r>");
    let data_dir = dir.join("data");

    let (handle, mut client) = start_durable(&data_dir);
    let id = load(&mut client, &sample);
    load(&mut client, &sample);
    handle.stop();

    // Tear the last record of the only WAL segment mid-payload.
    let wal = data_dir.join("wal-00000000.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let (handle, mut client) = start_durable(&data_dir);
    // First load survives, the torn second one is gone.
    assert!(client.request(&format!("QUERY {id} //a")).unwrap().starts_with("OK 1 "));
    let list = client.request("LIST").unwrap();
    assert!(list.starts_with("OK 1 "), "{list}");
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("truncated_bytes="), "{metrics}");
    assert!(!metrics.contains("truncated_bytes=0 "), "{metrics}");
    handle.stop();
}

#[test]
fn corrupt_snapshot_quarantines_only_the_bad_document() {
    let dir = Scratch::new("quarantine");
    let good = dir.file("good.xml", "<g><ok/></g>");
    let bad = dir.file("bad.xml", "<b><broken/></b>");
    let data_dir = dir.join("data");

    let (handle, mut client) = start_durable(&data_dir);
    let good_id = load(&mut client, &good);
    let bad_id = load(&mut client, &bad);
    assert!(client.request("SNAPSHOT").unwrap().starts_with("OK generation=1"));
    handle.stop();

    // Flip a byte inside the second document's section: its CRC fails,
    // the first document's doesn't. The doc payload holds the XML text,
    // so target the tail of the file where doc 2 lives.
    let snap = data_dir.join("snapshot-00000001.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let pos = bytes
        .windows(6)
        .rposition(|w| w == b"broken")
        .expect("doc payload not found in snapshot");
    bytes[pos] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();

    let (handle, mut client) = start_durable(&data_dir);
    assert!(client.request(&format!("QUERY {good_id} //ok")).unwrap().starts_with("OK 1 "));
    assert!(client
        .request(&format!("QUERY {bad_id} //broken"))
        .unwrap()
        .starts_with("ERR no document"));
    let metrics = client.request("METRICS").unwrap();
    assert!(metrics.contains("quarantined=1"), "{metrics}");
    handle.stop();
}
