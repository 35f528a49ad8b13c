//! `kill -9` smokes of the real `ruid-xml serve` process: `Child::kill`
//! is a SIGKILL, so no destructor, SHUTDOWN or final snapshot runs, and
//! what comes back is only what the data directory held.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ruid::Client;
use testkit::{metrics_field, scrape, wait_until, Scratch, SAMPLE_XML};

/// A `ruid-xml serve` child on the addresses its startup banner names.
/// Dropping it is the `kill -9`, and reaps it: a failed test leaves none.
struct Served {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
    metrics: Option<SocketAddr>,
}

impl Served {
    fn start(args: &[&str]) -> Served {
        let mut command = Command::new(env!("CARGO_BIN_EXE_ruid-xml"));
        command.args(["serve", "--addr", "127.0.0.1:0"]).args(args).stdout(Stdio::null()).stderr(Stdio::piped());
        let mut child = command.spawn().expect("spawn ruid-xml serve");
        // Drained for the child's whole life, so it never blocks on a full pipe.
        let stderr = BufReader::new(child.stderr.take().unwrap());
        let (tx, banner) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || stderr.lines().map_while(Result::ok).for_each(|l| drop(tx.send(l))));
        let mut served = Served { child, drain: Some(drain), addr: ([127, 0, 0, 1], 0).into(), metrics: None };
        while served.addr.port() == 0 || (args.contains(&"--metrics-addr") && served.metrics.is_none()) {
            let line = banner.recv_timeout(Duration::from_secs(30)).expect("the serve banner");
            if let Some(addr) = line.strip_prefix("ruid-service listening on ") {
                served.addr = addr.parse().unwrap();
            } else if let Some(url) = line.strip_prefix("prometheus metrics on http://") {
                served.metrics = Some(url.trim_end_matches("/metrics").parse().unwrap());
            }
        }
        served
    }

    fn ask(&self, line: &str) -> String {
        Client::connect(self.addr).unwrap().request(line).unwrap()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The child's stderr has closed, so its drain has ended.
        self.drain.take().map(std::thread::JoinHandle::join);
    }
}

/// Restarted on its data directory, a killed server serves the
/// byte-identical answer and plan, having replayed the one LOAD.
#[test]
fn kill_9_then_restart_serves_the_same_answer_and_plan() {
    let dir = Scratch::new("recovery");
    let load = format!("LOAD {}", dir.file("sample.xml", SAMPLE_XML).display());
    let data = dir.join("data");
    let durable = ["--data-dir", data.to_str().unwrap(), "--fsync", "always"];
    // The plan below its `cache= generation=` line.
    let plan = |s: &Served| s.ask("EXPLAIN 1 //book/title").split_once("\\n").unwrap().1.to_owned();
    let server = Served::start(&durable);
    assert!(server.ask(&load).starts_with("OK id=1"));
    let (answer, before) = (server.ask("QUERY 1 //book/title"), plan(&server));
    drop(server);

    let server = Served::start(&durable);
    assert_eq!((server.ask("QUERY 1 //book/title"), plan(&server)), (answer, before));
    let m = server.ask("METRICS");
    let counters = ["durability", "replayed", "truncated_bytes", "quarantined"].map(|k| metrics_field(&m, k).unwrap());
    assert_eq!(counters, ["on", "1", "0", "0"], "{m}");
}

/// A killed follower recovers the shipped image from its own directory;
/// with the leader killed, it is promoted, serves the leader's answer
/// byte for byte, and takes writes.
#[test]
fn kill_9_of_follower_then_leader_fails_over_to_the_follower() {
    let dir = Scratch::new("failover");
    let load = format!("LOAD {}", dir.file("sample.xml", SAMPLE_XML).display());
    let (leader_dir, follower_dir) = (dir.join("leader"), dir.join("follower"));
    let leader = Served::start(&["--data-dir", leader_dir.to_str().unwrap(), "--fsync", "always"]);
    assert!(leader.ask(&load).starts_with("OK id=1"));
    // The follower bootstraps from this image, not from an empty chain.
    assert!(leader.ask("SNAPSHOT").starts_with("OK"));
    let answer = leader.ask("QUERY 1 //book/title");
    let (leader_addr, follower_dir) = (leader.addr.to_string(), follower_dir.to_str().unwrap());
    let follow = || {
        Served::start(&["--data-dir", follower_dir, "--fsync", "always", "--follow", &leader_addr, "--repl-poll-ms", "10", "--metrics-addr", "127.0.0.1:0"])
    };
    let until = |what, f: &dyn Fn() -> bool| wait_until(what, Duration::from_secs(30), f);

    let follower = follow();
    until("the follower's answer", &|| follower.ask("QUERY 1 //book/title") == answer);
    // It installs the shipped image, then persists it as its own snapshot.
    until("the follower's snapshot", &|| metrics_field(&follower.ask("METRICS"), "snapshots").as_deref() == Some("1"));
    drop(follower);

    let follower = follow();
    assert_eq!(metrics_field(&follower.ask("METRICS"), "recovered_docs").as_deref(), Some("1"));
    until("the restarted follower's answer", &|| follower.ask("QUERY 1 //book/title") == answer);
    let (_, body) = scrape(follower.metrics.unwrap());
    for family in ["ruid_repl_role{role=\"follower\"} 1", "ruid_repl_lag_seconds", "ruid_repl_records_applied_total"] {
        assert!(body.contains(family), "{family}: {body}");
    }

    drop(leader);
    assert_eq!(follower.ask("PROMOTE"), "OK role=leader promoted=true");
    assert_eq!(follower.ask("QUERY 1 //book/title"), answer);
    assert!(follower.ask(&load).starts_with("OK id="));
}
