//! WAL-shipping replication end to end: follower bootstrap + tail,
//! read-only serving, forged-stream refusal, clean detach, and the
//! kill-the-leader failover sweep.
//!
//! The consistency claim under test is the paper's label-determinism:
//! rUID labels and table K are pure functions of the mutation history,
//! so a follower that replays the shipped WAL prefix must answer every
//! query **byte-identically** to a single-node server that executed the
//! same prefix. The sweep kills the leader at varying points, promotes
//! the follower, and asserts the promoted replica's answers over the
//! differential corpus equal one of the prefix oracles — never a hybrid
//! state that no single-node execution could have produced.

use std::time::Duration;

use ruid_core::Ruid2;
use ruid_service::{Client, Server, ServerConfig, ServerHandle};
use schemes::NumberingScheme;
use testkit::{
    corpus_xml, durable, metrics_field, start_durable, start_follower, wait_until, Scratch,
    ABC_QUERIES,
};

/// The answer vector one server gives over the corpus for both document
/// ids — including `ERR no document` for ids the prefix never loaded, so
/// two vectors match only when the catalogs agree exactly.
fn answer_vector(client: &mut Client) -> Vec<String> {
    let mut answers = Vec::new();
    for doc in [1u64, 2] {
        for xpath in ABC_QUERIES {
            answers.push(client.request(&format!("QUERY {doc} {xpath}")).unwrap());
        }
    }
    answers
}

/// First element named `name` in `doc`, as its current rUID label.
fn label_of_first(handle: &ServerHandle, doc: u64, name: &str) -> Ruid2 {
    let loaded = handle.catalog().get(doc).unwrap();
    let root = loaded.doc.root_element().unwrap();
    let node = std::iter::once(root)
        .chain(loaded.doc.descendants(root))
        .find(|&n| loaded.doc.tag_name(n) == Some(name))
        .unwrap_or_else(|| panic!("no <{name}> element in document {doc}"));
    loaded.scheme.label_of(node)
}

/// Builds the deterministic write-op script by running it once against a
/// throwaway single-node server (labels are functions of the mutation
/// history, so the recorded lines replay identically everywhere).
fn record_ops(corpus_path: &str, site_path: &str) -> Vec<String> {
    let handle = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut ops: Vec<String> = Vec::new();
    let apply = |handle: &ServerHandle, ops: &mut Vec<String>, line: String| {
        let resp = Client::connect(handle.addr()).unwrap().request(&line).unwrap();
        assert!(resp.starts_with("OK"), "recorder rejected {line}: {resp}");
        ops.push(line);
    };
    apply(&handle, &mut ops, format!("LOAD {corpus_path}"));
    let root = label_of_first(&handle, 1, "a");
    apply(
        &handle,
        &mut ops,
        format!(
            "INSERT 1 {} {} {} 0 <b/>",
            root.global, root.local, root.is_root
        ),
    );
    let victim = label_of_first(&handle, 1, "c");
    apply(
        &handle,
        &mut ops,
        format!("DELETE 1 {} {} {}", victim.global, victim.local, victim.is_root),
    );
    apply(&handle, &mut ops, format!("LOAD {site_path}"));
    let site_root = label_of_first(&handle, 2, "a");
    apply(
        &handle,
        &mut ops,
        format!(
            "INSERT 2 {} {} {} 1 <y k=\"fo\"/>",
            site_root.global, site_root.local, site_root.is_root
        ),
    );
    apply(&handle, &mut ops, "RELABEL 1".to_string());
    let _ = client.request("SHUTDOWN");
    handle.join();
    ops
}

/// Answer vectors of a fresh single-node server after each op prefix:
/// `oracles[p]` is the state after `ops[..p]`.
fn prefix_oracles(ops: &[String]) -> Vec<Vec<String>> {
    let mut oracles = Vec::with_capacity(ops.len() + 1);
    for p in 0..=ops.len() {
        let handle = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for line in &ops[..p] {
            let resp = client.request(line).unwrap();
            assert!(resp.starts_with("OK"), "oracle prefix {p} rejected {line}: {resp}");
        }
        oracles.push(answer_vector(&mut client));
        handle.stop();
    }
    oracles
}

#[test]
fn follower_serves_reads_and_rejects_writes() {
    let dir = Scratch::new("read-replica");
    let corpus = dir.file("corpus.xml", corpus_xml());

    let (leader, mut lc) = start_durable(&dir.join("leader"));
    let resp = lc.request(&format!("LOAD {}", corpus.display())).unwrap();
    assert!(resp.starts_with("OK id=1"), "{resp}");
    let root = label_of_first(&leader, 1, "a");
    let insert =
        format!("INSERT 1 {} {} {} 0 <b/>", root.global, root.local, root.is_root);
    assert!(lc.request(&insert).unwrap().starts_with("OK"), "{insert}");

    let (follower, mut fc) = start_follower(leader.addr(), None, 5);
    let want = answer_vector(&mut lc);
    wait_until("follower catch-up", Duration::from_secs(10), || {
        answer_vector(&mut Client::connect(follower.addr()).unwrap()) == want
    });

    // Reads are served locally and byte-identically; writes bounce with
    // a redirect to the leader.
    assert_eq!(answer_vector(&mut fc), want);
    for write in [
        format!("LOAD {}", corpus.display()),
        insert.clone(),
        "UNLOAD 1".to_string(),
        "RELABEL 1".to_string(),
    ] {
        let resp = fc.request(&write).unwrap();
        assert!(resp.starts_with("ERR read-only replica"), "{write} -> {resp}");
        assert!(resp.contains(&leader.addr().to_string()), "redirect names the leader: {resp}");
    }

    // Role and lag are visible on both sides, and the leader sees the
    // attached follower through its acks.
    let fm = fc.request("METRICS").unwrap();
    assert_eq!(metrics_field(&fm, "repl_role").as_deref(), Some("follower"), "{fm}");
    assert_eq!(metrics_field(&fm, "repl_lag_records").as_deref(), Some("0"), "{fm}");
    assert!(metrics_field(&fm, "repl_applied").unwrap().parse::<u64>().unwrap() >= 2, "{fm}");
    assert_eq!(metrics_field(&fm, "repl_bootstraps").as_deref(), Some("1"), "{fm}");
    let lm = lc.request("METRICS").unwrap();
    assert_eq!(metrics_field(&lm, "repl_role").as_deref(), Some("leader"), "{lm}");
    wait_until("leader sees the follower", Duration::from_secs(5), || {
        let m = Client::connect(leader.addr()).unwrap().request("METRICS").unwrap();
        metrics_field(&m, "repl_followers").as_deref() == Some("1")
    });

    // The Prometheus exposition carries the role and lag gauges.
    let prom = fc.request("METRICS prom").unwrap();
    assert!(prom.contains("ruid_repl_role{role=\"follower\"} 1"), "{prom}");
    assert!(prom.contains("ruid_repl_lag_seconds"), "{prom}");

    // Satellite: a follower SHUTDOWN detaches cleanly — the bye-ack
    // empties the leader's follower map instead of leaving the leader's
    // connection to time out.
    assert!(fc.request("SHUTDOWN").unwrap().starts_with("OK bye"));
    follower.join();
    wait_until("leader forgets the follower", Duration::from_secs(5), || {
        let m = Client::connect(leader.addr()).unwrap().request("METRICS").unwrap();
        metrics_field(&m, "repl_followers").as_deref() == Some("0")
    });
    leader.stop();
}

/// A follower applies every kind of shipped record — LOAD, LOADSTREAM,
/// INSERT, DELETE, RELABEL and UNLOAD — and ends byte-identical to a
/// single-node server that ran the same writes.
#[test]
fn follower_applies_all_six_record_kinds() {
    let dir = Scratch::new("six-kinds");
    let corpus = dir.file("corpus.xml", corpus_xml());
    let site = dir.file("site.xml", "<a><b>x</b><c/></a>");

    let (leader, mut lc) = start_durable(&dir.join("leader"));
    let (follower, mut fc) = start_follower(leader.addr(), None, 5);
    let oracle = Server::start(ServerConfig::default()).unwrap();
    let mut oc = Client::connect(oracle.addr()).unwrap();
    let mut both = |line: String| {
        let want = oc.request(&line).unwrap();
        assert!(want.starts_with("OK"), "{line} -> {want}");
        assert_eq!(lc.request(&line).unwrap(), want, "{line}");
    };
    both(format!("LOAD {}", corpus.display()));
    both("LOADSTREAM feed 1:10:a 2:5:b 3:4:c 6:9:b 7:8:=x".to_string());
    both(format!("LOAD {}", site.display()));
    let root = label_of_first(&leader, 1, "a");
    both(format!("INSERT 1 {} {} {} 0 <b/>", root.global, root.local, root.is_root));
    let victim = label_of_first(&leader, 1, "c");
    both(format!("DELETE 1 {} {} {}", victim.global, victim.local, victim.is_root));
    both("RELABEL 2".to_string());
    both("UNLOAD 3".to_string());

    let state = |client: &mut Client| {
        let mut answers = answer_vector(client);
        for line in ["LIST", "QUERY 3 /a"] {
            answers.push(client.request(line).unwrap());
        }
        answers
    };
    let want = state(&mut oc);
    assert!(want.last().unwrap().starts_with("ERR no document"), "{want:?}");
    wait_until("follower applies all six kinds", Duration::from_secs(10), || {
        state(&mut Client::connect(follower.addr()).unwrap()) == want
    });
    let m = fc.request("METRICS").unwrap();
    assert!(metrics_field(&m, "repl_applied").unwrap().parse::<u64>().unwrap() >= 7, "{m}");
    assert_eq!(metrics_field(&m, "repl_quarantined").as_deref(), Some("0"), "{m}");
    follower.stop();
    leader.stop();
    oracle.stop();
}

/// A promoted follower must not hand out the id of a document the
/// leader's snapshot quarantined: its bootstrap raises the id counter
/// past quarantined ids, as a restart's recovery does.
#[test]
fn promoted_follower_never_reuses_a_quarantined_id() {
    let dir = Scratch::new("quarantined-id");
    let good = dir.file("good.xml", "<g><ok/></g>");
    let bad = dir.file("bad.xml", "<b><broken/></b>");
    let data_dir = dir.join("leader");

    let (leader, mut lc) = start_durable(&data_dir);
    assert!(lc.request(&format!("LOAD {}", good.display())).unwrap().starts_with("OK id=1"));
    assert!(lc.request(&format!("LOAD {}", bad.display())).unwrap().starts_with("OK id=2"));
    assert!(lc.request("SNAPSHOT").unwrap().starts_with("OK generation=1"));
    leader.stop();

    // Flip a byte inside the second document's snapshot section: its CRC
    // fails, the first document's doesn't.
    let snap = data_dir.join("snapshot-00000001.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let pos = bytes.windows(6).rposition(|w| w == b"broken").expect("doc payload in snapshot");
    bytes[pos] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();

    let (leader, mut lc) = start_durable(&data_dir);
    let (follower, mut fc) = start_follower(leader.addr(), None, 5);
    wait_until("follower bootstrap", Duration::from_secs(10), || {
        Client::connect(follower.addr()).unwrap().request("QUERY 1 //ok").unwrap().starts_with("OK 1 ")
    });
    assert_eq!(follower.repl().sample().quarantined, 1);
    assert_eq!(fc.request("PROMOTE").unwrap(), "OK role=leader promoted=true");

    let leader_load = lc.request(&format!("LOAD {}", good.display())).unwrap();
    assert!(leader_load.starts_with("OK id=3"), "{leader_load}");
    let promoted_load = fc.request(&format!("LOAD {}", good.display())).unwrap();
    assert!(promoted_load.starts_with("OK id=3"), "quarantined id 2 reused: {promoted_load}");
    follower.stop();
    leader.stop();
}

/// The tentpole sweep: kill the leader at varying points, promote the
/// follower, and demand the promoted replica answers the whole corpus
/// exactly like **some** single-node prefix of the op script — caught-up
/// kills must land on the full prefix, mid-stream kills on any prefix,
/// and nothing else.
#[test]
fn kill_the_leader_failover_sweep() {
    let dir = Scratch::new("failover-sweep");
    let corpus = dir.file("corpus.xml", corpus_xml());
    let site = dir.file("site.xml", "<a><b>x</b><c/></a>");

    let ops = record_ops(&corpus.display().to_string(), &site.display().to_string());
    assert_eq!(ops.len(), 6, "{ops:?}");
    let oracles = prefix_oracles(&ops);

    // Caught-up kills after k ops: the promoted follower must equal
    // exactly the k-prefix oracle.
    for (case, k) in [2usize, 4, 6].into_iter().enumerate() {
        let (leader, mut lc) = start_durable(&dir.join(format!("leader-{case}")));
        let follower_dir = dir.join(format!("follower-{case}"));
        let (follower, mut fc) = start_follower(leader.addr(), Some(&follower_dir), 5);
        for line in &ops[..k] {
            assert!(lc.request(line).unwrap().starts_with("OK"), "{line}");
        }
        wait_until("follower catch-up", Duration::from_secs(10), || {
            answer_vector(&mut Client::connect(follower.addr()).unwrap()) == oracles[k]
        });

        // Kill the leader abruptly: no SHUTDOWN, no final snapshot.
        leader.stop();

        let resp = fc.request("PROMOTE").unwrap();
        assert_eq!(resp, "OK role=leader promoted=true", "case {case}");
        assert_eq!(
            answer_vector(&mut fc),
            oracles[k],
            "case {case}: promoted follower drifted from the {k}-prefix oracle"
        );
        let m = fc.request("METRICS").unwrap();
        assert_eq!(metrics_field(&m, "repl_role").as_deref(), Some("leader"), "{m}");
        assert_eq!(metrics_field(&m, "repl_promotions").as_deref(), Some("1"), "{m}");

        // The promoted leader accepts writes again.
        let root = label_of_first(&follower, 1, "a");
        let resp = fc
            .request(&format!(
                "INSERT 1 {} {} {} 0 <b/>",
                root.global, root.local, root.is_root
            ))
            .unwrap();
        assert!(resp.starts_with("OK label="), "{resp}");
        let after_write = answer_vector(&mut fc);
        assert_ne!(after_write, oracles[k], "the write must be visible");

        if case == 0 {
            // The follower journaled its bootstrap + tail into its own
            // data dir: a restart from that dir alone recovers the
            // promoted state, writes included.
            follower.stop();
            let (reborn, mut rc) = start_durable(&follower_dir);
            assert_eq!(answer_vector(&mut rc), after_write, "restart lost promoted state");
            reborn.stop();
        } else {
            follower.stop();
        }
    }

    // Mid-stream kills: a slow-polling follower is killed out from under
    // an unfinished stream. Whatever it applied, the promoted state must
    // be byte-identical to one of the seven prefix oracles — never a
    // hybrid no single-node history could produce.
    for lagging in 0..2 {
        let (leader, mut lc) = start_durable(&dir.join(format!("leader-mid-{lagging}")));
        let (follower, mut fc) =
            start_follower(leader.addr(), None, if lagging == 0 { 150 } else { 40 });
        for line in &ops {
            assert!(lc.request(line).unwrap().starts_with("OK"), "{line}");
        }
        leader.stop(); // no catch-up wait: the stream dies mid-flight

        assert_eq!(fc.request("PROMOTE").unwrap(), "OK role=leader promoted=true");
        let answers = answer_vector(&mut fc);
        let prefix = oracles.iter().position(|o| *o == answers);
        assert!(
            prefix.is_some(),
            "mid-stream promoted state matches no single-node prefix (lagging={lagging})"
        );
        follower.stop();
    }
}

/// A `PROMOTE` that lands while the follower is mid-bootstrap (snapshot
/// fetched but not yet installed) must win: the follower thread exits
/// without swapping the old leader's snapshot into the catalog, so the
/// newly promoted node's state can never be clobbered by a stale image
/// arriving after the operator's failover decision.
#[test]
fn promote_during_bootstrap_does_not_install_the_snapshot() {
    use ruid_service::{Fault, FaultPlan};

    let dir = Scratch::new("promote-mid-bootstrap");
    let corpus = dir.file("corpus.xml", corpus_xml());

    // Leader request indices are deterministic: 0 = LOAD, 1 = SNAPSHOT
    // (both text, below), 2 = the follower's REPL HELLO, 3 = its REPL
    // SNAPSHOT fetch. Stalling index 3 freezes the follower *inside*
    // bootstrap, after the catalog-install decision point is armed.
    let plan = FaultPlan::new().inject(3, Fault::StallHandler { ms: 4_000 });
    let config = ServerConfig {
        fault_plan: Some(std::sync::Arc::new(plan)),
        ..durable(&dir.join("leader"))
    };
    let leader = Server::start(config).unwrap();
    let mut lc = Client::connect(leader.addr()).unwrap();
    assert!(lc.request(&format!("LOAD {}", corpus.display())).unwrap().starts_with("OK id=1"));
    // A materialized snapshot is what makes the follower's bootstrap
    // fetch one (and hit the stalled request) instead of starting empty.
    assert!(lc.request("SNAPSHOT").unwrap().starts_with("OK"));

    let (follower, mut fc) = start_follower(leader.addr(), None, 5);
    wait_until("bootstrap underway", Duration::from_secs(5), || {
        follower.repl().sample().bootstraps >= 1
    });

    // The follower is now blocked in the 4s-stalled snapshot fetch.
    // Promote it: the request must complete well inside its own 10s
    // deadline — the follower observes the stop as soon as the fetch
    // returns — and the fetched image must be discarded, not installed.
    let resp = fc.request("PROMOTE").unwrap();
    assert_eq!(resp, "OK role=leader promoted=true");
    let m = fc.request("METRICS").unwrap();
    assert_eq!(metrics_field(&m, "repl_role").as_deref(), Some("leader"), "{m}");
    assert_eq!(metrics_field(&m, "repl_promotions").as_deref(), Some("1"), "{m}");
    // PROMOTE answers only once the follower thread has returned, and
    // that thread is the only one that installs a fetched image: the
    // catalog checked here is final, so the image cannot land late either.
    assert!(
        fc.request("QUERY 1 /a").unwrap().starts_with("ERR no document"),
        "the old leader's snapshot must not be installed after promotion"
    );

    // The promoted node is a real leader: local writes flow again.
    let resp = fc.request(&format!("LOAD {}", corpus.display())).unwrap();
    assert!(resp.starts_with("OK id="), "{resp}");
    let id = resp["OK id=".len()..].split_whitespace().next().unwrap().to_owned();
    let resp = fc.request(&format!("QUERY {id} //b")).unwrap();
    assert!(resp.starts_with("OK") && !resp.starts_with("OK 0"), "{resp}");
    follower.stop();
    leader.stop();
}

/// A forged sequence number on the replication channel (Fault::ForgeSeq)
/// must be refused by the follower's record validation, forcing a clean
/// re-bootstrap that converges back to the leader's state.
#[test]
fn forged_seq_is_refused_then_recovered_by_rebootstrap() {
    let dir = Scratch::new("forge-seq");
    let corpus = dir.file("corpus.xml", corpus_xml());

    let (leader, mut lc) = start_durable(&dir.join("leader"));
    assert!(lc
        .request(&format!("LOAD {}", corpus.display()))
        .unwrap()
        .starts_with("OK id=1"));
    let (follower, mut fc) = start_follower(leader.addr(), None, 5);
    let before = answer_vector(&mut lc);
    wait_until("initial catch-up", Duration::from_secs(10), || {
        answer_vector(&mut Client::connect(follower.addr()).unwrap()) == before
    });

    // Arm the fault, then commit an op so the next shipped chunk carries
    // a record whose sequence field is flipped.
    leader.repl().arm_forge();
    let root = label_of_first(&leader, 1, "a");
    assert!(lc
        .request(&format!(
            "INSERT 1 {} {} {} 0 <b/>",
            root.global, root.local, root.is_root
        ))
        .unwrap()
        .starts_with("OK"));
    let want = answer_vector(&mut lc);

    // The follower must (a) refuse the forged stream and (b) converge
    // anyway via a fresh bootstrap.
    wait_until("forged chunk refused", Duration::from_secs(10), || {
        follower.repl().sample().refusals >= 1
    });
    wait_until("post-forge convergence", Duration::from_secs(10), || {
        answer_vector(&mut Client::connect(follower.addr()).unwrap()) == want
    });
    let m = fc.request("METRICS").unwrap();
    assert!(
        metrics_field(&m, "repl_bootstraps").unwrap().parse::<u64>().unwrap() >= 2,
        "refusal must force a re-bootstrap: {m}"
    );
    follower.stop();
    leader.stop();
}

/// A randomized fault storm (torn writes, stalls, delays, early EOFs,
/// forged sequences) on the leader's wire must never wedge the follower:
/// backoff reconnects and re-bootstraps always converge once the storm
/// subsides.
#[test]
fn replication_survives_a_randomized_fault_storm() {
    use ruid_service::{Fault, FaultPlan};

    let dir = Scratch::new("storm");
    let corpus = dir.file("corpus.xml", corpus_xml());

    let plan = FaultPlan::randomized(
        0x5EED_0017,
        160,
        0.30,
        &[
            Fault::TornWrite { bytes: 9 },
            Fault::DelayMs { ms: 15 },
            Fault::EarlyEof,
            Fault::StallHandler { ms: 10 },
            Fault::ForgeSeq,
        ],
    );
    let config = ServerConfig {
        fault_plan: Some(std::sync::Arc::new(plan)),
        ..durable(&dir.join("leader"))
    };
    let leader = Server::start(config).unwrap();
    let (follower, _fc) = start_follower(leader.addr(), None, 5);
    let mut loaded = false;
    for _ in 0..40 {
        // The storm also tears the control connection; retry the LOAD
        // until one copy lands (idempotence is not the point here).
        match Client::connect(leader.addr()) {
            Ok(mut c) => match c.request(&format!("LOAD {}", corpus.display())) {
                Ok(resp) if resp.starts_with("OK id=1") => {
                    loaded = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            },
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(loaded, "LOAD never landed through the storm");
    // After index 160 the plan is exhausted: the channel heals and the
    // follower must converge to the leader's answers. Both vector reads
    // retry, since the tail of the storm can still tear them.
    let try_answers = |addr: std::net::SocketAddr| -> Option<Vec<String>> {
        let mut c = Client::connect(addr).ok()?;
        let mut answers = Vec::new();
        for doc in [1u64, 2] {
            for xpath in ABC_QUERIES {
                answers.push(c.request(&format!("QUERY {doc} {xpath}")).ok()?);
            }
        }
        Some(answers)
    };
    let mut want = None;
    wait_until("the healed leader's answers", Duration::from_secs(30), || {
        want = try_answers(leader.addr());
        want.is_some()
    });
    let want = want.unwrap();
    wait_until("post-storm convergence", Duration::from_secs(30), || {
        try_answers(follower.addr()) == Some(want.clone())
    });
    follower.stop();
    leader.stop();
}
