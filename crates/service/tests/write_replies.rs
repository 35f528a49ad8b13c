//! Every write verb's exact reply — the success and each rejection — over
//! both front ends, recorded from the server before its write paths were
//! folded into one commit function. A rejected write must also leave the
//! WAL untouched.

use std::path::Path;

use ruid_core::Ruid2;
use ruid_service::proto;
use ruid_service::{BinaryClient, Client, FsyncPolicy, Server, ServerConfig, ServerHandle};
use schemes::NumberingScheme;
use testkit::Scratch;

/// The replies [`run_script`] draws, in order; `<dir>` stands for the
/// scratch directory.
const REPLIES: &[&str] = &[
    "ERR cannot read /nonexistent/ruid-write-replies.xml: No such file or directory (os error 2)",
    "ERR parse error in <dir>/bad.xml: mismatched close tag: expected </b>, found </a> at 1:10",
    "OK id=1 nodes=6 areas=1",
    "ERR stream feed: event `1:2` is not start:end:content",
    "OK id=2 nodes=4 areas=1",
    "ERR no document 9",
    "ERR no document 9 (use LOAD / LIST)",
    "ERR no document 9 (use LOAD / LIST)",
    "ERR no document 9 (use LOAD / LIST)",
    "ERR (1, 1, true) labels the root element; cannot delete",
    "ERR (1, 2, false) labels a non-element node; cannot insert under it",
    // A rejected DELETE or INSERT has drawn a generation (3 and 4).
    "OK label=(1,2,false) generation=5 relabeled=4 dropped=0 full_rebuild=false",
    "OK removed=1 generation=6 relabeled=0 dropped=1 full_rebuild=false",
    "OK areas=1 generation=7 relabeled=1 dropped=0 full_rebuild=true",
    "OK unloaded 2",
    "ERR no document 2",
];

/// `g l r` of the first element named `name` in document order, or of the
/// first text node when `name` is empty.
fn label_arg(handle: &ServerHandle, doc: u64, name: &str) -> String {
    let loaded = handle.catalog().get(doc).unwrap();
    let root = loaded.doc.root_element().unwrap();
    let node = std::iter::once(root)
        .chain(loaded.doc.descendants(root))
        .find(|&n| match name {
            "" => loaded.doc.text(n).is_some(),
            name => loaded.doc.tag_name(n) == Some(name),
        })
        .unwrap();
    let Ruid2 { global, local, is_root } = loaded.scheme.label_of(node);
    format!("{global} {local} {is_root}")
}

fn wal_records(send: &mut dyn FnMut(&str) -> String) -> String {
    let metrics = send("METRICS");
    metrics.split_whitespace().find(|t| t.starts_with("wal_records=")).unwrap().to_owned()
}

/// Sends `line`; a rejection must not have reached the WAL.
fn exchange(send: &mut dyn FnMut(&str) -> String, dir: &str, line: &str) -> String {
    let before = wal_records(send);
    let reply = send(line);
    if reply.starts_with("ERR") {
        assert_eq!(wal_records(send), before, "rejected `{line}` reached the WAL: {reply}");
    }
    reply.replace(dir, "<dir>")
}

/// Every write verb, its success and each way it is rejected.
fn run_script(handle: &ServerHandle, dir: &Path, send: &mut dyn FnMut(&str) -> String) -> Vec<String> {
    std::fs::write(dir.join("good.xml"), "<a>t<b><c/></b><d/></a>").unwrap();
    std::fs::write(dir.join("bad.xml"), "<a><b></a>").unwrap();
    let d = dir.display().to_string();
    let mut replies = Vec::new();
    for line in [
        "LOAD /nonexistent/ruid-write-replies.xml".to_owned(),
        format!("LOAD {d}/bad.xml"),
        format!("LOAD {d}/good.xml"),
        "LOADSTREAM feed 1:2".to_owned(),
        "LOADSTREAM feed 1:6:a 2:3:b 4:5:=x".to_owned(),
        "UNLOAD 9".to_owned(),
        "INSERT 9 1 1 true 0 <n/>".to_owned(),
        "DELETE 9 1 1 true".to_owned(),
        "RELABEL 9".to_owned(),
    ] {
        replies.push(exchange(send, &d, &line));
    }
    let root = label_arg(handle, 1, "a");
    let text = label_arg(handle, 1, "");
    for line in [
        format!("DELETE 1 {root}"),
        format!("INSERT 1 {text} 0 <n/>"),
        format!("INSERT 1 {root} 0 <n/>"),
    ] {
        replies.push(exchange(send, &d, &line));
    }
    let victim = label_arg(handle, 1, "d");
    for line in [
        format!("DELETE 1 {victim}"),
        "RELABEL 1".to_owned(),
        "UNLOAD 2".to_owned(),
        "UNLOAD 2".to_owned(),
    ] {
        replies.push(exchange(send, &d, &line));
    }
    replies
}

#[test]
fn write_replies_match_the_recorded_fixtures_over_both_front_ends() {
    for binary in [false, true] {
        let dir = Scratch::new(if binary { "binary" } else { "text" });
        let config = ServerConfig {
            data_dir: Some(dir.join("data")),
            fsync: FsyncPolicy::Never,
            ..ServerConfig::default()
        };
        let handle = Server::start(config).unwrap();
        let replies = if binary {
            let mut client = BinaryClient::connect(handle.addr()).unwrap();
            run_script(&handle, &dir, &mut |line| {
                client.call(&proto::parse(line).unwrap()).unwrap()
            })
        } else {
            let mut client = Client::connect(handle.addr()).unwrap();
            run_script(&handle, &dir, &mut |line| client.request(line).unwrap())
        };
        assert_eq!(replies, REPLIES, "binary={binary}: {replies:#?}");
        handle.stop();
    }
}
