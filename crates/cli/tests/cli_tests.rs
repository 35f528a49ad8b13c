//! Integration tests for the `ruid-xml` command dispatcher.

use std::process::Command;

use ruid_cli::{run, serve_start};
use testkit::{Scratch, SAMPLE_XML};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn stats_runs() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    run(&args(&["stats", file.to_str().unwrap()])).unwrap();
}

#[test]
fn label_runs_with_options() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    run(&args(&["label", file.to_str().unwrap(), "--depth", "2", "--limit", "5"])).unwrap();
}

/// Every engine the CLI offers prints the same hit list (label and
/// subtree per hit, on standard output) for the same query.
#[test]
fn query_all_engines_agree_on_success() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    let printed = |engine: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_ruid-xml"))
            .args(["query", file.to_str().unwrap(), "//book[price > 25]/title", "--engine", engine])
            .output()
            .expect("run ruid-xml");
        assert!(
            output.status.success(),
            "engine {engine}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let oracle = printed("tree");
    assert_eq!(oracle.lines().count(), 1, "one book costs more than 25: {oracle}");
    assert!(oracle.contains("<title>A</title>"), "{oracle}");
    for engine in ["uid", "ruid", "indexed", "interval", "ancestry", "planned"] {
        assert_eq!(printed(engine), oracle, "engine {engine} differs from tree");
    }
}

#[test]
fn axes_and_parent_run() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    run(&args(&["axes", file.to_str().unwrap(), "//title"])).unwrap();
    // The tree root's identifier always exists.
    run(&args(&["parent", file.to_str().unwrap(), "1", "1", "true"])).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    let f = file.to_str().unwrap();
    assert!(run(&[]).is_err());
    assert!(run(&args(&["bogus"])).is_err());
    assert!(run(&args(&["stats"])).is_err());
    assert!(run(&args(&["stats", "/nonexistent/file.xml"])).is_err());
    assert!(run(&args(&["query", f])).is_err());
    assert!(run(&args(&["query", f, "//title", "--engine", "warp"])).is_err());
    assert!(run(&args(&["query", f, "///"])).is_err());
    assert!(run(&args(&["parent", f, "9999", "9999", "false"])).is_err());
    assert!(run(&args(&["parent", f, "x", "1", "false"])).is_err());
    assert!(run(&args(&["axes", f, "//nosuch"])).is_err());
}

#[test]
fn serve_preloads_files_and_client_talks_to_it() {
    let dir = Scratch::new("sample");
    let file = dir.file("sample.xml", SAMPLE_XML);
    // Port 0 picks a free port; one worker thread is plenty here.
    let handle = serve_start(&args(&[
        file.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--depth",
        "2",
    ]))
    .unwrap();
    let addr = handle.addr().to_string();

    // The pre-loaded document answers queries through the client subcommand.
    run(&args(&["client", &addr, "PING"])).unwrap();
    run(&args(&["client", &addr, "QUERY", "1", "//book[price > 25]/title"])).unwrap();
    run(&args(&["client", &addr, "STATS", "1"])).unwrap();
    // An ERR response surfaces as a CLI error.
    assert!(run(&args(&["client", &addr, "STATS", "999"])).is_err());
    assert!(run(&args(&["client", &addr])).is_err());

    handle.stop();
}

/// A request prints the same bytes over either protocol (PING, QUERY, LABEL,
/// PARENT and GET under their own binary verbs, STATS in a TEXT frame); an
/// `ERR` exits non-zero over binary too, and an unknown protocol is refused.
#[test]
fn client_prints_the_same_over_text_and_binary() {
    let dir = Scratch::new("fork");
    let file = dir.file("sample.xml", "<a><b><c/><a/></b><b/></a>");
    let handle = serve_start(&args(&[file.to_str().unwrap(), "--addr", "127.0.0.1:0"])).unwrap();
    let addr = handle.addr().to_string();
    let client = |protocol: &str, line: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_ruid-xml")).args(["client", &addr, "--protocol", protocol, line]).output().unwrap();
        (out.status.success(), String::from_utf8(out.stdout).unwrap(), String::from_utf8(out.stderr).unwrap())
    };
    // `OK 1 (g,l,true)` names the <c> as `g l true`.
    let c = client("text", "LABEL 1 //c").1.split_whitespace().nth(2).unwrap().trim_matches(['(', ')']).replace(',', " ");
    for line in ["PING", "QUERY 1 //b[c]", "LABEL 1 //b", &format!("PARENT 1 {c}"), &format!("GET 1 {c}"), "STATS 1"] {
        let text = client("text", line);
        assert!(text.0, "{line}: {text:?}");
        assert_eq!(client("binary", line), text, "{line}");
    }
    let (ok, out, _) = client("binary", "STATS 999");
    assert!(!ok && out.starts_with("ERR "), "{out}");
    let (ok, _, err) = client("pigeon", "PING");
    assert!(!ok && err.contains("unknown protocol \"pigeon\""), "{err}");
    handle.stop();
}

#[test]
fn serve_rejects_bad_arguments() {
    assert!(serve_start(&args(&["/nonexistent/never.xml"])).is_err());
    assert!(serve_start(&args(&["--threads", "lots"])).is_err());
    assert!(serve_start(&args(&["--queue-cap", "many"])).is_err());
    assert!(serve_start(&args(&["--max-line-bytes", "big"])).is_err());
    assert!(serve_start(&args(&["--read-timeout-ms", "soon"])).is_err());
    assert!(run(&args(&["client", "127.0.0.1:1", "PING"])).is_err());
}

#[test]
fn serve_hardening_flags_reach_the_server() {
    // A tiny frame limit set on the command line must bounce a long
    // request line while short ones still work.
    let handle = serve_start(&args(&[
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--max-line-bytes",
        "32",
        "--read-timeout-ms",
        "1000",
        "--queue-cap",
        "2",
    ]))
    .unwrap();
    let addr = handle.addr().to_string();
    run(&args(&["client", &addr, "PING"])).unwrap();
    let long = "X".repeat(100);
    let err = run(&args(&["client", &addr, "QUERY", "1", &long])).unwrap_err();
    assert!(err.contains("line too long"), "{err}");
    handle.stop();
}

#[test]
fn malformed_xml_is_an_error() {
    let dir = Scratch::new("bad");
    let path = dir.file("bad.xml", "<a><b></a>");
    let err = run(&args(&["stats", path.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("parse error"), "{err}");
}
