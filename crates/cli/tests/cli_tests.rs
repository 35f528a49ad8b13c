//! Integration tests for the `ruid-xml` command dispatcher.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use ruid_cli::{run, serve_start};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A sample document in a file of its own (pid + counter): tests run on
/// parallel threads, and a shared path lets one test read the file while
/// another has it truncated for rewriting.
fn sample_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruid-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("sample-{}.xml", COUNTER.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(
        &path,
        "<catalog><book id=\"b1\"><title>A</title><price>35</price></book>\
         <book id=\"b2\"><title>B</title><price>20</price></book></catalog>",
    )
    .unwrap();
    path
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn stats_runs() {
    let file = sample_file();
    run(&args(&["stats", file.to_str().unwrap()])).unwrap();
}

#[test]
fn label_runs_with_options() {
    let file = sample_file();
    run(&args(&["label", file.to_str().unwrap(), "--depth", "2", "--limit", "5"])).unwrap();
}

/// Every engine the CLI offers prints the same hit list (label and
/// subtree per hit, on standard output) for the same query.
#[test]
fn query_all_engines_agree_on_success() {
    let file = sample_file();
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
    let file = sample_file();
    run(&args(&["axes", file.to_str().unwrap(), "//title"])).unwrap();
    // The tree root's identifier always exists.
    run(&args(&["parent", file.to_str().unwrap(), "1", "1", "true"])).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    let file = sample_file();
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
    let file = sample_file();
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
    let dir = std::env::temp_dir().join(format!("ruid-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.xml");
    std::fs::write(&path, "<a><b></a>").unwrap();
    let err = run(&args(&["stats", path.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("parse error"), "{err}");
}
