//! Runs the real `scoreboard` binary at smoke scale under plain
//! `cargo test` and asserts schema and correctness only — every metric
//! `BENCHMARK.json` names is present, finite and carries its unit, and
//! nothing failed. Never a timing. Every test runs the binary in a
//! directory of its own (pid + counter) under cargo's per-target test
//! directory, so tests cannot share a path.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

use scoreboard::json::Json;

static COUNTER: AtomicU32 = AtomicU32::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("scoreboard-smoke-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Runs `scoreboard <args>` in a fresh directory; returns stdout.
fn scoreboard(dir: &TempDir, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_scoreboard"))
        .args(args)
        .current_dir(&dir.0)
        .env("CARGO_TARGET_DIR", dir.0.join("out"))
        .output()
        .expect("run scoreboard");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The contract's result line of one workload run, checked against the
/// metric list `section` of `BENCHMARK.json`.
fn check_result_line(stdout: &str, section: &str) {
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{line}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").unwrap();
    let expected = benchmark();
    let expected = expected.get(section).and_then(Json::as_arr).unwrap();
    assert_eq!(
        metrics.as_obj().unwrap().len(),
        expected.len(),
        "exactly the {section} metrics"
    );
    for metric in expected {
        let name = metric.get("name").and_then(Json::as_str).unwrap();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let value = got
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has no value"));
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(got.get("unit"), metric.get("unit"), "{name}");
        if section == "end_to_end" {
            assert!(value > 0.0, "end-to-end metric {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in ["read_cold", "read_hot", "write_mixed", "restart_catchup"] {
        let dir = TempDir::new();
        let (ok, stdout) = scoreboard(
            &dir,
            &[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "7",
                "--trace",
                "0",
            ],
        );
        assert!(ok, "{workload} failed:\n{stdout}");
        check_result_line(&stdout, "end_to_end");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for workload in ["read_cold", "read_hot", "write_mixed", "restart_catchup"] {
        let dir = TempDir::new();
        let (ok, stdout) = scoreboard(
            &dir,
            &[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "7",
                "--trace",
                "1",
            ],
        );
        assert!(ok, "{workload} failed:\n{stdout}");
        check_result_line(&stdout, "per_layer");
        let trace = dir
            .0
            .join("out/scoreboard")
            .join(format!("trace_{workload}.json"));
        let spans = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(
            !spans
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty(),
            "{workload} recorded no span"
        );
    }
}

#[test]
fn a_full_smoke_report_compares_clean_against_itself() {
    let dir = TempDir::new();
    let (ok, stdout) = scoreboard(&dir, &["--smoke", "--seed", "42", "--out", "a.json"]);
    assert!(ok, "{stdout}");
    let report = Json::parse(&std::fs::read_to_string(dir.0.join("a.json")).unwrap()).unwrap();
    let header = report.get("header").unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "seconds",
        "op_counts",
        "server_config",
    ] {
        assert!(header.get(key).is_some(), "run header lacks {key}");
    }
    assert_eq!(
        report
            .get("workloads")
            .and_then(Json::as_obj)
            .unwrap()
            .len(),
        4
    );
    let (ok, stdout) = scoreboard(&dir, &["compare", "a.json", "a.json"]);
    assert!(ok, "{stdout}");
    // A report cannot be worse than itself; whether a row is
    // "unresolved" depends on the slice spread, which is a timing.
    assert!(stdout.contains("\n0 worse, "), "{stdout}");
    assert!(stdout.contains(" 0 missing, "), "{stdout}");
}

#[test]
fn bad_arguments_print_no_result() {
    let dir = TempDir::new();
    let (ok, stdout) = scoreboard(&dir, &["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
