//! The `scoreboard` command. See `README.md` in this directory.
//!
//! ```text
//! scoreboard [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
//! scoreboard compare OLD.json NEW.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use scoreboard::json::Json;
use scoreboard::trace::{self, CountingAlloc, Tracer};
use scoreboard::workloads::{self, Outcome, Scale};
use scoreboard::{compare, harness, report, spec};

// Counts live bytes only while `--trace 1` switches it on.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: scoreboard [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]\n       \
         scoreboard compare OLD.json NEW.json",
        spec::spec().workloads.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: spec::spec().run_seconds,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                entry_points(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

type Run = fn(&Scale, u64) -> Result<Outcome, String>;
type Trace = fn(&Scale, u64, &mut Tracer) -> Result<Outcome, String>;

/// The end-to-end and the traced entry point of a workload.
fn entry_points(name: &str) -> Option<(Run, Trace)> {
    use workloads::{read_cold, read_hot, restart_catchup, write_mixed};
    Some(match name {
        "read_cold" => (read_cold::run, read_cold::trace),
        "read_hot" => (read_hot::run, read_hot::trace),
        "write_mixed" => (write_mixed::run, write_mixed::trace),
        "restart_catchup" => (restart_catchup::run, restart_catchup::trace),
        _ => return None,
    })
}

fn run_workload(name: &str, scale: &Scale, args: &Args) -> Result<Outcome, String> {
    let (run, trace) = entry_points(name).ok_or_else(|| format!("unknown workload {name}"))?;
    if !args.trace {
        return run(scale, args.seed);
    }
    trace::set_counting(true);
    let mut tracer = Tracer::new(true);
    let outcome = trace(scale, args.seed, &mut tracer);
    trace::set_counting(false);
    let path = harness::output_root().join(format!("trace_{name}.json"));
    tracer
        .write_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display());
    outcome
}

/// One workload in this process: the table, the run header, the report
/// file when asked for, and the result line the driver parses last.
fn run_one(name: &str, args: &Args) -> Result<i32, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let outcome = run_workload(name, &scale, args)?;
    print!("{}", report::table(&outcome));
    let counts = outcome
        .op_counts
        .iter()
        .map(|(name, count)| (*name, Json::Num(*count)));
    let op_counts = Json::obj([(outcome.workload, Json::obj(counts))]);
    let header = harness::run_header(args.seed, scale.seconds, args.trace, op_counts);
    println!("header {}", header.render());
    if let Some(path) = &args.out {
        let file = report::report_file(header, std::slice::from_ref(&outcome));
        std::fs::write(path, file.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&outcome));
    Ok(outcome.check.exit_code())
}

/// How many times a full run executes every workload. One run cannot
/// tell a change from the machine's mood: on this sandbox the same code
/// reads 10 to 25 % slower for minutes at a time, every slice of a run
/// alike, so no statistic within a run sees it. A report holds the median
/// of three runs, a hundred seconds apart, and the spread between them,
/// which is what `compare` needs to call a row unresolved.
const REPEATS: usize = 3;

/// Every workload of `BENCHMARK.json`, each run in a process of its own —
/// `peak_rss_mb` and the allocator's state are then each run's own, as
/// they are when the driver runs one workload per process — [`REPEATS`]
/// times over (once for a smoke or a traced run), merged into one report.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parts = harness::Scratch::new("parts").map_err(|e| e.to_string())?;
    let workloads = &spec::spec().workloads;
    let repeats = if args.smoke || args.trace { 1 } else { REPEATS };
    let mut exit = 0;
    let mut header = None;
    let mut op_counts = Vec::new();
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    // Repeats outermost: the runs of one workload are spread over the
    // whole session, not taken in one mood.
    for repeat in 0..repeats {
        for (workload, runs) in workloads.iter().zip(&mut runs) {
            let part = parts.path().join(format!("{workload}-{repeat}.json"));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| format!("run {workload}: {e}"))?;
            exit = exit.max(status.code().unwrap_or(1));
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{workload} left no report: {e}"))?;
            let report = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            let entry = report
                .get("workloads")
                .and_then(|entries| entries.get(workload))
                .ok_or_else(|| format!("{} holds no {workload}", part.display()))?;
            runs.push(entry.clone());
            if repeat == 0 {
                let part_header = report.get("header").cloned().unwrap_or(Json::Null);
                let counts = part_header.get("op_counts").and_then(Json::as_obj);
                op_counts.extend(counts.unwrap_or_default().to_vec());
                header.get_or_insert(part_header);
            }
        }
    }
    if let Some(path) = &args.out {
        let mut header = match header {
            Some(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        };
        header.retain(|(key, _)| key != "op_counts");
        header.push(("repeats".into(), Json::Num(repeats as f64)));
        header.push(("op_counts".into(), Json::Obj(op_counts)));
        let entries = workloads
            .iter()
            .zip(&runs)
            .map(|(workload, runs)| (workload.as_str(), report::merge_runs(runs)));
        let file = Json::obj([
            ("header", Json::Obj(header)),
            ("workloads", Json::obj(entries)),
        ]);
        std::fs::write(path, file.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(exit)
}

fn run(args: &Args) -> Result<i32, String> {
    match &args.workload {
        Some(name) => run_one(name, args),
        None => run_all(args),
    }
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let [old, new] = args else {
        return Err(usage());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(spec::spec(), &read(old)?, &read(new)?)?;
    print!("{}", comparison.text);
    Ok(comparison.exit_code())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|parsed| run(&parsed)),
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            // No result line: the driver must not mistake this for a run.
            eprintln!("scoreboard: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_of_benchmark_json_has_its_entry_points() {
        for workload in &super::spec::spec().workloads {
            assert!(super::entry_points(workload).is_some(), "{workload}");
        }
    }
}
