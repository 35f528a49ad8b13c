//! What every workload shares: scratch directories inside the checkout,
//! the failure count behind `fail_ratio`, timed samples and the metrics
//! cut from them, server start-up, and the run header.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ruid::{Client, FsyncPolicy, Server, ServerConfig, ServerHandle};

use crate::json::Json;
use crate::stats::{self, Favour, Sliced};

/// Where build outputs and run files go: `CARGO_TARGET_DIR` when the
/// caller sets it (the driver does), else `target/` under the current
/// directory. Always inside the checkout — never the system temp dir.
pub fn output_root() -> PathBuf {
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let root = if root.is_absolute() {
        root
    } else {
        std::env::current_dir().unwrap_or_default().join(root)
    };
    root.join("scoreboard")
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of this run's own (pid + counter), removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates a fresh empty directory named after `tag`.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = output_root().join(format!("run-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Attempts and failures: ERR, BUSY, timeouts, wrong answers and failed
/// oracle or fingerprint checks all land here, and any failure makes the
/// command exit non-zero.
#[derive(Debug, Default)]
pub struct Check {
    /// Requests issued plus checks made.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub first_failures: Vec<String>,
}

impl Check {
    /// Records one failed attempt.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(what());
        }
    }

    /// Records one attempt that must have produced `want`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        if got == want {
            self.attempted += 1;
        } else {
            self.fail(|| format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Records one reply that must be an `OK` line; I/O errors (timeouts,
    /// a dropped connection), `ERR` and `BUSY` all count as failures.
    /// Returns the reply when it was `OK`.
    pub fn expect_ok(&mut self, what: &str, reply: std::io::Result<String>) -> Option<String> {
        match reply {
            Ok(line) if line.starts_with("OK") => {
                self.attempted += 1;
                Some(line)
            }
            Ok(line) => {
                self.fail(|| format!("{what}: {}", &line[..line.len().min(120)]));
                None
            }
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The process exit code this outcome demands.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0 || self.attempted == 0)
    }
}

/// What a timed request was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `QUERY`.
    Read,
    /// An `INSERT` or `DELETE` round trip.
    Commit,
}

/// How many reads and commits one unit of a workload's script holds —
/// one cycle of the pool, one pipelined round, one write round, one
/// burst. Slices are whole units, so every slice is the same work.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Reads per unit.
    pub reads: usize,
    /// Commits per unit.
    pub commits: usize,
}

/// The timed requests of one measured section. Latencies are kept as
/// `u32` nanoseconds (4.29 s at most, far above any request here) and
/// progress as one `(time, requests done)` mark per closed-loop request
/// or pipelined round. On `read_hot` that is 12 MB for three million
/// requests, three times what the server holds, and it grows with the
/// server's speed: [`Recorder::peak_rss_mb`] takes it out of the reading.
pub struct Recorder {
    unit: Unit,
    started: Instant,
    skipped: Duration,
    read_ns: Vec<u32>,
    commit_ns: Vec<u32>,
    marks: Vec<(u64, u64)>,
}

impl Recorder {
    /// Starts the measured section of a script whose unit is `unit`.
    pub fn start(unit: Unit) -> Recorder {
        Recorder {
            unit,
            started: Instant::now(),
            skipped: Duration::ZERO,
            read_ns: Vec::new(),
            commit_ns: Vec::new(),
            marks: vec![(0, 0)],
        }
    }

    /// Measured nanoseconds since the section began ([`Recorder::untimed`]
    /// work excluded).
    pub fn now_ns(&self) -> u64 {
        self.started
            .elapsed()
            .saturating_sub(self.skipped)
            .as_nanos() as u64
    }

    /// True once `limit` of wall time has passed, untimed work included:
    /// `--seconds` bounds how long the run takes.
    pub fn expired(&self, limit: Duration) -> bool {
        self.started.elapsed() >= limit
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> usize {
        self.read_ns.len() + self.commit_ns.len()
    }

    /// Reads recorded so far.
    pub fn reads(&self) -> usize {
        self.read_ns.len()
    }

    /// Commits recorded so far.
    pub fn commits(&self) -> usize {
        self.commit_ns.len()
    }

    /// Records one request that was sent at `start_ns` and answered now.
    pub fn record(&mut self, kind: Kind, start_ns: u64) {
        let latency = u32::try_from(self.now_ns() - start_ns).unwrap_or(u32::MAX);
        match kind {
            Kind::Read => self.read_ns.push(latency),
            Kind::Commit => self.commit_ns.push(latency),
        }
    }

    /// Marks progress: everything recorded so far was done by now.
    pub fn mark(&mut self) {
        self.marks.push((self.now_ns(), self.requests() as u64));
    }

    /// Times one closed-loop request.
    pub fn time<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = f();
        self.record(kind, start_ns);
        self.mark();
        result
    }

    /// Runs `f` off the clock: work that is not the client waiting for
    /// the system (an oracle probe, copying a fixture, a fingerprint
    /// check) does not count as measured time.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        self.skipped += started.elapsed();
        result
    }

    /// `VmHWM` of this process in MB without the samples held here, so a
    /// faster server, which answers more requests in `--seconds`, does
    /// not read as a larger one. A `Vec` touches only the pages it has
    /// written, and glibc grows one of this size by `mremap`, so what the
    /// samples add to the resident size is their length.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb() - self.held_bytes() as f64 / (1024.0 * 1024.0)
    }

    fn held_bytes(&self) -> usize {
        self.requests() * std::mem::size_of::<u32>()
            + self.marks.len() * std::mem::size_of::<(u64, u64)>()
    }

    /// Requests per second: per slice, requests done over the wall time
    /// between the marks that bound it; the slices' third quartile is
    /// reported.
    pub fn req_per_s(&self) -> Sliced {
        // Marks that fall on unit boundaries; a unit's requests finish
        // exactly at one (every request or every round is marked).
        let per_unit = (self.unit.reads + self.unit.commits).max(1) as u64;
        let bounds: Vec<(u64, u64)> = self
            .marks
            .iter()
            .copied()
            .filter(|(_, done)| done % per_unit == 0)
            .collect();
        let units: Vec<((u64, u64), (u64, u64))> =
            bounds.windows(2).map(|w| (w[0], w[1])).collect();
        let mut sliced = stats::sliced(&units, 1, Favour::High, |slice| {
            match (slice.first(), slice.last()) {
                (Some(&((t0, n0), _)), Some(&(_, (t1, n1)))) => {
                    (n1 - n0) as f64 / ((t1 - t0).max(1) as f64 / 1e9)
                }
                _ => 0.0,
            }
        });
        sliced.samples = self.requests();
        sliced
    }

    /// Latency percentile `p` of the requests of `kind`, in
    /// microseconds: per slice, then the slices' first quartile.
    pub fn latency_us(&self, kind: Kind, p: f64) -> Sliced {
        let (latencies, per_unit) = match kind {
            Kind::Read => (&self.read_ns, self.unit.reads),
            Kind::Commit => (&self.commit_ns, self.unit.commits),
        };
        if latencies.is_empty() {
            return Sliced {
                value: 0.0,
                spread: 0.0,
                samples: 0,
            };
        }
        stats::sliced(latencies, per_unit, Favour::Low, |slice| {
            let micros: Vec<f64> = slice.iter().map(|&ns| f64::from(ns) / 1e3).collect();
            stats::percentile_of(&micros, p)
        })
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is not available).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The only `ServerConfig` fields the scoreboard ever sets; everything
/// else stays at the server's defaults (fsync `always` included).
pub fn server_config(data_dir: Option<&Path>, follow: Option<String>) -> ServerConfig {
    ServerConfig {
        data_dir: data_dir.map(Path::to_path_buf),
        fsync: FsyncPolicy::Always,
        follow,
        ..ServerConfig::default()
    }
}

/// Starts a server and `LOAD`s `file` over the wire; returns the handle,
/// a text connection and the document id.
pub fn start_and_load(
    data_dir: Option<&Path>,
    file: &Path,
) -> Result<(ServerHandle, Client, u64), String> {
    let handle = Server::start(server_config(data_dir, None)).map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .request(&format!("LOAD {}", file.display()))
        .map_err(|e| format!("LOAD: {e}"))?;
    let doc = reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix("id="))
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("LOAD answered {reply}"))?;
    Ok((handle, client, doc))
}

/// Polls `done` every millisecond until it holds or `timeout` passes.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// The run header: where, with what and on which inputs the numbers
/// were taken. Two reports are comparable only when these agree.
pub fn run_header(seed: u64, seconds: f64, trace: bool, op_counts: Json) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_owned();
    Json::obj([
        ("nproc", Json::Num(ruid::available_threads() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("clients", Json::Num(1.0)),
        ("op_counts", op_counts),
        (
            "server_config",
            Json::Str(format!("{:?}", server_config(None, None))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_run() {
        let mut check = Check::default();
        check.expect_eq("reply", &"OK 1 (1,1,true)", &"OK 1 (1,1,true)");
        assert_eq!(
            (check.attempted, check.failed, check.exit_code()),
            (1, 0, 0)
        );
        check.expect_eq("reply", &"OK 0", &"OK 1 (1,1,true)");
        assert_eq!((check.attempted, check.failed), (2, 1));
        assert_eq!(check.fail_ratio(), 0.5);
        assert_ne!(check.exit_code(), 0);
        assert!(check.first_failures[0].contains("want"));
    }

    #[test]
    fn err_busy_and_timeouts_count_as_failures() {
        let mut check = Check::default();
        assert!(check.expect_ok("q", Ok("OK 0".into())).is_some());
        assert!(check
            .expect_ok("q", Ok("ERR no document 9".into()))
            .is_none());
        assert!(check.expect_ok("q", Ok("BUSY".into())).is_none());
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "timed out");
        assert!(check.expect_ok("q", Err(timeout)).is_none());
        assert_eq!((check.attempted, check.failed), (4, 3));
        // Nothing attempted is not a pass either.
        assert_ne!(Check::default().exit_code(), 0);
    }

    #[test]
    fn throughput_and_latency_come_from_slices() {
        // Twenty units of nine reads and a commit, written straight into
        // the recorder: a read takes 200 us, a commit 1 ms, and every
        // second unit runs at half speed.
        let mut recorder = Recorder::start(Unit {
            reads: 9,
            commits: 1,
        });
        let mut now_ns = 0u64;
        for unit in 0..20u32 {
            let slow = 1 + unit % 2;
            for i in 0..10 {
                let (latencies, ns) = if i == 0 {
                    (&mut recorder.commit_ns, 1_000_000 * slow)
                } else {
                    (&mut recorder.read_ns, 200_000 * slow)
                };
                latencies.push(ns);
                now_ns += u64::from(ns);
                let done = recorder.read_ns.len() + recorder.commit_ns.len();
                recorder.marks.push((now_ns, done as u64));
            }
        }
        assert_eq!(
            (recorder.requests(), recorder.reads(), recorder.commits()),
            (200, 180, 20)
        );
        // One unit per slice; the favourable quartile is a full-speed unit:
        // 10 requests in 9 x 0.2 ms + 1 ms.
        let rate = recorder.req_per_s();
        assert!((rate.value - 10.0 / 0.0028).abs() < 1e-6, "{rate:?}");
        assert_eq!(rate.samples, 200);
        assert!(rate.spread > 0.5, "{rate:?}");
        let p50 = recorder.latency_us(Kind::Read, 0.5);
        assert_eq!((p50.value, p50.samples), (200.0, 180));
        assert_eq!(recorder.latency_us(Kind::Commit, 0.9).value, 1000.0);
        assert_eq!(recorder.held_bytes(), 200 * 4 + 201 * 16);
        assert_eq!(
            Recorder::start(Unit {
                reads: 1,
                commits: 0
            })
            .latency_us(Kind::Read, 0.5)
            .samples,
            0
        );
    }

    #[test]
    fn scratch_directories_are_private_and_removed() {
        let (a, b) = (Scratch::new("t").unwrap(), Scratch::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }
}
