//! The four fixed workloads. Each has an end-to-end run (`run`: real
//! loopback sockets, one client thread, tracing off) and a traced run
//! (`trace`: a short wire pass for the production counters, then the same
//! script replayed in-process with a span around every layer call).

pub mod read_cold;
pub mod read_hot;
pub mod restart_catchup;
pub mod write_mixed;

use ruid::service::proto::Engine;
use ruid::service::wire::{WireRequest, WireResponse};
use ruid::BinaryClient;

use crate::harness::Check;
use crate::stats::Sliced;

/// How much work one run does. `full` is what `BENCHMARK.json` times;
/// `smoke` is the same code at about a hundredth of the size, for the
/// schema-and-correctness test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Length of the measured section, seconds.
    pub seconds: f64,
    /// Target node count of the XMark document.
    pub nodes: usize,
    /// Distinct queries in the `read_cold` pool.
    pub pool: usize,
    /// Times the set-up is repeated (the median is reported).
    pub setup_repeats: usize,
    /// Untimed warm-up reads before `read_cold` and `write_mixed`.
    pub warm_reads: usize,
    /// Untimed warm-up batches (32 requests each) before `read_hot`.
    pub warm_batches: usize,
    /// Pool queries checked against the DOM-walk oracle (engine `tree`).
    pub oracle_sample: usize,
    /// Reads after each cold start and each catch-up.
    pub burst: usize,
    /// Records in the restart fixture's WAL tail.
    pub tail: usize,
    /// Traced run: reads replayed in-process on the 150k workloads.
    pub replay_reads: usize,
    /// Traced run: `read_hot` requests replayed in-process.
    pub replay_hot: usize,
    /// Traced run: `write_mixed` rounds, on the wire and in-process.
    pub replay_rounds: usize,
    /// Traced run: seconds of each wire pass and front-end comparison.
    pub wire_seconds: f64,
}

impl Scale {
    /// The timed scale, with a measured section of `seconds`.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            nodes: 150_000,
            pool: 4096,
            setup_repeats: 5,
            warm_reads: 256,
            warm_batches: 2048,
            oracle_sample: 256,
            burst: 256,
            tail: 4,
            replay_reads: 1_200,
            replay_hot: 4_096,
            replay_rounds: 4,
            wire_seconds: 1.0,
        }
    }

    /// About 1/100 of [`Scale::full`]: all four workloads in a few seconds.
    pub fn smoke() -> Scale {
        Scale {
            seconds: 0.25,
            nodes: 1_500,
            pool: 96,
            setup_repeats: 1,
            warm_reads: 8,
            warm_batches: 4,
            oracle_sample: 8,
            burst: 8,
            tail: 4,
            replay_reads: 48,
            replay_hot: 64,
            replay_rounds: 1,
            wire_seconds: 0.05,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value, in the unit `spec` gives the metric.
    pub value: f64,
    /// Inter-quartile spread of the slices it is the median of, when it
    /// was taken over slices.
    pub spread: Option<f64>,
    /// Samples behind it (0 for counters and ratios).
    pub samples: usize,
}

impl Measured {
    /// A number that is not a slice median (a counter, a ratio, a sum).
    pub fn plain(value: f64) -> Measured {
        Measured {
            value,
            spread: None,
            samples: 0,
        }
    }
}

impl From<Sliced> for Measured {
    fn from(s: Sliced) -> Measured {
        Measured {
            value: s.value,
            spread: Some(s.spread),
            samples: s.samples,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Attempts and failures, oracle and fingerprint checks included.
    pub check: Check,
    /// Metrics by name: the end-to-end set, or the per-layer set.
    pub metrics: Vec<(&'static str, Measured)>,
    /// Operation counts of the measured section, for the run header.
    pub op_counts: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub(crate) fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            check: Check::default(),
            metrics: Vec::new(),
            op_counts: Vec::new(),
        }
    }

    pub(crate) fn set(&mut self, name: &'static str, value: impl Into<Measured>) {
        self.metrics.push((name, value.into()));
    }

    pub(crate) fn set_plain(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Measured::plain(value)));
    }
}

/// One synchronous binary `QUERY` with an explicit engine.
pub(crate) fn query_with(
    client: &mut BinaryClient,
    doc: u64,
    engine: Engine,
    xpath: &str,
) -> std::io::Result<String> {
    let id = client.send(&WireRequest::Query {
        doc,
        engine,
        xpath: xpath.to_owned(),
    })?;
    client.flush()?;
    let frame = client.recv()?;
    match frame.response {
        WireResponse::Line(line) if frame.id == id => Ok(line),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request {id} answered by frame {}: {other:?}", frame.id),
        )),
    }
}

/// FNV-1a of a reply: lets `read_cold` remember 4096 replies (some over
/// 100 KB) as 8 bytes each.
pub(crate) fn reply_hash(reply: &str) -> u64 {
    reply.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The set-ups after the first. A run sets up once, measures, reads
/// `VmHWM`, tears down, and only then repeats the set-up `repeats - 1`
/// more times for the median: set-ups done before measuring would leave
/// the peak resident size to the allocator's luck with several
/// generations of freed bundles.
pub(crate) fn repeat_setups<T>(
    repeats: usize,
    setups: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
    mut tear_down: impl FnMut(T),
) -> Result<(), String> {
    for _ in 1..repeats {
        let (state, seconds) = set_up()?;
        setups.push(seconds);
        tear_down(state);
    }
    Ok(())
}

/// Median of the repeated set-up times, in seconds, with their spread.
pub(crate) fn setup_seconds(samples: &[f64]) -> Measured {
    Measured {
        value: crate::stats::median(samples),
        spread: (samples.len() > 1).then(|| crate::stats::spread(samples)),
        samples: samples.len(),
    }
}

/// `count` indices spread evenly over `0..len` — the oracle sample, so
/// every template class is checked in proportion to its share.
pub(crate) fn evenly_spaced(len: usize, count: usize) -> impl Iterator<Item = usize> {
    let count = count.min(len).max(1);
    (0..count).map(move |i| i * len / count)
}
