//! Shared harness for the experiment suite (DESIGN.md E1–E10): standard
//! workloads, a micro-timer, and table printing for the report binaries
//! (`cargo run --release -p bench --bin report_e*`), which print the
//! paper-style tables (counts, bits, sizes, and median timings), one per
//! experiment. The service built around the scheme is measured by
//! `scoreboard/`, not here.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use ruid::prelude::*;
use ruid::{PartitionConfig as Pc, TreeGenConfig};

/// The standard random-tree workload: moderately bushy with fan-out skew,
/// the shape the paper's update discussion assumes.
pub fn standard_tree(nodes: usize, seed: u64) -> Document {
    ruid::random_tree(&TreeGenConfig {
        nodes,
        max_fanout: 8,
        fanout: ruid::FanoutDist::Geometric(0.35),
        depth_bias: 0.15,
        seed,
        ..Default::default()
    })
}

/// The XMark-lite workload scaled to roughly `nodes` nodes.
pub fn xmark_tree(nodes: usize, seed: u64) -> Document {
    ruid::xmark::generate(&ruid::xmark::XmarkConfig::scaled_to(nodes, seed))
}

/// The "high degree of recursion" workload (Observation 1).
pub fn deep_tree(depth: usize, fanout: usize) -> Document {
    ruid::deep_tree(depth, fanout)
}

/// The default rUID partition used across experiments (ablated in E7).
pub fn default_partition() -> Pc {
    Pc::by_depth(3)
}

/// Median wall-clock time of `f` over `rounds` runs (after one warm-up).
/// Coarse by design: the reports use this to print comparable medians
/// alongside counted quantities.
pub fn median_time<T>(rounds: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut samples: Vec<Duration> = (0..rounds.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Nanoseconds-per-item formatting for throughput rows.
pub fn per_item(total: Duration, items: usize) -> String {
    if items == 0 {
        return "-".into();
    }
    let ns = total.as_nanos() as f64 / items as f64;
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// A minimal fixed-width table printer for the report binaries.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let table = Table { widths: widths.to_vec() };
        table.row(headers);
        println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum::<usize>()));
        table
    }

    /// Prints one row.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        let mut line = String::new();
        for (cell, width) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:>width$}  ", cell.as_ref(), width = width));
        }
        println!("{}", line.trim_end());
    }
}

/// Every (node, label) pair of a built rUID scheme, for label-level benches.
pub fn all_ruid_labels(doc: &Document, scheme: &Ruid2Scheme) -> Vec<Ruid2> {
    let root = doc.root_element().unwrap_or_else(|| doc.root());
    doc.descendants(root).map(|n| scheme.label_of(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = standard_tree(500, 1);
        let b = standard_tree(500, 1);
        assert!(a.subtree_eq(a.root(), &b, b.root()));
    }

    #[test]
    fn median_time_returns_positive() {
        let d = median_time(3, || (0..1000u64).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn per_item_formats() {
        assert!(per_item(Duration::from_nanos(500), 1).ends_with("ns"));
        assert!(per_item(Duration::from_micros(500), 1).ends_with("µs"));
        assert!(per_item(Duration::from_millis(50), 1).ends_with("ms"));
        assert_eq!(per_item(Duration::from_secs(1), 0), "-");
    }
}
