//! E2 — Section 3.1 / Observation 1: identifier growth and storage cost.
//! The original UID's identifiers need `depth * log2(k)` bits; rUID grades
//! the fan-out per area, keeping every component machine-word sized.

#![forbid(unsafe_code)]

use bench::{default_partition, standard_tree, Table};
use ruid::prelude::*;
use ruid::{kary, DeweyScheme, UidScheme};

fn main() {
    println!("E2a: capacity of 64-bit identifiers under the original UID");
    let table = Table::new(&["fan-out k", "max depth", "max nodes (approx)"], &[9, 9, 22]);
    for k in [2u64, 3, 8, 32, 100, 832] {
        let mut h = 0u32;
        while kary::capacity(k, h + 1).bits() <= 64 {
            h += 1;
        }
        table.row(&[k.to_string(), h.to_string(), kary::capacity(k, h).to_string()]);
    }
    println!("  (k = 832 is the fan-out of the XMark-lite people section)\n");

    println!("E2b: identifier width on 'high degree of recursion' trees");
    let table = Table::new(
        &["depth", "fanout", "nodes", "UID bits", "ruid2 bits", "dewey bytes"],
        &[6, 6, 7, 9, 10, 11],
    );
    for (depth, fanout) in [(10usize, 4usize), (20, 4), (40, 4), (80, 4), (160, 4), (40, 8)] {
        let doc = ruid::deep_tree(depth, fanout);
        let root = doc.root_element().unwrap();
        let nodes = doc.descendants(root).count();
        let uid = UidScheme::build(&doc);
        let area_depth = depth.div_ceil(20).max(3);
        let ruid2 = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(area_depth));
        let dewey = DeweyScheme::build(&doc);
        let max_dewey = doc
            .descendants(root)
            .map(|n| dewey.label_of(n).byte_len())
            .max()
            .unwrap();
        table.row(&[
            depth.to_string(),
            fanout.to_string(),
            nodes.to_string(),
            uid.bits_required().to_string(),
            ruid2.label_width_bits().to_string(),
            max_dewey.to_string(),
        ]);
    }
    println!("  UID bits grow linearly with depth (k^depth); rUID stays flat\n");

    println!("E2c: total label storage on a realistic document");
    let table = Table::new(&["nodes", "scheme", "bytes/label", "total KiB"], &[8, 8, 12, 10]);
    for &nodes in &[10_000usize, 50_000] {
        let doc = standard_tree(nodes, 3);
        let root = doc.root_element().unwrap();
        let n = doc.descendants(root).count();

        let uid = UidScheme::build(&doc);
        let uid_bytes: usize = doc
            .descendants(root)
            .map(|nd| uid.label_of(nd).to_le_bytes().len().max(1))
            .sum();
        table.row(&[
            n.to_string(),
            "uid".into(),
            format!("{:.1}", uid_bytes as f64 / n as f64),
            (uid_bytes / 1024).to_string(),
        ]);

        let dewey = DeweyScheme::build(&doc);
        let dewey_bytes = dewey.total_label_bytes();
        table.row(&[
            n.to_string(),
            "dewey".into(),
            format!("{:.1}", dewey_bytes as f64 / n as f64),
            (dewey_bytes / 1024).to_string(),
        ]);

        let ruid2 = Ruid2Scheme::build(&doc, &default_partition());
        let ruid_bytes = n * Ruid2::ENCODED_LEN;
        table.row(&[
            n.to_string(),
            "ruid2".into(),
            format!("{:.1}", ruid_bytes as f64 / n as f64),
            (ruid_bytes / 1024).to_string(),
        ]);
        let _ = ruid2;
    }
    println!("\nE2d: rUID global parameters stay small enough for main memory");
    let table = Table::new(&["nodes", "areas", "kappa", "table K bytes"], &[8, 8, 7, 14]);
    for &nodes in &[10_000usize, 100_000] {
        let doc = standard_tree(nodes, 3);
        let scheme = Ruid2Scheme::build(&doc, &default_partition());
        table.row(&[
            nodes.to_string(),
            scheme.area_count().to_string(),
            scheme.kappa().to_string(),
            scheme.ktable().memory_bytes().to_string(),
        ]);
    }
}
