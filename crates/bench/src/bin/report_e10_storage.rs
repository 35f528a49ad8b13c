//! E10 — Sections 2.1 and 4: identifier-sorted storage and table selection.
//! The (global, local) sort makes an area one contiguous range; partitioned
//! tables let the global index pick the files a query touches.

#![forbid(unsafe_code)]

use bench::{default_partition, median_time, xmark_tree, Table};
use ruid::prelude::*;
use ruid::{PartitionedStore, XmlStore};

fn main() {
    let doc = xmark_tree(30_000, 42);
    let root = doc.root_element().unwrap();
    let scheme = Ruid2Scheme::build(&doc, &default_partition());
    let n = doc.descendants(root).count();
    let mut store = XmlStore::in_memory();
    store.load_document(&doc, &scheme);
    println!(
        "E10: storage on XMark-lite ({n} nodes, {} areas, {} pages)\n",
        scheme.area_count(),
        store.page_count()
    );

    // Point lookups.
    let labels: Vec<Ruid2> =
        doc.descendants(root).step_by(17).map(|x| scheme.label_of(x)).collect();
    let t = median_time(7, || labels.iter().filter(|l| store.get(l).is_some()).count());
    println!(
        "point lookups: {} lookups in {t:.2?} ({:.1} µs each)\n",
        labels.len(),
        t.as_micros() as f64 / labels.len() as f64
    );

    // Subtree retrieval: bulk area ranges vs per-node point gets.
    let areas: Vec<u64> = scheme.ktable().rows().iter().map(|r| r.global).collect();
    let mid = areas[areas.len() / 3];
    let (rows, scans) = store.scan_subtree(&scheme, mid);
    let t_range = median_time(7, || store.scan_subtree(&scheme, mid).0.len());
    let subtree_labels: Vec<Ruid2> = {
        let mid_root_label = {
            let node = scheme.area_root_node(mid).unwrap();
            scheme.label_of(node)
        };
        scheme.rdescendants(&mid_root_label)
    };
    let t_point = median_time(7, || {
        subtree_labels.iter().filter(|l| store.get(l).is_some()).count()
    });
    println!(
        "subtree of area {mid}: {} rows — {scans} range scans in {t_range:.2?} vs {} point \
         gets in {t_point:.2?}\n",
        rows.len(),
        subtree_labels.len()
    );

    // Partitioned tables: tables touched per subtree query.
    println!("table selection: subtree queries against partitioned stores");
    let table = Table::new(
        &["tables", "area", "rows", "touched", "scan time"],
        &[7, 10, 8, 8, 11],
    );
    for &n_tables in &[1usize, 4, 8, 16] {
        let partitioned = PartitionedStore::load(&doc, &scheme, n_tables);
        for probe in [areas[areas.len() / 3], areas[areas.len() - 1]] {
            let (rows, touched) = partitioned.scan_subtree(&scheme, probe);
            let t = median_time(5, || partitioned.scan_subtree(&scheme, probe).0.len());
            table.row(&[
                partitioned.table_count().to_string(),
                probe.to_string(),
                rows.len().to_string(),
                format!("{touched}/{}", partitioned.table_count()),
                format!("{t:.2?}"),
            ]);
        }
    }
    println!("\ndeep-area queries touch a shrinking fraction of the tables as the");
    println!("partition count grows — the global index does the file selection");
}
