//! E5 — the Section 3.5 axis routines: throughput of rchildren /
//! rdescendant / rsiblings / rpreceding / rfollowing / LCA / order
//! decisions, against DOM traversal.

#![forbid(unsafe_code)]

use bench::{all_ruid_labels, default_partition, median_time, per_item, xmark_tree, Table};
use ruid::prelude::*;

fn main() {
    let doc = xmark_tree(20_000, 42);
    let root = doc.root_element().unwrap();
    let scheme = Ruid2Scheme::build(&doc, &default_partition());
    let nodes: Vec<NodeId> = doc.descendants(root).collect();
    let labels = all_ruid_labels(&doc, &scheme);
    let sample: Vec<usize> = (0..nodes.len()).step_by(41).collect();
    let pairs: Vec<(usize, usize)> =
        sample.windows(2).map(|w| (w[0], w[1])).collect();

    println!(
        "E5: axis routines on XMark-lite ({} nodes, {} areas, κ = {})\n",
        nodes.len(),
        scheme.area_count(),
        scheme.kappa()
    );
    let table = Table::new(&["routine", "items", "median total", "per call"], &[22, 8, 13, 10]);

    let emit = |name: &str, items: usize, t: std::time::Duration| {
        table.row(&[
            name.to_string(),
            items.to_string(),
            format!("{t:.2?}"),
            per_item(t, items),
        ]);
    };

    let t = median_time(7, || {
        sample.iter().map(|&i| scheme.rchildren(&labels[i]).len()).sum::<usize>()
    });
    emit("rchildren", sample.len(), t);
    let t = median_time(7, || {
        sample.iter().map(|&i| doc.children(nodes[i]).count()).sum::<usize>()
    });
    emit("dom children", sample.len(), t);

    let t = median_time(5, || {
        sample.iter().map(|&i| scheme.rdescendants(&labels[i]).len()).sum::<usize>()
    });
    emit("rdescendants", sample.len(), t);
    let t = median_time(5, || {
        sample.iter().map(|&i| doc.descendants(nodes[i]).count()).sum::<usize>()
    });
    emit("dom descendants", sample.len(), t);

    let t = median_time(7, || {
        sample.iter().map(|&i| scheme.rancestors(&labels[i]).len()).sum::<usize>()
    });
    emit("rancestors", sample.len(), t);

    let t = median_time(7, || {
        sample
            .iter()
            .map(|&i| scheme.rpsiblings(&labels[i]).len() + scheme.rfsiblings(&labels[i]).len())
            .sum::<usize>()
    });
    emit("rsiblings (both)", sample.len(), t);

    let t = median_time(3, || {
        sample.iter().step_by(9).map(|&i| scheme.rpreceding(&labels[i]).len()).sum::<usize>()
    });
    emit("rpreceding", sample.len() / 9 + 1, t);
    let t = median_time(3, || {
        sample.iter().step_by(9).map(|&i| scheme.rfollowing(&labels[i]).len()).sum::<usize>()
    });
    emit("rfollowing", sample.len() / 9 + 1, t);

    let t = median_time(7, || {
        pairs.iter().map(|&(a, b)| scheme.rlca(&labels[a], &labels[b]).global).sum::<u64>()
    });
    emit("rlca (Fig. 10)", pairs.len(), t);

    let t = median_time(7, || {
        pairs
            .iter()
            .map(|&(a, b)| scheme.cmp_order(&labels[a], &labels[b]) as i64)
            .sum::<i64>()
    });
    emit("cmp_order labels", pairs.len(), t);
    let t = median_time(7, || {
        pairs
            .iter()
            .map(|&(a, b)| doc.cmp_document_order(nodes[a], nodes[b]) as i64)
            .sum::<i64>()
    });
    emit("cmp_order dom walk", pairs.len(), t);

    let t = median_time(7, || {
        pairs
            .iter()
            .filter(|&&(a, b)| scheme.label_is_ancestor(&labels[a], &labels[b]))
            .count()
    });
    emit("is_ancestor labels", pairs.len(), t);
    let t = median_time(7, || {
        pairs.iter().filter(|&&(a, b)| doc.is_ancestor_of(nodes[a], nodes[b])).count()
    });
    emit("is_ancestor dom walk", pairs.len(), t);

    println!("\nall routines run on labels + the in-memory (κ, K) only — no tree access");
}
