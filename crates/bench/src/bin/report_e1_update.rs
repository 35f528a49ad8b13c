//! E1 — Fig. 1 / Section 3.2: identifiers relabelled by one insertion, per
//! scheme, swept over document size and insertion depth. The paper's claim:
//! "the scope of identifier update due to a node insertion is reduced by a
//! magnitude of two" (area-local instead of document-global).

#![forbid(unsafe_code)]

use bench::{default_partition, standard_tree, Table};
use ruid::prelude::*;
use ruid::{ContainmentScheme, DeweyScheme, PrePostScheme, UidScheme};

/// Inserts a new first child at `depth` below the root; returns relabels.
fn insertion_cost<S: NumberingScheme>(
    doc: &mut Document,
    scheme: &mut S,
    depth: usize,
) -> (usize, bool) {
    let root = doc.root_element().unwrap();
    let mut target = root;
    for _ in 0..depth {
        match doc.first_child(target) {
            Some(c) => target = c,
            None => break,
        }
    }
    let new = doc.create_element("new");
    match doc.first_child(target) {
        Some(first) => doc.insert_before(first, new),
        None => doc.append_child(target, new),
    }
    let stats = scheme.on_insert(doc, new);
    (stats.relabeled, stats.full_rebuild)
}

fn main() {
    println!("E1: identifiers relabelled by one insertion (first-child position)");
    println!("paper claim: rUID confines the damage to one UID-local area\n");
    let table = Table::new(
        &["nodes", "depth", "uid", "dewey", "prepost", "contain", "ruid2"],
        &[8, 6, 9, 9, 9, 9, 9],
    );
    for &nodes in &[1_000usize, 10_000, 50_000] {
        for &depth in &[0usize, 2, 5] {
            let mut row: Vec<String> = vec![nodes.to_string(), depth.to_string()];
            {
                let mut doc = standard_tree(nodes, 7);
                let mut s = UidScheme::build(&doc);
                let (cost, rebuild) = insertion_cost(&mut doc, &mut s, depth);
                row.push(format!("{cost}{}", if rebuild { "*" } else { "" }));
            }
            {
                let mut doc = standard_tree(nodes, 7);
                let mut s = DeweyScheme::build(&doc);
                row.push(insertion_cost(&mut doc, &mut s, depth).0.to_string());
            }
            {
                let mut doc = standard_tree(nodes, 7);
                let mut s = PrePostScheme::build(&doc);
                row.push(insertion_cost(&mut doc, &mut s, depth).0.to_string());
            }
            {
                let mut doc = standard_tree(nodes, 7);
                let mut s = ContainmentScheme::build(&doc);
                row.push(insertion_cost(&mut doc, &mut s, depth).0.to_string());
            }
            {
                let mut doc = standard_tree(nodes, 7);
                let mut s = Ruid2Scheme::build(&doc, &default_partition());
                row.push(insertion_cost(&mut doc, &mut s, depth).0.to_string());
            }
            table.row(&row);
        }
    }
    println!("\n(*) = the insertion overflowed the global fan-out: full renumbering");

    println!("\nE1b: fan-out overflow — cost of the k+1-th child");
    let table = Table::new(&["nodes", "uid", "ruid2"], &[8, 10, 10]);
    for &nodes in &[1_000usize, 10_000, 50_000] {
        let mut row = vec![nodes.to_string()];
        for variant in ["uid", "ruid"] {
            let mut doc = standard_tree(nodes, 11);
            let root = doc.root_element().unwrap();
            let full = doc
                .descendants(root)
                .find(|&n| doc.children(n).count() == 8)
                .expect("a node at max fan-out");
            let new = doc.create_element("extra");
            if variant == "uid" {
                let mut s = UidScheme::build(&doc);
                doc.append_child(full, new);
                let stats = s.on_insert(&doc, new);
                row.push(format!(
                    "{}{}",
                    stats.relabeled,
                    if stats.full_rebuild { "*" } else { "" }
                ));
            } else {
                let mut s = Ruid2Scheme::build(&doc, &default_partition());
                doc.append_child(full, new);
                let stats = s.on_insert(&doc, new);
                row.push(format!(
                    "{}{}",
                    stats.relabeled,
                    if stats.full_rebuild { "*" } else { "" }
                ));
            }
        }
        table.row(&row);
    }
    println!("\n(*) = full rebuild; rUID enlarges only the affected area");
}
