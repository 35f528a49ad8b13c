//! E3 — Observation 2: parent computation cost per scheme. "Even though the
//! function to find the parent node's identifier ... in rUID is more
//! complicated than the one in the original UID, since the computation
//! occurs mostly in main memory, the distinction is not significant."

#![forbid(unsafe_code)]

use bench::{default_partition, median_time, per_item, standard_tree, Table};
use ruid::prelude::*;
use ruid::{DeweyScheme, MultiRuidScheme, UidScheme};

fn main() {
    println!("E3: parent-identifier computation (median over the whole label set)\n");
    let table = Table::new(&["nodes", "scheme", "per parent()", "notes"], &[8, 18, 14, 30]);
    for &nodes in &[10_000usize, 50_000] {
        let doc = standard_tree(nodes, 42);
        let root = doc.root_element().unwrap();
        let all: Vec<NodeId> = doc.descendants(root).collect();
        let n = all.len();

        let uid = UidScheme::build(&doc);
        let uid_labels: Vec<_> = all.iter().map(|&x| uid.label_of(x)).collect();
        let t = median_time(9, || {
            uid_labels.iter().filter(|l| uid.parent_label(l).is_some()).count()
        });
        table.row(&[n.to_string(), "uid".into(), per_item(t, n), "(i-2)/k+1 on big ints".into()]);

        let dewey = DeweyScheme::build(&doc);
        let dewey_labels: Vec<_> = all.iter().map(|&x| dewey.label_of(x)).collect();
        let t = median_time(9, || {
            dewey_labels.iter().filter(|l| l.parent().is_some()).count()
        });
        table.row(&[n.to_string(), "dewey".into(), per_item(t, n), "drop last component".into()]);

        let ruid2 = Ruid2Scheme::build(&doc, &default_partition());
        let ruid_labels: Vec<_> = all.iter().map(|&x| ruid2.label_of(x)).collect();
        let t = median_time(9, || {
            ruid_labels.iter().filter(|l| ruid2.rparent(l).is_some()).count()
        });
        table.row(&[
            n.to_string(),
            "ruid2".into(),
            per_item(t, n),
            "Fig. 6 with in-memory K".into(),
        ]);

        let multi = MultiRuidScheme::build_with_levels(&doc, &default_partition(), 3);
        let multi_labels: Vec<_> = all.iter().map(|&x| multi.label_of(x)).collect();
        let t = median_time(5, || {
            multi_labels.iter().filter(|l| multi.parent_label(l).is_some()).count()
        });
        table.row(&[
            n.to_string(),
            "ruid 3-level".into(),
            per_item(t, n),
            "decode/encode across levels".into(),
        ]);

        // DOM parent pointer as the in-memory floor.
        let t = median_time(9, || all.iter().filter(|&&x| doc.parent(x).is_some()).count());
        table.row(&[n.to_string(), "dom pointer".into(), per_item(t, n), "(floor)".into()]);
    }
    println!("\nexpected shape: uid (bigint alloc) slowest, ruid2 within a small factor");
    println!("of dewey/dom — 'the distinction is not significant' in main memory");
}
