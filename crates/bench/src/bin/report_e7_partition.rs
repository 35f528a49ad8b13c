//! E7 — partition-granularity ablation: the paper leaves the choice of
//! UID-local areas open; this sweep shows the trade-off it implies. Finer
//! areas mean cheaper updates but a larger table K and longer rparent
//! chains; coarser areas approach the original UID.

#![forbid(unsafe_code)]

use bench::{median_time, per_item, standard_tree, Table};
use ruid::prelude::*;
use ruid::{PartitionConfig, PartitionStrategy};

fn main() {
    let nodes = 20_000usize;
    let doc = standard_tree(nodes, 42);
    let root = doc.root_element().unwrap();
    let n = doc.descendants(root).count();
    println!("E7: partition granularity sweep on a {n}-node document\n");
    let table = Table::new(
        &["partition", "areas", "K bytes", "κ", "insert cost", "parent", "anc chain"],
        &[16, 8, 10, 6, 12, 9, 10],
    );
    let configs: Vec<(String, PartitionConfig)> = [1usize, 2, 3, 4, 6, 8]
        .iter()
        .map(|&d| {
            (format!("by-depth {d}"), PartitionConfig {
                strategy: PartitionStrategy::ByDepth(d),
                fanout_adjustment: true,
            })
        })
        .chain([16usize, 64, 256].iter().map(|&s| {
            (format!("by-size {s}"), PartitionConfig::by_area_size(s))
        }))
        .chain(std::iter::once(("single area".to_string(), PartitionConfig::single_area())))
        .collect();

    for (name, config) in configs {
        let scheme = match Ruid2Scheme::try_build(&doc, &config) {
            Ok(s) => s,
            Err(e) => {
                table.row(&[name, format!("({e})"), String::new(), String::new(), String::new(), String::new(), String::new()]);
                continue;
            }
        };
        // Update cost: insert a first child of the root.
        let insert_cost = {
            let mut doc2 = standard_tree(nodes, 42);
            let mut s2 = Ruid2Scheme::build(&doc2, &config);
            let r2 = doc2.root_element().unwrap();
            let first = doc2.first_child(r2).unwrap();
            let new = doc2.create_element("new");
            doc2.insert_before(first, new);
            s2.on_insert(&doc2, new).relabeled
        };
        // rparent latency over all labels.
        let labels: Vec<Ruid2> = doc.descendants(root).map(|x| scheme.label_of(x)).collect();
        let t_parent = median_time(7, || {
            labels.iter().filter(|l| scheme.rparent(l).is_some()).count()
        });
        let t_chain = median_time(5, || {
            labels.iter().map(|l| scheme.rancestors(l).len()).sum::<usize>()
        });
        table.row(&[
            name,
            scheme.area_count().to_string(),
            scheme.ktable().memory_bytes().to_string(),
            scheme.kappa().to_string(),
            insert_cost.to_string(),
            per_item(t_parent, labels.len()),
            per_item(t_chain, labels.len()),
        ]);
    }
    println!("\nexpected shape: insert cost falls as areas shrink; K memory grows with");
    println!("area count; 'single area' reproduces the original UID's update cost");
}
