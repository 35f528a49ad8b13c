//! E6 — ablation of the Section 2.3 fan-out adjustment: without it, a
//! native partition can give the frame a fan-out κ far above the source
//! tree's, inflating global indices; with it, κ is provably bounded.

#![forbid(unsafe_code)]

use bench::Table;
use ruid::prelude::*;
use ruid::{Partition, PartitionConfig, PartitionStrategy, Ruid2Scheme, TreeGenConfig};

fn main() {
    println!("E6: fan-out adjustment ablation (Section 2.3, Fig. 7)\n");
    let table = Table::new(
        &["workload", "tree k", "depth d", "κ off", "κ on", "bits off", "bits on"],
        &[16, 7, 8, 8, 7, 9, 8],
    );
    let workloads: Vec<(&str, Document)> = vec![
        (
            "skewed deep",
            ruid::random_tree(&TreeGenConfig {
                nodes: 5_000,
                max_fanout: 3,
                depth_bias: 0.5,
                seed: 5,
                ..Default::default()
            }),
        ),
        (
            "skewed geometric",
            ruid::random_tree(&TreeGenConfig {
                nodes: 5_000,
                max_fanout: 6,
                fanout: ruid::FanoutDist::Geometric(0.5),
                depth_bias: 0.3,
                seed: 6,
                ..Default::default()
            }),
        ),
        ("xmark", ruid::xmark::generate(&ruid::xmark::XmarkConfig::scaled_to(5_000, 7))),
    ];
    for (name, doc) in &workloads {
        let root = doc.root_element().unwrap();
        let tree_k = TreeStats::collect(doc, root).max_fanout.max(1) as u64;
        for d in [2usize, 3, 4] {
            let off_cfg = PartitionConfig {
                strategy: PartitionStrategy::ByDepth(d),
                fanout_adjustment: false,
            };
            let on_cfg = PartitionConfig::by_depth(d);
            let p_off = Partition::compute(doc, root, &off_cfg);
            let p_on = Partition::compute(doc, root, &on_cfg);
            let kappa_off = p_off.frame_max_fanout(doc);
            let kappa_on = p_on.frame_max_fanout(doc);
            let bits = |cfg: &PartitionConfig| match Ruid2Scheme::try_build_at(doc, root, cfg) {
                Ok(s) => s.label_width_bits().to_string(),
                Err(_) => "ovfl".to_string(),
            };
            table.row(&[
                name.to_string(),
                tree_k.to_string(),
                d.to_string(),
                kappa_off.to_string(),
                kappa_on.to_string(),
                bits(&off_cfg),
                bits(&on_cfg),
            ]);
            assert!(kappa_on <= tree_k, "adjustment must bound κ by the tree fan-out");
        }
    }
    println!("\nwith the adjustment, κ ≤ tree fan-out always holds (the Fig. 7 guarantee);");
    println!("'ovfl' marks configurations whose unadjusted frame enumeration overflows u64");
}
