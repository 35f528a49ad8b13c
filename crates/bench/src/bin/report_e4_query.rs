//! E4 — Observation 3: XPath query processing speed. The paper compares
//! rUID-based query evaluation (labels + main-memory parameters) against
//! the alternatives and calls it "quite competitive".

#![forbid(unsafe_code)]

use bench::{median_time, xmark_tree, Table};
use ruid::prelude::*;
use ruid::{NameIndex, NameIndexed, UidScheme};

const QUERIES: &[&str] = &[
    "/regions/europe/item",
    "//item/name",
    "//item[@id='item7']",
    "//person[address]/name",
    "//open_auction[bidder/increase > 10]",
    "//item[location = 'asia']",
    "//open_auction[count(bidder) >= 2]/current",
    "//person[profile/@income > 50000]/emailaddress",
];

fn main() {
    for &target in &[10_000usize, 30_000] {
        let doc = xmark_tree(target, 42);
        let root = doc.root_element().unwrap();
        let n = doc.descendants(root).count();
        let uid_scheme = UidScheme::build(&doc);
        let ruid_scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(3));
        let index = NameIndex::build(&doc);

        let tree_eval = Evaluator::new(&doc, TreeAxes::new(&doc));
        let uid_eval = Evaluator::new(&doc, UidAxes::new(&uid_scheme));
        let ruid_eval = Evaluator::new(&doc, RuidAxes::new(&ruid_scheme));
        let idx_eval =
            Evaluator::new(&doc, NameIndexed::new(RuidAxes::new(&ruid_scheme), &doc, &index));

        println!(
            "E4: query suite on XMark-lite, {n} nodes (uid k = {}, ruid κ = {}, {} areas)\n",
            uid_scheme.k(),
            ruid_scheme.kappa(),
            ruid_scheme.area_count()
        );
        let table = Table::new(
            &["query", "hits", "tree", "uid", "ruid", "ruid+nameidx"],
            &[44, 5, 10, 10, 10, 12],
        );
        for q in QUERIES {
            let hits = tree_eval.query(q).unwrap().len();
            assert_eq!(uid_eval.query(q).unwrap().len(), hits);
            assert_eq!(ruid_eval.query(q).unwrap().len(), hits);
            assert_eq!(idx_eval.query(q).unwrap().len(), hits);
            let rounds = if target > 20_000 { 3 } else { 5 };
            let t_tree = median_time(rounds, || tree_eval.query(q).unwrap().len());
            let t_uid = median_time(if target > 20_000 { 1 } else { 3 }, || {
                uid_eval.query(q).unwrap().len()
            });
            let t_ruid = median_time(rounds, || ruid_eval.query(q).unwrap().len());
            let t_idx = median_time(rounds, || idx_eval.query(q).unwrap().len());
            table.row(&[
                q.to_string(),
                hits.to_string(),
                format!("{t_tree:.2?}"),
                format!("{t_uid:.2?}"),
                format!("{t_ruid:.2?}"),
                format!("{t_idx:.2?}"),
            ]);
        }
        println!();
    }
    println!("expected shape: uid is slowest (k candidate probes per node on wide");
    println!("documents); ruid beats uid by the fan-out-grading factor; the name-");
    println!("indexed strategy (the paper's condition-first plan) is competitive");
    println!("with direct DOM traversal.");
}
