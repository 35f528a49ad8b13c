//! Property tests of the DESIGN.md invariants I1–I4 on seeded random
//! trees and edit scripts: a fixed ladder of SplitMix64 seeds per
//! property, so every run checks the same cases and a failure names the
//! seed that replays it.

use ruid_core::{PartitionConfig, PartitionStrategy, Ruid2Scheme};
use schemes::NumberingScheme;
use xmldom::{Document, NodeId};
use xmlgen::SplitMix64;

const CASES: u64 = 256;

/// Names the case's seed when the property panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing seed: {:#x}", self.0);
        }
    }
}

/// Runs `property` once per seed `base..base + CASES`.
fn for_each_seed(base: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in base..base + CASES {
        let _named = SeedOnPanic(seed);
        property(&mut SplitMix64::seed_from_u64(seed));
    }
}

/// A tree shape as a parent vector: entry i (for node i+1) is the index of
/// its parent among nodes 0..=i. Always a valid tree.
fn parent_vec(rng: &mut SplitMix64, max_nodes: usize) -> Vec<usize> {
    let len = rng.gen_range(0..max_nodes);
    (0..len).map(|i| rng.gen_range(0..=i)).collect()
}

fn build_doc(parents: &[usize]) -> (Document, Vec<NodeId>) {
    let mut doc = Document::new();
    let root = doc.create_element("n0");
    let doc_root = doc.root();
    doc.append_child(doc_root, root);
    let mut nodes = vec![root];
    for (i, &p) in parents.iter().enumerate() {
        let node = doc.create_element(&format!("n{}", i + 1));
        doc.append_child(nodes[p], node);
        nodes.push(node);
    }
    (doc, nodes)
}

fn config(rng: &mut SplitMix64) -> PartitionConfig {
    match rng.gen_range(0..3usize) {
        0 => PartitionConfig::by_depth(rng.gen_range(1..6usize)),
        1 => PartitionConfig::by_area_size(rng.gen_range(2..40usize)),
        _ => PartitionConfig {
            strategy: PartitionStrategy::ByDepth(rng.gen_range(1..6usize)),
            fanout_adjustment: false,
        },
    }
}

/// I1 + I2 + I3: parent, order and ancestry from labels alone agree
/// with the tree, for arbitrary shapes and partition configs.
#[test]
fn static_invariants() {
    for_each_seed(0x1000, |rng| {
        let (doc, nodes) = build_doc(&parent_vec(rng, 60));
        let Ok(scheme) = Ruid2Scheme::try_build(&doc, &config(rng)) else {
            // Deep degenerate shapes may overflow; that is a documented,
            // typed outcome, not a correctness failure.
            return;
        };
        scheme.check_consistency(&doc).unwrap();
        for (i, &a) in nodes.iter().enumerate() {
            let la = scheme.label_of(a);
            // I1 via check_consistency; spot-check I2/I3 against the tree.
            for &b in nodes.iter().skip(i + 1).step_by(3) {
                let lb = scheme.label_of(b);
                assert_eq!(scheme.label_is_ancestor(&la, &lb), doc.is_ancestor_of(a, b));
                assert_eq!(scheme.cmp_order(&la, &lb), doc.cmp_document_order(a, b));
            }
        }
    });
}

/// Axis routines agree with the DOM on arbitrary shapes.
#[test]
fn axes_match_dom() {
    for_each_seed(0x2000, |rng| {
        let (doc, nodes) = build_doc(&parent_vec(rng, 40));
        let Ok(scheme) = Ruid2Scheme::try_build(&doc, &config(rng)) else { return };
        for &n in nodes.iter().step_by(2) {
            let l = scheme.label_of(n);
            let children: Vec<_> = doc.children(n).map(|c| scheme.label_of(c)).collect();
            assert_eq!(scheme.rchildren(&l), children);
            let descendants: Vec<_> =
                doc.descendants(n).skip(1).map(|c| scheme.label_of(c)).collect();
            assert_eq!(scheme.rdescendants(&l), descendants);
            let fsib: Vec<_> = doc.following_siblings(n).map(|c| scheme.label_of(c)).collect();
            assert_eq!(scheme.rfsiblings(&l), fsib);
        }
    });
}

/// I4: invariants survive random edit scripts (inserts + deletes).
#[test]
fn update_invariants() {
    for_each_seed(0x3000, |rng| {
        let (mut doc, _) = build_doc(&parent_vec(rng, 30));
        let Ok(mut scheme) = Ruid2Scheme::try_build(&doc, &config(rng)) else { return };
        let root = doc.root_element().unwrap();
        for step in 0..rng.gen_range(1..25usize) {
            let attached: Vec<NodeId> = doc.descendants(root).collect();
            let target = attached[rng.gen_range(0..attached.len())];
            match rng.gen_range(0..4u8) {
                1 if target != root => {
                    let new = doc.create_element("ins");
                    doc.insert_before(target, new);
                    scheme.on_insert(&doc, new);
                }
                2 if target != root => {
                    let new = doc.create_element("ins");
                    doc.insert_after(target, new);
                    scheme.on_insert(&doc, new);
                }
                3 if target != root => {
                    let parent = doc.parent(target).unwrap();
                    doc.detach(target);
                    scheme.on_delete(&doc, parent, target);
                }
                _ => {
                    let new = doc.create_element("ins");
                    doc.append_child(target, new);
                    scheme.on_insert(&doc, new);
                }
            }
            scheme.check_consistency(&doc).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        // Final relational sweep.
        let nodes: Vec<NodeId> = doc.descendants(root).collect();
        for (i, &a) in nodes.iter().enumerate().step_by(2) {
            for (j, &b) in nodes.iter().enumerate().step_by(3) {
                let la = scheme.label_of(a);
                let lb = scheme.label_of(b);
                assert_eq!(scheme.cmp_order(&la, &lb), i.cmp(&j));
                assert_eq!(scheme.label_is_ancestor(&la, &lb), doc.is_ancestor_of(a, b));
            }
        }
    });
}
