//! The path summary and the name index across commit generations, driven
//! through `LoadedDoc::apply_update` on seeded XMark documents:
//!
//! 1. **sharing** — a commit copies only the summary paths and name lists
//!    it writes and shares every other one with the generation it was
//!    staged from (`Arc::ptr_eq`, through `#[doc(hidden)]` hooks): an
//!    INSERT on an existing path copies that path (and its parent's when
//!    the parent's string-value is re-filed), a grafting INSERT copies
//!    the parent's path and adds one, a pruning DELETE copies the
//!    parent's path, and each copies at most one name list;
//! 2. **growth** — a thousand insert/delete cycles of a brand-new name
//!    under seeded parents leave the summary equal to a rebuild after
//!    every commit, with path counts equal and slots bounded;
//! 3. **EXPLAIN** — after a grafting commit the live bundle explains
//!    exactly as a bundle derived afresh from the same tree.

use durable::{Applied, NodeContent, WalOp};
use plan::PathSummary;
use ruid_service::LoadedDoc;
use schemes::NumberingScheme;
use testkit::elements;
use xmldom::NodeId;
use xmlgen::SplitMix64;
use xpath::{Evaluator, TreeAxes};

const SEED: u64 = 0x5EED_2701;
const CYCLES: usize = 1_000;

fn xmark(nodes: usize) -> LoadedDoc {
    let xml = xmlgen::xmark::generate(&xmlgen::xmark::XmarkConfig::scaled_to(nodes, 42))
        .to_xml_string();
    LoadedDoc::build("xmark.xml", &xml, 3, false).unwrap()
}

fn named(loaded: &LoadedDoc, name: &str) -> Vec<NodeId> {
    elements(loaded).into_iter().filter(|&n| loaded.doc.tag_name(n) == Some(name)).collect()
}

fn insert(loaded: &LoadedDoc, parent: NodeId, position: u32, name: &str) -> WalOp {
    WalOp::Insert {
        doc_id: 1,
        parent: loaded.scheme.label_of(parent),
        position,
        content: NodeContent::Element { name: name.into(), attributes: vec![] },
    }
}

fn delete(loaded: &LoadedDoc, node: NodeId) -> WalOp {
    WalOp::Delete { doc_id: 1, label: loaded.scheme.label_of(node) }
}

/// Commits `op` on `base`: the next generation, and the node an INSERT
/// created.
fn commit(base: &LoadedDoc, op: &WalOp) -> (LoadedDoc, Option<NodeId>) {
    let (next, applied) = base.apply_update(op, base.generation + 1).unwrap();
    let node = match applied {
        Applied::Inserted { node, .. } => Some(node),
        _ => None,
    };
    (next, node)
}

fn sids(loaded: &LoadedDoc, nodes: &[NodeId]) -> Vec<u32> {
    let mut sids: Vec<u32> = nodes.iter().map(|&n| loaded.summary.sid(n).unwrap()).collect();
    sids.sort_unstable();
    sids
}

#[test]
fn a_commit_copies_only_the_paths_and_lists_it_writes() {
    let base = xmark(6_000);
    assert!(base.doc.node_count() >= 5_000, "{} nodes", base.doc.node_count());
    let (paths, lists) = (base.summary.path_count(), base.index.name_count());
    let item = named(&base, "item")[0];

    // An INSERT on an existing path, under a parent with element
    // children before and after: the new member's path only.
    let (next, node) = commit(&base, &insert(&base, item, 0, "incategory"));
    let node = node.unwrap();
    assert_eq!(next.summary.path_count(), paths, "incategory is an existing path");
    assert_eq!(next.summary.unshared_paths(&base.summary), sids(&next, &[node]));
    assert_eq!(next.index.shared_lists(&base.index), (lists - 1, lists));

    // An INSERT on an existing path under a posted leaf: the leaf's
    // string-value can no longer be lent, so it moves to its path's
    // unindexed list and the parent's path is copied too. (The first
    // commit grafts the path under one such leaf; the second reuses it
    // under another leaf of the same path.)
    let leaves: Vec<NodeId> =
        elements(&base).into_iter().filter(|&n| base.doc.simple_text(n).is_some()).collect();
    let (a, b) = leaves
        .iter()
        .enumerate()
        .find_map(|(i, &a)| {
            let sid = base.summary.sid(a);
            leaves[i + 1..].iter().find(|&&b| base.summary.sid(b) == sid).map(|&b| (a, b))
        })
        .expect("two posted leaves share a path");
    let (first, _) = commit(&base, &insert(&base, a, 0, "b"));
    let (next, node) = commit(&first, &insert(&first, b, 0, "b"));
    assert_eq!(next.summary.path_count(), first.summary.path_count());
    assert_eq!(next.summary.unshared_paths(&first.summary), sids(&next, &[b, node.unwrap()]));
    let first_lists = first.index.name_count();
    assert_eq!(next.index.shared_lists(&first.index), (first_lists - 1, first_lists));

    // A grafting INSERT: every pre-existing path but the parent's is
    // shared, and the new name's list is the one unshared list.
    let (grafted, promo) = commit(&base, &insert(&base, item, 0, "promo"));
    let promo = promo.unwrap();
    assert_eq!(grafted.summary.path_count(), paths + 1);
    assert_eq!(grafted.summary.unshared_paths(&base.summary), sids(&grafted, &[item, promo]));
    assert_eq!(grafted.index.shared_lists(&base.index), (lists, lists + 1));

    // The DELETE that prunes it writes the parent's path only.
    let (pruned, _) = commit(&grafted, &delete(&grafted, promo));
    assert_eq!(pruned.summary.path_count(), paths);
    assert_eq!(pruned.summary.unshared_paths(&grafted.summary), sids(&pruned, &[item]));
    assert_eq!(pruned.index.shared_lists(&grafted.index), (lists, lists));
}

/// The patched summary of `loaded` answers as a rebuild does.
fn assert_rebuilt(loaded: &LoadedDoc, ctx: &str) {
    let rebuilt = PathSummary::build(&loaded.doc);
    assert_eq!(
        loaded.summary.canonical(&loaded.doc),
        rebuilt.canonical(&loaded.doc),
        "patched summary drifted from a rebuild — {ctx}"
    );
    assert_eq!(loaded.summary.path_count(), rebuilt.path_count(), "{ctx}");
}

#[test]
fn a_thousand_graft_and_prune_cycles_match_a_rebuild_in_bounded_slots() {
    let mut loaded = xmark(600);
    let parents = elements(&loaded);
    let slots = loaded.summary.slot_count();
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for cycle in 0..CYCLES {
        let ctx = format!("failing seed: {SEED:#x}, cycle {cycle}");
        let parent = parents[rng.gen_range(0..parents.len())];
        let position = rng.gen_range(0..loaded.doc.children(parent).count() as u32 + 1);
        let (next, promo) = commit(&loaded, &insert(&loaded, parent, position, "promo"));
        let promo = promo.unwrap();
        assert_rebuilt(&next, &ctx);
        loaded = next;
        // Every other cycle grafts a second path below the first, so the
        // delete prunes two at once.
        if rng.gen_range(0..2) == 0 {
            loaded = commit(&loaded, &insert(&loaded, promo, 0, "tag")).0;
            assert_rebuilt(&loaded, &ctx);
        }
        loaded = commit(&loaded, &delete(&loaded, promo)).0;
        assert_rebuilt(&loaded, &ctx);
        assert!(loaded.summary.slot_count() <= slots + 2, "slots grew — {ctx}");
    }
}

fn explain(loaded: &LoadedDoc, query: &str) -> Vec<String> {
    let (doc, order) = (&loaded.doc, &loaded.order);
    let ev = Evaluator::new(doc, TreeAxes::with_order(doc, order));
    let (hits, compiled, stats) =
        plan::planned_query(query, doc, &loaded.summary, order, &ev).unwrap();
    plan::render_explain(query, &compiled, &stats, &loaded.summary, doc, hits.len())
}

#[test]
fn explain_after_a_graft_equals_explain_of_a_fresh_derivation() {
    let base = xmark(6_000);
    // First under <regions>: a rebuild numbers the new path before every
    // region, the graft after them.
    let regions = named(&base, "regions")[0];
    let (live, _) = commit(&base, &insert(&base, regions, 0, "antarctica"));
    let fresh =
        LoadedDoc::from_recovered(live.path.clone(), live.doc.clone(), live.scheme.clone(), false);
    for query in ["//regions/*", "//regions/*/item[@id = 'item0']/name", "//*/item", "//name"] {
        assert_eq!(explain(&live, query), explain(&fresh, query), "EXPLAIN {query}");
    }
    assert!(explain(&live, "//regions/*").join("\n").contains("/site/regions/antarctica"));
}
