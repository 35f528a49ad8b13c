//! The path summary's value postings are maintained exactly.
//!
//! A fixed-seed script of `INSERT`s and `DELETE`s runs through
//! `LoadedDoc::apply_update` — the commit path — on an XMark-lite document,
//! drawing the edits that move a node between posting lists: childless
//! elements with attributes, text under a leaf, text under an inner
//! element, a second text node beside an existing one, an element under a
//! former leaf, subtree deletes and text deletes. After **every** commit the
//! patched summary must equal `PathSummary::build` of the committed tree
//! under `canonical()` (members, postings and unindexed lists alike), and a
//! corpus of value predicates must answer on the planned engine exactly as
//! the DOM walk does. The script must also graft new paths and prune
//! emptied ones often enough to exercise both branches.

use std::collections::BTreeSet;

use durable::{NodeContent, WalOp};
use plan::PathSummary;
use ruid_service::proto::Engine;
use ruid_service::{run_query, LoadedDoc};
use schemes::NumberingScheme;
use testkit::{elements, pick};
use xmldom::NodeId;
use xmlgen::SplitMix64;

const SEED: u64 = 0x5EED_2206;
const COMMITS: usize = 520;
/// Commits that must graft a path, and commits that must prune one.
const BRANCH_HITS: usize = 20;

/// Value predicates over what the script edits: ids, quantities, locations
/// and names of items, incomes, bid increases.
const CORPUS: &[&str] = &[
    "//item[@id = 'item3']",
    "//*[@id = 'item3']",
    "//item[location = 'asia']",
    "//item[quantity = 2]",
    "//item[quantity = '2']",
    "//item[quantity > 2]/name",
    "//item[quantity = '']",
    "//item[name = 'gold']",
    "//item[location = 'asia'][quantity = 2]/name",
    "//item[payment = 'Creditcard'][contains(name, 'gold')]",
    "//item[incategory/@category = 'category1']",
    "//item[description/text = 'gold']",
    "//person[profile/@income > 50000]/name",
    "//person[name = 'asia']",
    "//open_auction[bidder/increase > 7.5]",
    "//open_auction[bidder/increase = 7.5]/current",
];

/// Text the script inserts: values the corpus asks for, so edits move
/// nodes in and out of the probed ranges.
const TEXTS: &[&str] = &["2", " 2 ", "2.0", "7.5", "asia", "gold", "NaN", ""];

/// The element paths of a summary's canonical form (its other rows name
/// a list after the path, separated by a space).
fn paths(canonical: &[(String, Vec<NodeId>)]) -> BTreeSet<&str> {
    canonical.iter().map(|(row, _)| row.as_str()).filter(|row| !row.contains(' ')).collect()
}

fn text(rng: &mut SplitMix64) -> NodeContent {
    NodeContent::Text(TEXTS[rng.gen_range(0..TEXTS.len())].into())
}

/// Draws the next edit against the committed state; `None` when the kind
/// drawn has no target in this tree (the caller draws again).
fn draw(loaded: &LoadedDoc, rng: &mut SplitMix64) -> Option<WalOp> {
    let doc = &loaded.doc;
    let elems = elements(loaded);
    let has_text = |n: NodeId| doc.children(n).any(|c| doc.text(c).is_some());
    let has_element = |n: NodeId| doc.children(n).any(|c| doc.is_element(c));
    let delete = |node: NodeId| WalOp::Delete { doc_id: 1, label: loaded.scheme.label_of(node) };
    let (parent, content) = match rng.gen_range(0..100) {
        // A childless element with attributes, mostly on an existing path.
        0..=24 => {
            let parent = pick(rng, &elems)?;
            let siblings: Vec<NodeId> =
                doc.children(parent).filter(|&c| doc.is_element(c)).collect();
            let name = match (rng.gen_range(0..4), pick(rng, &siblings)) {
                (0, _) | (_, None) => "x",
                (_, Some(sibling)) => doc.tag_name(sibling).unwrap(),
            };
            let attributes = vec![
                ("id".to_string(), format!("item{}", rng.gen_range(0..6))),
                ("income".to_string(), format!("{}", rng.gen_range(40_000..60_000))),
            ];
            (parent, NodeContent::Element { name: name.into(), attributes })
        }
        // Text under a leaf: an empty string-value gets a value.
        25..=39 => {
            let leaves: Vec<NodeId> =
                elems.iter().copied().filter(|&n| doc.first_child(n).is_none()).collect();
            (pick(rng, &leaves)?, text(rng))
        }
        // Text under an inner element: unindexed before and after.
        40..=47 => {
            let inner: Vec<NodeId> = elems.iter().copied().filter(|&n| has_element(n)).collect();
            (pick(rng, &inner)?, text(rng))
        }
        // A second text node beside an existing one: posted -> unindexed.
        48..=59 => {
            let texted: Vec<NodeId> =
                elems.iter().copied().filter(|&n| has_text(n) && !has_element(n)).collect();
            (pick(rng, &texted)?, text(rng))
        }
        // An element under a former leaf: posted -> unindexed.
        60..=69 => {
            let leaves: Vec<NodeId> =
                elems.iter().copied().filter(|&n| !has_element(n)).collect();
            (pick(rng, &leaves)?, NodeContent::Element { name: "b".into(), attributes: vec![] })
        }
        // A text delete: unindexed -> posted when one text node is left.
        70..=81 => {
            let texts: Vec<NodeId> =
                doc.descendants(elems[0]).filter(|&n| doc.text(n).is_some()).collect();
            return Some(delete(pick(rng, &texts)?));
        }
        // A subtree delete, small enough that the document survives the
        // script.
        _ => {
            let small: Vec<NodeId> = elems[1..]
                .iter()
                .copied()
                .filter(|&n| doc.descendants(n).take(13).count() <= 12)
                .collect();
            return Some(delete(pick(rng, &small)?));
        }
    };
    let slots = doc.children(parent).count() as u32 + 1;
    Some(WalOp::Insert {
        doc_id: 1,
        parent: loaded.scheme.label_of(parent),
        position: rng.gen_range(0..slots),
        content,
    })
}

#[test]
fn patched_postings_equal_a_rebuild_after_every_commit() {
    let xml = xmlgen::xmark::generate(&xmlgen::xmark::XmarkConfig::scaled_to(600, 42))
        .to_xml_string();
    let mut loaded = LoadedDoc::build("xmark-lite.xml", &xml, 3, false).unwrap();
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let mut probed = 0u64;
    let (mut grafts, mut prunes) = (0, 0);
    let mut before = loaded.summary.canonical(&loaded.doc);
    for commit in 0..COMMITS {
        let op = loop {
            if let Some(op) = draw(&loaded, &mut rng) {
                break op;
            }
        };
        let ctx = format!("failing seed: {SEED:#x}, commit {commit}: {op:?}");
        loaded = loaded.apply_update(&op, commit as u64 + 1).unwrap_or_else(|e| panic!("{ctx}: {e}")).0;
        let after = loaded.summary.canonical(&loaded.doc);
        assert_eq!(
            after,
            PathSummary::build(&loaded.doc).canonical(&loaded.doc),
            "patched summary drifted from a rebuild — {ctx}"
        );
        let (old, new) = (paths(&before), paths(&after));
        grafts += usize::from(!new.is_subset(&old));
        prunes += usize::from(!old.is_subset(&new));
        before = after;
        for query in CORPUS {
            let (tree, _) = run_query(&loaded, query, Engine::Tree).unwrap();
            let path = xpath::parse(query).unwrap();
            let compiled = plan::plan(&path, &loaded.summary, &loaded.doc);
            probed += compiled.ops.iter().map(|op| op.probes.len() as u64).sum::<u64>();
            let (planned, _) = run_query(&loaded, query, Engine::Planned).unwrap();
            assert_eq!(planned, tree, "planned and tree disagree on {query} — {ctx}");
        }
    }
    assert!(probed >= (COMMITS * CORPUS.len()) as u64, "the corpus must run on value-probes");
    assert!(grafts >= BRANCH_HITS, "only {grafts} commits grafted a path");
    assert!(prunes >= BRANCH_HITS, "only {prunes} commits pruned a path");
    assert!(elements(&loaded).len() > 100, "the script must not have emptied the document");
}
