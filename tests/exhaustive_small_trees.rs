//! Exhaustive differential test over *every* ordered tree shape with up to
//! seven nodes (1 + 1 + 2 + 5 + 14 + 42 + 132 = 197 Catalan shapes).
//!
//! For each shape, every numbering scheme in the workspace — the original
//! UID, Dewey, pre/post, containment, flat rUID under several partitions,
//! and the l-level recursive rUID — must answer parent, ancestor, child,
//! sibling and document-order questions identically, with the DOM as the
//! ground truth. Schemes without label-arithmetic parents (pre/post,
//! containment) still determine the parent uniquely as the *tightest*
//! ancestor; that derived answer must match too.

use std::cmp::Ordering;

use ruid::prelude::*;
use ruid::{
    AncestryScheme, ContainmentScheme, DeweyScheme, IntervalScheme, PartitionConfig as Pc,
    PrePostScheme, UidScheme,
};
use testkit::{trees, Tags};

/// DOM ground truth for one document, precomputed once.
struct GroundTruth {
    nodes: Vec<NodeId>,
    root: NodeId,
}

impl GroundTruth {
    fn new(doc: &Document) -> Self {
        let root = doc.root_element().unwrap();
        GroundTruth { nodes: doc.descendants(root).collect(), root }
    }
}

/// A scheme's parent computation on labels, for the schemes that have one.
type ParentOf<'a, L> = &'a dyn Fn(&L) -> Option<L>;

/// Checks one scheme's relational answers against the DOM, through erased
/// closures so every label type goes through identical logic.
#[allow(clippy::too_many_arguments)]
fn check_relations<L: Clone + std::fmt::Debug + PartialEq>(
    name: &str,
    doc: &Document,
    truth: &GroundTruth,
    label_of: &dyn Fn(NodeId) -> L,
    node_of: &dyn Fn(&L) -> Option<NodeId>,
    parent_label: Option<ParentOf<'_, L>>,
    is_ancestor: &dyn Fn(&L, &L) -> bool,
    cmp_order: &dyn Fn(&L, &L) -> Ordering,
) {
    let xml = doc.subtree_to_xml_string(truth.root);
    let labels: Vec<L> = truth.nodes.iter().map(|&n| label_of(n)).collect();

    // Round trip and pairwise ancestry / document order.
    for (i, &a) in truth.nodes.iter().enumerate() {
        assert_eq!(node_of(&labels[i]), Some(a), "{name}: round trip in {xml}");
        for (j, &b) in truth.nodes.iter().enumerate() {
            assert_eq!(
                is_ancestor(&labels[i], &labels[j]),
                doc.is_ancestor_of(a, b),
                "{name}: ancestry of pair ({i},{j}) in {xml}"
            );
            assert_eq!(
                cmp_order(&labels[i], &labels[j]),
                i.cmp(&j),
                "{name}: document order of pair ({i},{j}) in {xml}"
            );
        }
    }

    // Parent: derived from labels alone as the tightest ancestor, and (when
    // the scheme supports it) by direct label arithmetic.
    let mut derived_parent: Vec<Option<NodeId>> = Vec::with_capacity(truth.nodes.len());
    for (i, &n) in truth.nodes.iter().enumerate() {
        let ancestors: Vec<usize> = (0..truth.nodes.len())
            .filter(|&j| is_ancestor(&labels[j], &labels[i]))
            .collect();
        // The tightest ancestor is the one every other ancestor dominates.
        let tightest = ancestors
            .iter()
            .copied()
            .find(|&c| {
                ancestors.iter().all(|&o| o == c || is_ancestor(&labels[o], &labels[c]))
            })
            .map(|c| truth.nodes[c]);
        assert_eq!(
            tightest,
            doc.parent(n).filter(|_| n != truth.root),
            "{name}: derived parent of node {i} in {xml}"
        );
        derived_parent.push(tightest);

        if let Some(parent_fn) = parent_label {
            let via_arith = parent_fn(&labels[i]).map(|l| {
                node_of(&l).unwrap_or_else(|| {
                    panic!("{name}: parent label {l:?} does not resolve in {xml}")
                })
            });
            assert_eq!(via_arith, tightest, "{name}: rparent of node {i} in {xml}");
        }
    }

    // Children and sibling sets, reconstructed purely from the scheme's
    // parent + order answers.
    for (i, &p) in truth.nodes.iter().enumerate() {
        let derived_children: Vec<NodeId> = truth
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| derived_parent[j] == Some(p))
            .map(|(_, &c)| c)
            .collect();
        let dom_children: Vec<NodeId> = doc.children(p).collect();
        assert_eq!(derived_children, dom_children, "{name}: children of node {i} in {xml}");
    }
    for (i, &n) in truth.nodes.iter().enumerate() {
        let following: Vec<NodeId> = truth
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| {
                derived_parent[j] == derived_parent[i]
                    && derived_parent[i].is_some()
                    && cmp_order(&labels[i], &labels[j]) == Ordering::Less
            })
            .map(|(_, &s)| s)
            .collect();
        let dom_following: Vec<NodeId> = doc.following_siblings(n).collect();
        assert_eq!(following, dom_following, "{name}: following siblings of {i} in {xml}");
    }
}

/// Runs the full battery of schemes against one document.
fn check_all_schemes(doc: &Document) {
    let truth = GroundTruth::new(doc);

    let uid = UidScheme::build(doc);
    check_relations(
        "uid",
        doc,
        &truth,
        &|n| uid.label_of(n),
        &|l| uid.node_of(l),
        Some(&|l| uid.parent_label(l)),
        &|a, b| uid.is_ancestor(a, b),
        &|a, b| uid.cmp_order(a, b),
    );

    let dewey = DeweyScheme::build(doc);
    check_relations(
        "dewey",
        doc,
        &truth,
        &|n| dewey.label_of(n),
        &|l| dewey.node_of(l),
        Some(&|l| dewey.parent_label(l)),
        &|a, b| dewey.is_ancestor(a, b),
        &|a, b| dewey.cmp_order(a, b),
    );

    let prepost = PrePostScheme::build(doc);
    assert!(!prepost.supports_parent_computation());
    check_relations(
        "prepost",
        doc,
        &truth,
        &|n| prepost.label_of(n),
        &|l| prepost.node_of(l),
        None,
        &|a, b| prepost.is_ancestor(a, b),
        &|a, b| prepost.cmp_order(a, b),
    );

    let containment = ContainmentScheme::build(doc);
    check_relations(
        "containment",
        doc,
        &truth,
        &|n| containment.label_of(n),
        &|l| containment.node_of(l),
        None,
        &|a, b| containment.is_ancestor(a, b),
        &|a, b| containment.cmp_order(a, b),
    );

    let interval = IntervalScheme::build(doc);
    check_relations(
        "interval",
        doc,
        &truth,
        &|n| interval.label_of(n),
        &|l| interval.node_of(l),
        None,
        &|a, b| interval.is_ancestor(a, b),
        &|a, b| interval.cmp_order(a, b),
    );

    let ancestry = AncestryScheme::build(doc);
    check_relations(
        "ancestry",
        doc,
        &truth,
        &|n| ancestry.label_of(n),
        &|l| ancestry.node_of(l),
        None,
        &|a, b| ancestry.is_ancestor(a, b),
        &|a, b| ancestry.cmp_order(a, b),
    );

    for (tag, config) in [
        ("ruid2:depth2", Pc::by_depth(2)),
        ("ruid2:depth3", Pc::by_depth(3)),
        ("ruid2:area2", Pc::by_area_size(2)),
    ] {
        let ruid2 = Ruid2Scheme::build(doc, &config);
        check_relations(
            tag,
            doc,
            &truth,
            &|n| ruid2.label_of(n),
            &|l| ruid2.node_of(l),
            Some(&|l| ruid2.parent_label(l)),
            &|a, b| ruid2.is_ancestor(a, b),
            &|a, b| ruid2.cmp_order(a, b),
        );
    }

    for levels in [2usize, 3] {
        let multi = MultiRuidScheme::build_with_levels(doc, &Pc::by_depth(2), levels);
        check_relations(
            &format!("multiruid:l{levels}"),
            doc,
            &truth,
            &|n| multi.label_of(n),
            &|l| multi.node_of(l),
            Some(&|l| multi.parent_label(l)),
            &|a, b| multi.is_ancestor(a, b),
            &|a, b| multi.cmp_order(a, b),
        );
    }
}

/// The enumeration itself is part of the contract: tree counts must follow
/// the Catalan numbers, so nothing is silently skipped.
#[test]
fn enumeration_matches_catalan_numbers() {
    let expected = [1usize, 1, 2, 5, 14, 42, 132];
    for (n, &count) in (1..=7).zip(expected.iter()) {
        let shapes = trees(n, Tags::Plain);
        assert_eq!(shapes.len(), count, "ordered trees with {n} nodes");
        // No duplicates: every rendered shape is distinct.
        let mut unique = shapes.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), count, "duplicate shapes at n = {n}");
    }
}

/// The precomputed order keys agree with every document-order oracle on
/// every tree shape: `rank(a) < rank(b)` ⟺ `cmp_doc_order(a, b) == Less`,
/// for the DOM walk, UID and rUID label arithmetic alike. This is the
/// invariant that lets the evaluator replace `sort_by(cmp_doc_order)` with
/// `sort_unstable_by_key(rank)`.
#[test]
fn order_keys_agree_with_every_oracle_on_every_small_tree() {
    use ruid::{
        AxisProvider, DocOrder, NameIndex, NameIndexed, RuidAxes, SpanAxes, TreeAxes, UidAxes,
    };
    for n in 1..=7 {
        for xml in trees(n, Tags::Plain) {
            let doc = Document::parse(&xml).unwrap();
            let order = DocOrder::build(&doc);
            let uid = UidScheme::build(&doc);
            let ruid2 = Ruid2Scheme::build(&doc, &Pc::by_depth(2));
            let interval = IntervalScheme::build(&doc);
            let ancestry = AncestryScheme::build(&doc);
            let index = NameIndex::build(&doc);
            let providers: Vec<Box<dyn AxisProvider>> = vec![
                Box::new(TreeAxes::with_order(&doc, &order)),
                Box::new(UidAxes::with_order(&uid, &order)),
                Box::new(RuidAxes::with_order(&ruid2, &order)),
                Box::new(SpanAxes::with_order(interval.span_index(), "interval", &order)),
                Box::new(SpanAxes::with_order(ancestry.span_index(), "ancestry", &order)),
                Box::new(NameIndexed::new(
                    RuidAxes::with_order(&ruid2, &order),
                    &doc,
                    &index,
                )),
            ];
            let nodes: Vec<NodeId> = doc.descendants(doc.root_element().unwrap()).collect();
            for provider in &providers {
                let cached = provider.order().expect("provider must expose its order cache");
                for &a in &nodes {
                    for &b in &nodes {
                        assert_eq!(
                            cached.rank(a).cmp(&cached.rank(b)),
                            provider.cmp_doc_order(a, b),
                            "{}: rank vs cmp_doc_order in {xml}",
                            provider.provider_name()
                        );
                    }
                }
            }
        }
    }
}

/// Every scheme agrees with the DOM on every tree shape up to 7 nodes.
#[test]
fn all_schemes_agree_on_every_small_tree() {
    let mut total = 0usize;
    for n in 1..=7 {
        for xml in trees(n, Tags::Plain) {
            let doc = Document::parse(&xml)
                .unwrap_or_else(|e| panic!("generated XML {xml} must parse: {e}"));
            assert_eq!(doc.descendants(doc.root_element().unwrap()).count(), n);
            check_all_schemes(&doc);
            total += 1;
        }
    }
    assert_eq!(total, 197, "full Catalan sweep: 1+1+2+5+14+42+132 shapes");
}
