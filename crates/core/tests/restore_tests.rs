//! `Ruid2Scheme::from_parts` — the snapshot restore path — accepts exactly
//! the label sets a numbering could have produced: every node of the
//! numbering subtree labelled once, labels unique, area roots one-to-one
//! with table K.

use ruid_core::{PartitionConfig, Ruid2, Ruid2Scheme};
use schemes::NumberingScheme;
use xmldom::{Document, NodeId};

const XML: &str = "<?pi before?><a><b><c/><d>t</d></b><e><f><g/></f></e><h/></a>";

fn built() -> (Document, Ruid2Scheme) {
    let doc = Document::parse(XML).unwrap();
    let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
    (doc, scheme)
}

fn parts(doc: &Document, scheme: &Ruid2Scheme) -> Vec<(NodeId, Ruid2)> {
    doc.descendants(doc.root()).filter_map(|n| Some((n, scheme.try_label_of(n)?))).collect()
}

fn restore(doc: &Document, scheme: &Ruid2Scheme, labels: &[(NodeId, Ruid2)]) -> Result<Ruid2Scheme, String> {
    Ruid2Scheme::from_parts(
        doc,
        scheme.numbering_root(),
        scheme.kappa(),
        scheme.ktable().clone(),
        *scheme.config(),
        labels,
    )
}

/// An interior node whose parent is in the same area (so its label is not
/// an area root's).
fn interior_leaf(doc: &Document, scheme: &Ruid2Scheme) -> NodeId {
    doc.descendants(scheme.numbering_root())
        .find(|&n| doc.first_child(n).is_none() && !scheme.label_of(n).is_root)
        .expect("the sample has an interior leaf")
}

#[test]
fn restored_scheme_equals_the_built_one() {
    let (doc, scheme) = built();
    assert!(scheme.area_count() > 1, "premise: several areas");
    let labels = parts(&doc, &scheme);
    let restored = restore(&doc, &scheme, &labels).unwrap();
    for &(node, label) in &labels {
        assert_eq!(restored.label_of(node), label);
        assert_eq!(restored.node_of(&label), Some(node));
        assert_eq!(restored.is_area_root(node), scheme.is_area_root(node));
    }
    assert_eq!(restored.len(), scheme.len());
    assert_eq!(restored.area_count(), scheme.area_count());
    assert_eq!(restored.label_width_bits(), scheme.label_width_bits());
    restored.check_consistency(&doc).unwrap();
}

#[test]
fn a_node_listed_twice_is_rejected() {
    let (doc, scheme) = built();
    let mut labels = parts(&doc, &scheme);
    let leaf = interior_leaf(&doc, &scheme);
    let first = scheme.label_of(leaf);
    // A second, otherwise unused slot of the same area.
    let second = Ruid2::new(first.global, first.local + 1000, false);
    assert_eq!(scheme.node_of(&second), None);
    labels.push((leaf, second));
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("listed twice"), "{err}");
    // The same pair repeated verbatim is a node listed twice too.
    let mut labels = parts(&doc, &scheme);
    labels.push((leaf, first));
    assert!(restore(&doc, &scheme, &labels).unwrap_err().contains("listed twice"));
}

#[test]
fn an_unlabelled_attached_node_is_rejected() {
    let (doc, scheme) = built();
    let leaf = interior_leaf(&doc, &scheme);
    let labels: Vec<_> = parts(&doc, &scheme).into_iter().filter(|&(n, _)| n != leaf).collect();
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("has no label"), "{err}");
}

#[test]
fn a_label_outside_the_numbering_subtree_is_rejected() {
    let (doc, scheme) = built();
    let mut labels = parts(&doc, &scheme);
    let pi = doc.first_child(doc.root()).unwrap();
    assert!(scheme.try_label_of(pi).is_none(), "premise: the prolog PI is unnumbered");
    labels.push((pi, Ruid2::new(1, 999, false)));
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("numbering subtree"), "{err}");
}

#[test]
fn two_roots_for_one_area_and_orphan_interior_labels_are_rejected() {
    let (doc, scheme) = built();
    let base = parts(&doc, &scheme);
    let (root_node, root_label) = *base
        .iter()
        .find(|(_, l)| l.is_root && !l.is_tree_root())
        .expect("a non-tree-root area");
    let leaf = interior_leaf(&doc, &scheme);

    // The leaf claims to be a second root of `root_node`'s area.
    let labels: Vec<_> = base
        .iter()
        .map(|&(n, l)| if n == leaf { (n, Ruid2::new(root_label.global, 77, true)) } else { (n, l) })
        .collect();
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("two root labels"), "{err}");

    // The leaf sits in an area nobody roots.
    let labels: Vec<_> = base
        .iter()
        .map(|&(n, l)| if n == leaf { (n, Ruid2::new(9_999, 2, false)) } else { (n, l) })
        .collect();
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("no root"), "{err}");

    // Two nodes, one interior label.
    let other = base
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n != leaf && n != root_node && !scheme.label_of(n).is_root)
        .unwrap();
    let labels: Vec<_> = base
        .iter()
        .map(|&(n, l)| if n == other { (n, scheme.label_of(leaf)) } else { (n, l) })
        .collect();
    let err = restore(&doc, &scheme, &labels).unwrap_err();
    assert!(err.contains("duplicate label"), "{err}");
}
