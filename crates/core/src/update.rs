//! Localized structural updates (Section 3.2 of the paper).
//!
//! An insertion touches only the UID-local area containing the insertion
//! point: right-sibling subtrees are renumbered *within the area*, and the
//! recursion stops at boundary area roots — only their leaf index (and K
//! row) changes, never their own area's inside, so descendant areas keep
//! every label. If the parent's fan-out outgrows the area's enumeration
//! fan-out, only that area is renumbered with a larger fan-out (contrast
//! with the original UID, where the same overflow renumbers the whole
//! document).
//!
//! A deletion drops the labels (and K rows) of the removed subtree and
//! shifts the remaining right siblings left inside the area. Globals of
//! deleted areas are simply retired: a k-ary enumeration tolerates holes, so
//! the frame is never renumbered — which is what keeps deletion as local as
//! insertion. (The paper describes deletion symmetrically to insertion but
//! leaves the frame policy open; retiring globals is the stability-preserving
//! choice, recorded in DESIGN.md.)

use schemes::kary;
use schemes::{NumberingScheme, RelabelStats};
use xmldom::{Document, NodeId};

use crate::label::Ruid2;
use crate::scheme::Ruid2Scheme;
use crate::table::AreaEntry;

pub(crate) fn on_insert(
    scheme: &mut Ruid2Scheme,
    doc: &Document,
    new_node: NodeId,
) -> RelabelStats {
    let mut stats = RelabelStats::default();
    let parent = doc.parent(new_node).expect("inserted node must have a parent");
    let plabel = scheme.label_of(parent);
    let area = scheme.child_area(&plabel);
    let k = scheme.ktable().fanout(area);
    let n_children = doc.children(parent).count() as u64;
    if n_children > k {
        // Space overflow: enlarge this area's enumeration fan-out and
        // renumber the area — and nothing else (Section 3.2).
        enlarge_area(scheme, doc, area, &mut stats);
        return stats;
    }
    renumber_children(scheme, doc, parent, &plabel, area, k, false, &mut stats);
    stats
}

pub(crate) fn on_delete(
    scheme: &mut Ruid2Scheme,
    doc: &Document,
    old_parent: NodeId,
    removed: NodeId,
) -> RelabelStats {
    let mut stats = RelabelStats::default();
    // Drop the subtree's labels; retire the areas inside it (K row and
    // reverse map). Preorder meets an area's root before its interior, so
    // a retired area's map is dropped whole, never copied to be emptied.
    for n in doc.descendants(removed) {
        if let Some(old) = scheme.take_label(n) {
            stats.dropped += 1;
            if old.is_root {
                scheme.remove_area(old.global);
            }
        }
    }
    // Shift the remaining right siblings left within the area.
    let plabel = scheme.label_of(old_parent);
    let area = scheme.child_area(&plabel);
    let k = scheme.ktable().fanout(area);
    renumber_children(scheme, doc, old_parent, &plabel, area, k, false, &mut stats);
    stats
}

/// Renumbers the child slots of `parent` inside `area` with fan-out `k`.
/// With `force == false`, subtrees whose root slot is unchanged are skipped
/// (their labels depend only on the slot and the fan-out, both unchanged).
#[allow(clippy::too_many_arguments)]
fn renumber_children(
    scheme: &mut Ruid2Scheme,
    doc: &Document,
    parent: NodeId,
    plabel: &Ruid2,
    area: u64,
    k: u64,
    force: bool,
    stats: &mut RelabelStats,
) {
    let parent_local = if plabel.is_root { 1 } else { plabel.local };
    let children: Vec<NodeId> = doc.children(parent).collect();
    for (j, child) in children.into_iter().enumerate() {
        let slot = kary::child_u64(parent_local, k, j as u64 + 1)
            .expect("local index overflow: partition finer");
        relabel_slot(scheme, doc, child, area, k, slot, force, stats);
    }
}

/// Moves `node` (and, for interior nodes, its in-area subtree) to local
/// index `slot` of `area`.
#[allow(clippy::too_many_arguments)]
fn relabel_slot(
    scheme: &mut Ruid2Scheme,
    doc: &Document,
    node: NodeId,
    area: u64,
    k: u64,
    slot: u64,
    force: bool,
    stats: &mut RelabelStats,
) {
    if scheme.is_area_root(node) {
        // Boundary root: only its leaf index in this (upper) area moves; its
        // own area — global index, fan-out, inside — is untouched. That is
        // the locality the paper's robustness argument rests on.
        let old = scheme.stored_label(node).expect("area root must be labelled");
        debug_assert!(old.is_root);
        if old.local == slot {
            return;
        }
        scheme.take_label(node);
        scheme.set_label(node, Ruid2::new(old.global, slot, true));
        let fanout = scheme.ktable().fanout(old.global);
        scheme.ktable_mut().upsert(AreaEntry { global: old.global, local: slot, fanout });
        stats.relabeled += 1;
        return;
    }
    let old = scheme.stored_label(node);
    let label = Ruid2::new(area, slot, false);
    if !force && old == Some(label) {
        return; // slot and fan-out unchanged => whole in-area subtree is too
    }
    if old.is_some() {
        scheme.take_label(node);
        // A forced renumber can re-derive the same identifier; only count
        // labels that actually changed.
        if old != Some(label) {
            stats.relabeled += 1;
        }
    }
    scheme.set_label(node, label);
    let children: Vec<NodeId> = doc.children(node).collect();
    for (j, child) in children.into_iter().enumerate() {
        let child_slot = kary::child_u64(slot, k, j as u64 + 1)
            .expect("local index overflow: partition finer");
        relabel_slot(scheme, doc, child, area, k, child_slot, force, stats);
    }
}

/// Grows `area`'s enumeration fan-out to fit its current membership and
/// renumbers the area (only).
fn enlarge_area(scheme: &mut Ruid2Scheme, doc: &Document, area: u64, stats: &mut RelabelStats) {
    let root = scheme.area_root_node(area).expect("area root must be tracked");
    // Recompute the local fan-out over the nodes whose children belong to
    // this area (the root and interior members).
    let mut new_k = 1u64;
    let mut stack: Vec<NodeId> = vec![root];
    while let Some(n) = stack.pop() {
        if n != root && scheme.is_area_root(n) {
            continue;
        }
        let mut fanout = 0u64;
        for c in doc.children(n) {
            fanout += 1;
            stack.push(c);
        }
        new_k = new_k.max(fanout);
    }
    let entry = *scheme.ktable().get(area).expect("area must be in K");
    scheme.ktable_mut().upsert(AreaEntry { fanout: new_k, ..entry });
    let root_label = scheme.label_of(root);
    renumber_children(scheme, doc, root, &root_label, area, new_k, true, stats);
}
