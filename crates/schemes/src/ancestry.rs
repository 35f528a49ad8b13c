//! Compact ancestry labels in the style of Dahlgaard, Knudsen and
//! Rotbart's *simple* `lg n + 2 lg lg n` ancestry scheme, with the
//! small-depth specialization of Fraigniaud–Korman for shallow trees.
//!
//! A label is `(start, end, depth)` over an allocated slot space, and
//! ancestry is one comparison: `a` is a strict ancestor of `b` iff
//! `a.start <= b.start && b.end <= a.end && a.depth < b.depth`. The two
//! modes differ only in how slots are allocated:
//!
//! * **small-depth** — when the tree is shallow (`max_depth <=
//!   floor(lg n) + 1`) every node is labelled by the slot range of the
//!   leaves in its subtree; `(start, depth)` is unique and `end - start`
//!   costs at most `lg n` bits, so labels stay near `lg n + lg depth`
//!   bits (the Fraigniaud–Korman small-depth regime).
//! * **compact** — otherwise subtree slot counts are rounded up to
//!   powers of two bottom-up (the Dahlgaard et al. allocation shape),
//!   so `end` is recoverable from `start` plus one exponent byte.
//!   Rounding compounds along very deep spines, so when the rounded
//!   sizes would overflow `u64` the allocator falls back to exact
//!   subtree counts — labels stay correct, only the one-byte-width
//!   property is lost for those nodes ([`AncestryScheme::encoded_bytes`]
//!   checks per label).
//!
//! Either way the comparisons are identical, which is what lets one
//! `NumberingScheme` impl (and one axis provider) serve both modes.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use xmldom::{DocOrder, Document, NodeId};

use crate::interval::{varint_len, SpanIndex};
use crate::traits::{NumberingScheme, RelabelStats};

/// A compact ancestry label: a slot interval plus the node's depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AncestryLabel {
    /// First slot of the node's allocated interval.
    pub start: u64,
    /// Last slot of the node's allocated interval (inclusive).
    pub end: u64,
    /// Depth below the numbering root (root = 0).
    pub depth: u32,
}

impl AncestryLabel {
    /// The one-comparison strict-ancestor test shared by both modes.
    pub fn contains(&self, other: &AncestryLabel) -> bool {
        self.start <= other.start && other.end <= self.end && self.depth < other.depth
    }
}

impl Ord for AncestryLabel {
    fn cmp(&self, other: &Self) -> Ordering {
        // (start, depth) is pre-order in both allocation modes: a parent
        // shares its interval start with (small-depth) or precedes
        // (compact) its first child, and is always shallower.
        self.start.cmp(&other.start).then(self.depth.cmp(&other.depth))
    }
}

impl PartialOrd for AncestryLabel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Which allocation the scheme picked at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AncestryMode {
    /// Leaf-interval labels for shallow trees.
    SmallDepth,
    /// Power-of-two rounded slot allocation (Dahlgaard et al.).
    Compact,
}

impl AncestryMode {
    /// Short mode name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AncestryMode::SmallDepth => "small-depth",
            AncestryMode::Compact => "compact",
        }
    }
}

/// What an [`AncestryScheme`] works out from its span — a pure function
/// of the table, so it is computed on first use and dropped with it.
#[derive(Debug)]
struct Allocation {
    mode: AncestryMode,
    /// Labels by pre-order position; `(start, depth)` ascends with it.
    labels: Vec<AncestryLabel>,
}

/// Compact ancestry labelling of one document subtree: an encoder over a
/// [`SpanIndex`]. The slot allocation is derived from the span on first
/// use, not maintained.
#[derive(Debug, Clone)]
pub struct AncestryScheme {
    index: SpanIndex,
    allocation: OnceLock<Arc<Allocation>>,
}

impl AncestryScheme {
    /// Labels the subtree under the document's root element.
    pub fn build(doc: &Document) -> Self {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        Self::over(&DocOrder::build_at(doc, root), root)
    }

    /// Labels `root`'s subtree from an order that already ranks it (see
    /// [`crate::interval::IntervalScheme::over`]).
    pub fn over(order: &DocOrder, root: NodeId) -> Self {
        AncestryScheme { index: order.subtree(root), allocation: OnceLock::new() }
    }

    /// Number of labelled nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no nodes are labelled (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Which allocation mode the tree's current shape selects.
    pub fn mode(&self) -> AncestryMode {
        self.allocation().mode
    }

    /// The position tables the axis provider reads.
    pub fn span_index(&self) -> &SpanIndex {
        &self.index
    }

    /// Bytes of the compact on-disk encoding of `label`. A
    /// power-of-two interval width (the compact allocator's normal
    /// output) costs one exponent byte; any other width is a varint.
    pub fn encoded_bytes(&self, label: &AncestryLabel) -> usize {
        let width = label.end - label.start + 1;
        let width_bytes = if self.mode() == AncestryMode::Compact && width.is_power_of_two() {
            1
        } else {
            varint_len(width)
        };
        varint_len(label.start) + width_bytes + varint_len(u64::from(label.depth))
    }

    fn allocation(&self) -> &Arc<Allocation> {
        self.allocation.get_or_init(|| Arc::new(allocate(&self.index)))
    }

    /// Splices the span with `splice` (which reports where and how many
    /// positions it added or removed) and counts the surviving labels the
    /// new allocation changes — the honest update-locality cost E18
    /// measures: slots are dealt from the whole tree's shape, so a local
    /// edit can move labels anywhere.
    fn respan(&mut self, splice: impl FnOnce(&mut SpanIndex) -> (u32, u32)) -> RelabelStats {
        fn differing(old: &[AncestryLabel], new: &[AncestryLabel]) -> usize {
            old.iter().zip(new).filter(|(a, b)| a != b).count()
        }
        let old = Arc::clone(self.allocation());
        let (at, count) = splice(&mut self.index);
        self.allocation = OnceLock::new();
        let (old, new) = (&old.labels[..], &self.allocation().labels[..]);
        let (at, count) = (at as usize, count as usize);
        let (old_tail, new_tail) =
            if new.len() < old.len() { (at + count, at) } else { (at, at + count) };
        RelabelStats {
            relabeled: differing(&old[..at], &new[..at])
                + differing(&old[old_tail..], &new[new_tail..]),
            dropped: old.len().saturating_sub(new.len()),
            full_rebuild: false,
        }
    }
}

/// Picks the mode from the tree's shape and allocates slots.
fn allocate(index: &SpanIndex) -> Allocation {
    let n = index.len();
    // Depths straight off the parent table.
    let mut depth = vec![0u32; n];
    let mut max_depth = 0u32;
    for pos in 1..n as u32 {
        let d = depth[index.parent_of(pos).expect("non-root has parent") as usize] + 1;
        depth[pos as usize] = d;
        max_depth = max_depth.max(d);
    }
    let log2n = 64 - (n as u64).leading_zeros(); // floor(lg n) + 1
    let mode = if u64::from(max_depth) <= u64::from(log2n) {
        AncestryMode::SmallDepth
    } else {
        AncestryMode::Compact
    };
    let slots = match mode {
        AncestryMode::SmallDepth => small_depth_slots(index),
        AncestryMode::Compact => compact_slots(index),
    };
    let labels = slots
        .into_iter()
        .zip(depth)
        .map(|((start, end), depth)| AncestryLabel { start, end, depth })
        .collect();
    Allocation { mode, labels }
}

/// Small-depth allocation: slots are leaf indices; every node is
/// labelled by the range of leaves in its subtree. Leaf sets of
/// disjoint subtrees are disjoint, so containment + depth decides
/// ancestry exactly.
fn small_depth_slots(index: &SpanIndex) -> Vec<(u64, u64)> {
    let n = index.len();
    // first/last leaf slot per position, folded upward in one
    // reverse pass (children sit after their parents).
    let mut slots = vec![(u64::MAX, 0u64); n];
    let mut leaf_slot = 0u64;
    for pos in 0..n as u32 {
        if index.last_of(pos) == pos {
            slots[pos as usize] = (leaf_slot, leaf_slot);
            leaf_slot += 1;
        }
    }
    for pos in (1..n as u32).rev() {
        let p = index.parent_of(pos).expect("non-root has parent") as usize;
        let (first, last) = slots[pos as usize];
        slots[p] = (slots[p].0.min(first), slots[p].1.max(last));
    }
    slots
}

/// Compact allocation: bottom-up, each subtree's slot count is
/// rounded up to a power of two (`size(v) = 2^ceil(lg(1 + sum
/// child sizes))`), then intervals are dealt out top-down with the
/// parent owning the first slot. Interval widths being powers of
/// two is what makes `end` one exponent byte on disk. Rounding
/// compounds along deep spines; if the rounded sizes would overflow
/// `u64`, exact subtree counts are used instead (widths are then
/// plain counts and labels stay correct).
fn compact_slots(index: &SpanIndex) -> Vec<(u64, u64)> {
    let n = index.len();
    let size = compact_sizes_rounded(index).unwrap_or_else(|| {
        // Exact subtree node counts — the overflow fallback.
        (0..n as u32).map(|pos| u64::from(index.last_of(pos) - pos + 1)).collect()
    });
    // Top-down slot dealing: next free slot inside each open interval.
    let mut start = vec![0u64; n];
    let mut next_free = vec![0u64; n];
    next_free[0] = 1; // root occupies slot 0 of its interval
    for pos in 1..n as u32 {
        let p = index.parent_of(pos).expect("non-root has parent") as usize;
        start[pos as usize] = next_free[p];
        next_free[p] += size[pos as usize];
        next_free[pos as usize] = start[pos as usize] + 1;
    }
    start.into_iter().zip(size).map(|(s, size)| (s, s + size - 1)).collect()
}

/// Power-of-two-rounded subtree sizes, or `None` if the rounding
/// overflows `u64` anywhere.
fn compact_sizes_rounded(index: &SpanIndex) -> Option<Vec<u64>> {
    let n = index.len();
    let mut size = vec![1u64; n];
    for pos in (1..n as u32).rev() {
        let rounded = size[pos as usize].checked_next_power_of_two()?;
        let p = index.parent_of(pos).expect("non-root has parent") as usize;
        size[p] = size[p].checked_add(rounded)?;
        size[pos as usize] = rounded;
    }
    size[0] = size[0].checked_next_power_of_two()?;
    Some(size)
}

impl NumberingScheme for AncestryScheme {
    type Label = AncestryLabel;

    fn scheme_name(&self) -> &'static str {
        "ancestry"
    }

    fn numbering_root(&self) -> NodeId {
        self.index.root()
    }

    fn label_of(&self, node: NodeId) -> AncestryLabel {
        let (pos, _) = self.index.extent(node).expect("node is not labelled");
        self.allocation().labels[pos as usize]
    }

    fn node_of(&self, label: &AncestryLabel) -> Option<NodeId> {
        // `Ord` on labels is (start, depth), which ascends with position.
        let pos = self.allocation().labels.binary_search(label).ok()?;
        (self.allocation().labels[pos] == *label).then(|| self.index.node_at(pos as u32))
    }

    fn supports_parent_computation(&self) -> bool {
        false
    }

    fn parent_label(&self, _label: &AncestryLabel) -> Option<AncestryLabel> {
        None
    }

    fn is_ancestor(&self, a: &AncestryLabel, b: &AncestryLabel) -> bool {
        a.contains(b)
    }

    fn cmp_order(&self, a: &AncestryLabel, b: &AncestryLabel) -> Ordering {
        a.cmp(b)
    }

    fn on_insert(&mut self, doc: &Document, new_node: NodeId) -> RelabelStats {
        self.respan(|index| index.insert_subtree(doc, new_node))
    }

    fn on_delete(&mut self, _doc: &Document, _old_parent: NodeId, removed: NodeId) -> RelabelStats {
        self.respan(|index| index.remove_subtree(removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_matches_tree(doc: &Document, s: &AncestryScheme) {
        let nodes: Vec<_> = doc.descendants(doc.root_element().unwrap()).collect();
        for (i, &x) in nodes.iter().enumerate() {
            for (j, &y) in nodes.iter().enumerate() {
                let lx = s.label_of(x);
                let ly = s.label_of(y);
                assert_eq!(
                    s.is_ancestor(&lx, &ly),
                    doc.is_ancestor_of(x, y),
                    "{lx:?} vs {ly:?} ({:?} mode)",
                    s.mode()
                );
                assert_eq!(s.cmp_order(&lx, &ly), i.cmp(&j), "{lx:?} vs {ly:?}");
            }
        }
        s.check_consistency(doc).unwrap();
    }

    #[test]
    fn shallow_tree_uses_small_depth_mode() {
        let doc = Document::parse("<a><b/><c/><d/><e/><f/><g/></a>").unwrap();
        let s = AncestryScheme::build(&doc);
        assert_eq!(s.mode(), AncestryMode::SmallDepth);
        assert_matches_tree(&doc, &s);
    }

    #[test]
    fn deep_chain_uses_compact_mode() {
        let doc = Document::parse("<a><b><c><d><e><f/></e></d></c></b></a>").unwrap();
        let s = AncestryScheme::build(&doc);
        assert_eq!(s.mode(), AncestryMode::Compact);
        assert_matches_tree(&doc, &s);
    }

    #[test]
    fn compact_intervals_are_powers_of_two() {
        let doc = Document::parse("<a><b><c><d><e><f/><g/></e></d></c></b></a>").unwrap();
        let s = AncestryScheme::build(&doc);
        assert_eq!(s.mode(), AncestryMode::Compact);
        for node in doc.descendants(doc.root_element().unwrap()) {
            let l = s.label_of(node);
            let width = l.end - l.start + 1;
            assert!(width.is_power_of_two(), "width {width} of {l:?}");
        }
    }

    #[test]
    fn pathological_spine_falls_back_without_overflow(/* depth ~100 chain */) {
        let depth = 100;
        let mut xml = String::new();
        for i in 0..depth {
            xml.push_str(&format!("<s{i}><leaf{i}/>"));
        }
        xml.push_str("<tip/>");
        for i in (0..depth).rev() {
            xml.push_str(&format!("</s{i}>"));
        }
        let doc = Document::parse(&xml).unwrap();
        let s = AncestryScheme::build(&doc);
        assert_eq!(s.mode(), AncestryMode::Compact);
        assert_matches_tree(&doc, &s);
        // Exact-size fallback: the root interval is exactly n slots.
        let root_label = s.label_of(doc.root_element().unwrap());
        assert_eq!(root_label.end - root_label.start + 1, s.len() as u64);
    }

    #[test]
    fn insert_and_delete_keep_labels_consistent() {
        let mut doc = Document::parse("<a><b/><c/></a>").unwrap();
        let mut s = AncestryScheme::build(&doc);
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let new = doc.create_element("n");
        doc.insert_after(b, new);
        s.on_insert(&doc, new);
        assert_matches_tree(&doc, &s);

        doc.detach(new);
        let stats = s.on_delete(&doc, a, new);
        assert_eq!(stats.dropped, 1);
        assert_matches_tree(&doc, &s);
    }

    #[test]
    fn mode_flips_when_updates_change_shape(/* chain grows past lg n */) {
        let mut doc = Document::parse("<a><b/><c/><d/></a>").unwrap();
        let mut s = AncestryScheme::build(&doc);
        assert_eq!(s.mode(), AncestryMode::SmallDepth);
        // Grow a deep chain under b.
        let b = doc.first_child(doc.root_element().unwrap()).unwrap();
        let mut parent = b;
        for i in 0..8 {
            let n = doc.create_element(&format!("x{i}"));
            doc.append_child(parent, n);
            s.on_insert(&doc, n);
            parent = n;
        }
        assert_eq!(s.mode(), AncestryMode::Compact);
        assert_matches_tree(&doc, &s);
    }
}
