//! The pre-order span table: one pre-order rank per node, and per rank the
//! node, its last descendant's rank and its parent's rank.
//!
//! [`Document::cmp_document_order`](crate::Document::cmp_document_order)
//! walks ancestor chains to a common ancestor on every call — O(depth) per
//! comparison, paid O(n log n) times inside every sort. A [`DocOrder`] is
//! computed once per document (a single pre-order traversal) and turns each
//! comparison into one integer compare, the XPath-accelerator trick of
//! encoding order in a numeric key.
//!
//! The same table is the nested-set `[rank, last descendant]` pair the
//! interval and ancestry numberings encode, so they read it instead of
//! keeping copies: a [`DocOrder`] is a cheap handle (`Arc`) on one
//! immutable table, and a structural update derives the next table from
//! the previous one by a splice ([`DocOrder::insert_subtree`] /
//! [`DocOrder::remove_subtree`]) instead of a traversal.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::tree::{Document, NodeId};

/// Rank of a node that was not reached by the traversal (detached, or
/// outside the ranked subtree). Sorts after every ranked node. Also the
/// parent position of the table's root.
const UNRANKED: u32 = u32::MAX;

#[derive(Debug, Default, PartialEq, Eq)]
struct SpanTable {
    /// Dense by [`NodeId::index`]; [`UNRANKED`] marks unreached nodes.
    ranks: Vec<u32>,
    /// Rank -> node.
    pre: Vec<NodeId>,
    /// Rank -> rank of the last node inside that node's subtree
    /// (inclusive; its own rank for a leaf). With the rank this turns every
    /// subtree into the half-open interval `(rank, last]` of its strict
    /// descendants — the containment-range form of the ancestor test that
    /// structural joins sort-merge over.
    last: Vec<u32>,
    /// Rank -> parent's rank ([`UNRANKED`] at rank 0).
    parent: Vec<u32>,
}

/// `old[..at]`, then `mid`, then `old[end..]` mapped through `tail`: one
/// copying pass, the shape of every column splice.
fn spliced<T: Copy>(
    old: &[T],
    (at, end): (u32, u32),
    mid: impl ExactSizeIterator<Item = T>,
    tail: impl Fn(T) -> T,
) -> Vec<T> {
    let (head, rest) = (&old[..at as usize], &old[end as usize..]);
    let mut out = Vec::with_capacity(head.len() + mid.len() + rest.len());
    out.extend_from_slice(head);
    out.extend(mid);
    out.extend(rest.iter().map(|&v| tail(v)));
    out
}

impl SpanTable {
    /// The table of the subtree under `root`, in one pre-order pass.
    fn of(doc: &Document, root: NodeId) -> SpanTable {
        let pre: Vec<NodeId> = doc.descendants(root).collect();
        let mut ranks = vec![UNRANKED; doc.arena_len()];
        for (rank, node) in pre.iter().enumerate() {
            // u32 ranks: the arena is indexed by u32, so rank fits.
            ranks[node.index()] = rank as u32;
        }
        let parent: Vec<u32> = pre
            .iter()
            .map(|&node| match doc.parent(node) {
                Some(p) if node != root => ranks[p.index()],
                _ => UNRANKED,
            })
            .collect();
        // Children rank after their parents, so one reverse pass folds
        // subtree extents upward.
        let mut last: Vec<u32> = (0..pre.len() as u32).collect();
        for rank in (1..pre.len()).rev() {
            let p = parent[rank] as usize;
            last[p] = last[p].max(last[rank]);
        }
        SpanTable { ranks, pre, last, parent }
    }

    /// The table with the `cut` ranks from `at` — a whole subtree under the
    /// node ranked `parent` — taken out and `sub`'s (ranked from 0) put in
    /// their place: each column is copied once, later ranks shift by the
    /// difference, and so do the extents of `parent` and its ancestors.
    fn respliced(&self, parent: u32, at: u32, cut: u32, sub: &SpanTable) -> SpanTable {
        let end = at + cut;
        // Wrapping: the difference is negative when ranks are taken out.
        let by = (sub.pre.len() as u32).wrapping_sub(cut);
        let shift = |rank: u32| rank.wrapping_add(by);
        let mut ranks: Vec<u32> = self
            .ranks
            .iter()
            .map(|&r| match r {
                UNRANKED => UNRANKED,
                r if r < at => r,
                r if r < end => UNRANKED,
                r => shift(r),
            })
            .collect();
        ranks.resize(ranks.len().max(sub.ranks.len()), UNRANKED);
        for (i, node) in sub.pre.iter().enumerate() {
            ranks[node.index()] = at + i as u32;
        }
        let sub_parents = sub.parent.iter().map(|&q| if q == UNRANKED { parent } else { q + at });
        let mut table = SpanTable {
            ranks,
            pre: spliced(&self.pre, (at, end), sub.pre.iter().copied(), |node| node),
            last: spliced(&self.last, (at, end), sub.last.iter().map(|&l| l + at), shift),
            parent: spliced(&self.parent, (at, end), sub_parents, |q| if q >= end { shift(q) } else { q }),
        };
        let mut up = parent;
        while up != UNRANKED {
            table.last[up as usize] = shift(table.last[up as usize]);
            up = table.parent[up as usize];
        }
        table
    }
}

/// The pre-order ranks of one document subtree: `rank(a) < rank(b)` iff
/// `a` precedes `b` in document order (for nodes in the ranked subtree),
/// and ranks index the node, subtree-extent and parent columns.
///
/// A `DocOrder` is a handle on an immutable span table — shared by every
/// clone, and by every [`DocOrder::subtree`] window cut from it — so it is
/// a snapshot of the tree it was built from: after a structural mutation,
/// either rebuild or splice the handle with [`DocOrder::insert_subtree`] /
/// [`DocOrder::remove_subtree`], which point *this* handle at a new table
/// and leave every other one on the old.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocOrder {
    table: Arc<SpanTable>,
    /// Table rank of the ranked subtree's root (rank 0 of this handle).
    base: u32,
    len: u32,
}

impl DocOrder {
    /// Ranks the subtree under the document root (the whole tree).
    pub fn build(doc: &Document) -> DocOrder {
        DocOrder::build_at(doc, doc.root())
    }

    /// Ranks the subtree under `root` in one pre-order pass.
    pub fn build_at(doc: &Document, root: NodeId) -> DocOrder {
        let table = SpanTable::of(doc, root);
        DocOrder { base: 0, len: table.pre.len() as u32, table: Arc::new(table) }
    }

    /// The ranks of `root`'s subtree alone, counted from `root`, read from
    /// the same table.
    ///
    /// # Panics
    /// Panics if `root` is not ranked.
    pub fn subtree(&self, root: NodeId) -> DocOrder {
        let (start, end) = self.extent(root).expect("subtree root must be ranked");
        DocOrder { table: Arc::clone(&self.table), base: self.base + start, len: end - start + 1 }
    }

    /// Re-ranks after `node` (with whatever subtree hangs under it) was
    /// attached to a ranked parent in `doc`, by a splice: no traversal of
    /// the tree beyond `node`'s own subtree. Returns the rank `node` took
    /// and how many ranks were added.
    ///
    /// # Panics
    /// Panics if `node`'s parent is not ranked.
    pub fn insert_subtree(&mut self, doc: &Document, node: NodeId) -> (u32, u32) {
        let parent = doc.parent(node).map_or(UNRANKED, |p| self.rank(p));
        assert!(parent != UNRANKED, "inserted node must hang under a ranked parent");
        let at = match doc.prev_sibling(node) {
            Some(before) => self.end_rank(before) + 1,
            None => parent + 1,
        };
        let sub = SpanTable::of(doc, node);
        let count = sub.pre.len() as u32;
        self.table =
            Arc::new(self.table.respliced(self.base + parent, self.base + at, 0, &sub));
        self.len += count;
        (at, count)
    }

    /// Re-ranks after the subtree under `node` was detached: the inverse
    /// splice of [`DocOrder::insert_subtree`]. Returns the rank `node` held
    /// and how many ranks were removed.
    ///
    /// # Panics
    /// Panics if `node` is unranked or is the root of the ranked subtree.
    pub fn remove_subtree(&mut self, node: NodeId) -> (u32, u32) {
        let at = self.rank(node);
        assert!(at != UNRANKED && at != 0, "removed node must be ranked below the root");
        let cut = self.last_of(at) - at + 1;
        let parent = self.table.parent[(self.base + at) as usize];
        self.table =
            Arc::new(self.table.respliced(parent, self.base + at, cut, &SpanTable::default()));
        self.len -= cut;
        (at, cut)
    }

    /// The root of the ranked subtree.
    pub fn root(&self) -> NodeId {
        self.node_at(0)
    }

    /// Number of ranked nodes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is ranked (never after construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node's pre-order rank: the sort key. Nodes outside the ranked
    /// subtree get [`u32::MAX`] and sort last (stable among themselves only
    /// if the caller keeps them apart — the providers never produce them).
    pub fn rank(&self, node: NodeId) -> u32 {
        // An unreached node's `UNRANKED` wraps past any subtree's length.
        match self.table.ranks.get(node.index()) {
            Some(rank) if rank.wrapping_sub(self.base) < self.len => rank - self.base,
            _ => UNRANKED,
        }
    }

    /// Whether `node` was reached by the ranking traversal.
    pub fn contains(&self, node: NodeId) -> bool {
        self.rank(node) != UNRANKED
    }

    /// Rank of the last node inside `node`'s subtree (inclusive). Equals
    /// [`DocOrder::rank`] for leaves, [`u32::MAX`] for unranked nodes.
    pub fn end_rank(&self, node: NodeId) -> u32 {
        match self.rank(node) {
            UNRANKED => UNRANKED,
            rank => self.last_of(rank),
        }
    }

    /// The node holding `rank`.
    pub fn node_at(&self, rank: u32) -> NodeId {
        self.table.pre[(self.base + rank) as usize]
    }

    /// Rank of the last descendant of the node holding `rank`.
    pub fn last_of(&self, rank: u32) -> u32 {
        self.table.last[(self.base + rank) as usize] - self.base
    }

    /// Rank of the parent of the node holding `rank` (`None` at the root).
    pub fn parent_of(&self, rank: u32) -> Option<u32> {
        (rank != 0).then(|| self.table.parent[(self.base + rank) as usize] - self.base)
    }

    /// The nodes holding ranks `from..=to`, in document order.
    pub fn slice(&self, from: u32, to: u32) -> &[NodeId] {
        &self.table.pre[(self.base + from) as usize..=(self.base + to) as usize]
    }

    /// The subtree of `node` as a rank interval `[rank, end_rank]`
    /// (inclusive on both sides; strict descendants occupy
    /// `(rank, end_rank]`). `None` for unranked nodes.
    pub fn extent(&self, node: NodeId) -> Option<(u32, u32)> {
        let start = self.rank(node);
        (start != UNRANKED).then(|| (start, self.last_of(start)))
    }

    /// The containment test in O(1): whether `desc` is a *strict*
    /// descendant of `anc`, answered purely from the rank interval —
    /// no tree walk, no label-chain climb. Unranked nodes never qualify.
    pub fn is_descendant(&self, anc: NodeId, desc: NodeId) -> bool {
        let a = self.rank(anc);
        let d = self.rank(desc);
        a != UNRANKED && d != UNRANKED && d > a && d <= self.last_of(a)
    }

    /// Document order by rank — equivalent to
    /// [`Document::cmp_document_order`](crate::Document::cmp_document_order)
    /// for ranked nodes, in O(1).
    pub fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        self.rank(a).cmp(&self.rank(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse("<a><b><c/><d>t</d></b><e/><f><g/></f></a>").unwrap()
    }

    #[test]
    fn ranks_agree_with_cmp_document_order() {
        let doc = sample();
        let order = DocOrder::build(&doc);
        let all: Vec<NodeId> = doc.descendants(doc.root()).collect();
        for &a in &all {
            for &b in &all {
                assert_eq!(
                    order.cmp(a, b),
                    doc.cmp_document_order(a, b),
                    "rank order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn ranks_are_dense_preorder() {
        let doc = sample();
        let order = DocOrder::build(&doc);
        for (i, node) in doc.descendants(doc.root()).enumerate() {
            assert_eq!(order.rank(node), i as u32);
            assert_eq!(order.node_at(i as u32), node);
            assert_eq!(order.parent_of(i as u32), doc.parent(node).map(|p| order.rank(p)));
            assert!(order.contains(node));
        }
    }

    #[test]
    fn extents_agree_with_the_tree_walk() {
        let doc = sample();
        let order = DocOrder::build(&doc);
        let all: Vec<NodeId> = doc.descendants(doc.root()).collect();
        for &a in &all {
            // The extent covers exactly the subtree.
            let (start, end) = order.extent(a).unwrap();
            let subtree: Vec<NodeId> = doc.descendants(a).collect();
            assert_eq!(start, order.rank(a));
            assert_eq!(end, order.rank(*subtree.last().unwrap()));
            assert_eq!((end - start + 1) as usize, subtree.len());
            assert_eq!(order.slice(start, end), &subtree[..]);
            for &b in &all {
                let walked = a != b && doc.descendants(a).any(|n| n == b);
                assert_eq!(order.is_descendant(a, b), walked, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn leaf_extents_are_degenerate() {
        let doc = sample();
        let order = DocOrder::build(&doc);
        for node in doc.descendants(doc.root()) {
            if doc.children(node).next().is_none() {
                let (start, end) = order.extent(node).unwrap();
                assert_eq!(start, end, "leaf {node:?}");
                assert_eq!(order.end_rank(node), order.rank(node));
            }
        }
    }

    #[test]
    fn subtree_ranking_excludes_outside_nodes() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        let subtree_root = doc.children(root).next().unwrap(); // <b>
        let order = DocOrder::build_at(&doc, subtree_root);
        assert_eq!(order.root(), subtree_root);
        assert_eq!(order.rank(subtree_root), 0);
        assert!(!order.contains(root));
        assert_eq!(order.rank(root), u32::MAX);
        assert_eq!(order.end_rank(root), u32::MAX);
    }

    #[test]
    fn splices_equal_rebuilds_and_leave_other_handles_alone() {
        let mut doc = sample();
        let before = DocOrder::build(&doc);
        let mut order = before.clone();
        let b = doc.first_child(doc.root_element().unwrap()).unwrap();

        // A two-node subtree as b's middle child, then a leaf appended to
        // the root element (the last rank of the table).
        let (x, y) = (doc.create_element("x"), doc.create_text("y"));
        doc.append_child(x, y);
        doc.insert_after(doc.first_child(b).unwrap(), x);
        assert_eq!(order.insert_subtree(&doc, x), (4, 2));
        assert_eq!(order, DocOrder::build(&doc));
        let z = doc.create_comment("z");
        doc.append_child(doc.root_element().unwrap(), z);
        assert_eq!(order.insert_subtree(&doc, z), (11, 1));
        assert_eq!(order, DocOrder::build(&doc));

        // Detaching b takes its six ranks (x and y among them) out.
        doc.detach(b);
        assert_eq!(order.remove_subtree(b), (2, 6));
        assert_eq!(order, DocOrder::build(&doc));
        assert!(!order.contains(x));

        // The handle cloned before any splice still holds the first table.
        assert_eq!(before.len(), 9);
        assert_eq!(before.rank(b), 2);
    }
}
