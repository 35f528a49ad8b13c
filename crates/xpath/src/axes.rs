//! Axis providers: where the nodes of an XPath axis come from.
//!
//! The contract: every method returns nodes in **document order** (the
//! evaluator re-orders for reverse axes when numbering predicate
//! positions), and relationship tests must agree with the document.

use std::cmp::Ordering;

use ruid_core::Ruid2Scheme;
use schemes::interval::SpanIndex;
use schemes::uid::UidScheme;
use schemes::{kary, NumberingScheme};
use ubig::Uint;
use xmldom::{DocOrder, Document, NodeId};

/// A source of axis node-sets and structural relationship tests.
pub trait AxisProvider {
    /// Short name for reports ("tree", "uid", "ruid").
    fn provider_name(&self) -> &'static str;

    /// Children in document order.
    fn children(&self, n: NodeId) -> Vec<NodeId>;

    /// Parent (`None` at the evaluation root).
    fn parent(&self, n: NodeId) -> Option<NodeId>;

    /// Strict descendants in document order.
    fn descendants(&self, n: NodeId) -> Vec<NodeId>;

    /// Strict ancestors in document order (root first).
    fn ancestors(&self, n: NodeId) -> Vec<NodeId>;

    /// Following siblings in document order.
    fn following_siblings(&self, n: NodeId) -> Vec<NodeId>;

    /// Preceding siblings in document order.
    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId>;

    /// The full following axis in document order.
    fn following(&self, n: NodeId) -> Vec<NodeId>;

    /// The full preceding axis in document order.
    fn preceding(&self, n: NodeId) -> Vec<NodeId>;

    /// Whether `a` is a strict ancestor of `b`.
    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool;

    /// Document order comparison.
    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering;

    /// Name-test fast path for child steps: `Some(matching children of n,
    /// in document order)` when the provider has an index to answer from,
    /// `None` to make the evaluator expand the axis and filter.
    fn children_named(&self, _n: NodeId, _name: &str) -> Option<Vec<NodeId>> {
        None
    }

    /// Name-test fast path for descendant steps (see
    /// [`AxisProvider::children_named`]).
    fn descendants_named(&self, _n: NodeId, _name: &str) -> Option<Vec<NodeId>> {
        None
    }

    /// Batched [`AxisProvider::children_named`] over a whole context set, so
    /// an indexing provider resolves the name to its interned id **once per
    /// step** instead of once per context node. Returns one match list per
    /// context node (predicates apply per node before the union).
    fn children_named_batch(&self, ctx: &[NodeId], name: &str) -> Option<Vec<Vec<NodeId>>> {
        ctx.iter().map(|&n| self.children_named(n, name)).collect()
    }

    /// Batched [`AxisProvider::descendants_named`] (see
    /// [`AxisProvider::children_named_batch`]).
    fn descendants_named_batch(&self, ctx: &[NodeId], name: &str) -> Option<Vec<Vec<NodeId>>> {
        ctx.iter().map(|&n| self.descendants_named(n, name)).collect()
    }

    /// The precomputed document-order key cache, when the provider carries
    /// one. With a cache the evaluator sorts node-sets by integer rank
    /// (`sort_unstable_by_key`) instead of calling
    /// [`AxisProvider::cmp_doc_order`] — ancestor-chain or label arithmetic
    /// — O(n log n) times per step.
    fn order(&self) -> Option<&DocOrder> {
        None
    }
}

// --- Tree walking (baseline) ---------------------------------------------

/// Axis provider that walks the DOM — the no-numbering baseline.
pub struct TreeAxes<'a> {
    doc: &'a Document,
    root: NodeId,
    order: Option<&'a DocOrder>,
}

impl<'a> TreeAxes<'a> {
    /// Walks `doc` below its root element.
    pub fn new(doc: &'a Document) -> Self {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        TreeAxes { doc, root, order: None }
    }

    /// Like [`TreeAxes::new`], with a precomputed order-key cache for O(1)
    /// document-order sorts.
    pub fn with_order(doc: &'a Document, order: &'a DocOrder) -> Self {
        let mut axes = TreeAxes::new(doc);
        axes.order = Some(order);
        axes
    }
}

impl AxisProvider for TreeAxes<'_> {
    fn provider_name(&self) -> &'static str {
        "tree"
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.doc.children(n).collect()
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        if n == self.root {
            None
        } else {
            self.doc.parent(n)
        }
    }

    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        self.doc.descendants(n).skip(1).collect()
    }

    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.doc.ancestors(n).take_while(|&a| a != self.doc.root()).collect();
        if n == self.root {
            v.clear();
        }
        v.reverse();
        v
    }

    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        if n == self.root {
            return Vec::new();
        }
        self.doc.following_siblings(n).collect()
    }

    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        if n == self.root {
            return Vec::new();
        }
        let mut v: Vec<NodeId> = self.doc.preceding_siblings(n).collect();
        v.reverse();
        v
    }

    fn following(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = n;
        loop {
            for s in self.following_siblings(cur) {
                out.push(s);
                out.extend(self.doc.descendants(s).skip(1));
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        out
    }

    fn preceding(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = self.ancestors(n);
        path.push(n);
        let mut out = Vec::new();
        for pair in path.windows(2) {
            let on_path = pair[1];
            let mut left: Vec<NodeId> = self.doc.preceding_siblings(on_path).collect();
            left.reverse();
            for s in left {
                out.extend(self.doc.descendants(s));
            }
        }
        out
    }

    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.doc.is_ancestor_of(a, b)
    }

    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.doc.cmp_document_order(a, b)
    }

    fn order(&self) -> Option<&DocOrder> {
        self.order
    }
}

// --- Original UID ---------------------------------------------------------

/// Axis provider computing axes from original-UID label arithmetic. Child
/// slots are probed over the full range `[(p-1)k + 2, pk + 1]`, so wide
/// documents pay k probes per node — the cost profile the paper ascribes to
/// the scheme.
pub struct UidAxes<'a> {
    scheme: &'a UidScheme,
    order: Option<&'a DocOrder>,
}

impl<'a> UidAxes<'a> {
    /// Wraps a built UID numbering.
    pub fn new(scheme: &'a UidScheme) -> Self {
        UidAxes { scheme, order: None }
    }

    /// Like [`UidAxes::new`], with a precomputed order-key cache for O(1)
    /// document-order sorts.
    pub fn with_order(scheme: &'a UidScheme, order: &'a DocOrder) -> Self {
        UidAxes { scheme, order: Some(order) }
    }

    fn label(&self, n: NodeId) -> Uint {
        self.scheme.label_of(n)
    }
}

impl AxisProvider for UidAxes<'_> {
    fn provider_name(&self) -> &'static str {
        "uid"
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        let p = self.label(n);
        let k = self.scheme.k();
        let mut out = Vec::new();
        for j in 1..=k {
            let candidate = kary::child_uint(&p, k, j);
            if let Some(c) = self.scheme.node_of(&candidate) {
                out.push(c);
            }
        }
        out
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        let l = self.scheme.parent_label(&self.label(n))?;
        self.scheme.node_of(&l)
    }

    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = self.children(n);
        stack.reverse();
        while let Some(c) = stack.pop() {
            out.push(c);
            let kids = self.children(c);
            for k in kids.into_iter().rev() {
                stack.push(k);
            }
        }
        out
    }

    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.label(n);
        while let Some(p) = self.scheme.parent_label(&cur) {
            if let Some(node) = self.scheme.node_of(&p) {
                out.push(node);
            }
            cur = p;
        }
        out.reverse();
        out
    }

    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        let l = self.label(n);
        let Some(p) = self.scheme.parent_label(&l) else { return Vec::new() };
        let k = self.scheme.k();
        let rank = kary::sibling_rank_uint(&l, k);
        let mut out = Vec::new();
        for j in rank + 1..=k {
            let candidate = kary::child_uint(&p, k, j);
            if let Some(c) = self.scheme.node_of(&candidate) {
                out.push(c);
            }
        }
        out
    }

    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        let l = self.label(n);
        let Some(p) = self.scheme.parent_label(&l) else { return Vec::new() };
        let k = self.scheme.k();
        let rank = kary::sibling_rank_uint(&l, k);
        let mut out = Vec::new();
        for j in 1..rank {
            let candidate = kary::child_uint(&p, k, j);
            if let Some(c) = self.scheme.node_of(&candidate) {
                out.push(c);
            }
        }
        out
    }

    fn following(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = n;
        loop {
            for s in self.following_siblings(cur) {
                out.push(s);
                out.extend(self.descendants(s));
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        out
    }

    fn preceding(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = self.ancestors(n);
        path.push(n);
        let mut out = Vec::new();
        for pair in path.windows(2) {
            for s in self.preceding_siblings(pair[1]) {
                out.push(s);
                out.extend(self.descendants(s));
            }
        }
        out
    }

    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.scheme.is_ancestor(&self.label(a), &self.label(b))
    }

    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.scheme.cmp_order(&self.label(a), &self.label(b))
    }

    fn order(&self) -> Option<&DocOrder> {
        self.order
    }
}

// --- Interval / ancestry (position tables) ---------------------------------

/// Axis provider over a [`SpanIndex`] — the flat pre-order position tables
/// both the interval and the ancestry engines reconstruct from their
/// labels. Every axis is pure position arithmetic: `children` hops
/// `last(child) + 1`, `descendants` is the slice `(pos, last]`, ordering
/// is position comparison.
pub struct SpanAxes<'a> {
    idx: &'a SpanIndex,
    name: &'static str,
    order: Option<&'a DocOrder>,
}

impl<'a> SpanAxes<'a> {
    /// Wraps the position tables of an interval-family scheme under the
    /// provider name the reports use ("interval" / "ancestry").
    pub fn new(idx: &'a SpanIndex, name: &'static str) -> Self {
        SpanAxes { idx, name, order: None }
    }

    /// Like [`SpanAxes::new`], with a precomputed order-key cache for
    /// O(1) document-order sorts.
    pub fn with_order(idx: &'a SpanIndex, name: &'static str, order: &'a DocOrder) -> Self {
        SpanAxes { idx, name, order: Some(order) }
    }

    fn pos(&self, n: NodeId) -> u32 {
        let pos = self.idx.rank(n);
        assert!(pos != u32::MAX, "axis node must be labelled");
        pos
    }
}

impl AxisProvider for SpanAxes<'_> {
    fn provider_name(&self) -> &'static str {
        self.name
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        let pos = self.pos(n);
        let last = self.idx.last_of(pos);
        let mut out = Vec::new();
        let mut c = pos + 1;
        while c <= last {
            out.push(self.idx.node_at(c));
            c = self.idx.last_of(c) + 1;
        }
        out
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        Some(self.idx.node_at(self.idx.parent_of(self.pos(n))?))
    }

    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let pos = self.pos(n);
        let last = self.idx.last_of(pos);
        if pos == last {
            return Vec::new();
        }
        self.idx.slice(pos + 1, last).to_vec()
    }

    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.pos(n);
        while let Some(p) = self.idx.parent_of(cur) {
            out.push(self.idx.node_at(p));
            cur = p;
        }
        out.reverse();
        out
    }

    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        let pos = self.pos(n);
        let Some(parent) = self.idx.parent_of(pos) else { return Vec::new() };
        let parent_last = self.idx.last_of(parent);
        let mut out = Vec::new();
        let mut c = self.idx.last_of(pos) + 1;
        while c <= parent_last {
            out.push(self.idx.node_at(c));
            c = self.idx.last_of(c) + 1;
        }
        out
    }

    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        let pos = self.pos(n);
        let Some(parent) = self.idx.parent_of(pos) else { return Vec::new() };
        let mut out = Vec::new();
        let mut c = parent + 1;
        while c < pos {
            out.push(self.idx.node_at(c));
            c = self.idx.last_of(c) + 1;
        }
        out
    }

    fn following(&self, n: NodeId) -> Vec<NodeId> {
        let after = self.idx.last_of(self.pos(n)) + 1;
        if after as usize >= self.idx.len() {
            return Vec::new();
        }
        self.idx.slice(after, self.idx.len() as u32 - 1).to_vec()
    }

    fn preceding(&self, n: NodeId) -> Vec<NodeId> {
        // Everything strictly before `pos` that is not an ancestor: the
        // positions whose subtree closes before `pos` opens.
        let pos = self.pos(n);
        (0..pos).filter(|&p| self.idx.last_of(p) < pos).map(|p| self.idx.node_at(p)).collect()
    }

    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let (pa, pb) = (self.pos(a), self.pos(b));
        pa < pb && pb <= self.idx.last_of(pa)
    }

    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.pos(a).cmp(&self.pos(b))
    }

    fn order(&self) -> Option<&DocOrder> {
        self.order
    }
}

// --- rUID ------------------------------------------------------------------

/// Axis provider computing axes from the rUID routines of Section 3.5 —
/// pure label arithmetic over the in-memory κ and table K.
pub struct RuidAxes<'a> {
    scheme: &'a Ruid2Scheme,
    order: Option<&'a DocOrder>,
}

impl<'a> RuidAxes<'a> {
    /// Wraps a built rUID numbering.
    pub fn new(scheme: &'a Ruid2Scheme) -> Self {
        RuidAxes { scheme, order: None }
    }

    /// Like [`RuidAxes::new`], with a precomputed order-key cache for O(1)
    /// document-order sorts.
    pub fn with_order(scheme: &'a Ruid2Scheme, order: &'a DocOrder) -> Self {
        RuidAxes { scheme, order: Some(order) }
    }

    fn label(&self, n: NodeId) -> ruid_core::Ruid2 {
        self.scheme.label_of(n)
    }

    fn resolve(&self, labels: Vec<ruid_core::Ruid2>) -> Vec<NodeId> {
        labels
            .into_iter()
            .map(|l| self.scheme.node_of(&l).expect("axis label must resolve"))
            .collect()
    }
}

impl AxisProvider for RuidAxes<'_> {
    fn provider_name(&self) -> &'static str {
        "ruid"
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.resolve(self.scheme.rchildren(&self.label(n)))
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.scheme.rparent(&self.label(n))?;
        self.scheme.node_of(&p)
    }

    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        self.resolve(self.scheme.rdescendants(&self.label(n)))
    }

    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = self.resolve(self.scheme.rancestors(&self.label(n)));
        v.reverse();
        v
    }

    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        self.resolve(self.scheme.rfsiblings(&self.label(n)))
    }

    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = self.resolve(self.scheme.rpsiblings(&self.label(n)));
        v.reverse();
        v
    }

    fn following(&self, n: NodeId) -> Vec<NodeId> {
        self.resolve(self.scheme.rfollowing(&self.label(n)))
    }

    fn preceding(&self, n: NodeId) -> Vec<NodeId> {
        self.resolve(self.scheme.rpreceding(&self.label(n)))
    }

    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.scheme.label_is_ancestor(&self.label(a), &self.label(b))
    }

    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.scheme.cmp_order(&self.label(a), &self.label(b))
    }

    fn order(&self) -> Option<&DocOrder> {
        self.order
    }
}
