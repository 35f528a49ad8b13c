//! The paper's *first* evaluation strategy (Section 3.5): "generating the
//! set of nodes satisfying C and checking which nodes belong to the
//! specific axis".
//!
//! An element-name index maps each tag name to its nodes in document order;
//! a child or descendant step with a name test then starts from the (small)
//! candidate list and keeps the candidates whose **labels** pass the axis
//! check — `rparent` for child steps, the ancestor arithmetic for
//! descendant steps — instead of expanding the axis node by node. This is
//! where the UID family's computed-parent property pays off: the axis check
//! is pure in-memory arithmetic.

use std::collections::HashMap;
use std::sync::Arc;

use par::Executor;
use xmldom::{DocOrder, Document, NameId, NodeId};

use crate::axes::AxisProvider;

/// Element-name index: tag name -> nodes in document order.
///
/// Each list sits behind its own `Arc`: a clone shares them all, and a
/// patch copies (`Arc::make_mut`) only the lists of the names it touches.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    by_name: HashMap<NameId, Arc<Vec<NodeId>>>,
}

impl NameIndex {
    /// Indexes every element under the document's root element.
    pub fn build(doc: &Document) -> Self {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        let mut by_name: HashMap<NameId, Vec<NodeId>> = HashMap::new();
        for node in doc.descendants(root) {
            if let Some(name) = doc.element_name(node) {
                by_name.entry(name).or_default().push(node);
            }
        }
        NameIndex::from_lists(by_name)
    }

    fn from_lists(by_name: HashMap<NameId, Vec<NodeId>>) -> Self {
        let by_name = by_name.into_iter().map(|(name, list)| (name, Arc::new(list))).collect();
        NameIndex { by_name }
    }

    /// [`NameIndex::build`] with an explicit thread budget: the pre-order
    /// node sequence is split into contiguous chunks, each chunk indexed
    /// independently, and the chunk maps merged **in chunk order** — which
    /// keeps every per-name list in document order and the result identical
    /// to the sequential build.
    pub fn build_with(doc: &Document, exec: &Executor) -> Self {
        if exec.is_sequential() {
            return NameIndex::build(doc);
        }
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        let nodes: Vec<NodeId> = doc.descendants(root).collect();
        // A few chunks per thread so stealing can smooth out name-density
        // skew between document regions.
        let chunk = (nodes.len() / (exec.threads() * 4)).max(1024);
        let chunks: Vec<&[NodeId]> = nodes.chunks(chunk).collect();
        let partials = exec.par_map(&chunks, |_, part| {
            let mut by_name: HashMap<NameId, Vec<NodeId>> = HashMap::new();
            for &node in *part {
                if let Some(name) = doc.element_name(node) {
                    by_name.entry(name).or_default().push(node);
                }
            }
            by_name
        });
        let mut by_name: HashMap<NameId, Vec<NodeId>> = HashMap::new();
        for partial in partials {
            for (name, mut list) in partial {
                by_name.entry(name).or_default().append(&mut list);
            }
        }
        NameIndex::from_lists(by_name)
    }

    /// All elements named `name`, in document order.
    pub fn nodes_named(&self, doc: &Document, name: &str) -> &[NodeId] {
        doc.name_id(name).map_or(&[], |id| self.nodes_with_id(id))
    }

    /// All elements with the interned name `id`, in document order — the
    /// per-step hot path once the caller has resolved the name.
    pub fn nodes_with_id(&self, id: NameId) -> &[NodeId] {
        self.by_name.get(&id).map_or(&[], |list| list.as_slice())
    }

    /// Number of distinct names indexed.
    pub fn name_count(&self) -> usize {
        self.by_name.len()
    }

    /// `(lists held by the same pointer as in base, lists)` — what a patch
    /// since cloning `base` left shared; test hook for the copy-on-write
    /// contract.
    #[doc(hidden)]
    pub fn shared_lists(&self, base: &NameIndex) -> (usize, usize) {
        let shared = self
            .by_name
            .iter()
            .filter(|(name, list)| base.by_name.get(name).is_some_and(|b| Arc::ptr_eq(b, list)))
            .count();
        (shared, self.by_name.len())
    }

    /// Incrementally absorbs one freshly inserted element, splicing it
    /// into its name's list at document-order rank (`order` must be built
    /// *after* the insert). Non-element nodes are never indexed and pass
    /// through untouched.
    pub fn patch_insert(&mut self, doc: &Document, order: &DocOrder, node: NodeId) {
        let Some(name) = doc.element_name(node) else { return };
        let list = Arc::make_mut(self.by_name.entry(name).or_default());
        let rank = order.rank(node);
        let at = list.partition_point(|&m| order.rank(m) < rank);
        list.insert(at, node);
    }

    /// Incrementally removes a detached subtree's elements, given as
    /// `(name, node)` pairs captured *before* the detach: one pass over
    /// each touched name's list, however many of its nodes the subtree
    /// held. Names whose lists empty out are dropped so `name_count`
    /// matches a rebuild.
    pub fn patch_delete(&mut self, removed: &[(NameId, NodeId)]) {
        let mut removed = removed.to_vec();
        removed.sort_unstable();
        for group in removed.chunk_by(|a, b| a.0 == b.0) {
            let name = group[0].0;
            let Some(list) = self.by_name.get_mut(&name) else { continue };
            // Sorted by node within the name, so membership is a search.
            Arc::make_mut(list).retain(|m| group.binary_search(&(name, *m)).is_err());
            if list.is_empty() {
                self.by_name.remove(&name);
            }
        }
    }
}

/// Wraps any axis provider with a name index, accelerating child and
/// descendant steps that carry a name test (the common case). All other
/// axes delegate to the inner provider.
pub struct NameIndexed<'a, A: AxisProvider> {
    inner: A,
    doc: &'a Document,
    index: &'a NameIndex,
}

impl<'a, A: AxisProvider> NameIndexed<'a, A> {
    /// Combines a provider with a prebuilt index.
    pub fn new(inner: A, doc: &'a Document, index: &'a NameIndex) -> Self {
        NameIndexed { inner, doc, index }
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Children of `n` carrying the interned name `id`, from the candidate
    /// list the caller already looked up.
    fn children_with_id(&self, n: NodeId, id: NameId, candidates: &[NodeId]) -> Vec<NodeId> {
        // Candidate-first only pays when the candidate list is small;
        // otherwise checking every candidate against every context node of
        // a step goes quadratic, and expanding the child axis is cheaper.
        if candidates.len() > 16 {
            return self
                .inner
                .children(n)
                .into_iter()
                .filter(|&c| self.doc.element_name(c) == Some(id))
                .collect();
        }
        candidates.iter().copied().filter(|&c| self.inner.parent(c) == Some(n)).collect()
    }

    /// Descendants of `n` from the candidate list (see
    /// [`AxisProvider::descendants_named`]).
    fn descendants_from_candidates(&self, n: NodeId, candidates: &[NodeId]) -> Vec<NodeId> {
        // Candidate-first is the right plan here even for large candidate
        // lists: one ancestry check per candidate beats expanding the whole
        // subtree (the common `//name` shape hits this exactly once per
        // query thanks to the evaluator's `//` peephole).
        candidates.iter().copied().filter(|&c| self.inner.is_ancestor(n, c)).collect()
    }
}

impl<A: AxisProvider> AxisProvider for NameIndexed<'_, A> {
    fn provider_name(&self) -> &'static str {
        "name-indexed"
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.children(n)
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.inner.parent(n)
    }

    fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.descendants(n)
    }

    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.ancestors(n)
    }

    fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.following_siblings(n)
    }

    fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.preceding_siblings(n)
    }

    fn following(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.following(n)
    }

    fn preceding(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.preceding(n)
    }

    fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.inner.is_ancestor(a, b)
    }

    fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        self.inner.cmp_doc_order(a, b)
    }

    fn children_named(&self, n: NodeId, name: &str) -> Option<Vec<NodeId>> {
        let Some(id) = self.doc.name_id(name) else { return Some(Vec::new()) };
        Some(self.children_with_id(n, id, self.index.nodes_with_id(id)))
    }

    fn descendants_named(&self, n: NodeId, name: &str) -> Option<Vec<NodeId>> {
        let Some(id) = self.doc.name_id(name) else { return Some(Vec::new()) };
        Some(self.descendants_from_candidates(n, self.index.nodes_with_id(id)))
    }

    fn children_named_batch(&self, ctx: &[NodeId], name: &str) -> Option<Vec<Vec<NodeId>>> {
        // Resolve the name to its interned id once per step, not once per
        // context node (the name_id + map lookup used to sit in this loop).
        let Some(id) = self.doc.name_id(name) else {
            return Some(vec![Vec::new(); ctx.len()]);
        };
        let candidates = self.index.nodes_with_id(id);
        Some(ctx.iter().map(|&n| self.children_with_id(n, id, candidates)).collect())
    }

    fn descendants_named_batch(&self, ctx: &[NodeId], name: &str) -> Option<Vec<Vec<NodeId>>> {
        let Some(id) = self.doc.name_id(name) else {
            return Some(vec![Vec::new(); ctx.len()]);
        };
        let candidates = self.index.nodes_with_id(id);
        Some(ctx.iter().map(|&n| self.descendants_from_candidates(n, candidates)).collect())
    }

    fn order(&self) -> Option<&DocOrder> {
        self.inner.order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patches_match_a_rebuild_and_copy_only_the_touched_lists() {
        let mut doc = Document::parse("<r><s><i/><i/><j/><i/></s><i/><k/><s><i/></s></r>").unwrap();
        let base = NameIndex::build(&doc);
        let mut index = base.clone();
        assert_eq!(index.shared_lists(&base), (5, 5));
        // A subtree with three <i> and one <j>: one pass over each list,
        // and the emptied <j> list is dropped.
        let root = doc.root_element().unwrap();
        let s = doc.first_child(root).unwrap();
        let removed: Vec<(NameId, NodeId)> = doc
            .descendants(s)
            .filter_map(|n| doc.element_name(n).map(|name| (name, n)))
            .collect();
        doc.detach(s);
        index.patch_delete(&removed);
        let rebuilt = NameIndex::build(&doc);
        for name in ["r", "s", "i", "j", "k"] {
            assert_eq!(index.nodes_named(&doc, name), rebuilt.nodes_named(&doc, name), "{name}");
        }
        assert_eq!(index.name_count(), rebuilt.name_count());
        assert_eq!(index.shared_lists(&base), (2, 4), "<r> and <k> were left alone");
        // An insert copies its name's list only.
        let base = index.clone();
        let k = doc.create_element("k");
        doc.append_child(root, k);
        index.patch_insert(&doc, &DocOrder::build(&doc), k);
        assert_eq!(index.nodes_named(&doc, "k"), NameIndex::build(&doc).nodes_named(&doc, "k"));
        assert_eq!(index.shared_lists(&base), (3, 4));
    }
}
