//! The arena-backed document tree.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::column::Column;
use crate::interner::{Interner, NameId};
use crate::iterators::{Ancestors, Children, Descendants, Siblings};

/// Handle to a node inside a [`Document`] arena.
///
/// Handles are never reused within a document: detaching a subtree leaves its
/// slots in place (marked detached) so that outstanding ids cannot alias a
/// different node. Handles from one document must not be used with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw arena index, usable as a dense array key (e.g. label tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a handle from [`NodeId::index`]. The caller must pass an index
    /// previously obtained from the same document.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }
}

/// One attribute of an element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Interned attribute name.
    pub name: NameId,
    /// Attribute value, already entity-decoded.
    pub value: Box<str>,
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique document root; parent of the root element.
    Document,
    /// An element with a tag name and attributes.
    Element {
        /// Interned tag name.
        name: NameId,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// Character data (text and CDATA both parse to this).
    Text(Box<str>),
    /// A comment (`<!-- ... -->`), content without the delimiters.
    Comment(Box<str>),
    /// A processing instruction (`<?target data?>`).
    ProcessingInstruction {
        /// PI target.
        target: Box<str>,
        /// PI data (may be empty).
        data: Box<str>,
    },
}

/// Duplicate-attribute detection in O(1) per attribute, for a builder
/// that appends attributes with [`Document::push_attribute`]: per name,
/// the element that last took it. Element ids are never reused, so the
/// table needs no reset between elements.
#[derive(Debug, Default)]
pub struct AttributeOwners(Vec<u32>);

impl AttributeOwners {
    /// Records that `element` takes an attribute named `name`; `false` if
    /// it already took one.
    pub fn claim(&mut self, element: NodeId, name: NameId) -> bool {
        let slot = name.index();
        if slot >= self.0.len() {
            self.0.resize(slot + 1, NIL);
        }
        std::mem::replace(&mut self.0[slot], element.0) != element.0
    }
}

/// Marks an absent link (or a non-element's name) in a [`Link`] row.
const NIL: u32 = u32::MAX;

/// Spare link rows a clone reserves, so the clone's own allocations (a
/// commit inserts one node) append without reallocating the table.
const CLONE_HEADROOM: usize = 64;

/// The structural half of a node: its five links and, for an element, its
/// name — plain `Copy` data, [`NIL`] for "none". Everything a traversal
/// reads lives here, so the table is dense (24 bytes a node) and a clone is
/// one `memcpy`.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: u32,
    prev: u32,
    next: u32,
    first: u32,
    last: u32,
    name: u32,
}

impl Link {
    const DETACHED: Link =
        Link { parent: NIL, prev: NIL, next: NIL, first: NIL, last: NIL, name: NIL };
}

fn linked(raw: u32) -> Option<NodeId> {
    (raw != NIL).then_some(NodeId(raw))
}

/// An XML document: a flat table of node links, a copy-on-write column of
/// node payloads ([`NodeKind`]), and the name interner.
///
/// The two halves are split by who reads them: traversals and structural
/// edits touch only the links, which stay one flat `Vec` (the hot read
/// path); text, attributes and the other heap-owning payload sit in
/// shared chunks, so a clone copies the links once and shares every
/// payload chunk, and an edit copies only the chunk it writes.
///
/// All structural operations are O(1) except those documented otherwise.
#[derive(Debug)]
pub struct Document {
    links: Vec<Link>,
    kinds: Column<NodeKind>,
    names: Interner,
    root: NodeId,
}

impl Clone for Document {
    fn clone(&self) -> Self {
        let mut links = Vec::with_capacity(self.links.len() + CLONE_HEADROOM);
        links.extend_from_slice(&self.links);
        Document { links, kinds: self.kinds.clone(), names: self.names.clone(), root: self.root }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the document root node.
    pub fn new() -> Self {
        let mut kinds = Column::default();
        kinds.push(NodeKind::Document);
        Document { links: vec![Link::DETACHED], kinds, names: Interner::new(), root: NodeId(0) }
    }

    /// The document root node (kind [`NodeKind::Document`]).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The root *element* (first element child of the document node), if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.root).find(|&n| self.is_element(n))
    }

    /// Total number of arena slots, including detached nodes.
    pub fn arena_len(&self) -> usize {
        self.links.len()
    }

    /// Reserves link rows for `additional` more nodes, so a builder that
    /// knows roughly how many it will create appends without regrowing
    /// the table.
    pub fn reserve(&mut self, additional: usize) {
        self.links.reserve(additional);
    }

    /// Number of nodes reachable from the document root (O(n)).
    pub fn node_count(&self) -> usize {
        self.descendants(self.root).count()
    }

    /// Access to the name interner.
    pub fn names(&self) -> &Interner {
        &self.names
    }

    /// Interns a name (for building or querying).
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// Looks up a name id without interning.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.names.get(name)
    }

    /// Resolves a name id to its text.
    pub fn name_text(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    fn link(&self, id: NodeId) -> &Link {
        &self.links[id.index()]
    }

    fn link_mut(&mut self, id: NodeId) -> &mut Link {
        &mut self.links[id.index()]
    }

    fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        self.kinds.get_mut(id.index()).expect("node id out of range")
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = u32::try_from(self.links.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("document exceeds u32 nodes");
        let name = match kind {
            NodeKind::Element { name, .. } => name.0,
            _ => NIL,
        };
        self.links.push(Link { name, ..Link::DETACHED });
        self.kinds.push(kind);
        NodeId(id)
    }

    /// Payload chunks `self` shares with `other` by pointer (what a clone
    /// did not copy) and the number `self` holds; test hook for the
    /// copy-on-write contract.
    #[doc(hidden)]
    pub fn shared_payload_chunks(&self, other: &Document) -> (usize, usize) {
        (self.kinds.shared_chunks(&other.kinds), self.kinds.sealed_chunks())
    }

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: &str) -> NodeId {
        let name = self.names.intern(name);
        self.create_element_id(name)
    }

    /// Creates a detached element node from an already-interned name.
    pub fn create_element_id(&mut self, name: NameId) -> NodeId {
        self.alloc(NodeKind::Element { name, attributes: Vec::new() })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: &str) -> NodeId {
        self.alloc(NodeKind::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: &str) -> NodeId {
        self.alloc(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(&mut self, target: &str, data: &str) -> NodeId {
        self.alloc(NodeKind::ProcessingInstruction { target: target.into(), data: data.into() })
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.kinds[id.index()]
    }

    /// `true` iff `id` is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.link(id).name != NIL
    }

    /// Tag name of an element node, `None` for other kinds.
    pub fn element_name(&self, id: NodeId) -> Option<NameId> {
        let name = self.link(id).name;
        (name != NIL).then_some(NameId(name))
    }

    /// Tag name text of an element node, `None` for other kinds.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element_name(id).map(|n| self.names.resolve(n))
    }

    /// Text content of a text node, `None` for other kinds.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Attributes of an element (empty slice for non-elements).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match self.kind(id) {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of the attribute named `name`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attribute_by_id(id, self.names.get(name)?)
    }

    /// Value of the attribute with the interned name `name`, if present.
    pub fn attribute_by_id(&self, id: NodeId, name: NameId) -> Option<&str> {
        self.attributes(id).iter().find(|a| a.name == name).map(|a| a.value.as_ref())
    }

    /// Appends to the content of a text node (the parser uses this to
    /// coalesce adjacent character data, e.g. CDATA followed by text, so a
    /// document never holds two neighbouring text nodes).
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn append_text(&mut self, id: NodeId, extra: &str) {
        match self.kind_mut(id) {
            NodeKind::Text(t) => {
                let mut s = String::from(std::mem::take(t));
                s.push_str(extra);
                *t = s.into();
            }
            other => panic!("append_text on non-text node {other:?}"),
        }
    }

    /// Sets (or replaces) an attribute on an element.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attribute(&mut self, id: NodeId, name: &str, value: &str) {
        let name = self.names.intern(name);
        match self.kind_mut(id) {
            NodeKind::Element { attributes, .. } => {
                if let Some(attr) = attributes.iter_mut().find(|a| a.name == name) {
                    attr.value = value.into();
                } else {
                    attributes.push(Attribute { name, value: value.into() });
                }
            }
            other => panic!("set_attribute on non-element node {other:?}"),
        }
    }

    /// Appends an attribute to an element without looking for one of the
    /// same name — the O(1) form of [`Document::set_attribute`] for a
    /// builder that creates each element with its attributes in one pass
    /// and rules out duplicates itself, with [`AttributeOwners`].
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn push_attribute(&mut self, id: NodeId, name: NameId, value: &str) {
        match self.kind_mut(id) {
            NodeKind::Element { attributes, .. } => {
                attributes.push(Attribute { name, value: value.into() });
            }
            other => panic!("push_attribute on non-element node {other:?}"),
        }
    }

    /// Parent node, `None` for the document root or detached nodes.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        linked(self.link(id).parent)
    }

    /// First child.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        linked(self.link(id).first)
    }

    /// Last child.
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        linked(self.link(id).last)
    }

    /// Next sibling in document order.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        linked(self.link(id).next)
    }

    /// Previous sibling in document order.
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        linked(self.link(id).prev)
    }

    /// Whether the node is attached to the tree (the root always is).
    pub fn is_attached(&self, id: NodeId) -> bool {
        id == self.root || self.link(id).parent != NIL
    }

    /// Appends `child` as the last child of `parent`.
    ///
    /// # Panics
    /// Panics if `child` is attached, is the root, or is `parent` itself.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        self.assert_insertable(child);
        assert_ne!(parent, child, "node cannot be its own child");
        let old_last = self.link(parent).last;
        let c = self.link_mut(child);
        c.parent = parent.0;
        c.prev = old_last;
        c.next = NIL;
        match linked(old_last) {
            Some(last) => self.link_mut(last).next = child.0,
            None => self.link_mut(parent).first = child.0,
        }
        self.link_mut(parent).last = child.0;
    }

    /// Inserts `new` immediately before `sibling` under the same parent.
    ///
    /// # Panics
    /// Panics if `new` is attached or `sibling` has no parent.
    pub fn insert_before(&mut self, sibling: NodeId, new: NodeId) {
        self.assert_insertable(new);
        let parent = self.parent(sibling).expect("insert_before target has no parent");
        let prev = self.link(sibling).prev;
        let n = self.link_mut(new);
        n.parent = parent.0;
        n.prev = prev;
        n.next = sibling.0;
        self.link_mut(sibling).prev = new.0;
        match linked(prev) {
            Some(p) => self.link_mut(p).next = new.0,
            None => self.link_mut(parent).first = new.0,
        }
    }

    /// Inserts `new` immediately after `sibling` under the same parent.
    ///
    /// # Panics
    /// Panics if `new` is attached or `sibling` has no parent.
    pub fn insert_after(&mut self, sibling: NodeId, new: NodeId) {
        self.assert_insertable(new);
        let parent = self.parent(sibling).expect("insert_after target has no parent");
        let next = self.link(sibling).next;
        let n = self.link_mut(new);
        n.parent = parent.0;
        n.prev = sibling.0;
        n.next = next;
        self.link_mut(sibling).next = new.0;
        match linked(next) {
            Some(nx) => self.link_mut(nx).prev = new.0,
            None => self.link_mut(parent).last = new.0,
        }
    }

    fn assert_insertable(&self, id: NodeId) {
        assert!(id != self.root, "cannot insert the document root");
        assert!(self.link(id).parent == NIL, "node {id:?} is already attached");
    }

    /// Detaches the subtree rooted at `id` from its parent. The subtree stays
    /// allocated (so its `NodeId`s remain valid) but is no longer reachable
    /// from the root. No-op for already-detached nodes.
    ///
    /// # Panics
    /// Panics on an attempt to detach the document root.
    pub fn detach(&mut self, id: NodeId) {
        assert!(id != self.root, "cannot detach the document root");
        let Link { parent, prev, next, .. } = *self.link(id);
        if parent == NIL {
            return;
        }
        match prev {
            NIL => self.links[parent as usize].first = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.links[parent as usize].last = prev,
            n => self.links[n as usize].prev = prev,
        }
        let n = self.link_mut(id);
        n.parent = NIL;
        n.prev = NIL;
        n.next = NIL;
    }

    /// Iterator over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(self, self.first_child(id))
    }

    /// Iterator over element children only.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Preorder iterator over the subtree rooted at `id`, **including** `id`.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Iterator over strict ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, self.parent(id))
    }

    /// Iterator over following siblings (document order).
    pub fn following_siblings(&self, id: NodeId) -> Siblings<'_> {
        Siblings::forward(self, self.next_sibling(id))
    }

    /// Iterator over preceding siblings (reverse document order).
    pub fn preceding_siblings(&self, id: NodeId) -> Siblings<'_> {
        Siblings::backward(self, self.prev_sibling(id))
    }

    /// Depth of `id`: the root has depth 0. O(depth).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Zero-based position of `id` among its siblings. O(position).
    pub fn child_index(&self, id: NodeId) -> usize {
        self.preceding_siblings(id).count()
    }

    /// `i`-th child of `parent` (zero-based). O(i).
    pub fn nth_child(&self, parent: NodeId, i: usize) -> Option<NodeId> {
        self.children(parent).nth(i)
    }

    /// `true` iff `a` is a strict ancestor of `b`. O(depth of b).
    pub fn is_ancestor_of(&self, a: NodeId, b: NodeId) -> bool {
        self.ancestors(b).any(|x| x == a)
    }

    /// Lowest common ancestor of `a` and `b` (may be `a` or `b`). O(depth).
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut pa: Vec<NodeId> = std::iter::once(a).chain(self.ancestors(a)).collect();
        let mut pb: Vec<NodeId> = std::iter::once(b).chain(self.ancestors(b)).collect();
        pa.reverse();
        pb.reverse();
        debug_assert_eq!(pa[0], pb[0], "nodes from different trees");
        let mut lca = pa[0];
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                lca = *x;
            } else {
                break;
            }
        }
        lca
    }

    /// Compares `a` and `b` in document order by walking to their lowest
    /// common ancestor (the structural baseline the numbering schemes beat).
    /// An ancestor precedes its descendants. O(depth + siblings).
    pub fn cmp_document_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let lca = self.lowest_common_ancestor(a, b);
        if lca == a {
            return Ordering::Less;
        }
        if lca == b {
            return Ordering::Greater;
        }
        // Children of the LCA on the paths to a and b (Lemma 2 of the paper:
        // order of two incomparable nodes equals the order of these children).
        let ca = self.child_of_ancestor_on_path(lca, a);
        let cb = self.child_of_ancestor_on_path(lca, b);
        for sib in self.children(lca) {
            if sib == ca {
                return Ordering::Less;
            }
            if sib == cb {
                return Ordering::Greater;
            }
        }
        unreachable!("LCA children must contain both path children");
    }

    /// The child of `anc` lying on the path from `anc` down to `desc`.
    ///
    /// # Panics
    /// Panics if `anc` is not a strict ancestor of `desc`.
    pub fn child_of_ancestor_on_path(&self, anc: NodeId, desc: NodeId) -> NodeId {
        let mut cur = desc;
        loop {
            let parent = self.parent(cur).expect("anc is not an ancestor of desc");
            if parent == anc {
                return cur;
            }
            cur = parent;
        }
    }

    /// Concatenated text content of the subtree (XPath string-value of an
    /// element). O(subtree).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id).filter(|&n| !self.is_element(n)) {
            if let NodeKind::Text(t) = self.kind(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// The string-value of `id` when it can be lent without concatenation:
    /// a text node's own content, or — for a node with no element child and
    /// at most one text child — that child's text (`""` when there is
    /// none). `None` for mixed content, an element child or two text
    /// nodes, where [`Document::string_value`] has to build it. O(children).
    pub fn simple_text(&self, id: NodeId) -> Option<&str> {
        // The link row's element bit answers for elements, so the payload
        // column is read only for the text it lends.
        if !self.is_element(id) {
            if let NodeKind::Text(t) = self.kind(id) {
                return Some(t);
            }
        }
        let mut text = None;
        for child in self.children(id) {
            if self.is_element(child) {
                return None;
            }
            match self.kind(child) {
                NodeKind::Text(_) if text.is_some() => return None,
                NodeKind::Text(t) => text = Some(t.as_ref()),
                _ => {}
            }
        }
        Some(text.unwrap_or(""))
    }

    /// [`Document::string_value`], borrowed from the tree whenever
    /// [`Document::simple_text`] can lend it.
    pub fn string_value_cow(&self, id: NodeId) -> Cow<'_, str> {
        match self.simple_text(id) {
            Some(text) => Cow::Borrowed(text),
            None => Cow::Owned(self.string_value(id)),
        }
    }

    /// Structural equality of two subtrees in (possibly) different documents:
    /// same kinds, names, attribute lists, text, and child sequences.
    pub fn subtree_eq(&self, id: NodeId, other: &Document, other_id: NodeId) -> bool {
        let kinds_eq = match (self.kind(id), other.kind(other_id)) {
            (NodeKind::Document, NodeKind::Document) => true,
            (
                NodeKind::Element { name: n1, attributes: a1 },
                NodeKind::Element { name: n2, attributes: a2 },
            ) => {
                self.names.resolve(*n1) == other.names.resolve(*n2)
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2.iter()).all(|(x, y)| {
                        self.names.resolve(x.name) == other.names.resolve(y.name)
                            && x.value == y.value
                    })
            }
            (NodeKind::Text(t1), NodeKind::Text(t2)) => t1 == t2,
            (NodeKind::Comment(c1), NodeKind::Comment(c2)) => c1 == c2,
            (
                NodeKind::ProcessingInstruction { target: t1, data: d1 },
                NodeKind::ProcessingInstruction { target: t2, data: d2 },
            ) => t1 == t2 && d1 == d2,
            _ => false,
        };
        if !kinds_eq {
            return false;
        }
        let mut c1 = self.children(id);
        let mut c2 = other.children(other_id);
        loop {
            match (c1.next(), c2.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    if !self.subtree_eq(x, other, y) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_link_row_is_six_words_of_u32() {
        assert_eq!(std::mem::size_of::<Link>(), 24);
    }

    #[test]
    fn a_clone_shares_payload_and_keeps_headroom() {
        let mut doc = Document::new();
        let root = doc.create_element("r");
        doc.append_child(doc.root(), root);
        for i in 0..3 * crate::CHUNK {
            let t = doc.create_text(&i.to_string());
            doc.append_child(root, t);
        }
        let mut copy = doc.clone();
        assert!(copy.links.capacity() >= copy.links.len() + CLONE_HEADROOM);
        assert_eq!(copy.shared_payload_chunks(&doc), (3, 3));
        let extra = copy.create_element("x");
        copy.set_attribute(extra, "k", "v");
        copy.append_child(root, extra);
        assert_eq!(copy.shared_payload_chunks(&doc), (3, 3), "new rows go to the tail");
        assert_eq!(doc.children(root).count(), 3 * crate::CHUNK);
        assert_eq!(copy.attribute(extra, "k"), Some("v"));
    }
}
