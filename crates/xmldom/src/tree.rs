//! The arena-backed document tree.

use std::borrow::Cow;
use std::cmp::Ordering;

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

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) kind: NodeKind,
}

/// An XML document: an arena of nodes plus the name interner.
///
/// All structural operations are O(1) except those documented otherwise.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    names: Interner,
    root: NodeId,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the document root node.
    pub fn new() -> Self {
        let root = Node {
            parent: None,
            prev_sibling: None,
            next_sibling: None,
            first_child: None,
            last_child: None,
            kind: NodeKind::Document,
        };
        Document { nodes: vec![root], names: Interner::new(), root: NodeId(0) }
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
        self.nodes.len()
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

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document exceeds u32 nodes"));
        self.nodes.push(Node {
            parent: None,
            prev_sibling: None,
            next_sibling: None,
            first_child: None,
            last_child: None,
            kind,
        });
        id
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
        &self.node(id).kind
    }

    /// `true` iff `id` is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Element { .. })
    }

    /// Tag name of an element node, `None` for other kinds.
    pub fn element_name(&self, id: NodeId) -> Option<NameId> {
        match self.node(id).kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Tag name text of an element node, `None` for other kinds.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element_name(id).map(|n| self.names.resolve(n))
    }

    /// Text content of a text node, `None` for other kinds.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Attributes of an element (empty slice for non-elements).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match &self.node(id).kind {
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
        match &mut self.node_mut(id).kind {
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
        match &mut self.node_mut(id).kind {
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

    /// Parent node, `None` for the document root or detached nodes.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// First child.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).first_child
    }

    /// Last child.
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).last_child
    }

    /// Next sibling in document order.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).next_sibling
    }

    /// Previous sibling in document order.
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).prev_sibling
    }

    /// Whether the node is attached to the tree (the root always is).
    pub fn is_attached(&self, id: NodeId) -> bool {
        id == self.root || self.node(id).parent.is_some()
    }

    /// Appends `child` as the last child of `parent`.
    ///
    /// # Panics
    /// Panics if `child` is attached, is the root, or is `parent` itself.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        self.assert_insertable(child);
        assert_ne!(parent, child, "node cannot be its own child");
        let old_last = self.node(parent).last_child;
        {
            let c = self.node_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = old_last;
            c.next_sibling = None;
        }
        match old_last {
            Some(last) => self.node_mut(last).next_sibling = Some(child),
            None => self.node_mut(parent).first_child = Some(child),
        }
        self.node_mut(parent).last_child = Some(child);
    }

    /// Inserts `new` immediately before `sibling` under the same parent.
    ///
    /// # Panics
    /// Panics if `new` is attached or `sibling` has no parent.
    pub fn insert_before(&mut self, sibling: NodeId, new: NodeId) {
        self.assert_insertable(new);
        let parent = self.node(sibling).parent.expect("insert_before target has no parent");
        let prev = self.node(sibling).prev_sibling;
        {
            let n = self.node_mut(new);
            n.parent = Some(parent);
            n.prev_sibling = prev;
            n.next_sibling = Some(sibling);
        }
        self.node_mut(sibling).prev_sibling = Some(new);
        match prev {
            Some(p) => self.node_mut(p).next_sibling = Some(new),
            None => self.node_mut(parent).first_child = Some(new),
        }
    }

    /// Inserts `new` immediately after `sibling` under the same parent.
    ///
    /// # Panics
    /// Panics if `new` is attached or `sibling` has no parent.
    pub fn insert_after(&mut self, sibling: NodeId, new: NodeId) {
        self.assert_insertable(new);
        let parent = self.node(sibling).parent.expect("insert_after target has no parent");
        let next = self.node(sibling).next_sibling;
        {
            let n = self.node_mut(new);
            n.parent = Some(parent);
            n.prev_sibling = Some(sibling);
            n.next_sibling = next;
        }
        self.node_mut(sibling).next_sibling = Some(new);
        match next {
            Some(nx) => self.node_mut(nx).prev_sibling = Some(new),
            None => self.node_mut(parent).last_child = Some(new),
        }
    }

    fn assert_insertable(&self, id: NodeId) {
        assert!(id != self.root, "cannot insert the document root");
        assert!(self.node(id).parent.is_none(), "node {id:?} is already attached");
    }

    /// Detaches the subtree rooted at `id` from its parent. The subtree stays
    /// allocated (so its `NodeId`s remain valid) but is no longer reachable
    /// from the root. No-op for already-detached nodes.
    ///
    /// # Panics
    /// Panics on an attempt to detach the document root.
    pub fn detach(&mut self, id: NodeId) {
        assert!(id != self.root, "cannot detach the document root");
        let Node { parent, prev_sibling, next_sibling, .. } = *self.node(id);
        let Some(parent) = parent else { return };
        match prev_sibling {
            Some(p) => self.node_mut(p).next_sibling = next_sibling,
            None => self.node_mut(parent).first_child = next_sibling,
        }
        match next_sibling {
            Some(n) => self.node_mut(n).prev_sibling = prev_sibling,
            None => self.node_mut(parent).last_child = prev_sibling,
        }
        let n = self.node_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
    }

    /// Iterator over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(self, self.node(id).first_child)
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
        Ancestors::new(self, self.node(id).parent)
    }

    /// Iterator over following siblings (document order).
    pub fn following_siblings(&self, id: NodeId) -> Siblings<'_> {
        Siblings::forward(self, self.node(id).next_sibling)
    }

    /// Iterator over preceding siblings (reverse document order).
    pub fn preceding_siblings(&self, id: NodeId) -> Siblings<'_> {
        Siblings::backward(self, self.node(id).prev_sibling)
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
            let parent = self.node(cur).parent.expect("anc is not an ancestor of desc");
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
        for n in self.descendants(id) {
            if let NodeKind::Text(t) = &self.node(n).kind {
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
        if let NodeKind::Text(t) = &self.node(id).kind {
            return Some(t);
        }
        let mut text = None;
        for child in self.children(id) {
            match &self.node(child).kind {
                NodeKind::Element { .. } => return None,
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
        let kinds_eq = match (&self.node(id).kind, &other.node(other_id).kind) {
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
