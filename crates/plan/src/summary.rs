//! The path summary: a DataGuide over distinct element paths.
//!
//! One summary node per distinct root-to-element tag path (`/site`,
//! `/site/regions`, `/site/regions/africa/item`, ...), each holding the
//! document nodes on that path **in document order** plus the child edges
//! to deeper paths. A structural XPath prefix (`/`-, `//`-, name- and
//! wildcard-steps) then runs over summary nodes — typically a few hundred,
//! against millions of document nodes — and the member lists of the
//! surviving summary nodes *are* the answer, with per-path cardinalities
//! falling out for free as the planner's selectivity estimates.
//!
//! Each summary node also carries **value postings**: per attribute name
//! and for the element string-value, the members sorted by (value,
//! document order), plus a numeric twin sorted by the parsed number for
//! the values that parse. The postings are plain id arrays — a value is
//! read from the [`Document`] whenever two are compared — so a predicate
//! like `[@id = 'item7']` or `[increase > 7.5]` is one binary search
//! instead of a comparison per member. Members whose string-value cannot
//! be lent by the tree ([`Document::simple_text`] is `None`: mixed
//! content, an element child, two text nodes) sit on a per-path
//! *unindexed* list that the executor filters through the evaluator.
//!
//! The summary is a pure derivation of the tree (same contract as the
//! name index and the document-order ranks): it is built at load time
//! and again after crash recovery, never persisted. A commit patches it:
//! an edge the tree never had is *grafted* as a new path, a path that
//! loses its last member is *pruned* (its slot freed for the next graft),
//! and each path sits behind its own `Arc`, so a patched clone copies
//! only the paths the commit writes.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use xmldom::{Column, DocOrder, Document, NameId, NodeId};
use xpath::{parse_number, CmpOp, NodeTest};

/// Index of a summary node within its [`PathSummary`].
pub type SummaryId = u32;

/// `sid_of` entry of a node that is not a summarized element.
const NO_SID: SummaryId = SummaryId::MAX;

/// What a posting list is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueKey {
    /// The value of the attribute with this interned name.
    Attr(NameId),
    /// The element's string-value.
    Text,
}

impl ValueKey {
    /// The value `node` is posted under, lent by the tree.
    fn posted(self, doc: &Document, node: NodeId) -> &str {
        match self {
            ValueKey::Attr(name) => doc.attribute_by_id(node, name),
            ValueKey::Text => doc.simple_text(node),
        }
        .expect("a posted node carries its key")
    }

    fn posted_number(self, doc: &Document, node: NodeId) -> f64 {
        parse_number(self.posted(doc, node)).expect("a number-posted value parses")
    }
}

/// Splices `node` into a document-ordered list at its rank.
fn insert_in_order(list: &mut Vec<NodeId>, order: &DocOrder, node: NodeId) {
    let rank = order.rank(node);
    let at = list.partition_point(|&m| order.rank(m) < rank);
    list.insert(at, node);
}

/// The number a value is posted under in the numeric twin. `NaN` parses
/// but satisfies none of `= < <= > >=`, so it is never posted.
fn posting_number(value: &str) -> Option<f64> {
    parse_number(value).filter(|x| !x.is_nan())
}

/// The literal side of a probe-able comparison, reduced to what XPath
/// actually compares: `= 'text'` is string equality, every other pairing
/// (a number on the right, or a relational operator) is numeric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Needle {
    /// Values equal to this string.
    Str(String),
    /// Values whose number stands in this relation (never `!=`, which no
    /// range answers) to the given one.
    Num(CmpOp, f64),
}

/// The value postings of one key on one summary node.
#[derive(Debug, Default, Clone)]
struct Postings {
    /// Members carrying the key, sorted by (value, document order).
    by_value: Vec<NodeId>,
    /// The subset whose value parses as a number, sorted by (number,
    /// document order).
    by_number: Vec<NodeId>,
}

impl Postings {
    /// Sorts `nodes` (given in document order) into postings. Both sorts
    /// are stable and by value only, which is what keeps ties in document
    /// order.
    fn sorted(doc: &Document, key: ValueKey, nodes: &[NodeId]) -> Postings {
        let mut keyed: Vec<(&str, NodeId)> =
            nodes.iter().map(|&n| (key.posted(doc, n), n)).collect();
        let mut numbered: Vec<(f64, NodeId)> =
            keyed.iter().filter_map(|&(v, n)| posting_number(v).map(|x| (x, n))).collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        numbered.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN is never posted"));
        Postings {
            by_value: keyed.into_iter().map(|(_, n)| n).collect(),
            by_number: numbered.into_iter().map(|(_, n)| n).collect(),
        }
    }

    /// Files `node` at its (value, rank) position — one binary search per
    /// list, sound because an update never reorders surviving nodes.
    fn insert(&mut self, doc: &Document, order: &DocOrder, key: ValueKey, node: NodeId) {
        let (value, rank) = (key.posted(doc, node), order.rank(node));
        let at = self
            .by_value
            .partition_point(|&m| (key.posted(doc, m), order.rank(m)) < (value, rank));
        self.by_value.insert(at, node);
        if let Some(x) = posting_number(value) {
            let at = self.by_number.partition_point(|&m| {
                let y = key.posted_number(doc, m);
                y < x || (y == x && order.rank(m) < rank)
            });
            self.by_number.insert(at, node);
        }
    }

    fn retain(&mut self, keep: impl Fn(&NodeId) -> bool) {
        self.by_value.retain(&keep);
        self.by_number.retain(&keep);
    }

    /// The list `needle` is searched in.
    fn list(&self, needle: &Needle) -> &[NodeId] {
        match needle {
            Needle::Str(_) => &self.by_value,
            Needle::Num(..) => &self.by_number,
        }
    }

    /// The posted nodes matching `needle` — one contiguous run of
    /// [`list`](Postings::list) — as positions in it.
    fn range(&self, doc: &Document, key: ValueKey, needle: &Needle) -> Range<usize> {
        let list = self.list(needle);
        match needle {
            Needle::Str(s) => {
                let lo = list.partition_point(|&m| key.posted(doc, m) < s.as_str());
                lo..lo + list[lo..].partition_point(|&m| key.posted(doc, m) == s)
            }
            Needle::Num(_, x) if x.is_nan() => 0..0,
            Needle::Num(op, x) => {
                let below = list.partition_point(|&m| key.posted_number(doc, m) < *x);
                let upto =
                    below + list[below..].partition_point(|&m| key.posted_number(doc, m) <= *x);
                match op {
                    CmpOp::Eq => below..upto,
                    CmpOp::Lt => 0..below,
                    CmpOp::Le => 0..upto,
                    CmpOp::Gt => upto..list.len(),
                    CmpOp::Ge => below..list.len(),
                    CmpOp::Ne => unreachable!("the planner never probes `!=`"),
                }
            }
        }
    }
}

/// One distinct element path: its tag, its place in the summary tree, and
/// the document nodes that realize it.
#[derive(Debug, Clone)]
pub struct SummaryNode {
    /// Interned tag name of the path's last step.
    pub name: NameId,
    /// Parent path, `None` for the root element's path.
    pub parent: Option<SummaryId>,
    /// Depth below the root element's path (root path = 0).
    pub depth: u32,
    /// Child paths: in first-encounter order after a build, grafted ones
    /// appended.
    pub children: Vec<SummaryId>,
    /// Document nodes on this path, in document order.
    pub members: Vec<NodeId>,
    /// String-value postings of the members the tree can lend one for.
    text: Postings,
    /// The other members — their string-value has to be built — in
    /// document order.
    unindexed: Vec<NodeId>,
    /// Postings per attribute name some member carries.
    attrs: Vec<(NameId, Postings)>,
}

impl SummaryNode {
    fn new(name: NameId, parent: Option<SummaryId>, depth: u32) -> SummaryNode {
        SummaryNode {
            name,
            parent,
            depth,
            children: Vec::new(),
            members: Vec::new(),
            text: Postings::default(),
            unindexed: Vec::new(),
            attrs: Vec::new(),
        }
    }

    fn postings(&self, key: ValueKey) -> Option<&Postings> {
        match key {
            ValueKey::Text => Some(&self.text),
            ValueKey::Attr(name) => self.attrs.iter().find(|(n, _)| *n == name).map(|(_, p)| p),
        }
    }

    fn attr_postings(&mut self, name: NameId) -> &mut Postings {
        let at = match self.attrs.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.attrs.push((name, Postings::default()));
                self.attrs.len() - 1
            }
        };
        &mut self.attrs[at].1
    }

    /// Files `element`'s string-value where its current content puts it:
    /// the text postings, or the unindexed list.
    fn file_text(&mut self, doc: &Document, order: &DocOrder, element: NodeId) {
        if doc.simple_text(element).is_some() {
            self.text.insert(doc, order, ValueKey::Text, element);
        } else {
            insert_in_order(&mut self.unindexed, order, element);
        }
    }
}

/// A DataGuide over one document's element paths.
///
/// A clone shares every path by pointer; a patch copies
/// (`Arc::make_mut`) exactly the paths it writes, and the `sid_of`
/// column's chunks likewise.
#[derive(Debug, Default, Clone)]
pub struct PathSummary {
    /// One slot per path. A live path has at least one member; a pruned
    /// one is an empty node whose sid waits on `free`.
    nodes: Vec<Arc<SummaryNode>>,
    /// Each element's summary node, dense by arena index ([`NO_SID`] for
    /// everything else) — what lets a delete, which is told node ids
    /// only, touch just the paths it removes from.
    sid_of: Column<SummaryId>,
    /// Slots of pruned paths, reused by the next graft so that repeated
    /// insert/delete cycles do not grow `nodes`.
    free: Vec<SummaryId>,
    /// Set by [`patch_delete`](PathSummary::patch_delete), cleared by
    /// [`refresh_text`](PathSummary::refresh_text): in between, the deleted
    /// subtree's parent may be filed under a string-value it no longer
    /// has, which breaks the order every binary search here relies on.
    refresh_pending: bool,
}

impl PathSummary {
    /// Builds the summary in one pre-order pass over the elements.
    pub fn build(doc: &Document) -> PathSummary {
        let Some(root) = doc.root_element() else {
            return PathSummary::default();
        };
        let root_name = doc.element_name(root).expect("root element has a name");
        let mut nodes = vec![SummaryNode::new(root_name, None, 0)];
        // Pre-order guarantees a parent's entry is set before its
        // children look it up.
        let mut sid_of = vec![NO_SID; doc.arena_len()];
        let mut by_edge: HashMap<(SummaryId, NameId), SummaryId> = HashMap::new();
        for node in doc.descendants(root) {
            let Some(name) = doc.element_name(node) else { continue };
            let sid = if node == root {
                0
            } else {
                let parent = doc.parent(node).expect("non-root element has a parent");
                let psid = sid_of[parent.index()];
                if psid == NO_SID {
                    // Under a text or comment node — a tree only a binary
                    // that predates the INSERT parent check could commit,
                    // and may have snapshotted. It has no element path.
                    continue;
                }
                *by_edge.entry((psid, name)).or_insert_with(|| {
                    let sid = nodes.len() as SummaryId;
                    let depth = nodes[psid as usize].depth + 1;
                    nodes.push(SummaryNode::new(name, Some(psid), depth));
                    nodes[psid as usize].children.push(sid);
                    sid
                })
            };
            sid_of[node.index()] = sid;
            // Until the pass ends the posting lists hold their nodes in
            // document order; one stable sort by value each finishes them.
            let entry = &mut nodes[sid as usize];
            entry.members.push(node);
            if doc.simple_text(node).is_some() {
                entry.text.by_value.push(node);
            } else {
                entry.unindexed.push(node);
            }
            // `set_attribute` keeps names unique per element, so each
            // attribute posts its element exactly once.
            for attribute in doc.attributes(node) {
                entry.attr_postings(attribute.name).by_value.push(node);
            }
        }
        for entry in &mut nodes {
            entry.text = Postings::sorted(doc, ValueKey::Text, &entry.text.by_value);
            for (name, postings) in &mut entry.attrs {
                *postings = Postings::sorted(doc, ValueKey::Attr(*name), &postings.by_value);
            }
        }
        PathSummary {
            nodes: nodes.into_iter().map(Arc::new).collect(),
            sid_of: sid_of.into(),
            free: Vec::new(),
            refresh_pending: false,
        }
    }

    /// Number of distinct element paths (live summary nodes).
    pub fn path_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Summary node slots, live and pruned; test hook for slot reuse.
    #[doc(hidden)]
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// The live paths whose node `self` does not hold by the same pointer
    /// as `base` — what patches since cloning `base` copied or grafted;
    /// test hook for the copy-on-write contract.
    #[doc(hidden)]
    pub fn unshared_paths(&self, base: &PathSummary) -> Vec<SummaryId> {
        (0..self.nodes.len() as SummaryId)
            .filter(|&sid| self.is_live(sid))
            .filter(|&sid| {
                let mine = &self.nodes[sid as usize];
                base.nodes.get(sid as usize).is_none_or(|theirs| !Arc::ptr_eq(theirs, mine))
            })
            .collect()
    }

    /// Whether `sid` holds a path rather than a pruned slot.
    fn is_live(&self, sid: SummaryId) -> bool {
        !self.node(sid).members.is_empty()
    }

    /// The root element's summary node, `None` for an element-less tree.
    pub fn root_sid(&self) -> Option<SummaryId> {
        (!self.nodes.is_empty()).then_some(0)
    }

    /// One summary node.
    pub fn node(&self, sid: SummaryId) -> &SummaryNode {
        &self.nodes[sid as usize]
    }

    /// The document nodes on one path, in document order.
    pub fn members(&self, sid: SummaryId) -> &[NodeId] {
        &self.nodes[sid as usize].members
    }

    /// Total members across a state set — the planner's cardinality
    /// estimate for "all nodes matching this structural prefix" (exact,
    /// because summary membership is exact).
    pub fn cardinality(&self, states: &[SummaryId]) -> usize {
        states.iter().map(|&s| self.members(s).len()).sum()
    }

    /// The `/`-joined tag path of a summary node (e.g. `/site/regions`).
    pub fn path_string(&self, doc: &Document, sid: SummaryId) -> String {
        let mut segments = Vec::new();
        let mut cur = Some(sid);
        while let Some(s) = cur {
            segments.push(doc.name_text(self.node(s).name));
            cur = self.node(s).parent;
        }
        segments.reverse();
        let mut out = String::new();
        for seg in segments {
            out.push('/');
            out.push_str(seg);
        }
        out
    }

    /// Whether a summary node's tag passes a structural node test.
    fn test_matches(&self, doc: &Document, sid: SummaryId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Name(name) => doc.name_text(self.node(sid).name) == name.as_str(),
            NodeTest::Wildcard => true,
            _ => false,
        }
    }

    /// Child-step transition: summary children of any state whose tag
    /// passes `test`. The result is sorted and duplicate-free.
    pub fn child_states(
        &self,
        doc: &Document,
        states: &[SummaryId],
        test: &NodeTest,
    ) -> Vec<SummaryId> {
        let mut out: Vec<SummaryId> = states
            .iter()
            .flat_map(|&s| self.node(s).children.iter().copied())
            .filter(|&c| self.test_matches(doc, c, test))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Descendant-step transition: every state strictly below any input
    /// state whose tag passes `test`. Sorted and duplicate-free.
    pub fn descendant_states(
        &self,
        doc: &Document,
        states: &[SummaryId],
        test: &NodeTest,
    ) -> Vec<SummaryId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<SummaryId> = states
            .iter()
            .flat_map(|&s| self.node(s).children.iter().copied())
            .collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut seen[s as usize], true) {
                continue;
            }
            if self.test_matches(doc, s, test) {
                out.push(s);
            }
            stack.extend(self.node(s).children.iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// The summary node `node` is a member of, `None` for anything but a
    /// summarized element.
    pub fn sid(&self, node: NodeId) -> Option<SummaryId> {
        self.sid_of.get(node.index()).copied().filter(|&sid| sid != NO_SID)
    }

    /// The child path of `sid` whose last step is `name`.
    pub(crate) fn child_named(&self, sid: SummaryId, name: NameId) -> Option<SummaryId> {
        self.node(sid).children.iter().copied().find(|&c| self.node(c).name == name)
    }

    /// Where the members of `sid` posted under `key` whose value matches
    /// `needle` sit: one contiguous run of a posting list, found by binary
    /// search, as positions for [`posted`](PathSummary::posted) to read.
    pub(crate) fn probe(
        &self,
        doc: &Document,
        sid: SummaryId,
        key: ValueKey,
        needle: &Needle,
    ) -> Range<usize> {
        debug_assert!(!self.refresh_pending, "patch_delete was not followed by refresh_text");
        self.node(sid).postings(key).map_or(0..0, |p| p.range(doc, key, needle))
    }

    /// The run a [`probe`](PathSummary::probe) of this same summary found,
    /// in (value, document order).
    pub(crate) fn posted(
        &self,
        sid: SummaryId,
        key: ValueKey,
        needle: &Needle,
        run: Range<usize>,
    ) -> &[NodeId] {
        self.node(sid).postings(key).map_or(&[], |p| &p.list(needle)[run])
    }

    /// The members of `sid` that carry `key` but are in no posting list —
    /// elements whose string-value has to be built — in document order. A
    /// probe's answer is its posting run plus whichever of these match.
    pub(crate) fn unindexed(&self, sid: SummaryId, key: ValueKey) -> &[NodeId] {
        match key {
            ValueKey::Text => &self.node(sid).unindexed,
            ValueKey::Attr(_) => &[],
        }
    }

    /// Incrementally absorbs one freshly inserted node: an element (no
    /// children) is spliced into the members and postings of its path at
    /// document-order rank — the path grafted under its parent's first
    /// when no element had it — and, whatever was inserted, the parent's
    /// string-value is re-filed, since a new child changes it. Only the
    /// paths written are copied out of a shared clone.
    ///
    /// Always returns `true`: every insert is absorbed. The `bool` dates
    /// from when a new path made the caller rebuild, and stays so that
    /// callers written against that contract keep compiling.
    ///
    /// Note the summary stays *semantically* identical to a from-scratch
    /// rebuild (same path set, same members and postings per path,
    /// document order preserved) but sid numbering may differ: `build`
    /// numbers paths by first encounter in pre-order, while a graft takes
    /// a pruned slot or the next one. All planner entry points
    /// (`child_states`, `descendant_states`, `cardinality`,
    /// `merged_members`, `probe`) are invariant under sid renumbering;
    /// tests compare via [`canonical`].
    ///
    /// [`canonical`]: PathSummary::canonical
    pub fn patch_insert(&mut self, doc: &Document, order: &DocOrder, node: NodeId) -> bool {
        debug_assert!(!self.refresh_pending, "patch_delete was not followed by refresh_text");
        let Some(parent) = doc.parent(node) else { return true };
        // An element under a node with no path has none either, as in `build`.
        if let (Some(name), Some(psid)) = (doc.element_name(node), self.sid(parent)) {
            let sid = match self.child_named(psid, name) {
                Some(sid) => sid,
                None => self.graft(psid, name),
            };
            self.sid_of.grow_to(doc.arena_len(), NO_SID);
            *self.sid_of.get_mut(node.index()).expect("grown to the arena") = sid;
            let entry = Arc::make_mut(&mut self.nodes[sid as usize]);
            insert_in_order(&mut entry.members, order, node);
            entry.file_text(doc, order, node);
            for attribute in doc.attributes(node) {
                let key = ValueKey::Attr(attribute.name);
                entry.attr_postings(attribute.name).insert(doc, order, key, node);
            }
        }
        self.refresh_text(doc, order, parent);
        true
    }

    /// Links a new, still empty path `name` under `parent`, in a pruned
    /// slot when there is one.
    fn graft(&mut self, parent: SummaryId, name: NameId) -> SummaryId {
        let depth = self.node(parent).depth + 1;
        let path = Arc::new(SummaryNode::new(name, Some(parent), depth));
        let sid = match self.free.pop() {
            Some(sid) => {
                self.nodes[sid as usize] = path;
                sid
            }
            None => {
                self.nodes.push(path);
                (self.nodes.len() - 1) as SummaryId
            }
        };
        Arc::make_mut(&mut self.nodes[parent as usize]).children.push(sid);
        sid
    }

    /// Re-files `element`'s string-value after its children changed (a
    /// node inserted under it, a child subtree deleted): it may move
    /// within the text postings, or between them and the unindexed list.
    /// [`patch_insert`] does this for the new node's parent itself; after
    /// a [`patch_delete`] — which is told node ids only and cannot read
    /// the tree — the caller passes the parent the subtree hung under. A
    /// no-op for anything but a summarized element, and a read-only one
    /// for an element that was unindexed and stays so.
    ///
    /// [`patch_insert`]: PathSummary::patch_insert
    /// [`patch_delete`]: PathSummary::patch_delete
    pub fn refresh_text(&mut self, doc: &Document, order: &DocOrder, element: NodeId) {
        self.refresh_pending = false;
        let Some(sid) = self.sid(element) else { return };
        let postable = doc.simple_text(element).is_some();
        // The unindexed list is in document order, so a binary search by
        // rank finds the element there if it was unindexed.
        let unindexed = &self.node(sid).unindexed;
        let rank = order.rank(element);
        let at = unindexed.partition_point(|&m| order.rank(m) < rank);
        let was_unindexed = unindexed.get(at) == Some(&element);
        if was_unindexed && !postable {
            return;
        }
        let entry = Arc::make_mut(&mut self.nodes[sid as usize]);
        if was_unindexed {
            entry.unindexed.remove(at);
        } else {
            // The value it was posted under may be gone from the tree, so
            // it is found by id; the scan is no dearer than the shift
            // `remove` does.
            entry.text.retain(|&m| m != element);
        }
        entry.file_text(doc, order, element);
    }

    /// Incrementally removes a detached subtree's elements from the
    /// members and postings of their paths; other paths are not touched.
    /// A path that loses its last member is pruned: unlinked from its
    /// parent path and its slot freed for the next graft (every path
    /// below it empties with it). The caller must follow up with
    /// [`refresh_text`] on the subtree's former parent before the summary
    /// is probed or patched again (debug builds assert it).
    ///
    /// Always returns `true`, for the same reason
    /// [`patch_insert`](PathSummary::patch_insert) does.
    ///
    /// [`refresh_text`]: PathSummary::refresh_text
    pub fn patch_delete(&mut self, removed: &[NodeId]) -> bool {
        self.refresh_pending = true;
        let gone: HashSet<NodeId> = removed.iter().copied().collect();
        let mut affected: Vec<SummaryId> = removed.iter().filter_map(|&n| self.sid(n)).collect();
        affected.sort_unstable();
        affected.dedup();
        let mut emptied = Vec::new();
        for sid in affected {
            let entry = Arc::make_mut(&mut self.nodes[sid as usize]);
            let keep = |m: &NodeId| !gone.contains(m);
            entry.members.retain(keep);
            entry.unindexed.retain(keep);
            entry.text.retain(keep);
            for (_, postings) in &mut entry.attrs {
                postings.retain(keep);
            }
            entry.attrs.retain(|(_, postings)| !postings.by_value.is_empty());
            if entry.members.is_empty() {
                emptied.push(sid);
            }
        }
        // `emptied` is sorted: it is a filter of `affected`.
        for &sid in &emptied {
            let entry = Arc::make_mut(&mut self.nodes[sid as usize]);
            entry.children.clear();
            let parent = entry.parent.expect("the root element is never deleted");
            if emptied.binary_search(&parent).is_err() {
                Arc::make_mut(&mut self.nodes[parent as usize]).children.retain(|&c| c != sid);
            }
            self.free.push(sid);
        }
        for node in removed {
            if let Some(slot) = self.sid_of.get_mut(node.index()) {
                *slot = NO_SID;
            }
        }
        true
    }

    /// The sid-numbering-independent view: one `(path string, members)`
    /// row per live path plus one row per non-empty posting list and
    /// unindexed list of it (`path text()`, `path number(@id)`, ...),
    /// sorted. Two summaries with equal canonical forms answer every
    /// planner question identically; differential tests compare
    /// incrementally patched summaries against rebuilds through this.
    pub fn canonical(&self, doc: &Document) -> Vec<(String, Vec<NodeId>)> {
        let mut out = Vec::new();
        for sid in (0..self.nodes.len() as SummaryId).filter(|&sid| self.is_live(sid)) {
            let path = self.path_string(doc, sid);
            let entry = self.node(sid);
            let mut lists = vec![("unindexed".to_string(), &entry.unindexed)];
            let keyed = std::iter::once(("text()".to_string(), &entry.text)).chain(
                entry.attrs.iter().map(|(name, p)| (format!("@{}", doc.name_text(*name)), p)),
            );
            for (key, postings) in keyed {
                lists.push((format!("number({key})"), &postings.by_number));
                lists.push((key, &postings.by_value));
            }
            for (label, list) in lists {
                if !list.is_empty() {
                    out.push((format!("{path} {label}"), list.clone()));
                }
            }
            out.push((path, entry.members.clone()));
        }
        out.sort();
        out
    }

    /// The union of several states' member lists, in document order. A
    /// single state's list is already sorted; a real union sorts by the
    /// precomputed rank key.
    pub fn merged_members(&self, states: &[SummaryId], order: &DocOrder) -> Vec<NodeId> {
        match states {
            [] => Vec::new(),
            [one] => self.members(*one).to_vec(),
            many => {
                let mut out: Vec<NodeId> =
                    many.iter().flat_map(|&s| self.members(s).iter().copied()).collect();
                out.sort_unstable_by_key(|&n| order.rank(n));
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse(
            "<site><regions><africa><item/><item/></africa>\
             <asia><item/></asia></regions>\
             <people><person><name>x</name></person></people></site>",
        )
        .unwrap()
    }

    #[test]
    fn distinct_paths_and_cardinalities() {
        let doc = sample();
        let s = PathSummary::build(&doc);
        // /site, /site/regions, /site/regions/africa, .../item,
        // /site/regions/asia, .../item, /site/people, .../person, .../name
        assert_eq!(s.path_count(), 9);
        let paths: Vec<String> =
            (0..s.path_count() as SummaryId).map(|i| s.path_string(&doc, i)).collect();
        assert!(paths.contains(&"/site/regions/africa/item".to_string()), "{paths:?}");
        // Two africa items, one asia item, on *different* summary nodes.
        let item_states = s.descendant_states(&doc, &[0], &NodeTest::Name("item".into()));
        assert_eq!(item_states.len(), 2);
        assert_eq!(s.cardinality(&item_states), 3);
    }

    #[test]
    fn members_stay_in_document_order() {
        let doc = sample();
        let s = PathSummary::build(&doc);
        let order = DocOrder::build(&doc);
        let item_states = s.descendant_states(&doc, &[0], &NodeTest::Name("item".into()));
        let merged = s.merged_members(&item_states, &order);
        let mut ranks: Vec<u32> = merged.iter().map(|&n| order.rank(n)).collect();
        let sorted = ranks.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, sorted, "merged members must already be rank-sorted");
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn child_and_wildcard_transitions() {
        let doc = sample();
        let s = PathSummary::build(&doc);
        let regions = s.child_states(&doc, &[0], &NodeTest::Name("regions".into()));
        assert_eq!(regions.len(), 1);
        let all_children = s.child_states(&doc, &[0], &NodeTest::Wildcard);
        assert_eq!(all_children.len(), 2, "regions + people");
        let nothing = s.child_states(&doc, &[0], &NodeTest::Name("nope".into()));
        assert!(nothing.is_empty());
        // text()/node() tests are not structural: no states match.
        assert!(s.child_states(&doc, &[0], &NodeTest::Text).is_empty());
    }

    #[test]
    fn elementless_document_yields_empty_summary() {
        let s = PathSummary::default();
        assert_eq!(s.path_count(), 0);
        assert!(s.root_sid().is_none());
    }

    #[test]
    fn patch_insert_on_existing_path_matches_rebuild() {
        let mut doc = sample();
        let mut s = PathSummary::build(&doc);
        // A third <item> under africa: the path exists, so the patch
        // splices the member in place with no rebuild.
        let africa = doc
            .descendants(doc.root_element().unwrap())
            .find(|&n| doc.element_name(n).map(|id| doc.name_text(id)) == Some("africa"))
            .unwrap();
        let new = doc.create_element("item");
        doc.append_child(africa, new);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, new), "path /site/regions/africa/item exists");
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
    }

    /// `s` answers as a rebuild of `doc` does.
    fn assert_rebuilt(s: &PathSummary, doc: &Document) {
        let rebuilt = PathSummary::build(doc);
        assert_eq!(s.canonical(doc), rebuilt.canonical(doc));
        assert_eq!(s.path_count(), rebuilt.path_count());
    }

    #[test]
    fn patch_insert_on_new_path_grafts_it() {
        let mut doc = sample();
        let mut s = PathSummary::build(&doc);
        let root = doc.root_element().unwrap();
        let new = doc.create_element("unseen");
        doc.set_attribute(new, "id", "u1");
        doc.append_child(root, new);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, new), "a brand-new path is grafted");
        assert_rebuilt(&s, &doc);
        let sid = s.sid(new).unwrap();
        assert_eq!(s.path_string(&doc, sid), "/site/unseen");
        assert_eq!(s.child_states(&doc, &[0], &NodeTest::Name("unseen".into())), vec![sid]);
        // And a path below the grafted one.
        let deeper = doc.create_element("under");
        doc.append_child(new, deeper);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, deeper));
        assert_rebuilt(&s, &doc);
    }

    #[test]
    fn patch_delete_prunes_emptied_paths() {
        let mut doc = sample();
        let mut s = PathSummary::build(&doc);
        let root = doc.root_element().unwrap();
        // Deleting one of two africa items keeps the path.
        let item = doc
            .descendants(root)
            .find(|&n| doc.element_name(n).map(|id| doc.name_text(id)) == Some("item"))
            .unwrap();
        let africa = doc.parent(item).unwrap();
        doc.detach(item);
        assert!(s.patch_delete(&[item]));
        s.refresh_text(&doc, &DocOrder::build(&doc), africa);
        assert_rebuilt(&s, &doc);
        // Deleting the whole <people> subtree empties /site/people and
        // everything below it: all three paths are pruned.
        let people = doc
            .descendants(root)
            .find(|&n| doc.element_name(n).map(|id| doc.name_text(id)) == Some("people"))
            .unwrap();
        let removed: Vec<NodeId> =
            doc.descendants(people).filter(|&n| doc.element_name(n).is_some()).collect();
        doc.detach(people);
        assert!(s.patch_delete(&removed));
        s.refresh_text(&doc, &DocOrder::build(&doc), root);
        assert_rebuilt(&s, &doc);
        assert!(s.descendant_states(&doc, &[0], &NodeTest::Name("name".into())).is_empty());
        // Grafting again reuses the freed slots instead of growing.
        let slots = s.slot_count();
        let back = doc.create_element("people");
        doc.append_child(root, back);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, back));
        assert_rebuilt(&s, &doc);
        assert_eq!(s.slot_count(), slots);
    }

    fn valued() -> Document {
        Document::parse(
            "<r><i id=\"b\"><q>2</q></i><i id=\"a\"><q> 2.0 </q></i>\
             <i id=\"b\"><q>10</q></i><i><q>NaN</q></i><i id=\"c\"><q>x<e/>y</q></i>\
             <i id=\"\"><q/></i></r>",
        )
        .unwrap()
    }

    fn hits(
        s: &PathSummary,
        doc: &Document,
        sid: SummaryId,
        key: ValueKey,
        needle: Needle,
    ) -> Vec<NodeId> {
        s.posted(sid, key, &needle, s.probe(doc, sid, key, &needle)).to_vec()
    }

    fn named(doc: &Document, name: &str) -> Vec<NodeId> {
        doc.descendants(doc.root()).filter(|&n| doc.tag_name(n) == Some(name)).collect()
    }

    #[test]
    fn probes_find_value_runs_in_document_order() {
        let doc = valued();
        let s = PathSummary::build(&doc);
        let items = named(&doc, "i");
        let i_sid = s.sid(items[0]).unwrap();
        let id = ValueKey::Attr(doc.name_id("id").unwrap());
        let eq = |v: &str| hits(&s, &doc, i_sid, id, Needle::Str(v.into()));
        assert_eq!(eq("b"), vec![items[0], items[2]], "ties keep document order");
        assert_eq!(eq("a"), vec![items[1]]);
        assert_eq!(eq(""), vec![items[5]], "an empty value is a value");
        assert!(eq("zz").is_empty());
        assert!(s.unindexed(i_sid, id).is_empty(), "attributes always post");

        let qs = named(&doc, "q");
        let q_sid = s.sid(qs[0]).unwrap();
        let num = |op, x| hits(&s, &doc, q_sid, ValueKey::Text, Needle::Num(op, x));
        assert_eq!(num(CmpOp::Eq, 2.0), vec![qs[0], qs[1]], "\"2\" and \" 2.0 \" are one number");
        assert_eq!(num(CmpOp::Gt, 2.0), vec![qs[2]]);
        assert_eq!(num(CmpOp::Ge, 2.0), vec![qs[0], qs[1], qs[2]]);
        assert_eq!(num(CmpOp::Lt, 10.0), vec![qs[0], qs[1]]);
        assert_eq!(num(CmpOp::Le, 1.0), vec![]);
        assert!(num(CmpOp::Ge, f64::NAN).is_empty(), "nothing compares with NaN");
        assert!(num(CmpOp::Le, f64::INFINITY).len() == 3, "the NaN text is never number-posted");
        // Mixed content is not posted; it waits on the unindexed list.
        assert_eq!(s.unindexed(q_sid, ValueKey::Text), &[qs[4]]);
        let text = |v: &str| hits(&s, &doc, q_sid, ValueKey::Text, Needle::Str(v.into()));
        assert_eq!(text(""), vec![qs[5]], "a childless element's string-value is empty");
        assert!(text("xy").is_empty());
    }

    #[test]
    fn text_edits_refile_the_parent() {
        let mut doc = valued();
        let mut s = PathSummary::build(&doc);
        let qs = named(&doc, "q");
        // A second text node beside the first: "2" + "5" can no longer be lent.
        let extra = doc.create_text("5");
        doc.append_child(qs[0], extra);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, extra));
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
        // An element under a former leaf.
        let under = doc.create_element("e");
        doc.append_child(qs[5], under);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, under));
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
        // Deleting the element child of the mixed <q> leaves two text nodes;
        // deleting one of those makes it postable again.
        let e = doc.children(qs[4]).find(|&c| doc.is_element(c)).unwrap();
        doc.detach(e);
        assert!(s.patch_delete(&[e]));
        s.refresh_text(&doc, &order, qs[4]);
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
        let y = doc.last_child(qs[4]).unwrap();
        doc.detach(y);
        assert!(s.patch_delete(&[]));
        s.refresh_text(&doc, &order, qs[4]);
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
        let q_sid = s.sid(qs[4]).unwrap();
        assert_eq!(hits(&s, &doc, q_sid, ValueKey::Text, Needle::Str("x".into())), vec![qs[4]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not followed by refresh_text")]
    fn a_forgotten_refresh_is_loud() {
        let mut doc = valued();
        let mut s = PathSummary::build(&doc);
        let qs = named(&doc, "q");
        let text = doc.first_child(qs[0]).unwrap();
        doc.detach(text);
        assert!(s.patch_delete(&[]));
        // <q> is still filed under "2"; searching now could answer wrongly.
        let _ = s.probe(&doc, s.sid(qs[0]).unwrap(), ValueKey::Text, &Needle::Str("".into()));
    }

    #[test]
    fn deleting_the_last_carrier_drops_the_attribute_postings() {
        let mut doc = valued();
        let items = named(&doc, "i");
        doc.set_attribute(items[3], "k", "1");
        let mut s = PathSummary::build(&doc);
        let removed: Vec<NodeId> =
            doc.descendants(items[3]).filter(|&n| doc.is_element(n)).collect();
        doc.detach(items[3]);
        assert!(s.patch_delete(&removed));
        s.refresh_text(&doc, &DocOrder::build(&doc), doc.root_element().unwrap());
        assert_eq!(s.canonical(&doc), PathSummary::build(&doc).canonical(&doc));
    }

    #[test]
    fn a_clone_shares_every_path_a_patch_does_not_write() {
        let mut doc = sample();
        let base = PathSummary::build(&doc);
        let mut s = base.clone();
        assert!(s.unshared_paths(&base).is_empty());
        let africa = named(&doc, "africa")[0];
        let new = doc.create_element("item");
        doc.append_child(africa, new);
        let order = DocOrder::build(&doc);
        assert!(s.patch_insert(&doc, &order, new));
        // The new member's path; <africa> has element children before and
        // after, so its own path is only read.
        assert_eq!(s.unshared_paths(&base), vec![s.sid(new).unwrap()]);
    }
}
