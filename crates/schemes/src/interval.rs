//! Nested-set interval labels: `[rank, last_descendant]` pairs over the
//! pre-order ranks, as popularized by Tropashko's nested-set model and
//! the flat-event encodings of streaming toolkits.
//!
//! Every node's label is `(rank, last)` where `rank` is its pre-order
//! position and `last` the position of its last descendant (its own rank
//! for a leaf). The two headline properties:
//!
//! * **O(1) ancestor test** — `a` is a strict ancestor of `b` iff
//!   `a.rank < b.rank && b.rank <= a.last`;
//! * **flat reconstruction** — the tree's edges are recoverable from the
//!   bag of `(rank, last)` markers alone with one stack pass over the
//!   markers sorted by `rank`, which is what lets `LOADSTREAM` ingest
//!   interval-encoded event streams without ever materializing XML text
//!   ([`document_from_stream`]).
//!
//! The trade-off against rUID is update locality: any structural change
//! shifts every rank to its right. Labels are not stored — they are read
//! off the shared pre-order span table ([`xmldom::DocOrder`]) on demand —
//! so [`IntervalScheme::on_insert`] / [`IntervalScheme::on_delete`] splice
//! that table and report how many labels the shift changed (the honest
//! cost experiment E18 measures) without materialising them.

use std::cmp::Ordering;

use xmldom::{DocOrder, Document, NodeId};

use crate::traits::{NumberingScheme, RelabelStats};

/// A nested-set interval label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntervalLabel {
    /// Pre-order rank of the node (root of the numbering = 0).
    pub rank: u32,
    /// Rank of the node's last descendant (`== rank` for a leaf).
    pub last: u32,
}

impl IntervalLabel {
    /// Whether `self` labels a strict ancestor of `other`'s node — the
    /// O(1) nested-set containment test.
    pub fn contains(&self, other: &IntervalLabel) -> bool {
        self.rank < other.rank && other.rank <= self.last
    }

    /// Number of nodes in the labelled subtree (itself included).
    pub fn subtree_size(&self) -> u32 {
        self.last - self.rank + 1
    }
}

impl Ord for IntervalLabel {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

impl PartialOrd for IntervalLabel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bytes of the canonical varint encoding of `v` (7 bits per byte).
pub fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros() as usize).max(1)).div_ceil(7)
}

/// The pre-order span of one numbering: the ranks of its root's subtree
/// ([`DocOrder::subtree`]), counted from the root. Both [`IntervalScheme`]
/// and the ancestry scheme encode their labels from it and serve their
/// axis arithmetic from it; neither keeps a copy of the table behind it.
pub type SpanIndex = DocOrder;

/// Nested-set `[rank, last]` labelling of one document subtree: an
/// encoder over a [`SpanIndex`], holding no label table of its own.
#[derive(Debug, Clone)]
pub struct IntervalScheme {
    index: SpanIndex,
}

impl IntervalScheme {
    /// Labels the subtree under the document's root element.
    pub fn build(doc: &Document) -> Self {
        let root = doc.root_element().unwrap_or_else(|| doc.root());
        IntervalScheme { index: DocOrder::build_at(doc, root) }
    }

    /// Labels `root`'s subtree from an order that already ranks it — the
    /// catalog shares one table between its order keys and both span
    /// numberings.
    pub fn over(order: &DocOrder, root: NodeId) -> Self {
        IntervalScheme { index: order.subtree(root) }
    }

    /// Number of labelled nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no nodes are labelled (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The position tables the axis provider reads.
    pub fn span_index(&self) -> &SpanIndex {
        &self.index
    }

    /// Bytes of the compact on-disk encoding of `label`: varint rank +
    /// varint subtree extent (`last - rank`).
    pub fn encoded_bytes(&self, label: &IntervalLabel) -> usize {
        varint_len(u64::from(label.rank)) + varint_len(u64::from(label.last - label.rank))
    }

    /// How many surviving labels a splice of `count` positions at `at`
    /// changes: every rank after the splice point shifts, and every
    /// ancestor's `last` moves with it.
    fn relabeled(&self, at: u32, count: u32) -> usize {
        let ancestors = std::iter::successors(Some(at), |&p| self.index.parent_of(p)).skip(1);
        self.len() - (at + count) as usize + ancestors.count()
    }
}

impl NumberingScheme for IntervalScheme {
    type Label = IntervalLabel;

    fn scheme_name(&self) -> &'static str {
        "interval"
    }

    fn numbering_root(&self) -> NodeId {
        self.index.root()
    }

    fn label_of(&self, node: NodeId) -> IntervalLabel {
        let (rank, last) = self.index.extent(node).expect("node is not labelled");
        IntervalLabel { rank, last }
    }

    fn node_of(&self, label: &IntervalLabel) -> Option<NodeId> {
        if (label.rank as usize) >= self.index.len() {
            return None;
        }
        (self.index.last_of(label.rank) == label.last).then(|| self.index.node_at(label.rank))
    }

    fn supports_parent_computation(&self) -> bool {
        false
    }

    fn parent_label(&self, _label: &IntervalLabel) -> Option<IntervalLabel> {
        None
    }

    fn is_ancestor(&self, a: &IntervalLabel, b: &IntervalLabel) -> bool {
        a.contains(b)
    }

    fn cmp_order(&self, a: &IntervalLabel, b: &IntervalLabel) -> Ordering {
        a.rank.cmp(&b.rank)
    }

    fn on_insert(&mut self, doc: &Document, new_node: NodeId) -> RelabelStats {
        let (at, count) = self.index.insert_subtree(doc, new_node);
        RelabelStats { relabeled: self.relabeled(at, count), dropped: 0, full_rebuild: false }
    }

    fn on_delete(&mut self, _doc: &Document, _old_parent: NodeId, removed: NodeId) -> RelabelStats {
        let (at, last) = self.index.extent(removed).expect("removed node is not labelled");
        let relabeled = self.relabeled(at, last - at + 1);
        let (_, dropped) = self.index.remove_subtree(removed);
        RelabelStats { relabeled, dropped: dropped as usize, full_rebuild: false }
    }
}

/// One event of an interval-encoded flat stream: an interval plus the
/// node content it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// `start:end:name` — an element.
    Element { start: u64, end: u64, name: String },
    /// `start:end:=text` — a text node (always a leaf).
    Text { start: u64, end: u64, text: String },
}

impl StreamEvent {
    fn start(&self) -> u64 {
        match self {
            StreamEvent::Element { start, .. } | StreamEvent::Text { start, .. } => *start,
        }
    }

    fn end(&self) -> u64 {
        match self {
            StreamEvent::Element { end, .. } | StreamEvent::Text { end, .. } => *end,
        }
    }
}

fn valid_stream_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

/// Parses one whitespace-separated event token, `start:end:name` for an
/// element or `start:end:=text` for a text leaf. Never panics: every
/// malformed token is a descriptive `Err`.
pub fn parse_stream_event(token: &str) -> Result<StreamEvent, String> {
    let mut parts = token.splitn(3, ':');
    let (start, end, payload) = match (parts.next(), parts.next(), parts.next()) {
        (Some(s), Some(e), Some(p)) => (s, e, p),
        _ => return Err(format!("event `{token}` is not start:end:content")),
    };
    let start: u64 =
        start.parse().map_err(|_| format!("event `{token}` has a non-numeric start"))?;
    let end: u64 = end.parse().map_err(|_| format!("event `{token}` has a non-numeric end"))?;
    if end < start {
        return Err(format!("event `{token}` ends before it starts"));
    }
    if let Some(text) = payload.strip_prefix('=') {
        if text.is_empty() {
            return Err(format!("event `{token}` has empty text"));
        }
        Ok(StreamEvent::Text { start, end, text: text.to_string() })
    } else {
        if !valid_stream_name(payload) {
            return Err(format!("event `{token}` has an invalid element name"));
        }
        Ok(StreamEvent::Element { start, end, name: payload.to_string() })
    }
}

/// Builds a [`Document`] directly from an interval-encoded flat event
/// stream (whitespace-separated `start:end:name` / `start:end:=text`
/// tokens), without materializing any XML text: sort by `start`, then one
/// stack pass — pop while the top interval closes before the next one
/// opens; whatever remains on top is the parent. All
/// structural defects (overlapping intervals, duplicate starts, multiple
/// roots, text nodes with children) are reported as `Err`, never panics.
pub fn document_from_stream(stream: &str) -> Result<Document, String> {
    let mut events: Vec<StreamEvent> = Vec::new();
    for token in stream.split_whitespace() {
        events.push(parse_stream_event(token)?);
    }
    if events.is_empty() {
        return Err("empty event stream".into());
    }
    events.sort_by_key(|e| e.start());

    let mut doc = Document::new();
    // Stack of (end, node, is_text) for the currently open intervals.
    let mut stack: Vec<(u64, NodeId, bool)> = Vec::new();
    let mut root_placed = false;
    for (i, event) in events.iter().enumerate() {
        let (start, end) = (event.start(), event.end());
        if i > 0 && events[i - 1].start() == start {
            return Err(format!("duplicate event start {start}"));
        }
        while matches!(stack.last(), Some(&(open_end, _, _)) if open_end < start) {
            stack.pop();
        }
        let node = match event {
            StreamEvent::Element { name, .. } => doc.create_element(name),
            StreamEvent::Text { text, .. } => doc.create_text(text),
        };
        match stack.last() {
            Some(&(open_end, parent, parent_is_text)) => {
                if parent_is_text {
                    return Err(format!("event at {start} nests inside a text node"));
                }
                if end > open_end {
                    return Err(format!(
                        "event {start}:{end} overlaps its enclosing interval (ends at {open_end})"
                    ));
                }
                doc.append_child(parent, node);
            }
            None => {
                if root_placed {
                    return Err(format!("event {start}:{end} lies outside the root interval"));
                }
                if matches!(event, StreamEvent::Text { .. }) {
                    return Err("the root event must be an element".into());
                }
                doc.append_child(doc.root(), node);
                root_placed = true;
            }
        }
        stack.push((end, node, matches!(event, StreamEvent::Text { .. })));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_of_small_tree() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let s = IntervalScheme::build(&doc);
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        let d = doc.next_sibling(b).unwrap();
        assert_eq!(s.label_of(a), IntervalLabel { rank: 0, last: 3 });
        assert_eq!(s.label_of(b), IntervalLabel { rank: 1, last: 2 });
        assert_eq!(s.label_of(c), IntervalLabel { rank: 2, last: 2 });
        assert_eq!(s.label_of(d), IntervalLabel { rank: 3, last: 3 });
        s.check_consistency(&doc).unwrap();
    }

    #[test]
    fn ancestor_and_order_match_tree() {
        let doc = Document::parse("<a><b><c/><d/></b><e><f/></e></a>").unwrap();
        let s = IntervalScheme::build(&doc);
        let nodes: Vec<_> = doc.descendants(doc.root_element().unwrap()).collect();
        for (i, &x) in nodes.iter().enumerate() {
            for (j, &y) in nodes.iter().enumerate() {
                let lx = s.label_of(x);
                let ly = s.label_of(y);
                assert_eq!(s.is_ancestor(&lx, &ly), doc.is_ancestor_of(x, y));
                assert_eq!(s.cmp_order(&lx, &ly), i.cmp(&j));
            }
        }
    }

    #[test]
    fn insert_and_delete_diffs() {
        let mut doc = Document::parse("<a><b/><c/></a>").unwrap();
        let mut s = IntervalScheme::build(&doc);
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let new = doc.create_element("n");
        doc.insert_after(b, new);
        let stats = s.on_insert(&doc, new);
        // a's last shifts, c's rank shifts: 2 relabels.
        assert_eq!(stats.relabeled, 2);
        s.check_consistency(&doc).unwrap();

        doc.detach(new);
        let stats = s.on_delete(&doc, a, new);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.relabeled, 2);
        s.check_consistency(&doc).unwrap();
    }

    #[test]
    fn span_index_reconstructs_edges() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let s = IntervalScheme::build(&doc);
        let idx = s.span_index();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.first_child(b).unwrap();
        let d = doc.next_sibling(b).unwrap();
        assert_eq!(idx.parent_of(0), None);
        assert_eq!(idx.node_at(0), a);
        assert_eq!(idx.parent_of(idx.rank(c)), Some(idx.rank(b)));
        assert_eq!(idx.parent_of(idx.rank(d)), Some(idx.rank(a)));
    }

    #[test]
    fn stream_roundtrip() {
        // <a><b>hi</b><c/></a> as flat intervals.
        let doc = document_from_stream("1:8:a 2:5:b 3:4:=hi 6:7:c").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tag_name(a), Some("a"));
        let b = doc.first_child(a).unwrap();
        assert_eq!(doc.tag_name(b), Some("b"));
        let txt = doc.first_child(b).unwrap();
        assert_eq!(doc.text(txt), Some("hi"));
        let c = doc.next_sibling(b).unwrap();
        assert_eq!(doc.tag_name(c), Some("c"));
        // Order independence: the same events shuffled build the same tree.
        let doc2 = document_from_stream("6:7:c 3:4:=hi 1:8:a 2:5:b").unwrap();
        let s1 = IntervalScheme::build(&doc);
        let s2 = IntervalScheme::build(&doc2);
        assert_eq!(s1.len(), s2.len());
    }

    #[test]
    fn stream_rejects_malformed_input() {
        for bad in [
            "",
            "1:8",
            "x:8:a",
            "1:y:a",
            "8:1:a",
            "1:8:",
            "1:8:1badname",
            "1:8:=",
            "1:8:=root",            // text root
            "1:8:a 2:9:b",          // overlap
            "1:8:a 2:5:b 2:3:c",    // duplicate start
            "1:2:a 5:6:b",          // two roots
            "1:8:a 2:5:=t 3:4:c",   // child of text
        ] {
            assert!(document_from_stream(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
