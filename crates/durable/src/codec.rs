//! Bounded binary readers/writers and the document-tree codec shared by
//! the snapshot and WAL formats.
//!
//! Everything is little-endian and length-prefixed; every read is bounds-
//! checked against the remaining buffer so that corrupt lengths surface as
//! [`CodecError`]s instead of panics or huge allocations. The tree codec
//! serializes a [`Document`] in preorder with explicit child counts,
//! written straight from the arena and decoded straight into a fresh one:
//! nodes are re-created in preorder, so the *i*-th preorder node of the
//! source is [`NodeId`] `i + 1` of the rebuilt arena (0 is the document
//! root) — the property the label section of a snapshot relies on.

use xmldom::{AttributeOwners, Document, NameId, NodeId, NodeKind};

/// A decode failure: what was being read and why it is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------- writer

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A string with a u32 byte-length prefix.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string exceeds u32 bytes"));
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------- reader

/// A bounds-checked cursor over a byte slice. `what` names the field
/// being read in the error of a read that runs past the end.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => err(format!(
                "truncated {what}: need {n} bytes, {} remain",
                self.remaining()
            )),
        }
    }

    /// The next byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    /// The next little-endian u32.
    pub fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// The next little-endian u64.
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<String, CodecError> {
        self.str_ref(what).map(str::to_owned)
    }

    /// A length-prefixed string borrowed from the buffer.
    pub(crate) fn str_ref(&mut self, what: &str) -> Result<&'a str, CodecError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return err(format!("{what}: length {len} exceeds remaining {}", self.remaining()));
        }
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError(format!("{what}: invalid utf-8")))
    }

    /// `Ok` once every byte was read.
    pub fn expect_end(&self, what: &str) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            err(format!("{what}: {} trailing bytes", self.remaining()))
        }
    }
}

// ----------------------------------------------------------- node content

/// The content of one XML node, independent of any document arena — the
/// unit the WAL logs for a structural insert and the tree codec repeats
/// per preorder node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeContent {
    /// An element: tag name + attributes in document order.
    Element {
        /// Tag name.
        name: String,
        /// `(name, value)` attribute pairs.
        attributes: Vec<(String, String)>,
    },
    /// A text node.
    Text(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

impl NodeContent {
    /// Captures the content of `node`.
    ///
    /// # Panics
    /// Panics on the document-root node (it has no content to capture).
    pub fn from_node(doc: &Document, node: NodeId) -> NodeContent {
        match doc.kind(node) {
            NodeKind::Element { name, attributes } => NodeContent::Element {
                name: doc.name_text(*name).to_owned(),
                attributes: attributes
                    .iter()
                    .map(|a| (doc.name_text(a.name).to_owned(), a.value.to_string()))
                    .collect(),
            },
            NodeKind::Text(t) => NodeContent::Text(t.to_string()),
            NodeKind::Comment(c) => NodeContent::Comment(c.to_string()),
            NodeKind::ProcessingInstruction { target, data } => {
                NodeContent::Pi { target: target.to_string(), data: data.to_string() }
            }
            NodeKind::Document => panic!("document root has no serializable content"),
        }
    }

    /// Creates a detached node with this content in `doc`.
    pub fn create_in(&self, doc: &mut Document) -> NodeId {
        match self {
            NodeContent::Element { name, attributes } => {
                let node = doc.create_element(name);
                for (k, v) in attributes {
                    doc.set_attribute(node, k, v);
                }
                node
            }
            NodeContent::Text(t) => doc.create_text(t),
            NodeContent::Comment(c) => doc.create_comment(c),
            NodeContent::Pi { target, data } => doc.create_pi(target, data),
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeContent::Element { name, attributes } => {
                put_u8(out, 0);
                put_str(out, name);
                put_u16(out, u16::try_from(attributes.len()).expect("too many attributes"));
                for (k, v) in attributes {
                    put_str(out, k);
                    put_str(out, v);
                }
            }
            NodeContent::Text(t) => {
                put_u8(out, 1);
                put_str(out, t);
            }
            NodeContent::Comment(c) => {
                put_u8(out, 2);
                put_str(out, c);
            }
            NodeContent::Pi { target, data } => {
                put_u8(out, 3);
                put_str(out, target);
                put_str(out, data);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<NodeContent, CodecError> {
        Ok(match r.u8("node kind")? {
            0 => {
                let name = r.str("element name")?;
                let n_attrs = r.u16("attribute count")? as usize;
                let mut attributes = Vec::with_capacity(n_attrs.min(1024));
                for _ in 0..n_attrs {
                    let k = r.str("attribute name")?;
                    let v = r.str("attribute value")?;
                    attributes.push((k, v));
                }
                NodeContent::Element { name, attributes }
            }
            1 => NodeContent::Text(r.str("text content")?),
            2 => NodeContent::Comment(r.str("comment content")?),
            3 => NodeContent::Pi { target: r.str("pi target")?, data: r.str("pi data")? },
            other => return err(format!("unknown node kind tag {other}")),
        })
    }
}

// ------------------------------------------------------- partition config

pub(crate) fn put_config(out: &mut Vec<u8>, config: &ruid_core::PartitionConfig) {
    use ruid_core::PartitionStrategy;
    match config.strategy {
        PartitionStrategy::ByDepth(d) => {
            put_u8(out, 0);
            put_u64(out, d as u64);
        }
        PartitionStrategy::ByAreaSize(m) => {
            put_u8(out, 1);
            put_u64(out, m as u64);
        }
    }
    put_u8(out, u8::from(config.fanout_adjustment));
}

pub(crate) fn read_config(r: &mut Reader<'_>) -> Result<ruid_core::PartitionConfig, CodecError> {
    use ruid_core::{PartitionConfig, PartitionStrategy};
    let strategy = match r.u8("partition strategy")? {
        0 => PartitionStrategy::ByDepth(r.u64("depth")? as usize),
        1 => PartitionStrategy::ByAreaSize(r.u64("area size")? as usize),
        other => return err(format!("unknown partition strategy tag {other}")),
    };
    let fanout_adjustment = match r.u8("fanout adjustment flag")? {
        0 => false,
        1 => true,
        other => return err(format!("bad bool byte {other}")),
    };
    Ok(PartitionConfig { strategy, fanout_adjustment })
}

// ------------------------------------------------------------- tree codec

/// Most attributes one element can carry: the tree section counts them in
/// a `u16`.
pub const MAX_ATTRIBUTES: usize = u16::MAX as usize;

/// Refuses a tree holding an element with more than [`MAX_ATTRIBUTES`]
/// attributes, which no snapshot could encode. Every load path checks its
/// tree with this before anything reaches the WAL.
pub fn check_attribute_limit(doc: &Document) -> Result<(), String> {
    for node in doc.descendants(doc.root()) {
        let count = doc.attributes(node).len();
        if count > MAX_ATTRIBUTES {
            let name = doc.tag_name(node).unwrap_or_default();
            return Err(format!(
                "element <{name}> has {count} attributes; an element may carry at most \
                 {MAX_ATTRIBUTES}"
            ));
        }
    }
    Ok(())
}

/// The preorder node sequence a snapshot aligns its label section with:
/// every node reachable from the document root, the root itself excluded,
/// in document order.
pub fn preorder(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root()).skip(1).collect()
}

/// Appends the tree under the document root to `out`, in [`preorder`]
/// with explicit child counts, read straight from the arena. Returns the
/// names the tree uses (element and attribute names) in first-use order —
/// what the snapshot's Names section records, and exactly the interner a
/// decode rebuilds (the source interner can still hold names of deleted
/// nodes).
pub(crate) fn encode_tree(doc: &Document, out: &mut Vec<u8>) -> Result<Vec<NameId>, CodecError> {
    let mut used = vec![false; doc.names().len()];
    let mut names = Vec::new();
    let mut note = |name: NameId| {
        if !std::mem::replace(&mut used[name.index()], true) {
            names.push(name);
        }
    };
    put_u32(out, doc.children(doc.root()).count() as u32);
    for node in doc.descendants(doc.root()).skip(1) {
        match doc.kind(node) {
            NodeKind::Element { name, attributes } => {
                put_u8(out, 0);
                put_str(out, doc.name_text(*name));
                note(*name);
                let Ok(count) = u16::try_from(attributes.len()) else {
                    return err(format!(
                        "element <{}> has {} attributes; at most {MAX_ATTRIBUTES} can be \
                         encoded",
                        doc.name_text(*name),
                        attributes.len()
                    ));
                };
                put_u16(out, count);
                for a in attributes {
                    put_str(out, doc.name_text(a.name));
                    put_str(out, &a.value);
                    note(a.name);
                }
            }
            NodeKind::Text(t) => {
                put_u8(out, 1);
                put_str(out, t);
            }
            NodeKind::Comment(c) => {
                put_u8(out, 2);
                put_str(out, c);
            }
            NodeKind::ProcessingInstruction { target, data } => {
                put_u8(out, 3);
                put_str(out, target);
                put_str(out, data);
            }
            NodeKind::Document => return err("a second document node in the tree"),
        }
        put_u32(out, doc.children(node).count() as u32);
    }
    Ok(names)
}

/// A node whose children [`decode_tree`] is still reading.
struct Open {
    node: NodeId,
    /// Children still to read.
    remaining: u32,
    /// Name of its last element child: siblings mostly repeat a name, so
    /// a comparison against it stands in for most interner lookups.
    last_name: Option<NameId>,
}

/// Rebuilds a document from [`encode_tree`] output, creating each node in
/// preorder straight into an arena sized for `nodes_hint` nodes (so
/// preorder index *i* is `NodeId::from_index(i + 1)`), with names interned
/// in first-use order and no per-node copies. An element that repeats an
/// attribute name — which no document can hold — is rejected.
pub(crate) fn decode_tree(bytes: &[u8], nodes_hint: usize) -> Result<Document, CodecError> {
    let mut r = Reader::new(bytes);
    let mut doc = Document::new();
    doc.reserve(nodes_hint);
    let mut owners = AttributeOwners::default();
    let remaining = r.u32("root child count")?;
    let mut stack = vec![Open { node: doc.root(), remaining, last_name: None }];
    loop {
        while stack.last().is_some_and(|open| open.remaining == 0) {
            stack.pop();
        }
        let Some(open) = stack.last_mut() else { break };
        open.remaining -= 1;
        let node = match r.u8("node kind")? {
            0 => {
                let text = r.str_ref("element name")?;
                let name = match open.last_name {
                    Some(last) if doc.name_text(last) == text => last,
                    _ => doc.intern(text),
                };
                open.last_name = Some(name);
                let element = doc.create_element_id(name);
                for _ in 0..r.u16("attribute count")? {
                    let key = r.str_ref("attribute name")?;
                    let value = r.str_ref("attribute value")?;
                    let key_id = doc.intern(key);
                    if !owners.claim(element, key_id) {
                        return err(format!("element repeats attribute {key:?}"));
                    }
                    doc.push_attribute(element, key_id, value);
                }
                element
            }
            1 => doc.create_text(r.str_ref("text content")?),
            2 => doc.create_comment(r.str_ref("comment content")?),
            3 => {
                let target = r.str_ref("pi target")?;
                doc.create_pi(target, r.str_ref("pi data")?)
            }
            other => return err(format!("unknown node kind tag {other}")),
        };
        doc.append_child(open.node, node);
        let remaining = r.u32("child count")?;
        if remaining > 0 {
            stack.push(Open { node, remaining, last_name: None });
        }
    }
    r.expect_end("tree section")?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(doc: &Document) -> (Vec<u8>, Vec<NameId>, Document) {
        let mut bytes = Vec::new();
        let names = encode_tree(doc, &mut bytes).unwrap();
        let rebuilt = decode_tree(&bytes, 0).unwrap();
        (bytes, names, rebuilt)
    }

    #[test]
    fn tree_round_trip_preserves_structure_and_order() {
        let doc = Document::parse(
            "<?pi data?><!--top--><a x=\"1\" y=\"2\">t1<b><c/>mid<!--in--></b>t2<d/></a>",
        )
        .unwrap();
        let (_, names, rebuilt) = round_trip(&doc);
        assert!(doc.subtree_eq(doc.root(), &rebuilt, rebuilt.root()));
        let order = preorder(&doc);
        assert_eq!(rebuilt.arena_len(), order.len() + 1);
        // Preorder alignment: preorder node i is arena node i + 1.
        for (i, src) in order.iter().enumerate() {
            assert_eq!(
                NodeContent::from_node(&doc, *src),
                NodeContent::from_node(&rebuilt, NodeId::from_index(i + 1))
            );
        }
        // The rebuilt interner is exactly the first-use names the encoder
        // reported.
        let used: Vec<&str> = names.iter().map(|&n| doc.name_text(n)).collect();
        let rebuilt_names: Vec<&str> = rebuilt.names().iter().map(|(_, n)| n).collect();
        assert_eq!(rebuilt_names, used);
    }

    #[test]
    fn names_of_deleted_nodes_are_not_recorded() {
        let mut doc = Document::parse("<a><gone k=\"v\"/><kept/></a>").unwrap();
        let gone = doc.first_child(doc.root_element().unwrap()).unwrap();
        doc.detach(gone);
        let (_, names, rebuilt) = round_trip(&doc);
        let used: Vec<&str> = names.iter().map(|&n| doc.name_text(n)).collect();
        assert_eq!(used, ["a", "kept"]);
        assert_eq!(rebuilt.names().len(), 2);
    }

    #[test]
    fn the_attribute_count_is_bounded_on_both_sides() {
        let wide = |count: usize| {
            let mut doc = Document::new();
            let e = doc.create_element("e");
            doc.append_child(doc.root(), e);
            for i in 0..count {
                let name = doc.intern(&format!("a{i}"));
                doc.push_attribute(e, name, "");
            }
            doc
        };
        let at_limit = wide(MAX_ATTRIBUTES);
        assert!(check_attribute_limit(&at_limit).is_ok());
        let (_, _, rebuilt) = round_trip(&at_limit);
        assert!(at_limit.subtree_eq(at_limit.root(), &rebuilt, rebuilt.root()));

        let over = wide(MAX_ATTRIBUTES + 1);
        let refusal = check_attribute_limit(&over).unwrap_err();
        assert!(refusal.contains("65535"), "{refusal}");
        let encode = encode_tree(&over, &mut Vec::new()).unwrap_err();
        assert!(encode.0.contains("65535"), "{encode}");
    }

    #[test]
    fn a_repeated_attribute_is_rejected() {
        let doc = Document::parse("<a k=\"1\" j=\"2\"/>").unwrap();
        let mut bytes = Vec::new();
        encode_tree(&doc, &mut bytes).unwrap();
        // Rename "j" to "k" in place: same length, so only the decoder's
        // duplicate check can tell.
        let at = bytes.windows(1).rposition(|w| w == b"j").unwrap();
        bytes[at] = b'k';
        let refusal = decode_tree(&bytes, 0).unwrap_err();
        assert!(refusal.0.contains("repeats attribute"), "{refusal}");
    }

    #[test]
    fn decode_rejects_corrupt_trees() {
        let doc = Document::parse("<a><b/>text</a>").unwrap();
        let mut bytes = Vec::new();
        encode_tree(&doc, &mut bytes).unwrap();
        // Truncations at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_tree(&bytes[..cut], 0).is_err(), "cut at {cut} decoded");
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_tree(&padded, 0).is_err());
        // An absurd length prefix errors instead of allocating.
        let mut huge = bytes;
        let len = huge.len();
        huge[len - 5..len - 1].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_tree(&huge, 0).is_err());
    }

    #[test]
    fn node_content_round_trip() {
        for content in [
            NodeContent::Element {
                name: "item".into(),
                attributes: vec![("id".into(), "i5".into()), ("lang".into(), "en".into())],
            },
            NodeContent::Text("hello".into()),
            NodeContent::Comment("注釈".into()),
            NodeContent::Pi { target: "xml-stylesheet".into(), data: "href='x'".into() },
        ] {
            let mut bytes = Vec::new();
            content.encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            assert_eq!(NodeContent::decode(&mut r).unwrap(), content);
            assert!(r.is_empty());
        }
    }
}
