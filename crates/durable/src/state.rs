//! The recoverable unit: one catalog document plus its numbering, and the
//! single `apply` path shared by live mutation logging and WAL replay.
//!
//! Sharing `apply` is what makes the crash-point sweep meaningful: the
//! state a replayed op produces is byte-for-byte the state the live op
//! produced, because it is literally the same code.

use ruid_core::{PartitionConfig, Ruid2Scheme};
use schemes::{NumberingScheme, RelabelStats};
use xmldom::{Document, NameId, NodeId};

use crate::codec::NodeContent;
use crate::wal::WalOp;

/// What one structural op did — the detail the serving layer needs to
/// patch derived indexes (name index, path summary) incrementally instead
/// of rebuilding them, and to report relabel costs on the wire.
#[derive(Debug)]
pub enum Applied {
    /// A node was inserted.
    Inserted {
        /// The new node's id in this tree.
        node: NodeId,
        /// Relabel cost of the incremental renumbering.
        stats: RelabelStats,
    },
    /// A subtree was detached.
    Deleted {
        /// The removed *element* nodes as `(name, node)` pairs captured
        /// before the detach (what the name index and path summary
        /// tracked).
        elements: Vec<(NameId, NodeId)>,
        /// Every removed node (elements, text, comments, PIs).
        nodes: usize,
        /// The parent the subtree hung under (still attached).
        parent: NodeId,
        /// The detached subtree's root.
        root: NodeId,
        /// Relabel cost of the incremental renumbering.
        stats: RelabelStats,
    },
    /// The whole document was repartitioned/renumbered; the tree itself
    /// is untouched.
    Repartitioned {
        /// Relabel cost of the full renumbering.
        stats: RelabelStats,
    },
}

impl Applied {
    /// The relabel cost of the op, whichever kind it was.
    pub fn stats(&self) -> &RelabelStats {
        match self {
            Applied::Inserted { stats, .. }
            | Applied::Deleted { stats, .. }
            | Applied::Repartitioned { stats } => stats,
        }
    }
}

/// One document's durable state: everything a snapshot stores and a
/// served catalog entry can be rebuilt from.
#[derive(Debug)]
pub struct DocState {
    /// Catalog id.
    pub id: u64,
    /// Origin path (reporting only).
    pub path: String,
    /// Partition policy of the numbering.
    pub config: PartitionConfig,
    /// Whether the serving layer keeps a node store for this document.
    pub with_store: bool,
    /// The document tree.
    pub doc: Document,
    /// The rUID numbering over it.
    pub scheme: Ruid2Scheme,
}

impl DocState {
    /// Parses `xml` and numbers it — the state a [`WalOp::Load`] creates.
    pub fn build(
        id: u64,
        path: String,
        xml: &str,
        config: PartitionConfig,
        with_store: bool,
    ) -> Result<DocState, String> {
        let doc = Document::parse(xml).map_err(|e| format!("parse {path}: {e}"))?;
        let scheme =
            Ruid2Scheme::try_build(&doc, &config).map_err(|e| format!("number {path}: {e}"))?;
        Ok(DocState { id, path, config, with_store, doc, scheme })
    }

    /// Builds the tree from an interval-encoded flat event stream and
    /// numbers it — the state a [`WalOp::LoadStream`] creates. No XML
    /// text is ever materialized.
    pub fn build_stream(
        id: u64,
        path: String,
        events: &str,
        config: PartitionConfig,
        with_store: bool,
    ) -> Result<DocState, String> {
        let doc = schemes::interval::document_from_stream(events)
            .map_err(|e| format!("stream {path}: {e}"))?;
        let scheme =
            Ruid2Scheme::try_build(&doc, &config).map_err(|e| format!("number {path}: {e}"))?;
        Ok(DocState { id, path, config, with_store, doc, scheme })
    }

    /// Applies one structural op ([`WalOp::Insert`] / [`WalOp::Delete`] /
    /// [`WalOp::Repartition`]) to this document. `Load`/`Unload` are
    /// catalog-level and rejected here.
    pub fn apply(&mut self, op: &WalOp) -> Result<(), String> {
        self.apply_detailed(op).map(|_| ())
    }

    /// [`DocState::apply`] reporting what happened. The serving layer's
    /// copy-on-write commit path calls this so that live updates and WAL
    /// replay stay literally the same code, while the details let it
    /// patch its derived indexes incrementally.
    pub fn apply_detailed(&mut self, op: &WalOp) -> Result<Applied, String> {
        match op {
            WalOp::Insert { parent, position, content, .. } => {
                self.insert(parent, *position, content)
            }
            WalOp::Delete { label, .. } => self.delete(label),
            WalOp::Repartition { .. } => self
                .scheme
                .repartition(&self.doc)
                .map(|stats| Applied::Repartitioned { stats })
                .map_err(|e| format!("repartition: {e}")),
            WalOp::Load { .. } | WalOp::LoadStream { .. } | WalOp::Unload { .. } => {
                Err("load/unload are catalog ops, not document ops".into())
            }
        }
    }

    /// Inserts `content` as the `position`-th child of the node labelled
    /// `parent` and renumbers incrementally. Only an element can take a
    /// child: a label that resolves to a text, comment or PI node is
    /// refused before the arena is touched — the serializer would never
    /// write such a child, so the tree and a reload of it would disagree.
    /// Live commits, WAL replay and follower apply all come through here,
    /// so a record an older binary journaled fails identically everywhere.
    pub fn insert(
        &mut self,
        parent: &ruid_core::Ruid2,
        position: u32,
        content: &NodeContent,
    ) -> Result<Applied, String> {
        let parent_node =
            self.scheme.node_of(parent).ok_or_else(|| format!("no node labelled {parent}"))?;
        if !self.doc.is_element(parent_node) {
            return Err(format!("{parent} labels a non-element node; cannot insert under it"));
        }
        let new_node = content.create_in(&mut self.doc);
        match self.doc.children(parent_node).nth(position as usize) {
            Some(anchor) => self.doc.insert_before(anchor, new_node),
            None => self.doc.append_child(parent_node, new_node),
        }
        let stats = self.scheme.on_insert(&self.doc, new_node);
        Ok(Applied::Inserted { node: new_node, stats })
    }

    /// Detaches the subtree labelled `label` and renumbers incrementally.
    pub fn delete(&mut self, label: &ruid_core::Ruid2) -> Result<Applied, String> {
        let node =
            self.scheme.node_of(label).ok_or_else(|| format!("no node labelled {label}"))?;
        let parent = self
            .doc
            .parent(node)
            .ok_or_else(|| format!("{label} labels the document root; cannot delete"))?;
        let mut nodes = 0usize;
        let elements: Vec<(NameId, NodeId)> = self
            .doc
            .descendants(node)
            .inspect(|_| nodes += 1)
            .filter_map(|n| self.doc.element_name(n).map(|name| (name, n)))
            .collect();
        self.doc.detach(node);
        let stats = self.scheme.on_delete(&self.doc, parent, node);
        Ok(Applied::Deleted { elements, nodes, parent, root: node, stats })
    }
}
