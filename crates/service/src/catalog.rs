//! The sharded document catalog.
//!
//! Documents are spread over `N` shards by `id % N`; each shard guards its
//! own `HashMap` with an `RwLock`. The values are `Arc<LoadedDoc>`, so a
//! read (the hot path) holds the shared lock only long enough to clone the
//! `Arc` — query evaluation itself runs entirely outside any lock, which
//! is sound because answering structural queries from rUID labels never
//! mutates the scheme (Lemma 1: `rparent` is pure arithmetic over the
//! label and table *K*).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use durable::{Applied, DocState, WalOp};
use par::Executor;
use plan::PathSummary;
use ruid_core::{PartitionConfig, Ruid2, Ruid2Scheme};
use schemes::ancestry::AncestryScheme;
use schemes::interval::{document_from_stream, IntervalScheme};
use schemes::NumberingScheme;
use xmldom::{DocOrder, Document, NodeId};
use xpath::NameIndex;

use crate::lock;

/// Identifies one loaded document within a [`Catalog`].
pub type DocId = u64;

/// Everything the service needs to answer queries about one document:
/// the parsed tree, its rUID numbering, the pre-order span table with the
/// two numberings that encode it, the element-name index and the path
/// summary.
pub struct LoadedDoc {
    /// Where the document came from (a path, or `"<inline>"`).
    pub path: String,
    /// The parsed tree.
    pub doc: Document,
    /// The rUID numbering (labels, table K, axis routines).
    pub scheme: Ruid2Scheme,
    /// The nested-set numbering backing the `interval` query engine: an
    /// encoder over the table `order` holds, not a copy of it.
    pub interval: IntervalScheme,
    /// The compact-ancestry numbering backing the `ancestry` engine, over
    /// the same table.
    pub ancestry: AncestryScheme,
    /// Element-name index backing the `indexed` query engine.
    pub index: NameIndex,
    /// The document's pre-order span table, held once per generation:
    /// query engines sort result unions by its integer ranks instead of
    /// per-comparison label arithmetic, structural joins read its subtree
    /// extents, and `interval` / `ancestry` share it.
    pub order: DocOrder,
    /// Path summary (DataGuide) and its value postings, backing the
    /// `planned` query engine and `EXPLAIN` — like the name index and
    /// order ranks, a pure derivation of the tree, built at load time and
    /// after crash recovery and patched by every commit.
    pub summary: PathSummary,
    /// `Some` when the document was loaded `with_store`, i.e. `SCAN` is
    /// allowed. Nothing is stored: `SCAN` rows are a derivation of `doc`
    /// and `scheme` ([`LoadedDoc::scan_area`]), so no write path builds
    /// them. Kept as a flag-shaped `Option` because WAL `Load` records,
    /// snapshots and the benchmark harness carry `with_store` through it.
    pub store: Option<()>,
    /// Result-cache generation: the WAL sequence number of the operation
    /// that established this document state (or the doc id when running
    /// without durability). Any logged update produces a new generation,
    /// which invalidates cached planned-query responses.
    pub generation: u64,
}

impl LoadedDoc {
    /// Parses `text` and builds the full bundle with a by-depth `depth`
    /// partition (and an in-memory store unless `with_store` is false).
    pub fn build(
        path: &str,
        text: &str,
        depth: usize,
        with_store: bool,
    ) -> Result<LoadedDoc, String> {
        LoadedDoc::build_with(path, text, depth, with_store, &Executor::new(1))
    }

    /// [`LoadedDoc::build`] with an explicit thread budget: the rUID
    /// area labeling and the name index fan out over `exec` (the results
    /// are identical to the sequential build for any thread count).
    pub fn build_with(
        path: &str,
        text: &str,
        depth: usize,
        with_store: bool,
        exec: &Executor,
    ) -> Result<LoadedDoc, String> {
        let doc = parse_xml(path, text)?;
        LoadedDoc::build_from_doc(path, doc, &PartitionConfig::by_depth(depth), with_store, exec)
    }

    /// Builds the bundle a `Load` or `LoadStream` record describes: the
    /// tree from its XML text or its interval-encoded event stream (no
    /// XML is ever materialized), numbered with the record's partition
    /// config.
    pub(crate) fn build_op(op: &WalOp, exec: &Executor) -> Result<LoadedDoc, String> {
        let (path, doc, config, with_store) = match op {
            WalOp::Load { path, config, with_store, xml, .. } => {
                (path, parse_xml(path, xml)?, config, *with_store)
            }
            WalOp::LoadStream { path, config, with_store, events, .. } => {
                let doc =
                    document_from_stream(events).map_err(|e| format!("stream {path}: {e}"))?;
                (path, doc, config, *with_store)
            }
            _ => return Err("only a load builds a document".into()),
        };
        LoadedDoc::build_from_doc(path, doc, config, with_store, exec)
    }

    /// Numbers an already-constructed tree and derives the rest — the
    /// shared tail of [`LoadedDoc::build_with`] and [`LoadedDoc::build_op`].
    /// A tree no snapshot could encode (an element over the attribute
    /// limit) is refused here, before its load reaches the WAL.
    fn build_from_doc(
        path: &str,
        doc: Document,
        config: &PartitionConfig,
        with_store: bool,
        exec: &Executor,
    ) -> Result<LoadedDoc, String> {
        if doc.root_element().is_none() {
            return Err(format!("{path}: document has no root element"));
        }
        durable::check_attribute_limit(&doc).map_err(|e| format!("{path}: {e}"))?;
        let scheme =
            Ruid2Scheme::try_build_with(&doc, config, exec).map_err(|e| e.to_string())?;
        Ok(LoadedDoc::derive(path.to_owned(), doc, scheme, with_store, exec))
    }

    /// Everything that is a pure derivation of the tree, around a tree and
    /// numbering that already exist: one span table, the two numberings
    /// over it, the name index and the path summary.
    fn derive(
        path: String,
        doc: Document,
        scheme: Ruid2Scheme,
        with_store: bool,
        exec: &Executor,
    ) -> LoadedDoc {
        let order = DocOrder::build(&doc);
        let (interval, ancestry) = span_schemes(&doc, &order);
        let index = NameIndex::build_with(&doc, exec);
        let summary = PathSummary::build(&doc);
        let store = with_store.then_some(());
        LoadedDoc { path, doc, scheme, interval, ancestry, index, order, summary, store, generation: 0 }
    }

    /// Rebuilds the serving bundle around a document and numbering that
    /// recovery already reconstructed (snapshot + WAL replay). The span
    /// table, name index and path summary are pure derivations of the
    /// tree, so recomputing them here keeps the durable format down to
    /// what cannot be re-derived.
    pub fn from_recovered(
        path: String,
        doc: Document,
        scheme: Ruid2Scheme,
        with_store: bool,
    ) -> LoadedDoc {
        LoadedDoc::derive(path, doc, scheme, with_store, &Executor::new(1))
    }

    /// Copy-on-write structural update: clones the tree and numbering,
    /// applies `op` through the *same* [`DocState`] apply path WAL replay
    /// runs (so a replayed catalog is byte-identical to the live one),
    /// splices the span table, patches the name index and path summary —
    /// a path that appears is grafted, one that empties is pruned, and
    /// only the lists and paths written are copied — and returns a
    /// brand-new bundle stamped `generation`. Nothing is rebuilt.
    ///
    /// `self` is never touched: readers holding the old `Arc` keep
    /// answering from their pinned snapshot while the caller swaps the
    /// new bundle into the catalog.
    pub fn apply_update(
        &self,
        op: &WalOp,
        generation: u64,
    ) -> Result<(LoadedDoc, Applied), String> {
        if let WalOp::Delete { label, .. } = op {
            // Deleting the root element would leave nothing to serve;
            // reject it before anything reaches the WAL.
            if self.scheme.node_of(label) == self.doc.root_element() {
                return Err(format!("{label} labels the root element; cannot delete"));
            }
        }
        let mut state = DocState {
            id: 0, // apply_detailed never reads the catalog id
            path: self.path.clone(),
            config: *self.scheme.config(),
            with_store: self.store.is_some(),
            doc: self.doc.clone(),
            scheme: self.scheme.clone(),
        };
        let applied = state.apply_detailed(op)?;
        let DocState { doc, scheme, .. } = state;
        // The span table is spliced, not rebuilt: one copy of its columns
        // with the edit applied. The name index and summary clone by
        // sharing their per-name and per-path lists, then patch in
        // O(affected) — NodeIds are arena-stable across the clone, so the
        // shared lists stay valid for untouched nodes.
        let mut order = self.order.clone();
        let mut index = self.index.clone();
        let mut summary = self.summary.clone();
        match &applied {
            Applied::Inserted { node, .. } => {
                order.insert_subtree(&doc, *node);
                index.patch_insert(&doc, &order, *node);
                summary.patch_insert(&doc, &order, *node);
            }
            Applied::Deleted { elements, parent, root, .. } => {
                order.remove_subtree(*root);
                index.patch_delete(elements);
                let removed: Vec<NodeId> = elements.iter().map(|&(_, n)| n).collect();
                summary.patch_delete(&removed);
                // Losing a child changes the parent's string-value; the
                // summary must not be probed before it is re-filed.
                summary.refresh_text(&doc, &order, *parent);
            }
            // Repartitioning renumbers rUID labels but leaves the tree —
            // and every tree-derived index — untouched: the next
            // generation shares this one's span table.
            Applied::Repartitioned { .. } => {}
        }
        // The interval and ancestry numberings are encoders over the
        // table, so handing them the spliced one is their whole update.
        let (interval, ancestry) = span_schemes(&doc, &order);
        Ok((
            LoadedDoc {
                path: self.path.clone(),
                doc,
                scheme,
                interval,
                ancestry,
                index,
                order,
                summary,
                store: self.store,
                generation,
            },
            applied,
        ))
    }

    /// The rows `SCAN <global>` answers: the root of UID-local area
    /// `global` and the area's interior nodes, in storage-key order — what
    /// an identifier-sorted node table would return from one range scan,
    /// read off the tree and the labels instead. An unknown area is empty.
    pub fn scan_area(&self, global: u64) -> Vec<(Ruid2, NodeId)> {
        let mut rows = Vec::new();
        let mut stack: Vec<NodeId> = self.scheme.area_root_node(global).into_iter().collect();
        while let Some(node) = stack.pop() {
            rows.push((self.scheme.label_of(node), node));
            // A child that roots an area of its own is keyed under that
            // area, and so is everything below it.
            stack.extend(self.doc.children(node).filter(|&c| !self.scheme.is_area_root(c)));
        }
        rows.sort_unstable_by_key(|&(label, _)| label);
        rows
    }

    /// Reads and builds from a file on disk.
    pub fn from_file(path: &str, depth: usize, with_store: bool) -> Result<LoadedDoc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        LoadedDoc::build(path, &text, depth, with_store)
    }
}

fn parse_xml(path: &str, text: &str) -> Result<Document, String> {
    Document::parse(text).map_err(|e| format!("parse error in {path}: {e}"))
}

/// The interval and ancestry numberings of `doc`'s root element, over the
/// whole-document table `order`.
fn span_schemes(doc: &Document, order: &DocOrder) -> (IntervalScheme, AncestryScheme) {
    let root = doc.root_element().unwrap_or_else(|| doc.root());
    (IntervalScheme::over(order, root), AncestryScheme::over(order, root))
}

/// A sharded `DocId -> Arc<LoadedDoc>` map with MVCC generations.
///
/// Readers clone an `Arc<LoadedDoc>` and evaluate entirely outside any
/// lock — that Arc *is* their snapshot. Writers build a new bundle
/// copy-on-write and swap it in under the shard's write lock, so a commit
/// never blocks in-flight readers; the `generation` stamped on each bundle
/// orders commits process-wide and keys the result cache.
pub struct Catalog {
    shards: Vec<RwLock<HashMap<DocId, Arc<LoadedDoc>>>>,
    next_id: AtomicU64,
    /// Process-wide monotonic generation counter: every committed state
    /// (load, insert, delete, relabel — durable or not) draws a unique,
    /// increasing value, so a cached response can never alias across
    /// commits or WAL segment rotations.
    generation: AtomicU64,
    /// Serializes every commit (`server::commit`, the one write path):
    /// copy-on-write staging from a stale base would silently drop the
    /// other writer's commit. Lock order: this lock first, then the
    /// durability mutex inside `log_with`, then the shard write lock.
    write_lock: Mutex<()>,
}

impl Catalog {
    /// Creates a catalog with `shards` independent locks (min 1).
    pub fn new(shards: usize) -> Catalog {
        let shards = shards.max(1);
        Catalog {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            generation: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        }
    }

    /// Draws the next process-wide generation (first call returns 1).
    pub fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The highest generation handed out so far — the `ruid_generation`
    /// gauge.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Enters the structural-writer critical section. Readers never take
    /// this; concurrent writers to *any* document serialize here so each
    /// copy-on-write starts from the latest committed state.
    pub fn begin_write(&self) -> MutexGuard<'_, ()> {
        lock(&self.write_lock)
    }

    fn shard(&self, id: DocId) -> &RwLock<HashMap<DocId, Arc<LoadedDoc>>> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a document under a fresh id. Takes one shard's write lock.
    pub fn insert(&self, doc: LoadedDoc) -> DocId {
        let id = self.reserve_id();
        self.insert_with_id(id, doc);
        id
    }

    /// Hands out a fresh id without inserting anything — the durable load
    /// path reserves the id first so the WAL record and the catalog entry
    /// agree on it even when the insert happens later.
    pub fn reserve_id(&self) -> DocId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a document under a caller-chosen id (recovery replays
    /// historical ids). Keeps the id counter ahead of every id ever seen,
    /// so post-recovery loads never collide.
    pub fn insert_with_id(&self, id: DocId, doc: LoadedDoc) {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        self.shard(id).write().unwrap().insert(id, Arc::new(doc));
    }

    /// Raises the id counter to at least `next` — recovery calls this so
    /// ids of unloaded (or quarantined) documents are never reused.
    pub fn ensure_next_id(&self, next: DocId) {
        self.next_id.fetch_max(next, Ordering::Relaxed);
    }

    /// `(id, Arc)` of every loaded document, ascending by id — the
    /// snapshot writer borrows the trees through these Arcs.
    pub fn snapshot_docs(&self) -> Vec<(DocId, Arc<LoadedDoc>)> {
        let mut all: Vec<(DocId, Arc<LoadedDoc>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap()
                    .iter()
                    .map(|(&id, d)| (id, Arc::clone(d)))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }

    /// Fetches a document for reading. Takes one shard's read lock only
    /// long enough to clone the `Arc`.
    pub fn get(&self, id: DocId) -> Option<Arc<LoadedDoc>> {
        self.shard(id).read().unwrap().get(&id).cloned()
    }

    /// Swaps in a new generation of an already-loaded document. Takes one
    /// shard's write lock only for the pointer swap; readers holding the
    /// previous `Arc` are untouched, and the displaced generation is
    /// dropped after the lock is released (freeing a bundle is tens of
    /// megabytes of small frees). Returns `false` (and installs nothing)
    /// when the document was unloaded in the meantime.
    pub fn replace(&self, id: DocId, doc: LoadedDoc) -> bool {
        let next = Arc::new(doc);
        let displaced = match self.shard(id).write().unwrap().get_mut(&id) {
            Some(slot) => std::mem::replace(slot, next),
            None => return false,
        };
        drop(displaced);
        true
    }

    /// Unlinks a document and hands its bundle to the caller, so the
    /// shard's write lock is released before the bundle can be freed.
    fn take(&self, id: DocId) -> Option<Arc<LoadedDoc>> {
        self.shard(id).write().unwrap().remove(&id)
    }

    /// Drops a document. Takes one shard's write lock for the map removal
    /// only.
    pub fn remove(&self, id: DocId) -> bool {
        self.take(id).is_some()
    }

    /// All loaded ids, ascending.
    pub fn ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().unwrap().keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// `(id, path)` of every loaded document, ascending by id.
    pub fn entries(&self) -> Vec<(DocId, String)> {
        let mut all: Vec<(DocId, String)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap()
                    .iter()
                    .map(|(&id, d)| (id, d.path.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }

    /// Number of loaded documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// True when nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(path: &str) -> LoadedDoc {
        LoadedDoc::build(path, "<a><b/><c><d/></c></a>", 2, true).unwrap()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let catalog = Catalog::new(4);
        let id = catalog.insert(tiny("one.xml"));
        assert_eq!(catalog.get(id).unwrap().path, "one.xml");
        assert_eq!(catalog.len(), 1);
        assert!(catalog.remove(id));
        assert!(!catalog.remove(id));
        assert!(catalog.get(id).is_none());
        assert!(catalog.is_empty());
    }

    #[test]
    fn ids_are_fresh_and_sorted() {
        let catalog = Catalog::new(3);
        let a = catalog.insert(tiny("a.xml"));
        let b = catalog.insert(tiny("b.xml"));
        let c = catalog.insert(tiny("c.xml"));
        assert!(a < b && b < c, "ids must be fresh and increasing");
        assert_eq!(catalog.ids(), vec![a, b, c]);
        assert_eq!(
            catalog.entries().into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
            vec!["a.xml", "b.xml", "c.xml"]
        );
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(LoadedDoc::build("x", "<a><b></a>", 2, false).is_err());
        assert!(LoadedDoc::from_file("/nonexistent/x.xml", 2, false).is_err());
    }

    #[test]
    fn cow_update_leaves_the_old_snapshot_untouched() {
        let catalog = Catalog::new(2);
        let id = catalog.insert(tiny("one.xml"));
        let before = catalog.get(id).unwrap();
        let nodes_before = before.doc.node_count();

        let root_label = before.scheme.label_of(before.doc.root_element().unwrap());
        let op = WalOp::Insert {
            doc_id: id,
            parent: root_label,
            position: 0,
            content: durable::NodeContent::Element { name: "b".into(), attributes: vec![] },
        };
        let generation = catalog.next_generation();
        let (next, applied) = before.apply_update(&op, generation).unwrap();
        let Applied::Inserted { node, .. } = applied else { panic!("{applied:?}") };
        assert!(next.doc.element_name(node).is_some());
        assert_eq!(next.generation, generation);
        assert!(catalog.replace(id, next));

        // The reader's pinned Arc still sees the pre-update tree; a fresh
        // get sees the new generation with one more node.
        assert_eq!(before.doc.node_count(), nodes_before);
        let after = catalog.get(id).unwrap();
        assert_eq!(after.doc.node_count(), nodes_before + 1);
        assert_eq!(after.generation, generation);
        // Patched derivations match the ones recovery derives afresh.
        let (doc, scheme) = (after.doc.clone(), after.scheme.clone());
        let derived = LoadedDoc::from_recovered(after.path.clone(), doc, scheme, true);
        assert_eq!(after.summary.canonical(&after.doc), derived.summary.canonical(&derived.doc));
        assert_eq!(
            after.index.nodes_named(&after.doc, "b"),
            derived.index.nodes_named(&derived.doc, "b"),
        );
        // Replace after unload installs nothing.
        assert!(catalog.remove(id));
        let orphan = tiny("gone.xml");
        assert!(!catalog.replace(id, orphan));
        assert!(catalog.get(id).is_none());
    }

    #[test]
    fn an_unlinked_bundle_is_freed_outside_the_shard_lock() {
        // One shard: every id contends for the same lock.
        let catalog = Catalog::new(1);
        let big = catalog.insert(tiny("big.xml"));
        let other = catalog.insert(tiny("other.xml"));
        let unlinked = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                unlinked.wait();
                // The bundle is out of the map but not freed yet, and a
                // reader of the same shard gets through.
                assert!(catalog.get(big).is_none());
                assert_eq!(catalog.get(other).unwrap().path, "other.xml");
                unlinked.wait();
            });
            let bundle = catalog.take(big).expect("loaded");
            assert_eq!(Arc::strong_count(&bundle), 1, "the last reference left the lock's scope");
            unlinked.wait();
            unlinked.wait();
            drop(bundle);
        });
        assert!(!catalog.remove(big));
        assert!(catalog.remove(other));
    }

    #[test]
    fn deleting_the_root_element_is_rejected() {
        let loaded = tiny("t.xml");
        let root_label = loaded.scheme.label_of(loaded.doc.root_element().unwrap());
        let op = WalOp::Delete { doc_id: 1, label: root_label };
        let err = match loaded.apply_update(&op, 1) {
            Err(e) => e,
            Ok(_) => panic!("root delete must be rejected"),
        };
        assert!(err.contains("root element"), "{err}");
    }

    #[test]
    fn generations_are_unique_and_increasing() {
        let catalog = Catalog::new(1);
        let a = catalog.next_generation();
        let b = catalog.next_generation();
        assert!(0 < a && a < b);
        assert_eq!(catalog.generation(), b);
    }

    #[test]
    fn bundle_is_consistent() {
        let loaded = tiny("t.xml");
        let root = loaded.doc.root_element().unwrap();
        // Scheme labels resolve back to nodes.
        let label = loaded.scheme.label_of(root);
        assert_eq!(loaded.scheme.node_of(&label), Some(root));
        // The areas' SCAN rows cover every node exactly once.
        assert!(loaded.store.is_some());
        let mut all: Vec<NodeId> = loaded.doc.descendants(root).collect();
        let globals: std::collections::BTreeSet<u64> =
            all.iter().map(|&n| loaded.scheme.label_of(n).global).collect();
        let mut scanned: Vec<NodeId> = globals
            .iter()
            .flat_map(|&global| loaded.scan_area(global))
            .map(|(_, node)| node)
            .collect();
        scanned.sort_unstable();
        all.sort_unstable();
        assert_eq!(scanned, all);
        // Name index sees the elements.
        assert_eq!(loaded.index.nodes_named(&loaded.doc, "d").len(), 1);
    }
}
