//! The element table: one numbered document in a heap file plus a B+-tree
//! index on the rUID storage key.

use ruid_core::{Ruid2, Ruid2Scheme};
use schemes::NumberingScheme;
use xmldom::Document;

use crate::bptree::BPlusTree;
use crate::heap::{HeapFile, RecordId};
use crate::pager::{MemPager, Pager};
use crate::record::StoredNode;

/// A single identifier-sorted node table.
pub struct XmlStore<P: Pager> {
    heap: HeapFile<P>,
    index: BPlusTree<P>,
}

impl XmlStore<MemPager> {
    /// An in-memory store.
    pub fn in_memory() -> Self {
        XmlStore { heap: HeapFile::new(MemPager::new()), index: BPlusTree::new(MemPager::new()) }
    }
}

impl XmlStore<crate::pager::FilePager> {
    /// A file-backed store: creates `heap.db` and `index.db` in `dir`
    /// (truncating any existing files).
    pub fn create_in_dir(dir: &std::path::Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let heap = crate::pager::FilePager::create(&dir.join("heap.db"))?;
        let index = crate::pager::FilePager::create(&dir.join("index.db"))?;
        Ok(XmlStore { heap: HeapFile::new(heap), index: BPlusTree::new(index) })
    }
}

impl<P: Pager> XmlStore<P> {
    /// A store over caller-provided pagers (e.g. file-backed).
    pub fn with_pagers(heap_pager: P, index_pager: P) -> Self {
        XmlStore { heap: HeapFile::new(heap_pager), index: BPlusTree::new(index_pager) }
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Total pages across heap and index.
    pub fn page_count(&self) -> u32 {
        self.heap.page_count() + self.index.page_count()
    }

    /// Forces both underlying pagers to stable storage (fsync for
    /// file-backed stores).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.heap.sync()?;
        self.index.sync()
    }

    /// Inserts one node row, surfacing encode overflows (oversized names
    /// or texts in untrusted documents) and heap I/O errors.
    pub fn try_insert_node(&mut self, node: &StoredNode) -> std::io::Result<()> {
        let rid = self.heap.try_append(&node.try_encode()?)?;
        self.index.insert(node.label.storage_key(), rid.to_u64());
        Ok(())
    }

    /// Inserts one node row.
    ///
    /// # Panics
    /// Panics on encode overflow or a heap I/O failure; use
    /// [`XmlStore::try_insert_node`] for untrusted content.
    pub fn insert_node(&mut self, node: &StoredNode) {
        self.try_insert_node(node).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Stores every labelled node of a numbered document; returns the
    /// count. Untrusted documents can exceed the record format's field
    /// lengths, which surfaces here as an error.
    pub fn try_load_document(
        &mut self,
        doc: &Document,
        scheme: &Ruid2Scheme,
    ) -> std::io::Result<usize> {
        let root = scheme.numbering_root();
        let mut count = 0usize;
        for node in doc.descendants(root) {
            let label = scheme.label_of(node);
            self.try_insert_node(&StoredNode::from_node(doc, node, label))?;
            count += 1;
        }
        Ok(count)
    }

    /// Stores every labelled node of a numbered document; returns the count.
    ///
    /// # Panics
    /// Panics on encode overflow or a heap I/O failure; use
    /// [`XmlStore::try_load_document`] for untrusted content.
    pub fn load_document(&mut self, doc: &Document, scheme: &Ruid2Scheme) -> usize {
        self.try_load_document(doc, scheme).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Point lookup by identifier, surfacing heap I/O errors and
    /// undecodable rows ([`std::io::ErrorKind::InvalidData`]) instead of
    /// panicking. `Ok(None)` means the label is not in the index.
    pub fn try_get(&self, label: &Ruid2) -> std::io::Result<Option<StoredNode>> {
        let Some(rid) = self.index.get(&label.storage_key()) else {
            return Ok(None);
        };
        let bytes = self.heap.try_get(RecordId::from_u64(rid))?;
        decode_row(&bytes).map(Some)
    }

    /// Point lookup by identifier.
    ///
    /// # Panics
    /// Panics if the indexed record fails to read or decode (the index
    /// points only at records this store appended).
    pub fn get(&self, label: &Ruid2) -> Option<StoredNode> {
        self.try_get(label).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All rows of one UID-local area — the area root plus its interior
    /// nodes — in (global, local) order, surfacing read/decode failures.
    /// One contiguous B+-tree range scan: this is what the paper's storage
    /// sort order buys.
    pub fn try_scan_area(&self, global: u64) -> std::io::Result<Vec<StoredNode>> {
        let start = area_start_key(global);
        let end = area_end_key(global);
        self.index
            .range(&start, &end)
            .into_iter()
            .map(|(_, rid)| {
                let bytes = self.heap.try_get(RecordId::from_u64(rid))?;
                decode_row(&bytes)
            })
            .collect()
    }

    /// All rows of one UID-local area in (global, local) order.
    ///
    /// # Panics
    /// Panics if an indexed record fails to read or decode.
    pub fn scan_area(&self, global: u64) -> Vec<StoredNode> {
        self.try_scan_area(global).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All rows in the subtree of the area rooted at `area_global`: its own
    /// area plus every frame-descendant area (the paper's area-based bulk
    /// `rdescendant`), surfacing read/decode failures. Returns the rows and
    /// the number of range scans run.
    pub fn try_scan_subtree(
        &self,
        scheme: &Ruid2Scheme,
        area_global: u64,
    ) -> std::io::Result<(Vec<StoredNode>, usize)> {
        let mut areas = vec![area_global];
        areas.extend(scheme.frame_descendant_areas(area_global));
        let mut out = Vec::new();
        let scans = areas.len();
        for g in areas {
            out.extend(self.try_scan_area(g)?);
        }
        Ok((out, scans))
    }

    /// All rows in the subtree of the area rooted at `area_global`.
    ///
    /// # Panics
    /// Panics if an indexed record fails to read or decode.
    pub fn scan_subtree(&self, scheme: &Ruid2Scheme, area_global: u64) -> (Vec<StoredNode>, usize) {
        self.try_scan_subtree(scheme, area_global).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Every stored row in storage order, surfacing read/decode failures.
    pub fn try_scan_all(&self) -> std::io::Result<Vec<StoredNode>> {
        self.index
            .scan_all()
            .into_iter()
            .map(|(_, rid)| {
                let bytes = self.heap.try_get(RecordId::from_u64(rid))?;
                decode_row(&bytes)
            })
            .collect()
    }

    /// Every stored row in storage order.
    ///
    /// # Panics
    /// Panics if an indexed record fails to read or decode.
    pub fn scan_all(&self) -> Vec<StoredNode> {
        self.try_scan_all().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Removes a row; returns whether it existed.
    pub fn remove(&mut self, label: &Ruid2) -> bool {
        // The heap record becomes garbage (append-only heap); the index
        // entry is authoritative.
        self.index.remove(&label.storage_key()).is_some()
    }
}

/// Decodes a heap row, reporting corruption as [`std::io::ErrorKind::InvalidData`].
fn decode_row(bytes: &[u8]) -> std::io::Result<StoredNode> {
    StoredNode::decode(bytes).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stored record of {} bytes failed to decode", bytes.len()),
        )
    })
}

/// Smallest storage key of area `global`: its root row `(g, local, true)`
/// sorts within the area range because keys order by (global, local, flag).
fn area_start_key(global: u64) -> [u8; 17] {
    let mut k = [0u8; 17];
    k[..8].copy_from_slice(&global.to_be_bytes());
    k
}

fn area_end_key(global: u64) -> [u8; 17] {
    let mut k = [0xFFu8; 17];
    k[..8].copy_from_slice(&global.to_be_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruid_core::PartitionConfig;

    #[test]
    fn file_backed_store_round_trips() {
        let dir = crate::Scratch::new("file_store");
        let doc = Document::parse("<a><b>text</b><c x=\"1\"/></a>").unwrap();
        let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
        let mut store = XmlStore::create_in_dir(&dir).unwrap();
        let n = store.load_document(&doc, &scheme);
        assert_eq!(n, 4);
        let root = doc.root_element().unwrap();
        for node in doc.descendants(root) {
            let row = store.get(&scheme.label_of(node)).unwrap();
            assert_eq!(row.label, scheme.label_of(node));
        }
        assert_eq!(store.scan_all().len(), 4);
    }

    fn setup() -> (Document, Ruid2Scheme, XmlStore<MemPager>) {
        let doc = Document::parse(
            "<a><b><p>one</p><q/></b><c><r><x/><y/></r></c><d>two</d></a>",
        )
        .unwrap();
        let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
        let mut store = XmlStore::in_memory();
        store.load_document(&doc, &scheme);
        (doc, scheme, store)
    }

    #[test]
    fn load_and_point_lookup() {
        let (doc, scheme, store) = setup();
        let root = doc.root_element().unwrap();
        assert_eq!(store.len(), doc.descendants(root).count());
        for node in doc.descendants(root) {
            let label = scheme.label_of(node);
            let row = store.get(&label).expect("row exists");
            assert_eq!(row.label, label);
            if let Some(tag) = doc.tag_name(node) {
                assert_eq!(row.name, tag);
            }
        }
        assert_eq!(store.get(&Ruid2::new(999, 1, false)), None);
    }

    #[test]
    fn scan_area_matches_membership() {
        let (doc, scheme, store) = setup();
        let root = doc.root_element().unwrap();
        // Root area: every member whose storage global is 1.
        let rows = store.scan_area(1);
        let expected = doc
            .descendants(root)
            .filter(|&n| scheme.label_of(n).global == 1)
            .count();
        assert_eq!(rows.len(), expected);
        // Rows arrive in (global, local) order.
        for pair in rows.windows(2) {
            assert!(pair[0].label < pair[1].label);
        }
    }

    #[test]
    fn scan_subtree_covers_descendants() {
        let (doc, scheme, store) = setup();
        let root = doc.root_element().unwrap();
        let (rows, scans) = store.scan_subtree(&scheme, 1);
        assert_eq!(rows.len(), doc.descendants(root).count());
        assert_eq!(scans, scheme.area_count());
        // Subtree of a deeper area.
        let r = doc
            .descendants(root)
            .find(|&n| doc.tag_name(n) == Some("r"))
            .unwrap();
        let r_label = scheme.label_of(r);
        assert!(r_label.is_root);
        let (rows, _) = store.scan_subtree(&scheme, r_label.global);
        assert_eq!(rows.len(), doc.descendants(r).count());
    }

    #[test]
    fn remove_rows() {
        let (doc, scheme, mut store) = setup();
        let root = doc.root_element().unwrap();
        let some = doc.descendants(root).nth(3).unwrap();
        let label = scheme.label_of(some);
        assert!(store.remove(&label));
        assert!(!store.remove(&label));
        assert_eq!(store.get(&label), None);
        assert_eq!(store.len(), doc.descendants(root).count() - 1);
    }

    #[test]
    fn scan_all_in_storage_order() {
        let (_doc, _scheme, store) = setup();
        let rows = store.scan_all();
        assert_eq!(rows.len(), store.len());
        for pair in rows.windows(2) {
            assert!(pair[0].label < pair[1].label, "{} !< {}", pair[0].label, pair[1].label);
        }
    }

    #[test]
    fn text_rows_round_trip() {
        let (doc, scheme, store) = setup();
        let root = doc.root_element().unwrap();
        let text_node = doc
            .descendants(root)
            .find(|&n| doc.text(n) == Some("one"))
            .unwrap();
        let row = store.get(&scheme.label_of(text_node)).unwrap();
        assert_eq!(row.text, "one");
    }
}
