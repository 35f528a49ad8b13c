//! File-backed store coverage: the reconstruct round-trip over a real
//! `FilePager` (the in-repo suites previously exercised only `MemPager`),
//! torn-tail detection on reopen, and byte-flip corruption detection in
//! the record codec.

use ruid_core::{PartitionConfig, Ruid2Scheme};
use schemes::NumberingScheme;
use testkit::Scratch;
use xmlgen::xmark::{generate, XmarkConfig};
use xmlstore::record::StoredNode;
use xmlstore::{fragment_from_rows, FilePager, Pager, XmlStore, PAGE_SIZE};

#[test]
fn xmark_round_trip_over_file_pager() {
    let dir = Scratch::new("round_trip");
    let doc = generate(&XmarkConfig::scaled_to(800, 42));
    let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(3));

    let mut store = XmlStore::create_in_dir(&dir).unwrap();
    let stored = store.load_document(&doc, &scheme);
    assert!(stored > 0);
    store.sync().unwrap();

    // Differential against the in-memory pager: identical row sets.
    let mut mem = XmlStore::in_memory();
    mem.load_document(&doc, &scheme);
    assert_eq!(store.scan_all(), mem.scan_all());

    // Point lookups through the file pager agree with the live scheme.
    let root = scheme.numbering_root();
    for node in doc.descendants(root) {
        let label = scheme.label_of(node);
        let row = store.get(&label).expect("every labelled node is stored");
        assert_eq!(row.label, label);
    }

    // Full reconstruct from file-backed rows equals the source document.
    let fragment = fragment_from_rows(&scheme, &store.scan_all());
    assert!(
        doc.subtree_eq(root, &fragment, fragment.root_element().unwrap()),
        "file-backed reconstruction differs from the source document"
    );
}

#[test]
fn reopened_file_pager_serves_the_same_pages() {
    let dir = Scratch::new("reopen");
    let doc = generate(&XmarkConfig::scaled_to(200, 7));
    let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
    let (heap_pages, index_pages);
    {
        let mut store = XmlStore::create_in_dir(&dir).unwrap();
        store.load_document(&doc, &scheme);
        store.sync().unwrap();
        heap_pages = FilePager::open(&dir.join("heap.db")).unwrap().page_count();
        index_pages = FilePager::open(&dir.join("index.db")).unwrap().page_count();
    }
    // Reopen both files: page counts survive and every page reads back.
    for (file, pages) in [("heap.db", heap_pages), ("index.db", index_pages)] {
        let pager = FilePager::open(&dir.join(file)).unwrap();
        assert_eq!(pager.page_count(), pages, "{file}");
        let mut buf = [0u8; PAGE_SIZE];
        for p in 0..pages {
            pager.try_read_page(xmlstore::PageId(p), &mut buf).unwrap();
        }
    }
}

#[test]
fn torn_tail_is_reported_on_open() {
    let dir = Scratch::new("torn");
    let doc = generate(&XmarkConfig::scaled_to(120, 3));
    let scheme = Ruid2Scheme::build(&doc, &PartitionConfig::by_depth(2));
    {
        let mut store = XmlStore::create_in_dir(&dir).unwrap();
        store.load_document(&doc, &scheme);
        store.sync().unwrap();
    }
    // A crash mid-page-write leaves a non-aligned length; the open must
    // say so instead of silently dropping the partial page.
    let heap = dir.join("heap.db");
    let mut bytes = std::fs::read(&heap).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xA5; 1000]);
    std::fs::write(&heap, &bytes).unwrap();
    let err = FilePager::open(&heap).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("torn tail"), "{err}");
    // The untouched index file still opens; the truncated-back heap too.
    FilePager::open(&dir.join("index.db")).unwrap();
    bytes.truncate(clean_len);
    std::fs::write(&heap, &bytes).unwrap();
    FilePager::open(&heap).unwrap();
}

#[test]
fn record_codec_detects_every_low_bit_flip() {
    // One flip per byte of an encoded record, covering every region —
    // kind tag, 17-byte label, name length + bytes, text length + bytes,
    // attribute count and pairs. No flip may decode back to the original
    // record: it must either fail to decode or produce a visibly
    // different row.
    let rows = [
        StoredNode {
            label: ruid_core::Ruid2::new(5, 9, false),
            kind: xmlstore::record::StoredKind::Element,
            name: "person".into(),
            text: String::new(),
            attributes: vec![("id".into(), "p17".into()), ("lang".into(), "en".into())],
        },
        StoredNode {
            label: ruid_core::Ruid2::new(2, 3, true),
            kind: xmlstore::record::StoredKind::Text,
            name: String::new(),
            text: "some character data".into(),
            attributes: vec![],
        },
    ];
    for row in &rows {
        let bytes = row.encode();
        assert_eq!(StoredNode::decode(&bytes).as_ref(), Some(row));
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_ne!(
                StoredNode::decode(&flipped).as_ref(),
                Some(row),
                "flip at byte {i} of {row:?} was invisible"
            );
        }
        // Truncation at every prefix is detected too.
        for cut in 0..bytes.len() {
            assert_eq!(StoredNode::decode(&bytes[..cut]), None, "cut at {cut}");
        }
    }
}
