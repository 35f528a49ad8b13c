//! Identifier-keyed storage for numbered XML documents.
//!
//! The paper stores its identifier tables in an RDBMS, "sorted first by the
//! global index, and then by local index" (Section 2.1), and proposes
//! selecting data files by the global-index part of the identifier
//! (Section 4, "Database file/table selection"). This crate is that storage
//! substrate, built from scratch:
//!
//! * [`pager`] — 4-KiB pages over a byte store (in-memory or a file);
//! * [`heap`] — a slotted-page heap file for variable-length node records;
//! * [`bptree`] — a B+-tree over fixed 17-byte keys (the
//!   [`ruid_core::Ruid2`] storage key: big-endian global, local, root flag)
//!   whose leaf chain delivers exactly the paper's sort order;
//! * [`store`] — [`store::XmlStore`]: one table holding a numbered
//!   document, with point lookup by label and range scans by area;
//! * [`partitioned`] — [`partitioned::PartitionedStore`]: one table per
//!   group of areas, where queries touch only the tables their global-index
//!   range selects (experiment E10 measures the benefit).

#![forbid(unsafe_code)]

pub mod bptree;
pub mod heap;
pub mod pager;
pub mod partitioned;
pub mod record;
pub mod reconstruct;
pub mod store;

pub use bptree::BPlusTree;
pub use heap::{HeapFile, RecordId};
pub use pager::{FilePager, MemPager, PageId, Pager, PAGE_SIZE};
pub use partitioned::PartitionedStore;
pub use reconstruct::fragment_from_rows;
pub use record::StoredNode;
pub use store::XmlStore;
