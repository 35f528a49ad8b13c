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

/// A directory for one unit test under `<target>/tmp`, removed when the
/// test passes and kept to inspect when it panics. Unit tests cannot link
/// the `testkit` crate, whose `Scratch` this mirrors.
#[cfg(test)]
pub(crate) struct Scratch(std::path::PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(name: &str) -> Scratch {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // The test binary is `<target>/<profile>/deps/<crate>-<hash>`.
        let exe = std::env::current_exe().expect("the test binary's path");
        let target = exe.ancestors().nth(3).expect("a binary under the target directory");
        let dir = target.join("tmp").join(format!(
            "{}-{name}-{}-{n}",
            env!("CARGO_PKG_NAME"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch dir");
        Scratch(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for Scratch {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
