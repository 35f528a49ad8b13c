//! Fixed-size pages over a pluggable byte store.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Page size in bytes. 4 KiB matches the usual OS/disk granularity.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within one pager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

fn out_of_range(id: PageId, pages: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("page {id:?} out of range (pager holds {pages} pages)"),
    )
}

/// A store of fixed-size pages.
///
/// The fallible `try_*` methods are the primary interface; the panicking
/// `read_page`/`write_page` wrappers remain for callers that treat a
/// missing page as a programming error (the heap and B+-tree only ever
/// dereference page ids they allocated themselves).
pub trait Pager {
    /// Allocates a zeroed page, surfacing growth failures (address-space
    /// exhaustion, a full disk) instead of panicking.
    fn try_allocate(&mut self) -> io::Result<PageId>;

    /// Allocates a zeroed page.
    ///
    /// # Panics
    /// Panics if the backing store cannot grow.
    fn allocate(&mut self) -> PageId {
        self.try_allocate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads a page into `buf`, surfacing I/O errors and out-of-range ids
    /// instead of panicking.
    fn try_read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()>;

    /// Writes a page, surfacing I/O errors and out-of-range ids instead
    /// of panicking.
    fn try_write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()>;

    /// Forces written pages to stable storage (fsync for file-backed
    /// pagers, a no-op in memory).
    fn sync(&mut self) -> io::Result<()>;

    /// Reads a page into `buf`.
    ///
    /// # Panics
    /// Panics if the page does not exist or the read fails.
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) {
        self.try_read_page(id, buf).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Writes a page.
    ///
    /// # Panics
    /// Panics if the page does not exist or the write fails.
    fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) {
        self.try_write_page(id, buf).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Number of allocated pages.
    fn page_count(&self) -> u32;
}

/// An in-memory pager (tests, benchmarks, scratch stores).
#[derive(Debug, Default)]
pub struct MemPager {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemPager {
    /// Creates an empty pager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pager for MemPager {
    fn try_allocate(&mut self) -> io::Result<PageId> {
        let id = u32::try_from(self.pages.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::OutOfMemory, "page count exceeds u32")
        })?;
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(PageId(id))
    }

    fn try_read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        let page = self
            .pages
            .get(id.index())
            .ok_or_else(|| out_of_range(id, self.pages.len() as u32))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn try_write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()> {
        let pages = self.pages.len() as u32;
        let page = self.pages.get_mut(id.index()).ok_or_else(|| out_of_range(id, pages))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }
}

/// A file-backed pager. Pages live at `offset = id * PAGE_SIZE`; the OS page
/// cache stands in for a buffer pool (the experiments measure algorithmic
/// access patterns, not raw disk).
#[derive(Debug)]
pub struct FilePager {
    file: File,
    pages: u32,
}

impl FilePager {
    /// Creates (truncating) a pager file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FilePager { file, pages: 0 })
    }

    /// Opens an existing pager file.
    ///
    /// A length that is not a whole number of pages means the last write
    /// was torn (or the file was truncated behind our back); that is
    /// reported as [`io::ErrorKind::InvalidData`] rather than silently
    /// rounding down to `len / PAGE_SIZE` — the caller decides whether to
    /// quarantine, not this layer.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "pager file {} has a torn tail: {len} bytes is not a multiple of the \
                     {PAGE_SIZE}-byte page size ({} whole pages + {} trailing bytes)",
                    path.display(),
                    len / PAGE_SIZE as u64,
                    len % PAGE_SIZE as u64
                ),
            ));
        }
        Ok(FilePager { file, pages: (len / PAGE_SIZE as u64) as u32 })
    }
}

impl Pager for FilePager {
    fn try_allocate(&mut self) -> io::Result<PageId> {
        let id = PageId(self.pages);
        // Grow the file first: if set_len fails (disk full), `pages` is
        // untouched and the pager stays consistent.
        self.file.set_len((u64::from(self.pages) + 1) * PAGE_SIZE as u64)?;
        self.pages += 1;
        Ok(id)
    }

    fn try_read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        if id.0 >= self.pages {
            return Err(out_of_range(id, self.pages));
        }
        let mut file = &self.file;
        file.seek(SeekFrom::Start(u64::from(id.0) * PAGE_SIZE as u64))?;
        file.read_exact(buf)
    }

    fn try_write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> io::Result<()> {
        if id.0 >= self.pages {
            return Err(out_of_range(id, self.pages));
        }
        self.file.seek(SeekFrom::Start(u64::from(id.0) * PAGE_SIZE as u64))?;
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }

    fn page_count(&self) -> u32 {
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(pager: &mut dyn Pager) {
        let a = pager.allocate();
        let b = pager.allocate();
        assert_ne!(a, b);
        assert_eq!(pager.page_count(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        pager.write_page(b, &buf);
        let mut read = [0u8; PAGE_SIZE];
        pager.read_page(b, &mut read);
        assert_eq!(read[0], 0xAB);
        assert_eq!(read[PAGE_SIZE - 1], 0xCD);
        pager.read_page(a, &mut read);
        assert_eq!(read[0], 0, "page a must still be zeroed");
        pager.sync().unwrap();
    }

    #[test]
    fn mem_pager() {
        exercise(&mut MemPager::new());
    }

    #[test]
    fn file_pager_round_trip() {
        let dir = crate::Scratch::new("round_trip");
        let path = dir.join("pager.db");
        {
            let mut pager = FilePager::create(&path).unwrap();
            exercise(&mut pager);
        }
        {
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.page_count(), 2);
            let mut buf = [0u8; PAGE_SIZE];
            pager.read_page(PageId(1), &mut buf);
            assert_eq!(buf[0], 0xAB);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        // The directory goes before the expected panic (a panicking test
        // keeps its scratch dir); the open file reads on.
        let fp = {
            let dir = crate::Scratch::new("out_of_range");
            FilePager::create(&dir.join("p.db")).unwrap()
        };
        let mut buf = [0u8; PAGE_SIZE];
        fp.read_page(PageId(0), &mut buf);
    }

    #[test]
    fn try_read_reports_out_of_range_instead_of_panicking() {
        let mem = MemPager::new();
        let mut buf = [0u8; PAGE_SIZE];
        let err = mem.try_read_page(PageId(0), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut mem = MemPager::new();
        let err = mem.try_write_page(PageId(3), &buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn open_rejects_torn_tail() {
        let dir = crate::Scratch::new("torn");
        let path = dir.join("torn.db");
        {
            let mut pager = FilePager::create(&path).unwrap();
            let id = pager.allocate();
            pager.write_page(id, &[0x5A; PAGE_SIZE]);
            pager.sync().unwrap();
        }
        // Tear the tail: a partial second page.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xEE; 100]);
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("torn tail"), "{msg}");
        assert!(msg.contains("1 whole pages") && msg.contains("100 trailing bytes"), "{msg}");
        // A clean file still opens.
        bytes.truncate(PAGE_SIZE);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(FilePager::open(&path).unwrap().page_count(), 1);
    }
}
