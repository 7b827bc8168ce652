//! Raw page storage backing simulated devices.
//!
//! Device contents are real bytes: writes persist, reads return what was
//! written, so the KV stores and graph workloads above verify actual data
//! integrity through the whole mmio path. Each device page is one
//! [`Page`] handle into the process-wide page pool
//! ([`aquila_sim::page`]); the zero page means "never written". A read
//! hands out a reference to the stored page and a page-list write adopts
//! the caller's pages, so the DRAM cache and the store share bytes
//! instead of copying them. One short lock per slot keeps the store sound
//! under real threads without serializing unrelated pages.

use aquila_sim::fault::DeviceImage;
use aquila_sim::Page;
use aquila_sync::Mutex;

use crate::error::DeviceError;

/// Page size of the store (4 KiB).
pub const STORE_PAGE: usize = 4096;

/// Splits a contiguous buffer into the page list a device write takes:
/// one 4 KiB slice per page (a short tail stays short, and the device
/// rejects it).
pub fn page_list(buf: &[u8]) -> Vec<&[u8]> {
    buf.chunks(STORE_PAGE).collect()
}

/// A page-granular byte store.
pub struct PageStore {
    pages: Vec<Mutex<Page>>,
}

impl PageStore {
    /// Creates a store of `pages` logically-zero pages.
    ///
    /// Every page starts as the shared zero page, so a mostly-empty
    /// multi-GB device costs almost no host memory.
    pub fn new(pages: u64) -> PageStore {
        PageStore {
            pages: (0..pages).map(|_| Mutex::new(Page::zero())).collect(),
        }
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages currently materialized (not the zero page).
    pub fn resident_pages(&self) -> u64 {
        self.pages.iter().filter(|p| !p.lock().is_zero()).count() as u64
    }

    /// Calls `f(page, data)` for each materialized page in page order,
    /// under that page's slot lock. Never-written and discarded pages
    /// read as zero and are skipped.
    pub(crate) fn for_each_resident(&self, mut f: impl FnMut(u64, &Page)) {
        for (i, slot) in self.pages.iter().enumerate() {
            let page = slot.lock();
            if !page.is_zero() {
                f(i as u64, &page);
            }
        }
    }

    fn slot(&self, page: u64) -> Result<&Mutex<Page>, DeviceError> {
        self.pages
            .get(page as usize)
            .ok_or(DeviceError::OutOfRange {
                page,
                pages: 1,
                capacity: self.page_count(),
            })
    }

    /// A reference to the stored `page` (no bytes move).
    pub fn page(&self, page: u64) -> Result<Page, DeviceError> {
        Ok(self.slot(page)?.lock().clone())
    }

    /// Makes `data` the contents of `page` without copying it; later
    /// writes to either copy it first.
    pub fn adopt(&self, page: u64, data: Page) -> Result<(), DeviceError> {
        let old = std::mem::replace(&mut *self.slot(page)?.lock(), data);
        drop(old);
        Ok(())
    }

    /// Reads `buf.len()` bytes from `page` starting at `offset`.
    ///
    /// Fails if the range crosses the page boundary or the page index is
    /// out of bounds.
    pub fn read_at(&self, page: u64, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        if offset + buf.len() > STORE_PAGE {
            return Err(DeviceError::CrossesPage {
                offset,
                len: buf.len(),
            });
        }
        let data = self.slot(page)?.lock();
        buf.copy_from_slice(&data.read()[offset..offset + buf.len()]);
        Ok(())
    }

    /// Writes `buf` into `page` starting at `offset`, copying a shared
    /// page first. `buf` must not be borrowed from a [`Page`] (the page
    /// pool's lock rule).
    ///
    /// Fails if the range crosses the page boundary or the page index is
    /// out of bounds.
    pub fn write_at(&self, page: u64, offset: usize, buf: &[u8]) -> Result<(), DeviceError> {
        if offset + buf.len() > STORE_PAGE {
            return Err(DeviceError::CrossesPage {
                offset,
                len: buf.len(),
            });
        }
        self.slot(page)?
            .lock()
            .write(|data| data[offset..offset + buf.len()].copy_from_slice(buf));
        Ok(())
    }

    /// Reads a possibly multi-page byte range starting at absolute byte
    /// offset `pos`.
    pub fn read_range(&self, pos: u64, buf: &mut [u8]) -> Result<(), DeviceError> {
        let mut done = 0usize;
        while done < buf.len() {
            let abs = pos + done as u64;
            let page = abs / STORE_PAGE as u64;
            let off = (abs % STORE_PAGE as u64) as usize;
            let n = (STORE_PAGE - off).min(buf.len() - done);
            self.read_at(page, off, &mut buf[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Writes a possibly multi-page byte range starting at absolute byte
    /// offset `pos`.
    pub fn write_range(&self, pos: u64, buf: &[u8]) -> Result<(), DeviceError> {
        let mut done = 0usize;
        while done < buf.len() {
            let abs = pos + done as u64;
            let page = abs / STORE_PAGE as u64;
            let off = (abs % STORE_PAGE as u64) as usize;
            let n = (STORE_PAGE - off).min(buf.len() - done);
            self.write_at(page, off, &buf[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Persists the first `bytes` bytes of `pages` to consecutive pages
    /// from `first`. Whole pages are adopted by reference; a page the cut
    /// ends inside gets its prefix written into a fresh copy of the old
    /// page; a page the cut leaves untouched is not touched.
    pub fn write_pages(&self, first: u64, pages: &[Page], bytes: usize) -> Result<(), DeviceError> {
        for (i, data) in pages.iter().enumerate() {
            let keep = bytes.saturating_sub(i * STORE_PAGE).min(STORE_PAGE);
            if keep == STORE_PAGE {
                self.adopt(first + i as u64, data.clone())?;
                continue;
            }
            if keep > 0 {
                let mut prefix = [0u8; STORE_PAGE];
                prefix[..keep].copy_from_slice(&data.read()[..keep]);
                self.write_at(first + i as u64, 0, &prefix[..keep])?;
            }
            break;
        }
        Ok(())
    }

    /// Drops a page's contents back to logical zero (TRIM/deallocate).
    pub fn discard(&self, page: u64) -> Result<(), DeviceError> {
        self.adopt(page, Page::zero())
    }

    /// Captures the store as a sparse image: its size plus a reference to
    /// each materialized page (never-written pages stay implied zero).
    /// The image shares the store's pages; a later write to either side
    /// copies first, so the image keeps the bytes of the capture. The
    /// crash-consistency harness captures this at a simulated power cut
    /// and recovers a fresh device from it.
    pub fn snapshot(&self) -> DeviceImage {
        let mut resident = Vec::new();
        self.for_each_resident(|i, data| resident.push((i, data.clone())));
        DeviceImage {
            pages: self.page_count(),
            resident,
        }
    }
}

impl core::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PageStore {{ pages: {}, resident: {} }}",
            self.page_count(),
            self.resident_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_pages_read_zero() {
        let s = PageStore::new(4);
        let mut buf = [0xFFu8; 16];
        s.read_at(2, 100, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let s = PageStore::new(4);
        s.write_at(1, 10, b"payload").unwrap();
        let mut buf = [0u8; 7];
        s.read_at(1, 10, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn range_io_crosses_pages() {
        let s = PageStore::new(3);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        s.write_range(100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        s.read_range(100, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.resident_pages(), 3);
    }

    #[test]
    fn discard_returns_page_to_zero() {
        let s = PageStore::new(2);
        s.write_at(0, 0, &[1, 2, 3]).unwrap();
        s.discard(0).unwrap();
        let mut buf = [9u8; 3];
        s.read_at(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn cross_boundary_page_io_is_error() {
        let s = PageStore::new(2);
        assert_eq!(
            s.read_at(0, 4090, &mut [0u8; 16]),
            Err(DeviceError::CrossesPage {
                offset: 4090,
                len: 16
            })
        );
    }

    #[test]
    fn resident_walk_visits_materialized_pages_in_order() {
        let s = PageStore::new(6);
        s.write_at(4, 0, &[4]).unwrap();
        s.write_at(1, 7, &[1]).unwrap();
        s.write_at(3, 0, &[3]).unwrap();
        s.discard(3).unwrap();
        let mut seen = Vec::new();
        s.for_each_resident(|p, data| {
            seen.push((p, data.read().iter().map(|&b| b as u32).sum::<u32>()));
        });
        assert_eq!(seen, vec![(1, 1), (4, 4)]);
    }

    #[test]
    fn snapshot_keeps_only_resident_pages() {
        let s = PageStore::new(3);
        s.write_at(1, 8, b"mid").unwrap();
        let img = s.snapshot();
        assert_eq!(img.pages, 3);
        assert_eq!(img.bytes(), 3 * STORE_PAGE as u64);
        assert_eq!(img.resident.len(), 1);
        let (page, data) = &img.resident[0];
        assert_eq!(*page, 1);
        assert!(
            data.same_as(&s.page(1).unwrap()),
            "the image shares the page"
        );
        let bytes = data.read();
        assert_eq!(&bytes[8..11], b"mid");
        assert!(bytes[..8].iter().chain(&bytes[11..]).all(|&b| b == 0));
        drop(bytes);
        // A write after the capture copies; the image keeps its bytes.
        s.write_at(1, 8, b"new").unwrap();
        assert_eq!(&img.resident[0].1.read()[8..11], b"mid");
    }

    #[test]
    fn page_lists_are_adopted_and_a_cut_page_gets_a_fresh_copy() {
        let s = PageStore::new(4);
        s.write_at(1, 0, &[0xAA; STORE_PAGE]).unwrap();
        let old = s.page(1).unwrap();
        let list = [
            Page::copy_of(&[1; STORE_PAGE]),
            Page::copy_of(&[2; STORE_PAGE]),
        ];
        // Page 0 whole, page 1 cut after 512 bytes.
        s.write_pages(0, &list, STORE_PAGE + 512).unwrap();
        assert!(s.page(0).unwrap().same_as(&list[0]), "adopted, not copied");
        let cut = s.page(1).unwrap();
        assert!(!cut.same_as(&list[1]) && !cut.same_as(&old));
        assert!(cut.read()[..512].iter().all(|&b| b == 2));
        assert!(cut.read()[512..].iter().all(|&b| b == 0xAA));
        assert!(
            old.read().iter().all(|&b| b == 0xAA),
            "the old page is intact"
        );
        // A zero-byte cut leaves every page alone.
        s.write_pages(2, &list, 0).unwrap();
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn out_of_bounds_page_is_error() {
        let s = PageStore::new(2);
        assert!(matches!(
            s.write_at(7, 0, &[1]),
            Err(DeviceError::OutOfRange { page: 7, .. })
        ));
        assert!(matches!(
            s.discard(2),
            Err(DeviceError::OutOfRange { page: 2, .. })
        ));
    }
}
