//! Raw page storage backing simulated devices.
//!
//! Device contents are real bytes: writes persist, reads return what was
//! written, so the KV stores and graph workloads above verify actual data
//! integrity through the whole mmio path. Per-page locks keep the store
//! sound under real threads without serializing unrelated pages.

use aquila_sim::fault::DeviceImage;
use aquila_sync::RwLock;

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
    pages: Vec<RwLock<Option<Box<[u8]>>>>,
}

impl PageStore {
    /// Creates a store of `pages` logically-zero pages.
    ///
    /// Pages are materialized lazily on first write, so a mostly-empty
    /// multi-GB device costs almost no host memory.
    pub fn new(pages: u64) -> PageStore {
        PageStore {
            pages: (0..pages).map(|_| RwLock::new(None)).collect(),
        }
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages currently materialized (allocated in host memory).
    pub fn resident_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.read().is_some()).count() as u64
    }

    /// Calls `f(page, bytes)` for each materialized page in page order,
    /// under that page's read lock. Never-written and discarded pages
    /// read as zero and are skipped.
    pub(crate) fn for_each_resident(&self, mut f: impl FnMut(u64, &[u8])) {
        for (i, slot) in self.pages.iter().enumerate() {
            if let Some(data) = &*slot.read() {
                f(i as u64, data);
            }
        }
    }

    fn slot(&self, page: u64) -> Result<&RwLock<Option<Box<[u8]>>>, DeviceError> {
        self.pages
            .get(page as usize)
            .ok_or(DeviceError::OutOfRange {
                page,
                pages: 1,
                capacity: self.page_count(),
            })
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
        match &*self.slot(page)?.read() {
            Some(data) => buf.copy_from_slice(&data[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Writes `buf` into `page` starting at `offset`.
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
        let mut slot = self.slot(page)?.write();
        let data = slot.get_or_insert_with(|| vec![0u8; STORE_PAGE].into_boxed_slice());
        data[offset..offset + buf.len()].copy_from_slice(buf);
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

    /// Writes the first `bytes` bytes of the page list `pages` (one
    /// 4 KiB slice per page) to consecutive pages from `first`. A page
    /// the cut leaves untouched is not materialized.
    pub fn write_pages(
        &self,
        first: u64,
        pages: &[&[u8]],
        bytes: usize,
    ) -> Result<(), DeviceError> {
        for (i, data) in pages.iter().enumerate() {
            let keep = bytes.saturating_sub(i * STORE_PAGE).min(data.len());
            if keep == 0 {
                break;
            }
            self.write_at(first + i as u64, 0, &data[..keep])?;
        }
        Ok(())
    }

    /// Drops a page's contents back to logical zero (TRIM/deallocate).
    pub fn discard(&self, page: u64) -> Result<(), DeviceError> {
        *self.slot(page)?.write() = None;
        Ok(())
    }

    /// Captures the store as a sparse image: its size plus a copy of
    /// each materialized page (never-written pages stay implied zero).
    /// The crash-consistency harness captures this at a simulated power
    /// cut and recovers a fresh device from it.
    pub fn snapshot(&self) -> DeviceImage {
        let mut resident = Vec::new();
        self.for_each_resident(|i, data| resident.push((i, data.into())));
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
            assert_eq!(data.len(), STORE_PAGE);
            seen.push((p, data.iter().map(|&b| b as u32).sum::<u32>()));
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
        assert_eq!(&data[8..11], b"mid");
        assert!(data[..8].iter().chain(&data[11..]).all(|&b| b == 0));
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
