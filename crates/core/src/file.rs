//! Aquila's file abstraction: names mapped transparently to blobs or raw
//! device partitions.
//!
//! Paper section 3.3: Aquila intercepts `open` and `mmap` in non-root
//! ring 0 and translates files to SPDK blobs, giving unmodified
//! applications a file API whose data path never enters the host kernel.
//! A file can also map a raw device range directly (the dedicated-device
//! deployment the paper describes for key-value stores).

use std::sync::Arc;

use aquila_sync::{DetMap, RwLock};

use aquila_devices::{BlobId, Blobstore, StorageAccess, STORE_PAGE};
use aquila_sim::{Page, SimCtx};

use crate::error::AquilaError;

/// A file handle (dense index into the registry; used as the cache's file
/// id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

enum Backing {
    /// A blob in a blobstore.
    Blob {
        store: Arc<Blobstore>,
        access: Arc<dyn StorageAccess>,
        blob: BlobId,
    },
    /// A raw, linearly mapped device range.
    Raw {
        access: Arc<dyn StorageAccess>,
        base_page: u64,
        pages: u64,
    },
}

struct FileObj {
    name: String,
    backing: Backing,
}

impl FileObj {
    fn len_pages(&self) -> u64 {
        match &self.backing {
            Backing::Blob { store, blob, .. } => store.size_pages(*blob).unwrap_or(0),
            Backing::Raw { pages, .. } => *pages,
        }
    }

    /// Device page backing logical `page`, if allocated.
    fn dev_page(&self, page: u64) -> Result<u64, AquilaError> {
        match &self.backing {
            Backing::Blob { store, blob, .. } => {
                store
                    .lba_page(*blob, page)
                    .map_err(|_| AquilaError::BeyondEof {
                        page,
                        len: self.len_pages(),
                    })
            }
            Backing::Raw {
                base_page, pages, ..
            } => {
                if page < *pages {
                    Ok(base_page + page)
                } else {
                    Err(AquilaError::BeyondEof { page, len: *pages })
                }
            }
        }
    }

    fn access(&self) -> &Arc<dyn StorageAccess> {
        match &self.backing {
            Backing::Blob { access, .. } => access,
            Backing::Raw { access, .. } => access,
        }
    }
}

/// The open-file registry: name -> blob translation plus page I/O.
pub struct Files {
    files: RwLock<Vec<Arc<FileObj>>>,
    by_name: RwLock<DetMap<String, FileId>>,
}

impl Files {
    /// Creates an empty registry.
    pub fn new() -> Files {
        Files {
            files: RwLock::new(Vec::new()),
            by_name: RwLock::new(DetMap::new()),
        }
    }

    /// Opens (creating if needed) a named file backed by a blob of at
    /// least `pages` pages. This is the intercepted-`open` path.
    pub fn open_blob(
        &self,
        store: &Arc<Blobstore>,
        access: &Arc<dyn StorageAccess>,
        name: &str,
        pages: u64,
    ) -> Result<FileId, AquilaError> {
        if let Some(&id) = self.by_name.read().get(name) {
            // Existing file: grow if a larger size is requested.
            let obj = Arc::clone(&self.files.read()[id.0 as usize]);
            if let Backing::Blob { store, blob, .. } = &obj.backing {
                let clusters = pages.div_ceil(aquila_devices::PAGES_PER_CLUSTER);
                store
                    .resize(*blob, clusters)
                    .map_err(|_| AquilaError::NoSpace)?;
            }
            return Ok(id);
        }
        // Recovery: the blobstore may already hold this file from a
        // previous boot (the name lives in a blob xattr).
        for existing in store.list() {
            if store.get_xattr(existing, "name").ok().flatten().as_deref() == Some(name.as_bytes())
            {
                let clusters = pages.div_ceil(aquila_devices::PAGES_PER_CLUSTER);
                store
                    .resize(existing, clusters)
                    .map_err(|_| AquilaError::NoSpace)?;
                return self.register(FileObj {
                    name: name.to_string(),
                    backing: Backing::Blob {
                        store: Arc::clone(store),
                        access: Arc::clone(access),
                        blob: existing,
                    },
                });
            }
        }
        let blob = store.create();
        let clusters = pages.div_ceil(aquila_devices::PAGES_PER_CLUSTER).max(1);
        store
            .resize(blob, clusters)
            .map_err(|_| AquilaError::NoSpace)?;
        store
            .set_xattr(blob, "name", name.as_bytes())
            .map_err(|_| AquilaError::BadFile)?;
        self.register(FileObj {
            name: name.to_string(),
            backing: Backing::Blob {
                store: Arc::clone(store),
                access: Arc::clone(access),
                blob,
            },
        })
    }

    /// Opens a file over a raw device range (dedicated-partition mode).
    pub fn open_raw(
        &self,
        access: &Arc<dyn StorageAccess>,
        name: &str,
        base_page: u64,
        pages: u64,
    ) -> Result<FileId, AquilaError> {
        if let Some(&id) = self.by_name.read().get(name) {
            return Ok(id);
        }
        if base_page + pages > access.capacity_pages() {
            return Err(AquilaError::NoSpace);
        }
        self.register(FileObj {
            name: name.to_string(),
            backing: Backing::Raw {
                access: Arc::clone(access),
                base_page,
                pages,
            },
        })
    }

    fn register(&self, obj: FileObj) -> Result<FileId, AquilaError> {
        let mut files = self.files.write();
        let id = FileId(files.len() as u32);
        self.by_name.write().insert(obj.name.clone(), id);
        files.push(Arc::new(obj));
        Ok(id)
    }

    /// File length in pages.
    pub fn len_pages(&self, id: FileId) -> Result<u64, AquilaError> {
        Ok(self.get(id)?.len_pages())
    }

    /// File name.
    pub fn name(&self, id: FileId) -> Result<String, AquilaError> {
        Ok(self.get(id)?.name.clone())
    }

    /// Number of open files.
    pub fn count(&self) -> usize {
        self.files.read().len()
    }

    fn get(&self, id: FileId) -> Result<Arc<FileObj>, AquilaError> {
        self.files
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or(AquilaError::BadFile)
    }

    /// Device page backing logical `page` of `id`.
    pub fn dev_page(&self, id: FileId, page: u64) -> Result<u64, AquilaError> {
        self.get(id)?.dev_page(page)
    }

    /// Splits file pages `[page, page + n)` of `id` into device-contiguous
    /// segments `(first device page, index of its first page in the
    /// range, pages)`: the unit of one device command. Writeback
    /// translates its pages with this before submitting anything.
    pub(crate) fn segments(
        &self,
        id: FileId,
        page: u64,
        n: usize,
    ) -> Result<Vec<(u64, usize, usize)>, AquilaError> {
        split(&*self.get(id)?, page, n)
    }

    /// The storage access path behind `id`.
    pub fn access_of(&self, id: FileId) -> Result<Arc<dyn StorageAccess>, AquilaError> {
        Ok(Arc::clone(self.get(id)?.access()))
    }

    /// Reads file pages `[page, page + out.len())` from the device, each
    /// slot receiving a reference to the device's page (the fault path's
    /// fill by reference).
    ///
    /// Runs of logically contiguous pages that are also contiguous on the
    /// device (within a blob cluster) are issued as single larger I/Os.
    pub fn read_refs(
        &self,
        ctx: &mut dyn SimCtx,
        id: FileId,
        page: u64,
        out: &mut [Page],
    ) -> Result<(), AquilaError> {
        let obj = self.get(id)?;
        for (dev, i, len) in split(&obj, page, out.len())? {
            obj.access().read_refs(ctx, dev, &mut out[i..i + len])?;
        }
        Ok(())
    }

    /// Reads file pages `[page, page + buf.len()/4096)` into a buffer;
    /// [`Files::read_refs`] plus one copy per page.
    pub fn read_pages(
        &self,
        ctx: &mut dyn SimCtx,
        id: FileId,
        page: u64,
        buf: &mut [u8],
    ) -> Result<(), AquilaError> {
        let obj = self.get(id)?;
        for (dev, i, len) in split(&obj, page, buf.len() / STORE_PAGE)? {
            obj.access()
                .read_pages(ctx, dev, &mut buf[i * STORE_PAGE..(i + len) * STORE_PAGE])?;
        }
        Ok(())
    }

    /// Writes file pages starting at `page`; mirror of
    /// [`Files::read_pages`].
    pub fn write_pages(
        &self,
        ctx: &mut dyn SimCtx,
        id: FileId,
        page: u64,
        buf: &[u8],
    ) -> Result<(), AquilaError> {
        let obj = self.get(id)?;
        for (dev, i, len) in split(&obj, page, buf.len() / STORE_PAGE)? {
            obj.access()
                .write_pages(ctx, dev, &buf[i * STORE_PAGE..(i + len) * STORE_PAGE])?;
        }
        Ok(())
    }
}

/// [`Files::segments`] over an already-resolved file.
fn split(obj: &FileObj, page: u64, n: usize) -> Result<Vec<(u64, usize, usize)>, AquilaError> {
    let mut segs = Vec::new();
    let mut i = 0usize;
    while i < n {
        let dev = obj.dev_page(page + i as u64)?;
        // Extend the segment while device pages stay contiguous.
        let mut len = 1usize;
        while i + len < n && obj.dev_page(page + (i + len) as u64)? == dev + len as u64 {
            len += 1;
        }
        segs.push((dev, i, len));
        i += len;
    }
    Ok(segs)
}

impl Default for Files {
    fn default() -> Self {
        Files::new()
    }
}

impl core::fmt::Debug for Files {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Files {{ open: {} }}", self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_devices::{NvmeDevice, SpdkAccess};
    use aquila_sim::FreeCtx;

    fn setup() -> (FreeCtx, Arc<Blobstore>, Arc<dyn StorageAccess>, Files) {
        let mut ctx = FreeCtx::new(1);
        let dev = Arc::new(NvmeDevice::optane(16384));
        let access: Arc<dyn StorageAccess> = Arc::new(SpdkAccess::new(dev));
        let store = Arc::new(Blobstore::format(&mut ctx, Arc::clone(&access)).unwrap());
        (ctx, store, access, Files::new())
    }

    #[test]
    fn open_blob_io_roundtrip() {
        let (mut ctx, store, access, files) = setup();
        let f = files
            .open_blob(&store, &access, "/data/test.sst", 300)
            .unwrap();
        assert!(files.len_pages(f).unwrap() >= 300);
        assert_eq!(files.name(f).unwrap(), "/data/test.sst");

        let data: Vec<u8> = (0..3 * STORE_PAGE).map(|i| (i % 241) as u8).collect();
        files.write_pages(&mut ctx, f, 10, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        files.read_pages(&mut ctx, f, 10, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn reopen_returns_same_id() {
        let (_ctx, store, access, files) = setup();
        let a = files.open_blob(&store, &access, "/x", 10).unwrap();
        let b = files.open_blob(&store, &access, "/x", 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(files.count(), 1);
    }

    #[test]
    fn reopen_with_larger_size_grows() {
        let (_ctx, store, access, files) = setup();
        let f = files.open_blob(&store, &access, "/grow", 10).unwrap();
        let before = files.len_pages(f).unwrap();
        files
            .open_blob(&store, &access, "/grow", before + 1000)
            .unwrap();
        assert!(files.len_pages(f).unwrap() > before);
    }

    #[test]
    fn raw_file_io() {
        let (mut ctx, _store, access, files) = setup();
        let f = files.open_raw(&access, "/dev/part0", 8192, 1024).unwrap();
        assert_eq!(files.len_pages(f).unwrap(), 1024);
        let data = vec![0x5Au8; STORE_PAGE];
        files.write_pages(&mut ctx, f, 0, &data).unwrap();
        let mut back = vec![0u8; STORE_PAGE];
        files.read_pages(&mut ctx, f, 0, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn raw_beyond_capacity_rejected() {
        let (_ctx, _store, access, files) = setup();
        let cap = access.capacity_pages();
        assert_eq!(
            files
                .open_raw(&access, "/dev/too-big", cap - 10, 20)
                .unwrap_err(),
            AquilaError::NoSpace
        );
    }

    #[test]
    fn io_beyond_eof_rejected() {
        let (mut ctx, store, access, files) = setup();
        let f = files.open_blob(&store, &access, "/small", 1).unwrap();
        let len = files.len_pages(f).unwrap();
        let mut buf = vec![0u8; STORE_PAGE];
        let err = files.read_pages(&mut ctx, f, len, &mut buf).unwrap_err();
        assert!(matches!(err, AquilaError::BeyondEof { .. }));
    }

    #[test]
    fn bad_file_id() {
        let (_, _, _, files) = setup();
        assert_eq!(
            files.len_pages(FileId(7)).unwrap_err(),
            AquilaError::BadFile
        );
    }

    #[test]
    fn contiguous_runs_issue_fewer_ios() {
        let (mut ctx, store, access, files) = setup();
        let f = files.open_blob(&store, &access, "/seq", 256).unwrap();
        let before = ctx.stats.device_reads;
        let mut buf = vec![0u8; 64 * STORE_PAGE];
        files.read_pages(&mut ctx, f, 0, &mut buf).unwrap();
        // 64 contiguous pages within one cluster: a single device I/O.
        assert_eq!(ctx.stats.device_reads - before, 1);
    }
}
