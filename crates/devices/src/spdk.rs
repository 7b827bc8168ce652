//! A Blobstore: SPDK-style flat namespace of blobs over a raw device.
//!
//! Aquila gives applications a file abstraction over SPDK's *Blobstore*
//! (section 3.3): a flat namespace of blobs, each identified by a number,
//! which can be created, resized, and deleted at runtime and carry
//! extended attributes. Aquila intercepts `open`/`mmap` and translates
//! files to blobs transparently, using the *direct* (unbuffered) I/O path
//! — not BlobFS, which would add its own cache.
//!
//! This implementation manages space in 1 MiB clusters with a bitmap
//! allocator, persists metadata into a reserved region of the device, and
//! performs all data I/O through a [`StorageAccess`] path.

use std::collections::BTreeMap;
use std::sync::Arc;

use aquila_sync::Mutex;

use aquila_sim::SimCtx;

use crate::access::StorageAccess;
use crate::error::DeviceError;
use crate::store::STORE_PAGE;

/// Pages per cluster (1 MiB clusters).
pub const PAGES_PER_CLUSTER: u64 = 256;
/// Pages reserved for the superblock + metadata region.
pub const MD_PAGES: u64 = 64;
/// Magic number identifying a formatted blobstore.
const MAGIC: u64 = 0x41_51_55_42_4C_4F_42_53; // "AQUBLOBS"

/// A blob identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobId(pub u64);

/// Errors from blobstore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The blob does not exist.
    NoSuchBlob,
    /// The device is out of free clusters.
    NoSpace,
    /// I/O beyond the blob's allocated size.
    OutOfRange,
    /// The device does not contain a valid blobstore.
    NotFormatted,
    /// The device is too small to hold a blobstore at all.
    DeviceTooSmall,
    /// Serialized metadata no longer fits the reserved region.
    MetadataOverflow,
    /// The underlying access path failed.
    Device(DeviceError),
}

impl From<DeviceError> for BlobError {
    fn from(e: DeviceError) -> BlobError {
        BlobError::Device(e)
    }
}

#[derive(Debug, Clone, Default)]
struct Blob {
    clusters: Vec<u32>,
    xattrs: BTreeMap<String, Vec<u8>>,
}

struct State {
    blobs: BTreeMap<u64, Blob>,
    free: Vec<bool>, // free[i] => cluster i is free
    next_id: u64,
}

/// A flat blob namespace over a storage access path.
pub struct Blobstore {
    access: Arc<dyn StorageAccess>,
    state: Mutex<State>,
    data_start_page: u64,
    total_clusters: u64,
}

impl Blobstore {
    /// Formats the device and creates an empty blobstore.
    pub fn format(
        ctx: &mut dyn SimCtx,
        access: Arc<dyn StorageAccess>,
    ) -> Result<Blobstore, BlobError> {
        let capacity = access.capacity_pages();
        if capacity <= MD_PAGES + PAGES_PER_CLUSTER {
            return Err(BlobError::DeviceTooSmall);
        }
        let total_clusters = (capacity - MD_PAGES) / PAGES_PER_CLUSTER;
        let bs = Blobstore {
            access,
            state: Mutex::new(State {
                blobs: BTreeMap::new(),
                free: vec![true; total_clusters as usize],
                next_id: 1,
            }),
            data_start_page: MD_PAGES,
            total_clusters,
        };
        bs.sync_md(ctx)?;
        Ok(bs)
    }

    /// Loads an existing blobstore from the device.
    pub fn load(
        ctx: &mut dyn SimCtx,
        access: Arc<dyn StorageAccess>,
    ) -> Result<Blobstore, BlobError> {
        let capacity = access.capacity_pages();
        let total_clusters = (capacity.saturating_sub(MD_PAGES)) / PAGES_PER_CLUSTER;
        let mut md = vec![0u8; (MD_PAGES as usize) * STORE_PAGE];
        access.read_pages(ctx, 0, &mut md)?;
        let mut rd = Reader::new(&md);
        if rd.u64().ok_or(BlobError::NotFormatted)? != MAGIC {
            return Err(BlobError::NotFormatted);
        }
        // A truncated or corrupt metadata region reads as unformatted
        // rather than a panic: every decode below is checked.
        let bad = BlobError::NotFormatted;
        let next_id = rd.u64().ok_or(bad.clone())?;
        let blob_count = rd.u32().ok_or(bad.clone())? as usize;
        let mut blobs = BTreeMap::new();
        let mut free = vec![true; total_clusters as usize];
        for _ in 0..blob_count {
            let id = rd.u64().ok_or(bad.clone())?;
            let nclusters = rd.u32().ok_or(bad.clone())? as usize;
            let mut clusters = Vec::with_capacity(nclusters);
            for _ in 0..nclusters {
                let c = rd.u32().ok_or(bad.clone())?;
                *free.get_mut(c as usize).ok_or(BlobError::NotFormatted)? = false;
                clusters.push(c);
            }
            let nxattrs = rd.u32().ok_or(bad.clone())? as usize;
            let mut xattrs = BTreeMap::new();
            for _ in 0..nxattrs {
                let k =
                    String::from_utf8(rd.bytes().ok_or(bad.clone())?.to_vec()).unwrap_or_default();
                let v = rd.bytes().ok_or(bad.clone())?.to_vec();
                xattrs.insert(k, v);
            }
            blobs.insert(id, Blob { clusters, xattrs });
        }
        Ok(Blobstore {
            access,
            state: Mutex::new(State {
                blobs,
                free,
                next_id,
            }),
            data_start_page: MD_PAGES,
            total_clusters,
        })
    }

    /// Persists blobstore metadata to the device's reserved region.
    pub fn sync_md(&self, ctx: &mut dyn SimCtx) -> Result<(), BlobError> {
        let st = self.state.lock();
        let mut w = Writer::new();
        w.u64(MAGIC);
        w.u64(st.next_id);
        w.u32(st.blobs.len() as u32);
        for (id, blob) in &st.blobs {
            w.u64(*id);
            w.u32(blob.clusters.len() as u32);
            for &c in &blob.clusters {
                w.u32(c);
            }
            w.u32(blob.xattrs.len() as u32);
            for (k, v) in &blob.xattrs {
                w.bytes(k.as_bytes());
                w.bytes(v);
            }
        }
        let mut buf = w.finish();
        if buf.len() > (MD_PAGES as usize) * STORE_PAGE {
            return Err(BlobError::MetadataOverflow);
        }
        buf.resize((MD_PAGES as usize) * STORE_PAGE, 0);
        drop(st);
        self.access.write_pages(ctx, 0, &buf)?;
        Ok(())
    }

    /// Creates an empty blob and returns its id.
    pub fn create(&self) -> BlobId {
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.blobs.insert(id, Blob::default());
        BlobId(id)
    }

    /// Deletes a blob, freeing its clusters.
    pub fn delete(&self, id: BlobId) -> Result<(), BlobError> {
        let mut st = self.state.lock();
        let blob = st.blobs.remove(&id.0).ok_or(BlobError::NoSuchBlob)?;
        for c in blob.clusters {
            st.free[c as usize] = true;
        }
        Ok(())
    }

    /// Grows (or keeps) a blob to at least `clusters` clusters.
    pub fn resize(&self, id: BlobId, clusters: u64) -> Result<(), BlobError> {
        let mut st = self.state.lock();
        let have = st
            .blobs
            .get(&id.0)
            .ok_or(BlobError::NoSuchBlob)?
            .clusters
            .len() as u64;
        if clusters <= have {
            return Ok(());
        }
        let need = (clusters - have) as usize;
        let mut grabbed = Vec::with_capacity(need);
        for (i, f) in st.free.iter_mut().enumerate() {
            if *f {
                *f = false;
                grabbed.push(i as u32);
                if grabbed.len() == need {
                    break;
                }
            }
        }
        if grabbed.len() < need {
            // Roll back.
            for &c in &grabbed {
                st.free[c as usize] = true;
            }
            return Err(BlobError::NoSpace);
        }
        match st.blobs.get_mut(&id.0) {
            Some(blob) => blob.clusters.extend(grabbed),
            None => {
                // Unreachable (existence checked above), but recover
                // instead of panicking: release the grabbed clusters.
                for &c in &grabbed {
                    st.free[c as usize] = true;
                }
                return Err(BlobError::NoSuchBlob);
            }
        }
        Ok(())
    }

    /// Size of a blob in clusters.
    pub fn size_clusters(&self, id: BlobId) -> Result<u64, BlobError> {
        let st = self.state.lock();
        Ok(st
            .blobs
            .get(&id.0)
            .ok_or(BlobError::NoSuchBlob)?
            .clusters
            .len() as u64)
    }

    /// Size of a blob in pages.
    pub fn size_pages(&self, id: BlobId) -> Result<u64, BlobError> {
        Ok(self.size_clusters(id)? * PAGES_PER_CLUSTER)
    }

    /// Sets an extended attribute.
    pub fn set_xattr(&self, id: BlobId, key: &str, value: &[u8]) -> Result<(), BlobError> {
        let mut st = self.state.lock();
        st.blobs
            .get_mut(&id.0)
            .ok_or(BlobError::NoSuchBlob)?
            .xattrs
            .insert(key.to_string(), value.to_vec());
        Ok(())
    }

    /// Reads an extended attribute.
    pub fn get_xattr(&self, id: BlobId, key: &str) -> Result<Option<Vec<u8>>, BlobError> {
        let st = self.state.lock();
        Ok(st
            .blobs
            .get(&id.0)
            .ok_or(BlobError::NoSuchBlob)?
            .xattrs
            .get(key)
            .cloned())
    }

    /// Lists all blob ids.
    pub fn list(&self) -> Vec<BlobId> {
        self.state.lock().blobs.keys().map(|&k| BlobId(k)).collect()
    }

    /// Free clusters remaining.
    pub fn free_clusters(&self) -> u64 {
        self.state.lock().free.iter().filter(|&&f| f).count() as u64
    }

    /// Total data clusters on the device.
    pub fn total_clusters(&self) -> u64 {
        self.total_clusters
    }

    /// Translates a blob-relative page to a device page (LBA / 8).
    ///
    /// This is the hook Aquila's mmio path uses: page faults resolve a
    /// file offset to a device page and then go straight to the device.
    pub fn lba_page(&self, id: BlobId, logical_page: u64) -> Result<u64, BlobError> {
        let st = self.state.lock();
        let blob = st.blobs.get(&id.0).ok_or(BlobError::NoSuchBlob)?;
        let cluster_idx = (logical_page / PAGES_PER_CLUSTER) as usize;
        let within = logical_page % PAGES_PER_CLUSTER;
        let cluster = *blob
            .clusters
            .get(cluster_idx)
            .ok_or(BlobError::OutOfRange)?;
        Ok(self.data_start_page + cluster as u64 * PAGES_PER_CLUSTER + within)
    }

    /// Reads `buf.len()` bytes from byte offset `pos` of a blob (direct,
    /// unbuffered).
    pub fn read(
        &self,
        ctx: &mut dyn SimCtx,
        id: BlobId,
        pos: u64,
        buf: &mut [u8],
    ) -> Result<(), BlobError> {
        self.io(
            ctx,
            id,
            pos,
            buf.len(),
            |this, ctx, dev_page, off, chunk_len, done, buf: &mut [u8]| {
                if off == 0 && chunk_len == STORE_PAGE {
                    this.access
                        .read_pages(ctx, dev_page, &mut buf[done..done + STORE_PAGE])?;
                } else {
                    let mut page = vec![0u8; STORE_PAGE];
                    this.access.read_pages(ctx, dev_page, &mut page)?;
                    buf[done..done + chunk_len].copy_from_slice(&page[off..off + chunk_len]);
                }
                Ok(())
            },
            buf,
        )
    }

    /// Writes `buf` at byte offset `pos` of a blob (direct, unbuffered;
    /// sub-page writes read-modify-write the containing page).
    pub fn write(
        &self,
        ctx: &mut dyn SimCtx,
        id: BlobId,
        pos: u64,
        buf: &[u8],
    ) -> Result<(), BlobError> {
        let mut scratch = buf.to_vec();
        self.io(
            ctx,
            id,
            pos,
            buf.len(),
            |this, ctx, dev_page, off, chunk_len, done, b: &mut [u8]| {
                if off == 0 && chunk_len == STORE_PAGE {
                    this.access
                        .write_pages(ctx, dev_page, &b[done..done + STORE_PAGE])?;
                } else {
                    let mut page = vec![0u8; STORE_PAGE];
                    this.access.read_pages(ctx, dev_page, &mut page)?;
                    page[off..off + chunk_len].copy_from_slice(&b[done..done + chunk_len]);
                    this.access.write_pages(ctx, dev_page, &page)?;
                }
                Ok(())
            },
            &mut scratch,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn io<F>(
        &self,
        ctx: &mut dyn SimCtx,
        id: BlobId,
        pos: u64,
        len: usize,
        mut op: F,
        buf: &mut [u8],
    ) -> Result<(), BlobError>
    where
        F: FnMut(
            &Blobstore,
            &mut dyn SimCtx,
            u64,
            usize,
            usize,
            usize,
            &mut [u8],
        ) -> Result<(), BlobError>,
    {
        let size_bytes = self.size_pages(id)? * STORE_PAGE as u64;
        if pos + len as u64 > size_bytes {
            return Err(BlobError::OutOfRange);
        }
        let mut done = 0usize;
        while done < len {
            let abs = pos + done as u64;
            let logical_page = abs / STORE_PAGE as u64;
            let off = (abs % STORE_PAGE as u64) as usize;
            let chunk = (STORE_PAGE - off).min(len - done);
            let dev_page = self.lba_page(id, logical_page)?;
            op(self, ctx, dev_page, off, chunk, done, buf)?;
            done += chunk;
        }
        Ok(())
    }
}

impl core::fmt::Debug for Blobstore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Blobstore {{ blobs: {}, free_clusters: {}/{} }}",
            self.list().len(),
            self.free_clusters(),
            self.total_clusters
        )
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_le_bytes(self.buf.get(self.pos..self.pos + 8)?.try_into().ok()?);
        self.pos += 8;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let v = u32::from_le_bytes(self.buf.get(self.pos..self.pos + 4)?.try_into().ok()?);
        self.pos += 4;
        Some(v)
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let b = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Entry, NvmeAccess};
    use crate::nvme::NvmeDevice;
    use aquila_sim::FreeCtx;

    fn new_store(ctx: &mut FreeCtx, pages: u64) -> (Blobstore, Arc<dyn StorageAccess>) {
        let dev = Arc::new(NvmeDevice::optane(pages));
        let access: Arc<dyn StorageAccess> = Arc::new(NvmeAccess::new(dev, Entry::Direct));
        (Blobstore::format(ctx, Arc::clone(&access)).unwrap(), access)
    }

    #[test]
    fn create_resize_write_read() {
        let mut ctx = FreeCtx::new(1);
        let (bs, _) = new_store(&mut ctx, 4096);
        let blob = bs.create();
        bs.resize(blob, 2).unwrap();
        assert_eq!(bs.size_pages(blob).unwrap(), 512);

        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        bs.write(&mut ctx, blob, 4090, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        bs.read(&mut ctx, blob, 4090, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_range_io_rejected() {
        let mut ctx = FreeCtx::new(1);
        let (bs, _) = new_store(&mut ctx, 4096);
        let blob = bs.create();
        bs.resize(blob, 1).unwrap();
        let end = PAGES_PER_CLUSTER * STORE_PAGE as u64;
        assert_eq!(
            bs.write(&mut ctx, blob, end - 2, &[1, 2, 3]),
            Err(BlobError::OutOfRange)
        );
    }

    #[test]
    fn delete_frees_clusters() {
        let mut ctx = FreeCtx::new(1);
        let (bs, _) = new_store(&mut ctx, 4096);
        let before = bs.free_clusters();
        let blob = bs.create();
        bs.resize(blob, 3).unwrap();
        assert_eq!(bs.free_clusters(), before - 3);
        bs.delete(blob).unwrap();
        assert_eq!(bs.free_clusters(), before);
        assert_eq!(bs.size_clusters(blob), Err(BlobError::NoSuchBlob));
    }

    #[test]
    fn no_space_rolls_back() {
        let mut ctx = FreeCtx::new(1);
        // Tiny device: MD + ~3 clusters.
        let (bs, _) = new_store(&mut ctx, MD_PAGES + 3 * PAGES_PER_CLUSTER + 10);
        let total = bs.total_clusters();
        let a = bs.create();
        bs.resize(a, total).unwrap();
        let b = bs.create();
        assert_eq!(bs.resize(b, 1), Err(BlobError::NoSpace));
        assert_eq!(bs.free_clusters(), 0);
        bs.delete(a).unwrap();
        assert_eq!(bs.free_clusters(), total);
    }

    #[test]
    fn xattrs_roundtrip() {
        let mut ctx = FreeCtx::new(1);
        let (bs, _) = new_store(&mut ctx, 4096);
        let blob = bs.create();
        bs.set_xattr(blob, "name", b"/data/file.sst").unwrap();
        assert_eq!(
            bs.get_xattr(blob, "name").unwrap().unwrap(),
            b"/data/file.sst"
        );
        assert_eq!(bs.get_xattr(blob, "missing").unwrap(), None);
    }

    #[test]
    fn metadata_survives_reload() {
        let mut ctx = FreeCtx::new(1);
        let dev = Arc::new(NvmeDevice::optane(8192));
        let access: Arc<dyn StorageAccess> = Arc::new(NvmeAccess::new(dev, Entry::Direct));
        let payload = vec![7u8; STORE_PAGE];

        let blob;
        {
            let bs = Blobstore::format(&mut ctx, Arc::clone(&access)).unwrap();
            blob = bs.create();
            bs.resize(blob, 2).unwrap();
            bs.set_xattr(blob, "name", b"persist-me").unwrap();
            bs.write(&mut ctx, blob, 0, &payload).unwrap();
            bs.sync_md(&mut ctx).unwrap();
        }
        let bs2 = Blobstore::load(&mut ctx, Arc::clone(&access)).unwrap();
        assert_eq!(bs2.size_clusters(blob).unwrap(), 2);
        assert_eq!(bs2.get_xattr(blob, "name").unwrap().unwrap(), b"persist-me");
        let mut back = vec![0u8; STORE_PAGE];
        bs2.read(&mut ctx, blob, 0, &mut back).unwrap();
        assert_eq!(back, payload);
        // Allocation state also recovered: new blobs don't collide.
        let other = bs2.create();
        bs2.resize(other, 1).unwrap();
        let mut again = vec![0u8; STORE_PAGE];
        bs2.write(&mut ctx, other, 0, &vec![9u8; STORE_PAGE])
            .unwrap();
        bs2.read(&mut ctx, blob, 0, &mut again).unwrap();
        assert_eq!(again, payload, "new allocations must not overlap old data");
    }

    #[test]
    fn load_unformatted_fails() {
        let mut ctx = FreeCtx::new(1);
        let dev = Arc::new(NvmeDevice::optane(4096));
        let access: Arc<dyn StorageAccess> = Arc::new(NvmeAccess::new(dev, Entry::Direct));
        assert!(matches!(
            Blobstore::load(&mut ctx, access),
            Err(BlobError::NotFormatted)
        ));
    }

    #[test]
    fn lba_translation_is_cluster_aware() {
        let mut ctx = FreeCtx::new(1);
        let (bs, _) = new_store(&mut ctx, 8192);
        let a = bs.create();
        let b = bs.create();
        bs.resize(a, 1).unwrap();
        bs.resize(b, 1).unwrap();
        bs.resize(a, 2).unwrap(); // Non-contiguous second cluster.
        let p0 = bs.lba_page(a, 0).unwrap();
        let p_second = bs.lba_page(a, PAGES_PER_CLUSTER).unwrap();
        // Blob b's cluster sits between a's two clusters.
        assert_eq!(p_second - p0, 2 * PAGES_PER_CLUSTER);
        assert!(bs.lba_page(a, 2 * PAGES_PER_CLUSTER).is_err());
    }
}
