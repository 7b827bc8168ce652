//! The storage environment abstraction: how an LSM store reads and writes
//! its files.
//!
//! RocksDB supports three ways of reading SSTs (section 5): explicit
//! direct I/O with a user-space block cache (the recommended mode), Linux
//! `mmap`, and — after the paper's port — Aquila mmio. One [`Env`] trait
//! makes the store generic over all three, which is exactly the Figure 5
//! experiment.

use std::sync::Arc;

use aquila_sync::{DetMap, Mutex};

use aquila::{Aquila, FileId, Gva, Prot};
use aquila_devices::{Blobstore, StorageAccess, STORE_PAGE};
use aquila_linuxsim::{LinuxFileId, LinuxMmap, UserCache};
use aquila_sim::SimCtx;

/// Which environment a store runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// O_DIRECT read/write syscalls + user-space block cache.
    DirectIo,
    /// Linux `mmap` reads, direct writes.
    LinuxMmap,
    /// Aquila mmio reads, blobstore direct writes.
    AquilaMmio,
}

impl EnvKind {
    /// Display name used by the figure binaries.
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::DirectIo => "read/write+ucache",
            EnvKind::LinuxMmap => "mmap",
            EnvKind::AquilaMmio => "aquila",
        }
    }
}

/// A store-visible file.
pub trait EnvFile: Send + Sync {
    /// File length in pages.
    fn len_pages(&self) -> u64;
    /// Reads one 4 KiB page.
    fn read_page(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]);
    /// Bulk-writes pages starting at `page` (SST creation; large I/Os).
    fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]);
}

/// A storage environment.
pub trait Env: Send + Sync {
    /// The environment kind.
    fn kind(&self) -> EnvKind;
    /// Creates (or truncates) a file of `pages` pages.
    fn create(&self, ctx: &mut dyn SimCtx, name: &str, pages: u64) -> Arc<dyn EnvFile>;
    /// Deletes a file (space accounting only; old handles keep working,
    /// matching POSIX unlink semantics for open files).
    fn delete(&self, ctx: &mut dyn SimCtx, name: &str);
}

// ------------------------------------------------------------------
// Direct I/O + user cache.
// ------------------------------------------------------------------

struct DirectState {
    files: DetMap<String, (u32, u64, u64)>, // name -> (id, base_page, pages)
    next_page: u64,
    next_id: u32,
}

/// The RocksDB-recommended configuration: O_DIRECT + user-space cache.
pub struct DirectIoEnv {
    cache: Arc<UserCache>,
    access: Arc<dyn StorageAccess>,
    state: Mutex<DirectState>,
}

impl DirectIoEnv {
    /// Creates the environment over a direct-I/O access path with a
    /// user-space cache of `cache_blocks` blocks.
    pub fn new(access: Arc<dyn StorageAccess>, cache_blocks: usize) -> DirectIoEnv {
        DirectIoEnv {
            cache: Arc::new(UserCache::new(cache_blocks, 64, Arc::clone(&access))),
            access,
            state: Mutex::new(DirectState {
                files: DetMap::new(),
                next_page: 0,
                next_id: 0,
            }),
        }
    }

    /// The user cache (for hit-rate diagnostics).
    pub fn cache(&self) -> &Arc<UserCache> {
        &self.cache
    }
}

struct DirectFile {
    cache: Arc<UserCache>,
    access: Arc<dyn StorageAccess>,
    id: u32,
    base: u64,
    pages: u64,
}

impl EnvFile for DirectFile {
    fn len_pages(&self) -> u64 {
        self.pages
    }

    fn read_page(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]) {
        assert!(page < self.pages, "read beyond file");
        self.cache.get(ctx, (self.id, page), self.base + page, buf);
    }

    fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) {
        assert!(page + (buf.len() / STORE_PAGE) as u64 <= self.pages);
        self.access
            .write_pages(ctx, self.base + page, buf)
            .expect("SST write within device bounds");
    }
}

impl Env for DirectIoEnv {
    fn kind(&self) -> EnvKind {
        EnvKind::DirectIo
    }

    fn create(&self, _ctx: &mut dyn SimCtx, name: &str, pages: u64) -> Arc<dyn EnvFile> {
        let mut st = self.state.lock();
        let base = st.next_page;
        assert!(
            base + pages <= self.access.capacity_pages(),
            "device full (simple linear allocator)"
        );
        st.next_page += pages;
        let id = st.next_id;
        st.next_id += 1;
        st.files.insert(name.to_string(), (id, base, pages));
        Arc::new(DirectFile {
            cache: Arc::clone(&self.cache),
            access: Arc::clone(&self.access),
            id,
            base,
            pages,
        })
    }

    fn delete(&self, _ctx: &mut dyn SimCtx, name: &str) {
        self.state.lock().files.remove(name);
    }
}

// ------------------------------------------------------------------
// Linux mmap reads.
// ------------------------------------------------------------------

/// RocksDB's mmap mode: reads through Linux mmio, writes via O_DIRECT.
pub struct MmapEnv {
    lm: Arc<LinuxMmap>,
    files: Mutex<DetMap<String, (LinuxFileId, u64, u64)>>, // (file, vpn, pages)
}

impl MmapEnv {
    /// Creates the environment over a Linux mmap engine.
    pub fn new(lm: Arc<LinuxMmap>) -> MmapEnv {
        MmapEnv {
            lm,
            files: Mutex::new(DetMap::new()),
        }
    }

    /// The underlying engine (diagnostics).
    pub fn linux(&self) -> &Arc<LinuxMmap> {
        &self.lm
    }
}

struct MmapFile {
    lm: Arc<LinuxMmap>,
    file: LinuxFileId,
    base_vpn: u64,
    pages: u64,
}

impl EnvFile for MmapFile {
    fn len_pages(&self) -> u64 {
        self.pages
    }

    fn read_page(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]) {
        assert!(page < self.pages, "read beyond file");
        self.lm
            .read(ctx, (self.base_vpn + page) << 12, buf)
            .expect("mapped SST read");
    }

    fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) {
        self.lm
            .pwrite_direct(ctx, self.file, page, buf)
            .expect("SST write");
    }
}

impl Env for MmapEnv {
    fn kind(&self) -> EnvKind {
        EnvKind::LinuxMmap
    }

    fn create(&self, ctx: &mut dyn SimCtx, name: &str, pages: u64) -> Arc<dyn EnvFile> {
        let file = self.lm.open_file(pages).expect("device full");
        let base_vpn = self.lm.mmap(ctx, file, 0, pages, false).expect("mmap SST");
        self.files
            .lock()
            .insert(name.to_string(), (file, base_vpn, pages));
        Arc::new(MmapFile {
            lm: Arc::clone(&self.lm),
            file,
            base_vpn,
            pages,
        })
    }

    fn delete(&self, ctx: &mut dyn SimCtx, name: &str) {
        if let Some((_, vpn, pages)) = self.files.lock().remove(name) {
            self.lm.munmap(ctx, vpn, pages);
        }
    }
}

// ------------------------------------------------------------------
// Aquila mmio reads.
// ------------------------------------------------------------------

/// The Aquila port: mmio reads, blobstore direct writes.
pub struct AquilaEnv {
    aquila: Arc<Aquila>,
    store: Arc<Blobstore>,
    access: Arc<dyn StorageAccess>,
    files: Mutex<DetMap<String, (FileId, Gva, u64)>>,
}

impl AquilaEnv {
    /// Creates the environment over an Aquila engine + blobstore.
    pub fn new(
        aquila: Arc<Aquila>,
        store: Arc<Blobstore>,
        access: Arc<dyn StorageAccess>,
    ) -> AquilaEnv {
        AquilaEnv {
            aquila,
            store,
            access,
            files: Mutex::new(DetMap::new()),
        }
    }

    /// The engine (diagnostics).
    pub fn aquila(&self) -> &Arc<Aquila> {
        &self.aquila
    }
}

struct AquilaFile {
    aquila: Arc<Aquila>,
    file: FileId,
    base: Gva,
    pages: u64,
}

impl EnvFile for AquilaFile {
    fn len_pages(&self) -> u64 {
        self.pages
    }

    fn read_page(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]) {
        assert!(page < self.pages, "read beyond file");
        self.aquila
            .read(ctx, self.base.add(page * 4096), buf)
            .expect("mapped SST read");
    }

    fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) {
        // Intercepted write: function-call cost, straight to the device
        // path through the blobstore mapping.
        self.aquila
            .files()
            .write_pages(ctx, self.file, page, buf)
            .expect("SST write");
    }
}

impl Env for AquilaEnv {
    fn kind(&self) -> EnvKind {
        EnvKind::AquilaMmio
    }

    fn create(&self, ctx: &mut dyn SimCtx, name: &str, pages: u64) -> Arc<dyn EnvFile> {
        let file = self
            .aquila
            .files()
            .open_blob(&self.store, &self.access, name, pages)
            .expect("blob create");
        // Map read-only: the store writes through the direct path. Like
        // RocksDB's `advise_random_on_open`, SSTs are point-lookup files,
        // so readahead is disabled (the paper's mmap mode lacks this
        // control — its forced 128 KiB readahead is the Figure 5(b)
        // collapse).
        let base = self
            .aquila
            .mmap(ctx, file, 0, pages, Prot::READ)
            .expect("mmap SST");
        self.aquila
            .madvise(ctx, base, pages, aquila::Advice::Random)
            .expect("madvise SST");
        self.files
            .lock()
            .insert(name.to_string(), (file, base, pages));
        Arc::new(AquilaFile {
            aquila: Arc::clone(&self.aquila),
            file,
            base,
            pages,
        })
    }

    fn delete(&self, ctx: &mut dyn SimCtx, name: &str) {
        if let Some((_, base, pages)) = self.files.lock().remove(name) {
            let _ = self.aquila.munmap(ctx, base, pages);
        }
    }
}

/// Convenience alias used across the store code.
pub type DynEnv = Arc<dyn Env>;

#[cfg(test)]
mod tests {
    use super::*;
    use aquila::{AquilaRuntime, DeviceKind};
    use aquila_devices::{CallDomain, Entry, PmemAccess, PmemDevice};
    use aquila_linuxsim::{KernelDevice, LinuxConfig};
    use aquila_sim::{CoreDebts, FreeCtx};

    fn all_envs(ctx: &mut FreeCtx) -> Vec<DynEnv> {
        let debts = Arc::new(CoreDebts::new(1));
        // Direct I/O.
        let pmem = Arc::new(PmemDevice::dram_backed(16384));
        let access: Arc<dyn StorageAccess> =
            Arc::new(PmemAccess::new(pmem, Entry::Host(CallDomain::User)));
        let direct: DynEnv = Arc::new(DirectIoEnv::new(access, 256));
        // Linux mmap.
        let kdev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16384)));
        let lm = Arc::new(LinuxMmap::new(
            LinuxConfig::linux(1, 256),
            kdev,
            Arc::clone(&debts),
        ));
        let mmap: DynEnv = Arc::new(MmapEnv::new(lm));
        // Aquila.
        let rt = AquilaRuntime::build(ctx, DeviceKind::PmemDax, 65536, 256, 1, debts);
        let aq: DynEnv = Arc::new(AquilaEnv::new(
            Arc::clone(&rt.aquila),
            Arc::clone(&rt.store),
            Arc::clone(&rt.access),
        ));
        vec![direct, mmap, aq]
    }

    #[test]
    fn every_env_roundtrips_pages() {
        let mut ctx = FreeCtx::new(11);
        for env in all_envs(&mut ctx) {
            let f = env.create(&mut ctx, "t.sst", 64);
            assert!(f.len_pages() >= 64);
            let data: Vec<u8> = (0..8 * 4096).map(|i| (i % 239) as u8).collect();
            f.write_pages(&mut ctx, 4, &data);
            let mut page = vec![0u8; 4096];
            f.read_page(&mut ctx, 5, &mut page);
            assert_eq!(&page[..], &data[4096..8192], "{:?}", env.kind());
            env.delete(&mut ctx, "t.sst");
        }
    }

    #[test]
    fn env_kinds_distinct() {
        let mut ctx = FreeCtx::new(11);
        let kinds: Vec<EnvKind> = all_envs(&mut ctx).iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![EnvKind::DirectIo, EnvKind::LinuxMmap, EnvKind::AquilaMmio]
        );
        assert_eq!(EnvKind::DirectIo.name(), "read/write+ucache");
    }

    #[test]
    fn direct_env_repeat_reads_hit_user_cache() {
        let mut ctx = FreeCtx::new(11);
        let pmem = Arc::new(PmemDevice::dram_backed(4096));
        let access: Arc<dyn StorageAccess> =
            Arc::new(PmemAccess::new(pmem, Entry::Host(CallDomain::User)));
        let env = DirectIoEnv::new(access, 128);
        let f = Env::create(&env, &mut ctx, "x", 16);
        let mut buf = vec![0u8; 4096];
        f.read_page(&mut ctx, 0, &mut buf);
        f.read_page(&mut ctx, 0, &mut buf);
        let (hits, misses) = env.cache().stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn aquila_env_repeat_reads_are_tlb_hits() {
        let mut ctx = FreeCtx::new(11);
        let debts = Arc::new(CoreDebts::new(1));
        let rt = AquilaRuntime::build(&mut ctx, DeviceKind::PmemDax, 8192, 128, 1, debts);
        let env = AquilaEnv::new(
            Arc::clone(&rt.aquila),
            Arc::clone(&rt.store),
            Arc::clone(&rt.access),
        );
        let f = Env::create(&env, &mut ctx, "y", 16);
        let mut buf = vec![0u8; 4096];
        f.read_page(&mut ctx, 3, &mut buf);
        let t0 = ctx.now();
        f.read_page(&mut ctx, 3, &mut buf);
        assert_eq!(ctx.now(), t0, "repeat mmio read is free (TLB hit)");
    }
}
