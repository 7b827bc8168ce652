//! The Linux `mmap` baseline (and Kreon's `kmmap` variant).
//!
//! Reproduces the documented behaviours the paper measures against:
//!
//! - page faults trap from ring 3 to ring 0 (1287 cycles);
//! - `mmap_sem` is taken for reading on every fault;
//! - the page-cache radix tree has a single lock, also needed to mark
//!   pages dirty (see [`crate::pagecache`]);
//! - file faults read ahead 128 KiB (32 pages) even for 1 KiB requests —
//!   the pathology behind Figure 5(b);
//! - shared file mappings track dirtying via write-protect faults
//!   (`page_mkwrite`);
//! - reclaim takes 32 pages at a time and unmaps them with one TLB
//!   shootdown round.
//!
//! Translation, unmapping and shootdowns run on [`aquila_mmu::Mmu`], the
//! MMU model Aquila uses, with the native IPI send of a kernel in root
//! mode: TLB misses walk the page table, and a shootdown invalidates
//! every core's TLB and charges `invlpg` work and one 298-cycle send.
//!
//! With [`LinuxConfig::kmmap`] the engine becomes Kreon's custom kernel
//! path: no forced readahead, lazy coalesced writeback, and a batched
//! custom `msync` — but still kernel traps and the shared cache locks
//! (kmmap "does not address scalability issues with the number of user
//! threads", section 7.2).

use std::ops::Range;
use std::sync::Arc;

use aquila_mmu::{Access, ApicFabric, Gpa, Mmu, PteFlags, TlbFabric, Vpn, PAGE_SIZE};
use aquila_sync::{DetMap, Mutex};

use aquila_sim::{race, CoreDebts, CostCat, Cycles, SimCtx, SimRwLock};

use crate::device::KernelDevice;
use crate::pagecache::{KVictim, KernelPageCache, Key};

/// `mmap_sem` read-side hold time on the fault path.
const RWSEM_HOLD: Cycles = Cycles(80);
/// kmmap: dirty fraction of the cache that triggers a synchronous
/// lazy-writeback flush on the faulting thread. It follows the kernel's
/// dirty thresholds (10-20% of memory); the flush landing on one unlucky
/// fault is the writeback burstiness the paper measures as kmmap's tail
/// latency.
const KMMAP_FLUSH_RATIO: f64 = 0.10;

// Race-detector identities (`aquila_sim::race`). Canonical acquisition
// order within the engine: files -> vmas -> rmap (declared in
// [`LinuxMmap::new`], checked statically by AQ004 and dynamically by the
// detector's rank table). `rmap` is never held across an `Mmu` call, so
// no order edge joins it to the page-table shard or TLB locks.
// `next_vpn`/`next_dev_page` are leaf counters never held across another
// lock, so they carry no rank. Setup-phase mutations without a `SimCtx`
// (`open_file`) are outside the detector's view.
const LOCK_FILES: race::LockKey = ("linuxsim.files", 0);
const LOCK_VMAS: race::LockKey = ("linuxsim.vmas", 0);
const LOCK_RMAP: race::LockKey = ("linuxsim.rmap", 0);
const VAR_FILES: race::VarKey = ("linuxsim.files.table", 0);
const VAR_VMAS: race::VarKey = ("linuxsim.vmas.list", 0);
const VAR_RMAP: race::VarKey = ("linuxsim.rmap.map", 0);

/// Errors from the Linux baseline engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinuxError {
    /// Access to an unmapped address.
    Segfault(u64),
    /// Write to a read-only mapping.
    Protection(u64),
    /// Unknown file.
    BadFile,
    /// Device exhausted.
    NoSpace,
}

/// A file on the simulated device (linear allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinuxFileId(pub u32);

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct LinuxConfig {
    /// Simulated cores.
    pub cores: usize,
    /// Kernel page-cache frames.
    pub cache_frames: usize,
    /// Fault readahead window in pages (Linux default: 32 = 128 KiB).
    pub readahead_pages: usize,
    /// Kreon `kmmap` mode: no forced readahead, lazy coalesced writeback,
    /// custom batched `msync`.
    pub kmmap: bool,
}

impl LinuxConfig {
    /// Vanilla Linux mmap.
    pub fn linux(cores: usize, cache_frames: usize) -> LinuxConfig {
        LinuxConfig {
            cores,
            cache_frames,
            readahead_pages: 32,
            kmmap: false,
        }
    }

    /// Kreon's kmmap: once 10% of the cache is dirty, a synchronous flush
    /// lands on the faulting thread.
    pub fn kmmap(cores: usize, cache_frames: usize) -> LinuxConfig {
        LinuxConfig {
            cores,
            cache_frames,
            readahead_pages: 0,
            kmmap: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Vma {
    start: u64,
    pages: u64,
    file: u32,
    file_page: u64,
    writable: bool,
}

#[derive(Debug, Clone, Copy)]
struct FileDesc {
    base_page: u64,
    pages: u64,
}

/// The Linux mmio baseline engine.
pub struct LinuxMmap {
    cfg: LinuxConfig,
    cache: KernelPageCache,
    dev: KernelDevice,
    mmap_sem: SimRwLock,
    vmas: Mutex<Vec<Vma>>,
    /// Page table and TLBs; shootdowns send native IPIs.
    mmu: Mmu,
    /// Reverse map: cached page -> virtual pages mapping it.
    rmap: Mutex<DetMap<Key, Vec<u64>>>,
    files: Mutex<Vec<FileDesc>>,
    next_vpn: Mutex<u64>,
    next_dev_page: Mutex<u64>,
}

impl LinuxMmap {
    /// Creates the baseline over a kernel device.
    pub fn new(cfg: LinuxConfig, dev: KernelDevice, debts: Arc<CoreDebts>) -> LinuxMmap {
        race::declare_order(
            "linuxsim",
            &["linuxsim.files", "linuxsim.vmas", "linuxsim.rmap"],
        );
        LinuxMmap {
            cache: KernelPageCache::new(cfg.cache_frames),
            mmap_sem: SimRwLock::new(),
            vmas: Mutex::new(Vec::new()),
            mmu: Mmu::new(TlbFabric::new(cfg.cores, ApicFabric::native()), debts),
            rmap: Mutex::new(DetMap::new()),
            files: Mutex::new(Vec::new()),
            next_vpn: Mutex::new(0x10_0000),
            next_dev_page: Mutex::new(0),
            cfg,
            dev,
        }
    }

    /// The kernel page cache (diagnostics).
    pub fn cache(&self) -> &KernelPageCache {
        &self.cache
    }

    /// Resets lock timing models (between experiment phases).
    pub fn reset_timing(&self) {
        self.mmap_sem.reset();
        self.cache.reset_timing();
        self.mmu.page_table.reset_timing();
    }

    /// Allocates a file of `pages` pages on the device.
    pub fn open_file(&self, pages: u64) -> Result<LinuxFileId, LinuxError> {
        let mut next = self.next_dev_page.lock();
        if *next + pages > self.dev.capacity_pages() {
            return Err(LinuxError::NoSpace);
        }
        let mut files = self.files.lock();
        let id = LinuxFileId(files.len() as u32);
        files.push(FileDesc {
            base_page: *next,
            pages,
        });
        *next += pages;
        Ok(id)
    }

    /// Maps `pages` pages of `file` starting at `offset_page`; returns the
    /// base virtual page number. Takes `mmap_sem` for writing.
    pub fn mmap(
        &self,
        ctx: &mut dyn SimCtx,
        file: LinuxFileId,
        offset_page: u64,
        pages: u64,
        writable: bool,
    ) -> Result<u64, LinuxError> {
        race::acquire(ctx, LOCK_FILES);
        let flen = self.files.lock().get(file.0 as usize).map(|f| f.pages);
        race::read(ctx, VAR_FILES);
        race::release(ctx, LOCK_FILES);
        let flen = flen.ok_or(LinuxError::BadFile)?;
        if offset_page + pages > flen {
            return Err(LinuxError::BadFile);
        }
        let c = ctx.cost().syscall_entry_exit;
        ctx.charge(CostCat::Syscall, c);
        ctx.counters().syscalls += 1;
        let r = self.mmap_sem.acquire_write(ctx.now(), Cycles(1200));
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::Syscall);
        let start = {
            let mut nv = self.next_vpn.lock();
            let s = *nv;
            *nv += pages + 16;
            s
        };
        race::acquire(ctx, LOCK_VMAS);
        self.vmas.lock().push(Vma {
            start,
            pages,
            file: file.0,
            file_page: offset_page,
            writable,
        });
        race::write(ctx, VAR_VMAS);
        race::release(ctx, LOCK_VMAS);
        Ok(start)
    }

    /// Unmaps a range, writing nothing back (cached pages persist).
    pub fn munmap(&self, ctx: &mut dyn SimCtx, start_vpn: u64, pages: u64) {
        let c = ctx.cost().syscall_entry_exit;
        ctx.charge(CostCat::Syscall, c);
        ctx.counters().syscalls += 1;
        let r = self.mmap_sem.acquire_write(ctx.now(), Cycles(1500));
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::Syscall);
        race::acquire(ctx, LOCK_VMAS);
        let gone = {
            let mut vmas = self.vmas.lock();
            let at = vmas
                .iter()
                .position(|v| v.start == start_vpn && v.pages == pages);
            at.map(|i| vmas.remove(i))
        };
        race::write(ctx, VAR_VMAS);
        race::release(ctx, LOCK_VMAS);
        // One shootdown round for the whole unmap (Linux batches range
        // unmaps); then each dropped page leaves its file page's rmap
        // list.
        let mut dropped = Vec::new();
        self.mmu.unmap(ctx, &vpn_range(start_vpn, pages), |vpn, _| {
            dropped.push(vpn)
        });
        let Some(vma) = gone else { return };
        race::acquire(ctx, LOCK_RMAP);
        let mut rmap = self.rmap.lock();
        for vpn in dropped {
            let key = (vma.file, vma.file_page + (vpn.0 - vma.start));
            if let Some(list) = rmap.get_mut(&key) {
                list.retain(|&p| p != vpn.0);
            }
        }
        drop(rmap);
        race::write(ctx, VAR_RMAP);
        race::release(ctx, LOCK_RMAP);
    }

    /// Reads through the mapping, faulting as needed.
    pub fn read(&self, ctx: &mut dyn SimCtx, addr: u64, buf: &mut [u8]) -> Result<(), LinuxError> {
        self.access(ctx, addr, buf.len(), false, |frame, off, r| {
            self.cache.read_frame(frame, off, &mut buf[r]);
        })
    }

    /// Writes through the mapping, faulting (and dirty-tracking) as
    /// needed.
    pub fn write(&self, ctx: &mut dyn SimCtx, addr: u64, buf: &[u8]) -> Result<(), LinuxError> {
        self.access(ctx, addr, buf.len(), true, |frame, off, r| {
            self.cache.write_frame(frame, off, &buf[r]);
        })
    }

    /// Translates `[addr, addr + len)` page by page and runs `op` with
    /// each page's frame, offset in the frame, and range in the buffer.
    fn access(
        &self,
        ctx: &mut dyn SimCtx,
        addr: u64,
        len: usize,
        write: bool,
        mut op: impl FnMut(u32, usize, Range<usize>),
    ) -> Result<(), LinuxError> {
        let mut done = 0usize;
        while done < len {
            let a = addr + done as u64;
            let off = (a & 0xFFF) as usize;
            let chunk = (4096 - off).min(len - done);
            op(
                self.translate(ctx, a >> 12, write)?,
                off,
                done..done + chunk,
            );
            done += chunk;
        }
        Ok(())
    }

    fn translate(&self, ctx: &mut dyn SimCtx, vpn: u64, write: bool) -> Result<u32, LinuxError> {
        let access = if write { Access::Write } else { Access::Read };
        for _ in 0..4 {
            match self.mmu.translate(ctx, Vpn(vpn).base(), access) {
                Ok(gpa) => return Ok((gpa.get() / PAGE_SIZE) as u32),
                Err(_) => self.fault(ctx, vpn, write)?,
            }
        }
        Err(LinuxError::Segfault(vpn << 12))
    }

    /// The mapping that covers `vpn`.
    fn vma_at(&self, ctx: &mut dyn SimCtx, vpn: u64) -> Result<Vma, LinuxError> {
        race::acquire(ctx, LOCK_VMAS);
        let vma = self
            .vmas
            .lock()
            .iter()
            .find(|v| (v.start..v.start + v.pages).contains(&vpn))
            .copied();
        race::read(ctx, VAR_VMAS);
        race::release(ctx, LOCK_VMAS);
        vma.ok_or(LinuxError::Segfault(vpn << 12))
    }

    fn fault(&self, ctx: &mut dyn SimCtx, vpn: u64, write: bool) -> Result<(), LinuxError> {
        ctx.counters().page_faults += 1;
        let sp = aquila_sim::span::begin(ctx, "linux.fault", CostCat::FaultHandler);
        let res = self.fault_service(ctx, vpn, write);
        aquila_sim::span::end(ctx, sp);
        res
    }

    fn fault_service(&self, ctx: &mut dyn SimCtx, vpn: u64, write: bool) -> Result<(), LinuxError> {
        // Ring-3 -> ring-0 protection domain switch.
        let trap = ctx.cost().trap_ring3;
        ctx.charge(CostCat::Trap, trap);
        // mmap_sem read side.
        let r = self.mmap_sem.acquire_read(ctx.now(), RWSEM_HOLD);
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::FaultHandler);
        // VMA lookup on the rb-tree.
        ctx.charge(CostCat::FaultHandler, Cycles(150));
        let vma = self.vma_at(ctx, vpn)?;
        if write && !vma.writable {
            return Err(LinuxError::Protection(vpn << 12));
        }
        let body = ctx.cost().linux_fault_body;
        ctx.charge(CostCat::FaultHandler, body);

        let file_page = vma.file_page + (vpn - vma.start);
        let key: Key = (vma.file, file_page);

        // Write-protect fault on an already-present page: `page_mkwrite`.
        if let Some((pte, _)) = self.mmu.page_table.lookup_leaf(Vpn(vpn).base()) {
            if write && !pte.flags.writable {
                self.mmu.upgrade(ctx, Vpn(vpn), PteFlags::RW);
                self.cache.mark_dirty(ctx, key);
            }
            ctx.counters().minor_faults += 1;
            return Ok(());
        }

        // Page-cache lookup (tree lock).
        if let Some(frame) = self.cache.lookup(ctx, key) {
            ctx.counters().minor_faults += 1;
            self.install(ctx, vpn, key, frame, write);
            return Ok(());
        }

        ctx.counters().major_faults += 1;
        // Fault fill with Linux's forced readahead window.
        let ra = self.cfg.readahead_pages.max(1) as u64;
        let end = (vma.file_page + vma.pages).min(file_page + ra);
        let count = (end - file_page).max(1) as usize;
        // Memory pressure: batched kswapd-style reclaim (32 pages, one
        // shootdown round) before filling.
        if self.cache.free_count() < count {
            let victims = self.cache.reclaim(ctx, count.max(32));
            self.finish_victims(ctx, &victims)?;
        }
        let base_dev = self.file_dev_page(vma.file, file_page)?;
        let mut data = vec![0u8; count * 4096];
        self.dev.read_pages(ctx, base_dev, &mut data);
        if count > 1 {
            ctx.counters().readahead_pages += (count - 1) as u64;
        }
        let mut my_frame = None;
        for (i, chunk) in data.chunks(4096).enumerate() {
            let k: Key = (vma.file, file_page + i as u64);
            let (frame, victim, was_present) = self.cache.insert(ctx, k);
            if let Some(v) = victim {
                self.finish_victims(ctx, &[v])?;
            }
            // Never clobber an already-cached page: it may hold dirty data
            // newer than the device copy.
            if !was_present {
                self.cache.write_frame(frame, 0, chunk);
            }
            if i == 0 {
                my_frame = Some(frame);
            }
        }
        let frame = my_frame.expect("count >= 1");
        self.install(ctx, vpn, key, frame, write);
        // kmmap's lazy writeback: flush a chunk when dirty pages pile up.
        if self.cfg.kmmap {
            self.kmmap_lazy_flush(ctx)?;
        }
        Ok(())
    }

    /// Maps `vpn` to `frame`. The TLB fills when the faulting access
    /// retries, through the walk.
    fn install(&self, ctx: &mut dyn SimCtx, vpn: u64, key: Key, frame: u32, write: bool) {
        let flags = if write { PteFlags::RW } else { PteFlags::RO };
        // Frame `f` sits at GPA `f * PAGE_SIZE`.
        self.mmu.page_table.with(ctx, Vpn(vpn), |pt| {
            pt.map(Vpn(vpn).base(), Gpa(u64::from(frame) * PAGE_SIZE), flags);
        });
        race::acquire(ctx, LOCK_RMAP);
        self.rmap.lock().entry(key).or_default().push(vpn);
        race::write(ctx, VAR_RMAP);
        race::release(ctx, LOCK_RMAP);
        if write {
            self.cache.mark_dirty(ctx, key);
        }
    }

    /// Unmaps reclaimed pages (one shootdown round per batch, as the
    /// kernel's TLB-flush batching does) and writes dirty ones back
    /// page-at-a-time.
    fn finish_victims(&self, ctx: &mut dyn SimCtx, victims: &[KVictim]) -> Result<(), LinuxError> {
        race::acquire(ctx, LOCK_RMAP);
        let mut rmap = self.rmap.lock();
        let vpns: Vec<Vpn> = victims
            .iter()
            .flat_map(|v| rmap.remove(&v.key).unwrap_or_default())
            .map(Vpn)
            .collect();
        drop(rmap);
        race::write(ctx, VAR_RMAP);
        race::release(ctx, LOCK_RMAP);
        self.mmu.unmap(ctx, &vpns, |_, _| {});
        for v in victims {
            if v.dirty {
                let dev_page = self.file_dev_page(v.key.0, v.key.1)?;
                self.cache.with_frames(&[v.frame], |pages| {
                    self.dev.write_page_list(ctx, dev_page, pages)
                });
                ctx.counters().writebacks += 1;
            }
        }
        Ok(())
    }

    fn kmmap_lazy_flush(&self, ctx: &mut dyn SimCtx) -> Result<(), LinuxError> {
        let threshold = (self.cfg.cache_frames as f64 * KMMAP_FLUSH_RATIO) as usize;
        if self.cache.dirty_count() <= threshold {
            return Ok(());
        }
        // Flush all dirty pages; this lands on the unlucky faulting
        // thread (the writeback burstiness the paper reports). Scattered
        // dirty pages coalesce poorly, so runs are whatever the dirty set
        // offers.
        race::acquire(ctx, LOCK_FILES);
        let files: usize = self.files.lock().len();
        race::read(ctx, VAR_FILES);
        race::release(ctx, LOCK_FILES);
        for f in 0..files as u32 {
            self.msync_file(ctx, f, 0, u64::MAX, true)?;
        }
        Ok(())
    }

    /// `msync` over a virtual range.
    pub fn msync(
        &self,
        ctx: &mut dyn SimCtx,
        start_vpn: u64,
        pages: u64,
    ) -> Result<(), LinuxError> {
        let c = ctx.cost().syscall_entry_exit;
        ctx.charge(CostCat::Syscall, c);
        ctx.counters().syscalls += 1;
        let vma = self.vma_at(ctx, start_vpn)?;
        let fp0 = vma.file_page + (start_vpn - vma.start);
        self.msync_file(ctx, vma.file, fp0, fp0 + pages, self.cfg.kmmap)?;
        // Downgrade written-back mappings so future writes re-fault.
        self.mmu.write_protect(ctx, &vpn_range(start_vpn, pages));
        Ok(())
    }

    fn msync_file(
        &self,
        ctx: &mut dyn SimCtx,
        file: u32,
        start: u64,
        end: u64,
        coalesce: bool,
    ) -> Result<(), LinuxError> {
        let dirty = self.cache.dirty_range(ctx, file, start, end);
        // kmmap merges contiguous pages into large I/Os; vanilla writes
        // back page at a time.
        let mut i = 0usize;
        while i < dirty.len() {
            let mut run = 1usize;
            while coalesce
                && i + run < dirty.len()
                && dirty[i + run].0 .1 == dirty[i].0 .1 + run as u64
            {
                run += 1;
            }
            let frames: Vec<u32> = dirty[i..i + run].iter().map(|&(_, f)| f).collect();
            let dev_page = self.file_dev_page(file, dirty[i].0 .1)?;
            self.cache.with_frames(&frames, |pages| {
                self.dev.write_page_list(ctx, dev_page, pages)
            });
            for &(k, _) in &dirty[i..i + run] {
                self.cache.clear_dirty(ctx, k);
                ctx.counters().writebacks += 1;
            }
            i += run;
        }
        Ok(())
    }

    /// Direct-I/O positional write (`pwrite` with O_DIRECT): one syscall
    /// for the whole buffer, bypassing the page cache. Used by LSM stores
    /// for SST creation.
    pub fn pwrite_direct(
        &self,
        ctx: &mut dyn SimCtx,
        file: LinuxFileId,
        page: u64,
        buf: &[u8],
    ) -> Result<(), LinuxError> {
        let c = ctx.cost().syscall_entry_exit + ctx.cost().host_directio_sw;
        ctx.charge(CostCat::Syscall, c);
        ctx.counters().syscalls += 1;
        let dev_page = self.file_dev_page(file.0, page)?;
        self.dev.write_pages(ctx, dev_page, buf);
        Ok(())
    }

    fn file_dev_page(&self, file: u32, page: u64) -> Result<u64, LinuxError> {
        let files = self.files.lock();
        let fd = files.get(file as usize).ok_or(LinuxError::BadFile)?;
        if page >= fd.pages {
            return Err(LinuxError::BadFile);
        }
        Ok(fd.base_page + page)
    }
}

/// The pages `[start, start + pages)`.
fn vpn_range(start: u64, pages: u64) -> Vec<Vpn> {
    (start..start + pages).map(Vpn).collect()
}

impl core::fmt::Debug for LinuxMmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LinuxMmap {{ kmmap: {}, cache: {:?} }}",
            self.cfg.kmmap, self.cache
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagecache::TREE_HOLD;
    use aquila_devices::PmemDevice;
    use aquila_sim::FreeCtx;

    fn engine(frames: usize) -> (FreeCtx, LinuxMmap) {
        let ctx = FreeCtx::new(3);
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(4096)));
        let debts = Arc::new(CoreDebts::new(2));
        let lm = LinuxMmap::new(LinuxConfig::linux(2, frames), dev, debts);
        (ctx, lm)
    }

    #[test]
    fn mmap_read_write_roundtrip() {
        let (mut ctx, lm) = engine(256);
        let f = lm.open_file(128).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 128, true).unwrap();
        lm.write(&mut ctx, vpn << 12, b"linux data").unwrap();
        let mut back = [0u8; 10];
        lm.read(&mut ctx, vpn << 12, &mut back).unwrap();
        assert_eq!(&back, b"linux data");
    }

    #[test]
    fn fault_pays_ring3_trap() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(64).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 64, true).unwrap();
        let mut b = [0u8; 1];
        lm.read(&mut ctx, vpn << 12, &mut b).unwrap();
        assert_eq!(
            ctx.breakdown.get(CostCat::Trap),
            Cycles(1287 * ctx.stats.page_faults)
        );
    }

    #[test]
    fn forced_readahead_fetches_32_pages() {
        let (mut ctx, lm) = engine(256);
        let f = lm.open_file(128).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 128, false).unwrap();
        let mut b = [0u8; 1];
        lm.read(&mut ctx, vpn << 12, &mut b).unwrap();
        assert_eq!(ctx.stats.readahead_pages, 31, "128 KiB window");
        assert!(ctx.stats.bytes_read >= 32 * 4096);
        // The next 31 pages fault minor (already cached).
        let major = ctx.stats.major_faults;
        lm.read(&mut ctx, (vpn + 5) << 12, &mut b).unwrap();
        assert_eq!(ctx.stats.major_faults, major);
    }

    #[test]
    fn kmmap_disables_readahead() {
        let mut ctx = FreeCtx::new(3);
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(4096)));
        let debts = Arc::new(CoreDebts::new(2));
        let lm = LinuxMmap::new(LinuxConfig::kmmap(2, 64), dev, debts);
        let f = lm.open_file(64).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 64, false).unwrap();
        let mut b = [0u8; 1];
        lm.read(&mut ctx, vpn << 12, &mut b).unwrap();
        assert_eq!(ctx.stats.readahead_pages, 0);
    }

    #[test]
    fn write_tracking_via_page_mkwrite() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(8).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 8, true).unwrap();
        let mut b = [0u8; 1];
        lm.read(&mut ctx, vpn << 12, &mut b).unwrap();
        assert_eq!(lm.cache().dirty_count(), 0);
        let faults = ctx.stats.page_faults;
        lm.write(&mut ctx, vpn << 12, &[9]).unwrap();
        assert!(ctx.stats.page_faults > faults, "page_mkwrite fault");
        assert_eq!(lm.cache().dirty_count(), 1);
    }

    #[test]
    fn eviction_writes_back_and_preserves_data() {
        let (mut ctx, lm) = engine(40); // Smaller than the working set.
        let f = lm.open_file(128).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 128, true).unwrap();
        for p in 0..128u64 {
            lm.write(&mut ctx, (vpn + p) << 12, &[p as u8]).unwrap();
        }
        assert!(ctx.stats.evictions > 0);
        for p in 0..128u64 {
            let mut b = [0u8; 1];
            lm.read(&mut ctx, (vpn + p) << 12, &mut b).unwrap();
            assert_eq!(b[0], p as u8, "page {p}");
        }
    }

    #[test]
    fn reclaim_counts_one_invalidation_per_unmapped_page() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(128).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 128, false).unwrap();
        let mut b = [0u8; 1];
        // Two readahead windows fill the cache; every page is mapped.
        for p in 0..64u64 {
            lm.read(&mut ctx, (vpn + p) << 12, &mut b).unwrap();
        }
        assert_eq!(ctx.stats.evictions, 0);
        assert_eq!(ctx.stats.tlb_invalidations, 0);
        // The next window reclaims a batch of mapped pages in one round.
        lm.read(&mut ctx, (vpn + 64) << 12, &mut b).unwrap();
        assert_eq!(ctx.stats.evictions, 32);
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 32);
        // munmap invalidates the 33 pages still mapped, in one round.
        lm.munmap(&mut ctx, vpn, 128);
        assert_eq!(ctx.stats.tlb_shootdowns, 2);
        assert_eq!(ctx.stats.tlb_invalidations, 65);
    }

    #[test]
    fn msync_flushes_and_retracks() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(16).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 16, true).unwrap();
        lm.write(&mut ctx, vpn << 12, &[1]).unwrap();
        assert!(lm.cache().dirty_count() >= 1);
        lm.msync(&mut ctx, vpn, 16).unwrap();
        assert_eq!(lm.cache().dirty_count(), 0);
        assert!(ctx.stats.writebacks >= 1);
        // Next write re-faults.
        let faults = ctx.stats.page_faults;
        lm.write(&mut ctx, vpn << 12, &[2]).unwrap();
        assert!(ctx.stats.page_faults > faults);
    }

    #[test]
    fn msync_of_a_clean_range_shoots_nothing_down() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(16).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 16, true).unwrap();
        lm.write(&mut ctx, vpn << 12, &[1]).unwrap();
        lm.msync(&mut ctx, vpn, 16).unwrap();
        // Only the one writable PTE turned read-only.
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 1);
        let now = ctx.now();
        lm.msync(&mut ctx, vpn, 16).unwrap();
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 1);
        let syscall = ctx.cost().syscall_entry_exit;
        assert_eq!(ctx.now(), now + syscall + TREE_HOLD * 4);
    }

    /// A 2-core engine over a 128-page file whose page `p` holds `p + 1`
    /// in every byte, mapped read-only; and a context per core.
    fn two_cores(frames: usize) -> (LinuxMmap, u64, [FreeCtx; 2]) {
        let (_, lm) = engine(frames);
        let mut cores = [
            FreeCtx::new(1).with_core(0, 2),
            FreeCtx::new(2).with_core(1, 2),
        ];
        let f = lm.open_file(128).unwrap();
        let bytes: Vec<u8> = (0..128u8).flat_map(|p| [p + 1; 4096]).collect();
        lm.pwrite_direct(&mut cores[0], f, 0, &bytes).unwrap();
        let vpn = lm.mmap(&mut cores[0], f, 0, 128, false).unwrap();
        (lm, vpn, cores)
    }

    #[test]
    fn munmap_shoots_down_another_cores_translation() {
        let (lm, vpn, [mut core0, mut core1]) = two_cores(256);
        let mut b = [0u8; 1];
        lm.read(&mut core1, vpn << 12, &mut b).unwrap();
        assert_eq!(b[0], 1);
        lm.munmap(&mut core0, vpn, 128);
        assert_eq!(core0.stats.tlb_shootdowns, 1);
        assert_eq!(
            lm.read(&mut core1, vpn << 12, &mut b),
            Err(LinuxError::Segfault(vpn << 12))
        );
    }

    #[test]
    fn reclaim_shoots_down_a_reused_frames_translation() {
        let (lm, vpn, [mut core0, mut core1]) = two_cores(64);
        let mut b = [0u8; 1];
        lm.read(&mut core1, vpn << 12, &mut b).unwrap();
        assert_eq!(b[0], 1);
        // Two more readahead windows: the second reclaims pages 0-31
        // and refills their frames with pages 64-95.
        lm.read(&mut core0, (vpn + 32) << 12, &mut b).unwrap();
        lm.read(&mut core0, (vpn + 64) << 12, &mut b).unwrap();
        assert_eq!(b[0], 65);
        assert_eq!(core0.stats.evictions, 32);
        assert_eq!(core0.stats.tlb_shootdowns, 1);
        let faults = core1.stats.page_faults;
        lm.read(&mut core1, vpn << 12, &mut b).unwrap();
        assert_eq!(core1.stats.page_faults, faults + 1, "re-faults");
        assert_eq!(b[0], 1, "the file's bytes, not the frame's new page");
    }

    #[test]
    fn a_mapped_page_walks_once_then_hits() {
        let (lm, vpn, [_, mut core1]) = two_cores(256);
        let mut b = [0u8; 1];
        lm.read(&mut core1, vpn << 12, &mut b).unwrap();
        // The retry after the fault misses the TLB and walks four levels.
        let walk = Cycles(4 * core1.cost().radix_level.get());
        assert_eq!(core1.breakdown.get(CostCat::Tlb), walk);
        let (faults, now) = (core1.stats.page_faults, core1.now());
        lm.read(&mut core1, (vpn << 12) + 100, &mut b).unwrap();
        assert_eq!(core1.stats.page_faults, faults);
        assert_eq!(core1.breakdown.get(CostCat::Tlb), walk);
        assert_eq!(core1.now(), now, "a TLB hit is free");
    }

    #[test]
    fn segfault_and_protection_errors() {
        let (mut ctx, lm) = engine(64);
        let mut b = [0u8; 1];
        assert!(matches!(
            lm.read(&mut ctx, 0xdead000, &mut b),
            Err(LinuxError::Segfault(_))
        ));
        let f = lm.open_file(8).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 8, false).unwrap();
        assert!(matches!(
            lm.write(&mut ctx, vpn << 12, &[1]),
            Err(LinuxError::Protection(_))
        ));
    }

    #[test]
    fn munmap_keeps_cache_hot() {
        let (mut ctx, lm) = engine(64);
        let f = lm.open_file(8).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 8, false).unwrap();
        let mut b = [0u8; 1];
        lm.read(&mut ctx, vpn << 12, &mut b).unwrap();
        let major = ctx.stats.major_faults;
        lm.munmap(&mut ctx, vpn, 8);
        let vpn2 = lm.mmap(&mut ctx, f, 0, 8, false).unwrap();
        lm.read(&mut ctx, vpn2 << 12, &mut b).unwrap();
        assert_eq!(ctx.stats.major_faults, major, "page cache survived munmap");
    }

    #[test]
    fn kmmap_lazy_flush_triggers_under_dirty_pressure() {
        let mut ctx = FreeCtx::new(3);
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(4096)));
        let debts = Arc::new(CoreDebts::new(1));
        let lm = LinuxMmap::new(LinuxConfig::kmmap(1, 64), dev, debts);
        let f = lm.open_file(64).unwrap();
        let vpn = lm.mmap(&mut ctx, f, 0, 64, true).unwrap();
        for p in 0..40u64 {
            lm.write(&mut ctx, (vpn + p) << 12, &[p as u8]).unwrap();
        }
        assert!(ctx.stats.writebacks > 0, "lazy flush fired");
        assert!(lm.cache().dirty_count() < 40);
    }
}
