//! The Aquila mmio engine: page faults, eviction, writeback, and mapping
//! management in non-root ring 0.
//!
//! This assembles the paper's five operations:
//!
//! 1. **Page faults** (common path) — handled right here, in the same
//!    privilege domain as the application: exception delivery costs 552
//!    cycles instead of Linux's 1287-cycle ring crossing.
//! 2. **Cache replacement** (common path) — batched eviction of 512 pages
//!    with one TLB-shootdown IPI round and device-offset-sorted writeback.
//! 3. **Device access** (common path) — through a pluggable
//!    [`StorageAccess`] path (SPDK, DAX, or host I/O).
//! 4. **File-mapping management** (uncommon) — `mmap`/`munmap`/`mremap`
//!    over the spill-free region map; no host interaction needed.
//! 5. **Cache resizing** (uncommon) — vmcalls to the hypervisor plus one
//!    EPT fault per newly mapped 1 GiB granule.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aquila_sync::Mutex;

use aquila_devices::{DeviceError, StorageAccess};
use aquila_mmu::{
    Access, FrameId, Gva, LeafKind, PhysMem, PteFlags, ShardedPageTable, TlbFabric, Vpn,
    HUGE_PAGE_PAGES, L_PT_SHARD, PAGE_SIZE,
};
use aquila_pcache::{coalesce_runs, CacheConfig, DirtyPage, DramCache, PageKey, Victim};
use aquila_sim::{race, CoreDebts, CostCat, Cycles, Page, SimCtx, Step, ThreadFn};
use aquila_vmx::{Gpa, PAGE_1G};

use crate::error::AquilaError;
use crate::file::{FileId, Files};
use crate::rmap::Rmap;

pub use crate::config::{AquilaConfig, AquilaConfigBuilder, MmioPolicy, WritePolicy};

// Race-detector names for the owner side of the per-core TLB locks; the
// remote side (shootdown sweep) uses the same names in `aquila-mmu`, so
// happens-before edges line up across crates. Instanced by core, taken
// one at a time, never nested with another annotated lock.
const L_TLB: &str = "mmu.tlb";
const V_TLB: &str = "mmu.tlb.state";

// The promoted-run registry lock. When promotion or demotion nests it
// with pcache or TLB locks it is always the *outermost* annotated lock,
// so its edges in the dynamic order graph never form a cycle.
const L_HUGE: &str = "aquila.huge";
const V_HUGE: &str = "aquila.huge.runs";

use aquila_vma::RegionMap;
pub use aquila_vma::{Advice, Prot};

/// Readahead window in pages after a fault under `Advice::Normal` and
/// `Advice::WillNeed`.
const READAHEAD_PAGES: usize = 8;
/// Readahead window in pages after a fault under `Advice::Sequential`.
const READAHEAD_SEQ_PAGES: usize = 32;

/// Most dirty pages one [`StorageAccess::write_batch`] submits before it
/// drains: a writeback of more pages goes out as several batches, each
/// holding the read locks of its frames' chunks while it runs. The batch
/// boundaries fix when each drain happens, so changing this moves
/// simulated time.
const STAGE_PAGES: usize = 2048;

/// How long the freelist may sit *continuously* below the low watermark
/// under [`WritePolicy::Async`] before the engine concludes the
/// write-behind evictor cannot keep up and degrades the region to
/// synchronous write-through (DESIGN.md §11).
pub(crate) const STALL_DEADLINE: Cycles = Cycles::from_millis(10);

/// Upper bound on the promoted cache share, in percent of
/// `max_cache_frames`: it sizes the slab pool, and promotion stops when
/// every slab run is in use.
const MAX_PROMOTED_SHARE: usize = 50;

/// Resident 4 KiB pages (out of 512) a 2 MiB-aligned run needs before
/// promotion triggers under [`MmioPolicy::huge_pages`]; the remainder is
/// filled eagerly from the device during collapse.
pub(crate) const PROMOTE_THRESHOLD: usize = 64;

/// Base admission-delay unit for a tenant over its declared quota: its
/// fault is delayed by this amount scaled by how deep the freelist sits
/// below the low watermark.
const QOS_DELAY: Cycles = Cycles::from_micros(2);

/// A planned writeback segment: access path, first device page, and the
/// positions of its pages in the batch of dirty pages it was planned from.
pub(crate) type Segment = (Arc<dyn StorageAccess>, u64, Range<usize>);

/// Health of the mmio region's write path (DESIGN.md §11). Transitions
/// only escalate within a run: `Healthy` → `WriteThrough` when the
/// write-behind evictor misses its watermark stall deadline, and any
/// state → `ReadOnly` when the device write path trips its circuit
/// breaker. Reads are served in every state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegionState {
    /// Full service: writeback runs at [`MmioPolicy::queue_depth`].
    Healthy,
    /// Write-behind suspended: dirty pages are written back one command
    /// at a time (write-through), applying backpressure directly to the
    /// writers instead of letting the pipeline fall further behind.
    WriteThrough,
    /// The device no longer accepts writes: write faults and `msync`
    /// fail with [`AquilaError::DegradedReadOnly`]; cached data stays
    /// readable.
    ReadOnly,
}

/// Admission-control decision for one tenant request (DESIGN.md §15).
///
/// Computed by [`Aquila::admit`] on every fault that allocates a frame.
/// The invariant the QoS layer guarantees: a tenant at or under its
/// frame quota (or with no quota declared) is **always** admitted —
/// throttling applies only to tenants holding more cache than they
/// reserved, and only while the cache is actually under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed immediately.
    Admit,
    /// Proceed after charging the given deterministic throttle delay
    /// (scaled from `QOS_DELAY` by watermark deficit).
    Delay(Cycles),
    /// Refuse with [`AquilaError::QosShed`]: deep watermark deficit or
    /// a degraded region, and the tenant is over quota.
    Shed,
}

/// Degradation bookkeeping (kept off the hot path: only the evictor
/// tick and the direct-reclaim fallback touch it).
struct DegradeState {
    state: RegionState,
    /// Virtual time the freelist first dipped below the low watermark
    /// of the current continuous stall (None when healthy).
    stall_since: Option<Cycles>,
}

/// One promoted 2 MiB mapping: the slab run backing it and the file
/// pages it covers (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
struct HugeRun {
    run: usize,
    file: u32,
    fp_base: u64,
}

/// The Aquila library OS instance (one per process).
pub struct Aquila {
    cfg: AquilaConfig,
    files: Files,
    cache: DramCache,
    vmas: RegionMap,
    page_table: ShardedPageTable,
    tlbs: TlbFabric,
    debts: Arc<CoreDebts>,
    /// Reverse map: frame -> virtual pages currently mapping it.
    rmap: Rmap,
    /// End of the guest-physical window the cache's 1 GiB EPT granules
    /// cover: a high-water mark, since shrinking leaves granules mapped.
    ept_mapped_end: Mutex<u64>,
    /// Latest virtual time at which every write-behind submission so far
    /// is known durable on the device; `msync`/`sync_all` rendezvous with
    /// this horizon under [`WritePolicy::Async`].
    wb_horizon: Mutex<Cycles>,
    /// Causal-span id of the writeback round that last advanced
    /// `wb_horizon`; an msync rendezvous links its drain span to this, so
    /// the cross-thread wait attributes to the evictor round it waited
    /// on. Zero when tracing is off or nothing was published.
    wb_span: AtomicU64,
    /// Write-path degradation machine (DESIGN.md §11).
    degrade: Mutex<DegradeState>,
    /// Promoted 2 MiB runs, keyed by the 2 MiB-aligned base VPN.
    huge_runs: Mutex<BTreeMap<u64, HugeRun>>,
    /// Degradation demands splintering every promoted run, but the
    /// transition fires in the middle of a fault, writeback or scrub
    /// step; the next fault, sync, or evictor tick services the flag.
    demote_all_pending: AtomicBool,
}

impl Aquila {
    /// Boots an Aquila instance: builds the cache and records the 1 GiB
    /// EPT granules its initial frames sit in.
    pub fn new(mut cfg: AquilaConfig, debts: Arc<CoreDebts>) -> Aquila {
        // An eviction batch close to the cache size would wipe the whole
        // working set per round; clamp to 1/8 of the cache (the paper's
        // 512-page batch is a tiny fraction of its multi-GB caches).
        cfg.policy.evict_batch = cfg.policy.evict_batch.min((cfg.cache_frames / 8).max(16));
        let mut ccfg = CacheConfig::new(cfg.max_cache_frames, cfg.cores);
        ccfg.initial_frames = cfg.cache_frames;
        ccfg.low_watermark = cfg.policy.low_watermark;
        ccfg.high_watermark = cfg.policy.high_watermark;
        // The slab sizes the promoted share: each run holds 512 frames
        // *in addition to* the ordinary cache, so a full slab means
        // `MAX_PROMOTED_SHARE` percent of the cache is huge-mapped.
        ccfg.slab_runs = if cfg.policy.huge_pages {
            ((cfg.max_cache_frames * MAX_PROMOTED_SHARE / 100) / HUGE_PAGE_PAGES as usize).max(1)
        } else {
            0
        };
        let slab_frames = ccfg.slab_runs * HUGE_PAGE_PAGES as usize;
        let cache = DramCache::new(ccfg);
        let ept_mapped_end = cache_window_end(cache.mem().base().get(), cfg.cache_frames);
        // The huge-run registry is the outermost annotated lock on the
        // promotion path; page-table shard locks are leaves under it.
        race::declare_order("mmu", &[L_HUGE, L_PT_SHARD]);
        Aquila {
            files: Files::new(),
            vmas: RegionMap::new(0x10_0000),
            // One shard per vcore (at least two), keyed by 2 MiB block
            // (DESIGN.md §17.2).
            page_table: ShardedPageTable::new(cfg.cores.max(2)),
            tlbs: TlbFabric::new(cfg.cores),
            rmap: Rmap::new(cfg.max_cache_frames + slab_frames),
            ept_mapped_end: Mutex::new(ept_mapped_end),
            wb_horizon: Mutex::new(Cycles::ZERO),
            wb_span: AtomicU64::new(0),
            degrade: Mutex::new(DegradeState {
                state: RegionState::Healthy,
                stall_since: None,
            }),
            huge_runs: Mutex::new(BTreeMap::new()),
            demote_all_pending: AtomicBool::new(false),
            debts,
            cache,
            cfg,
        }
    }

    /// The file registry (intercepted `open`).
    pub fn files(&self) -> &Files {
        &self.files
    }

    /// The DRAM cache (for inspection and custom policies).
    pub fn cache(&self) -> &DramCache {
        &self.cache
    }

    /// The configuration this instance was booted with.
    pub fn config(&self) -> &AquilaConfig {
        &self.cfg
    }

    /// Current write-path health of the region.
    pub fn region_state(&self) -> RegionState {
        self.degrade.lock().state
    }

    /// Escalates the degradation machine to `to` (never downgrades);
    /// counted in [`aquila_sim::Counters::degrade_transitions`] and traced
    /// as an instant.
    fn transition(&self, ctx: &mut dyn SimCtx, to: RegionState) {
        let mut d = self.degrade.lock();
        if d.state >= to {
            return;
        }
        d.state = to;
        drop(d);
        if self.cfg.policy.huge_pages {
            // A degraded region runs write-through or read-only; both
            // want 4 KiB dirty tracking back, so splinter every run at
            // the next opportunity.
            self.demote_all_pending.store(true, Ordering::Release);
        }
        ctx.counters().degrade_transitions += 1;
        aquila_sim::trace::instant(ctx, "aquila.degrade", CostCat::Eviction);
    }

    /// Samples the freelist against the low watermark: a *continuous*
    /// stretch below it longer than `STALL_DEADLINE` (10 ms) means
    /// the write-behind evictor cannot keep up, and the region degrades
    /// to synchronous write-through. Called from the evictor tick and
    /// the direct-reclaim fallback; any alloc recovery above the
    /// watermark resets the clock.
    pub fn track_watermark_stall(&self, ctx: &mut dyn SimCtx) {
        if self.cfg.policy.write_policy != WritePolicy::Async {
            return;
        }
        let stalled = self.cache.watermark_deficit() > 0;
        let mut d = self.degrade.lock();
        if !stalled {
            d.stall_since = None;
            return;
        }
        match d.stall_since {
            None => d.stall_since = Some(ctx.now()),
            Some(t0) => {
                if ctx.now().saturating_sub(t0) > STALL_DEADLINE && d.state == RegionState::Healthy
                {
                    drop(d);
                    self.transition(ctx, RegionState::WriteThrough);
                }
            }
        }
    }

    /// Reacts to a writeback failure: an open circuit breaker means the
    /// device write path is gone, and unrepairable corruption means the
    /// medium cannot be trusted; either way the region goes read-only.
    fn degrade_on_error(&self, ctx: &mut dyn SimCtx, e: &AquilaError) {
        if matches!(
            e,
            AquilaError::Device(DeviceError::CircuitOpen | DeviceError::Corrupt { .. })
        ) {
            self.transition(ctx, RegionState::ReadOnly);
        }
    }

    // ---------------------------------------------------------------
    // Multi-tenant QoS (DESIGN.md §15).
    // ---------------------------------------------------------------

    /// Admission decision for a request from `tenant`.
    ///
    /// Always [`Admission::Admit`] when the tenant is within (or has
    /// no) quota, or when the cache is healthy. An over-quota tenant
    /// under congestion is delayed in proportion to the watermark
    /// deficit, and shed outright once the deficit exceeds half the low
    /// watermark or the region has degraded.
    pub fn admit(&self, tenant: u16) -> Admission {
        if !self.cache.tenant_over_quota(tenant) {
            return Admission::Admit;
        }
        let deficit = self.cache.watermark_deficit();
        let degraded = self.region_state() != RegionState::Healthy;
        if deficit == 0 && !degraded {
            // No congestion: overage costs nobody anything yet.
            return Admission::Admit;
        }
        let low = self.cfg.policy.low_watermark.max(1);
        if degraded || deficit > low / 2 {
            return Admission::Shed;
        }
        // Mild pressure: deterministic backoff growing linearly with how
        // deep the freelist sits below the watermark.
        let unit = QOS_DELAY.0;
        let scaled = unit + unit.saturating_mul(4 * deficit as u64) / low as u64;
        Admission::Delay(Cycles(scaled))
    }

    /// Allocates a frame for a fault on `file`, applying tenant QoS
    /// first: admission control (delay/shed), then quota self-reclaim —
    /// an over-quota tenant evicts a small batch of *its own* frames
    /// before it may consume the shared freelist. Both are no-ops for a
    /// tenant that declared no quota.
    fn alloc_frame_for(&self, ctx: &mut dyn SimCtx, file: u32) -> Result<FrameId, AquilaError> {
        let tenant = self.cache.tenant_of_file(file);
        match self.admit(tenant) {
            Admission::Admit => {}
            Admission::Delay(d) => {
                ctx.counters().qos_delayed += 1;
                ctx.charge(CostCat::Idle, d);
            }
            Admission::Shed => {
                ctx.counters().qos_shed += 1;
                return Err(AquilaError::QosShed);
            }
        }
        let overage = self.cache.tenant_overage(tenant);
        if overage > 0 {
            // Small batches keep the self-reclaim tax on the noisy
            // tenant's own fault path instead of the shared evictor.
            let batch = overage.min(8);
            let victims = self.cache.evict_candidates_from(ctx, batch, tenant);
            if !victims.is_empty() {
                ctx.counters().self_reclaim_pages += victims.len() as u64;
                self.retire_victims(ctx, &victims)?;
            }
        }
        self.alloc_frame(ctx)
    }

    /// Switches the calling thread into Aquila mode (the per-thread
    /// function call the paper requires at thread start).
    pub fn thread_enter(&self, ctx: &mut dyn SimCtx) {
        // Install Aquila's syscall handler in MSR_LSTAR: one `wrmsr` from
        // guest ring 0, which takes no vmexit.
        ctx.charge(CostCat::Other, Cycles(100));
    }

    // ---------------------------------------------------------------
    // Mapping management (operation 4: uncommon path, no host needed).
    // ---------------------------------------------------------------

    /// `mmap`-compatible: maps `pages` pages of `file` starting at file
    /// page `offset_page`. Returns the chosen base address.
    pub fn mmap(
        &self,
        ctx: &mut dyn SimCtx,
        file: FileId,
        offset_page: u64,
        pages: u64,
        prot: Prot,
    ) -> Result<Gva, AquilaError> {
        let len = self.files.len_pages(file)?;
        if offset_page + pages > len {
            return Err(AquilaError::BeyondEof {
                page: offset_page + pages,
                len,
            });
        }
        ctx.counters().syscalls += 1; // Intercepted: costs a function call.
        let desc = self
            .vmas
            .map(ctx, None, pages, file.0, offset_page, prot)
            .map_err(|_| AquilaError::MappingOverlap)?;
        Ok(desc.start.base())
    }

    /// `munmap`-compatible: removes mappings, leaving cached pages cached
    /// (they persist; this is a shared file mapping).
    pub fn munmap(&self, ctx: &mut dyn SimCtx, addr: Gva, pages: u64) -> Result<(), AquilaError> {
        ctx.counters().syscalls += 1;
        let removed = self.vmas.unmap(ctx, addr.vpn(), pages);
        if removed.is_empty() {
            return Err(AquilaError::NotMapped);
        }
        // A 4 KiB unmap inside a promoted run must splinter it first;
        // `PageTable::unmap` cannot carve pages out of a 2 MiB leaf.
        self.demote_range(ctx, addr.vpn(), pages);
        let vpns: Vec<Vpn> = removed.iter().map(|&(vpn, _)| vpn).collect();
        self.zap(ctx, &vpns);
        Ok(())
    }

    /// `mremap`-compatible: moves/resizes a mapping.
    pub fn mremap(
        &self,
        ctx: &mut dyn SimCtx,
        addr: Gva,
        old_pages: u64,
        new_pages: u64,
    ) -> Result<Gva, AquilaError> {
        ctx.counters().syscalls += 1;
        self.demote_range(ctx, addr.vpn(), old_pages);
        // Tear down PTEs of the old range first.
        self.zap(ctx, &vpn_range(addr.vpn(), old_pages));
        let desc = self
            .vmas
            .remap(ctx, addr.vpn(), old_pages, new_pages)
            .map_err(|e| match e {
                aquila_vma::VmaError::NotMapped => AquilaError::NotMapped,
                _ => AquilaError::MappingOverlap,
            })?;
        Ok(desc.start.base())
    }

    /// `madvise`-compatible.
    pub fn madvise(
        &self,
        ctx: &mut dyn SimCtx,
        addr: Gva,
        pages: u64,
        advice: Advice,
    ) -> Result<(), AquilaError> {
        ctx.counters().syscalls += 1;
        let (desc, _) = self
            .vmas
            .lookup(ctx, addr.vpn())
            .ok_or(AquilaError::NotMapped)?;
        desc.set_advice(advice);
        if advice == Advice::DontNeed {
            self.demote_range(ctx, addr.vpn(), pages);
            self.zap(ctx, &vpn_range(addr.vpn(), pages));
        }
        Ok(())
    }

    /// `mprotect`-compatible.
    pub fn mprotect(
        &self,
        ctx: &mut dyn SimCtx,
        addr: Gva,
        pages: u64,
        prot: Prot,
    ) -> Result<(), AquilaError> {
        ctx.counters().syscalls += 1;
        let n = self.vmas.protect(ctx, addr.vpn(), pages, prot);
        if n == 0 {
            return Err(AquilaError::NotMapped);
        }
        if !prot.write {
            // Write-protecting part of a promoted run splinters it:
            // per-page protection needs per-page leaves.
            self.demote_range(ctx, addr.vpn(), pages);
            self.write_protect(ctx, &vpn_range(addr.vpn(), pages));
        }
        Ok(())
    }

    /// `msync`-compatible: writes back the dirty pages of the range,
    /// sorted by device offset and merged into large I/Os, then downgrades
    /// their mappings to read-only so future writes are tracked again.
    pub fn msync(&self, ctx: &mut dyn SimCtx, addr: Gva, pages: u64) -> Result<(), AquilaError> {
        ctx.counters().syscalls += 1;
        let sp = aquila_sim::span::begin(ctx, "aquila.msync", CostCat::Syscall);
        let result = self.msync_service(ctx, addr, pages);
        aquila_sim::span::end(ctx, sp);
        result
    }

    fn msync_service(
        &self,
        ctx: &mut dyn SimCtx,
        addr: Gva,
        pages: u64,
    ) -> Result<(), AquilaError> {
        let (desc, _) = self
            .vmas
            .lookup(ctx, addr.vpn())
            .ok_or(AquilaError::NotMapped)?;
        if self.region_state() == RegionState::ReadOnly {
            // Durability cannot be promised any more; refuse rather than
            // silently acknowledge (DESIGN.md §11).
            return Err(AquilaError::DegradedReadOnly);
        }
        self.service_pending_demotions(ctx);
        // msync's contract is "writes after the sync are tracked again";
        // a 2 MiB leaf cannot be write-protected per page, so any run
        // the range touches splinters first.
        self.demote_range(ctx, addr.vpn(), pages);
        let start_fp = desc.file_page_of(addr.vpn());
        let dirty = self
            .cache
            .drain_dirty_range(ctx, desc.file, start_fp, start_fp + pages);
        self.persist_drained(ctx, &dirty)?;
        // Downgrade all written-back pages to read-only.
        let vpns: Vec<Vpn> = dirty
            .iter()
            .map(|d| Vpn(desc.start.0 + (d.key.page - desc.file_page)))
            .collect();
        self.write_protect(ctx, &vpns);
        Ok(())
    }

    /// Drops the PTEs of `vpns` and shoots down the live ones; cached
    /// data stays cached (shared mapping).
    fn zap(&self, ctx: &mut dyn SimCtx, vpns: &[Vpn]) {
        let unmapped = self
            .page_table
            .with_each(ctx, vpns, |pt, i| pt.unmap(vpns[i].base()));
        let mut flushed = Vec::new();
        for (&vpn, pte) in vpns.iter().zip(unmapped) {
            if let Some(pte) = pte {
                if let Some(frame) = pte_frame(&self.cache, pte.gpa) {
                    self.rmap.remove(frame, vpn);
                }
                flushed.push(vpn);
            }
        }
        self.tlbs.shootdown_batch(ctx, &self.debts, &flushed);
    }

    /// Downgrades the live PTEs of `vpns` to read-only and shoots down
    /// their stale writable entries.
    fn write_protect(&self, ctx: &mut dyn SimCtx, vpns: &[Vpn]) {
        let present = self.page_table.with_each(ctx, vpns, |pt, i| {
            pt.protect(vpns[i].base(), PteFlags::RO).is_some()
        });
        let flushed: Vec<Vpn> = vpns
            .iter()
            .zip(present)
            .filter_map(|(&vpn, p)| p.then_some(vpn))
            .collect();
        self.tlbs.shootdown_batch(ctx, &self.debts, &flushed);
    }

    // ---------------------------------------------------------------
    // Memory access (operation 1-3: the common path).
    // ---------------------------------------------------------------

    /// Reads `buf.len()` bytes at `addr` through the mmio path.
    pub fn read(&self, ctx: &mut dyn SimCtx, addr: Gva, buf: &mut [u8]) -> Result<(), AquilaError> {
        let mut done = 0usize;
        while done < buf.len() {
            let gva = addr.add(done as u64);
            let in_page = (PAGE_SIZE - gva.page_offset()) as usize;
            let n = in_page.min(buf.len() - done);
            let gpa = self.translate(ctx, gva, Access::Read)?;
            let frame = self
                .cache
                .mem()
                .frame_of(Gpa(gpa.get() & !(PAGE_SIZE - 1)))
                .expect("translated GPA is a cache frame");
            self.cache
                .mem()
                .read(frame, gva.page_offset() as usize, &mut buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Writes `buf` at `addr` through the mmio path (dirty pages tracked
    /// via write faults).
    pub fn write(&self, ctx: &mut dyn SimCtx, addr: Gva, buf: &[u8]) -> Result<(), AquilaError> {
        let mut done = 0usize;
        while done < buf.len() {
            let gva = addr.add(done as u64);
            let in_page = (PAGE_SIZE - gva.page_offset()) as usize;
            let n = in_page.min(buf.len() - done);
            let gpa = self.translate(ctx, gva, Access::Write)?;
            let frame = self
                .cache
                .mem()
                .frame_of(Gpa(gpa.get() & !(PAGE_SIZE - 1)))
                .expect("translated GPA is a cache frame");
            self.cache
                .mem()
                .write(frame, gva.page_offset() as usize, &buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Translates one access, faulting as needed. The return is the
    /// full GPA (page base + offset).
    pub fn translate(
        &self,
        ctx: &mut dyn SimCtx,
        gva: Gva,
        access: Access,
    ) -> Result<Gpa, AquilaError> {
        let vpn = gva.vpn();
        for _attempt in 0..4 {
            // TLB first: a hit is free, exactly the paper's argument for
            // mmio over software caches.
            let core = ctx.core() % self.cfg.cores;
            race::acquire(ctx, (L_TLB, core as u64));
            let hit = self.tlbs.with_local(core, |t| t.lookup(vpn));
            race::read(ctx, (V_TLB, core as u64));
            race::release(ctx, (L_TLB, core as u64));
            if let Some((gpa_base, flags)) = hit {
                if access == Access::Read || flags.writable {
                    return Ok(Gpa(gpa_base.get() + gva.page_offset()));
                }
            }
            // Page-table walk (hardware, on TLB miss; the MMU takes no
            // software lock — it contends on memory, not the table).
            let walked = self.page_table.translate_leaf(gva, access);
            match walked {
                Ok((gpa, pte, kind)) => {
                    // The hardware walk behind the TLB miss: one memory
                    // reference per radix level. Huge leaves terminate
                    // at the PD, one level early — part of their
                    // fault-path win beyond the wider TLB reach.
                    let levels = match kind {
                        LeafKind::Small => 4,
                        LeafKind::Huge => 3,
                    };
                    let walk = Cycles(ctx.cost().radix_level.get() * levels);
                    ctx.charge(CostCat::Tlb, walk);
                    race::acquire(ctx, (L_TLB, core as u64));
                    self.tlbs.with_local(core, |t| match kind {
                        LeafKind::Small => t.insert(vpn, pte.gpa, pte.flags),
                        LeafKind::Huge => t.insert_huge(vpn.huge_base(), pte.gpa, pte.flags),
                    });
                    race::write(ctx, (V_TLB, core as u64));
                    race::release(ctx, (L_TLB, core as u64));
                    return Ok(gpa);
                }
                Err(_) => {
                    self.handle_fault(ctx, gva, access)?;
                }
            }
        }
        // Unreachable in practice: a fault either errors or installs a
        // mapping the retry uses.
        Err(AquilaError::Segfault(gva))
    }

    /// The page-fault handler (non-root ring 0). The whole service is one
    /// causal root span, whose end records the `aquila.fault.cycles`
    /// histogram sample.
    fn handle_fault(
        &self,
        ctx: &mut dyn SimCtx,
        gva: Gva,
        access: Access,
    ) -> Result<(), AquilaError> {
        ctx.counters().page_faults += 1;
        let sp = aquila_sim::span::begin(ctx, "aquila.fault", CostCat::FaultHandler);
        let result = self.fault_service(ctx, gva, access);
        aquila_sim::span::end(ctx, sp);
        result
    }

    /// The body of [`Self::handle_fault`]: exception delivery, VMA
    /// validation, and the locked fault path.
    fn fault_service(
        &self,
        ctx: &mut dyn SimCtx,
        gva: Gva,
        access: Access,
    ) -> Result<(), AquilaError> {
        let vpn = gva.vpn();
        // Exception delivery in non-root ring 0 (552 cycles, no protection
        // domain switch).
        let trap = ctx.cost().trap_nonroot_ring0;
        ctx.charge(CostCat::Trap, trap);

        // Operation 1: is this a valid address? (O(1) region resolution,
        // no lock).
        let (desc, prot) = self
            .vmas
            .lookup(ctx, vpn)
            .ok_or(AquilaError::Segfault(gva))?;
        if access == Access::Write && !prot.write {
            return Err(AquilaError::ProtectionViolation(gva));
        }
        if access == Access::Write && self.region_state() == RegionState::ReadOnly {
            return Err(AquilaError::DegradedReadOnly);
        }
        self.service_pending_demotions(ctx);
        let body = ctx.cost().aquila_fault_body;
        ctx.charge(CostCat::FaultHandler, body);

        // Lock the entry so concurrent faults on this page serialize.
        let lock_cost = Cycles(150);
        ctx.charge(CostCat::FaultHandler, lock_cost);
        let mut spins = 0;
        while !self.vmas.try_lock_entry(vpn) {
            spins += 1;
            ctx.charge(CostCat::LockWait, Cycles(50));
            if spins > 1_000_000 {
                return Err(AquilaError::Segfault(gva));
            }
        }
        let result = self.fault_locked(ctx, gva, access, &desc);
        self.vmas.unlock_entry(vpn);
        result
    }

    fn fault_locked(
        &self,
        ctx: &mut dyn SimCtx,
        gva: Gva,
        access: Access,
        desc: &Arc<aquila_vma::VmaDesc>,
    ) -> Result<(), AquilaError> {
        let vpn = gva.vpn();
        let file = FileId(desc.file);
        let file_page = desc.file_page_of(vpn);
        let key = PageKey::new(desc.file, file_page);

        // Re-check the page table: the fault may have raced with another
        // handler that already installed the mapping. The probe itself is
        // a hardware-style walk; only an actual upgrade takes the owning
        // shard's lock (the per-entry fault lock already serializes
        // handlers for this page).
        if let Some((pte, kind)) = self.page_table.lookup_leaf(gva) {
            if pte.flags.present {
                if access == Access::Write && !pte.flags.writable {
                    match kind {
                        LeafKind::Small => {
                            // Dirty-tracking write fault: mark dirty,
                            // enable writes. Upgrades need no
                            // shootdown (other cores refault at
                            // worst).
                            if let Some(frame) = pte_frame(&self.cache, pte.gpa) {
                                self.cache.mark_dirty(ctx, key, frame);
                            }
                            let mut fl = PteFlags::RW;
                            fl.dirty = true;
                            self.page_table.with(ctx, vpn, |pt| pt.protect(gva, fl));
                            let core = ctx.core() % self.cfg.cores;
                            race::acquire(ctx, (L_TLB, core as u64));
                            self.tlbs.with_local(core, |t| t.invalidate(vpn));
                            race::write(ctx, (V_TLB, core as u64));
                            race::release(ctx, (L_TLB, core as u64));
                        }
                        LeafKind::Huge => {
                            // The whole 2 MiB leaf upgrades at once,
                            // so every page it covers must enter the
                            // dirty trees now: no further write
                            // faults will arrive for them.
                            self.huge_write_upgrade(ctx, vpn.huge_base());
                        }
                    }
                }
                ctx.counters().minor_faults += 1;
                return Ok(());
            }
        }

        // Operation 2: cache lookup (lock-free hash table).
        if let Some(frame) = self.cache.lookup(ctx, key) {
            ctx.counters().minor_faults += 1;
            self.map_frame(ctx, vpn, key, frame, access);
            self.maybe_promote(ctx, vpn, desc);
            return Ok(());
        }

        // Miss: allocate a frame (possibly evicting a batch) and fetch
        // from the device.
        ctx.counters().major_faults += 1;
        let frame = self.alloc_frame_for(ctx, desc.file)?;
        let sp_read = aquila_sim::span::begin(ctx, "aquila.fault.read", CostCat::DeviceIo);
        // The fill installs the device's own page in the frame (the model
        // charges the copy); the frame is private to this fault until
        // `commit_insert` publishes it.
        let mut page = [Page::zero()];
        let read = self.files.read_refs(ctx, file, file_page, &mut page);
        aquila_sim::span::end(ctx, sp_read);
        if let Err(e) = read {
            self.cache.release_frame(ctx, frame);
            if let AquilaError::Device(DeviceError::Corrupt { page }) = e {
                // Unrepairable corruption on every copy: refuse to map
                // the poisoned page and degrade the region instead of
                // silently serving garbage (DESIGN.md §16).
                ctx.counters().read_refused += 1;
                self.transition(ctx, RegionState::ReadOnly);
                return Err(AquilaError::DataCorrupted { page });
            }
            return Err(e);
        }
        let [page] = page;
        self.cache.mem().install(frame, page);
        match self.cache.commit_insert(ctx, key, frame) {
            Ok(()) => {
                self.map_frame(ctx, vpn, key, frame, access);
            }
            Err(existing) => {
                // Lost a fault race: use the winner's frame.
                self.cache.release_frame(ctx, frame);
                self.map_frame(ctx, vpn, key, existing, access);
            }
        }

        // Readahead per the mapping's advice (operation 3 batching).
        self.readahead(ctx, desc, file, file_page);
        self.maybe_promote(ctx, vpn, desc);
        Ok(())
    }

    /// Installs the PTE + local TLB entry for a resolved fault.
    fn map_frame(
        &self,
        ctx: &mut dyn SimCtx,
        vpn: Vpn,
        key: PageKey,
        frame: FrameId,
        access: Access,
    ) {
        // Read faults map read-only so the first write faults again and
        // marks the page dirty (section 3.2).
        let flags = match access {
            Access::Read => PteFlags::RO,
            Access::Write => {
                self.cache.mark_dirty(ctx, key, frame);
                let mut fl = PteFlags::RW;
                fl.dirty = true;
                fl
            }
        };
        // PTE install + local TLB fill cost.
        ctx.charge(CostCat::FaultHandler, Cycles(300));
        let gpa = self.cache.mem().gpa_of(frame);
        self.page_table.with(ctx, vpn, |pt| {
            pt.map(vpn.base(), gpa, flags);
        });
        self.rmap.push(frame, vpn);
        let core = ctx.core() % self.cfg.cores;
        race::acquire(ctx, (L_TLB, core as u64));
        self.tlbs.with_local(core, |t| t.insert(vpn, gpa, flags));
        race::write(ctx, (V_TLB, core as u64));
        race::release(ctx, (L_TLB, core as u64));
    }

    /// Allocates a cache frame, running a batched eviction round when the
    /// freelist is empty.
    ///
    /// With the write-behind pipeline active this is the *direct reclaim*
    /// fallback: the evictor normally keeps the freelist above the low
    /// watermark, so faulting vcores take a clean frame and return
    /// immediately; a stall here means the evictor fell behind.
    fn alloc_frame(&self, ctx: &mut dyn SimCtx) -> Result<FrameId, AquilaError> {
        if let Some(f) = self.cache.try_alloc(ctx) {
            return Ok(f);
        }
        // Eviction round: detach a batch, unmap, one shootdown, write back
        // dirty victims in device order, then recycle frames.
        let sp = aquila_sim::span::begin(ctx, "aquila.evict.direct", CostCat::Eviction);
        // Direct reclaim means the evictor fell behind; feed the stall
        // clock even if the evictor itself is wedged and not ticking.
        self.track_watermark_stall(ctx);
        loop {
            let victims = self
                .cache
                .evict_candidates(ctx, self.cfg.policy.evict_batch);
            if victims.is_empty() {
                // Everything evictable is gone but promoted runs may be
                // pinning frames: splinter the lowest run and retry (the
                // "partial eviction demotes" rule of DESIGN.md §12).
                if !self.demote_one(ctx) {
                    aquila_sim::span::end(ctx, sp);
                    return Err(AquilaError::NoSpace);
                }
                continue;
            }
            let c = ctx.counters();
            c.direct_evict_rounds += 1;
            c.direct_evict_pages += victims.len() as u64;
            if let Err(e) = self.retire_victims(ctx, &victims) {
                aquila_sim::span::end(ctx, sp);
                return Err(e);
            }
            // Slab victims drain their run rather than feeding the
            // ordinary freelist, so one round may leave it empty: keep
            // evicting until an allocatable frame shows up.
            if let Some(f) = self.cache.try_alloc(ctx) {
                aquila_sim::span::end(ctx, sp);
                return Ok(f);
            }
        }
    }

    /// Unmaps a detached victim batch (one batched shootdown), writes the
    /// dirty ones back, and recycles every frame to the freelist.
    fn retire_victims(&self, ctx: &mut dyn SimCtx, victims: &[Victim]) -> Result<(), AquilaError> {
        let mut flushed: Vec<Vpn> = Vec::with_capacity(victims.len());
        for v in victims {
            self.rmap.take_into(v.frame, &mut flushed);
        }
        self.page_table.with_each(ctx, &flushed, |pt, i| {
            pt.unmap(flushed[i].base());
        });
        self.tlbs.shootdown_batch(ctx, &self.debts, &flushed);
        let mut dirty: Vec<DirtyPage> = victims
            .iter()
            .filter(|v| v.dirty)
            .map(|v| DirtyPage {
                key: v.key,
                frame: v.frame,
            })
            .collect();
        dirty.sort_by_key(|d| (d.key.file, d.key.page));
        if let Err(e) = self.writeback(ctx, &dirty) {
            // The dirty victims could not be persisted; put them back in
            // the cache (still dirty) so their data stays readable and a
            // later round can retry, and recycle only the clean frames.
            for v in victims {
                if v.dirty && self.cache.commit_insert(ctx, v.key, v.frame).is_ok() {
                    self.cache.mark_dirty(ctx, v.key, v.frame);
                } else {
                    self.cache.release_frame(ctx, v.frame);
                }
            }
            return Err(e);
        }
        for v in victims {
            self.cache.release_frame(ctx, v.frame);
        }
        Ok(())
    }

    /// Makes pages just drained from the dirty trees durable: writes them
    /// back, then waits out any write-behind still in flight. On failure
    /// they are marked dirty again, so their data is not silently dropped
    /// from future writeback rounds.
    fn persist_drained(
        &self,
        ctx: &mut dyn SimCtx,
        dirty: &[DirtyPage],
    ) -> Result<(), AquilaError> {
        if let Err(e) = self.writeback(ctx, dirty) {
            for d in dirty {
                self.cache.mark_dirty(ctx, d.key, d.frame);
            }
            return Err(e);
        }
        // Under write-behind, pages of the range may already be detached
        // and in flight on the evictor's queue pair; durability means
        // waiting for the pipeline horizon, not re-issuing them.
        self.write_behind_rendezvous(ctx);
        Ok(())
    }

    /// Writes dirty pages back. This is the one writeback path: msync,
    /// `sync_all`, inline eviction and the evictor all come through here,
    /// and [`WritePolicy`] only decides which vcore runs it.
    ///
    /// The pages are coalesced into device-contiguous segments, and each
    /// access path gets its segments in one [`StorageAccess::write_batch`]
    /// at [`MmioPolicy::queue_depth`]: NVMe paths keep that many commands
    /// in flight on real queue pairs (both copies, for a mirror), so
    /// device service overlaps instead of each command draining before the
    /// next is issued; DAX and the host-kernel paths write segment by
    /// segment. A region degraded to write-through submits at depth 1, so
    /// its writers pay every command's device latency themselves; a
    /// read-only region refuses. An open circuit breaker or unrepairable
    /// corruption surfacing here escalates the degradation machine.
    fn writeback(&self, ctx: &mut dyn SimCtx, dirty: &[DirtyPage]) -> Result<(), AquilaError> {
        if dirty.is_empty() {
            return Ok(());
        }
        let depth = match self.region_state() {
            RegionState::Healthy => self.cfg.policy.queue_depth.max(1),
            RegionState::WriteThrough => 1,
            RegionState::ReadOnly => return Err(AquilaError::DegradedReadOnly),
        };
        let sp = aquila_sim::span::begin(ctx, "aquila.writeback", CostCat::DeviceIo);
        let result = self.write_segments(ctx, dirty, depth);
        aquila_sim::span::end(ctx, sp);
        if let Err(e) = &result {
            self.degrade_on_error(ctx, e);
        }
        result
    }

    fn write_segments(
        &self,
        ctx: &mut dyn SimCtx,
        dirty: &[DirtyPage],
        depth: usize,
    ) -> Result<(), AquilaError> {
        let mut ios = 0u64;
        for part in dirty.chunks(STAGE_PAGES) {
            let segs = self.plan_segments(part)?;
            ios += write_planned(ctx, self.cache.mem(), part, &segs, depth)?;
        }
        ctx.counters().writebacks += dirty.len() as u64;
        // Everything submitted by this writeback is durable by now;
        // publish the horizon for msync/sync_all rendezvous, tagged with
        // its causal span so a rendezvous can link its wait to it.
        {
            let mut h = self.wb_horizon.lock();
            if ctx.now() > *h {
                *h = ctx.now();
                self.wb_span
                    .store(aquila_sim::span::current(ctx).0, Ordering::Relaxed);
            }
        }
        ctx.counters().writeback_ios += ios;
        Ok(())
    }

    /// Groups sorted dirty pages into device-contiguous segments, each
    /// with its access path. Translation happens up front: the
    /// submission loop must not interleave blob-map lookups with
    /// completion waits.
    fn plan_segments(&self, dirty: &[DirtyPage]) -> Result<Vec<Segment>, AquilaError> {
        let mut segs: Vec<Segment> = Vec::new();
        let mut at = 0;
        for run in coalesce_runs(dirty) {
            let file = FileId(run[0].key.file);
            let access = self.files.access_of(file)?;
            for (dev, i, len) in self.files.segments(file, run[0].key.page, run.len())? {
                segs.push((Arc::clone(&access), dev, at + i..at + i + len));
            }
            at += run.len();
        }
        Ok(segs)
    }

    /// Blocks until every write-behind submission made so far (in virtual
    /// time) is durable. No-op under [`WritePolicy::Sync`] or when the
    /// pipeline is already drained.
    fn write_behind_rendezvous(&self, ctx: &mut dyn SimCtx) {
        if self.cfg.policy.write_policy != WritePolicy::Async {
            return;
        }
        let h = *self.wb_horizon.lock();
        // Link the drain to the writeback round that published the
        // horizon — a cross-thread parent: the waiter is an msync caller,
        // the publisher is (typically) the dedicated evictor.
        let parent = aquila_sim::SpanId(self.wb_span.load(Ordering::Relaxed));
        let sp = aquila_sim::span::begin_child(ctx, "aquila.msync.drain", CostCat::Idle, parent);
        ctx.wait_until(h, CostCat::Idle);
        aquila_sim::span::end(ctx, sp);
    }

    // ---------------------------------------------------------------
    // The asynchronous write-behind evictor.
    // ---------------------------------------------------------------

    /// True when the freelist has dropped below the low watermark (the
    /// evictor's wake condition).
    pub fn needs_eviction(&self) -> bool {
        self.cache.below_low_watermark()
    }

    /// One watermark-driven evictor round: detaches up to the refill
    /// deficit (bounded by the eviction batch size), writes dirty victims
    /// back per the configured policy, and recycles the frames. Returns
    /// the number of frames reclaimed (0 when the freelist is already at
    /// the high watermark or watermarks are disabled).
    pub fn evictor_round(&self, ctx: &mut dyn SimCtx) -> Result<usize, AquilaError> {
        self.service_pending_demotions(ctx);
        let target = self.cache.refill_target();
        if target == 0 {
            return Ok(0);
        }
        // The round's window starts before victim selection.
        let sp = aquila_sim::span::begin(ctx, "aquila.evictor.round", CostCat::Eviction);
        let batch = target.min(self.cfg.policy.evict_batch.max(1));
        let victims = self.cache.evict_candidates(ctx, batch);
        if victims.is_empty() {
            aquila_sim::span::end(ctx, sp);
            return Ok(0);
        }
        let n = victims.len();
        let c = ctx.counters();
        c.evictor_rounds += 1;
        c.evictor_pages += n as u64;
        let result = self.retire_victims(ctx, &victims);
        aquila_sim::span::end(ctx, sp);
        result?;
        Ok(n)
    }

    /// Builds the step function of a dedicated evictor thread for the DES
    /// engine (spawn one per core in [`MmioPolicy::evictor_cores`]).
    ///
    /// The thread runs [`Aquila::evictor_round`] whenever the freelist is
    /// below the low watermark, idles in `poll_interval`-cycle ticks
    /// otherwise, and exits once `stop` is set and the freelist is
    /// healthy (each round drains its own queue pair, so nothing stays in
    /// flight across steps).
    pub fn evictor(self: &Arc<Self>, stop: Arc<AtomicBool>, poll_interval: Cycles) -> ThreadFn {
        let aq = Arc::clone(self);
        Box::new(move |ctx| {
            aq.track_watermark_stall(ctx);
            if aq.needs_eviction() {
                if let Ok(n) = aq.evictor_round(ctx) {
                    if n > 0 {
                        return Step::Yield;
                    }
                }
            }
            if stop.load(Ordering::Acquire) {
                return Step::Done;
            }
            ctx.charge(CostCat::Idle, poll_interval);
            Step::Yield
        })
    }

    /// Builds the step function of the background integrity scrubber
    /// (DESIGN.md §16): an evictor-style DES thread that walks the
    /// device's LBA space one page per tick, verifying sector checksums
    /// through [`StorageAccess::scrub_page`] and repairing from the
    /// replica proactively — so cold corruption is found before a tenant
    /// faults on it. `scrub_rate` is the virtual-time pause between
    /// pages; a page whose every copy fails verification degrades the
    /// region to read-only, exactly like an unrepairable foreground
    /// read.
    ///
    /// On access paths without integrity metadata `scrub_page` is a
    /// no-op, so the thread exits immediately rather than spinning.
    pub fn scrubber(
        self: &Arc<Self>,
        access: Arc<dyn StorageAccess>,
        stop: Arc<AtomicBool>,
        scrub_rate: Cycles,
    ) -> ThreadFn {
        let aq = Arc::clone(self);
        let mut next: u64 = 0;
        Box::new(move |ctx| {
            if stop.load(Ordering::Acquire) {
                return Step::Done;
            }
            let cap = access.capacity_pages();
            if cap == 0 || scrub_rate == Cycles::ZERO || access.integrity_counters().is_none() {
                return Step::Done;
            }
            let page = next % cap;
            next = next.wrapping_add(1);
            match access.scrub_page(ctx, page) {
                Ok(repaired) => ctx.counters().scrub_repaired += repaired as u64,
                Err(_) => {
                    ctx.counters().scrub_unrepairable += 1;
                    aq.transition(ctx, RegionState::ReadOnly);
                }
            }
            ctx.counters().scrub_pages += 1;
            ctx.charge(CostCat::Idle, scrub_rate);
            Step::Yield
        })
    }

    /// Speculatively caches pages after `file_page` per the mapping's
    /// advice. Prefetched pages are inserted into the cache but not
    /// mapped; their own faults become minor.
    fn readahead(
        &self,
        ctx: &mut dyn SimCtx,
        desc: &Arc<aquila_vma::VmaDesc>,
        file: FileId,
        file_page: u64,
    ) {
        let window = match desc.advice() {
            Advice::Random | Advice::DontNeed => return,
            Advice::Sequential => READAHEAD_SEQ_PAGES,
            Advice::Normal | Advice::WillNeed => READAHEAD_PAGES,
        };
        let end_fp = desc.file_page + desc.pages;
        let mut to_fetch = Vec::new();
        for i in 1..=window as u64 {
            let fp = file_page + i;
            if fp >= end_fp {
                break;
            }
            let key = PageKey::new(desc.file, fp);
            if self.cache.lookup(ctx, key).is_none() {
                to_fetch.push(fp);
            } else {
                break; // Already cached ahead; stop the window.
            }
        }
        if to_fetch.is_empty() {
            return;
        }
        let sp = aquila_sim::span::begin(ctx, "aquila.readahead", CostCat::DeviceIo);
        // One multi-page read for the contiguous prefix; each prefetched
        // frame gets the device's page by reference.
        let mut run = 1usize;
        while run < to_fetch.len() && to_fetch[run] == to_fetch[0] + run as u64 {
            run += 1;
        }
        let mut pages = vec![Page::zero(); run];
        if self
            .files
            .read_refs(ctx, file, to_fetch[0], &mut pages)
            .is_err()
        {
            aquila_sim::span::end(ctx, sp);
            return;
        }
        for (page, &fp) in pages.into_iter().zip(&to_fetch[..run]) {
            let frame = match self.cache.try_alloc(ctx) {
                Some(f) => f,
                None => break, // Never evict for readahead.
            };
            self.cache.mem().install(frame, page);
            let key = PageKey::new(desc.file, fp);
            if self.cache.commit_insert(ctx, key, frame).is_err() {
                self.cache.release_frame(ctx, frame);
            } else {
                ctx.counters().readahead_pages += 1;
            }
        }
        aquila_sim::span::end(ctx, sp);
    }

    // ---------------------------------------------------------------
    // Transparent 2 MiB huge pages: promotion and demotion
    // (DESIGN.md §12).
    // ---------------------------------------------------------------

    /// Considers collapsing the 2 MiB run around `vpn` into one huge
    /// PTE. Runs under the per-entry fault lock; the DES steps a thread
    /// atomically through the whole fault body, so the candidacy scan
    /// and the collapse cannot interleave with another fault.
    ///
    /// The trigger is khugepaged-flavoured but synchronous: the scan
    /// only fires when the faulting page sits exactly at
    /// [`PROMOTE_THRESHOLD`] within its run, so a
    /// sequential fill pays one scan per 512 faults instead of 512.
    fn maybe_promote(&self, ctx: &mut dyn SimCtx, vpn: Vpn, desc: &Arc<aquila_vma::VmaDesc>) {
        if !self.cfg.policy.huge_pages || self.cache.slab_runs() == 0 {
            return;
        }
        if self.region_state() != RegionState::Healthy {
            return;
        }
        if (vpn.huge_index() as usize) + 1 != PROMOTE_THRESHOLD {
            // Scan only at the exact threshold crossing: a sequential
            // fill pays one scan per run, and random workloads (which
            // fault at arbitrary in-run offsets) don't pay a 512-page
            // scan on every fault past the threshold.
            return;
        }
        let hbase = vpn.huge_base();
        // The window must lie inside one VMA, and the GVA and file
        // offset must be co-aligned for a single leaf to cover both.
        if hbase.0 < desc.start.0 || hbase.0 + HUGE_PAGE_PAGES > desc.start.0 + desc.pages {
            return;
        }
        let fp_base = desc.file_page_of(hbase);
        if !fp_base.is_multiple_of(HUGE_PAGE_PAGES) {
            return;
        }
        race::acquire(ctx, (L_HUGE, 0));
        let promoted = self.huge_runs.lock().contains_key(&hbase.0);
        race::read(ctx, (V_HUGE, 0));
        race::release(ctx, (L_HUGE, 0));
        if promoted || self.cache.free_slab_runs() == 0 {
            return;
        }
        // Candidacy scan: residency and clean/dirty uniformity.
        let mut frames: Vec<Option<FrameId>> = Vec::with_capacity(HUGE_PAGE_PAGES as usize);
        let mut resident = 0usize;
        let mut dirty_ct = 0usize;
        for i in 0..HUGE_PAGE_PAGES {
            let key = PageKey::new(desc.file, fp_base + i);
            match self.cache.lookup(ctx, key) {
                Some(f) => {
                    resident += 1;
                    if self.cache.page_dirty(ctx, f) {
                        dirty_ct += 1;
                    }
                    frames.push(Some(f));
                }
                None => frames.push(None),
            }
        }
        if resident < PROMOTE_THRESHOLD {
            return;
        }
        if dirty_ct != 0 && dirty_ct != resident {
            // A mixed run would either lose dirty tracking or amplify
            // a clean majority into writeback; wait until it settles.
            ctx.counters().huge_mixed_skips += 1;
            return;
        }
        let Some(run) = self.cache.try_alloc_slab_run(ctx) else {
            return;
        };
        let sp = aquila_sim::span::begin(ctx, "aquila.huge.promote", CostCat::CacheMgmt);
        self.promote(ctx, hbase, desc, fp_base, run, &frames, dirty_ct != 0);
        aquila_sim::span::end(ctx, sp);
    }

    /// Collapses the run at `hbase` into slab run `run`: eager-fills
    /// the holes from the device, migrates resident pages, swaps the
    /// 4 KiB PTEs for one 2 MiB leaf with a single batched shootdown.
    #[allow(clippy::too_many_arguments)]
    fn promote(
        &self,
        ctx: &mut dyn SimCtx,
        hbase: Vpn,
        desc: &Arc<aquila_vma::VmaDesc>,
        fp_base: u64,
        run: usize,
        frames: &[Option<FrameId>],
        dirty: bool,
    ) {
        let file = FileId(desc.file);
        // Stage 1: device reads for the holes — the only fallible step,
        // done before any state changes so an error aborts cleanly.
        let mut fills: Vec<(usize, Page)> = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if f.is_none() {
                let mut page = [Page::zero()];
                if self
                    .files
                    .read_refs(ctx, file, fp_base + i as u64, &mut page)
                    .is_err()
                {
                    self.cache.release_slab_run(ctx, run);
                    return;
                }
                let [page] = page;
                fills.push((i, page));
            }
        }
        // Stage 2: repoint the cache into the slab run (infallible; the
        // DES cannot interleave another thread here).
        race::acquire(ctx, (L_HUGE, 0));
        // Every mapping of a displaced frame, in the order the frames
        // migrate.
        let mut displaced: Vec<FrameId> = Vec::new();
        let mut vpns: Vec<Vpn> = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if let Some(old) = *f {
                let key = PageKey::new(desc.file, fp_base + i as u64);
                self.cache
                    .migrate_frame(ctx, key, old, self.cache.slab_run_frame(run, i));
                self.rmap.take_into(old, &mut vpns);
                displaced.push(old);
            }
        }
        for (i, page) in fills {
            let slab = self.cache.slab_run_frame(run, i);
            self.cache.mem().install(slab, page);
            let key = PageKey::new(desc.file, fp_base + i as u64);
            self.cache
                .insert_pinned(ctx, key, slab)
                .expect("scan saw the page absent under the fault lock");
            if dirty {
                // A uniformly dirty run maps writable, so the fills
                // must be tracked too: their (device-identical) bytes
                // ride along at writeback.
                self.cache.mark_dirty(ctx, key, slab);
            }
        }
        // Stage 3: swap the 4 KiB PTEs for one 2 MiB leaf; one batched
        // shootdown covers every displaced mapping.
        let mut fl = if dirty { PteFlags::RW } else { PteFlags::RO };
        fl.dirty = dirty;
        let gpa = self.cache.slab_run_gpa(run);
        // Teardown and leaf install take each shard lock once, as a
        // collapse holds the PMD lock across both; the leaf goes last so
        // it never covers a PTE still to be torn down.
        let leaf = vpns.len();
        vpns.push(hbase);
        let unmapped = self.page_table.with_each(ctx, &vpns, |pt, i| {
            if i == leaf {
                pt.map_huge(hbase.base(), gpa, fl);
                None
            } else {
                pt.unmap(vpns[i].base())
            }
        });
        let flushed: Vec<Vpn> = vpns
            .iter()
            .zip(unmapped)
            .filter_map(|(&vpn, pte)| pte.map(|_| vpn))
            .collect();
        self.tlbs.shootdown_batch(ctx, &self.debts, &flushed);
        for &old in &displaced {
            self.cache.release_frame(ctx, old);
        }
        // Prime the local 2 MiB sub-TLB so the faulting access retries
        // straight into a huge hit.
        let core = ctx.core() % self.cfg.cores;
        race::acquire(ctx, (L_TLB, core as u64));
        self.tlbs
            .with_local(core, |t| t.insert_huge(hbase, gpa, fl));
        race::write(ctx, (V_TLB, core as u64));
        race::release(ctx, (L_TLB, core as u64));
        self.huge_runs.lock().insert(
            hbase.0,
            HugeRun {
                run,
                file: desc.file,
                fp_base,
            },
        );
        race::write(ctx, (V_HUGE, 0));
        race::release(ctx, (L_HUGE, 0));
        ctx.counters().huge_promotions += 1;
    }

    /// Write fault against a read-only 2 MiB leaf: the whole run turns
    /// writable at once, so all 512 pages enter the dirty trees (dirty
    /// amplification is bounded and data-safe — every amplified page
    /// writes back bytes identical to the device's).
    fn huge_write_upgrade(&self, ctx: &mut dyn SimCtx, hbase: Vpn) {
        race::acquire(ctx, (L_HUGE, 0));
        let hr = self.huge_runs.lock().get(&hbase.0).copied();
        race::read(ctx, (V_HUGE, 0));
        race::release(ctx, (L_HUGE, 0));
        let Some(hr) = hr else {
            return;
        };
        for i in 0..HUGE_PAGE_PAGES {
            let key = PageKey::new(hr.file, hr.fp_base + i);
            self.cache
                .mark_dirty(ctx, key, self.cache.slab_run_frame(hr.run, i as usize));
        }
        let mut fl = PteFlags::RW;
        fl.dirty = true;
        self.page_table.with(ctx, hbase, |pt| {
            pt.protect(hbase.base(), fl);
        });
        // Upgrades need no shootdown: stale read-only entries on other
        // cores refault at worst (same rule as the 4 KiB path).
        let core = ctx.core() % self.cfg.cores;
        race::acquire(ctx, (L_TLB, core as u64));
        self.tlbs.with_local(core, |t| t.invalidate(hbase));
        race::write(ctx, (V_TLB, core as u64));
        race::release(ctx, (L_TLB, core as u64));
        ctx.counters().huge_write_upgrades += 1;
    }

    /// Splinters the promoted runs at `hbases`: drops each 2 MiB leaf,
    /// one batched shootdown for the whole set, and unpins the slab
    /// frames so CLOCK can evict them. Demotion installs no 4 KiB PTEs
    /// — the pages stay cached in their slab frames and the next access
    /// refaults minor (lazy splinter).
    fn demote_runs(&self, ctx: &mut dyn SimCtx, hbases: &[u64]) {
        if hbases.is_empty() {
            return;
        }
        race::acquire(ctx, (L_HUGE, 0));
        let dropped: Vec<(Vpn, HugeRun)> = {
            let mut runs = self.huge_runs.lock();
            hbases
                .iter()
                .filter_map(|&h| runs.remove(&h).map(|hr| (Vpn(h), hr)))
                .collect()
        };
        race::write(ctx, (V_HUGE, 0));
        race::release(ctx, (L_HUGE, 0));
        if dropped.is_empty() {
            return;
        }
        let sp = aquila_sim::span::begin(ctx, "aquila.huge.demote", CostCat::CacheMgmt);
        for (hv, _) in &dropped {
            self.page_table.with(ctx, *hv, |pt| {
                pt.unmap_huge(hv.base());
            });
        }
        // One invalidation per run base: every core's covering 2 MiB
        // TLB entry drops with it.
        let flushed: Vec<Vpn> = dropped.iter().map(|&(hv, _)| hv).collect();
        self.tlbs.shootdown_batch(ctx, &self.debts, &flushed);
        for (_, hr) in &dropped {
            self.cache.unpin_slab_run(hr.run);
        }
        ctx.counters().huge_demotions += dropped.len() as u64;
        aquila_sim::span::end(ctx, sp);
    }

    /// Demotes every promoted run overlapping `[start, start + pages)`.
    fn demote_range(&self, ctx: &mut dyn SimCtx, start: Vpn, pages: u64) {
        if !self.cfg.policy.huge_pages {
            return;
        }
        race::acquire(ctx, (L_HUGE, 0));
        let hbases: Vec<u64> = self
            .huge_runs
            .lock()
            .range(start.huge_base().0..start.0 + pages)
            .map(|(&h, _)| h)
            .collect();
        race::read(ctx, (V_HUGE, 0));
        race::release(ctx, (L_HUGE, 0));
        self.demote_runs(ctx, &hbases);
    }

    /// Demotes every promoted run (shutdown and degradation service).
    fn demote_all(&self, ctx: &mut dyn SimCtx) {
        if !self.cfg.policy.huge_pages {
            return;
        }
        let hbases: Vec<u64> = self.huge_runs.lock().keys().copied().collect();
        self.demote_runs(ctx, &hbases);
    }

    /// Demotes the lowest-addressed run to relieve eviction pressure;
    /// false when nothing is promoted.
    fn demote_one(&self, ctx: &mut dyn SimCtx) -> bool {
        let h = self.huge_runs.lock().keys().next().copied();
        match h {
            Some(h) => {
                self.demote_runs(ctx, &[h]);
                true
            }
            None => false,
        }
    }

    /// Services a degradation-triggered demand to splinter every run
    /// (the transition fires from `&dyn` contexts).
    fn service_pending_demotions(&self, ctx: &mut dyn SimCtx) {
        // A plain load first: the flag is almost never set, and a swap
        // would take the cache line exclusive on every fault.
        if self.demote_all_pending.load(Ordering::Acquire)
            && self.demote_all_pending.swap(false, Ordering::AcqRel)
        {
            self.demote_all(ctx);
        }
    }

    /// Number of currently promoted 2 MiB runs.
    pub fn promoted_runs(&self) -> usize {
        self.huge_runs.lock().len()
    }

    /// 4 KiB pages currently mapped through 2 MiB leaves.
    pub fn huge_mapped_pages(&self) -> u64 {
        self.page_table.huge_mapped() * HUGE_PAGE_PAGES
    }

    /// Resets the page-table shard contention models (harnesses call
    /// this between a warm-up phase and a measured run, alongside the
    /// device-side `reset_timing`).
    pub fn reset_lock_timing(&self) {
        self.page_table.reset_timing();
    }

    /// Huge-TLB (2 MiB sub-array) hits summed across cores.
    pub fn tlb_huge_hits(&self) -> u64 {
        (0..self.cfg.cores)
            .map(|c| self.tlbs.with_local(c, |t| t.huge_hits()))
            .sum()
    }

    // ---------------------------------------------------------------
    // Dynamic cache resizing (operation 5: uncommon, hypervisor-backed).
    // ---------------------------------------------------------------

    /// Grows the DRAM cache by `frames` frames: a vmcall asks the host for
    /// memory, the freelist absorbs the frames, and each 1 GiB EPT granule
    /// the grown window newly covers costs one EPT fault. Returns frames
    /// actually added.
    pub fn grow_cache(&self, ctx: &mut dyn SimCtx, frames: usize) -> usize {
        aquila_sim::vmcall(ctx);
        let mut mapped_end = self.ept_mapped_end.lock();
        let added = self.cache.grow(frames);
        let end = cache_window_end(
            self.cache.mem().base().get(),
            self.cache.high_water_frames(),
        );
        // The paper maps the cache with 1 GiB pages precisely so that
        // growth inside a mapped granule takes no EPT fault at all.
        for _ in 0..end.saturating_sub(*mapped_end) / PAGE_1G {
            ctx.counters().ept_faults += 1;
            let c = ctx.cost().vmexit_roundtrip;
            ctx.charge(CostCat::Vmexit, c);
        }
        *mapped_end = (*mapped_end).max(end);
        added
    }

    /// Shrinks the cache by taking up to `frames` free frames off the
    /// freelist after one vmcall to the host. Returns frames reclaimed.
    ///
    /// The EPT keeps its 1 GiB cache granules mapped, so a later
    /// [`Aquila::grow_cache`] back into them takes no EPT fault.
    pub fn shrink_cache(&self, ctx: &mut dyn SimCtx, frames: usize) -> usize {
        aquila_sim::vmcall(ctx);
        self.cache.shrink(frames)
    }

    /// Flushes all dirty pages (shutdown path).
    pub fn sync_all(&self, ctx: &mut dyn SimCtx) -> Result<(), AquilaError> {
        // Shutdown durability wants per-page write tracking back for
        // whatever runs after the sync; splinter everything first.
        self.demote_all(ctx);
        let dirty = self.cache.drain_dirty_all(ctx);
        self.persist_drained(ctx, &dirty)
    }

    /// Per-core TLB statistics: (hits, misses) summed across cores.
    pub fn tlb_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for c in 0..self.cfg.cores {
            let (h, m) = self.tlbs.with_local(c, |t| t.stats());
            hits += h;
            misses += m;
        }
        (hits, misses)
    }
}

impl core::fmt::Debug for Aquila {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Aquila {{ cores: {}, cache: {:?}, files: {:?} }}",
            self.cfg.cores, self.cache, self.files
        )
    }
}

/// Submits planned segments straight from the cache frames, one
/// [`StorageAccess::write_batch`] per run of segments on the same access
/// path, and returns the device commands issued. Each segment's pages are
/// the frames' own pages, handed over by reference: the device adopts
/// them at submission, and the frame's next write copies first, so the
/// bytes the device holds never change under it.
pub(crate) fn write_planned(
    ctx: &mut dyn SimCtx,
    mem: &PhysMem,
    dirty: &[DirtyPage],
    segs: &[Segment],
    depth: usize,
) -> Result<u64, AquilaError> {
    let pages: Vec<Page> = dirty.iter().map(|d| mem.page(d.frame)).collect();
    let mut ios = 0;
    for group in segs.chunk_by(|a, b| Arc::ptr_eq(&a.0, &b.0)) {
        let batch: Vec<(u64, &[Page])> = group
            .iter()
            .map(|(_, dev, at)| (*dev, &pages[at.clone()]))
            .collect();
        ios += group[0].0.write_batch(ctx, &batch, depth)?;
    }
    Ok(ios)
}

/// End of the guest-physical window that 1 GiB EPT granules must cover
/// for a cache of `frames` frames starting at `base`: the paper allocates
/// the cache in 1 GiB multiples (section 3.5), so a partial tail takes a
/// whole granule.
pub(crate) fn cache_window_end(base: u64, frames: usize) -> u64 {
    (base + frames as u64 * PAGE_SIZE).next_multiple_of(PAGE_1G)
}

/// Maps a PTE's GPA back to the cache frame holding it.
fn pte_frame(cache: &DramCache, gpa: Gpa) -> Option<FrameId> {
    cache.mem().frame_of(gpa)
}

/// The `pages` consecutive pages starting at `start`.
fn vpn_range(start: Vpn, pages: u64) -> Vec<Vpn> {
    (start.0..start.0 + pages).map(Vpn).collect()
}
