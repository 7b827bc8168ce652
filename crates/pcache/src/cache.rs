//! The Aquila DRAM I/O cache: frames, index, replacement, dirty tracking.
//!
//! This ties the pieces of section 3.2 together:
//!
//! - a concurrent hash table indexes cached pages (no global tree lock);
//! - a two-level freelist hands out frames with per-core locality;
//! - CLOCK approximates LRU, updated on page faults;
//! - per-core dirty trees keep writeback ordered by device offset;
//! - eviction is batched (512 pages) so unmapping, TLB shootdown, and
//!   writeback amortize.
//!
//! The cache is policy-mechanism split: it *selects* victims and manages
//! frames, while the mmio engine (the `aquila` crate) owns the page table
//! and performs unmapping, shootdowns, and device writeback — mirroring
//! the paper's layering where applications can customize either side.

use aquila_mmu::{FrameId, PhysMem, HUGE_PAGE_PAGES};
use aquila_sim::{race, CostCat, Page, SimCtx};
use aquila_sync::Mutex;
use aquila_vmx::Gpa;

use crate::dirty::{DirtyPage, DirtyTrees};
use crate::freelist::{AllocOutcome, Freelist, FreelistConfig, NumaTopology};
use crate::hashtable::{InsertOutcome, LockFreeMap};
use crate::key::PageKey;
use crate::lru::ClockLru;

/// Cache construction parameters.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum frames the cache may ever hold (sizes the frame pool).
    pub max_frames: usize,
    /// Frames initially available (dynamic resizing can grow to
    /// `max_frames`).
    pub initial_frames: usize,
    /// Free-frame count below which the asynchronous write-behind
    /// pipeline starts evicting (0 disables watermark-driven eviction;
    /// faulting vcores then evict synchronously as before).
    pub low_watermark: usize,
    /// Free-frame count the pipeline refills to once triggered. Must be
    /// `>= low_watermark`; 0 disables watermark-driven eviction.
    pub high_watermark: usize,
    /// NUMA shape for the freelist.
    pub topology: NumaTopology,
    /// Freelist batching parameters.
    pub freelist: FreelistConfig,
    /// Number of 2 MiB slab runs backing huge-page promotion (0 disables
    /// the slab window). Each run is 512 physically contiguous frames
    /// appended beyond `max_frames`, outside the ordinary freelist.
    pub slab_runs: usize,
}

/// Guest-physical base address of the frame pool.
const GPA_BASE: u64 = 0x1_0000_0000;
/// Guest-physical base of the slab window (2 MiB-aligned, disjoint from
/// the ordinary window).
const SLAB_GPA_BASE: u64 = 0x8_0000_0000;

impl CacheConfig {
    /// A cache of `frames` frames on a `cores`-core machine. More than 16
    /// cores are split into two NUMA nodes of `cores.div_ceil(2)` cores
    /// (the paper's testbed is two 16-thread sockets); up to 16 cores are
    /// one node.
    ///
    /// The freelist spill threshold scales with the per-core share of the
    /// cache so eviction-freed frames flow back to the shared NUMA queue
    /// promptly (the paper's absolute numbers assume multi-GB caches).
    pub fn new(frames: usize, cores: usize) -> CacheConfig {
        let spill = (frames / cores.max(1) / 2).clamp(32, 8192);
        let topology = if cores > 16 {
            NumaTopology {
                nodes: 2,
                cores_per_node: cores.div_ceil(2),
            }
        } else {
            NumaTopology::flat(cores)
        };
        CacheConfig {
            max_frames: frames,
            initial_frames: frames,
            low_watermark: 0,
            high_watermark: 0,
            topology,
            freelist: FreelistConfig {
                core_spill_threshold: spill,
                level_batch: (spill / 2).max(16),
                ..FreelistConfig::default()
            },
            slab_runs: 0,
        }
    }
}

// Race-detector identities (`aquila_sim::race`). The hash table is
// deliberately lock-free on the read side, so lookups are annotated as
// Acquire-reads of the per-key slot — paired with the Release-publish
// writes that mutations perform under the per-bucket lock — instead of
// lockset-checked plain accesses. The CLOCK bits are Relaxed atomics
// carrying no cross-thread data flow and stay unannotated. Declared
// nesting order (see [`DramCache::new`]): a bucket lock may be held while
// taking an owner slot (commit_insert); dirty trees and the freelist are
// leaves.
const L_BUCKET: &str = "pcache.map.bucket";
const V_SLOT: &str = "pcache.map.key";
const L_OWNER: &str = "pcache.owner";
const V_OWNER: &str = "pcache.owner.slot";
const L_DIRTY: &str = "pcache.dirty";
const V_DIRTY: &str = "pcache.dirty.trees";
const L_FREELIST: &str = "pcache.freelist";
const V_FREELIST: &str = "pcache.freelist.queues";
/// NUMA node-queue traffic is annotated as release-publishes (spills)
/// and acquire-reads (refills) per node instead of lockset-checked
/// accesses. The freelist's one host mutex is not part of the model: the
/// contention the paper's design avoids is what these per-core and
/// per-node annotations and the `freelist_op` charge describe.
const V_FREELIST_NODE: &str = "pcache.freelist.node_queue";
const L_SLAB: &str = "pcache.slab";
const V_SLAB: &str = "pcache.slab.runs";

/// The owner slot of a frame that holds no page (packed keys are never 0).
const NO_OWNER: u64 = 0;

/// Decodes an owner slot.
fn owner_key(slot: u64) -> Option<PageKey> {
    (slot != NO_OWNER).then(|| PageKey::unpack(slot))
}

/// Upper bound on distinct tenants a cache tracks (DESIGN.md §15). Ids
/// at or beyond the cap alias into the default tenant.
pub const MAX_TENANTS: usize = 64;

/// Files a cache can attribute to non-default tenants. File ids are
/// allocated densely from zero, so a fixed window covers every real
/// workload; ids beyond it fall back to the default tenant.
const FILE_TENANT_CAP: usize = 1024;

/// Per-tenant residency accounting and quota state.
///
/// Tenancy is attributed per *file*: [`DramCache::bind_file_tenant`]
/// maps a file id to a tenant, and every cached page of that file
/// charges the tenant's resident count at index-insert time (debited
/// when the page leaves the index on eviction). Tenant 0 is the default
/// tenant; unbound files land there. The hot-path accounting is a single
/// array-indexed counter update and the file→tenant lookup one array
/// read, in the table's own `aquila_sync` cell, so tenancy adds no lock
/// to the pcache nesting order the race detector checks.
struct TenantTable {
    file_tenant: Vec<u16>,
    resident: Vec<usize>,
    /// Frame quota per tenant; 0 means unlimited.
    quota: Vec<usize>,
}

impl TenantTable {
    fn new() -> TenantTable {
        TenantTable {
            file_tenant: vec![0; FILE_TENANT_CAP],
            resident: vec![0; MAX_TENANTS],
            quota: vec![0; MAX_TENANTS],
        }
    }

    fn tenant_of(&self, file: u32) -> u16 {
        self.file_tenant.get(file as usize).copied().unwrap_or(0)
    }

    fn slot(tenant: u16) -> usize {
        (tenant as usize) % MAX_TENANTS
    }

    fn credit(&mut self, file: u32) {
        let t = Self::slot(self.tenant_of(file));
        self.resident[t] += 1;
    }

    fn debit(&mut self, file: u32) {
        let t = Self::slot(self.tenant_of(file));
        // Saturating: a file rebound mid-run could otherwise underflow.
        self.resident[t] = self.resident[t].saturating_sub(1);
    }
}

/// An evicted page the mmio engine must now unmap and possibly write back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The page that was cached.
    pub key: PageKey,
    /// Its frame (still holding the data until released).
    pub frame: FrameId,
    /// Whether the frame holds unwritten modifications.
    pub dirty: bool,
}

/// The DRAM I/O cache.
pub struct DramCache {
    mem: PhysMem,
    map: LockFreeMap,
    freelist: Freelist,
    clock: ClockLru,
    dirty: DirtyTrees,
    /// Reverse mapping frame -> key for eviction: the owner's
    /// [`PageKey::pack`], or [`NO_OWNER`] for a frame that holds no page.
    owners: Mutex<Vec<u64>>,
    cfg: CacheConfig,
    pool: Mutex<FramePool>,
    /// Free slab runs, sorted descending so `pop` yields the lowest id
    /// (deterministic allocation order).
    slab_free: Mutex<Vec<usize>>,
    /// Resident pages per slab run; a run returns to `slab_free` when its
    /// occupancy drains back to zero.
    slab_occupancy: Vec<Mutex<u16>>,
    /// Per-tenant residency/quota accounting (DESIGN.md §15).
    tenants: Mutex<TenantTable>,
}

/// Which ordinary frame ids the cache may use (dynamic resizing).
struct FramePool {
    /// Frames currently usable.
    active: usize,
    /// One past the highest frame id ever handed to the freelist.
    high_water: usize,
    /// Ids [`DramCache::shrink`] took off the freelist; [`DramCache::grow`]
    /// hands these back before it extends `high_water`, so every id is
    /// either free, in use or parked, never two of them.
    parked: Vec<FrameId>,
}

impl DramCache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if `initial_frames > max_frames` or the pool is empty.
    pub fn new(cfg: CacheConfig) -> DramCache {
        assert!(cfg.max_frames > 0, "cache needs at least one frame");
        assert!(
            cfg.initial_frames <= cfg.max_frames,
            "initial frames exceed pool"
        );
        race::declare_order("pcache", &[L_BUCKET, L_OWNER, L_DIRTY, L_FREELIST, L_SLAB]);
        let slab_frames = cfg.slab_runs * HUGE_PAGE_PAGES as usize;
        let total_frames = cfg.max_frames + slab_frames;
        let mem = PhysMem::with_slab(
            Gpa(GPA_BASE),
            cfg.max_frames,
            Gpa(SLAB_GPA_BASE),
            slab_frames,
        );
        let freelist = Freelist::new(
            cfg.topology,
            cfg.freelist,
            (0..cfg.initial_frames as u32).map(FrameId),
        );
        DramCache {
            map: LockFreeMap::new(total_frames),
            clock: ClockLru::new(total_frames),
            dirty: DirtyTrees::new(cfg.topology.cores(), total_frames),
            owners: Mutex::new(vec![NO_OWNER; total_frames]),
            freelist,
            mem,
            pool: Mutex::new(FramePool {
                active: cfg.initial_frames,
                high_water: cfg.initial_frames,
                parked: Vec::new(),
            }),
            slab_free: Mutex::new((0..cfg.slab_runs).rev().collect()),
            slab_occupancy: (0..cfg.slab_runs).map(|_| Mutex::new(0)).collect(),
            tenants: Mutex::new(TenantTable::new()),
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Tenancy (DESIGN.md §15): per-tenant residency and quotas.
    // ---------------------------------------------------------------

    /// Attributes `file`'s cached pages to `tenant` (call before the
    /// file's pages enter the cache; tenant 0 is the default tenant).
    pub fn bind_file_tenant(&self, file: u32, tenant: u16) {
        if let Some(slot) = self.tenants.lock().file_tenant.get_mut(file as usize) {
            *slot = tenant;
        }
    }

    /// The tenant `file` is bound to (0 when unbound).
    pub fn tenant_of_file(&self, file: u32) -> u16 {
        self.tenants.lock().tenant_of(file)
    }

    /// Sets `tenant`'s frame quota (0 = unlimited).
    pub fn set_tenant_quota(&self, tenant: u16, frames: usize) {
        self.tenants.lock().quota[TenantTable::slot(tenant)] = frames;
    }

    /// Frames `tenant`'s files currently hold in the cache.
    pub fn tenant_resident(&self, tenant: u16) -> usize {
        self.tenants.lock().resident[TenantTable::slot(tenant)]
    }

    /// `tenant`'s configured quota (0 = unlimited).
    pub fn tenant_quota(&self, tenant: u16) -> usize {
        self.tenants.lock().quota[TenantTable::slot(tenant)]
    }

    /// How many frames `tenant` holds *beyond* its quota (0 with no
    /// quota, or while under it). The fairness round evicts in
    /// proportion to it.
    pub fn tenant_overage(&self, tenant: u16) -> usize {
        let quota = self.tenant_quota(tenant);
        if quota == 0 {
            return 0;
        }
        self.tenant_resident(tenant).saturating_sub(quota)
    }

    /// The frame pool (for reading/filling page data).
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// The NUMA shape the freelist was built for.
    pub fn topology(&self) -> NumaTopology {
        self.cfg.topology
    }

    /// Cached (resident) page count.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Dirty page count.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Frames currently usable by the cache (dynamic resizing changes
    /// this).
    pub fn active_frames(&self) -> usize {
        self.pool.lock().active
    }

    /// One past the highest ordinary frame id the cache has ever used:
    /// shrinking parks ids below it rather than lowering it.
    pub fn high_water_frames(&self) -> usize {
        self.pool.lock().high_water
    }

    /// Looks up a cached page, updating the LRU approximation.
    pub fn lookup(&self, ctx: &mut dyn SimCtx, key: PageKey) -> Option<FrameId> {
        let c = ctx.cost().hash_lookup;
        ctx.charge(CostCat::CacheMgmt, c);
        race::read_acquire(ctx, (V_SLOT, key.pack()));
        let frame = self.map.get(key).map(|v| FrameId(v as u32));
        if let Some(f) = frame {
            self.clock.touch(f);
        }
        frame
    }

    /// The page `frame` holds, from its owner slot.
    fn owner(&self, frame: FrameId) -> Option<PageKey> {
        owner_key(self.owners.lock()[frame.0 as usize])
    }

    /// Sets `frame`'s owner slot.
    fn set_owner(&self, frame: FrameId, key: Option<PageKey>) {
        let slot = key.map_or(NO_OWNER, PageKey::pack);
        self.owners.lock()[frame.0 as usize] = slot;
    }

    /// Allocates a free frame without evicting; `None` means the caller
    /// must run an eviction round.
    ///
    /// Freelist ownership is per-vcore: the caller's core queue is its
    /// own race-detector instance, node-queue refills are annotated as
    /// acquire-reads of the node queue, and a sibling steal briefly takes
    /// the victim core's instance so the cross-core queue traffic stays
    /// lockset-consistent. The model has no shared lock on this path (the
    /// freelist's host mutex charges nothing).
    pub fn try_alloc(&self, ctx: &mut dyn SimCtx) -> Option<FrameId> {
        let c = ctx.cost().freelist_op;
        ctx.charge(CostCat::CacheMgmt, c);
        let k = ctx.core() as u64;
        race::acquire(ctx, (L_FREELIST, k));
        let got = self.freelist.alloc_traced(ctx.core());
        match got {
            Some((_, AllocOutcome::LocalHit)) | None => {}
            Some((_, AllocOutcome::NodeRefill(node))) => {
                ctx.counters().freelist_refills += 1;
                race::read_acquire(ctx, (V_FREELIST_NODE, node as u64));
            }
            Some((_, AllocOutcome::RemoteNode(node))) => {
                let c = ctx.counters();
                c.freelist_refills += 1;
                c.freelist_remote_refills += 1;
                race::read_acquire(ctx, (V_FREELIST_NODE, node as u64));
            }
            Some((_, AllocOutcome::Steal { victim, rebalanced })) => {
                let c = ctx.counters();
                c.freelist_steals += 1;
                c.freelist_stolen_frames += 1 + rebalanced as u64;
                race::acquire(ctx, (L_FREELIST, victim as u64));
                race::write(ctx, (V_FREELIST, victim as u64));
                race::release(ctx, (L_FREELIST, victim as u64));
            }
        }
        race::write(ctx, (V_FREELIST, k));
        race::release(ctx, (L_FREELIST, k));
        got.map(|(f, _)| f)
    }

    /// Number of 2 MiB slab runs configured (0 = promotion disabled).
    pub fn slab_runs(&self) -> usize {
        self.cfg.slab_runs
    }

    /// Free (unallocated) slab runs.
    pub fn free_slab_runs(&self) -> usize {
        self.slab_free.lock().len()
    }

    /// First frame id of slab run `run`.
    pub fn slab_run_frame(&self, run: usize, page: usize) -> FrameId {
        debug_assert!(run < self.cfg.slab_runs && page < HUGE_PAGE_PAGES as usize);
        FrameId((self.mem.slab_start() + run * HUGE_PAGE_PAGES as usize + page) as u32)
    }

    /// Guest-physical base address of slab run `run` (2 MiB-aligned).
    pub fn slab_run_gpa(&self, run: usize) -> Gpa {
        self.mem.gpa_of(self.slab_run_frame(run, 0))
    }

    /// The slab run containing `frame`, or `None` for ordinary frames.
    pub fn slab_run_of(&self, frame: FrameId) -> Option<usize> {
        let idx = frame.0 as usize;
        if idx >= self.mem.slab_start() && idx < self.mem.frame_count() {
            Some((idx - self.mem.slab_start()) / HUGE_PAGE_PAGES as usize)
        } else {
            None
        }
    }

    /// Allocates the lowest-numbered free slab run for a promotion.
    pub fn try_alloc_slab_run(&self, ctx: &mut dyn SimCtx) -> Option<usize> {
        let c = ctx.cost().freelist_op;
        ctx.charge(CostCat::CacheMgmt, c);
        race::acquire(ctx, (L_SLAB, 0));
        let run = self.slab_free.lock().pop();
        race::write(ctx, (V_SLAB, 0));
        race::release(ctx, (L_SLAB, 0));
        run
    }

    /// Returns an *empty* slab run allocated with
    /// [`DramCache::try_alloc_slab_run`] whose promotion was abandoned
    /// before any page migrated into it.
    ///
    /// # Panics
    ///
    /// Panics if pages have already migrated into the run (those drain
    /// back through [`DramCache::release_frame`] instead).
    pub fn release_slab_run(&self, ctx: &mut dyn SimCtx, run: usize) {
        race::acquire(ctx, (L_SLAB, 0));
        assert_eq!(
            *self.slab_occupancy[run].lock(),
            0,
            "released slab run still holds pages"
        );
        let mut free = self.slab_free.lock();
        free.push(run);
        free.sort_unstable_by(|a, b| b.cmp(a));
        drop(free);
        race::write(ctx, (V_SLAB, 0));
        race::release(ctx, (L_SLAB, 0));
    }

    /// Migrates a cached page from `old` (an ordinary frame) into `new`
    /// (a slab frame) during huge-page collapse: moves the page (charged
    /// as the copy the hardware makes), repoints the index, owner slots, and dirty tree, and charges the
    /// run's occupancy. Returns whether the page was dirty.
    ///
    /// The caller still owns `old`: it must unmap any virtual mappings,
    /// shoot down TLBs, and then call [`DramCache::release_frame`] on it.
    /// The slab frame is left *pinned* (invisible to CLOCK) until
    /// [`DramCache::unpin_slab_run`] makes the run's pages evictable
    /// again at demotion.
    pub fn migrate_frame(
        &self,
        ctx: &mut dyn SimCtx,
        key: PageKey,
        old: FrameId,
        new: FrameId,
    ) -> bool {
        let run = self
            .slab_run_of(new)
            .expect("migration target must be a slab frame");
        let c = ctx.cost().memcpy_4k_avx2 + ctx.cost().hash_update;
        ctx.charge(CostCat::CacheMgmt, c);
        // The model copies the page; the host moves the reference.
        let page = self.mem.install(old, Page::zero());
        self.mem.install(new, page);
        let bucket = self.map.bucket_index(key);
        race::acquire(ctx, (L_BUCKET, bucket));
        let repointed = self.map.update(key, new.0 as u64);
        race::write_release(ctx, (V_SLOT, key.pack()));
        race::release(ctx, (L_BUCKET, bucket));
        assert!(
            repointed,
            "page vanished during promotion; candidacy is checked under the fault lock"
        );
        race::acquire(ctx, (L_OWNER, old.0 as u64));
        self.set_owner(old, None);
        race::write(ctx, (V_OWNER, old.0 as u64));
        race::release(ctx, (L_OWNER, old.0 as u64));
        race::acquire(ctx, (L_OWNER, new.0 as u64));
        self.set_owner(new, Some(key));
        race::write(ctx, (V_OWNER, new.0 as u64));
        race::release(ctx, (L_OWNER, new.0 as u64));
        race::acquire(ctx, (L_DIRTY, 0));
        let dirty = match self.dirty.take(old, key) {
            Some(core) => {
                self.dirty.insert(core, key, new);
                true
            }
            None => false,
        };
        race::write(ctx, (V_DIRTY, 0));
        race::release(ctx, (L_DIRTY, 0));
        race::acquire(ctx, (L_SLAB, 0));
        *self.slab_occupancy[run].lock() += 1;
        race::write(ctx, (V_SLAB, 0));
        race::release(ctx, (L_SLAB, 0));
        dirty
    }

    /// Publishes `key -> frame` for a slab frame the promoter filled
    /// directly from the device (a page of the run that was not yet
    /// resident). Like [`DramCache::commit_insert`] but the frame stays
    /// pinned (invisible to CLOCK) and the run's occupancy is charged.
    pub fn insert_pinned(
        &self,
        ctx: &mut dyn SimCtx,
        key: PageKey,
        frame: FrameId,
    ) -> Result<(), FrameId> {
        let run = self
            .slab_run_of(frame)
            .expect("pinned inserts target slab frames");
        let c = ctx.cost().hash_update;
        ctx.charge(CostCat::CacheMgmt, c);
        let bucket = self.map.bucket_index(key);
        race::acquire(ctx, (L_BUCKET, bucket));
        let result = match self.map.insert(key, frame.0 as u64) {
            InsertOutcome::Inserted => {
                race::acquire(ctx, (L_OWNER, frame.0 as u64));
                self.set_owner(frame, Some(key));
                race::write(ctx, (V_OWNER, frame.0 as u64));
                race::release(ctx, (L_OWNER, frame.0 as u64));
                Ok(())
            }
            InsertOutcome::AlreadyPresent(v) => Err(FrameId(v as u32)),
        };
        race::write_release(ctx, (V_SLOT, key.pack()));
        race::release(ctx, (L_BUCKET, bucket));
        if result.is_ok() {
            self.tenants.lock().credit(key.file);
            race::acquire(ctx, (L_SLAB, 0));
            *self.slab_occupancy[run].lock() += 1;
            race::write(ctx, (V_SLAB, 0));
            race::release(ctx, (L_SLAB, 0));
        }
        result
    }

    /// Makes a demoted run's pages visible to CLOCK again (they remain
    /// resident in their slab frames as ordinary 4 KiB pages and drain
    /// out through normal eviction).
    pub fn unpin_slab_run(&self, run: usize) {
        for page in 0..HUGE_PAGE_PAGES as usize {
            let frame = self.slab_run_frame(run, page);
            if self.owner(frame).is_some() {
                self.clock.mark_resident(frame);
            }
        }
    }

    /// Whether `frame` holds a dirty page (uniform clean/dirty candidacy
    /// check for promotion), charged as the paper's dirty-tree lookup.
    pub fn page_dirty(&self, ctx: &mut dyn SimCtx, frame: FrameId) -> bool {
        let c = ctx.cost().rbtree_op;
        ctx.charge(CostCat::CacheMgmt, c);
        race::acquire(ctx, (L_DIRTY, 0));
        let dirty = self.dirty.is_dirty(frame);
        race::read(ctx, (V_DIRTY, 0));
        race::release(ctx, (L_DIRTY, 0));
        dirty
    }

    /// Selects and detaches an eviction batch of up to `batch` pages.
    ///
    /// Selection is tenant-fair (DESIGN.md §15): each tenant over its
    /// declared quota contributes victims in proportion to its overage,
    /// but never more than it, and the global CLOCK sweep tops up
    /// whatever the scoped sweeps did not supply. With no quota declared
    /// this is one global CLOCK batch.
    ///
    /// Victims are removed from the index and the dirty trees atomically
    /// with respect to lookups (a concurrent fault on a victim page simply
    /// misses and refetches). The caller must unmap the pages, perform one
    /// batched TLB shootdown, write back the dirty victims (see
    /// [`crate::dirty::coalesce_runs`]), and then return the frames with
    /// [`DramCache::release_frame`].
    pub fn evict_candidates(&self, ctx: &mut dyn SimCtx, batch: usize) -> Vec<Victim> {
        let shares: Vec<(u16, usize)> = (0..MAX_TENANTS as u16)
            .map(|t| (t, self.tenant_overage(t)))
            .filter(|&(_, overage)| overage > 0)
            .collect();
        let total: usize = shares.iter().map(|&(_, overage)| overage).sum();
        let mut victims = Vec::new();
        for &(t, overage) in &shares {
            let want = (batch * overage)
                .div_ceil(total)
                .min(overage)
                .min(batch - victims.len());
            if want == 0 {
                break;
            }
            victims.extend(self.evict_candidates_from(ctx, want, t));
        }
        if victims.len() < batch {
            let frames = self
                .clock
                .collect_victims_where(batch - victims.len(), |_| true);
            victims.extend(self.detach_frames(ctx, frames));
        }
        victims
    }

    /// The CLOCK sweep restricted to one tenant's frames: it only
    /// considers frames whose owner key belongs to a file bound to
    /// `tenant`, leaving every other tenant's reference bits untouched.
    /// [`DramCache::evict_candidates`] runs it per over-quota tenant, and
    /// the engine's quota self-reclaim runs it on the faulting tenant.
    pub fn evict_candidates_from(
        &self,
        ctx: &mut dyn SimCtx,
        batch: usize,
        tenant: u16,
    ) -> Vec<Victim> {
        let frames = self.clock.collect_victims_where(batch, |frame| {
            // An unannotated peek at the owner slot: the detach below
            // re-takes it authoritatively, so a racing release at worst
            // wastes one candidate slot.
            self.owner(frame)
                .is_some_and(|key| self.tenants.lock().tenant_of(key.file) == tenant)
        });
        self.detach_frames(ctx, frames)
    }

    /// Detaches the given frames from the index/dirty trees, producing
    /// the victim batch the engine must unmap and retire.
    fn detach_frames(&self, ctx: &mut dyn SimCtx, frames: Vec<FrameId>) -> Vec<Victim> {
        let sp = aquila_sim::span::begin(ctx, "pcache.select_victims", CostCat::Eviction);
        let mut victims = Vec::with_capacity(frames.len());
        let mut charge = aquila_sim::Cycles::ZERO;
        for frame in frames {
            race::acquire(ctx, (L_OWNER, frame.0 as u64));
            let key = owner_key(std::mem::replace(
                &mut self.owners.lock()[frame.0 as usize],
                NO_OWNER,
            ));
            race::write(ctx, (V_OWNER, frame.0 as u64));
            race::release(ctx, (L_OWNER, frame.0 as u64));
            let Some(key) = key else {
                continue; // Raced with a concurrent release.
            };
            charge += ctx.cost().hash_update + ctx.cost().lru_update;
            let bucket = self.map.bucket_index(key);
            race::acquire(ctx, (L_BUCKET, bucket));
            let removed = self.map.remove(key);
            race::write_release(ctx, (V_SLOT, key.pack()));
            race::release(ctx, (L_BUCKET, bucket));
            if removed.is_none() {
                continue;
            }
            self.tenants.lock().debit(key.file);
            race::acquire(ctx, (L_DIRTY, 0));
            let dirty = self.dirty.take(frame, key).is_some();
            race::write(ctx, (V_DIRTY, 0));
            race::release(ctx, (L_DIRTY, 0));
            if dirty {
                charge += ctx.cost().rbtree_op;
            }
            self.clock.mark_free(frame);
            victims.push(Victim { key, frame, dirty });
            let c = ctx.counters();
            c.evictions += 1;
            c.dirty_victims += dirty as u64;
        }
        ctx.charge(CostCat::Eviction, charge);
        aquila_sim::span::end(ctx, sp);
        victims
    }

    /// Publishes `key -> frame` in the index.
    ///
    /// On a fault race the insert loses and the existing frame is
    /// returned; the caller should map that frame instead and release its
    /// own with [`DramCache::release_frame`].
    pub fn commit_insert(
        &self,
        ctx: &mut dyn SimCtx,
        key: PageKey,
        frame: FrameId,
    ) -> Result<(), FrameId> {
        let sp = aquila_sim::span::begin(ctx, "pcache.insert", CostCat::CacheMgmt);
        let c = ctx.cost().hash_update + ctx.cost().lru_update;
        ctx.charge(CostCat::CacheMgmt, c);
        let bucket = self.map.bucket_index(key);
        race::acquire(ctx, (L_BUCKET, bucket));
        let result = match self.map.insert(key, frame.0 as u64) {
            InsertOutcome::Inserted => {
                race::acquire(ctx, (L_OWNER, frame.0 as u64));
                self.set_owner(frame, Some(key));
                race::write(ctx, (V_OWNER, frame.0 as u64));
                race::release(ctx, (L_OWNER, frame.0 as u64));
                self.clock.mark_resident(frame);
                self.tenants.lock().credit(key.file);
                Ok(())
            }
            InsertOutcome::AlreadyPresent(v) => Err(FrameId(v as u32)),
        };
        race::write_release(ctx, (V_SLOT, key.pack()));
        race::release(ctx, (L_BUCKET, bucket));
        aquila_sim::span::end(ctx, sp);
        result
    }

    /// Returns a frame to its pool (after eviction writeback, or when an
    /// insert lost a race), dropping the page it held. Ordinary frames go
    /// back to the freelist; slab
    /// frames drain their run's occupancy, and the run returns to the
    /// slab pool once empty — slab frames never enter the freelist.
    pub fn release_frame(&self, ctx: &mut dyn SimCtx, frame: FrameId) {
        let c = ctx.cost().freelist_op;
        ctx.charge(CostCat::CacheMgmt, c);
        self.clock.mark_free(frame);
        race::acquire(ctx, (L_OWNER, frame.0 as u64));
        self.set_owner(frame, None);
        race::write(ctx, (V_OWNER, frame.0 as u64));
        race::release(ctx, (L_OWNER, frame.0 as u64));
        // A free frame holds no page: its reference goes back now, not
        // at the next fill.
        self.mem.zero(frame);
        if let Some(run) = self.slab_run_of(frame) {
            race::acquire(ctx, (L_SLAB, 0));
            let mut occ = self.slab_occupancy[run].lock();
            *occ -= 1;
            if *occ == 0 {
                let mut free = self.slab_free.lock();
                free.push(run);
                free.sort_unstable_by(|a, b| b.cmp(a));
                aquila_sim::trace::instant(ctx, "pcache.slab.run_freed", CostCat::CacheMgmt);
            }
            drop(occ);
            race::write(ctx, (V_SLAB, 0));
            race::release(ctx, (L_SLAB, 0));
            return;
        }
        let k = ctx.core() as u64;
        race::acquire(ctx, (L_FREELIST, k));
        if self.freelist.free(ctx.core(), frame) {
            ctx.counters().freelist_spills += 1;
            aquila_sim::trace::instant(ctx, "pcache.freelist.spill", CostCat::CacheMgmt);
            let node = self.cfg.topology.node_of(ctx.core()) as u64;
            race::write_release(ctx, (V_FREELIST_NODE, node));
        }
        race::write(ctx, (V_FREELIST, k));
        race::release(ctx, (L_FREELIST, k));
    }

    /// Marks a cached page dirty (write-fault path). Returns true if the
    /// page transitioned clean -> dirty.
    pub fn mark_dirty(&self, ctx: &mut dyn SimCtx, key: PageKey, frame: FrameId) -> bool {
        let c = ctx.cost().rbtree_op;
        ctx.charge(CostCat::CacheMgmt, c);
        race::acquire(ctx, (L_DIRTY, 0));
        let fresh = self.dirty.insert(ctx.core(), key, frame);
        race::write(ctx, (V_DIRTY, 0));
        race::release(ctx, (L_DIRTY, 0));
        fresh
    }

    /// Drains the dirty pages of `file` in `[start, end)` page range for
    /// writeback (`msync` / background cleaning), sorted by device offset.
    pub fn drain_dirty_range(
        &self,
        ctx: &mut dyn SimCtx,
        file: u32,
        start: u64,
        end: u64,
    ) -> Vec<DirtyPage> {
        race::acquire(ctx, (L_DIRTY, 0));
        let pages = self.dirty.drain_file_range(file, start, end);
        race::write(ctx, (V_DIRTY, 0));
        race::release(ctx, (L_DIRTY, 0));
        let c = ctx.cost().rbtree_op * pages.len().max(1) as u64;
        ctx.charge(CostCat::CacheMgmt, c);
        pages
    }

    /// Drains every dirty page (shutdown or full sync).
    pub fn drain_dirty_all(&self, ctx: &mut dyn SimCtx) -> Vec<DirtyPage> {
        race::acquire(ctx, (L_DIRTY, 0));
        let pages = self.dirty.drain_all();
        race::write(ctx, (V_DIRTY, 0));
        race::release(ctx, (L_DIRTY, 0));
        let c = ctx.cost().rbtree_op * pages.len().max(1) as u64;
        ctx.charge(CostCat::CacheMgmt, c);
        pages
    }

    /// Grows the active frame pool by `extra` frames (dynamic cache
    /// resizing, backed by new EPT mappings in the engine): ids a shrink
    /// parked come back first, then fresh ids above the high-water mark.
    /// Returns the number actually added (bounded by `max_frames`).
    pub fn grow(&self, extra: usize) -> usize {
        let mut pool = self.pool.lock();
        let add = extra.min(self.cfg.max_frames - pool.active);
        let reused = add.min(pool.parked.len());
        let fresh = (add - reused) as u32;
        let start = pool.high_water as u32;
        let keep = pool.parked.len() - reused;
        let back = pool.parked.split_off(keep);
        self.freelist.grow(
            0,
            back.into_iter().chain((start..start + fresh).map(FrameId)),
        );
        pool.high_water += fresh as usize;
        pool.active += add;
        add
    }

    /// Shrinks the active pool by reclaiming up to `n` *free* frames and
    /// parking their ids for a later [`DramCache::grow`]; returns how many
    /// were reclaimed. (Resident frames must be evicted first by the
    /// engine.)
    pub fn shrink(&self, n: usize) -> usize {
        let mut pool = self.pool.lock();
        let mut got = 0;
        for _ in 0..n {
            // Reclaim from any core's perspective; core 0 is fine because
            // the freelist falls through to the node queues.
            match self.freelist.alloc(0) {
                Some(f) => {
                    pool.parked.push(f);
                    got += 1;
                }
                None => break,
            }
        }
        pool.active -= got;
        got
    }

    /// Free-frame count (diagnostics).
    pub fn free_frames(&self) -> usize {
        self.freelist.free_count()
    }

    /// Configured low watermark (0 = watermark eviction disabled).
    pub fn low_watermark(&self) -> usize {
        self.cfg.low_watermark
    }

    /// Configured high watermark (0 = watermark eviction disabled).
    pub fn high_watermark(&self) -> usize {
        self.cfg.high_watermark
    }

    /// True when watermark eviction is enabled and the free pool has
    /// dropped below the low watermark (the evictor's wake condition).
    pub fn below_low_watermark(&self) -> bool {
        self.cfg.low_watermark > 0 && self.freelist.free_count() < self.cfg.low_watermark
    }

    /// How many frames the evictor should reclaim right now to bring the
    /// free pool back up to the high watermark (0 when already there or
    /// watermarks are disabled).
    pub fn refill_target(&self) -> usize {
        if self.cfg.high_watermark == 0 {
            return 0;
        }
        self.cfg
            .high_watermark
            .saturating_sub(self.freelist.free_count())
    }
}

impl core::fmt::Debug for DramCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "DramCache {{ resident: {}, free: {}, dirty: {}, active: {} }}",
            self.resident(),
            self.free_frames(),
            self.dirty_count(),
            self.active_frames()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    /// The batch size the tests evict in.
    const BATCH: usize = 4;

    fn small_cache(frames: usize) -> DramCache {
        DramCache::new(CacheConfig::new(frames, 2))
    }

    #[test]
    fn fill_lookup_roundtrip() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        let key = PageKey::new(1, 42);
        assert!(cache.lookup(&mut ctx, key).is_none());
        let frame = cache.try_alloc(&mut ctx).unwrap();
        cache.mem().write(frame, 0, b"cached!");
        cache.commit_insert(&mut ctx, key, frame).unwrap();
        let hit = cache.lookup(&mut ctx, key).unwrap();
        assert_eq!(hit, frame);
        let mut buf = [0u8; 7];
        cache.mem().read(hit, 0, &mut buf);
        assert_eq!(&buf, b"cached!");
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn insert_race_returns_existing_frame() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        let key = PageKey::new(1, 5);
        let f1 = cache.try_alloc(&mut ctx).unwrap();
        let f2 = cache.try_alloc(&mut ctx).unwrap();
        cache.commit_insert(&mut ctx, key, f1).unwrap();
        let existing = cache.commit_insert(&mut ctx, key, f2).unwrap_err();
        assert_eq!(existing, f1);
        cache.release_frame(&mut ctx, f2);
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn eviction_detaches_batch() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        // Fill all 8 frames.
        for p in 0..8u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(0, p), f)
                .unwrap();
        }
        assert!(cache.try_alloc(&mut ctx).is_none(), "cache is full");
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        assert_eq!(victims.len(), 4, "configured batch size");
        for v in &victims {
            assert!(!v.dirty);
            assert!(cache.lookup(&mut ctx, v.key).is_none(), "victim unindexed");
            cache.release_frame(&mut ctx, v.frame);
        }
        assert!(cache.try_alloc(&mut ctx).is_some());
        assert_eq!(ctx.stats.evictions, 4);
    }

    #[test]
    fn dirty_victims_flagged_and_drained() {
        let cache = small_cache(4);
        let mut ctx = FreeCtx::new(1);
        for p in 0..4u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(2, p), f)
                .unwrap();
            if p % 2 == 0 {
                assert!(cache.mark_dirty(&mut ctx, PageKey::new(2, p), f));
            }
        }
        assert_eq!(cache.dirty_count(), 2);
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        let dirty_victims = victims.iter().filter(|v| v.dirty).count();
        assert_eq!(dirty_victims, 2);
        assert_eq!(cache.dirty_count(), 0, "eviction drained dirty state");
    }

    #[test]
    fn msync_drain_is_sorted_and_scoped() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        for p in [7u64, 1, 5, 3] {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(1, p), f)
                .unwrap();
            cache.mark_dirty(&mut ctx, PageKey::new(1, p), f);
        }
        let drained = cache.drain_dirty_range(&mut ctx, 1, 0, 6);
        let pages: Vec<u64> = drained.iter().map(|d| d.key.page).collect();
        assert_eq!(pages, vec![1, 3, 5]);
        assert_eq!(cache.dirty_count(), 1, "page 7 remains dirty");
    }

    #[test]
    fn grow_and_shrink_change_capacity() {
        let mut cfg = CacheConfig::new(16, 2);
        cfg.initial_frames = 4;
        let cache = DramCache::new(cfg);
        assert_eq!(cache.active_frames(), 4);
        assert_eq!(cache.free_frames(), 4);
        assert_eq!(cache.grow(8), 8);
        assert_eq!(cache.active_frames(), 12);
        assert_eq!(cache.grow(100), 4, "bounded by max_frames");
        let reclaimed = cache.shrink(6);
        assert_eq!(reclaimed, 6);
        assert_eq!(cache.active_frames(), 10);
    }

    #[test]
    fn regrowing_after_a_shrink_hands_out_each_frame_once() {
        let mut cfg = CacheConfig::new(16, 1);
        cfg.initial_frames = 8;
        let cache = DramCache::new(cfg);
        assert_eq!(cache.grow(8), 8);
        assert_eq!(cache.shrink(4), 4);
        assert_eq!(cache.high_water_frames(), 16, "shrinking parks ids");
        assert_eq!(cache.grow(4), 4);
        assert_eq!(cache.high_water_frames(), 16);
        let mut ctx = FreeCtx::new(1);
        let mut got: Vec<u32> = std::iter::from_fn(|| cache.try_alloc(&mut ctx))
            .map(|f| f.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>(), "every frame exactly once");
    }

    #[test]
    fn watermarks_drive_refill_target() {
        let mut cfg = CacheConfig::new(16, 1);
        cfg.low_watermark = 4;
        cfg.high_watermark = 8;
        let cache = DramCache::new(cfg);
        let mut ctx = FreeCtx::new(1);
        assert!(!cache.below_low_watermark(), "full pool is above the mark");
        assert_eq!(cache.refill_target(), 0);
        let mut held = Vec::new();
        while cache.free_frames() > 3 {
            held.push(cache.try_alloc(&mut ctx).unwrap());
        }
        assert!(cache.below_low_watermark());
        assert_eq!(cache.refill_target(), 5, "refill to the high mark");
        cache.release_frame(&mut ctx, held.pop().unwrap());
        assert!(
            !cache.below_low_watermark(),
            "4 free == low mark, not below"
        );
        assert_eq!(cache.refill_target(), 4);
    }

    #[test]
    fn watermarks_disabled_by_default() {
        let cache = small_cache(4);
        let mut ctx = FreeCtx::new(1);
        while cache.try_alloc(&mut ctx).is_some() {}
        assert!(!cache.below_low_watermark());
        assert_eq!(cache.refill_target(), 0);
        assert_eq!(cache.low_watermark(), 0);
        assert_eq!(cache.high_watermark(), 0);
    }

    fn slab_cache(frames: usize, runs: usize) -> DramCache {
        let mut cfg = CacheConfig::new(frames, 2);
        cfg.slab_runs = runs;
        DramCache::new(cfg)
    }

    #[test]
    fn slab_runs_allocate_lowest_first_and_recycle() {
        let cache = slab_cache(8, 2);
        let mut ctx = FreeCtx::new(1);
        assert_eq!(cache.slab_runs(), 2);
        assert_eq!(cache.free_slab_runs(), 2);
        assert_eq!(cache.try_alloc_slab_run(&mut ctx), Some(0));
        assert_eq!(cache.try_alloc_slab_run(&mut ctx), Some(1));
        assert_eq!(cache.try_alloc_slab_run(&mut ctx), None);
        cache.release_slab_run(&mut ctx, 1);
        cache.release_slab_run(&mut ctx, 0);
        assert_eq!(
            cache.try_alloc_slab_run(&mut ctx),
            Some(0),
            "lowest id first"
        );
    }

    #[test]
    fn slab_run_geometry() {
        let cache = slab_cache(8, 2);
        // Slab frames start right after the 8 ordinary frames.
        assert_eq!(cache.slab_run_frame(0, 0), FrameId(8));
        assert_eq!(cache.slab_run_frame(0, 511), FrameId(8 + 511));
        assert_eq!(cache.slab_run_frame(1, 0), FrameId(8 + 512));
        assert_eq!(cache.slab_run_gpa(0), Gpa(0x8_0000_0000));
        assert_eq!(cache.slab_run_gpa(1), Gpa(0x8_0020_0000));
        assert_eq!(cache.slab_run_of(FrameId(7)), None);
        assert_eq!(cache.slab_run_of(FrameId(8)), Some(0));
        assert_eq!(cache.slab_run_of(FrameId(8 + 513)), Some(1));
    }

    #[test]
    fn migrate_repoints_index_dirty_and_owner() {
        let cache = slab_cache(8, 1);
        let mut ctx = FreeCtx::new(1);
        let run = cache.try_alloc_slab_run(&mut ctx).unwrap();
        let clean = PageKey::new(1, 0);
        let dirty = PageKey::new(1, 1);
        let f0 = cache.try_alloc(&mut ctx).unwrap();
        let f1 = cache.try_alloc(&mut ctx).unwrap();
        cache.mem().write(f0, 0, b"clean");
        cache.mem().write(f1, 0, b"dirty");
        cache.commit_insert(&mut ctx, clean, f0).unwrap();
        cache.commit_insert(&mut ctx, dirty, f1).unwrap();
        cache.mark_dirty(&mut ctx, dirty, f1);
        assert!(!cache.page_dirty(&mut ctx, f0));
        assert!(cache.page_dirty(&mut ctx, f1));
        // A page dirtied from the second core reads dirty from either.
        let mut ctx1 = FreeCtx::new(1).with_core(1, 2);
        let remote = PageKey::new(1, 2);
        let f2 = cache.try_alloc(&mut ctx1).unwrap();
        cache.commit_insert(&mut ctx1, remote, f2).unwrap();
        assert!(!cache.page_dirty(&mut ctx, f2));
        cache.mark_dirty(&mut ctx1, remote, f2);
        assert!(cache.page_dirty(&mut ctx, f2));
        assert!(cache.page_dirty(&mut ctx1, f2));

        let s0 = cache.slab_run_frame(run, 0);
        let s1 = cache.slab_run_frame(run, 1);
        assert!(!cache.migrate_frame(&mut ctx, clean, f0, s0));
        assert!(cache.migrate_frame(&mut ctx, dirty, f1, s1));
        assert!(cache.page_dirty(&mut ctx, s1) && !cache.page_dirty(&mut ctx, f1));
        // Index now points at the slab frames, bytes travelled along.
        assert_eq!(cache.lookup(&mut ctx, clean), Some(s0));
        assert_eq!(cache.lookup(&mut ctx, dirty), Some(s1));
        let mut buf = [0u8; 5];
        cache.mem().read(s1, 0, &mut buf);
        assert_eq!(&buf, b"dirty");
        // The dirty tree tracks the new frame.
        let drained = cache.drain_dirty_range(&mut ctx, 1, 0, 2);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].frame, s1);
        // Old frames release back to the ordinary freelist.
        let free_before = cache.free_frames();
        cache.release_frame(&mut ctx, f0);
        cache.release_frame(&mut ctx, f1);
        assert_eq!(cache.free_frames(), free_before + 2);
    }

    #[test]
    fn pinned_slab_frames_are_invisible_to_clock_until_unpinned() {
        let cache = slab_cache(8, 1);
        let mut ctx = FreeCtx::new(1);
        let run = cache.try_alloc_slab_run(&mut ctx).unwrap();
        for p in 0..4u64 {
            let key = PageKey::new(3, p);
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache.commit_insert(&mut ctx, key, f).unwrap();
            cache.migrate_frame(&mut ctx, key, f, cache.slab_run_frame(run, p as usize));
            cache.release_frame(&mut ctx, f);
        }
        // Two sweeps can never pick the pinned slab frames.
        assert!(cache.evict_candidates(&mut ctx, BATCH).is_empty());
        assert!(cache.evict_candidates(&mut ctx, BATCH).is_empty());
        cache.unpin_slab_run(run);
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        assert_eq!(victims.len(), 4, "unpinned slab pages become victims");
        assert_eq!(cache.free_slab_runs(), 0, "run still occupied");
        for v in victims {
            cache.release_frame(&mut ctx, v.frame);
        }
        assert_eq!(
            cache.free_slab_runs(),
            1,
            "drained run returned to the pool"
        );
    }

    #[test]
    fn empty_slab_run_release_requires_zero_occupancy() {
        let cache = slab_cache(8, 1);
        let mut ctx = FreeCtx::new(1);
        let run = cache.try_alloc_slab_run(&mut ctx).unwrap();
        let key = PageKey::new(0, 0);
        let f = cache.try_alloc(&mut ctx).unwrap();
        cache.commit_insert(&mut ctx, key, f).unwrap();
        cache.migrate_frame(&mut ctx, key, f, cache.slab_run_frame(run, 0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = FreeCtx::new(1);
            cache.release_slab_run(&mut ctx, run);
        }));
        assert!(result.is_err(), "occupied run must not be force-released");
    }

    #[test]
    fn tenant_accounting_tracks_insert_and_evict() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        cache.bind_file_tenant(1, 1);
        cache.bind_file_tenant(2, 2);
        for p in 0..3u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(1, p), f)
                .unwrap();
        }
        for p in 0..2u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(2, p), f)
                .unwrap();
        }
        assert_eq!(cache.tenant_resident(1), 3);
        assert_eq!(cache.tenant_resident(2), 2);
        assert_eq!(cache.tenant_resident(0), 0, "unbound default tenant idle");
        // Quota/overage bookkeeping.
        cache.set_tenant_quota(1, 2);
        assert_eq!(cache.tenant_overage(1), 1);
        assert_eq!(cache.tenant_overage(2), 0, "no quota means never over");
        // Eviction debits the owning tenant.
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        assert_eq!(victims.len(), 4);
        for v in &victims {
            cache.release_frame(&mut ctx, v.frame);
        }
        assert_eq!(cache.tenant_resident(1) + cache.tenant_resident(2), 1);
    }

    #[test]
    fn scoped_eviction_only_detaches_the_tenant() {
        let cache = small_cache(8);
        let mut ctx = FreeCtx::new(1);
        cache.bind_file_tenant(1, 1);
        cache.bind_file_tenant(2, 2);
        for p in 0..4u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(1, p), f)
                .unwrap();
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(2, p), f)
                .unwrap();
        }
        let victims = cache.evict_candidates_from(&mut ctx, 3, 2);
        assert_eq!(victims.len(), 3);
        assert!(victims.iter().all(|v| v.key.file == 2));
        assert_eq!(cache.tenant_resident(2), 1);
        assert_eq!(cache.tenant_resident(1), 4, "tenant 1 untouched");
        for v in &victims {
            cache.release_frame(&mut ctx, v.frame);
        }
    }

    #[test]
    fn eviction_batch_is_apportioned_by_overage() {
        let cache = small_cache(16);
        let mut ctx = FreeCtx::new(1);
        cache.bind_file_tenant(1, 1);
        cache.bind_file_tenant(2, 2);
        for p in 0..8u64 {
            for file in [1, 2] {
                let f = cache.try_alloc(&mut ctx).unwrap();
                cache
                    .commit_insert(&mut ctx, PageKey::new(file, p), f)
                    .unwrap();
            }
        }
        // Tenant 1 is 6 frames over, tenant 2 is 2 over: a batch of 4
        // splits 3:1.
        cache.set_tenant_quota(1, 2);
        cache.set_tenant_quota(2, 6);
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        let from = |file| victims.iter().filter(|v| v.key.file == file).count();
        assert_eq!((from(1), from(2)), (3, 1));
        // Once nobody is over quota, the global CLOCK fills the batch.
        cache.set_tenant_quota(1, 0);
        cache.set_tenant_quota(2, 0);
        assert_eq!(cache.evict_candidates(&mut ctx, BATCH).len(), BATCH);
    }

    #[test]
    fn fair_pass_takes_no_more_than_a_tenants_overage() {
        // 17 frames in CLOCK order: file 2 (no quota) at frame 0, then
        // files 1 and 2 alternating, so tenant 1 holds the odd frames.
        let cache = small_cache(17);
        let mut ctx = FreeCtx::new(1);
        cache.bind_file_tenant(1, 1);
        let mut frames: Vec<FrameId> = (0..17)
            .map(|_| cache.try_alloc(&mut ctx).unwrap())
            .collect();
        frames.sort_unstable();
        assert_eq!(frames, (0..17).map(FrameId).collect::<Vec<_>>());
        for (i, &f) in frames.iter().enumerate() {
            let file = if i % 2 == 1 { 1 } else { 2 };
            cache
                .commit_insert(&mut ctx, PageKey::new(file, i as u64), f)
                .unwrap();
        }
        // With no quota declared, one global victim: the sweep clears
        // every reference bit and takes frame 0, leaving the hand at 1.
        let aged = cache.evict_candidates(&mut ctx, 1);
        assert_eq!(aged[0].frame, FrameId(0));
        assert_eq!(cache.tenant_resident(1), 8);
        // Tenant 1 is one frame over its quota. The fair pass takes that
        // one frame (1); the global CLOCK tops up with the next three in
        // sweep order (2, 3, 4), so tenant 1 keeps 6 frames, not 4.
        cache.set_tenant_quota(1, 7);
        let victims = cache.evict_candidates(&mut ctx, BATCH);
        let frames: Vec<u32> = victims.iter().map(|v| v.frame.0).collect();
        assert_eq!(frames, [1, 2, 3, 4]);
        assert_eq!(cache.tenant_resident(1), 6);
    }

    /// Shard rebalance composes with tenant quotas (DESIGN.md §15+§17):
    /// a quota-pressured tenant's frames are reclaimed onto the evicting
    /// vcore's freelist shard, and another tenant allocating from a
    /// different vcore steals them across shards — with the batch
    /// rebalance making the follow-on allocs local — while per-tenant
    /// residency accounting stays exact throughout.
    #[test]
    fn steal_under_quota_pressure_composes_with_tenant_accounting() {
        let cache = DramCache::new(CacheConfig::new(16, 2));
        cache.bind_file_tenant(1, 1);
        cache.bind_file_tenant(2, 2);
        // Tenant 1 fills the whole cache from vcore 0...
        let mut ctx0 = FreeCtx::new(1).with_core(0, 2);
        for p in 0..16u64 {
            let f = cache.try_alloc(&mut ctx0).unwrap();
            cache
                .commit_insert(&mut ctx0, PageKey::new(1, p), f)
                .unwrap();
        }
        // ...and is then put under quota pressure.
        cache.set_tenant_quota(1, 4);
        assert_eq!(cache.tenant_overage(1), 12);
        // The quota reclaim runs on vcore 0, so every reclaimed frame
        // lands in vcore 0's freelist shard.
        let victims = cache.evict_candidates_from(&mut ctx0, 6, 1);
        assert_eq!(victims.len(), 6);
        for v in &victims {
            cache.release_frame(&mut ctx0, v.frame);
        }
        assert_eq!(cache.tenant_resident(1), 10);
        assert!(cache.tenant_overage(1) > 0, "still above quota");
        // Vcore 1 allocates for tenant 2: its own shard and the node
        // queue are empty, so the first alloc crosses shards (a steal)
        // and the rebalance batch makes the rest local.
        let mut ctx1 = FreeCtx::new(2).with_core(1, 2);
        let f = cache.try_alloc(&mut ctx1).unwrap();
        cache
            .commit_insert(&mut ctx1, PageKey::new(2, 0), f)
            .unwrap();
        assert_eq!(cache.tenant_resident(2), 1, "steal charges the stealer");
        assert_eq!(cache.tenant_resident(1), 10, "victim tenant untouched");
        let held: Vec<FrameId> = (0..5)
            .map(|_| {
                cache
                    .try_alloc(&mut ctx1)
                    .expect("rebalanced frames satisfy follow-on allocs")
            })
            .collect();
        assert!(
            cache.try_alloc(&mut ctx1).is_none(),
            "exactly the reclaimed frames were available"
        );
        for f in held {
            cache.release_frame(&mut ctx1, f);
        }
    }

    /// A cross-shard steal interleaved with eviction rounds never loses
    /// or duplicates frames: vcore 0 reclaims onto its own shard while
    /// vcore 1, stepping in turn, steals from it, and the pool stays
    /// conserved.
    #[test]
    fn steals_interleaved_with_eviction_conserve_frames() {
        let mut cfg = CacheConfig::new(32, 2);
        cfg.freelist.steal_batch = 4;
        let cache = DramCache::new(cfg);
        let mut ctx = FreeCtx::new(1);
        for p in 0..32u64 {
            let f = cache.try_alloc(&mut ctx).unwrap();
            cache
                .commit_insert(&mut ctx, PageKey::new(0, p), f)
                .unwrap();
        }
        let mut evictor = FreeCtx::new(2).with_core(0, 2);
        let mut stealer = FreeCtx::new(3).with_core(1, 2);
        let (mut freed, mut got, mut steals) = (0, 0, 0);
        while freed < 24 || got < 24 {
            if freed < 24 {
                for v in cache.evict_candidates(&mut evictor, BATCH) {
                    cache.release_frame(&mut evictor, v.frame);
                    freed += 1;
                }
            }
            if got < 24 {
                if let Some(f) = cache.try_alloc(&mut stealer) {
                    got += 1;
                    cache.release_frame(&mut stealer, f);
                }
            }
            steals = stealer.stats.freelist_steals;
        }
        assert!(steals > 0, "vcore 1 never stole from vcore 0's shard");
        assert_eq!(cache.resident(), 8);
        assert_eq!(
            cache.free_frames(),
            24,
            "frames conserved across the steals"
        );
    }

    #[test]
    fn charges_land_in_cache_mgmt() {
        let cache = small_cache(4);
        let mut ctx = FreeCtx::new(1);
        let key = PageKey::new(0, 0);
        cache.lookup(&mut ctx, key);
        let f = cache.try_alloc(&mut ctx).unwrap();
        cache.commit_insert(&mut ctx, key, f).unwrap();
        assert!(ctx.breakdown.get(CostCat::CacheMgmt).get() > 0);
    }
}
