//! Virtual-memory-area management for Aquila (paper section 3.4):
//! spill-free region descriptors with O(1) mapping resolution and no
//! shared lock on the fault path.
//!
//! A page fault asks the address space two questions: (1) is the
//! faulting address part of a valid mapping, and (2) can this fault take
//! ownership of the page entry so concurrent faults on the same page
//! serialize. Linux answers the first from a red-black tree behind one
//! read-write semaphore, whose read acquisitions alone limit fault
//! scalability. Following Theseus-style `MappedPages` regions,
//! [`RegionMap`] answers both from a flat table of per-page entries: a
//! fault resolves its region descriptor by indexing the table with the
//! page number (no search, no shared lock). The cost model charges that
//! one index one `radix_level`, where a radix walk pays four, and the
//! fault handler charges the per-entry lock that serializes faults on
//! one page. On the host, which steps every vcore from one thread, a
//! fault runs to completion within one engine step, so no two faults on
//! a page ever overlap and the table needs no lock bit: entries,
//! descriptor slots and placement are plain state in one `aquila_sync`
//! cell. Map/unmap cost stays
//! proportional to the range being changed, never to the number of live
//! regions. (The linuxsim baseline keeps its own VMA tree.)
//!
//! Three pieces of bookkeeping keep a long-running address space
//! bounded by what is live rather than by what was ever mapped:
//!
//! - **Tables sized by use.** The flat table is materialized sparsely,
//!   in 4096-entry leaves created on first touch (the simulator's
//!   stand-in for demand-zero paging of one flat array), and descriptor
//!   slots in chunks as they are first used.
//! - **Descriptor slot recycling.** A descriptor's slot returns to the
//!   free list when the last entry naming it is cleared. Entry ids carry
//!   the slot's generation, so an id read before the slot was recycled
//!   never resolves to the slot's next tenant.
//! - **Virtual-address reuse.** Automatic placement is coalesced
//!   first-fit over the unmapped pages above `base_vpn`: mappings of 512
//!   pages or more start 2 MiB-aligned (so aligned file runs stay
//!   promotable to huge pages), and every placed mapping reserves a
//!   [`GUARD_PAGES`] gap after itself until its last page is unmapped.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use aquila_sync::Mutex;

use aquila_mmu::Vpn;
use aquila_sim::{CostCat, SimCtx};

/// Page protection of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prot {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
}

impl Prot {
    /// Read-only mapping.
    pub const READ: Prot = Prot {
        read: true,
        write: false,
    };
    /// Read-write mapping.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
    };
}

/// `madvise`-style access hints, used by the mmio engine's readahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Default readahead.
    Normal,
    /// Random access: disable readahead.
    Random,
    /// Sequential access: aggressive readahead.
    Sequential,
    /// The range will be needed soon.
    WillNeed,
    /// The range is no longer needed.
    DontNeed,
}

/// A mapping descriptor (one per `mmap` call).
#[derive(Debug)]
pub struct VmaDesc {
    /// Backing file id.
    pub file: u32,
    /// File page corresponding to `start`.
    pub file_page: u64,
    /// First mapped virtual page.
    pub start: Vpn,
    /// Length in pages at creation.
    pub pages: u64,
    /// Protection (per-desc; `mprotect` of a sub-range splits via the
    /// per-page override bit in the entry).
    pub prot: Prot,
    advice: Mutex<Advice>,
    /// The id entries store for this descriptor: generation above
    /// [`SLOT_BITS`], slot below.
    id: u64,
    /// Entries still naming this descriptor; the slot (and the guard
    /// gap) is released when this reaches zero.
    live: Mutex<u64>,
    /// Guard pages reserved after the mapping (automatic placement only).
    guard: u64,
}

impl VmaDesc {
    /// The file page backing virtual page `vpn` of this mapping.
    pub fn file_page_of(&self, vpn: Vpn) -> u64 {
        self.file_page + (vpn.0 - self.start.0)
    }

    /// Current access advice.
    pub fn advice(&self) -> Advice {
        *self.advice.lock()
    }

    /// Updates access advice (the `madvise` path).
    pub fn set_advice(&self, a: Advice) {
        *self.advice.lock() = a;
    }
}

/// Errors from range operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaError {
    /// The range overlaps an existing mapping or a mapping's guard gap
    /// (for fixed-address maps).
    Overlap,
    /// Part of the range is not mapped.
    NotMapped,
    /// The address space, or the table of live descriptors, is exhausted.
    NoVirtualSpace,
}

/// Entry state: bits 0..61 hold the id of the descriptor mapping the page
/// (0 = unmapped); bit 62 forces the page read-only regardless of the
/// descriptor's protection (per-page `mprotect`).
const ENTRY_FORCE_RO: u64 = 1 << 62;
const ENTRY_ID_MASK: u64 = ENTRY_FORCE_RO - 1;

/// Low id bits name the descriptor slot; the bits above are a generation
/// that is never reused, so every id ever handed out is unique.
const SLOT_BITS: u32 = 16;
/// Live-descriptor capacity.
const DESC_SLOTS: usize = 1 << SLOT_BITS;
/// Slots are materialized 1024 at a time, on first use.
const CHUNK_BITS: u32 = 10;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;

/// The VPN space (48-bit virtual addresses).
const VPN_BITS: u32 = 36;
const VPN_LIMIT: u64 = 1 << VPN_BITS;
/// The per-page table is materialized sparsely, three 12-bit levels over
/// the VPN space: a 32 KiB leaf of entries covers 16 MiB of address
/// space, a 64 KiB directory of leaves 64 GiB.
const LEVEL_BITS: u32 = VPN_BITS / 3;
const LEVEL_SIZE: usize = 1 << LEVEL_BITS;

/// Unmapped pages reserved after every automatically placed mapping.
pub const GUARD_PAGES: u64 = 16;
/// Automatic placements of at least this many pages start on a 2 MiB
/// boundary.
const HUGE_ALIGN: u64 = 512;

/// One descriptor slot: the current tenant, if any.
type Slot = Option<Arc<VmaDesc>>;

fn slot_index(id: u64) -> usize {
    (id as usize) & (DESC_SLOTS - 1)
}

type Leaf = Box<[u64]>;
type Dir = Box<[Option<Leaf>]>;

/// One level's table of `LEVEL_SIZE` fresh slots.
fn table<T>(mut slot: impl FnMut() -> T) -> Box<[T]> {
    (0..LEVEL_SIZE).map(|_| slot()).collect()
}

/// Free-space and slot bookkeeping, touched only by map and unmap.
struct Placement {
    /// First page of the managed (automatically placed) area.
    base: u64,
    /// Free pages of `[base, VPN_LIMIT)`: interval start -> end, coalesced
    /// (no two intervals touch). A page is free when it is neither mapped
    /// nor in the guard gap of a live mapping.
    free: BTreeMap<u64, u64>,
    /// Recycled descriptor slots.
    free_slots: Vec<usize>,
    /// Slots handed out at least once; chunks below it are materialized.
    slots_used: usize,
    /// Descriptor slots, materialized a chunk at a time.
    slots: Vec<Slot>,
    /// Generation stamped into the next descriptor id (never zero, so no
    /// id is zero).
    next_gen: u64,
}

impl Placement {
    /// Coalesced first-fit: the lowest start (2 MiB-aligned for large
    /// mappings) whose pages plus guard gap are all free. Reserves them.
    fn find_free(&mut self, pages: u64) -> Option<u64> {
        let need = pages + GUARD_PAGES;
        let start = self.free.iter().find_map(|(&a, &b)| {
            let s = if pages >= HUGE_ALIGN {
                a.next_multiple_of(HUGE_ALIGN)
            } else {
                a
            };
            (s + need <= b).then_some(s)
        })?;
        self.reserve(start, start + need).then_some(start)
    }

    /// Removes `[s, e)` from the free set if it lies wholly in one free
    /// interval; returns whether it did.
    fn reserve(&mut self, s: u64, e: u64) -> bool {
        let Some((&a, &b)) = self.free.range(..=s).next_back() else {
            return false;
        };
        if e > b {
            return false;
        }
        self.free.remove(&a);
        if a < s {
            self.free.insert(a, s);
        }
        if e < b {
            self.free.insert(e, b);
        }
        true
    }

    /// Returns `[s, e)` (clipped to the managed area) to the free set,
    /// merging it with the intervals it touches.
    fn release(&mut self, s: u64, e: u64) {
        let (mut s, mut e) = (s.max(self.base), e.min(VPN_LIMIT));
        if s >= e {
            return;
        }
        if let Some((&a, &b)) = self.free.range(..s).next_back() {
            debug_assert!(b <= s, "released range was already free");
            if b == s {
                self.free.remove(&a);
                s = a;
            }
        }
        debug_assert!(
            self.free.range(s..e).next().is_none(),
            "released range was already free"
        );
        if let Some(b) = self.free.remove(&e) {
            e = b;
        }
        self.free.insert(s, e);
    }

    /// Takes a descriptor slot and stamps a fresh id for it.
    fn take_slot(&mut self) -> Option<u64> {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None if self.slots_used < DESC_SLOTS => {
                self.slots_used += 1;
                if self.slots.len() < self.slots_used {
                    self.slots.resize(self.slots.len() + CHUNK_SIZE, None);
                }
                self.slots_used - 1
            }
            None => return None,
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        Some((gen << SLOT_BITS) | slot as u64)
    }
}

/// The spill-free region map.
pub struct RegionMap {
    state: Mutex<State>,
}

/// The per-page entries, placement and descriptor slots.
struct State {
    /// Directories of lazily materialized leaves of per-page entries;
    /// resolution is three array indexes.
    dirs: Box<[Option<Dir>]>,
    placement: Placement,
    mapped_pages: u64,
}

impl State {
    #[inline]
    fn split(vpn: Vpn) -> [usize; 3] {
        let level = |l: u32| ((vpn.0 >> (l * LEVEL_BITS)) as usize) & (LEVEL_SIZE - 1);
        [level(2), level(1), level(0)]
    }

    /// The entry of `vpn`, if its leaf exists.
    #[inline]
    fn entry(&self, vpn: Vpn) -> Option<u64> {
        let [d, l, e] = Self::split(vpn);
        self.dirs[d].as_ref()?[l].as_ref().map(|leaf| leaf[e])
    }

    #[inline]
    fn entry_mut(&mut self, vpn: Vpn) -> Option<&mut u64> {
        let [d, l, e] = Self::split(vpn);
        self.dirs[d].as_mut()?[l].as_mut().map(|leaf| &mut leaf[e])
    }

    #[inline]
    fn entry_or_init(&mut self, vpn: Vpn) -> &mut u64 {
        let [d, l, e] = Self::split(vpn);
        let dir = self.dirs[d].get_or_insert_with(|| table(|| None));
        &mut dir[l].get_or_insert_with(|| table(|| 0))[e]
    }

    /// The descriptor `id` names, unless its slot has been recycled since.
    fn desc_by_id(&self, id: u64) -> Option<Arc<VmaDesc>> {
        self.placement
            .slots
            .get(slot_index(id))?
            .as_ref()
            .filter(|d| d.id == id)
            .cloned()
    }
}

impl RegionMap {
    /// Creates an empty map. `base_vpn` is where automatic placement
    /// starts (like `mmap_base`).
    pub fn new(base_vpn: u64) -> RegionMap {
        RegionMap {
            state: Mutex::new(State {
                dirs: table(|| None),
                placement: Placement {
                    base: base_vpn,
                    free: BTreeMap::from([(base_vpn, VPN_LIMIT)]),
                    free_slots: Vec::new(),
                    slots_used: 0,
                    slots: Vec::new(),
                    next_gen: 1,
                },
                mapped_pages: 0,
            }),
        }
    }

    /// Total pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.state.lock().mapped_pages
    }

    /// Number of live region descriptors.
    pub fn desc_count(&self) -> usize {
        let st = self.state.lock();
        st.placement.slots_used - st.placement.free_slots.len()
    }

    /// Charges the O(1) resolution cost: one table index, no walk.
    fn charge_resolve(ctx: &mut dyn SimCtx) {
        let c = ctx.cost().radix_level;
        ctx.charge(CostCat::FaultHandler, c);
    }

    /// Maps `pages` pages starting at `start` (or an automatically chosen
    /// range when `None`) backed by `file` at `file_page`. A fixed range
    /// must not overlap a mapped page or a live mapping's guard gap.
    pub fn map(
        &self,
        ctx: &mut dyn SimCtx,
        start: Option<Vpn>,
        pages: u64,
        file: u32,
        file_page: u64,
        prot: Prot,
    ) -> Result<Arc<VmaDesc>, VmaError> {
        assert!(pages > 0, "cannot map zero pages");
        let st = &mut *self.state.lock();
        if let Some(s) = start {
            if pages > VPN_LIMIT || s.0 > VPN_LIMIT - pages {
                return Err(VmaError::NoVirtualSpace);
            }
            let busy = |i| {
                st.entry(Vpn(s.0 + i))
                    .is_some_and(|e| e & ENTRY_ID_MASK != 0)
            };
            if (0..pages).any(busy) {
                return Err(VmaError::Overlap);
            }
        }
        let (start, guard, id) = {
            let pl = &mut st.placement;
            let id = pl.take_slot().ok_or(VmaError::NoVirtualSpace)?;
            let placed = match start {
                None => pl.find_free(pages).map(|s| (s, GUARD_PAGES)),
                // The part inside the managed area must be free (not a
                // guard gap); it is reserved like a placement.
                Some(s) => {
                    let (a, e) = (s.0.max(pl.base), s.0 + pages);
                    (a >= e || pl.reserve(a, e)).then_some((s.0, 0))
                }
            };
            let Some((s, guard)) = placed else {
                pl.free_slots.push(slot_index(id));
                return Err(match start {
                    Some(_) => VmaError::Overlap,
                    None => VmaError::NoVirtualSpace,
                });
            };
            (Vpn(s), guard, id)
        };
        let desc = Arc::new(VmaDesc {
            file,
            file_page,
            start,
            pages,
            prot,
            advice: Mutex::new(Advice::Normal),
            id,
            live: Mutex::new(pages),
            guard,
        });
        st.placement.slots[slot_index(id)] = Some(Arc::clone(&desc));
        for i in 0..pages {
            *st.entry_or_init(Vpn(start.0 + i)) = id;
        }
        Self::charge_resolve(ctx);
        st.mapped_pages += pages;
        Ok(desc)
    }

    /// Unmaps `pages` pages starting at `start`. Unmapping holes or
    /// partial ranges of a larger mapping is allowed (Linux semantics);
    /// the freed pages become placeable at once, and a mapping's guard
    /// gap and descriptor slot when its last page goes. Returns the
    /// descriptors of pages actually unmapped, in address order.
    pub fn unmap(&self, ctx: &mut dyn SimCtx, start: Vpn, pages: u64) -> Vec<(Vpn, Arc<VmaDesc>)> {
        let st = &mut *self.state.lock();
        let mut removed: Vec<(Vpn, Arc<VmaDesc>)> = Vec::new();
        let mut retired = Vec::new();
        for i in 0..pages {
            let vpn = Vpn(start.0 + i);
            let Some(e) = st.entry_mut(vpn) else {
                continue;
            };
            let id = std::mem::take(e) & ENTRY_ID_MASK;
            if id == 0 {
                continue;
            }
            // Runs of one mapping resolve its descriptor once.
            let desc = match removed.last() {
                Some((_, d)) if d.id == id => Arc::clone(d),
                _ => st
                    .desc_by_id(id)
                    .expect("a mapped entry names a live descriptor"),
            };
            let mut live = desc.live.lock();
            *live -= 1;
            if *live == 0 {
                retired.push(Arc::clone(&desc));
            }
            drop(live);
            removed.push((vpn, desc));
        }
        Self::charge_resolve(ctx);
        if removed.is_empty() {
            return removed;
        }
        st.mapped_pages -= removed.len() as u64;
        let pl = &mut st.placement;
        for d in &retired {
            pl.slots[slot_index(d.id)] = None;
            pl.free_slots.push(slot_index(d.id));
            let end = d.start.0 + d.pages;
            pl.release(end, end + d.guard);
        }
        let mut run = removed[0].0 .0..removed[0].0 .0;
        for (vpn, _) in &removed {
            if vpn.0 != run.end {
                pl.release(run.start, run.end);
                run.start = vpn.0;
            }
            run.end = vpn.0 + 1;
        }
        pl.release(run.start, run.end);
        removed
    }

    /// Looks up the region covering `vpn` in O(1), plus whether the page
    /// is individually forced read-only.
    pub fn lookup(&self, ctx: &mut dyn SimCtx, vpn: Vpn) -> Option<(Arc<VmaDesc>, Prot)> {
        Self::charge_resolve(ctx);
        let st = self.state.lock();
        let e = st.entry(vpn)?;
        let id = e & ENTRY_ID_MASK;
        if id == 0 {
            return None;
        }
        let desc = st
            .desc_by_id(id)
            .expect("a mapped entry names a live descriptor");
        let mut prot = desc.prot;
        if e & ENTRY_FORCE_RO != 0 {
            prot.write = false;
        }
        Some((desc, prot))
    }

    /// Applies `mprotect` to a range via the per-page override bits.
    /// Returns the number of pages affected.
    pub fn protect(&self, ctx: &mut dyn SimCtx, start: Vpn, pages: u64, prot: Prot) -> u64 {
        let mut n = 0;
        let st = &mut *self.state.lock();
        for i in 0..pages {
            if let Some(e) = st.entry_mut(Vpn(start.0 + i)) {
                if *e & ENTRY_ID_MASK == 0 {
                    continue;
                }
                if prot.write {
                    *e &= !ENTRY_FORCE_RO;
                } else {
                    *e |= ENTRY_FORCE_RO;
                }
                n += 1;
            }
        }
        Self::charge_resolve(ctx);
        n
    }

    /// Remaps `old_start..+old_pages` to a new automatically placed range
    /// of `new_pages` (the `mremap` move path). The new range maps the
    /// same backing file pages; growth beyond the old length extends the
    /// file window. The old range is freed first, so the new one may
    /// reuse it.
    pub fn remap(
        &self,
        ctx: &mut dyn SimCtx,
        old_start: Vpn,
        old_pages: u64,
        new_pages: u64,
    ) -> Result<Arc<VmaDesc>, VmaError> {
        let (desc, _) = self.lookup(ctx, old_start).ok_or(VmaError::NotMapped)?;
        let file = desc.file;
        let file_page = desc.file_page_of(old_start);
        let prot = desc.prot;
        self.unmap(ctx, old_start, old_pages);
        self.map(ctx, None, new_pages, file, file_page, prot)
    }
}

impl core::fmt::Debug for RegionMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "RegionMap {{ mapped_pages: {}, descs: {} }}",
            self.mapped_pages(),
            self.desc_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    const BASE: u64 = 0x1000;

    fn map() -> RegionMap {
        RegionMap::new(BASE)
    }

    #[test]
    fn map_lookup_unmap() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let desc = t.map(&mut ctx, None, 8, 3, 100, Prot::RW).unwrap();
        let start = desc.start;
        let (d, prot) = t.lookup(&mut ctx, Vpn(start.0 + 5)).unwrap();
        assert_eq!(d.file, 3);
        assert_eq!(d.file_page_of(Vpn(start.0 + 5)), 105);
        assert!(prot.write);
        assert_eq!(t.mapped_pages(), 8);
        let removed = t.unmap(&mut ctx, start, 8);
        assert_eq!(removed.len(), 8);
        assert!(t.lookup(&mut ctx, start).is_none());
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn automatic_placement_keeps_a_guard_gap() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let a = t.map(&mut ctx, None, 100, 0, 0, Prot::RW).unwrap();
        let b = t.map(&mut ctx, None, 100, 1, 0, Prot::RW).unwrap();
        assert_eq!(a.start.0, BASE);
        assert_eq!(b.start.0, BASE + 100 + GUARD_PAGES);
        // The guard is reserved: a fixed map may not land in it.
        assert_eq!(
            t.map(&mut ctx, Some(Vpn(BASE + 100)), 1, 2, 0, Prot::RW)
                .unwrap_err(),
            VmaError::Overlap
        );
    }

    #[test]
    fn guard_is_held_until_the_last_page_goes() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let a = t.map(&mut ctx, None, 8, 0, 0, Prot::RW).unwrap();
        t.unmap(&mut ctx, a.start, 7);
        // Seven freed pages cannot hold a 4-page map plus its guard, and
        // the last page still pins a's guard: placement goes past it.
        let b = t.map(&mut ctx, None, 4, 1, 0, Prot::RW).unwrap();
        assert_eq!(b.start.0, BASE + 8 + GUARD_PAGES);
        t.unmap(&mut ctx, Vpn(a.start.0 + 7), 1);
        let c = t.map(&mut ctx, None, 4, 2, 0, Prot::RW).unwrap();
        assert_eq!(c.start.0, BASE, "a's range and guard are free again");
    }

    #[test]
    fn slots_are_recycled_and_stale_ids_never_resolve() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let a = t.map(&mut ctx, None, 2, 0, 0, Prot::RW).unwrap();
        let stale = a.id;
        t.unmap(&mut ctx, a.start, 2);
        assert_eq!(t.desc_count(), 0);
        let b = t.map(&mut ctx, None, 2, 1, 0, Prot::RW).unwrap();
        assert_eq!(slot_index(b.id), slot_index(stale));
        assert_ne!(b.id, stale, "a recycled slot gets a new generation");
        assert!(
            t.state.lock().desc_by_id(stale).is_none(),
            "stale id resolved"
        );
        assert_eq!(t.state.lock().desc_by_id(b.id).unwrap().file, 1);
    }

    #[test]
    fn live_descriptor_capacity_is_bounded_and_recovers() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let first = t.map(&mut ctx, None, 1, 0, 0, Prot::RW).unwrap();
        for _ in 1..DESC_SLOTS {
            t.map(&mut ctx, None, 1, 0, 0, Prot::RW).unwrap();
        }
        assert_eq!(t.desc_count(), DESC_SLOTS);
        assert_eq!(
            t.map(&mut ctx, None, 1, 0, 0, Prot::RW).unwrap_err(),
            VmaError::NoVirtualSpace
        );
        t.unmap(&mut ctx, first.start, 1);
        let again = t.map(&mut ctx, None, 1, 1, 0, Prot::RW).unwrap();
        assert_eq!(again.start, first.start);
        assert_eq!(t.lookup(&mut ctx, again.start).unwrap().0.file, 1);
    }

    #[test]
    fn remap_moves_and_grows() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        t.map(&mut ctx, Some(Vpn(400)), 4, 9, 50, Prot::RW).unwrap();
        let nd = t.remap(&mut ctx, Vpn(400), 4, 8).unwrap();
        assert!(t.lookup(&mut ctx, Vpn(400)).is_none(), "old range gone");
        assert_eq!(nd.file, 9);
        assert_eq!(nd.file_page_of(nd.start), 50, "file window preserved");
        assert_eq!(nd.pages, 8);
        assert_eq!(t.mapped_pages(), 8);
    }

    #[test]
    fn advice_roundtrip() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        let d = t.map(&mut ctx, None, 2, 0, 0, Prot::RW).unwrap();
        assert_eq!(d.advice(), Advice::Normal);
        d.set_advice(Advice::Sequential);
        assert_eq!(d.advice(), Advice::Sequential);
    }

    #[test]
    fn sparse_distant_mappings() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        // Far apart in the 36-bit VPN space: exercises distinct leaves.
        t.map(&mut ctx, Some(Vpn(0x0000_0001)), 1, 0, 0, Prot::RW)
            .unwrap();
        t.map(&mut ctx, Some(Vpn(0x0FFF_FFFF0)), 1, 1, 0, Prot::RW)
            .unwrap();
        assert_eq!(t.lookup(&mut ctx, Vpn(0x0000_0001)).unwrap().0.file, 0);
        assert_eq!(t.lookup(&mut ctx, Vpn(0x0FFF_FFFF0)).unwrap().0.file, 1);
        assert!(t.lookup(&mut ctx, Vpn(0x0000_1000)).is_none());
        assert_eq!(
            t.map(&mut ctx, Some(Vpn(VPN_LIMIT - 1)), 2, 0, 0, Prot::RW)
                .unwrap_err(),
            VmaError::NoVirtualSpace
        );
    }

    #[test]
    fn resolution_charges_one_table_index() {
        let t = map();
        let mut ctx = FreeCtx::new(1);
        t.map(&mut ctx, Some(Vpn(64)), 1, 0, 0, Prot::RW).unwrap();
        let t0 = ctx.now();
        t.lookup(&mut ctx, Vpn(64)).unwrap();
        assert_eq!(ctx.now() - t0, ctx.cost().radix_level);
    }
}
