//! Per-core TLBs and batched TLB shootdown.
//!
//! x86-64 cores can only invalidate their *local* TLB; removing or
//! downgrading a shared mapping therefore requires a TLB shootdown — an
//! IPI broadcast asking every other core to invalidate. Shootdowns are a
//! known scalability limit (Amit et al., FastMap), so Aquila batches them:
//! mappings for many pages (512 in the paper's evaluation) are removed
//! first and a *single* IPI round invalidates all of them (section 4.1).

use aquila_sync::Mutex;

use aquila_sim::{race, CostCat, SimCtx};
use aquila_vmx::{ApicFabric, Gpa};

use crate::addr::{Vpn, PAGE_2M, PAGE_SIZE};
use crate::pagetable::PteFlags;

/// Number of sets in the simulated TLB (384 sets x 4 ways = 1536
/// data-TLB entries, Haswell-class).
const TLB_SETS: usize = 384;
/// Sets in the 2 MiB sub-TLB (8 sets x 4 ways = 32 huge entries,
/// Haswell-class). Small on purpose: its *reach* (32 x 2 MiB = 64 MiB)
/// is what promotion buys, not its entry count.
const HUGE_TLB_SETS: usize = 8;
/// Associativity of both arrays.
const WAYS: usize = 4;
/// Buckets of the 4 KiB array's occupancy summary: a valid entry for
/// `vpn` counts in bucket `(vpn >> 9) % REGIONS`, its 2 MiB region.
const REGIONS: usize = 256;

// Race-detector identities: per-core TLB locks (instanced by core; the
// shootdown sweep takes them one at a time in ascending core order, the
// owner core takes its own in `lookup` and `with_local`, never nested)
// and the APIC fabric. The stats sums read without a `SimCtx` and are
// outside the detector's view.
const L_TLB: &str = "mmu.tlb";
const V_TLB: &str = "mmu.tlb.state";
const L_APIC: &str = "mmu.apic";
const V_APIC: &str = "mmu.apic.fabric";

/// Key bits 0-1: the way's recency rank within its set (0 = most
/// recently touched, 3 = least). The ranks of a set's four ways are
/// always a permutation of 0..4.
const RANK: u64 = 0b11;
/// Key bit 2: the way holds a translation.
const VALID: u64 = 0b100;
/// The page number sits above the rank and valid bits.
const KEY_SHIFT: u32 = 3;
/// Value bits 0-3: the entry's [`PteFlags`]; the rest is the
/// page-aligned GPA.
const FLAG_BITS: u64 = 0xF;

/// One 4-way set in one 64-byte cache line: a key per way (page number,
/// valid bit, recency rank) and a value per way (GPA with the flags in
/// its low bits). A probe touches exactly one host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Set {
    keys: [u64; WAYS],
    vals: [u64; WAYS],
}

/// All ways invalid, ranked by way index.
const EMPTY_SET: Set = Set {
    keys: [0, 1, 2, 3],
    vals: [0; WAYS],
};

impl Set {
    #[inline]
    fn tag(vpn: Vpn) -> u64 {
        assert!(vpn.0 >> (64 - KEY_SHIFT) == 0, "vpn {vpn:?} too wide");
        (vpn.0 << KEY_SHIFT) | VALID
    }

    /// First way, in way order, holding the valid translation `tag`
    /// names.
    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        self.keys.iter().position(|&k| k & !RANK == tag)
    }

    /// Makes `way` the most recently touched way of the set.
    #[inline]
    fn touch(&mut self, way: usize) {
        let rank = self.keys[way] & RANK;
        for k in self.keys.iter_mut() {
            if *k & RANK < rank {
                *k += 1;
            }
        }
        self.keys[way] &= !RANK;
    }

    /// The way to fill: the first invalid way by index, else the least
    /// recently touched.
    #[inline]
    fn victim(&self) -> usize {
        self.keys
            .iter()
            .position(|&k| k & VALID == 0)
            .unwrap_or_else(|| {
                (0..WAYS)
                    .max_by_key(|&w| self.keys[w] & RANK)
                    .expect("sets are non-empty")
            })
    }

    /// Fills the victim way with `vpn`; returns the page of the valid
    /// entry it evicted, if any.
    #[inline]
    fn fill(&mut self, vpn: Vpn, gpa: Gpa, flags: PteFlags) -> Option<Vpn> {
        let way = self.victim();
        let old = self.keys[way];
        self.keys[way] = Self::tag(vpn) | (old & RANK);
        self.vals[way] = pack(gpa, flags);
        self.touch(way);
        (old & VALID != 0).then_some(Vpn(old >> KEY_SHIFT))
    }

    /// Invalidates every way holding `vpn`; returns how many did.
    #[inline]
    fn invalidate(&mut self, vpn: Vpn) -> u64 {
        let tag = Self::tag(vpn);
        let mut n = 0;
        for k in self.keys.iter_mut() {
            if *k & !RANK == tag {
                *k &= !VALID;
                n += 1;
            }
        }
        n
    }

    fn valid_ways(&self) -> u64 {
        self.keys.iter().filter(|&&k| k & VALID != 0).count() as u64
    }
}

#[inline]
fn pack(gpa: Gpa, flags: PteFlags) -> u64 {
    assert_eq!(
        gpa.get() & (PAGE_SIZE - 1),
        0,
        "TLB GPA {gpa} not page-aligned"
    );
    gpa.get()
        | flags.present as u64
        | (flags.writable as u64) << 1
        | (flags.dirty as u64) << 2
        | (flags.accessed as u64) << 3
}

#[inline]
fn unpack(val: u64) -> (Gpa, PteFlags) {
    let flags = PteFlags {
        present: val & 1 != 0,
        writable: val & 2 != 0,
        dirty: val & 4 != 0,
        accessed: val & 8 != 0,
    };
    (Gpa(val & !FLAG_BITS), flags)
}

/// A single core's dTLB: a 4 KiB array and a 2 MiB sub-TLB, both
/// set-associative with LRU replacement, as on Haswell-class parts.
#[derive(Debug)]
pub struct Tlb {
    sets: Box<[Set]>,
    /// 2 MiB sub-TLB; entries are keyed by the huge VPN (vpn >> 9) and
    /// hold the 2 MiB-aligned base GPA.
    huge_sets: Box<[Set]>,
    /// Valid entries of `sets` per 2 MiB region bucket ([`REGIONS`]),
    /// exact: a page whose bucket is empty has no entry to probe for.
    /// Functional state only; no charge depends on it.
    regions: [u32; REGIONS],
    hits: u64,
    huge_hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            sets: vec![EMPTY_SET; TLB_SETS].into_boxed_slice(),
            huge_sets: vec![EMPTY_SET; HUGE_TLB_SETS].into_boxed_slice(),
            regions: [0; REGIONS],
            hits: 0,
            huge_hits: 0,
            misses: 0,
            invalidations: 0,
            flushes: 0,
        }
    }

    #[inline]
    fn set_of(vpn: Vpn) -> usize {
        (vpn.0 as usize) % TLB_SETS
    }

    #[inline]
    fn hvpn_of(vpn: Vpn) -> Vpn {
        Vpn(vpn.0 >> 9)
    }

    /// The summary bucket of the 2 MiB region `hvpn`.
    #[inline]
    fn region_of(hvpn: Vpn) -> usize {
        hvpn.0 as usize % REGIONS
    }

    #[inline]
    fn huge_set_of(hvpn: Vpn) -> usize {
        (hvpn.0 as usize) % HUGE_TLB_SETS
    }

    /// Looks up a translation; updates hit/miss statistics and LRU. The
    /// 4 KiB array is probed first, then the 2 MiB sub-TLB; a 2 MiB hit
    /// returns the GPA of the 4 KiB slice, so callers do not care which
    /// array the translation came from.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<(Gpa, PteFlags)> {
        let set = &mut self.sets[Self::set_of(vpn)];
        if let Some(way) = set.find(Set::tag(vpn)) {
            set.touch(way);
            self.hits += 1;
            return Some(unpack(set.vals[way]));
        }
        let hvpn = Self::hvpn_of(vpn);
        let set = &mut self.huge_sets[Self::huge_set_of(hvpn)];
        if let Some(way) = set.find(Set::tag(hvpn)) {
            set.touch(way);
            self.hits += 1;
            self.huge_hits += 1;
            let (base, flags) = unpack(set.vals[way]);
            return Some((Gpa(base.get() + (vpn.0 & 0x1FF) * PAGE_SIZE), flags));
        }
        self.misses += 1;
        None
    }

    /// Inserts a translation for the page at page-aligned `gpa`,
    /// evicting the LRU way in its set.
    pub fn insert(&mut self, vpn: Vpn, gpa: Gpa, flags: PteFlags) {
        if let Some(old) = self.sets[Self::set_of(vpn)].fill(vpn, gpa, flags) {
            self.regions[Self::region_of(Self::hvpn_of(old))] -= 1;
        }
        self.regions[Self::region_of(Self::hvpn_of(vpn))] += 1;
    }

    /// Inserts a 2 MiB translation for the huge page containing
    /// `hbase` (which must be 2 MiB-aligned; `gpa` is the 2 MiB-aligned
    /// base of the backing run), evicting the LRU way in its sub-TLB set.
    pub fn insert_huge(&mut self, hbase: Vpn, gpa: Gpa, flags: PteFlags) {
        debug_assert!(hbase.is_huge_aligned(), "huge TLB entry must be 2M-aligned");
        let hvpn = Self::hvpn_of(hbase);
        self.huge_sets[Self::huge_set_of(hvpn)].fill(hvpn, gpa, flags);
    }

    /// Invalidates the entry for one page (local `invlpg`). As on real
    /// hardware, `invlpg` also drops the covering 2 MiB entry, so every
    /// existing shootdown path handles promoted mappings unchanged.
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.invalidate_batch(&[vpn], &[Self::hvpn_of(vpn)]);
    }

    /// [`Tlb::invalidate`] of every page in `pages`, with the 2 MiB
    /// probes made once per entry of `hvpns`: the sorted, de-duplicated
    /// huge VPNs (`vpn >> 9`) of `pages`. A page's 4 KiB set is probed
    /// only when its region holds a valid entry, and a TLB that holds
    /// nothing in any region of the batch probes no 4 KiB set at all.
    pub fn invalidate_batch(&mut self, pages: &[Vpn], hvpns: &[Vpn]) {
        if hvpns
            .iter()
            .any(|&hvpn| self.regions[Self::region_of(hvpn)] != 0)
        {
            for &vpn in pages {
                let held = &mut self.regions[Self::region_of(Self::hvpn_of(vpn))];
                if *held == 0 {
                    continue;
                }
                let n = self.sets[Self::set_of(vpn)].invalidate(vpn);
                *held -= n as u32;
                self.invalidations += n;
            }
        }
        for &hvpn in hvpns {
            self.invalidations += self.huge_sets[Self::huge_set_of(hvpn)].invalidate(hvpn);
        }
    }

    /// Flushes the whole TLB (CR3 reload), both page sizes.
    pub fn flush(&mut self) {
        for set in self.sets.iter_mut().chain(self.huge_sets.iter_mut()) {
            for k in set.keys.iter_mut() {
                *k &= !VALID;
            }
        }
        self.regions = [0; REGIONS];
        self.flushes += 1;
    }

    /// (hits, misses) so far. Hits through the 2 MiB sub-TLB count as
    /// hits here; [`Tlb::huge_hits`] breaks them out.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hits served by the 2 MiB sub-TLB.
    pub fn huge_hits(&self) -> u64 {
        self.huge_hits
    }

    /// Bytes of address space the currently valid entries can translate
    /// without a walk: 4 KiB per small entry, 2 MiB per huge entry.
    pub fn reach_bytes(&self) -> u64 {
        let small: u64 = self.sets.iter().map(Set::valid_ways).sum();
        let huge: u64 = self.huge_sets.iter().map(Set::valid_ways).sum();
        small * PAGE_SIZE + huge * PAGE_2M
    }

    /// Entries invalidated individually.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Full flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new()
    }
}

/// All cores' TLBs plus the APIC fabric for shootdowns.
pub struct TlbFabric {
    tlbs: Vec<Mutex<Tlb>>,
    apic: Mutex<ApicFabric>,
}

impl TlbFabric {
    /// Creates TLBs for `cores` cores whose shootdowns send IPIs through
    /// `apic`: [`ApicFabric::new`] for the hypervisor-mediated,
    /// rate-limited send (Aquila, section 4.1), [`ApicFabric::native`]
    /// for the direct send of a kernel in root mode (the Linux baseline).
    pub fn new(cores: usize, apic: ApicFabric) -> TlbFabric {
        TlbFabric {
            tlbs: (0..cores).map(|_| Mutex::new(Tlb::new())).collect(),
            apic: Mutex::new(apic),
        }
    }

    /// Index of the TLB of the core `ctx` runs on (core ids wrap
    /// modulo [`TlbFabric::cores`]).
    fn local(&self, ctx: &dyn SimCtx) -> usize {
        ctx.core() % self.tlbs.len()
    }

    /// Looks `vpn` up in the calling core's TLB, recorded for the race
    /// detector as a read under that core's TLB lock.
    pub fn lookup(&self, ctx: &mut dyn SimCtx, vpn: Vpn) -> Option<(Gpa, PteFlags)> {
        let core = self.local(ctx);
        race::acquire(ctx, (L_TLB, core as u64));
        let hit = self.tlbs[core].lock().lookup(vpn);
        race::read(ctx, (V_TLB, core as u64));
        race::release(ctx, (L_TLB, core as u64));
        hit
    }

    /// Runs `f` with the calling core's TLB, recorded for the race
    /// detector as a write under that core's TLB lock.
    pub fn with_local<R>(&self, ctx: &mut dyn SimCtx, f: impl FnOnce(&mut Tlb) -> R) -> R {
        let core = self.local(ctx);
        race::acquire(ctx, (L_TLB, core as u64));
        let r = f(&mut self.tlbs[core].lock());
        race::write(ctx, (V_TLB, core as u64));
        race::release(ctx, (L_TLB, core as u64));
        r
    }

    /// (hits, misses) summed across cores.
    pub fn stats(&self) -> (u64, u64) {
        self.tlbs.iter().fold((0, 0), |(h, m), t| {
            let (th, tm) = t.lock().stats();
            (h + th, m + tm)
        })
    }

    /// 2 MiB sub-TLB hits summed across cores.
    pub fn huge_hits(&self) -> u64 {
        self.tlbs.iter().map(|t| t.lock().huge_hits()).sum()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.tlbs.len()
    }

    /// Performs a batched shootdown of `pages` on every core.
    ///
    /// The caller has already removed/downgraded the page-table entries.
    /// Costs follow the paper: local `invlpg` per page, one IPI broadcast
    /// (vmexit-mediated and rate-limited, or native, by constructor),
    /// remote handler cost proportional to the batch deposited as core
    /// debt.
    pub fn shootdown_batch(
        &self,
        ctx: &mut dyn SimCtx,
        debts: &aquila_sim::CoreDebts,
        pages: &[Vpn],
    ) {
        if pages.is_empty() {
            return;
        }
        let sp = aquila_sim::span::begin(ctx, "tlb.shootdown", CostCat::Tlb);
        // Functional invalidation on every core's TLB; the 2 MiB probes
        // run once per distinct huge page of the batch.
        let mut hvpns: Vec<Vpn> = pages.iter().map(|&v| Tlb::hvpn_of(v)).collect();
        hvpns.sort_unstable();
        hvpns.dedup();
        for (core, tlb) in self.tlbs.iter().enumerate() {
            race::acquire(ctx, (L_TLB, core as u64));
            tlb.lock().invalidate_batch(pages, &hvpns);
            race::write(ctx, (V_TLB, core as u64));
            race::release(ctx, (L_TLB, core as u64));
        }
        // Local invalidation cost: invlpg per page up to the point where a
        // full flush is cheaper.
        let cost = ctx.cost();
        let per_page = cost.tlb_invlpg * pages.len() as u64;
        let local = per_page.min(cost.tlb_flush_local * 4);
        let remote_handler = local; // Remote cores do the same work.
        ctx.charge(CostCat::Tlb, local);
        ctx.counters().tlb_invalidations += pages.len() as u64;
        ctx.counters().tlb_shootdowns += 1;
        // One IPI round for the whole batch. Tag every remote core with
        // this shootdown's causal span first, so each core's debt drain
        // records a `tlb.ipi.drain` child linking back to us.
        debts.tag_broadcast_except(ctx.core(), sp.id());
        race::acquire(ctx, (L_APIC, 0));
        self.apic.lock().broadcast(ctx, debts, remote_handler);
        race::write(ctx, (V_APIC, 0));
        race::release(ctx, (L_APIC, 0));
        aquila_sim::span::end(ctx, sp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{CoreDebts, Cycles, FreeCtx};

    fn flags() -> PteFlags {
        PteFlags::RW
    }

    /// Runs `f` with `core`'s TLB, as that core would.
    fn on_core<R>(fabric: &TlbFabric, core: usize, f: impl FnOnce(&mut Tlb) -> R) -> R {
        fabric.with_local(&mut FreeCtx::new(1).with_core(core, fabric.cores()), f)
    }

    #[test]
    fn lookup_after_insert_hits() {
        let mut tlb = Tlb::new();
        assert!(tlb.lookup(Vpn(42)).is_none());
        tlb.insert(Vpn(42), Gpa(0x1000), flags());
        let (gpa, fl) = tlb.lookup(Vpn(42)).unwrap();
        assert_eq!(gpa, Gpa(0x1000));
        assert!(fl.writable);
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut tlb = Tlb::new();
        tlb.insert(Vpn(7), Gpa(0x7000), flags());
        tlb.invalidate(Vpn(7));
        assert!(tlb.lookup(Vpn(7)).is_none());
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn set_conflicts_evict_lru() {
        let mut tlb = Tlb::new();
        // Five VPNs mapping to the same set (stride TLB_SETS).
        let vpns: Vec<Vpn> = (0..5).map(|i| Vpn(i * TLB_SETS as u64)).collect();
        for &v in &vpns {
            tlb.insert(v, Gpa(v.0 * 4096), flags());
        }
        // The first-inserted (LRU) entry is gone; the rest survive.
        assert!(tlb.lookup(vpns[0]).is_none());
        for &v in &vpns[1..] {
            assert!(tlb.lookup(v).is_some(), "vpn {v:?} evicted unexpectedly");
        }
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = Tlb::new();
        for i in 0..100 {
            tlb.insert(Vpn(i), Gpa(i * 4096), flags());
        }
        tlb.flush();
        for i in 0..100 {
            assert!(tlb.lookup(Vpn(i)).is_none());
        }
        assert_eq!(tlb.flushes(), 1);
    }

    #[test]
    fn shootdown_invalidates_all_cores_and_charges_sender() {
        let fabric = TlbFabric::new(4, ApicFabric::new());
        let debts = CoreDebts::new(4);
        // Fill core 2's TLB.
        on_core(&fabric, 2, |t| t.insert(Vpn(9), Gpa(0x9000), flags()));
        let mut ctx = FreeCtx::new(1).with_core(0, 4);
        fabric.shootdown_batch(&mut ctx, &debts, &[Vpn(9), Vpn(10)]);
        assert!(on_core(&fabric, 2, |t| t.lookup(Vpn(9)).is_none()));
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 2);
        // Sender paid at least the mediated IPI cost.
        assert!(ctx.breakdown.get(CostCat::Tlb).get() >= 2081);
        // Remote cores owe handler work.
        assert!(debts.drain(1) > Cycles::ZERO);
    }

    #[test]
    fn lookup_and_with_local_use_the_calling_cores_tlb() {
        let fabric = TlbFabric::new(2, ApicFabric::new());
        let mut core1 = FreeCtx::new(1).with_core(1, 2);
        let mut core0 = FreeCtx::new(1).with_core(0, 2);
        fabric.with_local(&mut core1, |t| t.insert(Vpn(5), Gpa(0x5000), flags()));
        assert_eq!(
            fabric.lookup(&mut core1, Vpn(5)),
            Some((Gpa(0x5000), flags()))
        );
        assert_eq!(fabric.lookup(&mut core0, Vpn(5)), None);
        assert_eq!(fabric.stats(), (1, 1));
        assert_eq!(fabric.huge_hits(), 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let fabric = TlbFabric::new(2, ApicFabric::new());
        let debts = CoreDebts::new(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        fabric.shootdown_batch(&mut ctx, &debts, &[]);
        assert_eq!(ctx.now(), Cycles::ZERO);
        assert_eq!(ctx.stats.tlb_shootdowns, 0);
    }

    #[test]
    fn large_batch_cost_capped_by_flush() {
        let fabric = TlbFabric::new(2, ApicFabric::new());
        let debts = CoreDebts::new(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        let pages: Vec<Vpn> = (0..512).map(Vpn).collect();
        fabric.shootdown_batch(&mut ctx, &debts, &pages);
        // 512 invlpg at 120 cycles would be 61k; the flush cap (4 * 500)
        // bounds the local cost, leaving 2000 + the 2081-cycle send.
        let tlb_cost = ctx.breakdown.get(CostCat::Tlb).get();
        assert!(
            tlb_cost < 10_000,
            "batched cost should be capped: {tlb_cost}"
        );
    }

    #[test]
    fn huge_entry_translates_every_slice_and_counts_one_reach() {
        let mut tlb = Tlb::new();
        let hbase = Vpn(0x1200); // 2M-aligned (0x1200 % 512 == 0).
        tlb.insert_huge(hbase, Gpa(0x4000_0000), flags());
        for idx in [0u64, 1, 255, 511] {
            let (gpa, fl) = tlb.lookup(Vpn(hbase.0 + idx)).unwrap();
            assert_eq!(gpa, Gpa(0x4000_0000 + idx * 4096));
            assert!(fl.writable);
        }
        assert_eq!(tlb.huge_hits(), 4);
        assert_eq!(tlb.stats().0, 4);
        assert_eq!(tlb.reach_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn invalidate_any_slice_drops_covering_huge_entry() {
        let mut tlb = Tlb::new();
        let hbase = Vpn(512);
        tlb.insert_huge(hbase, Gpa(0x20_0000), flags());
        assert!(tlb.lookup(Vpn(512 + 100)).is_some());
        // invlpg of a middle slice kills the whole 2M entry.
        tlb.invalidate(Vpn(512 + 300));
        assert!(tlb.lookup(Vpn(512 + 100)).is_none());
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn small_entry_wins_over_huge_and_flush_clears_both() {
        let mut tlb = Tlb::new();
        let hbase = Vpn(1024);
        tlb.insert_huge(hbase, Gpa(0x40_0000), flags());
        // A 4K entry for one slice shadows the huge entry for that page.
        tlb.insert(Vpn(1025), Gpa(0xAB_C000), flags());
        let (gpa, _) = tlb.lookup(Vpn(1025)).unwrap();
        assert_eq!(gpa, Gpa(0xAB_C000));
        assert_eq!(tlb.huge_hits(), 0);
        tlb.flush();
        assert!(tlb.lookup(Vpn(1025)).is_none());
        assert!(tlb.lookup(Vpn(1024)).is_none());
        assert_eq!(tlb.reach_bytes(), 0);
    }

    #[test]
    fn huge_sub_tlb_conflicts_evict_lru() {
        let mut tlb = Tlb::new();
        // Five huge pages mapping to the same sub-TLB set (hvpn stride
        // HUGE_TLB_SETS => vpn stride HUGE_TLB_SETS * 512).
        let stride = (HUGE_TLB_SETS as u64) * 512;
        let bases: Vec<Vpn> = (0..5).map(|i| Vpn(i * stride)).collect();
        for &b in &bases {
            tlb.insert_huge(b, Gpa(b.0 * 4096), flags());
        }
        assert!(tlb.lookup(bases[0]).is_none());
        for &b in &bases[1..] {
            assert!(tlb.lookup(b).is_some(), "huge {b:?} evicted unexpectedly");
        }
    }

    #[test]
    fn shootdown_drops_huge_entries_on_every_core() {
        let fabric = TlbFabric::new(2, ApicFabric::new());
        let debts = CoreDebts::new(2);
        let hbase = Vpn(2048);
        for core in 0..2 {
            on_core(&fabric, core, |t| {
                t.insert_huge(hbase, Gpa(0x80_0000), flags())
            });
        }
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        fabric.shootdown_batch(&mut ctx, &debts, &[hbase]);
        for core in 0..2 {
            assert!(on_core(&fabric, core, |t| t
                .lookup(Vpn(2048 + 17))
                .is_none()));
        }
    }

    /// The TLB as it was before sets were packed into cache lines: one
    /// 40-byte entry per way and a global LRU tick. The packed [`Tlb`]
    /// must be observably identical to it.
    mod model {
        use super::super::{HUGE_TLB_SETS, TLB_SETS, WAYS};
        use crate::addr::{Vpn, PAGE_2M, PAGE_SIZE};
        use crate::pagetable::PteFlags;
        use aquila_vmx::Gpa;

        #[derive(Clone, Copy)]
        struct Entry {
            vpn: Vpn,
            gpa: Gpa,
            flags: PteFlags,
            valid: bool,
            lru: u64,
        }

        const INVALID: Entry = Entry {
            vpn: Vpn(0),
            gpa: Gpa(0),
            flags: PteFlags {
                present: false,
                writable: false,
                dirty: false,
                accessed: false,
            },
            valid: false,
            lru: 0,
        };

        pub struct ModelTlb {
            sets: Vec<[Entry; WAYS]>,
            huge_sets: Vec<[Entry; WAYS]>,
            tick: u64,
            pub hits: u64,
            pub huge_hits: u64,
            pub misses: u64,
            pub invalidations: u64,
        }

        fn fill(set: &mut [Entry; WAYS], vpn: Vpn, gpa: Gpa, flags: PteFlags, tick: u64) {
            let victim = set
                .iter_mut()
                .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
                .unwrap();
            *victim = Entry {
                vpn,
                gpa,
                flags,
                valid: true,
                lru: tick,
            };
        }

        impl ModelTlb {
            pub fn new() -> ModelTlb {
                ModelTlb {
                    sets: vec![[INVALID; WAYS]; TLB_SETS],
                    huge_sets: vec![[INVALID; WAYS]; HUGE_TLB_SETS],
                    tick: 0,
                    hits: 0,
                    huge_hits: 0,
                    misses: 0,
                    invalidations: 0,
                }
            }

            pub fn lookup(&mut self, vpn: Vpn) -> Option<(Gpa, PteFlags)> {
                self.tick += 1;
                let tick = self.tick;
                for e in self.sets[vpn.0 as usize % TLB_SETS].iter_mut() {
                    if e.valid && e.vpn == vpn {
                        e.lru = tick;
                        self.hits += 1;
                        return Some((e.gpa, e.flags));
                    }
                }
                let hvpn = Vpn(vpn.0 >> 9);
                for e in self.huge_sets[hvpn.0 as usize % HUGE_TLB_SETS].iter_mut() {
                    if e.valid && e.vpn == hvpn {
                        e.lru = tick;
                        self.hits += 1;
                        self.huge_hits += 1;
                        let slice = Gpa(e.gpa.get() + (vpn.0 & 0x1FF) * PAGE_SIZE);
                        return Some((slice, e.flags));
                    }
                }
                self.misses += 1;
                None
            }

            pub fn insert(&mut self, vpn: Vpn, gpa: Gpa, flags: PteFlags) {
                self.tick += 1;
                fill(
                    &mut self.sets[vpn.0 as usize % TLB_SETS],
                    vpn,
                    gpa,
                    flags,
                    self.tick,
                );
            }

            pub fn insert_huge(&mut self, hbase: Vpn, gpa: Gpa, flags: PteFlags) {
                self.tick += 1;
                let hvpn = Vpn(hbase.0 >> 9);
                fill(
                    &mut self.huge_sets[hvpn.0 as usize % HUGE_TLB_SETS],
                    hvpn,
                    gpa,
                    flags,
                    self.tick,
                );
            }

            pub fn invalidate(&mut self, vpn: Vpn) {
                for e in self.sets[vpn.0 as usize % TLB_SETS].iter_mut() {
                    if e.valid && e.vpn == vpn {
                        e.valid = false;
                        self.invalidations += 1;
                    }
                }
                let hvpn = Vpn(vpn.0 >> 9);
                for e in self.huge_sets[hvpn.0 as usize % HUGE_TLB_SETS].iter_mut() {
                    if e.valid && e.vpn == hvpn {
                        e.valid = false;
                        self.invalidations += 1;
                    }
                }
            }

            pub fn flush(&mut self) {
                for e in self.sets.iter_mut().chain(&mut self.huge_sets).flatten() {
                    e.valid = false;
                }
            }

            pub fn reach_bytes(&self) -> u64 {
                let small = self.sets.iter().flatten().filter(|e| e.valid).count() as u64;
                let huge = self.huge_sets.iter().flatten().filter(|e| e.valid).count() as u64;
                small * PAGE_SIZE + huge * PAGE_2M
            }
        }
    }

    #[test]
    fn packed_tlb_matches_the_entry_model() {
        use aquila_sim::Rng64;
        for seed in 1..=4 {
            let mut rng = Rng64::new(seed);
            let mut tlb = Tlb::new();
            let mut model = model::ModelTlb::new();
            // Few distinct VPNs, all in 3 small sets and 2 huge sets
            // (stride TLB_SETS keeps the small set, stride 512 *
            // HUGE_TLB_SETS the huge one), so ways collide constantly.
            let vpn = |rng: &mut Rng64| {
                let small_set = rng.below(3) * 5;
                let huge = rng.below(2) * 3 + rng.below(3) * 512 * HUGE_TLB_SETS as u64;
                Vpn(huge * 512 + small_set + rng.below(6) * TLB_SETS as u64)
            };
            let gpa = |rng: &mut Rng64| Gpa(rng.below(1 << 20) * PAGE_2M);
            let flags = |rng: &mut Rng64| {
                let b = rng.below(16);
                PteFlags {
                    present: b & 1 != 0,
                    writable: b & 2 != 0,
                    dirty: b & 4 != 0,
                    accessed: b & 8 != 0,
                }
            };
            for step in 0..3_000 {
                match rng.below(100) {
                    0..=39 => {
                        let v = vpn(&mut rng);
                        assert_eq!(tlb.lookup(v), model.lookup(v), "seed {seed} step {step}");
                    }
                    40..=69 => {
                        let (v, g, f) = (vpn(&mut rng), gpa(&mut rng), flags(&mut rng));
                        tlb.insert(v, g, f);
                        model.insert(v, g, f);
                    }
                    70..=79 => {
                        let v = Vpn(vpn(&mut rng).0 & !0x1FF);
                        let (g, f) = (gpa(&mut rng), flags(&mut rng));
                        tlb.insert_huge(v, g, f);
                        model.insert_huge(v, g, f);
                    }
                    80..=89 => {
                        let v = vpn(&mut rng);
                        tlb.invalidate(v);
                        model.invalidate(v);
                    }
                    90..=98 => {
                        let pages: Vec<Vpn> =
                            (0..rng.range(1, 12)).map(|_| vpn(&mut rng)).collect();
                        let mut hvpns: Vec<Vpn> = pages.iter().map(|&v| Tlb::hvpn_of(v)).collect();
                        hvpns.sort_unstable();
                        hvpns.dedup();
                        tlb.invalidate_batch(&pages, &hvpns);
                        for &v in &pages {
                            model.invalidate(v);
                        }
                    }
                    _ => {
                        tlb.flush();
                        model.flush();
                    }
                }
                assert_eq!(
                    tlb.stats(),
                    (model.hits, model.misses),
                    "seed {seed} step {step}"
                );
                assert_eq!(tlb.huge_hits(), model.huge_hits);
                assert_eq!(tlb.invalidations(), model.invalidations);
                assert_eq!(tlb.reach_bytes(), model.reach_bytes());
                assert_eq!(tlb.regions, recount(&tlb), "seed {seed} step {step}");
            }
        }
    }

    /// The region summary recounted from the 4 KiB sets' valid ways.
    fn recount(tlb: &Tlb) -> [u32; REGIONS] {
        let mut regions = [0; REGIONS];
        for set in tlb.sets.iter() {
            for &k in set.keys.iter().filter(|&&k| k & VALID != 0) {
                regions[Tlb::region_of(Tlb::hvpn_of(Vpn(k >> KEY_SHIFT)))] += 1;
            }
        }
        regions
    }

    #[test]
    fn shootdown_skips_cores_without_the_batch_and_matches_the_entry_model() {
        // The remap shape: core 0 holds the batch's 1024 pages (two
        // 2 MiB regions); each other core holds 64 pages of regions of
        // its own.
        const CORES: usize = 32;
        let fabric = TlbFabric::new(CORES, ApicFabric::new());
        let debts = CoreDebts::new(CORES);
        let mut models: Vec<model::ModelTlb> = (0..CORES).map(|_| model::ModelTlb::new()).collect();
        let base = 0x40_000u64;
        let batch: Vec<Vpn> = (base..base + 1024).map(Vpn).collect();
        let held = |core: usize| -> Vec<Vpn> {
            if core == 0 {
                batch.clone()
            } else {
                let start = base + 1024 * core as u64;
                (start..start + 64).map(Vpn).collect()
            }
        };
        for (core, model) in models.iter_mut().enumerate() {
            for v in held(core) {
                on_core(&fabric, core, |t| {
                    t.insert(v, Gpa(v.0 * PAGE_SIZE), flags())
                });
                model.insert(v, Gpa(v.0 * PAGE_SIZE), flags());
            }
        }
        let mut ctx = FreeCtx::new(1).with_core(0, CORES);
        fabric.shootdown_batch(&mut ctx, &debts, &batch);
        for model in models.iter_mut() {
            for &v in &batch {
                model.invalidate(v);
            }
        }
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 1024);
        for (core, model) in models.iter_mut().enumerate() {
            on_core(&fabric, core, |t| {
                assert_eq!(t.invalidations(), model.invalidations, "core {core}");
                assert_eq!(t.regions, recount(t), "core {core}");
                for v in held(core) {
                    assert_eq!(t.lookup(v), model.lookup(v), "core {core} {v:?}");
                }
                assert_eq!(t.reach_bytes(), model.reach_bytes(), "core {core}");
            });
        }
        assert_eq!(models[0].invalidations, 1024);
        assert_eq!(on_core(&fabric, 0, |t| t.reach_bytes()), 0);
        assert_eq!(on_core(&fabric, 1, |t| t.reach_bytes()), 64 * PAGE_SIZE);
    }

    #[test]
    fn a_set_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<Set>(), 64);
        assert_eq!(std::mem::align_of::<Set>(), 64);
    }

    #[test]
    fn batching_amortizes_ipi_cost() {
        // One batch of 512 pages vs 512 single-page shootdowns.
        let debts = CoreDebts::new(2);
        let pages: Vec<Vpn> = (0..512).map(Vpn).collect();

        let fabric1 = TlbFabric::new(2, ApicFabric::new());
        let mut batched = FreeCtx::new(1).with_core(0, 2);
        fabric1.shootdown_batch(&mut batched, &debts, &pages);
        let _ = debts.drain(1);

        let fabric2 = TlbFabric::new(2, ApicFabric::new());
        let mut single = FreeCtx::new(1).with_core(0, 2);
        for &p in &pages {
            fabric2.shootdown_batch(&mut single, &debts, &[p]);
        }
        let b = batched.breakdown.get(CostCat::Tlb).get();
        let s = single.breakdown.get(CostCat::Tlb).get();
        assert!(
            s > 50 * b,
            "batching should amortize IPIs: batched={b} single={s}"
        );
    }
}
