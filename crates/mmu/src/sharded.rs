//! Per-vcore sharded page-table ownership.
//!
//! [`ShardedPageTable`] splits page-table ownership across `n` shards
//! keyed by 2 MiB block (`vpn >> 9`), so a transparent huge-page run and
//! all of its 4 KiB leaves always live in one shard, and concurrent
//! faults on disjoint regions touch disjoint locks. Contention on a
//! shard is modeled: each software-side acquisition reserves the shard
//! lock in virtual time and waits out any queueing delay (the hold itself
//! is *not* charged — the operation's cost is charged by the caller, so
//! an uncontended acquisition is free). Range operations go through
//! [`ShardedPageTable::with_each`], which takes each touched shard's lock
//! once per call, as Linux holds the PTE lock across a PMD.
//!
//! The reservation is a first-gap search over the shard's most recent
//! busy intervals, not a FIFO cursor. The engine runs each operation as
//! one step, so a PTE install that follows an NVMe fill inside that step
//! reserves the lock later in virtual time than cores that run after it
//! in host order; under a FIFO cursor those earlier arrivals would queue
//! behind a hold that starts after they do.
//!
//! Race-detector identities are per-shard instances of one ranked name
//! (`mmu.pt.shard`), declared under the `mmu` domain by the engine so
//! `sim::race` checks the huge-path lock order against shard locks.

use std::collections::VecDeque;

use aquila_sync::Mutex;

use aquila_sim::{race, CostCat, Cycles, SimCtx};

use aquila_vmx::Gpa;

use crate::addr::{Gva, Vpn};
use crate::pagetable::{Access, LeafKind, PageFaultKind, PageTable, Pte};

/// Race-detector lock name for shard instances (rank declared by the
/// engine: `aquila.huge` before `mmu.pt.shard`).
pub const L_PT_SHARD: &str = "mmu.pt.shard";
const V_PT_SHARD: &str = "mmu.pt.shard.state";

/// Busy intervals a shard remembers for gap reservation.
const BUSY_HISTORY: usize = 16;

struct Shard {
    pt: PageTable,
    /// The shard lock's most recent busy intervals `[start, end)` in
    /// virtual time: sorted by start, disjoint and never touching (a
    /// hold that touches a neighbour extends it, so a saturated lock is
    /// one interval however many holders queue on it).
    busy: VecDeque<(Cycles, Cycles)>,
}

impl Shard {
    /// Reserves the shard lock for `hold` cycles in the first gap at or
    /// after `now`; returns the reservation's start.
    fn reserve(&mut self, now: Cycles, hold: Cycles) -> Cycles {
        let mut start = now;
        let mut at = self.busy.len();
        if self.busy.back().is_some_and(|&(_, end)| end > now) {
            for (i, &(s, e)) in self.busy.iter().enumerate() {
                if e <= start {
                    continue;
                }
                if start + hold <= s {
                    at = i;
                    break;
                }
                start = e;
            }
        }
        let end = start + hold;
        let joins_prev = at > 0 && self.busy[at - 1].1 == start;
        let joins_next = at < self.busy.len() && self.busy[at].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.busy[at - 1].1 = self.busy[at].1;
                self.busy.remove(at);
            }
            (true, false) => self.busy[at - 1].1 = end,
            (false, true) => self.busy[at].0 = start,
            (false, false) => {
                self.busy.insert(at, (start, end));
                if self.busy.len() > BUSY_HISTORY {
                    self.busy.pop_front();
                }
            }
        }
        start
    }
}

/// A page table with per-vcore sharded ownership.
pub struct ShardedPageTable {
    shards: Box<[Mutex<Shard>]>,
}

impl ShardedPageTable {
    /// Creates `shards` owned shards (at least one).
    pub fn new(shards: usize) -> ShardedPageTable {
        ShardedPageTable {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        pt: PageTable::new(),
                        busy: VecDeque::with_capacity(BUSY_HISTORY + 1),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning `vpn`: 2 MiB-block granular so a huge-page run and
    /// its 4 KiB leaves share one owner.
    #[inline]
    fn shard_of(&self, vpn: Vpn) -> usize {
        ((vpn.0 >> 9) as usize) % self.shards.len()
    }

    /// Runs `f` under shard `idx`'s lock, modeling the acquisition.
    fn locked<R>(
        &self,
        ctx: &mut dyn SimCtx,
        idx: usize,
        f: impl FnOnce(&mut PageTable) -> R,
    ) -> R {
        ctx.counters().pt_shard_locks += 1;
        race::acquire(ctx, (L_PT_SHARD, idx as u64));
        let hold = ctx.cost().lock_uncontended;
        let out = {
            let mut shard = self.shards[idx].lock();
            let start = shard.reserve(ctx.now(), hold);
            // Queueing delay only: the hold occupies the shard in virtual
            // time, but the operation's own cost is charged by the caller.
            ctx.wait_until(start, CostCat::LockWait);
            f(&mut shard.pt)
        };
        race::write(ctx, (V_PT_SHARD, idx as u64));
        race::release(ctx, (L_PT_SHARD, idx as u64));
        out
    }

    /// Runs a software page-table operation against the shard owning
    /// `vpn`, modeling the shard lock. The closure must touch only the
    /// page table (shard locks are leaves in the lock order).
    pub fn with<R>(
        &self,
        ctx: &mut dyn SimCtx,
        vpn: Vpn,
        f: impl FnOnce(&mut PageTable) -> R,
    ) -> R {
        self.locked(ctx, self.shard_of(vpn), f)
    }

    /// Runs `f(table, i)` for every index `i` of `vpns` against the shard
    /// owning `vpns[i]`, taking each touched shard's lock once (in shard
    /// order) rather than once per page. Within a shard the calls follow
    /// the order of `vpns`; results come back in that order too.
    pub fn with_each<R>(
        &self,
        ctx: &mut dyn SimCtx,
        vpns: &[Vpn],
        mut f: impl FnMut(&mut PageTable, usize) -> R,
    ) -> Vec<R> {
        let mut order: Vec<usize> = (0..vpns.len()).collect();
        order.sort_by_key(|&i| self.shard_of(vpns[i]));
        let mut out: Vec<Option<R>> = vpns.iter().map(|_| None).collect();
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let idx = self.shard_of(vpns[first]);
            let n = rest
                .iter()
                .take_while(|&&i| self.shard_of(vpns[i]) == idx)
                .count();
            self.locked(ctx, idx, |pt| {
                for &i in &rest[..n] {
                    out[i] = Some(f(pt, i));
                }
            });
            rest = &rest[n..];
        }
        out.into_iter()
            .map(|r| r.expect("every page belongs to one visited shard"))
            .collect()
    }

    /// Hardware page walk (no software lock: the MMU contends on memory,
    /// not on the table's lock). `&mut` access via the shard's host
    /// mutex only.
    pub fn translate(&self, gva: Gva, access: Access) -> Result<Gpa, PageFaultKind> {
        self.translate_leaf(gva, access).map(|(gpa, ..)| gpa)
    }

    /// [`ShardedPageTable::translate`] that also returns the leaf the walk
    /// resolved through and its kind, in one hold of the shard's host
    /// mutex (see [`PageTable::translate_leaf`]).
    pub fn translate_leaf(
        &self,
        gva: Gva,
        access: Access,
    ) -> Result<(Gpa, Pte, LeafKind), PageFaultKind> {
        self.shards[self.shard_of(gva.vpn())]
            .lock()
            .pt
            .translate_leaf(gva, access)
    }

    /// Leaf probe for `gva` (hardware-walk side, like
    /// [`ShardedPageTable::translate`]).
    pub fn lookup_leaf(&self, gva: Gva) -> Option<(Pte, LeafKind)> {
        self.shards[self.shard_of(gva.vpn())]
            .lock()
            .pt
            .lookup_leaf(gva)
    }

    /// Total mapped 4 KiB pages across shards.
    pub fn mapped_pages(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().pt.mapped_pages()).sum()
    }

    /// Total mapped 2 MiB leaves across shards.
    pub fn huge_mapped(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().pt.huge_mapped()).sum()
    }

    /// Resets shard-lock timing models (between experiment phases, like
    /// the device-side `reset_timing`).
    pub fn reset_timing(&self) {
        for s in self.shards.iter() {
            s.lock().busy.clear();
        }
    }
}

impl core::fmt::Debug for ShardedPageTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShardedPageTable {{ shards: {}, mapped: {} }}",
            self.shards(),
            self.mapped_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::PteFlags;
    use aquila_sim::{FreeCtx, Rng64};

    fn gpa(frame: u64) -> Gpa {
        Gpa(frame << 12)
    }

    #[test]
    fn uncontended_sharded_charges_nothing() {
        let pt = ShardedPageTable::new(8);
        let mut ctx = FreeCtx::new(1);
        let t0 = ctx.now();
        pt.with(&mut ctx, Vpn(5), |p| {
            p.map(Vpn(5).base(), gpa(1), PteFlags::RW);
        });
        assert_eq!(ctx.now(), t0, "uncontended shard acquisitions are free");
        let got = pt.translate(Vpn(5).base(), Access::Read).unwrap();
        assert_eq!(got, gpa(1));
    }

    #[test]
    fn disjoint_blocks_use_disjoint_shards() {
        let pt = ShardedPageTable::new(4);
        // Same 2 MiB block -> same shard (huge runs keep one owner);
        // consecutive blocks -> consecutive shards.
        assert_eq!(pt.shard_of(Vpn(0)), pt.shard_of(Vpn(511)));
        assert_ne!(pt.shard_of(Vpn(0)), pt.shard_of(Vpn(512)));
    }

    #[test]
    fn contended_shard_queues_in_virtual_time() {
        let pt = ShardedPageTable::new(2);
        let mut a = FreeCtx::new(1);
        let mut b = FreeCtx::new(2);
        // Both cores hit the same shard at the same virtual time: the
        // second waits out the first's hold.
        pt.with(&mut a, Vpn(0), |p| {
            p.map(Vpn(0).base(), gpa(1), PteFlags::RW);
        });
        pt.with(&mut b, Vpn(1), |p| {
            p.map(Vpn(1).base(), gpa(2), PteFlags::RW);
        });
        assert_eq!(a.breakdown.get(CostCat::LockWait), Cycles::ZERO);
        assert!(b.breakdown.get(CostCat::LockWait) > Cycles::ZERO);
        // Disjoint blocks at the same time: no wait.
        let mut c = FreeCtx::new(3);
        pt.with(&mut c, Vpn(512), |p| {
            p.map(Vpn(512).base(), gpa(3), PteFlags::RW);
        });
        assert_eq!(c.breakdown.get(CostCat::LockWait), Cycles::ZERO);
    }

    /// A whole-op step can reserve a shard late in virtual time (after a
    /// device fill); a core that arrives earlier takes the free gap before
    /// that hold instead of queueing behind it.
    #[test]
    fn late_reservation_does_not_delay_earlier_arrival() {
        let pt = ShardedPageTable::new(2);
        let mut a = FreeCtx::new(1);
        a.charge(CostCat::DeviceIo, Cycles(10_000));
        pt.with(&mut a, Vpn(0), |p| {
            p.map(Vpn(0).base(), gpa(1), PteFlags::RW);
        });
        let mut b = FreeCtx::new(2);
        b.charge(CostCat::FaultHandler, Cycles(100));
        pt.with(&mut b, Vpn(1), |p| {
            p.map(Vpn(1).base(), gpa(2), PteFlags::RW);
        });
        assert_eq!(b.breakdown.get(CostCat::LockWait), Cycles::ZERO);
        assert_eq!(b.now(), Cycles(100));
    }

    #[test]
    fn gap_reservation_skips_holes_too_small_for_the_hold() {
        let mut s = Shard {
            pt: PageTable::new(),
            busy: VecDeque::new(),
        };
        assert_eq!(s.reserve(Cycles(100), Cycles(40)), Cycles(100));
        assert_eq!(s.reserve(Cycles(160), Cycles(40)), Cycles(160));
        // [140, 160) is 20 cycles: too small, so the hold lands at 200
        // and extends the interval it touches.
        assert_eq!(s.reserve(Cycles(120), Cycles(40)), Cycles(200));
        // A hole before every interval fits.
        assert_eq!(s.reserve(Cycles(0), Cycles(40)), Cycles(0));
        let busy: Vec<(u64, u64)> = s.busy.iter().map(|&(b, e)| (b.get(), e.get())).collect();
        assert_eq!(busy, [(0, 40), (100, 140), (160, 240)]);
        // A hold that touches the run before it extends that run.
        assert_eq!(s.reserve(Cycles(40), Cycles(40)), Cycles(40));
        assert_eq!(s.busy[0], (Cycles(0), Cycles(80)));
    }

    /// Holders that queue back to back form one busy run, so a lock with
    /// more queued holders than the history's length stays serialized;
    /// only separated intervals count against the bound.
    #[test]
    fn deep_queue_stays_serialized_and_history_stays_bounded() {
        let mut s = Shard {
            pt: PageTable::new(),
            busy: VecDeque::new(),
        };
        for k in 0..300u64 {
            assert_eq!(s.reserve(Cycles(0), Cycles(40)), Cycles(40 * k));
        }
        assert_eq!(s.busy.len(), 1);
        for k in 0..2 * BUSY_HISTORY as u64 {
            s.reserve(Cycles(100_000 + 1000 * k), Cycles(40));
        }
        assert_eq!(s.busy.len(), BUSY_HISTORY);
    }

    #[test]
    fn with_each_locks_each_touched_shard_once() {
        let pt = ShardedPageTable::new(2);
        let mut ctx = FreeCtx::new(1);
        // Three blocks over two shards, pages interleaved across them.
        let vpns: Vec<Vpn> = (0..12u64).map(|i| Vpn((i % 3) * 512 + i)).collect();
        let got = pt.with_each(&mut ctx, &vpns, |p, i| {
            p.map(vpns[i].base(), gpa(vpns[i].0), PteFlags::RW);
            vpns[i]
        });
        assert_eq!(got, vpns, "results come back in input order");
        assert_eq!(ctx.breakdown.get(CostCat::LockWait), Cycles::ZERO);
        assert_eq!(pt.mapped_pages(), 12);
        let unmapped = pt.with_each(&mut ctx, &vpns, |p, i| p.unmap(vpns[i].base()));
        assert!(unmapped.iter().all(Option::is_some));
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn counts_aggregate_across_shards() {
        let pt = ShardedPageTable::new(3);
        let mut ctx = FreeCtx::new(1);
        for i in 0..6u64 {
            let vpn = Vpn(i * 512);
            pt.with(&mut ctx, vpn, |p| {
                p.map(vpn.base(), gpa(i + 1), PteFlags::RW);
            });
        }
        assert_eq!(pt.mapped_pages(), 6);
        assert_eq!(pt.huge_mapped(), 0);
        for i in 0..6u64 {
            assert!(pt.lookup_leaf(Vpn(i * 512).base()).is_some());
        }
    }

    /// Sharding is invisible to the table's contents: random
    /// map/unmap/protect/map_huge/unmap_huge sequences over 1, 4 and 64
    /// shards agree with one plain [`PageTable`] on every probe.
    #[test]
    fn sharded_page_table_matches_single_table() {
        const BLOCKS: u64 = 6;
        let mut rng = Rng64::new(0x5AD);
        for shards in [1usize, 4, 64] {
            for _ in 0..40 {
                let pt = ShardedPageTable::new(shards);
                let mut reference = PageTable::new();
                let mut ctx = FreeCtx::new(shards as u64);
                for _ in 0..rng.range(1, 400) {
                    let vpn = Vpn(rng.below(BLOCKS * 512));
                    let gva = vpn.base();
                    let flags = if rng.chance(0.5) {
                        PteFlags::RW
                    } else {
                        PteFlags::RO
                    };
                    let under_huge =
                        matches!(reference.lookup_leaf(gva), Some((_, LeafKind::Huge)));
                    match rng.below(5) {
                        0 if !under_huge => {
                            let g = gpa(0x100 + vpn.0);
                            let want = reference.map(gva, g, flags);
                            assert_eq!(pt.with(&mut ctx, vpn, |p| p.map(gva, g, flags)), want);
                        }
                        1 => {
                            let want = reference.unmap(gva);
                            assert_eq!(pt.with(&mut ctx, vpn, |p| p.unmap(gva)), want);
                        }
                        2 => {
                            let want = reference.protect(gva, flags);
                            assert_eq!(pt.with(&mut ctx, vpn, |p| p.protect(gva, flags)), want);
                        }
                        3 => {
                            let hbase = vpn.huge_base();
                            let g = Gpa(0x4000_0000 + (hbase.0 << 12));
                            let want = reference.map_huge(hbase.base(), g, flags);
                            let got =
                                pt.with(&mut ctx, hbase, |p| p.map_huge(hbase.base(), g, flags));
                            assert_eq!(got, want);
                        }
                        4 => {
                            let want = reference.unmap_huge(gva);
                            assert_eq!(pt.with(&mut ctx, vpn, |p| p.unmap_huge(gva)), want);
                        }
                        _ => {}
                    }
                    let probe = Vpn(rng.below(BLOCKS * 512)).base();
                    assert_eq!(pt.lookup_leaf(probe), reference.lookup_leaf(probe));
                    let access = if rng.chance(0.5) {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    assert_eq!(
                        pt.translate(probe, access),
                        reference.translate(probe, access)
                    );
                }
                assert_eq!(pt.mapped_pages(), reference.mapped_pages());
                assert_eq!(pt.huge_mapped(), reference.huge_mapped());
                for v in 0..BLOCKS * 512 {
                    let gva = Vpn(v).base();
                    assert_eq!(pt.lookup_leaf(gva), reference.lookup_leaf(gva));
                }
            }
        }
    }
}
