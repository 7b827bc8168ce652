//! The hardware half of address translation, shared by both engines.
//!
//! [`Mmu`] is a sharded page table plus every core's TLB. Aquila and the
//! Linux baseline translate, unmap, write-protect and shoot down through
//! the same calls, so a figure that compares them compares two OS
//! designs over one MMU model. They differ only in the IPI send, picked
//! by the [`aquila_vmx::ApicFabric`] constructor each engine calls:
//! Aquila's sends go through the hypervisor-mediated, rate-limited path
//! (section 4.1), the Linux baseline's directly, as a kernel in root
//! mode sends them.

use std::sync::Arc;

use aquila_sim::{CoreDebts, CostCat, Cycles, SimCtx};
use aquila_vmx::Gpa;

use crate::addr::{Gva, Vpn};
use crate::pagetable::{Access, LeafKind, PageFaultKind, Pte, PteFlags};
use crate::sharded::ShardedPageTable;
use crate::tlb::TlbFabric;

/// A sharded page table plus per-core TLBs and their shootdown path.
pub struct Mmu {
    /// The page table.
    pub page_table: ShardedPageTable,
    /// The per-core TLBs.
    pub tlbs: TlbFabric,
    /// Where a shootdown deposits the other cores' handler work.
    debts: Arc<CoreDebts>,
}

impl Mmu {
    /// An MMU over `tlbs`, with one page-table shard per core (at least
    /// two), keyed by 2 MiB block (DESIGN.md §17.2).
    pub fn new(tlbs: TlbFabric, debts: Arc<CoreDebts>) -> Mmu {
        Mmu {
            page_table: ShardedPageTable::new(tlbs.cores().max(2)),
            tlbs,
            debts,
        }
    }

    /// Translates one access as the hardware does: a hit in the calling
    /// core's TLB is free; a miss walks the page table without a
    /// software lock, charges one memory reference per radix level (a
    /// 2 MiB leaf ends the walk a level early) and fills the TLB.
    /// Returns the full GPA, or the fault the walk raised.
    #[inline]
    pub fn translate(
        &self,
        ctx: &mut dyn SimCtx,
        gva: Gva,
        access: Access,
    ) -> Result<Gpa, PageFaultKind> {
        let vpn = gva.vpn();
        if let Some((base, flags)) = self.tlbs.lookup(ctx, vpn) {
            if access == Access::Read || flags.writable {
                return Ok(Gpa(base.get() + gva.page_offset()));
            }
        }
        let (gpa, pte, kind) = self.page_table.translate_leaf(gva, access)?;
        let levels = match kind {
            LeafKind::Small => 4,
            LeafKind::Huge => 3,
        };
        let walk = Cycles(ctx.cost().radix_level.get() * levels);
        ctx.charge(CostCat::Tlb, walk);
        self.tlbs.with_local(ctx, |t| match kind {
            LeafKind::Small => t.insert(vpn, pte.gpa, pte.flags),
            LeafKind::Huge => t.insert_huge(vpn.huge_base(), pte.gpa, pte.flags),
        });
        Ok(gpa)
    }

    /// Drops the 4 KiB PTEs of `vpns`, passes each live one to `dropped`
    /// in `vpns` order, then shoots them all down in one round.
    pub fn unmap(&self, ctx: &mut dyn SimCtx, vpns: &[Vpn], mut dropped: impl FnMut(Vpn, Pte)) {
        let unmapped = self
            .page_table
            .with_each(ctx, vpns, |pt, i| pt.unmap(vpns[i].base()));
        let mut flushed = Vec::new();
        for (&vpn, pte) in vpns.iter().zip(unmapped) {
            if let Some(pte) = pte {
                dropped(vpn, pte);
                flushed.push(vpn);
            }
        }
        self.shootdown(ctx, &flushed);
    }

    /// Downgrades the live PTEs of `vpns` to read-only and shoots down,
    /// in one round, the ones that were writable: no TLB holds a write
    /// permission for the others. An empty round costs nothing.
    pub fn write_protect(&self, ctx: &mut dyn SimCtx, vpns: &[Vpn]) {
        let was = self
            .page_table
            .with_each(ctx, vpns, |pt, i| pt.protect(vpns[i].base(), PteFlags::RO));
        let flushed: Vec<Vpn> = vpns
            .iter()
            .zip(was)
            .filter_map(|(&vpn, old)| old.is_some_and(|f| f.writable).then_some(vpn))
            .collect();
        self.shootdown(ctx, &flushed);
    }

    /// Sets the flags of the leaf at `vpn` (a 4 KiB PTE, or a 2 MiB leaf
    /// at its base) and drops the calling core's entry for it: the
    /// write-fault upgrade. It needs no shootdown, as another core's
    /// stale read-only entry refaults at worst.
    pub fn upgrade(&self, ctx: &mut dyn SimCtx, vpn: Vpn, flags: PteFlags) {
        self.page_table
            .with(ctx, vpn, |pt| pt.protect(vpn.base(), flags));
        self.tlbs.with_local(ctx, |t| t.invalidate(vpn));
    }

    /// One shootdown round for `vpns`, whose PTEs the caller has already
    /// dropped or downgraded (see [`TlbFabric::shootdown_batch`]).
    pub fn shootdown(&self, ctx: &mut dyn SimCtx, vpns: &[Vpn]) {
        self.tlbs.shootdown_batch(ctx, &self.debts, vpns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    fn mmu(cores: usize) -> (Mmu, Arc<CoreDebts>) {
        let debts = Arc::new(CoreDebts::new(cores));
        let tlbs = TlbFabric::new(cores, aquila_vmx::ApicFabric::native());
        (Mmu::new(tlbs, Arc::clone(&debts)), debts)
    }

    fn map(m: &Mmu, ctx: &mut FreeCtx, vpn: u64, flags: PteFlags) {
        m.page_table.with(ctx, Vpn(vpn), |pt| {
            pt.map(Vpn(vpn).base(), Gpa(vpn << 12), flags)
        });
    }

    #[test]
    fn a_miss_walks_and_fills_and_a_hit_is_free() {
        let (m, _) = mmu(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        map(&m, &mut ctx, 7, PteFlags::RO);
        let gva = Gva(0x7123);
        assert_eq!(m.translate(&mut ctx, gva, Access::Read), Ok(Gpa(0x7123)));
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(4 * 25));
        assert_eq!(m.translate(&mut ctx, gva, Access::Read), Ok(Gpa(0x7123)));
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(4 * 25));
        // A write through the read-only entry walks and faults, charging
        // nothing.
        assert!(m.translate(&mut ctx, gva, Access::Write).is_err());
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(4 * 25));
    }

    #[test]
    fn write_protect_shoots_down_only_the_writable() {
        let (m, debts) = mmu(2);
        let mut ctx = FreeCtx::new(1).with_core(0, 2);
        map(&m, &mut ctx, 1, PteFlags::RW);
        map(&m, &mut ctx, 2, PteFlags::RO);
        m.write_protect(&mut ctx, &[Vpn(1), Vpn(2), Vpn(3)]);
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.stats.tlb_invalidations, 1);
        // Native send: one invlpg plus 298 cycles, no vmexit.
        assert_eq!(ctx.breakdown.get(CostCat::Tlb), Cycles(120 + 298));
        assert_eq!(debts.drain(1), Cycles(300 + 120));
        // Nothing is writable any more: the round is empty and free.
        let now = ctx.now();
        m.write_protect(&mut ctx, &[Vpn(1), Vpn(2), Vpn(3)]);
        assert_eq!(ctx.stats.tlb_shootdowns, 1);
        assert_eq!(ctx.now(), now);
    }

    #[test]
    fn unmap_passes_the_live_entries_and_invalidates_every_core() {
        let (m, _) = mmu(2);
        let mut core1 = FreeCtx::new(1).with_core(1, 2);
        map(&m, &mut core1, 5, PteFlags::RW);
        assert!(m.translate(&mut core1, Gva(0x5000), Access::Read).is_ok());
        let mut core0 = FreeCtx::new(2).with_core(0, 2);
        let mut dropped = Vec::new();
        m.unmap(&mut core0, &[Vpn(4), Vpn(5)], |vpn, pte| {
            dropped.push((vpn, pte.gpa))
        });
        assert_eq!(dropped, [(Vpn(5), Gpa(0x5000))]);
        assert_eq!(core0.stats.tlb_invalidations, 1);
        assert_eq!(
            m.translate(&mut core1, Gva(0x5000), Access::Read),
            Err(PageFaultKind::NotPresent)
        );
    }
}
